//! The three workloads' request loops. Every response is checked against its
//! in-process reference; a wrong answer is counted apart from a transport
//! failure, and either makes the run incorrect.

use std::net::SocketAddr;
use std::path::Path;
use std::time::Instant;

use crate::inputs::{Feed, Key};
use crate::server::{self, Conn, Reply, Server};
use crate::stats::{self, Rng, Scrape};
use crate::trace::SpanLog;

/// Requests attempted, transport failures and wrong answers.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    pub notes: Vec<String>,
}

impl Tally {
    fn note(&mut self, message: String) {
        if self.notes.len() < 8 {
            self.notes.push(message);
        }
    }

    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        self.note(message);
    }

    pub fn wrong(&mut self, message: String) {
        self.wrong += 1;
        self.note(message);
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        for note in other.notes {
            self.note(note);
        }
    }
}

/// How a GET asks: plainly, or revalidating with the current or a stale
/// ETag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ask {
    Plain,
    Match,
    Stale,
}

const ASKS: [Ask; 3] = [Ask::Plain, Ask::Match, Ask::Stale];

/// One encoded GET and the key it must answer for.
#[derive(Debug)]
pub struct Req {
    pub raw: Vec<u8>,
    pub key: usize,
    pub ask: Ask,
}

/// Encodes every (key, ask) pair; index `key * 3 + ask`. `etags` holds
/// the tags learned at preload (empty: plain requests only).
pub fn encode(keys: &[Key], etags: &[String]) -> Vec<Req> {
    let mut reqs = Vec::new();
    for (key, k) in keys.iter().enumerate() {
        for ask in ASKS {
            let header = match ask {
                Ask::Plain => None,
                Ask::Match => etags.get(key).map(String::as_str),
                Ask::Stale => Some("\"stale-perfbench\""),
            };
            let extra: Vec<(&str, &str)> =
                header.map(|h| ("If-None-Match", h)).into_iter().collect();
            reqs.push(Req {
                raw: server::get_request("GET", &k.target, &extra),
                key,
                ask,
            });
        }
    }
    reqs
}

/// Per-connection request schedules: `hot_read` revalidates about a
/// quarter of its requests (and sends a stale tag on 1 in 64); `query_mix`
/// only asks plainly.
pub fn schedules(seed: u64, keys: usize, connections: usize, revalidate: bool) -> Vec<Vec<u32>> {
    let mut rng = Rng::new(seed ^ 0x0073_6368_6564);
    (0..connections)
        .map(|_| {
            (0..1usize << 16)
                .map(|_| {
                    let key = rng.below(keys);
                    let roll = rng.below(64);
                    let ask = match (revalidate, roll) {
                        (true, 0) => 2,
                        (true, r) if r <= 16 => 1,
                        _ => 0,
                    };
                    (key * 3 + ask) as u32
                })
                .collect()
        })
        .collect()
}

/// Checks one reply against its key; `Err` describes a wrong answer.
fn check(
    reply: &Reply,
    body: &[u8],
    req: &Req,
    keys: &[Key],
    etags: &[String],
) -> Result<(), String> {
    let key = &keys[req.key];
    let expected_status = if req.ask == Ask::Match { 304 } else { 200 };
    if reply.status != expected_status {
        return Err(format!(
            "{}: status {} (want {expected_status})",
            key.target, reply.status
        ));
    }
    if let Some(etag) = etags.get(req.key) {
        if reply.etag.as_deref() != Some(etag.as_str()) {
            return Err(format!(
                "{}: ETag {:?} (want {etag})",
                key.target, reply.etag
            ));
        }
    }
    if reply.status == 200 && body != key.expected.as_slice() {
        return Err(format!(
            "{}: body of {} bytes differs from the {}-byte reference",
            key.target,
            body.len(),
            key.expected.len()
        ));
    }
    Ok(())
}

/// Sends `plan` in order on one connection, checking each reply (the
/// preload and warm-up requests of a setup).
pub fn run_plan(
    addr: SocketAddr,
    reqs: &[Req],
    plan: &[u32],
    keys: &[Key],
    etags: &[String],
    tally: &mut Tally,
) {
    let mut conn = match Conn::connect(addr) {
        Ok(conn) => conn,
        Err(error) => return tally.fail(format!("connect: {error}")),
    };
    for &index in plan {
        let req = &reqs[index as usize];
        tally.attempted += 1;
        match conn.send(&req.raw) {
            Ok(reply) => {
                if let Err(message) = check(&reply, conn.body(), req, keys, etags) {
                    tally.wrong(message);
                }
            }
            Err(error) => return tally.fail(format!("{}: {error}", keys[req.key].target)),
        }
    }
}

/// Learns each key's ETag with one plain GET (checking the body too).
pub fn preload(addr: SocketAddr, keys: &[Key], tally: &mut Tally) -> Vec<String> {
    let reqs = encode(keys, &[]);
    let mut etags = Vec::new();
    let mut conn = match Conn::connect(addr) {
        Ok(conn) => conn,
        Err(error) => {
            tally.fail(format!("connect: {error}"));
            return etags;
        }
    };
    for (key, k) in keys.iter().enumerate() {
        tally.attempted += 1;
        let req = &reqs[key * 3];
        match conn.send(&req.raw) {
            Ok(reply) => {
                if let Err(message) = check(&reply, conn.body(), req, keys, &[]) {
                    tally.wrong(message);
                }
                etags.push(reply.etag.unwrap_or_default());
            }
            Err(error) => {
                tally.fail(format!("{}: {error}", k.target));
                etags.push(String::new());
            }
        }
    }
    etags
}

/// What a closed-loop run measured: the latency in ns of each completed
/// request.
#[derive(Debug)]
pub struct Load {
    pub samples: Vec<u64>,
    pub tally: Tally,
    pub elapsed_ns: u64,
    pub log: Option<SpanLog>,
}

/// Closed-loop callers, one thread and one keep-alive connection per
/// schedule, each sending its next request as soon as the last is answered,
/// for `seconds`, starting at entry `offset` of its schedule. With
/// `epoch`, every request is also recorded as a span; with `cpu`, the
/// callers run on that CPU.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    addr: SocketAddr,
    reqs: &[Req],
    keys: &[Key],
    etags: &[String],
    plans: &[Vec<u32>],
    seconds: f64,
    epoch: Option<Instant>,
    offset: usize,
    cpu: Option<usize>,
) -> Load {
    let start = Instant::now();
    let deadline = start + std::time::Duration::from_secs_f64(seconds);
    let results: Vec<_> = std::thread::scope(|scope| {
        let workers: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(tid, plan)| {
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    let mut samples = Vec::with_capacity(1 << 16);
                    // Offsets differ by more than the connection count
                    // between calls, so thread lanes and span ids stay
                    // unique across the calls of one run.
                    let lane = (offset + tid) as u64 + 1;
                    let mut log = epoch.map(|epoch| SpanLog::new(epoch, lane, 50_000));
                    if let Some(Err(error)) = cpu.map(|cpu| crate::affinity::pin_thread(0, &[cpu]))
                    {
                        tally.fail(format!("pin to CPU {cpu:?}: {error}"));
                        return (samples, tally, log);
                    }
                    let mut conn = match Conn::connect(addr) {
                        Ok(conn) => conn,
                        Err(error) => {
                            tally.fail(format!("connect: {error}"));
                            return (samples, tally, log);
                        }
                    };
                    let mut i = offset;
                    while Instant::now() < deadline {
                        let req = &reqs[plan[i % plan.len()] as usize];
                        i += 1;
                        tally.attempted += 1;
                        let span = log.as_mut().map(SpanLog::open);
                        let sent = Instant::now();
                        let reply = conn.send(&req.raw);
                        let done = Instant::now();
                        if let (Some(log), Some(id)) = (log.as_mut(), span) {
                            log.close(id, 0, "request", &keys[req.key].label, sent);
                        }
                        match reply {
                            Ok(reply) => match check(&reply, conn.body(), req, keys, etags) {
                                Ok(()) => samples.push(done.duration_since(sent).as_nanos() as u64),
                                Err(message) => tally.wrong(message),
                            },
                            Err(error) => {
                                tally.fail(format!("{}: {error}", keys[req.key].target));
                                match Conn::connect(addr) {
                                    Ok(fresh) => conn = fresh,
                                    Err(_) => break,
                                }
                            }
                        }
                    }
                    (samples, tally, log)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("load threads do not panic"))
            .collect()
    });
    let elapsed_ns = start.elapsed().as_nanos() as u64;
    let mut load = Load {
        samples: Vec::new(),
        tally: Tally::default(),
        elapsed_ns,
        log: epoch.map(|epoch| SpanLog::new(epoch, 0, 100_000)),
    };
    for (samples, tally, log) in results {
        load.samples.extend(samples);
        load.tally.merge(tally);
        if let (Some(all), Some(log)) = (load.log.as_mut(), log) {
            all.absorb(log);
        }
    }
    load
}

/// Throughput, p50 (µs) and p99 (µs) of one closed-loop run.
pub fn load_stats(load: &Load) -> [f64; 3] {
    let mut us: Vec<f64> = load.samples.iter().map(|ns| *ns as f64 / 1e3).collect();
    us.sort_by(f64::total_cmp);
    [
        us.len() as f64 / (load.elapsed_ns as f64 / 1e9),
        stats::quantile_sorted(&us, 0.50),
        stats::quantile_sorted(&us, 0.99),
    ]
}

/// Tenants created per churn round.
pub const TENANTS: usize = 12;
/// How far back the nearer of the two spilled tenants a cycle wakes is.
pub const WAKE_LAG: usize = 2;
/// Tenants kept alive; older ones are deleted.
pub const WINDOW: usize = 3;

/// What the tenant churn measured.
#[derive(Debug, Default)]
pub struct Churn {
    /// Every request's latency in ns.
    pub all_ns: Vec<u64>,
    pub put_ns: Vec<u64>,
    pub cold_ns: Vec<u64>,
    pub wake_ns: Vec<u64>,
    pub put_bytes: u64,
    pub tally: Tally,
    /// Per round: snapshot writes, snapshot loads, spills (`/metrics`
    /// deltas), disk bytes per live feed byte, and wake GETs sent.
    pub rounds: Vec<[f64; 5]>,
    /// Per round: requests completed per second, and the p50 and p99
    /// request latency in µs.
    pub round_stats: Vec<[f64; 3]>,
    pub log: Option<SpanLog>,
}

/// One churn operation: send, time, check, record.
struct Op<'a> {
    conn: &'a mut Conn,
    churn: &'a mut Churn,
}

impl Op<'_> {
    fn run(
        &mut self,
        parent: u64,
        name: &str,
        parts: &[&[u8]],
        want: u16,
    ) -> Option<(Reply, Vec<u8>, u64)> {
        self.churn.tally.attempted += 1;
        let span = self.churn.log.as_mut().map(SpanLog::open);
        let sent = Instant::now();
        let reply = self.conn.send_parts(parts);
        let ns = sent.elapsed().as_nanos() as u64;
        if let (Some(log), Some(id)) = (self.churn.log.as_mut(), span) {
            log.close(id, parent, "request", name, sent);
        }
        match reply {
            Err(error) => {
                self.churn.tally.fail(format!("{name}: {error}"));
                if let Ok(fresh) = Conn::connect(self.conn.addr()) {
                    *self.conn = fresh;
                }
                None
            }
            Ok(reply) if reply.status != want => {
                self.churn
                    .tally
                    .wrong(format!("{name}: status {} (want {want})", reply.status));
                None
            }
            Ok(reply) => {
                self.churn.all_ns.push(ns);
                Some((reply, self.conn.body().to_vec(), ns))
            }
        }
    }
}

/// Sum of `*.osdv` snapshot bytes in the data directory, and their count.
fn snapshot_bytes(dir: &Path) -> (u64, usize) {
    let mut total = (0, 0);
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            if entry.path().extension().is_some_and(|ext| ext == "osdv") {
                total.0 += entry.metadata().map(|m| m.len()).unwrap_or(0);
                total.1 += 1;
            }
        }
    }
    total
}

/// Churn rounds for `seconds` (at least two). Each round creates
/// [`TENANTS`] tenants in turn: PUT a feed, GET its report (a cold
/// compute), GET the reports of the tenants [`WAKE_LAG`]
/// and one more back (spilled by then, so each reloads from its
/// snapshot), DELETE the tenant [`WINDOW`] back; the round ends by
/// deleting the rest, so every round starts from the same registry state.
pub fn churn(
    server: &Server,
    data_dir: &Path,
    feeds: &[Feed],
    bodies: &[Vec<u8>],
    references: &[Vec<u8>],
    seconds: f64,
    epoch: Option<Instant>,
) -> Churn {
    let mut churn = Churn {
        log: epoch.map(|epoch| SpanLog::new(epoch, 1, 200_000)),
        ..Churn::default()
    };
    let mut conn = match Conn::connect(server.addr) {
        Ok(conn) => conn,
        Err(error) => {
            churn.tally.fail(format!("connect: {error}"));
            return churn;
        }
    };
    let start = Instant::now();
    let deadline = start + std::time::Duration::from_secs_f64(seconds);
    let mut round = 0;
    while round < 2 || Instant::now() < deadline {
        let before = server.scrape().unwrap_or_default();
        let round_span = churn.log.as_mut().map(SpanLog::open).unwrap_or(0);
        let round_start = Instant::now();
        let names: Vec<String> = (0..TENANTS).map(|i| format!("r{round}-t{i}")).collect();
        let mut etags: Vec<Option<String>> = vec![None; TENANTS];
        let mut disk = 0.0;
        let wakes_before = churn.wake_ns.len();
        let done_before = churn.all_ns.len();
        let mut op = Op {
            conn: &mut conn,
            churn: &mut churn,
        };
        for i in 0..TENANTS {
            let feed = &feeds[i % feeds.len()];
            let head = server::put_head(&format!("/v1/datasets/{}", names[i]));
            if let Some((_, body, ns)) =
                op.run(round_span, "PUT", &[&head, &bodies[i % feeds.len()]], 201)
            {
                op.churn.put_ns.push(ns);
                op.churn.put_bytes += feed.xml.len() as u64;
                let want = format!("\"entries\":{},", feed.distinct_entries);
                if !String::from_utf8_lossy(&body).contains(&want) {
                    op.churn.tally.wrong(format!(
                        "PUT {}: {} lacks {want}",
                        names[i],
                        String::from_utf8_lossy(&body).trim()
                    ));
                }
            }
            let report =
                |name: &str| server::get_request("GET", &format!("/v1/report?dataset={name}"), &[]);
            if let Some((reply, body, ns)) =
                op.run(round_span, "GET report (cold)", &[&report(&names[i])], 200)
            {
                op.churn.cold_ns.push(ns);
                if body != references[i % feeds.len()] {
                    op.churn.tally.wrong(format!(
                        "GET report of {}: body differs from the reference",
                        names[i]
                    ));
                }
                etags[i] = reply.etag;
            }
            for old in [WAKE_LAG, WAKE_LAG + 1]
                .into_iter()
                .filter_map(|lag| i.checked_sub(lag))
            {
                if let Some((reply, body, ns)) = op.run(
                    round_span,
                    "GET report (wake)",
                    &[&report(&names[old])],
                    200,
                ) {
                    op.churn.wake_ns.push(ns);
                    if body != references[old % feeds.len()] || reply.etag != etags[old] {
                        op.churn.tally.wrong(format!(
                            "woken {} serves other bytes or ETag than its first GET",
                            names[old]
                        ));
                    }
                }
            }
            if i == TENANTS - 1 {
                let (bytes, files) = snapshot_bytes(data_dir);
                // Live now: this tenant and the WINDOW before it.
                let live: u64 = (i - WINDOW..=i)
                    .map(|j| feeds[j % feeds.len()].xml.len() as u64)
                    .sum();
                if files != WINDOW + 1 {
                    op.churn
                        .tally
                        .wrong(format!("{files} snapshots on disk, want {}", WINDOW + 1));
                }
                disk = bytes as f64 / live as f64;
            }
            if i >= WINDOW {
                let delete = server::get_request(
                    "DELETE",
                    &format!("/v1/datasets/{}", names[i - WINDOW]),
                    &[],
                );
                op.run(round_span, "DELETE", &[&delete], 200);
            }
        }
        for name in &names[TENANTS - WINDOW..] {
            let delete = server::get_request("DELETE", &format!("/v1/datasets/{name}"), &[]);
            op.run(round_span, "DELETE", &[&delete], 200);
        }
        let mut round_us: Vec<f64> = churn.all_ns[done_before..]
            .iter()
            .map(|ns| *ns as f64 / 1e3)
            .collect();
        round_us.sort_by(f64::total_cmp);
        churn.round_stats.push([
            round_us.len() as f64 / round_start.elapsed().as_secs_f64(),
            stats::quantile_sorted(&round_us, 0.50),
            stats::quantile_sorted(&round_us, 0.99),
        ]);
        if let Some(log) = churn.log.as_mut() {
            log.close(
                round_span,
                0,
                "round",
                &format!("round {round}"),
                round_start,
            );
        }
        let after = server.scrape().unwrap_or_default();
        churn.rounds.push([
            Scrape::delta(&before, &after, "osdiv_snapshot_writes"),
            Scrape::delta(&before, &after, "osdiv_snapshot_loads"),
            Scrape::delta(&before, &after, "osdiv_spills"),
            disk,
            (churn.wake_ns.len() - wakes_before) as f64,
        ]);
        round += 1;
    }
    churn
}
