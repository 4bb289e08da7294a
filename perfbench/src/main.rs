//! `osdiv-perfbench`: the repository's serving benchmark.
//!
//! ```text
//! osdiv-perfbench --workload hot_read|query_mix|tenant_churn --seed N
//!                 --seconds S --trace 0|1 --osdiv PATH
//! ```
//!
//! Boots `osdiv serve` (the binary at `--osdiv`), drives one seeded
//! workload against it over loop-back sockets for `--seconds`, checks
//! every response against an in-process reference, and prints as its last
//! stdout line one JSON object: `correct`, `attempted`, `failed` and the
//! `metrics` (end-to-end ones untraced; per-layer ones with `--trace 1`).
//! Exits 1 when any answer was wrong or a run guard tripped, 2 when the
//! run could not be set up. See README.md in this directory.

mod affinity;
mod inputs;
mod layers;
mod server;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use inputs::Key;
use server::{Conn, Server};
use stats::Scrape;
use trace::{json_string, SpanLog};
use workloads::{Tally, TENANTS};

/// End-to-end metrics: name and unit.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("req_per_s", "req/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of a traced run: name, unit, and the end-to-end
/// metric (on the workload) each one should move.
const PER_LAYER: &[(&str, &str, &str)] = &[
    ("http.parse_us", "us", "p50_us on hot_read"),
    ("http.write_us", "us", "p50_us, req_per_s on hot_read"),
    (
        "http.chunked_mb_per_s",
        "MB/s",
        "ingest_mb_per_s on tenant_churn",
    ),
    ("router.self_us", "us", "req_per_s on hot_read"),
    ("router.cache_hit_ratio", "ratio", "req_per_s on query_mix"),
    (
        "router.cache_lookups",
        "count",
        "base of router.cache_hit_ratio",
    ),
    ("router.stage.parse_us", "us", "p50_us on hot_read"),
    ("router.stage.cache_lookup_us", "us", "p50_us on hot_read"),
    ("router.stage.render_us", "us", "p50_us on query_mix"),
    ("router.stage.write_us", "us", "p50_us on hot_read"),
    ("server.reconnects_per_kreq", "1/kreq", "p99_us on hot_read"),
    ("registry.get_us", "us", "req_per_s on hot_read"),
    (
        "registry.spills",
        "count/round",
        "wake_p50_ms on tenant_churn",
    ),
    (
        "registry.snapshot_loads",
        "count/round",
        "wake_p50_ms on tenant_churn",
    ),
    (
        "registry.snapshot_writes",
        "count/round",
        "wake_p50_ms on tenant_churn",
    ),
    ("ingest.carve_ms", "ms", "ingest_mb_per_s on tenant_churn"),
    ("ingest.parse_ms", "ms", "ingest_mb_per_s on tenant_churn"),
    ("ingest.insert_ms", "ms", "ingest_mb_per_s on tenant_churn"),
    (
        "ingest.scan_work_per_byte",
        "ratio",
        "ingest_mb_per_s on tenant_churn",
    ),
    (
        "feed.read_mb_per_s",
        "MB/s",
        "ingest_mb_per_s on tenant_churn",
    ),
    (
        "classify.ms_per_feed",
        "ms",
        "ingest_mb_per_s on tenant_churn",
    ),
    ("persist.save_ms", "ms", "put_p90_ms on tenant_churn"),
    (
        "persist.journal_append_us",
        "us",
        "put_p90_ms on tenant_churn",
    ),
    ("persist.load_ms", "ms", "wake_p50_ms on tenant_churn"),
    ("snapshot.encode_ms", "ms", "put_p90_ms on tenant_churn"),
    ("snapshot.decode_ms", "ms", "wake_p50_ms on tenant_churn"),
    (
        "snapshot.crc_mb_per_s",
        "MB/s",
        "put_p90_ms, wake_p50_ms on tenant_churn",
    ),
    (
        "snapshot.bytes.store",
        "bytes",
        "disk_bytes_per_feed_byte on tenant_churn",
    ),
    (
        "snapshot.bytes.index",
        "bytes",
        "disk_bytes_per_feed_byte on tenant_churn",
    ),
    (
        "snapshot.bytes.meta",
        "bytes",
        "disk_bytes_per_feed_byte on tenant_churn",
    ),
    ("vulnstore.decode_ms", "ms", "wake_p50_ms on tenant_churn"),
    ("index.build_ms", "ms", "cold_report_p50_ms on tenant_churn"),
    (
        "analysis.validity_us",
        "us",
        "cold_report_p50_ms on tenant_churn",
    ),
    (
        "analysis.classes_us",
        "us",
        "cold_report_p50_ms on tenant_churn",
    ),
    (
        "analysis.pairwise_us",
        "us",
        "cold_report_p50_ms on tenant_churn",
    ),
    (
        "analysis.split_us",
        "us",
        "cold_report_p50_ms on tenant_churn",
    ),
    (
        "analysis.releases_us",
        "us",
        "cold_report_p50_ms on tenant_churn",
    ),
    (
        "analysis.temporal_us",
        "us",
        "cold_report_p50_ms on tenant_churn",
    ),
    (
        "analysis.kway_us",
        "us",
        "cold_report_p50_ms on tenant_churn",
    ),
    (
        "analysis.selection_us",
        "us",
        "cold_report_p50_ms on tenant_churn",
    ),
    ("analysis.param_us", "us", "p50_us on query_mix"),
    (
        "study.run_all_ms",
        "ms",
        "setup_s, cold_report_p50_ms on tenant_churn",
    ),
    (
        "study.sequential_ms",
        "ms",
        "setup_s, cold_report_p50_ms on tenant_churn",
    ),
    (
        "render.text_us",
        "us",
        "p50_us on query_mix, cold_report_p50_ms",
    ),
    ("render.csv_us", "us", "p50_us on query_mix"),
    ("render.json_us", "us", "p50_us on query_mix"),
    (
        "traced.req_per_s",
        "req/s",
        "req_per_s minus this is the tracing overhead",
    ),
    (
        "traced.p50_us",
        "us",
        "this minus p50_us is the tracing overhead",
    ),
];

/// Server boots per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Server worker threads; at least the connection count of every workload.
const THREADS: usize = 2;
/// Requests each reads workload's warm-up sends after its preload.
const WARMUP_REQUESTS: usize = 500;
/// The reads workloads run as closed-loop slices this long, at least
/// [`MIN_SLICES`] of them.
const SLICE_SECONDS: f64 = 0.5;
const MIN_SLICES: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    HotRead,
    QueryMix,
    TenantChurn,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "hot_read" => Some(Workload::HotRead),
            "query_mix" => Some(Workload::QueryMix),
            "tenant_churn" => Some(Workload::TenantChurn),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::HotRead => "hot_read",
            Workload::QueryMix => "query_mix",
            Workload::TenantChurn => "tenant_churn",
        }
    }

    fn connections(self) -> usize {
        match self {
            Workload::HotRead => 2,
            _ => 1,
        }
    }

    /// Whether setups and measured slices pin the server and the caller
    /// to one CPU. A single connection is a ping-pong between the caller and one
    /// server worker; on two CPUs each leg pays a cross-core wake-up, which
    /// on a 2-vCPU VM cost 30 of a `query_mix` miss's 75 µs and moved with
    /// thread placement.
    fn pinned(self) -> bool {
        self == Workload::QueryMix
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    osdiv: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut osdiv) = (None, 1, 10.0, false, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?
            }
            "--trace" => trace = value == "1",
            "--osdiv" => osdiv = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        osdiv: osdiv.ok_or("--osdiv is required")?,
    })
}

fn main() {
    let code = match parse_args().and_then(|args| {
        let work = PathBuf::from(".perfbench").join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
        let result = run(&args, &work);
        let _ = std::fs::remove_dir_all(&work);
        result
    }) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("perfbench: {message}");
            2
        }
    };
    std::process::exit(code);
}

/// The generated inputs of one workload.
enum Plan {
    Reads {
        keys: Vec<Key>,
        revalidate: bool,
    },
    Churn {
        bodies: Vec<Vec<u8>>,
        references: Vec<Vec<u8>>,
    },
}

fn server_flags(workload: Workload, data_dir: &Path) -> Vec<String> {
    let mut flags: Vec<String> = ["--addr", "127.0.0.1:0", "--enable-shutdown", "--threads"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    flags.push(THREADS.to_string());
    if workload == Workload::TenantChurn {
        // A registry budget of ~2.5 MB keeps about two ingested tenants
        // resident; it also caps feed bytes, so it stays above 2 MB.
        for flag in [
            "--enable-dataset-delete",
            "--data-dir",
            &data_dir.display().to_string(),
            "--durability",
            "rename",
            "--max-dataset-bytes",
            "2500000",
        ] {
            flags.push(flag.to_string());
        }
    }
    flags
}

/// The server's environment. `tenant_churn` bounds glibc malloc to one
/// arena: with more, which arena a thread lands in depends on timing, and
/// the server's peak RSS moved by a third between identical churn runs.
fn server_env(workload: Workload) -> Vec<(&'static str, &'static str)> {
    match workload {
        Workload::TenantChurn => vec![("MALLOC_ARENA_MAX", "1")],
        _ => Vec::new(),
    }
}

/// What a setup leaves for the measured phase: the ETags learned at
/// preload (reads workloads).
fn warm_up(plan: &Plan, seed: u64, server: &Server, tally: &mut Tally) -> Vec<String> {
    match plan {
        Plan::Reads { keys, revalidate } => {
            let etags = if *revalidate {
                workloads::preload(server.addr, keys, tally)
            } else {
                Vec::new()
            };
            let reqs = workloads::encode(keys, &etags);
            let warm = workloads::schedules(seed ^ 0x7761_726d, keys.len(), 1, *revalidate);
            workloads::run_plan(
                server.addr,
                &reqs,
                &warm[0][..WARMUP_REQUESTS],
                keys,
                &etags,
                tally,
            );
            etags
        }
        Plan::Churn { bodies, references } => {
            let steps: [(Vec<Vec<u8>>, u16); 3] = [
                (
                    vec![server::put_head("/v1/datasets/warm"), bodies[0].clone()],
                    201,
                ),
                (
                    vec![server::get_request("GET", "/v1/report?dataset=warm", &[])],
                    200,
                ),
                (
                    vec![server::get_request("DELETE", "/v1/datasets/warm", &[])],
                    200,
                ),
            ];
            let Ok(mut conn) = Conn::connect(server.addr) else {
                tally.fail("connect for warm-up".to_string());
                return Vec::new();
            };
            for (i, (parts, want)) in steps.iter().enumerate() {
                tally.attempted += 1;
                let parts: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
                match conn.send_parts(&parts) {
                    Ok(reply) if reply.status == *want => {
                        if i == 1 && conn.body() != references[0].as_slice() {
                            tally.wrong("warm-up report differs from the reference".to_string());
                        }
                    }
                    Ok(reply) => tally.wrong(format!("warm-up step {i}: status {}", reply.status)),
                    Err(error) => tally.fail(format!("warm-up step {i}: {error}")),
                }
            }
            Vec::new()
        }
    }
}

/// Output metrics in declaration order.
type Metrics = Vec<(&'static str, &'static str, f64)>;

fn run(args: &Args, work: &Path) -> Result<i32, String> {
    let workload = args.workload;
    if THREADS < workload.connections() {
        return Err(format!(
            "--threads {THREADS} is below the {} connections",
            workload.connections()
        ));
    }
    // Inputs and references, all before any server starts.
    let study = Arc::new(inputs::default_study());
    let hot = inputs::hot_keys(&study);
    let query_count = match (workload, args.trace) {
        (Workload::QueryMix, _) => inputs::QUERY_MIX_QUERIES,
        (_, true) => layers::QUERIES,
        _ => 0,
    };
    let queries = inputs::query_keys(&study, args.seed, query_count);
    let feed_count = match (workload, args.trace) {
        (Workload::TenantChurn, _) => TENANTS,
        (_, true) => 1,
        _ => 0,
    };
    let feeds = inputs::feeds(args.seed, feed_count);
    let mut exact: Vec<String> = Vec::new();
    let plan = match workload {
        Workload::HotRead => Plan::Reads {
            keys: hot.clone(),
            revalidate: true,
        },
        Workload::QueryMix => Plan::Reads {
            keys: queries.clone(),
            revalidate: false,
        },
        Workload::TenantChurn => {
            let mut references = Vec::new();
            let mut scan_work = Vec::new();
            for feed in &feeds {
                let (report, work) = inputs::reference_report(feed);
                references.push(report);
                scan_work.push(work);
            }
            if inputs::reference_report(&feeds[0]).1 != scan_work[0] {
                exact.push(
                    "ingest scan work differed between two ingestions of one feed".to_string(),
                );
            }
            Plan::Churn {
                bodies: feeds
                    .iter()
                    .map(|feed| server::chunked(&feed.xml))
                    .collect(),
                references,
            }
        }
    };

    // A pinned workload boots and warms up each server, and runs each
    // measured slice, with the server and the caller on one CPU, taking
    // the CPUs in turn.
    let cpus = if workload.pinned() {
        affinity::allowed()
    } else {
        Vec::new()
    };
    let pin_runner = |cpus: &[usize]| {
        affinity::pin_thread(0, cpus).map_err(|e| format!("pinning the runner to {cpus:?}: {e}"))
    };

    // Setups: boot, answer, warm up; the last one stays for the run.
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut live = None;
    for boot in 0..SETUPS {
        if !cpus.is_empty() {
            // The server inherits the runner's CPU.
            pin_runner(&[cpus[boot % cpus.len()]])?;
        }
        let data_dir = work.join(format!("data-{boot}"));
        let flags = server_flags(workload, &data_dir);
        let started = Instant::now();
        let server = Server::boot(&args.osdiv, &flags, &server_env(workload))
            .map_err(|e| format!("booting osdiv serve: {e}"))?;
        let booted = started.elapsed().as_secs_f64();
        let before = if boot + 1 == SETUPS {
            Some(server.scrape().map_err(|e| format!("scrape: {e}"))?)
        } else {
            None
        };
        let warm_started = Instant::now();
        let etags = warm_up(&plan, args.seed, &server, &mut tally);
        setups.push(booted + warm_started.elapsed().as_secs_f64());
        match before {
            Some(before) => live = Some((server, before, etags, flags, data_dir)),
            None => {
                server.shutdown().map_err(|e| format!("shutdown: {e}"))?;
                let _ = std::fs::remove_dir_all(&data_dir);
            }
        }
    }
    let (server, before, etags, flags, data_dir) = live.expect("the last setup is kept");
    if !cpus.is_empty() {
        pin_runner(&cpus)?;
    }

    // The measured phase.
    let epoch = Instant::now();
    let traced = args.trace.then_some(epoch);
    let mut e2e: Metrics = Vec::new();
    let mut info: Metrics = Vec::new();
    let mut socket_spans = SpanLog::new(epoch, 0, 100_000);
    // Persistence counters per churn round (exact); `None` for the reads
    // workloads, whose run totals are used instead.
    let mut round_counts = None;
    let (rate, p50) = match &plan {
        Plan::Reads { keys, revalidate } => {
            let reqs = workloads::encode(keys, &etags);
            let plans =
                workloads::schedules(args.seed, keys.len(), workload.connections(), *revalidate);
            // One closed loop per half second, each on fresh connections,
            // gives the per-slice figures the best decile is taken over.
            let slices = MIN_SLICES.max((args.seconds / SLICE_SECONDS).round() as usize);
            let mut per_slice = Vec::new();
            for slice in 0..slices {
                let cpu = (!cpus.is_empty()).then(|| cpus[slice % cpus.len()]);
                if let Some(cpu) = cpu {
                    server
                        .pin(cpu)
                        .map_err(|e| format!("pinning the server to CPU {cpu}: {e}"))?;
                }
                let load = workloads::closed_loop(
                    server.addr,
                    &reqs,
                    keys,
                    &etags,
                    &plans,
                    args.seconds / slices as f64,
                    traced,
                    slice * 7919,
                    cpu,
                );
                per_slice.push(workloads::load_stats(&load));
                tally.merge(load.tally);
                if let Some(spans) = load.log {
                    socket_spans.absorb(spans);
                }
            }
            let best = |i: usize, higher_is_better: bool| {
                let values: Vec<f64> = per_slice.iter().map(|s| s[i]).collect();
                stats::best_decile(&values, higher_is_better)
            };
            let (rate, p50) = (best(0, true), best(1, false));
            e2e.push(("req_per_s", "req/s", rate));
            e2e.push(("p50_us", "us", p50));
            e2e.push(("p99_us", "us", best(2, false)));
            (rate, p50)
        }
        Plan::Churn { bodies, references } => {
            let churn = workloads::churn(
                &server,
                &data_dir,
                &feeds,
                bodies,
                references,
                args.seconds,
                traced,
            );
            // Like the reads workloads' one-second slices: per-round
            // figures, reported as their best quartile across rounds.
            let per_round = |i: usize, higher_is_better: bool| {
                let values: Vec<f64> = churn.round_stats.iter().map(|r| r[i]).collect();
                stats::best_quartile(&values, higher_is_better)
            };
            let ms = |v: &[u64], q: f64| {
                stats::quantile(&v.iter().map(|ns| *ns as f64 / 1e6).collect::<Vec<_>>(), q)
            };
            let (rate, p50) = (per_round(0, true), per_round(1, false));
            e2e.push(("req_per_s", "req/s", rate));
            e2e.push(("p50_us", "us", p50));
            e2e.push(("p99_us", "us", per_round(2, false)));
            let put_s = churn.put_ns.iter().sum::<u64>() as f64 / 1e9;
            info.push((
                "ingest_mb_per_s",
                "MB/s",
                churn.put_bytes as f64 / 1e6 / put_s,
            ));
            info.push(("put_p90_ms", "ms", ms(&churn.put_ns, 0.90)));
            info.push(("cold_report_p50_ms", "ms", ms(&churn.cold_ns, 0.50)));
            info.push(("wake_p50_ms", "ms", ms(&churn.wake_ns, 0.50)));
            info.push(("wake_p90_ms", "ms", ms(&churn.wake_ns, 0.90)));
            info.push((
                "disk_bytes_per_feed_byte",
                "ratio",
                churn.rounds.first().map_or(0.0, |r| r[3]),
            ));
            info.push(("puts", "count", churn.put_ns.len() as f64));
            info.push(("rounds", "count", churn.rounds.len() as f64));
            // The exact-count self-check: every round repeats the first.
            if let Some(first) = churn.rounds.first() {
                if churn.rounds.iter().any(|round| round != first) {
                    exact.push(format!(
                        "per-round writes/loads/spills/disk ratio differ: {:?}",
                        churn.rounds
                    ));
                }
                if first[1] < first[4] {
                    exact.push(format!(
                        "{} snapshot loads for {} wake GETs: a woken tenant was still resident",
                        first[1], first[4]
                    ));
                }
                round_counts = Some([first[2], first[1], first[0]]);
            }
            tally.merge(churn.tally);
            if let Some(spans) = churn.log {
                socket_spans.absorb(spans);
            }
            (rate, p50)
        }
    };
    let after = server.scrape().map_err(|e| format!("scrape: {e}"))?;
    let peak_rss = server.peak_rss_mb();
    server.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    e2e.insert(0, ("setup_s", "s", stats::median(&setups)));
    e2e.push(("peak_rss_mb", "MB", peak_rss));

    // Run guards: the run measured serving, not shedding or starvation.
    let mut guards = Vec::new();
    for series in ["osdiv_shed_total", "osdiv_io_timeouts_total"] {
        let delta = Scrape::delta(&before, &after, series);
        if delta != 0.0 {
            guards.push(format!("{series} rose by {delta}"));
        }
    }

    let mut layer = BTreeMap::new();
    let mut log = SpanLog::new(epoch, 0, 100_000);
    if args.trace {
        let lookups = Scrape::delta(&before, &after, "osdiv_cache_hits")
            + Scrape::delta(&before, &after, "osdiv_cache_misses");
        let requests = Scrape::delta(&before, &after, "osdiv_requests_served");
        layer.insert("router.cache_lookups".to_string(), lookups);
        layer.insert(
            "router.cache_hit_ratio".to_string(),
            if lookups > 0.0 {
                Scrape::delta(&before, &after, "osdiv_cache_hits") / lookups
            } else {
                0.0
            },
        );
        for stage in ["parse", "cache_lookup", "render", "write"] {
            layer.insert(
                format!("router.stage.{stage}_us"),
                Scrape::stage_mean_us(&before, &after, stage),
            );
        }
        layer.insert(
            "server.reconnects_per_kreq".to_string(),
            Scrape::delta(&before, &after, "osdiv_connections_accepted")
                / (requests / 1000.0).max(1e-9),
        );
        let counts = [
            ("registry.spills", "osdiv_spills"),
            ("registry.snapshot_loads", "osdiv_snapshot_loads"),
            ("registry.snapshot_writes", "osdiv_snapshot_writes"),
        ];
        for (i, (name, series)) in counts.into_iter().enumerate() {
            let value =
                round_counts.map_or_else(|| Scrape::delta(&before, &after, series), |c| c[i]);
            layer.insert(name.to_string(), value);
        }
        layer.insert("traced.req_per_s".to_string(), rate);
        layer.insert("traced.p50_us".to_string(), p50);
        let replay_queries = &queries[..queries.len().min(3 * layers::QUERIES)];
        let replay = layers::replay(
            &study,
            &hot,
            replay_queries,
            &feeds[0],
            &work.join("replay"),
            &mut log,
        );
        if let Err(message) = replay.exact {
            exact.push(message);
        }
        layer.extend(replay.metrics);
        log.absorb(socket_spans);
    }

    // Report.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
    let flag_list: Vec<String> = flags.iter().map(|f| json_string(f)).collect();
    let provenance = format!(
        "\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\"commit\":{},\"rustc\":{},\"server_flags\":[{}],\"server_env\":{{{}}},\"durability\":{},\"connections\":{},\"threads\":{THREADS}",
        json_string(workload.name()),
        args.seed,
        args.seconds,
        args.trace,
        json_string(&env("PERFBENCH_COMMIT")),
        json_string(&env("PERFBENCH_RUSTC")),
        flag_list.join(","),
        server_env(workload)
            .iter()
            .map(|(k, v)| format!("{}:{}", json_string(k), json_string(v)))
            .collect::<Vec<_>>()
            .join(","),
        if workload == Workload::TenantChurn { "\"rename\"" } else { "null" },
        workload.connections(),
    );
    println!("{{\"provenance\":{{{provenance}}}}}");
    let mut metrics: Metrics = Vec::new();
    if args.trace {
        for (name, unit, moves) in PER_LAYER {
            let value = *layer
                .get(*name)
                .ok_or_else(|| format!("per-layer metric {name} was not measured"))?;
            println!("layer {name:<30} {value:>14.4} {unit:<6} moves {moves}");
            metrics.push((name, unit, value));
        }
        let path = PathBuf::from(".perfbench").join(format!("trace-{}.json", workload.name()));
        std::fs::write(&path, log.to_chrome_trace(&provenance))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "trace written to {} ({} spans, {} dropped)",
            path.display(),
            log.spans.len(),
            log.dropped
        );
    } else {
        for (name, unit) in END_TO_END {
            let value = e2e
                .iter()
                .find(|m| m.0 == name)
                .map(|m| m.2)
                .ok_or_else(|| format!("{name} was not measured"))?;
            metrics.push((name, unit, value));
        }
        for (name, unit, value) in metrics.iter().chain(&info) {
            println!("metric {name:<26} {value:>14.4} {unit}");
        }
    }
    for note in tally.notes.iter().chain(&guards).chain(&exact) {
        println!("problem: {note}");
    }
    let correct = tally.wrong == 0 && tally.failed == 0 && guards.is_empty() && exact.is_empty();
    let mut json = String::new();
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            json,
            "{}{}:{{\"value\":{value},\"unit\":{}}}",
            if i > 0 { "," } else { "" },
            json_string(name),
            json_string(unit)
        );
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
        tally.attempted.max(1),
        tally.failed + tally.wrong
    );
    Ok(if correct { 0 } else { 1 })
}
