//! A minimal HTTP client and an open-loop Poisson-arrival load generator
//! ([`run_open_loop`]), over std `TcpStream` only. Used by the criterion
//! serving bench, the CI smoke binary and the end-to-end tests; closed-loop
//! serving load comes from `perfbench`.
//!
//! Each open-loop request has a *scheduled* arrival time drawn from a
//! Poisson process at the target rate, and its latency is measured from
//! that schedule — so queueing delay under overload counts against the
//! server instead of silently throttling the offered load (the
//! coordinated-omission trap).

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

/// A parsed client-side response.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// The status code.
    pub status: u16,
    /// Header fields in order of appearance (names lower-cased).
    pub headers: Vec<(String, String)>,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// The last value of a header (case-insensitive lookup).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy).
    pub fn body_string(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Writes a request with optional extra headers on an open connection.
pub fn write_request(
    stream: &mut impl Write,
    method: &str,
    path: &str,
    extra_headers: &[(&str, &str)],
) -> io::Result<()> {
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: osdiv-serve\r\n");
    for (name, value) in extra_headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.flush()
}

/// Writes a request carrying a `Content-Length` body.
pub fn write_request_with_body(
    stream: &mut impl Write,
    method: &str,
    path: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<()> {
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: osdiv-serve\r\n");
    for (name, value) in extra_headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Writes a request whose body is sent as `Transfer-Encoding: chunked`,
/// one wire chunk per element of `chunks` (empty slices are skipped — an
/// empty chunk would terminate the body early).
pub fn write_chunked_request(
    stream: &mut impl Write,
    method: &str,
    path: &str,
    extra_headers: &[(&str, &str)],
    chunks: &[&[u8]],
) -> io::Result<()> {
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: osdiv-serve\r\n");
    for (name, value) in extra_headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("Transfer-Encoding: chunked\r\n\r\n");
    stream.write_all(head.as_bytes())?;
    for chunk in chunks.iter().filter(|chunk| !chunk.is_empty()) {
        stream.write_all(format!("{:x}\r\n", chunk.len()).as_bytes())?;
        stream.write_all(chunk)?;
        stream.write_all(b"\r\n")?;
    }
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}

/// Reads one response (status line, headers, `Content-Length` body) off a
/// buffered connection. See [`read_response_for`] for HEAD responses.
pub fn read_response(reader: &mut impl BufRead) -> io::Result<ClientResponse> {
    read_response_for(reader, false)
}

/// Reads one response; `head_response` must be true when the request was a
/// HEAD — such a response advertises the representation's
/// `Content-Length` but carries no body, which the reader cannot tell
/// from the response alone.
pub fn read_response_for(
    reader: &mut impl BufRead,
    head_response: bool,
) -> io::Result<ClientResponse> {
    let bad = |message: &str| io::Error::new(io::ErrorKind::InvalidData, message.to_string());
    let mut status_line = String::new();
    if reader.read_line(&mut status_line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before the status line",
        ));
    }
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|code| code.trim().parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed inside the header block"));
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    let length: usize = headers
        .iter()
        .rev()
        .find(|(n, _)| n == "content-length")
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0);
    let mut body = vec![0u8; length];
    // A 304 (like a HEAD response) advertises the representation's length
    // but carries no body.
    if status != 304 && !head_response && length > 0 {
        reader.read_exact(&mut body)?;
    } else {
        body.clear();
    }
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

/// One-shot convenience: connect, GET `path`, read the response.
pub fn get(addr: SocketAddr, path: &str) -> io::Result<ClientResponse> {
    get_with_headers(addr, path, &[])
}

/// One-shot GET with extra request headers.
pub fn get_with_headers(
    addr: SocketAddr,
    path: &str,
    extra_headers: &[(&str, &str)],
) -> io::Result<ClientResponse> {
    request(addr, "GET", path, extra_headers)
}

/// One-shot HEAD: the returned response carries the representation's
/// headers (`Content-Length`, `ETag`, …) and an empty body.
pub fn head(addr: SocketAddr, path: &str) -> io::Result<ClientResponse> {
    request(addr, "HEAD", path, &[])
}

/// One-shot request without a body. HEAD is supported: the reader then
/// treats the advertised `Content-Length` as metadata only.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    extra_headers: &[(&str, &str)],
) -> io::Result<ClientResponse> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let mut reader = BufReader::new(stream);
    write_request(reader.get_mut(), method, path, extra_headers)?;
    read_response_for(&mut reader, method == "HEAD")
}

/// One-shot request with a `Content-Length` body.
pub fn request_with_body(
    addr: SocketAddr,
    method: &str,
    path: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<ClientResponse> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let mut reader = BufReader::new(stream);
    write_request_with_body(reader.get_mut(), method, path, extra_headers, body)?;
    read_response_for(&mut reader, method == "HEAD")
}

/// One-shot request streaming its body as `Transfer-Encoding: chunked` —
/// how a feed is PUT to `/v1/datasets/{name}` without the client (or the
/// server) ever holding it whole.
pub fn request_chunked(
    addr: SocketAddr,
    method: &str,
    path: &str,
    extra_headers: &[(&str, &str)],
    chunks: &[&[u8]],
) -> io::Result<ClientResponse> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let mut reader = BufReader::new(stream);
    write_chunked_request(reader.get_mut(), method, path, extra_headers, chunks)?;
    read_response_for(&mut reader, method == "HEAD")
}

/// Transport-error retries per request before it counts as an error.
const RETRY_ATTEMPTS: usize = 3;

/// Jittered exponential backoff before retry `attempt` (1-based): a
/// deterministic-per-thread random delay so a fleet of clients hitting a
/// restarting or shedding server does not stampede back in lockstep.
fn retry_backoff(state: &mut u64, attempt: usize) -> Duration {
    let base = 10u64 << attempt.min(6);
    let jitter = xorshift64(state) % base.max(1);
    Duration::from_millis(base + jitter)
}

/// Whether the server announced that it closes the connection after this
/// response (`Connection: close`, e.g. on its keep-alive cap).
fn closes_connection(response: &ClientResponse) -> bool {
    response
        .header("connection")
        .is_some_and(|value| value.eq_ignore_ascii_case("close"))
}

/// A fresh keep-alive client connection (10 s read timeout, no Nagle).
fn connect_client(addr: SocketAddr) -> Option<BufReader<TcpStream>> {
    let stream = TcpStream::connect(addr).ok()?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_nodelay(true);
    Some(BufReader::new(stream))
}

/// Configuration of an open-loop (Poisson-arrival) load run.
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// Target offered load in requests per second.
    pub rate_per_sec: f64,
    /// Run duration; the arrival schedule is pregenerated across this
    /// window, so the run sends a Poisson-distributed number of requests
    /// (mean `rate_per_sec * duration`).
    pub duration: Duration,
    /// Concurrent keep-alive connections draining the schedule.
    pub connections: usize,
    /// The path every request GETs.
    pub path: String,
    /// Seed of the deterministic arrival-schedule RNG.
    pub seed: u64,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        OpenLoopConfig {
            rate_per_sec: 1_000.0,
            duration: Duration::from_secs(2),
            connections: 4,
            path: "/v1/report?format=json".to_string(),
            seed: 2011,
        }
    }
}

/// The outcome of an open-loop run. Latency is completion minus the
/// request's *scheduled* arrival — a server that falls behind pays for
/// the queueing delay it caused.
#[derive(Debug)]
pub struct OpenLoopReport {
    /// Requests in the arrival schedule.
    pub total: usize,
    /// Responses with status 200.
    pub ok: usize,
    /// Requests that errored or answered non-200.
    pub errors: usize,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    /// Every status-200 response's schedule-to-completion latency in
    /// microseconds, sorted ascending.
    pub latency: Vec<u64>,
}

impl OpenLoopReport {
    /// Successful requests per wall-clock second.
    pub fn achieved_rate(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.ok as f64 / self.elapsed.as_secs_f64()
    }

    /// The `q`-quantile latency in microseconds (`q` clamps into
    /// `0.0..=1.0`): the nearest-rank sample, at rank `ceil(q · n)` of the
    /// sorted latencies (rank 1 for `q = 0`). 0 when nothing succeeded.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let rank = (self.latency.len() as f64 * q.clamp(0.0, 1.0)).ceil() as usize;
        self.latency.get(rank.max(1) - 1).copied().unwrap_or(0)
    }

    /// The mean latency in microseconds (0 when nothing succeeded).
    pub fn mean_us(&self) -> f64 {
        if self.latency.is_empty() {
            return 0.0;
        }
        self.latency.iter().sum::<u64>() as f64 / self.latency.len() as f64
    }

    /// A one-line human summary: rate, p50/p90/p99/p999 and errors.
    pub fn summary(&self) -> String {
        format!(
            "{} requests ({} ok, {} errors) in {:.2}s — {:.0} req/s, p50 {}µs p90 {}µs p99 {}µs p999 {}µs",
            self.total,
            self.ok,
            self.errors,
            self.elapsed.as_secs_f64(),
            self.achieved_rate(),
            self.quantile_us(0.50),
            self.quantile_us(0.90),
            self.quantile_us(0.99),
            self.quantile_us(0.999),
        )
    }
}

/// One xorshift64 step (never pass 0 state).
fn xorshift64(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// An `Exp(rate)` inter-arrival gap in seconds: `-ln(u)/rate` with `u`
/// uniform in (0, 1].
fn exponential_gap_secs(state: &mut u64, rate_per_sec: f64) -> f64 {
    let uniform = ((xorshift64(state) >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
    -uniform.ln() / rate_per_sec
}

/// The pregenerated Poisson arrival schedule for a run: each entry is an
/// arrival instant as an offset from the run start. Deterministic in the
/// seed.
pub fn poisson_schedule(config: &OpenLoopConfig) -> Vec<Duration> {
    let mut state = config.seed | 1;
    let mut at = 0.0f64;
    let mut arrivals = Vec::new();
    let horizon = config.duration.as_secs_f64();
    let rate = config.rate_per_sec.max(f64::MIN_POSITIVE);
    loop {
        at += exponential_gap_secs(&mut state, rate);
        if at >= horizon {
            break;
        }
        arrivals.push(Duration::from_secs_f64(at));
    }
    arrivals
}

/// Runs an open-loop load test: arrivals fire on the pregenerated
/// Poisson schedule regardless of how fast responses come back, and
/// every latency sample is measured from the scheduled arrival. Each
/// connection keeps its own samples; the report holds them all, sorted.
/// Connections reconnect after an error, so one broken socket does not
/// fail the rest of its schedule share, and right away after a response
/// announcing `Connection: close`, which is a planned close, not an error.
pub fn run_open_loop(addr: SocketAddr, config: &OpenLoopConfig) -> OpenLoopReport {
    let arrivals = poisson_schedule(config);
    let next = AtomicUsize::new(0);
    let errors = AtomicUsize::new(0);
    let started = Instant::now();
    let mut latency = thread::scope(|scope| {
        let mut workers = Vec::new();
        for worker in 0..config.connections.max(1) {
            let (next, errors, arrivals) = (&next, &errors, &arrivals);
            workers.push(scope.spawn(move || {
                let mut samples = Vec::new();
                let mut connection: Option<BufReader<TcpStream>> = None;
                let mut rng =
                    (config.seed ^ (worker as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)) | 1;
                loop {
                    let slot = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&arrival) = arrivals.get(slot) else {
                        break;
                    };
                    let scheduled = started + arrival;
                    if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
                        thread::sleep(wait);
                    }
                    // A transport error retries (bounded, jittered) so a
                    // mid-run reset or refused reconnect costs one late
                    // sample, not the rest of this worker's schedule.
                    let mut outcome = None;
                    for attempt in 0..RETRY_ATTEMPTS {
                        if attempt > 0 {
                            thread::sleep(retry_backoff(&mut rng, attempt));
                        }
                        if connection.is_none() {
                            connection = connect_client(addr);
                        }
                        let result = connection.as_mut().and_then(|reader| {
                            write_request(reader.get_mut(), "GET", &config.path, &[]).ok()?;
                            read_response(reader).ok()
                        });
                        match result {
                            Some(response) => {
                                if closes_connection(&response) {
                                    connection = None;
                                }
                                outcome = Some(response);
                                break;
                            }
                            None => connection = None, // broken: retry
                        }
                    }
                    match outcome {
                        Some(response) if response.status == 200 => {
                            let elapsed = scheduled.elapsed().as_micros();
                            samples.push(u64::try_from(elapsed).unwrap_or(u64::MAX));
                        }
                        _ => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                samples
            }));
        }
        let mut latency = Vec::with_capacity(arrivals.len());
        for worker in workers {
            latency.extend(worker.join().expect("an open-loop worker panicked"));
        }
        latency
    });
    let elapsed = started.elapsed();
    latency.sort_unstable();
    OpenLoopReport {
        total: arrivals.len(),
        ok: latency.len(),
        errors: errors.load(Ordering::Relaxed),
        elapsed,
        latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_deterministic_and_tracks_the_rate() {
        let config = OpenLoopConfig {
            rate_per_sec: 2_000.0,
            duration: Duration::from_secs(1),
            ..OpenLoopConfig::default()
        };
        let first = poisson_schedule(&config);
        let second = poisson_schedule(&config);
        assert_eq!(first, second, "same seed, same schedule");
        // A Poisson(2000) count: mean 2000, σ≈45 — 5σ bounds.
        assert!(
            (1_750..2_250).contains(&first.len()),
            "count {}",
            first.len()
        );
        // Arrivals are sorted and inside the window.
        assert!(first.windows(2).all(|pair| pair[0] <= pair[1]));
        assert!(first.last().unwrap() < &config.duration);
        // A different seed draws a different schedule.
        let reseeded = poisson_schedule(&OpenLoopConfig {
            seed: 99,
            ..config.clone()
        });
        assert_ne!(first, reseeded);
    }

    #[test]
    fn quantiles_are_nearest_rank_and_the_mean_is_exact() {
        let report = OpenLoopReport {
            total: 5,
            ok: 5,
            errors: 0,
            elapsed: Duration::from_secs(1),
            latency: vec![1, 2, 3, 10, 63],
        };
        assert_eq!(report.quantile_us(0.0), 1);
        assert_eq!(report.quantile_us(0.5), 3);
        assert_eq!(report.quantile_us(0.6), 3);
        assert_eq!(report.quantile_us(0.61), 10);
        assert_eq!(report.quantile_us(1.0), 63);
        assert_eq!(report.quantile_us(7.0), 63, "q clamps into 0..=1");
        assert_eq!(report.mean_us(), 15.8);
        let empty = OpenLoopReport {
            latency: Vec::new(),
            ..report
        };
        assert_eq!((empty.quantile_us(0.99), empty.mean_us()), (0, 0.0));
    }

    #[test]
    fn read_response_parses_status_headers_and_body() {
        let raw =
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}";
        let mut reader = std::io::BufReader::new(&raw[..]);
        let response = read_response(&mut reader).unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.header("Content-Type"), Some("application/json"));
        assert_eq!(response.body_string(), "{}");
    }
}
