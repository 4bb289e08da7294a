//! CI client for a running `osdiv serve` instance: the legs that write
//! a per-commit artifact.
//!
//! ```sh
//! osdiv-serve-smoke 127.0.0.1:PORT loadgen|chaos [args...]
//! ```
//!
//! The `loadgen` mode drives the open-loop Poisson harness
//! ([`loadgen::run_open_loop`]) against the cached report route and
//! writes a machine-readable `BENCH_serve.json`
//! (`osdiv-serve-smoke ADDR loadgen [out-file] [rate] [seconds]`) with
//! the offered/achieved rate, p50/p90/p99/p999, and the cache-hit ratio
//! scraped from `/metrics` — then shuts the server down.
//!
//! The `chaos` mode drives the resilience drill
//! (`osdiv-serve-smoke ADDR chaos [out-file] [io-timeout-ms]`) against a
//! deliberately tiny server — see [`run_chaos`] for the required server
//! flags. It asserts an upload whose first entry is malformed is refused
//! with a 400 and registers nothing (and a valid retry under the same
//! name lands), a slow-loris connection is cut off with a 408 within
//! twice the I/O budget, an overload burst sheds with `503 Retry-After:
//! 1` while cached reads keep answering, and an open-loop run at twice
//! the offered rate stays bounded — then writes a `BENCH_chaos.json`
//! artifact with the shed/timeout counters.
//!
//! Both modes lint every `/metrics` scrape with
//! [`osdiv_bench::exposition::lint_exposition`]. A missing or unknown
//! mode exits 2; a failed expectation exits 1 with a diagnostic, and the
//! workflow then waits on the server process to assert a clean exit. The
//! kill-and-restart drill is the `serve_restart` test under `cargo test`.
//!
//! The serving side must run with `--enable-shutdown`.

use std::net::{SocketAddr, TcpStream};
use std::process::ExitCode;
use std::time::Duration;

use datagen::{ParametricConfig, ParametricGenerator};
use osdiv_bench::exposition::{lint_exposition, scrape_value};
use osdiv_core::JsonLine;
use osdiv_serve::loadgen::{self, OpenLoopConfig};

fn check(condition: bool, label: &str) -> Result<(), String> {
    if condition {
        println!("ok: {label}");
        Ok(())
    } else {
        Err(format!("FAILED: {label}"))
    }
}

fn io(error: std::io::Error) -> String {
    format!("FAILED: io error: {error}")
}

/// Scrapes `/metrics` and lints the exposition.
fn scrape(addr: SocketAddr) -> Result<String, String> {
    let metrics = loadgen::get(addr, "/metrics").map_err(io)?;
    check(metrics.status == 200, "GET /metrics answers 200")?;
    let exposition = metrics.body_string();
    let histogram_series = lint_exposition(&exposition)?;
    println!("ok: /metrics exposition lints clean ({histogram_series} histogram series)");
    Ok(exposition)
}

/// Writes the artifact line to `out_file`, then shuts the server down.
fn write_and_shut_down(addr: SocketAddr, out_file: &str, line: JsonLine) -> Result<(), String> {
    let mut payload = line.finish();
    payload.push('\n');
    std::fs::write(out_file, payload).map_err(io)?;
    println!("ok: wrote {out_file}");
    let shutdown = loadgen::request(addr, "POST", "/v1/shutdown", &[]).map_err(io)?;
    check(shutdown.status == 200, "POST /v1/shutdown answers 200")
}

/// `loadgen`: drive the open-loop Poisson harness against the cached
/// report route, lint `/metrics`, and write a machine-readable
/// `BENCH_serve.json` artifact — then shut the server down.
fn run_loadgen_bench(
    addr: SocketAddr,
    out_file: &str,
    rate_per_sec: f64,
    seconds: f64,
) -> Result<(), String> {
    // Warm the render cache so the run measures steady-state serving.
    let warm = loadgen::get(addr, "/v1/report?format=json").map_err(io)?;
    check(warm.status == 200, "warmup report answers 200")?;

    let config = OpenLoopConfig {
        rate_per_sec,
        duration: Duration::from_secs_f64(seconds),
        ..OpenLoopConfig::default()
    };
    let report = loadgen::run_open_loop(addr, &config);
    println!("open-loop: {}", report.summary());
    check(report.ok > 0, "open-loop run completed requests")?;
    check(
        report.errors == 0,
        &format!("open-loop run had no errors (got {})", report.errors),
    )?;

    let exposition = scrape(addr)?;
    let hits = scrape_value(&exposition, "osdiv_cache_hits").unwrap_or(0.0);
    let misses = scrape_value(&exposition, "osdiv_cache_misses").unwrap_or(0.0);
    let lookups = hits + misses;
    let hit_ratio = if lookups > 0.0 { hits / lookups } else { 0.0 };

    let mut line = JsonLine::new();
    line.str_field("schema", "osdiv-bench-serve/1");
    line.str_field("path", &config.path);
    line.f64_field("target_rate_per_sec", config.rate_per_sec);
    line.f64_field("duration_secs", config.duration.as_secs_f64());
    line.u64_field("connections", config.connections as u64);
    line.u64_field("requests_total", report.total as u64);
    line.u64_field("requests_ok", report.ok as u64);
    line.u64_field("errors", report.errors as u64);
    line.f64_field("elapsed_secs", report.elapsed.as_secs_f64());
    line.f64_field("achieved_rate_per_sec", report.achieved_rate());
    line.u64_field("p50_us", report.quantile_us(0.50));
    line.u64_field("p90_us", report.quantile_us(0.90));
    line.u64_field("p99_us", report.quantile_us(0.99));
    line.u64_field("p999_us", report.quantile_us(0.999));
    line.f64_field("mean_us", report.mean_us());
    line.f64_field("cache_hit_ratio", hit_ratio);
    write_and_shut_down(addr, out_file, line)
}

/// `chaos`: the fault and overload drill. The server must run small:
///
/// ```sh
/// osdiv serve --threads 2 --io-timeout-ms <io-timeout-ms> \
///     --shed-queue-depth 4 --enable-shutdown ...
/// ```
///
/// Legs, in order: a chunked `PUT` whose first entry is malformed is
/// answered 400 and leaves the name unregistered (404), and a valid
/// retry under the same name is answered 201; a one-byte-at-a-time slow
/// loris is answered 408 and cut off within twice the I/O budget; an
/// overload burst against two pinned workers sheds `503 Retry-After: 1`
/// while cached reads keep answering; an open-loop run at twice the
/// sustainable rate completes with bounded p99 over the successes. The
/// final `/metrics` scrape must count sheds and I/O timeouts, and the
/// counters land in the `BENCH_chaos.json` artifact.
fn run_chaos(addr: SocketAddr, out_file: &str, io_timeout_ms: u64) -> Result<(), String> {
    use std::io::{Read, Write};
    // 1. A malformed first entry: the PUT fails, the name stays free and
    //    a valid retry under it lands.
    let feed = ParametricGenerator::new(ParametricConfig {
        vulnerability_count: 80,
        seed: 13,
        ..ParametricConfig::default()
    })
    .generate()
    .to_feed_xml()
    .map_err(|error| format!("FAILED: feed generation: {error}"))?;
    let first_entry = feed
        .find("<entry")
        .ok_or("FAILED: the generated feed has no entry")?;
    let mut malformed = feed.clone();
    malformed.insert_str(first_entry, "<entry id=unquoted>broken</entry>\n");
    let chunks: Vec<&[u8]> = malformed.as_bytes().chunks(1024).collect();
    let rejected =
        loadgen::request_chunked(addr, "PUT", "/v1/datasets/chaos", &[], &chunks).map_err(io)?;
    check(
        rejected.status == 400,
        &format!(
            "a malformed first entry fails the PUT with 400 (got {}: {})",
            rejected.status,
            rejected.body_string().trim()
        ),
    )?;
    let absent = loadgen::get(addr, "/v1/datasets/chaos").map_err(io)?;
    check(
        absent.status == 404,
        &format!("the failed PUT registers nothing (got {})", absent.status),
    )?;
    let chunks: Vec<&[u8]> = feed.as_bytes().chunks(1024).collect();
    let retried =
        loadgen::request_chunked(addr, "PUT", "/v1/datasets/chaos", &[], &chunks).map_err(io)?;
    check(
        retried.status == 201,
        &format!(
            "a valid retry under the same name succeeds (got {}: {})",
            retried.status,
            retried.body_string().trim()
        ),
    )?;

    // 2. Slow loris: trickle a request head one byte at a time and time
    //    how long the server lets it pin a worker.
    let budget = Duration::from_millis(io_timeout_ms);
    let stream = TcpStream::connect(addr).map_err(io)?;
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .map_err(io)?;
    let partial = b"GET /v1/healthz HTTP/1.1\r\n";
    let started = std::time::Instant::now();
    let mut closed_after = None;
    let mut response = Vec::new();
    let mut trickled = 0;
    let mut buf = [0u8; 1024];
    while started.elapsed() < budget * 4 {
        if trickled < partial.len() {
            let _ = (&stream).write_all(&partial[trickled..trickled + 1]);
            trickled += 1;
        }
        match (&stream).read(&mut buf) {
            Ok(0) => {
                closed_after = Some(started.elapsed());
                break;
            }
            Ok(n) => response.extend_from_slice(&buf[..n]),
            Err(error)
                if error.kind() == std::io::ErrorKind::WouldBlock
                    || error.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => {
                closed_after = Some(started.elapsed());
                break;
            }
        }
    }
    let closed_after = closed_after.ok_or("FAILED: the slow loris was never cut off")?;
    check(
        closed_after <= budget * 2,
        &format!(
            "slow loris cut off within twice the I/O budget ({}ms of {}ms)",
            closed_after.as_millis(),
            2 * io_timeout_ms
        ),
    )?;
    check(
        String::from_utf8_lossy(&response).starts_with("HTTP/1.1 408"),
        "the cut-off answers 408 before closing",
    )?;
    check(
        scrape_value(&scrape(addr)?, "osdiv_io_timeouts_total").unwrap_or(0.0) >= 1.0,
        "/metrics counts the I/O timeout",
    )?;

    // 3. Overload: pin both workers with loris connections, then burst
    //    cached GETs and ingest PUTs into the dispatch queue. Sheds must
    //    answer 503 with Retry-After while cached reads keep landing.
    let mut pins = Vec::new();
    for _ in 0..2 {
        let stream = TcpStream::connect(addr).map_err(io)?;
        (&stream).write_all(b"GET /v1/healthz HT").map_err(io)?;
        pins.push(stream);
    }
    std::thread::sleep(Duration::from_millis(100));
    let mut handles = Vec::new();
    for i in 0..16 {
        let body = feed.clone();
        handles.push(std::thread::spawn(move || {
            if i % 4 == 0 {
                loadgen::request_with_body(
                    addr,
                    "PUT",
                    &format!("/v1/datasets/burst-{i}"),
                    &[],
                    body.as_bytes(),
                )
            } else {
                loadgen::get(addr, "/v1/report?format=json")
            }
        }));
    }
    let mut served = 0usize;
    let mut shed = 0usize;
    for handle in handles {
        let response = handle
            .join()
            .map_err(|_| "FAILED: a burst worker panicked".to_string())?
            .map_err(io)?;
        match response.status {
            200 | 201 => served += 1,
            503 => {
                check(
                    response.header("retry-after") == Some("1"),
                    "every shed 503 carries Retry-After: 1",
                )?;
                shed += 1;
            }
            other => return Err(format!("FAILED: burst got unexpected status {other}")),
        }
    }
    drop(pins);
    println!("overload burst: {served} served, {shed} shed");
    check(served >= 1, "cached reads survive the overload burst")?;
    check(shed >= 1, "the overload burst sheds at least one request")?;
    check(
        scrape_value(&scrape(addr)?, "osdiv_shed_total").unwrap_or(0.0) >= 1.0,
        "/metrics counts the sheds",
    )?;

    // 4. Open loop at twice a rate this tiny server can absorb: the
    //    schedule must complete (sheds count as errors, not aborts) and
    //    the successes must stay bounded.
    let config = OpenLoopConfig {
        rate_per_sec: 2_000.0,
        duration: Duration::from_secs_f64(2.0),
        ..OpenLoopConfig::default()
    };
    let report = loadgen::run_open_loop(addr, &config);
    println!("open-loop: {}", report.summary());
    check(report.ok > 0, "the open-loop run completed requests")?;
    check(
        report.quantile_us(0.99) < 2_000_000,
        &format!(
            "open-loop p99 stays bounded under overload ({}us)",
            report.quantile_us(0.99)
        ),
    )?;

    // 5. The artifact: the drill's counters, machine-readable.
    let exposition = scrape(addr)?;
    let mut line = JsonLine::new();
    line.str_field("schema", "osdiv-bench-chaos/2");
    line.u64_field("io_timeout_ms", io_timeout_ms);
    line.u64_field("burst_served", served as u64);
    line.u64_field("burst_shed", shed as u64);
    line.u64_field("loris_cutoff_ms", closed_after.as_millis() as u64);
    line.f64_field("target_rate_per_sec", config.rate_per_sec);
    line.u64_field("requests_ok", report.ok as u64);
    line.u64_field("errors", report.errors as u64);
    line.u64_field("p50_us", report.quantile_us(0.50));
    line.u64_field("p99_us", report.quantile_us(0.99));
    line.f64_field(
        "shed_total",
        scrape_value(&exposition, "osdiv_shed_total").unwrap_or(0.0),
    );
    line.f64_field(
        "io_timeouts_total",
        scrape_value(&exposition, "osdiv_io_timeouts_total").unwrap_or(0.0),
    );
    write_and_shut_down(addr, out_file, line)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (Some(addr), Some(mode)) = (args.first(), args.get(1)) else {
        eprintln!("usage: osdiv-serve-smoke <addr:port> loadgen|chaos [args...]");
        return ExitCode::from(2);
    };
    let Ok(addr) = addr.parse::<SocketAddr>() else {
        eprintln!("invalid address {addr:?}");
        return ExitCode::from(2);
    };
    let result = match mode.as_str() {
        "loadgen" => {
            let out_file = args
                .get(2)
                .map(String::as_str)
                .unwrap_or("BENCH_serve.json");
            let rate_per_sec = match args.get(3).map(|raw| raw.parse::<f64>()) {
                None => 1_000.0,
                Some(Ok(rate)) if rate > 0.0 => rate,
                Some(_) => {
                    eprintln!("loadgen rate must be a positive number");
                    return ExitCode::from(2);
                }
            };
            let seconds = match args.get(4).map(|raw| raw.parse::<f64>()) {
                None => 2.0,
                Some(Ok(seconds)) if seconds > 0.0 => seconds,
                Some(_) => {
                    eprintln!("loadgen seconds must be a positive number");
                    return ExitCode::from(2);
                }
            };
            run_loadgen_bench(addr, out_file, rate_per_sec, seconds)
        }
        "chaos" => {
            let out_file = args
                .get(2)
                .map(String::as_str)
                .unwrap_or("BENCH_chaos.json");
            let io_timeout_ms = match args.get(3).map(|raw| raw.parse::<u64>()) {
                None => 500,
                Some(Ok(ms)) if ms > 0 => ms,
                Some(_) => {
                    eprintln!("chaos io-timeout-ms must be a positive integer");
                    return ExitCode::from(2);
                }
            };
            run_chaos(addr, out_file, io_timeout_ms)
        }
        other => {
            eprintln!("unknown mode {other:?} (expected loadgen or chaos)");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => {
            println!("smoke test passed ({mode})");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
