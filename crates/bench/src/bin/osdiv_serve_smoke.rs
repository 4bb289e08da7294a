//! CI client for a running `osdiv serve` instance: the open-loop leg that
//! writes the per-commit `BENCH_serve.json` artifact.
//!
//! ```sh
//! osdiv-serve-smoke 127.0.0.1:PORT loadgen [out-file] [rate] [seconds]
//! ```
//!
//! The `loadgen` mode drives the open-loop Poisson harness
//! ([`loadgen::run_open_loop`]) against the cached report route, lints
//! the `/metrics` scrape with
//! [`osdiv_bench::exposition::lint_exposition`] and writes a
//! machine-readable `BENCH_serve.json` with the offered/achieved rate,
//! p50/p90/p99/p999 and the cache-hit ratio scraped from `/metrics` —
//! then shuts the server down. A missing or unknown mode exits 2; a
//! failed expectation exits 1 with a diagnostic, and the workflow then
//! waits on the server process to assert a clean exit. Every write
//! ignores errors, so a closed output pipe leaves the exit code as it
//! is. The
//! kill-and-restart drill is the `serve_restart` test and the
//! adversarial-client drill the `adversarial_clients` test, both under
//! `cargo test`.
//!
//! The serving side must run with `--enable-shutdown`.

use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Duration;

use osdiv_bench::exposition::{lint_exposition, scrape_value};
use osdiv_bench::print_to;
use osdiv_core::JsonLine;
use osdiv_serve::loadgen::{self, OpenLoopConfig};

fn check(condition: bool, label: &str) -> Result<(), String> {
    if condition {
        print_to(std::io::stdout(), &format!("ok: {label}\n"));
        Ok(())
    } else {
        Err(format!("FAILED: {label}"))
    }
}

fn io(error: std::io::Error) -> String {
    format!("FAILED: io error: {error}")
}

/// Drives the open-loop Poisson harness against the cached report route,
/// lints `/metrics`, writes the `BENCH_serve.json` line to `out_file`,
/// then shuts the server down.
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
    print_to(
        std::io::stdout(),
        &format!("open-loop: {}\n", report.summary()),
    );
    check(report.ok > 0, "open-loop run completed requests")?;
    check(
        report.errors == 0,
        &format!("open-loop run had no errors (got {})", report.errors),
    )?;

    let metrics = loadgen::get(addr, "/metrics").map_err(io)?;
    check(metrics.status == 200, "GET /metrics answers 200")?;
    let exposition = metrics.body_string();
    let histogram_series = lint_exposition(&exposition)?;
    print_to(
        std::io::stdout(),
        &format!("ok: /metrics exposition lints clean ({histogram_series} histogram series)\n"),
    );
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
    let mut payload = line.finish();
    payload.push('\n');
    std::fs::write(out_file, payload).map_err(io)?;
    print_to(std::io::stdout(), &format!("ok: wrote {out_file}\n"));
    let shutdown = loadgen::request(addr, "POST", "/v1/shutdown", &[]).map_err(io)?;
    check(shutdown.status == 200, "POST /v1/shutdown answers 200")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (Some(addr), Some(mode)) = (args.first(), args.get(1)) else {
        print_to(
            std::io::stderr(),
            "usage: osdiv-serve-smoke <addr:port> loadgen [out-file] [rate] [seconds]\n",
        );
        return ExitCode::from(2);
    };
    let Ok(addr) = addr.parse::<SocketAddr>() else {
        print_to(std::io::stderr(), &format!("invalid address {addr:?}\n"));
        return ExitCode::from(2);
    };
    if mode != "loadgen" {
        print_to(
            std::io::stderr(),
            &format!("unknown mode {mode:?} (expected loadgen)\n"),
        );
        return ExitCode::from(2);
    }
    let out_file = args
        .get(2)
        .map(String::as_str)
        .unwrap_or("BENCH_serve.json");
    let positive = |index: usize, default: f64, what: &str| match args.get(index) {
        None => Some(default),
        Some(raw) => raw
            .parse::<f64>()
            .ok()
            .filter(|value| *value > 0.0)
            .or_else(|| {
                print_to(
                    std::io::stderr(),
                    &format!("loadgen {what} must be a positive number\n"),
                );
                None
            }),
    };
    let (Some(rate_per_sec), Some(seconds)) =
        (positive(3, 1_000.0, "rate"), positive(4, 2.0, "seconds"))
    else {
        return ExitCode::from(2);
    };
    match run_loadgen_bench(addr, out_file, rate_per_sec, seconds) {
        Ok(()) => {
            print_to(std::io::stdout(), &format!("smoke test passed ({mode})\n"));
            ExitCode::SUCCESS
        }
        Err(message) => {
            print_to(std::io::stderr(), &format!("{message}\n"));
            ExitCode::FAILURE
        }
    }
}
