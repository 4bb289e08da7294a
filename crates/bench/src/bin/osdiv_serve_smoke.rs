//! CI smoke client for a running `osdiv serve` instance.
//!
//! ```sh
//! osdiv-serve-smoke 127.0.0.1:PORT [full|persist-ingest|persist-verify|loadgen|chaos] [args...]
//! ```
//!
//! The default `full` mode hits `/v1/healthz`, `/v1/report?format=json`
//! (twice on one keep-alive connection, the second via `If-None-Match`),
//! a parameterized analysis endpoint plus its error paths, then exercises
//! the dataset tenancy loop — generate a small feed with `datagen` + the
//! `nvd-feed` writer, stream it up as a chunked `PUT /v1/datasets/smoke`,
//! query an analysis with `?dataset=smoke` (asserting 200 and an ETag
//! distinct from the default dataset's), `DELETE` it — checks the
//! `/metrics` counters recorded the run, and finally `POST /v1/shutdown`.
//! Along the way it asserts every response carries an `X-Request-Id`
//! (unique across a pipelined burst) and lints the whole `/metrics`
//! exposition: every line parses, every histogram's `le` buckets ascend
//! and accumulate, and each `+Inf` bucket agrees with its `_count`.
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
//! The persistence pair drives the kill-and-restart leg against a server
//! started with `--data-dir`: `persist-ingest` streams a deterministic
//! feed up as `PUT /v1/datasets/persist`, asserts `/metrics` counted one
//! snapshot write, and saves the rendered analysis document (plus its
//! ETag) to `body-file` — then CI SIGKILLs the server. After a restart,
//! `persist-verify` asserts the recovered tenant lists as spilled, that
//! its document and ETag are byte-identical to the saved ones, and that
//! the cold boot decoded no snapshot until the first touch
//! (`osdiv_snapshot_loads 1` and
//! `osdiv_snapshot_load_duration_seconds_count 1` only after the GET).
//!
//! Exits non-zero with a diagnostic on the first failed expectation; the
//! workflow then waits on the server process to assert a clean exit.
//!
//! The serving side must run with `--enable-shutdown
//! --enable-dataset-delete` (and `--data-dir` for the persistence pair).

use std::collections::{HashMap, HashSet};
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::process::ExitCode;
use std::time::Duration;

use datagen::{ParametricConfig, ParametricGenerator};
use osdiv_core::JsonLine;
use osdiv_serve::loadgen::{self, read_response, write_request, OpenLoopConfig};

fn check(condition: bool, label: &str) -> Result<(), String> {
    if condition {
        println!("ok: {label}");
        Ok(())
    } else {
        Err(format!("FAILED: {label}"))
    }
}

/// Splits a `key="value",...` label body into pairs, honouring `\"`
/// escapes inside values.
fn parse_labels(labels: &str) -> Result<Vec<(String, String)>, String> {
    let mut pairs = Vec::new();
    let mut rest = labels;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without '=': {rest:?}"))?;
        let key = rest[..eq].to_string();
        let after = &rest[eq + 1..];
        if !after.starts_with('"') {
            return Err(format!("label value is unquoted: {rest:?}"));
        }
        let mut close = None;
        let mut escaped = false;
        for (pos, c) in after.char_indices().skip(1) {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                close = Some(pos);
                break;
            }
        }
        let close = close.ok_or_else(|| format!("unterminated label value: {rest:?}"))?;
        pairs.push((key, after[1..close].to_string()));
        rest = &after[close + 1..];
        if let Some(stripped) = rest.strip_prefix(',') {
            rest = stripped;
        } else if !rest.is_empty() {
            return Err(format!("junk after label value: {rest:?}"));
        }
    }
    Ok(pairs)
}

/// A stable key for one histogram series: family name plus its sorted
/// labels (the `le` pair already removed for bucket samples).
fn series_key(family: &str, pairs: &[(String, String)]) -> String {
    let mut rendered: Vec<String> = pairs
        .iter()
        .map(|(key, val)| format!("{key}={val}"))
        .collect();
    rendered.sort();
    format!("{family}{{{}}}", rendered.join(","))
}

/// Lints a Prometheus text exposition: every line must be a HELP/TYPE
/// comment or a parseable sample, every histogram's `le` boundaries must
/// ascend with cumulative counts, the final bucket must be `+Inf` and
/// agree with the `_count` series, and every bucket family must also
/// expose a `_sum`. Returns the number of distinct histogram series.
fn lint_exposition(exposition: &str) -> Result<usize, String> {
    let mut buckets: HashMap<String, Vec<(f64, f64)>> = HashMap::new();
    let mut counts: HashMap<String, f64> = HashMap::new();
    let mut sums: HashMap<String, f64> = HashMap::new();
    for (number, line) in exposition.lines().enumerate() {
        let lineno = number + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix("# ") {
            if !(comment.starts_with("HELP ") || comment.starts_with("TYPE ")) {
                return Err(format!(
                    "FAILED: /metrics line {lineno} is neither HELP nor TYPE: {line:?}"
                ));
            }
            continue;
        }
        let (series, value) = line.rsplit_once(' ').ok_or_else(|| {
            format!("FAILED: /metrics line {lineno} has no sample value: {line:?}")
        })?;
        let value: f64 = value.parse().map_err(|_| {
            format!("FAILED: /metrics line {lineno} value does not parse: {line:?}")
        })?;
        if !value.is_finite() || value < 0.0 {
            return Err(format!(
                "FAILED: /metrics line {lineno} sample is negative or non-finite: {line:?}"
            ));
        }
        let (name, labels) = match series.split_once('{') {
            Some((name, tail)) => {
                let labels = tail.strip_suffix('}').ok_or_else(|| {
                    format!("FAILED: /metrics line {lineno} has unbalanced braces: {line:?}")
                })?;
                (name, labels)
            }
            None => (series, ""),
        };
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!(
                "FAILED: /metrics line {lineno} metric name is malformed: {line:?}"
            ));
        }
        let pairs = parse_labels(labels)
            .map_err(|error| format!("FAILED: /metrics line {lineno}: {error}"))?;
        if let Some(family) = name.strip_suffix("_bucket") {
            let mut le = None;
            let mut others = Vec::new();
            for (key, val) in pairs {
                if key == "le" {
                    le = Some(if val == "+Inf" {
                        f64::INFINITY
                    } else {
                        val.parse().map_err(|_| {
                            format!("FAILED: /metrics line {lineno} le does not parse: {line:?}")
                        })?
                    });
                } else {
                    others.push((key, val));
                }
            }
            let le = le.ok_or_else(|| {
                format!("FAILED: /metrics line {lineno} bucket has no le label: {line:?}")
            })?;
            buckets
                .entry(series_key(family, &others))
                .or_default()
                .push((le, value));
        } else if let Some(family) = name.strip_suffix("_count") {
            counts.insert(series_key(family, &pairs), value);
        } else if let Some(family) = name.strip_suffix("_sum") {
            sums.insert(series_key(family, &pairs), value);
        }
    }
    if buckets.is_empty() {
        return Err("FAILED: /metrics exposes no histogram series".to_string());
    }
    for (series, entries) in &buckets {
        for pair in entries.windows(2) {
            if pair[0].0 >= pair[1].0 {
                return Err(format!("FAILED: {series} le boundaries do not ascend"));
            }
            if pair[0].1 > pair[1].1 {
                return Err(format!("FAILED: {series} bucket counts are not cumulative"));
            }
        }
        let last = entries.last().expect("bucket series is non-empty");
        if !last.0.is_infinite() {
            return Err(format!("FAILED: {series} does not end with a +Inf bucket"));
        }
        let count = counts
            .get(series)
            .copied()
            .ok_or_else(|| format!("FAILED: {series} has buckets but no _count"))?;
        if last.1 != count {
            return Err(format!(
                "FAILED: {series} +Inf bucket {} disagrees with _count {count}",
                last.1
            ));
        }
        if !sums.contains_key(series) {
            return Err(format!("FAILED: {series} has buckets but no _sum"));
        }
    }
    Ok(buckets.len())
}

/// The value of a label-free sample in an exposition body.
fn scrape_value(exposition: &str, name: &str) -> Option<f64> {
    exposition.lines().find_map(|line| {
        let tail = line.strip_prefix(name)?;
        tail.strip_prefix(' ')?.parse().ok()
    })
}

fn run(addr: SocketAddr) -> Result<(), String> {
    let io = |error: std::io::Error| format!("FAILED: io error: {error}");

    // 1. Liveness.
    let health = loadgen::get(addr, "/v1/healthz").map_err(io)?;
    check(health.status == 200, "/v1/healthz answers 200")?;
    check(
        health.body_string().contains("\"status\":\"ok\""),
        "/v1/healthz reports ok",
    )?;
    check(
        health.body_string().contains("\"datasets\":"),
        "/v1/healthz reports the dataset registry",
    )?;

    // 2. The cached report, twice on one keep-alive connection.
    let stream = TcpStream::connect(addr).map_err(io)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(io)?;
    let mut reader = BufReader::new(stream);
    write_request(reader.get_mut(), "GET", "/v1/report?format=json", &[]).map_err(io)?;
    let report = read_response(&mut reader).map_err(io)?;
    check(report.status == 200, "/v1/report?format=json answers 200")?;
    check(
        report.header("content-type") == Some("application/json"),
        "report content type is application/json",
    )?;
    check(
        report.body_string().starts_with("{\"sections\":["),
        "report body is the sections document",
    )?;
    let etag = report
        .header("etag")
        .ok_or("FAILED: report has no ETag")?
        .to_string();
    write_request(
        reader.get_mut(),
        "GET",
        "/v1/report?format=json",
        &[("If-None-Match", &etag)],
    )
    .map_err(io)?;
    let revalidated = read_response(&mut reader).map_err(io)?;
    check(
        revalidated.status == 304,
        "keep-alive revalidation answers 304",
    )?;
    check(
        report.header("x-request-id").is_some() && revalidated.header("x-request-id").is_some(),
        "every response carries an X-Request-Id",
    )?;
    check(
        report.header("x-request-id") != revalidated.header("x-request-id"),
        "keep-alive requests get distinct X-Request-Ids",
    )?;
    drop(reader);

    // 2b. A pipelined burst: three requests written back-to-back before
    //     reading — each response still gets its own unique request id.
    let stream = TcpStream::connect(addr).map_err(io)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(io)?;
    let mut reader = BufReader::new(stream);
    for _ in 0..3 {
        write_request(reader.get_mut(), "GET", "/v1/healthz", &[]).map_err(io)?;
    }
    let mut request_ids = Vec::new();
    for _ in 0..3 {
        let response = read_response(&mut reader).map_err(io)?;
        check(response.status == 200, "pipelined healthz answers 200")?;
        let id = response
            .header("x-request-id")
            .ok_or("FAILED: pipelined response is missing X-Request-Id")?;
        request_ids.push(id.to_string());
    }
    drop(reader);
    check(
        request_ids.iter().collect::<HashSet<_>>().len() == request_ids.len(),
        "pipelined responses carry unique X-Request-Ids",
    )?;

    // 3. A parameterized analysis endpoint and its error paths.
    let temporal = loadgen::get(
        addr,
        "/v1/analyses/temporal?first_year=2000&last_year=2005&format=csv",
    )
    .map_err(io)?;
    check(temporal.status == 200, "parameterized temporal answers 200")?;
    check(
        temporal.body_string().contains("2000") && !temporal.body_string().contains("1993"),
        "temporal CSV covers the requested year range only",
    )?;
    let bad = loadgen::get(addr, "/v1/analyses/temporal?first_year=bogus").map_err(io)?;
    check(bad.status == 400, "invalid parameter answers 400")?;
    let missing = loadgen::get(addr, "/v1/analyses/nope").map_err(io)?;
    check(missing.status == 404, "unknown analysis answers 404")?;

    // 4. HEAD mirrors GET metadata without a body.
    let head = loadgen::head(addr, "/v1/report?format=json").map_err(io)?;
    check(head.status == 200, "HEAD /v1/report answers 200")?;
    check(head.body.is_empty(), "HEAD response carries no body")?;
    check(
        head.header("etag") == Some(etag.as_str()),
        "HEAD serves the representation's ETag",
    )?;

    // 5. Dataset tenancy: generate a small feed, stream it up chunked,
    //    query it, compare ETags against the default dataset, delete it.
    let feed = ParametricGenerator::new(ParametricConfig {
        vulnerability_count: 150,
        seed: 7,
        ..ParametricConfig::default()
    })
    .generate()
    .to_feed_xml()
    .map_err(|error| format!("FAILED: feed generation: {error}"))?;
    let chunks: Vec<&[u8]> = feed.as_bytes().chunks(1024).collect();
    let created =
        loadgen::request_chunked(addr, "PUT", "/v1/datasets/smoke", &[], &chunks).map_err(io)?;
    check(
        created.status == 201,
        &format!(
            "chunked PUT /v1/datasets/smoke answers 201 (got {}: {})",
            created.status,
            created.body_string().trim()
        ),
    )?;

    let list = loadgen::get(addr, "/v1/datasets?format=json").map_err(io)?;
    check(
        list.status == 200 && list.body_string().contains("smoke"),
        "/v1/datasets lists the ingested dataset",
    )?;

    let smoke_table =
        loadgen::get(addr, "/v1/analyses/validity?dataset=smoke&format=json").map_err(io)?;
    check(
        smoke_table.status == 200,
        "analysis over ?dataset=smoke answers 200",
    )?;
    let default_table = loadgen::get(addr, "/v1/analyses/validity?format=json").map_err(io)?;
    check(
        smoke_table.header("etag").is_some()
            && smoke_table.header("etag") != default_table.header("etag"),
        "ingested dataset serves a distinct ETag",
    )?;

    let deleted = loadgen::request(addr, "DELETE", "/v1/datasets/smoke", &[]).map_err(io)?;
    check(
        deleted.status == 200,
        "DELETE /v1/datasets/smoke answers 200",
    )?;
    let gone = loadgen::get(addr, "/v1/analyses/validity?dataset=smoke").map_err(io)?;
    check(gone.status == 404, "deleted dataset answers 404")?;

    // 6. Serving counters: /metrics reports the connections, requests and
    //    bytes this very smoke run generated.
    let metrics = loadgen::get(addr, "/metrics").map_err(io)?;
    check(metrics.status == 200, "GET /metrics answers 200")?;
    let exposition = metrics.body_string();
    for counter in [
        "osdiv_connections_accepted",
        "osdiv_requests_served",
        "osdiv_cache_hits",
        "osdiv_cache_misses",
        "osdiv_bytes_out",
    ] {
        check(
            exposition.contains(&format!("# TYPE {counter} counter")),
            &format!("/metrics exposes {counter}"),
        )?;
    }
    check(
        !exposition.contains("osdiv_requests_served 0"),
        "/metrics counted the smoke requests",
    )?;
    check(
        !exposition.contains("osdiv_bytes_out 0\n"),
        "/metrics counted response bytes",
    )?;
    let histogram_series = lint_exposition(&exposition)?;
    println!("ok: /metrics exposition lints clean ({histogram_series} histogram series)");
    for family in [
        "osdiv_request_duration_seconds",
        "osdiv_stage_duration_seconds",
    ] {
        check(
            exposition.contains(&format!("# TYPE {family} histogram")),
            &format!("/metrics exposes the {family} histogram"),
        )?;
    }
    check(
        exposition.contains("osdiv_request_duration_seconds_count{route=\"report\"}"),
        "the request histogram observed the report route",
    )?;
    check(
        exposition.contains("osdiv_stage_duration_seconds_count{stage=\"render\"}"),
        "the stage histogram observed a render",
    )?;
    check(
        exposition.contains("osdiv_stage_duration_seconds_count{stage=\"ingest_parse\"}"),
        "the stage histogram observed the feed ingest",
    )?;
    check(
        exposition.contains("osdiv_build_info{version=\""),
        "/metrics exposes osdiv_build_info",
    )?;
    check(
        exposition.contains("# TYPE osdiv_uptime_seconds gauge"),
        "/metrics exposes osdiv_uptime_seconds",
    )?;

    // 6b. Saturation & resource gauges: every family is present and the
    //     values are self-consistent with each other.
    for gauge in [
        "osdiv_workers_total",
        "osdiv_workers_busy",
        "osdiv_dispatch_queue_depth",
        "osdiv_connections_active",
        "osdiv_body_cache_entries",
        "osdiv_body_cache_bytes",
        "osdiv_body_cache_byte_budget",
        "osdiv_datasets_total",
        "osdiv_datasets_resident",
        "osdiv_datasets_spilled",
        "osdiv_datasets_lazy",
        "osdiv_datasets_evicted",
        "osdiv_datasets_resident_bytes",
        "osdiv_datasets_byte_budget",
    ] {
        check(
            exposition.contains(&format!("# TYPE {gauge} gauge")),
            &format!("/metrics exposes the {gauge} gauge"),
        )?;
    }
    let gauge = |name: &str| -> Result<f64, String> {
        scrape_value(&exposition, name).ok_or_else(|| format!("FAILED: {name} does not scrape"))
    };
    let workers_total = gauge("osdiv_workers_total")?;
    let workers_busy = gauge("osdiv_workers_busy")?;
    check(
        workers_total >= 1.0,
        "the worker pool reports at least one worker",
    )?;
    check(
        (1.0..=workers_total).contains(&workers_busy),
        &format!(
            "the worker serving /metrics counts itself busy \
             (busy {workers_busy} of {workers_total})"
        ),
    )?;
    check(
        gauge("osdiv_connections_active")? >= 1.0,
        "the /metrics connection counts itself active",
    )?;
    check(
        gauge("osdiv_body_cache_bytes")? <= gauge("osdiv_body_cache_byte_budget")?,
        "the body cache stays inside its byte budget",
    )?;
    let datasets_total = gauge("osdiv_datasets_total")?;
    let state_sum = gauge("osdiv_datasets_resident")?
        + gauge("osdiv_datasets_spilled")?
        + gauge("osdiv_datasets_lazy")?
        + gauge("osdiv_datasets_evicted")?;
    check(
        state_sum == datasets_total,
        &format!(
            "dataset states sum to the registry total \
             ({state_sum} vs {datasets_total})"
        ),
    )?;
    check(
        gauge("osdiv_datasets_resident_bytes")? <= gauge("osdiv_datasets_byte_budget")?,
        "resident dataset bytes stay inside the registry byte budget",
    )?;
    check(
        scrape_value(&exposition, "osdiv_trace_spans_recorded_total").unwrap_or(0.0) > 0.0,
        "the flight recorder captured spans during the smoke run",
    )?;

    // 7. Graceful shutdown.
    let shutdown = loadgen::request(addr, "POST", "/v1/shutdown", &[]).map_err(io)?;
    check(shutdown.status == 200, "POST /v1/shutdown answers 200")?;
    Ok(())
}

/// The deterministic feed both persistence modes agree on: what
/// `persist-ingest` uploads is exactly what `persist-verify` expects the
/// restarted server to still serve.
fn persist_feed() -> Result<String, String> {
    ParametricGenerator::new(ParametricConfig {
        vulnerability_count: 200,
        seed: 11,
        ..ParametricConfig::default()
    })
    .generate()
    .to_feed_xml()
    .map_err(|error| format!("FAILED: feed generation: {error}"))
}

/// The document whose bytes must survive the kill-and-restart.
const PERSIST_DOC: &str = "/v1/report?dataset=persist&format=json";

/// `persist-ingest`: upload the tenant, prove the snapshot was written,
/// and save the served document + ETag for the post-restart comparison.
fn persist_ingest(addr: SocketAddr, body_file: &str) -> Result<(), String> {
    let io = |error: std::io::Error| format!("FAILED: io error: {error}");

    let feed = persist_feed()?;
    let chunks: Vec<&[u8]> = feed.as_bytes().chunks(1024).collect();
    let created =
        loadgen::request_chunked(addr, "PUT", "/v1/datasets/persist", &[], &chunks).map_err(io)?;
    check(
        created.status == 201,
        &format!(
            "chunked PUT /v1/datasets/persist answers 201 (got {}: {})",
            created.status,
            created.body_string().trim()
        ),
    )?;

    let metrics = loadgen::get(addr, "/metrics").map_err(io)?;
    check(
        metrics.body_string().contains("osdiv_snapshot_writes 1"),
        "/metrics counts one snapshot write after the PUT",
    )?;

    let doc = loadgen::get(addr, PERSIST_DOC).map_err(io)?;
    check(doc.status == 200, "the persisted tenant serves its report")?;
    let etag = doc
        .header("etag")
        .ok_or("FAILED: persisted report has no ETag")?
        .to_string();
    let mut saved = etag.clone().into_bytes();
    saved.push(b'\n');
    saved.extend_from_slice(&doc.body);
    std::fs::write(body_file, &saved).map_err(io)?;
    println!("ok: saved {} byte document, etag {etag}", doc.body.len());
    // No shutdown: the workflow SIGKILLs the server mid-flight on purpose.
    Ok(())
}

/// `persist-verify`: after the restart, the tenant is listed (spilled),
/// serves byte-identical bytes under the same ETag, and the snapshot was
/// decoded lazily — not at boot.
fn persist_verify(addr: SocketAddr, body_file: &str) -> Result<(), String> {
    let io = |error: std::io::Error| format!("FAILED: io error: {error}");
    let saved = std::fs::read(body_file).map_err(io)?;
    let split = saved
        .iter()
        .position(|&b| b == b'\n')
        .ok_or("FAILED: saved body file has no etag line")?;
    let expected_etag = String::from_utf8_lossy(&saved[..split]).to_string();
    let expected_body = &saved[split + 1..];

    let list = loadgen::get(addr, "/v1/datasets?format=json").map_err(io)?;
    check(
        list.status == 200 && list.body_string().contains("persist"),
        "the restarted server lists the recovered tenant",
    )?;
    let metrics = loadgen::get(addr, "/metrics").map_err(io)?.body_string();
    check(
        metrics.contains("osdiv_snapshot_loads 0"),
        "boot recovers the tenant without decoding its snapshot",
    )?;
    check(
        !metrics.contains("osdiv_snapshot_load_duration_seconds"),
        "the load histogram stays out of /metrics until a load",
    )?;

    let doc = loadgen::get(addr, PERSIST_DOC).map_err(io)?;
    check(doc.status == 200, "the recovered tenant serves its report")?;
    check(
        doc.header("etag") == Some(expected_etag.as_str()),
        "the recovered report carries the pre-kill ETag",
    )?;
    check(
        doc.body == expected_body,
        "the recovered report is byte-identical to the pre-kill document",
    )?;

    let metrics = loadgen::get(addr, "/metrics").map_err(io)?.body_string();
    check(
        metrics.contains("osdiv_snapshot_loads 1\n"),
        "the first touch decodes exactly one snapshot",
    )?;
    check(
        metrics.contains("osdiv_snapshot_load_duration_seconds_count 1\n"),
        "the load histogram counts the one load",
    )?;

    let shutdown = loadgen::request(addr, "POST", "/v1/shutdown", &[]).map_err(io)?;
    check(shutdown.status == 200, "POST /v1/shutdown answers 200")?;
    Ok(())
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
    let io = |error: std::io::Error| format!("FAILED: io error: {error}");

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

    let metrics = loadgen::get(addr, "/metrics").map_err(io)?;
    check(metrics.status == 200, "GET /metrics answers 200")?;
    let exposition = metrics.body_string();
    let histogram_series = lint_exposition(&exposition)?;
    println!("ok: /metrics exposition lints clean ({histogram_series} histogram series)");
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
    println!("ok: wrote {out_file}");

    let shutdown = loadgen::request(addr, "POST", "/v1/shutdown", &[]).map_err(io)?;
    check(shutdown.status == 200, "POST /v1/shutdown answers 200")?;
    Ok(())
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
    let io = |error: std::io::Error| format!("FAILED: io error: {error}");

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
    let metrics = loadgen::get(addr, "/metrics").map_err(io)?;
    check(
        scrape_value(&metrics.body_string(), "osdiv_io_timeouts_total").unwrap_or(0.0) >= 1.0,
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
    let metrics = loadgen::get(addr, "/metrics").map_err(io)?;
    check(
        scrape_value(&metrics.body_string(), "osdiv_shed_total").unwrap_or(0.0) >= 1.0,
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
    let metrics = loadgen::get(addr, "/metrics").map_err(io)?;
    let exposition = metrics.body_string();
    let histogram_series = lint_exposition(&exposition)?;
    println!("ok: /metrics exposition lints clean ({histogram_series} histogram series)");
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
    let mut payload = line.finish();
    payload.push('\n');
    std::fs::write(out_file, payload).map_err(io)?;
    println!("ok: wrote {out_file}");

    let shutdown = loadgen::request(addr, "POST", "/v1/shutdown", &[]).map_err(io)?;
    check(shutdown.status == 200, "POST /v1/shutdown answers 200")?;
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(addr) = args.first() else {
        eprintln!(
            "usage: osdiv-serve-smoke <addr:port> [full|persist-ingest|persist-verify|loadgen|chaos] [args...]"
        );
        return ExitCode::from(2);
    };
    let Ok(addr) = addr.parse::<SocketAddr>() else {
        eprintln!("invalid address {addr:?}");
        return ExitCode::from(2);
    };
    let mode = args.get(1).map(String::as_str).unwrap_or("full");
    let result = match mode {
        "full" => run(addr),
        "persist-ingest" | "persist-verify" => {
            let Some(body_file) = args.get(2) else {
                eprintln!("{mode} expects a body-file argument");
                return ExitCode::from(2);
            };
            if mode == "persist-ingest" {
                persist_ingest(addr, body_file)
            } else {
                persist_verify(addr, body_file)
            }
        }
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
            eprintln!(
                "unknown mode {other:?} (expected full, persist-ingest, persist-verify, loadgen or chaos)"
            );
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
