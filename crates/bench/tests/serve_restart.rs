//! Kill -9 recovery of the real `osdiv serve` binary. Boot it on a data
//! directory, upload a tenant, `SIGKILL` the process, boot again on the
//! same directory, and require the tenant back: listed at boot without
//! decoding its snapshot, then served with the pre-kill bytes and ETag on
//! its first touch. Every `/metrics` scrape passes
//! [`osdiv_bench::exposition::lint_exposition`], and each check the
//! docs/OBSERVABILITY.md family table credits to `serve_restart` is made
//! here.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use datagen::{ParametricConfig, ParametricGenerator};
use osdiv_bench::exposition::{lint_exposition, scrape_value};
use osdiv_bench::harness::TempDir;
use osdiv_serve::loadgen::{self, ClientResponse};

/// How long a boot may take to print its address, and a shutdown to exit.
const PATIENCE: Duration = Duration::from_secs(60);

/// The document whose bytes and ETag must survive the kill.
const DOC: &str = "/v1/report?dataset=persist&format=json";

/// The request-latency series of [`DOC`]'s route class.
const REPORT_SERIES: &str = "osdiv_request_duration_seconds_count{route=\"report\"}";

/// Families a `--data-dir` server always exposes, with their types.
const FAMILIES: [(&str, &str); 26] = [
    ("osdiv_connections_accepted", "counter"),
    ("osdiv_requests_served", "counter"),
    ("osdiv_cache_hits", "counter"),
    ("osdiv_cache_misses", "counter"),
    ("osdiv_bytes_out", "counter"),
    ("osdiv_workers_total", "gauge"),
    ("osdiv_workers_busy", "gauge"),
    ("osdiv_dispatch_queue_depth", "gauge"),
    ("osdiv_connections_active", "gauge"),
    ("osdiv_trace_spans_recorded_total", "counter"),
    ("osdiv_build_info", "gauge"),
    ("osdiv_uptime_seconds", "gauge"),
    ("osdiv_request_duration_seconds", "histogram"),
    ("osdiv_stage_duration_seconds", "histogram"),
    ("osdiv_body_cache_entries", "gauge"),
    ("osdiv_body_cache_bytes", "gauge"),
    ("osdiv_body_cache_byte_budget", "gauge"),
    ("osdiv_datasets_total", "gauge"),
    ("osdiv_datasets_resident", "gauge"),
    ("osdiv_datasets_spilled", "gauge"),
    ("osdiv_datasets_lazy", "gauge"),
    ("osdiv_datasets_evicted", "gauge"),
    ("osdiv_datasets_resident_bytes", "gauge"),
    ("osdiv_datasets_byte_budget", "gauge"),
    ("osdiv_snapshot_writes", "counter"),
    ("osdiv_snapshot_loads", "counter"),
];

/// A running `osdiv serve --data-dir`. Dropping it kills and reaps the
/// process, so a failed assertion leaves no server behind.
struct Server {
    child: Child,
    addr: SocketAddr,
    /// Drains the child's stdout; ends when the process exits.
    stdout: Option<JoinHandle<()>>,
}

impl Server {
    fn boot(data_dir: &Path) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_osdiv"))
            .args(["serve", "--addr", "127.0.0.1:0", "--threads", "2"])
            .args(["--enable-shutdown", "--enable-dataset-delete", "--data-dir"])
            .arg(data_dir)
            .stdout(Stdio::piped())
            .spawn()
            .expect("the osdiv binary starts");
        // A thread drains stdout until the process exits, so the wait for
        // the address is bounded and no later line meets a closed pipe.
        let stdout = child.stdout.take().expect("stdout is piped");
        let (sender, lines) = mpsc::channel();
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                let _ = sender.send(line);
            }
        });
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stdout: Some(drain),
        };
        let deadline = Instant::now() + PATIENCE;
        while server.addr.port() == 0 {
            let line = lines
                .recv_timeout(deadline.saturating_duration_since(Instant::now()))
                .expect("osdiv serve prints its address");
            if let Some(rest) = line.strip_prefix("osdiv-serve listening on ") {
                let addr = rest.split(' ').next().unwrap_or_default();
                server.addr = addr.parse().expect("the printed address parses");
            }
        }
        server
    }

    fn request(&self, method: &str, path: &str) -> ClientResponse {
        loadgen::request(self.addr, method, path, &[])
            .unwrap_or_else(|error| panic!("{method} {path}: {error}"))
    }

    fn get(&self, path: &str) -> ClientResponse {
        self.request("GET", path)
    }

    /// One linted `/metrics` scrape.
    fn scrape(&self) -> String {
        let metrics = self.get("/metrics");
        assert_eq!(metrics.status, 200);
        let exposition = metrics.body_string();
        if let Err(error) = lint_exposition(&exposition) {
            panic!("{error}\n{exposition}");
        }
        exposition
    }

    /// `kill -9`: no shutdown path runs; only the disk survives. The drop
    /// reaps the process.
    fn kill(mut self) {
        self.child.kill().expect("the server is killed");
    }

    /// `POST /v1/shutdown`, then the exit status.
    fn shut_down(mut self) -> ExitStatus {
        assert_eq!(self.request("POST", "/v1/shutdown").status, 200);
        let deadline = Instant::now() + PATIENCE;
        loop {
            if let Some(status) = self.child.try_wait().expect("the server is waited on") {
                return status;
            }
            assert!(Instant::now() < deadline, "the server never exited");
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.stdout.take() {
            let _ = drain.join();
        }
    }
}

fn value(exposition: &str, name: &str) -> f64 {
    scrape_value(exposition, name).unwrap_or_else(|| panic!("{name} does not scrape"))
}

#[test]
fn an_ingested_tenant_survives_kill_9_with_its_bytes_and_etag() {
    let dir = TempDir::new("serve-restart");
    let feed = ParametricGenerator::new(ParametricConfig {
        vulnerability_count: 200,
        seed: 11,
        ..ParametricConfig::default()
    })
    .generate()
    .to_feed_xml()
    .expect("the generated feed serializes");

    // Upload the tenant and note its document.
    let server = Server::boot(dir.path());
    let chunks: Vec<&[u8]> = feed.as_bytes().chunks(1024).collect();
    let created =
        loadgen::request_chunked(server.addr, "PUT", "/v1/datasets/persist", &[], &chunks)
            .expect("the upload completes");
    assert_eq!(created.status, 201, "{}", created.body_string());
    let doc = server.get(DOC);
    assert_eq!(doc.status, 200);
    assert_eq!(doc.header("content-type"), Some("application/json"));
    let etag = doc
        .header("etag")
        .expect("the report has an ETag")
        .to_string();
    let default_report = server.get("/v1/report?format=json");
    assert_ne!(default_report.header("etag"), Some(etag.as_str()));

    // A route sample lands just after its response is written: poll.
    let mut exposition = server.scrape();
    for _ in 0..100 {
        if exposition.contains(REPORT_SERIES) {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
        exposition = server.scrape();
    }
    for (family, kind) in FAMILIES {
        assert!(
            exposition.contains(&format!("# TYPE {family} {kind}\n")),
            "{family} is not a {kind}:\n{exposition}"
        );
    }
    for series in [
        REPORT_SERIES,
        "osdiv_stage_duration_seconds_count{stage=\"render\"}",
        "osdiv_stage_duration_seconds_count{stage=\"ingest_parse\"}",
        "osdiv_build_info{version=\"",
    ] {
        assert!(exposition.contains(series), "no {series}:\n{exposition}");
    }
    let at_least = |name: &str, floor: f64| {
        let level = value(&exposition, name);
        assert!(level >= floor, "{name} {level} < {floor}");
    };
    at_least("osdiv_requests_served", 1.0);
    at_least("osdiv_bytes_out", 1.0);
    // The scrape's own worker and connection count themselves.
    at_least("osdiv_workers_busy", 1.0);
    at_least("osdiv_connections_active", 1.0);
    at_least("osdiv_trace_spans_recorded_total", 1.0);
    assert!(
        value(&exposition, "osdiv_datasets_resident_bytes")
            <= value(&exposition, "osdiv_datasets_byte_budget")
    );
    assert_eq!(value(&exposition, "osdiv_snapshot_writes"), 1.0);
    assert_eq!(value(&exposition, "osdiv_snapshot_loads"), 0.0);
    server.kill();

    // Boot again on the same directory: listed, but not yet decoded.
    let server = Server::boot(dir.path());
    let list = server.get("/v1/datasets?format=json");
    assert!(
        list.body_string().contains("persist"),
        "{}",
        list.body_string()
    );
    let exposition = server.scrape();
    assert_eq!(value(&exposition, "osdiv_datasets_spilled"), 1.0);
    assert_eq!(value(&exposition, "osdiv_snapshot_loads"), 0.0);
    assert!(
        !exposition.contains("osdiv_snapshot_load_duration_seconds"),
        "boot decoded a snapshot:\n{exposition}"
    );

    // The first touch decodes the snapshot, once, into the same document.
    let recovered = server.get(DOC);
    assert_eq!(recovered.status, 200);
    assert_eq!(recovered.header("etag"), Some(etag.as_str()));
    assert!(recovered.body == doc.body, "the recovered report differs");
    let exposition = server.scrape();
    assert_eq!(value(&exposition, "osdiv_snapshot_loads"), 1.0);
    assert_eq!(
        value(&exposition, "osdiv_snapshot_load_duration_seconds_count"),
        1.0
    );
    assert!(
        value(&exposition, "osdiv_datasets_resident_bytes")
            <= value(&exposition, "osdiv_datasets_byte_budget")
    );

    // The file on disk reads clean, and DELETE removes it.
    let snapshot = dir.path().join("persist.osdv");
    let inspect = Command::new(env!("CARGO_BIN_EXE_osdiv"))
        .args(["snapshot", "inspect", "--format", "csv"])
        .arg(&snapshot)
        .output()
        .expect("osdiv snapshot inspect runs");
    assert!(inspect.status.success(), "{inspect:?}");
    let sections = String::from_utf8_lossy(&inspect.stdout);
    let rows: Vec<&str> = sections.lines().skip(1).collect();
    assert!(!rows.is_empty(), "{sections}");
    assert!(rows.iter().all(|row| row.ends_with(",yes")), "{sections}");
    assert_eq!(server.request("DELETE", "/v1/datasets/persist").status, 200);
    assert!(!snapshot.exists(), "DELETE left {}", snapshot.display());

    assert!(server.shut_down().success(), "osdiv serve exited non-zero");
}
