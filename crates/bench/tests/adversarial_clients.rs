//! The server under adversarial clients. Each client shape runs against a
//! fresh in-process server tuned as `osdiv serve --threads 2
//! --io-timeout-ms 500 --shed-queue-depth 4` would be: a malformed upload,
//! two slow lorises, an overload burst and an open-loop run at twice the
//! rate such a server absorbs. After each shape the `/metrics` scrape
//! passes [`osdiv_bench::exposition::lint_exposition`] and a bystander's
//! fresh `GET /v1/healthz` is answered 200 within twice the I/O budget.
//!
//! The shapes run one after another in one test, so none competes with
//! another for the CPUs. A new client shape is one more row of [`SHAPES`].

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use datagen::{ParametricConfig, ParametricGenerator};
use osdiv_bench::exposition::{lint_exposition, scrape_value};
use osdiv_bench::harness::EXPERIMENT_SEED;
use osdiv_registry::build_synthetic;
use osdiv_serve::loadgen::{self, ClientResponse, OpenLoopConfig};
use osdiv_serve::{Gauge, Router, RouterOptions, Server, ServerHandle, ServerOptions};

/// The wall-clock budget for one request head (`--io-timeout-ms 500`).
const IO_TIMEOUT: Duration = Duration::from_millis(500);

/// The admission-control depth (`--shed-queue-depth 4`): reads shed once
/// more than 4 connections wait, ingestion once more than 2 do.
const SHED_QUEUE_DEPTH: usize = 4;

/// The cached document the readers ask for.
const REPORT: &str = "/v1/report?format=json";

/// A client shape: drives one fresh server and checks its answers.
type Shape = fn(&Drill);

/// The client shapes, in the order they run.
const SHAPES: [(&str, Shape); 4] = [
    ("malformed upload", malformed_upload),
    ("slow loris", slow_loris),
    ("overload", overload),
    ("2x open loop", open_loop_at_twice_the_rate),
];

/// One fresh server for one client shape.
struct Drill {
    router: Arc<Router>,
    server: ServerHandle,
    addr: SocketAddr,
}

impl Drill {
    fn get(&self, path: &str) -> ClientResponse {
        loadgen::get(self.addr, path).unwrap_or_else(|error| panic!("GET {path}: {error}"))
    }

    fn put(&self, name: &str, body: &str) -> ClientResponse {
        let path = format!("/v1/datasets/{name}");
        loadgen::request_with_body(self.addr, "PUT", &path, &[], body.as_bytes())
            .unwrap_or_else(|error| panic!("PUT {path}: {error}"))
    }

    /// The value of a family in one linted `/metrics` scrape.
    fn scrape(&self, family: &str) -> f64 {
        let exposition = self.get("/metrics").body_string();
        if let Err(error) = lint_exposition(&exposition) {
            panic!("{error}\n{exposition}");
        }
        scrape_value(&exposition, family).unwrap_or_else(|| panic!("no {family}: {exposition}"))
    }
}

/// A valid generated feed of `entries` vulnerabilities.
fn feed(entries: usize) -> String {
    let config = ParametricConfig {
        vulnerability_count: entries,
        seed: 13,
        ..ParametricConfig::default()
    };
    let feed = ParametricGenerator::new(config).generate().to_feed_xml();
    feed.expect("the generated feed serializes")
}

#[test]
fn every_client_shape_leaves_the_server_serving_a_bystander() {
    let study = Arc::new(build_synthetic(EXPERIMENT_SEED));
    study.run_all().expect("default configurations are valid");
    for (shape, run) in SHAPES {
        println!("shape: {shape}");
        let options = RouterOptions {
            seed: EXPERIMENT_SEED,
            cache_capacity: 128,
            ..RouterOptions::default()
        };
        let router = Arc::new(Router::with_study(Arc::clone(&study), options));
        let options = ServerOptions {
            io_timeout: IO_TIMEOUT,
            shed_queue_depth: SHED_QUEUE_DEPTH,
            ..ServerOptions::for_threads(2)
        };
        let server = Server::bind("127.0.0.1:0", Arc::clone(&router), options)
            .expect("an ephemeral loop-back port is bindable")
            .spawn();
        let drill = Drill {
            router,
            addr: server.addr(),
            server,
        };
        run(&drill);
        drill.scrape("osdiv_requests_served"); // lints clean after every shape
        let started = Instant::now();
        assert_eq!(drill.get("/v1/healthz").status, 200, "{shape}");
        let waited = started.elapsed();
        assert!(waited <= 2 * IO_TIMEOUT, "{shape}: healthz took {waited:?}");
        drill.server.shutdown().expect("a clean shutdown");
    }
}

/// A chunked PUT whose first entry is malformed, with more than 1 MB of
/// valid entries behind it: the ingester fails while most of the body is
/// still on the wire. The name stays free for a valid retry.
fn malformed_upload(drill: &Drill) {
    let feed = feed(1_500);
    let first_entry = feed.find("<entry").expect("the feed has entries");
    assert!(feed.len() - first_entry > 1 << 20, "{} bytes", feed.len());
    let mut malformed = feed.clone();
    malformed.insert_str(first_entry, "<entry id=unquoted>broken</entry>\n");
    let put = |body: &str| {
        let chunks: Vec<&[u8]> = body.as_bytes().chunks(16 * 1024).collect();
        loadgen::request_chunked(drill.addr, "PUT", "/v1/datasets/drill", &[], &chunks)
            .expect("the upload gets an answer")
    };
    let rejected = put(&malformed);
    let diagnostic = rejected.body_string();
    assert_eq!(rejected.status, 400, "{diagnostic}");
    assert!(diagnostic.starts_with("error: feed error:"), "{diagnostic}");
    assert_eq!(rejected.header("connection"), Some("close"));
    assert_eq!(drill.get("/v1/datasets/drill").status, 404);
    let retried = put(&feed);
    assert_eq!(retried.status, 201, "{}", retried.body_string());
}

/// Two lorises at once, one per worker, each sending its head a byte at a
/// time: one until it is cut off, one that stalls a few bytes in. The
/// budget bounds the whole head, however regularly bytes arrive.
fn slow_loris(drill: &Drill) {
    thread::scope(|scope| {
        let lorises = [4 * IO_TIMEOUT, IO_TIMEOUT / 4]
            .map(|trickle| scope.spawn(move || loris(drill.addr, trickle)));
        for loris in lorises {
            let (cut_after, response) = loris.join().expect("the loris client finished");
            assert!(cut_after <= 2 * IO_TIMEOUT, "cut after {cut_after:?}");
            assert!(response.starts_with("HTTP/1.1 408"), "got: {response}");
        }
    });
    assert_eq!(drill.scrape("osdiv_io_timeouts_total"), 2.0);
}

/// Sends a request head one byte per 25 ms for `trickle` (then nothing)
/// until the server closes the connection. Returns how long that took and
/// what the server sent.
fn loris(addr: SocketAddr, trickle: Duration) -> (Duration, String) {
    let mut stream = TcpStream::connect(addr).expect("the loris connects");
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(25)));
    let head = b"GET /v1/healthz HTTP/1.1\r\nX-Loris: ".iter();
    let mut head = head.chain(std::iter::repeat(&b'a'));
    let (started, mut response, mut buf) = (Instant::now(), Vec::new(), [0u8; 512]);
    loop {
        if started.elapsed() < trickle {
            let _ = stream.write_all(&[*head.next().expect("the head never ends")]);
        }
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => response.extend_from_slice(&buf[..n]),
            Err(error) if matches!(error.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => break,
        }
        assert!(started.elapsed() < 8 * IO_TIMEOUT, "never cut off");
    }
    let response = String::from_utf8_lossy(&response).into_owned();
    (started.elapsed(), response)
}

/// Admission control at both watermarks, then a real backlog.
fn overload(drill: &Drill) {
    let metrics = drill.router.metrics();
    let small_feed = feed(80);
    assert_eq!(drill.get(REPORT).status, 200, "warm the render cache");

    // Raise the dispatch-queue gauge past the soft watermark but not the
    // hard one: admission control reads the gauge, so this stands in for
    // a backlog deterministically. Ingestion sheds before reading its
    // body; a cached read is still served.
    let soft = SHED_QUEUE_DEPTH / 2 + 1;
    (0..soft).for_each(|_| metrics.raise(Gauge::DispatchQueueDepth));
    let shed = drill.put("shed", &small_feed);
    assert_eq!(shed.status, 503);
    assert_eq!(shed.header("retry-after"), Some("1"));
    assert_eq!(drill.get(REPORT).status, 200);

    // Past the hard watermark even reads are shed, before a byte of the
    // request is parsed (so no request id is minted).
    (soft..=SHED_QUEUE_DEPTH).for_each(|_| metrics.raise(Gauge::DispatchQueueDepth));
    let rejected = drill.get(REPORT);
    assert_eq!(rejected.status, 503);
    assert_eq!(rejected.header("retry-after"), Some("1"));
    assert_eq!(rejected.header("x-request-id"), None);
    (0..=SHED_QUEUE_DEPTH).for_each(|_| metrics.lower(Gauge::DispatchQueueDepth));
    assert_eq!(drill.scrape("osdiv_shed_total"), 2.0);

    // Two partial heads pin both workers, and a burst of 4 PUTs and 12
    // cached reads queues behind them. The pins go in once the scrape's
    // worker has let go, so each pin, not the burst, holds a worker.
    let busy = |workers: u64| {
        let deadline = Instant::now() + IO_TIMEOUT;
        while metrics.level(Gauge::WorkersBusy) != workers {
            assert!(Instant::now() < deadline, "never {workers} busy workers");
            thread::yield_now();
        }
    };
    busy(0);
    let pins: Vec<TcpStream> = (0..2)
        .map(|_| {
            let mut pin = TcpStream::connect(drill.addr).expect("the pin connects");
            pin.write_all(b"GET /v1/healthz HT")
                .expect("the pin writes");
            pin
        })
        .collect();
    busy(2);
    let responses: Vec<ClientResponse> = thread::scope(|scope| {
        let burst: Vec<_> = (0..16)
            .map(|i| {
                let small_feed = &small_feed;
                scope.spawn(move || match i % 4 {
                    0 => drill.put(&format!("burst-{i}"), small_feed),
                    _ => drill.get(REPORT),
                })
            })
            .collect();
        let joined = burst
            .into_iter()
            .map(|client| client.join().expect("joined"));
        joined.collect()
    });
    drop(pins);
    let mut shed = 0;
    for response in &responses {
        match response.status {
            200 | 201 => {}
            503 => {
                assert_eq!(response.header("retry-after"), Some("1"));
                shed += 1;
            }
            other => panic!("the burst got {other}: {}", response.body_string()),
        }
    }
    let served = responses.len() - shed;
    println!("overload burst: {served} served, {shed} shed");
    assert!(shed >= 1 && shed < responses.len(), "{shed} of 16 shed");
    assert_eq!(drill.scrape("osdiv_shed_total"), 2.0 + shed as f64);
}

/// An open-loop run at 2,000 req/s on 4 connections: the schedule
/// completes and the successes' p99 stays bounded. The p999 is reported,
/// not bounded: 2 of the 4 keep-alive connections can wait for a worker
/// until the served two reach the keep-alive cap.
fn open_loop_at_twice_the_rate(drill: &Drill) {
    assert_eq!(drill.get(REPORT).status, 200, "warm the render cache");
    let config = OpenLoopConfig {
        rate_per_sec: 2_000.0,
        duration: Duration::from_secs(2),
        ..OpenLoopConfig::default()
    };
    let report = loadgen::run_open_loop(drill.addr, &config);
    println!("2x open loop: {}", report.summary());
    assert!(report.ok > 0, "{}", report.summary());
    assert!(report.quantile_us(0.99) < 2_000_000, "{}", report.summary());
}
