//! Serving-layer benches: the latency of one cached request over a real
//! socket, ETag revalidation, and the open-loop tail latency of
//! `/v1/report` served from the memoized `Study`. Closed-loop throughput
//! is measured end to end by `perfbench`.
//!
//! The roundtrip benches run with observability fully on (per-route and
//! per-stage histograms, request-id minting), so their numbers *are* the
//! with-instrumentation figures; `obs/histogram_record` isolates the cost
//! of one histogram sample to show why the overhead stays in the noise.
//! The open-loop leg prints coordinated-omission-immune p50/p99/p999.

use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use datagen::CalibratedGenerator;
use osdiv_core::{obs, FlightRecorder, LatencyHistogram, SpanKind, Study};
use osdiv_serve::loadgen::{read_response, run_open_loop, write_request, ClientResponse};
use osdiv_serve::{OpenLoopConfig, Router, RouterOptions, Server, ServerHandle, ServerOptions};

fn start_server() -> ServerHandle {
    let dataset = CalibratedGenerator::new(2011).generate();
    let study = Study::from_entries(dataset.entries());
    study.run_all().expect("default configurations are valid");
    let router = Arc::new(Router::with_study(
        Arc::new(study),
        RouterOptions::default(),
    ));
    let server = Server::bind("127.0.0.1:0", router, ServerOptions::for_threads(4))
        .expect("an ephemeral loop-back port is bindable");
    server.spawn()
}

/// A keep-alive client that reconnects when a response announces
/// `Connection: close`: the benches pump more requests through one
/// connection than the server's keep-alive cap of 1,000.
struct Client {
    addr: SocketAddr,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("the bench server accepts");
        Client {
            addr,
            reader: BufReader::new(stream),
        }
    }

    fn get(&mut self, path: &str, headers: &[(&str, &str)]) -> ClientResponse {
        write_request(self.reader.get_mut(), "GET", path, headers).unwrap();
        let response = read_response(&mut self.reader).unwrap();
        if response
            .header("connection")
            .is_some_and(|value| value.eq_ignore_ascii_case("close"))
        {
            *self = Client::connect(self.addr);
        }
        response
    }
}

fn bench_histogram_record(c: &mut Criterion) {
    // The cost every request pays per recorded sample: a binary search
    // over the 22 `le` bounds, then two relaxed fetch_adds (the sample's
    // bucket and the sum). Tens of nanoseconds keep the always-on
    // route+stage instrumentation inside the roundtrip noise.
    let histogram = LatencyHistogram::new();
    let mut sample = 17u64;
    c.bench_function("obs/histogram_record", |b| {
        b.iter(|| {
            sample = sample
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493)
                % 60_000;
            histogram.record_us(sample);
        })
    });
}

fn bench_flight_record(c: &mut Criterion) {
    // The A/B against obs/histogram_record: one span
    // written into the flight-recorder ring is one fetch_add claim plus
    // a try_lock'd 80-byte slot store — it must stay in the same order
    // of magnitude, or per-request span recording would show up in the
    // roundtrip numbers.
    let recorder = FlightRecorder::global();
    let mut sample = 17u64;
    c.bench_function("obs/flight_record", |b| {
        b.iter(|| {
            sample = sample
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493)
                % 60_000;
            obs::record_span(SpanKind::Render, "bench", sample, sample);
            recorder.recorded_total()
        })
    });
}

fn bench_serving(c: &mut Criterion) {
    let handle = start_server();
    let addr = handle.addr();

    // Single keep-alive request against the rendered-body cache.
    let mut client = Client::connect(addr);
    c.bench_function("serve/cached_report_json_roundtrip", |b| {
        b.iter(|| client.get("/v1/report?format=json", &[]).status)
    });

    // ETag revalidation: the 304 path renders and transfers nothing.
    let etag = client
        .get("/v1/report?format=json", &[])
        .header("etag")
        .expect("the report carries an ETag")
        .to_string();
    c.bench_function("serve/etag_revalidation_304", |b| {
        b.iter(|| {
            client
                .get("/v1/report?format=json", &[("If-None-Match", &etag)])
                .status
        })
    });

    // A non-default configuration served through the LRU cache.
    c.bench_function("serve/cached_parameterized_kway_csv", |b| {
        b.iter(|| {
            client
                .get("/v1/analyses/kway?profile=isolated&max_k=4&format=csv", &[])
                .status
        })
    });
    drop(client);

    // Open-loop tail latency: arrivals fire on a Poisson schedule whether
    // or not earlier responses came back, so the p99/p999 include any
    // queueing delay the server causes (no coordinated omission).
    let open = run_open_loop(
        addr,
        &OpenLoopConfig {
            rate_per_sec: 2_000.0,
            duration: Duration::from_secs(2),
            ..OpenLoopConfig::default()
        },
    );
    println!("serve/open_loop_report_json: {}", open.summary());
    assert_eq!(open.errors, 0, "the open-loop run must not drop requests");

    handle
        .shutdown()
        .expect("the bench server shuts down cleanly");
}

criterion_group!(
    name = serve;
    config = Criterion::default().sample_size(10);
    targets = bench_histogram_record, bench_flight_record, bench_serving
);
criterion_main!(serve);
