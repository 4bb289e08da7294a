//! End-to-end tests over real sockets: an in-process server on an
//! ephemeral port, exercised by the std-`TcpStream` client in
//! [`osdiv_serve::loadgen`].

use std::io::{BufReader, Read};
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use datagen::CalibratedGenerator;
use nvd_feed::FeedWriter;
use nvd_model::{CveId, OsDistribution, VulnerabilityEntry};
use osdiv_core::{analysis_sections, renderer, AnalysisId, Format, Params, Study};
use osdiv_serve::loadgen::{self, read_response, write_request};
use osdiv_serve::{OpenLoopConfig, Router, RouterOptions, Server, ServerHandle, ServerOptions};

const SEED: u64 = 1;

/// One pre-warmed session shared by every test server in this binary.
fn study() -> Arc<Study> {
    static STUDY: OnceLock<Arc<Study>> = OnceLock::new();
    STUDY
        .get_or_init(|| {
            let dataset = CalibratedGenerator::new(SEED).generate();
            let study = Study::from_entries(dataset.entries());
            study.run_all().expect("default configurations are valid");
            Arc::new(study)
        })
        .clone()
}

fn start_server(enable_shutdown: bool) -> (Arc<Router>, ServerHandle) {
    let router = Arc::new(Router::with_study(
        study(),
        RouterOptions {
            seed: SEED,
            cache_capacity: 8,
            enable_shutdown,
            enable_dataset_delete: true,
            ..RouterOptions::default()
        },
    ));
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&router),
        ServerOptions {
            threads: 2,
            read_timeout: Duration::from_secs(1),
            max_keep_alive_requests: 100,
            ..ServerOptions::default()
        },
    )
    .expect("an ephemeral loop-back port is bindable");
    let handle = server.spawn();
    (router, handle)
}

#[test]
fn endpoints_serve_the_registry_documents() {
    let (_, handle) = start_server(false);
    let addr = handle.addr();

    let health = loadgen::get(addr, "/v1/healthz").unwrap();
    assert_eq!(health.status, 200);
    assert!(health.body_string().contains("\"status\":\"ok\""));
    assert!(health.body_string().contains("\"analyses\":8"));

    // The registry list, default text format.
    let list = loadgen::get(addr, "/v1/analyses").unwrap();
    assert_eq!(list.status, 200);
    assert_eq!(list.header("content-type"), Some(tabular::mime::TEXT_PLAIN));
    for id in AnalysisId::ALL {
        assert!(list.body_string().contains(id.name()), "missing {id}");
    }

    // Every analysis endpoint serves exactly the core-rendered document.
    for id in AnalysisId::ALL {
        for format in Format::ALL {
            let response = loadgen::get(
                addr,
                &format!("/v1/analyses/{}?format={}", id.name(), format.name()),
            )
            .unwrap();
            assert_eq!(response.status, 200, "{id} {format}");
            assert_eq!(
                response.header("content-type"),
                Some(format.content_type()),
                "{id} {format}"
            );
            let sections = analysis_sections(&study(), id, &Params::new()).unwrap();
            let expected = renderer(format).document(&sections);
            assert_eq!(response.body_string(), expected, "{id} {format}");
        }
    }

    // The combined report matches the session renderer byte for byte.
    let report = loadgen::get(addr, "/v1/report?format=json").unwrap();
    assert_eq!(report.status, 200);
    assert_eq!(report.body_string(), study().report(Format::Json).unwrap());

    handle.shutdown().unwrap();
}

#[test]
fn content_negotiation_and_error_paths() {
    let (_, handle) = start_server(false);
    let addr = handle.addr();

    let json = loadgen::get_with_headers(
        addr,
        "/v1/analyses/validity",
        &[("Accept", "application/json")],
    )
    .unwrap();
    assert_eq!(json.header("content-type"), Some("application/json"));
    let csv = loadgen::get_with_headers(
        addr,
        "/v1/analyses/validity",
        &[("Accept", "text/csv;q=0.9, application/json;q=0.5")],
    )
    .unwrap();
    assert!(csv.body_string().starts_with("OS,Valid"));
    let unacceptable =
        loadgen::get_with_headers(addr, "/v1/report", &[("Accept", "image/png")]).unwrap();
    assert_eq!(unacceptable.status, 406);

    assert_eq!(loadgen::get(addr, "/v1/nope").unwrap().status, 404);
    assert_eq!(loadgen::get(addr, "/v1/analyses/nope").unwrap().status, 404);
    assert_eq!(
        loadgen::get(addr, "/v1/analyses/temporal?first_year=1800&last_year=1700")
            .unwrap()
            .status,
        400
    );
    assert_eq!(
        loadgen::get(addr, "/v1/analyses/validity?profile=fat")
            .unwrap()
            .status,
        400
    );
    assert_eq!(
        loadgen::get(addr, "/v1/report?format=yaml").unwrap().status,
        400
    );
    assert_eq!(
        loadgen::request(addr, "POST", "/v1/report", &[])
            .unwrap()
            .status,
        405
    );
    // Shutdown is disabled on this server.
    assert_eq!(
        loadgen::request(addr, "POST", "/v1/shutdown", &[])
            .unwrap()
            .status,
        403
    );

    handle.shutdown().unwrap();
}

#[test]
fn keep_alive_etag_and_head_requests() {
    let (_, handle) = start_server(false);
    let addr = handle.addr();

    // Two GETs and a revalidation on one connection.
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut reader = BufReader::new(stream);
    write_request(reader.get_mut(), "GET", "/v1/report?format=csv", &[]).unwrap();
    let first = read_response(&mut reader).unwrap();
    assert_eq!(first.status, 200);
    let etag = first
        .header("etag")
        .expect("report carries an ETag")
        .to_string();
    assert!(etag.starts_with('"') && etag.ends_with('"'));

    write_request(reader.get_mut(), "GET", "/v1/report?format=csv", &[]).unwrap();
    let second = read_response(&mut reader).unwrap();
    assert_eq!(
        second.body, first.body,
        "keep-alive re-request is identical"
    );

    write_request(
        reader.get_mut(),
        "GET",
        "/v1/report?format=csv",
        &[("If-None-Match", &etag)],
    )
    .unwrap();
    let revalidated = read_response(&mut reader).unwrap();
    assert_eq!(revalidated.status, 304);
    assert!(revalidated.body.is_empty());
    // RFC 9110: a 304 carries no Content-Length that differs from the
    // 200's (§8.6), and the 200's Cache-Control (§15.4.5).
    assert_eq!(revalidated.header("content-length"), None);
    assert_eq!(revalidated.header("cache-control"), Some("no-cache"));
    assert_eq!(revalidated.header("etag"), Some(etag.as_str()));

    // The 304 framed no body, so the next request on the connection parses.
    write_request(reader.get_mut(), "GET", "/v1/report?format=csv", &[]).unwrap();
    let after = read_response(&mut reader).unwrap();
    assert_eq!(after.status, 200);
    assert_eq!(after.body, first.body);
    drop(reader);

    // The ETag depends on the format (and therefore the config key).
    let json = loadgen::get(addr, "/v1/report?format=json").unwrap();
    assert_ne!(json.header("etag"), Some(etag.as_str()));

    // HEAD advertises the full length but sends no body.
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut reader = BufReader::new(stream);
    write_request(
        reader.get_mut(),
        "HEAD",
        "/v1/report?format=csv",
        &[("Connection", "close")],
    )
    .unwrap();
    let mut raw = Vec::new();
    reader.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
    assert!(text.contains(&format!("Content-Length: {}\r\n", first.body.len())));
    assert!(text.ends_with("\r\n\r\n"), "HEAD response carries no body");

    handle.shutdown().unwrap();
}

#[test]
fn parameterized_requests_hit_the_lru_cache() {
    let (router, handle) = start_server(false);
    let addr = handle.addr();

    let path = "/v1/analyses/kway?profile=isolated&max_k=4&format=csv";
    let first = loadgen::get(addr, path).unwrap();
    assert_eq!(first.status, 200);
    let hits_before = router.cache_hit_count();
    let second = loadgen::get(addr, path).unwrap();
    assert_eq!(second.body, first.body);
    assert_eq!(router.cache_hit_count(), hits_before + 1);

    // Same parameters in a different order canonicalize to the same key.
    let reordered = loadgen::get(
        addr,
        "/v1/analyses/kway?format=csv&max_k=4&profile=isolated",
    )
    .unwrap();
    assert_eq!(reordered.body, first.body);
    assert_eq!(router.cache_hit_count(), hits_before + 2);

    handle.shutdown().unwrap();
}

/// A small deterministic feed with a validity distribution that cannot
/// match the calibrated default dataset.
fn feed_xml() -> Vec<u8> {
    let entries: Vec<_> = (0..12u32)
        .map(|i| {
            VulnerabilityEntry::builder(CveId::new(2004 + (i % 4) as u16, i + 1))
                .summary(format!("Buffer overflow number {i} in the TCP/IP stack"))
                .affects_os(if i % 3 == 0 {
                    OsDistribution::Debian
                } else if i % 3 == 1 {
                    OsDistribution::OpenBsd
                } else {
                    OsDistribution::Windows2000
                })
                .build()
                .unwrap()
        })
        .collect();
    FeedWriter::new()
        .write_to_string(&entries)
        .unwrap()
        .into_bytes()
}

#[test]
fn ingest_token_gates_mutating_dataset_routes() {
    let router = Arc::new(Router::with_study(
        study(),
        RouterOptions {
            seed: SEED,
            cache_capacity: 8,
            enable_dataset_delete: true,
            ingest_token: Some("s3cret".to_string()),
            ..RouterOptions::default()
        },
    ));
    let server = Server::bind(
        "127.0.0.1:0",
        router,
        ServerOptions {
            threads: 2,
            read_timeout: Duration::from_secs(1),
            max_keep_alive_requests: 100,
            ..ServerOptions::default()
        },
    )
    .unwrap();
    let handle = server.spawn();
    let addr = handle.addr();

    // Read routes stay open without a token.
    assert_eq!(
        loadgen::get(addr, "/v1/datasets?format=json")
            .unwrap()
            .status,
        200
    );

    // An unauthorized upload (whole body on the wire) is refused without
    // ingesting a byte: the route refuses to consume the body, so it
    // rides the server's drain-before-route path and the 401 goes out.
    let xml = feed_xml();
    let rejected = loadgen::request_with_body(addr, "PUT", "/v1/datasets/feed", &[], &xml).unwrap();
    assert_eq!(rejected.status, 401, "{}", rejected.body_string());
    assert_eq!(
        rejected.header("www-authenticate"),
        Some("Bearer realm=\"osdiv-ingest\"")
    );
    assert_eq!(
        loadgen::get(addr, "/v1/datasets/feed").unwrap().status,
        404,
        "nothing was ingested"
    );

    // Wrong token over chunked framing: same refusal, same clean state.
    let chunks: Vec<&[u8]> = xml.chunks(97).collect();
    let wrong = loadgen::request_chunked(
        addr,
        "PUT",
        "/v1/datasets/feed",
        &[("Authorization", "Bearer nope")],
        &chunks,
    )
    .unwrap();
    assert_eq!(wrong.status, 401);
    assert_eq!(loadgen::get(addr, "/v1/datasets/feed").unwrap().status, 404);

    // DELETE is gated by the same token.
    assert_eq!(
        loadgen::request(addr, "DELETE", "/v1/datasets/feed", &[])
            .unwrap()
            .status,
        401
    );

    // The right token ingests and deletes normally.
    let created = loadgen::request_chunked(
        addr,
        "PUT",
        "/v1/datasets/feed",
        &[("Authorization", "Bearer s3cret")],
        &chunks,
    )
    .unwrap();
    assert_eq!(created.status, 201, "{}", created.body_string());
    assert_eq!(
        loadgen::get(addr, "/v1/analyses/validity?dataset=feed")
            .unwrap()
            .status,
        200
    );
    let deleted = loadgen::request(
        addr,
        "DELETE",
        "/v1/datasets/feed",
        &[("Authorization", "Bearer s3cret")],
    )
    .unwrap();
    assert_eq!(deleted.status, 200);

    handle.shutdown().unwrap();
}

#[test]
fn chunked_feed_upload_becomes_queryable_through_every_analysis_route() {
    let (_, handle) = start_server(false);
    let addr = handle.addr();

    // Stream the feed in small wire chunks (no Content-Length anywhere).
    let xml = feed_xml();
    let chunks: Vec<&[u8]> = xml.chunks(97).collect();
    let created = loadgen::request_chunked(addr, "PUT", "/v1/datasets/feed", &[], &chunks).unwrap();
    assert_eq!(created.status, 201, "{}", created.body_string());
    assert!(created.body_string().contains("\"entries\":12"));

    // The dataset is now queryable through every existing analysis route…
    let reference = {
        let mut ingester = osdiv_registry::FeedIngester::new(Default::default());
        ingester.push(&xml).unwrap();
        Arc::new(ingester.finish().unwrap().into_study())
    };
    for id in AnalysisId::ALL {
        let response = loadgen::get(
            addr,
            &format!("/v1/analyses/{}?dataset=feed&format=json", id.name()),
        )
        .unwrap();
        assert_eq!(response.status, 200, "{id}");
        // …serving exactly the bytes the core renders for that dataset.
        let sections = analysis_sections(&reference, id, &Params::new()).unwrap();
        assert_eq!(
            response.body_string(),
            renderer(Format::Json).document(&sections),
            "{id}"
        );
    }
    let report = loadgen::get(addr, "/v1/report?dataset=feed&format=json").unwrap();
    assert_eq!(report.status, 200);
    assert_eq!(
        report.body_string(),
        reference.report(Format::Json).unwrap()
    );

    // ETags are keyed per dataset even for identical paths.
    let feed_tag = loadgen::get(addr, "/v1/analyses/validity?dataset=feed")
        .unwrap()
        .header("etag")
        .unwrap()
        .to_string();
    let default_tag = loadgen::get(addr, "/v1/analyses/validity")
        .unwrap()
        .header("etag")
        .unwrap()
        .to_string();
    assert_ne!(feed_tag, default_tag);

    // Listing, revalidation, deletion, clean 404.
    let list = loadgen::get(addr, "/v1/datasets?format=json").unwrap();
    assert!(list.body_string().contains("feed"));
    let revalidated = loadgen::get_with_headers(
        addr,
        "/v1/analyses/validity?dataset=feed",
        &[("If-None-Match", &feed_tag)],
    )
    .unwrap();
    assert_eq!(revalidated.status, 304);
    let deleted = loadgen::request(addr, "DELETE", "/v1/datasets/feed", &[]).unwrap();
    assert_eq!(deleted.status, 200);
    assert_eq!(
        loadgen::get(addr, "/v1/report?dataset=feed")
            .unwrap()
            .status,
        404
    );

    handle.shutdown().unwrap();
}

#[test]
fn default_dataset_urls_are_identical_with_and_without_the_param() {
    let (_, handle) = start_server(false);
    let addr = handle.addr();
    for path in [
        "/v1/report?format=json",
        "/v1/analyses/validity?format=csv",
        "/v1/analyses/kway?profile=isolated&max_k=4&format=json",
    ] {
        let implicit = loadgen::get(addr, path).unwrap();
        let explicit = loadgen::get(addr, &format!("{path}&dataset=default")).unwrap();
        assert_eq!(implicit.status, 200, "{path}");
        assert_eq!(implicit.body, explicit.body, "{path}");
        assert_eq!(
            implicit.header("etag"),
            explicit.header("etag"),
            "{path} ETags must agree"
        );
    }
    handle.shutdown().unwrap();
}

#[test]
fn seed_registered_datasets_serve_alternate_studies() {
    let (_, handle) = start_server(false);
    let addr = handle.addr();
    let created = loadgen::request(addr, "PUT", "/v1/datasets/alt?seed=7", &[]).unwrap();
    assert_eq!(created.status, 201);
    let response = loadgen::get(addr, "/v1/analyses/pairwise?dataset=alt&format=csv").unwrap();
    assert_eq!(response.status, 200);
    // Registering over a live name conflicts; invalid names are 400s.
    assert_eq!(
        loadgen::request(addr, "PUT", "/v1/datasets/alt?seed=9", &[])
            .unwrap()
            .status,
        409
    );
    assert_eq!(
        loadgen::request(addr, "PUT", "/v1/datasets/Not%20Valid?seed=1", &[])
            .unwrap()
            .status,
        400
    );
    handle.shutdown().unwrap();
}

#[test]
fn head_requests_are_supported_by_client_and_server() {
    let (_, handle) = start_server(false);
    let addr = handle.addr();
    let get = loadgen::get(addr, "/v1/report?format=csv").unwrap();
    let head = loadgen::head(addr, "/v1/report?format=csv").unwrap();
    assert_eq!(head.status, 200);
    assert!(head.body.is_empty(), "HEAD carries no body");
    assert_eq!(
        head.header("content-length").unwrap(),
        get.body.len().to_string(),
        "HEAD advertises the representation's length"
    );
    assert_eq!(head.header("etag"), get.header("etag"));
    assert_eq!(head.header("content-type"), get.header("content-type"));
    // The connection stays usable: a follow-up request on a fresh one-shot
    // works (and HEAD of an error route mirrors its status).
    assert_eq!(
        loadgen::head(addr, "/v1/analyses/nope").unwrap().status,
        404
    );
    handle.shutdown().unwrap();
}

#[test]
fn oversized_unconsumed_bodies_answer_413() {
    let (_, handle) = start_server(false);
    let addr = handle.addr();
    // A body no route consumes, over MAX_BODY_BYTES: the drain cap kicks
    // in and the server answers 413 instead of buffering it. (A POST to a
    // GET-only route answers 405 before the body is even considered.)
    let huge = vec![b'x'; 80 * 1024];
    let response =
        loadgen::request_with_body(addr, "GET", "/v1/report?format=json", &[], &huge).unwrap();
    assert_eq!(response.status, 413);
    let post = loadgen::request_with_body(addr, "POST", "/v1/report", &[], b"tiny").unwrap();
    assert_eq!(post.status, 405);
    handle.shutdown().unwrap();
}

#[test]
fn rejected_bodies_never_run_the_route_side_effect() {
    let (_, handle) = start_server(false);
    let addr = handle.addr();
    // Regression: `PUT /v1/datasets/{name}?seed=` does not consume its
    // body, so an oversized upload used to register the dataset first and
    // only then replace the 201 with a 413 — the side effect without the
    // success. The body is now drained (and rejected) before routing.
    let huge = vec![b'x'; 80 * 1024];
    let response =
        loadgen::request_with_body(addr, "PUT", "/v1/datasets/sneaky?seed=5", &[], &huge).unwrap();
    assert_eq!(response.status, 413);
    assert_eq!(
        loadgen::get(addr, "/v1/report?dataset=sneaky")
            .unwrap()
            .status,
        404,
        "a rejected request must not have registered the dataset"
    );
    let list = loadgen::get(addr, "/v1/datasets?format=json").unwrap();
    assert!(!list.body_string().contains("sneaky"));
    handle.shutdown().unwrap();
}

#[test]
fn a_request_smuggled_behind_ambiguous_framing_is_never_served() {
    use std::io::Write;
    let (_, handle) = start_server(false);
    // Read by its Content-Length, the GET is the POST's body; read as
    // chunked, it is a second request. A proxy and the server could
    // disagree, so the server answers 400 and closes (RFC 9112 §6.3).
    let smuggled = "GET /v1/nope HTTP/1.1\r\nHost: x\r\n\r\n";
    let body = format!("0\r\n\r\n{smuggled}");
    let wire = format!(
        "POST /v1/report HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nTransfer-Encoding: chunked\r\n\r\n{body}",
        body.len()
    );
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(wire.as_bytes()).unwrap();
    let mut reply = Vec::new();
    let mut buf = [0u8; 4096];
    // Until the server closes (or resets) the connection.
    while let Ok(n @ 1..) = stream.read(&mut buf) {
        reply.extend_from_slice(&buf[..n]);
    }
    let reply = String::from_utf8_lossy(&reply);
    assert!(reply.starts_with("HTTP/1.1 400 "), "{reply}");
    assert_eq!(reply.matches("HTTP/1.1 ").count(), 1, "one answer: {reply}");
    handle.shutdown().unwrap();
}

#[test]
fn four_keep_alive_clients_complete_a_hundred_concurrent_requests() {
    let (_, handle) = start_server(false);
    let addr = handle.addr();
    let ok: usize = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(move || {
                    let stream = TcpStream::connect(addr).unwrap();
                    stream
                        .set_read_timeout(Some(Duration::from_secs(5)))
                        .unwrap();
                    let mut reader = BufReader::new(stream);
                    let mut ok = 0;
                    for _ in 0..25 {
                        write_request(reader.get_mut(), "GET", "/v1/report?format=json", &[])
                            .unwrap();
                        ok += usize::from(read_response(&mut reader).unwrap().status == 200);
                    }
                    ok
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().unwrap()).sum()
    });
    assert_eq!(ok, 100);
    handle.shutdown().unwrap();
}

#[test]
fn responses_carry_request_ids_and_histograms_over_real_sockets() {
    let (_, handle) = start_server(false);
    let addr = handle.addr();

    // Every response — success and error alike — carries an X-Request-Id.
    let ok = loadgen::get(addr, "/v1/report?format=json").unwrap();
    assert_eq!(ok.status, 200);
    assert!(ok.header("x-request-id").is_some());
    let missing = loadgen::get(addr, "/v1/analyses/nope").unwrap();
    assert_eq!(missing.status, 404);
    assert!(missing.header("x-request-id").is_some());

    // A pipelined burst: every response gets its own unique id.
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut reader = BufReader::new(stream);
    for _ in 0..4 {
        write_request(reader.get_mut(), "GET", "/v1/healthz", &[]).unwrap();
    }
    let mut ids = Vec::new();
    for _ in 0..4 {
        let response = read_response(&mut reader).unwrap();
        assert_eq!(response.status, 200);
        ids.push(response.header("x-request-id").unwrap().to_string());
    }
    drop(reader);
    let unique: std::collections::HashSet<&String> = ids.iter().collect();
    assert_eq!(unique.len(), ids.len(), "pipelined ids must be unique");

    // The traffic above populated the per-route and per-stage histograms.
    // A route sample lands *after* the worker finishes writing the
    // response, so a just-served client can outrun the recording by a
    // scheduling quantum — poll briefly instead of scraping once.
    let expected = [
        "osdiv_request_duration_seconds_count{route=\"report\"}",
        "osdiv_request_duration_seconds_count{route=\"healthz\"}",
        "osdiv_stage_duration_seconds_count{stage=\"parse\"}",
        "osdiv_stage_duration_seconds_count{stage=\"write\"}",
        "osdiv_build_info{version=\"",
        "# TYPE osdiv_uptime_seconds gauge",
    ];
    let mut body = String::new();
    for _ in 0..100 {
        let metrics = loadgen::get(addr, "/metrics").unwrap();
        assert_eq!(metrics.status, 200);
        body = metrics.body_string();
        if expected.iter().all(|series| body.contains(series)) {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    for series in expected {
        assert!(body.contains(series), "missing {series} in:\n{body}");
    }

    handle.shutdown().unwrap();
}

#[test]
fn server_access_log_records_every_request() {
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<std::sync::Mutex<Vec<u8>>>);
    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let buf = SharedBuf::default();
    let log = Arc::new(osdiv_core::EventLog::to_writer(Box::new(buf.clone())));
    let router = Arc::new(Router::with_study(
        study(),
        RouterOptions {
            seed: SEED,
            cache_capacity: 8,
            access_log: Some(Arc::clone(&log)),
            // A zero threshold promotes every request to `slow_request`.
            slow_request_us: 0,
            ..RouterOptions::default()
        },
    ));
    let server = Server::bind(
        "127.0.0.1:0",
        router,
        ServerOptions {
            threads: 2,
            read_timeout: Duration::from_secs(1),
            max_keep_alive_requests: 100,
            ..ServerOptions::default()
        },
    )
    .unwrap();
    let handle = server.spawn();
    let addr = handle.addr();

    let ok = loadgen::get(addr, "/v1/report?format=json").unwrap();
    assert_eq!(ok.status, 200);
    let id = ok.header("x-request-id").unwrap().to_string();
    handle.shutdown().unwrap();
    log.flush();

    let raw = buf.0.lock().unwrap().clone();
    let text = String::from_utf8(raw).unwrap();
    let line = text
        .lines()
        .find(|line| line.contains("\"path\":\"/v1/report\""))
        .unwrap_or_else(|| panic!("no report line in access log:\n{text}"));
    assert!(
        line.contains("\"ts\":"),
        "log lines carry a timestamp: {line}"
    );
    assert!(line.contains("\"event\":\"slow_request\""), "{line}");
    assert!(line.contains("\"route\":\"report\""), "{line}");
    assert!(line.contains("\"status\":200"), "{line}");
    assert!(line.contains("\"total_us\":"), "{line}");
    assert!(line.contains(&format!("\"id\":\"{id}\"")), "{line}");
}

fn start_debug_server(ingest_token: Option<&str>) -> ServerHandle {
    let router = Arc::new(Router::with_study(
        study(),
        RouterOptions {
            seed: SEED,
            cache_capacity: 8,
            enable_debug: true,
            ingest_token: ingest_token.map(str::to_string),
            ..RouterOptions::default()
        },
    ));
    let server = Server::bind(
        "127.0.0.1:0",
        router,
        ServerOptions {
            threads: 2,
            read_timeout: Duration::from_secs(1),
            max_keep_alive_requests: 100,
            ..ServerOptions::default()
        },
    )
    .expect("an ephemeral loop-back port is bindable");
    server.spawn()
}

#[test]
fn debug_routes_are_gated_by_flag_and_bearer_token() {
    // Off by default: the routes exist but refuse with a 403 hint.
    let (_, handle) = start_server(false);
    let addr = handle.addr();
    let refused = loadgen::get(addr, "/v1/debug/spans").unwrap();
    assert_eq!(refused.status, 403);
    assert!(refused.body_string().contains("--enable-debug"));
    handle.shutdown().unwrap();

    // Enabled with a token: anonymous and wrong-token callers get the
    // same 401 the ingest routes give; the right bearer token dumps JSON.
    let handle = start_debug_server(Some("s3cret"));
    let addr = handle.addr();
    for path in ["/v1/debug/spans", "/v1/debug/registry"] {
        let anon = loadgen::get(addr, path).unwrap();
        assert_eq!(anon.status, 401, "{path}");
        assert_eq!(
            anon.header("www-authenticate"),
            Some("Bearer realm=\"osdiv-ingest\""),
            "{path}"
        );
        let wrong =
            loadgen::get_with_headers(addr, path, &[("Authorization", "Bearer nope")]).unwrap();
        assert_eq!(wrong.status, 401, "{path}");
        let ok =
            loadgen::get_with_headers(addr, path, &[("Authorization", "Bearer s3cret")]).unwrap();
        assert_eq!(ok.status, 200, "{path}");
        assert_eq!(
            ok.header("content-type"),
            Some("application/json"),
            "{path}"
        );
    }
    let auth = [("Authorization", "Bearer s3cret")];
    let spans = loadgen::get_with_headers(addr, "/v1/debug/spans", &auth).unwrap();
    assert!(spans.body_string().contains("\"traceEvents\":["));
    let registry = loadgen::get_with_headers(addr, "/v1/debug/registry", &auth).unwrap();
    assert!(registry.body_string().contains("\"tenants\":["));
    // There is no pool view: worker-pool gauges are on /metrics.
    let pool = loadgen::get_with_headers(addr, "/v1/debug/pool", &auth).unwrap();
    assert_eq!(pool.status, 404);
    // GET-only, like every other read route.
    assert_eq!(
        loadgen::request(addr, "POST", "/v1/debug/spans", &auth)
            .unwrap()
            .status,
        405
    );
    handle.shutdown().unwrap();
}

#[test]
fn debug_span_dump_joins_ingest_stages_to_the_request_id() {
    let handle = start_debug_server(None);
    let addr = handle.addr();

    // A chunked feed upload leaves carve/parse/insert spans in the ring…
    let xml = feed_xml();
    let chunks: Vec<&[u8]> = xml.chunks(97).collect();
    let created =
        loadgen::request_chunked(addr, "PUT", "/v1/datasets/debugfeed", &[], &chunks).unwrap();
    assert_eq!(created.status, 201, "{}", created.body_string());
    let put_id = created
        .header("x-request-id")
        .expect("the PUT carries an X-Request-Id")
        .to_string();

    // …all joined to the PUT's request id in the Chrome-trace dump. The
    // root request span is recorded after the response hits the wire, so
    // poll briefly rather than racing the worker for it.
    let needle = format!("\"request\":\"{put_id}\"");
    let stages = ["ingest_carve", "ingest_parse", "ingest_insert"];
    let mut body = String::new();
    let mut joined: Vec<String> = Vec::new();
    for _ in 0..100 {
        let dump = loadgen::get(addr, "/v1/debug/spans").unwrap();
        assert_eq!(dump.status, 200);
        body = dump.body_string();
        // Each trace event opens with its name field; keep the segments
        // that carry the PUT's join key.
        joined = body
            .split("{\"name\":")
            .skip(1)
            .filter(|event| event.contains(&needle))
            .map(str::to_string)
            .collect();
        let root_landed = joined.iter().any(|event| event.starts_with("\"request:"));
        if root_landed
            && stages
                .iter()
                .all(|stage| joined.iter().any(|event| event.contains(stage)))
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(!joined.is_empty(), "no spans joined to {put_id}:\n{body}");
    for stage in stages {
        assert!(
            joined.iter().any(|event| event.contains(stage)),
            "no {stage} span joined to the PUT:\n{body}"
        );
    }
    assert!(
        joined.iter().any(|event| event.starts_with("\"request:")),
        "the root request span is missing from the dump:\n{body}"
    );

    handle.shutdown().unwrap();
}

#[test]
fn open_loop_loadgen_completes_against_a_live_server() {
    let (_, handle) = start_server(false);
    let report = loadgen::run_open_loop(
        handle.addr(),
        &OpenLoopConfig {
            rate_per_sec: 500.0,
            duration: Duration::from_millis(400),
            connections: 2,
            ..OpenLoopConfig::default()
        },
    );
    assert_eq!(report.errors, 0);
    assert_eq!(report.ok, report.total);
    assert_eq!(report.latency.len(), report.ok);
    assert!(report.latency.windows(2).all(|pair| pair[0] <= pair[1]));
    assert!(report.quantile_us(0.99) >= report.quantile_us(0.50));
    handle.shutdown().unwrap();
}

#[test]
fn open_loop_reconnects_at_once_after_the_keep_alive_cap() {
    // The server answers every 4th request on a connection with
    // `Connection: close`. That close is planned, so the client must
    // reconnect for the next request at once instead of treating it as
    // a transport error and sleeping through a retry backoff (≥ 20 ms).
    let router = Arc::new(Router::with_study(
        study(),
        RouterOptions {
            seed: SEED,
            ..RouterOptions::default()
        },
    ));
    let server = Server::bind(
        "127.0.0.1:0",
        router,
        ServerOptions {
            threads: 2,
            max_keep_alive_requests: 4,
            ..ServerOptions::default()
        },
    )
    .expect("an ephemeral loop-back port is bindable");
    let handle = server.spawn();
    let report = loadgen::run_open_loop(
        handle.addr(),
        &OpenLoopConfig {
            rate_per_sec: 400.0,
            duration: Duration::from_millis(250),
            connections: 1,
            path: "/v1/healthz".to_string(),
            ..OpenLoopConfig::default()
        },
    );
    assert_eq!(report.errors, 0, "{}", report.summary());
    assert!(report.quantile_us(0.50) < 20_000, "{}", report.summary());
    handle.shutdown().unwrap();
}

#[test]
fn shutdown_endpoint_stops_the_server_cleanly() {
    let (router, handle) = start_server(true);
    let addr = handle.addr();

    let response = loadgen::request(addr, "POST", "/v1/shutdown", &[]).unwrap();
    assert_eq!(response.status, 200);
    assert!(router
        .shutdown_flag()
        .load(std::sync::atomic::Ordering::SeqCst));
    // The handle joins the (already winding down) accept loop.
    handle.shutdown().unwrap();
    // New connections are refused once the listener is gone.
    assert!(
        TcpStream::connect(addr).is_err(),
        "the listener must be closed after shutdown"
    );
}
