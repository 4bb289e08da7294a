//! Property tests of the incremental HTTP request parser and the chunked
//! body decoder: arbitrary header splits and torn reads across buffer
//! boundaries must parse exactly like one contiguous read, torn and
//! pipelined chunked bodies must decode exactly like contiguous ones,
//! malformed or oversized input must map to 400/431 violations — never a
//! panic — and a list header split over several field lines must be
//! answered exactly like the same list on one line.

use std::sync::{Arc, OnceLock};

use osdiv_core::Study;
use osdiv_serve::http::{
    ChunkedDecoder, HttpViolation, Request, RequestParser, MAX_CHUNK_LINE_BYTES,
    MAX_REQUEST_LINE_BYTES,
};
use osdiv_serve::{Router, RouterOptions};
use proptest::prelude::*;

/// Parses a whole byte string in a single feed.
fn oneshot(raw: &[u8]) -> Result<Option<Request>, HttpViolation> {
    RequestParser::new().feed(raw)
}

/// Parses a byte string fed in `chunk`-sized pieces, returning the first
/// completed request (or first violation).
fn torn(raw: &[u8], chunk: usize) -> Result<Option<Request>, HttpViolation> {
    let mut parser = RequestParser::new();
    for piece in raw.chunks(chunk.max(1)) {
        match parser.feed(piece) {
            Ok(None) => {}
            done => return done,
        }
    }
    Ok(None)
}

/// The router the split-invariance cases ask, over a small calibrated
/// study, with the ETag of the text document they request.
fn router() -> &'static (Router, String) {
    static ROUTER: OnceLock<(Router, String)> = OnceLock::new();
    ROUTER.get_or_init(|| {
        let dataset = datagen::CalibratedGenerator::new(1).generate();
        let router = Router::with_study(
            Arc::new(Study::from_entries(dataset.entries())),
            RouterOptions {
                seed: 1,
                ..RouterOptions::default()
            },
        );
        let head = oneshot(b"GET /v1/analyses/validity HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        let etag = router.handle(&head).header("etag").unwrap().to_string();
        (router, etag)
    })
}

proptest! {
    #[test]
    fn list_headers_split_over_field_lines_answer_like_one_line(
        kind in 0usize..3,
        picks in proptest::collection::vec(0usize..4, 1..5),
        lines in 1usize..4,
        http11 in 0usize..2,
    ) {
        let (router, etag) = router();
        let (name, choices) = match kind {
            0 => ("Accept", ["text/csv", "application/json;q=0.5", "image/png", "*/*;q=0.1"].map(String::from)),
            1 => ("Connection", ["close", "keep-alive", "te", "upgrade"].map(String::from)),
            _ => ("If-None-Match", ["\"nope\"".to_string(), format!("W/{etag}"), etag.clone(), "*".to_string()]),
        };
        let items: Vec<&str> = picks.iter().map(|&i| choices[i].as_str()).collect();
        let version = if http11 == 1 { "1.1" } else { "1.0" };
        let request = |field_lines: Vec<String>| {
            let mut raw = format!("GET /v1/analyses/validity HTTP/{version}\r\n");
            for value in field_lines {
                raw.push_str(&format!("{name}: {value}\r\n"));
            }
            raw.push_str("\r\n");
            oneshot(raw.as_bytes()).unwrap().expect("request is complete")
        };
        // The same items, in the same order, on one line and on 1-3 lines.
        let joined = request(vec![items.join(", ")]);
        let per_line = items.len().div_ceil(lines.min(items.len()));
        let split = request(items.chunks(per_line).map(|group| group.join(", ")).collect());
        prop_assert_eq!(split.keep_alive(), joined.keep_alive());
        prop_assert_eq!(split.body_framing(), joined.body_framing());
        // `X-Request-Id` differs per request; everything else must not.
        let (one, many) = (router.handle(&joined), router.handle(&split));
        prop_assert_eq!(one.status(), many.status(), "{:?}", items);
        prop_assert_eq!(one.header("etag"), many.header("etag"));
        prop_assert_eq!(one.body(), many.body());
    }

    #[test]
    fn torn_reads_parse_exactly_like_contiguous_reads(
        path in "[a-z0-9/]{1,24}",
        key in "[a-z]{1,8}",
        value in "[a-z0-9 ]{0,16}",
        header_count in 0usize..5,
        chunk in 1usize..9,
    ) {
        let mut raw = format!("GET /{path}?{key}={} HTTP/1.1\r\n", value.replace(' ', "+"));
        for i in 0..header_count {
            raw.push_str(&format!("x-header-{i}: value {i}\r\n"));
        }
        raw.push_str("\r\n");
        let expected = oneshot(raw.as_bytes());
        let got = torn(raw.as_bytes(), chunk);
        prop_assert_eq!(&got, &expected);
        let request = got.unwrap().expect("request is complete");
        prop_assert_eq!(request.path, format!("/{path}"));
        prop_assert_eq!(request.query[0].0.clone(), key);
        prop_assert_eq!(request.query[0].1.clone(), value);
        prop_assert_eq!(request.headers.len(), header_count);
    }

    #[test]
    fn arbitrary_bytes_never_panic_and_violations_are_400_or_431(
        bytes in proptest::collection::vec(0u8..=255u8, 0..400),
        chunk in 1usize..17,
    ) {
        for result in [oneshot(&bytes), torn(&bytes, chunk)] {
            if let Err(violation) = result {
                prop_assert!(matches!(violation.status(), 400 | 431));
            }
        }
    }

    #[test]
    fn torn_garbage_agrees_with_contiguous_garbage(
        bytes in proptest::collection::vec(0u8..=255u8, 0..200),
        chunk in 1usize..9,
    ) {
        // A violation (or a completed parse) must not depend on how the
        // bytes were split across reads, with one exception: the torn
        // parser may detect an over-long request line before the full
        // buffer arrives, which the oneshot parse resolves differently.
        let a = oneshot(&bytes);
        let b = torn(&bytes, chunk);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn oversized_request_lines_are_431(extra in 1usize..64, chunk in 1usize..2048) {
        let line = vec![b'a'; MAX_REQUEST_LINE_BYTES + extra];
        let result = torn(&line, chunk);
        prop_assert_eq!(result, Err(HttpViolation::HeadTooLarge));
    }

    #[test]
    fn torn_chunked_bodies_decode_exactly_like_contiguous_ones(
        payload in proptest::collection::vec(0u8..=255u8, 0..300),
        wire_chunk in 1usize..40,
        feed_chunk in 1usize..17,
        pipelined in proptest::collection::vec(0u8..=255u8, 0..40),
    ) {
        // Encode the payload as chunked framing in `wire_chunk`-sized
        // chunks, then append pipelined garbage past the terminator.
        let mut wire = Vec::new();
        for piece in payload.chunks(wire_chunk) {
            wire.extend_from_slice(format!("{:x}\r\n", piece.len()).as_bytes());
            wire.extend_from_slice(piece);
            wire.extend_from_slice(b"\r\n");
        }
        wire.extend_from_slice(b"0\r\n\r\n");
        let body_len = wire.len();
        wire.extend_from_slice(&pipelined);

        // Contiguous decode.
        let mut oneshot = ChunkedDecoder::new();
        let mut oneshot_sink = Vec::new();
        let consumed = oneshot.decode(&wire, &mut oneshot_sink).unwrap();
        prop_assert!(oneshot.is_done());
        prop_assert_eq!(consumed, body_len, "stops exactly at the terminator");
        prop_assert_eq!(&oneshot_sink, &payload);

        // Torn decode, `feed_chunk` bytes at a time.
        let mut torn = ChunkedDecoder::new();
        let mut torn_sink = Vec::new();
        let mut offset = 0;
        for piece in wire.chunks(feed_chunk) {
            let consumed = torn.decode(piece, &mut torn_sink).unwrap();
            offset += consumed;
            if torn.is_done() {
                break;
            }
            prop_assert_eq!(consumed, piece.len(), "incomplete bodies consume everything");
        }
        prop_assert!(torn.is_done());
        prop_assert_eq!(offset, body_len);
        prop_assert_eq!(&torn_sink, &payload);
    }

    #[test]
    fn bad_chunk_size_lines_are_400(garbage in "[g-z!@# ]{1,10}", chunk in 1usize..9) {
        let wire = format!("{garbage}\r\ndata\r\n0\r\n\r\n");
        let mut decoder = ChunkedDecoder::new();
        let mut sink = Vec::new();
        let mut outcome = Ok(0);
        for piece in wire.as_bytes().chunks(chunk) {
            outcome = decoder.decode(piece, &mut sink);
            if outcome.is_err() {
                break;
            }
        }
        prop_assert!(
            matches!(outcome, Err(HttpViolation::BadRequest(_))),
            "{wire:?} -> {outcome:?}"
        );
    }

    #[test]
    fn oversized_chunk_size_lines_are_431(extra in 1usize..64, chunk in 1usize..64) {
        let line = vec![b'a'; MAX_CHUNK_LINE_BYTES + extra];
        let mut decoder = ChunkedDecoder::new();
        let mut sink = Vec::new();
        let mut outcome = Ok(0);
        for piece in line.chunks(chunk) {
            outcome = decoder.decode(piece, &mut sink);
            if outcome.is_err() {
                break;
            }
        }
        prop_assert_eq!(outcome, Err(HttpViolation::HeadTooLarge));
    }

    #[test]
    fn arbitrary_chunked_input_never_panics(
        bytes in proptest::collection::vec(0u8..=255u8, 0..300),
        chunk in 1usize..17,
    ) {
        let mut decoder = ChunkedDecoder::new();
        let mut sink = Vec::new();
        for piece in bytes.chunks(chunk) {
            match decoder.decode(piece, &mut sink) {
                Ok(_) => {}
                Err(violation) => {
                    prop_assert!(matches!(violation.status(), 400 | 431));
                    break;
                }
            }
        }
    }

    #[test]
    fn malformed_request_lines_never_panic(line in "[ -~]{0,48}") {
        let raw = format!("{line}\r\n\r\n");
        match oneshot(raw.as_bytes()) {
            Ok(_) => {}
            Err(violation) => prop_assert!(matches!(violation.status(), 400 | 431)),
        }
        // Splitting a space into the request line always breaks it.
        let broken = format!("GE T /{line} HTTP/1.1\r\n\r\n");
        prop_assert!(matches!(
            oneshot(broken.as_bytes()),
            Err(HttpViolation::BadRequest(_))
        ));
    }
}
