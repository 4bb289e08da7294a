//! Complexity-guard tests: counter-instrumented work metrics asserted at
//! two scales, so an accidentally quadratic parse loop fails the suite
//! instead of shipping as a silent slowdown. The pinned regression class
//! is the quadratic entry-boundary rescan fixed in the parallel-parsing
//! PR: `quadratic_boundary_rescans_would_fail_this_harness` re-simulates
//! it and proves the same bound that the real scanner satisfies rejects
//! the quadratic one.
//!
//! Work counters, not wall clocks: timing is noisy under CI load, byte
//! counts are exact and deterministic.

use nvd_feed::FeedWriter;
use nvd_model::{CveId, OsDistribution, VulnerabilityEntry};
use osdiv_core::{FlightRecorder, SpanKind, SpanRecord};
use osdiv_registry::{FeedIngester, IngestBudget};
use osdiv_serve::http::ChunkedDecoder;

/// Linear-work bound shared by the real scanner assertions and the
/// quadratic re-simulation: scanning a feed pushed in small chunks may
/// examine each byte only a bounded number of times.
const SCAN_WORK_FACTOR: u64 = 6;

fn feed_xml(entries: u32) -> Vec<u8> {
    let entries: Vec<_> = (0..entries)
        .map(|i| {
            VulnerabilityEntry::builder(CveId::new(1998 + (i % 12) as u16, i + 1))
                .summary(format!(
                    "Privilege escalation number {i} through the local daemon"
                ))
                .affects_os(if i % 2 == 0 {
                    OsDistribution::Debian
                } else {
                    OsDistribution::OpenBsd
                })
                .build()
                .expect("builder input is valid")
        })
        .collect();
    FeedWriter::new()
        .write_to_string(&entries)
        .expect("writer output is valid")
        .into_bytes()
}

/// Pushes `xml` into a fresh ingester in `piece`-byte chunks and returns
/// the boundary scanner's work counter.
fn scan_work(xml: &[u8], piece: usize) -> u64 {
    let mut ingester = FeedIngester::new(IngestBudget::default());
    for chunk in xml.chunks(piece) {
        ingester.push(chunk).expect("valid feed ingests");
    }
    let work = ingester.scan_work();
    ingester.finish().expect("valid feed finishes");
    work
}

#[test]
fn chunked_decoding_work_is_linear_at_byte_granularity() {
    // Worst case for a rescanning decoder: the body arrives one byte at
    // a time. The work counter counts bytes examined, so any internal
    // re-examination shows up directly.
    fn wire_and_work(payload_bytes: usize) -> (u64, u64) {
        let mut wire = Vec::new();
        for chunk in vec![0x61u8; payload_bytes].chunks(16) {
            wire.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
            wire.extend_from_slice(chunk);
            wire.extend_from_slice(b"\r\n");
        }
        wire.extend_from_slice(b"0\r\n\r\n");
        let mut decoder = ChunkedDecoder::new();
        let mut sink = Vec::new();
        for byte in &wire {
            let consumed = decoder
                .decode(std::slice::from_ref(byte), &mut sink)
                .expect("well-formed chunked body");
            assert_eq!(consumed, 1);
        }
        assert!(decoder.is_done());
        assert_eq!(sink.len(), payload_bytes);
        (wire.len() as u64, decoder.work())
    }

    let (small_wire, small_work) = wire_and_work(2_000);
    let (large_wire, large_work) = wire_and_work(16_000);
    assert!(
        small_work <= 2 * small_wire && large_work <= 2 * large_wire,
        "decode work must stay linear in wire bytes: \
         {small_work}/{small_wire} and {large_work}/{large_wire}"
    );
    // Growth check: ~8x the input must cost ~8x the work, not ~64x.
    assert!(
        large_work * small_wire <= 2 * small_work * large_wire,
        "decode work grows superlinearly: {small_work}@{small_wire} -> {large_work}@{large_wire}"
    );
}

#[test]
fn feed_boundary_scan_work_is_linear_at_any_chunking() {
    let small = feed_xml(40);
    let large = feed_xml(240);
    for piece in [7, 64, 1024] {
        let small_work = scan_work(&small, piece);
        let large_work = scan_work(&large, piece);
        assert!(
            small_work <= SCAN_WORK_FACTOR * small.len() as u64,
            "scan work {small_work} superlinear in {} bytes (piece={piece})",
            small.len()
        );
        assert!(
            large_work <= SCAN_WORK_FACTOR * large.len() as u64,
            "scan work {large_work} superlinear in {} bytes (piece={piece})",
            large.len()
        );
        // Growth check at ~6x the feed size.
        assert!(
            large_work * (small.len() as u64) <= 2 * small_work * (large.len() as u64),
            "scan work grows superlinearly at piece={piece}: \
             {small_work}@{} -> {large_work}@{}",
            small.len(),
            large.len()
        );
    }
}

#[test]
fn quadratic_boundary_rescans_would_fail_this_harness() {
    // Re-simulation of the regression this harness exists to catch: a
    // boundary scanner that forgets its progress and rescans the whole
    // buffered entry prefix on every push (the pre-parallel-parsing bug).
    // Its work counter must violate the exact bound the real scanner
    // satisfies above — proving the bound has teeth.
    fn quadratic_scan_work(xml: &[u8], piece: usize) -> u64 {
        let mut work = 0u64;
        let mut buffered = 0usize;
        for chunk in xml.chunks(piece) {
            buffered += chunk.len();
            // No carried resume offset: every push walks the buffer from
            // its start. (The real scanner only walks the new bytes.)
            work += buffered as u64;
            // Crude entry-boundary bookkeeping: once a close tag is
            // plausible the buffer drains, like the real carver.
            if buffered > 400 {
                buffered = 0;
            }
        }
        work
    }

    let xml = feed_xml(240);
    let piece = 7;
    let real = scan_work(&xml, piece);
    let quadratic = quadratic_scan_work(&xml, piece);
    let bound = SCAN_WORK_FACTOR * xml.len() as u64;
    assert!(real <= bound, "the real scanner passes its own bound");
    assert!(
        quadratic > bound,
        "the quadratic rescan ({quadratic}) must exceed the linear bound ({bound}) \
         the suite enforces — otherwise this harness could not catch the regression"
    );
}

#[test]
fn span_dump_work_is_bounded_by_the_ring_not_the_span_history() {
    // `/v1/debug/spans` and `osdiv debug spans` must answer in O(ring
    // capacity): dumping after 100x more recorded spans costs exactly the
    // same slot walk, because the ring forgets everything it overwrote.
    fn dump_work(capacity: usize, spans: u64) -> u64 {
        let recorder = FlightRecorder::with_capacity(capacity);
        for _ in 0..spans {
            let id = recorder.next_span_id();
            recorder.record(SpanRecord {
                id,
                parent: 0,
                trace: 0,
                kind: SpanKind::Render,
                tid: 0,
                start_us: id,
                dur_us: 1,
                label: [0; osdiv_core::obs::LABEL_BYTES],
            });
        }
        let snapshot = recorder.snapshot();
        assert_eq!(snapshot.total, spans);
        snapshot.work
    }

    let capacity = 64;
    let few = dump_work(capacity, capacity as u64 * 2);
    let many = dump_work(capacity, capacity as u64 * 200);
    assert_eq!(
        few, many,
        "snapshot work must not grow with the number of spans ever recorded"
    );
    assert_eq!(
        few, capacity as u64,
        "a snapshot examines each ring slot exactly once"
    );
}
