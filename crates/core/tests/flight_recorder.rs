//! Integration tests for the span-tracing flight recorder: wrap-around
//! retention, concurrent multi-writer integrity, parent/child nesting
//! reconstruction, the `Study::run_all` span tree, and the Chrome-trace
//! dump format.

use std::thread;

use datagen::CalibratedGenerator;
use osdiv_core::obs::{self, LABEL_BYTES};
use osdiv_core::{registry, FlightRecorder, SpanKind, SpanRecord, Study};

/// A record whose payload fields all derive from its id, so a torn write
/// (fields from two different writers in one slot) is detectable.
fn coherent_record(id: u64) -> SpanRecord {
    SpanRecord {
        id,
        parent: id.wrapping_mul(3),
        trace: id.wrapping_mul(5),
        kind: SpanKind::Render,
        tid: id % 7,
        start_us: id.wrapping_mul(1_000),
        dur_us: id,
        label: [0; LABEL_BYTES],
    }
}

fn assert_coherent(record: &SpanRecord) {
    let id = record.id;
    assert_eq!(record.parent, id.wrapping_mul(3), "torn parent in slot");
    assert_eq!(record.trace, id.wrapping_mul(5), "torn trace in slot");
    assert_eq!(
        record.start_us,
        id.wrapping_mul(1_000),
        "torn start in slot"
    );
    assert_eq!(record.dur_us, id, "torn duration in slot");
}

#[test]
fn wrap_around_keeps_the_newest_records_and_counts_drops_exactly() {
    let recorder = FlightRecorder::with_capacity(16);
    assert_eq!(recorder.capacity(), 16);
    for _ in 0..100 {
        let id = recorder.next_span_id();
        recorder.record(coherent_record(id));
    }
    assert_eq!(recorder.recorded_total(), 100);
    assert_eq!(recorder.dropped(), 84, "dropped = recorded - capacity");
    assert_eq!(recorder.contended(), 0, "a single writer never contends");

    let snapshot = recorder.snapshot();
    assert_eq!(snapshot.total, 100);
    assert_eq!(snapshot.dropped, 84);
    let ids: Vec<u64> = snapshot.records.iter().map(|r| r.id).collect();
    let expected: Vec<u64> = (85..=100).collect();
    assert_eq!(
        ids, expected,
        "the ring retains exactly the newest 16 spans"
    );
    for record in &snapshot.records {
        assert_coherent(record);
    }
}

#[test]
fn concurrent_writers_never_tear_records_and_account_for_every_claim() {
    const WRITERS: usize = 8;
    const PER_WRITER: u64 = 200;
    let recorder = FlightRecorder::with_capacity(32);
    thread::scope(|scope| {
        for _ in 0..WRITERS {
            scope.spawn(|| {
                for _ in 0..PER_WRITER {
                    let id = recorder.next_span_id();
                    recorder.record(coherent_record(id));
                }
            });
        }
    });
    let total = WRITERS as u64 * PER_WRITER;
    assert_eq!(
        recorder.recorded_total(),
        total,
        "every write claims exactly one slot"
    );
    assert_eq!(recorder.dropped(), total - 32);

    let snapshot = recorder.snapshot();
    assert!(
        snapshot.records.len() <= 32,
        "a snapshot never exceeds the ring capacity"
    );
    assert!(
        !snapshot.records.is_empty(),
        "the ring retains records after the storm"
    );
    for record in &snapshot.records {
        assert_coherent(record);
    }
    // The snapshot is ordered for direct Chrome-trace rendering.
    for pair in snapshot.records.windows(2) {
        assert!(
            (pair[0].start_us, pair[0].id) <= (pair[1].start_us, pair[1].id),
            "snapshot records sort by (start, id)"
        );
    }
    // Contended writes are skipped, not torn — they are counted instead.
    assert_eq!(
        snapshot.contended,
        recorder.contended(),
        "the snapshot reports the contention counter"
    );
}

#[test]
fn nested_spans_reconstruct_their_parent_chain_from_the_dump() {
    // The free functions feed the process-global ring; unique labels keep
    // this test independent of whatever else the process recorded.
    let parent = obs::span(SpanKind::Analysis, "fr_nest_outer");
    let parent_id = parent.id();
    let child = obs::span(SpanKind::IndexBuild, "fr_nest_inner");
    let child_id = child.id();
    drop(child);
    drop(parent);

    let snapshot = FlightRecorder::global().snapshot();
    let find = |id: u64| {
        snapshot
            .records
            .iter()
            .find(|r| r.id == id)
            .unwrap_or_else(|| panic!("span {id} is in the dump"))
    };
    let inner = find(child_id);
    assert_eq!(inner.parent, parent_id, "the child links to its parent");
    assert_eq!(inner.label_str(), "fr_nest_inner");
    assert_eq!(inner.display_name(), "index_build:fr_nest_inner");
    let outer = find(parent_id);
    assert_eq!(outer.parent, 0, "the outermost span is a root");
    assert!(
        outer.start_us <= inner.start_us,
        "the parent starts before the child"
    );
}

#[test]
fn run_all_nests_one_analysis_span_per_registry_entry_under_the_caller() {
    let dataset = CalibratedGenerator::new(1).generate();
    let study = Study::from_entries(dataset.entries());
    let boot = obs::span(SpanKind::Recovery, "fr_run_all_boot");
    let boot_id = boot.id();
    study.run_all().unwrap();
    drop(boot);

    let snapshot = FlightRecorder::global().snapshot();
    let children: Vec<&SpanRecord> = snapshot
        .records
        .iter()
        .filter(|r| r.parent == boot_id)
        .collect();
    assert!(
        children.iter().all(|r| r.kind == SpanKind::Analysis),
        "only analysis spans nest directly under the caller's span"
    );
    let labels: Vec<String> = children.iter().map(|r| r.label_str()).collect();
    let expected: Vec<String> = registry()
        .iter()
        .map(|entry| entry.id.name().to_string())
        .collect();
    assert_eq!(labels, expected, "one span per entry, in registry order");
}

#[test]
fn chrome_trace_dump_renders_spans_with_request_joins() {
    let recorder = FlightRecorder::with_capacity(8);
    let trace_key = (0xabcd1234u64 << 32) | 0x11u64;
    let mut traced = coherent_record(recorder.next_span_id());
    traced.trace = trace_key;
    recorder.record(traced);
    let mut untraced = coherent_record(recorder.next_span_id());
    untraced.trace = 0;
    recorder.record(untraced);

    let json = recorder.snapshot().to_chrome_trace();
    assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    assert!(
        json.contains("\"traceEvents\":["),
        "trace-event array present"
    );
    assert!(json.contains("\"ph\":\"X\""), "complete-span phase events");
    assert!(
        json.contains(&format!(
            "\"request\":\"{}\"",
            obs::format_trace_id(trace_key)
        )),
        "traced spans carry the X-Request-Id join key"
    );
    assert!(
        json.contains("\"otherData\":{"),
        "ring accounting rides along in otherData"
    );
}
