//! Exactness and concurrency suite for [`osdiv_core::obs::LatencyHistogram`]:
//! every `le` line of the Prometheus series must count exactly the samples
//! at or below its bound, against a brute-force count over the sample;
//! the bucket the series places each exact percentile in must hold it;
//! `+Inf` and `_count` must equal the sample size and `_sum` the exact
//! total; and concurrent recording must lose nothing versus sequential
//! recording.

use std::sync::Arc;
use std::thread;

use osdiv_core::obs::{LatencyHistogram, PROMETHEUS_BOUNDS_US};
use proptest::prelude::*;

/// Random samples reach twice the last bound (120 s), so the overflow
/// that only `+Inf` counts is exercised too.
const MAX_SAMPLE_US: u64 = 120_000_000;

/// A microsecond quantity as the exposition prints it: decimal seconds
/// with trailing fractional zeros trimmed.
fn seconds(us: u64) -> String {
    let (whole, frac) = (us / 1_000_000, us % 1_000_000);
    if frac == 0 {
        whole.to_string()
    } else {
        format!("{whole}.{frac:06}")
            .trim_end_matches('0')
            .to_string()
    }
}

/// One rendered unlabelled series `h`: its `(le, cumulative)` bucket
/// lines in order, its `_sum` text and its `_count`.
struct Rendered {
    buckets: Vec<(String, u64)>,
    sum: String,
    count: u64,
}

fn render(hist: &LatencyHistogram) -> Rendered {
    let mut out = String::new();
    hist.snapshot().render_prometheus("h", "", &mut out);
    let mut rendered = Rendered {
        buckets: Vec::new(),
        sum: String::new(),
        count: 0,
    };
    for line in out.lines() {
        if let Some(rest) = line.strip_prefix("h_bucket{le=\"") {
            let (le, value) = rest.split_once("\"} ").expect("bucket line shape");
            rendered
                .buckets
                .push((le.to_string(), value.parse().expect("bucket count")));
        } else if let Some(rest) = line.strip_prefix("h_sum ") {
            rendered.sum = rest.to_string();
        } else if let Some(rest) = line.strip_prefix("h_count ") {
            rendered.count = rest.parse().expect("count");
        }
    }
    rendered
}

/// A sample drawn uniformly up to 120 s, or one microsecond either side
/// of a bound, or a bound itself: the values an off-by-one at a bucket
/// edge would misplace.
fn sample() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..=MAX_SAMPLE_US,
        (0usize..PROMETHEUS_BOUNDS_US.len(), 0u64..3)
            .prop_map(|(i, offset)| PROMETHEUS_BOUNDS_US[i] + offset - 1),
    ]
}

/// The exact `q`-percentile of a sorted sample: the value at rank
/// `ceil(q * n)` (1-based), clamped to the sample.
fn exact_quantile(sorted: &[u64], q: f64) -> (usize, u64) {
    assert!(!sorted.is_empty());
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    let rank = rank.clamp(1, sorted.len());
    (rank, sorted[rank - 1])
}

proptest! {
    #[test]
    fn quantiles_track_exact_percentiles(
        values in proptest::collection::vec(sample(), 1..300),
        quantile_permille in proptest::collection::vec(0u64..=1000, 1..8),
    ) {
        let mut values = values;
        let hist = LatencyHistogram::new();
        for &v in &values {
            hist.record_us(v);
        }
        values.sort_unstable();
        let rendered = render(&hist);
        for &permille in &quantile_permille {
            let q = permille as f64 / 1000.0;
            let (rank, exact) = exact_quantile(&values, q);
            // The bucket a Prometheus `histogram_quantile` interpolates in
            // is the first line whose cumulative count reaches the rank; it
            // must hold the exact percentile: at or below its own bound and
            // above the bound before it.
            let slot = rendered
                .buckets
                .iter()
                .position(|&(_, cumulative)| cumulative >= rank as u64)
                .expect("+Inf counts every sample");
            let at_or_below_upper = PROMETHEUS_BOUNDS_US
                .get(slot)
                .is_none_or(|&upper| exact <= upper);
            let above_lower = slot == 0 || exact > PROMETHEUS_BOUNDS_US[slot - 1];
            prop_assert!(
                at_or_below_upper && above_lower,
                "q={} exact={} le={}",
                q,
                exact,
                &rendered.buckets[slot].0
            );
        }
    }

    #[test]
    fn prometheus_series_is_cumulative_and_consistent(
        values in proptest::collection::vec(sample(), 0..300),
    ) {
        let hist = LatencyHistogram::new();
        for &v in &values {
            hist.record_us(v);
        }
        let rendered = render(&hist);
        let n = values.len() as u64;
        // One line per bound, each counting exactly the samples at or
        // below it, then `+Inf` and `_count` counting them all.
        prop_assert_eq!(rendered.buckets.len(), PROMETHEUS_BOUNDS_US.len() + 1);
        for (&bound, (le, cumulative)) in PROMETHEUS_BOUNDS_US.iter().zip(&rendered.buckets) {
            let at_or_below = values.iter().filter(|&&v| v <= bound).count() as u64;
            prop_assert_eq!(le, &seconds(bound));
            prop_assert_eq!(*cumulative, at_or_below, "le={}", le);
        }
        prop_assert_eq!(rendered.buckets.last(), Some(&("+Inf".to_string(), n)));
        prop_assert_eq!(rendered.count, n);
        let sum: u64 = values.iter().sum();
        prop_assert_eq!(hist.snapshot().sum_us(), sum);
        prop_assert_eq!(rendered.sum, seconds(sum));
    }
}

#[test]
fn every_bound_counts_under_its_own_le() {
    // A sample equal to a bound belongs to that bound's `le` line and to
    // none below it; one microsecond more belongs to the next line.
    let mut misplaced = Vec::new();
    for (i, &bound) in PROMETHEUS_BOUNDS_US.iter().enumerate() {
        for (value, own) in [(bound, i), (bound + 1, i + 1)] {
            let hist = LatencyHistogram::new();
            hist.record_us(value);
            let counts: Vec<u64> = render(&hist).buckets.into_iter().map(|(_, c)| c).collect();
            let first = counts.iter().position(|&c| c == 1);
            if first != Some(own) {
                misplaced.push((value, first));
            }
        }
    }
    assert!(
        misplaced.is_empty(),
        "{} of {} samples land under the wrong le (value, first le index counting it): {misplaced:?}",
        misplaced.len(),
        2 * PROMETHEUS_BOUNDS_US.len()
    );
}

#[test]
fn concurrent_recording_equals_sequential() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 5_000;

    let shared = Arc::new(LatencyHistogram::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let hist = Arc::clone(&shared);
            thread::spawn(move || {
                // A deterministic per-thread value stream spanning every
                // bucket, overflow included.
                for i in 0..PER_THREAD {
                    hist.record_us((t * PER_THREAD + i) * 977 % MAX_SAMPLE_US);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }

    let sequential = LatencyHistogram::new();
    for t in 0..THREADS {
        for i in 0..PER_THREAD {
            sequential.record_us((t * PER_THREAD + i) * 977 % MAX_SAMPLE_US);
        }
    }

    let concurrent_snap = shared.snapshot();
    let sequential_snap = sequential.snapshot();
    assert_eq!(concurrent_snap.total(), THREADS * PER_THREAD);
    assert_eq!(concurrent_snap.total(), sequential_snap.total());
    assert_eq!(concurrent_snap.sum_us(), sequential_snap.sum_us());
    let mut concurrent_out = String::new();
    let mut sequential_out = String::new();
    concurrent_snap.render_prometheus("h", "", &mut concurrent_out);
    sequential_snap.render_prometheus("h", "", &mut sequential_out);
    assert_eq!(concurrent_out, sequential_out);
}

#[test]
fn recording_takes_shared_references_only() {
    // The hot path is `&self` over relaxed atomics: this compiles exactly
    // because no lock or &mut is involved, and a pre-sized counter array
    // means no allocation either (the assertion is the signature itself).
    let hist = LatencyHistogram::new();
    let borrow_a = &hist;
    let borrow_b = &hist;
    borrow_a.record_us(10);
    borrow_b.record_us(20);
    assert_eq!(hist.snapshot().total(), 2);
}
