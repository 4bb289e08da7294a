//! Session benches: the cost of warming a full `Study` cache (one analysis
//! after another, as `Study::run_all` does) and rendering the report, the
//! marginal cost of a memoized lookup, and the zeta-transform `CountIndex`:
//! its one-time build cost and the k-way analysis running against it vs
//! against naive full-store scans (the pre-index implementation, preserved
//! below as the baseline). The measured numbers are recorded per PR in
//! CHANGES.md.

use criterion::{criterion_group, criterion_main, Criterion};
use datagen::CalibratedGenerator;
use nvd_model::{OsDistribution, OsSet};
use osdiv_core::{
    registry, CountIndex, Format, KWayAnalysis, KWayConfig, PairwiseAnalysis, Period,
    ServerProfile, Study, StudyDataset,
};

fn calibrated_dataset() -> StudyDataset {
    let dataset = CalibratedGenerator::new(2011).generate();
    StudyDataset::from_entries(dataset.entries())
}

fn bench_full_report(c: &mut Criterion) {
    let dataset = calibrated_dataset();
    c.bench_function("study/full_report_sequential", |b| {
        b.iter(|| {
            let study = Study::new(dataset.clone());
            for entry in registry() {
                (entry.prime)(&study).unwrap();
            }
            study.report(Format::Text).unwrap()
        })
    });
}

fn bench_memoized_lookup(c: &mut Criterion) {
    let dataset = calibrated_dataset();
    let study = Study::new(dataset);
    study.run_all().unwrap();
    c.bench_function("study/memoized_get_pairwise", |b| {
        b.iter(|| study.get::<PairwiseAnalysis>().unwrap())
    });
}

/// The pre-index k-way analysis: every count is a full scan of the store
/// (the PR 2 implementation, kept here as the comparison baseline).
fn naive_kway(study: &StudyDataset, profile: ServerProfile, max_k: usize) -> usize {
    let universe = OsSet::all();
    let mut checksum = 0usize;
    for k in 2..=max_k {
        checksum += study
            .store()
            .rows()
            .filter(|row| study.retains(row, profile) && row.os_set.len() >= k)
            .count();
        if k <= OsDistribution::COUNT {
            for group in universe.subsets_of_size(k) {
                checksum += study
                    .store()
                    .rows()
                    .filter(|row| {
                        study.retains(row, profile)
                            && Period::Whole.contains(row.year())
                            && group.is_subset_of(&row.os_set)
                    })
                    .count();
            }
        }
    }
    checksum
}

fn bench_count_index(c: &mut Criterion) {
    let dataset = calibrated_dataset();

    // One-time build cost of the zeta-transform index (histogram pass +
    // one transform per profile and period).
    c.bench_function("study/count_index_build", |b| {
        b.iter(|| CountIndex::build(&dataset))
    });

    // The Section IV-B enumeration against the warm index vs against naive
    // full-store scans — the acceptance datapoint of the index PR.
    let study = Study::new(dataset.clone());
    study.dataset().count_index(); // warm
    let config = KWayConfig::default();
    c.bench_function("study/kway_indexed", |b| {
        b.iter(|| study.get_with::<KWayAnalysis>(&config).unwrap())
    });
    c.bench_function("study/kway_naive", |b| {
        b.iter(|| naive_kway(study.dataset(), config.profile, config.max_k))
    });
}

criterion_group!(
    name = study;
    config = Criterion::default().sample_size(10);
    targets = bench_full_report, bench_memoized_lookup, bench_count_index
);
criterion_main!(study);
