//! Criterion benches for the paper's experiments (E1–E11): each bench
//! measures the cost of regenerating one table or figure from the calibrated
//! dataset, plus the cost of the ingestion and classification pipeline that
//! feeds them.

use bft_sim::{ReplicaSet, SimulationConfig, Simulator};
use classify::Classifier;
use criterion::{criterion_group, criterion_main, Criterion};
use datagen::CalibratedGenerator;
use nvd_model::OsDistribution;
use osdiv_core::{
    ClassDistribution, KWayAnalysis, KWayConfig, PairwiseAnalysis, ReleaseAnalysis,
    ReplicaSelection, ServerProfile, SplitMatrix, Study, StudyDataset, TemporalAnalysis,
    ValidityDistribution,
};

fn calibrated_study() -> Study {
    let dataset = CalibratedGenerator::new(2011).generate();
    Study::from_entries(dataset.entries())
}

fn bench_pipeline(c: &mut Criterion) {
    let dataset = CalibratedGenerator::new(2011).generate();
    c.bench_function("pipeline/generate_calibrated_dataset", |b| {
        b.iter(|| CalibratedGenerator::new(2011).generate())
    });
    c.bench_function("pipeline/ingest_into_store", |b| {
        b.iter(|| StudyDataset::from_entries(dataset.entries()))
    });
    c.bench_function("pipeline/classify_all_summaries", |b| {
        let classifier = Classifier::with_default_rules();
        b.iter(|| {
            dataset
                .entries()
                .iter()
                .filter(|entry| {
                    classifier.classify_summary(entry.summary()) == nvd_model::OsPart::Kernel
                })
                .count()
        })
    });
    c.bench_function("pipeline/feed_write_and_parse", |b| {
        let entries: Vec<_> = dataset.entries().to_vec();
        b.iter(|| {
            let xml = nvd_feed::FeedWriter::new()
                .write_to_string(&entries)
                .unwrap();
            nvd_feed::FeedReader::new()
                .read_from_str(&xml)
                .unwrap()
                .len()
        })
    });
}

fn bench_tables(c: &mut Criterion) {
    let study = calibrated_study();
    c.bench_function("table1/validity_distribution", |b| {
        b.iter(|| study.get_with::<ValidityDistribution>(&()).unwrap())
    });
    c.bench_function("table2/class_distribution", |b| {
        b.iter(|| study.get_with::<ClassDistribution>(&()).unwrap())
    });
    c.bench_function("table3_table4/pairwise_analysis", |b| {
        b.iter(|| {
            study
                .get_with::<PairwiseAnalysis>(&Default::default())
                .unwrap()
        })
    });
    c.bench_function("table5/history_observed_split", |b| {
        b.iter(|| study.get_with::<SplitMatrix>(&Default::default()).unwrap())
    });
    c.bench_function("table6/release_analysis", |b| {
        b.iter(|| {
            study
                .get_with::<ReleaseAnalysis>(&Default::default())
                .unwrap()
        })
    });
}

fn bench_figures(c: &mut Criterion) {
    let study = calibrated_study();
    c.bench_function("figure2/temporal_analysis", |b| {
        b.iter(|| {
            study
                .get_with::<TemporalAnalysis>(&Default::default())
                .unwrap()
        })
    });
    c.bench_function("figure3/replica_selection", |b| {
        let selection = ReplicaSelection::new(&study);
        b.iter(|| selection.figure3())
    });
    c.bench_function("figure3/best_four_os_groups", |b| {
        let selection = ReplicaSelection::new(&study);
        b.iter(|| selection.best_groups(4, 3))
    });
    c.bench_function("section4b/kway_analysis", |b| {
        b.iter(|| {
            study
                .get_with::<KWayAnalysis>(&KWayConfig {
                    profile: ServerProfile::FatServer,
                    max_k: 9,
                })
                .unwrap()
        })
    });
}

fn bench_simulation(c: &mut Criterion) {
    let study = calibrated_study();
    let simulator = Simulator::new(&study, SimulationConfig::default().with_trials(100));
    let homogeneous = ReplicaSet::homogeneous(OsDistribution::Debian, 4);
    let diverse = ReplicaSet::new(vec![
        OsDistribution::Windows2003,
        OsDistribution::Solaris,
        OsDistribution::Debian,
        OsDistribution::OpenBsd,
    ]);
    c.bench_function("survival/homogeneous_debian_x4", |b| {
        b.iter(|| simulator.run(&homogeneous))
    });
    c.bench_function("survival/diverse_set1", |b| {
        b.iter(|| simulator.run(&diverse))
    });
}

criterion_group!(
    name = experiments;
    config = Criterion::default().sample_size(20);
    targets = bench_pipeline, bench_tables, bench_figures, bench_simulation
);
criterion_main!(experiments);
