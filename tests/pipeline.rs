//! End-to-end integration test of the full pipeline the paper describes in
//! Section III: generate → serialize as NVD feeds → parse → normalize →
//! ingest into the relational store → classify → analyze.

use classify::{ClassificationReport, Classifier};
use datagen::CalibratedGenerator;
use nvd_feed::{FeedReader, FeedWriter};
use nvd_model::{OsDistribution, OsSet};
use osdiv_core::{PairwiseAnalysis, ServerProfile, Study, StudyDataset};

#[test]
fn feed_roundtrip_preserves_the_analysis_results() {
    let dataset = CalibratedGenerator::new(77)
        .without_invalid_entries()
        .generate();

    // Direct ingestion.
    let direct = Study::from_entries(dataset.entries());

    // Ingestion through the XML feed format.
    let xml = FeedWriter::new()
        .write_to_string(dataset.entries())
        .unwrap();
    let parsed = FeedReader::new().strict().read_from_str(&xml).unwrap();
    let roundtripped = Study::from_entries(&parsed);

    assert_eq!(
        direct.store().vulnerability_count(),
        roundtripped.store().vulnerability_count()
    );
    // The pairwise counts are insensitive to the serialization except for
    // the OS-part classification, which travels outside the feed format (the
    // real NVD does not carry it either); compare the Fat Server counts.
    let direct_pairs = direct.get::<PairwiseAnalysis>().unwrap();
    let roundtrip_pairs = roundtripped.get::<PairwiseAnalysis>().unwrap();
    for (a, b) in [
        (OsDistribution::OpenBsd, OsDistribution::NetBsd),
        (OsDistribution::Debian, OsDistribution::RedHat),
        (OsDistribution::Windows2000, OsDistribution::Windows2003),
    ] {
        assert_eq!(
            direct_pairs.pair(a, b).unwrap().v_ab.0,
            roundtrip_pairs.pair(a, b).unwrap().v_ab.0,
            "pair {a}-{b}"
        );
    }
}

#[test]
fn duplicated_feed_entries_are_merged_not_double_counted() {
    let dataset = CalibratedGenerator::new(78)
        .without_invalid_entries()
        .generate();
    // Simulate the same entries appearing in two yearly feeds; ingestion
    // merges them by CVE identifier.
    let mut duplicated = dataset.entries().to_vec();
    duplicated.extend(dataset.entries().iter().cloned());
    let study = StudyDataset::from_entries(&duplicated);
    assert_eq!(study.store().vulnerability_count(), dataset.entries().len());
}

#[test]
fn classifier_recovers_most_ground_truth_classes() {
    let dataset = CalibratedGenerator::new(79)
        .without_invalid_entries()
        .generate();
    let classifier = Classifier::with_default_rules();
    let pairs: Vec<_> = dataset
        .entries()
        .iter()
        .filter_map(|entry| {
            // The named multi-OS vulnerabilities have hand-written summaries;
            // they go through the same path as everything else.
            let truth = entry.part()?;
            Some((truth, classifier.classify_entry(entry).part))
        })
        .collect();
    assert!(pairs.len() > 1500);
    let report = ClassificationReport::from_pairs(pairs);
    assert!(
        report.accuracy() > 0.85,
        "classification accuracy {:.3} too low",
        report.accuracy()
    );
    assert!(
        report.macro_f1() > 0.75,
        "macro F1 {:.3} too low",
        report.macro_f1()
    );
}

#[test]
fn classification_via_store_matches_direct_classification() {
    let dataset = CalibratedGenerator::new(80)
        .without_invalid_entries()
        .generate();
    // Re-ingest through the feed (which drops the ground-truth class), then
    // classify inside the store.
    let xml = FeedWriter::new()
        .write_to_string(dataset.entries())
        .unwrap();
    let parsed = FeedReader::new().strict().read_from_str(&xml).unwrap();
    let mut study = StudyDataset::from_entries(&parsed);
    let classified = study.classify_unlabelled(&Classifier::with_default_rules());
    assert_eq!(classified, parsed.len());
    // Every row now has a class, so the Thin Server filter is meaningful.
    let all = study.count_for_os(OsDistribution::Windows2000, ServerProfile::FatServer);
    let thin = study.count_for_os(OsDistribution::Windows2000, ServerProfile::ThinServer);
    assert!(thin < all);
}

#[test]
fn filters_are_consistent_across_the_public_api() {
    let dataset = CalibratedGenerator::new(81).generate();
    let study = StudyDataset::from_entries(dataset.entries());
    for os in OsDistribution::ALL {
        let single = OsSet::singleton(os);
        let fat = study.count_common(single, ServerProfile::FatServer);
        let thin = study.count_common(single, ServerProfile::ThinServer);
        let isolated = study.count_common(single, ServerProfile::IsolatedThinServer);
        assert!(fat >= thin, "{os}");
        assert!(thin >= isolated, "{os}");
        assert_eq!(fat, study.count_for_os(os, ServerProfile::FatServer));
    }
}
