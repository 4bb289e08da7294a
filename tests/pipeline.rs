//! End-to-end integration test of the full pipeline the paper describes in
//! Section III: generate → serialize as NVD feeds → parse (CPE decoding and
//! OS clustering) → ingest into the relational store → classify → analyze.

use classify::{ClassificationReport, Classifier};
use datagen::CalibratedGenerator;
use nvd_feed::{FeedReader, FeedWriter};
use nvd_model::{OsDistribution, OsSet, VulnerabilityEntry};
use osdiv_core::{PairwiseAnalysis, ServerProfile, Study, StudyDataset};

/// The valid entries of the calibrated dataset generated from `seed`.
fn valid_entries(seed: u64) -> Vec<VulnerabilityEntry> {
    let dataset = CalibratedGenerator::new(seed).generate();
    dataset.valid_entries().cloned().collect()
}

/// `entries` written as an NVD feed and read back. Reading skips an entry
/// that does not validate and drops a product that is not a CPE URI, so
/// the round trip must skip nothing and keep every affected OS set.
fn feed_roundtrip(entries: &[VulnerabilityEntry]) -> Vec<VulnerabilityEntry> {
    let xml = FeedWriter::new().write_to_string(entries).unwrap();
    let mut reader = FeedReader::new();
    let parsed = reader.read_from_str(&xml).unwrap();
    assert_eq!(reader.skipped(), 0);
    assert_eq!(parsed.len(), entries.len());
    for (original, roundtripped) in entries.iter().zip(&parsed) {
        assert_eq!(original.id(), roundtripped.id());
        assert_eq!(
            original.affected_os_set(),
            roundtripped.affected_os_set(),
            "{}",
            original.id()
        );
    }
    parsed
}

#[test]
fn feed_roundtrip_preserves_the_analysis_results() {
    let entries = valid_entries(77);

    // Direct ingestion.
    let direct = Study::from_entries(&entries);

    // Ingestion through the XML feed format.
    let parsed = feed_roundtrip(&entries);
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
    let entries = valid_entries(78);
    // Simulate the same entries appearing in two yearly feeds; ingestion
    // merges them by CVE identifier.
    let mut duplicated = entries.clone();
    duplicated.extend(entries.iter().cloned());
    let study = StudyDataset::from_entries(&duplicated);
    assert_eq!(study.store().vulnerability_count(), entries.len());
}

#[test]
fn classifier_recovers_most_ground_truth_classes() {
    let classifier = Classifier::with_default_rules();
    let pairs: Vec<_> = valid_entries(79)
        .iter()
        .filter_map(|entry| {
            // The named multi-OS vulnerabilities have hand-written summaries;
            // they go through the same path as everything else.
            let truth = entry.part()?;
            Some((truth, classifier.classify_summary(entry.summary())))
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
    // Re-ingest through the feed (which drops the ground-truth class), then
    // classify inside the store.
    let parsed = feed_roundtrip(&valid_entries(80));
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
