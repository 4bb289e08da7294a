//! Equivalence suite for the one-pass pair counters. For random feeds,
//! the per-release analysis (Table VI) must equal a per-pair scan of the
//! store over random release lists — a release listed twice included —
//! under every profile, and the pairwise Table IV breakdown must equal a
//! per-pair scan over random OS lists. The scans below are the
//! specification; the analyses are the implementations checked against it.

use std::cmp::Reverse;

use datagen::CalibratedGenerator;
use nvd_model::{
    CveId, CvssV2, Date, OsDistribution, OsPart, OsRelease, OsSet, Validity, VulnerabilityEntry,
};
use osdiv_core::{
    PairwiseAnalysis, PairwiseConfig, PartBreakdownRow, Period, ReleaseAnalysis, ReleaseConfig,
    ReleasePairRow, ServerProfile, Study, StudyDataset,
};
use proptest::prelude::*;
use vulnstore::VulnId;

/// Every version string a studied release carries, plus one no release
/// has. Drawn for any OS, so a tag may name another distribution's release
/// ("4.0" is a Debian, a RedHat and a NetBSD version).
const VERSIONS: [&str; 13] = [
    "2.1", "3.0", "4.0", "6.2", "5.0", "1.6", "2.0", "3.0.1", "4.10", "5.04", "8.04", "9.04", "9.9",
];

/// Every studied release (the four distributions with per-release data).
fn all_releases() -> Vec<OsRelease> {
    OsDistribution::ALL
        .iter()
        .flat_map(|os| os.releases().iter().copied())
        .collect()
}

/// One randomly drawn vulnerability. Each affected OS carries version
/// tags (indexes into [`VERSIONS`]); no tags means "all versions", an
/// empty version list. CVE numbers are drawn from a small range, so some
/// entries merge into an earlier row of the same year.
#[derive(Debug, Clone)]
struct RawEntry {
    year: u16,
    number: u32,
    oses: Vec<(usize, Vec<usize>)>,
    part: Option<OsPart>,
    remote: bool,
    valid: bool,
}

fn raw_entry() -> impl Strategy<Value = RawEntry> {
    let os = (
        0usize..OsDistribution::COUNT,
        proptest::collection::vec(0usize..VERSIONS.len(), 0..3),
    );
    (
        (1990u16..2015, 1u32..4),
        proptest::collection::vec(os, 0..5),
        prop_oneof![
            Just(None),
            Just(Some(OsPart::Driver)),
            Just(Some(OsPart::Kernel)),
            Just(Some(OsPart::SystemSoftware)),
            Just(Some(OsPart::Application)),
        ],
        (0u8..2).prop_map(|b| b == 1),
        (0u8..4).prop_map(|b| b != 0),
    )
        .prop_map(|((year, number), oses, part, remote, valid)| RawEntry {
            year,
            number,
            oses,
            part,
            remote,
            valid,
        })
}

fn study_from(raws: &[RawEntry]) -> Study {
    let entries: Vec<VulnerabilityEntry> = raws
        .iter()
        .map(|raw| {
            let mut builder = VulnerabilityEntry::builder(CveId::new(raw.year, raw.number))
                .published(Date::new(raw.year, 6, 1).unwrap())
                .cvss(if raw.remote {
                    CvssV2::typical_remote()
                } else {
                    CvssV2::typical_local()
                });
            for (os, tags) in &raw.oses {
                let os = OsDistribution::ALL[*os];
                builder = builder.affects_os(os);
                for tag in tags {
                    builder = builder.affects_os_version(os, VERSIONS[*tag]);
                }
            }
            if let Some(part) = raw.part {
                builder = builder.part(part);
            }
            let mut entry = builder.build().unwrap();
            if !raw.valid {
                entry.set_validity(Validity::Unspecified);
            }
            entry
        })
        .collect();
    Study::from_entries(&entries)
}

/// Whether a vulnerability affects a release *with explicit version
/// information*: its `os_vuln` row for the release's distribution lists
/// the release's version. An empty list ("all versions") does not count.
fn affects_release_explicitly(dataset: &StudyDataset, id: VulnId, release: OsRelease) -> bool {
    dataset.store().os_vuln_rows_for(id).any(|row| {
        row.os == release.distribution()
            && !row.versions.is_empty()
            && row.versions.iter().any(|v| v == release.version())
    })
}

/// Table VI by definition: one scan of the store per release pair.
fn scan_release_pairs(
    dataset: &StudyDataset,
    releases: &[OsRelease],
    profile: ServerProfile,
) -> Vec<ReleasePairRow> {
    let mut rows = Vec::new();
    for (i, &a) in releases.iter().enumerate() {
        for &b in &releases[i + 1..] {
            let common = dataset
                .store()
                .rows()
                .filter(|row| {
                    dataset.retains(row, profile)
                        && affects_release_explicitly(dataset, row.id, a)
                        && affects_release_explicitly(dataset, row.id, b)
                })
                .count();
            rows.push(ReleasePairRow { a, b, common });
        }
    }
    rows
}

/// Table IV by definition: per pair, the Isolated Thin Server rows of the
/// whole period that affect both OSes, by part; pairs sharing none are
/// left out and the rest sorted by descending total (stable).
fn scan_part_breakdown(dataset: &StudyDataset, oses: &[OsDistribution]) -> Vec<PartBreakdownRow> {
    let mut rows = Vec::new();
    for (i, &a) in oses.iter().enumerate() {
        for &b in &oses[i + 1..] {
            let shared = |part: OsPart| {
                dataset
                    .store()
                    .rows()
                    .filter(|row| {
                        dataset.retains(row, ServerProfile::IsolatedThinServer)
                            && Period::Whole.contains(row.year())
                            && row.part == Some(part)
                            && OsSet::pair(a, b).is_subset_of(&row.os_set)
                    })
                    .count()
            };
            let row = PartBreakdownRow {
                a,
                b,
                driver: shared(OsPart::Driver),
                kernel: shared(OsPart::Kernel),
                system_software: shared(OsPart::SystemSoftware),
            };
            if row.total() > 0 {
                rows.push(row);
            }
        }
    }
    rows.sort_by_key(|row| Reverse(row.total()));
    rows
}

fn assert_releases_match(study: &Study, releases: &[OsRelease]) {
    for profile in ServerProfile::ALL {
        let config = ReleaseConfig {
            releases: releases.to_vec(),
            profile,
        };
        let analysis = study.get_with::<ReleaseAnalysis>(&config).unwrap();
        assert_eq!(analysis.profile(), profile);
        assert_eq!(
            analysis.rows(),
            scan_release_pairs(study.dataset(), releases, profile),
            "{profile:?} over {releases:?}"
        );
    }
}

fn assert_breakdown_matches(study: &Study, oses: &[OsDistribution]) {
    let config = PairwiseConfig {
        oses: oses.to_vec(),
    };
    let analysis = study.get_with::<PairwiseAnalysis>(&config).unwrap();
    assert_eq!(
        analysis.part_breakdown(),
        scan_part_breakdown(study.dataset(), oses),
        "{oses:?}"
    );
}

proptest! {
    #[test]
    fn one_pass_releases_match_the_per_pair_scan(
        raws in proptest::collection::vec(raw_entry(), 0..50),
        picks in proptest::collection::vec(0usize..14, 0..9),
    ) {
        let study = study_from(&raws);
        let pool = all_releases();
        // Drawn with replacement: repeated releases are common.
        let releases: Vec<OsRelease> = picks.iter().map(|&i| pool[i % pool.len()]).collect();
        assert_releases_match(&study, &releases);
        assert_releases_match(&study, &pool);
    }

    #[test]
    fn one_pass_part_breakdown_matches_the_per_pair_scan(
        raws in proptest::collection::vec(raw_entry(), 0..50),
        keys in proptest::collection::vec(0u32..1000, OsDistribution::COUNT),
        take in 0usize..=OsDistribution::COUNT,
    ) {
        let study = study_from(&raws);
        // A random order of a random subset of the OSes.
        let mut oses = OsDistribution::ALL.to_vec();
        oses.sort_by_key(|os| keys[os.index()]);
        oses.truncate(take);
        assert_breakdown_matches(&study, &oses);
    }
}

#[test]
fn the_calibrated_study_matches_the_per_pair_scans() {
    let study = Study::from_entries(CalibratedGenerator::new(11).generate().entries());
    let pool = all_releases();
    let doubled: Vec<OsRelease> = pool.iter().chain(&pool[..4]).copied().collect();
    assert_releases_match(&study, &ReleaseConfig::default().releases);
    assert_releases_match(&study, &doubled);
    assert_breakdown_matches(&study, &PairwiseConfig::default().oses);
    let mut reversed = PairwiseConfig::default().oses;
    reversed.reverse();
    assert_breakdown_matches(&study, &reversed);
}
