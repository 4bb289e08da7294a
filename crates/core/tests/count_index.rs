//! Equivalence suite for the zeta-transform [`CountIndex`]: for random
//! datasets, the indexed answers of every counting query must equal a
//! naive scan of the store — common and shared counts for random masks ×
//! **all** profiles × the three periods (shared counts go through the
//! index's inclusion–exclusion), the popcount totals, and the Figure 2
//! histograms for random year axes, whose boundary buckets absorb the
//! years outside the axis.
//!
//! [`CountIndex`]: osdiv_core::CountIndex

use osdiv_core::{Period, ServerProfile, Study, StudyDataset, TemporalAnalysis, TemporalConfig};

use nvd_model::{CveId, CvssV2, Date, OsDistribution, OsPart, OsSet, Validity, VulnerabilityEntry};
use proptest::prelude::*;
use vulnstore::VulnerabilityRow;

/// One randomly drawn vulnerability: year, affected mask, part, access
/// vector and validity.
#[derive(Debug, Clone)]
struct RawEntry {
    year: u16,
    mask: u16,
    part: Option<OsPart>,
    remote: bool,
    valid: bool,
}

fn raw_entry() -> impl Strategy<Value = RawEntry> {
    (
        1990u16..2015,
        0u16..(1 << 11),
        prop_oneof![
            Just(None),
            Just(Some(OsPart::Driver)),
            Just(Some(OsPart::Kernel)),
            Just(Some(OsPart::SystemSoftware)),
            Just(Some(OsPart::Application)),
        ],
        (0u8..2).prop_map(|b| b == 1),
        (0u8..2).prop_map(|b| b == 1),
    )
        .prop_map(|(year, mask, part, remote, valid)| RawEntry {
            year,
            mask,
            part,
            remote,
            valid,
        })
}

fn dataset_from(raws: &[RawEntry]) -> StudyDataset {
    let entries: Vec<VulnerabilityEntry> = raws
        .iter()
        .enumerate()
        .map(|(i, raw)| {
            let mut builder = VulnerabilityEntry::builder(CveId::new(raw.year, i as u32 + 1))
                .published(Date::new(raw.year, 6, 1).unwrap())
                .summary(format!("synthetic vulnerability {i}"))
                .affects_set(OsSet::from_bits(raw.mask))
                .cvss(if raw.remote {
                    CvssV2::typical_remote()
                } else {
                    CvssV2::typical_local()
                });
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
    StudyDataset::from_entries(&entries)
}

/// The reference implementation: a full scan of the store with the same
/// retention predicate the dataset applies.
fn scan_common(
    dataset: &StudyDataset,
    group: OsSet,
    profile: ServerProfile,
    first: u16,
    last: u16,
) -> usize {
    dataset
        .store()
        .rows()
        .filter(|row| {
            dataset.retains(row, profile)
                && (first..=last).contains(&row.year())
                && group.is_subset_of(&row.os_set)
        })
        .count()
}

fn scan_shared_within(
    dataset: &StudyDataset,
    group: OsSet,
    profile: ServerProfile,
    first: u16,
    last: u16,
) -> usize {
    let wanted = |row: &&VulnerabilityRow| {
        dataset.retains(row, profile) && (first..=last).contains(&row.year())
    };
    if group.len() <= 1 {
        return scan_common(dataset, group, profile, first, last);
    }
    dataset
        .store()
        .rows()
        .filter(wanted)
        .filter(|row| row.os_set.intersection(group).len() >= 2)
        .count()
}

fn scan_at_least(dataset: &StudyDataset, profile: ServerProfile, k: usize) -> usize {
    dataset
        .store()
        .rows()
        .filter(|row| dataset.retains(row, profile) && row.os_set.len() >= k)
        .count()
}

proptest! {
    #[test]
    fn indexed_period_queries_match_the_naive_scan(
        raws in proptest::collection::vec(raw_entry(), 0..60),
        group_bits in 0u16..(1 << 11),
    ) {
        let dataset = dataset_from(&raws);
        let group = OsSet::from_bits(group_bits);
        for period in [Period::History, Period::Observed, Period::Whole] {
            let (first, last) = period.years();
            for profile in ServerProfile::ALL {
                prop_assert_eq!(
                    dataset.count_common_in(group, profile, period),
                    scan_common(&dataset, group, profile, first, last)
                );
                prop_assert_eq!(
                    dataset.count_shared_within(group, profile, period),
                    scan_shared_within(&dataset, group, profile, first, last)
                );
            }
        }
    }

    #[test]
    fn indexed_popcount_totals_match_the_naive_scan(
        raws in proptest::collection::vec(raw_entry(), 0..60),
    ) {
        let dataset = dataset_from(&raws);
        let index = dataset.count_index();
        for profile in ServerProfile::ALL {
            for k in 0..=12 {
                prop_assert_eq!(
                    index.rows_with_at_least(profile, k),
                    scan_at_least(&dataset, profile, k),
                    "at_least {profile:?} k={}", k
                );
            }
        }
    }

    #[test]
    fn temporal_histograms_match_the_naive_scan(
        raws in proptest::collection::vec(raw_entry(), 0..60),
        axis in (1985u16..2020, 1985u16..2020),
    ) {
        let dataset = dataset_from(&raws);
        let (first, last) = (axis.0.min(axis.1), axis.0.max(axis.1));
        assert_temporal_matches_the_scan(&dataset, first, last);
    }
}

/// The Figure 2 reference: for every OS and every year of the axis, the
/// valid rows of that OS whose publication year, clamped into
/// `first..=last`, is that year.
fn assert_temporal_matches_the_scan(dataset: &StudyDataset, first: u16, last: u16) {
    let study = Study::new(dataset.clone());
    let temporal = study
        .get_with::<TemporalAnalysis>(&TemporalConfig {
            first_year: first,
            last_year: last,
        })
        .unwrap();
    for os in OsDistribution::ALL {
        let histogram = temporal.histogram(os);
        assert_eq!(
            (histogram.first_year(), histogram.last_year()),
            (first, last)
        );
        for year in first..=last {
            let scanned = dataset
                .store()
                .valid_rows()
                .filter(|row| row.os_set.contains(os) && row.year().clamp(first, last) == year)
                .count() as u64;
            assert_eq!(
                histogram.count(year),
                scanned,
                "{os} {year} in {first}..={last}"
            );
        }
    }
}

/// Checks every common and shared count of every group, profile and
/// period, and every popcount total, against the naive scans.
fn assert_every_group_matches_the_scan(dataset: &StudyDataset) {
    let index = dataset.count_index();
    for profile in ServerProfile::ALL {
        for period in [Period::History, Period::Observed, Period::Whole] {
            let (first, last) = period.years();
            for bits in 0..(1u16 << 11) {
                let group = OsSet::from_bits(bits);
                assert_eq!(
                    index.count_common_in(group, profile, period),
                    scan_common(dataset, group, profile, first, last),
                    "common {group} {profile:?} {period:?}"
                );
                assert_eq!(
                    index.count_shared_within(group, profile, period),
                    scan_shared_within(dataset, group, profile, first, last),
                    "shared {group} {profile:?} {period:?}"
                );
            }
        }
        for k in 0..=12 {
            assert_eq!(
                index.rows_with_at_least(profile, k),
                scan_at_least(dataset, profile, k),
                "at_least {profile:?} k={k}"
            );
        }
    }
}

/// A deterministic pseudo-random stream (xorshift64) for the fixed
/// datasets below.
fn stream(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

#[test]
fn every_group_matches_the_naive_scan_on_rows_meeting_up_to_eleven_oses() {
    // Random masks meet a group in few members; OR-ing in a run of high
    // bits gives rows of every popcount up to all 11, so every
    // inclusion–exclusion term of every group size is exercised.
    let mut next = stream(0x9E37_79B9_7F4A_7C15);
    let parts = [
        None,
        Some(OsPart::Driver),
        Some(OsPart::Kernel),
        Some(OsPart::SystemSoftware),
        Some(OsPart::Application),
    ];
    let raws: Vec<RawEntry> = (0..240)
        .map(|i| RawEntry {
            year: 1990 + (next() % 25) as u16,
            mask: (next() % 2048) as u16 | (0x7FF >> (i % 12)),
            part: parts[(next() % 5) as usize],
            remote: next() % 2 == 0,
            valid: next() % 8 != 0,
        })
        .collect();
    assert!(raws.iter().filter(|raw| raw.mask == 0x7FF).count() >= 20);
    assert_every_group_matches_the_scan(&dataset_from(&raws));
}

#[test]
fn a_dataset_spanning_300_years_counts_exactly() {
    // 300 distinct publication years, 1850–2149, around the study period:
    // the index holds one table per period whatever the span, and the
    // per-year list one entry per year.
    let raws: Vec<RawEntry> = (0..300)
        .map(|i| RawEntry {
            year: 1850 + i as u16,
            mask: (1 << (i % 11)) | (1 << ((i * 7 + 3) % 11)),
            part: Some(if i % 4 == 0 {
                OsPart::Application
            } else {
                OsPart::Kernel
            }),
            remote: i % 3 != 0,
            valid: i % 10 != 0,
        })
        .collect();
    let dataset = dataset_from(&raws);
    let valid_years = raws.iter().filter(|raw| raw.valid).count();
    assert_eq!(dataset.count_index().valid_per_year().len(), valid_years);
    assert_every_group_matches_the_scan(&dataset);
    // The widest accepted axis inside the span, a window inside the study
    // period, and axes whose boundary buckets absorb decades.
    for (first, last) in [
        (1850, 2105),
        (1994, 2010),
        (2000, 2000),
        (1700, 1860),
        (2140, 2300),
    ] {
        assert_temporal_matches_the_scan(&dataset, first, last);
    }
}

#[test]
fn the_index_is_memoized_and_invalidated_on_classification() {
    let raws = vec![RawEntry {
        year: 2005,
        mask: 0b11,
        part: None,
        remote: true,
        valid: true,
    }];
    let mut dataset = dataset_from(&raws);
    let first = dataset.count_index();
    let again = dataset.count_index();
    assert!(std::sync::Arc::ptr_eq(&first, &again), "index is memoized");
    // A clone shares the already built tables…
    let cloned = dataset.clone();
    assert!(std::sync::Arc::ptr_eq(&first, &cloned.count_index()));
    // …and classification drops them (retention may change).
    let classified = dataset.classify_unlabelled(&classify::Classifier::with_default_rules());
    assert_eq!(classified, 1);
    let rebuilt = dataset.count_index();
    assert!(!std::sync::Arc::ptr_eq(&first, &rebuilt));
}
