//! Assembling full vulnerability entries from the overlap plan.

use std::collections::HashMap;

use nvd_model::{
    AccessComplexity, AccessVector, Authentication, CveId, CvssV2, ImpactMetric, OsDistribution,
    OsSet, Validity, VulnerabilityEntry,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::calibration::TABLE1;
use crate::descriptions::{generate_invalid_summary, generate_summary};
use crate::overlap::{build_specs, Era, VulnSpec};
use crate::temporal::{sample_date, sample_year};

/// A generated dataset: the synthetic counterpart of the paper's 2120
/// collected NVD entries (1887 valid plus the Unknown / Unspecified /
/// Disputed entries of Table I).
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    entries: Vec<VulnerabilityEntry>,
}

impl Dataset {
    /// Wraps a list of entries as a dataset.
    pub fn from_entries(entries: Vec<VulnerabilityEntry>) -> Self {
        Dataset { entries }
    }

    /// All entries (valid and invalid).
    pub fn entries(&self) -> &[VulnerabilityEntry] {
        &self.entries
    }

    /// The entries that survive the paper's validity filter.
    pub fn valid_entries(&self) -> impl Iterator<Item = &VulnerabilityEntry> {
        self.entries.iter().filter(|e| e.is_valid())
    }

    /// Number of entries (valid and invalid).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serializes the dataset as an NVD 2.0-style XML feed.
    ///
    /// # Errors
    ///
    /// Propagates [`nvd_feed::FeedError`] from the writer (currently only
    /// I/O-free serialization, so this cannot fail in practice).
    pub fn to_feed_xml(&self) -> Result<String, nvd_feed::FeedError> {
        nvd_feed::FeedWriter::new()
            .with_pub_date("2010-09-30")
            .write_to_string(&self.entries)
    }
}

/// Generates the calibrated synthetic dataset (see DESIGN.md §5 and the
/// [`crate::overlap`] module for the construction).
///
/// The generator is deterministic for a given seed: identifiers, dates and
/// summaries are drawn from a seeded PRNG, and the overlap structure is
/// fully deterministic.
#[derive(Debug, Clone)]
pub struct CalibratedGenerator {
    seed: u64,
}

impl CalibratedGenerator {
    /// Creates a generator with the given seed.
    pub fn new(seed: u64) -> Self {
        CalibratedGenerator { seed }
    }

    /// Generates the dataset.
    pub fn generate(&self) -> Dataset {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let plan = build_specs();
        let mut id_allocator = IdAllocator::new();
        let mut entries = Vec::with_capacity(plan.specs.len() + 256);

        // Table VI release tagging: one Debian-only vulnerability affecting
        // Debian 3.0 and 4.0, and one Debian–RedHat vulnerability affecting
        // Debian 4.0, RedHat 4.0 and RedHat 5.0. Everything else carries no
        // per-release information, exactly like the bulk of the NVD data the
        // paper could not correlate with distribution security trackers.
        let debian_release_spec = plan
            .specs
            .iter()
            .position(|s| s.oses == OsSet::singleton(OsDistribution::Debian) && s.is_base_system());
        let debian_redhat_spec = plan.specs.iter().position(|s| {
            s.oses == OsSet::pair(OsDistribution::Debian, OsDistribution::RedHat)
                && s.is_isolated_thin()
        });

        for (index, spec) in plan.specs.iter().enumerate() {
            let entry = self.build_entry(
                &mut rng,
                &mut id_allocator,
                spec,
                debian_release_spec == Some(index),
                debian_redhat_spec == Some(index),
            );
            entries.push(entry);
        }

        for row in &TABLE1 {
            for (validity, count) in [
                (Validity::Unknown, row.unknown),
                (Validity::Unspecified, row.unspecified),
                (Validity::Disputed, row.disputed),
            ] {
                for _ in 0..count {
                    entries.push(self.build_invalid_entry(
                        &mut rng,
                        &mut id_allocator,
                        row.os,
                        validity,
                    ));
                }
            }
        }

        Dataset { entries }
    }

    fn build_entry(
        &self,
        rng: &mut StdRng,
        ids: &mut IdAllocator,
        spec: &VulnSpec,
        tag_debian_releases: bool,
        tag_debian_redhat_releases: bool,
    ) -> VulnerabilityEntry {
        let year = spec
            .fixed_year
            .unwrap_or_else(|| sample_year(rng, spec.oses, spec.era));
        let id = spec.fixed_id.unwrap_or_else(|| ids.allocate(year));
        let summary = match spec.fixed_summary {
            Some(text) => text.to_string(),
            None => generate_summary(rng, spec.part, spec.access, spec.oses),
        };
        let mut builder = VulnerabilityEntry::builder(id)
            .published(sample_date(rng, year))
            .summary(summary)
            .part(spec.part)
            .validity(Validity::Valid)
            .cvss(sample_cvss(rng, spec.access));
        if tag_debian_releases {
            builder = builder
                .affects_os_version(OsDistribution::Debian, "3.0")
                .affects_os_version(OsDistribution::Debian, "4.0");
        } else if tag_debian_redhat_releases {
            builder = builder
                .affects_os_version(OsDistribution::Debian, "4.0")
                .affects_os_version(OsDistribution::RedHat, "4.0")
                .affects_os_version(OsDistribution::RedHat, "5.0");
        } else {
            builder = builder.affects_set(spec.oses);
        }
        builder
            .build()
            .expect("generated entries always have publication >= identifier year")
    }

    fn build_invalid_entry(
        &self,
        rng: &mut StdRng,
        ids: &mut IdAllocator,
        os: OsDistribution,
        validity: Validity,
    ) -> VulnerabilityEntry {
        let oses = OsSet::singleton(os);
        let year = sample_year(rng, oses, Era::Any);
        let id = ids.allocate(year);
        VulnerabilityEntry::builder(id)
            .published(sample_date(rng, year))
            .summary(generate_invalid_summary(rng, validity, oses))
            .validity(validity)
            .affects_set(oses)
            .build()
            .expect("generated entries always have publication >= identifier year")
    }
}

impl Default for CalibratedGenerator {
    fn default() -> Self {
        CalibratedGenerator::new(42)
    }
}

/// Allocates synthetic CVE numbers per year, starting high enough to avoid
/// colliding with the real identifiers used by the named vulnerabilities.
#[derive(Debug, Default)]
struct IdAllocator {
    next: HashMap<u16, u32>,
}

impl IdAllocator {
    fn new() -> Self {
        IdAllocator {
            next: HashMap::new(),
        }
    }

    fn allocate(&mut self, year: u16) -> CveId {
        let counter = self.next.entry(year).or_insert(6000);
        let number = *counter;
        *counter += 1;
        CveId::new(year, number)
    }
}

/// Draws a CVSS vector consistent with the requested access vector: the
/// remaining metrics are varied so the dataset contains a realistic spread
/// of scores.
fn sample_cvss<R: Rng>(rng: &mut R, access: AccessVector) -> CvssV2 {
    let complexity = match rng.gen_range(0..4) {
        0 => AccessComplexity::Medium,
        1 => AccessComplexity::High,
        _ => AccessComplexity::Low,
    };
    let auth = if rng.gen_bool(0.15) {
        Authentication::Single
    } else {
        Authentication::None
    };
    let impact = |rng: &mut R| match rng.gen_range(0..3) {
        0 => ImpactMetric::None,
        1 => ImpactMetric::Partial,
        _ => ImpactMetric::Complete,
    };
    let (c, i, a) = (impact(rng), impact(rng), impact(rng));
    // Avoid the all-None impact vector (a vulnerability with no impact would
    // not be in the NVD in the first place).
    let c = if (c, i, a) == (ImpactMetric::None, ImpactMetric::None, ImpactMetric::None) {
        ImpactMetric::Partial
    } else {
        c
    };
    CvssV2::new(access, complexity, auth, c, i, a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::{table1_row, table3_row, DISTINCT_VALID};

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = CalibratedGenerator::new(7).generate();
        let b = CalibratedGenerator::new(7).generate();
        assert_eq!(a.entries().len(), b.entries().len());
        for (x, y) in a.entries().iter().zip(b.entries()) {
            assert_eq!(x.id(), y.id());
            assert_eq!(x.summary(), y.summary());
            assert_eq!(x.published(), y.published());
        }
        let c = CalibratedGenerator::new(8).generate();
        assert_eq!(a.entries().len(), c.entries().len());
    }

    #[test]
    fn valid_count_is_close_to_the_paper() {
        let dataset = CalibratedGenerator::new(1).generate();
        let valid = dataset.valid_entries().count() as i64;
        let distinct = i64::from(DISTINCT_VALID);
        // The generator merges shared vulnerabilities differently than the
        // real data (the exact multi-OS structure is unpublished), so the
        // distinct count differs from 1887 by a bounded margin.
        assert!(
            (valid - distinct).abs() < 600,
            "valid count {valid} too far from {distinct}"
        );
    }

    #[test]
    fn per_os_totals_match_table1() {
        let dataset = CalibratedGenerator::new(2).generate();
        for os in OsDistribution::ALL {
            let row = table1_row(os);
            let valid = dataset.valid_entries().filter(|e| e.affects(os)).count() as u32;
            assert_eq!(valid, row.valid, "valid count for {os}");
            let unknown = dataset
                .entries()
                .iter()
                .filter(|e| e.affects(os) && e.validity() == Validity::Unknown)
                .count() as u32;
            assert_eq!(unknown, row.unknown, "unknown count for {os}");
            let disputed = dataset
                .entries()
                .iter()
                .filter(|e| e.affects(os) && e.validity() == Validity::Disputed)
                .count() as u32;
            assert_eq!(disputed, row.disputed, "disputed count for {os}");
        }
    }

    #[test]
    fn valid_entries_keeps_only_valid_ones() {
        let dataset = CalibratedGenerator::new(3).generate();
        assert!(dataset
            .valid_entries()
            .all(|e| e.validity() == Validity::Valid));
        let invalid = dataset.entries().iter().filter(|e| !e.is_valid()).count();
        assert!(invalid > 0, "the generator emits Table I's invalid entries");
        assert_eq!(dataset.valid_entries().count() + invalid, dataset.len());
    }

    #[test]
    fn pairwise_counts_follow_table3() {
        let dataset = CalibratedGenerator::new(4).generate();
        let row = table3_row(OsDistribution::Windows2000, OsDistribution::Windows2003).unwrap();
        let shared = dataset
            .valid_entries()
            .filter(|e| {
                e.affects(OsDistribution::Windows2000) && e.affects(OsDistribution::Windows2003)
            })
            .count() as u32;
        assert!(shared >= row.all && shared <= row.all + 2);
    }

    #[test]
    fn cve_ids_are_unique() {
        let dataset = CalibratedGenerator::new(5).generate();
        let mut ids: Vec<CveId> = dataset.entries().iter().map(|e| e.id()).collect();
        let before = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate CVE identifiers generated");
    }

    #[test]
    fn publication_years_match_identifier_years() {
        let dataset = CalibratedGenerator::new(6).generate();
        for entry in dataset.entries() {
            assert_eq!(entry.id().year(), entry.year(), "{}", entry.id());
        }
    }

    #[test]
    fn named_vulnerabilities_keep_their_identifiers() {
        let dataset = CalibratedGenerator::new(7).generate();
        let nine = dataset
            .entries()
            .iter()
            .find(|e| e.id() == CveId::new(2008, 4609))
            .expect("CVE-2008-4609 present");
        assert_eq!(nine.affected_os_set().len(), 9);
        assert!(dataset
            .entries()
            .iter()
            .any(|e| e.id() == CveId::new(2008, 1447)));
        assert!(dataset
            .entries()
            .iter()
            .any(|e| e.id() == CveId::new(2007, 5365)));
    }

    #[test]
    fn release_tagged_vulnerabilities_reproduce_table6_structure() {
        let dataset = CalibratedGenerator::new(8).generate();
        // Whether an entry lists the release among its affected versions.
        let affects_release = |e: &VulnerabilityEntry, os, version: &str| {
            e.affected()
                .iter()
                .any(|p| p.os() == Some(os) && p.versions().iter().any(|v| v == version))
        };
        let debian_only = dataset.valid_entries().find(|e| {
            affects_release(e, OsDistribution::Debian, "3.0")
                && affects_release(e, OsDistribution::Debian, "4.0")
                && e.affected_os_set().len() == 1
        });
        assert!(
            debian_only.is_some(),
            "missing the Debian 3.0/4.0 vulnerability"
        );
        let cross = dataset.valid_entries().find(|e| {
            affects_release(e, OsDistribution::Debian, "4.0")
                && affects_release(e, OsDistribution::RedHat, "4.0")
                && affects_release(e, OsDistribution::RedHat, "5.0")
        });
        assert!(
            cross.is_some(),
            "missing the Debian/RedHat release vulnerability"
        );
    }

    #[test]
    fn dataset_round_trips_through_the_feed_format() {
        let dataset = CalibratedGenerator::new(9).generate();
        let xml = dataset.to_feed_xml().unwrap();
        let mut reader = nvd_feed::FeedReader::new();
        let parsed = reader.read_from_str(&xml).unwrap();
        assert_eq!(reader.skipped(), 0);
        assert_eq!(parsed.len(), dataset.len());
        for (original, roundtripped) in dataset.entries().iter().zip(&parsed) {
            assert_eq!(original.id(), roundtripped.id());
            assert_eq!(original.affected_os_set(), roundtripped.affected_os_set());
        }
    }

    #[test]
    fn era_constraints_are_respected_for_isolated_thin_pairs() {
        let dataset = CalibratedGenerator::new(10).generate();
        // Windows2000–Windows2003 has a history/observed split of 35/46; the
        // generated years must respect the period boundaries approximately.
        let mut history = 0;
        let mut observed = 0;
        for entry in dataset.valid_entries() {
            if entry.affects(OsDistribution::Windows2000)
                && entry.affects(OsDistribution::Windows2003)
                && entry.part().map(|p| p.is_base_system()).unwrap_or(false)
                && entry.is_remotely_exploitable()
            {
                if entry.year() <= 2005 {
                    history += 1;
                } else {
                    observed += 1;
                }
            }
        }
        assert!((30..=40).contains(&history), "history count {history}");
        assert!((42..=52).contains(&observed), "observed count {observed}");
    }
}
