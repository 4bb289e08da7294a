//! The [`CountIndex`]: O(1) group-count queries via zeta transforms.
//!
//! Every diversity statistic of the paper reduces to one of two counting
//! questions about an OS group `g` under a server profile and one of the
//! three study [`Period`]s:
//!
//! * how many vulnerabilities affect **all** members of `g`
//!   ([`CountIndex::count_common_in`]) — rows whose `os_set ⊇ g`;
//! * how many affect **at least two** members of `g`
//!   ([`CountIndex::count_shared_within`]) — rows with
//!   `|os_set ∩ g| ≥ 2`.
//!
//! An [`OsSet`] is an 11-bit mask, so both questions are answerable from
//! per-mask histograms: the index bins every retained row of the History
//! and Observed periods by its exact `os_set` bits and runs the classic
//! O(2ⁿ·n) sum-over-supersets (zeta) transform on each of the six
//! profile × period histograms. Afterwards `superset[mask]` counts the
//! rows whose `os_set ⊇ mask`, which is `count_common_in`. The Whole
//! period (1994–2010) is the disjoint union of History (1994–2005) and
//! Observed (2006–2010), so it has no table of its own: each Whole answer
//! is History's plus Observed's. The shared count follows by
//! inclusion–exclusion over the subsets of `g` with at least two members:
//!
//! ```text
//! shared(g) = Σ_{T ⊆ g, |T| ≥ 2} (−1)^|T| · (|T| − 1) · superset[T]
//! ```
//!
//! A row meeting `g` in `k` members is counted once per `T ⊆ os_set ∩ g`,
//! and `Σ_{j=2..k} C(k, j)·(−1)^j·(j − 1)` is 1 for every `k ≥ 2` and 0
//! for `k < 2`.
//!
//! After the build every common count is a table lookup — the k-way
//! enumeration of Section IV-B drops from `C(11,k)` full store scans per
//! size to `C(11,k)` array reads.
//!
//! Only Figure 2 counts per year, and only for single OSes: the index
//! keeps one ascending list of (year, valid rows per OS) for it, 46 bytes
//! a year.

use std::collections::BTreeMap;

use nvd_model::{OsDistribution, OsSet};

use crate::dataset::{Period, ServerProfile, StudyDataset};

/// Number of distinct masks an 11-OS universe produces.
const MASKS: usize = 1 << OsDistribution::COUNT;

/// The periods the index keeps tables for, in table (and payload) order.
/// [`Period::Whole`] is their disjoint union, answered from their sum.
const PERIODS: [Period; 2] = [Period::History, Period::Observed];

/// Valid rows per OS, in [`OsDistribution::ALL`] order.
pub type OsCounts = [u32; OsDistribution::COUNT];

/// Payload bytes of one profile: `at_least`, then one superset table per
/// period.
const PROFILE_BYTES: usize = 4 * (OsDistribution::COUNT + 1 + PERIODS.len() * MASKS);

/// Payload bytes of one per-year entry: the year, then [`OsCounts`].
const YEAR_BYTES: usize = 2 + 4 * OsDistribution::COUNT;

/// The tables of one profile (see the module docs).
#[derive(Debug, Clone)]
struct ProfileTables {
    /// `at_least[k]`: retained rows (any year) whose `os_set` has at least
    /// `k` members.
    at_least: [u32; OsDistribution::COUNT + 1],
    /// `superset[p][mask]`: retained rows published in `PERIODS[p]` whose
    /// `os_set ⊇ mask`.
    superset: [Vec<u32>; 2],
}

impl Default for ProfileTables {
    fn default() -> Self {
        ProfileTables {
            at_least: [0; OsDistribution::COUNT + 1],
            superset: std::array::from_fn(|_| vec![0; MASKS]),
        }
    }
}

/// The memoized count index of a [`StudyDataset`] (see the module docs).
///
/// Built lazily by [`StudyDataset::count_index`] and shared behind an
/// [`Arc`](std::sync::Arc); a dataset mutation
/// ([`StudyDataset::classify_unlabelled`]) drops it so the next query
/// rebuilds against the new rows.
#[derive(Debug, Clone)]
pub struct CountIndex {
    /// One table set per [`ServerProfile`], in [`ServerProfile::ALL`]
    /// order.
    profiles: [ProfileTables; 3],
    /// Valid rows per OS for each distinct publication year, ascending.
    years: Vec<(u16, OsCounts)>,
}

/// The index position of a profile in [`CountIndex::profiles`].
fn profile_slot(profile: ServerProfile) -> usize {
    match profile {
        ServerProfile::FatServer => 0,
        ServerProfile::ThinServer => 1,
        ServerProfile::IsolatedThinServer => 2,
    }
}

/// In-place sum over supersets: afterwards `f[mask] = Σ f[m]` over all
/// `m ⊇ mask`.
fn zeta_supersets(f: &mut [u32]) {
    for bit in 0..OsDistribution::COUNT {
        let bit = 1usize << bit;
        for mask in 0..MASKS {
            if mask & bit == 0 {
                f[mask] += f[mask | bit];
            }
        }
    }
}

/// The little-endian `u32`s of a byte slice (a trailing partial word is
/// ignored).
fn le_u32s(bytes: &[u8]) -> impl Iterator<Item = u32> + '_ {
    bytes
        .chunks_exact(4)
        .map(|word| u32::from_le_bytes([word[0], word[1], word[2], word[3]]))
}

impl CountIndex {
    /// Builds the index from a dataset in one pass over the store plus the
    /// six transforms (O(rows + 6 · 2ⁿ · n)).
    pub fn build(dataset: &StudyDataset) -> CountIndex {
        let mut profiles: [ProfileTables; 3] = Default::default();
        let mut years: BTreeMap<u16, OsCounts> = BTreeMap::new();
        for (row, remote) in dataset.store().rows_with_remote() {
            if !row.is_valid() {
                continue;
            }
            let year = row.year();
            let counts = years.entry(year).or_default();
            for os in row.os_set.iter() {
                counts[os.index()] += 1;
            }
            // The retention rule of `StudyDataset::retains`, per profile.
            let thin = row.part.map(|p| p.is_base_system()).unwrap_or(true);
            let mask = row.os_set.bits() as usize;
            for (tables, retained) in profiles.iter_mut().zip([true, thin, thin && remote]) {
                if !retained {
                    continue;
                }
                for count in tables.at_least.iter_mut().take(row.os_set.len() + 1) {
                    *count += 1;
                }
                for (period, histogram) in PERIODS.iter().zip(&mut tables.superset) {
                    if period.contains(year) {
                        histogram[mask] += 1;
                    }
                }
            }
        }
        for tables in &mut profiles {
            for histogram in &mut tables.superset {
                zeta_supersets(histogram);
            }
        }
        CountIndex {
            profiles,
            years: years.into_iter().collect(),
        }
    }

    /// Serializes the index for the snapshot `INDEX` section, version 3
    /// (see `docs/SNAPSHOT_FORMAT.md`): little-endian, per profile in
    /// [`ServerProfile::ALL`] order `at_least` then the History and
    /// Observed supersets, then the per-year list.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        for tables in &self.profiles {
            let counts = tables
                .at_least
                .iter()
                .chain(tables.superset.iter().flatten());
            for count in counts {
                out.extend_from_slice(&count.to_le_bytes());
            }
        }
        out.extend_from_slice(&(self.years.len() as u32).to_le_bytes());
        for (year, counts) in &self.years {
            out.extend_from_slice(&year.to_le_bytes());
            for count in counts {
                out.extend_from_slice(&count.to_le_bytes());
            }
        }
    }

    /// Decodes an `INDEX` version 3 payload written by
    /// [`encode`](CountIndex::encode). Returns `None` for a payload of the
    /// wrong length or with years out of order — the caller falls back to
    /// rebuilding the index from the rows, per the snapshot format's
    /// compatibility promise.
    pub(crate) fn decode(payload: &[u8]) -> Option<CountIndex> {
        let years_at = 3 * PROFILE_BYTES;
        let year_count = le_u32s(payload.get(years_at..years_at + 4)?).next()? as usize;
        let entries = payload.get(years_at + 4..)?;
        if entries.len() != year_count.checked_mul(YEAR_BYTES)? {
            return None;
        }
        // The tables are the payload's first `years_at` bytes.
        let mut words = le_u32s(payload);
        let mut profiles: [ProfileTables; 3] = Default::default();
        for tables in &mut profiles {
            let slots = tables.at_least.iter_mut();
            for slot in slots.chain(tables.superset.iter_mut().flatten()) {
                *slot = words.next()?;
            }
        }
        let years: Vec<(u16, OsCounts)> = entries
            .chunks_exact(YEAR_BYTES)
            .map(|entry| {
                let mut counts = OsCounts::default();
                for (count, word) in counts.iter_mut().zip(le_u32s(&entry[2..])) {
                    *count = word;
                }
                (u16::from_le_bytes([entry[0], entry[1]]), counts)
            })
            .collect();
        // Strictly ascending, as built.
        let ascending = years.windows(2).all(|pair| pair[0].0 < pair[1].0);
        ascending.then_some(CountIndex { profiles, years })
    }

    /// `answer` applied to the superset table of one profile and period.
    /// Whole has no table: it is History's answer plus Observed's, summed
    /// in `i64` because a decoded payload is outside input and two `u32`
    /// cells can pass `u32::MAX`.
    fn in_period(
        &self,
        profile: ServerProfile,
        period: Period,
        answer: impl Fn(&[u32]) -> i64,
    ) -> usize {
        let [history, observed] = &self.profiles[profile_slot(profile)].superset;
        let answer = match period {
            Period::History => answer(history),
            Period::Observed => answer(observed),
            Period::Whole => answer(history) + answer(observed),
        };
        answer as usize
    }

    /// Rows retained under `profile` with `os_set ⊇ group` inside `period`.
    pub fn count_common_in(&self, group: OsSet, profile: ServerProfile, period: Period) -> usize {
        let group = group.bits() as usize;
        self.in_period(profile, period, |superset| i64::from(superset[group]))
    }

    /// Rows retained under `profile` whose `os_set` intersects `group` in
    /// at least two members, inside `period`, by inclusion–exclusion over
    /// the supersets (see the module docs). Groups of one (or zero)
    /// members answer the superset count, mirroring
    /// [`StudyDataset::count_shared_within`]'s homogeneous-configuration
    /// semantics.
    pub fn count_shared_within(
        &self,
        group: OsSet,
        profile: ServerProfile,
        period: Period,
    ) -> usize {
        if group.len() <= 1 {
            return self.count_common_in(group, profile, period);
        }
        let group = group.bits() as usize;
        self.in_period(profile, period, |superset| {
            let mut shared = 0i64;
            let mut subset = group;
            while subset != 0 {
                let members = i64::from(subset.count_ones());
                if members >= 2 {
                    let term = (members - 1) * i64::from(superset[subset]);
                    shared += if members % 2 == 0 { term } else { -term };
                }
                subset = (subset - 1) & group;
            }
            shared
        })
    }

    /// Rows retained under `profile` (any year) whose `os_set` has at
    /// least `k` members — the "vulnerabilities affecting ≥ k OSes" column
    /// of Section IV-B.
    pub fn rows_with_at_least(&self, profile: ServerProfile, k: usize) -> usize {
        let tables = &self.profiles[profile_slot(profile)];
        tables.at_least.get(k).map_or(0, |&count| count as usize)
    }

    /// Valid rows per OS for each distinct publication year of the data
    /// (any year, not only the study period), ascending — the Fat Server
    /// per-year counts Figure 2 plots.
    pub fn valid_per_year(&self) -> &[(u16, OsCounts)] {
        &self.years
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvd_model::{CveId, CvssV2, Date, OsPart, VulnerabilityEntry};

    fn entry(
        number: u32,
        year: u16,
        part: Option<OsPart>,
        remote: bool,
        oses: &[OsDistribution],
    ) -> VulnerabilityEntry {
        let mut builder = VulnerabilityEntry::builder(CveId::new(year, number))
            .published(Date::new(year, 6, 1).unwrap())
            .summary(format!("synthetic entry {number}"))
            .cvss(if remote {
                CvssV2::typical_remote()
            } else {
                CvssV2::typical_local()
            });
        if let Some(part) = part {
            builder = builder.part(part);
        }
        for os in oses {
            builder = builder.affects_os(*os);
        }
        builder.build().unwrap()
    }

    #[test]
    fn empty_dataset_answers_zero_everywhere() {
        let index = CountIndex::build(&StudyDataset::new());
        assert!(index.valid_per_year().is_empty());
        for profile in ServerProfile::ALL {
            for period in [Period::History, Period::Observed, Period::Whole] {
                assert_eq!(index.count_common_in(OsSet::all(), profile, period), 0);
                assert_eq!(index.count_shared_within(OsSet::all(), profile, period), 0);
            }
            assert_eq!(index.rows_with_at_least(profile, 0), 0);
        }
    }

    #[test]
    fn superset_and_shared_counts_match_hand_computed_values() {
        use OsDistribution::*;
        let dataset = StudyDataset::from_entries(&[
            entry(1, 2000, Some(OsPart::Kernel), true, &[OpenBsd, NetBsd]),
            entry(2, 2004, Some(OsPart::Application), true, &[OpenBsd, NetBsd]),
            entry(3, 2007, Some(OsPart::SystemSoftware), false, &[OpenBsd]),
            entry(4, 2008, Some(OsPart::Kernel), true, &[NetBsd, FreeBsd]),
        ]);
        let index = CountIndex::build(&dataset);
        let pair = OsSet::pair(OpenBsd, NetBsd);
        let bsd = OsSet::from_iter([OpenBsd, NetBsd, FreeBsd]);
        // (period, fat common, thin common, fat shared within the BSDs)
        for (period, fat, thin, shared) in [
            (Period::History, 2, 1, 2),
            (Period::Observed, 0, 0, 1),
            (Period::Whole, 2, 1, 3),
        ] {
            let common = |profile| index.count_common_in(pair, profile, period);
            assert_eq!(common(ServerProfile::FatServer), fat, "{period:?}");
            assert_eq!(common(ServerProfile::ThinServer), thin, "{period:?}");
            assert_eq!(
                index.count_shared_within(bsd, ServerProfile::FatServer, period),
                shared,
                "{period:?}"
            );
        }
        assert_eq!(index.rows_with_at_least(ServerProfile::FatServer, 2), 3);
        assert_eq!(index.rows_with_at_least(ServerProfile::FatServer, 3), 0);
        assert_eq!(index.rows_with_at_least(ServerProfile::FatServer, 12), 0);
        let years: Vec<u16> = index.valid_per_year().iter().map(|(y, _)| *y).collect();
        assert_eq!(years, [2000, 2004, 2007, 2008]);
        let (_, counts_2008) = index.valid_per_year()[3];
        assert_eq!(counts_2008[NetBsd.index()], 1);
        assert_eq!(counts_2008[OpenBsd.index()], 0);
    }
}
