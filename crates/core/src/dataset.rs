//! The study dataset: a relational store plus the paper's filtered views.

use std::sync::{Arc, OnceLock};

use classify::Classifier;
use nvd_model::{OsDistribution, OsPart, OsSet, VulnerabilityEntry};
use vulnstore::{VulnId, VulnStore, VulnerabilityRow};

use crate::index::CountIndex;

/// The three server configurations the paper evaluates (Section IV-B).
///
/// * `FatServer` — every valid vulnerability counts (a platform with a
///   reasonable number of installed applications);
/// * `ThinServer` — Application-class vulnerabilities are filtered out (a
///   stripped-down server offering a single service);
/// * `IsolatedThinServer` — additionally only remotely exploitable
///   vulnerabilities count (the machine is physically protected, so local
///   attacks are out of scope).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ServerProfile {
    /// All valid vulnerabilities.
    FatServer,
    /// No Application vulnerabilities.
    ThinServer,
    /// No Application vulnerabilities, remotely exploitable only.
    IsolatedThinServer,
}

impl ServerProfile {
    /// The three profiles in increasing order of filtering.
    pub const ALL: [ServerProfile; 3] = [
        ServerProfile::FatServer,
        ServerProfile::ThinServer,
        ServerProfile::IsolatedThinServer,
    ];

    /// The column label used in Table III.
    pub fn label(&self) -> &'static str {
        match self {
            ServerProfile::FatServer => "All",
            ServerProfile::ThinServer => "No Applications",
            ServerProfile::IsolatedThinServer => "No App. and No Local",
        }
    }
}

impl std::fmt::Display for ServerProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for ServerProfile {
    type Err = crate::analysis::AnalysisError;

    /// Parses the CLI spellings of the three profiles: `fat`, `thin` and
    /// `isolated` (plus a few long-form aliases).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "fat" | "fat-server" | "all" => Ok(ServerProfile::FatServer),
            "thin" | "thin-server" | "noapp" => Ok(ServerProfile::ThinServer),
            "isolated" | "isolated-thin" | "its" => Ok(ServerProfile::IsolatedThinServer),
            other => Err(crate::analysis::AnalysisError::UnknownProfile(
                other.to_string(),
            )),
        }
    }
}

/// The two periods of the Table V / Figure 3 analysis, plus the full study
/// period.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Period {
    /// 1994–2005 (two thirds of the valid vulnerabilities).
    History,
    /// 2006–2010 (the remaining third).
    Observed,
    /// 1994–2010.
    Whole,
}

impl Period {
    /// The inclusive year range of the period.
    pub fn years(&self) -> (u16, u16) {
        match self {
            Period::History => (1994, 2005),
            Period::Observed => (2006, 2010),
            Period::Whole => (1994, 2010),
        }
    }

    /// Whether a publication year falls in the period.
    pub fn contains(&self, year: u16) -> bool {
        let (lo, hi) = self.years();
        (lo..=hi).contains(&year)
    }

    /// Label used in tables and figures.
    pub fn label(&self) -> &'static str {
        match self {
            Period::History => "History",
            Period::Observed => "Observed",
            Period::Whole => "1994-2010",
        }
    }
}

/// The vulnerability dataset of the study, wrapping a [`VulnStore`] and
/// exposing the filtered queries every analysis is built on.
///
/// The group-count queries (`count_common*`, `count_shared_within`) are
/// answered by a lazily built, memoized [`CountIndex`] — a table lookup
/// instead of a store scan. The index is dropped whenever the rows
/// mutate ([`StudyDataset::classify_unlabelled`]) and rebuilt on the next
/// query.
#[derive(Debug, Default, Clone)]
pub struct StudyDataset {
    store: VulnStore,
    /// The memoized count index (empty until the first count query after
    /// a build or mutation). Shared by clones — the tables are immutable
    /// once built.
    index: OnceLock<Arc<CountIndex>>,
}

impl StudyDataset {
    /// Creates an empty dataset.
    pub fn new() -> Self {
        StudyDataset::default()
    }

    /// Builds a dataset from parsed entries (duplicates are merged by CVE
    /// identifier, exactly like the paper's SQL ingestion).
    pub fn from_entries(entries: &[VulnerabilityEntry]) -> Self {
        let mut dataset = StudyDataset::new();
        dataset.store.ingest(entries);
        dataset
    }

    /// Builds a dataset from a pre-populated store.
    pub fn from_store(store: VulnStore) -> Self {
        StudyDataset {
            store,
            index: OnceLock::new(),
        }
    }

    /// The memoized [`CountIndex`] of the dataset, building it on first
    /// use. Concurrent first calls wait for (and then share) one build
    /// instead of redundantly transforming the same tables — server
    /// workers cold-rendering the same tenant all want the index
    /// immediately.
    pub fn count_index(&self) -> Arc<CountIndex> {
        let index = self.index.get_or_init(|| {
            let _span = crate::obs::span(crate::obs::SpanKind::IndexBuild, "count_index");
            Arc::new(CountIndex::build(self))
        });
        Arc::clone(index)
    }

    /// Installs a pre-built count index (a snapshot reload) so the first
    /// query after a warm restart skips the rebuild. A dataset that
    /// already holds an index keeps it.
    pub(crate) fn preload_index(&self, index: Arc<CountIndex>) {
        let _ = self.index.set(index);
    }

    /// The underlying store.
    pub fn store(&self) -> &VulnStore {
        &self.store
    }

    /// Classifies every valid vulnerability that does not yet have an
    /// OS-part class, using the given classifier (the automated counterpart
    /// of the paper's manual Section III-B step). Returns how many rows were
    /// classified.
    pub fn classify_unlabelled(&mut self, classifier: &Classifier) -> usize {
        let labels: Vec<(VulnId, OsPart)> = self
            .store
            .rows()
            .filter(|row| row.part.is_none())
            .map(|row| (row.id, classifier.classify_summary(&row.summary)))
            .collect();
        let count = labels.len();
        for (id, part) in labels {
            self.store
                .set_part(id, part)
                .expect("row ids obtained from the store are valid");
        }
        if count > 0 {
            // Classification changes profile retention; the memoized count
            // index is stale.
            self.index.take();
        }
        count
    }

    /// Number of valid vulnerabilities in the dataset.
    pub fn valid_count(&self) -> usize {
        self.store.valid_count()
    }

    /// A rough estimate of the dataset's resident memory (see
    /// [`VulnStore::estimated_bytes`]) — the unit of the serving registry's
    /// byte budget.
    pub fn estimated_bytes(&self) -> usize {
        self.store.estimated_bytes()
    }

    /// Whether a row survives the given server profile.
    pub fn retains(&self, row: &VulnerabilityRow, profile: ServerProfile) -> bool {
        if !row.is_valid() {
            return false;
        }
        match profile {
            ServerProfile::FatServer => true,
            ServerProfile::ThinServer => row.part.map(|p| p.is_base_system()).unwrap_or(true),
            ServerProfile::IsolatedThinServer => {
                row.part.map(|p| p.is_base_system()).unwrap_or(true) && self.store.is_remote(row.id)
            }
        }
    }

    /// Number of vulnerabilities common to every member of `group` under a
    /// profile, over the whole study period.
    pub fn count_common(&self, group: OsSet, profile: ServerProfile) -> usize {
        self.count_common_in(group, profile, Period::Whole)
    }

    /// Number of vulnerabilities common to every member of `group` under a
    /// profile, restricted to a period. O(1) via the memoized
    /// [`CountIndex`].
    pub fn count_common_in(&self, group: OsSet, profile: ServerProfile, period: Period) -> usize {
        self.count_index().count_common_in(group, profile, period)
    }

    /// Number of vulnerabilities of a single OS under a profile (the `v(A)`
    /// columns of Table III).
    pub fn count_for_os(&self, os: OsDistribution, profile: ServerProfile) -> usize {
        self.count_common(OsSet::singleton(os), profile)
    }

    /// The number of distinct vulnerabilities that affect **at least two**
    /// members of `group` under a profile and period — the quantity that
    /// matters for a replicated system, since a vulnerability present in two
    /// replicas already halves the attacker's work. A homogeneous
    /// configuration (`group.len() <= 1`) counts every vulnerability of the
    /// single OS, since four identical replicas share all of them. Answered
    /// by the memoized [`CountIndex`].
    pub fn count_shared_within(
        &self,
        group: OsSet,
        profile: ServerProfile,
        period: Period,
    ) -> usize {
        self.count_index()
            .count_shared_within(group, profile, period)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvd_model::{CveId, CvssV2, Date, OsPart, Validity};

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

    fn sample_dataset() -> StudyDataset {
        use OsDistribution::*;
        StudyDataset::from_entries(&[
            entry(1, 2000, Some(OsPart::Kernel), true, &[OpenBsd, NetBsd]),
            entry(2, 2004, Some(OsPart::Application), true, &[OpenBsd, NetBsd]),
            entry(
                3,
                2007,
                Some(OsPart::SystemSoftware),
                false,
                &[OpenBsd, NetBsd],
            ),
            entry(4, 2008, Some(OsPart::Kernel), true, &[OpenBsd]),
            entry(5, 2009, Some(OsPart::Kernel), true, &[NetBsd]),
        ])
    }

    #[test]
    fn profiles_filter_progressively() {
        let study = sample_dataset();
        let pair = OsSet::pair(OsDistribution::OpenBsd, OsDistribution::NetBsd);
        assert_eq!(study.count_common(pair, ServerProfile::FatServer), 3);
        assert_eq!(study.count_common(pair, ServerProfile::ThinServer), 2);
        assert_eq!(
            study.count_common(pair, ServerProfile::IsolatedThinServer),
            1
        );
    }

    #[test]
    fn per_os_counts_match_table_iii_diagonal_semantics() {
        let study = sample_dataset();
        assert_eq!(
            study.count_for_os(OsDistribution::OpenBsd, ServerProfile::FatServer),
            4
        );
        assert_eq!(
            study.count_for_os(OsDistribution::NetBsd, ServerProfile::FatServer),
            4
        );
        assert_eq!(
            study.count_for_os(OsDistribution::OpenBsd, ServerProfile::IsolatedThinServer),
            2
        );
    }

    #[test]
    fn period_restriction_filters_by_year() {
        let study = sample_dataset();
        let pair = OsSet::pair(OsDistribution::OpenBsd, OsDistribution::NetBsd);
        assert_eq!(
            study.count_common_in(pair, ServerProfile::FatServer, Period::History),
            2
        );
        assert_eq!(
            study.count_common_in(pair, ServerProfile::FatServer, Period::Observed),
            1
        );
        assert!(Period::History.contains(2005));
        assert!(!Period::History.contains(2006));
        assert_eq!(Period::Observed.years(), (2006, 2010));
        assert_eq!(Period::Whole.label(), "1994-2010");
    }

    #[test]
    fn invalid_entries_never_count() {
        let mut invalid = entry(
            10,
            2005,
            Some(OsPart::Kernel),
            true,
            &[OsDistribution::OpenBsd],
        );
        invalid.set_validity(Validity::Unspecified);
        let study = StudyDataset::from_entries(&[invalid]);
        assert_eq!(study.valid_count(), 0);
        assert_eq!(
            study.count_for_os(OsDistribution::OpenBsd, ServerProfile::FatServer),
            0
        );
    }

    #[test]
    fn unclassified_rows_are_treated_as_base_system() {
        let study =
            StudyDataset::from_entries(&[entry(11, 2005, None, true, &[OsDistribution::Solaris])]);
        assert_eq!(
            study.count_for_os(OsDistribution::Solaris, ServerProfile::ThinServer),
            1
        );
    }

    #[test]
    fn classify_unlabelled_assigns_parts() {
        let mut study = StudyDataset::from_entries(&[
            VulnerabilityEntry::builder(CveId::new(2006, 77))
                .summary("Buffer overflow in the kernel TCP/IP stack allows remote attackers to crash the system")
                .affects_os(OsDistribution::FreeBsd)
                .build()
                .unwrap(),
            // Already labelled: the rules would say Kernel, but a row that
            // has a class keeps it.
            VulnerabilityEntry::builder(CveId::new(2006, 78))
                .summary("Kernel memory corruption reported against a bundled application")
                .part(OsPart::Application)
                .affects_os(OsDistribution::FreeBsd)
                .build()
                .unwrap(),
        ]);
        let classified = study.classify_unlabelled(&Classifier::with_default_rules());
        assert_eq!(classified, 1);
        let parts: Vec<_> = study.store().rows().map(|row| row.part).collect();
        assert_eq!(parts, [Some(OsPart::Kernel), Some(OsPart::Application)]);
        // A second pass has nothing left to classify.
        assert_eq!(
            study.classify_unlabelled(&Classifier::with_default_rules()),
            0
        );
    }

    #[test]
    fn shared_within_counts_pairs_inside_a_group() {
        use OsDistribution::*;
        let study = sample_dataset();
        let group = OsSet::from_iter([OpenBsd, NetBsd, FreeBsd, Solaris]);
        // Entries 1-3 affect two members of the group; entries 4 and 5 only one.
        assert_eq!(
            study.count_shared_within(group, ServerProfile::FatServer, Period::Whole),
            3
        );
        // A homogeneous configuration counts every vulnerability of that OS.
        assert_eq!(
            study.count_shared_within(
                OsSet::singleton(OpenBsd),
                ServerProfile::FatServer,
                Period::Whole
            ),
            4
        );
    }
}
