//! k-OS combination analysis (Section IV-B).
//!
//! The paper extends the pairwise study to larger groups: how many
//! vulnerabilities are shared by three, four, five … operating systems at
//! once. This module reports, for every group size `k`:
//!
//! * the number of distinct vulnerabilities affecting at least `k` of the
//!   11 studied OSes;
//! * the best (fewest shared vulnerabilities) and worst groups of size `k`
//!   under a chosen server profile.

use nvd_model::{OsDistribution, OsSet};
use tabular::TextTable;

use crate::analysis::{Analysis, AnalysisError, AnalysisId, Section};
use crate::dataset::{Period, ServerProfile, StudyDataset};
use crate::study::Study;

/// Configuration of the combination analysis: the server profile and the
/// largest group size to enumerate. The default matches the combined
/// report's Fat Server run up to `k = 9`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KWayConfig {
    /// The server profile groups are evaluated under.
    pub profile: ServerProfile,
    /// Largest group size (inclusive).
    pub max_k: usize,
}

impl Default for KWayConfig {
    fn default() -> Self {
        KWayConfig {
            profile: ServerProfile::FatServer,
            max_k: 9,
        }
    }
}

/// The per-`k` result of the combination analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KWayRow {
    /// The group size.
    pub k: usize,
    /// Number of distinct vulnerabilities affecting at least `k` OSes.
    pub vulnerabilities_at_least_k: usize,
    /// The group of size `k` sharing the fewest vulnerabilities, with its
    /// count (`None` when `k` exceeds the number of studied OSes).
    pub best_group: Option<(OsSet, usize)>,
    /// The group of size `k` sharing the most vulnerabilities, with its
    /// count.
    pub worst_group: Option<(OsSet, usize)>,
}

/// The full combination analysis.
#[derive(Debug, Clone)]
pub struct KWayAnalysis {
    profile: ServerProfile,
    rows: Vec<KWayRow>,
}

impl KWayAnalysis {
    /// Group enumeration is exhaustive (there are at most `C(11, 5) = 462`
    /// groups per size), matching the paper's methodology. Every count is
    /// an O(1) lookup against the dataset's memoized [`CountIndex`], so
    /// the whole analysis costs `Σ C(11, k)` table reads instead of as
    /// many full store scans.
    ///
    /// [`CountIndex`]: crate::index::CountIndex
    fn compute_impl(study: &StudyDataset, profile: ServerProfile, max_k: usize) -> Self {
        let index = study.count_index();
        let mut rows = Vec::new();
        let universe = OsSet::all();
        for k in 2..=max_k {
            let at_least_k = index.rows_with_at_least(profile, k);
            let mut best: Option<(OsSet, usize)> = None;
            let mut worst: Option<(OsSet, usize)> = None;
            if k <= OsDistribution::COUNT {
                for group in universe.subsets_of_size(k) {
                    let count = index.count_common_in(group, profile, Period::Whole);
                    if best.map(|(_, c)| count < c).unwrap_or(true) {
                        best = Some((group, count));
                    }
                    if worst.map(|(_, c)| count > c).unwrap_or(true) {
                        worst = Some((group, count));
                    }
                }
            }
            rows.push(KWayRow {
                k,
                vulnerabilities_at_least_k: at_least_k,
                best_group: best,
                worst_group: worst,
            });
        }
        KWayAnalysis { profile, rows }
    }

    /// The profile the analysis was run under.
    pub fn profile(&self) -> ServerProfile {
        self.profile
    }

    /// The per-`k` rows, in increasing `k`.
    pub fn rows(&self) -> &[KWayRow] {
        &self.rows
    }

    /// The row for a specific `k`.
    pub fn row(&self, k: usize) -> Option<&KWayRow> {
        self.rows.iter().find(|row| row.k == k)
    }

    /// Renders the k-OS combination analysis (Section IV-B).
    pub fn to_table(&self) -> TextTable {
        let mut table = TextTable::new([
            "k",
            "vulns affecting >= k OSes",
            "best group",
            "best count",
            "worst group",
            "worst count",
        ]);
        for row in self.rows() {
            let (best_group, best_count) = row
                .best_group
                .map(|(set, count)| (set.to_string(), count.to_string()))
                .unwrap_or_default();
            let (worst_group, worst_count) = row
                .worst_group
                .map(|(set, count)| (set.to_string(), count.to_string()))
                .unwrap_or_default();
            table.push_row([
                row.k.to_string(),
                row.vulnerabilities_at_least_k.to_string(),
                best_group,
                best_count,
                worst_group,
                worst_count,
            ]);
        }
        table
    }
}

impl Analysis for KWayAnalysis {
    type Config = KWayConfig;
    type Output = Self;

    fn id() -> AnalysisId {
        AnalysisId::KWay
    }

    fn run(study: &Study, config: &KWayConfig) -> Result<Self, AnalysisError> {
        Ok(Self::compute_impl(
            study.dataset(),
            config.profile,
            config.max_k,
        ))
    }

    fn sections(_study: &Study, analysis: &Self) -> Result<Vec<Section>, AnalysisError> {
        Ok(vec![Section::table(
            "Section IV-B: k-OS combinations",
            analysis.to_table(),
        )])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analysis_sections;
    use crate::params::Params;
    use datagen::CalibratedGenerator;
    use nvd_model::CveId;

    fn calibrated_study() -> Study {
        let dataset = CalibratedGenerator::new(7).generate();
        Study::from_entries(dataset.entries())
    }

    fn kway(study: &Study, profile: ServerProfile, max_k: usize) -> KWayAnalysis {
        study
            .get_with::<KWayAnalysis>(&KWayConfig { profile, max_k })
            .unwrap()
    }

    #[test]
    fn at_least_k_counts_are_monotonically_decreasing() {
        let study = calibrated_study();
        let analysis = kway(&study, ServerProfile::FatServer, 11);
        let counts: Vec<usize> = analysis
            .rows()
            .iter()
            .map(|row| row.vulnerabilities_at_least_k)
            .collect();
        for window in counts.windows(2) {
            assert!(window[0] >= window[1], "counts must decrease: {counts:?}");
        }
        assert_eq!(analysis.profile(), ServerProfile::FatServer);
    }

    #[test]
    fn named_multi_os_vulnerabilities_show_up_in_the_tail() {
        let study = calibrated_study();
        let analysis = kway(&study, ServerProfile::FatServer, 11);
        // Exactly one vulnerability (CVE-2008-4609) affects nine OSes, and
        // two more (DNS and DHCP) affect six.
        assert_eq!(analysis.row(9).unwrap().vulnerabilities_at_least_k, 1);
        assert_eq!(analysis.row(7).unwrap().vulnerabilities_at_least_k, 1);
        assert_eq!(analysis.row(6).unwrap().vulnerabilities_at_least_k, 3);
        assert_eq!(analysis.row(10).unwrap().vulnerabilities_at_least_k, 0);
        // The nine-OS vulnerability is the TCP denial of service.
        let nine = study.store().get_by_cve(CveId::new(2008, 4609)).unwrap();
        assert_eq!(nine.os_set.len(), 9);
    }

    #[test]
    fn best_groups_have_no_more_shared_vulnerabilities_than_worst() {
        let study = calibrated_study();
        let analysis = kway(&study, ServerProfile::IsolatedThinServer, 5);
        for row in analysis.rows() {
            let (best_set, best) = row.best_group.unwrap();
            let (worst_set, worst) = row.worst_group.unwrap();
            assert!(best <= worst, "k={}", row.k);
            assert_eq!(best_set.len(), row.k);
            assert_eq!(worst_set.len(), row.k);
        }
    }

    #[test]
    fn worst_pairs_are_intra_family() {
        let study = calibrated_study();
        let analysis = kway(&study, ServerProfile::FatServer, 2);
        let (worst, _) = analysis.row(2).unwrap().worst_group.unwrap();
        // The worst pair is the Windows 2000 / Windows 2003 pair (253 shared
        // vulnerabilities in the paper).
        assert_eq!(
            worst,
            OsSet::pair(OsDistribution::Windows2000, OsDistribution::Windows2003)
        );
    }

    #[test]
    fn clean_groups_exist_under_the_isolated_profile() {
        let study = calibrated_study();
        let analysis = kway(&study, ServerProfile::IsolatedThinServer, 6);
        // The paper's Section IV-C finds four-OS groups with zero or one
        // common vulnerability; at least a clean pair must exist.
        let pair = analysis.row(2).unwrap();
        assert!(
            matches!(pair.best_group, Some((_, 0))),
            "best pair {:?}",
            pair.best_group
        );
    }

    #[test]
    fn k_larger_than_universe_has_no_groups() {
        let study = calibrated_study();
        let analysis = kway(&study, ServerProfile::FatServer, 12);
        let row = analysis.row(12).unwrap();
        assert!(row.best_group.is_none());
        assert!(row.worst_group.is_none());
        assert_eq!(row.vulnerabilities_at_least_k, 0);
    }

    #[test]
    fn rendered_table_names_best_and_worst_groups() {
        let study = calibrated_study();
        let rendered = study.get::<KWayAnalysis>().unwrap().to_table().render();
        assert!(rendered.contains("worst group"));
    }

    #[test]
    fn sections_with_parses_profile_and_max_k() {
        let study = calibrated_study();
        let params = Params::from_pairs([("profile", "isolated"), ("max_k", "3")]);
        let sections = analysis_sections(&study, AnalysisId::KWay, &params).unwrap();
        match &sections[0].artifact {
            crate::analysis::Artifact::Table(table) => assert_eq!(table.row_count(), 2),
            other => panic!("expected a table, got {other:?}"),
        }
        let typo = Params::from_pairs([("k", "3")]);
        assert!(analysis_sections(&study, AnalysisId::KWay, &typo).is_err());
    }
}
