//! Pairwise common-vulnerability analysis (Tables III and IV, and the
//! summary findings of Section IV-E).

use nvd_model::{OsDistribution, OsPart, OsSet};
use tabular::TextTable;

use crate::analysis::{Analysis, AnalysisError, AnalysisId, Section};
use crate::classes::ClassDistribution;
use crate::dataset::{Period, ServerProfile, StudyDataset};
use crate::index::CountIndex;
use crate::study::Study;

/// One row of the Table III reproduction: an OS pair with its per-OS totals
/// and common counts under the three profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairRow {
    /// First OS of the pair.
    pub a: OsDistribution,
    /// Second OS of the pair.
    pub b: OsDistribution,
    /// `v(A)` under (Fat, Thin, Isolated Thin).
    pub v_a: (usize, usize, usize),
    /// `v(B)` under (Fat, Thin, Isolated Thin).
    pub v_b: (usize, usize, usize),
    /// `v(AB)` under (Fat, Thin, Isolated Thin).
    pub v_ab: (usize, usize, usize),
}

impl PairRow {
    /// The common count under a specific profile.
    pub fn common(&self, profile: ServerProfile) -> usize {
        match profile {
            ServerProfile::FatServer => self.v_ab.0,
            ServerProfile::ThinServer => self.v_ab.1,
            ServerProfile::IsolatedThinServer => self.v_ab.2,
        }
    }
}

/// One row of the Table IV reproduction: the per-class breakdown of the
/// Isolated Thin Server common vulnerabilities of a pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartBreakdownRow {
    /// First OS of the pair.
    pub a: OsDistribution,
    /// Second OS of the pair.
    pub b: OsDistribution,
    /// Shared driver vulnerabilities.
    pub driver: usize,
    /// Shared kernel vulnerabilities.
    pub kernel: usize,
    /// Shared system-software vulnerabilities.
    pub system_software: usize,
}

impl PartBreakdownRow {
    /// Total shared Isolated Thin Server vulnerabilities of the pair.
    pub fn total(&self) -> usize {
        self.driver + self.kernel + self.system_software
    }
}

/// The Section IV-E summary statistics derived from the pairwise analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairwiseSummary {
    /// Number of OS pairs analysed (55 for the 11 studied OSes).
    pub pair_count: usize,
    /// Average relative reduction of common vulnerabilities when going from
    /// the Fat Server to the Isolated Thin Server configuration (the paper
    /// reports 56% on average). Pairs with zero Fat Server common
    /// vulnerabilities are excluded from the average.
    pub average_reduction: f64,
    /// Aggregate reduction: one minus the ratio between the total number of
    /// Isolated Thin Server common vulnerabilities (summed over pairs) and
    /// the total number of Fat Server common vulnerabilities. Less sensitive
    /// than `average_reduction` to pairs with very few vulnerabilities.
    pub total_reduction: f64,
    /// Number of pairs with at most one common vulnerability in the
    /// Isolated Thin Server configuration (the paper reports more than 50%
    /// of the 55 pairs).
    pub pairs_with_at_most_one_common: usize,
    /// Number of pairs with zero common vulnerabilities in the Fat Server
    /// configuration.
    pub pairs_with_no_common_at_all: usize,
}

/// The full pairwise analysis.
#[derive(Debug, Clone)]
pub struct PairwiseAnalysis {
    rows: Vec<PairRow>,
    breakdown: Vec<PartBreakdownRow>,
}

/// Configuration of the pairwise analysis: which OSes to pair up. The
/// default covers the paper's 11 distributions; the three server profiles
/// are always computed side by side (they are the columns of Table III).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairwiseConfig {
    /// The OSes whose pairs are analysed.
    pub oses: Vec<OsDistribution>,
}

impl Default for PairwiseConfig {
    fn default() -> Self {
        PairwiseConfig {
            oses: OsDistribution::ALL.to_vec(),
        }
    }
}

impl PairwiseAnalysis {
    fn compute_impl(study: &StudyDataset, oses: &[OsDistribution]) -> Self {
        let index = study.count_index();
        let totals: Vec<(OsDistribution, (usize, usize, usize))> = oses
            .iter()
            .map(|&os| (os, per_profile_totals(&index, OsSet::singleton(os))))
            .collect();
        // Table IV in a single pass over the store: instead of one
        // row-returning scan per pair (55 scans for the full study), walk
        // the retained Isolated Thin Server rows once and credit every
        // configured pair inside each row's affected set. Position of each
        // OS in the configured order (None: not part of this run).
        let mut position = [None; OsDistribution::COUNT];
        for (i, os) in oses.iter().enumerate() {
            position[os.index()] = Some(i);
        }
        let configured: OsSet = oses.iter().copied().collect();
        let n = oses.len();
        let mut part_counts = vec![[0usize; 3]; n * n];
        for row in study.store().rows() {
            // A row meeting fewer than two configured OSes credits no
            // pair: skip it before the costlier `retains` lookup.
            if row.os_set.intersection(configured).len() < 2
                || !study.retains(row, ServerProfile::IsolatedThinServer)
                || !Period::Whole.contains(row.year())
            {
                continue;
            }
            let part = match row.part {
                Some(OsPart::Driver) => 0,
                Some(OsPart::Kernel) => 1,
                Some(OsPart::SystemSoftware) => 2,
                _ => continue,
            };
            let members: Vec<usize> = row
                .os_set
                .iter()
                .filter_map(|os| position[os.index()])
                .collect();
            for (i, &pi) in members.iter().enumerate() {
                for &pj in members.iter().skip(i + 1) {
                    let (lo, hi) = (pi.min(pj), pi.max(pj));
                    part_counts[lo * n + hi][part] += 1;
                }
            }
        }
        let mut rows = Vec::new();
        let mut breakdown = Vec::new();
        for (i, &(a, v_a)) in totals.iter().enumerate() {
            for (j, &(b, v_b)) in totals.iter().enumerate().skip(i + 1) {
                let pair = OsSet::pair(a, b);
                let v_ab = per_profile_totals(&index, pair);
                rows.push(PairRow {
                    a,
                    b,
                    v_a,
                    v_b,
                    v_ab,
                });

                let [driver, kernel, system_software] = part_counts[i * n + j];
                let row = PartBreakdownRow {
                    a,
                    b,
                    driver,
                    kernel,
                    system_software,
                };
                if row.total() > 0 {
                    breakdown.push(row);
                }
            }
        }
        // Table IV is sorted by descending total.
        breakdown.sort_by_key(|row| std::cmp::Reverse(row.total()));
        PairwiseAnalysis { rows, breakdown }
    }

    /// The Table III rows (one per pair, in the paper's OS order).
    pub fn rows(&self) -> &[PairRow] {
        &self.rows
    }

    /// The Table IV rows (pairs with a non-zero Isolated Thin Server total,
    /// sorted by descending total).
    pub fn part_breakdown(&self) -> &[PartBreakdownRow] {
        &self.breakdown
    }

    /// The row of a specific pair (in either order).
    pub fn pair(&self, a: OsDistribution, b: OsDistribution) -> Option<&PairRow> {
        self.rows
            .iter()
            .find(|row| (row.a == a && row.b == b) || (row.a == b && row.b == a))
    }

    /// The Section IV-E summary statistics.
    pub fn summary(&self) -> PairwiseSummary {
        let mut reduction_sum = 0.0;
        let mut reduction_count = 0usize;
        let mut at_most_one = 0usize;
        let mut none_at_all = 0usize;
        let mut fat_total = 0usize;
        let mut isolated_total = 0usize;
        for row in &self.rows {
            let fat = row.v_ab.0;
            let isolated = row.v_ab.2;
            fat_total += fat;
            isolated_total += isolated;
            if fat > 0 {
                reduction_sum += 1.0 - (isolated as f64 / fat as f64);
                reduction_count += 1;
            } else {
                none_at_all += 1;
            }
            if isolated <= 1 {
                at_most_one += 1;
            }
        }
        PairwiseSummary {
            pair_count: self.rows.len(),
            average_reduction: if reduction_count == 0 {
                0.0
            } else {
                reduction_sum / reduction_count as f64
            },
            total_reduction: if fat_total == 0 {
                0.0
            } else {
                1.0 - isolated_total as f64 / fat_total as f64
            },
            pairs_with_at_most_one_common: at_most_one,
            pairs_with_no_common_at_all: none_at_all,
        }
    }

    /// Renders Table III (pairwise common vulnerabilities under the three
    /// filters).
    pub fn to_table3(&self) -> TextTable {
        let mut table = TextTable::new([
            "Pair (A-B)",
            "v(A) all",
            "v(B) all",
            "v(AB) all",
            "v(A) noapp",
            "v(B) noapp",
            "v(AB) noapp",
            "v(A) its",
            "v(B) its",
            "v(AB) its",
        ]);
        for row in self.rows() {
            table.push_row([
                format!("{}-{}", row.a.short_name(), row.b.short_name()),
                row.v_a.0.to_string(),
                row.v_b.0.to_string(),
                row.v_ab.0.to_string(),
                row.v_a.1.to_string(),
                row.v_b.1.to_string(),
                row.v_ab.1.to_string(),
                row.v_a.2.to_string(),
                row.v_b.2.to_string(),
                row.v_ab.2.to_string(),
            ]);
        }
        table
    }

    /// Renders Table IV (common vulnerabilities on Isolated Thin Servers,
    /// broken down by OS part).
    pub fn to_table4(&self) -> TextTable {
        let mut table = TextTable::new(["OS Pairs", "Driver", "Kernel", "Sys. Soft.", "Total"]);
        for row in self.part_breakdown() {
            table.push_row([
                format!("{}-{}", row.a.short_name(), row.b.short_name()),
                row.driver.to_string(),
                row.kernel.to_string(),
                row.system_software.to_string(),
                row.total().to_string(),
            ]);
        }
        table
    }

    /// Renders the Section IV-E summary findings. `valid_count` is the
    /// number of distinct valid vulnerabilities of the study and
    /// `driver_share` the driver-class percentage of Table II (both come
    /// from sibling analyses — see [`summary_section`] for the composed
    /// variant).
    pub fn summary_table(&self, valid_count: usize, driver_share: f64) -> TextTable {
        let summary = self.summary();
        let mut table = TextTable::new(["Finding", "Value"]);
        table.push_row([
            "Distinct valid vulnerabilities".to_string(),
            valid_count.to_string(),
        ]);
        table.push_row([
            "OS pairs analysed".to_string(),
            summary.pair_count.to_string(),
        ]);
        table.push_row([
            "Average reduction Fat -> Isolated Thin (per pair)".to_string(),
            format!("{:.0}%", summary.average_reduction * 100.0),
        ]);
        table.push_row([
            "Total reduction Fat -> Isolated Thin (summed)".to_string(),
            format!("{:.0}%", summary.total_reduction * 100.0),
        ]);
        table.push_row([
            "Pairs with <= 1 common vuln (Isolated Thin)".to_string(),
            summary.pairs_with_at_most_one_common.to_string(),
        ]);
        table.push_row([
            "Pairs with no common vuln at all".to_string(),
            summary.pairs_with_no_common_at_all.to_string(),
        ]);
        table.push_row([
            "Driver share of all vulnerabilities".to_string(),
            format!("{driver_share:.1}%"),
        ]);
        table
    }
}

impl Analysis for PairwiseAnalysis {
    type Config = PairwiseConfig;
    type Output = Self;

    fn id() -> AnalysisId {
        AnalysisId::Pairwise
    }

    fn run(study: &Study, config: &PairwiseConfig) -> Result<Self, AnalysisError> {
        Ok(Self::compute_impl(study.dataset(), &config.oses))
    }

    /// Tables III and IV plus the Section IV-E summary.
    fn sections(study: &Study, analysis: &Self) -> Result<Vec<Section>, AnalysisError> {
        let mut sections = tables_of(analysis);
        sections.push(summary_of(study, analysis)?);
        Ok(sections)
    }
}

/// The Table III and Table IV sections of one analysis value.
fn tables_of(analysis: &PairwiseAnalysis) -> Vec<Section> {
    vec![
        Section::table(
            "Table III: pairwise common vulnerabilities",
            analysis.to_table3(),
        ),
        Section::table(
            "Table IV: isolated thin server breakdown",
            analysis.to_table4(),
        ),
    ]
}

/// The Section IV-E summary of one analysis value, composed with the
/// memoized class distribution and the dataset's valid count.
fn summary_of(study: &Study, analysis: &PairwiseAnalysis) -> Result<Section, AnalysisError> {
    let classes = study.get::<ClassDistribution>()?;
    let table = analysis.summary_table(
        study.dataset().valid_count(),
        classes.class_percentage(OsPart::Driver),
    );
    Ok(Section::table("Section IV-E: summary", table))
}

/// The Table III and Table IV sections (the analysis's report
/// contribution).
pub(crate) fn table_sections(study: &Study) -> Result<Vec<Section>, AnalysisError> {
    let analysis = study.get::<PairwiseAnalysis>()?;
    Ok(tables_of(&analysis))
}

/// The Section IV-E summary, composed from the memoized pairwise and class
/// analyses plus the dataset's valid count.
pub(crate) fn summary_section(study: &Study) -> Result<Section, AnalysisError> {
    let pairwise = study.get::<PairwiseAnalysis>()?;
    summary_of(study, &pairwise)
}

/// The 1994–2010 common counts of `group` under the three profiles.
fn per_profile_totals(index: &CountIndex, group: OsSet) -> (usize, usize, usize) {
    let common = |profile| index.count_common_in(group, profile, Period::Whole);
    (
        common(ServerProfile::FatServer),
        common(ServerProfile::ThinServer),
        common(ServerProfile::IsolatedThinServer),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::CalibratedGenerator;
    use nvd_model::{CveId, CvssV2, Date, OsPart, VulnerabilityEntry};

    fn study_from_paper_calibration() -> Study {
        let dataset = CalibratedGenerator::new(3).generate();
        Study::from_entries(dataset.entries())
    }

    #[test]
    fn produces_55_pairs_for_the_full_study() {
        let study = study_from_paper_calibration();
        let analysis = study.get::<PairwiseAnalysis>().unwrap();
        assert_eq!(analysis.rows().len(), 55);
    }

    #[test]
    fn filters_are_monotone_for_every_pair() {
        let study = study_from_paper_calibration();
        let analysis = study.get::<PairwiseAnalysis>().unwrap();
        for row in analysis.rows() {
            assert!(row.v_ab.0 >= row.v_ab.1);
            assert!(row.v_ab.1 >= row.v_ab.2);
            assert!(
                row.v_a.0 >= row.v_ab.0,
                "common cannot exceed per-OS totals"
            );
            assert!(row.v_b.0 >= row.v_ab.0);
            assert_eq!(row.common(ServerProfile::FatServer), row.v_ab.0);
        }
    }

    #[test]
    fn reproduces_the_calibrated_pair_counts() {
        let study = study_from_paper_calibration();
        let analysis = study.get::<PairwiseAnalysis>().unwrap();
        // Spot-check a few pairs against the paper's Table III (the
        // generator can exceed them by at most the named-vulnerability
        // slack of 2).
        let cases = [
            (
                OsDistribution::OpenBsd,
                OsDistribution::NetBsd,
                (40, 32, 16),
            ),
            (OsDistribution::Debian, OsDistribution::RedHat, (61, 26, 11)),
            (
                OsDistribution::Windows2000,
                OsDistribution::Windows2003,
                (253, 116, 81),
            ),
            (OsDistribution::NetBsd, OsDistribution::Ubuntu, (0, 0, 0)),
        ];
        for (a, b, (all, no_app, its)) in cases {
            let row = analysis.pair(a, b).unwrap();
            assert!(
                row.v_ab.0 >= all && row.v_ab.0 <= all + 2,
                "{a}-{b} all {:?}",
                row.v_ab
            );
            assert!(
                row.v_ab.1 >= no_app && row.v_ab.1 <= no_app + 2,
                "{a}-{b} noapp"
            );
            assert!(row.v_ab.2 >= its && row.v_ab.2 <= its + 2, "{a}-{b} its");
        }
    }

    #[test]
    fn part_breakdown_totals_match_isolated_counts() {
        let study = study_from_paper_calibration();
        let analysis = study.get::<PairwiseAnalysis>().unwrap();
        for row in analysis.part_breakdown() {
            let pair = analysis.pair(row.a, row.b).unwrap();
            assert_eq!(row.total(), pair.v_ab.2, "{}-{}", row.a, row.b);
            assert!(row.total() > 0);
        }
        // Sorted by descending total, and the largest pair is Win2000-Win2003.
        let first = &analysis.part_breakdown()[0];
        assert_eq!(
            OsSet::pair(first.a, first.b),
            OsSet::pair(OsDistribution::Windows2000, OsDistribution::Windows2003)
        );
    }

    #[test]
    fn summary_reproduces_the_papers_findings() {
        let study = study_from_paper_calibration();
        let summary = study.get::<PairwiseAnalysis>().unwrap().summary();
        assert_eq!(summary.pair_count, 55);
        // Finding 1: ~56% average reduction from Fat to Isolated Thin.
        assert!(
            (0.40..=0.75).contains(&summary.average_reduction),
            "average reduction {:.2} outside the expected band",
            summary.average_reduction
        );
        assert!(
            (0.45..=0.75).contains(&summary.total_reduction),
            "total reduction {:.2} outside the expected band",
            summary.total_reduction
        );
        // Finding 2: more than 50% of the pairs have at most one common
        // vulnerability after filtering.
        assert!(
            summary.pairs_with_at_most_one_common * 2 > summary.pair_count,
            "{} of {} pairs",
            summary.pairs_with_at_most_one_common,
            summary.pair_count
        );
    }

    #[test]
    fn compute_for_a_subset_only_produces_those_pairs() {
        let study = study_from_paper_calibration();
        let analysis = study
            .get_with::<PairwiseAnalysis>(&PairwiseConfig {
                oses: vec![
                    OsDistribution::Debian,
                    OsDistribution::RedHat,
                    OsDistribution::Ubuntu,
                ],
            })
            .unwrap();
        assert_eq!(analysis.rows().len(), 3);
        assert!(analysis
            .pair(OsDistribution::Debian, OsDistribution::Windows2000)
            .is_none());
    }

    #[test]
    fn empty_dataset_yields_zero_summary() {
        let study = Study::new(StudyDataset::new());
        let analysis = study.get::<PairwiseAnalysis>().unwrap();
        let summary = analysis.summary();
        assert_eq!(summary.average_reduction, 0.0);
        assert_eq!(summary.total_reduction, 0.0);
        assert_eq!(summary.pairs_with_no_common_at_all, 55);
    }

    #[test]
    fn handmade_dataset_matches_hand_computed_counts() {
        use OsDistribution::*;
        let entries = vec![
            VulnerabilityEntry::builder(CveId::new(2005, 1))
                .published(Date::new(2005, 1, 1).unwrap())
                .part(OsPart::Kernel)
                .cvss(CvssV2::typical_remote())
                .affects_os(OpenBsd)
                .affects_os(FreeBsd)
                .build()
                .unwrap(),
            VulnerabilityEntry::builder(CveId::new(2005, 2))
                .published(Date::new(2005, 1, 2).unwrap())
                .part(OsPart::Application)
                .cvss(CvssV2::typical_remote())
                .affects_os(OpenBsd)
                .affects_os(FreeBsd)
                .build()
                .unwrap(),
        ];
        let study = Study::from_entries(&entries);
        let analysis = study
            .get_with::<PairwiseAnalysis>(&PairwiseConfig {
                oses: vec![OpenBsd, FreeBsd],
            })
            .unwrap();
        let row = analysis.pair(OpenBsd, FreeBsd).unwrap();
        assert_eq!(row.v_ab, (2, 1, 1));
        let breakdown = analysis.part_breakdown();
        assert_eq!(breakdown.len(), 1);
        assert_eq!(breakdown[0].kernel, 1);
        assert_eq!(breakdown[0].driver, 0);
    }
}
