//! History / observed period analysis (Table V).
//!
//! The paper splits the data set into a *history* period (1994–2005, two
//! thirds of the valid vulnerabilities) used to select replica groups, and
//! an *observed* period (2006–2010) used to validate the selection. Table V
//! reports, for every pair of the eight OSes with enough history data, the
//! common Isolated Thin Server vulnerabilities in each period.

use nvd_model::{OsDistribution, OsSet};
use tabular::TextTable;

use crate::analysis::{Analysis, AnalysisError, AnalysisId, Section};
use crate::dataset::{Period, ServerProfile, StudyDataset};
use crate::study::Study;

/// The eight OSes of Table V (Ubuntu, OpenSolaris and Windows 2008 are
/// excluded for lack of meaningful history-period data).
pub const TABLE5_OSES: [OsDistribution; 8] = [
    OsDistribution::OpenBsd,
    OsDistribution::NetBsd,
    OsDistribution::FreeBsd,
    OsDistribution::Solaris,
    OsDistribution::Debian,
    OsDistribution::RedHat,
    OsDistribution::Windows2000,
    OsDistribution::Windows2003,
];

/// The Table V reproduction: a symmetric matrix of per-pair counts for the
/// history and observed periods.
#[derive(Debug, Clone)]
pub struct SplitMatrix {
    oses: Vec<OsDistribution>,
    profile: ServerProfile,
    /// `history[i][j]` = common vulnerabilities of (oses[i], oses[j]) in the
    /// history period (diagonal entries hold the per-OS totals).
    history: Vec<Vec<usize>>,
    observed: Vec<Vec<usize>>,
}

/// Configuration of the history/observed split: which OSes the matrix
/// covers and under which profile. The default reproduces Table V.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitConfig {
    /// The OSes of the matrix, in row/column order.
    pub oses: Vec<OsDistribution>,
    /// The server profile counts are taken under.
    pub profile: ServerProfile,
}

impl Default for SplitConfig {
    fn default() -> Self {
        SplitConfig {
            oses: TABLE5_OSES.to_vec(),
            profile: ServerProfile::IsolatedThinServer,
        }
    }
}

impl SplitMatrix {
    fn compute_impl(study: &StudyDataset, oses: &[OsDistribution], profile: ServerProfile) -> Self {
        // Every cell is an O(1) lookup against the memoized count index.
        let index = study.count_index();
        let count = |group: OsSet, period: Period| index.count_common_in(group, profile, period);
        let n = oses.len();
        let mut history = vec![vec![0usize; n]; n];
        let mut observed = vec![vec![0usize; n]; n];
        for (i, &a) in oses.iter().enumerate() {
            for (j, &b) in oses.iter().enumerate() {
                let group = if i == j {
                    OsSet::singleton(a)
                } else {
                    OsSet::pair(a, b)
                };
                history[i][j] = count(group, Period::History);
                observed[i][j] = count(group, Period::Observed);
            }
        }
        SplitMatrix {
            oses: oses.to_vec(),
            profile,
            history,
            observed,
        }
    }

    /// The OSes covered by the matrix, in row/column order.
    pub fn oses(&self) -> &[OsDistribution] {
        &self.oses
    }

    /// The profile the matrix was computed under.
    pub fn profile(&self) -> ServerProfile {
        self.profile
    }

    fn index_of(&self, os: OsDistribution) -> Option<usize> {
        self.oses.iter().position(|o| *o == os)
    }

    /// Common vulnerabilities of a pair (or per-OS total when `a == b`) in a
    /// period. Returns `None` when an OS is not part of the matrix.
    pub fn count(&self, a: OsDistribution, b: OsDistribution, period: Period) -> Option<usize> {
        let i = self.index_of(a)?;
        let j = self.index_of(b)?;
        match period {
            Period::History => Some(self.history[i][j]),
            Period::Observed => Some(self.observed[i][j]),
            Period::Whole => Some(self.history[i][j] + self.observed[i][j]),
        }
    }

    /// Renders Table V (history vs observed common vulnerabilities): history
    /// counts above the diagonal, observed counts below, `###` on the
    /// diagonal.
    pub fn to_table(&self) -> TextTable {
        let oses = self.oses();
        let mut header: Vec<String> = vec!["".to_string()];
        header.extend(oses.iter().map(|os| os.short_name().to_string()));
        let mut table = TextTable::new(header);
        for (i, &row_os) in oses.iter().enumerate() {
            let mut cells = vec![row_os.short_name().to_string()];
            for (j, &col_os) in oses.iter().enumerate() {
                let cell = if i == j {
                    "###".to_string()
                } else if j > i {
                    self.count(row_os, col_os, Period::History)
                        .expect("matrix covers its own OSes")
                        .to_string()
                } else {
                    self.count(row_os, col_os, Period::Observed)
                        .expect("matrix covers its own OSes")
                        .to_string()
                };
                cells.push(cell);
            }
            table.push_row(cells);
        }
        table
    }
}

impl Analysis for SplitMatrix {
    type Config = SplitConfig;
    type Output = Self;

    fn id() -> AnalysisId {
        AnalysisId::Split
    }

    fn run(study: &Study, config: &SplitConfig) -> Result<Self, AnalysisError> {
        Ok(Self::compute_impl(
            study.dataset(),
            &config.oses,
            config.profile,
        ))
    }

    fn sections(_study: &Study, matrix: &Self) -> Result<Vec<Section>, AnalysisError> {
        Ok(vec![Section::table(
            "Table V: history vs observed",
            matrix.to_table(),
        )])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analysis_sections;
    use crate::params::Params;
    use datagen::calibration::table5_cell;
    use datagen::CalibratedGenerator;

    fn calibrated_study() -> Study {
        let dataset = CalibratedGenerator::new(8).generate();
        Study::from_entries(dataset.entries())
    }

    #[test]
    fn matrix_reproduces_table5_within_the_calibration_slack() {
        let study = calibrated_study();
        let matrix = study.get::<SplitMatrix>().unwrap();
        assert_eq!(matrix.oses().len(), 8);
        assert_eq!(matrix.profile(), ServerProfile::IsolatedThinServer);
        for (i, &a) in TABLE5_OSES.iter().enumerate() {
            for &b in TABLE5_OSES.iter().skip(i + 1) {
                let expected = table5_cell(a, b).unwrap();
                let history = matrix.count(a, b, Period::History).unwrap();
                let observed = matrix.count(a, b, Period::Observed).unwrap();
                assert!(
                    history.abs_diff(expected.history as usize) <= 3,
                    "{a}-{b} history: measured {history}, paper {}",
                    expected.history
                );
                assert!(
                    observed.abs_diff(expected.observed as usize) <= 3,
                    "{a}-{b} observed: measured {observed}, paper {}",
                    expected.observed
                );
            }
        }
    }

    #[test]
    fn matrix_is_symmetric() {
        let study = calibrated_study();
        let matrix = study.get::<SplitMatrix>().unwrap();
        for &a in matrix.oses() {
            for &b in matrix.oses() {
                for period in [Period::History, Period::Observed, Period::Whole] {
                    assert_eq!(
                        matrix.count(a, b, period),
                        matrix.count(b, a, period),
                        "{a}-{b} {period:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn whole_period_is_the_sum_of_both_halves() {
        let study = calibrated_study();
        let matrix = study.get::<SplitMatrix>().unwrap();
        let a = OsDistribution::Windows2000;
        let b = OsDistribution::Windows2003;
        let whole = matrix.count(a, b, Period::Whole).unwrap();
        let history = matrix.count(a, b, Period::History).unwrap();
        let observed = matrix.count(a, b, Period::Observed).unwrap();
        assert_eq!(whole, history + observed);
    }

    #[test]
    fn diagonal_holds_per_os_totals() {
        let study = calibrated_study();
        let matrix = study.get::<SplitMatrix>().unwrap();
        let debian_history = matrix
            .count(
                OsDistribution::Debian,
                OsDistribution::Debian,
                Period::History,
            )
            .unwrap();
        let debian_observed = matrix
            .count(
                OsDistribution::Debian,
                OsDistribution::Debian,
                Period::Observed,
            )
            .unwrap();
        // The paper: Debian had 16 remotely exploitable base-system
        // vulnerabilities in the history period and 9 in the observed one.
        assert!(debian_history.abs_diff(16) <= 3, "history {debian_history}");
        assert!(
            debian_observed.abs_diff(9) <= 3,
            "observed {debian_observed}"
        );
    }

    #[test]
    fn unknown_os_returns_none() {
        let study = calibrated_study();
        let matrix = study.get::<SplitMatrix>().unwrap();
        assert_eq!(
            matrix.count(
                OsDistribution::Ubuntu,
                OsDistribution::Debian,
                Period::History
            ),
            None
        );
    }

    #[test]
    fn most_diverse_pair_has_a_small_history_count() {
        let study = calibrated_study();
        let matrix = study.get::<SplitMatrix>().unwrap();
        let oses = matrix.oses();
        let fewest = oses
            .iter()
            .enumerate()
            .flat_map(|(i, &a)| oses[i + 1..].iter().map(move |&b| (a, b)))
            .map(|(a, b)| matrix.count(a, b, Period::History).unwrap())
            .min()
            .unwrap();
        assert!(fewest <= 1, "the most diverse pair has {fewest} common");
    }

    #[test]
    fn rendered_table_marks_the_diagonal() {
        let study = calibrated_study();
        let table = study.get::<SplitMatrix>().unwrap().to_table();
        assert_eq!(table.row_count(), TABLE5_OSES.len());
        assert_eq!(table.render().matches("###").count(), TABLE5_OSES.len());
    }

    #[test]
    fn sections_with_parses_oses_and_profile() {
        let study = calibrated_study();
        let params = Params::from_pairs([("oses", "debian,redhat"), ("profile", "fat")]);
        let sections = analysis_sections(&study, AnalysisId::Split, &params).unwrap();
        assert_eq!(sections.len(), 1);
        match &sections[0].artifact {
            crate::analysis::Artifact::Table(table) => assert_eq!(table.row_count(), 2),
            other => panic!("expected a table, got {other:?}"),
        }
        let typo = Params::from_pairs([("nope", "1")]);
        assert!(analysis_sections(&study, AnalysisId::Split, &typo).is_err());
    }
}
