//! Replica-group selection and validation (Section IV-C, Figure 3).
//!
//! The paper's methodology: use the *history* period (1994–2005) to choose
//! the replica OSes of an intrusion-tolerant system, then check on the
//! *observed* period (2006–2010) how many common vulnerabilities the chosen
//! group actually had. This module implements both the selection (exhaustive
//! search over groups, with a configurable scoring criterion) and the
//! Figure 3 evaluation of specific configurations.

use std::sync::Arc;

use nvd_model::{OsDistribution, OsSet};
use tabular::TextTable;

use crate::analysis::{Analysis, AnalysisError, AnalysisId, Section};
use crate::dataset::{Period, ServerProfile, StudyDataset};
use crate::index::CountIndex;
use crate::split::TABLE5_OSES;
use crate::study::Study;

/// How candidate replica groups are scored during selection (lower is
/// better in both cases).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionCriterion {
    /// Sum of the pairwise common-vulnerability counts inside the group —
    /// the quantity Table V exposes and the paper's narrative uses.
    PairwiseSum,
    /// Number of distinct vulnerabilities affecting at least two members of
    /// the group — the attacker-centric view (one such vulnerability
    /// compromises two replicas at once).
    DistinctShared,
}

impl std::str::FromStr for SelectionCriterion {
    type Err = AnalysisError;

    /// Parses the parameter spellings of the two criteria
    /// (`pairwise-sum` / `distinct-shared`, separators optional).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let normalized: String = s
            .chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .collect::<String>()
            .to_ascii_lowercase();
        match normalized.as_str() {
            "pairwisesum" | "pairwise" => Ok(SelectionCriterion::PairwiseSum),
            "distinctshared" | "distinct" => Ok(SelectionCriterion::DistinctShared),
            _ => Err(AnalysisError::UnknownCriterion(s.to_string())),
        }
    }
}

/// The evaluation of one replica configuration over both periods.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigurationOutcome {
    /// Display label (e.g. `Set1`).
    pub label: String,
    /// The replica OSes (a singleton set means four identical replicas).
    pub oses: OsSet,
    /// Score over the history period.
    pub history: usize,
    /// Score over the observed period.
    pub observed: usize,
}

/// Replica-group selection over a dataset.
#[derive(Debug, Clone)]
pub struct ReplicaSelection {
    /// The dataset's memoized count index: every score is a lookup.
    index: Arc<CountIndex>,
    profile: ServerProfile,
    criterion: SelectionCriterion,
    candidates: Vec<OsDistribution>,
}

impl ReplicaSelection {
    /// Creates a selection over the paper's eight history-rich OSes, the
    /// Isolated Thin Server profile and the distinct-shared criterion (the
    /// paper's narrative counts *vulnerabilities* — "this set would only
    /// have one vulnerability affecting two of the replicas" — so a
    /// vulnerability shared by three replicas is counted once, not three
    /// times).
    pub fn new(study: &StudyDataset) -> Self {
        ReplicaSelection {
            index: study.count_index(),
            profile: ServerProfile::IsolatedThinServer,
            criterion: SelectionCriterion::DistinctShared,
            candidates: TABLE5_OSES.to_vec(),
        }
    }

    /// An O(1) indexed common count.
    fn common(&self, group: OsSet, period: Period) -> usize {
        self.index.count_common_in(group, self.profile, period)
    }

    /// Restricts or widens the candidate OS pool.
    pub fn with_candidates(mut self, candidates: &[OsDistribution]) -> Self {
        self.candidates = candidates.to_vec();
        self
    }

    /// Changes the server profile.
    pub fn with_profile(mut self, profile: ServerProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Changes the scoring criterion.
    pub fn with_criterion(mut self, criterion: SelectionCriterion) -> Self {
        self.criterion = criterion;
        self
    }

    /// Scores a group over a period under the configured criterion.
    pub fn score(&self, group: OsSet, period: Period) -> usize {
        match self.criterion {
            SelectionCriterion::PairwiseSum => {
                if group.len() <= 1 {
                    // Four identical replicas: every vulnerability of the OS
                    // is common to all of them.
                    return self.common(group, period);
                }
                let members: Vec<OsDistribution> = group.iter().collect();
                let mut sum = 0;
                for (i, &a) in members.iter().enumerate() {
                    for &b in members.iter().skip(i + 1) {
                        sum += self.common(OsSet::pair(a, b), period);
                    }
                }
                sum
            }
            SelectionCriterion::DistinctShared => {
                self.index.count_shared_within(group, self.profile, period)
            }
        }
    }

    /// Evaluates a configuration over both periods.
    pub fn evaluate(&self, label: impl Into<String>, oses: OsSet) -> ConfigurationOutcome {
        ConfigurationOutcome {
            label: label.into(),
            oses,
            history: self.score(oses, Period::History),
            observed: self.score(oses, Period::Observed),
        }
    }

    /// Exhaustively searches for the `top` best groups of `size` replicas
    /// according to the **history-period** score (the information available
    /// at deployment time), returning them with their history scores in
    /// ascending order.
    pub fn best_groups(&self, size: usize, top: usize) -> Vec<(OsSet, usize)> {
        let pool: OsSet = self.candidates.iter().copied().collect();
        let mut scored: Vec<(OsSet, usize)> = pool
            .subsets_of_size(size)
            .map(|group| (group, self.score(group, Period::History)))
            .collect();
        scored.sort_by_key(|(group, score)| (*score, group.bits()));
        scored.truncate(top);
        scored
    }

    /// The single OS with the fewest history-period vulnerabilities — the
    /// paper's baseline of four identical replicas ("the best strategy for
    /// this scenario would be to pick the OS with the least vulnerabilities
    /// during the history period").
    pub fn best_single_os(&self) -> (OsDistribution, usize) {
        self.candidates
            .iter()
            .map(|&os| (os, self.common(OsSet::singleton(os), Period::History)))
            .min_by_key(|(os, count)| (*count, os.index()))
            .expect("candidate pool is never empty")
    }

    /// Reproduces Figure 3: the homogeneous baseline (four replicas of the
    /// best single OS) plus the paper's four diverse configurations,
    /// evaluated over both periods.
    pub fn figure3(&self) -> Vec<ConfigurationOutcome> {
        let mut outcomes = Vec::new();
        let (best_os, _) = self.best_single_os();
        outcomes.push(self.evaluate(best_os.short_name(), OsSet::singleton(best_os)));
        for (label, oses) in figure3_configurations() {
            outcomes.push(self.evaluate(label, oses));
        }
        outcomes
    }
}

/// Configuration of the selection analysis. The default reproduces the
/// paper's Section IV-C methodology: the eight history-rich OSes, the
/// Isolated Thin Server profile, the distinct-shared criterion, and a
/// ranking of the five best four-OS groups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectionConfig {
    /// The server profile groups are scored under.
    pub profile: ServerProfile,
    /// How candidate groups are scored.
    pub criterion: SelectionCriterion,
    /// The candidate OS pool.
    pub candidates: Vec<OsDistribution>,
    /// The replica-group size to rank.
    pub group_size: usize,
    /// How many top groups to keep in the ranking.
    pub top: usize,
}

impl Default for SelectionConfig {
    fn default() -> Self {
        SelectionConfig {
            profile: ServerProfile::IsolatedThinServer,
            criterion: SelectionCriterion::DistinctShared,
            candidates: TABLE5_OSES.to_vec(),
            group_size: 4,
            top: 5,
        }
    }
}

/// The owned output of the selection analysis: the Figure 3 configuration
/// outcomes plus the history-ranked best groups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectionAnalysis {
    outcomes: Vec<ConfigurationOutcome>,
    ranked_groups: Vec<(OsSet, usize)>,
}

impl SelectionAnalysis {
    /// The Figure 3 outcomes: the homogeneous baseline followed by the four
    /// diverse configurations.
    pub fn outcomes(&self) -> &[ConfigurationOutcome] {
        &self.outcomes
    }

    /// The best groups of the configured size, ranked by ascending
    /// history-period score.
    pub fn ranked_groups(&self) -> &[(OsSet, usize)] {
        &self.ranked_groups
    }

    /// Renders the Figure 3 table.
    pub fn to_table(&self) -> TextTable {
        figure3_table(&self.outcomes)
    }

    /// Renders the group ranking as a table.
    pub fn ranking_table(&self) -> TextTable {
        let mut table = TextTable::new(["Group", "History score"]);
        for (group, score) in &self.ranked_groups {
            table.push_row([group.to_string(), score.to_string()]);
        }
        table
    }
}

impl Analysis for SelectionAnalysis {
    type Config = SelectionConfig;
    type Output = Self;

    fn id() -> AnalysisId {
        AnalysisId::Selection
    }

    fn run(study: &Study, config: &SelectionConfig) -> Result<Self, AnalysisError> {
        let selection = ReplicaSelection::new(study.dataset())
            .with_candidates(&config.candidates)
            .with_profile(config.profile)
            .with_criterion(config.criterion);
        Ok(SelectionAnalysis {
            outcomes: selection.figure3(),
            ranked_groups: selection.best_groups(config.group_size, config.top),
        })
    }

    /// The configuration outcomes plus the group ranking.
    fn sections(_study: &Study, analysis: &Self) -> Result<Vec<Section>, AnalysisError> {
        Ok(vec![
            Section::table("Figure 3: replica configurations", analysis.to_table()),
            Section::table(
                "Best four-OS groups ranked from history data",
                analysis.ranking_table(),
            ),
        ])
    }
}

/// Renders Figure 3 (replica configurations, history vs observed counts).
pub fn figure3_table(outcomes: &[ConfigurationOutcome]) -> TextTable {
    let mut table = TextTable::new(["Configuration", "OSes", "History", "Observed"]);
    for outcome in outcomes {
        let oses = if outcome.oses.len() == 1 {
            format!("{} x4 (homogeneous)", outcome.oses)
        } else {
            outcome.oses.to_string()
        };
        table.push_row([
            outcome.label.clone(),
            oses,
            outcome.history.to_string(),
            outcome.observed.to_string(),
        ]);
    }
    table
}

/// The four diverse replica configurations of Figure 3 of the paper
/// (the homogeneous Debian baseline is derived from the data by
/// [`ReplicaSelection::best_single_os`]).
pub fn figure3_configurations() -> Vec<(&'static str, OsSet)> {
    use OsDistribution::*;
    vec![
        (
            "Set1",
            OsSet::from_iter([Windows2003, Solaris, Debian, OpenBsd]),
        ),
        (
            "Set2",
            OsSet::from_iter([Windows2003, Solaris, Debian, NetBsd]),
        ),
        (
            "Set3",
            OsSet::from_iter([Windows2003, Solaris, RedHat, NetBsd]),
        ),
        ("Set4", OsSet::from_iter([OpenBsd, NetBsd, Debian, RedHat])),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::CalibratedGenerator;

    fn calibrated_study() -> StudyDataset {
        let dataset = CalibratedGenerator::new(9).generate();
        StudyDataset::from_entries(dataset.entries())
    }

    #[test]
    fn best_single_os_is_debian() {
        let study = calibrated_study();
        let selection = ReplicaSelection::new(&study);
        let (os, history) = selection.best_single_os();
        // The paper: "Debian would be the best choice because it only had 16
        // vulnerabilities that could be remotely exploited" in the history
        // period.
        assert_eq!(os, OsDistribution::Debian);
        assert!(history.abs_diff(16) <= 3, "history count {history}");
    }

    #[test]
    fn diverse_sets_beat_the_homogeneous_baseline_in_the_observed_period() {
        let study = calibrated_study();
        let selection = ReplicaSelection::new(&study);
        let outcomes = selection.figure3();
        assert_eq!(outcomes.len(), 5);
        let baseline = &outcomes[0];
        assert_eq!(baseline.oses.len(), 1);
        // The paper's point: the diverse configurations selected from
        // history data have far fewer observed-period common
        // vulnerabilities than four identical replicas. Set4 (BSD+Linux
        // only) is the weakest set and sits close to the baseline in our
        // calibrated data, so the requirement is: most sets win, and the
        // best one wins by a wide margin.
        let better = outcomes[1..]
            .iter()
            .filter(|o| o.observed < baseline.observed)
            .count();
        assert!(
            better >= 3,
            "only {better} of 4 diverse sets beat the baseline"
        );
        let best = outcomes[1..].iter().map(|o| o.observed).min().unwrap();
        assert!(
            best * 2 < baseline.observed,
            "best diverse set ({best}) should be well below the baseline ({})",
            baseline.observed
        );
        for diverse in &outcomes[1..] {
            assert_eq!(diverse.oses.len(), 4);
        }
    }

    #[test]
    fn set1_has_at_most_a_few_observed_common_vulnerabilities() {
        let study = calibrated_study();
        let selection = ReplicaSelection::new(&study);
        let outcomes = selection.figure3();
        let set1 = outcomes.iter().find(|o| o.label == "Set1").unwrap();
        // The paper: Set1 had a single common vulnerability in the observed
        // period (OpenBSD / Windows 2003); the calibration adds the named
        // multi-OS vulnerabilities of 2007/2008 on top of that.
        assert!(set1.observed <= 5, "Set1 observed = {}", set1.observed);
    }

    #[test]
    fn best_groups_are_sorted_and_have_the_requested_size() {
        let study = calibrated_study();
        let selection = ReplicaSelection::new(&study);
        let best = selection.best_groups(4, 5);
        assert_eq!(best.len(), 5);
        for window in best.windows(2) {
            assert!(window[0].1 <= window[1].1);
        }
        for (group, _) in &best {
            assert_eq!(group.len(), 4);
        }
        // The best four-OS groups found from history data share at most a
        // handful of vulnerabilities (the paper's top sets have 10-14).
        assert!(best[0].1 <= 20, "best history score {}", best[0].1);
    }

    #[test]
    fn top_groups_mix_families() {
        let study = calibrated_study();
        let selection = ReplicaSelection::new(&study);
        let (best_group, _) = selection.best_groups(4, 1)[0];
        let families: std::collections::HashSet<_> =
            best_group.iter().map(|os| os.family()).collect();
        assert!(
            families.len() >= 3,
            "the best group should span families, got {best_group}"
        );
    }

    #[test]
    fn distinct_shared_criterion_counts_each_vulnerability_once() {
        let study = calibrated_study();
        let pairwise =
            ReplicaSelection::new(&study).with_criterion(SelectionCriterion::PairwiseSum);
        let distinct =
            ReplicaSelection::new(&study).with_criterion(SelectionCriterion::DistinctShared);
        // Set4. A vulnerability shared by three members counts three times
        // in the pairwise sum but once in the distinct count.
        let group = figure3_configurations()[3].1;
        let (distinct, pairwise) = (
            distinct.score(group, Period::Whole),
            pairwise.score(group, Period::Whole),
        );
        assert!(
            distinct < pairwise,
            "distinct {distinct}, pairwise {pairwise}"
        );
    }

    #[test]
    fn six_os_group_with_few_common_vulnerabilities_exists() {
        // The paper: "it is possible to build a set of six operating systems
        // with few vulnerabilities" (OpenBSD, NetBSD, Windows 2003, Debian,
        // RedHat, Solaris).
        let study = calibrated_study();
        let selection = ReplicaSelection::new(&study);
        let best = selection.best_groups(6, 1);
        assert_eq!(best.len(), 1);
        let (group, history_score) = best[0];
        assert_eq!(group.len(), 6);
        assert!(
            history_score <= 40,
            "six-OS history score {history_score} too large"
        );
    }

    #[test]
    fn wider_candidate_pool_is_allowed() {
        let study = calibrated_study();
        let selection = ReplicaSelection::new(&study)
            .with_candidates(&OsDistribution::ALL)
            .with_profile(ServerProfile::ThinServer);
        let best = selection.best_groups(3, 2);
        assert_eq!(best.len(), 2);
    }
}
