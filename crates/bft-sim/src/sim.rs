//! The Monte-Carlo simulation engine.
//!
//! Each trial replays the vulnerability disclosure timeline of the dataset
//! against a replica configuration:
//!
//! 1. every base-system, remotely exploitable vulnerability published in the
//!    observed period (2006–2010) is weaponized with probability
//!    `attacker.exploit_probability`;
//! 2. a weaponized vulnerability compromises every replica whose OS it
//!    affects, from its disclosure date until patching
//!    (`attacker.exposure_days` later), optionally truncated by proactive
//!    recovery;
//! 3. the trial fails at the first instant when more than `f` replicas are
//!    compromised simultaneously (`f` is derived from the replica count and
//!    the quorum model).
//!
//! Trials are independent: they split over one scoped thread per CPU, and
//! the report does not depend on the split.

use nvd_model::Date;
use osdiv_core::{Period, ServerProfile, StudyDataset};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::SimulationConfig;
use crate::metrics::SurvivalReport;
use crate::quorum::ReplicaSet;

/// A vulnerability relevant to the simulation: its disclosure time (in days
/// from the period start) and the replicas it compromises.
#[derive(Debug, Clone)]
struct Threat {
    disclosed_day: f64,
    affected_replicas: Vec<usize>,
}

/// The simulator: a dataset plus a configuration, reusable across replica
/// configurations (the expensive part — extracting the threat timeline — is
/// done once per replica set).
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    study: &'a StudyDataset,
    config: SimulationConfig,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`SimulationConfig::validate`]).
    pub fn new(study: &'a StudyDataset, config: SimulationConfig) -> Self {
        config.validate();
        Simulator { study, config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// Runs the Monte-Carlo simulation for one replica configuration.
    pub fn run(&self, replicas: &ReplicaSet) -> SurvivalReport {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.run_on(replicas, cpus.min(self.config.trials))
    }

    /// [`Simulator::run`] with the trials split over `workers` scoped
    /// threads.
    fn run_on(&self, replicas: &ReplicaSet, workers: usize) -> SurvivalReport {
        let faults_tolerated = self.config.quorum.faults_tolerated(replicas.len());
        let threats = self.collect_threats(replicas);
        let trials = self.config.trials;
        let chunk = trials.div_ceil(workers);
        let results = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for worker in 0..workers {
                let start = worker * chunk;
                let end = (start + chunk).min(trials);
                let threats = &threats;
                handles.push(scope.spawn(move || {
                    let mut local_failures = Vec::new();
                    let mut local_peak = 0.0f64;
                    for trial in start..end {
                        let (failure, peak) = self.run_trial(trial, threats, faults_tolerated);
                        if let Some(day) = failure {
                            local_failures.push((trial, day));
                        }
                        local_peak += peak as f64;
                    }
                    (local_failures, local_peak)
                }));
            }
            handles
                .into_iter()
                .map(|handle| handle.join().expect("simulation worker panicked"))
                .collect::<Vec<_>>()
        });
        let mut failures: Vec<(usize, f64)> = Vec::new();
        let mut peak_sum = 0.0f64;
        for (local_failures, local_peak) in results {
            failures.extend(local_failures);
            peak_sum += local_peak;
        }
        // Deterministic ordering regardless of the thread interleaving.
        failures.sort_by_key(|a| a.0);
        let times: Vec<f64> = failures.into_iter().map(|(_, day)| day).collect();
        let mean_peak = peak_sum / trials as f64;
        SurvivalReport::new(replicas, faults_tolerated, trials, times, mean_peak)
    }

    /// Runs the simulation for several configurations and returns the
    /// reports in the same order.
    pub fn compare(&self, configurations: &[ReplicaSet]) -> Vec<SurvivalReport> {
        configurations.iter().map(|set| self.run(set)).collect()
    }

    /// Extracts the threat timeline relevant to a replica configuration:
    /// Isolated-Thin-Server-relevant vulnerabilities published in the
    /// observed period that affect at least one replica.
    fn collect_threats(&self, replicas: &ReplicaSet) -> Vec<Threat> {
        let period_start = Date::from_year(Period::Observed.years().0);
        let mut threats = Vec::new();
        for row in self.study.store().rows() {
            if !self.study.retains(row, ServerProfile::IsolatedThinServer) {
                continue;
            }
            if !Period::Observed.contains(row.year()) {
                continue;
            }
            let affected: Vec<usize> = replicas
                .replicas()
                .iter()
                .enumerate()
                .filter(|(_, os)| row.os_set.contains(**os))
                .map(|(index, _)| index)
                .collect();
            if affected.is_empty() {
                continue;
            }
            threats.push(Threat {
                disclosed_day: row.published.days_since(&period_start) as f64,
                affected_replicas: affected,
            });
        }
        threats.sort_by(|a, b| {
            a.disclosed_day
                .partial_cmp(&b.disclosed_day)
                .expect("days are finite")
        });
        threats
    }

    /// Runs one trial; returns the failure time (if the system failed) and
    /// the peak number of simultaneously compromised replicas.
    fn run_trial(
        &self,
        trial: usize,
        threats: &[Threat],
        faults_tolerated: usize,
    ) -> (Option<f64>, usize) {
        let mut rng = StdRng::seed_from_u64(
            self.config
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(trial as u64),
        );
        // Build per-replica compromise intervals.
        let mut intervals: Vec<(f64, f64, usize)> = Vec::new();
        for threat in threats {
            if !rng.gen_bool(self.config.attacker.exploit_probability) {
                continue;
            }
            let start = threat.disclosed_day;
            let mut end = start + self.config.attacker.exposure_days;
            if let Some(period) = self.config.recovery_period_days {
                // Proactive recovery restores the replica at the next
                // recovery boundary after the compromise started.
                let next_boundary = ((start / period).floor() + 1.0) * period;
                end = end.min(next_boundary);
            }
            for &replica in &threat.affected_replicas {
                intervals.push((start, end, replica));
            }
        }
        if intervals.is_empty() {
            return (None, 0);
        }
        // Sweep over interval endpoints counting simultaneously compromised
        // replicas (a replica covered by several overlapping intervals is
        // counted once).
        let mut events: Vec<(f64, i32, usize)> = Vec::with_capacity(intervals.len() * 2);
        for &(start, end, replica) in &intervals {
            events.push((start, 1, replica));
            events.push((end, -1, replica));
        }
        events.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("days are finite")
                .then(a.1.cmp(&b.1))
        });
        let replica_count = 1 + intervals.iter().map(|(_, _, r)| *r).max().unwrap_or(0);
        let mut per_replica = vec![0i32; replica_count];
        let mut compromised = 0usize;
        let mut peak = 0usize;
        let mut failure_day = None;
        for (day, delta, replica) in events {
            if delta > 0 {
                if per_replica[replica] == 0 {
                    compromised += 1;
                }
                per_replica[replica] += 1;
            } else {
                per_replica[replica] -= 1;
                if per_replica[replica] == 0 {
                    compromised -= 1;
                }
            }
            peak = peak.max(compromised);
            if failure_day.is_none() && compromised > faults_tolerated {
                failure_day = Some(day);
            }
        }
        (failure_day, peak)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AttackerModel;
    use crate::quorum::QuorumModel;
    use datagen::CalibratedGenerator;
    use nvd_model::{OsDistribution, OsSet};

    fn calibrated_study() -> StudyDataset {
        let dataset = CalibratedGenerator::new(21).generate();
        StudyDataset::from_entries(dataset.entries())
    }

    fn certain_attacker() -> AttackerModel {
        AttackerModel {
            exploit_probability: 1.0,
            exposure_days: 30.0,
        }
    }

    #[test]
    fn homogeneous_configuration_fails_when_every_exploit_lands() {
        let study = calibrated_study();
        let config = SimulationConfig::default()
            .with_trials(20)
            .with_attacker(certain_attacker());
        let simulator = Simulator::new(&study, config);
        let report = simulator.run(&ReplicaSet::homogeneous(OsDistribution::Debian, 4));
        // Debian had remotely exploitable vulnerabilities in 2006-2010, and
        // each compromises all four replicas at once.
        assert_eq!(report.failure_probability(), 1.0);
        assert!(report.mean_time_to_failure_days().is_some());
        assert!(report.mean_peak_compromised() >= 4.0 - 1e-9);
    }

    #[test]
    fn diverse_configuration_survives_better_than_homogeneous() {
        let study = calibrated_study();
        let config = SimulationConfig::default().with_trials(60).with_seed(3);
        let simulator = Simulator::new(&study, config);
        let homogeneous = simulator.run(&ReplicaSet::homogeneous(OsDistribution::Debian, 4));
        let diverse = simulator.run(&ReplicaSet::diverse(OsSet::from_iter([
            OsDistribution::Windows2003,
            OsDistribution::Solaris,
            OsDistribution::Debian,
            OsDistribution::OpenBsd,
        ])));
        assert!(
            diverse.failure_probability() < homogeneous.failure_probability(),
            "diverse {} vs homogeneous {}",
            diverse.failure_probability(),
            homogeneous.failure_probability()
        );
    }

    #[test]
    fn zero_exploit_probability_means_no_failures() {
        let study = calibrated_study();
        let config = SimulationConfig::default()
            .with_trials(10)
            .with_attacker(AttackerModel {
                exploit_probability: 0.0,
                exposure_days: 30.0,
            });
        let simulator = Simulator::new(&study, config);
        let report = simulator.run(&ReplicaSet::homogeneous(OsDistribution::Windows2000, 4));
        assert_eq!(report.failure_probability(), 0.0);
        assert_eq!(report.mean_peak_compromised(), 0.0);
    }

    #[test]
    fn results_are_deterministic_for_a_seed_and_thread_count_independent() {
        let study = calibrated_study();
        let config = SimulationConfig::default().with_trials(30).with_seed(11);
        let simulator = Simulator::new(&study, config);
        let set = ReplicaSet::diverse(OsSet::from_iter([
            OsDistribution::OpenBsd,
            OsDistribution::NetBsd,
            OsDistribution::Debian,
            OsDistribution::RedHat,
        ]));
        // One worker and four split the trials differently; the reports,
        // failure times included, are identical.
        let one = simulator.run_on(&set, 1);
        assert!(one.failures() > 0);
        assert_eq!(simulator.run_on(&set, 4), one);
        assert_eq!(simulator.run(&set), one);
    }

    #[test]
    fn proactive_recovery_reduces_exposure() {
        let study = calibrated_study();
        let base = SimulationConfig::default()
            .with_trials(40)
            .with_seed(5)
            .with_attacker(AttackerModel {
                exploit_probability: 0.6,
                exposure_days: 90.0,
            });
        let set = ReplicaSet::diverse(OsSet::from_iter([
            OsDistribution::Windows2003,
            OsDistribution::Solaris,
            OsDistribution::RedHat,
            OsDistribution::NetBsd,
        ]));
        let without = Simulator::new(&study, base.clone()).run(&set);
        let with = Simulator::new(&study, base.with_recovery_period(7.0)).run(&set);
        assert!(
            with.failure_probability() <= without.failure_probability(),
            "recovery {} vs none {}",
            with.failure_probability(),
            without.failure_probability()
        );
    }

    #[test]
    fn two_f_plus_one_is_more_fragile_than_three_f_plus_one_for_same_size() {
        // With four replicas, 3f+1 tolerates one compromise and 2f+1 also
        // tolerates one ((4-1)/2 = 1), but with three replicas 2f+1
        // tolerates one while 3f+1 tolerates none.
        let study = calibrated_study();
        let config = SimulationConfig::default().with_trials(30).with_seed(8);
        let three_replicas = ReplicaSet::diverse(OsSet::from_iter([
            OsDistribution::OpenBsd,
            OsDistribution::Solaris,
            OsDistribution::Windows2003,
        ]));
        let strict = Simulator::new(&study, config.clone()).run(&three_replicas);
        let relaxed = Simulator::new(&study, config.with_quorum(QuorumModel::TwoFPlusOne))
            .run(&three_replicas);
        assert!(relaxed.failure_probability() <= strict.failure_probability());
        assert_eq!(strict.faults_tolerated(), 0);
        assert_eq!(relaxed.faults_tolerated(), 1);
    }

    #[test]
    fn compare_returns_one_report_per_configuration() {
        let study = calibrated_study();
        let simulator = Simulator::new(&study, SimulationConfig::default().with_trials(5));
        let sets = vec![
            ReplicaSet::homogeneous(OsDistribution::Debian, 4),
            ReplicaSet::homogeneous(OsDistribution::Windows2000, 4),
        ];
        let reports = simulator.compare(&sets);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].label(), "Debian x4");
    }
}
