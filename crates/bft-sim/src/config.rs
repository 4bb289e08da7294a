//! Attacker, patching and recovery model.

use crate::quorum::QuorumModel;

/// The adversary model used by the simulator.
///
/// The paper has no exploit-rate data (Section V discusses this gap at
/// length), so the simulator exposes the two parameters that matter for the
/// diversity argument and lets the experiments sweep them:
///
/// * `exploit_probability` — the probability that a disclosed vulnerability
///   is ever weaponized against the system;
/// * `exposure_days` — how long a weaponized vulnerability remains usable
///   (from disclosure until every affected replica is patched).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackerModel {
    /// Probability that a disclosed vulnerability is weaponized.
    pub exploit_probability: f64,
    /// Days between disclosure and the patching of every affected replica.
    pub exposure_days: f64,
}

impl Default for AttackerModel {
    fn default() -> Self {
        // The defaults keep *independent* compromises of different replicas
        // rare over a five-year window, so the dominant failure mode is the
        // one the paper studies: a single vulnerability shared by several
        // replicas. Experiments sweep these parameters explicitly.
        AttackerModel {
            exploit_probability: 0.10,
            exposure_days: 10.0,
        }
    }
}

impl AttackerModel {
    /// Validates the model parameters.
    ///
    /// # Panics
    ///
    /// Panics if the probability is outside `[0, 1]` or the exposure is
    /// negative (programming errors in experiment code).
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.exploit_probability),
            "exploit probability must be in [0, 1]"
        );
        assert!(self.exposure_days >= 0.0, "exposure must be non-negative");
    }
}

/// Full configuration of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationConfig {
    /// Number of Monte-Carlo trials.
    pub trials: usize,
    /// PRNG seed (each trial derives its own stream from it).
    pub seed: u64,
    /// The replication model (determines how many compromised replicas the
    /// system tolerates).
    pub quorum: QuorumModel,
    /// The attacker model.
    pub attacker: AttackerModel,
    /// Proactive recovery period in days: compromised replicas are restored
    /// to a clean state at every multiple of this period. `None` disables
    /// recovery (a compromised replica stays compromised until patching).
    pub recovery_period_days: Option<f64>,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig {
            trials: 200,
            seed: 42,
            quorum: QuorumModel::ThreeFPlusOne,
            attacker: AttackerModel::default(),
            recovery_period_days: None,
        }
    }
}

impl SimulationConfig {
    /// Sets the number of trials.
    pub fn with_trials(mut self, trials: usize) -> Self {
        self.trials = trials;
        self
    }

    /// Sets the PRNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the attacker model.
    pub fn with_attacker(mut self, attacker: AttackerModel) -> Self {
        self.attacker = attacker;
        self
    }

    /// Sets the quorum model.
    pub fn with_quorum(mut self, quorum: QuorumModel) -> Self {
        self.quorum = quorum;
        self
    }

    /// Enables proactive recovery with the given period in days.
    pub fn with_recovery_period(mut self, days: f64) -> Self {
        self.recovery_period_days = Some(days);
        self
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on invalid attacker parameters, a zero trial count or a
    /// recovery period that is not positive.
    pub fn validate(&self) {
        self.attacker.validate();
        assert!(self.trials > 0, "at least one trial is required");
        if let Some(period) = self.recovery_period_days {
            assert!(period > 0.0, "recovery period must be positive");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_configuration_is_valid() {
        SimulationConfig::default().validate();
    }

    #[test]
    fn builder_methods_set_fields() {
        let config = SimulationConfig::default()
            .with_trials(10)
            .with_seed(9)
            .with_quorum(QuorumModel::TwoFPlusOne)
            .with_recovery_period(7.0)
            .with_attacker(AttackerModel {
                exploit_probability: 0.5,
                exposure_days: 10.0,
            });
        config.validate();
        assert_eq!(config.trials, 10);
        assert_eq!(config.seed, 9);
        assert_eq!(config.quorum, QuorumModel::TwoFPlusOne);
        assert_eq!(config.recovery_period_days, Some(7.0));
        assert_eq!(config.attacker.exploit_probability, 0.5);
        assert_eq!(config.attacker.exposure_days, 10.0);
    }

    #[test]
    #[should_panic(expected = "exploit probability")]
    fn invalid_probability_is_rejected() {
        SimulationConfig::default()
            .with_attacker(AttackerModel {
                exploit_probability: 1.5,
                exposure_days: 30.0,
            })
            .validate();
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_are_rejected() {
        SimulationConfig::default().with_trials(0).validate();
    }
}
