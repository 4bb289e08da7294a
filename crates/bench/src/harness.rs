//! Shared constants for the experiment binaries and Criterion benches.
//! The calibrated session itself is built by
//! [`osdiv_registry::build_synthetic`], as the server builds its datasets.

/// The seed used by every experiment binary so their outputs are mutually
/// consistent (and consistent with EXPERIMENTS.md).
pub const EXPERIMENT_SEED: u64 = 2011;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_study_has_the_expected_scale() {
        let study = osdiv_registry::build_synthetic(EXPERIMENT_SEED);
        assert!(study.valid_count() > 1500);
        assert!(study.store().vulnerability_count() > study.valid_count());
    }
}
