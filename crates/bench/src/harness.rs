//! Shared helpers for the experiment binaries and Criterion benches.

use datagen::CalibratedGenerator;
use osdiv_core::{Study, StudyDataset};

/// The seed used by every experiment binary so their outputs are mutually
/// consistent (and consistent with EXPERIMENTS.md).
pub const EXPERIMENT_SEED: u64 = 2011;

/// Builds the calibrated study dataset used by every experiment.
pub fn calibrated_study() -> StudyDataset {
    let dataset = CalibratedGenerator::new(EXPERIMENT_SEED).generate();
    StudyDataset::from_entries(dataset.entries())
}

/// Builds a [`Study`] session over the calibrated dataset at the default
/// experiment seed.
pub fn study_session() -> Study {
    study_session_with_seed(EXPERIMENT_SEED)
}

/// Builds a [`Study`] session over the calibrated dataset at an arbitrary
/// seed (the CLI's `--seed` flag).
pub fn study_session_with_seed(seed: u64) -> Study {
    let dataset = CalibratedGenerator::new(seed).generate();
    Study::from_entries(dataset.entries())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_study_has_the_expected_scale() {
        let study = calibrated_study();
        assert!(study.valid_count() > 1500);
        assert!(study.store().vulnerability_count() > study.valid_count());
    }
}
