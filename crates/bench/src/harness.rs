//! Shared constants for the experiment binaries and Criterion benches,
//! and the tests' temporary directory. The calibrated session itself is
//! built by [`osdiv_registry::build_synthetic`], as the server builds its
//! datasets.

use std::path::{Path, PathBuf};

/// The seed used by every experiment binary so their outputs are mutually
/// consistent (and consistent with EXPERIMENTS.md).
pub const EXPERIMENT_SEED: u64 = 2011;

/// An empty directory named with a tag and the process id, so two test
/// runs at once never share it, and removed when dropped (also when an
/// assertion fails).
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates `<temp dir>/osdiv-<tag>-<pid>`, removing whatever an
    /// earlier process with the same id left there.
    pub fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("osdiv-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("the temp dir is created");
        TempDir(dir)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

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
