//! The [`Study`] session: a [`StudyDataset`] plus a memoizing, thread-safe
//! analysis cache.
//!
//! A `Study` is the one object user code needs: build it from entries (or an
//! existing dataset), then ask for analyses by type. Results computed under
//! the default configuration are cached behind a `parking_lot` lock and
//! shared via [`Arc`], so repeated lookups — and the composed analyses that
//! reuse each other's outputs — pay for each computation once.
//! [`Study::run_all`] warms the cache with the whole registry, one analysis
//! after another.

use std::any::Any;
use std::collections::HashMap;
use std::ops::Deref;
use std::sync::Arc;

use nvd_model::VulnerabilityEntry;
use parking_lot::RwLock;

use crate::analysis::{registry, Analysis, AnalysisError, AnalysisId, Section};
use crate::dataset::StudyDataset;
use crate::render::{renderer, Format};

/// A study session: the dataset plus the memoized analysis results.
///
/// # Example
///
/// ```
/// use datagen::CalibratedGenerator;
/// use osdiv_core::{PairwiseAnalysis, Study};
///
/// let dataset = CalibratedGenerator::new(1).generate();
/// let study = Study::from_entries(dataset.entries());
/// let pairwise = study.get::<PairwiseAnalysis>().unwrap();
/// assert_eq!(pairwise.rows().len(), 55);
/// // The second lookup returns the cached value.
/// let again = study.get::<PairwiseAnalysis>().unwrap();
/// assert!(std::sync::Arc::ptr_eq(&pairwise, &again));
/// ```
#[derive(Debug, Default)]
pub struct Study {
    dataset: StudyDataset,
    cache: RwLock<HashMap<AnalysisId, Arc<dyn Any + Send + Sync>>>,
}

impl Study {
    /// Wraps an existing dataset in a session.
    pub fn new(dataset: StudyDataset) -> Self {
        Study {
            dataset,
            cache: RwLock::new(HashMap::new()),
        }
    }

    /// Builds a session from parsed entries (duplicates are merged by CVE
    /// identifier, exactly like [`StudyDataset::from_entries`]).
    pub fn from_entries(entries: &[VulnerabilityEntry]) -> Self {
        Study::new(StudyDataset::from_entries(entries))
    }

    /// The underlying dataset. `Study` also derefs to [`StudyDataset`], so
    /// the filtered queries (`count_common`, `retains`, …) are available
    /// directly on the session.
    pub fn dataset(&self) -> &StudyDataset {
        &self.dataset
    }

    /// Consumes the session and returns the dataset, dropping the cache.
    pub fn into_dataset(self) -> StudyDataset {
        self.dataset
    }

    /// Runs an analysis under its **default** configuration, memoizing the
    /// result: the first call computes, every later call returns the same
    /// [`Arc`]. Concurrent first calls may compute twice, but all callers
    /// observe one winning value.
    pub fn get<A: Analysis>(&self) -> Result<Arc<A::Output>, AnalysisError> {
        let id = A::id();
        if let Some(hit) = self.cache.read().get(&id) {
            return Ok(Arc::clone(hit)
                .downcast::<A::Output>()
                .expect("cache entries hold their analysis's output type"));
        }
        let computed: Arc<A::Output> = Arc::new(A::run(self, &A::Config::default())?);
        let mut cache = self.cache.write();
        let winner = cache
            .entry(id)
            .or_insert_with(|| computed as Arc<dyn Any + Send + Sync>);
        Ok(Arc::clone(winner)
            .downcast::<A::Output>()
            .expect("cache entries hold their analysis's output type"))
    }

    /// Runs an analysis under an explicit configuration. Non-default runs
    /// are **not** cached — they are what-if queries, and caching them would
    /// require hashing every config type.
    pub fn get_with<A: Analysis>(&self, config: &A::Config) -> Result<A::Output, AnalysisError> {
        A::run(self, config)
    }

    /// Whether an analysis result is already memoized.
    pub fn is_cached(&self, id: AnalysisId) -> bool {
        self.cache.read().contains_key(&id)
    }

    /// The ids with memoized results, in registry order.
    pub fn cached_ids(&self) -> Vec<AnalysisId> {
        let cache = self.cache.read();
        AnalysisId::ALL
            .into_iter()
            .filter(|id| cache.contains_key(id))
            .collect()
    }

    /// Drops every memoized result (e.g. after mutating the dataset through
    /// [`Study::dataset_mut`]).
    pub fn invalidate(&self) {
        self.cache.write().clear();
    }

    /// Mutable access to the dataset. Invalidates the cache, since every
    /// memoized result may depend on the mutated rows.
    pub fn dataset_mut(&mut self) -> &mut StudyDataset {
        self.invalidate();
        &mut self.dataset
    }

    /// Runs **every** registered analysis under its default configuration,
    /// in registry order on the calling thread, each under an
    /// [`Analysis`](crate::obs::SpanKind::Analysis) span nested in the
    /// caller's current span. Stops at the first error. After this returns
    /// `Ok`, every [`AnalysisId`] is memoized and later `get` calls are
    /// lock-read cheap.
    pub fn run_all(&self) -> Result<(), AnalysisError> {
        for entry in registry() {
            let _span = crate::obs::span(crate::obs::SpanKind::Analysis, entry.id.name());
            (entry.prime)(self)?;
        }
        Ok(())
    }

    /// The section sequence of the combined report (see
    /// [`crate::analysis::report_sections`]).
    pub fn report_sections(&self) -> Result<Vec<Section>, AnalysisError> {
        crate::analysis::report_sections(self)
    }

    /// Renders the combined report in the requested format. The text format
    /// reproduces the historical `report::full_report` byte for byte.
    pub fn report(&self, format: Format) -> Result<String, AnalysisError> {
        Ok(renderer(format).document(&self.report_sections()?))
    }
}

// The serving layer shares one pre-warmed session across worker threads
// behind an `Arc<Study>`; keep that contract checked at compile time.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Study>();
};

impl Deref for Study {
    type Target = StudyDataset;

    fn deref(&self) -> &StudyDataset {
        &self.dataset
    }
}

impl From<StudyDataset> for Study {
    fn from(dataset: StudyDataset) -> Self {
        Study::new(dataset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::ValidityDistribution;
    use crate::pairwise::PairwiseAnalysis;
    use crate::temporal::{TemporalAnalysis, TemporalConfig};
    use datagen::CalibratedGenerator;

    fn calibrated_session() -> Study {
        let dataset = CalibratedGenerator::new(12).generate();
        Study::from_entries(dataset.entries())
    }

    #[test]
    fn get_memoizes_by_pointer_identity() {
        let study = calibrated_session();
        assert!(!study.is_cached(AnalysisId::Pairwise));
        let first = study.get::<PairwiseAnalysis>().unwrap();
        assert!(study.is_cached(AnalysisId::Pairwise));
        let second = study.get::<PairwiseAnalysis>().unwrap();
        assert!(Arc::ptr_eq(&first, &second));
    }

    #[test]
    fn get_with_is_uncached_and_config_driven() {
        let study = calibrated_session();
        let narrow = study
            .get_with::<TemporalAnalysis>(&TemporalConfig {
                first_year: 2000,
                last_year: 2005,
            })
            .unwrap();
        assert_eq!(narrow.first_year(), 2000);
        assert!(!study.is_cached(AnalysisId::Temporal));
        let invalid = study.get_with::<TemporalAnalysis>(&TemporalConfig {
            first_year: 2010,
            last_year: 1993,
        });
        assert_eq!(
            invalid.unwrap_err(),
            AnalysisError::InvalidYearRange {
                first: 2010,
                last: 1993
            }
        );
    }

    #[test]
    fn run_all_memoizes_every_registered_analysis() {
        let study = calibrated_session();
        study.run_all().unwrap();
        assert_eq!(study.cached_ids(), AnalysisId::ALL.to_vec());
    }

    #[test]
    fn deref_exposes_the_dataset_queries() {
        let study = calibrated_session();
        assert!(study.valid_count() > 1500);
        assert_eq!(study.dataset().valid_count(), study.valid_count());
    }

    #[test]
    fn dataset_mut_invalidates_the_cache() {
        let mut study = calibrated_session();
        let _ = study.get::<ValidityDistribution>().unwrap();
        assert!(study.is_cached(AnalysisId::Validity));
        let _ = study.dataset_mut();
        assert!(!study.is_cached(AnalysisId::Validity));
        assert!(study.cached_ids().is_empty());
    }

    #[test]
    fn text_report_contains_every_section() {
        let study = calibrated_session();
        let report = study.report(crate::render::Format::Text).unwrap();
        for section in [
            "Table I",
            "Table II",
            "Table III",
            "Table IV",
            "Table V",
            "Table VI",
            "Figure 2 (BSD family)",
            "Figure 2 (Windows family)",
            "k-OS combinations",
            "summary",
        ] {
            assert!(report.contains(section), "missing section {section}");
        }
    }

    #[test]
    fn concurrent_gets_agree_on_one_value() {
        let study = calibrated_session();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| study.get::<PairwiseAnalysis>().unwrap()))
                .collect();
            let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            for pair in results.windows(2) {
                assert!(Arc::ptr_eq(&pair[0], &pair[1]));
            }
        });
    }
}
