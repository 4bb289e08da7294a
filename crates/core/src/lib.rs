//! OS-diversity analysis for intrusion tolerance — the core library of the
//! reproduction of Garcia et al., *"OS diversity for intrusion tolerance:
//! Myth or reality?"* (DSN 2011).
//!
//! The crate answers the paper's central question — *what are the gains of
//! applying OS diversity in a replicated intrusion-tolerant system?* — from
//! a vulnerability dataset, through a small session API:
//!
//! * [`Study`] wraps a [`StudyDataset`] and runs analyses on demand,
//!   **memoizing** each default-configuration result; [`Study::run_all`]
//!   warms the whole registry in turn;
//! * [`Analysis`] is the trait every deliverable implements: a typed
//!   `Config` (whose `Default` is the paper's setup and which parses from
//!   [`Params`]), an `Output`, a pure `run` over the session, and
//!   `sections`, which presents an output to the renderers. Analyses
//!   compose — the Section IV-E summary reuses the memoized pairwise and
//!   class results;
//! * [`AnalysisId`] names the eight registered analyses; the
//!   [`analysis::registry`] drives the combined report, the HTTP API and
//!   the `osdiv` CLI through [`analysis_sections`], so a new analysis plugs
//!   into all three with one entry;
//! * [`render`] holds the pluggable output sinks: every table and figure
//!   renders as aligned text, CSV or JSON through the
//!   [`Render`] trait.
//!
//! The eight analyses map to the paper as follows: [`ValidityDistribution`]
//! (Table I), [`ClassDistribution`] (Table II), [`PairwiseAnalysis`]
//! (Tables III/IV and the Section IV-E summary), [`SplitMatrix`] (Table V),
//! [`ReleaseAnalysis`] (Table VI), [`TemporalAnalysis`] (Figure 2),
//! [`KWayAnalysis`] (Section IV-B) and [`SelectionAnalysis`] (Section IV-C,
//! Figure 3).
//!
//! # Example
//!
//! ```
//! use datagen::CalibratedGenerator;
//! use osdiv_core::{AnalysisId, Format, PairwiseAnalysis, Study};
//!
//! let dataset = CalibratedGenerator::new(1).generate();
//! let study = Study::from_entries(dataset.entries());
//!
//! // Typed, memoized analysis lookup.
//! let pairwise = study.get::<PairwiseAnalysis>().unwrap();
//! assert_eq!(pairwise.rows().len(), 55);
//! assert!(study.is_cached(AnalysisId::Pairwise));
//!
//! // Custom configurations are what-if queries.
//! use osdiv_core::TemporalConfig;
//! let window = study
//!     .get_with::<osdiv_core::TemporalAnalysis>(&TemporalConfig {
//!         first_year: 2000,
//!         last_year: 2005,
//!     })
//!     .unwrap();
//! assert_eq!(window.last_year(), 2005);
//!
//! // The whole report, in any format, from a warmed cache.
//! study.run_all().unwrap();
//! let json = study.report(Format::Json).unwrap();
//! assert!(json.starts_with("{\"sections\":["));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod classes;
pub mod dataset;
pub mod index;
pub mod kway;
pub mod obs;
pub mod pairwise;
pub mod params;
pub mod releases;
pub mod render;
pub mod selection;
pub mod snapshot;
pub mod split;
pub mod study;
pub mod temporal;

pub use analysis::{
    analysis_sections, registry, registry_entry, registry_section, registry_table, Analysis,
    AnalysisEntry, AnalysisError, AnalysisId, Artifact, Section,
};
pub use classes::{ClassDistribution, ValidityDistribution};
pub use dataset::{Period, ServerProfile, StudyDataset};
pub use index::CountIndex;
pub use kway::{KWayAnalysis, KWayConfig, KWayRow};
pub use obs::{
    EventLog, FlightRecorder, HistogramSnapshot, JsonLine, LatencyHistogram, RingSnapshot,
    SpanGuard, SpanKind, SpanRecord,
};
pub use pairwise::{PairRow, PairwiseAnalysis, PairwiseConfig, PairwiseSummary, PartBreakdownRow};
pub use params::{FromParams, Params};
pub use releases::{ReleaseAnalysis, ReleaseConfig, ReleasePairRow};
pub use render::{renderer, CsvRenderer, Format, JsonRenderer, Render, TextRenderer};
pub use selection::{
    figure3_configurations, figure3_table, ConfigurationOutcome, ReplicaSelection,
    SelectionAnalysis, SelectionConfig, SelectionCriterion,
};
pub use snapshot::{Snapshot, SnapshotError, SnapshotInfo};
pub use split::{SplitConfig, SplitMatrix};
pub use study::Study;
pub use temporal::{TemporalAnalysis, TemporalConfig};
