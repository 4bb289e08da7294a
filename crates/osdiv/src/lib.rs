//! Facade over the OS-diversity reproduction workspace.
//!
//! Depend on this crate to get the whole pipeline — data generation, NVD
//! feed round-trip, relational store, classification, the typed analysis
//! session and the BFT simulator — through one import. Each member crate is
//! re-exported under its own name, and the headline types of the analysis
//! pipeline are lifted to the crate root.
//!
//! The entry point is the [`Study`] session: build it from entries, ask for
//! analyses by type (results are memoized), and render any deliverable as
//! text, CSV or JSON.
//!
//! # Example
//!
//! ```
//! use osdiv::{CalibratedGenerator, Format, PairwiseAnalysis, Study};
//!
//! let dataset = CalibratedGenerator::new(1).generate();
//! let study = Study::from_entries(dataset.entries());
//!
//! // Typed, memoized analysis lookup.
//! let pairwise = study.get::<PairwiseAnalysis>().unwrap();
//! assert_eq!(pairwise.rows().len(), 55);
//!
//! // Warm the whole registry, then render the combined report.
//! study.run_all().unwrap();
//! let report = study.report(Format::Text).unwrap();
//! assert!(report.contains("== Table III: pairwise common vulnerabilities =="));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use bft_sim;
pub use classify;
pub use datagen;
pub use nvd_feed;
pub use nvd_model;
pub use osdiv_bench;
pub use osdiv_core;
pub use osdiv_serve;
pub use tabular;
pub use vulnstore;

pub use bft_sim::{QuorumModel, ReplicaSet, SimulationConfig, Simulator};
pub use classify::Classifier;
pub use datagen::{CalibratedGenerator, ParametricConfig, ParametricGenerator};
pub use nvd_feed::{FeedReader, FeedWriter};
pub use nvd_model::{CveId, OsDistribution, OsFamily, OsPart, OsSet, VulnerabilityEntry};
pub use osdiv_core::{
    Analysis, AnalysisError, AnalysisId, ClassDistribution, Format, KWayAnalysis, PairwiseAnalysis,
    ReleaseAnalysis, Render, ReplicaSelection, SelectionAnalysis, ServerProfile, SplitMatrix,
    Study, StudyDataset, TemporalAnalysis, ValidityDistribution,
};
pub use osdiv_serve::{Router, RouterOptions, Server, ServerHandle, ServerOptions};
pub use tabular::TextTable;
pub use vulnstore::VulnStore;
