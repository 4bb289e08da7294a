//! `osdiv-registry` — multi-dataset tenancy for the serving layer: a
//! concurrent, bounded registry of named [`Study`](osdiv_core::Study)
//! sessions plus push-based streaming ingestion of NVD XML feeds.
//!
//! The repo's batch pipeline and PR 3's server both assumed exactly one
//! baked-in dataset. This crate removes that assumption:
//!
//! * [`registry`] — [`StudyRegistry`], a `parking_lot::RwLock`-guarded map
//!   from dataset names to memoized `Arc<Study>` sessions. Synthetic
//!   datasets register as a `seed=N` spec, build lazily and rebuild after
//!   eviction; ingested datasets are resident-only and answer
//!   [`RegistryError::Evicted`] once dropped. Capacity is bounded by name
//!   count and by estimated resident bytes with LRU eviction of unpinned
//!   datasets; every failure is a typed [`RegistryError`].
//! * [`ingest`] — [`FeedIngester`], which accepts feed bytes chunk by
//!   chunk (never buffering the whole body), carves out complete
//!   `<entry>` elements, parses them through
//!   [`nvd_feed::FeedReader::read_entry_str`], loads them into a
//!   [`vulnstore::VulnStore`] and finishes into a ready-to-serve
//!   [`StudyDataset`](osdiv_core::StudyDataset) — all under a configurable
//!   [`IngestBudget`].
//! * [`persist`] — [`TenantStore`], the durable side: `OSDV` snapshots
//!   written the moment an ingested dataset registers (an upload that
//!   fails before then leaves nothing on disk), and the counters
//!   `/metrics` reports. With a store attached, eviction *spills* instead
//!   of tombstoning and [`StudyRegistry::recover`] warm-restarts the
//!   whole tenant set from disk, deleting crash debris.
//!
//! The server (`osdiv-serve`), the CLI (`osdiv ingest`, `osdiv serve`) and
//! the tests all share these types, closing the paper's Section III
//! loop — from NVD XML data feed to queryable diversity analysis — at
//! request time instead of build time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ingest;
pub mod persist;
pub mod registry;

pub use ingest::{FeedIngester, IngestBudget, IngestError, IngestOutcome, IngestStageMicros};
pub use persist::{
    ChaosVfs, Durability, PersistError, PersistMetrics, RealVfs, ScanReport, TenantStore, Vfs,
    VfsOp,
};
pub use registry::{
    build_synthetic, validate_name, DatasetInfo, DatasetSource, DatasetState, RecoveryReport,
    RegistryError, RegistryOptions, StudyRegistry, DEFAULT_DATASET,
};
