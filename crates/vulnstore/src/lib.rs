//! An embedded, in-memory relational store mirroring the SQL database of the
//! paper (Figure 1).
//!
//! Garcia et al. loaded the parsed NVD feeds into an SQL database with a
//! custom schema so they could (1) enrich the data by hand (vulnerability
//! type, OS release dates, family names), (2) correct naming problems and
//! (3) run the aggregation queries behind every table in the paper. This
//! crate provides the same capability without an external database server:
//!
//! * [`schema`] — typed row structs for the `vulnerability`, `os`,
//!   `os_vuln`, `cvss` and `vulnerability_type` tables of Figure 1;
//! * [`table`] — a small generic table abstraction with primary-key lookup
//!   and secondary indexes;
//! * [`store`] — [`VulnStore`], the facade that ingests
//!   [`nvd_model::VulnerabilityEntry`] values and exposes the relational
//!   queries the analysis crates need (joins between `os_vuln` and
//!   `vulnerability`, filtered counts, grouped aggregations).
//!
//! # Example
//!
//! ```
//! use nvd_model::{CveId, OsDistribution, OsPart, VulnerabilityEntry};
//! use vulnstore::VulnStore;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut store = VulnStore::new();
//! let entry = VulnerabilityEntry::builder(CveId::new(2008, 1447))
//!     .summary("DNS cache poisoning")
//!     .part(OsPart::SystemSoftware)
//!     .affects_os(OsDistribution::Debian)
//!     .affects_os(OsDistribution::FreeBsd)
//!     .build()?;
//! store.insert_entry(&entry);
//!
//! assert_eq!(store.vulnerability_count(), 1);
//! assert_eq!(store.vulnerabilities_for_os(OsDistribution::Debian).len(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod schema;
pub mod snapshot;
pub mod store;
pub mod table;

pub use error::StoreError;
pub use schema::{CvssRow, OsRow, OsVulnRow, VulnId, VulnerabilityRow};
pub use snapshot::{decode_store, encode_store, RowCodecError, STORE_SECTION_VERSION};
pub use store::VulnStore;
pub use table::Table;

/// Convenience result alias used across the crate.
pub type Result<T, E = StoreError> = std::result::Result<T, E>;
