//! Parsing and writing of NVD vulnerability data feeds.
//!
//! The study of Garcia et al. (DSN 2011) is driven by the XML data feeds
//! published by the NIST National Vulnerability Database: one feed per year
//! from 2002 to 2010, each containing the vulnerabilities published in that
//! period (the 2002 feed also covers 1994–2002). This crate provides the
//! substrate the paper's "program that collects, parses and inserts the XML
//! data feeds into an SQL database" (Section III) needed:
//!
//! * [`xml`] — a from-scratch, dependency-free XML pull parser and writer
//!   (only the subset of XML used by NVD feeds is supported);
//! * [`schema`] — the raw NVD entry representation, supporting both the
//!   legacy 1.2 feed layout (`<entry name=...><vuln_soft>...`) and the 2.0
//!   layout (`<entry id=...><vuln:vulnerable-software-list>...`);
//! * [`reader`] — turns feed XML into [`nvd_model::VulnerabilityEntry`]
//!   values: CPE decoding and OS clustering into the 11 studied
//!   distributions ([`nvd_model::OsDistribution::from_vendor_product`]
//!   holds every spelling), reproducing the manual data-cleaning described
//!   in Section III;
//! * [`writer`] — serializes entries back into NVD 2.0-style XML, used by the
//!   synthetic-feed generator and for round-trip testing.
//!
//! # Example
//!
//! ```
//! use nvd_feed::{FeedReader, FeedWriter};
//! use nvd_model::{CveId, OsDistribution, VulnerabilityEntry};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let entry = VulnerabilityEntry::builder(CveId::new(2008, 1447))
//!     .summary("DNS cache poisoning via predictable transaction IDs")
//!     .affects_os(OsDistribution::Debian)
//!     .affects_os(OsDistribution::FreeBsd)
//!     .build()?;
//!
//! let xml = FeedWriter::new().write_to_string(&[entry.clone()])?;
//! let parsed = FeedReader::new().read_from_str(&xml)?;
//! assert_eq!(parsed.len(), 1);
//! assert_eq!(parsed[0].id(), entry.id());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod reader;
pub mod schema;
pub mod writer;
pub mod xml;

pub use error::FeedError;
pub use reader::FeedReader;
pub use schema::RawEntry;
pub use writer::FeedWriter;

/// Convenience result alias used across the crate.
pub type Result<T, E = FeedError> = std::result::Result<T, E>;
