//! Data model for the OS-diversity study of Garcia et al. (DSN 2011),
//! *"OS diversity for intrusion tolerance: Myth or reality?"*.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace:
//!
//! * [`CveId`] — `CVE-YEAR-NUMBER` identifiers used by the NVD;
//! * [`Cpe`] — Common Platform Enumeration 2.2 URIs describing affected
//!   platforms, with the Hardware / Operating System / Application `part`
//!   distinction the paper filters on;
//! * [`CvssV2`] — CVSS version 2 vectors (the paper uses the
//!   `CVSS_ACCESS_VECTOR` field to separate locally from remotely
//!   exploitable vulnerabilities);
//! * [`OsDistribution`] / [`OsFamily`] / [`OsSet`] — the 11 operating-system
//!   distributions and 4 families studied in the paper, plus a compact set
//!   representation used heavily by the analysis crates;
//! * [`VulnerabilityEntry`] — a fully parsed NVD entry (publication date,
//!   summary, CVSS, affected operating systems, validity flag and the
//!   Driver / Kernel / System Software / Application classification of
//!   Section III-B of the paper).
//!
//! # Example
//!
//! ```
//! use nvd_model::{Cpe, CpePart, CveId, CvssV2, OsDistribution};
//!
//! # fn main() -> Result<(), nvd_model::ModelError> {
//! let id: CveId = "CVE-2008-4609".parse()?;
//! assert_eq!(id.year(), 2008);
//!
//! let cpe: Cpe = "cpe:/o:microsoft:windows_2003_server".parse()?;
//! assert_eq!(cpe.part(), CpePart::OperatingSystem);
//! assert_eq!(
//!     OsDistribution::from_cpe(&cpe),
//!     Some(OsDistribution::Windows2003)
//! );
//!
//! let cvss: CvssV2 = "AV:N/AC:L/Au:N/C:N/I:N/A:C".parse()?;
//! assert!(cvss.access_vector().is_remote());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cpe;
mod cve;
mod cvss;
mod date;
mod entry;
mod error;
mod os;

pub use cpe::{Cpe, CpePart};
pub use cve::CveId;
pub use cvss::{AccessComplexity, AccessVector, Authentication, CvssV2, ImpactMetric};
pub use date::Date;
pub use entry::{AffectedProduct, OsPart, Validity, VulnerabilityEntry, VulnerabilityEntryBuilder};
pub use error::ModelError;
pub use os::{OsDistribution, OsFamily, OsRelease, OsSet, OsSetIter, SubsetsOfSize};

/// Convenience result alias used across the crate.
pub type Result<T, E = ModelError> = std::result::Result<T, E>;
