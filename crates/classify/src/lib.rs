//! Rule-based classification of vulnerabilities into OS parts.
//!
//! Section III-B of the paper describes a manual classification of all 1887
//! valid entries into four classes — *Driver*, *Kernel*, *System Software*
//! and *Application* — based on the vulnerability description. That manual
//! step cannot be reproduced exactly (the per-entry labels were never
//! published), so this crate encodes the paper's classification rationale as
//! an explicit keyword rule engine:
//!
//! * [`rules`] — the keyword table, one row per rule, derived from the
//!   examples the paper gives (network cards, web cams and UPnP devices are
//!   drivers; the TCP/IP stack, file systems and process management are
//!   kernel; login, shells and basic daemons are system software; DBMSes,
//!   browsers, media players and language runtimes are applications), and
//!   the function that scores a description against it;
//! * [`engine`] — the [`Classifier`]: picks the best-scoring class, with an
//!   explicit priority order for ties and Kernel when nothing matches;
//! * [`metrics`] — evaluation helpers (confusion matrix, accuracy, per-class
//!   precision/recall) used to validate the classifier against the
//!   ground-truth labels carried by the synthetic dataset.
//!
//! # Example
//!
//! ```
//! use classify::Classifier;
//! use nvd_model::OsPart;
//!
//! let classifier = Classifier::with_default_rules();
//! let part = classifier.classify_summary(
//!     "Buffer overflow in the wireless network card driver allows remote attackers \
//!      to execute arbitrary code via a crafted beacon frame",
//! );
//! assert_eq!(part, OsPart::Driver);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod metrics;
pub mod rules;

pub use engine::Classifier;
pub use metrics::{ClassificationReport, ConfusionMatrix};
