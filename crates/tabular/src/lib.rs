//! A small table / series / aggregation toolkit.
//!
//! Every deliverable of the study is a table or a figure: per-OS counts
//! (Tables I and II), a 55-row pair table (Table III), per-year series
//! (Figure 2), matrices (Table V) and bar groups (Figure 3). The Rust
//! ecosystem's dataframe tooling is outside the allowed dependency set, so
//! this crate provides the few primitives the report generators need:
//!
//! * [`TextTable`] — column-aligned text tables with CSV and JSON export
//!   (and a CSV parser for round-tripping exported tables);
//! * [`Series`] — labelled `(x, y)` series for figure-style output;
//! * [`agg`] — counting and grouping helpers (frequency counters, per-year
//!   histograms, ratio helpers);
//! * [`json`] — the hand-rolled JSON encoding helpers behind the `to_json`
//!   exporters, including the JSON string escaper the event log shares.
//!
//! # Example
//!
//! ```
//! use tabular::TextTable;
//!
//! let mut table = TextTable::new(["OS", "Valid"]);
//! table.push_row(["OpenBSD", "142"]);
//! table.push_row(["NetBSD", "126"]);
//! let rendered = table.render();
//! assert!(rendered.contains("OpenBSD"));
//! assert!(rendered.lines().count() >= 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agg;
pub mod json;
pub mod mime;
pub mod series;
pub mod table;

pub use agg::{Counter, YearHistogram};
pub use json::{json_array, json_escape_into, json_number, json_string};
pub use series::{Series, SeriesSet};
pub use table::TextTable;
