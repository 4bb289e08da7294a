//! Experiment and benchmark harness for the OS-diversity reproduction.
//!
//! This crate hosts:
//!
//! * the `osdiv` CLI (`src/bin/osdiv.rs`): one dispatcher with a subcommand
//!   per table/figure of the paper, driven by the
//!   [`osdiv_core::registry`](osdiv_core::analysis::registry) so new
//!   analyses appear automatically, with `--format text|csv|json` exports
//!   through the pluggable renderers;
//! * Criterion benches (`benches/*`) that measure the cost of the full
//!   analysis pipeline, each individual experiment, and the `Study`
//!   session warm-up.
//!
//! The library portion holds small helpers shared by the binaries, the
//! benches and the tests: the experiment seed, the tests' temporary
//! directory and the `/metrics` lint.

pub mod exposition;
pub mod harness;
