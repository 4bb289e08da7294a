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
//! directory, the `/metrics` lint and the binaries' one way to write
//! output.

pub mod exposition;
pub mod harness;

use std::io::Write;

/// Writes `text` to stdout or stderr and flushes it. Every write the
/// `osdiv` and `osdiv-serve-smoke` binaries make goes through here and
/// ignores errors: a reader that closed the pipe early (`osdiv report |
/// true`) leaves the exit code as it is instead of turning it into a
/// panic.
pub fn print_to(mut stream: impl Write, text: &str) {
    let _ = stream
        .write_all(text.as_bytes())
        .and_then(|()| stream.flush());
}
