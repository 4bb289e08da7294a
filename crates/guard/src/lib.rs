//! `osdiv-guard` — the workspace's static-analysis gate.
//!
//! The server parses attacker-controlled bytes on four surfaces (HTTP
//! request heads, chunked transfer framing, NVD XML feeds, and the
//! OSDV snapshot decoders). This crate lexes those modules
//! with a small hand-rolled Rust tokenizer and enforces invariants the
//! compiler can't:
//!
//! - **panic-freedom** (`panic`, `index`, `arith` rules) in the declared
//!   attacker-facing modules,
//! - **bounded HTTP-reachable parameters** (`clamp` rule) where query
//!   parameters are parsed,
//! - **lock discipline** (`lock` rule) where registry write-guards live.
//!
//! Exceptions use an inline waiver — `// guard: allow(<rule>) — <reason>`
//! — which is counted, audited, and invalid without a reason. See
//! `docs/STATIC_ANALYSIS.md` for the full rule catalogue.

pub mod rules;
pub mod tokenizer;

use std::path::Path;

pub use rules::{check_source, Report, Rule, Violation, WaiverRecord};

/// Attacker-facing modules: the `panic`, `index` and `arith` rules apply.
/// Adding a parsing surface to the server means adding it here (and a
/// meta-test fails if a listed file disappears in a rename).
pub const ATTACKER_SURFACES: &[&str] = &[
    "crates/serve/src/http.rs",
    "crates/nvd-feed/src/xml.rs",
    "crates/nvd-feed/src/reader.rs",
    "crates/core/src/snapshot.rs",
    "crates/core/src/obs.rs",
    "crates/serve/src/debug.rs",
    "crates/vulnstore/src/snapshot.rs",
    "crates/registry/src/persist.rs",
    "crates/registry/src/ingest.rs",
];

/// Files that turn HTTP query parameters into numbers: the `clamp` rule
/// applies (Params-derived values feeding loops/allocations must be
/// capped in-function).
pub const PARAM_SURFACES: &[&str] = &["crates/core/src/params.rs", "crates/serve/src/router.rs"];

/// Files holding shared-state write locks near parsing/IO: the `lock`
/// rule applies (no write guard live across attacker-paced work).
pub const LOCK_SURFACES: &[&str] = &[
    "crates/registry/src/registry.rs",
    "crates/serve/src/router.rs",
];

/// Every `(path, rules)` assignment the tree check runs.
pub fn surface_plan() -> Vec<(&'static str, Vec<Rule>)> {
    let mut plan: Vec<(&'static str, Vec<Rule>)> = Vec::new();
    for path in ATTACKER_SURFACES {
        plan.push((path, vec![Rule::Panic, Rule::Index, Rule::Arith]));
    }
    for path in PARAM_SURFACES {
        plan.push((path, vec![Rule::Clamp]));
    }
    for path in LOCK_SURFACES {
        plan.push((path, vec![Rule::Lock]));
    }
    // Merge duplicate paths (router.rs is both a param and a lock surface)
    // so each file is read and lexed once.
    plan.sort_by_key(|(path, _)| *path);
    plan.dedup_by(|(path_b, rules_b), (path_a, rules_a)| {
        if path_a == path_b {
            rules_a.extend(rules_b.iter().copied());
            true
        } else {
            false
        }
    });
    plan
}

/// Checks the whole workspace rooted at `root`. A listed surface that no
/// longer exists is itself a violation (`config` rule) so a rename can't
/// silently un-lint a parsing surface.
pub fn check_tree(root: &Path) -> Report {
    let mut report = Report::default();
    for (path, rules) in surface_plan() {
        let full = root.join(path);
        match std::fs::read_to_string(&full) {
            Ok(source) => report.merge(check_source(path, &source, &rules)),
            Err(error) => report.violations.push(Violation {
                file: path.to_string(),
                line: 0,
                rule: "config",
                message: format!(
                    "declared surface is unreadable ({error}) — update the surface lists in \
                     crates/guard/src/lib.rs if the file moved"
                ),
            }),
        }
    }
    report
}

/// Renders a report as human-readable text (one line per finding).
pub fn render_text(report: &Report) -> String {
    let mut out = String::new();
    for v in &report.violations {
        out.push_str(&format!(
            "{}:{}: [{}] {}\n",
            v.file, v.line, v.rule, v.message
        ));
    }
    out.push_str(&format!(
        "osdiv-guard: {} file(s) checked, {} violation(s), {} waiver(s)\n",
        report.files_checked,
        report.violations.len(),
        report.waivers.len()
    ));
    for w in &report.waivers {
        out.push_str(&format!(
            "  waived {}:{} [{}] — {}\n",
            w.file, w.line, w.rule, w.reason
        ));
    }
    out
}

/// Renders a report as JSON (hand-rolled: the guard is dependency-free).
pub fn render_json(report: &Report) -> String {
    fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    let violations: Vec<String> = report
        .violations
        .iter()
        .map(|v| {
            format!(
                "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
                escape(&v.file),
                v.line,
                escape(v.rule),
                escape(&v.message)
            )
        })
        .collect();
    let waivers: Vec<String> = report
        .waivers
        .iter()
        .map(|w| {
            format!(
                "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"reason\":\"{}\"}}",
                escape(&w.file),
                w.line,
                escape(&w.rule),
                escape(&w.reason)
            )
        })
        .collect();
    format!(
        "{{\"files_checked\":{},\"violations\":[{}],\"waivers\":[{}]}}\n",
        report.files_checked,
        violations.join(","),
        waivers.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn surface_plan_merges_duplicate_paths() {
        let plan = surface_plan();
        let mut paths: Vec<&str> = plan.iter().map(|(p, _)| *p).collect();
        paths.sort_unstable();
        let before = paths.len();
        paths.dedup();
        assert_eq!(before, paths.len(), "each file appears once in the plan");
        let router = plan
            .iter()
            .find(|(p, _)| *p == "crates/serve/src/router.rs")
            .expect("router is a surface");
        assert!(router.1.contains(&Rule::Clamp) && router.1.contains(&Rule::Lock));
    }

    #[test]
    fn json_escapes_quotes_and_newlines() {
        let mut report = Report::default();
        report.violations.push(Violation {
            file: "a\"b.rs".to_string(),
            line: 3,
            rule: "panic",
            message: "line1\nline2".to_string(),
        });
        let json = render_json(&report);
        assert!(json.contains("a\\\"b.rs"));
        assert!(json.contains("line1\\nline2"));
    }
}
