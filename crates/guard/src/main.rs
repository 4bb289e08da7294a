//! `osdiv-guard` CLI: the CI gate.
//!
//! ```text
//! osdiv-guard check [--root <dir>] [--format text|json]
//! ```
//!
//! Exit codes: 0 clean, 1 violations found, 2 usage error, also when the
//! reader of the output has closed the pipe.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use osdiv_guard::{check_tree, render_json, render_text};

const USAGE: &str = "osdiv-guard — static-analysis gate for attacker-facing modules

Usage: osdiv-guard check [--root <dir>] [--format text|json]

  --root <dir>     workspace root (default: nearest ancestor with a
                   [workspace] Cargo.toml, starting from the current dir)
  --format <fmt>   text (default) or json

Rules (waive inline with `// guard: allow(<rule>) — <reason>`):
  panic   no unwrap/expect/panic!/unreachable!/todo! in attacker-facing code
  index   no bare slice indexing expr[…] — use .get(…)
  arith   no unguarded -/* on length/offset operands — checked_/saturating_
  clamp   Params-derived numerics feeding loops/allocs must be capped
  lock    no RwLock write guard live across ingest/parse/IO calls
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            print_to(std::io::stderr(), &format!("{message}\n"));
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    let mut iter = args.iter();
    match iter.next().map(String::as_str) {
        Some("check") => {}
        Some("help") | Some("--help") | Some("-h") => {
            print_to(std::io::stdout(), USAGE);
            return Ok(true);
        }
        Some(other) => return Err(format!("unknown command {other:?}\n\n{USAGE}")),
        None => return Err(USAGE.to_string()),
    }
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--root" => {
                let value = iter.next().ok_or("--root expects a directory")?;
                root = Some(PathBuf::from(value));
            }
            "--format" => match iter.next().map(String::as_str) {
                Some("text") => json = false,
                Some("json") => json = true,
                other => return Err(format!("--format expects text|json, got {other:?}")),
            },
            other => return Err(format!("unknown option {other:?}\n\n{USAGE}")),
        }
    }
    let root = match root {
        Some(root) => root,
        None => find_workspace_root()?,
    };
    let report = check_tree(&root);
    if json {
        print_to(std::io::stdout(), &render_json(&report));
    } else {
        print_to(std::io::stdout(), &render_text(&report));
    }
    Ok(report.is_clean())
}

/// Writes `text` to stdout or stderr and flushes it. Every write goes
/// through here and ignores errors: a reader that closed the pipe early
/// (`osdiv-guard check | true`) leaves the exit code as it is instead of
/// turning it into a panic.
fn print_to(mut stream: impl Write, text: &str) {
    let _ = stream
        .write_all(text.as_bytes())
        .and_then(|()| stream.flush());
}

/// Walks up from the current directory to the nearest `Cargo.toml` that
/// declares a `[workspace]`.
fn find_workspace_root() -> Result<PathBuf, String> {
    let start = std::env::current_dir().map_err(|e| format!("cannot read current dir: {e}"))?;
    let mut dir = start.as_path();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(contents) = std::fs::read_to_string(&manifest) {
            if contents.contains("[workspace]") {
                return Ok(dir.to_path_buf());
            }
        }
        match dir.parent() {
            Some(parent) => dir = parent,
            None => {
                return Err(format!(
                    "no [workspace] Cargo.toml above {} — pass --root",
                    start.display()
                ))
            }
        }
    }
}
