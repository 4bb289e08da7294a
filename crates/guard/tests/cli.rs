//! Binary-level tests: the `osdiv-guard` executable as CI runs it.
//! Pins the exit-code contract (0 clean / 1 violations / 2 usage), also
//! when the reader of its output has gone, the real tree staying clean
//! with reasoned waivers, and the JSON format.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

fn guard(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_osdiv-guard"))
        .args(args)
        .output()
        .expect("guard binary runs")
}

#[test]
fn real_tree_is_clean_and_every_waiver_has_a_reason() {
    let root = workspace_root();
    let output = guard(&["check", "--root", root.to_str().expect("utf-8 path")]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "the committed tree must pass its own guard:\n{stdout}"
    );
    assert!(stdout.contains("0 violation(s)"), "{stdout}");
    // Every waiver line printed by the text renderer ends `— <reason>`;
    // an empty reason would have been a violation already, but pin the
    // report too.
    for line in stdout
        .lines()
        .filter(|l| l.trim_start().starts_with("waived"))
    {
        let reason = line.rsplit('—').next().unwrap_or("").trim();
        assert!(!reason.is_empty(), "waiver without reason: {line}");
    }
}

/// The exit code of `osdiv-guard args` when the reader of its stdout, or
/// of its stderr, has gone before it writes: a shell sleeps before it
/// execs the guard, and the test drops the pipe's read end at once.
fn exit_code_after_the_reader_left(args: &[&str], stderr: bool) -> Option<i32> {
    let (out, err) = if stderr {
        (Stdio::null(), Stdio::piped())
    } else {
        (Stdio::piped(), Stdio::null())
    };
    let mut child = Command::new("sh")
        .arg("-c")
        .arg(r#"sleep 0.2; exec "$0" "$@""#)
        .arg(env!("CARGO_BIN_EXE_osdiv-guard"))
        .args(args)
        .stdout(out)
        .stderr(err)
        .spawn()
        .expect("sh runs");
    drop(child.stdout.take());
    drop(child.stderr.take());
    child.wait().expect("the guard exits").code()
}

#[test]
fn a_closed_output_pipe_keeps_the_exit_code() {
    let root = workspace_root();
    let root = root.to_str().expect("utf-8 path");
    assert_eq!(
        exit_code_after_the_reader_left(&["check", "--root", root], false),
        Some(0)
    );
    assert_eq!(
        exit_code_after_the_reader_left(&["check", "--root", root, "--format", "json"], false),
        Some(0)
    );
    assert_eq!(exit_code_after_the_reader_left(&["help"], false), Some(0));
    assert_eq!(exit_code_after_the_reader_left(&["bogus"], true), Some(2));
}

#[test]
fn seeded_violation_fails_the_gate() {
    // Build a throwaway tree containing one declared surface with a
    // seeded panic site; the guard must exit non-zero (the missing
    // sibling surfaces are config findings — also violations).
    let dir = std::env::temp_dir().join(format!("osdiv-guard-seeded-{}", std::process::id()));
    let http = dir.join("crates/serve/src");
    std::fs::create_dir_all(&http).expect("temp tree");
    std::fs::write(
        http.join("http.rs"),
        "pub fn head(b: &[u8]) -> u8 { b.first().copied().unwrap() }\n",
    )
    .expect("seed file");
    let output = guard(&["check", "--root", dir.to_str().expect("utf-8 path")]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        output.status.code(),
        Some(1),
        "seeded unwrap must fail the gate:\n{stdout}"
    );
    assert!(stdout.contains("[panic]"), "{stdout}");
}

#[test]
fn moved_surface_file_is_a_config_violation() {
    let dir = std::env::temp_dir().join(format!("osdiv-guard-empty-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp tree");
    let output = guard(&["check", "--root", dir.to_str().expect("utf-8 path")]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(output.status.code(), Some(1));
    assert!(
        stdout.contains("[config]"),
        "a surface list pointing at a missing file must fail loudly, \
         not silently un-lint the surface:\n{stdout}"
    );
}

#[test]
fn json_format_is_machine_readable() {
    let root = workspace_root();
    let output = guard(&[
        "check",
        "--root",
        root.to_str().expect("utf-8 path"),
        "--format",
        "json",
    ]);
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.starts_with("{\"files_checked\":"), "{stdout}");
    assert!(stdout.contains("\"violations\":[]"), "{stdout}");
    assert!(stdout.contains("\"waivers\":["), "{stdout}");
}

#[test]
fn usage_errors_exit_2() {
    assert_eq!(guard(&[]).status.code(), Some(2));
    assert_eq!(guard(&["check", "--format", "yaml"]).status.code(), Some(2));
    assert_eq!(guard(&["frobnicate"]).status.code(), Some(2));
}

#[test]
fn surface_lists_match_the_tree() {
    // Meta-test: every declared surface exists in the repo. Catches the
    // rename-without-updating-the-guard failure mode at test time, not
    // just at CI-gate time.
    let root = workspace_root();
    for (path, rules) in osdiv_guard::surface_plan() {
        assert!(
            Path::new(&root.join(path)).is_file(),
            "declared surface {path} is missing — update crates/guard/src/lib.rs"
        );
        assert!(!rules.is_empty());
    }
}
