//! The paper commands are aliases of registry analyses: `osdiv table5`
//! renders the sections `analysis_sections(study, Split, params)` builds,
//! through the same renderer, in every format — and the analysis flags
//! reach it as the same parameters, so a flag the analysis cannot use is
//! an error instead of being ignored. The offline `osdiv debug`
//! subcommands read a data directory without writing to it, `osdiv
//! survival` prints pinned bytes, and a closed output pipe leaves the
//! exit code of `osdiv` and of `osdiv-serve-smoke` alone.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::sync::OnceLock;
use std::time::SystemTime;

use osdiv_bench::harness::{TempDir, EXPERIMENT_SEED};
use osdiv_core::{analysis_sections, renderer, AnalysisId, Format, Params, Study};
use osdiv_registry::build_synthetic;

/// Every paper command with the analysis it aliases and the section it
/// keeps (`None` = all of them).
const ALIASES: [(&str, AnalysisId, Option<usize>); 9] = [
    ("table1", AnalysisId::Validity, None),
    ("table2", AnalysisId::Classes, None),
    ("table3", AnalysisId::Pairwise, Some(0)),
    ("table4", AnalysisId::Pairwise, Some(1)),
    ("summary", AnalysisId::Pairwise, Some(2)),
    ("table5", AnalysisId::Split, None),
    ("table6", AnalysisId::Releases, None),
    ("figure2", AnalysisId::Temporal, None),
    ("figure3", AnalysisId::Selection, None),
];

/// Runs the real `osdiv` binary on a space-separated command line.
fn osdiv(command: &str) -> Output {
    osdiv_in(Path::new("."), command)
}

/// [`osdiv`], run in `dir`.
fn osdiv_in(dir: &Path, command: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_osdiv"))
        .current_dir(dir)
        .args(command.split(' '))
        .output()
        .expect("the osdiv binary runs")
}

/// The stdout of a successful `osdiv` run.
fn stdout(command: &str) -> String {
    stdout_in(Path::new("."), command)
}

/// [`stdout`], run in `dir`.
fn stdout_in(dir: &Path, command: &str) -> String {
    let output = osdiv_in(dir, command);
    assert!(
        output.status.success(),
        "osdiv {command} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("osdiv emits UTF-8")
}

/// The CLI's default-seed session.
fn study() -> &'static Study {
    static STUDY: OnceLock<Study> = OnceLock::new();
    STUDY.get_or_init(|| build_synthetic(EXPERIMENT_SEED))
}

/// The document an alias must print: its picked sections of the analysis
/// under a `key=value&…` query, rendered.
fn expected(id: AnalysisId, section: Option<usize>, query: &str, format: Format) -> String {
    let pairs = query.split('&').filter_map(|pair| pair.split_once('='));
    let mut sections = analysis_sections(study(), id, &Params::from_pairs(pairs)).unwrap();
    if let Some(index) = section {
        sections = vec![sections.swap_remove(index)];
    }
    renderer(format).document(&sections)
}

#[test]
fn every_alias_renders_its_picked_analysis_sections_in_every_format() {
    for (alias, id, section) in ALIASES {
        for format in Format::ALL {
            assert_eq!(
                stdout(&format!("{alias} --format {format}")),
                expected(id, section, "", format),
                "osdiv {alias} --format {format}"
            );
        }
    }
    for (command, id, query) in [
        ("table5 --profile fat", AnalysisId::Split, "profile=fat"),
        (
            "table6 --profile thin",
            AnalysisId::Releases,
            "profile=thin",
        ),
        (
            "figure3 --profile fat",
            AnalysisId::Selection,
            "profile=fat",
        ),
        (
            "figure2 --first-year 2000 --last-year 2005",
            AnalysisId::Temporal,
            "first_year=2000&last_year=2005",
        ),
    ] {
        for format in Format::ALL {
            assert_eq!(
                stdout(&format!("{command} --format {format}")),
                expected(id, None, query, format),
                "osdiv {command} --format {format}"
            );
        }
    }
}

#[test]
fn a_flag_the_command_cannot_use_exits_1_naming_the_key() {
    for command in [
        "table3 --format csv --seed 7 --profile isolated",
        "report --profile fat",
    ] {
        let output = osdiv(command);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "osdiv {command}: {stderr}");
        assert!(
            stderr.contains("unknown parameter \"profile\""),
            "osdiv {command}: {stderr}"
        );
        assert!(
            output.stdout.is_empty(),
            "osdiv {command} printed a document"
        );
    }
}

#[test]
fn a_repeated_os_exits_1_naming_the_key() {
    let command = "table3 --oses debian,debian";
    let output = osdiv(command);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "osdiv {command}: {stderr}");
    assert!(
        stderr.contains("for parameter oses"),
        "osdiv {command}: {stderr}"
    );
    assert!(
        output.stdout.is_empty(),
        "osdiv {command} printed a document"
    );
}

#[test]
fn a_figure2_axis_of_more_than_256_years_exits_1_naming_last_year() {
    for command in [
        "temporal --first-year 1993 --last-year 2249 --format csv",
        "figure2 --first-year 0 --last-year 65535",
    ] {
        let output = osdiv(command);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "osdiv {command}: {stderr}");
        assert!(
            stderr.contains("for parameter last_year"),
            "osdiv {command}: {stderr}"
        );
        assert!(
            output.stdout.is_empty(),
            "osdiv {command} printed a document"
        );
    }
    assert!(stdout("figure2 --first-year 1993 --last-year 2248 --format csv").contains("2248"));
}

#[test]
fn table5_honours_oses_like_split() {
    let flags = "--oses debian,redhat,openbsd --format csv";
    let table5 = stdout(&format!("table5 {flags}"));
    assert_eq!(table5, stdout(&format!("split {flags}")));
    assert_ne!(table5, stdout("table5 --format csv"));
}

/// Each file in `dir` with its length and modification time, sorted.
fn listing(dir: &Path) -> Vec<(PathBuf, u64, SystemTime)> {
    let entries = std::fs::read_dir(dir).expect("the data dir lists");
    let mut files: Vec<_> = entries
        .map(|entry| {
            let path = entry.expect("a listed entry reads").path();
            let meta = path.metadata().expect("a listed file has metadata");
            (path, meta.len(), meta.modified().expect("mtimes are kept"))
        })
        .collect();
    files.sort();
    files
}

#[test]
fn debug_registry_and_spans_read_a_data_dir_without_writing_to_it() {
    let dir = TempDir::new("debug");
    stdout_in(dir.path(), "snapshot save --seed 7 --out t.osdv");
    let before = listing(dir.path());

    let registry = stdout_in(dir.path(), "debug registry --data-dir .");
    let tenant = registry
        .split(r#"{"name":"#)
        .find(|t| t.starts_with(r#""t","#));
    let tenant = tenant.unwrap_or_else(|| panic!("t is not listed: {registry}"));
    assert!(tenant.contains(r#""state":"spilled""#), "{registry}");
    assert!(
        tenant.contains(r#""source":"synthetic","seed":7"#),
        "{registry}"
    );

    let spans = stdout_in(dir.path(), "debug spans --data-dir .");
    assert!(spans.starts_with(r#"{"displayTimeUnit":"ms","traceEvents":["#));
    assert!(spans.contains(r#""name":"recovery:boot""#), "{spans}");
    for id in AnalysisId::ALL {
        let span = format!(r#""name":"analysis:{id}""#);
        assert!(spans.contains(&span), "no {span}: {spans}");
    }
    assert_eq!(spans.matches(r#""name":"analysis:"#).count(), 8, "{spans}");

    assert_eq!(listing(dir.path()), before, "a read-only recovery wrote");
}

#[test]
fn survival_prints_the_pinned_monte_carlo_table() {
    // 400 trials at seed 7, the command's defaults.
    assert_eq!(
        stdout("survival --format csv"),
        "Configuration,P(system compromised),Mean time to failure (days),\
         Mean peak compromised replicas\n\
         Debian x4,0.56,438,2.26\n\
         \"{OpenBSD, Solaris, Debian, Win2003}\",0.50,743,1.81\n\
         \"{NetBSD, Solaris, Debian, Win2003}\",0.45,774,1.76\n\
         \"{NetBSD, Solaris, RedHat, Win2003}\",0.55,772,1.92\n\
         \"{OpenBSD, NetBSD, Debian, RedHat}\",0.61,503,2.06\n"
    );
}

/// The exit code of `binary args` when the reader of its stdout, or of
/// its stderr, has gone before it writes: a shell sleeps before it execs
/// the binary, and the test drops the pipe's read end at once.
fn exit_code_after_the_reader_left(binary: &str, args: &[&str], stderr: bool) -> Option<i32> {
    let (out, err) = if stderr {
        (Stdio::null(), Stdio::piped())
    } else {
        (Stdio::piped(), Stdio::null())
    };
    let mut child = Command::new("sh")
        .arg("-c")
        .arg(r#"sleep 0.2; exec "$0" "$@""#)
        .arg(binary)
        .args(args)
        .stdout(out)
        .stderr(err)
        .spawn()
        .expect("sh runs");
    drop(child.stdout.take());
    drop(child.stderr.take());
    child.wait().expect("the binary exits").code()
}

#[test]
fn a_closed_output_pipe_keeps_the_exit_code() {
    let osdiv = env!("CARGO_BIN_EXE_osdiv");
    assert_eq!(
        exit_code_after_the_reader_left(osdiv, &["table3", "--bogus", "3"], true),
        Some(2)
    );
    assert_eq!(
        exit_code_after_the_reader_left(osdiv, &["report"], false),
        Some(0)
    );
}

#[test]
fn the_smoke_client_keeps_its_exit_code_when_the_output_pipe_is_closed() {
    // Each usage error writes to stderr before it exits 2.
    let smoke = env!("CARGO_BIN_EXE_osdiv-serve-smoke");
    for args in [
        &[][..],
        &["127.0.0.1:9", "chaos"],
        &["not-an-address", "loadgen"],
    ] {
        assert_eq!(
            exit_code_after_the_reader_left(smoke, args, true),
            Some(2),
            "{args:?}"
        );
    }
}
