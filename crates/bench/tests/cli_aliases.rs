//! The paper commands are aliases of registry analyses: `osdiv table5`
//! renders the sections `analysis_sections(study, Split, params)` builds,
//! through the same renderer, in every format — and the analysis flags
//! reach it as the same parameters, so a flag the analysis cannot use is
//! an error instead of being ignored.

use std::process::{Command, Output};
use std::sync::OnceLock;

use osdiv_bench::harness::study_session;
use osdiv_core::{analysis_sections, renderer, AnalysisId, Format, Params, Study};

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
    Command::new(env!("CARGO_BIN_EXE_osdiv"))
        .args(command.split(' '))
        .output()
        .expect("the osdiv binary runs")
}

/// The stdout of a successful `osdiv` run.
fn stdout(command: &str) -> String {
    let output = osdiv(command);
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
    STUDY.get_or_init(study_session)
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
fn table5_honours_oses_like_split() {
    let flags = "--oses debian,redhat,openbsd --format csv";
    let table5 = stdout(&format!("table5 {flags}"));
    assert_eq!(table5, stdout(&format!("split {flags}")));
    assert_ne!(table5, stdout("table5 --format csv"));
}
