//! Byte-identity of the serving layer and the CLI: for every registered
//! analysis and every output format, `GET /v1/analyses/{id}?format=f`
//! must serve exactly the bytes `osdiv {id} --format f` prints for the
//! same seed — plus the combined report, the registry listing and
//! parameterized requests.

use std::process::Command;
use std::sync::{Arc, OnceLock};

use datagen::CalibratedGenerator;
use osdiv_core::{AnalysisId, Format, Study};
use osdiv_serve::{loadgen, Router, RouterOptions, Server, ServerHandle, ServerOptions};

const SEED: u64 = 2011;

/// Runs the real `osdiv` binary and returns its stdout.
fn osdiv(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_osdiv"))
        .args(args)
        .output()
        .expect("the osdiv binary runs");
    assert!(
        output.status.success(),
        "osdiv {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("osdiv emits UTF-8")
}

/// One shared server over the CLI's default seed.
fn server() -> &'static ServerHandle {
    static SERVER: OnceLock<ServerHandle> = OnceLock::new();
    SERVER.get_or_init(|| {
        let dataset = CalibratedGenerator::new(SEED).generate();
        let study = Study::from_entries(dataset.entries());
        study.run_all().expect("default configurations are valid");
        let router = Arc::new(Router::with_study(
            Arc::new(study),
            RouterOptions {
                seed: SEED,
                ..RouterOptions::default()
            },
        ));
        let server = Server::bind("127.0.0.1:0", router, ServerOptions::for_threads(2))
            .expect("an ephemeral loop-back port is bindable");
        server.spawn()
    })
}

#[test]
fn every_analysis_endpoint_matches_the_cli_in_every_format() {
    let addr = server().addr();
    for id in AnalysisId::ALL {
        for format in Format::ALL {
            let cli = osdiv(&[id.name(), "--format", format.name()]);
            let http = loadgen::get(
                addr,
                &format!("/v1/analyses/{}?format={}", id.name(), format.name()),
            )
            .unwrap();
            assert_eq!(http.status, 200, "{id} {format}");
            assert_eq!(
                http.body_string(),
                cli,
                "GET /v1/analyses/{id}?format={format} differs from `osdiv {id} --format {format}`"
            );
        }
    }
}

#[test]
fn the_report_endpoint_matches_the_cli_report() {
    let addr = server().addr();
    for format in Format::ALL {
        let cli = osdiv(&["report", "--format", format.name()]);
        let http = loadgen::get(addr, &format!("/v1/report?format={}", format.name())).unwrap();
        assert_eq!(http.status, 200);
        assert_eq!(http.body_string(), cli, "report format {format}");
    }
}

#[test]
fn parameterized_requests_match_parameterized_cli_flags() {
    for (command, path) in [
        (
            "temporal --first-year 2000 --last-year 2005 --format csv",
            "/v1/analyses/temporal?first_year=2000&last_year=2005&format=csv",
        ),
        (
            "kway --profile isolated --max-k 4 --format json",
            "/v1/analyses/kway?profile=isolated&max_k=4&format=json",
        ),
        (
            "split --oses debian,redhat,openbsd --format csv",
            "/v1/analyses/split?oses=debian,redhat,openbsd&format=csv",
        ),
        (
            "selection --criterion pairwise-sum --top 3 --group-size 3 --format csv",
            "/v1/analyses/selection?criterion=pairwise-sum&top=3&group_size=3&format=csv",
        ),
    ] {
        let cli = osdiv(&command.split(' ').collect::<Vec<_>>());
        let http = loadgen::get(server().addr(), path).unwrap();
        assert_eq!(http.status, 200, "{path}");
        assert_eq!(http.body_string(), cli, "{path}");
    }
}

#[test]
fn default_dataset_urls_render_byte_identical_to_the_cli_with_and_without_the_param() {
    // The multi-dataset registry must not perturb the single-dataset URLs:
    // with or without `?dataset=default`, every route still serves exactly
    // the CLI's bytes for the default seed (the PR 3 contract).
    let addr = server().addr();
    for (id, format) in [("validity", "json"), ("pairwise", "csv"), ("kway", "text")] {
        let cli = osdiv(&[id, "--format", format]);
        let implicit = loadgen::get(addr, &format!("/v1/analyses/{id}?format={format}")).unwrap();
        let explicit = loadgen::get(
            addr,
            &format!("/v1/analyses/{id}?format={format}&dataset=default"),
        )
        .unwrap();
        assert_eq!(implicit.body_string(), cli, "{id} {format} implicit");
        assert_eq!(explicit.body_string(), cli, "{id} {format} explicit");
        assert_eq!(
            implicit.header("etag"),
            explicit.header("etag"),
            "{id} {format}: one cache entry, one ETag"
        );
    }
}

#[test]
fn the_analyses_listing_matches_osdiv_list_in_every_format() {
    let addr = server().addr();
    for format in Format::ALL {
        let cli = osdiv(&["list", "--format", format.name()]);
        let http = loadgen::get(addr, &format!("/v1/analyses?format={}", format.name())).unwrap();
        assert_eq!(http.body_string(), cli, "list format {format}");
    }
}
