//! Every input a run sends, generated from the workload seed before the
//! server starts, together with the in-process reference each response is
//! checked against.

use std::collections::HashSet;

use datagen::CalibratedGenerator;
use osdiv_core::{analysis_sections, renderer, AnalysisId, Format, Params, Study};
use osdiv_registry::{FeedIngester, IngestBudget};

use crate::stats::Rng;

/// The seed `osdiv serve` builds its default dataset from (its default).
pub const DATASET_SEED: u64 = 2011;

/// The server's rendered-body LRU capacity (`RouterOptions::cache_capacity`).
pub const LRU_CAPACITY: usize = 128;

const FORMATS: [Format; 3] = [Format::Text, Format::Csv, Format::Json];

const OSES: [&str; 11] = [
    "openbsd",
    "netbsd",
    "freebsd",
    "opensolaris",
    "solaris",
    "debian",
    "ubuntu",
    "redhat",
    "win2000",
    "win2003",
    "win2008",
];

const PROFILES: [&str; 3] = ["fat", "thin", "isolated"];

/// One distinct GET the benchmark can send, with its expected body.
#[derive(Debug, Clone)]
pub struct Key {
    /// The request target (path and query).
    pub target: String,
    /// A short label for spans: the route and format.
    pub label: String,
    /// The analysis it renders (`None`: the combined report).
    pub id: Option<AnalysisId>,
    pub params: Params,
    /// The body a correct server answers with.
    pub expected: Vec<u8>,
}

/// The default dataset, as the server builds it at boot.
pub fn default_study() -> Study {
    let study = Study::from_entries(CalibratedGenerator::new(DATASET_SEED).generate().entries());
    study.run_all().expect("default configurations are valid");
    study
}

fn report_key(study: &Study, format: Format) -> Key {
    Key {
        target: format!("/v1/report?format={}", format.name()),
        label: format!("report.{}", format.name()),
        id: None,
        params: Params::new(),
        expected: study
            .report(format)
            .expect("the report renders")
            .into_bytes(),
    }
}

/// Renders one analysis the way the server does; `None` when the
/// configuration is rejected (such queries are never sent).
fn render(study: &Study, id: AnalysisId, params: &Params, format: Format) -> Option<Vec<u8>> {
    let sections = analysis_sections(study, id, params).ok()?;
    Some(renderer(format).document(&sections).into_bytes())
}

fn analysis_key(
    study: &Study,
    id: AnalysisId,
    pairs: Vec<(String, String)>,
    format: Format,
) -> Option<Key> {
    let params = Params::from_pairs(pairs.clone());
    let expected = render(study, id, &params, format)?;
    let mut query: Vec<String> = pairs.iter().map(|(k, v)| format!("{k}={v}")).collect();
    query.push(format!("format={}", format.name()));
    Some(Key {
        target: format!("/v1/analyses/{}?{}", id.name(), query.join("&")),
        label: format!("{}.{}", id.name(), format.name()),
        id: Some(id),
        params,
        expected,
    })
}

/// `hot_read`'s working set, 16 keys: the report in every format, every
/// analysis in JSON and five of them in CSV. Fixed, so every seed reads
/// the same bodies; the seed picks the request order.
pub fn hot_keys(study: &Study) -> Vec<Key> {
    let mut keys: Vec<Key> = FORMATS.iter().map(|f| report_key(study, *f)).collect();
    let csv = [
        AnalysisId::Pairwise,
        AnalysisId::Split,
        AnalysisId::Releases,
        AnalysisId::Temporal,
        AnalysisId::KWay,
    ];
    let combos = AnalysisId::ALL
        .iter()
        .map(|id| (*id, Format::Json))
        .chain(csv.iter().map(|id| (*id, Format::Csv)));
    for (id, format) in combos {
        keys.extend(analysis_key(study, id, Vec::new(), format));
    }
    keys
}

/// The distributions with per-release data (the others add no release
/// pairs).
const RELEASE_OSES: [&str; 4] = ["debian", "redhat", "netbsd", "ubuntu"];

fn oses(rng: &mut Rng, from: &[&str], k: usize) -> Vec<String> {
    rng.subset(from, k).iter().map(|s| s.to_string()).collect()
}

fn pairs(list: &[(&str, String)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect()
}

fn profile(rng: &mut Rng) -> String {
    PROFILES[rng.below(PROFILES.len())].to_string()
}

/// The seeded parameterised query of one turn; the turn picks the kind
/// (one of six). Each kind draws its parameters so that its cost varies
/// little from query to query: fixed subset sizes, fixed group sizes.
/// `kway` has only 30 distinct configurations; the caller stops asking
/// for it once they are used.
fn random_query(rng: &mut Rng, turn: usize) -> (AnalysisId, Vec<(String, String)>) {
    match turn % 6 {
        0 => {
            let first = 1993 + rng.below(18) as u16;
            let last = first + rng.below((2010 - first + 1) as usize) as u16;
            let list = [
                ("first_year", first.to_string()),
                ("last_year", last.to_string()),
            ];
            (AnalysisId::Temporal, pairs(&list))
        }
        1 => (
            AnalysisId::Pairwise,
            pairs(&[("oses", oses(rng, &OSES, 5).join(","))]),
        ),
        2 => {
            let list = [
                ("oses", oses(rng, &OSES, 4).join(",")),
                ("profile", profile(rng)),
            ];
            (AnalysisId::Split, pairs(&list))
        }
        3 => {
            // One release-carrying distribution, in turn, plus three
            // without release data: every query pairs the releases of one
            // distribution, which keeps this, the costliest kind, even.
            let others: Vec<&str> = OSES
                .iter()
                .copied()
                .filter(|os| !RELEASE_OSES.contains(os))
                .collect();
            let mut list = vec![RELEASE_OSES[turn / 6 % RELEASE_OSES.len()].to_string()];
            list.extend(oses(rng, &others, 3));
            let list = [("oses", list.join(",")), ("profile", profile(rng))];
            (AnalysisId::Releases, pairs(&list))
        }
        4 => {
            let list = [
                ("profile", profile(rng)),
                (
                    "criterion",
                    ["pairwisesum", "distinctshared"][rng.below(2)].to_string(),
                ),
                ("oses", oses(rng, &OSES, 6).join(",")),
                ("group_size", "3".to_string()),
                ("top", (1 + rng.below(5)).to_string()),
            ];
            (AnalysisId::Selection, pairs(&list))
        }
        _ => {
            let list = [
                ("profile", profile(rng)),
                ("max_k", (2 + rng.below(10)).to_string()),
            ];
            (AnalysisId::KWay, pairs(&list))
        }
    }
}

/// Distinct queries in `query_mix`'s key space: 4× the LRU capacity plus
/// a margin, each sent in all three formats.
pub const QUERY_MIX_QUERIES: usize = 4 * LRU_CAPACITY + 8;

/// The first `count` distinct seeded parameterised queries, each in all
/// three formats (a prefix of the same sequence for any `count`). The
/// kinds take turns, so every seed has the same mix of analyses.
pub fn query_keys(study: &Study, seed: u64, count: usize) -> Vec<Key> {
    const KWAY_CONFIGS: usize = 30;
    let mut rng = Rng::new(seed ^ 0x0071_7565_7279);
    let mut seen = HashSet::new();
    let mut keys = Vec::new();
    let (mut turn, mut kway) = (0, 0);
    while keys.len() < 3 * count {
        turn += 1;
        if turn % 6 == 5 && kway == KWAY_CONFIGS {
            continue;
        }
        let (id, list) = random_query(&mut rng, turn);
        if !seen.insert((id, list.clone())) {
            continue;
        }
        kway += usize::from(id == AnalysisId::KWay);
        let rendered: Vec<Key> = FORMATS
            .iter()
            .filter_map(|f| analysis_key(study, id, list.clone(), *f))
            .collect();
        if rendered.len() == FORMATS.len() {
            keys.extend(rendered);
        }
    }
    keys
}

/// One calibrated-size feed a tenant is created from.
#[derive(Debug)]
pub struct Feed {
    pub xml: Vec<u8>,
    /// Distinct CVE ids in the generated entries (what `PUT` must report).
    pub distinct_entries: usize,
}

/// `count` distinct calibrated feeds (≈2 MB each) drawn from `seed`.
pub fn feeds(seed: u64, count: usize) -> Vec<Feed> {
    (0..count as u64)
        .map(|i| {
            let dataset =
                CalibratedGenerator::new(seed.wrapping_mul(1000).wrapping_add(i)).generate();
            let distinct: HashSet<String> = dataset
                .entries()
                .iter()
                .map(|e| e.id().to_string())
                .collect();
            Feed {
                xml: dataset.to_feed_xml().expect("feeds serialize").into_bytes(),
                distinct_entries: distinct.len(),
            }
        })
        .collect()
}

/// The ingestion budget the benchmark runs feeds under in-process.
pub fn budget() -> IngestBudget {
    IngestBudget::default()
}

/// Ingests a feed in-process exactly as the `PUT` route does (64 KiB
/// chunks through [`FeedIngester`]) and renders its text report: the
/// reference body of the tenant's `GET /v1/report`. Also returns the
/// ingester's scan work, for the exact-count check.
pub fn reference_report(feed: &Feed) -> (Vec<u8>, u64) {
    let mut ingester = FeedIngester::with_workers(budget(), 0);
    for chunk in feed.xml.chunks(crate::server::UPLOAD_CHUNK) {
        ingester.push(chunk).expect("generated feeds ingest");
    }
    let scan_work = ingester.scan_work();
    let study = ingester
        .finish()
        .expect("generated feeds ingest")
        .into_study();
    let report = study.report(Format::Text).expect("the report renders");
    (report.into_bytes(), scan_work)
}
