//! The in-process half of a traced run: the run's generated inputs
//! replayed through each layer's public functions, one span per call.
//! Repeated calls report their median; mixes of different calls (the
//! query-mix analyses and renders) report their mean.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use classify::Classifier;
use nvd_feed::FeedReader;
use osdiv_core::snapshot::crc32;
use osdiv_core::{analysis_sections, registry, renderer, Format, Snapshot, Study, StudyDataset};
use osdiv_registry::persist::source_meta;
use osdiv_registry::{DatasetSource, FeedIngester, TenantStore};
use osdiv_serve::{ChunkedDecoder, RequestParser, Router, RouterOptions};
use vulnstore::{decode_store, encode_store};

use crate::inputs::{self, Feed, Key};
use crate::server::{self, UPLOAD_CHUNK};
use crate::stats;
use crate::trace::SpanLog;

/// Calls per hot key in the HTTP, router and registry probes.
const PASSES: usize = 200;
/// Repetitions of the feed pipeline.
const FEED_REPS: usize = 3;
/// Distinct query-mix queries run through the analyses and renderers.
pub const QUERIES: usize = 120;

/// Samples per metric; folded into one value per metric at the end.
#[derive(Debug, Default)]
struct Samples {
    median: BTreeMap<String, Vec<f64>>,
    mean: BTreeMap<String, Vec<f64>>,
}

impl Samples {
    fn median(&mut self, name: &str, value: f64) {
        self.median.entry(name.to_string()).or_default().push(value);
    }

    fn mean(&mut self, name: &str, value: f64) {
        self.mean.entry(name.to_string()).or_default().push(value);
    }

    fn fold(self) -> BTreeMap<String, f64> {
        let mut out: BTreeMap<String, f64> = self
            .median
            .into_iter()
            .map(|(k, v)| (k, stats::median(&v)))
            .collect();
        out.extend(self.mean.into_iter().map(|(k, v)| (k, stats::mean(&v))));
        out
    }
}

/// What the replay measured, plus the exact-count verdict.
#[derive(Debug)]
pub struct Replay {
    pub metrics: BTreeMap<String, f64>,
    /// `Err` when a count that must repeat exactly did not.
    pub exact: Result<(), String>,
}

/// Replays the inputs through every layer; `dir` is scratch space for
/// the persistence probes.
pub fn replay(
    study: &Arc<Study>,
    hot: &[Key],
    queries: &[Key],
    feed: &Feed,
    dir: &Path,
    log: &mut SpanLog,
) -> Replay {
    let mut samples = Samples::default();
    serving(study, hot, log, &mut samples);
    analyses(study, queries, log, &mut samples);
    let mut scan_work = Vec::new();
    for rep in 0..FEED_REPS {
        scan_work.push(feed_pipeline(
            feed,
            &dir.join(format!("persist-{rep}")),
            log,
            &mut samples,
        ));
    }
    let exact = if scan_work.windows(2).all(|w| w[0] == w[1]) {
        Ok(())
    } else {
        Err(format!(
            "ingest scan work differed across repeats of one feed: {scan_work:?}"
        ))
    };
    Replay {
        metrics: samples.fold(),
        exact,
    }
}

/// `serve::http`, `serve::router` and `registry::registry` over the hot
/// keys: request parsing, routing (cache hits after a warm pass), the
/// registry lookup and response serialization.
fn serving(study: &Arc<Study>, hot: &[Key], log: &mut SpanLog, samples: &mut Samples) {
    let raws: Vec<Vec<u8>> = hot
        .iter()
        .map(|k| server::get_request("GET", &k.target, &[]))
        .collect();
    let root = log.open();
    let started = Instant::now();
    let mut requests = Vec::new();
    let mut parse = Vec::new();
    for pass in 0..PASSES {
        for raw in &raws {
            let (parsed, secs) = log.time(root, "http", "RequestParser::feed", || {
                RequestParser::new().feed(raw)
            });
            parse.push(secs);
            if pass == 0 {
                requests.push(parsed.ok().flatten().expect("benchmark requests parse"));
            }
        }
    }
    log.close(root, 0, "layer", "serve::http parse", started);

    let router = Router::with_study(Arc::clone(study), RouterOptions::default());
    let responses: Vec<_> = requests.iter().map(|r| router.handle(r)).collect();
    let root = log.open();
    let started = Instant::now();
    let (mut handle, mut get, mut write) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..PASSES {
        for request in &requests {
            handle.push(
                log.time(root, "router", "Router::handle", || router.handle(request))
                    .1,
            );
            get.push(
                log.time(root, "registry", "StudyRegistry::get_tagged", || {
                    router
                        .registry()
                        .get_tagged(osdiv_registry::DEFAULT_DATASET)
                })
                .1,
            );
        }
    }
    let mut sink = Vec::with_capacity(1 << 20);
    for _ in 0..PASSES {
        for response in &responses {
            sink.clear();
            write.push(
                log.time(root, "http", "Response::write_to", || {
                    response.write_to(&mut sink, true, false)
                })
                .1,
            );
        }
    }
    log.close(root, 0, "layer", "serve::router", started);
    let us = |v: &[f64]| stats::median(v) * 1e6;
    samples.median("http.parse_us", us(&parse));
    samples.median("http.write_us", us(&write));
    samples.median("registry.get_us", us(&get));
    samples.median("router.self_us", us(&handle) - us(&get));
}

/// Core analyses under the query mix's parameters and the renderers over
/// their sections and over the report.
fn analyses(study: &Arc<Study>, queries: &[Key], log: &mut SpanLog, samples: &mut Samples) {
    let root = log.open();
    let started = Instant::now();
    let formats = [Format::Text, Format::Csv, Format::Json];
    let render = |log: &mut SpanLog, samples: &mut Samples, sections: &[osdiv_core::Section]| {
        for format in formats {
            let name = format!("render.{}_us", format.name());
            let secs = log
                .time(root, "render", &name, || {
                    renderer(format).document(sections)
                })
                .1;
            samples.mean(&name, secs * 1e6);
        }
    };
    // Keys come in triples, one per format, of the same query.
    for key in queries.iter().step_by(3).take(QUERIES) {
        let id = key.id.expect("query keys name an analysis");
        let (sections, secs) = log.time(root, "analysis", id.name(), || {
            analysis_sections(study, id, &key.params)
        });
        samples.mean("analysis.param_us", secs * 1e6);
        render(
            log,
            samples,
            &sections.expect("query-mix configurations are valid"),
        );
    }
    let report = study.report_sections().expect("the report renders");
    for _ in 0..20 {
        render(log, samples, &report);
    }
    log.close(root, 0, "layer", "core analyses + render", started);
}

/// One feed through every layer from the wire to a served analysis:
/// chunked decoding, XML reading, classification, streaming ingestion,
/// the journal, snapshot save/load and their codecs, the index build and
/// each analysis's first run. Returns the ingester's scan work.
fn feed_pipeline(feed: &Feed, dir: &Path, log: &mut SpanLog, samples: &mut Samples) -> u64 {
    let root = log.open();
    let started = Instant::now();
    let mb = feed.xml.len() as f64 / 1e6;

    let encoded = server::chunked(&feed.xml);
    let mut decoder = ChunkedDecoder::new();
    let mut decoded = Vec::with_capacity(feed.xml.len());
    let secs = log
        .time(root, "http", "ChunkedDecoder::decode", || {
            for piece in encoded.chunks(UPLOAD_CHUNK) {
                decoder
                    .decode(piece, &mut decoded)
                    .expect("our own chunked coding decodes");
            }
        })
        .1;
    assert_eq!(
        decoded, feed.xml,
        "chunked decoding must round-trip the feed"
    );
    samples.median("http.chunked_mb_per_s", mb / secs);

    let xml = std::str::from_utf8(&feed.xml).expect("feeds are UTF-8");
    let (entries, secs) = log.time(root, "nvd-feed", "FeedReader::read_from_str", || {
        FeedReader::new().read_from_str(xml)
    });
    samples.median("feed.read_mb_per_s", mb / secs);
    let mut dataset = StudyDataset::from_entries(&entries.expect("generated feeds read"));
    let classifier = Classifier::with_default_rules();
    let secs = log
        .time(
            root,
            "classify",
            "StudyDataset::classify_unlabelled",
            || dataset.classify_unlabelled(&classifier),
        )
        .1;
    samples.median("classify.ms_per_feed", secs * 1e3);

    let ingest = log.open();
    let ingest_started = Instant::now();
    let mut ingester = FeedIngester::new(inputs::budget());
    for chunk in feed.xml.chunks(UPLOAD_CHUNK) {
        log.time(ingest, "ingest", "FeedIngester::push", || {
            ingester.push(chunk)
        })
        .0
        .expect("generated feeds ingest");
    }
    let scan_work = ingester.scan_work();
    let outcome = log
        .time(ingest, "ingest", "FeedIngester::finish", || {
            ingester.finish()
        })
        .0
        .expect("generated feeds ingest");
    log.close(ingest, root, "layer", "registry::ingest", ingest_started);
    samples.median("ingest.carve_ms", outcome.stages.carve_us as f64 / 1e3);
    samples.median("ingest.parse_ms", outcome.stages.parse_us as f64 / 1e3);
    samples.median("ingest.insert_ms", outcome.stages.insert_us as f64 / 1e3);
    samples.median(
        "ingest.scan_work_per_byte",
        scan_work as f64 / outcome.feed_bytes as f64,
    );

    let source = DatasetSource::Ingested {
        entries: outcome.entries,
        skipped: outcome.skipped,
        feed_bytes: outcome.feed_bytes,
    };
    let study = outcome.into_study();
    let store = TenantStore::open(dir).expect("the scratch directory is writable");
    let mut journal = store.journal("probe").expect("journals open");
    for chunk in feed.xml.chunks(UPLOAD_CHUNK) {
        let secs = log
            .time(root, "persist", "JournalWriter::append", || {
                journal.append(chunk)
            })
            .1;
        samples.mean("persist.journal_append_us", secs * 1e6);
    }
    journal.finish().expect("journals finish");
    // As on the PUT path, the first save also builds the count index.
    let (saved, secs) = log.time(root, "persist", "TenantStore::save", || {
        store.save("probe", &study, &source)
    });
    saved.expect("snapshots save");
    samples.median("persist.save_ms", secs * 1e3);
    let (loaded, secs) = log.time(root, "persist", "TenantStore::load", || store.load("probe"));
    loaded.expect("snapshots load");
    samples.median("persist.load_ms", secs * 1e3);

    let dataset: &StudyDataset = &study;
    let meta = source_meta(&source);
    let (bytes, secs) = log.time(root, "snapshot", "Snapshot::to_bytes", || {
        Snapshot::to_bytes(dataset, &meta)
    });
    samples.median("snapshot.encode_ms", secs * 1e3);
    let secs = log
        .time(root, "snapshot", "Snapshot::from_bytes", || {
            Snapshot::from_bytes(&bytes)
        })
        .1;
    samples.median("snapshot.decode_ms", secs * 1e3);
    let secs = log.time(root, "snapshot", "crc32", || crc32(&bytes)).1;
    samples.median("snapshot.crc_mb_per_s", bytes.len() as f64 / 1e6 / secs);
    for section in Snapshot::inspect(&bytes)
        .expect("fresh snapshots inspect")
        .sections
    {
        samples.median(
            &format!("snapshot.bytes.{}", section.name),
            section.length as f64,
        );
    }

    let mut payload = Vec::new();
    encode_store(dataset.store(), &mut payload);
    let fresh =
        || StudyDataset::from_store(decode_store(&payload).expect("fresh store payloads decode"));
    let (decoded, secs) = log.time(root, "vulnstore", "decode_store", || decode_store(&payload));
    samples.median("vulnstore.decode_ms", secs * 1e3);
    let indexed = StudyDataset::from_store(decoded.expect("fresh store payloads decode"));
    let secs = log
        .time(root, "index", "StudyDataset::count_index", || {
            indexed.count_index()
        })
        .1;
    samples.median("index.build_ms", secs * 1e3);

    let tenant = Study::new(indexed);
    for entry in registry() {
        let name = format!("analysis.{}_us", entry.id.name());
        let (ran, secs) = log.time(root, "analysis", &name, || (entry.prime)(&tenant));
        ran.expect("default configurations are valid");
        samples.median(&name, secs * 1e6);
    }
    let parallel = Study::new(fresh());
    let (ran, secs) = log.time(root, "study", "Study::run_all", || parallel.run_all());
    ran.expect("default configurations are valid");
    samples.median("study.run_all_ms", secs * 1e3);
    let sequential = Study::new(fresh());
    let (ran, secs) = log.time(root, "study", "Study::get x8 in turn", || {
        registry()
            .iter()
            .try_for_each(|entry| (entry.prime)(&sequential))
    });
    ran.expect("default configurations are valid");
    samples.median("study.sequential_ms", secs * 1e3);

    log.close(root, 0, "layer", "feed pipeline", started);
    scan_work
}
