//! Always-on fuzz harness for the NVD feed path: the XML reader
//! ([`FeedReader`]) and the streaming boundary scanner ([`FeedIngester`])
//! over malformed corpus feeds and seeded mutations of a valid feed.
//! Malformed XML is a `FeedError` (or a skip, in lenient mode) — never a
//! panic — and the streaming ingestion must agree with the one-shot one
//! on every input, valid or not.

use nvd_feed::{FeedReader, FeedWriter};
use nvd_model::{CveId, OsDistribution, VulnerabilityEntry};
use osdiv_registry::{FeedIngester, IngestBudget};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::path::PathBuf;

fn corpus(dir: &str) -> Vec<(String, Vec<u8>)> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/corpora")
        .join(dir);
    let mut paths: Vec<_> = std::fs::read_dir(&root)
        .unwrap_or_else(|e| panic!("corpus {} unreadable: {e}", root.display()))
        .map(|entry| entry.expect("corpus entry").path())
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "corpus {dir} must not be empty");
    paths
        .into_iter()
        .map(|path| {
            let name = path
                .file_name()
                .unwrap_or_default()
                .to_string_lossy()
                .into_owned();
            let bytes = std::fs::read(&path).expect("corpus file readable");
            (name, bytes)
        })
        .collect()
}

fn valid_feed(entries: u32) -> Vec<u8> {
    let entries: Vec<_> = (0..entries)
        .map(|i| {
            VulnerabilityEntry::builder(CveId::new(2000 + (i % 8) as u16, i + 1))
                .summary(format!("Denial of service number {i} in the scheduler"))
                .affects_os(if i % 2 == 0 {
                    OsDistribution::Debian
                } else {
                    OsDistribution::Solaris
                })
                .build()
                .expect("builder input is valid")
        })
        .collect();
    FeedWriter::new()
        .write_to_string(&entries)
        .expect("writer output is valid")
        .into_bytes()
}

fn mutate(seed: &[u8], rng: &mut StdRng) -> Vec<u8> {
    let mut bytes = seed.to_vec();
    for _ in 0..rng.gen_range(1..=10usize) {
        match rng.gen_range(0u32..4) {
            0 if !bytes.is_empty() => {
                let i = rng.gen_range(0..bytes.len());
                bytes[i] = rng.gen_range(0u32..=255) as u8;
            }
            1 => {
                let i = rng.gen_range(0..=bytes.len());
                // Bias insertions toward XML-significant bytes.
                let byte = *[b'<', b'>', b'&', b'"', b']', 0xFF]
                    .get(rng.gen_range(0usize..6))
                    .unwrap_or(&b'<');
                bytes.insert(i, byte);
            }
            2 if !bytes.is_empty() => {
                let i = rng.gen_range(0..bytes.len());
                bytes.remove(i);
            }
            _ => {
                let keep = bytes.len().saturating_sub(rng.gen_range(0..=32usize));
                bytes.truncate(keep);
            }
        }
    }
    bytes
}

/// One-shot strict read: the outcome fingerprint for comparisons.
fn read_oneshot(bytes: &[u8]) -> String {
    let Ok(xml) = std::str::from_utf8(bytes) else {
        return "not-utf8".to_string();
    };
    match FeedReader::new().read_from_str(xml) {
        Ok(entries) => format!("ok {}", entries.len()),
        Err(error) => format!("err {error}"),
    }
}

/// Streaming ingestion in `piece`-byte pushes, through the constructor
/// the `PUT /v1/datasets/{name}` route uses.
fn ingest_streamed(bytes: &[u8], piece: usize) -> String {
    let mut ingester = FeedIngester::new(IngestBudget::default());
    for chunk in bytes.chunks(piece.max(1)) {
        if let Err(error) = ingester.push(chunk) {
            return format!("push-err {error}");
        }
    }
    match ingester.finish() {
        Ok(outcome) => format!("ok {}/{}", outcome.entries, outcome.skipped),
        Err(error) => format!("finish-err {error}"),
    }
}

#[test]
fn corpus_feeds_never_panic() {
    for (name, bytes) in corpus("feeds") {
        let _ = read_oneshot(&bytes);
        let whole = ingest_streamed(&bytes, usize::MAX);
        for piece in [1, 7, 64] {
            assert_eq!(
                ingest_streamed(&bytes, piece),
                whole,
                "{name}: stream slicing changed the outcome"
            );
        }
    }
}

#[test]
fn mutated_feeds_never_panic_and_stream_consistently() {
    let base = valid_feed(6);
    let mut rng = StdRng::seed_from_u64(0x05D1_FBAD_C0DE_0003);
    for _ in 0..60 {
        let mutant = mutate(&base, &mut rng);
        let _ = read_oneshot(&mutant);
        let whole = ingest_streamed(&mutant, usize::MAX);
        assert_eq!(
            ingest_streamed(&mutant, 13),
            whole,
            "stream slicing changed the outcome"
        );
    }
}
