//! Crash-consistency torture harness.
//!
//! Records every filesystem mutation a realistic tenant workload makes
//! through [`ChaosVfs`], then simulates a crash at *every* point in that
//! history: each operation prefix — plus torn byte-cuts inside every
//! whole-file write — is replayed into a fresh directory and recovered
//! cold. The invariants, for every crash image:
//!
//! * recovery never errors;
//! * every surviving `.osdv` snapshot is byte-identical to a state the
//!   workload actually committed — old or new, never a hybrid;
//! * after the recovery the directory holds only `.osdv` files: torn
//!   temp files and an earlier build's upload journal are deleted;
//! * the pre-existing tenant always loads and serves a byte-identical
//!   report for either its old or its new contents.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use nvd_feed::FeedWriter;
use nvd_model::{CveId, OsDistribution, VulnerabilityEntry};
use osdiv_core::{Format, Study};
use osdiv_registry::{
    ChaosVfs, DatasetSource, Durability, FeedIngester, IngestBudget, RegistryOptions,
    StudyRegistry, TenantStore, VfsOp,
};

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("osdiv-torture-{tag}-{}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn feed(entries: usize, year: u16) -> String {
    let entries: Vec<_> = (0..entries)
        .map(|i| {
            VulnerabilityEntry::builder(CveId::new(year, 100 + i as u32))
                .summary(format!("Stack overflow number {i} in the RPC daemon"))
                .affects_os(if i % 2 == 0 {
                    OsDistribution::Debian
                } else {
                    OsDistribution::Solaris
                })
                .build()
                .unwrap()
        })
        .collect();
    FeedWriter::new().write_to_string(&entries).unwrap()
}

fn ingest(xml: &str) -> (Arc<Study>, DatasetSource) {
    let mut ingester = FeedIngester::new(IngestBudget::default());
    ingester.push(xml.as_bytes()).unwrap();
    let outcome = ingester.finish().unwrap();
    let source = DatasetSource::Ingested {
        entries: outcome.entries,
        skipped: outcome.skipped,
        feed_bytes: outcome.feed_bytes,
    };
    (Arc::new(outcome.into_study()), source)
}

/// Everything the torture run needs to judge a crash image: the recorded
/// operation trace plus the committed byte-states each snapshot may
/// legally hold.
struct Recording {
    src: PathBuf,
    trace: Vec<VfsOp>,
    /// Files present before the traced workload began (the baseline a
    /// crash image starts from).
    baseline: Vec<(String, Vec<u8>)>,
    /// `keep.osdv` before and after the traced overwrite.
    keep_states: [Vec<u8>; 2],
    /// JSON reports matching `keep_states`.
    keep_reports: [String; 2],
    /// `fresh.osdv` once committed (it does not exist in the baseline).
    fresh_state: Vec<u8>,
}

/// Runs the workload under [`ChaosVfs`] and captures the trace:
///
/// 1. (untraced) save tenant `keep` — the pre-state — beside the upload
///    journal an earlier build left for a crashed `PUT`;
/// 2. snapshot new tenant `fresh`, as its `PUT` does;
/// 3. overwrite `keep`'s snapshot with new contents — the post-state.
fn record(durability: Durability) -> Recording {
    let src = temp_dir("src");
    let keep_old_xml = feed(12, 2004);
    let keep_new_xml = feed(16, 2005);
    let fresh_xml = feed(8, 2006);

    // Pre-state, written outside the trace: crash images start from here.
    let (keep_old, keep_old_source) = ingest(&keep_old_xml);
    {
        let store = TenantStore::open_durable(&src, durability).unwrap();
        store.save("keep", &keep_old, &keep_old_source).unwrap();
    }
    fs::write(src.join("crashed.journal"), b"OSDJ\x01\x00").unwrap();
    let baseline = snapshot_files(&src);
    let pre_bytes = fs::read(src.join("keep.osdv")).unwrap();
    let pre_report = keep_old.report(Format::Json).unwrap();

    // The traced workload.
    let chaos = ChaosVfs::new();
    let store = TenantStore::open_with(&src, durability, Arc::new(chaos.clone())).unwrap();

    let (fresh, fresh_source) = ingest(&fresh_xml);
    store.save("fresh", &fresh, &fresh_source).unwrap();

    let (keep_new, keep_new_source) = ingest(&keep_new_xml);
    store.save("keep", &keep_new, &keep_new_source).unwrap();

    let trace = chaos.trace();
    assert!(
        trace.len() >= 4,
        "the workload must record a meaningful trace, got {} ops",
        trace.len()
    );

    Recording {
        trace,
        baseline,
        keep_states: [pre_bytes, fs::read(src.join("keep.osdv")).unwrap()],
        keep_reports: [pre_report, keep_new.report(Format::Json).unwrap()],
        fresh_state: fs::read(src.join("fresh.osdv")).unwrap(),
        src,
    }
}

fn snapshot_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files = Vec::new();
    for entry in fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name().into_string().unwrap();
        files.push((name, fs::read(entry.path()).unwrap()));
    }
    files
}

/// Applies one recorded operation to the crash-image directory,
/// optionally tearing it after `cut` bytes (byte-carrying ops only).
fn apply(image: &Path, src: &Path, op: &VfsOp, cut: Option<usize>) {
    let map = |p: &Path| image.join(p.strip_prefix(src).expect("op path outside the source dir"));
    match op {
        VfsOp::Write { path, bytes } => {
            let keep = cut.unwrap_or(bytes.len()).min(bytes.len());
            fs::write(map(path), bytes.get(..keep).unwrap()).unwrap();
        }
        VfsOp::Rename { from, to } => fs::rename(map(from), map(to)).unwrap(),
        VfsOp::Remove { path } => {
            let _ = fs::remove_file(map(path));
        }
        // A crash loses nothing a sync already made durable; replay-wise
        // both are no-ops on the image.
        VfsOp::SyncFile { .. } | VfsOp::SyncDir { .. } => {}
    }
}

/// Builds the crash image for `trace[..prefix]` (plus an optional torn
/// cut of `trace[prefix]`) and asserts every recovery invariant.
fn check_crash_image(recording: &Recording, prefix: usize, cut: Option<usize>) {
    let label = match cut {
        Some(cut) => format!("prefix {prefix} + {cut}-byte tear"),
        None => format!("prefix {prefix}"),
    };
    let image = temp_dir("image");
    fs::create_dir_all(&image).unwrap();
    for (name, bytes) in &recording.baseline {
        fs::write(image.join(name), bytes).unwrap();
    }
    for op in recording.trace.get(..prefix).unwrap() {
        apply(&image, &recording.src, op, None);
    }
    if let Some(cut) = cut {
        apply(
            &image,
            &recording.src,
            recording.trace.get(prefix).unwrap(),
            Some(cut),
        );
    }

    // Invariant: every surviving snapshot is a committed state, bytewise.
    for (name, bytes) in snapshot_files(&image) {
        let ok = match name.as_str() {
            "keep.osdv" => recording.keep_states.contains(&bytes),
            "fresh.osdv" => recording.fresh_state == bytes,
            // Torn temp files and the old journal are expected debris;
            // recovery must cope with them, byte equality is not required.
            _ => true,
        };
        assert!(
            ok,
            "{label}: {name} holds bytes no committed state ever held"
        );
    }

    // Invariant: cold recovery never errors.
    let store = Arc::new(TenantStore::open(&image).unwrap());
    let registry =
        StudyRegistry::new(RegistryOptions::default()).with_persistence(Arc::clone(&store));
    let recovery = registry.recover();
    assert!(
        recovery.errors.is_empty(),
        "{label}: recovery reported errors: {:?}",
        recovery.errors
    );

    // Invariant: a writable recovery leaves nothing but snapshots.
    let debris: Vec<String> = snapshot_files(&image)
        .into_iter()
        .map(|(name, _)| name)
        .filter(|name| !name.ends_with(".osdv"))
        .collect();
    assert!(debris.is_empty(), "{label}: recovery left {debris:?}");

    // Invariant: the pre-existing tenant always loads and serves either
    // its old or its new report, byte-identically.
    let loaded = store
        .load("keep")
        .unwrap_or_else(|error| panic!("{label}: keep failed to load: {error}"));
    let report = loaded.report(Format::Json).unwrap();
    assert!(
        recording.keep_reports.contains(&report),
        "{label}: keep served a report matching neither committed state"
    );

    let _ = fs::remove_dir_all(&image);
}

fn torture(durability: Durability) {
    let recording = record(durability);
    let ops = recording.trace.len();
    for prefix in 0..=ops {
        check_crash_image(&recording, prefix, None);
        // Tear the next operation mid-write where it carries bytes.
        let torn_len = match recording.trace.get(prefix) {
            Some(VfsOp::Write { bytes, .. }) => bytes.len(),
            _ => 0,
        };
        if torn_len > 1 {
            let mut cuts = vec![1, torn_len / 2, torn_len - 1];
            cuts.dedup();
            for cut in cuts {
                check_crash_image(&recording, prefix, Some(cut));
            }
        }
    }
    let _ = fs::remove_dir_all(&recording.src);
}

#[test]
fn every_crash_prefix_recovers_under_rename_durability() {
    torture(Durability::Rename);
}

#[test]
fn every_crash_prefix_recovers_under_full_durability() {
    torture(Durability::Full);
}
