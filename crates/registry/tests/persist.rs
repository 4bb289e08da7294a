//! Durable-tenant integration: spill-and-reload under memory pressure,
//! warm restarts from snapshots, and boot deleting the journals earlier
//! builds left — the registry-level guarantees behind `osdiv serve
//! --data-dir`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use nvd_feed::FeedWriter;
use nvd_model::{CveId, OsDistribution, VulnerabilityEntry};
use osdiv_core::snapshot::crc32;
use osdiv_core::{Format, Study};
use osdiv_registry::{
    DatasetSource, FeedIngester, IngestBudget, RegistryOptions, StudyRegistry, TenantStore,
};

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "osdiv-registry-persist-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn feed(entries: usize) -> String {
    let entries: Vec<_> = (0..entries)
        .map(|i| {
            VulnerabilityEntry::builder(CveId::new(2004 + (i % 5) as u16, 100 + i as u32))
                .summary(format!("Heap overflow number {i} in the SMB service"))
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

#[test]
fn eviction_spills_durable_tenants_and_reloads_them_with_the_same_generation() {
    let dir = temp_dir("spill");
    let store = Arc::new(TenantStore::open(&dir).unwrap());
    let xml = feed(12);
    let (a, a_source) = ingest(&xml);
    let (b, b_source) = ingest(&xml);
    let bytes = a.estimated_bytes();
    let registry = StudyRegistry::new(RegistryOptions {
        max_datasets: 16,
        max_total_bytes: bytes + bytes / 2,
    })
    .with_persistence(Arc::clone(&store));

    registry.insert("a", Arc::clone(&a), a_source).unwrap();
    let (_, generation_before) = registry.get_tagged("a").unwrap();
    // Admitting "b" must evict "a" — which spills instead of tombstoning.
    registry.insert("b", b, b_source).unwrap();
    let info = registry
        .list()
        .into_iter()
        .find(|info| info.name == "a")
        .unwrap();
    assert!(!info.resident);
    assert!(info.spilled, "durable eviction is a spill, not a tombstone");
    assert!(store.snapshot_path("a").exists());

    // The name transparently reloads — same data, same generation, so
    // response caches keyed on (name, generation) stay coherent.
    let (reloaded, generation_after) = registry.get_tagged("a").unwrap();
    assert_eq!(generation_before, generation_after);
    assert_eq!(reloaded.valid_count(), a.valid_count());
    assert!(store.metrics().spills() >= 1);
    assert!(store.metrics().snapshot_loads() >= 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_restart_serves_byte_identical_reports() {
    let dir = temp_dir("restart");
    let xml = feed(20);
    let report_before = {
        let store = Arc::new(TenantStore::open(&dir).unwrap());
        let registry =
            StudyRegistry::new(RegistryOptions::default()).with_persistence(Arc::clone(&store));
        let (study, source) = ingest(&xml);
        registry.insert("feed", Arc::clone(&study), source).unwrap();
        assert_eq!(store.metrics().snapshot_writes(), 1);
        study.report(Format::Json).unwrap()
    }; // process "dies" here: only the disk survives

    let store = Arc::new(TenantStore::open(&dir).unwrap());
    let registry =
        StudyRegistry::new(RegistryOptions::default()).with_persistence(Arc::clone(&store));
    let recovery = registry.recover();
    assert_eq!(recovery.recovered, ["feed"]);
    assert!(recovery.errors.is_empty());

    // Recovered tenants list immediately (spilled) and load lazily.
    let info = registry
        .list()
        .into_iter()
        .find(|info| info.name == "feed")
        .unwrap();
    assert!(info.spilled && !info.resident);
    assert_eq!(store.metrics().snapshot_loads(), 0, "boot decodes no store");

    let study = registry.get("feed").unwrap();
    assert_eq!(study.report(Format::Json).unwrap(), report_before);
    assert_eq!(store.metrics().snapshot_loads(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An upload journal as earlier builds wrote it: `OSDJ`, format version
/// 1, then one record of length, CRC-32 and the complete feed.
fn old_journal(xml: &str) -> Vec<u8> {
    let mut bytes = b"OSDJ".to_vec();
    bytes.extend_from_slice(&1u16.to_le_bytes());
    bytes.extend_from_slice(&(xml.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&crc32(xml.as_bytes()).to_le_bytes());
    bytes.extend_from_slice(xml.as_bytes());
    bytes
}

#[test]
fn boot_deletes_old_journals_so_an_unacknowledged_upload_can_be_retried() {
    // An upload that was never acknowledged: an earlier build journaled
    // the whole feed and crashed before its snapshot was installed.
    let dir = temp_dir("old-journal");
    let xml = feed(10);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("t.journal"), old_journal(&xml)).unwrap();
    let store = Arc::new(TenantStore::open(&dir).unwrap());
    let registry =
        StudyRegistry::new(RegistryOptions::default()).with_persistence(Arc::clone(&store));
    let recovery = registry.recover();
    assert!(recovery.recovered.is_empty() && recovery.errors.is_empty());
    assert!(!dir.join("t.journal").exists());
    assert!(!registry.contains("t"));
    // The client's retry lands.
    let (study, source) = ingest(&xml);
    registry.insert("t", study, source).unwrap();
    assert_eq!(registry.get("t").unwrap().valid_count(), 10);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_beside_a_complete_snapshot_is_redundant() {
    let dir = temp_dir("redundant");
    {
        let store = Arc::new(TenantStore::open(&dir).unwrap());
        let registry =
            StudyRegistry::new(RegistryOptions::default()).with_persistence(Arc::clone(&store));
        let (study, source) = ingest(&feed(6));
        registry.insert("t", study, source).unwrap();
    }
    // An earlier build crashed after the snapshot rename but before it
    // deleted the journal: the journal goes, the snapshot still recovers.
    std::fs::write(dir.join("t.journal"), old_journal(&feed(4))).unwrap();
    let store = Arc::new(TenantStore::open(&dir).unwrap());
    let registry =
        StudyRegistry::new(RegistryOptions::default()).with_persistence(Arc::clone(&store));
    let recovery = registry.recover();
    assert_eq!(recovery.recovered, ["t"]);
    assert!(recovery.errors.is_empty());
    assert!(!dir.join("t.journal").exists());
    assert_eq!(registry.get("t").unwrap().valid_count(), 6);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn delete_removes_the_snapshot_so_restarts_stay_deleted() {
    let dir = temp_dir("delete");
    let store = Arc::new(TenantStore::open(&dir).unwrap());
    let registry =
        StudyRegistry::new(RegistryOptions::default()).with_persistence(Arc::clone(&store));
    let (study, source) = ingest(&feed(5));
    registry.insert("gone", study, source).unwrap();
    assert!(store.snapshot_path("gone").exists());
    registry.remove("gone").unwrap();
    assert!(!store.snapshot_path("gone").exists());

    let registry2 = StudyRegistry::new(RegistryOptions::default()).with_persistence(store);
    let recovery = registry2.recover();
    assert!(recovery.recovered.is_empty());
    assert!(!registry2.contains("gone"));
    let _ = std::fs::remove_dir_all(&dir);
}
