//! Durable-tenant integration: spill-and-reload under memory pressure,
//! warm restarts from snapshots, boot deleting the journals earlier
//! builds left, and deletes racing snapshot saves — the registry-level
//! guarantees behind `osdiv serve --data-dir`.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

use nvd_feed::FeedWriter;
use nvd_model::{CveId, OsDistribution, VulnerabilityEntry};
use osdiv_core::snapshot::crc32;
use osdiv_core::{Format, Study};
use osdiv_registry::{
    DatasetSource, DatasetState, Durability, FeedIngester, IngestBudget, RealVfs, RegistryError,
    RegistryOptions, StudyRegistry, TenantStore, Vfs,
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
    assert_eq!(
        info.state,
        DatasetState::Spilled,
        "durable eviction is a spill, not a tombstone"
    );
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
    assert_eq!(info.state, DatasetState::Spilled);
    assert_eq!(store.metrics().snapshot_loads(), 0, "boot decodes no store");

    let study = registry.get("feed").unwrap();
    assert_eq!(study.report(Format::Json).unwrap(), report_before);
    assert_eq!(store.metrics().snapshot_loads(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `osdiv snapshot save` writes a synthetic tenant's snapshot without a
/// feed. A boot over it must serve the file's rows, not regenerate the
/// seed's, and evicting the tenant again is a spill.
#[test]
fn a_recovered_synthetic_tenant_loads_its_snapshot() {
    let dir = temp_dir("synthetic");
    let store = Arc::new(TenantStore::open(&dir).unwrap());
    let (study, _) = ingest(&feed(4));
    store
        .save("syn", &study, &DatasetSource::Synthetic { seed: 1 })
        .unwrap();
    let bytes = study.estimated_bytes();
    let registry = StudyRegistry::new(RegistryOptions {
        max_datasets: 16,
        max_total_bytes: bytes + bytes / 2,
    })
    .with_persistence(Arc::clone(&store));
    assert_eq!(registry.recover().recovered, ["syn"]);
    let served = registry.get("syn").unwrap();
    assert_eq!(served.store().vulnerability_count(), 4);
    assert_eq!(store.metrics().snapshot_loads(), 1);

    // Admitting a second tenant evicts `syn` back to its snapshot.
    let (other, source) = ingest(&feed(4));
    registry.insert("other", other, source).unwrap();
    let syn = registry
        .list()
        .into_iter()
        .find(|info| info.name == "syn")
        .unwrap();
    assert_eq!(syn.state, DatasetState::Spilled);
    assert_eq!(store.metrics().spills(), 1);
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

/// A [`Vfs`] over the real filesystem that parks the next `rename` or
/// `remove_file` call until the test releases it, so a test can hold a
/// snapshot save or a delete at one exact step while another call runs.
#[derive(Debug, Default)]
struct GateVfs {
    gate: Mutex<Gate>,
    changed: Condvar,
}

#[derive(Debug, Default)]
struct Gate {
    /// The operation whose next call parks.
    armed: Option<&'static str>,
    parked: bool,
    released: bool,
}

impl GateVfs {
    fn arm(&self, op: &'static str) {
        *self.gate.lock().unwrap() = Gate {
            armed: Some(op),
            ..Gate::default()
        };
    }

    fn wait_parked(&self) {
        let mut gate = self.gate.lock().unwrap();
        while !gate.parked {
            gate = self.changed.wait(gate).unwrap();
        }
    }

    fn release(&self) {
        self.gate.lock().unwrap().released = true;
        self.changed.notify_all();
    }

    fn pass(&self, op: &'static str) {
        let mut gate = self.gate.lock().unwrap();
        if gate.armed == Some(op) {
            gate.armed = None;
            gate.parked = true;
            self.changed.notify_all();
            while !gate.released {
                gate = self.changed.wait(gate).unwrap();
            }
        }
    }
}

impl Vfs for GateVfs {
    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        RealVfs.write_file(path, bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.pass("rename");
        RealVfs.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.pass("remove_file");
        RealVfs.remove_file(path)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        RealVfs.sync_file(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        RealVfs.sync_dir(path)
    }
}

fn gated_registry(dir: &Path) -> (Arc<GateVfs>, Arc<StudyRegistry>) {
    let vfs = Arc::new(GateVfs::default());
    let store =
        TenantStore::open_with(dir, Durability::Rename, Arc::clone(&vfs) as Arc<dyn Vfs>).unwrap();
    let registry = StudyRegistry::new(RegistryOptions::default()).with_persistence(Arc::new(store));
    (vfs, Arc::new(registry))
}

/// The invariant both interleavings below broke: once every call has
/// returned, `t` is registered exactly when `t.osdv` exists, and a fresh
/// boot over the directory agrees.
fn assert_registered_iff_on_disk(registry: &StudyRegistry, dir: &Path) {
    let registered = registry.contains("t");
    assert_eq!(
        registered,
        dir.join("t.osdv").exists(),
        "registered vs on disk"
    );
    let restarted = StudyRegistry::new(RegistryOptions::default())
        .with_persistence(Arc::new(TenantStore::open_read_only(dir)));
    restarted.recover();
    assert_eq!(restarted.contains("t"), registered, "a restart disagrees");
}

#[test]
fn a_delete_during_a_snapshot_save_answers_409_and_the_upload_stays() {
    let dir = temp_dir("delete-during-save");
    let (vfs, registry) = gated_registry(&dir);
    // Park the save's rename: `t` is registered, its snapshot not yet
    // installed.
    vfs.arm("rename");
    let put = {
        let registry = Arc::clone(&registry);
        let (study, source) = ingest(&feed(5));
        thread::spawn(move || registry.insert("t", study, source))
    };
    vfs.wait_parked();
    let deleted = registry.remove("t");
    vfs.release();
    put.join().unwrap().unwrap();
    assert_registered_iff_on_disk(&registry, &dir);
    assert!(
        matches!(deleted, Err(RegistryError::SaveInFlight { .. })),
        "{deleted:?}"
    );
    // Once the save has settled, the retried delete goes through.
    registry.remove("t").unwrap();
    assert_registered_iff_on_disk(&registry, &dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_put_racing_a_parked_delete_keeps_its_acknowledged_snapshot() {
    let dir = temp_dir("put-during-delete");
    let (vfs, registry) = gated_registry(&dir);
    let (study, source) = ingest(&feed(5));
    registry.insert("t", study, source).unwrap();
    // Park the delete just before it unlinks t.osdv, then PUT `t` again.
    vfs.arm("remove_file");
    let delete = {
        let registry = Arc::clone(&registry);
        thread::spawn(move || registry.remove("t"))
    };
    vfs.wait_parked();
    let (finished, put_finished) = mpsc::channel();
    let put = {
        let registry = Arc::clone(&registry);
        let (study, source) = ingest(&feed(7));
        thread::spawn(move || {
            let inserted = registry.insert("t", study, source);
            let _ = finished.send(());
            inserted
        })
    };
    // An unblocked PUT lands well inside the timeout; one that waits for
    // the delete's registry lock cannot land before the release below.
    let _ = put_finished.recv_timeout(Duration::from_secs(1));
    vfs.release();
    delete.join().unwrap().unwrap();
    put.join().unwrap().unwrap();
    assert_registered_iff_on_disk(&registry, &dir);
    // The snapshot on disk is the acknowledged upload's.
    let restarted = StudyRegistry::new(RegistryOptions::default())
        .with_persistence(Arc::new(TenantStore::open_read_only(&dir)));
    restarted.recover();
    assert_eq!(restarted.get("t").unwrap().valid_count(), 7);
    let _ = std::fs::remove_dir_all(&dir);
}
