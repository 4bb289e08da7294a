//! Fault-injection property: for *any* single injected [`Vfs`] failure
//! while a tenant's snapshot is overwritten (temp write, fsyncs, rename),
//! under either durability policy:
//!
//! * reads keep answering — the snapshot on disk is always a complete
//!   committed state (old or new), never a hybrid, and always loads;
//! * a failed save leaves no temp file behind;
//! * cold recovery over what is left reports no errors;
//! * the next fault-free save of the same payload fully recovers.
//!
//! [`Vfs`]: osdiv_registry::Vfs

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use nvd_feed::FeedWriter;
use nvd_model::{CveId, OsDistribution, VulnerabilityEntry};
use osdiv_core::{Format, Study};
use osdiv_registry::{
    ChaosVfs, DatasetSource, Durability, FeedIngester, IngestBudget, RegistryOptions,
    StudyRegistry, TenantStore,
};
use proptest::prelude::*;

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "osdiv-registry-faults-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn feed(entries: usize, year: u16) -> String {
    let entries: Vec<_> = (0..entries)
        .map(|i| {
            VulnerabilityEntry::builder(CveId::new(year, 200 + i as u32))
                .summary(format!("Integer overflow number {i} in the NFS server"))
                .affects_os(if i % 2 == 0 {
                    OsDistribution::OpenBsd
                } else {
                    OsDistribution::Windows2003
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

proptest! {
    #[test]
    fn any_single_vfs_fault_leaves_reads_correct_and_a_retry_recovers(
        // Covers every op of the longest (Full) save; an index past the
        // end means no fault fires.
        fail_op in 0usize..5,
        durability in prop_oneof![Just(Durability::Rename), Just(Durability::Full)],
    ) {
        let dir = temp_dir("put");
        let chaos = ChaosVfs::new();
        let store =
            TenantStore::open_with(&dir, durability, Arc::new(chaos.clone())).unwrap();

        // Fault-free baseline save: the old committed state.
        let (old, old_source) = ingest(&feed(10, 2004));
        store.save("t", &old, &old_source).unwrap();
        let old_report = old.report(Format::Json).unwrap();

        // The faulted save: exactly one injected failure somewhere in it.
        let (new, new_source) = ingest(&feed(14, 2006));
        let new_report = new.report(Format::Json).unwrap();
        chaos.reset();
        chaos.set_fail_op(Some(fail_op));
        let outcome = store.save("t", &new, &new_source);
        chaos.set_fail_op(None);
        if let Err(error) = &outcome {
            prop_assert!(
                error.to_string().contains("chaos"),
                "the only allowed failure is the injected one, got: {error}"
            );
        }
        prop_assert!(!dir.join("t.osdv.tmp").exists(), "a failed save left its temp file");

        // Reads stay correct: the snapshot always loads and serves a
        // byte-identical old or new report — never a hybrid.
        let loaded = store.load("t");
        prop_assert!(loaded.is_ok(), "snapshot unreadable after fault: {loaded:?}");
        let report = loaded.unwrap().report(Format::Json).unwrap();
        prop_assert!(
            report == old_report || report == new_report,
            "read served a state no successful PUT ever committed"
        );

        // Cold recovery over what is left reports no errors.
        let boot = Arc::new(TenantStore::open(&dir).unwrap());
        let registry =
            StudyRegistry::new(RegistryOptions::default()).with_persistence(Arc::clone(&boot));
        let recovery = registry.recover();
        prop_assert!(
            recovery.errors.is_empty(),
            "recovery errored after a single fault: {:?}",
            recovery.errors
        );

        // A fault-free retry of the same save fully recovers.
        store.save("t", &new, &new_source).unwrap();
        let report = store.load("t").unwrap().report(Format::Json).unwrap();
        prop_assert_eq!(report, new_report);

        let _ = std::fs::remove_dir_all(&dir);
    }
}
