//! Registry concurrency: threads ingesting, evicting, deleting and
//! querying distinct and colliding dataset names must never panic, must
//! keep memoized `Arc` identity stable for surviving datasets, and must
//! answer clean typed errors — `NotFound` after deletion, `Evicted` after
//! capacity eviction — never torn state.

use std::sync::Arc;

use nvd_model::{CveId, OsDistribution, VulnerabilityEntry};
use osdiv_core::Study;
use osdiv_registry::{DatasetSource, DatasetState, RegistryError, RegistryOptions, StudyRegistry};

fn small_study(tag: u32) -> Arc<Study> {
    let entries: Vec<_> = (0..5u32)
        .map(|i| {
            VulnerabilityEntry::builder(CveId::new(2004, tag * 100 + i + 1))
                .summary("Buffer overflow in the TCP/IP stack")
                .affects_os(OsDistribution::Debian)
                .build()
                .unwrap()
        })
        .collect();
    Arc::new(Study::from_entries(&entries))
}

fn ingested(entries: usize) -> DatasetSource {
    DatasetSource::Ingested {
        entries,
        skipped: 0,
        feed_bytes: 0,
    }
}

#[test]
fn colliding_inserts_elect_exactly_one_winner() {
    let registry = StudyRegistry::new(RegistryOptions::default());
    let outcomes: Vec<Result<(), RegistryError>> = std::thread::scope(|scope| {
        let registry = &registry;
        (0..8)
            .map(|tag| {
                scope.spawn(move || registry.insert("contested", small_study(tag), ingested(5)))
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|handle| handle.join().unwrap())
            .collect()
    });
    let winners = outcomes.iter().filter(|o| o.is_ok()).count();
    assert_eq!(winners, 1, "exactly one insert wins the name");
    assert!(outcomes
        .iter()
        .filter_map(|o| o.as_ref().err())
        .all(|e| matches!(e, RegistryError::AlreadyExists { .. })));
    // Every subsequent reader observes the one winning session.
    let first = registry.get("contested").unwrap();
    let second = registry.get("contested").unwrap();
    assert!(Arc::ptr_eq(&first, &second));
}

#[test]
fn concurrent_lazy_builds_of_one_synthetic_spec_agree_on_one_arc() {
    let registry = StudyRegistry::new(RegistryOptions::default());
    registry.register_synthetic("lazy", 3).unwrap();
    let studies: Vec<Arc<Study>> = std::thread::scope(|scope| {
        let registry = &registry;
        (0..8)
            .map(|_| scope.spawn(move || registry.get("lazy").unwrap()))
            .collect::<Vec<_>>()
            .into_iter()
            .map(|handle| handle.join().unwrap())
            .collect()
    });
    for pair in studies.windows(2) {
        assert!(
            Arc::ptr_eq(&pair[0], &pair[1]),
            "all concurrent first accesses observe the winning build"
        );
    }
}

#[test]
fn mixed_ingest_evict_query_delete_storm_stays_consistent() {
    // A byte budget that holds roughly three of the small sessions, so the
    // storm constantly evicts.
    let budget = small_study(0).estimated_bytes() * 3 + 512;
    let registry = StudyRegistry::new(RegistryOptions {
        max_datasets: 64,
        max_total_bytes: budget,
    });

    std::thread::scope(|scope| {
        let registry = &registry;
        // Writers: each thread owns distinct names plus one contested name.
        for thread in 0..4u32 {
            scope.spawn(move || {
                for round in 0..10u32 {
                    let own = format!("t{thread}-r{round}");
                    registry
                        .insert(&own, small_study(thread), ingested(5))
                        .unwrap();
                    let _ = registry.insert("contested", small_study(thread), ingested(5));
                    if round % 3 == 0 {
                        let _ = registry.remove(&own);
                        let _ = registry.remove("contested");
                    }
                }
            });
        }
        // Readers: hammer lookups across every name that may exist.
        for _ in 0..4 {
            scope.spawn(move || {
                for _ in 0..200 {
                    for name in ["contested", "t0-r0", "t3-r9", "never-registered"] {
                        match registry.get(name) {
                            Ok(study) => {
                                // A served session is always coherent.
                                assert_eq!(study.valid_count(), 5);
                            }
                            Err(RegistryError::NotFound { .. } | RegistryError::Evicted { .. }) => {
                            }
                            Err(other) => panic!("unexpected error: {other}"),
                        }
                    }
                }
            });
        }
    });

    // The storm respected the byte budget throughout (checked after the
    // barrier: resident bytes can never exceed it at rest).
    assert!(registry.resident_bytes() <= budget);
    assert!(registry.len() <= 64);

    // Surviving datasets stay memoized by pointer identity… (a fresh
    // post-storm insert guarantees at least one resident dataset exists,
    // whatever interleaving the storm took).
    registry
        .insert("post-storm", small_study(99), ingested(5))
        .unwrap();
    let survivors: Vec<String> = registry
        .list()
        .into_iter()
        .filter(|info| info.state == DatasetState::Resident)
        .map(|info| info.name)
        .collect();
    assert!(!survivors.is_empty());
    for name in &survivors {
        let a = registry.get(name).unwrap();
        let b = registry.get(name).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "{name} lost pointer stability");
    }

    // …and a deleted survivor answers a clean NotFound, while an evicted
    // ingested dataset answers Evicted until its name is reused.
    let victim = survivors[0].clone();
    registry.remove(&victim).unwrap();
    assert_eq!(
        registry.get(&victim).unwrap_err(),
        RegistryError::NotFound {
            name: victim.clone()
        }
    );
    for info in registry.list() {
        if info.state != DatasetState::Resident {
            assert_eq!(
                registry.get(&info.name).unwrap_err(),
                RegistryError::Evicted {
                    name: info.name.clone()
                }
            );
            // Deleting the tombstone frees the name: clean NotFound after
            // the eviction is acknowledged.
            registry.remove(&info.name).unwrap();
            assert!(matches!(
                registry.get(&info.name).unwrap_err(),
                RegistryError::NotFound { .. }
            ));
        }
    }
}
