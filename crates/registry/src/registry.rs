//! The [`StudyRegistry`]: a concurrent, bounded map from dataset names to
//! memoized [`Study`] sessions.
//!
//! Two kinds of dataset live in the registry:
//!
//! * **synthetic** datasets are registered as a `seed=N` spec and built
//!   lazily on first access (then memoized — every later [`get`] returns
//!   the same `Arc`). Eviction under memory pressure drops the built
//!   session but keeps the spec, so the next access transparently
//!   rebuilds;
//! * **ingested** datasets carry data that only ever existed in the
//!   request body that created them. Without persistence, eviction is
//!   irrecoverable: the registry keeps a lightweight tombstone and
//!   [`get`] answers [`RegistryError::Evicted`] (HTTP 410) rather than
//!   pretending the name was never registered. With a
//!   [`TenantStore`] attached (see
//!   [`with_persistence`](StudyRegistry::with_persistence)), an ingested
//!   dataset is snapshotted to disk the moment it is registered, so
//!   eviction merely **spills** — the built session is dropped and the
//!   next [`get`] transparently reloads it from the snapshot, same
//!   generation, no 410.
//!
//! Capacity is bounded twice: by **name count** ([`RegistryOptions::max_datasets`],
//! names are client-controlled) and by **estimated resident bytes**
//! ([`RegistryOptions::max_total_bytes`]); crossing the byte budget evicts
//! the least recently used unpinned dataset. The default dataset is pinned
//! and never evicted.
//!
//! [`get`]: StudyRegistry::get

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use osdiv_core::obs::{self, SpanKind};
use osdiv_core::Study;
use parking_lot::RwLock;

use crate::persist::TenantStore;

/// The name of the boot-time dataset every deployment serves.
pub const DEFAULT_DATASET: &str = "default";

/// Default cap on registered dataset names.
pub const DEFAULT_MAX_DATASETS: usize = 16;

/// Default cap on the estimated resident bytes of all built datasets.
pub const DEFAULT_MAX_TOTAL_BYTES: usize = 256 * 1024 * 1024;

/// Registry capacity knobs.
#[derive(Debug, Clone)]
pub struct RegistryOptions {
    /// Maximum number of registered dataset names (specs and tombstones
    /// included — names are client-controlled, so unregistered growth must
    /// be bounded too).
    pub max_datasets: usize,
    /// Maximum estimated resident bytes summed over every **built**
    /// dataset; crossing it evicts least-recently-used unpinned datasets.
    pub max_total_bytes: usize,
}

impl Default for RegistryOptions {
    fn default() -> Self {
        RegistryOptions {
            max_datasets: DEFAULT_MAX_DATASETS,
            max_total_bytes: DEFAULT_MAX_TOTAL_BYTES,
        }
    }
}

/// Where a dataset's rows came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetSource {
    /// Generated by the calibrated generator from a seed (rebuildable).
    Synthetic {
        /// The generator seed.
        seed: u64,
    },
    /// Streamed in from an NVD XML feed (not rebuildable once evicted).
    Ingested {
        /// Distinct vulnerabilities loaded.
        entries: usize,
        /// Entries skipped as malformed by the lenient reader.
        skipped: usize,
        /// Feed bytes consumed by the ingestion.
        feed_bytes: usize,
    },
}

impl DatasetSource {
    /// A short human label (`synthetic` / `ingested`).
    pub fn kind(&self) -> &'static str {
        match self {
            DatasetSource::Synthetic { .. } => "synthetic",
            DatasetSource::Ingested { .. } => "ingested",
        }
    }
}

/// Where a registered dataset's rows are right now: the one lifecycle
/// state that `/v1/datasets`, `/v1/debug/registry` and the
/// `osdiv_datasets_*` gauges all report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetState {
    /// A built session is in memory.
    Resident,
    /// A dataset with a snapshot that is not in memory (evicted, or
    /// recovered at boot); the next access reloads it, same generation.
    Spilled,
    /// A synthetic spec with no snapshot that is not built; the next
    /// access builds it from its seed.
    Lazy,
    /// An ingested dataset evicted with no snapshot to reload: an
    /// eviction tombstone whose reads answer 410.
    Evicted,
}

impl DatasetState {
    /// The state's label: `resident`, `spilled`, `lazy` or `evicted`.
    pub fn as_str(self) -> &'static str {
        match self {
            DatasetState::Resident => "resident",
            DatasetState::Spilled => "spilled",
            DatasetState::Lazy => "lazy",
            DatasetState::Evicted => "evicted",
        }
    }
}

/// A point-in-time description of one registered dataset.
#[derive(Debug, Clone)]
pub struct DatasetInfo {
    /// The dataset name.
    pub name: String,
    /// Where the rows came from.
    pub source: DatasetSource,
    /// Estimated resident bytes of the built session (0 unless the state
    /// is [`DatasetState::Resident`]).
    pub resident_bytes: usize,
    /// Where the rows are right now.
    pub state: DatasetState,
    /// Whether the dataset is protected from eviction and deletion.
    pub pinned: bool,
    /// Monotonic registration generation — bumps when a name is replaced,
    /// so an operator can tell "same name, new data" apart.
    pub generation: u64,
}

/// Typed registry failures; the serving layer maps each to an HTTP status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// No dataset of this name is registered (404).
    NotFound {
        /// The requested name.
        name: String,
    },
    /// The name is already taken (409).
    AlreadyExists {
        /// The conflicting name.
        name: String,
    },
    /// An ingested dataset of this name existed but was evicted under
    /// memory pressure and cannot be rebuilt (410) — re-ingest it.
    Evicted {
        /// The evicted name.
        name: String,
    },
    /// The dataset cannot fit: the name cap is reached or the byte budget
    /// cannot be met even after evicting everything unpinned (507).
    CapacityExceeded {
        /// What overflowed.
        reason: String,
    },
    /// The dataset's snapshot is still being saved, so it cannot be
    /// deleted yet (409; retry once the upload is acknowledged).
    SaveInFlight {
        /// The dataset being saved.
        name: String,
    },
    /// The dataset name is not a valid identifier (400).
    InvalidName {
        /// The offending name.
        name: String,
        /// Why it was rejected.
        reason: &'static str,
    },
    /// The persistence layer failed — a snapshot could not be written or
    /// read back (500). Registration fails rather than admitting a
    /// tenant whose durability was promised but not delivered.
    Persistence {
        /// The dataset whose snapshot failed.
        name: String,
        /// What went wrong.
        detail: String,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::NotFound { name } => write!(f, "dataset {name:?} is not registered"),
            RegistryError::AlreadyExists { name } => {
                write!(f, "dataset {name:?} already exists (DELETE it first)")
            }
            RegistryError::Evicted { name } => write!(
                f,
                "dataset {name:?} was evicted under memory pressure; ingest it again"
            ),
            RegistryError::SaveInFlight { name } => {
                write!(f, "dataset {name:?} is still being saved; retry the delete")
            }
            RegistryError::CapacityExceeded { reason } => {
                write!(f, "registry capacity exceeded: {reason}")
            }
            RegistryError::InvalidName { name, reason } => {
                write!(f, "invalid dataset name {name:?}: {reason}")
            }
            RegistryError::Persistence { name, detail } => {
                write!(
                    f,
                    "persistent storage failed for dataset {name:?}: {detail}"
                )
            }
        }
    }
}

impl std::error::Error for RegistryError {}

/// Validates a client-supplied dataset name: 1–64 characters of
/// `[a-z0-9._-]`, starting with a letter or digit.
pub fn validate_name(name: &str) -> Result<(), RegistryError> {
    let invalid = |reason: &'static str| RegistryError::InvalidName {
        name: name.to_string(),
        reason,
    };
    if name.is_empty() {
        return Err(invalid("must not be empty"));
    }
    if name.len() > 64 {
        return Err(invalid("must be at most 64 characters"));
    }
    if !name
        .bytes()
        .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || matches!(b, b'.' | b'_' | b'-'))
    {
        return Err(invalid(
            "allowed characters are lowercase letters, digits, '.', '_' and '-'",
        ));
    }
    if !name.as_bytes()[0].is_ascii_alphanumeric() {
        return Err(invalid("must start with a letter or digit"));
    }
    Ok(())
}

/// A built, resident session.
#[derive(Debug)]
struct Built {
    study: Arc<Study>,
    bytes: usize,
}

/// One registered name.
#[derive(Debug)]
struct Slot {
    source: DatasetSource,
    pinned: bool,
    built: Option<Built>,
    /// An ingested dataset whose payload was dropped by eviction with no
    /// snapshot to reload from (never set while `durable` holds).
    evicted: bool,
    /// A valid snapshot of this registration exists on disk: an unbuilt
    /// slot reloads it, and eviction spills instead of tombstoning.
    durable: bool,
    /// The registration's snapshot save is in flight: until it settles,
    /// the slot can be neither deleted nor evicted, so the save's outcome
    /// always lands on this registration.
    saving: bool,
    /// Logical timestamp of the last access (LRU order).
    last_used: u64,
    /// Unique id of this *registration* — a re-registered name gets a new
    /// generation, so response caches keyed on (name, generation) can
    /// never serve a previous tenant's bytes.
    generation: u64,
}

impl Slot {
    fn state(&self) -> DatasetState {
        if self.built.is_some() {
            DatasetState::Resident
        } else if self.evicted {
            DatasetState::Evicted
        } else if self.durable {
            DatasetState::Spilled
        } else {
            // A synthetic spec with no snapshot rebuilds from its seed.
            DatasetState::Lazy
        }
    }
}

/// How an unbuilt slot becomes resident again (outside the lock).
#[derive(Debug, Clone, Copy)]
enum Rebuild {
    /// Re-generate a synthetic dataset that has no snapshot from its seed.
    Generate {
        /// The generator seed.
        seed: u64,
    },
    /// Reload a spilled dataset from its snapshot.
    Reload,
}

#[derive(Debug, Default)]
struct Inner {
    slots: HashMap<String, Slot>,
    clock: u64,
}

impl Inner {
    fn resident_bytes(&self) -> usize {
        self.slots
            .values()
            .filter_map(|slot| slot.built.as_ref())
            .map(|built| built.bytes)
            .sum()
    }

    /// Evicts least-recently-used unpinned built datasets until `incoming`
    /// extra bytes fit under `budget`. `keep` (the slot the bytes are being
    /// accounted to) and slots still saving their snapshot are never
    /// evicted. Returns how many victims **spilled** (snapshot on disk,
    /// reloadable); an ingested victim without a snapshot is tombstoned.
    fn make_room(&mut self, incoming: usize, budget: usize, keep: &str) -> Result<u64, ()> {
        let mut spills = 0;
        while self.resident_bytes() + incoming > budget {
            let victim = self
                .slots
                .iter()
                .filter(|(name, slot)| {
                    slot.built.is_some() && !slot.pinned && !slot.saving && name.as_str() != keep
                })
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(name, _)| name.clone());
            let Some(victim) = victim else {
                return Err(());
            };
            let slot = self.slots.get_mut(&victim).expect("victim came from slots");
            slot.built = None;
            if slot.durable {
                spills += 1;
            } else if matches!(slot.source, DatasetSource::Ingested { .. }) {
                slot.evicted = true;
            }
        }
        Ok(spills)
    }
}

/// A concurrent, bounded registry of named [`Study`] sessions (see the
/// module docs for the eviction and error model).
///
/// # Example
///
/// ```
/// use osdiv_registry::{RegistryOptions, StudyRegistry};
///
/// let registry = StudyRegistry::new(RegistryOptions::default());
/// registry.register_synthetic("alt", 5).unwrap();
/// let study = registry.get("alt").unwrap();          // built lazily here
/// let again = registry.get("alt").unwrap();          // memoized
/// assert!(std::sync::Arc::ptr_eq(&study, &again));
/// assert!(registry.get("missing").is_err());
/// ```
#[derive(Debug)]
pub struct StudyRegistry {
    options: RegistryOptions,
    persist: Option<Arc<TenantStore>>,
    inner: RwLock<Inner>,
}

impl StudyRegistry {
    /// An empty registry.
    pub fn new(options: RegistryOptions) -> Self {
        StudyRegistry {
            options,
            persist: None,
            inner: RwLock::new(Inner::default()),
        }
    }

    /// Attaches durable tenant storage: ingested datasets are snapshotted
    /// on registration, spill (instead of tombstoning) under memory
    /// pressure, and can be recovered at boot with
    /// [`recover`](StudyRegistry::recover). Call before sharing the
    /// registry.
    pub fn with_persistence(mut self, store: Arc<TenantStore>) -> Self {
        self.persist = Some(store);
        self
    }

    /// The attached tenant store, if any.
    pub fn persistence(&self) -> Option<&Arc<TenantStore>> {
        self.persist.as_ref()
    }

    /// A registry whose [`DEFAULT_DATASET`] is the given pre-built session,
    /// registered as a pinned synthetic dataset of `seed` — the shape every
    /// server boots with.
    pub fn with_default(study: Arc<Study>, seed: u64, options: RegistryOptions) -> Self {
        let registry = StudyRegistry::new(options);
        registry
            .insert_with(
                DEFAULT_DATASET,
                study,
                DatasetSource::Synthetic { seed },
                true,
            )
            .expect("an empty registry accepts the default dataset");
        registry
    }

    /// The capacity knobs the registry enforces.
    pub fn options(&self) -> &RegistryOptions {
        &self.options
    }

    /// Registers a synthetic dataset spec without building it; the first
    /// [`get`](StudyRegistry::get) builds and memoizes the session.
    pub fn register_synthetic(&self, name: &str, seed: u64) -> Result<(), RegistryError> {
        validate_name(name)?;
        let mut inner = self.inner.write();
        self.claim_slot(&mut inner, name)?;
        inner.clock += 1;
        let clock = inner.clock;
        inner.slots.insert(
            name.to_string(),
            Slot {
                source: DatasetSource::Synthetic { seed },
                pinned: false,
                built: None,
                evicted: false,
                durable: false,
                saving: false,
                last_used: clock,
                generation: clock,
            },
        );
        Ok(())
    }

    /// Registers a built session under a name (the final step of feed
    /// ingestion).
    pub fn insert(
        &self,
        name: &str,
        study: Arc<Study>,
        source: DatasetSource,
    ) -> Result<(), RegistryError> {
        self.insert_with(name, study, source, false)
    }

    fn insert_with(
        &self,
        name: &str,
        study: Arc<Study>,
        source: DatasetSource,
        pinned: bool,
    ) -> Result<(), RegistryError> {
        validate_name(name)?;
        let bytes = study.estimated_bytes();
        // Ingested payloads are the only data that cannot be rebuilt, so
        // they are the ones worth a snapshot; synthetic specs re-generate
        // from their seed.
        let persist = self
            .persist
            .as_ref()
            .filter(|p| !p.read_only() && matches!(source, DatasetSource::Ingested { .. }))
            .map(Arc::clone);
        let generation = {
            let mut inner = self.inner.write();
            self.claim_slot(&mut inner, name)?;
            // A pinned insert (the boot-time default) is always admitted —
            // the byte budget governs the evictable tenants around it.
            if !pinned {
                self.fit(&mut inner, bytes, name)?;
            }
            inner.clock += 1;
            let clock = inner.clock;
            inner.slots.insert(
                name.to_string(),
                Slot {
                    source: source.clone(),
                    pinned,
                    built: Some(Built {
                        study: Arc::clone(&study),
                        bytes,
                    }),
                    evicted: false,
                    durable: false,
                    saving: persist.is_some(),
                    last_used: clock,
                    generation: clock,
                },
            );
            clock
        };
        let Some(persist) = persist else {
            return Ok(());
        };
        // Snapshot outside the lock — serialization takes milliseconds and
        // must not serialize unrelated requests. The slot only becomes
        // durable (spillable) once the snapshot is safely on disk; a save
        // failure unwinds the registration, because admitting a tenant
        // whose durability was promised but not delivered would turn the
        // next restart into silent data loss.
        let saved = persist.save(name, &study, &source);
        let mut inner = self.inner.write();
        // A saving slot can be neither deleted nor evicted, and its name
        // cannot be claimed, so the slot is still this registration's.
        let slot = inner
            .slots
            .get_mut(name)
            .filter(|slot| slot.generation == generation);
        match saved {
            Ok(()) => {
                if let Some(slot) = slot {
                    slot.saving = false;
                    slot.durable = true;
                }
                Ok(())
            }
            Err(error) => {
                if slot.is_some() {
                    inner.slots.remove(name);
                    // A save that failed after its rename (the directory
                    // fsync under `full`) installed a snapshot the next
                    // boot would recover. Deleting it under the lock, while
                    // the slot still holds this generation, cannot touch
                    // another registration's snapshot.
                    let _ = persist.remove(name);
                }
                Err(RegistryError::Persistence {
                    name: name.to_string(),
                    detail: error.to_string(),
                })
            }
        }
    }

    /// Rejects a taken name ([`RegistryError::AlreadyExists`]) or a full
    /// name table ([`RegistryError::CapacityExceeded`]); an evicted
    /// tombstone may be re-claimed.
    fn claim_slot(&self, inner: &mut Inner, name: &str) -> Result<(), RegistryError> {
        match inner.slots.get(name) {
            Some(slot) if !slot.evicted => {
                return Err(RegistryError::AlreadyExists {
                    name: name.to_string(),
                })
            }
            Some(_) => {
                // Re-ingesting over a tombstone replaces it.
                inner.slots.remove(name);
            }
            None => {}
        }
        if inner.slots.len() >= self.options.max_datasets {
            return Err(RegistryError::CapacityExceeded {
                reason: format!(
                    "{} of {} dataset names in use",
                    inner.slots.len(),
                    self.options.max_datasets
                ),
            });
        }
        Ok(())
    }

    /// Makes `bytes` fit under the byte budget, evicting LRU unpinned
    /// datasets; [`RegistryError::CapacityExceeded`] when impossible.
    fn fit(&self, inner: &mut Inner, bytes: usize, keep: &str) -> Result<(), RegistryError> {
        if bytes > self.options.max_total_bytes {
            return Err(RegistryError::CapacityExceeded {
                reason: format!(
                    "dataset is an estimated {bytes} bytes, over the whole {} byte budget",
                    self.options.max_total_bytes
                ),
            });
        }
        let spills = inner
            .make_room(bytes, self.options.max_total_bytes, keep)
            .map_err(|()| RegistryError::CapacityExceeded {
                reason: format!(
                    "cannot free {bytes} bytes: every resident dataset is pinned or still saving"
                ),
            })?;
        if spills > 0 {
            if let Some(persist) = &self.persist {
                persist.metrics().record_spills(spills);
            }
        }
        Ok(())
    }

    /// The session registered under `name`, building (and memoizing) a
    /// synthetic spec on first access. Concurrent first accesses may build
    /// twice, but every caller observes one winning `Arc`.
    pub fn get(&self, name: &str) -> Result<Arc<Study>, RegistryError> {
        self.get_tagged(name).map(|(study, _)| study)
    }

    /// Like [`get`](StudyRegistry::get), also returning the registration's
    /// **generation** — a unique id minted every time a name is
    /// (re)registered. Response caches key on `(name, generation)` so a
    /// deleted-and-re-registered name can never serve the previous
    /// tenant's bytes.
    pub fn get_tagged(&self, name: &str) -> Result<(Arc<Study>, u64), RegistryError> {
        loop {
            let (rebuild, generation) = {
                let mut inner = self.inner.write();
                inner.clock += 1;
                let clock = inner.clock;
                match inner.slots.get_mut(name) {
                    None => {
                        return Err(RegistryError::NotFound {
                            name: name.to_string(),
                        })
                    }
                    Some(slot) if slot.evicted => {
                        return Err(RegistryError::Evicted {
                            name: name.to_string(),
                        })
                    }
                    Some(slot) => {
                        slot.last_used = clock;
                        if let Some(built) = &slot.built {
                            return Ok((Arc::clone(&built.study), slot.generation));
                        }
                        // A snapshot holds the rows to serve, whatever the
                        // source; only a synthetic spec without one is
                        // regenerated from its seed.
                        match slot.source {
                            DatasetSource::Synthetic { seed } if !slot.durable => {
                                (Rebuild::Generate { seed }, slot.generation)
                            }
                            _ => {
                                debug_assert!(slot.durable, "non-durable evictions tombstone");
                                (Rebuild::Reload, slot.generation)
                            }
                        }
                    }
                }
            };

            // Build outside the lock — generation (or a snapshot load)
            // takes milliseconds and must not serialize unrelated
            // requests.
            let study = match rebuild {
                Rebuild::Generate { seed } => Arc::new(build_synthetic(seed)),
                Rebuild::Reload => {
                    let persist =
                        self.persist
                            .as_ref()
                            .ok_or_else(|| RegistryError::Persistence {
                                name: name.to_string(),
                                detail: "spilled tenant but no tenant store attached".to_string(),
                            })?;
                    let study = persist
                        .load(name)
                        .map_err(|error| RegistryError::Persistence {
                            name: name.to_string(),
                            detail: error.to_string(),
                        })?;
                    Arc::new(study)
                }
            };
            let bytes = study.estimated_bytes();

            let mut inner = self.inner.write();
            inner.clock += 1;
            let clock = inner.clock;
            match inner.slots.get(name) {
                // Deleted while building.
                None => {
                    return Err(RegistryError::NotFound {
                        name: name.to_string(),
                    })
                }
                Some(slot) if slot.generation != generation => {
                    // The name was re-registered while we were building —
                    // our session belongs to the old registration. Retry
                    // against the new one.
                    continue;
                }
                Some(slot) => {
                    if let Some(built) = &slot.built {
                        // Lost the build race: the first insert wins,
                        // preserving pointer stability for everyone.
                        return Ok((Arc::clone(&built.study), slot.generation));
                    }
                }
            }
            self.fit(&mut inner, bytes, name)?;
            let slot = inner.slots.get_mut(name).expect("checked above");
            slot.built = Some(Built {
                study: Arc::clone(&study),
                bytes,
            });
            slot.last_used = clock;
            return Ok((study, generation));
        }
    }

    /// Whether `name` is taken by a live dataset. An evicted tombstone may
    /// be re-claimed by a new registration, so it does not count — use
    /// [`contains`](StudyRegistry::contains) to test name existence.
    pub fn occupied(&self, name: &str) -> bool {
        self.inner
            .read()
            .slots
            .get(name)
            .map(|slot| !slot.evicted)
            .unwrap_or(false)
    }

    /// The resident session under `name`, if it is currently built — no
    /// lazy build, no LRU touch. Used by cheap introspection (healthz).
    pub fn resident(&self, name: &str) -> Option<Arc<Study>> {
        self.inner
            .read()
            .slots
            .get(name)
            .and_then(|slot| slot.built.as_ref())
            .map(|built| Arc::clone(&built.study))
    }

    /// Whether `name` is registered (tombstones count: the name is taken).
    pub fn contains(&self, name: &str) -> bool {
        self.inner.read().slots.contains_key(name)
    }

    /// Unregisters a dataset (tombstones too), deleting its snapshot when
    /// durable storage is attached and writable. The snapshot is deleted
    /// under the registry lock, so a registration racing this delete saves
    /// its own snapshot only after the old one is gone.
    ///
    /// # Errors
    ///
    /// [`RegistryError::NotFound`]; [`RegistryError::SaveInFlight`] while
    /// the dataset's snapshot is still being saved (nothing changes); or
    /// [`RegistryError::Persistence`] when the disk delete fails — the
    /// in-memory registration is gone either way, but a surviving snapshot
    /// would resurrect the name on the next boot, so the failure is
    /// surfaced.
    pub fn remove(&self, name: &str) -> Result<(), RegistryError> {
        let mut inner = self.inner.write();
        let Some(slot) = inner.slots.get(name) else {
            return Err(RegistryError::NotFound {
                name: name.to_string(),
            });
        };
        if slot.saving {
            return Err(RegistryError::SaveInFlight {
                name: name.to_string(),
            });
        }
        inner.slots.remove(name);
        match &self.persist {
            Some(persist) if !persist.read_only() => {
                persist
                    .remove(name)
                    .map_err(|error| RegistryError::Persistence {
                        name: name.to_string(),
                        detail: error.to_string(),
                    })
            }
            _ => Ok(()),
        }
    }

    /// Every registered dataset, default first, then by name.
    pub fn list(&self) -> Vec<DatasetInfo> {
        let inner = self.inner.read();
        let mut infos: Vec<DatasetInfo> = inner
            .slots
            .iter()
            .map(|(name, slot)| DatasetInfo {
                name: name.clone(),
                source: slot.source.clone(),
                resident_bytes: slot.built.as_ref().map(|b| b.bytes).unwrap_or(0),
                state: slot.state(),
                pinned: slot.pinned,
                generation: slot.generation,
            })
            .collect();
        infos.sort_by(|a, b| {
            (a.name != DEFAULT_DATASET)
                .cmp(&(b.name != DEFAULT_DATASET))
                .then_with(|| a.name.cmp(&b.name))
        });
        infos
    }

    /// Number of registered names (tombstones included).
    pub fn len(&self) -> usize {
        self.inner.read().slots.len()
    }

    /// Whether no dataset is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Estimated resident bytes summed over every built dataset.
    pub fn resident_bytes(&self) -> usize {
        self.inner.read().resident_bytes()
    }

    /// Warm restart: scans the attached tenant store and brings the disk
    /// state back into the registry. Call it before the registry serves:
    /// it deletes `.osdv.tmp` files, and a save in flight writes one.
    ///
    /// * **Debris** — `<name>.osdv.tmp` files a crash left mid-save and
    ///   `<name>.journal` files earlier builds wrote — is deleted, unless
    ///   the store is read-only. Nothing reads either.
    /// * **Snapshots** are registered as *spilled* tenants — listed
    ///   immediately, loaded lazily on first access — so boot cost does
    ///   not scale with dataset size. Names already registered (the
    ///   pinned default) keep their live registration.
    ///
    /// Never fails as a whole: per-file problems are reported in
    /// [`RecoveryReport::errors`] and the boot continues past them.
    pub fn recover(&self) -> RecoveryReport {
        let _span = obs::span(SpanKind::Recovery, "boot");
        let mut report = RecoveryReport::default();
        let Some(persist) = self.persist.clone() else {
            return report;
        };
        let scan = match persist.scan() {
            Ok(scan) => scan,
            Err(error) => {
                report
                    .errors
                    .push(("<scan>".to_string(), error.to_string()));
                return report;
            }
        };
        if !persist.read_only() {
            for file in scan.debris {
                if let Err(error) = persist.remove_debris(&file) {
                    report.errors.push((file, error.to_string()));
                }
            }
        }
        for name in &scan.snapshots {
            let source = match persist.read_source(name) {
                Ok(source) => source,
                Err(error) => {
                    report.errors.push((name.clone(), error.to_string()));
                    continue;
                }
            };
            let mut inner = self.inner.write();
            if inner.slots.contains_key(name.as_str()) {
                continue;
            }
            if inner.slots.len() >= self.options.max_datasets {
                report.errors.push((
                    name.clone(),
                    "dataset name table is full; snapshot left on disk".to_string(),
                ));
                continue;
            }
            inner.clock += 1;
            let clock = inner.clock;
            inner.slots.insert(
                name.clone(),
                Slot {
                    source,
                    pinned: false,
                    built: None,
                    evicted: false,
                    durable: true,
                    saving: false,
                    last_used: clock,
                    generation: clock,
                },
            );
            report.recovered.push(name.clone());
        }
        report
    }
}

/// What [`StudyRegistry::recover`] found and did at boot.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Snapshots registered as lazily-loading spilled tenants, sorted.
    pub recovered: Vec<String>,
    /// Per-file failures the boot continued past: a tenant name, or the
    /// file name of debris that could not be deleted.
    pub errors: Vec<(String, String)>,
}

/// Builds (but does not pre-warm) a synthetic session from a generator
/// seed — the paper-calibrated dataset every other part of the repo uses.
pub fn build_synthetic(seed: u64) -> Study {
    let dataset = datagen::CalibratedGenerator::new(seed).generate();
    Study::from_entries(dataset.entries())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_study(summaries: usize) -> Arc<Study> {
        use nvd_model::{CveId, OsDistribution, VulnerabilityEntry};
        let entries: Vec<_> = (0..summaries)
            .map(|i| {
                VulnerabilityEntry::builder(CveId::new(2005, 1 + i as u32))
                    .summary("Buffer overflow in the TCP/IP stack")
                    .affects_os(OsDistribution::Debian)
                    .build()
                    .unwrap()
            })
            .collect();
        Arc::new(Study::from_entries(&entries))
    }

    #[test]
    fn names_are_validated() {
        assert!(validate_name("default").is_ok());
        assert!(validate_name("feed-2010.v2_x").is_ok());
        for bad in ["", "UPPER", "has space", "-leading", ".leading", "a/b"] {
            assert!(
                matches!(validate_name(bad), Err(RegistryError::InvalidName { .. })),
                "{bad:?} should be invalid"
            );
        }
        assert!(validate_name(&"a".repeat(65)).is_err());
        assert!(validate_name(&"a".repeat(64)).is_ok());
    }

    #[test]
    fn synthetic_specs_build_lazily_and_memoize() {
        let registry = StudyRegistry::new(RegistryOptions::default());
        registry.register_synthetic("alt", 5).unwrap();
        assert!(registry.resident("alt").is_none(), "spec is not built yet");
        let first = registry.get("alt").unwrap();
        let second = registry.get("alt").unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert!(registry.resident("alt").is_some());
        assert!(registry.resident_bytes() > 0);
    }

    #[test]
    fn duplicate_names_and_unknown_lookups_are_typed_errors() {
        let registry = StudyRegistry::new(RegistryOptions::default());
        registry.register_synthetic("a", 1).unwrap();
        assert_eq!(
            registry.register_synthetic("a", 2).unwrap_err(),
            RegistryError::AlreadyExists {
                name: "a".to_string()
            }
        );
        assert_eq!(
            registry.get("b").unwrap_err(),
            RegistryError::NotFound {
                name: "b".to_string()
            }
        );
        registry.remove("a").unwrap();
        assert!(matches!(
            registry.remove("a").unwrap_err(),
            RegistryError::NotFound { .. }
        ));
    }

    #[test]
    fn name_cap_is_enforced() {
        let registry = StudyRegistry::new(RegistryOptions {
            max_datasets: 2,
            ..RegistryOptions::default()
        });
        registry.register_synthetic("a", 1).unwrap();
        registry.register_synthetic("b", 2).unwrap();
        assert!(matches!(
            registry.register_synthetic("c", 3).unwrap_err(),
            RegistryError::CapacityExceeded { .. }
        ));
        registry.remove("a").unwrap();
        registry.register_synthetic("c", 3).unwrap();
    }

    #[test]
    fn byte_budget_evicts_lru_and_ingested_evictions_answer_evicted() {
        let small = tiny_study(3);
        let budget = small.estimated_bytes() * 2 + small.estimated_bytes() / 2;
        let registry = StudyRegistry::new(RegistryOptions {
            max_datasets: 16,
            max_total_bytes: budget,
        });
        let ingested = |n: usize| DatasetSource::Ingested {
            entries: n,
            skipped: 0,
            feed_bytes: 0,
        };
        registry.insert("a", tiny_study(3), ingested(3)).unwrap();
        registry.insert("b", tiny_study(3), ingested(3)).unwrap();
        let b = registry.get("b").unwrap();
        // Touching "a" leaves "b" as the least recently used victim.
        let _ = registry.get("a").unwrap();
        registry.insert("c", tiny_study(3), ingested(3)).unwrap();
        assert_eq!(
            registry.get("b").unwrap_err(),
            RegistryError::Evicted {
                name: "b".to_string()
            }
        );
        drop(b);
        // Surviving datasets keep pointer identity.
        assert!(Arc::ptr_eq(
            &registry.get("a").unwrap(),
            &registry.get("a").unwrap()
        ));
        // The tombstone still owns the name…
        assert!(registry.contains("b"));
        // …until deleted (then NotFound) or re-ingested (then it serves).
        registry.remove("b").unwrap();
        assert!(matches!(
            registry.get("b").unwrap_err(),
            RegistryError::NotFound { .. }
        ));
        registry.insert("b", tiny_study(2), ingested(2)).unwrap();
        assert!(registry.get("b").is_ok());
    }

    #[test]
    fn synthetic_datasets_survive_eviction_by_rebuilding() {
        let probe = build_synthetic(1);
        let bytes = probe.estimated_bytes();
        let registry = StudyRegistry::new(RegistryOptions {
            max_datasets: 16,
            max_total_bytes: bytes + bytes / 2,
        });
        registry.register_synthetic("one", 1).unwrap();
        let first = registry.get("one").unwrap();
        registry.register_synthetic("two", 2).unwrap();
        let _ = registry.get("two").unwrap(); // evicts "one"
        assert!(registry.resident("one").is_none());
        // Rebuilt on demand: same data, necessarily a new allocation.
        let rebuilt = registry.get("one").unwrap();
        assert!(!Arc::ptr_eq(&first, &rebuilt));
        assert_eq!(rebuilt.valid_count(), first.valid_count());
    }

    #[test]
    fn pinned_default_is_never_evicted() {
        let default = tiny_study(4);
        let bytes = default.estimated_bytes();
        let registry = StudyRegistry::with_default(
            Arc::clone(&default),
            2011,
            RegistryOptions {
                max_datasets: 16,
                max_total_bytes: bytes + bytes / 4,
            },
        );
        // Anything that would need the default's bytes cannot fit.
        let err = registry
            .insert(
                "big",
                tiny_study(4),
                DatasetSource::Ingested {
                    entries: 4,
                    skipped: 0,
                    feed_bytes: 0,
                },
            )
            .unwrap_err();
        assert!(matches!(err, RegistryError::CapacityExceeded { .. }));
        assert!(Arc::ptr_eq(
            &registry.get(DEFAULT_DATASET).unwrap(),
            &default
        ));
    }

    #[test]
    fn oversized_datasets_are_rejected_outright() {
        let registry = StudyRegistry::new(RegistryOptions {
            max_datasets: 16,
            max_total_bytes: 16,
        });
        let err = registry
            .insert(
                "big",
                tiny_study(8),
                DatasetSource::Ingested {
                    entries: 8,
                    skipped: 0,
                    feed_bytes: 0,
                },
            )
            .unwrap_err();
        assert!(matches!(err, RegistryError::CapacityExceeded { .. }));
        assert!(!registry.contains("big"));
    }

    #[test]
    fn list_reports_default_first_with_residency() {
        let registry = StudyRegistry::with_default(tiny_study(2), 7, RegistryOptions::default());
        registry.register_synthetic("zz", 9).unwrap();
        registry.register_synthetic("aa", 3).unwrap();
        let infos = registry.list();
        let names: Vec<&str> = infos.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names, ["default", "aa", "zz"]);
        assert!(infos[0].pinned);
        assert_eq!(infos[0].state, DatasetState::Resident);
        assert_eq!(infos[1].state, DatasetState::Lazy);
        assert_eq!(infos[0].source, DatasetSource::Synthetic { seed: 7 });
    }
}
