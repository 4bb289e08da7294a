//! Durable tenant storage: one `OSDV` snapshot per ingested tenant, all
//! under one data directory.
//!
//! [`TenantStore`] owns the directory. Each tenant `name` (already
//! path-safe — see [`validate_name`]) maps to `<name>.osdv`, the
//! versioned, checksummed snapshot written the moment an ingested dataset
//! is registered (datasets are immutable after that, so no further writes
//! are ever needed).
//!
//! Snapshots are written to a `<name>.osdv.tmp` sibling and atomically
//! renamed into place, so a `<name>.osdv` file is either absent or
//! complete. A save that fails before the rename deletes its temp file.
//! A crash can still leave one behind, and earlier builds left
//! `<name>.journal` upload journals; [`TenantStore::scan`] lists both as
//! debris, which a writable boot deletes (`docs/SNAPSHOT_FORMAT.md`).

use std::fmt;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use osdiv_core::obs::{self, SpanKind};
use osdiv_core::snapshot::crc32;
use osdiv_core::{LatencyHistogram, Snapshot, SnapshotError, Study};

use crate::registry::{validate_name, DatasetSource};

/// File extension of tenant snapshots.
pub const SNAPSHOT_EXT: &str = "osdv";

/// Suffix of the sibling a snapshot is written to before its rename.
const TEMP_SUFFIX: &str = ".osdv.tmp";

/// Suffix of the upload journals earlier builds wrote.
const JOURNAL_SUFFIX: &str = ".journal";

/// META keys a tenant snapshot carries so the registry can rebuild the
/// slot's [`DatasetSource`] without decoding the store payload.
const META_SOURCE: &str = "source";
const META_SEED: &str = "seed";
const META_ENTRIES: &str = "entries";
const META_SKIPPED: &str = "skipped";
const META_FEED_BYTES: &str = "feed_bytes";

/// Typed persistence failures.
#[derive(Debug)]
pub enum PersistError {
    /// A filesystem operation failed.
    Io {
        /// The operation that failed.
        what: &'static str,
        /// The underlying error.
        error: io::Error,
    },
    /// The snapshot file is corrupt, truncated or wrong-versioned.
    Snapshot(SnapshotError),
    /// The snapshot loaded but its META annotations do not describe a
    /// dataset source this registry understands.
    BadMeta {
        /// The tenant whose snapshot is unusable.
        name: String,
    },
    /// A write was attempted through a read-only store (`--no-persist`).
    ReadOnly,
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io { what, error } => write!(f, "{what} failed: {error}"),
            PersistError::Snapshot(error) => write!(f, "snapshot unusable: {error}"),
            PersistError::BadMeta { name } => {
                write!(
                    f,
                    "snapshot for {name:?} carries no usable source annotations"
                )
            }
            PersistError::ReadOnly => write!(f, "the tenant store is read-only"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io { error, .. } => Some(error),
            PersistError::Snapshot(error) => Some(error),
            _ => None,
        }
    }
}

impl From<SnapshotError> for PersistError {
    fn from(error: SnapshotError) -> Self {
        PersistError::Snapshot(error)
    }
}

/// How far [`TenantStore::save`] pushes data toward stable storage.
///
/// `Rename` (the default) relies on the temp-file + atomic-rename
/// protocol: a *process* crash can never tear or lose an installed
/// snapshot, but an *OS* crash may lose the most recent one — the rename
/// and the data can still sit in the page cache. `Full` additionally
/// fsyncs the snapshot bytes and the data directory before the save is
/// acknowledged, so the machine itself can lose power without losing an
/// acknowledged write. The guarantee delta is specified in
/// `docs/SNAPSHOT_FORMAT.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// Temp file + atomic rename; no fsync (fast, the default).
    #[default]
    Rename,
    /// Rename plus fsync of the file and its directory.
    Full,
}

impl std::str::FromStr for Durability {
    type Err = String;

    fn from_str(spec: &str) -> Result<Durability, String> {
        match spec {
            "rename" => Ok(Durability::Rename),
            "full" => Ok(Durability::Full),
            other => Err(format!("unknown durability {other:?} (rename|full)")),
        }
    }
}

/// The mutating filesystem operations the store performs, behind a trait
/// so fault-injection tests can interpose ([`ChaosVfs`]) without touching
/// the read paths (plain `fs::read` — torn reads are safe by format
/// design, so only writes need chaos).
pub trait Vfs: fmt::Debug + Send + Sync {
    /// Writes `bytes` as the complete contents of `path`
    /// (create-or-truncate).
    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Renames `from` onto `to` (atomic within one directory on POSIX).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes `path`.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Flushes `path`'s bytes to stable storage (`fsync`).
    fn sync_file(&self, path: &Path) -> io::Result<()>;
    /// Flushes a directory's entry metadata to stable storage.
    fn sync_dir(&self, path: &Path) -> io::Result<()>;
}

/// The production [`Vfs`]: thin wrappers over `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealVfs;

impl Vfs for RealVfs {
    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        fs::write(path, bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        File::open(path)?.sync_all()
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        // fsync on a read-only directory handle flushes the entry
        // metadata on POSIX — exactly what makes a rename durable.
        File::open(path)?.sync_all()
    }
}

/// One mutating operation recorded by [`ChaosVfs`]. Paths are exactly
/// what the store passed; `bytes` are the bytes that actually reached the
/// filesystem (truncated when a short write was injected).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VfsOp {
    /// A whole-file write (the snapshot temp file).
    Write {
        /// Target path.
        path: PathBuf,
        /// Bytes written.
        bytes: Vec<u8>,
    },
    /// An atomic rename.
    Rename {
        /// Source path.
        from: PathBuf,
        /// Destination path.
        to: PathBuf,
    },
    /// A file removal.
    Remove {
        /// Removed path.
        path: PathBuf,
    },
    /// An fsync of a file's bytes.
    SyncFile {
        /// Synced path.
        path: PathBuf,
    },
    /// An fsync of a directory's entries.
    SyncDir {
        /// Synced directory.
        path: PathBuf,
    },
}

#[derive(Debug, Default)]
struct ChaosState {
    trace: Mutex<Vec<VfsOp>>,
    fail_op: Mutex<Option<usize>>,
    next_op: AtomicUsize,
}

impl ChaosState {
    /// Claims the next operation index and fails it if it is the planned
    /// one.
    fn admit(&self) -> io::Result<()> {
        let op = self.next_op.fetch_add(1, Ordering::Relaxed);
        if *self.fail_op.lock() == Some(op) {
            return Err(chaos_error(op));
        }
        Ok(())
    }

    fn record(&self, entry: VfsOp) {
        self.trace.lock().push(entry);
    }
}

/// The chaos error injected when a planned operation fails.
fn chaos_error(op: usize) -> io::Error {
    io::Error::other(format!("chaos: injected failure at vfs op {op}"))
}

/// A [`Vfs`] that performs every operation through [`RealVfs`] while
/// recording the exact write trace, and can be planned to fail any single
/// operation by index — the engine behind the crash-consistency torture
/// harness and the registry fault proptests.
///
/// Clones share state: hand one clone to
/// [`TenantStore::open_with`] and keep the other to inspect the trace.
#[derive(Debug, Default, Clone)]
pub struct ChaosVfs {
    state: Arc<ChaosState>,
}

impl ChaosVfs {
    /// A fresh chaos filesystem: empty trace, no planned failures.
    pub fn new() -> ChaosVfs {
        ChaosVfs::default()
    }

    /// The operations performed so far (bytes included), in order.
    pub fn trace(&self) -> Vec<VfsOp> {
        self.state.trace.lock().clone()
    }

    /// Plans operation `op` (0-based attempt index; failed attempts count)
    /// to fail without touching the filesystem. `None` clears the plan.
    pub fn set_fail_op(&self, op: Option<usize>) {
        *self.state.fail_op.lock() = op;
    }

    /// Clears the trace, the attempt counter and the planned failure.
    pub fn reset(&self) {
        self.state.trace.lock().clear();
        *self.state.fail_op.lock() = None;
        self.state.next_op.store(0, Ordering::Relaxed);
    }
}

impl Vfs for ChaosVfs {
    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.state.admit()?;
        RealVfs.write_file(path, bytes)?;
        self.state.record(VfsOp::Write {
            path: path.to_path_buf(),
            bytes: bytes.to_vec(),
        });
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.state.admit()?;
        RealVfs.rename(from, to)?;
        self.state.record(VfsOp::Rename {
            from: from.to_path_buf(),
            to: to.to_path_buf(),
        });
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.state.admit()?;
        RealVfs.remove_file(path)?;
        self.state.record(VfsOp::Remove {
            path: path.to_path_buf(),
        });
        Ok(())
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        self.state.admit()?;
        RealVfs.sync_file(path)?;
        self.state.record(VfsOp::SyncFile {
            path: path.to_path_buf(),
        });
        Ok(())
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.state.admit()?;
        RealVfs.sync_dir(path)?;
        self.state.record(VfsOp::SyncDir {
            path: path.to_path_buf(),
        });
        Ok(())
    }
}

/// Monotonic persistence counters (and the snapshot write and load
/// latency histograms), surfaced verbatim on `/metrics`.
#[derive(Debug, Default)]
pub struct PersistMetrics {
    snapshot_writes: AtomicU64,
    snapshot_loads: AtomicU64,
    spills: AtomicU64,
    snapshot_write_latency: LatencyHistogram,
    snapshot_load_latency: LatencyHistogram,
}

impl PersistMetrics {
    /// Snapshot files written (one per durable ingestion).
    pub fn snapshot_writes(&self) -> u64 {
        self.snapshot_writes.load(Ordering::Relaxed)
    }

    /// Snapshot files read back into a live session.
    pub fn snapshot_loads(&self) -> u64 {
        self.snapshot_loads.load(Ordering::Relaxed)
    }

    /// Evictions that spilled (kept the snapshot, dropped the memory)
    /// instead of tombstoning.
    pub fn spills(&self) -> u64 {
        self.spills.load(Ordering::Relaxed)
    }

    /// Latency of snapshot writes (temp-file write plus atomic rename),
    /// recorded once per durable save.
    pub fn snapshot_write_latency(&self) -> &LatencyHistogram {
        &self.snapshot_write_latency
    }

    /// Latency of snapshot loads (read, CRC checks and decode), recorded
    /// once per successful load, so its count equals
    /// [`snapshot_loads`](PersistMetrics::snapshot_loads).
    pub fn snapshot_load_latency(&self) -> &LatencyHistogram {
        &self.snapshot_load_latency
    }

    pub(crate) fn record_spills(&self, n: u64) {
        self.spills.fetch_add(n, Ordering::Relaxed);
    }

    fn record_snapshot_write(&self) {
        self.snapshot_writes.fetch_add(1, Ordering::Relaxed);
    }

    fn record_snapshot_load(&self) {
        self.snapshot_loads.fetch_add(1, Ordering::Relaxed);
    }
}

/// What a directory scan found: tenants with snapshots, and the debris a
/// crash or an earlier build left beside them.
#[derive(Debug, Default)]
pub struct ScanReport {
    /// Names with a `<name>.osdv` snapshot, sorted.
    pub snapshots: Vec<String>,
    /// File names of `<name>.osdv.tmp` temp files and earlier builds'
    /// `<name>.journal` upload journals, sorted. Nothing reads them.
    pub debris: Vec<String>,
}

/// The on-disk side of the registry: snapshot save/load, debris removal
/// and the persistence counters, all scoped to one data directory.
#[derive(Debug)]
pub struct TenantStore {
    dir: PathBuf,
    read_only: bool,
    durability: Durability,
    vfs: Arc<dyn Vfs>,
    metrics: PersistMetrics,
}

impl TenantStore {
    /// Opens (creating if needed) a writable store at `dir` with the
    /// default rename-atomicity durability and the real filesystem.
    ///
    /// # Errors
    ///
    /// I/O failure creating the directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<TenantStore, PersistError> {
        TenantStore::open_with(dir, Durability::default(), Arc::new(RealVfs))
    }

    /// Opens a writable store with an explicit [`Durability`] policy
    /// (the `--durability full|rename` flag).
    ///
    /// # Errors
    ///
    /// I/O failure creating the directory.
    pub fn open_durable(
        dir: impl Into<PathBuf>,
        durability: Durability,
    ) -> Result<TenantStore, PersistError> {
        TenantStore::open_with(dir, durability, Arc::new(RealVfs))
    }

    /// Opens a writable store with an explicit durability policy *and*
    /// an injected [`Vfs`] — the constructor fault-injection tests use
    /// to interpose a [`ChaosVfs`].
    ///
    /// # Errors
    ///
    /// I/O failure creating the directory.
    pub fn open_with(
        dir: impl Into<PathBuf>,
        durability: Durability,
        vfs: Arc<dyn Vfs>,
    ) -> Result<TenantStore, PersistError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|error| PersistError::Io {
            what: "creating the data directory",
            error,
        })?;
        Ok(TenantStore {
            dir,
            read_only: false,
            durability,
            vfs,
            metrics: PersistMetrics::default(),
        })
    }

    /// Opens a read-only store at `dir`: existing tenants load, but no
    /// file is ever created, modified or deleted (the `--no-persist`
    /// mode). The directory need not exist — scans just come back empty.
    pub fn open_read_only(dir: impl Into<PathBuf>) -> TenantStore {
        TenantStore {
            dir: dir.into(),
            read_only: true,
            durability: Durability::default(),
            vfs: Arc::new(RealVfs),
            metrics: PersistMetrics::default(),
        }
    }

    /// The durability policy writes run under.
    pub fn durability(&self) -> Durability {
        self.durability
    }

    /// The data directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Whether writes are refused.
    pub fn read_only(&self) -> bool {
        self.read_only
    }

    /// The persistence counters.
    pub fn metrics(&self) -> &PersistMetrics {
        &self.metrics
    }

    /// The snapshot path for a tenant name.
    pub fn snapshot_path(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.{SNAPSHOT_EXT}"))
    }

    /// Writes `study` as `<name>.osdv`, annotated with `source`, via a
    /// temp file and an atomic rename — the file is either absent or
    /// complete, never torn. A failure before the rename deletes the temp
    /// file.
    ///
    /// # Errors
    ///
    /// [`PersistError::ReadOnly`] or I/O failure.
    pub fn save(
        &self,
        name: &str,
        study: &Study,
        source: &DatasetSource,
    ) -> Result<(), PersistError> {
        if self.read_only {
            return Err(PersistError::ReadOnly);
        }
        let _span = obs::span(SpanKind::SnapshotWrite, name);
        let dataset: &osdiv_core::StudyDataset = study;
        let bytes = Snapshot::to_bytes(dataset, &source_meta(source));
        let path = self.snapshot_path(name);
        let tmp = self.dir.join(format!("{name}{TEMP_SUFFIX}"));
        let io = |what| move |error| PersistError::Io { what, error };
        let write_started = std::time::Instant::now();
        let install = || {
            self.vfs
                .write_file(&tmp, &bytes)
                .map_err(io("writing the snapshot temp file"))?;
            if self.durability == Durability::Full {
                self.vfs
                    .sync_file(&tmp)
                    .map_err(io("syncing the snapshot temp file"))?;
            }
            self.vfs
                .rename(&tmp, &path)
                .map_err(io("installing the snapshot"))
        };
        if let Err(error) = install() {
            let _ = self.vfs.remove_file(&tmp);
            return Err(error);
        }
        if self.durability == Durability::Full {
            self.vfs
                .sync_dir(&self.dir)
                .map_err(io("syncing the data directory"))?;
        }
        self.metrics
            .snapshot_write_latency
            .record(write_started.elapsed());
        self.metrics.record_snapshot_write();
        Ok(())
    }

    /// Reads `<name>.osdv` back into a session (fresh memo cache; count
    /// index pre-seeded when the snapshot's `INDEX` section was readable).
    ///
    /// # Errors
    ///
    /// I/O failure, a corrupt/truncated/wrong-version snapshot
    /// ([`PersistError::Snapshot`]) or unusable annotations
    /// ([`PersistError::BadMeta`]).
    pub fn load(&self, name: &str) -> Result<Study, PersistError> {
        let _span = obs::span(SpanKind::SnapshotLoad, name);
        let load_started = std::time::Instant::now();
        let bytes = fs::read(self.snapshot_path(name)).map_err(|error| PersistError::Io {
            what: "reading the snapshot",
            error,
        })?;
        let snapshot = Snapshot::from_bytes(&bytes)?;
        if source_from_meta(&snapshot.meta).is_none() {
            return Err(PersistError::BadMeta {
                name: name.to_string(),
            });
        }
        self.metrics
            .snapshot_load_latency
            .record(load_started.elapsed());
        self.metrics.record_snapshot_load();
        Ok(Study::new(snapshot.dataset))
    }

    /// Reads only the source annotations of `<name>.osdv` — the cheap
    /// boot-scan path that never decodes the store payload.
    ///
    /// # Errors
    ///
    /// Same as [`load`](TenantStore::load), minus payload corruption
    /// (which surfaces on the eventual lazy load instead).
    pub fn read_source(&self, name: &str) -> Result<DatasetSource, PersistError> {
        let bytes = fs::read(self.snapshot_path(name)).map_err(|error| PersistError::Io {
            what: "reading the snapshot",
            error,
        })?;
        let meta = Snapshot::read_meta(&bytes)?;
        source_from_meta(&meta).ok_or_else(|| PersistError::BadMeta {
            name: name.to_string(),
        })
    }

    /// Lists the tenants and the debris on disk. Files whose stem is not a
    /// valid tenant name are ignored. A missing directory answers an
    /// empty report.
    ///
    /// # Errors
    ///
    /// I/O failure while reading the directory.
    pub fn scan(&self) -> Result<ScanReport, PersistError> {
        let mut report = ScanReport::default();
        let entries = match fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            Err(error) if error.kind() == io::ErrorKind::NotFound => return Ok(report),
            Err(error) => {
                return Err(PersistError::Io {
                    what: "scanning the data directory",
                    error,
                })
            }
        };
        let snapshot_suffix = format!(".{SNAPSHOT_EXT}");
        for entry in entries {
            let entry = entry.map_err(|error| PersistError::Io {
                what: "scanning the data directory",
                error,
            })?;
            let Ok(file) = entry.file_name().into_string() else {
                continue;
            };
            let stem = |suffix: &str| {
                file.strip_suffix(suffix)
                    .filter(|stem| validate_name(stem).is_ok())
            };
            if let Some(name) = stem(&snapshot_suffix) {
                report.snapshots.push(name.to_string());
            } else if stem(TEMP_SUFFIX).or(stem(JOURNAL_SUFFIX)).is_some() {
                report.debris.push(file);
            }
        }
        report.snapshots.sort();
        report.debris.sort();
        Ok(report)
    }

    /// Deletes `<name>.osdv` (a missing file is fine).
    ///
    /// # Errors
    ///
    /// [`PersistError::ReadOnly`] or I/O failure.
    pub fn remove(&self, name: &str) -> Result<(), PersistError> {
        self.remove_file(&self.snapshot_path(name), "deleting the snapshot")
    }

    /// Deletes one file [`scan`](TenantStore::scan) listed as debris (a
    /// missing file is fine).
    ///
    /// # Errors
    ///
    /// [`PersistError::ReadOnly`] or I/O failure.
    pub(crate) fn remove_debris(&self, file: &str) -> Result<(), PersistError> {
        self.remove_file(&self.dir.join(file), "deleting crash debris")
    }

    fn remove_file(&self, path: &Path, what: &'static str) -> Result<(), PersistError> {
        if self.read_only {
            return Err(PersistError::ReadOnly);
        }
        match self.vfs.remove_file(path) {
            Ok(()) => Ok(()),
            Err(error) if error.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(error) => Err(PersistError::Io { what, error }),
        }
    }

    /// Opens `<name>.journal` for a [`JournalWriter`]. Only perfbench's
    /// `persist.journal_append_us` probe calls it; the server writes no
    /// journal.
    ///
    /// # Errors
    ///
    /// [`PersistError::ReadOnly`] or I/O failure.
    #[doc(hidden)]
    pub fn journal(&self, name: &str) -> Result<JournalWriter, PersistError> {
        if self.read_only {
            return Err(PersistError::ReadOnly);
        }
        let path = self.dir.join(format!("{name}{JOURNAL_SUFFIX}"));
        let file = File::create(&path).map_err(|error| PersistError::Io {
            what: "creating the journal",
            error,
        })?;
        Ok(JournalWriter { file, path })
    }
}

/// The per-chunk work of the upload journal earlier builds kept: each
/// [`append`](JournalWriter::append) frames the chunk with its length and
/// CRC-32 and writes the frame in one call. Kept only for perfbench's
/// `persist.journal_append_us` probe.
#[doc(hidden)]
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    path: PathBuf,
}

impl JournalWriter {
    /// Appends one chunk as a length + CRC-32 framed record.
    ///
    /// # Errors
    ///
    /// I/O failure.
    pub fn append(&mut self, chunk: &[u8]) -> io::Result<()> {
        let mut frame = Vec::with_capacity(8 + chunk.len());
        frame.extend_from_slice(&(chunk.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(chunk).to_le_bytes());
        frame.extend_from_slice(chunk);
        self.file.write_all(&frame)
    }

    /// Closes and deletes the journal.
    ///
    /// # Errors
    ///
    /// I/O failure deleting the file.
    pub fn finish(self) -> io::Result<()> {
        drop(self.file);
        fs::remove_file(&self.path)
    }
}

/// The META annotations a tenant snapshot carries for `source`.
pub fn source_meta(source: &DatasetSource) -> Vec<(String, String)> {
    match source {
        DatasetSource::Synthetic { seed } => vec![
            (META_SOURCE.into(), "synthetic".into()),
            (META_SEED.into(), seed.to_string()),
        ],
        DatasetSource::Ingested {
            entries,
            skipped,
            feed_bytes,
        } => vec![
            (META_SOURCE.into(), "ingested".into()),
            (META_ENTRIES.into(), entries.to_string()),
            (META_SKIPPED.into(), skipped.to_string()),
            (META_FEED_BYTES.into(), feed_bytes.to_string()),
        ],
    }
}

/// Rebuilds a [`DatasetSource`] from snapshot annotations.
pub fn source_from_meta(meta: &[(String, String)]) -> Option<DatasetSource> {
    let get = |key: &str| meta.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str());
    match get(META_SOURCE)? {
        "synthetic" => Some(DatasetSource::Synthetic {
            seed: get(META_SEED)?.parse().ok()?,
        }),
        "ingested" => Some(DatasetSource::Ingested {
            entries: get(META_ENTRIES)?.parse().ok()?,
            skipped: get(META_SKIPPED)?.parse().ok()?,
            feed_bytes: get(META_FEED_BYTES)?.parse().ok()?,
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("osdiv-persist-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_study() -> Study {
        use nvd_model::{CveId, OsDistribution, VulnerabilityEntry};
        let entries: Vec<_> = (0..4)
            .map(|i| {
                VulnerabilityEntry::builder(CveId::new(2007, 10 + i))
                    .summary("Integer overflow in the kernel scheduler")
                    .affects_os(OsDistribution::Debian)
                    .affects_os(OsDistribution::OpenBsd)
                    .build()
                    .unwrap()
            })
            .collect();
        Study::from_entries(&entries)
    }

    #[test]
    fn save_load_round_trips_study_and_source() {
        let dir = temp_dir("roundtrip");
        let store = TenantStore::open(&dir).unwrap();
        let study = sample_study();
        let source = DatasetSource::Ingested {
            entries: 4,
            skipped: 1,
            feed_bytes: 999,
        };
        store.save("feed", &study, &source).unwrap();
        let loaded = store.load("feed").unwrap();
        assert_eq!(loaded.valid_count(), study.valid_count());
        assert_eq!(store.read_source("feed").unwrap(), source);
        assert_eq!(store.metrics().snapshot_writes(), 1);
        assert_eq!(store.metrics().snapshot_loads(), 1);
        assert_eq!(
            store.metrics().snapshot_load_latency().total(),
            store.metrics().snapshot_loads()
        );

        // A load that fails its CRC check records neither.
        let path = store.snapshot_path("feed");
        let mut corrupt = fs::read(&path).unwrap();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xFF;
        fs::write(&path, &corrupt).unwrap();
        assert!(matches!(
            store.load("feed"),
            Err(PersistError::Snapshot(
                SnapshotError::ChecksumMismatch { .. }
            ))
        ));
        assert_eq!(store.metrics().snapshot_loads(), 1);
        assert_eq!(store.metrics().snapshot_load_latency().total(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_lists_snapshots_and_journals_and_skips_foreign_files() {
        let dir = temp_dir("scan");
        let store = TenantStore::open(&dir).unwrap();
        let study = sample_study();
        let source = DatasetSource::Synthetic { seed: 3 };
        store.save("b", &study, &source).unwrap();
        store.save("a", &study, &source).unwrap();
        for file in [
            "crashed.journal",
            "torn.osdv.tmp",
            "README.txt",
            "UPPER.osdv",
        ] {
            fs::write(dir.join(file), b"not a snapshot").unwrap();
        }
        let report = store.scan().unwrap();
        assert_eq!(report.snapshots, ["a", "b"]);
        assert_eq!(report.debris, ["crashed.journal", "torn.osdv.tmp"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_only_stores_load_but_never_write() {
        let dir = temp_dir("readonly");
        {
            let writable = TenantStore::open(&dir).unwrap();
            writable
                .save(
                    "keep",
                    &sample_study(),
                    &DatasetSource::Synthetic { seed: 1 },
                )
                .unwrap();
        }
        let store = TenantStore::open_read_only(&dir);
        assert!(store.load("keep").is_ok());
        assert!(matches!(
            store.save(
                "nope",
                &sample_study(),
                &DatasetSource::Synthetic { seed: 2 }
            ),
            Err(PersistError::ReadOnly)
        ));
        assert!(matches!(store.remove("keep"), Err(PersistError::ReadOnly)));
        assert!(matches!(
            store.remove_debris("keep.osdv"),
            Err(PersistError::ReadOnly)
        ));
        assert!(store.snapshot_path("keep").exists(), "nothing was deleted");
        // A read-only store over a missing directory scans empty.
        let ghost = TenantStore::open_read_only(dir.join("missing"));
        assert!(ghost.scan().unwrap().snapshots.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn remove_deletes_both_files() {
        let dir = temp_dir("remove");
        let store = TenantStore::open(&dir).unwrap();
        store
            .save("t", &sample_study(), &DatasetSource::Synthetic { seed: 1 })
            .unwrap();
        fs::write(dir.join("t.journal"), b"OSDJ").unwrap();
        store.remove("t").unwrap();
        assert!(!store.snapshot_path("t").exists());
        store.remove_debris("t.journal").unwrap();
        assert!(!dir.join("t.journal").exists());
        // Both are idempotent.
        store.remove("t").unwrap();
        store.remove_debris("t.journal").unwrap();
        let _ = fs::remove_dir_all(&dir);
    }
}
