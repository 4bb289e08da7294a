//! The `OSDV` snapshot container: durable, versioned, checksummed
//! serialization of a [`StudyDataset`] and its memoized [`CountIndex`].
//!
//! The byte-level layout is specified in `docs/SNAPSHOT_FORMAT.md`; the
//! golden-fixture test in `tests/snapshot_roundtrip.rs` parses a written
//! snapshot against the documented offsets, so the spec and this module
//! cannot silently drift apart. In brief:
//!
//! ```text
//! offset 0   magic  "OSDV"
//! offset 4   container format version (u16 LE)
//! offset 6   section count            (u16 LE)
//! offset 8   section table, 24 bytes per entry:
//!              +0  section id      (u16 LE)
//!              +2  section version (u16 LE)
//!              +4  payload offset  (u64 LE, from start of file)
//!              +12 payload length  (u64 LE)
//!              +20 payload CRC-32  (u32 LE, IEEE polynomial)
//! ```
//!
//! Section payloads follow the table, in table order. Three sections are
//! written today: `STORE` (the relational tables, encoded by
//! [`vulnstore::snapshot`]), `INDEX` (the transformed count tables) and
//! `META` (string key/value annotations for the registry).
//!
//! **Compatibility promise** (also documented in the spec): a reader
//! encountering an `INDEX` section with an unknown version — or a
//! malformed `INDEX` payload — must *rebuild* the index from the rows
//! instead of failing the load; only the `STORE` section is
//! load-bearing. Unknown section ids are skipped entirely, so future
//! writers can add sections without breaking old readers.

use std::fmt;
use std::sync::Arc;

use vulnstore::{snapshot as rows, RowCodecError, STORE_SECTION_VERSION};

use crate::dataset::StudyDataset;
use crate::index::CountIndex;

/// The four magic bytes every snapshot starts with.
pub const MAGIC: [u8; 4] = *b"OSDV";

/// The container format version this module writes.
pub const FORMAT_VERSION: u16 = 1;

/// Section id of the relational tables (required).
pub const SECTION_STORE: u16 = 1;

/// Section id of the memoized count index (optional: rebuilt if absent,
/// unknown-versioned or malformed).
pub const SECTION_INDEX: u16 = 2;

/// Section id of the key/value annotations (optional).
pub const SECTION_META: u16 = 3;

/// The `INDEX` section version this module writes and reads (an `INDEX`
/// of any other version is rebuilt from the rows).
pub const INDEX_SECTION_VERSION: u16 = 3;

/// The `META` section version this module writes.
pub const META_SECTION_VERSION: u16 = 1;

/// Bytes before the section table (magic + format version + count).
pub const HEADER_BYTES: usize = 8;

/// Bytes per section-table entry.
pub const SECTION_ENTRY_BYTES: usize = 24;

/// Typed snapshot failures. Corrupted, truncated and wrong-version
/// inputs each answer their own variant — never a panic, never a
/// partially loaded dataset.
#[derive(Debug)]
pub enum SnapshotError {
    /// The file does not start with the `OSDV` magic.
    BadMagic,
    /// The container (or the required `STORE` section) declares a format
    /// version this reader does not understand.
    UnsupportedVersion {
        /// What declared the version.
        what: &'static str,
        /// The declared version.
        found: u16,
    },
    /// The file ends before a declared structure is complete.
    Truncated {
        /// The structure being read.
        what: &'static str,
    },
    /// A section payload does not match its recorded CRC-32.
    ChecksumMismatch {
        /// The corrupted section's id.
        section: u16,
    },
    /// The required `STORE` section is missing.
    MissingStore,
    /// The `STORE` payload failed to decode into a consistent store.
    Rows(RowCodecError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => {
                write!(f, "not a snapshot: the OSDV magic bytes are missing")
            }
            SnapshotError::UnsupportedVersion { what, found } => {
                write!(f, "unsupported {what} version {found}")
            }
            SnapshotError::Truncated { what } => {
                write!(f, "snapshot truncated while reading {what}")
            }
            SnapshotError::ChecksumMismatch { section } => {
                write!(f, "section {section} does not match its CRC-32")
            }
            SnapshotError::MissingStore => write!(f, "the required STORE section is missing"),
            SnapshotError::Rows(error) => write!(f, "STORE section is corrupt: {error}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Rows(error) => Some(error),
            _ => None,
        }
    }
}

impl From<RowCodecError> for SnapshotError {
    fn from(error: RowCodecError) -> Self {
        SnapshotError::Rows(error)
    }
}

/// The slice-by-16 CRC-32 tables. `CRC_TABLES[0][b]` is the register
/// after shifting in byte `b` (the classic byte-at-a-time table), and
/// `CRC_TABLES[k][b]` is that value shifted through `k` more zero bytes,
/// so the 16 bytes of a block fold in with 16 independent lookups.
/// A `static`, so the 16 KiB live once in read-only memory.
static CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut k = 0;
        while k < 16 {
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
                bit += 1;
            }
            tables[k][i] = crc; // guard: allow(index) — const-eval table build, k < 16 and i < 256 by loop bounds
            k += 1;
        }
        i += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3 polynomial, reflected), the per-section checksum.
///
/// Slice-by-16: each whole 16-byte block costs 16 table lookups, and the
/// bytes after the last whole block go through the byte-at-a-time loop.
pub fn crc32(bytes: &[u8]) -> u32 {
    // guard: allow(index) — every caller passes k < 16, and a u8 indexes 256 entries
    let t = |k: usize, byte: u8| CRC_TABLES[k][usize::from(byte)];
    let mut crc = 0xFFFF_FFFFu32;
    let mut rest = bytes;
    while let &[b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15, ref tail @ ..] =
        rest
    {
        // Byte j of the block goes through table 15 - j. The four bytes
        // that depend on the previous block's register come last, so the
        // other twelve lookups need not wait for it: folding them first
        // doubles the speed.
        let [c0, c1, c2, c3] = crc.to_le_bytes();
        crc = t(0, b15)
            ^ t(1, b14)
            ^ t(2, b13)
            ^ t(3, b12)
            ^ t(4, b11)
            ^ t(5, b10)
            ^ t(6, b9)
            ^ t(7, b8)
            ^ t(8, b7)
            ^ t(9, b6)
            ^ t(10, b5)
            ^ t(11, b4)
            ^ t(12, b3 ^ c3)
            ^ t(13, b2 ^ c2)
            ^ t(14, b1 ^ c1)
            ^ t(15, b0 ^ c0);
        rest = tail;
    }
    for &byte in rest {
        crc = (crc >> 8) ^ t(0, crc as u8 ^ byte);
    }
    !crc
}

/// Reads a little-endian `u16` at `pos`, `None` past the end.
fn le_u16(bytes: &[u8], pos: usize) -> Option<u16> {
    bytes
        .get(pos..pos.checked_add(2)?)
        .and_then(|s| <[u8; 2]>::try_from(s).ok())
        .map(u16::from_le_bytes)
}

/// Reads a little-endian `u32` at `pos`, `None` past the end.
fn le_u32(bytes: &[u8], pos: usize) -> Option<u32> {
    bytes
        .get(pos..pos.checked_add(4)?)
        .and_then(|s| <[u8; 4]>::try_from(s).ok())
        .map(u32::from_le_bytes)
}

/// Reads a little-endian `u64` at `pos`, `None` past the end.
fn le_u64(bytes: &[u8], pos: usize) -> Option<u64> {
    bytes
        .get(pos..pos.checked_add(8)?)
        .and_then(|s| <[u8; 8]>::try_from(s).ok())
        .map(u64::from_le_bytes)
}

/// A loaded snapshot: the dataset (with its count index pre-seeded when
/// the `INDEX` section was readable) plus the writer's annotations.
#[derive(Debug)]
pub struct Snapshot {
    /// The reconstructed dataset.
    pub dataset: StudyDataset,
    /// Key/value annotations from the `META` section, in written order.
    pub meta: Vec<(String, String)>,
    /// Whether the count index was loaded from the snapshot (`false`
    /// means it was absent/unknown-versioned/corrupt and will be rebuilt
    /// lazily — the compatibility promise, not an error).
    pub index_loaded: bool,
}

impl Snapshot {
    /// Serializes a dataset (building and including its count index) and
    /// annotations to an in-memory snapshot.
    pub fn to_bytes(dataset: &StudyDataset, meta: &[(String, String)]) -> Vec<u8> {
        let mut store_payload = Vec::new();
        rows::encode_store(dataset.store(), &mut store_payload);
        // Building the index here is the point: a reloaded tenant serves
        // its first count query from the persisted tables.
        let mut index_payload = Vec::new();
        dataset.count_index().encode(&mut index_payload);
        let mut meta_payload = Vec::new();
        meta_payload.extend_from_slice(&(meta.len() as u32).to_le_bytes());
        for (key, value) in meta {
            for piece in [key, value] {
                meta_payload.extend_from_slice(&(piece.len() as u32).to_le_bytes());
                meta_payload.extend_from_slice(piece.as_bytes());
            }
        }

        let sections: [(u16, u16, &[u8]); 3] = [
            (SECTION_STORE, STORE_SECTION_VERSION, &store_payload),
            (SECTION_INDEX, INDEX_SECTION_VERSION, &index_payload),
            (SECTION_META, META_SECTION_VERSION, &meta_payload),
        ];
        let mut out = Vec::with_capacity(
            HEADER_BYTES
                // guard: allow(arith) — exactly three fixed sections, cannot overflow
                + sections.len() * SECTION_ENTRY_BYTES
                + sections.iter().map(|(_, _, p)| p.len()).sum::<usize>(),
        );
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(sections.len() as u16).to_le_bytes());
        // guard: allow(arith) — exactly three fixed sections, cannot overflow
        let mut offset = (HEADER_BYTES + sections.len() * SECTION_ENTRY_BYTES) as u64;
        for (id, version, payload) in &sections {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&version.to_le_bytes());
            out.extend_from_slice(&offset.to_le_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&crc32(payload).to_le_bytes());
            offset += payload.len() as u64;
        }
        for (_, _, payload) in &sections {
            out.extend_from_slice(payload);
        }
        out
    }

    /// Reconstructs a snapshot from in-memory bytes.
    ///
    /// # Errors
    ///
    /// See [`SnapshotError`] — every malformed input answers a typed
    /// error, and a load either succeeds completely or not at all.
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        let sections = parse_sections(bytes)?;
        for section in &sections {
            // Every entry must lie inside the file, but only the sections
            // this reader knows are checksummed: an unknown id is skipped.
            let payload = section.payload(bytes)?;
            let recognized = matches!(section.id, SECTION_STORE | SECTION_INDEX | SECTION_META);
            if recognized && crc32(payload) != section.crc32 {
                return Err(SnapshotError::ChecksumMismatch {
                    section: section.id,
                });
            }
        }

        let store = sections
            .iter()
            .find(|s| s.id == SECTION_STORE)
            .ok_or(SnapshotError::MissingStore)?;
        if store.version != STORE_SECTION_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                what: "STORE section",
                found: store.version,
            });
        }
        let dataset = StudyDataset::from_store(rows::decode_store(store.payload(bytes)?)?);

        // The compatibility promise: an unknown INDEX version or payload
        // downgrades to a lazy rebuild, never a failed load.
        let mut index_loaded = false;
        if let Some(section) = sections.iter().find(|s| s.id == SECTION_INDEX) {
            if section.version == INDEX_SECTION_VERSION {
                if let Some(index) = CountIndex::decode(section.payload(bytes)?) {
                    dataset.preload_index(Arc::new(index));
                    index_loaded = true;
                }
            }
        }

        let mut meta = Vec::new();
        if let Some(section) = sections.iter().find(|s| s.id == SECTION_META) {
            if section.version == META_SECTION_VERSION {
                meta = decode_meta(section.payload(bytes)?)
                    .ok_or(SnapshotError::Truncated { what: "META pairs" })?;
            }
        }

        Ok(Snapshot {
            dataset,
            meta,
            index_loaded,
        })
    }

    /// Decodes only the `META` annotations — verifying the `META`
    /// section's CRC but never touching the (much larger) `STORE`
    /// payload — so a registry boot scan can list recovered tenants
    /// without reconstructing their datasets.
    ///
    /// # Errors
    ///
    /// Structural failures plus a `META` checksum mismatch; a snapshot
    /// without a `META` section answers an empty list.
    pub fn read_meta(bytes: &[u8]) -> Result<Vec<(String, String)>, SnapshotError> {
        let sections = parse_sections(bytes)?;
        let Some(section) = sections
            .iter()
            .find(|s| s.id == SECTION_META && s.version == META_SECTION_VERSION)
        else {
            return Ok(Vec::new());
        };
        let payload = section.payload(bytes)?;
        if crc32(payload) != section.crc32 {
            return Err(SnapshotError::ChecksumMismatch {
                section: section.id,
            });
        }
        decode_meta(payload).ok_or(SnapshotError::Truncated { what: "META pairs" })
    }

    /// Parses the header and section table — verifying per-section CRCs
    /// but decoding no payload — for `osdiv snapshot inspect` and other
    /// cheap introspection.
    ///
    /// # Errors
    ///
    /// Structural failures only (bad magic, unsupported container
    /// version, truncation); CRC mismatches are *reported* per section,
    /// not raised.
    pub fn inspect(bytes: &[u8]) -> Result<SnapshotInfo, SnapshotError> {
        let sections = parse_sections(bytes)?;
        let infos = sections
            .iter()
            .map(|section| SectionInfo {
                id: section.id,
                name: section_name(section.id),
                version: section.version,
                offset: section.offset,
                length: section.length,
                crc32: section.crc32,
                crc_ok: section
                    .payload(bytes)
                    .map(|payload| crc32(payload) == section.crc32)
                    .unwrap_or(false),
            })
            .collect();
        Ok(SnapshotInfo {
            format_version: FORMAT_VERSION,
            total_bytes: bytes.len() as u64,
            sections: infos,
        })
    }
}

/// The human name of a section id (`unknown` for ids this reader does
/// not know — which it skips, per the forward-compatibility rule).
pub fn section_name(id: u16) -> &'static str {
    match id {
        SECTION_STORE => "store",
        SECTION_INDEX => "index",
        SECTION_META => "meta",
        _ => "unknown",
    }
}

/// One section-table entry, as parsed (offsets not yet bounds-checked).
#[derive(Debug, Clone, Copy)]
struct SectionEntry {
    id: u16,
    version: u16,
    offset: u64,
    length: u64,
    crc32: u32,
}

impl SectionEntry {
    /// The section's payload slice, bounds-checked against the file.
    fn payload<'a>(&self, bytes: &'a [u8]) -> Result<&'a [u8], SnapshotError> {
        let start = usize::try_from(self.offset).ok();
        let len = usize::try_from(self.length).ok();
        start
            .zip(len)
            .and_then(|(start, len)| start.checked_add(len).map(|end| (start, end)))
            .and_then(|(start, end)| bytes.get(start..end))
            .ok_or(SnapshotError::Truncated {
                what: "section payload",
            })
    }
}

/// Parses the fixed header and the section table.
fn parse_sections(bytes: &[u8]) -> Result<Vec<SectionEntry>, SnapshotError> {
    let truncated_header = || SnapshotError::Truncated { what: "header" };
    let Some(magic) = bytes.get(..4) else {
        return Err(truncated_header());
    };
    if magic != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let format_version = le_u16(bytes, 4).ok_or_else(truncated_header)?;
    if format_version != FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            what: "snapshot container",
            found: format_version,
        });
    }
    let count = le_u16(bytes, 6).ok_or_else(truncated_header)? as usize;
    let table = count
        .checked_mul(SECTION_ENTRY_BYTES)
        .and_then(|table_bytes| HEADER_BYTES.checked_add(table_bytes))
        .and_then(|table_end| bytes.get(HEADER_BYTES..table_end))
        .ok_or(SnapshotError::Truncated {
            what: "section table",
        })?;
    let mut sections = Vec::with_capacity(count);
    for entry in table.chunks_exact(SECTION_ENTRY_BYTES) {
        let parsed = le_u16(entry, 0).zip(le_u16(entry, 2)).zip(
            le_u64(entry, 4)
                .zip(le_u64(entry, 12))
                .zip(le_u32(entry, 20)),
        );
        let Some(((id, version), ((offset, length), crc32))) = parsed else {
            // Unreachable: chunks_exact yields full 24-byte entries.
            return Err(SnapshotError::Truncated {
                what: "section table",
            });
        };
        sections.push(SectionEntry {
            id,
            version,
            offset,
            length,
            crc32,
        });
    }
    Ok(sections)
}

/// Decodes the META payload (pair count, then length-prefixed strings).
fn decode_meta(payload: &[u8]) -> Option<Vec<(String, String)>> {
    let mut pos = 0usize;
    let read_u32 = |pos: &mut usize| -> Option<u32> {
        let value = le_u32(payload, *pos)?;
        *pos = pos.checked_add(4)?;
        Some(value)
    };
    let count = read_u32(&mut pos)?;
    let mut pairs = Vec::new();
    for _ in 0..count {
        let mut pieces = [String::new(), String::new()];
        for piece in pieces.iter_mut() {
            let len = read_u32(&mut pos)? as usize;
            let bytes = payload.get(pos..pos + len)?;
            pos += len;
            *piece = String::from_utf8(bytes.to_vec()).ok()?;
        }
        let [key, value] = pieces;
        pairs.push((key, value));
    }
    (pos == payload.len()).then_some(pairs)
}

/// A parsed section-table entry, for inspection output.
#[derive(Debug, Clone)]
pub struct SectionInfo {
    /// Section id.
    pub id: u16,
    /// Human name of the id (`unknown` for foreign sections).
    pub name: &'static str,
    /// Declared section version.
    pub version: u16,
    /// Payload offset from the start of the file.
    pub offset: u64,
    /// Payload length in bytes.
    pub length: u64,
    /// Recorded CRC-32 of the payload.
    pub crc32: u32,
    /// Whether the payload matches the recorded CRC-32.
    pub crc_ok: bool,
}

/// Header/section-table summary produced by [`Snapshot::inspect`].
#[derive(Debug, Clone)]
pub struct SnapshotInfo {
    /// The container format version.
    pub format_version: u16,
    /// Total file size in bytes.
    pub total_bytes: u64,
    /// The section table, in file order.
    pub sections: Vec<SectionInfo>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The classic CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn empty_dataset_round_trips() {
        let dataset = StudyDataset::new();
        let bytes = Snapshot::to_bytes(&dataset, &[("source".into(), "test".into())]);
        assert_eq!(&bytes[..4], b"OSDV");
        let snapshot = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(snapshot.dataset.valid_count(), 0);
        assert!(snapshot.index_loaded);
        assert_eq!(snapshot.meta, vec![("source".into(), "test".into())]);
    }

    #[test]
    fn bad_magic_and_truncation_are_typed() {
        assert!(matches!(
            Snapshot::from_bytes(b"NOPE\x01\x00\x00\x00"),
            Err(SnapshotError::BadMagic)
        ));
        assert!(matches!(
            Snapshot::from_bytes(b"OS"),
            Err(SnapshotError::Truncated { .. })
        ));
        let bytes = Snapshot::to_bytes(&StudyDataset::new(), &[]);
        assert!(matches!(
            Snapshot::from_bytes(&bytes[..HEADER_BYTES + 3]),
            Err(SnapshotError::Truncated { .. })
        ));
    }

    #[test]
    fn unsupported_container_version_is_typed() {
        let mut bytes = Snapshot::to_bytes(&StudyDataset::new(), &[]);
        bytes[4] = 99;
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::UnsupportedVersion { found: 99, .. })
        ));
    }

    #[test]
    fn flipped_payload_byte_fails_its_section_checksum() {
        let mut bytes = Snapshot::to_bytes(&StudyDataset::new(), &[]);
        let payload_start = HEADER_BYTES + 3 * SECTION_ENTRY_BYTES;
        bytes[payload_start] ^= 0xFF;
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        // inspect still parses, reporting the bad section.
        let info = Snapshot::inspect(&bytes).unwrap();
        assert!(info.sections.iter().any(|s| !s.crc_ok));
    }

    #[test]
    fn unknown_index_version_downgrades_to_rebuild() {
        let bytes = Snapshot::to_bytes(&StudyDataset::new(), &[]);
        let mut patched = bytes.clone();
        // The INDEX section is the second table entry; bump its version.
        let entry = HEADER_BYTES + SECTION_ENTRY_BYTES;
        patched[entry + 2] = 0xFE;
        let snapshot = Snapshot::from_bytes(&patched).unwrap();
        assert!(!snapshot.index_loaded, "unknown version must not load");
    }
}
