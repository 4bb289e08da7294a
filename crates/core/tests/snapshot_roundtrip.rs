//! Round-trip and robustness suite for the `OSDV` snapshot container:
//! random datasets must survive write → read with every analysis
//! byte-identical, every corruption must answer a typed error (never a
//! panic), and a golden-fixture test re-parses the writer's output using
//! only the offsets documented in docs/SNAPSHOT_FORMAT.md — so the spec
//! and the code cannot drift apart silently.

use nvd_model::{CveId, CvssV2, Date, OsDistribution, OsPart, OsSet, Validity, VulnerabilityEntry};
use osdiv_core::snapshot::crc32;
use osdiv_core::{
    analysis_sections, renderer, AnalysisId, Format, Params, Snapshot, SnapshotError, Study,
    StudyDataset,
};
use proptest::prelude::*;

/// One randomly drawn vulnerability: year, affected mask, part, access
/// vector and validity.
#[derive(Debug, Clone)]
struct RawEntry {
    year: u16,
    mask: u16,
    part: Option<OsPart>,
    remote: bool,
    valid: bool,
}

fn raw_entry() -> impl Strategy<Value = RawEntry> {
    (
        1990u16..2015,
        0u16..(1 << 11),
        prop_oneof![
            Just(None),
            Just(Some(OsPart::Driver)),
            Just(Some(OsPart::Kernel)),
            Just(Some(OsPart::SystemSoftware)),
            Just(Some(OsPart::Application)),
        ],
        (0u8..2).prop_map(|b| b == 1),
        (0u8..2).prop_map(|b| b == 1),
    )
        .prop_map(|(year, mask, part, remote, valid)| RawEntry {
            year,
            mask,
            part,
            remote,
            valid,
        })
}

fn dataset_from(raws: &[RawEntry]) -> StudyDataset {
    let entries: Vec<VulnerabilityEntry> = raws
        .iter()
        .enumerate()
        .map(|(i, raw)| {
            let mut builder = VulnerabilityEntry::builder(CveId::new(raw.year, i as u32 + 1))
                .published(Date::new(raw.year, 6, 1).unwrap())
                .summary(format!("synthetic vulnerability {i}"))
                .affects_set(OsSet::from_bits(raw.mask))
                .cvss(if raw.remote {
                    CvssV2::typical_remote()
                } else {
                    CvssV2::typical_local()
                });
            if let Some(part) = raw.part {
                builder = builder.part(part);
            }
            let mut entry = builder.build().unwrap();
            if !raw.valid {
                entry.set_validity(Validity::Unspecified);
            }
            entry
        })
        .collect();
    StudyDataset::from_entries(&entries)
}

/// An analysis rendered to JSON, or the error it answers — both sides of
/// the round trip must agree on which.
fn rendered(study: &Study, id: AnalysisId) -> Result<String, String> {
    analysis_sections(study, id, &Params::new())
        .map(|sections| renderer(Format::Json).document(&sections))
        .map_err(|error| error.to_string())
}

proptest! {
    #[test]
    fn every_analysis_survives_the_round_trip_byte_for_byte(
        raws in proptest::collection::vec(raw_entry(), 0..40),
    ) {
        let original = Study::new(dataset_from(&raws));
        let meta = vec![("origin".to_string(), "roundtrip".to_string())];
        let bytes = Snapshot::to_bytes(original.dataset(), &meta);

        let snapshot = Snapshot::from_bytes(&bytes).expect("a fresh snapshot reads back");
        prop_assert!(snapshot.index_loaded, "the writer always includes the index");
        prop_assert_eq!(&snapshot.meta, &meta);
        let reloaded = Study::new(snapshot.dataset);

        for id in AnalysisId::ALL {
            prop_assert_eq!(
                rendered(&original, id),
                rendered(&reloaded, id),
                "analysis {} diverged after the round trip",
                id.name()
            );
        }
    }

    #[test]
    fn any_single_byte_flip_is_detected_or_harmless(
        raws in proptest::collection::vec(raw_entry(), 1..12),
        flip in (0usize..usize::MAX, 1u8..=255),
    ) {
        let dataset = dataset_from(&raws);
        let bytes = Snapshot::to_bytes(&dataset, &[("k".into(), "v".into())]);
        let expected = Snapshot::from_bytes(&bytes).unwrap().dataset;

        let position = flip.0 % bytes.len();
        let mut corrupt = bytes.clone();
        corrupt[position] ^= flip.1;
        // A typed verdict, never a panic. Reads that still succeed must
        // have been saved by a CRC-covered redundancy (e.g. a flipped
        // INDEX byte falls back to the rebuilt index) and therefore still
        // decode an equivalent store.
        if let Ok(snapshot) = Snapshot::from_bytes(&corrupt) {
            prop_assert_eq!(
                snapshot.dataset.store().vulnerability_count(),
                expected.store().vulnerability_count(),
                "an accepted byte flip at {} changed the store",
                position
            );
        }
    }

    #[test]
    fn any_truncation_answers_a_typed_error(
        raws in proptest::collection::vec(raw_entry(), 1..12),
        cut in 0usize..usize::MAX,
    ) {
        let dataset = dataset_from(&raws);
        let bytes = Snapshot::to_bytes(&dataset, &[]);
        let cut = cut % bytes.len(); // strictly shorter than the file
        let error = Snapshot::from_bytes(&bytes[..cut])
            .expect_err("a truncated snapshot must not decode");
        prop_assert!(
            matches!(
                error,
                SnapshotError::Truncated { .. }
                    | SnapshotError::BadMagic
                    | SnapshotError::ChecksumMismatch { .. }
                    | SnapshotError::MissingStore
                    | SnapshotError::Rows(_)
            ),
            "unexpected verdict for a truncation at {}: {}",
            cut,
            error
        );
    }

    #[test]
    fn crc32_matches_the_bit_by_bit_reference_on_random_buffers(
        bytes in proptest::collection::vec(0u8..=255, 0..65_536),
    ) {
        prop_assert_eq!(crc32(&bytes), reference_crc32(&bytes), "length {}", bytes.len());
    }
}

#[test]
fn wrong_container_and_store_versions_answer_typed_errors() {
    let dataset = dataset_from(&[RawEntry {
        year: 2005,
        mask: 0b11,
        part: Some(OsPart::Kernel),
        remote: true,
        valid: true,
    }]);
    let bytes = Snapshot::to_bytes(&dataset, &[]);

    // Container version: u16 LE at offset 4 (per docs/SNAPSHOT_FORMAT.md).
    let mut wrong_container = bytes.clone();
    wrong_container[4..6].copy_from_slice(&99u16.to_le_bytes());
    assert!(matches!(
        Snapshot::from_bytes(&wrong_container),
        Err(SnapshotError::UnsupportedVersion { .. })
    ));

    // STORE section version: bytes 2..4 of its 24-byte table entry. The
    // store has no lazy fallback — an unknown version is a hard error
    // (flipping the version also breaks no CRC: only payloads are
    // checksummed, which is exactly why the reader must check it).
    let store_entry = 8;
    let mut wrong_store = bytes.clone();
    wrong_store[store_entry + 2..store_entry + 4].copy_from_slice(&99u16.to_le_bytes());
    assert!(matches!(
        Snapshot::from_bytes(&wrong_store),
        Err(SnapshotError::UnsupportedVersion { .. })
    ));

    // INDEX section version: same offset in the second entry. Unknown
    // index versions are the documented compatibility promise — the read
    // succeeds and the index is rebuilt lazily instead.
    let index_entry = 8 + 24;
    let mut unknown_index = bytes.clone();
    unknown_index[index_entry + 2..index_entry + 4].copy_from_slice(&99u16.to_le_bytes());
    let snapshot = Snapshot::from_bytes(&unknown_index).unwrap();
    assert!(!snapshot.index_loaded);
    assert_eq!(
        snapshot.dataset.store().vulnerability_count(),
        dataset.store().vulnerability_count()
    );
}

/// The reference CRC-32 (IEEE, reflected, `0xEDB8_8320`) computed bit by
/// bit — deliberately *not* the library's table-driven implementation, so
/// this file checks the documented algorithm, not the code against
/// itself.
fn reference_crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &byte in bytes {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

/// `len` bytes of a seeded xorshift stream.
fn seeded_bytes(len: usize, mut state: u64) -> Vec<u8> {
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 32) as u8
        })
        .collect()
}

/// The library CRC folds whole 16-byte blocks through 16 tables and the
/// rest byte by byte. Every start offset 0..16 and every length 0..=80
/// covers each tail length and zero to five whole blocks at every
/// alignment; the 1.25 MB buffer is the size of a default tenant's
/// snapshot.
#[test]
fn crc32_matches_the_bit_by_bit_reference_at_every_alignment_and_tail() {
    let buffer = seeded_bytes(16 + 80, 2011);
    for start in 0..16 {
        for len in 0..=80 {
            let slice = &buffer[start..start + len];
            assert_eq!(
                crc32(slice),
                reference_crc32(slice),
                "start {start}, length {len}"
            );
        }
    }
    let full = seeded_bytes(1_250_000, 7);
    assert_eq!(crc32(&full), reference_crc32(&full), "a 1.25 MB buffer");
}

/// Golden fixture: decode a writer-produced file using nothing but the
/// byte offsets documented in docs/SNAPSHOT_FORMAT.md. If the writer and
/// the spec drift apart, this test fails.
#[test]
fn the_documented_offsets_parse_a_real_snapshot() {
    assert_eq!(
        reference_crc32(b"123456789"),
        0xCBF4_3926,
        "the documented check value"
    );

    let dataset = dataset_from(&[
        RawEntry {
            year: 2004,
            mask: 0b101,
            part: Some(OsPart::Driver),
            remote: true,
            valid: true,
        },
        RawEntry {
            year: 2008,
            mask: 0b11,
            part: None,
            remote: false,
            valid: false,
        },
    ]);
    let meta = vec![("source".to_string(), "golden".to_string())];
    let bytes = Snapshot::to_bytes(&dataset, &meta);

    // Fixed header: magic "OSDV", container version u16 LE, section count
    // u16 LE — 8 bytes total.
    assert_eq!(&bytes[0..4], b"OSDV");
    assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), 1);
    let section_count = u16::from_le_bytes([bytes[6], bytes[7]]) as usize;
    assert_eq!(section_count, 3, "STORE, INDEX, META");

    // Section table: 24-byte entries from offset 8 —
    // id u16 | version u16 | offset u64 | length u64 | crc32 u32, all LE.
    let mut next_payload = 8 + section_count * 24;
    let mut seen = Vec::new();
    for i in 0..section_count {
        let entry = &bytes[8 + i * 24..8 + (i + 1) * 24];
        let id = u16::from_le_bytes([entry[0], entry[1]]);
        let version = u16::from_le_bytes([entry[2], entry[3]]);
        let offset = u64::from_le_bytes(entry[4..12].try_into().unwrap()) as usize;
        let length = u64::from_le_bytes(entry[12..20].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(entry[20..24].try_into().unwrap());
        assert_eq!(version, 1, "section {id} version");
        assert_eq!(
            offset, next_payload,
            "payloads are contiguous, in table order"
        );
        assert_eq!(
            reference_crc32(&bytes[offset..offset + length]),
            crc,
            "section {id} CRC over exactly its payload"
        );
        next_payload = offset + length;
        seen.push(id);
    }
    assert_eq!(seen, [1, 2, 3], "section ids: STORE=1, INDEX=2, META=3");
    assert_eq!(next_payload, bytes.len(), "no trailing bytes");

    // The META payload: pair count u32 LE, then length-prefixed UTF-8
    // strings (u32 LE) alternating key, value.
    let meta_entry = &bytes[8 + 2 * 24..8 + 3 * 24];
    let offset = u64::from_le_bytes(meta_entry[4..12].try_into().unwrap()) as usize;
    let payload = &bytes[offset..];
    assert_eq!(u32::from_le_bytes(payload[0..4].try_into().unwrap()), 1);
    let key_len = u32::from_le_bytes(payload[4..8].try_into().unwrap()) as usize;
    assert_eq!(&payload[8..8 + key_len], b"source");
    let value_at = 8 + key_len;
    let value_len =
        u32::from_le_bytes(payload[value_at..value_at + 4].try_into().unwrap()) as usize;
    assert_eq!(&payload[value_at + 4..value_at + 4 + value_len], b"golden");
}

/// The `STORE` payload of a small hand-built dataset, pinned by length and
/// CRC-32. Every other test here compares the codec with itself, so only a
/// pin notices an encoder change. The dataset covers the orders and
/// columns the encoder writes: a CVE published twice (its second `os_vuln`
/// row and its only `cvss` row land after other rows), per-release version
/// lists, an entry without CVSS and an unclassified, disputed entry.
#[test]
fn the_store_payload_bytes_are_pinned() {
    let date = |year, month, day| Date::new(year, month, day).unwrap();
    let entries = [
        VulnerabilityEntry::builder(CveId::new(2004, 230))
            .published(date(2004, 4, 20))
            .summary("TCP reset with spoofed packets")
            .part(OsPart::Kernel)
            .affects_os(OsDistribution::Windows2000)
            .build()
            .unwrap(),
        VulnerabilityEntry::builder(CveId::new(2008, 1447))
            .published(date(2008, 7, 8))
            .summary("DNS cache poisoning")
            .part(OsPart::SystemSoftware)
            .cvss(CvssV2::typical_remote())
            .affects_os_version(OsDistribution::Debian, "3.1")
            .affects_os_version(OsDistribution::Debian, "4.0")
            .affects_os_version(OsDistribution::RedHat, "5")
            .affects_os(OsDistribution::FreeBsd)
            .build()
            .unwrap(),
        VulnerabilityEntry::builder(CveId::new(2009, 10))
            .published(date(2009, 1, 5))
            .summary("Race condition in the audio driver")
            .part(OsPart::Driver)
            .affects_os(OsDistribution::Solaris)
            .affects_os(OsDistribution::OpenSolaris)
            .build()
            .unwrap(),
        VulnerabilityEntry::builder(CveId::new(2006, 3))
            .published(date(2006, 11, 30))
            .summary("Reported flaw the vendor disputes")
            .validity(Validity::Disputed)
            .cvss(CvssV2::typical_local())
            .affects_os(OsDistribution::NetBsd)
            .build()
            .unwrap(),
        // The second publication of CVE-2004-230: an earlier date, one more
        // OS and the CVSS vector the first lacked.
        VulnerabilityEntry::builder(CveId::new(2004, 230))
            .published(date(2004, 4, 18))
            .affects_os(OsDistribution::Windows2003)
            .cvss(CvssV2::typical_remote())
            .build()
            .unwrap(),
    ];
    let dataset = StudyDataset::from_entries(&entries);
    let store = dataset.store();
    assert_eq!(store.vulnerability_count(), 4);
    assert_eq!(store.os_vuln_count(), 8);
    let bytes = Snapshot::to_bytes(&dataset, &[]);

    // STORE is the first section-table entry (docs/SNAPSHOT_FORMAT.md).
    let entry = &bytes[8..8 + 24];
    assert_eq!(u16::from_le_bytes([entry[0], entry[1]]), 1, "STORE id");
    let offset = u64::from_le_bytes(entry[4..12].try_into().unwrap()) as usize;
    let length = u64::from_le_bytes(entry[12..20].try_into().unwrap()) as usize;
    let payload = &bytes[offset..offset + length];
    assert_eq!(
        (payload.len(), reference_crc32(payload)),
        (STORE_PIN_LENGTH, STORE_PIN_CRC),
        "the STORE encoding changed"
    );
}

/// The length and CRC-32 of `the_store_payload_bytes_are_pinned`'s payload,
/// as the version 1 `STORE` encoder has always written it.
const STORE_PIN_LENGTH: usize = 393;
const STORE_PIN_CRC: u32 = 0xB332_E380;

/// Rewrites a writer-produced snapshot with a fourth section-table entry
/// (id 99, version 1) whose payload goes after the writer's three. The
/// table grows by one 24-byte entry, so every existing offset moves by 24.
fn with_unknown_section(bytes: &[u8], payload: &[u8], crc: u32) -> Vec<u8> {
    let count = u16::from_le_bytes([bytes[6], bytes[7]]) as usize;
    let table_end = 8 + count * 24;
    let mut out = bytes[..6].to_vec();
    out.extend_from_slice(&(count as u16 + 1).to_le_bytes());
    for entry in bytes[8..table_end].chunks_exact(24) {
        let offset = u64::from_le_bytes(entry[4..12].try_into().unwrap()) + 24;
        out.extend_from_slice(&entry[..4]);
        out.extend_from_slice(&offset.to_le_bytes());
        out.extend_from_slice(&entry[12..]);
    }
    out.extend_from_slice(&99u16.to_le_bytes());
    out.extend_from_slice(&1u16.to_le_bytes());
    out.extend_from_slice(&(bytes.len() as u64 + 24).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(&bytes[table_end..]);
    out.extend_from_slice(payload);
    out
}

/// docs/SNAPSHOT_FORMAT.md: readers MUST skip section ids they do not
/// recognize, and a CRC mismatch fails the load only for a recognized
/// section. A future writer's extra section, intact or not, loads the
/// same dataset and annotations; `inspect` still reports its CRC.
#[test]
fn an_unknown_section_is_skipped_whatever_its_crc() {
    let dataset = dataset_from(&[
        RawEntry {
            year: 2006,
            mask: 0b110,
            part: Some(OsPart::Kernel),
            remote: true,
            valid: true,
        },
        RawEntry {
            year: 2009,
            mask: 0b1001,
            part: Some(OsPart::Application),
            remote: false,
            valid: true,
        },
    ]);
    let meta = vec![("source".to_string(), "future".to_string())];
    let bytes = Snapshot::to_bytes(&dataset, &meta);
    let payload = b"a section from a later writer";
    let right = reference_crc32(payload);

    for (crc, crc_ok) in [(right, true), (right ^ 1, false)] {
        let file = with_unknown_section(&bytes, payload, crc);
        let snapshot = Snapshot::from_bytes(&file)
            .unwrap_or_else(|error| panic!("crc_ok {crc_ok}: the load failed: {error}"));
        assert_eq!(snapshot.meta, meta, "crc_ok {crc_ok}");
        assert!(snapshot.index_loaded, "crc_ok {crc_ok}");
        assert_eq!(
            Snapshot::to_bytes(&snapshot.dataset, &snapshot.meta),
            bytes,
            "crc_ok {crc_ok}: the loaded dataset re-encodes to the original file"
        );
        assert_eq!(Snapshot::read_meta(&file).unwrap(), meta);

        let info = Snapshot::inspect(&file).unwrap();
        let ids: Vec<u16> = info.sections.iter().map(|s| s.id).collect();
        assert_eq!(ids, [1, 2, 3, 99]);
        let unknown = &info.sections[3];
        assert_eq!(unknown.name, "unknown");
        assert_eq!(unknown.crc_ok, crc_ok);
        assert!(info.sections[..3].iter().all(|s| s.crc_ok));

        // Skipping is not trusting: the entry must still lie in the file.
        assert!(matches!(
            Snapshot::from_bytes(&file[..file.len() - 1]),
            Err(SnapshotError::Truncated { .. })
        ));
    }
}
