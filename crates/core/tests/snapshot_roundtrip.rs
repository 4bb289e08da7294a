//! Round-trip and robustness suite for the `OSDV` snapshot container:
//! random datasets must survive write → read with every analysis
//! byte-identical, every corruption must answer a typed error (never a
//! panic), and a golden-fixture test re-parses the writer's output using
//! only the offsets documented in docs/SNAPSHOT_FORMAT.md — so the spec
//! and the code cannot drift apart silently.

use datagen::CalibratedGenerator;
use nvd_model::{CveId, CvssV2, Date, OsDistribution, OsPart, OsSet, Validity, VulnerabilityEntry};
use osdiv_core::analysis::report_sections;
use osdiv_core::snapshot::crc32;
use osdiv_core::{
    analysis_sections, renderer, AnalysisId, Format, Params, Period, ServerProfile, Snapshot,
    SnapshotError, Study, StudyDataset,
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
        let expected_version = if id == 2 { 3 } else { 1 };
        assert_eq!(version, expected_version, "section {id} version");
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

    // The INDEX version 3 payload: per profile, u32 at_least[12] then the
    // u32[2048] History and Observed supersets; then u32 year_count and
    // per year u16 year + u32 valid rows per OS[11]. The fixture's only
    // valid row: 2004, OSes 0 and 2, retained by all three profiles (a
    // remote Driver flaw).
    let index_entry = &bytes[8 + 24..8 + 2 * 24];
    let offset = u64::from_le_bytes(index_entry[4..12].try_into().unwrap()) as usize;
    let length = u64::from_le_bytes(index_entry[12..20].try_into().unwrap()) as usize;
    let index = &bytes[offset..offset + length];
    let word = |at: usize| u32::from_le_bytes(index[at..at + 4].try_into().unwrap());
    let profile_bytes = 4 * (12 + 2 * 2048);
    assert_eq!(length, 3 * profile_bytes + 4 + (2 + 4 * 11));
    for profile in 0..3 {
        let at_least = profile * profile_bytes;
        let at_least: Vec<u32> = (0..12).map(|k| word(at_least + 4 * k)).collect();
        assert_eq!(at_least, [1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        let superset = |period: usize, mask: usize| {
            word(profile * profile_bytes + 4 * (12 + period * 2048 + mask))
        };
        for (period, rows) in [(0, 1), (1, 0)] {
            assert_eq!(
                superset(period, 0b101),
                rows,
                "profile {profile} period {period}"
            );
            assert_eq!(superset(period, 0b001), rows);
            assert_eq!(superset(period, 0b111), 0);
        }
    }
    let years = 3 * profile_bytes;
    assert_eq!(word(years), 1, "one distinct year");
    assert_eq!(
        u16::from_le_bytes([index[years + 4], index[years + 5]]),
        2004
    );
    let per_os: Vec<u32> = (0..11).map(|os| word(years + 6 + 4 * os)).collect();
    assert_eq!(per_os, [1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0]);
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

/// The version 1 `INDEX` payload every earlier build wrote, computed here
/// by naive scans from its documented layout: `u8 coarse`, the distinct
/// years of valid rows, then per profile `at_least[12]` and two
/// length-prefixed tables of one cumulative 2048-mask layer per year —
/// rows up to that year whose `os_set` is a superset of the mask, and rows
/// meeting the mask in at least two OSes.
fn version_1_index_payload(dataset: &StudyDataset) -> Vec<u8> {
    let mut years: Vec<u16> = dataset.store().valid_rows().map(|r| r.year()).collect();
    years.sort_unstable();
    years.dedup();
    let mut out = vec![0u8];
    out.extend_from_slice(&(years.len() as u32).to_le_bytes());
    for year in &years {
        out.extend_from_slice(&year.to_le_bytes());
    }
    let push_u32 = |out: &mut Vec<u8>, value: usize| {
        out.extend_from_slice(&(value as u32).to_le_bytes());
    };
    for profile in ServerProfile::ALL {
        let retained: Vec<_> = dataset
            .store()
            .rows()
            .filter(|row| dataset.retains(row, profile))
            .collect();
        for k in 0..=11 {
            push_u32(
                &mut out,
                retained.iter().filter(|r| r.os_set.len() >= k).count(),
            );
        }
        for shared in [false, true] {
            push_u32(&mut out, years.len() * 2048);
            for &year in &years {
                for mask in 0..2048u16 {
                    let group = OsSet::from_bits(mask);
                    let count = retained
                        .iter()
                        .filter(|row| row.year() <= year)
                        .filter(|row| {
                            if shared {
                                row.os_set.intersection(group).len() >= 2
                            } else {
                                group.is_subset_of(&row.os_set)
                            }
                        })
                        .count();
                    push_u32(&mut out, count);
                }
            }
        }
    }
    out
}

/// The version 2 `INDEX` payload the build before version 3 wrote, from a
/// version 3 payload: each profile's tables followed by its Whole
/// superset table (History + Observed, cell by cell), then the same
/// per-year list.
fn version_2_index_payload(version_3: &[u8]) -> Vec<u8> {
    let profile_bytes = 4 * (12 + 2 * 2048);
    let (tables, years) = version_3.split_at(3 * profile_bytes);
    let word = |bytes: &[u8]| u32::from_le_bytes(bytes.try_into().unwrap());
    let mut out = Vec::new();
    for profile in tables.chunks_exact(profile_bytes) {
        out.extend_from_slice(profile);
        let (history, observed) = profile[4 * 12..].split_at(4 * 2048);
        for (h, o) in history.chunks_exact(4).zip(observed.chunks_exact(4)) {
            out.extend_from_slice(&(word(h) + word(o)).to_le_bytes());
        }
    }
    out.extend_from_slice(years);
    out
}

/// The `INDEX` payload of a writer-produced snapshot (the second entry).
fn index_payload(bytes: &[u8]) -> &[u8] {
    let entry = &bytes[8 + 24..8 + 2 * 24];
    let offset = u64::from_le_bytes(entry[4..12].try_into().unwrap()) as usize;
    let length = u64::from_le_bytes(entry[12..20].try_into().unwrap()) as usize;
    &bytes[offset..offset + length]
}

/// `version_2_index_payload` of `osdiv snapshot save --seed 2011` is the
/// version 2 `INDEX` the earlier writer saved for that dataset, pinned by
/// length and CRC-32 as that writer wrote it.
#[test]
fn the_version_2_reference_encoder_matches_the_earlier_writer() {
    let generated = CalibratedGenerator::new(2011).generate();
    let bytes = Snapshot::to_bytes(&StudyDataset::from_entries(generated.entries()), &[]);
    let version_2 = version_2_index_payload(index_payload(&bytes));
    assert_eq!(
        (version_2.len(), reference_crc32(&version_2)),
        (INDEX_V2_PIN_LENGTH, INDEX_V2_PIN_CRC),
        "the version 2 reference encoder drifted from the earlier writer"
    );
}

/// The length and CRC-32 of the version 2 `INDEX` the earlier writer saved
/// for seed 2011 (`osdiv snapshot inspect` of its `snapshot save`).
const INDEX_V2_PIN_LENGTH: usize = 74_658;
const INDEX_V2_PIN_CRC: u32 = 0x91C9_AD29;

/// A decoded `INDEX` is outside input: a History and an Observed cell of
/// `u32::MAX` each must add up in the Whole answer, not wrap.
#[test]
fn whole_period_answers_sum_decoded_cells_past_u32_max() {
    let bytes = Snapshot::to_bytes(&StudyDataset::new(), &[]);
    let mut index = index_payload(&bytes).to_vec();
    // The first profile's History and Observed cells of the empty mask.
    let history = 4 * 12;
    let observed = history + 4 * 2048;
    for at in [history, observed] {
        index[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    }
    let snapshot = Snapshot::from_bytes(&with_index_section(&bytes, 3, &index)).unwrap();
    assert!(snapshot.index_loaded);
    let (dataset, fat, none) = (
        &snapshot.dataset,
        ServerProfile::FatServer,
        OsSet::from_bits(0),
    );
    let max = u32::MAX as usize;
    for (period, expected) in [
        (Period::History, max),
        (Period::Observed, max),
        (Period::Whole, 2 * max),
    ] {
        assert_eq!(dataset.count_common_in(none, fat, period), expected);
        assert_eq!(dataset.count_shared_within(none, fat, period), expected);
    }
}

/// Rewrites a writer-produced snapshot with its `INDEX` section (the
/// second entry) replaced by `payload` under `version`, recomputing every
/// offset and the section's CRC.
fn with_index_section(bytes: &[u8], version: u16, payload: &[u8]) -> Vec<u8> {
    let mut table = Vec::new();
    let mut payloads = Vec::new();
    let mut offset = 8 + 3 * 24;
    for entry in bytes[8..8 + 3 * 24].chunks_exact(24) {
        let id = u16::from_le_bytes([entry[0], entry[1]]);
        let start = u64::from_le_bytes(entry[4..12].try_into().unwrap()) as usize;
        let length = u64::from_le_bytes(entry[12..20].try_into().unwrap()) as usize;
        let (version, body) = if id == 2 {
            (version, payload)
        } else {
            (
                u16::from_le_bytes([entry[2], entry[3]]),
                &bytes[start..start + length],
            )
        };
        table.extend_from_slice(&id.to_le_bytes());
        table.extend_from_slice(&version.to_le_bytes());
        table.extend_from_slice(&(offset as u64).to_le_bytes());
        table.extend_from_slice(&(body.len() as u64).to_le_bytes());
        table.extend_from_slice(&reference_crc32(body).to_le_bytes());
        payloads.extend_from_slice(body);
        offset += body.len();
    }
    let mut out = bytes[..8].to_vec();
    out.extend_from_slice(&table);
    out.extend_from_slice(&payloads);
    out
}

/// 48 rows over 23 publication years (1991–2013), every part, both
/// access vectors and some invalid rows.
fn rows_over_23_years() -> Vec<RawEntry> {
    let parts = [
        None,
        Some(OsPart::Driver),
        Some(OsPart::Kernel),
        Some(OsPart::SystemSoftware),
        Some(OsPart::Application),
    ];
    (0..48u16)
        .map(|i| RawEntry {
            year: 1991 + (i * 7) % 23,
            mask: ((i * 389 + 7) % 2048) | (1 << (i % 11)),
            part: parts[usize::from(i % 5)],
            remote: i % 3 != 0,
            valid: i % 7 != 0,
        })
        .collect()
}

/// Every snapshot an earlier build wrote carries a version 1 or 2
/// `INDEX`. Each must load (the compatibility promise), rebuild its index
/// lazily and report exactly what a fresh dataset reports; saving it again
/// writes the current version.
#[test]
fn a_version_1_or_2_index_from_an_earlier_build_is_rebuilt_lazily() {
    let raws = rows_over_23_years();
    let meta = vec![("source".to_string(), "earlier build".to_string())];
    let current = Snapshot::to_bytes(&dataset_from(&raws), &meta);
    let dataset = dataset_from(&raws);
    let fresh = Study::new(dataset_from(&raws));

    for (version, payload) in [
        (1, version_1_index_payload(&dataset)),
        (2, version_2_index_payload(index_payload(&current))),
    ] {
        let earlier = with_index_section(&current, version, &payload);
        let info = Snapshot::inspect(&earlier).unwrap();
        assert_eq!(info.sections[1].version, version);
        assert!(info.sections.iter().all(|s| s.crc_ok));
        let snapshot = Snapshot::from_bytes(&earlier).unwrap();
        assert!(
            !snapshot.index_loaded,
            "a version {version} INDEX is rebuilt"
        );
        assert_eq!(snapshot.meta, meta);

        let loaded = Study::new(snapshot.dataset);
        for format in Format::ALL {
            assert_eq!(
                renderer(format).document(&report_sections(&loaded).unwrap()),
                renderer(format).document(&report_sections(&fresh).unwrap()),
                "version {version}: {format} report"
            );
        }
        assert_eq!(
            Snapshot::to_bytes(loaded.dataset(), &meta),
            current,
            "version {version}: saving again writes the current INDEX version"
        );
    }
}

/// A version 3 `INDEX` the reader cannot use — a byte short or long, a
/// year count the payload does not hold, years out of order — is rebuilt
/// too; the intact payload loads. Either way the report is the fresh
/// dataset's.
#[test]
fn a_malformed_version_3_index_is_rebuilt_lazily() {
    let raws = rows_over_23_years();
    let bytes = Snapshot::to_bytes(&dataset_from(&raws), &[]);
    let expected = renderer(Format::Json)
        .document(&report_sections(&Study::new(dataset_from(&raws))).unwrap());
    let intact = index_payload(&bytes).to_vec();

    // Offsets from the documented layout: the year count follows the
    // three profiles' tables, and each year entry is 46 bytes.
    let year_count = 3 * 4 * (12 + 2 * 2048);
    let (first, second) = (year_count + 4, year_count + 4 + 46);
    let mut swapped = intact.clone();
    swapped[first..first + 2].copy_from_slice(&intact[second..second + 2]);
    swapped[second..second + 2].copy_from_slice(&intact[first..first + 2]);
    let mut claims_more = intact.clone();
    claims_more[year_count..year_count + 4].copy_from_slice(&24u32.to_le_bytes());
    let mut long = intact.clone();
    long.push(0);
    let short = intact[..intact.len() - 1].to_vec();

    for (name, index, loaded) in [
        ("intact", intact.clone(), true),
        ("short", short, false),
        ("long", long, false),
        ("claims one more year", claims_more, false),
        ("years out of order", swapped, false),
    ] {
        let snapshot = Snapshot::from_bytes(&with_index_section(&bytes, 3, &index)).unwrap();
        assert_eq!(snapshot.index_loaded, loaded, "{name}");
        let study = Study::new(snapshot.dataset);
        let report = renderer(Format::Json).document(&report_sections(&study).unwrap());
        assert_eq!(report, expected, "{name}");
    }
    assert_eq!(
        u32::from_le_bytes(intact[year_count..first].try_into().unwrap()),
        23
    );
}
