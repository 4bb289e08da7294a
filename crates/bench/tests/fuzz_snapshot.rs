//! Always-on fuzz harness for the binary decoders: OSDV snapshots
//! ([`Snapshot::from_bytes`] / `inspect` / `read_meta`) and the row codec
//! ([`vulnstore::snapshot::decode_store`]). Corrupt bytes are `Err`s —
//! never a panic.

use datagen::CalibratedGenerator;
use osdiv_core::snapshot::Snapshot;
use osdiv_core::StudyDataset;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::path::PathBuf;

fn corpus(dir: &str) -> Vec<(String, Vec<u8>)> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/corpora")
        .join(dir);
    let mut paths: Vec<_> = std::fs::read_dir(&root)
        .unwrap_or_else(|e| panic!("corpus {} unreadable: {e}", root.display()))
        .map(|entry| entry.expect("corpus entry").path())
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "corpus {dir} must not be empty");
    paths
        .into_iter()
        .map(|path| {
            let name = path
                .file_name()
                .unwrap_or_default()
                .to_string_lossy()
                .into_owned();
            let bytes = std::fs::read(&path).expect("corpus file readable");
            (name, bytes)
        })
        .collect()
}

fn decode_all(bytes: &[u8]) {
    let _ = Snapshot::from_bytes(bytes);
    let _ = Snapshot::inspect(bytes);
    let _ = Snapshot::read_meta(bytes);
    let _ = vulnstore::snapshot::decode_store(bytes);
}

#[test]
fn corpus_blobs_never_panic() {
    for (_, bytes) in corpus("snapshots") {
        decode_all(&bytes);
    }
}

#[test]
fn bit_flipped_valid_snapshots_never_panic() {
    // Start from a genuine snapshot so mutations explore deep decoder
    // states (section table, row codec, CRC mismatches), not just the
    // header checks.
    let dataset = StudyDataset::from_entries(CalibratedGenerator::new(7).generate().entries());
    let valid = Snapshot::to_bytes(&dataset, &[("origin".into(), "fuzz".into())]);
    assert!(Snapshot::from_bytes(&valid).is_ok(), "baseline round-trips");

    let mut rng = StdRng::seed_from_u64(0x05D1_FBAD_C0DE_0005);
    for _ in 0..200 {
        let mut mutant = valid.clone();
        match rng.gen_range(0u32..3) {
            0 => {
                let i = rng.gen_range(0..mutant.len());
                mutant[i] ^= 1 << rng.gen_range(0u32..8);
            }
            1 => {
                let keep = rng.gen_range(0..mutant.len());
                mutant.truncate(keep);
            }
            _ => {
                let i = rng.gen_range(0..mutant.len());
                let j = rng.gen_range(0..=8usize);
                for _ in 0..j {
                    mutant.insert(i, rng.gen_range(0u32..=255) as u8);
                }
            }
        }
        decode_all(&mutant);
    }
}

#[test]
fn truncations_at_every_interesting_boundary_never_panic() {
    let dataset = StudyDataset::from_entries(CalibratedGenerator::new(7).generate().entries());
    let valid = Snapshot::to_bytes(&dataset, &[]);
    // Every prefix of the header + section table, then sparse samples.
    for end in (0..64.min(valid.len())).chain((64..valid.len()).step_by(97)) {
        decode_all(valid.get(..end).unwrap_or(&valid));
    }
}
