//! The build writes `values.dat` in one piece and hashes each value as it
//! reads it, where the data file used to take a seek and a write per value
//! and B+v's bulk load read every value back: neither moves a byte.
//! `values.dat` equals the data file `build_in_memory` assembles for the
//! same XML, and `values.idx` keeps the bytes pinned by its 64-bit FNV-1a
//! digest (first those the per-value build wrote; re-pinned when the
//! B+tree leaf format changed).

#![cfg(test)]

use nok_core::{LockDataFile, XmlDb};
use nok_datagen::{generate, DatasetKind};

/// FNV-1a of `values.idx` built from dblp at scale 0.01 (format 4's
/// prefix-truncated leaves; format 3's file hashed to 0xe178_c152_98ec_c86b).
const VALUES_IDX_FNV: u64 = 0xf0e5_1375_c316_7e17;

#[test]
fn value_files_are_byte_identical_to_the_per_value_build() {
    let xml = generate(DatasetKind::Dblp, 0.01).xml;
    let dir = std::env::temp_dir().join(format!("nok-value-files-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let db = XmlDb::create_on_disk(&dir, &xml).unwrap();
    drop(db);
    let data = std::fs::read(dir.join("values.dat")).unwrap();
    let idx = std::fs::read(dir.join("values.idx")).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    let mem = XmlDb::build_in_memory(&xml).unwrap();
    let want = mem.data_cell().lock_data().bytes_from(0).unwrap();
    assert_eq!(data.len(), want.len());
    assert!(
        data == want,
        "values.dat differs from the in-memory data file"
    );
    let digest = idx.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    });
    eprintln!("values.idx: {} bytes, FNV-1a {digest:#x}", idx.len());
    assert_eq!(digest, VALUES_IDX_FNV);
}
