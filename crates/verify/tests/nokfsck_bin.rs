//! End-to-end tests for the `nokfsck` binary: exit codes and JSON output
//! over real on-disk databases, including one corrupted at the file level.

#![cfg(test)]

use std::fs::OpenOptions;
use std::io::{Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::process::Command;

use nok_core::XmlDb;

const BIB: &str = r#"<bib>
  <book year="1994"><title>TCP/IP Illustrated</title><price>65.95</price></book>
  <book year="2000"><title>Data on the Web</title><price>39.95</price></book>
</bib>"#;

/// struct.pg layout: 16-byte superblock, then fixed-size pages.
const SUPERBLOCK: u64 = 16;

fn fsck(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_nokfsck"))
        .args(args)
        .output()
        .unwrap()
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nokfsck-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn clean_store_exits_zero() {
    let dir = fresh_dir("clean");
    XmlDb::create_on_disk(&dir, BIB).unwrap().flush().unwrap();
    let out = fsck(&[dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("clean"), "{text}");

    let out = fsck(&["--json", "--strict", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let json = String::from_utf8(out.stdout).unwrap();
    assert!(json.starts_with("{\"clean\":true,"), "{json}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_store_exits_one_with_violations() {
    let dir = fresh_dir("corrupt");
    XmlDb::create_on_disk(&dir, BIB).unwrap().flush().unwrap();
    // Flip page 0's st field (bytes 0-1 past the superblock): the chain
    // head must start at level 0.
    let mut f = OpenOptions::new()
        .write(true)
        .open(dir.join("struct.pg"))
        .unwrap();
    f.seek(SeekFrom::Start(SUPERBLOCK)).unwrap();
    f.write_all(&7u16.to_le_bytes()).unwrap();
    f.sync_all().unwrap();
    drop(f);

    let out = fsck(&["--json", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let json = String::from_utf8(out.stdout).unwrap();
    assert!(json.contains("\"clean\":false"), "{json}");
    assert!(json.contains("\"kind\":\"st-mismatch\""), "{json}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unopenable_store_with_clean_chain_exits_two() {
    let dir = fresh_dir("degraded");
    XmlDb::create_on_disk(&dir, BIB).unwrap().flush().unwrap();
    // Trash an index file: the database no longer opens, but struct.pg is
    // intact, so nokfsck degrades to a raw chain scan. Even when that scan
    // is clean the exit code must signal the open failure.
    std::fs::write(dir.join("tags.idx"), b"garbage, not a page file").unwrap();

    let out = fsck(&[dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("raw chain scan"), "{err}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("chain scan"), "{text}");
    assert!(text.contains("clean"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A missing, format-0 or damaged `super.blk` is its own violation class:
/// exit 1, named in `--json`, and no page is scanned under a guessed
/// decoder.
#[test]
fn bad_superblock_is_a_violation_not_a_guess() {
    let dir = fresh_dir("superblock");
    XmlDb::create_on_disk(&dir, BIB).unwrap().flush().unwrap();
    let sb_path = dir.join("super.blk");
    let good = std::fs::read(&sb_path).unwrap();
    let mut format0 = good.clone();
    format0[10] = 0;
    let cases: [(&str, Option<&[u8]>, &str); 3] = [
        ("missing", None, "super.blk is missing"),
        ("format 0", Some(&format0), "page format 0"),
        ("damaged", Some(&good[..5]), "super.blk is damaged"),
    ];
    for (what, bytes, needle) in cases {
        match bytes {
            Some(b) => std::fs::write(&sb_path, b).unwrap(),
            None => std::fs::remove_file(&sb_path).unwrap(),
        }
        let out = fsck(&["--json", "--strict", dir.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(1), "{what}: {out:?}");
        let json = String::from_utf8(out.stdout).unwrap();
        assert!(json.contains("\"clean\":false"), "{what}: {json}");
        assert!(json.contains("\"kind\":\"superblock\""), "{what}: {json}");
        assert!(json.contains(needle), "{what}: {json}");
        assert!(json.contains("rebuild"), "{what}: names the remedy: {json}");
        assert!(
            json.contains("\"pages\":0"),
            "{what}: nothing scanned: {json}"
        );
        assert_eq!(json.matches("\"kind\"").count(), 1, "{what}: {json}");
    }
    // Restored, the same directory is clean again.
    std::fs::write(&sb_path, &good).unwrap();
    let out = fsck(&["--strict", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_directory_exits_two() {
    let out = fsck(&["/nonexistent/nok-db-dir"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn bad_usage_exits_two() {
    assert_eq!(fsck(&[]).status.code(), Some(2));
    assert_eq!(fsck(&["--bogus-flag", "x"]).status.code(), Some(2));
}
