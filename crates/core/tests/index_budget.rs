//! Exact size budget of the three B+tree index files and the structure
//! pages. The bytes a store spends per node on each file are a count, not a
//! timing: they repeat to the byte for a given corpus, so a change that
//! widens an entry fails here instead of drifting into the benchmark's
//! `disk_bytes_per_node`.
//!
//! Each index ceiling is the measured size plus 2 %. `struct.pg` grows a
//! 4 KiB page at a time, so its ceiling is the measured size itself: one
//! page more is over. Lower a ceiling when an entry shrinks; raise one only
//! with the reason in the change that does.

#![cfg(test)]

use nok_core::XmlDb;
use nok_datagen::{generate, DatasetKind};

/// `(file, ceiling in bytes per node)` for one corpus at scale 0.01.
type Budget = [(&'static str, f64); 4];

/// Measured 16.948 / 18.477 / 18.732 B/node (32,144 nodes); `struct.pg`
/// 53,264 B = 1.6570 B/node, the same bytes as LEB128 tag codes wrote
/// (every dblp code is below 128).
const DBLP: Budget = [
    ("tags.idx", 17.29),
    ("dewey.idx", 18.85),
    ("values.idx", 19.11),
    ("struct.pg", 1.6571),
];
/// Measured 21.999 / 22.274 / 11.825 B/node (14,896 nodes); `struct.pg`
/// 24,592 B = 1.6509 B/node, against 32,784 B (2.2009) with LEB128 tag
/// codes.
const TREEBANK: Budget = [
    ("tags.idx", 22.44),
    ("dewey.idx", 22.72),
    ("values.idx", 12.06),
    ("struct.pg", 1.6510),
];

fn check(kind: DatasetKind, budget: Budget) {
    let dir = std::env::temp_dir().join(format!(
        "nok-index-budget-{}-{}",
        kind.name(),
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let db = XmlDb::create_on_disk(&dir, &generate(kind, 0.01).xml).unwrap();
    db.flush().unwrap();
    let nodes = db.node_count() as f64;
    let mut over = Vec::new();
    for (file, ceiling) in budget {
        let bytes = std::fs::metadata(dir.join(file)).unwrap().len();
        let per_node = bytes as f64 / nodes;
        eprintln!(
            "{} {file}: {bytes} B, {per_node:.3} B/node (ceiling {ceiling})",
            kind.name()
        );
        if per_node > ceiling {
            over.push(format!("{file} {per_node:.3} > {ceiling}"));
        }
    }
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
    assert!(over.is_empty(), "{}: over budget: {over:?}", kind.name());
}

#[test]
fn dblp_index_bytes_per_node_within_budget() {
    check(DatasetKind::Dblp, DBLP);
}

#[test]
fn treebank_index_bytes_per_node_within_budget() {
    check(DatasetKind::Treebank, TREEBANK);
}
