//! The analyzer must report *zero* violations on every store the system
//! itself produces: fresh builds (all five paper datasets, tiny pages,
//! attribute-heavy documents), stores after randomized update workloads,
//! and on-disk databases reopened from files.

use nok_core::{BuildOptions, Dewey, XmlDb};
use nok_datagen::{generate, DatasetKind};
use nok_pager::MemStorage;
use nok_verify::{verify_chain, verify_db, verify_store, VerifyOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BIB: &str = r#"<bib>
  <book year="1994"><title>TCP/IP Illustrated</title>
    <author><last>Stevens</last><first>W.</first></author><price>65.95</price></book>
  <book year="2000"><title>Data on the Web</title>
    <author><last>Abiteboul</last><first>S.</first></author>
    <author><last>Buneman</last><first>P.</first></author><price>39.95</price></book>
  <article><title>Succinct</title><year>2004</year></article>
</bib>"#;

/// Every layer of the analyzer, strict mode, must come back clean.
fn assert_clean_strict(db: &XmlDb<MemStorage>, what: &str) {
    let chain = verify_chain(db.store().pool());
    assert!(chain.is_clean(), "{what}: chain: {chain}");
    let store = verify_store(db.store());
    assert!(store.is_clean(), "{what}: store: {store}");
    let full = verify_db(db, VerifyOptions::strict());
    assert!(full.is_clean(), "{what}: db: {full}");
    assert!(full.nodes > 0, "{what}: analyzer saw no nodes");
}

#[test]
fn fresh_build_is_clean() {
    let db = XmlDb::build_in_memory(BIB).unwrap();
    assert_clean_strict(&db, "bib");
}

#[test]
fn all_paper_datasets_are_clean() {
    for kind in DatasetKind::ALL {
        let ds = generate(kind, 0.01);
        let db = XmlDb::build_in_memory(&ds.xml).unwrap();
        assert_clean_strict(&db, kind.name());
    }
}

#[test]
fn tiny_pages_are_clean() {
    // Small structural pages exercise the page-split and st/lo/hi logic
    // hardest: every few entries starts a new page.
    for page_size in [64usize, 96, 128, 256] {
        let db = XmlDb::build_in_memory_with(BIB, BuildOptions::default(), page_size).unwrap();
        assert_clean_strict(&db, &format!("bib@{page_size}"));
    }
}

#[test]
fn randomized_update_workload_stays_clean() {
    let xml = {
        let mut s = String::from("<log>");
        for i in 0..24 {
            s.push_str(&format!("<rec id=\"r{i}\"><msg>event {i}</msg></rec>"));
        }
        s.push_str("</log>");
        s
    };
    let mut db = XmlDb::build_in_memory(&xml).unwrap();
    let mut rng = StdRng::seed_from_u64(0xF5C);
    let mut n_children = 24u32;
    let mut inserts = 0u32;
    for step in 0..40 {
        if rng.gen_bool(0.4) && n_children > 4 {
            // insert_last_child assigns index = current child count, so a
            // deleted middle child's id would be reused on the next insert
            // (a Dewey collision). Deleting only the *last* child keeps the
            // child range contiguous and the ids consistent.
            n_children -= 1;
            db.delete_subtree(&Dewey::from_components(vec![0, n_children]))
                .unwrap();
        } else {
            let tag = if rng.gen_bool(0.5) { "note" } else { "extra" };
            let new = db
                .insert_last_child(
                    &Dewey::root(),
                    &format!("<{tag}><sub>step {step}</sub></{tag}>"),
                )
                .unwrap();
            assert_eq!(*new.components().last().unwrap(), n_children);
            n_children += 1;
            inserts += 1;
        }
        // Lenient mode after updates: data-file deletion is lazy (orphan
        // records are expected) and tag re-append breaks group order.
        let rep = verify_db(&db, VerifyOptions::default());
        assert!(rep.is_clean(), "step {step}: {rep}");
    }
    assert!(inserts > 5);
}

/// Multi-page chains of every paper dataset satisfy every invariant,
/// including the encoding's own (canonical form, tag-code bounds), at two
/// small page sizes.
#[test]
fn succinct_builds_are_clean() {
    for kind in DatasetKind::ALL {
        let ds = generate(kind, 0.01);
        for page_size in [256usize, 1024] {
            let db =
                XmlDb::build_in_memory_with(&ds.xml, BuildOptions::default(), page_size).unwrap();
            assert_clean_strict(&db, &format!("{}@{page_size}", kind.name()));
        }
    }
}

/// Updates at small pages must keep the store verifiably clean: splices
/// re-encode and split pages, and the analyzer re-parses them canonically.
#[test]
fn succinct_update_workload_stays_clean() {
    let mut xml = String::from("<log>");
    for i in 0..24 {
        xml.push_str(&format!("<rec id=\"r{i}\"><msg>event {i}</msg></rec>"));
    }
    xml.push_str("</log>");
    let mut db = XmlDb::build_in_memory_with(&xml, BuildOptions::default(), 128).unwrap();
    let mut rng = StdRng::seed_from_u64(0x5CC);
    let mut n_children = 24u32;
    for step in 0..30 {
        if rng.gen_bool(0.4) && n_children > 4 {
            n_children -= 1;
            db.delete_subtree(&Dewey::from_components(vec![0, n_children]))
                .unwrap();
        } else {
            db.insert_last_child(
                &Dewey::root(),
                &format!("<note><sub>step {step}</sub></note>"),
            )
            .unwrap();
            n_children += 1;
        }
        let rep = verify_db(&db, VerifyOptions::default());
        assert!(rep.is_clean(), "step {step}: {rep}");
    }
}

#[test]
fn on_disk_store_is_clean_after_reopen() {
    let dir = std::env::temp_dir().join(format!("nok-verify-clean-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let db = nok_core::XmlDb::create_on_disk(&dir, BIB).unwrap();
        db.flush().unwrap();
        let rep = verify_db(&db, VerifyOptions::strict());
        assert!(rep.is_clean(), "before close: {rep}");
    }
    let db = nok_core::XmlDb::open_dir(&dir).unwrap();
    let rep = verify_db(&db, VerifyOptions::strict());
    assert!(rep.is_clean(), "after reopen: {rep}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn report_json_shape() {
    let db = XmlDb::build_in_memory(BIB).unwrap();
    let rep = verify_db(&db, VerifyOptions::strict());
    let json = rep.to_json();
    assert!(json.starts_with("{\"clean\":true,"), "{json}");
    assert!(json.contains("\"violations\":[]"), "{json}");
}
