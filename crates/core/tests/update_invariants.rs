//! Format-analyzer post-conditions for the update path: after every
//! insert/delete sequence the store must still satisfy all invariants the
//! analyzer checks (lenient mode — data-file deletion is lazy by design,
//! and re-appended tag postings may leave document order within a group).

use nok_core::{BuildOptions, Dewey, XmlDb};
use nok_verify::{verify_db, VerifyOptions};

const BIB: &str = r#"<bib>
  <book year="1994"><title>TCP/IP Illustrated</title>
    <author><last>Stevens</last><first>W.</first></author><price>65.95</price></book>
  <book year="2000"><title>Data on the Web</title>
    <author><last>Abiteboul</last><first>S.</first></author><price>39.95</price></book>
</bib>"#;

fn assert_invariants<S: nok_pager::Storage>(db: &XmlDb<S>, what: &str) {
    let report = verify_db(db, VerifyOptions::default());
    assert!(report.is_clean(), "{what}: {report}");
}

#[test]
fn inserts_preserve_invariants() {
    let mut db = XmlDb::build_in_memory(BIB).unwrap();
    assert_invariants(&db, "fresh");
    db.insert_last_child(&Dewey::root(), "<journal><issn>1234</issn></journal>")
        .unwrap();
    assert_invariants(&db, "after root insert");
    let author = db.query("//author").unwrap()[0].dewey.clone();
    db.insert_last_child(&author, "<middle>R.</middle>")
        .unwrap();
    assert_invariants(&db, "after nested insert");
}

#[test]
fn deletes_preserve_invariants() {
    let mut db = XmlDb::build_in_memory(BIB).unwrap();
    let price = db.query("//price").unwrap()[1].dewey.clone();
    db.delete_subtree(&price).unwrap();
    assert_invariants(&db, "after leaf-ish delete");
    let book = db.query("/bib/book").unwrap()[1].dewey.clone();
    db.delete_subtree(&book).unwrap();
    assert_invariants(&db, "after subtree delete");
}

#[test]
fn page_splitting_inserts_preserve_invariants() {
    // Tiny structural pages force the inserted subtree to split the chain.
    let mut db =
        XmlDb::build_in_memory_with("<r><a/><b/><c/></r>", BuildOptions::default(), 64).unwrap();
    for i in 0..6 {
        db.insert_last_child(
            &Dewey::root(),
            &format!("<grp><x>v{i}</x><y>w{i}</y></grp>"),
        )
        .unwrap();
        assert_invariants(&db, &format!("after split insert {i}"));
    }
}

/// The storm script (insert, insert, delete the second) appends to the end
/// of B+i and to the end of each tag's and each common value's run inside
/// B+t and B+v. Leaves that split where those appends land keep the cost of
/// a stored node what the bulk build made it, however long the storm runs.
#[test]
fn a_long_storm_adds_nodes_at_the_built_stores_bytes_per_node() {
    let xml = nok_datagen::generate(nok_datagen::DatasetKind::Dblp, 0.01).xml;
    let mut db = XmlDb::build_in_memory(&xml).unwrap();
    let size = |db: &XmlDb<nok_pager::MemStorage>| {
        let bytes = db.store().footprint_bytes()
            + db.bt_tag().footprint_bytes()
            + db.bt_val().footprint_bytes()
            + db.bt_id().footprint_bytes()
            + db.data_file().len_bytes();
        (bytes as f64, db.node_count() as f64)
    };
    let record = |key: String| {
        format!(
            "<article><author>Bench Writer</author><title>storm record {key}</title>\
             <year>2004</year><pages>1-2</pages><ee>db/j/{key}.html</ee></article>"
        )
    };
    let (bytes0, nodes0) = size(&db);
    for cycle in 0..3_000 {
        db.insert_last_child(&Dewey::root(), &record(format!("a{cycle}")))
            .unwrap();
        let b = db
            .insert_last_child(&Dewey::root(), &record(format!("b{cycle}")))
            .unwrap();
        db.delete_subtree(&b).unwrap();
    }
    let (bytes1, nodes1) = size(&db);
    assert_eq!(nodes1 - nodes0, 6.0 * 3_000.0);
    let (built, added) = (bytes0 / nodes0, (bytes1 - bytes0) / (nodes1 - nodes0));
    assert!(
        added <= built * 1.1,
        "{added:.1} B per added node against {built:.1} B per built node"
    );
    assert_invariants(&db, "after the storm");
}
