//! Update torture tests: long random sequences of inserts and deletes on a
//! real dataset must leave the store exactly equivalent to a database built
//! fresh from the resulting document — structure, indexes, and values.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use nok_core::naive::NaiveEvaluator;
use nok_core::{Dewey, XmlDb};
use nok_datagen::{generate, DatasetKind};
use nok_xml::Document;

/// Compare the updated database against a fresh oracle built from the
/// expected document.
fn assert_matches_oracle(db: &XmlDb<nok_pager::MemStorage>, expected_xml: &str, queries: &[&str]) {
    let doc = Document::parse(expected_xml).expect("parse expected");
    let oracle = NaiveEvaluator::new(&doc);
    for q in queries {
        let got: Vec<String> = db
            .query(q)
            .expect("query")
            .iter()
            .map(|m| m.dewey.to_string())
            .collect();
        let want: Vec<String> = oracle
            .eval_str(q)
            .expect("oracle")
            .iter()
            .map(|n| oracle.dewey(n).to_string())
            .collect();
        assert_eq!(got, want, "divergence on {q}");
    }
}

#[test]
fn random_insert_delete_churn_stays_consistent() {
    let mut rng = StdRng::seed_from_u64(99);
    // A simple mirror document we mutate in lockstep with the database.
    let mut items: Vec<(String, String)> = (0..30)
        .map(|i| (format!("n{i}"), format!("v{i}")))
        .collect();
    let render = |items: &[(String, String)]| {
        let mut s = String::from("<list>");
        for (n, v) in items {
            s.push_str(&format!("<item><name>{n}</name><val>{v}</val></item>"));
        }
        s.push_str("</list>");
        s
    };
    let mut db = XmlDb::build_in_memory(&render(&items)).expect("build");

    for round in 0..60 {
        if items.is_empty() || rng.gen_bool(0.6) {
            // Insert at the end (the supported insert position).
            let n = format!("new{round}");
            let v = format!("val{round}");
            db.insert_last_child(
                &Dewey::root(),
                &format!("<item><name>{n}</name><val>{v}</val></item>"),
            )
            .expect("insert");
            items.push((n, v));
        } else {
            // Delete a random item; siblings re-label.
            let idx = rng.gen_range(0..items.len());
            db.delete_subtree(&Dewey::from_components(vec![0, idx as u32]))
                .expect("delete");
            items.remove(idx);
        }
        if round % 10 == 9 {
            let expected = render(&items);
            assert_matches_oracle(
                &db,
                &expected,
                &[
                    "/list/item",
                    "/list/item/name",
                    "//val",
                    "/list/item[name]/val",
                ],
            );
        }
    }
    // Final deep check including value lookups.
    let expected = render(&items);
    assert_matches_oracle(&db, &expected, &["/list/item", "//name", "//val"]);
    let hits = db.query("/list/item/name").expect("query");
    let got: Vec<String> = hits
        .iter()
        .map(|m| db.value_of(m).unwrap().unwrap())
        .collect();
    let want: Vec<String> = items.iter().map(|(n, _)| n.clone()).collect();
    assert_eq!(got, want, "values drifted after churn");
}

#[test]
fn updates_on_generated_dataset() {
    let ds = generate(DatasetKind::Author, 0.01);
    let mut db = XmlDb::build_in_memory(&ds.xml).expect("build");
    let before = db.query("/authors/author").expect("query").len();

    // Add five authors carrying a brand-new tag and a needle value.
    for i in 0..5 {
        db.insert_last_child(
            &Dewey::root(),
            &format!(
                "<author id=\"x{i}\"><name>Added Person</name><badge>gold</badge>\
                 <keyword>needle-high</keyword><note>needle-high</note></author>"
            ),
        )
        .expect("insert");
    }
    assert_eq!(
        db.query("/authors/author").expect("query").len(),
        before + 5
    );
    // New tag is queryable (dictionary grew).
    assert_eq!(db.query("//badge").expect("query").len(), 5);
    // Value index picked up the new needles: 3 original + 5 new.
    assert_eq!(
        db.query(r#"/authors/author[keyword="needle-high"]"#)
            .expect("query")
            .len(),
        8
    );

    // Delete the first two originals: every index must follow the shift.
    db.delete_subtree(&Dewey::from_components(vec![0, 0]))
        .expect("delete");
    db.delete_subtree(&Dewey::from_components(vec![0, 0]))
        .expect("delete");
    assert_eq!(
        db.query("/authors/author").expect("query").len(),
        before + 3
    );
    // Dewey of the first author is 0.0 again.
    let first = &db.query("/authors/author").expect("query")[0];
    assert_eq!(first.dewey, Dewey::from_components(vec![0, 0]));
}

#[test]
fn page_splits_during_update_keep_proposition1() {
    // Small pages force splits; after heavy inserts, a full match must
    // still read each page at most once.
    let mut db = nok_core::XmlDb::build_in_memory_with(
        "<r><seed/></r>",
        nok_core::BuildOptions::default(),
        64,
    )
    .expect("build");
    for i in 0..200 {
        db.insert_last_child(&Dewey::root(), &format!("<rec><f>{i}</f></rec>"))
            .expect("insert");
    }
    let pages = db.store().page_count() as u64;
    assert!(pages > 5, "splits must have produced pages ({pages})");
    db.store().pool().clear_cache().expect("clear");
    db.store().pool().stats().reset();
    let hits = db.query("/r/rec[f]").expect("query");
    assert_eq!(hits.len(), 200);
    let reads = db.store().pool().stats().physical_reads();
    assert!(
        reads <= pages,
        "{reads} physical reads exceed {pages} pages after splits"
    );
}
