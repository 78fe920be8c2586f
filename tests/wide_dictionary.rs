//! A document with 300 distinct element names: its tag codes run past 255,
//! so a page stores its codes two bytes wide where one of them needs it and
//! one byte wide elsewhere. At 256-byte, 1 KiB and 4 KiB pages, the cursor
//! primitives must give what the DOM says and every query what the oracle
//! says — after the build, after an insert brings a code past 255 into a
//! one-byte page, and after a delete takes the last such code out of a
//! two-byte page again — with every page canonical and the strict
//! integrity check clean.

use nok_core::cursor::{descendants, first_child, following_sibling, next_entry, subtree_close};
use nok_core::naive::NaiveEvaluator;
use nok_core::page::check_page;
use nok_core::{BuildOptions, CoreResult, Dewey, NodeAddr, XmlDb};
use nok_pager::MemStorage;
use nok_verify::{verify_db, VerifyOptions};
use nok_xml::{Document, NodeId};

type Db = XmlDb<MemStorage>;

/// Records under `<a>` use names `t0..t199`, under `<b>` names
/// `t200..t299` (codes past 255), under `<c>` names `t0..t49` again, so
/// the chain ends in one-byte pages.
fn section(tag: &str, names: std::ops::Range<usize>, records: usize) -> String {
    let mut xml = format!("<{tag}>");
    let width = names.len();
    for i in 0..records {
        let outer = names.start + (i * 7) % width;
        let inner = names.start + (i * 13 + 1) % width;
        xml.push_str(&format!(
            "<t{outer} k=\"{i}\"><t{inner}>v{}</t{inner}></t{outer}>",
            i % 17
        ));
    }
    xml.push_str(&format!("</{tag}>"));
    xml
}

fn document(c_extra: &str) -> String {
    format!(
        "<doc>{}{}{}</doc>",
        section("a", 0..200, 1200),
        section("b", 200..300, 300),
        section("c", 0..50, 1200).replace("</c>", &format!("{c_extra}</c>")),
    )
}

const QUERIES: &[&str] = &[
    "/doc/a/t7",
    "//t7/t14",
    "//t254",
    "//t255",
    "//t290",
    "/doc/b/t260[t210]",
    "//b/t299",
    "/doc/c/t3",
    "//c/t280",
    "//c[t280]",
    "//t280/t281",
    "//t12[t30]",
];

/// Every query's answer against the naive evaluator over the DOM.
fn answers_match(db: &Db, xml: &str, at: &str) {
    let doc = Document::parse(xml).unwrap();
    let oracle = NaiveEvaluator::new(&doc);
    for q in QUERIES {
        let got: Vec<String> = db
            .query(q)
            .unwrap()
            .iter()
            .map(|m| m.dewey.to_string())
            .collect();
        let want: Vec<String> = oracle
            .eval_str(q)
            .unwrap()
            .iter()
            .map(|n| oracle.dewey(n).to_string())
            .collect();
        assert_eq!(got, want, "{at}: {q}");
    }
}

/// One node of the store's view of the DOM (attributes are leading
/// children `@name`): its tag, level, and the positions of its open and
/// close in the entry stream.
struct Node {
    tag: String,
    level: u16,
    open: usize,
    close: usize,
    first_child: Option<usize>,
    next_sibling: Option<usize>,
}

fn add(doc: &Document, id: NodeId, level: u16, nodes: &mut Vec<Node>, pos: &mut usize) -> usize {
    let me = nodes.len();
    nodes.push(Node {
        tag: doc.tag(id).unwrap().to_string(),
        level,
        open: *pos,
        close: 0,
        first_child: None,
        next_sibling: None,
    });
    *pos += 1;
    let mut kids = Vec::new();
    for a in doc.attrs(id) {
        kids.push(nodes.len());
        nodes.push(Node {
            tag: format!("@{}", a.name),
            level: level + 1,
            open: *pos,
            close: *pos + 1,
            first_child: None,
            next_sibling: None,
        });
        *pos += 2;
    }
    for c in doc.child_elements(id) {
        kids.push(add(doc, c, level + 1, nodes, pos));
    }
    nodes[me].close = *pos;
    *pos += 1;
    nodes[me].first_child = kids.first().copied();
    for w in kids.windows(2) {
        nodes[w[0]].next_sibling = Some(w[1]);
    }
    me
}

/// Every primitive on every node against the DOM.
fn primitives_match(db: &Db, xml: &str, at: &str) {
    let store = db.store();
    let doc = Document::parse(xml).unwrap();
    let mut nodes = Vec::new();
    let mut entries = 0;
    add(&doc, NodeId::ROOT, 1, &mut nodes, &mut entries);
    let mut addr_at = Vec::with_capacity(entries);
    for r in 0..store.chain_len() {
        let de = store.dir_at(r).unwrap();
        addr_at.extend((0..de.entries).map(|entry| NodeAddr { page: de.id, entry }));
    }
    assert_eq!(addr_at.len(), entries, "{at}: entry count");
    let code = |n: &Node| db.dict().lookup(&n.tag).unwrap();
    for (k, n) in nodes.iter().enumerate() {
        let addr = addr_at[n.open];
        let at = format!("{at}: node {k} ({}) at {addr}", n.tag);
        assert_eq!(store.tag_at(addr).unwrap(), code(n), "{at}: tag");
        assert_eq!(store.entry_at(addr).unwrap().1, n.level, "{at}: level");
        let child = n.first_child.map(|c| addr_at[nodes[c].open]);
        assert_eq!(first_child(store, addr).unwrap(), child, "{at}: child");
        let sibling = n.next_sibling.map(|s| addr_at[nodes[s].open]);
        assert_eq!(
            following_sibling(store, addr).unwrap(),
            sibling,
            "{at}: sibling"
        );
        assert_eq!(
            subtree_close(store, addr).unwrap(),
            addr_at[n.close],
            "{at}: close"
        );
        assert_eq!(
            next_entry(store, addr).unwrap(),
            addr_at.get(n.open + 1).copied(),
            "{at}: next"
        );
        let inside: Vec<_> = nodes[k + 1..]
            .iter()
            .take_while(|d| d.open < n.close)
            .map(|d| (addr_at[d.open], code(d), d.level))
            .collect();
        let got = descendants(store, addr)
            .unwrap()
            .collect::<CoreResult<Vec<_>>>()
            .unwrap();
        assert_eq!(got, inside, "{at}: descendants");
    }
}

/// Every page canonical, the strict integrity check clean.
fn store_is_clean(db: &Db, at: &str) {
    let pool = db.store().pool();
    for r in 0..db.store().chain_len() {
        let id = db.store().dir_at(r).unwrap().id;
        let canonical = check_page(&pool.get(id).unwrap().read()).is_some();
        assert!(canonical, "{at}: page {id} is not canonical");
    }
    let report = verify_db(db, VerifyOptions::strict());
    assert!(report.is_clean(), "{at}: {report}");
}

/// Bytes per tag code on the page holding `addr`.
fn width_at(db: &Db, addr: NodeAddr) -> usize {
    db.store().with_page(addr.page, |p| p.tag_width()).unwrap()
}

fn check_all(db: &Db, xml: &str, at: &str) {
    answers_match(db, xml, at);
    primitives_match(db, xml, at);
    store_is_clean(db, at);
}

#[test]
fn wide_dictionary_pages_navigate_query_and_update() {
    let xml = document("");
    for page_size in [256, 1024, 4096] {
        let at = format!("{page_size} B pages");
        let mut db = XmlDb::build_in_memory_with(&xml, BuildOptions::default(), page_size).unwrap();
        assert!(db.dict().len() > 300, "{at}: {} names", db.dict().len());
        let widths: Vec<usize> = (0..db.store().chain_len())
            .map(|r| db.store().dir_at(r).unwrap())
            .filter(|de| de.entries > 0)
            .map(|de| db.store().with_page(de.id, |p| p.tag_width()).unwrap())
            .collect();
        assert!(
            widths.contains(&1) && widths.contains(&2),
            "{at}: widths {widths:?}"
        );
        check_all(&db, &xml, &format!("{at}, built"));

        // `<c>` ends the chain in one-byte pages; its close is where the
        // insert splices.
        let c = Dewey::from_components(vec![0, 2]);
        let c_close = subtree_close(db.store(), db.resolve(&c).unwrap()).unwrap();
        assert_eq!(
            width_at(&db, c_close),
            1,
            "{at}: <c> ends in a one-byte page"
        );
        let fragment = "<t280><t281>w</t281></t280>";
        let added = db.insert_last_child(&c, fragment).unwrap();
        let added_at = db.resolve(&added).unwrap();
        assert_eq!(
            width_at(&db, added_at),
            2,
            "{at}: the insert widens its page"
        );
        let grown = document(fragment);
        check_all(&db, &grown, &format!("{at}, after the insert"));

        // The inserted subtree holds the page's only codes past 255.
        let page = added_at.page;
        db.delete_subtree(&added).unwrap();
        let store = db.store();
        let left = store.rank(page).ok().and_then(|r| store.dir_at(r));
        if left.is_some_and(|de| de.entries > 0) {
            let width = db.store().with_page(page, |p| p.tag_width()).unwrap();
            assert_eq!(width, 1, "{at}: the delete narrows its page");
        }
        check_all(&db, &xml, &format!("{at}, after the delete"));
    }
}
