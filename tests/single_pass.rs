//! Verification of **Proposition 1** (paper §5): one physical NoK matching
//! run reads every structural page at most once, and the header-directory
//! optimization keeps `FOLLOWING-SIBLING` from touching pages it can skip.
//!
//! The buffer pool's physical-read counter is the measured quantity: with a
//! cold cache and a pool large enough to avoid re-reads, `physical_reads ≤
//! structural pages` must hold for a full single-start match.

use std::path::PathBuf;
use std::sync::Arc;

use nok_core::cursor;
use nok_core::nok::{NokMatcher, TreeAccess};
use nok_core::pattern_tree::PatternTree;
use nok_core::physical::PhysAccess;
use nok_core::store::{BuildOptions, StructStore};
use nok_core::{
    QueryOptions, QueryScratch, SeedChoice, StartStrategy, StrategyUsed, TagDict, XmlDb,
};
use nok_datagen::{generate, DatasetKind};
use nok_pager::{BufferPool, FileStorage, MemStorage, Storage};
use nok_xml::Reader;

/// Build just the structural store with a small page size so documents span
/// many pages.
fn small_page_store(xml: &str, page_size: usize) -> (StructStore<MemStorage>, TagDict) {
    let pool = Arc::new(BufferPool::with_capacity(
        MemStorage::with_page_size(page_size),
        1 << 20, // effectively unbounded: every page read at most once
    ));
    let mut dict = TagDict::new();
    let store = StructStore::build(
        pool,
        Reader::content_only(xml),
        &mut dict,
        BuildOptions::default(),
        &mut (),
    )
    .expect("build");
    (store, dict)
}

#[test]
fn proposition1_single_start_reads_each_page_once() {
    let ds = generate(DatasetKind::Catalog, 0.01);
    // Build the full database (for the matcher machinery) with small pages.
    let db = XmlDb::build_in_memory_with(&ds.xml, BuildOptions::default(), 256).expect("build");
    let pages = db.store().page_count() as u64;
    assert!(pages > 50, "document must span many pages ({pages})");

    // One NoK matching run from the root over the whole document: the
    // pattern visits every record ([title] exists on each item).
    let tree = PatternTree::parse("/catalog/item[title][publisher]").expect("pattern");
    let part = tree.partition();
    let matcher = NokMatcher::new(&part, 0);
    let access = PhysAccess::new(db.store(), db.dict(), db.bt_id(), db.data_cell());
    db.store().pool().clear_cache().expect("clear");
    db.store().pool().stats().reset();
    let mut hook = nok_core::nok::accept_all();
    let out = matcher
        .match_at(&access, &access.doc_node(), &mut hook)
        .expect("match");
    assert!(out.is_some(), "pattern matches the document");

    let reads = db.store().pool().stats().physical_reads();
    assert!(
        reads <= pages,
        "Proposition 1 violated: {reads} physical reads > {pages} pages"
    );
    // And it genuinely touched the document, not a cached copy.
    assert!(reads > 0, "the run must perform real page reads");
}

/// A fresh on-disk store of `kind` at scale 0.01 in a directory named
/// after `test`, reopened behind the serving layer's 256-frame structure
/// pool. Removes the directory when dropped.
struct DiskDb {
    db: XmlDb<FileStorage>,
    dir: PathBuf,
}

impl DiskDb {
    fn open(kind: DatasetKind, test: &str) -> DiskDb {
        let dir = std::env::temp_dir().join(format!(
            "nok-single-pass-{test}-{}-{}",
            kind.name(),
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let db = XmlDb::create_on_disk(&dir, &generate(kind, 0.01).xml).expect("create");
        db.flush().expect("flush");
        drop(db);
        let db = XmlDb::open_dir_with_capacity(&dir, 256).expect("open");
        DiskDb { db, dir }
    }
}

impl Drop for DiskDb {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

fn index_gets<S: Storage>(db: &XmlDb<S>) -> u64 {
    [db.bt_tag(), db.bt_val(), db.bt_id()]
        .iter()
        .map(|bt| bt.pool().stats().logical_gets())
        .sum()
}

#[test]
fn scan_route_reads_each_page_once_and_no_index_page() {
    // The executor's scan route *is* the single pass: one page held at a
    // time, in chain order, with no index probe per node.
    let ds = generate(DatasetKind::Catalog, 0.01);
    let db = XmlDb::build_in_memory_with(&ds.xml, BuildOptions::default(), 256).expect("build");
    let pages = db.store().page_count() as u64;
    for query in ["/catalog/item[title][publisher]", "//item/title"] {
        let planned = db
            .plan_query(
                query,
                QueryOptions {
                    strategy: StartStrategy::Scan,
                },
            )
            .expect("plan");
        db.store().pool().clear_cache().expect("clear");
        db.store().pool().stats().reset();
        let index_before = index_gets(&db);
        let mut out = Vec::new();
        db.execute_plan(&planned, &mut QueryScratch::new(), &mut out)
            .expect("execute");
        assert!(out.len() > 100, "{query} matches every record");
        let io = db.store().pool().stats();
        assert_eq!(io.physical_reads(), pages, "{query}: every page, once");
        assert_eq!(io.logical_gets(), pages, "{query}: no page fetched twice");
        assert_eq!(
            index_gets(&db),
            index_before,
            "{query}: no index page touched"
        );
    }

    // The planner's own choice for result-heavy queries, on disk behind
    // the serving pools, from cold structure caches: the scan route, no
    // index page, and no structural page fetched twice.
    for (kind, queries) in [
        (
            DatasetKind::Dblp,
            &["/dblp/article/author", "//article[author][title]"][..],
        ),
        (DatasetKind::Treebank, &["/treebank/s[np][vp]"]),
    ] {
        let DiskDb { db, .. } = &DiskDb::open(kind, "scan");
        let pages = u64::from(db.store().page_count());
        for query in queries {
            let planned = db.plan_query(query, QueryOptions::default()).expect("plan");
            db.store().pool().clear_cache().expect("clear");
            let io = db.store().pool().stats();
            let (gets, reads, index) = (io.logical_gets(), io.physical_reads(), index_gets(db));
            let mut scratch = QueryScratch::new();
            let mut out = Vec::new();
            db.execute_plan(&planned, &mut scratch, &mut out)
                .expect("execute");
            assert!(!out.is_empty(), "{query}");
            assert!(
                scratch.stats().strategies.contains(&StrategyUsed::Scan),
                "{query}: {:?}",
                scratch.stats().strategies
            );
            assert_eq!(index_gets(db) - index, 0, "{query}: index-pool gets");
            let gets = io.logical_gets() - gets;
            let reads = io.physical_reads() - reads;
            assert!(gets <= pages, "{query}: {gets} gets of {pages} pages");
            assert!(reads <= pages, "{query}: {reads} reads of {pages} pages");
        }
    }
}

/// Proposition 1 on the index route: forced tag seeds feed each start's
/// subtree to the matcher in place, so no structural page is fetched
/// twice and nothing is navigated outside those sub-scans — every entry
/// and directory record the pool counts (cursor primitives such as
/// `subtree_close` count there too) is one the executor fed its matcher.
#[test]
fn index_route_reads_each_page_once_and_only_its_sub_scans() {
    let DiskDb { db, .. } = &DiskDb::open(DatasetKind::Dblp, "index");
    let query = "//article[author][title]";
    let opts = QueryOptions {
        strategy: StartStrategy::TagIndex,
    };
    let planned = db.plan_query(query, opts).expect("plan");
    assert!(planned
        .plan
        .fragments
        .iter()
        .any(|f| matches!(f.seed, SeedChoice::TagIndex { .. })));
    db.store().pool().clear_cache().expect("clear");
    let io = db.store().pool().stats();
    let (gets, entries, dir) = (
        io.logical_gets(),
        io.entries_examined(),
        io.dir_entries_examined(),
    );
    let mut scratch = QueryScratch::new();
    let mut out = Vec::new();
    db.execute_plan(&planned, &mut scratch, &mut out)
        .expect("execute");
    assert!(!out.is_empty());
    let pages = u64::from(db.store().page_count());
    let gets = io.logical_gets() - gets;
    assert!(gets <= pages, "{gets} gets of {pages} pages");
    let stats = scratch.stats();
    assert_eq!(io.entries_examined() - entries, stats.entries_examined);
    assert_eq!(io.dir_entries_examined() - dir, stats.dir_entries_examined);
}

#[test]
fn header_directory_skips_pages_for_sibling_jumps() {
    // A first child with a huge subtree followed by one sibling: finding
    // the sibling must not read the subtree's pages.
    let mut xml = String::from("<r><bulk>");
    for i in 0..5000 {
        xml.push_str(&format!("<x><y>{i}</y></x>"));
    }
    xml.push_str("</bulk><target/></r>");
    let (store, dict) = small_page_store(&xml, 128);
    assert!(store.page_count() > 100);

    let root = store.root().unwrap();
    let bulk = cursor::first_child(&store, root).unwrap().unwrap();
    store.pool().clear_cache().unwrap();
    store.pool().stats().reset();
    let target = cursor::following_sibling(&store, bulk).unwrap().unwrap();
    assert_eq!(
        store.tag_at(target).unwrap(),
        dict.lookup("target").unwrap()
    );
    let reads = store.pool().stats().physical_reads();
    assert!(
        reads <= 3,
        "sibling search should skip the bulk subtree via headers, read {reads} of {}",
        store.page_count()
    );
}

#[test]
fn full_scan_touches_each_page_once() {
    // The naive starting-point strategy (document scan) is also single-pass.
    let ds = generate(DatasetKind::Author, 0.01);
    let db = XmlDb::build_in_memory_with(&ds.xml, BuildOptions::default(), 512).expect("build");
    let pages = db.store().page_count() as u64;
    db.store().pool().clear_cache().unwrap();
    db.store().pool().stats().reset();
    let mut count = 0u64;
    for item in nok_core::cursor::DocScan::new(db.store()) {
        item.expect("scan");
        count += 1;
    }
    assert_eq!(count, db.node_count());
    let reads = db.store().pool().stats().physical_reads();
    assert!(reads <= pages, "{reads} reads for {pages} pages");
}
