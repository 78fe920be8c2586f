//! Verification of **Proposition 1** (paper §5): one physical NoK matching
//! run reads every structural page at most once, and the header-directory
//! optimization keeps `FOLLOWING-SIBLING` from touching pages it can skip.
//!
//! The buffer pool's physical-read counter is the measured quantity: with a
//! cold cache and a pool large enough to avoid re-reads, `physical_reads ≤
//! structural pages` must hold for a full single-start match. A whole query
//! is one walk, however many NoK fragments it has, so its logical gets
//! obey the same bound — plus one walk per `following::` edge.

use std::path::PathBuf;
use std::sync::Arc;

use nok_core::cursor;
use nok_core::nok::{NokMatcher, TreeAccess};
use nok_core::pattern_tree::{CutKind, PatternTree};
use nok_core::physical::PhysAccess;
use nok_core::store::{BuildOptions, StructStore};
use nok_core::{
    CoreResult, MatchSink, QueryMatch, QueryOptions, QueryScratch, SeedChoice, StartStrategy,
    StrategyUsed, TagDict, XmlDb,
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
    let matcher = NokMatcher::new(&tree, &part, 0);
    let access = PhysAccess::new(db.store(), db.dict(), db.bt_id(), db.data_file());
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
        Self::of_xml(
            &generate(kind, 0.01).xml,
            &format!("{test}-{}", kind.name()),
        )
    }

    fn of_xml(xml: &str, name: &str) -> DiskDb {
        let dir =
            std::env::temp_dir().join(format!("nok-single-pass-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let db = XmlDb::create_on_disk(&dir, xml).expect("create");
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

/// The multi-fragment shapes of the plan-differential battery: a root
/// element, the record its content is repeated from (so that the document
/// spans many 4 KiB pages), and the queries.
fn multi_fragment_shapes() -> Vec<(&'static str, String, Vec<String>)> {
    let strs = |qs: &[&str]| qs.iter().map(|q| q.to_string()).collect::<Vec<_>>();
    let kids: String = (0..70).map(|i| format!("<b{i}/>")).collect();
    let preds: String = (0..70).map(|i| format!("[b{i}]")).collect();
    let mut section = String::from("<section><head><title>deep</title></head>");
    section.push_str(&"<leaf/>".repeat(40));
    vec![
        (
            "r",
            "<a><b/><x><c/></x></a><a><b/></a><c/><a><x><x><c/></x></x><b/><b/></a>\
             <a><a><b/><c/></a><b/></a>"
                .to_string(),
            strs(&[
                "//a[.//c]/b",
                "//a[.//c]",
                "/r/a[.//c]/b",
                "//a//c",
                "//a[b]//c",
                "//a/x//c",
                "//x[.//x]//c",
                "//a/b/following::c",
                "//a[b/following::a]",
                "/following::a",
                "/following::a/b",
                "/following::a//c",
                "/r/following::a",
            ]),
        ),
        (
            "t",
            "<s><np/><s><np/><s><vp/></s><np/><pp><s><np/><vp/></s></pp></s><np/><vp/></s>\
             <s><vp/></s><s><s><s><np/></s></s></s>"
                .to_string(),
            strs(&["//s//np", "//s[.//vp]/np", "/t/s//np"]),
        ),
        (
            "r",
            "<a><a><b>x</b><c/></a><b>x</b><c/></a>".to_string(),
            strs(&[r#"//a[b="x"]//c"#, "//a[b]//c", r#"/r/a[b="x"]//c"#]),
        ),
        (
            "r",
            "<a><k>v</k><b/></a><c/><a><k>v</k></a><a><k>w</k><c/></a><c/>".to_string(),
            strs(&[
                r#"//a[k="v"]/following::c"#,
                r#"/r/a[k="v"]/following::c"#,
                r#"//a[k="v"]/b/following::c"#,
                r#"//a[k="w"]/following::c"#,
                r#"//a[k="v"]/following::a/following::c"#,
            ]),
        ),
        (
            "r",
            format!("<a><k>v</k>{kids}<c/></a><a><k>w</k>{kids}<c/></a><x><a><k>v</k>{kids}<c/></a></x>"),
            vec![
                format!(r#"//a[k="v"]{preds}/c"#),
                format!(r#"/r//a[k="v"]{preds}/c"#),
                format!("//a{preds}"),
                format!(r#"//a[k="v"]{preds}/following::a"#),
                format!("//x//a{preds}//c"),
            ],
        ),
        (
            "corpus",
            format!("{section}</section>{section}<rare>needle</rare></section>"),
            strs(&[
                r#"//section[rare="needle"]//leaf"#,
                "//section[.//title]//leaf",
                r#"//rare[.="needle"]/following::leaf"#,
            ]),
        ),
    ]
}

/// Every multi-fragment plan the differential battery runs, on disk behind
/// the serving layer's 256-frame pool and on every route: a plan without
/// `following::` makes at most `page_count` structural gets — one walk for
/// all its fragments — and one with F `following::` edges at most
/// (1+F)·`page_count`.
#[test]
fn every_multi_fragment_plan_walks_each_page_once() {
    const ROUTES: [StartStrategy; 4] = [
        StartStrategy::Auto,
        StartStrategy::Scan,
        StartStrategy::TagIndex,
        StartStrategy::ValueIndex,
    ];
    for (i, (root, record, queries)) in multi_fragment_shapes().into_iter().enumerate() {
        let xml = format!("<{root}>{}</{root}>", record.repeat(160_000 / record.len()));
        let DiskDb { db, .. } = &DiskDb::of_xml(&xml, &format!("shape{i}"));
        let pages = u64::from(db.store().page_count());
        assert!(pages >= 8, "shape {i} spans {pages} pages");
        for q in &queries {
            let tree = PatternTree::parse(q).expect("pattern");
            let part = tree.partition();
            assert!(part.fragments.len() > 1, "{q} is one fragment");
            let following = (part.cut_edges.iter())
                .filter(|c| c.kind == CutKind::Following)
                .count() as u64;
            let mut answers = Vec::new();
            for strategy in ROUTES {
                let planned = db.plan_query(q, QueryOptions { strategy }).expect("plan");
                db.store().pool().clear_cache().expect("clear");
                let io = db.store().pool().stats();
                let gets = io.logical_gets();
                let mut out = Vec::new();
                db.execute_plan(&planned, &mut QueryScratch::new(), &mut out)
                    .expect("execute");
                let gets = io.logical_gets() - gets;
                assert!(
                    gets <= (1 + following) * pages,
                    "{q} via {strategy:?}: {gets} gets of {pages} pages, {following} following::"
                );
                answers.push(out);
            }
            assert!(
                answers.iter().all(|a| *a == answers[0]),
                "{q}: routes disagree"
            );
        }
    }
}

/// A sink that notes the structure pool's get count at every match.
struct GetsAtPut<'a> {
    io: &'a nok_pager::IoStats,
    gets: Vec<u64>,
}

impl MatchSink for GetsAtPut<'_> {
    fn put(&mut self, _: QueryMatch) -> CoreResult<()> {
        self.gets.push(self.io.logical_gets());
        Ok(())
    }
}

/// A multi-fragment answer streams: `//article[.//author]//title` puts its
/// first match into the sink long before its walk reaches the last page.
#[test]
fn a_multi_fragment_answer_streams_before_the_walk_ends() {
    let DiskDb { db, .. } = &DiskDb::open(DatasetKind::Dblp, "stream");
    let pages = u64::from(db.store().page_count());
    for strategy in [StartStrategy::Auto, StartStrategy::Scan] {
        let planned = db
            .plan_query("//article[.//author]//title", QueryOptions { strategy })
            .expect("plan");
        db.store().pool().clear_cache().expect("clear");
        let io = db.store().pool().stats();
        let before = io.logical_gets();
        let mut sink = GetsAtPut {
            io,
            gets: Vec::new(),
        };
        db.execute_plan_into(&planned, &mut QueryScratch::new(), &mut sink)
            .expect("execute");
        assert!(sink.gets.len() > 100, "{} matches", sink.gets.len());
        let first = sink.gets[0] - before;
        let last = io.logical_gets() - before;
        assert!(
            first < 3 && first < last,
            "first match after {first} of {last} gets ({pages} pages)"
        );
    }
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
