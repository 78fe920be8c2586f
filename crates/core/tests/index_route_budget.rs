//! Exact work budget of the index route. For the selective dblp workload
//! (Q1–Q8 in both forms) and one unique-key lookup, each query's logical
//! page gets on the B+t, B+v and B+i pools, the entries its sub-scans
//! read, and the entries of those its matcher is fed (the rest lie in
//! dead subtrees, passed over by a depth count) are counts, not timings:
//! on a warm `XmlDb::open_dir` of a given corpus they repeat exactly, so a
//! change that adds a lookup per start, widens a sub-scan or stops it
//! skipping fails here instead of drifting into the benchmark's
//! `point_read`.
//!
//! Each ceiling is the measured count. Lower a ceiling when a query gets
//! cheaper; raise one only with the reason in the change that does.

#![cfg(test)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};

use nok_core::{QueryOptions, XmlDb};
use nok_datagen::{generate, workload, DatasetKind};
use nok_pager::FileStorage;

/// The unique-key lookup `point_read` alternates with the workload.
const KEY_LOOKUP: &str = r#"//article[ee="db/j/777.html"]/title"#;

/// `(query, [B+t gets, B+v gets, B+i gets, entries examined, entries
/// fed])` at dblp scale 0.01, ceilings = measured.
const BUDGET: [(&str, [u64; 5]); 17] = [
    (r#"/dblp/article[keyword="needle-high"]"#, [0, 2, 6, 86, 12]),
    (r#"//article[keyword="needle-high"]"#, [0, 2, 6, 86, 12]),
    ("/dblp/article/rareitem/subitem", [2, 0, 0, 12, 12]),
    ("//article/rareitem/subitem", [2, 0, 0, 86, 18]),
    (
        r#"/dblp/article[keyword="needle-high"][note="needle-high"]/author"#,
        [0, 4, 6, 86, 26],
    ),
    (
        r#"//article[keyword="needle-high"][note="needle-high"]/author"#,
        [0, 4, 6, 86, 26],
    ),
    (
        "/dblp/article[rareitem][author][title][year]",
        [2, 0, 0, 86, 32],
    ),
    (
        "//article[rareitem][author][title][year]",
        [2, 0, 0, 86, 32],
    ),
    (
        r#"/dblp/article[keyword="needle-mod"]/author"#,
        [0, 2, 80, 1194, 314],
    ),
    (
        r#"//article[keyword="needle-mod"]/author"#,
        [0, 2, 80, 1194, 314],
    ),
    ("/dblp/article/uncommonitem/subitem", [2, 0, 0, 160, 160]),
    ("//article/uncommonitem/subitem", [2, 0, 0, 1194, 240]),
    (
        r#"/dblp/article[keyword="needle-mod"][note="needle-mod"]"#,
        [0, 4, 80, 1194, 240],
    ),
    (
        r#"//article[keyword="needle-mod"][note="needle-mod"]"#,
        [0, 4, 80, 1194, 240],
    ),
    (
        "/dblp/article[uncommonitem][author][title]",
        [2, 0, 0, 1194, 394],
    ),
    (
        "//article[uncommonitem][author][title]",
        [2, 0, 0, 1194, 394],
    ),
    (KEY_LOOKUP, [0, 2, 2, 28, 6]),
];

/// A fresh on-disk dblp store at scale 0.01, reopened (warm pools follow
/// from one untimed run of each query).
fn open_dblp(tag: &str) -> (XmlDb<FileStorage>, PathBuf) {
    let dir = std::env::temp_dir().join(format!("nok-index-route-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let db = XmlDb::create_on_disk(&dir, &generate(DatasetKind::Dblp, 0.01).xml).unwrap();
    db.flush().unwrap();
    drop(db);
    (XmlDb::open_dir(&dir).unwrap(), dir)
}

fn index_gets(db: &XmlDb<FileStorage>) -> [u64; 3] {
    [db.bt_tag(), db.bt_val(), db.bt_id()].map(|bt| bt.pool().stats().logical_gets())
}

#[test]
fn selective_queries_stay_within_their_index_route_budget() {
    let (db, dir) = open_dblp("budget");
    let mut queries: Vec<String> = workload(DatasetKind::Dblp)
        .into_iter()
        .filter(|(i, _)| *i <= 8)
        .filter_map(|(_, spec)| spec)
        .flat_map(|spec| [spec.path, spec.descendant_variant])
        .collect();
    queries.push(KEY_LOOKUP.to_string());
    assert_eq!(queries.len(), BUDGET.len(), "every query has a budget");
    let mut over = Vec::new();
    for q in &queries {
        let Some((_, ceiling)) = BUDGET.iter().find(|(b, _)| b == q) else {
            panic!("no budget for {q}");
        };
        db.query(q).unwrap();
        let before = index_gets(&db);
        let (hits, stats) = db.query_with(q, QueryOptions::default()).unwrap();
        let after = index_gets(&db);
        let got = [
            after[0] - before[0],
            after[1] - before[1],
            after[2] - before[2],
            stats.entries_examined,
            stats.entries_examined - stats.entries_skipped,
        ];
        eprintln!(
            "{q}: B+t {} B+v {} B+i {} entries {} fed {} ({} matches; ceiling {ceiling:?})",
            got[0],
            got[1],
            got[2],
            got[3],
            got[4],
            hits.len()
        );
        if got.iter().zip(ceiling).any(|(g, c)| g > c) {
            over.push(format!("{q}: {got:?} > {ceiling:?}"));
        }
    }
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
    assert!(over.is_empty(), "over budget: {over:?}");
}

/// `entries_examined` is the executor's own count, not a delta of the
/// pool-wide counters: another thread querying the same pool at the same
/// time leaves it unchanged, on either route.
#[test]
fn entries_examined_is_exact_under_concurrent_queries() {
    let (db, dir) = open_dblp("exact");
    let counts = |q: &str| {
        let (_, stats) = db.query_with(q, QueryOptions::default()).unwrap();
        (stats.entries_examined, stats.dir_entries_examined)
    };
    let measured = [
        r#"/dblp/article[keyword="needle-mod"]/author"#,
        "/dblp/article[author][title]",
    ];
    let alone: Vec<_> = measured.iter().map(|q| counts(q)).collect();
    assert!(alone.iter().all(|&(e, _)| e > 0));
    let stop = AtomicBool::new(false);
    let mut beside = Vec::new();
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Relaxed) {
                db.query("//article/author").unwrap();
            }
        });
        for _ in 0..20 {
            beside.extend(measured.iter().map(|q| counts(q)));
        }
        stop.store(true, Relaxed);
    });
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
    for (i, got) in beside.iter().enumerate() {
        let q = i % measured.len();
        assert_eq!(*got, alone[q], "{} beside a concurrent query", measured[q]);
    }
}

/// A tag posting carries its address, so the index route lifts it to its
/// start, and climbs from the start to its spine ancestors, inside their
/// own page: the tag-seeded Q2/Q4/Q6/Q8, in both forms, ask B+i only for
/// the ancestors that opened on an earlier page than the posting (a lift)
/// or the start (a spine check). Those are counted here from the postings
/// and B+i itself, outside the measured run, each distinct ancestor once,
/// at 4 KiB pages on disk and at 256-byte pages, where records straddle
/// pages all the time.
#[test]
fn tag_seeds_ask_b_plus_i_only_for_ancestors_on_earlier_pages() {
    let (disk, dir) = open_dblp("climb");
    let xml = generate(DatasetKind::Dblp, 0.01).xml;
    let small = XmlDb::build_in_memory_with(&xml, nok_core::BuildOptions::default(), 256).unwrap();
    let queries: Vec<String> = workload(DatasetKind::Dblp)
        .into_iter()
        .filter(|(i, _)| [2, 4, 6, 8].contains(i))
        .filter_map(|(_, spec)| spec)
        .flat_map(|spec| [spec.path, spec.descendant_variant])
        .collect();
    assert_eq!(queries.len(), 8);
    let mut earlier_somewhere = 0;
    earlier_page_gets(&disk, &queries, &mut earlier_somewhere);
    earlier_page_gets(&small, &queries, &mut earlier_somewhere);
    assert!(
        earlier_somewhere > 0,
        "small pages put some ancestor on an earlier page"
    );
    drop(disk);
    std::fs::remove_dir_all(&dir).ok();
}

/// Run each of `queries`, tag-seeded, and hold its B+i gets to the
/// ancestors on an earlier page times the gets of one B+i lookup.
fn earlier_page_gets<S: nok_pager::Storage>(db: &XmlDb<S>, queries: &[String], seen: &mut u64) {
    use nok_core::pattern_tree::DOC_NODE;
    use nok_core::physical::IdRecord;
    use nok_core::SeedChoice;
    let bt_id = db.bt_id();
    let stats = bt_id.pool().stats();
    let addr = |dewey: &nok_core::Dewey| {
        let rec = bt_id.get_first(&dewey.to_key()).unwrap().expect("in B+i");
        IdRecord::from_bytes(&rec).unwrap().addr
    };
    for q in queries {
        let planned = db.plan_query(q, QueryOptions::default()).unwrap();
        let (fp, name, lift) = (planned.plan.fragments.iter())
            .find_map(|fp| match &fp.seed {
                // analyze: allow(plan-operator-construction): reads a seed, builds none
                SeedChoice::TagIndex { name, lift } => Some((fp, name, lift)),
                _ => None,
            })
            .unwrap_or_else(|| panic!("{q} is tag-seeded"));
        // Levels above the pivot an anchored start is checked against.
        let mut spine = 0;
        let mut n = planned.tree().nodes[fp.pivot].parent;
        while let Some(p) = n.filter(|&p| p != DOC_NODE) {
            spine += 1;
            n = planned.tree().nodes[p].parent;
        }
        let code = db.dict().lookup(name).unwrap();
        let mut ancestors = std::collections::HashSet::new();
        for p in db.tag_postings(code).unwrap() {
            let level = p.dewey.level();
            if level <= *lift || (fp.verify_spine && level - lift != spine + 1) {
                continue;
            }
            let start = p.dewey.ancestor_at_level(level - lift).unwrap();
            let start_page = addr(&start).page;
            if *lift > 0 && start_page != p.addr.page {
                ancestors.insert(start.clone());
            }
            for l in (1..=spine).filter(|_| fp.verify_spine) {
                let a = p.dewey.ancestor_at_level(l).unwrap();
                if addr(&a).page != start_page {
                    ancestors.insert(a);
                }
            }
        }
        let one = stats.logical_gets();
        addr(&nok_core::Dewey::root());
        let per_get = stats.logical_gets() - one;
        db.query(q).unwrap();
        let before = stats.logical_gets();
        db.query(q).unwrap();
        let gets = stats.logical_gets() - before;
        let allowed = ancestors.len() as u64 * per_get;
        eprintln!(
            "{q}: B+i {gets}, {} ancestors on earlier pages",
            ancestors.len()
        );
        assert!(gets <= allowed, "{q}: {gets} B+i gets > {allowed}");
        *seen += ancestors.len() as u64;
    }
}
