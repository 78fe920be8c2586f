//! Heap allocations of a warm, cache-hit key lookup, counted by a global
//! allocator: binding a fresh key to the cached plan of its shape and
//! running it through `execute_plan_into` with a worker's scratch. The
//! count is exact — nothing in it depends on timing or on the thread — so
//! a change that adds an allocation per query fails here.
//!
//! The counting allocator serves every test of this binary, so it holds
//! one test.

#![cfg(test)]

use nok_alloc_count::{allocations, Counting};
use nok_core::{PathExpr, QueryMatch, QueryOptions, QueryScratch, XmlDb};
use nok_datagen::{generate, DatasetKind};

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What one lookup of `key` allocates, bound to `template` and run with
/// `scratch` into `out`.
fn lookup(
    db: &XmlDb<nok_pager::MemStorage>,
    template: &nok_core::PlannedQuery,
    key: usize,
    scratch: &mut QueryScratch,
    out: &mut Vec<QueryMatch>,
) -> (u64, usize) {
    let literal = format!("db/j/{key}.html");
    let before = allocations();
    let bound = db.bind(template, &[literal.as_str()]).expect("bind");
    out.clear();
    db.execute_plan_into(&bound, scratch, out).expect("execute");
    drop(bound);
    (allocations() - before, out.len())
}

#[test]
fn a_warm_cache_hit_key_lookup_allocates_a_pinned_count() {
    let db = XmlDb::build_in_memory(&generate(DatasetKind::Dblp, 0.01).xml).expect("build");
    let query = r#"//article[ee="db/j/777.html"]/title"#;
    let expr = PathExpr::parse(query).expect("parse");
    assert_eq!(expr.shape(), "//article[ee=$1]/title");
    let template = db.plan_expr(&expr, QueryOptions::default()).expect("plan");
    let mut scratch = QueryScratch::new();
    let mut out = Vec::with_capacity(16);
    // Warm: the scratch's buffers grow to what a lookup needs.
    for key in 700..760 {
        lookup(&db, &template, key, &mut scratch, &mut out);
    }
    let counts: Vec<(u64, usize)> = (760..800)
        .map(|key| lookup(&db, &template, key, &mut scratch, &mut out))
        .collect();
    let found: Vec<u64> = counts.iter().filter(|c| c.1 == 1).map(|c| c.0).collect();
    assert!(found.len() > 10, "{counts:?}");
    eprintln!("allocations per warm key lookup that finds its article: {found:?}");
    assert!(found.iter().all(|&n| n == found[0]), "{counts:?}");
    assert_eq!(found[0], PINNED, "{counts:?}");
}

/// Allocations of one warm, cache-hit key lookup that finds its article.
/// (19 while `BTree::range` took an owned upper bound and assembled every
/// key it compared with the bounds, the one past the range included.)
const PINNED: u64 = 16;
