//! Exact work budget of the scan route. For the result-heavy dblp workload
//! (Q9–Q12 in both forms) and the four treebank queries of the
//! benchmark's `cold_deep`, forced onto the scan route, the entries its
//! matcher is fed — entries examined less those passed over inside dead
//! subtrees — are counts, not timings: on a given corpus they repeat
//! exactly, so a change that stops the pass skipping what no pattern node
//! can enter fails here instead of drifting into the benchmark's
//! `scan_read` or `cold_deep`.
//!
//! Each ceiling is the measured count. Lower a ceiling when a query gets
//! cheaper; raise one only with the reason in the change that does.

#![cfg(test)]

use nok_core::{QueryOptions, QueryStats, StartStrategy, XmlDb};
use nok_datagen::{generate, workload, DatasetKind};

/// `(query, entries fed to the matcher)` at dblp scale 0.01, forced scan
/// route; ceilings = measured.
const BUDGET: [(&str, u64); 8] = [
    (r#"/dblp/article[keyword="needle-low"]/author"#, 13_850),
    (r#"//article[keyword="needle-low"]/author"#, 13_850),
    ("/dblp/article/author", 10_368),
    ("//article/author", 10_368),
    (
        r#"/dblp/article[keyword="needle-low"][note="needle-low"]"#,
        10_448,
    ),
    (
        r#"//article[keyword="needle-low"][note="needle-low"]"#,
        10_448,
    ),
    ("/dblp/article[author][title]", 13_850),
    ("//article[author][title]", 13_850),
];

fn heavy_queries() -> Vec<String> {
    workload(DatasetKind::Dblp)
        .into_iter()
        .filter(|(i, _)| *i >= 9)
        .filter_map(|(_, spec)| spec)
        .flat_map(|spec| [spec.path, spec.descendant_variant])
        .collect()
}

fn scan(db: &XmlDb<nok_pager::MemStorage>, q: &str) -> QueryStats {
    let opts = QueryOptions {
        strategy: StartStrategy::Scan,
    };
    db.query_with(q, opts).unwrap().1
}

#[test]
fn heavy_queries_stay_within_their_scan_route_budget() {
    let db = XmlDb::build_in_memory(&generate(DatasetKind::Dblp, 0.01).xml).unwrap();
    let queries = heavy_queries();
    assert_eq!(queries.len(), BUDGET.len(), "every query has a budget");
    let mut over = Vec::new();
    for q in &queries {
        let Some(&(_, ceiling)) = BUDGET.iter().find(|(b, _)| b == q) else {
            panic!("no budget for {q}");
        };
        let stats = scan(&db, q);
        let fed = stats.entries_examined - stats.entries_skipped;
        eprintln!(
            "{q}: examined {} skipped {} fed {fed} (ceiling {ceiling})",
            stats.entries_examined, stats.entries_skipped
        );
        if fed > ceiling {
            over.push(format!("{q}: {fed} > {ceiling}"));
        }
    }
    assert!(over.is_empty(), "over budget: {over:?}");
}

/// `(query, entries fed to the matcher)` at treebank scale 0.01, forced
/// scan route; ceilings = measured. The trie is folded there, so the `//`
/// forms skip by the depth bound of `s` alone.
const TREEBANK_BUDGET: [(&str, u64); 4] = [
    ("/treebank/s/np", 3_202),
    ("//s/np", 3_202),
    ("/treebank/s[np][vp]", 4_802),
    ("//s[np][vp]", 4_802),
];

/// The `cold_deep` queries stay within their budgets, and each `//` form
/// is fed no more than its rooted form: `s` never occurs below level 2,
/// which proves the same skip the `/treebank/s` spine does.
#[test]
fn treebank_queries_stay_within_their_scan_route_budget() {
    let db = XmlDb::build_in_memory(&generate(DatasetKind::Treebank, 0.01).xml).unwrap();
    assert!(db.synopsis().paths().folded_nodes() > 0, "the trie folds");
    let mut fed = Vec::new();
    for (q, ceiling) in TREEBANK_BUDGET {
        let stats = scan(&db, q);
        let n = stats.entries_examined - stats.entries_skipped;
        eprintln!(
            "{q}: examined {} skipped {} fed {n} (ceiling {ceiling})",
            stats.entries_examined, stats.entries_skipped
        );
        assert!(n <= ceiling, "{q}: {n} > {ceiling}");
        fed.push(n);
    }
    assert!(fed[1] <= fed[0], "//s/np fed more than /treebank/s/np");
    assert!(
        fed[3] <= fed[2],
        "//s[np][vp] fed more than /treebank/s[np][vp]"
    );
}

/// Only `article` records can hold an answer to `article/author`, and in
/// them only the `author` children: the matcher is fed at most a quarter
/// of the chain, in both forms (the `//` form through the depth bound of
/// `article`, which never occurs below level 2).
#[test]
fn the_skip_feeds_a_quarter_of_the_chain_or_less() {
    let db = XmlDb::build_in_memory(&generate(DatasetKind::Dblp, 0.01).xml).unwrap();
    for q in ["/dblp/article/author", "//article/author"] {
        let stats = scan(&db, q);
        let fed = stats.entries_examined - stats.entries_skipped;
        assert!(
            4 * fed <= stats.entries_examined,
            "{q}: fed {fed} of {} entries",
            stats.entries_examined
        );
    }
}
