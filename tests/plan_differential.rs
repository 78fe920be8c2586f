//! Planner/executor differential battery: on every dataset, every
//! workload query (plus the `//` variants), the planned route, the forced
//! scan route and the forced index route (tag and value seeds) must all
//! return exactly the result sequence of the naive oracle — the planner
//! may change *seeding* and *route* (including proving queries empty from
//! the synopsis path summary and the value index), never *answers*.
//! Targeted cases then aim at what a single-pass matcher can get wrong, a
//! plan-stability test pins the index seeds of the selective workload at
//! the benchmark's corpus size, and a final snapshot test pins the explain
//! output's rows on a deep/wide synthetic document.

use nok_core::naive::NaiveEvaluator;
use nok_core::{
    BuildOptions, PathExpr, QueryOptions, QueryScratch, SeedChoice, StartStrategy, StrategyUsed,
    XmlDb,
};
use nok_datagen::{generate, workload, DatasetKind};
use nok_xml::Document;

fn execute(
    db: &XmlDb<nok_pager::MemStorage>,
    path: &str,
    opts: QueryOptions,
    scratch: &mut QueryScratch,
) -> Vec<String> {
    let planned = db.plan_query(path, opts).expect("plan");
    let mut out = Vec::new();
    db.execute_plan(&planned, scratch, &mut out)
        .expect("execute");
    out.iter().map(|m| m.dewey.to_string()).collect()
}

fn check_dataset(kind: DatasetKind) {
    let ds = generate(kind, 0.01); // floor: 800 records
    let db = XmlDb::build_in_memory(&ds.xml).expect("build");
    let doc = Document::parse(&ds.xml).expect("parse");
    let oracle = NaiveEvaluator::new(&doc);
    // One scratch across every query: pooled buffers must never leak state
    // between plans of different shapes.
    let mut scratch = QueryScratch::new();
    for (i, spec) in workload(kind) {
        let Some(spec) = spec else { continue };
        for path in [&spec.path, &spec.descendant_variant] {
            let expected: Vec<String> = oracle
                .eval_str(path)
                .expect("oracle eval")
                .iter()
                .map(|n| oracle.dewey(n).to_string())
                .collect();
            for strategy in ROUTES {
                let got = execute(&db, path, QueryOptions { strategy }, &mut scratch);
                assert_eq!(
                    got,
                    expected,
                    "{strategy:?} plan disagrees with oracle on {} Q{i}: {path}",
                    kind.name()
                );
            }
        }
    }
}

#[test]
fn author_plans_match_oracle() {
    check_dataset(DatasetKind::Author);
}

#[test]
fn address_plans_match_oracle() {
    check_dataset(DatasetKind::Address);
}

#[test]
fn catalog_plans_match_oracle() {
    check_dataset(DatasetKind::Catalog);
}

#[test]
fn treebank_plans_match_oracle() {
    check_dataset(DatasetKind::Treebank);
}

#[test]
fn dblp_plans_match_oracle() {
    check_dataset(DatasetKind::Dblp);
}

/// A plan is its query's shape, planned once, bound to its literals: for
/// every workload query of every dataset (both forms) on every route, the
/// shape planned with other literals and then bound to the query's equals
/// the plan of the query's text.
#[test]
fn a_template_bound_to_a_querys_literals_plans_as_its_text() {
    for kind in DatasetKind::ALL {
        let ds = generate(kind, 0.01);
        let db = XmlDb::build_in_memory(&ds.xml).expect("build");
        for (_, spec) in workload(kind) {
            let Some(spec) = spec else { continue };
            for path in [&spec.path, &spec.descendant_variant] {
                let expr = PathExpr::parse(path).expect("parse");
                let literals = expr.literals();
                // The same shape with literals no node has.
                let mut other = expr.shape();
                for k in (1..=literals.len()).rev() {
                    other = other.replace(&format!("${k}"), &format!("\"absent {k}\""));
                }
                for strategy in ROUTES {
                    let opts = QueryOptions { strategy };
                    let template = db.plan_query(&other, opts).expect("plan");
                    let bound = db.bind(&template, &literals).expect("bind");
                    let planned = db.plan_query(path, opts).expect("plan");
                    assert_eq!(bound.plan, planned.plan, "{path} via {strategy:?}");
                    if !literals.is_empty() {
                        assert!(template.plan.proven_empty, "{other}");
                    }
                }
            }
        }
    }
}

const ROUTES: [StartStrategy; 4] = [
    StartStrategy::Auto,
    StartStrategy::Scan,
    StartStrategy::TagIndex,
    StartStrategy::ValueIndex,
];

fn oracle_answers(xml: &str, query: &str) -> Vec<String> {
    let doc = Document::parse(xml).expect("parse");
    let oracle = NaiveEvaluator::new(&doc);
    oracle
        .eval_str(query)
        .expect("oracle eval")
        .iter()
        .map(|n| oracle.dewey(n).to_string())
        .collect()
}

/// Every route, small pages (so subtrees and candidate buffers straddle
/// page boundaries), against the oracle — order included.
fn check_routes(xml: &str, queries: &[&str]) {
    for page_size in [64, 128, 4096] {
        let db =
            XmlDb::build_in_memory_with(xml, BuildOptions::default(), page_size).expect("build");
        let mut scratch = QueryScratch::new();
        for q in queries {
            let expected = oracle_answers(xml, q);
            for strategy in ROUTES {
                let got = execute(&db, q, QueryOptions { strategy }, &mut scratch);
                assert_eq!(
                    got, expected,
                    "{q} via {strategy:?} ({page_size}-byte pages)"
                );
            }
        }
    }
}

/// ⊲ is strict and anchored to the *first* satisfied predecessor; the scan
/// route learns a sibling's verdict only when it closes.
#[test]
fn scan_route_ordered_siblings() {
    check_routes(
        "<a><c/><b><c/></b><c/><d/><c><b/></c><b/><c/></a>",
        &[
            "/a/b/following-sibling::c",
            "/a/c/following-sibling::b",
            "/a/b/following-sibling::d/following-sibling::c",
            "//c/b/following-sibling::c",
            "/a/d/following-sibling::d",
            "/a/c/b",
        ],
    );
}

/// Recursive same-tag nesting: inner candidates close (and succeed) before
/// the outer ones they sit in, yet answers must stay in document order and
/// each candidate must see only its own children.
#[test]
fn scan_route_nested_same_tag_candidates() {
    let xml = "<t><s><np/><s><np/><s><vp/></s><np/><pp><s><np/><vp/></s></pp></s><np/><vp/></s>\
               <s><vp/></s><s><s><s><np/></s></s></s></t>";
    check_routes(
        xml,
        &[
            "//s[np]",
            "//s/np",
            "//s[np][vp]",
            "//s[vp]/np",
            "//s/s/np",
            "//s[s/np]",
            "//s//np",
            "//s[.//vp]/np",
            "/t/s/np",
            "/t/s[np][vp]",
            "/t/s/s[np]",
        ],
    );
}

/// The predicate child may come before, between or after the returning
/// children: buffered returning matches wait for it, and are dropped with
/// the record when it never comes.
#[test]
fn scan_route_predicate_position_and_node_kinds() {
    let xml = r#"<a k="1"><b><p/><r/><r/></b><b k="2"><r/><p/><r x="y"/></b><b><r/></b>
                 <b><r/><r/><p/></b><c k="2"><r/></c></a>"#;
    check_routes(
        xml,
        &[
            "/a/b[p]/r",
            "//b[p]/r",
            "/a/*[p]/r",
            // '*' never selects an attribute node; '@k' never an element.
            "/a/*",
            "//*[@k]",
            "//*[@k]/r",
            "/a/b/@k",
            "//r/@x",
            r#"//*[@k="2"]"#,
            r#"//*[@k="2"]/r"#,
            "/a/b[@k>1]/r",
        ],
    );
}

/// Cut edges: the scan route checks them against the interval the close
/// entry completes, and multi-fragment plans mix both routes.
#[test]
fn scan_route_cut_edges_read_the_closing_interval() {
    let xml = "<r><a><b/><x><c/></x></a><a><b/></a><c/><a><x><x><c/></x></x><b/><b/></a>\
               <a><a><b/><c/></a><b/></a></r>";
    check_routes(
        xml,
        &[
            "//a[.//c]/b",
            "//a[.//c]",
            "/r/a[.//c]/b",
            "//a//c",
            "//a[b]//c",
            "//a/x//c",
            "//a/b/following::c",
            "//a[b/following::a]",
            "//x[.//x]//c",
            "/following::a",
            "/following::a/b",
            "/following::a//c",
            "/r/following::a",
        ],
    );
}

/// Equality predicates are answered by merging the literal's postings.
/// A hash cannot vouch for its literal once a record carrying it has been
/// tombstoned (the fallback verifies posting by posting), postings fall out
/// of document order under updates, and a snapshot keeps matching a value
/// whose record has since died.
#[test]
fn scan_route_value_literals_across_updates() {
    let rec = |i: usize, extra: &str| {
        let kw = if i.is_multiple_of(4) { "needle" } else { "hay" };
        format!(
            "<rec><name>n{i}</name><kw>{kw}</kw><kw>extra</kw><price>{}</price>{extra}</rec>",
            i * 3
        )
    };
    let xml = format!(
        "<lib>{}</lib>",
        (0..40).map(|i| rec(i, "")).collect::<String>()
    );
    // What the updates below turn it into.
    let updated = format!(
        "<lib>{}</lib>",
        (0..40)
            .filter(|&i| i != 7)
            .map(|i| match i {
                0 => rec(i, "<name>n7</name>"),
                2 => rec(i, "<name>n7</name><kw>needle</kw>"),
                _ => rec(i, ""),
            })
            .collect::<String>()
    );
    let queries = [
        r#"/lib/rec[kw="needle"]/name"#,
        r#"//rec[kw="needle"][kw="extra"]"#,
        r#"//rec[kw="needle"][price<50]/name"#,
        r#"//kw[.="needle"]"#,
        r#"//rec[kw="ghost"]/name"#,
        r#"//rec[name="n7"]"#,
        "//rec[price>=99]/name",
    ];
    check_routes(&xml, &queries);

    let mut db = XmlDb::build_in_memory_with(&xml, BuildOptions::default(), 64).expect("build");
    let before = db.snapshot().expect("snapshot");
    // Delete the only record named n7 (tombstoning its value), then
    // give an *earlier* record a node with that very value: the hash
    // now has a dead record, and the new posting sits after its
    // document-order successors.
    let n7 = db.query(r#"//rec[name="n7"]"#).expect("query")[0]
        .dewey
        .clone();
    db.delete_subtree(&n7).expect("delete");
    let rec2 = db.query("/lib/rec").expect("query")[2].dewey.clone();
    db.insert_last_child(&rec2, "<name>n7</name>")
        .expect("insert");
    db.insert_last_child(&rec2, "<kw>needle</kw>")
        .expect("insert");
    let rec0 = db.query("/lib/rec").expect("query")[0].dewey.clone();
    db.insert_last_child(&rec0, "<name>n7</name>")
        .expect("insert");
    let mut scratch = QueryScratch::new();
    for q in queries {
        for strategy in ROUTES {
            let opts = QueryOptions { strategy };
            assert_eq!(
                execute(&db, q, opts, &mut scratch),
                oracle_answers(&updated, q),
                "{q} via {strategy:?} after updates"
            );
            // The pinned snapshot reads overlay pages and tombstoned
            // records, and still answers as of its generation.
            let planned = before.plan_query(q, opts).expect("plan");
            let mut out = Vec::new();
            before
                .execute_plan(&planned, &mut scratch, &mut out)
                .expect("execute");
            let got: Vec<String> = out.iter().map(|m| m.dewey.to_string()).collect();
            assert_eq!(
                got,
                oracle_answers(&xml, q),
                "{q} via {strategy:?} on the snapshot"
            );
        }
    }
}

/// Deleting whole runs of records leaves structurally empty pages in the
/// chain; the pass must step over them without losing its place.
#[test]
fn scan_route_skips_pages_emptied_by_deletes() {
    let mut xml = String::from("<r>");
    for i in 0..60 {
        xml.push_str(&format!("<a><b/><c><d/><d/></c><e>v{i}</e></a>"));
    }
    xml.push_str("</r>");
    let mut db = XmlDb::build_in_memory_with(&xml, BuildOptions::default(), 64).expect("build");
    // Remove records 10..50, back to front so Dewey ids stay put.
    let victims: Vec<_> = db.query("/r/a").expect("query")[10..50]
        .iter()
        .map(|m| m.dewey.clone())
        .collect();
    for d in victims.iter().rev() {
        db.delete_subtree(d).expect("delete");
    }
    let empties = (0..db.store().chain_len())
        .filter(|&r| db.store().dir_at(r).is_some_and(|de| de.entries == 0))
        .count();
    assert!(empties > 0, "the deletes must have emptied pages");
    let mut kept = String::from("<r>");
    for i in (0..10).chain(50..60) {
        kept.push_str(&format!("<a><b/><c><d/><d/></c><e>v{i}</e></a>"));
    }
    kept.push_str("</r>");
    let mut scratch = QueryScratch::new();
    for q in ["/r/a/c/d", "//a[b]/e", "//c[d]", r#"//a[e="v55"]/b"#] {
        for strategy in ROUTES {
            assert_eq!(
                execute(&db, q, QueryOptions { strategy }, &mut scratch),
                oracle_answers(&kept, q),
                "{q} via {strategy:?}"
            );
        }
    }
}

/// The index route feeds each start's subtree to the scan route's matcher.
/// A start nested in an earlier start's subtree is decided there, a
/// subtree may span pages, ⊲ order and cut edges are decided inside the
/// subtree, and a document-rooted pivot takes its root only at the
/// planned depth.
#[test]
fn index_route_sub_scans() {
    // Nested same-tag starts: both `a`s carry the literal.
    check_routes(
        "<a><a><b>x</b><c/></a><b>x</b><c/></a>",
        &[
            r#"//a[b="x"]//c"#,
            r#"//a[b="x"]/c"#,
            r#"//a[b="x"]"#,
            "//a[b]//c",
            r#"/a[b="x"]//c"#,
        ],
    );
    // Starts whose subtrees span pages.
    let spanning = format!(
        "<r><s><k>v</k>{}</s><s><k>w</k><x/></s><s>{}<k>v</k></s></r>",
        "<x><y/></x>".repeat(40),
        "<x/>".repeat(30)
    );
    check_routes(
        &spanning,
        &[
            r#"//s[k="v"]/x"#,
            r#"/r/s[k="v"]/x/y"#,
            "//s[k]/x",
            r#"//s[k="v"][x/y]"#,
            "/r/s/x/y",
        ],
    );
    // ⊲-ordered predicates under a seeded root.
    check_routes(
        "<r><a><k>v</k><b/><c/></a><a><c/><k>v</k><b/></a><a><k>w</k><b/><c/></a>\
         <a><b/><k>v</k><b/><c/></a></r>",
        &[
            r#"//a[k="v"]/b/following-sibling::c"#,
            r#"/r/a[k="v"]/b/following-sibling::c"#,
            r#"//a[k="v"]/c/following-sibling::b"#,
            r#"/r/a[k="v"]/k/following-sibling::b"#,
        ],
    );
    // A `following::` cut out of an index-seeded fragment.
    check_routes(
        "<r><a><k>v</k><b/></a><c/><a><k>v</k></a><a><k>w</k><c/></a><c/></r>",
        &[
            r#"//a[k="v"]/following::c"#,
            r#"/r/a[k="v"]/following::c"#,
            r#"//a[k="v"]/b/following::c"#,
            r#"//a[k="w"]/following::c"#,
        ],
    );
    // A document-rooted pivot whose tag also occurs at other depths.
    check_routes(
        "<r><a><k>v</k><b/><a><k>v</k><b/></a></a><x><a><k>v</k><b/></a></x>\
         <a><x><a><k>v</k></a></x></a></r>",
        &[
            r#"/r/a[k="v"]/b"#,
            r#"/r/x/a[k="v"]/b"#,
            r#"//a[k="v"]/b"#,
            "/r/a/b",
            "/r/*/a/b",
            r#"/r/a/x/a[k="v"]"#,
        ],
    );
}

/// Fragments wider than one 64-bit pattern-node set: 70 predicates under
/// one root (seeded by value, by tag, or scanned), and a document-rooted
/// chain whose spine is 70 levels deep.
#[test]
fn fragments_over_64_pattern_nodes() {
    let kids = |skip: usize| -> String {
        (0..70)
            .filter(|&i| i != skip)
            .map(|i| format!("<b{i}/>"))
            .collect()
    };
    let xml = format!(
        "<r><a><k>v</k>{all}<c/></a><a><k>v</k>{low}<c/></a><a><k>v</k>{high}<c/></a>\
         <a><k>w</k>{all}<c/></a><x><a><k>v</k>{all}<c/></a></x></r>",
        all = kids(usize::MAX),
        low = kids(33),
        high = kids(68),
    );
    let preds: String = (0..70).map(|i| format!("[b{i}]")).collect();
    assert_eq!(
        oracle_answers(&xml, &format!(r#"//a[k="v"]{preds}/c"#)),
        ["0.0.71", "0.4.0.71"]
    );
    check_routes(
        &xml,
        &[
            &format!(r#"//a[k="v"]{preds}/c"#),
            &format!(r#"/r/a[k="v"]{preds}/c"#),
            &format!("//a{preds}"),
            &format!("/r/a{preds}/k/following-sibling::b69"),
            &format!(r#"//a[k="v"]{preds}/following::a"#),
        ],
    );
    let deep = format!("<d>{}<e/>{}</d>", "<d>".repeat(69), "</d>".repeat(69));
    let spine = "/d".repeat(70);
    assert_eq!(oracle_answers(&deep, &format!("{spine}/e")).len(), 1);
    check_routes(
        &deep,
        &[
            &format!("{spine}/e"),
            &format!("{spine}[e]"),
            &format!("/d{}", "/*".repeat(69)),
        ],
    );
}

/// Entries the forced scan route passes over inside dead subtrees.
fn scan_skipped(db: &XmlDb<nok_pager::MemStorage>, q: &str) -> u64 {
    let opts = QueryOptions {
        strategy: StartStrategy::Scan,
    };
    db.query_with(q, opts).expect("query").1.entries_skipped
}

/// The pass skips the subtree of a node no pattern node can enter: on the
/// scan route across page boundaries, on the index route below a start
/// and at a start that is itself dead, for `/`-anchored fragments by the
/// spine and for `//`- and `following::`-rooted ones by the root tag's
/// depth bound: no root candidate opens at or below its deepest level.
#[test]
fn dead_subtrees_are_skipped_on_every_route() {
    // Dead subtrees spanning pages, and `x` only under some tags: `q`
    // never holds an `x`, the second `m` does.
    let wide = format!(
        "<r><p><x><y/></x></p><q>{junk}</q><p><x><y/></x><x/><w>{junk}</w></p>\
         <m><x><y/><y/></x></m><q><z/></q><m><n><x><y/></x></n>{junk}</m></r>",
        junk = "<z><v/><v><u/></v></z>".repeat(12)
    );
    let queries = [
        "/r/p/x/y", "//x/y", "//p/x", "//x[y]", "//m//x/y", "/r/m/n/x", "//v/u",
    ];
    check_routes(&wide, &queries);
    let db = XmlDb::build_in_memory_with(&wide, BuildOptions::default(), 64).expect("build");
    for q in queries {
        assert!(scan_skipped(&db, q) > 0, "{q} skips nothing");
    }

    // Runs of dead leaves and dead subtrees between live siblings, long
    // enough to cross page boundaries at 64 and 128 bytes: the siblings
    // after a run keep their Dewey ordinals, on both routes.
    let leaves = "<z/>".repeat(40);
    let subtrees = "<y><z/><z><w/></z></y>".repeat(20);
    let mixed = "<z/><y><w/></y><z/><z/>".repeat(12);
    let runs = format!(
        "<r><a><b/>{leaves}<c><d/></c>{subtrees}<b/>{mixed}<b><d/></b></a><q>{subtrees}</q>\
         <a>{leaves}<b/>{mixed}</a><a>{subtrees}<c/></a></r>"
    );
    let queries = [
        "//a/b", "/r/a/b", "//a[c]/b", "//a/c/d", "//b/d", "//a[b]/c", "/r/a[c]",
    ];
    check_routes(&runs, &queries);
    for page_size in [64, 128] {
        let db =
            XmlDb::build_in_memory_with(&runs, BuildOptions::default(), page_size).expect("build");
        for q in queries {
            assert!(scan_skipped(&db, q) > 0, "{q} skips nothing");
        }
        let opts = QueryOptions {
            strategy: StartStrategy::TagIndex,
        };
        let stats = db.query_with("//a/b", opts).expect("query").1;
        assert!(stats.entries_skipped > 0, "the index route skips nothing");
    }

    // Index-route starts of another tag: the literal's postings also lift
    // to `z` parents, dead unless an `a` sits below (the fourth record).
    check_routes(
        "<r><a><k>v</k><b/></a><z><k>v</k><b/></z><a><z><k>v</k><b/></z><b/></a>\
         <z><k>v</k><a><k>v</k><b/></a></z><z><k>w</k><k>v</k></z></r>",
        &[
            r#"//a[k="v"]/b"#,
            r#"//a[k="v"]"#,
            r#"/r/a[k="v"]/b"#,
            r#"/r/*[k="v"]/b"#,
            "//a[k]/b",
            r#"//z[k="v"]/a/b"#,
        ],
    );

    // `*` never passes an attribute node and `@k` never an element: under
    // `//*` the attribute nodes are dead, under `//@k` the elements with
    // no `@k` below.
    check_routes(
        r#"<r k="1"><a k="2"><b/><c k="3"><d/></c></a><e><f g="4"/></e><a/><h k="5"/></r>"#,
        &[
            "//*",
            "/r/*",
            "//*/@k",
            "//@k",
            "//a/@k",
            "//*[@k]/d",
            "//e//@g",
            "/r/*[@k]",
        ],
    );

    // ⊲-ordered predicates and `following::` cuts between dead subtrees.
    check_routes(
        "<r><a><b/><x><y/></x><c/></a><z><c/></z><a><c/><x><y/></x><b/></a><c/>\
         <a><x><b/></x><b/><c/><c/></a><z><x/></z></r>",
        &[
            "//a/b/following-sibling::c",
            "/r/a/b/following-sibling::c",
            "//a[c/following-sibling::b]",
            "//a/b/following::c",
            "/r/a/b/following::c",
            "//a[b/following::a]",
            "//x/following::c",
        ],
    );
}

/// 64 × 64 `/r/t<i>/u<j>` records: more distinct paths than the synopsis
/// trie keeps, so it folds, and `g` and `x` occur only below the folded
/// levels. `g` sits at level 4 alone, and every node at level 5 is an `x`
/// child of a `g`.
fn folded_xml() -> String {
    let mut xml = String::from("<r>");
    for i in 0..64 {
        xml.push_str(&format!("<t{i}>"));
        for j in 0..64 {
            match (i, j) {
                (0, 0) | (63, 63) => xml.push_str(&format!("<u{j}><g><x/></g></u{j}>")),
                (5, 7) => xml.push_str(&format!("<u{j}><g/><g><x/><x/></g></u{j}>")),
                _ => xml.push_str(&format!("<u{j}/>")),
            }
        }
        xml.push_str(&format!("</t{i}>"));
    }
    xml.push_str("</r>");
    xml
}

/// A proof read off a folded trie's kept nodes alone would skip the
/// `t`/`u` holding `g` and `x` and lose answers. The depth bounds prove
/// nothing here: every node at or below the deepest level of a root tag
/// passes the root test or is a pattern child of a candidate. So `//`
/// fragments skip nothing — yet `/`-anchored ones still do.
#[test]
fn a_folded_summary_proves_nothing() {
    let xml = folded_xml();
    let db = XmlDb::build_in_memory(&xml).expect("build");
    assert!(
        db.synopsis().paths().folded_nodes() > 0,
        "{} distinct paths do not fold",
        db.synopsis().distinct_paths()
    );
    let descendant = ["//g/x", "//x", "//g[x]", "//*/x", "//*[x]"];
    for q in descendant {
        assert_eq!(
            scan_skipped(&db, q),
            0,
            "{q} skipped under a folded summary"
        );
    }
    assert!(scan_skipped(&db, "/r/t0/u0/g/x") > 0);
    let mut queries = descendant.to_vec();
    queries.extend(["/r/t0/u0/g/x", "/r/t5/u7/g/x", "/r/*/*/g"]);
    check_routes(&xml, &queries);
}

/// Under the same folded trie, a root tag that never occurs deep proves
/// the skip by its depth bound: no node at or below its deepest level can
/// hold one.
#[test]
fn a_shallow_root_tag_skips_under_a_folded_trie() {
    let xml = folded_xml();
    let queries = ["//t0//g", "//u7//x", "//t5/u7[g]", "//u0/g/x", "//t63//x"];
    for page_size in [64, 128, 4096] {
        let db =
            XmlDb::build_in_memory_with(&xml, BuildOptions::default(), page_size).expect("build");
        assert!(db.synopsis().paths().folded_nodes() > 0);
        for q in queries {
            assert!(
                scan_skipped(&db, q) > 0,
                "{q} skips nothing ({page_size}-byte pages)"
            );
        }
    }
    check_routes(&xml, &queries);
}

/// An insert that puts a root-tag node below its tag's depth bound raises
/// the bound in the same commit, and the plan of the next generation finds
/// the node: the one cached under the old generation would pass over the
/// dead node holding it. Deletes leave the bound where it was, which only
/// weakens the proof.
#[test]
fn an_insert_below_the_depth_bound_raises_it() {
    let xml = folded_xml();
    let mut db = XmlDb::build_in_memory_with(&xml, BuildOptions::default(), 128).expect("build");
    let g = db.dict().lookup("g").expect("g is a tag");
    assert_eq!(db.synopsis().depth_bound(g), 4);
    let cache = nok_serve::PlanCache::new(8);
    let plan = |db: &XmlDb<nok_pager::MemStorage>| {
        std::sync::Arc::new(
            db.plan_query("//g/x", QueryOptions::default())
                .expect("plan"),
        )
    };
    let run = |db: &XmlDb<nok_pager::MemStorage>, planned: &nok_core::PlannedQuery| {
        let mut out = Vec::new();
        db.execute_plan(planned, &mut QueryScratch::new(), &mut out)
            .expect("execute");
        out.iter().map(|m| m.dewey.to_string()).collect::<Vec<_>>()
    };
    let old = plan(&db);
    cache.insert("//g/x".into(), db.commit_generation(), old.clone());

    // Below the `x` of /r/t0/u0/g/x (level 5): `y` at 6, `g` at 7.
    let x = db.query("/r/t0/u0/g/x").expect("query")[0].dewey.clone();
    db.insert_last_child(&x, "<y><g><x/></g></y>")
        .expect("insert");
    assert_eq!(db.synopsis().depth_bound(g), 7, "raised in the commit");
    let mirror = xml.replacen("<g><x/></g>", "<g><x><y><g><x/></g></y></x></g>", 1);
    let expected = oracle_answers(&mirror, "//g/x");
    assert!(expected.contains(&"0.0.0.0.0.0.0.0".to_string()));

    let lookup = cache.lookup("//g/x", db.commit_generation());
    assert!(
        lookup.plan.is_none() && lookup.stale,
        "a commit invalidates"
    );
    let new = plan(&db);
    assert_eq!(run(&db, &new), expected);
    assert_ne!(run(&db, &old), expected, "the old floor hides the new g");
    for strategy in ROUTES {
        let got = execute(
            &db,
            "//g/x",
            QueryOptions { strategy },
            &mut QueryScratch::new(),
        );
        assert_eq!(got, expected, "{strategy:?}");
    }

    // Deleting the deep nodes leaves a stale bound: answers stay exact.
    let y = db.query("//x/y").expect("query")[0].dewey.clone();
    db.delete_subtree(&y).expect("delete");
    assert_eq!(db.synopsis().depth_bound(g), 7, "a delete lowers nothing");
    let expected = oracle_answers(&xml, "//g/x");
    for strategy in ROUTES {
        for q in ["//g/x", "//x", "//t0//g"] {
            let got = execute(&db, q, QueryOptions { strategy }, &mut QueryScratch::new());
            assert_eq!(got, oracle_answers(&xml, q), "{q} via {strategy:?}");
        }
    }
    assert_eq!(run(&db, &plan(&db)), expected);
}

/// The benchmark's bypass workloads stay on the index route: at the
/// benchmark's corpus size the sixteen selective dblp queries (Q1–Q8, both
/// forms) and a unique-key lookup keep an index seed on every fragment —
/// and the result-heavy eight take the scan route.
#[test]
fn selective_queries_keep_their_index_seeds() {
    let ds = generate(DatasetKind::Dblp, 0.1);
    let db = XmlDb::build_in_memory(&ds.xml).expect("build");
    let seeds = |q: &str| -> Vec<String> {
        let planned = db.plan_query(q, QueryOptions::default()).expect("plan");
        planned
            .plan
            .fragments
            .iter()
            .filter(|f| f.seed != SeedChoice::DocNavigate)
            .map(|f| f.seed.to_string())
            .collect()
    };
    // (`/` form, `//` form) of each selective query: the seeds of the
    // plans this workload had before the scan route existed.
    let value = |lit: &str| vec![format!("value-index({lit:?}, lift 1)")];
    let tag = |name: &str, lift: u32| vec![format!("tag-index({name}, lift {lift})")];
    let expected: [(usize, Vec<String>, Vec<String>); 8] = [
        (1, value("needle-high"), value("needle-high")),
        (2, tag("rareitem", 0), tag("rareitem", 1)),
        (3, value("needle-high"), value("needle-high")),
        (4, tag("rareitem", 1), tag("rareitem", 1)),
        (5, value("needle-mod"), value("needle-mod")),
        // The `/` form used to seed from `subitem` (43 postings, three
        // spine lookups each); the measured costs prefer the elevated
        // `uncommonitem` pivot (40 postings, two lookups each).
        (6, tag("uncommonitem", 0), tag("uncommonitem", 1)),
        (7, value("needle-mod"), value("needle-mod")),
        (8, tag("uncommonitem", 1), tag("uncommonitem", 1)),
    ];
    let specs: Vec<_> = workload(DatasetKind::Dblp)
        .into_iter()
        .filter_map(|(i, spec)| Some((i, spec?)))
        .collect();
    for (i, rooted, descendant) in expected {
        let spec = &specs
            .iter()
            .find(|(j, _)| *j == i)
            .expect("dblp has Q1-Q12")
            .1;
        assert_eq!(seeds(&spec.path), rooted, "Q{i}: {}", spec.path);
        assert_eq!(
            seeds(&spec.descendant_variant),
            descendant,
            "Q{i}: {}",
            spec.descendant_variant
        );
    }
    assert_eq!(
        seeds(r#"//article[ee="db/j/17.html"]/title"#),
        value("db/j/17.html")
    );
    for (i, spec) in specs.iter().filter(|(i, _)| *i >= 9) {
        for q in [&spec.path, &spec.descendant_variant] {
            assert_eq!(seeds(q), ["scan"], "Q{i}: {q}");
        }
    }
}

/// A query whose tags both occur but never on one root path is proven
/// empty by the path summary alone: 40 `a` records of one `meta` and 400
/// `filler`s, and `//filler//meta` examines no entry and reads no page.
#[test]
fn a_zero_support_path_touches_no_page() {
    let record = format!("<a><meta>x</meta>{}</a>", "<filler/>".repeat(400));
    let db = XmlDb::build_in_memory(&format!("<r>{}</r>", record.repeat(40))).expect("build");
    let planned = db
        .plan_query("//filler//meta", QueryOptions::default())
        .expect("plan");
    assert!(planned.plan.proven_empty);
    let pools = [
        db.store().pool(),
        db.bt_tag().pool(),
        db.bt_val().pool(),
        db.bt_id().pool(),
    ];
    for pool in pools {
        pool.clear_cache().expect("clear");
    }
    let reads = || pools.map(|p| p.stats().physical_reads());
    let before = reads();
    let mut scratch = QueryScratch::new();
    let mut out = Vec::new();
    db.execute_plan(&planned, &mut scratch, &mut out)
        .expect("execute");
    assert!(out.is_empty());
    assert!(scratch.stats().proven_empty);
    assert_eq!(scratch.stats().entries_examined, 0);
    assert_eq!(reads(), before, "physical reads per pool");
}

/// A `= "literal"` with no value-index posting proves the query empty at
/// plan time, in whichever fragment it sits: `//a[.//k="zzz"]//c`, where
/// `a`, `k` and `c` all occur on one path, examines no entry and reads no
/// page of any pool.
#[test]
fn a_literal_without_postings_touches_no_page() {
    let record = "<a><k>v</k><b><c/></b><c/></a>";
    let db = XmlDb::build_in_memory(&format!("<r>{}</r>", record.repeat(200))).expect("build");
    for q in [
        r#"//a[.//k="zzz"]//c"#,
        r#"//a[k="zzz"]//c"#,
        r#"//a//c[.="zzz"]"#,
    ] {
        let planned = db.plan_query(q, QueryOptions::default()).expect("plan");
        assert!(planned.plan.proven_empty, "{q}");
        let pools = [
            db.store().pool(),
            db.bt_tag().pool(),
            db.bt_val().pool(),
            db.bt_id().pool(),
        ];
        for pool in pools {
            pool.clear_cache().expect("clear");
        }
        let gets = || pools.map(|p| p.stats().logical_gets());
        let before = gets();
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        db.execute_plan(&planned, &mut scratch, &mut out)
            .expect("execute");
        assert!(out.is_empty(), "{q}");
        assert!(scratch.stats().proven_empty, "{q}");
        assert_eq!(scratch.stats().entries_examined, 0, "{q}");
        assert_eq!(gets(), before, "{q}: gets per pool");
    }
    // The same shapes with a literal that occurs are not proven empty.
    let q = r#"//a[.//k="v"]//c"#;
    assert!(
        !db.plan_query(q, QueryOptions::default())
            .expect("plan")
            .plan
            .proven_empty
    );
    assert_eq!(db.query(q).expect("query").len(), 400);
}

/// Nothing follows the document node: a `following::` edge leaving it
/// proves the plan empty, and no page of any pool is read.
#[test]
fn nothing_follows_the_document_node() {
    let db =
        XmlDb::build_in_memory(&format!("<r>{}</r>", "<a><b/></a>".repeat(200))).expect("build");
    for q in ["/following::a", "/following::a/b", "/following::r//b"] {
        let planned = db.plan_query(q, QueryOptions::default()).expect("plan");
        assert!(planned.plan.proven_empty, "{q}");
        let pools = [
            db.store().pool(),
            db.bt_tag().pool(),
            db.bt_val().pool(),
            db.bt_id().pool(),
        ];
        let gets = || pools.map(|p| p.stats().logical_gets());
        let before = gets();
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        db.execute_plan(&planned, &mut scratch, &mut out)
            .expect("execute");
        assert!(out.is_empty(), "{q}");
        assert_eq!(gets(), before, "{q}: gets per pool");
    }
}

/// A thousand `item`s match `/site/item/*/name` and three route through
/// `special`: the plan elevates its pivot to the rare spine ancestor,
/// seeds from `special`'s three postings and examines only their subtrees.
#[test]
fn a_rare_spine_ancestor_seeds_the_deep_selective_path() {
    let xml = format!(
        "<site>{}{}</site>",
        "<item><sub><name>n</name></sub></item>".repeat(1000),
        "<item><special><name>n</name></special></item>".repeat(3)
    );
    let db = XmlDb::build_in_memory(&xml).expect("build");
    let q = "/site/item/special/name";
    let planned = db.plan_query(q, QueryOptions::default()).expect("plan");
    let seeds: Vec<String> = planned
        .plan
        .fragments
        .iter()
        .map(|f| f.seed.to_string())
        .collect();
    assert_eq!(seeds, ["tag-index(special, lift 0)"]);
    let mut scratch = QueryScratch::new();
    let mut out = Vec::new();
    db.execute_plan(&planned, &mut scratch, &mut out)
        .expect("execute");
    assert_eq!(out.len(), 3);
    let examined = scratch.stats().entries_examined;
    assert!(examined <= 12, "{examined} entries examined");
}

/// A deep/wide synthetic document (many sections, each a deep chain plus a
/// wide run of leaves) where the explain output is predictable enough to
/// snapshot: one walk whose root carries the route, a row per fragment
/// riding it, the sink row, and the est/actual agreement for exact-count
/// seeds.
#[test]
fn deepwide_explain_snapshot() {
    let mut xml = String::from("<corpus>");
    for i in 0..30 {
        xml.push_str("<section>");
        xml.push_str("<head><title>deep</title></head>");
        for _ in 0..40 {
            xml.push_str("<leaf/>");
        }
        if i == 7 {
            xml.push_str("<rare>needle</rare>");
        }
        xml.push_str("</section>");
    }
    xml.push_str("</corpus>");
    let db = XmlDb::build_in_memory(&xml).expect("build");

    // Multi-fragment query with a value constraint: the planner seeds the
    // walk from the value index, and the `//leaf` fragment rides it.
    let (hits, explain) = db
        .explain(r#"//section[rare="needle"]//leaf"#, QueryOptions::default())
        .expect("explain");
    assert_eq!(hits.len(), 40, "only section 7's leaves survive");

    let ops: Vec<&str> = explain.rows.iter().map(|r| r.op.as_str()).collect();
    assert_eq!(ops, ["walk", "ride", "sink"], "{explain}");
    // The walk root estimates exactly the one needle posting, and the
    // executor confirms it.
    let walk = &explain.rows[0];
    assert!(walk.detail.contains("value-index"), "{explain}");
    assert_eq!(walk.est, Some(1), "{explain}");
    assert_eq!(walk.actual, Some(1), "{explain}");
    // The rider has no route: it reports the walk's strategy, and tries
    // only the leaves of the one seeded section.
    let ride = &explain.rows[1];
    assert!(
        ride.detail.contains("root=leaf // of fragment 1"),
        "{explain}"
    );
    assert!(ride.detail.contains("strategy=value-index"), "{explain}");
    assert_eq!(ride.actual, Some(40), "{explain}");
    // The planner annotates fragments with their true root-chain support
    // from the synopsis path summary.
    assert!(ride.detail.contains("path-est=1200"), "{explain}");
    let sink = explain.rows.last().unwrap();
    assert!(sink.detail.contains("past // of fragment 1"), "{explain}");
    assert_eq!(sink.actual, Some(40), "{explain}");

    // A following:: edge costs its child fragment a walk of its own, then
    // the main walk scans.
    let (_, explain) = db
        .explain(
            r#"//rare[.="needle"]/following::leaf"#,
            QueryOptions::default(),
        )
        .expect("explain");
    let ops: Vec<&str> = explain.rows.iter().map(|r| r.op.as_str()).collect();
    assert_eq!(ops, ["walk", "walk", "ride", "sink"], "{explain}");
    assert!(
        explain.rows[0].detail.contains("following:: of fragment 1"),
        "{explain}"
    );
    assert!(
        explain.rows[1].detail.contains("strategy=scan"),
        "{explain}"
    );

    // An impossible descendant constraint is proven empty at plan time:
    // every fragment reports the skipped strategy and the rendered table
    // still ends in the sink.
    let (hits, explain) = db
        .explain("//section[.//nosuch]//leaf", QueryOptions::default())
        .expect("explain");
    assert!(hits.is_empty());
    assert!(
        explain
            .rows
            .iter()
            .filter(|r| r.op != "sink")
            .all(|r| r.detail.contains("strategy=skipped") && r.actual.is_none()),
        "{explain}"
    );
    let rendered = explain.to_string();
    assert!(rendered.contains("sink"), "{rendered}");

    // Strategy bookkeeping for the skipped path is typed, not stringly.
    let (_, stats) = db
        .query_with("//section[.//nosuch]//leaf", QueryOptions::default())
        .expect("query");
    assert!(stats.strategies.contains(&StrategyUsed::Skipped));
}
