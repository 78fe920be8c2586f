//! Edge-case battery for the query engine, beyond the oracle comparisons:
//! unusual documents, pathological patterns, and strategy interactions.

#![cfg(test)]

use nok_core::naive::NaiveEvaluator;
use nok_core::{QueryOptions, StartStrategy, StrategyUsed, XmlDb};
use nok_xml::Document;

fn check(xml: &str, query: &str) {
    let db = XmlDb::build_in_memory(xml).unwrap();
    // Post-condition: a fresh build satisfies every format invariant,
    // including the strict-only ones.
    let report = nok_verify::verify_db(&db, nok_verify::VerifyOptions::strict());
    assert!(
        report.is_clean(),
        "analyzer on fresh build of {xml}: {report}"
    );
    let doc = Document::parse(xml).unwrap();
    let oracle = NaiveEvaluator::new(&doc);
    let expected: Vec<String> = oracle
        .eval_str(query)
        .unwrap()
        .iter()
        .map(|n| oracle.dewey(n).to_string())
        .collect();
    for strategy in [
        StartStrategy::Auto,
        StartStrategy::Scan,
        StartStrategy::TagIndex,
        StartStrategy::ValueIndex,
    ] {
        let (hits, _) = db
            .query_with(query, QueryOptions { strategy })
            .unwrap_or_else(|e| panic!("{query} with {strategy:?}: {e}"));
        let got: Vec<String> = hits.iter().map(|m| m.dewey.to_string()).collect();
        assert_eq!(got, expected, "{query} with {strategy:?} on {xml}");
    }
}

#[test]
fn single_element_document() {
    for q in ["/only", "//only", "/only[nothing]", "/nope"] {
        check("<only/>", q);
    }
    check("<only>text</only>", r#"/only[.="text"]"#);
}

#[test]
fn recursive_same_tag_nesting() {
    let xml = "<a><a><a><a/></a></a><a/></a>";
    for q in ["//a", "/a/a", "/a/a/a", "//a//a", "//a[a]", "//a[a/a]"] {
        check(xml, q);
    }
}

#[test]
fn deep_chain_document() {
    let mut xml = String::new();
    for _ in 0..60 {
        xml.push_str("<d>");
    }
    xml.push('x');
    for _ in 0..60 {
        xml.push_str("</d>");
    }
    for q in ["//d", "/d/d/d", "//d[d]", r#"//d[.="x"]"#] {
        check(&xml, q);
    }
}

#[test]
fn very_wide_fanout() {
    let mut xml = String::from("<r>");
    for i in 0..2000 {
        xml.push_str(&format!("<c i=\"{i}\"/>"));
    }
    xml.push_str("<special/></r>");
    for q in [
        "/r/c",
        "//special",
        "/r/special",
        "/r/c/following-sibling::special",
    ] {
        check(&xml, q);
    }
}

#[test]
fn predicates_on_every_spine_node() {
    let xml = "<r><a k1=\"1\"><b k2=\"2\"><c>v</c></b></a><a><b><c>w</c></b></a></r>";
    for q in [
        "/r/a[@k1]/b[@k2]/c",
        r#"/r/a/b/c[.="w"]"#,
        "/r/a[@k1=\"1\"][b]/b[c]/c",
        "//a[@k1]//c",
    ] {
        check(xml, q);
    }
}

#[test]
fn values_with_collision_prone_content() {
    // Equal values across different tags — the hashed value index must
    // disambiguate through the data file, and starting-point lifting must
    // not confuse the two.
    let xml = r#"<r>
        <x><name>shared</name></x>
        <y><name>shared</name></y>
        <x><title>shared</title></x>
    </r>"#;
    for q in [
        r#"/r/x[name="shared"]"#,
        r#"/r/y[name="shared"]"#,
        r#"//x[title="shared"]"#,
        r#"//name[.="shared"]"#,
    ] {
        check(xml, q);
    }
}

#[test]
fn unicode_tags_and_values() {
    let xml = "<livres><livre prix=\"10€\"><titre>Élémentaire</titre></livre></livres>";
    check(xml, "/livres/livre/titre");
    check(xml, r#"//livre[titre="Élémentaire"]"#);
    check(xml, r#"//livre[@prix="10€"]"#);
}

#[test]
fn numeric_edge_values() {
    let xml = r#"<r><p>0</p><p>-5</p><p>3.14159</p><p>1e3</p><p>nan-ish</p></r>"#;
    for q in [
        "/r/p[.>=0]",
        "/r/p[.<0]",
        "/r/p[.=1000]",
        "/r/p[.!=0]",
        "/r/p[.<=3.15]",
    ] {
        check(xml, q);
    }
}

#[test]
fn multi_fragment_chains() {
    let xml = r#"<lib>
      <sec><bk><au><nm>Ann</nm></au></bk></sec>
      <sec><bk><au><nm>Bob</nm></au></bk><bk/></sec>
    </lib>"#;
    for q in [
        "/lib//bk//nm",
        "//sec//au",
        "/lib//bk[au]",
        "//sec[.//nm=\"Bob\"]//bk",
        "//au[nm]/following::bk",
    ] {
        check(xml, q);
    }
}

#[test]
fn empty_results_do_not_disturb_strategies() {
    let xml = "<r><a><b/></a></r>";
    for q in [
        "/r/a[zz]",
        "//zz",
        r#"/r/a[b="no such value"]"#,
        "/r/zz/b",
        "//a[b][zz]",
    ] {
        check(xml, q);
    }
}

#[test]
fn query_stats_reflect_plan_choices() {
    // Enough filler that three index starts cost less than one pass over
    // the document (the planner prices both routes in nanoseconds).
    let mut xml = String::from("<r>");
    for _ in 0..3 {
        xml.push_str("<a><k>v1</k><f1/><f2/><f3/><f4/><f5/><f6/><f7/></a>");
    }
    for _ in 0..100 {
        xml.push_str("<a><j>v2</j><f1/><f2/><f3/><f4/><f5/><f6/><f7/></a>");
    }
    xml.push_str("</r>");
    let xml = xml.as_str();
    let db = XmlDb::build_in_memory(xml).unwrap();
    // Value constraint present → Auto must pick the value index.
    let (_, stats) = db
        .query_with(r#"/r/a[k="v1"]"#, QueryOptions::default())
        .unwrap();
    assert!(stats.strategies.contains(&StrategyUsed::ValueIndex));
    // No value constraint, selective tag → tag index.
    let (_, stats) = db.query_with("//k", QueryOptions::default()).unwrap();
    assert!(stats.strategies.contains(&StrategyUsed::TagIndex));
}
