//! End-to-end test on the paper's running example (Figure 1): build the
//! full storage from the bibliography document and evaluate the paper's
//! query with every strategy, plus a battery of related queries.

use nok_core::{Dewey, QueryOptions, StartStrategy, XmlDb};

const BIB: &str = r#"<bib>
  <book year="1994">
    <title>TCP/IP Illustrated</title>
    <author><last>Stevens</last><first>W.</first></author>
    <publisher>Addison-Wesley</publisher>
    <price>65.95</price>
  </book>
  <book year="1992">
    <title>Advanced Programming in the Unix Environment</title>
    <author><last>Stevens</last><first>W.</first></author>
    <publisher>Addison-Wesley</publisher>
    <price>65.95</price>
  </book>
  <book year="2000">
    <title>Data on the Web</title>
    <author><last>Abiteboul</last><first>Serge</first></author>
    <author><last>Buneman</last><first>Peter</first></author>
    <author><last>Suciu</last><first>Dan</first></author>
    <publisher>Morgan Kaufmann Publishers</publisher>
    <price>39.95</price>
  </book>
  <book year="1999">
    <title>The Economics of Technology and Content for Digital TV</title>
    <editor>
      <last>Gerbarg</last><first>Darcy</first>
      <affiliation>CITI</affiliation>
    </editor>
    <publisher>Kluwer Academic Publishers</publisher>
    <price>129.95</price>
  </book>
</bib>"#;

#[test]
fn the_papers_example_query() {
    let db = XmlDb::build_in_memory(BIB).unwrap();
    // "find all books written by Stevens whose price is less than 100"
    let hits = db
        .query(r#"//book[author/last="Stevens"][price<100]"#)
        .unwrap();
    assert_eq!(hits.len(), 2);
    // Both are books; their Dewey ids are the first two children of bib.
    let deweys: Vec<String> = hits.iter().map(|m| m.dewey.to_string()).collect();
    assert_eq!(deweys, vec!["0.0", "0.1"]);
    for m in &hits {
        assert_eq!(db.tag_name_of(m).unwrap(), "book");
    }
}

#[test]
fn all_strategies_agree_on_many_queries() {
    let db = XmlDb::build_in_memory(BIB).unwrap();
    let queries = [
        r#"//book[author/last="Stevens"][price<100]"#,
        "/bib/book/title",
        "//last",
        "//book[editor]/price",
        "/bib/book[@year>1993]",
        r#"//book[publisher="Addison-Wesley"]"#,
        "//author/first",
        "/bib//affiliation",
    ];
    for q in queries {
        let mut answers: Vec<Vec<String>> = Vec::new();
        for strategy in [
            StartStrategy::Auto,
            StartStrategy::Scan,
            StartStrategy::TagIndex,
            StartStrategy::ValueIndex,
        ] {
            let (hits, _) = db.query_with(q, QueryOptions { strategy }).unwrap();
            answers.push(hits.iter().map(|m| m.dewey.to_string()).collect());
        }
        for a in &answers[1..] {
            assert_eq!(*a, answers[0], "strategies disagree on {q}");
        }
    }
}

#[test]
fn values_round_trip_through_the_data_file() {
    let db = XmlDb::build_in_memory(BIB).unwrap();
    let prices = db.query("//price").unwrap();
    let vals: Vec<String> = prices
        .iter()
        .map(|m| db.value_of(m).unwrap().unwrap())
        .collect();
    assert_eq!(vals, vec!["65.95", "65.95", "39.95", "129.95"]);
    // Shared values point at one record (dedup), still both readable.
    assert_eq!(vals[0], vals[1]);
}

#[test]
fn statistics_of_the_example() {
    let db = XmlDb::build_in_memory(BIB).unwrap();
    let st = db.stats(BIB.len() as u64).unwrap();
    // 4 books with attrs: bib(1) + 4*(book + @year) + title×4 + author×5 +
    // last/first pairs ×5 + editor(1) + affiliation(1) + publisher×4 + price×4
    assert_eq!(st.nodes, db.node_count());
    assert_eq!(st.max_depth, 4); // bib/book/author/last
    assert!(st.tags >= 10);
    // |tree| is measured: one page header, the count word, two parenthesis
    // bits and a one-byte tag code per node — against the paper's 3 B/node.
    assert_eq!(
        st.tree_bytes,
        12 + 2 + (2 * st.nodes).div_ceil(8) + st.nodes
    );
    assert_eq!(st.paper_tree_bytes(), st.nodes * 3);
}

#[test]
fn example2_walkthrough_from_the_paper() {
    // Example 2 matches b[c/g="Stevens"][j<100] starting at the first b.
    // With real tag names that is the example query restricted to one book.
    let db = XmlDb::build_in_memory(BIB).unwrap();
    let first_book = db
        .query(r#"/bib/book[author/last="Stevens"][price<100]"#)
        .unwrap();
    assert_eq!(first_book[0].dewey, Dewey::from_components(vec![0, 0]));
}
