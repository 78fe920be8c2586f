//! Property tests on the succinct store itself: for random documents and
//! random page sizes, physical navigation must agree with the DOM oracle,
//! intervals must be properly nested, and the level arrays must satisfy the
//! paper's invariants.

#![cfg(test)]

use std::sync::Arc;

use proptest::prelude::*;

use nok_core::cursor::{self, DocScan};
use nok_core::store::{BuildOptions, StructStore};
use nok_core::TagDict;
use nok_pager::{BufferPool, MemStorage};
use nok_xml::{Document, NodeId, Reader};

const TAGS: [&str; 4] = ["a", "b", "c", "d"];

fn arb_tree(depth: u32) -> BoxedStrategy<String> {
    let leaf = (0usize..TAGS.len()).prop_map(|t| format!("<{}/>", TAGS[t]));
    if depth == 0 {
        return leaf.boxed();
    }
    (
        0usize..TAGS.len(),
        prop::collection::vec(arb_tree(depth - 1), 0..4),
    )
        .prop_map(|(t, kids)| format!("<{0}>{1}</{0}>", TAGS[t], kids.concat()))
        .boxed()
}

fn arb_doc() -> impl Strategy<Value = String> {
    arb_tree(4).prop_map(|t| format!("<r>{t}</r>"))
}

fn build(xml: &str, page_size: usize) -> (StructStore<MemStorage>, TagDict) {
    let pool = Arc::new(BufferPool::new(MemStorage::with_page_size(page_size)));
    let mut dict = TagDict::new();
    let store = StructStore::build(
        pool,
        Reader::content_only(xml),
        &mut dict,
        BuildOptions::default(),
        &mut (),
    )
    .expect("build");
    // Post-condition of every build: the format analyzer finds nothing.
    let report = nok_verify::verify_store(&store);
    assert!(report.is_clean(), "analyzer on fresh store: {report}");
    (store, dict)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// FIRST-CHILD and FOLLOWING-SIBLING agree with the DOM on every node,
    /// for page sizes from pathological (64B) to normal.
    #[test]
    fn navigation_matches_dom(xml in arb_doc(), page_pow in 6u32..13) {
        let page_size = 1usize << page_pow;
        let doc = Document::parse(&xml).expect("dom");
        let (store, dict) = build(&xml, page_size);

        let dom_nodes: Vec<NodeId> = doc.preorder().collect();
        let store_nodes: Vec<_> = DocScan::new(&store)
            .map(|r| r.expect("scan"))
            .collect();
        prop_assert_eq!(dom_nodes.len(), store_nodes.len());
        let addr_of: std::collections::HashMap<_, _> = dom_nodes
            .iter()
            .copied()
            .zip(store_nodes.iter().map(|s| s.addr))
            .collect();

        for (dom_id, item) in dom_nodes.iter().zip(&store_nodes) {
            prop_assert_eq!(doc.tag(*dom_id).unwrap(), dict.name(item.tag));
            prop_assert_eq!(doc.level(*dom_id) as u16, item.level);
            let dom_fc = doc.first_child(*dom_id).map(|c| addr_of[&c]);
            let store_fc = cursor::first_child(&store, item.addr).expect("fc");
            prop_assert_eq!(dom_fc, store_fc, "first_child at {}", item.dewey);
            let dom_fs = doc.next_sibling(*dom_id).map(|c| addr_of[&c]);
            let store_fs = cursor::following_sibling(&store, item.addr).expect("fs");
            prop_assert_eq!(dom_fs, store_fs, "following_sibling at {}", item.dewey);
        }
    }

    /// Intervals are properly nested: for any two nodes they are disjoint
    /// or one strictly contains the other, and parent contains child.
    #[test]
    fn intervals_properly_nested(xml in arb_doc()) {
        let (store, _) = build(&xml, 128);
        let items: Vec<_> = DocScan::new(&store).map(|r| r.unwrap()).collect();
        let intervals: Vec<(u64, u64)> = items
            .iter()
            .map(|it| cursor::interval(&store, it.addr).expect("interval"))
            .collect();
        for (i, a) in intervals.iter().enumerate() {
            prop_assert!(a.0 < a.1);
            for b in intervals.iter().skip(i + 1) {
                let disjoint = a.1 < b.0 || b.1 < a.0;
                let a_in_b = b.0 < a.0 && a.1 < b.1;
                let b_in_a = a.0 < b.0 && b.1 < a.1;
                prop_assert!(
                    disjoint || a_in_b || b_in_a,
                    "partial overlap: {a:?} vs {b:?}"
                );
            }
        }
        // Ancestor relation via Dewey prefixes must equal containment.
        for (i, x) in items.iter().enumerate() {
            for (j, y) in items.iter().enumerate() {
                if i == j { continue; }
                let anc = x.dewey.is_ancestor_of(&y.dewey);
                let contains = intervals[i].0 < intervals[j].0 && intervals[j].1 < intervals[i].1;
                prop_assert_eq!(anc, contains, "{} vs {}", x.dewey, y.dewey);
            }
        }
    }

    /// Page-level invariants of §4.2: st chains, lo/hi are exact bounds,
    /// and the level sequence ends at 0.
    #[test]
    fn page_header_invariants(xml in arb_doc(), page_pow in 6u32..10) {
        let (store, _) = build(&xml, 1usize << page_pow);
        let mut prev_end = 0u16;
        for r in 0..store.chain_len() {
            let de = store.dir_at(r).unwrap();
            let (header, bounds, end) = store
                .with_page(de.id, |page| (page.header, page.level_bounds(), page.end_level()))
                .expect("read");
            prop_assert_eq!(header.st, prev_end, "st chain broken at rank {}", r);
            prop_assert_eq!((header.lo, header.hi), bounds);
            prev_end = end;
        }
        prop_assert_eq!(prev_end, 0, "document does not close at level 0");
    }
}
