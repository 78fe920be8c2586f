//! The cursor primitives against the DOM: on every node of all five datagen
//! datasets, at 256-byte and 4 KiB pages, `first_child`,
//! `following_sibling`, `subtree_close`, `next_entry` and `descendants`
//! must give what `nok_xml::dom` says. The corpora exercise bushy, deep and
//! recursive shapes at page boundaries the synthetic unit tests don't hit.

use std::sync::Arc;

use nok_core::cursor::{descendants, first_child, following_sibling, next_entry, subtree_close};
use nok_core::{BuildOptions, CoreResult, NodeAddr, StructStore, TagCode, TagDict};
use nok_datagen::all_datasets;
use nok_pager::{BufferPool, MemStorage};
use nok_xml::{Document, NodeId, Reader};

/// One node of the store's view of a DOM: an element, or an attribute
/// stored as a leading child `@name`.
struct OracleNode {
    tag: String,
    level: u16,
    /// Positions of the node's open and close in the entry stream.
    open: usize,
    close: usize,
    first_child: Option<usize>,
    next_sibling: Option<usize>,
}

/// Append `id`'s subtree to `nodes` in document order; `pos` is the entry
/// stream position. Returns the node's index.
fn add(
    doc: &Document,
    id: NodeId,
    level: u16,
    nodes: &mut Vec<OracleNode>,
    pos: &mut usize,
) -> usize {
    let me = nodes.len();
    nodes.push(OracleNode {
        tag: doc.tag(id).expect("element").to_string(),
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
        nodes.push(OracleNode {
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

fn check(name: &str, xml: &str, page_size: usize) {
    let pool = Arc::new(BufferPool::new(MemStorage::with_page_size(page_size)));
    let mut dict = TagDict::new();
    let store = StructStore::build(
        pool,
        Reader::content_only(xml),
        &mut dict,
        BuildOptions::default(),
        &mut (),
    )
    .unwrap();
    let doc = Document::parse(xml).unwrap();
    let mut nodes = Vec::new();
    let mut entries = 0;
    add(&doc, NodeId::ROOT, 1, &mut nodes, &mut entries);

    // Entry stream position -> address, from the directory's entry counts.
    let mut addr_at = Vec::with_capacity(entries);
    for r in 0..store.chain_len() {
        let de = store.dir_at(r).unwrap();
        addr_at.extend((0..de.entries).map(|entry| NodeAddr { page: de.id, entry }));
    }
    assert_eq!(addr_at.len(), entries, "{name}@{page_size}: entry count");
    let code = |n: &OracleNode| -> TagCode { dict.lookup(&n.tag).unwrap() };

    for (k, n) in nodes.iter().enumerate() {
        let addr = addr_at[n.open];
        let at = format!("{name}@{page_size}: node {k} ({}) at {addr}", n.tag);
        assert_eq!(store.tag_at(addr).unwrap(), code(n), "{at}: tag");
        let child = n.first_child.map(|c| addr_at[nodes[c].open]);
        assert_eq!(
            first_child(&store, addr).unwrap(),
            child,
            "{at}: first_child"
        );
        let sibling = n.next_sibling.map(|s| addr_at[nodes[s].open]);
        assert_eq!(
            following_sibling(&store, addr).unwrap(),
            sibling,
            "{at}: sibling"
        );
        assert_eq!(
            subtree_close(&store, addr).unwrap(),
            addr_at[n.close],
            "{at}: close"
        );
        assert_eq!(
            next_entry(&store, addr).unwrap(),
            addr_at.get(n.open + 1).copied(),
            "{at}: next"
        );
        let inside: Vec<_> = nodes[k + 1..]
            .iter()
            .take_while(|d| d.open < n.close)
            .map(|d| (addr_at[d.open], code(d), d.level))
            .collect();
        let got = descendants(&store, addr)
            .unwrap()
            .collect::<CoreResult<Vec<_>>>()
            .unwrap();
        assert_eq!(got, inside, "{at}: descendants");
    }
}

#[test]
fn navigation_matches_dom_on_all_datasets() {
    for ds in all_datasets(0.01) {
        for page_size in [256, 4096] {
            check(ds.kind.name(), &ds.xml, page_size);
        }
    }
}
