//! Property-based testing of the synopsis: its block codec and its folded
//! path summary.
//!
//! * **Round-trip**: any synopsis assembled through the mutation API
//!   encodes to a canonical (version 4) block that decodes back to the
//!   same counters, depth bounds, path counts, and stored node count — and
//!   re-encodes byte-identically.
//! * **Adversarial input**: `from_bytes` over truncations, single-byte
//!   corruptions, and arbitrary byte soup never panics; it answers
//!   `Some(..)` only for blocks that re-encode consistently.
//! * **Folding is sound**: for random documents folded at a tiny budget
//!   and random `/`, `//`, `*` chains, an estimate is never below the true
//!   support, is the true support unless an open state contributed, and a
//!   zero-support proof is issued only for chains that truly match nothing
//!   — before and after a random insert/delete sequence, which must leave
//!   exactly the recount of the final document in the kept shape.

use std::collections::HashMap;

use proptest::prelude::*;

use nok_core::{PathAxis, PathStep, Synopsis, TagCode};

/// A random synopsis built exclusively through the public mutation API,
/// exactly as build/update do, paired with a random stored node count.
fn arb_synopsis() -> BoxedStrategy<(u64, Synopsis)> {
    let paths = proptest::collection::vec(
        (
            proptest::collection::vec(0u16..12, 1..6), // root path, as tag codes
            1u64..500,                                 // node count on that path
        ),
        0..24,
    );
    let tags = proptest::collection::vec((0u16..12, 1u64..500), 0..12);
    let depths = proptest::collection::vec((0u16..14, any::<u16>()), 0..12);
    (paths, tags, depths, any::<u64>())
        .prop_map(|(paths, tags, depths, node_count)| {
            let mut s = Synopsis::new();
            for (path, n) in paths {
                let tags: Vec<TagCode> = path.into_iter().map(TagCode).collect();
                s.add_path_count(&tags, n);
            }
            for (t, n) in tags {
                s.add_tag_count(TagCode(t), n);
            }
            for (t, level) in depths {
                s.raise_depth_bound(TagCode(t), level);
            }
            (node_count, s)
        })
        .boxed()
}

/// Every trie node as `(path, count, residual)`, in canonical order.
fn nodes_of(s: &Synopsis) -> Vec<(Vec<TagCode>, u64, u64)> {
    let mut nodes = Vec::new();
    s.paths()
        .for_each_node(|tags, count, residual| nodes.push((tags.to_vec(), count, residual)));
    nodes
}

/// A document as a parent array: node 0 is the root, every other node
/// hangs below an earlier one; tags come from a five-letter alphabet so
/// paths repeat and recurse.
#[derive(Debug, Clone)]
struct Doc {
    parent: Vec<Option<usize>>,
    tag: Vec<TagCode>,
    /// Deleted nodes stay in the arrays so indices keep their meaning.
    live: Vec<bool>,
}

impl Doc {
    fn path(&self, n: usize) -> Vec<TagCode> {
        let mut path = vec![self.tag[n]];
        let mut cur = n;
        while let Some(p) = self.parent[cur] {
            path.push(self.tag[p]);
            cur = p;
        }
        path.reverse();
        path
    }

    fn nodes(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.tag.len()).filter(|&n| self.live[n])
    }

    fn is_leaf(&self, n: usize) -> bool {
        !self.nodes().any(|c| self.parent[c] == Some(n))
    }

    fn synopsis(&self, budget: usize) -> Synopsis {
        let mut s = Synopsis::new(); // far more room than these documents need
        for n in self.nodes() {
            s.add_path_count(&self.path(n), 1);
        }
        s.fold_to(budget);
        s
    }
}

fn arb_doc() -> impl Strategy<Value = Doc> {
    proptest::collection::vec((any::<u32>(), 0u16..5), 1..60).prop_map(|spec| Doc {
        parent: (0..spec.len())
            .map(|i| (i > 0).then(|| spec[i].0 as usize % i))
            .collect(),
        tag: spec.iter().map(|&(_, t)| TagCode(t)).collect(),
        live: vec![true; spec.len()],
    })
}

fn arb_chain() -> impl Strategy<Value = Vec<PathStep>> {
    let step = (any::<bool>(), proptest::option::of(0u16..6)).prop_map(|(child, t)| PathStep {
        axis: if child {
            PathAxis::Child
        } else {
            PathAxis::Descendant
        },
        tag: t.map(TagCode),
    });
    proptest::collection::vec(step, 1..5)
}

/// Does a root path satisfy a chain? The positions a prefix of the chain
/// can have consumed, advanced step by step.
fn satisfies(path: &[TagCode], chain: &[PathStep]) -> bool {
    let mut at = vec![0usize];
    for step in chain {
        let ok = |i: usize| i < path.len() && step.tag.is_none_or(|t| t == path[i]);
        let mut next: Vec<usize> = Vec::new();
        for &i in &at {
            match step.axis {
                PathAxis::Child => next.extend(ok(i).then_some(i + 1)),
                PathAxis::Descendant => {
                    next.extend((i..path.len()).filter(|&j| ok(j)).map(|j| j + 1))
                }
            }
        }
        next.sort_unstable();
        next.dedup();
        at = next;
    }
    at.contains(&path.len())
}

/// Everything the folded summary `s` promises about document `doc`.
fn check_against(doc: &Doc, s: &Synopsis, chains: &[Vec<PathStep>]) {
    let trie = s.paths();
    prop_assert_eq!(trie.total_count(), doc.nodes().count() as u64);
    // The recount of the document in the kept shape: a node whose whole
    // path the trie spells out counts there, any other in the residual of
    // the node its path leaves the trie at.
    let mut recount: HashMap<Vec<TagCode>, (u64, u64)> = HashMap::new();
    for n in doc.nodes() {
        let path = doc.path(n);
        let kept = trie.matched_prefix(&path);
        let slot = recount.entry(path[..kept].to_vec()).or_default();
        if kept == path.len() {
            slot.0 += 1;
        } else {
            slot.1 += 1;
            prop_assert_eq!(trie.exact_count(&path), None);
        }
    }
    for (path, count, residual) in nodes_of(s) {
        let want = recount.remove(&path).unwrap_or_default();
        prop_assert_eq!((count, residual), want, "trie node {:?}", path);
        prop_assert_eq!(trie.exact_count(&path), Some(count));
    }
    prop_assert!(recount.is_empty(), "unvisited trie nodes: {:?}", recount);

    for chain in chains {
        let matching: Vec<usize> = doc
            .nodes()
            .filter(|&n| satisfies(&doc.path(n), chain))
            .collect();
        // Nodes at or below a matching node.
        let volume = doc
            .nodes()
            .filter(|&n| {
                std::iter::successors(Some(n), |&a| doc.parent[a]).any(|a| matching.contains(&a))
            })
            .count() as u64;
        let start = nok_core::PathTrie::start_states();
        let states = chain
            .iter()
            .fold(start, |st, &step| trie.advance(&st, step));
        let (support, subtree) = (trie.support_of(&states), trie.subtree_support_of(&states));
        if states.is_open() {
            prop_assert!(support >= matching.len() as u64, "{:?}", chain);
            prop_assert!(subtree >= volume, "{:?}", chain);
        } else {
            prop_assert_eq!(support, matching.len() as u64, "{:?}", chain);
            prop_assert_eq!(subtree, volume, "{:?}", chain);
        }
        prop_assert!(subtree <= trie.total_count());
        if states.is_empty() {
            prop_assert!(matching.is_empty(), "false proof for {:?}", chain);
        }
    }

    // Fold → encode → decode → re-encode is byte-identical.
    let bytes = s.to_bytes(trie.total_count());
    let (_, decoded) = Synopsis::from_bytes(&bytes).expect("canonical block must decode");
    prop_assert_eq!(nodes_of(&decoded), nodes_of(s));
    prop_assert_eq!(decoded.to_bytes(trie.total_count()), bytes);
}

proptest! {
    #[test]
    fn folded_summaries_bound_support_and_prove_only_what_is_empty(
        doc in arb_doc(),
        budget in 0usize..14,
        chains in proptest::collection::vec(arb_chain(), 8),
    ) {
        let s = doc.synopsis(budget);
        prop_assert!(s.distinct_paths() <= budget as u64);
        check_against(&doc, &s, &chains);
    }

    #[test]
    fn updates_leave_the_recount_of_the_final_document(
        doc in arb_doc(),
        budget in 0usize..14,
        ops in proptest::collection::vec((any::<bool>(), any::<u32>(), 0u16..6), 0..40),
        chains in proptest::collection::vec(arb_chain(), 8),
    ) {
        let mut doc = doc;
        let mut s = doc.synopsis(budget);
        for (insert, pick, tag) in ops {
            let live: Vec<usize> = doc.nodes().collect();
            let target = live[pick as usize % live.len()];
            if insert {
                doc.parent.push(Some(target));
                doc.tag.push(TagCode(tag));
                doc.live.push(true);
                s.add_path_count(&doc.path(doc.tag.len() - 1), 1);
            } else if target != 0 && doc.is_leaf(target) {
                s.sub_path_count(&doc.path(target), 1);
                doc.live[target] = false;
            }
        }
        check_against(&doc, &s, &chains);
    }

    #[test]
    fn round_trips_through_the_block_codec(case in arb_synopsis()) {
        let (node_count, s) = case;
        let bytes = s.to_bytes(node_count);
        let (decoded_count, decoded) =
            Synopsis::from_bytes(&bytes).expect("canonical block must decode");
        prop_assert_eq!(decoded_count, node_count);
        // Tag counters and depth bounds survive exactly.
        for (t, c) in s.tag_counts() {
            prop_assert_eq!(decoded.tag_count(t), c);
        }
        for t in (0..14).map(TagCode) {
            prop_assert_eq!(decoded.depth_bound(t), s.depth_bound(t));
        }
        prop_assert_eq!(u16::from_be_bytes([bytes[8], bytes[9]]), 4);
        // Path counts survive exactly, in both directions.
        prop_assert_eq!(decoded.distinct_paths(), s.distinct_paths());
        prop_assert_eq!(nodes_of(&s), nodes_of(&decoded));
        // The encoding is canonical: decode-then-encode is byte-identical.
        prop_assert_eq!(decoded.to_bytes(decoded_count), bytes);
    }

    #[test]
    fn truncations_never_panic(case in arb_synopsis(), cut in any::<u64>()) {
        let (node_count, s) = case;
        let bytes = s.to_bytes(node_count);
        // Every strict prefix is rejected (without panicking); the header
        // alone is >= 18 bytes, so the block is never empty.
        let cut = (cut as usize) % bytes.len();
        prop_assert!(Synopsis::from_bytes(&bytes[..cut]).is_none());
        // Trailing garbage is rejected too.
        let mut extended = bytes.clone();
        extended.push(0);
        prop_assert!(Synopsis::from_bytes(&extended).is_none());
    }

    #[test]
    fn corruptions_never_panic(case in arb_synopsis(), pos in any::<u64>(), xor in 1u8..=255) {
        let (node_count, s) = case;
        let mut bytes = s.to_bytes(node_count);
        let i = (pos as usize) % bytes.len();
        bytes[i] ^= xor;
        // Must not panic; if it still decodes (the flipped byte landed in
        // a count), the result must re-encode without panicking either.
        if let Some((nc, decoded)) = Synopsis::from_bytes(&bytes) {
            let _ = decoded.to_bytes(nc);
        }
    }

    #[test]
    fn byte_soup_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Synopsis::from_bytes(&bytes);
    }
}
