//! Pattern trees and their partition into NoK pattern trees (paper §2).
//!
//! A [`PatternTree`] is the graph of constraints a path expression denotes:
//! nodes carry tag-name and value constraints, edges carry structural
//! constraints (`/` child, `//` descendant, ⊲ following-sibling, ◄
//! following). Node 0 is the virtual *document node* ("root" in the paper's
//! Figure 1b): the parent of the root element.
//!
//! A **NoK pattern tree** is a maximal fragment connected by local
//! relationships only (`/` and ⊲). [`PatternTree::partition`] cuts the tree
//! at every `//` and ◄ edge, producing the fragment forest plus the cut
//! edges — the paper's evaluation units. The paper joins the fragments'
//! partial results along the cut edges; this engine decides them inside
//! one walk (`core::scan`).

use std::collections::{HashMap, HashSet};

use crate::error::{CoreError, CoreResult};
use crate::pattern::{Axis, NameTest, PathExpr, Predicate, Step, ValueCmp};

/// Index of a node within a [`PatternTree`].
pub type PNodeId = usize;

/// Structural edge kinds in the pattern tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// `/` — local; stays inside a NoK fragment.
    Child,
    /// `//` — global; becomes a cut edge.
    Descendant,
    /// ◄ (`following::`) — global; becomes a cut edge.
    Following,
}

/// One pattern-tree node.
#[derive(Debug, Clone)]
pub struct PNode {
    /// Tag-name constraint.
    pub test: NameTest,
    /// Value constraints (`[.="x"]`, or the comparison of a predicate whose
    /// path ends here). All must hold.
    pub value_cmps: Vec<ValueCmp>,
    /// Outgoing structural edges.
    pub children: Vec<(EdgeKind, PNodeId)>,
    /// Parent node (None only for the virtual document node).
    pub parent: Option<PNodeId>,
}

/// A parsed, constraint-graph form of a path expression.
#[derive(Debug, Clone)]
pub struct PatternTree {
    /// Node arena; index 0 is the virtual document node.
    pub nodes: Vec<PNode>,
    /// The returning node (underlined in the paper's figures).
    pub returning: PNodeId,
    /// ⊲ arcs: `(before, after)` — both children of the same parent.
    pub order_arcs: Vec<(PNodeId, PNodeId)>,
    /// The `= "literal"` constraints in the order the path text gives
    /// them: `(node, index into its value_cmps)`. The `i`-th is the
    /// query's literal slot `$i+1` ([`crate::pattern::PathExpr::shape`]).
    pub slots: Vec<(PNodeId, usize)>,
}

/// The virtual document node's id.
pub const DOC_NODE: PNodeId = 0;

impl PatternTree {
    /// Build the pattern tree for a parsed path expression.
    pub fn from_path(path: &PathExpr) -> CoreResult<PatternTree> {
        let mut t = PatternTree {
            nodes: vec![PNode {
                test: NameTest::Wildcard,
                value_cmps: Vec::new(),
                children: Vec::new(),
                parent: None,
            }],
            returning: DOC_NODE,
            order_arcs: Vec::new(),
            slots: Vec::new(),
        };
        let last = t.add_steps(DOC_NODE, &path.steps)?;
        t.returning = last;
        Ok(t)
    }

    /// Convenience: parse + build.
    pub fn parse(input: &str) -> CoreResult<PatternTree> {
        PatternTree::from_path(&PathExpr::parse(input)?)
    }

    fn add_node(&mut self, test: NameTest, parent: PNodeId, kind: EdgeKind) -> PNodeId {
        let id = self.nodes.len();
        self.nodes.push(PNode {
            test,
            value_cmps: Vec::new(),
            children: Vec::new(),
            parent: Some(parent),
        });
        self.nodes[parent].children.push((kind, id));
        id
    }

    /// Add a chain of steps under `ctx`; returns the last node added.
    fn add_steps(&mut self, ctx: PNodeId, steps: &[Step]) -> CoreResult<PNodeId> {
        let mut cur = ctx;
        for step in steps {
            let next = match step.axis {
                Axis::Child => self.add_node(step.test.clone(), cur, EdgeKind::Child),
                Axis::Descendant => self.add_node(step.test.clone(), cur, EdgeKind::Descendant),
                Axis::FollowingSibling => {
                    let parent = self.nodes[cur]
                        .parent
                        .ok_or_else(|| CoreError::PathSyntax {
                            pos: 0,
                            msg: "following-sibling:: from the document node".into(),
                        })?;
                    let id = self.add_node(step.test.clone(), parent, EdgeKind::Child);
                    self.order_arcs.push((cur, id));
                    id
                }
                Axis::Following => {
                    // ◄: structurally anchored anywhere in the document; the
                    // ordering constraint is the Following edge itself.
                    self.add_node(step.test.clone(), cur, EdgeKind::Following)
                }
            };
            for pred in &step.predicates {
                self.add_predicate(next, pred)?;
            }
            cur = next;
        }
        Ok(cur)
    }

    fn add_predicate(&mut self, ctx: PNodeId, pred: &Predicate) -> CoreResult<()> {
        if pred.path.is_empty() {
            let cmp = pred.cmp.clone().ok_or_else(|| CoreError::PathSyntax {
                pos: 0,
                msg: "self predicate without comparison".into(),
            })?;
            self.push_cmp(ctx, cmp);
            return Ok(());
        }
        let last = self.add_steps(ctx, &pred.path)?;
        if let Some(cmp) = &pred.cmp {
            self.push_cmp(last, cmp.clone());
        }
        Ok(())
    }

    /// Add value constraint `cmp` to node `n`; a `= "literal"` takes the
    /// next slot.
    fn push_cmp(&mut self, n: PNodeId, cmp: ValueCmp) {
        if cmp.str_eq().is_some() {
            self.slots.push((n, self.nodes[n].value_cmps.len()));
        }
        self.nodes[n].value_cmps.push(cmp);
    }

    /// The literal of slot `slot` (see [`PatternTree::slots`]).
    pub(crate) fn slot_literal(&self, slot: usize) -> Option<&str> {
        let &(n, i) = self.slots.get(slot)?;
        self.nodes.get(n)?.value_cmps.get(i)?.str_eq()
    }

    /// Child-edge children of `n` (the local tree inside fragments).
    pub fn local_children(&self, n: PNodeId) -> impl Iterator<Item = PNodeId> + '_ {
        self.nodes[n]
            .children
            .iter()
            .filter(|(k, _)| *k == EdgeKind::Child)
            .map(|&(_, c)| c)
    }

    /// Number of structural-relationship edges of each kind, `(local,
    /// global)` — the statistic the paper quotes ("approximately 2/3 of
    /// structural relationships are /'s").
    pub fn edge_mix(&self) -> (usize, usize) {
        let mut local = self.order_arcs.len();
        let mut global = 0;
        for n in &self.nodes {
            for (k, _) in &n.children {
                match k {
                    EdgeKind::Child => local += 1,
                    _ => global += 1,
                }
            }
        }
        (local, global)
    }

    /// Partition into NoK fragments connected by cut edges.
    pub fn partition(&self) -> Partition {
        let mut frag_of: HashMap<PNodeId, usize> = HashMap::new();
        let mut fragments: Vec<Fragment> = Vec::new();
        let mut cut_edges: Vec<CutEdge> = Vec::new();

        // BFS over the whole tree; Child edges stay in the current fragment,
        // other edges open a new one.
        let mut queue: Vec<(PNodeId, usize)> = Vec::new();
        fragments.push(Fragment {
            root: DOC_NODE,
            members: vec![DOC_NODE],
        });
        frag_of.insert(DOC_NODE, 0);
        queue.push((DOC_NODE, 0));
        while let Some((n, f)) = queue.pop() {
            for &(kind, c) in &self.nodes[n].children {
                match kind {
                    EdgeKind::Child => {
                        frag_of.insert(c, f);
                        fragments[f].members.push(c);
                        queue.push((c, f));
                    }
                    EdgeKind::Descendant | EdgeKind::Following => {
                        let nf = fragments.len();
                        fragments.push(Fragment {
                            root: c,
                            members: vec![c],
                        });
                        frag_of.insert(c, nf);
                        cut_edges.push(CutEdge {
                            parent_frag: f,
                            src: n,
                            kind: if kind == EdgeKind::Descendant {
                                CutKind::Descendant
                            } else {
                                CutKind::Following
                            },
                            child_frag: nf,
                        });
                        queue.push((c, nf));
                    }
                }
            }
        }

        // Fragment-tree parent pointers and the hot path toward the
        // returning fragment.
        let returning_fragment = frag_of[&self.returning];
        let mut frag_parent: HashMap<usize, usize> = HashMap::new();
        for ce in &cut_edges {
            frag_parent.insert(ce.child_frag, ce.parent_frag);
        }
        let mut on_path: HashSet<usize> = HashSet::new();
        {
            let mut f = returning_fragment;
            on_path.insert(f);
            while let Some(&p) = frag_parent.get(&f) {
                on_path.insert(p);
                f = p;
            }
        }
        // Hot node per fragment: the returning node in its own fragment, the
        // cut source toward the returning fragment elsewhere on the path.
        let mut hot: HashMap<usize, PNodeId> = HashMap::new();
        hot.insert(returning_fragment, self.returning);
        for ce in &cut_edges {
            // An edge whose child fragment is on the returning path makes
            // its source the parent fragment's hot node (each fragment has
            // at most one such edge, since the path is a chain).
            if on_path.contains(&ce.child_frag) {
                hot.insert(ce.parent_frag, ce.src);
            }
        }

        Partition {
            fragments,
            cut_edges,
            frag_of,
            returning_fragment,
            hot,
        }
    }
}

/// One NoK fragment (a maximal `/`+⊲-connected subtree).
#[derive(Debug, Clone)]
pub struct Fragment {
    /// Fragment root (nearest node to the pattern root).
    pub root: PNodeId,
    /// All member nodes.
    pub members: Vec<PNodeId>,
}

/// The kind of a cut edge (a global structural relationship).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CutKind {
    /// `//` — target must be a descendant of the source's match.
    Descendant,
    /// ◄ — target must start after the source's match ends.
    Following,
}

/// An edge connecting two fragments.
#[derive(Debug, Clone, Copy)]
pub struct CutEdge {
    /// Fragment containing the source node.
    pub parent_frag: usize,
    /// The source pattern node (inside `parent_frag`).
    pub src: PNodeId,
    /// Join condition kind.
    pub kind: CutKind,
    /// The fragment rooted at the target.
    pub child_frag: usize,
}

/// The result of partitioning: fragments + cut edges + returning-path info,
/// as pattern node and fragment indices into the tree partitioned, which
/// it does not borrow: a cached plan owns both.
#[derive(Debug)]
pub struct Partition {
    /// Fragments; fragment 0 contains the virtual document node.
    pub fragments: Vec<Fragment>,
    /// Cut edges in discovery order.
    pub cut_edges: Vec<CutEdge>,
    /// Node → fragment index.
    pub frag_of: HashMap<PNodeId, usize>,
    /// Fragment containing the returning node.
    pub returning_fragment: usize,
    /// Per fragment: the "hot" node whose matches must be collected — the
    /// returning node in its own fragment; on ancestor fragments, the cut
    /// source leading toward it.
    pub hot: HashMap<usize, PNodeId>,
}

impl Partition {
    /// Pattern nodes in `frag` that must be matched *exhaustively* (never
    /// deleted from the frontier): the ancestors-or-self of the fragment's
    /// hot node. This is the paper's "a matched frontier should be deleted
    /// (if it is not the returning node)" rule, generalized to the whole
    /// root-to-returning path. `tree` is the tree partitioned.
    pub fn persistent_nodes(&self, tree: &PatternTree, frag: usize) -> HashSet<PNodeId> {
        let mut out = HashSet::new();
        if let Some(&h) = self.hot.get(&frag) {
            let mut cur = Some(h);
            let root = self.fragments[frag].root;
            while let Some(n) = cur {
                out.insert(n);
                if n == root {
                    break;
                }
                cur = tree.nodes[n].parent;
            }
        }
        out
    }

    /// Cut edges whose source lies in `frag`.
    pub fn cut_edges_from(&self, frag: usize) -> impl Iterator<Item = &CutEdge> {
        self.cut_edges.iter().filter(move |c| c.parent_frag == frag)
    }

    /// The cut edge whose target fragment is `frag` (None for fragment 0).
    pub fn incoming_cut(&self, frag: usize) -> Option<&CutEdge> {
        self.cut_edges.iter().find(|c| c.child_frag == frag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(s: &str) -> PatternTree {
        PatternTree::parse(s).expect("pattern build failed")
    }

    fn tag(t: &PatternTree, id: PNodeId) -> String {
        t.nodes[id].test.to_string()
    }

    #[test]
    fn simple_chain() {
        let t = build("/a/b/c");
        // doc, a, b, c
        assert_eq!(t.nodes.len(), 4);
        assert_eq!(tag(&t, 1), "a");
        assert_eq!(t.nodes[1].parent, Some(DOC_NODE));
        assert_eq!(t.returning, 3);
        assert_eq!(tag(&t, t.returning), "c");
        let (local, global) = t.edge_mix();
        assert_eq!((local, global), (3, 0));
    }

    #[test]
    fn paper_pattern_tree() {
        // Figure 1b: //book[author/last="Stevens"][price<100]
        let t = build(r#"//book[author/last="Stevens"][price<100]"#);
        // doc, book, author, last, price
        assert_eq!(t.nodes.len(), 5);
        let book = 1;
        assert_eq!(tag(&t, book), "book");
        assert_eq!(t.returning, book);
        assert_eq!(t.nodes[DOC_NODE].children[0].0, EdgeKind::Descendant);
        // last carries ="Stevens", price carries <100
        let last = t
            .nodes
            .iter()
            .position(|n| n.test == NameTest::Tag("last".into()))
            .unwrap();
        assert_eq!(t.nodes[last].value_cmps.len(), 1);
        let price = t
            .nodes
            .iter()
            .position(|n| n.test == NameTest::Tag("price".into()))
            .unwrap();
        assert_eq!(t.nodes[price].value_cmps.len(), 1);
        let (local, global) = t.edge_mix();
        assert_eq!(local, 3); // book/author, author/last, book/price
        assert_eq!(global, 1); // //book
    }

    #[test]
    fn following_sibling_creates_order_arc() {
        let t = build("/a/b/following-sibling::c");
        // doc, a, b, c; c's parent is a
        let c = t.returning;
        assert_eq!(tag(&t, c), "c");
        assert_eq!(t.nodes[c].parent, Some(1));
        assert_eq!(t.order_arcs, vec![(2, c)]);
        let (local, global) = t.edge_mix();
        assert_eq!((local, global), (4, 0)); // a, b, c edges + ⊲ arc: all local
    }

    #[test]
    fn self_value_constraint() {
        let t = build(r#"//last[.="Stevens"]"#);
        assert_eq!(t.nodes[t.returning].value_cmps.len(), 1);
    }

    #[test]
    fn partition_single_fragment() {
        let t = build("/a/b[c][d]/e");
        let p = t.partition();
        assert_eq!(p.fragments.len(), 1);
        assert!(p.cut_edges.is_empty());
        assert_eq!(p.returning_fragment, 0);
        // Persistent: doc -> a -> b -> e (path to returning).
        let persist = p.persistent_nodes(&t, 0);
        assert_eq!(persist.len(), 4);
        assert!(persist.contains(&t.returning));
    }

    #[test]
    fn partition_cuts_descendant_edges() {
        let t = build("/a//b/c");
        let p = t.partition();
        assert_eq!(p.fragments.len(), 2);
        assert_eq!(p.cut_edges.len(), 1);
        let ce = &p.cut_edges[0];
        assert_eq!(ce.kind, CutKind::Descendant);
        assert_eq!(tag(&t, ce.src), "a");
        assert_eq!(tag(&t, p.fragments[ce.child_frag].root), "b");
        assert_eq!(p.returning_fragment, ce.child_frag);
        // Hot node in fragment 0 is the cut source a; in fragment 1 it's c.
        assert_eq!(p.hot[&0], ce.src);
        assert_eq!(tag(&t, p.hot[&p.returning_fragment]), "c");
    }

    #[test]
    fn partition_nested_cuts() {
        let t = build("/a[x//y]//b[.//c]/d");
        let p = t.partition();
        // fragments: {doc,a,x}, {y}, {b,d}, {c} — wait: b[.//c]: c under b
        // via descendant; pattern: /a[x//y]//b[...]/d
        assert_eq!(p.fragments.len(), 4);
        assert_eq!(p.returning_fragment, p.frag_of[&t.returning]);
        // Only fragments on the doc→returning path have hot nodes.
        let ret_frag = p.returning_fragment;
        assert!(p.hot.contains_key(&0));
        assert!(p.hot.contains_key(&ret_frag));
        // The y-fragment and c-fragment are pure filters: no hot node.
        for (i, f) in p.fragments.iter().enumerate() {
            let names: Vec<String> = f.members.iter().map(|&m| tag(&t, m)).collect();
            if names == ["y"] || names == ["c"] {
                assert!(
                    !p.hot.contains_key(&i),
                    "filter fragment {names:?} got a hot node"
                );
            }
        }
    }

    #[test]
    fn partition_following_cut() {
        let t = build("/a/b/following::c");
        let p = t.partition();
        assert_eq!(p.fragments.len(), 2);
        assert_eq!(p.cut_edges[0].kind, CutKind::Following);
        assert_eq!(tag(&t, p.cut_edges[0].src), "b");
        assert_eq!(p.returning_fragment, 1);
    }

    #[test]
    fn edge_mix_statistic() {
        // 4 local + 2 global.
        let t = build("/a/b[c//d]/e//f");
        let (local, global) = t.edge_mix();
        assert_eq!(local, 4);
        assert_eq!(global, 2);
    }

    #[test]
    fn wildcard_nodes() {
        let t = build("/a/*/c");
        assert_eq!(t.nodes[2].test, NameTest::Wildcard);
    }

    #[test]
    fn incoming_cut_lookup() {
        let t = build("/a//b");
        let p = t.partition();
        assert!(p.incoming_cut(0).is_none());
        assert_eq!(p.incoming_cut(1).unwrap().parent_frag, 0);
    }
}
