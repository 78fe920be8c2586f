//! NoK pattern matching — the paper's Algorithm 1.
//!
//! [`NokMatcher::match_at`] matches one NoK pattern tree (a fragment from
//! [`crate::pattern_tree::Partition`]) against the subject subtree rooted at
//! a starting node, using only the two primitives `FIRST-CHILD` and
//! `FOLLOWING-SIBLING` of an abstract [`TreeAccess`] — so the same algorithm
//! runs over the physical store (single pass, Proposition 1) and over an
//! in-memory DOM (the logical-level algorithm of §3). The executor runs
//! neither route through it: both feed [`crate::scan::ScanMatcher`], and
//! this navigating matcher is the reference the tests hold that one to.
//!
//! Faithfulness notes:
//!
//! * The *frontier set* starts as the children with ⊲-indegree 0; a matched
//!   frontier node is deleted and its following-sibling successors join the
//!   frontier once their indegree drops to zero (lines 3, 9–12).
//! * Per the paper's §3 remark "a matched frontier should be deleted *(if it
//!   is not the returning node)*", nodes on the path from the fragment root
//!   to the returning node (the fragment's *persistent* nodes) are never
//!   deleted: they keep matching every remaining child so that **all**
//!   returning matches are collected, not just the first.
//! * On failure the result list is rolled back to its state at call entry
//!   (line 16's cleanup), which composes correctly under recursion.
//! * Each child of the subject node is visited exactly once per call;
//!   deeper nodes may be revisited once per matching pattern branch, giving
//!   the paper's `O(m·n)` bound.

use std::collections::{HashMap, HashSet};

use crate::error::CoreResult;
use crate::pattern::NameTest;
use crate::pattern_tree::{PNodeId, Partition, PatternTree, DOC_NODE};

/// Abstract subject-tree navigation: the only operations Algorithm 1 needs.
pub trait TreeAccess {
    /// Node handle (cheap to clone).
    type Node: Clone;

    /// The virtual document node (parent of the root element). Only
    /// `first_child` is ever invoked on it.
    fn doc_node(&self) -> Self::Node;

    /// First child in document order, or `None`.
    fn first_child(&self, n: &Self::Node) -> CoreResult<Option<Self::Node>>;

    /// Next sibling in document order, or `None`.
    fn following_sibling(&self, n: &Self::Node) -> CoreResult<Option<Self::Node>>;

    /// Whether the node satisfies a tag-name test.
    fn matches_test(&self, n: &Self::Node, test: &NameTest) -> CoreResult<bool>;

    /// The node's value (direct text / attribute value), if it has one.
    /// Only consulted for pattern nodes carrying value constraints.
    fn value(&self, n: &Self::Node) -> CoreResult<Option<String>>;
}

/// A hook consulted for every candidate (pattern node, subject node) pair —
/// the engine uses it to enforce cut-edge (structural-join) conditions
/// during matching. Return `Ok(true)` to accept.
pub type MatchHook<'h, N> = dyn FnMut(PNodeId, &N) -> CoreResult<bool> + 'h;

/// A compiled matcher for one NoK fragment.
pub struct NokMatcher<'p> {
    tree: &'p PatternTree,
    root: PNodeId,
    /// Local (Child-edge) children per fragment member.
    children: HashMap<PNodeId, Vec<PNodeId>>,
    /// ⊲ successors / indegrees among each member's children.
    order_succ: HashMap<PNodeId, Vec<PNodeId>>,
    order_indegree: HashMap<PNodeId, usize>,
    /// Never removed from the frontier (path to the returning node).
    persistent: HashSet<PNodeId>,
    /// Matches of these nodes are recorded in the output.
    collect: HashSet<PNodeId>,
}

impl<'p> NokMatcher<'p> {
    /// Compile the matcher for fragment `frag` of `partition`, the
    /// partition of `tree`.
    pub fn new(tree: &'p PatternTree, partition: &Partition, frag: usize) -> NokMatcher<'p> {
        let members: HashSet<PNodeId> = partition.fragments[frag].members.iter().copied().collect();
        let mut children: HashMap<PNodeId, Vec<PNodeId>> = HashMap::new();
        for &m in &members {
            children.insert(m, tree.local_children(m).collect());
        }
        let mut order_succ: HashMap<PNodeId, Vec<PNodeId>> = HashMap::new();
        let mut order_indegree: HashMap<PNodeId, usize> = HashMap::new();
        for &(before, after) in &tree.order_arcs {
            if members.contains(&before) && members.contains(&after) {
                order_succ.entry(before).or_default().push(after);
                *order_indegree.entry(after).or_default() += 1;
            }
        }
        let persistent = partition.persistent_nodes(tree, frag);
        let mut collect = HashSet::new();
        if let Some(&h) = partition.hot.get(&frag) {
            collect.insert(h);
        }
        NokMatcher {
            tree,
            root: partition.fragments[frag].root,
            children,
            order_succ,
            order_indegree,
            persistent,
            collect,
        }
    }

    /// The fragment root's pattern node.
    pub fn root(&self) -> PNodeId {
        self.root
    }

    /// Does `n` satisfy the node-local constraints of pattern node `p`
    /// (tag test, value comparisons, engine hook)?
    fn node_matches<T: TreeAccess>(
        &self,
        t: &T,
        p: PNodeId,
        n: &T::Node,
        hook: &mut MatchHook<'_, T::Node>,
    ) -> CoreResult<bool> {
        let pn = &self.tree.nodes[p];
        if !t.matches_test(n, &pn.test)? {
            return Ok(false);
        }
        if !pn.value_cmps.is_empty() {
            let Some(v) = t.value(n)? else {
                return Ok(false);
            };
            if !pn.value_cmps.iter().all(|c| c.eval(&v)) {
                return Ok(false);
            }
        }
        hook(p, n)
    }

    /// Match the fragment against the subtree rooted at `start`.
    ///
    /// Returns `None` on failure, or the list of collected `(pattern node,
    /// subject node)` matches — matches of the fragment's hot node (the
    /// returning node or a cut source), in document order.
    #[allow(clippy::type_complexity)]
    pub fn match_at<T: TreeAccess>(
        &self,
        t: &T,
        start: &T::Node,
        hook: &mut MatchHook<'_, T::Node>,
    ) -> CoreResult<Option<Vec<(PNodeId, T::Node)>>> {
        // The virtual document node carries no constraints of its own.
        if self.root != DOC_NODE && !self.node_matches(t, self.root, start, hook)? {
            return Ok(None);
        }
        let mut out = Vec::new();
        if self.npm(t, self.root, start, hook, &mut out)? {
            Ok(Some(out))
        } else {
            Ok(None)
        }
    }

    /// The recursive NPM procedure (paper Algorithm 1). Assumes `snode`
    /// already satisfies `pnode`'s node-local constraints.
    fn npm<T: TreeAccess>(
        &self,
        t: &T,
        pnode: PNodeId,
        snode: &T::Node,
        hook: &mut MatchHook<'_, T::Node>,
        out: &mut Vec<(PNodeId, T::Node)>,
    ) -> CoreResult<bool> {
        let mark = out.len();
        // Lines 1–2: record the match if this is a collected node.
        if self.collect.contains(&pnode) {
            out.push((pnode, snode.clone()));
        }
        let children = &self.children[&pnode];
        if children.is_empty() {
            return Ok(true);
        }

        // Line 3: S ← frontier children (⊲-indegree 0).
        let mut indegree: HashMap<PNodeId, usize> = children
            .iter()
            .map(|c| (*c, self.order_indegree.get(c).copied().unwrap_or(0)))
            .collect();
        let mut frontier: Vec<PNodeId> = children
            .iter()
            .copied()
            .filter(|c| indegree[c] == 0)
            .collect();
        let mut satisfied: HashSet<PNodeId> = HashSet::new();

        // Lines 4–14: iterate the subject node's children left to right.
        let mut u = t.first_child(snode)?;
        // ⊲ successors unlocked at child u only become eligible from u's
        // *following* sibling (the ⊲ constraint is strict).
        let mut unlocked_next: Vec<PNodeId> = Vec::new();
        while let Some(un) = u {
            let mut i = 0;
            while i < frontier.len() {
                let s = frontier[i];
                let already = satisfied.contains(&s);
                // A satisfied *persistent* node keeps matching (to collect
                // every returning match); satisfied plain nodes are gone.
                debug_assert!(!already || self.persistent.contains(&s));
                if self.node_matches(t, s, &un, hook)? {
                    let sub_mark = out.len();
                    if self.npm(t, s, &un, hook, out)? {
                        if !already {
                            satisfied.insert(s);
                            // Lines 9–12: unlock ⊲ successors.
                            if let Some(succs) = self.order_succ.get(&s) {
                                for &succ in succs {
                                    if let Some(d) = indegree.get_mut(&succ) {
                                        *d -= 1;
                                        if *d == 0 {
                                            unlocked_next.push(succ);
                                        }
                                    }
                                }
                            }
                            if !self.persistent.contains(&s) {
                                frontier.remove(i);
                                continue; // do not advance i: next item slid in
                            }
                        }
                    } else {
                        out.truncate(sub_mark);
                    }
                }
                i += 1;
            }
            frontier.append(&mut unlocked_next);
            if frontier.is_empty() {
                break; // line 14: S = ∅
            }
            u = t.following_sibling(&un)?;
        }

        // Lines 15–17: every child pattern node must have been satisfied.
        if children.iter().all(|c| satisfied.contains(c)) {
            Ok(true)
        } else {
            out.truncate(mark);
            Ok(false)
        }
    }
}

/// A no-op hook accepting everything.
pub fn accept_all<N>() -> impl FnMut(PNodeId, &N) -> CoreResult<bool> {
    |_, _| Ok(true)
}

// ---------------------------------------------------------------------------
// TreeAccess over the in-memory DOM — the "logical level" of §3, and the
// oracle the physical implementation is verified against. Attribute nodes
// are synthesized as leading children (as the store builder does), addressed
// by `(element, Some(attr_index))`.
// ---------------------------------------------------------------------------

/// Node handle for [`DomAccess`]: an element, or one of its attributes.
pub type DomNode = (nok_xml::NodeId, Option<usize>);

/// [`TreeAccess`] implementation over [`nok_xml::Document`].
pub struct DomAccess<'d> {
    doc: &'d nok_xml::Document,
}

impl<'d> DomAccess<'d> {
    /// Wrap a document.
    pub fn new(doc: &'d nok_xml::Document) -> Self {
        DomAccess { doc }
    }

    fn first_element_from(&self, mut cur: Option<nok_xml::NodeId>) -> Option<nok_xml::NodeId> {
        while let Some(id) = cur {
            if self.doc.tag(id).is_some() {
                return Some(id);
            }
            cur = self.doc.next_sibling(id);
        }
        None
    }
}

/// Sentinel for the virtual document node.
const DOC_SENTINEL: DomNode = (nok_xml::NodeId(u32::MAX), None);

impl TreeAccess for DomAccess<'_> {
    type Node = DomNode;

    fn doc_node(&self) -> DomNode {
        DOC_SENTINEL
    }

    fn first_child(&self, n: &DomNode) -> CoreResult<Option<DomNode>> {
        if *n == DOC_SENTINEL {
            return Ok(if self.doc.is_empty() {
                None
            } else {
                Some((nok_xml::NodeId::ROOT, None))
            });
        }
        let (id, attr) = *n;
        if attr.is_some() {
            return Ok(None); // attribute nodes are leaves
        }
        // Attributes come first, then element children.
        if !self.doc.attrs(id).is_empty() {
            return Ok(Some((id, Some(0))));
        }
        Ok(self
            .first_element_from(self.doc.first_child(id))
            .map(|c| (c, None)))
    }

    fn following_sibling(&self, n: &DomNode) -> CoreResult<Option<DomNode>> {
        let (id, attr) = *n;
        if let Some(ai) = attr {
            if ai + 1 < self.doc.attrs(id).len() {
                return Ok(Some((id, Some(ai + 1))));
            }
            return Ok(self
                .first_element_from(self.doc.first_child(id))
                .map(|c| (c, None)));
        }
        Ok(self
            .first_element_from(self.doc.next_sibling(id))
            .map(|c| (c, None)))
    }

    fn matches_test(&self, n: &DomNode, test: &NameTest) -> CoreResult<bool> {
        let (id, attr) = *n;
        Ok(match test {
            NameTest::Wildcard => attr.is_none(), // '*' selects elements only
            NameTest::Tag(t) => match attr {
                Some(ai) => t.starts_with('@') && self.doc.attrs(id)[ai].name == t[1..],
                None => self.doc.tag(id) == Some(t.as_str()),
            },
        })
    }

    fn value(&self, n: &DomNode) -> CoreResult<Option<String>> {
        let (id, attr) = *n;
        Ok(match attr {
            Some(ai) => Some(self.doc.attrs(id)[ai].value.clone()),
            None => {
                let text = self.doc.direct_text(id);
                if text.trim().is_empty() {
                    None
                } else {
                    Some(text)
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern_tree::PatternTree;
    use nok_xml::Document;

    /// Match a whole single-fragment pattern against a document, returning
    /// the hot-node (returning) matches as element NodeIds.
    fn run(pattern: &str, xml: &str) -> Vec<DomNode> {
        let tree = PatternTree::parse(pattern).unwrap();
        let part = tree.partition();
        assert_eq!(
            part.fragments.len(),
            1,
            "these tests exercise single-fragment patterns"
        );
        let matcher = NokMatcher::new(&tree, &part, 0);
        let doc = Document::parse(xml).unwrap();
        let access = DomAccess::new(&doc);
        let mut hook = accept_all();
        match matcher
            .match_at(&access, &access.doc_node(), &mut hook)
            .unwrap()
        {
            Some(out) => out.into_iter().map(|(_, n)| n).collect(),
            None => Vec::new(),
        }
    }

    fn tags_of(xml: &str, nodes: &[DomNode]) -> Vec<String> {
        let doc = Document::parse(xml).unwrap();
        nodes
            .iter()
            .map(|(id, attr)| match attr {
                Some(ai) => format!("@{}", doc.attrs(*id).get(*ai).unwrap().name),
                None => doc.tag(*id).unwrap_or("?").to_string(),
            })
            .collect()
    }

    #[test]
    fn simple_path_matches() {
        let xml = "<a><b><c/></b><b/></a>";
        let hits = run("/a/b/c", xml);
        assert_eq!(hits.len(), 1);
        assert_eq!(tags_of(xml, &hits), vec!["c"]);
    }

    #[test]
    fn returning_node_collects_all_matches() {
        let xml = "<a><b/><b/><b/></a>";
        assert_eq!(run("/a/b", xml).len(), 3);
    }

    #[test]
    fn returning_below_predicate_collects_all() {
        // The generalization of "a matched frontier is deleted only if it is
        // not the returning node": all three d's of the matching b come back.
        let xml = "<a><b><c/><d/><d/><d/></b><b><d/></b></a>";
        let hits = run("/a/b[c]/d", xml);
        assert_eq!(hits.len(), 3, "only the b with c contributes, all its d's");
    }

    #[test]
    fn predicate_failure_yields_nothing() {
        let xml = "<a><b><d/></b></a>";
        assert!(run("/a/b[c]/d", xml).is_empty());
    }

    #[test]
    fn multiple_existence_predicates() {
        let xml = "<a><b><c/><d/><e/><f/></b><b><c/><d/></b></a>";
        assert_eq!(run("/a/b[c][d][e][f]", xml).len(), 1);
        assert_eq!(run("/a/b[c][d]", xml).len(), 2);
    }

    #[test]
    fn paper_example2_walkthrough() {
        // Example 2: b[c/g="Stevens"][j<100] matched at the first b.
        let xml = r#"<a>
          <b><z/><e/><c><f/><g>Stevens</g></c><i/><j>65.95</j></b>
          <b><z/><e/><c><f/><g>Other</g></c><i/><j>65.95</j></b>
          <b><z/><e/><c><f/><g>Stevens</g></c><i/><j>129.95</j></b>
        </a>"#;
        let hits = run(r#"/a/b[c/g="Stevens"][j<100]"#, xml);
        assert_eq!(hits.len(), 1, "only the first b satisfies both");
    }

    #[test]
    fn paper_branch_revisit_case() {
        // §3: /a[b/c][b/d] — both b-branches can be satisfied by the same
        // or different b children.
        let xml_same = "<a><b><c/><d/></b></a>";
        assert_eq!(run("/a[b/c][b/d]", xml_same).len(), 1);
        let xml_diff = "<a><b><c/></b><b><d/></b></a>";
        assert_eq!(run("/a[b/c][b/d]", xml_diff).len(), 1);
        let xml_miss = "<a><b><c/></b><b><c/></b></a>";
        assert!(run("/a[b/c][b/d]", xml_miss).is_empty());
    }

    #[test]
    fn greedy_is_complete_for_existential_branches() {
        // First candidate fails deep, later succeeds.
        let xml = "<a><b><c><x/></c></b><b><c><y/></c></b></a>";
        assert_eq!(run("/a/b[c/y]", xml).len(), 1);
    }

    #[test]
    fn value_constraints_on_self() {
        let xml = "<a><b>hello</b><b>world</b></a>";
        let hits = run(r#"/a/b[.="world"]"#, xml);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn numeric_comparisons() {
        let xml = "<a><p>65.95</p><p>129.95</p><p>39.95</p></a>";
        assert_eq!(run("/a/p[.<100]", xml).len(), 2);
        assert_eq!(run("/a/p[.>=100]", xml).len(), 1);
        assert_eq!(run("/a/p[.!=39.95]", xml).len(), 2);
    }

    #[test]
    fn attribute_tests_and_values() {
        let xml = r#"<a><b year="1994"/><b year="2000"/><b/></a>"#;
        assert_eq!(run("/a/b[@year]", xml).len(), 2);
        assert_eq!(run("/a/b[@year>1995]", xml).len(), 1);
        let attrs = run("/a/b/@year", xml);
        assert_eq!(attrs.len(), 2);
        assert_eq!(tags_of(xml, &attrs), vec!["@year", "@year"]);
    }

    #[test]
    fn wildcard_steps() {
        let xml = "<a><b><x/></b><c><x/></c></a>";
        assert_eq!(run("/a/*/x", xml).len(), 2);
        // '*' does not match attribute nodes.
        let xml2 = r#"<a k="v"><b/></a>"#;
        assert_eq!(run("/a/*", xml2).len(), 1);
    }

    #[test]
    fn following_sibling_order_enforced() {
        let xml = "<a><c/><b/><c/><c/></a>";
        // c's after a b: the last two.
        let hits = run("/a/b/following-sibling::c", xml);
        assert_eq!(hits.len(), 2);
        // b after c: there is one b following the first c.
        assert_eq!(run("/a/c/following-sibling::b", xml).len(), 1);
        // Nothing follows the last c.
        assert!(run("/a/c/following-sibling::d", xml).is_empty());
    }

    #[test]
    fn following_sibling_chain() {
        let xml = "<a><x/><y/><z/></a>";
        assert_eq!(
            run("/a/x/following-sibling::y/following-sibling::z", xml).len(),
            1
        );
        // Order violation: z before y.
        let xml2 = "<a><x/><z/><y/></a>";
        assert!(run("/a/x/following-sibling::y/following-sibling::z", xml2).is_empty());
    }

    #[test]
    fn root_tag_mismatch() {
        assert!(run("/nope/b", "<a><b/></a>").is_empty());
    }

    #[test]
    fn deep_nesting_matches() {
        let mut xml = String::new();
        let mut pat = String::new();
        for i in 0..30 {
            xml.push_str(&format!("<n{i}>"));
            pat.push_str(&format!("/n{i}"));
        }
        for i in (0..30).rev() {
            xml.push_str(&format!("</n{i}>"));
        }
        assert_eq!(run(&pat, &xml).len(), 1);
    }

    #[test]
    fn rollback_on_partial_match_keeps_earlier_results() {
        // Two matching b's; between them a failing one. Results from the
        // successful ones must survive the failed attempt's rollback.
        let xml = "<a><b><c/><d/></b><b><c/></b><b><c/><d/></b></a>";
        let hits = run("/a/b[c]/d", xml);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn hook_can_veto_matches() {
        let tree = PatternTree::parse("/a/b").unwrap();
        let part = tree.partition();
        let matcher = NokMatcher::new(&tree, &part, 0);
        let doc = Document::parse("<a><b>x</b><b>y</b></a>").unwrap();
        let access = DomAccess::new(&doc);
        // Veto any b whose value is "x".
        let mut hook = |p: PNodeId, n: &DomNode| -> CoreResult<bool> {
            if tree.nodes[p].test == NameTest::Tag("b".into()) {
                let v = access.value(n)?;
                return Ok(v.as_deref() != Some("x"));
            }
            Ok(true)
        };
        let out = matcher
            .match_at(&access, &access.doc_node(), &mut hook)
            .unwrap()
            .unwrap();
        assert_eq!(out.len(), 1);
    }
}
