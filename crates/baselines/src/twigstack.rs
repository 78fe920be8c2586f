//! The **TwigStack** baseline (Bruno, Koudas, Srivastava — SIGMOD 2002):
//! holistic twig joins over document-ordered streams.
//!
//! Faithful to the published algorithm:
//!
//! * one stream per query node — the document-order list of elements
//!   matching the node's tag, pre-filtered by its value constraints (the
//!   paper built a value B+ tree for exactly this: "In order to speed up
//!   value comparisons, we also created a B+ tree for the value nodes");
//! * `getNext` returns the next query node with a *solution extension*
//!   guarantee, advancing past stream heads that cannot contribute;
//! * per-node stacks encode the ancestor chains of partial solutions
//!   compactly; elements are pushed only when their parent stack is
//!   non-empty (or they belong to the twig root).
//!
//! TwigStack is only optimal for ancestor-descendant twigs; with
//! parent-child edges its stream phase may admit elements that do not
//! belong to any match (the known suboptimality). As real implementations
//! do, a merge/verify phase follows: a bottom-up + top-down semijoin over
//! the surviving elements computes the returning node's answers exactly.
//!
//! Supported patterns are twigs (`/` and `//` edges); the ordered axes
//! (`following-sibling::`, `following::`) are outside TwigStack's model and
//! are rejected.

use std::collections::HashMap;

use nok_core::pattern::{NameTest, PathExpr};
use nok_core::pattern_tree::{EdgeKind, PNodeId, PatternTree};
use nok_core::{CoreError, CoreResult, Dewey};

use crate::encode::IntervalDoc;
use crate::Engine;

/// An immutable set of tree intervals, sorted by start position. The
/// linear positions of a node's open and close nest like the tree (`b`
/// lies below `a` iff `a.start < b.start && b.end < a.end`), so the
/// semijoins of the merge phase reduce to binary searches.
#[derive(Debug, Clone, Default)]
pub struct IntervalSet {
    starts: Vec<u64>,
    /// `prefix_max_end[i]` = the largest end among the first `i + 1`.
    prefix_max_end: Vec<u64>,
    min_end: u64,
}

impl IntervalSet {
    /// Build from (possibly unsorted) `(start, end)` pairs.
    pub fn new(mut intervals: Vec<(u64, u64)>) -> IntervalSet {
        intervals.sort_unstable();
        intervals.dedup();
        let mut starts = Vec::with_capacity(intervals.len());
        let mut prefix_max_end = Vec::with_capacity(intervals.len());
        let mut min_end = u64::MAX;
        let mut running_max = 0u64;
        for (s, e) in intervals {
            debug_assert!(s <= e, "interval start after end");
            starts.push(s);
            running_max = running_max.max(e);
            prefix_max_end.push(running_max);
            min_end = min_end.min(e);
        }
        IntervalSet {
            starts,
            prefix_max_end,
            min_end,
        }
    }

    /// Number of intervals.
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Does the set contain an interval strictly inside `(start, end)` —
    /// i.e. does the node with this interval have a member as descendant?
    ///
    /// By nesting, a member starting strictly inside `(start, end)` cannot
    /// end outside it, so only the start needs checking.
    pub fn any_within(&self, start: u64, end: u64) -> bool {
        let i = self.starts.partition_point(|&s| s <= start);
        i < self.starts.len() && self.starts[i] < end
    }

    /// Does any member contain the interval starting at `start` — i.e. is
    /// the node a descendant of some member?
    ///
    /// A member is an ancestor iff `member.start < start < member.end`;
    /// among members with `start_i < start`, one qualifies iff the maximum
    /// end among them exceeds `start` (by nesting it then covers the whole
    /// subtree).
    pub fn any_containing(&self, start: u64) -> bool {
        let i = self.starts.partition_point(|&s| s < start);
        i > 0 && self.prefix_max_end[i - 1] > start
    }

    /// Does any member end strictly before `start` — i.e. is the node in
    /// the *following* of some member?
    pub fn any_ending_before(&self, start: u64) -> bool {
        !self.is_empty() && self.min_end < start
    }
}

/// TwigStack engine over one interval-encoded document.
pub struct TwigStackEngine {
    doc: IntervalDoc,
}

/// Compiled twig: parallel arrays indexed by twig-node id.
struct Twig {
    /// Pattern-tree node ids (for tests/values), same indexing.
    parent: Vec<Option<usize>>,
    children: Vec<Vec<usize>>,
    /// Edge from parent: true = parent-child (`/`), false = `//`.
    pc_edge: Vec<bool>,
    /// Query node whose matches are the answer.
    returning: usize,
}

impl TwigStackEngine {
    /// Load a document.
    pub fn new(xml: &str) -> CoreResult<TwigStackEngine> {
        Ok(TwigStackEngine {
            doc: IntervalDoc::parse(xml)?,
        })
    }

    /// Wrap an already encoded document.
    pub fn from_doc(doc: IntervalDoc) -> TwigStackEngine {
        TwigStackEngine { doc }
    }

    /// Flatten the pattern tree into a twig (rejecting ordered axes). The
    /// virtual document node is dropped: its `/` children become level-1
    /// constraints, its `//` children are unconstrained roots.
    fn compile(&self, tree: &PatternTree) -> CoreResult<(Twig, Vec<PNodeId>, Vec<bool>)> {
        if !tree.order_arcs.is_empty() {
            return Err(CoreError::StreamUnsupported(
                "TwigStack handles unordered twigs only".into(),
            ));
        }
        let doc_children = &tree.nodes[0].children;
        if doc_children.len() != 1 {
            return Err(CoreError::Corrupt("pattern with no steps".into()));
        }
        let (root_kind, root_pn) = doc_children[0];
        if root_kind == EdgeKind::Following {
            return Err(CoreError::StreamUnsupported(
                "TwigStack cannot evaluate following::".into(),
            ));
        }
        let mut pnode_of: Vec<PNodeId> = Vec::new();
        let mut twig = Twig {
            parent: Vec::new(),
            children: Vec::new(),
            pc_edge: Vec::new(),
            returning: 0,
        };
        // root-must-be-level-1 flag per twig node (only the twig root).
        let mut level1: Vec<bool> = Vec::new();
        let mut stack = vec![(root_pn, None::<usize>, root_kind == EdgeKind::Child)];
        let mut returning_twig = None;
        while let Some((pn, parent, pc)) = stack.pop() {
            let id = pnode_of.len();
            pnode_of.push(pn);
            twig.parent.push(parent);
            twig.children.push(Vec::new());
            twig.pc_edge.push(pc);
            level1.push(parent.is_none() && pc);
            if let Some(p) = parent {
                twig.children[p].push(id);
            }
            if pn == tree.returning {
                returning_twig = Some(id);
            }
            for &(kind, c) in &tree.nodes[pn].children {
                match kind {
                    EdgeKind::Child => stack.push((c, Some(id), true)),
                    EdgeKind::Descendant => stack.push((c, Some(id), false)),
                    EdgeKind::Following => {
                        return Err(CoreError::StreamUnsupported(
                            "TwigStack cannot evaluate following::".into(),
                        ))
                    }
                }
            }
        }
        twig.returning = returning_twig
            .ok_or_else(|| CoreError::Corrupt("returning node missing from twig".into()))?;
        Ok((twig, pnode_of, level1))
    }

    /// Build the stream for one twig node: document-ordered element ids
    /// matching the tag test and value constraints.
    fn stream(&self, tree: &PatternTree, pn: PNodeId, level1: bool) -> Vec<usize> {
        let node = &tree.nodes[pn];
        let base: Vec<usize> = match &node.test {
            NameTest::Tag(t) => self.doc.tag_list(t).to_vec(),
            NameTest::Wildcard => self
                .doc
                .all_ids()
                .into_iter()
                .filter(|&i| !self.doc.elems[i].tag.starts_with('@'))
                .collect(),
        };
        base.into_iter()
            .filter(|&i| {
                let e = &self.doc.elems[i];
                if level1 && e.level != 1 {
                    return false;
                }
                node.value_cmps
                    .iter()
                    .all(|c| e.value.as_deref().is_some_and(|v| c.eval(v)))
            })
            .collect()
    }
}

/// Mutable evaluation state: stream cursors and stacks.
struct TwigState<'d> {
    doc: &'d IntervalDoc,
    streams: Vec<Vec<usize>>,
    cursor: Vec<usize>,
    /// Stacks of element ids (ancestor chains).
    stacks: Vec<Vec<usize>>,
    /// Elements that were ever pushed (candidate solutions per node).
    pushed: Vec<Vec<usize>>,
}

impl TwigState<'_> {
    fn eof(&self, q: usize) -> bool {
        self.cursor[q] >= self.streams[q].len()
    }

    fn head(&self, q: usize) -> Option<usize> {
        self.streams[q].get(self.cursor[q]).copied()
    }

    fn head_start(&self, q: usize) -> u64 {
        match self.head(q) {
            Some(e) => self.doc.elems[e].start,
            None => u64::MAX,
        }
    }

    fn head_end(&self, q: usize) -> u64 {
        match self.head(q) {
            Some(e) => self.doc.elems[e].end,
            None => u64::MAX,
        }
    }

    fn advance(&mut self, q: usize) {
        self.cursor[q] += 1;
    }

    /// The recursive getNext of the paper: returns a query node `q` such
    /// that its stream head has a descendant extension, skipping hopeless
    /// heads of `q`'s own stream.
    fn get_next(&mut self, q: usize, twig: &Twig) -> usize {
        if twig.children[q].is_empty() {
            return q;
        }
        for &qi in &twig.children[q] {
            let ni = self.get_next(qi, twig);
            // A returned node at EOF means that subtree has nothing left to
            // process; its exhausted stream still participates below as a
            // +inf head (which drains ancestors that can no longer match).
            if ni != qi && !self.eof(ni) {
                return ni;
            }
        }
        let (mut nmin, mut nmax) = (twig.children[q][0], twig.children[q][0]);
        for &qi in &twig.children[q] {
            if self.head_start(qi) < self.head_start(nmin) {
                nmin = qi;
            }
            if self.head_start(qi) > self.head_start(nmax) {
                nmax = qi;
            }
        }
        // Skip q's heads that end before the farthest child head starts:
        // they cannot be ancestors of a full child combination.
        while !self.eof(q) && self.head_end(q) < self.head_start(nmax) {
            self.advance(q);
        }
        if !self.eof(q) && self.head_start(q) < self.head_start(nmin) {
            q
        } else {
            nmin
        }
    }

    /// Pop stack entries that end before `start` (they cannot be ancestors
    /// of anything at or after `start`).
    fn clean_stack(&mut self, q: usize, start: u64) {
        while let Some(&top) = self.stacks[q].last() {
            if self.doc.elems[top].end < start {
                self.stacks[q].pop();
            } else {
                break;
            }
        }
    }
}

impl Engine for TwigStackEngine {
    fn name(&self) -> &'static str {
        "TwigStack"
    }

    fn eval(&self, path: &str) -> CoreResult<Vec<Dewey>> {
        let expr = PathExpr::parse(path)?;
        let tree = PatternTree::from_path(&expr)?;
        let (twig, pnode_of, level1) = self.compile(&tree)?;
        let n = twig.parent.len();
        let mut st = TwigState {
            doc: &self.doc,
            streams: (0..n)
                .map(|q| self.stream(&tree, pnode_of[q], level1[q]))
                .collect(),
            cursor: vec![0; n],
            stacks: vec![Vec::new(); n],
            pushed: vec![Vec::new(); n],
        };
        let root = 0usize;

        // ---- Phase 1: the TwigStack stream scan.
        loop {
            // Terminate when any stream that every solution needs is dry —
            // conservatively, when the root's subtree can no longer extend:
            // simplest faithful check: all streams at EOF.
            if (0..n).all(|q| st.eof(q)) {
                break;
            }
            let q = st.get_next(root, &twig);
            if st.eof(q) {
                // getNext can return a node whose stream is exhausted when
                // nothing can extend anymore.
                break;
            }
            let e = st.head(q).expect("not at EOF");
            let e_start = self.doc.elems[e].start;
            if let Some(p) = twig.parent[q] {
                st.clean_stack(p, e_start);
                if st.stacks[p].is_empty() {
                    st.advance(q);
                    continue;
                }
            }
            st.clean_stack(q, e_start);
            st.stacks[q].push(e);
            st.pushed[q].push(e);
            st.advance(q);
            if twig.children[q].is_empty() {
                // Leaf: the stack encodes root-to-leaf path solutions; we
                // record participants (in `pushed`) and pop the leaf.
                st.stacks[q].pop();
            }
        }

        // ---- Phase 2: merge/verify. Bottom-up semijoin: keep elements
        // whose every twig child has a kept element below them; then
        // top-down: keep elements with a kept parent-side ancestor.
        let mut keep: Vec<Vec<usize>> = st.pushed.clone();
        // Bottom-up, children before parents. For `//` edges the check is a
        // containment probe on an interval set; for `/` edges the document's
        // parent pointers give an O(1) membership test (the set of elements
        // that have a kept child under query node c).
        let order = topo_children_first(&twig);
        let mut kept_intervals: HashMap<usize, IntervalSet> = HashMap::new();
        let mut kept_pc_parents: HashMap<usize, std::collections::HashSet<usize>> = HashMap::new();
        for &q in &order {
            let mut kept: Vec<usize> = Vec::new();
            'elem: for &e in &keep[q] {
                for &c in &twig.children[q] {
                    let ok = if twig.pc_edge[c] {
                        kept_pc_parents.get(&c).is_some_and(|set| set.contains(&e))
                    } else {
                        kept_intervals.get(&c).is_some_and(|s| {
                            s.any_within(self.doc.elems[e].start, self.doc.elems[e].end)
                        })
                    };
                    if !ok {
                        continue 'elem;
                    }
                }
                kept.push(e);
            }
            kept.sort_by_key(|&e| self.doc.elems[e].start);
            kept_intervals.insert(
                q,
                IntervalSet::new(
                    kept.iter()
                        .map(|&e| (self.doc.elems[e].start, self.doc.elems[e].end))
                        .collect(),
                ),
            );
            kept_pc_parents.insert(
                q,
                kept.iter()
                    .filter_map(|&e| self.doc.elems[e].parent)
                    .collect(),
            );
            keep[q] = kept;
        }
        // Top-down from the root toward the returning node only.
        let mut path_to_ret = vec![twig.returning];
        while let Some(p) = twig.parent[*path_to_ret.last().expect("nonempty")] {
            path_to_ret.push(p);
        }
        path_to_ret.reverse();
        for w in path_to_ret.windows(2) {
            let (p, c) = (w[0], w[1]);
            let parent_set = IntervalSet::new(
                keep[p]
                    .iter()
                    .map(|&e| (self.doc.elems[e].start, self.doc.elems[e].end))
                    .collect(),
            );
            let doc = &self.doc;
            let parent_ids: std::collections::HashSet<usize> = keep[p].iter().copied().collect();
            keep[c].retain(|&e| {
                if twig.pc_edge[c] {
                    doc.elems[e]
                        .parent
                        .is_some_and(|pe| parent_ids.contains(&pe))
                } else {
                    parent_set.any_containing(doc.elems[e].start)
                }
            });
        }

        let mut ids = keep[twig.returning].clone();
        ids.sort_by_key(|&e| self.doc.elems[e].start);
        ids.dedup();
        Ok(ids
            .into_iter()
            .map(|e| self.doc.elems[e].dewey.clone())
            .collect())
    }
}

/// Topological order with children before parents.
fn topo_children_first(twig: &Twig) -> Vec<usize> {
    let n = twig.parent.len();
    let mut order = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    fn visit(q: usize, twig: &Twig, visited: &mut [bool], order: &mut Vec<usize>) {
        if visited[q] {
            return;
        }
        visited[q] = true;
        for &c in &twig.children[q] {
            visit(c, twig, visited, order);
        }
        order.push(q);
    }
    visit(0, twig, &mut visited, &mut order);
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    /// Intervals of the tree a(b(c d) e): a=(0,9), b=(1,6), c=(2,3),
    /// d=(4,5), e=(7,8).
    fn tree_intervals() -> Vec<(u64, u64)> {
        vec![(0, 9), (1, 6), (2, 3), (4, 5), (7, 8)]
    }

    #[test]
    fn any_within_checks_descendants() {
        let all = IntervalSet::new(tree_intervals());
        assert!(all.any_within(0, 9)); // a contains b..e
        assert!(all.any_within(1, 6)); // b contains c, d
        assert!(!all.any_within(2, 3)); // c is a leaf
        assert!(!all.any_within(7, 8)); // e is a leaf
    }

    #[test]
    fn any_containing_checks_ancestors() {
        let set = IntervalSet::new(vec![(1, 6)]); // just b
        assert!(set.any_containing(2)); // c is inside b
        assert!(set.any_containing(4)); // d is inside b
        assert!(!set.any_containing(7)); // e is not
        assert!(!set.any_containing(0)); // a is not (it contains b)
        assert!(!set.any_containing(1)); // b does not contain itself
    }

    #[test]
    fn any_containing_with_disjoint_predecessors() {
        // Members: two leaves before x, plus one real ancestor far left.
        let set = IntervalSet::new(vec![(0, 100), (10, 11), (20, 21)]);
        assert!(set.any_containing(50), "the (0,100) ancestor must be found");
        let set2 = IntervalSet::new(vec![(10, 11), (20, 21)]);
        assert!(!set2.any_containing(50));
    }

    #[test]
    fn any_ending_before_checks_following() {
        let set = IntervalSet::new(vec![(1, 6)]);
        assert!(set.any_ending_before(7)); // e follows b
        assert!(!set.any_ending_before(4)); // d is inside b, not following
        assert!(IntervalSet::new(vec![]).is_empty());
        assert!(!IntervalSet::new(vec![]).any_ending_before(100));
    }

    #[test]
    fn dedup_of_duplicate_intervals() {
        let set = IntervalSet::new(vec![(1, 2), (1, 2), (3, 4)]);
        assert_eq!(set.len(), 2);
    }
    use nok_core::naive::NaiveEvaluator;
    use nok_xml::Document;

    const BIB: &str = r#"<bib>
      <book year="1994"><author><last>Stevens</last></author><price>65.95</price></book>
      <book year="2000"><author><last>Abiteboul</last></author><price>39.95</price></book>
      <book year="1999"><editor><last>Gerbarg</last></editor><price>129.95</price></book>
    </bib>"#;

    fn check(xml: &str, query: &str) {
        let engine = TwigStackEngine::new(xml).unwrap();
        let got: Vec<String> = engine
            .eval(query)
            .unwrap()
            .iter()
            .map(|d| d.to_string())
            .collect();
        let doc = Document::parse(xml).unwrap();
        let oracle = NaiveEvaluator::new(&doc);
        let want: Vec<String> = oracle
            .eval_str(query)
            .unwrap()
            .iter()
            .map(|n| oracle.dewey(n).to_string())
            .collect();
        assert_eq!(got, want, "query {query}");
    }

    #[test]
    fn agrees_with_oracle_on_twigs() {
        for q in [
            "/bib",
            "/bib/book",
            "//book//last",
            "//last",
            r#"//book[author/last="Stevens"]"#,
            r#"//book[author/last="Stevens"][price<100]"#,
            "//book[price>100]/price",
            "/bib/book[@year>1995]",
            "/bib/book[editor]/price",
            "/bib//last",
            "//author[last]",
            "/nope",
            "//book[nothere]",
        ] {
            check(BIB, q);
        }
    }

    #[test]
    fn parent_child_suboptimality_still_correct() {
        // Classic P-C trap: a matches structurally via // but not via /.
        let xml = "<a><b><a><c/></a></b><c/></a>";
        for q in ["/a/c", "//a/c", "//a//c", "//b/a/c"] {
            check(xml, q);
        }
    }

    #[test]
    fn recursive_tags_deep_nesting() {
        // Treebank-style recursion exercises stack chains.
        let xml = "<s><np><s><vp><np/></vp></s></np><vp/></s>";
        for q in ["//s//np", "//s/vp", "//np//vp/np", "//s[np][vp]"] {
            check(xml, q);
        }
    }

    #[test]
    fn ordered_axes_rejected() {
        let e = TwigStackEngine::new(BIB).unwrap();
        assert!(e.eval("/bib/book/following-sibling::book").is_err());
        assert!(e.eval("/bib/book/following::price").is_err());
    }

    #[test]
    fn wildcard_streams() {
        check(BIB, "/bib/*/price");
        check(BIB, "//*[last]");
    }
}
