//! Single-pass NoK matching (paper §5, Proposition 1) over an open/close
//! event stream.
//!
//! The paper's §4.2 point is that the stored string *is* the SAX stream:
//! every Σ character opens a node, every `)` closes one. [`ScanMatcher`]
//! consumes exactly that — `open`/`close` calls in document order — and
//! decides one NoK fragment for **every** subject node in one forward pass,
//! so the same matcher serves the executor's scan route (events read off
//! decoded pages by [`crate::cursor::PageWalk`]) and
//! [`crate::stream::StreamMatcher`] (events read off a SAX parser).
//!
//! Where [`crate::nok::NokMatcher::match_at`] navigates top-down from one
//! starting point, this matcher works bottom-up on a stack of open nodes:
//!
//! * **open** — a node becomes a *candidate* for every pattern node whose
//!   name test it passes and whose pattern parent the enclosing node is a
//!   candidate for (⊲-ordered nodes additionally need their predecessors
//!   satisfied by an *earlier* sibling). The child counter of the enclosing
//!   frame yields the Dewey id for free.
//! * **close** — the node *matches* a candidate pattern node iff every
//!   pattern child was satisfied by one of its (already closed) children
//!   and the node-local constraints hold; matches are recorded as
//!   satisfied in the enclosing frame. The close event also completes the
//!   node's `(start, end)` interval, so cut-edge conditions cost nothing.
//!
//! Matches of the fragment's hot node are buffered from the moment the
//! candidate opens and released once every node on the path up to the
//! fragment root has matched; a buffered candidate that opens earlier holds
//! back later ones, so hits leave in document order and the buffer never
//! outgrows the largest root candidate's subtree.
//!
//! Semantics are those of `match_at` run from every node passing the root
//! test (the differential batteries hold the two to the same answers).

use crate::dewey::Dewey;
use crate::error::{CoreError, CoreResult};
use crate::pattern::NameTest;
use crate::pattern_tree::{PNodeId, Partition, DOC_NODE};
use crate::planner::{doc_pivot, spine_above};

/// Pattern nodes one fragment may hold on this matcher (candidate and
/// satisfied sets are single machine words).
pub(crate) const MAX_SCAN_NODES: usize = 64;

/// One NoK fragment compiled for [`ScanMatcher`]. Pattern nodes are
/// renumbered fragment-locally; local index 0 is the match root.
pub(crate) struct ScanPattern {
    /// Local index → pattern node.
    pub(crate) nodes: Vec<PNodeId>,
    /// Name test of each node.
    tests: Vec<NameTest>,
    /// Local (`/`) children of each node, as a set of local indices.
    children: Vec<u64>,
    /// ⊲ predecessors of each node (must be satisfied by an earlier
    /// sibling before the node may match).
    preds: Vec<u64>,
    /// Nodes with at least one ⊲ predecessor.
    ordered: u64,
    /// Match root → hot node, as local indices; empty when the fragment
    /// collects nothing.
    chain: Vec<u8>,
    chain_mask: u64,
    /// Name tests of the levels above the match root, outermost first. A
    /// document-rooted fragment is matched from its pivot (the end of the
    /// bare spine, see [`doc_pivot`]); the spine above it is then a fixed
    /// tag path the open-node stack verifies without any pattern state.
    pub(crate) spine: Vec<NameTest>,
    /// Root matches sit only at level `spine.len() + 1` below nodes passing
    /// `spine`; when false (`//`- and `following::`-rooted fragments) any
    /// node may match the root.
    anchored: bool,
}

impl ScanPattern {
    /// Compile fragment `frag` of `part`.
    pub(crate) fn compile(part: &Partition<'_>, frag: usize) -> CoreResult<ScanPattern> {
        let tree = part.tree;
        let anchored = frag == 0;
        let root = if anchored {
            doc_pivot(part)
        } else {
            part.fragments[frag].root
        };
        let mut nodes = vec![root];
        let mut i = 0;
        while i < nodes.len() {
            nodes.extend(tree.local_children(nodes[i]));
            i += 1;
        }
        let spine = if anchored && root != DOC_NODE {
            spine_above(part, root)
        } else {
            Vec::new()
        };
        if nodes.len().max(spine.len()) > MAX_SCAN_NODES {
            return Err(CoreError::PathSyntax {
                pos: 0,
                msg: format!(
                    "a pattern fragment of {} nodes exceeds the single-pass matcher's {MAX_SCAN_NODES}",
                    nodes.len().max(spine.len())
                ),
            });
        }
        let local = |n: PNodeId| nodes.iter().position(|&m| m == n);
        let bit = |n: PNodeId| local(n).map_or(0, |i| 1u64 << i);
        let children: Vec<u64> = nodes
            .iter()
            .map(|&n| tree.local_children(n).map(bit).fold(0, |a, b| a | b))
            .collect();
        let mut preds = vec![0u64; nodes.len()];
        let mut ordered = 0u64;
        for &(before, after) in &tree.order_arcs {
            if let (Some(_), Some(a)) = (local(before), local(after)) {
                preds[a] |= bit(before);
                ordered |= 1 << a;
            }
        }
        // Match root → hot node.
        let mut chain = Vec::new();
        let mut cur = part.hot.get(&frag).copied();
        while let Some(n) = cur {
            let Some(i) = local(n) else {
                chain.clear();
                break;
            };
            chain.push(i as u8);
            cur = if n == root {
                None
            } else {
                tree.nodes[n].parent
            };
        }
        chain.reverse();
        let chain_mask = chain.iter().fold(0, |a, &i| a | 1u64 << i);
        Ok(ScanPattern {
            tests: nodes.iter().map(|&n| tree.nodes[n].test.clone()).collect(),
            nodes,
            children,
            preds,
            ordered,
            chain,
            chain_mask,
            spine,
            anchored,
        })
    }

    /// The pattern node the fragment is matched from.
    pub(crate) fn root(&self) -> PNodeId {
        self.nodes[0]
    }
}

/// Which name tests a subject node passes.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NodeTests {
    /// Pattern nodes (local-index bits) whose name test accepts the node.
    pub(crate) nodes: u64,
    /// Spine positions (bit `j` = level `j + 1`) whose test accepts it.
    pub(crate) spine: u64,
}

impl NodeTests {
    /// Evaluate every name test of `pat` through `accepts`.
    pub(crate) fn of(pat: &ScanPattern, accepts: impl Fn(&NameTest) -> bool) -> NodeTests {
        let bit = |(i, t): (usize, &NameTest)| u64::from(accepts(t)) << i;
        NodeTests {
            nodes: pat.tests.iter().enumerate().map(bit).fold(0, |a, b| a | b),
            spine: pat.spine.iter().enumerate().map(bit).fold(0, |a, b| a | b),
        }
    }
}

/// The event source's side of matching: the node-local constraints only it
/// can decide (values live in the data file or in text events, cut-edge
/// conditions in the executor).
pub(crate) trait ScanSource {
    /// What a hot match carries besides its Dewey id and interval.
    type Payload;

    /// Pattern nodes with open-time constraints ([`ScanSource::admit`]).
    fn admits(&self) -> u64;

    /// Pattern nodes with close-time constraints ([`ScanSource::confirm`]).
    fn confirms(&self) -> u64;

    /// Open-time filter: of the `admits` pattern nodes in `cand`, keep
    /// those the node at Dewey path `path` can still match.
    fn admit(&mut self, cand: u64, path: &[u32]) -> CoreResult<u64>;

    /// Close-time constraints of local pattern node `p` on the node at
    /// `path` spanning `(start, end)`. Consulted only once the node's
    /// pattern children are all satisfied.
    fn confirm(&mut self, p: usize, path: &[u32], start: u64, end: u64) -> CoreResult<bool>;
}

/// One released hot match.
#[derive(Debug)]
pub(crate) struct ScanHit<P> {
    pub(crate) dewey: Dewey,
    pub(crate) payload: P,
    /// Position of the node's open event.
    pub(crate) start: u64,
    /// Position of the node's close event.
    pub(crate) end: u64,
    /// Position of the fragment-root match the hit was collected under.
    pub(crate) root_start: u64,
    level: u32,
    decided: bool,
}

impl<P> ScanHit<P> {
    /// A hit decided outside the matcher (the index route's collected hot
    /// nodes share the executor's result vector with the scan route's).
    pub(crate) fn new(dewey: Dewey, payload: P, start: u64, end: u64, root_start: u64) -> Self {
        ScanHit {
            dewey,
            payload,
            start,
            end,
            root_start,
            level: 0,
            decided: true,
        }
    }
}

/// One open subject node.
struct Frame {
    /// Pattern nodes the node may match.
    cand: u64,
    /// Union of the candidates' pattern children.
    kids: u64,
    /// Pattern nodes satisfied by closed children.
    sat: u64,
    start: u64,
    /// `pending.len()` when the node opened: its subtree's buffered hits.
    buf_start: usize,
    next_child: u32,
}

/// The matcher: feed it `open`/`close` in document order, then `finish`.
pub(crate) struct ScanMatcher<S: ScanSource> {
    pub(crate) pat: ScanPattern,
    pub(crate) src: S,
    /// Open nodes; `frames[0]` is the virtual document node (level 0).
    frames: Vec<Frame>,
    /// Dewey components of the open nodes.
    path: Vec<u32>,
    /// Leading levels of the open path that pass the spine tests.
    spine_ok: usize,
    /// Buffered hot matches, in document order.
    pending: Vec<ScanHit<S::Payload>>,
    undecided: usize,
    /// Released hot matches, in document order; the caller drains them.
    pub(crate) done: Vec<ScanHit<S::Payload>>,
    /// Nodes tried as fragment root.
    pub(crate) candidates: u64,
    /// Successful fragment-root matches.
    pub(crate) roots: u64,
    /// Positions of the successful root matches, collected into the vector
    /// the caller puts here (if any).
    pub(crate) root_starts: Option<Vec<u64>>,
    admits: u64,
    confirms: u64,
}

impl<S: ScanSource> ScanMatcher<S> {
    pub(crate) fn new(pat: ScanPattern, src: S) -> Self {
        let doc_rooted = pat.root() == DOC_NODE;
        let cand = u64::from(doc_rooted);
        ScanMatcher {
            frames: vec![Frame {
                cand,
                kids: if doc_rooted { pat.children[0] } else { 0 },
                sat: 0,
                start: 0,
                buf_start: 0,
                next_child: 0,
            }],
            path: Vec::new(),
            spine_ok: 0,
            pending: Vec::new(),
            undecided: 0,
            done: Vec::new(),
            candidates: u64::from(doc_rooted),
            roots: 0,
            root_starts: None,
            admits: src.admits(),
            confirms: src.confirms(),
            pat,
            src,
        }
    }

    /// Hot matches buffered but not yet released.
    pub(crate) fn buffered(&self) -> usize {
        self.pending.len()
    }

    /// A node opens at position `start`. `payload` is only called when the
    /// node is a hot-node candidate.
    #[inline]
    pub(crate) fn open(
        &mut self,
        tests: NodeTests,
        start: u64,
        payload: impl FnOnce() -> S::Payload,
    ) -> CoreResult<()> {
        let pat = &self.pat;
        let level = self.frames.len();
        let Some(parent) = self.frames.last_mut() else {
            return Err(CoreError::Corrupt(
                "scan matcher lost its root frame".into(),
            ));
        };
        self.path.push(parent.next_child);
        parent.next_child += 1;
        let mut cand = tests.nodes & parent.kids;
        let mut ordered = cand & pat.ordered;
        while ordered != 0 {
            let c = ordered.trailing_zeros() as usize;
            ordered &= ordered - 1;
            if pat.preds[c] & !parent.sat != 0 {
                cand &= !(1 << c);
            }
        }
        if pat.anchored {
            if level <= pat.spine.len() {
                if self.spine_ok == level - 1 && (tests.spine >> (level - 1)) & 1 == 1 {
                    self.spine_ok = level;
                }
            } else if level == pat.spine.len() + 1
                && self.spine_ok == pat.spine.len()
                && tests.nodes & 1 == 1
                && pat.root() != DOC_NODE
            {
                cand |= 1;
                self.candidates += 1;
            }
        } else if tests.nodes & 1 == 1 {
            cand |= 1;
            self.candidates += 1;
        }
        if cand & self.admits != 0 {
            cand = self.src.admit(cand, &self.path)?;
        }
        let mut kids = 0;
        let mut rest = cand;
        while rest != 0 {
            kids |= pat.children[rest.trailing_zeros() as usize];
            rest &= rest - 1;
        }
        let buf_start = self.pending.len();
        if let Some(&hot) = pat.chain.last() {
            if (cand >> hot) & 1 == 1 {
                self.pending.push(ScanHit {
                    dewey: Dewey::from_slice(&self.path),
                    payload: payload(),
                    start,
                    end: start,
                    root_start: 0,
                    level: level as u32,
                    decided: false,
                });
                self.undecided += 1;
            }
        }
        self.frames.push(Frame {
            cand,
            kids,
            sat: 0,
            start,
            buf_start,
            next_child: 0,
        });
        Ok(())
    }

    /// The innermost open node closes at position `end`.
    #[inline]
    pub(crate) fn close(&mut self, end: u64) -> CoreResult<()> {
        if self.frames.len() < 2 {
            return Err(CoreError::Corrupt(
                "structure closes more nodes than it opens".into(),
            ));
        }
        let Some(f) = self.frames.pop() else {
            return Ok(());
        };
        if f.cand != 0 {
            let matched = self.settle(&f, end)?;
            if let Some(parent) = self.frames.last_mut() {
                parent.sat |= matched;
            }
        }
        self.path.pop();
        self.spine_ok = self.spine_ok.min(self.frames.len() - 1);
        Ok(())
    }

    /// End of the document: closes the virtual document node.
    pub(crate) fn finish(&mut self) -> CoreResult<()> {
        if self.frames.len() != 1 {
            return Err(CoreError::Corrupt(format!(
                "structure ends with {} nodes still open",
                self.frames.len() - 1
            )));
        }
        if let Some(f) = self.frames.pop() {
            if f.cand != 0 {
                self.settle(&f, u64::MAX)?;
            }
            self.frames.push(f);
        }
        Ok(())
    }

    /// Decide which candidate pattern nodes the closing node `f` matches,
    /// and settle the buffered hits that were waiting on it. `self.frames`
    /// no longer holds `f`, so its length is `f`'s level.
    fn settle(&mut self, f: &Frame, end: u64) -> CoreResult<u64> {
        let pat = &self.pat;
        let level = self.frames.len() as u32;
        let mut matched = 0u64;
        let mut rest = f.cand;
        while rest != 0 {
            let p = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            if pat.children[p] & !f.sat != 0 {
                continue;
            }
            if (self.confirms >> p) & 1 == 1 && !self.src.confirm(p, &self.path, f.start, end)? {
                continue;
            }
            matched |= 1 << p;
        }
        if matched & 1 == 1 {
            self.roots += 1;
            if let Some(starts) = &mut self.root_starts {
                starts.push(f.start);
            }
        }
        if f.cand & pat.chain_mask != 0 && self.pending.len() > f.buf_start {
            // A hit `d` levels below this node waits on it matching the
            // chain node `d` steps above the hot node.
            let hot_depth = pat.chain.len() - 1;
            let mut kept = f.buf_start;
            for r in f.buf_start..self.pending.len() {
                let hit = &mut self.pending[r];
                if !hit.decided {
                    let below = (hit.level - level) as usize;
                    let on_chain = hot_depth
                        .checked_sub(below)
                        .is_some_and(|i| (matched >> pat.chain[i]) & 1 == 1);
                    if !on_chain {
                        self.undecided -= 1;
                        continue;
                    }
                    if below == 0 {
                        hit.end = end;
                    }
                    if below == hot_depth {
                        hit.decided = true;
                        hit.root_start = f.start;
                        self.undecided -= 1;
                    }
                }
                if kept != r {
                    self.pending.swap(kept, r);
                }
                kept += 1;
            }
            self.pending.truncate(kept);
            if self.undecided == 0 {
                self.done.append(&mut self.pending);
            }
        }
        Ok(matched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nok::{accept_all, DomAccess, NokMatcher, TreeAccess};
    use crate::pattern::ValueCmp;
    use crate::pattern_tree::PatternTree;
    use nok_xml::{Document, NodeId};

    /// Drives the matcher from the DOM, attributes as leading children —
    /// the same subject tree `DomAccess` shows `match_at`.
    struct DomSource<'d> {
        doc: &'d Document,
        /// Value constraints per local pattern node.
        cmps: Vec<Vec<ValueCmp>>,
        /// Value of the node about to close.
        value: Option<String>,
    }

    fn matcher<'d>(
        tree: &PatternTree,
        frag: usize,
        doc: &'d Document,
    ) -> ScanMatcher<DomSource<'d>> {
        let pat = ScanPattern::compile(&tree.partition(), frag).unwrap();
        let cmps = pat
            .nodes
            .iter()
            .map(|&n| tree.nodes[n].value_cmps.clone())
            .collect();
        let src = DomSource {
            doc,
            cmps,
            value: None,
        };
        ScanMatcher::new(pat, src)
    }

    impl ScanSource for DomSource<'_> {
        type Payload = ();
        fn admits(&self) -> u64 {
            0
        }
        fn confirms(&self) -> u64 {
            (0..self.cmps.len())
                .filter(|&i| !self.cmps[i].is_empty())
                .fold(0, |a, i| a | 1 << i)
        }
        fn admit(&mut self, cand: u64, _: &[u32]) -> CoreResult<u64> {
            Ok(cand)
        }
        fn confirm(&mut self, p: usize, _: &[u32], _: u64, _: u64) -> CoreResult<bool> {
            Ok(self
                .value
                .as_deref()
                .is_some_and(|v| self.cmps[p].iter().all(|c| c.eval(v))))
        }
    }

    fn walk(m: &mut ScanMatcher<DomSource<'_>>, id: NodeId, pos: &mut u64) {
        let doc = m.src.doc;
        let name = doc.tag(id).unwrap_or("").to_string();
        let tests = NodeTests::of(&m.pat, |t| match t {
            NameTest::Wildcard => true,
            NameTest::Tag(t) => *t == name,
        });
        *pos += 1;
        m.open(tests, *pos, || ()).unwrap();
        for a in doc.attrs(id) {
            let tests = NodeTests::of(&m.pat, |t| match t {
                NameTest::Wildcard => false,
                NameTest::Tag(t) => t.strip_prefix('@') == Some(a.name.as_str()),
            });
            *pos += 1;
            m.open(tests, *pos, || ()).unwrap();
            m.src.value = Some(a.value.clone());
            *pos += 1;
            m.close(*pos).unwrap();
        }
        for c in doc.children(id) {
            if doc.tag(c).is_some() {
                walk(m, c, pos);
            }
        }
        let text = doc.direct_text(id);
        m.src.value = (!text.trim().is_empty()).then_some(text);
        *pos += 1;
        m.close(*pos).unwrap();
    }

    /// Deweys the single-pass matcher returns for a one- or two-fragment
    /// pattern (`/…` or `//…`).
    fn scan(pattern: &str, xml: &str) -> Vec<String> {
        let tree = PatternTree::parse(pattern).unwrap();
        let frag = tree.partition().fragments.len() - 1;
        let doc = Document::parse(xml).unwrap();
        let mut m = matcher(&tree, frag, &doc);
        let mut pos = 0;
        walk(&mut m, NodeId::ROOT, &mut pos);
        m.finish().unwrap();
        assert_eq!(m.buffered(), 0, "everything decided by the end");
        m.done.iter().map(|h| h.dewey.to_string()).collect()
    }

    /// The same through `match_at` from every node (the reference).
    fn navigate(pattern: &str, xml: &str) -> Vec<String> {
        let tree = PatternTree::parse(pattern).unwrap();
        let part = tree.partition();
        let frag = part.fragments.len() - 1;
        let doc = Document::parse(xml).unwrap();
        let access = DomAccess::new(&doc);
        let ev = crate::naive::NaiveEvaluator::new(&doc);
        let matcher = NokMatcher::new(&part, frag);
        let mut hook = accept_all();
        let mut out = Vec::new();
        if frag == 0 {
            if let Some(hits) = matcher
                .match_at(&access, &access.doc_node(), &mut hook)
                .unwrap()
            {
                out.extend(hits.iter().map(|(_, n)| ev.dewey(n).clone()));
            }
        } else {
            let mut stack = vec![(NodeId::ROOT, None)];
            while let Some(n) = stack.pop() {
                if let Some(hits) = matcher.match_at(&access, &n, &mut hook).unwrap() {
                    out.extend(hits.iter().map(|(_, n)| ev.dewey(n).clone()));
                }
                let mut c = access.first_child(&n).unwrap();
                while let Some(k) = c {
                    c = access.following_sibling(&k).unwrap();
                    stack.push(k);
                }
            }
        }
        out.sort();
        out.iter().map(|d| d.to_string()).collect()
    }

    fn agree(pattern: &str, xml: &str) -> Vec<String> {
        let got = scan(pattern, xml);
        assert_eq!(got, navigate(pattern, xml), "{pattern} on {xml}");
        got
    }

    #[test]
    fn paths_predicates_and_values() {
        let xml = r#"<a>
          <b><z/><e/><c><f/><g>Stevens</g></c><i/><j>65.95</j></b>
          <b><z/><e/><c><f/><g>Other</g></c><i/><j>65.95</j></b>
          <b><z/><e/><c><f/><g>Stevens</g></c><i/><j>129.95</j></b>
        </a>"#;
        assert_eq!(agree("/a/b/c/g", xml).len(), 3);
        assert_eq!(agree(r#"/a/b[c/g="Stevens"][j<100]"#, xml), vec!["0.0"]);
        assert_eq!(agree(r#"//b[c/g="Stevens"]/j"#, xml).len(), 2);
        assert!(agree("/a/b[nope]/j", xml).is_empty());
        assert!(agree("/nope/b", xml).is_empty());
    }

    #[test]
    fn anchored_roots_check_level_and_spine() {
        // `b/c` below the wrong parent or at the wrong depth must not match.
        let xml = "<a><b><c/></b><x><b><c/></b></x><b><b><c/></b></b></a>";
        assert_eq!(agree("/a/b/c", xml), vec!["0.0.0"]);
        assert_eq!(agree("//b/c", xml).len(), 3);
        assert_eq!(agree("/a/*/b/c", xml).len(), 2);
    }

    #[test]
    fn predicate_child_before_and_after_the_returning_child() {
        let xml = "<a><b><p/><r/><r/></b><b><r/><p/><r/></b><b><r/></b></a>";
        assert_eq!(
            agree("/a/b[p]/r", xml),
            vec!["0.0.1", "0.0.2", "0.1.0", "0.1.2"]
        );
        assert_eq!(agree("//b[p]/r", xml).len(), 4);
    }

    #[test]
    fn nested_same_tag_candidates_come_out_in_document_order() {
        let xml = "<s><np/><s><np/><s><vp/></s><np/></s><np/><vp/></s>";
        assert_eq!(
            agree("//s/np", xml),
            vec!["0.0", "0.1.0", "0.1.2", "0.2"],
            "inner candidates close first but must not overtake"
        );
        assert_eq!(agree("//s[np]", xml), vec!["0", "0.1"]);
        assert_eq!(agree("//s[vp]/np", xml), vec!["0.0", "0.2"]);
        assert_eq!(agree("//s/s/np", xml), vec!["0.1.0", "0.1.2"]);
        assert_eq!(agree("//s", xml).len(), 3);
    }

    #[test]
    fn sibling_order_is_strict() {
        let xml = "<a><c/><b/><c/><c/></a>";
        assert_eq!(
            agree("/a/b/following-sibling::c", xml),
            vec!["0.2", "0.3"],
            "the c before b does not follow it"
        );
        assert_eq!(agree("/a/c/following-sibling::b", xml), vec!["0.1"]);
        let chain = "/a/x/following-sibling::y/following-sibling::z";
        assert_eq!(agree(chain, "<a><x/><y/><z/></a>"), vec!["0.2"]);
        assert!(agree(chain, "<a><x/><z/><y/></a>").is_empty());
        // One node cannot be both sides of ⊲.
        assert!(agree("/a/b/following-sibling::b", "<a><b/></a>").is_empty());
        assert_eq!(
            agree("//a/b/following-sibling::b", "<a><b/><b/></a>"),
            vec!["0.1"]
        );
    }

    #[test]
    fn wildcards_skip_attribute_nodes() {
        let xml = r#"<a k="v"><b k="w"/><c/></a>"#;
        assert_eq!(agree("/a/*", xml), vec!["0.1", "0.2"]);
        assert_eq!(agree("/a/@k", xml), vec!["0.0"]);
        assert_eq!(agree("//*[@k]", xml), vec!["0", "0.1"]);
        assert_eq!(agree(r#"//b[@k="w"]"#, xml), vec!["0.1"]);
    }

    #[test]
    fn buffer_stays_within_the_open_candidate() {
        let xml = "<r><a><h/><h/><p/></a><a><h/></a><a><h/><p/></a></r>";
        let tree = PatternTree::parse("//a[p]/h").unwrap();
        let doc = Document::parse(xml).unwrap();
        let mut m = matcher(&tree, 1, &doc);
        m.root_starts = Some(Vec::new());
        let mut pos = 0;
        // Walk by hand to sample the buffer after each record closes.
        m.open(NodeTests::default(), 1, || ()).unwrap();
        for a in doc.children(NodeId::ROOT) {
            walk(&mut m, a, &mut pos);
            assert_eq!(m.buffered(), 0, "a closed record holds nothing back");
        }
        m.close(u64::MAX - 1).unwrap();
        m.finish().unwrap();
        assert_eq!(m.done.len(), 3);
        assert_eq!((m.candidates, m.roots), (3, 2));
        assert_eq!(m.root_starts.as_deref().map(<[u64]>::len), Some(2));
    }
}
