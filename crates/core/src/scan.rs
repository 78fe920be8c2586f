//! Single-pass NoK matching (paper §5, Proposition 1) over an open/close
//! event stream.
//!
//! The paper's §4.2 point is that the stored string *is* the SAX stream:
//! every Σ character opens a node, every `)` closes one. [`ScanMatcher`]
//! consumes exactly that — `open`/`close` calls in document order — and
//! decides one NoK fragment over every subject node it is shown, entering
//! only the subtrees in which a pattern node can match. The same matcher
//! serves both executor routes (events read in place off the pages by
//! [`crate::cursor::PageWalk`]: the whole chain on the scan route, each
//! index-located start's subtree on the index route, see
//! [`ScanMatcher::prime`]) and [`crate::stream::StreamMatcher`] (events
//! read off a SAX parser).
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
//! A node is **dead** when it opens if it passes the name test of no
//! pattern child of the enclosing node's candidates, cannot be a root
//! candidate itself, and no root candidate can open below it: nothing in
//! its subtree can match. The enclosing frame counts it as a child (its
//! Dewey ordinal) and the driver passes over the rest of the subtree,
//! through its matching close, with a depth count and no matcher call —
//! the paper's Algorithm 1 never enters such a subtree either. Below a
//! node of an anchored fragment a root candidate opens only if the node
//! carries the spine. Below a node of a `//`- or `following::`-rooted
//! fragment it opens nowhere at or below the fragment's *root floor*: the
//! deepest level any node passing the root test has had, by the
//! synopsis's per-tag depth bounds (`FragmentPlan::root_floor`). Levels
//! are absolute, so an index-route start primes the matcher with its own.
//! A SAX stream has no depth bounds, so such fragments skip nothing there.
//!
//! A live node is **hollow** when its candidates have no pattern children
//! and no root candidate can open below it: every child is dead, so the
//! executor may pass over all of them, to the node's own close, at once
//! ([`ScanMatcher::hollow`]).
//!
//! Matches of the fragment's hot node are buffered from the moment the
//! candidate opens and released once every node on the path up to the
//! fragment root has matched; a buffered candidate that opens earlier holds
//! back later ones, so hits leave in document order and the buffer never
//! outgrows the largest root candidate's subtree.
//!
//! Semantics are those of `match_at` run from every node passing the root
//! test (the differential batteries hold the two to the same answers).

use std::cmp::Ordering;

use crate::dewey::Dewey;
use crate::error::{CoreError, CoreResult};
use crate::pattern::NameTest;
use crate::pattern_tree::{PNodeId, Partition, DOC_NODE};
use crate::planner::{doc_pivot, spine_above};

/// A set of fragment-local pattern node indices. A fragment of up to 64
/// nodes, the common case, is matched with `u64` sets, one machine word
/// each; a larger one with [`WideSet`].
pub(crate) trait NodeSet: Clone + Default {
    /// Local indices the set can hold.
    const CAPACITY: usize;
    fn has(&self, i: usize) -> bool;
    fn insert(&mut self, i: usize);
    fn remove(&mut self, i: usize);
    fn is_empty(&self) -> bool;
    fn union_with(&mut self, other: &Self);
    fn and(&self, other: &Self) -> Self;
    /// Do the sets share a member?
    fn meets(&self, other: &Self) -> bool;
    fn is_subset(&self, other: &Self) -> bool;
    /// Remove and return the smallest member.
    fn pop_first(&mut self) -> Option<usize>;
}

impl NodeSet for u64 {
    const CAPACITY: usize = 64;
    #[inline]
    fn has(&self, i: usize) -> bool {
        (self >> i) & 1 == 1
    }
    #[inline]
    fn insert(&mut self, i: usize) {
        *self |= 1 << i;
    }
    #[inline]
    fn remove(&mut self, i: usize) {
        *self &= !(1 << i);
    }
    #[inline]
    fn is_empty(&self) -> bool {
        *self == 0
    }
    #[inline]
    fn union_with(&mut self, other: &Self) {
        *self |= other;
    }
    #[inline]
    fn and(&self, other: &Self) -> Self {
        self & other
    }
    #[inline]
    fn meets(&self, other: &Self) -> bool {
        self & other != 0
    }
    #[inline]
    fn is_subset(&self, other: &Self) -> bool {
        self & !other == 0
    }
    #[inline]
    fn pop_first(&mut self) -> Option<usize> {
        let i = self.trailing_zeros() as usize;
        *self &= self.wrapping_sub(1);
        (i < 64).then_some(i)
    }
}

/// A [`NodeSet`] of any size: 64 indices per word, absent words empty.
#[derive(Debug, Clone, Default)]
pub(crate) struct WideSet(Vec<u64>);

impl WideSet {
    fn word(&self, w: usize) -> u64 {
        self.0.get(w).copied().unwrap_or(0)
    }
}

impl NodeSet for WideSet {
    const CAPACITY: usize = usize::MAX;
    fn has(&self, i: usize) -> bool {
        self.word(i / 64).has(i % 64)
    }
    fn insert(&mut self, i: usize) {
        if self.0.len() <= i / 64 {
            self.0.resize(i / 64 + 1, 0);
        }
        self.0[i / 64].insert(i % 64);
    }
    fn remove(&mut self, i: usize) {
        if let Some(w) = self.0.get_mut(i / 64) {
            w.remove(i % 64);
        }
    }
    fn is_empty(&self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }
    fn union_with(&mut self, other: &Self) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (w, o) in self.0.iter_mut().zip(&other.0) {
            *w |= o;
        }
    }
    fn and(&self, other: &Self) -> Self {
        WideSet(self.0.iter().zip(&other.0).map(|(a, b)| a & b).collect())
    }
    fn meets(&self, other: &Self) -> bool {
        self.0.iter().zip(&other.0).any(|(a, b)| a & b != 0)
    }
    fn is_subset(&self, other: &Self) -> bool {
        (0..self.0.len()).all(|w| self.0[w] & !other.word(w) == 0)
    }
    fn pop_first(&mut self) -> Option<usize> {
        let w = self.0.iter().position(|&w| w != 0)?;
        Some(w * 64 + self.0[w].pop_first()?)
    }
}

/// One NoK fragment compiled for [`ScanMatcher`]. Pattern nodes are
/// renumbered fragment-locally; local index 0 is the match root.
pub(crate) struct ScanPattern<B> {
    /// Local index → pattern node.
    pub(crate) nodes: Vec<PNodeId>,
    /// Name test of each node.
    tests: Vec<NameTest>,
    /// Local (`/`) children of each node, as a set of local indices.
    children: Vec<B>,
    /// ⊲ predecessors of each node (must be satisfied by an earlier
    /// sibling before the node may match).
    preds: Vec<B>,
    /// Nodes with at least one ⊲ predecessor.
    ordered: B,
    /// Match root → hot node, as local indices; empty when the fragment
    /// collects nothing.
    chain: Vec<usize>,
    chain_mask: B,
    /// Name tests of the levels above the match root, outermost first. A
    /// document-rooted fragment is matched from its pivot (the end of the
    /// bare spine, see [`doc_pivot`]); the spine above it is then a fixed
    /// tag path the open-node stack verifies without any pattern state.
    pub(crate) spine: Vec<NameTest>,
    /// Root matches sit only at level `spine.len() + 1` below nodes passing
    /// `spine` (levels count from the base frame: the document node, or
    /// the start's parent after [`ScanMatcher::prime`]); when false (`//`-
    /// and `following::`-rooted fragments) any node may match the root.
    anchored: bool,
    /// No node passing the root test sits deeper than this absolute level
    /// (`FragmentPlan::root_floor`), so none opens below a node at it or
    /// deeper; `usize::MAX` while nothing proves it. Set before the
    /// per-tag [`NodeTests`] are made.
    pub(crate) root_floor: usize,
}

impl<B: NodeSet> ScanPattern<B> {
    /// Compile fragment `frag` of `part` for a pass over the whole
    /// document: a document-rooted fragment from its pivot under the spine
    /// above it, any other from its root, accepted anywhere.
    pub(crate) fn compile(part: &Partition<'_>, frag: usize) -> CoreResult<Self> {
        if frag != 0 {
            return Self::build(part, frag, part.fragments[frag].root, Vec::new(), false);
        }
        let root = doc_pivot(part);
        let spine = if root != DOC_NODE {
            spine_above(part, root)
        } else {
            Vec::new()
        };
        Self::build(part, frag, root, spine, true)
    }

    /// Compile fragment `frag` from pattern node `root` for the subtrees of
    /// index-located starts (see [`ScanMatcher::prime`]). The spine above a
    /// document-rooted fragment's start was verified when the start was
    /// located, so its root match is accepted at the start alone; any
    /// other fragment accepts root matches anywhere in the subtree.
    pub(crate) fn compile_seeded(
        part: &Partition<'_>,
        frag: usize,
        root: PNodeId,
    ) -> CoreResult<Self> {
        Self::build(part, frag, root, Vec::new(), frag == 0)
    }

    fn build(
        part: &Partition<'_>,
        frag: usize,
        root: PNodeId,
        spine: Vec<NameTest>,
        anchored: bool,
    ) -> CoreResult<Self> {
        let tree = part.tree;
        let mut nodes = vec![root];
        let mut i = 0;
        while i < nodes.len() {
            nodes.extend(tree.local_children(nodes[i]));
            i += 1;
        }
        if nodes.len().max(spine.len()) > B::CAPACITY {
            return Err(CoreError::PathSyntax {
                pos: 0,
                msg: format!(
                    "a pattern fragment of {} nodes exceeds this matcher's {}",
                    nodes.len().max(spine.len()),
                    B::CAPACITY
                ),
            });
        }
        let local = |n: PNodeId| nodes.iter().position(|&m| m == n);
        let set = |members: &mut dyn Iterator<Item = usize>| {
            let mut s = B::default();
            members.for_each(|i| s.insert(i));
            s
        };
        let children: Vec<B> = nodes
            .iter()
            .map(|&n| set(&mut tree.local_children(n).filter_map(local)))
            .collect();
        let mut preds = vec![B::default(); nodes.len()];
        let mut ordered = B::default();
        for &(before, after) in &tree.order_arcs {
            if let (Some(b), Some(a)) = (local(before), local(after)) {
                preds[a].insert(b);
                ordered.insert(a);
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
            chain.push(i);
            cur = if n == root {
                None
            } else {
                tree.nodes[n].parent
            };
        }
        chain.reverse();
        let chain_mask = set(&mut chain.iter().copied());
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
            root_floor: usize::MAX,
        })
    }

    /// The pattern node the fragment is matched from.
    pub(crate) fn root(&self) -> PNodeId {
        self.nodes[0]
    }
}

/// Which name tests a subject node passes.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NodeTests<B> {
    /// Pattern nodes (local indices) whose name test accepts the node.
    pub(crate) nodes: B,
    /// Spine positions (`j` = level `j + 1`) whose test accepts it.
    pub(crate) spine: B,
    /// When the node is dead (module docs).
    pub(crate) dies: Dies,
}

/// When a node is dead, given the name tests it passes: never, or — if it
/// is a candidate for no pattern child of its parent's candidates — always,
/// by its level and the spine, or by its level alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum Dies {
    /// A root candidate may open at the node or below it: it passes the
    /// root test, or no depth bound is known.
    #[default]
    Never,
    /// An anchored fragment's node failing the root test and every spine
    /// test: no root candidate opens at or below it at any level.
    Childless,
    /// An anchored fragment's node passing the root test or a spine test:
    /// its level and the spine above it decide.
    ByLevel,
    /// An unanchored fragment's node failing the root test: no root
    /// candidate opens below it at or past the root floor.
    ByDepth,
}

impl<B: NodeSet> NodeTests<B> {
    /// The name tests of `pat` a node named `name` passes.
    pub(crate) fn of(pat: &ScanPattern<B>, name: &str) -> Self {
        let passed = |tests: &[NameTest]| {
            let mut s = B::default();
            (tests.iter().enumerate())
                .filter(|(_, t)| t.accepts(name))
                .for_each(|(i, _)| s.insert(i));
            s
        };
        let (nodes, spine) = (passed(&pat.tests), passed(&pat.spine));
        let dies = match (pat.anchored, nodes.has(0)) {
            (true, false) if spine.is_empty() => Dies::Childless,
            (true, _) => Dies::ByLevel,
            (false, false) if pat.root_floor != usize::MAX => Dies::ByDepth,
            (false, _) => Dies::Never,
        };
        NodeTests { nodes, spine, dies }
    }
}

/// The event source's side of matching: the node-local constraints only it
/// can decide (values live in the data file or in text events, cut-edge
/// conditions in the executor).
pub(crate) trait ScanSource {
    /// What a hot match carries besides its Dewey id and interval.
    type Payload;
    /// The sets of pattern nodes the fragment is matched with.
    type Set: NodeSet;

    /// Pattern nodes with open-time constraints ([`ScanSource::admit`]).
    fn admits(&self) -> Self::Set;

    /// Pattern nodes with close-time constraints ([`ScanSource::confirm`]).
    fn confirms(&self) -> Self::Set;

    /// Open-time filter: of the `admits` pattern nodes in `cand`, keep
    /// those the node at Dewey path `path` can still match.
    fn admit(&mut self, cand: Self::Set, path: &[u32]) -> CoreResult<Self::Set>;

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
    /// A hit decided outside the matcher: the document node, which no
    /// event opens, when a fragment collects it.
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
struct Frame<B> {
    /// Pattern nodes the node may match.
    cand: B,
    /// Union of the candidates' pattern children.
    kids: B,
    /// Pattern nodes satisfied by closed children.
    sat: B,
    start: u64,
    /// `pending.len()` when the node opened: its subtree's buffered hits.
    buf_start: usize,
    next_child: u32,
}

/// Can a root candidate of an anchored fragment open at a node passing
/// `tests` that opens at `level`, or below it, when the leading `spine_ok`
/// levels of the open path pass the spine? Only where every level above
/// carries the spine.
#[inline]
fn anchored_roots_at_or_below<B: NodeSet>(
    pat: &ScanPattern<B>,
    spine_ok: usize,
    tests: &NodeTests<B>,
    level: usize,
) -> bool {
    if spine_ok + 1 != level {
        return false;
    }
    match level.cmp(&(pat.spine.len() + 1)) {
        Ordering::Less => tests.spine.has(level - 1),
        Ordering::Equal => tests.nodes.has(0) && pat.root() != DOC_NODE,
        Ordering::Greater => false,
    }
}

/// The matcher: feed it `open`/`close` in document order, then `finish`.
pub(crate) struct ScanMatcher<S: ScanSource> {
    pub(crate) pat: ScanPattern<S::Set>,
    pub(crate) src: S,
    /// Open nodes; `frames[0]` is the virtual document node (level 0).
    frames: Vec<Frame<S::Set>>,
    /// Dewey components of the open nodes.
    path: Vec<u32>,
    /// Leading levels of the open path that pass the spine tests.
    spine_ok: usize,
    /// Absolute level of the base frame: 0 for the document node, the
    /// start's parent's after [`ScanMatcher::prime`].
    base_level: usize,
    /// The node opened last is hollow (module docs).
    hollow: bool,
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
    admits: S::Set,
    confirms: S::Set,
}

impl<S: ScanSource> ScanMatcher<S> {
    pub(crate) fn new(pat: ScanPattern<S::Set>, src: S) -> Self {
        let doc_rooted = pat.root() == DOC_NODE;
        let (mut cand, mut kids) = (S::Set::default(), S::Set::default());
        if doc_rooted {
            cand.insert(0);
            kids = pat.children[0].clone();
        }
        ScanMatcher {
            frames: vec![Frame {
                cand,
                kids,
                sat: S::Set::default(),
                start: 0,
                buf_start: 0,
                next_child: 0,
            }],
            path: Vec::new(),
            spine_ok: 0,
            base_level: 0,
            hollow: false,
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

    /// Nodes open, counting the base frame: 1 between subtrees.
    #[inline]
    pub(crate) fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Make the next `open` the node with Dewey id `at` — the start of a
    /// subtree fed on its own, open to its matching close. The base frame
    /// stands for the start's parent, so an anchored pattern accepts its
    /// root at the start alone. Between subtrees only: every earlier one
    /// must have closed.
    pub(crate) fn prime(&mut self, at: &[u32]) -> CoreResult<()> {
        let (Some((&last, above)), [base]) = (at.split_last(), self.frames.as_mut_slice()) else {
            return Err(CoreError::Corrupt(
                "scan matcher primed inside an open subtree".into(),
            ));
        };
        base.next_child = last;
        base.sat = S::Set::default();
        self.path.clear();
        self.path.extend_from_slice(above);
        self.spine_ok = 0;
        self.base_level = above.len();
        Ok(())
    }

    /// Is a node passing `tests` dead (module docs) if it opens as the next
    /// child of the innermost open node? Its siblings share the answer for
    /// their own tests: nothing it depends on moves while they are passed
    /// over.
    #[inline]
    pub(crate) fn is_dead(&self, tests: &NodeTests<S::Set>) -> bool {
        let level = self.frames.len();
        let rootless = match tests.dies {
            Dies::Never => false,
            Dies::Childless => true,
            Dies::ByLevel => !anchored_roots_at_or_below(&self.pat, self.spine_ok, tests, level),
            Dies::ByDepth => self.base_level + level >= self.pat.root_floor,
        };
        rootless
            && self
                .frames
                .last()
                .is_some_and(|parent| !tests.nodes.meets(&parent.kids))
    }

    /// Can a root candidate open strictly below a node passing `tests`
    /// that opens as the next child of the innermost open node?
    #[inline]
    fn roots_below(&self, tests: &NodeTests<S::Set>) -> bool {
        let level = self.frames.len();
        match tests.dies {
            Dies::Childless => false,
            Dies::Never | Dies::ByDepth => self.base_level + level < self.pat.root_floor,
            Dies::ByLevel => {
                self.spine_ok + 1 == level
                    && level <= self.pat.spine.len()
                    && tests.spine.has(level - 1)
            }
        }
    }

    /// Is the node opened last, and live, hollow (module docs)? Then the
    /// caller may pass over the rest of its subtree up to its close without
    /// calling the matcher, and close it.
    #[inline]
    pub(crate) fn hollow(&self) -> bool {
        self.hollow
    }

    /// Count `n` dead nodes, passed over without [`ScanMatcher::open`], as
    /// children of the innermost open node.
    #[inline]
    pub(crate) fn pass_dead(&mut self, n: u32) {
        if let Some(parent) = self.frames.last_mut() {
            parent.next_child += n;
        }
    }

    /// A node opens at position `start`. `payload` is only called when the
    /// node is a hot-node candidate. Returns whether the node is live; a
    /// dead one (module docs) is counted as its parent's child and nothing
    /// else, and the caller must pass over the rest of its subtree, through
    /// its matching close, without calling the matcher.
    #[inline]
    pub(crate) fn open(
        &mut self,
        tests: &NodeTests<S::Set>,
        start: u64,
        payload: impl FnOnce() -> S::Payload,
    ) -> CoreResult<bool> {
        let dead = self.is_dead(tests);
        let roots_below = self.roots_below(tests);
        let pat = &self.pat;
        let level = self.frames.len();
        let Some(parent) = self.frames.last_mut() else {
            return Err(CoreError::Corrupt(
                "scan matcher lost its root frame".into(),
            ));
        };
        if dead {
            parent.next_child += 1;
            return Ok(false);
        }
        self.path.push(parent.next_child);
        parent.next_child += 1;
        let mut cand = tests.nodes.and(&parent.kids);
        let mut ordered = cand.and(&pat.ordered);
        while let Some(c) = ordered.pop_first() {
            if !pat.preds[c].is_subset(&parent.sat) {
                cand.remove(c);
            }
        }
        if pat.anchored {
            if level <= pat.spine.len() {
                if self.spine_ok == level - 1 && tests.spine.has(level - 1) {
                    self.spine_ok = level;
                }
            } else if level == pat.spine.len() + 1
                && self.spine_ok == pat.spine.len()
                && tests.nodes.has(0)
                && pat.root() != DOC_NODE
            {
                cand.insert(0);
                self.candidates += 1;
            }
        } else if tests.nodes.has(0) {
            cand.insert(0);
            self.candidates += 1;
        }
        if cand.meets(&self.admits) {
            cand = self.src.admit(cand, &self.path)?;
        }
        let mut kids = S::Set::default();
        let mut rest = cand.clone();
        while let Some(c) = rest.pop_first() {
            kids.union_with(&pat.children[c]);
        }
        let buf_start = self.pending.len();
        if let Some(&hot) = pat.chain.last() {
            if cand.has(hot) {
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
        self.hollow = kids.is_empty() && !roots_below;
        self.frames.push(Frame {
            cand,
            kids,
            sat: S::Set::default(),
            start,
            buf_start,
            next_child: 0,
        });
        Ok(true)
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
        if !f.cand.is_empty() {
            let matched = self.settle(&f, end)?;
            if let Some(parent) = self.frames.last_mut() {
                parent.sat.union_with(&matched);
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
            if !f.cand.is_empty() {
                self.settle(&f, u64::MAX)?;
            }
            self.frames.push(f);
        }
        Ok(())
    }

    /// Decide which candidate pattern nodes the closing node `f` matches,
    /// and settle the buffered hits that were waiting on it. `self.frames`
    /// no longer holds `f`, so its length is `f`'s level.
    fn settle(&mut self, f: &Frame<S::Set>, end: u64) -> CoreResult<S::Set> {
        let pat = &self.pat;
        let level = self.frames.len() as u32;
        let mut matched = S::Set::default();
        let mut rest = f.cand.clone();
        while let Some(p) = rest.pop_first() {
            if !pat.children[p].is_subset(&f.sat) {
                continue;
            }
            if self.confirms.has(p) && !self.src.confirm(p, &self.path, f.start, end)? {
                continue;
            }
            matched.insert(p);
        }
        if matched.has(0) {
            self.roots += 1;
            if let Some(starts) = &mut self.root_starts {
                starts.push(f.start);
            }
        }
        if f.cand.meets(&pat.chain_mask) && self.pending.len() > f.buf_start {
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
                        .is_some_and(|i| matched.has(pat.chain[i]));
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
        /// Nodes opened live.
        live: usize,
    }

    /// The deepest level of a node passing `root` at or below `id`, which
    /// opens at `level` (0 if none does): the root floor the synopsis's
    /// depth bounds give the stored engine.
    fn floor_of(doc: &Document, id: NodeId, root: &NameTest, level: usize) -> usize {
        let mut floor = if root.accepts(doc.tag(id).unwrap_or("")) {
            level
        } else {
            0
        };
        if doc
            .attrs(id)
            .iter()
            .any(|a| root.accepts(&format!("@{}", a.name)))
        {
            floor = level + 1;
        }
        for c in doc.children(id) {
            if doc.tag(c).is_some() {
                floor = floor.max(floor_of(doc, c, root, level + 1));
            }
        }
        floor
    }

    fn matcher<'d>(
        tree: &PatternTree,
        frag: usize,
        doc: &'d Document,
    ) -> ScanMatcher<DomSource<'d>> {
        let mut pat = ScanPattern::compile(&tree.partition(), frag).unwrap();
        let cmps = pat
            .nodes
            .iter()
            .map(|&n| tree.nodes[n].value_cmps.clone())
            .collect();
        pat.root_floor = floor_of(doc, NodeId::ROOT, &pat.tests[0], 1);
        let src = DomSource {
            doc,
            cmps,
            value: None,
            live: 0,
        };
        ScanMatcher::new(pat, src)
    }

    impl ScanSource for DomSource<'_> {
        type Payload = ();
        type Set = u64;
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

    /// Open a node named `name`: whether it is live.
    fn open(m: &mut ScanMatcher<DomSource<'_>>, name: &str, pos: &mut u64) -> bool {
        let tests = NodeTests::of(&m.pat, name);
        *pos += 1;
        let live = m.open(&tests, *pos, || ()).unwrap();
        m.src.live += usize::from(live);
        live
    }

    /// Feed the subtree of `id`, passing over it when it opens dead, and
    /// over its children when it opens hollow.
    fn walk(m: &mut ScanMatcher<DomSource<'_>>, id: NodeId, pos: &mut u64) {
        let doc = m.src.doc;
        if !open(m, doc.tag(id).unwrap_or(""), pos) {
            return;
        }
        if m.hollow() {
            let text = doc.direct_text(id);
            m.src.value = (!text.trim().is_empty()).then_some(text);
            *pos += 1;
            m.close(*pos).unwrap();
            return;
        }
        for a in doc.attrs(id) {
            if open(m, &format!("@{}", a.name), pos) {
                m.src.value = Some(a.value.clone());
                *pos += 1;
                m.close(*pos).unwrap();
            }
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
    fn dead_subtrees_are_passed_over() {
        // 15 nodes. Anchored `/r/a/b` enters only what carries the spine;
        // `//a/b` and `//w` enter what opens above the deepest level of
        // their root tag (3 and 4), and their candidates' children.
        let xml = "<r><x><a><b/></a><y><w/></y></x><a><z><b/><c><b/></c></z><b/></a>\
                   <v><w/><w/></v></r>";
        for (q, live, hits) in [("/r/a/b", 3, 1), ("//a/b", 7, 2), ("//w", 11, 3)] {
            assert_eq!(agree(q, xml).len(), hits, "{q}");
            let tree = PatternTree::parse(q).unwrap();
            let doc = Document::parse(xml).unwrap();
            let mut m = matcher(&tree, tree.partition().fragments.len() - 1, &doc);
            walk(&mut m, NodeId::ROOT, &mut 0);
            assert_eq!(m.src.live, live, "{q}");
        }
    }

    /// A `//` fragment passes over every non-candidate at or below its
    /// root floor, however deep the floor is set, and nothing above it.
    #[test]
    fn the_root_floor_passes_over_what_no_root_can_open_below() {
        // `a` at levels 2 and 3 only; 16 nodes.
        let xml = "<r><x><a><b/></a><y><w><v/></w></y></x><a><z><b/><c><b/></c></z><b/></a>\
                   <v><w/><w/></v></r>";
        for (q, floor, live, hits) in [("//a/b", 3, 7, 2), ("//a", 3, 5, 2), ("//a/b", 9, 16, 2)] {
            assert_eq!(agree(q, xml).len(), hits, "{q}");
            let tree = PatternTree::parse(q).unwrap();
            let doc = Document::parse(xml).unwrap();
            let mut m = matcher(&tree, tree.partition().fragments.len() - 1, &doc);
            m.pat.root_floor = floor;
            walk(&mut m, NodeId::ROOT, &mut 0);
            m.finish().unwrap();
            assert_eq!(m.src.live, live, "{q} below level {floor}");
            assert_eq!(m.done.len(), hits, "{q} below level {floor}");
        }
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
        assert!(m.open(&NodeTests::default(), 1, || ()).unwrap());
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
