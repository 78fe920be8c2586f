//! Single-pass NoK matching (paper §5, Proposition 1) over an open/close
//! event stream: one walk per query.
//!
//! The paper's §4.2 point is that the stored string *is* the SAX stream:
//! every Σ character opens a node, every `)` closes one. [`ScanMatcher`]
//! consumes exactly that — `open`/`close` calls in document order — and
//! decides every NoK fragment of a [`Walk`] over every subject node it is
//! shown, entering only the subtrees in which a pattern node can match.
//! The same matcher serves both executor routes (events read in place off
//! the pages by [`crate::cursor::PageWalk`]: the whole chain on the scan
//! route, each index-located start's subtree on the index route, see
//! [`ScanMatcher::prime`]) and [`crate::stream::StreamMatcher`] (events
//! read off a SAX parser).
//!
//! **The walk** ([`plan_walks`]): its root is fragment 0, or the one child
//! of a bare document node under a `//` edge (`//…`), and every fragment
//! behind `//` cut edges rides it, its root a candidate only below an open
//! candidate for its source. A `following::` edge first costs a walk of
//! its own that reduces the child fragment to the start of its last root
//! match. A walk of one fragment takes one-fragment steps compiled apart
//! from the general ones ([`ScanPattern::multi`]).
//!
//! Where [`crate::nok::NokMatcher::match_at`] navigates top-down from one
//! starting point, this matcher works bottom-up on a stack of open nodes:
//!
//! * **open** — a node becomes a *candidate* for every pattern node whose
//!   name test it passes and whose pattern parent the enclosing node is a
//!   candidate for (⊲-ordered nodes additionally need their predecessors
//!   satisfied by an *earlier* sibling), and for every fragment root it
//!   may match. The child counter of the enclosing frame yields the Dewey
//!   id for free.
//! * **close** — the node *matches* a candidate pattern node iff every
//!   pattern child was satisfied by one of its (already closed) children
//!   and the node-local constraints hold; matches are recorded as
//!   satisfied in the enclosing frame.
//!
//! **Cut edges are decided at close.** A `//` edge holds when the child
//! fragment's count of root matches grew while the source was open (a
//! snapshot taken at open, compared before the close counts its own root
//! match); a `following::` edge when the source ends before the child's
//! last root match starts.
//!
//! A node is **dead** when it opens if it passes the name test of no
//! pattern child of the enclosing node's candidates, cannot be a root
//! candidate itself, and no root candidate can open below it: nothing in
//! its subtree can match. The enclosing frame counts it as a child (its
//! Dewey ordinal) and the driver passes over the rest of the subtree,
//! through its matching close, with a depth count and no matcher call —
//! the paper's Algorithm 1 never enters such a subtree either. Below a
//! node of an anchored fragment a root candidate opens only if the node
//! carries the spine; of any other, nowhere at or below the *root floor*
//! of the roots it may hold: the deepest level any node passing their root
//! tests has had, by the synopsis's per-tag depth bounds
//! (`FragmentPlan::root_floor`), raised inside the open `//` sources to
//! their riders' floors. A node passing a rider's root test is never dead.
//! Levels are absolute, so an index-route start primes the matcher with
//! its own. A SAX stream has no depth bounds, so such fragments skip
//! nothing there.
//!
//! A live node is **hollow** when its candidates have no pattern children
//! and no root candidate can open below it: every child is dead, so the
//! executor may pass over all of them, to the node's own close, at once
//! ([`ScanMatcher::hollow`]).
//!
//! **Hits stream.** The hot node of each fragment on the returning chain
//! is buffered from its open and released once every node up to its
//! fragment root has matched; an earlier candidate holds back later ones,
//! so hits leave in document order and the buffer never outgrows the
//! largest root candidate's subtree. [`ChainFilter`] passes a hit only if
//! a surviving hit of the level above, all released before it, contains
//! its fragment root (`//`) or ends before it (`following::`).
//!
//! Semantics are those of `match_at` run from every node passing the root
//! test, joined along the cut edges (the differential batteries hold the
//! two to the same answers).

use std::cmp::Ordering;
use std::sync::Arc;

use crate::dewey::Dewey;
use crate::error::{CoreError, CoreResult};
use crate::pattern::NameTest;
use crate::pattern_tree::{CutKind, PNodeId, Partition, PatternTree, DOC_NODE};
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

/// The fragments one walk decides: its root first, then the fragments
/// riding it, in partition order (a fragment's cut-edge children after
/// it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Walk {
    /// Fragment indices, the walk root first.
    pub(crate) frags: Vec<usize>,
    /// The returning chain among them, the walk root first: the fragments
    /// whose hits the walk releases. Empty for a walk that only reduces a
    /// `following::` child to its last root match.
    pub(crate) chain: Vec<usize>,
}

/// The root of a plan's main walk: fragment 0, or the one child fragment
/// of a bare document node under a `//` edge (the `//` of a `//`-rooted
/// query). A `following::` edge out of the document node stays in the
/// walk, to be decided (nothing follows the document node).
pub(crate) fn walk_root(tree: &PatternTree, part: &Partition) -> usize {
    let bare = tree.local_children(DOC_NODE).next().is_none();
    match part.cut_edges_from(0).next() {
        Some(cut) if bare && cut.kind == CutKind::Descendant => cut.child_frag,
        _ => 0,
    }
}

/// The walks of a plan in the order they run: one per `following::` cut
/// edge, deepest first, reducing the edge's child fragment to the start of
/// its last root match; then the main walk from [`walk_root`], whose
/// returning chain is the answer.
pub(crate) fn plan_walks(tree: &PatternTree, part: &Partition) -> Vec<Walk> {
    let mut reduced: Vec<usize> = (part.cut_edges.iter())
        .filter(|c| c.kind == CutKind::Following)
        .map(|c| c.child_frag)
        .collect();
    reduced.sort_unstable_by(|a, b| b.cmp(a));
    let mut walks: Vec<Walk> = (reduced.into_iter())
        .map(|g| Walk {
            frags: riders(part, g, &[]),
            chain: Vec::new(),
        })
        .collect();
    let root = walk_root(tree, part);
    let mut chain = vec![part.returning_fragment];
    while let Some(cut) = (chain.last())
        .filter(|&&f| f != root)
        .and_then(|&f| part.incoming_cut(f))
    {
        chain.push(cut.parent_frag);
    }
    chain.reverse();
    walks.push(Walk {
        frags: riders(part, root, &chain),
        chain,
    });
    walks
}

/// `root` and the fragments reachable from it through `//` cut edges and
/// through `following::` edges into `chain`, ascending. A fragment's cut
/// edges come after the one into it in `Partition::cut_edges`.
fn riders(part: &Partition, root: usize, chain: &[usize]) -> Vec<usize> {
    let mut rides = vec![false; part.fragments.len()];
    rides[root] = true;
    for c in &part.cut_edges {
        rides[c.child_frag] |= rides[c.parent_frag]
            && (c.kind == CutKind::Descendant || chain.contains(&c.child_frag));
    }
    (0..rides.len()).filter(|&f| rides[f]).collect()
}

/// How a cut edge is decided at its source's close (module docs).
#[derive(Debug, Clone, Copy)]
enum CutTest {
    /// `//`: this slot's root matches grew while the source was open.
    Grew(usize),
    /// `following::`: the source ends before the start of this fragment's
    /// last root match (the matcher's `before`; 0: never).
    EndsBefore(usize),
}

/// The fragments of one [`Walk`] compiled for [`ScanMatcher`]. Pattern
/// nodes are renumbered walk-locally; local index 0 is the walk root's
/// match root, and each fragment is a *slot*, numbered as in
/// [`Walk::frags`].
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
    /// Local index of each slot's match root, and as a set.
    roots: Vec<usize>,
    root_mask: B,
    /// The match roots accepted at any node: an unanchored walk root's and
    /// those of riders behind a `following::` edge. A rider behind a `//`
    /// edge is accepted only below an open candidate for its source.
    free: B,
    /// Each slot's root floor (`FragmentPlan::root_floor`): no node
    /// passing its root test sits deeper than this absolute level, so none
    /// opens below a node at it or deeper; `usize::MAX` while nothing
    /// proves it.
    floors: Vec<usize>,
    /// Per returning-chain level: match root → hot node, as local indices.
    chains: Vec<Vec<usize>>,
    chain_mask: B,
    /// The hot node of each chain.
    hots: Vec<usize>,
    /// Cut edges leaving the walk's fragments: source node and test.
    cuts: Vec<(usize, CutTest)>,
    /// Their sources.
    cut_srcs: B,
    /// Name tests of the levels above the match root, outermost first. A
    /// document-rooted fragment is matched from its pivot (the end of the
    /// bare spine, see [`doc_pivot`]); the spine above it is then a fixed
    /// tag path the open-node stack verifies without any pattern state.
    pub(crate) spine: Vec<NameTest>,
    /// The walk root's matches sit only at level `spine.len() + 1` below
    /// nodes passing `spine` (levels count from the base frame: the
    /// document node, or the start's parent after [`ScanMatcher::prime`]);
    /// when false (`//`- and `following::`-rooted fragments) any node may
    /// match it.
    anchored: bool,
    /// The deepest floor among the roots in `free`; 0 when none is.
    root_floor: usize,
    /// More than one fragment, a chain level other than one, or a cut
    /// edge: the walk needs [`ScanMatcher::open`] and
    /// [`ScanMatcher::close`] with `MULTI` (roots per slot, hits per
    /// chain level, cut edges). Without it the one-fragment steps beside
    /// those serve, compiled apart so that no node event tests for them.
    pub(crate) multi: bool,
}

impl<B: NodeSet> ScanPattern<B> {
    /// Compile `walk` over `part`, the partition of `tree`. With `seeded`,
    /// the walk covers the subtrees of index-located starts
    /// ([`ScanMatcher::prime`]), its root matched from that pivot — at the
    /// start alone for fragment 0, whose spine was verified then; otherwise
    /// the whole document, fragment 0 from its pivot under the spine above
    /// it. `floors[f]` is `f`'s root floor.
    pub(crate) fn compile(
        tree: &PatternTree,
        part: &Partition,
        walk: &Walk,
        seeded: Option<PNodeId>,
        floors: &[Option<u16>],
    ) -> CoreResult<Self> {
        let w = walk.frags[0];
        let (root, spine, anchored) = match seeded {
            Some(pivot) => (pivot, Vec::new(), w == 0),
            None if w == 0 => {
                let root = doc_pivot(tree, part);
                let spine = if root != DOC_NODE {
                    spine_above(tree, root)
                } else {
                    Vec::new()
                };
                (root, spine, true)
            }
            None => (part.fragments[w].root, Vec::new(), false),
        };
        let mut nodes = Vec::new();
        let mut roots = Vec::with_capacity(walk.frags.len());
        for &f in &walk.frags {
            let mut i = nodes.len();
            roots.push(i);
            nodes.push(if f == w { root } else { part.fragments[f].root });
            while i < nodes.len() {
                nodes.extend(tree.local_children(nodes[i]));
                i += 1;
            }
        }
        if nodes.len().max(spine.len()) > B::CAPACITY || walk.chain.len() > usize::from(u16::MAX) {
            return Err(CoreError::PathSyntax {
                pos: 0,
                msg: format!(
                    "a pattern walk of {} nodes exceeds this matcher's {}",
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
        let slot = |f: usize| walk.frags.iter().position(|&g| g == f);
        let outside = |what: String| CoreError::Corrupt(format!("{what} outside its walk"));
        // Match root → hot node, per chain level.
        let mut chains = Vec::with_capacity(walk.chain.len());
        for &f in &walk.chain {
            let top = slot(f).map(|s| nodes[roots[s]]);
            let up = |&n: &PNodeId| (Some(n) != top).then(|| tree.nodes[n].parent).flatten();
            let chain: Option<Vec<usize>> = std::iter::successors(part.hot.get(&f).copied(), up)
                .map(local)
                .collect();
            let mut chain = chain.ok_or_else(|| outside(format!("hot node of fragment {f}")))?;
            chain.reverse();
            chains.push(chain);
        }
        let chain_mask = set(&mut chains.iter().flatten().copied());
        let hots: Vec<usize> = chains.iter().filter_map(|c| c.last().copied()).collect();
        let mut cuts = Vec::new();
        for ce in (part.cut_edges.iter()).filter(|c| slot(c.parent_frag).is_some()) {
            let src = local(ce.src).ok_or_else(|| outside(format!("cut source {}", ce.src)))?;
            let test = match ce.kind {
                CutKind::Descendant => CutTest::Grew(
                    slot(ce.child_frag)
                        .ok_or_else(|| outside(format!("rider {}", ce.child_frag)))?,
                ),
                CutKind::Following => CutTest::EndsBefore(ce.child_frag),
            };
            cuts.push((src, test));
        }
        let cut_srcs = set(&mut cuts.iter().map(|&(src, _)| src));
        let floor = |f: usize| floors.get(f).copied().flatten();
        let floors: Vec<usize> = (walk.frags.iter())
            .map(|&f| floor(f).map_or(usize::MAX, usize::from))
            .collect();
        // Free: the walk root unless anchored, and what follows a source.
        let free_slots: Vec<usize> = (0..walk.frags.len())
            .filter(|&s| match part.incoming_cut(walk.frags[s]) {
                _ if s == 0 => !anchored,
                cut => cut.is_some_and(|c| c.kind == CutKind::Following),
            })
            .collect();
        let free = set(&mut free_slots.iter().map(|&s| roots[s]));
        let root_floor = free_slots.iter().map(|&s| floors[s]).max().unwrap_or(0);
        // A walk that reduces a `following::` child has no chain.
        let multi = roots.len() > 1 || chains.len() != 1 || !cuts.is_empty();
        Ok(ScanPattern {
            tests: nodes.iter().map(|&n| tree.nodes[n].test.clone()).collect(),
            nodes,
            children,
            preds,
            ordered,
            root_mask: set(&mut roots.iter().copied()),
            roots,
            free,
            floors,
            chains,
            chain_mask,
            hots,
            cuts,
            cut_srcs,
            spine,
            anchored,
            root_floor,
            multi,
        })
    }

    /// The slot whose match root is local node `r`.
    #[inline]
    fn slot(&self, r: usize) -> usize {
        self.roots.iter().position(|&x| x == r).unwrap_or(0)
    }

    /// The pattern node the walk root is matched from.
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
    dies: Dies,
}

/// When a node is dead, given the name tests it passes, if it is a
/// candidate for no pattern child of its parent's candidates: never,
/// always, by its depth, or by its level and the anchored walk root's
/// spine. The depth is compared with the root floor of the roots that may
/// open below the innermost open node (`ScanMatcher::floor`), which the
/// open `//` sources raise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Dies {
    /// It passes the test of a root not anchored (free, or behind a `//`
    /// edge), or the anchored walk root's root or spine test while some
    /// root is not anchored, or is unknown.
    #[default]
    Never,
    /// Every root is anchored, and it passes no root or spine test.
    Childless,
    /// It fails every root and spine test, and some root is not anchored:
    /// at or past the root floor.
    ByDepth,
    /// Every root is anchored, and it passes the walk root's root or a
    /// spine test: its level and the spine above it decide.
    ByLevel,
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
        let by_level = pat.anchored && (nodes.has(0) || !spine.is_empty());
        // The roots not anchored: free, or behind a `//` edge.
        let mut roots = pat.root_mask.clone();
        if pat.anchored {
            roots.remove(0);
        }
        let dies = match (nodes.meets(&roots), by_level, roots.is_empty()) {
            (false, true, true) => Dies::ByLevel,
            (false, false, true) => Dies::Childless,
            (false, false, false) => Dies::ByDepth,
            _ => Dies::Never,
        };
        NodeTests { nodes, spine, dies }
    }
}

/// The event source's side of matching: the node-local constraints only it
/// can decide (values live in the data file or in text events).
pub(crate) trait ScanSource {
    /// What a hot match carries besides its Dewey id and interval.
    type Payload;
    /// The sets of pattern nodes the walk is matched with.
    type Set: NodeSet;

    /// Pattern nodes with open-time constraints ([`ScanSource::admit`]).
    fn admits(&self) -> Self::Set;

    /// Pattern nodes with close-time constraints ([`ScanSource::confirm`]).
    fn confirms(&self) -> Self::Set;

    /// Open-time filter: of the `admits` pattern nodes in `cand`, keep
    /// those the node at Dewey path `path` can still match.
    fn admit(&mut self, cand: Self::Set, path: &[u32]) -> CoreResult<Self::Set>;

    /// Close-time constraints of local pattern node `p` on the node at
    /// `path`. Consulted only once the node's pattern children and cut
    /// edges are all satisfied.
    fn confirm(&mut self, p: usize, path: &[u32]) -> CoreResult<bool>;
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
    /// The returning-chain level of the fragment it is a hit of.
    pub(crate) level: u16,
    depth: u32,
    decided: bool,
}

impl<P> ScanHit<P> {
    /// A hot match of returning-chain level `chain_level` opening at
    /// `start`, `depth` levels below the base frame at Dewey path `path`.
    fn new(path: &[u32], payload: P, start: u64, chain_level: usize, depth: usize) -> Self {
        ScanHit {
            dewey: Dewey::from_slice(path),
            payload,
            start,
            end: start,
            root_start: 0,
            level: chain_level as u16,
            depth: depth as u32,
            decided: false,
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

/// The growable state of a [`ScanMatcher`]: kept between matches (the
/// executor keeps one per worker in `QueryScratch`), so that a warm query
/// allocates none of it.
pub(crate) struct MatchBufs<B, P> {
    frames: Vec<Frame<B>>,
    path: Vec<u32>,
    pending: Vec<ScanHit<P>>,
    done: Vec<ScanHit<P>>,
    candidates: Vec<u64>,
    roots: Vec<u64>,
    snaps: Vec<u64>,
    scopes: Vec<(B, usize, usize)>,
    before: Vec<u64>,
}

impl<B, P> Default for MatchBufs<B, P> {
    fn default() -> Self {
        MatchBufs {
            frames: Vec::new(),
            path: Vec::new(),
            pending: Vec::new(),
            done: Vec::new(),
            candidates: Vec::new(),
            roots: Vec::new(),
            snaps: Vec::new(),
            scopes: Vec::new(),
            before: Vec::new(),
        }
    }
}

/// The matcher: feed it `open`/`close` in document order, then `finish`.
pub(crate) struct ScanMatcher<S: ScanSource> {
    pub(crate) pat: Arc<ScanPattern<S::Set>>,
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
    /// Per slot: nodes tried as the fragment's root,
    pub(crate) candidates: Vec<u64>,
    /// its successful root matches,
    pub(crate) roots: Vec<u64>,
    /// The start of the walk root's last root match to open (0 before the
    /// first).
    pub(crate) last_root: u64,
    /// The cut edges' child root counts at the open of each open cut
    /// source, one run of `pat.cuts.len()` per source.
    snaps: Vec<u64>,
    /// The roots that may open below the innermost open node: `pat.free`
    /// and the riders of the open `//` sources,
    free: S::Set,
    /// and the deepest floor among them.
    floor: usize,
    /// The values each open cut source replaced, and where its snapshots
    /// start.
    scopes: Vec<(S::Set, usize, usize)>,
    /// Per fragment, the start of its last root match: what a
    /// `following::` edge into it is decided against (0: nothing follows).
    before: Vec<u64>,
    admits: S::Set,
    confirms: S::Set,
}

impl<S: ScanSource> ScanMatcher<S> {
    pub(crate) fn new(pat: Arc<ScanPattern<S::Set>>, src: S) -> Self {
        Self::with_bufs(pat, src, MatchBufs::default(), &[])
    }

    /// [`ScanMatcher::new`] over buffers kept from an earlier match
    /// ([`ScanMatcher::into_bufs`]). `before[g]` is the start of fragment
    /// `g`'s last root match, for the `following::` edges into it.
    pub(crate) fn with_bufs(
        pat: Arc<ScanPattern<S::Set>>,
        src: S,
        mut bufs: MatchBufs<S::Set, S::Payload>,
        before: &[u64],
    ) -> Self {
        let doc_rooted = pat.root() == DOC_NODE;
        let (mut cand, mut kids) = (S::Set::default(), S::Set::default());
        if doc_rooted {
            cand.insert(0);
            kids = pat.children[0].clone();
        }
        let slots = pat.roots.len();
        bufs.frames.clear();
        bufs.frames.push(Frame {
            cand,
            kids,
            sat: S::Set::default(),
            start: 0,
            buf_start: 0,
            next_child: 0,
        });
        bufs.candidates.clear();
        bufs.candidates.resize(slots, 0);
        bufs.candidates[0] = u64::from(doc_rooted);
        bufs.roots.clear();
        bufs.roots.resize(slots, 0);
        bufs.path.clear();
        bufs.snaps.clear();
        bufs.before.clear();
        bufs.before.extend_from_slice(before);
        bufs.pending.clear();
        bufs.done.clear();
        bufs.scopes.clear();
        ScanMatcher {
            free: pat.free.clone(),
            floor: pat.root_floor,
            scopes: bufs.scopes,
            frames: bufs.frames,
            path: bufs.path,
            spine_ok: 0,
            base_level: 0,
            hollow: false,
            pending: bufs.pending,
            undecided: 0,
            done: bufs.done,
            candidates: bufs.candidates,
            roots: bufs.roots,
            last_root: 0,
            snaps: bufs.snaps,
            before: bufs.before,
            admits: src.admits(),
            confirms: src.confirms(),
            pat,
            src,
        }
    }

    /// The matcher's buffers, for the next match to reuse.
    pub(crate) fn into_bufs(self) -> MatchBufs<S::Set, S::Payload> {
        MatchBufs {
            frames: self.frames,
            path: self.path,
            pending: self.pending,
            done: self.done,
            candidates: self.candidates,
            roots: self.roots,
            snaps: self.snaps,
            scopes: self.scopes,
            before: self.before,
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
            Dies::ByDepth => self.base_level + level >= self.floor,
            Dies::ByLevel => !anchored_roots_at_or_below(&self.pat, self.spine_ok, tests, level),
        };
        rootless
            && self
                .frames
                .last()
                .is_some_and(|parent| !tests.nodes.meets(&parent.kids))
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
    /// its matching close, without calling the matcher. `MULTI` may be
    /// false only for a walk that is not [`ScanPattern::multi`].
    #[inline]
    pub(crate) fn open<const MULTI: bool>(
        &mut self,
        tests: &NodeTests<S::Set>,
        start: u64,
        payload: impl Fn() -> S::Payload,
    ) -> CoreResult<bool> {
        debug_assert!(MULTI || !self.pat.multi);
        let dead = self.is_dead(tests);
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
        // The anchored walk root can open below the node.
        let spine_below =
            self.spine_ok + 1 == level && level <= pat.spine.len() && tests.spine.has(level - 1);
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
                self.candidates[0] += 1;
            }
        }
        if MULTI {
            self.free_roots(tests, &mut cand);
        } else if !pat.anchored && tests.nodes.has(0) {
            cand.insert(0);
            self.candidates[0] += 1;
        }
        let pat = &self.pat;
        if cand.meets(&self.admits) {
            cand = self.src.admit(cand, &self.path)?;
        }
        let mut kids = S::Set::default();
        let mut rest = cand.clone();
        while let Some(c) = rest.pop_first() {
            kids.union_with(&pat.children[c]);
        }
        let buf_start = self.pending.len();
        if MULTI {
            self.open_walk(&cand, start, level, payload);
        } else if cand.has(pat.hots[0]) {
            self.pending
                .push(ScanHit::new(&self.path, payload(), start, 0, level));
            self.undecided += 1;
        }
        self.hollow = kids.is_empty() && !spine_below && self.base_level + level >= self.floor;
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

    /// Add the roots `self.free` accepts at a node passing `tests` to its
    /// candidates `cand`, and count them per slot.
    fn free_roots(&mut self, tests: &NodeTests<S::Set>, cand: &mut S::Set) {
        let mut free = tests.nodes.and(&self.free);
        cand.union_with(&free);
        while let Some(r) = free.pop_first() {
            self.candidates[self.pat.slot(r)] += 1;
        }
    }

    /// The node at `level` opening at `start` with candidates `cand`:
    /// buffer its hits of every chain level, and open its cut sources.
    fn open_walk(
        &mut self,
        cand: &S::Set,
        start: u64,
        level: usize,
        payload: impl Fn() -> S::Payload,
    ) {
        let pat = &self.pat;
        for (chain_level, &hot) in pat.hots.iter().enumerate() {
            if cand.has(hot) {
                let hit = ScanHit::new(&self.path, payload(), start, chain_level, level);
                self.pending.push(hit);
                self.undecided += 1;
            }
        }
        if cand.meets(&pat.cut_srcs) {
            self.open_source(cand);
        }
    }

    /// A node opening with candidates `cand` is a candidate for a cut
    /// source: snapshot the root counts its cut edges compare at its close,
    /// and let the riders of its `//` edges open below it.
    fn open_source(&mut self, cand: &S::Set) {
        let pat = &self.pat;
        let (mut free, mut floor, snap) = (self.free.clone(), self.floor, self.snaps.len());
        for &(src, test) in &pat.cuts {
            self.snaps.push(match test {
                CutTest::Grew(s) => self.roots[s],
                CutTest::EndsBefore(_) => 0,
            });
            if let (CutTest::Grew(s), true) = (test, cand.has(src)) {
                free.insert(pat.roots[s]);
                floor = floor.max(pat.floors[s]);
            }
        }
        let free = std::mem::replace(&mut self.free, free);
        (self.scopes).push((free, std::mem::replace(&mut self.floor, floor), snap));
    }

    /// The innermost open node closes at position `end` (`MULTI` as for
    /// [`ScanMatcher::open`]).
    #[inline]
    pub(crate) fn close<const MULTI: bool>(&mut self, end: u64) -> CoreResult<()> {
        if self.frames.len() < 2 {
            return Err(CoreError::Corrupt(
                "structure closes more nodes than it opens".into(),
            ));
        }
        let Some(f) = self.frames.pop() else {
            return Ok(());
        };
        if !f.cand.is_empty() {
            let matched = self.settle::<MULTI>(&f, end)?;
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
                self.settle::<true>(&f, u64::MAX)?;
            }
            self.frames.push(f);
        }
        Ok(())
    }

    /// Do the cut edges leaving local pattern node `p` hold for the node
    /// closing at `end`, whose snapshots start at `snap`?
    fn cut_edges_hold(&self, p: usize, snap: usize, end: u64) -> bool {
        let at_open = |i: usize| self.snaps.get(snap + i).copied();
        (self.pat.cuts.iter().enumerate())
            .filter(|(_, (src, _))| *src == p)
            .all(|(i, &(_, test))| match test {
                CutTest::Grew(s) => at_open(i).is_some_and(|at| self.roots[s] > at),
                CutTest::EndsBefore(g) => end < self.before.get(g).copied().unwrap_or(0),
            })
    }

    /// Before the closing node `f` is settled: end the scope it opened as a
    /// cut source, and drop from `cand` the sources whose edges fail.
    fn decide_cuts(&mut self, f: &Frame<S::Set>, end: u64, cand: &mut S::Set) {
        let mut srcs = f.cand.and(&self.pat.cut_srcs);
        if srcs.is_empty() {
            return;
        }
        // The document node, a source of `following::` edges alone, opened
        // no scope and took no snapshot.
        let no_scope = (self.free.clone(), self.floor, self.snaps.len());
        let (free, floor, snap) = self.scopes.pop().unwrap_or(no_scope);
        (self.free, self.floor) = (free, floor);
        while let Some(p) = srcs.pop_first() {
            if !self.cut_edges_hold(p, snap, end) {
                cand.remove(p);
            }
        }
        self.snaps.truncate(snap);
    }

    /// Count the closing node `f`'s root matches `matched` per slot, and
    /// the walk root's last one.
    fn count_roots(&mut self, f: &Frame<S::Set>, matched: &S::Set) {
        let mut roots = matched.and(&self.pat.root_mask);
        if roots.has(0) {
            self.last_root = self.last_root.max(f.start);
        }
        while let Some(r) = roots.pop_first() {
            self.roots[self.pat.slot(r)] += 1;
        }
    }

    /// Decide which candidate pattern nodes the closing node `f` matches,
    /// count its root matches, and settle the buffered hits that were
    /// waiting on it. `self.frames` no longer holds `f`, so its length is
    /// `f`'s level.
    fn settle<const MULTI: bool>(&mut self, f: &Frame<S::Set>, end: u64) -> CoreResult<S::Set> {
        let level = self.frames.len() as u32;
        let mut rest = f.cand.clone();
        if MULTI {
            self.decide_cuts(f, end, &mut rest);
        }
        let pat = &self.pat;
        let mut matched = S::Set::default();
        while let Some(p) = rest.pop_first() {
            if !pat.children[p].is_subset(&f.sat) {
                continue;
            }
            if self.confirms.has(p) && !self.src.confirm(p, &self.path)? {
                continue;
            }
            matched.insert(p);
        }
        // Counted only now, after every cut edge of this node was decided.
        if MULTI {
            self.count_roots(f, &matched);
        } else {
            self.roots[0] += u64::from(matched.has(0));
        }
        let pat = &self.pat;
        if f.cand.meets(&pat.chain_mask) && self.pending.len() > f.buf_start {
            // A hit `d` levels below this node waits on it matching the
            // node `d` steps above the hot node on its chain.
            let mut kept = f.buf_start;
            for r in f.buf_start..self.pending.len() {
                let hit = &mut self.pending[r];
                if !hit.decided {
                    let chain = &pat.chains[usize::from(hit.level)];
                    let hot_depth = chain.len() - 1;
                    let below = (hit.depth - level) as usize;
                    let on_chain = hot_depth
                        .checked_sub(below)
                        .is_some_and(|i| matched.has(chain[i]));
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

/// The returning chain's filter (module docs): takes a walk's released hits
/// in document order and decides which are answers.
#[derive(Default)]
pub(crate) struct ChainFilter {
    levels: Vec<Level>,
}

/// One level of a [`ChainFilter`].
struct Level {
    /// The cut edge into the level (unused at level 0).
    kind: CutKind,
    /// Its surviving hits that hold the one kept last, outermost first.
    open: Vec<(u64, u64)>,
    /// The least end among all of them.
    min_end: u64,
}

impl ChainFilter {
    /// The filter of `walk`'s returning chain over `part`.
    pub(crate) fn new(part: &Partition, walk: &Walk) -> Self {
        let mut filter = ChainFilter::default();
        filter.reset(part, walk);
        filter
    }

    /// Make this the filter of `walk`'s returning chain over `part`,
    /// keeping the buffers it has.
    pub(crate) fn reset(&mut self, part: &Partition, walk: &Walk) {
        self.levels.truncate(walk.chain.len());
        while self.levels.len() < walk.chain.len() {
            self.levels.push(Level {
                kind: CutKind::Descendant,
                open: Vec::new(),
                min_end: u64::MAX,
            });
        }
        for (level, &f) in self.levels.iter_mut().zip(&walk.chain) {
            level.kind = part.incoming_cut(f).map_or(CutKind::Descendant, |c| c.kind);
            level.open.clear();
            level.min_end = u64::MAX;
        }
    }

    /// Is `hit`, the next released, an answer: of the chain's last level,
    /// and, past its first, under (`//`) or after (`following::`) a
    /// surviving hit of the level above? Every hit of that level starting
    /// before its fragment root was released before it. A survivor of an
    /// earlier level is kept for the level below.
    #[inline]
    pub(crate) fn answer<P>(&mut self, hit: &ScanHit<P>) -> bool {
        let l = usize::from(hit.level);
        if l > 0 {
            let q = hit.root_start;
            let up = &self.levels[l - 1];
            let pass = match self.levels[l].kind {
                CutKind::Descendant => up.open.iter().any(|&(s, e)| s < q && q < e),
                CutKind::Following => up.min_end < q,
            };
            if !pass {
                return false;
            }
        }
        if l + 1 == self.levels.len() {
            return true;
        }
        let level = &mut self.levels[l];
        while level.open.last().is_some_and(|&(_, e)| e < hit.start) {
            level.open.pop();
        }
        level.open.push((hit.start, hit.end));
        level.min_end = level.min_end.min(hit.end);
        false
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

    /// The matcher of a walk rooted at fragment `frag` alone, with the
    /// root floor the synopsis's depth bounds would give a free root.
    fn matcher<'d>(
        tree: &PatternTree,
        frag: usize,
        doc: &'d Document,
    ) -> ScanMatcher<DomSource<'d>> {
        let part = tree.partition();
        let walk = Walk {
            frags: vec![frag],
            chain: vec![frag],
        };
        let mut floors = vec![None; part.fragments.len()];
        let root = &tree.nodes[part.fragments[frag].root].test;
        floors[frag] = u16::try_from(floor_of(doc, NodeId::ROOT, root, 1)).ok();
        let pat = ScanPattern::compile(tree, &part, &walk, None, &floors).unwrap();
        let cmps = pat
            .nodes
            .iter()
            .map(|&n| tree.nodes[n].value_cmps.clone())
            .collect();
        let src = DomSource {
            doc,
            cmps,
            value: None,
            live: 0,
        };
        ScanMatcher::new(Arc::new(pat), src)
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
        fn confirm(&mut self, p: usize, _: &[u32]) -> CoreResult<bool> {
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
        let live = m.open::<false>(&tests, *pos, || ()).unwrap();
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
            m.close::<false>(*pos).unwrap();
            return;
        }
        for a in doc.attrs(id) {
            if open(m, &format!("@{}", a.name), pos) {
                m.src.value = Some(a.value.clone());
                *pos += 1;
                m.close::<false>(*pos).unwrap();
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
        m.close::<false>(*pos).unwrap();
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
        let matcher = NokMatcher::new(&tree, &part, frag);
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
            Arc::get_mut(&mut m.pat).expect("unshared").root_floor = floor;
            m.floor = floor;
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
        let mut pos = 0;
        // Walk by hand to sample the buffer after each record closes.
        assert!(m.open::<false>(&NodeTests::default(), 1, || ()).unwrap());
        for a in doc.children(NodeId::ROOT) {
            walk(&mut m, a, &mut pos);
            assert_eq!(m.buffered(), 0, "a closed record holds nothing back");
        }
        m.close::<false>(u64::MAX - 1).unwrap();
        m.finish().unwrap();
        assert_eq!(m.done.len(), 3);
        assert_eq!((m.candidates[0], m.roots[0]), (3, 2));
    }
}
