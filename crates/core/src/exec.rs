//! The operator executor: interprets a [`QueryPlan`] against the physical
//! layer.
//!
//! Execution of one plan:
//!
//! 1. [`PlanStep::EvalFragment`] steps run in plan order (children before
//!    parents; cheapest ready fragment first when the plan is
//!    cost-ordered). Each evaluates its fragment by the route the planner
//!    chose ([`SeedChoice`]); both routes feed stored entries, read in
//!    place off the stored pages ([`PageWalk`]), as open/close events to one
//!    [`ScanMatcher`], passing over the subtree of each dead node (see
//!    `core::scan`) with a depth count:
//!    * **index route** — locate starting points from B+v/B+t postings,
//!      verify the spine above them through B+i, and feed each start's
//!      subtree, from its open to its matching close, to the matcher
//!      primed with the start's Dewey id;
//!    * **scan route** — feed the whole page chain once: no starting
//!      points are materialized and no index is probed per node.
//!
//!    Either way every cut-edge source must structurally contain (or
//!    precede) a match of the already-evaluated child fragment — the
//!    structural *semijoin* folded into matching. A fragment with **zero**
//!    matches proves the whole query empty (tree patterns are conjunctive
//!    and every fragment is reachable from the root fragment through cut
//!    edges), so execution stops early — the payoff of cost-ordering.
//! 2. [`PlanStep::FilterChain`] steps walk top-down along the fragment
//!    path to the returning fragment, keeping hot matches whose
//!    fragment-root match lies under (or after) a surviving hot match of
//!    the parent.
//! 3. [`PlanStep::Collect`] emits the surviving returning-fragment hot
//!    matches: deduplicated, in document order.
//!
//! Matches go to a [`MatchSink`]. When nothing evaluated after the
//! returning fragment can drop a match (a single-fragment plan, or a
//! `//`-rooted one whose other fragment is the bare document node), its
//! pass puts each hot match into the sink between pages, as soon as the
//! matcher releases it, instead of at the collect step.

use std::cmp::Ordering;

use nok_pager::Storage;

use crate::build::XmlDb;
use crate::cursor::{PageWalk, WalkPage};
use crate::dewey::{cmp_key_path, Dewey};
use crate::engine::{MatchSink, QueryMatch, QueryScratch, QueryStats};
use crate::error::{CoreError, CoreResult};
use crate::join::IntervalSet;
use crate::page::{Entries, Entry};
use crate::pattern::NameTest;
use crate::pattern_tree::{CutKind, PNodeId, Partition, PatternTree, DOC_NODE};
use crate::physical::{IdRecord, PhysAccess, PhysNode, DOC_ADDR};
use crate::plan::{
    Explain, ExplainRow, FragmentPlan, PlanStep, PlannedQuery, QueryPlan, SeedChoice, StrategyUsed,
};
use crate::planner::spine_above;
use crate::scan::{NodeSet, NodeTests, ScanHit, ScanMatcher, ScanPattern, ScanSource, WideSet};
use crate::store::NodeAddr;
use crate::values::{hash_key, LockDataFile};
use crate::QueryOptions;

/// A hot-node match: Dewey id, address, containment interval, and the
/// position of the fragment-root match it was collected under.
type Hot = ScanHit<NodeAddr>;

/// One fragment's evaluation result.
#[derive(Debug, Default)]
pub(crate) struct FragEval {
    /// Successful fragment-root matches.
    roots: u64,
    /// Their positions, ascending — what the parent fragment's cut-edge
    /// condition searches. Not kept for fragment 0: nothing cuts into it.
    root_starts: Vec<u64>,
    /// Hot-node matches of every root match.
    hot: Vec<Hot>,
    evaluated: bool,
}

/// Pooled per-fragment evaluation buffers, reused across queries through
/// one [`QueryScratch`] so the serve worker hot path does not reallocate
/// the match vectors.
#[derive(Debug, Default)]
pub(crate) struct EvalPool {
    evals: Vec<FragEval>,
}

impl EvalPool {
    /// Prepare for a query of `nfrags` fragments, keeping capacities.
    fn reset(&mut self, nfrags: usize) {
        for ev in &mut self.evals {
            ev.roots = 0;
            ev.root_starts.clear();
            ev.hot.clear();
            ev.evaluated = false;
        }
        if self.evals.len() < nfrags {
            self.evals.resize_with(nfrags, FragEval::default);
        }
    }
}

/// One cut edge leaving the fragment under evaluation: its source pattern
/// node, its kind, and the root positions of the (already evaluated) child
/// fragment.
type Cut<'a> = (PNodeId, CutKind, &'a [u64]);

/// Does the node spanning `(start, end)` satisfy every cut edge leaving
/// pattern node `p` — does a child-fragment root lie inside it (`//`) or
/// after it (`following::`)? Tree intervals nest, so only the roots' start
/// positions matter.
fn cuts_hold(cuts: &[Cut<'_>], p: PNodeId, start: u64, end: u64) -> bool {
    cuts.iter()
        .filter(|(src, _, _)| *src == p)
        .all(|&(_, kind, roots)| match kind {
            CutKind::Descendant => {
                let i = roots.partition_point(|&s| s <= start);
                roots.get(i).is_some_and(|&s| s < end)
            }
            CutKind::Following => roots.last().is_some_and(|&s| s > end),
        })
}

/// Where a page-fed pass stands in the subtree of a dead node (see
/// [`ScanMatcher::open`]) or below a hollow one ([`ScanMatcher::hollow`]),
/// carried from one page to the next.
#[derive(Default)]
struct Skip {
    /// Nodes of the subtree still open; 0 outside one.
    open: u32,
    /// The subtree is a hollow node's: its close goes to the matcher.
    hollow: bool,
    /// Entries of dead subtrees so far: each dead open, which the matcher
    /// only counts as a child, and the rest of its subtree, passed over by
    /// the depth count — the children of a hollow node included.
    entries: u64,
}

impl Skip {
    /// Pass `entries` over the rest of the dead subtree, and then over the
    /// run of dead siblings after it, to the first entry the matcher must
    /// see or to the end of the page: `true` when the run ended on the
    /// page. A sibling is dead when [`ScanMatcher::is_dead`] says so; the
    /// matcher is not called for it, and the run's length is added to the
    /// parent's child counter once. The run stops where the subtree's
    /// close leaves `floor` nodes open: a dead index-route start has no
    /// siblings to pass. Out of line, and by value so that [`feed`]'s
    /// iterator stays in registers: inlined, it slows the loop of a pass
    /// that skips nothing.
    #[inline(never)]
    fn pass<'a, Src: ScanSource>(
        &mut self,
        m: &mut ScanMatcher<Src>,
        tests: &[NodeTests<Src::Set>],
        mut entries: Entries<'a>,
        floor: usize,
    ) -> (Entries<'a>, bool) {
        let from = entries.index();
        let closed = entries.pass(&mut self.open);
        if !closed || m.depth() == floor {
            self.entries += (entries.index() - from) as u64;
            return (entries, closed);
        }
        let mut run = 0;
        loop {
            let mut next = entries.clone();
            let Some(Entry::Open(tag)) = next.next() else {
                break;
            };
            match tests.get(usize::from(tag.0)) {
                Some(t) if m.is_dead(t) => {}
                _ => break,
            }
            run += 1;
            self.open = 1;
            entries = next;
            if !entries.pass(&mut self.open) {
                m.pass_dead(run);
                self.entries += (entries.index() - from) as u64;
                return (entries, false);
            }
        }
        m.pass_dead(run);
        self.entries += (entries.index() - from) as u64;
        (entries, true)
    }
}

/// Feed entries `from..` of one page to the matcher, stopping after the
/// close that leaves `floor` nodes open (the scan route passes 0: never).
/// Returns the index after that close. The subtree of a dead node, the
/// dead siblings after it and the children of a hollow node are passed
/// over by an excess search over the page's parenthesis bytes; a dead
/// start of the index route ends its sub-scan at its own close.
#[inline]
fn feed<Src: ScanSource<Payload = NodeAddr>>(
    m: &mut ScanMatcher<Src>,
    tests: &[NodeTests<Src::Set>],
    wp: &WalkPage<'_>,
    from: usize,
    floor: usize,
    skip: &mut Skip,
) -> CoreResult<Option<usize>> {
    let mut entries = wp.page.entries_from(from);
    let untested = NodeTests::default();
    // One run of live entries after each dead subtree passed over.
    'runs: loop {
        if skip.hollow {
            // The children of a hollow node, then its close.
            let from = entries.index();
            let closed = entries.pass(&mut skip.open);
            let close = entries.index() - usize::from(closed);
            skip.entries += (close - from) as u64;
            if !closed {
                return Ok(None);
            }
            skip.hollow = false;
            m.close(wp.lin(close))?;
            if m.depth() == floor {
                return Ok(Some(close + 1));
            }
        } else if skip.open > 0 {
            let closed;
            (entries, closed) = skip.pass(m, tests, entries, floor);
            if !closed {
                return Ok(None);
            }
            if m.depth() == floor {
                return Ok(Some(entries.index()));
            }
        }
        loop {
            let i = entries.index();
            let Some(entry) = entries.next() else {
                return Ok(None);
            };
            match entry {
                Entry::Open(tag) => {
                    let tests = tests.get(tag.0 as usize).unwrap_or(&untested);
                    let addr = || NodeAddr {
                        page: wp.id,
                        entry: i as u32,
                    };
                    if !m.open(tests, wp.lin(i), addr)? {
                        // A dead leaf: its close is all there is to pass.
                        if entries.at_close() {
                            entries.next();
                            skip.entries += 2;
                            if m.depth() == floor {
                                return Ok(Some(i + 2));
                            }
                            continue;
                        }
                        skip.open = 1;
                        skip.entries += 1;
                        continue 'runs;
                    }
                    if m.hollow() && !entries.at_close() {
                        skip.open = 1;
                        skip.hollow = true;
                        continue 'runs;
                    }
                }
                Entry::Close => {
                    m.close(wp.lin(i))?;
                    if m.depth() == floor {
                        return Ok(Some(i + 1));
                    }
                }
            }
        }
    }
}

/// The sink of the fragment whose pass releases the answer itself (see the
/// module docs), the position of the last match put into it, and how many
/// hits were drained.
struct Release<'s, K: ?Sized> {
    sink: &'s mut K,
    last: Option<u64>,
    drained: u64,
}

impl<K: MatchSink + ?Sized> Release<'_, K> {
    /// Put the hits released so far into the sink, emptying `done`. Hits
    /// leave the matcher in document order (`core::scan`); one that does
    /// not is an error, as it can no longer be sorted into place.
    fn drain(&mut self, done: &mut Vec<Hot>) -> CoreResult<()> {
        self.drained += done.len() as u64;
        for h in done.drain(..) {
            match self.last.map(|l| l.cmp(&h.start)) {
                Some(Ordering::Equal) => continue,
                Some(Ordering::Greater) => {
                    return Err(CoreError::Corrupt(format!(
                        "match {} released after a later one",
                        h.dewey
                    )))
                }
                _ => {}
            }
            self.last = Some(h.start);
            self.sink.put(QueryMatch {
                addr: h.payload,
                dewey: h.dewey,
            })?;
        }
        Ok(())
    }
}

/// The fragment whose pass releases the answer into the sink: the
/// returning fragment, when nothing after its evaluation can drop a match —
/// every fragment evaluated after it, and every filter step, concerns only
/// the bare document node (the `//` of a `//`-rooted query), which always
/// matches and contains every node.
fn released_frag(plan: &QueryPlan, part: &Partition<'_>) -> Option<usize> {
    let bare_doc = |f: usize| {
        matches!(plan.fragments[f].seed, SeedChoice::DocNavigate)
            && part.tree.local_children(DOC_NODE).next().is_none()
    };
    let collect = plan.steps.iter().find_map(|step| match step {
        PlanStep::Collect { frag } => Some(*frag),
        _ => None,
    })?;
    let mut evaluated = false;
    for step in &plan.steps {
        match step {
            PlanStep::EvalFragment { frag } if *frag == collect => evaluated = true,
            PlanStep::EvalFragment { frag } if evaluated && !bare_doc(*frag) => return None,
            PlanStep::FilterChain {
                parent,
                kind: CutKind::Descendant,
                ..
            } if bare_doc(*parent) => {}
            PlanStep::FilterChain { .. } => return None,
            _ => {}
        }
    }
    Some(collect)
}

/// A forward cursor over the document-ordered postings of one literal, for
/// one pattern node.
struct EqCursor {
    /// Local pattern node carrying the constraint.
    node: usize,
    /// Index into [`StoreSource::postings`].
    list: usize,
    pos: usize,
}

/// The postings of one literal: Dewey keys in document order.
type Postings<'a> = (&'a str, Vec<Vec<u8>>);

/// The stored document as a [`ScanSource`]: string equalities with postings
/// by a merge at open, other value comparisons by fetching the value at
/// close, cut edges against the closing node's interval.
struct StoreSource<'a, S: Storage, B> {
    access: &'a PhysAccess<'a, S>,
    tree: &'a PatternTree,
    /// Local index → pattern node (see [`ScanPattern`]).
    nodes: Vec<PNodeId>,
    cuts: &'a [Cut<'a>],
    /// Verified postings per merged literal.
    postings: Vec<Postings<'a>>,
    eq: Vec<EqCursor>,
    admits: B,
    confirms: B,
}

impl<S: Storage, B: NodeSet> ScanSource for StoreSource<'_, S, B> {
    type Payload = NodeAddr;
    type Set = B;

    fn admits(&self) -> B {
        self.admits.clone()
    }

    fn confirms(&self) -> B {
        self.confirms.clone()
    }

    fn admit(&mut self, mut cand: B, path: &[u32]) -> CoreResult<B> {
        for c in &mut self.eq {
            if !cand.has(c.node) {
                continue;
            }
            // Nodes arrive in document order, the order the postings are
            // in: the cursor only ever moves forward.
            let list = &self.postings[c.list].1;
            while list
                .get(c.pos)
                .is_some_and(|k| cmp_key_path(k, path) == Ordering::Less)
            {
                c.pos += 1;
            }
            if list
                .get(c.pos)
                .is_none_or(|k| cmp_key_path(k, path) != Ordering::Equal)
            {
                cand.remove(c.node);
            }
        }
        Ok(cand)
    }

    fn confirm(&mut self, p: usize, path: &[u32], start: u64, end: u64) -> CoreResult<bool> {
        let pnode = self.nodes[p];
        let cmps = &self.tree.nodes[pnode].value_cmps;
        // Merged string equalities were settled at open.
        let merged = |l: &str| self.postings.iter().any(|(m, _)| *m == l);
        let mut fetched = cmps
            .iter()
            .filter(|c| !c.str_eq().is_some_and(merged))
            .peekable();
        if fetched.peek().is_some() {
            let Some(v) = self.access.value_of_dewey(&Dewey::from_slice(path))? else {
                return Ok(false);
            };
            if !fetched.all(|c| c.eval(&v)) {
                return Ok(false);
            }
        }
        Ok(cuts_hold(self.cuts, pnode, start, end))
    }
}

/// A fragment's matcher over the stored document, and the name tests it
/// runs per tag code.
type StoreMatcher<'a, S, B> = (ScanMatcher<StoreSource<'a, S, B>>, Vec<NodeTests<B>>);

/// What the last spine check learned: the ancestor levels of the start it
/// checked, how many of them passed, and whether the next one failed.
#[derive(Default)]
struct SpineMemo {
    path: Vec<u32>,
    ok: usize,
    failed: bool,
}

impl<S: Storage> XmlDb<S> {
    /// Execute a planned query into caller-provided buffers. `out` is
    /// cleared first; matches land there in document order.
    pub fn execute_plan(
        &self,
        planned: &PlannedQuery,
        scratch: &mut QueryScratch,
        out: &mut Vec<QueryMatch>,
    ) -> CoreResult<()> {
        out.clear();
        self.execute_plan_into(planned, scratch, out)
    }

    /// Execute a planned query, putting its matches into `sink` in
    /// document order as they are decided (see [`MatchSink`]). This is the
    /// allocation-lean path the serve workers (and the plan cache) use.
    pub fn execute_plan_into<K: MatchSink + ?Sized>(
        &self,
        planned: &PlannedQuery,
        scratch: &mut QueryScratch,
        sink: &mut K,
    ) -> CoreResult<()> {
        self.execute_pattern_plan(&planned.tree, &planned.plan, scratch, sink)
    }

    /// Execute a plan over a borrowed pattern tree (the partition is
    /// recomputed — it is deterministic and borrows the tree).
    pub(crate) fn execute_pattern_plan<K: MatchSink + ?Sized>(
        &self,
        tree: &PatternTree,
        plan: &QueryPlan,
        scratch: &mut QueryScratch,
        sink: &mut K,
    ) -> CoreResult<()> {
        let part = tree.partition();
        let access = PhysAccess::new(&self.store, &self.dict, &self.bt_id, &self.data);
        let nfrags = part.fragments.len();
        let QueryScratch { stats, pool } = scratch;
        stats.reset(nfrags);
        pool.reset(nfrags);
        if plan.proven_empty {
            // The synopsis proved some root chain unsupported: every
            // fragment is skipped, no starting point is located, and not
            // one page is touched.
            for fp in &plan.fragments {
                stats.strategies[fp.frag] = StrategyUsed::Skipped;
            }
            stats.proven_empty = true;
            return Ok(());
        }

        let released = released_frag(plan, &part);
        let mut sink = Release {
            sink,
            last: None,
            drained: 0,
        };
        for step in &plan.steps {
            match step {
                PlanStep::EvalFragment { frag } => {
                    let fp = &plan.fragments[*frag];
                    let release = (released == Some(*frag)).then_some(&mut sink);
                    let empty =
                        self.exec_fragment(&part, fp, &access, &mut pool.evals, stats, release)?;
                    if empty {
                        // Conjunctive pattern + connected fragment forest:
                        // an empty fragment empties the whole query.
                        for (f, fp2) in plan.fragments.iter().enumerate() {
                            if !pool.evals[f].evaluated {
                                stats.strategies[fp2.frag] = StrategyUsed::Skipped;
                            }
                        }
                        return Ok(());
                    }
                }
                PlanStep::FilterChain { child, .. } if released == Some(*child) => {
                    // Every match lies inside the document node: all pass.
                    stats.chain_survivors.push(sink.drained);
                }
                PlanStep::FilterChain {
                    parent,
                    child,
                    kind,
                } => {
                    let allowed = IntervalSet::new(
                        pool.evals[*parent]
                            .hot
                            .iter()
                            .map(|h| (h.start, h.end))
                            .collect(),
                    );
                    let hot = &mut pool.evals[*child].hot;
                    hot.retain(|h| match kind {
                        CutKind::Descendant => allowed.any_containing(h.root_start),
                        CutKind::Following => allowed.any_ending_before(h.root_start),
                    });
                    stats.chain_survivors.push(hot.len() as u64);
                }
                PlanStep::Collect { frag } => {
                    // A released fragment's hits are in the sink already.
                    let hot = &mut pool.evals[*frag].hot;
                    // Both routes release matches in document order (the
                    // index route's subtrees are disjoint and ascending);
                    // the dedup below relies on it.
                    if !hot.is_sorted_by(|a, b| a.dewey <= b.dewey) {
                        hot.sort_by(|a, b| a.dewey.cmp(&b.dewey));
                    }
                    hot.dedup_by(|a, b| a.payload == b.payload);
                    sink.drain(hot)?;
                }
            }
        }
        Ok(())
    }

    /// Evaluate one fragment by its planned route. Returns whether the
    /// fragment matched **nowhere** (the early-exit signal). With `release`,
    /// its hot matches go there as the pass releases them.
    fn exec_fragment<K: MatchSink + ?Sized>(
        &self,
        part: &Partition<'_>,
        fp: &FragmentPlan,
        access: &PhysAccess<'_, S>,
        evals: &mut [FragEval],
        stats: &mut QueryStats,
        mut release: Option<&mut Release<'_, K>>,
    ) -> CoreResult<bool> {
        let f = fp.frag;
        // Child fragments always carry a larger index (partition numbering
        // increases downward), so splitting at `f + 1` separates the
        // fragment being written from the already-evaluated children its
        // cut edges read.
        let (head, tail) = evals.split_at_mut(f + 1);
        let target = &mut head[f];
        let cuts: Vec<Cut<'_>> = part
            .cut_edges_from(f)
            .map(|ce| {
                let child = &tail[ce.child_frag - f - 1];
                debug_assert!(child.evaluated, "child fragment evaluated before parent");
                (ce.src, ce.kind, child.root_starts.as_slice())
            })
            .collect();
        stats.strategies[f] = if part.fragments[f].members.len() <= u64::CAPACITY {
            self.eval_route::<u64, K>(part, fp, access, &cuts, target, stats, &mut release)?
        } else {
            self.eval_route::<WideSet, K>(part, fp, access, &cuts, target, stats, &mut release)?
        };
        if let Some(release) = release {
            release.drain(&mut target.hot)?;
        }
        // Ascending for the parent's binary searches (nested root matches
        // close inner-first).
        target.root_starts.sort_unstable();
        target.evaluated = true;
        Ok(target.roots == 0)
    }

    /// Evaluate fragment `fp` by its planned route, matching with pattern
    /// node sets of type `B`.
    #[allow(clippy::too_many_arguments)]
    fn eval_route<'a, B: NodeSet, K: MatchSink + ?Sized>(
        &self,
        part: &'a Partition<'_>,
        fp: &FragmentPlan,
        access: &'a PhysAccess<'a, S>,
        cuts: &'a [Cut<'a>],
        target: &mut FragEval,
        stats: &mut QueryStats,
        release: &mut Option<&mut Release<'_, K>>,
    ) -> CoreResult<StrategyUsed> {
        let f = fp.frag;
        Ok(match &fp.seed {
            SeedChoice::Scan => {
                self.scan_fragment::<B, K>(part, fp, access, cuts, target, stats, release)?;
                StrategyUsed::Scan
            }
            SeedChoice::DocNavigate if part.tree.local_children(DOC_NODE).next().is_some() => {
                self.scan_fragment::<B, K>(part, fp, access, cuts, target, stats, release)?;
                StrategyUsed::Doc
            }
            SeedChoice::DocNavigate => {
                // The document node alone: it matches, and is its own hot
                // match when the fragment collects it. No page is read.
                stats.starting_points[f] = 1;
                stats.fragment_matches[f] = 1;
                target.roots = 1;
                if part.hot.get(&f) == Some(&DOC_NODE) {
                    target
                        .hot
                        .push(ScanHit::new(Dewey::default(), DOC_ADDR, 0, u64::MAX, 0));
                }
                StrategyUsed::Doc
            }
            SeedChoice::ValueIndex { literal, lift } => {
                let postings = self.eq_postings(literal, access)?;
                let starts =
                    self.lifted(postings.iter().filter_map(|p| Dewey::from_key(p)), *lift)?;
                let seed = vec![(literal.as_str(), postings)];
                self.index_fragment::<B, K>(
                    part, fp, starts, seed, access, cuts, target, stats, release,
                )?;
                StrategyUsed::ValueIndex
            }
            SeedChoice::TagIndex { name, lift } => {
                let starts = self.tag_seed(name, *lift)?;
                self.index_fragment::<B, K>(
                    part,
                    fp,
                    starts,
                    Vec::new(),
                    access,
                    cuts,
                    target,
                    stats,
                    release,
                )?;
                StrategyUsed::TagIndex
            }
        })
    }

    /// The matcher of fragment `fp` compiled as `pat`, its source reading
    /// the postings of the index route's `seed` literals (on the scan
    /// route, `None`: of every `= "literal"` the fragment has) and fetching
    /// values for the rest, and its name tests resolved per tag code, with
    /// the plan's root floor.
    fn matcher<'a, B: NodeSet>(
        &self,
        part: &'a Partition<'_>,
        fp: &FragmentPlan,
        mut pat: ScanPattern<B>,
        access: &'a PhysAccess<'a, S>,
        cuts: &'a [Cut<'a>],
        seed: Option<Vec<Postings<'a>>>,
    ) -> CoreResult<StoreMatcher<'a, S, B>> {
        let load = seed.is_none();
        let mut postings = seed.unwrap_or_default();
        let (mut eq, mut admits, mut confirms) = (Vec::new(), B::default(), B::default());
        for (i, &n) in pat.nodes.iter().enumerate() {
            for cmp in &part.tree.nodes[n].value_cmps {
                let lit = cmp.str_eq();
                let mut list = lit.and_then(|l| postings.iter().position(|(m, _)| *m == l));
                if let (None, Some(lit), true) = (list, lit, load) {
                    postings.push((lit, self.eq_postings(lit, access)?));
                    list = Some(postings.len() - 1);
                }
                match list {
                    Some(list) => {
                        eq.push(EqCursor {
                            node: i,
                            list,
                            pos: 0,
                        });
                        admits.insert(i);
                    }
                    None => confirms.insert(i),
                }
            }
            if cuts.iter().any(|(src_node, _, _)| *src_node == n) {
                confirms.insert(i);
            }
        }
        pat.root_floor = fp.root_floor.map_or(usize::MAX, usize::from);
        let mut tests = vec![NodeTests::default(); self.dict.len()];
        for (code, name) in self.dict.iter() {
            tests[code.0 as usize] = NodeTests::of(&pat, name);
        }
        let src = StoreSource {
            access,
            tree: part.tree,
            nodes: pat.nodes.clone(),
            cuts,
            postings,
            eq,
            admits,
            confirms,
        };
        Ok((ScanMatcher::new(pat, src), tests))
    }

    /// The scan route: one forward pass over the page chain, one page held
    /// at a time, its entries read in place. With
    /// `release`, the hits released by each page go there after it.
    #[allow(clippy::too_many_arguments)]
    fn scan_fragment<B: NodeSet, K: MatchSink + ?Sized>(
        &self,
        part: &Partition<'_>,
        fp: &FragmentPlan,
        access: &PhysAccess<'_, S>,
        cuts: &[Cut<'_>],
        target: &mut FragEval,
        stats: &mut QueryStats,
        release: &mut Option<&mut Release<'_, K>>,
    ) -> CoreResult<()> {
        let f = fp.frag;
        let pat = ScanPattern::<B>::compile(part, f)?;
        let (mut m, tests) = self.matcher(part, fp, pat, access, cuts, None)?;
        // Released matches and root positions land straight in the pooled
        // result vectors.
        m.done = std::mem::take(&mut target.hot);
        m.root_starts = (f != 0).then(|| std::mem::take(&mut target.root_starts));
        let mut walk = PageWalk::new(&self.store);
        let mut skip = Skip::default();
        let io = self.store.pool().stats();
        while let Some(wp) = walk.next_page()? {
            let n = wp.page.len() as u64;
            io.add_entries_examined(n);
            stats.entries_examined += n;
            feed(&mut m, &tests, &wp, 0, 0, &mut skip)?;
            if let Some(release) = release {
                release.drain(&mut m.done)?;
            }
        }
        if skip.open > 0 {
            return Err(CoreError::Corrupt(format!(
                "structure ends with {} nodes still open",
                skip.open
            )));
        }
        m.finish()?;
        stats.entries_skipped += skip.entries;
        stats.dir_entries_examined += walk.probes();
        stats.starting_points[f] = m.candidates;
        stats.fragment_matches[f] = m.roots;
        target.roots = m.roots;
        target.root_starts = m.root_starts.take().unwrap_or_default();
        target.hot = m.done;
        Ok(())
    }

    /// The index route: verify the seeded starting points (in document
    /// order), and feed each one's subtree to the scan route's matcher,
    /// compiled from the planned pivot. A start inside the subtree of the
    /// one before it was already decided there — an unanchored fragment
    /// takes root matches anywhere in a subtree — so subtrees never
    /// overlap, the walk only moves forward, and each structure page is
    /// fetched at most once.
    #[allow(clippy::too_many_arguments)]
    fn index_fragment<'a, B: NodeSet, K: MatchSink + ?Sized>(
        &self,
        part: &'a Partition<'_>,
        fp: &FragmentPlan,
        starts: Vec<PhysNode>,
        seed: Vec<Postings<'a>>,
        access: &'a PhysAccess<'a, S>,
        cuts: &'a [Cut<'a>],
        target: &mut FragEval,
        stats: &mut QueryStats,
        release: &mut Option<&mut Release<'_, K>>,
    ) -> CoreResult<()> {
        let f = fp.frag;
        let pat = ScanPattern::<B>::compile_seeded(part, f, fp.pivot)?;
        let (mut m, tests) = self.matcher(part, fp, pat, access, cuts, Some(seed))?;
        m.done = std::mem::take(&mut target.hot);
        m.root_starts = (f != 0).then(|| std::mem::take(&mut target.root_starts));
        // A fixed-depth pivot: its level and the spine above it.
        let spine = if fp.verify_spine {
            Some(spine_above(part, fp.pivot))
        } else {
            None
        };
        let mut memo = SpineMemo::default();
        let mut walk = PageWalk::new(&self.store);
        let mut last: Option<Dewey> = None;
        let mut skip = Skip::default();
        let io = self.store.pool().stats();
        for start in starts {
            if let Some(spine) = &spine {
                if start.dewey.level() != spine.len() as u32 + 1
                    || !self.spine_holds(&start.dewey, spine, &mut memo)?
                {
                    continue;
                }
            }
            stats.starting_points[f] += 1;
            if last
                .as_ref()
                .is_some_and(|l| l.is_ancestor_of(&start.dewey))
            {
                continue;
            }
            // The walk still holds the page when the last start was on it.
            if walk.current().is_none_or(|wp| wp.id != start.addr.page) {
                walk.seek(self.store.rank(start.addr.page)?);
                walk.next_page()?.ok_or_else(|| {
                    CoreError::Corrupt(format!("start {} past the page chain", start.addr))
                })?;
            }
            let mut from = start.addr.entry as usize;
            if !walk.current().is_some_and(|wp| wp.page.is_open(from)) {
                return Err(CoreError::Corrupt(format!(
                    "start {} is not an open entry",
                    start.addr
                )));
            }
            m.prime(start.dewey.components())?;
            while let Some(wp) = walk.current() {
                let stop = feed(&mut m, &tests, &wp, from, 1, &mut skip)?;
                let n = (stop.unwrap_or(wp.page.len()) - from) as u64;
                io.add_entries_examined(n);
                stats.entries_examined += n;
                if let Some(release) = release {
                    release.drain(&mut m.done)?;
                }
                if stop.is_some() {
                    break;
                }
                walk.next_page()?.ok_or_else(|| {
                    CoreError::Corrupt(format!("no matching close for node at {}", start.addr))
                })?;
                from = 0;
            }
            last = Some(start.dewey);
        }
        m.finish()?;
        stats.entries_skipped += skip.entries;
        stats.dir_entries_examined += walk.probes();
        stats.fragment_matches[f] = m.roots;
        target.roots = m.roots;
        target.root_starts = m.root_starts.take().unwrap_or_default();
        target.hot = m.done;
        Ok(())
    }

    /// Dewey keys of the nodes whose value is exactly `literal`, in
    /// document order: the literal's B+v postings, each verified against
    /// the stored text (hash-collision safety) unless the data file vouches
    /// that the hash identifies the literal.
    fn eq_postings(&self, literal: &str, access: &PhysAccess<'_, S>) -> CoreResult<Vec<Vec<u8>>> {
        let mut postings = self.bt_val.get_all(&hash_key(literal))?;
        let vouched = self.data.lock_data().hash_identifies(literal)?;
        if !vouched {
            let mut verified = Vec::with_capacity(postings.len());
            for p in postings {
                if let Some(dewey) = Dewey::from_key(&p) {
                    if access.value_equals(&dewey, literal)? {
                        verified.push(p);
                    }
                }
            }
            postings = verified;
        }
        // Postings of one hash sit in insertion order, which updates take
        // out of document order.
        if !postings.is_sorted() {
            postings.sort_unstable();
        }
        Ok(postings)
    }

    /// The distinct ancestors `lift` levels above `deweys`, in document
    /// order, each located through B+i.
    fn lifted(&self, deweys: impl Iterator<Item = Dewey>, lift: u32) -> CoreResult<Vec<PhysNode>> {
        let mut ancestors: Vec<Dewey> = deweys
            .filter_map(|d| {
                let level = d.level();
                // Too shallow to have the required ancestor.
                (level > lift).then(|| d.ancestor_at_level(level - lift))?
            })
            .collect();
        ancestors.sort_unstable();
        ancestors.dedup();
        let mut starts = Vec::with_capacity(ancestors.len());
        for dewey in ancestors {
            if let Some(rec) = self.bt_id.get_first(&dewey.to_key())? {
                let addr = IdRecord::from_bytes(&rec)?.addr;
                starts.push(PhysNode { addr, dewey });
            }
        }
        Ok(starts)
    }

    /// Tag-index seed: the tag's postings, lifted `lift` levels.
    fn tag_seed(&self, name: &str, lift: u32) -> CoreResult<Vec<PhysNode>> {
        let Some(code) = self.dict.lookup(name) else {
            return Ok(Vec::new());
        };
        let postings = self.tag_postings(code)?;
        if lift == 0 {
            return Ok(postings
                .into_iter()
                .map(|p| PhysNode {
                    addr: p.addr,
                    dewey: p.dewey,
                })
                .collect());
        }
        self.lifted(postings.into_iter().map(|p| p.dewey), lift)
    }

    /// Do the ancestors of `dewey` (levels 1..) pass the spine tests? Each
    /// is located through B+i, except that starts arrive in document order,
    /// so a level the last check already decided for the same ancestor is
    /// not looked up again.
    fn spine_holds(
        &self,
        dewey: &Dewey,
        spine: &[NameTest],
        memo: &mut SpineMemo,
    ) -> CoreResult<bool> {
        let Some(path) = dewey.components().get(..spine.len()) else {
            return Ok(false);
        };
        let shared = path
            .iter()
            .zip(&memo.path)
            .take_while(|(a, b)| a == b)
            .count();
        if memo.failed && shared > memo.ok {
            return Ok(false); // the same ancestor failed last time
        }
        let mut ok = memo.ok.min(shared);
        memo.path.clear();
        memo.path.extend_from_slice(path);
        memo.failed = false;
        while ok < spine.len() {
            let key = Dewey::from_slice(&path[..=ok]).to_key();
            let holds = match self.bt_id.get_first(&key)? {
                Some(rec) => {
                    let tag = self.store.tag_at(IdRecord::from_bytes(&rec)?.addr)?;
                    spine[ok].accepts(self.dict.name(tag))
                }
                None => false,
            };
            if !holds {
                memo.ok = ok;
                memo.failed = true;
                return Ok(false);
            }
            ok += 1;
        }
        memo.ok = ok;
        Ok(true)
    }

    /// Plan, execute, and render the plan with estimated vs. actual
    /// cardinalities per operator.
    pub fn explain(
        &self,
        path: &str,
        opts: QueryOptions,
    ) -> CoreResult<(Vec<QueryMatch>, Explain)> {
        let planned = self.plan_query(path, opts)?;
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        self.execute_plan(&planned, &mut scratch, &mut out)?;
        let explain = build_explain(&planned, scratch.stats(), out.len());
        Ok((out, explain))
    }
}

/// Render a plan alongside the stats of one execution of it.
pub(crate) fn build_explain(
    planned: &PlannedQuery,
    stats: &QueryStats,
    result_count: usize,
) -> Explain {
    let plan = &planned.plan;
    let mut rows = Vec::with_capacity(plan.steps.len());
    let mut filter_idx = 0usize;
    for step in &plan.steps {
        match step {
            PlanStep::EvalFragment { frag } => {
                let fp = &plan.fragments[*frag];
                let strategy = stats
                    .strategies
                    .get(*frag)
                    .copied()
                    .unwrap_or(StrategyUsed::Pending);
                let root_test = if fp.root == DOC_NODE {
                    "/".to_string()
                } else {
                    planned.tree.nodes[fp.root].test.to_string()
                };
                let actual = match strategy {
                    StrategyUsed::Skipped | StrategyUsed::Pending => None,
                    _ => stats.starting_points.get(*frag).copied(),
                };
                let path_est = match fp.path_support {
                    Some(s) if fp.path_support_open => format!(" path-est<={s}"),
                    Some(s) => format!(" path-est={s}"),
                    None => String::new(),
                };
                rows.push(ExplainRow {
                    op: "eval".into(),
                    detail: format!(
                        "fragment {} root={} seed={} strategy={}{} cost={} matches={}",
                        frag,
                        root_test,
                        fp.seed,
                        strategy,
                        path_est,
                        fp.est_cost,
                        stats.fragment_matches.get(*frag).copied().unwrap_or(0),
                    ),
                    est: Some(fp.est_starts),
                    actual,
                });
            }
            PlanStep::FilterChain {
                parent,
                child,
                kind,
            } => {
                let actual = stats.chain_survivors.get(filter_idx).copied();
                filter_idx += 1;
                rows.push(ExplainRow {
                    op: "filter".into(),
                    detail: format!(
                        "semijoin fragment {parent} -> {child} ({})",
                        match kind {
                            CutKind::Descendant => "descendant",
                            CutKind::Following => "following",
                        }
                    ),
                    est: None,
                    actual,
                });
            }
            PlanStep::Collect { frag } => {
                rows.push(ExplainRow {
                    op: "collect".into(),
                    detail: format!("returning fragment {frag}, document order, deduped"),
                    est: None,
                    actual: Some(result_count as u64),
                });
            }
        }
    }
    Explain { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{QueryOptions, StartStrategy};
    use crate::naive::NaiveEvaluator;
    use nok_xml::Document;

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

    /// BIB among enough other books that a couple of index starts cost less
    /// than a pass over the document.
    fn big_bib() -> String {
        let filler = "<book><author><last>Other</last><first>O.</first></author></book>";
        BIB.replace("</bib>", &format!("{}</bib>", filler.repeat(100)))
    }

    fn deweys(db: &crate::build::XmlDb<nok_pager::MemStorage>, q: &str) -> Vec<String> {
        db.query(q)
            .unwrap()
            .iter()
            .map(|m| m.dewey.to_string())
            .collect()
    }

    /// Engine results must equal the naive oracle on this document/query.
    fn check_against_oracle(xml: &str, query: &str) {
        let db = crate::build::XmlDb::build_in_memory(xml).unwrap();
        let doc = Document::parse(xml).unwrap();
        let oracle = NaiveEvaluator::new(&doc);
        let expected: Vec<String> = oracle
            .eval_str(query)
            .unwrap()
            .iter()
            .map(|n| oracle.dewey(n).to_string())
            .collect();
        let got = deweys(&db, query);
        assert_eq!(got, expected, "query {query} on {} bytes", xml.len());
    }

    #[test]
    fn paper_query_end_to_end() {
        let db = crate::build::XmlDb::build_in_memory(BIB).unwrap();
        let hits = db
            .query(r#"//book[author/last="Stevens"][price<100]"#)
            .unwrap();
        assert_eq!(hits.len(), 2, "the two Stevens books under 100");
        assert_eq!(db.tag_name_of(&hits[0]).unwrap(), "book");
    }

    #[test]
    fn oracle_agreement_basic() {
        for q in [
            "/bib",
            "/bib/book",
            "/bib/book/title",
            "//last",
            "//book//last",
            "/bib/book/author/last",
            "/bib/book/@year",
            "/nope",
            "//nope",
            "/bib/nope/deeper",
        ] {
            check_against_oracle(BIB, q);
        }
    }

    #[test]
    fn oracle_agreement_predicates() {
        for q in [
            r#"//book[author/last="Stevens"]"#,
            r#"//book[author/last="Stevens"][price<100]"#,
            "//book[price>100]",
            "//book[price>=129.95]",
            "//book[@year>1993]/title",
            "//book[editor]",
            "//book[author][editor]",
            r#"//book[publisher="Addison-Wesley"]/price"#,
            r#"//last[.="Stevens"]"#,
            "//book[author/first]",
        ] {
            check_against_oracle(BIB, q);
        }
    }

    #[test]
    fn oracle_agreement_descendants_and_wildcards() {
        for q in [
            "//author/*",
            "/bib/*/title",
            "/bib//last",
            "//*[affiliation]",
            "/bib/book//first",
        ] {
            check_against_oracle(BIB, q);
        }
    }

    #[test]
    fn oracle_agreement_multi_fragment() {
        for q in [
            "/bib//author/last",
            "//book//first",
            "/bib//editor//affiliation",
            "/bib/book[.//affiliation]/title",
            "//author[last]//first",
        ] {
            check_against_oracle(BIB, q);
        }
    }

    #[test]
    fn oracle_agreement_following() {
        let xml = "<a><b><x/></b><c><x/><y/></c><b2/><x/></a>";
        for q in [
            "/a/b/following::x",
            "/a/b/following::c",
            "/a/c/x/following-sibling::y",
            "/a/b/following::y",
            "//x/following::x",
        ] {
            check_against_oracle(xml, q);
        }
    }

    #[test]
    fn strategies_agree_with_each_other() {
        let db = crate::build::XmlDb::build_in_memory(&big_bib()).unwrap();
        let q = r#"//book[author/last="Stevens"][price<100]"#;
        let mut answers = Vec::new();
        for strat in [
            StartStrategy::Auto,
            StartStrategy::Scan,
            StartStrategy::TagIndex,
            StartStrategy::ValueIndex,
        ] {
            let (hits, stats) = db.query_with(q, QueryOptions { strategy: strat }).unwrap();
            answers.push((
                hits.iter().map(|m| m.dewey.to_string()).collect::<Vec<_>>(),
                stats,
            ));
        }
        for (a, _) in &answers[1..] {
            assert_eq!(*a, answers[0].0);
        }
        // Two starts against a pass over 400 nodes: Auto must have chosen
        // the value index here (the paper's heuristic, by price).
        assert!(answers[0].1.strategies.contains(&StrategyUsed::ValueIndex));
    }

    #[test]
    fn value_index_prunes_starting_points() {
        let db = crate::build::XmlDb::build_in_memory(BIB).unwrap();
        let (_, stats) = db
            .query_with(
                r#"//book[author/last="Abiteboul"]"#,
                QueryOptions {
                    strategy: StartStrategy::ValueIndex,
                },
            )
            .unwrap();
        // Only one book contains that author: exactly one starting point
        // for the book fragment (fragment 1; fragment 0 is the virtual doc).
        assert_eq!(stats.strategies[1], StrategyUsed::ValueIndex);
        assert_eq!(stats.starting_points[1], 1);
    }

    #[test]
    fn results_are_in_document_order_and_deduped() {
        let xml = "<a><b><c/><c/></b><b><c/></b></a>";
        let db = crate::build::XmlDb::build_in_memory(xml).unwrap();
        let hits = deweys(&db, "//c");
        assert_eq!(hits, vec!["0.0.0", "0.0.1", "0.1.0"]);
        // A query reachable through two fragment routes must not duplicate.
        check_against_oracle(xml, "/a//c");
    }

    #[test]
    fn query_match_value_access() {
        let db = crate::build::XmlDb::build_in_memory(BIB).unwrap();
        let hits = db.query("//book/price").unwrap();
        let vals: Vec<_> = hits
            .iter()
            .map(|m| db.value_of(m).unwrap().unwrap())
            .collect();
        assert_eq!(vals, vec!["65.95", "65.95", "39.95", "129.95"]);
    }

    #[test]
    fn empty_and_unknown_queries() {
        let db = crate::build::XmlDb::build_in_memory(BIB).unwrap();
        assert!(db.query("//unknowntag").unwrap().is_empty());
        assert!(db
            .query(r#"//book[title="No Such Book"]"#)
            .unwrap()
            .is_empty());
        assert!(db.query("/book").unwrap().is_empty()); // root is bib
    }

    #[test]
    fn syntax_error_surfaces() {
        let db = crate::build::XmlDb::build_in_memory(BIB).unwrap();
        assert!(db.query("not a path").is_err());
    }

    #[test]
    fn pivot_value_route_collects() {
        let xml = r#"<dblp>
      <article><author>A</author><keyword>needle-high</keyword><note>needle-high</note></article>
      <article><author>B</author><keyword>zzz</keyword><note>yyy</note></article>
      <article><author>C</author><keyword>needle-high</keyword><note>needle-high</note></article>
    </dblp>"#;
        let db = crate::build::XmlDb::build_in_memory(xml).unwrap();
        let (hits, stats) = db
            .query_with(
                r#"/dblp/article[keyword="needle-high"]"#,
                QueryOptions::default(),
            )
            .unwrap();
        eprintln!("stats={stats:?}");
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn early_exit_skips_expensive_fragments() {
        let db = crate::build::XmlDb::build_in_memory(BIB).unwrap();
        // `nosuch` is empty and cheap; the cost-ordered plan must evaluate
        // it first and skip the `last` fragment entirely.
        let (hits, stats) = db
            .query_with("//nosuch//last", QueryOptions::default())
            .unwrap();
        assert!(hits.is_empty());
        assert!(
            stats.strategies.contains(&StrategyUsed::Skipped),
            "stats={stats:?}"
        );
        // The skipped fragment tried no starting points.
        let skipped: Vec<usize> = stats
            .strategies
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == StrategyUsed::Skipped)
            .map(|(i, _)| i)
            .collect();
        for f in skipped {
            assert_eq!(stats.starting_points[f], 0);
        }
    }

    #[test]
    fn scratch_pooling_reuses_buffers_and_agrees() {
        let db = crate::build::XmlDb::build_in_memory(BIB).unwrap();
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        for q in [
            "//book/title",
            "//last",
            r#"//book[price>100]"#,
            "//book/title",
        ] {
            db.query_into(q, QueryOptions::default(), &mut scratch, &mut out)
                .unwrap();
            let fresh = db.query(q).unwrap();
            assert_eq!(out, fresh, "pooled scratch must not change results of {q}");
        }
    }

    #[test]
    fn explain_reports_estimates_and_actuals() {
        let db = crate::build::XmlDb::build_in_memory(&big_bib()).unwrap();
        let (hits, explain) = db
            .explain(
                r#"//book[author/last="Stevens"]//first"#,
                QueryOptions::default(),
            )
            .unwrap();
        assert!(!hits.is_empty());
        let evals: Vec<&ExplainRow> = explain.rows.iter().filter(|r| r.op == "eval").collect();
        assert!(evals.len() >= 2, "multi-fragment query: {explain}");
        assert!(
            evals.iter().any(|r| r.detail.contains("value-index")),
            "{explain}"
        );
        assert!(explain.rows.iter().any(|r| r.op == "collect"));
        let collect = explain.rows.last().unwrap();
        assert_eq!(collect.actual, Some(hits.len() as u64));
        // Every executed eval row has both an estimate and an actual.
        for r in &evals {
            assert!(r.est.is_some(), "{explain}");
        }
    }
}
