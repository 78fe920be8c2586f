//! The executor: runs a [`QueryPlan`] as one walk over the physical layer.
//!
//! A plan's NoK fragments ride one walk (`core::scan`): its root is
//! fragment 0, or the one child of a bare document node, and the root's
//! planned route ([`SeedChoice`]) decides where the walk goes. Both routes
//! feed stored entries, read in place off the stored pages ([`PageWalk`]),
//! as open/close events to one [`ScanMatcher`] that decides every fragment
//! at once, passing over the subtree of each dead node with a depth count:
//!
//! * **index route** — locate the walk root's starting points from B+v/B+t
//!   postings, verify the spine above them, and feed each start's subtree,
//!   from its open to its matching close, primed with the start's Dewey
//!   id. A tag posting carries its address, so it is lifted to its start,
//!   and a start climbs to its spine ancestors, inside its own page by a
//!   backward excess search over the parenthesis bytes
//!   (`Page::open_above`); B+i is asked only for an ancestor that opened
//!   on an earlier page, and for the ancestors of value postings, which
//!   carry Dewey keys alone;
//! * **scan route** — feed the whole page chain once: no starting points
//!   are materialized and no index is probed per node.
//!
//! Each structure page is fetched at most once per walk. Cut edges are
//! decided inside the walk, at their source's close. A `following::` edge
//! first costs a whole-chain walk of its own, reducing its child fragment
//! to the start of its last root match; such a plan's main walk is a scan.
//!
//! Hits of the returning chain leave the matcher in document order, pass
//! [`ChainFilter`] and go to a [`MatchSink`] between pages, as soon as they
//! are decided: no fragment result is held, joined or sorted.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::sync::Arc;

use nok_pager::Storage;

use crate::build::XmlDb;
use crate::cursor::{PageWalk, WalkPage};
use crate::dewey::{cmp_key_path, Dewey};
use crate::engine::{MatchSink, QueryMatch, QueryScratch, QueryStats};
use crate::error::{CoreError, CoreResult};
use crate::page::{Entries, Entry, Page};
use crate::pattern::NameTest;
use crate::pattern_tree::{CutKind, PNodeId, DOC_NODE};
use crate::physical::{IdRecord, PhysAccess, PhysNode, DOC_ADDR};
use crate::plan::{
    CompiledSets, Explain, ExplainRow, FragmentPlan, PlannedQuery, SeedChoice, StrategyUsed,
};
use crate::scan::{
    ChainFilter, MatchBufs, NodeSet, NodeTests, ScanHit, ScanMatcher, ScanPattern, ScanSource,
};
use crate::sigma::TagCode;
use crate::store::NodeAddr;
use crate::values::hash_key;
use crate::QueryOptions;

/// A hot-node match: Dewey id, address, containment interval, and the
/// position of the fragment-root match it was collected under.
type Hot = ScanHit<NodeAddr>;

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
/// start of the index route ends its sub-scan at its own close. `MULTI`
/// as for [`ScanMatcher::open`].
#[inline]
fn feed<Src: ScanSource<Payload = NodeAddr>, const MULTI: bool>(
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
            m.close::<MULTI>(wp.lin(close))?;
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
                    if !m.open::<MULTI>(tests, wp.lin(i), addr)? {
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
                    m.close::<MULTI>(wp.lin(i))?;
                    if m.depth() == floor {
                        return Ok(Some(i + 1));
                    }
                }
            }
        }
    }
}

/// Where the main walk's answer goes: the sink, the filter of the
/// returning chain, and the position of the last match put into the sink.
struct Release<'s, K: ?Sized> {
    sink: &'s mut K,
    filter: ChainFilter,
    last: Option<u64>,
}

impl<K: MatchSink + ?Sized> Release<'_, K> {
    /// Put the answers among the hits released so far into the sink,
    /// emptying `done`. Hits leave the matcher in document order
    /// (`core::scan`); an answer that does not is an error, as it can no
    /// longer be put into place.
    fn drain(&mut self, done: &mut Vec<Hot>) -> CoreResult<()> {
        for h in done.drain(..) {
            if !self.filter.answer(&h) {
                continue;
            }
            if self.last.is_some_and(|l| l >= h.start) {
                return Err(CoreError::Corrupt(format!(
                    "match {} released after a later one",
                    h.dewey
                )));
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

/// A forward cursor over the document-ordered postings of one literal, for
/// one pattern node.
struct EqCursor {
    /// Local pattern node carrying the constraint.
    node: usize,
    /// Index into [`StoreSource::postings`].
    list: usize,
    pos: usize,
}

/// The postings of one literal: Dewey keys in document order, read by the
/// executor or while the plan was bound.
type Postings<'a> = (&'a str, Cow<'a, [Vec<u8>]>);

/// The stored document as a [`ScanSource`]: string equalities with postings
/// by a merge at open, other value comparisons by fetching the value at
/// close. A `= "literal"` compares this query's literal
/// ([`PlannedQuery::literal`]), not the one its shape was planned with.
struct StoreSource<'a, S: Storage, B> {
    access: &'a PhysAccess<'a, S>,
    planned: &'a PlannedQuery,
    /// Local index → pattern node (see [`ScanPattern`]).
    nodes: &'a [PNodeId],
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

    fn confirm(&mut self, p: usize, path: &[u32]) -> CoreResult<bool> {
        let n = self.nodes[p];
        let cmps = &self.planned.tree().nodes[n].value_cmps;
        let literal = |i: usize| self.planned.literal(n, i);
        // Merged string equalities were settled at open.
        let merged =
            |i: usize| literal(i).is_some_and(|l| self.postings.iter().any(|(m, _)| *m == l));
        let mut fetched = (0..cmps.len()).filter(|&i| !merged(i)).peekable();
        if fetched.peek().is_none() {
            return Ok(true);
        }
        let Some(v) = self.access.value_of_dewey(&Dewey::from_slice(path))? else {
            return Ok(false);
        };
        Ok(fetched.all(|i| match literal(i) {
            Some(lit) => v == lit,
            None => cmps[i].eval(&v),
        }))
    }
}

/// What the spine checks of one walk learned: the ancestor levels of the
/// start checked last, how many of them passed, and whether the next one
/// failed; and the tags of the ancestors the last check climbed to.
#[derive(Default)]
pub(crate) struct SpineMemo {
    path: Vec<u32>,
    ok: usize,
    failed: bool,
    tags: Vec<TagCode>,
}

/// The route a walk takes: where its starts come from, and the literal
/// postings its matcher merges (`None`: every `= "literal"` it has).
type Route<'a> = (
    StrategyUsed,
    Option<Vec<PhysNode>>,
    Option<Vec<Postings<'a>>>,
);

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
    /// allocation-lean path the serve workers (and the plan cache) use: the
    /// partition, the walks and their compiled patterns come with the plan,
    /// and the matcher's buffers with the scratch.
    pub fn execute_plan_into<K: MatchSink + ?Sized>(
        &self,
        planned: &PlannedQuery,
        scratch: &mut QueryScratch,
        sink: &mut K,
    ) -> CoreResult<()> {
        let shape = &*planned.shape;
        let (tree, part) = (&shape.tree, &shape.part);
        let access = PhysAccess::new(&self.store, &self.dict, &self.bt_id, &self.data);
        scratch.stats.reset(part.fragments.len());
        if planned.plan.proven_empty {
            // A root chain without support or a literal without postings:
            // no starting point is located, and not one page is touched.
            scratch.stats.strategies.fill(StrategyUsed::Skipped);
            scratch.stats.proven_empty = true;
            return Ok(());
        }
        let Some((main, reducing)) = shape.walks.split_last() else {
            return Ok(());
        };
        if main.frags[0] != 0 || tree.local_children(DOC_NODE).next().is_none() {
            // The bare document node matches, and contains every node.
            let stats = &mut scratch.stats;
            stats.strategies[0] = StrategyUsed::Doc;
            stats.starting_points[0] = 1;
            stats.fragment_matches[0] = 1;
            if part.returning_fragment == 0 {
                // The query returns the document node itself.
                return sink.put(QueryMatch {
                    addr: DOC_ADDR,
                    dewey: Dewey::default(),
                });
            }
        }
        let mut before = std::mem::take(&mut scratch.before);
        before.clear();
        if !reducing.is_empty() {
            before.resize(part.fragments.len(), 0);
        }
        for (w, walk) in reducing.iter().enumerate() {
            let last = self.run_walk::<K>(planned, w, &before, &access, scratch, None)?;
            before[walk.frags[0]] = last;
        }
        let mut filter = std::mem::take(&mut scratch.filter);
        filter.reset(part, main);
        let mut release = Release {
            sink,
            filter,
            last: None,
        };
        let main = shape.walks.len() - 1;
        self.run_walk(planned, main, &before, &access, scratch, Some(&mut release))?;
        scratch.filter = release.filter;
        scratch.before = before;
        Ok(())
    }

    /// Run walk `w` of `planned` by its root's route, record its
    /// fragments' stats, and return the start of the walk root's last root
    /// match. `before` holds the last root match of each fragment already
    /// reduced for a `following::` edge; with `release`, the answer streams
    /// there.
    fn run_walk<K: MatchSink + ?Sized>(
        &self,
        planned: &PlannedQuery,
        w: usize,
        before: &[u64],
        access: &PhysAccess<'_, S>,
        scratch: &mut QueryScratch,
        release: Option<&mut Release<'_, K>>,
    ) -> CoreResult<u64> {
        let shape = &*planned.shape;
        let fp = &planned.plan.fragments[shape.walks[w].frags[0]];
        let seeded = matches!(
            fp.seed,
            SeedChoice::ValueIndex { .. } | SeedChoice::TagIndex { .. }
        )
        .then_some(fp.pivot);
        let compiled = (shape.compiled[w].iter())
            .find(|c| c.seeded == seeded)
            .ok_or_else(|| CoreError::Corrupt(format!("walk {w} has no route from {seeded:?}")))?;
        let ctx = WalkCtx {
            planned,
            w,
            spine: &compiled.spine,
            before,
            access,
        };
        let (stats, memo) = (&mut scratch.stats, &mut scratch.spine);
        match &compiled.sets {
            CompiledSets::Narrow(pat, tests) => {
                self.walk_with(&ctx, pat, tests, &mut scratch.narrow, stats, memo, release)
            }
            CompiledSets::Wide(pat, tests) => {
                self.walk_with(&ctx, pat, tests, &mut scratch.wide, stats, memo, release)
            }
        }
    }

    /// [`XmlDb::run_walk`], matching with pattern node sets of type `B`.
    #[allow(clippy::too_many_arguments)]
    fn walk_with<'a, B: NodeSet, K: MatchSink + ?Sized>(
        &self,
        ctx: &WalkCtx<'a, S>,
        pat: &'a Arc<ScanPattern<B>>,
        tests: &[NodeTests<B>],
        bufs: &mut MatchBufs<B, NodeAddr>,
        stats: &mut QueryStats,
        memo: &mut SpineMemo,
        mut release: Option<&mut Release<'_, K>>,
    ) -> CoreResult<u64> {
        let plan = &ctx.planned.plan;
        let walk = &ctx.planned.shape.walks[ctx.w];
        let f = walk.frags[0];
        let fp = &plan.fragments[f];
        let mut pages = PageWalk::new(&self.store);
        let (used, starts, seed) = self.route(ctx, fp, &mut pages)?;
        // A plan run at a later generation than it was planned at may meet
        // tags its table predates.
        let tests: Cow<'_, [NodeTests<B>]> = match tests.len() == self.dict.len() {
            true => Cow::Borrowed(tests),
            false => Cow::Owned(self.node_tests(pat)),
        };
        let src = self.source(ctx, pat, seed)?;
        let mut m = ScanMatcher::with_bufs(Arc::clone(pat), src, std::mem::take(bufs), ctx.before);
        let passed = match starts {
            None => {
                self.scan_walk(&mut m, &tests, pages, stats, &mut release)?;
                None
            }
            Some(starts) => {
                let spine = fp.verify_spine.then_some(ctx.spine);
                let walked = (&mut m, &tests[..], pages);
                Some(self.index_walk(walked, spine, starts, stats, memo, &mut release)?)
            }
        };
        for (s, &g) in walk.frags.iter().enumerate() {
            stats.strategies[g] = used;
            stats.starting_points[g] = m.candidates[s];
            stats.fragment_matches[g] = m.roots[s];
        }
        if let Some(passed) = passed {
            stats.starting_points[f] = passed;
        }
        let last = m.last_root;
        *bufs = m.into_bufs();
        Ok(last)
    }

    /// Where the walk root planned as `fp` starts: on the index route its
    /// starts, in document order, with the postings of its seed literal;
    /// tag postings are lifted on pages `pages` reads ahead.
    fn route<'a>(
        &self,
        ctx: &WalkCtx<'a, S>,
        fp: &'a FragmentPlan,
        pages: &mut PageWalk<'_, S>,
    ) -> CoreResult<Route<'a>> {
        Ok(match &fp.seed {
            SeedChoice::Scan => (StrategyUsed::Scan, None, None),
            SeedChoice::DocNavigate => (StrategyUsed::Doc, None, None),
            SeedChoice::ValueIndex { literal, lift } => {
                let postings = self.eq_postings(ctx.planned, literal)?;
                let starts =
                    self.lifted(postings.iter().filter_map(|p| Dewey::from_key(p)), *lift)?;
                let seed = vec![(literal.as_str(), postings)];
                (StrategyUsed::ValueIndex, Some(starts), Some(seed))
            }
            SeedChoice::TagIndex { name, lift } => {
                // An anchored start sits right below the spine.
                let level = fp.verify_spine.then_some(ctx.spine.len() as u32 + 1);
                let starts = self.tag_seed(name, *lift, level, pages)?;
                (StrategyUsed::TagIndex, Some(starts), Some(Vec::new()))
            }
        })
    }

    /// The source of the walk compiled as `pat`, reading the postings of
    /// the index route's `seed` literals (on the scan route, `None`: of
    /// every `= "literal"` the walk has) and fetching values for the rest.
    fn source<'a, B: NodeSet>(
        &self,
        ctx: &WalkCtx<'a, S>,
        pat: &'a ScanPattern<B>,
        seed: Option<Vec<Postings<'a>>>,
    ) -> CoreResult<StoreSource<'a, S, B>> {
        let planned = ctx.planned;
        let load = seed.is_none();
        let mut postings = seed.unwrap_or_default();
        let (mut eq, mut admits, mut confirms) = (Vec::new(), B::default(), B::default());
        for (i, &n) in pat.nodes.iter().enumerate() {
            for c in 0..planned.tree().nodes[n].value_cmps.len() {
                let lit = planned.literal(n, c);
                let mut list = lit.and_then(|l| postings.iter().position(|(m, _)| *m == l));
                if let (None, Some(lit), true) = (list, lit, load) {
                    postings.push((lit, self.eq_postings(planned, lit)?));
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
        }
        Ok(StoreSource {
            access: ctx.access,
            planned,
            nodes: &pat.nodes,
            postings,
            eq,
            admits,
            confirms,
        })
    }

    /// The scan route: one forward pass over the page chain, one page held
    /// at a time, its entries read in place. With `release`, the hits
    /// released by each page go there after it.
    fn scan_walk<B: NodeSet, K: MatchSink + ?Sized>(
        &self,
        m: &mut ScanMatcher<StoreSource<'_, S, B>>,
        tests: &[NodeTests<B>],
        mut walk: PageWalk<'_, S>,
        stats: &mut QueryStats,
        release: &mut Option<&mut Release<'_, K>>,
    ) -> CoreResult<()> {
        let mut skip = Skip::default();
        let io = self.store.pool().stats();
        let feed = if m.pat.multi {
            feed::<_, true>
        } else {
            feed::<_, false>
        };
        while let Some(wp) = walk.next_page()? {
            let n = wp.page.len() as u64;
            io.add_entries_examined(n);
            stats.entries_examined += n;
            feed(m, tests, &wp, 0, 0, &mut skip)?;
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
        if let Some(release) = release {
            release.drain(&mut m.done)?;
        }
        stats.entries_skipped += skip.entries;
        stats.dir_entries_examined += walk.probes();
        Ok(())
    }

    /// The index route: verify the seeded starting points of the walk root
    /// (in document order) against `spine`, and feed each one's subtree to
    /// the matcher. A start inside the subtree of the one before it was
    /// already decided there — a free root is taken anywhere in a subtree
    /// — so subtrees never overlap, the walk only moves forward, and each
    /// structure page is fetched at most once. Returns how many starts
    /// passed.
    fn index_walk<B: NodeSet, K: MatchSink + ?Sized>(
        &self,
        (m, tests, mut walk): Walked<'_, '_, S, B>,
        spine: Option<&[NameTest]>,
        starts: Vec<PhysNode>,
        stats: &mut QueryStats,
        memo: &mut SpineMemo,
        release: &mut Option<&mut Release<'_, K>>,
    ) -> CoreResult<u64> {
        memo.path.clear();
        (memo.ok, memo.failed) = (0, false);
        let mut last: Option<Dewey> = None;
        let mut skip = Skip::default();
        let mut passed = 0;
        let io = self.store.pool().stats();
        let feed = if m.pat.multi {
            feed::<_, true>
        } else {
            feed::<_, false>
        };
        for start in starts {
            if let Some(spine) = spine {
                // The walk only moves forward: starts at one level never
                // nest, so this one opens after every subtree fed so far.
                if start.dewey.level() != spine.len() as u32 + 1 {
                    continue;
                }
                let page = self.walk_to(&mut walk, start.addr)?.page;
                if !self.spine_holds(&start, spine, memo, &page)? {
                    continue;
                }
            }
            passed += 1;
            if last
                .as_ref()
                .is_some_and(|l| l.is_ancestor_of(&start.dewey))
            {
                continue;
            }
            let mut from = start.addr.entry as usize;
            if !self.walk_to(&mut walk, start.addr)?.page.is_open(from) {
                return Err(CoreError::Corrupt(format!(
                    "start {} is not an open entry",
                    start.addr
                )));
            }
            m.prime(start.dewey.components())?;
            while let Some(wp) = walk.current() {
                let stop = feed(m, tests, &wp, from, 1, &mut skip)?;
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
        if let Some(release) = release {
            release.drain(&mut m.done)?;
        }
        stats.entries_skipped += skip.entries;
        stats.dir_entries_examined += walk.probes();
        Ok(passed)
    }

    /// Move `walk` to the page holding `addr`, unless it is there.
    fn walk_to<'w>(
        &self,
        walk: &'w mut PageWalk<'_, S>,
        addr: NodeAddr,
    ) -> CoreResult<WalkPage<'w>> {
        if walk.current().is_none_or(|wp| wp.id != addr.page) {
            walk.seek(self.store.rank(addr.page)?);
            walk.next_page()?;
        }
        walk.current()
            .filter(|wp| wp.id == addr.page)
            .ok_or_else(|| CoreError::Corrupt(format!("start {addr} past the page chain")))
    }

    /// Dewey keys of the nodes whose value is exactly `literal`, in
    /// document order: the literal's B+v postings — those binding `planned`
    /// read, else B+v's — verified ([`XmlDb::verified_postings`]).
    fn eq_postings<'a>(
        &self,
        planned: &'a PlannedQuery,
        literal: &str,
    ) -> CoreResult<Cow<'a, [Vec<u8>]>> {
        let read = (planned.literals.iter().zip(&planned.postings))
            .find_map(|(l, p)| p.as_deref().filter(|_| l == literal));
        let postings = match read {
            Some(read) => Cow::Borrowed(read),
            None => Cow::Owned(self.bt_val.get_all(&hash_key(literal))?),
        };
        self.verified_postings(literal, postings)
    }

    /// The distinct ancestors `lift` levels above `deweys`, in document
    /// order, each located through B+i: value postings carry no address.
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
            if let Some(addr) = self.id_addr(&dewey)? {
                starts.push(PhysNode { addr, dewey });
            }
        }
        Ok(starts)
    }

    /// The address B+i holds for `dewey`.
    fn id_addr(&self, dewey: &Dewey) -> CoreResult<Option<NodeAddr>> {
        match self.bt_id.get_first(&dewey.to_key())? {
            Some(rec) => Ok(Some(IdRecord::from_bytes(&rec)?.addr)),
            None => Ok(None),
        }
    }

    /// Tag-index seed: the tag's postings in document order, each lifted
    /// `lift` levels to its ancestor inside its own page, read ahead on
    /// `pages` (`Page::open_above`); only an ancestor that opened on an
    /// earlier page is located through B+i. With `level`, the level every
    /// start must have (an anchored fragment's), a posting that cannot
    /// lift to it is passed over unread.
    fn tag_seed(
        &self,
        name: &str,
        lift: u32,
        level: Option<u32>,
        pages: &mut PageWalk<'_, S>,
    ) -> CoreResult<Vec<PhysNode>> {
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
        let mut starts: Vec<PhysNode> = Vec::with_capacity(postings.len());
        for p in postings {
            let at = p.dewey.level();
            if at <= lift || level.is_some_and(|l| at - lift != l) {
                continue;
            }
            let Some(dewey) = p.dewey.ancestor_at_level(at - lift) else {
                continue;
            };
            // The postings under one ancestor lift to it once.
            if starts.last().is_some_and(|s| s.dewey == dewey) {
                continue;
            }
            let page = pages.read_ahead(p.addr.page)?.page;
            let addr = match page.open_above(p.addr.entry as usize, lift) {
                Ok(entry) => NodeAddr {
                    page: p.addr.page,
                    entry: entry as u32,
                },
                Err(_) => match self.id_addr(&dewey)? {
                    Some(addr) => addr,
                    None => continue,
                },
            };
            starts.push(PhysNode { addr, dewey });
        }
        // Postings of a tag that nests lift to ancestors out of order.
        if !starts.is_sorted_by(|a, b| a.dewey <= b.dewey) {
            starts.sort_unstable_by(|a, b| a.dewey.cmp(&b.dewey));
            starts.dedup_by(|a, b| a.dewey == b.dewey);
        }
        Ok(starts)
    }

    /// Do the ancestors of `start` (levels 1..) pass the spine tests? They
    /// are climbed to in `page`, the start's own (`Page::open_above`); an
    /// ancestor that opened on an earlier page is located through B+i.
    /// Starts arrive in document order, so a level the last check already
    /// decided for the same ancestor is not looked at again.
    fn spine_holds(
        &self,
        start: &PhysNode,
        spine: &[NameTest],
        memo: &mut SpineMemo,
        page: &Page<'_>,
    ) -> CoreResult<bool> {
        let Some(path) = start.dewey.components().get(..spine.len()) else {
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
        let ok = memo.ok.min(shared);
        memo.path.clear();
        memo.path.extend_from_slice(path);
        memo.failed = false;
        // Climb from the start to the undecided levels `ok..`, nearest
        // first, for as long as they opened on this page.
        memo.tags.clear();
        let mut at = start.addr.entry as usize;
        while ok + memo.tags.len() < spine.len() {
            let Ok(parent) = page.open_above(at, 1) else {
                break;
            };
            match page.get(parent) {
                Some(Entry::Open(tag)) => memo.tags.push(tag),
                _ => return Err(CoreError::Corrupt(format!("no open entry above {at}"))),
            }
            at = parent;
        }
        let climbed = spine.len() - memo.tags.len();
        for l in ok..spine.len() {
            let tag = match l.checked_sub(climbed) {
                Some(_) => Some(memo.tags[spine.len() - 1 - l]),
                None => {
                    let addr = self.id_addr(&Dewey::from_slice(&path[..=l]))?;
                    addr.map(|addr| self.store.tag_at(addr)).transpose()?
                }
            };
            if !tag.is_some_and(|t| spine[l].accepts(self.dict.name(t))) {
                memo.ok = l;
                memo.failed = true;
                return Ok(false);
            }
        }
        memo.ok = spine.len();
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

/// What one walk of a plan runs with: the plan, the walk's index, the spine
/// above its root's pivot, the last root matches of the fragments reduced
/// for `following::` edges, and the stored document.
struct WalkCtx<'a, S: Storage> {
    planned: &'a PlannedQuery,
    w: usize,
    spine: &'a [NameTest],
    before: &'a [u64],
    access: &'a PhysAccess<'a, S>,
}

/// A walk's matcher, its name tests per tag code, and the page walk that
/// feeds it.
type Walked<'m, 'a, S, B> = (
    &'m mut ScanMatcher<StoreSource<'a, S, B>>,
    &'m [NodeTests<B>],
    PageWalk<'a, S>,
);

/// Render a plan alongside the stats of one execution of it: per walk, a
/// `walk` row for its root and a `ride` row per fragment riding it, then
/// the `sink` row. A document-rooted tag seed the path summary puts on the
/// spine is marked `spine=proven`.
pub(crate) fn build_explain(
    planned: &PlannedQuery,
    stats: &QueryStats,
    result_count: usize,
) -> Explain {
    let plan = &planned.plan;
    let (tree, part, walks) = (planned.tree(), &planned.shape.part, &planned.shape.walks);
    let cut = |f: usize| {
        part.incoming_cut(f).map(|c| match c.kind {
            CutKind::Descendant => format!(" // of fragment {}", c.parent_frag),
            CutKind::Following => format!(" following:: of fragment {}", c.parent_frag),
        })
    };
    let mut rows = Vec::new();
    for walk in walks {
        for &f in &walk.frags {
            let fp = &plan.fragments[f];
            let strategy = stats.strategies.get(f).copied().unwrap_or_default();
            let actual = match strategy {
                StrategyUsed::Skipped | StrategyUsed::Pending => None,
                _ => stats.starting_points.get(f).copied(),
            };
            let root = match fp.root {
                DOC_NODE => "/".to_string(),
                n => tree.nodes[n].test.to_string(),
            };
            let path_est = match fp.path_support {
                Some(s) if fp.path_support_open => format!(" path-est<={s}"),
                Some(s) => format!(" path-est={s}"),
                None => String::new(),
            };
            let proven = fp.root == DOC_NODE
                && matches!(fp.seed, SeedChoice::TagIndex { .. })
                && !fp.verify_spine;
            let (op, route) = match f == walk.frags[0] {
                true => (
                    "walk",
                    format!(
                        " seed={} cost={}{}",
                        fp.seed,
                        fp.est_cost,
                        if proven { " spine=proven" } else { "" }
                    ),
                ),
                false => ("ride", String::new()),
            };
            let matches = stats.fragment_matches.get(f).copied().unwrap_or(0);
            rows.push(ExplainRow {
                op: op.into(),
                detail: format!(
                    "fragment {f} root={root}{}{route} strategy={strategy}{path_est} matches={matches}",
                    cut(f).unwrap_or_default()
                ),
                est: Some(fp.est_starts),
                actual,
            });
        }
    }
    let chain = walks.last().map_or(&[][..], |w| &w.chain[..]);
    let filters: String = (chain.iter().skip(1))
        .filter_map(|&f| cut(f).map(|c| format!(", past{c}")))
        .collect();
    rows.push(ExplainRow {
        op: "sink".into(),
        detail: format!(
            "fragment {}'s hits in document order{filters}",
            plan.returning_fragment
        ),
        est: None,
        actual: Some(result_count as u64),
    });
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
        let ops: Vec<&str> = explain.rows.iter().map(|r| r.op.as_str()).collect();
        assert_eq!(ops, ["walk", "ride", "sink"], "one walk: {explain}");
        let evals: Vec<&ExplainRow> = explain.rows.iter().filter(|r| r.op != "sink").collect();
        assert!(evals[0].detail.contains("value-index"), "{explain}");
        assert!(
            evals[1].detail.contains("strategy=value-index"),
            "the rider reports the walk's strategy: {explain}"
        );
        let sink = explain.rows.last().unwrap();
        assert_eq!(sink.actual, Some(hits.len() as u64));
        // Every fragment row has both an estimate and an actual.
        for r in &evals {
            assert!(r.est.is_some() && r.actual.is_some(), "{explain}");
        }
    }
}
