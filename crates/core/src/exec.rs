//! The operator executor: interprets a [`QueryPlan`] against the physical
//! layer.
//!
//! Execution of one plan:
//!
//! 1. [`PlanStep::EvalFragment`] steps run in plan order (children before
//!    parents; cheapest ready fragment first when the plan is
//!    cost-ordered). Each evaluates its fragment by the route the planner
//!    chose ([`SeedChoice`]):
//!    * **index route** — locate starting points from B+v/B+t postings,
//!      verify the spine above them through B+i, and run
//!      [`NokMatcher::match_at`] from every start;
//!    * **scan route** — walk the page chain once ([`PageWalk`]) and let
//!      [`ScanMatcher`] decide the fragment for every node on the way: no
//!      starting points are materialized and no index is probed per node.
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

use std::cmp::Ordering;

use nok_pager::Storage;

use crate::build::XmlDb;
use crate::cursor::PageWalk;
use crate::dewey::{cmp_key_path, Dewey};
use crate::engine::{QueryMatch, QueryScratch, QueryStats};
use crate::error::CoreResult;
use crate::join::IntervalSet;
use crate::nok::{NokMatcher, TreeAccess};
use crate::page::Entry;
use crate::pattern::NameTest;
use crate::pattern_tree::{CutKind, PNodeId, Partition, PatternTree, DOC_NODE};
use crate::physical::{IdRecord, PhysAccess, PhysNode};
use crate::plan::{
    Explain, ExplainRow, FragmentPlan, PlanStep, PlannedQuery, QueryPlan, SeedChoice, StrategyUsed,
};
use crate::planner::spine_above;
use crate::scan::{NodeTests, ScanHit, ScanMatcher, ScanPattern, ScanSource};
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

/// A forward cursor over the document-ordered postings of one literal, for
/// one pattern node.
struct EqCursor {
    /// Local pattern node carrying the constraint.
    node: usize,
    /// Index into [`StoreSource::postings`].
    list: usize,
    pos: usize,
}

/// The stored document as a [`ScanSource`]: string equalities by postings
/// merge at open, other value comparisons by fetching the value at close,
/// cut edges against the closing node's interval.
struct StoreSource<'a, S: Storage> {
    access: &'a PhysAccess<'a, S>,
    tree: &'a PatternTree,
    /// Local index → pattern node (see [`ScanPattern`]).
    nodes: Vec<PNodeId>,
    cuts: &'a [Cut<'a>],
    /// Verified postings per distinct literal.
    postings: Vec<(&'a str, Vec<Vec<u8>>)>,
    eq: Vec<EqCursor>,
    admits: u64,
    confirms: u64,
}

impl<S: Storage> ScanSource for StoreSource<'_, S> {
    type Payload = NodeAddr;

    fn admits(&self) -> u64 {
        self.admits
    }

    fn confirms(&self) -> u64 {
        self.confirms
    }

    fn admit(&mut self, mut cand: u64, path: &[u32]) -> CoreResult<u64> {
        for c in &mut self.eq {
            if (cand >> c.node) & 1 == 0 {
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
                cand &= !(1 << c.node);
            }
        }
        Ok(cand)
    }

    fn confirm(&mut self, p: usize, path: &[u32], start: u64, end: u64) -> CoreResult<bool> {
        let pnode = self.nodes[p];
        let cmps = &self.tree.nodes[pnode].value_cmps;
        // String equalities were settled at open, by the postings merge.
        let mut fetched = cmps.iter().filter(|c| c.str_eq().is_none()).peekable();
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

impl<S: Storage> XmlDb<S> {
    /// Execute a planned query into caller-provided buffers. `out` is
    /// cleared first; matches land there in document order. This is the
    /// allocation-lean path the serve workers (and the plan cache) use.
    pub fn execute_plan(
        &self,
        planned: &PlannedQuery,
        scratch: &mut QueryScratch,
        out: &mut Vec<QueryMatch>,
    ) -> CoreResult<()> {
        self.execute_pattern_plan(&planned.tree, &planned.plan, scratch, out)
    }

    /// Execute a plan over a borrowed pattern tree (the partition is
    /// recomputed — it is deterministic and borrows the tree).
    pub(crate) fn execute_pattern_plan(
        &self,
        tree: &PatternTree,
        plan: &QueryPlan,
        scratch: &mut QueryScratch,
        out: &mut Vec<QueryMatch>,
    ) -> CoreResult<()> {
        out.clear();
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
        let pool_stats = self.store.pool().stats();
        let entries_before = pool_stats.entries_examined();
        let dir_before = pool_stats.dir_entries_examined();
        let finish = |stats: &mut QueryStats| {
            let pool_stats = self.store.pool().stats();
            stats.entries_examined = pool_stats.entries_examined().saturating_sub(entries_before);
            stats.dir_entries_examined =
                pool_stats.dir_entries_examined().saturating_sub(dir_before);
        };

        for step in &plan.steps {
            match step {
                PlanStep::EvalFragment { frag } => {
                    let fp = &plan.fragments[*frag];
                    // Hot intervals are read by one step only: the filter
                    // that has this fragment as its parent.
                    let hot_intervals = plan.steps.iter().any(
                        |s| matches!(s, PlanStep::FilterChain { parent, .. } if parent == frag),
                    );
                    let empty = self.exec_fragment(
                        &part,
                        fp,
                        &access,
                        &mut pool.evals,
                        hot_intervals,
                        stats,
                    )?;
                    if empty {
                        // Conjunctive pattern + connected fragment forest:
                        // an empty fragment empties the whole query.
                        for (f, fp2) in plan.fragments.iter().enumerate() {
                            if !pool.evals[f].evaluated {
                                stats.strategies[fp2.frag] = StrategyUsed::Skipped;
                            }
                        }
                        finish(stats);
                        return Ok(());
                    }
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
                    out.extend(pool.evals[*frag].hot.drain(..).map(|h| QueryMatch {
                        addr: h.payload,
                        dewey: h.dewey,
                    }));
                    // One route's matches already arrive in document
                    // order; nested root matches of the index route may not.
                    if !out.is_sorted_by(|a, b| a.dewey <= b.dewey) {
                        out.sort_by(|a, b| a.dewey.cmp(&b.dewey));
                    }
                    out.dedup_by(|a, b| a.addr == b.addr);
                }
            }
        }
        finish(stats);
        Ok(())
    }

    /// Evaluate one fragment by its planned route. Returns whether the
    /// fragment matched **nowhere** (the early-exit signal).
    fn exec_fragment(
        &self,
        part: &Partition<'_>,
        fp: &FragmentPlan,
        access: &PhysAccess<'_, S>,
        evals: &mut [FragEval],
        hot_intervals: bool,
        stats: &mut QueryStats,
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
        let (starts, strategy) = match &fp.seed {
            SeedChoice::Scan => (None, StrategyUsed::Scan),
            SeedChoice::DocNavigate => (Some(vec![access.doc_node()]), StrategyUsed::Doc),
            SeedChoice::ValueIndex { literal, lift } => (
                Some(self.value_seed(literal, *lift, access)?),
                StrategyUsed::ValueIndex,
            ),
            SeedChoice::TagIndex { name, lift } => {
                (Some(self.tag_seed(name, *lift)?), StrategyUsed::TagIndex)
            }
        };
        stats.strategies[f] = strategy;
        match starts {
            None => self.scan_fragment(part, f, access, &cuts, target, stats)?,
            Some(starts) => self.index_fragment(
                part,
                fp,
                starts,
                access,
                &cuts,
                target,
                hot_intervals,
                stats,
            )?,
        }
        // Ascending for the parent's binary searches (nested root matches
        // close inner-first).
        target.root_starts.sort_unstable();
        target.evaluated = true;
        Ok(target.roots == 0)
    }

    /// The scan route: one forward pass over the page chain, one decoded
    /// page held at a time, its entry slice iterated in place.
    fn scan_fragment(
        &self,
        part: &Partition<'_>,
        f: usize,
        access: &PhysAccess<'_, S>,
        cuts: &[Cut<'_>],
        target: &mut FragEval,
        stats: &mut QueryStats,
    ) -> CoreResult<()> {
        let pat = ScanPattern::compile(part, f)?;
        let mut src = StoreSource {
            access,
            tree: part.tree,
            nodes: pat.nodes.clone(),
            cuts,
            postings: Vec::new(),
            eq: Vec::new(),
            admits: 0,
            confirms: 0,
        };
        for (i, &n) in pat.nodes.iter().enumerate() {
            for cmp in &part.tree.nodes[n].value_cmps {
                let Some(lit) = cmp.str_eq() else {
                    src.confirms |= 1 << i;
                    continue;
                };
                let list = match src.postings.iter().position(|(l, _)| *l == lit) {
                    Some(list) => list,
                    None => {
                        src.postings.push((lit, self.eq_postings(lit, access)?));
                        src.postings.len() - 1
                    }
                };
                src.eq.push(EqCursor {
                    node: i,
                    list,
                    pos: 0,
                });
                src.admits |= 1 << i;
            }
            if cuts.iter().any(|(src_node, _, _)| *src_node == n) {
                src.confirms |= 1 << i;
            }
        }

        // Name tests per tag code, resolved once per pass.
        let mut tests = vec![NodeTests::default(); self.dict.len()];
        for (code, name) in self.dict.iter() {
            let is_attr = name.starts_with('@');
            tests[code.0 as usize] = NodeTests::of(&pat, |t| match t {
                // '*' selects elements, not the synthesized attribute nodes.
                NameTest::Wildcard => !is_attr,
                NameTest::Tag(t) => t == name,
            });
        }

        let mut m = ScanMatcher::new(pat, src);
        // Released matches and root positions land straight in the pooled
        // result vectors.
        m.done = std::mem::take(&mut target.hot);
        m.root_starts = (f != 0).then(|| std::mem::take(&mut target.root_starts));
        let mut walk = PageWalk::new(&self.store);
        let io = self.store.pool().stats();
        while let Some(wp) = walk.next_page()? {
            io.add_entries_examined(wp.page.len() as u64);
            for (i, entry) in wp.page.entries.iter().enumerate() {
                match *entry {
                    Entry::Open(tag) => m.open(
                        tests.get(tag.0 as usize).copied().unwrap_or_default(),
                        wp.lin(i),
                        || NodeAddr {
                            page: wp.id,
                            entry: i as u32,
                        },
                    )?,
                    Entry::Close => m.close(wp.lin(i))?,
                }
            }
        }
        m.finish()?;
        stats.starting_points[f] = m.candidates;
        stats.fragment_matches[f] = m.roots;
        target.roots = m.roots;
        target.root_starts = m.root_starts.take().unwrap_or_default();
        target.hot = m.done;
        Ok(())
    }

    /// The index route: verify the seeded starting points, match from each.
    #[allow(clippy::too_many_arguments)]
    fn index_fragment(
        &self,
        part: &Partition<'_>,
        fp: &FragmentPlan,
        mut starts: Vec<PhysNode>,
        access: &PhysAccess<'_, S>,
        cuts: &[Cut<'_>],
        target: &mut FragEval,
        hot_intervals: bool,
        stats: &mut QueryStats,
    ) -> CoreResult<()> {
        let f = fp.frag;
        if fp.verify_spine {
            // Fixed-depth pivot: enforce level and the spine above it.
            let spine = spine_above(part, fp.pivot);
            let pivot_depth = spine.len() as u32 + 1;
            let mut verified = Vec::with_capacity(starts.len());
            for node in starts.drain(..) {
                if node.dewey.level() == pivot_depth
                    && self.ancestor_chain_ok(access, &node.dewey, &spine)?
                {
                    verified.push(node);
                }
            }
            starts = verified;
        }
        let matcher = if fp.pivot == fp.root {
            NokMatcher::new(part, f)
        } else {
            NokMatcher::with_root(part, f, fp.pivot)
        };
        // Cut conditions checked during matching. The interval costs a
        // `subtree_close` walk, so only cut sources pay it.
        let mut hook = |p: PNodeId, n: &PhysNode| -> CoreResult<bool> {
            if !cuts.iter().any(|(src, _, _)| *src == p) {
                return Ok(true);
            }
            let (s, e) = access.interval(n)?;
            Ok(cuts_hold(cuts, p, s, e))
        };
        for start in starts {
            stats.starting_points[f] += 1;
            let Some(collected) = matcher.match_at(access, &start, &mut hook)? else {
                continue;
            };
            stats.fragment_matches[f] += 1;
            target.roots += 1;
            // Fragment 0 starts at (or under) the document node: nothing
            // cuts into it, so nobody reads its root position.
            let root_start = if f == 0 {
                0
            } else {
                access.store().lin(start.addr)?
            };
            if f != 0 {
                target.root_starts.push(root_start);
            }
            for (_, n) in collected {
                let (start, end) = if hot_intervals {
                    access.interval(&n)?
                } else {
                    (0, 0)
                };
                target
                    .hot
                    .push(ScanHit::new(n.dewey, n.addr, start, end, root_start));
            }
        }
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

    /// Value-index seed: the literal's postings, each lifted to the
    /// ancestor at the pivot's depth.
    fn value_seed(
        &self,
        literal: &str,
        lift: u32,
        access: &PhysAccess<'_, S>,
    ) -> CoreResult<Vec<PhysNode>> {
        let mut starts = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for p in self.eq_postings(literal, access)? {
            let Some(dewey) = Dewey::from_key(&p) else {
                continue;
            };
            let level = dewey.level();
            if level <= lift {
                continue; // too shallow to have the required ancestor
            }
            let Some(anc) = dewey.ancestor_at_level(level - lift) else {
                continue;
            };
            if !seen.insert(anc.to_key()) {
                continue;
            }
            let Some(rec) = self.bt_id.get_first(&anc.to_key())? else {
                continue;
            };
            let rec = IdRecord::from_bytes(&rec)?;
            starts.push(PhysNode {
                addr: rec.addr,
                dewey: anc,
            });
        }
        // Starting points must be tried in document order so results come
        // out ordered fragment-locally.
        starts.sort_by(|a, b| a.dewey.cmp(&b.dewey));
        Ok(starts)
    }

    /// Tag-index seed: the tag's postings, lifted `lift` levels.
    fn tag_seed(&self, name: &str, lift: u32) -> CoreResult<Vec<PhysNode>> {
        let Some(code) = self.dict.lookup(name) else {
            return Ok(Vec::new());
        };
        let postings = self.tag_postings(code)?.into_iter().map(|p| PhysNode {
            addr: p.addr,
            dewey: p.dewey,
        });
        if lift == 0 {
            return Ok(postings.collect());
        }
        let mut out = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for node in postings {
            let level = node.dewey.level();
            if level <= lift {
                continue;
            }
            let Some(anc) = node.dewey.ancestor_at_level(level - lift) else {
                continue;
            };
            if !seen.insert(anc.to_key()) {
                continue;
            }
            let Some(rec) = self.bt_id.get_first(&anc.to_key())? else {
                continue;
            };
            let rec = IdRecord::from_bytes(&rec)?;
            out.push(PhysNode {
                addr: rec.addr,
                dewey: anc,
            });
        }
        out.sort_by(|a, b| a.dewey.cmp(&b.dewey));
        Ok(out)
    }

    /// Verify that the ancestors of `dewey` (levels 1..) match the spine
    /// tests, via Dewey-index lookups.
    fn ancestor_chain_ok(
        &self,
        access: &PhysAccess<'_, S>,
        dewey: &Dewey,
        spine: &[NameTest],
    ) -> CoreResult<bool> {
        for (i, test) in spine.iter().enumerate() {
            let level = i as u32 + 1;
            let Some(anc) = dewey.ancestor_at_level(level) else {
                return Ok(false);
            };
            let Some(rec) = self.bt_id.get_first(&anc.to_key())? else {
                return Ok(false);
            };
            let rec = IdRecord::from_bytes(&rec)?;
            let node = PhysNode {
                addr: rec.addr,
                dewey: anc,
            };
            if !access.matches_test(&node, test)? {
                return Ok(false);
            }
        }
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

    #[test]
    fn planned_and_fixed_order_agree() {
        use crate::planner::PlanConfig;
        let db = crate::build::XmlDb::build_in_memory(BIB).unwrap();
        for q in [
            "//book//last",
            r#"//book[author/last="Stevens"][price<100]"#,
            "/bib//editor//affiliation",
            "//nosuch//last",
        ] {
            let planned = db.plan_query(q, QueryOptions::default()).unwrap();
            let fixed = db
                .plan_query_with(
                    q,
                    QueryOptions::default(),
                    PlanConfig {
                        cost_ordered: false,
                        ..PlanConfig::default()
                    },
                )
                .unwrap();
            let mut s1 = QueryScratch::new();
            let mut s2 = QueryScratch::new();
            let (mut o1, mut o2) = (Vec::new(), Vec::new());
            db.execute_plan(&planned, &mut s1, &mut o1).unwrap();
            db.execute_plan(&fixed, &mut s2, &mut o2).unwrap();
            assert_eq!(o1, o2, "order must not change results of {q}");
        }
    }
}
