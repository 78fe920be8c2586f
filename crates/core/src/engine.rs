//! The query engine façade: parse → plan → execute.
//!
//! The actual machinery lives in three sibling modules (the explicit
//! pipeline the planner refactor introduced):
//!
//! - [`crate::plan`] — the plan IR: fragments, seed choices, and
//!   semijoin/filter steps as enum operators.
//! - [`crate::planner`] — the cost-based planner: picks each fragment's
//!   route (index seed or scan) and the fragment evaluation order from the
//!   persisted synopsis, pricing both routes in measured nanoseconds.
//! - [`crate::exec`] — the operator executor: runs each fragment by its
//!   route through one `ScanMatcher` (over the subtrees of index-located
//!   starts, or over the whole page chain) and joins fragments over
//!   intervals.
//!
//! This module keeps the stable entry points (`query`, `query_with`,
//! `query_into`, `query_pattern`) plus the option/stats types they take
//! and return.

use nok_pager::Storage;

use crate::build::XmlDb;
use crate::dewey::Dewey;
use crate::error::CoreResult;
use crate::exec::EvalPool;
use crate::pattern::PathExpr;
use crate::pattern_tree::PatternTree;
use crate::physical::PhysAccess;
use crate::plan::StrategyUsed;
use crate::planner::PlanConfig;
use crate::store::NodeAddr;

/// One query result: a subject-tree node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryMatch {
    /// Physical address of the node.
    pub addr: NodeAddr,
    /// Dewey id of the node.
    pub dewey: Dewey,
}

/// Where the executor puts a query's answer: each match once, in document
/// order, as soon as it is decided — no open pattern ancestor can still
/// veto it. A single-fragment plan releases matches while its pass is
/// still reading pages; a plan that joins fragments releases them at its
/// final collect step. `put` is called between pages, never with a pool,
/// page or decode-cache lock held, so a sink may block (back-pressure).
pub trait MatchSink {
    /// Take the next match. An error stops the evaluation with it.
    fn put(&mut self, m: QueryMatch) -> CoreResult<()>;
}

impl MatchSink for Vec<QueryMatch> {
    #[inline]
    fn put(&mut self, m: QueryMatch) -> CoreResult<()> {
        self.push(m);
        Ok(())
    }
}

/// How a fragment is evaluated: the scan route, or the index route seeded
/// from one of the two indexes (§3's three starting-point options). Under
/// `Auto` the planner decides by price; the other variants are planner
/// overrides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StartStrategy {
    /// The cheapest of the value seed, the best tag seed and the scan
    /// route, priced in nanoseconds (for selective queries this is the
    /// paper's heuristic: value index, else tag index).
    #[default]
    Auto,
    /// Always take the scan route: one single pass over the document.
    Scan,
    /// Always use the tag-name B+ tree.
    TagIndex,
    /// Use the value B+ tree (falls back to Auto when the fragment has no
    /// equality value constraint).
    ValueIndex,
}

/// Per-query execution knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryOptions {
    /// Starting-point strategy (a planner override; `Auto` lets the
    /// cost-based planner choose).
    pub strategy: StartStrategy,
}

/// Execution statistics for one query.
#[derive(Debug, Clone, Default)]
pub struct QueryStats {
    /// Number of NoK fragments the pattern was partitioned into.
    pub fragments: usize,
    /// Starting points tried, per fragment (on the scan route: the nodes
    /// that passed the fragment root's test).
    pub starting_points: Vec<u64>,
    /// Strategy actually used, per fragment ([`StrategyUsed::Skipped`]
    /// when an earlier empty fragment proved the query empty).
    pub strategies: Vec<StrategyUsed>,
    /// Successful fragment-root matches, per fragment.
    pub fragment_matches: Vec<u64>,
    /// Surviving hot matches of the child fragment after each top-down
    /// semijoin filter step, in chain order (root fragment downward).
    pub chain_survivors: Vec<u64>,
    /// String entries the executor's loops read during this query: whole
    /// pages on the scan route, each start's subtree on the index route.
    /// Counted by the executor itself, so exact whatever other threads do
    /// on the same pool.
    pub entries_examined: u64,
    /// Of those, the entries passed over by a depth count inside the
    /// subtree of a dead node, with no matcher call (`core::scan`; exact,
    /// likewise). The matcher was fed the rest.
    pub entries_skipped: u64,
    /// Directory records the executor's page walks consulted during this
    /// query (exact, likewise).
    pub dir_entries_examined: u64,
    /// The synopsis path summary proved the query empty at plan time: the
    /// executor answered without locating a single starting point.
    pub proven_empty: bool,
}

impl QueryStats {
    /// Re-dimension for a query of `nfrags` fragments, keeping the vector
    /// capacities so repeated queries through one scratch allocate nothing.
    pub fn reset(&mut self, nfrags: usize) {
        self.fragments = nfrags;
        self.starting_points.clear();
        self.starting_points.resize(nfrags, 0);
        self.strategies.clear();
        self.strategies.resize(nfrags, StrategyUsed::Pending);
        self.fragment_matches.clear();
        self.fragment_matches.resize(nfrags, 0);
        self.chain_survivors.clear();
        self.entries_examined = 0;
        self.entries_skipped = 0;
        self.dir_entries_examined = 0;
        self.proven_empty = false;
    }
}

/// Reusable per-worker query state. A serving worker keeps one scratch for
/// its whole lifetime and threads it through [`XmlDb::query_into`], so both
/// the per-query bookkeeping vectors *and* the per-fragment record buffers
/// are allocated once, not per request.
#[derive(Debug, Default)]
pub struct QueryScratch {
    pub(crate) stats: QueryStats,
    pub(crate) pool: EvalPool,
}

impl QueryScratch {
    /// Fresh scratch (empty buffers).
    pub fn new() -> Self {
        Self::default()
    }

    /// Statistics of the most recent query run through this scratch.
    pub fn stats(&self) -> &QueryStats {
        &self.stats
    }
}

impl<S: Storage> XmlDb<S> {
    /// Evaluate a path expression, returning matches in document order.
    pub fn query(&self, path: &str) -> CoreResult<Vec<QueryMatch>> {
        Ok(self.query_with(path, QueryOptions::default())?.0)
    }

    /// Evaluate with explicit options; also returns execution statistics.
    pub fn query_with(
        &self,
        path: &str,
        opts: QueryOptions,
    ) -> CoreResult<(Vec<QueryMatch>, QueryStats)> {
        let expr = PathExpr::parse(path)?;
        let tree = PatternTree::from_path(&expr)?;
        self.query_pattern(&tree, opts)
    }

    /// Evaluate into caller-provided buffers, reusing the scratch's stats
    /// vectors and fragment record pools. `out` is cleared first; matches
    /// land there in document order. This is the allocation-lean path
    /// serving workers use.
    pub fn query_into(
        &self,
        path: &str,
        opts: QueryOptions,
        scratch: &mut QueryScratch,
        out: &mut Vec<QueryMatch>,
    ) -> CoreResult<()> {
        let expr = PathExpr::parse(path)?;
        let tree = PatternTree::from_path(&expr)?;
        let plan = self.plan_pattern(&tree, opts, PlanConfig::default())?;
        out.clear();
        self.execute_pattern_plan(&tree, &plan, scratch, out)
    }

    /// Evaluate a pre-built pattern tree.
    pub fn query_pattern(
        &self,
        tree: &PatternTree,
        opts: QueryOptions,
    ) -> CoreResult<(Vec<QueryMatch>, QueryStats)> {
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        let plan = self.plan_pattern(tree, opts, PlanConfig::default())?;
        self.execute_pattern_plan(tree, &plan, &mut scratch, &mut out)?;
        Ok((out, scratch.stats))
    }

    /// The value of a matched node, if it has one.
    pub fn value_of(&self, m: &QueryMatch) -> CoreResult<Option<String>> {
        let access = PhysAccess::new(&self.store, &self.dict, &self.bt_id, &self.data);
        access.value_of_dewey(&m.dewey)
    }

    /// The tag name of a matched node.
    pub fn tag_name_of(&self, m: &QueryMatch) -> CoreResult<&str> {
        Ok(self.dict.name(self.store.tag_at(m.addr)?))
    }
}
