//! The query engine façade: parse → plan → execute.
//!
//! The actual machinery lives in three sibling modules (the explicit
//! pipeline the planner refactor introduced):
//!
//! - [`crate::plan`] — the plan IR: per-fragment plans and the walk
//!   root's seed choice.
//! - [`crate::planner`] — the cost-based planner: picks the walk root's
//!   route (index seed or scan) from the persisted synopsis, pricing both
//!   routes in measured nanoseconds.
//! - [`crate::exec`] — the executor: runs every fragment in one walk
//!   through one `ScanMatcher` (over the subtrees of index-located starts,
//!   or over the whole page chain), deciding cut edges inside it.
//!
//! This module keeps the stable entry points (`query`, `query_with`,
//! `query_into`, `query_pattern`) plus the option/stats types they take
//! and return.

use nok_pager::Storage;

use crate::build::XmlDb;
use crate::dewey::Dewey;
use crate::error::CoreResult;
use crate::exec::SpineMemo;
use crate::pattern::PathExpr;
use crate::pattern_tree::PatternTree;
use crate::physical::PhysAccess;
use crate::plan::StrategyUsed;
use crate::scan::{ChainFilter, MatchBufs, WideSet};
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
/// veto it, and no hit it must lie under or after is still undecided.
/// Every plan releases matches while its walk is still reading pages.
/// `put` is called between pages, never with a pool or page lock held, so
/// a sink may block (back-pressure).
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

/// How the walk root is evaluated: the scan route, or the index route
/// seeded from one of the two indexes (§3's three starting-point options). Under
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
    /// Strategy actually used, per fragment: its walk's
    /// ([`StrategyUsed::Skipped`] when the plan was proven empty).
    pub strategies: Vec<StrategyUsed>,
    /// Successful fragment-root matches, per fragment.
    pub fragment_matches: Vec<u64>,
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
    /// The plan was proven empty (`QueryPlan::proven_empty`): the executor
    /// answered without locating a single starting point.
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
        self.entries_examined = 0;
        self.entries_skipped = 0;
        self.dir_entries_examined = 0;
        self.proven_empty = false;
    }
}

/// Reusable per-worker query state. A serving worker keeps one scratch for
/// its whole lifetime and threads it through [`XmlDb::query_into`], so the
/// per-query bookkeeping vectors, the matcher's frames and hit buffers,
/// the returning chain's filter stacks and the spine checks' memo are
/// allocated once, not per request.
#[derive(Default)]
pub struct QueryScratch {
    pub(crate) stats: QueryStats,
    /// The matcher's buffers, for walks of up to 64 pattern nodes
    pub(crate) narrow: MatchBufs<u64, NodeAddr>,
    /// and of more.
    pub(crate) wide: MatchBufs<WideSet, NodeAddr>,
    pub(crate) filter: ChainFilter,
    pub(crate) spine: SpineMemo,
    /// The last root match of each fragment reduced for `following::`.
    pub(crate) before: Vec<u64>,
}

impl std::fmt::Debug for QueryScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryScratch")
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
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
    /// vectors. `out` is cleared first; matches
    /// land there in document order. This is the allocation-lean path
    /// serving workers use.
    pub fn query_into(
        &self,
        path: &str,
        opts: QueryOptions,
        scratch: &mut QueryScratch,
        out: &mut Vec<QueryMatch>,
    ) -> CoreResult<()> {
        let planned = self.plan_query(path, opts)?;
        out.clear();
        self.execute_plan_into(&planned, scratch, out)
    }

    /// Evaluate a pre-built pattern tree.
    pub fn query_pattern(
        &self,
        tree: &PatternTree,
        opts: QueryOptions,
    ) -> CoreResult<(Vec<QueryMatch>, QueryStats)> {
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        let planned = self.plan_tree(tree.clone(), opts)?;
        self.execute_plan_into(&planned, &mut scratch, &mut out)?;
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
