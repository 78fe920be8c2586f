//! The plan IR: what the cost-based planner produces and the executor
//! runs.
//!
//! A [`QueryPlan`] is one [`FragmentPlan`] per NoK fragment: the walk
//! root's route choice ([`SeedChoice`]), which decides where the query's
//! one walk goes, and every fragment's estimates. It is plain data that can
//! be inspected (EXPLAIN). A [`PlannedQuery`] is a query shape planned and
//! compiled once ([`Shape`], shared) bound to one query's literals: what
//! the serve-layer plan cache holds.
//!
//! Only `core::{plan, planner, exec}` may construct a [`SeedChoice`]; the
//! `plan-operator-construction` rule in `cargo xtask analyze` enforces
//! this the way it guards raw page I/O.

use std::fmt;
use std::sync::Arc;

use crate::pattern::NameTest;
use crate::pattern_tree::{PNodeId, Partition, PatternTree};
use crate::scan::{NodeTests, ScanPattern, Walk, WideSet};
use crate::StartStrategy;

/// How a fragment's starting points were (or will be) located. This is the
/// typed replacement for the old `&'static str` strategy labels; `Display`
/// keeps the wire/JSON spelling identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StrategyUsed {
    /// Not yet evaluated.
    #[default]
    Pending,
    /// Navigated from the virtual document node (bare-spine pivot is the
    /// document node itself).
    Doc,
    /// Seeded from the value index (B+v).
    ValueIndex,
    /// Seeded from the tag-name index (B+t).
    TagIndex,
    /// The scan route: one single-pass match over the whole document.
    Scan,
    /// Skipped: the plan was proven empty.
    Skipped,
}

impl fmt::Display for StrategyUsed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StrategyUsed::Pending => "pending",
            StrategyUsed::Doc => "doc",
            StrategyUsed::ValueIndex => "value-index",
            StrategyUsed::TagIndex => "tag-index",
            StrategyUsed::Scan => "scan",
            StrategyUsed::Skipped => "skipped",
        })
    }
}

/// The planner's seed decision for the walk root: where its starting
/// points, and so the walk, come from. A fragment riding another's walk
/// has no route of its own and carries [`SeedChoice::Scan`]: it is decided
/// at every node the walk shows it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeedChoice {
    /// Navigate from the virtual document node (the fragment's pivot is
    /// the document node itself, so there is nothing to locate).
    DocNavigate,
    /// Probe the value index for `literal`, then lift each hit `lift`
    /// levels to the pivot ancestor.
    ValueIndex {
        /// The string-equality literal probed.
        literal: String,
        /// Levels between the valued node and the pivot.
        lift: u32,
    },
    /// Scan the tag index postings of `name`, lifting `lift` levels.
    TagIndex {
        /// Tag whose postings seed the fragment.
        name: String,
        /// Levels between the tagged node and the pivot.
        lift: u32,
    },
    /// The scan route: walk the page chain once and decide the fragment
    /// for every node on the way (`core::scan`).
    Scan,
}

impl fmt::Display for SeedChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SeedChoice::DocNavigate => write!(f, "doc-navigate"),
            SeedChoice::ValueIndex { literal, lift } => {
                write!(f, "value-index({literal:?}, lift {lift})")
            }
            SeedChoice::TagIndex { name, lift } => write!(f, "tag-index({name}, lift {lift})"),
            SeedChoice::Scan => write!(f, "scan"),
        }
    }
}

/// The complete plan for one fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FragmentPlan {
    /// Fragment index in the partition.
    pub frag: usize,
    /// Pattern node the fragment is rooted at.
    pub root: PNodeId,
    /// Pattern node pattern matching actually starts from (may sit below
    /// `root` for document-rooted fragments, per §3's bare-spine descent).
    pub pivot: PNodeId,
    /// Where the starting points come from.
    pub seed: SeedChoice,
    /// Whether index-located candidates must have their ancestor spine
    /// verified through the Dewey index (document-rooted fragments only).
    pub verify_spine: bool,
    /// Estimated number of starting points (of a rider: of root
    /// candidates over the whole document).
    pub est_starts: u64,
    /// Estimated cost in nanoseconds (see the constants in
    /// `core::planner`); of a rider, as if it walked alone.
    pub est_cost: u64,
    /// Root-chain support of the seed from the synopsis path summary
    /// (`None` for the fragment whose pivot is the document node).
    pub path_support: Option<u64>,
    /// The chain may end among paths the summary folded away:
    /// `path_support` is an upper bound, not a count.
    pub path_support_open: bool,
    /// The deepest level any node passing the root test has had, by the
    /// synopsis's per-tag depth bounds: no root candidate opens below a
    /// node at this absolute level or deeper, and the matcher passes over
    /// such a node's subtree when it matches nothing itself (`core::scan`).
    /// `None` for the document-rooted fragment, whose root is anchored.
    /// Valid for the generation planned against, as
    /// `QueryPlan::proven_empty` is.
    pub root_floor: Option<u16>,
}

/// A fully planned query over a partitioned pattern tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryPlan {
    /// Per-fragment plans, indexed by fragment id.
    pub fragments: Vec<FragmentPlan>,
    /// Fragment whose hot-node matches are the query result.
    pub returning_fragment: usize,
    /// The synopsis path summary proved some pattern node's root chain has
    /// zero support, some `= "literal"` has no value-index posting, or a
    /// `following::` edge leaves the document node: the executor answers
    /// the query empty without touching a single page.
    pub proven_empty: bool,
}

/// A planned query: a query shape ([`Shape`]), planned and compiled once
/// and shared by every query of that shape, bound to this query's
/// literals. The serve layer caches one per shape and binds each request
/// to it ([`crate::XmlDb::bind`]).
#[derive(Clone)]
pub struct PlannedQuery {
    /// The plan of the shape for these literals.
    pub plan: QueryPlan,
    pub(crate) shape: Arc<Shape>,
    /// The literal of each slot ([`PatternTree::slots`]).
    pub(crate) literals: Vec<String>,
    /// Per slot, the B+v postings under its literal's hash, when binding
    /// read them all: the executor merges or seeds from them without
    /// reading B+v again.
    pub(crate) postings: Vec<Option<Vec<Vec<u8>>>>,
}

impl PlannedQuery {
    /// The parsed pattern tree (its literals are the shape's first
    /// binding's; [`PlannedQuery::literal`] gives this query's).
    pub fn tree(&self) -> &PatternTree {
        &self.shape.tree
    }

    /// This plan without the postings binding read: what a plan cache
    /// keeps, since every later query of the shape binds its own.
    pub fn without_postings(mut self) -> PlannedQuery {
        self.postings = Vec::new();
        self
    }

    /// The literal this query binds to value constraint `i` of pattern
    /// node `n`, when that constraint is a `= "literal"`.
    pub(crate) fn literal(&self, n: PNodeId, i: usize) -> Option<&str> {
        let slot = (self.shape.tree.slots.iter()).position(|&s| s == (n, i))?;
        self.literals.get(slot).map(String::as_str)
    }
}

impl fmt::Debug for PlannedQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PlannedQuery")
            .field("plan", &self.plan)
            .field("literals", &self.literals)
            .finish_non_exhaustive()
    }
}

/// What a query shape plans and compiles once: its pattern tree (with the
/// literals of the first query bound to it), the partition, the walks,
/// each walk compiled for every route its root can take, and per fragment
/// the route costs without the literal terms. Valid for the generation it
/// was planned at, as [`QueryPlan::proven_empty`] is.
pub(crate) struct Shape {
    pub(crate) tree: PatternTree,
    pub(crate) part: Partition,
    /// The walks in the order they run, the main walk last.
    pub(crate) walks: Vec<Walk>,
    /// Per walk, its compiled routes.
    pub(crate) compiled: Vec<Vec<Compiled>>,
    /// Per fragment, the routes binding chooses among.
    pub(crate) routes: Vec<Routes>,
    /// Proven empty whatever the literals: a root chain without support,
    /// or a `following::` edge out of the document node.
    pub(crate) empty: bool,
}

/// One walk compiled for one route of its root.
pub(crate) struct Compiled {
    /// The pivot of the index route it serves; `None` for the scan route
    /// and document navigation.
    pub(crate) seeded: Option<PNodeId>,
    /// The name tests of the spine above a document-rooted pivot, which
    /// the index route checks its starts against.
    pub(crate) spine: Vec<NameTest>,
    pub(crate) sets: CompiledSets,
}

/// A compiled walk and its name tests per tag code, matched with one
/// machine word per node set when it has at most 64 pattern nodes.
pub(crate) enum CompiledSets {
    Narrow(Arc<ScanPattern<u64>>, Vec<NodeTests<u64>>),
    Wide(Arc<ScanPattern<WideSet>>, Vec<NodeTests<WideSet>>),
}

/// One fragment's routes, costed without the literal terms: what binding
/// a query's literals completes into its [`FragmentPlan`].
pub(crate) struct Routes {
    /// The scan route's plan, its cost without the literal terms (of a
    /// fragment navigated from the document node: its plan).
    pub(crate) scan: FragmentPlan,
    /// The cheapest tag seed's plan, complete.
    pub(crate) tag: Option<FragmentPlan>,
    /// The `= "literal"` constraints at or below the pivot: slot and lift.
    pub(crate) literals: Vec<(usize, u32)>,
    /// A value seed's cost per start, without a lift's B+i get.
    pub(crate) per_start: u64,
    /// Where the literal probe may stop: the cost of the cheapest route
    /// that reads no posting of it.
    pub(crate) bound: u64,
    /// The strategy the fragment is planned under.
    pub(crate) strategy: StartStrategy,
}

/// One row of an EXPLAIN rendering: an operator with estimated and actual
/// cardinalities.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExplainRow {
    /// Operator kind: `walk` (a walk's root, a `following::` child's own
    /// walk first), `ride` (a fragment decided on a walk it does not
    /// root), or `sink` (the answer).
    pub op: String,
    /// Human-readable operator detail.
    pub detail: String,
    /// Estimated cardinality, when the planner produced one.
    pub est: Option<u64>,
    /// Actual cardinality observed at execution, when the step ran.
    pub actual: Option<u64>,
}

/// A rendered plan: one row per fragment, walk by walk in execution order,
/// then the answer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Explain {
    /// Operator rows in execution order.
    pub rows: Vec<ExplainRow>,
}

impl fmt::Display for Explain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let num = |v: Option<u64>| match v {
            Some(n) => n.to_string(),
            None => "-".to_string(),
        };
        let mut width_op = "op".len();
        let mut width_est = "est".len();
        let mut width_act = "actual".len();
        for r in &self.rows {
            width_op = width_op.max(r.op.len());
            width_est = width_est.max(num(r.est).len());
            width_act = width_act.max(num(r.actual).len());
        }
        writeln!(
            f,
            "{:<width_op$}  {:>width_est$}  {:>width_act$}  detail",
            "op", "est", "actual"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<width_op$}  {:>width_est$}  {:>width_act$}  {}",
                r.op,
                num(r.est),
                num(r.actual),
                r.detail
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_display_matches_legacy_strings() {
        for (s, want) in [
            (StrategyUsed::Doc, "doc"),
            (StrategyUsed::ValueIndex, "value-index"),
            (StrategyUsed::TagIndex, "tag-index"),
            (StrategyUsed::Scan, "scan"),
            (StrategyUsed::Pending, "pending"),
            (StrategyUsed::Skipped, "skipped"),
        ] {
            assert_eq!(s.to_string(), want);
        }
    }

    #[test]
    fn explain_renders_aligned_table() {
        let e = Explain {
            rows: vec![
                ExplainRow {
                    op: "walk".into(),
                    detail: "fragment 1".into(),
                    est: Some(12),
                    actual: Some(3),
                },
                ExplainRow {
                    op: "sink".into(),
                    detail: "fragment 1's hits".into(),
                    est: None,
                    actual: Some(3),
                },
            ],
        };
        let text = e.to_string();
        assert!(text.contains("est"), "{text}");
        assert!(text.contains("walk"), "{text}");
        assert!(text.contains('-'), "absent estimate renders as '-': {text}");
    }
}
