//! The plan IR: what the cost-based planner produces and the executor
//! runs.
//!
//! A [`QueryPlan`] is one [`FragmentPlan`] per NoK fragment: the walk
//! root's route choice ([`SeedChoice`]), which decides where the query's
//! one walk goes, and every fragment's estimates. It is plain data that can
//! be inspected (EXPLAIN) and cached (the serve-layer plan cache).
//!
//! Only `core::{plan, planner, exec}` may construct a [`SeedChoice`]; the
//! `plan-operator-construction` rule in `cargo xtask analyze` enforces
//! this the way it guards raw page I/O.

use std::fmt;

use crate::pattern_tree::{PNodeId, PatternTree};

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

/// An owned, cacheable planned query: the pattern tree plus its plan. The
/// partition is recomputed at execution time (it is deterministic and
/// borrows the tree).
#[derive(Debug, Clone)]
pub struct PlannedQuery {
    /// The parsed pattern tree.
    pub tree: PatternTree,
    /// The plan over its partition.
    pub plan: QueryPlan,
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
