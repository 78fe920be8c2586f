//! # nok-core
//!
//! Rust implementation of **"A Succinct Physical Storage Scheme for Efficient
//! Evaluation of Path Queries in XML"** (Zhang, Kacholia, Özsu — ICDE 2004):
//! next-of-kin (NoK) pattern matching over a succinct paged string
//! representation of the XML subject tree.
//!
//! The crate is organized bottom-up:
//!
//! * [`sigma`] — the tag alphabet Σ; [`dewey`] — Dewey IDs.
//! * [`page`] / [`store`] — the succinct string representation over chained
//!   pages with `(st, lo, hi)` headers (paper §4.2): one page format,
//!   bit-packed balanced parentheses plus varint tag codes.
//! * [`succinct`] — the bitvector, rank/select and excess-search kernels a
//!   decoded page is navigated with.
//! * [`cursor`] — `FIRST-CHILD` / `FOLLOWING-SIBLING` and derived primitives
//!   (paper §5, Algorithm 2), with header-directory page skipping and
//!   in-page excess search.
//! * [`values`] — the detached value data file and its hashing (paper §4.1).
//! * [`pattern`] — path-expression parsing; [`pattern_tree`] — pattern trees
//!   and their partitioning into NoK pattern trees.
//! * [`nok`] — the NoK pattern-matching algorithm (paper Algorithm 1) over an
//!   abstract tree interface; [`physical`] — that interface implemented by
//!   the succinct store (single-pass matching, Proposition 1).
//! * [`join`] — structural (containment) joins combining NoK partial results.
//! * [`plan`] — the query-plan IR; [`planner`] — the cost-based planner
//!   (index route vs scan route per fragment, priced in measured
//!   nanoseconds, plus cost-ordered fragment evaluation); [`exec`] — the
//!   operator executor; [`engine`] — the stable query façade over the three.
//! * `scan` — the single-pass NoK matcher behind the scan route and
//!   [`stream`], NoK matching over streaming SAX events.
//! * [`update`] — subtree insertion/deletion against the paged string.
//! * [`stats`] — per-document statistics (Table 1 columns); [`synopsis`] —
//!   the persisted planner synopsis: per-tag/per-value counts plus a
//!   DataGuide-style path summary (distinct root-to-node tag paths with
//!   node counts, stored as a compact tag-code trie).
//!
//! The top-level convenience type is [`XmlDb`]: build it from an XML string
//! (in memory or on disk) and run path queries.
//!
//! ```
//! use nok_core::XmlDb;
//!
//! let xml = r#"<bib><book year="1994"><author><last>Stevens</last></author>
//!              <price>65.95</price></book></bib>"#;
//! let db = XmlDb::build_in_memory(xml).unwrap();
//! let hits = db.query(r#"//book[author/last="Stevens"][price<100]"#).unwrap();
//! assert_eq!(hits.len(), 1);
//! ```

pub mod build;
pub mod cursor;
pub mod dewey;
pub mod engine;
pub mod error;
pub mod exec;
pub mod join;
pub mod naive;
pub mod nok;
pub mod page;
pub mod pattern;
pub mod pattern_tree;
pub mod physical;
pub mod plan;
pub mod planner;
pub mod recovery;
pub(crate) mod scan;
pub mod serialize;
pub mod sigma;
pub mod snapshot;
pub mod stats;
pub mod store;
pub mod stream;
pub mod succinct;
pub mod synopsis;
pub mod update;
pub mod values;

pub use build::XmlDb;
pub use dewey::Dewey;
pub use engine::{MatchSink, QueryMatch, QueryOptions, QueryScratch, QueryStats, StartStrategy};
pub use error::{CoreError, CoreResult, SuperblockError};
pub use plan::{
    Explain, ExplainRow, FragmentPlan, PlanStep, PlannedQuery, QueryPlan, SeedChoice, StrategyUsed,
};
pub use planner::PlanConfig;
pub use recovery::RecoveryReport;
pub use sigma::{TagCode, TagDict};
pub use snapshot::{DbGeneration, Snapshot, SnapshotSource};
pub use stats::DocStats;
pub use store::{BuildOptions, NodeAddr, StructStore};
pub use stream::{StreamHit, StreamMatcher};
pub use synopsis::{ChainStates, PathAxis, PathStep, PathTrie, Synopsis, TRIE_NODE_BUDGET};
pub use values::LockDataFile;
