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
//!   bit-packed balanced parentheses plus fixed-width tag codes, read in
//!   place.
//! * [`cursor`] — `FIRST-CHILD` / `FOLLOWING-SIBLING` and derived primitives
//!   (paper §5, Algorithm 2): pages skipped by the header directory's
//!   `(st, lo, hi)` test, a depth count inside each page read.
//! * [`values`] — the detached value data file and its hashing (paper §4.1).
//! * [`pattern`] — path-expression parsing; [`pattern_tree`] — pattern trees
//!   and their partitioning into NoK pattern trees.
//! * [`nok`] — the NoK pattern-matching algorithm (paper Algorithm 1) over an
//!   abstract tree interface; [`physical`] — that interface implemented by
//!   the succinct store (single-pass matching, Proposition 1).
//! * [`plan`] — the query-plan IR; [`planner`] — the cost-based planner
//!   (index route vs scan route for the walk root, priced in measured
//!   nanoseconds); [`exec`] — the executor, one walk per query;
//!   [`engine`] — the stable query façade over the three.
//! * `scan` — the single-pass matcher behind both routes and [`stream`]
//!   (NoK matching over streaming SAX events): every fragment of a pattern
//!   decided in one walk, its cut edges at their sources' close, its
//!   answer filtered as a stream instead of joined.
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
pub mod synopsis;
pub mod update;
pub mod values;

pub use build::XmlDb;
pub use dewey::Dewey;
pub use engine::{MatchSink, QueryMatch, QueryOptions, QueryScratch, QueryStats, StartStrategy};
pub use error::{CoreError, CoreResult, SuperblockError};
pub use pattern::PathExpr;
pub use plan::{
    Explain, ExplainRow, FragmentPlan, PlannedQuery, QueryPlan, SeedChoice, StrategyUsed,
};
pub use recovery::RecoveryReport;
pub use sigma::{TagCode, TagDict};
pub use snapshot::{DbGeneration, Snapshot, SnapshotSource};
pub use stats::DocStats;
pub use store::{BuildOptions, NodeAddr, StructStore};
pub use stream::{StreamHit, StreamMatcher};
pub use synopsis::{ChainStates, PathAxis, PathStep, PathTrie, Synopsis, TRIE_NODE_BUDGET};
