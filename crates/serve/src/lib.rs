//! nok-serve: a concurrent query service over the succinct XML store.
//!
//! The paper's engine ([`nok_core::XmlDb`]) evaluates one query at a time;
//! this crate turns a read-only database directory into a *service*:
//!
//! * [`QueryService`] — a worker-pool executor whose workers serve from
//!   pinned MVCC snapshots over the thread-safe buffer pool, with a
//!   bounded admission queue, per-query deadlines, and aggregate metrics.
//! * [`admission`] — the bounded queue behind the service (a
//!   `Mutex<VecDeque>` and one `Condvar`): producers fail fast at
//!   capacity, workers block until a job arrives.
//! * [`binproto`] — the wire protocol spoken by the `nokd` server binary
//!   and the `nokq` client binary (magic + opcode + request id framing):
//!   one connection keeps many requests in flight and responses are
//!   matched by id.
//! * [`conn`] — the connection loop shared by `nokd` and the in-process
//!   benchmarks: preamble check, per-connection response queue, batched
//!   response writes.
//! * [`metrics`] — lock-free counters and one log2-bucket latency
//!   histogram (p50/p99 without per-request allocation).
//! * [`plan_cache`] — a bounded cache of planned queries keyed by
//!   normalized query text; each entry is tagged with the commit
//!   generation it was planned under and dropped individually when a
//!   lookup arrives from a newer snapshot.
//! * [`json`] — the minimal JSON writer behind the stats object (the
//!   build is offline, so no serde).
//!
//! Concurrency model in one paragraph: every worker pins an immutable
//! MVCC generation (one read lock for an `Arc` clone) and serves queries from
//! that snapshot, re-pinning only when the commit generation moves; a
//! single writer may commit new generations concurrently (see
//! [`QueryService::start_from_source`]). Workers read page images through
//! the buffer pool, whose CLOCK hand evicts unpinned frames when the
//! configured capacity (`nokd` caps the structural pool at 256 frames) is
//! exceeded. Overload degrades gracefully: a full queue rejects with
//! [`QueryError::QueueFull`], a missed deadline returns
//! [`QueryError::Timeout`], and worker threads survive both engine errors
//! and timeouts. See DESIGN.md §9 and §14 for the full treatment.

pub mod admission;
pub mod binproto;
pub mod conn;
pub mod json;
pub mod metrics;
pub mod plan_cache;
pub mod service;

pub use admission::{AdmissionQueue, PushError};
pub use binproto::{result_line, Request, WireMatch};
pub use json::Json;
pub use metrics::{LatencyHistogram, ServerMetrics};
pub use plan_cache::{normalize_query, PlanCache};
pub use service::{QueryError, QueryService, ServiceConfig};

/// Default frame capacity `nokd` imposes on the shared structural buffer
/// pool — small enough that the paper's datasets do not fit resident, so
/// concurrent serving actually exercises eviction.
pub const SERVE_POOL_FRAMES: usize = 256;
