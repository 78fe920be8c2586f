//! The concurrent query service: a fixed worker pool draining a bounded
//! admission queue, each worker evaluating against a pinned MVCC
//! [`Snapshot`] of the database.
//!
//! Design notes:
//!
//! * **Snapshot pinning.** Every worker pins the newest published
//!   generation (see DESIGN.md §14) and serves queries against that
//!   immutable view; when a committed update publishes a newer generation
//!   the worker re-pins before its next job. Pinning clones an `Arc` under
//!   a read lock the writer takes only to swap that `Arc`, so a concurrent
//!   writer — updating through `&mut XmlDb` while the service reads
//!   through a [`SnapshotSource`] — never holds up the read path for
//!   longer than that swap.
//! * **Admission.** Jobs flow through a bounded `Mutex<VecDeque>` queue
//!   ([`crate::admission::AdmissionQueue`]); producers fail fast with
//!   [`QueryError::QueueFull`] at `queue_cap`, and a worker takes one job
//!   per pop.
//! * **One answer path.** Every job carries a [`Reply`]: the worker puts
//!   each match into it as soon as the executor decides it, then finishes
//!   it with the outcome. A connection's reply encodes matches into
//!   bounded wire chunks as they come ([`QueryService::query_streamed`]),
//!   which is what lets one connection keep many requests in flight
//!   without a thread per request, and lets an answer of any size leave
//!   while it is being matched; [`QueryService::query_async`] and
//!   [`QueryService::query_with_timeout`] pass one that collects the
//!   answer for a closure.
//! * **Graceful timeout.** A query that misses its deadline returns
//!   [`QueryError::Timeout`] to the caller; the worker thread is never
//!   killed. If the worker was mid-evaluation, its eventual result is sent
//!   into a channel nobody reads and dropped. Every job's deadline is
//!   checked when a worker picks it up (expired-in-queue jobs complete
//!   with `Timeout` without touching the engine).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, RecvTimeoutError};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nok_core::{
    CoreError, CoreResult, MatchSink, PathExpr, QueryMatch, QueryOptions, QueryScratch, Snapshot,
    SnapshotSource, XmlDb,
};
use nok_pager::{GenerationStats, Storage};

use crate::admission::{AdmissionQueue, PushError};
use crate::metrics::ServerMetrics;
use crate::plan_cache::PlanCache;

/// Errors surfaced to a query submitter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The admission queue was full; try again later.
    QueueFull,
    /// The query did not complete before its deadline.
    Timeout,
    /// The engine rejected or failed the query (parse error, I/O error).
    Engine(String),
    /// The service is shutting down.
    Shutdown,
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::QueueFull => write!(f, "admission queue full"),
            QueryError::Timeout => write!(f, "query deadline exceeded"),
            QueryError::Engine(msg) => write!(f, "query failed: {msg}"),
            QueryError::Shutdown => write!(f, "service shutting down"),
        }
    }
}

impl std::error::Error for QueryError {}

/// Service tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Worker threads. 0 is allowed (useful in tests: nothing is ever
    /// executed, so admission and timeout behavior become deterministic).
    pub workers: usize,
    /// Maximum queued (admitted but unstarted) queries.
    pub queue_cap: usize,
    /// Deadline applied when the caller does not pass one.
    pub default_timeout: Duration,
    /// Maximum cached query plans (0 disables the plan cache).
    pub plan_cache_cap: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            queue_cap: 128,
            default_timeout: Duration::from_secs(10),
            plan_cache_cap: 256,
        }
    }
}

/// Receives one query's answer, on the worker thread that evaluates it.
pub trait Reply: Send {
    /// The next match, in document order, as soon as it is decided. Called
    /// between pages with no engine lock held, so it may block. An error
    /// ends the evaluation, and the answer with it.
    fn put(&mut self, m: QueryMatch) -> Result<(), QueryError>;

    /// The outcome, once: `Ok` after the last match, or why the answer
    /// ended. A reply whose job never runs (the service stopped with it
    /// queued) is dropped unfinished.
    fn finish(self: Box<Self>, outcome: Result<(), QueryError>);
}

/// A reply that collects the whole answer for a closure.
struct Collect<F> {
    matches: Vec<QueryMatch>,
    done: F,
}

impl<F: FnOnce(Result<Vec<QueryMatch>, QueryError>) + Send> Reply for Collect<F> {
    fn put(&mut self, m: QueryMatch) -> Result<(), QueryError> {
        self.matches.push(m);
        Ok(())
    }

    fn finish(self: Box<Self>, outcome: Result<(), QueryError>) {
        let Collect { matches, done } = *self;
        done(outcome.map(|()| matches));
    }
}

/// The executor's view of a [`Reply`]: it keeps the reply's own error,
/// which the engine only sees as [`CoreError::Stopped`].
struct ToReply<'r> {
    reply: &'r mut dyn Reply,
    stopped: Option<QueryError>,
}

impl MatchSink for ToReply<'_> {
    fn put(&mut self, m: QueryMatch) -> CoreResult<()> {
        self.reply.put(m).map_err(|e| {
            let why = CoreError::Stopped(e.to_string());
            self.stopped = Some(e);
            why
        })
    }
}

struct Job {
    path: String,
    opts: QueryOptions,
    enqueued: Instant,
    deadline: Instant,
    reply: Box<dyn Reply>,
}

struct Inner<S: Storage> {
    /// The live handle, when the service was started over one. Absent for
    /// services started from a bare [`SnapshotSource`] (a writer elsewhere
    /// owns the database exclusively).
    db: Option<Arc<XmlDb<S>>>,
    /// Pins worker snapshots; never borrows the database.
    source: SnapshotSource<S>,
    queue: AdmissionQueue<Job>,
    shutdown: AtomicBool,
    metrics: Arc<ServerMetrics>,
    plan_cache: PlanCache,
}

/// A running query service. Dropping it shuts the workers down.
pub struct QueryService<S: Storage + Send + 'static> {
    inner: Arc<Inner<S>>,
    default_timeout: Duration,
    workers: Vec<JoinHandle<()>>,
}

impl<S: Storage + Send + 'static> QueryService<S> {
    /// Start `config.workers` worker threads over a shared database;
    /// returns once every worker is running.
    pub fn start(db: Arc<XmlDb<S>>, config: ServiceConfig) -> Self {
        let source = db.snapshot_source();
        Self::start_inner(Some(db), source, config)
    }

    /// Start the service from a bare [`SnapshotSource`], with no handle to
    /// the live database. Use this when a writer owns the `XmlDb`
    /// exclusively (`&mut`) and commits updates while the service reads:
    /// workers keep pinning the newest published generation.
    pub fn start_from_source(source: SnapshotSource<S>, config: ServiceConfig) -> Self {
        Self::start_inner(None, source, config)
    }

    fn start_inner(
        db: Option<Arc<XmlDb<S>>>,
        source: SnapshotSource<S>,
        config: ServiceConfig,
    ) -> Self {
        let inner = Arc::new(Inner {
            db,
            source,
            queue: AdmissionQueue::new(config.queue_cap),
            shutdown: AtomicBool::new(false),
            metrics: Arc::default(),
            plan_cache: PlanCache::new(config.plan_cache_cap),
        });
        // Return with every worker running, its scratch allocated: what
        // the caller spawns next (acceptor, connection threads) then never
        // races worker start-up, so a service restarted in one process
        // gets its threads, and the allocator arenas behind them, in the
        // same order every time instead of dirtying a new arena whenever a
        // worker starts late.
        let ready = Arc::new(Barrier::new(config.workers + 1));
        let workers = (0..config.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                let ready = Arc::clone(&ready);
                std::thread::Builder::new()
                    .name(format!("nok-worker-{i}"))
                    .spawn(move || worker_loop(&inner, &ready))
                    .unwrap_or_else(|e| {
                        // Thread spawn only fails on resource exhaustion at
                        // startup; surface it loudly rather than serving
                        // with a silently smaller pool.
                        eprintln!("nok-serve: failed to spawn worker {i}: {e}");
                        std::process::exit(1);
                    })
            })
            .collect();
        ready.wait();
        QueryService {
            inner,
            default_timeout: config.default_timeout,
            workers,
        }
    }

    /// Default deadline applied when a caller does not pass one.
    pub fn default_timeout(&self) -> Duration {
        self.default_timeout
    }

    /// Submit a query and wait for its result with the default deadline.
    pub fn query(&self, path: &str) -> Result<Vec<QueryMatch>, QueryError> {
        self.query_with_timeout(path, QueryOptions::default(), self.default_timeout)
    }

    /// Submit a query and wait for its result, failing with
    /// [`QueryError::Timeout`] if `timeout` elapses first.
    pub fn query_with_timeout(
        &self,
        path: &str,
        opts: QueryOptions,
        timeout: Duration,
    ) -> Result<Vec<QueryMatch>, QueryError> {
        let (tx, rx) = sync_channel(1);
        self.query_async(path, opts, Some(timeout), move |r| {
            let _ = tx.send(r);
        })?;
        match rx.recv_timeout(timeout) {
            Ok(r) => r,
            Err(RecvTimeoutError::Timeout) => {
                self.inner.metrics.timed_out.fetch_add(1, Ordering::Relaxed);
                Err(QueryError::Timeout)
            }
            // The job was dropped unrun: the service shut down under it.
            Err(RecvTimeoutError::Disconnected) => Err(QueryError::Shutdown),
        }
    }

    /// Submit a query without blocking: `on_done` runs on a worker thread
    /// once the query completes (or expires in the queue). Admission
    /// failures — [`QueryError::QueueFull`], [`QueryError::Shutdown`] —
    /// are returned immediately instead of invoking the callback, so a
    /// connection loop can answer them in-line. This is the submission
    /// shape behind the wire protocol: one connection keeps many queries
    /// in flight with no per-request thread.
    pub fn query_async<F>(
        &self,
        path: &str,
        opts: QueryOptions,
        timeout: Option<Duration>,
        on_done: F,
    ) -> Result<(), QueryError>
    where
        F: FnOnce(Result<Vec<QueryMatch>, QueryError>) + Send + 'static,
    {
        let reply = Collect {
            matches: Vec::new(),
            done: on_done,
        };
        self.query_streamed(path, opts, timeout, Box::new(reply))
    }

    /// Submit a query whose matches go to `reply` as they are decided (see
    /// [`Reply`]). Admission failures are returned immediately and `reply`
    /// is dropped unused, as [`QueryService::query_async`] does.
    pub fn query_streamed(
        &self,
        path: &str,
        opts: QueryOptions,
        timeout: Option<Duration>,
        reply: Box<dyn Reply>,
    ) -> Result<(), QueryError> {
        let timeout = timeout.unwrap_or(self.default_timeout);
        let inner = &self.inner;
        if inner.shutdown.load(Ordering::Acquire) {
            return Err(QueryError::Shutdown);
        }
        let now = Instant::now();
        let job = Job {
            path: path.to_string(),
            opts,
            enqueued: now,
            deadline: now + timeout,
            reply,
        };
        match inner.queue.push(job) {
            Ok(()) => {
                inner
                    .metrics
                    .queue_depth
                    .store(inner.queue.len() as u64, Ordering::Relaxed);
                Ok(())
            }
            Err(PushError::Full(_)) => {
                inner.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                Err(QueryError::QueueFull)
            }
            Err(PushError::Closed(_)) => Err(QueryError::Shutdown),
        }
    }

    /// Aggregate server metrics.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.inner.metrics
    }

    /// The metrics, shared with what outlives a borrow of the service (a
    /// connection's replies).
    pub fn shared_metrics(&self) -> Arc<ServerMetrics> {
        Arc::clone(&self.inner.metrics)
    }

    /// Buffer-pool hit ratio of the structural store (the shared pool the
    /// serving layer exists to exercise).
    pub fn pool_hit_ratio(&self) -> f64 {
        match self.inner.source.snapshot() {
            Ok(s) => s.store().pool().stats().hit_ratio(),
            Err(_) => 0.0,
        }
    }

    /// The shared database handle, when the service was started over one
    /// (`None` for source-started services — a writer owns the database).
    pub fn db(&self) -> Option<&Arc<XmlDb<S>>> {
        self.inner.db.as_ref()
    }

    /// Pin a snapshot of the newest published generation (for read-only
    /// side channels such as `explain` that bypass the worker pool).
    pub fn snapshot(&self) -> Result<Snapshot<S>, QueryError> {
        self.inner
            .source
            .snapshot()
            .map_err(|e| QueryError::Engine(e.to_string()))
    }

    /// Generation reclamation gauges (pinned readers, live/retired counts).
    pub fn generation_stats(&self) -> &Arc<GenerationStats> {
        self.inner.source.generation_stats()
    }

    /// Number of plans currently cached.
    pub fn plan_cache_len(&self) -> usize {
        self.inner.plan_cache.len()
    }

    /// Stop accepting work, finish nothing further, and join the workers.
    pub fn shutdown(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl<S: Storage + Send + 'static> Drop for QueryService<S> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop<S: Storage + Send + 'static>(inner: &Inner<S>, ready: &Barrier) {
    // Per-worker scratch: stats vectors live for the worker's lifetime, so
    // steady-state queries avoid fresh allocations for bookkeeping.
    let mut scratch = QueryScratch::new();
    // The worker's pinned snapshot. Kept across jobs (re-assembling the
    // view per query would pin the generation again) and re-pinned
    // only when a commit has published a newer generation.
    let mut snap: Option<Snapshot<S>> = None;
    // Set up: let `start` return.
    ready.wait();
    while let Some(mut job) = inner.queue.pop_wait() {
        let m = &inner.metrics;
        m.queue_depth
            .store(inner.queue.len() as u64, Ordering::Relaxed);
        let result = serve_job(inner, &mut snap, &mut job, &mut scratch);
        match &result {
            Ok(_) => {
                m.served.fetch_add(1, Ordering::Relaxed);
                m.latency.record(job.enqueued.elapsed());
            }
            Err(QueryError::Timeout) => {
                m.timed_out.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                m.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
        job.reply.finish(result);
    }
}

/// Answer one job on the worker's pinned snapshot, re-pinning first when a
/// commit has published a newer generation. Matches go to the job's reply
/// as the executor decides them.
fn serve_job<S: Storage + Send + 'static>(
    inner: &Inner<S>,
    snap: &mut Option<Snapshot<S>>,
    job: &mut Job,
    scratch: &mut QueryScratch,
) -> Result<(), QueryError> {
    if Instant::now() >= job.deadline {
        // Expired while queued: don't waste engine time on it.
        return Err(QueryError::Timeout);
    }
    let engine = |e: nok_core::CoreError| QueryError::Engine(e.to_string());
    let current = inner.source.current_epoch();
    let view = match snap.take() {
        Some(s) if s.epoch() == current => snap.insert(s),
        _ => snap.insert(inner.source.snapshot().map_err(engine)?),
    };
    let mut sink = ToReply {
        reply: job.reply.as_mut(),
        stopped: None,
    };
    match run_query(inner, view, &job.path, job.opts, scratch, &mut sink) {
        Ok(()) => Ok(()),
        Err(e) => Err(sink.stopped.take().unwrap_or_else(|| engine(e))),
    }
}

/// Evaluate one job against the worker's pinned snapshot. The query is
/// parsed for its shape and literals, and the shape's plan looked up in the
/// shared cache (keyed by the forced strategy + the shape, tagged with the
/// snapshot's commit epoch). A hit binds the request's literals to it —
/// one bounded postings probe per literal, the empty-literal proof and the
/// route comparison, nothing compiled — and a miss plans the shape with
/// this request's literals, runs it and caches it without the postings it
/// read (each later query binds its own). Plans run with the worker's
/// pooled scratch buffers.
fn run_query<S: Storage + Send + 'static>(
    inner: &Inner<S>,
    view: &Snapshot<S>,
    path: &str,
    opts: QueryOptions,
    scratch: &mut QueryScratch,
    sink: &mut ToReply<'_>,
) -> CoreResult<()> {
    let expr = PathExpr::parse(path)?;
    let key = format!("{:?}|{}", opts.strategy, expr.shape());
    let epoch = view.epoch();
    let looked = inner.plan_cache.lookup(&key, epoch);
    if looked.stale {
        inner.metrics.plan_stale.fetch_add(1, Ordering::Relaxed);
    }
    match &looked.plan {
        Some(template) => {
            inner.metrics.plan_hits.fetch_add(1, Ordering::Relaxed);
            let bound = view.bind(template, &expr.literals())?;
            view.execute_plan_into(&bound, scratch, sink)?;
        }
        None => {
            inner.metrics.plan_misses.fetch_add(1, Ordering::Relaxed);
            let planned = view.plan_expr(&expr, opts)?;
            view.execute_plan_into(&planned, scratch, sink)?;
            let template = Arc::new(planned.without_postings());
            inner.plan_cache.insert(key, epoch, template);
        }
    }
    if scratch.stats().proven_empty {
        inner.metrics.empty_proofs.fetch_add(1, Ordering::Relaxed);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nok_pager::MemStorage;

    const BIB: &str = r#"<bib>
        <book year="1994"><title>TCP/IP</title><price>65.95</price></book>
        <book year="2000"><title>Data on the Web</title><price>39.95</price></book>
    </bib>"#;

    fn service(workers: usize, queue_cap: usize) -> QueryService<MemStorage> {
        let db = Arc::new(XmlDb::build_in_memory(BIB).unwrap());
        QueryService::start(
            db,
            ServiceConfig {
                workers,
                queue_cap,
                default_timeout: Duration::from_secs(5),
                plan_cache_cap: 64,
            },
        )
    }

    #[test]
    fn serves_a_query() {
        let svc = service(2, 16);
        let hits = svc.query("//book/title").unwrap();
        assert_eq!(hits.len(), 2);
        assert_eq!(svc.metrics().served.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn engine_errors_are_reported_not_fatal() {
        let svc = service(1, 16);
        let err = svc.query("not a path").unwrap_err();
        assert!(matches!(err, QueryError::Engine(_)));
        // The worker survives and serves the next query.
        assert_eq!(svc.query("//book").unwrap().len(), 2);
        assert_eq!(svc.metrics().failed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn zero_workers_time_out_gracefully() {
        let svc = service(0, 16);
        let err = svc
            .query_with_timeout("//book", QueryOptions::default(), Duration::from_millis(30))
            .unwrap_err();
        assert_eq!(err, QueryError::Timeout);
        assert_eq!(svc.metrics().timed_out.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn full_queue_rejects() {
        let svc = service(0, 2);
        // With no workers the queue never drains: the 3rd submit must be
        // rejected. Submit via threads since submits block on their slot.
        let svc = Arc::new(svc);
        let mut handles = Vec::new();
        for _ in 0..2 {
            let svc = Arc::clone(&svc);
            handles.push(std::thread::spawn(move || {
                let _ = svc.query_with_timeout(
                    "//book",
                    QueryOptions::default(),
                    Duration::from_millis(300),
                );
            }));
        }
        // Wait until both jobs are queued.
        while svc.metrics().queue_depth.load(Ordering::Relaxed) < 2 {
            std::thread::yield_now();
        }
        let err = svc
            .query_with_timeout("//book", QueryOptions::default(), Duration::from_millis(50))
            .unwrap_err();
        assert_eq!(err, QueryError::QueueFull);
        assert_eq!(svc.metrics().rejected.load(Ordering::Relaxed), 1);
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn concurrent_submissions_all_answer() {
        let svc = Arc::new(service(4, 64));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let svc = Arc::clone(&svc);
                std::thread::spawn(move || {
                    for _ in 0..25 {
                        let hits = svc.query("//book[price<50]").unwrap();
                        assert_eq!(hits.len(), 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(svc.metrics().served.load(Ordering::Relaxed), 200);
        assert!(svc.metrics().latency.count() == 200);
        assert!(svc.pool_hit_ratio() > 0.0);
    }

    #[test]
    fn async_submissions_complete_via_callback() {
        let svc = service(2, 64);
        let (tx, rx) = std::sync::mpsc::channel();
        for i in 0..20u64 {
            let tx = tx.clone();
            svc.query_async("//book/title", QueryOptions::default(), None, move |r| {
                let _ = tx.send((i, r));
            })
            .unwrap();
        }
        let mut seen = std::collections::HashSet::new();
        for _ in 0..20 {
            let (i, r) = rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(r.unwrap().len(), 2);
            assert!(seen.insert(i), "each callback fires exactly once");
        }
        assert_eq!(svc.metrics().served.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn async_expired_jobs_complete_with_timeout() {
        // No workers: nothing drains until shutdown, so an async job with a
        // tiny deadline is dead on arrival once a worker exists. Use one
        // worker plus a queue-stuffing long job? Simplest deterministic
        // shape: zero-duration timeout, one worker — the job is expired by
        // the time it is drained.
        let svc = service(1, 16);
        let (tx, rx) = std::sync::mpsc::channel();
        svc.query_async(
            "//book",
            QueryOptions::default(),
            Some(Duration::ZERO),
            move |r| {
                let _ = tx.send(r);
            },
        )
        .unwrap();
        let r = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(r.unwrap_err(), QueryError::Timeout);
    }

    #[test]
    fn async_admission_failures_return_inline() {
        let mut svc = service(0, 1);
        svc.query_async("//book", QueryOptions::default(), None, |_| {})
            .unwrap();
        let invoked = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&invoked);
        let err = svc
            .query_async("//book", QueryOptions::default(), None, move |_| {
                flag.store(true, Ordering::Release);
            })
            .unwrap_err();
        assert_eq!(err, QueryError::QueueFull);
        assert!(
            !invoked.load(Ordering::Acquire),
            "callback must not run for rejected submissions"
        );
        svc.shutdown();
        let err = svc
            .query_async("//book", QueryOptions::default(), None, |_| {})
            .unwrap_err();
        assert_eq!(err, QueryError::Shutdown);
    }

    #[test]
    fn repeated_queries_hit_the_plan_cache() {
        let svc = service(1, 16);
        for _ in 0..5 {
            // Whitespace variants normalize to the same cache key.
            assert_eq!(svc.query("//book/title").unwrap().len(), 2);
            assert_eq!(svc.query(" //book / title ").unwrap().len(), 2);
        }
        let m = svc.metrics();
        assert_eq!(m.plan_misses.load(Ordering::Relaxed), 1);
        assert_eq!(m.plan_hits.load(Ordering::Relaxed), 9);
        assert_eq!(svc.plan_cache_len(), 1);
    }

    #[test]
    fn distinct_queries_occupy_distinct_slots() {
        let svc = service(1, 16);
        svc.query("//book").unwrap();
        svc.query("//title").unwrap();
        svc.query("//book").unwrap();
        let m = svc.metrics();
        assert_eq!(m.plan_misses.load(Ordering::Relaxed), 2);
        assert_eq!(m.plan_hits.load(Ordering::Relaxed), 1);
        assert_eq!(svc.plan_cache_len(), 2);
    }

    #[test]
    fn empty_proofs_are_counted() {
        let svc = service(1, 16);
        // title has no book descendants: the synopsis proves the path
        // unsupported and the worker answers without starting a fragment.
        assert!(svc.query("//title//book").unwrap().is_empty());
        assert_eq!(svc.metrics().empty_proofs.load(Ordering::Relaxed), 1);
        // A non-empty query leaves the counter alone.
        assert_eq!(svc.query("//book/title").unwrap().len(), 2);
        assert_eq!(svc.metrics().empty_proofs.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn commits_invalidate_proven_empty_plans() {
        let mut db = XmlDb::build_in_memory(BIB).unwrap();
        let svc = QueryService::start_from_source(
            db.snapshot_source(),
            ServiceConfig {
                workers: 1,
                queue_cap: 16,
                default_timeout: Duration::from_secs(5),
                plan_cache_cap: 64,
            },
        );
        // No <note> exists yet: the plan is proven empty and cached under
        // the current generation.
        assert!(svc.query("//book//note").unwrap().is_empty());
        assert_eq!(svc.metrics().empty_proofs.load(Ordering::Relaxed), 1);
        // The writer makes the path real and publishes a new generation.
        let book = db.query("//book").unwrap()[0].dewey.clone();
        db.insert_last_child(&book, "<note>n</note>").unwrap();
        // The cached proven-empty plan is stale; the replanned query sees
        // the updated synopsis and finds the node.
        assert_eq!(svc.query("//book//note").unwrap().len(), 1);
        assert_eq!(svc.metrics().plan_stale.load(Ordering::Relaxed), 1);
        assert_eq!(svc.metrics().empty_proofs.load(Ordering::Relaxed), 1);
    }

    /// A shape planned at generation g is re-planned at g+1, and binds a
    /// literal that had no posting at g to the postings it has now.
    #[test]
    fn a_rebound_literal_finds_what_a_commit_added() {
        let mut db = XmlDb::build_in_memory(BIB).unwrap();
        let svc = QueryService::start_from_source(
            db.snapshot_source(),
            ServiceConfig {
                workers: 1,
                queue_cap: 16,
                default_timeout: Duration::from_secs(5),
                plan_cache_cap: 64,
            },
        );
        assert_eq!(svc.query(r#"//book[title="TCP/IP"]"#).unwrap().len(), 1);
        // The same shape: a hit, bound to a literal with no posting.
        assert!(svc.query(r#"//book[title="Z"]"#).unwrap().is_empty());
        let m = svc.metrics();
        assert_eq!(m.empty_proofs.load(Ordering::Relaxed), 1);
        assert_eq!(m.plan_hits.load(Ordering::Relaxed), 1);
        // The writer gives the literal a posting at the next generation.
        let bib = db.query("/bib").unwrap()[0].dewey.clone();
        db.insert_last_child(&bib, "<book><title>Z</title></book>")
            .unwrap();
        assert_eq!(svc.query(r#"//book[title="Z"]"#).unwrap().len(), 1);
        assert_eq!(m.plan_stale.load(Ordering::Relaxed), 1);
        // Re-planned at the new generation, the shape binds either literal.
        assert_eq!(svc.query(r#"//book[title="TCP/IP"]"#).unwrap().len(), 1);
        assert_eq!(svc.query(r#"//book[title="Z"]"#).unwrap().len(), 1);
        assert_eq!(m.plan_hits.load(Ordering::Relaxed), 3);
        assert_eq!(m.empty_proofs.load(Ordering::Relaxed), 1);
        assert_eq!(svc.plan_cache_len(), 1);
    }

    /// The point mix — the selective dblp queries Q1–Q8 in both forms,
    /// alternating with unique-key lookups, a fresh key each time — plans
    /// each shape once: 17 misses in 400 queries.
    #[test]
    fn the_point_mix_plans_each_shape_once() {
        use nok_datagen::{generate, workload, DatasetKind};
        let db = XmlDb::build_in_memory(&generate(DatasetKind::Dblp, 0.01).xml).unwrap();
        let svc = QueryService::start(
            Arc::new(db),
            ServiceConfig {
                workers: 1,
                queue_cap: 16,
                default_timeout: Duration::from_secs(30),
                plan_cache_cap: 256,
            },
        );
        let selective: Vec<String> = workload(DatasetKind::Dblp)
            .into_iter()
            .filter(|(i, _)| *i <= 8)
            .filter_map(|(_, spec)| spec)
            .flat_map(|spec| [spec.path, spec.descendant_variant])
            .collect();
        assert_eq!(selective.len(), 16);
        let mut found = 0;
        for i in 0..200 {
            svc.query(&selective[i % selective.len()]).unwrap();
            // Key `i` is an article's, or another record kind's.
            let key = format!(r#"//article[ee="db/j/{i}.html"]/title"#);
            found += svc.query(&key).unwrap().len();
        }
        assert!(found > 100, "{found} of the keys are articles'");
        let m = svc.metrics();
        let (hits, misses) = (
            m.plan_hits.load(Ordering::Relaxed),
            m.plan_misses.load(Ordering::Relaxed),
        );
        assert_eq!((hits, misses), (383, 17));
        assert!(hits as f64 / (hits + misses) as f64 >= 0.95);
    }

    #[test]
    fn source_started_service_serves_while_writer_commits() {
        let mut db = XmlDb::build_in_memory(BIB).unwrap();
        let svc = QueryService::start_from_source(
            db.snapshot_source(),
            ServiceConfig {
                workers: 1,
                queue_cap: 16,
                default_timeout: Duration::from_secs(5),
                plan_cache_cap: 64,
            },
        );
        assert!(svc.db().is_none(), "source-started service holds no db");
        assert_eq!(svc.query("//book").unwrap().len(), 2);
        // The writer still owns `db` exclusively and commits an update…
        let book = db.query("//book").unwrap()[0].dewey.clone();
        db.insert_last_child(&book, "<note>n</note>").unwrap();
        // …and the worker re-pins the new generation at its next job.
        assert_eq!(svc.query("//note").unwrap().len(), 1);
        // The //book plan cached under epoch 0 is now stale: dropped and
        // replanned, counted once.
        assert_eq!(svc.query("//book").unwrap().len(), 2);
        let m = svc.metrics();
        assert_eq!(m.plan_stale.load(Ordering::Relaxed), 1);
        assert_eq!(m.plan_misses.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn shutdown_joins_workers() {
        let mut svc = service(3, 8);
        svc.query("//book").unwrap();
        svc.shutdown();
        assert_eq!(svc.query("//book").unwrap_err(), QueryError::Shutdown);
    }
}
