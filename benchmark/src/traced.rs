//! The traced run: a fixed number of the workload's reads and commits, one
//! client, one request in flight, each request replayed at successively
//! lower public boundaries with a span recorded around every call.
//!
//! ```text
//! wire.roundtrip ⊃ service.query ⊃ engine.query_into ⊃ planner.plan_query ⊃ pattern.parse
//!                                                   ⊃ exec.run
//! update.commit  ⊃ update.apply            (the same step without the WAL)
//! ```
//!
//! One pass per level, so that every level runs back to back as it does
//! under load; each pass has a service (and plan cache) of its own, so all
//! of them see the same hits and misses. A request whose plan the server
//! found in its plan cache skipped parsing and planning, so its
//! `service.query` span has `exec.run` as its only child.

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use nok_core::pattern::PathExpr;
use nok_core::{QueryOptions, QueryScratch, SnapshotSource, XmlDb};
use nok_pager::{FailPlan, FailpointStorage, FileStorage};
use nok_serve::binproto::{BinClient, BinResponse};
use nok_serve::{QueryService, WireMatch, SERVE_POOL_FRAMES};

use crate::corpus::Expected;
use crate::ops::{ReadOp, ReadStream};
use crate::probes;
use crate::report::Report;
use crate::server::{answer_is_correct, roundtrip, service_config, Host, Service};
use crate::stats::{median, quantile_sorted};
use crate::timed::{open_served, ChildCtx, Storm};
use crate::trace::{layer_times, Span, Trace};
use crate::util::{copy_dir, proc_io_writes};
use crate::workload::Workload;

type Db = XmlDb<FileStorage>;

/// Commit ids start here so they never collide with read ids in the trace.
const COMMIT_ID_BASE: u64 = 1_000_000;

/// Reads between two commits of the `mixed_rw` traced run.
const MIXED_READS_PER_COMMIT: usize = 400;

/// How many commits are replayed with every mutating I/O counted.
const COUNTED_COMMITS: u64 = 12;

/// Pool counters read at a span boundary: requests, physical reads and
/// evictions of the structural pool and of the three index pools together.
#[derive(Clone, Copy, Default)]
struct PoolCounts {
    struct_gets: u64,
    struct_reads: u64,
    idx_gets: u64,
    idx_reads: u64,
    evictions: u64,
}

fn pool_counts(db: &Db) -> PoolCounts {
    let s = db.store().pool().stats();
    let idx = [
        db.bt_tag().pool().stats(),
        db.bt_val().pool().stats(),
        db.bt_id().pool().stats(),
    ];
    PoolCounts {
        struct_gets: s.logical_gets(),
        struct_reads: s.physical_reads(),
        idx_gets: idx.iter().map(|i| i.logical_gets()).sum(),
        idx_reads: idx.iter().map(|i| i.physical_reads()).sum(),
        evictions: s.evictions() + idx.iter().map(|i| i.evictions()).sum::<u64>(),
    }
}

fn pool_delta(before: PoolCounts, after: PoolCounts) -> Vec<(&'static str, u64)> {
    vec![
        ("struct_gets", after.struct_gets - before.struct_gets),
        ("struct_reads", after.struct_reads - before.struct_reads),
        ("idx_gets", after.idx_gets - before.idx_gets),
        ("idx_reads", after.idx_reads - before.idx_reads),
        ("evictions", after.evictions - before.evictions),
    ]
}

/// One served endpoint: a service, its acceptor and one connection.
struct Endpoint {
    svc: Arc<Service>,
    host: Host,
    client: BinClient,
}

impl Endpoint {
    fn over(source: SnapshotSource<FileStorage>) -> Result<Endpoint, String> {
        let svc = Arc::new(QueryService::start_from_source(source, service_config()));
        let host = Host::start(Arc::clone(&svc)).map_err(|e| format!("listen: {e}"))?;
        let client = host.connect().map_err(|e| format!("connect: {e}"))?;
        Ok(Endpoint { svc, host, client })
    }

    fn plan_hits(&self) -> u64 {
        self.svc.metrics().plan_hits.load(Ordering::Relaxed)
    }

    fn close(self) {
        drop(self.client);
        self.host.stop();
    }
}

/// What the read trace saw that its spans do not carry.
#[derive(Default)]
struct ReadTotals {
    ops: u64,
    failed: u64,
    untraced_ns: Vec<u64>,
    largest_answer: Vec<WireMatch>,
}

impl ReadTotals {
    fn saw(&mut self, resp: &BinResponse, op: &ReadOp, expected: &Expected) {
        self.ops += 1;
        if !answer_is_correct(resp, op, expected) {
            self.failed += 1;
        }
        if let BinResponse::QueryOk { matches, .. } = resp {
            if matches.len() > self.largest_answer.len() {
                self.largest_answer = matches.clone();
            }
        }
    }
}

/// Warm read trace over one open database, one pass per level so that each
/// level runs back to back as it does under load and meets every request
/// with the caches the passes before it met: the wire untraced, the wire
/// traced, the service, the engine, plan and parse, execute. Each pass has
/// a service (and plan cache) of its own and sees the same hits and misses.
/// When the workload mixes, both wire passes commit a step of the storm
/// after every `commit_every` reads; only the traced pass records it.
fn warm_reads(
    ctx: &ChildCtx<'_>,
    ops: &[ReadOp],
    trace: &mut Trace,
    writes: &mut WriteTrace,
    commit_every: Option<usize>,
) -> Result<ReadTotals, String> {
    let source = writes.durable.db.snapshot_source();
    let mut totals = ReadTotals::default();
    let opts = QueryOptions::default();
    let commit_due = |i: usize| commit_every.is_some_and(|n| (i + 1).is_multiple_of(n));
    let warm = |client: &mut BinClient| -> Result<(), String> {
        for (i, path) in ctx.expected.fixed.iter().enumerate() {
            roundtrip(client, u64::MAX - i as u64, path)?;
        }
        Ok(())
    };

    let mut untraced = Endpoint::over(source.clone())?;
    warm(&mut untraced.client)?;
    for (i, op) in ops.iter().enumerate() {
        let t0 = Instant::now();
        roundtrip(&mut untraced.client, i as u64 + 1, &op.path)?;
        totals.untraced_ns.push(t0.elapsed().as_nanos() as u64);
        if commit_due(i) {
            writes.step_unrecorded()?;
        }
    }
    untraced.close();

    // Nothing but the counters is touched between two requests of the
    // traced pass; answers are checked and spans built after it.
    let mut traced = Endpoint::over(source.clone())?;
    warm(&mut traced.client)?;
    let mut seen = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        let hits_before = traced.plan_hits();
        let before = pool_counts(&writes.durable.db);
        let t0 = Instant::now();
        let resp = roundtrip(&mut traced.client, i as u64 + 1, &op.path)?;
        let t1 = Instant::now();
        let after = pool_counts(&writes.durable.db);
        seen.push((
            t0,
            t1,
            before,
            after,
            traced.plan_hits() > hits_before,
            resp,
        ));
        if commit_due(i) && writes.remaining > 0 {
            writes.step(trace)?;
        }
    }
    traced.close();
    let mut plan_hit = Vec::with_capacity(ops.len());
    for (i, (t0, t1, before, after, hit, resp)) in seen.into_iter().enumerate() {
        totals.saw(&resp, &ops[i], ctx.expected);
        let mut counts = pool_delta(before, after);
        counts.push(("plan_hit", u64::from(hit)));
        trace.record("wire.roundtrip", None, i as u64 + 1, t0, t1, counts);
        plan_hit.push(hit);
    }

    let direct = QueryService::start_from_source(source.clone(), service_config());
    for path in &ctx.expected.fixed {
        direct.query(path).map_err(|e| format!("{path}: {e}"))?;
    }
    for (i, op) in ops.iter().enumerate() {
        let t0 = Instant::now();
        direct
            .query(&op.path)
            .map_err(|e| format!("{}: {e}", op.path))?;
        let t1 = Instant::now();
        trace.span("service.query", "wire.roundtrip", i as u64 + 1, t0, t1);
    }
    drop(direct);

    let snap = source.snapshot().map_err(|e| e.to_string())?;
    let mut scratch = QueryScratch::new();
    let mut out = Vec::new();
    let fail = |op: &ReadOp, e: nok_core::CoreError| format!("{}: {e}", op.path);
    for path in &ctx.expected.fixed {
        snap.query(path).map_err(|e| format!("{path}: {e}"))?;
    }
    // What the server skipped on a plan-cache hit is not in its time: such
    // a request gets no engine, plan or parse span.
    for (i, op) in ops.iter().enumerate().filter(|(i, _)| !plan_hit[*i]) {
        let t0 = Instant::now();
        snap.query_into(&op.path, opts, &mut scratch, &mut out)
            .map_err(|e| fail(op, e))?;
        let t1 = Instant::now();
        trace.span("engine.query_into", "service.query", i as u64 + 1, t0, t1);
    }
    let mut plans = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        let t0 = Instant::now();
        let planned = snap.plan_query(&op.path, opts).map_err(|e| fail(op, e))?;
        let t1 = Instant::now();
        PathExpr::parse(&op.path).map_err(|e| fail(op, e))?;
        let t2 = Instant::now();
        plans.push(planned);
        if !plan_hit[i] {
            let id = i as u64 + 1;
            trace.span("planner.plan_query", "engine.query_into", id, t0, t1);
            trace.span("pattern.parse", "planner.plan_query", id, t1, t2);
        }
    }
    for (i, (op, planned)) in ops.iter().zip(&plans).enumerate() {
        let parent = if plan_hit[i] {
            "service.query"
        } else {
            "engine.query_into"
        };
        let t0 = Instant::now();
        snap.execute_plan(planned, &mut scratch, &mut out)
            .map_err(|e| fail(op, e))?;
        let t1 = Instant::now();
        record_exec(trace, i as u64 + 1, parent, t0, t1, &scratch, out.len());
    }
    Ok(totals)
}

/// Cold read trace: every level of every request runs on a directory
/// opened for that call alone, so each page it needs is a first touch.
fn cold_reads(ctx: &ChildCtx<'_>, ops: &[ReadOp], trace: &mut Trace) -> Result<ReadTotals, String> {
    let mut totals = ReadTotals::default();
    let fresh = || open_served(ctx.dir);
    for (i, op) in ops.iter().enumerate() {
        let id = i as u64 + 1;

        let db = Arc::new(fresh()?);
        let mut ep = Endpoint::over(db.snapshot_source())?;
        let t0 = Instant::now();
        roundtrip(&mut ep.client, id, &op.path)?;
        totals.untraced_ns.push(t0.elapsed().as_nanos() as u64);
        ep.close();
        drop(db);

        let db = Arc::new(fresh()?);
        let mut ep = Endpoint::over(db.snapshot_source())?;
        let before = pool_counts(&db);
        let t0 = Instant::now();
        let resp = roundtrip(&mut ep.client, id, &op.path)?;
        let t1 = Instant::now();
        let counts = pool_delta(before, pool_counts(&db));
        totals.saw(&resp, op, ctx.expected);
        trace.record("wire.roundtrip", None, id, t0, t1, counts);
        ep.close();
        drop(db);

        cold_lower_levels(trace, id, op, ctx.dir)?;
    }
    Ok(totals)
}

/// The levels below the wire for a cold request: service, engine, and
/// plan-then-execute each run on a directory opened for that call alone
/// (planning touches no page, so plan and execute share one).
fn cold_lower_levels(trace: &mut Trace, id: u64, op: &ReadOp, dir: &Path) -> Result<(), String> {
    let opts = QueryOptions::default();
    let mut scratch = QueryScratch::new();
    let mut out = Vec::new();
    let e = |e: nok_core::CoreError| format!("{}: {e}", op.path);

    let direct = QueryService::start(Arc::new(open_served(dir)?), service_config());
    let t0 = Instant::now();
    direct
        .query(&op.path)
        .map_err(|e| format!("{}: {e}", op.path))?;
    let t1 = Instant::now();
    trace.span("service.query", "wire.roundtrip", id, t0, t1);
    drop(direct);

    let db = open_served(dir)?;
    let t0 = Instant::now();
    db.query_into(&op.path, opts, &mut scratch, &mut out)
        .map_err(e)?;
    let t1 = Instant::now();
    trace.span("engine.query_into", "service.query", id, t0, t1);
    drop(db);

    let db = open_served(dir)?;
    let t0 = Instant::now();
    let planned = db.plan_query(&op.path, opts).map_err(e)?;
    let t1 = Instant::now();
    trace.span("planner.plan_query", "engine.query_into", id, t0, t1);
    let t0 = Instant::now();
    PathExpr::parse(&op.path).map_err(e)?;
    let t1 = Instant::now();
    trace.span("pattern.parse", "planner.plan_query", id, t0, t1);
    let t0 = Instant::now();
    db.execute_plan(&planned, &mut scratch, &mut out)
        .map_err(e)?;
    let t1 = Instant::now();
    record_exec(trace, id, "engine.query_into", t0, t1, &scratch, out.len());
    Ok(())
}

/// The `exec.run` span with the executor's own counters attached.
fn record_exec(
    trace: &mut Trace,
    id: u64,
    parent: &'static str,
    t0: Instant,
    t1: Instant,
    scratch: &QueryScratch,
    matches: usize,
) {
    let stats = scratch.stats();
    trace.record(
        "exec.run",
        Some(parent),
        id,
        t0,
        t1,
        vec![
            ("matches", matches as u64),
            ("entries_examined", stats.entries_examined),
            ("start_points", stats.starting_points.iter().sum()),
        ],
    );
}

/// The write trace: the storm script committed durably, with the same step
/// applied to a twin database whose WAL is off, and to a second twin whose
/// every mutating I/O is counted.
struct WriteTrace {
    durable: Storm<FileStorage>,
    twin: Storm<FileStorage>,
    counted: Storm<FailpointStorage<FileStorage>>,
    plan: Arc<FailPlan>,
    /// Mutating I/Os the plan had counted when the twin was open.
    counted_at_open: u64,
    /// Recorded commits still to run.
    remaining: u64,
}

impl WriteTrace {
    fn open(
        ctx: &ChildCtx<'_>,
        twin_dir: &Path,
        count_dir: &Path,
        commits: u64,
    ) -> Result<Self, String> {
        let corpus = ctx.workload.corpus();
        let mut twin = open_served(twin_dir)?;
        twin.disable_wal();
        let plan = FailPlan::counting();
        let wrap = Arc::clone(&plan);
        let mut counted = XmlDb::<FailpointStorage<FileStorage>>::open_dir_with(
            count_dir,
            SERVE_POOL_FRAMES,
            move |s| FailpointStorage::new(s, Arc::clone(&wrap)),
        )
        .map_err(|e| format!("open {}: {e}", count_dir.display()))?;
        counted.set_failpoint(Arc::clone(&plan));
        Ok(WriteTrace {
            durable: Storm::new(open_served(ctx.dir)?, corpus),
            twin: Storm::new(twin, corpus),
            counted: Storm::new(counted, corpus),
            counted_at_open: plan.count(),
            plan,
            remaining: commits,
        })
    }

    /// Advance the script without a span; the twin follows so that both
    /// databases meet every recorded step in the same state.
    fn step_unrecorded(&mut self) -> Result<(), String> {
        self.durable.step()?;
        self.twin.step()?;
        Ok(())
    }

    fn step(&mut self, trace: &mut Trace) -> Result<(), String> {
        let id = COMMIT_ID_BASE + self.durable.acked;
        self.remaining -= 1;
        let (wchar0, syscw0) = proc_io_writes();
        let t0 = Instant::now();
        let inserted = self.durable.step()?;
        let t1 = Instant::now();
        let (wchar1, syscw1) = proc_io_writes();
        trace.record(
            "update.commit",
            None,
            id,
            t0,
            t1,
            vec![
                ("bytes_written", wchar1 - wchar0),
                ("write_syscalls", syscw1 - syscw0),
            ],
        );

        let t0 = Instant::now();
        self.twin.step()?;
        let t1 = Instant::now();
        let counts = vec![("insert", u64::from(inserted))];
        trace.record("update.apply", Some("update.commit"), id, t0, t1, counts);

        if self.counted.acked < COUNTED_COMMITS {
            self.counted.step()?;
        }
        Ok(())
    }

    fn summarize(&mut self, trace: &Trace, report: &mut Report) {
        let mean_us = |spans: &[&Span]| {
            let ns: u64 = spans.iter().map(|s| s.duration_ns()).sum();
            ns as f64 / spans.len().max(1) as f64 / 1e3
        };
        let commits: Vec<&Span> = trace.named("update.commit").collect();
        let (inserts, deletes): (Vec<&Span>, Vec<&Span>) = trace
            .named("update.apply")
            .partition(|s| s.count("insert") == 1);
        let applies: Vec<&Span> = trace.named("update.apply").collect();
        let n = commits.len().max(1) as f64;
        report.put("update.commit_us", mean_us(&commits), "us");
        report.put("update.insert_us", mean_us(&inserts), "us");
        report.put("update.delete_us", mean_us(&deletes), "us");
        report.put(
            "wal.durable_extra_us",
            mean_us(&commits) - mean_us(&applies),
            "us",
        );
        report.put(
            "io.bytes_written_per_commit",
            trace.sum("update.commit", "bytes_written") as f64 / n,
            "B",
        );
        report.put(
            "io.write_syscalls_per_commit",
            trace.sum("update.commit", "write_syscalls") as f64 / n,
            "count",
        );
        report.put(
            "io.mutating_ops_per_commit",
            (self.plan.count() - self.counted_at_open) as f64 / self.counted.acked.max(1) as f64,
            "count",
        );
        report.put(
            "mvcc.retired_generations",
            self.durable.db.generation_stats().retired_generations() as f64,
            "count",
        );
        report.note("acked_commits", self.durable.acked);

        // The worst case for a delete: the first record goes, and every
        // later sibling has to be relabelled. On the twin, after the script.
        // A transaction pins every page it dirties, so on a corpus whose
        // relabelling touches more pages than a pool has frames the delete
        // is refused; the refusal is noted and the metric left out.
        let first = nok_core::Dewey::root().child(0);
        let mut ms = Vec::new();
        for _ in 0..3 {
            let t0 = Instant::now();
            match self.twin.db.delete_subtree(&first) {
                Ok(_) => ms.push(t0.elapsed().as_secs_f64() * 1e3),
                Err(e) => {
                    report.note("update.delete_first_refused", e);
                    break;
                }
            }
        }
        if !ms.is_empty() {
            report.put("update.delete_first_ms", median(&ms), "ms");
        }
    }
}

fn twin_path(dir: &Path, suffix: &str) -> PathBuf {
    let mut name = dir.file_name().unwrap_or_default().to_os_string();
    name.push(suffix);
    dir.with_file_name(name)
}

pub fn run(ctx: &ChildCtx<'_>) -> Result<Report, String> {
    let w = ctx.workload;
    let mut report = Report::default();
    let mut trace = Trace::new();
    let (reads, commits) = w.trace_ops();
    let ops: Vec<ReadOp> = ReadStream::new(
        w.mix(),
        &ctx.expected.fixed,
        &ctx.expected.articles,
        ctx.seed,
    )
    .take(reads)
    .collect();

    // Twins are copied, and first touches probed, before anything changes.
    let began = Instant::now();
    let twin_dir = twin_path(ctx.dir, ".twin");
    let count_dir = twin_path(ctx.dir, ".count");
    copy_dir(ctx.dir, &twin_dir).map_err(|e| format!("copy twin: {e}"))?;
    copy_dir(ctx.dir, &count_dir).map_err(|e| format!("copy twin: {e}"))?;
    let mut lap = Instant::now();
    let sample = {
        let db = open_served(ctx.dir)?;
        probes::sample_nodes(&db, ctx.seed)?
    };
    probes::cold(ctx.dir, &sample, &mut report)?;
    report.lap(&mut lap, "phase_cold_probes_s");

    // Cold reads open the directory afresh for every call, so they run
    // before the write trace takes its long-lived handle on it.
    let (totals, mut writes) = if w == Workload::ColdDeep {
        let totals = cold_reads(ctx, &ops, &mut trace)?;
        (
            totals,
            WriteTrace::open(ctx, &twin_dir, &count_dir, commits)?,
        )
    } else {
        let mut writes = WriteTrace::open(ctx, &twin_dir, &count_dir, commits)?;
        // About the timed run's ratio of reads answered to commits made.
        let commit_every = (w == Workload::MixedRw).then_some(MIXED_READS_PER_COMMIT);
        let totals = warm_reads(ctx, &ops, &mut trace, &mut writes, commit_every)?;
        (totals, writes)
    };
    report.lap(&mut lap, "phase_read_trace_s");
    while writes.remaining > 0 {
        writes.step(&mut trace)?;
    }
    writes.summarize(&trace, &mut report);
    report.lap(&mut lap, "phase_write_trace_s");

    let paths: Vec<String> = ops.iter().map(|o| o.path.clone()).collect();
    probes::storage(&writes.durable.db, &sample, &mut report)?;
    probes::serving(
        &writes.durable.db,
        &paths,
        &totals.largest_answer,
        &mut report,
    )?;
    report.lap(&mut lap, "phase_warm_probes_s");

    summarize_reads(&trace, totals, &mut report);
    trace.write_jsonl(ctx.trace_file)?;
    report.note("trace_spans", trace.spans.len());
    report.note("phase_all_s", began.elapsed().as_secs_f64());
    // As in the timed runs, the write workloads' handle is never dropped.
    std::mem::forget(writes);
    Ok(report)
}

fn summarize_reads(trace: &Trace, mut totals: ReadTotals, report: &mut Report) {
    let layers = layer_times(&trace.spans);
    let layer = |name: &str| layers.get(name).copied().unwrap_or_default();
    let per = |ns: u64, n: u64| ns as f64 / n.max(1) as f64;
    let ops = totals.ops;

    let wire = layer("wire.roundtrip");
    let service = layer("service.query");
    let engine = layer("engine.query_into");
    let plan = layer("planner.plan_query");
    let parse = layer("pattern.parse");
    let exec = layer("exec.run");
    report.put("wire.roundtrip_us", per(wire.total_ns, ops) / 1e3, "us");
    report.put("conn.wire_self_us", per(wire.self_ns, ops) / 1e3, "us");
    report.put("service.self_us", per(service.self_ns, ops) / 1e3, "us");
    report.put(
        "engine.self_us",
        per(engine.self_ns, engine.spans) / 1e3,
        "us",
    );
    report.put("planner.plan_ns", per(plan.self_ns, plan.spans), "ns");
    report.put("pattern.parse_ns", per(parse.total_ns, parse.spans), "ns");
    report.put("exec.run_us", per(exec.total_ns, exec.spans) / 1e3, "us");
    let named = wire.self_ns + service.self_ns + plan.self_ns + parse.total_ns + exec.total_ns;
    report.put(
        "trace.unattributed_pct",
        100.0 * (wire.total_ns as f64 - named as f64).abs() / wire.total_ns.max(1) as f64,
        "%",
    );

    let mut traced_ns: Vec<u64> = trace
        .named("wire.roundtrip")
        .map(|s| s.duration_ns())
        .collect();
    traced_ns.sort_unstable();
    totals.untraced_ns.sort_unstable();
    let traced_p50 = quantile_sorted(&traced_ns, 0.5) as f64;
    let untraced_p50 = quantile_sorted(&totals.untraced_ns, 0.5) as f64;
    report.put(
        "trace.overhead_pct",
        100.0 * (traced_p50 - untraced_p50) / untraced_p50.max(1.0),
        "%",
    );
    report.note("traced_read_p50_us", traced_p50 / 1e3);
    report.note("untraced_read_p50_us", untraced_p50 / 1e3);

    report.put(
        "plan_cache.hit_share",
        trace.sum("wire.roundtrip", "plan_hit") as f64 / ops.max(1) as f64,
        "share",
    );
    let matches = trace.sum("exec.run", "matches").max(1) as f64;
    report.put(
        "exec.entries_per_match",
        trace.sum("exec.run", "entries_examined") as f64 / matches,
        "count",
    );
    report.put(
        "exec.start_points_per_match",
        trace.sum("exec.run", "start_points") as f64 / matches,
        "count",
    );

    let sum = |key: &str| trace.sum("wire.roundtrip", key);
    // Hits in the thread-local tier reach the pool's counter in batches, so
    // over a short trace the requests counted can trail the reads.
    let struct_gets = sum("struct_gets").max(sum("struct_reads")).max(1) as f64;
    report.put(
        "pool.struct_hit_share",
        1.0 - sum("struct_reads") as f64 / struct_gets,
        "share",
    );
    let n = ops.max(1) as f64;
    report.put(
        "pool.struct_physical_reads_per_op",
        sum("struct_reads") as f64 / n,
        "count",
    );
    report.put(
        "pool.idx_physical_reads_per_op",
        sum("idx_reads") as f64 / n,
        "count",
    );
    report.put(
        "pool.evictions_per_op",
        sum("evictions") as f64 / n,
        "count",
    );
    report.note("trace_reads", ops);
    report.count(ops, totals.failed);
}
