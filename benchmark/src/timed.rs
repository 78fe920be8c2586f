//! The timed runs: what the measured process does for `--seconds` seconds,
//! with no span recorded and no counter read inside the window.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nok_core::{Dewey, XmlDb};
use nok_pager::Storage;
use nok_serve::{QueryService, SERVE_POOL_FRAMES};

use crate::corpus::Expected;
use crate::ops::{storm_step, Corpus, ReadOp, ReadStream, StormStep};
use crate::report::Report;
use crate::sched::{account, OpenLoop, Paced};
use crate::server::{
    answer_is_correct, client_count, drive_reads, roundtrip, service_config, Host, ReadYourWrites,
    Sample,
};
use crate::stats::{quantile_sorted, sliced_rate, summarize_ns, LatencySummary};
use crate::util::Rng;
use crate::workload::{Workload, MIXED_WRITE_RATE, RYW_EVERY};

/// What the measured process is told.
pub struct ChildCtx<'a> {
    pub workload: Workload,
    pub dir: &'a Path,
    pub expected: &'a Expected,
    pub seed: u64,
    pub seconds: f64,
    /// Where a traced run writes its spans.
    pub trace_file: &'a Path,
}

impl ChildCtx<'_> {
    /// Untimed lead-in: caches fill and lazy set-up finishes.
    fn warmup(&self) -> Duration {
        Duration::from_secs_f64((self.seconds / 5.0).min(3.0))
    }

    fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

pub fn open_served(dir: &Path) -> Result<XmlDb<nok_pager::FileStorage>, String> {
    XmlDb::open_dir_with_capacity(dir, SERVE_POOL_FRAMES)
        .map_err(|e| format!("open {}: {e}", dir.display()))
}

pub fn run(ctx: &ChildCtx<'_>) -> Result<Report, String> {
    match ctx.workload {
        Workload::PointRead | Workload::ScanRead => read_only(ctx),
        Workload::ColdDeep => cold_deep(ctx),
        Workload::UpdateStorm => update_storm(ctx),
        Workload::MixedRw => mixed_rw(ctx),
    }
}

/// Latency and throughput of the reads answered between two instants.
struct ReadPhase {
    attempted: u64,
    failed: u64,
    qps: f64,
    lat: LatencySummary,
    p99_us: f64,
}

fn read_phase(
    samples: &[Sample],
    from: Duration,
    to: Duration,
    tail_q: f64,
    rate_unit: usize,
) -> ReadPhase {
    let (from_ns, to_ns) = (from.as_nanos() as u64, to.as_nanos() as u64);
    let mut inside: Vec<&Sample> = samples
        .iter()
        .filter(|s| s.done_ns >= from_ns && s.done_ns < to_ns)
        .collect();
    inside.sort_by_key(|s| s.done_ns);
    let ok: Vec<&Sample> = inside.iter().copied().filter(|s| s.ok).collect();
    let ok_ns: Vec<u64> = ok.iter().map(|s| s.latency_ns).collect();
    let done_ns: Vec<u64> = ok.iter().map(|s| s.done_ns).collect();
    let mut sorted = ok_ns.clone();
    sorted.sort_unstable();
    ReadPhase {
        attempted: inside.len() as u64,
        failed: (inside.len() - ok.len()) as u64,
        qps: sliced_rate(&done_ns, rate_unit),
        lat: summarize_ns(&ok_ns, tail_q),
        p99_us: quantile_sorted(&sorted, 0.99) as f64 / 1000.0,
    }
}

fn put_reads(report: &mut Report, phase: &ReadPhase) {
    report.put("read_qps", phase.qps, "1/s");
    report.put("read_p50_us", phase.lat.p50_us, "us");
    report.put("read_p95_us", phase.lat.tail_us, "us");
    report.put("client.samples", phase.lat.samples as f64, "count");
    if phase.lat.samples >= 1000 {
        report.put("client.read_p99_us", phase.p99_us, "us");
    }
    report.note("read_p95_supported", phase.lat.tail_supported);
    report.count(phase.attempted, phase.failed);
}

/// All clients of a read workload until `end`; every sample of every client.
fn run_clients(
    host: &Host,
    ctx: &ChildCtx<'_>,
    began: Instant,
    end: Instant,
    acked_rounds: Option<&AtomicU64>,
) -> Result<Vec<Sample>, String> {
    let w = ctx.workload;
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..client_count() as u64)
            .map(|c| {
                scope.spawn(move || {
                    let client = host.connect().map_err(|e| format!("connect: {e}"))?;
                    let seed = ctx.seed.wrapping_mul(1000).wrapping_add(c);
                    let mut ops =
                        ReadStream::new(w.mix(), &ctx.expected.fixed, &ctx.expected.articles, seed);
                    let ryw = acked_rounds.map(|acked_rounds| ReadYourWrites {
                        corpus: w.corpus(),
                        acked_rounds,
                        every: RYW_EVERY,
                        rng: Rng::new(seed ^ 0x5EED),
                    });
                    drive_reads(client, &mut ops, ctx.expected, w.depth(), began, end, ryw)
                })
            })
            .collect();
        let mut all = Vec::new();
        for c in clients {
            all.extend(c.join().map_err(|_| "client thread panicked")??);
        }
        Ok(all)
    })
}

fn note_service(report: &mut Report, svc: &crate::server::Service) {
    let m = svc.metrics();
    for (name, counter) in [
        ("served", &m.served),
        ("rejected", &m.rejected),
        ("timed_out", &m.timed_out),
        ("server_failed", &m.failed),
        ("plan_hits", &m.plan_hits),
        ("plan_misses", &m.plan_misses),
        ("plan_stale", &m.plan_stale),
    ] {
        report.note(name, counter.load(Ordering::Relaxed));
    }
}

/// `point_read` and `scan_read`: closed loop over a read-only database.
fn read_only(ctx: &ChildCtx<'_>) -> Result<Report, String> {
    let db = Arc::new(open_served(ctx.dir)?);
    let svc = Arc::new(QueryService::start(db, service_config()));
    let host = Host::start(Arc::clone(&svc)).map_err(|e| format!("listen: {e}"))?;
    let began = Instant::now();
    let end = began + ctx.warmup() + ctx.window();
    let samples = run_clients(&host, ctx, began, end, None)?;
    let mut report = Report::default();
    let phase = read_phase(
        &samples,
        ctx.warmup(),
        ctx.warmup() + ctx.window(),
        ctx.workload.tail_q(),
        ctx.workload.rate_unit(),
    );
    put_reads(&mut report, &phase);
    note_service(&mut report, &svc);
    host.stop();
    Ok(report)
}

/// A closed loop of one operation after another until `end`. Operations
/// started before `warm_end` are warm-up; of the rest, `done_ns` holds when
/// each ended, counted from the end of the last warm-up operation (and
/// starts with that 0), and `timed` its latency and result.
struct ClosedLoop<T> {
    done_ns: Vec<u64>,
    timed: Vec<(u64, T)>,
}

fn closed_loop<T>(
    warm_end: Instant,
    end: Instant,
    mut op: impl FnMut() -> Result<T, String>,
) -> Result<ClosedLoop<T>, String> {
    let mut out = ClosedLoop {
        done_ns: vec![0],
        timed: Vec::new(),
    };
    let mut timed_from = Instant::now();
    loop {
        let started = Instant::now();
        if started >= end {
            return Ok(out);
        }
        let result = op()?;
        let done = Instant::now();
        if started < warm_end {
            timed_from = done;
        } else {
            out.done_ns.push((done - timed_from).as_nanos() as u64);
            out.timed.push(((done - started).as_nanos() as u64, result));
        }
    }
}

/// One restart cycle of `cold_deep`: open the directory with fresh pools,
/// start a service and an acceptor, connect, and ask one query once.
pub struct ColdCycle {
    pub restart_to_answer_ns: u64,
    pub query_ns: u64,
    pub ok: bool,
}

pub fn cold_cycle(dir: &Path, op: &ReadOp, expected: &Expected) -> Result<ColdCycle, String> {
    let t0 = Instant::now();
    let db = Arc::new(open_served(dir)?);
    let svc = Arc::new(QueryService::start(db, service_config()));
    let host = Host::start(Arc::clone(&svc)).map_err(|e| format!("listen: {e}"))?;
    let mut client = host.connect().map_err(|e| format!("connect: {e}"))?;
    let asked = Instant::now();
    let resp = roundtrip(&mut client, 1, &op.path)?;
    let answered = Instant::now();
    drop(client);
    host.stop();
    Ok(ColdCycle {
        restart_to_answer_ns: (answered - t0).as_nanos() as u64,
        query_ns: (answered - asked).as_nanos() as u64,
        ok: answer_is_correct(&resp, op, expected),
    })
}

fn cold_deep(ctx: &ChildCtx<'_>) -> Result<Report, String> {
    let mut ops = ReadStream::new(
        ctx.workload.mix(),
        &ctx.expected.fixed,
        &ctx.expected.articles,
        ctx.seed,
    );
    let warm_end = Instant::now() + ctx.warmup();
    // A cycle ends when its tear-down does: the rate is the one a supervisor
    // that restarts the server for every question would see.
    let cycles = closed_loop(warm_end, warm_end + ctx.window(), || {
        let op = ops.next().ok_or("read stream ended")?;
        cold_cycle(ctx.dir, &op, ctx.expected)
    })?;
    let ok = cycles.timed.iter().filter(|(_, c)| c.ok);
    let restart_ns: Vec<u64> = ok.clone().map(|(_, c)| c.restart_to_answer_ns).collect();
    let query_ns: Vec<u64> = ok.map(|(_, c)| c.query_ns).collect();

    let mut report = Report::default();
    let tail_q = ctx.workload.tail_q();
    let restart = summarize_ns(&restart_ns, tail_q);
    let rate = sliced_rate(&cycles.done_ns, ctx.workload.rate_unit());
    report.put("restart_cycles_per_s", rate, "1/s");
    report.put("restart_to_answer_ms", restart.p50_us / 1000.0, "ms");
    report.put("restart_to_answer_p75_ms", restart.tail_us / 1000.0, "ms");
    report.put("read_p50_us", summarize_ns(&query_ns, tail_q).p50_us, "us");
    report.put("client.samples", restart.samples as f64, "count");
    report.note("restart_p75_supported", restart.tail_supported);
    let attempted = cycles.timed.len();
    report.count(attempted as u64, (attempted - restart_ns.len()) as u64);
    Ok(report)
}

/// The scripted update storm over one database handle.
pub struct Storm<S: Storage> {
    pub db: XmlDb<S>,
    corpus: Corpus,
    /// Commits acknowledged so far; also the index of the next step.
    pub acked: u64,
    last_inserted: Option<Dewey>,
}

impl<S: Storage> Storm<S> {
    pub fn new(db: XmlDb<S>, corpus: Corpus) -> Storm<S> {
        Storm {
            db,
            corpus,
            acked: 0,
            last_inserted: None,
        }
    }

    /// Commit the next step of the script; returns whether it was an insert.
    pub fn step(&mut self) -> Result<bool, String> {
        let k = self.acked;
        let inserted = match storm_step(k) {
            StormStep::Insert { key } => {
                let at = self
                    .db
                    .insert_last_child(&Dewey::root(), &self.corpus.record(&key))
                    .map_err(|e| format!("commit {k} (insert {key}): {e}"))?;
                self.last_inserted = Some(at);
                true
            }
            StormStep::DeleteLast => {
                let at = self.last_inserted.take().ok_or("delete before insert")?;
                self.db
                    .delete_subtree(&at)
                    .map_err(|e| format!("commit {k} (delete {at}): {e}"))?;
                false
            }
        };
        self.acked += 1;
        Ok(inserted)
    }
}

fn put_commits(report: &mut Report, lat_ns: &[u64], tail_q: f64) {
    let lat = summarize_ns(lat_ns, tail_q);
    report.put("commit_p50_us", lat.p50_us, "us");
    report.put("commit_p95_us", lat.tail_us, "us");
    report.note("commit_samples", lat.samples);
    report.note("commit_p95_supported", lat.tail_supported);
}

/// `update_storm`: one writer, durable commits back to back. The caller
/// exits the process right after, without flushing or dropping the handle.
fn update_storm(ctx: &ChildCtx<'_>) -> Result<Report, String> {
    let mut storm = Storm::new(open_served(ctx.dir)?, ctx.workload.corpus());
    let warm_end = Instant::now() + ctx.warmup();
    let commits = closed_loop(warm_end, warm_end + ctx.window(), || storm.step())?;
    let lat_ns: Vec<u64> = commits.timed.iter().map(|(ns, _)| *ns).collect();

    let mut report = Report::default();
    let rate = sliced_rate(&commits.done_ns, ctx.workload.rate_unit());
    report.put("commit_per_s", rate, "1/s");
    put_commits(&mut report, &lat_ns, ctx.workload.tail_q());
    report.count(lat_ns.len() as u64, 0);
    report.note("acked_commits", storm.acked);
    // The handle is leaked on purpose: nothing may run between the last
    // acknowledged commit and the exit but writing this report.
    std::mem::forget(storm);
    Ok(report)
}

/// `mixed_rw`: the `point_read` clients, first alone and then beside an
/// open-loop writer committing the storm script at a fixed rate.
fn mixed_rw(ctx: &ChildCtx<'_>) -> Result<Report, String> {
    let db = open_served(ctx.dir)?;
    let svc = Arc::new(QueryService::start_from_source(
        db.snapshot_source(),
        service_config(),
    ));
    let host = Host::start(Arc::clone(&svc)).map_err(|e| format!("listen: {e}"))?;
    let mut storm = Storm::new(db, ctx.workload.corpus());
    let acked_rounds = AtomicU64::new(0);

    let read_only = ctx.window() / 5;
    let began = Instant::now();
    let mixed_from = began + ctx.warmup() + read_only;
    let end = mixed_from + ctx.window();

    let (samples, paced) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| -> Result<Vec<Paced>, String> {
            let mut sched = OpenLoop::new(mixed_from, MIXED_WRITE_RATE);
            let mut paced = Vec::new();
            loop {
                let due = sched.next_due();
                if due >= end {
                    return Ok(paced);
                }
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                let started = Instant::now();
                if storm.step()? {
                    // Insert A of round r is commit 3r: acknowledged now.
                    acked_rounds.store(storm.acked.div_ceil(3), Ordering::Release);
                }
                paced.push(account(due, started, Instant::now()));
            }
        });
        let samples = run_clients(&host, ctx, began, end, Some(&acked_rounds));
        let paced = writer.join().map_err(|_| "writer thread panicked")?;
        Ok::<_, String>((samples?, paced?))
    })?;

    let mut report = Report::default();
    let tail_q = ctx.workload.tail_q();
    let unit = ctx.workload.rate_unit();
    let alone = read_phase(
        &samples,
        ctx.warmup(),
        ctx.warmup() + read_only,
        tail_q,
        unit,
    );
    let beside = read_phase(
        &samples,
        ctx.warmup() + read_only,
        ctx.warmup() + read_only + ctx.window(),
        tail_q,
        unit,
    );
    put_reads(&mut report, &beside);
    report.put("mixed.read_qps_ratio", beside.qps / alone.qps, "ratio");
    report.note("read_only_qps", alone.qps);
    let commit_ns: Vec<u64> = paced.iter().map(|p| p.latency_ns).collect();
    put_commits(&mut report, &commit_ns, tail_q);
    let mut late_ns: Vec<u64> = paced.iter().map(|p| p.late_ns).collect();
    late_ns.sort_unstable();
    report.put(
        "writer.late_p95_ms",
        quantile_sorted(&late_ns, 0.95) as f64 / 1e6,
        "ms",
    );
    report.count(paced.len() as u64, 0);
    report.note("acked_commits", storm.acked);
    report.put(
        "mvcc.retired_generations",
        svc.generation_stats().retired_generations() as f64,
        "count",
    );
    note_service(&mut report, &svc);
    host.stop();
    std::mem::forget(storm);
    Ok(report)
}
