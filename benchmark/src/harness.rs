//! The parent side of a run: set-up, the oracle, the measured child process,
//! and everything checked or measured on the directory the child leaves.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nok_core::{BuildOptions, StructStore, TagDict, XmlDb};
use nok_pager::{BufferPool, FileStorage, MemStorage};
use nok_serve::{QueryService, SERVE_POOL_FRAMES};
use nok_verify::{verify_db, VerifyOptions};

use crate::corpus::{setup_round, Expected, SetupRound};
use crate::ops::{sequence_hash, storm_outcome, Corpus, Expect, ReadOp, ReadStream};
use crate::report::Report;
use crate::server::{answer_is_correct, client_count, roundtrip, service_config, Host};
use crate::stats::median;
use crate::util::{copy_dir, dir_bytes, fs_type};
use crate::workload::Workload;

/// Set-up is timed this many times a run; the median is reported.
const SETUP_ROUNDS: usize = 3;

/// The directory the child leaves is copied and opened this many times.
const REOPEN_COPIES: usize = 5;

/// A child that has not finished by then is killed and the run fails.
const CHILD_DEADLINE: Duration = Duration::from_secs(150);

#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

/// One whole run. `out_root` is `benchmark/out`; the run works in a
/// directory of its own below it and removes that when it is done (the
/// span file of a traced run is kept).
pub fn run_one(spec: RunSpec, out_root: &Path) -> Result<Report, String> {
    let run_dir = out_root.join(format!(
        "run-{}-{}",
        spec.workload.name(),
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&run_dir);
    fs::create_dir_all(&run_dir).map_err(|e| format!("create {}: {e}", run_dir.display()))?;
    let result = run_in(spec, out_root, &run_dir);
    let _ = fs::remove_dir_all(&run_dir);
    result
}

fn run_in(spec: RunSpec, out_root: &Path, run_dir: &Path) -> Result<Report, String> {
    let w = spec.workload;
    let corpus = w.corpus();
    let db_dir = run_dir.join("db");
    let mut report = Report::default();
    let mut lap = Instant::now();

    // Set-up, several times over; the last database built is the one used.
    let mut rounds: Vec<SetupRound> = Vec::new();
    let mut xml = String::new();
    for _ in 0..SETUP_ROUNDS {
        let (text, round) = setup_round(corpus, &db_dir)?;
        xml = text;
        rounds.push(round);
    }
    let totals: Vec<f64> = rounds.iter().map(SetupRound::total_s).collect();
    report.put("setup_s", median(&totals), "s");
    report.lap(&mut lap, "harness_setup_s");
    if spec.traced {
        build_probes(&xml, &rounds, &mut report)?;
        report.lap(&mut lap, "harness_build_probes_s");
    }

    let expected = Expected::from_oracle(&xml, &w.fixed_queries(), corpus)?;
    let expect_file = run_dir.join("expect.tsv");
    expected.save(&expect_file)?;
    describe(spec, corpus, &db_dir, &xml, &expected, &mut report)?;
    drop(xml);
    report.lap(&mut lap, "harness_oracle_s");

    let trace_file = out_root.join(format!("trace-{}.jsonl", w.name()));
    let child_report = run_child(spec, &db_dir, &expect_file, run_dir, &trace_file)?;
    report.absorb(child_report);
    report.lap(&mut lap, "harness_child_s");

    after_child(spec, &db_dir, run_dir, &expected, &mut report)?;
    report.lap(&mut lap, "harness_after_child_s");
    contract_view(w, &mut report);
    Ok(report)
}

/// `xml.parse_mb_s`, `build.struct_s`, `build.index_s`: where set-up time
/// goes, from public calls on the same document.
fn build_probes(xml: &str, rounds: &[SetupRound], report: &mut Report) -> Result<(), String> {
    let t = Instant::now();
    let mut events = 0u64;
    for ev in nok_xml::Reader::content_only(xml) {
        ev.map_err(|e| format!("parse: {e}"))?;
        events += 1;
    }
    let parse_s = t.elapsed().as_secs_f64();
    report.put("xml.parse_mb_s", xml.len() as f64 / 1e6 / parse_s, "MB/s");
    report.note("xml_events", events);

    let t = Instant::now();
    let store = StructStore::build(
        Arc::new(BufferPool::new(MemStorage::new())),
        nok_xml::Reader::content_only(xml),
        &mut TagDict::new(),
        BuildOptions::default(),
        &mut (),
    )
    .map_err(|e| format!("structure build: {e}"))?;
    let struct_s = t.elapsed().as_secs_f64();
    drop(store);
    report.put("build.struct_s", struct_s, "s");
    // The rest of `create_on_disk`: the three B+ trees, the value file, the
    // synopsis, and writing all of it out.
    let create: Vec<f64> = rounds.iter().map(|r| r.create_s + r.flush_s).collect();
    report.put("build.index_s", (median(&create) - struct_s).max(0.0), "s");
    Ok(())
}

/// Notes that make the numbers interpretable: host, load shape, shipped
/// defaults, and how the corpus sits against each pool.
fn describe(
    spec: RunSpec,
    corpus: Corpus,
    db_dir: &Path,
    xml: &str,
    expected: &Expected,
    report: &mut Report,
) -> Result<(), String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.note("workload", spec.workload.name());
    report.note("seed", spec.seed);
    report.note("seconds", spec.seconds);
    report.note("traced", spec.traced);
    report.note("git_commit", git_commit());
    report.note("nproc", cores);
    report.note("clients", client_count());
    report.note("workers", service_config().workers);
    report.note(
        "default_backend",
        format!("{:?}", BuildOptions::default().backend),
    );
    report.note("page_size", nok_pager::DEFAULT_PAGE_SIZE);
    report.note("struct_pool_frames", SERVE_POOL_FRAMES);
    report.note(
        "index_pool_frames",
        BufferPool::<FileStorage>::DEFAULT_CAPACITY,
    );
    report.note("filesystem", fs_type(db_dir));
    report.note(
        "caveat",
        "sandbox: reads come from the OS cache and fsync may be cheap; \
         latencies are the sandbox's, counts are the device's",
    );

    let db = XmlDb::open_dir(db_dir).map_err(|e| format!("open_dir: {e}"))?;
    report.note("corpus", corpus.name());
    report.note("corpus_xml_bytes", xml.len());
    report.note("corpus_nodes", db.node_count());
    let fits = |pages: u32, frames: usize| {
        let verdict = if pages as usize <= frames {
            "fits"
        } else {
            "does not fit"
        };
        format!("{pages} pages, {verdict} {frames} frames")
    };
    report.note(
        "struct.pg",
        fits(db.store().page_count(), SERVE_POOL_FRAMES),
    );
    for (name, tree) in [
        ("tags.idx", db.bt_tag()),
        ("values.idx", db.bt_val()),
        ("dewey.idx", db.bt_id()),
    ] {
        report.note(name, fits(tree.pool().page_count(), tree.pool().capacity()));
    }
    let stream = ReadStream::new(
        spec.workload.mix(),
        &expected.fixed,
        &expected.articles,
        spec.seed,
    );
    report.note("sequence_hash", sequence_hash(stream, 1000));
    Ok(())
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Start this program again as the measured process and wait for it.
fn run_child(
    spec: RunSpec,
    db_dir: &Path,
    expect_file: &Path,
    run_dir: &Path,
    trace_file: &Path,
) -> Result<Report, String> {
    let report_file = run_dir.join("child.json");
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .arg("child")
        .args(["--workload", spec.workload.name()])
        .args(["--seed", &spec.seed.to_string()])
        .args(["--seconds", &spec.seconds.to_string()])
        .args(["--trace", if spec.traced { "1" } else { "0" }])
        .arg("--dir")
        .arg(db_dir)
        .arg("--expect")
        .arg(expect_file)
        .arg("--report")
        .arg(&report_file)
        .arg("--trace-file")
        .arg(trace_file)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn child: {e}"))?;
    let began = Instant::now();
    let status = loop {
        match child.try_wait().map_err(|e| format!("wait child: {e}"))? {
            Some(status) => break status,
            None if began.elapsed() > CHILD_DEADLINE => {
                let _ = child.kill();
                let _ = child.wait();
                return Err("the measured process ran past its deadline".into());
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    if !status.success() {
        return Err(format!("the measured process failed: {status}"));
    }
    Report::load(&report_file)
}

/// Open copies of the directory the child left, the way a restart would:
/// `reopen_ms`, bytes per node, and — where the child wrote — that every
/// acknowledged commit survived and the recovered store verifies clean.
fn after_child(
    spec: RunSpec,
    db_dir: &Path,
    run_dir: &Path,
    expected: &Expected,
    report: &mut Report,
) -> Result<(), String> {
    // All the copies first, so that no open is timed beside a copy.
    let copies: Vec<PathBuf> = (0..REOPEN_COPIES)
        .map(|i| run_dir.join(format!("reopen-{i}")))
        .collect();
    for copy in &copies {
        copy_dir(db_dir, copy).map_err(|e| format!("copy database: {e}"))?;
    }
    let mut open_ms = Vec::new();
    let mut first: Option<(PathBuf, XmlDb<FileStorage>)> = None;
    for copy in copies {
        let t = Instant::now();
        let db = XmlDb::open_dir_with_capacity(&copy, SERVE_POOL_FRAMES)
            .map_err(|e| format!("reopen: {e}"))?;
        open_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if first.is_none() {
            first = Some((copy, db));
        } else {
            drop(db);
            let _ = fs::remove_dir_all(&copy);
        }
    }
    let (copy, db) = first.ok_or("no reopen copy")?;
    report.note("reopen_ms_each", format!("{open_ms:.1?}"));
    let reopen_ms = median(&open_ms);
    report.put("reopen_ms", reopen_ms, "ms");
    let acked: Option<u64> = report.note_of("acked_commits").and_then(|s| s.parse().ok());
    if acked.is_some() {
        report.put("recover_ms", reopen_ms, "ms");
        report.put("recovery.open_after_exit_ms", reopen_ms, "ms");
    } else {
        report.put("recovery.open_clean_ms", reopen_ms, "ms");
    }
    if let Some(r) = db.recovery_report() {
        report.put("recovery.replayed_txns", r.replayed_txns as f64, "count");
        report.note("recovery_pages_applied", r.pages_applied);
    }
    let bytes = dir_bytes(&copy).map_err(|e| format!("size of database: {e}"))?;
    report.put(
        "disk_bytes_per_node",
        bytes as f64 / db.node_count() as f64,
        "B/node",
    );
    report.note("disk_bytes", bytes);
    report.note("nodes_at_end", db.node_count());

    if spec.traced || acked.is_some() {
        let t = Instant::now();
        let verdict = verify_db(&db, VerifyOptions::strict());
        report.note("verify_s", t.elapsed().as_secs_f64());
        report.put(
            "verify.strict_violations",
            verdict.violations.len() as f64,
            "count",
        );
        report.count(1, u64::from(!verdict.is_clean()));
    }
    if let Some(acked) = acked {
        let db = Arc::new(db);
        let (checked, lost) = check_commits(&db, spec.workload.corpus(), acked, expected)?;
        report.note("commit_keys_checked", checked);
        report.note("commit_keys_wrong", lost);
        report.count(checked, lost);
    }
    Ok(())
}

/// Over the wire, against the recovered copy: every key an acknowledged
/// insert left behind is found, every deleted one is gone.
fn check_commits(
    db: &Arc<XmlDb<FileStorage>>,
    corpus: Corpus,
    acked: u64,
    expected: &Expected,
) -> Result<(u64, u64), String> {
    let svc = Arc::new(QueryService::start(Arc::clone(db), service_config()));
    let host = Host::start(Arc::clone(&svc)).map_err(|e| format!("listen: {e}"))?;
    let mut client = host.connect().map_err(|e| format!("connect: {e}"))?;
    let (present, absent) = storm_outcome(acked);
    let mut wrong = 0u64;
    let mut id = 0u64;
    for (keys, count) in [(&present, 1u32), (&absent, 0u32)] {
        for key in keys {
            id += 1;
            let op = ReadOp {
                path: corpus.record_lookup(key),
                expect: Expect::Count(count),
            };
            let resp = roundtrip(&mut client, id, &op.path)?;
            if !answer_is_correct(&resp, &op, expected) {
                wrong += 1;
            }
        }
    }
    drop(client);
    host.stop();
    Ok((id, wrong))
}

/// The metrics every workload reports under one name, whatever its
/// operation is: a read, a restart cycle, or a commit.
fn contract_view(w: Workload, report: &mut Report) {
    let (rate, p50, tail, scale) = match w {
        Workload::PointRead | Workload::ScanRead | Workload::MixedRw => {
            ("read_qps", "read_p50_us", "read_p95_us", 1.0)
        }
        Workload::UpdateStorm => ("commit_per_s", "commit_p50_us", "commit_p95_us", 1.0),
        Workload::ColdDeep => (
            "restart_cycles_per_s",
            "restart_to_answer_ms",
            "restart_to_answer_p75_ms",
            1000.0,
        ),
    };
    // A traced run has no timed window and so none of these.
    let (Some(rate), Some(p50), Some(tail)) = (report.get(rate), report.get(p50), report.get(tail))
    else {
        return;
    };
    report.put("ops_per_s", rate, "1/s");
    report.put("op_p50_us", p50 * scale, "us");
    report.put("op_tail_us", tail * scale, "us");
    let failed = report.failed as f64 / report.attempted.max(1) as f64;
    report.put("fail_share", failed, "share");
}
