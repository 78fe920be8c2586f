//! Navigation-kernel benchmark: indexed cursor primitives (in-page excess
//! search + directory skip index) versus the retained `linear_*` oracles.
//!
//! ```text
//! cargo run -p nok-bench --release --bin nav_bench -- \
//!     [--scale 0.05] [--reps 3] [--out BENCH_nav.json]
//! ```
//!
//! Workloads:
//!
//! * `deepwide_*` — a synthetic document of many top-level siblings each
//!   carrying a deep single-child chain, built at a small page size so both
//!   layers of the navigation index matter. This is the workload the
//!   wall-clock acceptance gates run on: the sibling chain must examine
//!   ≥ 5× fewer entries through the indexed path, and the indexed path must
//!   not be slower than the linear oracle beyond `NS_TOL`.
//! * one sibling-chain / subtree-close / descendant-scan triple per datagen
//!   dataset. Deterministic gates (no workload may load more pages than the
//!   linear oracle) apply here too, but wall-clock comparisons are recorded
//!   as warnings only: real corpora are mostly shallow, and the passes are
//!   microseconds long — a single scheduler preemption outweighs `NS_TOL`.
//!
//! Both variants are measured identically: caches and counters are reset
//! before every repetition, the best wall time is kept, and the counters of
//! the final (cold) pass are reported.

use std::time::Instant;

use nok_bench::Args;
use nok_core::cursor::{
    descendants, first_child, following_sibling, linear_descendants, linear_following_sibling,
    linear_subtree_close, subtree_close,
};
use nok_core::{BuildOptions, CoreResult, NodeAddr, StructStore, TagDict};
use nok_datagen::all_datasets;
use nok_pager::{BufferPool, MemStorage};
use nok_serve::Json;
use nok_xml::Reader;
use std::sync::Arc;

type Store = StructStore<MemStorage>;
type SibFn = fn(&Store, NodeAddr) -> CoreResult<Option<NodeAddr>>;
type CloseFn = fn(&Store, NodeAddr) -> CoreResult<NodeAddr>;

/// Page size for every store in this bench: small enough that deep corpora
/// span many pages, so directory behavior is visible.
const PAGE_SIZE: usize = 256;

/// Noise tolerance for wall-clock gates: best-of-reps timings still jitter,
/// so "not slower" means "within 40%". Shared CI boxes (including
/// single-core ones, where the runner itself competes for the CPU) swing
/// best-of-reps ratios by ±25% between runs; the wall gate exists to catch
/// gross pathologies — an indexed walk that loses outright to the linear
/// scan — while the deterministic gates (entries ratio, page reads) carry
/// the fine-grained regression checks.
const NS_TOL: f64 = 1.4;

fn main() {
    if let Err(e) = run() {
        eprintln!("nav_bench: {e}");
        std::process::exit(1);
    }
}

fn build_store(xml: &str) -> Result<Store, String> {
    let pool = Arc::new(BufferPool::new(MemStorage::with_page_size(PAGE_SIZE)));
    let mut dict = TagDict::new();
    StructStore::build(
        pool,
        Reader::content_only(xml),
        &mut dict,
        BuildOptions::default(),
        &mut (),
    )
    .map_err(|e| format!("build: {e}"))
}

/// The deep/wide gate corpus: `siblings` top-level chains, each `depth`
/// nodes deep, so every sibling hop crosses several mostly-deep pages.
fn deepwide_xml(siblings: usize, depth: usize) -> String {
    let mut xml = String::from("<r>");
    for _ in 0..siblings {
        xml.push_str("<s>");
        for _ in 0..depth {
            xml.push_str("<d>");
        }
        for _ in 0..depth {
            xml.push_str("</d>");
        }
        xml.push_str("</s>");
    }
    xml.push_str("</r>");
    xml
}

#[derive(Clone, Copy, Default)]
struct Measure {
    ns_per_op: f64,
    ops: u64,
    entries: u64,
    dir_entries: u64,
    reads: u64,
}

/// One cold pass of `work`: caches and counters reset, wall time and the
/// pass's counters returned.
fn cold_pass(
    store: &Store,
    work: &dyn Fn(&Store) -> Result<u64, String>,
) -> Result<(f64, Measure), String> {
    store.invalidate_decoded(None);
    store
        .pool()
        .clear_cache()
        .map_err(|e| format!("clear: {e}"))?;
    store.pool().stats().reset();
    let t = Instant::now();
    let ops = work(store)?;
    let ns = t.elapsed().as_nanos() as f64;
    let st = store.pool().stats();
    Ok((
        ns,
        Measure {
            ns_per_op: 0.0,
            ops,
            entries: st.entries_examined(),
            dir_entries: st.dir_entries_examined(),
            reads: st.physical_reads(),
        },
    ))
}

/// Measure the linear and indexed variants of one workload *interleaved*:
/// every rep runs both passes back to back, so a machine-load drift hits
/// both variants equally instead of biasing whichever was measured later.
/// Best wall time per variant is kept; counters come from the
/// (deterministic) final pass.
fn measure_pair(
    store: &Store,
    reps: usize,
    lin: &dyn Fn(&Store) -> Result<u64, String>,
    idx: &dyn Fn(&Store) -> Result<u64, String>,
) -> Result<(Measure, Measure), String> {
    let mut best = [f64::INFINITY; 2];
    let mut meas = [Measure::default(); 2];
    for _ in 0..reps.max(1) {
        for (v, work) in [lin, idx].into_iter().enumerate() {
            let (ns, m) = cold_pass(store, work)?;
            best[v] = best[v].min(ns);
            meas[v] = m;
        }
    }
    for (m, ns) in meas.iter_mut().zip(best) {
        m.ns_per_op = if m.ops == 0 { 0.0 } else { ns / m.ops as f64 };
    }
    Ok((meas[0], meas[1]))
}

fn root_of(store: &Store) -> Result<NodeAddr, String> {
    store.root().ok_or_else(|| "empty store".into())
}

/// Walk the whole top-level sibling chain; ops = hops.
fn sibling_chain(store: &Store, sib: SibFn) -> Result<u64, String> {
    let root = root_of(store)?;
    let mut cur = first_child(store, root)
        .map_err(|e| format!("first_child: {e}"))?
        .ok_or("root has no children")?;
    let mut hops = 0u64;
    while let Some(next) = sib(store, cur).map_err(|e| format!("sibling: {e}"))? {
        cur = next;
        hops += 1;
    }
    Ok(hops)
}

/// Close every top-level record's subtree; ops = records closed.
fn close_records(store: &Store, close: CloseFn, cap: usize) -> Result<u64, String> {
    let root = root_of(store)?;
    let mut cur = first_child(store, root)
        .map_err(|e| format!("first_child: {e}"))?
        .ok_or("root has no children")?;
    let mut ops = 0u64;
    loop {
        close(store, cur).map_err(|e| format!("close: {e}"))?;
        ops += 1;
        if ops as usize >= cap {
            break;
        }
        match following_sibling(store, cur).map_err(|e| format!("sibling: {e}"))? {
            Some(next) => cur = next,
            None => break,
        }
    }
    Ok(ops)
}

/// `//*`-style scan: enumerate every descendant of the root; ops = nodes.
fn descendant_scan(store: &Store, linear: bool) -> Result<u64, String> {
    let root = root_of(store)?;
    let mut n = 0u64;
    if linear {
        for item in linear_descendants(store, root).map_err(|e| format!("descendants: {e}"))? {
            item.map_err(|e| format!("descendants: {e}"))?;
            n += 1;
        }
    } else {
        for item in descendants(store, root).map_err(|e| format!("descendants: {e}"))? {
            item.map_err(|e| format!("descendants: {e}"))?;
            n += 1;
        }
    }
    Ok(n)
}

struct WorkloadResult {
    name: String,
    linear: Measure,
    indexed: Measure,
}

impl WorkloadResult {
    fn entries_ratio(&self) -> f64 {
        if self.indexed.entries == 0 {
            f64::INFINITY
        } else {
            self.linear.entries as f64 / self.indexed.entries as f64
        }
    }

    fn to_json(&self) -> Json {
        let side = |m: &Measure| {
            Json::obj(vec![
                ("ns_per_op", Json::Num((m.ns_per_op * 10.0).round() / 10.0)),
                ("ops", Json::Num(m.ops as f64)),
                ("entries_examined", Json::Num(m.entries as f64)),
                ("dir_entries_examined", Json::Num(m.dir_entries as f64)),
                ("physical_reads", Json::Num(m.reads as f64)),
            ])
        };
        let ratio = self.entries_ratio();
        Json::obj(vec![
            ("workload", Json::Str(self.name.clone())),
            ("linear", side(&self.linear)),
            ("indexed", side(&self.indexed)),
            (
                "entries_ratio",
                Json::Num(if ratio.is_finite() {
                    (ratio * 100.0).round() / 100.0
                } else {
                    -1.0
                }),
            ),
        ])
    }
}

/// Run the three workload kinds on one corpus's store, appending results.
fn run_triple(
    store: &Store,
    label: &str,
    reps: usize,
    close_cap: usize,
    out: &mut Vec<WorkloadResult>,
) -> Result<(), String> {
    let triples: [(
        &str,
        Box<dyn Fn(&Store) -> Result<u64, String>>,
        Box<dyn Fn(&Store) -> Result<u64, String>>,
    ); 3] = [
        (
            "sibling_chain",
            Box::new(|s: &Store| sibling_chain(s, linear_following_sibling)),
            Box::new(|s: &Store| sibling_chain(s, following_sibling)),
        ),
        (
            "subtree_close",
            Box::new(move |s: &Store| close_records(s, linear_subtree_close, close_cap)),
            Box::new(move |s: &Store| close_records(s, subtree_close, close_cap)),
        ),
        (
            "descendant_scan",
            Box::new(|s: &Store| descendant_scan(s, true)),
            Box::new(|s: &Store| descendant_scan(s, false)),
        ),
    ];
    for (suffix, lin, idx) in &triples {
        let (linear, indexed) = measure_pair(store, reps, lin.as_ref(), idx.as_ref())?;
        out.push(WorkloadResult {
            name: format!("{label}_{suffix}"),
            linear,
            indexed,
        });
    }
    Ok(())
}

struct Run {
    /// Header + content bytes across the deepwide gate corpus's chain.
    deepwide_bytes: u64,
    /// Same, summed over the five paper datasets.
    dataset_bytes: u64,
    results: Vec<WorkloadResult>,
}

fn run_all(scale: f64, reps: usize) -> Result<Run, String> {
    let mut results = Vec::new();
    let sbytes = |s: &Store| {
        s.structure_bytes()
            .map_err(|e| format!("structure_bytes: {e}"))
    };

    // Gate corpus.
    let deepwide = build_store(&deepwide_xml(300, 100))?;
    let deepwide_bytes = sbytes(&deepwide)?;
    run_triple(&deepwide, "deepwide", reps, usize::MAX, &mut results)?;
    drop(deepwide);

    // The five paper datasets (reported; gated only on reads and ns/op).
    let mut dataset_bytes = 0u64;
    for ds in all_datasets(scale) {
        let store = build_store(&ds.xml)?;
        dataset_bytes += sbytes(&store)?;
        run_triple(&store, ds.kind.name(), reps, 500, &mut results)?;
    }

    Ok(Run {
        deepwide_bytes,
        dataset_bytes,
        results,
    })
}

fn run() -> Result<(), String> {
    let args = Args::parse();
    let scale = args.scale();
    let reps = args.reps() as usize;
    let out_path = args.get("out").unwrap_or("BENCH_nav.json").to_string();

    let run = run_all(scale, reps)?;

    println!(
        "== structure: deepwide {} B, datasets {} B ==",
        run.deepwide_bytes, run.dataset_bytes
    );
    println!(
        "{:<28} {:>10} {:>10} {:>12} {:>12} {:>7} {:>6} {:>6}",
        "workload",
        "lin ns/op",
        "idx ns/op",
        "lin entries",
        "idx entries",
        "ratio",
        "lin rd",
        "idx rd"
    );
    for r in &run.results {
        println!(
            "{:<28} {:>10.1} {:>10.1} {:>12} {:>12} {:>7.1} {:>6} {:>6}",
            r.name,
            r.linear.ns_per_op,
            r.indexed.ns_per_op,
            r.linear.entries,
            r.indexed.entries,
            r.entries_ratio(),
            r.linear.reads,
            r.indexed.reads,
        );
    }

    // ---- Acceptance gates. Deterministic counters (pages read, entries
    // examined) gate on every workload; wall-clock gates only on the
    // deepwide corpus, whose passes run long enough (tens of milliseconds)
    // to clear scheduler noise. The per-dataset triples time microsecond
    // passes where a single preemption outweighs NS_TOL, so there the same
    // wall-clock checks are recorded as warnings instead. (The structure
    // size gate is an exact unit test in `nok-core::store`.)
    let mut failures = Vec::new();
    let mut warnings = Vec::new();
    for r in &run.results {
        if r.indexed.reads > r.linear.reads {
            failures.push(format!(
                "{}: indexed path loaded more pages ({} > {})",
                r.name, r.indexed.reads, r.linear.reads
            ));
        }
        // The regression this bench previously let through: an indexed
        // walk that wins on entries examined but loses wall-clock.
        if r.indexed.ns_per_op > r.linear.ns_per_op * NS_TOL {
            let msg = format!(
                "{}: indexed slower than linear ({:.1} > {:.1} ns/op)",
                r.name, r.indexed.ns_per_op, r.linear.ns_per_op
            );
            if r.name.starts_with("deepwide") {
                failures.push(msg);
            } else {
                warnings.push(msg);
            }
        }
    }
    match run
        .results
        .iter()
        .find(|r| r.name == "deepwide_sibling_chain")
    {
        Some(r) if r.entries_ratio() < 5.0 => failures.push(format!(
            "deepwide_sibling_chain: entries ratio {:.2} < 5.0 (linear={} indexed={})",
            r.entries_ratio(),
            r.linear.entries,
            r.indexed.entries
        )),
        Some(_) => {}
        None => failures.push("deepwide_sibling_chain workload missing".into()),
    }

    let report = Json::obj(vec![
        ("bench", Json::Str("nav".into())),
        ("scale", Json::Num(scale)),
        ("reps", Json::Num(reps as f64)),
        ("page_size", Json::Num(PAGE_SIZE as f64)),
        ("structure_bytes", Json::Num(run.deepwide_bytes as f64)),
        (
            "dataset_structure_bytes",
            Json::Num(run.dataset_bytes as f64),
        ),
        (
            "workloads",
            Json::Arr(run.results.iter().map(|r| r.to_json()).collect()),
        ),
        (
            "wall_warnings",
            Json::Arr(warnings.iter().map(|w| Json::Str(w.clone())).collect()),
        ),
        ("gates_passed", Json::Bool(failures.is_empty())),
    ]);
    std::fs::write(&out_path, format!("{}\n", report.to_string_compact()))
        .map_err(|e| format!("write {out_path}: {e}"))?;
    println!("wrote {out_path}");
    for w in &warnings {
        println!("nav_bench warning (not gated): {w}");
    }

    if !failures.is_empty() {
        return Err(failures.join("; "));
    }
    Ok(())
}
