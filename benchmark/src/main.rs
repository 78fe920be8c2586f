//! `nokbench`: the benchmark of the NoK query server. See `README.md`.
//!
//! ```text
//! nokbench --workload W --seed N --seconds S --trace 0|1   one run; last line is its result
//! nokbench [--seed N] [--seconds S] [--trace 0|1] [--repeat N]
//!                                    every workload, timed and traced; writes out/results.json
//! ```
//!
//! Run from the repository root (as `run.sh` does): `BENCHMARK.json` is read
//! from, and `benchmark/out/` written in, the current directory.

mod corpus;
mod harness;
mod json;
mod ops;
mod probes;
mod report;
mod sched;
mod server;
mod stats;
mod timed;
mod trace;
mod traced;
mod util;
mod workload;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use corpus::Expected;
use harness::{run_one, RunSpec};
use json::Json;
use report::{metric_json, Report};
use stats::{median, quartile_spread};
use timed::ChildCtx;
use workload::Workload;

const OUT_DIR: &str = "benchmark/out";
const BENCHMARK_JSON: &str = "BENCHMARK.json";

/// Layer metrics that are counts of work done, not times: with one client
/// and fixed request counts they must come out the same on every run.
const EXACT_COUNTS: [&str; 6] = [
    "io.mutating_ops_per_commit",
    "io.write_syscalls_per_commit",
    "store.pages",
    "store.struct_bytes_per_node",
    "exec.entries_per_match",
    "exec.start_points_per_match",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("child") {
        child(&Flags::parse(&args[1..]))
    } else {
        parent(&Flags::parse(&args))
    };
    match result {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("nokbench: {e}");
            std::process::exit(2);
        }
    }
}

/// `--key value` pairs.
struct Flags(BTreeMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> Flags {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                map.insert(key.to_string(), it.next().cloned().unwrap_or_default());
            }
        }
        Flags(map)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key)
            .map(|s| s.parse().map_err(|_| format!("--{key}: bad value `{s}`")))
            .transpose()
    }

    fn path(&self, key: &str) -> Result<PathBuf, String> {
        self.get(key)
            .map(PathBuf::from)
            .ok_or_else(|| format!("--{key} is required"))
    }

    fn workload(&self) -> Result<Option<Workload>, String> {
        self.get("workload")
            .map(|n| Workload::from_name(n).ok_or_else(|| format!("unknown workload `{n}`")))
            .transpose()
    }

    fn traced(&self) -> Result<Option<bool>, String> {
        match self.get("trace") {
            None => Ok(None),
            Some("0") => Ok(Some(false)),
            Some("1") => Ok(Some(true)),
            Some(other) => Err(format!("--trace takes 0 or 1, not `{other}`")),
        }
    }
}

/// The measured process: do the workload, write the report, and leave
/// without flushing or dropping anything.
fn child(flags: &Flags) -> Result<i32, String> {
    let expected = Expected::load(&flags.path("expect")?)?;
    let dir = flags.path("dir")?;
    let trace_file = flags.path("trace-file")?;
    let ctx = ChildCtx {
        workload: flags.workload()?.ok_or("--workload is required")?,
        dir: &dir,
        expected: &expected,
        seed: flags.num("seed")?.unwrap_or(1),
        seconds: flags.num("seconds")?.ok_or("--seconds is required")?,
        trace_file: &trace_file,
    };
    let mut report = if flags.traced()?.unwrap_or(false) {
        traced::run(&ctx)?
    } else {
        timed::run(&ctx)?
    };
    report.put("peak_rss_mib", util::vm_hwm_kib() as f64 / 1024.0, "MiB");
    report.save(&flags.path("report")?)?;
    std::process::exit(0);
}

/// The benchmark's contract file: which metrics a run prints, their units
/// and bounds, and how long a run measures.
struct Contract(Json);

impl Contract {
    fn load() -> Result<Contract, String> {
        let text = fs::read_to_string(BENCHMARK_JSON)
            .map_err(|e| format!("read {BENCHMARK_JSON} (run from the repository root): {e}"))?;
        Ok(Contract(Json::parse(&text)?))
    }

    fn run_seconds(&self) -> Result<f64, String> {
        self.0
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{BENCHMARK_JSON}: no run_seconds"))
    }

    /// `(name, unit, bound)` of every metric in `end_to_end` or `per_layer`.
    fn metrics(&self, section: &str) -> Result<Vec<(String, String, Option<f64>)>, String> {
        let list = self
            .0
            .get(section)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{BENCHMARK_JSON}: no {section}"))?;
        list.iter()
            .map(|m| {
                let name = m.get("name").and_then(Json::as_str);
                let unit = m.get("unit").and_then(Json::as_str);
                match (name, unit) {
                    (Some(n), Some(u)) => Ok((
                        n.to_string(),
                        u.to_string(),
                        m.get("bound").and_then(Json::as_f64),
                    )),
                    _ => Err(format!(
                        "{BENCHMARK_JSON}: a {section} metric lacks name or unit"
                    )),
                }
            })
            .collect()
    }

    /// The one-line result of a run: exactly the metrics the contract lists
    /// for its kind, each with the unit the contract gives it.
    fn result_line(&self, report: &Report, traced: bool) -> Result<String, String> {
        let section = if traced { "per_layer" } else { "end_to_end" };
        let mut metrics = Vec::new();
        for (name, unit, _) in self.metrics(section)? {
            let (_, value, measured_unit) = report
                .metrics
                .iter()
                .find(|m| m.0 == name)
                .ok_or_else(|| format!("the run did not measure `{name}`"))?;
            if *measured_unit != unit {
                return Err(format!(
                    "`{name}` was measured in {measured_unit}, {BENCHMARK_JSON} says {unit}"
                ));
            }
            if !value.is_finite() {
                return Err(format!("`{name}` is not a number"));
            }
            metrics.push((name, metric_json(*value, &unit)));
        }
        Ok(Json::obj(vec![
            ("correct", Json::Bool(report.failed == 0)),
            ("attempted", Json::Num(report.attempted as f64)),
            ("failed", Json::Num(report.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render())
    }
}

fn print_report(report: &Report) {
    for (key, value) in &report.notes {
        println!("  # {key}: {value}");
    }
    for (name, value, unit) in &report.metrics {
        println!("  {name:<36} {value:>16.4} {unit}");
    }
    println!(
        "  {:<36} {:>16} of {} attempted",
        "failed", report.failed, report.attempted
    );
}

fn parent(flags: &Flags) -> Result<i32, String> {
    let contract = Contract::load()?;
    let seed: u64 = flags.num("seed")?.unwrap_or(1);
    let seconds: f64 = match flags.num("seconds")? {
        Some(s) => s,
        None => contract.run_seconds()?,
    };
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let out_root = Path::new(OUT_DIR);
    fs::create_dir_all(out_root).map_err(|e| format!("create {OUT_DIR}: {e}"))?;

    if let Some(workload) = flags.workload()? {
        // One run, as the driver asks for it.
        let traced = flags.traced()?.unwrap_or(false);
        let spec = RunSpec {
            workload,
            seed,
            seconds,
            traced,
        };
        let report = run_one(spec, out_root)?;
        println!(
            "{} seed={seed} seconds={seconds} trace={}",
            workload.name(),
            u8::from(traced)
        );
        print_report(&report);
        println!("{}", contract.result_line(&report, traced)?);
        return Ok(0);
    }

    let kinds: Vec<bool> = match flags.traced()? {
        Some(t) => vec![t],
        None => vec![false, true],
    };
    let repeat: usize = flags.num("repeat")?.unwrap_or(1).max(1);
    let mut sets: Vec<BTreeMap<(Workload, bool), Report>> = Vec::new();
    for set in 0..repeat {
        let mut reports = BTreeMap::new();
        for workload in Workload::ALL {
            for &traced in &kinds {
                let spec = RunSpec {
                    workload,
                    seed,
                    seconds,
                    traced,
                };
                println!(
                    "set {}/{repeat}: {} seed={seed} seconds={seconds} trace={}",
                    set + 1,
                    workload.name(),
                    u8::from(traced)
                );
                let report = run_one(spec, out_root)?;
                print_report(&report);
                // Fails here, not in a later set, if a listed metric is missing.
                contract.result_line(&report, traced)?;
                reports.insert((workload, traced), report);
            }
        }
        sets.push(reports);
    }
    let results = out_root.join("results.json");
    fs::write(&results, results_json(&sets).render())
        .map_err(|e| format!("write {}: {e}", results.display()))?;
    println!("wrote {}", results.display());

    let failed: u64 = sets.iter().flat_map(|s| s.values()).map(|r| r.failed).sum();
    let mut code = 0;
    if failed > 0 {
        println!("FAILED: {failed} operation(s) failed or answered wrongly");
        code = 1;
    }
    if repeat > 1 && !sets_agree(&sets, &contract)? {
        code = 1;
    }
    Ok(code)
}

/// `results.json`: per workload, the end-to-end metrics of the timed run
/// (names without a dot), the per-layer metrics of both runs (names with
/// one; the timed run's value wins where both measured it), and the notes.
/// With `--repeat`, the last set; every set's end-to-end values are listed
/// under `sets`.
fn results_json(sets: &[BTreeMap<(Workload, bool), Report>]) -> Json {
    let Some(last) = sets.last() else {
        return Json::Null;
    };
    let mut workloads = Vec::new();
    for w in Workload::ALL {
        let timed = last.get(&(w, false));
        let traced = last.get(&(w, true));
        let mut layers = Report::default();
        for r in [traced, timed].into_iter().flatten() {
            for (name, value, unit) in r.metrics.iter().filter(|m| m.0.contains('.')) {
                layers.put(name, *value, unit);
            }
        }
        let mut end_to_end = Report::default();
        if let Some(r) = timed {
            for (name, value, unit) in r.metrics.iter().filter(|m| !m.0.contains('.')) {
                end_to_end.put(name, *value, unit);
            }
        }
        let notes = |r: Option<&Report>| r.map_or(Json::Null, Report::notes_json);
        let every_set: Vec<Json> = sets
            .iter()
            .filter_map(|s| s.get(&(w, false)))
            .map(|r| {
                Json::Obj(
                    r.metrics
                        .iter()
                        .filter(|m| !m.0.contains('.'))
                        .map(|m| (m.0.clone(), Json::Num(m.1)))
                        .collect(),
                )
            })
            .collect();
        workloads.push((
            w.name(),
            Json::obj(vec![
                ("end_to_end", end_to_end.metrics_json()),
                ("per_layer", layers.metrics_json()),
                (
                    "attempted",
                    Json::Num(timed.map_or(0, |r| r.attempted) as f64),
                ),
                ("failed", Json::Num(timed.map_or(0, |r| r.failed) as f64)),
                ("timed_notes", notes(timed)),
                ("traced_notes", notes(traced)),
                ("sets", Json::Arr(every_set)),
            ]),
        ));
    }
    Json::obj(vec![("workloads", Json::obj(workloads))])
}

/// Do the sets of a `--repeat` run agree? Every end-to-end metric must stay
/// within its bound between the best and the worst set, and the exact
/// counts must not differ at all.
fn sets_agree(
    sets: &[BTreeMap<(Workload, bool), Report>],
    contract: &Contract,
) -> Result<bool, String> {
    let mut agree = true;
    println!("repeatability over {} sets:", sets.len());
    for w in Workload::ALL {
        for (name, unit, bound) in contract.metrics("end_to_end")? {
            let values: Vec<f64> = sets
                .iter()
                .filter_map(|s| s.get(&(w, false)).and_then(|r| r.get(&name)))
                .collect();
            if values.len() < 2 {
                continue;
            }
            let mid = median(&values);
            let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let spread = (hi - lo) / mid.abs().max(f64::MIN_POSITIVE);
            let bound = bound.unwrap_or(0.0);
            let ok = spread <= bound;
            agree &= ok;
            println!(
                "  {:<13} {name:<22} median {mid:>14.4} {unit:<7} range {:>6.2}% quartiles {:>6.2}% \
                 bound {:>5.1}% {}",
                w.name(),
                spread * 100.0,
                quartile_spread(&values) * 100.0,
                bound * 100.0,
                if ok { "ok" } else { "EXCEEDED" }
            );
        }
        for name in EXACT_COUNTS {
            let values: Vec<f64> = sets
                .iter()
                .filter_map(|s| s.get(&(w, true)).and_then(|r| r.get(name)))
                .collect();
            if values.len() < 2 {
                continue;
            }
            let same = values.iter().all(|v| *v == values[0]);
            agree &= same;
            println!(
                "  {:<13} {name:<36} {} {}",
                w.name(),
                values[0],
                if same { "identical" } else { "DIFFERS" }
            );
        }
    }
    Ok(agree)
}
