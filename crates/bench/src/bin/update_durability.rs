//! Recovery walkthrough: crash a scripted update workload at a chosen
//! mutating I/O and leave the directory for a reopen to recover.
//!
//! ```text
//! cargo run -p nok-bench --release --bin update_durability -- \
//!     --crash-at-io 40 --dir /tmp/nok-crash-demo [--ops 200]
//! nokfsck --strict /tmp/nok-crash-demo/crash   # recovers, then verifies
//! ```
//!
//! The database is opened behind a fault-injection plan that kills the
//! process's I/O at the K-th mutating operation — and, as a power cut
//! would, drops what was written but never synced. What durability costs
//! per commit is nokbench's `wal.durable_extra_us`.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use nok_bench::Args;
use nok_core::{Dewey, XmlDb};
use nok_pager::{FailPlan, FailpointStorage, FileStorage};

fn main() {
    if let Err(e) = run() {
        eprintln!("update_durability: {e}");
        std::process::exit(1);
    }
}

/// Initial document: enough items that early deletes never drain it.
fn initial_doc(items: usize) -> String {
    let mut s = String::from("<list>");
    for i in 0..items {
        s.push_str(&format!("<item><name>n{i}</name><val>v{i}</val></item>"));
    }
    s.push_str("</list>");
    s
}

/// One scripted update op: every third op deletes the first item, the rest
/// append a fresh one.
fn apply_op<S: nok_pager::Storage>(db: &mut XmlDb<S>, i: usize) -> Result<(), String> {
    if i % 3 == 2 {
        db.delete_subtree(&Dewey::from_components(vec![0, 0]))
            .map_err(|e| format!("op {i} (delete): {e}"))?;
    } else {
        db.insert_last_child(
            &Dewey::root(),
            &format!(
                "<item><name>n{}</name><val>v{}</val></item>",
                1000 + i,
                1000 + i
            ),
        )
        .map_err(|e| format!("op {i} (insert): {e}"))?;
    }
    Ok(())
}

/// Run the workload with every mutating I/O counted, dying at the `k`-th.
fn crash_at(dir: &Path, ops: usize, k: u64) -> Result<(), String> {
    std::fs::remove_dir_all(dir).ok();
    drop(XmlDb::create_on_disk(dir, &initial_doc(ops)).map_err(|e| format!("create: {e}"))?);
    let plan = FailPlan::at(k);
    let wrap_plan = Arc::clone(&plan);
    let mut db = XmlDb::<FailpointStorage<FileStorage>>::open_dir_with(dir, 256, move |s| {
        FailpointStorage::new(s, Arc::clone(&wrap_plan))
    })
    .map_err(|e| format!("open: {e}"))?;
    db.set_failpoint(Arc::clone(&plan));
    for i in 0..ops {
        if let Err(e) = apply_op(&mut db, i) {
            println!(
                "simulated crash at mutating I/O #{k} during op {i}: {e}\n\
                 torn database left at {} — reopen (nokfsck, nokd, or \
                 XmlDb::open_dir) to recover",
                dir.display()
            );
            return Ok(());
        }
    }
    Err(format!(
        "failpoint {k} never tripped: the workload issued only {} mutating I/Os",
        plan.count()
    ))
}

fn run() -> Result<(), String> {
    let args = Args::parse();
    let int = |name: &str| -> Result<Option<u64>, String> {
        args.get(name)
            .map(|s| {
                s.parse()
                    .map_err(|_| format!("--{name} must be an integer"))
            })
            .transpose()
    };
    let ops = int("ops")?.unwrap_or(200) as usize;
    let k = int("crash-at-io")?.ok_or("--crash-at-io K is required")?;
    let base: PathBuf = match args.get("dir") {
        Some(d) => PathBuf::from(d),
        None => std::env::temp_dir().join(format!("nok-wal-bench-{}", std::process::id())),
    };
    std::fs::create_dir_all(&base).map_err(|e| format!("create {}: {e}", base.display()))?;
    crash_at(&base.join("crash"), ops, k)
}
