//! Fault-injection harness for crash-safe updates.
//!
//! The pager's [`FailPlan`] counts every mutating I/O (page writes, file
//! syncs, truncations, WAL appends, data-file appends) a scripted update
//! workload performs, then the sweep re-runs the workload once per k with
//! the plan set to trip at the k-th operation. A tripped plan fails that
//! operation *and every mutating operation after it* — the process is
//! effectively dead from that instant. The harness then reopens the
//! directory (which runs crash recovery) and demands two things:
//!
//! 1. `verify_db(strict)` reports zero violations (including the
//!    `synopsis-path-count-mismatch` recount of the path summary),
//! 2. the query results equal the Naive oracle evaluated on the last
//!    committed document state, and
//! 3. the synopsis path counts match that state exactly — the planner
//!    never sees a stale summary after recovery.
//!
//! The only ambiguity is a crash *after* a transaction's commit record is
//! fsynced but before its pages are applied: the transaction is durable,
//! so recovery replays it. The harness therefore accepts either the state
//! before or after the in-flight operation — but whichever it is, every
//! query must agree on it.
//!
//! By default the sweep probes up to [`DEFAULT_SWEEP`] evenly spaced k
//! values (always including the first and last); set `NOK_FAILPOINT_FULL=1`
//! to sweep every k.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use nok_core::naive::NaiveEvaluator;
use nok_core::{Dewey, XmlDb};
use nok_pager::{FailPlan, FailpointStorage, FileStorage};
use nok_verify::{verify_db, VerifyOptions};
use nok_xml::Document;

/// Sweep size when `NOK_FAILPOINT_FULL` is unset.
const DEFAULT_SWEEP: u64 = 60;

/// Queries the recovered database must answer identically to the oracle.
const QUERIES: &[&str] = &["/list/item", "//name", "//val", "/list/item[name]/val"];

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nok-crash-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Copy a flat database directory (fresh destination every time).
fn copy_dir(src: &Path, dst: &Path) {
    std::fs::remove_dir_all(dst).ok();
    std::fs::create_dir_all(dst).expect("create work dir");
    for entry in std::fs::read_dir(src).expect("read src dir") {
        let entry = entry.expect("dir entry");
        std::fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy file");
    }
}

// ---------------------------------------------------------------------
// The scripted workload and its string mirror
// ---------------------------------------------------------------------

type Mirror = Vec<(String, String)>;

fn initial_items() -> Mirror {
    (0..10)
        .map(|i| (format!("n{i}"), format!("v{i}")))
        .collect()
}

fn render(items: &Mirror) -> String {
    let mut s = String::from("<list>");
    for (n, v) in items {
        s.push_str(&format!("<item><name>{n}</name><val>{v}</val></item>"));
    }
    s.push_str("</list>");
    s
}

const OPS: usize = 12;

/// Apply op `i` to the mirror.
fn mirror_op(items: &mut Mirror, i: usize) {
    if i % 3 == 2 && !items.is_empty() {
        items.remove(0);
    } else {
        items.push((format!("n{}", 100 + i), format!("v{}", 100 + i)));
    }
}

/// Apply op `i` to the database. Must mutate exactly like [`mirror_op`].
fn db_op<S: nok_pager::Storage>(
    db: &mut XmlDb<S>,
    i: usize,
    len: usize,
) -> nok_core::CoreResult<()> {
    if i % 3 == 2 && len > 0 {
        db.delete_subtree(&Dewey::from_components(vec![0, 0]))?;
    } else {
        let (n, v) = (format!("n{}", 100 + i), format!("v{}", 100 + i));
        db.insert_last_child(
            &Dewey::root(),
            &format!("<item><name>{n}</name><val>{v}</val></item>"),
        )?;
    }
    Ok(())
}

/// Dewey strings per query from the database under test.
fn db_answers<S: nok_pager::Storage>(db: &XmlDb<S>) -> Vec<Vec<String>> {
    QUERIES
        .iter()
        .map(|q| {
            db.query(q)
                .expect("query on recovered db")
                .iter()
                .map(|m| m.dewey.to_string())
                .collect()
        })
        .collect()
}

/// Dewey strings per query from the Naive oracle on a mirror document.
fn oracle_answers(items: &Mirror) -> Vec<Vec<String>> {
    let xml = render(items);
    let doc = Document::parse(&xml).expect("parse mirror");
    let oracle = NaiveEvaluator::new(&doc);
    QUERIES
        .iter()
        .map(|q| {
            oracle
                .eval_str(q)
                .expect("oracle eval")
                .iter()
                .map(|n| oracle.dewey(n).to_string())
                .collect()
        })
        .collect()
}

fn open_with_failpoint(dir: &Path, plan: &Arc<FailPlan>) -> XmlDb<FailpointStorage<FileStorage>> {
    let p = Arc::clone(plan);
    let mut db = XmlDb::<FailpointStorage<FileStorage>>::open_dir_with(dir, 256, move |s| {
        FailpointStorage::new(s, Arc::clone(&p))
    })
    .expect("open with failpoint");
    db.set_failpoint(Arc::clone(plan));
    db
}

/// Create the pristine database every sweep iteration copies from.
fn make_pristine(tag: &str) -> PathBuf {
    let dir = temp_dir(tag);
    let db = XmlDb::create_on_disk(&dir, &render(&initial_items())).expect("create pristine");
    drop(db);
    dir
}

// ---------------------------------------------------------------------
// The sweep
// ---------------------------------------------------------------------

#[test]
fn every_injected_crash_recovers_clean_and_consistent() {
    let pristine = make_pristine("pristine");

    // Counting pass: how many mutating I/Os does the full workload issue?
    let work = temp_dir("count");
    copy_dir(&pristine, &work);
    let plan = FailPlan::counting();
    {
        let mut db = open_with_failpoint(&work, &plan);
        let mut items = initial_items();
        for i in 0..OPS {
            db_op(&mut db, i, items.len()).expect("workload op without failpoint");
            mirror_op(&mut items, i);
        }
    }
    let total = plan.count();
    assert!(total > 0, "workload must issue mutating I/O");

    // Pick the ks to probe.
    let full = std::env::var("NOK_FAILPOINT_FULL")
        .map(|v| v == "1")
        .unwrap_or(false);
    let ks: Vec<u64> = if full || total <= DEFAULT_SWEEP {
        (1..=total).collect()
    } else {
        // Evenly spaced, always including 1 and `total`.
        (0..DEFAULT_SWEEP)
            .map(|i| 1 + i * (total - 1) / (DEFAULT_SWEEP - 1))
            .collect()
    };

    let work = temp_dir("sweep");
    for &k in &ks {
        copy_dir(&pristine, &work);
        let plan = FailPlan::at(k);

        // Run the workload until the injected crash kills it.
        let mut committed = initial_items();
        let mut in_flight: Option<Mirror> = None;
        {
            let mut db = open_with_failpoint(&work, &plan);
            for i in 0..OPS {
                let mut next = committed.clone();
                mirror_op(&mut next, i);
                match db_op(&mut db, i, committed.len()) {
                    Ok(()) => committed = next,
                    Err(_) => {
                        // Crashed mid-operation. If the commit record made
                        // it to the log, recovery will replay this op.
                        in_flight = Some(next);
                        break;
                    }
                }
            }
        }
        assert!(
            plan.is_tripped() || in_flight.is_none(),
            "k={k}: workload failed without the failpoint tripping"
        );

        // Simulated restart: recovery runs inside open_dir.
        let db = XmlDb::open_dir(&work)
            .unwrap_or_else(|e| panic!("k={k}: reopen after crash failed: {e}"));
        assert!(
            db.recovery_report().is_some(),
            "k={k}: reopen skipped recovery"
        );
        let report = verify_db(&db, VerifyOptions::strict());
        assert!(
            report.is_clean(),
            "k={k}: recovered db fails strict verify: {}",
            report.to_json()
        );

        let got = db_answers(&db);
        let want_pre = oracle_answers(&committed);
        let matched: &Mirror = if got == want_pre {
            &committed
        } else if let Some(post) = &in_flight {
            let want_post = oracle_answers(post);
            assert_eq!(
                got, want_post,
                "k={k}: recovered answers match neither the last committed \
                 state nor the in-flight transaction's state"
            );
            post
        } else {
            panic!("k={k}: answers diverge from the committed state with no op in flight");
        };

        // The text values must agree with the matched state too, not just
        // the structure.
        let hits = db.query("/list/item/name").expect("name query");
        let got_names: Vec<String> = hits
            .iter()
            .map(|m| db.value_of(m).expect("value_of").unwrap_or_default())
            .collect();
        let want_names: Vec<String> = matched.iter().map(|(n, _)| n.clone()).collect();
        assert_eq!(
            got_names, want_names,
            "k={k}: values drifted after recovery"
        );

        // The synopsis path summary must never be stale after recovery.
        // Strict verify above already recounted every trie node's count
        // and residual (`synopsis-path-count-mismatch`,
        // `synopsis-residual-mismatch`); this pins the contract explicitly
        // against the matched state: the document fits the node budget, so
        // nothing is folded, every path lies in the exact region, and the
        // recovered planner sees the true per-path element counts,
        // whichever side of the in-flight transaction recovery landed on.
        let code = |t: &str| {
            db.dict()
                .lookup(t)
                .unwrap_or_else(|| panic!("k={k}: tag `{t}` missing from the dictionary"))
        };
        let (list, item) = (code("list"), code("item"));
        let n = matched.len() as u64;
        let paths = db.synopsis().paths();
        assert_eq!(paths.folded_nodes(), 0, "k={k}: residuals");
        assert_eq!(paths.total_count(), 1 + 3 * n, "k={k}: exact region");
        for (tail, want) in [
            (vec![list], 1),
            (vec![list, item], n),
            (vec![list, item, code("name")], n),
            (vec![list, item, code("val")], n),
        ] {
            assert_eq!(
                paths.exact_count(&tail),
                Some(want),
                "k={k}: synopsis stale after recovery on path {tail:?}"
            );
        }
    }

    std::fs::remove_dir_all(&pristine).ok();
    std::fs::remove_dir_all(&work).ok();
    std::fs::remove_dir_all(temp_dir("count")).ok();
}

// ---------------------------------------------------------------------
// Torn and corrupted log tails
// ---------------------------------------------------------------------

#[test]
fn torn_or_garbage_wal_tails_recover_to_committed_state() {
    // Run the whole workload cleanly: every transaction committed and
    // checkpointed, so the component files alone carry the final state.
    let base = temp_dir("torn-base");
    {
        let mut db = XmlDb::create_on_disk(&base, &render(&initial_items())).expect("create");
        let mut items = initial_items();
        for i in 0..OPS {
            db_op(&mut db, i, items.len()).expect("op");
            mirror_op(&mut items, i);
        }
    }
    let mut final_items = initial_items();
    for i in 0..OPS {
        mirror_op(&mut final_items, i);
    }
    let want = oracle_answers(&final_items);

    let wal_path = base.join("wal.log");
    let wal_len = std::fs::metadata(&wal_path).expect("wal metadata").len();
    assert!(
        wal_len > 8,
        "wal must hold at least its header and baseline"
    );

    let work = temp_dir("torn-work");
    // Truncate the log to every stride-spaced prefix, including cutting
    // into the magic header (a crash during log creation).
    let stride = (wal_len / 24).max(1);
    let mut cuts: Vec<u64> = (0..wal_len).step_by(stride as usize).collect();
    cuts.push(wal_len);
    for cut in cuts {
        copy_dir(&base, &work);
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(work.join("wal.log"))
            .expect("open wal");
        f.set_len(cut).expect("truncate wal");
        drop(f);

        let db = XmlDb::open_dir(&work).unwrap_or_else(|e| panic!("cut={cut}: reopen failed: {e}"));
        let report = verify_db(&db, VerifyOptions::strict());
        assert!(
            report.is_clean(),
            "cut={cut}: strict verify after torn tail: {}",
            report.to_json()
        );
        assert_eq!(db_answers(&db), want, "cut={cut}: answers drifted");
    }

    // A garbage tail (valid-looking length prefix, bogus checksum) must be
    // ignored as an uncommitted torn write.
    copy_dir(&base, &work);
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(work.join("wal.log"))
            .expect("open wal");
        f.write_all(&16u32.to_le_bytes()).expect("len prefix");
        f.write_all(&[0xABu8; 20]).expect("garbage");
    }
    let db = XmlDb::open_dir(&work).expect("reopen with garbage tail");
    let report = verify_db(&db, VerifyOptions::strict());
    assert!(
        report.is_clean(),
        "garbage tail: strict verify: {}",
        report.to_json()
    );
    assert_eq!(db_answers(&db), want, "garbage tail: answers drifted");

    std::fs::remove_dir_all(&base).ok();
    std::fs::remove_dir_all(&work).ok();
}
