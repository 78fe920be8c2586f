//! Fault-injection harness for crash-safe updates.
//!
//! The pager's [`FailPlan`] counts every mutating I/O (page writes, file
//! syncs, truncations, WAL appends) a scripted update
//! workload performs, then the sweep re-runs the workload once per k with
//! the plan set to trip at the k-th operation. A tripped plan fails that
//! operation *and every mutating operation after it* — the process is
//! effectively dead from that instant — and, as a power cut would, takes
//! with it everything written since the file's last successful sync: a
//! commit syncs nothing but the log, so what recovery finds in the home
//! files is what the last checkpoint left. The workload is long enough to
//! checkpoint twice (one `flush()` midway, one forced by the size of the
//! log), and every k inside those two is probed. The harness then reopens
//! the directory (which runs crash recovery) and demands three things:
//!
//! 1. `verify_db(strict)` reports zero violations (including the
//!    `synopsis-path-count-mismatch` recount of the path summary),
//! 2. the query results equal the Naive oracle evaluated on the last
//!    committed document state, and
//! 3. the synopsis path counts match that state exactly — the planner
//!    never sees a stale summary after recovery.
//!
//! The only ambiguity is a crash *after* a transaction's commit record is
//! fsynced but before the operation returns: the transaction is durable,
//! so recovery replays it. The harness therefore accepts either the state
//! before or after the in-flight operation — but whichever it is, every
//! query must agree on it.
//!
//! By default the sweep probes up to [`DEFAULT_SWEEP`] evenly spaced k
//! values (always including the first and last) beside the checkpoints'
//! own; set `NOK_FAILPOINT_FULL=1` to sweep every k.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
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

/// Operations in the sweep's script. Every insert stores a value of
/// [`VAL_BYTES`], which its log record carries as data-file page images: the
/// ~30 inserts after [`FLUSH_AFTER`] outgrow the checkpoint threshold
/// (1 MiB) once.
const OPS: usize = 60;

/// Size of the `val` text of every inserted item.
const VAL_BYTES: usize = 40 << 10;

/// The sweep calls `flush()` after this many operations.
const FLUSH_AFTER: usize = 15;

/// Operations the torn-tail test commits before the one it tears.
const TORN_OPS: usize = 12;

/// The `name` and `val` texts op `i` inserts (a unique multi-KiB `val`).
fn item_of(i: usize) -> (String, String) {
    let pad = char::from(b'a' + (i % 26) as u8);
    let val = format!("v{}-{}", 100 + i, pad.to_string().repeat(VAL_BYTES));
    (format!("n{}", 100 + i), val)
}

/// Apply op `i` to the mirror.
fn mirror_op(items: &mut Mirror, i: usize) {
    if i % 3 == 2 && !items.is_empty() {
        items.remove(0);
    } else {
        items.push(item_of(i));
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
        let (n, v) = item_of(i);
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
    // It also finds the steps that checkpoint (the log is shorter after
    // them than before): the midway flush, and the commit that finds the
    // log past the threshold. Every k inside those steps is probed.
    let plan = FailPlan::counting();
    let mut in_checkpoints: Vec<u64> = Vec::new();
    let mut checkpoints = 0;
    {
        let mut db = open_with_failpoint(&work, &plan);
        let mut items = initial_items();
        let wal_len = || std::fs::metadata(work.join("wal.log")).expect("wal").len();
        for i in 0..OPS {
            let (k0, len0) = (plan.count(), wal_len());
            if i == FLUSH_AFTER {
                db.flush().expect("flush without failpoint");
            }
            db_op(&mut db, i, items.len()).expect("workload op without failpoint");
            mirror_op(&mut items, i);
            if wal_len() < len0 || i == FLUSH_AFTER {
                in_checkpoints.extend(k0 + 1..=plan.count());
                checkpoints += 1;
            }
        }
    }
    let total = plan.count();
    assert!(total > 0, "workload must issue mutating I/O");
    assert!(
        checkpoints >= 2,
        "the script must outgrow the checkpoint threshold after its flush"
    );

    // Pick the ks to probe.
    let full = std::env::var("NOK_FAILPOINT_FULL")
        .map(|v| v == "1")
        .unwrap_or(false);
    let mut ks: Vec<u64> = if full || total <= DEFAULT_SWEEP {
        (1..=total).collect()
    } else {
        // Evenly spaced, always including 1 and `total`.
        (0..DEFAULT_SWEEP)
            .map(|i| 1 + i * (total - 1) / (DEFAULT_SWEEP - 1))
            .collect()
    };
    ks.extend(in_checkpoints);
    ks.sort_unstable();
    ks.dedup();

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
                // A crash inside the flush has no operation in flight.
                if i == FLUSH_AFTER && db.flush().is_err() {
                    break;
                }
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

/// Reopen `dir` (recovery runs), demand a strict-clean store, and return
/// its answers.
fn recovered_answers(dir: &Path, what: &str) -> Vec<Vec<String>> {
    let db = XmlDb::open_dir(dir).unwrap_or_else(|e| panic!("{what}: reopen failed: {e}"));
    let report = verify_db(&db, VerifyOptions::strict());
    assert!(
        report.is_clean(),
        "{what}: strict verify: {}",
        report.to_json()
    );
    db_answers(&db)
}

fn cut_file(path: &Path, len: u64) {
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .expect("open wal");
    f.set_len(len).expect("truncate wal");
}

#[test]
fn torn_or_garbage_wal_tails_recover_to_committed_state() {
    // Commit the script and exit without flush: the log holds every
    // transaction, the home files whatever was written back. `before` is
    // the directory as it stood when the last operation began.
    let base = temp_dir("torn-base");
    let before = temp_dir("torn-before");
    let wal_len = |dir: &Path| std::fs::metadata(dir.join("wal.log")).expect("wal").len();
    let mut items = initial_items();
    {
        let mut db = XmlDb::create_on_disk(&base, &render(&items)).expect("create");
        for i in 0..TORN_OPS {
            db_op(&mut db, i, items.len()).expect("op");
            mirror_op(&mut items, i);
        }
        copy_dir(&base, &before);
        db_op(&mut db, TORN_OPS, items.len()).expect("last op");
    }
    let want_pre = oracle_answers(&items);
    mirror_op(&mut items, TORN_OPS);
    let want_post = oracle_answers(&items);
    assert_ne!(want_pre, want_post);
    let (txn_start, txn_end) = (wal_len(&before), wal_len(&base));
    assert!(txn_start > 8 && txn_end > txn_start, "the log kept growing");

    // The exit without flush itself: every transaction replays.
    let work = temp_dir("torn-work");
    copy_dir(&base, &work);
    assert_eq!(recovered_answers(&work, "no flush"), want_post);

    // A crash while the last transaction's record was being appended: the
    // files as they stood before it, and any prefix of its bytes in the
    // log. Only the whole record commits it; whatever less there is, every
    // query answers from the state before.
    let stride = ((txn_end - txn_start) / 24).max(1);
    let mut cuts: Vec<u64> = (txn_start..txn_end).step_by(stride as usize).collect();
    cuts.extend([txn_end - 1, txn_end]);
    for cut in cuts {
        copy_dir(&before, &work);
        std::fs::copy(base.join("wal.log"), work.join("wal.log")).expect("copy wal");
        cut_file(&work.join("wal.log"), cut);
        let want = if cut == txn_end {
            &want_post
        } else {
            &want_pre
        };
        let got = recovered_answers(&work, &format!("cut={cut}"));
        assert_eq!(&got, want, "cut={cut} of {txn_start}..{txn_end}");
    }

    // A checkpointed log is redundant: cut it anywhere — into the baseline,
    // into the magic header (a crash during log creation) — and the state
    // does not change.
    {
        let db = XmlDb::open_dir(&base).expect("reopen to flush");
        db.flush().expect("flush");
        assert!(!db.recovery_report().expect("report").legacy);
    }
    let report = XmlDb::open_dir(&base).expect("reopen flushed");
    let report = report.recovery_report().expect("report").clone();
    assert!(!report.was_dirty(), "a flushed directory reopens clean");
    assert_eq!(report.replayed_txns, 1, "baseline-only log");
    for cut in 0..=wal_len(&base) {
        copy_dir(&base, &work);
        cut_file(&work.join("wal.log"), cut);
        let got = recovered_answers(&work, &format!("checkpointed, cut={cut}"));
        assert_eq!(got, want_post, "checkpointed, cut={cut}");
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
    assert_eq!(recovered_answers(&work, "garbage tail"), want_post);

    for dir in [&base, &before, &work] {
        std::fs::remove_dir_all(dir).ok();
    }
}

// ---------------------------------------------------------------------
// What a commit costs, counted
// ---------------------------------------------------------------------

/// A [`FileStorage`] that counts its page writes and its syncs.
struct Counted {
    inner: FileStorage,
    writes: Arc<AtomicU64>,
    syncs: Arc<AtomicU64>,
}

impl nok_pager::Storage for Counted {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }
    fn page_count(&self) -> u32 {
        self.inner.page_count()
    }
    fn read_page(&mut self, id: u32, buf: &mut [u8]) -> nok_pager::PagerResult<()> {
        self.inner.read_page(id, buf)
    }
    fn write_page(&mut self, id: u32, buf: &[u8]) -> nok_pager::PagerResult<()> {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.inner.write_page(id, buf)
    }
    fn allocate_page(&mut self) -> nok_pager::PagerResult<u32> {
        self.inner.allocate_page()
    }
    fn sync(&mut self) -> nok_pager::PagerResult<()> {
        self.syncs.fetch_add(1, Ordering::Relaxed);
        self.inner.sync()
    }
    fn truncate_pages(&mut self, count: u32) -> nok_pager::PagerResult<()> {
        self.inner.truncate_pages(count)
    }
}

/// The budget of a storm-shaped commit — a six-node record inserted, then
/// deleted again, each a transaction: below the checkpoint threshold it is
/// one append to the log — one write, one fsync, the commit point — and
/// nothing else durable: no home-file page written, no home file synced,
/// `values.dat` counted with the other four components.
/// Once the pages it dirties have had their first touch since the
/// checkpoint, that append is at most 16 KiB. The commit that finds the log
/// past the threshold checkpoints, once: it writes the pages back, syncs
/// each of the five components, and leaves a log back at its baseline.
/// Counts and bytes, not timings.
#[test]
fn a_commit_is_one_log_append_until_the_log_is_due_a_checkpoint() {
    let dir = make_pristine("commit-io");
    let baseline_len = std::fs::metadata(dir.join("wal.log")).expect("wal").len();
    let (writes, syncs) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
    let (w, y) = (Arc::clone(&writes), Arc::clone(&syncs));
    let mut db = XmlDb::<Counted>::open_dir_with(&dir, 256, move |inner| Counted {
        inner,
        writes: Arc::clone(&w),
        syncs: Arc::clone(&y),
    })
    .expect("open counted");
    // The log's mutating I/O: an append is one, a checkpoint two.
    let log_ios = FailPlan::counting();
    db.set_failpoint(Arc::clone(&log_ios));
    let wal_len = || std::fs::metadata(dir.join("wal.log")).expect("wal").len();
    // Five values the document has not seen, so an insert appends five
    // records and its delete tombstones all five.
    let record = |k: usize| {
        format!("<item><name>s{k}</name><val>w{k}</val><a>a{k}</a><b>b{k}</b><c>c{k}</c></item>")
    };
    let storm = Dewey::from_components(vec![0, 10]);

    let mut commits = 0;
    loop {
        let (len0, log0) = (wal_len(), log_ios.count());
        if commits % 2 == 0 {
            db.insert_last_child(&Dewey::root(), &record(commits / 2))
                .expect("insert");
        } else {
            db.delete_subtree(&storm).expect("delete");
        }
        commits += 1;
        let log = log_ios.count() - log0;
        if wal_len() > len0 {
            assert_eq!(log, 1, "one log append, and with it one fsync");
            assert_eq!(syncs.load(Ordering::Relaxed), 0, "no home file synced");
            assert_eq!(writes.load(Ordering::Relaxed), 0, "no home page written");
            if commits > 2 {
                let appended = wal_len() - len0;
                assert!(appended <= 16 << 10, "commit {commits} logged {appended} B");
            }
            assert!(commits < 5_000, "the log never reached its threshold");
            continue;
        }
        assert!(commits > 5 && len0 <= (1 << 20), "checkpointed at {len0} B");
        assert_eq!(wal_len(), baseline_len, "baseline-only log");
        assert_eq!(log, 3, "the commit's append, then the checkpoint");
        assert_eq!(syncs.load(Ordering::Relaxed), 5, "each component once");
        assert!(
            writes.load(Ordering::Relaxed) > 0,
            "the checkpoint wrote pages back"
        );
        break;
    }
    // What the checkpoint made durable needs no log.
    drop(db);
    std::fs::remove_file(dir.join("wal.log")).expect("remove wal");
    let db = XmlDb::open_dir(&dir).expect("reopen without a log");
    assert!(!db.recovery_report().expect("report").was_dirty());
    assert_eq!(
        db.query("/list/item").expect("query").len(),
        10 + commits % 2
    );
    std::fs::remove_dir_all(&dir).ok();
}
