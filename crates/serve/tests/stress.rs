//! Concurrency stress suite: the serving layer must return *byte-identical*
//! results to the single-threaded engine on every paper dataset, under a
//! shared buffer pool small enough that eviction actually happens, and the
//! on-disk store must pass a strict integrity check after being hammered.

#![cfg(test)]

use std::sync::Arc;
use std::time::Duration;

use nok_core::XmlDb;
use nok_datagen::{generate, DatasetKind};
use nok_serve::{result_line, WireMatch};
use nok_serve::{QueryService, ServiceConfig};
use nok_verify::{verify_db, VerifyOptions};

const THREADS: usize = 8;
const POOL_FRAMES: usize = 256;

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("nok-serve-stress-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every `/`-rooted workload query plus its `//` descendant variant.
fn workload_paths(kind: DatasetKind) -> Vec<String> {
    let mut paths = Vec::new();
    for (_, spec) in nok_datagen::workload(kind) {
        let Some(spec) = spec else { continue };
        paths.push(spec.path.clone());
        if spec.descendant_variant != spec.path {
            paths.push(spec.descendant_variant.clone());
        }
    }
    paths
}

/// Render results in the canonical client format so "byte-identical" is
/// literal: the same strings the e2e harness diffs.
fn render(db: &XmlDb<nok_pager::FileStorage>, path: &str) -> String {
    let matches = db.query(path).expect("single-threaded query failed");
    let wire: Vec<WireMatch> = matches
        .iter()
        .map(|m| WireMatch {
            dewey: m.dewey.to_string(),
        })
        .collect();
    result_line(path, &wire)
}

/// 8 threads × all five paper datasets × the full Q1–Q12 workload
/// (including descendant variants), through a service whose structural
/// pool is capped at 256 frames: every concurrent result must equal the
/// single-threaded baseline byte for byte.
#[test]
fn workload_is_byte_identical_across_threads() {
    for kind in DatasetKind::ALL {
        let ds = generate(kind, 0.01);
        let dir = fresh_dir(kind.name());
        XmlDb::create_on_disk(&dir, &ds.xml)
            .expect("build")
            .flush()
            .expect("flush");

        let db = Arc::new(
            XmlDb::open_dir_with_capacity(&dir, POOL_FRAMES).expect("reopen with capped pool"),
        );
        let paths = workload_paths(kind);
        let baseline: Vec<String> = paths.iter().map(|p| render(&db, p)).collect();

        let svc = Arc::new(QueryService::start(
            Arc::clone(&db),
            ServiceConfig {
                workers: THREADS,
                queue_cap: 256,
                default_timeout: Duration::from_secs(60),
                ..ServiceConfig::default()
            },
        ));
        let threads: Vec<_> = (0..THREADS)
            .map(|t| {
                let svc = Arc::clone(&svc);
                let paths = paths.clone();
                std::thread::spawn(move || {
                    // Stagger starting offsets so threads collide on
                    // different pages at the same time.
                    let n = paths.len();
                    (0..n)
                        .map(|i| {
                            let p = &paths[(i + t * 3) % n];
                            let matches = svc.query(p).expect("served query failed");
                            let wire: Vec<WireMatch> = matches
                                .iter()
                                .map(|m| WireMatch {
                                    dewey: m.dewey.to_string(),
                                })
                                .collect();
                            ((i + t * 3) % n, result_line(p, &wire))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for t in threads {
            for (idx, line) in t.join().expect("client thread panicked") {
                assert_eq!(
                    line,
                    baseline[idx],
                    "{}: concurrent result diverged from single-threaded baseline",
                    kind.name()
                );
            }
        }

        let served = svc
            .metrics()
            .served
            .load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(served as usize, THREADS * paths.len());

        // The capacity bound held (transient overshoot ≤ one frame per
        // concurrently-faulting thread).
        let cached = db.store().pool().cached_frames();
        assert!(
            cached <= POOL_FRAMES + THREADS,
            "{}: pool over budget: {cached} frames cached (cap {POOL_FRAMES})",
            kind.name()
        );

        drop(svc);
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Hammer a handful of hot pages from 8 threads, then require a strict
/// integrity pass over the on-disk store: concurrent reads through the
/// shared pool must not corrupt anything, even with constant eviction.
#[test]
fn hot_page_hammer_leaves_store_clean() {
    let ds = generate(DatasetKind::Author, 0.005);
    let dir = fresh_dir("hammer");
    XmlDb::create_on_disk(&dir, &ds.xml)
        .expect("build")
        .flush()
        .expect("flush");

    // A tiny pool forces every thread to fault and evict continuously.
    let db = Arc::new(XmlDb::open_dir_with_capacity(&dir, 8).expect("reopen"));
    let baseline = render(&db, "//author/name");

    let threads: Vec<_> = (0..THREADS)
        .map(|_| {
            let db = Arc::clone(&db);
            let baseline = baseline.clone();
            std::thread::spawn(move || {
                for _ in 0..50 {
                    assert_eq!(render(&db, "//author/name"), baseline);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("hammer thread panicked");
    }

    let report = verify_db(&db, VerifyOptions::strict());
    assert!(report.is_clean(), "post-hammer integrity: {report}");

    // And again from a completely fresh handle, straight off disk.
    drop(db);
    let db = XmlDb::open_dir(&dir).expect("reopen post-hammer");
    let report = verify_db(&db, VerifyOptions::strict());
    assert!(report.is_clean(), "fresh-open integrity: {report}");
    assert_eq!(render(&db, "//author/name"), baseline);

    std::fs::remove_dir_all(&dir).ok();
}

/// The navigation index (block summaries + directory skip index) under
/// thread pressure: 8 threads drive the indexed cursor primitives over a
/// shared store with a small pool (constant faulting and eviction, plus a
/// racy first build of the lazily-cached skip index) and every result must
/// equal the single-threaded `linear_*` oracle baseline.
#[test]
fn navigation_primitives_agree_under_threads() {
    use nok_core::cursor::{
        following_sibling, linear_following_sibling, linear_subtree_close, subtree_close, DocScan,
    };

    let ds = generate(DatasetKind::Treebank, 0.005);
    let dir = fresh_dir("navprims");
    XmlDb::create_on_disk(&dir, &ds.xml)
        .expect("build")
        .flush()
        .expect("flush");
    let db = Arc::new(XmlDb::open_dir_with_capacity(&dir, 64).expect("reopen"));

    // Single-threaded oracle baseline over a document-spanning sample.
    let items: Vec<_> = DocScan::new(db.store())
        .collect::<Result<Vec<_>, _>>()
        .expect("scan");
    let stride = (items.len() / 2000).max(1);
    let sample: Vec<_> = items
        .iter()
        .step_by(stride)
        .map(|it| {
            (
                it.addr,
                linear_following_sibling(db.store(), it.addr).expect("oracle sibling"),
                linear_subtree_close(db.store(), it.addr).expect("oracle close"),
            )
        })
        .collect();
    // Drop every decoded page (and its block summaries) so the threads
    // below race to re-decode and re-summarize shared pages.
    db.store().invalidate_decoded(None);

    let sample = Arc::new(sample);
    let threads: Vec<_> = (0..THREADS)
        .map(|t| {
            let db = Arc::clone(&db);
            let sample = Arc::clone(&sample);
            std::thread::spawn(move || {
                let n = sample.len();
                for i in 0..n {
                    let (addr, sib, close) = sample[(i + t * 251) % n];
                    assert_eq!(
                        following_sibling(db.store(), addr).expect("sibling"),
                        sib,
                        "indexed following_sibling diverged under threads"
                    );
                    assert_eq!(
                        subtree_close(db.store(), addr).expect("close"),
                        close,
                        "indexed subtree_close diverged under threads"
                    );
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("nav thread panicked");
    }

    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// Render matches *and their values* so the differential below is
/// byte-identical on both structure and content.
fn render_values<S: nok_pager::Storage>(db: &XmlDb<S>, path: &str) -> String {
    let matches = db.query(path).expect("query failed");
    let wire: Vec<WireMatch> = matches
        .iter()
        .map(|m| WireMatch {
            dewey: m.dewey.to_string(),
        })
        .collect();
    let mut line = result_line(path, &wire);
    for m in &matches {
        if let Some(v) = db.value_of(m).expect("value fetch failed") {
            line.push('|');
            line.push_str(&v);
        }
    }
    line
}

/// MVCC differential: one writer commits a stream of update transactions
/// while snapshot readers hammer from other threads. Every reader result
/// must be byte-identical to what the single-threaded writer saw right
/// after publishing that same epoch — and no reader may ever observe a
/// torn generation (a `<rec>` without its `<k/>` child, or vice versa).
#[test]
fn snapshot_readers_differential_against_writer_oracle() {
    use nok_core::Dewey;
    use std::collections::{HashMap, HashSet};
    use std::sync::atomic::{AtomicBool, Ordering};

    let mut doc = String::from("<log>");
    for i in 0..8 {
        doc.push_str(&format!("<rec><k/><v>seed{i}</v></rec>"));
    }
    doc.push_str("</log>");
    let mut db = XmlDb::build_in_memory(&doc).expect("build");
    let src = db.snapshot_source();

    let done = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let src = src.clone();
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut seen: Vec<(u64, String)> = Vec::new();
                while !done.load(Ordering::Relaxed) {
                    let snap = src.snapshot().expect("pin");
                    // Torn-generation invariant: the writer only ever
                    // commits whole <rec><k/><v>…</v></rec> subtrees, so
                    // the two counts must agree at every epoch.
                    let recs = snap.query("//rec").expect("//rec").len();
                    let ks = snap.query("//rec/k").expect("//rec/k").len();
                    assert_eq!(
                        recs,
                        ks,
                        "torn generation observed at epoch {}",
                        snap.epoch()
                    );
                    if seen.last().map(|(e, _)| *e) != Some(snap.epoch()) {
                        seen.push((snap.epoch(), render_values(snap.db(), "//rec/v")));
                    }
                }
                seen
            })
        })
        .collect();

    // The writer owns the database exclusively; readers pin through the
    // detached source. Record the canonical answer right after each
    // commit — that is the single-threaded oracle for that epoch.
    let mut oracle: Vec<(u64, String)> = vec![(0, render_values(&db, "//rec/v"))];
    for i in 0..24 {
        if i % 4 == 3 {
            db.delete_subtree(&Dewey::from_components(vec![0, 0]))
                .expect("writer delete");
        } else {
            db.insert_last_child(&Dewey::root(), &format!("<rec><k/><v>w{i}</v></rec>"))
                .expect("writer insert");
        }
        oracle.push((db.commit_generation(), render_values(&db, "//rec/v")));
        std::thread::sleep(Duration::from_millis(1));
    }
    done.store(true, Ordering::Relaxed);

    let oracle: HashMap<u64, String> = oracle.into_iter().collect();
    let mut distinct = HashSet::new();
    for r in readers {
        for (epoch, line) in r.join().expect("reader panicked") {
            distinct.insert(epoch);
            assert_eq!(
                Some(&line),
                oracle.get(&epoch),
                "reader at epoch {epoch} diverged from the writer oracle"
            );
        }
    }
    assert!(
        distinct.len() >= 2,
        "readers never overlapped the writer (saw only {distinct:?})"
    );
    // And the final published generation matches the writer's last state.
    let last = src.snapshot().expect("final pin");
    assert_eq!(
        render_values(last.db(), "//rec/v"),
        oracle[&db.commit_generation()]
    );
}

/// Crash at every mutating I/O during a generation build (one committed
/// insert): a reader pinned on the prior generation must be completely
/// undisturbed by the crash, and reopening the torn directory must
/// recover to a strict-clean store every time.
#[test]
fn crash_mid_generation_build_spares_pinned_readers_and_recovers_clean() {
    use nok_core::Dewey;
    use nok_pager::{FailPlan, FailpointStorage, FileStorage};

    let doc = "<log><rec><k/><v>stable</v></rec><rec><k/><v>also</v></rec></log>";
    let frag = "<rec><k/><v>incoming</v></rec>";

    // Counting pass: how many mutating I/Os one committed insert issues.
    let dir = fresh_dir("mvcc-crash-count");
    XmlDb::create_on_disk(&dir, doc)
        .expect("build")
        .flush()
        .expect("flush");
    let plan = FailPlan::counting();
    let total = {
        let wrap = Arc::clone(&plan);
        let mut db = XmlDb::<FailpointStorage<FileStorage>>::open_dir_with(&dir, 64, move |s| {
            FailpointStorage::new(s, Arc::clone(&wrap))
        })
        .expect("open counting");
        db.set_failpoint(Arc::clone(&plan));
        db.insert_last_child(&Dewey::root(), frag)
            .expect("counting insert");
        plan.count()
    };
    std::fs::remove_dir_all(&dir).ok();
    assert!(total > 0, "insert issued no mutating I/O to crash at");

    for k in 1..=total {
        let dir = fresh_dir(&format!("mvcc-crash-{k}"));
        XmlDb::create_on_disk(&dir, doc)
            .expect("build")
            .flush()
            .expect("flush");
        let plan = FailPlan::at(k);
        let wrap = Arc::clone(&plan);
        let mut db = XmlDb::<FailpointStorage<FileStorage>>::open_dir_with(&dir, 64, move |s| {
            FailpointStorage::new(s, Arc::clone(&wrap))
        })
        .expect("open with failpoint");
        db.set_failpoint(Arc::clone(&plan));

        let pinned = db.snapshot().expect("pin prior generation");
        let epoch0 = pinned.epoch();
        let before = render_values(pinned.db(), "//rec/v");

        // The generation build dies at the k-th mutating I/O (or commits,
        // for k past the commit point — both legal outcomes of a crash).
        let _ = db.insert_last_child(&Dewey::root(), frag);

        assert_eq!(pinned.epoch(), epoch0);
        assert_eq!(
            render_values(pinned.db(), "//rec/v"),
            before,
            "crash at mutating I/O #{k} disturbed a pinned prior-generation reader"
        );

        drop(pinned);
        drop(db);
        let db =
            XmlDb::open_dir(&dir).unwrap_or_else(|e| panic!("reopen after crash at I/O #{k}: {e}"));
        let report = verify_db(&db, VerifyOptions::strict());
        assert!(report.is_clean(), "crash at I/O #{k}: {report}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Sanity: the serving layer over MemStorage agrees with the engine when
/// queries are submitted concurrently with wildly different shapes.
#[test]
fn mixed_query_shapes_agree() {
    let ds = generate(DatasetKind::Catalog, 0.005);
    let db = Arc::new(XmlDb::build_in_memory(&ds.xml).expect("build"));
    let paths = workload_paths(DatasetKind::Catalog);
    let baseline: Vec<Vec<nok_core::QueryMatch>> = paths
        .iter()
        .map(|p| db.query(p).expect("baseline"))
        .collect();

    let svc = Arc::new(QueryService::start(
        Arc::clone(&db),
        ServiceConfig {
            workers: 4,
            queue_cap: 64,
            default_timeout: Duration::from_secs(60),
            ..ServiceConfig::default()
        },
    ));
    let threads: Vec<_> = (0..4)
        .map(|t| {
            let svc = Arc::clone(&svc);
            let paths = paths.clone();
            let baseline = baseline.clone();
            std::thread::spawn(move || {
                for (i, p) in paths.iter().enumerate().skip(t % 2) {
                    assert_eq!(svc.query(p).expect("served"), baseline[i], "{p}");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread panicked");
    }
}
