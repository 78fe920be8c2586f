//! Loom model of a snapshot read racing the writer's first write and its
//! commit.
//!
//! Mirrors `pager::mvcc` and `PageHandle::write` (crates/pager/src/): a
//! frame holds its page as an immutable `Arc` image behind a lock; the
//! pool's capture cell holds the in-flight transaction's before-images,
//! stamped with the epoch whose state they are; each committed epoch has a
//! chain node that commit freezes the capture map into. The protocol:
//!
//! * the writer's first write to a page records the frame's current image
//!   in the capture cell, *then* swaps in the new image — both under the
//!   frame's write lock;
//! * a reader pinned at epoch `E` looks in the overlay (frozen maps from
//!   its own chain node up to the first unfrozen node `K`, then the capture
//!   cell if its stamp is `K`, walking on if a commit moved it past `K`),
//!   clones the frame's image, then looks in the overlay again;
//! * commit freezes the capture map into the retiring node and links the
//!   next node, *then* publishes the generation, then resets the cell;
//! * abort puts the captured image back by pointer.
//!
//! Properties: a reader pinned at epoch 0 reads epoch 0's bytes whatever
//! the writer is doing, a reader pinned at epoch 1 reads the committed
//! bytes, and abort restores the very image the page had. Three
//! deliberately broken variants must be caught by the model: the writer
//! swaps the image before it records the capture; commit resets the cell
//! before it freezes the map; the reader trusts a cell stamped past the
//! node its walk stopped at (the rule before images became `Arc`s, which
//! let a commit landing inside the second look hand the reader the new
//! bytes).
//!
//! Run with: `RUSTFLAGS="--cfg loom" cargo test -p nok-pager --test loom_mvcc`
#![cfg(loom)]

use loom::sync::atomic::{AtomicU64, Ordering};
use loom::sync::{Arc, Mutex, RwLock};
use loom::thread;

/// The page's bytes at epoch 0, in the transaction, and committed at 1.
const AT_0: u64 = 10;
const IN_TXN: u64 = 11;
const AT_1: u64 = 12;

/// The capture map of one page: its stamp and before-image, if captured.
#[derive(Clone)]
struct CowMap {
    stamp: u64,
    image: Option<Arc<u64>>,
}

/// A chain node: the frozen map of the transaction that retired it, and
/// whether the successor is linked (the model has two epochs).
struct Node {
    frozen: Mutex<Option<CowMap>>,
    linked: Mutex<bool>,
}

impl Node {
    fn new() -> Node {
        Node {
            frozen: Mutex::new(None),
            linked: Mutex::new(false),
        }
    }
}

/// The protocol, or one step of it broken.
#[derive(Clone, Copy, PartialEq)]
enum Variant {
    Correct,
    /// The writer swaps the image, releases the frame, then records the
    /// capture.
    SwapBeforeCapture,
    /// Commit resets the cell before it freezes the map into the node.
    ResetBeforeFreeze,
    /// The reader uses any cell whose stamp is at or past its own epoch.
    TrustNewerStamp,
}

struct Db {
    how: Variant,
    frame: RwLock<Arc<u64>>,
    cell: RwLock<CowMap>,
    nodes: [Node; 2],
    /// The published epoch (the generation cell).
    epoch: AtomicU64,
}

impl Db {
    fn new(how: Variant) -> Db {
        Db {
            how,
            frame: RwLock::new(Arc::new(AT_0)),
            cell: RwLock::new(CowMap {
                stamp: 0,
                image: None,
            }),
            nodes: [Node::new(), Node::new()],
            epoch: AtomicU64::new(0),
        }
    }

    /// Mirrors `CaptureCell::capture`: first image wins.
    fn capture(&self, image: &Arc<u64>) {
        let mut cell = self.cell.write().unwrap();
        if cell.image.is_none() {
            cell.image = Some(Arc::clone(image));
        }
    }

    /// Mirrors `PageHandle::write` and the `make_mut` that follows it.
    fn write(&self, value: u64) {
        let mut frame = self.frame.write().unwrap();
        if self.how == Variant::SwapBeforeCapture {
            let old = std::mem::replace(&mut *frame, Arc::new(value));
            drop(frame);
            // ... other work before the capture ...
            for _ in 0..4 {
                thread::yield_now();
            }
            self.capture(&old);
            return;
        }
        self.capture(&frame);
        *frame = Arc::new(value);
    }

    /// Mirrors `XmlDb::publish_generation` for epoch 0 → 1.
    fn commit(&self) {
        if self.how == Variant::ResetBeforeFreeze {
            let map = self.cell.read().unwrap().clone();
            self.reset(1);
            thread::yield_now();
            *self.nodes[0].frozen.lock().unwrap() = Some(map);
        } else {
            let map = self.cell.read().unwrap().clone();
            *self.nodes[0].frozen.lock().unwrap() = Some(map);
        }
        *self.nodes[0].linked.lock().unwrap() = true;
        self.epoch.store(1, Ordering::Release);
        self.reset(1);
    }

    fn reset(&self, stamp: u64) {
        *self.cell.write().unwrap() = CowMap { stamp, image: None };
    }

    /// Mirrors `TxnHandle::abort`: the captured image goes back.
    fn abort(&self) {
        if let Some(image) = self.cell.read().unwrap().image.clone() {
            *self.frame.write().unwrap() = image;
        }
    }

    /// Mirrors `SnapView::lookup` for a reader pinned at `epoch`.
    fn lookup(&self, epoch: u64) -> Option<Arc<u64>> {
        let mut node = epoch as usize;
        loop {
            let frozen = self.nodes[node].frozen.lock().unwrap().clone();
            let linked = *self.nodes[node].linked.lock().unwrap();
            if let Some(map) = frozen {
                if map.image.is_some() {
                    return map.image;
                }
                if linked {
                    node += 1;
                    continue;
                }
            }
            let cell = self.cell.read().unwrap();
            if self.how == Variant::TrustNewerStamp {
                return cell.image.clone().filter(|_| cell.stamp >= epoch);
            }
            match cell.stamp.cmp(&(node as u64)) {
                std::cmp::Ordering::Less => return None,
                std::cmp::Ordering::Equal => return cell.image.clone(),
                // A commit moved the cell past `node`: it is frozen and
                // linked now, so walk on.
                std::cmp::Ordering::Greater => {
                    if !*self.nodes[node].linked.lock().unwrap() {
                        return None;
                    }
                }
            }
        }
    }

    /// Mirrors `resolve_page`: overlay, frame image, overlay again.
    fn resolve(&self, epoch: u64) -> u64 {
        if let Some(image) = self.lookup(epoch) {
            return *image;
        }
        let image = Arc::clone(&self.frame.read().unwrap());
        *self.lookup(epoch).unwrap_or(image)
    }
}

/// One writer (first write, a second write, commit) and two readers: one
/// pinned at epoch 0 before anything happens, one pinning whatever epoch is
/// published when it starts. Returns whether every read was right.
fn run(how: Variant) -> bool {
    let db = Arc::new(Db::new(how));
    let writer = {
        let db = Arc::clone(&db);
        thread::spawn(move || {
            db.write(IN_TXN);
            db.write(AT_1);
            db.commit();
        })
    };
    let old = {
        let db = Arc::clone(&db);
        thread::spawn(move || (0..2).all(|_| db.resolve(0) == AT_0))
    };
    let fresh = {
        let db = Arc::clone(&db);
        thread::spawn(move || {
            let epoch = db.epoch.load(Ordering::Acquire);
            let seen = db.resolve(epoch);
            seen == if epoch == 0 { AT_0 } else { AT_1 }
        })
    };
    writer.join().unwrap();
    let right = old.join().unwrap() & fresh.join().unwrap();
    right && db.resolve(0) == AT_0 && db.resolve(1) == AT_1
}

/// Sample more schedules than the default: the windows these models look
/// for are a few switch points wide.
fn explore<F: Fn() + Send + Sync + 'static>(f: F) {
    let mut builder = loom::builder::Builder::new();
    builder.max_permutations = Some(4096);
    builder.check(f);
}

#[test]
fn snapshot_reads_see_their_epoch_while_the_writer_captures_swaps_and_commits() {
    explore(|| {
        assert!(
            run(Variant::Correct),
            "a snapshot read saw another epoch's bytes"
        );
    });
}

/// Abort while an epoch-0 reader resolves the page: the reader sees epoch
/// 0's bytes throughout, and afterwards the frame holds the very image it
/// had before the write.
#[test]
fn abort_restores_the_before_image_by_pointer() {
    loom::model(|| {
        let db = Arc::new(Db::new(Variant::Correct));
        let original = Arc::clone(&db.frame.read().unwrap());
        let writer = {
            let db = Arc::clone(&db);
            thread::spawn(move || {
                db.write(IN_TXN);
                db.abort();
            })
        };
        let reader = {
            let db = Arc::clone(&db);
            thread::spawn(move || db.resolve(0))
        };
        writer.join().unwrap();
        assert_eq!(reader.join().unwrap(), AT_0);
        assert!(Arc::ptr_eq(&db.frame.read().unwrap(), &original));
    });
}

/// Run a broken variant under the model — the writer against one reader
/// pinned at epoch 0 that resolves the page over and over — and demand
/// that some schedule shows the reader the wrong epoch: the proof that the
/// step the variant breaks is load-bearing.
fn caught(how: Variant) -> bool {
    use std::sync::atomic::{AtomicBool, Ordering as StdOrdering};
    let caught = std::sync::Arc::new(AtomicBool::new(false));
    let flag = std::sync::Arc::clone(&caught);
    explore(move || {
        let db = Arc::new(Db::new(how));
        let writer = {
            let db = Arc::clone(&db);
            thread::spawn(move || {
                db.write(IN_TXN);
                db.commit();
            })
        };
        let reader = {
            let db = Arc::clone(&db);
            thread::spawn(move || (0..4).all(|_| db.resolve(0) == AT_0))
        };
        writer.join().unwrap();
        if !reader.join().unwrap() {
            flag.store(true, StdOrdering::SeqCst);
        }
    });
    caught.load(StdOrdering::SeqCst)
}

#[test]
fn swapping_the_image_before_the_capture_is_caught_by_the_model() {
    assert!(
        caught(Variant::SwapBeforeCapture),
        "no schedule caught the early swap; the model lost its teeth"
    );
}

#[test]
fn resetting_the_cell_before_the_freeze_is_caught_by_the_model() {
    assert!(
        caught(Variant::ResetBeforeFreeze),
        "no schedule caught the early reset; the model lost its teeth"
    );
}

#[test]
fn trusting_a_cell_stamped_past_the_walk_is_caught_by_the_model() {
    assert!(
        caught(Variant::TrustNewerStamp),
        "no schedule caught the stale-node read; the model lost its teeth"
    );
}
