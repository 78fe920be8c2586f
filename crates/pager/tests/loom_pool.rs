//! Loom model of the buffer pool's CLOCK eviction racing readers and a
//! writer.
//!
//! Mirrors `BufferPool` (crates/pager/src/pool.rs): a page table behind a
//! lock maps pages to frames; a frame holds its page as an `Arc` image
//! behind its own lock; a handle pins a frame by cloning its `Arc` (the
//! ring and the table hold the other two); a writer swaps in a new image
//! under the frame's write lock. Eviction runs under the ring's mutex: the
//! hand clears a reference bit on its first pass, skips pinned frames and,
//! inside a transaction, the frames the transaction wrote, and evicts a
//! frame only if that still holds *re-checked under the table's write
//! lock*, writing it back to storage first if it owes its home file. The
//! properties modeled:
//!
//! 1. a pinned frame is never evicted out from under its holder,
//! 2. a dirty frame's data is never lost — whatever a writer stored is in
//!    the frame or in storage afterwards, never dropped on the floor,
//! 3. eviction inside a transaction writes back a committed frame that
//!    owes its home file, and never a frame the transaction wrote,
//! 4. the hand passes a referenced frame once and then takes it, and
//!    reports exhaustion when every frame is pinned,
//! 5. an image a reader cloned stays readable, unchanged, after its frame
//!    is evicted and the page is rewritten.
//!
//! Run with: `RUSTFLAGS="--cfg loom" cargo test -p nok-pager --test loom_pool`
#![cfg(loom)]

use std::collections::HashMap;

use loom::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use loom::sync::{Arc, Mutex, RwLock};
use loom::thread;

/// Frame state bits, as in the pool (whose `AtomicU8` the shim lacks).
const OWES_HOME: u32 = 1;
const TXN_WROTE: u32 = 2;
/// Holders of an unpinned frame: the ring and the table.
const UNPINNED: usize = 2;

struct Frame {
    page: u32,
    image: RwLock<Arc<u64>>,
    state: AtomicU32,
    referenced: AtomicBool,
}

impl Frame {
    fn evictable(self: &Arc<Self>, in_txn: bool) -> bool {
        Arc::strong_count(self) <= UNPINNED
            && !(in_txn && self.state.load(Ordering::Acquire) & TXN_WROTE != 0)
    }
}

struct Ring {
    frames: Vec<Arc<Frame>>,
    hand: usize,
}

struct Pool {
    table: RwLock<HashMap<u32, Arc<Frame>>>,
    ring: Mutex<Ring>,
    /// Home file contents, one value per page.
    storage: Mutex<Vec<u64>>,
    txn_active: AtomicBool,
}

impl Pool {
    /// A pool caching page 0 with `value`; `owes` when storage has not
    /// seen it (storage then holds `value - 1`). Page 1 is on storage only.
    fn new(value: u64, owes: bool) -> Self {
        let pool = Pool {
            table: RwLock::new(HashMap::new()),
            ring: Mutex::new(Ring {
                frames: Vec::new(),
                hand: 0,
            }),
            storage: Mutex::new(vec![if owes { value - 1 } else { value }, 100]),
            txn_active: AtomicBool::new(false),
        };
        pool.install(0, value, if owes { OWES_HOME } else { 0 });
        pool
    }

    fn install(&self, page: u32, value: u64, state: u32) {
        let frame = Arc::new(Frame {
            page,
            image: RwLock::new(Arc::new(value)),
            state: AtomicU32::new(state),
            referenced: AtomicBool::new(false),
        });
        self.table.write().unwrap().insert(page, Arc::clone(&frame));
        self.ring.lock().unwrap().frames.push(frame);
    }

    /// Mirrors `BufferPool::get`'s hit: pin under the table's read lock
    /// and set the reference bit.
    fn pin(&self, page: u32) -> Option<Arc<Frame>> {
        let table = self.table.read().unwrap();
        let frame = table.get(&page)?;
        frame.referenced.store(true, Ordering::Relaxed);
        Some(Arc::clone(frame))
    }

    /// Mirrors `BufferPool::image`: clone the frame's image, or read the
    /// page from storage.
    fn image(&self, page: u32) -> Arc<u64> {
        let table = self.table.read().unwrap();
        match table.get(&page) {
            Some(frame) => Arc::clone(&frame.image.read().unwrap()),
            None => Arc::new(self.storage.lock().unwrap()[page as usize]),
        }
    }

    /// Mirrors `PageHandle::write`: mark, then swap in the new image, under
    /// a pin.
    fn write(&self, page: u32, value: u64) -> bool {
        match self.pin(page) {
            Some(frame) => {
                let mut image = frame.image.write().unwrap();
                frame
                    .state
                    .fetch_or(OWES_HOME | TXN_WROTE, Ordering::AcqRel);
                *image = Arc::new(value);
                true
            }
            None => false, // evicted first; a real writer would re-get
        }
    }

    /// Mirrors `make_room`: two turns of the hand at most. Returns the
    /// evicted page, or `None` for `PoolExhausted`.
    fn evict_one(&self) -> Option<u32> {
        let mut ring = self.ring.lock().unwrap();
        let in_txn = self.txn_active.load(Ordering::Acquire);
        let n = ring.frames.len();
        for _ in 0..2 * n {
            let slot = ring.hand % n;
            ring.hand = slot + 1;
            let frame = &ring.frames[slot];
            if !frame.referenced.swap(false, Ordering::Relaxed) && self.evict(frame, in_txn) {
                return Some(ring.frames.swap_remove(slot).page);
            }
        }
        None
    }

    /// Mirrors `evict`: re-check under the table's write lock, unmap, then
    /// write back what owes.
    fn evict(&self, frame: &Arc<Frame>, in_txn: bool) -> bool {
        if !frame.evictable(in_txn) {
            return false;
        }
        {
            let mut table = self.table.write().unwrap();
            if !frame.evictable(in_txn) {
                return false;
            }
            table.remove(&frame.page);
        }
        if frame.state.load(Ordering::Acquire) & OWES_HOME != 0 {
            let image = Arc::clone(&frame.image.read().unwrap());
            self.storage.lock().unwrap()[frame.page as usize] = *image;
        }
        true
    }

    /// The value a fresh reader would observe: cached frame, else storage.
    fn read_through(&self, page: u32) -> u64 {
        *self.image(page)
    }
}

/// A writer (pin → mark dirty → swap the image) racing the evictor: the
/// write must never be lost, whether it lands before or after the eviction
/// decision.
#[test]
fn evict_racing_writer_never_loses_the_write() {
    loom::model(|| {
        let pool = Arc::new(Pool::new(7, false));

        let writer = {
            let pool = Arc::clone(&pool);
            thread::spawn(move || pool.write(0, 8))
        };
        let evictor = {
            let pool = Arc::clone(&pool);
            thread::spawn(move || pool.evict_one())
        };

        let wrote = writer.join().unwrap();
        let _ = evictor.join().unwrap();

        let observed = pool.read_through(0);
        assert_eq!(observed, if wrote { 8 } else { 7 }, "write lost");
    });
}

/// While a reader holds a pin, the hand must pass the frame over: the pin
/// re-check under the table's write lock is what makes the
/// check-then-evict window safe. With the only frame pinned, the miss
/// reports exhaustion.
#[test]
fn pinned_frame_is_never_evicted() {
    loom::model(|| {
        let pool = Arc::new(Pool::new(3, false));

        // Pin on the main thread and hold it across the evictor's run.
        let pinned = pool.pin(0).expect("frame present");

        let evictor = {
            let pool = Arc::clone(&pool);
            thread::spawn(move || pool.evict_one())
        };
        let reader = {
            let pinned = Arc::clone(&pinned);
            thread::spawn(move || **pinned.image.read().unwrap())
        };

        let evicted = evictor.join().unwrap();
        let seen = reader.join().unwrap();

        assert_eq!(evicted, None, "evicted a pinned frame");
        assert_eq!(seen, 3);
        assert!(
            pool.pin(0).is_some(),
            "frame must still be cached while pinned"
        );
    });
}

/// The frame holds committed bytes (7) its home file has not seen (6). A
/// transaction writes 8 into it while an evictor runs: whichever wins,
/// storage holds 6 or 7 — the committed bytes may go home, the
/// transaction's never do while it is open — and no byte is lost. After
/// the commit the transaction's bytes may go home too.
#[test]
fn eviction_in_a_txn_writes_committed_frames_never_the_txns_own() {
    loom::model(|| {
        let pool = Arc::new(Pool::new(7, true));
        pool.txn_active.store(true, Ordering::Release);

        let writer = {
            let pool = Arc::clone(&pool);
            thread::spawn(move || pool.write(0, 8))
        };
        let evictor = {
            let pool = Arc::clone(&pool);
            thread::spawn(move || pool.evict_one())
        };

        let wrote = writer.join().unwrap();
        let evicted = evictor.join().unwrap();

        let stored = pool.storage.lock().unwrap()[0];
        assert_ne!(stored, 8, "the open transaction's write reached storage");
        if evicted.is_some() {
            assert_eq!(stored, 7, "an evicted committed frame went home");
        }
        if wrote {
            assert_eq!(pool.read_through(0), 8);
            pool.txn_active.store(false, Ordering::Release);
            assert_eq!(pool.evict_one(), Some(0), "a committed frame is evictable");
            assert_eq!(pool.storage.lock().unwrap()[0], 8);
        } else {
            assert_eq!(pool.read_through(0), 7);
        }
    });
}

/// Two frames, page 0 referenced by a concurrent hit: the hand clears the
/// bit on its first pass and evicts an unreferenced frame; it never needs
/// more than two turns while anything is evictable.
#[test]
fn clock_hand_passes_a_referenced_frame_once() {
    loom::model(|| {
        let pool = Arc::new(Pool::new(5, false));
        pool.install(1, 100, 0);

        let reader = {
            let pool = Arc::clone(&pool);
            thread::spawn(move || pool.pin(0).map(|f| **f.image.read().unwrap()))
        };
        let first = pool.evict_one();
        let seen = reader.join().unwrap();
        assert!(first.is_some(), "an unpinned frame must be evictable");
        assert!(seen.is_none() || seen == Some(5));
        // Whatever went first, the other frame goes next.
        let second = pool.evict_one().expect("one frame left, unpinned");
        assert_ne!(first, Some(second));
        assert_eq!(pool.evict_one(), None, "nothing left to evict");
        assert_eq!((pool.read_through(0), pool.read_through(1)), (5, 100));
    });
}

/// A reader clones page 0's image while the evictor takes the frame out
/// and a writer re-installs and rewrites the page: the reader's image
/// keeps the value it was cloned with.
#[test]
fn cloned_image_stays_readable_after_its_frame_is_evicted() {
    loom::model(|| {
        let pool = Arc::new(Pool::new(9, false));

        let reader = {
            let pool = Arc::clone(&pool);
            thread::spawn(move || {
                let image = pool.image(0);
                let cloned = *image;
                thread::yield_now();
                assert_eq!(*image, cloned, "a cloned image changed under its reader");
                cloned
            })
        };
        let churn = {
            let pool = Arc::clone(&pool);
            thread::spawn(move || {
                if pool.evict_one() == Some(0) {
                    pool.install(0, 9, 0);
                }
                pool.write(0, 10)
            })
        };

        let seen = reader.join().unwrap();
        let wrote = churn.join().unwrap();
        assert!(seen == 9 || seen == 10);
        assert!(wrote);
        assert_eq!(pool.read_through(0), 10);
    });
}
