//! Loom model of buffer-pool pin/evict racing a reader.
//!
//! Mirrors the `BufferPool` shard protocol (crates/pager/src/pool.rs):
//! frames live behind a shard lock, a handle pins a frame by cloning its
//! `Arc`, and `evict_one` may only evict a frame that is unpinned *when
//! re-checked under the shard's write lock*, writing it back to storage if
//! it owes its home file while still holding that lock. Inside a
//! transaction it also skips the frames the transaction wrote. The
//! properties modeled:
//!
//! 1. a pinned frame is never evicted out from under its holder,
//! 2. a dirty frame's data is never lost — whatever a writer stored is in
//!    the frame or in storage afterwards, never dropped on the floor,
//! 3. eviction inside a transaction writes back a committed frame that
//!    owes its home file, and never a frame the transaction wrote.
//!
//! Run with: `RUSTFLAGS="--cfg loom" cargo test -p nok-pager --test loom_pool`
#![cfg(loom)]

use loom::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use loom::sync::{Arc, Mutex, RwLock};
use loom::thread;

/// Frame state bits, as in the pool (whose `AtomicU8` the shim lacks).
const OWES_HOME: u32 = 1;
const TXN_WROTE: u32 = 2;

struct Frame {
    data: RwLock<u64>,
    state: AtomicU32,
}

struct Pool {
    /// One shard holding at most one frame — enough to exercise the races.
    shard: Mutex<Option<Arc<Frame>>>,
    storage: Mutex<u64>,
    txn_active: AtomicBool,
}

impl Pool {
    /// A pool caching the page with `value`; `owes` when storage has not
    /// seen it (storage then holds `value - 1`).
    fn new(value: u64, owes: bool) -> Self {
        Pool {
            shard: Mutex::new(Some(Arc::new(Frame {
                data: RwLock::new(value),
                state: AtomicU32::new(if owes { OWES_HOME } else { 0 }),
            }))),
            storage: Mutex::new(if owes { value - 1 } else { value }),
            txn_active: AtomicBool::new(false),
        }
    }

    /// Mirrors `BufferPool::get`'s fast path: pin by cloning under the
    /// shard lock, miss by reading storage.
    fn pin(&self) -> Option<Arc<Frame>> {
        self.shard.lock().unwrap().as_ref().map(Arc::clone)
    }

    /// Mirrors `PageHandle::write`: mark, then mutate, under a pin.
    fn write(&self, value: u64) -> bool {
        match self.pin() {
            Some(frame) => {
                frame
                    .state
                    .fetch_or(OWES_HOME | TXN_WROTE, Ordering::AcqRel);
                *frame.data.write().unwrap() = value;
                true
            }
            None => false, // evicted first; a real writer would re-get
        }
    }

    /// Mirrors `evict_one`: re-check the pin and the no-steal rule under
    /// the shard's write lock, write back what owes while still holding
    /// it. Returns whether the frame was evicted.
    fn evict(&self) -> bool {
        let mut shard = self.shard.lock().unwrap();
        let in_txn = self.txn_active.load(Ordering::Acquire);
        let evictable = shard.as_ref().is_some_and(|frame| {
            Arc::strong_count(frame) == 1
                && !(in_txn && frame.state.load(Ordering::Acquire) & TXN_WROTE != 0)
        });
        if !evictable {
            return false; // pinned, or the open transaction's own
        }
        let frame = shard.take().expect("checked above");
        if frame.state.load(Ordering::Acquire) & OWES_HOME != 0 {
            *self.storage.lock().unwrap() = *frame.data.read().unwrap();
        }
        true
    }

    /// The value a fresh reader would observe: cached frame, else storage.
    fn read_through(&self) -> u64 {
        match self.pin() {
            Some(frame) => *frame.data.read().unwrap(),
            None => *self.storage.lock().unwrap(),
        }
    }
}

/// A writer (pin → mutate → mark dirty) racing the evictor: the write must
/// never be lost, whether it lands before or after the eviction decision.
#[test]
fn evict_racing_writer_never_loses_the_write() {
    loom::model(|| {
        let pool = Arc::new(Pool::new(7, false));

        let writer = {
            let pool = Arc::clone(&pool);
            thread::spawn(move || pool.write(8))
        };
        let evictor = {
            let pool = Arc::clone(&pool);
            thread::spawn(move || pool.evict())
        };

        let wrote = writer.join().unwrap();
        let evicted = evictor.join().unwrap();

        let observed = pool.read_through();
        if wrote {
            assert_eq!(observed, 8, "write lost (evicted={evicted})");
        } else {
            assert_eq!(observed, 7);
        }
    });
}

/// While a reader holds a pin, eviction must refuse: the pin re-check under
/// the shard lock is what makes the scan-then-evict window safe.
#[test]
fn pinned_frame_is_never_evicted() {
    loom::model(|| {
        let pool = Arc::new(Pool::new(3, false));

        // Pin on the main thread and hold it across the evictor's run.
        let pinned = pool.pin().expect("frame present");

        let evictor = {
            let pool = Arc::clone(&pool);
            thread::spawn(move || pool.evict())
        };
        let reader = {
            let pinned = Arc::clone(&pinned);
            thread::spawn(move || *pinned.data.read().unwrap())
        };

        let evicted = evictor.join().unwrap();
        let seen = reader.join().unwrap();

        assert!(!evicted, "evicted a pinned frame");
        assert_eq!(seen, 3);
        assert!(
            pool.pin().is_some(),
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
            thread::spawn(move || pool.write(8))
        };
        let evictor = {
            let pool = Arc::clone(&pool);
            thread::spawn(move || pool.evict())
        };

        let wrote = writer.join().unwrap();
        let evicted = evictor.join().unwrap();

        let stored = *pool.storage.lock().unwrap();
        assert_ne!(stored, 8, "the open transaction's write reached storage");
        if evicted {
            assert_eq!(stored, 7, "an evicted committed frame went home");
        }
        if wrote {
            assert_eq!(pool.read_through(), 8);
            pool.txn_active.store(false, Ordering::Release);
            assert!(pool.evict(), "a committed frame is evictable");
            assert_eq!(*pool.storage.lock().unwrap(), 8);
        } else {
            assert_eq!(pool.read_through(), 7);
        }
    });
}
