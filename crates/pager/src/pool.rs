//! The buffer pool.
//!
//! Frames are reference-counted: a [`PageHandle`] keeps its frame pinned, and
//! a frame is evictable exactly when no handle to it is alive. LRU order is
//! maintained with a monotone clock stamp per frame (simple and adequate for
//! pool sizes in the thousands).
//!
//! **Concurrency model.** The pool is fully thread-safe: the frame table is
//! sharded across [`SHARD_COUNT`] `RwLock`-protected maps (hits take one
//! shard read lock and touch only atomics), the storage sits behind a
//! `Mutex`, and [`IoStats`] counters are atomic. Misses and evictions
//! serialize per shard: a miss holds its shard's write lock across the
//! check-read-install sequence, and an eviction holds the victim's shard
//! write lock across the remove-writeback sequence, so a page can never be
//! re-read from storage while its dirty frame is mid-writeback. At most one
//! shard lock is held at a time (the storage mutex nests strictly inside),
//! which rules out lock-order deadlocks.
//!
//! **Capacity.** `max_frames` is enforced at miss time: installing a frame
//! into a full pool first evicts the least-recently-used *unpinned* frame
//! (flushing it if dirty). If every frame is pinned the pool does not grow;
//! the miss fails with [`crate::PagerError::PoolExhausted`]. Concurrent
//! misses may transiently overshoot the cap by at most the number of racing
//! threads; each subsequent install shrinks the pool back below `max_frames`.
//!
//! **Transactions.** A frame's state records two separate facts: it *owes*
//! its home file bytes storage has not seen, and the open transaction
//! *wrote* it. A commit writes nothing back: the owner's write-ahead log
//! holds the transaction, and its frames simply stop being the
//! transaction's. Eviction and [`BufferPool::flush`] write back any frame
//! that owes — a committed frame's log record is already durable (the WAL
//! rule) — but never one the open transaction wrote (no-steal). Rollback
//! gives each page the transaction rewrote its before-image back from the
//! pool's [`CaptureCell`]: the frame may hold committed bytes its home file
//! has never seen, so dropping it would lose them.

use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::error::{PagerError, PagerResult};
use crate::mvcc::CaptureCell;
use crate::stats::IoStats;
use crate::storage::{PageId, Storage};

/// Number of independently locked frame-map shards. A small power of two:
/// enough to keep eight query threads from colliding on one lock, cheap
/// enough to scan exhaustively during eviction.
const SHARD_COUNT: usize = 16;

#[inline]
fn shard_of(id: PageId) -> usize {
    // Fibonacci hashing spreads sequential page ids across shards.
    (id.wrapping_mul(0x9E37_79B9) >> 16) as usize % SHARD_COUNT
}

/// Frame state bit: the frame holds bytes its home file has not seen.
const OWES_HOME: u8 = 1;
/// Frame state bit: the open transaction wrote the frame.
const TXN_WROTE: u8 = 2;

#[derive(Debug)]
struct Frame {
    data: Arc<RwLock<Box<[u8]>>>,
    state: Arc<AtomicU8>,
    last_used: AtomicU64,
}

impl Frame {
    /// A frame is pinned while any [`PageHandle`] to it is alive; the map's
    /// own `Arc` is the only other holder.
    fn is_pinned(&self) -> bool {
        Arc::strong_count(&self.data) > 1
    }

    /// May the frame's bytes go to storage — not while the open
    /// transaction (`in_txn`) has written them?
    fn may_write_back(&self, in_txn: bool) -> bool {
        !(in_txn && self.state.load(Ordering::Acquire) & TXN_WROTE != 0)
    }
}

type Shard = HashMap<PageId, Frame>;

/// A pinned page. Holding the handle keeps the page in the pool; dropping it
/// makes the frame evictable again. Obtain the bytes with [`PageHandle::read`]
/// or [`PageHandle::write`] (the latter marks the page dirty).
#[derive(Clone)]
pub struct PageHandle {
    id: PageId,
    data: Arc<RwLock<Box<[u8]>>>,
    state: Arc<AtomicU8>,
    /// The owning pool's capture cell: the first write to this page inside
    /// a transaction publishes its before-image for snapshot readers
    /// *before* mutating the frame. `None` only for cache-less handles.
    capture: Option<Arc<CaptureCell>>,
}

impl std::fmt::Debug for PageHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageHandle").field("id", &self.id).finish()
    }
}

/// Shared read access to a page's bytes (an RAII guard).
pub struct PageRead<'a>(RwLockReadGuard<'a, Box<[u8]>>);

impl Deref for PageRead<'_> {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

/// Exclusive write access to a page's bytes (an RAII guard).
pub struct PageWrite<'a>(RwLockWriteGuard<'a, Box<[u8]>>);

impl Deref for PageWrite<'_> {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl DerefMut for PageWrite<'_> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.0
    }
}

/// Recover the guard from a poisoned lock: the page bytes are plain data
/// whose invariants are re-checked on decode, so a panic in another thread
/// (only possible in tests — the query path is panic-free) must not cascade.
#[inline]
fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

#[inline]
fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

#[inline]
fn mutex_lock<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(|e| e.into_inner())
}

impl PageHandle {
    /// Page id this handle refers to.
    pub fn id(&self) -> PageId {
        self.id
    }

    /// Immutable view of the page bytes. Concurrent readers do not block
    /// each other; a writer in another thread blocks until they finish.
    pub fn read(&self) -> PageRead<'_> {
        PageRead(read_lock(&self.data))
    }

    /// Mutable view of the page bytes; marks the page as owing its home
    /// file and as written by the open transaction. If the pool's capture
    /// cell is active and this is the page's first write in the
    /// transaction, its before-image is published *before* the write lock
    /// is taken, so snapshot readers re-checking the cell never observe
    /// mid-transaction bytes.
    pub fn write(&self) -> PageWrite<'_> {
        if let Some(cell) = &self.capture {
            if cell.needs(self.id) {
                cell.capture(self.id, &read_lock(&self.data));
            }
        }
        self.state.fetch_or(OWES_HOME | TXN_WROTE, Ordering::AcqRel);
        PageWrite(write_lock(&self.data))
    }
}

/// An LRU buffer pool over a [`Storage`].
///
/// All methods take `&self`; the pool is `Sync` whenever the storage is
/// `Send`, so one pool can be shared across query threads behind an `Arc`.
#[derive(Debug)]
pub struct BufferPool<S: Storage> {
    storage: Mutex<S>,
    shards: Vec<RwLock<Shard>>,
    /// Total frames across all shards (may transiently exceed `capacity`
    /// while concurrent misses race; see module docs).
    frames: AtomicUsize,
    /// Monotone LRU clock.
    clock: AtomicU64,
    capacity: usize,
    page_size: usize,
    stats: IoStats,
    /// While a [`TxnHandle`] is open, the frames it wrote must not be
    /// written back (no-steal): the write-ahead log has not seen them yet.
    /// Eviction and flush skip them while this is set.
    txn_active: AtomicBool,
    /// Process-unique pool identity (monotone, never reused), so caches
    /// outside the pool — e.g. the per-worker first tier in
    /// [`crate::local_cache`] — can key entries by pool without holding an
    /// `Arc` back to it.
    instance: u64,
    /// Before-image capture for MVCC snapshot readers (see [`crate::mvcc`]).
    capture: Arc<CaptureCell>,
}

impl<S: Storage> BufferPool<S> {
    /// Default number of frames. The paper's premise is that page *headers*
    /// fit in memory but page *contents* do not; a modest pool models that.
    pub const DEFAULT_CAPACITY: usize = 256;

    /// Create a pool with the default capacity.
    pub fn new(storage: S) -> Self {
        Self::with_capacity(storage, Self::DEFAULT_CAPACITY)
    }

    /// Create a pool holding at most `capacity` frames. A capacity of 0
    /// disables caching entirely (every get is a physical read) — used by
    /// tests that want raw I/O counts.
    pub fn with_capacity(storage: S, capacity: usize) -> Self {
        // Relaxed: the counter only needs uniqueness, not ordering.
        static NEXT_INSTANCE: AtomicU64 = AtomicU64::new(1);
        let page_size = storage.page_size();
        BufferPool {
            storage: Mutex::new(storage),
            shards: (0..SHARD_COUNT)
                .map(|_| RwLock::new(Shard::new()))
                .collect(),
            frames: AtomicUsize::new(0),
            clock: AtomicU64::new(0),
            capacity,
            page_size,
            stats: IoStats::default(),
            txn_active: AtomicBool::new(false),
            capture: Arc::new(CaptureCell::new()),
            instance: NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Process-unique identity of this pool instance (never reused, never
    /// zero). External caches key on it instead of on an address.
    pub fn instance_id(&self) -> u64 {
        self.instance
    }

    /// This pool's before-image capture cell (inactive until a transaction
    /// layer activates it).
    pub fn capture_cell(&self) -> &Arc<CaptureCell> {
        &self.capture
    }

    /// Page size of the underlying storage.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of pages in the underlying storage.
    pub fn page_count(&self) -> u32 {
        mutex_lock(&self.storage).page_count()
    }

    /// Maximum number of cached frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// I/O statistics (shared counters; reset with `stats().reset()`).
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// Number of frames currently cached.
    pub fn cached_frames(&self) -> usize {
        self.frames.load(Ordering::Acquire)
    }

    #[inline]
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// A pin on a cached frame.
    fn handle_to(&self, id: PageId, frame: &Frame) -> PageHandle {
        PageHandle {
            id,
            data: Arc::clone(&frame.data),
            state: Arc::clone(&frame.state),
            capture: Some(Arc::clone(&self.capture)),
        }
    }

    /// Fetch page `id`, reading it from storage on a miss.
    pub fn get(&self, id: PageId) -> PagerResult<PageHandle> {
        self.stats.count_get();
        if self.capacity == 0 {
            // Cache-less mode: always a physical read, never retained.
            let mut buf = vec![0u8; self.page_size].into_boxed_slice();
            mutex_lock(&self.storage).read_page(id, &mut buf)?;
            self.stats.count_read();
            return Ok(PageHandle {
                id,
                data: Arc::new(RwLock::new(buf)),
                state: Arc::new(AtomicU8::new(0)),
                capture: None,
            });
        }
        // Fast path: shard read lock, atomics only.
        {
            let shard = read_lock(&self.shards[shard_of(id)]);
            if let Some(frame) = shard.get(&id) {
                frame.last_used.store(self.tick(), Ordering::Relaxed);
                return Ok(self.handle_to(id, frame));
            }
        }
        // Miss: make room first (never holding two shard locks at once),
        // then re-check and read under the target shard's write lock so a
        // concurrent eviction of the same page cannot interleave its
        // write-back with our read.
        self.make_room()?;
        let handle = {
            let mut shard = write_lock(&self.shards[shard_of(id)]);
            if let Some(frame) = shard.get(&id) {
                // Another thread installed it while we waited.
                frame.last_used.store(self.tick(), Ordering::Relaxed);
                self.handle_to(id, frame)
            } else {
                let mut buf = vec![0u8; self.page_size].into_boxed_slice();
                mutex_lock(&self.storage).read_page(id, &mut buf)?;
                self.stats.count_read();
                self.install_into(&mut shard, id, buf, 0)
            }
        };
        self.shrink_overshoot();
        Ok(handle)
    }

    /// Allocate a fresh zeroed page and return a pinned handle to it.
    pub fn allocate(&self) -> PagerResult<(PageId, PageHandle)> {
        // Make room before touching the storage, so a PoolExhausted failure
        // does not leak a half-allocated page.
        if self.capacity > 0 {
            self.make_room()?;
        }
        let id = mutex_lock(&self.storage).allocate_page()?;
        let buf = vec![0u8; self.page_size].into_boxed_slice();
        if self.capacity == 0 {
            // Cache-less mode: hand out the frame without retaining it. The
            // handle itself still works; the page is simply re-read next
            // time. Dirty data would be lost, so cache-less pools are
            // read-only in practice (only tests use them).
            return Ok((
                id,
                PageHandle {
                    id,
                    data: Arc::new(RwLock::new(buf)),
                    state: Arc::new(AtomicU8::new(OWES_HOME | TXN_WROTE)),
                    capture: None,
                },
            ));
        }
        let handle = {
            let mut shard = write_lock(&self.shards[shard_of(id)]);
            self.install_into(&mut shard, id, buf, OWES_HOME | TXN_WROTE)
        };
        self.shrink_overshoot();
        Ok((id, handle))
    }

    /// Insert a frame into an already write-locked shard.
    fn install_into(&self, shard: &mut Shard, id: PageId, buf: Box<[u8]>, state: u8) -> PageHandle {
        let data = Arc::new(RwLock::new(buf));
        let state = Arc::new(AtomicU8::new(state));
        shard.insert(
            id,
            Frame {
                data: Arc::clone(&data),
                state: Arc::clone(&state),
                last_used: AtomicU64::new(self.tick()),
            },
        );
        self.frames.fetch_add(1, Ordering::AcqRel);
        PageHandle {
            id,
            data,
            state,
            capture: Some(Arc::clone(&self.capture)),
        }
    }

    /// Evict LRU unpinned frames until there is room for one more. Pinned
    /// frames (live handles) are never evicted; when every frame is pinned
    /// the miss fails with [`PagerError::PoolExhausted`] instead of growing
    /// the pool past its budget.
    fn make_room(&self) -> PagerResult<()> {
        while self.frames.load(Ordering::Acquire) >= self.capacity {
            if !self.evict_one()? {
                return Err(PagerError::PoolExhausted {
                    capacity: self.capacity,
                });
            }
        }
        Ok(())
    }

    /// Best-effort correction after a racing overshoot: evict (without
    /// failing) until the pool is back within capacity.
    fn shrink_overshoot(&self) {
        while self.frames.load(Ordering::Acquire) > self.capacity {
            match self.evict_one() {
                Ok(true) => continue,
                // Nothing evictable or a write-back error: leave the
                // overshoot for the next miss to repair.
                Ok(false) | Err(_) => break,
            }
        }
    }

    /// Evict the least-recently-used unpinned frame, if any, writing it back
    /// if it owes its home file. Returns whether a frame was evicted.
    fn evict_one(&self) -> PagerResult<bool> {
        let in_txn = self.txn_active.load(Ordering::Acquire);
        // Scan for the global LRU victim (read locks only).
        let victim: Option<(PageId, u64)> = {
            let mut best: Option<(PageId, u64)> = None;
            for shard in &self.shards {
                let shard = read_lock(shard);
                for (&id, frame) in shard.iter() {
                    if frame.is_pinned() || !frame.may_write_back(in_txn) {
                        continue;
                    }
                    let stamp = frame.last_used.load(Ordering::Relaxed);
                    if best.is_none_or(|(_, b)| stamp < b) {
                        best = Some((id, stamp));
                    }
                }
            }
            best
        };
        let Some((id, _)) = victim else {
            return Ok(false);
        };
        // Remove under the shard's write lock, re-checking the pin: a get()
        // may have cloned the frame between our scan and this lock. Holding
        // the write lock across the dirty write-back keeps any concurrent
        // miss on the same page ordered after it.
        let mut shard = write_lock(&self.shards[shard_of(id)]);
        let still_evictable = shard
            .get(&id)
            .is_some_and(|f| !f.is_pinned() && f.may_write_back(in_txn));
        if !still_evictable {
            return Ok(true); // someone pinned or evicted it; count as progress
        }
        let Some(frame) = shard.remove(&id) else {
            return Ok(true);
        };
        self.frames.fetch_sub(1, Ordering::AcqRel);
        if frame.state.load(Ordering::Acquire) & OWES_HOME != 0 {
            let result = mutex_lock(&self.storage).write_page(id, &read_lock(&frame.data));
            if let Err(e) = result {
                // Reinstall rather than lose the dirty frame.
                self.frames.fetch_add(1, Ordering::AcqRel);
                shard.insert(id, frame);
                return Err(e);
            }
            self.stats.count_write();
        }
        self.stats.count_eviction();
        Ok(true)
    }

    /// Write every frame that owes its home file back to storage and sync
    /// it — except, while a transaction is open, the frames it wrote. The
    /// owner runs it outside its transactions (the checkpoint).
    pub fn flush(&self) -> PagerResult<()> {
        let in_txn = self.txn_active.load(Ordering::Acquire);
        for shard in &self.shards {
            let shard = read_lock(shard);
            for (&id, frame) in shard.iter() {
                // fetch_and() so a racing write that re-dirties the page
                // after our write-back is not silently marked clean.
                if frame.may_write_back(in_txn)
                    && frame.state.fetch_and(!OWES_HOME, Ordering::AcqRel) & OWES_HOME != 0
                {
                    let result = mutex_lock(&self.storage).write_page(id, &read_lock(&frame.data));
                    if let Err(e) = result {
                        frame.state.fetch_or(OWES_HOME, Ordering::AcqRel);
                        return Err(e);
                    }
                    self.stats.count_write();
                }
            }
        }
        mutex_lock(&self.storage).sync()
    }

    /// Drop every *unpinned* cached frame (flushing dirty ones), so following
    /// reads are physical. Used between measured queries to cold-start the
    /// cache.
    pub fn clear_cache(&self) -> PagerResult<()> {
        self.flush()?;
        for shard in &self.shards {
            let mut shard = write_lock(shard);
            let before = shard.len();
            shard.retain(|_, f| f.is_pinned());
            self.frames
                .fetch_sub(before - shard.len(), Ordering::AcqRel);
        }
        Ok(())
    }

    /// Consume the pool, flushing and returning the storage.
    pub fn into_storage(self) -> PagerResult<S> {
        self.flush()?;
        Ok(self.storage.into_inner().unwrap_or_else(|e| e.into_inner()))
    }

    /// Undo the open transaction's writes: a page it allocated (id at or
    /// past `start_pages`) is dropped, a page it rewrote gets its
    /// before-image back and keeps owing its home file.
    fn roll_back(&self, start_pages: PageId) {
        let images = self.capture.current();
        for shard in &self.shards {
            let mut shard = write_lock(shard);
            let before = shard.len();
            shard.retain(|&id, f| {
                if f.state.load(Ordering::Acquire) & TXN_WROTE == 0 {
                    return true;
                }
                let image = images.as_ref().filter(|_| id < start_pages);
                let Some(image) = image.and_then(|m| m.get(id)) else {
                    return false;
                };
                write_lock(&f.data).copy_from_slice(&image);
                f.state.fetch_and(!TXN_WROTE, Ordering::AcqRel);
                true
            });
            self.frames
                .fetch_sub(before - shard.len(), Ordering::AcqRel);
        }
    }

    /// Begin a transaction: arm before-image capture (rollback restores
    /// from it), forget which frames earlier writes touched, and switch the
    /// pool to no-steal mode. Writes nothing.
    pub fn begin_txn(self: &Arc<Self>) -> TxnHandle<S> {
        self.capture.activate(0);
        for shard in &self.shards {
            for frame in read_lock(shard).values() {
                frame.state.fetch_and(!TXN_WROTE, Ordering::AcqRel);
            }
        }
        self.txn_active.store(true, Ordering::Release);
        TxnHandle {
            start_pages: self.page_count(),
            pool: Arc::clone(self),
            done: false,
        }
    }
}

/// One pool's share of a multi-pool transaction (see `nok-core`'s update
/// path): created by [`BufferPool::begin_txn`], ended by exactly one of
/// [`TxnHandle::commit`] or [`TxnHandle::abort`]. Dropping an unfinished
/// handle aborts best-effort.
///
/// While the handle lives, the pool is in no-steal mode: the frames it
/// wrote stay in memory, [`TxnHandle::written_pages`] is exactly its write
/// set, and [`TxnHandle::abort`] can undo it from the before-images and by
/// truncating the storage back to its starting page count.
#[derive(Debug)]
pub struct TxnHandle<S: Storage> {
    pool: Arc<BufferPool<S>>,
    start_pages: u32,
    done: bool,
}

impl<S: Storage> TxnHandle<S> {
    /// The pool this transaction covers.
    pub fn pool(&self) -> &BufferPool<S> {
        &self.pool
    }

    /// Page count when the transaction began.
    pub fn start_pages(&self) -> u32 {
        self.start_pages
    }

    /// This transaction's write set: a pin on every frame it wrote, sorted
    /// by page id; the bytes are read through the handles, not copied.
    pub fn written_pages(&self) -> Vec<PageHandle> {
        let mut pages = Vec::new();
        for shard in &self.pool.shards {
            for (&id, frame) in read_lock(shard).iter() {
                if frame.state.load(Ordering::Acquire) & TXN_WROTE != 0 {
                    pages.push(self.pool.handle_to(id, frame));
                }
            }
        }
        pages.sort_by_key(PageHandle::id);
        pages
    }

    /// End the transaction, writing nothing: its frames become committed
    /// frames that owe their home file, written back at eviction or at the
    /// owner's checkpoint — the owner's write-ahead log already holds them
    /// (without a log the commit is atomic in memory, not durable). The
    /// before-images are retired unless the owner's MVCC layer already
    /// froze them into a generation.
    pub fn commit(&mut self) {
        if self.done {
            return;
        }
        self.done = true;
        self.pool.txn_active.store(false, Ordering::Release);
        if let Some(images) = self.pool.capture.current().filter(|m| !m.is_empty()) {
            self.pool.capture.reset(images.stamp);
        }
    }

    /// Undo the write set: restore what it rewrote, drop what it allocated
    /// and truncate the storage back to the starting page count.
    pub fn abort(&mut self) -> PagerResult<()> {
        if self.done {
            return Ok(());
        }
        self.done = true;
        self.pool.roll_back(self.start_pages);
        self.pool.txn_active.store(false, Ordering::Release);
        mutex_lock(&self.pool.storage).truncate_pages(self.start_pages)?;
        Ok(())
    }
}

impl<S: Storage> Drop for TxnHandle<S> {
    fn drop(&mut self) {
        if !self.done {
            let _ = self.abort();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;

    fn pool_with_pages(n: u32, capacity: usize) -> BufferPool<MemStorage> {
        let pool = BufferPool::with_capacity(MemStorage::with_page_size(128), capacity);
        for i in 0..n {
            let (id, h) = pool.allocate().unwrap();
            assert_eq!(id, i);
            h.write()[0] = i as u8;
            if capacity == 0 {
                // Cache-less pools never write back; seed storage directly.
                let mut buf = vec![0u8; 128];
                buf[0] = i as u8;
                mutex_lock(&pool.storage).write_page(id, &buf).unwrap();
            }
        }
        pool.flush().unwrap();
        pool.clear_cache().unwrap();
        pool.stats().reset();
        pool
    }

    #[test]
    fn get_returns_page_contents() {
        let pool = pool_with_pages(4, 8);
        for i in 0..4 {
            let h = pool.get(i).unwrap();
            assert_eq!(h.read()[0], i as u8);
        }
    }

    #[test]
    fn hits_do_not_touch_storage() {
        let pool = pool_with_pages(2, 8);
        pool.get(0).unwrap();
        pool.get(0).unwrap();
        pool.get(0).unwrap();
        assert_eq!(pool.stats().logical_gets(), 3);
        assert_eq!(pool.stats().physical_reads(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let pool = pool_with_pages(3, 2);
        pool.get(0).unwrap();
        pool.get(1).unwrap(); // pool: {0,1}
        pool.get(2).unwrap(); // evicts 0
        assert_eq!(pool.stats().evictions(), 1);
        pool.get(1).unwrap(); // still cached
        assert_eq!(pool.stats().physical_reads(), 3);
        pool.get(0).unwrap(); // must re-read
        assert_eq!(pool.stats().physical_reads(), 4);
    }

    #[test]
    fn pinned_pages_survive_eviction_pressure() {
        let pool = pool_with_pages(4, 2);
        let pinned = pool.get(0).unwrap();
        pinned.write()[1] = 99;
        for i in 1..4 {
            pool.get(i).unwrap();
        }
        // Frame 0 was pinned the whole time: reading it again must be a hit
        // and must see our modification.
        let before = pool.stats().physical_reads();
        let again = pool.get(0).unwrap();
        assert_eq!(pool.stats().physical_reads(), before);
        assert_eq!(again.read()[1], 99);
    }

    #[test]
    fn dirty_pages_written_back_on_eviction() {
        let pool = pool_with_pages(3, 1);
        {
            let h = pool.get(0).unwrap();
            h.write()[5] = 123;
        }
        pool.get(1).unwrap(); // evicts dirty page 0
        pool.get(2).unwrap();
        let h = pool.get(0).unwrap();
        assert_eq!(h.read()[5], 123);
    }

    #[test]
    fn flush_persists_into_storage() {
        let pool = BufferPool::with_capacity(MemStorage::with_page_size(128), 4);
        let (id, h) = pool.allocate().unwrap();
        h.write()[3] = 77;
        drop(h);
        let mut storage = pool.into_storage().unwrap();
        let mut buf = vec![0u8; 128];
        storage.read_page(id, &mut buf).unwrap();
        assert_eq!(buf[3], 77);
    }

    #[test]
    fn clear_cache_forces_physical_reads() {
        let pool = pool_with_pages(2, 8);
        pool.get(0).unwrap();
        pool.clear_cache().unwrap();
        pool.stats().reset();
        pool.get(0).unwrap();
        assert_eq!(pool.stats().physical_reads(), 1);
    }

    #[test]
    fn zero_capacity_pool_always_reads() {
        let pool = pool_with_pages(2, 0);
        pool.get(0).unwrap();
        pool.get(0).unwrap();
        assert_eq!(pool.stats().physical_reads(), 2);
    }

    #[test]
    fn handle_clone_shares_frame() {
        let pool = pool_with_pages(1, 4);
        let a = pool.get(0).unwrap();
        let b = a.clone();
        a.write()[0] = 9;
        assert_eq!(b.read()[0], 9);
    }

    #[test]
    fn pool_exhausted_when_every_frame_pinned() {
        let pool = pool_with_pages(3, 2);
        let _a = pool.get(0).unwrap();
        let _b = pool.get(1).unwrap();
        match pool.get(2) {
            Err(PagerError::PoolExhausted { capacity }) => assert_eq!(capacity, 2),
            other => panic!("expected PoolExhausted, got {other:?}"),
        }
        // Dropping a pin makes the get succeed again.
        drop(_a);
        assert!(pool.get(2).is_ok());
    }

    #[test]
    fn capacity_is_enforced_under_churn() {
        let pool = pool_with_pages(64, 8);
        for round in 0..4 {
            for i in 0..64 {
                pool.get((i * 7 + round) % 64).unwrap();
                assert!(pool.cached_frames() <= 8, "pool grew past its capacity");
            }
        }
    }

    #[test]
    fn concurrent_hammer_returns_correct_bytes() {
        let pool = std::sync::Arc::new(pool_with_pages(32, 8));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let pool = std::sync::Arc::clone(&pool);
                std::thread::spawn(move || {
                    for i in 0..400u32 {
                        let id = (i * 13 + t) % 32;
                        let h = pool.get(id).unwrap();
                        assert_eq!(h.read()[0], id as u8);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // Transient overshoot must have settled back within capacity.
        assert!(pool.cached_frames() <= 8 + 8);
        let s = pool.stats();
        assert_eq!(s.logical_gets(), 8 * 400);
        assert!(s.physical_reads() >= 32 as u64);
    }

    #[test]
    fn txn_abort_restores_pre_transaction_state() {
        let pool = Arc::new(BufferPool::with_capacity(
            MemStorage::with_page_size(128),
            8,
        ));
        let (p0, h) = pool.allocate().unwrap();
        h.write()[0] = 1;
        drop(h);
        pool.flush().unwrap();

        let mut txn = pool.begin_txn();
        pool.get(p0).unwrap().write()[0] = 99;
        let (p1, h1) = pool.allocate().unwrap();
        h1.write()[0] = 42;
        drop(h1);
        let pages = txn.written_pages();
        assert_eq!(
            pages.iter().map(PageHandle::id).collect::<Vec<_>>(),
            vec![p0, p1]
        );
        assert_eq!((pages[0].read()[0], pages[1].read()[0]), (99, 42));
        drop(pages);
        txn.abort().unwrap();

        assert_eq!(pool.page_count(), 1);
        assert_eq!(pool.get(p0).unwrap().read()[0], 1);
    }

    #[test]
    fn txn_commit_persists_and_drop_aborts() {
        let pool = Arc::new(BufferPool::with_capacity(
            MemStorage::with_page_size(128),
            8,
        ));
        {
            let mut txn = pool.begin_txn();
            let (_, h) = pool.allocate().unwrap();
            h.write()[0] = 7;
            drop(h);
            txn.commit();
        }
        assert_eq!(pool.page_count(), 1);
        {
            let _txn = pool.begin_txn();
            let (_, h) = pool.allocate().unwrap();
            h.write()[0] = 8;
            drop(h);
            // Dropped without commit: aborts.
        }
        assert_eq!(pool.page_count(), 1);
        assert_eq!(pool.get(0).unwrap().read()[0], 7);
    }

    /// Byte 0 of `page` as storage holds it.
    fn stored(pool: &BufferPool<MemStorage>, page: PageId) -> u8 {
        let mut buf = vec![0u8; pool.page_size()];
        mutex_lock(&pool.storage).read_page(page, &mut buf).unwrap();
        buf[0]
    }

    #[test]
    fn no_steal_keeps_dirty_frames_during_txn() {
        // Capacity 2, both frames dirty inside a txn: a miss on a third page
        // must fail with PoolExhausted rather than steal (write back) an
        // uncommitted frame.
        let pool = Arc::new(BufferPool::with_capacity(
            MemStorage::with_page_size(128),
            2,
        ));
        for _ in 0..3 {
            pool.allocate().unwrap();
        }
        pool.flush().unwrap();
        pool.clear_cache().unwrap();
        let mut txn = pool.begin_txn();
        for i in 0..2 {
            pool.get(i).unwrap().write()[0] = i as u8 + 1;
        }
        assert!(matches!(pool.get(2), Err(PagerError::PoolExhausted { .. })));
        assert_eq!(stored(&pool, 0), 0, "dirty frame leaked to storage mid-txn");
        assert_eq!(txn.written_pages().len(), 2);
        txn.commit();
        assert_eq!(stored(&pool, 0), 0, "a commit writes nothing back");
        // Out of the txn, the miss succeeds again: it evicts page 0, the
        // least recently used, and that eviction writes it back.
        assert!(pool.get(2).is_ok());
        assert_eq!((stored(&pool, 0), stored(&pool, 1)), (1, 0));
        pool.flush().unwrap();
        assert_eq!(stored(&pool, 1), 2, "the flush writes back the rest");
    }

    /// A pool over pages `0..n` holding `i + 1` at byte 0, synced and
    /// cached, with a committed transaction that rewrote page 0 to 50 —
    /// bytes that reached no storage.
    fn pool_with_committed_unwritten_page(n: u32, capacity: usize) -> Arc<BufferPool<MemStorage>> {
        let pool = Arc::new(pool_with_pages(n, capacity));
        for i in 0..n {
            pool.get(i).unwrap().write()[0] = i as u8 + 1;
        }
        pool.flush().unwrap();
        let mut txn = pool.begin_txn();
        pool.get(0).unwrap().write()[0] = 50;
        txn.commit();
        assert_eq!(stored(&pool, 0), 1);
        pool.stats().reset();
        pool
    }

    #[test]
    fn rollback_restores_a_page_holding_committed_unwritten_bytes() {
        let pool = pool_with_committed_unwritten_page(2, 4);
        let mut txn = pool.begin_txn();
        pool.get(0).unwrap().write()[0] = 60;
        pool.get(1).unwrap().write()[0] = 61;
        txn.abort().unwrap();
        assert_eq!(pool.get(0).unwrap().read()[0], 50, "committed bytes kept");
        assert_eq!(pool.get(1).unwrap().read()[0], 2);
        // They still owe storage, and get there at the next flush.
        pool.flush().unwrap();
        assert_eq!(stored(&pool, 0), 50);
    }

    #[test]
    fn begin_txn_writes_nothing() {
        let pool = pool_with_committed_unwritten_page(2, 4);
        let mut txn = pool.begin_txn();
        assert_eq!(pool.stats().physical_writes(), 0);
        assert_eq!(stored(&pool, 0), 1);
        assert!(
            txn.written_pages().is_empty(),
            "earlier writes are not this txn's"
        );
        txn.commit();
    }

    /// Inside a transaction, eviction may write back a committed frame
    /// (its log record is durable) but never one the transaction wrote.
    #[test]
    fn eviction_in_a_txn_writes_committed_frames_never_the_txns_own() {
        let pool = pool_with_committed_unwritten_page(4, 2);
        let mut txn = pool.begin_txn();
        pool.get(1).unwrap().write()[0] = 71;
        // Page 0 (committed, owing) and page 1 (this txn's) fill the pool;
        // the miss on page 2 can only evict page 0, writing it back.
        pool.get(2).unwrap();
        assert_eq!(stored(&pool, 0), 50);
        // Now pages 1 and 2 are cached: the next miss evicts the clean 2.
        pool.get(3).unwrap();
        assert_eq!(pool.stats().physical_writes(), 1);
        assert_eq!(stored(&pool, 1), 2, "the txn's frame never left");
        txn.abort().unwrap();
        assert_eq!(pool.get(1).unwrap().read()[0], 2);
    }

    #[test]
    fn pool_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BufferPool<MemStorage>>();
        assert_send_sync::<PageHandle>();
    }
}
