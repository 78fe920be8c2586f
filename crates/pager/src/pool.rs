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

use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
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

#[derive(Debug)]
struct Frame {
    data: Arc<RwLock<Box<[u8]>>>,
    dirty: Arc<AtomicBool>,
    last_used: AtomicU64,
}

impl Frame {
    /// A frame is pinned while any [`PageHandle`] to it is alive; the map's
    /// own `Arc` is the only other holder.
    fn is_pinned(&self) -> bool {
        Arc::strong_count(&self.data) > 1
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
    dirty: Arc<AtomicBool>,
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

    /// Mutable view of the page bytes; marks the page dirty. If the pool's
    /// capture cell is active and this is the page's first write in the
    /// transaction, its before-image is published *before* the write lock
    /// is taken, so snapshot readers re-checking the cell never observe
    /// mid-transaction bytes.
    pub fn write(&self) -> PageWrite<'_> {
        if let Some(cell) = &self.capture {
            if cell.needs(self.id) {
                cell.capture(self.id, &read_lock(&self.data));
            }
        }
        self.dirty.store(true, Ordering::Release);
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
    /// While a [`TxnHandle`] is open, dirty frames must not be written back
    /// (no-steal): rollback discards them, and the write-ahead log has not
    /// seen them yet. Eviction skips dirty frames while this is set.
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
            dirty: Arc::clone(&frame.dirty),
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
                dirty: Arc::new(AtomicBool::new(false)),
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
                self.install_into(&mut shard, id, buf, false)
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
                    dirty: Arc::new(AtomicBool::new(true)),
                    capture: None,
                },
            ));
        }
        let handle = {
            let mut shard = write_lock(&self.shards[shard_of(id)]);
            self.install_into(&mut shard, id, buf, true)
        };
        self.shrink_overshoot();
        Ok((id, handle))
    }

    /// Insert a frame into an already write-locked shard.
    fn install_into(
        &self,
        shard: &mut Shard,
        id: PageId,
        buf: Box<[u8]>,
        dirty: bool,
    ) -> PageHandle {
        let data = Arc::new(RwLock::new(buf));
        let dirty = Arc::new(AtomicBool::new(dirty));
        shard.insert(
            id,
            Frame {
                data: Arc::clone(&data),
                dirty: Arc::clone(&dirty),
                last_used: AtomicU64::new(self.tick()),
            },
        );
        self.frames.fetch_add(1, Ordering::AcqRel);
        PageHandle {
            id,
            data,
            dirty,
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

    /// Evict the least-recently-used unpinned frame, if any. Returns whether
    /// a frame was evicted.
    fn evict_one(&self) -> PagerResult<bool> {
        let no_steal = self.txn_active.load(Ordering::Acquire);
        // Scan for the global LRU victim (read locks only).
        let victim: Option<(PageId, u64)> = {
            let mut best: Option<(PageId, u64)> = None;
            for shard in &self.shards {
                let shard = read_lock(shard);
                for (&id, frame) in shard.iter() {
                    if frame.is_pinned() || (no_steal && frame.dirty.load(Ordering::Acquire)) {
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
            .is_some_and(|f| !f.is_pinned() && !(no_steal && f.dirty.load(Ordering::Acquire)));
        if !still_evictable {
            return Ok(true); // someone pinned or evicted it; count as progress
        }
        let Some(frame) = shard.remove(&id) else {
            return Ok(true);
        };
        self.frames.fetch_sub(1, Ordering::AcqRel);
        if frame.dirty.load(Ordering::Acquire) {
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

    /// Write every dirty frame back to storage, leaving the frames clean
    /// and the storage unsynced.
    pub fn write_back(&self) -> PagerResult<()> {
        for shard in &self.shards {
            let shard = read_lock(shard);
            for (&id, frame) in shard.iter() {
                // swap() so a racing write that re-dirties the page after
                // our write-back is not silently marked clean.
                if frame.dirty.swap(false, Ordering::AcqRel) {
                    let result = mutex_lock(&self.storage).write_page(id, &read_lock(&frame.data));
                    if let Err(e) = result {
                        frame.dirty.store(true, Ordering::Release);
                        return Err(e);
                    }
                    self.stats.count_write();
                }
            }
        }
        Ok(())
    }

    /// Write every dirty frame back to storage and sync it.
    pub fn flush(&self) -> PagerResult<()> {
        self.write_back()?;
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

    /// Is any frame dirty?
    fn has_dirty(&self) -> bool {
        self.shards.iter().any(|s| {
            read_lock(s)
                .values()
                .any(|f| f.dirty.load(Ordering::Acquire))
        })
    }

    /// Pin every dirty frame, sorted by page id; the bytes are read through
    /// the handles, not copied. The caller must ensure no concurrent writers
    /// (updates hold `&mut` on the owning database).
    pub fn dirty_pages(&self) -> Vec<PageHandle> {
        let mut pages = Vec::new();
        for shard in &self.shards {
            let shard = read_lock(shard);
            for (&id, frame) in shard.iter() {
                if frame.dirty.load(Ordering::Acquire) {
                    pages.push(self.handle_to(id, frame));
                }
            }
        }
        pages.sort_by_key(PageHandle::id);
        pages
    }

    /// Drop every dirty frame without writing it back (rollback).
    fn discard_dirty(&self) {
        for shard in &self.shards {
            let mut shard = write_lock(shard);
            let before = shard.len();
            shard.retain(|_, f| !f.dirty.load(Ordering::Acquire));
            self.frames
                .fetch_sub(before - shard.len(), Ordering::AcqRel);
        }
    }

    /// Begin a transaction: flush any pre-existing dirty frames (rollback
    /// must only discard *this* transaction's work), then switch the pool to
    /// no-steal mode.
    pub fn begin_txn(self: &Arc<Self>) -> PagerResult<TxnHandle<S>> {
        if self.has_dirty() {
            self.flush()?;
        }
        self.txn_active.store(true, Ordering::Release);
        Ok(TxnHandle {
            start_pages: self.page_count(),
            pool: Arc::clone(self),
            done: false,
        })
    }
}

/// One pool's share of a multi-pool transaction (see `nok-core`'s update
/// path): created by [`BufferPool::begin_txn`], ended by exactly one of
/// [`TxnHandle::commit`], [`TxnHandle::abort`] or [`TxnHandle::detach`].
/// Dropping an unfinished handle aborts best-effort.
///
/// While the handle lives, the pool is in no-steal mode: dirty frames stay
/// in memory, so [`TxnHandle::dirty_pages`] is exactly the transaction's
/// write set and [`TxnHandle::abort`] can undo it by discarding frames and
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

    /// This transaction's write set (every dirty frame, sorted by id).
    pub fn dirty_pages(&self) -> Vec<PageHandle> {
        self.pool.dirty_pages()
    }

    /// Release the write set to its home storage: leave no-steal mode and
    /// write every dirty frame back, **unsynced** — the write-ahead log
    /// holds the images until the owner's next checkpoint syncs the storage
    /// (without a log the commit is atomic in memory, not durable).
    pub fn commit(&mut self) -> PagerResult<()> {
        if self.done {
            return Ok(());
        }
        self.pool.txn_active.store(false, Ordering::Release);
        self.pool.write_back()?;
        self.done = true;
        Ok(())
    }

    /// Undo the write set: discard dirty frames and truncate the storage
    /// back to the starting page count.
    pub fn abort(&mut self) -> PagerResult<()> {
        if self.done {
            return Ok(());
        }
        self.done = true;
        self.pool.discard_dirty();
        self.pool.txn_active.store(false, Ordering::Release);
        mutex_lock(&self.pool.storage).truncate_pages(self.start_pages)?;
        Ok(())
    }

    /// End the transaction *without* flushing or discarding — used when the
    /// commit point already passed in the write-ahead log but applying the
    /// pages failed: the frames stay dirty for a later retry, and recovery
    /// can always redo them from the log.
    pub fn detach(&mut self) {
        self.done = true;
        self.pool.txn_active.store(false, Ordering::Release);
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

        let mut txn = pool.begin_txn().unwrap();
        pool.get(p0).unwrap().write()[0] = 99;
        let (p1, h1) = pool.allocate().unwrap();
        h1.write()[0] = 42;
        drop(h1);
        let pages = txn.dirty_pages();
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
            let mut txn = pool.begin_txn().unwrap();
            let (_, h) = pool.allocate().unwrap();
            h.write()[0] = 7;
            drop(h);
            txn.commit().unwrap();
        }
        assert_eq!(pool.page_count(), 1);
        {
            let _txn = pool.begin_txn().unwrap();
            let (_, h) = pool.allocate().unwrap();
            h.write()[0] = 8;
            drop(h);
            // Dropped without commit: aborts.
        }
        assert_eq!(pool.page_count(), 1);
        assert_eq!(pool.get(0).unwrap().read()[0], 7);
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
        let mut txn = pool.begin_txn().unwrap();
        for i in 0..2 {
            pool.get(i).unwrap().write()[0] = i as u8 + 1;
        }
        assert!(matches!(pool.get(2), Err(PagerError::PoolExhausted { .. })));
        let mut storage_view = vec![0u8; 128];
        mutex_lock(&pool.storage)
            .read_page(0, &mut storage_view)
            .unwrap();
        assert_eq!(storage_view[0], 0, "dirty frame leaked to storage mid-txn");
        assert_eq!(txn.dirty_pages().len(), 2);
        txn.commit().unwrap();
        mutex_lock(&pool.storage)
            .read_page(0, &mut storage_view)
            .unwrap();
        assert_eq!(storage_view[0], 1);
        // Out of the txn, the miss succeeds again.
        assert!(pool.get(2).is_ok());
    }

    #[test]
    fn pool_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BufferPool<MemStorage>>();
        assert_send_sync::<PageHandle>();
    }
}
