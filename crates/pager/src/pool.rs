//! The buffer pool.
//!
//! **Images.** A frame holds its page as an immutable `Arc<[u8]>`. A reader
//! — live or snapshot — clones that `Arc` ([`BufferPool::image`]): nothing
//! is copied, and the image stays readable after its frame is evicted. A
//! writer changes bytes through [`PageHandle::write`], which gets a unique
//! image with `Arc::make_mut` — copying it only while someone else holds
//! it — so an image a reader holds is never changed. On a page's first
//! write in a transaction the frame's image is recorded, by pointer, as
//! the before-image in the pool's [`CaptureCell`] before the new image is
//! installed; rollback puts that `Arc` back.
//!
//! **Frames and eviction.** The frames form one array (the CLOCK ring)
//! under one mutex, and a page table — sharded across [`SHARD_COUNT`]
//! `RwLock`ed maps — finds a page's frame. A hit takes one shard read lock
//! and sets the frame's reference bit; the frame's own lock is taken after
//! the shard's is released. A miss takes the ring's mutex, so misses,
//! evictions and installs happen one at a time: the hand sweeps the ring,
//! clearing reference bits, and evicts the first frame that is
//! unreferenced, unpinned and not written by the open transaction, writing
//! it back first if it owes its home file. The table entry goes before the
//! write-back, and a miss on that page waits for the ring's mutex, so a
//! page is never re-read from storage while its frame is being written.
//!
//! **Pins and capacity.** A [`PageHandle`] pins its frame (it holds the
//! frame's `Arc`; the ring and the table hold the other two). The pool
//! never holds more than `capacity` frames: when the hand finds nothing to
//! evict in two turns, the miss fails with
//! [`crate::PagerError::PoolExhausted`].
//!
//! **Transactions.** A frame's state records two separate facts: it *owes*
//! its home file bytes storage has not seen, and the open transaction
//! *wrote* it. A commit writes nothing back: the owner's write-ahead log
//! holds the transaction, and its frames simply stop being the
//! transaction's. Eviction and [`BufferPool::flush`] write back any frame
//! that owes — a committed frame's log record is already durable (the WAL
//! rule) — but never one the open transaction wrote (no-steal).

use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::error::{PagerError, PagerResult};
use crate::mvcc::CaptureCell;
use crate::stats::IoStats;
use crate::storage::{PageId, Storage};

/// Number of independently locked page-table shards: enough to keep eight
/// query threads from colliding on one lock.
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

/// Holders of an unpinned cached frame: the ring and the page table.
const UNPINNED: usize = 2;

#[derive(Debug)]
struct Frame {
    id: PageId,
    image: RwLock<Arc<[u8]>>,
    state: AtomicU8,
    /// CLOCK reference bit: set by a hit, cleared by the passing hand.
    referenced: AtomicBool,
}

impl Frame {
    fn new(id: PageId, image: Arc<[u8]>, state: u8) -> Arc<Frame> {
        Arc::new(Frame {
            id,
            image: RwLock::new(image),
            state: AtomicU8::new(state),
            referenced: AtomicBool::new(false),
        })
    }

    fn current_image(&self) -> Arc<[u8]> {
        Arc::clone(&read_lock(&self.image))
    }

    /// May the frame leave the pool: is it unpinned, and are its bytes
    /// not the open transaction's (`in_txn`)?
    fn evictable(self: &Arc<Self>, in_txn: bool) -> bool {
        Arc::strong_count(self) <= UNPINNED
            && !(in_txn && self.state.load(Ordering::Acquire) & TXN_WROTE != 0)
    }
}

/// The frame array and the CLOCK hand.
#[derive(Debug, Default)]
struct Clock {
    ring: Vec<Arc<Frame>>,
    hand: usize,
}

/// A pinned page. Holding the handle keeps the page in the pool; dropping it
/// makes the frame evictable again. Read the bytes with [`PageHandle::read`]
/// or change them with [`PageHandle::write`] (which marks the page dirty).
#[derive(Clone)]
pub struct PageHandle {
    frame: Arc<Frame>,
    /// The owning pool's capture cell: the first write to this page inside
    /// a transaction records its before-image for snapshot readers.
    /// `None` only for cache-less handles.
    capture: Option<Arc<CaptureCell>>,
}

impl std::fmt::Debug for PageHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageHandle")
            .field("id", &self.frame.id)
            .finish()
    }
}

/// Exclusive write access to a page's bytes (an RAII guard over the
/// frame's image; the first mutable access makes the image unique).
pub struct PageWrite<'a>(RwLockWriteGuard<'a, Arc<[u8]>>);

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
        Arc::make_mut(&mut self.0)
    }
}

/// Recover the guard from a poisoned lock: the locks here guard `Arc`
/// swaps and maps whose invariants a panicking thread cannot break (only
/// possible in tests — the query path is panic-free), so it must not
/// cascade.
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
        self.frame.id
    }

    /// The page's current image. It never changes, whatever is written to
    /// the page later.
    pub fn read(&self) -> Arc<[u8]> {
        self.frame.current_image()
    }

    /// Mutable access to the page bytes; marks the page as owing its home
    /// file and as written by the open transaction. If this is the page's
    /// first write in the transaction, the frame's image is recorded as its
    /// before-image *before* the new image replaces it, so a snapshot
    /// reader re-checking the capture cell never uses mid-transaction bytes.
    pub fn write(&self) -> PageWrite<'_> {
        let image = write_lock(&self.frame.image);
        if let Some(cell) = &self.capture {
            cell.capture(self.frame.id, &image);
        }
        self.frame
            .state
            .fetch_or(OWES_HOME | TXN_WROTE, Ordering::AcqRel);
        PageWrite(image)
    }
}

/// A CLOCK buffer pool over a [`Storage`].
///
/// All methods take `&self`; the pool is `Sync` whenever the storage is
/// `Send`, so one pool can be shared across query threads behind an `Arc`.
#[derive(Debug)]
pub struct BufferPool<S: Storage> {
    storage: Mutex<S>,
    /// The page table: page id → frame.
    shards: Vec<RwLock<HashMap<PageId, Arc<Frame>>>>,
    /// The frames and the hand. Held by a miss from its re-check to its
    /// install, and by everything that walks the frames.
    clock: Mutex<Clock>,
    capacity: usize,
    page_size: usize,
    stats: IoStats,
    /// While a [`TxnHandle`] is open, the frames it wrote must not be
    /// written back (no-steal): the write-ahead log has not seen them yet.
    /// Eviction and flush skip them while this is set.
    txn_active: AtomicBool,
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
        let page_size = storage.page_size();
        BufferPool {
            storage: Mutex::new(storage),
            shards: (0..SHARD_COUNT).map(|_| RwLock::default()).collect(),
            clock: Mutex::default(),
            capacity,
            page_size,
            stats: IoStats::default(),
            txn_active: AtomicBool::new(false),
            capture: Arc::new(CaptureCell::new()),
        }
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
        mutex_lock(&self.clock).ring.len()
    }

    /// Fetch and pin page `id`, reading it from storage on a miss.
    pub fn get(&self, id: PageId) -> PagerResult<PageHandle> {
        Ok(PageHandle {
            frame: self.fetch(id)?,
            capture: (self.capacity > 0).then(|| Arc::clone(&self.capture)),
        })
    }

    /// The current image of page `id`, reading it from storage on a miss.
    /// Pins nothing: the image outlives its frame.
    pub fn image(&self, id: PageId) -> PagerResult<Arc<[u8]>> {
        Ok(self.fetch(id)?.current_image())
    }

    /// The current image of page `id` for a one-pass scan: a cached
    /// frame's image, else the page read from storage and not kept, so the
    /// scan leaves the cache as it found it. The miss holds the ring's
    /// mutex, as a miss that installs does, so no write-back is under way.
    pub fn image_uncached(&self, id: PageId) -> PagerResult<Arc<[u8]>> {
        self.stats.count_get();
        if let Some(frame) = self.hit(id) {
            return Ok(frame.current_image());
        }
        let _clock = mutex_lock(&self.clock);
        match self.hit(id) {
            Some(frame) => Ok(frame.current_image()),
            None => self.read_page(id),
        }
    }

    /// The frame of page `id`, installed from storage on a miss. The
    /// caller takes the frame's lock with no pool lock held: a writer
    /// holding one frame's write lock may miss on another page.
    fn fetch(&self, id: PageId) -> PagerResult<Arc<Frame>> {
        self.stats.count_get();
        if self.capacity == 0 {
            // Cache-less mode: always a physical read, never retained.
            return Ok(Frame::new(id, self.read_page(id)?, 0));
        }
        if let Some(frame) = self.hit(id) {
            return Ok(frame);
        }
        let mut clock = mutex_lock(&self.clock);
        // Another miss may have installed it while we waited.
        if let Some(frame) = self.hit(id) {
            return Ok(frame);
        }
        self.make_room(&mut clock)?;
        let image = self.read_page(id)?;
        Ok(self.install(&mut clock, id, image, 0))
    }

    fn hit(&self, id: PageId) -> Option<Arc<Frame>> {
        let shard = read_lock(&self.shards[shard_of(id)]);
        let frame = shard.get(&id)?;
        if !frame.referenced.load(Ordering::Relaxed) {
            frame.referenced.store(true, Ordering::Relaxed);
        }
        Some(Arc::clone(frame))
    }

    fn zeroed(&self) -> Arc<[u8]> {
        std::iter::repeat_n(0, self.page_size).collect()
    }

    fn read_page(&self, id: PageId) -> PagerResult<Arc<[u8]>> {
        let mut image = self.zeroed();
        mutex_lock(&self.storage).read_page(id, Arc::make_mut(&mut image))?;
        self.stats.count_read();
        Ok(image)
    }

    /// Allocate a fresh zeroed page and return a pinned handle to it.
    pub fn allocate(&self) -> PagerResult<(PageId, PageHandle)> {
        let zeroed = self.zeroed();
        let state = OWES_HOME | TXN_WROTE;
        if self.capacity == 0 {
            // Cache-less mode: hand out the frame without retaining it. The
            // handle itself still works; the page is simply re-read next
            // time. Dirty data would be lost, so cache-less pools are
            // read-only in practice (only tests use them).
            let id = mutex_lock(&self.storage).allocate_page()?;
            let frame = Frame::new(id, zeroed, state);
            return Ok((
                id,
                PageHandle {
                    frame,
                    capture: None,
                },
            ));
        }
        // Make room before touching the storage, so a PoolExhausted failure
        // does not leak a half-allocated page.
        let mut clock = mutex_lock(&self.clock);
        self.make_room(&mut clock)?;
        let id = mutex_lock(&self.storage).allocate_page()?;
        let frame = self.install(&mut clock, id, zeroed, state);
        Ok((
            id,
            PageHandle {
                frame,
                capture: Some(Arc::clone(&self.capture)),
            },
        ))
    }

    /// Put a new frame in the ring and in the page table.
    fn install(&self, clock: &mut Clock, id: PageId, image: Arc<[u8]>, state: u8) -> Arc<Frame> {
        let frame = Frame::new(id, image, state);
        write_lock(&self.shards[shard_of(id)]).insert(id, Arc::clone(&frame));
        clock.ring.push(Arc::clone(&frame));
        frame
    }

    /// Room for one more frame: nothing to do below capacity, else the hand
    /// evicts a frame and it leaves the ring. The hand passes a referenced
    /// frame once, clearing its bit, so two turns without a victim mean
    /// every frame is pinned or the open transaction's:
    /// [`PagerError::PoolExhausted`] instead of growing the pool past its
    /// budget.
    fn make_room(&self, clock: &mut Clock) -> PagerResult<()> {
        let n = clock.ring.len();
        if n < self.capacity {
            return Ok(());
        }
        let in_txn = self.txn_active.load(Ordering::Acquire);
        for _ in 0..2 * n {
            let slot = clock.hand % n;
            clock.hand = slot + 1;
            self.stats.count_examined();
            let frame = &clock.ring[slot];
            if !frame.referenced.swap(false, Ordering::Relaxed) && self.evict(frame, in_txn)? {
                clock.ring.swap_remove(slot);
                return Ok(());
            }
        }
        Err(PagerError::PoolExhausted {
            capacity: self.capacity,
        })
    }

    /// Take `frame` out of the page table if it may leave (re-checked
    /// under the shard's write lock, where no new pin can start), writing
    /// it back first if it owes its home file. Runs under the ring's
    /// mutex, so no miss can re-read the page before the write-back ends.
    fn evict(&self, frame: &Arc<Frame>, in_txn: bool) -> PagerResult<bool> {
        if !frame.evictable(in_txn) {
            return Ok(false);
        }
        {
            let mut shard = write_lock(&self.shards[shard_of(frame.id)]);
            if !frame.evictable(in_txn) {
                return Ok(false);
            }
            shard.remove(&frame.id);
        }
        if frame.state.load(Ordering::Acquire) & OWES_HOME != 0 {
            let result = mutex_lock(&self.storage).write_page(frame.id, &frame.current_image());
            if let Err(e) = result {
                // Put it back rather than lose the dirty frame.
                write_lock(&self.shards[shard_of(frame.id)]).insert(frame.id, Arc::clone(frame));
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
        // The frames to write, pinned so no eviction races the write-back.
        let owing: Vec<Arc<Frame>> = mutex_lock(&self.clock)
            .ring
            .iter()
            .filter(|f| f.state.load(Ordering::Acquire) & OWES_HOME != 0)
            .filter(|f| !(in_txn && f.state.load(Ordering::Acquire) & TXN_WROTE != 0))
            .cloned()
            .collect();
        for frame in owing {
            // fetch_and() so a racing write that re-dirties the page after
            // our write-back is not silently marked clean.
            if frame.state.fetch_and(!OWES_HOME, Ordering::AcqRel) & OWES_HOME != 0 {
                let result = mutex_lock(&self.storage).write_page(frame.id, &frame.current_image());
                if let Err(e) = result {
                    frame.state.fetch_or(OWES_HOME, Ordering::AcqRel);
                    return Err(e);
                }
                self.stats.count_write();
            }
        }
        mutex_lock(&self.storage).sync()
    }

    /// Flush, then drop every unpinned cached frame, so following reads are
    /// physical. Used between measured queries to cold-start the cache.
    /// Images already handed out stay readable.
    pub fn clear_cache(&self) -> PagerResult<()> {
        self.flush()?;
        let in_txn = self.txn_active.load(Ordering::Acquire);
        let mut clock = mutex_lock(&self.clock);
        clock.hand = 0;
        clock.ring.retain(|f| {
            let mut shard = write_lock(&self.shards[shard_of(f.id)]);
            let leaves = f.evictable(in_txn) && f.state.load(Ordering::Acquire) & OWES_HOME == 0;
            if leaves {
                shard.remove(&f.id);
            }
            !leaves
        });
        Ok(())
    }

    /// Consume the pool, flushing and returning the storage.
    pub fn into_storage(self) -> PagerResult<S> {
        self.flush()?;
        Ok(self.storage.into_inner().unwrap_or_else(|e| e.into_inner()))
    }

    /// Undo the open transaction's writes: a page it allocated (id at or
    /// past `start_pages`) is dropped, a page it rewrote gets its
    /// before-image back by pointer and keeps owing its home file (the
    /// image may hold committed bytes its home file has never seen).
    fn roll_back(&self, start_pages: PageId) {
        let images = self.capture.current();
        mutex_lock(&self.clock).ring.retain(|f| {
            if f.state.load(Ordering::Acquire) & TXN_WROTE == 0 {
                return true;
            }
            match images.get(f.id).filter(|_| f.id < start_pages) {
                Some(image) => {
                    *write_lock(&f.image) = image;
                    f.state.fetch_and(!TXN_WROTE, Ordering::AcqRel);
                    true
                }
                None => {
                    write_lock(&self.shards[shard_of(f.id)]).remove(&f.id);
                    false
                }
            }
        });
    }

    /// Begin a transaction: arm before-image capture (rollback restores
    /// from it), forget which frames earlier writes touched, and switch the
    /// pool to no-steal mode. Writes nothing.
    pub fn begin_txn(self: &Arc<Self>) -> TxnHandle<S> {
        self.capture.activate(0);
        for frame in &mutex_lock(&self.clock).ring {
            frame.state.fetch_and(!TXN_WROTE, Ordering::AcqRel);
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
        let mut pages: Vec<PageHandle> = mutex_lock(&self.pool.clock)
            .ring
            .iter()
            .filter(|f| f.state.load(Ordering::Acquire) & TXN_WROTE != 0)
            .map(|f| PageHandle {
                frame: Arc::clone(f),
                capture: Some(Arc::clone(&self.pool.capture)),
            })
            .collect();
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
        let images = self.pool.capture.current();
        if !images.is_empty() {
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
        assert!(s.physical_reads() >= 32_u64);
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
    fn an_image_stays_readable_after_eviction_and_clear_cache() {
        let pool = pool_with_pages(3, 1);
        let image = pool.image(0).unwrap();
        pool.get(1).unwrap(); // evicts page 0
        assert_eq!(pool.stats().evictions(), 1);
        assert_eq!(image[0], 0);
        let image = pool.image(2).unwrap();
        pool.clear_cache().unwrap();
        assert_eq!(pool.cached_frames(), 0);
        assert_eq!(image[0], 2);
    }

    /// The number of distinct images page 0 goes through in ten writes at
    /// byte `at`, with no reader holding any of them.
    fn images_over_ten_writes(pool: &BufferPool<MemStorage>, at: usize) -> usize {
        let h = pool.get(0).unwrap();
        let mut seen = vec![Arc::as_ptr(&h.read())];
        for i in 1..=10 {
            h.write()[at] = i;
            seen.push(Arc::as_ptr(&h.read()));
        }
        seen.dedup();
        seen.len()
    }

    #[test]
    fn a_writer_copies_a_page_at_most_once_per_transaction() {
        let pool = Arc::new(pool_with_pages(1, 4));
        assert_eq!(images_over_ten_writes(&pool, 1), 1, "no capture: in place");
        let mut txn = pool.begin_txn();
        // The capture cell keeps the original, so the first write copies
        // it once; the other nine write the copy in place.
        assert_eq!(images_over_ten_writes(&pool, 2), 2);
        let before = pool.capture_cell().current().get(0).unwrap();
        assert_eq!((before[1], before[2]), (10, 0));
        assert_eq!(pool.image(0).unwrap()[2], 10);
        txn.commit();
    }

    #[test]
    fn abort_restores_the_before_image_by_pointer() {
        let pool = Arc::new(pool_with_pages(2, 4));
        let before = pool.image(1).unwrap();
        let mut txn = pool.begin_txn();
        pool.get(1).unwrap().write()[0] = 99;
        assert_eq!(pool.image(1).unwrap()[0], 99);
        txn.abort().unwrap();
        assert!(Arc::ptr_eq(&pool.image(1).unwrap(), &before));
    }

    #[test]
    fn pool_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BufferPool<MemStorage>>();
        assert_send_sync::<PageHandle>();
    }
}
