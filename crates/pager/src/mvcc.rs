//! Page generations for snapshot reads (MVCC).
//!
//! A page image is an immutable `Arc<[u8]>` (see [`crate::pool`]): a frame
//! holds one, a writer replaces it, a reader clones it. What a reader pinned
//! at an older epoch still needs is the image its epoch saw, and this module
//! keeps exactly those:
//!
//! * [`CaptureCell`] — the in-flight transaction's before-images. On its
//!   first write to a page the writer records the frame's current `Arc`
//!   here *before* it installs a new image (a pointer, no byte copy), so a
//!   reader that cloned the new image re-checks the cell and finds the old.
//! * [`PageChain`] — one node per committed epoch. Commit freezes the
//!   capture map into the retiring node and links the next node before it
//!   publishes the generation, so the WAL commit point and the visibility
//!   point coincide. A reader pinned at epoch `E` resolves a page by walking
//!   frozen maps from its own node: the first map containing the page holds
//!   its state-`E` image (the page was untouched in between).
//! * [`GenerationTable`] / [`SnapshotGuard`] — the published generation
//!   behind a plain lock, and the reader-side pin. Reclamation is by
//!   reference count: the guard's `Arc` keeps the generation (and, through
//!   it, the frozen maps of its chain node) alive. [`GenerationStats`]
//!   exposes live/retired generation counts and the pinned-reader gauge.
//!
//! Single-writer discipline: [`GenerationTable::publish`],
//! [`CaptureCell::capture`] and [`CaptureCell::reset`] are only ever called
//! by one thread at a time (the database's writer mutex enforces this);
//! readers call [`GenerationTable::pin`] and the lookups from any thread.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::error::PagerResult;
use crate::pool::BufferPool;
use crate::storage::{PageId, Storage};

/// Recover the guard from a poisoned lock: both locks here guard plain
/// `Arc` swaps that cannot be left half done.
fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

/// Before-image map for one transaction: the committed image (as of epoch
/// `stamp`) of every page the writer has touched since the last commit.
#[derive(Debug, Default, Clone)]
pub struct CowMap {
    /// Epoch whose committed state these images represent.
    pub stamp: u64,
    pages: HashMap<PageId, Arc<[u8]>>,
}

impl CowMap {
    fn with_stamp(stamp: u64) -> Self {
        CowMap {
            stamp,
            pages: HashMap::new(),
        }
    }

    /// Image of `page`, if captured.
    pub fn get(&self, page: PageId) -> Option<Arc<[u8]>> {
        self.pages.get(&page).cloned()
    }

    /// Number of captured pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// True if no page has been captured.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }
}

/// Per-pool capture cell holding the in-flight transaction's before-images.
///
/// Inactive until the first transaction begins (the initial bulk build must
/// not capture); stays active from then on. The map is *not* cleared on
/// abort: before-images are the committed (post-rollback) state, so they
/// remain valid, and clearing them would tear a reader that raced an
/// aborted write.
#[derive(Debug, Default)]
pub struct CaptureCell {
    active: AtomicBool,
    map: RwLock<Arc<CowMap>>,
}

impl CaptureCell {
    /// A fresh, inactive cell stamped with epoch 0.
    pub fn new() -> Self {
        CaptureCell::default()
    }

    /// Begin capturing (first transaction). Idempotent.
    pub fn activate(&self, epoch: u64) {
        if !self.active.swap(true, Ordering::AcqRel) {
            *write_lock(&self.map) = Arc::new(CowMap::with_stamp(epoch));
        }
    }

    /// Is capture in effect?
    pub fn is_active(&self) -> bool {
        self.active.load(Ordering::Acquire)
    }

    /// Writer only: record `image` — the frame's image the write is about
    /// to replace — as the before-image of `page`, unless one is already
    /// present or capture is off. The map is the cell's own between
    /// commits, so the insert copies neither the map nor the page.
    pub fn capture(&self, page: PageId, image: &Arc<[u8]>) {
        if !self.is_active() {
            return;
        }
        let mut map = write_lock(&self.map);
        if !map.pages.contains_key(&page) {
            Arc::make_mut(&mut map)
                .pages
                .insert(page, Arc::clone(image));
        }
    }

    /// Reader whose newest chain node is `epoch`: `Some` with the captured
    /// image of `page`, if any, while the map is that node's transaction's
    /// (`stamp == epoch`; a smaller stamp is a map not yet reset after the
    /// commit that published `epoch`, holding older images); `None` once a
    /// commit has moved the cell past `epoch` — the node is frozen now.
    pub fn lookup(&self, page: PageId, epoch: u64) -> Option<Option<Arc<[u8]>>> {
        let map = read_lock(&self.map);
        match map.stamp.cmp(&epoch) {
            std::cmp::Ordering::Less => Some(None),
            std::cmp::Ordering::Equal => Some(map.get(page)),
            std::cmp::Ordering::Greater => None,
        }
    }

    /// The current map (for freezing into a [`PageChain`] node at commit).
    pub fn current(&self) -> Arc<CowMap> {
        Arc::clone(&read_lock(&self.map))
    }

    /// Writer only: replace the map with a fresh empty one stamped
    /// `new_stamp` (the epoch just published).
    pub fn reset(&self, new_stamp: u64) {
        *write_lock(&self.map) = Arc::new(CowMap::with_stamp(new_stamp));
    }
}

/// One epoch in a pool's generation chain. Created with `frozen`/`next`
/// unset; commit freezes the capture map into the retiring head and links
/// the successor. Nodes are kept alive by the generations that reference
/// them, so dropping the last snapshot of an epoch frees its images.
#[derive(Debug, Default)]
pub struct PageChain {
    /// Epoch this node belongs to.
    pub epoch: u64,
    frozen: OnceLock<Arc<CowMap>>,
    next: OnceLock<Arc<PageChain>>,
}

impl PageChain {
    /// A fresh head node for `epoch`.
    pub fn new(epoch: u64) -> Arc<Self> {
        Arc::new(PageChain {
            epoch,
            frozen: OnceLock::new(),
            next: OnceLock::new(),
        })
    }

    /// Commit step for the retiring head: freeze the capture map, link the
    /// next head. Returns the new head. A second freeze of the same node is
    /// a protocol violation; the original links win (OnceLock semantics).
    pub fn freeze(self: &Arc<Self>, images: Arc<CowMap>) -> Arc<PageChain> {
        let _ = self.frozen.set(images);
        let next = PageChain::new(self.epoch + 1);
        let _ = self.next.set(Arc::clone(&next));
        next
    }
}

/// A reader's view of one pool at one epoch: its chain node plus the pool's
/// live capture cell.
#[derive(Clone)]
pub struct SnapView {
    /// Chain node of the epoch the reader is pinned at.
    pub node: Arc<PageChain>,
    /// The pool's capture cell (for in-flight transaction images).
    pub cell: Arc<CaptureCell>,
}

impl SnapView {
    /// Resolve `page` through the overlay: walk frozen maps from the
    /// reader's node (first hit wins — the page was untouched between the
    /// reader's epoch and the capture), then the live capture cell. A
    /// commit that lands between the walk and the cell freezes the node
    /// the walk stopped at before it resets the cell, so the walk goes on.
    pub fn lookup(&self, page: PageId) -> Option<Arc<[u8]>> {
        let mut node = &self.node;
        loop {
            if let Some(map) = node.frozen.get() {
                if let Some(img) = map.get(page) {
                    return Some(img);
                }
                if let Some(next) = node.next.get() {
                    node = next;
                    continue;
                }
            }
            match self.cell.lookup(page, node.epoch) {
                Some(found) => return found,
                None if node.next.get().is_some() => {}
                // Never: a commit links the node before it resets the cell.
                None => return None,
            }
        }
    }
}

/// The image of `page` as of `view`'s epoch, or the frame's current image
/// without a view: look in the overlay, clone the frame's image, look in
/// the overlay again. Nothing is copied. The second look is sound because
/// the writer records a page's before-image *before* it installs the new
/// image under the frame's lock: a reader that cloned the new image sees
/// the capture on the second look; one that cloned the old image holds the
/// committed state.
pub fn resolve_page<S: Storage>(
    pool: &BufferPool<S>,
    view: Option<&SnapView>,
    page: PageId,
) -> PagerResult<Arc<[u8]>> {
    let Some(view) = view else {
        return pool.image(page);
    };
    if let Some(img) = view.lookup(page) {
        return Ok(img);
    }
    let img = pool.image(page)?;
    Ok(view.lookup(page).unwrap_or(img))
}

/// Live/retired generation counts and the pinned-reader gauge.
#[derive(Debug, Default)]
pub struct GenerationStats {
    pinned: AtomicU64,
    live: AtomicU64,
    retired: AtomicU64,
}

impl GenerationStats {
    /// Readers currently holding a [`SnapshotGuard`].
    pub fn pinned_readers(&self) -> u64 {
        self.pinned.load(Ordering::Acquire)
    }

    /// Generations currently alive (published or still pinned).
    pub fn live_generations(&self) -> u64 {
        self.live.load(Ordering::Acquire)
    }

    /// Generations fully reclaimed since open.
    pub fn retired_generations(&self) -> u64 {
        self.retired.load(Ordering::Acquire)
    }
}

/// Keeps the live-generation gauge honest: embed one ticket in each
/// generation value; its drop marks the generation reclaimed.
pub struct GenTicket {
    stats: Arc<GenerationStats>,
}

impl std::fmt::Debug for GenTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("GenTicket")
    }
}

impl GenTicket {
    /// A ticket counted against `stats` (live until dropped). Every
    /// generation — the initial one included — carries its own, so the
    /// gauges stay exact.
    pub fn new(stats: &Arc<GenerationStats>) -> Self {
        stats.live.fetch_add(1, Ordering::AcqRel);
        GenTicket {
            stats: Arc::clone(stats),
        }
    }
}

impl Drop for GenTicket {
    fn drop(&mut self) {
        self.stats.live.fetch_sub(1, Ordering::AcqRel);
        self.stats.retired.fetch_add(1, Ordering::AcqRel);
    }
}

/// The published generation behind a plain lock, and its epoch in an
/// atomic so that asking for the epoch takes no lock and pins nothing.
pub struct GenerationTable<T> {
    current: RwLock<Arc<T>>,
    epoch: AtomicU64,
    stats: Arc<GenerationStats>,
}

impl<T> GenerationTable<T> {
    /// A table publishing `initial` as epoch 0, counted in `stats` (the
    /// initial generation carries its own [`GenTicket`]).
    pub fn new(stats: Arc<GenerationStats>, initial: Arc<T>) -> Self {
        GenerationTable {
            current: RwLock::new(initial),
            epoch: AtomicU64::new(0),
            stats,
        }
    }

    /// Pin the current generation. The guard's `Arc` keeps the generation
    /// (and its chain node's images) alive; dropping it releases the pin.
    pub fn pin(&self) -> SnapshotGuard<T> {
        let value = Arc::clone(&read_lock(&self.current));
        self.stats.pinned.fetch_add(1, Ordering::AcqRel);
        SnapshotGuard {
            value,
            stats: Arc::clone(&self.stats),
        }
    }

    /// Epoch of the newest published generation: one atomic load.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Writer only: publish `next` as `epoch` (the visibility point — call
    /// it right after the WAL fsync). The epoch is stored after the swap,
    /// so a reader that sees it pins that generation or a newer one.
    /// Returns the superseded generation.
    pub fn publish(&self, epoch: u64, next: Arc<T>) -> Arc<T> {
        let old = std::mem::replace(&mut *write_lock(&self.current), next);
        self.epoch.store(epoch, Ordering::Release);
        old
    }

    /// Reclamation stats.
    pub fn stats(&self) -> &Arc<GenerationStats> {
        &self.stats
    }
}

impl<T> std::fmt::Debug for GenerationTable<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GenerationTable")
            .field("epoch", &self.epoch())
            .field("pinned", &self.stats.pinned_readers())
            .field("live", &self.stats.live_generations())
            .finish()
    }
}

/// A pinned generation. Deref gives the generation value; dropping the
/// guard decrements the pinned-reader gauge (the `Arc` inside handles
/// actual reclamation).
pub struct SnapshotGuard<T> {
    value: Arc<T>,
    stats: Arc<GenerationStats>,
}

impl<T> SnapshotGuard<T> {
    /// The pinned generation value.
    pub fn value(&self) -> &Arc<T> {
        &self.value
    }
}

impl<T> std::ops::Deref for SnapshotGuard<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> Drop for SnapshotGuard<T> {
    fn drop(&mut self) {
        self.stats.pinned.fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;

    fn image(bytes: &[u8]) -> Arc<[u8]> {
        Arc::from(bytes)
    }

    #[test]
    fn capture_cell_inactive_until_activated() {
        let cell = CaptureCell::new();
        cell.capture(7, &image(&[1, 2, 3]));
        assert!(!cell.is_active());
        assert!(
            cell.current().is_empty(),
            "an inactive cell captures nothing"
        );
        cell.activate(5);
        assert!(cell.is_active());
        assert_eq!(cell.lookup(7, 5), Some(None));
    }

    #[test]
    fn capture_cell_first_image_wins() {
        let cell = CaptureCell::new();
        cell.activate(3);
        let first = image(&[1, 1]);
        cell.capture(9, &first);
        cell.capture(9, &image(&[2, 2]));
        assert!(Arc::ptr_eq(&cell.lookup(9, 3).unwrap().unwrap(), &first));
        // A reader ahead of the stamp must not use the image, and one
        // behind it must look at its frozen maps again.
        assert_eq!(cell.lookup(9, 4), Some(None));
        assert_eq!(cell.lookup(9, 2), None);
        assert_eq!(cell.current().len(), 1);
        cell.reset(4);
        assert_eq!(cell.lookup(9, 4), Some(None));
    }

    #[test]
    fn chain_walk_finds_first_capture_at_or_after_epoch() {
        let cell = Arc::new(CaptureCell::new());
        cell.activate(0);
        let node0 = PageChain::new(0);
        // Txn 0 -> 1 modified page 5 (state-0 image [0u8; 2]).
        cell.capture(5, &image(&[0, 0]));
        let node1 = node0.freeze(cell.current());
        cell.reset(1);
        // Txn 1 -> 2 modified page 6.
        cell.capture(6, &image(&[1, 1]));
        let _node2 = node1.freeze(cell.current());
        cell.reset(2);

        let at0 = SnapView {
            node: Arc::clone(&node0),
            cell: Arc::clone(&cell),
        };
        assert_eq!(&at0.lookup(5).unwrap()[..], &[0, 0], "state-0 image");
        assert_eq!(&at0.lookup(6).unwrap()[..], &[1, 1], "unchanged 0->1");
        let at1 = SnapView {
            node: Arc::clone(&node1),
            cell: Arc::clone(&cell),
        };
        assert!(at1.lookup(5).is_none(), "page 5 already at state 1 in base");
        assert_eq!(&at1.lookup(6).unwrap()[..], &[1, 1]);
    }

    fn view_at_0(cell: &Arc<CaptureCell>) -> SnapView {
        SnapView {
            node: PageChain::new(0),
            cell: Arc::clone(cell),
        }
    }

    #[test]
    fn resolve_page_falls_back_to_base() {
        let pool = BufferPool::new(MemStorage::with_page_size(64));
        let (id, h) = pool.allocate().unwrap();
        h.write()[0] = 42;
        drop(h);
        let cell = Arc::new(CaptureCell::new());
        cell.activate(0);
        let view = view_at_0(&cell);
        let bytes = resolve_page(&pool, Some(&view), id).unwrap();
        assert_eq!(bytes[0], 42);
        // A capture supersedes the base.
        cell.capture(id, &image(&[7; 64]));
        let bytes = resolve_page(&pool, Some(&view), id).unwrap();
        assert_eq!(bytes[0], 7);
    }

    #[test]
    fn snapshot_reads_of_an_untouched_page_share_one_image() {
        let pool = BufferPool::new(MemStorage::with_page_size(64));
        let (id, h) = pool.allocate().unwrap();
        drop(h);
        let view = view_at_0(&Arc::new(CaptureCell::new()));
        let a = resolve_page(&pool, Some(&view), id).unwrap();
        let b = resolve_page(&pool, Some(&view), id).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "a snapshot read copied the page");
    }

    #[test]
    fn an_older_snapshot_reads_the_captured_before_image_by_pointer() {
        let pool = Arc::new(BufferPool::new(MemStorage::with_page_size(64)));
        let (id, h) = pool.allocate().unwrap();
        h.write()[0] = 1;
        drop(h);
        let view = view_at_0(pool.capture_cell());
        let before = resolve_page(&pool, Some(&view), id).unwrap();
        let mut txn = pool.begin_txn();
        pool.get(id).unwrap().write()[0] = 2;
        let captured = pool.capture_cell().current().get(id).unwrap();
        assert!(
            Arc::ptr_eq(&captured, &before),
            "the before-image is the frame's old Arc"
        );
        let seen = resolve_page(&pool, Some(&view), id).unwrap();
        assert!(Arc::ptr_eq(&seen, &captured));
        assert_eq!(pool.image(id).unwrap()[0], 2);
        txn.commit();
    }

    #[test]
    fn generation_table_stats_track_pins_and_reclaim() {
        struct Gen {
            n: u64,
            _ticket: GenTicket,
        }
        let stats = Arc::new(GenerationStats::default());
        let gen = |n| {
            Arc::new(Gen {
                n,
                _ticket: GenTicket::new(&stats),
            })
        };
        let table = GenerationTable::new(Arc::clone(&stats), gen(0));
        assert_eq!((stats.live_generations(), table.epoch()), (1, 0));
        let g0 = table.pin();
        assert_eq!(stats.pinned_readers(), 1);
        let retired = table.publish(1, gen(1));
        assert_eq!((stats.live_generations(), table.epoch()), (2, 1));
        assert_eq!(retired.n, 0);
        drop(retired);
        // g0 still holds generation 0 alive.
        assert_eq!(stats.retired_generations(), 0);
        assert_eq!(g0.n, 0);
        drop(g0);
        assert_eq!(stats.pinned_readers(), 0);
        assert_eq!(stats.retired_generations(), 1);
        assert_eq!(table.pin().n, 1);
    }

    #[test]
    fn reading_the_epoch_takes_no_lock_and_pins_nothing() {
        let stats = Arc::new(GenerationStats::default());
        let table = GenerationTable::new(Arc::clone(&stats), Arc::new(7u32));
        let _ = table.publish(3, Arc::new(8));
        // With the cell write-locked (a publish in progress), a lock taken
        // by `epoch` would never return.
        let cell = write_lock(&table.current);
        let count = Arc::strong_count(&cell);
        assert_eq!(table.epoch(), 3);
        assert_eq!(stats.pinned_readers(), 0);
        assert_eq!(Arc::strong_count(&cell), count);
    }
}
