//! Per-worker first-tier page cache for snapshot readers.
//!
//! The sharded [`BufferPool`](crate::BufferPool) is the *second* tier: every
//! hit there still takes a shard read lock, bumps the shared LRU clock and
//! the shared atomic stats, and — on the snapshot-read path — copies the
//! whole page out of the frame (see [`crate::mvcc::resolve_page`]). Under a
//! read-mostly serving workload those shared cache lines are exactly where
//! cores collide.
//!
//! This module adds a private first tier in front of it: a **thread-local**,
//! direct-mapped table of resolved page images. A hit touches no lock, no
//! shared atomic and no shared clock, and returns a clone of an existing
//! `Arc<[u8]>` — no page copy. Workers are long-lived threads, so the tier
//! amortizes across every query a worker serves.
//!
//! ## Why caching resolved images is sound
//!
//! Entries are keyed by `(pool instance, page id, epoch)` and only populated
//! through [`resolve_page_cached`], i.e. only for **snapshot-view** reads.
//! At a fixed epoch the resolved content of a page is immutable: the writer
//! publishes a before-image *before* first mutating a frame (capture
//! protocol, DESIGN.md §14), so whatever `resolve_page` returns for
//! `(pool, page, epoch)` it returns for the lifetime of that epoch. A commit
//! moves readers to a new epoch, which is a new key — stale entries are
//! never served, they age out by displacement. Pool instance ids are
//! process-unique and never reused, so a dropped database cannot alias a
//! new one.
//!
//! Live-mode reads (`pool.get` without a view) never touch this tier: their
//! frames are mutable in place.
//!
//! ## Stats
//!
//! First-tier hits are still logical page requests. Each thread counts them
//! locally per pool and drains the batch into the pool's shared
//! [`IoStats`](crate::IoStats) via `add_logical_gets` once per
//! [`DRAIN_EVERY`] hits (and opportunistically on every second-tier miss),
//! so the global hit ratio stays meaningful without a shared atomic RMW per
//! access. Up to `DRAIN_EVERY - 1` hits per (thread, pool) may be pending
//! at any instant; that slack is invisible at serving scale.

use std::cell::RefCell;
use std::sync::Arc;

use crate::error::PagerResult;
use crate::mvcc::{resolve_page, SnapView};
use crate::pool::BufferPool;
use crate::storage::{PageId, Storage};

/// Slots in the per-thread direct-mapped table (power of two). At a 4 KiB
/// page size the tier holds at most 2 MiB of (mostly shared) images per
/// thread. Snapshot readers read structure pages from it as well as B+tree
/// pages, which at 256 slots evicted each other (DESIGN.md §15.1).
const SLOTS: usize = 512;

/// Local hit counts are drained into the pool's shared stats once this many
/// accumulate for one pool.
const DRAIN_EVERY: u64 = 64;

struct Slot {
    pool: u64,
    page: PageId,
    epoch: u64,
    bytes: Arc<[u8]>,
}

#[derive(Default)]
struct LocalTier {
    slots: Vec<Option<Slot>>,
    /// Pending first-tier hit counts, per pool instance (a thread touches a
    /// handful of pools, so a linear scan beats a map).
    pending: Vec<(u64, u64)>,
}

impl LocalTier {
    #[inline]
    fn index(pool: u64, page: PageId) -> usize {
        // Fibonacci hashing over the combined key; epoch is deliberately
        // not hashed so a new epoch's entry displaces the stale one for the
        // same page instead of leaking a slot.
        let key = (u64::from(page) << 20) ^ pool;
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48) as usize & (SLOTS - 1)
    }

    fn lookup(&self, pool: u64, page: PageId, epoch: u64) -> Option<Arc<[u8]>> {
        match self.slots.get(Self::index(pool, page)) {
            Some(Some(s)) if s.pool == pool && s.page == page && s.epoch == epoch => {
                Some(Arc::clone(&s.bytes))
            }
            _ => None,
        }
    }

    fn insert(&mut self, pool: u64, page: PageId, epoch: u64, bytes: Arc<[u8]>) {
        if self.slots.is_empty() {
            self.slots.resize_with(SLOTS, || None);
        }
        let idx = Self::index(pool, page);
        if let Some(slot) = self.slots.get_mut(idx) {
            *slot = Some(Slot {
                pool,
                page,
                epoch,
                bytes,
            });
        }
    }

    /// Count one local hit; returns a batch to drain when the threshold for
    /// this pool is reached.
    fn count_hit(&mut self, pool: u64) -> u64 {
        for entry in &mut self.pending {
            if entry.0 == pool {
                entry.1 += 1;
                if entry.1 >= DRAIN_EVERY {
                    let batch = entry.1;
                    entry.1 = 0;
                    return batch;
                }
                return 0;
            }
        }
        self.pending.push((pool, 1));
        0
    }

    /// Take whatever is pending for `pool` (drained on second-tier misses,
    /// where we pay a shared-stats access anyway).
    fn take_pending(&mut self, pool: u64) -> u64 {
        for entry in &mut self.pending {
            if entry.0 == pool {
                return std::mem::take(&mut entry.1);
            }
        }
        0
    }
}

thread_local! {
    static TIER: RefCell<LocalTier> = RefCell::new(LocalTier::default());
}

/// [`resolve_page`](crate::mvcc::resolve_page) fronted by the calling
/// thread's private first tier. Semantically identical — same bytes, same
/// errors — but repeated snapshot reads of a hot page cost one thread-local
/// probe instead of a shard lock plus a page copy.
pub fn resolve_page_cached<S: Storage>(
    pool: &BufferPool<S>,
    view: &SnapView,
    page: PageId,
) -> PagerResult<Arc<[u8]>> {
    let pool_id = pool.instance_id();
    let hit = TIER.with(|t| {
        let mut t = t.borrow_mut();
        match t.lookup(pool_id, page, view.epoch) {
            Some(bytes) => {
                let batch = t.count_hit(pool_id);
                Some((bytes, batch))
            }
            None => None,
        }
    });
    if let Some((bytes, batch)) = hit {
        pool.stats().add_logical_gets(batch);
        return Ok(bytes);
    }
    let bytes = resolve_page(pool, view, page)?;
    TIER.with(|t| {
        let mut t = t.borrow_mut();
        t.insert(pool_id, page, view.epoch, Arc::clone(&bytes));
        let pending = t.take_pending(pool_id);
        pool.stats().add_logical_gets(pending);
    });
    Ok(bytes)
}

/// Drop every entry the calling thread holds and return counts that were
/// still pending, keyed by pool instance. Tests use this for isolation;
/// servers never need it (entries age out by displacement and epoch
/// mismatch).
pub fn clear_thread_tier() -> Vec<(u64, u64)> {
    TIER.with(|t| {
        let mut t = t.borrow_mut();
        t.slots.clear();
        let pending = std::mem::take(&mut t.pending);
        pending.into_iter().filter(|(_, n)| *n > 0).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mvcc::{CaptureCell, PageChain};
    use crate::storage::MemStorage;

    fn view_at(epoch: u64, cell: &Arc<CaptureCell>) -> SnapView {
        SnapView {
            epoch,
            node: PageChain::new(epoch),
            cell: Arc::clone(cell),
        }
    }

    #[test]
    fn hit_returns_same_bytes_without_pool_access() {
        let _ = clear_thread_tier();
        let pool = BufferPool::new(MemStorage::with_page_size(64));
        let (id, h) = pool.allocate().unwrap();
        h.write()[0] = 9;
        drop(h);
        let cell = Arc::new(CaptureCell::new());
        cell.activate(0);
        let view = view_at(0, &cell);

        let a = resolve_page_cached(&pool, &view, id).unwrap();
        let gets_after_miss = pool.stats().logical_gets();
        let b = resolve_page_cached(&pool, &view, id).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "hit must reuse the cached image");
        assert_eq!(
            pool.stats().logical_gets(),
            gets_after_miss,
            "a first-tier hit must not touch shared stats before the batch \
             threshold"
        );
    }

    #[test]
    fn epoch_change_misses_and_observes_new_content() {
        let _ = clear_thread_tier();
        let pool = BufferPool::new(MemStorage::with_page_size(64));
        let (id, h) = pool.allocate().unwrap();
        h.write()[0] = 1;
        drop(h);
        let cell = Arc::new(CaptureCell::new());
        cell.activate(0);
        let v0 = view_at(0, &cell);
        assert_eq!(resolve_page_cached(&pool, &v0, id).unwrap()[0], 1);

        // Writer mutates the page for epoch 1: capture the before-image
        // first (the protocol), then change the frame.
        cell.capture(id, &[1; 64]);
        pool.get(id).unwrap().write()[0] = 2;
        // The epoch-0 reader keeps seeing 1 (from its cached image)…
        assert_eq!(resolve_page_cached(&pool, &v0, id).unwrap()[0], 1);
        // …and an epoch-1 reader must miss the tier and see 2.
        let cell1 = Arc::new(CaptureCell::new());
        cell1.activate(1);
        let v1 = view_at(1, &cell1);
        assert_eq!(resolve_page_cached(&pool, &v1, id).unwrap()[0], 2);
    }

    #[test]
    fn distinct_pools_never_alias() {
        let _ = clear_thread_tier();
        let mk = |byte: u8| {
            let pool = BufferPool::new(MemStorage::with_page_size(64));
            let (id, h) = pool.allocate().unwrap();
            h.write()[0] = byte;
            drop(h);
            (pool, id)
        };
        let (p1, id1) = mk(10);
        let (p2, id2) = mk(20);
        assert_eq!(id1, id2, "same page id in both pools");
        assert_ne!(p1.instance_id(), p2.instance_id());
        let cell = Arc::new(CaptureCell::new());
        cell.activate(0);
        let view = view_at(0, &cell);
        assert_eq!(resolve_page_cached(&p1, &view, id1).unwrap()[0], 10);
        assert_eq!(resolve_page_cached(&p2, &view, id2).unwrap()[0], 20);
        assert_eq!(resolve_page_cached(&p1, &view, id1).unwrap()[0], 10);
    }

    #[test]
    fn hit_batches_drain_into_shared_stats() {
        let _ = clear_thread_tier();
        let pool = BufferPool::new(MemStorage::with_page_size(64));
        let (id, h) = pool.allocate().unwrap();
        h.write()[0] = 3;
        drop(h);
        let cell = Arc::new(CaptureCell::new());
        cell.activate(0);
        let view = view_at(0, &cell);
        let _ = resolve_page_cached(&pool, &view, id).unwrap();
        let base = pool.stats().logical_gets();
        for _ in 0..DRAIN_EVERY {
            let _ = resolve_page_cached(&pool, &view, id).unwrap();
        }
        assert_eq!(
            pool.stats().logical_gets(),
            base + DRAIN_EVERY,
            "one batch of hits must land in shared stats"
        );
        let leftovers = clear_thread_tier();
        assert!(
            leftovers.iter().all(|(p, _)| *p != 0),
            "pending drains are keyed by pool instance: {leftovers:?}"
        );
    }
}
