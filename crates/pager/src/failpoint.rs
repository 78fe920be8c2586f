//! Fault injection for crash-consistency testing.
//!
//! A [`FailPlan`] counts mutating I/O operations and "crashes" on the k-th
//! one: the operation fails, and — because a real crash stops the process,
//! while the test harness keeps executing — **every subsequent mutating
//! operation fails too**. Code under test therefore cannot repair anything
//! after the injected crash. And because a real crash also loses what was
//! written but never synced, a tripped [`FailpointStorage`] puts its pages
//! back to what its last successful `sync` left: recovery gets to work with
//! the synced bytes and the log only.
//!
//! [`FailpointStorage`] wraps any [`Storage`] and routes its mutating
//! operations through a shared plan; [`crate::wal::Wal`] takes the same
//! plan via `set_failpoint`, so one counter spans every durability-relevant
//! write in a store.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::{PagerError, PagerResult};
use crate::storage::{PageId, Storage};

/// A shared fault-injection plan: trip on the `fail_at`-th mutating I/O
/// (1-based), or never when `fail_at == 0` (counting mode).
#[derive(Debug)]
pub struct FailPlan {
    fail_at: u64,
    ios: AtomicU64,
    tripped: AtomicBool,
}

impl FailPlan {
    /// Count mutating I/Os without ever failing — used for the first pass
    /// of a sweep to learn how many injection points a workload has.
    pub fn counting() -> Arc<FailPlan> {
        Self::at(0)
    }

    /// Fail the `k`-th mutating I/O and every one after it (`k >= 1`).
    pub fn at(k: u64) -> Arc<FailPlan> {
        Arc::new(FailPlan {
            fail_at: k,
            ios: AtomicU64::new(0),
            tripped: AtomicBool::new(false),
        })
    }

    /// Mutating I/Os observed before the trip.
    pub fn count(&self) -> u64 {
        self.ios.load(Ordering::Acquire)
    }

    /// Has the simulated crash happened?
    pub fn is_tripped(&self) -> bool {
        self.tripped.load(Ordering::Acquire)
    }

    /// Gate one mutating I/O.
    pub fn check(&self) -> PagerResult<()> {
        if self.tripped.load(Ordering::Acquire) {
            return Err(Self::crash_error());
        }
        let n = self.ios.fetch_add(1, Ordering::AcqRel) + 1;
        if self.fail_at != 0 && n >= self.fail_at {
            self.tripped.store(true, Ordering::Release);
            return Err(Self::crash_error());
        }
        Ok(())
    }

    fn crash_error() -> PagerError {
        PagerError::Io(std::io::Error::other("failpoint: injected crash"))
    }
}

/// A [`Storage`] whose mutating operations are gated by a [`FailPlan`].
/// Reads are never failed: after the simulated crash the harness still needs
/// to observe the torn files, just like a post-restart process would.
#[derive(Debug)]
pub struct FailpointStorage<S: Storage> {
    inner: S,
    plan: Arc<FailPlan>,
    /// Page count as of the last successful sync.
    synced_pages: u32,
    /// Before-images of the pages below `synced_pages` written since.
    unsynced: HashMap<PageId, Box<[u8]>>,
}

impl<S: Storage> FailpointStorage<S> {
    /// Wrap a storage (taken to be synced) with a shared plan.
    pub fn new(inner: S, plan: Arc<FailPlan>) -> Self {
        FailpointStorage {
            synced_pages: inner.page_count(),
            inner,
            plan,
            unsynced: HashMap::new(),
        }
    }

    /// The shared plan.
    pub fn plan(&self) -> &Arc<FailPlan> {
        &self.plan
    }
}

impl<S: Storage> Storage for FailpointStorage<S> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn page_count(&self) -> u32 {
        self.inner.page_count()
    }

    fn read_page(&mut self, id: PageId, buf: &mut [u8]) -> PagerResult<()> {
        self.inner.read_page(id, buf)
    }

    fn write_page(&mut self, id: PageId, buf: &[u8]) -> PagerResult<()> {
        self.plan.check()?;
        if id < self.synced_pages && !self.unsynced.contains_key(&id) {
            let mut before = vec![0u8; buf.len()].into_boxed_slice();
            self.inner.read_page(id, &mut before)?;
            self.unsynced.insert(id, before);
        }
        self.inner.write_page(id, buf)
    }

    fn allocate_page(&mut self) -> PagerResult<PageId> {
        self.plan.check()?;
        self.inner.allocate_page()
    }

    fn sync(&mut self) -> PagerResult<()> {
        self.plan.check()?;
        self.inner.sync()?;
        self.synced_pages = self.inner.page_count();
        self.unsynced.clear();
        Ok(())
    }

    fn truncate_pages(&mut self, count: u32) -> PagerResult<()> {
        self.plan.check()?;
        self.inner.truncate_pages(count)
    }
}

/// The crash loses what was never synced: pages allocated since the last
/// sync go, pages overwritten since get their synced bytes back.
impl<S: Storage> Drop for FailpointStorage<S> {
    fn drop(&mut self) {
        if !self.plan.is_tripped() {
            return;
        }
        let keep = self.synced_pages.min(self.inner.page_count());
        let _ = self.inner.truncate_pages(keep);
        for (id, before) in self.unsynced.drain() {
            let _ = self.inner.write_page(id, &before);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;

    #[test]
    fn counting_mode_never_trips() {
        let plan = FailPlan::counting();
        let mut s = FailpointStorage::new(MemStorage::with_page_size(64), Arc::clone(&plan));
        for _ in 0..10 {
            s.allocate_page().unwrap();
        }
        s.sync().unwrap();
        assert_eq!(plan.count(), 11);
        assert!(!plan.is_tripped());
    }

    #[test]
    fn trips_on_kth_io_and_stays_down() {
        let plan = FailPlan::at(3);
        let mut s = FailpointStorage::new(MemStorage::with_page_size(64), Arc::clone(&plan));
        s.allocate_page().unwrap();
        s.allocate_page().unwrap();
        assert!(s.allocate_page().is_err());
        assert!(plan.is_tripped());
        // Everything mutating now fails; reads still work.
        assert!(s.sync().is_err());
        assert!(s.write_page(0, &[0u8; 64]).is_err());
        let mut buf = [0u8; 64];
        s.read_page(0, &mut buf).unwrap();
    }

    #[test]
    fn a_trip_loses_what_was_written_since_the_last_sync() {
        let dir = std::env::temp_dir().join(format!("nok-failpoint-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.pg");
        let file = crate::FileStorage::create_with_page_size(&path, 64).unwrap();
        let plan = FailPlan::at(7);
        let mut s = FailpointStorage::new(file, Arc::clone(&plan));
        s.allocate_page().unwrap(); // 1
        s.write_page(0, &[1u8; 64]).unwrap(); // 2
        s.sync().unwrap(); // 3
        s.write_page(0, &[2u8; 64]).unwrap(); // 4: overwrites synced bytes
        s.allocate_page().unwrap(); // 5
        s.write_page(1, &[3u8; 64]).unwrap(); // 6: a page the sync never saw
        assert!(s.sync().is_err()); // 7: the crash
        drop(s);
        // What the restarted process finds is what the one sync left.
        let mut s = crate::FileStorage::open(&path).unwrap();
        assert_eq!(s.page_count(), 1);
        let mut buf = [0u8; 64];
        s.read_page(0, &mut buf).unwrap();
        assert_eq!(buf, [1u8; 64]);
        drop(s);
        // An untripped plan keeps unsynced writes, as a clean exit does.
        let file = crate::FileStorage::open(&path).unwrap();
        let mut s = FailpointStorage::new(file, FailPlan::at(100));
        s.write_page(0, &[9u8; 64]).unwrap();
        drop(s);
        let mut s = crate::FileStorage::open(&path).unwrap();
        s.read_page(0, &mut buf).unwrap();
        assert_eq!(buf, [9u8; 64]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
