//! I/O statistics counters.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counters kept by a [`crate::BufferPool`].
///
/// `logical_gets` counts every page request; `physical_reads` counts only
/// those that missed the pool and hit the storage. Proposition 1 of the paper
/// is verified by asserting `physical_reads ≤ pages_in_store` for a whole
/// query (each page read at most once).
///
/// Counters are atomic (relaxed — they are statistics, not synchronization),
/// so one stats block can be shared by every query thread of a pool.
#[derive(Debug, Default)]
pub struct IoStats {
    logical_gets: AtomicU64,
    physical_reads: AtomicU64,
    physical_writes: AtomicU64,
    evictions: AtomicU64,
    frames_examined: AtomicU64,
    entries_examined: AtomicU64,
    dir_entries_examined: AtomicU64,
}

impl IoStats {
    /// Total page requests served (hits + misses).
    pub fn logical_gets(&self) -> u64 {
        self.logical_gets.load(Ordering::Relaxed)
    }

    /// String entries examined by navigation primitives (per-entry loop
    /// iterations inside loaded pages). The pager doesn't increment this
    /// itself; the navigation layer above batches its counts in via
    /// [`IoStats::add_entries_examined`] so entry work and page I/O land in
    /// one stats block.
    pub fn entries_examined(&self) -> u64 {
        self.entries_examined.load(Ordering::Relaxed)
    }

    /// Directory probes by navigation primitives (header records
    /// consulted). Incremented by the navigation layer via
    /// [`IoStats::add_dir_entries_examined`].
    pub fn dir_entries_examined(&self) -> u64 {
        self.dir_entries_examined.load(Ordering::Relaxed)
    }

    /// Batch-add to the entries-examined counter (one atomic op per call).
    pub fn add_entries_examined(&self, n: u64) {
        if n > 0 {
            self.entries_examined.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Batch-add to the directory-probes counter (one atomic op per call).
    pub fn add_dir_entries_examined(&self, n: u64) {
        if n > 0 {
            self.dir_entries_examined.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Pages actually read from the storage.
    pub fn physical_reads(&self) -> u64 {
        self.physical_reads.load(Ordering::Relaxed)
    }

    /// Pages written back to the storage.
    pub fn physical_writes(&self) -> u64 {
        self.physical_writes.load(Ordering::Relaxed)
    }

    /// Frames evicted from the pool.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Frames the eviction hand looked at (one per step of the hand).
    pub fn frames_examined(&self) -> u64 {
        self.frames_examined.load(Ordering::Relaxed)
    }

    /// Buffer-pool hit ratio in `[0, 1]`; 1.0 when nothing was requested.
    pub fn hit_ratio(&self) -> f64 {
        let gets = self.logical_gets();
        if gets == 0 {
            return 1.0;
        }
        1.0 - self.physical_reads() as f64 / gets as f64
    }

    /// Zero every counter (used between measured queries).
    pub fn reset(&self) {
        self.logical_gets.store(0, Ordering::Relaxed);
        self.physical_reads.store(0, Ordering::Relaxed);
        self.physical_writes.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
        self.frames_examined.store(0, Ordering::Relaxed);
        self.entries_examined.store(0, Ordering::Relaxed);
        self.dir_entries_examined.store(0, Ordering::Relaxed);
    }

    pub(crate) fn count_get(&self) {
        self.logical_gets.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_read(&self) {
        self.physical_reads.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_write(&self) {
        self.physical_writes.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_eviction(&self) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_examined(&self) {
        self.frames_examined.fetch_add(1, Ordering::Relaxed);
    }
}

impl fmt::Display for IoStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "gets={} reads={} writes={} evictions={} hit={:.3} entries={} dir_entries={}",
            self.logical_gets(),
            self.physical_reads(),
            self.physical_writes(),
            self.evictions(),
            self.hit_ratio(),
            self.entries_examined(),
            self.dir_entries_examined()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let s = IoStats::default();
        s.count_get();
        s.count_get();
        s.count_read();
        s.count_write();
        s.count_eviction();
        s.add_entries_examined(10);
        s.add_entries_examined(0); // no-op, must not touch the counter
        s.add_dir_entries_examined(4);
        assert_eq!(s.logical_gets(), 2);
        assert_eq!(s.physical_reads(), 1);
        assert_eq!(s.physical_writes(), 1);
        assert_eq!(s.evictions(), 1);
        assert_eq!(s.entries_examined(), 10);
        assert_eq!(s.dir_entries_examined(), 4);
        assert!((s.hit_ratio() - 0.5).abs() < 1e-9);
        assert!(s.to_string().contains("entries=10"));
        s.reset();
        assert_eq!(s.logical_gets(), 0);
        assert_eq!(s.entries_examined(), 0);
        assert_eq!(s.dir_entries_examined(), 0);
        assert_eq!(s.hit_ratio(), 1.0);
    }
}
