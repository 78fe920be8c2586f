//! # nok-pager
//!
//! The paged-I/O substrate beneath the NoK storage scheme, the B+ trees and
//! the baseline engines. It provides:
//!
//! * a [`Storage`] trait with file-backed ([`FileStorage`]) and in-memory
//!   ([`MemStorage`]) implementations,
//! * a [`BufferPool`] of immutable `Arc<[u8]>` page images with CLOCK
//!   eviction, pin counting (via handle reference counts) and dirty-page
//!   write-back,
//! * [`IoStats`] counters distinguishing *logical* page requests from
//!   *physical* storage reads — exactly the quantity Proposition 1 of the
//!   paper bounds ("the physical level NoK pattern matching algorithm reads
//!   every page at most once").
//!
//! The pool is thread-safe: a sharded `RwLock` page table finds a frame,
//! a reader clones the frame's image, misses serialize on the frame ring's
//! `Mutex`, and stats are atomic, so one pool can be shared across query
//! threads behind an `Arc`. The capacity is a hard
//! budget — when every frame is pinned, a miss fails with
//! [`PagerError::PoolExhausted`] rather than growing the pool.

pub mod error;
pub mod failpoint;
pub mod mvcc;
pub mod pool;
pub mod stats;
pub mod storage;
pub mod wal;

pub use error::{PagerError, PagerResult};
pub use failpoint::{FailPlan, FailpointStorage};
pub use mvcc::{
    CaptureCell, CowMap, GenTicket, GenerationStats, GenerationTable, PageChain, SnapView,
    SnapshotGuard,
};
pub use pool::{BufferPool, PageHandle, PageWrite, TxnHandle};
pub use stats::IoStats;
pub use storage::{FileStorage, MemStorage, PageId, Storage, DEFAULT_PAGE_SIZE};
pub use wal::{ReplayOutcome, Wal, WalRecord};

/// Little-endian integer read/write helpers over page byte slices.
///
/// All on-page formats in the workspace go through these so the byte order is
/// uniform.
pub mod codec {
    /// Read a `u16` at `off`.
    #[inline]
    pub fn get_u16(buf: &[u8], off: usize) -> u16 {
        u16::from_le_bytes([buf[off], buf[off + 1]])
    }

    /// Write a `u16` at `off`.
    #[inline]
    pub fn put_u16(buf: &mut [u8], off: usize, v: u16) {
        buf[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Read a `u32` at `off`.
    #[inline]
    pub fn get_u32(buf: &[u8], off: usize) -> u32 {
        u32::from_le_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]])
    }

    /// Write a `u32` at `off`.
    #[inline]
    pub fn put_u32(buf: &mut [u8], off: usize, v: u32) {
        buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Read a `u64` at `off`.
    #[inline]
    pub fn get_u64(buf: &[u8], off: usize) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&buf[off..off + 8]);
        u64::from_le_bytes(b)
    }

    /// Write a `u64` at `off`.
    #[inline]
    pub fn put_u64(buf: &mut [u8], off: usize, v: u64) {
        buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn round_trip_all_widths() {
            let mut buf = [0u8; 16];
            put_u16(&mut buf, 0, 0xBEEF);
            put_u32(&mut buf, 2, 0xDEAD_BEEF);
            put_u64(&mut buf, 6, 0x0123_4567_89AB_CDEF);
            assert_eq!(get_u16(&buf, 0), 0xBEEF);
            assert_eq!(get_u32(&buf, 2), 0xDEAD_BEEF);
            assert_eq!(get_u64(&buf, 6), 0x0123_4567_89AB_CDEF);
        }
    }
}
