//! Property tests for the buffer pool: under arbitrary interleavings of
//! allocations, reads, writes, pins and cache clears, page contents must
//! match a flat reference model, for any pool capacity; and the eviction
//! hand does constant work per eviction.

#![cfg(test)]

use proptest::prelude::*;

use nok_pager::{BufferPool, MemStorage, PageHandle, PagerError};

/// Fetch a page, treating [`PagerError::PoolExhausted`] as a legal outcome
/// when (and only when) pinned handles are outstanding — with every frame
/// pinned the pool refuses to grow past its budget by design.
fn try_get(pool: &BufferPool<MemStorage>, id: u32, pins_held: bool) -> Option<PageHandle> {
    match pool.get(id) {
        Ok(h) => Some(h),
        Err(PagerError::PoolExhausted { .. }) => {
            assert!(pins_held, "PoolExhausted with no pinned handles");
            None
        }
        Err(e) => panic!("get({id}): {e}"),
    }
}

#[derive(Debug, Clone)]
enum Op {
    Allocate,
    /// Write `byte` at offset 0..page_size of page `idx % allocated`.
    Write {
        idx: usize,
        offset: usize,
        byte: u8,
    },
    Read {
        idx: usize,
        offset: usize,
    },
    /// Pin page `idx` (hold a handle across later ops).
    Pin {
        idx: usize,
    },
    UnpinAll,
    ClearCache,
    Flush,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => Just(Op::Allocate),
        4 => (any::<usize>(), 0usize..128, any::<u8>())
            .prop_map(|(idx, offset, byte)| Op::Write { idx, offset, byte }),
        4 => (any::<usize>(), 0usize..128).prop_map(|(idx, offset)| Op::Read { idx, offset }),
        1 => any::<usize>().prop_map(|idx| Op::Pin { idx }),
        1 => Just(Op::UnpinAll),
        1 => Just(Op::ClearCache),
        1 => Just(Op::Flush),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn pool_matches_flat_model(
        ops in prop::collection::vec(arb_op(), 1..200),
        capacity in 1usize..8,
    ) {
        let page_size = 128usize;
        let pool = BufferPool::with_capacity(MemStorage::with_page_size(page_size), capacity);
        let mut model: Vec<Vec<u8>> = Vec::new();
        let mut pinned: Vec<PageHandle> = Vec::new();

        for op in &ops {
            match op {
                Op::Allocate => {
                    match pool.allocate() {
                        Ok((id, _h)) => {
                            prop_assert_eq!(id as usize, model.len());
                            model.push(vec![0u8; page_size]);
                        }
                        Err(PagerError::PoolExhausted { .. }) => {
                            prop_assert!(!pinned.is_empty());
                        }
                        Err(e) => panic!("allocate: {e}"),
                    }
                }
                Op::Write { idx, offset, byte } => {
                    if model.is_empty() { continue; }
                    let id = idx % model.len();
                    if let Some(h) = try_get(&pool, id as u32, !pinned.is_empty()) {
                        h.write()[*offset] = *byte;
                        model[id][*offset] = *byte;
                    }
                }
                Op::Read { idx, offset } => {
                    if model.is_empty() { continue; }
                    let id = idx % model.len();
                    if let Some(h) = try_get(&pool, id as u32, !pinned.is_empty()) {
                        prop_assert_eq!(h.read()[*offset], model[id][*offset]);
                    }
                }
                Op::Pin { idx } => {
                    if model.is_empty() { continue; }
                    let id = idx % model.len();
                    if let Some(h) = try_get(&pool, id as u32, !pinned.is_empty()) {
                        pinned.push(h);
                    }
                }
                Op::UnpinAll => pinned.clear(),
                Op::ClearCache => pool.clear_cache().expect("clear"),
                Op::Flush => pool.flush().expect("flush"),
            }
        }

        // Final: every page readable with exactly the model's contents,
        // both through the pool and from raw storage after a flush.
        drop(pinned);
        pool.flush().expect("final flush");
        for (id, expected) in model.iter().enumerate() {
            let h = pool.get(id as u32).expect("get");
            prop_assert_eq!(&*h.read(), expected.as_slice());
        }
        let mut storage = pool.into_storage().expect("into_storage");
        use nok_pager::Storage;
        let mut buf = vec![0u8; page_size];
        for (id, expected) in model.iter().enumerate() {
            storage.read_page(id as u32, &mut buf).expect("raw read");
            prop_assert_eq!(&buf, expected);
        }
    }

    /// Pinned handles must keep observing their frame even under heavy
    /// eviction pressure from a tiny pool.
    #[test]
    fn pinned_frames_are_stable(npages in 4u32..20) {
        let pool = BufferPool::with_capacity(MemStorage::with_page_size(64), 2);
        for _ in 0..npages {
            pool.allocate().expect("allocate");
        }
        pool.flush().expect("flush");
        let pinned = pool.get(0).expect("pin");
        pinned.write()[7] = 99;
        for i in 1..npages {
            pool.get(i).expect("churn");
        }
        prop_assert_eq!(pinned.read()[7], 99);
        // And the write survives into storage.
        drop(pinned);
        pool.flush().expect("flush2");
        let h = pool.get(0).expect("reget");
        prop_assert_eq!(h.read()[7], 99);
    }

    /// One pass over ten times as many distinct pages as the pool holds:
    /// every miss past the first `capacity` evicts, and the hand examines
    /// at most two frames per eviction (`IoStats::frames_examined` counts
    /// each step of the hand).
    #[test]
    fn a_single_pass_examines_at_most_two_frames_per_eviction(capacity in 1usize..32) {
        let pool = BufferPool::with_capacity(MemStorage::with_page_size(64), capacity);
        let pages = 10 * capacity as u32;
        for _ in 0..pages {
            pool.allocate().expect("allocate");
        }
        pool.clear_cache().expect("clear");
        pool.stats().reset();
        for id in 0..pages {
            pool.image(id).expect("get");
        }
        let s = pool.stats();
        prop_assert_eq!(s.evictions(), u64::from(pages) - capacity as u64);
        prop_assert!(
            s.frames_examined() <= 2 * s.evictions(),
            "{} frames examined for {} evictions",
            s.frames_examined(),
            s.evictions()
        );
    }
}
