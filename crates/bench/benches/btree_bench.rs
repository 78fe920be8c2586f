//! B+ tree microbenchmarks: point lookups, duplicate-run retrieval, range
//! scans, inserts, and bulk loading — the index substrate under B+t / B+v /
//! B+i.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use nok_btree::BTree;
use nok_pager::{BufferPool, MemStorage};

fn loaded_tree(n: u32) -> BTree<MemStorage> {
    let pool = Arc::new(BufferPool::new(MemStorage::new()));
    let pairs: Vec<_> = (0..n)
        .map(|i| (format!("key{i:08}").into_bytes(), i.to_le_bytes().to_vec()))
        .collect();
    BTree::bulk_load(pool, pairs, 0.9).expect("bulk load")
}

fn bench_btree(c: &mut Criterion) {
    let tree = loaded_tree(100_000);

    c.bench_function("btree_point_lookup", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = (i.wrapping_mul(2654435761)) % 100_000;
            let key = format!("key{i:08}");
            black_box(tree.get_first(key.as_bytes()).unwrap())
        })
    });

    c.bench_function("btree_range_scan_1k", |b| {
        b.iter(|| {
            let n = tree
                .range(
                    std::ops::Bound::Included(&b"key00050000"[..]),
                    std::ops::Bound::Excluded(&b"key00051000"[..]),
                )
                .unwrap()
                .count();
            black_box(n)
        })
    });

    // Duplicate posting lists (the tag-index access pattern).
    let dup_pool = Arc::new(BufferPool::new(MemStorage::new()));
    let dup = BTree::create(dup_pool).unwrap();
    for i in 0..5000u32 {
        dup.insert(b"tag", &i.to_le_bytes()).unwrap();
    }
    c.bench_function("btree_posting_list_5k", |b| {
        b.iter(|| black_box(dup.get_all(b"tag").unwrap().len()))
    });

    c.bench_function("btree_insert_10k", |b| {
        b.iter(|| {
            let pool = Arc::new(BufferPool::new(MemStorage::new()));
            let t = BTree::create(pool).unwrap();
            for i in 0..10_000u32 {
                t.insert(
                    &(i.wrapping_mul(2654435761)).to_be_bytes(),
                    &i.to_le_bytes(),
                )
                .unwrap();
            }
            black_box(t.len())
        })
    });

    c.bench_function("btree_bulk_load_100k", |b| {
        b.iter(|| black_box(loaded_tree(100_000).len()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_btree
}
criterion_main!(benches);
