//! Model-based property tests: the B+ tree must behave exactly like a
//! reference `BTreeMap<Vec<u8>, Vec<Vec<u8>>>` (multimap) under arbitrary
//! operation sequences, across page sizes.
//!
//! The interleaved model draws keys from a few families that share
//! prefixes (so leaves carry fence prefixes of several lengths), with the
//! empty key, keys that are proper prefixes of others, and long keys and
//! values that take the escape cell header; it reads back with
//! `get_first`, `get_all` and `range` between mutations and checks the
//! tree's structure after every operation.

#![cfg(test)]

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

use proptest::prelude::*;

use nok_btree::BTree;
use nok_pager::{BufferPool, MemStorage};

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<u8>, Vec<u8>),
    DeleteFirst(Vec<u8>),
    DeleteValue(Vec<u8>, Vec<u8>),
}

fn arb_key() -> impl Strategy<Value = Vec<u8>> {
    // Small alphabet + short keys maximize duplicate and ordering collisions.
    prop::collection::vec(0u8..4, 1..4)
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (arb_key(), prop::collection::vec(any::<u8>(), 0..6)).prop_map(|(k, v)| Op::Insert(k, v)),
        arb_key().prop_map(Op::DeleteFirst),
        (arb_key(), prop::collection::vec(any::<u8>(), 0..6))
            .prop_map(|(k, v)| Op::DeleteValue(k, v)),
    ]
}

fn run_model(ops: &[Op], page_size: usize) {
    let pool = Arc::new(BufferPool::new(MemStorage::with_page_size(page_size)));
    let tree = BTree::create(pool).expect("create");
    let mut model: BTreeMap<Vec<u8>, Vec<Vec<u8>>> = BTreeMap::new();

    for op in ops {
        match op {
            Op::Insert(k, v) => {
                tree.insert(k, v).expect("insert");
                model.entry(k.clone()).or_default().push(v.clone());
            }
            Op::DeleteFirst(k) => {
                let removed = tree.delete(k, None).expect("delete");
                let model_removed = match model.get_mut(k) {
                    Some(vs) if !vs.is_empty() => {
                        vs.remove(0);
                        if vs.is_empty() {
                            model.remove(k);
                        }
                        true
                    }
                    _ => false,
                };
                assert_eq!(removed, model_removed, "delete-first divergence on {k:?}");
            }
            Op::DeleteValue(k, v) => {
                let removed = tree.delete(k, Some(v)).expect("delete");
                let model_removed = match model.get_mut(k) {
                    Some(vs) => match vs.iter().position(|x| x == v) {
                        Some(i) => {
                            vs.remove(i);
                            if vs.is_empty() {
                                model.remove(k);
                            }
                            true
                        }
                        None => false,
                    },
                    None => false,
                };
                assert_eq!(removed, model_removed, "delete-value divergence on {k:?}");
            }
        }
    }

    // Final state equivalence: counts, per-key lists, full ordered dump.
    let expected_len: u64 = model.values().map(|v| v.len() as u64).sum();
    assert_eq!(tree.len(), expected_len);
    for (k, vs) in &model {
        assert_eq!(&tree.get_all(k).expect("get_all"), vs, "values for {k:?}");
        assert_eq!(
            tree.get_first(k).expect("get_first").as_ref(),
            vs.first(),
            "first value for {k:?}"
        );
    }
    let dump: Vec<(Vec<u8>, Vec<u8>)> = tree
        .iter_all()
        .expect("iter")
        .map(|r| r.expect("item"))
        .collect();
    let expected_dump: Vec<(Vec<u8>, Vec<u8>)> = model
        .iter()
        .flat_map(|(k, vs)| vs.iter().map(move |v| (k.clone(), v.clone())))
        .collect();
    assert_eq!(dump, expected_dump, "ordered dump divergence");
}

/// A key from one of a few families sharing prefixes: the family's stem
/// (the empty one among them) and a tail, mostly short over a small
/// alphabet (duplicates, proper prefixes), sometimes long enough that the
/// suffix takes the escape header.
fn family_key() -> impl Strategy<Value = Vec<u8>> {
    const STEMS: [&[u8]; 5] = [b"", b"\x00\x07", b"\x00\x07\x81", b"dblp/j/", b"dblp/k/"];
    let stem = (0..STEMS.len()).prop_map(|i| STEMS[i]);
    let tail = prop_oneof![
        8 => prop::collection::vec(0u8..3, 0..3),
        1 => prop::collection::vec(any::<u8>(), 15..24),
    ];
    (stem, tail).prop_map(|(stem, tail)| [stem, &tail[..]].concat())
}

fn family_value() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        6 => prop::collection::vec(0u8..4, 0..3),
        1 => prop::collection::vec(any::<u8>(), 14..20),
    ]
}

fn arb_bound() -> impl Strategy<Value = Bound<Vec<u8>>> {
    prop_oneof![
        Just(Bound::Unbounded),
        family_key().prop_map(Bound::Included),
        family_key().prop_map(Bound::Excluded),
    ]
}

#[derive(Debug, Clone)]
enum Step {
    Insert(Vec<u8>, Vec<u8>),
    DeleteFirst(Vec<u8>),
    DeleteValue(Vec<u8>, Vec<u8>),
    GetFirst(Vec<u8>),
    GetAll(Vec<u8>),
    Range(Bound<Vec<u8>>, Bound<Vec<u8>>),
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        6 => (family_key(), family_value()).prop_map(|(k, v)| Step::Insert(k, v)),
        1 => family_key().prop_map(Step::DeleteFirst),
        1 => (family_key(), family_value()).prop_map(|(k, v)| Step::DeleteValue(k, v)),
        1 => family_key().prop_map(Step::GetFirst),
        1 => family_key().prop_map(Step::GetAll),
        1 => (arb_bound(), arb_bound()).prop_map(|(lo, hi)| Step::Range(lo, hi)),
    ]
}

fn as_ref(b: &Bound<Vec<u8>>) -> Bound<&[u8]> {
    match b {
        Bound::Included(k) => Bound::Included(k),
        Bound::Excluded(k) => Bound::Excluded(k),
        Bound::Unbounded => Bound::Unbounded,
    }
}

/// Interleaved mutations and reads against the multimap model, the tree's
/// structure verified after every `verify_every`th step and at the end.
fn run_interleaved(steps: &[Step], page_size: usize, verify_every: usize) {
    let pool = Arc::new(BufferPool::new(MemStorage::with_page_size(page_size)));
    let tree = BTree::create(pool).expect("create");
    let mut model: BTreeMap<Vec<u8>, Vec<Vec<u8>>> = BTreeMap::new();
    for (i, step) in steps.iter().enumerate() {
        match step {
            Step::Insert(k, v) => {
                tree.insert(k, v).expect("insert");
                model.entry(k.clone()).or_default().push(v.clone());
            }
            Step::DeleteFirst(k) => {
                let want = model.get_mut(k).map(|vs| vs.remove(0)).is_some();
                model.retain(|_, vs| !vs.is_empty());
                assert_eq!(tree.delete(k, None).expect("delete"), want, "{i}: {step:?}");
            }
            Step::DeleteValue(k, v) => {
                let want = model
                    .get_mut(k)
                    .and_then(|vs| vs.iter().position(|x| x == v).map(|p| vs.remove(p)))
                    .is_some();
                model.retain(|_, vs| !vs.is_empty());
                assert_eq!(
                    tree.delete(k, Some(v)).expect("delete"),
                    want,
                    "{i}: {step:?}"
                );
            }
            Step::GetFirst(k) => {
                let want = model.get(k).map(|vs| vs[0].clone());
                assert_eq!(tree.get_first(k).expect("get_first"), want, "{i}: {step:?}");
            }
            Step::GetAll(k) => {
                let want = model.get(k).cloned().unwrap_or_default();
                assert_eq!(tree.get_all(k).expect("get_all"), want, "{i}: {step:?}");
            }
            Step::Range(lo, hi) => {
                let got: Vec<(Vec<u8>, Vec<u8>)> = tree
                    .range(as_ref(lo), as_ref(hi))
                    .expect("range")
                    .map(|r| r.expect("item"))
                    .collect();
                let want: Vec<(Vec<u8>, Vec<u8>)> = model
                    .iter()
                    .filter(|(k, _)| {
                        let k = k.as_slice();
                        let above = match lo {
                            Bound::Included(b) => k >= b.as_slice(),
                            Bound::Excluded(b) => k > b.as_slice(),
                            Bound::Unbounded => true,
                        };
                        let below = match hi {
                            Bound::Included(b) => k <= b.as_slice(),
                            Bound::Excluded(b) => k < b.as_slice(),
                            Bound::Unbounded => true,
                        };
                        above && below
                    })
                    .flat_map(|(k, vs)| vs.iter().map(move |v| (k.clone(), v.clone())))
                    .collect();
                assert_eq!(got, want, "{i}: {step:?}");
            }
        }
        if i % verify_every == 0 || i + 1 == steps.len() {
            let issues = tree.verify_structure().expect("verify");
            assert!(issues.is_empty(), "{i}: {step:?}: {issues:?}");
        }
    }
    let dump: Vec<(Vec<u8>, Vec<u8>)> = tree
        .iter_all()
        .expect("iter")
        .map(|r| r.expect("item"))
        .collect();
    let expected: Vec<(Vec<u8>, Vec<u8>)> = model
        .iter()
        .flat_map(|(k, vs)| vs.iter().map(move |v| (k.clone(), v.clone())))
        .collect();
    assert_eq!(dump, expected, "ordered dump divergence");
    assert_eq!(tree.len(), expected.len() as u64);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn interleaved_ops_match_model_256_byte_pages(steps in prop::collection::vec(arb_step(), 0..400)) {
        run_interleaved(&steps, 256, 1);
    }

    #[test]
    fn interleaved_ops_match_model_1k_pages(steps in prop::collection::vec(arb_step(), 0..400)) {
        run_interleaved(&steps, 1024, 1);
    }

    #[test]
    fn interleaved_ops_match_model_4k_pages(steps in prop::collection::vec(arb_step(), 0..1500)) {
        // Enough inserts to split 4 KiB leaves a few times.
        run_interleaved(&steps, 4096, 25);
    }

    #[test]
    fn bulk_load_of_families_verifies_and_reads_back(
        pairs in prop::collection::vec((family_key(), family_value()), 0..600),
        page_size in (0usize..3).prop_map(|i| [256, 1024, 4096][i]),
        fill in (50u32..100).prop_map(|f| f64::from(f) / 100.0),
    ) {
        let mut pairs = pairs;
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        let pool = Arc::new(BufferPool::new(MemStorage::with_page_size(page_size)));
        let tree = BTree::bulk_load(pool, pairs.clone(), fill).expect("bulk");
        let issues = tree.verify_structure().expect("verify");
        prop_assert!(issues.is_empty(), "{:?}", issues);
        let dump: Vec<_> = tree.iter_all().unwrap().map(|r| r.unwrap()).collect();
        prop_assert_eq!(dump, pairs.clone());
        for (k, _) in pairs.iter().step_by(7) {
            let want: Vec<Vec<u8>> =
                pairs.iter().filter(|(pk, _)| pk == k).map(|(_, v)| v.clone()).collect();
            prop_assert_eq!(tree.get_all(k).unwrap(), want);
        }
    }

    #[test]
    fn matches_btreemap_model_4k_pages(ops in prop::collection::vec(arb_op(), 0..300)) {
        run_model(&ops, 4096);
    }

    #[test]
    fn matches_btreemap_model_tiny_pages(ops in prop::collection::vec(arb_op(), 0..300)) {
        // 128-byte pages force constant splits and deep trees.
        run_model(&ops, 128);
    }

    #[test]
    fn range_queries_match_model(
        keys in prop::collection::vec(arb_key(), 1..120),
        lo in arb_key(),
        hi in arb_key(),
    ) {
        let pool = Arc::new(BufferPool::new(MemStorage::with_page_size(256)));
        let tree = BTree::create(pool).expect("create");
        let mut model: BTreeMap<Vec<u8>, u32> = BTreeMap::new();
        for (i, k) in keys.iter().enumerate() {
            tree.insert(k, &(i as u32).to_le_bytes()).expect("insert");
            model.entry(k.clone()).or_insert(0);
            *model.get_mut(k).unwrap() += 1;
        }
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        let got: u64 = tree
            .range(Bound::Included(&lo), Bound::Included(&hi))
            .expect("range")
            .map(|r| {
                r.expect("item");
            })
            .count() as u64;
        let want: u64 = model
            .range::<Vec<u8>, _>((Bound::Included(&lo), Bound::Included(&hi)))
            .map(|(_, c)| *c as u64)
            .sum();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn bulk_load_equals_insertion(keys in prop::collection::vec(arb_key(), 0..200)) {
        let mut sorted: Vec<(Vec<u8>, Vec<u8>)> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| (k.clone(), (i as u32).to_le_bytes().to_vec()))
            .collect();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        let bulk_pool = Arc::new(BufferPool::new(MemStorage::with_page_size(256)));
        let bulk = BTree::bulk_load(bulk_pool, sorted.clone(), 0.85).expect("bulk");
        let ins_pool = Arc::new(BufferPool::new(MemStorage::with_page_size(256)));
        let ins = BTree::create(ins_pool).expect("create");
        for (k, v) in &sorted {
            ins.insert(k, v).expect("insert");
        }
        let a: Vec<_> = bulk.iter_all().unwrap().map(|r| r.unwrap()).collect();
        let b: Vec<_> = ins.iter_all().unwrap().map(|r| r.unwrap()).collect();
        // Same multiset per key (insertion order of equal keys may differ
        // between the two construction paths only if values differ per
        // position — they do, so compare sorted).
        let mut a_sorted = a.clone();
        a_sorted.sort();
        let mut b_sorted = b;
        b_sorted.sort();
        prop_assert_eq!(a_sorted, b_sorted);
        prop_assert_eq!(bulk.len(), ins.len());
    }
}
