//! Property tests on the succinct rank/select kernels: for random
//! bitvectors (including lengths straddling the word, superblock, and
//! select-sample boundaries), every directory-accelerated operation must
//! agree with a naive linear recomputation.

use proptest::prelude::*;

use nok_core::page::{self, Entry};
use nok_core::succinct::{
    read_varint, write_varint, BitVec, PageBp, RankSelect, SELECT_SAMPLE, SUPER_BITS,
};
use nok_core::TagCode;

fn naive_rank1(bits: &[bool], i: usize) -> usize {
    bits[..i].iter().filter(|b| **b).count()
}

fn naive_select1(bits: &[bool], k: usize) -> Option<usize> {
    bits.iter()
        .enumerate()
        .filter(|(_, b)| **b)
        .nth(k)
        .map(|(i, _)| i)
}

fn naive_excess(bits: &[bool], i: usize) -> i64 {
    bits[..i].iter().map(|b| if *b { 1i64 } else { -1 }).sum()
}

/// Lengths that straddle every directory boundary: word (64), superblock
/// (512), select sample (64 ones), each at 2^k-1, 2^k, 2^k+1.
fn boundary_lengths() -> Vec<usize> {
    let mut out = vec![0, 1, 2, 3];
    for base in [64usize, 128, SELECT_SAMPLE, SUPER_BITS, 2 * SUPER_BITS] {
        for d in [-1isize, 0, 1] {
            out.push((base as isize + d).max(0) as usize);
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// A balanced-parentheses sequence of `pairs` pairs shaped by `coin`
/// (random tree shape): always non-negative prefix excess, ends at zero.
fn balanced_from(pairs: usize, coin: &[bool]) -> Vec<bool> {
    let mut bits = Vec::with_capacity(pairs * 2);
    let mut open = 0usize; // opens still available
    let mut depth = 0usize;
    let mut flips = coin.iter().copied().cycle();
    while bits.len() < pairs * 2 {
        let c = flips.next().unwrap_or(true);
        let must_open = depth == 0 || open < pairs && c;
        if must_open && open < pairs {
            bits.push(true);
            open += 1;
            depth += 1;
        } else if depth > 0 {
            bits.push(false);
            depth -= 1;
        }
    }
    bits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// rank1, rank0, select1, and excess agree with the naive scans at
    /// every position of a random bitvector.
    #[test]
    fn rank_select_excess_match_naive(bits in proptest::collection::vec(any::<bool>(), 0..1200)) {
        let rs = RankSelect::build(BitVec::from_bits(bits.iter().copied()));
        prop_assert_eq!(rs.len(), bits.len());
        let ones = naive_rank1(&bits, bits.len());
        for i in 0..=bits.len() {
            prop_assert_eq!(rs.rank1(i), naive_rank1(&bits, i), "rank1({})", i);
            prop_assert_eq!(rs.rank0(i), i - naive_rank1(&bits, i), "rank0({})", i);
            prop_assert_eq!(rs.excess(i), naive_excess(&bits, i), "excess({})", i);
        }
        for k in 0..ones {
            prop_assert_eq!(rs.select1(k), naive_select1(&bits, k), "select1({})", k);
        }
        prop_assert_eq!(rs.select1(ones), None);
    }

    /// select1 is the right inverse of rank1 on every set bit.
    #[test]
    fn select_is_inverse_of_rank(bits in proptest::collection::vec(any::<bool>(), 1..800)) {
        let rs = RankSelect::build(BitVec::from_bits(bits.iter().copied()));
        for (i, b) in bits.iter().enumerate() {
            if *b {
                let k = rs.rank1(i);
                prop_assert_eq!(rs.select1(k), Some(i));
            }
        }
    }

    /// The excess-search kernels agree with naive scans on balanced-parens
    /// bitvectors for every (from, target) in range.
    #[test]
    fn excess_search_matches_naive(
        pairs in 1usize..110,
        coin in proptest::collection::vec(any::<bool>(), 64),
    ) {
        let bits = balanced_from(pairs, &coin);
        let n = bits.len();
        let bp = PageBp::build(BitVec::from_bits(bits.iter().copied()));
        let max_depth = (0..=n).map(|i| naive_excess(&bits, i)).max().unwrap_or(0) as i32;
        for from in 0..=n {
            for target in -1..=max_depth {
                let fwd = (from..n)
                    .find(|&j| naive_excess(&bits, j + 1) <= i64::from(target));
                prop_assert_eq!(
                    bp.fwd_search_le(from, target), fwd,
                    "fwd_search_le({}, {})", from, target
                );
                let bwd = (0..from)
                    .rev()
                    .find(|&j| naive_excess(&bits, j + 1) <= i64::from(target));
                prop_assert_eq!(
                    bp.bwd_search_le(from, target), bwd,
                    "bwd_search_le({}, {})", from, target
                );
            }
        }
    }

    /// `PageBp::fwd_search_le` is the only in-page navigation path: on
    /// random pages — a slice of a balanced string entered at level `st`,
    /// long enough to cross word and superblock boundaries, encoded and
    /// decoded through the page format — it must agree with a linear scan
    /// of the decoded level array for every `(from, target level)`.
    #[test]
    fn page_excess_search_matches_linear_level_scan(
        pairs in 1usize..400,
        st in 0u16..40,
        coin in proptest::collection::vec(any::<bool>(), 97),
        tags in proptest::collection::vec(0u16..(1 << 15), 13),
    ) {
        // `st` leading closes make the page start mid-subtree, as every
        // page but the first does.
        let mut entries = vec![Entry::Close; st as usize];
        let mut opened = 0usize;
        for open in balanced_from(pairs, &coin) {
            entries.push(if open {
                opened += 1;
                Entry::Open(TagCode(tags[opened % tags.len()]))
            } else {
                Entry::Close
            });
        }
        let content = page::encode_content(&entries);
        let mut buf = vec![0u8; page::HEADER_SIZE + content.len()];
        page::write_header(&mut buf, &page::PageHeader {
            st,
            lo: 0,
            hi: 0,
            next: page::NO_PAGE,
            nbytes: content.len() as u16,
        });
        buf[page::HEADER_SIZE..].copy_from_slice(&content);
        let decoded = page::decode_page(&buf).expect("canonical page decodes");
        prop_assert_eq!(&decoded.entries().collect::<Vec<_>>(), &entries);

        let n = decoded.len();
        let levels: Vec<u16> = decoded.levels().collect();
        let max_level = levels.iter().copied().max().unwrap_or(0);
        for target in 0..=max_level {
            // Sweep `from` downwards so the linear answer is carried along.
            let mut linear = None;
            prop_assert_eq!(decoded.bp.fwd_search_le(n, i32::from(target) - i32::from(st)), None);
            for from in (0..n).rev() {
                if levels[from] <= target {
                    linear = Some(from);
                }
                prop_assert_eq!(
                    decoded.bp.fwd_search_le(from, i32::from(target) - i32::from(st)),
                    linear,
                    "from={} target level={} st={}", from, target, st
                );
            }
        }
    }

    /// Varint round-trip over the whole 15-bit tag-code space (and the
    /// 16-bit values the reader must still parse).
    #[test]
    fn varint_round_trips(vals in proptest::collection::vec(any::<u16>(), 0..64)) {
        let mut buf = Vec::new();
        for v in &vals {
            write_varint(&mut buf, *v);
        }
        let mut pos = 0usize;
        for v in &vals {
            let (got, width) = read_varint(&buf, pos).expect("decode");
            prop_assert_eq!(got, *v);
            pos += width;
        }
        prop_assert_eq!(pos, buf.len());
    }
}

/// Deterministic sweep of the directory boundary lengths with adversarial
/// fill patterns (all ones stresses select samples; alternating stresses
/// both rank directions).
#[test]
fn boundary_lengths_round_trip() {
    for n in boundary_lengths() {
        for pattern in 0..3u8 {
            let bits: Vec<bool> = (0..n)
                .map(|i| match pattern {
                    0 => true,
                    1 => i % 2 == 0,
                    _ => i % 7 == 3,
                })
                .collect();
            let rs = RankSelect::build(BitVec::from_bits(bits.iter().copied()));
            let ones = naive_rank1(&bits, n);
            assert_eq!(rs.rank1(n), ones, "n={n} pattern={pattern}");
            for i in (0..=n).step_by(1.max(n / 97)) {
                assert_eq!(rs.rank1(i), naive_rank1(&bits, i), "n={n} i={i}");
                assert_eq!(rs.excess(i), naive_excess(&bits, i), "n={n} i={i}");
            }
            for k in (0..ones).step_by(1.max(ones / 97)) {
                assert_eq!(rs.select1(k), naive_select1(&bits, k), "n={n} k={k}");
            }
            assert_eq!(rs.select1(ones), None, "n={n}");
        }
    }
}
