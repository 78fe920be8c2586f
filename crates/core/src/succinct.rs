//! Succinct balanced-parentheses kernels for the bit-packed structure page:
//! a plain bitvector, a rank/select directory (popcount
//! superblocks + sampled select), and a per-page excess directory that
//! answers the forward/backward excess searches behind `subtree_close`,
//! `following_sibling` and `parent` in O(words scanned) instead of an
//! entry-by-entry walk.
//!
//! The bit convention matches the page format: bit `1` = open parenthesis
//! (a Σ character), bit `0` = close. Bits are stored LSB-first within each
//! 64-bit word, so bit `i` of the vector is bit `i % 64` of word `i / 64` —
//! the same order the on-disk byte packing uses (bit `i` of the page is bit
//! `i % 8` of byte `i / 8`).
//!
//! *Excess* is the running open-minus-close count: `E(j) = 2·rank1(j+1) −
//! (j+1)`, the balanced-parentheses depth after entry `j`. Within one page
//! the entry level is `st + E(j)`, which is what ties these kernels back to
//! the paper's level convention.

/// Bits per rank superblock (8 words of 64).
pub const SUPER_BITS: usize = 512;
/// Words per rank superblock.
pub const SUPER_WORDS: usize = SUPER_BITS / 64;
/// One select sample per this many 1-bits.
pub const SELECT_SAMPLE: usize = 64;

// ---------------------------------------------------------------------------
// Varint tag codes
// ---------------------------------------------------------------------------

/// Encoded LEB128 width of a tag code (1 byte below 128, 2 below 16384,
/// 3 otherwise).
#[inline]
pub fn varint_len(v: u16) -> usize {
    if v < 0x80 {
        1
    } else if v < 0x4000 {
        2
    } else {
        3
    }
}

/// Append the LEB128 encoding of `v`.
pub fn write_varint(out: &mut Vec<u8>, v: u16) {
    let mut v = v as u32;
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decode the LEB128 value starting at `buf[pos]`; returns `(value, width)`.
/// `None` on truncation or a value exceeding `u16`.
pub fn read_varint(buf: &[u8], pos: usize) -> Option<(u16, usize)> {
    let mut v: u32 = 0;
    let mut shift = 0u32;
    let mut width = 0usize;
    loop {
        let byte = *buf.get(pos + width)?;
        width += 1;
        v |= ((byte & 0x7F) as u32) << shift;
        if byte & 0x80 == 0 {
            if v > u16::MAX as u32 {
                return None;
            }
            return Some((v as u16, width));
        }
        shift += 7;
        if shift > 14 {
            return None; // a u16 never needs more than 3 LEB128 bytes
        }
    }
}

// ---------------------------------------------------------------------------
// BitVec
// ---------------------------------------------------------------------------

/// A growable bitvector over 64-bit words, LSB-first.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// An empty bitvector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from an iterator of bits.
    pub fn from_bits<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let mut bv = Self::new();
        for b in bits {
            bv.push(b);
        }
        bv
    }

    /// Append one bit.
    #[inline]
    pub fn push(&mut self, bit: bool) {
        let w = self.len / 64;
        if w == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[w] |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Bit `i` (panics when out of range).
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no bits are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The backing words (trailing bits of the last word are zero).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Total number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

// ---------------------------------------------------------------------------
// Rank/select directory
// ---------------------------------------------------------------------------

/// Rank/select over a [`BitVec`]: absolute popcount totals at
/// [`SUPER_BITS`]-bit superblock boundaries, per-word popcount inside a
/// superblock at query time, and a sampled select directory (one sample per
/// [`SELECT_SAMPLE`] ones) to bound the select scan.
#[derive(Debug, Clone)]
pub struct RankSelect {
    bits: BitVec,
    /// `super_rank[s]` = ones in bits `[0, s * SUPER_BITS)`.
    super_rank: Vec<u32>,
    /// `select_samples[j]` = position of the `(j * SELECT_SAMPLE)`-th 1-bit
    /// (0-based).
    select_samples: Vec<u32>,
}

impl RankSelect {
    /// Build the directory for `bits`.
    pub fn build(bits: BitVec) -> Self {
        let n_super = bits.len().div_ceil(SUPER_BITS) + 1;
        let mut super_rank = Vec::with_capacity(n_super);
        let mut select_samples = Vec::new();
        let mut ones = 0u32;
        super_rank.push(0);
        for (w, &word) in bits.words().iter().enumerate() {
            let mut rem = word;
            while rem != 0 {
                let r = rem.trailing_zeros() as usize;
                if ones as usize % SELECT_SAMPLE == 0 {
                    select_samples.push((w * 64 + r) as u32);
                }
                ones += 1;
                rem &= rem - 1;
            }
            if (w + 1) % SUPER_WORDS == 0 {
                super_rank.push(ones);
            }
        }
        while super_rank.len() < n_super {
            super_rank.push(ones);
        }
        Self {
            bits,
            super_rank,
            select_samples,
        }
    }

    /// The underlying bits.
    #[inline]
    pub fn bits(&self) -> &BitVec {
        &self.bits
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// True when the vector is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Ones in `bits[0, i)`. `i` may equal `len()`.
    pub fn rank1(&self, i: usize) -> usize {
        assert!(i <= self.bits.len(), "rank index {i} out of range");
        let s = i / SUPER_BITS;
        let mut ones = self.super_rank[s] as usize;
        let first_word = s * SUPER_WORDS;
        let last_word = i / 64;
        for w in first_word..last_word {
            ones += self.bits.words()[w].count_ones() as usize;
        }
        let r = i % 64;
        if r != 0 && last_word < self.bits.words().len() {
            ones += (self.bits.words()[last_word] & ((1u64 << r) - 1)).count_ones() as usize;
        }
        ones
    }

    /// Zeros in `bits[0, i)`.
    #[inline]
    pub fn rank0(&self, i: usize) -> usize {
        i - self.rank1(i)
    }

    /// Position of the `k`-th 1-bit (0-based): the unique `p` with bit `p`
    /// set and `rank1(p) == k`. `None` when fewer than `k+1` ones exist.
    pub fn select1(&self, k: usize) -> Option<usize> {
        let sample = k / SELECT_SAMPLE;
        let start = *self.select_samples.get(sample)? as usize;
        let mut remaining = k - sample * SELECT_SAMPLE;
        let mut w = start / 64;
        // Mask off the ones before the sampled position in its word.
        let mut word = self.bits.words()[w] & !((1u64 << (start % 64)) - 1);
        loop {
            let ones = word.count_ones() as usize;
            if remaining < ones {
                let mut rem = word;
                for _ in 0..remaining {
                    rem &= rem - 1;
                }
                return Some(w * 64 + rem.trailing_zeros() as usize);
            }
            remaining -= ones;
            w += 1;
            if w >= self.bits.words().len() {
                return None;
            }
            word = self.bits.words()[w];
        }
    }

    /// Balanced-parentheses excess of the prefix `bits[0, i)`:
    /// `2·rank1(i) − i` (1 = open, 0 = close).
    #[inline]
    pub fn excess(&self, i: usize) -> i64 {
        2 * self.rank1(i) as i64 - i as i64
    }
}

// ---------------------------------------------------------------------------
// Per-page excess directory
// ---------------------------------------------------------------------------

/// The per-page navigation directory: a
/// [`RankSelect`] over the page's parenthesis bits plus per-word and
/// per-superblock minimum-prefix-excess values, supporting the forward and
/// backward excess searches all four navigation primitives reduce to.
///
/// `E(j)` below is the excess *after* entry `j` (so the entry level is
/// `st + E(j)`); `E(-1) = 0` by convention.
#[derive(Debug, Clone)]
pub struct PageBp {
    rs: RankSelect,
    /// `word_min[w]` = min over entries `j` in word `w` of `E(j)`
    /// (`i32::MAX` for words past the end).
    word_min: Vec<i32>,
    /// `super_min[s]` = min of `word_min` over superblock `s`.
    super_min: Vec<i32>,
}

impl PageBp {
    /// Build the directory from the page's parenthesis bits.
    pub fn build(bits: BitVec) -> Self {
        let n_words = bits.words().len();
        let mut word_min = Vec::with_capacity(n_words);
        let mut e = 0i32;
        for w in 0..n_words {
            let word = bits.words()[w];
            let end = (bits.len() - w * 64).min(64);
            let mut m = i32::MAX;
            for r in 0..end {
                e += if (word >> r) & 1 == 1 { 1 } else { -1 };
                m = m.min(e);
            }
            word_min.push(m);
        }
        let mut super_min = Vec::with_capacity(n_words.div_ceil(SUPER_WORDS));
        for chunk in word_min.chunks(SUPER_WORDS) {
            super_min.push(chunk.iter().copied().min().unwrap_or(i32::MAX));
        }
        Self {
            rs: RankSelect::build(bits),
            word_min,
            super_min,
        }
    }

    /// Number of entries (bits).
    #[inline]
    pub fn len(&self) -> usize {
        self.rs.len()
    }

    /// True when the page holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rs.is_empty()
    }

    /// The rank/select directory (bit access, rank, select).
    #[inline]
    pub fn rank_select(&self) -> &RankSelect {
        &self.rs
    }

    /// Excess after entry `i`: `E(i)`.
    #[inline]
    pub fn excess_after(&self, i: usize) -> i32 {
        self.rs.excess(i + 1) as i32
    }

    /// Scan word `w` from bit `start_r`, with `e` = excess before that bit,
    /// for the first position with excess ≤ `target`. Updates `e` to the
    /// excess after the word when not found.
    #[inline]
    fn scan_word_le(&self, w: usize, start_r: usize, e: &mut i32, target: i32) -> Option<usize> {
        let word = self.rs.bits().words()[w];
        let end = (self.rs.len() - w * 64).min(64);
        for r in start_r..end {
            *e += if (word >> r) & 1 == 1 { 1 } else { -1 };
            if *e <= target {
                return Some(w * 64 + r);
            }
        }
        None
    }

    /// First `j ≥ from` with `E(j) ≤ target`, or `None` if no such entry
    /// exists in the page. This is the kernel behind `subtree_close` (close
    /// of a node at level `l` is the first later entry with level `< l`) and
    /// `following_sibling` (land on the close, then look at the next entry).
    pub fn fwd_search_le(&self, from: usize, target: i32) -> Option<usize> {
        if from >= self.rs.len() {
            return None;
        }
        let w0 = from / 64;
        let mut e = if from % 64 == 0 {
            self.rs.excess(w0 * 64) as i32
        } else {
            self.excess_after(from - 1)
        };
        if let Some(j) = self.scan_word_le(w0, from % 64, &mut e, target) {
            return Some(j);
        }
        let n_words = self.rs.bits().words().len();
        let mut w = w0 + 1;
        while w < n_words {
            // Superblock skip: at a superblock boundary whose minimum can
            // never reach the target, hop all SUPER_WORDS words at once.
            if w % SUPER_WORDS == 0 {
                let s = w / SUPER_WORDS;
                if self.super_min[s] > target {
                    w += SUPER_WORDS;
                    continue;
                }
            }
            if self.word_min[w] <= target {
                let mut e = self.rs.excess(w * 64) as i32;
                return self.scan_word_le(w, 0, &mut e, target);
            }
            w += 1;
        }
        None
    }

    /// Largest `j < from` with `E(j) ≤ target` (with `E(-1) = 0`, a result
    /// of `None` means only the virtual position before the page qualifies —
    /// the caller then checks whether `0 ≤ target`). Kernel behind `parent`:
    /// the parent of an open at level `l` opens right after the last earlier
    /// position with excess `l − 2 − st`.
    pub fn bwd_search_le(&self, from: usize, target: i32) -> Option<usize> {
        if from == 0 {
            return None;
        }
        let from = from.min(self.rs.len());
        let mut w = (from - 1) / 64;
        loop {
            if self.word_min[w] <= target || self.rs.excess(w * 64) as i32 <= target {
                // The word may contain a qualifying position (or the excess
                // entering it already qualifies partway through a run of
                // closes); scan it backward.
                let word = self.rs.bits().words()[w];
                let hi = if w == (from - 1) / 64 {
                    (from - 1) % 64
                } else {
                    (self.rs.len() - w * 64).min(64) - 1
                };
                let mut e = self.excess_after(w * 64 + hi);
                let mut r = hi as isize;
                while r >= 0 {
                    if e <= target {
                        return Some(w * 64 + r as usize);
                    }
                    e -= if (word >> r) & 1 == 1 { 1 } else { -1 };
                    r -= 1;
                }
            }
            if w == 0 {
                return None;
            }
            w -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits_of(s: &str) -> BitVec {
        BitVec::from_bits(s.chars().map(|c| c == '('))
    }

    #[test]
    fn varint_round_trip_all_widths() {
        for v in [0u16, 1, 127, 128, 300, 16383, 16384, 40000, u16::MAX] {
            let mut buf = vec![0xAA]; // leading junk: encode at offset 1
            write_varint(&mut buf, v);
            assert_eq!(buf.len() - 1, varint_len(v), "width of {v}");
            let (got, w) = read_varint(&buf, 1).unwrap();
            assert_eq!((got, w), (v, varint_len(v)), "round trip of {v}");
        }
    }

    #[test]
    fn varint_truncation_rejected() {
        assert!(read_varint(&[0x80], 0).is_none());
        assert!(read_varint(&[], 0).is_none());
        // 4-byte LEB128 exceeds u16.
        assert!(read_varint(&[0x80, 0x80, 0x80, 0x01], 0).is_none());
    }

    #[test]
    fn bitvec_push_get_across_words() {
        let mut bv = BitVec::new();
        for i in 0..200 {
            bv.push(i % 3 == 0);
        }
        assert_eq!(bv.len(), 200);
        for i in 0..200 {
            assert_eq!(bv.get(i), i % 3 == 0, "bit {i}");
        }
        assert_eq!(bv.count_ones(), (0..200).filter(|i| i % 3 == 0).count());
    }

    #[test]
    fn rank_select_match_linear_scan() {
        // A mix long enough to cross a superblock boundary.
        let bits = BitVec::from_bits((0..1500).map(|i| (i * 7) % 11 < 5));
        let rs = RankSelect::build(bits.clone());
        let mut ones = 0usize;
        for i in 0..=bits.len() {
            assert_eq!(rs.rank1(i), ones, "rank1({i})");
            assert_eq!(rs.rank0(i), i - ones, "rank0({i})");
            if i < bits.len() && bits.get(i) {
                assert_eq!(rs.select1(ones), Some(i), "select1({ones})");
                ones += 1;
            }
        }
        assert_eq!(rs.select1(ones), None);
    }

    #[test]
    fn excess_matches_definition() {
        let bits = bits_of("(()(())())");
        let rs = RankSelect::build(bits.clone());
        let mut e = 0i64;
        assert_eq!(rs.excess(0), 0);
        for i in 0..bits.len() {
            e += if bits.get(i) { 1 } else { -1 };
            assert_eq!(rs.excess(i + 1), e, "excess({})", i + 1);
        }
    }

    #[test]
    fn fwd_search_finds_matching_close() {
        // ( ( ) ( ( ) ) ( ) )   E: 1 2 1 2 3 2 1 2 1 0
        let bp = PageBp::build(bits_of("(()(())())"));
        // Close of the node opened at 0 (E before = 0): first j with E ≤ 0.
        assert_eq!(bp.fwd_search_le(1, 0), Some(9));
        // Close of the node opened at 3 (level 2): first j ≥ 4 with E ≤ 1.
        assert_eq!(bp.fwd_search_le(4, 1), Some(6));
        // Nothing below -1 exists.
        assert_eq!(bp.fwd_search_le(0, -1), None);
    }

    #[test]
    fn fwd_search_agrees_with_linear_scan_across_words() {
        // Deep comb: 100 opens, then alternating close/open pairs, then
        // closes — crosses word and superblock boundaries.
        let mut s = String::new();
        for _ in 0..300 {
            s.push('(');
        }
        for _ in 0..150 {
            s.push_str(")(");
        }
        for _ in 0..300 {
            s.push(')');
        }
        let bits = bits_of(&s);
        let bp = PageBp::build(bits.clone());
        let excess: Vec<i32> = {
            let mut v = Vec::new();
            let mut e = 0;
            for i in 0..bits.len() {
                e += if bits.get(i) { 1 } else { -1 };
                v.push(e);
            }
            v
        };
        for from in [0usize, 1, 63, 64, 65, 299, 300, 511, 512, 513, 700] {
            for target in [0i32, 1, 50, 100, 250, 299] {
                let expect = (from..bits.len()).find(|&j| excess[j] <= target);
                assert_eq!(
                    bp.fwd_search_le(from, target),
                    expect,
                    "fwd from={from} target={target}"
                );
            }
        }
    }

    #[test]
    fn bwd_search_agrees_with_linear_scan() {
        let mut s = String::new();
        for _ in 0..200 {
            s.push_str("(()");
        }
        for _ in 0..200 {
            s.push(')');
        }
        let bits = bits_of(&s);
        let bp = PageBp::build(bits.clone());
        let excess: Vec<i32> = {
            let mut v = Vec::new();
            let mut e = 0;
            for i in 0..bits.len() {
                e += if bits.get(i) { 1 } else { -1 };
                v.push(e);
            }
            v
        };
        for from in [1usize, 2, 64, 65, 128, 400, 600, bits.len()] {
            for target in [-1i32, 0, 1, 5, 100, 199] {
                let expect = (0..from).rev().find(|&j| excess[j] <= target);
                assert_eq!(
                    bp.bwd_search_le(from, target),
                    expect,
                    "bwd from={from} target={target}"
                );
            }
        }
        assert_eq!(bp.bwd_search_le(0, 100), None);
    }

    #[test]
    fn empty_structures_are_safe() {
        let rs = RankSelect::build(BitVec::new());
        assert_eq!(rs.rank1(0), 0);
        assert_eq!(rs.select1(0), None);
        let bp = PageBp::build(BitVec::new());
        assert_eq!(bp.fwd_search_le(0, 0), None);
        assert_eq!(bp.bwd_search_le(0, 0), None);
    }
}
