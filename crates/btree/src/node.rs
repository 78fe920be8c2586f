//! On-page node layout for the B+ tree.
//!
//! Every node is one page, slotted:
//!
//! ```text
//! +------+--------+------------+------+-------------------+----------------+-----------+
//! | type | ncells | cell_start | link | leaves only:      | slot array ... | cells ... |
//! | u8   | u16    | u16        | u32  | plen:u8 prefix... | u16 * ncells   | (at end)  |
//! +------+--------+------------+------+-------------------+----------------+-----------+
//! ```
//!
//! * `type`: 1 = leaf, 2 = internal.
//! * `cell_start`: offset of the lowest cell (cells grow downward from the
//!   page end toward the slot array).
//! * `link`: for leaves, the next-leaf page id (forming the scan chain); for
//!   internal nodes, the leftmost child.
//! * leaf prefix: a prefix of both *fences* — the separators that route to
//!   the leaf — written as the longest common one (at most 255 bytes), and
//!   empty at either end of the chain. Every key routed to the leaf
//!   (lower fence ≤ key ≤ upper fence) starts with it, so an insert never
//!   re-encodes the leaf; a cell stores the rest of its key.
//! * leaf cell: `head suffix... value...` — `head` is one byte
//!   `suffix_len << 4 | value_len` when both are below 15, else
//!   [`ESCAPE`] followed by the two lengths as LEB128.
//! * internal cell: `klen:u16 child:u32 key...` — `key` is the whole
//!   separator (smallest key that routes to `child`).
//!
//! A lookup compares its probe with the prefix once and then binary-searches
//! the suffixes where they lie. Deletion compacts the cell area immediately;
//! pages are small enough that the copy is cheap and it keeps free-space
//! accounting trivial. Leaf reads never panic: a cell that does not lie in
//! the page reads as empty, and [`crate::verify`] reports it.

use std::cmp::Ordering;
use std::ops::Range;

use nok_pager::codec::{get_u16, get_u32, put_u16, put_u32};

pub const NODE_LEAF: u8 = 1;
pub const NODE_INTERNAL: u8 = 2;

pub const OFF_TYPE: usize = 0;
pub const OFF_NCELLS: usize = 1;
pub const OFF_CELL_START: usize = 3;
pub const OFF_LINK: usize = 5;
/// Bytes of the header every node starts with.
pub const HEADER_SIZE: usize = 9;
/// Offset of a leaf's prefix length; the prefix follows it.
pub const OFF_PREFIX_LEN: usize = HEADER_SIZE;
/// Bytes of a leaf's header with an empty prefix.
pub const LEAF_HEADER_SIZE: usize = HEADER_SIZE + 1;
/// Longest prefix a leaf stores.
pub const MAX_PREFIX: usize = u8::MAX as usize;
/// The head byte of a leaf cell whose lengths follow as LEB128.
pub const ESCAPE: u8 = 0xFF;
/// Lengths below this fit a nibble of a one-byte head.
const NIBBLE_LIMIT: usize = 15;

/// Sentinel "no page" id used in leaf chains.
pub const NO_PAGE: u32 = u32::MAX;

/// Initialize `buf` as an empty node of the given type (a leaf's prefix is
/// empty).
pub fn init(buf: &mut [u8], node_type: u8) {
    buf[OFF_TYPE] = node_type;
    put_u16(buf, OFF_NCELLS, 0);
    put_u16(buf, OFF_CELL_START, buf.len() as u16);
    put_u32(buf, OFF_LINK, NO_PAGE);
    if node_type == NODE_LEAF {
        buf[OFF_PREFIX_LEN] = 0;
    }
}

pub fn node_type(buf: &[u8]) -> u8 {
    buf[OFF_TYPE]
}

pub fn is_leaf(buf: &[u8]) -> bool {
    node_type(buf) == NODE_LEAF
}

pub fn ncells(buf: &[u8]) -> usize {
    get_u16(buf, OFF_NCELLS) as usize
}

pub fn link(buf: &[u8]) -> u32 {
    get_u32(buf, OFF_LINK)
}

pub fn set_link(buf: &mut [u8], link: u32) {
    put_u32(buf, OFF_LINK, link);
}

pub(crate) fn cell_start(buf: &[u8]) -> usize {
    get_u16(buf, OFF_CELL_START) as usize
}

/// The prefix every key of leaf `buf` starts with.
pub fn leaf_prefix(buf: &[u8]) -> &[u8] {
    let len = buf[OFF_PREFIX_LEN] as usize;
    buf.get(LEAF_HEADER_SIZE..LEAF_HEADER_SIZE + len)
        .unwrap_or(&[])
}

/// Offset of the slot array: after the header, and a leaf's prefix.
pub(crate) fn slot_base(buf: &[u8]) -> usize {
    if is_leaf(buf) {
        LEAF_HEADER_SIZE + buf[OFF_PREFIX_LEN] as usize
    } else {
        HEADER_SIZE
    }
}

/// Offset of cell `i`; past the page when its slot is.
pub(crate) fn cell_offset(buf: &[u8], i: usize) -> usize {
    let slot = slot_base(buf) + 2 * i;
    match buf.get(slot..slot + 2) {
        Some(b) => u16::from_le_bytes([b[0], b[1]]) as usize,
        None => buf.len(),
    }
}

/// Is cell `i` the one this node received last? Cells are laid down from
/// the page end in arrival order, so that is the lowest one (after a
/// rebuild — [`remove`], [`write_leaf`] — the last slot's).
pub fn is_newest_cell(buf: &[u8], i: usize) -> bool {
    cell_offset(buf, i) == cell_start(buf)
}

/// Free bytes available for one more cell + slot.
pub fn free_space(buf: &[u8]) -> usize {
    cell_start(buf).saturating_sub(slot_base(buf) + 2 * ncells(buf))
}

/// Bytes of a leaf cell's head for a suffix of `slen` and a value of
/// `vlen` bytes.
pub(crate) fn head_size(slen: usize, vlen: usize) -> usize {
    if slen < NIBBLE_LIMIT && vlen < NIBBLE_LIMIT {
        1
    } else {
        1 + leb_len(slen) + leb_len(vlen)
    }
}

fn leb_len(mut v: usize) -> usize {
    let mut n = 1;
    while v >= 0x80 {
        v >>= 7;
        n += 1;
    }
    n
}

fn put_leb(buf: &mut [u8], mut at: usize, mut v: usize) -> usize {
    while v >= 0x80 {
        buf[at] = (v as u8) | 0x80;
        v >>= 7;
        at += 1;
    }
    buf[at] = v as u8;
    at + 1
}

/// A LEB128 length at `at` (at most three bytes: lengths fit a page) and
/// the offset after it; `None` past the page or past three bytes.
fn get_leb(buf: &[u8], mut at: usize) -> Option<(usize, usize)> {
    let mut v = 0usize;
    for shift in [0, 7, 14] {
        let b = *buf.get(at)?;
        at += 1;
        v |= ((b & 0x7F) as usize) << shift;
        if b < 0x80 {
            return Some((v, at));
        }
    }
    None
}

/// Bytes a leaf cell occupies (excluding its slot) for a key suffix of
/// `slen` bytes and a value of `vlen` bytes.
pub fn leaf_cell_size(slen: usize, vlen: usize) -> usize {
    head_size(slen, vlen) + slen + vlen
}

/// Bytes an internal cell occupies (excluding its slot).
pub fn internal_cell_size(key: &[u8]) -> usize {
    6 + key.len()
}

/// The byte ranges of the leaf cell at `off`: its head, its key suffix and
/// its value. `None` when the cell does not lie in the page.
pub(crate) fn leaf_cell_at(
    buf: &[u8],
    off: usize,
) -> Option<(Range<usize>, Range<usize>, Range<usize>)> {
    let head = *buf.get(off)?;
    let (slen, vlen, body) = if head == ESCAPE {
        let (slen, at) = get_leb(buf, off + 1)?;
        let (vlen, at) = get_leb(buf, at)?;
        (slen, vlen, at)
    } else {
        ((head >> 4) as usize, (head & 0x0F) as usize, off + 1)
    };
    let mid = body + slen;
    let end = mid + vlen;
    (end <= buf.len()).then_some((off..body, body..mid, mid..end))
}

/// Key suffix and value of leaf cell `i` (both empty if the cell does not
/// lie in the page).
pub fn leaf_cell(buf: &[u8], i: usize) -> (&[u8], &[u8]) {
    let off = cell_offset(buf, i);
    let cell = match buf.get(off) {
        Some(&head) if head != ESCAPE => {
            let mid = off + 1 + (head >> 4) as usize;
            buf.get(off + 1..mid)
                .zip(buf.get(mid..mid + (head & 0x0F) as usize))
        }
        _ => leaf_cell_at(buf, off).map(|(_, suffix, value)| (&buf[suffix], &buf[value])),
    };
    cell.unwrap_or((&[], &[]))
}

/// Stored key suffix of leaf cell `i` (its key less the leaf's prefix):
/// with a one-byte head, the only length read.
pub fn leaf_suffix(buf: &[u8], i: usize) -> &[u8] {
    let off = cell_offset(buf, i);
    match buf.get(off) {
        Some(&head) if head != ESCAPE => buf
            .get(off + 1..off + 1 + (head >> 4) as usize)
            .unwrap_or(&[]),
        _ => leaf_cell(buf, i).0,
    }
}

/// Value of leaf cell `i`.
pub fn leaf_value(buf: &[u8], i: usize) -> &[u8] {
    debug_assert!(is_leaf(buf));
    leaf_cell(buf, i).1
}

/// Is the key of leaf cell `i` equal to `key`?
pub fn leaf_key_eq(buf: &[u8], i: usize, key: &[u8]) -> bool {
    key.strip_prefix(leaf_prefix(buf))
        .is_some_and(|rest| leaf_suffix(buf, i) == rest)
}

/// The key `prefix ++ suffix` against `other`, without assembling it.
pub fn key_cmp(prefix: &[u8], suffix: &[u8], other: &[u8]) -> Ordering {
    let n = prefix.len().min(other.len());
    match prefix[..n].cmp(&other[..n]) {
        Ordering::Equal if n == prefix.len() => suffix.cmp(&other[n..]),
        // `other` is a proper prefix of the prefix: the key is longer.
        Ordering::Equal => Ordering::Greater,
        ord => ord,
    }
}

/// Key of internal cell `i` (a separator).
pub fn key(buf: &[u8], i: usize) -> &[u8] {
    debug_assert!(!is_leaf(buf));
    let off = cell_offset(buf, i);
    let Some(klen) = buf.get(off..off + 2) else {
        return &[];
    };
    let klen = u16::from_le_bytes([klen[0], klen[1]]) as usize;
    buf.get(off + 6..off + 6 + klen).unwrap_or(&[])
}

/// Child pointer of internal cell `i`.
pub fn child(buf: &[u8], i: usize) -> u32 {
    debug_assert!(!is_leaf(buf));
    let off = cell_offset(buf, i);
    get_u32(buf, off + 2)
}

/// First slot whose key is `>= probe` ("lower bound").
pub fn lower_bound(buf: &[u8], probe: &[u8]) -> usize {
    search(buf, probe, |k, p| k < p)
}

/// First slot whose key is `> probe` ("upper bound").
pub fn upper_bound(buf: &[u8], probe: &[u8]) -> usize {
    search(buf, probe, |k, p| k <= p)
}

/// First slot whose key is not `before` the probe. In a leaf the probe is
/// held against the prefix once: one that does not start with it sorts
/// before or after every key, and one that does is compared suffix to
/// suffix.
fn search(buf: &[u8], probe: &[u8], before: impl Fn(&[u8], &[u8]) -> bool) -> usize {
    let n = ncells(buf);
    let leaf = is_leaf(buf);
    let probe = if leaf {
        let prefix = leaf_prefix(buf);
        match probe.strip_prefix(prefix) {
            Some(rest) => rest,
            None if probe < prefix => return 0,
            None => return n,
        }
    } else {
        probe
    };
    let (mut lo, mut hi) = (0usize, n);
    while lo < hi {
        let mid = (lo + hi) / 2;
        let k = if leaf {
            leaf_suffix(buf, mid)
        } else {
            key(buf, mid)
        };
        if before(k, probe) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Bytes `(key, value)` takes in leaf `buf`, its slot included. `key`
/// starts with the leaf's prefix.
pub fn leaf_need(buf: &[u8], key: &[u8], value: &[u8]) -> usize {
    let slen = key.len().saturating_sub(leaf_prefix(buf).len());
    leaf_cell_size(slen, value.len()) + 2
}

/// Insert a leaf cell at slot position `pos`. `key` starts with the leaf's
/// prefix, and the caller has verified `free_space >= leaf_need`. Only the
/// new cell, the slot array and the header change.
pub fn leaf_insert(buf: &mut [u8], pos: usize, key: &[u8], value: &[u8]) {
    let plen = leaf_prefix(buf).len();
    debug_assert!(key.starts_with(leaf_prefix(buf)));
    let start = put_leaf_cell(buf, [&[], &key[plen..]], value);
    insert_slot(buf, pos, start as u16);
}

/// Write a leaf cell whose suffix is `suffix[0] ++ suffix[1]` below the
/// lowest cell; its offset.
fn put_leaf_cell(buf: &mut [u8], suffix: [&[u8]; 2], value: &[u8]) -> usize {
    let slen = suffix[0].len() + suffix[1].len();
    let start = cell_start(buf) - leaf_cell_size(slen, value.len());
    let mut at = start;
    if head_size(slen, value.len()) == 1 {
        buf[at] = (slen << 4 | value.len()) as u8;
        at += 1;
    } else {
        buf[at] = ESCAPE;
        at = put_leb(buf, at + 1, slen);
        at = put_leb(buf, at, value.len());
    }
    for part in [suffix[0], suffix[1], value] {
        buf[at..at + part.len()].copy_from_slice(part);
        at += part.len();
    }
    put_u16(buf, OFF_CELL_START, start as u16);
    start
}

/// Insert an internal cell `(key, child)` at slot position `pos`.
pub fn internal_insert(buf: &mut [u8], pos: usize, key: &[u8], child: u32) {
    let size = internal_cell_size(key);
    let start = cell_start(buf) - size;
    put_u16(buf, start, key.len() as u16);
    put_u32(buf, start + 2, child);
    buf[start + 6..start + size].copy_from_slice(key);
    insert_slot(buf, pos, start as u16);
    put_u16(buf, OFF_CELL_START, start as u16);
}

fn insert_slot(buf: &mut [u8], pos: usize, cell_off: u16) {
    let n = ncells(buf);
    debug_assert!(pos <= n);
    let base = slot_base(buf);
    // Shift slots [pos, n) right by one.
    buf.copy_within(base + 2 * pos..base + 2 * n, base + 2 * pos + 2);
    put_u16(buf, base + 2 * pos, cell_off);
    put_u16(buf, OFF_NCELLS, (n + 1) as u16);
}

/// Remove cell `pos`, compacting the cell area. A leaf keeps its prefix.
pub fn remove(buf: &mut [u8], pos: usize) {
    let old = buf.to_vec();
    clear_cells(buf);
    for i in (0..ncells(&old)).filter(|&i| i != pos) {
        append_raw(buf, raw_cell(&old, i));
    }
}

/// Rebuild internal node `buf` keeping only cells `[from, to)` (used by
/// splits).
pub fn truncate_to_range(buf: &mut [u8], from: usize, to: usize) {
    debug_assert!(!is_leaf(buf));
    let old = buf.to_vec();
    clear_cells(buf);
    for i in from..to {
        append_raw(buf, raw_cell(&old, i));
    }
}

/// Copy cells `[from, to)` of internal node `src` to the end of `dst`.
pub fn copy_range(src: &[u8], dst: &mut [u8], from: usize, to: usize) {
    debug_assert!(!is_leaf(src) && !is_leaf(dst));
    for i in from..to {
        append_raw(dst, raw_cell(src, i));
    }
}

/// Drop every slot and cell, keeping the header's type and link and a
/// leaf's prefix.
fn clear_cells(buf: &mut [u8]) {
    put_u16(buf, OFF_NCELLS, 0);
    put_u16(buf, OFF_CELL_START, buf.len() as u16);
}

/// The stored bytes of cell `i`, as they lie.
fn raw_cell(buf: &[u8], i: usize) -> &[u8] {
    let off = cell_offset(buf, i);
    let end = if is_leaf(buf) {
        leaf_cell_at(buf, off).map_or(off, |(_, _, value)| value.end)
    } else {
        off + 6 + get_u16(buf, off) as usize
    };
    &buf[off..end]
}

fn append_raw(buf: &mut [u8], cell: &[u8]) {
    let start = cell_start(buf) - cell.len();
    buf[start..start + cell.len()].copy_from_slice(cell);
    let n = ncells(buf);
    put_u16(buf, slot_base(buf) + 2 * n, start as u16);
    put_u16(buf, OFF_NCELLS, (n + 1) as u16);
    put_u16(buf, OFF_CELL_START, start as u16);
}

/// One leaf entry wherever it lies: its key is `prefix ++ suffix`. Splits
/// collect a leaf's entries (and the pending one) this way and write them
/// out again against each half's own prefix.
#[derive(Clone, Copy, Debug)]
pub struct Entry<'a> {
    pub prefix: &'a [u8],
    pub suffix: &'a [u8],
    pub value: &'a [u8],
}

impl<'a> Entry<'a> {
    /// An entry given whole.
    pub fn whole(key: &'a [u8], value: &'a [u8]) -> Self {
        Entry {
            prefix: &[],
            suffix: key,
            value,
        }
    }

    pub fn key_len(&self) -> usize {
        self.prefix.len() + self.suffix.len()
    }

    /// The whole key.
    pub fn key(&self) -> Vec<u8> {
        [self.prefix, self.suffix].concat()
    }

    /// The length of the prefix a leaf with this key as one fence and
    /// `other` as the other stores ([`fence_prefix`]), without assembling
    /// the key.
    pub fn fence_prefix_len(&self, other: Option<&[u8]>) -> usize {
        let Some(other) = other else {
            return 0;
        };
        let key = self.prefix.iter().chain(self.suffix);
        let n = key.zip(other).take_while(|(a, b)| a == b).count();
        n.min(MAX_PREFIX)
    }

    /// The key after its first `n` bytes, as two slices.
    fn key_from(&self, n: usize) -> [&'a [u8]; 2] {
        match self.prefix.get(n..) {
            Some(rest) => [rest, self.suffix],
            None => [&[], &self.suffix[n - self.prefix.len()..]],
        }
    }
}

/// Entry `i` of leaf `buf`.
pub fn leaf_entry(buf: &[u8], i: usize) -> Entry<'_> {
    let (suffix, value) = leaf_cell(buf, i);
    Entry {
        prefix: leaf_prefix(buf),
        suffix,
        value,
    }
}

/// Bytes a leaf holding `entries` under a prefix of `prefix_len` bytes
/// fills: header, prefix, slots and cells. Each key starts with the prefix.
pub fn leaf_size<'a>(prefix_len: usize, entries: impl IntoIterator<Item = Entry<'a>>) -> usize {
    entries
        .into_iter()
        .fold(LEAF_HEADER_SIZE + prefix_len, |size, e| {
            size + leaf_cell_size(e.key_len() - prefix_len, e.value.len()) + 2
        })
}

/// Rewrite `buf` as a leaf of `entries`, in order, under `prefix`, linked
/// to `link`. Every key starts with `prefix` and the leaf fits the page
/// ([`leaf_size`]).
pub fn write_leaf(buf: &mut [u8], prefix: &[u8], link: u32, entries: &[Entry<'_>]) {
    debug_assert!(leaf_size(prefix.len(), entries.iter().copied()) <= buf.len());
    init(buf, NODE_LEAF);
    set_link(buf, link);
    buf[OFF_PREFIX_LEN] = prefix.len() as u8;
    buf[LEAF_HEADER_SIZE..LEAF_HEADER_SIZE + prefix.len()].copy_from_slice(prefix);
    for (n, e) in entries.iter().enumerate() {
        let start = put_leaf_cell(buf, e.key_from(prefix.len()), e.value);
        put_u16(buf, slot_base(buf) + 2 * n, start as u16);
        put_u16(buf, OFF_NCELLS, (n + 1) as u16);
    }
}

/// The prefix a leaf between `lower` and `upper` stores: their longest
/// common prefix, at most [`MAX_PREFIX`] bytes; empty when either is
/// missing (an end of the chain).
pub fn fence_prefix<'a>(lower: Option<&'a [u8]>, upper: Option<&[u8]>) -> &'a [u8] {
    match (lower, upper) {
        (Some(lo), Some(hi)) => {
            let n = lo.iter().zip(hi).take_while(|(a, b)| a == b).count();
            &lo[..n.min(MAX_PREFIX)]
        }
        _ => &[],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf_key(buf: &[u8], i: usize) -> Vec<u8> {
        [leaf_prefix(buf), leaf_suffix(buf, i)].concat()
    }

    fn leaf(page_size: usize) -> Vec<u8> {
        let mut buf = vec![0u8; page_size];
        init(&mut buf, NODE_LEAF);
        buf
    }

    fn leaf_with_prefix(page_size: usize, prefix: &[u8]) -> Vec<u8> {
        let mut buf = vec![0u8; page_size];
        write_leaf(&mut buf, prefix, NO_PAGE, &[]);
        buf
    }

    #[test]
    fn init_empty() {
        let buf = leaf(256);
        assert!(is_leaf(&buf));
        assert_eq!(ncells(&buf), 0);
        assert_eq!(link(&buf), NO_PAGE);
        assert_eq!(leaf_prefix(&buf), b"");
        assert_eq!(free_space(&buf), 256 - LEAF_HEADER_SIZE);
    }

    #[test]
    fn insert_and_read_back() {
        let mut buf = leaf(256);
        leaf_insert(&mut buf, 0, b"bb", b"2");
        leaf_insert(&mut buf, 0, b"aa", b"1");
        leaf_insert(&mut buf, 2, b"cc", b"3");
        assert_eq!(ncells(&buf), 3);
        assert_eq!(leaf_key(&buf, 0), b"aa");
        assert_eq!(leaf_key(&buf, 1), b"bb");
        assert_eq!(leaf_key(&buf, 2), b"cc");
        assert_eq!(leaf_value(&buf, 1), b"2");
    }

    #[test]
    fn bounds_with_duplicates() {
        let mut buf = leaf(256);
        for (i, k) in [b"a", b"b", b"b", b"b", b"c"].iter().enumerate() {
            leaf_insert(&mut buf, i, *k, b"v");
        }
        assert_eq!(lower_bound(&buf, b"b"), 1);
        assert_eq!(upper_bound(&buf, b"b"), 4);
        assert_eq!(lower_bound(&buf, b"a"), 0);
        assert_eq!(upper_bound(&buf, b"c"), 5);
        assert_eq!(lower_bound(&buf, b"z"), 5);
    }

    #[test]
    fn prefixed_leaf_stores_suffixes_and_answers_whole_keys() {
        let mut buf = leaf_with_prefix(256, b"ab");
        for (i, k) in [&b"ab"[..], b"abc", b"abc", b"abd"].iter().enumerate() {
            leaf_insert(&mut buf, i, k, b"v");
        }
        assert_eq!(leaf_suffix(&buf, 0), b"");
        assert_eq!(leaf_suffix(&buf, 1), b"c");
        assert_eq!(leaf_key(&buf, 3), b"abd");
        // A one-byte head, the suffix and the value: the prefix is not stored.
        assert_eq!(leaf_need(&buf, b"abc", b"v"), 1 + 1 + 1 + 2);
        // Probes that do not start with the prefix sort before or after all.
        for (probe, lower, upper) in [
            (&b""[..], 0, 0),
            (b"a", 0, 0),
            (b"aa", 0, 0),
            (b"ab", 0, 1),
            (b"abc", 1, 3),
            (b"abcc", 3, 3),
            (b"ac", 4, 4),
            (b"b", 4, 4),
        ] {
            assert_eq!(lower_bound(&buf, probe), lower, "{probe:?}");
            assert_eq!(upper_bound(&buf, probe), upper, "{probe:?}");
        }
        assert!(leaf_key_eq(&buf, 1, b"abc"));
        assert!(!leaf_key_eq(&buf, 1, b"c"));
        let cmp = |i, other: &[u8]| key_cmp(leaf_prefix(&buf), leaf_suffix(&buf, i), other);
        assert_eq!(cmp(1, b"abc"), Ordering::Equal);
        assert_eq!(cmp(1, b"a"), Ordering::Greater);
        assert_eq!(cmp(0, b"ab\0"), Ordering::Less);
        assert_eq!(cmp(1, b"b"), Ordering::Less);
    }

    #[test]
    fn long_lengths_take_the_escape_head() {
        let mut buf = leaf(256);
        let (key, value) = ([b'k'; 15], [b'v'; 200]);
        leaf_insert(&mut buf, 0, &key, &value);
        leaf_insert(&mut buf, 0, b"", b"");
        assert_eq!(head_size(14, 14), 1);
        assert_eq!(head_size(15, 0), 3);
        assert_eq!(head_size(0, 200), 4);
        assert_eq!(buf[cell_offset(&buf, 1)], ESCAPE);
        assert_eq!(leaf_key(&buf, 1), key);
        assert_eq!(leaf_value(&buf, 1), value);
        assert_eq!(leaf_cell(&buf, 0), (&b""[..], &b""[..]));
        assert_eq!(
            free_space(&buf),
            256 - LEAF_HEADER_SIZE - 2 * 2 - 1 - (1 + 1 + 2 + 15 + 200)
        );
    }

    #[test]
    fn a_cell_outside_the_page_reads_empty() {
        let mut buf = leaf(64);
        leaf_insert(&mut buf, 0, b"key", b"value");
        let last = buf.len() - 1;
        buf[last] = 0xEE; // point the slot at a head claiming 14 + 14 bytes
        put_u16(&mut buf, LEAF_HEADER_SIZE, last as u16);
        assert_eq!(leaf_cell(&buf, 0), (&b""[..], &b""[..]));
        put_u16(&mut buf, OFF_NCELLS, 1000); // slots past the page
        assert_eq!(leaf_cell(&buf, 999), (&b""[..], &b""[..]));
    }

    #[test]
    fn insert_changes_only_the_new_cell_the_slots_and_the_header() {
        let mut buf = leaf_with_prefix(512, b"pre");
        for i in 0..20u8 {
            leaf_insert(&mut buf, i as usize, &[b'p', b'r', b'e', i * 2], &[i; 5]);
        }
        let before = buf.clone();
        let pos = upper_bound(&buf, b"pre\x07");
        leaf_insert(&mut buf, pos, b"pre\x07", b"new");
        let slots = slot_base(&buf)..slot_base(&buf) + 2 * ncells(&buf);
        let cell = cell_start(&buf)..cell_start(&before);
        let changed: Vec<usize> = (0..buf.len()).filter(|&i| buf[i] != before[i]).collect();
        assert!(!changed.is_empty());
        for i in changed {
            assert!(
                i < HEADER_SIZE || slots.contains(&i) || cell.contains(&i),
                "byte {i} changed outside the header, slots {slots:?} and new cell {cell:?}"
            );
        }
        assert_eq!(leaf_key(&buf, pos), b"pre\x07");
    }

    #[test]
    fn remove_compacts() {
        let mut buf = leaf_with_prefix(256, b"x");
        leaf_insert(&mut buf, 0, b"xa", b"1");
        leaf_insert(&mut buf, 1, b"xb", b"2");
        leaf_insert(&mut buf, 2, b"xc", b"3");
        let free_before = free_space(&buf);
        remove(&mut buf, 1);
        assert_eq!(ncells(&buf), 2);
        assert_eq!(leaf_prefix(&buf), b"x");
        assert_eq!(leaf_key(&buf, 0), b"xa");
        assert_eq!(leaf_key(&buf, 1), b"xc");
        assert_eq!(leaf_value(&buf, 1), b"3");
        assert!(free_space(&buf) > free_before);
    }

    #[test]
    fn internal_cells() {
        let mut buf = vec![0u8; 256];
        init(&mut buf, NODE_INTERNAL);
        set_link(&mut buf, 10); // leftmost child
        internal_insert(&mut buf, 0, b"m", 11);
        internal_insert(&mut buf, 1, b"t", 12);
        assert_eq!(link(&buf), 10);
        assert_eq!(child(&buf, 0), 11);
        assert_eq!(child(&buf, 1), 12);
        assert_eq!(key(&buf, 0), b"m");
    }

    #[test]
    fn truncate_and_copy_for_split() {
        let mut left = vec![0u8; 256];
        init(&mut left, NODE_INTERNAL);
        for (i, k) in [b"a", b"b", b"c", b"d"].iter().enumerate() {
            internal_insert(&mut left, i, *k, i as u32);
        }
        let mut right = vec![0u8; 256];
        init(&mut right, NODE_INTERNAL);
        copy_range(&left, &mut right, 2, 4);
        truncate_to_range(&mut left, 0, 2);
        assert_eq!(ncells(&left), 2);
        assert_eq!(ncells(&right), 2);
        assert_eq!(key(&left, 1), b"b");
        assert_eq!(key(&right, 0), b"c");
        assert_eq!(child(&right, 1), 3);
    }

    #[test]
    fn write_leaf_re_encodes_against_a_new_prefix() {
        let mut src = leaf_with_prefix(256, b"ab");
        for (i, k) in [&b"abc"[..], b"abcd", b"abd"].iter().enumerate() {
            leaf_insert(&mut src, i, k, b"v");
        }
        let mut entries: Vec<Entry> = (0..3).map(|i| leaf_entry(&src, i)).collect();
        entries.insert(0, Entry::whole(b"abb", b"w"));
        for prefix in [&b""[..], b"a", b"ab"] {
            let mut dst = vec![0u8; 256];
            write_leaf(&mut dst, prefix, 7, &entries);
            assert_eq!(leaf_prefix(&dst), prefix);
            assert_eq!(link(&dst), 7);
            let keys: Vec<Vec<u8>> = (0..ncells(&dst)).map(|i| leaf_key(&dst, i)).collect();
            assert_eq!(keys, [&b"abb"[..], b"abc", b"abcd", b"abd"]);
            assert_eq!(leaf_value(&dst, 0), b"w");
            assert_eq!(
                256 - free_space(&dst),
                leaf_size(prefix.len(), entries.iter().copied())
            );
        }
        let mut narrower = vec![0u8; 256];
        write_leaf(&mut narrower, b"abc", NO_PAGE, &entries[1..3]);
        assert_eq!(leaf_suffix(&narrower, 1), b"d");
    }

    #[test]
    fn fence_prefix_is_the_common_prefix_of_both_fences() {
        assert_eq!(fence_prefix(Some(b"abcx"), Some(b"abdy")), b"ab");
        assert_eq!(fence_prefix(Some(b"ab"), Some(b"abc")), b"ab");
        assert_eq!(fence_prefix(None, Some(b"abc")), b"");
        assert_eq!(fence_prefix(Some(b"abc"), None), b"");
        let long = [9u8; 300];
        assert_eq!(fence_prefix(Some(&long), Some(&long)).len(), MAX_PREFIX);
    }

    #[test]
    fn free_space_decreases_by_cell_plus_slot() {
        let mut buf = leaf(256);
        let before = free_space(&buf);
        leaf_insert(&mut buf, 0, b"key", b"value");
        assert_eq!(before - free_space(&buf), leaf_cell_size(3, 5) + 2);
    }
}
