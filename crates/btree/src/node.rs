//! On-page node layout for the B+ tree.
//!
//! Every node is one page, slotted:
//!
//! ```text
//! +------+--------+------------+-----------+----------------+-----------+
//! | type | ncells | cell_start | link      | slot array ... | cells ... |
//! | u8   | u16    | u16        | u32       | u16 * ncells   | (at end)  |
//! +------+--------+------------+-----------+----------------+-----------+
//! ```
//!
//! * `type`: 1 = leaf, 2 = internal.
//! * `cell_start`: offset of the lowest cell (cells grow downward from the
//!   page end toward the slot array).
//! * `link`: for leaves, the next-leaf page id (forming the scan chain); for
//!   internal nodes, the leftmost child.
//! * leaf cell: `klen:u16 vlen:u16 key... value...`
//! * internal cell: `klen:u16 child:u32 key...` — `key` is the separator
//!   (smallest key that routes to `child`).
//!
//! Deletion compacts the cell area immediately; pages are small enough that
//! the memmove is cheap and it keeps free-space accounting trivial.

use nok_pager::codec::{get_u16, get_u32, put_u16, put_u32};

pub const NODE_LEAF: u8 = 1;
pub const NODE_INTERNAL: u8 = 2;

pub const OFF_TYPE: usize = 0;
pub const OFF_NCELLS: usize = 1;
pub const OFF_CELL_START: usize = 3;
pub const OFF_LINK: usize = 5;
pub const HEADER_SIZE: usize = 9;

/// Sentinel "no page" id used in leaf chains.
pub const NO_PAGE: u32 = u32::MAX;

/// Initialize `buf` as an empty node of the given type.
pub fn init(buf: &mut [u8], node_type: u8) {
    buf[OFF_TYPE] = node_type;
    put_u16(buf, OFF_NCELLS, 0);
    put_u16(buf, OFF_CELL_START, buf.len() as u16);
    put_u32(buf, OFF_LINK, NO_PAGE);
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

fn cell_start(buf: &[u8]) -> usize {
    get_u16(buf, OFF_CELL_START) as usize
}

fn slot_offset(i: usize) -> usize {
    HEADER_SIZE + 2 * i
}

fn cell_offset(buf: &[u8], i: usize) -> usize {
    get_u16(buf, slot_offset(i)) as usize
}

/// Is cell `i` the one this node received last? Cells are laid down from
/// the page end in arrival order, so that is the lowest one (after a
/// rebuild — [`remove`], [`truncate_to_range`] — the last slot's).
pub fn is_newest_cell(buf: &[u8], i: usize) -> bool {
    cell_offset(buf, i) == cell_start(buf)
}

/// Free bytes available for one more cell + slot.
pub fn free_space(buf: &[u8]) -> usize {
    cell_start(buf).saturating_sub(HEADER_SIZE + 2 * ncells(buf))
}

/// Bytes a leaf cell occupies (excluding its slot).
pub fn leaf_cell_size(key: &[u8], value: &[u8]) -> usize {
    4 + key.len() + value.len()
}

/// Bytes an internal cell occupies (excluding its slot).
pub fn internal_cell_size(key: &[u8]) -> usize {
    6 + key.len()
}

/// Key of cell `i` (leaf or internal).
pub fn key(buf: &[u8], i: usize) -> &[u8] {
    let off = cell_offset(buf, i);
    let klen = get_u16(buf, off) as usize;
    match node_type(buf) {
        NODE_LEAF => &buf[off + 4..off + 4 + klen],
        _ => &buf[off + 6..off + 6 + klen],
    }
}

/// Value of leaf cell `i`.
pub fn leaf_value(buf: &[u8], i: usize) -> &[u8] {
    debug_assert!(is_leaf(buf));
    let off = cell_offset(buf, i);
    let klen = get_u16(buf, off) as usize;
    let vlen = get_u16(buf, off + 2) as usize;
    &buf[off + 4 + klen..off + 4 + klen + vlen]
}

/// Child pointer of internal cell `i`.
pub fn child(buf: &[u8], i: usize) -> u32 {
    debug_assert!(!is_leaf(buf));
    let off = cell_offset(buf, i);
    get_u32(buf, off + 2)
}

/// First slot whose key is `>= probe` ("lower bound").
pub fn lower_bound(buf: &[u8], probe: &[u8]) -> usize {
    let n = ncells(buf);
    let (mut lo, mut hi) = (0usize, n);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if key(buf, mid) < probe {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// First slot whose key is `> probe` ("upper bound").
pub fn upper_bound(buf: &[u8], probe: &[u8]) -> usize {
    let n = ncells(buf);
    let (mut lo, mut hi) = (0usize, n);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if key(buf, mid) <= probe {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Insert a leaf cell at slot position `pos`. Caller must have verified
/// `free_space >= leaf_cell_size + 2`.
pub fn leaf_insert(buf: &mut [u8], pos: usize, key: &[u8], value: &[u8]) {
    let size = leaf_cell_size(key, value);
    let start = cell_start(buf) - size;
    put_u16(buf, start, key.len() as u16);
    put_u16(buf, start + 2, value.len() as u16);
    buf[start + 4..start + 4 + key.len()].copy_from_slice(key);
    buf[start + 4 + key.len()..start + size].copy_from_slice(value);
    insert_slot(buf, pos, start as u16);
    put_u16(buf, OFF_CELL_START, start as u16);
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
    // Shift slots [pos, n) right by one.
    for i in (pos..n).rev() {
        let v = get_u16(buf, slot_offset(i));
        put_u16(buf, slot_offset(i + 1), v);
    }
    put_u16(buf, slot_offset(pos), cell_off);
    put_u16(buf, OFF_NCELLS, (n + 1) as u16);
}

/// Remove cell `pos`, compacting the cell area.
pub fn remove(buf: &mut [u8], pos: usize) {
    let cells = snapshot_cells(buf);
    let node_t = node_type(buf);
    init(buf, node_t);
    let link_backup = cells.link;
    set_link(buf, link_backup);
    for (_, cell) in cells.cells.iter().enumerate().filter(|(i, _)| *i != pos) {
        append_raw(buf, cell);
    }
}

/// Rebuild the node keeping only cells `[from, to)` (used by splits).
pub fn truncate_to_range(buf: &mut [u8], from: usize, to: usize) {
    let cells = snapshot_cells(buf);
    let node_t = node_type(buf);
    init(buf, node_t);
    set_link(buf, cells.link);
    for cell in &cells.cells[from..to] {
        append_raw(buf, cell);
    }
}

/// Move cells `[cut, n)` of `src` to the front of `dst` (same node type),
/// keeping both links.
pub fn move_tail_to_front(src: &mut [u8], dst: &mut [u8], cut: usize) {
    let kept = snapshot_cells(dst);
    let node_t = node_type(dst);
    init(dst, node_t);
    set_link(dst, kept.link);
    copy_range(src, dst, cut, ncells(src));
    for cell in &kept.cells {
        append_raw(dst, cell);
    }
    truncate_to_range(src, 0, cut);
}

/// Copy cells `[from, to)` of `src` to the end of `dst` (same node type).
pub fn copy_range(src: &[u8], dst: &mut [u8], from: usize, to: usize) {
    for i in from..to {
        let off = cell_offset(src, i);
        let size = raw_cell_size(src, off);
        let cell = &src[off..off + size];
        append_raw(dst, cell);
    }
}

struct CellSnapshot {
    link: u32,
    cells: Vec<Vec<u8>>,
}

fn raw_cell_size(buf: &[u8], off: usize) -> usize {
    let klen = get_u16(buf, off) as usize;
    match node_type(buf) {
        NODE_LEAF => {
            let vlen = get_u16(buf, off + 2) as usize;
            4 + klen + vlen
        }
        _ => 6 + klen,
    }
}

fn snapshot_cells(buf: &[u8]) -> CellSnapshot {
    let n = ncells(buf);
    let mut cells = Vec::with_capacity(n);
    for i in 0..n {
        let off = cell_offset(buf, i);
        let size = raw_cell_size(buf, off);
        cells.push(buf[off..off + size].to_vec());
    }
    CellSnapshot {
        link: link(buf),
        cells,
    }
}

fn append_raw(buf: &mut [u8], cell: &[u8]) {
    let start = cell_start(buf) - cell.len();
    buf[start..start + cell.len()].copy_from_slice(cell);
    let n = ncells(buf);
    put_u16(buf, slot_offset(n), start as u16);
    put_u16(buf, OFF_NCELLS, (n + 1) as u16);
    put_u16(buf, OFF_CELL_START, start as u16);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(page_size: usize) -> Vec<u8> {
        let mut buf = vec![0u8; page_size];
        init(&mut buf, NODE_LEAF);
        buf
    }

    #[test]
    fn init_empty() {
        let buf = leaf(256);
        assert!(is_leaf(&buf));
        assert_eq!(ncells(&buf), 0);
        assert_eq!(link(&buf), NO_PAGE);
        assert_eq!(free_space(&buf), 256 - HEADER_SIZE);
    }

    #[test]
    fn insert_and_read_back() {
        let mut buf = leaf(256);
        leaf_insert(&mut buf, 0, b"bb", b"2");
        leaf_insert(&mut buf, 0, b"aa", b"1");
        leaf_insert(&mut buf, 2, b"cc", b"3");
        assert_eq!(ncells(&buf), 3);
        assert_eq!(key(&buf, 0), b"aa");
        assert_eq!(key(&buf, 1), b"bb");
        assert_eq!(key(&buf, 2), b"cc");
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
    fn remove_compacts() {
        let mut buf = leaf(256);
        leaf_insert(&mut buf, 0, b"a", b"1");
        leaf_insert(&mut buf, 1, b"b", b"2");
        leaf_insert(&mut buf, 2, b"c", b"3");
        let free_before = free_space(&buf);
        remove(&mut buf, 1);
        assert_eq!(ncells(&buf), 2);
        assert_eq!(key(&buf, 0), b"a");
        assert_eq!(key(&buf, 1), b"c");
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
        let mut left = leaf(256);
        for (i, k) in [b"a", b"b", b"c", b"d"].iter().enumerate() {
            leaf_insert(&mut left, i, *k, b"v");
        }
        let mut right = leaf(256);
        copy_range(&left, &mut right, 2, 4);
        truncate_to_range(&mut left, 0, 2);
        assert_eq!(ncells(&left), 2);
        assert_eq!(ncells(&right), 2);
        assert_eq!(key(&left, 1), b"b");
        assert_eq!(key(&right, 0), b"c");
    }

    #[test]
    fn free_space_decreases_by_cell_plus_slot() {
        let mut buf = leaf(256);
        let before = free_space(&buf);
        leaf_insert(&mut buf, 0, b"key", b"value");
        assert_eq!(
            before - free_space(&buf),
            leaf_cell_size(b"key", b"value") + 2
        );
    }
}
