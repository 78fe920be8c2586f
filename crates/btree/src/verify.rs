//! Structural self-verification of a B+ tree.
//!
//! [`BTree::verify_structure`] walks the whole tree read-only and checks the
//! invariants the implementation promises, without trusting any cached
//! state beyond the meta page:
//!
//! * meta-page magic and root pointer validity,
//! * node types and slotted-page bounds (slot array below `cell_start`,
//!   every cell inside the cell area, a leaf cell's header canonical),
//! * each leaf's stored prefix is a prefix of both its fences (and empty
//!   at either end of the chain),
//! * key ordering within each node (non-decreasing; duplicates are legal),
//!   a leaf's keys reconstructed as prefix ++ suffix,
//! * separator routing: every key in a subtree lies within the separator
//!   bounds that route to it (non-strict on both sides, because duplicate
//!   runs may straddle a split),
//! * uniform leaf depth,
//! * the leaf chain links exactly the leaves in tree order and terminates,
//! * the persisted entry count equals the number of leaf cells.
//!
//! The walk is panic-free by construction: all offsets read from a page are
//! bounds-checked before use, so it can be pointed at a deliberately
//! corrupted pool and will report issues instead of crashing. Empty leaves
//! are *not* an issue — deletion is lazy and keeps empty leaves chained.

use std::collections::HashSet;

use nok_pager::codec::{get_u16, get_u32};
use nok_pager::{PageId, Storage};

use crate::{node, BTree, BTreeResult, META_MAGIC, META_OFF_MAGIC, META_OFF_ROOT};

/// One structural problem found by [`BTree::verify_structure`].
#[derive(Debug, Clone)]
pub struct Issue {
    /// Page the problem was found on.
    pub page: PageId,
    /// Human-readable description.
    pub detail: String,
}

impl std::fmt::Display for Issue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "page {}: {}", self.page, self.detail)
    }
}

/// Bounds-checked view of one cell: its whole key (a leaf's prefix and
/// stored suffix) plus, for internal nodes, the child pointer.
struct Cell {
    key: Vec<u8>,
    child: u32,
}

/// Cell `i` of a node whose slots start at `slots` and cells at
/// `cell_start`, every offset checked against the cell area first. A leaf
/// passes its `prefix`; an internal node passes `None`.
fn checked_cell(
    buf: &[u8],
    i: usize,
    slots: usize,
    cell_start: usize,
    prefix: Option<&[u8]>,
) -> Result<Cell, String> {
    let off = get_u16(buf, slots + 2 * i) as usize;
    if off < cell_start {
        return Err(format!("cell {i} at offset {off} lies below the cell area"));
    }
    let Some(prefix) = prefix else {
        if off + 6 > buf.len() {
            return Err(format!("cell {i} header at offset {off} overruns the page"));
        }
        let klen = get_u16(buf, off) as usize;
        let Some(key) = buf.get(off + 6..off + 6 + klen) else {
            return Err(format!(
                "cell {i} key ({klen} bytes at {}) overruns the page",
                off + 6
            ));
        };
        return Ok(Cell {
            key: key.to_vec(),
            child: get_u32(buf, off + 2),
        });
    };
    let Some((head, suffix, value)) = node::leaf_cell_at(buf, off) else {
        return Err(format!(
            "cell {i} header or suffix at offset {off} overruns the cell area"
        ));
    };
    if head.len() != node::head_size(suffix.len(), value.len()) {
        return Err(format!("cell {i} header at offset {off} is not canonical"));
    }
    Ok(Cell {
        key: [prefix, &buf[suffix]].concat(),
        child: 0,
    })
}

/// Walk state shared across the recursive descent.
struct Walk<'t, S: Storage> {
    tree: &'t BTree<S>,
    issues: Vec<Issue>,
    visited: HashSet<PageId>,
    /// Leaves in tree (left-to-right) order.
    leaves: Vec<PageId>,
    leaf_depth: Option<usize>,
    leaf_cells: u64,
}

impl<S: Storage> Walk<'_, S> {
    fn issue(&mut self, page: PageId, detail: String) {
        self.issues.push(Issue { page, detail });
    }

    fn visit(
        &mut self,
        page: PageId,
        depth: usize,
        lower: Option<&[u8]>,
        upper: Option<&[u8]>,
    ) -> BTreeResult<()> {
        if depth > 64 {
            self.issue(page, "tree deeper than 64 levels (routing loop?)".into());
            return Ok(());
        }
        if page >= self.tree.pool.page_count() {
            self.issue(page, "child pointer outside the pool".into());
            return Ok(());
        }
        if !self.visited.insert(page) {
            self.issue(page, "page reachable twice (cycle or shared child)".into());
            return Ok(());
        }
        let handle = self.tree.pool.get(page)?;
        let buf = handle.read();
        let ntype = node::node_type(&buf);
        if ntype != node::NODE_LEAF && ntype != node::NODE_INTERNAL {
            self.issue(page, format!("invalid node type {ntype}"));
            return Ok(());
        }
        let leaf = ntype == node::NODE_LEAF;
        let n = node::ncells(&buf);
        let cell_start = get_u16(&buf, node::OFF_CELL_START) as usize;
        let slots = if leaf {
            node::LEAF_HEADER_SIZE + buf[node::OFF_PREFIX_LEN] as usize
        } else {
            node::HEADER_SIZE
        };
        if slots + 2 * n > cell_start || cell_start > buf.len() {
            self.issue(
                page,
                format!("slot array ({n} cells) collides with cell area (cell_start={cell_start})"),
            );
            return Ok(());
        }
        // A leaf's prefix must start every key its fences admit: it is a
        // prefix of both, and empty at an end of the chain.
        let prefix = leaf.then(|| node::leaf_prefix(&buf));
        if let Some(p) = prefix {
            let fenced = match (lower, upper) {
                (Some(lo), Some(hi)) => lo.starts_with(p) && hi.starts_with(p),
                _ => p.is_empty(),
            };
            if !fenced {
                self.issue(
                    page,
                    format!("leaf prefix {p:02x?} is not a prefix of both fences"),
                );
            }
        }

        // Per-cell bounds, in-node key order, separator-bound containment.
        let mut prev_key: Option<Vec<u8>> = None;
        let mut children: Vec<(Vec<u8>, u32)> = Vec::new();
        for i in 0..n {
            let cell = match checked_cell(&buf, i, slots, cell_start, prefix) {
                Ok(c) => c,
                Err(detail) => {
                    self.issue(page, detail);
                    break; // offsets untrustworthy beyond this point
                }
            };
            if prev_key.as_ref().is_some_and(|prev| *prev > cell.key) {
                self.issue(page, format!("key order violated at cell {i}"));
            }
            if lower.is_some_and(|lo| cell.key.as_slice() < lo) {
                self.issue(page, format!("cell {i} key below its separator bound"));
            }
            if upper.is_some_and(|hi| cell.key.as_slice() > hi) {
                self.issue(page, format!("cell {i} key above its separator bound"));
            }
            if !leaf {
                children.push((cell.key.clone(), cell.child));
            }
            prev_key = Some(cell.key);
        }

        if leaf {
            match self.leaf_depth {
                None => self.leaf_depth = Some(depth),
                Some(d) if d != depth => {
                    self.issue(page, format!("leaf at depth {depth}, expected {d}"));
                }
                _ => {}
            }
            self.leaves.push(page);
            self.leaf_cells += n as u64;
            return Ok(());
        }

        // Internal: recurse into link (leftmost) child then separator children.
        drop(buf);
        let link = {
            let buf = handle.read();
            node::link(&buf)
        };
        let first_upper = children.first().map(|(k, _)| k.clone());
        self.visit(link, depth + 1, lower, first_upper.as_deref())?;
        for (i, (sep, child)) in children.iter().enumerate() {
            let next_upper = children.get(i + 1).map(|(k, _)| k.as_slice());
            self.visit(*child, depth + 1, Some(sep), next_upper.or(upper))?;
        }
        Ok(())
    }
}

impl<S: Storage> BTree<S> {
    /// Verify the tree's structural invariants (see the module docs).
    /// Returns the list of problems found — empty means structurally sound.
    /// `Err` is reserved for I/O failures while reading in-range pages.
    pub fn verify_structure(&self) -> BTreeResult<Vec<Issue>> {
        let mut walk = Walk {
            tree: self,
            issues: Vec::new(),
            visited: HashSet::new(),
            leaves: Vec::new(),
            leaf_depth: None,
            leaf_cells: 0,
        };
        let page_count = self.pool.page_count();
        if page_count == 0 {
            walk.issue(0, "pool holds no pages (missing meta page)".into());
            return Ok(walk.issues);
        }
        let (meta_root, magic) = {
            let meta = self.pool.get(0)?;
            let m = meta.read();
            (get_u32(&m, META_OFF_ROOT), get_u32(&m, META_OFF_MAGIC))
        };
        if magic != META_MAGIC {
            walk.issue(0, format!("bad meta magic {magic:#010x}"));
            return Ok(walk.issues);
        }
        if meta_root != self.root.load(std::sync::atomic::Ordering::Acquire) {
            walk.issue(
                0,
                format!(
                    "meta root {meta_root} differs from in-memory root {}",
                    self.root.load(std::sync::atomic::Ordering::Acquire)
                ),
            );
        }
        if meta_root == 0 || meta_root >= page_count {
            walk.issue(0, format!("meta root {meta_root} is not a valid page"));
            return Ok(walk.issues);
        }
        walk.visit(meta_root, 1, None, None)?;

        // Leaf chain must thread exactly the leaves, in tree order.
        if let Some(&first) = walk.leaves.first() {
            let mut chain: Vec<PageId> = Vec::new();
            let mut seen = HashSet::new();
            let mut pid = first;
            loop {
                if !seen.insert(pid) {
                    walk.issue(pid, "leaf chain cycles".into());
                    break;
                }
                if pid >= page_count {
                    walk.issue(pid, "leaf chain points outside the pool".into());
                    break;
                }
                chain.push(pid);
                let next = {
                    let h = self.pool.get(pid)?;
                    let b = h.read();
                    node::link(&b)
                };
                if next == node::NO_PAGE {
                    break;
                }
                pid = next;
            }
            if chain != walk.leaves {
                let page = chain
                    .iter()
                    .zip(&walk.leaves)
                    .find(|(a, b)| a != b)
                    .map(|(a, _)| *a)
                    .unwrap_or(first);
                walk.issue(page, "leaf chain disagrees with tree order".into());
            }
        }

        if walk.leaf_cells != self.count.load(std::sync::atomic::Ordering::Relaxed) {
            walk.issue(
                0,
                format!(
                    "entry count {} in meta, {} cells in leaves",
                    self.count.load(std::sync::atomic::Ordering::Relaxed),
                    walk.leaf_cells
                ),
            );
        }
        Ok(walk.issues)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::META_OFF_COUNT;
    use nok_pager::{BufferPool, MemStorage};
    use std::sync::Arc;

    fn mem_tree(page_size: usize) -> BTree<MemStorage> {
        let pool = Arc::new(BufferPool::new(MemStorage::with_page_size(page_size)));
        BTree::create(pool).unwrap()
    }

    fn key_of(i: u32) -> Vec<u8> {
        format!("{i:08}").into_bytes()
    }

    #[test]
    fn fresh_trees_verify_clean() {
        let t = mem_tree(256);
        assert!(t.verify_structure().unwrap().is_empty());
        for i in 0..500u32 {
            t.insert(&key_of(i * 7 % 500), &i.to_le_bytes()).unwrap();
        }
        assert!(t.verify_structure().unwrap().is_empty());
    }

    #[test]
    fn bulk_loaded_trees_verify_clean() {
        let pool = Arc::new(BufferPool::new(MemStorage::with_page_size(256)));
        let pairs: Vec<_> = (0..1000u32).map(|i| (key_of(i), vec![1, 2, 3])).collect();
        let t = BTree::bulk_load(pool, pairs, 0.9).unwrap();
        assert!(t.verify_structure().unwrap().is_empty());
    }

    #[test]
    fn deletions_keep_tree_verifiable() {
        let t = mem_tree(256);
        for i in 0..300u32 {
            t.insert(&key_of(i), b"v").unwrap();
        }
        for i in (0..300u32).step_by(2) {
            assert!(t.delete(&key_of(i), None).unwrap());
        }
        assert!(t.verify_structure().unwrap().is_empty());
    }

    #[test]
    fn key_order_corruption_is_reported() {
        let t = mem_tree(256);
        for i in 0..200u32 {
            t.insert(&key_of(i), b"v").unwrap();
        }
        // Swap the first two slots of some leaf to break in-node key order.
        let leaf = {
            let issues = t.verify_structure().unwrap();
            assert!(issues.is_empty());
            // Find a leaf with >= 2 cells by scanning pages.
            (1..t.pool.page_count())
                .find(|&p| {
                    let h = t.pool.get(p).unwrap();
                    let b = h.read();
                    node::is_leaf(&b) && node::ncells(&b) >= 2
                })
                .expect("some leaf has two cells")
        };
        {
            let h = t.pool.get(leaf).unwrap();
            let mut b = h.write();
            let slots = node::slot_base(&b);
            let s0 = get_u16(&b, slots);
            let s1 = get_u16(&b, slots + 2);
            nok_pager::codec::put_u16(&mut b, slots, s1);
            nok_pager::codec::put_u16(&mut b, slots + 2, s0);
        }
        let issues = t.verify_structure().unwrap();
        assert!(
            issues.iter().any(|i| i.detail.contains("key order")),
            "expected a key-order issue, got {issues:?}"
        );
    }

    #[test]
    fn broken_meta_and_count_are_reported() {
        let t = mem_tree(256);
        for i in 0..50u32 {
            t.insert(&key_of(i), b"v").unwrap();
        }
        // Desync the persisted count.
        {
            let meta = t.pool.get(0).unwrap();
            let mut m = meta.write();
            nok_pager::codec::put_u64(&mut m, META_OFF_COUNT, 999);
        }
        t.count.store(999, std::sync::atomic::Ordering::Relaxed);
        let issues = t.verify_structure().unwrap();
        assert!(
            issues.iter().any(|i| i.detail.contains("entry count")),
            "expected an entry-count issue, got {issues:?}"
        );
    }

    #[test]
    fn overrunning_cell_is_reported_not_panicking() {
        let t = mem_tree(256);
        for i in 0..200u32 {
            t.insert(&key_of(i), b"v").unwrap();
        }
        let leaf = (1..t.pool.page_count())
            .find(|&p| {
                let h = t.pool.get(p).unwrap();
                let b = h.read();
                node::is_leaf(&b) && node::ncells(&b) >= 1
            })
            .unwrap();
        {
            let h = t.pool.get(leaf).unwrap();
            let mut b = h.write();
            // Point the first slot near the end of the page so the cell
            // header itself overruns.
            let len = b.len() as u16;
            let slots = node::slot_base(&b);
            nok_pager::codec::put_u16(&mut b, slots, len - 1);
        }
        let issues = t.verify_structure().unwrap();
        assert!(
            issues.iter().any(|i| i.detail.contains("overruns")),
            "expected an overrun issue, got {issues:?}"
        );
    }

    /// A bulk-loaded tree and a leaf of it with a non-empty prefix and at
    /// least two cells.
    fn prefixed_leaf() -> (BTree<MemStorage>, PageId) {
        let pool = Arc::new(BufferPool::new(MemStorage::with_page_size(256)));
        let pairs: Vec<_> = (0..1000u32).map(|i| (key_of(i), b"v".to_vec())).collect();
        let t = BTree::bulk_load(pool, pairs, 0.9).unwrap();
        assert!(t.verify_structure().unwrap().is_empty());
        let leaf = (1..t.pool.page_count())
            .find(|&p| {
                let b = t.pool.image(p).unwrap();
                node::is_leaf(&b) && node::ncells(&b) >= 2 && node::leaf_prefix(&b).len() >= 2
            })
            .expect("some leaf has a prefix");
        (t, leaf)
    }

    fn has(issues: &[Issue], needle: &str) -> bool {
        issues.iter().any(|i| i.detail.contains(needle))
    }

    #[test]
    fn prefix_that_is_not_a_prefix_of_both_fences_is_reported() {
        let (t, leaf) = prefixed_leaf();
        {
            let h = t.pool.get(leaf).unwrap();
            let mut b = h.write();
            // The prefix's first byte, a digit, becomes one no fence has.
            b[node::LEAF_HEADER_SIZE] = b'9';
        }
        let issues = t.verify_structure().unwrap();
        assert!(
            has(&issues, "not a prefix of both fences"),
            "expected a prefix issue, got {issues:?}"
        );
    }

    #[test]
    fn cell_header_or_suffix_overrunning_the_cell_area_is_reported() {
        let (t, leaf) = prefixed_leaf();
        {
            let h = t.pool.get(leaf).unwrap();
            let mut b = h.write();
            // An escape head whose suffix length runs past the page.
            let off = get_u16(&b, node::slot_base(&b)) as usize;
            b[off] = node::ESCAPE;
            b[off + 1] = 0x7F;
            b[off + 2] = 0x7F;
        }
        let issues = t.verify_structure().unwrap();
        assert!(
            has(&issues, "overruns the cell area"),
            "expected an overrun issue, got {issues:?}"
        );
        // The scan still reads the damaged leaf without panicking.
        assert!(t.iter_all().unwrap().count() > 0);
    }

    #[test]
    fn reconstructed_key_outside_the_fences_is_reported() {
        let (t, leaf) = prefixed_leaf();
        {
            let h = t.pool.get(leaf).unwrap();
            let mut b = h.write();
            // The last cell's suffix starts with a byte above every digit:
            // prefix ++ suffix now sorts past the leaf's upper fence.
            let n = node::ncells(&b);
            let off = get_u16(&b, node::slot_base(&b) + 2 * (n - 1)) as usize;
            assert!(b[off] >> 4 > 0, "the last cell has a suffix");
            b[off + 1] = 0xFF;
        }
        let issues = t.verify_structure().unwrap();
        assert!(
            has(&issues, "above its separator bound"),
            "expected a bound issue, got {issues:?}"
        );
        assert!(!has(&issues, "not a prefix of both fences"), "{issues:?}");
    }
}
