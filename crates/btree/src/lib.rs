//! # nok-btree
//!
//! A disk-based B+ tree over [`nok_pager`], providing the three auxiliary
//! indexes of the paper's storage scheme (§4.1): **B+t** on tag names,
//! **B+v** on hashed data values, and **B+i** on Dewey IDs.
//!
//! Characteristics:
//!
//! * variable-length byte-string keys and values (slotted pages); a leaf
//!   stores the prefix its fence keys share once and each key's rest
//!   behind a one-byte cell header ([`node`]),
//! * **multimap** semantics — duplicate keys are allowed and preserved in
//!   insertion order, which the tag index relies on (one posting per element
//!   occurrence, inserted in document order),
//! * point lookups, ordered range scans over the chained leaves,
//! * deletion (leaf-local, no rebalancing — deleted space is reclaimed by
//!   in-page compaction; structurally empty leaves stay in the chain, which
//!   keeps deletion O(log n) and is the classic "lazy deletion" trade-off),
//! * sorted bulk loading with a configurable fill factor,
//! * leaf splits that follow the insert: an insert that continues a run
//!   (it sorts right after the cell its leaf received last) splits the
//!   leaf where it lands, never left of the middle, and stays at the end
//!   of the left half when it fits; any other insert first moves the
//!   leaf's last cells into its right sibling under the same parent (or
//!   its first cells into its left one), and splits at the middle only
//!   when both are full too. A split gives its left half a longer prefix,
//!   and so room nothing else routes to when a run moves on: an insert
//!   continuing a run into a full leaf first fills that room, moving the
//!   leaf's first cells into its left sibling, or starts its right
//!   sibling when it lands at the leaf's end. Measured leaf fill (bytes
//!   in use, prefixes included): 0.95 after ascending appends, 0.98 after
//!   interleaved appends to seven key groups, 0.87 after uniformly random
//!   keys (with whole keys in every cell and shifts to the right only:
//!   0.96, 0.96 and 0.73; 0.47, 0.49 and 0.66 under a plain median
//!   split).

pub mod node;
pub mod verify;

use std::collections::VecDeque;
use std::fmt;
use std::ops::Bound;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use nok_pager::codec::{get_u32, get_u64, put_u32, put_u64};
use nok_pager::mvcc::{resolve_page, SnapView};
use nok_pager::{BufferPool, PageHandle, PageId, PagerError, Storage};

/// Errors from B+ tree operations.
#[derive(Debug)]
pub enum BTreeError {
    /// Underlying pager failure.
    Pager(PagerError),
    /// A key/value pair too large to ever fit in a page.
    EntryTooLarge {
        /// Combined encoded size of the offending entry.
        size: usize,
        /// Maximum encodable size for this page size.
        max: usize,
    },
    /// Bulk load input was not sorted by key.
    UnsortedBulkLoad,
    /// Meta page did not contain a B+ tree.
    Corrupt(String),
}

impl fmt::Display for BTreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BTreeError::Pager(e) => write!(f, "pager error: {e}"),
            BTreeError::EntryTooLarge { size, max } => {
                write!(f, "entry of {size} bytes exceeds per-page maximum {max}")
            }
            BTreeError::UnsortedBulkLoad => write!(f, "bulk load input not sorted"),
            BTreeError::Corrupt(m) => write!(f, "corrupt B+ tree: {m}"),
        }
    }
}

impl std::error::Error for BTreeError {}

impl From<PagerError> for BTreeError {
    fn from(e: PagerError) -> Self {
        BTreeError::Pager(e)
    }
}

/// Result alias for B+ tree operations.
pub type BTreeResult<T> = Result<T, BTreeError>;

/// A node's lower and upper fence keys (`None` at an end of the tree).
type Fences = (Option<Vec<u8>>, Option<Vec<u8>>);

const META_MAGIC: u32 = 0x4E4F_4B42; // "NOKB"
const META_OFF_MAGIC: usize = 0;
const META_OFF_ROOT: usize = 4;
const META_OFF_COUNT: usize = 8;

/// A B+ tree occupying (all pages of) one buffer pool. Page 0 is the meta
/// page holding the root pointer and the entry count.
///
/// A tree constructed with [`BTree::snapshot_view`] is a read-only *view*
/// pinned to an MVCC generation: its root comes from the generation (not
/// the meta page) and every page read resolves through the generation's
/// before-image overlay, so a concurrent writer never tears a scan.
pub struct BTree<S: Storage> {
    pool: Arc<BufferPool<S>>,
    root: AtomicU32,
    count: AtomicU64,
    view: Option<SnapView>,
}

impl<S: Storage> BTree<S> {
    /// Create a new empty tree in a fresh pool (the pool must be empty).
    pub fn create(pool: Arc<BufferPool<S>>) -> BTreeResult<Self> {
        debug_assert_eq!(pool.page_count(), 0, "BTree::create needs an empty pool");
        let (meta_id, meta) = pool.allocate()?;
        debug_assert_eq!(meta_id, 0);
        let (root_id, root) = pool.allocate()?;
        node::init(&mut root.write(), node::NODE_LEAF);
        {
            let mut m = meta.write();
            put_u32(&mut m, META_OFF_MAGIC, META_MAGIC);
            put_u32(&mut m, META_OFF_ROOT, root_id);
            put_u64(&mut m, META_OFF_COUNT, 0);
        }
        Ok(BTree {
            pool,
            root: AtomicU32::new(root_id),
            count: AtomicU64::new(0),
            view: None,
        })
    }

    /// Open an existing tree from its pool.
    pub fn open(pool: Arc<BufferPool<S>>) -> BTreeResult<Self> {
        let meta = pool.get(0)?;
        let (root, count) = {
            let m = meta.read();
            if get_u32(&m, META_OFF_MAGIC) != META_MAGIC {
                return Err(BTreeError::Corrupt("bad meta magic".into()));
            }
            (get_u32(&m, META_OFF_ROOT), get_u64(&m, META_OFF_COUNT))
        };
        Ok(BTree {
            pool,
            root: AtomicU32::new(root),
            count: AtomicU64::new(count),
            view: None,
        })
    }

    /// A read-only tree pinned to an MVCC generation: `root` and `count`
    /// are the values captured at the generation's commit, and every page
    /// read resolves through `view`'s overlay. Mutating methods fail.
    pub fn snapshot_view(pool: Arc<BufferPool<S>>, root: u32, count: u64, view: SnapView) -> Self {
        BTree {
            pool,
            root: AtomicU32::new(root),
            count: AtomicU64::new(count),
            view: Some(view),
        }
    }

    /// The image of a page: through the snapshot overlay on a view, the
    /// frame's current image otherwise. Either way an `Arc` clone, no copy.
    fn page(&self, id: PageId) -> BTreeResult<Arc<[u8]>> {
        Ok(resolve_page(&self.pool, self.view.as_ref(), id)?)
    }

    /// Current root page id (captured into MVCC generations at commit).
    pub fn root_page(&self) -> u32 {
        self.root.load(Ordering::Acquire)
    }

    /// Number of key/value entries.
    pub fn len(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// True when the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total storage footprint in bytes (pages × page size) — the quantity
    /// Table 1 of the paper reports for each index.
    pub fn footprint_bytes(&self) -> u64 {
        self.pool.page_count() as u64 * self.pool.page_size() as u64
    }

    /// The buffer pool backing this tree (exposes I/O statistics).
    pub fn pool(&self) -> &BufferPool<S> {
        &self.pool
    }

    /// A shared handle to the backing pool (for transaction scoping).
    pub fn pool_rc(&self) -> Arc<BufferPool<S>> {
        Arc::clone(&self.pool)
    }

    /// Re-read the root pointer and entry count from the meta page. Used
    /// after a rollback discarded this tree's dirty frames: the in-memory
    /// atomics may reflect the undone mutation.
    pub fn reload_meta(&self) -> BTreeResult<()> {
        let meta = self.pool.get(0)?;
        let (root, count) = {
            let m = meta.read();
            if get_u32(&m, META_OFF_MAGIC) != META_MAGIC {
                return Err(BTreeError::Corrupt("bad meta magic".into()));
            }
            (get_u32(&m, META_OFF_ROOT), get_u64(&m, META_OFF_COUNT))
        };
        self.root.store(root, Ordering::Release);
        self.count.store(count, Ordering::Relaxed);
        Ok(())
    }

    /// Flush all dirty pages to storage.
    pub fn flush(&self) -> BTreeResult<()> {
        self.persist_meta()?;
        self.pool.flush()?;
        Ok(())
    }

    fn persist_meta(&self) -> BTreeResult<()> {
        let meta = self.pool.get(0)?;
        let mut m = meta.write();
        put_u32(&mut m, META_OFF_ROOT, self.root.load(Ordering::Acquire));
        put_u64(&mut m, META_OFF_COUNT, self.count.load(Ordering::Relaxed));
        Ok(())
    }

    fn max_entry_size(&self) -> usize {
        // A page must fit at least two cells so splits can always make room.
        (self.pool.page_size() - node::LEAF_HEADER_SIZE) / 2 - 2
    }

    /// Insert `(key, value)`. Duplicate keys are kept; the new entry is
    /// placed after any existing entries with an equal key.
    pub fn insert(&self, key: &[u8], value: &[u8]) -> BTreeResult<()> {
        if self.view.is_some() {
            return Err(BTreeError::Corrupt("insert on a snapshot view".into()));
        }
        let size = node::leaf_cell_size(key.len(), value.len());
        if size > self.max_entry_size() {
            return Err(BTreeError::EntryTooLarge {
                size,
                max: self.max_entry_size(),
            });
        }
        // Descend right-most among equals, recording the path.
        let mut path: Vec<(PageId, usize)> = Vec::new();
        let mut page_id = self.root.load(Ordering::Acquire);
        loop {
            let buf = self.pool.image(page_id)?;
            if node::is_leaf(&buf) {
                break;
            }
            let child_idx = node::upper_bound(&buf, key);
            let child = if child_idx == 0 {
                node::link(&buf)
            } else {
                node::child(&buf, child_idx - 1)
            };
            path.push((page_id, child_idx));
            page_id = child;
        }
        // Insert into the leaf, splitting up the path as needed.
        let leaf = self.pool.get(page_id)?;
        {
            let mut buf = leaf.write();
            if !key.starts_with(node::leaf_prefix(&buf)) {
                return Err(BTreeError::Corrupt(format!(
                    "leaf {page_id}: a key routed to it lacks its prefix"
                )));
            }
            if node::free_space(&buf) >= node::leaf_need(&buf, key, value) {
                let pos = node::upper_bound(&buf, key);
                node::leaf_insert(&mut buf, pos, key, value);
                drop(buf);
                self.bump_count(1)?;
                return Ok(());
            }
        }
        self.split_leaf_and_insert(leaf, key, value, path)?;
        self.bump_count(1)?;
        Ok(())
    }

    fn bump_count(&self, delta: i64) -> BTreeResult<()> {
        let next = (self.count.load(Ordering::Relaxed) as i64 + delta).max(0) as u64;
        self.count.store(next, Ordering::Relaxed);
        self.persist_meta()
    }

    /// The fences of the node `path` leads to: the nearest separator left
    /// of it and the nearest one right of it, `None` at either end of the
    /// tree.
    fn fences(&self, path: &[(PageId, usize)]) -> BTreeResult<Fences> {
        let (mut lower, mut upper) = (None, None);
        for &(id, idx) in path.iter().rev() {
            if lower.is_some() && upper.is_some() {
                break;
            }
            let buf = self.pool.image(id)?;
            if lower.is_none() && idx > 0 {
                lower = Some(node::key(&buf, idx - 1).to_vec());
            }
            if upper.is_none() && idx < node::ncells(&buf) {
                upper = Some(node::key(&buf, idx).to_vec());
            }
        }
        Ok((lower, upper))
    }

    fn split_leaf_and_insert(
        &self,
        leaf: PageHandle,
        key: &[u8],
        value: &[u8],
        path: Vec<(PageId, usize)>,
    ) -> BTreeResult<()> {
        let img = leaf.read();
        let pos = node::upper_bound(&img, key);
        let in_run = pos > 0 && node::is_newest_cell(&img, pos - 1);
        // The split rule of the module doc, first without a new page.
        let shifted = if in_run {
            self.shift_into_left_sibling(key, value, &path, true)?
                || self.shift_into_right_sibling(key, value, &path, true)?
        } else {
            self.shift_into_right_sibling(key, value, &path, false)?
                || self.shift_into_left_sibling(key, value, &path, false)?
        };
        if shifted {
            return Ok(());
        }
        let (lower, upper) = self.fences(&path)?;
        let n = node::ncells(&img);
        let mut cells = leaf_entries(&img);
        cells.insert(pos, node::Entry::whole(key, value));
        // Do both halves of `cells` split at `at` fit their pages, each
        // under the prefix of its own fences?
        let page = img.len();
        let halves = |at: usize| -> bool {
            let Some(sep) = cells.get(at) else {
                return false;
            };
            let lp = sep.fence_prefix_len(lower.as_deref());
            let rp = sep.fence_prefix_len(upper.as_deref());
            node::leaf_size(lp, cells[..at].iter().copied()) <= page
                && node::leaf_size(rp, cells[at..].iter().copied()) <= page
        };
        // The split rule of the module doc: an append (to the tree, or to a
        // key group inside it) leaves the left leaf as full as it was
        // instead of half empty. The pending entry goes where it sorts; at
        // the cut it ends the left leaf when that has room for it (it may
        // be larger than what moved out) and starts the right leaf
        // otherwise. Should that not fit (cells of very different sizes),
        // the first cut that fits both halves is taken.
        let cut = if in_run { pos.max(n / 2) } else { n / 2 };
        let goes_left = pos < cut || (pos == cut && halves(cut + 1));
        let at = if goes_left { cut + 1 } else { cut };
        let at = if halves(at) {
            at
        } else {
            (1..=n)
                .find(|&at| halves(at))
                .ok_or_else(|| BTreeError::Corrupt("no leaf split fits both halves".into()))?
        };
        let sep = cells[at].key();
        // Preserve the leaf chain: left -> right -> old successor.
        let (right_id, right) = self.pool.allocate()?;
        let lprefix = node::fence_prefix(lower.as_deref(), Some(&sep));
        let rprefix = node::fence_prefix(Some(&sep), upper.as_deref());
        write_leaf_with(
            &mut right.write(),
            rprefix,
            node::link(&img),
            &cells[at..],
            pos.checked_sub(at),
        );
        write_leaf_with(
            &mut leaf.write(),
            lprefix,
            right_id,
            &cells[..at],
            (pos < at).then_some(pos),
        );
        self.insert_separator(path, sep, right_id)
    }

    /// The leaf `path` leads to and its sibling under the same parent, on
    /// its right (`with_right`) or on its left; `None` when there is no
    /// such sibling.
    fn pair(&self, path: &[(PageId, usize)], with_right: bool) -> BTreeResult<Option<Pair>> {
        let Some(&(parent_id, idx)) = path.last() else {
            return Ok(None);
        };
        let parent = self.pool.get(parent_id)?;
        let pimg = parent.read();
        let sep_idx = match with_right {
            true if idx < node::ncells(&pimg) => idx,
            false if idx > 0 => idx - 1,
            _ => return Ok(None),
        };
        // Child `i` of the parent: its link, then one per separator.
        let child_at = |i: usize| match i {
            0 => node::link(&pimg),
            i => node::child(&pimg, i - 1),
        };
        let (left_id, right_id) = (child_at(sep_idx), child_at(sep_idx + 1));
        let mut around = path.to_vec();
        let last = around.len() - 1;
        around[last].1 = sep_idx;
        let (lower, _) = self.fences(&around)?;
        around[last].1 = sep_idx + 1;
        let (_, upper) = self.fences(&around)?;
        let left = self.pool.get(left_id)?;
        if node::link(&left.read()) != right_id {
            return Ok(None);
        }
        Ok(Some(Pair {
            sep_idx,
            sep_room: node::free_space(&pimg) + node::key(&pimg, sep_idx).len(),
            parent,
            left,
            right: self.pool.get(right_id)?,
            lower,
            upper,
        }))
    }

    /// Write `cells` back as the two leaves of `pair`: `cells[..at]` and
    /// `cells[at..]`, each under the prefix of its new fences, and
    /// `cells[at]`'s key as the parent's separator between them. `pending`
    /// is the new entry's index in `cells`. `false`, with nothing written,
    /// when a leaf or the parent would not hold its part.
    fn rewrite_pair(
        &self,
        pair: &Pair,
        cells: &[node::Entry],
        at: usize,
        pending: usize,
    ) -> BTreeResult<bool> {
        let Some(sep) = cells.get(at).map(node::Entry::key) else {
            return Ok(false);
        };
        let lprefix = node::fence_prefix(pair.lower.as_deref(), Some(&sep));
        let rprefix = node::fence_prefix(Some(&sep), pair.upper.as_deref());
        let page = self.pool.page_size();
        if sep.len() > pair.sep_room
            || node::leaf_size(lprefix.len(), cells[..at].iter().copied()) > page
            || node::leaf_size(rprefix.len(), cells[at..].iter().copied()) > page
        {
            return Ok(false);
        }
        let right_link = node::link(&pair.right.read());
        write_leaf_with(
            &mut pair.left.write(),
            lprefix,
            pair.right.id(),
            &cells[..at],
            (pending < at).then_some(pending),
        );
        write_leaf_with(
            &mut pair.right.write(),
            rprefix,
            right_link,
            &cells[at..],
            pending.checked_sub(at),
        );
        let mut pbuf = pair.parent.write();
        node::remove(&mut pbuf, pair.sep_idx);
        node::internal_insert(&mut pbuf, pair.sep_idx, &sep, pair.right.id());
        Ok(true)
    }

    /// Insert into the full leaf `path` leads to by moving cells between it
    /// and its right sibling under the same parent instead of splitting. For an insert
    /// inside the leaf, its last cells move so that the two end about
    /// equally full; one that continues a run at the leaf's end (`run`)
    /// starts the sibling, nothing else moving. `false`, with nothing
    /// changed, when there is no such sibling or the two leaves and the
    /// parent cannot take the move.
    fn shift_into_right_sibling(
        &self,
        key: &[u8],
        value: &[u8],
        path: &[(PageId, usize)],
        run: bool,
    ) -> BTreeResult<bool> {
        let Some(pair) = self.pair(path, true)? else {
            return Ok(false);
        };
        let (limg, rimg) = (pair.left.read(), pair.right.read());
        let n = node::ncells(&limg);
        let pos = node::upper_bound(&limg, key);
        let at = if run {
            if pos < n {
                return Ok(false);
            }
            n
        } else {
            let need = node::leaf_need(&limg, key, value);
            let (lfree, rfree) = (node::free_space(&limg), node::free_space(&rimg));
            // Move cells while the left leaf, once it holds the new cell,
            // stays no emptier than the right one (sizes as the left leaf
            // stores them; `rewrite_pair` checks the new prefixes' exactly).
            let (mut cut, mut moved) = (n, 0);
            while cut > 0 {
                let e = node::leaf_entry(&limg, cut - 1);
                let c = node::leaf_cell_size(e.suffix.len(), e.value.len()) + 2;
                if moved + c > rfree || 2 * (moved + c) > rfree + need - lfree {
                    break;
                }
                cut -= 1;
                moved += c;
            }
            let goes_left = pos < cut || (pos == cut && lfree + moved >= need);
            let at = if goes_left { cut + 1 } else { cut };
            if at > n {
                return Ok(false); // nothing would move
            }
            at
        };
        let mut cells = leaf_entries(&limg);
        cells.insert(pos, node::Entry::whole(key, value));
        cells.extend(leaf_entries(&rimg));
        self.rewrite_pair(&pair, &cells, at, pos)
    }

    /// Insert into the full leaf `path` leads to by moving its first cells
    /// into its left sibling under the same parent instead of splitting: as many as the
    /// sibling holds when the insert continues a run (`run`: a split leaves
    /// its left half under a longer prefix, with room nothing else would
    /// route to), else until the two are about equally full. `false`, with
    /// nothing changed, when there is no such sibling or nothing moves.
    fn shift_into_left_sibling(
        &self,
        key: &[u8],
        value: &[u8],
        path: &[(PageId, usize)],
        run: bool,
    ) -> BTreeResult<bool> {
        let Some(pair) = self.pair(path, false)? else {
            return Ok(false);
        };
        let (limg, rimg) = (pair.left.read(), pair.right.read());
        let b = node::ncells(&limg);
        let pos = b + node::upper_bound(&rimg, key);
        let mut cells = leaf_entries(&limg);
        cells.extend(leaf_entries(&rimg));
        cells.insert(pos, node::Entry::whole(key, value));
        let page = self.pool.page_size();
        let sizes = |at: usize| {
            let lp = cells[at].fence_prefix_len(pair.lower.as_deref());
            let rp = cells[at].fence_prefix_len(pair.upper.as_deref());
            (
                node::leaf_size(lp, cells[..at].iter().copied()),
                node::leaf_size(rp, cells[at..].iter().copied()),
            )
        };
        // The left leaf grows with the cut and the right one shrinks: find
        // the last cut that keeps the left one within the page (run), or
        // no fuller than the right one.
        let (mut lo, mut hi) = (b, if run { pos } else { cells.len() - 1 });
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            let (l, r) = sizes(mid);
            if l <= page && (run || l <= r) {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        if lo == b {
            return Ok(false);
        }
        self.rewrite_pair(&pair, &cells, lo, pos)
    }

    /// Propagate a separator for a freshly split child up the recorded path.
    fn insert_separator(
        &self,
        mut path: Vec<(PageId, usize)>,
        mut sep: Vec<u8>,
        mut new_child: PageId,
    ) -> BTreeResult<()> {
        loop {
            let Some((parent_id, child_idx)) = path.pop() else {
                // Split reached the root: grow the tree by one level.
                let old_root = self.root.load(Ordering::Acquire);
                let (new_root_id, new_root) = self.pool.allocate()?;
                {
                    let mut buf = new_root.write();
                    node::init(&mut buf, node::NODE_INTERNAL);
                    node::set_link(&mut buf, old_root);
                    node::internal_insert(&mut buf, 0, &sep, new_child);
                }
                self.root.store(new_root_id, Ordering::Release);
                self.persist_meta()?;
                return Ok(());
            };
            let parent = self.pool.get(parent_id)?;
            let size = node::internal_cell_size(&sep);
            {
                let mut buf = parent.write();
                if node::free_space(&buf) >= size + 2 {
                    node::internal_insert(&mut buf, child_idx, &sep, new_child);
                    return Ok(());
                }
            }
            // Split the internal parent: median key moves up.
            let (right_id, right) = self.pool.allocate()?;
            let promoted: Vec<u8>;
            {
                let mut lbuf = parent.write();
                let mut rbuf = right.write();
                node::init(&mut rbuf, node::NODE_INTERNAL);
                let n = node::ncells(&lbuf);
                let mid = n / 2;
                promoted = node::key(&lbuf, mid).to_vec();
                node::set_link(&mut rbuf, node::child(&lbuf, mid));
                node::copy_range(&lbuf, &mut rbuf, mid + 1, n);
                node::truncate_to_range(&mut lbuf, 0, mid);
                // Re-apply the pending separator where the split child
                // sits: by position, since it may equal its neighbours (a
                // run of one key spans several leaves).
                if child_idx <= mid {
                    node::internal_insert(&mut lbuf, child_idx, &sep, new_child);
                } else {
                    node::internal_insert(&mut rbuf, child_idx - mid - 1, &sep, new_child);
                }
            }
            sep = promoted;
            new_child = right_id;
        }
    }

    /// Descend to the leftmost leaf that can contain `key`: its id and the
    /// image the descent read, so no caller fetches the leaf again.
    fn descend_left(&self, key: &[u8]) -> BTreeResult<(PageId, Arc<[u8]>)> {
        let mut page_id = self.root.load(Ordering::Acquire);
        loop {
            let buf = self.page(page_id)?;
            if node::is_leaf(&buf) {
                return Ok((page_id, buf));
            }
            let idx = node::lower_bound(&buf, key); // first separator >= key
            page_id = if idx == 0 {
                node::link(&buf)
            } else {
                node::child(&buf, idx - 1)
            };
        }
    }

    /// First value stored under `key`, if any. Keys are compared where they
    /// lie; only the value found is copied.
    pub fn get_first(&self, key: &[u8]) -> BTreeResult<Option<Vec<u8>>> {
        let (_, mut leaf) = self.descend_left(key)?;
        let mut slot = node::lower_bound(&leaf, key);
        // Past the leaf's last key, the first key at or above `key` opens
        // the next non-empty leaf.
        while slot == node::ncells(&leaf) {
            match node::link(&leaf) {
                node::NO_PAGE => return Ok(None),
                next => leaf = self.page(next)?,
            }
            slot = 0;
        }
        Ok(node::leaf_key_eq(&leaf, slot, key).then(|| node::leaf_value(&leaf, slot).to_vec()))
    }

    /// All values stored under `key`, in insertion order.
    pub fn get_all(&self, key: &[u8]) -> BTreeResult<Vec<Vec<u8>>> {
        let mut out = Vec::new();
        for item in self.range(Bound::Included(key), Bound::Included(key))? {
            out.push(item?.1);
        }
        Ok(out)
    }

    /// Whether `key` has at least one entry.
    pub fn contains(&self, key: &[u8]) -> BTreeResult<bool> {
        Ok(self.get_first(key)?.is_some())
    }

    /// Iterate over `(key, value)` pairs with `key` within the given bounds.
    /// The bounds are borrowed for the iterator's life; each yielded key is
    /// assembled once from its leaf's prefix and its stored suffix.
    pub fn range<'a>(
        &'a self,
        lo: Bound<&'a [u8]>,
        hi: Bound<&'a [u8]>,
    ) -> BTreeResult<RangeIter<'a, S>> {
        let (start, skip_key) = match lo {
            Bound::Unbounded => (&[][..], None),
            Bound::Included(k) => (k, None),
            Bound::Excluded(k) => (k, Some(k)),
        };
        let (_, leaf) = self.descend_left(start)?;
        let slot = node::lower_bound(&leaf, start);
        Ok(RangeIter {
            tree: self,
            leaf: Some(leaf),
            slot,
            upper: hi,
            skip_key,
        })
    }

    /// Iterate over every entry in key order.
    pub fn iter_all(&self) -> BTreeResult<RangeIter<'_, S>> {
        self.range(Bound::Unbounded, Bound::Unbounded)
    }

    /// Delete one entry with `key`. If `value` is `Some`, only an entry whose
    /// value matches is removed; otherwise the first entry with the key is.
    /// Returns whether anything was removed.
    pub fn delete(&self, key: &[u8], value: Option<&[u8]>) -> BTreeResult<bool> {
        if self.view.is_some() {
            return Err(BTreeError::Corrupt("delete on a snapshot view".into()));
        }
        // Search the images the descent and the link walk read; take the
        // frame for writing only in the leaf that holds the entry.
        let (mut leaf_id, mut buf) = self.descend_left(key)?;
        loop {
            let mut found = None;
            let mut past = false;
            // The key is held against the leaf's prefix once, and each cell
            // decoded once: a run of one key can span many leaves.
            let rest = key.strip_prefix(node::leaf_prefix(&buf));
            for i in node::lower_bound(&buf, key)..node::ncells(&buf) {
                let (suffix, stored) = node::leaf_cell(&buf, i);
                if rest != Some(suffix) {
                    past = true;
                    break;
                }
                if value.is_none_or(|v| stored == v) {
                    found = Some(i);
                    break;
                }
            }
            if let Some(i) = found {
                node::remove(&mut self.pool.get(leaf_id)?.write(), i);
                self.bump_count(-1)?;
                return Ok(true);
            }
            let next = node::link(&buf);
            if past || next == node::NO_PAGE {
                return Ok(false);
            }
            leaf_id = next;
            buf = self.page(leaf_id)?;
        }
    }

    /// Build a tree from an iterator of key-sorted `(key, value)` pairs.
    /// Much faster than repeated [`BTree::insert`] and produces tightly
    /// packed pages (≈`fill` fraction full).
    ///
    /// Each leaf's lower fence is its first key and its upper fence the
    /// next leaf's first key, so a leaf's prefix is known only once the key
    /// after it arrives: the leaf being filled is sized under the prefix
    /// it shares with every key so far, which can only shorten. When the
    /// key that closes it shortens it so far that the cells no longer fit
    /// the page, its last cells move on to start the next leaf, which
    /// lengthens the prefix again.
    pub fn bulk_load<I>(pool: Arc<BufferPool<S>>, pairs: I, fill: f64) -> BTreeResult<Self>
    where
        I: IntoIterator<Item = (Vec<u8>, Vec<u8>)>,
    {
        let tree = BTree::create(Arc::clone(&pool))?;
        let fill = fill.clamp(0.3, 1.0);
        let page_size = pool.page_size();
        let budget = node::HEADER_SIZE + ((page_size - node::HEADER_SIZE) as f64 * fill) as usize;
        let leaf_bytes =
            |plen: usize, cells: &[(Vec<u8>, Vec<u8>)]| node::leaf_size(plen, whole(cells));

        // Level 0: fill leaves left to right.
        let mut leaves: Vec<(Vec<u8>, PageId)> = Vec::new(); // (lower fence, page)
        let mut cur_id = tree.root.load(Ordering::Acquire);
        let mut cells: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let mut lower: Option<Vec<u8>> = None;
        // `used` is the leaf's size under a prefix of `plen` bytes: what
        // its lower fence shares with every key so far.
        let (mut plen, mut used) = (0usize, 0usize);
        // Cells that start the next leaf, ahead of `pairs`.
        let mut carried: VecDeque<(Vec<u8>, Vec<u8>)> = VecDeque::new();
        let mut pairs = pairs.into_iter();
        let mut count = 0u64;
        loop {
            let next = match carried.pop_front() {
                Some(cell) => Some(cell),
                None => match pairs.next() {
                    Some((key, value)) => {
                        // Nothing is carried, so the last key read is the
                        // leaf's last.
                        if cells.last().is_some_and(|(p, _)| p > &key) {
                            return Err(BTreeError::UnsortedBulkLoad);
                        }
                        let size = node::leaf_cell_size(key.len(), value.len());
                        if size > tree.max_entry_size() {
                            return Err(BTreeError::EntryTooLarge {
                                size,
                                max: tree.max_entry_size(),
                            });
                        }
                        count += 1;
                        Some((key, value))
                    }
                    None => None,
                },
            };
            if let Some((key, value)) = next {
                let q = node::fence_prefix(lower.as_deref(), Some(&key)).len();
                if cells.is_empty() {
                    (plen, used) = (q, node::LEAF_HEADER_SIZE + q);
                } else if q < plen {
                    (plen, used) = (q, leaf_bytes(q, &cells));
                }
                let add = node::leaf_cell_size(key.len() - q, value.len()) + 2;
                if cells.is_empty() || used + add <= budget {
                    cells.push((key, value));
                    used += add;
                    continue;
                }
                carried.push_front((key, value));
            }
            // Close the leaf on the next cell (none after the last leaf).
            // Under the prefix that leaves it, its own last cells move on
            // while they do not fit.
            while cells.len() > 1 {
                let upper = carried.front().map(|(k, _)| &k[..]);
                let q = node::fence_prefix(lower.as_deref(), upper).len();
                if leaf_bytes(q, &cells) <= page_size {
                    break;
                }
                if let Some(cell) = cells.pop() {
                    carried.push_front(cell);
                }
            }
            let upper = carried.front().map(|(k, _)| k.clone());
            let next_id = match upper {
                Some(_) => pool.allocate()?.0,
                None => node::NO_PAGE,
            };
            {
                let page = pool.get(cur_id)?;
                let prefix = node::fence_prefix(lower.as_deref(), upper.as_deref());
                node::write_leaf(&mut page.write(), prefix, next_id, &whole(&cells));
            }
            leaves.push((lower.take().unwrap_or_default(), cur_id));
            let Some(upper) = upper else {
                break;
            };
            cells.clear();
            lower = Some(upper);
            cur_id = next_id;
        }

        // Upper levels: group children under internal nodes.
        let mut level = leaves;
        while level.len() > 1 {
            let mut next_level: Vec<(Vec<u8>, PageId)> = Vec::new();
            let mut iter = level.into_iter();
            let Some(mut group_first) = iter.next() else {
                return Err(BTreeError::Corrupt(
                    "bulk load produced an empty index level".into(),
                ));
            };
            loop {
                let (node_id, handle) = pool.allocate()?;
                {
                    let mut buf = handle.write();
                    node::init(&mut buf, node::NODE_INTERNAL);
                    node::set_link(&mut buf, group_first.1);
                }
                let group_key = group_first.0.clone();
                let mut used = 0usize;
                let mut done = true;
                for (sep, child) in iter.by_ref() {
                    let size = node::internal_cell_size(&sep) + 2;
                    if used + size > budget && used > 0 {
                        group_first = (sep, child);
                        done = false;
                        break;
                    }
                    let mut buf = handle.write();
                    let n = node::ncells(&buf);
                    node::internal_insert(&mut buf, n, &sep, child);
                    used += size;
                }
                next_level.push((group_key, node_id));
                if done {
                    break;
                }
            }
            level = next_level;
        }
        tree.root.store(level[0].1, Ordering::Release);
        tree.count.store(count, Ordering::Relaxed);
        tree.persist_meta()?;
        Ok(tree)
    }
}

/// Two adjacent leaves under one parent, the parent's separator between
/// them, and the fences around the pair.
struct Pair {
    parent: PageHandle,
    sep_idx: usize,
    /// Bytes the parent has for the separator once the old one is gone.
    sep_room: usize,
    left: PageHandle,
    right: PageHandle,
    lower: Option<Vec<u8>>,
    upper: Option<Vec<u8>>,
}

/// Every entry of leaf `buf`, in order.
fn leaf_entries(buf: &[u8]) -> Vec<node::Entry<'_>> {
    (0..node::ncells(buf))
        .map(|i| node::leaf_entry(buf, i))
        .collect()
}

/// Write `cells` as leaf `buf` ([`node::write_leaf`]), the pending entry
/// (`cells[pending]`, when it falls in this leaf) inserted last: it is the
/// leaf's newest cell, as a plain insert would have left it, so that a run
/// it continues is recognised.
fn write_leaf_with(
    buf: &mut [u8],
    prefix: &[u8],
    link: u32,
    cells: &[node::Entry],
    pending: Option<usize>,
) {
    match pending.filter(|&p| p < cells.len()) {
        None => node::write_leaf(buf, prefix, link, cells),
        Some(p) => {
            let rest: Vec<node::Entry> =
                cells[..p].iter().chain(&cells[p + 1..]).copied().collect();
            node::write_leaf(buf, prefix, link, &rest);
            node::leaf_insert(buf, p, &cells[p].key(), cells[p].value);
        }
    }
}

/// Owned `(key, value)` pairs as leaf entries.
fn whole(cells: &[(Vec<u8>, Vec<u8>)]) -> Vec<node::Entry<'_>> {
    cells
        .iter()
        .map(|(k, v)| node::Entry::whole(k, v))
        .collect()
}

/// Ordered iterator over `(key, value)` pairs. Yields `Result` items because
/// advancing may require page I/O.
pub struct RangeIter<'a, S: Storage> {
    tree: &'a BTree<S>,
    leaf: Option<Arc<[u8]>>,
    slot: usize,
    upper: Bound<&'a [u8]>,
    /// An excluded lower bound, skipped while the scan is still on it.
    skip_key: Option<&'a [u8]>,
}

impl<S: Storage> Iterator for RangeIter<'_, S> {
    type Item = BTreeResult<(Vec<u8>, Vec<u8>)>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let leaf = self.leaf.as_ref()?;
            if self.slot == node::ncells(leaf) {
                let next = node::link(leaf);
                if next == node::NO_PAGE {
                    self.leaf = None;
                    return None;
                }
                match self.tree.page(next) {
                    Ok(h) => {
                        self.leaf = Some(h);
                        self.slot = 0;
                    }
                    Err(e) => {
                        self.leaf = None;
                        return Some(Err(e));
                    }
                }
                continue;
            }
            let prefix = node::leaf_prefix(leaf);
            let (suffix, value) = node::leaf_cell(leaf, self.slot);
            self.slot += 1;
            // Bounds are compared with the key where it lies; only a key in
            // range is assembled.
            if let Some(skip) = self.skip_key {
                if node::key_cmp(prefix, suffix, skip).is_eq() {
                    continue;
                }
                self.skip_key = None;
            }
            let in_range = match self.upper {
                Bound::Unbounded => true,
                Bound::Included(hi) => node::key_cmp(prefix, suffix, hi).is_le(),
                Bound::Excluded(hi) => node::key_cmp(prefix, suffix, hi).is_lt(),
            };
            if !in_range {
                self.leaf = None;
                return None;
            }
            return Some(Ok(([prefix, suffix].concat(), value.to_vec())));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nok_pager::MemStorage;

    fn mem_tree(page_size: usize) -> BTree<MemStorage> {
        let pool = Arc::new(BufferPool::new(MemStorage::with_page_size(page_size)));
        BTree::create(pool).unwrap()
    }

    fn key_of(i: u32) -> Vec<u8> {
        format!("{i:08}").into_bytes()
    }

    #[test]
    fn insert_and_get() {
        let t = mem_tree(4096);
        t.insert(b"hello", b"world").unwrap();
        assert_eq!(t.get_first(b"hello").unwrap().unwrap(), b"world");
        assert_eq!(t.get_first(b"nope").unwrap(), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn many_inserts_force_splits() {
        let t = mem_tree(256); // tiny pages => deep tree
        let n = 2000u32;
        for i in 0..n {
            t.insert(&key_of(i * 7 % n), &i.to_le_bytes()).unwrap();
        }
        assert_eq!(t.len(), n as u64);
        for i in 0..n {
            assert!(t.get_first(&key_of(i)).unwrap().is_some(), "missing {i}");
        }
    }

    #[test]
    fn duplicates_preserved_in_order() {
        let t = mem_tree(256);
        for i in 0..50u32 {
            t.insert(b"dup", &i.to_le_bytes()).unwrap();
        }
        let all = t.get_all(b"dup").unwrap();
        assert_eq!(all.len(), 50);
        for (i, v) in all.iter().enumerate() {
            assert_eq!(v.as_slice(), (i as u32).to_le_bytes());
        }
    }

    #[test]
    fn duplicates_across_page_splits() {
        let t = mem_tree(256);
        // Surround a big duplicate run with other keys.
        for i in 0..100u32 {
            t.insert(&key_of(i), b"x").unwrap();
        }
        for i in 0..200u32 {
            t.insert(b"00000050dup", &i.to_le_bytes()).unwrap();
        }
        let all = t.get_all(b"00000050dup").unwrap();
        assert_eq!(all.len(), 200);
        for (i, v) in all.iter().enumerate() {
            assert_eq!(
                v.as_slice(),
                (i as u32).to_le_bytes(),
                "order broken at {i}"
            );
        }
    }

    #[test]
    fn range_scan_is_sorted_and_bounded() {
        let t = mem_tree(512);
        for i in (0..500u32).rev() {
            t.insert(&key_of(i), b"").unwrap();
        }
        let lo = key_of(100);
        let hi = key_of(199);
        let keys: Vec<_> = t
            .range(Bound::Included(&lo), Bound::Included(&hi))
            .unwrap()
            .map(|r| r.unwrap().0)
            .collect();
        assert_eq!(keys.len(), 100);
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(keys[0], key_of(100));
        assert_eq!(keys[99], key_of(199));
    }

    #[test]
    fn excluded_lower_bound() {
        let t = mem_tree(512);
        for i in 0..10u32 {
            t.insert(&key_of(i), b"").unwrap();
        }
        let lo = key_of(3);
        let keys: Vec<_> = t
            .range(Bound::Excluded(&lo), Bound::Unbounded)
            .unwrap()
            .map(|r| r.unwrap().0)
            .collect();
        assert_eq!(keys.first().unwrap(), &key_of(4));
    }

    #[test]
    fn iter_all_sees_everything() {
        let t = mem_tree(256);
        for i in 0..300u32 {
            t.insert(&key_of((i * 13) % 300), &[]).unwrap();
        }
        assert_eq!(t.iter_all().unwrap().count(), 300);
    }

    #[test]
    fn delete_specific_value() {
        let t = mem_tree(512);
        t.insert(b"k", b"a").unwrap();
        t.insert(b"k", b"b").unwrap();
        t.insert(b"k", b"c").unwrap();
        assert!(t.delete(b"k", Some(b"b")).unwrap());
        assert_eq!(t.get_all(b"k").unwrap(), vec![b"a".to_vec(), b"c".to_vec()]);
        assert!(!t.delete(b"k", Some(b"zz")).unwrap());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn delete_first_when_no_value_given() {
        let t = mem_tree(512);
        t.insert(b"k", b"a").unwrap();
        t.insert(b"k", b"b").unwrap();
        assert!(t.delete(b"k", None).unwrap());
        assert_eq!(t.get_all(b"k").unwrap(), vec![b"b".to_vec()]);
    }

    #[test]
    fn delete_across_leaves() {
        let t = mem_tree(256);
        for i in 0..100u32 {
            t.insert(b"samekey", &i.to_le_bytes()).unwrap();
        }
        // Delete a value that lives several leaves into the duplicate run.
        assert!(t.delete(b"samekey", Some(&95u32.to_le_bytes())).unwrap());
        assert_eq!(t.get_all(b"samekey").unwrap().len(), 99);
    }

    #[test]
    fn entry_too_large_rejected() {
        let t = mem_tree(256);
        let big = vec![0u8; 300];
        assert!(matches!(
            t.insert(&big, b""),
            Err(BTreeError::EntryTooLarge { .. })
        ));
    }

    #[test]
    fn bulk_load_round_trip() {
        let pool = Arc::new(BufferPool::new(MemStorage::with_page_size(256)));
        let pairs: Vec<_> = (0..1000u32)
            .map(|i| (key_of(i), i.to_le_bytes().to_vec()))
            .collect();
        let t = BTree::bulk_load(pool, pairs, 0.9).unwrap();
        assert_eq!(t.len(), 1000);
        for i in (0..1000u32).step_by(37) {
            assert_eq!(
                t.get_first(&key_of(i)).unwrap().unwrap(),
                i.to_le_bytes().to_vec()
            );
        }
        let keys: Vec<_> = t.iter_all().unwrap().map(|r| r.unwrap().0).collect();
        assert_eq!(keys.len(), 1000);
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn bulk_load_rejects_unsorted() {
        let pool = Arc::new(BufferPool::new(MemStorage::with_page_size(256)));
        let pairs = vec![(b"b".to_vec(), vec![]), (b"a".to_vec(), vec![])];
        assert!(matches!(
            BTree::bulk_load(pool, pairs, 0.9),
            Err(BTreeError::UnsortedBulkLoad)
        ));
    }

    #[test]
    fn bulk_load_then_insert_more() {
        let pool = Arc::new(BufferPool::new(MemStorage::with_page_size(256)));
        let pairs: Vec<_> = (0..100u32).map(|i| (key_of(i * 2), vec![])).collect();
        let t = BTree::bulk_load(pool, pairs, 0.8).unwrap();
        for i in 0..100u32 {
            t.insert(&key_of(i * 2 + 1), b"odd").unwrap();
        }
        assert_eq!(t.len(), 200);
        let keys: Vec<_> = t.iter_all().unwrap().map(|r| r.unwrap().0).collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    }

    /// Bytes in use over bytes available, across the leaf chain.
    fn leaf_fill(t: &BTree<MemStorage>) -> f64 {
        let mut id = t.root_page();
        loop {
            let page = t.pool.get(id).unwrap();
            let buf = page.read();
            if node::is_leaf(&buf) {
                break;
            }
            id = node::link(&buf);
        }
        let (mut used, mut room) = (0usize, 0usize);
        while id != node::NO_PAGE {
            let page = t.pool.get(id).unwrap();
            let buf = page.read();
            room += buf.len() - node::HEADER_SIZE;
            used += buf.len() - node::HEADER_SIZE - node::free_space(&buf);
            id = node::link(&buf);
        }
        used as f64 / room as f64
    }

    fn assert_sound(t: &BTree<MemStorage>) {
        let issues = t.verify_structure().unwrap();
        assert!(issues.is_empty(), "{issues:?}");
    }

    #[test]
    fn appends_leave_full_leaves() {
        // Ascending keys: every split lands at the end of the last leaf.
        let t = mem_tree(512);
        for i in 0..4000u32 {
            t.insert(&key_of(i), &i.to_le_bytes()).unwrap();
        }
        assert_sound(&t);
        assert!(leaf_fill(&t) >= 0.9, "ascending: {}", leaf_fill(&t));
        // Composite (group, seq) keys, the groups taking turns (the B+t
        // pattern: each tag's postings grow at the end of the tag's run, in
        // the middle of the tree).
        let t = mem_tree(512);
        for seq in 0..1500u32 {
            for group in 0..7u16 {
                let mut key = group.to_be_bytes().to_vec();
                key.extend_from_slice(&seq.to_be_bytes());
                t.insert(&key, b"posting").unwrap();
            }
        }
        assert_sound(&t);
        assert!(leaf_fill(&t) >= 0.9, "grouped: {}", leaf_fill(&t));
        assert_eq!(t.iter_all().unwrap().count(), 7 * 1500);
    }

    #[test]
    fn random_inserts_fill_no_worse_than_halving_did() {
        // xorshift-driven keys at the production page size, where a random
        // insert continues a "run" once in ~300 splits: the median split
        // this rule replaced left the same sequence at 0.65957, splitting
        // without first shifting into the right sibling at 0.66, shifting
        // right only over whole-key cells at 0.73, both ways at 0.87.
        let t = mem_tree(4096);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..150_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            t.insert(&(x as u32).to_be_bytes(), &i.to_le_bytes())
                .unwrap();
        }
        assert_sound(&t);
        assert!(leaf_fill(&t) >= 0.7288, "random: {:.6}", leaf_fill(&t));
    }

    #[test]
    fn a_cell_larger_than_what_moved_out_starts_the_right_leaf() {
        // How many small cells fill one leaf?
        let probe = mem_tree(256);
        let mut full = 0u32;
        while probe.pool.page_count() == 2 {
            probe.insert(&key_of(full * 2), b"").unwrap();
            full += 1;
        }
        full -= 1;
        // Fill a leaf, its last-but-one key arriving last; the key after
        // that one then continues a run, so the leaf is cut where it lands:
        // one small cell moves out.
        let late = full - 2;
        let filled = || {
            let t = mem_tree(256);
            for j in (0..full).filter(|&j| j != late) {
                t.insert(&key_of(j * 2), b"").unwrap();
            }
            t.insert(&key_of(late * 2), b"").unwrap();
            assert_eq!(t.pool.page_count(), 2, "one leaf, now full");
            t
        };
        let cells = |t: &BTree<MemStorage>, page| node::ncells(&t.pool.get(page).unwrap().read());
        // A cell larger than the one that moved out cannot end the left leaf.
        let (t, big) = (filled(), [7u8; 60]);
        t.insert(&key_of(late * 2 + 1), &big).unwrap();
        assert_sound(&t);
        assert_eq!(t.pool.page_count(), 4, "leaf split under a new root");
        assert_eq!((cells(&t, 1), cells(&t, 2)), (full as usize - 1, 2));
        assert_eq!(t.get_first(&key_of(late * 2 + 1)).unwrap().unwrap(), big);
        let keys: Vec<_> = t.iter_all().unwrap().map(|r| r.unwrap().0).collect();
        assert_eq!(keys.len(), full as usize + 1);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        // One that fits does.
        let t = filled();
        t.insert(&key_of(late * 2 + 1), b"").unwrap();
        assert_sound(&t);
        assert_eq!((cells(&t, 1), cells(&t, 2)), (full as usize, 1));
    }

    #[test]
    fn duplicates_straddling_a_split_are_all_found() {
        // A run of one key long enough to split several times at its end,
        // between neighbours on both sides.
        let t = mem_tree(256);
        t.insert(b"a", b"first").unwrap();
        t.insert(b"z", b"last").unwrap();
        for i in 0..300u32 {
            t.insert(b"dup", &i.to_le_bytes()).unwrap();
            if i % 50 == 0 {
                assert_sound(&t);
            }
        }
        assert_sound(&t);
        let all = t.get_all(b"dup").unwrap();
        assert_eq!(all.len(), 300);
        for (i, v) in all.iter().enumerate() {
            assert_eq!(v.as_slice(), (i as u32).to_le_bytes());
        }
        assert_eq!(t.get_all(b"a").unwrap(), vec![b"first".to_vec()]);
        assert_eq!(t.get_all(b"z").unwrap(), vec![b"last".to_vec()]);
        assert!(leaf_fill(&t) >= 0.9, "duplicates: {}", leaf_fill(&t));
    }

    #[test]
    fn persists_across_reopen() {
        let dir = std::env::temp_dir().join(format!("nok-btree-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.idx");
        {
            let storage = nok_pager::FileStorage::create_with_page_size(&path, 512).unwrap();
            let t = BTree::create(Arc::new(BufferPool::new(storage))).unwrap();
            for i in 0..200u32 {
                t.insert(&key_of(i), &i.to_le_bytes()).unwrap();
            }
            t.flush().unwrap();
        }
        {
            let storage = nok_pager::FileStorage::open(&path).unwrap();
            let t = BTree::open(Arc::new(BufferPool::new(storage))).unwrap();
            assert_eq!(t.len(), 200);
            assert_eq!(
                t.get_first(&key_of(123)).unwrap().unwrap(),
                123u32.to_le_bytes().to_vec()
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_tree_behaviour() {
        let t = mem_tree(256);
        assert!(t.is_empty());
        assert_eq!(t.get_first(b"x").unwrap(), None);
        assert_eq!(t.iter_all().unwrap().count(), 0);
        assert!(!t.delete(b"x", None).unwrap());
    }

    #[test]
    fn a_separator_equal_to_its_neighbours_keeps_its_place_in_a_parent_split() {
        // A long run of one key leaves every separator equal to it. Keys
        // just below the run then split the run's first leaf, whose tail
        // cells equal its upper fence: the new separator equals the others,
        // and the parents it lands in are full. Only its position, not its
        // key, says where it goes.
        let t = mem_tree(256);
        for i in 0..2000u32 {
            t.insert(b"h", &i.to_be_bytes()).unwrap();
        }
        for i in 0..2000u32 {
            t.insert(format!("g{i:04}").as_bytes(), b"").unwrap();
            if i % 20 == 0 {
                assert_sound(&t);
            }
        }
        assert_sound(&t);
        let all = t.get_all(b"h").unwrap();
        assert_eq!(all.len(), 2000);
        assert!(all
            .iter()
            .enumerate()
            .all(|(i, v)| v[..] == (i as u32).to_be_bytes()));
        assert_eq!(t.iter_all().unwrap().count(), 4000);
    }
}
