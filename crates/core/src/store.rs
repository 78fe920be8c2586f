//! The succinct structural store (paper §4.2).
//!
//! [`StructStore`] materializes the subject tree as the paper's string
//! representation over chained pages, and keeps the in-memory page-header
//! directory (`(st, lo, hi)` per page) that the paper proposes loading
//! up-front: "If we load the page headers to main memory, we only need
//! 21MB to 70MB" for a 10-billion-node tree. Header consultations therefore
//! cost no page I/O — only actual content access goes through the buffer
//! pool, which is what [`nok_pager::IoStats`] counts.

use std::collections::HashMap;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use nok_pager::local_cache::resolve_page_cached;
use nok_pager::mvcc::SnapView;
use nok_pager::{BufferPool, PageId, Storage};
use nok_xml::Event;

use crate::dewey::Dewey;
use crate::error::{CoreError, CoreResult};
use crate::page::{self, ContentAcc, DecodedPage, Entry, PageHeader, HEADER_SIZE, NO_PAGE};
use crate::sigma::{TagCode, TagDict};

/// Address of an entry in the structural store: a page and an entry index
/// within that page's decoded entry array. This is the `(p, o)` pair of the
/// paper's Algorithm 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeAddr {
    /// Page id.
    pub page: PageId,
    /// Entry index within the page.
    pub entry: u32,
}

impl fmt::Display for NodeAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.page, self.entry)
    }
}

/// The linear position of entry `entry` of the page at chain rank `rank`
/// (see [`StructStore::lin`]).
#[inline]
pub(crate) fn lin_at(rank: u32, entry: u32) -> u64 {
    ((rank as u64 + 1) << 32) | entry as u64
}

/// One record of the in-memory header directory, in chain (document) order.
#[derive(Debug, Clone, Copy)]
pub struct DirEntry {
    /// Page id.
    pub id: PageId,
    /// Header triple mirrored from the page.
    pub st: u16,
    /// Minimum level in the page.
    pub lo: u16,
    /// Maximum level in the page.
    pub hi: u16,
    /// Number of entries in the page (kept so empty pages can be skipped
    /// without I/O).
    pub entries: u32,
}

#[derive(Debug, Default, Clone)]
pub(crate) struct Directory {
    /// Directory entries in chain order.
    pub(crate) order: Vec<DirEntry>,
    /// page id -> rank in `order`.
    rank: HashMap<PageId, u32>,
}

impl Directory {
    fn rebuild_ranks(&mut self) {
        self.rank.clear();
        for (i, e) in self.order.iter().enumerate() {
            self.rank.insert(e.id, i as u32);
        }
    }
}

/// Level buckets in the directory skip index. Keys at or above the cap share
/// the last bucket and are verified individually — documents deeper than 63
/// levels pay a short verification scan there, everything else gets exact
/// buckets.
pub(crate) const SKIP_LEVEL_CAP: usize = 64;

/// Sentinel rank for "no such page".
const NO_RANK: u32 = u32::MAX;

/// A level-bucketed skip structure over the directory, answering "first rank
/// ≥ r whose page a navigation scan at level `l` must load" without walking
/// every directory entry. Built lazily from a directory snapshot, tagged
/// with the directory generation it was built at, and discarded wholesale on
/// any directory mutation (see [`StructStore::dir_mut`]).
///
/// Two key functions are indexed:
///
/// * **sibling key** `min(lo, st)` — a `FOLLOWING-SIBLING` scan at level `l`
///   loads the next page with `min(lo, st) < l`. This relaxes the strict
///   per-page test (`lo < l || st == l-1`, cursor module docs) without
///   changing which pages are actually loaded: a minimal next rank with
///   `st ≤ l-2` cannot exist mid-scan, because every page skipped since the
///   last loaded one has all entries at level ≥ l (so ends ≥ l), and the
///   last loaded page ended ≥ l-1 (the scan would have stopped otherwise) —
///   so the chain's running level, and hence `st`, never drops below l-1
///   between loads.
/// * **close key** `lo` — a subtree-close scan at level `l` loads the next
///   page with `lo < l`, exactly the linear walk's test.
#[derive(Debug)]
pub(crate) struct SkipIndex {
    /// Directory generation this index reflects.
    gen: u64,
    /// `next_nonempty[r]` = smallest rank ≥ r with entries, or [`NO_RANK`];
    /// one trailing sentinel slot so `r == len` is a valid probe.
    next_nonempty: Vec<u32>,
    /// Nonempty ranks bucketed by `min(lo, st)`, ascending within a bucket.
    sib_buckets: Vec<Vec<u32>>,
    /// Per-rank sibling key, for verifying candidates in the capped bucket.
    sib_keys: Vec<u16>,
    /// Nonempty ranks bucketed by `lo`, ascending within a bucket.
    close_buckets: Vec<Vec<u32>>,
    /// Per-rank close key, for verifying candidates in the capped bucket.
    close_keys: Vec<u16>,
}

impl SkipIndex {
    fn build(order: &[DirEntry], gen: u64) -> SkipIndex {
        let n = order.len();
        let mut next_nonempty = vec![NO_RANK; n + 1];
        let mut nxt = NO_RANK;
        for r in (0..n).rev() {
            if order[r].entries > 0 {
                nxt = r as u32;
            }
            next_nonempty[r] = nxt;
        }
        let mut sib_buckets = vec![Vec::new(); SKIP_LEVEL_CAP];
        let mut close_buckets = vec![Vec::new(); SKIP_LEVEL_CAP];
        let mut sib_keys = vec![0u16; n];
        let mut close_keys = vec![0u16; n];
        for (r, de) in order.iter().enumerate() {
            if de.entries == 0 {
                continue; // structurally empty pages never need loading
            }
            let sk = de.lo.min(de.st);
            let ck = de.lo;
            sib_keys[r] = sk;
            close_keys[r] = ck;
            sib_buckets[(sk as usize).min(SKIP_LEVEL_CAP - 1)].push(r as u32);
            close_buckets[(ck as usize).min(SKIP_LEVEL_CAP - 1)].push(r as u32);
        }
        SkipIndex {
            gen,
            next_nonempty,
            sib_buckets,
            sib_keys,
            close_buckets,
            close_keys,
        }
    }

    /// Smallest nonempty rank ≥ r, if any.
    pub(crate) fn next_nonempty(&self, r: u32) -> Option<u32> {
        match self.next_nonempty.get(r as usize) {
            Some(&v) if v != NO_RANK => Some(v),
            _ => None,
        }
    }

    /// Smallest rank ≥ r whose key is < l: minimum over the first hit of
    /// each bucket that can hold such keys. Buckets below the cap hold one
    /// exact key each; the capped bucket mixes keys ≥ cap-1 and verifies
    /// candidates against the per-rank key array. `probes` counts directory
    /// consultations (one per bucket search / verification step).
    fn next_admissible(
        buckets: &[Vec<u32>],
        keys: &[u16],
        r: u32,
        l: u16,
        probes: &mut u64,
    ) -> Option<u32> {
        let mut best: Option<u32> = None;
        let exact = (l as usize).min(SKIP_LEVEL_CAP - 1);
        for b in &buckets[..exact] {
            *probes += 1;
            let i = b.partition_point(|&x| x < r);
            if let Some(&cand) = b.get(i) {
                if best.is_none_or(|bst| cand < bst) {
                    best = Some(cand);
                }
            }
        }
        if l as usize > SKIP_LEVEL_CAP - 1 {
            let b = &buckets[SKIP_LEVEL_CAP - 1];
            let mut i = b.partition_point(|&x| x < r);
            while let Some(&cand) = b.get(i) {
                *probes += 1;
                if best.is_some_and(|bst| cand >= bst) {
                    break;
                }
                if keys.get(cand as usize).is_some_and(|&k| k < l) {
                    best = Some(cand);
                    break;
                }
                i += 1;
            }
        }
        best
    }

    /// First rank ≥ r a sibling scan at level `l` must load.
    pub(crate) fn next_sibling_page(&self, r: u32, l: u16, probes: &mut u64) -> Option<u32> {
        Self::next_admissible(&self.sib_buckets, &self.sib_keys, r, l, probes)
    }

    /// First rank ≥ r a subtree-close scan at level `l` must load.
    pub(crate) fn next_close_page(&self, r: u32, l: u16, probes: &mut u64) -> Option<u32> {
        Self::next_admissible(&self.close_buckets, &self.close_keys, r, l, probes)
    }
}

/// Write guard over the directory that keeps the generation protocol: odd
/// while a mutation is in flight, bumped back to even on drop. Derefs to
/// [`Directory`] so update paths use it exactly like the raw guard. The
/// directory sits behind an `Arc` shared with published MVCC generations;
/// the first mutation through the guard clones it (`Arc::make_mut`), so
/// pinned snapshots keep the pre-transaction directory untouched.
pub(crate) struct DirWriteGuard<'a> {
    guard: RwLockWriteGuard<'a, Arc<Directory>>,
    generation: &'a AtomicU64,
}

impl Deref for DirWriteGuard<'_> {
    type Target = Directory;
    fn deref(&self) -> &Directory {
        &self.guard
    }
}

impl DerefMut for DirWriteGuard<'_> {
    fn deref_mut(&mut self) -> &mut Directory {
        Arc::make_mut(&mut self.guard)
    }
}

impl Drop for DirWriteGuard<'_> {
    fn drop(&mut self) {
        // Odd (in flight) → next even (stable, new generation).
        self.generation.fetch_add(1, Ordering::AcqRel);
    }
}

/// Unwind protection for the window inside [`StructStore::dir_mut`] between
/// the opening generation bump (even → odd) and the construction of the
/// [`DirWriteGuard`] whose `Drop` performs the closing bump. A panic in that
/// window (lock-poison recovery, allocation failure, injected faults) would
/// otherwise leave the generation odd *forever*: every seqlock reader would
/// fail validation from then on, and the skip index could never be cached
/// again. This guard bumps back to the next even generation on unwind; the
/// directory is untouched at that point, so readers simply revalidate
/// against an unchanged snapshot.
struct GenRearm<'a>(Option<&'a AtomicU64>);

impl GenRearm<'_> {
    /// Hand responsibility for the closing bump to the `DirWriteGuard`.
    fn disarm(&mut self) {
        self.0 = None;
    }
}

impl Drop for GenRearm<'_> {
    fn drop(&mut self) {
        if let Some(generation) = self.0 {
            generation.fetch_add(1, Ordering::AcqRel);
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Test-only fault injection: make the next `dir_mut` call panic after
    /// the opening generation bump but before the write guard exists.
    pub(crate) static DIR_MUT_PANIC_AFTER_BUMP: std::cell::Cell<bool> =
        const { std::cell::Cell::new(false) };
}

/// Options controlling store construction.
#[derive(Debug, Clone, Copy)]
pub struct BuildOptions {
    /// Fraction of each page reserved for future updates (the paper's `r`;
    /// its running example uses 20%).
    pub reserve: f64,
    /// The structure page format, for reports: a type with one value, so
    /// there is nothing to choose.
    pub backend: page::Succinct,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            reserve: 0.2,
            backend: page::Succinct,
        }
    }
}

/// Metadata for one element node, emitted during building so callers can
/// construct the auxiliary indexes without a second pass.
#[derive(Debug, Clone)]
pub struct NodeRecord {
    /// Dewey id (derived during the build traversal, as the paper intends).
    pub dewey: Dewey,
    /// Tag code.
    pub tag: TagCode,
    /// Physical address of the node's open entry.
    pub addr: NodeAddr,
    /// Node level (root = 1).
    pub level: u16,
}

/// Receives node metadata and values during building.
pub trait BuildSink {
    /// Called for every element (and synthesized attribute) node, in document
    /// order.
    fn node(&mut self, rec: NodeRecord);
    /// Called when a node's value (direct text or attribute value) is known.
    fn value(&mut self, dewey: &Dewey, text: &str);
}

/// A sink that discards everything (structure-only builds).
impl BuildSink for () {
    fn node(&mut self, _rec: NodeRecord) {}
    fn value(&mut self, _dewey: &Dewey, _text: &str) {}
}

/// The paged string representation of one document's subject tree.
///
/// A store constructed with [`StructStore::snapshot_view`] is a read-only
/// *view* pinned to an MVCC generation: it shares the buffer pool but owns
/// the generation's directory `Arc`, a private decode cache and skip index,
/// and resolves every page read through the generation's before-image
/// overlay — so the seqlock revalidation of the live store is unnecessary
/// on the snapshot path (the view's directory never mutates).
pub struct StructStore<S: Storage> {
    pool: Arc<BufferPool<S>>,
    dir: RwLock<Arc<Directory>>,
    decoded: RwLock<HashMap<PageId, Arc<DecodedPage>>>,
    node_count: AtomicU64,
    /// Lazily built directory skip index; valid only while its generation
    /// matches `dir_generation`.
    skip: RwLock<Option<Arc<SkipIndex>>>,
    /// Directory generation: even = stable, odd = mutation in flight.
    dir_generation: AtomicU64,
    /// MVCC overlay for snapshot views; `None` on the live store.
    view: Option<SnapView>,
}

/// Decoded pages a store keeps before its decode cache clears wholesale.
const DECODE_CACHE_LIMIT: usize = 1024;

/// Recover the guard from a poisoned lock. The directory and decode cache
/// hold plain data that is re-validated on use, so a panicking thread (only
/// possible in tests) must not wedge every other query thread.
fn rd<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

fn wr<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

impl<S: Storage> StructStore<S> {
    /// Build a store from an event stream. Emits node metadata into `sink`.
    /// The pool must be empty.
    pub fn build<I, K>(
        pool: Arc<BufferPool<S>>,
        events: I,
        dict: &mut TagDict,
        opts: BuildOptions,
        sink: &mut K,
    ) -> CoreResult<Self>
    where
        I: IntoIterator<Item = nok_xml::XmlResult<Event>>,
        K: BuildSink,
    {
        debug_assert_eq!(pool.page_count(), 0, "build needs an empty pool");
        let page_size = pool.page_size();
        let budget = (((page_size - HEADER_SIZE) as f64) * (1.0 - opts.reserve.clamp(0.0, 0.9)))
            .floor() as usize;
        let budget = budget.max(3); // always fit at least one node

        let mut builder = Builder {
            pool: &pool,
            dir: Directory::default(),
            budget,
            cur: PageBuf::new(0),
            cur_allocated: false,
            node_count: 0,
        };

        // Traversal state.
        let mut child_counters: Vec<u32> = Vec::new(); // per open element
        let mut text_stack: Vec<String> = Vec::new();
        let mut dewey_path: Vec<u32> = Vec::new();

        for ev in events {
            match ev? {
                Event::Start { name, attrs } => {
                    let tag = dict.intern(&name);
                    let index = match child_counters.last_mut() {
                        Some(c) => {
                            let i = *c;
                            *c += 1;
                            i
                        }
                        None => 0,
                    };
                    dewey_path.push(index);
                    let dewey = Dewey::from_slice(&dewey_path);
                    let level = dewey_path.len() as u16;
                    let addr = builder.append(Entry::Open(tag), level)?;
                    sink.node(NodeRecord {
                        dewey: dewey.clone(),
                        tag,
                        addr,
                        level,
                    });
                    child_counters.push(0);
                    text_stack.push(String::new());
                    // Attributes become leading children tagged `@name`.
                    for attr in &attrs {
                        let atag = dict.intern_attr(&attr.name);
                        let aindex = {
                            let c = child_counters.last_mut().ok_or_else(|| {
                                CoreError::Corrupt("attribute outside an open element".into())
                            })?;
                            let i = *c;
                            *c += 1;
                            i
                        };
                        let adewey = dewey.child(aindex);
                        let alevel = level + 1;
                        let aaddr = builder.append(Entry::Open(atag), alevel)?;
                        builder.append(Entry::Close, level)?;
                        sink.node(NodeRecord {
                            dewey: adewey.clone(),
                            tag: atag,
                            addr: aaddr,
                            level: alevel,
                        });
                        sink.value(&adewey, &attr.value);
                    }
                }
                Event::Text(t) => {
                    if let Some(buf) = text_stack.last_mut() {
                        buf.push_str(&t);
                    }
                }
                Event::End { .. } => {
                    let level = dewey_path.len() as u16;
                    builder.append(Entry::Close, level.saturating_sub(1))?;
                    let text = text_stack.pop().unwrap_or_default();
                    if !text.trim().is_empty() {
                        let dewey = Dewey::from_slice(&dewey_path);
                        sink.value(&dewey, &text);
                    }
                    child_counters.pop();
                    dewey_path.pop();
                }
                Event::Comment(_) | Event::ProcessingInstruction { .. } => {}
            }
        }
        builder.finish()?;
        let Builder {
            mut dir,
            node_count,
            ..
        } = builder;
        dir.rebuild_ranks();
        Ok(Self::assemble(pool, Arc::new(dir), node_count, None))
    }

    /// Open a store whose pages already exist in `pool`, rebuilding the
    /// in-memory header directory by walking the chain.
    pub fn open(pool: Arc<BufferPool<S>>) -> CoreResult<Self> {
        let mut dir = Directory::default();
        let mut node_count = 0u64;
        if pool.page_count() > 0 {
            let mut pid = 0u32;
            loop {
                let handle = pool.get(pid)?;
                let checked = page::check_page(&handle.read())
                    .ok_or_else(|| CoreError::Corrupt(format!("bad structural page {pid}")))?;
                node_count += checked.opens;
                let (lo, hi) = (checked.header.lo, checked.header.hi);
                dir.order.push(DirEntry {
                    id: pid,
                    st: checked.header.st,
                    lo,
                    hi,
                    entries: checked.entries as u32,
                });
                if checked.header.next == NO_PAGE {
                    break;
                }
                pid = checked.header.next;
            }
        }
        dir.rebuild_ranks();
        Ok(Self::assemble(pool, Arc::new(dir), node_count, None))
    }

    fn assemble(
        pool: Arc<BufferPool<S>>,
        dir: Arc<Directory>,
        node_count: u64,
        view: Option<SnapView>,
    ) -> Self {
        StructStore {
            pool,
            dir: RwLock::new(dir),
            decoded: RwLock::new(HashMap::new()),
            node_count: AtomicU64::new(node_count),
            skip: RwLock::new(None),
            dir_generation: AtomicU64::new(0),
            view,
        }
    }

    /// A read-only view of this store pinned to an MVCC generation: shares
    /// the pool, owns the generation's directory and node count, and
    /// resolves page reads through `view`'s overlay.
    pub(crate) fn snapshot_view(
        pool: Arc<BufferPool<S>>,
        dir: Arc<Directory>,
        node_count: u64,
        view: SnapView,
    ) -> Self {
        Self::assemble(pool, dir, node_count, Some(view))
    }

    /// Is this store a snapshot view (reads resolve through an overlay)?
    pub fn is_view(&self) -> bool {
        self.view.is_some()
    }

    /// The current directory `Arc` (captured into MVCC generations at
    /// commit — O(1), no deep copy).
    pub(crate) fn dir_arc(&self) -> Arc<Directory> {
        Arc::clone(&rd(&self.dir))
    }

    /// The buffer pool (exposes I/O statistics).
    pub fn pool(&self) -> &BufferPool<S> {
        &self.pool
    }

    /// A shared handle to the backing pool (for transaction scoping).
    pub fn pool_rc(&self) -> Arc<BufferPool<S>> {
        Arc::clone(&self.pool)
    }

    /// Rebuild the in-memory directory, node count, decode cache and skip
    /// index from storage, exactly as [`StructStore::open`] does. Called
    /// after a rollback discarded this store's dirty frames: the in-memory
    /// views may reflect the undone mutation.
    pub fn reload(&self) -> CoreResult<()> {
        let fresh = StructStore::open(Arc::clone(&self.pool))?;
        *wr(&self.dir) = fresh.dir.into_inner().unwrap_or_else(|e| e.into_inner());
        wr(&self.decoded).clear();
        *wr(&self.skip) = None;
        self.node_count
            .store(fresh.node_count.load(Ordering::Acquire), Ordering::Release);
        self.dir_generation.fetch_add(2, Ordering::AcqRel);
        Ok(())
    }

    /// Number of element nodes in the store.
    pub fn node_count(&self) -> u64 {
        self.node_count.load(Ordering::Acquire)
    }

    /// Number of structural pages.
    pub fn page_count(&self) -> u32 {
        rd(&self.dir).order.len() as u32
    }

    /// Total footprint in bytes (pages × page size), the on-disk size.
    pub fn footprint_bytes(&self) -> u64 {
        self.page_count() as u64 * self.pool.page_size() as u64
    }

    /// Encoded structure bytes actually occupied on disk — the measured
    /// |tree| of Table 1: the sum of every page's `nbytes` plus its header
    /// (the paper's accounting would be `3 × node_count`). Header reads
    /// only; contents are not decoded.
    pub fn structure_bytes(&self) -> CoreResult<u64> {
        let dir = rd(&self.dir);
        let mut total = 0u64;
        for de in &dir.order {
            let handle = self.pool.get(de.id)?;
            let header = page::read_header(&handle.read())
                .ok_or_else(|| CoreError::Corrupt(format!("bad structural page {}", de.id)))?;
            total += HEADER_SIZE as u64 + header.nbytes as u64;
        }
        Ok(total)
    }

    /// Address of the root node, or `None` for an empty store.
    pub fn root(&self) -> Option<NodeAddr> {
        let dir = rd(&self.dir);
        let first = dir.order.iter().find(|e| e.entries > 0)?;
        Some(NodeAddr {
            page: first.id,
            entry: 0,
        })
    }

    /// Rank of `page` in the chain (document order of pages). A page id
    /// that is not part of the chain means the directory and the store have
    /// diverged — reported as corruption, never as a panic.
    #[inline]
    pub fn rank(&self, page: PageId) -> CoreResult<u32> {
        rd(&self.dir)
            .rank
            .get(&page)
            .copied()
            .ok_or_else(|| CoreError::Corrupt(format!("page {page} not in chain directory")))
    }

    /// Directory entry at chain rank `r`, if any.
    #[inline]
    pub fn dir_at(&self, r: u32) -> Option<DirEntry> {
        rd(&self.dir).order.get(r as usize).copied()
    }

    /// Number of chained pages (== `page_count`).
    pub fn chain_len(&self) -> u32 {
        rd(&self.dir).order.len() as u32
    }

    /// Linear position of an address: document order as a single `u64`
    /// (`(rank+1) * 2^32 + entry`). This is the paper's `p·C + o` quantity
    /// used as the interval endpoint for structural joins. Ranks are offset
    /// by one so every real position is strictly greater than 0, letting the
    /// virtual document node own the open interval `(0, u64::MAX)`.
    #[inline]
    pub fn lin(&self, addr: NodeAddr) -> CoreResult<u64> {
        Ok(lin_at(self.rank(addr.page)?, addr.entry))
    }

    /// Fetch and decode a page (cached). The cache is shared across query
    /// threads; a racing double-decode of the same page is harmless (both
    /// results are identical, the second insert wins).
    pub fn decoded(&self, id: PageId) -> CoreResult<Arc<DecodedPage>> {
        if let Some(p) = rd(&self.decoded).get(&id) {
            return Ok(Arc::clone(p));
        }
        let page = match &self.view {
            // Snapshot view: resolve through the generation's overlay (the
            // private decode cache above makes the copy a one-time cost).
            Some(view) => {
                let bytes = resolve_page_cached(&self.pool, view, id)?;
                page::decode_page(&bytes)
            }
            None => page::decode_page(&self.pool.get(id)?.read()),
        }
        .ok_or_else(|| CoreError::Corrupt(format!("bad structural page {id}")))?;
        let arc = Arc::new(page);
        let mut cache = wr(&self.decoded);
        if cache.len() >= DECODE_CACHE_LIMIT {
            cache.clear();
        }
        cache.insert(id, Arc::clone(&arc));
        Ok(arc)
    }

    /// Drop cached decodes (all pages, or one).
    pub fn invalidate_decoded(&self, id: Option<PageId>) {
        match id {
            Some(id) => {
                wr(&self.decoded).remove(&id);
            }
            None => wr(&self.decoded).clear(),
        }
    }

    /// The entry and its level at `addr`.
    #[inline]
    pub fn entry_at(&self, addr: NodeAddr) -> CoreResult<(Entry, u16)> {
        let page = self.decoded(addr.page)?;
        let i = addr.entry as usize;
        if i >= page.len() {
            return Err(CoreError::Corrupt(format!(
                "entry index {} out of range in page {}",
                addr.entry, addr.page
            )));
        }
        Ok((page.entry(i), page.level(i)))
    }

    /// Tag code at `addr` (must be an open entry).
    #[inline]
    pub fn tag_at(&self, addr: NodeAddr) -> CoreResult<TagCode> {
        match self.entry_at(addr)? {
            (Entry::Open(t), _) => Ok(t),
            (Entry::Close, _) => Err(CoreError::Corrupt(format!("expected open entry at {addr}"))),
        }
    }

    /// Level at `addr`.
    #[inline]
    pub fn level_at(&self, addr: NodeAddr) -> CoreResult<u16> {
        Ok(self.entry_at(addr)?.1)
    }

    /// The directory skip index for the current generation, building it on
    /// first use after any directory mutation. When a mutation is in flight
    /// (odd generation — theoretical, updates take `&mut`), the freshly
    /// built index is still returned for this caller (it reflects the
    /// directory snapshot read under the lock) but is not cached.
    pub(crate) fn skip_index(&self) -> Arc<SkipIndex> {
        let g0 = self.dir_generation.load(Ordering::Acquire);
        if g0 & 1 == 0 {
            if let Some(idx) = rd(&self.skip).as_ref() {
                if idx.gen == g0 {
                    return Arc::clone(idx);
                }
            }
        }
        let idx = {
            let dir = rd(&self.dir);
            Arc::new(SkipIndex::build(&dir.order, g0))
        };
        // Publish only if no mutation started since the snapshot was taken.
        if g0 & 1 == 0 && self.dir_generation.load(Ordering::Acquire) == g0 {
            *wr(&self.skip) = Some(Arc::clone(&idx));
        }
        idx
    }

    // ---- update support (used by crate::update) ----

    pub(crate) fn dir_mut(&self) -> DirWriteGuard<'_> {
        // Mark the generation in flight (odd) and drop the cached skip
        // index *before* taking the write lock, so a builder racing past
        // the lock can never cache an index for the pre-mutation directory
        // under the post-mutation generation.
        self.dir_generation.fetch_add(1, Ordering::AcqRel);
        // From here until the DirWriteGuard exists, the closing bump has no
        // owner — GenRearm restores an even generation if anything below
        // unwinds (see its docs; regression-tested with injected panics).
        let mut rearm = GenRearm(Some(&self.dir_generation));

        #[cfg(test)]
        DIR_MUT_PANIC_AFTER_BUMP.with(|f| {
            if f.replace(false) {
                // analyze: allow(hot-path-panic): injected failpoint, compiled only under cfg(test)
                panic!("injected: dir_mut unwound before arming the write guard");
            }
        });

        *wr(&self.skip) = None;
        let guard = wr(&self.dir);
        rearm.disarm();
        DirWriteGuard {
            guard,
            generation: &self.dir_generation,
        }
    }

    pub(crate) fn bump_node_count(&self, delta: i64) {
        let cur = self.node_count.load(Ordering::Acquire) as i64;
        self.node_count
            .store((cur + delta).max(0) as u64, Ordering::Release);
    }
}

impl Directory {
    pub(crate) fn insert_after(&mut self, after: PageId, entry: DirEntry) -> CoreResult<()> {
        let pos = *self
            .rank
            .get(&after)
            .ok_or_else(|| CoreError::Corrupt(format!("page {after} not in chain directory")))?
            as usize;
        self.order.insert(pos + 1, entry);
        self.rebuild_ranks();
        Ok(())
    }

    pub(crate) fn update_entry(
        &mut self,
        id: PageId,
        f: impl FnOnce(&mut DirEntry),
    ) -> CoreResult<()> {
        let pos = *self
            .rank
            .get(&id)
            .ok_or_else(|| CoreError::Corrupt(format!("page {id} not in chain directory")))?
            as usize;
        f(&mut self.order[pos]);
        Ok(())
    }
}

/// Incremental page writer used by [`StructStore::build`]. Entries are
/// buffered (with running [`ContentAcc`] size accounting, so page breaks
/// are byte-exact) and encoded once at seal time.
struct PageBuf {
    id: PageId,
    st: u16,
    entries_buf: Vec<Entry>,
    acc: ContentAcc,
    lo: u16,
    hi: u16,
    last_level: u16,
}

impl PageBuf {
    fn new(st: u16) -> Self {
        PageBuf {
            id: 0,
            st,
            entries_buf: Vec::new(),
            acc: ContentAcc::new(),
            lo: u16::MAX,
            hi: 0,
            last_level: st,
        }
    }
}

struct Builder<'a, S: Storage> {
    pool: &'a Arc<BufferPool<S>>,
    dir: Directory,
    budget: usize,
    cur: PageBuf,
    cur_allocated: bool,
    node_count: u64,
}

impl<S: Storage> Builder<'_, S> {
    /// Append one entry, sealing the current page first if it is full.
    /// Returns the address of the appended entry.
    fn append(&mut self, entry: Entry, level: u16) -> CoreResult<NodeAddr> {
        if !self.cur_allocated {
            let (id, _) = self.pool.allocate()?;
            self.cur.id = id;
            self.cur_allocated = true;
        }
        if self.cur.acc.bytes_with(entry) > self.budget && !self.cur.entries_buf.is_empty() {
            let (next_id, _) = self.pool.allocate()?;
            self.seal(next_id)?;
            let st = self.cur.last_level;
            let mut fresh = PageBuf::new(st);
            fresh.id = next_id;
            self.cur = fresh;
        }
        let idx = self.cur.entries_buf.len() as u32;
        self.cur.entries_buf.push(entry);
        self.cur.acc.add(entry);
        self.cur.lo = self.cur.lo.min(level);
        self.cur.hi = self.cur.hi.max(level);
        self.cur.last_level = level;
        if entry.is_open() {
            self.node_count += 1;
        }
        Ok(NodeAddr {
            page: self.cur.id,
            entry: idx,
        })
    }

    fn seal(&mut self, next: PageId) -> CoreResult<()> {
        let content = page::encode_content(&self.cur.entries_buf);
        let n_entries = self.cur.entries_buf.len() as u32;
        // Sealed pages must satisfy the format invariants nok-verify
        // checks: content within the capacity budget and coherent bounds.
        debug_assert!(
            content.len() <= self.budget || n_entries <= 1,
            "page {} seals over budget: {} > {}",
            self.cur.id,
            content.len(),
            self.budget
        );
        debug_assert!(
            n_entries == 0 || self.cur.lo <= self.cur.hi,
            "page {} seals with inverted bounds [{}, {}]",
            self.cur.id,
            self.cur.lo,
            self.cur.hi
        );
        let handle = self.pool.get(self.cur.id)?;
        // Empty pages take the canonical sentinel bounds AND sentinel st
        // (page::EMPTY_PAGE_ST): they have no start level to report.
        let (st, lo) = if n_entries == 0 {
            (page::EMPTY_PAGE_ST, u16::MAX)
        } else {
            (self.cur.st, self.cur.lo)
        };
        let header = PageHeader {
            st,
            lo,
            hi: self.cur.hi,
            next,
            nbytes: content.len() as u16,
        };
        {
            let mut buf = handle.write();
            page::write_header(&mut buf, &header);
            buf[HEADER_SIZE..HEADER_SIZE + content.len()].copy_from_slice(&content);
        }
        self.dir.order.push(DirEntry {
            id: self.cur.id,
            st,
            lo,
            hi: self.cur.hi,
            entries: n_entries,
        });
        Ok(())
    }

    fn finish(&mut self) -> CoreResult<()> {
        if !self.cur_allocated {
            // Empty document: still materialize one empty page so `open`
            // has a chain head.
            let (id, _) = self.pool.allocate()?;
            self.cur.id = id;
            self.cur_allocated = true;
        }
        self.seal(NO_PAGE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nok_pager::MemStorage;
    use nok_xml::Reader;

    pub(crate) fn mem_store(xml: &str, page_size: usize) -> (StructStore<MemStorage>, TagDict) {
        let pool = Arc::new(BufferPool::new(MemStorage::with_page_size(page_size)));
        let mut dict = TagDict::new();
        let store = StructStore::build(
            pool,
            Reader::content_only(xml),
            &mut dict,
            BuildOptions::default(),
            &mut (),
        )
        .unwrap();
        (store, dict)
    }

    #[test]
    fn tiny_document_layout() {
        let (store, dict) = mem_store("<a><b/><c/></a>", 4096);
        assert_eq!(store.node_count(), 3);
        assert_eq!(store.page_count(), 1);
        let root = store.root().unwrap();
        assert_eq!(store.tag_at(root).unwrap(), dict.lookup("a").unwrap());
        assert_eq!(store.level_at(root).unwrap(), 1);
        // Entries: a b ) c ) ) -> 6 entries.
        let page = store.decoded(root.page).unwrap();
        assert_eq!(page.len(), 6);
        assert_eq!(page.levels().collect::<Vec<_>>(), vec![1, 2, 1, 2, 1, 0]);
    }

    #[test]
    fn attributes_become_leading_children() {
        let (store, dict) = mem_store(r#"<a x="1"><b/></a>"#, 4096);
        assert_eq!(store.node_count(), 3); // a, @x, b
        let page = store.decoded(0).unwrap();
        // a @x ) b ) )
        assert_eq!(page.entry(1), Entry::Open(dict.lookup("@x").unwrap()));
        assert_eq!(page.levels().collect::<Vec<_>>(), vec![1, 2, 1, 2, 1, 0]);
    }

    #[test]
    fn multi_page_build_chains_and_sets_st() {
        // Page size 64: budget = (64-12)*0.8 = 41 bytes -> ~31 nodes worth.
        let mut xml = String::from("<r>");
        for i in 0..100 {
            xml.push_str(&format!("<e{}/>", i % 10));
        }
        xml.push_str("</r>");
        let (store, _) = mem_store(&xml, 64);
        assert!(store.page_count() > 2, "should span several pages");
        assert_eq!(store.node_count(), 101);
        // Walk the chain; st of each page must equal end level of previous.
        let mut prev_end: u16 = 0;
        for r in 0..store.chain_len() {
            let de = store.dir_at(r).unwrap();
            let page = store.decoded(de.id).unwrap();
            assert_eq!(page.header.st, prev_end, "st mismatch at rank {r}");
            assert_eq!(
                (page.header.lo, page.header.hi),
                page.level_bounds(),
                "lo/hi mismatch at rank {r}"
            );
            prev_end = page.end_level();
        }
        assert_eq!(prev_end, 0, "document must close back to level 0");
    }

    #[test]
    fn sink_receives_nodes_and_values() {
        struct Collect {
            nodes: Vec<(String, String, u16)>,
            values: Vec<(String, String)>,
            dict_snapshot: Vec<String>,
        }
        impl BuildSink for Collect {
            fn node(&mut self, rec: NodeRecord) {
                self.nodes
                    .push((rec.dewey.to_string(), format!("{}", rec.tag.0), rec.level));
            }
            fn value(&mut self, dewey: &Dewey, text: &str) {
                self.values.push((dewey.to_string(), text.to_string()));
            }
        }
        let pool = Arc::new(BufferPool::new(MemStorage::new()));
        let mut dict = TagDict::new();
        let mut sink = Collect {
            nodes: vec![],
            values: vec![],
            dict_snapshot: vec![],
        };
        let xml = r#"<bib><book year="1994"><title>TCP/IP</title></book></bib>"#;
        let _store = StructStore::build(
            pool,
            Reader::content_only(xml),
            &mut dict,
            BuildOptions::default(),
            &mut sink,
        )
        .unwrap();
        sink.dict_snapshot = dict.iter().map(|(_, n)| n.to_string()).collect();
        // Nodes in document order: bib(0), book(0.0), @year(0.0.0), title(0.0.1)
        let deweys: Vec<_> = sink.nodes.iter().map(|(d, _, _)| d.as_str()).collect();
        assert_eq!(deweys, vec!["0", "0.0", "0.0.0", "0.0.1"]);
        let levels: Vec<_> = sink.nodes.iter().map(|(_, _, l)| *l).collect();
        assert_eq!(levels, vec![1, 2, 3, 3]);
        // Values: @year then title (in close order).
        assert_eq!(
            sink.values,
            vec![
                ("0.0.0".to_string(), "1994".to_string()),
                ("0.0.1".to_string(), "TCP/IP".to_string()),
            ]
        );
    }

    #[test]
    fn whitespace_only_text_is_not_a_value() {
        struct Vals(Vec<String>);
        impl BuildSink for Vals {
            fn node(&mut self, _r: NodeRecord) {}
            fn value(&mut self, _d: &Dewey, t: &str) {
                self.0.push(t.to_string());
            }
        }
        let pool = Arc::new(BufferPool::new(MemStorage::new()));
        let mut dict = TagDict::new();
        let mut sink = Vals(vec![]);
        StructStore::build(
            pool,
            Reader::content_only("<a>\n  <b>x</b>\n</a>"),
            &mut dict,
            BuildOptions::default(),
            &mut sink,
        )
        .unwrap();
        assert_eq!(sink.0, vec!["x".to_string()]);
    }

    #[test]
    fn open_rebuilds_directory() {
        let mut xml = String::from("<r>");
        for _ in 0..50 {
            xml.push_str("<x><y/></x>");
        }
        xml.push_str("</r>");
        let pool = Arc::new(BufferPool::new(MemStorage::with_page_size(64)));
        let mut dict = TagDict::new();
        let store = StructStore::build(
            Arc::clone(&pool),
            Reader::content_only(&xml),
            &mut dict,
            BuildOptions::default(),
            &mut (),
        )
        .unwrap();
        let pages = store.page_count();
        let nodes = store.node_count();
        drop(store);
        let store2 = StructStore::open(pool).unwrap();
        assert_eq!(store2.page_count(), pages);
        assert_eq!(store2.node_count(), nodes);
        assert_eq!(store2.root(), Some(NodeAddr { page: 0, entry: 0 }));
    }

    #[test]
    fn lin_is_document_order() {
        let mut xml = String::from("<r>");
        for _ in 0..60 {
            xml.push_str("<x/>");
        }
        xml.push_str("</r>");
        let (store, _) = mem_store(&xml, 64);
        // Collect all open entries in chain order and check lin monotone.
        let mut lins = Vec::new();
        for r in 0..store.chain_len() {
            let de = store.dir_at(r).unwrap();
            let page = store.decoded(de.id).unwrap();
            for (i, e) in page.entries().enumerate() {
                if e.is_open() {
                    lins.push(
                        store
                            .lin(NodeAddr {
                                page: de.id,
                                entry: i as u32,
                            })
                            .unwrap(),
                    );
                }
            }
        }
        assert_eq!(lins.len(), 61);
        assert!(lins.windows(2).all(|w| w[0] < w[1]));
    }

    /// The skip index must agree with a linear directory walk for both key
    /// functions at every (rank, level), including levels past the bucket
    /// cap (the verification branch).
    #[test]
    fn skip_index_agrees_with_linear_directory_walk() {
        // Deep nested chain (depth 80 > SKIP_LEVEL_CAP) plus wide tail.
        let mut xml = String::new();
        for i in 0..80 {
            xml.push_str(&format!("<d{i}>"));
        }
        for i in (0..80).rev() {
            xml.push_str(&format!("</d{i}>"));
        }
        let xml = format!("<r>{xml}<y/><z/>{}</r>", "<x/>".repeat(100));
        let (store, _) = mem_store(&xml, 64);
        assert!(store.page_count() > 4);
        let skip = store.skip_index();
        for l in [1u16, 2, 3, 5, 50, 63, 64, 65, 70, 81, 90] {
            for r in 0..=store.chain_len() {
                let linear = |admit: &dyn Fn(&DirEntry) -> bool| {
                    (r..store.chain_len())
                        .find(|&rr| store.dir_at(rr).map(|de| admit(&de)).unwrap_or(false))
                };
                let mut probes = 0u64;
                assert_eq!(
                    skip.next_sibling_page(r, l, &mut probes),
                    linear(&|de| de.entries > 0 && de.lo.min(de.st) < l),
                    "sibling r={r} l={l}"
                );
                assert_eq!(
                    skip.next_close_page(r, l, &mut probes),
                    linear(&|de| de.entries > 0 && de.lo < l),
                    "close r={r} l={l}"
                );
                assert_eq!(
                    skip.next_nonempty(r),
                    linear(&|de| de.entries > 0),
                    "nonempty r={r}"
                );
            }
        }
    }

    /// `dir_mut` must invalidate the cached skip index and advance the
    /// generation back to even when the guard drops.
    #[test]
    fn skip_index_invalidated_by_directory_mutation() {
        let (store, _) = mem_store("<a><b/><c/></a>", 4096);
        let idx1 = store.skip_index();
        assert!(
            Arc::ptr_eq(&idx1, &store.skip_index()),
            "stable directory must reuse the cached index"
        );
        assert_eq!(idx1.gen, 0);
        drop(store.dir_mut()); // a (no-op) mutation window
        let idx2 = store.skip_index();
        assert!(
            !Arc::ptr_eq(&idx1, &idx2),
            "mutation must discard the cached index"
        );
        assert_eq!(idx2.gen, 2, "generation advances by 2 per mutation");
        assert!(Arc::ptr_eq(&idx2, &store.skip_index()));
    }

    /// A panic inside `dir_mut` *between* the opening generation bump and
    /// the construction of the write guard must not strand the generation
    /// at an odd value: `GenRearm` bumps it back to even on unwind, and the
    /// store keeps working (readers validate, mutations reopen).
    #[test]
    fn dir_mut_panic_before_guard_leaves_generation_even() {
        let (store, _) = mem_store("<a><b/><c/></a>", 4096);
        let g0 = store.dir_generation.load(Ordering::Acquire);
        assert_eq!(g0 & 1, 0);

        DIR_MUT_PANIC_AFTER_BUMP.with(|f| f.set(true));
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = store.dir_mut();
        }));
        assert!(unwound.is_err(), "injected panic must fire");

        let g1 = store.dir_generation.load(Ordering::Acquire);
        assert_eq!(g1 & 1, 0, "generation must be even after the unwind");
        assert!(g1 > g0, "the aborted window still advances the generation");

        // The store remains fully usable: readers cache again and a real
        // mutation window opens and closes normally.
        let idx = store.skip_index();
        assert!(Arc::ptr_eq(&idx, &store.skip_index()));
        drop(store.dir_mut());
        assert_eq!(store.dir_generation.load(Ordering::Acquire) & 1, 0);
    }

    /// §4.2: "the string representation of the tree structure is only about
    /// 1/20 to 1/100 of the size of the XML document."
    #[test]
    fn string_rep_is_a_small_fraction_of_document() {
        let mut xml = String::from("<bib>");
        for i in 0..500 {
            xml.push_str(&format!(
                "<book year=\"{}\"><title>Title number {i} of this library</title>\
                 <author><last>Lastname{i}</last><first>First{i}</first></author>\
                 <publisher>Some Publishing House {i}</publisher>\
                 <price>{}.95</price></book>",
                1900 + i % 100,
                10 + i % 90
            ));
        }
        xml.push_str("</bib>");
        let (store, _) = mem_store(&xml, 4096);
        let ratio = xml.len() as f64 / store.structure_bytes().unwrap() as f64;
        assert!(
            ratio > 8.0,
            "string rep should be far smaller than the document (ratio {ratio:.1})"
        );
    }

    /// Flatten a store's pages into one (entry, level) sequence.
    fn flat_entries(store: &StructStore<MemStorage>) -> Vec<(Entry, u16)> {
        let mut out = Vec::new();
        for r in 0..store.chain_len() {
            let de = store.dir_at(r).unwrap();
            let page = store.decoded(de.id).unwrap();
            out.extend(page.entries().zip(page.levels()));
        }
        out
    }

    /// The entry sequence a document must encode to, straight from the
    /// event stream: the page-free oracle for [`flat_entries`].
    fn expected_entries(xml: &str, dict: &TagDict) -> Vec<(Entry, u16)> {
        let mut out = Vec::new();
        let mut level = 0u16;
        for ev in Reader::content_only(xml) {
            match ev.unwrap() {
                Event::Start { name, attrs } => {
                    level += 1;
                    out.push((Entry::Open(dict.lookup(&name).unwrap()), level));
                    for a in &attrs {
                        let tag = dict.lookup(&format!("@{}", a.name)).unwrap();
                        out.push((Entry::Open(tag), level + 1));
                        out.push((Entry::Close, level));
                    }
                }
                Event::End { .. } => {
                    level -= 1;
                    out.push((Entry::Close, level));
                }
                _ => {}
            }
        }
        out
    }

    #[test]
    fn succinct_build_encodes_the_same_tree_smaller() {
        let mut xml = String::from("<r>");
        for i in 0..120 {
            xml.push_str(&format!("<e{} k=\"v\"><f/></e{}>", i % 10, i % 10));
        }
        xml.push_str("</r>");
        for page_size in [64usize, 256, 4096] {
            let (store, dict) = mem_store(&xml, page_size);
            assert_eq!(store.node_count(), 361);
            assert_eq!(
                flat_entries(&store),
                expected_entries(&xml, &dict),
                "page_size {page_size}"
            );
            // Headers included, the chain stays under the paper's 3 B/node
            // of content alone — under half of it once pages are not tiny.
            let bytes = store.structure_bytes().unwrap();
            let paper = 3 * store.node_count();
            assert!(
                bytes < paper,
                "{bytes} B vs {paper} B (page_size {page_size})"
            );
            if page_size >= 256 {
                assert!(bytes * 2 <= paper, "{bytes} B vs {paper} B");
            }
            // Chain invariants hold page by page.
            let mut prev_end = 0u16;
            for r in 0..store.chain_len() {
                let de = store.dir_at(r).unwrap();
                let page = store.decoded(de.id).unwrap();
                assert_eq!(page.header.st, prev_end);
                assert_eq!((page.header.lo, page.header.hi), page.level_bounds());
                assert_eq!(page.bp.len(), page.len());
                prev_end = page.end_level();
            }
        }
    }

    /// The size gate, as an exact count: `nav_bench`'s deep/wide corpus (300
    /// siblings, each a 100-deep chain) at 256-byte pages takes at most half
    /// the paper's 3 bytes per node, page headers included.
    #[test]
    fn deepwide_structure_is_at_most_half_the_papers_three_bytes_per_node() {
        let mut xml = String::from("<r>");
        for _ in 0..300 {
            xml.push_str("<s>");
            xml.push_str(&"<d>".repeat(100));
            xml.push_str(&"</d>".repeat(100));
            xml.push_str("</s>");
        }
        xml.push_str("</r>");
        let (store, _) = mem_store(&xml, 256);
        assert_eq!(store.node_count(), 30_301);
        let bytes = store.structure_bytes().unwrap();
        assert!(
            bytes * 2 <= 3 * store.node_count(),
            "{bytes} B for {} nodes",
            store.node_count()
        );
    }

    #[test]
    fn succinct_store_reopens_with_matching_backend() {
        // Reopening decodes every page again: same chain, same entries.
        let mut xml = String::from("<r>");
        for _ in 0..50 {
            xml.push_str("<x><y/></x>");
        }
        xml.push_str("</r>");
        let (store, dict) = mem_store(&xml, 64);
        let (pages, nodes) = (store.page_count(), store.node_count());
        assert!(pages > 2);
        let pool = store.pool_rc();
        drop(store);
        let store2 = StructStore::open(pool).unwrap();
        assert_eq!(store2.page_count(), pages);
        assert_eq!(store2.node_count(), nodes);
        assert_eq!(flat_entries(&store2), expected_entries(&xml, &dict));
    }
}
