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

use nok_pager::mvcc::{resolve_page, SnapView};
use nok_pager::{BufferPool, PageId, Storage};
use nok_xml::Event;

use crate::dewey::Dewey;
use crate::error::{CoreError, CoreResult};
use crate::page::{self, ContentAcc, Entry, Page, PageHeader, HEADER_SIZE, NO_PAGE};
use crate::sigma::{TagCode, TagDict};

/// Address of an entry in the structural store: a page and an entry index
/// within that page. This is the `(p, o)` pair of the paper's Algorithm 2.
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
    /// Of those, the opens: what fixes the width of the page's tag codes
    /// (see [`page::Page::counted`]).
    pub opens: u32,
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

/// Write guard over the directory. The directory sits behind an `Arc`
/// shared with published MVCC generations; the first mutation through the
/// guard clones it (`Arc::make_mut`), so pinned snapshots keep the
/// pre-transaction directory untouched.
pub(crate) struct DirWriteGuard<'a>(RwLockWriteGuard<'a, Arc<Directory>>);

impl Deref for DirWriteGuard<'_> {
    type Target = Directory;
    fn deref(&self) -> &Directory {
        &self.0
    }
}

impl DerefMut for DirWriteGuard<'_> {
    fn deref_mut(&mut self) -> &mut Directory {
        Arc::make_mut(&mut self.0)
    }
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
/// the generation's directory `Arc`, and resolves every page read through
/// the generation's before-image overlay.
pub struct StructStore<S: Storage> {
    pool: Arc<BufferPool<S>>,
    dir: RwLock<Arc<Directory>>,
    node_count: AtomicU64,
    /// MVCC overlay for snapshot views; `None` on the live store.
    view: Option<SnapView>,
}

/// Recover the guard from a poisoned lock. The directory holds plain data
/// that is re-validated on use, so a panicking thread (only possible in
/// tests) must not wedge every other query thread.
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
                let checked = page::check_page(&pool.image(pid)?)
                    .ok_or_else(|| CoreError::Corrupt(format!("bad structural page {pid}")))?;
                node_count += checked.opens;
                let (lo, hi) = (checked.header.lo, checked.header.hi);
                dir.order.push(DirEntry {
                    id: pid,
                    st: checked.header.st,
                    lo,
                    hi,
                    entries: checked.entries as u32,
                    opens: checked.opens as u32,
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
            node_count: AtomicU64::new(node_count),
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

    /// Rebuild the in-memory directory and node count from storage,
    /// exactly as [`StructStore::open`] does. Called after a
    /// rollback discarded this store's dirty frames: the in-memory views
    /// may reflect the undone mutation.
    pub fn reload(&self) -> CoreResult<()> {
        let fresh = StructStore::open(Arc::clone(&self.pool))?;
        *wr(&self.dir) = fresh.dir.into_inner().unwrap_or_else(|e| e.into_inner());
        self.node_count
            .store(fresh.node_count.load(Ordering::Acquire), Ordering::Release);
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
    /// only; contents are not read.
    pub fn structure_bytes(&self) -> CoreResult<u64> {
        let dir = rd(&self.dir);
        let mut total = 0u64;
        for de in &dir.order {
            let header = page::read_header(&self.pool.image(de.id)?)
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

    /// The first non-empty page at chain rank `from` or later that passes
    /// `test`, with its rank: one scan of the in-memory directory, under one
    /// lock. Counts the records consulted into `probes`.
    pub(crate) fn find_page(
        &self,
        from: u32,
        probes: &mut u64,
        mut test: impl FnMut(&DirEntry) -> bool,
    ) -> Option<(u32, DirEntry)> {
        let dir = rd(&self.dir);
        let tail = dir.order.get(from as usize..)?;
        let hit = tail
            .iter()
            .enumerate()
            .find(|(_, de)| de.entries > 0 && test(de));
        *probes += hit.map_or(tail.len(), |(i, _)| i + 1) as u64;
        hit.map(|(i, de)| (from + i as u32, *de))
    }

    /// Chain rank and directory entry of `page`, under one lock.
    pub(crate) fn dir_of(&self, page: PageId) -> CoreResult<(u32, DirEntry)> {
        let dir = rd(&self.dir);
        dir.rank
            .get(&page)
            .and_then(|&r| Some((r, *dir.order.get(r as usize)?)))
            .ok_or_else(|| CoreError::Corrupt(format!("page {page} not in chain directory")))
    }

    /// Number of chained pages (== `page_count`).
    pub fn chain_len(&self) -> u32 {
        rd(&self.dir).order.len() as u32
    }

    /// Linear position of an address: document order as a single `u64`
    /// (`(rank+1) * 2^32 + entry`). This is the paper's `p·C + o` quantity
    /// used as the interval endpoint cut edges are decided on. Ranks are offset
    /// by one so every real position is strictly greater than 0, letting the
    /// virtual document node own the open interval `(0, u64::MAX)`.
    #[inline]
    pub fn lin(&self, addr: NodeAddr) -> CoreResult<u64> {
        Ok(lin_at(self.rank(addr.page)?, addr.entry))
    }

    /// Read page `id` in place: `read` gets the [`Page`] over its image,
    /// which holds no lock, so `read` may take others.
    pub fn with_page<R>(&self, id: PageId, read: impl FnOnce(Page<'_>) -> R) -> CoreResult<R> {
        let (_, de) = self.dir_of(id)?;
        Page::counted(&self.page_image(id)?, de.opens)
            .map(read)
            .ok_or_else(|| CoreError::Corrupt(format!("bad structural page {id}")))
    }

    /// The image of page `id`, to read with [`Page::counted`]: a snapshot
    /// view's image of its epoch, the live store's current one. Either way
    /// an `Arc` clone, no copy.
    pub fn page_image(&self, id: PageId) -> CoreResult<Arc<[u8]>> {
        Ok(resolve_page(&self.pool, self.view.as_ref(), id)?)
    }

    /// The entry and its level at `addr`; the level is counted over the
    /// page's entries up to `addr`.
    pub fn entry_at(&self, addr: NodeAddr) -> CoreResult<(Entry, u16)> {
        let i = addr.entry as usize;
        self.with_page(addr.page, |page| page.get(i).map(|e| (e, page.level(i))))?
            .ok_or_else(|| {
                CoreError::Corrupt(format!(
                    "entry index {} out of range in page {}",
                    addr.entry, addr.page
                ))
            })
    }

    /// Tag code at `addr` (must be an open entry). Reads the entry's code
    /// only, no level.
    #[inline]
    pub fn tag_at(&self, addr: NodeAddr) -> CoreResult<TagCode> {
        match self.with_page(addr.page, |page| page.get(addr.entry as usize))? {
            Some(Entry::Open(t)) => Ok(t),
            _ => Err(CoreError::Corrupt(format!("expected open entry at {addr}"))),
        }
    }

    // ---- update support (used by crate::update) ----

    pub(crate) fn dir_mut(&self) -> DirWriteGuard<'_> {
        DirWriteGuard(wr(&self.dir))
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
            opens: self.cur.acc.opens as u32,
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
        assert_eq!(store.entry_at(root).unwrap().1, 1);
        // Entries: a b ) c ) ) -> 6 entries.
        let levels = store
            .with_page(root.page, |page| page.levels().collect::<Vec<_>>())
            .unwrap();
        assert_eq!(levels, vec![1, 2, 1, 2, 1, 0]);
    }

    #[test]
    fn attributes_become_leading_children() {
        let (store, dict) = mem_store(r#"<a x="1"><b/></a>"#, 4096);
        assert_eq!(store.node_count(), 3); // a, @x, b
                                           // a @x ) b ) )
        let (second, levels) = store
            .with_page(0, |page| (page.get(1), page.levels().collect::<Vec<_>>()))
            .unwrap();
        assert_eq!(second, Some(Entry::Open(dict.lookup("@x").unwrap())));
        assert_eq!(levels, vec![1, 2, 1, 2, 1, 0]);
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
            store
                .with_page(de.id, |page| {
                    assert_eq!(page.header.st, prev_end, "st mismatch at rank {r}");
                    assert_eq!(
                        (page.header.lo, page.header.hi),
                        page.level_bounds(),
                        "lo/hi mismatch at rank {r}"
                    );
                    prev_end = page.end_level();
                })
                .unwrap();
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
            let entries: Vec<Entry> = store.with_page(de.id, |p| p.entries().collect()).unwrap();
            for (i, e) in entries.into_iter().enumerate() {
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
            store
                .with_page(de.id, |page| out.extend(page.entries().zip(page.levels())))
                .unwrap();
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
                store
                    .with_page(de.id, |page| {
                        assert_eq!(page.header.st, prev_end);
                        assert_eq!((page.header.lo, page.header.hi), page.level_bounds());
                        prev_end = page.end_level();
                    })
                    .unwrap();
            }
        }
    }

    /// The size gate, as an exact count: a deep/wide corpus (300 siblings,
    /// each a 100-deep chain) at 256-byte pages takes at most half
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
        // Reopening checks every page again: same chain, same entries.
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
