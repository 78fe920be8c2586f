//! Primitive tree operations over the string representation (paper §5,
//! Algorithm 2): `FIRST-CHILD`, `FOLLOWING-SIBLING`, and the derived
//! operations (subtree end, descendants, document-order scan, containment
//! intervals) that everything above is composed from.
//!
//! **Page skipping.** The paper skips a page during `FOLLOWING-SIBLING` when
//! `l-1 ∉ [lo, hi]` (the page cannot contain the `)` of the current node).
//! The justification: because levels change by ±1 per entry, every relevant
//! entry — a candidate sibling (an open at level `l`) or the stop signal
//! (the parent's close, at level `l-2`) — is directly preceded by an entry
//! at level `l-1`, so the page holding it either contains a level-`l-1`
//! entry too or *begins* with it. The paper's test misses that second,
//! page-boundary case (the relevant entry being the first of its page, its
//! `l-1` predecessor ending the previous page), which can make the scan skip
//! over a parent close and return a *cousin*. We therefore load a page iff
//! `lo ≤ l-1 || st == l-1`. The test consults only the in-memory header
//! directory, so skipped pages cost no I/O — the effect the paper targets.
//!
//! **Navigation index.** On top of the paper's page-granular test sit two
//! derived structures, both built lazily and never persisted:
//!
//! * *The in-page excess directory* ([`crate::succinct::PageBp`], built at
//!   decode time over the page's parenthesis bits): entry `j`'s level is
//!   `st + E(j)`, so "first later entry at level `< l`" — the close of a
//!   node at level `l`, which is also where its next sibling or its parent's
//!   close follows — is one forward excess search over per-word and
//!   per-superblock minima instead of an entry-by-entry walk.
//! * *A directory skip index* (`store::SkipIndex`): level-bucketed rank
//!   lists over the header directory answer "next page a scan at level `l`
//!   must load" in a handful of probes instead of a linear walk over every
//!   directory entry, using the key `min(lo, st)` for sibling scans (proved
//!   I/O-equivalent to the strict test in the store module) and `lo` for
//!   close scans.
//!
//! The pre-index implementations are retained as `linear_*` — they are the
//! per-entry/per-directory-record oracle the tests and `nav_bench` compare
//! against, with identical page-load behavior.
//!
//! Both layers report work into [`nok_pager::IoStats`]: `entries_examined`
//! counts entries looked at (or excess searches made) inside loaded pages,
//! and `dir_entries_examined` counts directory records (or skip-index bucket
//! probes) consulted.

use std::sync::Arc;

use crate::dewey::Dewey;
use crate::error::{CoreError, CoreResult};
use crate::page::{DecodedPage, Entry};
use crate::sigma::TagCode;
use crate::store::{lin_at, NodeAddr, StructStore};
use nok_pager::{PageId, Storage};

/// Advance to the next entry in chain order (crossing page boundaries,
/// skipping structurally empty pages). Costs I/O only when a page boundary
/// is crossed.
#[inline]
pub fn next_entry<S: Storage>(
    store: &StructStore<S>,
    addr: NodeAddr,
) -> CoreResult<Option<NodeAddr>> {
    let page = store.decoded(addr.page)?;
    if (addr.entry as usize) + 1 < page.len() {
        return Ok(Some(NodeAddr {
            page: addr.page,
            entry: addr.entry + 1,
        }));
    }
    // One skip-index probe replaces the linear directory walk.
    let r = store.rank(addr.page)? + 1;
    store.pool().stats().add_dir_entries_examined(1);
    match store.skip_index().next_nonempty(r) {
        None => Ok(None),
        Some(r2) => {
            let de = store
                .dir_at(r2)
                .ok_or_else(|| CoreError::Corrupt(format!("skip index rank {r2} out of range")))?;
            Ok(Some(NodeAddr {
                page: de.id,
                entry: 0,
            }))
        }
    }
}

/// Pre-index [`next_entry`]: walk the directory linearly to the next
/// non-empty page. Retained as the oracle/baseline for tests and
/// `nav_bench`; identical results and page loads, more directory work.
#[inline]
pub fn linear_next_entry<S: Storage>(
    store: &StructStore<S>,
    addr: NodeAddr,
) -> CoreResult<Option<NodeAddr>> {
    let page = store.decoded(addr.page)?;
    if (addr.entry as usize) + 1 < page.len() {
        return Ok(Some(NodeAddr {
            page: addr.page,
            entry: addr.entry + 1,
        }));
    }
    let mut dir_examined = 0u64;
    let mut r = store.rank(addr.page)? + 1;
    let mut out = None;
    while let Some(de) = store.dir_at(r) {
        dir_examined += 1;
        if de.entries > 0 {
            out = Some(NodeAddr {
                page: de.id,
                entry: 0,
            });
            break;
        }
        r += 1;
    }
    store.pool().stats().add_dir_entries_examined(dir_examined);
    Ok(out)
}

/// `FIRST-CHILD`: the first child of the node at `addr`, if any. Per the
/// pre-order property this is the very next entry iff it is an open entry
/// (equivalently: iff its level is `l+1`).
#[inline]
pub fn first_child<S: Storage>(
    store: &StructStore<S>,
    addr: NodeAddr,
) -> CoreResult<Option<NodeAddr>> {
    let (entry, level) = store.entry_at(addr)?;
    debug_assert!(entry.is_open(), "first_child of a close entry");
    let Some(next) = next_entry(store, addr)? else {
        return Ok(None);
    };
    let (e, l) = store.entry_at(next)?;
    Ok(if e.is_open() && l == level + 1 {
        Some(next)
    } else {
        None
    })
}

/// Scan one page for a following sibling at level `l`, starting at entry
/// `from`: hop from subtree to subtree by excess search, deciding at the
/// entry after each close. `Some(Some(addr))` = found, `Some(None)` = stop
/// reached (no sibling), `None` = page exhausted, continue on the next page.
#[inline]
fn sibling_in_page(
    page: &DecodedPage,
    pid: PageId,
    from: usize,
    l: u16,
    stop: u16,
    examined: &mut u64,
) -> Option<Option<NodeAddr>> {
    let st = i32::from(page.header.st);
    let mut j = from;
    // Level of entry `j`: one rank query here, then stepped (±1 per entry;
    // an excess search lands on level l-1 exactly).
    let mut lev = if j < page.len() { page.level(j) } else { 0 };
    while j < page.len() {
        *examined += 1;
        if lev <= stop {
            return Some(None);
        }
        if lev == l && page.entry(j).is_open() {
            return Some(Some(NodeAddr {
                page: pid,
                entry: j as u32,
            }));
        }
        if lev < l {
            // A close at level l-1: its successor decides.
            j += 1;
            lev = match page.get(j) {
                Some(e) if e.is_open() => lev + 1,
                _ => lev.wrapping_sub(1),
            };
        } else {
            // Inside a nested subtree (level ≥ l): excess-search to the
            // close at level l-1.
            j = page.bp.fwd_search_le(j + 1, i32::from(l) - 1 - st)?;
            lev = l - 1;
        }
    }
    None
}

/// `FOLLOWING-SIBLING`: the next sibling of the node at `addr`, if any.
/// Scans right for an open entry at the same level, stopping at the
/// parent's close (level `l-2`); skips pages via the directory skip index
/// and nested subtrees via the page's excess directory.
pub fn following_sibling<S: Storage>(
    store: &StructStore<S>,
    addr: NodeAddr,
) -> CoreResult<Option<NodeAddr>> {
    let (entry, l) = store.entry_at(addr)?;
    debug_assert!(entry.is_open(), "following_sibling of a close entry");
    if l == 1 {
        return Ok(None); // the root has no siblings
    }
    let stop = l - 2; // level of the parent's close parenthesis
    let mut examined = 0u64;
    let mut probes = 0u64;

    let result = (|| {
        // Finish the current page first.
        let page = store.decoded(addr.page)?;
        if let Some(res) = sibling_in_page(
            &page,
            addr.page,
            addr.entry as usize + 1,
            l,
            stop,
            &mut examined,
        ) {
            return Ok(res);
        }
        // Subsequent pages: hop straight to the next admissible one.
        let skip = store.skip_index();
        let mut r = store.rank(addr.page)? + 1;
        loop {
            let Some(r2) = skip.next_sibling_page(r, l, &mut probes) else {
                return Ok(None);
            };
            let de = store
                .dir_at(r2)
                .ok_or_else(|| CoreError::Corrupt(format!("skip index rank {r2} out of range")))?;
            let page = store.decoded(de.id)?;
            if let Some(res) = sibling_in_page(&page, de.id, 0, l, stop, &mut examined) {
                return Ok(res);
            }
            r = r2 + 1;
        }
    })();
    let stats = store.pool().stats();
    stats.add_entries_examined(examined);
    stats.add_dir_entries_examined(probes);
    result
}

/// Pre-index [`following_sibling`]: per-entry loops and a linear directory
/// walk with the corrected per-page test (see module docs). Retained as the
/// oracle/baseline; identical results and page loads.
pub fn linear_following_sibling<S: Storage>(
    store: &StructStore<S>,
    addr: NodeAddr,
) -> CoreResult<Option<NodeAddr>> {
    let (entry, l) = store.entry_at(addr)?;
    debug_assert!(entry.is_open(), "following_sibling of a close entry");
    if l == 1 {
        return Ok(None); // the root has no siblings
    }
    let stop = l - 2; // level of the parent's close parenthesis
    let mut examined = 0u64;
    let mut dir_examined = 0u64;

    let result = (|| {
        // Finish the current page first.
        let page = store.decoded(addr.page)?;
        for (i, lev) in page.levels().enumerate().skip(addr.entry as usize + 1) {
            examined += 1;
            if lev <= stop {
                return Ok(None);
            }
            if lev == l && page.entry(i).is_open() {
                return Ok(Some(NodeAddr {
                    page: addr.page,
                    entry: i as u32,
                }));
            }
        }

        // Subsequent pages: consult headers, load only pages that can matter.
        let mut r = store.rank(addr.page)? + 1;
        while let Some(de) = store.dir_at(r) {
            dir_examined += 1;
            r += 1;
            if de.entries == 0 {
                continue;
            }
            // Load iff the page may contain an entry at level l-1 (the
            // predecessor of any candidate or stop) or begins right after one.
            if !(de.lo < l || de.st == l - 1) {
                continue; // header-directory skip: no page I/O at all
            }
            let page = store.decoded(de.id)?;
            for (i, lev) in page.levels().enumerate() {
                examined += 1;
                if lev <= stop {
                    return Ok(None);
                }
                if lev == l && page.entry(i).is_open() {
                    return Ok(Some(NodeAddr {
                        page: de.id,
                        entry: i as u32,
                    }));
                }
            }
        }
        Ok(None)
    })();
    let stats = store.pool().stats();
    stats.add_entries_examined(examined);
    stats.add_dir_entries_examined(dir_examined);
    result
}

/// The first entry at level `< l` at or after `from` in one page — the close
/// of a node at level `l` is the first later position with excess
/// `≤ l-1-st`, one excess search. `None` = continue on the next page.
#[inline]
fn close_in_page(
    page: &DecodedPage,
    pid: PageId,
    from: usize,
    l: u16,
    examined: &mut u64,
) -> Option<NodeAddr> {
    *examined += 1;
    page.bp
        .fwd_search_le(from, i32::from(l) - 1 - i32::from(page.header.st))
        .map(|j| NodeAddr {
            page: pid,
            entry: j as u32,
        })
}

/// Address of the close entry matching the open at `addr` (the first
/// subsequent close at level `l-1`). Pages that cannot contain any entry at
/// level `< l` are skipped via the directory skip index; within a page the
/// close is one excess search.
pub fn subtree_close<S: Storage>(store: &StructStore<S>, addr: NodeAddr) -> CoreResult<NodeAddr> {
    let (entry, l) = store.entry_at(addr)?;
    debug_assert!(entry.is_open(), "subtree_close of a close entry");
    let mut examined = 0u64;
    let mut probes = 0u64;

    let result = (|| {
        let page = store.decoded(addr.page)?;
        if let Some(found) =
            close_in_page(&page, addr.page, addr.entry as usize + 1, l, &mut examined)
        {
            return Ok(found);
        }
        let skip = store.skip_index();
        let mut r = store.rank(addr.page)? + 1;
        loop {
            let Some(r2) = skip.next_close_page(r, l, &mut probes) else {
                // A well-formed store always closes every node.
                return Err(CoreError::Corrupt(format!(
                    "no matching close for node at {addr}"
                )));
            };
            let de = store
                .dir_at(r2)
                .ok_or_else(|| CoreError::Corrupt(format!("skip index rank {r2} out of range")))?;
            let page = store.decoded(de.id)?;
            if let Some(found) = close_in_page(&page, de.id, 0, l, &mut examined) {
                return Ok(found);
            }
            r = r2 + 1;
        }
    })();
    let stats = store.pool().stats();
    stats.add_entries_examined(examined);
    stats.add_dir_entries_examined(probes);
    result
}

/// Pre-index [`subtree_close`]: per-entry loops and a linear directory
/// walk. Retained as the oracle/baseline; identical results and page loads.
pub fn linear_subtree_close<S: Storage>(
    store: &StructStore<S>,
    addr: NodeAddr,
) -> CoreResult<NodeAddr> {
    let (entry, l) = store.entry_at(addr)?;
    debug_assert!(entry.is_open(), "subtree_close of a close entry");
    let mut examined = 0u64;
    let mut dir_examined = 0u64;

    let result = (|| {
        let page = store.decoded(addr.page)?;
        for (i, lev) in page.levels().enumerate().skip(addr.entry as usize + 1) {
            examined += 1;
            if lev < l {
                return Ok(NodeAddr {
                    page: addr.page,
                    entry: i as u32,
                });
            }
        }
        let mut r = store.rank(addr.page)? + 1;
        while let Some(de) = store.dir_at(r) {
            dir_examined += 1;
            r += 1;
            if de.entries == 0 || de.lo >= l {
                continue;
            }
            let page = store.decoded(de.id)?;
            for (i, lev) in page.levels().enumerate() {
                examined += 1;
                if lev < l {
                    return Ok(NodeAddr {
                        page: de.id,
                        entry: i as u32,
                    });
                }
            }
        }
        // A well-formed store always closes every node.
        Err(CoreError::Corrupt(format!(
            "no matching close for node at {addr}"
        )))
    })();
    let stats = store.pool().stats();
    stats.add_entries_examined(examined);
    stats.add_dir_entries_examined(dir_examined);
    result
}

/// The containment interval `⟨start, end⟩` of the node at `addr`, in linear
/// positions (paper: `⟨p₁·C+o₁, p₂·C+o₂⟩`). A node `b` is a descendant of
/// `a` iff `a.start < b.start && b.end < a.end`.
pub fn interval<S: Storage>(store: &StructStore<S>, addr: NodeAddr) -> CoreResult<(u64, u64)> {
    let close = subtree_close(store, addr)?;
    Ok((store.lin(addr)?, store.lin(close)?))
}

/// A forward walk over the page chain in document order: one decoded page
/// held at a time, its entries handed to the caller to iterate in place. This is the single-pass read path (Proposition 1) the
/// scan route, [`DocScan`] and [`descendants`] share — no per-entry
/// `decoded()`/`entry_at`, one directory probe and one page fetch per page.
pub struct PageWalk<'a, S: Storage> {
    store: &'a StructStore<S>,
    next_rank: u32,
    /// Directory records consulted so far.
    probes: u64,
}

/// One page of a [`PageWalk`].
pub struct WalkPage {
    /// Chain rank of the page (document order of pages).
    pub rank: u32,
    /// Page id.
    pub id: PageId,
    /// The decoded page; never empty.
    pub page: Arc<DecodedPage>,
}

impl WalkPage {
    /// Linear position of entry `i` of this page (see [`StructStore::lin`]).
    #[inline]
    pub fn lin(&self, i: usize) -> u64 {
        lin_at(self.rank, i as u32)
    }
}

impl<'a, S: Storage> PageWalk<'a, S> {
    /// Walk the whole chain from its first page.
    pub fn new(store: &'a StructStore<S>) -> Self {
        Self::from_rank(store, 0)
    }

    /// Walk the chain from the page at rank `rank`.
    pub fn from_rank(store: &'a StructStore<S>, rank: u32) -> Self {
        PageWalk {
            store,
            next_rank: rank,
            probes: 0,
        }
    }

    /// Continue the walk from the page at rank `rank`.
    pub fn seek(&mut self, rank: u32) {
        self.next_rank = rank;
    }

    /// Directory records this walk has consulted.
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// The next non-empty page, or `None` at the end of the chain.
    pub fn next_page(&mut self) -> CoreResult<Option<WalkPage>> {
        let mut probes = 0u64;
        let found = loop {
            let Some(de) = self.store.dir_at(self.next_rank) else {
                break None;
            };
            probes += 1;
            self.next_rank += 1;
            if de.entries > 0 {
                break Some((self.next_rank - 1, de.id));
            }
        };
        self.probes += probes;
        self.store.pool().stats().add_dir_entries_examined(probes);
        let Some((rank, id)) = found else {
            return Ok(None);
        };
        let page = self.store.decoded(id)?;
        if page.is_empty() {
            return Err(CoreError::Corrupt(format!(
                "directory lists entries in empty page {id}"
            )));
        }
        Ok(Some(WalkPage { rank, id, page }))
    }
}

/// Iterator over the open entries of the subtree rooted at `addr`,
/// *excluding* `addr` itself, in document order: a [`PageWalk`] from
/// `addr`'s page that stops at the first entry below `addr`'s level (its
/// close) — no `subtree_close` walk, no per-entry page lookup.
pub fn descendants<'a, S: Storage>(
    store: &'a StructStore<S>,
    addr: NodeAddr,
) -> CoreResult<impl Iterator<Item = CoreResult<(NodeAddr, TagCode, u16)>> + 'a> {
    let rank = store.rank(addr.page)?;
    let mut walk = PageWalk::from_rank(store, rank);
    let first = walk
        .next_page()?
        .filter(|wp| wp.id == addr.page)
        .ok_or_else(|| CoreError::Corrupt(format!("no entries in the page of {addr}")))?;
    let level = match first.page.get(addr.entry as usize) {
        Some(Entry::Open(_)) => first.page.level(addr.entry as usize),
        _ => return Err(CoreError::Corrupt(format!("expected open entry at {addr}"))),
    };
    // Level of the last entry seen, stepped ±1 per entry.
    let mut lev = level;
    let mut cur = Some(first);
    let mut idx = addr.entry as usize + 1;
    let mut examined = 0u64;
    Ok(std::iter::from_fn(move || loop {
        let wp = cur.as_ref()?;
        if idx >= wp.page.len() {
            match walk.next_page() {
                Ok(Some(next)) => {
                    cur = Some(next);
                    idx = 0;
                    continue;
                }
                // A well-formed store always closes every node.
                Ok(None) => {
                    cur = None;
                    return Some(Err(CoreError::Corrupt(format!(
                        "no matching close for node at {addr}"
                    ))));
                }
                Err(e) => {
                    cur = None;
                    return Some(Err(e));
                }
            }
        }
        let entry = wp.page.entry(idx);
        lev = if entry.is_open() {
            lev + 1
        } else {
            lev.wrapping_sub(1)
        };
        examined += 1;
        if lev < level {
            store.pool().stats().add_entries_examined(examined);
            cur = None;
            return None;
        }
        let i = idx;
        idx += 1;
        if let Entry::Open(tag) = entry {
            return Some(Ok((
                NodeAddr {
                    page: wp.id,
                    entry: i as u32,
                },
                tag,
                lev,
            )));
        }
    }))
}

/// Pre-index [`descendants`]: tests subtree end by linearizing every visited
/// address (a directory rank lookup per step) and advances with
/// [`linear_next_entry`]. Retained as the oracle/baseline.
pub fn linear_descendants<'a, S: Storage>(
    store: &'a StructStore<S>,
    addr: NodeAddr,
) -> CoreResult<impl Iterator<Item = CoreResult<(NodeAddr, TagCode, u16)>> + 'a> {
    let end = linear_subtree_close(store, addr)?;
    let end_lin = store.lin(end)?;
    let mut cur = linear_next_entry(store, addr)?;
    Ok(std::iter::from_fn(move || loop {
        let addr = cur?;
        let addr_lin = match store.lin(addr) {
            Ok(l) => l,
            Err(e) => {
                cur = None;
                return Some(Err(e));
            }
        };
        if addr_lin >= end_lin {
            cur = None;
            return None;
        }
        let step = (|| -> CoreResult<Option<(NodeAddr, TagCode, u16)>> {
            let (entry, level) = store.entry_at(addr)?;
            let out = match entry {
                Entry::Open(tag) => Some((addr, tag, level)),
                Entry::Close => None,
            };
            cur = linear_next_entry(store, addr)?;
            Ok(out)
        })();
        match step {
            Ok(Some(item)) => return Some(Ok(item)),
            Ok(None) => continue,
            Err(e) => {
                cur = None;
                return Some(Err(e));
            }
        }
    }))
}

/// A document-order scan over every element node, deriving each node's
/// Dewey id on the fly (the proof that Dewey ids need not be stored): a
/// thin iterator over [`PageWalk`].
pub struct DocScan<'a, S: Storage> {
    walk: PageWalk<'a, S>,
    cur: Option<WalkPage>,
    idx: usize,
    /// Child counters per open level; `path` holds the current Dewey
    /// components.
    path: Vec<u32>,
    counters: Vec<u32>,
}

/// One scanned node.
#[derive(Debug, Clone)]
pub struct ScanItem {
    /// Physical address.
    pub addr: NodeAddr,
    /// Tag code.
    pub tag: TagCode,
    /// Level (root = 1).
    pub level: u16,
    /// Dewey id derived during the scan.
    pub dewey: Dewey,
}

impl<'a, S: Storage> DocScan<'a, S> {
    /// Scan the whole store from the root.
    pub fn new(store: &'a StructStore<S>) -> Self {
        DocScan {
            walk: PageWalk::new(store),
            cur: None,
            idx: 0,
            path: Vec::new(),
            counters: vec![0],
        }
    }

    fn step(&mut self) -> CoreResult<Option<ScanItem>> {
        loop {
            let wp = match &self.cur {
                Some(wp) if self.idx < wp.page.len() => wp,
                _ => match self.walk.next_page()? {
                    Some(next) => {
                        self.walk
                            .store
                            .pool()
                            .stats()
                            .add_entries_examined(next.page.len() as u64);
                        self.idx = 0;
                        self.cur.insert(next)
                    }
                    None => return Ok(None),
                },
            };
            let i = self.idx;
            self.idx += 1;
            match wp.page.entry(i) {
                Entry::Open(tag) => {
                    let counter = self.counters.last_mut().ok_or_else(|| {
                        CoreError::Corrupt("document scan saw more closes than opens".into())
                    })?;
                    self.path.push(*counter);
                    *counter += 1;
                    self.counters.push(0);
                    return Ok(Some(ScanItem {
                        addr: NodeAddr {
                            page: wp.id,
                            entry: i as u32,
                        },
                        tag,
                        level: self.path.len() as u16,
                        // Snapshot the scratch path without moving it —
                        // inline small-vec for shallow nodes, one copy
                        // either way, no intermediate Vec.
                        dewey: Dewey::from_slice(&self.path),
                    }));
                }
                Entry::Close => {
                    self.path.pop();
                    self.counters.pop();
                }
            }
        }
    }
}

impl<S: Storage> Iterator for DocScan<'_, S> {
    type Item = CoreResult<ScanItem>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.step() {
            Ok(item) => item.map(Ok),
            Err(e) => {
                // Fuse: a failed page fetch must not be retried forever.
                self.cur = None;
                self.walk.next_rank = u32::MAX;
                Some(Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sigma::TagDict;
    use crate::store::{BuildOptions, StructStore};
    use nok_pager::{BufferPool, MemStorage};
    use nok_xml::{Document, NodeId, Reader};
    use std::sync::Arc;

    fn build(xml: &str, page_size: usize) -> (StructStore<MemStorage>, TagDict) {
        build_with(xml, page_size, BuildOptions::default())
    }

    fn build_with(
        xml: &str,
        page_size: usize,
        opts: BuildOptions,
    ) -> (StructStore<MemStorage>, TagDict) {
        let pool = Arc::new(BufferPool::new(MemStorage::with_page_size(page_size)));
        let mut dict = TagDict::new();
        let store =
            StructStore::build(pool, Reader::content_only(xml), &mut dict, opts, &mut ()).unwrap();
        (store, dict)
    }

    /// Page sizes with the fraction of each page left unused. The first is
    /// the smallest page the pager allows, mostly reserved: ~20 entries a
    /// page, so boundaries fall inside nearly every subtree.
    const PAGE_SHAPES: [(usize, f64); 6] = [
        (64, 0.6),
        (64, 0.2),
        (96, 0.2),
        (128, 0.2),
        (256, 0.2),
        (4096, 0.2),
    ];

    fn build_shape(
        xml: &str,
        (page_size, reserve): (usize, f64),
    ) -> (StructStore<MemStorage>, TagDict) {
        let opts = BuildOptions {
            reserve,
            ..BuildOptions::default()
        };
        build_with(xml, page_size, opts)
    }

    /// The paper's running example document (Figure 1a / Figure 2).
    pub(crate) const BIB: &str = r#"<bib>
      <book year="1994">
        <title>TCP/IP Illustrated</title>
        <author><last>Stevens</last><first>W.</first></author>
        <publisher>Addison-Wesley</publisher>
        <price>65.95</price>
      </book>
      <book year="1992">
        <title>Advanced Programming in the Unix Environment</title>
        <author><last>Stevens</last><first>W.</first></author>
        <publisher>Addison-Wesley</publisher>
        <price>65.95</price>
      </book>
      <book year="2000">
        <title>Data on the Web</title>
        <author><last>Abiteboul</last><first>Serge</first></author>
        <author><last>Buneman</last><first>Peter</first></author>
        <author><last>Suciu</last><first>Dan</first></author>
        <publisher>Morgan Kaufmann Publishers</publisher>
        <price>39.95</price>
      </book>
      <book year="1999">
        <title>The Economics of Technology and Content for Digital TV</title>
        <editor>
          <last>Gerbarg</last><first>Darcy</first>
          <affiliation>CITI</affiliation>
        </editor>
        <publisher>Kluwer Academic Publishers</publisher>
        <price>129.95</price>
      </book>
    </bib>"#;

    /// A deep/wide document whose subtrees span many small pages.
    fn deep_wide_xml(siblings: usize) -> String {
        let mut xml = String::from("<r>");
        for _ in 0..siblings {
            xml.push_str("<deep><deeper><deepest/></deeper></deep>");
        }
        xml.push_str("</r>");
        xml
    }

    #[test]
    fn first_child_and_sibling_on_one_page() {
        let (store, dict) = build(BIB, 4096);
        let root = store.root().unwrap();
        let b = dict.lookup("book").unwrap();
        // Root's first child is the first book.
        let book1 = first_child(&store, root).unwrap().unwrap();
        assert_eq!(store.tag_at(book1).unwrap(), b);
        // The paper's example: the first child of book is the next entry —
        // its @year attribute node.
        let year = first_child(&store, book1).unwrap().unwrap();
        assert_eq!(store.tag_at(year).unwrap(), dict.lookup("@year").unwrap());
        // Chain of following siblings of book1: 3 more books.
        let mut count = 0;
        let mut cur = book1;
        while let Some(next) = following_sibling(&store, cur).unwrap() {
            assert_eq!(store.tag_at(next).unwrap(), b);
            cur = next;
            count += 1;
        }
        assert_eq!(count, 3);
        // Root has no following sibling.
        assert_eq!(following_sibling(&store, root).unwrap(), None);
    }

    /// Exhaustive oracle check: on many page sizes, FIRST-CHILD and
    /// FOLLOWING-SIBLING must agree with the DOM for every element node.
    #[test]
    fn navigation_agrees_with_dom_across_page_sizes() {
        let doc = Document::parse(BIB).unwrap();
        for shape in PAGE_SHAPES {
            let page_size = format!("{shape:?}");
            let (store, dict) = build_shape(BIB, shape);
            // Walk DOM and store in lockstep (document order).
            let dom_elems: Vec<NodeId> =
                doc.preorder().filter(|&id| doc.tag(id).is_some()).collect();
            let store_elems: Vec<ScanItem> = DocScan::new(&store)
                .collect::<CoreResult<Vec<_>>>()
                .unwrap();
            // DOM has no attribute child nodes; filter store items on '@'.
            let store_real: Vec<&ScanItem> = store_elems
                .iter()
                .filter(|it| !dict.name(it.tag).starts_with('@'))
                .collect();
            assert_eq!(dom_elems.len(), store_real.len(), "page_size={page_size}");
            let addr_of: std::collections::HashMap<NodeId, NodeAddr> = dom_elems
                .iter()
                .copied()
                .zip(store_real.iter().map(|it| it.addr))
                .collect();
            for (&dom_id, item) in dom_elems.iter().zip(store_real.iter()) {
                assert_eq!(
                    doc.tag(dom_id).unwrap(),
                    dict.name(item.tag),
                    "tag mismatch (page_size={page_size})"
                );
                // first element child (skip attr entries in store; DOM has
                // no attr children so compare against first element child).
                let dom_fc = doc.child_elements(dom_id).next();
                let mut store_fc = first_child(&store, item.addr).unwrap();
                while let Some(fc) = store_fc {
                    if dict.name(store.tag_at(fc).unwrap()).starts_with('@') {
                        store_fc = following_sibling(&store, fc).unwrap();
                    } else {
                        break;
                    }
                }
                assert_eq!(
                    dom_fc.map(|id| addr_of[&id]),
                    store_fc,
                    "first_child mismatch at {} (page_size={page_size})",
                    item.dewey
                );
                // following element sibling
                let mut dom_fs = doc.next_sibling(dom_id);
                while let Some(s) = dom_fs {
                    if doc.tag(s).is_some() {
                        break;
                    }
                    dom_fs = doc.next_sibling(s);
                }
                let store_fs = following_sibling(&store, item.addr).unwrap();
                assert_eq!(
                    dom_fs.map(|id| addr_of[&id]),
                    store_fs,
                    "following_sibling mismatch at {} (page_size={page_size})",
                    item.dewey
                );
            }
        }
    }

    /// The indexed primitives and the retained linear oracles must return
    /// identical results for every node, on every page size (words,
    /// superblocks and pages fall on different boundaries in each
    /// configuration).
    #[test]
    fn indexed_primitives_match_linear_oracle_across_page_sizes() {
        let deep = deep_wide_xml(60);
        for xml in [BIB, deep.as_str()] {
            for shape in PAGE_SHAPES {
                let page_size = format!("{shape:?}");
                let (store, _) = build_shape(xml, shape);
                let items: Vec<ScanItem> = DocScan::new(&store)
                    .collect::<CoreResult<Vec<_>>>()
                    .unwrap();
                for it in &items {
                    assert_eq!(
                        following_sibling(&store, it.addr).unwrap(),
                        linear_following_sibling(&store, it.addr).unwrap(),
                        "following_sibling at {} (page_size={page_size})",
                        it.dewey
                    );
                    assert_eq!(
                        subtree_close(&store, it.addr).unwrap(),
                        linear_subtree_close(&store, it.addr).unwrap(),
                        "subtree_close at {} (page_size={page_size})",
                        it.dewey
                    );
                    assert_eq!(
                        next_entry(&store, it.addr).unwrap(),
                        linear_next_entry(&store, it.addr).unwrap(),
                        "next_entry at {} (page_size={page_size})",
                        it.dewey
                    );
                    let a: Vec<_> = descendants(&store, it.addr)
                        .unwrap()
                        .collect::<CoreResult<Vec<_>>>()
                        .unwrap();
                    let b: Vec<_> = linear_descendants(&store, it.addr)
                        .unwrap()
                        .collect::<CoreResult<Vec<_>>>()
                        .unwrap();
                    assert_eq!(a, b, "descendants at {} (page_size={page_size})", it.dewey);
                }
            }
        }
    }

    /// Regression for the page-boundary case the module docs describe: a
    /// candidate sibling that is the *first* entry of its page, with its
    /// `l-1` predecessor ending the previous page (`lo ≥ l`, `st == l-1` —
    /// the configuration the paper's test would skip). Pin that such a page
    /// exists in the corpus and that the sibling scan lands exactly on it.
    #[test]
    fn page_boundary_first_entry_candidate_is_found() {
        // Siblings whose subtrees span multiple pages, with jittered depths
        // so page boundaries land on sibling opens in several alignments.
        let mut xml = String::from("<r>");
        for i in 0..150 {
            let depth = 40 + (i % 13);
            xml.push_str("<s>");
            for _ in 0..depth {
                xml.push_str("<d>");
            }
            for _ in 0..depth {
                xml.push_str("</d>");
            }
            xml.push_str("</s>");
        }
        xml.push_str("</r>");
        let mut exercised = 0;
        for page_size in [64, 96, 128, 256] {
            let (store, _) = build(&xml, page_size);
            let items: Vec<ScanItem> = DocScan::new(&store)
                .collect::<CoreResult<Vec<_>>>()
                .unwrap();
            let addr_of: std::collections::HashMap<&Dewey, NodeAddr> =
                items.iter().map(|it| (&it.dewey, it.addr)).collect();
            for it in &items {
                let l = it.level;
                if it.addr.entry != 0 || l < 2 {
                    continue;
                }
                let de = store.dir_at(store.rank(it.addr.page).unwrap()).unwrap();
                if !(de.lo >= l && de.st == l - 1) {
                    continue; // not the boundary configuration
                }
                // Find the preceding sibling via the Dewey id.
                let comps = it.dewey.components();
                let Some((&last, prefix)) = comps.split_last() else {
                    continue;
                };
                if last == 0 {
                    continue;
                }
                let mut prev = prefix.to_vec();
                prev.push(last - 1);
                let prev = Dewey::from_components(prev);
                let Some(&prev_addr) = addr_of.get(&prev) else {
                    continue;
                };
                assert_eq!(
                    following_sibling(&store, prev_addr).unwrap(),
                    Some(it.addr),
                    "page-boundary sibling missed at {} (page_size={page_size})",
                    it.dewey
                );
                assert_eq!(
                    linear_following_sibling(&store, prev_addr).unwrap(),
                    Some(it.addr),
                    "oracle page-boundary sibling missed at {} (page_size={page_size})",
                    it.dewey
                );
                exercised += 1;
            }
        }
        assert!(
            exercised > 0,
            "corpus never produced the page-boundary configuration"
        );
    }

    /// The in-page index must pay off: a long sibling chain over deep
    /// subtrees examines far fewer entries through the excess search than
    /// through the per-entry oracle, with identical page loads.
    #[test]
    fn indexed_sibling_chain_examines_5x_fewer_entries() {
        let mut xml = String::from("<r>");
        for _ in 0..50 {
            xml.push_str("<s>");
            for _ in 0..40 {
                xml.push_str("<d>");
            }
            for _ in 0..40 {
                xml.push_str("</d>");
            }
            xml.push_str("</s>");
        }
        xml.push_str("</r>");
        let (store, _) = build(&xml, 512);

        let chain = |sib: fn(
            &StructStore<MemStorage>,
            NodeAddr,
        ) -> CoreResult<Option<NodeAddr>>|
         -> (u64, u64) {
            store.invalidate_decoded(None);
            store.pool().clear_cache().unwrap();
            store.pool().stats().reset();
            let mut cur = first_child(&store, store.root().unwrap()).unwrap().unwrap();
            let mut hops = 0;
            while let Some(next) = sib(&store, cur).unwrap() {
                cur = next;
                hops += 1;
            }
            assert_eq!(hops, 49);
            (
                store.pool().stats().entries_examined(),
                store.pool().stats().physical_reads(),
            )
        };

        let (linear_entries, linear_reads) = chain(linear_following_sibling);
        let (indexed_entries, indexed_reads) = chain(following_sibling);
        assert!(
            indexed_entries * 5 <= linear_entries,
            "expected ≥5× reduction: indexed={indexed_entries} linear={linear_entries}"
        );
        assert!(
            indexed_reads <= linear_reads,
            "indexed path must not load more pages: {indexed_reads} > {linear_reads}"
        );
    }

    #[test]
    fn subtree_close_and_intervals() {
        let (store, dict) = build("<a><b><c/><d/></b><e/></a>", 4096);
        let root = store.root().unwrap();
        let b = first_child(&store, root).unwrap().unwrap();
        assert_eq!(store.tag_at(b).unwrap(), dict.lookup("b").unwrap());
        let (b_start, b_end) = interval(&store, b).unwrap();
        let c = first_child(&store, b).unwrap().unwrap();
        let (c_start, c_end) = interval(&store, c).unwrap();
        let e = following_sibling(&store, b).unwrap().unwrap();
        let (e_start, _) = interval(&store, e).unwrap();
        // c inside b
        assert!(b_start < c_start && c_end < b_end);
        // e after b
        assert!(e_start > b_end);
    }

    #[test]
    fn descendants_enumerates_subtree_only() {
        let (store, dict) = build("<a><b><c/><d><x/></d></b><e/></a>", 4096);
        let root = store.root().unwrap();
        let b = first_child(&store, root).unwrap().unwrap();
        let tags: Vec<String> = descendants(&store, b)
            .unwrap()
            .map(|r| {
                let (_, tag, _) = r.unwrap();
                dict.name(tag).to_string()
            })
            .collect();
        assert_eq!(tags, vec!["c", "d", "x"]);
    }

    #[test]
    fn doc_scan_deweys_match_build_deweys() {
        use crate::store::{BuildSink, NodeRecord};
        struct Rec(Vec<(String, NodeAddr)>);
        impl BuildSink for Rec {
            fn node(&mut self, r: NodeRecord) {
                self.0.push((r.dewey.to_string(), r.addr));
            }
            fn value(&mut self, _d: &Dewey, _t: &str) {}
        }
        let pool = Arc::new(BufferPool::new(MemStorage::with_page_size(96)));
        let mut dict = TagDict::new();
        let mut sink = Rec(vec![]);
        let store = StructStore::build(
            pool,
            Reader::content_only(BIB),
            &mut dict,
            BuildOptions::default(),
            &mut sink,
        )
        .unwrap();
        let scanned: Vec<(String, NodeAddr)> = DocScan::new(&store)
            .map(|r| {
                let it = r.unwrap();
                (it.dewey.to_string(), it.addr)
            })
            .collect();
        assert_eq!(scanned, sink.0);
    }

    /// Multi-page sibling search must skip pages through the header
    /// directory: build a bushy-deep doc, then verify that finding the
    /// *last* top-level sibling performs fewer page gets than a full scan.
    #[test]
    fn sibling_search_skips_pages() {
        let mut xml = String::from("<r>");
        // First child has a deep/wide subtree spanning many pages...
        xml.push_str("<first>");
        for _ in 0..200 {
            xml.push_str("<deep><deeper><deepest/></deeper></deep>");
        }
        xml.push_str("</first>");
        // ... followed by one sibling.
        xml.push_str("<second/></r>");
        let (store, dict) = build(&xml, 64);
        assert!(store.page_count() > 10);
        let root = store.root().unwrap();
        let first = first_child(&store, root).unwrap().unwrap();
        store.invalidate_decoded(None);
        store.pool().clear_cache().unwrap();
        store.pool().stats().reset();
        let second = following_sibling(&store, first).unwrap().unwrap();
        assert_eq!(
            store.tag_at(second).unwrap(),
            dict.lookup("second").unwrap()
        );
        let loaded = store.pool().stats().physical_reads();
        // All the <deep> pages have lo >= 3 and can't contain level-2
        // entries or level-0 stops, so they must be skipped.
        assert!(
            loaded <= 3,
            "expected header-directory skipping, loaded {loaded} pages of {}",
            store.page_count()
        );
    }
}
