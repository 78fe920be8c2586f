//! Updates: subtree insertion and deletion against the paged string
//! representation (paper §4.2).
//!
//! The paper's locality argument: an update touches only the pages holding
//! the affected region — new content goes into page slack (the reserved
//! `r` fraction) or into freshly allocated pages *linked into the chain*
//! between existing ones, so no global relabeling of the structure is
//! needed (unlike interval encoding, where an insert renumbers everything
//! to its right). The index side is the admitted cost: "due to the nature
//! of Dewey IDs, the node ID B+ tree may need to be reconstructed if many
//! IDs have been updated."
//!
//! Implemented operations:
//!
//! * [`XmlDb::insert_last_child`] — attach a parsed XML fragment as the last
//!   child of an existing node. Appending as *last* child leaves every
//!   sibling's Dewey id unchanged, so index maintenance is local: new nodes
//!   are added, and nodes whose entries shifted within the touched page get
//!   their stored addresses refreshed.
//! * [`XmlDb::delete_subtree`] — remove a node and its subtree. Following
//!   siblings' Dewey ids shift down by one, so their B+i/B+t/B+v entries
//!   are rewritten (the paper's admitted re-labeling cost, done here
//!   incrementally and exactly).
//!
//! Structural pages are never unlinked: a page whose entries are all
//! deleted stays in the chain as an empty page (skipped without I/O via the
//! header directory).

use std::collections::HashMap;
use std::ops::Bound;
use std::sync::Arc;

use nok_pager::Storage;

use crate::build::XmlDb;
use crate::cursor::{self, PageWalk};
use crate::dewey::Dewey;
use crate::error::{CoreError, CoreResult};
use crate::page::{self, ContentAcc, Entry, PageHeader, HEADER_SIZE};
use crate::physical::{tag_posting_key, IdRecord, TagPosting};
use crate::sigma::TagCode;
use crate::store::{DirEntry, NodeAddr};
use crate::values::{hash_key, LockDataFile};

/// Derives Dewey ids while walking raw entries from an arbitrary seed
/// position (the stack-of-counters trick: ancestors' consumed-child counts
/// are recoverable from the Dewey components of any node on the path).
struct DeweyWalker {
    path: Vec<u32>,
    counters: Vec<u32>,
}

impl DeweyWalker {
    /// Seed a walker positioned inside the node with components `c`, after
    /// its first `consumed` children (about to read its next child or its
    /// close).
    fn after_children(c: &[u32], consumed: u32) -> DeweyWalker {
        let mut counters: Vec<u32> = c.iter().map(|&x| x + 1).collect();
        counters.push(consumed);
        DeweyWalker {
            path: c.to_vec(),
            counters,
        }
    }

    fn on_open(&mut self) -> Dewey {
        let depth = self.path.len();
        let idx = self.counters[depth];
        self.counters[depth] += 1;
        self.path.push(idx);
        self.counters.push(0);
        Dewey::from_slice(&self.path)
    }

    fn on_close(&mut self) {
        self.path.pop();
        self.counters.pop();
    }

    fn depth(&self) -> usize {
        self.path.len()
    }
}

/// A node whose index entries must be rewritten.
struct Touched {
    old_dewey: Dewey,
    new_dewey: Dewey,
    tag: TagCode,
    new_addr: NodeAddr,
}

impl<S: Storage> XmlDb<S> {
    /// Resolve a Dewey id to its physical address.
    pub fn resolve(&self, dewey: &Dewey) -> CoreResult<NodeAddr> {
        let rec = self
            .bt_id
            .get_first(&dewey.to_key())?
            .ok_or_else(|| CoreError::InvalidUpdate(format!("no node with id {dewey}")))?;
        Ok(IdRecord::from_bytes(&rec)?.addr)
    }

    /// Parse `fragment_xml` (one root element) and insert it as the last
    /// child of the node identified by `parent`. Returns the Dewey id of
    /// the inserted root.
    ///
    /// The whole insert is one transaction: on a durable database it either
    /// commits through the write-ahead log or leaves no trace.
    pub fn insert_last_child(&mut self, parent: &Dewey, fragment_xml: &str) -> CoreResult<Dewey> {
        let ctx = self.txn_begin()?;
        match self.insert_last_child_inner(parent, fragment_xml) {
            Ok(dewey) => self.txn_commit(ctx).map(|()| dewey),
            Err(e) => Err(self.fail_with_rollback(ctx, e)),
        }
    }

    fn insert_last_child_inner(&mut self, parent: &Dewey, fragment_xml: &str) -> CoreResult<Dewey> {
        let parent_addr = self.resolve(parent)?;
        let parent_level = parent.level();
        let close = cursor::subtree_close(&self.store, parent_addr)?;

        // Child index for the new subtree root = current child count.
        let n_children = self.child_count(parent, parent_addr)?;
        let base = parent.child(n_children);

        // Build the new entries and node records from the fragment.
        let mut new_entries: Vec<Entry> = Vec::new();
        let mut new_nodes: Vec<(Dewey, TagCode, u16, usize)> = Vec::new(); // (.., rel entry idx)
        let mut new_values: Vec<(Dewey, String)> = Vec::new();
        {
            let mut walker = DeweyWalker::after_children(parent.components(), n_children);
            let mut text_stack: Vec<String> = Vec::new();
            let mut roots = 0;
            for ev in nok_xml::Reader::content_only(fragment_xml) {
                match ev? {
                    nok_xml::Event::Start { name, attrs } => {
                        if walker.depth() == parent_level as usize {
                            roots += 1;
                            if roots > 1 {
                                return Err(CoreError::InvalidUpdate(
                                    "fragment must have a single root element".into(),
                                ));
                            }
                        }
                        let tag = self.intern_tag(&name);
                        let dewey = walker.on_open();
                        let level = dewey.level() as u16;
                        new_nodes.push((dewey.clone(), tag, level, new_entries.len()));
                        new_entries.push(Entry::Open(tag));
                        text_stack.push(String::new());
                        for a in &attrs {
                            let atag = self.intern_tag(&format!("@{}", a.name));
                            let adewey = walker.on_open();
                            new_nodes.push((adewey.clone(), atag, level + 1, new_entries.len()));
                            new_entries.push(Entry::Open(atag));
                            new_entries.push(Entry::Close);
                            walker.on_close();
                            new_values.push((adewey, a.value.clone()));
                        }
                    }
                    nok_xml::Event::Text(t) => {
                        if let Some(buf) = text_stack.last_mut() {
                            buf.push_str(&t);
                        }
                    }
                    nok_xml::Event::End { .. } => {
                        let text = text_stack.pop().unwrap_or_default();
                        if !text.trim().is_empty() {
                            new_values.push((Dewey::from_slice(&walker.path), text));
                        }
                        new_entries.push(Entry::Close);
                        walker.on_close();
                    }
                    _ => {}
                }
            }
            if new_entries.is_empty() {
                return Err(CoreError::InvalidUpdate("empty fragment".into()));
            }
        }

        // Root chain of the insertion point, resolved while every index
        // still describes the pre-update document — the synopsis path
        // counts below extend it with each new node's fragment-relative
        // tag stack.
        let mut chain = self.ancestor_tag_chain(parent)?;

        // Splice into the parent-close page at the close's entry index.
        let (old_entries, header) = self.store.with_page(close.page, |page| {
            (page.entries().collect::<Vec<Entry>>(), page.header)
        })?;
        let ip = close.entry as usize;
        let (old_next, st) = (header.next, header.st);

        // Walk the old tail (starting at the parent's close) to recover the
        // Dewey id of every shifted node: their ids are unchanged by a
        // last-child insert, but their addresses move.
        let tail_opens = self.walk_tail_deweys(parent, n_children + 1, &old_entries[ip..]);

        let mut combined: Vec<Entry> = Vec::with_capacity(old_entries.len() + new_entries.len());
        combined.extend_from_slice(&old_entries[..ip]);
        combined.extend_from_slice(&new_entries);
        combined.extend_from_slice(&old_entries[ip..]);

        // Physically place `combined`, getting the new address of each
        // combined index.
        let addr_of = self.place_entries(close.page, st, combined, old_next, ip)?;

        // ---- Index maintenance.
        // Shifted old tail nodes: refresh stored addresses.
        for (rel_idx, dewey, tag) in tail_opens {
            let old_addr = NodeAddr {
                page: close.page,
                entry: (ip + rel_idx) as u32,
            };
            let new_addr = addr_of[ip + new_entries.len() + rel_idx];
            if new_addr != old_addr {
                self.refresh_addr(&dewey, tag, new_addr)?;
            }
        }
        // New nodes: insert into B+i / B+t (+ values into data file, B+v).
        let mut value_map: HashMap<Vec<u8>, (u64, u32)> = HashMap::new();
        for (dewey, text) in &new_values {
            let (off, len) = self.data.lock_data().put(text)?;
            value_map.insert(dewey.to_key(), (off, len));
            self.bt_val.insert(&hash_key(text), &dewey.to_key())?;
        }
        for (dewey, tag, level, rel_idx) in &new_nodes {
            let addr = addr_of[ip + rel_idx];
            let key = dewey.to_key();
            let rec = IdRecord {
                addr,
                value: value_map.get(&key).copied(),
            };
            self.bt_id.insert(&key, &rec.to_bytes())?;
            self.bt_tag
                .insert(&tag_posting_key(*tag, dewey), &TagPosting::value(addr))?;
            // Synopsis: new_nodes is in document order, so the
            // level-truncated chain is exactly the node's tag stack. Runs
            // inside the transaction: a rollback restores the snapshot Arc
            // and recovery recounts the replayed document.
            Arc::make_mut(&mut self.synopsis).count_node(&mut chain, *tag, *level);
        }
        let opens = new_nodes.len() as i64;
        self.store.bump_node_count(opens);
        Ok(base)
    }

    /// Delete the node identified by `target` and its whole subtree.
    /// Returns the number of element nodes removed.
    ///
    /// Runs as one transaction, like [`XmlDb::insert_last_child`]. Value
    /// records whose last referencing node is deleted are tombstoned in the
    /// data file at commit.
    pub fn delete_subtree(&mut self, target: &Dewey) -> CoreResult<u64> {
        let ctx = self.txn_begin()?;
        match self.delete_subtree_inner(target) {
            Ok(n) => self.txn_commit(ctx).map(|()| n),
            Err(e) => Err(self.fail_with_rollback(ctx, e)),
        }
    }

    fn delete_subtree_inner(&mut self, target: &Dewey) -> CoreResult<u64> {
        let (parent_comps, target_idx) = match target.components() {
            [parent @ .., idx] if !parent.is_empty() => (parent, *idx),
            _ => {
                return Err(CoreError::InvalidUpdate(
                    "cannot delete the document root".into(),
                ))
            }
        };
        let addr = self.resolve(target)?;
        let parent_level = target.level() - 1;

        // ---- Enumerate the deleted region (A): every node in the subtree,
        // in place in each page, up to the target's close. The walker's
        // depth is the level of the entry just read.
        let mut removed: Vec<(Dewey, TagCode)> = Vec::new();
        let close = {
            let mut walker = DeweyWalker::after_children(parent_comps, target_idx);
            let mut walk = PageWalk::from_rank(&self.store, self.store.rank(addr.page)?);
            let mut from = addr.entry as usize;
            'region: loop {
                let wp = walk.next_page()?.ok_or_else(|| {
                    CoreError::Corrupt(format!("no matching close for node at {addr}"))
                })?;
                for (i, entry) in (from..).zip(wp.page.entries_from(from)) {
                    match entry {
                        Entry::Open(tag) => removed.push((walker.on_open(), tag)),
                        Entry::Close => {
                            walker.on_close();
                            if walker.depth() == parent_level as usize {
                                break 'region NodeAddr {
                                    page: wp.id,
                                    entry: i as u32,
                                };
                            }
                        }
                    }
                }
                from = 0;
            }
        };

        // ---- Enumerate affected nodes after the region: following siblings
        // of the target (Dewey ids shift down) and same-page tail nodes
        // (addresses shift). One walk covers both domains.
        let touched = self.collect_after_region(target, addr, close, parent_level)?;

        // Root chain of the target's parent, resolved before any index is
        // mutated; the synopsis decrements below extend it with each
        // removed node's subtree-relative tag stack.
        let mut chain = self.ancestor_tag_chain(&Dewey::from_slice(parent_comps))?;

        // ---- Physical removal, page by page.
        let region_pages = self.pages_between(addr.page, close.page)?;
        let level_before = parent_level as u16;
        for (i, pid) in region_pages.iter().enumerate() {
            let (kept, header) = self.store.with_page(*pid, |page| {
                let (keep_head, keep_tail): (usize, usize) = if region_pages.len() == 1 {
                    (addr.entry as usize, page.len() - close.entry as usize - 1)
                } else if i == 0 {
                    (addr.entry as usize, 0)
                } else if i + 1 == region_pages.len() {
                    (0, page.len() - close.entry as usize - 1)
                } else {
                    (0, 0)
                };
                let mut kept: Vec<Entry> = Vec::with_capacity(keep_head + keep_tail);
                kept.extend(page.entries().take(keep_head));
                kept.extend(page.entries_from(page.len() - keep_tail));
                (kept, page.header)
            })?;
            let st = if i == 0 { header.st } else { level_before };
            self.rewrite_page(*pid, st, &kept, header.next)?;
        }

        // ---- Index maintenance.
        for (dewey, tag) in &removed {
            let key = dewey.to_key();
            // B+v first (needs the value pointer from B+i).
            if let Some(rec) = self.bt_id.get_first(&key)? {
                let rec = IdRecord::from_bytes(&rec)?;
                if let Some((off, _)) = rec.value {
                    let text = self.data.lock_data().get_record(off)?;
                    let h = hash_key(&text);
                    self.bt_val.delete(&h, Some(&key))?;
                    // Tombstone the record at commit unless another node
                    // (deduplicated values are shared) still points at it:
                    // the postings under the hash, read until one does.
                    let mut shared = false;
                    for posting in self
                        .bt_val
                        .range(Bound::Included(&h), Bound::Included(&h))?
                    {
                        if let Some(other) = self.bt_id.get_first(&posting?.1)? {
                            if IdRecord::from_bytes(&other)?.value.map(|(o, _)| o) == Some(off) {
                                shared = true;
                                break;
                            }
                        }
                    }
                    if !shared {
                        self.pending_dead.push(off);
                    }
                }
            }
            self.bt_id.delete(&key, None)?;
            self.bt_tag.delete(&tag_posting_key(*tag, dewey), None)?;
            // Synopsis: `removed` is in document order, so the
            // level-truncated chain is each node's root-to-node path.
            let level = dewey.level() as u16;
            Arc::make_mut(&mut self.synopsis).uncount_node(&mut chain, *tag, level);
        }
        for t in &touched {
            self.retag_node(t)?;
        }
        let n = removed.len() as u64;
        self.store.bump_node_count(-(n as i64));
        Ok(n)
    }

    // ------------------------------------------------------------------
    // helpers
    // ------------------------------------------------------------------

    /// The code of `name`, interned — and the dictionary taken copy-on-write —
    /// only when the document has not seen the name: a transaction that
    /// interns nothing keeps the `Arc` it began with, which is how commit
    /// knows there is no dictionary to log.
    fn intern_tag(&mut self, name: &str) -> TagCode {
        match self.dict.lookup(name) {
            Some(code) => code,
            None => Arc::make_mut(&mut self.dict).intern(name),
        }
    }

    /// How many children `parent` has. Child ordinals are dense (a delete
    /// relabels its following siblings), so `parent.child(k)` is in B+i
    /// exactly when `k < n`: gallop to a missing ordinal, then bisect —
    /// about 2·log₂ n descents, whatever the fan-out.
    fn child_count(&self, parent: &Dewey, parent_addr: NodeAddr) -> CoreResult<u32> {
        if cursor::first_child(&self.store, parent_addr)?.is_none() {
            return Ok(0);
        }
        let has = |k: u32| self.bt_id.contains(&parent.child(k).to_key());
        let (mut lo, mut hi) = (0u32, 1u32); // child `lo` exists
        while hi < u32::MAX && has(hi)? {
            lo = hi;
            hi = hi.saturating_mul(2);
        }
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if has(mid)? {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Ok(hi)
    }

    /// Tags of the ancestors-or-self of `dewey`, outermost first — the
    /// node's root chain, resolved through B+i. Must run while the indexes
    /// still describe the document the Dewey id belongs to.
    fn ancestor_tag_chain(&self, dewey: &Dewey) -> CoreResult<Vec<TagCode>> {
        let comps = dewey.components();
        let mut chain = Vec::with_capacity(comps.len());
        for i in 1..=comps.len() {
            let addr = self.resolve(&Dewey::from_slice(&comps[..i]))?;
            chain.push(self.store.tag_at(addr)?);
        }
        Ok(chain)
    }

    /// Chain-ordered pages from `from` to `to` inclusive.
    fn pages_between(&self, from: u32, to: u32) -> CoreResult<Vec<u32>> {
        let mut out = Vec::new();
        let mut r = self.store.rank(from)?;
        let end = self.store.rank(to)?;
        while r <= end {
            let entry = self
                .store
                .dir_at(r)
                .ok_or_else(|| CoreError::Corrupt(format!("directory rank {r} out of range")))?;
            out.push(entry.id);
            r += 1;
        }
        Ok(out)
    }

    /// Walk the entries after a deleted region (`addr` to `close`),
    /// producing the index fixups: following siblings of the target get
    /// shifted Dewey ids; nodes in the close page's tail get shifted
    /// addresses.
    fn collect_after_region(
        &self,
        target: &Dewey,
        addr: NodeAddr,
        close: NodeAddr,
        parent_level: u32,
    ) -> CoreResult<Vec<Touched>> {
        let mut out = Vec::new();
        let comps = target.components();
        // Old numbering: the deleted child was consumed.
        let mut walker =
            DeweyWalker::after_children(&comps[..comps.len() - 1], comps[comps.len() - 1] + 1);
        // How far tail entries in the close page shift left: the region's
        // entries in that page.
        let start_entry = if addr.page == close.page {
            addr.entry
        } else {
            0
        };
        let shift = close.entry - start_entry + 1;

        // The walker's depth is the level of the entry just read; the
        // target's close left it at the parent's level.
        let mut in_parent = true; // still inside the parent's subtree?
        let mut walk = PageWalk::from_rank(&self.store, self.store.rank(close.page)?);
        let mut from = close.entry as usize + 1;
        'walk: while let Some(wp) = walk.next_page()? {
            // Stop once we have left both domains.
            let in_close_page = wp.id == close.page;
            for (i, entry) in (from..).zip(wp.page.entries_from(from)) {
                if !in_parent && !in_close_page {
                    break 'walk;
                }
                let a = NodeAddr {
                    page: wp.id,
                    entry: i as u32,
                };
                match entry {
                    Entry::Open(tag) => {
                        let old_dewey = walker.on_open();
                        let new_dewey = if in_parent {
                            // Shift the sibling-level component down by one.
                            let mut c = old_dewey.components().to_vec();
                            c[parent_level as usize] -= 1;
                            Dewey::from_components(c)
                        } else {
                            old_dewey.clone()
                        };
                        let new_addr = if in_close_page {
                            NodeAddr {
                                page: a.page,
                                entry: a.entry - shift,
                            }
                        } else {
                            a
                        };
                        if new_dewey != old_dewey || new_addr != a {
                            out.push(Touched {
                                old_dewey,
                                new_dewey,
                                tag,
                                new_addr,
                            });
                        }
                    }
                    Entry::Close => {
                        walker.on_close();
                        if walker.depth() < parent_level as usize {
                            in_parent = false; // just passed the parent's close
                        }
                    }
                }
            }
            if !in_parent {
                break;
            }
            from = 0;
        }
        Ok(out)
    }

    /// Rewrite one node's B+i / B+t / B+v entries after a Dewey or address
    /// change.
    fn retag_node(&mut self, t: &Touched) -> CoreResult<()> {
        let old_key = t.old_dewey.to_key();
        let new_key = t.new_dewey.to_key();
        let rec = self
            .bt_id
            .get_first(&old_key)?
            .ok_or_else(|| CoreError::Corrupt(format!("missing B+i entry for {}", t.old_dewey)))?;
        let mut rec = IdRecord::from_bytes(&rec)?;
        self.bt_id.delete(&old_key, None)?;
        rec.addr = t.new_addr;
        self.bt_id.insert(&new_key, &rec.to_bytes())?;
        // B+t: composite keys make the old posting addressable directly.
        self.bt_tag
            .delete(&tag_posting_key(t.tag, &t.old_dewey), None)?;
        self.bt_tag.insert(
            &tag_posting_key(t.tag, &t.new_dewey),
            &TagPosting::value(t.new_addr),
        )?;
        // B+v, if the node carries a value and its Dewey changed.
        if t.old_dewey != t.new_dewey {
            if let Some((off, _)) = rec.value {
                let text = self.data.lock_data().get_record(off)?;
                self.bt_val.delete(&hash_key(&text), Some(&old_key))?;
                self.bt_val.insert(&hash_key(&text), &new_key)?;
            }
        }
        Ok(())
    }

    /// Address-only refresh (insert path: Dewey unchanged).
    fn refresh_addr(&mut self, dewey: &Dewey, tag: TagCode, new_addr: NodeAddr) -> CoreResult<()> {
        self.retag_node(&Touched {
            old_dewey: dewey.clone(),
            new_dewey: dewey.clone(),
            tag,
            new_addr,
        })
    }

    /// Recover `(relative open index, dewey, tag)` for the open entries of
    /// a page tail starting at the parent's close entry.
    fn walk_tail_deweys(
        &self,
        parent: &Dewey,
        consumed_children: u32,
        tail: &[Entry],
    ) -> Vec<(usize, Dewey, TagCode)> {
        let mut walker = DeweyWalker::after_children(parent.components(), consumed_children);
        let mut out = Vec::new();
        for (rel, entry) in tail.iter().enumerate() {
            match entry {
                Entry::Open(tag) => out.push((rel, walker.on_open(), *tag)),
                Entry::Close => walker.on_close(),
            }
        }
        out
    }

    /// Write `entries` starting in `first_page` (head stays there; overflow
    /// goes to freshly chained pages). Returns the new address of every
    /// entry index. `pin_head` entries are guaranteed to stay in
    /// `first_page` (they were there before, so they fit).
    fn place_entries(
        &mut self,
        first_page: u32,
        st: u16,
        entries: Vec<Entry>,
        old_next: u32,
        pin_head: usize,
    ) -> CoreResult<Vec<NodeAddr>> {
        let page_size = self.store.pool().page_size();
        let capacity = page_size - HEADER_SIZE;
        let total_bytes = ContentAcc::over(&entries).bytes();

        if total_bytes <= capacity {
            // Fits in place.
            let addrs = (0..entries.len())
                .map(|i| NodeAddr {
                    page: first_page,
                    entry: i as u32,
                })
                .collect();
            self.rewrite_page(first_page, st, &entries, old_next)?;
            return Ok(addrs);
        }

        // Head chunk (the pinned prefix) stays; the rest is distributed over
        // new pages at the build fill factor, leaving update slack.
        debug_assert!(
            ContentAcc::over(&entries[..pin_head]).bytes() <= capacity,
            "pinned prefix of page {first_page} no longer fits its page"
        );
        let budget = ((capacity as f64) * 0.8) as usize;
        let mut chunks: Vec<Vec<Entry>> = vec![entries[..pin_head].to_vec()];
        let mut cur: Vec<Entry> = Vec::new();
        let mut cur_acc = ContentAcc::new();
        for e in &entries[pin_head..] {
            if cur_acc.bytes_with(*e) > budget && !cur.is_empty() {
                chunks.push(std::mem::take(&mut cur));
                cur_acc = ContentAcc::new();
            }
            cur.push(*e);
            cur_acc.add(*e);
        }
        if !cur.is_empty() {
            chunks.push(cur);
        }

        // Allocate pages for chunks beyond the first.
        let pool = self.store.pool_rc();
        let mut page_ids = vec![first_page];
        for _ in 1..chunks.len() {
            let (id, _) = pool.allocate()?;
            page_ids.push(id);
        }
        // Write chunks with chained next pointers and running st.
        let mut addrs = Vec::with_capacity(entries.len());
        let mut running_st = st;
        let mut prev_page = None;
        for (ci, (pid, chunk)) in page_ids.iter().zip(&chunks).enumerate() {
            let next = if ci + 1 < page_ids.len() {
                page_ids[ci + 1]
            } else {
                old_next
            };
            if let Some(prev) = prev_page {
                // Insert the fresh page into the in-memory directory.
                self.store.dir_mut().insert_after(
                    prev,
                    DirEntry {
                        id: *pid,
                        st: running_st,
                        lo: u16::MAX,
                        hi: 0,
                        entries: 0,
                        opens: 0,
                    },
                )?;
            }
            let end_st = self.rewrite_page_with_st(*pid, running_st, chunk, next)?;
            for i in 0..chunk.len() {
                addrs.push(NodeAddr {
                    page: *pid,
                    entry: i as u32,
                });
            }
            running_st = end_st;
            prev_page = Some(*pid);
        }
        // Splits rewrite balanced entry sets, so the chain's end level must
        // still match what the untouched successor page recorded as its st.
        #[cfg(debug_assertions)]
        if old_next != page::NO_PAGE {
            let handle = pool.get(old_next)?;
            let succ = page::read_header(&handle.read());
            if let Some(h) = succ {
                // Empty successors carry the sentinel st, not a level.
                if h.st != page::EMPTY_PAGE_ST {
                    debug_assert_eq!(
                        h.st, running_st,
                        "split left page {old_next} expecting st {} but chain ends at {running_st}",
                        h.st
                    );
                }
            }
        }
        Ok(addrs)
    }

    /// Rewrite a page's content; returns nothing. See
    /// [`XmlDb::rewrite_page_with_st`].
    fn rewrite_page(&mut self, pid: u32, st: u16, entries: &[Entry], next: u32) -> CoreResult<()> {
        self.rewrite_page_with_st(pid, st, entries, next)?;
        Ok(())
    }

    /// Rewrite a page's content, header, and directory entry. Returns the
    /// page's end level (the st of its successor).
    ///
    /// A page left with no entries is written with the canonical
    /// empty-page header ([`page::EMPTY_PAGE_ST`], `lo = u16::MAX`,
    /// `hi = 0`) in both the page and the directory, so its metadata never
    /// leaks stale levels from the content it used to hold.
    fn rewrite_page_with_st(
        &mut self,
        pid: u32,
        st: u16,
        entries: &[Entry],
        next: u32,
    ) -> CoreResult<u16> {
        let content = page::encode_content(entries);
        let mut level = st as i32;
        let (mut lo, mut hi) = (u16::MAX, 0u16);
        for e in entries {
            match e {
                Entry::Open(_) => level += 1,
                Entry::Close => level -= 1,
            }
            if level < 0 {
                return Err(CoreError::Corrupt(
                    "update produced a negative level".into(),
                ));
            }
            lo = lo.min(level as u16);
            hi = hi.max(level as u16);
        }
        let end_level = level as u16;
        let hdr_st = if entries.is_empty() {
            page::EMPTY_PAGE_ST
        } else {
            st
        };
        // Validate *everything* before mutating anything: the overflow
        // check and the directory lookup must both pass, or the pool
        // buffer and the directory would come apart.
        let pool = self.store.pool_rc();
        if HEADER_SIZE + content.len() > pool.page_size() {
            return Err(CoreError::Corrupt("page overflow during update".into()));
        }
        self.store.rank(pid)?; // page must be in the directory
        let handle = pool.get(pid)?;
        {
            let mut buf = handle.write();
            page::write_header(
                &mut buf,
                &PageHeader {
                    st: hdr_st,
                    lo,
                    hi,
                    next,
                    nbytes: content.len() as u16,
                },
            );
            buf[HEADER_SIZE..HEADER_SIZE + content.len()].copy_from_slice(&content);
        }
        self.store.dir_mut().update_entry(pid, |e| {
            e.st = hdr_st;
            e.lo = lo;
            e.hi = hi;
            e.entries = entries.len() as u32;
            e.opens = entries.iter().filter(|e| e.is_open()).count() as u32;
        })?;
        Ok(end_level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::NaiveEvaluator;
    use nok_pager::MemStorage;
    use nok_xml::Document;

    const BIB: &str = r#"<bib>
      <book year="1994"><author><last>Stevens</last></author><price>65.95</price></book>
      <book year="2000"><author><last>Abiteboul</last></author><price>39.95</price></book>
    </bib>"#;

    fn db(xml: &str) -> XmlDb<MemStorage> {
        XmlDb::build_in_memory(xml).unwrap()
    }

    /// After any update, the database must behave exactly like one freshly
    /// built from the updated document. (The format-analyzer post-condition
    /// for updates lives in `tests/update_invariants.rs` — unit tests link
    /// a different build of this crate than `nok-verify` does.)
    fn assert_equivalent(db: &XmlDb<MemStorage>, expected_xml: &str, queries: &[&str]) {
        let doc = Document::parse(expected_xml).unwrap();
        let oracle = NaiveEvaluator::new(&doc);
        for q in queries {
            let got: Vec<String> = db
                .query(q)
                .unwrap()
                .iter()
                .map(|m| m.dewey.to_string())
                .collect();
            let want: Vec<String> = oracle
                .eval_str(q)
                .unwrap()
                .iter()
                .map(|n| oracle.dewey(n).to_string())
                .collect();
            assert_eq!(got, want, "query {q} after update");
        }
    }

    #[test]
    fn insert_last_child_simple() {
        let mut db = db(BIB);
        let root = Dewey::root();
        let new = db
            .insert_last_child(
                &root,
                r#"<book year="1999"><author><last>Gerbarg</last></author><price>129.95</price></book>"#,
            )
            .unwrap();
        assert_eq!(new.to_string(), "0.2");
        let expected = r#"<bib>
          <book year="1994"><author><last>Stevens</last></author><price>65.95</price></book>
          <book year="2000"><author><last>Abiteboul</last></author><price>39.95</price></book>
          <book year="1999"><author><last>Gerbarg</last></author><price>129.95</price></book>
        </bib>"#;
        assert_equivalent(
            &db,
            expected,
            &[
                "/bib/book",
                "//last",
                r#"//book[author/last="Gerbarg"]"#,
                "//book[price>100]",
                "/bib/book/@year",
            ],
        );
    }

    #[test]
    fn insert_into_nested_node() {
        let mut db = db(BIB);
        // Add a <first> to the first author.
        let author = Dewey::from_components(vec![0, 0, 1]);
        db.insert_last_child(&author, "<first>W.</first>").unwrap();
        let expected = r#"<bib>
          <book year="1994"><author><last>Stevens</last><first>W.</first></author><price>65.95</price></book>
          <book year="2000"><author><last>Abiteboul</last></author><price>39.95</price></book>
        </bib>"#;
        assert_equivalent(
            &db,
            expected,
            &[
                "//first",
                "//author[first]",
                r#"//book[author/first="W."]/price"#,
                "//book/price",
            ],
        );
    }

    #[test]
    fn insert_with_new_tag_names() {
        let mut db = db(BIB);
        let root = Dewey::root();
        db.insert_last_child(&root, "<journal><issn>1234</issn></journal>")
            .unwrap();
        let hits = db.query("//journal/issn").unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(db.value_of(&hits[0]).unwrap().unwrap(), "1234");
    }

    #[test]
    fn insert_overflowing_page_splits_chain() {
        // Small pages force the inserted subtree to spill into new pages.
        let xml = "<r><a/><b/><c/></r>";
        let mut db =
            XmlDb::build_in_memory_with(xml, crate::store::BuildOptions::default(), 64).unwrap();
        let mut big = String::from("<big>");
        for i in 0..40 {
            big.push_str(&format!("<x n=\"{i}\">v{i}</x>"));
        }
        big.push_str("</big>");
        let pages_before = db.store.page_count();
        db.insert_last_child(&Dewey::root(), &big).unwrap();
        assert!(db.store.page_count() > pages_before, "new pages chained in");
        // Structure must remain fully navigable and queryable.
        let expected = format!(
            "<r><a/><b/><c/><big>{}</big></r>",
            (0..40)
                .map(|i| format!("<x n=\"{i}\">v{i}</x>"))
                .collect::<String>()
        );
        assert_equivalent(
            &db,
            &expected,
            &["//x", "/r/big/x", "//x[@n=\"7\"]", "/r/a", "/r/big"],
        );
    }

    #[test]
    fn repeated_inserts_accumulate() {
        let mut db = db("<list></list>");
        for i in 0..25 {
            db.insert_last_child(&Dewey::root(), &format!("<item>{i}</item>"))
                .unwrap();
        }
        let hits = db.query("//item").unwrap();
        assert_eq!(hits.len(), 25);
        // Values readable and in order.
        let vals: Vec<String> = hits
            .iter()
            .map(|m| db.value_of(m).unwrap().unwrap())
            .collect();
        assert_eq!(vals[0], "0");
        assert_eq!(vals[24], "24");
    }

    #[test]
    fn delete_leaf_subtree() {
        let mut db = db(BIB);
        // Delete the second book entirely.
        let removed = db
            .delete_subtree(&Dewey::from_components(vec![0, 1]))
            .unwrap();
        assert_eq!(removed, 5); // book, @year, author, last, price
        let expected = r#"<bib>
          <book year="1994"><author><last>Stevens</last></author><price>65.95</price></book>
        </bib>"#;
        assert_equivalent(
            &db,
            expected,
            &["/bib/book", "//last", "//book[price<50]", "/bib/book/@year"],
        );
    }

    #[test]
    fn delete_shifts_following_sibling_deweys() {
        let mut db = db("<r><a>1</a><b>2</b><c>3</c><d>4</d></r>");
        db.delete_subtree(&Dewey::from_components(vec![0, 1]))
            .unwrap(); // drop <b>
        let expected = "<r><a>1</a><c>3</c><d>4</d></r>";
        assert_equivalent(&db, expected, &["/r/c", "/r/d", "//c", "/r/*"]);
        // c must now be 0.1, d 0.2.
        let hits = db.query("//d").unwrap();
        assert_eq!(hits[0].dewey.to_string(), "0.2");
        assert_eq!(db.value_of(&hits[0]).unwrap().unwrap(), "4");
    }

    #[test]
    fn delete_multi_page_subtree() {
        let mut xml = String::from("<r><victim>");
        for i in 0..200 {
            xml.push_str(&format!("<v>{i}</v>"));
        }
        xml.push_str("</victim><keep>yes</keep></r>");
        let mut db =
            XmlDb::build_in_memory_with(&xml, crate::store::BuildOptions::default(), 64).unwrap();
        assert!(db.store.page_count() > 3);
        let removed = db
            .delete_subtree(&Dewey::from_components(vec![0, 0]))
            .unwrap();
        assert_eq!(removed, 201);
        assert_equivalent(
            &db,
            "<r><keep>yes</keep></r>",
            &["//keep", "/r/keep", "//v", "/r/*"],
        );
        let keep = db.query("//keep").unwrap();
        assert_eq!(keep[0].dewey.to_string(), "0.0"); // shifted down
        assert_eq!(db.value_of(&keep[0]).unwrap().unwrap(), "yes");
    }

    #[test]
    fn delete_then_insert_round_trip() {
        let mut db = db(BIB);
        db.delete_subtree(&Dewey::from_components(vec![0, 0]))
            .unwrap();
        db.insert_last_child(
            &Dewey::root(),
            r#"<book year="2004"><author><last>Zhang</last></author><price>10</price></book>"#,
        )
        .unwrap();
        let expected = r#"<bib>
          <book year="2000"><author><last>Abiteboul</last></author><price>39.95</price></book>
          <book year="2004"><author><last>Zhang</last></author><price>10</price></book>
        </bib>"#;
        assert_equivalent(
            &db,
            expected,
            &[
                "/bib/book",
                r#"//book[author/last="Zhang"]"#,
                "//book[price<20]",
                r#"//book[author/last="Stevens"]"#,
            ],
        );
    }

    #[test]
    fn cannot_delete_root_or_missing() {
        let mut db = db(BIB);
        assert!(matches!(
            db.delete_subtree(&Dewey::root()),
            Err(CoreError::InvalidUpdate(_))
        ));
        assert!(matches!(
            db.delete_subtree(&Dewey::from_components(vec![0, 9])),
            Err(CoreError::InvalidUpdate(_))
        ));
    }

    #[test]
    fn insert_rejects_forests_and_empty() {
        let mut db = db(BIB);
        assert!(matches!(
            db.insert_last_child(&Dewey::root(), "<a/><b/>"),
            Err(CoreError::InvalidUpdate(_)) | Err(CoreError::Xml(_))
        ));
        assert!(db.insert_last_child(&Dewey::root(), "").is_err());
    }

    #[test]
    fn failed_rewrite_leaves_buffer_untouched() {
        // Regression: rewrite_page_with_st used to mutate the pool buffer
        // before discovering the directory had no entry for the page,
        // leaving buffer and directory inconsistent. Validation must come
        // first.
        let mut db = db(BIB);
        let pool = db.store.pool_rc();
        let (pid, _h) = pool.allocate().unwrap(); // in the pool, not in the directory
        let err = db.rewrite_page_with_st(pid, 1, &[Entry::Close], page::NO_PAGE);
        assert!(err.is_err(), "page outside the directory must be rejected");
        let handle = pool.get(pid).unwrap();
        assert!(
            handle.read().iter().all(|&b| b == 0),
            "rejected rewrite must not touch the page buffer"
        );
        drop(handle);
        // The database is still fully consistent and queryable.
        assert_equivalent(&db, BIB, &["/bib/book", "//last"]);
    }

    #[test]
    fn emptied_pages_get_canonical_headers() {
        let mut xml = String::from("<r><victim>");
        for i in 0..60 {
            xml.push_str(&format!("<v>{i}</v>"));
        }
        xml.push_str("</victim><keep>yes</keep></r>");
        let mut db =
            XmlDb::build_in_memory_with(&xml, crate::store::BuildOptions::default(), 64).unwrap();
        db.delete_subtree(&Dewey::from_components(vec![0, 0]))
            .unwrap();
        let pool = db.store.pool_rc();
        let mut empties = 0;
        let mut rank = 0u32;
        while let Some(e) = db.store.dir_at(rank) {
            if e.entries == 0 {
                empties += 1;
                assert_eq!(e.st, page::EMPTY_PAGE_ST, "directory st of empty page");
                assert_eq!(e.lo, u16::MAX);
                assert_eq!(e.hi, 0);
                let h = page::read_header(&pool.get(e.id).unwrap().read())
                    .expect("empty page keeps a valid header");
                assert_eq!(h.st, page::EMPTY_PAGE_ST, "page-header st of empty page");
                assert_eq!(h.nbytes, 0);
            }
            rank += 1;
        }
        assert!(empties > 0, "multi-page delete must leave empty pages");
        assert_equivalent(&db, "<r><keep>yes</keep></r>", &["//keep", "/r/*"]);
    }

    #[test]
    fn delete_tombstones_unshared_values_only() {
        let mut db = db("<r><a>dup</a><b>dup</b><c>unique</c></r>");
        let off_of = |db: &XmlDb<MemStorage>, comps: &[u32]| {
            let key = Dewey::from_components(comps.to_vec()).to_key();
            let rec = IdRecord::from_bytes(&db.bt_id.get_first(&key).unwrap().unwrap()).unwrap();
            rec.value.unwrap().0
        };
        let off_dup = off_of(&db, &[0, 0]);
        assert_eq!(off_dup, off_of(&db, &[0, 1]), "equal values share a record");
        let off_unique = off_of(&db, &[0, 2]);
        // <c>'s value has no other referent: deleting it kills the record.
        db.delete_subtree(&Dewey::from_components(vec![0, 2]))
            .unwrap();
        assert!(db.data.lock_data().get_record(off_unique).is_err());
        // <a>'s value is still referenced by <b>: the record survives.
        db.delete_subtree(&Dewey::from_components(vec![0, 0]))
            .unwrap();
        assert_eq!(db.data.lock_data().get_record(off_dup).unwrap(), "dup");
    }

    #[test]
    fn updates_split_the_chain_at_the_smallest_page_size() {
        // Same insert/delete exercises as above, at the smallest page size:
        // place_entries must budget in encoded bytes and split the chain.
        let opts = crate::store::BuildOptions::default();
        let mut db = XmlDb::build_in_memory_with(BIB, opts, 64).unwrap();
        let mut big = String::from("<big>");
        for i in 0..40 {
            big.push_str(&format!("<x n=\"{i}\">v{i}</x>"));
        }
        big.push_str("</big>");
        let pages_before = db.store.page_count();
        db.insert_last_child(&Dewey::root(), &big).unwrap();
        assert!(
            db.store.page_count() > pages_before,
            "insert split the chain"
        );
        db.delete_subtree(&Dewey::from_components(vec![0, 0]))
            .unwrap(); // drop the first book
        let expected = format!(
            r#"<bib><book year="2000"><author><last>Abiteboul</last></author><price>39.95</price></book><big>{}</big></bib>"#,
            (0..40)
                .map(|i| format!("<x n=\"{i}\">v{i}</x>"))
                .collect::<String>()
        );
        assert_equivalent(
            &db,
            &expected,
            &[
                "/bib/book",
                "//x",
                "//x[@n=\"7\"]",
                r#"//book[author/last="Abiteboul"]"#,
                "/bib/big/x",
            ],
        );
    }

    /// Children of `parent`, counted by walking them.
    fn walked_child_count(db: &XmlDb<MemStorage>, parent: &Dewey) -> u32 {
        let mut n = 0;
        let mut c = cursor::first_child(&db.store, db.resolve(parent).unwrap()).unwrap();
        while let Some(at) = c {
            n += 1;
            c = cursor::following_sibling(&db.store, at).unwrap();
        }
        n
    }

    #[test]
    fn the_new_childs_ordinal_is_searched_not_walked() {
        // <r> holds parents with 0, 1, 2, 1,000 and 30,000 children, on
        // structure pages small enough that the widest spans hundreds.
        let fans = [0u32, 1, 2, 1_000, 30_000];
        let mut xml = String::from("<r>");
        for fan in fans {
            xml.push_str("<p>");
            xml.push_str(&"<c/>".repeat(fan as usize));
            xml.push_str("</p>");
        }
        xml.push_str("</r>");
        let opts = crate::store::BuildOptions::default();
        let mut db = XmlDb::build_in_memory_with(&xml, opts, 256).unwrap();
        assert!(db.store.page_count() > 200);
        let gets = |db: &XmlDb<MemStorage>| db.store.pool().stats().logical_gets();
        for (i, fan) in fans.into_iter().enumerate() {
            let parent = Dewey::root().child(i as u32);
            // Nothing has decoded this parent's pages yet: walking 30,000
            // siblings would fetch every page they span.
            let before = gets(&db);
            let at = db.insert_last_child(&parent, "<c/>").unwrap();
            let touched = gets(&db) - before;
            assert!(touched <= 8, "fan {fan}: {touched} structure-page gets");
            assert_eq!(at, parent.child(fan));
            assert_eq!(walked_child_count(&db, &parent), fan + 1);
            assert_eq!(
                db.insert_last_child(&parent, "<c/>").unwrap(),
                parent.child(fan + 1)
            );
            // A delete relabels the following siblings; the ordinals stay
            // dense and the search still lands on the count.
            db.delete_subtree(&parent.child((fan + 2).saturating_sub(10)))
                .unwrap();
            assert_eq!(walked_child_count(&db, &parent), fan + 1);
            assert_eq!(
                db.insert_last_child(&parent, "<c/>").unwrap(),
                parent.child(fan + 1)
            );
        }
    }

    /// A rolled-back transaction leaves every file byte for byte what it
    /// was — no page of it was ever written (no-steal), its data-file
    /// appends are cut off, and the log never saw it.
    #[test]
    fn an_abort_between_commits_restores_the_files() {
        let dir = std::env::temp_dir().join(format!("nok-abort-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut db = XmlDb::create_on_disk(&dir, BIB).unwrap();
        let files = || -> Vec<Vec<u8>> {
            std::fs::read_dir(&dir)
                .unwrap()
                .map(|f| std::fs::read(f.unwrap().path()).unwrap())
                .collect()
        };
        let item = |i: u32| format!("<item><name>n{i}</name><val>v{i}</val></item>");
        db.insert_last_child(&Dewey::root(), &item(0)).unwrap();
        let before = files();
        let mut ctx = db.txn_begin().unwrap();
        db.insert_last_child_inner(&Dewey::root(), &item(1))
            .unwrap();
        assert_eq!(db.query("//item").unwrap().len(), 2);
        db.txn_rollback(&mut ctx).unwrap();
        drop(ctx);
        assert_eq!(files(), before);
        assert_eq!(db.query("//item").unwrap().len(), 1);
        // The next commit is none the worse for it, through a restart too.
        db.insert_last_child(&Dewey::root(), &item(2)).unwrap();
        drop(db);
        let db = XmlDb::open_dir(&dir).unwrap();
        assert_eq!(db.query("//item/name").unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn node_count_tracks_updates() {
        let mut db = db("<r><a/><b/></r>");
        assert_eq!(db.node_count(), 3);
        db.insert_last_child(&Dewey::root(), "<c><d/></c>").unwrap();
        assert_eq!(db.node_count(), 5);
        db.delete_subtree(&Dewey::from_components(vec![0, 2]))
            .unwrap();
        assert_eq!(db.node_count(), 3);
    }
}
