//! The database synopsis: per-tag and per-value counters plus a
//! DataGuide-style **path summary**.
//!
//! The paper's cost model (§6.2) prices a starting-point strategy from flat
//! per-tag counts. That is blind to *paths*: `//a//b` seeds on whichever of
//! `a`/`b` is rarer even when no `b` ever occurs under an `a`. The synopsis
//! closes that gap with a trie over every distinct root-to-node tag path in
//! the document, each annotated with the number of nodes bearing exactly
//! that path — the structural summary a DataGuide maintains in Lore-style
//! systems, shrunk to tag codes.
//!
//! One `Synopsis` value is the unit that flows through the system:
//!
//! * built during bulk build from the document-order node stream;
//! * maintained incrementally inside update transactions (copy-on-write via
//!   `Arc::make_mut`, so rolled-back transactions revert to the snapshot);
//! * persisted as a versioned block superseding the v1 `stats.blk` format
//!   (old-magic or damaged blocks are rebuilt from the indexes on open);
//! * published per MVCC generation so snapshot readers plan against the
//!   synopsis matching their pinned epoch;
//! * cross-checked by `nok-verify` against a full rescan.
//!
//! Only `core::{build, update, synopsis}` may mutate a synopsis; the
//! `synopsis-mutation` rule in `cargo xtask analyze` enforces this.

use std::collections::HashMap;

use crate::sigma::TagCode;

/// Magic for the v2 synopsis block (supersedes `NOKSTATS`).
pub const SYNOPSIS_MAGIC: &[u8; 8] = b"NOKSYNOP";
/// Version written by this build.
pub const SYNOPSIS_VERSION: u16 = 2;

/// Axis of one step in a root-to-node path constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathAxis {
    /// `/` — exactly one level down.
    Child,
    /// `//` — one or more levels down.
    Descendant,
}

/// One step of a root chain to evaluate against the path trie. `tag: None`
/// is a wildcard (matches any tag).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathStep {
    /// How this step relates to the previous one.
    pub axis: PathAxis,
    /// Tag constraint (`None` = `*`).
    pub tag: Option<TagCode>,
}

impl PathStep {
    /// A `/tag` step.
    pub fn child(tag: TagCode) -> PathStep {
        PathStep {
            axis: PathAxis::Child,
            tag: Some(tag),
        }
    }

    /// A `//tag` step.
    pub fn descendant(tag: TagCode) -> PathStep {
        PathStep {
            axis: PathAxis::Descendant,
            tag: Some(tag),
        }
    }
}

/// One node of the path trie.
#[derive(Debug, Clone)]
struct TrieNode {
    /// Tag on the edge from the parent (unused for the virtual root).
    tag: TagCode,
    /// Length of this trie path (the virtual root is 0).
    depth: u16,
    /// Number of document nodes whose root path is exactly this trie path.
    count: u64,
    /// Sum of `count` over this node and everything below it, kept current
    /// by every count change so subtree volumes cost no trie walk.
    subtree: u64,
    /// Child trie nodes, sorted by tag for canonical encoding.
    children: Vec<u32>,
}

impl TrieNode {
    fn new(tag: TagCode, depth: u16) -> TrieNode {
        TrieNode {
            tag,
            depth,
            count: 0,
            subtree: 0,
            children: Vec::new(),
        }
    }
}

/// A trie over distinct root-to-node tag paths with per-path node counts.
///
/// Node 0 is a virtual root above the document element; its count is always
/// zero. A child edge labeled `t` below trie node for path `p` represents
/// the path `p/t`.
#[derive(Debug, Clone)]
pub struct PathTrie {
    nodes: Vec<TrieNode>,
}

impl Default for PathTrie {
    fn default() -> Self {
        PathTrie::new()
    }
}

impl PathTrie {
    /// An empty trie (virtual root only).
    pub fn new() -> PathTrie {
        PathTrie::with_capacity(0)
    }

    /// An empty trie with room for `paths` distinct paths.
    fn with_capacity(paths: usize) -> PathTrie {
        let mut nodes = Vec::with_capacity(1 + paths);
        nodes.push(TrieNode::new(TagCode(0), 0));
        PathTrie { nodes }
    }

    fn child_of(&self, node: u32, tag: TagCode) -> Option<u32> {
        let kids = &self.nodes[node as usize].children;
        kids.binary_search_by_key(&tag, |&c| self.nodes[c as usize].tag)
            .ok()
            .map(|i| kids[i])
    }

    fn child_or_insert(&mut self, node: u32, tag: TagCode) -> u32 {
        let pos = {
            let kids = &self.nodes[node as usize].children;
            match kids.binary_search_by_key(&tag, |&c| self.nodes[c as usize].tag) {
                Ok(i) => return kids[i],
                Err(i) => i,
            }
        };
        let id = self.nodes.len() as u32;
        let depth = self.nodes[node as usize].depth.saturating_add(1);
        self.nodes.push(TrieNode::new(tag, depth));
        self.nodes[node as usize].children.insert(pos, id);
        id
    }

    /// Walk (creating) the node for `tags` and add `n` to its count.
    pub fn add_path_count(&mut self, tags: &[TagCode], n: u64) {
        let mut cur = 0u32;
        let bump = |node: &mut TrieNode| node.subtree = node.subtree.saturating_add(n);
        bump(&mut self.nodes[0]);
        for &t in tags {
            cur = self.child_or_insert(cur, t);
            bump(&mut self.nodes[cur as usize]);
        }
        let c = &mut self.nodes[cur as usize].count;
        *c = c.saturating_add(n);
    }

    /// Walk the node for `tags` (if present) and subtract `n` from its
    /// count, saturating at zero. Nodes are left in place; zero-count
    /// subtrees are dropped at encode time.
    pub fn sub_path_count(&mut self, tags: &[TagCode], n: u64) {
        let mut path = vec![0u32];
        for &t in tags {
            match self.child_of(path[path.len() - 1], t) {
                Some(c) => path.push(c),
                None => return,
            }
        }
        let c = &mut self.nodes[path[path.len() - 1] as usize].count;
        let taken = n.min(*c);
        *c -= taken;
        for node in path {
            let s = &mut self.nodes[node as usize].subtree;
            *s = s.saturating_sub(taken);
        }
    }

    /// Number of document nodes whose root path exactly equals `tags`.
    pub fn exact_count(&self, tags: &[TagCode]) -> u64 {
        let mut cur = 0u32;
        for &t in tags {
            match self.child_of(cur, t) {
                Some(c) => cur = c,
                None => return 0,
            }
        }
        self.nodes[cur as usize].count
    }

    /// The trie state before any step: the virtual root.
    pub fn start_states() -> Vec<u32> {
        vec![0]
    }

    /// One NFA step: the trie nodes reachable from `states` through `step`,
    /// ascending and distinct. A planner walks each pattern node's root
    /// chain by advancing its parent's states, so a `//` step sweeps the
    /// trie once per pattern node rather than once per question asked.
    pub fn advance(&self, states: &[u32], step: PathStep) -> Vec<u32> {
        let accepts = |n: u32| step.tag.is_none() || step.tag == Some(self.nodes[n as usize].tag);
        let mut next = Vec::new();
        match step.axis {
            PathAxis::Child => {
                for &s in states {
                    let kids = &self.nodes[s as usize].children;
                    next.extend(kids.iter().copied().filter(|&c| accepts(c)));
                }
            }
            // Below the virtual root lies every node: no walk needed.
            PathAxis::Descendant if states == [0] => {
                next.extend((1..self.nodes.len() as u32).filter(|&n| accepts(n)));
            }
            PathAxis::Descendant => {
                // Strict descendants of any state, each visited once.
                let mut seen = vec![false; self.nodes.len()];
                let mut stack: Vec<u32> = Vec::new();
                for &s in states {
                    stack.extend_from_slice(&self.nodes[s as usize].children);
                }
                while let Some(d) = stack.pop() {
                    if std::mem::replace(&mut seen[d as usize], true) {
                        continue;
                    }
                    if accepts(d) {
                        next.push(d);
                    }
                    stack.extend_from_slice(&self.nodes[d as usize].children);
                }
            }
        }
        next.sort_unstable();
        next.dedup();
        next
    }

    /// The accepting trie states for a chain of steps (NFA-style walk).
    fn accepting(&self, steps: &[PathStep]) -> Vec<u32> {
        let mut states = Self::start_states();
        for &step in steps {
            states = self.advance(&states, step);
            if states.is_empty() {
                break;
            }
        }
        states
    }

    /// Number of document nodes whose root path ends in one of `states`.
    pub fn support_of(&self, states: &[u32]) -> u64 {
        states
            .iter()
            .map(|&s| self.nodes[s as usize].count)
            .fold(0u64, u64::saturating_add)
    }

    /// Number of document nodes at-or-below the paths ending in `states`
    /// (ascending), counting nested accepting paths once.
    pub fn subtree_support_of(&self, states: &[u32]) -> u64 {
        // Paths of one length cannot nest: sum their subtrees directly.
        let depth_of = |&s: &u32| self.nodes[s as usize].depth;
        if states
            .windows(2)
            .all(|w| depth_of(&w[0]) == depth_of(&w[1]))
        {
            return states
                .iter()
                .map(|&s| self.subtree_count(s))
                .fold(0u64, u64::saturating_add);
        }
        let mut total = 0u64;
        let mut stack: Vec<u32> = vec![0];
        while let Some(n) = stack.pop() {
            if n != 0 && states.binary_search(&n).is_ok() {
                total = total.saturating_add(self.subtree_count(n));
            } else {
                stack.extend_from_slice(&self.nodes[n as usize].children);
            }
        }
        total
    }

    /// Number of document nodes whose root path satisfies the chain — the
    /// true support of a pattern node. Zero proves the pattern empty.
    pub fn support(&self, steps: &[PathStep]) -> u64 {
        self.support_of(&self.accepting(steps))
    }

    /// Number of document nodes at-or-below paths satisfying the chain —
    /// the volume of tree a NoK matcher seeded on those nodes can touch.
    pub fn subtree_support(&self, steps: &[PathStep]) -> u64 {
        self.subtree_support_of(&self.accepting(steps))
    }

    fn subtree_count(&self, node: u32) -> u64 {
        self.nodes[node as usize].subtree
    }

    /// Number of distinct root-to-node paths with at least one node.
    pub fn distinct_paths(&self) -> u64 {
        self.nodes.iter().filter(|n| n.count > 0).count() as u64
    }

    /// Sum of all path counts (equals the document node count when the
    /// trie is consistent).
    pub fn total_count(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.count)
            .fold(0u64, u64::saturating_add)
    }

    /// Visit every path with a nonzero count, in canonical (tag-sorted
    /// preorder) order.
    pub fn for_each_path<F: FnMut(&[TagCode], u64)>(&self, mut f: F) {
        // Explicit stack: (node, depth); `path` holds tags above depth.
        let mut path: Vec<TagCode> = Vec::new();
        let mut stack: Vec<(u32, usize)> = Vec::new();
        for &c in self.nodes[0].children.iter().rev() {
            stack.push((c, 0));
        }
        while let Some((n, depth)) = stack.pop() {
            path.truncate(depth);
            path.push(self.nodes[n as usize].tag);
            if self.nodes[n as usize].count > 0 {
                f(&path, self.nodes[n as usize].count);
            }
            for &c in self.nodes[n as usize].children.iter().rev() {
                stack.push((c, depth + 1));
            }
        }
    }
}

/// The full synopsis: counters + path trie. Held as a single
/// `Arc<Synopsis>` by `XmlDb` and by every published `DbGeneration`.
#[derive(Debug, Clone, Default)]
pub struct Synopsis {
    tag_counts: HashMap<TagCode, u64>,
    value_counts: HashMap<u64, u64>,
    paths: PathTrie,
}

impl Synopsis {
    /// An empty synopsis.
    pub fn new() -> Synopsis {
        Synopsis::default()
    }

    // ---- read API -------------------------------------------------------

    /// Number of nodes with tag `tag`.
    pub fn tag_count(&self, tag: TagCode) -> u64 {
        self.tag_counts.get(&tag).copied().unwrap_or(0)
    }

    /// Number of text values hashing to `hash`.
    pub fn value_count(&self, hash: u64) -> u64 {
        self.value_counts.get(&hash).copied().unwrap_or(0)
    }

    /// Number of distinct value hashes present.
    pub fn distinct_value_count(&self) -> usize {
        self.value_counts.len()
    }

    /// Iterate `(tag, count)` pairs (unordered).
    pub fn tag_counts(&self) -> impl Iterator<Item = (TagCode, u64)> + '_ {
        self.tag_counts.iter().map(|(&t, &c)| (t, c))
    }

    /// The path summary.
    pub fn paths(&self) -> &PathTrie {
        &self.paths
    }

    /// True support of a root chain (see [`PathTrie::support`]).
    pub fn path_support(&self, steps: &[PathStep]) -> u64 {
        self.paths.support(steps)
    }

    /// Subtree volume below a root chain (see
    /// [`PathTrie::subtree_support`]).
    pub fn path_subtree_support(&self, steps: &[PathStep]) -> u64 {
        self.paths.subtree_support(steps)
    }

    /// Number of distinct root-to-node paths.
    pub fn distinct_paths(&self) -> u64 {
        self.paths.distinct_paths()
    }

    /// Size in bytes of the persisted block this synopsis encodes to.
    pub fn encoded_len(&self, node_count: u64) -> usize {
        self.to_bytes(node_count).len()
    }

    // ---- mutation API (confined to core::{build, update, synopsis}) -----

    /// Add `n` nodes of tag `tag`.
    pub fn add_tag_count(&mut self, tag: TagCode, n: u64) {
        let c = self.tag_counts.entry(tag).or_insert(0);
        *c = c.saturating_add(n);
    }

    /// Remove `n` nodes of tag `tag` (saturating; the entry stays).
    pub fn sub_tag_count(&mut self, tag: TagCode, n: u64) {
        if let Some(c) = self.tag_counts.get_mut(&tag) {
            *c = c.saturating_sub(n);
        }
    }

    /// Add `n` values hashing to `hash`.
    pub fn add_value_count(&mut self, hash: u64, n: u64) {
        let c = self.value_counts.entry(hash).or_insert(0);
        *c = c.saturating_add(n);
    }

    /// Remove `n` values hashing to `hash` (the entry is dropped at zero
    /// so `distinct_value_count` stays honest).
    pub fn sub_value_count(&mut self, hash: u64, n: u64) {
        if let Some(c) = self.value_counts.get_mut(&hash) {
            *c = c.saturating_sub(n);
            if *c == 0 {
                self.value_counts.remove(&hash);
            }
        }
    }

    /// Add `n` nodes whose root path is `tags`.
    pub fn add_path_count(&mut self, tags: &[TagCode], n: u64) {
        self.paths.add_path_count(tags, n);
    }

    /// Remove `n` nodes whose root path is `tags`.
    pub fn sub_path_count(&mut self, tags: &[TagCode], n: u64) {
        self.paths.sub_path_count(tags, n);
    }

    // ---- persistence ----------------------------------------------------

    /// Serialize as the v2 `stats.blk` payload. `node_count` is stored for
    /// the staleness check on open.
    pub fn to_bytes(&self, node_count: u64) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(SYNOPSIS_MAGIC);
        out.extend_from_slice(&SYNOPSIS_VERSION.to_be_bytes());
        out.extend_from_slice(&node_count.to_be_bytes());

        let mut tags: Vec<(TagCode, u64)> = self.tag_counts.iter().map(|(&t, &c)| (t, c)).collect();
        tags.sort_unstable();
        out.extend_from_slice(&(tags.len() as u32).to_be_bytes());
        for (t, c) in &tags {
            out.extend_from_slice(&t.0.to_be_bytes());
            out.extend_from_slice(&c.to_be_bytes());
        }

        let mut vals: Vec<(u64, u64)> = self.value_counts.iter().map(|(&h, &c)| (h, c)).collect();
        vals.sort_unstable();
        out.extend_from_slice(&(vals.len() as u32).to_be_bytes());
        for (h, c) in &vals {
            out.extend_from_slice(&h.to_be_bytes());
            out.extend_from_slice(&c.to_be_bytes());
        }

        // Path trie: preorder varint stream over live (nonzero-subtree)
        // nodes. Layout per node: tag, count, child-count; the virtual
        // root contributes only its child-count.
        let keep = self.live_subtrees();
        let live = keep
            .iter()
            .filter(|&&k| k)
            .count()
            .saturating_sub(usize::from(keep.first().copied().unwrap_or(false)));
        out.extend_from_slice(&(live as u32).to_be_bytes());
        let live_kids = |n: u32| -> Vec<u32> {
            self.paths.nodes[n as usize]
                .children
                .iter()
                .copied()
                .filter(|&c| keep[c as usize])
                .collect()
        };
        // Emit the root's child count, then preorder nodes via an explicit
        // stack so document depth never becomes recursion depth.
        let root_kids = live_kids(0);
        write_varint(&mut out, root_kids.len() as u64);
        let mut stack: Vec<u32> = root_kids.into_iter().rev().collect();
        while let Some(n) = stack.pop() {
            let node = &self.paths.nodes[n as usize];
            let kids = live_kids(n);
            write_varint(&mut out, u64::from(node.tag.0));
            write_varint(&mut out, node.count);
            write_varint(&mut out, kids.len() as u64);
            for &c in kids.iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// `keep[i]` — trie node `i` has a nonzero count somewhere at-or-below.
    fn live_subtrees(&self) -> Vec<bool> {
        let n = self.paths.nodes.len();
        let mut keep = vec![false; n];
        // Children always have larger indices than creation order does not
        // guarantee; do a postorder with an explicit stack instead.
        let mut stack: Vec<(u32, bool)> = vec![(0, false)];
        while let Some((node, expanded)) = stack.pop() {
            if expanded {
                let mut live = self.paths.nodes[node as usize].count > 0;
                for &c in &self.paths.nodes[node as usize].children {
                    live = live || keep[c as usize];
                }
                keep[node as usize] = live;
            } else {
                stack.push((node, true));
                for &c in &self.paths.nodes[node as usize].children {
                    stack.push((c, false));
                }
            }
        }
        keep
    }

    /// Parse a v2 block. Returns the stored node count (for the staleness
    /// check) and the synopsis. `None` on anything unexpected — wrong or
    /// old (`NOKSTATS`) magic, bad version, truncation, trailing garbage,
    /// or malformed varints; callers rebuild from the indexes.
    pub fn from_bytes(b: &[u8]) -> Option<(u64, Synopsis)> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Option<&[u8]> {
            let s = b.get(*pos..pos.checked_add(n)?)?;
            *pos += n;
            Some(s)
        };
        if take(&mut pos, 8)? != SYNOPSIS_MAGIC {
            return None;
        }
        let ver = u16::from_be_bytes(take(&mut pos, 2)?.try_into().ok()?);
        if ver != SYNOPSIS_VERSION {
            return None;
        }
        let node_count = u64::from_be_bytes(take(&mut pos, 8)?.try_into().ok()?);

        let mut syn = Synopsis::new();
        let tag_n = u32::from_be_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
        syn.tag_counts.reserve(tag_n.min(1 << 16));
        for _ in 0..tag_n {
            let t = u16::from_be_bytes(take(&mut pos, 2)?.try_into().ok()?);
            let c = u64::from_be_bytes(take(&mut pos, 8)?.try_into().ok()?);
            syn.tag_counts.insert(TagCode(t), c);
        }
        let val_n = u32::from_be_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
        syn.value_counts.reserve(val_n.min(1 << 20));
        for _ in 0..val_n {
            let h = u64::from_be_bytes(take(&mut pos, 8)?.try_into().ok()?);
            let c = u64::from_be_bytes(take(&mut pos, 8)?.try_into().ok()?);
            syn.value_counts.insert(h, c);
        }

        let path_n = u32::from_be_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
        let root_kids = read_varint(b, &mut pos)? as usize;
        // Size the node arena once instead of doubling it up to the final
        // size. Every encoded node is at least three varint bytes, so the
        // bytes left bound what a lying `path_n` can make us allocate.
        syn.paths = PathTrie::with_capacity(path_n.min((b.len() - pos) / 3));
        // Decode preorder with an explicit frame stack: each frame is a
        // (parent, remaining-children) pair. Bounds are enforced by the
        // declared node count, so adversarial child counts cannot balloon.
        let mut decoded = 0usize;
        let mut frames: Vec<(u32, u64)> = vec![(0, root_kids as u64)];
        while let Some(&mut (parent, ref mut remaining)) = frames.last_mut() {
            if *remaining == 0 {
                // Subtree complete: fold its volume into the parent's.
                frames.pop();
                if let Some(&(above, _)) = frames.last() {
                    let done = syn.paths.nodes[parent as usize].subtree;
                    let s = &mut syn.paths.nodes[above as usize].subtree;
                    *s = s.saturating_add(done);
                }
                continue;
            }
            *remaining -= 1;
            decoded += 1;
            if decoded > path_n {
                return None;
            }
            let tag = read_varint(b, &mut pos)?;
            if tag > u64::from(u16::MAX) {
                return None;
            }
            let count = read_varint(b, &mut pos)?;
            let kids = read_varint(b, &mut pos)?;
            let id = syn.paths.nodes.len() as u32;
            let mut node = TrieNode::new(TagCode(tag as u16), frames.len().min(0xffff) as u16);
            node.count = count;
            node.subtree = count;
            syn.paths.nodes.push(node);
            // Siblings must arrive in strictly increasing tag order — the
            // canonical form our encoder writes, and the invariant that
            // keeps `child_of`'s binary search valid after decode.
            let kids_vec = &syn.paths.nodes[parent as usize].children;
            if let Some(&last) = kids_vec.last() {
                if syn.paths.nodes[last as usize].tag >= TagCode(tag as u16) {
                    return None;
                }
            }
            syn.paths.nodes[parent as usize].children.push(id);
            frames.push((id, kids));
        }
        if decoded != path_n {
            return None;
        }
        if pos != b.len() {
            return None;
        }
        Some((node_count, syn))
    }
}

fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(b: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *b.get(*pos)?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return None; // overflow past 64 bits
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tc(n: u16) -> TagCode {
        TagCode(n)
    }

    fn sample() -> Synopsis {
        // <a><b><c/><c/></b><b/><d/></a>
        let mut s = Synopsis::new();
        s.add_tag_count(tc(1), 1); // a
        s.add_tag_count(tc(2), 2); // b
        s.add_tag_count(tc(3), 2); // c
        s.add_tag_count(tc(4), 1); // d
        s.add_value_count(0xfeed, 2);
        s.add_value_count(0xbeef, 1);
        s.add_path_count(&[tc(1)], 1);
        s.add_path_count(&[tc(1), tc(2)], 2);
        s.add_path_count(&[tc(1), tc(2), tc(3)], 2);
        s.add_path_count(&[tc(1), tc(4)], 1);
        s
    }

    #[test]
    fn counts_round_trip() {
        let s = sample();
        let bytes = s.to_bytes(6);
        let (nc, d) = Synopsis::from_bytes(&bytes).expect("decode failed");
        assert_eq!(nc, 6);
        assert_eq!(d.tag_count(tc(2)), 2);
        assert_eq!(d.value_count(0xfeed), 2);
        assert_eq!(d.distinct_value_count(), 2);
        assert_eq!(d.distinct_paths(), 4);
        assert_eq!(d.paths().exact_count(&[tc(1), tc(2), tc(3)]), 2);
        assert_eq!(d.paths().total_count(), 6);
        // Re-encode is byte-identical (canonical form).
        assert_eq!(d.to_bytes(6), bytes);
    }

    #[test]
    fn old_magic_rejected() {
        let mut b = b"NOKSTATS".to_vec();
        b.extend_from_slice(&1u16.to_be_bytes());
        b.extend_from_slice(&[0; 24]);
        assert!(Synopsis::from_bytes(&b).is_none());
    }

    #[test]
    fn truncation_never_decodes() {
        let bytes = sample().to_bytes(6);
        for cut in 0..bytes.len() {
            assert!(Synopsis::from_bytes(&bytes[..cut]).is_none(), "cut={cut}");
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(Synopsis::from_bytes(&extended).is_none());
    }

    #[test]
    fn support_child_and_descendant() {
        let s = sample();
        // /a/b
        assert_eq!(
            s.path_support(&[PathStep::child(tc(1)), PathStep::child(tc(2))]),
            2
        );
        // //c
        assert_eq!(s.path_support(&[PathStep::descendant(tc(3))]), 2);
        // //b//c
        assert_eq!(
            s.path_support(&[PathStep::descendant(tc(2)), PathStep::descendant(tc(3))]),
            2
        );
        // //d//c — zero support.
        assert_eq!(
            s.path_support(&[PathStep::descendant(tc(4)), PathStep::descendant(tc(3))]),
            0
        );
        // wildcard child of root: just a.
        assert_eq!(
            s.path_support(&[PathStep {
                axis: PathAxis::Child,
                tag: None
            }]),
            1
        );
        // //* = every node.
        assert_eq!(
            s.path_support(&[PathStep {
                axis: PathAxis::Descendant,
                tag: None
            }]),
            6
        );
    }

    #[test]
    fn subtree_support_dedups_nested_matches() {
        let s = sample();
        // //b subtrees: first b holds {b, c, c}, second {b} → 4 nodes.
        assert_eq!(s.path_subtree_support(&[PathStep::descendant(tc(2))]), 4);
        // //a subtree is the whole document.
        assert_eq!(s.path_subtree_support(&[PathStep::descendant(tc(1))]), 6);
        // //* must not double-count nested subtrees.
        assert_eq!(
            s.path_subtree_support(&[PathStep {
                axis: PathAxis::Descendant,
                tag: None
            }]),
            6
        );
    }

    /// The maintained subtree sums must equal a recount after inserts,
    /// deletes (including over-deletes, which saturate) and a decode.
    #[test]
    fn subtree_sums_follow_every_count_change() {
        fn recount(t: &PathTrie, n: u32) -> u64 {
            let node = &t.nodes[n as usize];
            node.count + node.children.iter().map(|&c| recount(t, c)).sum::<u64>()
        }
        let check = |s: &Synopsis| {
            for n in 0..s.paths.nodes.len() as u32 {
                assert_eq!(s.paths.subtree_count(n), recount(&s.paths, n), "node {n}");
            }
        };
        let mut s = sample();
        check(&s);
        s.sub_path_count(&[tc(1), tc(2), tc(3)], 1);
        s.sub_path_count(&[tc(1), tc(4)], 5); // only one to take
        s.sub_path_count(&[tc(9)], 1); // no such path
        s.add_path_count(&[tc(1), tc(2), tc(3), tc(5)], 7);
        check(&s);
        assert_eq!(s.paths.subtree_count(0), s.paths.total_count());
        let (_, decoded) = Synopsis::from_bytes(&s.to_bytes(0)).expect("decode failed");
        check(&decoded);
        assert_eq!(decoded.paths.total_count(), s.paths.total_count());
        // Same-depth states sum directly; mixed depths take the walk.
        let a_b = [PathStep::child(tc(1)), PathStep::child(tc(2))];
        assert_eq!(s.path_subtree_support(&a_b), 2 + 1 + 7);
        assert_eq!(
            s.path_subtree_support(&[PathStep {
                axis: PathAxis::Descendant,
                tag: None
            }]),
            s.paths.total_count()
        );
    }

    #[test]
    fn deletion_prunes_encoded_paths() {
        let mut s = sample();
        s.sub_path_count(&[tc(1), tc(2), tc(3)], 2);
        assert_eq!(s.distinct_paths(), 3);
        let bytes = s.to_bytes(4);
        let (_, d) = Synopsis::from_bytes(&bytes).expect("decode failed");
        assert_eq!(d.paths().exact_count(&[tc(1), tc(2), tc(3)]), 0);
        assert_eq!(d.distinct_paths(), 3);
    }

    #[test]
    fn unsorted_children_rejected() {
        // Hand-craft a stream whose sibling tags are out of order; the
        // decoder must reject it to keep binary search valid.
        let mut b = Vec::new();
        b.extend_from_slice(SYNOPSIS_MAGIC);
        b.extend_from_slice(&SYNOPSIS_VERSION.to_be_bytes());
        b.extend_from_slice(&2u64.to_be_bytes()); // node_count
        b.extend_from_slice(&0u32.to_be_bytes()); // tag_n
        b.extend_from_slice(&0u32.to_be_bytes()); // val_n
        b.extend_from_slice(&2u32.to_be_bytes()); // path_n
        write_varint(&mut b, 2); // root has two children
        write_varint(&mut b, 2); // tag 2 first …
        write_varint(&mut b, 1);
        write_varint(&mut b, 0);
        write_varint(&mut b, 1); // … then tag 1: out of order
        write_varint(&mut b, 1);
        write_varint(&mut b, 0);
        assert!(Synopsis::from_bytes(&b).is_none());
        // The sorted variant decodes fine.
        let mut s = Synopsis::new();
        s.add_path_count(&[tc(1)], 1);
        s.add_path_count(&[tc(2)], 1);
        assert!(Synopsis::from_bytes(&s.to_bytes(2)).is_some());
    }

    #[test]
    fn lying_path_count_reserves_for_the_bytes_it_has() {
        // A header declaring four billion paths over a one-node body is
        // refused, having reserved for the body and not for the claim
        // (which would abort the process on the allocation).
        let mut b = Vec::new();
        b.extend_from_slice(SYNOPSIS_MAGIC);
        b.extend_from_slice(&SYNOPSIS_VERSION.to_be_bytes());
        b.extend_from_slice(&1u64.to_be_bytes()); // node_count
        b.extend_from_slice(&0u32.to_be_bytes()); // tag_n
        b.extend_from_slice(&0u32.to_be_bytes()); // val_n
        b.extend_from_slice(&u32::MAX.to_be_bytes()); // path_n
        write_varint(&mut b, 1); // root has one child
        write_varint(&mut b, 1);
        write_varint(&mut b, 1);
        write_varint(&mut b, 0);
        assert!(Synopsis::from_bytes(&b).is_none());
    }

    #[test]
    fn varint_round_trip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
        // Overlong varint rejected.
        let bad = [0x80u8; 11];
        let mut pos = 0;
        assert!(read_varint(&bad, &mut pos).is_none());
    }
}
