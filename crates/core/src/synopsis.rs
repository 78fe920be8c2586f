//! The database synopsis: per-tag counters and depth bounds, plus a
//! DataGuide-style **path summary** held to a fixed node budget.
//!
//! The paper's cost model (§6.2) prices a starting-point strategy from flat
//! per-tag counts. That is blind to *paths*: `//a//b` seeds on whichever of
//! `a`/`b` is rarer even when no `b` ever occurs under an `a`. The synopsis
//! closes that gap with a trie over the distinct root-to-node tag paths of
//! the document, each annotated with the number of nodes bearing exactly
//! that path — the structural summary a DataGuide maintains in Lore-style
//! systems, shrunk to tag codes.
//!
//! On a recursive grammar a full DataGuide has nearly one node per document
//! node and stops being a summary, so the trie keeps at most
//! [`TRIE_NODE_BUDGET`] nodes, shallow paths first. What does not fit is
//! *folded* into its deepest kept ancestor as that node's `residual`: the
//! number of document nodes below it whose paths the trie does not spell
//! out. Per-node `subtree` volumes stay exact. A chain walk that could
//! continue among folded nodes carries the trie node as an *open* state
//! ([`ChainStates`]): its residual is added to the estimate, which becomes
//! an upper bound, and the chain can no longer be proven empty. Zero
//! support is a proof only where the trie is exact.
//!
//! Beside each tag's count the synopsis keeps its **depth bound**: the
//! deepest level a node with that tag has had. It is one number per tag,
//! so it never folds, and it proves what a folded trie cannot: no node
//! with the tag opens below that level (`core::scan`'s dead rule). Inserts
//! raise it; deletes leave it, since a bound that is too high only weakens
//! the proof.
//!
//! Value selectivity is not kept here: a literal's B+v postings *are* its
//! count, and the planner counts them at plan time.
//!
//! One `Synopsis` value is the unit that flows through the system:
//!
//! * built during bulk build from the document-order node stream (the full
//!   trie transiently, folded once);
//! * maintained incrementally inside update transactions (copy-on-write via
//!   `Arc::make_mut`, so rolled-back transactions revert to the snapshot);
//! * persisted as one small versioned block, rewritten whole at commit (a
//!   block of another version, an old `NOKSTATS` block or a damaged one is
//!   rebuilt from the document on open);
//! * published per MVCC generation so snapshot readers plan against the
//!   synopsis matching their pinned epoch;
//! * cross-checked by `nok-verify` against a full rescan.
//!
//! Only `core::{build, update, synopsis}` may mutate a synopsis; the
//! `synopsis-mutation` rule in `cargo xtask analyze` enforces this.

use std::cmp::Reverse;
use std::collections::HashMap;

use crate::physical::{read_varint, write_varint};
use crate::sigma::TagCode;

/// Magic of the synopsis block (supersedes `NOKSTATS`).
pub const SYNOPSIS_MAGIC: &[u8; 8] = b"NOKSYNOP";
/// Version written and read by this build.
pub const SYNOPSIS_VERSION: u16 = 4;
/// Most trie nodes (the virtual root aside) a synopsis holds in memory and
/// a block may declare: what bounds the block to a few tens of KiB and a
/// commit's copy-on-write clone to one small arena, whatever the document.
pub const TRIE_NODE_BUDGET: usize = 4096;

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
    /// Number of document nodes whose root path is exactly this trie path.
    count: u64,
    /// Number of document nodes below this path that no trie node spells
    /// out: their paths leave the trie here. While it is nonzero an absent
    /// child proves nothing, and no child may be created.
    residual: u64,
    /// Sum of `count + residual` over this node and everything below it,
    /// kept current by every change so subtree volumes cost no trie walk.
    subtree: u64,
    /// Child trie nodes, sorted by tag for canonical encoding.
    children: Vec<u32>,
}

impl TrieNode {
    fn new(tag: TagCode) -> TrieNode {
        TrieNode {
            tag,
            count: 0,
            residual: 0,
            subtree: 0,
            children: Vec::new(),
        }
    }
}

/// Where a root chain can end in the trie (see [`PathTrie::advance`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChainStates {
    /// Trie nodes whose path satisfies the chain, ascending and distinct.
    exact: Vec<u32>,
    /// Trie nodes among whose folded descendants a document node may
    /// satisfy it, ascending and distinct.
    open: Vec<u32>,
}

impl ChainStates {
    /// No document node satisfies the chain — a proof, not an estimate.
    pub fn is_empty(&self) -> bool {
        self.exact.is_empty() && self.open.is_empty()
    }

    /// The chain may end among folded nodes: its support is an upper bound.
    pub fn is_open(&self) -> bool {
        !self.open.is_empty()
    }
}

/// A trie over distinct root-to-node tag paths with per-path node counts.
///
/// Node 0 is a virtual root above the document element; its count is always
/// zero. A child edge labeled `t` below trie node for path `p` represents
/// the path `p/t`. A child always has a larger index than its parent.
#[derive(Debug, Clone)]
pub struct PathTrie {
    nodes: Vec<TrieNode>,
    /// Most nodes below the virtual root; not persisted (a decoded trie
    /// has [`TRIE_NODE_BUDGET`]).
    budget: usize,
}

impl Default for PathTrie {
    /// An empty trie (virtual root only).
    fn default() -> Self {
        PathTrie {
            nodes: vec![TrieNode::new(TagCode(0))],
            budget: TRIE_NODE_BUDGET,
        }
    }
}

impl PathTrie {
    fn child_of(&self, node: u32, tag: TagCode) -> Option<u32> {
        let kids = &self.nodes[node as usize].children;
        kids.binary_search_by_key(&tag, |&c| self.nodes[c as usize].tag)
            .ok()
            .map(|i| kids[i])
    }

    /// The trie nodes along `tags`, the virtual root first, as far as the
    /// trie spells the path out.
    fn walk(&self, tags: &[TagCode]) -> Vec<u32> {
        let mut path = vec![0u32];
        for &t in tags {
            match self.child_of(path[path.len() - 1], t) {
                Some(c) => path.push(c),
                None => break,
            }
        }
        path
    }

    /// Where a document node with root path `tags` is counted, given the
    /// trie nodes `path` along it: its own node's `count` when the trie
    /// spells the whole path out, else the `residual` of the last node.
    fn slot(&mut self, path: &[u32], tags: &[TagCode]) -> &mut u64 {
        let last = &mut self.nodes[path[path.len() - 1] as usize];
        if path.len() > tags.len() {
            &mut last.count
        } else {
            &mut last.residual
        }
    }

    /// Count `n` more document nodes with root path `tags`: on the path's
    /// own node when the trie has it or may grow it — a child is created
    /// only under a node with no residual (nothing folded there could
    /// already bear the new path) while budget remains — else in the
    /// residual of the deepest node the path reaches.
    pub fn add_path_count(&mut self, tags: &[TagCode], n: u64) {
        let mut path = self.walk(tags);
        while path.len() <= tags.len() {
            let cur = path[path.len() - 1];
            if self.nodes[cur as usize].residual > 0 || self.nodes.len() > self.budget {
                break;
            }
            let (id, tag) = (self.nodes.len() as u32, tags[path.len() - 1]);
            self.nodes.push(TrieNode::new(tag));
            let kids = &self.nodes[cur as usize].children;
            let pos = kids.partition_point(|&c| self.nodes[c as usize].tag < tag);
            self.nodes[cur as usize].children.insert(pos, id);
            path.push(id);
        }
        let slot = self.slot(&path, tags);
        *slot = slot.saturating_add(n);
        for node in path {
            let s = &mut self.nodes[node as usize].subtree;
            *s = s.saturating_add(n);
        }
    }

    /// Uncount `n` document nodes with root path `tags` (saturating at
    /// zero) from where [`PathTrie::add_path_count`] counts them today.
    /// Nodes are left in place; zero-volume subtrees are dropped at encode
    /// time.
    pub fn sub_path_count(&mut self, tags: &[TagCode], n: u64) {
        let path = self.walk(tags);
        let slot = self.slot(&path, tags);
        let taken = n.min(*slot);
        *slot -= taken;
        for node in path {
            let s = &mut self.nodes[node as usize].subtree;
            *s = s.saturating_sub(taken);
        }
    }

    /// Keep at most `budget` nodes below the virtual root — whole levels
    /// from the top, then the heaviest subtrees of the first level that
    /// does not fit — fold every dropped subtree's volume into its parent's
    /// residual, and hold later growth to the same budget.
    pub fn fold_to(&mut self, budget: usize) {
        self.budget = budget;
        let mut kept: Vec<u32> = vec![0];
        let mut level: Vec<u32> = vec![0];
        while !level.is_empty() {
            let mut next: Vec<u32> = level
                .iter()
                .flat_map(|&n| self.nodes[n as usize].children.iter().copied())
                .filter(|&c| self.nodes[c as usize].subtree > 0)
                .collect();
            let room = budget - (kept.len() - 1);
            if next.len() > room {
                next.sort_by_key(|&c| (Reverse(self.nodes[c as usize].subtree), c));
                next.truncate(room);
                kept.extend_from_slice(&next);
                break;
            }
            kept.extend_from_slice(&next);
            level = next;
        }
        let mut new_id = vec![u32::MAX; self.nodes.len()];
        for (new, &old) in kept.iter().enumerate() {
            new_id[old as usize] = new as u32;
        }
        let mut nodes = Vec::with_capacity(kept.len());
        for &old in &kept {
            let from = &self.nodes[old as usize];
            let mut node = TrieNode {
                children: Vec::new(),
                ..*from
            };
            for &c in &from.children {
                match new_id[c as usize] {
                    u32::MAX => {
                        node.residual =
                            node.residual.saturating_add(self.nodes[c as usize].subtree);
                    }
                    id => node.children.push(id),
                }
            }
            nodes.push(node);
        }
        self.nodes = nodes;
    }

    /// How many leading steps of `tags` the trie spells out. A document node
    /// whose whole path is spelled out is counted on that path's node,
    /// any other in the residual of the node its path leaves the trie at.
    pub fn matched_prefix(&self, tags: &[TagCode]) -> usize {
        self.walk(tags).len() - 1
    }

    /// Number of document nodes whose root path exactly equals `tags`;
    /// `None` where the path runs into a residual and the trie cannot say.
    pub fn exact_count(&self, tags: &[TagCode]) -> Option<u64> {
        let path = self.walk(tags);
        let last = &self.nodes[path[path.len() - 1] as usize];
        if path.len() > tags.len() {
            Some(last.count)
        } else {
            (last.residual == 0).then_some(0)
        }
    }

    /// The trie state before any step: the virtual root.
    pub fn start_states() -> ChainStates {
        ChainStates {
            exact: vec![0],
            open: Vec::new(),
        }
    }

    /// One NFA step: where a chain ending in `states` can end after `step`.
    /// A planner walks each pattern node's root chain by advancing its
    /// parent's states, so a `//` step sweeps the trie once per pattern
    /// node rather than once per question asked.
    ///
    /// The step may also be taken among folded nodes. Those of an already
    /// open node stay under it; a `//` step reaches the folded nodes of
    /// every trie node it sweeps; a `/` step reaches those of the state it
    /// leaves, unless it names a tag the state spells out as a child (then
    /// no folded child bears that tag).
    pub fn advance(&self, states: &ChainStates, step: PathStep) -> ChainStates {
        let accepts = |n: u32| step.tag.is_none() || step.tag == Some(self.nodes[n as usize].tag);
        let folds = |n: u32| self.nodes[n as usize].residual > 0;
        let mut exact = Vec::new();
        let mut open = states.open.clone();
        match step.axis {
            PathAxis::Child => {
                for &s in &states.exact {
                    let before = exact.len();
                    let kids = &self.nodes[s as usize].children;
                    exact.extend(kids.iter().copied().filter(|&c| accepts(c)));
                    if folds(s) && (step.tag.is_none() || exact.len() == before) {
                        open.push(s);
                    }
                }
            }
            // Below the virtual root lies every node: no walk needed.
            PathAxis::Descendant if states.exact == [0] => {
                let all = 0..self.nodes.len() as u32;
                exact.extend(all.clone().skip(1).filter(|&n| accepts(n)));
                open.extend(all.filter(|&n| folds(n)));
            }
            PathAxis::Descendant => {
                // The states and their strict descendants, each visited once.
                let mut seen = vec![false; self.nodes.len()];
                let mut stack: Vec<u32> = Vec::new();
                for &s in &states.exact {
                    if folds(s) {
                        open.push(s);
                    }
                    stack.extend_from_slice(&self.nodes[s as usize].children);
                }
                while let Some(d) = stack.pop() {
                    if std::mem::replace(&mut seen[d as usize], true) {
                        continue;
                    }
                    if accepts(d) {
                        exact.push(d);
                    }
                    if folds(d) {
                        open.push(d);
                    }
                    stack.extend_from_slice(&self.nodes[d as usize].children);
                }
            }
        }
        for v in [&mut exact, &mut open] {
            v.sort_unstable();
            v.dedup();
        }
        ChainStates { exact, open }
    }

    /// Number of document nodes whose root path satisfies a chain ending
    /// in `states` — the support of a pattern node: exact while the states
    /// are not open, else an upper bound (every folded node an open state
    /// covers is counted in).
    pub fn support_of(&self, states: &ChainStates) -> u64 {
        let exact = states.exact.iter().map(|&s| self.nodes[s as usize].count);
        let open = states.open.iter().map(|&s| self.nodes[s as usize].residual);
        exact.chain(open).fold(0u64, u64::saturating_add)
    }

    /// Number of document nodes at-or-below the nodes a chain ending in
    /// `states` matches — the volume of tree a NoK matcher seeded on them
    /// can touch — counting nested matches once: a walk from the root that
    /// stops at the first match on every branch.
    pub fn subtree_support_of(&self, states: &ChainStates) -> u64 {
        let mut total = 0u64;
        let mut stack: Vec<u32> = vec![0];
        while let Some(n) = stack.pop() {
            if n != 0 && states.exact.binary_search(&n).is_ok() {
                // Covers every match and every residual below it as well.
                total = total.saturating_add(self.nodes[n as usize].subtree);
                continue;
            }
            if states.open.binary_search(&n).is_ok() {
                total = total.saturating_add(self.nodes[n as usize].residual);
            }
            stack.extend_from_slice(&self.nodes[n as usize].children);
        }
        total
    }

    /// Number of distinct root-to-node paths the trie spells out with at
    /// least one node.
    pub fn distinct_paths(&self) -> u64 {
        self.nodes.iter().filter(|n| n.count > 0).count() as u64
    }

    /// Number of document nodes counted only in residuals (0 = the trie is
    /// exact everywhere).
    pub fn folded_nodes(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.residual)
            .fold(0u64, u64::saturating_add)
    }

    /// Number of document nodes the trie accounts for, spelled out or
    /// folded (equals the document node count when it is consistent).
    pub fn total_count(&self) -> u64 {
        self.nodes[0].subtree
    }

    /// Visit the virtual root (empty path) and every node with document
    /// nodes at or below it as `(path, count, residual)`, in canonical
    /// (tag-sorted preorder) order.
    pub fn for_each_node<F: FnMut(&[TagCode], u64, u64)>(&self, mut f: F) {
        // Explicit stack: (node, depth); `path` holds tags above depth.
        let mut path: Vec<TagCode> = Vec::new();
        let mut stack: Vec<(u32, usize)> = vec![(0, 0)];
        while let Some((n, depth)) = stack.pop() {
            let node = &self.nodes[n as usize];
            if n != 0 {
                path.truncate(depth - 1);
                path.push(node.tag);
            }
            f(&path, node.count, node.residual);
            let live = |&&c: &&u32| self.nodes[c as usize].subtree > 0;
            for &c in node.children.iter().rev().filter(live) {
                stack.push((c, depth + 1));
            }
        }
    }
}

/// What the synopsis keeps per tag.
#[derive(Debug, Clone, Copy, Default)]
struct TagStat {
    /// Nodes with the tag.
    count: u64,
    /// The deepest level (the root element is level 1) a node with the tag
    /// has had; never lowered.
    depth: u16,
}

/// The full synopsis: tag counters and depth bounds + path trie. Held as a
/// single `Arc<Synopsis>` by `XmlDb` and by every published `DbGeneration`.
#[derive(Debug, Clone, Default)]
pub struct Synopsis {
    tags: HashMap<TagCode, TagStat>,
    paths: PathTrie,
}

impl Synopsis {
    /// An empty synopsis.
    pub fn new() -> Synopsis {
        Synopsis::default()
    }

    /// The synopsis of a whole document, from the `(tag, level)` of its
    /// nodes in document order. The trie grows without bound during the
    /// pass and is folded once, so that the budget goes to the shallowest
    /// paths and not to the first met.
    pub fn of_document<E>(
        nodes: impl IntoIterator<Item = Result<(TagCode, u16), E>>,
    ) -> Result<Synopsis, E> {
        let mut syn = Synopsis::new();
        syn.paths.budget = usize::MAX;
        let mut chain: Vec<TagCode> = Vec::new();
        for node in nodes {
            let (tag, level) = node?;
            syn.count_node(&mut chain, tag, level);
        }
        syn.fold_to(TRIE_NODE_BUDGET);
        Ok(syn)
    }

    // ---- read API -------------------------------------------------------

    /// Number of nodes with tag `tag`.
    pub fn tag_count(&self, tag: TagCode) -> u64 {
        self.tags.get(&tag).map_or(0, |s| s.count)
    }

    /// Iterate `(tag, count)` pairs (unordered).
    pub fn tag_counts(&self) -> impl Iterator<Item = (TagCode, u64)> + '_ {
        self.tags.iter().map(|(&t, s)| (t, s.count))
    }

    /// The deepest level a node with tag `tag` has had (0: none ever has).
    /// No node with the tag sits deeper, so none opens below a node at
    /// that level or deeper.
    pub fn depth_bound(&self, tag: TagCode) -> u16 {
        self.tags.get(&tag).map_or(0, |s| s.depth)
    }

    /// The path summary.
    pub fn paths(&self) -> &PathTrie {
        &self.paths
    }

    /// Number of distinct root-to-node paths the summary spells out.
    pub fn distinct_paths(&self) -> u64 {
        self.paths.distinct_paths()
    }

    // ---- mutation API (confined to core::{build, update, synopsis}) -----

    /// Add `n` nodes of tag `tag`.
    pub fn add_tag_count(&mut self, tag: TagCode, n: u64) {
        let s = self.tags.entry(tag).or_default();
        s.count = s.count.saturating_add(n);
    }

    /// Remove `n` nodes of tag `tag` (saturating; the entry and its depth
    /// bound stay).
    pub fn sub_tag_count(&mut self, tag: TagCode, n: u64) {
        if let Some(s) = self.tags.get_mut(&tag) {
            s.count = s.count.saturating_sub(n);
        }
    }

    /// Record a node with tag `tag` at `level`: raise the tag's depth
    /// bound to it.
    pub fn raise_depth_bound(&mut self, tag: TagCode, level: u16) {
        let s = self.tags.entry(tag).or_default();
        s.depth = s.depth.max(level);
    }

    /// Add `n` nodes whose root path is `tags`.
    pub fn add_path_count(&mut self, tags: &[TagCode], n: u64) {
        self.paths.add_path_count(tags, n);
    }

    /// Remove `n` nodes whose root path is `tags`.
    pub fn sub_path_count(&mut self, tags: &[TagCode], n: u64) {
        self.paths.sub_path_count(tags, n);
    }

    /// Count one document node met in document order: `chain` is the
    /// caller's tag stack, cut here to the node's level and extended by its
    /// tag, which makes it the node's root path. Raises the tag's depth
    /// bound to the level.
    pub fn count_node(&mut self, chain: &mut Vec<TagCode>, tag: TagCode, level: u16) {
        chain.truncate(usize::from(level).saturating_sub(1));
        chain.push(tag);
        self.add_tag_count(tag, 1);
        self.raise_depth_bound(tag, level);
        self.paths.add_path_count(chain, 1);
    }

    /// Uncount one document node; the mirror of [`Synopsis::count_node`],
    /// except that the depth bound stays.
    pub fn uncount_node(&mut self, chain: &mut Vec<TagCode>, tag: TagCode, level: u16) {
        chain.truncate(usize::from(level).saturating_sub(1));
        chain.push(tag);
        self.sub_tag_count(tag, 1);
        self.paths.sub_path_count(chain, 1);
    }

    /// Fold the path summary to `budget` nodes (see [`PathTrie::fold_to`]);
    /// every store folds to [`TRIE_NODE_BUDGET`].
    pub fn fold_to(&mut self, budget: usize) {
        self.paths.fold_to(budget);
    }

    // ---- persistence ----------------------------------------------------

    /// Serialize as the `stats.blk` payload. `node_count` is stored for
    /// the staleness check on open.
    pub fn to_bytes(&self, node_count: u64) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(SYNOPSIS_MAGIC);
        out.extend_from_slice(&SYNOPSIS_VERSION.to_be_bytes());
        out.extend_from_slice(&node_count.to_be_bytes());

        // Tags: code, count, depth bound.
        let mut tags: Vec<(TagCode, TagStat)> = self.tags.iter().map(|(&t, &s)| (t, s)).collect();
        tags.sort_unstable_by_key(|&(t, _)| t);
        out.extend_from_slice(&(tags.len() as u32).to_be_bytes());
        for (t, s) in &tags {
            out.extend_from_slice(&t.0.to_be_bytes());
            out.extend_from_slice(&s.count.to_be_bytes());
            out.extend_from_slice(&s.depth.to_be_bytes());
        }

        // Path trie: the number of live (nonzero-subtree) nodes below the
        // virtual root, then a preorder varint stream over them. Layout per
        // node: tag, count, residual, child-count; the virtual root comes
        // first and contributes only its residual and child-count. An
        // explicit stack keeps document depth out of the recursion depth.
        let nodes = &self.paths.nodes;
        let live = |&&c: &&u32| nodes[c as usize].subtree > 0;
        let live_below_root = nodes.iter().skip(1).filter(|n| n.subtree > 0).count();
        out.extend_from_slice(&(live_below_root as u32).to_be_bytes());
        let mut stack: Vec<u32> = vec![0];
        while let Some(n) = stack.pop() {
            let node = &nodes[n as usize];
            if n != 0 {
                write_varint(&mut out, u64::from(node.tag.0));
                write_varint(&mut out, node.count);
            }
            write_varint(&mut out, node.residual);
            write_varint(&mut out, node.children.iter().filter(live).count() as u64);
            stack.extend(node.children.iter().rev().filter(live));
        }
        out
    }

    /// Parse a block. Returns the stored node count (for the staleness
    /// check) and the synopsis. `None` on anything unexpected — wrong or
    /// old (`NOKSTATS`) magic, another version, more trie nodes than
    /// [`TRIE_NODE_BUDGET`], truncation, trailing garbage, or malformed
    /// varints; callers rebuild from the document.
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
        syn.tags.reserve(tag_n.min(1 << 16));
        for _ in 0..tag_n {
            let t = u16::from_be_bytes(take(&mut pos, 2)?.try_into().ok()?);
            let count = u64::from_be_bytes(take(&mut pos, 8)?.try_into().ok()?);
            let depth = u16::from_be_bytes(take(&mut pos, 2)?.try_into().ok()?);
            syn.tags.insert(TagCode(t), TagStat { count, depth });
        }

        let path_n = u32::from_be_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
        if path_n > TRIE_NODE_BUDGET {
            return None;
        }
        syn.paths.nodes.reserve(path_n);
        let root_residual = read_varint(b, &mut pos)?;
        syn.paths.nodes[0].residual = root_residual;
        syn.paths.nodes[0].subtree = root_residual;
        let root_kids = read_varint(b, &mut pos)?;
        // Decode preorder with an explicit frame stack: each frame is a
        // (parent, remaining-children) pair. The declared node count bounds
        // the loop, so adversarial child counts cannot balloon.
        let mut decoded = 0usize;
        let mut frames: Vec<(u32, u64)> = vec![(0, root_kids)];
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
            let tag = TagCode(u16::try_from(read_varint(b, &mut pos)?).ok()?);
            let mut node = TrieNode::new(tag);
            node.count = read_varint(b, &mut pos)?;
            node.residual = read_varint(b, &mut pos)?;
            node.subtree = node.count.saturating_add(node.residual);
            let kids = read_varint(b, &mut pos)?;
            let id = syn.paths.nodes.len() as u32;
            syn.paths.nodes.push(node);
            // Siblings must arrive in strictly increasing tag order — the
            // canonical form our encoder writes, and the invariant that
            // keeps `child_of`'s binary search valid after decode.
            let siblings = &syn.paths.nodes[parent as usize].children;
            if let Some(&last) = siblings.last() {
                if syn.paths.nodes[last as usize].tag >= tag {
                    return None;
                }
            }
            syn.paths.nodes[parent as usize].children.push(id);
            frames.push((id, kids));
        }
        if decoded != path_n || pos != b.len() {
            return None;
        }
        Some((node_count, syn))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tc(n: u16) -> TagCode {
        TagCode(n)
    }

    const ANY_DESC: PathStep = PathStep {
        axis: PathAxis::Descendant,
        tag: None,
    };

    fn sample() -> Synopsis {
        // <a><b><c/><c/></b><b/><d/></a>
        let mut s = Synopsis::new();
        s.add_tag_count(tc(1), 1); // a
        s.add_tag_count(tc(2), 2); // b
        s.add_tag_count(tc(3), 2); // c
        s.add_tag_count(tc(4), 1); // d
        s.add_path_count(&[tc(1)], 1);
        s.add_path_count(&[tc(1), tc(2)], 2);
        s.add_path_count(&[tc(1), tc(2), tc(3)], 2);
        s.add_path_count(&[tc(1), tc(4)], 1);
        s
    }

    impl PathTrie {
        /// Where a chain of steps can end (NFA-style walk from the root).
        fn accepting(&self, steps: &[PathStep]) -> ChainStates {
            steps
                .iter()
                .fold(Self::start_states(), |st, &step| self.advance(&st, step))
        }
    }

    fn support(s: &Synopsis, steps: &[PathStep]) -> u64 {
        s.paths.support_of(&s.paths.accepting(steps))
    }

    fn subtree_support(s: &Synopsis, steps: &[PathStep]) -> u64 {
        s.paths.subtree_support_of(&s.paths.accepting(steps))
    }

    #[test]
    fn counts_round_trip() {
        let s = sample();
        let bytes = s.to_bytes(6);
        let (nc, d) = Synopsis::from_bytes(&bytes).expect("decode failed");
        assert_eq!(nc, 6);
        assert_eq!(d.tag_count(tc(2)), 2);
        assert_eq!(d.distinct_paths(), 4);
        assert_eq!(d.paths().exact_count(&[tc(1), tc(2), tc(3)]), Some(2));
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
    fn other_versions_rejected() {
        let mut bytes = sample().to_bytes(6);
        assert_eq!(bytes[8..10], SYNOPSIS_VERSION.to_be_bytes());
        for old in [2u16, 3] {
            bytes[8..10].copy_from_slice(&old.to_be_bytes());
            assert!(Synopsis::from_bytes(&bytes).is_none());
        }
    }

    /// A node raises its tag's depth bound as it is counted; uncounting it
    /// leaves the bound, which survives the block codec.
    #[test]
    fn depth_bounds_rise_with_counted_nodes_and_stay() {
        // <a><b><c/></b><c/></a>, then <b><c><c/></c></b> under the first b.
        let mut s = Synopsis::new();
        let mut chain = Vec::new();
        for (t, level) in [(1, 1), (2, 2), (3, 3), (3, 2)] {
            s.count_node(&mut chain, tc(t), level);
        }
        assert_eq!(
            [1, 2, 3, 4].map(|t| s.depth_bound(tc(t))),
            [1, 2, 3, 0],
            "c's deepest is level 3"
        );
        let mut chain = vec![tc(1), tc(2)];
        for (t, level) in [(2, 3), (3, 4), (3, 5)] {
            s.count_node(&mut chain, tc(t), level);
        }
        assert_eq!([2, 3].map(|t| s.depth_bound(tc(t))), [3, 5]);
        let mut chain = vec![tc(1), tc(2)];
        for (t, level) in [(2, 3), (3, 4), (3, 5)] {
            s.uncount_node(&mut chain, tc(t), level);
        }
        assert_eq!(s.tag_count(tc(3)), 2);
        assert_eq!([2, 3].map(|t| s.depth_bound(tc(t))), [3, 5]);
        let bytes = s.to_bytes(4);
        let (_, d) = Synopsis::from_bytes(&bytes).expect("decode failed");
        assert_eq!([1, 2, 3, 4].map(|t| d.depth_bound(tc(t))), [1, 3, 5, 0]);
        assert_eq!(d.to_bytes(4), bytes);
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
            support(&s, &[PathStep::child(tc(1)), PathStep::child(tc(2))]),
            2
        );
        // //c
        assert_eq!(support(&s, &[PathStep::descendant(tc(3))]), 2);
        // //b//c
        assert_eq!(
            support(
                &s,
                &[PathStep::descendant(tc(2)), PathStep::descendant(tc(3))]
            ),
            2
        );
        // //d//c — zero support, and a proof of it.
        let d_c = [PathStep::descendant(tc(4)), PathStep::descendant(tc(3))];
        assert_eq!(support(&s, &d_c), 0);
        assert!(s.paths.accepting(&d_c).is_empty());
        // wildcard child of root: just a.
        let any_child = PathStep {
            axis: PathAxis::Child,
            tag: None,
        };
        assert_eq!(support(&s, &[any_child]), 1);
        // //* = every node.
        assert_eq!(support(&s, &[ANY_DESC]), 6);
    }

    #[test]
    fn subtree_support_dedups_nested_matches() {
        let s = sample();
        // //b subtrees: first b holds {b, c, c}, second {b} → 4 nodes.
        assert_eq!(subtree_support(&s, &[PathStep::descendant(tc(2))]), 4);
        // //a subtree is the whole document.
        assert_eq!(subtree_support(&s, &[PathStep::descendant(tc(1))]), 6);
        // //* must not double-count nested subtrees.
        assert_eq!(subtree_support(&s, &[ANY_DESC]), 6);
    }

    /// The maintained subtree sums must equal a recount after inserts,
    /// deletes (including over-deletes, which saturate), a fold and a
    /// decode.
    #[test]
    fn subtree_sums_follow_every_count_change() {
        fn recount(t: &PathTrie, n: u32) -> u64 {
            let node = &t.nodes[n as usize];
            node.count + node.residual + node.children.iter().map(|&c| recount(t, c)).sum::<u64>()
        }
        let check = |s: &Synopsis| {
            for n in 0..s.paths.nodes.len() as u32 {
                assert_eq!(s.paths.nodes[n as usize].subtree, recount(&s.paths, n));
            }
        };
        let mut s = sample();
        check(&s);
        s.sub_path_count(&[tc(1), tc(2), tc(3)], 1);
        s.sub_path_count(&[tc(1), tc(4)], 5); // only one to take
        s.sub_path_count(&[tc(9)], 1); // no such path
        s.add_path_count(&[tc(1), tc(2), tc(3), tc(5)], 7);
        check(&s);
        let total = s.paths.total_count();
        assert_eq!(total, 1 + 2 + 1 + 7);
        let (_, decoded) = Synopsis::from_bytes(&s.to_bytes(0)).expect("decode failed");
        check(&decoded);
        assert_eq!(decoded.paths.total_count(), total);
        let a_b = [PathStep::child(tc(1)), PathStep::child(tc(2))];
        assert_eq!(subtree_support(&s, &a_b), 2 + 1 + 7);
        assert_eq!(subtree_support(&s, &[ANY_DESC]), total);
        s.fold_to(2);
        check(&s);
        assert_eq!(s.paths.total_count(), total);
        assert_eq!(subtree_support(&s, &[ANY_DESC]), total);
    }

    #[test]
    fn deletion_prunes_encoded_paths() {
        let mut s = sample();
        s.sub_path_count(&[tc(1), tc(2), tc(3)], 2);
        assert_eq!(s.distinct_paths(), 3);
        let bytes = s.to_bytes(4);
        let (_, d) = Synopsis::from_bytes(&bytes).expect("decode failed");
        assert_eq!(d.paths().exact_count(&[tc(1), tc(2), tc(3)]), Some(0));
        assert_eq!(d.paths().matched_prefix(&[tc(1), tc(2), tc(3)]), 2);
        assert_eq!(d.distinct_paths(), 3);
    }

    /// Folding keeps whole levels from the top, then the heaviest subtrees;
    /// the rest becomes its parent's residual, which opens every chain that
    /// could continue there and closes it to zero-support proofs.
    #[test]
    fn folded_paths_become_open_upper_bounds() {
        let mut s = sample();
        s.fold_to(2); // keeps /a and /a/b (volume 4); /a/d and /a/b/c fold
        assert_eq!(s.paths.nodes.len(), 3);
        assert_eq!(s.distinct_paths(), 2);
        assert_eq!(s.paths.folded_nodes(), 3);
        assert_eq!(s.paths.exact_count(&[tc(1), tc(2)]), Some(2));
        assert_eq!(s.paths.exact_count(&[tc(1), tc(4)]), None);
        assert_eq!(s.paths.exact_count(&[tc(9)]), Some(0), "root is exact");
        // /a/b is spelled out: exact, though /a has folded children.
        let a_b = s
            .paths
            .accepting(&[PathStep::child(tc(1)), PathStep::child(tc(2))]);
        assert!(!a_b.is_open());
        assert_eq!(s.paths.support_of(&a_b), 2);
        // /a/d may be among /a's folded children; so may /a/x, which no
        // document node bears: an upper bound, never a proof.
        for t in [4, 9] {
            let st = s
                .paths
                .accepting(&[PathStep::child(tc(1)), PathStep::child(tc(t))]);
            assert!(st.is_open() && !st.is_empty());
            assert_eq!(s.paths.support_of(&st), 1);
        }
        // //c: every residual may hide one.
        let c = s.paths.accepting(&[PathStep::descendant(tc(3))]);
        assert_eq!(s.paths.support_of(&c), 3);
        // /a/b//c sweeps only /a/b's residual.
        let b_c = s.paths.accepting(&[
            PathStep::child(tc(1)),
            PathStep::child(tc(2)),
            PathStep::descendant(tc(3)),
        ]);
        assert_eq!(s.paths.support_of(&b_c), 2);
        assert_eq!(s.paths.subtree_support_of(&b_c), 2);

        // Updates follow the kept shape: below a residual nothing grows.
        s.add_path_count(&[tc(1), tc(2), tc(7)], 1);
        s.add_path_count(&[tc(1), tc(4), tc(7)], 1);
        assert_eq!(s.paths.nodes.len(), 3);
        assert_eq!(s.paths.folded_nodes(), 5);
        s.sub_path_count(&[tc(1), tc(2), tc(3)], 2);
        s.sub_path_count(&[tc(1), tc(2), tc(7)], 1);
        // /a/b's residual is back to zero, but the budget is spent.
        assert_eq!(s.paths.exact_count(&[tc(1), tc(2), tc(3)]), Some(0));
        s.add_path_count(&[tc(1), tc(2), tc(3)], 1);
        assert_eq!(s.paths.exact_count(&[tc(1), tc(2), tc(3)]), None);
        let bytes = s.to_bytes(0);
        let (_, d) = Synopsis::from_bytes(&bytes).expect("decode failed");
        assert_eq!(d.paths.folded_nodes(), 3);
        assert_eq!(d.to_bytes(0), bytes);
    }

    #[test]
    fn a_child_grows_only_under_an_exact_node_with_budget_left() {
        let mut s = sample();
        s.fold_to(4); // fits: nothing folds, no room is left
        assert_eq!(s.paths.folded_nodes(), 0);
        s.add_path_count(&[tc(1), tc(5)], 1);
        assert_eq!(s.paths.exact_count(&[tc(1), tc(5)]), None);
        s.fold_to(5); // room for one more node, but /a now has a residual
        s.add_path_count(&[tc(1), tc(6)], 1);
        assert_eq!(s.paths.nodes.len(), 5);
        s.add_path_count(&[tc(1), tc(4), tc(6)], 1); // /a/d is exact
        assert_eq!(s.paths.exact_count(&[tc(1), tc(4), tc(6)]), Some(1));
        assert_eq!(s.paths.folded_nodes(), 2);
    }

    /// Hand-craft a block around a trie body.
    fn block(path_n: u32, body: &[u64]) -> Vec<u8> {
        let mut b = Vec::new();
        b.extend_from_slice(SYNOPSIS_MAGIC);
        b.extend_from_slice(&SYNOPSIS_VERSION.to_be_bytes());
        b.extend_from_slice(&2u64.to_be_bytes()); // node_count
        b.extend_from_slice(&0u32.to_be_bytes()); // tag_n
        b.extend_from_slice(&path_n.to_be_bytes());
        for &v in body {
            write_varint(&mut b, v);
        }
        b
    }

    #[test]
    fn unsorted_children_rejected() {
        // Sibling tags out of order: the decoder must reject the stream to
        // keep binary search valid. Root: residual 0, two children; per
        // node: tag, count, residual, children.
        assert!(Synopsis::from_bytes(&block(2, &[0, 2, 2, 1, 0, 0, 1, 1, 0, 0])).is_none());
        // The sorted variant decodes fine.
        assert!(Synopsis::from_bytes(&block(2, &[0, 2, 1, 1, 0, 0, 2, 1, 0, 0])).is_some());
    }

    #[test]
    fn lying_path_count_reserves_for_the_bytes_it_has() {
        // A block is refused by its declared node count, before anything
        // is reserved for it.
        let body = [0, 1, 1, 1, 0, 0];
        assert!(Synopsis::from_bytes(&block(1, &body)).is_some());
        assert!(Synopsis::from_bytes(&block(TRIE_NODE_BUDGET as u32 + 1, &body)).is_none());
        assert!(Synopsis::from_bytes(&block(u32::MAX, &body)).is_none());
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
