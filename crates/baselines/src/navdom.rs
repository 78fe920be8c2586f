//! A navigational engine over a **persistent DOM** — the stand-in for
//! X-Hive/DB (closed source, unobtainable; see DESIGN.md).
//!
//! Architecture, typical of the native XML databases of the paper's era:
//!
//! * every node is a fixed 36-byte record (tag code, parent / first-child /
//!   next-sibling pointers, child index, level, subtree end, value pointer)
//!   stored in pages behind a buffer pool — navigation is pointer chasing
//!   with page I/O;
//! * a tag-name B+ tree and a hashed-value B+ tree provide candidate sets
//!   for selective descendant steps (this is why such systems shine on
//!   high-selectivity queries and degrade on structural scans);
//! * node ids are assigned in document order, so `following::` and
//!   document-order sorting are id comparisons, and each node stores the
//!   id of the last node in its subtree.

use std::collections::HashSet;
use std::sync::Arc;

use nok_btree::BTree;
use nok_core::pattern::{Axis, NameTest, PathExpr, Predicate, Step};
use nok_core::values::{hash_key, DataFile};
use nok_core::{CoreError, CoreResult, Dewey, TagCode, TagDict};
use nok_pager::codec::{get_u16, get_u32, get_u64, put_u16, put_u32, put_u64};
use nok_pager::{BufferPool, MemStorage, Storage};
use nok_xml::{Event, Reader};

use crate::Engine;

/// Record layout offsets (36 bytes per node).
const OFF_TAG: usize = 0; // u16
const OFF_PARENT: usize = 2; // u32
const OFF_FIRST_CHILD: usize = 6; // u32
const OFF_NEXT_SIB: usize = 10; // u32
const OFF_CHILD_IDX: usize = 14; // u32
const OFF_LEVEL: usize = 18; // u16
const OFF_SUBTREE_END: usize = 20; // u32
const OFF_VALUE: usize = 24; // u64 (u64::MAX = none)
const OFF_VALUE_LEN: usize = 32; // u32
const RECORD_SIZE: usize = 36;

/// Sentinel "no node".
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct NodeRec {
    tag: TagCode,
    parent: u32,
    first_child: u32,
    next_sib: u32,
    child_idx: u32,
    level: u16,
    subtree_end: u32,
    value: Option<(u64, u32)>,
}

/// The persistent-DOM navigational engine.
pub struct NavDomEngine<S: Storage = MemStorage> {
    pool: Arc<BufferPool<S>>,
    dict: TagDict,
    data: DataFile<S>,
    bt_tag: BTree<S>,
    bt_val: BTree<S>,
    node_count: u32,
    records_per_page: usize,
}

impl NavDomEngine<MemStorage> {
    /// Build an in-memory instance from XML text.
    pub fn new(xml: &str) -> CoreResult<Self> {
        let pool = Arc::new(BufferPool::new(MemStorage::new()));
        let tag_pool = Arc::new(BufferPool::new(MemStorage::new()));
        let val_pool = Arc::new(BufferPool::new(MemStorage::new()));
        let data = DataFile::create(Arc::new(BufferPool::new(MemStorage::new())))?;
        Self::build(xml, pool, tag_pool, val_pool, data)
    }
}

impl<S: Storage> NavDomEngine<S> {
    /// Build from XML into the given pools.
    pub fn build(
        xml: &str,
        pool: Arc<BufferPool<S>>,
        tag_pool: Arc<BufferPool<S>>,
        val_pool: Arc<BufferPool<S>>,
        mut data: DataFile<S>,
    ) -> CoreResult<Self> {
        let records_per_page = pool.page_size() / RECORD_SIZE;
        let mut dict = TagDict::new();
        let mut engine_nodes: Vec<NodeRec> = Vec::new();
        // Last child per node (build-time only) for O(1) sibling appends.
        let mut last_child: Vec<u32> = Vec::new();
        let mut stack: Vec<u32> = Vec::new();
        let mut child_counters: Vec<u32> = Vec::new();
        let mut texts: Vec<String> = Vec::new();
        let mut tag_postings: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let mut val_postings: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();

        for ev in Reader::content_only(xml) {
            match ev? {
                Event::Start { name, attrs } => {
                    let id = engine_nodes.len() as u32;
                    let tag = dict.intern(&name);
                    let child_idx = child_counters.last_mut().map_or(0, |c| {
                        let i = *c;
                        *c += 1;
                        i
                    });
                    let parent = stack.last().copied().unwrap_or(NIL);
                    link_new_child(&mut engine_nodes, &mut last_child, parent, id);
                    engine_nodes.push(NodeRec {
                        tag,
                        parent,
                        first_child: NIL,
                        next_sib: NIL,
                        child_idx,
                        level: stack.len() as u16 + 1,
                        subtree_end: id,
                        value: None,
                    });
                    tag_postings.push((tag.to_key().to_vec(), id.to_be_bytes().to_vec()));
                    stack.push(id);
                    child_counters.push(0);
                    texts.push(String::new());
                    for a in &attrs {
                        let aid = engine_nodes.len() as u32;
                        let atag = dict.intern_attr(&a.name);
                        let aidx = {
                            let c = child_counters.last_mut().expect("open");
                            let i = *c;
                            *c += 1;
                            i
                        };
                        link_new_child(&mut engine_nodes, &mut last_child, id, aid);
                        let (off, len) = data.put(&a.value)?;
                        engine_nodes.push(NodeRec {
                            tag: atag,
                            parent: id,
                            first_child: NIL,
                            next_sib: NIL,
                            child_idx: aidx,
                            level: stack.len() as u16 + 1,
                            subtree_end: aid,
                            value: Some((off, len)),
                        });
                        tag_postings.push((atag.to_key().to_vec(), aid.to_be_bytes().to_vec()));
                        val_postings
                            .push((hash_key(&a.value).to_vec(), aid.to_be_bytes().to_vec()));
                    }
                }
                Event::Text(t) => {
                    if let Some(buf) = texts.last_mut() {
                        buf.push_str(&t);
                    }
                }
                Event::End { .. } => {
                    let id = stack.pop().expect("balanced");
                    let end = engine_nodes.len() as u32 - 1;
                    engine_nodes[id as usize].subtree_end = end;
                    let text = texts.pop().unwrap_or_default();
                    if !text.trim().is_empty() {
                        let (off, len) = data.put(&text)?;
                        engine_nodes[id as usize].value = Some((off, len));
                        val_postings.push((hash_key(&text).to_vec(), id.to_be_bytes().to_vec()));
                    }
                    child_counters.pop();
                }
                _ => {}
            }
        }

        // Materialize records into pages.
        let node_count = engine_nodes.len() as u32;
        for (i, rec) in engine_nodes.iter().enumerate() {
            let page_no = i / records_per_page;
            while pool.page_count() <= page_no as u32 {
                pool.allocate()?;
            }
            let handle = pool.get(page_no as u32)?;
            let mut buf = handle.write();
            let off = (i % records_per_page) * RECORD_SIZE;
            write_record(&mut buf[off..off + RECORD_SIZE], rec);
        }

        tag_postings.sort_by(|a, b| a.0.cmp(&b.0));
        let bt_tag = BTree::bulk_load(tag_pool, tag_postings, 0.9)?;
        val_postings.sort_by(|a, b| a.0.cmp(&b.0));
        let bt_val = BTree::bulk_load(val_pool, val_postings, 0.9)?;
        Ok(NavDomEngine {
            pool,
            dict,
            data,
            bt_tag,
            bt_val,
            node_count,
            records_per_page,
        })
    }

    /// The buffer pool (I/O statistics).
    pub fn pool(&self) -> &BufferPool<S> {
        &self.pool
    }

    /// Total footprint of the DOM pages.
    pub fn footprint_bytes(&self) -> u64 {
        self.pool.page_count() as u64 * self.pool.page_size() as u64
            + self.bt_tag.footprint_bytes()
            + self.bt_val.footprint_bytes()
    }

    fn read(&self, id: u32) -> CoreResult<NodeRec> {
        if id >= self.node_count {
            return Err(CoreError::Corrupt(format!("navdom node {id} out of range")));
        }
        let page_no = id as usize / self.records_per_page;
        let handle = self.pool.get(page_no as u32)?;
        let buf = handle.read();
        let off = (id as usize % self.records_per_page) * RECORD_SIZE;
        Ok(read_record(&buf[off..off + RECORD_SIZE]))
    }

    fn value_of(&self, rec: &NodeRec) -> CoreResult<Option<String>> {
        match rec.value {
            Some((off, _)) => Ok(Some(self.data.get_record(off)?)),
            None => Ok(None),
        }
    }

    fn dewey_of(&self, id: u32) -> CoreResult<Dewey> {
        let mut comps = Vec::new();
        let mut cur = id;
        loop {
            let rec = self.read(cur)?;
            comps.push(rec.child_idx);
            if rec.parent == NIL {
                break;
            }
            cur = rec.parent;
        }
        comps.reverse();
        Ok(Dewey::from_components(comps))
    }

    fn test_matches(&self, rec: &NodeRec, test: &NameTest) -> bool {
        match test {
            NameTest::Wildcard => !self.dict.name(rec.tag).starts_with('@'),
            NameTest::Tag(t) => self.dict.lookup(t) == Some(rec.tag),
        }
    }

    /// Candidates of one step from a context set (`None` = document node).
    fn axis_candidates(&self, ctx: &[Option<u32>], step: &Step) -> CoreResult<Vec<u32>> {
        let mut out: Vec<u32> = Vec::new();
        match step.axis {
            Axis::Child => {
                for c in ctx {
                    match c {
                        None => {
                            if self.node_count > 0 {
                                let rec = self.read(0)?;
                                if self.test_matches(&rec, &step.test) {
                                    out.push(0);
                                }
                            }
                        }
                        Some(id) => {
                            let mut child = self.read(*id)?.first_child;
                            while child != NIL {
                                let rec = self.read(child)?;
                                if self.test_matches(&rec, &step.test) {
                                    out.push(child);
                                }
                                child = rec.next_sib;
                            }
                        }
                    }
                }
            }
            Axis::Descendant => {
                // Index route for selective tags; otherwise subtree walk.
                if let NameTest::Tag(t) = &step.test {
                    if let Some(code) = self.dict.lookup(t) {
                        let postings = self.bt_tag.get_all(&code.to_key())?;
                        if postings.len() * 4 <= self.node_count as usize {
                            // Each context is an id range: the document node
                            // admits everything; an element admits the ids
                            // strictly inside its subtree.
                            let mut ranges: Vec<(u32, u32)> = Vec::with_capacity(ctx.len());
                            for c in ctx {
                                ranges.push(match c {
                                    None => (0, self.node_count),
                                    Some(id) => (*id + 1, self.read(*id)?.subtree_end + 1),
                                });
                            }
                            'post: for p in postings {
                                let id = u32::from_be_bytes(p[..4].try_into().expect("4B"));
                                for &(from, to) in &ranges {
                                    if id >= from && id < to {
                                        out.push(id);
                                        continue 'post;
                                    }
                                }
                            }
                            out.sort_unstable();
                            out.dedup();
                            return Ok(out);
                        }
                    } else {
                        return Ok(out); // tag unseen: no matches
                    }
                }
                // Traversal route.
                for c in ctx {
                    let (from, to) = match c {
                        None => (0u32, self.node_count),
                        Some(id) => {
                            let rec = self.read(*id)?;
                            (*id + 1, rec.subtree_end + 1)
                        }
                    };
                    for id in from..to {
                        let rec = self.read(id)?;
                        if self.test_matches(&rec, &step.test) {
                            out.push(id);
                        }
                    }
                }
            }
            Axis::FollowingSibling => {
                for c in ctx {
                    let Some(id) = c else { continue };
                    let mut sib = self.read(*id)?.next_sib;
                    while sib != NIL {
                        let rec = self.read(sib)?;
                        if self.test_matches(&rec, &step.test) {
                            out.push(sib);
                        }
                        sib = rec.next_sib;
                    }
                }
            }
            Axis::Following => {
                for c in ctx {
                    let Some(id) = c else { continue };
                    let end = self.read(*id)?.subtree_end;
                    for cand in end + 1..self.node_count {
                        let rec = self.read(cand)?;
                        if self.test_matches(&rec, &step.test) {
                            out.push(cand);
                        }
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        Ok(out)
    }

    fn pred_holds(&self, ctx: u32, pred: &Predicate) -> CoreResult<bool> {
        if pred.path.is_empty() {
            let rec = self.read(ctx)?;
            let Some(v) = self.value_of(&rec)? else {
                return Ok(false);
            };
            return Ok(pred.cmp.as_ref().is_some_and(|c| c.eval(&v)));
        }
        let mut cur: Vec<u32> = vec![ctx];
        for step in &pred.path {
            let ctx_opts: Vec<Option<u32>> = cur.iter().map(|&i| Some(i)).collect();
            let mut next = self.axis_candidates(&ctx_opts, step)?;
            next.retain(|&n| {
                step.predicates
                    .iter()
                    .all(|p| self.pred_holds(n, p).unwrap_or(false))
            });
            cur = next;
            if cur.is_empty() {
                return Ok(false);
            }
        }
        match &pred.cmp {
            None => Ok(!cur.is_empty()),
            Some(c) => {
                for id in cur {
                    let rec = self.read(id)?;
                    if self.value_of(&rec)?.is_some_and(|v| c.eval(&v)) {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
        }
    }

    /// Value-index shortcut: nodes with a given value, verified.
    fn value_candidates(&self, lit: &str) -> CoreResult<HashSet<u32>> {
        let mut out = HashSet::new();
        for p in self.bt_val.get_all(&hash_key(lit))? {
            let id = u32::from_be_bytes(p[..4].try_into().expect("4B"));
            let rec = self.read(id)?;
            if self.value_of(&rec)?.as_deref() == Some(lit) {
                out.insert(id);
            }
        }
        Ok(out)
    }
}

fn link_new_child(nodes: &mut [NodeRec], last_child: &mut Vec<u32>, parent: u32, child: u32) {
    // `child` is about to be pushed at index == child; extend the
    // last-child table alongside.
    while last_child.len() <= child as usize {
        last_child.push(NIL);
    }
    if parent == NIL {
        return;
    }
    let prev = last_child[parent as usize];
    if prev == NIL {
        nodes[parent as usize].first_child = child;
    } else {
        nodes[prev as usize].next_sib = child;
    }
    last_child[parent as usize] = child;
}

fn write_record(buf: &mut [u8], r: &NodeRec) {
    put_u16(buf, OFF_TAG, r.tag.0);
    put_u32(buf, OFF_PARENT, r.parent);
    put_u32(buf, OFF_FIRST_CHILD, r.first_child);
    put_u32(buf, OFF_NEXT_SIB, r.next_sib);
    put_u32(buf, OFF_CHILD_IDX, r.child_idx);
    put_u16(buf, OFF_LEVEL, r.level);
    put_u32(buf, OFF_SUBTREE_END, r.subtree_end);
    match r.value {
        Some((off, len)) => {
            put_u64(buf, OFF_VALUE, off);
            put_u32(buf, OFF_VALUE_LEN, len);
        }
        None => {
            put_u64(buf, OFF_VALUE, u64::MAX);
            put_u32(buf, OFF_VALUE_LEN, 0);
        }
    }
}

fn read_record(buf: &[u8]) -> NodeRec {
    let voff = get_u64(buf, OFF_VALUE);
    NodeRec {
        tag: TagCode(get_u16(buf, OFF_TAG)),
        parent: get_u32(buf, OFF_PARENT),
        first_child: get_u32(buf, OFF_FIRST_CHILD),
        next_sib: get_u32(buf, OFF_NEXT_SIB),
        child_idx: get_u32(buf, OFF_CHILD_IDX),
        level: get_u16(buf, OFF_LEVEL),
        subtree_end: get_u32(buf, OFF_SUBTREE_END),
        value: if voff == u64::MAX {
            None
        } else {
            Some((voff, get_u32(buf, OFF_VALUE_LEN)))
        },
    }
}

impl<S: Storage> Engine for NavDomEngine<S> {
    fn name(&self) -> &'static str {
        "NavDOM"
    }

    fn eval(&self, path: &str) -> CoreResult<Vec<Dewey>> {
        let expr = PathExpr::parse(path)?;
        let mut ctx: Vec<Option<u32>> = vec![None];
        let mut result: Vec<u32> = Vec::new();
        for (si, step) in expr.steps.iter().enumerate() {
            let mut cands = self.axis_candidates(&ctx, step)?;
            // X-Hive-style value-index shortcut: a direct `[.="lit"]`
            // predicate prunes candidates through the value index first.
            for pred in &step.predicates {
                if pred.path.is_empty() {
                    if let Some(cmp) = &pred.cmp {
                        if cmp.op == nok_core::pattern::CmpOp::Eq {
                            if let nok_core::pattern::Literal::Str(lit) = &cmp.rhs {
                                let allowed = self.value_candidates(lit)?;
                                cands.retain(|id| allowed.contains(id));
                            }
                        }
                    }
                }
            }
            let mut filtered = Vec::with_capacity(cands.len());
            for id in cands {
                let mut ok = true;
                for pred in &step.predicates {
                    if !self.pred_holds(id, pred)? {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    filtered.push(id);
                }
            }
            if si + 1 == expr.steps.len() {
                result = filtered;
            } else {
                ctx = filtered.into_iter().map(Some).collect();
                if ctx.is_empty() {
                    break;
                }
            }
        }
        result.sort_unstable();
        result.dedup();
        result.iter().map(|&id| self.dewey_of(id)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nok_core::naive::NaiveEvaluator;
    use nok_xml::Document;

    const BIB: &str = r#"<bib>
      <book year="1994"><author><last>Stevens</last></author><price>65.95</price></book>
      <book year="2000"><author><last>Abiteboul</last></author><price>39.95</price></book>
      <book year="1999"><editor><last>Gerbarg</last></editor><price>129.95</price></book>
    </bib>"#;

    fn check(xml: &str, query: &str) {
        let engine = NavDomEngine::new(xml).unwrap();
        let got: Vec<String> = engine
            .eval(query)
            .unwrap()
            .iter()
            .map(|d| d.to_string())
            .collect();
        let doc = Document::parse(xml).unwrap();
        let oracle = NaiveEvaluator::new(&doc);
        let want: Vec<String> = oracle
            .eval_str(query)
            .unwrap()
            .iter()
            .map(|n| oracle.dewey(n).to_string())
            .collect();
        assert_eq!(got, want, "query {query}");
    }

    #[test]
    fn agrees_with_oracle() {
        for q in [
            "/bib",
            "/bib/book",
            "//book/price",
            "//last",
            r#"//book[author/last="Stevens"]"#,
            r#"//book[author/last="Stevens"][price<100]"#,
            "//book[price>100]/price",
            "/bib/book[@year>1995]",
            "/bib/book[editor]/price",
            "/bib/*/price",
            "/bib//last",
            r#"//last[.="Stevens"]"#,
            "/nope",
            "//nope",
        ] {
            check(BIB, q);
        }
    }

    #[test]
    fn following_axes() {
        let xml = "<a><c/><b/><c/><c/><d><c/></d></a>";
        for q in [
            "/a/b/following-sibling::c",
            "/a/b/following::c",
            "/a/c/following-sibling::d",
        ] {
            check(xml, q);
        }
    }

    #[test]
    fn recursive_structure() {
        let xml = "<s><np><s><vp/></s></np><vp>x</vp></s>";
        for q in ["//s//vp", "//s/vp", "//np//s", r#"//vp[.="x"]"#] {
            check(xml, q);
        }
    }

    #[test]
    fn navigation_does_page_io() {
        let engine = NavDomEngine::new(BIB).unwrap();
        engine.pool().stats().reset();
        engine.eval("//book/price").unwrap();
        assert!(engine.pool().stats().logical_gets() > 0);
    }
}
