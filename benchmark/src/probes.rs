//! Per-layer probes: each times public calls of one module on the workload's
//! own database, away from the request path, so a layer's cost can be read
//! without the layers around it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use nok_core::cursor::{self, DocScan};
use nok_core::{Dewey, NodeAddr, QueryMatch, QueryOptions, TagCode, XmlDb};
use nok_pager::{FileStorage, PageId};
use nok_serve::binproto::{self, BinResponse};
use nok_serve::{normalize_query, AdmissionQueue, PlanCache, Request, WireMatch};

use crate::report::Report;
use crate::stats::median;
use crate::timed::open_served;

type Db = XmlDb<FileStorage>;

/// A probe loops until it has run for this long, so a sub-microsecond call
/// is averaged over many thousands of calls.
const PROBE_TIME: Duration = Duration::from_millis(60);

/// Call `f` over `items` round after round for [`PROBE_TIME`]; mean ns/call.
fn mean_ns<T>(items: &[T], mut f: impl FnMut(&T) -> Result<(), String>) -> Result<f64, String> {
    if items.is_empty() {
        return Err("probe has nothing to run on".into());
    }
    let began = Instant::now();
    let mut calls = 0u64;
    while began.elapsed() < PROBE_TIME {
        for item in items {
            f(item)?;
        }
        calls += items.len() as u64;
    }
    Ok(began.elapsed().as_nanos() as f64 / calls as f64)
}

/// Nodes the navigation probes start from: every `stride`-th element in
/// document order, the first element of every page, and the second-level
/// nodes (records) among them.
pub struct NodeSample {
    pub nodes: Vec<(NodeAddr, Dewey, TagCode)>,
    pub page_firsts: Vec<NodeAddr>,
    pub records: Vec<NodeAddr>,
    pub common_tag: TagCode,
}

pub fn sample_nodes(db: &Db, seed: u64) -> Result<NodeSample, String> {
    let total = db.node_count().max(1);
    let stride = (total / 2000).max(1);
    let offset = seed % stride;
    let mut s = NodeSample {
        nodes: Vec::new(),
        page_firsts: Vec::new(),
        records: Vec::new(),
        common_tag: TagCode::from_key(&[0, 0]),
    };
    let mut last_page: Option<PageId> = None;
    let mut per_tag: BTreeMap<[u8; 2], u64> = BTreeMap::new();
    for (i, item) in DocScan::new(db.store()).enumerate() {
        let item = item.map_err(|e| format!("document scan: {e}"))?;
        if last_page != Some(item.addr.page) {
            last_page = Some(item.addr.page);
            s.page_firsts.push(item.addr);
        }
        if i as u64 % stride == offset {
            *per_tag.entry(item.tag.to_key()).or_default() += 1;
            if item.level == 2 {
                s.records.push(item.addr);
            }
            s.nodes.push((item.addr, item.dewey, item.tag));
        }
    }
    if let Some((key, _)) = per_tag.iter().max_by_key(|(_, n)| **n) {
        s.common_tag = TagCode::from_key(key);
    }
    Ok(s)
}

/// First-touch costs, each on a directory opened just for it: nothing is in
/// any pool or decode cache when the timed call runs.
pub fn cold(dir: &Path, sample: &NodeSample, report: &mut Report) -> Result<(), String> {
    let firsts = &sample.page_firsts;

    let db = open_served(dir)?;
    let t = Instant::now();
    for a in firsts {
        black_box(db.store().pool().get(a.page).map_err(|e| e.to_string())?);
    }
    let per_page = t.elapsed().as_secs_f64() / firsts.len() as f64;
    report.put("pool.get_miss_us", per_page * 1e6, "us");
    drop(db);

    let db = open_served(dir)?;
    let t = Instant::now();
    for a in firsts {
        black_box(db.store().entry_at(*a).map_err(|e| e.to_string())?);
    }
    let per_page = t.elapsed().as_secs_f64() / firsts.len() as f64;
    report.put("page.first_touch_us", per_page * 1e6, "us");
    drop(db);

    let db = open_served(dir)?;
    let t = Instant::now();
    for a in firsts {
        black_box(cursor::following_sibling(db.store(), *a).map_err(|e| e.to_string())?);
    }
    let per_call = t.elapsed().as_secs_f64() / firsts.len() as f64;
    report.put("cursor.following_sibling_cold_ns", per_call * 1e9, "ns");
    Ok(())
}

/// Warm probes of the storage, index and navigation layers.
pub fn storage(db: &Db, sample: &NodeSample, report: &mut Report) -> Result<(), String> {
    let store = db.store();
    let nodes = db.node_count() as f64;
    let bytes = store.structure_bytes().map_err(|e| e.to_string())? as f64;
    report.put("store.struct_bytes_per_node", bytes / nodes, "B/node");
    report.put("store.pages", f64::from(store.page_count()), "count");

    let addrs: Vec<NodeAddr> = sample.nodes.iter().map(|n| n.0).collect();
    let e = |e: nok_core::CoreError| e.to_string();
    report.put(
        "cursor.first_child_ns",
        mean_ns(&addrs, |a| {
            black_box(cursor::first_child(store, *a).map_err(e)?);
            Ok(())
        })?,
        "ns",
    );
    report.put(
        "cursor.following_sibling_ns",
        mean_ns(&addrs, |a| {
            black_box(cursor::following_sibling(store, *a).map_err(e)?);
            Ok(())
        })?,
        "ns",
    );
    report.put(
        "cursor.subtree_close_ns",
        mean_ns(&addrs, |a| {
            black_box(cursor::subtree_close(store, *a).map_err(e)?);
            Ok(())
        })?,
        "ns",
    );
    let began = Instant::now();
    let mut visited = 0u64;
    while began.elapsed() < PROBE_TIME {
        for a in &sample.records {
            for d in cursor::descendants(store, *a).map_err(e)? {
                black_box(d.map_err(e)?);
                visited += 1;
            }
        }
    }
    report.put(
        "cursor.descendants_ns_per_node",
        began.elapsed().as_nanos() as f64 / visited.max(1) as f64,
        "ns",
    );

    // Half a pool's worth of pages, so that cycling over them never evicts.
    let resident = store.pool().capacity() / 2;
    let pages: Vec<PageId> = sample
        .page_firsts
        .iter()
        .take(resident)
        .map(|a| a.page)
        .collect();
    for p in &pages {
        store.pool().get(*p).map_err(|e| e.to_string())?;
    }
    report.put(
        "pool.get_hit_ns",
        mean_ns(&pages, |p| {
            black_box(store.pool().get(*p).map_err(|e| e.to_string())?);
            Ok(())
        })?,
        "ns",
    );

    let keys: Vec<Vec<u8>> = sample.nodes.iter().map(|n| n.1.to_key()).collect();
    let idx = db.bt_id().pool().stats();
    let gets_before = idx.logical_gets();
    let mut lookups = 0u64;
    report.put(
        "btree.get_ns",
        mean_ns(&keys, |k| {
            lookups += 1;
            black_box(db.bt_id().get_first(k).map_err(|e| e.to_string())?);
            Ok(())
        })?,
        "ns",
    );
    report.put(
        "btree.pages_per_get",
        (idx.logical_gets() - gets_before) as f64 / lookups as f64,
        "count",
    );

    let t = Instant::now();
    let postings = db.tag_postings(sample.common_tag).map_err(e)?;
    report.put(
        "btree.postings_ns_per_entry",
        t.elapsed().as_nanos() as f64 / postings.len().max(1) as f64,
        "ns",
    );
    report.note("postings_tag", db.dict().name(sample.common_tag));
    report.note("postings_entries", postings.len());

    let matches: Vec<QueryMatch> = sample
        .nodes
        .iter()
        .map(|(addr, dewey, _)| QueryMatch {
            addr: *addr,
            dewey: dewey.clone(),
        })
        .collect();
    report.put(
        "values.fetch_ns",
        mean_ns(&matches, |m| {
            black_box(db.value_of(m).map_err(e)?);
            Ok(())
        })?,
        "ns",
    );

    let source = db.snapshot_source();
    report.put(
        "mvcc.pin_ns",
        mean_ns(&[()], |()| {
            black_box(source.snapshot().map_err(e)?);
            Ok(())
        })?,
        "ns",
    );

    let mut encode_us = Vec::new();
    let mut encoded = 0usize;
    for _ in 0..5 {
        let t = Instant::now();
        encoded = black_box(db.synopsis().to_bytes(db.node_count())).len();
        encode_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    report.put("synopsis.encode_us", median(&encode_us), "us");
    report.put("synopsis.bytes", encoded as f64, "B");
    report.put(
        "dict.encode_us",
        mean_ns(&[()], |()| {
            black_box(db.dict().to_bytes());
            Ok(())
        })? / 1000.0,
        "us",
    );
    Ok(())
}

/// Probes of the serving layer's parts, fed with the workload's own
/// requests and its largest answer.
pub fn serving(
    db: &Db,
    paths: &[String],
    largest_answer: &[WireMatch],
    report: &mut Report,
) -> Result<(), String> {
    let frames: Vec<Vec<u8>> = paths
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let mut out = Vec::new();
            binproto::encode_request(
                &mut out,
                &Request::Query {
                    id: i as u64,
                    path: p.clone(),
                    timeout_ms: None,
                },
            );
            out
        })
        .collect();
    report.put(
        "binproto.decode_request_ns",
        mean_ns(&frames, |f| {
            let (opcode, id, payload, _) = binproto::split_frame(f)
                .map_err(|e| e.to_string())?
                .ok_or("short frame")?;
            black_box(binproto::decode_request(opcode, id, payload).map_err(|e| e.to_string())?);
            Ok(())
        })?,
        "ns",
    );

    let resp = BinResponse::QueryOk {
        id: 1,
        matches: largest_answer.to_vec(),
    };
    let mut out = Vec::new();
    let per_frame = mean_ns(&[()], |()| {
        out.clear();
        binproto::encode_response(&mut out, &resp);
        black_box(out.len());
        Ok(())
    })?;
    report.put(
        "binproto.encode_ns_per_match",
        per_frame / largest_answer.len().max(1) as f64,
        "ns",
    );
    report.note("encode_matches", largest_answer.len());

    let queue: AdmissionQueue<u64> = AdmissionQueue::new(128);
    report.put(
        "admission.push_pop_ns",
        mean_ns(&[7u64], |v| {
            queue.push(*v).map_err(|_| "admission queue refused")?;
            black_box(queue.try_pop());
            Ok(())
        })?,
        "ns",
    );

    let cache = PlanCache::new(256);
    let mut cached = Vec::new();
    for p in paths.iter().take(200) {
        let key = format!(
            "{:?}|{}",
            QueryOptions::default().strategy,
            normalize_query(p)
        );
        let plan = db
            .plan_query(p, QueryOptions::default())
            .map_err(|e| e.to_string())?;
        cache.insert(key.clone(), 0, Arc::new(plan));
        cached.push(p.clone());
    }
    report.put(
        "plan_cache.lookup_ns",
        mean_ns(&cached, |p| {
            let key = format!(
                "{:?}|{}",
                QueryOptions::default().strategy,
                normalize_query(p)
            );
            black_box(cache.lookup(&key, 0).plan.ok_or("cached plan missing")?);
            Ok(())
        })?,
        "ns",
    );
    Ok(())
}
