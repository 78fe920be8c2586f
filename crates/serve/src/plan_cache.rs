//! A bounded plan cache keyed by query *shape*, with per-entry
//! commit-generation tags.
//!
//! A serving workload repeats a small set of query shapes, many of them
//! differing only in a literal (`point_read`'s key lookups
//! `//article[ee="db/j/<i>.html"]/title`). The key is the shape — the
//! parsed pattern's canonical text with each `= "literal"` a numbered
//! slot ([`normalize_query`], `nok_core::PathExpr::shape`) — so all those
//! lookups share one entry. An entry is a `PlannedQuery` of that shape:
//! its partition, walks, compiled patterns and literal-free route costs,
//! planned once. A hit re-binds the request's literals to it
//! (`XmlDb::bind`: a bounded probe per literal, the proof that one has no
//! posting, and the route comparison) and goes straight to the executor.
//! Each entry is tagged with the **commit generation** it was planned
//! under ([`nok_core::XmlDb::commit_generation`] bumps once per durably
//! committed update transaction). A lookup presented with a newer
//! generation than the entry's tag drops just that entry — the stats it
//! was costed from and the tag table its patterns were compiled against
//! are stale — and counts as *stale*; entries for other shapes survive
//! untouched, so one commit does not evict the whole working set. Rolled
//! back transactions do not bump the generation and do not invalidate.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard};

use nok_core::{PathExpr, PlannedQuery};

/// Outcome of one cache lookup.
#[derive(Debug)]
pub struct CacheLookup {
    /// The cached plan, if the key was present with a matching generation
    /// tag.
    pub plan: Option<Arc<PlannedQuery>>,
    /// Whether this lookup found an entry planned under an older generation
    /// and dropped it.
    pub stale: bool,
}

struct Entry {
    /// Commit generation this plan was costed under.
    generation: u64,
    plan: Arc<PlannedQuery>,
}

struct CacheInner {
    map: HashMap<String, Entry>,
    /// Insertion order, oldest first (FIFO eviction at capacity).
    order: VecDeque<String>,
}

/// A bounded plan cache with per-entry generation invalidation.
/// Thread-safe; shared by all service workers.
pub struct PlanCache {
    cap: usize,
    inner: Mutex<CacheInner>,
}

fn lock(m: &Mutex<CacheInner>) -> MutexGuard<'_, CacheInner> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl PlanCache {
    /// A cache holding at most `cap` plans (0 disables caching: every
    /// lookup misses and inserts are dropped).
    pub fn new(cap: usize) -> Self {
        PlanCache {
            cap,
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                order: VecDeque::new(),
            }),
        }
    }

    /// Look `key` up under commit generation `generation`. An entry tagged
    /// with an older generation is dropped and counted *stale* — the stats
    /// it was costed from predate a committed transaction. An entry tagged
    /// *newer* — planned by a worker already on the next snapshot — is a
    /// plain miss for this lagging reader: it must not be served (its costs
    /// describe a state this reader cannot see), but dropping it would evict
    /// a plan that is fresh for every current reader and double-count the
    /// same commit as stale once per lagging worker.
    pub fn lookup(&self, key: &str, generation: u64) -> CacheLookup {
        let mut inner = lock(&self.inner);
        match inner.map.get(key) {
            Some(e) if e.generation == generation => CacheLookup {
                plan: Some(Arc::clone(&e.plan)),
                stale: false,
            },
            Some(e) if e.generation < generation => {
                inner.map.remove(key);
                inner.order.retain(|k| k != key);
                CacheLookup {
                    plan: None,
                    stale: true,
                }
            }
            _ => CacheLookup {
                plan: None,
                stale: false,
            },
        }
    }

    /// Insert a plan computed under commit generation `generation`. An
    /// existing entry for the key is replaced only if it is not newer (a
    /// worker still on an older snapshot must not clobber a fresher plan).
    pub fn insert(&self, key: String, generation: u64, plan: Arc<PlannedQuery>) {
        if self.cap == 0 {
            return;
        }
        let mut inner = lock(&self.inner);
        if let Some(existing) = inner.map.get_mut(&key) {
            if existing.generation <= generation {
                *existing = Entry { generation, plan };
            }
            return;
        }
        while inner.map.len() >= self.cap {
            match inner.order.pop_front() {
                Some(oldest) => {
                    inner.map.remove(&oldest);
                }
                None => break,
            }
        }
        inner.order.push_back(key.clone());
        inner.map.insert(key, Entry { generation, plan });
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        lock(&self.inner).map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The cache key of query text: its shape (`nok_core::PathExpr::shape`),
/// whitespace and literals aside; text that does not parse keys as itself.
pub fn normalize_query(q: &str) -> String {
    PathExpr::parse(q).map_or_else(|_| q.to_string(), |e| e.shape())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nok_core::{QueryOptions, XmlDb};

    fn planned(db: &XmlDb<nok_pager::MemStorage>, q: &str) -> Arc<PlannedQuery> {
        Arc::new(db.plan_query(q, QueryOptions::default()).unwrap())
    }

    /// Whitespace is insignificant, and so is a `= "literal"`: the key is
    /// the shape.
    #[test]
    fn normalization_collapses_whitespace_outside_literals() {
        assert_eq!(normalize_query(" //a / b "), "//a/b");
        assert_eq!(normalize_query(r#"//a[x = "hello  world"]"#), "//a[x=$1]");
        assert_eq!(
            normalize_query(r#"//article[ee="db/j/7.html"]/title"#),
            "//article[ee=$1]/title"
        );
        assert_eq!(
            normalize_query(r#"//a[b="x"][c<3][d[e="y"]="z"]"#),
            "//a[b=$1][c<3][d[e=$2]=$3]"
        );
        assert_eq!(normalize_query("not a [path"), "not a [path");
    }

    #[test]
    fn hit_after_insert_same_generation() {
        let db = XmlDb::build_in_memory("<a><b/></a>").unwrap();
        let cache = PlanCache::new(4);
        let key = normalize_query("//b");
        assert!(cache.lookup(&key, 0).plan.is_none());
        cache.insert(key.clone(), 0, planned(&db, "//b"));
        assert!(cache.lookup(&key, 0).plan.is_some());
        assert_eq!(cache.len(), 1);
    }

    /// A hit allocates no plan: over a thousand lookups of one key the
    /// first misses and plans, and every later one shares its allocation.
    #[test]
    fn hits_share_the_first_plan() {
        let db = XmlDb::build_in_memory("<r><a><filler/></a></r>").unwrap();
        let cache = PlanCache::new(8);
        let key = normalize_query("//a[.//nosuch]//filler");
        let generation = db.commit_generation();
        let mut misses = 0;
        let mut first: Option<Arc<PlannedQuery>> = None;
        for _ in 0..1000 {
            match (cache.lookup(&key, generation).plan, &first) {
                (Some(hit), Some(first)) => assert!(Arc::ptr_eq(&hit, first)),
                (Some(_), None) => panic!("a hit before any insert"),
                (None, _) => {
                    misses += 1;
                    let plan = planned(&db, &key);
                    cache.insert(key.clone(), generation, Arc::clone(&plan));
                    first = Some(plan);
                }
            }
        }
        assert_eq!(misses, 1);
    }

    #[test]
    fn generation_change_drops_only_the_stale_entry() {
        let db = XmlDb::build_in_memory("<a><b/><c/></a>").unwrap();
        let cache = PlanCache::new(4);
        cache.insert("//b".into(), 0, planned(&db, "//b"));
        cache.insert("//c".into(), 0, planned(&db, "//c"));
        let l = cache.lookup("//b", 1);
        assert!(l.plan.is_none());
        assert!(l.stale);
        // Only the looked-up entry is dropped; //c survives until touched.
        assert_eq!(cache.len(), 1);
        assert!(
            cache.lookup("//c", 0).plan.is_some(),
            "untouched entry kept"
        );
        // Subsequent lookups at the new generation are plain misses.
        let l = cache.lookup("//b", 1);
        assert!(!l.stale);
        assert!(l.plan.is_none());
    }

    #[test]
    fn stale_entry_is_replaced_not_resurrected() {
        let db = XmlDb::build_in_memory("<a><b/></a>").unwrap();
        let cache = PlanCache::new(4);
        cache.insert("//b".into(), 0, planned(&db, "//b"));
        assert!(cache.lookup("//b", 3).stale);
        cache.insert("//b".into(), 3, planned(&db, "//b"));
        assert!(cache.lookup("//b", 3).plan.is_some());
        // An older-generation insert must not clobber the fresher plan.
        cache.insert("//b".into(), 1, planned(&db, "//b"));
        assert!(cache.lookup("//b", 3).plan.is_some());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lagging_reader_does_not_evict_fresh_entry() {
        let db = XmlDb::build_in_memory("<a><b/></a>").unwrap();
        let cache = PlanCache::new(4);
        cache.insert("//b".into(), 2, planned(&db, "//b"));
        // A worker still on generation 1 must not be served the newer plan,
        // but must not drop it or report it stale either.
        let l = cache.lookup("//b", 1);
        assert!(l.plan.is_none());
        assert!(!l.stale, "fresh entry is a plain miss for a lagging reader");
        assert!(
            cache.lookup("//b", 2).plan.is_some(),
            "entry survives for current readers"
        );
    }

    #[test]
    fn capacity_evicts_oldest() {
        let db = XmlDb::build_in_memory("<a><b/><c/><d/></a>").unwrap();
        let cache = PlanCache::new(2);
        cache.insert("//b".into(), 0, planned(&db, "//b"));
        cache.insert("//c".into(), 0, planned(&db, "//c"));
        cache.insert("//d".into(), 0, planned(&db, "//d"));
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup("//b", 0).plan.is_none(), "oldest evicted");
        assert!(cache.lookup("//d", 0).plan.is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let db = XmlDb::build_in_memory("<a><b/></a>").unwrap();
        let cache = PlanCache::new(0);
        cache.insert("//b".into(), 0, planned(&db, "//b"));
        assert!(cache.lookup("//b", 0).plan.is_none());
    }

    #[test]
    fn committed_update_bumps_generation_and_staleness() {
        let mut db = XmlDb::build_in_memory("<a><b>x</b></a>").unwrap();
        let cache = PlanCache::new(4);
        let g0 = db.commit_generation();
        cache.insert("//b".into(), g0, planned(&db, "//b"));
        assert!(cache.lookup("//b", g0).plan.is_some());

        // A committed update transaction must bump the generation…
        let target = db.query("/a").unwrap()[0].dewey.clone();
        db.insert_last_child(&target, "<c>new</c>").unwrap();
        let g1 = db.commit_generation();
        assert!(g1 > g0, "commit must bump the generation");
        let l = cache.lookup("//b", g1);
        assert!(l.plan.is_none());
        assert!(l.stale, "committed txn stales cached plans");

        // …and a failed (rolled-back) update must not.
        cache.insert("//b".into(), g1, planned(&db, "//b"));
        let err = db.insert_last_child(&target, "<unclosed>");
        assert!(err.is_err(), "malformed fragment must be rejected");
        assert_eq!(db.commit_generation(), g1, "rollback must not bump");
        assert!(cache.lookup("//b", g1).plan.is_some());
    }
}
