//! A bounded plan cache keyed by normalized query text, with per-entry
//! commit-generation tags.
//!
//! Planning is cheap but not free (parse + partition + cost), and a serving
//! workload repeats a small set of query shapes; caching the planned query
//! lets the worker hot path go straight to the executor. Each entry is
//! tagged with the **commit generation** it was planned under
//! ([`nok_core::XmlDb::commit_generation`] bumps once per durably committed
//! update transaction). A lookup presented with a newer generation than the
//! entry's tag drops just that entry — the stats it was costed from are
//! stale — and counts as *stale*; entries for other query shapes survive
//! untouched, so one commit no longer evicts the whole working set. Rolled
//! back transactions do not bump the generation and do not invalidate.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard};

use nok_core::PlannedQuery;

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

/// Normalize query text for cache keying: collapse whitespace outside
/// string literals (inside quotes every byte is significant).
pub fn normalize_query(q: &str) -> String {
    let mut out = String::with_capacity(q.len());
    let mut in_str = false;
    for c in q.chars() {
        if in_str {
            out.push(c);
            if c == '"' {
                in_str = false;
            }
        } else if c == '"' {
            in_str = true;
            out.push(c);
        } else if !c.is_whitespace() {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nok_core::{QueryOptions, XmlDb};

    fn planned(db: &XmlDb<nok_pager::MemStorage>, q: &str) -> Arc<PlannedQuery> {
        Arc::new(db.plan_query(q, QueryOptions::default()).unwrap())
    }

    #[test]
    fn normalization_collapses_whitespace_outside_literals() {
        assert_eq!(normalize_query(" //a / b "), "//a/b");
        assert_eq!(
            normalize_query(r#"//a[x = "hello  world"]"#),
            r#"//a[x="hello  world"]"#
        );
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
