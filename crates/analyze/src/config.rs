//! Declarative configuration: the lock hierarchy, the critical-atomics
//! contract, helper-function tables, and path-based rule scopes.
//!
//! This is the single place where the workspace's concurrency design is
//! written down in machine-checkable form; DESIGN.md §13 is the prose twin
//! and the two must be kept in sync.

/// How a lock is acquired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcqMode {
    Read,
    Write,
}

/// A lock class in the declared hierarchy. Locks must be acquired in
/// strictly increasing `rank` order; two locks of the same class must never
/// be held together (see `lock-reentry`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockClass {
    /// Stable id used in reports (`core.directory`, `pager.pool_shard`, ...).
    pub name: &'static str,
    pub rank: u32,
}

/// Field-name → lock-class table. Classification is by the *last field
/// segment* of the receiver/argument (`self.dir` → `dir`,
/// `self.shards[i]` → `shards`) plus the crate the code lives in, because
/// one field name can mean different locks in different crates.
struct LockEntry {
    field: &'static str,
    /// `None` = any crate.
    in_crate: Option<&'static str>,
    class: LockClass,
}

/// The MVCC snapshot pin: the `SnapshotGuard` that `snapshot()` returns,
/// an `Arc` on the pinned generation (`GenerationTable::pin` in
/// `pager::mvcc` takes the generation cell's lock only for the clone).
/// The lowest rank in the hierarchy: a reader pins its generation before
/// touching anything else, and every other lock may be taken under it. It
/// is a refcount, not a mutex — re-entrant by design (see
/// `guard-across-writer` for the rule that *does* constrain it).
pub const PAGER_MVCC_EPOCH: LockClass = LockClass {
    name: "pager.mvcc_epoch",
    rank: 5,
};
pub const SERVE_QUEUE: LockClass = LockClass {
    name: "serve.queue",
    rank: 10,
};
/// A binary connection's outbound queue (`OutQueue.out` in `serve::conn`):
/// a leaf in practice — workers and the writer thread take it holding no
/// service or pager locks, and never across I/O.
pub const SERVE_CONN_OUT: LockClass = LockClass {
    name: "serve.conn_out",
    rank: 13,
};
pub const SERVE_PLAN_CACHE: LockClass = LockClass {
    name: "serve.plan_cache",
    rank: 14,
};
pub const CORE_DIRECTORY: LockClass = LockClass {
    name: "core.directory",
    rank: 24,
};
/// The write-ahead log (`XmlDb.wal`): a leaf — taken for one append or one
/// checkpoint, with no other lock held.
pub const CORE_WAL: LockClass = LockClass {
    name: "core.wal",
    rank: 28,
};
/// The data file's dedup table (`DataFile.dedup` in `core::values`): the
/// value-hash table, and the appends and tombstones that change it. Value
/// reads go through the pool without it; a holder reads pages (pool locks
/// nest inside).
pub const CORE_DATA_FILE: LockClass = LockClass {
    name: "core.data_file",
    rank: 30,
};
/// The buffer pool's frame ring and CLOCK hand (`BufferPool.clock`): held
/// by a miss from its re-check to its install, and by everything that
/// walks the frames; shard, storage and frame locks nest inside it.
pub const PAGER_POOL_CLOCK: LockClass = LockClass {
    name: "pager.pool_clock",
    rank: 38,
};
pub const PAGER_POOL_SHARD: LockClass = LockClass {
    name: "pager.pool_shard",
    rank: 40,
};
pub const PAGER_STORAGE: LockClass = LockClass {
    name: "pager.storage",
    rank: 44,
};
pub const PAGER_FRAME: LockClass = LockClass {
    name: "pager.frame",
    rank: 48,
};
/// A pool's capture map (`CaptureCell.map`): the writer records a
/// before-image under the frame's write lock; readers look it up holding
/// nothing.
pub const PAGER_CAPTURE: LockClass = LockClass {
    name: "pager.capture",
    rank: 50,
};
/// The published generation (`GenerationTable.current`): a leaf, held for
/// one `Arc` clone or swap.
pub const PAGER_GENERATION: LockClass = LockClass {
    name: "pager.generation",
    rank: 52,
};

/// Every lock class, in hierarchy (rank) order.
pub const ALL_CLASSES: &[LockClass] = &[
    PAGER_MVCC_EPOCH,
    SERVE_QUEUE,
    SERVE_CONN_OUT,
    SERVE_PLAN_CACHE,
    CORE_DIRECTORY,
    CORE_WAL,
    CORE_DATA_FILE,
    PAGER_POOL_CLOCK,
    PAGER_POOL_SHARD,
    PAGER_STORAGE,
    PAGER_FRAME,
    PAGER_CAPTURE,
    PAGER_GENERATION,
];

const LOCK_TABLE: &[LockEntry] = &[
    LockEntry {
        field: "queue",
        in_crate: Some("serve"),
        class: SERVE_QUEUE,
    },
    LockEntry {
        field: "out",
        in_crate: Some("serve"),
        class: SERVE_CONN_OUT,
    },
    LockEntry {
        field: "inner",
        in_crate: Some("serve"),
        class: SERVE_PLAN_CACHE,
    },
    LockEntry {
        field: "dir",
        in_crate: Some("core"),
        class: CORE_DIRECTORY,
    },
    LockEntry {
        field: "wal",
        in_crate: Some("core"),
        class: CORE_WAL,
    },
    LockEntry {
        field: "dedup",
        in_crate: Some("core"),
        class: CORE_DATA_FILE,
    },
    LockEntry {
        field: "clock",
        in_crate: Some("pager"),
        class: PAGER_POOL_CLOCK,
    },
    LockEntry {
        field: "shards",
        in_crate: Some("pager"),
        class: PAGER_POOL_SHARD,
    },
    LockEntry {
        field: "storage",
        in_crate: Some("pager"),
        class: PAGER_STORAGE,
    },
    LockEntry {
        field: "image",
        in_crate: Some("pager"),
        class: PAGER_FRAME,
    },
    LockEntry {
        field: "map",
        in_crate: Some("pager"),
        class: PAGER_CAPTURE,
    },
    LockEntry {
        field: "current",
        in_crate: Some("pager"),
        class: PAGER_GENERATION,
    },
    // `handle.write()` on a pinned PageHandle locks the frame's image
    // (`handle.read()` only clones it, and is classified the same way — a
    // conservative reading); the variable-name convention is part of the
    // contract.
    LockEntry {
        field: "handle",
        in_crate: None,
        class: PAGER_FRAME,
    },
];

/// Resolve a field segment to a lock class for code living in `krate`.
pub fn lock_for_field(krate: &str, field: &str) -> Option<LockClass> {
    LOCK_TABLE
        .iter()
        .find(|e| e.field == field && e.in_crate.is_none_or(|c| c == krate))
        .map(|e| e.class)
}

/// Poison-recovering lock helpers: free functions whose argument names the
/// lock field and whose return value is a guard.
pub fn helper_mode(name: &str) -> Option<AcqMode> {
    match name {
        "rd" | "read_lock" => Some(AcqMode::Read),
        "wr" | "write_lock" | "mutex_lock" | "lock" => Some(AcqMode::Write),
        _ => None,
    }
}

/// Guard-returning methods: `recv.lock()/.read()/.write()` classify by the
/// receiver field.
pub fn method_mode(name: &str) -> Option<AcqMode> {
    match name {
        "read" => Some(AcqMode::Read),
        "write" | "lock" => Some(AcqMode::Write),
        _ => None,
    }
}

/// Functions that *return* a held guard to their caller, so a call makes the
/// caller hold the lock for the rest of the statement (or the block, when
/// let-bound).
pub fn guard_returning_fn(name: &str) -> Option<LockClass> {
    match name {
        "dir_mut" => Some(CORE_DIRECTORY),
        "lock_dedup" => Some(CORE_DATA_FILE),
        // `db.snapshot()` / `source.snapshot()` return a pinned
        // `SnapshotGuard`-backed view: the caller holds the epoch pin for
        // as long as the binding lives.
        "snapshot" => Some(PAGER_MVCC_EPOCH),
        _ => None,
    }
}

/// Writer entry points: calling one starts (or contains) a transaction,
/// which must never happen while the calling thread holds a snapshot pin
/// (`guard-across-writer`) — the guard pins retired generations and its
/// view predates the commit the writer is about to publish.
pub fn is_writer_entry(name: &str) -> bool {
    matches!(
        name,
        "txn_begin" | "insert_last_child" | "delete_subtree" | "checkpoint"
    )
}

/// Atomics under the `atomic-ordering` contract: `Ordering::Relaxed` on any
/// of these fields is an error (each is a publication/synchronization
/// point, not a counter). Everything else — IO statistics, service metrics,
/// CLOCK reference bits — is advisory and exempt.
pub const CRITICAL_ATOMICS: &[&str] = &[
    "txn_active", // no-steal barrier between pool and WAL commit
    "shutdown",   // service stop flag gating queue drain
    "state", // frame state bits (owes home, txn wrote) read by evict/flush without the frame lock
];

/// Files whose non-test code must not contain panic paths (ports the old
/// `hot-path-panic` scope verbatim).
const HOT_PATH_FILES: &[&str] = &[
    "crates/core/src/cursor.rs",
    "crates/core/src/page.rs",
    "crates/core/src/store.rs",
    "crates/core/src/physical.rs",
    "crates/core/src/nok.rs",
];

const HOT_PATH_DIRS: &[&str] = &["crates/pager/src/", "crates/btree/src/"];

pub fn is_hot_path(rel: &str) -> bool {
    HOT_PATH_FILES.contains(&rel) || HOT_PATH_DIRS.iter().any(|d| rel.starts_with(d))
}

/// Worker-path files in the serve crate: request handling must degrade, not
/// panic. Binaries (`src/bin/`) are CLI entry points and exempt.
pub fn is_serve_worker_path(rel: &str) -> bool {
    rel.starts_with("crates/serve/src/") && !rel.starts_with("crates/serve/src/bin/")
}

/// Raw page IO (`write_page` / `allocate_page`) is the pager's business.
pub fn is_pager_internal(rel: &str) -> bool {
    rel.starts_with("crates/pager/src/")
}

/// Plan operators are constructed only by the planner and executed by the
/// executor.
pub fn is_plan_internal(rel: &str) -> bool {
    rel == "crates/core/src/plan.rs"
        || rel == "crates/core/src/planner.rs"
        || rel == "crates/core/src/exec.rs"
}

/// Synopsis counters are mutated only under the WAL by the bulk-build and
/// incremental-update paths (plus the synopsis module itself); everyone
/// else reads an immutable per-generation snapshot (DESIGN.md §17).
pub fn is_synopsis_internal(rel: &str) -> bool {
    rel == "crates/core/src/build.rs"
        || rel == "crates/core/src/update.rs"
        || rel == "crates/core/src/synopsis.rs"
}

/// Integration tests, benches and examples are test code wholesale.
pub fn is_test_path(rel: &str) -> bool {
    rel.contains("/tests/") || rel.contains("/benches/") || rel.contains("/examples/")
}

/// The crate short name (`core`, `pager`, ...) for a workspace-relative
/// path, or `""` outside `crates/`.
pub fn crate_of(rel: &str) -> &str {
    rel.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("")
}

/// Direct crate dependencies (normal + dev), mirroring the `Cargo.toml`s.
/// Call-graph edges may only follow this graph: a name match in a crate the
/// caller cannot depend on is a coincidence, not a call target.
const CRATE_DEPS: &[(&str, &[&str])] = &[
    ("xml", &[]),
    ("pager", &[]),
    ("btree", &["pager"]),
    ("core", &["xml", "pager", "btree", "verify"]),
    ("verify", &["core", "btree", "pager", "datagen"]),
    ("datagen", &["xml", "core"]),
    ("serve", &["pager", "core", "datagen", "verify"]),
    ("baselines", &["xml", "pager", "btree", "core"]),
    (
        "bench",
        &[
            "xml",
            "pager",
            "btree",
            "core",
            "baselines",
            "datagen",
            "serve",
            "verify",
        ],
    ),
    ("analyze", &[]),
    ("xtask", &["analyze"]),
];

/// Can code in crate `from` call code in crate `to`? (Reflexive, transitive
/// over `CRATE_DEPS`; unknown crates only reach themselves. Dev-dependency
/// edges make the graph cyclic — `core`'s tests use `verify` — so this walks
/// with a visited set.)
pub fn crate_reachable(from: &str, to: &str) -> bool {
    let mut stack = vec![from];
    let mut seen = vec![from];
    while let Some(c) = stack.pop() {
        if c == to {
            return true;
        }
        if let Some((_, deps)) = CRATE_DEPS.iter().find(|(k, _)| *k == c) {
            for d in *deps {
                if !seen.contains(d) {
                    seen.push(d);
                    stack.push(d);
                }
            }
        }
    }
    false
}

/// Every rule id the analyzer can emit; `allow` directives naming anything
/// else are themselves flagged (`unknown-allow`).
pub const ALL_RULES: &[&str] = &[
    "lock-order",
    "lock-reentry",
    "atomic-ordering",
    "serve-worker-panic",
    "lock-unwrap",
    "hot-path-panic",
    "stray-debug-macro",
    "undocumented-unsafe",
    "raw-page-io",
    "plan-operator-construction",
    "synopsis-mutation",
    "guard-across-writer",
    "bare-allow",
    "unknown-allow",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_classification_is_crate_sensitive() {
        assert_eq!(
            lock_for_field("core", "dedup").map(|c| c.name),
            Some("core.data_file")
        );
        assert_eq!(
            lock_for_field("pager", "image").map(|c| c.name),
            Some("pager.frame")
        );
        assert_eq!(lock_for_field("pager", "data"), None);
        assert_eq!(lock_for_field("serve", "data"), None);
        assert_eq!(
            lock_for_field("pager", "current").map(|c| c.name),
            Some("pager.generation")
        );
        assert_eq!(
            lock_for_field("core", "handle").map(|c| c.name),
            Some("pager.frame")
        );
    }

    #[test]
    fn hierarchy_ranks_are_distinct() {
        for (i, a) in ALL_CLASSES.iter().enumerate() {
            for b in &ALL_CLASSES[i + 1..] {
                assert_ne!(a.rank, b.rank, "{} vs {}", a.name, b.name);
            }
        }
    }

    #[test]
    fn crate_reachability_follows_dependencies() {
        assert!(crate_reachable("serve", "core"));
        assert!(crate_reachable("serve", "pager"), "transitive");
        assert!(crate_reachable("core", "core"), "reflexive");
        assert!(
            !crate_reachable("pager", "core"),
            "pager cannot call upward into core"
        );
        assert!(
            !crate_reachable("btree", "serve"),
            "btree cannot call into serve"
        );
        // The dev-dep cycle core <-> verify must terminate, not recurse.
        assert!(crate_reachable("core", "verify"));
        assert!(!crate_reachable("core", "serve"));
    }

    #[test]
    fn path_scopes() {
        assert!(is_hot_path("crates/pager/src/pool.rs"));
        assert!(!is_hot_path("crates/core/src/naive.rs"));
        assert!(is_serve_worker_path("crates/serve/src/service.rs"));
        assert!(!is_serve_worker_path("crates/serve/src/bin/nokd.rs"));
        assert!(is_test_path("crates/pager/tests/loom_pool.rs"));
        assert_eq!(crate_of("crates/core/src/store.rs"), "core");
    }
}
