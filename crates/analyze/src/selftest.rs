//! Built-in fixtures proving each rule fires on seeded violations and stays
//! quiet on conforming code — including the cases the old line-regex lint
//! got wrong in both directions (multi-line calls it missed, substring
//! look-alikes it flagged).
//!
//! `cargo xtask analyze --self-test` runs these; `ci.sh` runs them on every
//! build so a rule that silently stops firing fails the pipeline.

use crate::analyze_sources;

/// A fixture that must produce at least the listed rules.
struct FailFixture {
    name: &'static str,
    path: &'static str,
    source: &'static str,
    expect: &'static [&'static str],
}

/// A fixture that must be completely clean.
struct PassFixture {
    name: &'static str,
    path: &'static str,
    source: &'static str,
}

const FAIL: &[FailFixture] = &[
    FailFixture {
        name: "hot-path unwrap",
        path: "crates/core/src/cursor.rs",
        source: "pub fn next(&mut self) -> u64 { self.pos.checked_add(1).unwrap() }\n",
        expect: &["hot-path-panic"],
    },
    FailFixture {
        // The old regex scanned single lines; `.unwrap\n()` slipped through.
        name: "hot-path multi-line unwrap (old false negative)",
        path: "crates/core/src/page.rs",
        source: "pub fn get(&self) -> u64 {\n    self.slot\n        .unwrap\n        ()\n}\n",
        expect: &["hot-path-panic"],
    },
    FailFixture {
        name: "hot-path spaced expect (old false negative)",
        path: "crates/pager/src/pool.rs",
        source: "pub fn pick(&self) -> u64 { self.slot . expect (\"slot\") }\n",
        expect: &["hot-path-panic"],
    },
    FailFixture {
        name: "panic macro in hot path",
        path: "crates/btree/src/lib.rs",
        source: "pub fn descend(&self) { if self.depth > 64 { panic!(\"deep\"); } }\n",
        expect: &["hot-path-panic"],
    },
    FailFixture {
        name: "stray dbg even in tests",
        path: "crates/core/src/naive.rs",
        source: "#[cfg(test)]\nmod tests {\n    fn t() { dbg!(1); }\n}\n",
        expect: &["stray-debug-macro"],
    },
    FailFixture {
        name: "undocumented unsafe",
        path: "crates/core/src/values.rs",
        source: "pub fn peek(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n",
        expect: &["undocumented-unsafe"],
    },
    FailFixture {
        // Multi-line raw page IO, the other old false negative.
        name: "raw page io outside pager, multi-line",
        path: "crates/core/src/build.rs",
        source: "pub fn flush(s: &mut S, id: u64, b: &[u8]) {\n    s\n        .write_page\n        (id, b)\n        .ok();\n}\n",
        expect: &["raw-page-io"],
    },
    FailFixture {
        name: "plan operator outside planner",
        path: "crates/serve/src/service.rs",
        source: "pub fn fabricate() -> SeedChoice { SeedChoice::Scan }\n",
        expect: &["plan-operator-construction"],
    },
    FailFixture {
        // The planner reads path supports; mutating a counter from there
        // would desynchronize the published per-generation synopsis.
        name: "synopsis mutation outside build/update",
        path: "crates/core/src/planner.rs",
        source: "pub fn cheat(s: &mut Synopsis, tags: &[TagCode]) {\n    s.add_path_count(tags, 1);\n}\n",
        expect: &["synopsis-mutation"],
    },
    FailFixture {
        // Multi-line mutator calls must be caught too (the old regex lint's
        // classic blind spot).
        name: "synopsis mutation outside core, multi-line",
        path: "crates/serve/src/service.rs",
        source: "pub fn drift(s: &mut Synopsis) {\n    s\n        .sub_tag_count\n        (TagCode(3), 1);\n}\n",
        expect: &["synopsis-mutation"],
    },
    FailFixture {
        // The seeded out-of-order acquisition: storage mutex held while
        // taking a shard lock inverts the declared hierarchy.
        name: "lock-order inversion (storage then shard)",
        path: "crates/pager/src/pool.rs",
        source: "impl BufferPool {\n    fn bad(&self, id: u64) {\n        let st = mutex_lock(&self.storage);\n        let sh = write_lock(&self.shards[0]);\n        let _ = (st, sh, id);\n    }\n}\n",
        expect: &["lock-order"],
    },
    FailFixture {
        name: "lock-order inversion (shard then clock)",
        path: "crates/pager/src/pool.rs",
        source: "impl BufferPool {\n    fn bad(&self) {\n        let sh = read_lock(&self.shards[0]);\n        let c = mutex_lock(&self.clock);\n        let _ = (sh, c);\n    }\n}\n",
        expect: &["lock-order"],
    },
    FailFixture {
        name: "lock-order inversion (generation cell then capture map)",
        path: "crates/pager/src/mvcc.rs",
        source: "impl Cell {\n    fn bad(&self) {\n        let g = write_lock(&self.current);\n        let m = read_lock(&self.map);\n        let _ = (g, m);\n    }\n}\n",
        expect: &["lock-order"],
    },
    FailFixture {
        name: "lock-order inversion through a call",
        path: "crates/pager/src/pool.rs",
        source: "impl BufferPool {\n    fn outer(&self) {\n        let st = mutex_lock(&self.storage);\n        self.grab_shard();\n        let _ = st;\n    }\n    fn grab_shard(&self) {\n        let sh = write_lock(&self.shards[1]);\n        let _ = sh;\n    }\n}\n",
        expect: &["lock-order"],
    },
    FailFixture {
        name: "shard lock re-entry",
        path: "crates/pager/src/pool.rs",
        source: "impl BufferPool {\n    fn double(&self) {\n        let a = write_lock(&self.shards[0]);\n        let b = write_lock(&self.shards[1]);\n        let _ = (a, b);\n    }\n}\n",
        expect: &["lock-reentry"],
    },
    FailFixture {
        // Leaf inversion: a connection's outbound queue (rank 13) must
        // never be held while taking the admission queue (rank 10).
        name: "lock-order inversion (conn out-queue then admission queue)",
        path: "crates/serve/src/conn.rs",
        source: "impl OutQueue {\n    fn bad(&self, q: &AdmissionQueue) {\n        let g = lock(&self.out);\n        let p = lock(&q.queue);\n        let _ = (g, p);\n    }\n}\n",
        expect: &["lock-order"],
    },
    FailFixture {
        // The service stop flag sits beside plain counters but gates
        // admission: an unexplained Relaxed is flagged.
        name: "relaxed on the service stop flag",
        path: "crates/serve/src/service.rs",
        source: "impl QueryService {\n    fn stopping(&self) -> bool {\n        self.inner.shutdown.load(Ordering::Relaxed)\n    }\n}\n",
        expect: &["atomic-ordering"],
    },
    FailFixture {
        name: "relaxed load of critical atomic",
        path: "crates/pager/src/pool.rs",
        source: "impl BufferPool {\n    fn in_txn(&self) -> bool {\n        self.txn_active.load(Ordering::Relaxed)\n    }\n}\n",
        expect: &["atomic-ordering"],
    },
    FailFixture {
        name: "unwrap on serve worker path",
        path: "crates/serve/src/service.rs",
        source: "fn respond(r: Result<u32, ()>) -> u32 { r.unwrap() }\n",
        expect: &["serve-worker-panic"],
    },
    FailFixture {
        name: "protocol frame indexing on serve worker path",
        path: "crates/serve/src/proto.rs",
        source: "fn kind(buf: &[u8]) -> u8 { buf[0] }\n",
        expect: &["serve-worker-panic"],
    },
    FailFixture {
        name: "unwrap on a lock result",
        path: "crates/core/src/values.rs",
        source: "fn with_lock(m: &std::sync::Mutex<u32>) -> u32 { *m.lock().unwrap() }\n",
        expect: &["lock-unwrap"],
    },
    FailFixture {
        name: "snapshot pin held across txn begin",
        path: "crates/core/src/update.rs",
        source: "impl XmlDb {\n    fn bad(&mut self, parent: &Dewey) {\n        let snap = self.snapshot();\n        self.insert_last_child(parent, \"<x/>\").ok();\n        let _ = snap;\n    }\n}\n",
        expect: &["guard-across-writer"],
    },
    FailFixture {
        name: "snapshot pin held across directory write lock",
        path: "crates/core/src/store.rs",
        source: "impl StructStore {\n    fn bad(&self) {\n        let snap = self.snapshot();\n        let d = wr(&self.dir);\n        let _ = (snap, d);\n    }\n}\n",
        expect: &["guard-across-writer"],
    },
    FailFixture {
        name: "allow without a reason",
        path: "crates/pager/src/pool.rs",
        source: "impl BufferPool {\n    fn in_txn(&self) -> bool {\n        // analyze: allow(atomic-ordering)\n        self.txn_active.load(Ordering::Relaxed)\n    }\n}\n",
        expect: &["bare-allow"],
    },
    FailFixture {
        name: "allow naming an unknown rule",
        path: "crates/core/src/naive.rs",
        source: "fn f() {\n    // analyze: allow(no-such-rule): misspelled\n    let _x = 1;\n}\n",
        expect: &["unknown-allow"],
    },
];

const PASS: &[PassFixture] = &[
    PassFixture {
        name: "unwrap in cfg(test) of a hot file",
        path: "crates/core/src/cursor.rs",
        source: "pub fn step(x: Option<u64>) -> Option<u64> { x }\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { super::step(Some(1)).unwrap(); }\n}\n",
    },
    PassFixture {
        // The old regex flagged `my_dbg!(` because it contains `dbg!(`.
        name: "substring macro look-alike (old false positive)",
        path: "crates/core/src/naive.rs",
        source: "macro_rules! my_dbg { ($e:expr) => { $e } }\nfn f() -> u32 { my_dbg!(1) }\n",
    },
    PassFixture {
        name: "patterns inside strings and comments",
        path: "crates/core/src/page.rs",
        source: "// mentions .unwrap() and panic!( and unsafe in prose\npub fn doc() -> &'static str {\n    \".unwrap() panic!( .write_page( SeedChoice:: dbg!( unsafe\"\n}\n",
    },
    PassFixture {
        name: "correct lock order (clock then shard then storage then frame)",
        path: "crates/pager/src/pool.rs",
        source: "impl BufferPool {\n    fn evict(&self, i: usize) {\n        let c = mutex_lock(&self.clock);\n        let sh = write_lock(&self.shards[i]);\n        let st = mutex_lock(&self.storage);\n        let fr = read_lock(&frame.image);\n        let _ = (c, sh, st, fr);\n    }\n}\n",
    },
    PassFixture {
        name: "writer records the capture under the frame lock",
        path: "crates/pager/src/pool.rs",
        source: "impl PageHandle {\n    fn write(&self) {\n        let image = write_lock(&self.frame.image);\n        let map = write_lock(&self.capture.map);\n        let _ = (image, map);\n    }\n}\n",
    },
    PassFixture {
        // Statement-scoped temporaries drop before the next acquisition:
        // no pair, no finding, even though data file -> dir held together
        // would be an inversion.
        name: "sequential statement guards do not overlap",
        path: "crates/core/src/store.rs",
        source: "impl StructStore {\n    fn invalidate(&self) {\n        self.dedup.lock().clear();\n        *wr(&self.dir) = Directory::new();\n    }\n}\n",
    },
    PassFixture {
        name: "relaxed on an exempt statistics counter",
        path: "crates/serve/src/metrics.rs",
        source: "impl Metrics {\n    fn bump(&self) {\n        self.rejected.fetch_add(1, Ordering::Relaxed);\n    }\n}\n",
    },
    PassFixture {
        // Regression: a `thread_local!` item must end at its brace group —
        // the parser once scanned on to the next top-level `;`, swallowing
        // the following test module and losing its `#[cfg(test)]` marker.
        name: "thread_local item does not swallow the following test module",
        path: "crates/pager/src/pool.rs",
        source: "thread_local! {\n    static T: u32 = 0;\n}\n#[cfg(test)]\nmod tests {\n    fn t() { Some(1).unwrap(); }\n}\n",
    },
    PassFixture {
        // Acquire stop-flag check, then the admission queue lock taken
        // with nothing else held.
        name: "admission queue taken alone after Acquire stop-flag check",
        path: "crates/serve/src/service.rs",
        source: "impl QueryService {\n    fn submit(&self) {\n        if !self.shutdown.load(Ordering::Acquire) {\n            let g = self.queue.lock();\n            let _ = g;\n        }\n    }\n}\n",
    },
    PassFixture {
        // The conn out-queue is a leaf: workers push completed frames under
        // it with no other lock held.
        name: "conn out-queue held alone is a leaf",
        path: "crates/serve/src/conn.rs",
        source: "impl OutQueue {\n    fn complete(&self, frame: Vec<u8>) {\n        let mut g = lock(&self.out);\n        g.frames.push_back(frame);\n    }\n}\n",
    },
    PassFixture {
        name: "allowed with a reason",
        path: "crates/pager/src/pool.rs",
        source: "impl BufferPool {\n    fn in_txn_hint(&self) -> bool {\n        // analyze: allow(atomic-ordering): advisory hint, re-checked under the storage lock\n        self.txn_active.load(Ordering::Relaxed)\n    }\n}\n",
    },
    PassFixture {
        name: "plan operators inside the planner",
        path: "crates/core/src/planner.rs",
        source: "pub fn seed() -> u32 { SeedChoice::COUNT }\n",
    },
    PassFixture {
        name: "synopsis mutation inside the update path",
        path: "crates/core/src/update.rs",
        source: "pub fn on_delete(s: &mut Synopsis, tags: &[TagCode]) {\n    s.sub_path_count(tags, 1);\n}\n",
    },
    PassFixture {
        // Read-only synopsis use is fine anywhere: the planner consumes
        // the published snapshot through the support queries.
        name: "synopsis read API outside core",
        path: "crates/serve/src/service.rs",
        source: "pub fn gauge(s: &Synopsis) -> u64 { s.distinct_paths() }\n",
    },
    PassFixture {
        // Test code may assemble synopses to exercise the read API.
        name: "synopsis mutation in cfg(test)",
        path: "crates/core/src/planner.rs",
        source: "#[cfg(test)]\nmod tests {\n    fn mk(s: &mut Synopsis) { s.add_tag_count(TagCode(1), 2); }\n}\n",
    },
    PassFixture {
        name: "raw page io inside the pager",
        path: "crates/pager/src/wal.rs",
        source: "pub fn replay(s: &mut S, id: u64, b: &[u8]) { s.write_page(id, b).ok(); }\n",
    },
    PassFixture {
        name: "documented unsafe",
        path: "crates/core/src/values.rs",
        source: "pub fn peek(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid for reads.\n    unsafe { *p }\n}\n",
    },
    PassFixture {
        name: "bounds-checked protocol access on serve worker path",
        path: "crates/serve/src/proto.rs",
        source: "fn kind(buf: &[u8]) -> Option<u8> { buf.first().copied() }\n",
    },
    PassFixture {
        // `drop(guard)` is the idiomatic early release; without it this
        // would be a storage -> shard inversion.
        name: "explicit drop releases the guard before the next lock",
        path: "crates/pager/src/pool.rs",
        source: "impl BufferPool {\n    fn stepwise(&self) {\n        let st = mutex_lock(&self.storage);\n        drop(st);\n        let sh = write_lock(&self.shards[0]);\n        let _ = sh;\n    }\n}\n",
    },
    PassFixture {
        // The `let` binds the chain's *result* (a PageId), not the guard:
        // the guard is a statement temporary, gone before the shard lock.
        name: "guard consumed by a method chain is a statement temporary",
        path: "crates/pager/src/pool.rs",
        source: "impl BufferPool {\n    fn alloc(&self) -> PagerResult<()> {\n        let id = mutex_lock(&self.storage).allocate_page()?;\n        let sh = write_lock(&self.shards[0]);\n        let _ = (id, sh);\n        Ok(())\n    }\n}\n",
    },
    PassFixture {
        // `map.get(..)` on a local must not resolve to the same-named
        // workspace function (which here would re-enter the shard lock).
        name: "collection method name does not resolve to workspace fn",
        path: "crates/pager/src/pool.rs",
        source: "impl BufferPool {\n    fn get(&self, id: u64) {\n        let sh = write_lock(&self.shards[0]);\n        let _ = (sh, id);\n    }\n    fn probe(&self, map: &HashMap<u64, u64>) -> Option<u64> {\n        let sh = write_lock(&self.shards[1]);\n        let v = map.get(&1).copied();\n        let _ = sh;\n        v\n    }\n}\n",
    },
    PassFixture {
        // Read-path locks under a snapshot pin are the normal reader shape;
        // only *write*-mode directory acquisition is writer work.
        name: "snapshot pin over read-path locks is fine",
        path: "crates/core/src/store.rs",
        source: "impl StructStore {\n    fn ok(&self) -> u64 {\n        let snap = self.snapshot();\n        let d = rd(&self.dir);\n        let _ = (snap, d);\n        0\n    }\n}\n",
    },
    PassFixture {
        // Dropping the guard first is the prescribed fix for
        // guard-across-writer.
        name: "snapshot pin dropped before the writer runs",
        path: "crates/core/src/update.rs",
        source: "impl XmlDb {\n    fn ok(&mut self, parent: &Dewey) {\n        let snap = self.snapshot();\n        drop(snap);\n        self.insert_last_child(parent, \"<x/>\").ok();\n    }\n}\n",
    },
    PassFixture {
        // The epoch pin is a refcount: re-pinning under a held pin is not
        // lock re-entry.
        name: "nested snapshot pins are re-entrant refcounts",
        path: "crates/serve/src/service.rs",
        source: "impl QueryService {\n    fn ok(&self) {\n        let a = self.snapshot();\n        let b = self.snapshot();\n        let _ = (a, b);\n    }\n}\n",
    },
    PassFixture {
        // Slice types in struct declarations (`&'a [u8]`) are not indexing.
        name: "slice type in a struct declaration is not indexing",
        path: "crates/serve/src/json.rs",
        source: "struct Parser<'a> {\n    bytes: &'a [u8],\n    pos: usize,\n}\n",
    },
];

/// Run every fixture; returns a human-readable failure list on error.
pub fn run() -> Result<(), String> {
    let mut errors = Vec::new();

    for f in FAIL {
        match analyze_sources(&[(f.path, f.source)]) {
            Err(e) => errors.push(format!("fail-fixture `{}`: {e}", f.name)),
            Ok(report) => {
                for rule in f.expect {
                    if !report.findings.iter().any(|x| x.rule == *rule) {
                        errors.push(format!(
                            "fail-fixture `{}`: expected rule `{rule}` did not fire (got: {:?})",
                            f.name,
                            report.findings.iter().map(|x| x.rule).collect::<Vec<_>>()
                        ));
                    }
                }
            }
        }
    }

    for p in PASS {
        match analyze_sources(&[(p.path, p.source)]) {
            Err(e) => errors.push(format!("pass-fixture `{}`: {e}", p.name)),
            Ok(report) => {
                if !report.is_clean() {
                    errors.push(format!(
                        "pass-fixture `{}`: unexpected findings: {}",
                        p.name,
                        report
                            .findings
                            .iter()
                            .map(|x| x.to_string())
                            .collect::<Vec<_>>()
                            .join("; ")
                    ));
                }
            }
        }
    }

    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn all_fixtures_behave() {
        if let Err(e) = super::run() {
            panic!("self-test failures:\n{e}");
        }
    }
}
