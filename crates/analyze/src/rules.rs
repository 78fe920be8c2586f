//! The rule engine: evaluate every rule over the per-function models.
//!
//! Two-phase design:
//!
//! 1. **Local scan** — walk each function's event list with a scope-aware
//!    held-lock set, recording ordered acquisition pairs, call sites with
//!    their held snapshot, and the simple per-event findings (atomic
//!    orderings, panics, macros, raw page IO, plan operators).
//! 2. **Call-graph fixpoint** — compute each function's transitive
//!    may-acquire set and turn call sites made *while holding a lock* into
//!    additional ordered pairs, so an out-of-order acquisition hidden one or
//!    more calls deep is still caught.
//!
//! Pairs are then checked against the declared hierarchy: a lock may only be
//! acquired while every held lock has a strictly smaller rank, and no class
//! may be re-entered (`lock-reentry` — the pool's shard locks and the
//! poison-recovering `Mutex` helpers are not re-entrant).

use std::collections::HashMap;

use crate::comments::CommentMap;
use crate::config::{self, AcqMode, LockClass};
use crate::model::{Event, FnModel};
use crate::report::Finding;

/// Calls with more workspace definitions than this are treated as opaque
/// rather than unioned: propagating through very common names (`new`, `get`,
/// `run`) would manufacture call edges that don't exist.
const MAX_CALL_CANDIDATES: usize = 4;

/// One ordered acquisition observation: `acquired` was taken while `held`
/// was held, at `line` (optionally through a call chain entered at `via`).
#[derive(Debug, Clone)]
struct Pair {
    held: LockClass,
    acquired: LockClass,
    /// How `acquired` was taken. Call-graph pairs (`via` set) default to
    /// `Write` — conservative for the ordering rules, which ignore mode;
    /// the mode-aware `guard-across-writer` rule only consults local pairs.
    acq_mode: AcqMode,
    line: usize,
    via: Option<String>,
}

#[derive(Debug)]
struct CallSite {
    name: String,
    qual: Option<String>,
    recv: Option<String>,
    held: Vec<LockClass>,
    line: usize,
}

#[derive(Debug, Default)]
struct FnScan {
    pairs: Vec<Pair>,
    calls: Vec<CallSite>,
    /// Bitmask over lock ranks of everything acquired locally.
    local_acquires: u64,
}

fn bit(c: LockClass) -> u64 {
    1u64 << c.rank
}

fn classes_of(mask: u64) -> Vec<LockClass> {
    config::ALL_CLASSES
        .iter()
        .copied()
        .filter(|c| mask & bit(*c) != 0)
        .collect()
}

/// Phase 1: scope-aware walk of one function.
fn scan_fn(m: &FnModel) -> FnScan {
    struct Held {
        class: LockClass,
        let_bound: bool,
        var: Option<String>,
        depth: usize,
    }

    let mut scan = FnScan::default();
    let mut held: Vec<Held> = Vec::new();
    let mut depth = 0usize;

    for ev in &m.events {
        match ev {
            Event::EnterBlock => depth += 1,
            Event::ExitBlock => {
                held.retain(|h| h.depth < depth);
                depth = depth.saturating_sub(1);
            }
            Event::EndStmt => held.retain(|h| h.depth != depth || h.let_bound),
            Event::Release { var, .. } => {
                // `drop(var)` releases the most recent guard bound to `var`.
                if let Some(pos) = held
                    .iter()
                    .rposition(|h| h.var.as_deref() == Some(var.as_str()))
                {
                    held.remove(pos);
                }
            }
            Event::Acquire {
                class,
                mode,
                let_bound,
                var,
                line,
            } => {
                for h in &held {
                    scan.pairs.push(Pair {
                        held: h.class,
                        acquired: *class,
                        acq_mode: *mode,
                        line: *line,
                        via: None,
                    });
                }
                scan.local_acquires |= bit(*class);
                held.push(Held {
                    class: *class,
                    let_bound: *let_bound,
                    var: var.clone(),
                    depth,
                });
            }
            Event::Call {
                name,
                qual,
                recv,
                line,
            } => scan.calls.push(CallSite {
                name: name.clone(),
                qual: qual.clone(),
                recv: recv.clone(),
                held: held.iter().map(|h| h.class).collect(),
                line: *line,
            }),
            _ => {}
        }
    }
    scan
}

/// Method names that collide with the standard collections/primitives.
/// A bare `x.get(..)` where `x` is a local almost always means
/// HashMap/slice/Option, and resolving it to a same-named workspace
/// function manufactures call edges out of thin air.
const STD_METHOD_NAMES: &[&str] = &[
    "get",
    "get_mut",
    "insert",
    "remove",
    "push",
    "pop",
    "push_back",
    "push_front",
    "pop_back",
    "pop_front",
    "clear",
    "len",
    "is_empty",
    "contains",
    "contains_key",
    "iter",
    "iter_mut",
    "keys",
    "values",
    "entry",
    "drain",
    "retain",
    "extend",
    "append",
    "split_off",
    "first",
    "last",
    "next",
    "take",
    "replace",
    "join",
    "send",
    "recv",
    "read",
    "write",
    "lock",
    "try_lock",
    "flush",
    "clone",
    "drop",
];

/// Resolve a call site to candidate function indices.
///
/// Precision rules (each one exists because its absence produced concrete
/// false positives on this workspace):
/// - Candidates must live in a crate the caller's crate can depend on.
/// - `drop` never resolves — it is a release, modeled separately.
/// - A qualified call (`Type::f`, `module::f`) resolves only within its
///   qualifier; an empty match means an external/std target, not "anyone".
/// - A bare method call on a non-`self` receiver resolves only for names
///   that don't collide with the standard collections (`STD_METHOD_NAMES`).
fn resolve(
    caller: &FnModel,
    call: &CallSite,
    by_name: &HashMap<&str, Vec<usize>>,
    models: &[FnModel],
) -> Vec<usize> {
    if call.name == "drop" {
        return Vec::new();
    }
    let Some(all) = by_name.get(call.name.as_str()) else {
        return Vec::new();
    };
    let reachable: Vec<usize> = all
        .iter()
        .copied()
        .filter(|i| config::crate_reachable(&caller.krate, &models[*i].krate))
        .collect();

    let cands: Vec<usize> = if let Some(q) = &call.qual {
        if q == "Self" {
            reachable
                .iter()
                .copied()
                .filter(|i| {
                    models[*i].self_ty == caller.self_ty && models[*i].krate == caller.krate
                })
                .collect()
        } else if q.chars().next().is_some_and(char::is_uppercase) {
            // `Type::f` — match by impl type name.
            reachable
                .iter()
                .copied()
                .filter(|i| models[*i].self_ty.as_deref() == Some(q.as_str()))
                .collect()
        } else {
            // `module::f` — a free function; prefer the caller's crate.
            let free: Vec<usize> = reachable
                .iter()
                .copied()
                .filter(|i| models[*i].self_ty.is_none())
                .collect();
            let same_crate: Vec<usize> = free
                .iter()
                .copied()
                .filter(|i| models[*i].krate == caller.krate)
                .collect();
            if same_crate.is_empty() {
                free
            } else {
                same_crate
            }
        }
    } else if call.recv.as_deref() == Some("self") {
        let same_impl: Vec<usize> = reachable
            .iter()
            .copied()
            .filter(|i| models[*i].self_ty == caller.self_ty && models[*i].krate == caller.krate)
            .collect();
        if !same_impl.is_empty() {
            same_impl
        } else {
            reachable
                .iter()
                .copied()
                .filter(|i| models[*i].krate == caller.krate)
                .collect()
        }
    } else if call.recv.is_some() {
        // Method on an arbitrary local: no type information. Resolve only
        // names that cannot be mistaken for std-collection methods.
        if STD_METHOD_NAMES.contains(&call.name.as_str()) {
            Vec::new()
        } else {
            reachable
        }
    } else {
        // Unqualified free call: almost always same-crate.
        let same_crate: Vec<usize> = reachable
            .iter()
            .copied()
            .filter(|i| models[*i].krate == caller.krate)
            .collect();
        if same_crate.is_empty() {
            reachable
        } else {
            same_crate
        }
    };

    if cands.len() > MAX_CALL_CANDIDATES {
        Vec::new()
    } else {
        cands
    }
}

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "unimplemented"];
const STRAY_MACROS: &[&str] = &["dbg", "todo"];

/// Run every rule. `comments` is keyed by workspace-relative path.
pub fn run(models: &[FnModel], comments: &HashMap<String, CommentMap>) -> (Vec<Finding>, usize) {
    let scans: Vec<FnScan> = models.iter().map(scan_fn).collect();

    // Call-target index over non-test functions.
    let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, m) in models.iter().enumerate() {
        if !m.in_test {
            by_name.entry(m.name.as_str()).or_default().push(i);
        }
    }

    // Cache call resolutions, then compute transitive may-acquire sets.
    let resolved: Vec<Vec<Vec<usize>>> = models
        .iter()
        .enumerate()
        .map(|(i, m)| {
            scans[i]
                .calls
                .iter()
                .map(|c| resolve(m, c, &by_name, models))
                .collect()
        })
        .collect();

    let mut acquires: Vec<u64> = scans.iter().map(|s| s.local_acquires).collect();
    loop {
        let mut changed = false;
        for i in 0..models.len() {
            let mut mask = acquires[i];
            for targets in &resolved[i] {
                for t in targets {
                    mask |= acquires[*t];
                }
            }
            if mask != acquires[i] {
                acquires[i] = mask;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let mut findings: Vec<Finding> = Vec::new();
    let empty = CommentMap::default();
    let mut allows_used = 0usize;

    let push = |f: Finding,
                comments: &HashMap<String, CommentMap>,
                allows_used: &mut usize,
                findings: &mut Vec<Finding>| {
        let cm = comments.get(&f.file).unwrap_or(&empty);
        if cm.is_allowed(f.rule, f.line) {
            *allows_used += 1;
        } else {
            findings.push(f);
        }
    };

    for (i, m) in models.iter().enumerate() {
        let scan = &scans[i];

        // ---- Lock rules (non-test code only: models and stress tests
        // intentionally poke internals out of order). ----
        if !m.in_test {
            let mut pairs: Vec<Pair> = scan.pairs.clone();
            for (c, targets) in scan.calls.iter().zip(&resolved[i]) {
                if c.held.is_empty() {
                    continue;
                }
                let mut callee_mask = 0u64;
                for t in targets {
                    callee_mask |= acquires[*t];
                }
                for acq in classes_of(callee_mask) {
                    for h in &c.held {
                        pairs.push(Pair {
                            held: *h,
                            acquired: acq,
                            acq_mode: AcqMode::Write,
                            line: c.line,
                            via: Some(c.name.clone()),
                        });
                    }
                }
            }

            let mut seen: Vec<(u32, u32, usize)> = Vec::new();
            for p in &pairs {
                let key = (p.held.rank, p.acquired.rank, p.line);
                if seen.contains(&key) {
                    continue;
                }
                seen.push(key);
                let via = p
                    .via
                    .as_ref()
                    .map(|v| format!(" (via call to `{v}`)"))
                    .unwrap_or_default();
                // Mode-aware MVCC rule: a snapshot pin held across a
                // *write*-mode acquisition of the directory (the writer's
                // structural lock) is writer work under a reader guard.
                if p.held.rank == config::PAGER_MVCC_EPOCH.rank
                    && p.acquired.rank == config::CORE_DIRECTORY.rank
                    && p.acq_mode == AcqMode::Write
                    && p.via.is_none()
                {
                    push(
                        Finding {
                            rule: "guard-across-writer",
                            file: m.file.clone(),
                            line: p.line,
                            message: format!(
                                "`{}` takes the directory write lock while holding a \
                                 snapshot pin; the pin keeps retired generations alive \
                                 and its view predates the mutation — drop the guard \
                                 before writer work (see DESIGN.md §14)",
                                m.name
                            ),
                            lock_path: Some(format!("{} -> {}", p.held.name, p.acquired.name)),
                        },
                        comments,
                        &mut allows_used,
                        &mut findings,
                    );
                    continue;
                }
                if p.held.rank == p.acquired.rank {
                    // The epoch pin is a refcount: pinning again under a
                    // held pin is re-entrant by design, not a reentry bug.
                    if p.held.rank == config::PAGER_MVCC_EPOCH.rank {
                        continue;
                    }
                    push(
                        Finding {
                            rule: "lock-reentry",
                            file: m.file.clone(),
                            line: p.line,
                            message: format!(
                                "`{}` re-acquires {} while already holding it{via}; \
                                 the pool shard and helper locks are not re-entrant",
                                m.name, p.held.name
                            ),
                            lock_path: Some(format!("{} -> {}", p.held.name, p.acquired.name)),
                        },
                        comments,
                        &mut allows_used,
                        &mut findings,
                    );
                } else if p.acquired.rank < p.held.rank {
                    push(
                        Finding {
                            rule: "lock-order",
                            file: m.file.clone(),
                            line: p.line,
                            message: format!(
                                "`{}` acquires {} (rank {}) while holding {} (rank {}){via}; \
                                 the declared hierarchy requires strictly increasing rank",
                                m.name, p.acquired.name, p.acquired.rank, p.held.name, p.held.rank
                            ),
                            lock_path: Some(format!("{} -> {}", p.held.name, p.acquired.name)),
                        },
                        comments,
                        &mut allows_used,
                        &mut findings,
                    );
                }
            }

            // A snapshot pin held across a transaction entry point is the
            // other `guard-across-writer` shape: the writer publishes a new
            // generation while this thread's view pins the old one.
            for c in &scan.calls {
                if config::is_writer_entry(&c.name)
                    && c.held
                        .iter()
                        .any(|h| h.rank == config::PAGER_MVCC_EPOCH.rank)
                {
                    push(
                        Finding {
                            rule: "guard-across-writer",
                            file: m.file.clone(),
                            line: c.line,
                            message: format!(
                                "`{}` calls writer entry point `{}` while holding a \
                                 snapshot pin; drop the guard before beginning a \
                                 transaction (see DESIGN.md §14)",
                                m.name, c.name
                            ),
                            lock_path: Some(format!(
                                "{} -> txn:{}",
                                config::PAGER_MVCC_EPOCH.name,
                                c.name
                            )),
                        },
                        comments,
                        &mut allows_used,
                        &mut findings,
                    );
                }
            }
        }

        // ---- Per-event rules. ----
        let lock_unwrap_lines: Vec<usize> = m
            .events
            .iter()
            .filter_map(|e| match e {
                Event::LockUnwrap { line } => Some(*line),
                _ => None,
            })
            .collect();

        for ev in &m.events {
            match ev {
                Event::Atomic {
                    field,
                    orderings,
                    line,
                    ..
                } if !m.in_test
                    && config::CRITICAL_ATOMICS.contains(&field.as_str())
                    && orderings.iter().any(|o| o == "Relaxed") =>
                {
                    push(
                        Finding {
                            rule: "atomic-ordering",
                            file: m.file.clone(),
                            line: *line,
                            message: format!(
                                "`Ordering::Relaxed` on critical atomic `{field}` in `{}`; \
                                 this field is a synchronization point and requires \
                                 Acquire/Release (see DESIGN.md §13)",
                                m.name
                            ),
                            lock_path: None,
                        },
                        comments,
                        &mut allows_used,
                        &mut findings,
                    );
                }
                Event::Panicky { name, line, .. } if !m.in_test => {
                    if lock_unwrap_lines.contains(line) {
                        // Reported by the more specific lock-unwrap rule.
                    } else if config::is_hot_path(&m.file) {
                        push(
                            Finding {
                                rule: "hot-path-panic",
                                file: m.file.clone(),
                                line: *line,
                                message: format!(
                                    "`.{name}()` in hot-path function `{}`; corruption must \
                                     surface as an error, never a panic",
                                    m.name
                                ),
                                lock_path: None,
                            },
                            comments,
                            &mut allows_used,
                            &mut findings,
                        );
                    } else if config::is_serve_worker_path(&m.file) {
                        push(
                            Finding {
                                rule: "serve-worker-panic",
                                file: m.file.clone(),
                                line: *line,
                                message: format!(
                                    "`.{name}()` in serve worker path `{}`; a worker panic \
                                     poisons shared state for every connection",
                                    m.name
                                ),
                                lock_path: None,
                            },
                            comments,
                            &mut allows_used,
                            &mut findings,
                        );
                    }
                }
                Event::LockUnwrap { line } if !m.in_test => {
                    push(
                        Finding {
                            rule: "lock-unwrap",
                            file: m.file.clone(),
                            line: *line,
                            message: format!(
                                "panic on a lock result in `{}`; use the poison-recovering \
                                 helpers (`rd`/`wr`/`mutex_lock`/`lock`) instead",
                                m.name
                            ),
                            lock_path: None,
                        },
                        comments,
                        &mut allows_used,
                        &mut findings,
                    );
                }
                Event::Index { line } if !m.in_test && config::is_serve_worker_path(&m.file) => {
                    push(
                        Finding {
                            rule: "serve-worker-panic",
                            file: m.file.clone(),
                            line: *line,
                            message: format!(
                                "indexing expression in serve worker path `{}` can panic on \
                                 malformed protocol frames; use `.get(..)` and surface a \
                                 protocol error",
                                m.name
                            ),
                            lock_path: None,
                        },
                        comments,
                        &mut allows_used,
                        &mut findings,
                    );
                }
                Event::MacroUse { name, line } => {
                    if STRAY_MACROS.contains(&name.as_str()) {
                        push(
                            Finding {
                                rule: "stray-debug-macro",
                                file: m.file.clone(),
                                line: *line,
                                message: format!("`{name}!` left in `{}`", m.name),
                                lock_path: None,
                            },
                            comments,
                            &mut allows_used,
                            &mut findings,
                        );
                    } else if PANIC_MACROS.contains(&name.as_str()) && !m.in_test {
                        if config::is_hot_path(&m.file) {
                            push(
                                Finding {
                                    rule: "hot-path-panic",
                                    file: m.file.clone(),
                                    line: *line,
                                    message: format!("`{name}!` in hot-path function `{}`", m.name),
                                    lock_path: None,
                                },
                                comments,
                                &mut allows_used,
                                &mut findings,
                            );
                        } else if config::is_serve_worker_path(&m.file) {
                            push(
                                Finding {
                                    rule: "serve-worker-panic",
                                    file: m.file.clone(),
                                    line: *line,
                                    message: format!("`{name}!` in serve worker path `{}`", m.name),
                                    lock_path: None,
                                },
                                comments,
                                &mut allows_used,
                                &mut findings,
                            );
                        }
                    }
                }
                Event::RawPageIo { name, line } if !config::is_pager_internal(&m.file) => {
                    push(
                        Finding {
                            rule: "raw-page-io",
                            file: m.file.clone(),
                            line: *line,
                            message: format!(
                                "`.{name}(` outside the pager bypasses the buffer pool and \
                                 the WAL (in `{}`)",
                                m.name
                            ),
                            lock_path: None,
                        },
                        comments,
                        &mut allows_used,
                        &mut findings,
                    );
                }
                Event::SynopsisMutation { name, line }
                    if !config::is_synopsis_internal(&m.file) && !m.in_test =>
                {
                    push(
                        Finding {
                            rule: "synopsis-mutation",
                            file: m.file.clone(),
                            line: *line,
                            message: format!(
                                "`.{name}(` outside core::{{build, update, synopsis}} (in \
                                 `{}`); synopsis counters change only under the WAL and \
                                 publish per MVCC generation",
                                m.name
                            ),
                            lock_path: None,
                        },
                        comments,
                        &mut allows_used,
                        &mut findings,
                    );
                }
                Event::PlanOp { name, line } if !config::is_plan_internal(&m.file) => {
                    push(
                        Finding {
                            rule: "plan-operator-construction",
                            file: m.file.clone(),
                            line: *line,
                            message: format!(
                                "`{name}::` outside the planner pipeline (in `{}`); plans are \
                                 consumed opaquely via plan_query/execute_plan",
                                m.name
                            ),
                            lock_path: None,
                        },
                        comments,
                        &mut allows_used,
                        &mut findings,
                    );
                }
                _ => {}
            }
        }
    }

    // ---- Lexical rules (from the comment/code scan): `unsafe` needs a
    // SAFETY justification within three lines. ----
    for (file, cm) in comments {
        for line in cm.unsafe_sites() {
            if !cm.contains_near(line, 3, "SAFETY:") {
                push(
                    Finding {
                        rule: "undocumented-unsafe",
                        file: file.clone(),
                        line,
                        message: "`unsafe` without a `// SAFETY:` justification on the same \
                                  line or the three lines above"
                            .to_string(),
                        lock_path: None,
                    },
                    comments,
                    &mut allows_used,
                    &mut findings,
                );
            }
        }
    }

    // ---- Directive hygiene: every allow must name known rules and give a
    // reason. ----
    for (file, cm) in comments {
        for a in &cm.allows {
            if a.reason.is_empty() {
                findings.push(Finding {
                    rule: "bare-allow",
                    file: file.clone(),
                    line: a.line,
                    message: "analyze: allow(...) without a reason; every exception must \
                              say why it is sound"
                        .to_string(),
                    lock_path: None,
                });
            }
            for r in &a.rules {
                if !config::ALL_RULES.contains(&r.as_str()) {
                    findings.push(Finding {
                        rule: "unknown-allow",
                        file: file.clone(),
                        line: a.line,
                        message: format!("analyze: allow names unknown rule `{r}`"),
                        lock_path: None,
                    });
                }
            }
        }
    }

    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    (findings, allows_used)
}
