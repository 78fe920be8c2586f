//! Per-function models: walk `syn` token trees and extract the events the
//! rules reason about — lock acquisitions, atomic operations, calls,
//! panicking constructs, raw page IO, plan-operator references.
//!
//! The walk is scope-aware: brace groups open nested scopes, `;` ends
//! statements, and each acquisition records whether it was `let`-bound
//! (guard lives to the end of the enclosing block) or a temporary (guard
//! dies at the end of the statement). That approximation matches how every
//! guard in this workspace is actually used and is what makes the held-set
//! computation in `rules.rs` precise enough to be quiet on correct code.

use crate::config::{self, AcqMode, LockClass};
use syn::{Delimiter, Group, Item, ItemFn, TokenTree};

/// One extracted event, in source order.
#[derive(Debug, Clone)]
pub enum Event {
    EnterBlock,
    ExitBlock,
    EndStmt,
    /// A lock acquisition (helper call, guard-returning method, or
    /// guard-returning function from the summary table).
    Acquire {
        class: LockClass,
        mode: AcqMode,
        let_bound: bool,
        /// The `let` variable holding the guard, when known — lets an
        /// explicit `drop(var)` release it early.
        var: Option<String>,
        line: usize,
    },
    /// `drop(var)` — the idiomatic early guard release.
    Release {
        var: String,
        line: usize,
    },
    /// A call that could not be classified as anything more specific.
    Call {
        name: String,
        /// `Foo` in `Foo::name(...)`, when path-qualified.
        qual: Option<String>,
        /// Last receiver segment in `recv.name(...)`, when a method call.
        recv: Option<String>,
        line: usize,
    },
    /// An atomic operation with explicit `Ordering` arguments.
    Atomic {
        field: String,
        op: String,
        orderings: Vec<String>,
        line: usize,
    },
    /// `.unwrap()` / `.expect(...)`.
    Panicky {
        name: String,
        recv: Option<String>,
        line: usize,
    },
    /// `.unwrap()`/`.expect()` directly on a lock acquisition result.
    LockUnwrap {
        line: usize,
    },
    /// `name!(...)` macro invocation.
    MacroUse {
        name: String,
        line: usize,
    },
    /// `.write_page(` / `.allocate_page(`.
    RawPageIo {
        name: String,
        line: usize,
    },
    /// `SeedChoice::` reference.
    PlanOp {
        name: String,
        line: usize,
    },
    /// A synopsis counter mutation (`add_path_count`, `sub_tag_count`, ...).
    SynopsisMutation {
        name: String,
        line: usize,
    },
    /// `expr[...]` indexing in expression position.
    Index {
        line: usize,
    },
}

/// The model of one function (or one opaque item's initializer tokens).
#[derive(Debug)]
pub struct FnModel {
    /// Workspace-relative path.
    pub file: String,
    /// Short crate name (`core`, `pager`, ...).
    pub krate: String,
    pub name: String,
    /// `impl` self type, when the fn lives in an impl block.
    pub self_ty: Option<String>,
    pub line: usize,
    /// Inside `#[cfg(test)]` / `#[test]` / a tests directory.
    pub in_test: bool,
    pub events: Vec<Event>,
}

const ATOMIC_OPS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

const ORDERING_NAMES: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// The synopsis mutation API: calls to these from outside
/// `core::{build, update, synopsis}` violate the maintenance contract
/// (mutations happen under the WAL and publish per generation).
const SYNOPSIS_MUTATORS: &[&str] = &[
    "add_tag_count",
    "sub_tag_count",
    "add_path_count",
    "sub_path_count",
    "count_node",
    "uncount_node",
    "fold_to",
    "raise_depth_bound",
];

/// Idents that precede a bracket group in non-indexing positions (array
/// literals after `return`/`mut`, slice types after `dyn`, ...).
const KEYWORDS_BEFORE_BRACKET: &[&str] = &[
    "mut", "return", "in", "else", "match", "if", "while", "loop", "move", "as", "break", "dyn",
    "const",
];

/// Collect models for every function in a parsed file, tests included
/// (rules decide what test code is exempt from).
pub fn collect(file_rel: &str, ast: &syn::File) -> Vec<FnModel> {
    let krate = config::crate_of(file_rel).to_string();
    let file_is_test = config::is_test_path(file_rel);
    let mut out = Vec::new();
    collect_items(&ast.items, file_rel, &krate, None, file_is_test, &mut out);
    out
}

fn attrs_mark_test(attrs: &[syn::Attribute]) -> bool {
    attrs
        .iter()
        .any(|a| a.cfg_mentions("test") || a.path == "test" || a.path.ends_with("::test"))
}

fn collect_items(
    items: &[Item],
    file: &str,
    krate: &str,
    self_ty: Option<&str>,
    in_test: bool,
    out: &mut Vec<FnModel>,
) {
    for item in items {
        let item_test = in_test || attrs_mark_test(item.attrs());
        match item {
            Item::Fn(f) => out.push(model_fn(f, file, krate, self_ty, item_test)),
            Item::Mod(m) => {
                if let Some(content) = &m.content {
                    collect_items(content, file, krate, self_ty, item_test, out);
                }
            }
            Item::Impl(i) => {
                for f in &i.fns {
                    let fn_test = item_test || attrs_mark_test(&f.attrs);
                    out.push(model_fn(f, file, krate, Some(&i.self_ty), fn_test));
                }
            }
            Item::Trait(t) => {
                for f in &t.fns {
                    let fn_test = item_test || attrs_mark_test(&f.attrs);
                    out.push(model_fn(f, file, krate, Some(&t.ident.text), fn_test));
                }
            }
            Item::Other(o) => {
                // Scan const/static/macro initializer tokens too so stray
                // macros and plan-operator references can't hide there.
                // Bracket groups in type declarations are slice/array types,
                // never runtime indexing — drop those events.
                let mut events = Vec::new();
                extract(&o.tokens.0, krate, &mut events, false);
                events.retain(|e| !matches!(e, Event::Index { .. }));
                if !events.is_empty() {
                    out.push(FnModel {
                        file: file.to_string(),
                        krate: krate.to_string(),
                        name: format!("<{}>", o.keyword.as_deref().unwrap_or("item")),
                        self_ty: self_ty.map(str::to_string),
                        line: o.span.line,
                        in_test: item_test,
                        events,
                    });
                }
            }
        }
    }
}

fn model_fn(f: &ItemFn, file: &str, krate: &str, self_ty: Option<&str>, in_test: bool) -> FnModel {
    let in_test = in_test || attrs_mark_test(&f.attrs);
    let mut events = Vec::new();
    if let Some(block) = &f.block {
        extract(&block.stream.0, krate, &mut events, true);
    }
    FnModel {
        file: file.to_string(),
        krate: krate.to_string(),
        name: f.ident.text.clone(),
        self_ty: self_ty.map(str::to_string),
        line: f.ident.span.line,
        in_test,
        events,
    }
}

/// The receiver's last field segment for the method call whose `.` sits at
/// `dot` — skipping index brackets, and resolving a call-result receiver to
/// the called function's name (`lock(&x).take()` → `lock`).
fn recv_segment(toks: &[TokenTree], dot: usize) -> Option<String> {
    let mut j = dot;
    loop {
        if j == 0 {
            return None;
        }
        j -= 1;
        match &toks[j] {
            TokenTree::Group(g) if g.delimiter == Delimiter::Bracket => continue,
            TokenTree::Group(g) if g.delimiter == Delimiter::Parenthesis => {
                return match toks.get(j.wrapping_sub(1)) {
                    Some(TokenTree::Ident(i)) if j >= 1 => Some(i.text.clone()),
                    _ => None,
                };
            }
            TokenTree::Ident(i) => return Some(i.text.clone()),
            _ => return None,
        }
    }
}

/// The last top-level field segment inside a helper-call argument group:
/// `&self.dir` → `dir`, `&self.shards[i]` → `shards`, `&frame.data` →
/// `data`. Nested groups are skipped so index expressions don't win.
fn arg_field(group: &Group) -> Option<String> {
    let mut last = None;
    for t in group.stream.iter() {
        if let TokenTree::Ident(i) = t {
            last = Some(i.text.clone());
        }
    }
    last
}

/// Ordering idents (`Relaxed`, `Acquire`, ...) that appear as
/// `Ordering::Name` anywhere inside `group`, in order.
fn orderings_in(group: &Group) -> Vec<String> {
    let mut out = Vec::new();
    collect_orderings(&group.stream.0, &mut out);
    out
}

fn collect_orderings(toks: &[TokenTree], out: &mut Vec<String>) {
    for (k, t) in toks.iter().enumerate() {
        match t {
            TokenTree::Ident(i)
                if ORDERING_NAMES.contains(&i.text.as_str())
                // Require a preceding `Ordering ::`.
                && k >= 3
                    && matches!(&toks[k - 1], TokenTree::Punct(p) if p.ch == ':')
                    && matches!(&toks[k - 2], TokenTree::Punct(p) if p.ch == ':')
                    && matches!(&toks[k - 3], TokenTree::Ident(q) if q.text == "Ordering") =>
            {
                out.push(i.text.clone());
            }
            TokenTree::Group(g) => collect_orderings(&g.stream.0, out),
            _ => {}
        }
    }
}

/// Is the token after `i` (a call's argument group) a `.unwrap()` /
/// `.expect(...)` chain link?
fn chained_unwrap(toks: &[TokenTree], group_idx: usize) -> bool {
    matches!(
        (toks.get(group_idx + 1), toks.get(group_idx + 2)),
        (Some(TokenTree::Punct(p)), Some(TokenTree::Ident(m)))
            if p.ch == '.' && (m.text == "unwrap" || m.text == "expect")
    )
}

/// Does the chain after a guard-producing call consume the guard? Any
/// chained method except `.unwrap()`/`.expect()` (which return the guard on
/// a poisoned-lock result) yields a non-guard value, so `let` then binds
/// that result and the guard itself dies at the end of the statement.
fn chain_consumes_guard(toks: &[TokenTree], group_idx: usize) -> bool {
    matches!(
        (toks.get(group_idx + 1), toks.get(group_idx + 2)),
        (Some(TokenTree::Punct(p)), Some(TokenTree::Ident(m)))
            if p.ch == '.' && m.text != "unwrap" && m.text != "expect"
    )
}

/// Walk one token slice. `stmt_ctx` is true for brace-block interiors where
/// `;` separates statements; false inside parenthesis/bracket/macro groups.
fn extract(toks: &[TokenTree], krate: &str, out: &mut Vec<Event>, stmt_ctx: bool) {
    let mut stmt_let = false;
    let mut stmt_var: Option<String> = None;
    let mut at_stmt_start = true;
    let mut i = 0;
    while i < toks.len() {
        match (&toks[i], toks.get(i + 1)) {
            (TokenTree::Punct(p), _) if p.ch == ';' && stmt_ctx => {
                out.push(Event::EndStmt);
                stmt_let = false;
                stmt_var = None;
                at_stmt_start = true;
                i += 1;
                continue;
            }
            (TokenTree::Ident(id), _) if id.text == "let" && at_stmt_start => {
                stmt_let = true;
                // `let [mut] name = ...` — capture simple-ident bindings so
                // `drop(name)` can release the guard; patterns stay None.
                let mut j = i + 1;
                if matches!(toks.get(j), Some(TokenTree::Ident(m)) if m.text == "mut") {
                    j += 1;
                }
                stmt_var = match toks.get(j) {
                    Some(TokenTree::Ident(v)) if v.text != "mut" => Some(v.text.clone()),
                    _ => None,
                };
            }
            (TokenTree::Ident(id), _) if id.text == "unsafe" => {
                // The undocumented-unsafe rule runs on the lexical pass
                // (comments.rs); nothing to record here.
                let _ = id;
            }
            // `name!(...)` macro invocation.
            (TokenTree::Ident(id), Some(TokenTree::Punct(p)))
                if p.ch == '!' && matches!(toks.get(i + 2), Some(TokenTree::Group(_))) =>
            {
                out.push(Event::MacroUse {
                    name: id.text.clone(),
                    line: id.span.line,
                });
                if let Some(TokenTree::Group(g)) = toks.get(i + 2) {
                    extract(&g.stream.0, krate, out, false);
                }
                i += 3;
                at_stmt_start = false;
                continue;
            }
            // `SeedChoice::` reference.
            (TokenTree::Ident(id), Some(TokenTree::Punct(p)))
                if id.text == "SeedChoice"
                    && p.ch == ':'
                    && matches!(toks.get(i + 2), Some(TokenTree::Punct(p)) if p.ch == ':') =>
            {
                out.push(Event::PlanOp {
                    name: id.text.clone(),
                    line: id.span.line,
                });
            }
            // `name(...)`: free call, path call, or method call.
            (TokenTree::Ident(id), Some(TokenTree::Group(args)))
                if args.delimiter == Delimiter::Parenthesis =>
            {
                let name = id.text.as_str();
                let line = id.span.line;
                let is_method =
                    i >= 1 && matches!(&toks[i - 1], TokenTree::Punct(p) if p.ch == '.');
                let qual = if !is_method
                    && i >= 2
                    && matches!(&toks[i - 1], TokenTree::Punct(p) if p.ch == ':')
                    && matches!(&toks[i - 2], TokenTree::Punct(p) if p.ch == ':')
                {
                    match toks.get(i.wrapping_sub(3)) {
                        Some(TokenTree::Ident(q)) => Some(q.text.clone()),
                        _ => None,
                    }
                } else {
                    None
                };
                let recv = if is_method {
                    recv_segment(toks, i - 1)
                } else {
                    None
                };

                let classified = classify_call(
                    name, is_method, &qual, &recv, args, krate, stmt_let, &stmt_var, line, out,
                );
                if classified && chained_unwrap(toks, i + 1) {
                    // `.lock().unwrap()` on a modeled lock: flagged as a
                    // panic on a lock result regardless of receiver name.
                    if matches!(out.last(), Some(Event::Acquire { .. })) {
                        out.push(Event::LockUnwrap { line });
                    }
                }
                if classified && chain_consumes_guard(toks, i + 1) {
                    // `mutex_lock(&x).allocate_page()?` — the chain consumes
                    // the guard and the `let` binds the *result*, so the
                    // guard is a statement temporary, not block-scoped.
                    if let Some(Event::Acquire { let_bound, var, .. }) = out.last_mut() {
                        *let_bound = false;
                        *var = None;
                    }
                }
                extract(&args.stream.0, krate, out, false);
                i += 2;
                at_stmt_start = false;
                continue;
            }
            (TokenTree::Group(g), _) if g.delimiter == Delimiter::Brace => {
                out.push(Event::EnterBlock);
                extract(&g.stream.0, krate, out, true);
                out.push(Event::ExitBlock);
                // A block in statement position ends the statement without a
                // `;` (if/match/loop statements): scrutinee temporaries drop
                // here. Struct literals mid-expression (followed by `.`/`?`)
                // and `let x = S { .. };` (followed by `;`) are excluded.
                let ends_stmt = stmt_ctx
                    && !matches!(
                        toks.get(i + 1),
                        Some(TokenTree::Punct(p)) if p.ch == '.' || p.ch == '?' || p.ch == ';'
                    );
                if ends_stmt {
                    out.push(Event::EndStmt);
                    stmt_let = false;
                    at_stmt_start = true;
                } else {
                    at_stmt_start = false;
                }
                i += 1;
                continue;
            }
            (TokenTree::Group(g), _) if g.delimiter == Delimiter::Bracket => {
                // Indexing when the bracket follows an ident or a group
                // (call result / prior index); array literals and types
                // follow punctuation and stay silent. A preceding lifetime
                // (`&'a [u8]`) or keyword (`return [..]`, `&mut [..]`) means
                // a slice type or array literal, not indexing.
                let prev_is_expr = match toks.get(i.wrapping_sub(1)) {
                    Some(TokenTree::Ident(p)) if i >= 1 => {
                        !KEYWORDS_BEFORE_BRACKET.contains(&p.text.as_str())
                            && !matches!(
                                toks.get(i.wrapping_sub(2)),
                                Some(TokenTree::Punct(q)) if i >= 2 && q.ch == '\''
                            )
                    }
                    Some(TokenTree::Group(_)) if i >= 1 => true,
                    _ => false,
                };
                if prev_is_expr {
                    out.push(Event::Index { line: g.span.line });
                }
                extract(&g.stream.0, krate, out, false);
                i += 1;
                at_stmt_start = false;
                continue;
            }
            (TokenTree::Group(g), _) => {
                extract(&g.stream.0, krate, out, false);
                i += 1;
                at_stmt_start = false;
                continue;
            }
            _ => {}
        }
        if !matches!(&toks[i], TokenTree::Punct(_)) {
            at_stmt_start = false;
        }
        i += 1;
    }
}

/// Classify one call. Returns true when the call became an `Acquire`.
#[allow(clippy::too_many_arguments)]
fn classify_call(
    name: &str,
    is_method: bool,
    qual: &Option<String>,
    recv: &Option<String>,
    args: &Group,
    krate: &str,
    stmt_let: bool,
    stmt_var: &Option<String>,
    line: usize,
    out: &mut Vec<Event>,
) -> bool {
    // Poison-recovering helper: `rd(&self.dir)`, `write_lock(&frame.data)`.
    if !is_method {
        if let Some(mode) = config::helper_mode(name) {
            if let Some(field) = arg_field(args) {
                if let Some(class) = config::lock_for_field(krate, &field) {
                    out.push(Event::Acquire {
                        class,
                        mode,
                        let_bound: stmt_let,
                        var: if stmt_let { stmt_var.clone() } else { None },
                        line,
                    });
                    return true;
                }
            }
            // A lock helper over an unmodeled field is still an
            // acquisition of *something*; record as a call so the
            // call-graph can stay conservative.
        }

        // `drop(guard)` / `mem::drop(guard)` — explicit early release.
        if name == "drop" {
            if let Some(var) = arg_field(args) {
                out.push(Event::Release { var, line });
            }
            return false;
        }
    }

    if is_method {
        // Atomic operation with explicit Ordering arguments.
        if ATOMIC_OPS.contains(&name) {
            let orderings = orderings_in(args);
            if !orderings.is_empty() {
                out.push(Event::Atomic {
                    field: recv.clone().unwrap_or_default(),
                    op: name.to_string(),
                    orderings,
                    line,
                });
                return false;
            }
        }

        // Guard-returning method on a modeled lock field.
        if let Some(mode) = config::method_mode(name) {
            if let Some(r) = recv {
                if let Some(class) = config::lock_for_field(krate, r) {
                    out.push(Event::Acquire {
                        class,
                        mode,
                        let_bound: stmt_let,
                        var: if stmt_let { stmt_var.clone() } else { None },
                        line,
                    });
                    return true;
                }
            }
        }

        if name == "unwrap" || name == "expect" {
            if matches!(recv.as_deref(), Some("lock") | Some("try_lock")) {
                out.push(Event::LockUnwrap { line });
            }
            out.push(Event::Panicky {
                name: name.to_string(),
                recv: recv.clone(),
                line,
            });
            return false;
        }

        if name == "write_page" || name == "allocate_page" {
            out.push(Event::RawPageIo {
                name: name.to_string(),
                line,
            });
            return false;
        }
    }

    if SYNOPSIS_MUTATORS.contains(&name) {
        out.push(Event::SynopsisMutation {
            name: name.to_string(),
            line,
        });
        return false;
    }

    // Guard-returning function from the summary table (`dir_mut`).
    if let Some(class) = config::guard_returning_fn(name) {
        out.push(Event::Acquire {
            class,
            mode: AcqMode::Write,
            let_bound: stmt_let,
            var: if stmt_let { stmt_var.clone() } else { None },
            line,
        });
        return true;
    }

    // A method chained directly onto a guard producer operates on the
    // *guarded value* (`mutex_lock(&x).read_page(..)`, `rd(&d).get(..)`);
    // its name must not resolve to same-named workspace functions.
    if is_method {
        if let Some(r) = recv.as_deref() {
            if config::helper_mode(r).is_some()
                || config::method_mode(r).is_some()
                || config::guard_returning_fn(r).is_some()
                || r == "unwrap"
                || r == "expect"
            {
                return false;
            }
        }
    }

    out.push(Event::Call {
        name: name.to_string(),
        qual: qual.clone(),
        recv: recv.clone(),
        line,
    });
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn models(src: &str) -> Vec<FnModel> {
        let ast = syn::parse_file(src).expect("parse");
        collect("crates/core/src/store.rs", &ast)
    }

    fn events(src: &str) -> Vec<Event> {
        models(src).remove(0).events
    }

    #[test]
    fn helper_acquire_with_let_binding() {
        let ev = events("fn f(&self) { let g = wr(&self.dir); g.push(1); }");
        let acq = ev
            .iter()
            .find_map(|e| match e {
                Event::Acquire {
                    class, let_bound, ..
                } => Some((class.name, *let_bound)),
                _ => None,
            })
            .expect("acquire");
        assert_eq!(acq, ("core.directory", true));
    }

    #[test]
    fn temporary_acquire_not_let_bound() {
        let ev = events("fn f(&self) { wr(&self.dir).clear(); }");
        assert!(ev.iter().any(|e| matches!(
            e,
            Event::Acquire {
                class, let_bound: false, ..
            } if class.name == "core.directory"
        )));
    }

    #[test]
    fn shard_index_classifies_to_shard_not_index_var() {
        let ast =
            syn::parse_file("fn f(&self) { let s = write_lock(&self.shards[shard_of(id)]); }")
                .expect("parse");
        let m = collect("crates/pager/src/pool.rs", &ast);
        assert!(m[0].events.iter().any(|e| matches!(
            e,
            Event::Acquire { class, .. } if class.name == "pager.pool_shard"
        )));
    }

    #[test]
    fn atomic_op_with_ordering_extracted() {
        let ev = events("fn f(&self) { let g = self.txn_active.load(Ordering::Acquire); }");
        assert!(ev.iter().any(|e| matches!(
            e,
            Event::Atomic { field, op, orderings, .. }
                if field == "txn_active" && op == "load" && orderings == &["Acquire"]
        )));
    }

    #[test]
    fn fully_qualified_ordering_extracted() {
        let ev = events("fn f(&self) { c.fetch_add(1, std::sync::atomic::Ordering::Relaxed); }");
        assert!(ev.iter().any(|e| matches!(
            e,
            Event::Atomic { orderings, .. } if orderings == &["Relaxed"]
        )));
    }

    #[test]
    fn multiline_unwrap_is_one_event() {
        let ev = events("fn f() { some_result\n    .unwrap\n    () ; }");
        assert!(ev
            .iter()
            .any(|e| matches!(e, Event::Panicky { name, .. } if name == "unwrap")));
    }

    #[test]
    fn unwrap_inside_string_not_flagged() {
        let ev = events("fn f() { let s = \".unwrap()\"; }");
        assert!(!ev.iter().any(|e| matches!(e, Event::Panicky { .. })));
    }

    #[test]
    fn lock_unwrap_detected_on_unknown_receiver() {
        let ev = events("fn f(m: &Mutex<u8>) { let g = m.lock().unwrap(); }");
        assert!(ev.iter().any(|e| matches!(e, Event::LockUnwrap { .. })));
    }

    #[test]
    fn chained_unwrap_on_modeled_lock_detected() {
        let ev = events("fn f(&self) { let g = self.dir.read().unwrap(); }");
        assert!(ev.iter().any(|e| matches!(e, Event::LockUnwrap { .. })));
    }

    #[test]
    fn io_read_unwrap_is_panicky_but_not_lock_unwrap() {
        let ev = events("fn f(r: &mut File) { r.read_exact(&mut b).unwrap(); }");
        assert!(ev.iter().any(|e| matches!(e, Event::Panicky { .. })));
        assert!(!ev.iter().any(|e| matches!(e, Event::LockUnwrap { .. })));
    }

    #[test]
    fn macro_and_plan_ops_extracted() {
        let ev = events("fn f() { dbg!(x); let p = SeedChoice::TagIndex { name, lift }; }");
        assert!(ev
            .iter()
            .any(|e| matches!(e, Event::MacroUse { name, .. } if name == "dbg")));
        assert!(ev
            .iter()
            .any(|e| matches!(e, Event::PlanOp { name, .. } if name == "SeedChoice")));
    }

    #[test]
    fn raw_page_io_extracted_multiline() {
        let ev = events("fn f(s: &mut dyn Storage) { s\n  .write_page\n  (id, &buf).ok(); }");
        assert!(ev
            .iter()
            .any(|e| matches!(e, Event::RawPageIo { name, .. } if name == "write_page")));
    }

    #[test]
    fn indexing_expression_vs_array_literal() {
        let ev = events("fn f(b: &[u8]) { let x = b[0]; let a = [0u8; 4]; }");
        assert_eq!(
            ev.iter()
                .filter(|e| matches!(e, Event::Index { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn cfg_test_marks_models() {
        let src = "fn hot() {}\n#[cfg(test)]\nmod tests { fn helper() {} }\n";
        let ms = models(src);
        assert!(!ms[0].in_test);
        assert!(ms[1].in_test);
    }

    #[test]
    fn guard_returning_fn_summary_applies() {
        let ev = events("fn f(&self) { self.store.dir_mut().insert_after(a, b); }");
        assert!(ev.iter().any(|e| matches!(
            e,
            Event::Acquire { class, let_bound: false, .. } if class.name == "core.directory"
        )));
    }
}
