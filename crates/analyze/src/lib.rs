//! Static concurrency analysis for the workspace.
//!
//! `cargo xtask analyze` drives this crate. It parses every `crates/**/*.rs`
//! file with the vendored `syn` shim, builds per-function models of lock
//! acquisitions, atomic operations and panicking constructs, and enforces:
//!
//! - **`lock-order` / `lock-reentry`** — the declared lock hierarchy
//!   (service queue → plan cache → directory → data-file mutex → pool
//!   clock → pool shard → storage → frame → capture map → generation cell;
//!   see `config::ALL_CLASSES` and DESIGN.md
//!   §13), with call-graph propagation so an acquisition hidden behind a
//!   call chain is still checked against the locks its caller holds.
//! - **`atomic-ordering`** — `Ordering::Relaxed` is an error on the named
//!   critical atomics (`txn_active`, `shutdown`, `state`); statistics
//!   counters are exempt.
//! - **`serve-worker-panic` / `lock-unwrap`** — no `.unwrap()`/`.expect()`/
//!   indexing panics on worker paths or lock results.
//! - The five historical lint rules (`hot-path-panic`, `stray-debug-macro`,
//!   `undocumented-unsafe`, `raw-page-io`, `plan-operator-construction`),
//!   re-implemented on the AST so multi-line and oddly-spaced forms are
//!   caught and substring look-alikes are not.
//! - **`synopsis-mutation`** — the planner synopsis's counter-mutation API
//!   (`add_path_count` & co.) is called only from
//!   `core::{build, update, synopsis}`; everyone else reads the immutable
//!   per-generation snapshot.
//!
//! Exceptions are written in the code as `// analyze: allow(rule-id): why`;
//! an allow without a reason is itself a finding (`bare-allow`).

pub mod comments;
pub mod config;
pub mod model;
pub mod report;
pub mod rules;
pub mod selftest;

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};

use report::Report;

/// Analyze in-memory sources. Each entry is (workspace-relative path,
/// source text). Used by the self-test fixtures and unit tests.
pub fn analyze_sources(files: &[(&str, &str)]) -> Result<Report, String> {
    let mut models = Vec::new();
    let mut comment_maps: HashMap<String, comments::CommentMap> = HashMap::new();
    for (rel, src) in files {
        let ast = syn::parse_file(src).map_err(|e| format!("{rel}: parse error: {e}"))?;
        models.extend(model::collect(rel, &ast));
        comment_maps.insert((*rel).to_string(), comments::scan_comments(src));
    }
    let functions_modeled = models.len();
    let (findings, allows_used) = rules::run(&models, &comment_maps);
    Ok(Report {
        findings,
        files_scanned: files.len(),
        functions_modeled,
        allows_used,
    })
}

/// Analyze every `crates/**/*.rs` under `root` (the workspace root).
pub fn analyze_workspace(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    collect_rs_files(&root.join("crates"), &mut files)?;
    files.sort();

    let mut sources = Vec::new();
    for path in &files {
        let src = std::fs::read_to_string(path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((rel, src));
    }
    let borrowed: Vec<(&str, &str)> = sources
        .iter()
        .map(|(r, s)| (r.as_str(), s.as_str()))
        .collect();
    analyze_sources(&borrowed).map_err(io::Error::other)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            if entry.file_name() != "target" {
                collect_rs_files(&path, out)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_source_has_no_findings() {
        let r = analyze_sources(&[(
            "crates/core/src/naive.rs",
            "pub fn walk(n: usize) -> usize { n + 1 }\n",
        )])
        .expect("analyze");
        assert!(r.is_clean(), "{:?}", r.findings);
        assert_eq!(r.functions_modeled, 1);
    }

    #[test]
    fn parse_errors_are_reported() {
        let e = analyze_sources(&[("crates/core/src/bad.rs", "fn broken( {")]);
        assert!(e.is_err());
    }
}
