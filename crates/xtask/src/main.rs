//! `cargo xtask` — repository automation.
//!
//! Subcommands:
//!
//! * `cargo xtask analyze` — static concurrency analysis over
//!   `crates/**/*.rs` via the `nok-analyze` crate: lock-order hierarchy
//!   with call-graph propagation, atomic-ordering audit, panic-path
//!   rules, and the five historical hygiene rules
//!   re-implemented on the AST. Exits nonzero when any finding is reported.
//! * `cargo xtask analyze --json` — same, machine-readable output (rule id,
//!   file:line, message, lock path) for CI artifacts.
//! * `cargo xtask analyze --self-test` — runs the analyzer over embedded
//!   fixtures that each reintroduce one violation class (plus clean
//!   counterparts), and fails if any rule stops firing.
//! * `cargo xtask lint` — alias for `analyze`, kept for muscle memory and
//!   old scripts.
//!
//! Everything is path-vendored; this crate must never grow a registry
//! dependency (the build environment is offline).

use std::path::Path;
use std::process::ExitCode;

fn workspace_root() -> &'static Path {
    // crates/xtask/../.. — robust regardless of the invocation directory.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .unwrap_or_else(|| Path::new("."))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") | Some("lint") => {
            if args.iter().any(|a| a == "--self-test") {
                self_test()
            } else {
                run_analyze(args.iter().any(|a| a == "--json"))
            }
        }
        Some(other) => {
            eprintln!("unknown xtask subcommand: {other}");
            usage()
        }
        None => usage(),
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: cargo xtask analyze [--json] [--self-test]");
    eprintln!("       cargo xtask lint     (alias for analyze)");
    ExitCode::FAILURE
}

fn run_analyze(json: bool) -> ExitCode {
    let root = workspace_root();
    let report = match nok_analyze::analyze_workspace(root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask analyze: {e}");
            return ExitCode::FAILURE;
        }
    };

    if json {
        print!("{}", report.json());
    } else {
        print!("{}", report.human());
    }

    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn self_test() -> ExitCode {
    match nok_analyze::selftest::run() {
        Ok(()) => {
            println!("xtask analyze --self-test: all rule fixtures behave");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("xtask analyze --self-test FAILED:\n{e}");
            ExitCode::FAILURE
        }
    }
}
