//! `nokfsck` — offline integrity checker for an on-disk succinct XML store.
//!
//! Usage: `nokfsck [--json] [--strict] <db-dir>`
//!
//! Opens the database read-only and runs every format check in
//! [`nok_verify::verify_db`]. A missing, damaged or other-format `super.blk`
//! is reported as a `superblock` violation and nothing is scanned — the
//! pages are never decoded on a guess. When the database refuses to open
//! for another reason (e.g. a corrupted index file), falls back to a raw
//! chain scan of `struct.pg` so structural damage is still reported. Exit
//! codes: 0 clean, 1 violations found, 2 usage or open failure — including
//! a fallback chain scan that found nothing, since the store as a whole
//! still failed to open.

use std::process::ExitCode;

use nok_core::{CoreError, XmlDb};
use nok_pager::{BufferPool, FileStorage};
use nok_verify::{Report, VerifyOptions, Violation};

const STRUCT_FILE: &str = "struct.pg";

fn usage() -> ExitCode {
    eprintln!("usage: nokfsck [--json] [--strict] <db-dir>");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut json = false;
    let mut strict = false;
    let mut dir: Option<String> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--strict" => strict = true,
            "--help" | "-h" => return usage(),
            _ if arg.starts_with('-') => return usage(),
            _ if dir.is_some() => return usage(),
            _ => dir = Some(arg),
        }
    }
    let Some(dir) = dir else { return usage() };

    let opts = if strict {
        VerifyOptions::strict()
    } else {
        VerifyOptions::default()
    };

    let mut degraded = false;
    let (report, scope) = match XmlDb::open_dir(&dir) {
        Ok(db) => (nok_verify::verify_db(&db, opts), "full"),
        Err(e @ CoreError::UnsupportedFormat(_)) => {
            let report = Report {
                violations: vec![Violation::Superblock {
                    detail: e.to_string(),
                }],
                pages: 0,
                nodes: 0,
            };
            (report, "superblock")
        }
        Err(open_err) => {
            // The database would not open; degrade to a raw scan of the
            // structural string so page-level damage is still diagnosable.
            let path = std::path::Path::new(&dir).join(STRUCT_FILE);
            match FileStorage::open(&path) {
                Ok(storage) => {
                    eprintln!("nokfsck: database open failed ({open_err}); raw chain scan only");
                    degraded = true;
                    (nok_verify::verify_chain(&BufferPool::new(storage)), "chain")
                }
                Err(e) => {
                    eprintln!("nokfsck: cannot open {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            }
        }
    };

    if json {
        println!("{}", report.to_json());
    } else {
        println!("{dir} ({scope} scan)");
        println!("{report}");
    }
    if !report.is_clean() {
        ExitCode::from(1)
    } else if degraded {
        // The chain is sound but the database did not open: still a failure.
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}
