//! Crash recovery for on-disk databases: replay the write-ahead log into
//! the component files before any of them is opened.
//!
//! The commit protocol (see `build.rs`) makes the single fsync of the log's
//! commit record the commit point, and the only fsync of a commit.
//! Everything the transactions committed since the last checkpoint did —
//! page counts, each touched page's first image and later deltas (value
//! records, tombstones and the data file's length among them), the tag
//! dictionary, the synopsis — is in the log until the next checkpoint has
//! written it back and synced it into the component files; what the home
//! files hold of it meanwhile (pages evicted or written back unsynced) is
//! never trusted. Recovery therefore only has to redo, over all of them in
//! commit order:
//!
//! 1. read the committed transactions (a torn tail is uncommitted and
//!    ignored),
//! 2. replay page counts, images and deltas into the five paged
//!    components, one fsync per component touched,
//! 3. restore `dict.bin` and `stats.blk` from the last logged blobs,
//! 4. checkpoint the log.
//!
//! A log holding only its baseline, with no torn tail, has nothing to
//! redo: it is left as it is, and the open syncs nothing. Every step is
//! idempotent, so a crash *during* recovery is handled by simply
//! recovering again.

use std::io::Write;
use std::path::Path;

use nok_pager::{FileStorage, PagerError, Wal};

use crate::build::{COMPONENT_FILES, F_DICT, F_STATS, F_WAL};
use crate::error::{CoreError, CoreResult};

/// What [`recover_dir`] found and did. All counters are zero for a cleanly
/// shut-down database.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Committed transactions read from the log (including the checkpoint
    /// baseline, so a clean log yields 1).
    pub replayed_txns: usize,
    /// Page images and deltas written back into the component files.
    pub pages_applied: u64,
    /// Whether `dict.bin` was rewritten from the log.
    pub dict_restored: bool,
    /// Whether `stats.blk` was rewritten from the log: the synopsis of the
    /// recovered document, which the open then need not recount.
    pub stats_restored: bool,
    /// The directory had no log; an empty one was seeded for it.
    pub legacy: bool,
}

impl RecoveryReport {
    /// True when recovery actually changed something on disk (i.e. the
    /// database was not shut down cleanly).
    pub fn was_dirty(&self) -> bool {
        self.pages_applied > 0 || self.dict_restored
    }
}

fn io_err(e: std::io::Error) -> CoreError {
    CoreError::from(PagerError::from(e))
}

/// Make `bytes` the durable content of the side file `path` (dictionary,
/// synopsis): written and fsynced, unless the file already holds them.
pub(crate) fn persist_file(path: &Path, bytes: &[u8]) -> CoreResult<()> {
    if std::fs::read(path).is_ok_and(|old| old == bytes) {
        return Ok(());
    }
    let mut f = std::fs::File::create(path).map_err(io_err)?;
    f.write_all(bytes).map_err(io_err)?;
    f.sync_data().map_err(io_err)
}

/// Recover the database directory `dir` in place. Must run before the
/// component files are opened — it rewrites them directly.
pub fn recover_dir(dir: &Path) -> CoreResult<RecoveryReport> {
    let wal_path = dir.join(F_WAL);
    let mut report = RecoveryReport::default();

    if !wal_path.exists() {
        // No log: the home files are all there is. Seed an empty one.
        report.legacy = true;
        Wal::open_or_create(&wal_path)?.checkpoint()?;
        return Ok(report);
    }

    let mut wal = Wal::open_or_create(&wal_path)?;
    let (txns, committed_end) = wal.committed_txns()?;
    report.replayed_txns = txns.len();

    // Redo page-level effects into the component stores. `open_for_repair`
    // skips the length/count cross-check that a torn commit can violate —
    // replay is exactly what repairs it.
    let mut storages: Vec<FileStorage> = Vec::with_capacity(COMPONENT_FILES.len());
    for name in COMPONENT_FILES {
        storages.push(FileStorage::open_for_repair(dir.join(name))?);
    }
    let outcome = {
        let mut refs: Vec<&mut FileStorage> = storages.iter_mut().collect();
        nok_pager::wal::replay(txns, &mut refs)?
    };
    report.pages_applied = outcome.pages_applied;

    // The dictionary and synopsis of the last committed transaction that
    // logged one. The checkpoint below drops the log copies, so the files
    // are fsynced.
    if let Some(blob) = &outcome.dict {
        persist_file(&dir.join(F_DICT), blob)?;
        report.dict_restored = true;
    }
    if let Some(blob) = &outcome.stats {
        persist_file(&dir.join(F_STATS), blob)?;
        report.stats_restored = true;
    }

    // Nothing redone and no torn tail for the next append to sit behind:
    // the log stays as it is, and nothing is synced.
    let log_len = std::fs::metadata(&wal_path).map_err(io_err)?.len();
    if !report.was_dirty() && !report.stats_restored && log_len == committed_end {
        return Ok(report);
    }
    // Everything redone above is durable: restart the log at its baseline.
    // This also discards a torn tail.
    wal.checkpoint()?;
    Ok(report)
}
