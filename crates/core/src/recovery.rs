//! Crash recovery for on-disk databases: replay the write-ahead log into
//! the component files before any of them is opened.
//!
//! The commit protocol (see `build.rs`) makes the single fsync of the log's
//! commit record the commit point, and the only fsync of a commit.
//! Everything the transactions committed since the last checkpoint did —
//! page counts, each touched page's first image and later deltas,
//! data-file appends and length, tombstones, the tag dictionary, the
//! synopsis — is in the log until the next checkpoint has written it back
//! and synced it into the component files; what the home files hold of it
//! meanwhile (pages evicted or written back unsynced) is never trusted.
//! Recovery therefore only has to redo, over all of them in commit order:
//!
//! 1. read the committed transactions (a torn tail is uncommitted and
//!    ignored),
//! 2. replay page counts, images and deltas into the four paged
//!    components, one fsync per component touched,
//! 3. rewrite the logged `values.dat` appends at their offsets, truncate
//!    the file to the last committed length (cutting off appends from a
//!    transaction that never committed) and re-apply committed tombstones,
//! 4. restore `dict.bin` and `stats.blk` from the last logged blobs,
//! 5. checkpoint the log with the committed data length as the new
//!    baseline.
//!
//! A log holding only its baseline, with no torn tail, has nothing to
//! redo: it is left as it is, and the open syncs nothing. Every step is
//! idempotent, so a crash *during* recovery is handled by simply
//! recovering again.

use std::fs::OpenOptions;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use nok_pager::{FileStorage, PagerError, Wal, WalRecord};

use crate::build::{COMPONENT_FILES, F_DATA, F_DICT, F_STATS, F_WAL};
use crate::error::{CoreError, CoreResult};
use crate::values::DEAD_BIT;

/// What [`recover_dir`] found and did. All counters are zero for a cleanly
/// shut-down database.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Committed transactions read from the log (including the checkpoint
    /// baseline, so a clean log yields 1).
    pub replayed_txns: usize,
    /// Page images and deltas written back into the component files.
    pub pages_applied: u64,
    /// Committed `values.dat` length after recovery.
    pub data_len: u64,
    /// Uncommitted bytes cut off the end of `values.dat`.
    pub data_truncated_by: u64,
    /// Committed tombstones re-applied.
    pub deads_reapplied: usize,
    /// Whether `dict.bin` was rewritten from the log.
    pub dict_restored: bool,
    /// Whether `stats.blk` was rewritten from the log: the synopsis of the
    /// recovered document, which the open then need not recount.
    pub stats_restored: bool,
    /// The directory predates the log; a baseline was seeded for it.
    pub legacy: bool,
}

impl RecoveryReport {
    /// True when recovery actually changed something on disk (i.e. the
    /// database was not shut down cleanly).
    pub fn was_dirty(&self) -> bool {
        self.pages_applied > 0
            || self.data_truncated_by > 0
            || self.deads_reapplied > 0
            || self.dict_restored
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
    let data_path = dir.join(F_DATA);
    let mut report = RecoveryReport::default();

    if !wal_path.exists() {
        // A directory created before the log existed. Adopt it: seed a log
        // whose baseline records the data file as-is.
        report.legacy = true;
        report.data_len = std::fs::metadata(&data_path).map(|m| m.len()).unwrap_or(0);
        let mut wal = Wal::open_or_create(&wal_path)?;
        wal.checkpoint(&[WalRecord::DataLen(report.data_len)])?;
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

    // Committed appends are not synced before their commit record: put
    // each back where its transaction wrote it. After that the committed
    // length is authoritative: bytes past it were appended by a
    // transaction that never reached its commit record.
    let mut data = OpenOptions::new()
        .read(true)
        .write(true)
        .open(&data_path)
        .map_err(io_err)?;
    for (offset, bytes) in &outcome.data_appends {
        data.seek(SeekFrom::Start(*offset)).map_err(io_err)?;
        data.write_all(bytes).map_err(io_err)?;
    }
    let disk_len = data.metadata().map_err(io_err)?.len();
    let committed_len = outcome.data_len.unwrap_or(disk_len);
    if disk_len < committed_len {
        return Err(CoreError::Corrupt(format!(
            "values.dat is {disk_len} bytes but the log committed {committed_len} \
             (everything past the last checkpoint is in the log, so it cannot be missing)"
        )));
    }
    if disk_len > committed_len {
        data.set_len(committed_len).map_err(io_err)?;
        report.data_truncated_by = disk_len - committed_len;
    }
    report.data_len = committed_len;

    // Re-apply committed tombstones: set the dead bit on each record's
    // length word. Setting an already-set bit is a no-op.
    for off in &outcome.data_dead {
        if off + 4 > committed_len {
            return Err(CoreError::Corrupt(format!(
                "log tombstones offset {off} past the committed data length {committed_len}"
            )));
        }
        let mut word = [0u8; 4];
        data.seek(SeekFrom::Start(*off)).map_err(io_err)?;
        data.read_exact(&mut word).map_err(io_err)?;
        let raw = u32::from_le_bytes(word) | DEAD_BIT;
        data.seek(SeekFrom::Start(*off)).map_err(io_err)?;
        data.write_all(&raw.to_le_bytes()).map_err(io_err)?;
        report.deads_reapplied += 1;
    }
    let rewritten = outcome.data_appends.len() + outcome.data_dead.len();
    if rewritten > 0 || report.data_truncated_by > 0 {
        data.sync_data().map_err(io_err)?;
    }
    drop(data);

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
    // Everything redone above is durable: restart the log at a baseline
    // recording the committed data length. This also discards a torn tail.
    wal.checkpoint(&[WalRecord::DataLen(committed_len)])?;
    Ok(report)
}
