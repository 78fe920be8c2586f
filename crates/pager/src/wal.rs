//! Write-ahead log for crash-safe multi-page commits.
//!
//! The WAL is a physical **redo** log: a transaction is the set of page
//! images it dirtied (plus a handful of non-paged side effects — data-file
//! appends and length, tombstones, tag-dictionary and synopsis blobs),
//! terminated by a commit marker. The commit protocol is NO-FORCE:
//!
//! 1. the caller appends every record of the transaction plus a
//!    [`WalRecord::Commit`] marker in **one** write, then fsyncs — that
//!    fsync is the commit point, and the only fsync a commit performs;
//! 2. the pages are written back to their home storages, unsynced;
//! 3. once the log has grown past the caller's threshold, the caller syncs
//!    the home files and checkpoints the log (truncates it back to its
//!    magic, re-seeds it with the current baseline) — only then are the
//!    images redundant.
//!
//! A crash before step 1 completes leaves a torn tail that
//! [`Wal::committed_txns`] discards; a crash anywhere after it is repaired
//! by replaying, in order, every transaction committed since the last
//! checkpoint (replay is idempotent, and every page written since then has
//! its full image in the log).
//!
//! ## On-disk format
//!
//! ```text
//! magic "NOKWAL01"
//! record* where record = [len: u32 LE][crc32(payload): u32 LE][payload]
//! ```
//!
//! `payload[0]` is the record type; see [`WalRecord`]. The CRC is the plain
//! IEEE CRC-32 so torn or bit-rotten tails are detected without trusting
//! `len` alone.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

use crate::error::{PagerError, PagerResult};
use crate::failpoint::FailPlan;
use crate::storage::{FileStorage, PageId, Storage};

/// Magic bytes at the start of every WAL file.
pub const WAL_MAGIC: &[u8; 8] = b"NOKWAL01";

const REC_PAGE_IMAGE: u8 = 1;
const REC_PAGE_COUNT: u8 = 2;
const REC_DATA_LEN: u8 = 3;
const REC_DATA_DEAD: u8 = 4;
const REC_DICT_BLOB: u8 = 5;
const REC_COMMIT: u8 = 6;
const REC_DATA_APPEND: u8 = 7;
const REC_STATS_BLOB: u8 = 8;

/// One logical record in the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// Full after-image of one page of component `comp`.
    PageImage {
        /// Component index (the caller's storage-file numbering).
        comp: u8,
        /// Page within that component.
        page: PageId,
        /// The full page bytes.
        data: Vec<u8>,
    },
    /// Post-transaction page count of component `comp`.
    PageCount {
        /// Component index.
        comp: u8,
        /// Number of pages after the transaction.
        count: u32,
    },
    /// Post-transaction byte length of the append-only data file.
    DataLen(u64),
    /// A data-file record at this offset was tombstoned by the transaction.
    DataDead(u64),
    /// Full serialized tag dictionary after the transaction.
    DictBlob(Vec<u8>),
    /// The bytes the transaction appended to the data file, which are not
    /// synced before the commit point: recovery rewrites them at `offset`.
    DataAppend {
        /// Data-file length when the transaction began.
        offset: u64,
        /// Everything appended since.
        bytes: Vec<u8>,
    },
    /// The encoded planner synopsis after the transaction.
    StatsBlob(Vec<u8>),
    /// Terminates a transaction; everything since the previous commit
    /// becomes durable together.
    Commit,
}

impl WalRecord {
    /// Append this record's frame to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::PageImage { comp, page, data } => encode_page_image(out, *comp, *page, data),
            WalRecord::PageCount { comp, count } => {
                put_frame(out, REC_PAGE_COUNT, &[&[*comp], &count.to_le_bytes()])
            }
            WalRecord::DataLen(n) => put_frame(out, REC_DATA_LEN, &[&n.to_le_bytes()]),
            WalRecord::DataDead(off) => put_frame(out, REC_DATA_DEAD, &[&off.to_le_bytes()]),
            WalRecord::DictBlob(b) => put_frame(out, REC_DICT_BLOB, &[b]),
            WalRecord::DataAppend { offset, bytes } => {
                put_frame(out, REC_DATA_APPEND, &[&offset.to_le_bytes(), bytes])
            }
            WalRecord::StatsBlob(b) => put_frame(out, REC_STATS_BLOB, &[b]),
            WalRecord::Commit => put_frame(out, REC_COMMIT, &[]),
        }
    }

    fn decode(payload: &[u8]) -> PagerResult<WalRecord> {
        let corrupt = |what: &str| PagerError::Corrupt(format!("WAL: {what}"));
        let Some((&ty, rest)) = payload.split_first() else {
            return Err(corrupt("empty record payload"));
        };
        match ty {
            REC_PAGE_IMAGE => {
                if rest.len() < 5 {
                    return Err(corrupt("short page-image record"));
                }
                Ok(WalRecord::PageImage {
                    comp: rest[0],
                    page: u32::from_le_bytes([rest[1], rest[2], rest[3], rest[4]]),
                    data: rest[5..].to_vec(),
                })
            }
            REC_PAGE_COUNT => {
                if rest.len() != 5 {
                    return Err(corrupt("malformed page-count record"));
                }
                Ok(WalRecord::PageCount {
                    comp: rest[0],
                    count: u32::from_le_bytes([rest[1], rest[2], rest[3], rest[4]]),
                })
            }
            REC_DATA_LEN => {
                let b: [u8; 8] = rest
                    .try_into()
                    .map_err(|_| corrupt("malformed data-len record"))?;
                Ok(WalRecord::DataLen(u64::from_le_bytes(b)))
            }
            REC_DATA_DEAD => {
                let b: [u8; 8] = rest
                    .try_into()
                    .map_err(|_| corrupt("malformed data-dead record"))?;
                Ok(WalRecord::DataDead(u64::from_le_bytes(b)))
            }
            REC_DICT_BLOB => Ok(WalRecord::DictBlob(rest.to_vec())),
            REC_DATA_APPEND => {
                let (off, bytes) = rest
                    .split_first_chunk::<8>()
                    .ok_or_else(|| corrupt("short data-append record"))?;
                Ok(WalRecord::DataAppend {
                    offset: u64::from_le_bytes(*off),
                    bytes: bytes.to_vec(),
                })
            }
            REC_STATS_BLOB => Ok(WalRecord::StatsBlob(rest.to_vec())),
            REC_COMMIT => Ok(WalRecord::Commit),
            other => Err(corrupt(&format!("unknown record type {other}"))),
        }
    }
}

/// Append one record's frame to `out`: the payload (`ty`, then `parts`) is
/// written in place and its length and CRC patched in over it, so no
/// intermediate payload buffer exists.
fn put_frame(out: &mut Vec<u8>, ty: u8, parts: &[&[u8]]) {
    let at = out.len();
    out.extend_from_slice(&[0u8; 8]);
    out.push(ty);
    for part in parts {
        out.extend_from_slice(part);
    }
    let len = (out.len() - at - 8) as u32;
    let crc = crc32(&out[at + 8..]);
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
    out[at + 4..at + 8].copy_from_slice(&crc.to_le_bytes());
}

/// Append the frame of a [`WalRecord::PageImage`] to `out`, borrowing the
/// page bytes (the caller holds the frame's read latch, not a copy).
pub fn encode_page_image(out: &mut Vec<u8>, comp: u8, page: PageId, data: &[u8]) {
    put_frame(out, REC_PAGE_IMAGE, &[&[comp], &page.to_le_bytes(), data]);
}

/// The write-ahead log file.
#[derive(Debug)]
pub struct Wal {
    file: File,
    failpoint: Option<Arc<FailPlan>>,
}

impl Wal {
    /// Open an existing log, or create an empty one (magic only).
    pub fn open_or_create<P: AsRef<Path>>(path: P) -> PagerResult<Self> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        if len == 0 {
            file.write_all(WAL_MAGIC)?;
            file.sync_data()?;
        } else {
            let mut magic = [0u8; 8];
            file.seek(SeekFrom::Start(0))?;
            // A file shorter than the magic is a crash during creation:
            // nothing was ever logged, so re-seed it.
            if len < 8 || {
                file.read_exact(&mut magic)?;
                &magic != WAL_MAGIC
            } {
                if len >= 8 {
                    return Err(PagerError::Corrupt("bad magic in WAL file".into()));
                }
                file.set_len(0)?;
                file.seek(SeekFrom::Start(0))?;
                file.write_all(WAL_MAGIC)?;
                file.sync_data()?;
            }
        }
        Ok(Wal {
            file,
            failpoint: None,
        })
    }

    /// Route this log's mutating I/O through a fault-injection plan.
    pub fn set_failpoint(&mut self, plan: Arc<FailPlan>) {
        self.failpoint = Some(plan);
    }

    fn check_failpoint(&self) -> PagerResult<()> {
        match &self.failpoint {
            Some(plan) => plan.check(),
            None => Ok(()),
        }
    }

    /// Append one transaction (a trailing [`WalRecord::Commit`] in `records`
    /// is the marker itself, not a second one); see [`Wal::append_frames`].
    pub fn append_txn(&mut self, records: &[WalRecord]) -> PagerResult<u64> {
        let mut frames = Vec::new();
        for r in records.iter().filter(|r| **r != WalRecord::Commit) {
            r.encode_into(&mut frames);
        }
        self.append_frames(frames)
    }

    /// Append one transaction's already-encoded record frames plus the
    /// commit marker as a single write, then fsync. Returning `Ok` means
    /// the transaction is durable — the commit point — and carries the
    /// log's new length, for the caller's checkpoint threshold.
    pub fn append_frames(&mut self, mut frames: Vec<u8>) -> PagerResult<u64> {
        self.check_failpoint()?;
        WalRecord::Commit.encode_into(&mut frames);
        let at = self.file.seek(SeekFrom::End(0))?;
        self.file.write_all(&frames)?;
        self.file.sync_data()?;
        Ok(at + frames.len() as u64)
    }

    /// Read every committed transaction, in order. A torn or CRC-corrupt
    /// tail ends the scan; records after the last commit marker (an
    /// uncommitted transaction) are discarded.
    pub fn committed_txns(&mut self) -> PagerResult<Vec<Vec<WalRecord>>> {
        let mut bytes = Vec::new();
        self.file.seek(SeekFrom::Start(0))?;
        self.file.read_to_end(&mut bytes)?;
        if bytes.len() < 8 || &bytes[..8] != WAL_MAGIC {
            return Err(PagerError::Corrupt("bad magic in WAL file".into()));
        }
        let mut txns = Vec::new();
        let mut current = Vec::new();
        let mut pos = 8usize;
        while bytes.len() - pos >= 8 {
            let len =
                u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
                    as usize;
            let crc = u32::from_le_bytes([
                bytes[pos + 4],
                bytes[pos + 5],
                bytes[pos + 6],
                bytes[pos + 7],
            ]);
            let start = pos + 8;
            let Some(end) = start.checked_add(len).filter(|&e| e <= bytes.len()) else {
                break; // torn tail: record extends past EOF
            };
            let payload = &bytes[start..end];
            if crc32(payload) != crc {
                break; // torn or corrupt tail
            }
            let Ok(rec) = WalRecord::decode(payload) else {
                break;
            };
            pos = end;
            if rec == WalRecord::Commit {
                txns.push(std::mem::take(&mut current));
            } else {
                current.push(rec);
            }
        }
        Ok(txns)
    }

    /// Truncate the log back to its magic and seed it with a fresh baseline
    /// transaction (typically just the current data-file length). After a
    /// checkpoint the previously logged images are gone — callers must only
    /// checkpoint once those pages are durable in their home files.
    pub fn checkpoint(&mut self, baseline: &[WalRecord]) -> PagerResult<()> {
        self.check_failpoint()?;
        self.file.set_len(8)?;
        self.append_txn(baseline).map(|_| ())
    }
}

/// What [`replay`] applied, plus the non-paged side effects the caller must
/// apply itself (the pager does not know about data files or dictionaries).
#[derive(Debug, Default)]
pub struct ReplayOutcome {
    /// Number of page images written back.
    pub pages_applied: u64,
    /// Number of transactions replayed.
    pub txns: u64,
    /// Final logged data-file length, if any transaction recorded one.
    pub data_len: Option<u64>,
    /// Every tombstoned data-file offset, in log order.
    pub data_dead: Vec<u64>,
    /// Final logged dictionary blob, if any transaction recorded one.
    pub dict: Option<Vec<u8>>,
    /// Every logged data-file append `(offset, bytes)`, in log order.
    pub data_appends: Vec<(u64, Vec<u8>)>,
    /// Final logged synopsis blob, if any transaction recorded one.
    pub stats: Option<Vec<u8>>,
}

/// Apply committed transactions to their component storages: page counts
/// first (so images past the old end are in range), then the images, then a
/// sync per touched component. Idempotent — replaying an already-applied
/// transaction writes the same bytes again.
pub fn replay(
    txns: Vec<Vec<WalRecord>>,
    storages: &mut [&mut FileStorage],
) -> PagerResult<ReplayOutcome> {
    let mut out = ReplayOutcome::default();
    let mut touched = vec![false; storages.len()];
    let comp_of = |comp: u8, n: usize| -> PagerResult<usize> {
        let i = comp as usize;
        if i >= n {
            return Err(PagerError::Corrupt(format!(
                "WAL names component {comp} but only {n} storages were supplied"
            )));
        }
        Ok(i)
    };
    for txn in txns {
        out.txns += 1;
        for rec in txn {
            match rec {
                WalRecord::PageCount { comp, count } => {
                    let i = comp_of(comp, storages.len())?;
                    storages[i].set_page_count_for_replay(count)?;
                    touched[i] = true;
                }
                WalRecord::PageImage { comp, page, data } => {
                    let i = comp_of(comp, storages.len())?;
                    if data.len() != storages[i].page_size() {
                        return Err(PagerError::Corrupt(format!(
                            "WAL page image of {} bytes for component {comp} \
                             with page size {}",
                            data.len(),
                            storages[i].page_size()
                        )));
                    }
                    storages[i].write_page(page, &data)?;
                    touched[i] = true;
                    out.pages_applied += 1;
                }
                WalRecord::DataLen(n) => out.data_len = Some(n),
                WalRecord::DataDead(off) => out.data_dead.push(off),
                WalRecord::DictBlob(b) => out.dict = Some(b),
                WalRecord::DataAppend { offset, bytes } => out.data_appends.push((offset, bytes)),
                WalRecord::StatsBlob(b) => out.stats = Some(b),
                WalRecord::Commit => {}
            }
        }
    }
    for (i, storage) in storages.iter_mut().enumerate() {
        if touched[i] {
            storage.sync()?;
        }
    }
    Ok(out)
}

/// Plain IEEE CRC-32 (the zlib/PNG polynomial), table-driven.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = crc32_table();
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("nok-wal-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    #[test]
    fn crc32_known_vector() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_and_read_back() {
        let path = temp_path("roundtrip");
        let recs = vec![
            WalRecord::PageCount { comp: 0, count: 3 },
            WalRecord::PageImage {
                comp: 0,
                page: 2,
                data: vec![7u8; 64],
            },
            WalRecord::DataLen(99),
            WalRecord::DataDead(12),
            WalRecord::DictBlob(b"dict".to_vec()),
            WalRecord::DataAppend {
                offset: 95,
                bytes: b"\x00\x00\x00\x00".to_vec(),
            },
            WalRecord::StatsBlob(b"stats".to_vec()),
        ];
        {
            let mut wal = Wal::open_or_create(&path).unwrap();
            wal.append_txn(&recs).unwrap();
        }
        let mut wal = Wal::open_or_create(&path).unwrap();
        let txns = wal.committed_txns().unwrap();
        assert_eq!(txns, vec![recs]);
        std::fs::remove_file(&path).ok();
    }

    /// A record encoded in place — length and CRC patched over the bytes —
    /// is the frame `[len][crc32(payload)][payload]`, whatever precedes it
    /// in the buffer, and a borrowed page image is the owned record's frame.
    #[test]
    fn frames_are_patched_in_place() {
        let rec = WalRecord::PageImage {
            comp: 2,
            page: 7,
            data: vec![5u8; 48],
        };
        let mut out = b"earlier frames".to_vec();
        rec.encode_into(&mut out);
        let frame = &out[14..];
        let payload = &frame[8..];
        assert_eq!(frame[..4], (payload.len() as u32).to_le_bytes());
        assert_eq!(frame[4..8], crc32(payload).to_le_bytes());
        assert_eq!(payload[..6], [REC_PAGE_IMAGE, 2, 7, 0, 0, 0]);
        assert_eq!(WalRecord::decode(payload).unwrap(), rec);
        let mut borrowed = Vec::new();
        encode_page_image(&mut borrowed, 2, 7, &[5u8; 48]);
        assert_eq!(borrowed, frame);
    }

    #[test]
    fn an_append_returns_the_logs_length() {
        let path = temp_path("len");
        let mut wal = Wal::open_or_create(&path).unwrap();
        let on_disk = || std::fs::metadata(&path).unwrap().len();
        let one = wal
            .append_txn(&[WalRecord::DataLen(1), WalRecord::Commit])
            .unwrap();
        assert_eq!((one, on_disk()), (8 + 17 + 9, 8 + 17 + 9));
        assert_eq!(wal.append_frames(Vec::new()).unwrap(), one + 9);
        assert_eq!(wal.committed_txns().unwrap().len(), 2);
        wal.checkpoint(&[WalRecord::DataLen(1)]).unwrap();
        assert_eq!(on_disk(), one);
        drop(wal);
        let mut wal = Wal::open_or_create(&path).unwrap();
        assert_eq!(wal.append_frames(Vec::new()).unwrap(), one + 9);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_discarded_at_every_truncation_point() {
        let path = temp_path("torn");
        {
            let mut wal = Wal::open_or_create(&path).unwrap();
            wal.append_txn(&[WalRecord::DataLen(1)]).unwrap();
            wal.append_txn(&[WalRecord::PageImage {
                comp: 1,
                page: 0,
                data: vec![3u8; 32],
            }])
            .unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        let first_txn_end = {
            let mut wal = Wal::open_or_create(&path).unwrap();
            assert_eq!(wal.committed_txns().unwrap().len(), 2);
            // Walk the frames to find where the first commit marker ends.
            let mut pos = 8usize;
            let mut end = 0usize;
            let mut commits = 0;
            while pos + 8 <= full.len() && commits < 1 {
                let len = u32::from_le_bytes(full[pos..pos + 4].try_into().unwrap()) as usize;
                pos += 8 + len;
                if full[pos - len] == REC_COMMIT {
                    commits += 1;
                    end = pos;
                }
            }
            end
        };
        // Truncating anywhere inside the second transaction must leave
        // exactly the first transaction committed.
        for cut in first_txn_end..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let mut wal = Wal::open_or_create(&path).unwrap();
            let txns = wal.committed_txns().unwrap();
            assert_eq!(txns.len(), 1, "cut at {cut}");
            assert_eq!(txns[0], vec![WalRecord::DataLen(1)]);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_crc_ends_scan() {
        let path = temp_path("crc");
        {
            let mut wal = Wal::open_or_create(&path).unwrap();
            wal.append_txn(&[WalRecord::DataLen(1)]).unwrap();
            wal.append_txn(&[WalRecord::DataLen(2)]).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload byte in the second transaction's first record.
        let len0 = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        let commit_len =
            u32::from_le_bytes(bytes[16 + len0..20 + len0].try_into().unwrap()) as usize;
        let second = 8 + 8 + len0 + 8 + commit_len + 8;
        bytes[second + 1] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let mut wal = Wal::open_or_create(&path).unwrap();
        let txns = wal.committed_txns().unwrap();
        assert_eq!(txns, vec![vec![WalRecord::DataLen(1)]]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_drops_history() {
        let path = temp_path("ckpt");
        let mut wal = Wal::open_or_create(&path).unwrap();
        wal.append_txn(&[WalRecord::PageImage {
            comp: 0,
            page: 0,
            data: vec![1u8; 16],
        }])
        .unwrap();
        wal.checkpoint(&[WalRecord::DataLen(42)]).unwrap();
        let txns = wal.committed_txns().unwrap();
        assert_eq!(txns, vec![vec![WalRecord::DataLen(42)]]);
        std::fs::remove_file(&path).ok();
    }
}
