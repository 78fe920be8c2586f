//! Write-ahead log for crash-safe multi-page commits.
//!
//! The WAL is a physical **redo** log: a transaction is what it changed in
//! the pages it dirtied (plus two non-paged side effects, the
//! tag-dictionary and synopsis blobs), terminated by a commit marker. The
//! commit protocol is NO-FORCE:
//!
//! 1. the caller appends every record of the transaction plus a
//!    [`WalRecord::Commit`] marker in **one** write, then fsyncs — that
//!    fsync is the commit point, and the only fsync a commit performs;
//! 2. the pages stay in the buffer pool; eviction and the checkpoint write
//!    them back to their home storages, never before step 1 (the WAL rule);
//! 3. once the log has grown past the caller's threshold, the caller writes
//!    back and syncs the home files and checkpoints the log (truncates it
//!    back to its magic and an empty baseline transaction).
//!
//! A page's first record after a checkpoint is its full image
//! ([`WalRecord::PageImage`]); every later one is a [`WalRecord::PageDelta`]
//! against the transaction's before-image. The [`Wal`] remembers which
//! pages it holds whole ([`Wal::has_image`]). Replay applies the records in
//! log order: the image overwrites whatever the home page holds — an older
//! version, a newer one written back unsynced, or a page torn by the crash
//! — and each delta patches the page its predecessor left, so the final
//! bytes come out whatever the home file had.
//!
//! A crash before step 1 completes leaves a torn tail that
//! [`Wal::committed_txns`] discards; a crash anywhere after it is repaired
//! by replaying, in order, every transaction committed since the last
//! checkpoint (replay is idempotent).
//!
//! ## On-disk format
//!
//! ```text
//! magic "NOKWAL02"   ("NOKWAL01": a log of images only, still replayed)
//! record* where record = [len: u32 LE][crc32(payload): u32 LE][payload]
//! ```
//!
//! `payload[0]` is the record type; see [`WalRecord`]. The CRC is the plain
//! IEEE CRC-32 so torn or bit-rotten tails are detected without trusting
//! `len` alone.

use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::Arc;

use crate::error::{PagerError, PagerResult};
use crate::failpoint::FailPlan;
use crate::storage::{FileStorage, PageId, Storage};

/// Magic bytes at the start of every WAL file this build writes.
pub const WAL_MAGIC: &[u8; 8] = b"NOKWAL02";
/// Magic of a log that carries no [`WalRecord::PageDelta`]: it replays as
/// before, and gains no delta until a checkpoint rewrites it.
const WAL_MAGIC_IMAGES_ONLY: &[u8; 8] = b"NOKWAL01";

const REC_PAGE_IMAGE: u8 = 1;
const REC_PAGE_COUNT: u8 = 2;
const REC_DICT_BLOB: u8 = 5;
const REC_COMMIT: u8 = 6;
const REC_STATS_BLOB: u8 = 8;
const REC_PAGE_DELTA: u8 = 9;

/// Bytes of a delta run's `[off u16][len u16]` header. An unchanged gap no
/// longer than this costs no more inside a run than a second run would.
const RUN_HEADER: usize = 4;

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
    /// Full serialized tag dictionary after the transaction.
    DictBlob(Vec<u8>),
    /// The encoded planner synopsis after the transaction.
    StatsBlob(Vec<u8>),
    /// Terminates a transaction; everything since the previous commit
    /// becomes durable together.
    Commit,
    /// Where one page of component `comp` differs from its before-image:
    /// `runs` is a sequence of `[off u16 LE][len u16 LE][len bytes]`, to be
    /// patched over the page the previous record of it left.
    PageDelta {
        /// Component index.
        comp: u8,
        /// Page within that component.
        page: PageId,
        /// The encoded runs.
        runs: Vec<u8>,
    },
}

impl WalRecord {
    /// Append this record's frame to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::PageImage { comp, page, data } => encode_page_image(out, *comp, *page, data),
            WalRecord::PageCount { comp, count } => {
                put_frame(out, REC_PAGE_COUNT, &[&[*comp], &count.to_le_bytes()])
            }
            WalRecord::DictBlob(b) => put_frame(out, REC_DICT_BLOB, &[b]),
            WalRecord::StatsBlob(b) => put_frame(out, REC_STATS_BLOB, &[b]),
            WalRecord::Commit => put_frame(out, REC_COMMIT, &[]),
            WalRecord::PageDelta { comp, page, runs } => {
                put_frame(out, REC_PAGE_DELTA, &[&[*comp], &page.to_le_bytes(), runs])
            }
        }
    }

    fn decode(payload: &[u8]) -> PagerResult<WalRecord> {
        let corrupt = |what: &str| PagerError::Corrupt(format!("WAL: {what}"));
        let Some((&ty, rest)) = payload.split_first() else {
            return Err(corrupt("empty record payload"));
        };
        match ty {
            REC_PAGE_IMAGE | REC_PAGE_DELTA => {
                if rest.len() < 5 {
                    return Err(corrupt("short page record"));
                }
                let (comp, page) = (
                    rest[0],
                    u32::from_le_bytes([rest[1], rest[2], rest[3], rest[4]]),
                );
                let bytes = rest[5..].to_vec();
                Ok(if ty == REC_PAGE_IMAGE {
                    WalRecord::PageImage {
                        comp,
                        page,
                        data: bytes,
                    }
                } else {
                    WalRecord::PageDelta {
                        comp,
                        page,
                        runs: bytes,
                    }
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
            REC_DICT_BLOB => Ok(WalRecord::DictBlob(rest.to_vec())),
            REC_STATS_BLOB => Ok(WalRecord::StatsBlob(rest.to_vec())),
            REC_COMMIT => Ok(WalRecord::Commit),
            other => Err(corrupt(&format!("unknown record type {other}"))),
        }
    }
}

/// Open a frame of type `ty` at the end of `out`; returns where it starts.
fn begin_frame(out: &mut Vec<u8>, ty: u8) -> usize {
    let at = out.len();
    out.extend_from_slice(&[0u8; 8]);
    out.push(ty);
    at
}

/// Close the frame opened at `at`: its length and CRC are patched in over
/// the payload written since, so no intermediate payload buffer exists.
fn end_frame(out: &mut [u8], at: usize) {
    let len = (out.len() - at - 8) as u32;
    let crc = crc32(&out[at + 8..]);
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
    out[at + 4..at + 8].copy_from_slice(&crc.to_le_bytes());
}

/// Append one record's frame to `out`: the payload is `ty`, then `parts`.
fn put_frame(out: &mut Vec<u8>, ty: u8, parts: &[&[u8]]) {
    let at = begin_frame(out, ty);
    for part in parts {
        out.extend_from_slice(part);
    }
    end_frame(out, at);
}

/// Append the frame of a [`WalRecord::PageImage`] to `out`, borrowing the
/// page bytes (the caller holds the frame's read latch, not a copy).
pub fn encode_page_image(out: &mut Vec<u8>, comp: u8, page: PageId, data: &[u8]) {
    put_frame(out, REC_PAGE_IMAGE, &[&[comp], &page.to_le_bytes(), data]);
}

/// Append the frame of a [`WalRecord::PageDelta`] taking `before` to
/// `after` (pages of one size) to `out`, or nothing if they are equal.
/// Differing bytes separated by at most `RUN_HEADER` (4) equal ones share a
/// run. A page too large for `u16` offsets is logged whole instead.
pub fn encode_page_delta(out: &mut Vec<u8>, comp: u8, page: PageId, before: &[u8], after: &[u8]) {
    if after.len() > usize::from(u16::MAX) {
        return encode_page_image(out, comp, page, after);
    }
    let first = |from: usize, differ: bool| {
        before[from..]
            .iter()
            .zip(&after[from..])
            .position(|(b, a)| (b != a) == differ)
            .map_or(after.len(), |i| from + i)
    };
    let at = begin_frame(out, REC_PAGE_DELTA);
    out.push(comp);
    out.extend_from_slice(&page.to_le_bytes());
    let body = out.len();
    let mut start = first(0, true);
    while start < after.len() {
        let mut end = first(start, false);
        let mut next = first(end, true);
        while next < after.len() && next - end <= RUN_HEADER {
            end = first(next, false);
            next = first(end, true);
        }
        out.extend_from_slice(&(start as u16).to_le_bytes());
        out.extend_from_slice(&((end - start) as u16).to_le_bytes());
        out.extend_from_slice(&after[start..end]);
        start = next;
    }
    if out.len() == body {
        out.truncate(at);
    } else {
        end_frame(out, at);
    }
}

/// Patch `page` with the runs of a [`WalRecord::PageDelta`]. A run that
/// leaves the page, or bytes that are no whole run, are corruption.
pub fn apply_delta(page: &mut [u8], runs: &[u8]) -> PagerResult<()> {
    let mut rest = runs;
    while let Some((head, tail)) = rest.split_first_chunk::<RUN_HEADER>() {
        let off = usize::from(u16::from_le_bytes([head[0], head[1]]));
        let len = usize::from(u16::from_le_bytes([head[2], head[3]]));
        let (Some(bytes), Some(dst)) = (tail.get(..len), page.get_mut(off..off + len)) else {
            break;
        };
        dst.copy_from_slice(bytes);
        rest = &tail[len..];
    }
    if rest.is_empty() {
        Ok(())
    } else {
        Err(PagerError::Corrupt(format!(
            "WAL: page delta run outside a {}-byte page",
            page.len()
        )))
    }
}

/// The write-ahead log file.
#[derive(Debug)]
pub struct Wal {
    file: File,
    failpoint: Option<Arc<FailPlan>>,
    /// `(comp, page)` logged whole since the last checkpoint: the pages a
    /// delta may be logged for.
    imaged: HashSet<(u8, PageId)>,
    /// False while the file carries [`WAL_MAGIC_IMAGES_ONLY`], whose readers
    /// know no delta.
    deltas: bool,
}

impl Wal {
    /// Open an existing log, or create an empty one (magic only). The
    /// image set starts empty: every page's next record is an image.
    pub fn open_or_create<P: AsRef<Path>>(path: P) -> PagerResult<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut magic = [0u8; 8];
        // A file shorter than the magic is a crash during creation:
        // nothing was ever logged, so re-seed it.
        if file.metadata()?.len() < 8 {
            file.set_len(0)?;
            file.write_all_at(WAL_MAGIC, 0)?;
            file.sync_data()?;
            magic = *WAL_MAGIC;
        } else {
            file.read_exact_at(&mut magic, 0)?;
        }
        if &magic != WAL_MAGIC && &magic != WAL_MAGIC_IMAGES_ONLY {
            return Err(PagerError::Corrupt("bad magic in WAL file".into()));
        }
        Ok(Wal {
            file,
            failpoint: None,
            imaged: HashSet::new(),
            deltas: &magic == WAL_MAGIC,
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

    /// May the next record of `page` in component `comp` be a delta — is
    /// its full image in the log since the last checkpoint?
    pub fn has_image(&self, comp: u8, page: PageId) -> bool {
        self.deltas && self.imaged.contains(&(comp, page))
    }

    /// Append one transaction (a trailing [`WalRecord::Commit`] in `records`
    /// is the marker itself, not a second one); see [`Wal::append_frames`].
    pub fn append_txn(&mut self, records: &[WalRecord]) -> PagerResult<u64> {
        let mut frames = Vec::new();
        for r in records.iter().filter(|r| **r != WalRecord::Commit) {
            r.encode_into(&mut frames);
        }
        self.append_frames(frames, &[])
    }

    /// Append one transaction's already-encoded record frames plus the
    /// commit marker as a single write, then fsync. Returning `Ok` means
    /// the transaction is durable — the commit point — and carries the
    /// log's new length, for the caller's checkpoint threshold. `imaged`
    /// names the pages whose full image the frames carry; only now, with
    /// the images durable, may later records of them be deltas.
    pub fn append_frames(
        &mut self,
        mut frames: Vec<u8>,
        imaged: &[(u8, PageId)],
    ) -> PagerResult<u64> {
        self.check_failpoint()?;
        WalRecord::Commit.encode_into(&mut frames);
        let at = self.file.seek(SeekFrom::End(0))?;
        self.file.write_all(&frames)?;
        self.file.sync_data()?;
        self.imaged.extend(imaged.iter().copied());
        Ok(at + frames.len() as u64)
    }

    /// Read every committed transaction, in order, and the length of the
    /// log they fill. A torn or CRC-corrupt tail ends the scan; records
    /// after the last commit marker (an uncommitted transaction) are
    /// discarded.
    pub fn committed_txns(&mut self) -> PagerResult<(Vec<Vec<WalRecord>>, u64)> {
        let mut bytes = Vec::new();
        self.file.seek(SeekFrom::Start(0))?;
        self.file.read_to_end(&mut bytes)?;
        if bytes.len() < 8 || (&bytes[..8] != WAL_MAGIC && &bytes[..8] != WAL_MAGIC_IMAGES_ONLY) {
            return Err(PagerError::Corrupt("bad magic in WAL file".into()));
        }
        let mut txns = Vec::new();
        let mut current = Vec::new();
        let (mut pos, mut committed) = (8usize, 8usize);
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
                committed = pos;
            } else {
                current.push(rec);
            }
        }
        Ok((txns, committed as u64))
    }

    /// Truncate the log back to its magic and seed it with an empty
    /// baseline transaction. After a checkpoint the previously logged
    /// records are gone — callers must only checkpoint once those pages are
    /// durable in their home files — and the next record of every page is
    /// an image again.
    pub fn checkpoint(&mut self) -> PagerResult<()> {
        self.check_failpoint()?;
        self.file.set_len(8)?;
        self.file.write_all_at(WAL_MAGIC, 0)?;
        self.imaged.clear();
        self.deltas = true;
        self.append_frames(Vec::new(), &[]).map(|_| ())
    }
}

/// What [`replay`] applied, plus the non-paged side effects the caller must
/// apply itself (the pager does not know about dictionaries).
#[derive(Debug, Default)]
pub struct ReplayOutcome {
    /// Number of page images and deltas written back.
    pub pages_applied: u64,
    /// Number of transactions replayed.
    pub txns: u64,
    /// Final logged dictionary blob, if any transaction recorded one.
    pub dict: Option<Vec<u8>>,
    /// Final logged synopsis blob, if any transaction recorded one.
    pub stats: Option<Vec<u8>>,
}

/// Apply committed transactions to their component storages in log order:
/// a page count sets the storage's length and header, an image overwrites
/// its page, a delta reads its page, patches it and writes it back. Then
/// one fsync per touched component makes all of it durable together.
/// Idempotent — replaying an already-applied log writes the same bytes
/// again.
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
    let mut buf = Vec::new();
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
                WalRecord::PageDelta { comp, page, runs } => {
                    let i = comp_of(comp, storages.len())?;
                    buf.resize(storages[i].page_size(), 0);
                    storages[i].read_page(page, &mut buf)?;
                    apply_delta(&mut buf, &runs)?;
                    storages[i].write_page(page, &buf)?;
                    touched[i] = true;
                    out.pages_applied += 1;
                }
                WalRecord::DictBlob(b) => out.dict = Some(b),
                WalRecord::StatsBlob(b) => out.stats = Some(b),
                WalRecord::Commit => {}
            }
        }
    }
    for (i, storage) in storages.iter_mut().enumerate() {
        if touched[i] {
            storage.sync_replayed()?;
        }
    }
    Ok(out)
}

/// Plain IEEE CRC-32 (the zlib/PNG polynomial), slicing-by-8: eight table
/// lookups per 8 input bytes, the tail byte by byte.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// `CRC_TABLES[0]` is the bytewise table; `CRC_TABLES[k][b]` is the CRC of
/// byte `b` followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
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
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("nok-wal-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    /// The byte-at-a-time definition the sliced CRC must agree with.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    /// xorshift64: a seeded stream for the property tests.
    fn rng(mut s: u64) -> impl FnMut() -> u64 {
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        }
    }

    #[test]
    fn crc32_known_vector() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Slicing-by-8 equals the bytewise CRC at every length and alignment,
    /// on random bytes.
    #[test]
    fn sliced_crc_matches_the_bytewise_reference() {
        let mut next = rng(0x9E37_79B9_7F4A_7C15);
        let bytes: Vec<u8> = (0..4200).map(|_| next() as u8).collect();
        for _ in 0..500 {
            let start = (next() % 64) as usize;
            let len = (next() % 4096) as usize;
            let s = &bytes[start..start + len];
            assert_eq!(crc32(s), crc32_bytewise(s), "start {start} len {len}");
        }
        for len in 0..=17 {
            assert_eq!(
                crc32(&bytes[3..3 + len]),
                crc32_bytewise(&bytes[3..3 + len])
            );
        }
    }

    /// Encode `before → after`, decode the frame, apply it to `before`.
    fn delta_round_trip(before: &[u8], after: &[u8]) -> (Vec<u8>, usize) {
        let mut out = Vec::new();
        encode_page_delta(&mut out, 3, 11, before, after);
        let mut page = before.to_vec();
        if out.is_empty() {
            return (page, 0);
        }
        let Ok(WalRecord::PageDelta {
            comp,
            page: id,
            runs,
        }) = WalRecord::decode(&out[8..])
        else {
            panic!("not a page delta");
        };
        assert_eq!((comp, id), (3, 11));
        apply_delta(&mut page, &runs).unwrap();
        (page, out.len())
    }

    /// Applying the encoded delta to the before-image gives the after-image:
    /// identical pages (no record at all), wholly different pages, runs at
    /// the first and last byte, gaps around the bridging length, random
    /// edits.
    #[test]
    fn a_delta_applied_to_its_before_image_gives_the_after_image() {
        const N: usize = 256;
        let mut next = rng(7);
        let base: Vec<u8> = (0..N).map(|_| next() as u8).collect();
        let flip = |at: &[usize]| {
            let mut p = base.clone();
            for &i in at {
                p[i] ^= 0x5A;
            }
            p
        };
        assert_eq!(delta_round_trip(&base, &base), (base.clone(), 0));
        let other: Vec<u8> = base.iter().map(|b| !b).collect();
        assert_eq!(delta_round_trip(&base, &other).0, other);
        for edits in [vec![0], vec![N - 1], vec![0, N - 1], vec![0, 1, 2, N - 2]] {
            let after = flip(&edits);
            assert_eq!(delta_round_trip(&base, &after).0, after, "{edits:?}");
        }
        // Gaps of RUN_HEADER - 1 ..= RUN_HEADER + 1 equal bytes: bridged
        // while the gap costs no more than a second run header.
        let mut sizes = Vec::new();
        for gap in RUN_HEADER - 1..=RUN_HEADER + 1 {
            let after = flip(&[10, 11 + gap]);
            let (got, size) = delta_round_trip(&base, &after);
            assert_eq!(got, after, "gap {gap}");
            sizes.push(size);
        }
        let one_run = |len: usize| 8 + 1 + 5 + RUN_HEADER + len;
        assert_eq!(
            sizes,
            vec![
                one_run(RUN_HEADER + 1),
                one_run(RUN_HEADER + 2),
                one_run(1) + RUN_HEADER + 1
            ]
        );
        for _ in 0..300 {
            let k = (next() % 12) as usize;
            let at: Vec<usize> = (0..k).map(|_| (next() % N as u64) as usize).collect();
            let after = flip(&at);
            assert_eq!(delta_round_trip(&base, &after).0, after, "{at:?}");
        }
    }

    #[test]
    fn a_delta_run_outside_the_page_is_corruption() {
        let mut page = vec![0u8; 16];
        let run = |off: u16, len: u16, bytes: &[u8]| {
            let mut r = off.to_le_bytes().to_vec();
            r.extend_from_slice(&len.to_le_bytes());
            r.extend_from_slice(bytes);
            r
        };
        assert!(apply_delta(&mut page, &run(14, 2, &[1, 2])).is_ok());
        assert_eq!(page[14..], [1, 2]);
        assert!(apply_delta(&mut page, &run(15, 2, &[1, 2])).is_err());
        assert!(apply_delta(&mut page, &run(0, 3, &[1, 2])).is_err());
        assert!(apply_delta(&mut page, &[0, 0, 1]).is_err());
    }

    /// An image and the deltas after it, replayed over any version of the
    /// home page — the checkpointed one, an intermediate one written back
    /// by an eviction, the final one, a torn one — give the final bytes.
    #[test]
    fn image_then_deltas_replay_to_the_final_page_over_any_home_version() {
        let path = temp_path("replay").with_file_name("home.pg");
        let mut next = rng(11);
        let mut versions = vec![vec![0u8; 128]];
        for _ in 0..4 {
            let mut p = versions.last().unwrap().clone();
            for _ in 0..6 {
                p[(next() % 128) as usize] = next() as u8;
            }
            versions.push(p);
        }
        let mut txn = vec![
            WalRecord::PageCount { comp: 0, count: 1 },
            WalRecord::PageImage {
                comp: 0,
                page: 0,
                data: versions[1].clone(),
            },
        ];
        for v in versions.windows(2).skip(1) {
            let mut frame = Vec::new();
            encode_page_delta(&mut frame, 0, 0, &v[0], &v[1]);
            txn.push(WalRecord::decode(&frame[8..]).unwrap());
        }
        let torn: Vec<u8> = (0..128).map(|i| if i < 64 { 0xEE } else { 0 }).collect();
        let last = versions.last().unwrap().clone();
        for home in versions.iter().chain([&torn]) {
            let mut s = FileStorage::create_with_page_size(&path, 128).unwrap();
            s.allocate_page().unwrap();
            s.write_page(0, home).unwrap();
            s.sync().unwrap();
            let out = replay(vec![txn.clone()], &mut [&mut s]).unwrap();
            assert_eq!(out.pages_applied, 4);
            let mut page = vec![0u8; 128];
            FileStorage::open(&path)
                .unwrap()
                .read_page(0, &mut page)
                .unwrap();
            assert_eq!(page, last);
        }
        std::fs::remove_file(&path).ok();
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
            WalRecord::PageDelta {
                comp: 1,
                page: 4,
                runs: vec![2, 0, 1, 0, 9],
            },
            WalRecord::DictBlob(b"dict".to_vec()),
            WalRecord::StatsBlob(b"stats".to_vec()),
        ];
        {
            let mut wal = Wal::open_or_create(&path).unwrap();
            wal.append_txn(&recs).unwrap();
        }
        let mut wal = Wal::open_or_create(&path).unwrap();
        let (txns, end) = wal.committed_txns().unwrap();
        assert_eq!(txns, vec![recs]);
        assert_eq!(end, std::fs::metadata(&path).unwrap().len());
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
        let blob = WalRecord::DictBlob(vec![1; 8]);
        let one = wal.append_txn(&[blob, WalRecord::Commit]).unwrap();
        assert_eq!((one, on_disk()), (8 + 17 + 9, 8 + 17 + 9));
        assert_eq!(wal.append_frames(Vec::new(), &[]).unwrap(), one + 9);
        assert_eq!(wal.committed_txns().unwrap().0.len(), 2);
        wal.checkpoint().unwrap();
        assert_eq!(on_disk(), 8 + 9, "the magic and an empty baseline");
        drop(wal);
        let mut wal = Wal::open_or_create(&path).unwrap();
        assert_eq!(wal.append_frames(Vec::new(), &[]).unwrap(), 8 + 9 + 9);
        std::fs::remove_file(&path).ok();
    }

    /// A page may be logged as a delta once its image is durable, until the
    /// next checkpoint; a reopened log knows no image.
    #[test]
    fn the_image_set_lives_from_an_append_to_the_next_checkpoint() {
        let path = temp_path("imaged");
        std::fs::remove_file(&path).ok();
        let mut wal = Wal::open_or_create(&path).unwrap();
        assert!(!wal.has_image(1, 5));
        wal.append_frames(Vec::new(), &[(1, 5)]).unwrap();
        assert!(wal.has_image(1, 5) && !wal.has_image(0, 5));
        wal.checkpoint().unwrap();
        assert!(!wal.has_image(1, 5));
        wal.append_frames(Vec::new(), &[(1, 5)]).unwrap();
        drop(wal);
        assert!(!Wal::open_or_create(&path).unwrap().has_image(1, 5));
        std::fs::remove_file(&path).ok();
    }

    /// A log written before deltas existed still replays, takes no delta
    /// while it carries the old magic, and is rewritten with the new magic
    /// by its first checkpoint.
    #[test]
    fn an_images_only_log_replays_and_upgrades_at_its_checkpoint() {
        let path = temp_path("v1");
        let recs = vec![
            WalRecord::PageImage {
                comp: 0,
                page: 1,
                data: vec![4u8; 32],
            },
            WalRecord::StatsBlob(vec![7]),
        ];
        let mut bytes = WAL_MAGIC_IMAGES_ONLY.to_vec();
        for r in recs.iter().chain([&WalRecord::Commit]) {
            r.encode_into(&mut bytes);
        }
        std::fs::write(&path, &bytes).unwrap();
        let mut wal = Wal::open_or_create(&path).unwrap();
        assert_eq!(wal.committed_txns().unwrap().0, vec![recs]);
        wal.append_frames(Vec::new(), &[(0, 1)]).unwrap();
        assert!(
            !wal.has_image(0, 1),
            "no delta goes into an images-only log"
        );
        wal.checkpoint().unwrap();
        assert_eq!(std::fs::read(&path).unwrap()[..8], WAL_MAGIC[..]);
        wal.append_frames(Vec::new(), &[(0, 1)]).unwrap();
        assert!(wal.has_image(0, 1));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_discarded_at_every_truncation_point() {
        let path = temp_path("torn");
        {
            let mut wal = Wal::open_or_create(&path).unwrap();
            wal.append_txn(&[WalRecord::StatsBlob(vec![1])]).unwrap();
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
            assert_eq!(wal.committed_txns().unwrap().0.len(), 2);
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
        // exactly the first transaction committed, and the committed
        // prefix ending where it ends.
        for cut in first_txn_end..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let mut wal = Wal::open_or_create(&path).unwrap();
            let (txns, end) = wal.committed_txns().unwrap();
            assert_eq!(txns.len(), 1, "cut at {cut}");
            assert_eq!(txns[0], vec![WalRecord::StatsBlob(vec![1])]);
            assert_eq!(end, first_txn_end as u64, "cut at {cut}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_crc_ends_scan() {
        let path = temp_path("crc");
        {
            let mut wal = Wal::open_or_create(&path).unwrap();
            wal.append_txn(&[WalRecord::StatsBlob(vec![1])]).unwrap();
            wal.append_txn(&[WalRecord::StatsBlob(vec![2])]).unwrap();
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
        let (txns, _) = wal.committed_txns().unwrap();
        assert_eq!(txns, vec![vec![WalRecord::StatsBlob(vec![1])]]);
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
        wal.checkpoint().unwrap();
        let (txns, _) = wal.committed_txns().unwrap();
        assert_eq!(txns, vec![vec![]]);
        std::fs::remove_file(&path).ok();
    }
}
