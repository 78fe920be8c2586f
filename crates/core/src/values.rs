//! Value information storage (paper §4.1, Figure 3).
//!
//! Element contents and attribute values are detached from the structure and
//! stored sequentially in a *data file* as `(len, value)` records (paper
//! Example 3). Three auxiliary structures connect values back to structure:
//!
//! * **B+v** — hashed value → Dewey IDs of nodes carrying that value ("the
//!   purpose of the hash function is to map any data value to an integer
//!   that can be compared quickly; different values hashed to the same key
//!   can be distinguished by looking up the data file directly"),
//! * **B+i** — Dewey ID → position of the node's value in the data file
//!   (extended here to also carry the node's physical [`crate::NodeAddr`],
//!   so Dewey IDs can be resolved to structure without a root walk),
//! * duplicate elimination — equal values are stored once and shared ("we
//!   can keep only one copy and let these nodes point to the same position").
//!
//! Reading a value needs only its offset. The table that finds a value's
//! record by its hash ([`Dedup`]) is sized by the document, so opening a
//! file does not build it: the first caller that shares, vouches for,
//! tombstones or rolls back a record does, in one pass streamed over the
//! file.

use std::collections::{BTreeSet, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};

use nok_pager::FailPlan;

use crate::error::{CoreError, CoreResult};

/// High bit of a record's `len` field: set when the record is a tombstone.
/// Deletion cannot compact the append-only file (every later offset is
/// referenced by B+i records), so dead records keep their bytes but are
/// excluded from dedup and rejected by [`DataFile::get_record`].
pub const DEAD_BIT: u32 = 0x8000_0000;

/// 64-bit FNV-1a — the hash used as the B+v key.
pub fn hash_value(value: &str) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = OFFSET;
    for b in value.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Key bytes for the B+v index (big-endian so equal hashes cluster).
pub fn hash_key(value: &str) -> [u8; 8] {
    hash_value(value).to_be_bytes()
}

/// Payload bytes fetched together with a record's length header. Element
/// text and attribute values are overwhelmingly shorter than this.
const INLINE_READ: usize = 124;

/// Bytes [`DataFile::for_each_record`] reads at a time (a longer record
/// widens the window to hold it).
const SCAN_WINDOW: usize = 64 << 10;

enum Backing {
    Mem(Vec<u8>),
    File(File),
}

/// One positional read: no seek, so no file-cursor state and one system
/// call per record.
#[cfg(unix)]
fn read_file_at(f: &mut File, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(f, buf, offset)
}

#[cfg(not(unix))]
fn read_file_at(f: &mut File, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
    use std::io::Read;
    f.seek(SeekFrom::Start(offset))?;
    f.read_exact(buf)
}

/// Low bits of a [`Dedup`] entry that hold the record's offset; the hash
/// bits above them pick the entries a lookup confirms against the record.
const OFFSET_BITS: u32 = 36;
const OFFSET_MASK: u64 = (1 << OFFSET_BITS) - 1;

/// The records of a data file by value hash, so equal values share a
/// record. Each live record is one 8-byte entry — the top bits of its hash
/// above its offset — in an ordered set: the entries a hash may own are one
/// range, and a lookup confirms them against the records.
#[derive(Default)]
struct Dedup {
    live: BTreeSet<u64>,
    /// Hashes of records `live` does not list: tombstoned ones, and any
    /// stored past `2^OFFSET_BITS` bytes (never shared). A hash outside
    /// this set has every record it ever had listed, which is what lets
    /// [`DataFile::hash_identifies`] vouch for a whole posting list.
    unlisted: HashSet<u64>,
}

impl Dedup {
    /// Offsets of the live records whose hash shares `hash`'s top bits.
    fn candidates(&self, hash: u64) -> Vec<u64> {
        let top = hash & !OFFSET_MASK;
        (self.live.range(top..=top | OFFSET_MASK))
            .map(|e| e & OFFSET_MASK)
            .collect()
    }

    fn insert(&mut self, hash: u64, offset: u64) {
        if offset <= OFFSET_MASK {
            self.live.insert(hash & !OFFSET_MASK | offset);
        } else {
            self.unlisted.insert(hash);
        }
    }

    /// Forget the live record at `offset`.
    fn remove(&mut self, hash: u64, offset: u64) {
        self.live.remove(&(hash & !OFFSET_MASK | offset));
    }

    /// Forget every live record at or past `len`.
    fn truncate(&mut self, len: u64) {
        self.live.retain(|&e| e & OFFSET_MASK < len);
    }
}

/// The sequential `(len, value)` record file.
pub struct DataFile {
    backing: Backing,
    /// Total bytes written (also the next append offset).
    len: u64,
    /// `None` until first needed (see [`DataFile::table`]).
    dedup: Option<Dedup>,
    /// Optional fault-injection plan gating mutating I/O.
    failpoint: Option<Failpoint>,
}

/// A fault-injection plan, and what the file must be put back to when it
/// trips — a crash loses what was never synced (see [`nok_pager::failpoint`]).
struct Failpoint {
    plan: Arc<FailPlan>,
    /// Length as of the last sync.
    synced_len: u64,
    /// `(offset, live length word)` of the records tombstoned since.
    unsynced_dead: Vec<(u64, u32)>,
}

impl DataFile {
    /// An in-memory data file.
    pub fn in_memory() -> Self {
        DataFile {
            backing: Backing::Mem(Vec::new()),
            len: 0,
            dedup: Some(Dedup::default()),
            failpoint: None,
        }
    }

    /// Create a new (truncated) data file on disk.
    pub fn create<P: AsRef<Path>>(path: P) -> CoreResult<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(nok_pager::PagerError::from)?;
        Ok(DataFile {
            backing: Backing::File(file),
            len: 0,
            dedup: Some(Dedup::default()),
            failpoint: None,
        })
    }

    /// Open an existing data file. Its length is the file's — recovery has
    /// already cut it to the committed length — and nothing of it is read.
    pub fn open<P: AsRef<Path>>(path: P) -> CoreResult<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(nok_pager::PagerError::from)?;
        let len = file.metadata().map_err(nok_pager::PagerError::from)?.len();
        Ok(DataFile {
            backing: Backing::File(file),
            len,
            dedup: None,
            failpoint: None,
        })
    }

    /// The dedup table, built on first use by one pass streamed over the
    /// records: live ones by hash, tombstoned ones as unlisted hashes. A
    /// file that does not end on a record boundary is
    /// [`CoreError::Corrupt`].
    fn table(&mut self) -> CoreResult<&mut Dedup> {
        let table = match self.dedup.take() {
            Some(table) => table,
            None => {
                let mut table = Dedup::default();
                self.for_each_record(|offset, dead, payload| {
                    if let Ok(s) = std::str::from_utf8(payload) {
                        if dead {
                            table.unlisted.insert(hash_value(s));
                        } else {
                            table.insert(hash_value(s), offset);
                        }
                    }
                })?;
                table
            }
        };
        Ok(self.dedup.insert(table))
    }

    /// Call `f(offset, dead, payload)` for every record, in file order,
    /// reading the file [`SCAN_WINDOW`] bytes at a time.
    fn for_each_record(&mut self, mut f: impl FnMut(u64, bool, &[u8])) -> CoreResult<()> {
        let mut window: Vec<u8> = Vec::new();
        // File offsets of `window[0]` and of the first byte not yet read.
        let (mut base, mut read_to) = (0u64, 0u64);
        loop {
            let mut p = 0usize;
            while let Some(&[a, b, c, d]) = window.get(p..p + 4) {
                let raw = u32::from_le_bytes([a, b, c, d]);
                let Some(payload) = window.get(p + 4..p + 4 + (raw & !DEAD_BIT) as usize) else {
                    break;
                };
                f(base + p as u64, raw & DEAD_BIT != 0, payload);
                p += 4 + payload.len();
            }
            window.drain(..p);
            base += p as u64;
            if read_to == self.len {
                if !window.is_empty() {
                    return Err(CoreError::Corrupt("truncated data-file record".into()));
                }
                return Ok(());
            }
            let n = (self.len - read_to).min(SCAN_WINDOW as u64) as usize;
            let filled = window.len();
            window.resize(filled + n, 0);
            self.read_exact_at(read_to, &mut window[filled..])?;
            read_to += n as u64;
        }
    }

    /// Route this file's mutating I/O through a fault-injection plan; the
    /// file is taken to be synced as it stands.
    pub fn set_failpoint(&mut self, plan: Arc<FailPlan>) {
        self.failpoint = Some(Failpoint {
            plan,
            synced_len: self.len,
            unsynced_dead: Vec::new(),
        });
    }

    fn check_failpoint(&self) -> CoreResult<()> {
        if let Some(fp) = &self.failpoint {
            fp.plan.check()?;
        }
        Ok(())
    }

    /// Total bytes in the file.
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// The bytes from `offset` to the end: what a transaction that began at
    /// length `offset` appended, for its commit record.
    pub fn bytes_from(&mut self, offset: u64) -> CoreResult<Vec<u8>> {
        let mut bytes = vec![0u8; self.len.saturating_sub(offset) as usize];
        self.read_exact_at(offset, &mut bytes)?;
        Ok(bytes)
    }

    /// Write an in-memory file's records to a new file at `path`, in one
    /// write, and go on backed by that file: a build assembles the whole
    /// data file in memory and writes it once, before its first sync.
    pub(crate) fn persist_new<P: AsRef<Path>>(&mut self, path: P) -> CoreResult<()> {
        let Backing::Mem(bytes) = &self.backing else {
            return Err(CoreError::Corrupt("data file is already on disk".into()));
        };
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(nok_pager::PagerError::from)?;
        file.write_all(bytes).map_err(nok_pager::PagerError::from)?;
        self.backing = Backing::File(file);
        Ok(())
    }

    /// Store `value`, reusing an existing record when the same value was
    /// stored before. Returns `(offset, len)` of the record.
    pub fn put(&mut self, value: &str) -> CoreResult<(u64, u32)> {
        self.put_hashed(value, hash_value(value))
    }

    /// [`DataFile::put`] of a value whose [`hash_value`] is `h`.
    pub(crate) fn put_hashed(&mut self, value: &str, h: u64) -> CoreResult<(u64, u32)> {
        for off in self.table()?.candidates(h) {
            // Hash collision safety: verify the stored bytes.
            if self.record_equals(off, value)? {
                return Ok((off, value.len() as u32));
            }
        }
        if value.len() as u32 & DEAD_BIT != 0 {
            return Err(CoreError::Corrupt("value too large for data file".into()));
        }
        self.check_failpoint()?;
        let off = self.len;
        let mut rec = Vec::with_capacity(4 + value.len());
        rec.extend_from_slice(&(value.len() as u32).to_le_bytes());
        rec.extend_from_slice(value.as_bytes());
        match &mut self.backing {
            Backing::Mem(v) => v.extend_from_slice(&rec),
            Backing::File(f) => {
                f.seek(SeekFrom::Start(off))
                    .map_err(nok_pager::PagerError::from)?;
                f.write_all(&rec).map_err(nok_pager::PagerError::from)?;
            }
        }
        self.len += rec.len() as u64;
        self.table()?.insert(h, off);
        Ok((off, value.len() as u32))
    }

    /// Read the record starting at `offset`. Tombstoned records are an
    /// error: nothing should still reference them.
    pub fn get_record(&mut self, offset: u64) -> CoreResult<String> {
        let mut payload = Vec::new();
        if self.read_record(offset, &mut payload)? {
            return Err(CoreError::Corrupt(format!(
                "read of tombstoned data record at offset {offset}"
            )));
        }
        String::from_utf8(payload).map_err(|_| CoreError::Corrupt("non-UTF8 value record".into()))
    }

    /// Read the record at `offset` whether or not it has been tombstoned.
    /// Snapshot readers pinned at an older generation use this: a record
    /// live at their epoch may be marked dead by a later commit, but
    /// tombstoning only sets the length's dead bit — the payload bytes
    /// stay intact for as long as the file lives.
    pub fn get_record_any(&mut self, offset: u64) -> CoreResult<String> {
        let mut payload = Vec::new();
        self.read_record(offset, &mut payload)?;
        String::from_utf8(payload).map_err(|_| CoreError::Corrupt("non-UTF8 value record".into()))
    }

    /// Does the record at `offset` (live or tombstoned) hold exactly
    /// `value`? Compares the stored bytes; no `String` is built.
    pub fn record_equals(&mut self, offset: u64, value: &str) -> CoreResult<bool> {
        let mut payload = Vec::new();
        self.read_record(offset, &mut payload)?;
        Ok(payload == value.as_bytes())
    }

    /// Does the hash of `value` identify it — is every record that ever
    /// carried this hash, at any generation a reader may be pinned to, a
    /// copy of `value`? Then each B+v posting under the hash is a true
    /// match and needs no per-node verification. `false` when a different
    /// value shares the hash (or just the top bits the table keeps), or
    /// when a record with this hash has been tombstoned (its text is no
    /// longer enumerable here, so the caller must verify posting by
    /// posting).
    pub fn hash_identifies(&mut self, value: &str) -> CoreResult<bool> {
        let h = hash_value(value);
        let table = self.table()?;
        if table.unlisted.contains(&h) {
            return Ok(false);
        }
        for off in table.candidates(h) {
            if !self.record_equals(off, value)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Payload length and tombstone flag of the record at `offset` — the
    /// raw accessor integrity scans use to walk the file without tripping
    /// over dead records.
    pub fn record_span(&mut self, offset: u64) -> CoreResult<(u32, bool)> {
        let mut len_buf = [0u8; 4];
        self.read_exact_at(offset, &mut len_buf)?;
        let raw = u32::from_le_bytes(len_buf);
        Ok((raw & !DEAD_BIT, raw & DEAD_BIT != 0))
    }

    /// Read the payload of the record at `offset` into `payload` and return
    /// its tombstone flag. One positional read fetches the length header
    /// together with a payload of up to [`INLINE_READ`] bytes; only longer
    /// values cost a second read.
    fn read_record(&mut self, offset: u64, payload: &mut Vec<u8>) -> CoreResult<bool> {
        let mut buf = [0u8; 4 + INLINE_READ];
        let avail = self.len.saturating_sub(offset).min(buf.len() as u64) as usize;
        if avail < 4 {
            return Err(CoreError::Corrupt(format!(
                "data-file read past end ({} > {})",
                offset.saturating_add(4),
                self.len
            )));
        }
        self.read_exact_at(offset, &mut buf[..avail])?;
        let raw = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
        let len = (raw & !DEAD_BIT) as usize;
        payload.clear();
        if 4 + len <= avail {
            payload.extend_from_slice(&buf[4..4 + len]);
        } else {
            // Bounded by the file, not by the (possibly damaged) header.
            if (len as u64) > self.len.saturating_sub(offset + 4) {
                return Err(CoreError::Corrupt(format!(
                    "data record at {offset} runs past the end of the file"
                )));
            }
            payload.resize(len, 0);
            payload[..avail - 4].copy_from_slice(&buf[4..avail]);
            self.read_exact_at(offset + avail as u64, &mut payload[avail - 4..])?;
        }
        Ok(raw & DEAD_BIT != 0)
    }

    /// Tombstone the record at `offset`: set the dead bit in its length
    /// field and drop it from dedup. Idempotent — recovery may replay it.
    pub fn mark_dead(&mut self, offset: u64) -> CoreResult<()> {
        let (len, dead) = self.record_span(offset)?;
        if dead {
            return Ok(());
        }
        // Drop the offset from dedup before touching the file, so a failed
        // write cannot leave a dead record shareable.
        let mut payload = vec![0u8; len as usize];
        self.read_exact_at(offset + 4, &mut payload)?;
        if let Ok(s) = std::str::from_utf8(&payload) {
            let h = hash_value(s);
            let table = self.table()?;
            table.unlisted.insert(h);
            table.remove(h, offset);
        }
        self.check_failpoint()?;
        if let Some(fp) = &mut self.failpoint {
            fp.unsynced_dead.push((offset, len));
        }
        let raw = len | DEAD_BIT;
        match &mut self.backing {
            Backing::Mem(v) => {
                v[offset as usize..offset as usize + 4].copy_from_slice(&raw.to_le_bytes());
            }
            Backing::File(f) => {
                f.seek(SeekFrom::Start(offset))
                    .map_err(nok_pager::PagerError::from)?;
                f.write_all(&raw.to_le_bytes())
                    .map_err(nok_pager::PagerError::from)?;
            }
        }
        Ok(())
    }

    /// Roll back to a previous length: drop every byte and dedup entry at
    /// or past `len` (the file is append-only, so everything after a
    /// remembered watermark belongs to the transaction being undone).
    pub fn truncate_to(&mut self, len: u64) -> CoreResult<()> {
        if len > self.len {
            return Err(CoreError::Corrupt(format!(
                "data-file truncate_to({len}) beyond current length {}",
                self.len
            )));
        }
        if len == self.len {
            return Ok(());
        }
        self.check_failpoint()?;
        match &mut self.backing {
            Backing::Mem(v) => v.truncate(len as usize),
            Backing::File(f) => {
                f.set_len(len).map_err(nok_pager::PagerError::from)?;
            }
        }
        self.len = len;
        self.table()?.truncate(len);
        Ok(())
    }

    fn read_exact_at(&mut self, offset: u64, buf: &mut [u8]) -> CoreResult<()> {
        match &mut self.backing {
            Backing::Mem(v) => {
                let start = offset as usize;
                let end = start + buf.len();
                if end > v.len() {
                    return Err(CoreError::Corrupt(format!(
                        "data-file read past end ({end} > {})",
                        v.len()
                    )));
                }
                buf.copy_from_slice(&v[start..end]);
                Ok(())
            }
            Backing::File(f) => {
                read_file_at(f, offset, buf).map_err(nok_pager::PagerError::from)?;
                Ok(())
            }
        }
    }

    /// Flush to durable media.
    pub fn sync(&mut self) -> CoreResult<()> {
        if matches!(self.backing, Backing::Mem(_)) {
            return Ok(());
        }
        self.check_failpoint()?;
        if let Backing::File(f) = &mut self.backing {
            f.sync_data().map_err(nok_pager::PagerError::from)?;
        }
        if let Some(fp) = &mut self.failpoint {
            fp.synced_len = self.len;
            fp.unsynced_dead.clear();
        }
        Ok(())
    }
}

/// A tripped fault-injection plan is a crash, and a crash loses what was
/// never synced: appends past the synced length and tombstones set since.
impl Drop for DataFile {
    fn drop(&mut self) {
        let (Some(fp), Backing::File(f)) = (&self.failpoint, &mut self.backing) else {
            return;
        };
        if fp.plan.is_tripped() {
            for (off, live) in fp.unsynced_dead.iter().filter(|d| d.0 < fp.synced_len) {
                let _ = f.seek(SeekFrom::Start(*off));
                let _ = f.write_all(&live.to_le_bytes());
            }
            let _ = f.set_len(fp.synced_len.min(self.len));
        }
    }
}

/// Panic-free locking for a shared [`DataFile`]. Query threads share one
/// data file behind a `Mutex`; a poisoned lock (a panicking thread, only
/// possible in tests) is recovered rather than propagated, since the file
/// holds plain offset-addressed records that stay valid across a panic.
pub trait LockDataFile {
    /// Acquire the data file, recovering from poisoning.
    fn lock_data(&self) -> MutexGuard<'_, DataFile>;
}

impl LockDataFile for Mutex<DataFile> {
    fn lock_data(&self) -> MutexGuard<'_, DataFile> {
        self.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_and_get_round_trip() {
        let mut df = DataFile::in_memory();
        let (o1, l1) = df.put("1994").unwrap();
        let (o2, _) = df.put("TCP/IP Illustrated").unwrap();
        assert_eq!(l1, 4);
        assert_eq!(df.get_record(o1).unwrap(), "1994");
        assert_eq!(df.get_record(o2).unwrap(), "TCP/IP Illustrated");
    }

    #[test]
    fn identical_values_are_shared() {
        let mut df = DataFile::in_memory();
        let (o1, _) = df.put("Addison-Wesley").unwrap();
        let before = df.len_bytes();
        let (o2, _) = df.put("Addison-Wesley").unwrap();
        assert_eq!(o1, o2, "paper: keep only one copy of equal values");
        assert_eq!(df.len_bytes(), before);
    }

    #[test]
    fn different_values_get_different_offsets() {
        let mut df = DataFile::in_memory();
        let (o1, _) = df.put("a").unwrap();
        let (o2, _) = df.put("b").unwrap();
        assert_ne!(o1, o2);
    }

    #[test]
    fn empty_value_is_storable() {
        let mut df = DataFile::in_memory();
        let (o, l) = df.put("").unwrap();
        assert_eq!(l, 0);
        assert_eq!(df.get_record(o).unwrap(), "");
    }

    #[test]
    fn hash_is_stable_and_spreads() {
        assert_eq!(hash_value("Stevens"), hash_value("Stevens"));
        assert_ne!(hash_value("Stevens"), hash_value("Stevens "));
        assert_ne!(hash_value("65.95"), hash_value("39.95"));
        assert_eq!(hash_key("x"), hash_value("x").to_be_bytes());
    }

    #[test]
    fn file_backing_persists() {
        let dir = std::env::temp_dir().join(format!("nok-values-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("values.dat");
        let off;
        {
            let mut df = DataFile::create(&path).unwrap();
            off = df.put("persisted value").unwrap().0;
            df.put("another").unwrap();
            df.sync().unwrap();
        }
        {
            let mut df = DataFile::open(&path).unwrap();
            assert_eq!(df.get_record(off).unwrap(), "persisted value");
            // Dedup map must have been rebuilt: re-putting reuses.
            assert_eq!(df.put("persisted value").unwrap().0, off);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn long_and_short_records_read_back_from_a_file() {
        // Short values ride along with the header read; long ones take a
        // second read; the last record of the file ends mid-buffer.
        let dir = std::env::temp_dir().join(format!("nok-values-long-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut df = DataFile::create(dir.join("values.dat")).unwrap();
        let long = "x".repeat(INLINE_READ * 3 + 5);
        let edge = "y".repeat(INLINE_READ);
        let offs: Vec<u64> = ["a", &long, "", &edge, "tail"]
            .iter()
            .map(|v| df.put(v).unwrap().0)
            .collect();
        for (off, want) in offs.iter().zip(["a", &long, "", &edge, "tail"]) {
            assert_eq!(df.get_record(*off).unwrap(), want);
            assert!(df.record_equals(*off, want).unwrap());
            assert!(!df.record_equals(*off, "something else").unwrap());
        }
        assert!(df.get_record(df.len_bytes() - 2).is_err(), "torn header");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_hash_identifies_its_value_until_proven_otherwise() {
        let mut df = DataFile::in_memory();
        let (abc, _) = df.put("abc").unwrap();
        let (xyz, _) = df.put("xyz").unwrap();
        assert!(df.hash_identifies("abc").unwrap());
        assert!(df.hash_identifies("never stored").unwrap(), "vacuously");
        // A second value under the same hash (a collision, planted here by
        // hand) means postings must be verified one by one.
        df.table().unwrap().insert(hash_value("abc"), xyz);
        assert!(!df.hash_identifies("abc").unwrap());
        df.table().unwrap().remove(hash_value("abc"), xyz);
        assert!(df.hash_identifies("abc").unwrap());
        // So does a tombstone: the dead record's text is no longer listed,
        // yet a pinned snapshot may still reach it — even after the value
        // is stored afresh.
        df.mark_dead(abc).unwrap();
        assert!(!df.hash_identifies("abc").unwrap());
        df.put("abc").unwrap();
        assert!(!df.hash_identifies("abc").unwrap());
        assert!(df.hash_identifies("xyz").unwrap());
    }

    /// A record past the offset bits is never shared, and its hash is
    /// never vouched for.
    #[test]
    fn a_record_past_the_offset_bits_is_unlisted() {
        let mut table = Dedup::default();
        table.insert(7, OFFSET_MASK + 1);
        assert!(table.candidates(7).is_empty());
        assert!(table.unlisted.contains(&7));
    }

    /// The table of a reopened file packs each record into 8 bytes and
    /// confirms lookups against the record: it shares and vouches for every
    /// stored value, an entry that shares only the hash's top bits is
    /// verified rather than vouched for, and tombstones and roll-backs
    /// reach it.
    #[test]
    fn a_table_built_from_the_file_shares_and_vouches() {
        let dir = std::env::temp_dir().join(format!("nok-values-built-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("values.dat");
        let values: Vec<String> = (0..2000).map(|i| format!("value {i}")).collect();
        let offs: Vec<u64> = {
            let mut df = DataFile::create(&path).unwrap();
            let offs = values.iter().map(|v| df.put(v).unwrap().0).collect();
            df.sync().unwrap();
            offs
        };
        let mut df = DataFile::open(&path).unwrap();
        for (v, off) in values.iter().zip(&offs) {
            assert_eq!(df.put(v).unwrap().0, *off, "{v} is shared");
            assert!(df.hash_identifies(v).unwrap());
        }
        let table = df.table().unwrap();
        assert_eq!(table.live.len(), values.len());
        // Plant an entry that shares the top bits of `value 0`'s hash but
        // points at another record: the value is still shared, but no
        // longer vouched for.
        let h0 = hash_value(&values[0]);
        table.live.insert(h0 & !OFFSET_MASK | offs[1]);
        assert!(!df.hash_identifies(&values[0]).unwrap());
        assert_eq!(df.put(&values[0]).unwrap().0, offs[0]);
        // A tombstone and a roll-back reach the entries.
        df.mark_dead(offs[5]).unwrap();
        assert!(!df.hash_identifies(&values[5]).unwrap());
        assert_ne!(df.put(&values[5]).unwrap().0, offs[5]);
        df.truncate_to(offs[1000]).unwrap();
        let len = df.len_bytes();
        assert_eq!(df.put(&values[999]).unwrap().0, offs[999]);
        assert_eq!(
            df.put(&values[1000]).unwrap().0,
            len,
            "cut off: stored afresh"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_of_range_read_is_error() {
        let mut df = DataFile::in_memory();
        df.put("x").unwrap();
        assert!(df.get_record(999).is_err());
    }

    #[test]
    fn tombstones_stop_sharing_and_reads() {
        let mut df = DataFile::in_memory();
        let (o1, _) = df.put("ghost").unwrap();
        let (o2, _) = df.put("alive").unwrap();
        df.mark_dead(o1).unwrap();
        df.mark_dead(o1).unwrap(); // idempotent
        assert!(df.get_record(o1).is_err());
        assert_eq!(df.record_span(o1).unwrap(), (5, true));
        assert_eq!(df.get_record(o2).unwrap(), "alive");
        // A fresh put of the dead value must get a new record.
        let (o3, _) = df.put("ghost").unwrap();
        assert_ne!(o3, o1);
        assert_eq!(df.get_record(o3).unwrap(), "ghost");
    }

    #[test]
    fn tombstones_survive_reopen_outside_dedup() {
        let dir = std::env::temp_dir().join(format!("nok-values-dead-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("values.dat");
        let (dead_off, live_off);
        {
            let mut df = DataFile::create(&path).unwrap();
            dead_off = df.put("condemned").unwrap().0;
            live_off = df.put("kept").unwrap().0;
            df.mark_dead(dead_off).unwrap();
            df.sync().unwrap();
        }
        {
            let mut df = DataFile::open(&path).unwrap();
            assert!(df.get_record(dead_off).is_err());
            assert_eq!(df.get_record(live_off).unwrap(), "kept");
            assert!(!df.hash_identifies("condemned").unwrap());
            assert!(df.hash_identifies("kept").unwrap());
            assert_ne!(df.put("condemned").unwrap().0, dead_off);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Opening reads nothing of the file and reading records never needs
    /// the table; each of the four operations that do need it builds it,
    /// and a file that ends inside a record is found out by that build.
    #[test]
    fn the_table_is_built_by_the_first_caller_that_needs_it() {
        let dir = std::env::temp_dir().join(format!("nok-values-lazy-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("values.dat");
        let (one, two, len);
        {
            let mut df = DataFile::create(&path).unwrap();
            one = df.put("one").unwrap().0;
            two = df.put("two").unwrap().0;
            len = df.len_bytes();
            df.sync().unwrap();
        }
        let needs: [fn(&mut DataFile, u64) -> bool; 4] = [
            |df, _| df.put("three").is_ok(),
            |df, _| df.hash_identifies("one").is_ok(),
            |df, two| df.mark_dead(two).is_ok(),
            |df, two| df.truncate_to(two).is_ok(),
        ];
        for need in needs {
            let mut df = DataFile::open(&path).unwrap();
            assert_eq!(df.len_bytes(), len);
            assert_eq!(df.get_record(one).unwrap(), "one");
            assert!(df.record_equals(two, "two").unwrap());
            assert_eq!(df.record_span(two).unwrap(), (3, false));
            assert!(df.dedup.is_none(), "reads do not build the table");
            assert!(need(&mut df, two));
            assert!(df.dedup.is_some());
            drop(df);
            // Undo what the operation did to the file.
            let mut df = DataFile::create(&path).unwrap();
            df.put("one").unwrap();
            df.put("two").unwrap();
        }
        // A torn tail: opening does not notice, records before it read
        // fine, and what needs the table is refused.
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .and_then(|f| f.set_len(len - 1))
            .unwrap();
        let mut df = DataFile::open(&path).unwrap();
        assert_eq!(df.get_record(one).unwrap(), "one");
        assert!(matches!(
            df.hash_identifies("one"),
            Err(CoreError::Corrupt(_))
        ));
        assert!(matches!(df.put("three"), Err(CoreError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Under a fault-injection plan that tripped, dropping the file is the
    /// crash: what was appended or tombstoned after the last sync is gone.
    #[test]
    fn a_tripped_plan_loses_what_was_never_synced() {
        let dir = std::env::temp_dir().join(format!("nok-values-trip-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("values.dat");
        let mut df = DataFile::create(&path).unwrap();
        let kept = df.put("kept").unwrap().0;
        let spared = df.put("spared").unwrap().0;
        df.set_failpoint(FailPlan::at(5));
        df.mark_dead(kept).unwrap(); // 1
        df.sync().unwrap(); // 2
        let synced = df.len_bytes();
        assert_eq!(df.bytes_from(spared).unwrap(), b"\x06\x00\x00\x00spared");
        df.put("lost").unwrap(); // 3
        df.mark_dead(spared).unwrap(); // 4
        assert!(df.sync().is_err()); // 5: the crash
        drop(df);
        let mut df = DataFile::open(&path).unwrap();
        assert_eq!(df.len_bytes(), synced);
        assert_eq!(df.record_span(kept).unwrap(), (4, true));
        assert_eq!(df.get_record(spared).unwrap(), "spared");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncate_to_rolls_back_appends() {
        let mut df = DataFile::in_memory();
        let (o1, _) = df.put("base").unwrap();
        let mark = df.len_bytes();
        df.put("txn-value").unwrap();
        df.truncate_to(mark).unwrap();
        assert_eq!(df.len_bytes(), mark);
        assert_eq!(df.get_record(o1).unwrap(), "base");
        // The rolled-back value must not be shareable.
        let (o2, _) = df.put("txn-value").unwrap();
        assert_eq!(o2, mark);
        assert!(df.truncate_to(mark + 999).is_err());
    }
}
