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
//! The records form one byte stream laid over the pages of a
//! [`BufferPool`], the fifth paged component: the record at byte offset
//! `o` starts on page `1 + o / page_size`, and a record may straddle pages.
//! Page 0 holds the stream's length (`u64` LE). An append, a tombstone and
//! the length are page writes like any other, so the write-ahead log, the
//! checkpoint, rollback and recovery treat them as they treat the indexes'
//! pages, and a snapshot reads records through its generation's view.
//!
//! Reading a value needs only its offset and takes no lock. The table that
//! finds a value's record by its hash ([`Dedup`]) is sized by the document,
//! so opening a file does not build it: the first caller that shares or
//! vouches for a record does, in one pass over the pages that leaves the
//! pool's cache as it found it. The mutex that holds the table also orders
//! the appends and tombstones that change it.

use std::collections::{BTreeSet, HashSet};
use std::sync::{Arc, Mutex, MutexGuard};

use nok_pager::mvcc::resolve_page;
use nok_pager::{BufferPool, PageId, SnapView, Storage};

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
}

/// `None` until first needed (see [`DataFile::table`]); shared by a file's
/// live handle and every snapshot view of it.
type Table = Arc<Mutex<Option<Dedup>>>;

/// The sequential `(len, value)` record file, over the pages of a pool.
pub struct DataFile<S: Storage> {
    pool: Arc<BufferPool<S>>,
    /// The pinned generation's overlay of a snapshot's handle; `None` reads
    /// the live pages.
    view: Option<SnapView>,
    /// Bytes this handle reads: the file's for the live handle, the pinned
    /// generation's committed length for a view.
    len: u64,
    dedup: Table,
}

impl<S: Storage> DataFile<S> {
    /// A new data file over the empty `pool`: page 0, holding length 0.
    pub fn create(pool: Arc<BufferPool<S>>) -> CoreResult<Self> {
        if pool.page_count() != 0 {
            return Err(CoreError::Corrupt(
                "data file created over used pages".into(),
            ));
        }
        pool.allocate()?;
        Ok(DataFile {
            pool,
            view: None,
            len: 0,
            dedup: Arc::new(Mutex::new(Some(Dedup::default()))),
        })
    }

    /// Open the data file on `pool`: its length is page 0's, and nothing
    /// else is read.
    pub fn open(pool: Arc<BufferPool<S>>) -> CoreResult<Self> {
        let mut file = DataFile {
            pool,
            view: None,
            len: 0,
            dedup: Arc::new(Mutex::new(None)),
        };
        file.len = file.live_len()?;
        Ok(file)
    }

    /// A read-only handle on the same pages and table: through `view`,
    /// `len` bytes long (a snapshot's handle), or the live pages without a
    /// view.
    pub(crate) fn at(&self, view: Option<SnapView>, len: u64) -> Self {
        DataFile {
            pool: Arc::clone(&self.pool),
            view,
            len,
            dedup: Arc::clone(&self.dedup),
        }
    }

    /// The pool holding the pages.
    pub fn pool(&self) -> &Arc<BufferPool<S>> {
        &self.pool
    }

    /// Total bytes in the file.
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// The live file's length: page 0's current bytes, whatever this
    /// handle's view.
    fn live_len(&self) -> CoreResult<u64> {
        let page = self.pool.image(0)?;
        let bytes = page
            .first_chunk::<8>()
            .ok_or_else(|| CoreError::Corrupt("data-file page too small for its length".into()))?;
        Ok(u64::from_le_bytes(*bytes))
    }

    /// The bytes from `offset` to the end.
    pub fn bytes_from(&self, offset: u64) -> CoreResult<Vec<u8>> {
        let mut bytes = vec![0u8; self.len.saturating_sub(offset) as usize];
        self.read_at(offset, &mut bytes)?;
        Ok(bytes)
    }

    fn lock_dedup(&self) -> MutexGuard<'_, Option<Dedup>> {
        // A poisoned lock (only a panicking test thread) is recovered, as
        // the pool's locks are.
        self.dedup.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Page `id` of the stream (`1 + offset / page_size`).
    fn page_of(&self, offset: u64) -> CoreResult<(PageId, usize)> {
        let size = self.pool.page_size() as u64;
        let id = PageId::try_from(1 + offset / size)
            .map_err(|_| CoreError::Corrupt(format!("data-file offset {offset} out of range")))?;
        Ok((id, (offset % size) as usize))
    }

    /// Copy bytes `[offset, offset + buf.len())` out of the pages `page`
    /// yields.
    fn copy_out(
        &self,
        offset: u64,
        buf: &mut [u8],
        mut page: impl FnMut(PageId) -> CoreResult<Arc<[u8]>>,
    ) -> CoreResult<()> {
        let mut done = 0;
        while done < buf.len() {
            let (id, at) = self.page_of(offset + done as u64)?;
            let image = page(id)?;
            let n = (buf.len() - done).min(image.len() - at);
            buf[done..done + n].copy_from_slice(&image[at..at + n]);
            done += n;
        }
        Ok(())
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> CoreResult<()> {
        self.copy_out(offset, buf, |id| {
            Ok(resolve_page(&self.pool, self.view.as_ref(), id)?)
        })
    }

    /// Write `bytes` at `offset`, allocating the pages the stream grows
    /// into.
    fn write_at(&self, offset: u64, bytes: &[u8]) -> CoreResult<()> {
        let mut done = 0;
        while done < bytes.len() {
            let (id, at) = self.page_of(offset + done as u64)?;
            let page = match id.cmp(&self.pool.page_count()) {
                std::cmp::Ordering::Less => self.pool.get(id)?,
                std::cmp::Ordering::Equal => self.pool.allocate()?.1,
                std::cmp::Ordering::Greater => {
                    return Err(CoreError::Corrupt(format!(
                        "data-file write at {offset} past its pages"
                    )))
                }
            };
            let mut image = page.write();
            let n = (bytes.len() - done).min(image.len() - at);
            image[at..at + n].copy_from_slice(&bytes[done..done + n]);
            done += n;
        }
        Ok(())
    }

    /// The length word of the record at `offset`, checked against the
    /// handle's length.
    fn length_word(&self, offset: u64) -> CoreResult<u32> {
        if offset.saturating_add(4) > self.len {
            return Err(CoreError::Corrupt(format!(
                "data-file read past end ({} > {})",
                offset.saturating_add(4),
                self.len
            )));
        }
        let mut word = [0u8; 4];
        self.read_at(offset, &mut word)?;
        Ok(u32::from_le_bytes(word))
    }

    /// Read the payload of the record at `offset` into `payload` and return
    /// its tombstone flag. The payload is bounded by the file, not by the
    /// (possibly damaged) length word.
    fn read_record(&self, offset: u64, payload: &mut Vec<u8>) -> CoreResult<bool> {
        let raw = self.length_word(offset)?;
        let len = (raw & !DEAD_BIT) as u64;
        if len > self.len - offset - 4 {
            return Err(CoreError::Corrupt(format!(
                "data record at {offset} runs past the end of the file"
            )));
        }
        payload.resize(len as usize, 0);
        self.read_at(offset + 4, payload)?;
        Ok(raw & DEAD_BIT != 0)
    }

    /// The dedup table, built on first use by one pass over the live
    /// records: live ones by hash, tombstoned ones as unlisted hashes. The
    /// pass reads pages the pool has not cached without caching them. A
    /// file that does not end on a record boundary is
    /// [`CoreError::Corrupt`].
    fn table<'t>(&self, slot: &'t mut Option<Dedup>) -> CoreResult<&'t mut Dedup> {
        if let Some(table) = slot {
            return Ok(table);
        }
        let len = self.live_len()?;
        let mut table = Dedup::default();
        let mut last: Option<(PageId, Arc<[u8]>)> = None;
        let mut page = |id| match &last {
            Some((at, image)) if *at == id => Ok(Arc::clone(image)),
            _ => {
                let image = self.pool.image_uncached(id)?;
                last = Some((id, Arc::clone(&image)));
                Ok(image)
            }
        };
        let (mut offset, mut payload) = (0u64, Vec::new());
        while offset < len {
            let mut word = [0u8; 4];
            let raw_len = (len - offset).min(4) as usize;
            self.copy_out(offset, &mut word[..raw_len], &mut page)?;
            let raw = u32::from_le_bytes(word);
            let size = 4 + (raw & !DEAD_BIT) as u64;
            if raw_len < 4 || size > len - offset {
                return Err(CoreError::Corrupt("truncated data-file record".into()));
            }
            payload.resize(size as usize - 4, 0);
            self.copy_out(offset + 4, &mut payload, &mut page)?;
            if let Ok(s) = std::str::from_utf8(&payload) {
                if raw & DEAD_BIT != 0 {
                    table.unlisted.insert(hash_value(s));
                } else {
                    table.insert(hash_value(s), offset);
                }
            }
            offset += size;
        }
        Ok(slot.insert(table))
    }

    /// Store `value`, reusing an existing record when the same value was
    /// stored before. Returns `(offset, len)` of the record.
    pub fn put(&mut self, value: &str) -> CoreResult<(u64, u32)> {
        self.put_hashed(value, hash_value(value))
    }

    /// [`DataFile::put`] of a value whose [`hash_value`] is `h`: the record
    /// bytes, then the new length into page 0.
    pub(crate) fn put_hashed(&mut self, value: &str, h: u64) -> CoreResult<(u64, u32)> {
        let mut slot = self.lock_dedup();
        let table = self.table(&mut slot)?;
        for off in table.candidates(h) {
            // Hash collision safety: verify the stored bytes.
            if self.record_equals(off, value)? {
                return Ok((off, value.len() as u32));
            }
        }
        if value.len() >= DEAD_BIT as usize {
            return Err(CoreError::Corrupt("value too large for data file".into()));
        }
        let off = self.len;
        let mut rec = Vec::with_capacity(4 + value.len());
        rec.extend_from_slice(&(value.len() as u32).to_le_bytes());
        rec.extend_from_slice(value.as_bytes());
        self.write_at(off, &rec)?;
        let len = off + rec.len() as u64;
        self.pool.get(0)?.write()[..8].copy_from_slice(&len.to_le_bytes());
        table.insert(h, off);
        drop(slot);
        self.len = len;
        Ok((off, value.len() as u32))
    }

    /// Read the record starting at `offset`. Tombstoned records are an
    /// error: nothing should still reference them. A snapshot's handle
    /// reads the record as its generation left it, before any later
    /// tombstone.
    pub fn get_record(&self, offset: u64) -> CoreResult<String> {
        let mut payload = Vec::new();
        if self.read_record(offset, &mut payload)? {
            return Err(CoreError::Corrupt(format!(
                "read of tombstoned data record at offset {offset}"
            )));
        }
        String::from_utf8(payload).map_err(|_| CoreError::Corrupt("non-UTF8 value record".into()))
    }

    /// Does the record at `offset` (live or tombstoned) hold exactly
    /// `value`? Compares the stored bytes; no `String` is built.
    pub fn record_equals(&self, offset: u64, value: &str) -> CoreResult<bool> {
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
    /// posting). The table lists the live file, so the candidates are read
    /// from the live pages whatever handle asks.
    pub fn hash_identifies(&self, value: &str) -> CoreResult<bool> {
        let h = hash_value(value);
        let mut slot = self.lock_dedup();
        let table = self.table(&mut slot)?;
        if table.unlisted.contains(&h) {
            return Ok(false);
        }
        let live = self.at(None, self.live_len()?);
        for off in table.candidates(h) {
            if !live.record_equals(off, value)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Payload length and tombstone flag of the record at `offset` — the
    /// raw accessor integrity scans use to walk the file without tripping
    /// over dead records.
    pub fn record_span(&self, offset: u64) -> CoreResult<(u32, bool)> {
        let raw = self.length_word(offset)?;
        Ok((raw & !DEAD_BIT, raw & DEAD_BIT != 0))
    }

    /// Tombstone the record at `offset`: set the dead bit in its length
    /// word (a page write the open transaction logs, and its rollback
    /// undoes) and drop it from dedup. Idempotent.
    pub fn mark_dead(&mut self, offset: u64) -> CoreResult<()> {
        let mut slot = self.lock_dedup();
        let table = self.table(&mut slot)?;
        let mut payload = Vec::new();
        if self.read_record(offset, &mut payload)? {
            return Ok(());
        }
        // Out of the table before the page changes, so a failed write
        // cannot leave a dead record shareable.
        if let Ok(s) = std::str::from_utf8(&payload) {
            let h = hash_value(s);
            table.unlisted.insert(h);
            table.remove(h, offset);
        }
        let raw = payload.len() as u32 | DEAD_BIT;
        self.write_at(offset, &raw.to_le_bytes())
    }

    /// Roll the file back with its pages: `abort` undoes the open
    /// transaction's page writes (appends, tombstones, the length), then
    /// the length is page 0's again and the table is dropped, to be rebuilt
    /// from the pages when next needed. The table's lock is held
    /// throughout, so no reader confirms an entry against a page that is
    /// being put back.
    pub(crate) fn roll_back(&mut self, abort: impl FnOnce() -> CoreResult<()>) -> CoreResult<()> {
        let mut slot = self.lock_dedup();
        let undone = abort();
        *slot = None;
        drop(slot);
        undone?;
        self.len = self.live_len()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nok_pager::{FileStorage, MemStorage};

    fn mem_with_page_size(page_size: usize) -> DataFile<MemStorage> {
        let pool = BufferPool::new(MemStorage::with_page_size(page_size));
        DataFile::create(Arc::new(pool)).unwrap()
    }

    fn mem() -> DataFile<MemStorage> {
        mem_with_page_size(nok_pager::DEFAULT_PAGE_SIZE)
    }

    /// A handle opened afresh on the same pages: no table yet.
    fn reopen<S: Storage>(df: &DataFile<S>) -> DataFile<S> {
        DataFile::open(Arc::clone(df.pool())).unwrap()
    }

    #[test]
    fn put_and_get_round_trip() {
        let mut df = mem();
        let (o1, l1) = df.put("1994").unwrap();
        let (o2, _) = df.put("TCP/IP Illustrated").unwrap();
        assert_eq!(l1, 4);
        assert_eq!(df.get_record(o1).unwrap(), "1994");
        assert_eq!(df.get_record(o2).unwrap(), "TCP/IP Illustrated");
    }

    #[test]
    fn identical_values_are_shared() {
        let mut df = mem();
        let (o1, _) = df.put("Addison-Wesley").unwrap();
        let before = df.len_bytes();
        let (o2, _) = df.put("Addison-Wesley").unwrap();
        assert_eq!(o1, o2, "paper: keep only one copy of equal values");
        assert_eq!(df.len_bytes(), before);
    }

    #[test]
    fn different_values_get_different_offsets() {
        let mut df = mem();
        let (o1, _) = df.put("a").unwrap();
        let (o2, _) = df.put("b").unwrap();
        assert_ne!(o1, o2);
    }

    #[test]
    fn empty_value_is_storable() {
        let mut df = mem();
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

    /// The records lie on the pages after the length page, at their byte
    /// offsets, and survive a write-back and a reopen of the file.
    #[test]
    fn file_backing_persists() {
        let dir = std::env::temp_dir().join(format!("nok-values-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("values.dat");
        let off;
        {
            let pool = BufferPool::new(FileStorage::create_with_page_size(&path, 64).unwrap());
            let mut df = DataFile::create(Arc::new(pool)).unwrap();
            off = df.put("persisted value").unwrap().0;
            df.put("another").unwrap();
            df.pool().flush().unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes[16..24], 30u64.to_le_bytes(), "page 0: the length");
        assert_eq!(bytes[80..84], 15u32.to_le_bytes(), "page 1: the records");
        assert_eq!(&bytes[84..99], b"persisted value");
        {
            let pool = BufferPool::new(FileStorage::open(&path).unwrap());
            let mut df = DataFile::open(Arc::new(pool)).unwrap();
            assert_eq!(df.len_bytes(), 30);
            assert_eq!(df.get_record(off).unwrap(), "persisted value");
            // The dedup table is rebuilt: re-putting reuses.
            assert_eq!(df.put("persisted value").unwrap().0, off);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Records shorter and longer than a page, the empty one, and one whose
    /// length word straddles a page boundary read back from a file; a read
    /// from inside a record's length word past the end is refused.
    #[test]
    fn long_and_short_records_read_back_from_a_file() {
        let dir = std::env::temp_dir().join(format!("nok-values-long-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("values.dat");
        let pool = BufferPool::new(FileStorage::create_with_page_size(&path, 64).unwrap());
        let mut df = DataFile::create(Arc::new(pool)).unwrap();
        let (long, edge) = ("x".repeat(64 * 3 + 5), "y".repeat(40));
        let values = ["a", &long, "", &edge, "straddles", "tail"];
        let offs: Vec<u64> = values.iter().map(|v| df.put(v).unwrap().0).collect();
        assert_eq!(offs[4] % 64, 62, "the length word straddles two pages");
        df.pool().flush().unwrap();
        let df = DataFile::open(Arc::new(BufferPool::new(FileStorage::open(&path).unwrap())));
        let df = df.unwrap();
        for (off, want) in offs.iter().zip(values) {
            assert_eq!(df.get_record(*off).unwrap(), want);
            assert!(df.record_equals(*off, want).unwrap());
            assert!(!df.record_equals(*off, "something else").unwrap());
        }
        assert!(df.get_record(df.len_bytes() - 2).is_err(), "torn header");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// What an aborted transaction appended and tombstoned is gone: the
    /// length, the records and the table are the committed ones again.
    #[test]
    fn abort_rolls_back_appends_and_tombstones() {
        let mut df = mem();
        let (base, _) = df.put("base").unwrap();
        let mark = df.len_bytes();
        let mut txn = df.pool().begin_txn();
        df.put("txn-value").unwrap();
        df.mark_dead(base).unwrap();
        df.roll_back(|| Ok(txn.abort()?)).unwrap();
        assert_eq!(df.len_bytes(), mark);
        assert_eq!(reopen(&df).len_bytes(), mark);
        assert_eq!(df.get_record(base).unwrap(), "base");
        assert_eq!(df.put("base").unwrap().0, base, "shared again");
        // The rolled-back value is not shareable: it is stored afresh.
        assert_eq!(df.put("txn-value").unwrap().0, mark);
    }

    #[test]
    fn a_hash_identifies_its_value_until_proven_otherwise() {
        let mut df = mem();
        let (abc, _) = df.put("abc").unwrap();
        let (xyz, _) = df.put("xyz").unwrap();
        assert!(df.hash_identifies("abc").unwrap());
        assert!(df.hash_identifies("never stored").unwrap(), "vacuously");
        // A second value under the same hash (a collision, planted here by
        // hand) means postings must be verified one by one.
        let plant = |df: &DataFile<MemStorage>, add: bool| {
            let mut slot = df.lock_dedup();
            let table = df.table(&mut slot).unwrap();
            if add {
                table.insert(hash_value("abc"), xyz);
            } else {
                table.remove(hash_value("abc"), xyz);
            }
        };
        plant(&df, true);
        assert!(!df.hash_identifies("abc").unwrap());
        plant(&df, false);
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
    /// verified rather than vouched for, and tombstones reach it.
    #[test]
    fn a_table_built_from_the_file_shares_and_vouches() {
        let mut df = mem_with_page_size(256);
        let values: Vec<String> = (0..2000).map(|i| format!("value {i}")).collect();
        let offs: Vec<u64> = values.iter().map(|v| df.put(v).unwrap().0).collect();
        let mut df = reopen(&df);
        for (v, off) in values.iter().zip(&offs) {
            assert_eq!(df.put(v).unwrap().0, *off, "{v} is shared");
            assert!(df.hash_identifies(v).unwrap());
        }
        {
            let mut slot = df.lock_dedup();
            let table = df.table(&mut slot).unwrap();
            assert_eq!(table.live.len(), values.len());
            // Plant an entry that shares the top bits of `value 0`'s hash
            // but points at another record: the value is still shared, but
            // no longer vouched for.
            let h0 = hash_value(&values[0]);
            table.live.insert(h0 & !OFFSET_MASK | offs[1]);
        }
        assert!(!df.hash_identifies(&values[0]).unwrap());
        assert_eq!(df.put(&values[0]).unwrap().0, offs[0]);
        df.mark_dead(offs[5]).unwrap();
        assert!(!df.hash_identifies(&values[5]).unwrap());
        assert_ne!(df.put(&values[5]).unwrap().0, offs[5]);
    }

    #[test]
    fn out_of_range_read_is_error() {
        let mut df = mem();
        df.put("x").unwrap();
        assert!(df.get_record(999).is_err());
        assert!(df.get_record(df.len_bytes() - 2).is_err(), "torn header");
    }

    #[test]
    fn tombstones_stop_sharing_and_reads() {
        let mut df = mem();
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
        let mut df = mem();
        let dead_off = df.put("condemned").unwrap().0;
        let live_off = df.put("kept").unwrap().0;
        df.mark_dead(dead_off).unwrap();
        let mut df = reopen(&df);
        assert!(df.get_record(dead_off).is_err());
        assert_eq!(df.get_record(live_off).unwrap(), "kept");
        assert!(!df.hash_identifies("condemned").unwrap());
        assert!(df.hash_identifies("kept").unwrap());
        assert_ne!(df.put("condemned").unwrap().0, dead_off);
    }

    /// Opening reads nothing but the length and reading records never
    /// needs the table; each of the three operations that do need it builds
    /// it, and a file that ends inside a record is found out by that build.
    #[test]
    fn the_table_is_built_by_the_first_caller_that_needs_it() {
        let mut df = mem();
        let one = df.put("one").unwrap().0;
        let two = df.put("two").unwrap().0;
        let len = df.len_bytes();
        let needs: [fn(&mut DataFile<MemStorage>, u64) -> bool; 3] = [
            |df, _| df.put("one").is_ok(),
            |df, _| df.hash_identifies("one").is_ok(),
            |df, one| df.mark_dead(one).is_ok() && df.put("one").is_ok(),
        ];
        for need in needs {
            let mut df = reopen(&df);
            assert_eq!(df.len_bytes(), len);
            assert_eq!(df.get_record(one).unwrap(), "one");
            assert!(df.record_equals(two, "two").unwrap());
            assert_eq!(df.record_span(two).unwrap(), (3, false));
            assert!(df.lock_dedup().is_none(), "reads do not build the table");
            assert!(need(&mut df, one));
            assert!(df.lock_dedup().is_some());
        }
        // A length that ends inside a record: records before it read fine,
        // and what needs the table is refused.
        let mut df = mem();
        let one = df.put("one").unwrap().0;
        let torn = df.put("two").unwrap().0 + 1;
        df.pool().get(0).unwrap().write()[..8].copy_from_slice(&torn.to_le_bytes());
        let mut df = reopen(&df);
        assert_eq!(df.get_record(one).unwrap(), "one");
        assert!(matches!(
            df.hash_identifies("one"),
            Err(CoreError::Corrupt(_))
        ));
        assert!(matches!(df.put("three"), Err(CoreError::Corrupt(_))));
    }

    /// xorshift64: a seeded stream for the property test.
    fn rng(mut s: u64) -> impl FnMut() -> u64 {
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        }
    }

    /// The file against a `Vec<u8>` of its byte stream: appends (the empty
    /// value, short ones, ones longer than a page, repeats that must be
    /// shared) and tombstones, inside transactions that commit or abort,
    /// and reopens. After every step the stream, the length page and the
    /// page count are the model's; at the end every record reads back.
    fn paged_file_matches_a_byte_model(page_size: usize) {
        let (mut straddled_words, mut straddled_dead, mut aborted) = (0, 0, 0);
        for seed in 1..=12u64 {
            let mut next = rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut df = mem_with_page_size(page_size);
            let mut model: Vec<u8> = Vec::new();
            // Offset and text of every record stored, and whether it is dead.
            let mut records: Vec<(u64, String, bool)> = Vec::new();
            let mut txn = df.pool().begin_txn();
            let mut began = (model.clone(), records.clone());
            let straddles = |off: u64| off % page_size as u64 > page_size as u64 - 4;
            for _ in 0..240 {
                match next() % 10 {
                    0..=4 => {
                        // Case 2 ends its record two bytes before a page
                        // boundary: the next length word straddles it.
                        let to_straddle = (2 * page_size - 6 - model.len() % page_size) % page_size;
                        let fresh = match next() % 8 {
                            0 => String::new(),
                            1 => "x".repeat(page_size + (next() % (2 * page_size as u64)) as usize),
                            2 => "z".repeat(to_straddle),
                            _ => format!("{}{}", next(), "y".repeat((next() % 40) as usize)),
                        };
                        let value = match records.iter().find(|r| !r.2 && next().is_multiple_of(4))
                        {
                            Some(r) => r.1.clone(),
                            None => fresh,
                        };
                        let shared = records.iter().find(|r| !r.2 && r.1 == value);
                        let (off, len) = df.put(&value).unwrap();
                        assert_eq!(len as usize, value.len());
                        if let Some(r) = shared {
                            assert_eq!(off, r.0, "a live equal value is shared");
                        } else {
                            assert_eq!(off, model.len() as u64, "a new value is appended");
                            model.extend_from_slice(&len.to_le_bytes());
                            model.extend_from_slice(value.as_bytes());
                            straddled_words += usize::from(straddles(off));
                            records.push((off, value, false));
                        }
                    }
                    5 | 6 => {
                        let live: Vec<usize> =
                            (0..records.len()).filter(|&i| !records[i].2).collect();
                        if let Some(&i) = live.get((next() % (live.len() as u64 + 1)) as usize) {
                            let off = records[i].0;
                            df.mark_dead(off).unwrap();
                            model[off as usize + 3] |= 0x80;
                            records[i].2 = true;
                            straddled_dead += usize::from(straddles(off));
                        }
                    }
                    7 => {
                        df.roll_back(|| Ok(txn.abort()?)).unwrap();
                        (model, records) = began.clone();
                        aborted += 1;
                        txn = df.pool().begin_txn();
                    }
                    op => {
                        txn.commit();
                        if op == 9 {
                            df = reopen(&df);
                        }
                        txn = df.pool().begin_txn();
                        began = (model.clone(), records.clone());
                    }
                }
                assert_eq!(df.len_bytes(), model.len() as u64);
                assert_eq!(df.bytes_from(0).unwrap(), model);
                assert_eq!(reopen(&df).len_bytes(), model.len() as u64, "page 0");
                let pages = df.pool().page_count() as usize;
                assert_eq!(
                    pages,
                    1 + model.len().div_ceil(page_size),
                    "no page to spare"
                );
            }
            txn.commit();
            for (off, value, dead) in &records {
                assert_eq!(df.record_span(*off).unwrap(), (value.len() as u32, *dead));
                match dead {
                    false => assert_eq!(&df.get_record(*off).unwrap(), value),
                    true => assert!(df.get_record(*off).is_err()),
                }
                assert!(df.record_equals(*off, value).unwrap());
                let none_dead = records.iter().all(|r| &r.1 != value || !r.2);
                assert_eq!(df.hash_identifies(value).unwrap(), none_dead);
            }
        }
        assert!(straddled_words > 0 && straddled_dead > 0 && aborted > 0);
    }

    #[test]
    fn paged_file_matches_a_byte_model_256_byte_pages() {
        paged_file_matches_a_byte_model(256);
    }

    #[test]
    fn paged_file_matches_a_byte_model_1k_pages() {
        paged_file_matches_a_byte_model(1024);
    }

    #[test]
    fn paged_file_matches_a_byte_model_4k_pages() {
        paged_file_matches_a_byte_model(4096);
    }
}
