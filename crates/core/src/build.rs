//! [`XmlDb`]: the assembled storage system — succinct structural store,
//! detached value file, and the three B+ tree indexes of Figure 3 — with
//! constructors for in-memory and on-disk instances. All five are paged
//! components of one durability protocol: the write-ahead log below.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use nok_btree::BTree;
use nok_pager::mvcc::GenerationTable;
use nok_pager::wal::{encode_page_delta, encode_page_image};
use nok_pager::{
    BufferPool, FailPlan, FileStorage, MemStorage, Storage, TxnHandle, Wal, WalRecord,
};
use nok_xml::Reader;

use crate::cursor::DocScan;
use crate::dewey::Dewey;
use crate::error::{CoreError, CoreResult, SuperblockError};
use crate::page;
use crate::physical::{tag_posting_key, IdRecord, TagPosting};
use crate::recovery::{persist_file, RecoveryReport};
use crate::sigma::{TagCode, TagDict};
use crate::snapshot::{initial_generations, DbGeneration};
use crate::store::{BuildOptions, BuildSink, NodeRecord, StructStore};
use crate::synopsis::Synopsis;
use crate::values::{hash_value, DataFile};

/// A complete XML database instance over one document.
pub struct XmlDb<S: Storage> {
    pub(crate) store: StructStore<S>,
    /// Tag dictionary. `Arc` so MVCC generations can capture it by clone;
    /// updates intern through `Arc::make_mut` (copy-on-write when a pinned
    /// snapshot still shares it).
    pub(crate) dict: Arc<TagDict>,
    /// Value data file; a snapshot view holds a handle on its pages at the
    /// view's generation.
    pub(crate) data: DataFile<S>,
    /// B+t: tag code → postings (document order).
    pub(crate) bt_tag: BTree<S>,
    /// B+v: value hash → dewey keys.
    pub(crate) bt_val: BTree<S>,
    /// B+i: dewey key → [`IdRecord`].
    pub(crate) bt_id: BTree<S>,
    /// Planner synopsis: per-tag counts plus the path summary (see
    /// [`crate::synopsis`]); copy-on-write like the dictionary.
    pub(crate) synopsis: Arc<Synopsis>,
    /// Bumped once per successfully committed update transaction; the
    /// serve-layer plan cache keys its invalidation on it.
    pub(crate) generation: AtomicU64,
    /// Where the planner stats block is persisted (on-disk databases only).
    pub(crate) stats_path: Option<PathBuf>,
    /// Where the tag dictionary is persisted (on-disk databases only);
    /// updates can intern new tags, so `flush` rewrites it.
    pub(crate) dict_path: Option<PathBuf>,
    /// Write-ahead log (durable on-disk databases only). When present,
    /// every multi-page update commits through it. Behind a lock:
    /// [`XmlDb::flush`] checkpoints it through `&self`.
    pub(crate) wal: Option<Mutex<Wal>>,
    /// What recovery found when this database was opened.
    pub(crate) recovery: Option<RecoveryReport>,
    /// Published MVCC generations (see [`crate::snapshot`]). Shared with
    /// snapshot views so their stats and re-pins reach the live table.
    pub(crate) gens: Arc<GenerationTable<DbGeneration>>,
}

/// Collects node/value records during the build for index construction.
struct IndexSink<S: Storage> {
    nodes: Vec<NodeRecord>,
    /// `(dewey, data-file offset, len, value hash)` per valued node, in
    /// close order.
    values: Vec<(Dewey, u64, u32, u64)>,
    data: DataFile<S>,
    /// The first data-file error, surfaced once the build returns.
    failed: Option<CoreError>,
}

impl<S: Storage> BuildSink for IndexSink<S> {
    fn node(&mut self, rec: NodeRecord) {
        self.nodes.push(rec);
    }

    fn value(&mut self, dewey: &Dewey, text: &str) {
        let h = hash_value(text);
        match self.data.put_hashed(text, h) {
            Ok((off, len)) => self.values.push((dewey.clone(), off, len, h)),
            Err(e) => {
                self.failed.get_or_insert(e);
            }
        }
    }
}

impl XmlDb<MemStorage> {
    /// Parse `xml` and build a fully indexed in-memory database.
    pub fn build_in_memory(xml: &str) -> CoreResult<Self> {
        Self::build_in_memory_with(xml, BuildOptions::default(), nok_pager::DEFAULT_PAGE_SIZE)
    }

    /// In-memory build with explicit *structural* page size and build
    /// options (used by benchmarks that sweep the paper's capacity-formula
    /// parameters). Indexes keep the default page size — tiny pages cannot
    /// hold index entries.
    pub fn build_in_memory_with(
        xml: &str,
        opts: BuildOptions,
        struct_page_size: usize,
    ) -> CoreResult<Self> {
        let mk = || Arc::new(BufferPool::new(MemStorage::new()));
        XmlDb::build_with_pools(
            xml,
            opts,
            Arc::new(BufferPool::new(MemStorage::with_page_size(
                struct_page_size,
            ))),
            mk(),
            mk(),
            mk(),
            mk(),
        )
    }
}

/// File names inside an on-disk database directory.
const F_STRUCT: &str = "struct.pg";
const F_TAG: &str = "tags.idx";
const F_VAL: &str = "values.idx";
const F_ID: &str = "dewey.idx";
pub(crate) const F_DATA: &str = "values.dat";
pub(crate) const F_DICT: &str = "dict.bin";
pub(crate) const F_WAL: &str = "wal.log";
pub(crate) const F_STATS: &str = "stats.blk";
pub(crate) const F_SUPER: &str = "super.blk";

/// Log size past which a commit ends with a checkpoint ([`XmlDb::flush`]):
/// how much replay an unclean exit can leave behind, against how many
/// commits share one round of home-file syncs.
const CHECKPOINT_LOG_BYTES: u64 = 1 << 20;

/// Paged component files in WAL component order (the `comp` byte of a
/// [`WalRecord::PageImage`] or [`WalRecord::PageDelta`] indexes this array).
pub(crate) const COMPONENT_FILES: [&str; 5] = [F_STRUCT, F_TAG, F_VAL, F_ID, F_DATA];

/// Magic prefix of the database superblock.
const SUPER_MAGIC: &[u8; 8] = b"NOKSUPER";
/// Superblock format version.
const SUPER_VERSION: u16 = 1;

/// Write the superblock: `NOKSUPER | u16 version | format byte`, the byte
/// being [`page::FORMAT_BYTE`]. Static after creation — it is never part
/// of a transaction — so it is made durable here, before any page file
/// exists: temp file, fsync, rename, directory fsync. A power cut can leave
/// a directory with a superblock and no pages, never pages that a later
/// open would have to guess the format of.
fn write_superblock(dir: &Path) -> CoreResult<()> {
    use std::io::Write;
    let mut out = Vec::with_capacity(11);
    out.extend_from_slice(SUPER_MAGIC);
    out.extend_from_slice(&SUPER_VERSION.to_be_bytes());
    out.push(page::FORMAT_BYTE);
    let tmp = dir.join(format!("{F_SUPER}.tmp"));
    let write = || -> std::io::Result<()> {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&out)?;
        f.sync_all()?;
        std::fs::rename(&tmp, dir.join(F_SUPER))?;
        std::fs::File::open(dir)?.sync_all()
    };
    write().map_err(nok_pager::PagerError::from)?;
    Ok(())
}

/// Check that a database directory's superblock names the one structure
/// page format this build reads. A missing, damaged or other-format
/// superblock is [`CoreError::UnsupportedFormat`]: the pages are never
/// read on a guess.
fn check_superblock(dir: &Path) -> CoreResult<()> {
    let bytes = match std::fs::read(dir.join(F_SUPER)) {
        Ok(b) => b,
        // No directory at all is an I/O error, not a format verdict.
        Err(e) if e.kind() == std::io::ErrorKind::NotFound && dir.is_dir() => {
            return Err(SuperblockError::Missing.into())
        }
        Err(e) => return Err(nok_pager::PagerError::from(e).into()),
    };
    if bytes.len() != 11
        || &bytes[..8] != SUPER_MAGIC
        || u16::from_be_bytes([bytes[8], bytes[9]]) != SUPER_VERSION
    {
        return Err(SuperblockError::Damaged.into());
    }
    if bytes[10] != page::FORMAT_BYTE {
        return Err(SuperblockError::Format(bytes[10]).into());
    }
    Ok(())
}

impl XmlDb<FileStorage> {
    /// Parse `xml` and build a database persisted under directory `dir`
    /// (created if missing).
    pub fn create_on_disk<P: AsRef<Path>>(dir: P, xml: &str) -> CoreResult<Self> {
        Self::create_on_disk_with(dir, xml, BuildOptions::default())
    }

    /// [`XmlDb::create_on_disk`] with explicit build options.
    pub fn create_on_disk_with<P: AsRef<Path>>(
        dir: P,
        xml: &str,
        opts: BuildOptions,
    ) -> CoreResult<Self> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(nok_pager::PagerError::from)?;
        write_superblock(dir)?;
        let mk = |name: &str| -> CoreResult<Arc<BufferPool<FileStorage>>> {
            Ok(Arc::new(BufferPool::new(FileStorage::create(
                dir.join(name),
            )?)))
        };
        let mut db = XmlDb::build_with_pools(
            xml,
            opts,
            mk(F_STRUCT)?,
            mk(F_TAG)?,
            mk(F_VAL)?,
            mk(F_ID)?,
            mk(F_DATA)?,
        )?;
        db.dict_path = Some(dir.join(F_DICT));
        db.stats_path = Some(dir.join(F_STATS));
        // The first checkpoint writes every page home and seeds the log
        // with its baseline.
        db.wal = Some(Mutex::new(Wal::open_or_create(dir.join(F_WAL))?));
        db.flush()?;
        Ok(db)
    }

    /// Open a database previously created with [`XmlDb::create_on_disk`].
    pub fn open_dir<P: AsRef<Path>>(dir: P) -> CoreResult<Self> {
        Self::open_dir_with_capacity(dir, nok_pager::BufferPool::<FileStorage>::DEFAULT_CAPACITY)
    }

    /// Open a database with an explicit buffer-pool frame budget for the
    /// structural store (index pools keep the default). The serving layer
    /// uses this to cap the shared pool under concurrent load.
    pub fn open_dir_with_capacity<P: AsRef<Path>>(
        dir: P,
        struct_frames: usize,
    ) -> CoreResult<Self> {
        Self::open_dir_with(dir, struct_frames, |s| s)
    }
}

impl<S: Storage> XmlDb<S> {
    /// Open an on-disk database with the component files wrapped by `wrap`
    /// (identity for plain [`FileStorage`]; the fault-injection harness
    /// wraps them in `FailpointStorage`). Runs crash recovery on the
    /// directory **before** any component file is opened, after the
    /// superblock check refused a directory this build cannot read.
    pub fn open_dir_with<P, F>(dir: P, struct_frames: usize, wrap: F) -> CoreResult<XmlDb<S>>
    where
        P: AsRef<Path>,
        F: Fn(FileStorage) -> S,
    {
        let dir: PathBuf = dir.as_ref().to_path_buf();
        check_superblock(&dir)?;
        let report = crate::recovery::recover_dir(&dir)?;
        let mk = |name: &str| -> CoreResult<Arc<BufferPool<S>>> {
            Ok(Arc::new(BufferPool::new(wrap(FileStorage::open(
                dir.join(name),
            )?))))
        };
        let store = StructStore::open(Arc::new(BufferPool::with_capacity(
            wrap(FileStorage::open(dir.join(F_STRUCT))?),
            struct_frames,
        )))?;
        let bt_tag = BTree::open(mk(F_TAG)?)?;
        let bt_val = BTree::open(mk(F_VAL)?)?;
        let bt_id = BTree::open(mk(F_ID)?)?;
        let data = DataFile::open(mk(F_DATA)?)?;
        let dict_bytes = std::fs::read(dir.join(F_DICT)).map_err(nok_pager::PagerError::from)?;
        let dict = TagDict::from_bytes(&dict_bytes)
            .ok_or_else(|| CoreError::Corrupt("bad tag dictionary".into()))?;
        // Planner synopsis: trust the persisted block when it matches the
        // store it sits next to and either recovery was clean or recovery
        // wrote it (every commit logs its block, so a replayed log ends in
        // the synopsis of the recovered document); otherwise recount it in
        // one document-order pass. A block of an older format fails its
        // magic or version check and lands in the same rebuild, which is
        // the read-compat story for old databases; a recovered database
        // never serves a stale synopsis.
        let stats_path = dir.join(F_STATS);
        let loaded = if report.was_dirty() && !report.stats_restored {
            None
        } else {
            std::fs::read(&stats_path)
                .ok()
                .and_then(|b| Synopsis::from_bytes(&b))
                .filter(|(node_count, _)| *node_count == store.node_count())
                .map(|(_, syn)| syn)
        };
        let stats_stale = loaded.is_none();
        let synopsis = match loaded {
            Some(syn) => syn,
            None => Synopsis::of_document(
                DocScan::new(&store).map(|item| item.map(|item| (item.tag, item.level))),
            )?,
        };
        let wal = Wal::open_or_create(dir.join(F_WAL))?;
        let dict = Arc::new(dict);
        let synopsis = Arc::new(synopsis);
        // Publish the recovered state as generation 0: every reader that
        // pins before the first post-open commit sees exactly what recovery
        // established.
        let gens = initial_generations(
            [
                Arc::clone(store.pool().capture_cell()),
                Arc::clone(bt_tag.pool_rc().capture_cell()),
                Arc::clone(bt_val.pool_rc().capture_cell()),
                Arc::clone(bt_id.pool_rc().capture_cell()),
                Arc::clone(data.pool().capture_cell()),
            ],
            store.dir_arc(),
            store.node_count(),
            Arc::clone(&dict),
            Arc::clone(&synopsis),
            [
                (bt_tag.root_page(), bt_tag.len()),
                (bt_val.root_page(), bt_val.len()),
                (bt_id.root_page(), bt_id.len()),
            ],
            data.len_bytes(),
        );
        let db = XmlDb {
            store,
            dict,
            data,
            bt_tag,
            bt_val,
            bt_id,
            synopsis,
            generation: AtomicU64::new(0),
            stats_path: Some(stats_path),
            dict_path: Some(dir.join(F_DICT)),
            wal: Some(Mutex::new(wal)),
            recovery: Some(report),
            gens,
        };
        if stats_stale {
            db.persist_stats()?;
        }
        Ok(db)
    }

    /// Build from XML text given pre-created empty pools (one per
    /// component, the data file's last).
    pub fn build_with_pools(
        xml: &str,
        opts: BuildOptions,
        struct_pool: Arc<BufferPool<S>>,
        tag_pool: Arc<BufferPool<S>>,
        val_pool: Arc<BufferPool<S>>,
        id_pool: Arc<BufferPool<S>>,
        data_pool: Arc<BufferPool<S>>,
    ) -> CoreResult<Self> {
        let mut dict = TagDict::new();
        let mut sink = IndexSink {
            nodes: Vec::new(),
            values: Vec::new(),
            data: DataFile::create(data_pool)?,
            failed: None,
        };
        let store = StructStore::build(
            struct_pool,
            Reader::content_only(xml),
            &mut dict,
            opts,
            &mut sink,
        )?;
        if let Some(e) = sink.failed {
            return Err(e);
        }

        // ---- B+i: dewey → IdRecord, bulk-loaded in document (= key) order.
        let mut value_by_dewey: Vec<(Vec<u8>, (u64, u32))> = sink
            .values
            .iter()
            .map(|(d, off, len, _)| (d.to_key(), (*off, *len)))
            .collect();
        value_by_dewey.sort();
        let id_pairs: Vec<(Vec<u8>, Vec<u8>)> = sink
            .nodes
            .iter()
            .map(|rec| {
                let key = rec.dewey.to_key();
                let value = value_by_dewey
                    .binary_search_by(|(k, _)| k.as_slice().cmp(&key))
                    .ok()
                    .map(|i| value_by_dewey[i].1);
                (
                    key,
                    IdRecord {
                        addr: rec.addr,
                        value,
                    }
                    .to_bytes(),
                )
            })
            .collect();
        let bt_id = BTree::bulk_load(id_pool, id_pairs, 0.9)?;

        // ---- Planner synopsis: tag counts and the path summary fall out
        // of the document-order node stream.
        let nodes = sink.nodes.iter().map(|rec| Ok((rec.tag, rec.level)));
        let synopsis = Synopsis::of_document::<CoreError>(nodes)?;

        // ---- B+t: composite (tag, dewey) key → address. Dewey keys order
        // lexicographically in document order, so sorting groups each tag
        // with its postings already in document order — and makes every key
        // unique, which is what lets updates delete one posting in place.
        let mut tag_pairs: Vec<(Vec<u8>, Vec<u8>)> = sink
            .nodes
            .iter()
            .map(|rec| {
                (
                    tag_posting_key(rec.tag, &rec.dewey),
                    TagPosting::value(rec.addr),
                )
            })
            .collect();
        tag_pairs.sort_by(|a, b| a.0.cmp(&b.0));
        let bt_tag = BTree::bulk_load(tag_pool, tag_pairs, 0.9)?;

        // ---- B+v: value hash → dewey key.
        let mut val_pairs: Vec<(Vec<u8>, Vec<u8>)> = (sink.values.iter())
            .map(|(dewey, _, _, h)| (h.to_be_bytes().to_vec(), dewey.to_key()))
            .collect();
        val_pairs.sort_by(|a, b| a.0.cmp(&b.0));
        let bt_val = BTree::bulk_load(val_pool, val_pairs, 0.9)?;

        let dict = Arc::new(dict);
        let synopsis = Arc::new(synopsis);
        let gens = initial_generations(
            [
                Arc::clone(store.pool().capture_cell()),
                Arc::clone(bt_tag.pool_rc().capture_cell()),
                Arc::clone(bt_val.pool_rc().capture_cell()),
                Arc::clone(bt_id.pool_rc().capture_cell()),
                Arc::clone(sink.data.pool().capture_cell()),
            ],
            store.dir_arc(),
            store.node_count(),
            Arc::clone(&dict),
            Arc::clone(&synopsis),
            [
                (bt_tag.root_page(), bt_tag.len()),
                (bt_val.root_page(), bt_val.len()),
                (bt_id.root_page(), bt_id.len()),
            ],
            sink.data.len_bytes(),
        );
        Ok(XmlDb {
            store,
            dict,
            data: sink.data,
            bt_tag,
            bt_val,
            bt_id,
            synopsis,
            generation: AtomicU64::new(0),
            stats_path: None,
            dict_path: None,
            wal: None,
            recovery: None,
            gens,
        })
    }

    /// The structural store.
    pub fn store(&self) -> &StructStore<S> {
        &self.store
    }

    /// The tag dictionary.
    pub fn dict(&self) -> &TagDict {
        &self.dict
    }

    /// The tag-name index (B+t).
    pub fn bt_tag(&self) -> &BTree<S> {
        &self.bt_tag
    }

    /// The value index (B+v).
    pub fn bt_val(&self) -> &BTree<S> {
        &self.bt_val
    }

    /// The Dewey index (B+i).
    pub fn bt_id(&self) -> &BTree<S> {
        &self.bt_id
    }

    /// The value data file.
    pub fn data_file(&self) -> &DataFile<S> {
        &self.data
    }

    /// Number of element nodes (attribute nodes included).
    pub fn node_count(&self) -> u64 {
        self.store.node_count()
    }

    /// Occurrences of a tag (0 if unseen).
    pub fn tag_count(&self, tag: TagCode) -> u64 {
        self.synopsis.tag_count(tag)
    }

    /// The planner synopsis (per-tag counts + path summary) this
    /// handle plans against. On a snapshot view this is the synopsis
    /// published with the view's pinned generation.
    pub fn synopsis(&self) -> &Synopsis {
        &self.synopsis
    }

    /// Monotonic counter bumped by every successfully committed update
    /// transaction. Plan caches compare it to decide invalidation.
    pub fn commit_generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Persist the synopsis block next to the other components, fsynced
    /// (no-op for in-memory databases).
    pub(crate) fn persist_stats(&self) -> CoreResult<()> {
        match &self.stats_path {
            Some(path) => persist_file(path, &self.synopsis.to_bytes(self.node_count())),
            None => Ok(()),
        }
    }

    /// Checkpoint: make everything committed so far durable in its home
    /// file, then restart the log at a baseline. The order is the
    /// contract — the five paged components written back and synced, the
    /// dictionary and the synopsis persisted, and only *then* the log,
    /// whose records all of that has just made redundant, truncated. Runs
    /// when a commit finds the log past
    /// [`CHECKPOINT_LOG_BYTES`], when the caller asks, and (in
    /// [`crate::recovery`]'s own form) at the end of a recovery that
    /// replayed anything; a crash anywhere inside it leaves a log that
    /// replays to this state.
    pub fn flush(&self) -> CoreResult<()> {
        self.store.pool().flush()?;
        self.bt_tag.pool().flush()?;
        self.bt_val.pool().flush()?;
        self.bt_id.pool().flush()?;
        self.data.pool().flush()?;
        if let Some(path) = &self.dict_path {
            persist_file(path, &self.dict.to_bytes())?;
        }
        self.persist_stats()?;
        if let Some(wal) = &self.wal {
            // Poisoning recovered: a `Wal` is a file handle, which a panic
            // elsewhere cannot leave half-updated.
            let mut wal = wal.lock().unwrap_or_else(|e| e.into_inner());
            wal.checkpoint()?;
        }
        Ok(())
    }

    /// All B+t postings for `tag`, in document order (a range scan over the
    /// composite-key prefix).
    pub fn tag_postings(&self, tag: TagCode) -> CoreResult<Vec<TagPosting>> {
        use std::ops::Bound;
        let lo = tag.to_key();
        let code = u16::from_be_bytes(lo);
        let next = code.checked_add(1).map(u16::to_be_bytes);
        let hi = match &next {
            Some(next) => Bound::Excluded(&next[..]),
            None => Bound::Unbounded,
        };
        let mut out = Vec::new();
        for item in self.bt_tag.range(Bound::Included(&lo[..]), hi)? {
            let (k, v) = item?;
            out.push(TagPosting::decode(&k, &v)?);
        }
        Ok(out)
    }

    /// What recovery found when this database was opened (on-disk opens
    /// only).
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Drop the write-ahead log for this handle: updates still commit
    /// atomically in memory but are no longer crash-durable. Benchmarks use
    /// this to measure the log's overhead.
    pub fn disable_wal(&mut self) {
        self.wal = None;
    }

    /// Route the log's mutating I/O through a fault-injection plan. The
    /// five paged components are wrapped at open time via
    /// [`XmlDb::open_dir_with`].
    pub fn set_failpoint(&mut self, plan: Arc<FailPlan>) {
        if let Some(wal) = &mut self.wal {
            let wal = wal.get_mut().unwrap_or_else(|e| e.into_inner());
            wal.set_failpoint(plan);
        }
    }

    // ------------------------------------------------------------------
    // Multi-page transactions
    // ------------------------------------------------------------------

    /// Start a multi-page transaction: one no-steal handle per paged
    /// component plus snapshots of the side state the pager cannot roll
    /// back (dictionary, tag counts).
    pub(crate) fn txn_begin(&mut self) -> CoreResult<TxnCtx<S>> {
        // Arm copy-on-write capture from the first transaction on (the
        // initial bulk build must not capture). Idempotent after that.
        let epoch = self.generation.load(Ordering::Acquire);
        for cell in self.capture_cells() {
            cell.activate(epoch);
        }
        Ok(TxnCtx {
            handles: [
                self.store.pool_rc().begin_txn(),
                self.bt_tag.pool_rc().begin_txn(),
                self.bt_val.pool_rc().begin_txn(),
                self.bt_id.pool_rc().begin_txn(),
                self.data.pool().begin_txn(),
            ],
            dict0: Arc::clone(&self.dict),
            synopsis0: Arc::clone(&self.synopsis),
        })
    }

    /// Commit: write the whole transaction to the log with one fsync (the
    /// commit point, and the only fsync here); the pages stay in their
    /// pools, owing their home files. Past [`CHECKPOINT_LOG_BYTES`] of log,
    /// checkpoint. A failure before the commit point rolls back; after it,
    /// the state is recoverable from the log and the caller is told to
    /// reopen.
    pub(crate) fn txn_commit(&mut self, mut ctx: TxnCtx<S>) -> CoreResult<()> {
        let log_len = match self.txn_commit_log(&ctx) {
            Ok(len) => len,
            Err(e) => return Err(self.fail_with_rollback(ctx, e)),
        };
        // ---- Commit point passed: the transaction is durable in the log.
        // Publish generation N+1 right here so the visibility point
        // coincides with the commit point: snapshots pinned from now on see
        // this transaction; snapshots pinned before it keep resolving pages
        // through the frozen before-image overlay.
        self.publish_generation();
        for h in &mut ctx.handles {
            h.commit();
        }
        if log_len <= CHECKPOINT_LOG_BYTES {
            return Ok(());
        }
        self.flush().map_err(|e| {
            CoreError::Corrupt(format!(
                "commit interrupted after its log record became durable ({e}); \
                 reopen the database to recover"
            ))
        })
    }

    /// Phase 1 of commit: the transaction's log record, with everything
    /// replay needs — nothing outside the log is synced for it. A page the
    /// log holds whole since its last checkpoint is logged as a delta
    /// against its before-image; any other as its full image, the base its
    /// later deltas patch and the guard against a torn home page. Returns
    /// the log's length (0 without a log).
    fn txn_commit_log(&self, ctx: &TxnCtx<S>) -> CoreResult<u64> {
        let Some(wal) = &self.wal else {
            return Ok(0);
        };
        let mut frames = Vec::new();
        // Interning takes the dictionary copy-on-write, so a transaction
        // that interned nothing still holds the `Arc` it began with.
        if !Arc::ptr_eq(&self.dict, &ctx.dict0) {
            WalRecord::DictBlob(self.dict.to_bytes()).encode_into(&mut frames);
        }
        WalRecord::StatsBlob(self.synopsis.to_bytes(self.node_count())).encode_into(&mut frames);
        let mut wal = wal.lock().unwrap_or_else(|e| e.into_inner());
        let mut imaged = Vec::new();
        for (comp, h) in ctx.handles.iter().enumerate() {
            let comp = comp as u8;
            let count = h.pool().page_count();
            WalRecord::PageCount { comp, count }.encode_into(&mut frames);
            let before = h.pool().capture_cell().current();
            for page in h.written_pages() {
                let (id, after) = (page.id(), page.read());
                match before.get(id) {
                    Some(before) if wal.has_image(comp, id) => {
                        encode_page_delta(&mut frames, comp, id, &before, &after)
                    }
                    _ => {
                        encode_page_image(&mut frames, comp, id, &after);
                        imaged.push((comp, id));
                    }
                }
            }
        }
        Ok(wal.append_frames(frames, &imaged)?)
    }

    /// Roll back after a pre-commit-point failure, folding a rollback
    /// failure into the returned error.
    pub(crate) fn fail_with_rollback(&mut self, mut ctx: TxnCtx<S>, e: CoreError) -> CoreError {
        match self.txn_rollback(&mut ctx) {
            Ok(()) => e,
            Err(r) => CoreError::Corrupt(format!(
                "transaction failed ({e}) and rollback also failed ({r}); \
                 reopen the database to recover"
            )),
        }
    }

    /// Undo an uncommitted transaction: restore the pages it wrote (the
    /// data file's among them), restore the dictionary and tag counts, and
    /// reload the in-memory structures derived from the rolled-back pages.
    pub(crate) fn txn_rollback(&mut self, ctx: &mut TxnCtx<S>) -> CoreResult<()> {
        self.data.roll_back(|| {
            for h in &mut ctx.handles {
                h.abort()?;
            }
            Ok(())
        })?;
        self.dict = Arc::clone(&ctx.dict0);
        self.synopsis = Arc::clone(&ctx.synopsis0);
        self.store.reload()?;
        self.bt_tag.reload_meta()?;
        self.bt_val.reload_meta()?;
        self.bt_id.reload_meta()?;
        Ok(())
    }
}

/// In-flight transaction state held between [`XmlDb::txn_begin`] and
/// commit/rollback. Handle order matches [`COMPONENT_FILES`].
pub(crate) struct TxnCtx<S: Storage> {
    handles: [TxnHandle<S>; 5],
    dict0: Arc<TagDict>,
    synopsis0: Arc<Synopsis>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::values::hash_key;

    const BIB: &str = r#"<bib>
        <book year="1994"><title>TCP/IP</title><price>65.95</price></book>
        <book year="2000"><title>Data on the Web</title><price>39.95</price></book>
    </bib>"#;

    #[test]
    fn xmldb_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<XmlDb<MemStorage>>();
        assert_send_sync::<XmlDb<FileStorage>>();
    }

    #[test]
    fn build_populates_all_components() {
        let db = XmlDb::build_in_memory(BIB).unwrap();
        // bib, 2×book, 2×@year, 2×title, 2×price = 9 nodes.
        assert_eq!(db.node_count(), 9);
        assert_eq!(db.bt_id.len(), 9);
        assert_eq!(db.bt_tag.len(), 9);
        // Values: 2 years, 2 titles, 2 prices.
        assert_eq!(db.bt_val.len(), 6);
        let book = db.dict.lookup("book").unwrap();
        assert_eq!(db.tag_count(book), 2);
        assert_eq!(db.tag_count(db.dict.lookup("@year").unwrap()), 2);
    }

    #[test]
    fn id_index_resolves_values() {
        let db = XmlDb::build_in_memory(BIB).unwrap();
        // The first book's @year is dewey 0.0.0.
        let key = Dewey::from_components(vec![0, 0, 0]).to_key();
        let rec = IdRecord::from_bytes(&db.bt_id.get_first(&key).unwrap().unwrap()).unwrap();
        let (off, _) = rec.value.expect("attribute has a value");
        assert_eq!(db.data.get_record(off).unwrap(), "1994");
    }

    #[test]
    fn value_index_finds_deweys() {
        let db = XmlDb::build_in_memory(BIB).unwrap();
        let hits = db.bt_val.get_all(&hash_key("65.95")).unwrap();
        assert_eq!(hits.len(), 1);
        let dewey = Dewey::from_key(&hits[0]).unwrap();
        assert_eq!(dewey.to_string(), "0.0.2"); // book0's price
    }

    #[test]
    fn tag_postings_in_document_order() {
        let db = XmlDb::build_in_memory(BIB).unwrap();
        let book = db.dict.lookup("book").unwrap();
        let postings = db.tag_postings(book).unwrap();
        let deweys: Vec<String> = postings.iter().map(|p| p.dewey.to_string()).collect();
        assert_eq!(deweys, vec!["0.0", "0.1"]);
    }

    #[test]
    fn on_disk_round_trip() {
        let dir = std::env::temp_dir().join(format!("nok-xmldb-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        {
            let db = XmlDb::create_on_disk(&dir, BIB).unwrap();
            assert_eq!(db.node_count(), 9);
        }
        {
            let db = XmlDb::open_dir(&dir).unwrap();
            assert_eq!(db.node_count(), 9);
            assert_eq!(db.bt_id.len(), 9);
            assert_eq!(db.tag_count(db.dict.lookup("book").unwrap()), 2);
            // Value still resolvable after reopen.
            let hits = db.bt_val.get_all(&hash_key("TCP/IP")).unwrap();
            assert_eq!(hits.len(), 1);
            check_superblock(&dir).unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn succinct_on_disk_round_trip() {
        let dir = std::env::temp_dir().join(format!("nok-succinct-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        {
            let db = XmlDb::create_on_disk_with(&dir, BIB, BuildOptions::default()).unwrap();
            assert_eq!(db.node_count(), 9);
        }
        // The superblock names the page format, and nothing is left of the
        // temp file it was written through.
        let sb = std::fs::read(dir.join(F_SUPER)).unwrap();
        assert_eq!(sb, b"NOKSUPER\x00\x01\x05");
        assert!(!dir.join(format!("{F_SUPER}.tmp")).exists());
        {
            let db = XmlDb::open_dir(&dir).unwrap();
            assert_eq!(db.node_count(), 9);
            let hits = db.query(r#"//book[price="65.95"]"#).unwrap();
            assert_eq!(hits.len(), 1);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    fn open_err(dir: &Path) -> CoreError {
        match XmlDb::open_dir(dir) {
            Ok(_) => panic!("{} must not open", dir.display()),
            Err(e) => e,
        }
    }

    /// A directory with pages but no superblock is refused with the typed
    /// error — its pages are not read on a guess.
    #[test]
    fn missing_superblock_is_refused() {
        let dir = std::env::temp_dir().join(format!("nok-nosuper-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        {
            XmlDb::create_on_disk(&dir, BIB).unwrap();
        }
        std::fs::remove_file(dir.join(F_SUPER)).unwrap();
        assert!(dir.join(F_STRUCT).exists());
        let e = open_err(&dir);
        assert!(
            matches!(e, CoreError::UnsupportedFormat(SuperblockError::Missing)),
            "{e}"
        );
        assert!(e.to_string().contains("rebuild"), "{e}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Format 0 (the retired byte-per-entry pages), format 1 (fixed-width
    /// index entries), format 2 (LEB128 tag codes), format 3 (B+tree leaves
    /// of whole keys), format 4 (`values.dat` outside the pages), an
    /// unknown format byte and a damaged superblock are each refused by
    /// name.
    #[test]
    fn other_format_or_damaged_superblock_is_refused() {
        let dir = std::env::temp_dir().join(format!("nok-badsuper-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        {
            XmlDb::create_on_disk(&dir, BIB).unwrap();
        }
        let good = std::fs::read(dir.join(F_SUPER)).unwrap();
        for format in [0u8, 1, 2, 3, 4, 9] {
            let mut sb = good.clone();
            sb[10] = format;
            std::fs::write(dir.join(F_SUPER), sb).unwrap();
            let e = open_err(&dir);
            assert!(
                matches!(e, CoreError::UnsupportedFormat(SuperblockError::Format(f)) if f == format),
                "{e}"
            );
            assert!(e.to_string().contains("rebuild"), "{e}");
        }
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        for sb in [&good[..10], &bad_magic[..], &b""[..]] {
            std::fs::write(dir.join(F_SUPER), sb).unwrap();
            let e = open_err(&dir);
            assert!(
                matches!(e, CoreError::UnsupportedFormat(SuperblockError::Damaged)),
                "{e}"
            );
        }
        std::fs::write(dir.join(F_SUPER), good).unwrap();
        assert_eq!(XmlDb::open_dir(&dir).unwrap().node_count(), 9);
        std::fs::remove_dir_all(&dir).ok();
    }
}
