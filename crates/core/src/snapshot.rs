//! MVCC snapshot generations over the assembled database.
//!
//! Every committed transaction publishes an immutable [`DbGeneration`]: the
//! epoch number plus everything a reader needs to see the database exactly
//! as of that commit — the directory `Arc`, the tag dictionary, the planner
//! synopsis, the B+ tree roots, the data file's length, and one
//! [`SnapView`] per paged component resolving page reads through the
//! copy-on-write overlay built by the writer (see `nok_pager::mvcc`).
//!
//! [`XmlDb::snapshot`] pins the current generation and assembles a
//! *view-mode* [`XmlDb`] from it: a full database value whose stores and
//! trees share the live buffer pools but resolve every page through the
//! pinned overlay. The view implements the whole read API (queries, plans,
//! serialization) unchanged; updates are unreachable because [`Snapshot`]
//! only ever hands out `&XmlDb`.
//!
//! Reclamation is by reference count: the pinned generation's `Arc` keeps
//! its chain nodes (and through them the frozen before-images) alive;
//! dropping the last snapshot of a superseded generation frees them.

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use nok_btree::BTree;
use nok_pager::mvcc::{CaptureCell, GenTicket, GenerationStats, GenerationTable, PageChain};
use nok_pager::{BufferPool, SnapView, SnapshotGuard, Storage};

use crate::build::XmlDb;
use crate::error::CoreResult;
use crate::sigma::TagDict;
use crate::store::{Directory, StructStore};
use crate::synopsis::Synopsis;
use crate::values::DataFile;

/// One published generation: the committed state of epoch `epoch`, held
/// entirely by `Arc`s so pinning it is O(1) and never copies data.
pub struct DbGeneration {
    /// Commit epoch this generation represents (0 = the initial build).
    pub(crate) epoch: u64,
    /// Per-pool overlay views in component order (struct, tag, val, id,
    /// data — matching `COMPONENT_FILES`).
    pub(crate) views: [SnapView; 5],
    /// Structural page directory as of this epoch.
    pub(crate) dir: Arc<Directory>,
    /// Element/attribute node count as of this epoch.
    pub(crate) node_count: u64,
    /// Tag dictionary as of this epoch.
    pub(crate) dict: Arc<TagDict>,
    /// Planner synopsis (tag/value selectivity + path summary) as of this
    /// epoch: readers pinned here plan against exactly this synopsis.
    pub(crate) synopsis: Arc<Synopsis>,
    /// `(root page, entry count)` for B+t, B+v, B+i.
    pub(crate) roots: [(u32, u64); 3],
    /// Committed data-file length (records at or past it are invisible).
    pub(crate) data_len: u64,
    /// Keeps the live/retired generation gauges honest.
    pub(crate) _ticket: GenTicket,
}

impl DbGeneration {
    /// Commit epoch this generation represents.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Node count as of this epoch.
    pub fn node_count(&self) -> u64 {
        self.node_count
    }

    /// `(root page, entry count)` of B+t, B+v and B+i as of this epoch.
    pub fn btree_roots(&self) -> [(u32, u64); 3] {
        self.roots
    }

    /// Committed data-file length as of this epoch.
    pub fn data_len(&self) -> u64 {
        self.data_len
    }

    /// The planner synopsis published with this generation.
    pub fn synopsis(&self) -> &Synopsis {
        &self.synopsis
    }

    /// Number of structural pages in this generation's directory.
    pub fn page_count(&self) -> u64 {
        self.dir.order.len() as u64
    }
}

impl std::fmt::Debug for DbGeneration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DbGeneration")
            .field("epoch", &self.epoch)
            .field("node_count", &self.node_count)
            .finish()
    }
}

/// Build the table holding generation 0 (the state right after a build or
/// open). Called by the `XmlDb` constructors once every component exists.
#[allow(clippy::too_many_arguments)]
pub(crate) fn initial_generations(
    cells: [Arc<CaptureCell>; 5],
    dir: Arc<Directory>,
    node_count: u64,
    dict: Arc<TagDict>,
    synopsis: Arc<Synopsis>,
    roots: [(u32, u64); 3],
    data_len: u64,
) -> Arc<GenerationTable<DbGeneration>> {
    let stats = Arc::new(GenerationStats::default());
    let views = cells.map(|cell| SnapView {
        node: PageChain::new(0),
        cell,
    });
    let gen0 = DbGeneration {
        epoch: 0,
        views,
        dir,
        node_count,
        dict,
        synopsis,
        roots,
        data_len,
        _ticket: GenTicket::new(&stats),
    };
    Arc::new(GenerationTable::new(stats, Arc::new(gen0)))
}

/// A pinned, immutable view of the database at one commit epoch.
///
/// Derefs to a read-only [`XmlDb`]: the full query API works unchanged
/// (the underlying stores resolve pages through the generation's overlay),
/// while the mutating API is unreachable — it needs `&mut XmlDb`, and a
/// snapshot only ever lends `&XmlDb`.
pub struct Snapshot<S: Storage> {
    guard: SnapshotGuard<DbGeneration>,
    db: XmlDb<S>,
}

impl<S: Storage> Snapshot<S> {
    /// The commit epoch this snapshot is pinned at.
    pub fn epoch(&self) -> u64 {
        self.guard.epoch
    }

    /// The pinned generation's metadata.
    pub fn generation(&self) -> &DbGeneration {
        &self.guard
    }

    /// The read-only view database.
    pub fn db(&self) -> &XmlDb<S> {
        &self.db
    }
}

impl<S: Storage> Deref for Snapshot<S> {
    type Target = XmlDb<S>;
    fn deref(&self) -> &XmlDb<S> {
        &self.db
    }
}

impl<S: Storage> std::fmt::Debug for Snapshot<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("epoch", &self.guard.epoch)
            .finish()
    }
}

/// A detached handle that can pin snapshots without borrowing the
/// [`XmlDb`] at all.
///
/// The live database hands one out via [`XmlDb::snapshot_source`]; after
/// that, readers holding the source can keep pinning fresh snapshots while
/// a writer owns the `XmlDb` exclusively (`&mut`) and commits updates —
/// the single-writer / many-reader split the generation table exists
/// for. Everything a snapshot needs beyond the generation itself (buffer
/// pools, a handle on the data file's pages) is captured here by `Arc`.
pub struct SnapshotSource<S: Storage> {
    gens: Arc<GenerationTable<DbGeneration>>,
    pools: [Arc<BufferPool<S>>; 4],
    data: DataFile<S>,
}

impl<S: Storage> Clone for SnapshotSource<S> {
    fn clone(&self) -> Self {
        SnapshotSource {
            gens: Arc::clone(&self.gens),
            pools: self.pools.clone(),
            data: self.data.at(None, 0),
        }
    }
}

impl<S: Storage> SnapshotSource<S> {
    /// Pin the newest published generation and assemble a read-only view
    /// database over it, as [`XmlDb::snapshot`] does.
    pub fn snapshot(&self) -> CoreResult<Snapshot<S>> {
        Ok(assemble_snapshot(&self.gens, &self.pools, &self.data))
    }

    /// Epoch of the newest published generation: one atomic load, no pin.
    pub fn current_epoch(&self) -> u64 {
        self.gens.epoch()
    }

    /// Generation reclamation stats (pinned readers, live/retired counts).
    pub fn generation_stats(&self) -> &Arc<GenerationStats> {
        self.gens.stats()
    }
}

impl<S: Storage> std::fmt::Debug for SnapshotSource<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotSource")
            .field("epoch", &self.current_epoch())
            .finish()
    }
}

/// Pin the newest generation from `gens` and build the view database from
/// the shared pools and `data`'s pages. Common body of [`XmlDb::snapshot`]
/// and [`SnapshotSource::snapshot`].
fn assemble_snapshot<S: Storage>(
    gens: &Arc<GenerationTable<DbGeneration>>,
    pools: &[Arc<BufferPool<S>>; 4],
    data: &DataFile<S>,
) -> Snapshot<S> {
    let guard = gens.pin();
    let g: &DbGeneration = &guard;
    let store = StructStore::snapshot_view(
        Arc::clone(&pools[0]),
        Arc::clone(&g.dir),
        g.node_count,
        g.views[0].clone(),
    );
    let bt_tag = BTree::snapshot_view(
        Arc::clone(&pools[1]),
        g.roots[0].0,
        g.roots[0].1,
        g.views[1].clone(),
    );
    let bt_val = BTree::snapshot_view(
        Arc::clone(&pools[2]),
        g.roots[1].0,
        g.roots[1].1,
        g.views[2].clone(),
    );
    let bt_id = BTree::snapshot_view(
        Arc::clone(&pools[3]),
        g.roots[2].0,
        g.roots[2].1,
        g.views[3].clone(),
    );
    let db = XmlDb {
        store,
        dict: Arc::clone(&g.dict),
        data: data.at(Some(g.views[4].clone()), g.data_len),
        bt_tag,
        bt_val,
        bt_id,
        synopsis: Arc::clone(&g.synopsis),
        generation: AtomicU64::new(g.epoch),
        stats_path: None,
        dict_path: None,
        wal: None,
        recovery: None,
        gens: Arc::clone(gens),
    };
    Snapshot { guard, db }
}

impl<S: Storage> XmlDb<S> {
    /// The per-pool capture cells in component order.
    pub(crate) fn capture_cells(&self) -> [Arc<CaptureCell>; 5] {
        [
            Arc::clone(self.store.pool().capture_cell()),
            Arc::clone(self.bt_tag.pool_rc().capture_cell()),
            Arc::clone(self.bt_val.pool_rc().capture_cell()),
            Arc::clone(self.bt_id.pool_rc().capture_cell()),
            Arc::clone(self.data.pool().capture_cell()),
        ]
    }

    /// Pin the current generation and assemble a read-only view database
    /// over it: the generation cell's read lock for one `Arc` clone, then a
    /// handful of `Arc` clones. Nothing is copied.
    pub fn snapshot(&self) -> CoreResult<Snapshot<S>> {
        Ok(assemble_snapshot(
            &self.gens,
            &self.component_pools(),
            &self.data,
        ))
    }

    /// The four index and structure pools in component order (the data
    /// file's goes with its handle).
    fn component_pools(&self) -> [Arc<BufferPool<S>>; 4] {
        [
            self.store.pool_rc(),
            self.bt_tag.pool_rc(),
            self.bt_val.pool_rc(),
            self.bt_id.pool_rc(),
        ]
    }

    /// A detached [`SnapshotSource`] that pins snapshots without borrowing
    /// this database — readers keep it while a writer holds `&mut self`.
    pub fn snapshot_source(&self) -> SnapshotSource<S> {
        SnapshotSource {
            gens: Arc::clone(&self.gens),
            pools: self.component_pools(),
            data: self.data.at(None, 0),
        }
    }

    /// Generation reclamation stats (pinned readers, live/retired counts).
    pub fn generation_stats(&self) -> &Arc<GenerationStats> {
        self.gens.stats()
    }

    /// Visibility point of a commit: freeze each pool's capture map into
    /// the retiring chain node, publish generation N+1, then hand each
    /// capture cell a fresh map stamped with the new epoch.
    ///
    /// Called by `txn_commit` immediately after the WAL fsync succeeded
    /// (the commit point), so durability and visibility coincide. The whole
    /// step is in-memory and infallible: a crash after the fsync but before
    /// (or during) this call loses nothing — recovery replays the log and
    /// the reopened database publishes the recovered state as generation 0.
    pub(crate) fn publish_generation(&self) {
        let cur = self.gens.pin();
        let epoch = cur.epoch + 1;
        let cells = self.capture_cells();
        let mut views = Vec::with_capacity(5);
        for (prev, cell) in cur.views.iter().zip(cells.iter()) {
            views.push(SnapView {
                node: prev.node.freeze(cell.current()),
                cell: Arc::clone(cell),
            });
        }
        let Ok(views) = <[SnapView; 5]>::try_from(views) else {
            return;
        };
        let data_len = self.data.len_bytes();
        let gen = DbGeneration {
            epoch,
            views,
            dir: self.store.dir_arc(),
            node_count: self.store.node_count(),
            dict: Arc::clone(&self.dict),
            synopsis: Arc::clone(&self.synopsis),
            roots: [
                (self.bt_tag.root_page(), self.bt_tag.len()),
                (self.bt_val.root_page(), self.bt_val.len()),
                (self.bt_id.root_page(), self.bt_id.len()),
            ],
            data_len,
            _ticket: GenTicket::new(self.gens.stats()),
        };
        drop(cur);
        self.gens.publish(epoch, Arc::new(gen));
        for cell in &cells {
            cell.reset(epoch);
        }
        // Keep the scalar counter in lock-step with the published epoch —
        // plan caches key on it.
        self.generation.store(epoch, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use crate::build::XmlDb;

    const BIB: &str = r#"<bib>
        <book year="1994"><title>TCP/IP</title><price>65.95</price></book>
        <book year="2000"><title>Data on the Web</title><price>39.95</price></book>
    </bib>"#;

    #[test]
    fn snapshot_answers_queries_like_the_live_db() {
        let db = XmlDb::build_in_memory(BIB).unwrap();
        let snap = db.snapshot().unwrap();
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.node_count(), db.node_count());
        let live = db.query("//book/title").unwrap();
        let snapped = snap.query("//book/title").unwrap();
        assert_eq!(live.len(), snapped.len());
        assert_eq!(live.len(), 2);
    }

    #[test]
    fn snapshot_is_isolated_from_later_commits() {
        let mut db = XmlDb::build_in_memory(BIB).unwrap();
        let before = db.snapshot().unwrap();
        let root_book = db.query("//book").unwrap()[0].dewey.clone();
        db.insert_last_child(&root_book, "<note>read me</note>")
            .unwrap();
        assert_eq!(db.commit_generation(), 1);
        let after = db.snapshot().unwrap();
        assert_eq!(after.epoch(), 1);
        assert_eq!(before.epoch(), 0);
        // The pinned snapshot still sees the pre-commit document…
        assert_eq!(before.query("//note").unwrap().len(), 0);
        assert_eq!(before.node_count(), 9);
        // …while the new snapshot and the live db see the insert.
        assert_eq!(after.query("//note").unwrap().len(), 1);
        assert_eq!(db.query("//note").unwrap().len(), 1);
    }

    #[test]
    fn snapshot_sees_deleted_values_at_its_epoch() {
        let mut db = XmlDb::build_in_memory(BIB).unwrap();
        let before = db.snapshot().unwrap();
        let book0 = db.query("//book").unwrap()[0].dewey.clone();
        db.delete_subtree(&book0).unwrap();
        // The live db no longer finds the deleted title, but the pinned
        // snapshot resolves both the structure and the (now tombstoned)
        // value text.
        assert_eq!(db.query(r#"//book[title="TCP/IP"]"#).unwrap().len(), 0);
        let hits = before.query(r#"//book[title="TCP/IP"]"#).unwrap();
        assert_eq!(hits.len(), 1);
        let title = before.query("//book/title").unwrap();
        assert_eq!(title.len(), 2);
        assert_eq!(
            before.value_of(&title[0]).unwrap().as_deref(),
            Some("TCP/IP")
        );
    }

    #[test]
    fn generation_stats_reclaim_when_last_pin_drops() {
        let mut db = XmlDb::build_in_memory(BIB).unwrap();
        let pinned = db.snapshot().unwrap();
        assert_eq!(db.generation_stats().pinned_readers(), 1);
        assert_eq!(db.generation_stats().live_generations(), 1);
        let book = db.query("//book").unwrap()[0].dewey.clone();
        db.insert_last_child(&book, "<x/>").unwrap();
        assert_eq!(db.generation_stats().live_generations(), 2);
        drop(pinned);
        assert_eq!(db.generation_stats().pinned_readers(), 0);
        assert_eq!(db.generation_stats().live_generations(), 1);
        assert_eq!(db.generation_stats().retired_generations(), 1);
    }

    #[test]
    fn snapshot_source_pins_without_borrowing_the_db() {
        let mut db = XmlDb::build_in_memory(BIB).unwrap();
        let src = db.snapshot_source();
        let before = src.snapshot().unwrap();
        // The source holds no borrow of `db`, so the writer mutates freely
        // while `src` (and its pinned snapshots) stay usable.
        let book = db.query("//book").unwrap()[0].dewey.clone();
        db.insert_last_child(&book, "<x/>").unwrap();
        assert_eq!(src.current_epoch(), 1);
        let after = src.snapshot().unwrap();
        assert_eq!(before.epoch(), 0);
        assert_eq!(after.epoch(), 1);
        assert_eq!(before.query("//x").unwrap().len(), 0);
        assert_eq!(after.query("//x").unwrap().len(), 1);
    }

    #[test]
    fn snapshot_of_snapshot_pins_latest_generation() {
        let db = XmlDb::build_in_memory(BIB).unwrap();
        let snap = db.snapshot().unwrap();
        // The view shares the live generation table, so snapshotting it
        // again pins the newest published state (not the view's own epoch).
        let again = snap.snapshot().unwrap();
        assert_eq!(again.epoch(), 0);
        assert_eq!(again.query("//book").unwrap().len(), 2);
    }

    #[test]
    fn current_epoch_pins_nothing() {
        let mut db = XmlDb::build_in_memory(BIB).unwrap();
        let src = db.snapshot_source();
        let book = db.query("//book").unwrap()[0].dewey.clone();
        db.insert_last_child(&book, "<x/>").unwrap();
        let snap = src.snapshot().unwrap();
        let pinned = db.generation_stats().pinned_readers();
        let count = Arc::strong_count(snap.guard.value());
        assert_eq!(src.current_epoch(), 1);
        assert_eq!(db.generation_stats().pinned_readers(), pinned);
        assert_eq!(Arc::strong_count(snap.guard.value()), count);
    }

    #[test]
    fn snapshot_page_reads_share_images_across_a_commit() {
        let mut db = XmlDb::build_in_memory(BIB).unwrap();
        let before = db.snapshot().unwrap();
        let page = before.store().root().unwrap().page;
        let image = before.store().page_image(page).unwrap();
        assert!(Arc::ptr_eq(
            &image,
            &before.store().page_image(page).unwrap()
        ));
        // The commit rewrites the page: the old snapshot keeps reading the
        // very image it read before, now the frozen before-image.
        let book = db.query("//book").unwrap()[0].dewey.clone();
        db.insert_last_child(&book, "<x/>").unwrap();
        let after = db.snapshot().unwrap();
        assert!(Arc::ptr_eq(
            &image,
            &before.store().page_image(page).unwrap()
        ));
        assert!(!Arc::ptr_eq(
            &image,
            &after.store().page_image(page).unwrap()
        ));
    }
}
