//! Exact page loads of the cursor primitives. Each primitive must fetch
//! exactly the structure pages whose directory entries pass the paper's
//! page test, computed here from the directory alone: a close search at
//! level `l` loads a page iff `lo < l`, a sibling search iff
//! `lo < l || st == l-1`, both up to the page that decides the answer. The
//! start page takes the close test when the node is its first entry and is
//! read otherwise. `first_child` reads the page holding the next entry,
//! `next_entry` none, `descendants` every page up to the close.
//!
//! Corpora: a deep/wide document (300 siblings, each a 100-deep chain) at
//! 256-byte pages, and dblp at 4 KiB pages.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use nok_core::cursor::{descendants, first_child, following_sibling, next_entry, subtree_close};
use nok_core::page::Entry;
use nok_core::store::DirEntry;
use nok_core::{BuildOptions, CoreResult, Dewey, NodeAddr, StructStore, TagDict, XmlDb};
use nok_datagen::{generate, DatasetKind};
use nok_pager::{BufferPool, MemStorage, PageId, PagerResult, Storage};
use nok_xml::Reader;

/// In-memory storage that logs the id of every page it reads.
struct Logged {
    inner: MemStorage,
    reads: Arc<Mutex<Vec<PageId>>>,
}

impl Logged {
    /// The storage and its read log.
    fn new(page_size: usize) -> (Self, Arc<Mutex<Vec<PageId>>>) {
        let reads = Arc::new(Mutex::new(Vec::new()));
        let inner = MemStorage::with_page_size(page_size);
        let log = Arc::clone(&reads);
        (Logged { inner, reads }, log)
    }
}

impl Storage for Logged {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }
    fn page_count(&self) -> u32 {
        self.inner.page_count()
    }
    fn read_page(&mut self, id: PageId, buf: &mut [u8]) -> PagerResult<()> {
        self.reads.lock().unwrap().push(id);
        self.inner.read_page(id, buf)
    }
    fn write_page(&mut self, id: PageId, buf: &[u8]) -> PagerResult<()> {
        self.inner.write_page(id, buf)
    }
    fn allocate_page(&mut self) -> PagerResult<PageId> {
        self.inner.allocate_page()
    }
    fn sync(&mut self) -> PagerResult<()> {
        self.inner.sync()
    }
    fn truncate_pages(&mut self, count: u32) -> PagerResult<()> {
        self.inner.truncate_pages(count)
    }
}

type Store = StructStore<Logged>;

/// Empty the pool in front of the structure pages, and the read log.
fn cold(store: &Store, log: &Mutex<Vec<PageId>>) {
    store.pool().clear_cache().unwrap();
    log.lock().unwrap().clear();
}

fn read_set(log: &Mutex<Vec<PageId>>) -> BTreeSet<PageId> {
    log.lock().unwrap().iter().copied().collect()
}

/// The structure pages `f` reads with every cache cold.
fn loads<T>(store: &Store, log: &Mutex<Vec<PageId>>, f: impl FnOnce() -> T) -> BTreeSet<PageId> {
    cold(store, log);
    f();
    read_set(log)
}

fn deep_wide_xml() -> String {
    let chain = format!("<s>{}{}</s>", "<d>".repeat(100), "</d>".repeat(100));
    format!("<r>{}</r>", chain.repeat(300))
}

/// One entry of the chain flattened to document order.
struct Flat {
    addr: NodeAddr,
    rank: u32,
    open: bool,
    level: u16,
}

fn check_primitives(name: &str, xml: &str, page_size: usize) {
    let (storage, log) = Logged::new(page_size);
    let pool = Arc::new(BufferPool::new(storage));
    let mut dict = TagDict::new();
    let store = StructStore::build(
        pool,
        Reader::content_only(xml),
        &mut dict,
        BuildOptions::default(),
        &mut (),
    )
    .unwrap();
    assert!(
        store.page_count() > 8,
        "{name}: only {} pages",
        store.page_count()
    );
    let dir: Vec<DirEntry> = (0..store.chain_len())
        .map(|r| store.dir_at(r).unwrap())
        .collect();
    let mut flat = Vec::new();
    for (rank, de) in dir.iter().enumerate() {
        store
            .with_page(de.id, |page| {
                for (i, (e, level)) in page.entries().zip(page.levels()).enumerate() {
                    flat.push(Flat {
                        addr: NodeAddr {
                            page: de.id,
                            entry: i as u32,
                        },
                        rank: rank as u32,
                        open: matches!(e, Entry::Open(_)),
                        level,
                    });
                }
            })
            .unwrap();
    }
    // Pages of ranks `from..=to` that are non-empty and pass `test`.
    let passing = |from: u32, to: u32, test: &dyn Fn(&DirEntry) -> bool| -> BTreeSet<PageId> {
        (from..=to)
            .map(|r| &dir[r as usize])
            .filter(|de| de.entries > 0 && test(de))
            .map(|de| de.id)
            .collect()
    };

    let opens: Vec<usize> = (0..flat.len()).filter(|&i| flat[i].open).collect();
    let stride = (opens.len() / 1500).max(1);
    let mut checked = 0;
    for (n, &i) in opens.iter().enumerate() {
        let f = &flat[i];
        // Every page's first node, and a stride sample of the rest.
        if f.addr.entry != 0 && n % stride != 0 {
            continue;
        }
        checked += 1;
        let l = f.level;
        let at = format!("{name}: node at {} (level {l})", f.addr);
        let close = (i + 1..flat.len()).find(|&j| flat[j].level < l).unwrap();
        let rc = flat[close].rank;
        let start = &dir[f.rank as usize];
        let mut start_pages = BTreeSet::new();
        if f.addr.entry > 0 || start.lo < l {
            start_pages.insert(start.id);
        }

        let mut want = start_pages.clone();
        want.extend(passing(f.rank + 1, rc, &|de| de.lo < l));
        let got = loads(&store, &log, || subtree_close(&store, f.addr).unwrap());
        assert_eq!(got, want, "{at}: subtree_close");

        let decide = flat.get(close + 1).map_or(rc, |e| e.rank);
        let mut want = start_pages;
        want.extend(passing(f.rank + 1, decide, &|de| {
            de.lo < l || de.st == l - 1
        }));
        let got = loads(&store, &log, || following_sibling(&store, f.addr).unwrap());
        assert_eq!(got, want, "{at}: following_sibling");

        let want = BTreeSet::from([flat[i + 1].addr.page]);
        let got = loads(&store, &log, || first_child(&store, f.addr).unwrap());
        assert_eq!(got, want, "{at}: first_child");

        let got = loads(&store, &log, || next_entry(&store, f.addr).unwrap());
        assert!(got.is_empty(), "{at}: next_entry read {got:?}");

        let want = passing(f.rank, rc, &|_| true);
        let got = loads(&store, &log, || {
            descendants(&store, f.addr)
                .unwrap()
                .collect::<CoreResult<Vec<_>>>()
                .unwrap()
        });
        assert_eq!(got, want, "{at}: descendants");
    }
    assert!(checked > 100, "{name}: {checked} nodes checked");
}

#[test]
fn each_primitive_loads_exactly_the_pages_that_pass_the_page_test() {
    check_primitives("deepwide", &deep_wide_xml(), 256);
    check_primitives("dblp", &generate(DatasetKind::Dblp, 0.05).xml, 4096);
}

/// An insert under the root finds the root's close by the page test alone:
/// the close search reads only the page holding it, and the insert reads no
/// structure page but that one and the root's own (its first child and tag).
#[test]
fn insert_under_root_reads_only_the_root_close_page() {
    let (storage, log) = Logged::new(256);
    let pool = || Arc::new(BufferPool::new(Logged::new(4096).0));
    let mut db = XmlDb::build_with_pools(
        &deep_wide_xml(),
        BuildOptions::default(),
        Arc::new(BufferPool::new(storage)),
        pool(),
        pool(),
        pool(),
        pool(),
    )
    .unwrap();
    let root = db.store().root().unwrap();
    let close = subtree_close(db.store(), root).unwrap();
    assert_ne!(root.page, close.page);

    let got = loads(db.store(), &log, || {
        subtree_close(db.store(), root).unwrap()
    });
    assert_eq!(got, BTreeSet::from([close.page]), "subtree_close(root)");

    cold(db.store(), &log);
    db.insert_last_child(&Dewey::root(), "<s><d/></s>").unwrap();
    let got = read_set(&log);
    assert!(got.contains(&close.page), "insert read {got:?}");
    assert!(
        got.is_subset(&BTreeSet::from([root.page, close.page])),
        "insert read {got:?}; root page {}, close page {}",
        root.page,
        close.page
    );
}
