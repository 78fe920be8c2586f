//! Page storage backends.
//!
//! A [`Storage`] is a flat array of fixed-size pages addressed by [`PageId`].
//! [`MemStorage`] backs tests and benchmarks that want to exclude disk noise;
//! [`FileStorage`] persists to a single file with a small superblock header
//! so stores survive process restarts.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::Path;

use crate::error::{PagerError, PagerResult};

/// Identifier of a page within one storage. Page 0 is the first data page
/// (the file header lives before it and is not addressable).
pub type PageId = u32;

/// Default page size used throughout the system — the value the paper's
/// capacity computation assumes ("assume that each page is 4KB").
pub const DEFAULT_PAGE_SIZE: usize = 4096;

/// Abstract array-of-pages backend.
pub trait Storage {
    /// Size in bytes of every page.
    fn page_size(&self) -> usize;

    /// Number of allocated pages.
    fn page_count(&self) -> u32;

    /// Read page `id` into `buf` (`buf.len() == page_size()`).
    fn read_page(&mut self, id: PageId, buf: &mut [u8]) -> PagerResult<()>;

    /// Write `buf` to page `id` (`buf.len() == page_size()`).
    fn write_page(&mut self, id: PageId, buf: &[u8]) -> PagerResult<()>;

    /// Append a zeroed page and return its id. File-backed storages defer
    /// the actual file growth to [`Storage::sync`] so a crashed transaction
    /// leaves no orphan pages behind.
    fn allocate_page(&mut self) -> PagerResult<PageId>;

    /// Flush to durable media (no-op for memory). For [`FileStorage`] this
    /// is the moment allocations materialize and the page count persists.
    fn sync(&mut self) -> PagerResult<()>;

    /// Drop every page with id `>= count` — the rollback inverse of
    /// [`Storage::allocate_page`]. `count` must not exceed the current
    /// page count.
    fn truncate_pages(&mut self, count: u32) -> PagerResult<()>;
}

/// In-memory page array.
#[derive(Debug, Default)]
pub struct MemStorage {
    page_size: usize,
    pages: Vec<Box<[u8]>>,
}

impl MemStorage {
    /// Create an empty in-memory storage with the default page size.
    pub fn new() -> Self {
        Self::with_page_size(DEFAULT_PAGE_SIZE)
    }

    /// Create an empty in-memory storage with a custom page size (benchmarks
    /// sweep this to regenerate the paper's capacity table).
    pub fn with_page_size(page_size: usize) -> Self {
        assert!(page_size >= 64, "page size too small to hold any header");
        MemStorage {
            page_size,
            pages: Vec::new(),
        }
    }
}

impl Storage for MemStorage {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn page_count(&self) -> u32 {
        self.pages.len() as u32
    }

    fn read_page(&mut self, id: PageId, buf: &mut [u8]) -> PagerResult<()> {
        let page = self
            .pages
            .get(id as usize)
            .ok_or(PagerError::PageOutOfRange {
                page: id,
                count: self.pages.len() as u32,
            })?;
        buf.copy_from_slice(page);
        Ok(())
    }

    fn write_page(&mut self, id: PageId, buf: &[u8]) -> PagerResult<()> {
        let count = self.pages.len() as u32;
        let page = self
            .pages
            .get_mut(id as usize)
            .ok_or(PagerError::PageOutOfRange { page: id, count })?;
        page.copy_from_slice(buf);
        Ok(())
    }

    fn allocate_page(&mut self) -> PagerResult<PageId> {
        let id = self.pages.len() as u32;
        self.pages
            .push(vec![0u8; self.page_size].into_boxed_slice());
        Ok(id)
    }

    fn sync(&mut self) -> PagerResult<()> {
        Ok(())
    }

    fn truncate_pages(&mut self, count: u32) -> PagerResult<()> {
        if count as usize > self.pages.len() {
            return Err(PagerError::Corrupt(format!(
                "truncate_pages({count}) beyond the {} pages present",
                self.pages.len()
            )));
        }
        self.pages.truncate(count as usize);
        Ok(())
    }
}

const FILE_MAGIC: &[u8; 8] = b"NOKPAGE1";
const HEADER_LEN: u64 = 16; // magic (8) + page_size (4) + page_count (4)

/// A storage persisted in a single file: 16-byte superblock followed by the
/// page array.
///
/// Allocation is deferred: [`Storage::allocate_page`] only bumps the
/// in-memory count, and the file grows when pages are written (or at
/// [`Storage::sync`], which extends the file to the full allocated length
/// before persisting the page count). An allocated-but-never-written page
/// reads as zeros. The invariant a synced file satisfies — and
/// [`FileStorage::open`] enforces — is
/// `file_len == HEADER_LEN + page_count * page_size`.
#[derive(Debug)]
pub struct FileStorage {
    file: File,
    page_size: usize,
    page_count: u32,
    /// Current byte length of the file (pages beyond it are allocated but
    /// not yet materialized; they read as zeros).
    file_len: u64,
}

impl FileStorage {
    /// Create a new (truncated) storage file with the default page size.
    pub fn create<P: AsRef<Path>>(path: P) -> PagerResult<Self> {
        Self::create_with_page_size(path, DEFAULT_PAGE_SIZE)
    }

    /// Create a new (truncated) storage file with a custom page size.
    pub fn create_with_page_size<P: AsRef<Path>>(path: P, page_size: usize) -> PagerResult<Self> {
        assert!(page_size >= 64, "page size too small to hold any header");
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let mut header = [0u8; HEADER_LEN as usize];
        header[..8].copy_from_slice(FILE_MAGIC);
        header[8..12].copy_from_slice(&(page_size as u32).to_le_bytes());
        header[12..16].copy_from_slice(&0u32.to_le_bytes());
        file.write_all(&header)?;
        Ok(FileStorage {
            file,
            page_size,
            page_count: 0,
            file_len: HEADER_LEN,
        })
    }

    /// Open an existing storage file, validating the superblock **and** that
    /// the file length matches the persisted page count. A short or
    /// over-long file fails here with [`PagerError::SizeMismatch`] rather
    /// than deep inside the first query that reads past the tear.
    pub fn open<P: AsRef<Path>>(path: P) -> PagerResult<Self> {
        let storage = Self::open_for_repair(path)?;
        let expected = HEADER_LEN + storage.page_count as u64 * storage.page_size as u64;
        if storage.file_len != expected {
            return Err(PagerError::SizeMismatch {
                pages: storage.page_count,
                page_size: storage.page_size,
                file_len: storage.file_len,
            });
        }
        Ok(storage)
    }

    /// Open without the length check — only for WAL replay, which is about
    /// to repair exactly the mismatch [`FileStorage::open`] rejects.
    pub fn open_for_repair<P: AsRef<Path>>(path: P) -> PagerResult<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut header = [0u8; HEADER_LEN as usize];
        file.read_exact_at(&mut header, 0)?;
        if &header[..8] != FILE_MAGIC {
            return Err(PagerError::Corrupt("bad magic in storage file".into()));
        }
        let page_size = u32::from_le_bytes([header[8], header[9], header[10], header[11]]) as usize;
        let page_count = u32::from_le_bytes([header[12], header[13], header[14], header[15]]);
        if page_size < 64 {
            return Err(PagerError::Corrupt(format!(
                "implausible page size {page_size}"
            )));
        }
        let file_len = file.metadata()?.len();
        Ok(FileStorage {
            file,
            page_size,
            page_count,
            file_len,
        })
    }

    fn offset_of(&self, id: PageId) -> u64 {
        HEADER_LEN + id as u64 * self.page_size as u64
    }

    fn persist_page_count(&mut self) -> PagerResult<()> {
        self.file.write_all_at(&self.page_count.to_le_bytes(), 12)?;
        Ok(())
    }

    /// Force the page count during WAL replay: the file is cut or grown to
    /// exactly `count` pages (grown pages read as zeros until their images
    /// land) and the header says so, all unsynced until
    /// [`FileStorage::sync_replayed`].
    pub(crate) fn set_page_count_for_replay(&mut self, count: u32) -> PagerResult<()> {
        self.page_count = count;
        let want = self.offset_of(count);
        if self.file_len != want {
            self.file.set_len(want)?;
            self.file_len = want;
        }
        self.persist_page_count()
    }

    /// One fsync after replay: the page count, the extent and the pages it
    /// wrote become durable together (the log still holds all of them, so
    /// no ordering inside is needed).
    pub(crate) fn sync_replayed(&mut self) -> PagerResult<()> {
        Ok(self.file.sync_data()?)
    }
}

impl Storage for FileStorage {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn page_count(&self) -> u32 {
        self.page_count
    }

    fn read_page(&mut self, id: PageId, buf: &mut [u8]) -> PagerResult<()> {
        if id >= self.page_count {
            return Err(PagerError::PageOutOfRange {
                page: id,
                count: self.page_count,
            });
        }
        let off = self.offset_of(id);
        if off >= self.file_len {
            // Allocated but never materialized: defined to be zeros.
            buf.fill(0);
            return Ok(());
        }
        let avail = (self.file_len - off).min(buf.len() as u64) as usize;
        self.file.read_exact_at(&mut buf[..avail], off)?;
        buf[avail..].fill(0);
        Ok(())
    }

    fn write_page(&mut self, id: PageId, buf: &[u8]) -> PagerResult<()> {
        if id >= self.page_count {
            return Err(PagerError::PageOutOfRange {
                page: id,
                count: self.page_count,
            });
        }
        let off = self.offset_of(id);
        self.file.write_all_at(buf, off)?;
        self.file_len = self.file_len.max(off + buf.len() as u64);
        Ok(())
    }

    fn allocate_page(&mut self) -> PagerResult<PageId> {
        // Deferred: the file grows when the page is written or at sync().
        // A transaction that never commits therefore leaves no trace.
        let id = self.page_count;
        self.page_count += 1;
        Ok(id)
    }

    fn sync(&mut self) -> PagerResult<()> {
        // Ordering matters: (1) materialize the full allocated extent and
        // make the page bytes durable, (2) only then persist the page count
        // that declares them reachable, (3) make the header durable. A crash
        // inside this window leaves a length/count mismatch that open()
        // rejects loudly and WAL replay repairs.
        let want = self.offset_of(self.page_count);
        if self.file_len < want {
            self.file.set_len(want)?;
            self.file_len = want;
        }
        self.file.sync_data()?;
        self.persist_page_count()?;
        self.file.sync_data()?;
        Ok(())
    }

    fn truncate_pages(&mut self, count: u32) -> PagerResult<()> {
        if count > self.page_count {
            return Err(PagerError::Corrupt(format!(
                "truncate_pages({count}) beyond the {} pages present",
                self.page_count
            )));
        }
        self.page_count = count;
        let want = self.offset_of(count);
        if self.file_len > want {
            self.file.set_len(want)?;
            self.file_len = want;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_storage_round_trip() {
        let mut s = MemStorage::with_page_size(128);
        let p0 = s.allocate_page().unwrap();
        let p1 = s.allocate_page().unwrap();
        assert_eq!((p0, p1), (0, 1));
        let mut buf = vec![7u8; 128];
        s.write_page(p1, &buf).unwrap();
        buf.fill(0);
        s.read_page(p1, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 7));
        s.read_page(p0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn mem_storage_out_of_range() {
        let mut s = MemStorage::new();
        let mut buf = vec![0u8; s.page_size()];
        assert!(matches!(
            s.read_page(3, &mut buf),
            Err(PagerError::PageOutOfRange { page: 3, .. })
        ));
    }

    #[test]
    fn file_storage_persists_across_reopen() {
        let dir = std::env::temp_dir().join(format!("nok-pager-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.pg");
        {
            let mut s = FileStorage::create_with_page_size(&path, 256).unwrap();
            let p = s.allocate_page().unwrap();
            let buf = vec![42u8; 256];
            s.write_page(p, &buf).unwrap();
            s.sync().unwrap();
        }
        {
            let mut s = FileStorage::open(&path).unwrap();
            assert_eq!(s.page_size(), 256);
            assert_eq!(s.page_count(), 1);
            let mut buf = vec![0u8; 256];
            s.read_page(0, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == 42));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_storage_open_rejects_length_mismatch() {
        let dir = std::env::temp_dir().join(format!("nok-pager-test3-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("short.pg");
        {
            let mut s = FileStorage::create_with_page_size(&path, 128).unwrap();
            for _ in 0..4 {
                s.allocate_page().unwrap();
            }
            s.sync().unwrap();
        }
        // Tear the file: drop half of the last page.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 64).unwrap();
        drop(f);
        match FileStorage::open(&path) {
            Err(PagerError::SizeMismatch {
                pages, file_len, ..
            }) => {
                assert_eq!(pages, 4);
                assert_eq!(file_len, len - 64);
            }
            other => panic!("expected SizeMismatch, got {other:?}"),
        }
        // Repair mode still opens it (that's what WAL replay uses).
        assert!(FileStorage::open_for_repair(&path).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deferred_allocation_materializes_at_sync() {
        let dir = std::env::temp_dir().join(format!("nok-pager-test4-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("defer.pg");
        let mut s = FileStorage::create_with_page_size(&path, 128).unwrap();
        s.allocate_page().unwrap();
        s.allocate_page().unwrap();
        // Nothing written yet: the file is still just the header, but the
        // allocated pages read as zeros.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), HEADER_LEN);
        let mut buf = vec![9u8; 128];
        s.read_page(1, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
        s.sync().unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), HEADER_LEN + 256);
        assert!(FileStorage::open(&path).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncate_pages_rolls_back_allocations() {
        let mut m = MemStorage::with_page_size(64);
        m.allocate_page().unwrap();
        m.allocate_page().unwrap();
        m.truncate_pages(1).unwrap();
        assert_eq!(m.page_count(), 1);
        assert!(m.truncate_pages(5).is_err());

        let dir = std::env::temp_dir().join(format!("nok-pager-test5-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trunc.pg");
        let mut s = FileStorage::create_with_page_size(&path, 128).unwrap();
        let p0 = s.allocate_page().unwrap();
        s.write_page(p0, &[1u8; 128]).unwrap();
        s.sync().unwrap();
        let p1 = s.allocate_page().unwrap();
        s.write_page(p1, &[2u8; 128]).unwrap();
        s.truncate_pages(1).unwrap();
        s.sync().unwrap();
        let mut s = FileStorage::open(&path).unwrap();
        assert_eq!(s.page_count(), 1);
        let mut buf = vec![0u8; 128];
        s.read_page(0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_storage_rejects_garbage() {
        let dir = std::env::temp_dir().join(format!("nok-pager-test2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.pg");
        std::fs::write(&path, b"this is not a page file header!!").unwrap();
        assert!(matches!(
            FileStorage::open(&path),
            Err(PagerError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
