//! # nok-verify
//!
//! Read-only integrity analyzer for the succinct XML storage scheme (the
//! `fsck` of this repository — shipped as the `nokfsck` binary).
//!
//! The paper's storage format carries redundant information by design: page
//! headers `(st, lo, hi)` duplicate facts derivable from the string itself
//! (§4.2), the in-memory header directory mirrors the on-page headers, and
//! the three B+ tree indexes (B+t, B+v, B+i; §4.1 Figure 3) plus the value
//! data file cross-reference the structure through Dewey IDs and physical
//! addresses. This crate exploits that redundancy: every fact stored twice
//! is recomputed from one side and compared against the other, without
//! executing any query machinery.
//!
//! Three entry points of increasing scope:
//!
//! * [`verify_chain`] — raw page chain only (works without a
//!   [`StructStore`], e.g. on a damaged file that refuses to open):
//!   parenthesis balance, header exactness, chain acyclicity, capacity
//!   bounds, interval/nesting well-formedness.
//! * [`verify_store`] — adds in-memory directory agreement (rank map, node
//!   count) on an opened store.
//! * [`verify_db`] — adds Dewey↔interval agreement, value-file referential
//!   integrity, and B+ tree structural invariants on a full [`XmlDb`].
//!
//! Every problem is a structured [`Violation`]; the analyzer keeps going
//! after the first finding wherever that is safe, so one run paints the
//! whole damage picture. All checks are panic-free on corrupt input.

use std::collections::{HashMap, HashSet};

use nok_core::dewey::Dewey;
use nok_core::page::{self, HEADER_SIZE, NO_PAGE};
use nok_core::physical::{tag_posting_key, IdRecord, TagPosting};
use nok_core::sigma::TagCode;
use nok_core::store::{NodeAddr, StructStore};
use nok_core::values::{hash_key, DataFile};
use nok_core::XmlDb;
use nok_pager::{BufferPool, PageId, Storage};

mod report;
pub use report::{Report, Violation};

/// Which optional checks to run.
///
/// Strict mode adds two checks that used to hold only for freshly built
/// databases but now hold after updates too:
///
/// * **value orphans** — deletes tombstone a data record once its last
///   referent is gone, so a live record reachable from no B+i entry is a
///   defect;
/// * **tag posting order** — B+t keys are composite `(tag, dewey)`, so key
///   order *is* document order within each tag group, fresh or updated.
#[derive(Debug, Clone, Copy, Default)]
pub struct VerifyOptions {
    /// Report data-file records referenced by no B+i entry.
    pub value_orphans: bool,
    /// Report B+t postings out of document order within a tag group.
    pub tag_order: bool,
}

impl VerifyOptions {
    /// All checks on — valid for freshly built, never-updated databases.
    pub fn strict() -> VerifyOptions {
        VerifyOptions {
            value_orphans: true,
            tag_order: true,
        }
    }
}

/// A node derived from the raw string representation during the chain scan.
struct DerivedNode {
    dewey: Dewey,
    tag: TagCode,
    addr: NodeAddr,
    level: u16,
    /// Document-order position of the node's open entry (0-based over the
    /// whole string).
    order: u64,
}

/// Everything one raw pass over the page chain produces.
struct ChainScan {
    violations: Vec<Violation>,
    nodes: Vec<DerivedNode>,
    /// Page ids in chain order.
    chain: Vec<PageId>,
    /// Raw header of each chained page (parallel to `chain`).
    headers: Vec<page::PageHeader>,
    /// Entry count of each chained page (parallel to `chain`).
    entries: Vec<u32>,
    /// Of those, the opens.
    page_opens: Vec<u32>,
    opens: u64,
    closes: u64,
    /// The walk reached `NO_PAGE` without a cycle or a broken pointer.
    completed: bool,
}

impl ChainScan {
    fn into_report(self) -> Report {
        Report {
            violations: self.violations,
            pages: self.chain.len() as u32,
            nodes: self.opens,
        }
    }
}

/// Single source of truth for all structural checks: walk the chain from
/// page 0 following raw `next` pointers, re-deriving levels, Dewey IDs and
/// balance from the string itself, and comparing the stored headers against
/// the recomputation.
fn scan_chain<S: Storage>(pool: &BufferPool<S>) -> ChainScan {
    let mut scan = ChainScan {
        violations: Vec::new(),
        nodes: Vec::new(),
        chain: Vec::new(),
        headers: Vec::new(),
        entries: Vec::new(),
        page_opens: Vec::new(),
        opens: 0,
        closes: 0,
        completed: false,
    };
    let page_count = pool.page_count();
    if page_count == 0 {
        scan.completed = true;
        return scan;
    }

    // Dewey derivation state (the build's stack-of-counters, replayed).
    let mut dewey_path: Vec<u32> = Vec::new();
    let mut counters: Vec<u32> = Vec::new();
    let mut root_opens = 0u32;
    let mut order = 0u64;
    // Running level across the whole chain — the ground truth each page's
    // `st` must equal.
    let mut level: u16 = 0;

    let mut visited: HashSet<PageId> = HashSet::new();
    let mut pid: PageId = 0;
    loop {
        if pid >= page_count {
            scan.violations.push(Violation::BrokenChain {
                page: scan.chain.last().copied().unwrap_or(0),
                next: pid,
            });
            break;
        }
        if !visited.insert(pid) {
            scan.violations.push(Violation::ChainCycle { page: pid });
            break;
        }
        let handle = match pool.get(pid) {
            Ok(h) => h,
            Err(e) => {
                scan.violations.push(Violation::PageUnreadable {
                    page: pid,
                    detail: e.to_string(),
                });
                break;
            }
        };
        let buf = handle.read();
        let Some(header) = page::read_header(&buf) else {
            scan.violations.push(Violation::PageUndecodable {
                page: pid,
                detail: format!("page shorter than the {HEADER_SIZE}-byte header"),
            });
            break;
        };
        scan.chain.push(pid);
        scan.headers.push(header);

        // Capacity / reserve-slack bound: the used content can never exceed
        // the content area (updates may consume all slack, but not more).
        let max_content = buf.len().saturating_sub(HEADER_SIZE);
        if header.nbytes as usize > max_content {
            scan.violations.push(Violation::PageOverflow {
                page: pid,
                nbytes: header.nbytes,
                max: max_content as u64,
            });
            scan.entries.push(0);
            scan.page_opens.push(0);
            // Content bounds are untrustworthy; continue along the chain.
            drop(buf);
            if header.next == NO_PAGE {
                scan.completed = true;
                break;
            }
            pid = header.next;
            continue;
        }

        // Header exactness, part 1: st must equal the true end level of the
        // previous page (0 for the first page). A page holding no entries
        // stores the canonical sentinel instead — it passes the running
        // level through and must not claim any level of its own.
        let expected_st = if header.nbytes == 0 {
            page::EMPTY_PAGE_ST
        } else {
            level
        };
        if header.st != expected_st {
            scan.violations.push(Violation::StMismatch {
                page: pid,
                expected: expected_st,
                found: header.st,
            });
        }

        // Read entries against the *recomputed* running level, so a wrong
        // `st` does not cascade into bounds noise. The parse is granular
        // (not `page::check_page`, which only says yes or no) so damage is
        // located precisely and the scan keeps what it could derive.
        let decoded = scan_entries(pid, &buf, header.nbytes, &mut scan.violations);
        let (mut lo, mut hi) = (u16::MAX, 0u16);
        let (mut entry_idx, mut page_opens) = (0u32, 0u32);
        for entry in decoded {
            match entry {
                page::Entry::Open(tag) => {
                    scan.opens += 1;
                    page_opens += 1;
                    level += 1;
                    let index = match counters.last_mut() {
                        Some(c) => {
                            let i = *c;
                            *c += 1;
                            i
                        }
                        None => {
                            root_opens += 1;
                            if root_opens > 1 {
                                scan.violations.push(Violation::NestingViolation {
                                    page: pid,
                                    entry: entry_idx,
                                    detail: "second top-level open (document forest)".into(),
                                });
                            }
                            0
                        }
                    };
                    dewey_path.push(index);
                    counters.push(0);
                    scan.nodes.push(DerivedNode {
                        dewey: Dewey::from_slice(&dewey_path),
                        tag,
                        addr: NodeAddr {
                            page: pid,
                            entry: entry_idx,
                        },
                        level,
                        order,
                    });
                }
                page::Entry::Close => {
                    scan.closes += 1;
                    if level == 0 || counters.is_empty() {
                        scan.violations.push(Violation::NestingViolation {
                            page: pid,
                            entry: entry_idx,
                            detail: "close with no open node (interval underflow)".into(),
                        });
                    } else {
                        level -= 1;
                        dewey_path.pop();
                        counters.pop();
                    }
                }
            }
            lo = lo.min(level);
            hi = hi.max(level);
            entry_idx += 1;
            order += 1;
        }
        scan.entries.push(entry_idx);
        scan.page_opens.push(page_opens);

        // Header exactness, part 2: lo/hi must be the true min/max level.
        // An empty page stores the empty range (lo=MAX, hi=0) by convention.
        let (expected_lo, expected_hi) = if entry_idx == 0 {
            (u16::MAX, 0)
        } else {
            (lo, hi)
        };
        if header.lo != expected_lo || header.hi != expected_hi {
            scan.violations.push(Violation::BoundsMismatch {
                page: pid,
                expected_lo,
                expected_hi,
                found_lo: header.lo,
                found_hi: header.hi,
            });
        }

        drop(buf);
        if header.next == NO_PAGE {
            scan.completed = true;
            break;
        }
        pid = header.next;
    }

    // Chain reachability: every page of the structural pool belongs to the
    // chain. (Only meaningful when the walk itself terminated cleanly.)
    if scan.completed {
        for p in 0..page_count {
            if !visited.contains(&p) {
                scan.violations.push(Violation::UnreachablePage { page: p });
            }
        }
    }

    // Parenthesis balance of the whole string.
    if scan.opens != scan.closes || level != 0 {
        scan.violations.push(Violation::UnbalancedString {
            opens: scan.opens,
            closes: scan.closes,
            end_level: level,
        });
    }
    scan
}

/// Granular parse of one page's content: entry-count word, parenthesis
/// bitvector (including canonical zero padding) and the tag area (one code
/// per open, one byte each when every code is below 256, else two; 15-bit
/// bound). Pushes a violation per defect and returns the entries it managed
/// to derive: through [`page::Page`] when the page reads, else from the
/// parenthesis bits with whatever codes the tag area holds.
fn scan_entries(pid: PageId, buf: &[u8], nbytes: u16, v: &mut Vec<Violation>) -> Vec<page::Entry> {
    let content = &buf[HEADER_SIZE..HEADER_SIZE + usize::from(nbytes)];
    if content.is_empty() {
        return Vec::new();
    }
    if content.len() < 2 {
        v.push(Violation::SuccinctEncoding {
            page: pid,
            detail: "content shorter than the entry-count word".into(),
        });
        return Vec::new();
    }
    let n = u16::from_le_bytes([content[0], content[1]]) as usize;
    if n == 0 {
        v.push(Violation::SuccinctEncoding {
            page: pid,
            detail: "zero entry count with nonzero nbytes".into(),
        });
        return Vec::new();
    }
    let paren_bytes = n.div_ceil(8);
    if content.len() < 2 + paren_bytes {
        v.push(Violation::SuccinctEncoding {
            page: pid,
            detail: format!(
                "parenthesis bitvector truncated: {} entries need {paren_bytes} bytes, {} present",
                n,
                content.len() - 2
            ),
        });
        return Vec::new();
    }
    let parens = &content[2..2 + paren_bytes];
    if !n.is_multiple_of(8) && (parens[paren_bytes - 1] >> (n % 8)) != 0 {
        v.push(Violation::SuccinctEncoding {
            page: pid,
            detail: "nonzero padding bits after the last entry".into(),
        });
    }
    let is_open = |i: usize| (parens[i / 8] >> (i % 8)) & 1 == 1;
    let opens = (0..n).filter(|&i| is_open(i)).count();
    let tags = &content[2 + paren_bytes..];
    let page = page::Page::new(buf);
    let entries: Vec<page::Entry> = match &page {
        Some(page) => page.entries().collect(),
        None => {
            // Codes at the width the area comes closest to holding.
            let width = if tags.len() >= 2 * opens { 2 } else { 1 };
            let code = |k: usize| match width {
                2 => tags
                    .get(2 * k..2 * k + 2)
                    .map(|c| u16::from_le_bytes([c[0], c[1]])),
                _ => tags.get(k).map(|&c| u16::from(c)),
            };
            let mut k = 0;
            (0..n)
                .map(|i| match is_open(i) {
                    true => {
                        k += 1;
                        page::Entry::Open(TagCode(code(k - 1).unwrap_or(0)))
                    }
                    false => page::Entry::Close,
                })
                .collect()
        }
    };
    if tags.len() != opens && tags.len() != 2 * opens {
        v.push(Violation::TagWidth {
            page: pid,
            detail: format!("{} tag bytes for {opens} opens", tags.len()),
        });
    } else if let Some(page) = &page {
        let max = page.max_code();
        if page.tag_width() != page::tag_width(max) {
            v.push(Violation::TagWidth {
                page: pid,
                detail: format!(
                    "{}-byte codes, largest {max}: the page's codes take {}",
                    page.tag_width(),
                    page::tag_width(max)
                ),
            });
        }
    }
    for (i, e) in entries.iter().enumerate() {
        if let page::Entry::Open(TagCode(code)) = *e {
            if u32::from(code) >= page::TAG_CODE_LIMIT {
                v.push(Violation::TagCodeOutOfRange {
                    page: pid,
                    entry: i as u32,
                    code,
                });
            }
        }
    }
    entries
}

/// Verify the raw page chain of a structural pool: balance, header
/// exactness, chain acyclicity and reachability, capacity bounds, nesting.
/// Needs no [`StructStore`] — usable on a pool whose store refuses to open.
pub fn verify_chain<S: Storage>(pool: &BufferPool<S>) -> Report {
    scan_chain(pool).into_report()
}

/// Verify a [`StructStore`]: everything [`verify_chain`] checks, plus
/// agreement between the in-memory header directory (rank map, mirrored
/// headers, entry counts) and the raw pages, and the stored node count.
pub fn verify_store<S: Storage>(store: &StructStore<S>) -> Report {
    let mut scan = scan_chain(store.pool());
    directory_checks(store, &mut scan);
    scan.into_report()
}

fn directory_checks<S: Storage>(store: &StructStore<S>, scan: &mut ChainScan) {
    if store.chain_len() as u64 != scan.chain.len() as u64 {
        scan.violations.push(Violation::CountMismatch {
            what: "chained pages in directory",
            expected: scan.chain.len() as u64,
            found: store.chain_len() as u64,
        });
    }
    for (i, (&pid, header)) in scan.chain.iter().zip(&scan.headers).enumerate() {
        let Some(dir) = store.dir_at(i as u32) else {
            scan.violations.push(Violation::DirectoryMismatch {
                page: pid,
                field: "presence",
                expected: 1,
                found: 0,
            });
            continue;
        };
        let fields: [(&'static str, u64, u64); 6] = [
            ("id", pid as u64, dir.id as u64),
            ("st", header.st as u64, dir.st as u64),
            ("lo", header.lo as u64, dir.lo as u64),
            ("hi", header.hi as u64, dir.hi as u64),
            ("entries", scan.entries[i] as u64, dir.entries as u64),
            ("opens", scan.page_opens[i] as u64, dir.opens as u64),
        ];
        for (field, expected, found) in fields {
            if expected != found {
                scan.violations.push(Violation::DirectoryMismatch {
                    page: pid,
                    field,
                    expected,
                    found,
                });
            }
        }
        // The rank map must place the page at its chain position — this is
        // what makes lin() (and thus every node interval) document-ordered.
        match store.rank(pid) {
            Ok(r) if r as usize == i => {}
            Ok(r) => scan.violations.push(Violation::DirectoryMismatch {
                page: pid,
                field: "rank",
                expected: i as u64,
                found: r as u64,
            }),
            Err(_) => scan.violations.push(Violation::DirectoryMismatch {
                page: pid,
                field: "rank",
                expected: i as u64,
                found: u64::MAX,
            }),
        }
    }
    if store.node_count() != scan.opens {
        scan.violations.push(Violation::CountMismatch {
            what: "store node count",
            expected: scan.opens,
            found: store.node_count(),
        });
    }
}

/// Verify a full [`XmlDb`]: everything [`verify_store`] checks, plus
/// Dewey↔address agreement through B+i, value-file referential integrity
/// (B+i → data file, B+v ↔ values), tag-index completeness, and the
/// structural invariants of all three B+ trees.
pub fn verify_db<S: Storage>(db: &XmlDb<S>, opts: VerifyOptions) -> Report {
    let mut scan = scan_chain(db.store().pool());
    directory_checks(db.store(), &mut scan);
    index_checks(db, opts, &mut scan);
    generation_checks(db, &mut scan.violations);
    scan.into_report()
}

/// The newest published MVCC generation must be self-consistent with the
/// committed state it represents: same epoch as the commit counter, same
/// node count, structural page count, B+ tree roots and entry counts, and
/// data-file length. A divergence means snapshot readers pinned *now*
/// would see a database that never existed.
fn generation_checks<S: Storage>(db: &XmlDb<S>, v: &mut Vec<Violation>) {
    let snap = match db.snapshot() {
        Ok(s) => s,
        Err(e) => {
            v.push(Violation::RecordCorrupt {
                what: "generation pin",
                detail: e.to_string(),
            });
            return;
        }
    };
    let g = snap.generation();
    let roots = g.btree_roots();
    let trees = [
        (
            "B+t root page",
            db.bt_tag().root_page() as u64,
            roots[0].0 as u64,
        ),
        ("B+t entry count", db.bt_tag().len(), roots[0].1),
        (
            "B+v root page",
            db.bt_val().root_page() as u64,
            roots[1].0 as u64,
        ),
        ("B+v entry count", db.bt_val().len(), roots[1].1),
        (
            "B+i root page",
            db.bt_id().root_page() as u64,
            roots[2].0 as u64,
        ),
        ("B+i entry count", db.bt_id().len(), roots[2].1),
    ];
    let checks = [
        ("epoch", db.commit_generation(), g.epoch()),
        ("node count", db.store().node_count(), g.node_count()),
        (
            "structural page count",
            db.store().chain_len() as u64,
            g.page_count(),
        ),
    ];
    for (field, expected, found) in checks.into_iter().chain(trees) {
        if expected != found {
            v.push(Violation::GenerationMismatch {
                field,
                expected,
                found,
            });
        }
    }
    // The published data-file length is a visibility horizon: records at
    // or past it are invisible to snapshot readers. A horizon *beyond* the
    // file is corruption; a horizon behind it is just an uncommitted tail.
    let file_len = db.data_file().len_bytes();
    if g.data_len() > file_len {
        v.push(Violation::GenerationMismatch {
            field: "data-file length",
            expected: file_len,
            found: g.data_len(),
        });
    }
}

fn btree_checks<S: Storage>(
    name: &'static str,
    tree: &nok_btree::BTree<S>,
    out: &mut Vec<Violation>,
) {
    match tree.verify_structure() {
        Ok(issues) => {
            for i in issues {
                out.push(Violation::BTreeStructure {
                    index: name,
                    page: i.page,
                    detail: i.detail,
                });
            }
        }
        Err(e) => out.push(Violation::BTreeStructure {
            index: name,
            page: 0,
            detail: format!("verification aborted: {e}"),
        }),
    }
}

fn index_checks<S: Storage>(db: &XmlDb<S>, opts: VerifyOptions, scan: &mut ChainScan) {
    let v = &mut scan.violations;
    btree_checks("B+t", db.bt_tag(), v);
    btree_checks("B+v", db.bt_val(), v);
    btree_checks("B+i", db.bt_id(), v);

    // Ground truth from the string representation.
    let derived: HashMap<Vec<u8>, &DerivedNode> =
        scan.nodes.iter().map(|n| (n.dewey.to_key(), n)).collect();

    // ---- Data file: the length page 0 holds lies within its pages, and
    // the records tile it: `(offset, dead)` in file order, `None` when
    // they do not.
    let records = data_file_records(db.data_file(), v);

    // ---- B+i: every node exactly once, with the right address; every
    // value pointer is a record start and resolves in the data file with
    // the right length.
    let mut seen_ids: HashSet<Vec<u8>> = HashSet::new();
    let mut referenced_offsets: HashSet<u64> = HashSet::new();
    // dewey key -> value text (resolved through B+i), for the B+v checks.
    let mut value_of: HashMap<Vec<u8>, String> = HashMap::new();
    let mut id_entries = 0u64;
    let id_iter = match db.bt_id().iter_all() {
        Ok(it) => Some(it),
        Err(e) => {
            v.push(Violation::RecordCorrupt {
                what: "B+i scan",
                detail: e.to_string(),
            });
            None
        }
    };
    for item in id_iter.into_iter().flatten() {
        let (key, val) = match item {
            Ok(kv) => kv,
            Err(e) => {
                v.push(Violation::RecordCorrupt {
                    what: "B+i scan",
                    detail: e.to_string(),
                });
                break;
            }
        };
        id_entries += 1;
        let Some(dewey) = Dewey::from_key(&key) else {
            v.push(Violation::RecordCorrupt {
                what: "B+i key",
                detail: format!("{} bytes, not a Dewey key", key.len()),
            });
            continue;
        };
        let rec = match IdRecord::from_bytes(&val) {
            Ok(r) => r,
            Err(e) => {
                v.push(Violation::RecordCorrupt {
                    what: "B+i record",
                    detail: format!("{dewey}: {e}"),
                });
                continue;
            }
        };
        match derived.get(&key) {
            None => v.push(Violation::OrphanIdEntry {
                dewey: dewey.to_string(),
            }),
            Some(node) => {
                if !seen_ids.insert(key.clone()) {
                    v.push(Violation::RecordCorrupt {
                        what: "B+i key",
                        detail: format!("{dewey}: duplicate entry"),
                    });
                }
                if rec.addr != node.addr {
                    v.push(Violation::IdAddrMismatch {
                        dewey: dewey.to_string(),
                        expected: node.addr.to_string(),
                        found: rec.addr.to_string(),
                    });
                }
            }
        }
        if let Some((off, len)) = rec.value {
            let start = records
                .as_ref()
                .is_none_or(|r| r.binary_search_by_key(&off, |r| r.0).is_ok());
            match db.data_file().get_record(off) {
                Ok(_) if !start => v.push(Violation::ValueUnresolvable {
                    dewey: dewey.to_string(),
                    offset: off,
                    detail: "not the start of a data-file record".into(),
                }),
                Ok(text) => {
                    if text.len() as u32 != len {
                        v.push(Violation::ValueUnresolvable {
                            dewey: dewey.to_string(),
                            offset: off,
                            detail: format!(
                                "record holds {} bytes, index claims {len}",
                                text.len()
                            ),
                        });
                    }
                    referenced_offsets.insert(off);
                    value_of.insert(key.clone(), text);
                }
                Err(e) => v.push(Violation::ValueUnresolvable {
                    dewey: dewey.to_string(),
                    offset: off,
                    detail: e.to_string(),
                }),
            }
        }
    }
    for (key, node) in &derived {
        if !seen_ids.contains(key) {
            v.push(Violation::MissingIdEntry {
                dewey: node.dewey.to_string(),
            });
        }
    }
    if id_entries != scan.nodes.len() as u64 {
        v.push(Violation::CountMismatch {
            what: "B+i entries",
            expected: scan.nodes.len() as u64,
            found: id_entries,
        });
    }

    // ---- B+v: exactly one posting (hash(value) -> dewey) per valued node.
    let mut expected_postings: HashMap<(Vec<u8>, Vec<u8>), i64> = HashMap::new();
    for (key, text) in &value_of {
        *expected_postings
            .entry((hash_key(text).to_vec(), key.clone()))
            .or_insert(0) += 1;
    }
    match db.bt_val().iter_all() {
        Ok(it) => {
            for item in it {
                let (h, dk) = match item {
                    Ok(kv) => kv,
                    Err(e) => {
                        v.push(Violation::RecordCorrupt {
                            what: "B+v scan",
                            detail: e.to_string(),
                        });
                        break;
                    }
                };
                let Some(dewey) = Dewey::from_key(&dk).map(|d| d.to_string()) else {
                    v.push(Violation::RecordCorrupt {
                        what: "B+v posting",
                        detail: format!("{} bytes, not a Dewey key", dk.len()),
                    });
                    continue;
                };
                match expected_postings.get_mut(&(h.clone(), dk.clone())) {
                    Some(n) if *n > 0 => *n -= 1,
                    _ => {
                        if let Some(text) = value_of.get(&dk) {
                            v.push(Violation::ValueHashMismatch {
                                dewey,
                                detail: format!(
                                    "posting key {:02x?} != hash of stored value {:?}",
                                    &h[..h.len().min(8)],
                                    text
                                ),
                            });
                        } else {
                            v.push(Violation::OrphanValuePosting { dewey });
                        }
                    }
                }
            }
        }
        Err(e) => v.push(Violation::RecordCorrupt {
            what: "B+v scan",
            detail: e.to_string(),
        }),
    }
    for ((_, dk), n) in &expected_postings {
        if *n > 0 {
            let dewey = Dewey::from_key(dk)
                .map(|d| d.to_string())
                .unwrap_or_default();
            v.push(Violation::MissingValuePosting { dewey });
        }
    }

    // ---- B+t: exactly one posting per node, stored under the composite
    // (tag, dewey) key and holding the node's address.
    let mut expected_tags: HashMap<Vec<u8>, &DerivedNode> = scan
        .nodes
        .iter()
        .map(|n| (tag_posting_key(n.tag, &n.dewey), n))
        .collect();
    let mut tag_entries = 0u64;
    let mut prev_in_group: Option<(Vec<u8>, u64)> = None;
    match db.bt_tag().iter_all() {
        Ok(it) => {
            for item in it {
                let (tk, pv) = match item {
                    Ok(kv) => kv,
                    Err(e) => {
                        v.push(Violation::RecordCorrupt {
                            what: "B+t scan",
                            detail: e.to_string(),
                        });
                        break;
                    }
                };
                tag_entries += 1;
                let tag = if tk.len() >= 2 {
                    TagCode::from_key(&tk).0
                } else {
                    u16::MAX
                };
                let posting = match TagPosting::decode(&tk, &pv) {
                    Ok(p) => p,
                    Err(e) => {
                        v.push(Violation::RecordCorrupt {
                            what: "B+t posting",
                            detail: format!("tag {tag}: {e}"),
                        });
                        continue;
                    }
                };
                match expected_tags.remove(&tk) {
                    None => v.push(Violation::OrphanTagPosting {
                        tag,
                        detail: format!(
                            "posting for {} at {} matches no node",
                            posting.dewey, posting.addr
                        ),
                    }),
                    Some(node) if node.addr != posting.addr => v.push(Violation::TagAddrMismatch {
                        dewey: posting.dewey.to_string(),
                        expected: node.addr.to_string(),
                        found: posting.addr.to_string(),
                    }),
                    Some(_) => {}
                }
                if opts.tag_order {
                    // Group by the 2-byte tag prefix of the composite key;
                    // the rest of the key is the Dewey key.
                    let (group, dk) = tk.split_at(2);
                    if let Some(node) = derived.get(dk) {
                        if let Some((ptk, pord)) = &prev_in_group {
                            if ptk == group && *pord > node.order {
                                v.push(Violation::TagOrderViolation {
                                    tag,
                                    detail: format!(
                                        "posting for {} precedes an earlier document position",
                                        posting.dewey
                                    ),
                                });
                            }
                        }
                        prev_in_group = Some((group.to_vec(), node.order));
                    }
                }
            }
        }
        Err(e) => v.push(Violation::RecordCorrupt {
            what: "B+t scan",
            detail: e.to_string(),
        }),
    }
    for node in expected_tags.values() {
        v.push(Violation::MissingTagPosting {
            dewey: node.dewey.to_string(),
            tag: node.tag.0,
        });
    }
    if tag_entries != scan.nodes.len() as u64 {
        v.push(Violation::CountMismatch {
            what: "B+t entries",
            expected: scan.nodes.len() as u64,
            found: tag_entries,
        });
    }
    // Selectivity counters must agree with the derived per-tag occurrences,
    // and no node may sit deeper than its tag's depth bound.
    let mut derived_tag_counts: HashMap<TagCode, u64> = HashMap::new();
    let mut deepest: HashMap<TagCode, u16> = HashMap::new();
    for n in &scan.nodes {
        *derived_tag_counts.entry(n.tag).or_insert(0) += 1;
        let d = deepest.entry(n.tag).or_insert(0);
        *d = (*d).max(n.level);
    }
    let mut too_deep: Vec<(TagCode, u16)> = deepest
        .into_iter()
        .filter(|&(tag, level)| level > db.synopsis().depth_bound(tag))
        .collect();
    too_deep.sort_unstable();
    for (tag, level) in too_deep {
        let known = usize::from(tag.0) < db.dict().len();
        v.push(Violation::SynopsisDepthBound {
            tag: if known { db.dict().name(tag) } else { "?" }.to_string(),
            deepest: level,
            bound: db.synopsis().depth_bound(tag),
        });
    }
    for (tag, expected) in &derived_tag_counts {
        let found = db.tag_count(*tag);
        if found != *expected {
            v.push(Violation::CountMismatch {
                what: "tag occurrence counter",
                expected: *expected,
                found,
            });
        }
    }
    // The synopsis path summary the planner estimates from and proves
    // emptiness with. It spells out some root-to-node tag paths and folds
    // the rest into residuals, so the recount follows the persisted shape:
    // walk each node's root path as far as the trie goes — a whole path
    // counts on its own trie node, a shorter walk in the residual of the
    // node it stops at — and every trie node must carry exactly the
    // recounted pair. The chain stack replays the same level-truncation
    // the build and update layers maintain incrementally.
    let paths = db.synopsis().paths();
    let mut derived_paths: HashMap<Vec<TagCode>, [u64; 2]> = HashMap::new();
    let mut path_chain: Vec<TagCode> = Vec::new();
    for n in &scan.nodes {
        path_chain.truncate((n.level as usize).saturating_sub(1));
        path_chain.push(n.tag);
        let kept = paths.matched_prefix(&path_chain);
        let pair = derived_paths
            .entry(path_chain[..kept].to_vec())
            .or_default();
        pair[usize::from(kept < path_chain.len())] += 1;
    }
    let mut check = |tags: &[TagCode], [count, residual]: [u64; 2], found: [u64; 2]| {
        // A damaged block may name codes the dictionary never issued.
        let known = |t: &TagCode| usize::from(t.0) < db.dict().len();
        let name = |t: &TagCode| if known(t) { db.dict().name(*t) } else { "?" };
        let path: String = tags.iter().flat_map(|t| ["/", name(t)]).collect();
        if found[0] != count {
            v.push(Violation::SynopsisPathCountMismatch {
                path: path.clone(),
                expected: count,
                found: found[0],
            });
        }
        if found[1] != residual {
            v.push(Violation::SynopsisResidualMismatch {
                path,
                expected: residual,
                found: found[1],
            });
        }
    };
    paths.for_each_node(|tags, count, residual| {
        let expected = derived_paths.remove(tags).unwrap_or_default();
        check(tags, expected, [count, residual]);
    });
    // Trie nodes the walk above reached but the summary holds for empty.
    for (tags, expected) in &derived_paths {
        check(tags, *expected, [0, 0]);
    }

    // ---- Data file: every live record reachable from B+i. Records whose
    // last referent was deleted carry a tombstone (the dead bit in the
    // length word) and are skipped, so this holds after updates too.
    if opts.value_orphans {
        for &(off, dead) in records.iter().flatten() {
            if !dead && !referenced_offsets.contains(&off) {
                v.push(Violation::OrphanValueRecord { offset: off });
            }
        }
    }
}

/// The records of the data file, `(offset, dead)` in file order, walked
/// through its pages; `None`, with the violation, when page 0's length is
/// past the pages or a record does not lie within the length.
fn data_file_records<S: Storage>(
    data: &DataFile<S>,
    v: &mut Vec<Violation>,
) -> Option<Vec<(u64, bool)>> {
    let (len, pages) = (data.len_bytes(), data.pool().page_count() as u64);
    let room = pages.saturating_sub(1) * data.pool().page_size() as u64;
    if len > room {
        v.push(Violation::RecordCorrupt {
            what: "data-file length",
            detail: format!("page 0 holds {len} bytes, {pages} pages hold at most {room}"),
        });
        return None;
    }
    let (mut records, mut off) = (Vec::new(), 0u64);
    while off < len {
        match data.record_span(off) {
            Ok((size, dead)) if off + 4 + u64::from(size) <= len => {
                records.push((off, dead));
                off += 4 + u64::from(size);
            }
            Ok((size, _)) => {
                v.push(Violation::RecordCorrupt {
                    what: "data-file record",
                    detail: format!("offset {off}: {size} bytes run past the length {len}"),
                });
                return None;
            }
            Err(e) => {
                v.push(Violation::RecordCorrupt {
                    what: "data-file record",
                    detail: format!("offset {off}: {e}"),
                });
                return None;
            }
        }
    }
    Some(records)
}
