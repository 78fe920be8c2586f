//! Corruption-injection suite: for every defect class the analyzer claims
//! to detect, damage a real store in exactly that way and assert the
//! matching [`Violation::kind`] is reported (extra collateral kinds are
//! allowed — damage cascades — but the primary class must be present).

#![cfg(test)]

use std::sync::Arc;

use nok_core::dewey::Dewey;
use nok_core::page::{HEADER_SIZE, OFF_LO, OFF_NBYTES, OFF_NEXT, OFF_ST};
use nok_core::physical::{tag_posting_key, IdRecord, TagPosting};
use nok_core::store::{BuildOptions, NodeAddr};
use nok_core::values::{hash_key, DataFile};
use nok_core::LockDataFile;
use nok_core::XmlDb;
use nok_pager::codec::{get_u16, put_u16, put_u32};
use nok_pager::{BufferPool, MemStorage, PageId};
use nok_verify::{verify_chain, verify_db, verify_store, VerifyOptions};

const BIB: &str = r#"<bib>
  <book year="1994"><title>TCP/IP Illustrated</title>
    <author><last>Stevens</last><first>W.</first></author><price>65.95</price></book>
  <book year="2000"><title>Data on the Web</title>
    <author><last>Abiteboul</last><first>S.</first></author><price>39.95</price></book>
</bib>"#;

/// Small structural pages and a wide document so the chain has several
/// pages to damage.
fn tiny_db() -> XmlDb<MemStorage> {
    let mut xml = String::from("<log>");
    for i in 0..120 {
        xml.push_str(&format!("<rec><msg>m{i}</msg><lvl>info</lvl></rec>"));
    }
    xml.push_str("</log>");
    let db = XmlDb::build_in_memory_with(&xml, BuildOptions::default(), 64).unwrap();
    assert!(db.store().chain_len() >= 4, "need a multi-page chain");
    db
}

/// Page id at chain position `i` (chain order, not allocation order).
fn chain_page(db: &XmlDb<MemStorage>, i: u32) -> PageId {
    db.store().dir_at(i).unwrap().id
}

/// Overwrite raw bytes of one structural page.
fn patch(db: &XmlDb<MemStorage>, page: PageId, f: impl FnOnce(&mut [u8])) {
    let handle = db.store().pool().get(page).unwrap();
    f(&mut handle.write());
}

/// Re-encode a page's content with one more `)` at the end: bump the count
/// word and, when the parenthesis vector grows a byte, shift the tag codes
/// up by one. The new bit is a zero the padding already held.
fn append_close(buf: &mut [u8]) {
    let nbytes = get_u16(buf, OFF_NBYTES) as usize;
    let n = get_u16_le(buf, HEADER_SIZE) as usize;
    if n.is_multiple_of(8) {
        assert!(HEADER_SIZE + nbytes < buf.len(), "page has slack");
        let tags = HEADER_SIZE + 2 + n / 8;
        buf.copy_within(tags..HEADER_SIZE + nbytes, tags + 1);
        buf[tags] = 0;
        put_u16(buf, OFF_NBYTES, nbytes as u16 + 1);
    }
    buf[HEADER_SIZE..HEADER_SIZE + 2].copy_from_slice(&(n as u16 + 1).to_le_bytes());
}

/// Re-encode a page's content without its last entry, which must be a `)`
/// (the chain's final page always ends with the root's close).
fn drop_last_close(buf: &mut [u8]) {
    let nbytes = get_u16(buf, OFF_NBYTES) as usize;
    let n = get_u16_le(buf, HEADER_SIZE) as usize;
    assert!(n >= 2);
    let last = n - 1;
    assert_eq!(
        buf[HEADER_SIZE + 2 + last / 8] >> (last % 8) & 1,
        0,
        "last entry is a close"
    );
    if last.is_multiple_of(8) {
        // The parenthesis vector loses its last byte.
        let tags = HEADER_SIZE + 2 + n.div_ceil(8);
        buf.copy_within(tags..HEADER_SIZE + nbytes, tags - 1);
        put_u16(buf, OFF_NBYTES, nbytes as u16 - 1);
    }
    buf[HEADER_SIZE..HEADER_SIZE + 2].copy_from_slice(&(last as u16).to_le_bytes());
}

/// The content's count word is little-endian (the header fields go through
/// the pager codec).
fn get_u16_le(buf: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([buf[at], buf[at + 1]])
}

/// The LEB128 varint at `*pos` of a synopsis block, moving `*pos` past it.
fn read_varint(buf: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let byte = buf[*pos];
        *pos += 1;
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            break;
        }
    }
    v
}

#[test]
fn st_corruption_is_flagged() {
    let db = tiny_db();
    let pid = chain_page(&db, 1);
    patch(&db, pid, |buf| {
        let st = get_u16(buf, OFF_ST);
        put_u16(buf, OFF_ST, st + 3);
    });
    let rep = verify_chain(db.store().pool());
    assert!(rep.has_kind("st-mismatch"), "{rep}");
    // Levels are recomputed from the running level, not the stored st, so a
    // wrong st must not cascade into bogus bounds violations.
    assert!(!rep.has_kind("bounds-mismatch"), "{rep}");
    // The in-memory directory still mirrors the build-time header, so the
    // store-level pass additionally reports the directory desync.
    let rep = verify_store(db.store());
    assert!(rep.has_kind("directory-mismatch"), "{rep}");
}

#[test]
fn stale_empty_page_st_is_flagged() {
    // Delete a multi-page subtree so the chain keeps empty pages, then give
    // one of them a plausible-looking level instead of the canonical
    // sentinel. Both the raw scan and the directory cross-check must object.
    let mut xml = String::from("<r><victim>");
    for i in 0..200 {
        xml.push_str(&format!("<v>{i}</v>"));
    }
    xml.push_str("</victim><keep>yes</keep></r>");
    let mut db = XmlDb::build_in_memory_with(&xml, BuildOptions::default(), 64).unwrap();
    db.delete_subtree(&Dewey::from_components(vec![0, 0]))
        .unwrap();
    let empty = (0..db.store().chain_len())
        .map(|r| db.store().dir_at(r).unwrap())
        .find(|e| e.entries == 0)
        .expect("multi-page delete leaves an empty page");
    assert_eq!(empty.st, nok_core::page::EMPTY_PAGE_ST);
    patch(&db, empty.id, |buf| put_u16(buf, OFF_ST, 2));
    let rep = verify_chain(db.store().pool());
    assert!(rep.has_kind("st-mismatch"), "{rep}");
    let rep = verify_store(db.store());
    assert!(rep.has_kind("directory-mismatch"), "{rep}");
}

#[test]
fn bounds_corruption_is_flagged() {
    let db = tiny_db();
    let pid = chain_page(&db, 1);
    patch(&db, pid, |buf| {
        let lo = get_u16(buf, OFF_LO);
        put_u16(buf, OFF_LO, lo + 1);
    });
    let rep = verify_chain(db.store().pool());
    assert!(rep.has_kind("bounds-mismatch"), "{rep}");
    assert!(!rep.has_kind("st-mismatch"), "{rep}");
}

#[test]
fn broken_next_pointer_is_flagged() {
    let db = tiny_db();
    let pid = chain_page(&db, 0);
    patch(&db, pid, |buf| put_u32(buf, OFF_NEXT, 9_999));
    let rep = verify_chain(db.store().pool());
    assert!(rep.has_kind("broken-chain"), "{rep}");
}

#[test]
fn chain_cycle_is_flagged() {
    let db = tiny_db();
    let pid = chain_page(&db, 2);
    patch(&db, pid, |buf| put_u32(buf, OFF_NEXT, 0));
    let rep = verify_chain(db.store().pool());
    assert!(rep.has_kind("chain-cycle"), "{rep}");
}

#[test]
fn nbytes_overflow_is_flagged() {
    let db = tiny_db();
    let pid = chain_page(&db, 1);
    patch(&db, pid, |buf| {
        let len = buf.len() as u16;
        put_u16(buf, OFF_NBYTES, len); // claims more than page_size - header
    });
    let rep = verify_chain(db.store().pool());
    assert!(rep.has_kind("page-overflow"), "{rep}");
}

#[test]
fn truncated_entry_is_flagged() {
    let db = tiny_db();
    let pid = chain_page(&db, 1);
    patch(&db, pid, |buf| {
        // Turn the page's first close into an open: the tag area now holds
        // one code fewer than the page has opens. Reading must fail without
        // panicking.
        let n = get_u16_le(buf, HEADER_SIZE) as usize;
        let parens = HEADER_SIZE + 2;
        let i = (0..n)
            .find(|i| buf[parens + i / 8] >> (i % 8) & 1 == 0)
            .expect("a page of a balanced string holds a close");
        buf[parens + i / 8] |= 1 << (i % 8);
    });
    let rep = verify_chain(db.store().pool());
    assert!(rep.has_kind("tag-width"), "{rep}");
}

#[test]
fn stray_close_is_a_nesting_violation() {
    let db = tiny_db();
    let last = chain_page(&db, db.store().chain_len() - 1);
    patch(&db, last, append_close);
    let rep = verify_chain(db.store().pool());
    assert!(rep.has_kind("nesting-violation"), "{rep}");
    assert!(rep.has_kind("unbalanced-string"), "{rep}");
}

#[test]
fn dropped_closes_unbalance_the_string() {
    let db = tiny_db();
    let last = chain_page(&db, db.store().chain_len() - 1);
    patch(&db, last, drop_last_close);
    let rep = verify_chain(db.store().pool());
    assert!(rep.has_kind("unbalanced-string"), "{rep}");
}

// ---------------------------------------------------------------------
// Canonical-form and tag-code damage in the bit-packed content.
// ---------------------------------------------------------------------

#[test]
fn succinct_store_starts_clean() {
    let db = tiny_db();
    let rep = verify_chain(db.store().pool());
    assert!(rep.is_clean(), "{rep}");
}

#[test]
fn succinct_padding_bit_is_flagged() {
    let db = tiny_db();
    // Find a page whose entry count is not a byte multiple, so the last
    // parens byte has padding bits, and set the topmost (always padding
    // when n % 8 != 0).
    let victim = (0..db.store().chain_len())
        .map(|r| db.store().dir_at(r).unwrap())
        .find(|e| e.entries > 0 && e.entries % 8 != 0)
        .expect("some page has a ragged entry count");
    patch(&db, victim.id, |buf| {
        let n = victim.entries as usize;
        buf[HEADER_SIZE + 2 + (n - 1) / 8] |= 0x80;
    });
    let rep = verify_chain(db.store().pool());
    assert!(rep.has_kind("succinct-encoding"), "{rep}");
}

#[test]
fn succinct_zero_count_with_content_is_flagged() {
    let db = tiny_db();
    let pid = chain_page(&db, 1);
    patch(&db, pid, |buf| {
        // Zero the entry-count word while nbytes still claims content: the
        // canonical empty page has nbytes == 0.
        put_u16(buf, HEADER_SIZE, 0);
    });
    let rep = verify_chain(db.store().pool());
    assert!(rep.has_kind("succinct-encoding"), "{rep}");
}

#[test]
fn succinct_truncated_tag_stream_is_flagged() {
    let db = tiny_db();
    let victim = (0..db.store().chain_len())
        .map(|r| db.store().dir_at(r).unwrap())
        .find(|e| e.entries > 0)
        .unwrap();
    patch(&db, victim.id, |buf| {
        // Cut the last content byte: the tag area no longer holds a code
        // for every open entry.
        let nbytes = get_u16(buf, OFF_NBYTES);
        assert!(nbytes >= 4);
        put_u16(buf, OFF_NBYTES, nbytes - 1);
    });
    let rep = verify_chain(db.store().pool());
    assert!(rep.has_kind("tag-width"), "{rep}");
}

#[test]
fn two_byte_codes_that_fit_one_byte_are_flagged() {
    // Every code of BIB is below 256, so its page stores them one byte
    // wide. Rewrite the page's tag area two bytes per code: the page still
    // reads, but its width is not the canonical one.
    let db = XmlDb::build_in_memory(BIB).unwrap();
    let pid = chain_page(&db, 0);
    patch(&db, pid, |buf| {
        let nbytes = get_u16(buf, OFF_NBYTES) as usize;
        let n = get_u16_le(buf, HEADER_SIZE) as usize;
        let tags = HEADER_SIZE + 2 + n.div_ceil(8);
        let codes = buf[tags..HEADER_SIZE + nbytes].to_vec();
        assert!(
            HEADER_SIZE + nbytes + codes.len() <= buf.len(),
            "page has slack"
        );
        for (k, &c) in codes.iter().enumerate() {
            buf[tags + 2 * k..tags + 2 * k + 2].copy_from_slice(&u16::from(c).to_le_bytes());
        }
        put_u16(buf, OFF_NBYTES, (nbytes + codes.len()) as u16);
    });
    assert!(nok_core::page::Page::new(&db.store().pool().get(pid).unwrap().read()).is_some());
    let rep = verify_chain(db.store().pool());
    assert_eq!(rep.kinds(), ["tag-width"], "{rep}");
}

#[test]
fn succinct_tag_code_out_of_range_is_flagged() {
    use nok_core::page::{self, PageHeader, NO_PAGE};
    // Hand-build a single balanced page `()` whose only tag code is 0xFFFF —
    // a wellformed two-byte code, but outside the 15-bit tag-code space.
    let pool = BufferPool::new(MemStorage::with_page_size(64));
    let (_pid, handle) = pool.allocate().unwrap();
    {
        let mut buf = handle.write();
        let content: [u8; 5] = [2, 0, 0x01, 0xFF, 0xFF];
        page::write_header(
            &mut buf,
            &PageHeader {
                st: 0,
                lo: 0,
                hi: 1,
                next: NO_PAGE,
                nbytes: content.len() as u16,
            },
        );
        buf[HEADER_SIZE..HEADER_SIZE + content.len()].copy_from_slice(&content);
    }
    let rep = verify_chain(&pool);
    assert!(rep.has_kind("tag-code-out-of-range"), "{rep}");
}

// ---------------------------------------------------------------------
// Index-layer injections (default page size; damage via the index APIs).
// ---------------------------------------------------------------------

#[test]
fn orphaned_data_record_is_flagged_in_strict_mode() {
    let db = XmlDb::build_in_memory(BIB).unwrap();
    db.data_cell().lock_data().put("orphan text").unwrap();
    let lenient = verify_db(&db, VerifyOptions::default());
    assert!(
        lenient.is_clean(),
        "lazy deletion makes orphans legal: {lenient}"
    );
    let strict = verify_db(&db, VerifyOptions::strict());
    assert!(strict.has_kind("orphan-value-record"), "{strict}");
}

#[test]
fn orphan_id_entry_is_flagged() {
    let db = XmlDb::build_in_memory(BIB).unwrap();
    let ghost = Dewey::from_components(vec![0, 99]);
    let rec = IdRecord {
        addr: NodeAddr { page: 0, entry: 0 },
        value: None,
    };
    db.bt_id().insert(&ghost.to_key(), &rec.to_bytes()).unwrap();
    let rep = verify_db(&db, VerifyOptions::default());
    assert!(rep.has_kind("orphan-id-entry"), "{rep}");
}

#[test]
fn missing_id_entry_is_flagged() {
    let db = XmlDb::build_in_memory(BIB).unwrap();
    let victim = db.query("//author").unwrap()[0].dewey.clone();
    db.bt_id().delete(&victim.to_key(), None).unwrap();
    let rep = verify_db(&db, VerifyOptions::default());
    assert!(rep.has_kind("missing-id-entry"), "{rep}");
}

#[test]
fn wrong_id_address_is_flagged() {
    let db = XmlDb::build_in_memory(BIB).unwrap();
    let victim = db.query("//author").unwrap()[0].dewey.clone();
    db.bt_id().delete(&victim.to_key(), None).unwrap();
    let rec = IdRecord {
        addr: NodeAddr {
            page: 0,
            entry: 4_000,
        },
        value: None,
    };
    db.bt_id()
        .insert(&victim.to_key(), &rec.to_bytes())
        .unwrap();
    let rep = verify_db(&db, VerifyOptions::default());
    assert!(rep.has_kind("id-addr-mismatch"), "{rep}");
}

/// Dewey key bytes `to_key` never writes — a 5-byte code above
/// `u32::MAX`, an invalid first byte, a truncated code — are refused as
/// keys of B+i and B+t and as B+v postings, not read as some other id.
#[test]
fn non_canonical_dewey_keys_are_flagged() {
    let bad_tails: [&[u8]; 3] = [
        &[0xf0, 0xff, 0xff, 0xff, 0xff],
        &[0xf8],
        &[0x85, 0x00, 0x80],
    ];
    for tail in bad_tails {
        let key = [&[0x00][..], tail].concat();
        let db = XmlDb::build_in_memory(BIB).unwrap();
        let rec = IdRecord {
            addr: NodeAddr { page: 0, entry: 0 },
            value: None,
        };
        db.bt_id().insert(&key, &rec.to_bytes()).unwrap();
        let rep = verify_db(&db, VerifyOptions::default());
        assert!(rep.has_kind("record-corrupt"), "B+i {tail:02x?}: {rep}");

        let db = XmlDb::build_in_memory(BIB).unwrap();
        let tag = db.dict().lookup("book").unwrap();
        let tag_key = [&tag.to_key()[..], &key].concat();
        db.bt_tag()
            .insert(&tag_key, &TagPosting::value(NodeAddr { page: 0, entry: 1 }))
            .unwrap();
        let rep = verify_db(&db, VerifyOptions::default());
        assert!(rep.has_kind("record-corrupt"), "B+t {tail:02x?}: {rep}");

        let db = XmlDb::build_in_memory(BIB).unwrap();
        db.bt_val().insert(&hash_key("65.95"), &key).unwrap();
        let rep = verify_db(&db, VerifyOptions::default());
        assert!(rep.has_kind("record-corrupt"), "B+v {tail:02x?}: {rep}");
    }
}

/// A B+i record whose varints are cut short, spelled in more bytes than
/// needed, or followed by stray bytes is corrupt — never a shorter record.
#[test]
fn truncated_or_overlong_record_varints_are_flagged() {
    let db = XmlDb::build_in_memory(BIB).unwrap();
    let price = db.query("//price").unwrap()[0].clone();
    let good = db
        .bt_id()
        .get_first(&price.dewey.to_key())
        .unwrap()
        .unwrap();
    let overlong = [&[good[0] | 0x80, 0x00][..], &good[1..]].concat();
    let trailing = [&good[..], &[0]].concat();
    for (what, bytes) in [
        ("truncated", &good[..good.len() - 1]),
        ("overlong", &overlong[..]),
        ("trailing", &trailing[..]),
    ] {
        let db = XmlDb::build_in_memory(BIB).unwrap();
        let key = price.dewey.to_key();
        db.bt_id().delete(&key, None).unwrap();
        db.bt_id().insert(&key, bytes).unwrap();
        let rep = verify_db(&db, VerifyOptions::default());
        assert!(rep.has_kind("record-corrupt"), "{what}: {rep}");
    }
}

/// A B+t posting under the right key holding another node's address.
#[test]
fn wrong_tag_posting_address_is_flagged() {
    let db = XmlDb::build_in_memory(BIB).unwrap();
    let author = db.query("//author").unwrap()[0].clone();
    let tag = db.dict().lookup("author").unwrap();
    let key = tag_posting_key(tag, &author.dewey);
    db.bt_tag().delete(&key, None).unwrap();
    let elsewhere = NodeAddr {
        page: author.addr.page,
        entry: author.addr.entry + 1,
    };
    db.bt_tag()
        .insert(&key, &TagPosting::value(elsewhere))
        .unwrap();
    let rep = verify_db(&db, VerifyOptions::default());
    assert!(rep.has_kind("tag-addr-mismatch"), "{rep}");
    assert!(!rep.has_kind("missing-tag-posting"), "{rep}");
}

#[test]
fn missing_tag_posting_is_flagged() {
    let db = XmlDb::build_in_memory(BIB).unwrap();
    let (k, v) = db.bt_tag().iter_all().unwrap().next().unwrap().unwrap();
    db.bt_tag().delete(&k, Some(&v)).unwrap();
    let rep = verify_db(&db, VerifyOptions::default());
    assert!(rep.has_kind("missing-tag-posting"), "{rep}");
    assert!(rep.has_kind("count-mismatch"), "{rep}");
}

#[test]
fn missing_value_posting_is_flagged() {
    let db = XmlDb::build_in_memory(BIB).unwrap();
    let (k, v) = db.bt_val().iter_all().unwrap().next().unwrap().unwrap();
    db.bt_val().delete(&k, Some(&v)).unwrap();
    let rep = verify_db(&db, VerifyOptions::default());
    assert!(rep.has_kind("missing-value-posting"), "{rep}");
}

#[test]
fn orphan_value_posting_is_flagged() {
    let db = XmlDb::build_in_memory(BIB).unwrap();
    // The root element holds no text value, so a posting for it is stray.
    db.bt_val()
        .insert(&hash_key("ghost"), &Dewey::root().to_key())
        .unwrap();
    let rep = verify_db(&db, VerifyOptions::default());
    assert!(rep.has_kind("orphan-value-posting"), "{rep}");
}

#[test]
fn wrong_value_hash_is_flagged() {
    let db = XmlDb::build_in_memory(BIB).unwrap();
    // A price node carries "65.95"; file a posting for it under a hash
    // that does not hash its value.
    let price = db.query("//price").unwrap()[0].dewey.clone();
    db.bt_val()
        .insert(&hash_key("not the value"), &price.to_key())
        .unwrap();
    let rep = verify_db(&db, VerifyOptions::default());
    assert!(rep.has_kind("value-hash-mismatch"), "{rep}");
}

/// An on-disk store of `/r/a<i>/b<j>`, 70 × 70: more distinct paths than
/// the synopsis keeps, so some `b`s are folded into their `a`'s residual.
/// Returns the directory, its `stats.blk` bytes, and the offset of the
/// block's trie section (the big-endian declared node count).
fn folded_store(name: &str) -> (std::path::PathBuf, Vec<u8>, usize) {
    let dir = std::env::temp_dir().join(format!("nok-verify-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut xml = String::from("<r>");
    for i in 0..70 {
        xml.push_str(&format!("<a{i}>"));
        (0..70).for_each(|j| xml.push_str(&format!("<b{j}/>")));
        xml.push_str(&format!("</a{i}>"));
    }
    xml.push_str("</r>");
    let db = XmlDb::create_on_disk(&dir, &xml).unwrap();
    assert!(db.synopsis().paths().folded_nodes() > 0);
    assert!(verify_db(&db, VerifyOptions::strict()).is_clean());
    drop(db);
    let block = std::fs::read(dir.join("stats.blk")).unwrap();
    // magic, version, node count; then the tag section: count, then 12
    // bytes each (code, count, depth bound).
    let tag_n = u32::from_be_bytes(block[18..22].try_into().unwrap()) as usize;
    (dir, block, 22 + 12 * tag_n)
}

#[test]
fn bumped_residual_is_flagged() {
    let (dir, mut block, trie) = folded_store("residual");
    // After the declared node count come varints: the virtual root's
    // residual and child count, then `tag, count, residual, children` per
    // node in preorder. Find the first folded node and fold one node more.
    let mut pos = trie + 4;
    let mut next = |block: &[u8]| {
        let at = pos;
        let v = read_varint(block, &mut pos);
        (v, at)
    };
    next(&block);
    next(&block);
    let at = loop {
        next(&block);
        next(&block);
        let (residual, at) = next(&block);
        next(&block);
        if residual > 0 {
            break at;
        }
    };
    block[at] ^= 1;
    std::fs::write(dir.join("stats.blk"), &block).unwrap();
    let db = XmlDb::open_dir(&dir).unwrap();
    let rep = verify_db(&db, VerifyOptions::default());
    assert_eq!(rep.kinds(), ["synopsis-residual-mismatch"], "{rep}");
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// A depth bound lowered below a node of its tag would let the planner
/// pass over a subtree holding answers: it is flagged. One raised above
/// every node only weakens the proof, and is clean.
#[test]
fn lowered_depth_bound_is_flagged() {
    let (dir, good, _) = folded_store("depth");
    // Tag entries from offset 22: code u16, count u64, depth bound u16.
    let tag_n = u32::from_be_bytes(good[18..22].try_into().unwrap()) as usize;
    let bound_at = |i: usize| 22 + 12 * i + 10;
    let bound =
        |block: &[u8], i: usize| u16::from_be_bytes([block[bound_at(i)], block[bound_at(i) + 1]]);
    // The `b<j>` leaves sit at level 3.
    let deep = (0..tag_n).find(|&i| bound(&good, i) == 3).unwrap();
    for (new, kinds) in [(2u16, &["synopsis-depth-bound"][..]), (9, &[])] {
        let mut block = good.clone();
        block[bound_at(deep)..bound_at(deep) + 2].copy_from_slice(&new.to_be_bytes());
        std::fs::write(dir.join("stats.blk"), &block).unwrap();
        let db = XmlDb::open_dir(&dir).unwrap();
        let rep = verify_db(&db, VerifyOptions::strict());
        assert_eq!(rep.kinds(), kinds, "bound {new}: {rep}");
        drop(db);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn block_declaring_more_nodes_than_the_budget_is_rebuilt() {
    let (dir, good, trie) = folded_store("budget");
    let mut block = good.clone();
    let declared = nok_core::TRIE_NODE_BUDGET as u32 + 1;
    block[trie..trie + 4].copy_from_slice(&declared.to_be_bytes());
    std::fs::write(dir.join("stats.blk"), &block).unwrap();
    // The decoder refuses the block by its header; open recounts the
    // document and writes the block it should have found.
    let db = XmlDb::open_dir(&dir).unwrap();
    assert!(verify_db(&db, VerifyOptions::strict()).is_clean());
    drop(db);
    assert_eq!(std::fs::read(dir.join("stats.blk")).unwrap(), good);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn btree_page_corruption_is_flagged() {
    // Build with retained pool handles so the tag tree's pages can be
    // damaged directly (XmlDb exposes no mutable pool access).
    let mk = || Arc::new(BufferPool::new(MemStorage::new()));
    let tag_pool = mk();
    let db = XmlDb::build_with_pools(
        BIB,
        BuildOptions::default(),
        mk(),
        Arc::clone(&tag_pool),
        mk(),
        mk(),
        DataFile::in_memory(),
    )
    .unwrap();

    // META page 0 stores the root id at offset 4 (LE); the tag tree is
    // small enough that the root is a single leaf.
    let root = nok_pager::codec::get_u32(&tag_pool.image(0).unwrap(), 4);
    {
        let page = tag_pool.get(root).unwrap();
        let mut buf = page.write();
        // Swap the first and last slots: the keys differ (several distinct
        // tags), so the leaf's key order breaks. A lone leaf has an empty
        // prefix, so its slots start after the 10-byte leaf header.
        let ncells = get_u16(&buf, 1) as usize;
        assert!(ncells >= 2);
        assert_eq!(buf[9], 0, "empty prefix");
        let a = get_u16(&buf, 10);
        let b = get_u16(&buf, 10 + 2 * (ncells - 1));
        put_u16(&mut buf, 10, b);
        put_u16(&mut buf, 10 + 2 * (ncells - 1), a);
    }
    let rep = verify_db(&db, VerifyOptions::default());
    assert!(rep.has_kind("btree-structure"), "{rep}");
}

/// A B+t leaf cell whose header claims more bytes than the page holds is
/// reported, and the entry-level checks that scan the tree afterwards read
/// the damaged cell as empty instead of panicking.
#[test]
fn btree_cell_overrunning_its_page_is_flagged_not_panicking() {
    let mk = || Arc::new(BufferPool::new(MemStorage::new()));
    let tag_pool = mk();
    let db = XmlDb::build_with_pools(
        BIB,
        BuildOptions::default(),
        mk(),
        Arc::clone(&tag_pool),
        mk(),
        mk(),
        DataFile::in_memory(),
    )
    .unwrap();
    let root = nok_pager::codec::get_u32(&tag_pool.image(0).unwrap(), 4);
    {
        let page = tag_pool.get(root).unwrap();
        let mut buf = page.write();
        // The lone leaf's first slot (after its 10-byte header and empty
        // prefix) points at a cell; its head becomes 14 + 14 bytes at the
        // page's last byte.
        let last = buf.len() - 1;
        buf[last] = 0xEE;
        put_u16(&mut buf, 10, last as u16);
    }
    let rep = verify_db(&db, VerifyOptions::default());
    assert!(rep.has_kind("btree-structure"), "{rep}");
    assert!(rep.to_string().contains("overruns the cell area"), "{rep}");
}

#[test]
fn reports_carry_kinds_and_json() {
    let db = tiny_db();
    let pid = chain_page(&db, 1);
    patch(&db, pid, |buf| {
        let st = get_u16(buf, OFF_ST);
        put_u16(buf, OFF_ST, st + 1);
    });
    let rep = verify_chain(db.store().pool());
    assert!(!rep.is_clean());
    assert!(rep.kinds().contains(&"st-mismatch"));
    let json = rep.to_json();
    assert!(json.contains("\"clean\":false"), "{json}");
    assert!(json.contains("\"kind\":\"st-mismatch\""), "{json}");
}
