//! `page::check_page` validates a structure page and counts its opens
//! without decoding it; opening a store relies on it refusing exactly what
//! `page::decode_page` refuses. Over the pages of all five datasets, and
//! over byte mutations and truncations of them, the two must agree on
//! accept or refuse and, when both accept, on header, entries and opens.

#![cfg(test)]

use std::sync::OnceLock;

use proptest::prelude::*;

use nok_core::page::{check_page, decode_page};
use nok_core::XmlDb;
use nok_datagen::{generate, DatasetKind};

/// The raw structure pages of every dataset at scale 0.01.
fn pages() -> &'static [Vec<u8>] {
    static PAGES: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    PAGES.get_or_init(|| {
        let mut pages = Vec::new();
        for kind in DatasetKind::ALL {
            let db = XmlDb::build_in_memory(&generate(kind, 0.01).xml).unwrap();
            let pool = db.store().pool();
            for id in 0..pool.page_count() {
                pages.push(pool.get(id).unwrap().read().to_vec());
            }
        }
        pages
    })
}

/// What a reader makes of a page: `st`, `nbytes`, entries, opens.
type Verdict = Option<(u16, u16, usize, u64)>;

/// Both readers' verdict on `buf`.
fn verdicts(buf: &[u8]) -> (Verdict, Verdict) {
    let checked = check_page(buf).map(|c| (c.header.st, c.header.nbytes, c.entries, c.opens));
    let decoded = decode_page(buf).map(|d| {
        let opens = d.entries().filter(|e| e.is_open()).count() as u64;
        (d.header.st, d.header.nbytes, d.len(), opens)
    });
    (checked, decoded)
}

#[test]
fn every_stored_page_checks_as_it_decodes() {
    assert!(pages().len() > 5);
    for (i, page) in pages().iter().enumerate() {
        let (checked, decoded) = verdicts(page);
        assert!(decoded.is_some(), "page {i} does not decode");
        assert_eq!(checked, decoded, "page {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn mutated_pages_check_as_they_decode(
        which in any::<u64>(),
        edits in prop::collection::vec((any::<u64>(), any::<u8>(), 0u8..4), 1..4),
        cut in any::<u64>(),
        truncate in any::<bool>(),
    ) {
        let pages = pages();
        let mut buf = pages[(which % pages.len() as u64) as usize].clone();
        // Aim edits at the header and the content in use, where the rules
        // live (the slack past `nbytes` is read by neither), and some at
        // the last parenthesis byte, whose padding bits must stay zero.
        let used = (12 + u16::from_le_bytes([buf[10], buf[11]]) as usize).min(buf.len());
        let n = u16::from_le_bytes([buf[12], buf[13]]) as usize;
        let last_paren = (13 + n.div_ceil(8)).min(used - 1);
        for (at, byte, how) in edits {
            let at = (at % used as u64) as usize;
            match how {
                0 => buf[at] = byte,
                1 => buf[at] ^= 1 << (byte % 8),
                2 => buf[at] = buf[at].wrapping_add(1),
                _ => buf[last_paren] ^= 1 << (byte % 8),
            }
        }
        if truncate {
            buf.truncate((cut % (used as u64 + 1)) as usize);
        }
        let (checked, decoded) = verdicts(&buf);
        prop_assert_eq!(checked, decoded);
    }
}
