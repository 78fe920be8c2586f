//! A structure page is read in place (`page::Page`) and checked at open
//! (`page::check_page`). Both are held against a plain walk of the encoded
//! entries, written here from the format alone: the count word, one
//! parenthesis bit per entry, then one code per open, one byte wide when
//! every code on the page is below 256, else two.
//!
//! Over the pages of all five datasets and of a document with 300 element
//! names (codes on both sides of 255), over byte mutations and truncations
//! of them, and over random entry sequences:
//! * `check_page` refuses exactly what the walk refuses, and never panics;
//! * the reader accepts whatever `check_page` accepts, and its entry,
//!   level and tag at every index, and `close_from` from every open, equal
//!   the walk's; on what only the reader accepts, no accessor panics;
//! * `close_from` from every offset and every starting depth 1..=9 equals
//!   a bit-by-bit walk of the parenthesis bits — on every stored page and
//!   on random sequences whose length is not a multiple of 8, so the table
//!   steps over partial first and last bytes are covered.

#![cfg(test)]

use std::sync::OnceLock;

use proptest::prelude::*;

use nok_core::page::{check_page, encode_content, read_header, Entry, Page, HEADER_SIZE};
use nok_core::{TagCode, XmlDb};
use nok_datagen::{generate, DatasetKind};

/// A document with 300 distinct element names, so its pages hold codes on
/// both sides of 255.
fn wide_xml() -> String {
    let mut xml = String::from("<root>");
    for i in 0..600 {
        let name = format!("e{}", (i * 7) % 300);
        xml.push_str(&format!("<{name}><k{}/></{name}>", i % 5));
    }
    xml.push_str("</root>");
    xml
}

/// The raw structure pages of every dataset at scale 0.01, and of the
/// wide document at 1 KiB pages.
fn pages() -> &'static [Vec<u8>] {
    static PAGES: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    PAGES.get_or_init(|| {
        let mut dbs: Vec<_> = DatasetKind::ALL
            .iter()
            .map(|&kind| XmlDb::build_in_memory(&generate(kind, 0.01).xml).unwrap())
            .collect();
        dbs.push(
            XmlDb::build_in_memory_with(&wide_xml(), nok_core::BuildOptions::default(), 1024)
                .unwrap(),
        );
        let mut pages = Vec::new();
        for db in &dbs {
            let pool = db.store().pool();
            for id in 0..pool.page_count() {
                pages.push(pool.get(id).unwrap().read().to_vec());
            }
        }
        pages
    })
}

/// What the walk makes of a page: its `st`, `nbytes`, and every entry
/// with its level.
type Walked = (u16, u16, Vec<(Entry, u16)>);

/// The plain walk: parse the encoding entry by entry, refusing anything
/// not in canonical form.
fn walk(buf: &[u8]) -> Option<Walked> {
    let header = read_header(buf)?;
    let content = buf.get(HEADER_SIZE..HEADER_SIZE + usize::from(header.nbytes))?;
    if content.is_empty() {
        return Some((header.st, header.nbytes, Vec::new()));
    }
    let n = usize::from(u16::from_le_bytes([*content.first()?, *content.get(1)?]));
    let parens = content.get(2..2 + n.div_ceil(8))?;
    if n == 0 || (n % 8 != 0 && parens[parens.len() - 1] >> (n % 8) != 0) {
        return None;
    }
    let bit = |i: usize| parens[i / 8] >> (i % 8) & 1 == 1;
    let opens = (0..n).filter(|&i| bit(i)).count();
    let tags = &content[2 + parens.len()..];
    let width = match tags.len() {
        l if l == opens => 1,
        l if l == 2 * opens => 2,
        _ => return None,
    };
    let codes: Vec<u16> = tags
        .chunks(width)
        .map(|c| c.iter().rev().fold(0u16, |v, &b| v << 8 | u16::from(b)))
        .collect();
    let max = codes.iter().copied().max().unwrap_or(0);
    if max >= 1 << 15 || (width == 2 && max < 256) {
        return None;
    }
    let (mut level, mut k, mut out) = (i32::from(header.st), 0, Vec::new());
    for i in 0..n {
        let entry = if bit(i) {
            k += 1;
            level += 1;
            Entry::Open(TagCode(codes[k - 1]))
        } else {
            level -= 1;
            Entry::Close
        };
        if level < 0 {
            return None;
        }
        out.push((entry, level as u16));
    }
    Some((header.st, header.nbytes, out))
}

/// `check_page`'s verdict, in the walk's terms.
fn checked(buf: &[u8]) -> Option<(u16, u16, usize, u64)> {
    check_page(buf).map(|c| (c.header.st, c.header.nbytes, c.entries, c.opens))
}

fn walked(buf: &[u8]) -> Option<(u16, u16, usize, u64)> {
    walk(buf).map(|(st, nbytes, entries)| {
        let opens = entries.iter().filter(|(e, _)| e.is_open()).count() as u64;
        (st, nbytes, entries.len(), opens)
    })
}

/// Every accessor of the reader, at every index and from every open.
fn read_all(page: &Page<'_>) -> (Vec<Option<Entry>>, Vec<u16>, Vec<Option<usize>>) {
    let n = page.len();
    let got: Vec<_> = (0..=n).map(|i| page.get(i)).collect();
    let levels: Vec<_> = (0..n).map(|i| page.level(i)).collect();
    let closes = (0..n)
        .filter(|&i| page.is_open(i))
        .map(|i| page.close_from(i + 1, &mut 1))
        .collect();
    let _ = (
        page.entries().count(),
        page.levels().count(),
        page.max_code(),
    );
    (got, levels, closes)
}

/// The reader agrees with the walk on `buf`, which the walk accepts.
fn reader_matches_walk(buf: &[u8]) {
    let (_, _, entries) = walk(buf).expect("walk accepts");
    let page = Page::new(buf).expect("the reader accepts what the walk accepts");
    let (got, levels, closes) = read_all(&page);
    let want: Vec<_> = entries
        .iter()
        .map(|&(e, _)| Some(e))
        .chain([None])
        .collect();
    assert_eq!(got, want);
    assert_eq!(levels, entries.iter().map(|&(_, l)| l).collect::<Vec<_>>());
    assert_eq!(
        page.entries().collect::<Vec<_>>(),
        entries.iter().map(|&(e, _)| e).collect::<Vec<_>>()
    );
    let want_closes: Vec<_> = entries
        .iter()
        .enumerate()
        .filter(|(_, (e, _))| e.is_open())
        .map(|(i, &(_, l))| {
            (i + 1..entries.len())
                .find(|&j| entries[j].1 < l)
                .map(|j| j + 1)
        })
        .collect();
    assert_eq!(closes, want_closes);
}

/// `close_from` from every offset and starting depth 1..=9 against a walk
/// of the parenthesis bits one at a time: the index after the close that
/// brings the depth to zero, or the depth left at the end of the page.
fn close_from_matches_bit_walk(page: &Page<'_>) {
    let n = page.len();
    for from in 0..=n {
        for depth in 1..=9u32 {
            let mut want_open = i64::from(depth);
            let mut want = None;
            for i in from..n {
                want_open += if page.is_open(i) { 1 } else { -1 };
                if want_open == 0 {
                    want = Some(i + 1);
                    break;
                }
            }
            let mut open = depth;
            let got = page.close_from(from, &mut open);
            assert_eq!(got, want, "from {from}, depth {depth}, {n} entries");
            assert_eq!(i64::from(open), want_open, "from {from}, depth {depth}");
        }
    }
}

#[test]
fn every_stored_page_checks_as_it_decodes() {
    let pages = pages();
    assert!(pages.len() > 5);
    let widths: Vec<usize> = pages
        .iter()
        .filter_map(|p| Page::new(p))
        .filter(|p| !p.is_empty())
        .map(|p| p.tag_width())
        .collect();
    assert!(widths.contains(&1) && widths.contains(&2), "{widths:?}");
    for (i, page) in pages.iter().enumerate() {
        assert!(walk(page).is_some(), "page {i} does not walk");
        assert_eq!(checked(page), walked(page), "page {i}");
        reader_matches_walk(page);
        close_from_matches_bit_walk(&Page::new(page).expect("reads"));
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
        prop_assert_eq!(checked(&buf), walked(&buf));
        if walk(&buf).is_some() {
            reader_matches_walk(&buf);
        } else if let Some(page) = Page::new(&buf) {
            read_all(&page);
        }
    }

    #[test]
    fn random_entries_read_as_written(
        shape in prop::collection::vec((any::<bool>(), 0u16..600), 1..400),
        st in 0u16..4,
    ) {
        // A prefix-balanced sequence from the coin flips: an open (with a
        // code from either side of 255) or, when one is open, a close.
        let mut entries = Vec::new();
        let mut depth = i32::from(st);
        for (open, code) in shape {
            if open || depth == 0 {
                entries.push(Entry::Open(TagCode(code)));
                depth += 1;
            } else {
                entries.push(Entry::Close);
                depth -= 1;
            }
        }
        let content = encode_content(&entries);
        let mut buf = vec![0u8; HEADER_SIZE + content.len()];
        nok_core::page::write_header(&mut buf, &nok_core::page::PageHeader {
            st,
            lo: 0,
            hi: 0,
            next: nok_core::page::NO_PAGE,
            nbytes: content.len() as u16,
        });
        buf[HEADER_SIZE..].copy_from_slice(&content);
        prop_assert!(check_page(&buf).is_some());
        prop_assert_eq!(checked(&buf), walked(&buf));
        reader_matches_walk(&buf);
    }

    #[test]
    fn close_from_steps_partial_bytes_as_the_bit_walk(
        bits in prop::collection::vec(any::<bool>(), 1..200),
        st in 0u16..12,
    ) {
        // Any open/close sequence that keeps its level non-negative, cut
        // to a length that leaves a partial last byte.
        let mut bits = bits;
        if bits.len().is_multiple_of(8) {
            bits.pop();
        }
        let mut level = i32::from(st);
        let entries: Vec<Entry> = bits
            .iter()
            .map(|&open| {
                if open || level == 0 {
                    level += 1;
                    Entry::Open(TagCode(7))
                } else {
                    level -= 1;
                    Entry::Close
                }
            })
            .collect();
        let content = encode_content(&entries);
        let mut buf = vec![0u8; HEADER_SIZE + content.len()];
        nok_core::page::write_header(&mut buf, &nok_core::page::PageHeader {
            st,
            lo: 0,
            hi: 0,
            next: nok_core::page::NO_PAGE,
            nbytes: content.len() as u16,
        });
        buf[HEADER_SIZE..].copy_from_slice(&content);
        let page = Page::new(&buf).expect("reads");
        prop_assert!(!page.len().is_multiple_of(8));
        close_from_matches_bit_walk(&page);
    }
}
