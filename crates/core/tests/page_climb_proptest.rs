//! `Page::open_above`, the backward excess search an index-route start
//! climbs to its ancestors with, against a linear reference: read the
//! parenthesis bits one at a time from entry `i - 1` down, an open lowering
//! the levels still to climb and a close raising them, until the climb
//! reaches zero at an open, or the page's first entry is passed.
//!
//! Held on every stored page of dblp and treebank built at 256-, 1024- and
//! 4096-byte structure pages, and on random pages filling those sizes, from
//! every entry and for every climb of 0..=10 levels.

#![cfg(test)]

use proptest::prelude::*;

use nok_core::page::{encode_content, write_header, Entry, Page, PageHeader, HEADER_SIZE, NO_PAGE};
use nok_core::{BuildOptions, TagCode, XmlDb};
use nok_datagen::{generate, DatasetKind};

const PAGE_SIZES: [usize; 3] = [256, 1024, 4096];

/// The reference: the climb one bit at a time.
fn climb_by_bits(page: &Page<'_>, i: usize, k: u32) -> Result<usize, u32> {
    let mut climb = i64::from(k);
    if climb == 0 {
        return Ok(i.min(page.len()));
    }
    for j in (0..i.min(page.len())).rev() {
        climb += if page.is_open(j) { -1 } else { 1 };
        if climb == 0 {
            return Ok(j);
        }
    }
    Err(climb as u32)
}

fn climbs_match(page: &Page<'_>) {
    for i in 0..=page.len() {
        for k in 0..=10u32 {
            assert_eq!(
                page.open_above(i, k),
                climb_by_bits(page, i, k),
                "entry {i} of {}, climb {k}",
                page.len()
            );
        }
    }
}

/// A page of `entries` under `st` open nodes.
fn page_of(entries: &[Entry], st: u16) -> Vec<u8> {
    let content = encode_content(entries);
    let mut buf = vec![0u8; HEADER_SIZE + content.len()];
    write_header(
        &mut buf,
        &PageHeader {
            st,
            lo: 0,
            hi: 0,
            next: NO_PAGE,
            nbytes: content.len() as u16,
        },
    );
    buf[HEADER_SIZE..].copy_from_slice(&content);
    buf
}

#[test]
fn every_stored_page_climbs_as_the_bit_walk() {
    for kind in [DatasetKind::Dblp, DatasetKind::Treebank] {
        let xml = generate(kind, 0.01).xml;
        for size in PAGE_SIZES {
            let db = XmlDb::build_in_memory_with(&xml, BuildOptions::default(), size).unwrap();
            let pool = db.store().pool();
            // Every page at the small sizes; a spread of them at 4 KiB.
            let step = if size == 4096 { 1 } else { 7 };
            for id in (0..pool.page_count()).step_by(step) {
                let image = pool.get(id).unwrap().read();
                if let Some(page) = Page::new(&image) {
                    climbs_match(&page);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_pages_climb_as_the_bit_walk(
        coins in prop::collection::vec(any::<bool>(), 1..4096),
        size in 0usize..3,
        st in 0u16..12,
    ) {
        // Any open/close sequence that keeps its level non-negative, cut
        // to what a page of the chosen size holds.
        let size = PAGE_SIZES[size];
        let mut level = i32::from(st);
        let (mut entries, mut opens) = (Vec::new(), 0);
        for open in coins {
            // The count word, a bit per entry and a byte per open.
            let n = entries.len() + 1;
            if HEADER_SIZE + 2 + n.div_ceil(8) + opens + usize::from(open) > size {
                break;
            }
            entries.push(if open || level == 0 {
                level += 1;
                opens += 1;
                Entry::Open(TagCode(3))
            } else {
                level -= 1;
                Entry::Close
            });
        }
        let buf = page_of(&entries, st);
        let page = Page::new(&buf).expect("reads");
        climbs_match(&page);
    }
}
