//! The structural page (paper §4.2, Figures 4–5): one slice of the
//! parenthesised string representation of the subject tree, bit-packed.
//!
//! ```text
//! +----+----+----+----------+--------+---------+-------------+----------------+-------+
//! | st | lo | hi | nextpage | nbytes | n (u16) | parens bits | LEB128 tag     | slack |
//! | u16| u16| u16| u32      | u16    |         | ceil(n/8) B | codes (opens)  |       |
//! +----+----+----+----------+--------+---------+-------------+----------------+-------+
//! ```
//!
//! * `st` — level of the last entry of the *previous* page (0 for the first
//!   page), so a page's per-entry levels can be recomputed locally.
//! * `lo`/`hi` — minimum/maximum entry level in this page; the feather-weight
//!   index used to skip pages during `FOLLOWING-SIBLING` (paper §5).
//! * `nextpage` — chain pointer; document order is the chain order, which is
//!   what makes page insertion (updates) possible.
//! * `nbytes` — content bytes in use: the count word, the parenthesis bits
//!   and the tag codes, exactly. An empty page has `nbytes == 0` (no count
//!   word).
//!
//! The content is the page's `n` entries as balanced parentheses, 1 bit per
//! entry: bit `i` is bit `i % 8` of byte `i / 8` (LSB-first), `1` = an
//! **open** entry (a character of Σ), `0` = a **close** (`)`). The opens'
//! tag codes follow in order as LEB128 varints (15-bit codes, so at most
//! three bytes, one for the first 128 tags). Padding bits of the last
//! parenthesis byte are zero. A node costs 2 bits plus its tag code —
//! about 1.3 bytes against the 3 bytes (`S = 2`, `P = 1`) of the paper's
//! byte-per-character accounting, which [`capacity`] still reproduces.
//!
//! Levels follow the paper's convention: scanning left to right starting
//! from `st`, an open entry's level is `prev + 1` and a close entry's level
//! is `prev - 1` (so the `)` of a node at depth `l` carries level `l-1`).
//!
//! This module is the only place that knows the encoding. The database
//! superblock records it, together with the index entry layout of
//! [`crate::physical`] and [`crate::dewey`], as [`FORMAT_BYTE`]; a
//! directory naming any other format (0 was a byte-per-entry page
//! encoding, 1 fixed-width index entries, neither read or written any
//! more) is refused at open with [`crate::error::SuperblockError`].

use crate::sigma::TagCode;
use crate::succinct::{read_varint, varint_len, write_varint};

/// The byte the database superblock stores for this page format and the
/// variable-length index entries.
pub const FORMAT_BYTE: u8 = 2;

/// The structure page format, as a type with exactly one value. It selects
/// nothing: it exists so [`crate::store::BuildOptions::backend`], which
/// `nokbench` prints into its reports, keeps naming what was built.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Succinct;

/// Header field offsets.
pub const OFF_ST: usize = 0;
pub const OFF_LO: usize = 2;
pub const OFF_HI: usize = 4;
pub const OFF_NEXT: usize = 6;
pub const OFF_NBYTES: usize = 10;
/// Total header size — the paper's V (st,lo,hi = 6) + I (next page, 4) plus
/// a 2-byte byte-count.
pub const HEADER_SIZE: usize = 12;

/// Sentinel for "end of chain".
pub const NO_PAGE: u32 = u32::MAX;

/// Canonical `st` for a structurally empty page (`entries == 0`), in both
/// the page header and the directory. An empty page has no start level — a
/// stale pre-delete `st` would pass a page test it should fail — so it
/// takes the same sentinel its `lo` does (`lo = u16::MAX, hi = 0`).
/// Navigation never consults an empty page's levels: every path checks
/// `entries == 0` first.
pub const EMPTY_PAGE_ST: u16 = u16::MAX;

/// One entry of the string representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// A character of Σ: the open tag of a node.
    Open(TagCode),
    /// A `)`: the close of a node.
    Close,
}

impl Entry {
    /// True for [`Entry::Open`].
    #[inline]
    pub fn is_open(self) -> bool {
        matches!(self, Entry::Open(_))
    }
}

/// The parsed header of a structural page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageHeader {
    /// Level of the last entry of the previous page (0 for the first page).
    pub st: u16,
    /// Minimum entry level in this page.
    pub lo: u16,
    /// Maximum entry level in this page.
    pub hi: u16,
    /// Next page in the chain, or [`NO_PAGE`].
    pub next: u32,
    /// Used content bytes.
    pub nbytes: u16,
}

/// Read the header fields of a raw page. `None` when the buffer is shorter
/// than a header — a corrupt or truncated page must be reportable, never a
/// slice-bounds panic.
pub fn read_header(buf: &[u8]) -> Option<PageHeader> {
    use nok_pager::codec::{get_u16, get_u32};
    if buf.len() < HEADER_SIZE {
        return None;
    }
    Some(PageHeader {
        st: get_u16(buf, OFF_ST),
        lo: get_u16(buf, OFF_LO),
        hi: get_u16(buf, OFF_HI),
        next: get_u32(buf, OFF_NEXT),
        nbytes: get_u16(buf, OFF_NBYTES),
    })
}

/// Write the header fields of a raw page.
pub fn write_header(buf: &mut [u8], h: &PageHeader) {
    use nok_pager::codec::{put_u16, put_u32};
    put_u16(buf, OFF_ST, h.st);
    put_u16(buf, OFF_LO, h.lo);
    put_u16(buf, OFF_HI, h.hi);
    put_u32(buf, OFF_NEXT, h.next);
    put_u16(buf, OFF_NBYTES, h.nbytes);
}

/// Incremental content-size accounting, so the builder and the update
/// splicer can pick page break points without encoding speculatively: the
/// content length is a pure function of `(entries, total varint bytes)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ContentAcc {
    /// Total entries.
    pub entries: usize,
    /// Total LEB128 bytes of the open entries' tag codes.
    pub tag_bytes: usize,
}

impl ContentAcc {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Account for one more entry.
    #[inline]
    pub fn add(&mut self, e: Entry) {
        self.entries += 1;
        if let Entry::Open(TagCode(code)) = e {
            self.tag_bytes += varint_len(code);
        }
    }

    /// Accumulator over a whole slice.
    pub fn over(entries: &[Entry]) -> Self {
        let mut acc = Self::new();
        for &e in entries {
            acc.add(e);
        }
        acc
    }

    /// Content bytes the accounted entries encode to.
    #[inline]
    pub fn bytes(&self) -> usize {
        if self.entries == 0 {
            0
        } else {
            2 + self.entries.div_ceil(8) + self.tag_bytes
        }
    }

    /// Content bytes if `e` were appended.
    #[inline]
    pub fn bytes_with(&self, e: Entry) -> usize {
        let mut next = *self;
        next.add(e);
        next.bytes()
    }
}

/// Encode an entry sequence into page content (see the module docs).
pub fn encode_content(entries: &[Entry]) -> Vec<u8> {
    if entries.is_empty() {
        return Vec::new();
    }
    debug_assert!(entries.len() <= u16::MAX as usize);
    let n = entries.len();
    let mut out = Vec::with_capacity(2 + n.div_ceil(8));
    out.extend_from_slice(&(n as u16).to_le_bytes());
    out.resize(2 + n.div_ceil(8), 0);
    for (i, e) in entries.iter().enumerate() {
        if e.is_open() {
            out[2 + i / 8] |= 1 << (i % 8);
        }
    }
    for &e in entries {
        if let Entry::Open(TagCode(code)) = e {
            debug_assert!(code < 1 << 15);
            write_varint(&mut out, code);
        }
    }
    out
}

/// A structural page decoded into its entry array — the paper's `A[p]`
/// from Algorithm 2's `READ-PAGE`. Entries are held in two bytes each (a
/// 15-bit tag code, or [`CLOSE_CODE`]). The paper's level array `L[p]` is
/// not stored: a walk in order steps the level by ±1 per entry from `st`
/// ([`DecodedPage::levels`]).
#[derive(Debug, Clone)]
pub struct DecodedPage {
    /// Parsed header.
    pub header: PageHeader,
    /// Entries in order: the tag code of an open, [`CLOSE_CODE`] for a
    /// close.
    codes: Vec<u16>,
}

/// Decode a raw page (header + content). `None` on any malformed or
/// non-canonical input: a buffer shorter than the header, an `nbytes` count
/// overrunning the page, a zero count word, a truncated parenthesis vector
/// or tag stream, a tag code past 15 bits, content bytes the tag stream does
/// not cover, nonzero padding bits, or a level dropping below zero.
pub fn decode_page(buf: &[u8]) -> Option<DecodedPage> {
    let header = read_header(buf)?;
    let content = buf.get(HEADER_SIZE..HEADER_SIZE + header.nbytes as usize)?;
    let mut codes = Vec::new();
    if !content.is_empty() {
        let n = u16::from_le_bytes([*content.first()?, *content.get(1)?]) as usize;
        if n == 0 {
            return None; // a zero count must be encoded as nbytes == 0
        }
        let paren_bytes = content.get(2..2 + n.div_ceil(8))?;
        codes.reserve(n);
        let mut level = header.st as i32;
        let mut tag_pos = 2 + paren_bytes.len();
        for i in 0..n {
            if (paren_bytes[i / 8] >> (i % 8)) & 1 == 1 {
                let (code, width) = read_varint(content, tag_pos)?;
                if code >= 1 << 15 {
                    return None; // the dictionary's tag-code space is 15 bits
                }
                tag_pos += width;
                level += 1;
                codes.push(code);
            } else {
                level -= 1;
                codes.push(CLOSE_CODE);
            }
            if level < 0 {
                return None; // malformed: more closes than opens ever seen
            }
        }
        if tag_pos != content.len() {
            return None; // tag stream must cover nbytes exactly
        }
        // Padding bits of the last parenthesis byte must be zero.
        let pad = paren_bytes.len() * 8 - n;
        if pad > 0 && paren_bytes[paren_bytes.len() - 1] >> (8 - pad) != 0 {
            return None;
        }
    }
    Some(DecodedPage { header, codes })
}

/// What [`check_page`] learns of a raw page without decoding it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageCheck {
    /// Parsed header.
    pub header: PageHeader,
    /// Entries on the page ([`DecodedPage::len`]).
    pub entries: usize,
    /// Of those, the opens: the nodes the page starts.
    pub opens: u64,
}

/// Per parenthesis byte (LSB first, 1 = open): its net level change, and
/// the lowest level change after any of its bits.
const BYTE_EXCESS: [(i8, i8); 256] = {
    let mut table = [(0i8, 0i8); 256];
    let mut b = 0;
    while b < 256 {
        let (mut level, mut low, mut i) = (0i8, i8::MAX, 0);
        while i < 8 {
            level += if (b >> i) & 1 == 1 { 1 } else { -1 };
            if level < low {
                low = level;
            }
            i += 1;
        }
        table[b] = (level, low);
        b += 1;
    }
    table
};

/// Refuse exactly what [`decode_page`] refuses, and count the opens by
/// popcount, materialising nothing: what opening a store needs of every
/// page.
pub fn check_page(buf: &[u8]) -> Option<PageCheck> {
    let header = read_header(buf)?;
    let content = buf.get(HEADER_SIZE..HEADER_SIZE + header.nbytes as usize)?;
    if content.is_empty() {
        return Some(PageCheck {
            header,
            entries: 0,
            opens: 0,
        });
    }
    let n = u16::from_le_bytes([*content.first()?, *content.get(1)?]) as usize;
    if n == 0 {
        return None; // a zero count must be encoded as nbytes == 0
    }
    let paren_bytes = content.get(2..2 + n.div_ceil(8))?;
    let (full, tail) = paren_bytes.split_at(n / 8);
    let mut level = header.st as i32;
    for &b in full {
        let (net, low) = BYTE_EXCESS[b as usize];
        if level + i32::from(low) < 0 {
            return None; // more closes than opens ever seen
        }
        level += i32::from(net);
    }
    if let Some(&last) = tail.first() {
        let valid = n % 8;
        if last >> valid != 0 {
            return None; // padding bits must be zero
        }
        for i in 0..valid {
            level += if (last >> i) & 1 == 1 { 1 } else { -1 };
            if level < 0 {
                return None;
            }
        }
    }
    let opens: u64 = paren_bytes.iter().map(|b| u64::from(b.count_ones())).sum();
    let mut tag_pos = 2 + paren_bytes.len();
    for _ in 0..opens {
        let (code, width) = read_varint(content, tag_pos)?;
        if code >= 1 << 15 {
            return None; // the dictionary's tag-code space is 15 bits
        }
        tag_pos += width;
    }
    if tag_pos != content.len() {
        return None; // tag stream must cover nbytes exactly
    }
    Some(PageCheck {
        header,
        entries: n,
        opens,
    })
}

/// How a decoded page holds a close entry (tag codes use 15 bits).
pub const CLOSE_CODE: u16 = u16::MAX;

#[inline]
fn unpack(code: u16) -> Entry {
    if code == CLOSE_CODE {
        Entry::Close
    } else {
        Entry::Open(TagCode(code))
    }
}

impl DecodedPage {
    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when the page holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Entry `i`; panics past the end, like a slice index.
    #[inline]
    pub fn entry(&self, i: usize) -> Entry {
        unpack(self.codes[i])
    }

    /// Entry `i`, or `None` past the end.
    #[inline]
    pub fn get(&self, i: usize) -> Option<Entry> {
        self.codes.get(i).copied().map(unpack)
    }

    /// The entries in order.
    #[inline]
    pub fn entries(&self) -> impl ExactSizeIterator<Item = Entry> + '_ {
        self.entries_from(0)
    }

    /// The entries from index `from` on (none when `from` is past the end).
    #[inline]
    pub fn entries_from(&self, from: usize) -> impl ExactSizeIterator<Item = Entry> + '_ {
        self.codes[from.min(self.codes.len())..]
            .iter()
            .map(|&c| unpack(c))
    }

    /// Pass over entries `from..` until `open` more nodes have closed than
    /// opened — the end of a subtree entered `open` levels deep — and
    /// return the index after that close; `None` at the end of the page,
    /// with `open` left at the levels still to close. `open` must be
    /// positive.
    #[inline]
    pub(crate) fn close_from(&self, from: usize, open: &mut u32) -> Option<usize> {
        let mut depth = *open;
        for (i, &code) in (from..).zip(&self.codes[from.min(self.codes.len())..]) {
            if code == CLOSE_CODE {
                depth -= 1;
                if depth == 0 {
                    *open = 0;
                    return Some(i + 1);
                }
            } else {
                depth += 1;
            }
        }
        *open = depth;
        None
    }

    /// Level of entry `i` (paper's convention; see module docs): `st` plus
    /// the opens minus the closes of entries `0..=i`, counted. The count is
    /// kept in `u16` lanes, which vectorise; a page holds at most
    /// `u16::MAX` entries, so it cannot overflow.
    pub fn level(&self, i: usize) -> u16 {
        let closes = self.codes[..=i]
            .iter()
            .fold(0u16, |n, &c| n + u16::from(c == CLOSE_CODE));
        (usize::from(self.header.st) + i + 1 - 2 * usize::from(closes)) as u16
    }

    /// The level of every entry, in order: `st` stepped by +1 at each open
    /// and -1 at each close.
    pub fn levels(&self) -> impl Iterator<Item = u16> + '_ {
        self.entries().scan(self.header.st, |level, e| {
            *level = if e.is_open() {
                level.wrapping_add(1)
            } else {
                level.wrapping_sub(1)
            };
            Some(*level)
        })
    }

    /// Level of the last entry (st of the next page), or `header.st` when
    /// empty.
    #[inline]
    pub fn end_level(&self) -> u16 {
        match self.len() {
            0 => self.header.st,
            n => self.level(n - 1),
        }
    }

    /// Recompute `lo`/`hi` from the entry levels.
    pub fn level_bounds(&self) -> (u16, u16) {
        // An empty page constrains nothing: the empty range [MAX, 0].
        self.levels()
            .fold((u16::MAX, 0), |(lo, hi), l| (lo.min(l), hi.max(l)))
    }
}

/// The paper's page capacity in *nodes* (its C, with `S = 2`, `P = 1`): how
/// many 3-byte nodes fit in the non-reserved content area. `reserve` is the
/// paper's r. Reference arithmetic for the §4.2 claims — the bit-packed
/// pages this module writes hold more than twice as many.
pub fn capacity(page_size: usize, reserve: f64) -> usize {
    let usable = ((page_size - HEADER_SIZE) as f64 * (1.0 - reserve)).floor() as usize;
    usable / 3
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a raw page from an entry sequence.
    fn raw_page(st: u16, entries: &[Entry]) -> Vec<u8> {
        raw_page_with_content(st, &encode_content(entries))
    }

    fn raw_page_with_content(st: u16, content: &[u8]) -> Vec<u8> {
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
        buf[HEADER_SIZE..].copy_from_slice(content);
        buf
    }

    fn paper_entries() -> Vec<Entry> {
        // a b z ) e ) c f ) g ) )  — Figure 4 page 1.
        // a=0, b=1, z=2, e=3, c=4, f=5, g=6
        [
            Some(0),
            Some(1),
            Some(2),
            None,
            Some(3),
            None,
            Some(4),
            Some(5),
            None,
            Some(6),
            None,
            None,
        ]
        .iter()
        .map(|s| match s {
            Some(code) => Entry::Open(TagCode(*code)),
            None => Entry::Close,
        })
        .collect()
    }

    #[test]
    fn entry_encoding_round_trip() {
        // Tag codes of every varint width, opens and closes interleaved.
        let entries = [
            Entry::Open(TagCode(0)),
            Entry::Close,
            Entry::Open(TagCode(0x7FFF)),
            Entry::Open(TagCode(300)),
            Entry::Close,
        ];
        let content = encode_content(&entries);
        // count word, one parenthesis byte, 1 + 3 + 2 tag bytes
        assert_eq!(content.len(), 2 + 1 + 6);
        assert_eq!(content[2], 0b01101);
        let page = decode_page(&raw_page(0, &entries)).unwrap();
        assert_eq!(page.entries().collect::<Vec<_>>(), entries);
        assert_eq!(page.levels().collect::<Vec<_>>(), vec![1, 0, 1, 2, 1]);
    }

    #[test]
    fn truncated_open_is_rejected() {
        // One open whose two-byte tag code is cut after its first byte.
        let good = encode_content(&[Entry::Open(TagCode(300))]);
        assert_eq!(good.len(), 2 + 1 + 2);
        assert!(decode_page(&raw_page_with_content(0, &good)).is_some());
        assert!(decode_page(&raw_page_with_content(0, &good[..4])).is_none());
    }

    #[test]
    fn header_round_trip() {
        let mut buf = vec![0u8; 64];
        let h = PageHeader {
            st: 3,
            lo: 1,
            hi: 9,
            next: 42,
            nbytes: 17,
        };
        write_header(&mut buf, &h);
        assert_eq!(read_header(&buf), Some(h));
    }

    /// The paper's worked example: page 1 of Figure 4 contains
    /// `a b z ) e ) c f ) g ) )` and its level sequence is `123232343432`
    /// (with st = 0).
    #[test]
    fn paper_level_sequence() {
        let page = decode_page(&raw_page(0, &paper_entries())).unwrap();
        assert_eq!(
            page.levels().collect::<Vec<_>>(),
            vec![1, 2, 3, 2, 3, 2, 3, 4, 3, 4, 3, 2],
            "levels must match the paper's 123232343432"
        );
        for (i, l) in page.levels().enumerate() {
            assert_eq!(page.level(i), l, "entry {i}: rank and walk agree");
        }
        assert_eq!(page.level_bounds(), (1, 4));
        assert_eq!(page.end_level(), 2);
    }

    #[test]
    fn st_offsets_levels_on_later_pages() {
        // A page continuing one that ended at level 5.
        let page = decode_page(&raw_page(5, &[Entry::Open(TagCode(0)), Entry::Close])).unwrap();
        assert_eq!(page.levels().collect::<Vec<_>>(), vec![6, 5]);
    }

    #[test]
    fn short_buffer_header_is_rejected() {
        assert_eq!(read_header(&[0u8; 4]), None);
        assert_eq!(read_header(&[]), None);
        assert!(decode_page(&[0u8; 4]).is_none());
    }

    #[test]
    fn overrunning_nbytes_is_rejected() {
        // nbytes claims more content than the buffer holds.
        let mut buf = raw_page_with_content(0, &[0, 0]);
        put_nbytes(&mut buf, 100);
        assert!(decode_page(&buf).is_none());
    }

    fn put_nbytes(buf: &mut [u8], nbytes: u16) {
        let h = read_header(buf).unwrap();
        write_header(buf, &PageHeader { nbytes, ..h });
    }

    #[test]
    fn truncated_open_entry_in_page_is_rejected() {
        // The count word and parenthesis bit announce an open, but the tag
        // stream is absent altogether.
        assert!(decode_page(&raw_page_with_content(0, &[1, 0, 0b1])).is_none());
    }

    #[test]
    fn malformed_negative_level_rejected() {
        // A close at st=0 would drive the level to -1.
        assert!(decode_page(&raw_page_with_content(0, &[1, 0, 0b0])).is_none());
        assert!(decode_page(&raw_page_with_content(1, &[1, 0, 0b0])).is_some());
    }

    /// The paper: "assume that each page is 4KB, of which 20% of the space is
    /// reserved for update ... the number of nodes in a page is around 1000."
    #[test]
    fn paper_capacity_figure() {
        let c = capacity(4096, 0.2);
        assert!((1000..=1200).contains(&c), "C = {c}, paper says ≈1000");
        // And "the value of C is around 1000 to 3000 by substituting
        // reasonable values" — e.g. 8K pages with 10% reserve.
        let c2 = capacity(8192, 0.1);
        assert!((2000..=3000).contains(&c2), "C = {c2}");
    }

    #[test]
    fn round_trip_restores_entries_levels_and_excess() {
        let entries = paper_entries();
        for st in [0u16, 5] {
            let page = decode_page(&raw_page(st, &entries)).unwrap();
            assert_eq!(page.entries().collect::<Vec<_>>(), entries);
            // Excess: opens minus closes so far, the level above `st`.
            let mut excess = 0i32;
            for (i, (e, walked)) in entries.iter().zip(page.levels()).enumerate() {
                excess += if e.is_open() { 1 } else { -1 };
                assert_eq!(
                    i32::from(page.level(i)),
                    i32::from(st) + excess,
                    "entry {i}"
                );
                assert_eq!(walked, page.level(i), "entry {i}");
            }
        }
    }

    #[test]
    fn close_from_finds_each_subtree_end_or_carries_its_depth() {
        let entries = paper_entries();
        let page = decode_page(&raw_page(0, &entries)).unwrap();
        for (i, e) in entries.iter().enumerate() {
            if !e.is_open() {
                continue;
            }
            let level = page.level(i);
            let end = (i + 1..entries.len()).find(|&j| page.level(j) < level);
            let mut open = 1;
            assert_eq!(page.close_from(i + 1, &mut open), end.map(|j| j + 1));
            // Unclosed at the page's end: the subtree's open nodes carry.
            let left = match end {
                Some(_) => 0,
                None => page.end_level() + 1 - level,
            };
            assert_eq!(open, u32::from(left), "entry {i}");
        }
    }

    #[test]
    fn succinct_content_is_smaller_and_accounted_exactly() {
        let entries = paper_entries();
        let acc = ContentAcc::over(&entries);
        assert_eq!(encode_content(&entries).len(), acc.bytes());
        // 7 opens, 5 closes: 2 + 2 + 7 = 11 bytes, against 7 × 3 = 21 in
        // the paper's byte-per-character accounting.
        assert_eq!(acc.bytes(), 11);
        // Incremental accounting agrees with bulk.
        let mut inc = ContentAcc::new();
        for (i, &e) in entries.iter().enumerate() {
            assert_eq!(
                inc.bytes_with(e),
                encode_content(&entries[..=i]).len(),
                "after entry {i}"
            );
            inc.add(e);
        }
        assert_eq!(inc.bytes(), 11);
    }

    #[test]
    fn succinct_empty_page_is_zero_bytes() {
        assert!(encode_content(&[]).is_empty());
        assert_eq!(ContentAcc::new().bytes(), 0);
        let page = decode_page(&raw_page(0, &[])).unwrap();
        assert!(page.is_empty());
        assert_eq!(page.end_level(), 0);
    }

    #[test]
    fn succinct_malformed_pages_rejected() {
        let entries = paper_entries();
        let good = raw_page(0, &entries);
        // Truncated tag stream: shrink nbytes by one.
        let mut bad = good.clone();
        put_nbytes(&mut bad, read_header(&good).unwrap().nbytes - 1);
        assert!(decode_page(&bad).is_none());
        // Content the tag stream does not cover: one trailing byte.
        let mut bad = good.clone();
        bad.push(0);
        put_nbytes(&mut bad, read_header(&good).unwrap().nbytes + 1);
        assert!(decode_page(&bad).is_none());
        // Nonzero padding bit past the entry count.
        let mut bad = good.clone();
        bad[HEADER_SIZE + 2 + 1] |= 0x80; // bit 15 of a 12-entry page
        assert!(decode_page(&bad).is_none());
        // A leading close underflows the level at st = 0.
        let mut flipped = paper_entries();
        flipped[0] = Entry::Close;
        flipped[3] = Entry::Open(TagCode(0));
        assert!(decode_page(&raw_page(0, &flipped)).is_none());
        // Explicit zero count with nonzero nbytes is non-canonical.
        assert!(decode_page(&raw_page_with_content(0, &[0, 0])).is_none());
        // A wellformed varint outside the 15-bit tag-code space.
        assert!(decode_page(&raw_page_with_content(0, &[2, 0, 0b01, 0xFF, 0xFF, 0x03])).is_none());
        assert!(decode_page(&raw_page_with_content(0, &[2, 0, 0b01, 0xFF, 0xFF, 0x01])).is_some());
    }

    /// The superblock byte and the name `nokbench` reports are part of the
    /// on-disk and report formats: pin both.
    #[test]
    fn format_byte_and_reported_name_are_pinned() {
        assert_eq!(FORMAT_BYTE, 2);
        assert_eq!(format!("{:?}", Succinct), "Succinct");
    }
}
