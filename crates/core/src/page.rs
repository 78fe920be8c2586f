//! The structural page (paper §4.2, Figures 4–5): one slice of the
//! parenthesised string representation of the subject tree, bit-packed.
//!
//! ```text
//! +----+----+----+----------+--------+---------+-------------+---------------+-------+
//! | st | lo | hi | nextpage | nbytes | n (u16) | parens bits | tag codes,    | slack |
//! | u16| u16| u16| u32      | u16    |         | ceil(n/8) B | w B per open  |       |
//! +----+----+----+----------+--------+---------+-------------+---------------+-------+
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
//! **open** entry (a character of Σ), `0` = a **close** (`)`). Padding bits
//! of the last parenthesis byte are zero. The opens' tag codes follow in
//! order, each `w` bytes wide (little-endian): `w = 1` when the page's
//! largest code is below 256, else 2. The width is not stored: the tag area
//! is `nbytes - 2 - ceil(n/8)` bytes and holds one code per set parenthesis
//! bit, so `w` is the area over the popcount. A node costs 2 bits plus its
//! code — about 1.3 bytes against the 3 bytes (`S = 2`, `P = 1`) of the
//! paper's byte-per-character accounting, which [`capacity`] still
//! reproduces.
//!
//! Levels follow the paper's convention: scanning left to right starting
//! from `st`, an open entry's level is `prev + 1` and a close entry's level
//! is `prev - 1` (so the `)` of a node at depth `l` carries level `l-1`).
//!
//! Queries read a page where it lies ([`Page`]): entry `i` is a bit test,
//! its tag sits at `w · rank1(i)` in the tag area, its level is `st` plus
//! twice the opens minus the entries up to it, and the end of a subtree is
//! an excess search over the parenthesis bytes ([`Page::close_from`]).
//! Nothing is decoded.
//!
//! This module is the only place that knows the encoding. The database
//! superblock records it, together with the index entry layout of
//! [`crate::physical`] and [`crate::dewey`], as [`FORMAT_BYTE`]; a
//! directory naming any other format (0 was a byte-per-entry page
//! encoding, 1 fixed-width index entries, 2 LEB128 tag codes, 3 B+tree
//! leaves of whole keys under 6-byte cell headers, 4 a `values.dat` of bare
//! records beside the paged files; none is read or written any more) is
//! refused at open with
//! [`crate::error::SuperblockError`].

use crate::sigma::TagCode;

/// The byte the database superblock stores for this page format, the
/// variable-length index entries, the B+tree leaf layout they lie in and
/// the paged value file.
pub const FORMAT_BYTE: u8 = 5;

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

/// Tag codes are 15-bit: the dictionary's code space.
pub const TAG_CODE_LIMIT: u32 = 1 << 15;

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

/// Bytes per tag code on a page whose largest code is `max_code`.
#[inline]
pub fn tag_width(max_code: u16) -> usize {
    if max_code < 256 {
        1
    } else {
        2
    }
}

/// Incremental content-size accounting, so the builder and the update
/// splicer can pick page break points without encoding speculatively: the
/// content length is a pure function of the entries, the opens and the
/// largest code (which fixes the tag width).
#[derive(Debug, Clone, Copy, Default)]
pub struct ContentAcc {
    /// Total entries.
    pub entries: usize,
    /// Of those, the opens.
    pub opens: usize,
    /// The largest tag code among the opens.
    pub max_code: u16,
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
            self.opens += 1;
            self.max_code = self.max_code.max(code);
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
            2 + self.entries.div_ceil(8) + self.opens * tag_width(self.max_code)
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
    let acc = ContentAcc::over(entries);
    let n = entries.len();
    let mut out = Vec::with_capacity(acc.bytes());
    out.extend_from_slice(&(n as u16).to_le_bytes());
    out.resize(2 + n.div_ceil(8), 0);
    for (i, e) in entries.iter().enumerate() {
        if e.is_open() {
            out[2 + i / 8] |= 1 << (i % 8);
        }
    }
    let wide = tag_width(acc.max_code) == 2;
    for &e in entries {
        if let Entry::Open(TagCode(code)) = e {
            debug_assert!(u32::from(code) < TAG_CODE_LIMIT);
            if wide {
                out.extend_from_slice(&code.to_le_bytes());
            } else {
                out.push(code as u8);
            }
        }
    }
    out
}

/// Set bits in `bytes`, eight at a time.
fn popcount(bytes: &[u8]) -> usize {
    let mut words = bytes.chunks_exact(8);
    let mut n = 0u32;
    for w in &mut words {
        let mut word = [0u8; 8];
        word.copy_from_slice(w);
        n += u64::from_le_bytes(word).count_ones();
    }
    n += words
        .remainder()
        .iter()
        .map(|b| b.count_ones())
        .sum::<u32>();
    n as usize
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

/// Per parenthesis byte and starting depth `d` in `1..=8`: how many of its
/// bits (LSB first) are passed when the depth first reaches zero, or 8 when
/// it does not.
const FIRST_REACH: [[u8; 8]; 256] = {
    let mut table = [[8u8; 8]; 256];
    let mut b = 0;
    while b < 256 {
        let mut d = 1;
        while d <= 8 {
            let (mut depth, mut i) = (d as i32, 0);
            while i < 8 {
                depth += if (b >> i) & 1 == 1 { 1 } else { -1 };
                i += 1;
                if depth == 0 {
                    table[b][d - 1] = i as u8;
                    break;
                }
            }
            d += 1;
        }
        b += 1;
    }
    table
};

/// Per parenthesis byte read backward (bit 7 first, 1 = open): its net
/// change in levels still to climb (a close +1, an open -1), and the
/// lowest change after any of its bits.
const BYTE_CLIMB: [(i8, i8); 256] = {
    let mut table = [(0i8, 0i8); 256];
    let mut b = 0;
    while b < 256 {
        let (mut climb, mut low, mut i) = (0i8, i8::MAX, 8);
        while i > 0 {
            i -= 1;
            climb += if (b >> i) & 1 == 1 { -1 } else { 1 };
            if climb < low {
                low = climb;
            }
        }
        table[b] = (climb, low);
        b += 1;
    }
    table
};

/// Per parenthesis byte read backward and levels to climb `d` in `1..=8`:
/// how many of its bits (bit 7 first) are passed when the climb first
/// reaches zero, at an open, or 8 when it does not.
const FIRST_CLIMB: [[u8; 8]; 256] = {
    let mut table = [[8u8; 8]; 256];
    let mut b = 0;
    while b < 256 {
        let mut d = 1;
        while d <= 8 {
            let (mut climb, mut i) = (d as i32, 0);
            while i < 8 {
                climb += if (b >> (7 - i)) & 1 == 1 { -1 } else { 1 };
                i += 1;
                if climb == 0 {
                    table[b][d - 1] = i as u8;
                    break;
                }
            }
            d += 1;
        }
        b += 1;
    }
    table
};

/// A structural page read in place: its header, and its parenthesis bits
/// and tag codes as slices of the page image. Nothing is copied or decoded.
#[derive(Debug, Clone, Copy)]
pub struct Page<'a> {
    /// Parsed header.
    pub header: PageHeader,
    /// Entries on the page.
    n: usize,
    /// `ceil(n/8)` parenthesis bytes.
    parens: &'a [u8],
    /// One code per open, [`Page::wide`] deciding 1 or 2 bytes each.
    tags: &'a [u8],
    wide: bool,
}

impl<'a> Page<'a> {
    /// Read a page image (header + content). `None` on a malformed one: a
    /// buffer shorter than the header, an `nbytes` count overrunning the
    /// page, a zero count word, a truncated parenthesis vector, nonzero
    /// padding bits, or a tag area that is not one or two bytes per open.
    /// Every accessor is panic-free on what this accepts; what else a
    /// stored page must satisfy, [`check_page`] checks.
    pub fn new(buf: &'a [u8]) -> Option<Self> {
        Self::read(buf, popcount)
    }

    /// [`Page::new`] for a page whose opens were counted before (the
    /// store's directory keeps the count): the tag area is held against
    /// `opens` instead of a popcount of the bits. Accessors stay
    /// panic-free when the count is wrong.
    pub fn counted(buf: &'a [u8], opens: u32) -> Option<Self> {
        Self::read(buf, |_| opens as usize)
    }

    fn read(buf: &'a [u8], opens: impl FnOnce(&[u8]) -> usize) -> Option<Self> {
        let header = read_header(buf)?;
        let content = buf.get(HEADER_SIZE..HEADER_SIZE + usize::from(header.nbytes))?;
        let Some((count, rest)) = content.split_first_chunk::<2>() else {
            return content.is_empty().then_some(Page {
                header,
                n: 0,
                parens: &[],
                tags: &[],
                wide: false,
            });
        };
        let n = usize::from(u16::from_le_bytes(*count));
        if n == 0 {
            return None; // a zero count must be encoded as nbytes == 0
        }
        let parens = rest.get(..n.div_ceil(8))?;
        if n % 8 != 0 && parens[parens.len() - 1] >> (n % 8) != 0 {
            return None; // padding bits must be zero
        }
        let tags = &rest[parens.len()..];
        let opens = opens(parens);
        let wide = match tags.len() {
            len if len == opens => false,
            len if len == 2 * opens => true,
            _ => return None, // not one code per open
        };
        Some(Page {
            header,
            n,
            parens,
            tags,
            wide,
        })
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the page holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of open entries: the nodes the page starts.
    #[inline]
    pub fn opens(&self) -> usize {
        self.tags.len() >> usize::from(self.wide)
    }

    /// Bytes per tag code (1 or 2).
    #[inline]
    pub fn tag_width(&self) -> usize {
        1 + usize::from(self.wide)
    }

    /// Is entry `i` an open? `false` past the end.
    #[inline]
    pub fn is_open(&self, i: usize) -> bool {
        i < self.n && (self.parens[i / 8] >> (i % 8)) & 1 == 1
    }

    /// The opens among entries `0..i`.
    #[inline]
    fn rank(&self, i: usize) -> usize {
        let i = i.min(self.n);
        let mut r = popcount(&self.parens[..i / 8]);
        if !i.is_multiple_of(8) {
            r += (self.parens[i / 8] & ((1u8 << (i % 8)) - 1)).count_ones() as usize;
        }
        r
    }

    /// The tag code of the `k`-th open (0 past the tag area, which only a
    /// wrong count of opens can reach).
    #[inline]
    fn code(&self, k: usize) -> TagCode {
        TagCode(if self.wide {
            self.tags
                .get(2 * k..2 * k + 2)
                .map_or(0, |c| u16::from_le_bytes([c[0], c[1]]))
        } else {
            self.tags.get(k).map_or(0, |&c| u16::from(c))
        })
    }

    /// Entry `i`, or `None` past the end.
    #[inline]
    pub fn get(&self, i: usize) -> Option<Entry> {
        if i >= self.n {
            None
        } else if self.is_open(i) {
            Some(Entry::Open(self.code(self.rank(i))))
        } else {
            Some(Entry::Close)
        }
    }

    /// The entries in order.
    #[inline]
    pub fn entries(&self) -> Entries<'a> {
        self.entries_from(0)
    }

    /// The entries from index `from` on (none when `from` is past the end).
    #[inline]
    pub fn entries_from(&self, from: usize) -> Entries<'a> {
        let i = from.min(self.n);
        self.resume(Pos { i, k: self.rank(i) })
    }

    /// The entries from a position an [`Entries`] reached over this page.
    #[inline]
    pub fn resume(&self, pos: Pos) -> Entries<'a> {
        Entries {
            page: *self,
            i: pos.i,
            k: pos.k,
        }
    }

    /// Level of entry `i` (paper's convention; see module docs): `st` plus
    /// the opens minus the closes of entries `0..=i`.
    pub fn level(&self, i: usize) -> u16 {
        let upto = (i + 1).min(self.n);
        (i64::from(self.header.st) + 2 * self.rank(upto) as i64 - upto as i64) as u16
    }

    /// The level of every entry, in order: `st` stepped by +1 at each open
    /// and -1 at each close.
    pub fn levels(&self) -> impl Iterator<Item = u16> + 'a {
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
        match self.n {
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

    /// The largest tag code on the page (0 when it has no open).
    pub fn max_code(&self) -> u16 {
        if self.wide {
            self.tags
                .chunks_exact(2)
                .map(|c| u16::from_le_bytes([c[0], c[1]]))
                .max()
                .unwrap_or(0)
        } else {
            self.tags.iter().copied().max().map_or(0, u16::from)
        }
    }

    /// Pass over entries `from..` until `open` more nodes have closed than
    /// opened — the end of a subtree entered `open` levels deep — and
    /// return the index after that close; `None` at the end of the page,
    /// with `open` left at the levels still to close. `open` must be
    /// positive. One table step per parenthesis byte: a byte the depth
    /// does not reach zero in is passed by its net excess, and the one it
    /// does is resolved by [`FIRST_REACH`]. A partial first or last byte
    /// is shifted to start at `from` and has the bits past its entries set
    /// as opens, which neither lower its low point nor reach zero.
    pub fn close_from(&self, from: usize, open: &mut u32) -> Option<usize> {
        let (n, mut i) = (self.n, from.min(self.n));
        let mut depth = i64::from(*open);
        while i < n && depth > 0 {
            let valid = (8 - i % 8).min(n - i);
            let pad = 0xFF_u16 << valid;
            let byte = usize::from((self.parens[i / 8] >> (i % 8)) | pad as u8);
            let (net, low) = BYTE_EXCESS[byte];
            if depth + i64::from(low) <= 0 {
                // The low point is at least -8, so the depth is 1..=8.
                *open = 0;
                return Some(i + usize::from(FIRST_REACH[byte][depth as usize - 1]));
            }
            depth += i64::from(net) - (8 - valid) as i64;
            i += valid;
        }
        if depth == 0 {
            *open = 0;
            return Some(i);
        }
        *open = depth as u32;
        None
    }
    /// The open `k` levels above entry `i`: of the node entry `i` opens,
    /// its ancestor `k` levels up (`k = 1` its parent). Entries `i-1, i-2,
    /// …` are read backward, an open lowering the levels still to climb
    /// and a close raising them, until the climb reaches zero at an open:
    /// its index. At the page's first entry the climb is `Err` with the
    /// levels still to climb above the page's start, where `st` nodes are
    /// open. `k = 0` is entry `i` itself. The mirror of
    /// [`Page::close_from`]: one table step per parenthesis byte, the
    /// partial first byte shifted to end at bit 7 and padded with closes,
    /// which neither reach zero nor lower its low point.
    pub fn open_above(&self, i: usize, k: u32) -> Result<usize, u32> {
        let mut i = i.min(self.n);
        let mut climb = i64::from(k);
        if climb == 0 {
            return Ok(i);
        }
        while i > 0 {
            let top = i - 1;
            let valid = top % 8 + 1;
            let byte = usize::from(self.parens[top / 8] << (8 - valid));
            let (net, low) = BYTE_CLIMB[byte];
            if climb + i64::from(low) <= 0 {
                // The low point is at least -8, so the climb is 1..=8.
                let passed = usize::from(FIRST_CLIMB[byte][climb as usize - 1]);
                return Ok(top + 1 - passed);
            }
            climb += i64::from(net) - (8 - valid) as i64;
            i = top + 1 - valid;
        }
        Err(climb as u32)
    }
}

/// A place in a page's entries: the entry index and the opens before it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Pos {
    i: usize,
    k: usize,
}

/// The entries of a [`Page`] from some index on, read in place: a bit test
/// per entry and, for an open, its code at the running open count.
#[derive(Debug, Clone)]
pub struct Entries<'a> {
    page: Page<'a>,
    /// Next entry to read.
    i: usize,
    /// Opens before it.
    k: usize,
}

impl Entries<'_> {
    /// Index of the next entry.
    #[inline]
    pub fn index(&self) -> usize {
        self.i
    }

    /// Where the iterator stands, for [`Page::resume`].
    #[inline]
    pub fn pos(&self) -> Pos {
        Pos {
            i: self.i,
            k: self.k,
        }
    }

    /// Is the next entry a close?
    #[inline]
    pub fn at_close(&self) -> bool {
        self.i < self.page.n && !self.page.is_open(self.i)
    }

    /// [`Page::close_from`] from the next entry, moving past the close (or
    /// to the end of the page): `true` when the close was on the page.
    pub fn pass(&mut self, open: &mut u32) -> bool {
        let (from, before) = (self.i, i64::from(*open));
        let end = self.page.close_from(from, open);
        self.i = end.unwrap_or(self.page.n);
        // Over the entries passed, opens - closes = the depth change.
        let passed = (self.i - from) as i64;
        self.k += ((passed + i64::from(*open) - before) / 2) as usize;
        end.is_some()
    }
}

impl Iterator for Entries<'_> {
    type Item = Entry;

    #[inline]
    fn next(&mut self) -> Option<Entry> {
        let i = self.i;
        if i >= self.page.n {
            return None;
        }
        self.i = i + 1;
        if (self.page.parens[i / 8] >> (i % 8)) & 1 == 0 {
            return Some(Entry::Close);
        }
        let k = self.k;
        self.k = k + 1;
        Some(Entry::Open(self.page.code(k)))
    }
}

/// What [`check_page`] learns of a raw page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageCheck {
    /// Parsed header.
    pub header: PageHeader,
    /// Entries on the page ([`Page::len`]).
    pub entries: usize,
    /// Of those, the opens: the nodes the page starts.
    pub opens: u64,
}

/// Refuse a page image that is not in canonical form: what [`Page::new`]
/// refuses, a level that drops below zero, a tag code past 15 bits, or
/// two-byte codes on a page whose codes all fit one byte. One pass over
/// the parenthesis bytes and one over the tag area; what opening a store
/// needs of every page.
pub fn check_page(buf: &[u8]) -> Option<PageCheck> {
    let page = Page::new(buf)?;
    let n = page.n;
    let mut level = i32::from(page.header.st);
    for &b in &page.parens[..n / 8] {
        let (net, low) = BYTE_EXCESS[usize::from(b)];
        if level + i32::from(low) < 0 {
            return None; // more closes than opens ever seen
        }
        level += i32::from(net);
    }
    for i in n / 8 * 8..n {
        level += if page.is_open(i) { 1 } else { -1 };
        if level < 0 {
            return None;
        }
    }
    if page.wide {
        let max = page.max_code();
        if max < 256 || u32::from(max) >= TAG_CODE_LIMIT {
            return None; // a width the codes do not need, or past 15 bits
        }
    }
    Some(PageCheck {
        header: page.header,
        entries: n,
        opens: page.opens() as u64,
    })
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

    /// `check_page`'s verdict, as "accepted".
    fn checks(buf: &[u8]) -> bool {
        check_page(buf).is_some()
    }

    fn page(buf: &[u8]) -> Page<'_> {
        Page::new(buf).unwrap()
    }

    #[test]
    fn entry_encoding_round_trip() {
        // Codes up to 255 take one byte each; one code past it widens all.
        for (big, code_bytes) in [
            (255, vec![0, 255, 7]),
            (0x7FFF, vec![0, 0, 255, 0, 0xFF, 0x7F]),
        ] {
            let entries = [
                Entry::Open(TagCode(0)),
                Entry::Close,
                Entry::Open(TagCode(255)),
                Entry::Open(TagCode(if big == 255 { 7 } else { big })),
                Entry::Close,
            ];
            let content = encode_content(&entries);
            assert_eq!(content[..3], [5, 0, 0b01101]);
            let buf = raw_page(0, &entries);
            assert!(checks(&buf));
            let p = page(&buf);
            assert_eq!(content[3..], code_bytes);
            assert_eq!((p.tag_width(), p.max_code()), (code_bytes.len() / 3, big));
            assert_eq!(p.entries().collect::<Vec<_>>(), entries);
            assert_eq!(
                (0..6).map(|i| p.get(i)).collect::<Vec<_>>()[..5],
                entries.map(Some)
            );
            assert_eq!(p.levels().collect::<Vec<_>>(), vec![1, 0, 1, 2, 1]);
        }
    }

    #[test]
    fn truncated_open_is_rejected() {
        // One open whose one-byte tag code is cut.
        let good = encode_content(&[Entry::Open(TagCode(200)), Entry::Close]);
        assert_eq!(good.len(), 2 + 1 + 1);
        assert!(checks(&raw_page_with_content(0, &good)));
        assert!(!checks(&raw_page_with_content(0, &good[..3])));
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
        let buf = raw_page(0, &paper_entries());
        let page = page(&buf);
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
        assert_eq!(page.opens(), 7);
    }

    #[test]
    fn st_offsets_levels_on_later_pages() {
        // A page continuing one that ended at level 5.
        let buf = raw_page(5, &[Entry::Open(TagCode(0)), Entry::Close]);
        assert_eq!(page(&buf).levels().collect::<Vec<_>>(), vec![6, 5]);
    }

    #[test]
    fn short_buffer_header_is_rejected() {
        assert_eq!(read_header(&[0u8; 4]), None);
        assert_eq!(read_header(&[]), None);
        assert!(Page::new(&[0u8; 4]).is_none());
        assert!(!checks(&[0u8; 4]));
    }

    fn put_nbytes(buf: &mut [u8], nbytes: u16) {
        let h = read_header(buf).unwrap();
        write_header(buf, &PageHeader { nbytes, ..h });
    }

    #[test]
    fn overrunning_nbytes_is_rejected() {
        // nbytes claims more content than the buffer holds.
        let mut buf = raw_page_with_content(0, &[0, 0]);
        put_nbytes(&mut buf, 100);
        assert!(Page::new(&buf).is_none());
    }

    #[test]
    fn truncated_open_entry_in_page_is_rejected() {
        // The count word and parenthesis bit announce an open, but the tag
        // area is absent altogether.
        assert!(Page::new(&raw_page_with_content(0, &[1, 0, 0b1])).is_none());
    }

    #[test]
    fn malformed_negative_level_rejected() {
        // A close at st=0 would drive the level to -1.
        assert!(!checks(&raw_page_with_content(0, &[1, 0, 0b0])));
        assert!(checks(&raw_page_with_content(1, &[1, 0, 0b0])));
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
            let buf = raw_page(st, &entries);
            let page = page(&buf);
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

    /// A page of `n` entries long enough to cross several parenthesis
    /// bytes: nested runs of varying depth.
    fn long_entries() -> Vec<Entry> {
        let mut out = vec![Entry::Open(TagCode(9))];
        for r in 0..40u16 {
            let depth = 1 + r % 11;
            for d in 0..depth {
                out.push(Entry::Open(TagCode(d * 25 + r)));
            }
            out.extend(std::iter::repeat_n(Entry::Close, usize::from(depth)));
        }
        out.push(Entry::Close);
        out
    }

    #[test]
    fn close_from_finds_each_subtree_end_or_carries_its_depth() {
        for entries in [paper_entries(), long_entries()] {
            let buf = raw_page(0, &entries);
            let page = page(&buf);
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
                // Passing the subtree keeps the iterator's open count.
                let mut it = page.entries_from(i + 1);
                let mut open = 1;
                assert_eq!(it.pass(&mut open), end.is_some());
                let rest: Vec<_> = it.collect();
                assert_eq!(rest, entries[end.map_or(entries.len(), |j| j + 1)..]);
            }
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
        // Incremental accounting agrees with bulk, across the widening.
        let mut grown = entries.clone();
        grown.extend([Entry::Open(TagCode(300)), Entry::Close]);
        let mut inc = ContentAcc::new();
        for (i, &e) in grown.iter().enumerate() {
            assert_eq!(
                inc.bytes_with(e),
                encode_content(&grown[..=i]).len(),
                "after entry {i}"
            );
            inc.add(e);
        }
        assert_eq!(inc.bytes(), 2 + 2 + 2 * 8);
    }

    #[test]
    fn succinct_empty_page_is_zero_bytes() {
        assert!(encode_content(&[]).is_empty());
        assert_eq!(ContentAcc::new().bytes(), 0);
        let buf = raw_page(0, &[]);
        assert!(checks(&buf));
        let page = page(&buf);
        assert!(page.is_empty());
        assert_eq!(page.end_level(), 0);
        assert_eq!(page.entries().count(), 0);
    }

    #[test]
    fn succinct_malformed_pages_rejected() {
        let entries = paper_entries();
        let good = raw_page(0, &entries);
        assert!(checks(&good));
        // Truncated tag area: shrink nbytes by one.
        let mut bad = good.clone();
        put_nbytes(&mut bad, read_header(&good).unwrap().nbytes - 1);
        assert!(!checks(&bad));
        // Content the tag area does not cover: one trailing byte.
        let mut bad = good.clone();
        bad.push(0);
        put_nbytes(&mut bad, read_header(&good).unwrap().nbytes + 1);
        assert!(!checks(&bad));
        // Nonzero padding bit past the entry count.
        let mut bad = good.clone();
        bad[HEADER_SIZE + 2 + 1] |= 0x80; // bit 15 of a 12-entry page
        assert!(!checks(&bad));
        // A leading close underflows the level at st = 0.
        let mut flipped = paper_entries();
        flipped[0] = Entry::Close;
        flipped[3] = Entry::Open(TagCode(0));
        assert!(!checks(&raw_page(0, &flipped)));
        // Explicit zero count with nonzero nbytes is non-canonical.
        assert!(!checks(&raw_page_with_content(0, &[0, 0])));
        // Codes 1 and 2 two bytes wide, and a two-byte code past 15 bits:
        // readable, not canonical.
        for content in [&[4, 0, 0b0101, 1, 0, 2, 0][..], &[2, 0, 0b01, 0x00, 0x80]] {
            let buf = raw_page_with_content(0, content);
            assert!(Page::new(&buf).is_some() && !checks(&buf));
        }
        // A tag area that is not one or two bytes per open.
        assert!(Page::new(&raw_page_with_content(0, &[4, 0, 0b0101, 1, 2, 3])).is_none());
    }

    /// The superblock byte and the name `nokbench` reports are part of the
    /// on-disk and report formats: pin both.
    #[test]
    fn format_byte_and_reported_name_are_pinned() {
        assert_eq!(FORMAT_BYTE, 5);
        assert_eq!(format!("{:?}", Succinct), "Succinct");
    }
}
