//! Structured findings: [`Violation`] (one per defect class) and [`Report`]
//! (the result of one analyzer run), with human and JSON rendering. JSON is
//! emitted by hand — the build environment is offline and this workspace
//! vendors no serialization framework.

use std::fmt;

/// One integrity violation, with enough location detail (page id, entry
/// offset, expected vs. found) to pinpoint the damage.
#[derive(Debug, Clone)]
pub enum Violation {
    /// The directory's `super.blk` is missing, damaged, or names a page
    /// format this build does not read. Nothing else was scanned: the
    /// pages are never decoded on a guess.
    Superblock {
        /// What is wrong, and the remedy.
        detail: String,
    },
    /// A chained page could not be read from storage at all.
    PageUnreadable {
        /// Page id.
        page: u32,
        /// Underlying I/O error.
        detail: String,
    },
    /// A page's header or entry bytes do not parse.
    PageUndecodable {
        /// Page id.
        page: u32,
        /// What failed to parse.
        detail: String,
    },
    /// `nbytes` claims more content than the page can hold — the
    /// capacity/reserve bound of the paper's formula is violated.
    PageOverflow {
        /// Page id.
        page: u32,
        /// Claimed content byte count.
        nbytes: u16,
        /// Maximum content bytes for this page size.
        max: u64,
    },
    /// A next pointer leads outside the pool.
    BrokenChain {
        /// Page holding the pointer.
        page: u32,
        /// The out-of-range target.
        next: u32,
    },
    /// Following next pointers revisits a page.
    ChainCycle {
        /// First page seen twice.
        page: u32,
    },
    /// A pool page is not reachable from the chain head.
    UnreachablePage {
        /// The unchained page.
        page: u32,
    },
    /// A page's `st` is not the true end level of its predecessor.
    StMismatch {
        /// Page id.
        page: u32,
        /// True end level of the previous page.
        expected: u16,
        /// Stored `st`.
        found: u16,
    },
    /// A page's `lo`/`hi` are not the true min/max entry levels.
    BoundsMismatch {
        /// Page id.
        page: u32,
        /// Recomputed minimum level.
        expected_lo: u16,
        /// Recomputed maximum level.
        expected_hi: u16,
        /// Stored `lo`.
        found_lo: u16,
        /// Stored `hi`.
        found_hi: u16,
    },
    /// The string's node intervals do not nest (close without open, forest).
    NestingViolation {
        /// Page id.
        page: u32,
        /// Entry index within the page.
        entry: u32,
        /// What went wrong.
        detail: String,
    },
    /// Open and close parentheses do not balance over the whole string.
    UnbalancedString {
        /// Total open entries.
        opens: u64,
        /// Total close entries.
        closes: u64,
        /// Level after the last entry (must be 0).
        end_level: u16,
    },
    /// The in-memory header directory disagrees with the raw page.
    DirectoryMismatch {
        /// Page id.
        page: u32,
        /// Which directory field diverged.
        field: &'static str,
        /// Value recomputed from the raw page / chain position.
        expected: u64,
        /// Value held by the directory.
        found: u64,
    },
    /// Two redundant counters disagree.
    CountMismatch {
        /// What was counted.
        what: &'static str,
        /// Recomputed ground truth.
        expected: u64,
        /// Stored value.
        found: u64,
    },
    /// A node derived from the structure has no B+i entry.
    MissingIdEntry {
        /// Dewey id of the node.
        dewey: String,
    },
    /// A B+i entry names a Dewey id that no node carries.
    OrphanIdEntry {
        /// Dewey id of the stray entry.
        dewey: String,
    },
    /// A B+i entry stores the wrong physical address for its node.
    IdAddrMismatch {
        /// Dewey id of the node.
        dewey: String,
        /// Address derived from the structure (`page:entry`).
        expected: String,
        /// Address stored in the index.
        found: String,
    },
    /// A B+t posting stores the wrong physical address for the node its
    /// key names.
    TagAddrMismatch {
        /// Dewey id of the node.
        dewey: String,
        /// Address derived from the structure (`page:entry`).
        expected: String,
        /// Address stored in the posting.
        found: String,
    },
    /// A B+i value pointer does not resolve to a matching data-file record.
    ValueUnresolvable {
        /// Dewey id of the node.
        dewey: String,
        /// Claimed data-file offset.
        offset: u64,
        /// Why resolution failed.
        detail: String,
    },
    /// A B+v posting's hash key does not hash its node's stored value.
    ValueHashMismatch {
        /// Dewey id the posting points at.
        dewey: String,
        /// What diverged.
        detail: String,
    },
    /// A valued node has no B+v posting under its value's hash.
    MissingValuePosting {
        /// Dewey id of the node.
        dewey: String,
    },
    /// A B+v posting points at a node that carries no value.
    OrphanValuePosting {
        /// Dewey id the posting points at.
        dewey: String,
    },
    /// A data-file record is referenced by no B+i entry (strict mode).
    OrphanValueRecord {
        /// Byte offset of the record.
        offset: u64,
    },
    /// A node has no B+t posting under its tag.
    MissingTagPosting {
        /// Dewey id of the node.
        dewey: String,
        /// Tag code.
        tag: u16,
    },
    /// A B+t posting matches no node.
    OrphanTagPosting {
        /// Tag code.
        tag: u16,
        /// The stray posting.
        detail: String,
    },
    /// B+t postings within a tag group are out of document order (strict).
    TagOrderViolation {
        /// Tag code.
        tag: u16,
        /// The out-of-order posting.
        detail: String,
    },
    /// A B+ tree violated one of its structural invariants.
    BTreeStructure {
        /// Which index (`B+t`, `B+v`, `B+i`).
        index: &'static str,
        /// Page the issue was found on.
        page: u32,
        /// The issue.
        detail: String,
    },
    /// A stored record (IdRecord, TagPosting, Dewey key, data record) does
    /// not parse, or an index scan aborted.
    RecordCorrupt {
        /// What failed to parse.
        what: &'static str,
        /// Parse failure detail.
        detail: String,
    },
    /// A page's bit-packed content does not parse canonically:
    /// bad count word, truncated parenthesis bitvector, or nonzero padding
    /// bits.
    SuccinctEncoding {
        /// Page id.
        page: u32,
        /// What failed to parse.
        detail: String,
    },
    /// A page's tag area is not one code per open at one or two bytes
    /// each, or its codes are two bytes wide while all of them fit one.
    TagWidth {
        /// Page id.
        page: u32,
        /// The area's size, or the width against the largest code.
        detail: String,
    },
    /// A page stores a tag code outside the 15-bit range the tag
    /// dictionary can represent.
    TagCodeOutOfRange {
        /// Page id.
        page: u32,
        /// Entry index within the page.
        entry: u32,
        /// The out-of-range code.
        code: u16,
    },
    /// The synopsis path summary disagrees with the root-to-node tag paths
    /// recomputed from a full rescan of the structure (see DESIGN.md §17).
    SynopsisPathCountMismatch {
        /// The tag path, rendered `/a/b/c` with dictionary names.
        path: String,
        /// Node count recomputed from the rescan.
        expected: u64,
        /// Node count the synopsis carries.
        found: u64,
    },
    /// A residual of the synopsis path summary — the document nodes below a
    /// trie path that the summary does not spell out — disagrees with the
    /// recount of the rescan against the persisted trie shape.
    SynopsisResidualMismatch {
        /// The trie path, rendered `/a/b/c` with dictionary names.
        path: String,
        /// Folded nodes recounted from the rescan.
        expected: u64,
        /// Residual the synopsis carries.
        found: u64,
    },
    /// A node sits deeper than its tag's synopsis depth bound, which the
    /// planner takes as a proof that no node with the tag opens below it
    /// (see DESIGN.md §17). A bound above the deepest node is allowed.
    SynopsisDepthBound {
        /// The tag's dictionary name.
        tag: String,
        /// Deepest level of a node with the tag, from the rescan.
        deepest: u16,
        /// Depth bound the synopsis carries.
        bound: u16,
    },
    /// The published MVCC generation disagrees with the committed state it
    /// claims to represent (see DESIGN.md §14).
    GenerationMismatch {
        /// Which published field diverged (epoch, node count, …).
        field: &'static str,
        /// Value held by the live committed state.
        expected: u64,
        /// Value the published generation carries.
        found: u64,
    },
}

impl Violation {
    /// Stable machine-readable class name (used by tests and JSON output).
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::Superblock { .. } => "superblock",
            Violation::PageUnreadable { .. } => "page-unreadable",
            Violation::PageUndecodable { .. } => "page-undecodable",
            Violation::PageOverflow { .. } => "page-overflow",
            Violation::BrokenChain { .. } => "broken-chain",
            Violation::ChainCycle { .. } => "chain-cycle",
            Violation::UnreachablePage { .. } => "unreachable-page",
            Violation::StMismatch { .. } => "st-mismatch",
            Violation::BoundsMismatch { .. } => "bounds-mismatch",
            Violation::NestingViolation { .. } => "nesting-violation",
            Violation::UnbalancedString { .. } => "unbalanced-string",
            Violation::DirectoryMismatch { .. } => "directory-mismatch",
            Violation::CountMismatch { .. } => "count-mismatch",
            Violation::MissingIdEntry { .. } => "missing-id-entry",
            Violation::OrphanIdEntry { .. } => "orphan-id-entry",
            Violation::IdAddrMismatch { .. } => "id-addr-mismatch",
            Violation::TagAddrMismatch { .. } => "tag-addr-mismatch",
            Violation::ValueUnresolvable { .. } => "value-unresolvable",
            Violation::ValueHashMismatch { .. } => "value-hash-mismatch",
            Violation::MissingValuePosting { .. } => "missing-value-posting",
            Violation::OrphanValuePosting { .. } => "orphan-value-posting",
            Violation::OrphanValueRecord { .. } => "orphan-value-record",
            Violation::MissingTagPosting { .. } => "missing-tag-posting",
            Violation::OrphanTagPosting { .. } => "orphan-tag-posting",
            Violation::TagOrderViolation { .. } => "tag-order-violation",
            Violation::BTreeStructure { .. } => "btree-structure",
            Violation::RecordCorrupt { .. } => "record-corrupt",
            Violation::SuccinctEncoding { .. } => "succinct-encoding",
            Violation::TagWidth { .. } => "tag-width",
            Violation::TagCodeOutOfRange { .. } => "tag-code-out-of-range",
            Violation::SynopsisPathCountMismatch { .. } => "synopsis-path-count-mismatch",
            Violation::SynopsisResidualMismatch { .. } => "synopsis-residual-mismatch",
            Violation::SynopsisDepthBound { .. } => "synopsis-depth-bound",
            Violation::GenerationMismatch { .. } => "generation-mismatch",
        }
    }

    /// JSON object for this violation.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObj::new();
        obj.str("kind", self.kind());
        match self {
            Violation::Superblock { detail } => obj.str("detail", detail),
            Violation::PageUnreadable { page, detail }
            | Violation::PageUndecodable { page, detail } => {
                obj.num("page", *page as u64);
                obj.str("detail", detail);
            }
            Violation::PageOverflow { page, nbytes, max } => {
                obj.num("page", *page as u64);
                obj.num("nbytes", *nbytes as u64);
                obj.num("max", *max);
            }
            Violation::BrokenChain { page, next } => {
                obj.num("page", *page as u64);
                obj.num("next", *next as u64);
            }
            Violation::ChainCycle { page } | Violation::UnreachablePage { page } => {
                obj.num("page", *page as u64);
            }
            Violation::StMismatch {
                page,
                expected,
                found,
            } => {
                obj.num("page", *page as u64);
                obj.num("expected", *expected as u64);
                obj.num("found", *found as u64);
            }
            Violation::BoundsMismatch {
                page,
                expected_lo,
                expected_hi,
                found_lo,
                found_hi,
            } => {
                obj.num("page", *page as u64);
                obj.num("expected_lo", *expected_lo as u64);
                obj.num("expected_hi", *expected_hi as u64);
                obj.num("found_lo", *found_lo as u64);
                obj.num("found_hi", *found_hi as u64);
            }
            Violation::NestingViolation {
                page,
                entry,
                detail,
            } => {
                obj.num("page", *page as u64);
                obj.num("entry", *entry as u64);
                obj.str("detail", detail);
            }
            Violation::UnbalancedString {
                opens,
                closes,
                end_level,
            } => {
                obj.num("opens", *opens);
                obj.num("closes", *closes);
                obj.num("end_level", *end_level as u64);
            }
            Violation::DirectoryMismatch {
                page,
                field,
                expected,
                found,
            } => {
                obj.num("page", *page as u64);
                obj.str("field", field);
                obj.num("expected", *expected);
                obj.num("found", *found);
            }
            Violation::CountMismatch {
                what,
                expected,
                found,
            } => {
                obj.str("what", what);
                obj.num("expected", *expected);
                obj.num("found", *found);
            }
            Violation::MissingIdEntry { dewey }
            | Violation::OrphanIdEntry { dewey }
            | Violation::MissingValuePosting { dewey }
            | Violation::OrphanValuePosting { dewey } => {
                obj.str("dewey", dewey);
            }
            Violation::IdAddrMismatch {
                dewey,
                expected,
                found,
            }
            | Violation::TagAddrMismatch {
                dewey,
                expected,
                found,
            } => {
                obj.str("dewey", dewey);
                obj.str("expected", expected);
                obj.str("found", found);
            }
            Violation::ValueUnresolvable {
                dewey,
                offset,
                detail,
            } => {
                obj.str("dewey", dewey);
                obj.num("offset", *offset);
                obj.str("detail", detail);
            }
            Violation::ValueHashMismatch { dewey, detail } => {
                obj.str("dewey", dewey);
                obj.str("detail", detail);
            }
            Violation::OrphanValueRecord { offset } => {
                obj.num("offset", *offset);
            }
            Violation::MissingTagPosting { dewey, tag } => {
                obj.str("dewey", dewey);
                obj.num("tag", *tag as u64);
            }
            Violation::OrphanTagPosting { tag, detail }
            | Violation::TagOrderViolation { tag, detail } => {
                obj.num("tag", *tag as u64);
                obj.str("detail", detail);
            }
            Violation::BTreeStructure {
                index,
                page,
                detail,
            } => {
                obj.str("index", index);
                obj.num("page", *page as u64);
                obj.str("detail", detail);
            }
            Violation::RecordCorrupt { what, detail } => {
                obj.str("what", what);
                obj.str("detail", detail);
            }
            Violation::SuccinctEncoding { page, detail } | Violation::TagWidth { page, detail } => {
                obj.num("page", *page as u64);
                obj.str("detail", detail);
            }
            Violation::TagCodeOutOfRange { page, entry, code } => {
                obj.num("page", *page as u64);
                obj.num("entry", *entry as u64);
                obj.num("code", *code as u64);
            }
            Violation::SynopsisPathCountMismatch {
                path,
                expected,
                found,
            }
            | Violation::SynopsisResidualMismatch {
                path,
                expected,
                found,
            } => {
                obj.str("path", path);
                obj.num("expected", *expected);
                obj.num("found", *found);
            }
            Violation::SynopsisDepthBound {
                tag,
                deepest,
                bound,
            } => {
                obj.str("tag", tag);
                obj.num("deepest", u64::from(*deepest));
                obj.num("bound", u64::from(*bound));
            }
            Violation::GenerationMismatch {
                field,
                expected,
                found,
            } => {
                obj.str("field", field);
                obj.num("expected", *expected);
                obj.num("found", *found);
            }
        }
        obj.finish()
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Superblock { detail } => write!(f, "superblock: {detail}"),
            Violation::PageUnreadable { page, detail } => {
                write!(f, "page {page}: unreadable: {detail}")
            }
            Violation::PageUndecodable { page, detail } => {
                write!(f, "page {page}: undecodable: {detail}")
            }
            Violation::PageOverflow { page, nbytes, max } => {
                write!(f, "page {page}: nbytes {nbytes} exceeds content area {max}")
            }
            Violation::BrokenChain { page, next } => {
                write!(f, "page {page}: next pointer {next} outside the pool")
            }
            Violation::ChainCycle { page } => write!(f, "page {page}: chain cycles back here"),
            Violation::UnreachablePage { page } => {
                write!(f, "page {page}: not reachable from the chain head")
            }
            Violation::StMismatch {
                page,
                expected,
                found,
            } => write!(
                f,
                "page {page}: st={found}, but the previous page ends at level {expected}"
            ),
            Violation::BoundsMismatch {
                page,
                expected_lo,
                expected_hi,
                found_lo,
                found_hi,
            } => write!(
                f,
                "page {page}: header [lo,hi]=[{found_lo},{found_hi}], recomputed [{expected_lo},{expected_hi}]"
            ),
            Violation::NestingViolation {
                page,
                entry,
                detail,
            } => write!(f, "page {page} entry {entry}: {detail}"),
            Violation::UnbalancedString {
                opens,
                closes,
                end_level,
            } => write!(
                f,
                "unbalanced string: {opens} opens, {closes} closes, final level {end_level}"
            ),
            Violation::DirectoryMismatch {
                page,
                field,
                expected,
                found,
            } => write!(
                f,
                "page {page}: directory {field}={found}, raw page says {expected}"
            ),
            Violation::CountMismatch {
                what,
                expected,
                found,
            } => write!(f, "{what}: stored {found}, recomputed {expected}"),
            Violation::MissingIdEntry { dewey } => {
                write!(f, "node {dewey}: no B+i entry")
            }
            Violation::OrphanIdEntry { dewey } => {
                write!(f, "B+i entry {dewey}: no such node in the structure")
            }
            Violation::IdAddrMismatch {
                dewey,
                expected,
                found,
            } => write!(f, "node {dewey}: B+i stores address {found}, node is at {expected}"),
            Violation::TagAddrMismatch {
                dewey,
                expected,
                found,
            } => write!(f, "node {dewey}: B+t stores address {found}, node is at {expected}"),
            Violation::ValueUnresolvable {
                dewey,
                offset,
                detail,
            } => write!(
                f,
                "node {dewey}: value pointer {offset} unresolvable: {detail}"
            ),
            Violation::ValueHashMismatch { dewey, detail } => {
                write!(f, "node {dewey}: B+v hash mismatch: {detail}")
            }
            Violation::MissingValuePosting { dewey } => {
                write!(f, "node {dewey}: value present but no B+v posting")
            }
            Violation::OrphanValuePosting { dewey } => {
                write!(f, "B+v posting for {dewey}: node carries no value")
            }
            Violation::OrphanValueRecord { offset } => {
                write!(f, "data-file record at {offset}: referenced by no B+i entry")
            }
            Violation::MissingTagPosting { dewey, tag } => {
                write!(f, "node {dewey} (tag {tag}): no B+t posting")
            }
            Violation::OrphanTagPosting { tag, detail } => {
                write!(f, "B+t tag {tag}: {detail}")
            }
            Violation::TagOrderViolation { tag, detail } => {
                write!(f, "B+t tag {tag}: document order broken: {detail}")
            }
            Violation::BTreeStructure {
                index,
                page,
                detail,
            } => write!(f, "{index} page {page}: {detail}"),
            Violation::RecordCorrupt { what, detail } => write!(f, "{what}: {detail}"),
            Violation::SuccinctEncoding { page, detail } => {
                write!(f, "page {page}: succinct encoding: {detail}")
            }
            Violation::TagWidth { page, detail } => {
                write!(f, "page {page}: tag width: {detail}")
            }
            Violation::TagCodeOutOfRange { page, entry, code } => {
                write!(f, "page {page} entry {entry}: tag code {code} outside the 15-bit range")
            }
            Violation::SynopsisPathCountMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "synopsis path {path}: stored count {found}, rescan says {expected}"
            ),
            Violation::SynopsisResidualMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "synopsis path {path}: stored residual {found}, rescan says {expected}"
            ),
            Violation::SynopsisDepthBound {
                tag,
                deepest,
                bound,
            } => write!(
                f,
                "synopsis tag {tag}: depth bound {bound}, rescan finds one at level {deepest}"
            ),
            Violation::GenerationMismatch {
                field,
                expected,
                found,
            } => write!(
                f,
                "published generation {field}={found}, committed state says {expected}"
            ),
        }
    }
}

/// Result of one analyzer run.
#[derive(Debug)]
pub struct Report {
    /// Everything found, in discovery order.
    pub violations: Vec<Violation>,
    /// Structural pages walked.
    pub pages: u32,
    /// Element nodes derived from the string.
    pub nodes: u64,
}

impl Report {
    /// True when no violations were found.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Whether any violation of the given [`Violation::kind`] was found.
    pub fn has_kind(&self, kind: &str) -> bool {
        self.violations.iter().any(|v| v.kind() == kind)
    }

    /// Distinct violation kinds found, in first-seen order.
    pub fn kinds(&self) -> Vec<&'static str> {
        let mut out: Vec<&'static str> = Vec::new();
        for v in &self.violations {
            if !out.contains(&v.kind()) {
                out.push(v.kind());
            }
        }
        out
    }

    /// Whole report as a JSON object.
    pub fn to_json(&self) -> String {
        let items: Vec<String> = self.violations.iter().map(|v| v.to_json()).collect();
        format!(
            "{{\"clean\":{},\"pages\":{},\"nodes\":{},\"violations\":[{}]}}",
            self.is_clean(),
            self.pages,
            self.nodes,
            items.join(",")
        )
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        write!(
            f,
            "{} page(s), {} node(s): {}",
            self.pages,
            self.nodes,
            if self.is_clean() {
                "clean".to_string()
            } else {
                format!("{} violation(s)", self.violations.len())
            }
        )
    }
}

/// Minimal hand-rolled JSON object builder (offline build: no serde).
struct JsonObj {
    out: String,
    first: bool,
}

impl JsonObj {
    fn new() -> JsonObj {
        JsonObj {
            out: String::from("{"),
            first: true,
        }
    }

    fn sep(&mut self) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
    }

    fn str(&mut self, key: &str, value: &str) {
        self.sep();
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":\"");
        for c in value.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    self.out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }

    fn num(&mut self, key: &str, value: u64) {
        self.sep();
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
        self.out.push_str(&value.to_string());
    }

    fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}
