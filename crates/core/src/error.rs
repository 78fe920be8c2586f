//! Unified error type for the core engine.

use std::fmt;

use nok_btree::BTreeError;
use nok_pager::PagerError;
use nok_xml::XmlError;

/// Result alias used across `nok-core`.
pub type CoreResult<T> = Result<T, CoreError>;

/// Errors surfaced by the storage scheme and query engine.
#[derive(Debug)]
pub enum CoreError {
    /// XML parsing failed while building or updating a store.
    Xml(XmlError),
    /// Page-level I/O failed.
    Pager(PagerError),
    /// Index operation failed.
    BTree(BTreeError),
    /// Path-expression syntax error.
    PathSyntax {
        /// Byte position in the expression.
        pos: usize,
        /// Human-readable description.
        msg: String,
    },
    /// A query referenced a tag name absent from the document's alphabet.
    /// (Not an error for evaluation — such queries return empty — but
    /// surfaced by APIs that resolve names eagerly.)
    UnknownTag(String),
    /// The store's on-disk structures are inconsistent.
    Corrupt(String),
    /// The directory's superblock does not name the structure page format
    /// this build reads; nothing in it was decoded.
    UnsupportedFormat(SuperblockError),
    /// An update was rejected (e.g. deleting the root).
    InvalidUpdate(String),
    /// The pattern cannot be evaluated in one streaming pass (a
    /// `following::` edge needs a walk over what follows its source).
    StreamUnsupported(String),
    /// The [`crate::MatchSink`] taking the answer stopped the evaluation:
    /// whoever reads the matches is gone or gave up on them.
    Stopped(String),
}

/// Why a database directory's `super.blk` was refused at open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuperblockError {
    /// There is no `super.blk`: the directory predates it, or lost it.
    Missing,
    /// Wrong length, magic or version.
    Damaged,
    /// A wellformed superblock naming another format (0 is the retired
    /// byte-per-entry page encoding, 1 the retired fixed-width index
    /// entries, 2 the retired LEB128 tag codes, 3 the retired B+tree leaves
    /// with whole keys and 6-byte cell headers).
    Format(u8),
}

impl fmt::Display for SuperblockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SuperblockError::Missing => write!(f, "super.blk is missing"),
            SuperblockError::Damaged => write!(f, "super.blk is damaged"),
            SuperblockError::Format(0) => {
                write!(f, "super.blk names page format 0 (byte-per-entry pages)")
            }
            SuperblockError::Format(1) => {
                write!(f, "super.blk names format 1 (fixed-width index entries)")
            }
            SuperblockError::Format(2) => {
                write!(f, "super.blk names format 2 (LEB128 tag codes)")
            }
            SuperblockError::Format(3) => {
                write!(
                    f,
                    "super.blk names format 3 (B+tree leaves with whole keys)"
                )
            }
            SuperblockError::Format(b) => write!(f, "super.blk names unknown page format {b}"),
        }
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Xml(e) => write!(f, "{e}"),
            CoreError::Pager(e) => write!(f, "{e}"),
            CoreError::BTree(e) => write!(f, "{e}"),
            CoreError::PathSyntax { pos, msg } => {
                write!(f, "path syntax error at byte {pos}: {msg}")
            }
            CoreError::UnknownTag(t) => write!(f, "unknown tag name {t:?}"),
            CoreError::Corrupt(m) => write!(f, "corrupt store: {m}"),
            CoreError::UnsupportedFormat(why) => write!(
                f,
                "unsupported database format: {why}; this build reads only format {} \
                 (bit-packed pages with fixed-width tag codes, variable-length index \
                 entries in prefix-truncated B+tree leaves) and upgrades \
                 nothing in place: rebuild the directory from its XML source",
                crate::page::FORMAT_BYTE
            ),
            CoreError::InvalidUpdate(m) => write!(f, "invalid update: {m}"),
            CoreError::StreamUnsupported(m) => {
                write!(f, "pattern not streamable in a single pass: {m}")
            }
            CoreError::Stopped(m) => write!(f, "evaluation stopped: {m}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Xml(e) => Some(e),
            CoreError::Pager(e) => Some(e),
            CoreError::BTree(e) => Some(e),
            _ => None,
        }
    }
}

impl From<XmlError> for CoreError {
    fn from(e: XmlError) -> Self {
        CoreError::Xml(e)
    }
}

impl From<PagerError> for CoreError {
    fn from(e: PagerError) -> Self {
        CoreError::Pager(e)
    }
}

impl From<SuperblockError> for CoreError {
    fn from(e: SuperblockError) -> Self {
        CoreError::UnsupportedFormat(e)
    }
}

impl From<BTreeError> for CoreError {
    fn from(e: BTreeError) -> Self {
        CoreError::BTree(e)
    }
}
