//! Physical-level NoK matching (paper §5): [`crate::nok::TreeAccess`]
//! implemented directly on the succinct store's `FIRST-CHILD` /
//! `FOLLOWING-SIBLING` primitives, with Dewey ids derived during the
//! traversal (so node values can be fetched through the Dewey B+ tree and
//! the data file without any ids stored in the structure).

use std::cell::RefCell;
use std::sync::Mutex;

use nok_btree::BTree;
use nok_pager::Storage;

use crate::cursor;
use crate::dewey::Dewey;
use crate::error::{CoreError, CoreResult};
use crate::nok::TreeAccess;
use crate::pattern::NameTest;
use crate::sigma::{TagCode, TagDict};
use crate::store::{NodeAddr, StructStore};
use crate::values::{DataFile, LockDataFile};

/// A physical subject-tree node: its address plus the Dewey id derived on
/// the way here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhysNode {
    /// Address in the structural store (sentinel for the document node).
    pub addr: NodeAddr,
    /// Dewey id (empty for the document node).
    pub dewey: Dewey,
}

/// Sentinel address for the virtual document node.
pub const DOC_ADDR: NodeAddr = NodeAddr {
    page: u32::MAX,
    entry: u32::MAX,
};

impl PhysNode {
    /// Is this the virtual document node?
    #[inline]
    pub fn is_doc(&self) -> bool {
        self.addr == DOC_ADDR
    }
}

/// The record stored under each Dewey key in the **B+i** index: the node's
/// physical address and, if it has a value, the value's location in the
/// data file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdRecord {
    /// Physical address of the node.
    pub addr: NodeAddr,
    /// `(offset, len)` into the data file, if the node has a value.
    pub value: Option<(u64, u32)>,
}

impl IdRecord {
    /// Serialized size: addr(8) + flag(1) + offset(8) + len(4).
    pub const SIZE: usize = 21;

    /// Encode for storage.
    pub fn to_bytes(self) -> [u8; Self::SIZE] {
        let mut out = [0u8; Self::SIZE];
        out[..8].copy_from_slice(&self.addr.to_bytes());
        match self.value {
            Some((off, len)) => {
                out[8] = 1;
                out[9..17].copy_from_slice(&off.to_be_bytes());
                out[17..21].copy_from_slice(&len.to_be_bytes());
            }
            None => out[8] = 0,
        }
        out
    }

    /// Decode from storage.
    pub fn from_bytes(b: &[u8]) -> CoreResult<IdRecord> {
        if b.len() != Self::SIZE {
            return Err(CoreError::Corrupt(format!(
                "IdRecord of {} bytes (expected {})",
                b.len(),
                Self::SIZE
            )));
        }
        let addr = NodeAddr::from_bytes(&b[..8]);
        let value =
            if b[8] == 1 {
                let off =
                    u64::from_be_bytes(b[9..17].try_into().map_err(|_| {
                        CoreError::Corrupt("IdRecord offset field truncated".into())
                    })?);
                let len =
                    u32::from_be_bytes(b[17..21].try_into().map_err(|_| {
                        CoreError::Corrupt("IdRecord length field truncated".into())
                    })?);
                Some((off, len))
            } else {
                None
            };
        Ok(IdRecord { addr, value })
    }
}

/// The posting stored under each tag key in the **B+t** index: address,
/// level, and Dewey id of one occurrence (document order is preserved by
/// the B+ tree's duplicate handling).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TagPosting {
    /// Physical address.
    pub addr: NodeAddr,
    /// Node level.
    pub level: u16,
    /// Dewey id.
    pub dewey: Dewey,
}

impl TagPosting {
    /// Encode for storage (variable length: dewey is the tail).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(10 + self.dewey.components().len() * 4);
        out.extend_from_slice(&self.addr.to_bytes());
        out.extend_from_slice(&self.level.to_be_bytes());
        out.extend_from_slice(&self.dewey.to_key());
        out
    }

    /// Decode from storage.
    pub fn from_bytes(b: &[u8]) -> CoreResult<TagPosting> {
        if b.len() < 14 {
            return Err(CoreError::Corrupt("short tag posting".into()));
        }
        let addr = NodeAddr::from_bytes(&b[..8]);
        let level = u16::from_be_bytes([b[8], b[9]]);
        let dewey = Dewey::from_key(&b[10..])
            .ok_or_else(|| CoreError::Corrupt("bad dewey in tag posting".into()))?;
        Ok(TagPosting { addr, level, dewey })
    }
}

/// Composite **B+t** key: 2-byte big-endian tag code followed by the Dewey
/// key of the occurrence. Dewey keys compare lexicographically in document
/// order, so a range scan over one tag prefix yields postings in document
/// order — and every key is unique, which is what makes tag postings
/// updatable in place (duplicate keys cannot be deleted selectively).
pub fn tag_posting_key(tag: TagCode, dewey: &Dewey) -> Vec<u8> {
    let dk = dewey.to_key();
    let mut out = Vec::with_capacity(2 + dk.len());
    out.extend_from_slice(&tag.to_key());
    out.extend_from_slice(&dk);
    out
}

/// [`TreeAccess`] over the physical store plus the value-side structures.
pub struct PhysAccess<'a, S: Storage> {
    store: &'a StructStore<S>,
    dict: &'a TagDict,
    bt_id: &'a BTree<S>,
    data: &'a Mutex<DataFile>,
    /// Cache of name-test resolutions (string → code). Per-query local, so
    /// a plain `RefCell` suffices even under concurrent serving (each query
    /// thread builds its own `PhysAccess`). A query's distinct name tests
    /// number a handful, so a linear probe over a small vec beats hashing —
    /// and hits neither hash nor allocate.
    test_cache: RefCell<Vec<(String, Option<TagCode>)>>,
}

impl<'a, S: Storage> PhysAccess<'a, S> {
    /// Assemble an access façade over the storage components.
    pub fn new(
        store: &'a StructStore<S>,
        dict: &'a TagDict,
        bt_id: &'a BTree<S>,
        data: &'a Mutex<DataFile>,
    ) -> Self {
        PhysAccess {
            store,
            dict,
            bt_id,
            data,
            test_cache: RefCell::new(Vec::new()),
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &StructStore<S> {
        self.store
    }

    /// Resolve a tag name to its code, caching the answer. Hits are
    /// allocation-free; only the first probe of a distinct name copies it.
    pub fn resolve(&self, name: &str) -> Option<TagCode> {
        if let Some((_, c)) = self.test_cache.borrow().iter().find(|(n, _)| n == name) {
            return *c;
        }
        let code = self.dict.lookup(name);
        self.test_cache.borrow_mut().push((name.to_string(), code));
        code
    }

    /// Fetch the value of the node with this Dewey id, if any.
    pub fn value_of_dewey(&self, dewey: &Dewey) -> CoreResult<Option<String>> {
        let Some(rec) = self.bt_id.get_first(&dewey.to_key())? else {
            return Ok(None);
        };
        let rec = IdRecord::from_bytes(&rec)?;
        match rec.value {
            // A snapshot view may reference a record that a later commit
            // tombstoned; the payload bytes are still intact, so read past
            // the dead bit. The live path keeps the strict accessor — a
            // tombstoned record reachable from live indexes is corruption.
            Some((off, _len)) if self.store.is_view() => {
                Ok(Some(self.data.lock_data().get_record_any(off)?))
            }
            Some((off, _len)) => Ok(Some(self.data.lock_data().get_record(off)?)),
            None => Ok(None),
        }
    }

    /// Does the node with this Dewey id carry exactly `literal` as its
    /// value? Compares the stored bytes (live or tombstoned — a snapshot
    /// may still reference a record a later commit tombstoned).
    pub fn value_equals(&self, dewey: &Dewey, literal: &str) -> CoreResult<bool> {
        let Some(rec) = self.bt_id.get_first(&dewey.to_key())? else {
            return Ok(false);
        };
        match IdRecord::from_bytes(&rec)?.value {
            Some((off, _len)) => self.data.lock_data().record_equals(off, literal),
            None => Ok(false),
        }
    }

    /// The containment interval of a node (document node ⇒ everything).
    pub fn interval(&self, n: &PhysNode) -> CoreResult<(u64, u64)> {
        if n.is_doc() {
            return Ok((0, u64::MAX));
        }
        cursor::interval(self.store, n.addr)
    }
}

impl<S: Storage> TreeAccess for PhysAccess<'_, S> {
    type Node = PhysNode;

    fn doc_node(&self) -> PhysNode {
        PhysNode {
            addr: DOC_ADDR,
            dewey: Dewey::from_components(vec![]),
        }
    }

    #[inline]
    fn first_child(&self, n: &PhysNode) -> CoreResult<Option<PhysNode>> {
        if n.is_doc() {
            return Ok(self.store.root().map(|addr| PhysNode {
                addr,
                dewey: Dewey::root(),
            }));
        }
        Ok(
            cursor::first_child(self.store, n.addr)?.map(|addr| PhysNode {
                addr,
                dewey: n.dewey.child(0),
            }),
        )
    }

    #[inline]
    fn following_sibling(&self, n: &PhysNode) -> CoreResult<Option<PhysNode>> {
        if n.is_doc() {
            return Ok(None);
        }
        Ok(
            cursor::following_sibling(self.store, n.addr)?.map(|addr| PhysNode {
                addr,
                dewey: n.dewey.next_sibling(),
            }),
        )
    }

    #[inline]
    fn matches_test(&self, n: &PhysNode, test: &NameTest) -> CoreResult<bool> {
        if n.is_doc() {
            return Ok(false);
        }
        match test {
            NameTest::Wildcard => {
                // '*' selects elements, not the synthesized attribute nodes.
                let tag = self.store.tag_at(n.addr)?;
                Ok(!self.dict.name(tag).starts_with('@'))
            }
            NameTest::Tag(name) => {
                let Some(code) = self.resolve(name) else {
                    return Ok(false); // tag never occurs in this document
                };
                Ok(self.store.tag_at(n.addr)? == code)
            }
        }
    }

    fn value(&self, n: &PhysNode) -> CoreResult<Option<String>> {
        if n.is_doc() {
            return Ok(None);
        }
        self.value_of_dewey(&n.dewey)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_record_round_trip() {
        let with_val = IdRecord {
            addr: NodeAddr { page: 7, entry: 42 },
            value: Some((123456, 17)),
        };
        assert_eq!(
            IdRecord::from_bytes(&with_val.to_bytes()).unwrap(),
            with_val
        );
        let no_val = IdRecord {
            addr: NodeAddr { page: 0, entry: 0 },
            value: None,
        };
        assert_eq!(IdRecord::from_bytes(&no_val.to_bytes()).unwrap(), no_val);
        assert!(IdRecord::from_bytes(&[0u8; 5]).is_err());
    }

    #[test]
    fn tag_posting_round_trip() {
        let p = TagPosting {
            addr: NodeAddr { page: 3, entry: 9 },
            level: 4,
            dewey: Dewey::from_components(vec![0, 2, 5]),
        };
        assert_eq!(TagPosting::from_bytes(&p.to_bytes()).unwrap(), p);
        assert!(TagPosting::from_bytes(&[0u8; 3]).is_err());
    }
}
