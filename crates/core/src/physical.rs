//! Physical-level NoK matching (paper §5): [`crate::nok::TreeAccess`]
//! implemented directly on the succinct store's `FIRST-CHILD` /
//! `FOLLOWING-SIBLING` primitives, with Dewey ids derived during the
//! traversal (so node values can be fetched through the Dewey B+ tree and
//! the data file without any ids stored in the structure).

use nok_btree::BTree;
use nok_pager::Storage;

use crate::cursor;
use crate::dewey::Dewey;
use crate::error::{CoreError, CoreResult};
use crate::nok::TreeAccess;
use crate::pattern::NameTest;
use crate::sigma::{TagCode, TagDict};
use crate::store::{NodeAddr, StructStore};
use crate::values::DataFile;

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

/// Append the unsigned LEB128 encoding of `v`.
pub(crate) fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decode the unsigned LEB128 value at `b[*pos]` and advance `pos` past
/// it. `None` for a truncated, overlong (a final `0x00` after a
/// continuation) or over-64-bit encoding, so every value has one accepted
/// form: the one [`write_varint`] writes.
pub(crate) fn read_varint(b: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    for shift in (0..64).step_by(7) {
        let byte = *b.get(*pos)?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return None;
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return (byte != 0 || shift == 0).then_some(v);
        }
    }
    None
}

/// Reads the varint fields of one stored index record, in order.
struct Fields<'a> {
    bytes: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl Fields<'_> {
    fn u64(&mut self) -> CoreResult<u64> {
        read_varint(self.bytes, &mut self.pos).ok_or_else(|| {
            CoreError::Corrupt(format!("{}: truncated or overlong varint", self.what))
        })
    }

    fn u32(&mut self) -> CoreResult<u32> {
        u32::try_from(self.u64()?)
            .map_err(|_| CoreError::Corrupt(format!("{}: field exceeds u32", self.what)))
    }

    fn addr(&mut self) -> CoreResult<NodeAddr> {
        Ok(NodeAddr {
            page: self.u32()?,
            entry: self.u32()?,
        })
    }

    fn end(self) -> CoreResult<()> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(CoreError::Corrupt(format!(
                "{}: {} trailing bytes",
                self.what,
                self.bytes.len() - self.pos
            )))
        }
    }
}

fn write_addr(out: &mut Vec<u8>, addr: NodeAddr) {
    write_varint(out, addr.page.into());
    write_varint(out, addr.entry.into());
}

/// The record stored under each Dewey key in the **B+i** index: the node's
/// physical address and, if it has a value, the value's location in the
/// data file.
///
/// Stored as varints: page, entry, then `offset + 1` (0: no value) and,
/// for a value, its length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdRecord {
    /// Physical address of the node.
    pub addr: NodeAddr,
    /// `(offset, len)` into the data file, if the node has a value.
    pub value: Option<(u64, u32)>,
}

impl IdRecord {
    /// Encode for storage.
    pub fn to_bytes(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        write_addr(&mut out, self.addr);
        match self.value {
            Some((off, len)) => {
                write_varint(&mut out, off + 1);
                write_varint(&mut out, len.into());
            }
            None => out.push(0),
        }
        out
    }

    /// Decode from storage; anything [`IdRecord::to_bytes`] does not write
    /// is [`CoreError::Corrupt`].
    pub fn from_bytes(b: &[u8]) -> CoreResult<IdRecord> {
        let mut f = Fields {
            bytes: b,
            pos: 0,
            what: "IdRecord",
        };
        let addr = f.addr()?;
        let value = match f.u64()? {
            0 => None,
            off => Some((off - 1, f.u32()?)),
        };
        f.end()?;
        Ok(IdRecord { addr, value })
    }
}

/// One **B+t** entry, decoded: an occurrence's Dewey id, from the
/// composite key ([`tag_posting_key`]), and its physical address, the
/// value (varints page, entry). The level is the id's length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TagPosting {
    /// Physical address.
    pub addr: NodeAddr,
    /// Dewey id.
    pub dewey: Dewey,
}

impl TagPosting {
    /// The stored value: the address.
    pub fn value(addr: NodeAddr) -> Vec<u8> {
        let mut out = Vec::with_capacity(8);
        write_addr(&mut out, addr);
        out
    }

    /// Decode one stored `(key, value)` entry.
    pub fn decode(key: &[u8], value: &[u8]) -> CoreResult<TagPosting> {
        let dewey = key
            .get(2..)
            .and_then(Dewey::from_key)
            .ok_or_else(|| CoreError::Corrupt("bad Dewey key in tag posting".into()))?;
        let mut f = Fields {
            bytes: value,
            pos: 0,
            what: "tag posting",
        };
        let addr = f.addr()?;
        f.end()?;
        Ok(TagPosting { addr, dewey })
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
    data: &'a DataFile<S>,
}

impl<'a, S: Storage> PhysAccess<'a, S> {
    /// Assemble an access façade over the storage components.
    pub fn new(
        store: &'a StructStore<S>,
        dict: &'a TagDict,
        bt_id: &'a BTree<S>,
        data: &'a DataFile<S>,
    ) -> Self {
        PhysAccess {
            store,
            dict,
            bt_id,
            data,
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &StructStore<S> {
        self.store
    }

    /// Fetch the value of the node with this Dewey id, if any.
    pub fn value_of_dewey(&self, dewey: &Dewey) -> CoreResult<Option<String>> {
        let Some(rec) = self.bt_id.get_first(&dewey.to_key())? else {
            return Ok(None);
        };
        let rec = IdRecord::from_bytes(&rec)?;
        // A snapshot's data file reads the record as its generation left
        // it, before any later tombstone.
        match rec.value {
            Some((off, _len)) => Ok(Some(self.data.get_record(off)?)),
            None => Ok(None),
        }
    }

    /// Does the node with this Dewey id carry exactly `literal` as its
    /// value? Compares the stored bytes.
    pub fn value_equals(&self, dewey: &Dewey, literal: &str) -> CoreResult<bool> {
        let Some(rec) = self.bt_id.get_first(&dewey.to_key())? else {
            return Ok(false);
        };
        match IdRecord::from_bytes(&rec)?.value {
            Some((off, _len)) => self.data.record_equals(off, literal),
            None => Ok(false),
        }
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
        Ok(test.accepts(self.dict.name(self.store.tag_at(n.addr)?)))
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
        assert_eq!(no_val.to_bytes(), [0, 0, 0]);
        assert_eq!(IdRecord::from_bytes(&no_val.to_bytes()).unwrap(), no_val);
        let widest = IdRecord {
            addr: NodeAddr {
                page: u32::MAX,
                entry: u32::MAX,
            },
            value: Some((u64::MAX - 1, u32::MAX)),
        };
        assert_eq!(IdRecord::from_bytes(&widest.to_bytes()).unwrap(), widest);
    }

    /// Only the bytes `to_bytes` writes decode: a truncated or overlong
    /// varint, a field past `u32`, and trailing bytes are all refused.
    #[test]
    fn id_record_rejects_non_canonical_bytes() {
        let rec = IdRecord {
            addr: NodeAddr {
                page: 300,
                entry: 5,
            },
            value: Some((1000, 9)),
        }
        .to_bytes();
        for cut in 0..rec.len() {
            assert!(IdRecord::from_bytes(&rec[..cut]).is_err(), "cut at {cut}");
        }
        let mut trailing = rec.clone();
        trailing.push(0);
        assert!(IdRecord::from_bytes(&trailing).is_err());
        // 5 as `0x85 0x00`: the value one byte says, spelled in two.
        assert!(IdRecord::from_bytes(&[0, 0x85, 0x00, 0]).is_err());
        // A page number of 2^32.
        assert!(IdRecord::from_bytes(&[0x80, 0x80, 0x80, 0x80, 0x10, 0, 0]).is_err());
        // Eleven continuation bytes never end a u64.
        assert!(IdRecord::from_bytes(&[0xff; 11]).is_err());
        // The retired fixed-width record is refused outright.
        assert!(IdRecord::from_bytes(&[0u8; 21]).is_err());
    }

    #[test]
    fn varint_accepts_exactly_the_written_forms() {
        for v in [
            0,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
        // u64::MAX plus one more bit.
        let over = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02];
        assert_eq!(read_varint(&over, &mut 0), None);
        assert_eq!(read_varint(&[0x80, 0x00], &mut 0), None);
    }

    #[test]
    fn tag_posting_round_trip() {
        let dewey = Dewey::from_components(vec![0, 2, 5]);
        let addr = NodeAddr { page: 3, entry: 9 };
        let key = tag_posting_key(TagCode(4), &dewey);
        let p = TagPosting::decode(&key, &TagPosting::value(addr)).unwrap();
        assert_eq!(p, TagPosting { addr, dewey });
        assert!(TagPosting::decode(&key, &[3]).is_err());
        assert!(TagPosting::decode(&key, &[3, 9, 0]).is_err());
        assert!(TagPosting::decode(&key[..2], &TagPosting::value(addr)).is_err());
    }
}
