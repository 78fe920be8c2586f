//! Dewey IDs (§4.1 of the paper).
//!
//! A Dewey ID is the path of child indexes from the root: the root is `0`,
//! its second child is `0.2`, etc. The paper uses Dewey IDs as the key
//! connecting the structural string representation with the detached value
//! file, because they can be *derived for free during tree traversal* — the
//! matcher counts children as it iterates, so no node id needs to be stored
//! in the structure.
//!
//! Byte encoding ([`Dewey::to_key`]): each component in 1–5 bytes, the
//! length in the high bits of the first byte (`0xxxxxxx` 1, `10xxxxxx` 2,
//! `110xxxxx` 3, `1110xxxx` 4, `11110000` 5) and the value, less the
//! smallest value of that length, big-endian in the rest. Longer encodings
//! hold larger values and start with larger bytes, so the lexicographic
//! byte order of keys in the Dewey B+ tree is exactly document order (a
//! prefix sorts before its extensions, and sibling order follows component
//! order). The code is prefix-free, and the bias makes it canonical: every
//! `u32` has exactly one encoding, and every byte string decodes to at
//! most one id.
//!
//! Representation: ids up to [`INLINE_CAP`] components live inline on the
//! stack; deeper ids spill to a heap vector. Full-document scans mint one id
//! per node, and real-world XML is overwhelmingly shallower than the cap, so
//! the common case allocates nothing.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Components stored inline before spilling to the heap.
const INLINE_CAP: usize = 8;

/// Smallest component of each key-code length 1..=5: the previous
/// length's smallest plus its 2^(7·length) payloads.
const BIAS: [u64; 5] = [
    0,
    1 << 7,
    (1 << 7) + (1 << 14),
    (1 << 7) + (1 << 14) + (1 << 21),
    (1 << 7) + (1 << 14) + (1 << 21) + (1 << 28),
];

/// The length mark in the high bits of a key code's first byte, by length.
const MARK: [u8; 5] = [0x00, 0x80, 0xC0, 0xE0, 0xF0];

/// Encoded length of component `c` (1..=5 bytes).
#[inline]
fn code_len(c: u32) -> usize {
    BIAS[1..].iter().take_while(|&&b| u64::from(c) >= b).count() + 1
}

/// Append the key code of component `c`.
#[inline]
fn put_code(out: &mut Vec<u8>, c: u32) {
    let n = code_len(c);
    let payload = u64::from(c) - BIAS[n - 1];
    let word = u64::from(MARK[n - 1]) << (8 * (n - 1)) | payload;
    out.extend_from_slice(&word.to_be_bytes()[8 - n..]);
}

/// Decode the component whose code starts `key`: `(component, bytes)`.
/// `None` for an invalid first byte, a truncated code, or a 5-byte code
/// above `u32::MAX`.
#[inline]
fn get_code(key: &[u8]) -> Option<(u32, usize)> {
    let first = *key.first()?;
    let n = first.leading_ones() as usize + 1;
    if n > 5 {
        return None;
    }
    let code = key.get(..n)?;
    let word = code.iter().fold(0u64, |w, &b| w << 8 | u64::from(b));
    let payload = word & ((1 << (7 * n)) - 1);
    let c = u32::try_from(BIAS[n - 1] + payload).ok()?;
    Some((c, n))
}

/// The components of a key, in order, up to its end or its first
/// malformed code.
fn key_components(mut key: &[u8]) -> impl Iterator<Item = u32> + '_ {
    std::iter::from_fn(move || {
        let (c, n) = get_code(key)?;
        key = &key[n..];
        Some(c)
    })
}

/// Order a stored Dewey key against a Dewey path, by document order,
/// without decoding the key into a [`Dewey`].
pub fn cmp_key_path(key: &[u8], path: &[u32]) -> Ordering {
    key_components(key).cmp(path.iter().copied())
}

#[derive(Clone)]
enum Repr {
    Inline { len: u8, buf: [u32; INLINE_CAP] },
    Heap(Vec<u32>),
}

/// A Dewey identifier: the sequence of child indexes from the root.
pub struct Dewey(Repr);

impl Dewey {
    /// The root node's id (`0`).
    pub fn root() -> Dewey {
        Dewey::from_slice(&[0])
    }

    /// Construct from components.
    pub fn from_components(c: Vec<u32>) -> Dewey {
        if c.len() <= INLINE_CAP {
            Dewey::inline(&c)
        } else {
            Dewey(Repr::Heap(c))
        }
    }

    /// Construct by copying a component slice (no intermediate `Vec` for
    /// ids that fit inline).
    pub fn from_slice(c: &[u32]) -> Dewey {
        if c.len() <= INLINE_CAP {
            Dewey::inline(c)
        } else {
            Dewey(Repr::Heap(c.to_vec()))
        }
    }

    fn inline(c: &[u32]) -> Dewey {
        debug_assert!(c.len() <= INLINE_CAP);
        let mut buf = [0u32; INLINE_CAP];
        buf[..c.len()].copy_from_slice(c);
        Dewey(Repr::Inline {
            len: c.len() as u8,
            buf,
        })
    }

    /// The components of this id.
    pub fn components(&self) -> &[u32] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Heap(v) => v,
        }
    }

    fn components_mut(&mut self) -> &mut [u32] {
        match &mut self.0 {
            Repr::Inline { len, buf } => &mut buf[..*len as usize],
            Repr::Heap(v) => v,
        }
    }

    /// Depth of the node (root = 1).
    pub fn level(&self) -> u32 {
        self.components().len() as u32
    }

    /// Id of this node's `index`-th child.
    pub fn child(&self, index: u32) -> Dewey {
        let c = self.components();
        if c.len() < INLINE_CAP {
            let mut buf = [0u32; INLINE_CAP];
            buf[..c.len()].copy_from_slice(c);
            buf[c.len()] = index;
            Dewey(Repr::Inline {
                len: c.len() as u8 + 1,
                buf,
            })
        } else {
            let mut v = Vec::with_capacity(c.len() + 1);
            v.extend_from_slice(c);
            v.push(index);
            Dewey(Repr::Heap(v))
        }
    }

    /// Id of the next sibling. The empty id (the document node, which has
    /// no siblings) comes back unchanged.
    pub fn next_sibling(&self) -> Dewey {
        let mut d = self.clone();
        if let Some(last) = d.components_mut().last_mut() {
            *last += 1;
        }
        d
    }

    /// Id of the parent, or `None` for the root.
    pub fn parent(&self) -> Option<Dewey> {
        let c = self.components();
        if c.len() <= 1 {
            return None;
        }
        Some(Dewey::from_slice(&c[..c.len() - 1]))
    }

    /// The ancestor at depth `level` (1 = root). `None` if `level` exceeds
    /// this node's depth.
    pub fn ancestor_at_level(&self, level: u32) -> Option<Dewey> {
        let c = self.components();
        if level == 0 || level as usize > c.len() {
            return None;
        }
        Some(Dewey::from_slice(&c[..level as usize]))
    }

    /// Whether `self` is a proper ancestor of `other`.
    pub fn is_ancestor_of(&self, other: &Dewey) -> bool {
        let (a, b) = (self.components(), other.components());
        a.len() < b.len() && b[..a.len()] == a[..]
    }

    /// Append one component (the id of this node's child `c`, in place).
    fn push(&mut self, c: u32) {
        match &mut self.0 {
            Repr::Inline { len, buf } if (*len as usize) < INLINE_CAP => {
                buf[*len as usize] = c;
                *len += 1;
            }
            Repr::Inline { .. } => {
                let mut v = self.components().to_vec();
                v.push(c);
                self.0 = Repr::Heap(v);
            }
            Repr::Heap(v) => v.push(c),
        }
    }

    /// Order-preserving, prefix-free key bytes (see the module docs).
    pub fn to_key(&self) -> Vec<u8> {
        let c = self.components();
        let mut out = Vec::with_capacity(c.iter().map(|&x| code_len(x)).sum());
        for &comp in c {
            put_code(&mut out, comp);
        }
        out
    }

    /// Inverse of [`Dewey::to_key`]. `None` for the empty key and for any
    /// byte string `to_key` never produces: an invalid first byte, a
    /// truncated code, trailing bytes, or a component above `u32::MAX`.
    pub fn from_key(mut key: &[u8]) -> Option<Dewey> {
        if key.is_empty() {
            return None;
        }
        let mut d = Dewey::default();
        while !key.is_empty() {
            let (c, n) = get_code(key)?;
            d.push(c);
            key = &key[n..];
        }
        Some(d)
    }
}

// The two representations must compare, hash, and print identically for
// equal component sequences, so every structural trait delegates to
// `components()` instead of being derived over `Repr`.

impl Clone for Dewey {
    fn clone(&self) -> Dewey {
        Dewey(self.0.clone())
    }
}

impl Default for Dewey {
    fn default() -> Dewey {
        Dewey::from_slice(&[])
    }
}

impl fmt::Debug for Dewey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Dewey").field(&self.components()).finish()
    }
}

impl PartialEq for Dewey {
    fn eq(&self, other: &Dewey) -> bool {
        self.components() == other.components()
    }
}

impl Eq for Dewey {}

impl Hash for Dewey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.components().hash(state);
    }
}

impl PartialOrd for Dewey {
    fn partial_cmp(&self, other: &Dewey) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Dewey {
    fn cmp(&self, other: &Dewey) -> Ordering {
        self.components().cmp(other.components())
    }
}

impl fmt::Display for Dewey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.components().iter().enumerate() {
            if i > 0 {
                f.write_str(".")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_ids() {
        // "the Dewey IDs of the root a and its second child b are 0, and 0.2"
        // (the paper counts the attribute/first children too; here we just
        // check the mechanics).
        let root = Dewey::root();
        assert_eq!(root.to_string(), "0");
        let second_child = root.child(2);
        assert_eq!(second_child.to_string(), "0.2");
        assert_eq!(second_child.level(), 2);
        assert_eq!(second_child.parent(), Some(root));
    }

    #[test]
    fn sibling_and_child_navigation() {
        let n = Dewey::root().child(1).child(4);
        assert_eq!(n.to_string(), "0.1.4");
        assert_eq!(n.next_sibling().to_string(), "0.1.5");
        assert_eq!(n.child(0).to_string(), "0.1.4.0");
    }

    #[test]
    fn ancestor_relations() {
        let a = Dewey::root().child(1);
        let d = a.child(2).child(3);
        assert!(a.is_ancestor_of(&d));
        assert!(!d.is_ancestor_of(&a));
        assert!(!a.is_ancestor_of(&a.clone()));
        assert_eq!(d.ancestor_at_level(2), Some(a));
        assert_eq!(d.ancestor_at_level(4), Some(d.clone()));
        assert_eq!(d.ancestor_at_level(5), None);
        assert_eq!(d.ancestor_at_level(0), None);
    }

    #[test]
    fn key_order_is_document_order() {
        // Document order: ancestors before descendants, siblings in index
        // order.
        let root = Dewey::root();
        let c0 = root.child(0);
        let c0x = c0.child(7);
        let c1 = root.child(1);
        let mut keys = vec![c1.to_key(), c0x.to_key(), c0.to_key(), root.to_key()];
        keys.sort();
        assert_eq!(
            keys,
            vec![root.to_key(), c0.to_key(), c0x.to_key(), c1.to_key()]
        );
    }

    #[test]
    fn key_round_trip() {
        let d = Dewey::from_components(vec![0, 5, 1_000_000, 2]);
        assert_eq!(Dewey::from_key(&d.to_key()), Some(d));
        assert_eq!(Dewey::from_key(&[]), None);
        // A two-byte code cut after its first byte.
        assert_eq!(Dewey::from_key(&[1, 2, 0x80]), None);
    }

    #[test]
    fn big_sibling_indexes_order_correctly() {
        // A u8-per-component encoding would break at 256; ours must not.
        let a = Dewey::root().child(255);
        let b = Dewey::root().child(256);
        assert!(a.to_key() < b.to_key());
    }

    /// Each length's first and last value, and its exact bytes.
    #[test]
    fn key_code_length_boundaries() {
        let cases: [(u32, &[u8]); 10] = [
            (0, &[0x00]),
            (127, &[0x7f]),
            (128, &[0x80, 0x00]),
            (16_511, &[0xbf, 0xff]),
            (16_512, &[0xc0, 0x00, 0x00]),
            (2_113_663, &[0xdf, 0xff, 0xff]),
            (2_113_664, &[0xe0, 0x00, 0x00, 0x00]),
            (270_549_119, &[0xef, 0xff, 0xff, 0xff]),
            (270_549_120, &[0xf0, 0x00, 0x00, 0x00, 0x00]),
            (u32::MAX, &[0xf0, 0xefu8, 0xdf, 0xbf, 0x7f]),
        ];
        let mut prev: Option<Vec<u8>> = None;
        for (c, bytes) in cases {
            let key = Dewey::from_slice(&[c]).to_key();
            assert_eq!(key, bytes, "component {c}");
            assert_eq!(Dewey::from_key(&key), Some(Dewey::from_slice(&[c])));
            assert!(
                prev.is_none_or(|p| p < key),
                "{c} sorts after its predecessor"
            );
            prev = Some(key);
        }
    }

    /// Bytes `to_key` never writes are refused: an invalid first byte, a
    /// 5-byte code above `u32::MAX`, a truncated code.
    #[test]
    fn malformed_keys_are_refused() {
        for bad in [
            &[0xf8][..],
            &[0xff, 0, 0, 0, 0],
            &[0xf1, 0, 0, 0, 0],
            &[0xf0, 0xef, 0xdf, 0xbf, 0x80],
            &[0xf0, 0xff, 0xff, 0xff, 0xff],
            &[0x05, 0xe0, 0x00],
        ] {
            assert_eq!(Dewey::from_key(bad), None, "{bad:02x?}");
        }
    }

    #[test]
    fn key_path_comparison_follows_document_order() {
        let key = Dewey::from_slice(&[0, 300, 7]).to_key();
        assert_eq!(cmp_key_path(&key, &[0, 300, 7]), Ordering::Equal);
        assert_eq!(cmp_key_path(&key, &[0, 300]), Ordering::Greater);
        assert_eq!(cmp_key_path(&key, &[0, 300, 7, 0]), Ordering::Less);
        assert_eq!(cmp_key_path(&key, &[0, 299, 9]), Ordering::Greater);
        assert_eq!(cmp_key_path(&key, &[0, 16_600]), Ordering::Less);
    }

    /// Inline and heap representations must be indistinguishable: ids
    /// crossing the [`INLINE_CAP`] boundary keep equality, ordering,
    /// hashing, and navigation behavior.
    #[test]
    fn inline_and_heap_representations_agree() {
        use std::collections::HashSet;
        // Grow one component at a time across the spill boundary.
        let mut d = Dewey::root();
        for i in 1..(INLINE_CAP as u32 + 4) {
            let next = d.child(i);
            assert_eq!(next.level(), d.level() + 1);
            assert_eq!(next.parent(), Some(d.clone()));
            assert!(d.is_ancestor_of(&next));
            assert!(d < next, "document order across the spill boundary");
            d = next;
        }
        let comps: Vec<u32> = d.components().to_vec();
        assert_eq!(comps.len(), INLINE_CAP + 4);
        // All construction paths agree.
        let via_vec = Dewey::from_components(comps.clone());
        let via_slice = Dewey::from_slice(&comps);
        let via_key = Dewey::from_key(&d.to_key()).unwrap();
        assert_eq!(d, via_vec);
        assert_eq!(d, via_slice);
        assert_eq!(d, via_key);
        let set: HashSet<Dewey> = [d.clone(), via_vec, via_slice, via_key].into();
        assert_eq!(set.len(), 1, "equal ids must hash equally");
        // A shallow id truncated from the deep one is inline and still
        // compares correctly against the heap representation.
        let shallow = d.ancestor_at_level(3).unwrap();
        assert_eq!(shallow.components(), &comps[..3]);
        assert!(shallow.is_ancestor_of(&d));
        assert!(shallow < d);
        assert_eq!(shallow.next_sibling().components().last(), Some(&3));
    }
}
