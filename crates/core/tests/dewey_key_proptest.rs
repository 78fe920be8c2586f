//! Property tests on the Dewey key code: byte order is document order,
//! component codes are prefix-free, keys round-trip, and every byte string
//! the encoder does not write — truncated, overlong or with trailing
//! bytes — is refused.

use proptest::prelude::*;

use nok_core::dewey::{cmp_key_path, Dewey};

/// Each code length's first and last value, and their neighbours.
const EDGES: [u32; 16] = [
    0,
    1,
    126,
    127,
    128,
    129,
    16_511,
    16_512,
    16_513,
    2_113_663,
    2_113_664,
    270_549_119,
    270_549_120,
    270_549_121,
    u32::MAX - 1,
    u32::MAX,
];

fn component() -> impl Strategy<Value = u32> {
    prop_oneof![
        (0..EDGES.len()).prop_map(|i| EDGES[i]),
        0u32..300,
        any::<u32>(),
    ]
}

fn components() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(component(), 1..12)
}

/// A second id near `a`: a prefix of it, a sibling of one of its
/// ancestors-or-self, a descendant, or an unrelated id.
fn relative(a: &[u32], cut: usize, step: u32, tail: &[u32], how: u8) -> Vec<u32> {
    let cut = 1 + cut % a.len();
    let mut b = a[..cut].to_vec();
    match how % 4 {
        0 => {}
        1 => {
            let last = b.len() - 1;
            b[last] = b[last].wrapping_add(step);
        }
        2 => b.extend_from_slice(&a[cut..]),
        _ => return tail.to_vec(),
    }
    b.extend_from_slice(&tail[..tail.len() % 3]);
    b
}

fn code(c: u32) -> Vec<u8> {
    Dewey::from_slice(&[c]).to_key()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Key byte order is `Dewey::cmp`: a prefix first, siblings in
    /// component order — and `cmp_key_path` agrees without decoding.
    #[test]
    fn key_order_is_document_order(
        a in components(),
        cut in 0usize..16,
        step in component(),
        tail in components(),
        how in 0u8..4,
    ) {
        let b = relative(&a, cut, step, &tail, how);
        let (da, db) = (Dewey::from_slice(&a), Dewey::from_slice(&b));
        prop_assert_eq!(da.to_key().cmp(&db.to_key()), da.cmp(&db), "{} vs {}", da, db);
        prop_assert_eq!(cmp_key_path(&da.to_key(), &b), da.cmp(&db));
        prop_assert_eq!(
            db.to_key().starts_with(&da.to_key()),
            da == db || da.is_ancestor_of(&db)
        );
    }

    /// No component's code is a prefix of another's, so a key splits into
    /// components one way only.
    #[test]
    fn component_codes_are_prefix_free(x in component(), y in component()) {
        let (cx, cy) = (code(x), code(y));
        if x != y {
            prop_assert!(!cy.starts_with(&cx), "{} is a prefix of {}", x, y);
        } else {
            prop_assert_eq!(cx, cy);
        }
    }

    /// `from_key` inverts `to_key`; a key cut anywhere but a component
    /// boundary, or followed by the start of an unfinished code, is
    /// refused; a cut at a boundary is the ancestor's key.
    #[test]
    fn keys_round_trip_and_malformed_bytes_are_refused(a in components(), extra in 0x80u8..=0xff) {
        let d = Dewey::from_slice(&a);
        let key = d.to_key();
        prop_assert_eq!(Dewey::from_key(&key), Some(d.clone()));
        let mut boundaries = vec![0];
        for &c in &a {
            boundaries.push(boundaries[boundaries.len() - 1] + code(c).len());
        }
        for cut in 0..key.len() {
            match boundaries.iter().position(|&b| b == cut) {
                Some(0) => prop_assert_eq!(Dewey::from_key(&key[..cut]), None),
                Some(level) => prop_assert_eq!(
                    Dewey::from_key(&key[..cut]),
                    d.ancestor_at_level(level as u32)
                ),
                None => prop_assert_eq!(Dewey::from_key(&key[..cut]), None, "cut at {}", cut),
            }
        }
        // A first byte of 0x80 or more opens a code of 2+ bytes (or is
        // invalid): alone at the end it is a trailing fragment.
        let trailing = [&key[..], &[extra]].concat();
        prop_assert_eq!(Dewey::from_key(&trailing), None);
    }

    /// Any byte string either is refused or is exactly the key of the id
    /// it decodes to: no second spelling of an id exists to be accepted.
    #[test]
    fn arbitrary_bytes_decode_canonically_or_not_at_all(
        bytes in prop::collection::vec(any::<u8>(), 0..24),
    ) {
        if let Some(d) = Dewey::from_key(&bytes) {
            prop_assert_eq!(d.to_key(), bytes);
        }
    }

    /// Every 5-byte code above `u32::MAX` — the only spelling past the
    /// range the lengths cover — is refused.
    #[test]
    fn five_byte_overflow_is_refused(first in 0xf0u8..=0xff, payload in any::<u32>(), over in 1u32..1000) {
        let max = code(u32::MAX);
        let past = u32::from_be_bytes([max[1], max[2], max[3], max[4]]).checked_add(over);
        if let Some(p) = past {
            let mut bad = vec![0xf0];
            bad.extend_from_slice(&p.to_be_bytes());
            prop_assert_eq!(Dewey::from_key(&bad), None);
        }
        if first != 0xf0 {
            let mut bad = vec![first];
            bad.extend_from_slice(&payload.to_be_bytes());
            prop_assert_eq!(Dewey::from_key(&bad), None);
        }
    }
}
