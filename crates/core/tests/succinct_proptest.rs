//! Property test on the page's tag-code varints: every `u16` round-trips
//! through `write_varint`/`read_varint` at its encoded width.

use proptest::prelude::*;

use nok_core::succinct::{read_varint, write_varint};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Varint round-trip over the whole 15-bit tag-code space (and the
    /// 16-bit values the reader must still parse).
    #[test]
    fn varint_round_trips(vals in proptest::collection::vec(any::<u16>(), 0..64)) {
        let mut buf = Vec::new();
        for v in &vals {
            write_varint(&mut buf, *v);
        }
        let mut pos = 0usize;
        for v in &vals {
            let (got, width) = read_varint(&buf, pos).expect("decode");
            prop_assert_eq!(got, *v);
            pos += width;
        }
        prop_assert_eq!(pos, buf.len());
    }
}
