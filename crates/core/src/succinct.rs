//! LEB128 varints: the tag codes of the bit-packed structure page (one per
//! open entry, see the page module), 1 byte below 128, at most 3 for a
//! 15-bit code.

/// Encoded LEB128 width of a tag code (1 byte below 128, 2 below 16384,
/// 3 otherwise).
#[inline]
pub fn varint_len(v: u16) -> usize {
    if v < 0x80 {
        1
    } else if v < 0x4000 {
        2
    } else {
        3
    }
}

/// Append the LEB128 encoding of `v`.
pub fn write_varint(out: &mut Vec<u8>, v: u16) {
    let mut v = v as u32;
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decode the LEB128 value starting at `buf[pos]`; returns `(value, width)`.
/// `None` on truncation or a value exceeding `u16`.
pub fn read_varint(buf: &[u8], pos: usize) -> Option<(u16, usize)> {
    let mut v: u32 = 0;
    let mut shift = 0u32;
    let mut width = 0usize;
    loop {
        let byte = *buf.get(pos + width)?;
        width += 1;
        v |= ((byte & 0x7F) as u32) << shift;
        if byte & 0x80 == 0 {
            if v > u16::MAX as u32 {
                return None;
            }
            return Some((v as u16, width));
        }
        shift += 7;
        if shift > 14 {
            return None; // a u16 never needs more than 3 LEB128 bytes
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trip_all_widths() {
        for v in [0u16, 1, 127, 128, 300, 16383, 16384, 40000, u16::MAX] {
            let mut buf = vec![0xAA]; // leading junk: encode at offset 1
            write_varint(&mut buf, v);
            assert_eq!(buf.len() - 1, varint_len(v), "width of {v}");
            let (got, w) = read_varint(&buf, 1).unwrap();
            assert_eq!((got, w), (v, varint_len(v)), "round trip of {v}");
        }
    }

    #[test]
    fn varint_truncation_rejected() {
        assert!(read_varint(&[0x80], 0).is_none());
        assert!(read_varint(&[], 0).is_none());
        // 4-byte LEB128 exceeds u16.
        assert!(read_varint(&[0x80, 0x80, 0x80, 0x01], 0).is_none());
    }
}
