//! LEB128 variable-length integers.
//!
//! Used by every codec framing in this crate and by the record-io row
//! format (the paper's record-io is "a binary format based on protocol
//! buffers", whose wire format is exactly these varints).

use pd_common::{Error, Result};

/// Append `value` to `out` as a LEB128 varint (1–10 bytes).
#[inline]
pub fn write_u64(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Read a varint from `input` starting at `*pos`, advancing `*pos`.
#[inline]
pub fn read_u64(input: &[u8], pos: &mut usize) -> Result<u64> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *input.get(*pos).ok_or_else(|| Error::Data("truncated varint".into()))?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return Err(Error::Data("varint overflows u64".into()));
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if shift > 63 {
            return Err(Error::Data("varint longer than 10 bytes".into()));
        }
    }
}

/// Zigzag-encode a signed integer so that small magnitudes stay small.
#[inline]
pub fn zigzag(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

/// Append a signed integer as a zigzag varint.
#[inline]
pub fn write_i64(out: &mut Vec<u8>, value: i64) {
    write_u64(out, zigzag(value));
}

/// Read a zigzag varint.
#[inline]
pub fn read_i64(input: &[u8], pos: &mut usize) -> Result<i64> {
    Ok(unzigzag(read_u64(input, pos)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_boundaries() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_u64(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn signed_round_trip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            let mut buf = Vec::new();
            write_i64(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_i64(&buf, &mut pos).unwrap(), v);
        }
    }

    #[test]
    fn zigzag_keeps_small_values_small() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
        assert_eq!(unzigzag(zigzag(-123456)), -123456);
    }

    #[test]
    fn truncated_input_errors() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX);
        buf.pop();
        let mut pos = 0;
        assert!(read_u64(&buf, &mut pos).is_err());
        assert!(read_u64(&[], &mut 0).is_err());
    }

    #[test]
    fn overlong_input_errors() {
        let buf = [0x80u8; 11];
        let mut pos = 0;
        assert!(read_u64(&buf, &mut pos).is_err());
        // 10-byte varint with overflow bits set.
        let buf = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f];
        let mut pos = 0;
        assert!(read_u64(&buf, &mut pos).is_err());
    }

    #[test]
    fn sequences_read_back_in_order() {
        let mut buf = Vec::new();
        for v in 0..1000u64 {
            write_u64(&mut buf, v * v);
        }
        let mut pos = 0;
        for v in 0..1000u64 {
            assert_eq!(read_u64(&buf, &mut pos).unwrap(), v * v);
        }
        assert_eq!(pos, buf.len());
    }
}
