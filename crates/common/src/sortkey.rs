//! Sort keys: one byte string per [`Value`], ordered by `memcmp` exactly as
//! [`Value::cmp`] orders the values — across types too.
//!
//! Where stores meet, a group table's key column is these strings laid end
//! to end (`pd_core`'s value domain): two partials merge by comparing byte
//! slices, a copy of a column is a buffer copy, and a `Value` is made only
//! for a row an answer returns. A key is one tag byte in [`Value`]'s type
//! order, then its payload:
//!
//! - `Null`: nothing;
//! - `Int`: the big-endian `i64` with its sign bit flipped;
//! - `Float`: the big-endian bits of [`f64::total_cmp`]'s order — all bits
//!   flipped if the sign is set, otherwise the sign bit set;
//! - `Str`: its UTF-8 bytes (a prefix sorts first, as in `str`'s order).
//!
//! The encoding is lossless (floats by bits), so [`decode`] returns the
//! value [`encode`] was given, and [`hash`] is [`crate::fx_hash64`] of that
//! value without making it. It also crosses the wire as it is: [`check`]
//! is what a decoder runs on every key it reads, and the tags are pinned
//! with the codecs' (a change to them, or to a payload, is a
//! `FRAME_VERSION` bump).

use crate::error::{Error, Result};
use crate::value::Value;
use std::hash::{Hash, Hasher};

/// The tag of a `Null` key.
pub const TAG_NULL: u8 = 0;
/// The tag of an `Int` key.
pub const TAG_INT: u8 = 1;
/// The tag of a `Float` key.
pub const TAG_FLOAT: u8 = 2;
/// The tag of a `Str` key.
pub const TAG_STR: u8 = 3;

const SIGN: u64 = 1 << 63;

/// An integer as a word whose unsigned order is the integers' order: its
/// bits with the sign flipped (an `Int` key's payload).
pub fn int_word(v: i64) -> u64 {
    v as u64 ^ SIGN
}

/// A float as a word whose unsigned order is [`f64::total_cmp`]'s: all
/// bits flipped if the sign is set, otherwise the sign bit set (a `Float`
/// key's payload).
pub fn float_word(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits & SIGN != 0 {
        !bits
    } else {
        bits | SIGN
    }
}

/// The key of an integer.
pub fn int(v: i64) -> [u8; 9] {
    tagged(TAG_INT, int_word(v))
}

/// The key of a float.
pub fn float(v: f64) -> [u8; 9] {
    tagged(TAG_FLOAT, float_word(v))
}

fn tagged(tag: u8, payload: u64) -> [u8; 9] {
    let mut key = [tag; 9];
    key[1..].copy_from_slice(&payload.to_be_bytes());
    key
}

/// Append the key of the string whose UTF-8 bytes are `s`.
pub fn push_str(s: &[u8], out: &mut Vec<u8>) {
    out.push(TAG_STR);
    out.extend_from_slice(s);
}

/// Append the key of `value`.
pub fn encode(value: &Value, out: &mut Vec<u8>) {
    match value {
        Value::Null => out.push(TAG_NULL),
        Value::Int(v) => out.extend_from_slice(&int(*v)),
        Value::Float(v) => out.extend_from_slice(&float(*v)),
        Value::Str(s) => push_str(s.as_bytes(), out),
    }
}

/// The payload of a 9-byte key, as the `u64` it was before [`int_word`] /
/// [`float_word`] made it sortable.
fn word(key: &[u8]) -> Option<u64> {
    let payload: [u8; 8] = key.get(1..)?.try_into().ok()?;
    let v = u64::from_be_bytes(payload);
    Some(match key.first() {
        Some(&TAG_INT) => v ^ SIGN,
        _ if v & SIGN != 0 => v ^ SIGN,
        _ => !v,
    })
}

/// Is `key` one [`encode`] can make? A tag, the width of its type, and
/// UTF-8 after a string's tag.
pub fn check(key: &[u8]) -> Result<()> {
    let well_formed = match key.split_first() {
        Some((&TAG_NULL, rest)) => rest.is_empty(),
        Some((&(TAG_INT | TAG_FLOAT), rest)) => rest.len() == 8,
        Some((&TAG_STR, rest)) => std::str::from_utf8(rest).is_ok(),
        _ => false,
    };
    match well_formed {
        true => Ok(()),
        false => Err(Error::Data(format!("wire: malformed key cell {key:02x?}"))),
    }
}

/// The value whose key is `key`. Panics on a key [`check`] refuses.
pub fn decode(key: &[u8]) -> Value {
    let word = || word(key).expect("a 9-byte key");
    match key.split_first() {
        Some((&TAG_NULL, _)) => Value::Null,
        Some((&TAG_INT, _)) => Value::Int(word() as i64),
        Some((&TAG_FLOAT, _)) => Value::Float(f64::from_bits(word())),
        Some((&TAG_STR, s)) => Value::Str(String::from_utf8(s.to_vec()).expect("a UTF-8 key")),
        _ => panic!("malformed key cell {key:02x?}"),
    }
}

/// `fx_hash64(&decode(key))`, bit for bit, without making the value: the
/// hash `COUNT(DISTINCT …)` offers its sketch.
pub fn hash(key: &[u8]) -> u64 {
    crate::fx_hash64(&Hashed(key))
}

/// A key that hashes as its value does (`Value`'s `Hash`: the tag as a
/// `u8`, then an `i64` / the float's bits as a `u64`, or a `str`).
struct Hashed<'a>(&'a [u8]);

impl Hash for Hashed<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let Some((&tag, rest)) = self.0.split_first() else { return };
        tag.hash(state);
        match tag {
            TAG_INT | TAG_FLOAT => state.write_u64(word(self.0).expect("a 9-byte key")),
            TAG_STR => {
                // `str`'s `Hash`: its bytes, then a 0xff terminator.
                state.write(rest);
                state.write_u8(0xff);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fx_hash64;
    use crate::rng::Rng;

    fn key(value: &Value) -> Vec<u8> {
        let mut out = Vec::new();
        encode(value, &mut out);
        out
    }

    #[test]
    fn tags_follow_the_value_type_order() {
        let typed = [Value::Null, Value::Int(i64::MAX), Value::Float(f64::NAN), Value::from("")];
        for pair in typed.windows(2) {
            assert!(pair[0] < pair[1]);
            assert!(key(&pair[0]) < key(&pair[1]), "{:?} {:?}", pair[0], pair[1]);
        }
        assert_eq!([TAG_NULL, TAG_INT, TAG_FLOAT, TAG_STR], [0, 1, 2, 3]);
    }

    #[test]
    fn every_key_checks_and_malformed_ones_do_not() {
        for value in [Value::Null, Value::Int(-3), Value::Float(-0.0), Value::from("ü")] {
            assert!(check(&key(&value)).is_ok(), "{value:?}");
        }
        let bad: [&[u8]; 6] = [&[], &[4], &[0, 0], &[1, 0, 0], &[2; 10], &[3, 0xff]];
        for key in bad {
            assert!(matches!(check(key), Err(Error::Data(_))), "{key:?}");
        }
    }

    #[test]
    fn a_strings_bytes_hash_as_its_value() {
        let mut rng = Rng::seed_from_u64(0x5ee7_4a54);
        let alphabet = ['a', 'b', 'é', '日', '\0', 'z'];
        for _ in 0..2_000 {
            let len = rng.range_usize(0, 40);
            let s: String = (0..len).map(|_| alphabet[rng.range_usize(0, 6)]).collect();
            let mut cell = Vec::new();
            push_str(s.as_bytes(), &mut cell);
            assert_eq!(hash(&cell), fx_hash64(&Value::Str(s.clone())), "{s:?}");
        }
        for value in [Value::Null, Value::Int(-7), Value::Float(f64::NAN), Value::Float(-0.0)] {
            assert_eq!(hash(&key(&value)), fx_hash64(&value), "{value:?}");
        }
    }
}
