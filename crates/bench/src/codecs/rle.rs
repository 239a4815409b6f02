//! Byte run-length encoding.
//!
//! The paper's row-reordering section (§3, Figures 2–4) motivates reordering
//! with "the basic compression algorithm run-length encoding (RLE) which
//! replaces consecutive identical values with a counter and the value
//! itself". This module provides that codec for the §5 comparison.

use pd_common::{Error, Result};
use pd_compress::{varint, Codec};

/// Run-length codec over bytes.
///
/// Frame: `varint(uncompressed_len)` followed by tokens. A control byte
/// `c < 0x80` announces a literal run of `c + 1` bytes; `c >= 0x80`
/// announces `(c - 0x80) + 2` repetitions of the single following byte.
pub struct RleCodec;

const MAX_LITERAL: usize = 128;
const MAX_RUN: usize = 129;
/// Upper bound on the speculative output pre-allocation during decode.
const MAX_PREALLOC: usize = 1 << 24;

impl Codec for RleCodec {
    fn name(&self) -> &'static str {
        "rle"
    }

    fn compress(&self, input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() / 4 + 16);
        varint::write_u64(&mut out, input.len() as u64);
        let mut i = 0;
        let mut literal_start = 0;
        while i < input.len() {
            // Measure the run starting at i.
            let byte = input[i];
            let mut run = 1;
            while i + run < input.len() && input[i + run] == byte && run < MAX_RUN {
                run += 1;
            }
            if run >= 3 {
                flush_literals(&mut out, &input[literal_start..i]);
                out.push(0x80 + (run - 2) as u8);
                out.push(byte);
                i += run;
                literal_start = i;
            } else {
                i += run;
            }
        }
        flush_literals(&mut out, &input[literal_start..]);
        out
    }

    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>> {
        let mut pos = 0;
        let len = varint::read_u64(input, &mut pos)? as usize;
        // A corrupt frame may claim an absurd length; cap the upfront
        // allocation and let the vector grow organically past it.
        let mut out = Vec::with_capacity(len.min(MAX_PREALLOC));
        while out.len() < len {
            let ctrl =
                *input.get(pos).ok_or_else(|| Error::Data("rle: truncated control byte".into()))?;
            pos += 1;
            if ctrl < 0x80 {
                let n = ctrl as usize + 1;
                let lit = input
                    .get(pos..pos + n)
                    .ok_or_else(|| Error::Data("rle: truncated literal run".into()))?;
                out.extend_from_slice(lit);
                pos += n;
            } else {
                let n = (ctrl - 0x80) as usize + 2;
                let byte =
                    *input.get(pos).ok_or_else(|| Error::Data("rle: truncated run byte".into()))?;
                pos += 1;
                out.resize(out.len() + n, byte);
            }
        }
        if out.len() != len {
            return Err(Error::Data(format!("rle: expected {len} bytes, produced {}", out.len())));
        }
        Ok(out)
    }
}

fn flush_literals(out: &mut Vec<u8>, mut literals: &[u8]) {
    while !literals.is_empty() {
        let n = literals.len().min(MAX_LITERAL);
        out.push((n - 1) as u8);
        out.extend_from_slice(&literals[..n]);
        literals = &literals[n..];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(input: &[u8]) -> Vec<u8> {
        let c = RleCodec.compress(input);
        let d = RleCodec.decompress(&c).expect("decompress");
        assert_eq!(d, input);
        c
    }

    #[test]
    fn long_runs_collapse() {
        let input = vec![7u8; 100_000];
        let c = round_trip(&input);
        assert!(c.len() < 2000, "compressed to {} bytes", c.len());
    }

    #[test]
    fn incompressible_data_survives() {
        let input: Vec<u8> = (0..255u8).collect();
        let c = round_trip(&input);
        // Worst case overhead: one control byte per 128 literals + frame.
        assert!(c.len() <= input.len() + input.len() / 128 + 12);
    }

    #[test]
    fn mixed_runs_and_literals() {
        let mut input = Vec::new();
        for i in 0..50 {
            input.extend_from_slice(&[i as u8; 5]);
            input.extend_from_slice(b"xyz!");
            input.push(i as u8);
        }
        round_trip(&input);
    }

    #[test]
    fn short_runs_stay_literal() {
        // Runs of 2 are cheaper as literals than as (ctrl, byte) pairs.
        round_trip(b"aabbccddee");
    }

    #[test]
    fn truncated_inputs_error() {
        let c = RleCodec.compress(&[1u8; 100]);
        for cut in 1..c.len() {
            // Any strict prefix must fail or produce short output, never panic.
            let _ = RleCodec.decompress(&c[..cut]);
        }
        assert!(RleCodec.decompress(&[]).is_err());
    }
}
