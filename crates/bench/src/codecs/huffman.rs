//! Canonical Huffman coding — the entropy stage of the paper's "ZLIB with
//! Huffman" comparison point (§5).
//!
//! The paper found the extra Huffman stage bought "a perhaps surprising gain
//! of additional 20–30%" in ratio "but came with the expected cost of being
//! up to an order of magnitude slower". [`HuffmanCodec`] is the pure entropy
//! coder; [`DeflateCodec`] composes LZ77 ([`pd_compress::lz`]) with it, mirroring
//! the structure of DEFLATE/ZLIB.
//!
//! Frame layout: `varint(uncompressed_len)`, 256 code-length bytes, then the
//! MSB-first bitstream. Decoding consumes exactly `uncompressed_len`
//! symbols, so no explicit bit count is stored.

use pd_common::{Error, Result};
use pd_compress::lz::LzCodec;
use pd_compress::{varint, Codec};
use std::collections::BinaryHeap;

/// Longest admissible code. Depth grows at most logarithmically in the
/// input length (Fibonacci bound), so this is unreachable for any input
/// that fits in memory; it keeps the decoder's accumulator in a `u64`.
const MAX_CODE_LEN: u8 = 56;
/// Upper bound on the speculative output pre-allocation during decode.
const MAX_PREALLOC: usize = 1 << 24;

/// Pure canonical Huffman codec over bytes.
pub struct HuffmanCodec;

/// LZ77 + Huffman: the "ZLIB with Huffman" (deflate-like) codec.
pub struct DeflateCodec;

impl Codec for HuffmanCodec {
    fn name(&self) -> &'static str {
        "huffman"
    }

    fn compress(&self, input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() / 2 + 300);
        varint::write_u64(&mut out, input.len() as u64);
        if input.is_empty() {
            return out;
        }

        let mut freq = [0u64; 256];
        for &b in input {
            freq[b as usize] += 1;
        }
        let lengths = code_lengths(&freq);
        out.extend_from_slice(&lengths);
        let codes = canonical_codes(&lengths);

        let mut writer = BitWriter::new(&mut out);
        for &b in input {
            let (code, len) = codes[b as usize];
            writer.write(code, len);
        }
        writer.finish();
        out
    }

    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>> {
        let mut pos = 0;
        let len = varint::read_u64(input, &mut pos)? as usize;
        if len == 0 {
            return Ok(Vec::new());
        }
        let lengths: [u8; 256] = input
            .get(pos..pos + 256)
            .ok_or_else(|| Error::Data("huffman: truncated code-length table".into()))?
            .try_into()
            .expect("sliced exactly 256 bytes");
        pos += 256;
        let decoder = Decoder::new(&lengths)?;

        // A corrupt frame may claim an absurd length; cap the upfront
        // allocation and let the vector grow organically past it.
        let mut out = Vec::with_capacity(len.min(MAX_PREALLOC));
        let mut reader = BitReader::new(&input[pos..]);
        for _ in 0..len {
            out.push(decoder.decode(&mut reader)?);
        }
        Ok(out)
    }
}

impl Codec for DeflateCodec {
    fn name(&self) -> &'static str {
        "deflate"
    }

    fn compress(&self, input: &[u8]) -> Vec<u8> {
        HuffmanCodec.compress(&LzCodec.compress(input))
    }

    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>> {
        LzCodec.decompress(&HuffmanCodec.decompress(input)?)
    }
}

/// Compute Huffman code lengths from symbol frequencies.
///
/// Symbols with zero frequency get length 0 (absent). A single distinct
/// symbol gets length 1.
fn code_lengths(freq: &[u64; 256]) -> [u8; 256] {
    #[derive(PartialEq, Eq)]
    struct HeapItem {
        freq: u64,
        node: u32,
    }
    impl Ord for HeapItem {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // Reverse for a min-heap; tie-break on node id for determinism.
            other.freq.cmp(&self.freq).then(other.node.cmp(&self.node))
        }
    }
    impl PartialOrd for HeapItem {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    let mut lengths = [0u8; 256];
    let present: Vec<usize> = (0..256).filter(|&s| freq[s] > 0).collect();
    match present.len() {
        0 => return lengths,
        1 => {
            lengths[present[0]] = 1;
            return lengths;
        }
        _ => {}
    }

    // Tree nodes: leaves are 0..256 (symbol index), internals appended after.
    let mut parent: Vec<u32> = vec![u32::MAX; 256];
    let mut heap: BinaryHeap<HeapItem> =
        present.iter().map(|&s| HeapItem { freq: freq[s], node: s as u32 }).collect();
    while heap.len() > 1 {
        let a = heap.pop().expect("len > 1");
        let b = heap.pop().expect("len > 1");
        let id = parent.len() as u32;
        parent.push(u32::MAX);
        parent[a.node as usize] = id;
        parent[b.node as usize] = id;
        heap.push(HeapItem { freq: a.freq + b.freq, node: id });
    }

    for &s in &present {
        let mut depth = 0u8;
        let mut node = s as u32;
        while parent[node as usize] != u32::MAX {
            node = parent[node as usize];
            depth += 1;
        }
        debug_assert!(depth <= MAX_CODE_LEN, "pathological code length {depth}");
        lengths[s] = depth;
    }
    lengths
}

/// Assign canonical codes (numerically increasing within a length, lengths
/// ascending) to the given length table. Returns `(code, len)` per symbol.
fn canonical_codes(lengths: &[u8; 256]) -> [(u64, u8); 256] {
    let mut codes = [(0u64, 0u8); 256];
    let max_len = lengths.iter().copied().max().unwrap_or(0);
    let mut code = 0u64;
    for len in 1..=max_len {
        for sym in 0..256usize {
            if lengths[sym] == len {
                codes[sym] = (code, len);
                code += 1;
            }
        }
        code <<= 1;
    }
    codes
}

/// Canonical Huffman decoder tables.
struct Decoder {
    /// First canonical code of each length.
    first_code: [u64; MAX_CODE_LEN as usize + 1],
    /// Number of codes of each length.
    count: [u32; MAX_CODE_LEN as usize + 1],
    /// Offset of each length's first symbol in `symbols`.
    offset: [u32; MAX_CODE_LEN as usize + 1],
    /// Symbols sorted by (length, symbol).
    symbols: Vec<u8>,
    max_len: u8,
}

impl Decoder {
    fn new(lengths: &[u8; 256]) -> Result<Self> {
        let max_len = lengths.iter().copied().max().unwrap_or(0);
        if max_len == 0 {
            return Err(Error::Data("huffman: empty code-length table".into()));
        }
        if max_len > MAX_CODE_LEN {
            return Err(Error::Data(format!("huffman: code length {max_len} too long")));
        }
        let mut count = [0u32; MAX_CODE_LEN as usize + 1];
        for &l in lengths.iter() {
            if l > 0 {
                count[l as usize] += 1;
            }
        }
        // Kraft check: a malformed table must not decode.
        #[allow(clippy::needless_range_loop)] // index doubles as shift amount
        let kraft = (1..=max_len as usize).fold(0u128, |acc, len| {
            acc + (u128::from(count[len]) << (MAX_CODE_LEN as usize - len))
        });
        let full = 1u128 << MAX_CODE_LEN;
        let single = count[1..=max_len as usize].iter().sum::<u32>() == 1;
        if kraft > full || (kraft < full && !single) {
            return Err(Error::Data("huffman: invalid (non-complete) code".into()));
        }

        let mut first_code = [0u64; MAX_CODE_LEN as usize + 1];
        let mut offset = [0u32; MAX_CODE_LEN as usize + 1];
        let mut code = 0u64;
        let mut sym_count = 0u32;
        #[allow(clippy::needless_range_loop)] // parallel arrays indexed by code length
        for len in 1..=max_len as usize {
            first_code[len] = code;
            offset[len] = sym_count;
            code = (code + u64::from(count[len])) << 1;
            sym_count += count[len];
        }
        let mut symbols = Vec::with_capacity(sym_count as usize);
        for len in 1..=max_len {
            for (sym, &l) in lengths.iter().enumerate() {
                if l == len {
                    symbols.push(sym as u8);
                }
            }
        }
        Ok(Decoder { first_code, count, offset, symbols, max_len })
    }

    #[inline]
    fn decode(&self, reader: &mut BitReader<'_>) -> Result<u8> {
        let mut acc = 0u64;
        for len in 1..=self.max_len as usize {
            acc = acc << 1 | u64::from(reader.read_bit()?);
            let idx = acc.wrapping_sub(self.first_code[len]);
            if idx < u64::from(self.count[len]) {
                return Ok(self.symbols[(self.offset[len] as u64 + idx) as usize]);
            }
        }
        Err(Error::Data("huffman: invalid code in bitstream".into()))
    }
}

/// MSB-first bit writer appending to a byte vector.
struct BitWriter<'a> {
    out: &'a mut Vec<u8>,
    acc: u64,
    bits: u32,
}

impl<'a> BitWriter<'a> {
    fn new(out: &'a mut Vec<u8>) -> Self {
        BitWriter { out, acc: 0, bits: 0 }
    }

    #[inline]
    fn write(&mut self, code: u64, len: u8) {
        self.acc = self.acc << len | code;
        self.bits += u32::from(len);
        while self.bits >= 8 {
            self.bits -= 8;
            self.out.push((self.acc >> self.bits) as u8);
        }
    }

    fn finish(self) {
        if self.bits > 0 {
            self.out.push((self.acc << (8 - self.bits)) as u8);
        }
    }
}

/// MSB-first bit reader.
struct BitReader<'a> {
    input: &'a [u8],
    pos: usize,
    acc: u8,
    bits: u32,
}

impl<'a> BitReader<'a> {
    fn new(input: &'a [u8]) -> Self {
        BitReader { input, pos: 0, acc: 0, bits: 0 }
    }

    #[inline]
    fn read_bit(&mut self) -> Result<u8> {
        if self.bits == 0 {
            self.acc = *self
                .input
                .get(self.pos)
                .ok_or_else(|| Error::Data("huffman: truncated bitstream".into()))?;
            self.pos += 1;
            self.bits = 8;
        }
        self.bits -= 1;
        Ok((self.acc >> self.bits) & 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(input: &[u8]) -> Vec<u8> {
        let c = HuffmanCodec.compress(input);
        let d = HuffmanCodec.decompress(&c).expect("decompress");
        assert_eq!(d, input);
        c
    }

    #[test]
    fn empty_single_and_uniform() {
        round_trip(b"");
        round_trip(b"x");
        round_trip(&[42u8; 1000]); // single distinct symbol, length-1 code
        round_trip(b"ab");
    }

    #[test]
    fn skewed_distribution_compresses() {
        // 90% 'a', rest spread: entropy << 8 bits/symbol.
        let mut input = vec![b'a'; 90_000];
        input.extend((0..10_000u32).map(|i| (i % 7) as u8 + b'b'));
        let c = round_trip(&input);
        assert!(c.len() < input.len() / 4, "got {}", c.len());
    }

    #[test]
    fn uniform_bytes_do_not_explode() {
        let input: Vec<u8> = (0..=255u8).cycle().take(8192).collect();
        let c = round_trip(&input);
        // 8 bits/symbol + 256-byte header + frame.
        assert!(c.len() <= input.len() + 300);
    }

    #[test]
    fn deflate_round_trips() {
        let input: Vec<u8> = b"SELECT country, COUNT(*) FROM data GROUP BY country;".repeat(500);
        let c = DeflateCodec.compress(&input);
        assert_eq!(DeflateCodec.decompress(&c).unwrap(), input);
        assert!(c.len() < input.len() / 10);
    }

    #[test]
    fn canonical_codes_are_prefix_free() {
        let mut freq = [0u64; 256];
        for (i, f) in freq.iter_mut().enumerate() {
            *f = (i as u64 % 17) * (i as u64 % 5) + 1;
        }
        let lengths = code_lengths(&freq);
        let codes = canonical_codes(&lengths);
        for a in 0..256 {
            for b in 0..256 {
                if a == b {
                    continue;
                }
                let (ca, la) = codes[a];
                let (cb, lb) = codes[b];
                if la == 0 || lb == 0 || la > lb {
                    continue;
                }
                assert_ne!(cb >> (lb - la), ca, "code {a} is a prefix of {b}");
            }
        }
    }

    #[test]
    fn kraft_equality_holds() {
        let mut freq = [0u64; 256];
        for (i, f) in freq.iter_mut().enumerate() {
            *f = i as u64 + 1;
        }
        let lengths = code_lengths(&freq);
        let kraft: f64 =
            lengths.iter().filter(|&&l| l > 0).map(|&l| 2f64.powi(-i32::from(l))).sum();
        assert!((kraft - 1.0).abs() < 1e-9, "kraft sum {kraft}");
    }

    #[test]
    fn corrupted_length_table_rejected() {
        let mut c = HuffmanCodec.compress(b"some reasonable input text");
        // Corrupt a code length to break the Kraft equality.
        c[10] = 40;
        assert!(HuffmanCodec.decompress(&c).is_err());
    }

    #[test]
    fn truncation_never_panics() {
        let c = HuffmanCodec.compress(&b"entropy coded payload".repeat(50));
        for cut in 0..c.len() {
            let _ = HuffmanCodec.decompress(&c[..cut]);
        }
    }
}
