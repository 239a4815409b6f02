//! The §5 "Other Compression Algorithms" comparison set.
//!
//! The engine stores and frames with one codec — [`pd_compress::lz`], the
//! paper's Zippy. The paper only *evaluates* the alternatives, so they live
//! here with `experiments::codecs`, their one caller, each implemented
//! from scratch over the engine's [`Codec`] trait:
//!
//! - [`lzf`] — an LZF-format variant with a compact fixed-width token
//!   encoding tuned for decompression speed; plays the role of the **LZO
//!   variant** the paper chose for production.
//! - [`huffman`] — canonical Huffman coding; composed with the engine's LZ
//!   it forms the **ZLIB-with-Huffman** ("deflate-like") reference point
//!   that buys extra ratio at a large speed cost.
//! - [`rle`] — byte run-length encoding, the didactic baseline of the
//!   paper's row-reordering discussion (Figures 2–4).

pub mod huffman;
pub mod lzf;
pub mod rle;

use pd_compress::lz::LzCodec;
use pd_compress::Codec;

/// Every codec the comparison reports, in report order: the engine's
/// Zippy among the alternatives it is measured against.
pub const ALL: [&dyn Codec; 5] =
    [&rle::RleCodec, &LzCodec, &lzf::LzfCodec, &huffman::DeflateCodec, &huffman::HuffmanCodec];

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_inputs() -> Vec<Vec<u8>> {
        vec![
            vec![],
            b"a".to_vec(),
            b"hello world hello world hello world".to_vec(),
            vec![0u8; 10_000],
            (0..=255u8).cycle().take(4096).collect(),
            b"abcabcabcabcabcabcabcabcabcxyz".to_vec(),
        ]
    }

    #[test]
    fn all_codecs_round_trip_samples() {
        for codec in ALL {
            for input in sample_inputs() {
                let compressed = codec.compress(&input);
                let output = codec.decompress(&compressed).unwrap_or_else(|e| {
                    panic!("{} failed on len {}: {e}", codec.name(), input.len())
                });
                assert_eq!(output, input, "codec {}", codec.name());
            }
        }
    }

    #[test]
    fn repetitive_data_compresses_well() {
        let input: Vec<u8> =
            b"country=US;country=US;country=DE;".iter().cycle().take(64 * 1024).copied().collect();
        let lz_family: [&dyn Codec; 3] = [&LzCodec, &lzf::LzfCodec, &huffman::DeflateCodec];
        for codec in lz_family {
            let compressed = codec.compress(&input);
            assert!(
                compressed.len() < input.len() / 4,
                "{}: {} vs {}",
                codec.name(),
                compressed.len(),
                input.len()
            );
        }
        // RLE only sees byte-level runs; give it run-shaped data.
        let runs: Vec<u8> = (0..64u8).flat_map(|v| std::iter::repeat_n(v, 1024)).collect();
        let compressed = rle::RleCodec.compress(&runs);
        assert!(compressed.len() < runs.len() / 4, "rle: {}", compressed.len());
    }

    #[test]
    fn deflate_beats_zippy_on_text() {
        // The paper: Huffman gives a 20–30% additional gain over the
        // LZ-only codecs on typical column data.
        let input: Vec<u8> = (0..40_000u64)
            .flat_map(|i| format!("table_{}_2011-12-{:02};", i % 700, i % 28 + 1).into_bytes())
            .collect();
        let zippy = LzCodec.compress(&input).len();
        let deflate = huffman::DeflateCodec.compress(&input).len();
        assert!(deflate < zippy, "deflate {deflate} not smaller than zippy {zippy}");
    }

    #[test]
    fn codec_names_are_distinct() {
        let names: std::collections::HashSet<&str> = ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), ALL.len());
    }
}
