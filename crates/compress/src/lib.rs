//! The paper's compression codec, from scratch.
//!
//! The paper relies on "Google's own high speed compression algorithm Zippy"
//! (externally Snappy) wherever bytes are worth shrinking (§3, "Generic
//! Compression Algorithm"); here the experiments measure it on the store's
//! bytes (Table 3's ladder, the Dremel-like baseline). The engine sends
//! nothing through it: RPC frames travel raw. No third-party crate is
//! involved:
//!
//! - [`lz`] — byte-oriented LZ77 with a hash-table match finder and varint
//!   framing; plays the role of **Zippy/Snappy** (fast, no entropy stage).
//! - [`varint`] — LEB128 variable-length integers used by that framing, by
//!   the dictionary and element encodings and by the record-io format.
//!
//! A codec implements the [`Codec`] trait and is self-framing: the
//! compressed buffer alone is sufficient to decompress. The codecs the
//! paper only *evaluates* against Zippy (§5, "Other Compression
//! Algorithms": ZLIB ± entropy stage, an LZO variant, run lengths)
//! implement the same trait in `pd_bench::codecs`, beside the experiment
//! that is their one caller.

#![forbid(unsafe_code)]

pub mod lz;
pub mod varint;

use pd_common::Result;

/// A block compression codec.
///
/// Implementations must round-trip arbitrary bytes:
/// `decompress(compress(x)) == x`.
pub trait Codec: Send + Sync {
    /// Short stable name used in benchmark output.
    fn name(&self) -> &'static str;

    /// Compress `input` into a self-framing buffer.
    fn compress(&self, input: &[u8]) -> Vec<u8>;

    /// Decompress a buffer produced by [`Codec::compress`].
    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>>;
}

/// The paper's codec, by kind. One variant: nothing chooses between
/// codecs, and no engine crate calls it. It is still an enum only because the benchmark's mirror
/// (`clickbench/src/layers.rs`) pins `CodecKind::Zippy.codec()`; ROADMAP
/// item 1(a) deletes it with that mirror, and the callers name
/// [`lz::LzCodec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CodecKind {
    /// LZ77, Snappy-style: the paper's "Zippy".
    #[default]
    Zippy,
}

impl CodecKind {
    /// The shared codec instance for this kind.
    pub fn codec(self) -> &'static dyn Codec {
        match self {
            CodecKind::Zippy => &lz::LzCodec,
        }
    }
}
