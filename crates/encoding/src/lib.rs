//! Dictionary and element encodings — the paper's "basic data-structures"
//! (§2.3) and their "key optimizations" (§3, §5).
//!
//! A stored column is represented doubly indirectly:
//!
//! 1. a **global dictionary** ([`GlobalDict`]) holds every distinct value of
//!    the column in one sorted array ([`Sorted`]: an entry's index is its
//!    integer rank, the *global-id*), or compressed — strings front-coded
//!    in blocks, integers packed as offsets from their minimum;
//! 2. per chunk, a **chunk dictionary** ([`ChunkDict`]) is the same array
//!    over global-ids: an id's index is its *chunk-id*; OptCols stores the
//!    ids as 1- or 2-byte offsets from the chunk's first where their range
//!    fits;
//! 3. the actual cell values are an array of chunk-ids per chunk — the
//!    **elements** ([`Elements`]), stored with 0 bits (one distinct value),
//!    a bit-set (two values), or 1/2/4 bytes per id depending on `n`.
//!
//! On top of that sit the §3/§5 optimizations a store is built from:
//! [`front`] coding for string dictionaries, frame-of-reference
//! [`packed`] integer dictionaries and [`bloom`] filters that prove a value
//! absent. (§5's sub-dictionary split
//! is evaluated, never served: it lives with its experiment in `pd-bench`.)
//!
//! Streaming appends keep every dictionary sorted: a batch arrives as a
//! [`delta::TableDelta`] and [`GlobalDict::merge`] merges its values in,
//! returning the monotone map of old ids to new ones. Element arrays hold
//! chunk-ids, so that map rewrites chunk dictionaries only. See the crate
//! README for the representation ladder.

#![forbid(unsafe_code)]

pub mod bloom;
pub mod chunk_dict;
pub mod delta;
pub mod dict;
pub mod elements;
pub mod front;
pub mod packed;

pub use bloom::BloomFilter;
pub use chunk_dict::{ChunkDict, ChunkIds};
pub use delta::{ColumnDelta, TableDelta};
pub use dict::{build_dict, Entry, GlobalDict, IntDict, Merged, Sorted, StrDict};
pub use elements::{CodesView, Elements, ElementsMode};
pub use front::FrontCoded;
pub use packed::Packed;
