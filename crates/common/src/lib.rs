//! Shared foundations for the PowerDrill reproduction.
//!
//! This crate holds the vocabulary types used by every other crate in the
//! workspace:
//!
//! - [`Value`] / [`DataType`] — the dynamically typed cell values of a table,
//! - [`Schema`] / [`Field`] — column names and types,
//! - [`Row`] — a single record,
//! - [`Error`] / [`Result`] — the workspace-wide error type,
//! - [`FxHashMap`] / [`FxHashSet`] — hash containers with a fast
//!   multiply-xor hasher (the standard SipHash is too slow for the hot
//!   group-by loops the paper benchmarks),
//! - [`BitVec`] — a packed bit vector used by the 1-bit element encoding
//!   and the per-chunk filter masks of the group-by kernels,
//! - [`HeapSize`] — uniform deep-memory accounting, which the paper's
//!   evaluation (Tables 1–4) is all about,
//! - [`FloatSum`] — exact, order-independent `f64` summation (a Kulisch
//!   superaccumulator), which makes float `SUM`/`AVG` bit-identical no
//!   matter how rows are chunked, threaded or sharded, and [`Grid`], the
//!   test that lets plain `+` be that exact sum for a column on one binary
//!   grid,
//! - [`sync`] — poison-free `Mutex` / `RwLock` wrappers over `std::sync`,
//! - [`rng`] — a small seedable xoshiro256++ PRNG for generators and load
//!   models (the workspace carries no external dependencies),
//! - [`sortkey`] — one `memcmp`-ordered byte string per [`Value`], the
//!   cells of a group table's key columns where stores meet,
//! - [`wire`] — the dependency-free binary wire format ([`wire::Encode`] /
//!   [`wire::Decode`]) that carries partial results, queries and control
//!   messages across the §4 process boundary bit-identically.

#![forbid(unsafe_code)]

pub mod bitvec;
pub mod error;
pub mod fsum;
pub mod hash;
pub mod mem;
pub mod rng;
pub mod row;
pub mod schema;
pub mod sortkey;
pub mod sync;
pub mod value;
pub mod wire;

pub use bitvec::BitVec;
pub use error::{Error, Result, RpcError};
pub use fsum::{FloatSum, Grid};
pub use hash::{fx_hash64, FxHashMap, FxHashSet, FxHasher};
pub use mem::HeapSize;
pub use row::Row;
pub use schema::{Field, Schema};
pub use value::{DataType, Value};
