//! The distributed layer (§4).
//!
//! PowerDrill parallelizes a query over many machines by splitting the data
//! into shards, running the *same* group-by plan on every shard, and
//! merging the mergeable group states up a computation tree. The paper's
//! tree is uniform — every server, leaf or mixer, does the same thing to
//! the query it is handed and does not care where its children live — and
//! so is this crate: one [`Node`] type answers every query, and a parent
//! reaches a child over one of two edge kinds ([`rpc::Link`]): a reference
//! to a node in the same address space, or a socket to a `pd-dist-worker`
//! process holding one. The mapping to §4:
//!
//! | paper §4                          | here                                  |
//! |-----------------------------------|---------------------------------------|
//! | X data partitions on leaf servers | leaf [`Node`]s: independent [`pd_core::DataStore`]s over contiguous row ranges, built in the driver's address space ([`Transport::InProcess`]) or imported by spawned worker processes ([`Transport::Rpc`]) |
//! | the query sent to all machines, executed concurrently | [`rpc::fan_out`]: one task per in-memory child on the shared [`pd_core::scheduler`] pool, or one framed message — encoded once, written to every socket child, the replies then read in child order, all on the calling thread ([`rpc`]) — over Unix sockets *or* TCP ([`WorkerAddr`]), optionally compressed (`pd-compress`, negotiated per connection) — either way carrying the decoded [`pd_sql::AnalyzedQuery`], no SQL re-parse on any hop |
//! | the query rewritten to leaf queries under a `UNION ALL`, "where" at the leaves, "having" at the root | no SQL is rewritten: [`pd_sql::analyze()`] lowers the aggregates to [`pd_sql::Slot`]s once; every leaf fills them under the filter, every mixer merges them, the root reads the aggregates off them and applies HAVING ([`pd_core::finalize`]) |
//! | partial results merged up the tree | mixer [`Node`]s: each owns a [`TreeShape`]-fanout subtree, folds child partials with the same associative merge, reports per-shard observations up, and **prunes subtrees whose [`ShardMeta`] cannot match the restriction** before spending a hop ([`pd_core::ScanStats::subtrees_pruned`]); the driver ([`Cluster`]) holds the root, a mixer like the rest: a chart its cache remembers crosses no edge |
//! | "take the answer arriving first" replication | every leaf has a replica link; an unreachable ([`ChaosFault::Unreachable`]) or faulted primary fails over to it ([`QueryOutcome::failovers`]). Replica *processes* are **raced**: a primary that has not answered within the hedge delay (derived from observed queue delays) is raced against its replica in parallel, first answer wins, the loser is cancelled ([`QueryOutcome::hedges`]); every query spends one [`RpcConfig::budget`] end to end |
//! | servers being "temporarily slow" | **measured**: a worker process serves one request at a time, in arrival order, and reports the real wait for that turn up the tree ([`QueryOutcome::queue_delays`], [`Cluster::observed_queue_delays`]); [`ChaosModel`] delays make processes straggle on purpose |
//! | reuse of previously computed answers | [`shard_cache`]: **every tree node** holds a [`shard_cache::WorkerCache`] of its own partials keyed by the normalized query signature, invalidated by the rebuild **epoch** every message carries — hits are reported up as [`pd_core::ScanStats::worker_cache_hits`] / [`QueryOutcome::worker_cache_hits`], and per shard as [`QueryOutcome::shard_cache_hits`] |
//!
//! Partial results, restrictions, group-by keys and float superaccumulator
//! states cross the process boundary in the dependency-free
//! [`pd_common::wire`] format, bit-identically — so the distributed
//! equivalence matrix (`tests/engine_equivalence.rs`) asserts exact
//! `assert_eq!` (floats included) against the single-store engine over
//! *both* edge kinds, at every shard count and tree depth, warm or cold,
//! with or without failovers.
//!
//! Modules:
//!
//! - [`cluster`] — the driver: it holds the root [`Node`] and, over
//!   sockets, the worker processes; shard split, the [`Transport`] switch,
//!   admission control, the per-query fault draw, append/rebuild under the
//!   epoch;
//! - [`node`] — the tree node: leaf (store + scan) or mixer (children +
//!   fold), its result cache, epoch and — on a mixer — the tail that keeps
//!   the cache answerable through appends; `Node::query` / `Node::append`;
//! - [`rpc`] — the wire protocol's messages and codecs, and in its
//!   children the framing and deadline I/O, the client connection, the
//!   edges ([`rpc::Link`], in-memory or socket) and the shared fan-out /
//!   failover / hedged-racing logic above them, with typed
//!   [`pd_common::RpcError`] faults;
//! - [`process`] — the worker processes of a socket tree: spawning them as
//!   leaves (`Load`) and merge servers (`Attach`), reaping on drop;
//! - [`worker`] — the `pd-dist-worker` process around one node: argv,
//!   sockets, the FIFO turnstile with its measured waits, chaos wire
//!   sabotage;
//! - [`chaos`] — the one seeded fault injector: edge-applied
//!   unreachability on either edge kind, worker-applied wire sabotage;
//! - [`meta`] — shard summaries and the layered pruning evaluator;
//! - [`shard_cache`] — the per-node result cache and its signature.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod cluster;
pub mod meta;
pub mod node;
pub mod process;
pub mod rpc;
pub mod shard_cache;
pub mod worker;

pub use chaos::{ChaosDirective, ChaosFault, ChaosModel};
pub use cluster::{
    AdmissionConfig, AppendOutcome, Cluster, ClusterConfig, QueryOutcome, RpcConfig, Transport,
    TreeShape,
};
pub use meta::{ColumnMeta, ShardMeta};
pub use node::Node;
pub use process::{ReapGuard, WorkerAddr};
pub use shard_cache::{query_signature, CachedSubtree, WorkerCache};
