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
//! | the query sent to all machines, executed concurrently | [`rpc::fan_out`]: every child asked in child order, then every answer taken in child order, all on the calling thread — an in-memory child computes its answer when taken; a socket child gets one framed message, encoded once ([`rpc`]) — over Unix sockets *or* TCP ([`WorkerAddr`]) in raw frames — either way carrying the decoded [`pd_sql::AnalyzedQuery`], no SQL re-parse on any hop |
//! | the query rewritten to leaf queries under a `UNION ALL`, "where" at the leaves, "having" at the root | no SQL is rewritten: [`pd_sql::analyze()`] lowers the aggregates to [`pd_sql::Slot`]s once; every leaf fills them under the filter, every mixer merges them, the root reads the aggregates off them and applies HAVING ([`pd_core::finalize`]) |
//! | partial results merged up the tree | mixer [`Node`]s: each owns a [`TreeShape`]-fanout subtree, folds child partials with the same associative merge, reports per-shard observations up, and **prunes subtrees whose [`ShardMeta`] cannot match the restriction** before spending a hop ([`pd_core::ScanStats::subtrees_pruned`]); the driver ([`Cluster`]) holds the root, a mixer like the rest: a chart its cache remembers crosses no edge |
//! | "take the answer arriving first" replication | under [`ClusterConfig::replication`] every shard of a socket tree is served by two worker processes, a primary and a replica: a primary that fails (refused, dead, reset, torn, out of budget) fails over to its replica ([`QueryOutcome::failovers`]), and one that has not answered within the hedge delay (derived from observed queue delays) is **raced** against it in parallel, first answer wins, the loser is cancelled ([`QueryOutcome::hedges`]); every query spends one [`RpcConfig::budget`] end to end. A tree in the driver's address space holds one copy of each leaf |
//! | servers being "temporarily slow" | **measured**: a worker process serves one request at a time, in arrival order, and reports the real wait for that turn up the tree ([`QueryOutcome::queue_delays`]), which also feed the hedge delay's ring of recent samples |
//! | reuse of previously computed answers | [`shard_cache`]: every query enters at the root, so **the root alone** remembers partials, keyed by the normalized query signature ([`query_signature`]) — keys and restriction, so one table answers every chart whose slots it holds —, brought forward through appends by a tail of the appended rows and dropped with the tree on a rebuild, and the plan of each SQL text, so a repeated chart is not parsed again; no node beneath it remembers an answer. A hit is reported as [`pd_core::ScanStats::worker_cache_hits`] / [`QueryOutcome::worker_cache_hits`], and per shard as [`QueryOutcome::shard_cache_hits`] |
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
//! - [`cluster`] — the driver: it holds the root and, over sockets, the
//!   worker processes; shard split, the [`Transport`] switch,
//!   append/rebuild;
//! - [`node`] — the tree node: leaf (store + scan) or mixer (children +
//!   fold); `Node::query` / `Node::append`;
//! - [`rpc`] — the wire protocol's messages and codecs, and in its
//!   children the framing and deadline I/O, the client connection, the
//!   edges ([`rpc::Link`], in-memory or socket) and the shared fan-out /
//!   failover / hedged-racing logic above them, with typed
//!   [`pd_common::RpcError`] faults;
//! - [`process`] — the worker processes of a socket tree: spawning them as
//!   leaves (`Load`) and merge servers (`Attach`), reaping on drop;
//! - [`worker`] — the `pd-dist-worker` process around one node: argv,
//!   sockets, the FIFO turnstile with its measured waits;
//! - [`meta`] — shard summaries and the layered pruning evaluator;
//! - [`shard_cache`] — the root's result cache, its signature, and the tail
//!   that keeps it answerable through appends.
//!
//! No fault is injected in here. The tests meet dead, reset, torn and slow
//! peers on genuine sockets: a relay in front of each worker
//! (`tests/support/relay.rs`, spawned as the cluster's
//! [`RpcConfig::worker_bin`]) refuses, kills, resets, tears or delays the
//! queries a seeded plan names.

#![forbid(unsafe_code)]

pub mod cluster;
pub mod meta;
pub mod node;
pub mod process;
pub mod rpc;
pub mod shard_cache;
pub mod worker;

pub use cluster::{
    AppendOutcome, Cluster, ClusterConfig, QueryOutcome, RpcConfig, Transport, TreeShape,
};
pub use meta::{ColumnMeta, ShardMeta};
pub use node::Node;
pub use process::{ReapGuard, WorkerAddr};
pub use shard_cache::query_signature;
