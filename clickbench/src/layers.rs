//! Bench-owned mirror shards and the per-layer probes of a traced run.
//!
//! A [`Mirror`] is the same contiguous `n·s/shards` split of the table
//! that `Cluster` makes, built with the same `BuildOptions`. It gives the
//! exact bytes-per-row of every workload (a `Cluster` does not expose its
//! stores) and is what the probe spans replay each query through — beside
//! the real call, never inside it.

use crate::stats::ratio;
use crate::trace::{At, Tracer};
use powerdrill::common::wire;
use powerdrill::compress::CodecKind;
use powerdrill::core::skip::SkipAnalysis;
use powerdrill::core::{
    execute_partial, finalize, float_table_builds, memory, ChunkActivity, PartialResult,
};
use powerdrill::data::Table;
use powerdrill::dist::meta::{self, ShardMeta};
use powerdrill::dist::query_signature;
use powerdrill::dist::rpc::{encode_frame, Response, ShardReport, SubtreeAnswer};
use powerdrill::encoding::TableDelta;
use powerdrill::sql::{analyze, parse_query, AnalyzedQuery};
use powerdrill::{BuildOptions, DataStore, ExecContext, Result, ResultCache, ScanStats, Value};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rows `lo..hi` of `table` as a table of their own.
pub fn slice(table: &Table, lo: usize, hi: usize) -> Table {
    let indices: Vec<usize> = (lo..hi).collect();
    table.select_rows(&indices)
}

fn columns_of(table: &Table) -> Vec<&[Value]> {
    (0..table.schema().len()).map(|i| table.column(i)).collect()
}

pub struct Mirror {
    pub stores: Vec<DataStore>,
    pub metas: Vec<ShardMeta>,
    /// Σ `DataStore::build` wall over the shards.
    pub build_s: f64,
}

impl Mirror {
    /// Split the first `rows` rows of `table` into `shards` contiguous
    /// ranges and import each, summarizing it the way a leaf worker does.
    pub fn build(
        table: &Table,
        rows: usize,
        shards: usize,
        options: &BuildOptions,
    ) -> Result<Mirror> {
        let mut mirror = Mirror { stores: Vec::new(), metas: Vec::new(), build_s: 0.0 };
        for s in 0..shards {
            let sub = slice(table, rows * s / shards, rows * (s + 1) / shards);
            let started = Instant::now();
            let store = DataStore::build(&sub, options)?;
            mirror.build_s += started.elapsed().as_secs_f64();
            let shard_rows: Vec<_> = sub.iter_rows().collect();
            let mut meta = ShardMeta::summarize(s as u64, sub.schema(), &shard_rows);
            meta.chunks = store.chunk_count() as u64;
            meta.summarize_chunks(sub.schema(), &columns_of(&sub), store.partitioning());
            meta.build_blooms(sub.schema(), &columns_of(&sub));
            mirror.stores.push(store);
            mirror.metas.push(meta);
        }
        Ok(mirror)
    }

    pub fn rows(&self) -> usize {
        self.stores.iter().map(DataStore::n_rows).sum()
    }

    /// Σ `DataStore::total_bytes()`; exact as long as no query has run on
    /// the mirror (a materialized virtual field would count).
    pub fn total_bytes(&self) -> usize {
        self.stores.iter().map(DataStore::total_bytes).sum()
    }

    /// `(dictionary, elements + chunk dictionary)` bytes over all five
    /// columns, from `memory::report_for_query`.
    pub fn memory_split(&self) -> Result<(usize, usize)> {
        const ALL_COLUMNS: &str = "SELECT country, table_name, user, COUNT(*), SUM(latency), \
                                   MAX(timestamp) FROM logs GROUP BY country, table_name, user";
        let mut dict = 0;
        let mut elements = 0;
        for store in &self.stores {
            let report = memory::report_for_query(store, ALL_COLUMNS)?;
            dict += report.dict_bytes();
            elements += report.elements_and_chunk_dicts();
        }
        Ok((dict, elements))
    }

    /// Apply `batch` the way `Cluster::append` does: the same contiguous
    /// split, one dictionary delta per shard. With a tracer, each step is
    /// a probe span and the encoded delta bytes are returned.
    pub fn append(&mut self, batch: &Table, mut tracer: Option<(&mut Tracer, At)>) -> Result<u64> {
        // Time `f` as a probe span when tracing, else just run it.
        fn probe<T>(
            tracer: &mut Option<(&mut Tracer, At)>,
            name: &'static str,
            f: impl FnOnce() -> T,
        ) -> T {
            match tracer {
                Some((tracer, at)) => tracer.time(name, *at, f).0,
                None => f(),
            }
        }
        let shards = self.stores.len();
        let mut delta_bytes = 0;
        for s in 0..shards {
            let sub = slice(batch, batch.len() * s / shards, batch.len() * (s + 1) / shards);
            if sub.is_empty() {
                continue;
            }
            let columns = columns_of(&sub);
            let store = &mut self.stores[s];
            let chunks_before = store.chunk_count();
            let delta = probe(&mut tracer, "probe.encoding.delta.encode", || {
                TableDelta::from_columns(sub.schema().clone(), &columns)
            })?;
            if tracer.is_some() {
                delta_bytes += wire::to_bytes(&delta).len() as u64;
            }
            probe(&mut tracer, "probe.core.datastore.append", || store.append_delta(&delta))?;
            let new_chunk_rows: Vec<usize> =
                (chunks_before..store.chunk_count()).map(|c| store.chunk_rows(c)).collect();
            self.metas[s].absorb_delta(sub.schema(), &columns, &new_chunk_rows);
        }
        Ok(delta_bytes)
    }
}

/// Counts gathered where the probes run (the timings live in the spans).
#[derive(Default)]
pub struct ProbeCounts {
    pub chunks: u64,
    pub chunks_skipped: u64,
    pub chunks_partial: u64,
    pub partial_ns: u64,
    pub rows_scanned: u64,
    pub cells_scanned: u64,
    pub float_table_builds: u64,
    pub shards: u64,
    pub shards_refuted: u64,
    pub meta_chunks: u64,
    pub meta_chunks_refuted: u64,
    pub wire_bytes: Vec<f64>,
    pub frame_bytes: Vec<f64>,
    pub zippy_in: u64,
    pub zippy_out: u64,
}

impl ProbeCounts {
    pub fn scan_ns_per_row(&self) -> f64 {
        ratio(self.partial_ns as f64, self.rows_scanned as f64)
    }
}

/// The probes of one traced run.
pub struct Probes {
    pub counts: ProbeCounts,
    /// Cold context: every probe scan pays the full scan.
    cold: ExecContext,
    /// One context per mirror shard with the chunk-result cache the
    /// serving shards carry (empty on `scan_cold`, which serves without
    /// one). The cache is keyed by chunk number, so shards cannot share.
    cached: Vec<ExecContext>,
}

/// Expensive probes (a cold scan of every mirror shard and the codecs on
/// its partial) run on every third query (a stride that visits all twenty charts); the
/// cheap ones on all.
const DEEP_PROBE_EVERY: u64 = 3;

impl Probes {
    /// `result_caches`: how many mirror shards get a chunk-result cache.
    pub fn new(result_caches: usize) -> Probes {
        let cold = ExecContext { threads: 1, ..Default::default() };
        let cached = (0..result_caches)
            .map(|_| ExecContext {
                threads: 1,
                result_cache: Some(Arc::new(ResultCache::new(1 << 14))),
                ..Default::default()
            })
            .collect();
        Probes { counts: ProbeCounts::default(), cold, cached }
    }

    fn result_caches(&self) -> impl Iterator<Item = &ResultCache> {
        self.cached.iter().filter_map(|ctx| ctx.result_cache.as_deref())
    }

    /// `(hits, misses)` of the bench-owned chunk-result caches.
    pub fn result_cache_stats(&self) -> (u64, u64) {
        self.result_caches().map(ResultCache::stats).fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    }

    /// An append invalidates the serving caches; the bench's follow.
    pub fn clear_result_caches(&self) {
        self.result_caches().for_each(ResultCache::clear);
    }

    /// Replay `sql` through the inner layers on the mirror. `parse` says
    /// whether to time parse/analyze here (the cluster parses inside
    /// `Cluster::query`, where no span can reach).
    pub fn query(
        &mut self,
        tracer: &mut Tracer,
        at: At,
        mirror: &Mirror,
        sql: &str,
        parse: bool,
    ) -> Result<()> {
        let analyzed = if parse {
            let parsed = tracer.time("probe.sql.parse", at, || parse_query(sql)).0?;
            tracer.time("probe.sql.analyze", at, || analyze(&parsed)).0?
        } else {
            analyze(&parse_query(sql)?)?
        };
        tracer.time("probe.dist.shard_cache.signature", at, || query_signature(&analyzed, 4096));

        for (s, (store, meta)) in mirror.stores.iter().zip(&mirror.metas).enumerate() {
            let (skip, _) = tracer.time("probe.core.skip.prepare", at, || {
                SkipAnalysis::prepare(store, &analyzed.restriction)
            });
            for activity in skip?.all(store.chunk_count()) {
                self.counts.chunks += 1;
                match activity {
                    ChunkActivity::Skip => self.counts.chunks_skipped += 1,
                    ChunkActivity::Partial => self.counts.chunks_partial += 1,
                    ChunkActivity::Full => {}
                }
            }
            let (verdicts, _) = tracer.time("probe.dist.meta.verdicts", at, || {
                meta::chunk_verdicts(&analyzed.restriction, meta)
            });
            self.counts.meta_chunks += verdicts.len() as u64;
            self.counts.meta_chunks_refuted +=
                verdicts.iter().filter(|v| **v == ChunkActivity::Skip).count() as u64;
            self.counts.shards += 1;
            self.counts.shards_refuted += u64::from(!meta::may_match(&analyzed.restriction, meta));
            if let Some(cached) = self.cached.get(s) {
                execute_partial(store, &analyzed, cached)?;
            }
        }
        if at.query.is_multiple_of(DEEP_PROBE_EVERY) {
            self.deep(tracer, at, mirror, &analyzed)?;
        }
        Ok(())
    }

    fn deep(
        &mut self,
        tracer: &mut Tracer,
        at: At,
        mirror: &Mirror,
        analyzed: &AnalyzedQuery,
    ) -> Result<()> {
        let zippy = CodecKind::Zippy.codec();
        let mut merged = PartialResult::default();
        for (s, store) in mirror.stores.iter().enumerate() {
            let builds_before = float_table_builds();
            let (scan, ns) = tracer.time("probe.core.exec.partial", at, || {
                execute_partial(store, analyzed, &self.cold)
            });
            let (partial, stats) = scan?;
            self.counts.float_table_builds += float_table_builds() - builds_before;
            self.counts.partial_ns += ns;
            self.counts.rows_scanned += stats.rows_scanned;
            self.counts.cells_scanned += stats.cells_scanned;

            let (bytes, _) =
                tracer.time("probe.common.wire.encode", at, || wire::to_bytes(&partial));
            self.counts.wire_bytes.push(bytes.len() as f64);
            tracer
                .time("probe.common.wire.decode", at, || wire::from_bytes::<PartialResult>(&bytes))
                .0?;
            let (packed, _) =
                tracer.time("probe.compress.zippy_compress", at, || zippy.compress(&bytes));
            tracer.time("probe.compress.zippy_decompress", at, || zippy.decompress(&packed)).0?;
            self.counts.zippy_in += bytes.len() as u64;
            self.counts.zippy_out += packed.len() as u64;

            let answer = Response::Answer(Box::new(leaf_answer(s, partial, stats)));
            let (frame, _) =
                tracer.time("probe.dist.rpc.frame_encode", at, || encode_frame(&answer, true));
            self.counts.frame_bytes.push(frame?.len() as f64);
            if let Response::Answer(answer) = answer {
                merged.merge(answer.partial)?;
            }
        }
        tracer.time("probe.core.exec.finalize", at, || finalize(analyzed, merged)).0?;
        Ok(())
    }
}

/// The answer a leaf would ship for this partial.
fn leaf_answer(shard: usize, partial: PartialResult, stats: ScanStats) -> SubtreeAnswer {
    SubtreeAnswer {
        partial,
        stats,
        reports: vec![ShardReport {
            shard: shard as u64,
            latency: Duration::ZERO,
            queue: Duration::ZERO,
            failover: false,
            hedged: false,
            cache_hit: false,
        }],
    }
}

/// Σ cold `execute` wall at `threads: 1` ÷ at `threads: 2` over `sqls`,
/// on the mirror's first shard: what the morsel scheduler buys on this
/// workload's own queries.
pub fn scheduler_speedup(mirror: &Mirror, sqls: &[&str]) -> Result<f64> {
    let store = &mirror.stores[0];
    let mut wall = [Duration::ZERO; 2];
    for sql in sqls {
        let analyzed = analyze(&parse_query(sql)?)?;
        for (slot, threads) in wall.iter_mut().zip([1, 2]) {
            let ctx = ExecContext { threads, ..Default::default() };
            let started = Instant::now();
            powerdrill::core::execute(store, &analyzed, &ctx)?;
            *slot += started.elapsed();
        }
    }
    Ok(ratio(wall[0].as_secs_f64(), wall[1].as_secs_f64()))
}

/// A fixed xorshift pass over 4 MiB: the same work every time, so its
/// wall time is a reading of the machine, not of the engine.
pub fn ref_op(buffer: &mut [u64]) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for slot in buffer.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *slot = slot.wrapping_add(x);
    }
    std::hint::black_box(buffer[buffer.len() / 2])
}

pub const REF_OP_WORDS: usize = (4 << 20) / 8;
