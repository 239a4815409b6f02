//! The traced run: the same inputs replayed with a span around every
//! public call, probe spans on the mirror shards beside them, and the
//! per-layer metrics read off both. End-to-end metrics never come from
//! here.

use crate::layers::{ref_op, scheduler_speedup, Mirror, Probes, REF_OP_WORDS};
use crate::report::{Metric, Outcome, Stamp};
use crate::run::{replay, verify_answers, Inputs, Record, Replay, Reply, Server, Sizes, Workload};
use crate::stats::{median, percentile, ratio};
use crate::trace::{self_time_ns, At, Tracer, NONE};
use powerdrill::core::{execute_partial, finalize, scheduler};
use powerdrill::sql::{analyze, parse_query};
use powerdrill::{ExecContext, PowerDrill, Result};
use std::time::{Duration, Instant};

/// Clicks whose queries feed `core.scheduler.speedup`.
const SPEEDUP_CLICKS: usize = 10;

/// `PowerDrill::sql`'s body, one span per call: on `scan_cold` the path
/// spans *are* the path.
fn facade_query(pd: &PowerDrill, sql: &str, tracer: &mut Tracer, at: At) -> Result<Reply> {
    let parsed = tracer.time("sql.parse", at, || parse_query(sql)).0?;
    let analyzed = tracer.time("sql.analyze", at, || analyze(&parsed)).0?;
    // `import_uncached` serves with the default context.
    let ctx = ExecContext::default();
    let (partial, stats) =
        tracer.time("core.exec.partial", at, || execute_partial(pd.store(), &analyzed, &ctx)).0?;
    let result = tracer.time("core.exec.finalize", at, || finalize(&analyzed, partial)).0?;
    Ok(Reply::Facade(result, stats))
}

/// Sums over the replies of the traced replay.
#[derive(Default)]
struct ReplyTotals {
    stats: powerdrill::ScanStats,
    worker_cache_hits: u64,
    retries: u64,
    hop_overhead_us: Vec<f64>,
    queue_delay_us: Vec<f64>,
}

struct Traced {
    replay: Replay,
    totals: ReplyTotals,
    ref_op_ms: Vec<f64>,
    delta_bytes: u64,
    stolen: Duration,
}

/// Replay `clicks` clicks with path spans around the serving calls and the
/// probes (and one reference operation) between queries.
fn replay_traced(
    server: &mut Server,
    inputs: &Inputs,
    clicks: usize,
    mirror: &mut Mirror,
    probes: &mut Probes,
    tracer: &mut Tracer,
) -> Traced {
    let mut out = Replay::default();
    let mut totals = ReplyTotals::default();
    let mut ref_op_ms = Vec::with_capacity(clicks);
    let mut ref_buffer = vec![0u64; REF_OP_WORDS];
    let mut delta_bytes = 0;
    let mut rows_served = inputs.served().len() as u64;
    let stolen_before = scheduler::stolen_time();
    for (c, click) in inputs.clicks.iter().enumerate().take(clicks) {
        let root = At { parent: NONE, click: c as u64, query: NONE };
        if let Some(batch) = inputs.batches.get(c) {
            let Server::Cluster(cluster) = server else { unreachable!("batches imply a cluster") };
            let (appended, ns) = tracer.time("dist.cluster.append", root, || cluster.append(batch));
            match appended {
                Ok(outcome) => {
                    out.append_ms.push(ns as f64 / 1e6);
                    out.appended_rows += outcome.rows;
                    out.append_bytes += outcome.bytes_shipped;
                    rows_served += outcome.rows;
                }
                Err(e) => {
                    eprintln!("clickbench: append {c} failed: {e}");
                    out.failed_appends += 1;
                }
            }
            probes.clear_result_caches();
            match mirror.append(batch, Some((&mut *tracer, root))) {
                Ok(bytes) => delta_bytes += bytes,
                Err(e) => eprintln!("clickbench: mirror append {c} failed: {e}"),
            }
        }

        let click_span = tracer.open("click", root);
        let mut probe_ns = 0u64;
        let mut answered = 0;
        for (q, sql) in click.queries.iter().enumerate() {
            let query_id = (c * click.queries.len() + q) as u64;
            let at = At { parent: click_span, click: c as u64, query: query_id };
            let query_span = tracer.open("query", at);
            let inner = At { parent: query_span, ..at };
            let reply = match &*server {
                Server::Facade(pd) => facade_query(pd, sql, tracer, inner),
                Server::Cluster(cluster) => tracer
                    .time("dist.cluster.query", inner, || cluster.query(sql))
                    .0
                    .map(|o| Reply::Cluster(Box::new(o))),
            };
            let ns = tracer.close(query_span);
            if reply.is_ok() {
                out.query_us.push(ns as f64 / 1e3);
                answered += 1;
            }
            match &reply {
                Ok(Reply::Cluster(o)) => {
                    let slowest = o.subquery_latencies.iter().max().copied().unwrap_or_default();
                    totals
                        .hop_overhead_us
                        .push((ns as f64 / 1e3 - slowest.as_secs_f64() * 1e6).max(0.0));
                    totals
                        .queue_delay_us
                        .extend(o.queue_delays.iter().map(|d| d.as_secs_f64() * 1e6));
                    totals.worker_cache_hits += o.worker_cache_hits() as u64;
                    totals.retries += (o.failovers.len() + o.hedges.len()) as u64;
                    totals.stats += &o.stats;
                }
                Ok(Reply::Facade(_, stats)) => totals.stats += stats,
                Err(e) => eprintln!("clickbench: click {c} query {q} failed: {e}"),
            }
            out.records.push(Record { click: c, query: q, rows_served, reply: reply.ok() });

            // Beside the real call, not inside it: the probe's time is
            // taken back out of the click below.
            let probe_started = Instant::now();
            let parse_here = matches!(server, Server::Cluster(_));
            if let Err(e) = probes.query(tracer, inner, mirror, sql, parse_here) {
                eprintln!("clickbench: probe of click {c} query {q} failed: {e}");
            }
            probe_ns += probe_started.elapsed().as_nanos() as u64;
        }
        let click_ns = tracer.close(click_span);
        if answered == click.queries.len() {
            out.click_ms.push(click_ns.saturating_sub(probe_ns) as f64 / 1e6);
        }

        let (_, ns) = tracer.time("probe.bench.ref_op", root, || ref_op(&mut ref_buffer));
        ref_op_ms.push(ns as f64 / 1e6);
    }
    let stolen = scheduler::stolen_time().saturating_sub(stolen_before);
    Traced { replay: out, totals, ref_op_ms, delta_bytes, stolen }
}

/// Durations (µs) of `name` spans, falling back to its probe twin: the
/// facade's path has the span itself, a cluster only the probe.
fn span_us(tracer: &Tracer, name: &str) -> Vec<f64> {
    let mut ns = tracer.durations(name);
    if ns.is_empty() {
        ns = tracer.durations(&format!("probe.{name}"));
    }
    ns.into_iter().map(|v| v / 1e3).collect()
}

fn p50_us(tracer: &Tracer, name: &str) -> f64 {
    median(&span_us(tracer, name))
}

/// Share of the query spans' time that their child spans cover.
fn path_coverage(tracer: &Tracer) -> f64 {
    let spans = tracer.spans();
    let (mut total, mut own) = (0u64, 0u64);
    for span in spans.iter().filter(|s| s.name == "query") {
        total += span.duration_ns();
        // Probe spans hang off the query too but start after it closed;
        // `self_time_ns` clips them away.
        own += self_time_ns(spans, span.id);
    }
    1.0 - ratio(own as f64, total as f64)
}

pub fn run_traced(
    workload: Workload,
    sizes: &Sizes,
    seed: u64,
    stamp: &mut Stamp,
) -> std::result::Result<Outcome, String> {
    let inputs = Inputs::generate(workload, sizes, seed);
    inputs.check_recorded(sizes, seed)?;
    let fail = |what: &str, e: powerdrill::Error| format!("{what}: {e}");

    let mut mirror =
        Mirror::build(inputs.served(), sizes.base_rows, workload.shards(), &sizes.build_options())
            .map_err(|e| fail("mirror build", e))?;
    let rows = mirror.rows() as f64;
    let bytes_per_row = mirror.total_bytes() as f64 / rows;
    let (dict_bytes, elements_bytes) = mirror.memory_split().map_err(|e| fail("memory", e))?;

    // Three servers, one replay of the same clicks on each. The first
    // replay is thrown away: a process's first pass pays page-in and
    // allocator growth that later ones do not, which would make tracing
    // look free. The second, untraced, is the base of
    // `bench.trace_overhead_frac`; the third is the traced one.
    let mut setup_s = Vec::new();
    let mut fresh_server = || {
        let started = Instant::now();
        let server = Server::build(workload, sizes, inputs.served());
        setup_s.push(started.elapsed().as_secs_f64());
        let server = server.map_err(|e| fail("set-up", e))?;
        server.warm_up(&inputs.warmup).map_err(|e| fail("warm-up", e))?;
        Ok::<Server, String>(server)
    };
    replay(&mut fresh_server()?, &inputs, sizes.trace_clicks);
    let untraced = replay(&mut fresh_server()?, &inputs, sizes.trace_clicks);
    let mut server = fresh_server()?;
    // The first one, in the young process, as the untraced run times them.
    let setup_s = setup_s[0];
    let load_bytes = server.cluster().map_or(0, |c| c.shipped_bytes());
    let mut tracer = Tracer::new();
    let result_caches = if workload == Workload::ScanCold { 0 } else { workload.shards() };
    let mut probes = Probes::new(result_caches);
    let traced = replay_traced(
        &mut server,
        &inputs,
        untraced.clicks(),
        &mut mirror,
        &mut probes,
        &mut tracer,
    );
    let (cache_hits, cache_misses) = server.cluster().map_or((0, 0), |c| c.shard_cache_stats());
    let sheds = server.cluster().map_or(0, |c| c.shed_count());
    // Reap every worker before anything is printed.
    drop(server);

    let speedup_sqls: Vec<&str> = inputs
        .clicks
        .iter()
        .take(SPEEDUP_CLICKS)
        .flat_map(|click| click.queries.iter().map(String::as_str))
        .collect();
    let speedup =
        scheduler_speedup(&mirror, &speedup_sqls).map_err(|e| fail("speedup probe", e))?;
    let mismatched = verify_answers(workload, sizes, &inputs, &traced.replay)
        .map_err(|e| fail("verification could not run", e))?;

    let trace_path = crate::hygiene::out_dir().join(format!("trace-{}.jsonl", workload.name()));
    tracer.write_jsonl(&trace_path, workload.name()).map_err(|e| format!("trace file: {e}"))?;

    let Traced { replay: run, totals, ref_op_ms, delta_bytes, stolen } = traced;
    stamp.clicks = run.clicks();
    let queries = run.records.len() as f64;
    let counts = &probes.counts;
    let stats = &totals.stats;
    // Per second of query time: the traced replay's wall also holds the
    // probes.
    let busy = |query_us: &[f64]| ratio(query_us.len() as f64, query_us.iter().sum::<f64>() / 1e6);
    let (result_hits, result_misses) = probes.result_cache_stats();
    let append_s = run.append_ms.iter().sum::<f64>() / 1e3;
    let coverage = path_coverage(&tracer);

    let m = Metric::new;
    let metrics = vec![
        m("sql.parse_us_p50", p50_us(&tracer, "sql.parse"), "us"),
        m("sql.analyze_us_p50", p50_us(&tracer, "sql.analyze"), "us"),
        m("core.datastore.build_s", mirror.build_s, "s"),
        m("core.datastore.bytes_per_row", bytes_per_row, "B/row"),
        m("core.memory.dict_bytes_per_row", dict_bytes as f64 / rows, "B/row"),
        m("core.memory.elements_bytes_per_row", elements_bytes as f64 / rows, "B/row"),
        m(
            "core.datastore.append_ms_p50",
            p50_us(&tracer, "probe.core.datastore.append") / 1e3,
            "ms",
        ),
        m("core.skip.prepare_us_p50", p50_us(&tracer, "probe.core.skip.prepare"), "us"),
        m(
            "core.skip.chunks_skipped_frac",
            ratio(counts.chunks_skipped as f64, counts.chunks as f64),
            "frac",
        ),
        m(
            "core.skip.chunks_partial_frac",
            ratio(counts.chunks_partial as f64, counts.chunks as f64),
            "frac",
        ),
        m("core.exec.partial_us_p50", p50_us(&tracer, "core.exec.partial"), "us"),
        m("core.exec.scan_ns_per_row", counts.scan_ns_per_row(), "ns/row"),
        m("core.exec.cells_scanned", counts.cells_scanned as f64, "count"),
        m("core.kernels.float_table_builds", counts.float_table_builds as f64, "count"),
        m("core.exec.rows_skipped_frac", stats.skipped_fraction(), "frac"),
        m("core.exec.rows_cached_frac", stats.cached_fraction(), "frac"),
        m("core.exec.rows_scanned_frac", stats.scanned_fraction(), "frac"),
        m("core.exec.finalize_us_p50", p50_us(&tracer, "core.exec.finalize"), "us"),
        m("core.scheduler.speedup", speedup, "x"),
        m("core.scheduler.stolen_ms", stolen.as_secs_f64() * 1e3, "ms"),
        m(
            "core.cache.result_hit_frac",
            ratio(result_hits as f64, (result_hits + result_misses) as f64),
            "frac",
        ),
        m(
            "dist.shard_cache.signature_us_p50",
            p50_us(&tracer, "probe.dist.shard_cache.signature"),
            "us",
        ),
        m(
            "dist.shard_cache.hit_frac",
            ratio(cache_hits as f64, (cache_hits + cache_misses) as f64),
            "frac",
        ),
        m(
            "dist.worker.cache_hits_per_query",
            ratio(totals.worker_cache_hits as f64, queries),
            "count",
        ),
        m("dist.meta.verdicts_us_p50", p50_us(&tracer, "probe.dist.meta.verdicts"), "us"),
        m(
            "dist.meta.shards_refuted_frac",
            ratio(counts.shards_refuted as f64, counts.shards as f64),
            "frac",
        ),
        m(
            "dist.meta.chunks_refuted_frac",
            ratio(counts.meta_chunks_refuted as f64, counts.meta_chunks as f64),
            "frac",
        ),
        m(
            "dist.cluster.subtrees_pruned_per_query",
            ratio(stats.subtrees_pruned as f64, queries),
            "count",
        ),
        m(
            "dist.cluster.chunks_pruned_remote_frac",
            ratio(stats.chunks_pruned_remote as f64, stats.chunks_total as f64),
            "frac",
        ),
        m("common.wire.partial_bytes_p50", median(&counts.wire_bytes), "B"),
        m("common.wire.encode_us_p50", p50_us(&tracer, "probe.common.wire.encode"), "us"),
        m("common.wire.decode_us_p50", p50_us(&tracer, "probe.common.wire.decode"), "us"),
        m("dist.rpc.frame_bytes_p50", median(&counts.frame_bytes), "B"),
        m("dist.rpc.frame_encode_us_p50", p50_us(&tracer, "probe.dist.rpc.frame_encode"), "us"),
        m("compress.zippy_ratio", ratio(counts.zippy_in as f64, counts.zippy_out as f64), "x"),
        m("compress.zippy_compress_us_p50", p50_us(&tracer, "probe.compress.zippy_compress"), "us"),
        m(
            "compress.zippy_decompress_us_p50",
            p50_us(&tracer, "probe.compress.zippy_decompress"),
            "us",
        ),
        m("dist.cluster.hop_overhead_us_p50", median(&totals.hop_overhead_us), "us"),
        m("dist.worker.queue_delay_us_p90", percentile(&totals.queue_delay_us, 0.9), "us"),
        m(
            "dist.process.spawn_s",
            if workload.is_tree() { (setup_s - mirror.build_s).max(0.0) } else { 0.0 },
            "s",
        ),
        m("dist.process.load_bytes", load_bytes as f64, "B"),
        m("dist.cluster.retries", (totals.retries + sheds) as f64, "count"),
        m("dist.cluster.append_ms_p50", median(&run.append_ms), "ms"),
        m("dist.cluster.append_rows_per_s", ratio(run.appended_rows as f64, append_s), "1/s"),
        m(
            "dist.cluster.append_bytes_per_row",
            ratio(run.append_bytes as f64, run.appended_rows as f64),
            "B/row",
        ),
        m(
            "encoding.delta.encode_ms_p50",
            p50_us(&tracer, "probe.encoding.delta.encode") / 1e3,
            "ms",
        ),
        m(
            "encoding.delta.bytes_per_row",
            ratio(delta_bytes as f64, run.appended_rows as f64),
            "B/row",
        ),
        m("bench.ref_op_ms_p50", median(&ref_op_ms), "ms"),
        m(
            "bench.ref_op_drift",
            ratio(percentile(&ref_op_ms, 0.9), percentile(&ref_op_ms, 0.1)),
            "x",
        ),
        m(
            "bench.trace_overhead_frac",
            1.0 - ratio(busy(&run.query_us), busy(&untraced.query_us)),
            "frac",
        ),
        m("data.generate_s", inputs.generate_s, "s"),
    ];
    let failed = run.failed() + mismatched;
    let notes = vec![
        format!(
            "inputs {:016x}; {} spans in {}",
            inputs.fingerprint.combined(),
            tracer.spans().len(),
            trace_path.display()
        ),
        format!("answers {:016x}", run.answer_fingerprint(&inputs)),
        format!(
            "path spans cover {:.2} % of the query spans (self time {:.2} %)",
            coverage * 100.0,
            (1.0 - coverage) * 100.0
        ),
        format!(
            "untraced {:.1} queries/s busy, traced {:.1}; median click {:.3} ms untraced, {:.3} ms traced",
            busy(&untraced.query_us),
            busy(&run.query_us),
            median(&untraced.click_ms),
            median(&run.click_ms),
        ),
    ];
    Ok(Outcome { attempted: run.attempted(), failed, metrics, notes })
}
