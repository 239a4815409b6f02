//! Morsel-driven scaling curves: the paper's Table 1 queries at 1 / 2 / 4
//! / 8 worker threads, plus the dictionary-code kernels against a generic
//! per-row loop.
//!
//! The interesting numbers are the speedup columns: chunk scans are
//! embarrassingly parallel (immutable chunks, mergeable states), so the
//! group-by-heavy queries should approach linear scaling until the merge
//! and finalize phases dominate.

use pd_bench::experiments::{paper_partition, reordered_store, QUERIES};
use pd_bench::{fmt_duration, json_line, logs_table, measure_n, measure_stats, Bench};
use pd_core::{execute, ExecContext};
use pd_sql::{analyze, parse_query};
use std::hint::black_box;

fn main() {
    let rows = pd_bench::rows_from_env_or(500_000);
    let table = logs_table(rows);
    let mut spec = paper_partition(rows);
    // Enough chunks that 8 workers stay busy.
    spec.max_chunk_rows = (rows / 64).clamp(500, 50_000);
    let threshold = spec.max_chunk_rows;
    let store = reordered_store(&table, spec);
    println!("dataset: {rows} rows in {} chunks (threshold {threshold})", store.chunk_count());
    let cores = pd_core::scheduler::available_threads();
    println!("detected core count: {cores}");
    let check_speedups = cores > 1;
    if !check_speedups {
        println!(
            "WARNING: available_parallelism() == 1 — parallel speedups cannot manifest \
             on this machine; speedup sanity checks are skipped (expect ~1.0x everywhere). \
             Re-run on multi-core hardware for meaningful scaling curves."
        );
    }
    let mut violations: Vec<String> = Vec::new();
    // With at least `cores` real cores, `threads` workers should never be
    // dramatically *slower* than sequential (generous 1.5x margin: these
    // are µs-scale queries where scheduling noise is visible).
    let mut check =
        |name: &str, threads: usize, t1: std::time::Duration, t: std::time::Duration| {
            if check_speedups && threads <= cores && t.as_secs_f64() > 1.5 * t1.as_secs_f64() {
                violations.push(format!(
                    "{name}: {threads} threads took {} vs {} sequential",
                    fmt_duration(t),
                    fmt_duration(t1)
                ));
            }
        };

    // Query latency by thread count (uncached: no result cache, so every
    // run scans).
    println!("\n=== Table 1 queries by thread count ===");
    println!(
        "{:<8} {:>12} {:>12} {:>12} {:>12}  {:>9} {:>9}",
        "query", "1 thread", "2 threads", "4 threads", "8 threads", "x4", "x8"
    );
    for (name, sql) in QUERIES {
        let analyzed = analyze(&parse_query(sql).expect("parse")).expect("analyze");
        let time = |threads: usize| {
            let ctx = ExecContext { threads, ..Default::default() };
            measure_stats(5, || {
                black_box(execute(&store, &analyzed, &ctx).expect("query"));
            })
        };
        let s1 = time(1);
        let s2 = time(2);
        let s4 = time(4);
        let s8 = time(8);
        let (t1, t2, t4, t8) = (s1.min, s2.min, s4.min, s8.min);
        check(name, 2, t1, t2);
        check(name, 4, t1, t4);
        check(name, 8, t1, t8);
        println!(
            "{name:<8} {:>12} {:>12} {:>12} {:>12}  {:>8.2}x {:>8.2}x",
            fmt_duration(t1),
            fmt_duration(t2),
            fmt_duration(t4),
            fmt_duration(t8),
            t1.as_secs_f64() / t4.as_secs_f64().max(1e-12),
            t1.as_secs_f64() / t8.as_secs_f64().max(1e-12),
        );
        for (threads, stats) in [(1, s1), (2, s2), (4, s4), (8, s8)] {
            json_line("parallel_scaling", &format!("{name}/threads{threads}"), stats, &[]);
        }
    }

    // A group-by-heavy filtered query: partial chunks exercise the mask +
    // kernel path at every thread count.
    println!("\n=== filtered group-by by thread count ===");
    let sql = "SELECT table_name, COUNT(*) as c, SUM(latency) as s FROM data WHERE latency > 100.0 GROUP BY table_name ORDER BY c DESC LIMIT 10";
    let analyzed = analyze(&parse_query(sql).expect("parse")).expect("analyze");
    let mut t1 = None;
    for threads in [1usize, 2, 4, 8] {
        let ctx = ExecContext { threads, ..Default::default() };
        let t = measure_n(5, || {
            black_box(execute(&store, &analyzed, &ctx).expect("query"));
        });
        let sequential = *t1.get_or_insert(t);
        let speedup = sequential.as_secs_f64() / t.as_secs_f64().max(1e-12);
        check("filtered", threads, sequential, t);
        println!("threads {threads}: {:>12}   ({speedup:.2}x)", fmt_duration(t));
    }

    // Kernel vs generic loop: the dictionary-code counts-array against a
    // per-row closure over the same chunk data.
    println!();
    let bench = Bench::new("kernel_vs_generic").samples(10);
    let col = store.column("table_name").expect("column");
    let total_rows: u64 = col.chunks.iter().map(|c| c.len() as u64).sum();
    bench.case_throughput("kernel/counts_array_codes", total_rows, || {
        for chunk in &col.chunks {
            let mut counts = vec![0u64; chunk.dict.len() as usize];
            // The monomorphized view loop the executor's kernels use.
            match chunk.codes() {
                pd_encoding::CodesView::Const { len } => counts[0] += len as u64,
                pd_encoding::CodesView::Bits(bits) => {
                    let ones = bits.count_ones() as u64;
                    counts[1] += ones;
                    counts[0] += bits.len() as u64 - ones;
                }
                pd_encoding::CodesView::U8(v) => {
                    for &id in v {
                        counts[id as usize] += 1;
                    }
                }
                pd_encoding::CodesView::U16(v) => {
                    for &id in v {
                        counts[id as usize] += 1;
                    }
                }
                pd_encoding::CodesView::U32(v) => {
                    for &id in v {
                        counts[id as usize] += 1;
                    }
                }
            }
            black_box(&counts);
        }
    });
    bench.case_throughput("generic/per_row_get", total_rows, || {
        for chunk in &col.chunks {
            let mut counts = vec![0u64; chunk.dict.len() as usize];
            for row in 0..chunk.len() {
                counts[chunk.elements.get(row) as usize] += 1;
            }
            black_box(&counts);
        }
    });
    bench.case_throughput("generic/value_hashmap", total_rows, || {
        use pd_common::FxHashMap;
        for chunk in &col.chunks {
            let mut counts: FxHashMap<pd_common::Value, u64> = FxHashMap::default();
            for row in 0..chunk.len() {
                let v = col.dict.value(chunk.dict.get(chunk.elements.get(row)));
                *counts.entry(v).or_insert(0) += 1;
            }
            black_box(&counts);
        }
    });

    if check_speedups {
        if violations.is_empty() {
            println!("\nspeedup sanity checks passed ({cores} cores)");
        } else {
            // Warn by default: 5-sample µs-scale measurements are noisy on
            // loaded machines. `PD_BENCH_STRICT=1` turns this into a hard
            // failure for controlled perf-CI environments.
            println!(
                "\nWARNING: parallel execution slower than sequential on a {cores}-core \
                 machine:\n  {}",
                violations.join("\n  ")
            );
            let strict = std::env::var("PD_BENCH_STRICT").is_ok_and(|v| v == "1");
            assert!(!strict, "PD_BENCH_STRICT=1: treating speedup warnings as failures");
        }
    }
}
