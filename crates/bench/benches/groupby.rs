//! The §2.4 inner-loop claim: `counts[elements[row]]++` over a dense array
//! vs a generic hash-table group-by (what "more generic implementations"
//! pay). Then the ordered group tables through the public API, on the paths
//! no gated workload of the repo's benchmark reaches or isolates: a
//! one-key fold over 20 chunks (the counts array), an ungrouped one (the
//! pairwise merges of chunk tables), a two-key grouping wider than the
//! dense limit (the sort of packed key codes), and the merge of two
//! string-keyed partials, shared and uniquely held. Last, a `table_name`
//! chart's three steps in a tree, reported side by side and not asserted:
//! a leaf's `execute_partial` (every name leaves its dictionary as a sort
//! key) against one store's `execute` (`partial_string_keys`), the merge of
//! two shards' shared partials (`merge_shared_string_partials`), and the
//! root's `finalize` over every group, top and bottom ten
//! (`finalize_<n>_groups`).

use pd_bench::{logs_table, rows_from_env_or, Bench};
use pd_common::wire::{from_bytes, to_bytes};
use pd_common::{DataType, FxHashMap, Row, Schema, Value};
use pd_core::{
    execute, execute_partial, finalize, BuildOptions, DataStore, ExecContext, PartialResult,
};
use pd_data::Table;
use pd_encoding::{Elements, ElementsMode};
use pd_sql::{analyze, parse_query};
use std::hint::black_box;

const ROWS: usize = 1_000_000;

fn ids(distinct: u32) -> Vec<u32> {
    (0..ROWS).map(|i| (i as u32).wrapping_mul(2_654_435_761) % distinct).collect()
}

/// A partial of one count column over the string keys `k{i}`, `i` in
/// `keys`: a store's answer, one row per key.
fn counted(keys: impl Iterator<Item = usize>) -> PartialResult {
    let mut table = Table::new(Schema::of(&[("k", DataType::Str)]));
    keys.for_each(|i| table.push_row(Row(vec![Value::from(format!("k{i:06}"))])).expect("a row"));
    let store = DataStore::build(&table, &BuildOptions::basic()).expect("build");
    let sql = "SELECT k, COUNT(*) c FROM t GROUP BY k";
    let analyzed = analyze(&parse_query(sql).unwrap()).unwrap();
    execute_partial(&store, &analyzed, &ExecContext::default()).expect("a partial").0
}

fn main() {
    let bench = Bench::new("groupby").samples(10);

    for distinct in [25u32, 1_000, 100_000] {
        let raw = ids(distinct);
        let elements = Elements::encode(&raw, distinct, ElementsMode::Optimized);

        bench.case_throughput(&format!("counts_array/{distinct}"), ROWS as u64, || {
            let mut counts = vec![0u64; distinct as usize];
            elements.for_each(|id| counts[id as usize] += 1);
            black_box(counts);
        });

        bench.case_throughput(&format!("hash_table/{distinct}"), ROWS as u64, || {
            let mut counts: FxHashMap<u32, u64> = FxHashMap::default();
            elements.for_each(|id| *counts.entry(id).or_insert(0) += 1);
            black_box(counts);
        });

        // What the row-wise baselines pay: hashing the string value.
        let strings: Vec<String> = raw.iter().map(|id| format!("table_name_{id:06}")).collect();
        bench.case_throughput(&format!("hash_table_strings/{distinct}"), ROWS as u64, || {
            let mut counts: FxHashMap<&str, u64> = FxHashMap::default();
            for s in &strings {
                *counts.entry(s.as_str()).or_insert(0) += 1;
            }
            black_box(counts);
        });
    }

    // The benchmark's store: 40 000 log rows in 2 000-row chunks.
    let rows = rows_from_env_or(40_000);
    let mut build = BuildOptions::production(&["country", "table_name"]);
    if let Some(spec) = &mut build.partition {
        spec.max_chunk_rows = rows / 20;
    }
    let store = DataStore::build(&logs_table(rows), &build).expect("build");
    let chunks = store.chunk_count();
    let entries = |name: &str, c: usize| store.column(name).unwrap().chunks[c].dict.len() as usize;
    let wide = (0..chunks).any(|c| entries("latency", c) * entries("timestamp", c) > 1 << 16);
    assert!(wide, "a chunk's latency × timestamp product passes the dense limit");
    let ctx = ExecContext { threads: 1, ..Default::default() };
    let key = store.column("table_name").unwrap().dict.len();
    for (name, sql) in [
        (
            format!("fold_one_key/{key}_ids_{chunks}_chunks"),
            "SELECT table_name, COUNT(*) c, SUM(latency) s FROM logs GROUP BY table_name \
             ORDER BY c DESC LIMIT 10",
        ),
        (
            format!("fold_ungrouped/{chunks}_chunks"),
            "SELECT COUNT(*), SUM(latency), MIN(latency), MAX(latency) FROM logs",
        ),
        (
            format!("fold_two_keys_sparse/{chunks}_chunks"),
            "SELECT latency, timestamp, COUNT(*) c FROM logs GROUP BY latency, timestamp \
             ORDER BY c DESC LIMIT 10",
        ),
    ] {
        let analyzed = analyze(&parse_query(sql).unwrap()).unwrap();
        bench.case_throughput(&name, rows as u64, || {
            black_box(execute(&store, &analyzed, &ctx).unwrap());
        });
    }

    // 3 000 + 3 000 string keys, half of them shared.
    let (a, b) = (counted((0..3_000).map(|i| 2 * i)), counted(1_500..4_500));
    bench.case("merge_3000_3000_half_shared/shared", || {
        let mut merged = a.clone();
        merged.merge(b.clone()).unwrap();
        black_box(merged);
    });
    // Uniquely held sides, decoded afresh outside the clock: a pair for the
    // warm-up and one per sample.
    let unique = |p: &PartialResult| from_bytes::<PartialResult>(&to_bytes(p)).unwrap();
    let mut pairs: Vec<_> = (0..=10).map(|_| (unique(&a), unique(&b))).collect();
    let mut merged = Vec::new();
    bench.case("merge_3000_3000_half_shared/unique", || {
        let (mut own, other) = pairs.pop().expect("a pair per sample");
        own.merge(other).unwrap();
        merged.push(own);
    });
    black_box(merged);

    // A `table_name` chart as a tree answers it.
    let chart =
        "SELECT table_name, COUNT(*) c FROM logs GROUP BY table_name ORDER BY c DESC LIMIT 10";
    let top = analyze(&parse_query(chart).unwrap()).unwrap();
    bench.case_throughput("partial_string_keys/execute_partial", rows as u64, || {
        black_box(execute_partial(&store, &top, &ctx).unwrap());
    });
    bench.case_throughput("partial_string_keys/execute", rows as u64, || {
        black_box(execute(&store, &top, &ctx).unwrap());
    });
    // Two shards of the rows, alternating: their partials share most names.
    let table = logs_table(rows);
    let mut shards = [Table::new(table.schema().clone()), Table::new(table.schema().clone())];
    (0..table.len()).for_each(|i| shards[i % 2].push_row(table.row(i)).unwrap());
    let [a, b] = shards.map(|shard| {
        let store = DataStore::build(&shard, &build).expect("build");
        execute_partial(&store, &top, &ctx).unwrap().0
    });
    bench.case(&format!("merge_shared_string_partials/{}+{}_keys", a.len(), b.len()), || {
        let mut merged = a.clone();
        merged.merge(b.clone()).unwrap();
        black_box(merged);
    });
    let (partial, _) = execute_partial(&store, &top, &ctx).unwrap();
    let bottom = analyze(&parse_query(&chart.replace("DESC", "ASC")).unwrap()).unwrap();
    for (order, query) in [("c_desc", &top), ("c_asc", &bottom)] {
        bench.case(&format!("finalize_{}_groups/{order}", partial.len()), || {
            black_box(finalize(query, partial.clone()).unwrap());
        });
    }
}
