//! Randomized properties on the store's structural invariants:
//! partitioning is a permutation into value-range boxes, skipping is sound
//! (a skipped chunk contains no matching row), and partial results merge
//! associatively, commutatively and in key order. Driven by a seeded PRNG
//! so failures reproduce exactly.

use pd_common::rng::Rng;
use pd_common::wire::{from_bytes, to_bytes};
use pd_common::{fx_hash64, sortkey, DataType, Row, Schema, Value};
use pd_core::partition::partition;
use pd_core::skip::{ChunkActivity, SkipAnalysis};
use pd_core::{
    execute, execute_partial, finalize, finalize_kept, BuildOptions, DataStore, ExecContext,
    KmvSketch, PartialResult, PartitionSpec, ResultCache, StoredColumn,
};
use pd_data::Table;
use pd_encoding::TableDelta;
use pd_sql::{analyze, eval_expr, parse_query, truthy, AnalyzedQuery, Restriction, RowContext};
use std::sync::Arc;

/// Did the appends that made `after` move an id `before`'s dictionary had?
/// Merges only ever move ids up, so one moved iff an old id now holds
/// another value.
fn renumbered(before: &StoredColumn, after: &StoredColumn) -> bool {
    (0..before.dict.len()).any(|id| after.dict.value(id) != before.dict.value(id))
}

/// Row context over a store's reconstructed cell values.
struct StoreRow<'a> {
    store: &'a DataStore,
    chunk: usize,
    row: usize,
}

impl RowContext for StoreRow<'_> {
    fn column(&self, name: &str) -> pd_common::Result<Value> {
        Ok(self.store.column(name)?.value_at(self.chunk, self.row))
    }
}

/// The partitioner must produce a permutation whose chunks respect the
/// threshold whenever a split is possible, and whose chunks occupy
/// disjoint key-ranges on the first field that distinguishes them.
#[test]
fn partition_invariants() {
    let mut rng = Rng::seed_from_u64(0xc04e_0001);
    for case in 0..64 {
        let n = rng.range_usize(1, 400);
        let a: Vec<u32> = (0..n).map(|_| rng.range_u64(0, 30) as u32).collect();
        let b: Vec<u32> = (0..n).map(|_| rng.range_u64(0, 15) as u32).collect();
        let threshold = rng.range_usize(1, 100);
        let p = partition(&[&a, &b], n, threshold);

        // Permutation.
        let mut seen = vec![false; n];
        for &r in &p.row_order {
            assert!(!seen[r as usize], "case {case}: duplicate row");
            seen[r as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "case {case}: rows missing");
        assert_eq!(*p.chunk_starts.last().unwrap() as usize, n, "case {case}");

        // Threshold respected unless a chunk is a single (a, b) value pair
        // (unsplittable).
        for c in 0..p.chunk_count() {
            let rows = &p.row_order[p.chunk_range(c)];
            if rows.len() > threshold {
                let first = (a[rows[0] as usize], b[rows[0] as usize]);
                assert!(
                    rows.iter().all(|&r| (a[r as usize], b[r as usize]) == first),
                    "case {case}: oversized chunk must be single-valued"
                );
            }
        }

        // Chunks are boxes: for any two chunks, either their first-field
        // ranges are disjoint, or they share a single first-field value and
        // their second-field ranges are disjoint.
        let ranges: Vec<((u32, u32), (u32, u32))> = (0..p.chunk_count())
            .map(|c| {
                let rows = &p.row_order[p.chunk_range(c)];
                let fa: Vec<u32> = rows.iter().map(|&r| a[r as usize]).collect();
                let fb: Vec<u32> = rows.iter().map(|&r| b[r as usize]).collect();
                (
                    (*fa.iter().min().unwrap(), *fa.iter().max().unwrap()),
                    (*fb.iter().min().unwrap(), *fb.iter().max().unwrap()),
                )
            })
            .collect();
        for i in 0..ranges.len() {
            for j in i + 1..ranges.len() {
                let ((a_lo1, a_hi1), (b_lo1, b_hi1)) = ranges[i];
                let ((a_lo2, a_hi2), (b_lo2, b_hi2)) = ranges[j];
                let a_disjoint = a_hi1 < a_lo2 || a_hi2 < a_lo1;
                let same_single_a = a_lo1 == a_hi1 && a_lo2 == a_hi2 && a_lo1 == a_lo2;
                let b_disjoint = b_hi1 < b_lo2 || b_hi2 < b_lo1;
                assert!(
                    a_disjoint || (same_single_a && b_disjoint),
                    "case {case}: chunks {i} and {j} overlap: {:?} vs {:?}",
                    ranges[i],
                    ranges[j]
                );
            }
        }
    }
}

/// A random partial of up to 11 groups with `key_width` key columns, its
/// first-column keys drawn from `k{first_key}..k{first_key + 8}`, as a
/// store of as many rows answers it: every kind of state, integer sums past
/// `i64`, floats that no pair of doubles holds. A store holds a row, so
/// none passes the filter of a partial of no groups.
fn random_partial(rng: &mut Rng, key_width: usize, first_key: usize) -> PartialResult {
    let floats = [0.5, -0.0, 1e308, -1e308, 1e-300, f64::INFINITY, f64::NAN, 3.25];
    let schema = Schema::of(&[
        ("k", DataType::Str),
        ("w", DataType::Int),
        ("v", DataType::Int),
        ("x", DataType::Float),
    ]);
    let mut table = Table::new(schema);
    let groups = rng.range_usize(0, 12);
    for _ in 0..groups.max(1) {
        let row = vec![
            Value::from(format!("k{:02}", first_key + rng.range_usize(0, 8))),
            Value::Int(rng.range_i64_inclusive(0, 2)),
            Value::Int(rng.range_i64_inclusive(-100, 100) << 56),
            Value::Float(*rng.pick(&floats)),
        ];
        table.push_row(Row(row)).unwrap();
    }
    let keys = ["k", "w"][..key_width].join(", ");
    let (select, group_by) = match key_width {
        0 => (String::new(), String::new()),
        _ => (format!("{keys}, "), format!(" GROUP BY {keys}")),
    };
    let filter = if groups == 0 { " WHERE w > 2" } else { "" };
    let sql = format!(
        "SELECT {select}COUNT(*), SUM(v), SUM(x), MIN(v), MAX(x), SUM(v * 0.1), \
         COUNT(DISTINCT v) FROM t{filter}{group_by}"
    );
    let analyzed = analyze(&parse_query(&sql).unwrap()).unwrap();
    let store = DataStore::build(&table, &BuildOptions::basic()).unwrap();
    let ctx = ExecContext { sketch_m: 4, ..Default::default() };
    execute_partial(&store, &analyzed, &ctx).unwrap().0
}

/// `PartialResult::merge` is associative and commutative, keeps the groups
/// in strict key order and has `Default` as its identity (the property the
/// §4 computation tree — and a pruned edge's empty answer — rely on), over
/// the partials of small random stores: every kind of state, floats that
/// no pair of doubles holds, keys that some parts share and others do not.
#[test]
fn partial_results_merge_associatively_and_commutatively_in_key_order() {
    let mut rng = Rng::seed_from_u64(0xc04e_0003);
    for case in 0..64 {
        let key_width = rng.range_usize(0, 3);
        let parts: Vec<PartialResult> =
            (0..rng.range_usize(2, 7)).map(|_| random_partial(&mut rng, key_width, 0)).collect();
        let fold = |parts: &mut dyn Iterator<Item = &PartialResult>| {
            let mut acc = PartialResult::default();
            parts.for_each(|p| acc.merge(p.clone()).unwrap());
            acc
        };

        let flat = fold(&mut parts.iter());
        assert_eq!(fold(&mut parts.iter().rev()), flat, "case {case}: commutative");
        let mid = parts.len() / 2;
        let mut tree = fold(&mut parts[..mid].iter());
        tree.merge(fold(&mut parts[mid..].iter())).unwrap();
        assert_eq!(tree, flat, "case {case}: associative");

        // Identity on either side, without a shape of its own.
        let mut left = PartialResult::default();
        left.merge(parts[0].clone()).unwrap();
        let mut right = parts[0].clone();
        right.merge(PartialResult::default()).unwrap();
        assert_eq!((&left, &right), (&parts[0], &parts[0]), "case {case}: identity");

        // The decoder verifies strict key order (and every column length).
        let back: PartialResult = from_bytes(&to_bytes(&flat)).unwrap();
        assert_eq!(back, flat, "case {case}: ordered");
    }
}

/// A partial shares its table with its clones — a node cache keeps one and
/// hands out others — so a merge must write to a table of its own: every
/// clone made before a merge stays what it was, bit for bit, on either side
/// of it; and whether the argument is shared or uniquely held the merged
/// table is the same. Parts include
/// the empty partial and ones whose keys all sort behind the receiver's.
#[test]
fn merging_leaves_every_earlier_clone_of_a_shared_table_as_it_was() {
    let mut rng = Rng::seed_from_u64(0xc04e_0007);
    for case in 0..64 {
        let key_width = rng.range_usize(0, 3);
        let tail = if rng.chance(0.3) { 8 } else { 0 };
        let a = random_partial(&mut rng, key_width, 0);
        let b = random_partial(&mut rng, key_width, tail);
        let c_first = rng.range_usize(0, 2) * tail;
        let c = random_partial(&mut rng, key_width, c_first);
        let before = [to_bytes(&a), to_bytes(&b), to_bytes(&c)];

        // Everything shared: `a`, `b` and `c` stay held here.
        let mut shared = a.clone();
        shared.merge(b.clone()).unwrap();
        let early = shared.clone();
        let early_bytes = to_bytes(&early);
        shared.merge(c.clone()).unwrap();
        assert_eq!([to_bytes(&a), to_bytes(&b), to_bytes(&c)], before, "case {case}: the parts");
        assert_eq!(to_bytes(&early), early_bytes, "case {case}: a clone between two merges");

        // Nothing shared: the same parts, decoded afresh, merged by value.
        let own = |bytes: &[u8]| from_bytes::<PartialResult>(bytes).unwrap();
        let mut unique = own(&before[0]);
        unique.merge(own(&before[1])).unwrap();
        assert_eq!(to_bytes(&unique), early_bytes, "case {case}: shared == unique, one merge");
        unique.merge(own(&before[2])).unwrap();
        assert_eq!(unique, shared, "case {case}");
        assert_eq!(to_bytes(&unique), to_bytes(&shared), "case {case}: shared == unique");
    }
}

/// A value of every kind a key cell can hold, edges first: ±0.0, NaNs with
/// payloads and either sign, ±∞, `i64::MIN` / `i64::MAX`, the empty string,
/// strings that are prefixes of one another, non-ASCII text.
fn random_cell(rng: &mut Rng) -> Value {
    let floats = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::MIN_POSITIVE, -5e-324];
    let nan = |bits: u64| Value::Float(f64::from_bits(bits));
    let strings =
        ["", "a", "ab", "abc", "b", "é", "éa", "日本", "日本語", "\0", "\u{7f}", "\u{80}"];
    match rng.range_usize(0, 9) {
        0 => Value::Null,
        1 => Value::Int(*rng.pick(&[i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX])),
        2 => Value::Int(rng.next_u64() as i64),
        3 => Value::Float(*rng.pick(&floats)),
        4 => nan(f64::NAN.to_bits() | rng.next_u64() >> 14 | (rng.next_u64() & 1) << 63),
        5 => Value::Float(f64::from_bits(rng.next_u64())),
        6 => Value::from(*rng.pick(&strings)),
        _ => {
            let len = rng.range_usize(0, 6);
            Value::from((0..len).map(|_| *rng.pick(&strings)).collect::<String>())
        }
    }
}

/// Sort keys (`pd_common::sortkey`, the cells of a partial's key columns)
/// order by `memcmp` exactly as [`Value::cmp`] orders their values — across
/// types too — and decode to the value they were made from, floats bit for
/// bit.
#[test]
fn sortkeys_order_and_decode_like_their_values() {
    let mut rng = Rng::seed_from_u64(0xc04e_0009);
    let key = |value: &Value| {
        let mut key = Vec::new();
        sortkey::encode(value, &mut key);
        key
    };
    let bits = |value: &Value| match value {
        Value::Float(x) => Some(x.to_bits()),
        _ => None,
    };
    for case in 0..20_000 {
        let (a, b) = (random_cell(&mut rng), random_cell(&mut rng));
        let (ka, kb) = (key(&a), key(&b));
        assert_eq!(ka.cmp(&kb), a.cmp(&b), "case {case}: {a:?} vs {b:?}");
        for (value, key) in [(&a, &ka), (&b, &kb)] {
            let back = sortkey::decode(key);
            assert_eq!((&back, bits(&back)), (value, bits(value)), "case {case}");
        }
    }
}

/// `answer` ranks `full` as the definition says — every row sorted as a
/// whole, then stably by the ORDER BY keys — and under LIMIT 0, 1, 7, 10,
/// 44, 45, 59, 60, 61, n − 1, n and n + 1 (n rows unlimited) keeps exactly
/// that order's prefix.
fn assert_limits_keep_a_full_sorts_prefix(full: &str, answer: impl Fn(&AnalyzedQuery) -> Vec<Row>) {
    let analyzed = analyze(&parse_query(full).unwrap()).unwrap();
    let unlimited = answer(&analyzed);
    let mut want = unlimited.clone();
    want.sort();
    want.sort_by(|a, b| {
        (analyzed.order_by.iter())
            .map(|&(idx, desc)| {
                let ord = a.0[idx].cmp(&b.0[idx]);
                if desc {
                    ord.reverse()
                } else {
                    ord
                }
            })
            .find(|ord| ord.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    assert_eq!(unlimited, want, "{full}");
    let n = want.len();
    for limit in [0, 1, 7, 10, 44, 45, 59, 60, 61, n.saturating_sub(1), n, n + 1] {
        let limited = analyze(&parse_query(&format!("{full} LIMIT {limit}")).unwrap()).unwrap();
        assert_eq!(answer(&limited), want[..limit.min(n)], "{full} LIMIT {limit}");
    }
}

/// Many groups share an ORDER BY key, so which of them survive the LIMIT
/// is decided by the whole-row tie-break — the selection must agree with
/// sorting everything, row for row: over one small store's partial, and
/// through `execute` on built stores (which must equal
/// `finalize(execute_partial)`) with one key of ≥ 2 000 groups that tie on
/// their counts by the thousand, top-k and bottom-k, two keys, a key HAVING
/// reads, and a key dictionary whose old ids an append renumbered.
#[test]
fn finalize_limit_keeps_exactly_the_rows_a_full_sort_would() {
    // 60 keys of 1 to 4 rows: counts and sums tie by the dozen.
    let small = Schema::of(&[("k", DataType::Str), ("n", DataType::Int)]);
    let mut small = Table::new(small);
    for i in 0..60i64 {
        for r in 0..=i % 4 {
            let n = if r == 0 { i % 3 } else { 0 };
            let key = Value::from(format!("k{:02}", i * 37 % 60));
            small.push_row(Row(vec![key, Value::Int(n)])).unwrap();
        }
    }
    let store = DataStore::build(&small, &BuildOptions::basic()).unwrap();
    let sql = "SELECT k, COUNT(*) c, SUM(n) s FROM t GROUP BY k";
    let analyzed = analyze(&parse_query(sql).unwrap()).unwrap();
    let partial = execute_partial(&store, &analyzed, &ExecContext::default()).unwrap().0;
    for order in ["c DESC", "c ASC", "c DESC, s ASC", "s DESC, k DESC", "k ASC"] {
        for having in ["", " HAVING c > 1"] {
            let full = format!(
                "SELECT k, COUNT(*) c, SUM(n) s FROM t GROUP BY k{having} ORDER BY {order}"
            );
            assert_limits_keep_a_full_sorts_prefix(&full, |analyzed| {
                finalize(analyzed, partial.clone()).unwrap().rows
            });
        }
    }

    // 2 400 keys of two or three rows each, and seven hot ones.
    let schema = Schema::of(&[("k", DataType::Str), ("w", DataType::Int), ("n", DataType::Int)]);
    let row = |r: usize, key: String| {
        vec![Value::from(key), Value::Int((r % 3) as i64), Value::Int((r * 13 % 17) as i64)]
    };
    let columns = |rows: Vec<Vec<Value>>| -> Vec<Vec<Value>> {
        (0..3).map(|c| rows.iter().map(|row| row[c].clone()).collect()).collect()
    };
    let base = (0..6_000).map(|r| {
        let k = if r % 40 == 0 { r / 40 % 7 } else { r * 2_657 % 2_400 };
        row(r, format!("k{k:04}"))
    });
    let table = Table::from_columns(schema.clone(), columns(base.collect())).unwrap();
    // New keys before every old one and between old ones, and old keys.
    let tail = (0..300).map(|r| {
        let key = match r % 3 {
            0 => format!("a{r:03}"),
            1 => format!("k{:04}x", r * 7 % 2_400),
            _ => format!("k{:04}", r * 11 % 2_400),
        };
        row(r, key)
    });
    let tail = columns(tail.collect());
    let slices: Vec<&[Value]> = tail.iter().map(Vec::as_slice).collect();
    let delta = TableDelta::from_columns(schema, &slices).unwrap();
    let spec = PartitionSpec::new(&["k"], 1_000);
    let sorted = DataStore::build(&table, &BuildOptions::optcols(spec.clone())).unwrap();
    let front_coded = DataStore::build(&table, &BuildOptions::optdicts(spec.clone())).unwrap();
    let mut tailed = DataStore::build(&table, &BuildOptions::optcols(spec)).unwrap();
    let before = tailed.column("k").unwrap();
    tailed.append_delta(&delta).unwrap();
    assert!(renumbered(&before, &tailed.column("k").unwrap()), "the append renumbered `k`");

    let queries = [
        "SELECT k, COUNT(*) c, SUM(n) s FROM t GROUP BY k ORDER BY c DESC",
        "SELECT k, COUNT(*) c, SUM(n) s FROM t GROUP BY k ORDER BY c ASC",
        "SELECT COUNT(*) c, k FROM t GROUP BY k ORDER BY c ASC",
        "SELECT k, COUNT(*) c FROM t GROUP BY k ORDER BY k DESC",
        "SELECT k, SUM(n) s FROM t GROUP BY k HAVING s > 20 ORDER BY s DESC",
        "SELECT k, COUNT(*) c FROM t GROUP BY k HAVING k < 'k1200' ORDER BY c ASC",
        "SELECT w, k, COUNT(*) c FROM t GROUP BY k, w ORDER BY c DESC",
        "SELECT k, w, COUNT(*) c FROM t GROUP BY k, w ORDER BY w ASC",
        "SELECT w, COUNT(*) c FROM t GROUP BY w ORDER BY c ASC",
    ];
    for (label, store) in [("sorted", &sorted), ("front coded", &front_coded), ("tailed", &tailed)]
    {
        let by_key = analyze(&parse_query(queries[0]).unwrap()).unwrap();
        let (groups, _) = execute_partial(store, &by_key, &ExecContext::default()).unwrap();
        assert!(groups.len() >= 2_000, "{label}: {} groups", groups.len());
        for sql in queries {
            assert_limits_keep_a_full_sorts_prefix(sql, |analyzed| {
                let ctx = ExecContext::default();
                let (partial, _) = execute_partial(store, analyzed, &ctx).unwrap();
                let on_values = finalize(analyzed, partial).unwrap();
                let on_ids = execute(store, analyzed, &ctx).unwrap().0;
                assert_eq!(on_ids, on_values, "{label}: {sql}");
                on_ids.rows
            });
        }
    }
}

/// `finalize_kept` ranks once: with no positions it answers as `finalize`
/// does and leaves the returned groups' positions, in output order; handed
/// those back over the same table it answers alike, and handed others it
/// builds their rows without ranking — HAVING, ORDER BY and LIMIT are not
/// applied again.
#[test]
fn finalize_kept_ranks_once_and_builds_the_rows_it_kept() {
    let schema = Schema::of(&[("k", DataType::Str), ("n", DataType::Int)]);
    let mut table = Table::new(schema);
    for i in 0..40i64 {
        let key = Value::from(format!("k{:02}", i * 7 % 12));
        table.push_row(Row(vec![key, Value::Int(i % 5)])).unwrap();
    }
    let store = DataStore::build(&table, &BuildOptions::basic()).unwrap();
    let base = "SELECT k, COUNT(*) c, SUM(n) s FROM t GROUP BY k";
    let plan = |sql: &str| analyze(&parse_query(sql).unwrap()).unwrap();
    let partial = execute_partial(&store, &plan(base), &ExecContext::default()).unwrap().0;
    for presentation in
        ["", " ORDER BY c DESC LIMIT 3", " HAVING s > 6 ORDER BY s", " ORDER BY k DESC LIMIT 0"]
    {
        let sql = format!("{base}{presentation}");
        let analyzed = plan(&sql);
        let mut kept = None;
        let ranked = finalize_kept(&analyzed, partial.clone(), &mut kept).unwrap();
        assert_eq!(ranked, finalize(&analyzed, partial.clone()).unwrap(), "{sql}");
        assert_eq!(kept.as_ref().map(Vec::len), Some(ranked.rows.len()), "{sql}");
        assert_eq!(finalize_kept(&analyzed, partial.clone(), &mut kept).unwrap(), ranked, "{sql}");
        let mut first = Some(vec![0]);
        let row = finalize_kept(&analyzed, partial.clone(), &mut first).unwrap().rows;
        assert_eq!(row[0].0[0], Value::from("k00"), "{sql}: the first group, unranked");
    }
}

/// Every order an aggregate's order keys can give ranks as a full sort
/// does, at every LIMIT from 0 to n + 1, and `execute` (ids) equals
/// `finalize(execute_partial)` (values) at each: `ORDER BY` an `AVG` either
/// way, a float `SUM` over negative values whose groups tie, a `COUNT
/// (DISTINCT …)`, and a `WHERE` that leaves some of the key's ids unseen —
/// with and without a `COUNT` column to say which numbers a masked chunk
/// holds, and MIN/MAX beside them —, so that the fold compacts its table.
/// Each chart runs without a cache and with one, whose second run folds the
/// cached chunk tables.
#[test]
fn ranking_on_order_keys_keeps_a_full_sorts_prefix_at_every_limit() {
    let schema = Schema::of(&[
        ("k", DataType::Str),
        ("f", DataType::Float),
        ("n", DataType::Int),
        ("u", DataType::Str),
    ]);
    // 90 keys over 1 800 rows; few distinct floats, so sums and averages
    // tie, and negative ones.
    let floats = [-2.5, -1.0, -0.25, 0.0, 0.5, 1.25, 3.0];
    let mut rng = Rng::seed_from_u64(0x7a4e_0036);
    let mut table = Table::new(schema);
    for _ in 0..1_800 {
        let row = vec![
            Value::from(format!("k{:02}", rng.range_u64(0, 90))),
            Value::Float(floats[rng.range_usize(0, floats.len())]),
            Value::Int(rng.range_i64_inclusive(0, 9)),
            Value::from(format!("u{}", rng.range_u64(0, 12))),
        ];
        table.push_row(Row(row)).unwrap();
    }
    let options = BuildOptions::optcols(PartitionSpec::new(&["u"], 300));
    let store = DataStore::build(&table, &options).unwrap();
    let ids = store.column("k").unwrap().dict.len() as usize;
    let charts = [
        ("SELECT k, AVG(f) a, COUNT(*) c FROM t GROUP BY k ORDER BY a ASC", false),
        ("SELECT k, AVG(f) a, COUNT(*) c FROM t GROUP BY k ORDER BY a DESC", false),
        ("SELECT k, AVG(n) a FROM t GROUP BY k ORDER BY a DESC", false),
        ("SELECT k, SUM(f) s FROM t GROUP BY k ORDER BY s ASC", false),
        ("SELECT SUM(f) s, k FROM t GROUP BY k ORDER BY s DESC", false),
        ("SELECT k, COUNT(DISTINCT u) d FROM t GROUP BY k ORDER BY d DESC", false),
        ("SELECT k, COUNT(DISTINCT n) d, SUM(f) s FROM t GROUP BY k ORDER BY d ASC", false),
        ("SELECT k, SUM(f) s, MAX(n) m FROM t WHERE k < 'k40' AND n >= 2 GROUP BY k ORDER BY s ASC", true),
        ("SELECT k, COUNT(*) c, AVG(f) a FROM t WHERE k >= 'k30' AND n > 0 GROUP BY k ORDER BY a DESC", true),
        ("SELECT k, MIN(f) m, SUM(n) s FROM t WHERE n = 3 GROUP BY k ORDER BY s DESC", true),
        ("SELECT k, COUNT(DISTINCT u) d FROM t WHERE n < 1 GROUP BY k ORDER BY d ASC", true),
    ];
    for cache in [false, true] {
        let ctx = ExecContext {
            threads: 1,
            result_cache: cache.then(|| Arc::new(ResultCache::new(1 << 20))),
            ..Default::default()
        };
        for (full, unseen) in charts {
            let answer = |analyzed: &AnalyzedQuery| {
                let on_ids = execute(&store, analyzed, &ctx).unwrap().0;
                let partial = execute_partial(&store, analyzed, &ctx).unwrap().0;
                assert_eq!(on_ids, finalize(analyzed, partial).unwrap(), "{full}");
                on_ids.rows
            };
            let analyzed = analyze(&parse_query(full).unwrap()).unwrap();
            let unlimited = answer(&analyzed);
            let n = unlimited.len();
            assert_eq!(n < ids, unseen, "{full}: {n} groups of {ids} ids");
            let mut want = unlimited.clone();
            want.sort();
            want.sort_by(|a, b| {
                (analyzed.order_by.iter())
                    .map(|&(idx, desc)| {
                        let ord = a.0[idx].cmp(&b.0[idx]);
                        if desc {
                            ord.reverse()
                        } else {
                            ord
                        }
                    })
                    .find(|ord| ord.is_ne())
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            assert_eq!(unlimited, want, "{full}");
            for limit in 0..=n + 1 {
                let sql = format!("{full} LIMIT {limit}");
                let limited = analyze(&parse_query(&sql).unwrap()).unwrap();
                assert_eq!(answer(&limited), want[..limit.min(n)], "{sql} (cache: {cache})");
            }
        }
    }
}

/// Skipping soundness — the paper's central correctness claim: a chunk the
/// dictionaries declare inactive contains NO matching row, and a fully
/// active chunk contains ONLY matching rows.
#[test]
fn skipping_is_sound() {
    let mut rng = Rng::seed_from_u64(0xc04e_0004);
    for case in 0..48 {
        let n = rng.range_usize(1, 200);
        let schema =
            Schema::of(&[("k", DataType::Str), ("g", DataType::Str), ("n", DataType::Int)]);
        let mut table = pd_data::Table::new(schema);
        for _ in 0..n {
            table
                .push_row(Row(vec![
                    Value::from(["red", "green", "blue", "grey", "teal"][rng.range_usize(0, 5)]),
                    Value::from(format!("g{:02}", rng.range_u64(0, 12))),
                    Value::Int(rng.range_i64_inclusive(-40, 39)),
                ]))
                .unwrap();
        }
        let sorted = table.sorted_by(&["k", "g"]).unwrap();
        let store =
            DataStore::build(&sorted, &BuildOptions::optdicts(PartitionSpec::new(&["k", "g"], 8)))
                .unwrap();

        let v1 = rng.range_u64(0, 12);
        let n1 = rng.range_i64_inclusive(-40, 39);
        let wheres = [
            format!("g = 'g{v1:02}'"),
            format!("k = 'red' AND g = 'g{v1:02}'"),
            format!("g IN ('g{v1:02}', 'g{:02}')", (v1 + 5) % 12),
            format!("g NOT IN ('g{v1:02}')"),
            format!("n > {n1}"),
            format!("n BETWEEN {n1} AND {}", n1 + 10),
            format!("k != 'red' OR g = 'g{v1:02}'"),
            format!("NOT (k = 'blue' AND n <= {n1})"),
        ];
        let where_sql = &wheres[rng.range_usize(0, wheres.len())];
        let sql = format!("SELECT COUNT(*) FROM t WHERE {where_sql}");
        let parsed = parse_query(&sql).unwrap();
        let filter = parsed.where_clause.clone().unwrap();
        let restriction = Restriction::from_expr(&filter);
        let analysis = SkipAnalysis::prepare(&store, &restriction).unwrap();

        for c in 0..store.chunk_count() {
            let verdict = analysis.activity(c);
            for r in 0..store.chunk_rows(c) {
                let ctx = StoreRow { store: &store, chunk: c, row: r };
                let matches = truthy(&eval_expr(&filter, &ctx).unwrap());
                match verdict {
                    ChunkActivity::Skip => assert!(
                        !matches,
                        "case {case}: skipped chunk {c} row {r} matches `{where_sql}`"
                    ),
                    ChunkActivity::Full => assert!(
                        matches,
                        "case {case}: fully-active chunk {c} row {r} fails `{where_sql}`"
                    ),
                    ChunkActivity::Partial => {}
                }
            }
        }
    }
}

/// KMV sketches: merge order never changes the estimate, and estimates are
/// exact below m.
#[test]
fn sketch_merge_order_irrelevant() {
    let mut rng = Rng::seed_from_u64(0xc04e_0005);
    for _ in 0..64 {
        let mut all: Vec<u64> =
            (0..rng.range_usize(1, 200)).map(|_| rng.range_u64(0, 5_000)).collect();
        all.sort_unstable();
        all.dedup();
        let split = rng.range_usize(0, all.len() + 1);
        let a = KmvSketch::from_parts(64, all[..split].iter().map(fx_hash64));
        let b = KmvSketch::from_parts(64, all[split..].iter().map(fx_hash64));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        if all.len() < 64 {
            assert_eq!(ab.estimate(), all.len() as f64);
        }
    }
}

/// COUNT(DISTINCT …) under a filter: for every group, the sketch
/// `execute_partial` returns is the one the same grouping makes, unfiltered,
/// over a store of only the rows the filter passes (one chunk, no mask),
/// bit for bit — at `m` 1, 3, 64 and 4 096 (saturated and not), over a Str
/// argument under sorted and front-coded dictionaries, an Int argument and a Float
/// one holding -0.0, 0.0 and NaN, by 0, 1 and 2 keys, on unmasked chunks and
/// masked ones, with groups × chunk-dictionary entries (the range of the
/// kernel's packed `g·n + code` pairs) from a few to past 65 536, and on a
/// store after an append.
#[test]
fn distinct_sketches_equal_those_of_a_store_of_the_passing_rows() {
    let schema = Schema::of(&[
        ("k", DataType::Str),
        ("w", DataType::Int),
        ("s", DataType::Str),
        ("i", DataType::Int),
        ("f", DataType::Float),
    ]);
    const ROWS: usize = 4_400;
    // Rows from `ROWS` on hold `s`, `i` and `f` values the base does not.
    let row = |r: usize| {
        let fresh = r / ROWS;
        vec![
            Value::from(["red", "green", "blue", "grey", "teal"][r % 5]),
            Value::Int((r * 7_919 % 613) as i64),
            Value::from(format!("s{:04}", r * 31 % 997 + fresh * 1_000)),
            // Distinct on every row: 4 099 is invertible mod the prime 5 003.
            Value::Int((r * 4_099 % 5_003) as i64),
            Value::Float(match r % 4 {
                0 => [-0.0, 0.0, f64::NAN][r / 4 % 3],
                _ => (r % 1_500) as f64 * 0.5 + fresh as f64 * 1e4,
            }),
        ]
    };
    let columns = |rows: std::ops::Range<usize>| -> Vec<Vec<Value>> {
        (0..5).map(|c| rows.clone().map(|r| row(r).swap_remove(c)).collect()).collect()
    };
    let table = Table::from_columns(schema.clone(), columns(0..ROWS)).unwrap();
    let tail = columns(ROWS..ROWS + 300);
    let slices: Vec<&[Value]> = tail.iter().map(Vec::as_slice).collect();
    let delta = TableDelta::from_columns(schema.clone(), &slices).unwrap();

    let spec = PartitionSpec::new(&["k"], 2_000);
    let sorted = DataStore::build(&table, &BuildOptions::optcols(spec.clone())).unwrap();
    let front_coded = DataStore::build(&table, &BuildOptions::optdicts(spec.clone())).unwrap();
    let mut tailed = DataStore::build(&table, &BuildOptions::optdicts(spec)).unwrap();
    tailed.append_delta(&delta).unwrap();

    // Unmasked, a chunk's groups are its key's chunk-ids: `GROUP BY k` over
    // `s` packs several groups' pairs into at most 65 536 somewhere, and
    // `GROUP BY w` over `s` needs more somewhere.
    let chunks = 0..sorted.chunk_count();
    let entries = |name: &str, c: usize| sorted.column(name).unwrap().chunks[c].dict.len() as usize;
    let cells = |key: &str, c: usize| entries(key, c) * entries("s", c);
    assert!(chunks.clone().any(|c| entries("k", c) > 1 && cells("k", c) <= 1 << 16));
    assert!(chunks.clone().any(|c| cells("w", c) > 1 << 16));

    let ms = [1, 3, 64, 4_096];
    // Per `m`: was some group's sketch below `m`, was some group's full?
    let mut fill = [[false; 2]; 4];
    let names = ["k", "w", "s", "i", "f"];
    for (label, store) in [("sorted", &sorted), ("front coded", &front_coded), ("tailed", &tailed)]
    {
        // Unmasked; masked on every chunk; and two filters whose `k`
        // conjunct skips or fully admits whole chunks.
        for filter in ["", "w < 300", "k != 'red' AND i > 2000", "k != 'red'"] {
            let where_sql =
                if filter.is_empty() { String::new() } else { format!(" WHERE {filter}") };
            let mut passing = Table::new(schema.clone());
            for chunk in 0..store.chunk_count() {
                for row in 0..store.chunk_rows(chunk) {
                    let ctx = StoreRow { store, chunk, row };
                    let parsed = parse_query(&format!("SELECT COUNT(*) FROM t{where_sql}"));
                    if let Some(filter) = &parsed.unwrap().where_clause {
                        if !truthy(&eval_expr(filter, &ctx).unwrap()) {
                            continue;
                        }
                    }
                    let row = names.iter().map(|name| ctx.column(name).unwrap()).collect();
                    passing.push_row(Row(row)).unwrap();
                }
            }
            assert!(!passing.is_empty(), "{filter}: some row passes");
            let passing_store = DataStore::build(&passing, &BuildOptions::basic()).unwrap();

            for keys in ["", "k", "w", "k, w"] {
                let select = if keys.is_empty() { String::new() } else { format!("{keys}, ") };
                let group_by =
                    if keys.is_empty() { String::new() } else { format!(" GROUP BY {keys}") };
                let key_at: Vec<usize> = (keys.split(", ").filter(|k| !k.is_empty()))
                    .map(|k| names.iter().position(|name| *name == k).unwrap())
                    .collect();
                for arg in ["s", "i", "f"] {
                    let grouping = format!("SELECT {select}COUNT(DISTINCT {arg}) FROM t");
                    let sql = format!("{grouping}{where_sql}{group_by}");
                    let analyzed = analyze(&parse_query(&sql).unwrap()).unwrap();
                    let unfiltered = format!("{grouping}{group_by}");
                    let unfiltered = analyze(&parse_query(&unfiltered).unwrap()).unwrap();

                    // Each group's distinct hashes, to see which sketches fill.
                    let at = names.iter().position(|name| *name == arg).unwrap();
                    let mut groups: std::collections::BTreeMap<Vec<Value>, Vec<u64>> =
                        Default::default();
                    for row in passing.iter_rows() {
                        let key = key_at.iter().map(|&k| row.0[k].clone()).collect();
                        groups.entry(key).or_default().push(fx_hash64(&row.0[at]));
                    }
                    for (mi, &m) in ms.iter().enumerate() {
                        let ctx = ExecContext { sketch_m: m, ..Default::default() };
                        let got = execute_partial(store, &analyzed, &ctx).unwrap().0;
                        let want = execute_partial(&passing_store, &unfiltered, &ctx).unwrap().0;
                        assert_eq!(got, want, "{label} m={m}: {sql}");
                        for hashes in groups.values_mut() {
                            hashes.sort_unstable();
                            hashes.dedup();
                            fill[mi][(hashes.len() >= m) as usize] = true;
                        }
                    }
                }
            }
        }
    }
    // A group holds a row, so only its sketch at m = 1 is never short.
    assert_eq!(fill, [[false, true], [true; 2], [true; 2], [true; 2]], "saturated and not");
}

/// Rows enter a store one way, as coded columns: the store a table builds
/// is the store its coded columns build after crossing a wire — every rung
/// of the ladder, every column, the partitioning and the byte count — and
/// stays so through an append.
#[test]
fn a_store_built_from_coded_columns_is_the_store_built_from_the_table() {
    let mut rng = Rng::seed_from_u64(0xc04e_0006);
    let schema = Schema::of(&[("s", DataType::Str), ("i", DataType::Int), ("f", DataType::Float)]);
    let floats = [0.0, -0.0, f64::NAN, 1.5, -2.25, f64::INFINITY];
    let mut batch = |rows: usize, strs: usize| -> Vec<Vec<Value>> {
        vec![
            (0..rows).map(|_| Value::from(format!("k{:02}", rng.range_usize(0, strs)))).collect(),
            (0..rows).map(|_| Value::Int(rng.range_i64_inclusive(-40, 40))).collect(),
            (0..rows).map(|_| Value::Float(floats[rng.range_usize(0, floats.len())])).collect(),
        ]
    };
    let coded = |columns: &[Vec<Value>]| {
        let slices: Vec<&[Value]> = columns.iter().map(Vec::as_slice).collect();
        let delta = TableDelta::from_columns(schema.clone(), &slices).unwrap();
        from_bytes::<TableDelta>(&to_bytes(&delta)).unwrap()
    };
    let base = batch(600, 12);
    // Values the base has and values it has not, in every column.
    let mut tail = batch(90, 20);
    tail[2].push(Value::Float(7.0));
    tail[1].push(Value::Int(1_000));
    tail[0].push(Value::from("zz"));
    let table = Table::from_columns(schema.clone(), base.clone()).unwrap();

    let spec = PartitionSpec::new(&["s", "i"], 64);
    let mut production = BuildOptions::production(&["s", "i"]);
    production.partition.as_mut().unwrap().max_chunk_rows = 50;
    let ladder = [
        ("basic", BuildOptions::basic()),
        ("chunked", BuildOptions::chunked(spec.clone())),
        ("optcols", BuildOptions::optcols(spec.clone())),
        ("optdicts", BuildOptions::optdicts(spec)),
        ("production", production),
    ];
    let assert_same = |a: &DataStore, b: &DataStore, what: &str| {
        assert_eq!(a.n_rows(), b.n_rows(), "{what}");
        assert_eq!(a.partitioning(), b.partitioning(), "{what}: partitioning");
        for name in a.column_names() {
            assert_eq!(a.column(&name).unwrap(), b.column(&name).unwrap(), "{what}: `{name}`");
        }
        assert_eq!(a.total_bytes(), b.total_bytes(), "{what}: bytes");
    };
    for (rung, options) in &ladder {
        let mut built = DataStore::build(&table, options).unwrap();
        let mut from_coded = DataStore::from_coded(coded(&base), options).unwrap();
        assert_same(&built, &from_coded, rung);
        if *rung != "basic" {
            assert!(built.chunk_count() > 4, "{rung}: the partitioner must have had work");
        }
        let delta = coded(&tail);
        built.append_delta(&delta).unwrap();
        from_coded.append_delta(&delta).unwrap();
        assert_eq!(built.n_rows(), 691);
        assert_same(&built, &from_coded, &format!("{rung} after an append"));
    }

    // A forged code never reaches a dictionary lookup.
    let mut forged = coded(&base);
    forged.columns[1].codes[3] = u32::MAX;
    assert!(DataStore::from_coded(forged, &BuildOptions::basic()).is_err());
}

/// An append keeps every dictionary sorted: after a seeded run of appends
/// whose new values fall before, among and after the old ones — in an Int,
/// a Float and a Str column, on sorted and front-coded builds, and in a virtual
/// field — every global dictionary is, bit for bit, the one a build of the
/// same rows makes, and every old chunk still reads the values it held.
#[test]
fn appends_keep_every_dictionary_the_one_a_build_makes() {
    let mut rng = Rng::seed_from_u64(0xc04e_0007);
    let schema = Schema::of(&[("s", DataType::Str), ("i", DataType::Int), ("f", DataType::Float)]);
    // Per row a side: 0 below the base's values, 1 among them, 2 above.
    let batch = |rng: &mut Rng, rows: usize, sides: std::ops::Range<usize>| -> Vec<Vec<Value>> {
        let mut columns = vec![Vec::new(); 3];
        for _ in 0..rows {
            let side = rng.range_usize(sides.start, sides.end);
            let among = rng.range_i64_inclusive(0, 90);
            columns[0].push(Value::from(format!("{}{among:02}", ["a", "m", "z"][side])));
            columns[1].push(Value::Int([-1_000, 0, 1_000][side] + among));
            columns[2].push(Value::Float(match rng.range_usize(0, 8) {
                0 => [-0.0, 0.0, f64::NAN][side],
                _ => [-1e6, 0.0, 1e6][side] + among as f64 * 0.5,
            }));
        }
        columns
    };
    let coded = |columns: &[Vec<Value>]| {
        let slices: Vec<&[Value]> = columns.iter().map(Vec::as_slice).collect();
        TableDelta::from_columns(schema.clone(), &slices).unwrap()
    };
    let base = batch(&mut rng, 700, 1..2);
    let batches: Vec<_> = (0..6)
        .map(|_| {
            let rows = rng.range_usize(1, 120);
            batch(&mut rng, rows, 0..3)
        })
        .collect();
    let virtual_field = &parse_query("SELECT COUNT(*) FROM t GROUP BY i * 2").unwrap().group_by[0];

    let spec = PartitionSpec::new(&["s"], 80);
    for options in [BuildOptions::optcols(spec.clone()), BuildOptions::optdicts(spec)] {
        let table = Table::from_columns(schema.clone(), base.clone()).unwrap();
        let mut store = DataStore::build(&table, &options).unwrap();
        let old_chunks = store.chunk_count();
        store.column_for_expr(virtual_field).unwrap();
        let cells = |store: &DataStore| -> Vec<Value> {
            let mut columns: Vec<_> =
                store.column_names().iter().map(|n| store.column(n).unwrap()).collect();
            columns.push(store.column_for_expr(virtual_field).unwrap());
            let rows = |c| (0..store.chunk_rows(c)).map(move |r| (c, r));
            let at = (0..old_chunks).flat_map(rows);
            at.flat_map(|(c, r)| columns.iter().map(move |col| col.value_at(c, r))).collect()
        };
        let before = cells(&store);
        let (mut all, mut moved) = (base.clone(), 0);
        for columns in &batches {
            let was = ["s", "i", "f"].map(|n| store.column(n).unwrap());
            store.append_delta(&coded(columns)).unwrap();
            let now = ["s", "i", "f"].map(|n| store.column(n).unwrap());
            moved += was.iter().zip(&now).filter(|(was, now)| renumbered(was, now)).count();
            all.iter_mut().zip(columns).for_each(|(all, new)| all.extend(new.iter().cloned()));

            let rebuilt = Table::from_columns(schema.clone(), all.clone()).unwrap();
            let rebuilt = DataStore::build(&rebuilt, &options).unwrap();
            let label = format!("{:?}, {} rows", options.dicts, store.n_rows());
            for name in ["s", "i", "f"] {
                let (got, want) = (store.column(name).unwrap(), rebuilt.column(name).unwrap());
                assert_eq!(got.dict, want.dict, "{label}: `{name}`");
            }
            let (got, want) =
                (store.column_for_expr(virtual_field), rebuilt.column_for_expr(virtual_field));
            assert_eq!(got.unwrap().dict, want.unwrap().dict, "{label}: `i * 2`");
            assert_eq!(store.virtual_names(), ["(i * 2)"], "{label}: the field was extended");
            assert!(cells(&store) == before, "{label}: an old chunk reads another value");
        }
        assert!(moved > 6, "{:?}: appends must move old ids: {moved}", options.dicts);
    }
}
