//! Randomized properties on the store's structural invariants:
//! partitioning is a permutation into value-range boxes, skipping is sound
//! (a skipped chunk contains no matching row), and aggregation states merge
//! associatively. Driven by a seeded PRNG so failures reproduce exactly.

use pd_common::rng::Rng;
use pd_common::{DataType, FloatSum, Row, Schema, Value};
use pd_core::exec::AggState;
use pd_core::partition::partition;
use pd_core::skip::{ChunkActivity, SkipAnalysis};
use pd_core::{BuildOptions, DataStore, KmvSketch, PartitionSpec};
use pd_sql::{eval_expr, parse_query, truthy, Restriction, RowContext};

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

/// AggState merging is associative and commutative for the algebraic
/// aggregates (the property the §4 computation tree — and the parallel
/// chunk scheduler's merge — relies on).
#[test]
fn agg_states_merge_associatively() {
    let mut rng = Rng::seed_from_u64(0xc04e_0003);
    for _ in 0..64 {
        let n = rng.range_usize(3, 60);
        let values: Vec<i64> = (0..n).map(|_| rng.range_i64_inclusive(-100, 100)).collect();
        let states: Vec<Vec<AggState>> = values
            .iter()
            .map(|&v| {
                vec![
                    AggState::Count(1),
                    AggState::SumInt(v),
                    AggState::SumFloat(Box::new(FloatSum::from(v as f64 * 0.5))),
                    AggState::Min(Some(Value::Int(v))),
                    AggState::Max(Some(Value::Int(v))),
                    AggState::Avg { sum: Box::new(FloatSum::from(v as f64)), count: 1 },
                ]
            })
            .collect();

        // Left fold vs two-level tree fold.
        let merge_all = |chunks: &[Vec<AggState>]| -> Vec<AggState> {
            let mut acc = chunks[0].clone();
            for s in &chunks[1..] {
                for (a, b) in acc.iter_mut().zip(s) {
                    a.merge(b).unwrap();
                }
            }
            acc
        };
        let flat = merge_all(&states);
        let mid = (values.len() / 2).max(1);
        let left = merge_all(&states[..mid]);
        let right = merge_all(&states[mid..]);
        let mut tree = left;
        for (a, b) in tree.iter_mut().zip(&right) {
            a.merge(b).unwrap();
        }
        for (a, b) in flat.iter().zip(&tree) {
            match (a.finalize(), b.finalize()) {
                (Value::Float(x), Value::Float(y)) => {
                    assert!((x - y).abs() < 1e-9 * (1.0 + x.abs()));
                }
                (x, y) => assert_eq!(x, y),
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
        let store =
            DataStore::build(&table, &BuildOptions::reordered(PartitionSpec::new(&["k", "g"], 8)))
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
        let mut a = KmvSketch::new(64);
        let mut b = KmvSketch::new(64);
        for &v in &all[..split] {
            a.offer(pd_common::fx_hash64(&v));
        }
        for &v in &all[split..] {
            b.offer(pd_common::fx_hash64(&v));
        }
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
