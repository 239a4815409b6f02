//! Every leaf reads its shard summary off its dictionaries, and every holder
//! of a copy absorbs an append off the delta's dictionaries and codes. The
//! value-taking constructors — `summarize`, `summarize_chunks`,
//! `build_blooms` and `absorb_delta` — make the same summary from rows, one
//! observation per cell. This property holds the two paths equal,
//! `assert_eq!` with blooms bit for bit, over generated tables: string
//! columns under sorted and front-coded dictionaries, integers at both ends of
//! their range, floats with both zeros, NaN payloads and infinities, value
//! counts on both sides of the chunk cap (16) and the shard cap (48), and
//! chunks of 1, 50 and 2 000 rows under the basic and production recipes.
//!
//! 1. `Node::leaf`'s summary equals the row path's over the same rows;
//! 2. after every append of a run, the leaf's own summary and a parent's
//!    copy brought up to date by `absorb_append` both equal the row path's
//!    `absorb_delta`;
//! 3. a store's own skip analysis, over its chunk dictionaries, proves
//!    every Skip its summary proves: a leaf judges its chunks by its
//!    dictionaries alone, and loses no Skip by it;
//! 4. and every Skip a summary proves, and every edge [`may_match`] refutes,
//!    is true of the rows: none of them satisfies the restriction under
//!    [`pd_sql::eval_expr`], the row filter's evaluator — including a
//!    virtual field bounded by its column's extremes.

use pd_common::rng::Rng;
use pd_common::{DataType, Row, Schema, Value};
use pd_core::skip::{ChunkActivity, SkipAnalysis};
use pd_core::{BuildOptions, DataStore, PartitionSpec};
use pd_dist::meta::{chunk_verdicts, may_match, ShardMeta, MAX_CHUNK_DISTINCT, MAX_DISTINCT};
use pd_dist::node::{Node, NodeSpec};
use pd_dist::rpc::AppendRequest;
use pd_encoding::TableDelta;
use pd_sql::{eval_expr, truthy, BinaryOp, Expr, Restriction};

/// Distinct values a column starts with: both sides of each cap.
const DISTINCT: [usize; 7] = [1, 2, 16, 17, 48, 49, 300];

fn schema() -> Schema {
    Schema::of(&[
        ("k", DataType::Str),
        ("s", DataType::Str),
        ("n", DataType::Int),
        ("x", DataType::Float),
    ])
}

/// The recipes a leaf is built by: one chunk, or chunks of at most 1, 50
/// and 2 000 rows with sorted (basic) or front-coded (production) dictionaries.
fn recipes() -> Vec<(String, BuildOptions)> {
    let mut recipes = vec![("basic".to_owned(), BuildOptions::basic())];
    for max in [1, 50, 2_000] {
        let spec = PartitionSpec::new(&["k", "s"], max);
        recipes.push((format!("basic, chunks ≤ {max}"), BuildOptions::chunked(spec.clone())));
        recipes.push((format!("production, chunks ≤ {max}"), BuildOptions::optdicts(spec)));
    }
    recipes
}

/// `len` distinct values of `data_type`, the awkward ones first: the empty
/// string and shared prefixes; the extreme integers, then the first second
/// past four-digit years and the last before them (the ends of `date`'s
/// text order); both zeros, three NaN payloads and both infinities.
fn pool(data_type: DataType, len: usize) -> Vec<Value> {
    let odd_floats = [
        -0.0,
        0.0,
        f64::NAN,
        f64::from_bits(0x7ff8_0000_0000_0001),
        f64::from_bits(0xfff8_0000_0000_0000),
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    (0..len)
        .map(|i| match data_type {
            DataType::Str if i == 0 => Value::from(""),
            DataType::Str => Value::from(format!("{}{i}", ["a", "ab", "b", "é/"][i % 4])),
            DataType::Int => Value::Int(match i {
                0 => i64::MIN,
                1 => i64::MAX,
                2 => 253_402_300_800,
                3 => -62_167_219_201,
                _ => i as i64 * 7 - 500,
            }),
            DataType::Float => {
                Value::Float(odd_floats.get(i).copied().unwrap_or(i as f64 * 0.5 - 40.0))
            }
        })
        .collect()
}

/// `rows` rows as columns, each column drawn from the first `distinct[c]`
/// values of its pool.
fn columns(
    rng: &mut Rng,
    pools: &[Vec<Value>],
    distinct: &[usize],
    rows: usize,
) -> Vec<Vec<Value>> {
    pools
        .iter()
        .zip(distinct)
        .map(|(pool, &distinct)| {
            (0..rows).map(|_| pool[rng.range_usize(0, distinct)].clone()).collect()
        })
        .collect()
}

fn spec() -> NodeSpec {
    NodeSpec { name: "l0p".into(), threads: 1 }
}

fn slices(columns: &[Vec<Value>]) -> Vec<&[Value]> {
    columns.iter().map(Vec::as_slice).collect()
}

fn coded(columns: &[Vec<Value>]) -> TableDelta {
    TableDelta::from_columns(schema(), &slices(columns)).unwrap()
}

/// The row path: one observation per cell, over the chunks the same
/// recipe cuts.
fn row_summary(columns: &[Vec<Value>], build: &BuildOptions) -> ShardMeta {
    let store = DataStore::from_coded(coded(columns), build).unwrap();
    let rows: Vec<Row> = (0..store.n_rows())
        .map(|r| Row(columns.iter().map(|column| column[r].clone()).collect()))
        .collect();
    let mut meta = ShardMeta::summarize(0, &schema(), &rows);
    meta.chunks = store.chunk_count() as u64;
    meta.summarize_chunks(&schema(), &slices(columns), store.partitioning());
    meta.build_blooms(&schema(), &slices(columns));
    meta
}

/// How often the generated summaries stood exactly at, or just past, a cap.
#[derive(Default)]
struct Coverage {
    shard_at_cap: usize,
    shard_past_cap: usize,
    chunk_at_cap: usize,
    chunk_past_cap: usize,
    degraded_by_an_append: usize,
}

impl Coverage {
    fn count(&mut self, meta: &ShardMeta) {
        let len = |column: &pd_dist::meta::ColumnMeta| column.values.as_ref().map(Vec::len);
        for column in &meta.columns {
            self.shard_at_cap += usize::from(len(column) == Some(MAX_DISTINCT));
            self.shard_past_cap += usize::from(len(column).is_none());
        }
        for column in meta.chunk_metas.iter().flat_map(|chunk| &chunk.columns) {
            self.chunk_at_cap += usize::from(len(column) == Some(MAX_CHUNK_DISTINCT));
            self.chunk_past_cap += usize::from(len(column).is_none());
        }
    }
}

#[test]
fn a_summary_read_off_the_dictionaries_is_the_one_made_from_the_rows() {
    let mut rng = Rng::seed_from_u64(0x5a11_d1c7);
    let mut coverage = Coverage::default();
    let types = schema().fields().iter().map(|field| field.data_type).collect::<Vec<_>>();
    for (recipe, build) in recipes() {
        for case in 0..4 {
            // Appends draw from 20 values more than the base holds, so
            // value sets grow, and cross their caps, mid-run.
            let distinct: Vec<usize> = types.iter().map(|_| *rng.pick(&DISTINCT)).collect();
            let pools: Vec<Vec<Value>> =
                types.iter().zip(&distinct).map(|(&t, &d)| pool(t, d + 20)).collect();
            let rows = *rng.pick(&[1, 30, 250, 900]);
            let label = format!("{recipe}, case {case}: {rows} rows, distinct {distinct:?}");
            let mut all = columns(&mut rng, &pools, &distinct, rows);
            let (leaf, mut parents) = Node::leaf(0, coded(&all), &build, spec()).unwrap();
            let mut rows_say = row_summary(&all, &build);
            assert_eq!(parents, rows_say, "{label}: at load");
            coverage.count(&rows_say);

            let grown: Vec<usize> = pools.iter().map(Vec::len).collect();
            for step in 0..5u64 {
                let size = *rng.pick(&[1, 2, 17, 60, 130]);
                let batch = columns(&mut rng, &pools, &grown, size);
                let delta = coded(&batch);
                let append = AppendRequest { deltas: vec![(0, delta)] };
                let [receipt] = leaf.append(&append).unwrap().receipts.try_into().unwrap();
                parents.absorb_append(&append.deltas[0].1, &receipt.new_chunk_rows).unwrap();
                let degraded_before =
                    rows_say.columns.iter().filter(|c| c.values.is_none()).count();
                let chunk_rows: Vec<usize> =
                    receipt.new_chunk_rows.iter().map(|&rows| rows as usize).collect();
                rows_say.absorb_delta(&schema(), &slices(&batch), &chunk_rows);
                let degraded = rows_say.columns.iter().filter(|c| c.values.is_none()).count();
                coverage.degraded_by_an_append += degraded - degraded_before;
                assert_eq!(parents, rows_say, "{label}, append {step}: the parent's copy");
                assert_eq!(leaf.metas(), [rows_say.clone()], "{label}, append {step}: the leaf's");
                for (column, new) in all.iter_mut().zip(batch) {
                    column.extend(new);
                }
            }
            coverage.count(&rows_say);
            // The run is a store's worth of rows in the end: what a rebuild
            // reads off its dictionaries is the row path's too.
            let (_, rebuilt) = Node::leaf(0, coded(&all), &build, spec()).unwrap();
            assert_eq!(rebuilt, row_summary(&all, &build), "{label}: rebuilt");
        }
    }
    // The caps were met from both sides, and crossed by appends.
    assert!(coverage.shard_at_cap > 0 && coverage.shard_past_cap > 0);
    assert!(coverage.chunk_at_cap > 0 && coverage.chunk_past_cap > 0);
    assert!(coverage.degraded_by_an_append > 0);
}

/// The fields a restriction names: the four columns and virtual fields over
/// `n` — a date-like one (hours since the epoch, so a few values share a
/// day and days cross chunks), and `date`, `year` and `month` of `n`
/// itself, whose zone map degrades to its extremes past the caps.
fn fields() -> Vec<Expr> {
    let hours = Expr::binary(BinaryOp::Mul, Expr::column("n"), Expr::literal(Value::Int(3_600)));
    let mut fields: Vec<Expr> = ["k", "s", "n", "x"].into_iter().map(Expr::column).collect();
    fields.push(Expr::call("date", vec![hours]));
    for name in ["date", "year", "month"] {
        fields.push(Expr::call(name, vec![Expr::column("n")]));
    }
    fields
}

/// A literal for `fields()[f]`: mostly of the field's own values — some of
/// them in no row, as the pools hold more than the rows draw —, sometimes
/// one of another column's type. A virtual field's own values are its
/// function of `n`'s.
fn literal(rng: &mut Rng, pools: &[Vec<Value>], f: usize) -> Value {
    let field = &fields()[f];
    let own = if f < 4 { f } else { 2 };
    let pool = &pools[if rng.chance(0.85) { own } else { rng.range_usize(0, pools.len()) }];
    let v = rng.pick(pool).clone();
    match &v {
        Value::Int(_) if f >= 4 && rng.chance(0.8) => {
            eval_expr(field, [("n", v)].as_slice()).unwrap()
        }
        _ => v,
    }
}

/// `r` as the `WHERE` expression it normalizes: what the row filter
/// evaluates.
fn as_expr(r: &Restriction) -> Expr {
    let yes = || Expr::literal(Value::Int(1));
    let join = |children: &[Restriction], op| {
        children.iter().map(as_expr).reduce(|a, b| Expr::binary(op, a, b)).unwrap_or_else(yes)
    };
    let bound =
        |field: &Expr, bound: &Option<(Value, bool)>, [inclusive, strict]: [BinaryOp; 2]| {
            bound.as_ref().map(|(v, closed)| {
                let op = if *closed { inclusive } else { strict };
                Expr::binary(op, field.clone(), Expr::literal(v.clone()))
            })
        };
    match r {
        Restriction::True | Restriction::Opaque => yes(),
        Restriction::And(children) => join(children, BinaryOp::And),
        Restriction::Or(children) => join(children, BinaryOp::Or),
        Restriction::In { field, values, negated } => Expr::InList {
            expr: Box::new(field.clone()),
            list: values.iter().cloned().map(Expr::literal).collect(),
            negated: *negated,
        },
        Restriction::Range { field, min, max } => {
            let low = bound(field, min, [BinaryOp::Ge, BinaryOp::Gt]);
            let high = bound(field, max, [BinaryOp::Le, BinaryOp::Lt]);
            let sides = low.into_iter().chain(high);
            sides.reduce(|a, b| Expr::binary(BinaryOp::And, a, b)).unwrap_or_else(yes)
        }
    }
}

/// Does the row filter keep, or fail on, any of `rows` (original row
/// numbers into `columns`) under `r`?
fn keeps_any(r: &Restriction, columns: &[Vec<Value>], rows: &[u32]) -> bool {
    let filter = as_expr(r);
    let names = ["k", "s", "n", "x"];
    rows.iter().any(|&row| {
        let cells: Vec<(&str, Value)> =
            names.iter().zip(columns).map(|(&name, c)| (name, c[row as usize].clone())).collect();
        eval_expr(&filter, cells.as_slice()).ok().is_none_or(|v| truthy(&v))
    })
}

/// The proofs of `meta` that the rows of `store` (`columns`, in arrival
/// order) contradict: a chunk it skips, or the shard it refutes, that holds
/// a row `r` keeps.
fn proofs_the_rows_contradict(
    store: &DataStore,
    meta: &ShardMeta,
    columns: &[Vec<Value>],
    restrictions: &[Restriction],
) -> Vec<String> {
    let part = store.partitioning();
    let mut wrong = Vec::new();
    for r in restrictions {
        if !may_match(r, meta) && keeps_any(r, columns, &part.row_order) {
            wrong.push(format!("{r:?}: the shard is refuted"));
        }
        for (c, verdict) in chunk_verdicts(r, meta).into_iter().enumerate() {
            let rows = &part.row_order[part.chunk_range(c)];
            if verdict == ChunkActivity::Skip && keeps_any(r, columns, rows) {
                wrong.push(format!("{r:?}: chunk {c} is skipped"));
            }
        }
    }
    wrong
}

/// A random restriction of `IN` / `NOT IN` / range leaves over `fields()`,
/// under `AND` / `OR`, `depth` levels deep at most.
fn restriction(rng: &mut Rng, pools: &[Vec<Value>], depth: usize) -> Restriction {
    if depth > 0 && rng.chance(0.35) {
        let children = (0..rng.range_usize(2, 4)).map(|_| restriction(rng, pools, depth - 1));
        let children = children.collect();
        return if rng.chance(0.5) {
            Restriction::And(children)
        } else {
            Restriction::Or(children)
        };
    }
    let f = rng.range_usize(0, fields().len());
    let field = fields().swap_remove(f);
    if rng.chance(0.5) {
        let values = (0..rng.range_usize(1, 4)).map(|_| literal(rng, pools, f)).collect();
        return Restriction::In { field, values, negated: rng.chance(0.4) };
    }
    let mut bound = || rng.chance(0.75).then(|| (literal(rng, pools, f), rng.chance(0.5)));
    let (min, max) = (bound(), bound());
    Restriction::Range { field, min, max }
}

/// Does `store` resolve every literal of `r` exactly
/// (`GlobalDict::resolves_exactly`)? One that does not — a float no integer
/// stands for — is "maybe" to the store by design.
fn resolves_exactly(store: &DataStore, r: &Restriction) -> bool {
    let exact = |field: &Expr, values: Vec<&Value>| {
        let column = store.column_for_expr(field).unwrap();
        values.into_iter().all(|v| column.dict.resolves_exactly(v))
    };
    match r {
        Restriction::And(children) | Restriction::Or(children) => {
            children.iter().all(|child| resolves_exactly(store, child))
        }
        Restriction::In { field, values, .. } => exact(field, values.iter().collect()),
        Restriction::Range { field, min, max } => {
            exact(field, min.iter().chain(max).map(|(v, _)| v).collect())
        }
        Restriction::True | Restriction::Opaque => true,
    }
}

/// The `(chunk, restriction)` pairs where `meta` proves a Skip that
/// `store`'s own analysis does not, and how many Skips `meta` proved.
fn skips_only_the_summary_proves(
    store: &DataStore,
    meta: &ShardMeta,
    restrictions: &[Restriction],
) -> (Vec<(usize, String)>, usize) {
    assert_eq!(meta.chunk_metas.len(), store.chunk_count());
    let (mut missed, mut proved) = (Vec::new(), 0);
    for r in restrictions.iter().filter(|r| resolves_exactly(store, r)) {
        let local = SkipAnalysis::prepare(store, r).unwrap().all(store.chunk_count());
        for (c, summary) in chunk_verdicts(r, meta).into_iter().enumerate() {
            proved += usize::from(summary == ChunkActivity::Skip);
            if summary == ChunkActivity::Skip && local[c] != ChunkActivity::Skip {
                missed.push((c, format!("{r:?}: {:?}", local[c])));
            }
        }
    }
    (missed, proved)
}

#[test]
fn a_store_proves_every_skip_its_summary_proves() {
    let mut rng = Rng::seed_from_u64(0x5c1f_0001);
    let types = schema().fields().iter().map(|field| field.data_type).collect::<Vec<_>>();
    let mut proved = 0;
    for (recipe, build) in recipes() {
        for case in 0..3 {
            let distinct: Vec<usize> = types.iter().map(|_| *rng.pick(&DISTINCT)).collect();
            let pools: Vec<Vec<Value>> =
                types.iter().zip(&distinct).map(|(&t, &d)| pool(t, d + 20)).collect();
            let rows = *rng.pick(&[1, 30, 250, 900]);
            let label = format!("{recipe}, case {case}: {rows} rows, distinct {distinct:?}");
            let mut all = columns(&mut rng, &pools, &distinct, rows);
            let mut store = DataStore::from_coded(coded(&all), &build).unwrap();
            let (leaf, _) = Node::leaf(0, coded(&all), &build, spec()).unwrap();
            let grown: Vec<usize> = pools.iter().map(Vec::len).collect();
            for step in 0..4u64 {
                if step > 0 {
                    let size = *rng.pick(&[1, 17, 60, 130]);
                    let batch = columns(&mut rng, &pools, &grown, size);
                    store.append_delta(&coded(&batch)).unwrap();
                    let append = AppendRequest { deltas: vec![(0, coded(&batch))] };
                    leaf.append(&append).unwrap();
                    for (column, new) in all.iter_mut().zip(batch) {
                        column.extend(new);
                    }
                }
                let [meta] = leaf.metas().try_into().unwrap();
                let restrictions: Vec<Restriction> =
                    (0..60).map(|_| restriction(&mut rng, &pools, 2)).collect();
                let (missed, skips) = skips_only_the_summary_proves(&store, &meta, &restrictions);
                assert!(missed.is_empty(), "{label}, append {step}: {missed:#?}");
                let wrong = proofs_the_rows_contradict(&store, &meta, &all, &restrictions);
                assert!(wrong.is_empty(), "{label}, append {step}: {wrong:#?}");
                proved += skips;
            }
        }
    }
    assert!(proved > 0, "the summaries proved no Skip to check");
}
