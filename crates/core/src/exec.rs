//! Query execution (§2.4), morsel-parallel across chunks.
//!
//! Per active chunk, group-by evaluation "boils down to executing
//! `counts[elements[row]]++`" over a dense array sized by the chunk
//! dictionary, after which per-chunk results are folded into one group
//! table keyed by **global-ids**. The per-chunk loops live in
//! `crate::kernels` (crate-private; its [`crate::KernelConfig`] knobs are
//! re-exported) and operate on raw dictionary codes; this module owns
//! planning, the chunk schedule, the fold and the ranking.
//!
//! The group table leaves the id domain as late as its consumer allows
//! (§2.4 groups on ids; the trie dictionary of §3 is affordable because
//! id→value is needed only for the rows a query returns). [`execute`]
//! ranks it as it is — ids of a sorted dictionary order like their values
//! — and looks up the dictionaries for the rows `HAVING` / `ORDER BY` /
//! `LIMIT` let through. [`execute_partial`] serves the distributed layer
//! (§4), whose shards share no dictionary and so must merge by value: it
//! translates each key column once, by one ordered dictionary walk
//! ([`pd_encoding::GlobalDict::values_of`]), into a value-keyed
//! [`PartialResult`]; [`finalize`] ranks the merged partial at the root.
//! Both rankings are one routine, generic over what a key cell is, so
//! `execute(q) == finalize(q, execute_partial(q))` row for row.
//!
//! Because every chunk is immutable and per-chunk group states are
//! mergeable (the same property §4 uses to aggregate across machines),
//! active chunks execute **in parallel**: the internal plan probes the
//! chunk-result cache, builds a work queue of the chunk tasks that missed
//! it, and a [`crate::scheduler`] worker pool scans them on
//! [`ExecContext::threads`] threads — when the rows to scan are enough to
//! repay waking a worker; a smaller scan stays on the calling thread.
//! Per-chunk results are folded sequentially in chunk order either way, so
//! parallel execution returns bit-identical results to sequential
//! execution — float summation order, group contents and chunk-skipping
//! statistics do not depend on the thread count.
//!
//! Row filtering stays in the **code domain**. The `WHERE` tree is compiled
//! once per query: every leaf the restriction normalizer turns into `IN` or
//! a range over one field (a column or a materialized virtual field) is
//! resolved to global-ids by the resolver the skip pass uses
//! ([`crate::skip`]), so a verdict and a mask cannot disagree about a
//! leaf. Per `Partial` chunk those ids become chunk-ids through the chunk
//! dictionary and the packed [`pd_common::BitVec`] mask is integer
//! compares over the row codes, 64 rows per word — no value is
//! materialized. Only leaves the resolver declines (a range on a tailed or
//! trie dictionary, calls such as `contains(..)`) tabulate over the chunk
//! dictionary's values (one evaluation per distinct value), and only
//! genuinely multi-column subtrees evaluate per row. A conjunct that holds
//! for a whole chunk drops out of that chunk's `AND`; an all-false mask
//! yields the empty payload without running a kernel; an all-true mask
//! runs the kernels unmasked.
//!
//! [`execute_partial`] returns mergeable group states — the building block
//! the distributed layer (§4) combines up its computation tree —
//! and [`finalize`] applies `HAVING` / `ORDER BY` / `LIMIT` at the root,
//! building rows only for the groups that survive them.

use crate::cache::{CachedChunk, ChunkGroups, ResultCache};
use crate::column::StoredColumn;
use crate::count_distinct::KmvSketch;
use crate::datastore::DataStore;
use crate::kernels::{
    self, ChunkAcc, FilterPlan, GroupShape, KernelConfig, Mask, DENSE_GROUP_LIMIT,
};
use crate::scheduler;
use crate::skip::{ChunkActivity, SkipAnalysis};
use crate::stats::ScanStats;
use pd_common::{BitVec, DataType, Error, FloatSum, FxHashMap, HeapSize, Result, Row, Value};
use pd_sql::{
    analyze, eval_expr, parse_query, truthy, AggFunc, AnalyzedQuery, Expr, OutputCol, RowContext,
};
use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

/// Execution knobs.
#[derive(Clone, Default)]
pub struct ExecContext {
    /// Sketch size for approximate count distinct (§5); 0 uses the default.
    pub sketch_m: usize,
    /// Worker threads for the morsel-driven chunk scan; 0 (the default)
    /// uses the machine's available parallelism, 1 forces sequential
    /// execution. Results are identical for every setting.
    pub threads: usize,
    /// Chunk-result cache for fully active chunks (§6).
    pub result_cache: Option<Arc<ResultCache>>,
    /// Compressed-domain kernel switches (both fast paths default on; every
    /// setting is bit-identical, see [`KernelConfig`]).
    pub kernels: KernelConfig,
}

impl ExecContext {
    /// Resolve the sketch-size knob (0 = the 4096 default).
    pub fn sketch_m(&self) -> usize {
        if self.sketch_m == 0 {
            4096
        } else {
            self.sketch_m
        }
    }

    /// Resolve the `threads` knob (0 = the `EXEC_THREADS` environment
    /// variable when set, available parallelism otherwise).
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            scheduler::default_threads()
        } else {
            self.threads
        }
    }
}

/// A scan is fanned out across the worker pool when at least this many
/// rows miss the chunk-result cache. At the ~10 ns a row·query costs, this
/// many rows are a third of a millisecond, and halving that repays a
/// wake-up (30–300 µs on a small VM, depending on the minute); a few
/// thousand rows do not, and whether they nearly do changes from run to
/// run — which is what a benchmark then measures instead of the engine.
const PARALLEL_SCAN_MIN_ROWS: usize = 32_768;

/// A finished query result.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    pub columns: Vec<String>,
    pub rows: Vec<Row>,
}

impl QueryResult {
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// Render as an aligned text table (for examples and the experiment
    /// binaries).
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.values().iter().map(|v| v.render().into_owned()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: Vec<String>, widths: &[usize]| -> String {
            cells.iter().zip(widths).map(|(c, w)| format!("{c:<w$}")).collect::<Vec<_>>().join("  ")
        };
        out.push_str(&fmt_row(self.columns.clone(), &widths));
        out.push('\n');
        out.push_str(
            &"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)),
        );
        out.push('\n');
        for row in rendered {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// A mergeable aggregation state.
///
/// Every variant merges associatively and commutatively — the property the
/// §4 computation tree, the parallel chunk fold and the shard fan-out all
/// rely on. Float sums use [`FloatSum`] (an exact superaccumulator), so
/// even `SUM`/`AVG` over floats are bit-identical regardless of how rows
/// were grouped into chunks, threads or shards.
#[derive(Debug, Clone, PartialEq)]
pub enum AggState {
    Count(u64),
    SumInt(i64),
    /// Boxed: the superaccumulator is ~280 bytes and an enum is sized by
    /// its largest variant — boxing keeps `Count`-only group states small.
    SumFloat(Box<FloatSum>),
    Min(Option<Value>),
    Max(Option<Value>),
    Avg {
        sum: Box<FloatSum>,
        count: u64,
    },
    Distinct(KmvSketch),
}

impl AggState {
    /// Merge `other` into `self` (states must have equal variants).
    pub fn merge(&mut self, other: &AggState) -> Result<()> {
        match (self, other) {
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (AggState::SumInt(a), AggState::SumInt(b)) => *a = a.wrapping_add(*b),
            (AggState::SumFloat(a), AggState::SumFloat(b)) => a.merge(b),
            (AggState::Min(a), AggState::Min(b)) => {
                if let Some(bv) = b {
                    match a {
                        Some(av) if &*av <= bv => {}
                        _ => *a = Some(bv.clone()),
                    }
                }
            }
            (AggState::Max(a), AggState::Max(b)) => {
                if let Some(bv) = b {
                    match a {
                        Some(av) if &*av >= bv => {}
                        _ => *a = Some(bv.clone()),
                    }
                }
            }
            (AggState::Avg { sum: s1, count: c1 }, AggState::Avg { sum: s2, count: c2 }) => {
                s1.merge(s2);
                *c1 += c2;
            }
            (AggState::Distinct(a), AggState::Distinct(b)) => a.merge(b),
            (a, b) => {
                return Err(Error::Internal(format!(
                    "cannot merge aggregation states {a:?} and {b:?}"
                )))
            }
        }
        Ok(())
    }

    /// Approximate in-memory footprint, for cost-aware cache admission.
    pub(crate) fn approx_bytes(&self) -> usize {
        let inline = std::mem::size_of::<AggState>();
        inline
            + match self {
                AggState::SumFloat(_) => std::mem::size_of::<FloatSum>(),
                AggState::Avg { .. } => std::mem::size_of::<FloatSum>(),
                AggState::Min(v) | AggState::Max(v) => v.as_ref().map_or(0, |v| v.heap_bytes()),
                // BTreeSet<u64> nodes: ~3 words per retained hash.
                AggState::Distinct(s) => s.len() * 24,
                _ => 0,
            }
    }

    /// Produce the final output value.
    pub fn finalize(&self) -> Value {
        match self {
            AggState::Count(n) => Value::Int(*n as i64),
            AggState::SumInt(s) => Value::Int(*s),
            AggState::SumFloat(s) => Value::Float(s.value()),
            AggState::Min(v) | AggState::Max(v) => v.clone().unwrap_or(Value::Null),
            AggState::Avg { sum, count } => {
                if *count == 0 {
                    Value::Null
                } else {
                    Value::Float(sum.value() / *count as f64)
                }
            }
            AggState::Distinct(sketch) => Value::Int(sketch.estimate().round() as i64),
        }
    }
}

/// Mergeable per-group states: the §4 unit of tree aggregation.
///
/// Equality is map equality over bit-exact states ([`Value`] compares
/// floats with `total_cmp`, so NaN payloads and signed zeros distinguish)
/// — the relation the wire round-trip property (`decode(encode(x)) == x`)
/// is asserted under.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PartialResult {
    pub groups: FxHashMap<Box<[Value]>, Vec<AggState>>,
}

impl PartialResult {
    /// Merge another partial (same query shape) into this one.
    pub fn merge(&mut self, other: PartialResult) -> Result<()> {
        for (key, states) in other.groups {
            match self.groups.entry(key) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(states);
                }
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    for (a, b) in e.get_mut().iter_mut().zip(&states) {
                        a.merge(b)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Approximate in-memory footprint of the group map, for cost-aware
    /// cache admission (bytes × recompute ns).
    pub fn approx_bytes(&self) -> usize {
        let per_entry = std::mem::size_of::<(Box<[Value]>, Vec<AggState>)>() + 16;
        self.groups
            .iter()
            .map(|(k, states)| {
                per_entry
                    + k.heap_bytes()
                    + states.iter().map(AggState::approx_bytes).sum::<usize>()
            })
            .sum()
    }

    /// Merge another partial by reference, leaving `other` reusable — the
    /// shard-level result cache merges its cached partials this way.
    pub fn merge_ref(&mut self, other: &PartialResult) -> Result<()> {
        for (key, states) in &other.groups {
            match self.groups.entry(key.clone()) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(states.clone());
                }
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    for (a, b) in e.get_mut().iter_mut().zip(states) {
                        a.merge(b)?;
                    }
                }
            }
        }
        Ok(())
    }
}

/// Parse, analyze and execute a SQL string against a store.
pub fn query(store: &DataStore, sql: &str) -> Result<(QueryResult, ScanStats)> {
    let parsed = parse_query(sql)?;
    let analyzed = analyze(&parsed)?;
    execute(store, &analyzed, &ExecContext::default())
}

/// Execute an analyzed query.
///
/// The group table stays in the global-id domain until `HAVING` /
/// `ORDER BY` / `LIMIT` have chosen the surviving rows; only those are
/// looked up in the key dictionaries. Row for row (floats by bits) this is
/// `finalize(analyzed, execute_partial(..))`.
pub fn execute(
    store: &DataStore,
    analyzed: &AnalyzedQuery,
    ctx: &ExecContext,
) -> Result<(QueryResult, ScanStats)> {
    let started = Instant::now();
    let plan = Plan::prepare_seeded(store, analyzed, ctx, None)?;
    let (groups, mut stats) = plan.run(store, ctx)?;
    let result = rank(analyzed, &IdKeys(&plan.key_cols), groups)?;
    stats.elapsed = started.elapsed();
    Ok((result, stats))
}

/// Execute the scan + group phases, returning mergeable states.
pub fn execute_partial(
    store: &DataStore,
    analyzed: &AnalyzedQuery,
    ctx: &ExecContext,
) -> Result<(PartialResult, ScanStats)> {
    execute_partial_seeded(store, analyzed, ctx, None)
}

/// [`execute_partial`], seeding the chunk-skip analysis with verdicts a
/// metadata layer already proved (a tree parent's zone maps / Bloom
/// filters): seeded `Skip` chunks are skipped without re-deriving the
/// proof from chunk dictionaries. Seeds must be sound for exactly
/// `analyzed.restriction`; the result is bit-identical either way.
pub fn execute_partial_seeded(
    store: &DataStore,
    analyzed: &AnalyzedQuery,
    ctx: &ExecContext,
    seeds: Option<&[ChunkActivity]>,
) -> Result<(PartialResult, ScanStats)> {
    let plan = Plan::prepare_seeded(store, analyzed, ctx, seeds)?;
    let (groups, stats) = plan.run(store, ctx)?;
    Ok((plan.value_keyed(groups), stats))
}

/// Apply HAVING / ORDER BY / LIMIT and project the output columns.
pub fn finalize(analyzed: &AnalyzedQuery, partial: PartialResult) -> Result<QueryResult> {
    rank(analyzed, &ValueKeys, partial.groups.into_iter().collect())
}

/// A group table as [`rank`] takes it: key cells `C` are global-ids
/// ([`execute`]) or values ([`finalize`]).
type Groups<C> = Vec<(Box<[C]>, Vec<AggState>)>;

/// How [`rank`] reads a group table's key cells of type `C`.
trait KeyCells<C> {
    /// Does `C`'s own order on key column `i`'s cells equal [`Value::cmp`]
    /// on the values they stand for?
    fn value_ordered(&self, i: usize) -> bool;

    /// Key column `i`'s `cells` as values, one per cell, in their order.
    fn values<'a>(&self, i: usize, cells: impl Iterator<Item = &'a C>) -> Vec<Value>
    where
        C: 'a;
}

/// Keys that are values already (a merged [`PartialResult`]).
struct ValueKeys;

impl KeyCells<Value> for ValueKeys {
    fn value_ordered(&self, _: usize) -> bool {
        true
    }

    fn values<'a>(&self, _: usize, cells: impl Iterator<Item = &'a Value>) -> Vec<Value> {
        cells.cloned().collect()
    }
}

/// Keys that are global-ids into the key columns' dictionaries. Ids order
/// like their values while a dictionary is sorted; one an append has
/// tailed is compared by value.
struct IdKeys<'a>(&'a [Arc<StoredColumn>]);

impl KeyCells<u32> for IdKeys<'_> {
    fn value_ordered(&self, i: usize) -> bool {
        self.0[i].dict.is_value_ordered()
    }

    fn values<'a>(&self, i: usize, cells: impl Iterator<Item = &'a u32>) -> Vec<Value> {
        ids_to_values(&self.0[i].dict, &cells.copied().collect::<Vec<u32>>())
    }
}

/// The values of `ids` (any order, repeats allowed), one per id: one
/// ordered dictionary walk over the distinct ids
/// ([`pd_encoding::GlobalDict::values_of`]) instead of a lookup per id —
/// for a trie, the difference between one DFS and a root-to-leaf walk per
/// group.
fn ids_to_values(dict: &pd_encoding::GlobalDict, ids: &[u32]) -> Vec<Value> {
    let mut by_id: Vec<u32> = (0..ids.len() as u32).collect();
    by_id.sort_unstable_by_key(|&at| ids[at as usize]);
    let mut distinct: Vec<u32> = by_id.iter().map(|&at| ids[at as usize]).collect();
    distinct.dedup();
    let mut looked_up = dict.values_of(&distinct).into_iter();
    let mut values = vec![Value::Null; ids.len()];
    let mut previous: Option<usize> = None;
    for &at in &by_id {
        let at = at as usize;
        values[at] = match previous {
            Some(p) if ids[p] == ids[at] => values[p].clone(),
            _ => looked_up.next().expect("one value per distinct id"),
        };
        previous = Some(at);
    }
    values
}

/// HAVING / ORDER BY / LIMIT over a group table, whatever domain its key
/// cells are in: the one ranking routine behind [`execute`] (global-ids)
/// and [`finalize`] (values — the root of a tree, whose shards do not
/// share dictionaries).
///
/// Groups are ranked *by reference*. Only the aggregate cells HAVING or
/// ORDER BY read are finalized for every group; key cells are compared as
/// stored wherever that is the value order ([`KeyCells::value_ordered`])
/// and become values for every group only if HAVING names the key or the
/// stored order is not the values'. A [`Row`] is built — keys looked up,
/// remaining aggregates finalized — for the groups that survive LIMIT, so
/// a top-10 over thousands of groups names ten of them.
///
/// The order is total: the ORDER BY keys, ties broken by the whole row,
/// cell by cell — the output never depends on group-table order, and it is
/// the same order in both domains.
fn rank<C: Ord>(
    analyzed: &AnalyzedQuery,
    domain: &impl KeyCells<C>,
    groups: Groups<C>,
) -> Result<QueryResult> {
    let columns = analyzed.output_names();
    let source = |idx: usize| analyzed.output[idx].1;

    // HAVING names output columns; resolve them to positions once.
    let mut having_refs: Vec<(String, usize)> = Vec::new();
    if let Some(having) = &analyzed.having {
        let mut names = Vec::new();
        having.referenced_columns(&mut names);
        for name in names {
            let idx = columns
                .iter()
                .position(|c| *c == name)
                .ok_or_else(|| Error::Schema(format!("unknown output column `{name}`")))?;
            having_refs.push((name, idx));
        }
    }
    let passes = |cell: &dyn Fn(usize) -> Value| -> Result<bool> {
        match &analyzed.having {
            Some(having) => {
                Ok(truthy(&eval_expr(having, &OutputRow { refs: &having_refs, cell })?))
            }
            None => Ok(true),
        }
    };

    if groups.is_empty() && analyzed.keys.is_empty() {
        // Global aggregation over zero rows still yields one row.
        let row: Vec<Value> = (0..columns.len())
            .map(|idx| match source(idx) {
                OutputCol::Key(_) => Value::Null,
                OutputCol::Agg(i) => empty_value(analyzed.aggs[i].func),
            })
            .collect();
        let keep = passes(&|idx| row[idx].clone())? && analyzed.limit != Some(0);
        return Ok(QueryResult { columns, rows: if keep { vec![Row(row)] } else { Vec::new() } });
    }

    // Columns the ranking reads for every group, finalized / looked up
    // once: the aggregates HAVING or ORDER BY name; the keys HAVING names
    // or whose cells do not order like their values.
    let having_reads = |src: OutputCol| having_refs.iter().any(|&(_, idx)| source(idx) == src);
    let agg_cells: Vec<Option<Vec<Value>>> = (0..analyzed.aggs.len())
        .map(|i| {
            let src = OutputCol::Agg(i);
            let ordered_by = analyzed.order_by.iter().any(|&(idx, _)| source(idx) == src);
            (ordered_by || having_reads(src))
                .then(|| groups.iter().map(|(_, states)| states[i].finalize()).collect())
        })
        .collect();
    let key_values: Vec<Option<Vec<Value>>> = (0..analyzed.keys.len())
        .map(|i| {
            (having_reads(OutputCol::Key(i)) || !domain.value_ordered(i))
                .then(|| domain.values(i, groups.iter().map(|(key, _)| &key[i])))
        })
        .collect();
    let cell = |g: usize, idx: usize| -> Value {
        match source(idx) {
            OutputCol::Key(i) => {
                key_values[i].as_ref().expect("HAVING's key columns are values")[g].clone()
            }
            OutputCol::Agg(i) => {
                agg_cells[i].as_ref().expect("HAVING's aggregates are finalized")[g].clone()
            }
        }
    };
    let cmp_cell = |a: usize, b: usize, idx: usize| match source(idx) {
        OutputCol::Key(i) => match &key_values[i] {
            Some(values) => values[a].cmp(&values[b]),
            None => groups[a].0[i].cmp(&groups[b].0[i]),
        },
        OutputCol::Agg(i) => match &agg_cells[i] {
            Some(cells) => cells[a].cmp(&cells[b]),
            None => groups[a].1[i].finalize().cmp(&groups[b].1[i].finalize()),
        },
    };

    let mut kept: Vec<usize> = Vec::with_capacity(groups.len());
    for g in 0..groups.len() {
        if passes(&|idx| cell(g, idx))? {
            kept.push(g);
        }
    }

    // With a LIMIT, first select the groups that survive it and sort only
    // those.
    let order = |a: &usize, b: &usize| {
        for &(idx, desc) in &analyzed.order_by {
            let ord = cmp_cell(*a, *b, idx);
            let ord = if desc { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        (0..columns.len())
            .map(|idx| cmp_cell(*a, *b, idx))
            .find(|ord| ord.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    };
    if let Some(limit) = analyzed.limit {
        if limit < kept.len() {
            if limit > 0 {
                kept.select_nth_unstable_by(limit - 1, order);
            }
            kept.truncate(limit);
        }
    }
    // Groups that compare equal are equal in every output column: unstable
    // is exact.
    kept.sort_unstable_by(order);

    // Only now do the survivors become rows, output column by column.
    let cells: Vec<Vec<Value>> = (0..columns.len())
        .map(|idx| match source(idx) {
            OutputCol::Key(i) => match &key_values[i] {
                Some(values) => kept.iter().map(|&g| values[g].clone()).collect(),
                None => domain.values(i, kept.iter().map(|&g| &groups[g].0[i])),
            },
            OutputCol::Agg(i) => match &agg_cells[i] {
                Some(cells) => kept.iter().map(|&g| cells[g].clone()).collect(),
                None => kept.iter().map(|&g| groups[g].1[i].finalize()).collect(),
            },
        })
        .collect();
    let rows = transpose(cells, kept.len()).map(Row).collect();
    Ok(QueryResult { columns, rows })
}

/// The `rows` rows of a table given column by column, cells moved out.
fn transpose(columns: Vec<Vec<Value>>, rows: usize) -> impl Iterator<Item = Vec<Value>> {
    let mut columns: Vec<_> = columns.into_iter().map(Vec::into_iter).collect();
    (0..rows).map(move |_| {
        columns.iter_mut().map(|cells| cells.next().expect("one cell per row")).collect()
    })
}

fn empty_value(func: AggFunc) -> Value {
    match func {
        AggFunc::Count => Value::Int(0),
        _ => Value::Null,
    }
}

/// HAVING's view of one output row: the columns it names, resolved to
/// output positions once per query, read through `cell`.
struct OutputRow<'a> {
    refs: &'a [(String, usize)],
    cell: &'a dyn Fn(usize) -> Value,
}

impl RowContext for OutputRow<'_> {
    fn column(&self, name: &str) -> Result<Value> {
        let (_, idx) = self
            .refs
            .iter()
            .find(|(n, _)| n == name)
            .expect("every column HAVING names was resolved before the first row");
        Ok((self.cell)(*idx))
    }
}

/// What an aggregate needs per chunk.
pub(crate) enum AggKind {
    Count,
    SumInt,
    SumFloat,
    MinMax { is_min: bool },
    Avg,
    Distinct { m: usize },
}

pub(crate) struct AggPlan {
    pub(crate) kind: AggKind,
    /// Argument column (None for COUNT(*) / COUNT(x), which only counts).
    pub(crate) col: Option<Arc<StoredColumn>>,
}

/// The prepared execution plan.
struct Plan {
    key_cols: Vec<Arc<StoredColumn>>,
    aggs: Vec<AggPlan>,
    filter: Option<FilterPlan>,
    skip: SkipAnalysis,
    /// Result-cache signature (table + keys + aggs + sketch size).
    signature: String,
    /// How many distinct columns a scan touches (for cell accounting).
    touched: usize,
}

/// One scanned chunk's contribution, produced by a worker.
///
/// Workers never mutate shared state: a cache hit is returned as-is and a
/// computed payload is handed back for the driver to admit into the cache
/// (and account) in deterministic chunk order.
enum ChunkScan {
    Cached(Arc<CachedChunk>),
    Computed {
        payload: CachedChunk,
        /// Measured wall time of the chunk scan, for cost-aware cache
        /// admission (bytes × recompute ns).
        compute: std::time::Duration,
    },
}

/// The driver-side, chunk-ordered fold of scan payloads.
///
/// Owns every shared-state mutation (cache admission, statistics), keeping
/// them deterministic under any worker scheduling. Groups accumulate in the
/// global-id domain; dense single-key `COUNT(*)` payloads add into a
/// global-id-indexed array when the key dictionary is proportionate to the
/// scanned volume, and hash-fold otherwise (so a selective query over a
/// store with an enormous global dictionary never allocates `dict.len()`
/// slots for a handful of groups).
struct Fold<'a> {
    plan: &'a Plan,
    store: &'a DataStore,
    ctx: &'a ExecContext,
    tasks: &'a [(usize, bool)],
    id_groups: FxHashMap<Box<[u32]>, Vec<AggState>>,
    dense_counts: Option<Vec<u64>>,
    use_dense_fold: bool,
}

impl<'a> Fold<'a> {
    fn new(
        plan: &'a Plan,
        store: &'a DataStore,
        ctx: &'a ExecContext,
        tasks: &'a [(usize, bool)],
    ) -> Fold<'a> {
        let active_rows: u64 = tasks.iter().map(|&(c, _)| store.chunk_rows(c) as u64).sum();
        let use_dense_fold = plan
            .key_cols
            .first()
            .is_some_and(|col| u64::from(col.dict.len()) <= (4 * active_rows).max(1024));
        Fold {
            plan,
            store,
            ctx,
            tasks,
            id_groups: FxHashMap::default(),
            dense_counts: None,
            use_dense_fold,
        }
    }

    /// Fold task `i`'s scan: account statistics, admit computed payloads
    /// into the result cache, merge the groups.
    fn absorb(&mut self, stats: &mut ScanStats, i: usize, scan: ChunkScan) -> Result<()> {
        let (c, filtered) = self.tasks[i];
        let rows = self.store.chunk_rows(c) as u64;
        let payload: ChunkPayload = match scan {
            ChunkScan::Cached(hit) => {
                stats.chunks_cached += 1;
                stats.rows_cached += rows;
                ChunkPayload::Shared(hit)
            }
            ChunkScan::Computed { payload, compute } => {
                stats.chunks_scanned += 1;
                stats.rows_scanned += rows;
                stats.cells_scanned += rows * self.plan.touched as u64;
                match (&self.ctx.result_cache, filtered) {
                    (Some(rc), false) => {
                        let shared = Arc::new(payload);
                        rc.put_costed(&self.plan.signature, c as u32, shared.clone(), compute);
                        ChunkPayload::Shared(shared)
                    }
                    _ => ChunkPayload::Owned(payload),
                }
            }
        };
        match payload {
            // A computed payload nobody else holds folds by value; only a
            // payload the cache shares is cloned, and then only the states
            // of groups this fold has not seen yet.
            ChunkPayload::Owned(CachedChunk::Groups(groups)) => {
                let owned = groups.into_iter().map(|(key, states)| (key, Cow::Owned(states)));
                fold(&mut self.id_groups, owned)
            }
            ChunkPayload::Owned(CachedChunk::DenseSingleCount(counts)) => {
                self.absorb_counts(c, &counts)
            }
            ChunkPayload::Shared(shared) => match &*shared {
                CachedChunk::Groups(groups) => {
                    let borrowed = groups
                        .iter()
                        .map(|(key, states)| (key.clone(), Cow::Borrowed(&states[..])));
                    fold(&mut self.id_groups, borrowed)
                }
                CachedChunk::DenseSingleCount(counts) => self.absorb_counts(c, counts),
            },
        }
    }

    /// Add chunk `c`'s single-key counts (indexed by chunk-id) through the
    /// chunk dictionary.
    fn absorb_counts(&mut self, c: usize, counts: &[u64]) -> Result<()> {
        let key_col = &self.plan.key_cols[0];
        let chunk_dict = &key_col.chunks[c].dict;
        if self.use_dense_fold {
            let global =
                self.dense_counts.get_or_insert_with(|| vec![0u64; key_col.dict.len() as usize]);
            for (cid, &n) in counts.iter().enumerate() {
                if n > 0 {
                    global[chunk_dict.global_id_of(cid as u32) as usize] += n;
                }
            }
        } else {
            for (cid, &n) in counts.iter().enumerate() {
                if n > 0 {
                    merge_count(&mut self.id_groups, chunk_dict.global_id_of(cid as u32), n)?;
                }
            }
        }
        Ok(())
    }

    /// The folded group table. Dense counts come out in ascending global-id
    /// order without passing through the hash map: a plan folds either
    /// `DenseSingleCount` payloads or hash groups, never both.
    fn finish(self) -> Groups<u32> {
        let mut groups: Groups<u32> = self.id_groups.into_iter().collect();
        if let Some(global) = self.dense_counts {
            debug_assert!(groups.is_empty(), "dense counts and hash groups in one fold");
            let counted = global.iter().enumerate().filter(|(_, &n)| n > 0);
            groups.extend(
                counted.map(|(gid, &n)| (Box::from([gid as u32]), vec![AggState::Count(n)])),
            );
        }
        groups
    }
}

fn merge_count(
    id_groups: &mut FxHashMap<Box<[u32]>, Vec<AggState>>,
    gid: u32,
    n: u64,
) -> Result<()> {
    match id_groups.entry(Box::from([gid])) {
        std::collections::hash_map::Entry::Vacant(e) => {
            e.insert(vec![AggState::Count(n)]);
        }
        std::collections::hash_map::Entry::Occupied(mut e) => {
            e.get_mut()[0].merge(&AggState::Count(n))?;
        }
    }
    Ok(())
}

enum ChunkPayload {
    Owned(CachedChunk),
    Shared(Arc<CachedChunk>),
}

impl Plan {
    fn prepare_seeded(
        store: &DataStore,
        analyzed: &AnalyzedQuery,
        ctx: &ExecContext,
        seeds: Option<&[ChunkActivity]>,
    ) -> Result<Plan> {
        let mut touched: Vec<String> = Vec::new();
        let mut touch = |name: String| {
            if !touched.contains(&name) {
                touched.push(name);
            }
        };

        let mut key_cols = Vec::with_capacity(analyzed.keys.len());
        for key in &analyzed.keys {
            let col = store.column_for_expr(key)?;
            touch(key.canonical());
            key_cols.push(col);
        }

        let mut aggs = Vec::with_capacity(analyzed.aggs.len());
        for agg in &analyzed.aggs {
            let col = match &agg.arg {
                Some(arg) => {
                    let col = store.column_for_expr(arg)?;
                    touch(arg.canonical());
                    Some(col)
                }
                None => None,
            };
            let kind = if agg.distinct {
                AggKind::Distinct { m: ctx.sketch_m() }
            } else {
                match agg.func {
                    AggFunc::Count => AggKind::Count,
                    AggFunc::Sum => match require_arg_type(agg.func, &col)? {
                        DataType::Int => AggKind::SumInt,
                        DataType::Float => AggKind::SumFloat,
                        DataType::Str => {
                            return Err(Error::Type("SUM over a string column".into()))
                        }
                    },
                    AggFunc::Avg => {
                        let t = require_arg_type(agg.func, &col)?;
                        if t == DataType::Str {
                            return Err(Error::Type("AVG over a string column".into()));
                        }
                        AggKind::Avg
                    }
                    AggFunc::Min => AggKind::MinMax { is_min: true },
                    AggFunc::Max => AggKind::MinMax { is_min: false },
                }
            };
            // COUNT(x) counts rows (stores hold no NULLs): drop the column
            // to keep the fast path.
            let col = match kind {
                AggKind::Count => None,
                _ => col,
            };
            aggs.push(AggPlan { kind, col });
        }

        let filter = match &analyzed.filter {
            None => None,
            Some(expr) => {
                // What a scan touches is the columns the filter names,
                // however its leaves end up being evaluated.
                let mut names = Vec::new();
                expr.referenced_columns(&mut names);
                for n in names {
                    store.column(&n)?; // an unknown column fails here
                    touch(n);
                }
                Some(FilterPlan::compile(store, expr)?)
            }
        };

        let skip =
            SkipAnalysis::prepare_seeded(store, &analyzed.restriction, seeds.map(|s| s.to_vec()))?;

        let signature = format!(
            "{}|keys:{}|aggs:{}|m:{}",
            analyzed.table.as_deref().unwrap_or(""),
            analyzed.keys.iter().map(Expr::canonical).collect::<Vec<_>>().join(","),
            analyzed.aggs.iter().map(|a| a.to_string()).collect::<Vec<_>>().join(","),
            ctx.sketch_m(),
        );

        Ok(Plan { key_cols, aggs, filter, skip, signature, touched: touched.len() })
    }

    /// Scan the active chunks (in parallel when `ctx.threads != 1`) and
    /// fold their group states in chunk order. The group table comes back
    /// keyed by global-ids: [`execute`] ranks it as it is, and only
    /// [`Plan::value_keyed`] pays for values.
    fn run(&self, store: &DataStore, ctx: &ExecContext) -> Result<(Groups<u32>, ScanStats)> {
        let mut stats = ScanStats {
            chunks_total: store.chunk_count(),
            rows_total: store.n_rows() as u64,
            ..Default::default()
        };

        // Classify every chunk up front — the skip analysis is a pure
        // dictionary computation, so it stays on the driver thread.
        let mut tasks: Vec<(usize, bool)> = Vec::new();
        for c in 0..store.chunk_count() {
            let rows = store.chunk_rows(c) as u64;
            if rows == 0 {
                continue;
            }
            match self.skip.activity(c) {
                ChunkActivity::Skip => {
                    stats.chunks_skipped += 1;
                    stats.rows_skipped += rows;
                }
                ChunkActivity::Full => tasks.push((c, false)),
                ChunkActivity::Partial => tasks.push((c, true)),
            }
        }

        // The chunk-result cache is probed here, on the driver: a hit costs
        // a lookup, and what is left is the real size of the scan.
        let mut scans: Vec<Option<ChunkScan>> =
            tasks.iter().map(|&(c, filtered)| self.cached_chunk(ctx, c, filtered)).collect();
        let misses: Vec<usize> = (0..tasks.len()).filter(|&i| scans[i].is_none()).collect();
        let miss_rows: usize = misses.iter().map(|&i| store.chunk_rows(tasks[i].0)).sum();

        // Morsel-driven scan: workers pull chunk tasks off a shared queue,
        // each producing that chunk's mergeable groups. Workers only
        // compute; every mutation — cache admission, statistics — happens
        // in the fold on the driver in chunk order, so cache eviction state
        // stays deterministic regardless of worker scheduling. Below the
        // break-even of a hand-off, and with one worker, the fold streams
        // chunk by chunk (one payload live at a time, like the sequential
        // seed); the parallel path buffers payloads until the ordered fold.
        let mut folder = Fold::new(self, store, ctx, &tasks);
        let threads = ctx.effective_threads();
        if threads > 1 && misses.len() > 1 && miss_rows >= PARALLEL_SCAN_MIN_ROWS {
            let computed = scheduler::run_tasks(threads, misses.len(), |j| {
                let (c, filtered) = tasks[misses[j]];
                self.scan_chunk(store, ctx, c, filtered)
            })?;
            for (i, scan) in misses.iter().zip(computed) {
                scans[*i] = Some(scan);
            }
        }
        for (i, scan) in scans.into_iter().enumerate() {
            let scan = match scan {
                Some(scan) => scan,
                None => self.scan_chunk(store, ctx, tasks[i].0, tasks[i].1)?,
            };
            folder.absorb(&mut stats, i, scan)?;
        }
        Ok((folder.finish(), stats))
    }

    /// The value-keyed form of a folded group table, for a consumer that
    /// does not share this store's dictionaries (a tree parent merging
    /// shards): each key column's ids are translated by one ordered
    /// dictionary walk ([`ids_to_values`]), not one lookup per group.
    /// Dictionaries are bijections, so distinct id tuples stay distinct
    /// keys.
    fn value_keyed(&self, groups: Groups<u32>) -> PartialResult {
        let columns: Vec<Vec<Value>> = (self.key_cols.iter().enumerate())
            .map(|(i, col)| {
                let ids: Vec<u32> = groups.iter().map(|(key, _)| key[i]).collect();
                ids_to_values(&col.dict, &ids)
            })
            .collect();
        let mut result = PartialResult::default();
        result.groups.reserve(groups.len());
        for (key, (_, states)) in transpose(columns, groups.len()).zip(groups) {
            result.groups.insert(key.into_boxed_slice(), states);
        }
        result
    }

    /// The chunk-result cache's entry for a fully active chunk, if any
    /// (read-only: admission happens in the fold).
    fn cached_chunk(&self, ctx: &ExecContext, c: usize, filtered: bool) -> Option<ChunkScan> {
        if filtered {
            return None;
        }
        ctx.result_cache.as_ref()?.get(&self.signature, c as u32).map(ChunkScan::Cached)
    }

    /// Compute one chunk's groups, timed for cost-aware cache admission.
    fn scan_chunk(
        &self,
        store: &DataStore,
        ctx: &ExecContext,
        c: usize,
        filtered: bool,
    ) -> Result<ChunkScan> {
        let started = Instant::now();
        let payload = self.chunk_payload(store, ctx, c, filtered)?;
        Ok(ChunkScan::Computed { payload, compute: started.elapsed() })
    }

    /// Group one chunk. `filtered` says whether the row filter applies
    /// (fully active chunks skip it by definition).
    fn chunk_payload(
        &self,
        store: &DataStore,
        ctx: &ExecContext,
        c: usize,
        filtered: bool,
    ) -> Result<CachedChunk> {
        let rows = store.chunk_rows(c);
        let key_chunks: Vec<_> = self.key_cols.iter().map(|col| &col.chunks[c]).collect();
        let sizes: Vec<usize> = key_chunks.iter().map(|ch| ch.dict.len() as usize).collect();

        // Tabulate the row filter into a packed mask once per chunk; the
        // kernels below consume the mask instead of evaluating per row.
        let mask: Option<BitVec> = match (filtered, &self.filter) {
            (true, Some(plan)) => match kernels::filter_mask(plan, c, rows)? {
                // No row survives: the chunk contributes no group.
                Mask::Empty => return Ok(CachedChunk::Groups(Vec::new())),
                // Every row survives: scan unmasked, so the run-aware
                // paths apply.
                Mask::All => None,
                Mask::Rows(bits) => Some(bits),
            },
            _ => None,
        };

        let dense_capacity: Option<usize> = sizes.iter().try_fold(1usize, |acc, &n| {
            let prod = acc.checked_mul(n.max(1))?;
            (prod <= DENSE_GROUP_LIMIT).then_some(prod)
        });
        // Exact float accumulators are ~34 words each; without the
        // double-double fast path, cap the dense over-allocation for them
        // and hash-group instead. With it, dense slots cost 16 bytes and
        // the full dense range stays profitable.
        let float_heavy =
            self.aggs.iter().any(|a| matches!(a.kind, AggKind::SumFloat | AggKind::Avg));
        let dense_capacity = match dense_capacity {
            Some(c) if float_heavy && !ctx.kernels.dense_float && c > DENSE_GROUP_LIMIT / 16 => {
                None
            }
            other => other,
        };

        // Fast paths: the paper's counts-array loop on raw codes — one or
        // two keys, COUNT(*) only, flat arrays, no per-row group map. The
        // single-key counts stay in their raw chunk-id form (the fold adds
        // them through the chunk dictionary); the two-key fused counts
        // become id-domain groups. A single key never needs the dense
        // limit: its counts array is bounded by the chunk-dictionary size,
        // which is at most the chunk's row count (the limit exists to stop
        // *products* of key-dictionary sizes from exploding).
        if self.aggs.len() == 1 && matches!(self.aggs[0].kind, AggKind::Count) {
            if key_chunks.len() == 1 {
                return Ok(CachedChunk::DenseSingleCount(kernels::count_single(
                    key_chunks[0].codes(),
                    sizes[0].max(1),
                    mask.as_ref(),
                    ctx.kernels.run_aware,
                )));
            }
            if let (2, Some(capacity)) = (key_chunks.len(), dense_capacity) {
                let counts = kernels::count_fused(
                    key_chunks[0].codes(),
                    key_chunks[1].codes(),
                    sizes[1].max(1),
                    capacity,
                    mask.as_ref(),
                );
                return Ok(CachedChunk::Groups(self.dense_counts_to_groups(
                    counts,
                    &key_chunks,
                    &sizes,
                )));
            }
        }

        // Pass A: group index per row (u32::MAX = filtered out).
        let index = kernels::group_codes(&key_chunks, &sizes, rows, mask.as_ref(), dense_capacity);

        let mut seen = vec![false; index.group_count];
        for &g in &index.group_of_row {
            if g != u32::MAX {
                seen[g as usize] = true;
            }
        }

        // What pass B may assume about `group_of_row`: on the unmasked
        // dense path with zero keys every row is group 0, and with one key
        // a row's group is exactly its key code — both let run-aware
        // kernels consume `Elements` runs instead of rows.
        let shape = match (mask.is_none() && dense_capacity.is_some(), key_chunks.len()) {
            (true, 0) => GroupShape::AllRows,
            (true, 1) => GroupShape::KeyCodes(key_chunks[0].codes()),
            _ => GroupShape::General,
        };

        // Memoize the dictionary→f64 table per (argument column, chunk):
        // SUM(x) and AVG(x) in one query share one build.
        let mut float_tables: Vec<Option<std::rc::Rc<Vec<f64>>>> = vec![None; self.aggs.len()];
        for i in 0..self.aggs.len() {
            if !matches!(self.aggs[i].kind, AggKind::SumFloat | AggKind::Avg) {
                continue;
            }
            let col = self.aggs[i].col.as_ref().expect("float aggregate has an argument");
            let found = self.aggs[..i]
                .iter()
                .zip(&float_tables)
                .find(|(prev, table)| {
                    table.is_some() && prev.col.as_ref().is_some_and(|p| Arc::ptr_eq(p, col))
                })
                .and_then(|(_, table)| table.clone());
            float_tables[i] = Some(match found {
                Some(shared) => shared,
                None => std::rc::Rc::new(kernels::float_table(&self.aggs[i], &col.chunks[c])),
            });
        }

        // Pass B: per-aggregate tight loops.
        let mut accs: Vec<ChunkAcc> = Vec::with_capacity(self.aggs.len());
        for (agg, table) in self.aggs.iter().zip(&float_tables) {
            accs.push(ChunkAcc::run(
                agg,
                c,
                index.group_count,
                &index.group_of_row,
                shape,
                ctx.kernels,
                table.as_ref().map(|t| t.as_slice()),
            )?);
        }

        // Convert to global-id-domain groups (values are translated once,
        // at the end of the whole scan).
        let mut out: ChunkGroups = Vec::with_capacity(seen.iter().filter(|s| **s).count());
        for g in 0..index.group_count {
            if !seen[g] {
                continue;
            }
            let key: Box<[u32]> = match &index.hash_keys {
                None => decode_dense_gids(g, &key_chunks, &sizes),
                Some(hash_keys) => hash_keys[g]
                    .iter()
                    .zip(&key_chunks)
                    .map(|(&id, ch)| ch.dict.global_id_of(id))
                    .collect(),
            };
            let states: Vec<AggState> = accs.iter().map(|acc| acc.state_of(g)).collect();
            out.push((key, states));
        }
        Ok(CachedChunk::Groups(out))
    }

    /// Convert a dense flat counts array into id-domain groups.
    fn dense_counts_to_groups(
        &self,
        counts: Vec<u64>,
        key_chunks: &[&crate::column::ColumnChunk],
        sizes: &[usize],
    ) -> ChunkGroups {
        counts
            .into_iter()
            .enumerate()
            .filter(|(_, n)| *n > 0)
            .map(|(g, n)| (decode_dense_gids(g, key_chunks, sizes), vec![AggState::Count(n)]))
            .collect()
    }
}

/// Decode the mixed-radix dense group index back into per-key global-ids
/// (most-significant key first).
fn decode_dense_gids(
    g: usize,
    key_chunks: &[&crate::column::ColumnChunk],
    sizes: &[usize],
) -> Box<[u32]> {
    let mut ids = vec![0u32; key_chunks.len()];
    let mut rem = g;
    for (slot, &n) in ids.iter_mut().zip(sizes).rev() {
        let n = n.max(1);
        *slot = (rem % n) as u32;
        rem /= n;
    }
    ids.iter().zip(key_chunks).map(|(&id, ch)| ch.dict.global_id_of(id)).collect()
}

fn require_arg_type(func: AggFunc, col: &Option<Arc<StoredColumn>>) -> Result<DataType> {
    col.as_ref()
        .map(|c| c.data_type())
        .ok_or_else(|| Error::Internal(format!("{}(*) is only valid for COUNT", func.name())))
}

fn fold<'a>(
    result: &mut FxHashMap<Box<[u32]>, Vec<AggState>>,
    groups: impl Iterator<Item = (Box<[u32]>, Cow<'a, [AggState]>)>,
) -> Result<()> {
    for (key, states) in groups {
        match result.entry(key) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(states.into_owned());
            }
            std::collections::hash_map::Entry::Occupied(mut e) => {
                for (a, b) in e.get_mut().iter_mut().zip(states.iter()) {
                    a.merge(b)?;
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agg_state_finalize_values() {
        assert_eq!(AggState::Count(7).finalize(), Value::Int(7));
        assert_eq!(AggState::SumInt(-3).finalize(), Value::Int(-3));
        assert_eq!(AggState::SumFloat(Box::new(FloatSum::from(2.5))).finalize(), Value::Float(2.5));
        assert_eq!(AggState::Min(None).finalize(), Value::Null);
        assert_eq!(AggState::Max(Some(Value::from("z"))).finalize(), Value::from("z"));
        assert_eq!(
            AggState::Avg { sum: Box::new(FloatSum::from(10.0)), count: 4 }.finalize(),
            Value::Float(2.5)
        );
        assert_eq!(
            AggState::Avg { sum: Box::new(FloatSum::new()), count: 0 }.finalize(),
            Value::Null
        );
    }

    #[test]
    fn agg_state_merge_mismatch_is_an_error() {
        let mut a = AggState::Count(1);
        assert!(a.merge(&AggState::SumInt(1)).is_err());
        let mut m = AggState::Min(Some(Value::Int(5)));
        m.merge(&AggState::Min(Some(Value::Int(3)))).unwrap();
        assert_eq!(m.finalize(), Value::Int(3));
        // Merging an empty Min keeps the present value.
        m.merge(&AggState::Min(None)).unwrap();
        assert_eq!(m.finalize(), Value::Int(3));
    }

    #[test]
    fn partial_results_merge_group_wise() {
        let mut a = PartialResult::default();
        a.groups.insert(vec![Value::from("x")].into_boxed_slice(), vec![AggState::Count(2)]);
        let mut b = PartialResult::default();
        b.groups.insert(vec![Value::from("x")].into_boxed_slice(), vec![AggState::Count(3)]);
        b.groups.insert(vec![Value::from("y")].into_boxed_slice(), vec![AggState::Count(1)]);
        a.merge(b).unwrap();
        assert_eq!(a.groups.len(), 2);
        let key: Box<[Value]> = vec![Value::from("x")].into_boxed_slice();
        assert_eq!(a.groups[&key], vec![AggState::Count(5)]);
    }

    #[test]
    fn finalize_limit_keeps_exactly_the_rows_a_full_sort_would() {
        // Many groups share an ORDER BY key, so which of them survive the
        // LIMIT is decided by the whole-row tie-break — the selection must
        // agree with sorting everything, row for row.
        let mut partial = PartialResult::default();
        for i in 0..60u64 {
            partial.groups.insert(
                vec![Value::from(format!("k{:02}", i * 37 % 60))].into_boxed_slice(),
                vec![AggState::Count(i % 4), AggState::SumInt((i % 3) as i64)],
            );
        }
        for order in ["c DESC", "c ASC", "c DESC, s ASC", "s DESC, k DESC", "k ASC"] {
            for having in ["", " HAVING c > 0"] {
                let full = format!(
                    "SELECT k, COUNT(*) c, SUM(n) s FROM t GROUP BY k{having} ORDER BY {order}"
                );
                let analyzed = analyze(&parse_query(&full).unwrap()).unwrap();
                // The definition: base order by whole row, then a stable
                // sort on the ORDER BY keys.
                let unlimited = finalize(&analyzed, partial.clone()).unwrap().rows;
                let mut want = unlimited.clone();
                want.sort();
                want.sort_by(|a, b| {
                    analyzed
                        .order_by
                        .iter()
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
                for limit in [0usize, 1, 7, 10, 44, 45, 59, 60, 61] {
                    let limited =
                        analyze(&parse_query(&format!("{full} LIMIT {limit}")).unwrap()).unwrap();
                    let got = finalize(&limited, partial.clone()).unwrap().rows;
                    assert_eq!(got, want[..limit.min(want.len())], "{full} LIMIT {limit}");
                }
            }
        }
    }

    #[test]
    fn query_result_helpers() {
        let r = QueryResult {
            columns: vec!["a".into(), "b".into()],
            rows: vec![Row(vec![Value::Int(1), Value::from("x")])],
        };
        assert_eq!(r.column_index("b"), Some(1));
        assert_eq!(r.column_index("zz"), None);
        let text = r.render();
        assert!(text.contains('a') && text.contains('x'));
    }

    #[test]
    fn effective_threads_resolves_auto() {
        let ctx = ExecContext::default();
        assert!(ctx.effective_threads() >= 1);
        let one = ExecContext { threads: 1, ..Default::default() };
        assert_eq!(one.effective_threads(), 1);
        let four = ExecContext { threads: 4, ..Default::default() };
        assert_eq!(four.effective_threads(), 4);
    }
}
