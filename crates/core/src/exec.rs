//! Query execution (§2.4), morsel-parallel across chunks.
//!
//! Per active chunk, group-by evaluation "boils down to executing
//! `counts[elements[row]]++`" over a dense array sized by the chunk
//! dictionary into a table of **chunk-ids**, after which per-chunk results
//! are translated through the chunk dictionaries and folded into one group
//! table keyed by **global-ids**. The per-chunk loops live in
//! `crate::kernels` (crate-private) and operate on raw dictionary codes,
//! one set of kernels for every chunk; the table — columns of
//! ids and typed aggregate states, the same shape from a chunk kernel
//! through the chunk-result cache and the fold to the ranking — is
//! `crate::groups`; this module owns planning, the chunk schedule and the
//! ranking.
//!
//! The group table leaves the id domain as late as its consumer allows
//! (§2.4 groups on ids; the compressed dictionary of §3 is affordable because
//! id→value is needed only for the rows a query returns). [`execute`]
//! ranks it as it is — every dictionary is sorted, so ids order like their
//! values — and looks up the dictionaries for the rows `HAVING` / `ORDER BY` /
//! `LIMIT` let through. [`execute_partial`] serves the distributed layer
//! (§4), whose shards share no dictionary and so must merge by value: it
//! writes each key column once as sort keys (`pd_common::sortkey`), by one
//! ordered dictionary walk that makes no [`Value`]
//! ([`pd_encoding::GlobalDict::for_each_key`]), and translates each MIN/MAX
//! column to values — the same table, in the value domain and its groups
//! in key order as the fold left them, is the [`PartialResult`]. Partials
//! merge up the tree as sorted runs of columns, comparing and copying key
//! bytes, and [`finalize`] ranks the root's table as it arrives: off the
//! state columns and key bytes as stored, decoding keys only for the rows
//! it returns. Both rankings are one routine, generic over what a cell is,
//! so `execute(q) == finalize(q, execute_partial(q))` row for row.
//!
//! Because every chunk is immutable and per-chunk group states are
//! mergeable (the same property §4 uses to aggregate across machines),
//! active chunks execute **in parallel**: the internal plan probes the
//! chunk-result cache, builds a work queue of the chunk tasks that missed
//! it, and a [`crate::scheduler`] worker pool scans them on
//! [`ExecContext::threads`] threads — when the rows to scan are enough to
//! repay waking a worker; a smaller scan stays on the calling thread.
//! Where the query folds by id — one key over a proportionate dictionary,
//! or none — a chunk the cache will not keep makes no table: its slot
//! loops write into scratch the scanning thread keeps across its chunks,
//! and its columns add straight into that thread's own fold, one walk per
//! slot, at the global ids of its groups; the driver adds the workers'
//! folds. Every other chunk's table comes back to the driver, which admits
//! it into the cache and folds it in chunk order. Every slot merges
//! exactly — counts and integer sums add, float sums are exact, extremes
//! and sketches merge in any order — so parallel execution returns
//! bit-identical results to sequential execution: group contents, sums and
//! chunk-skipping statistics do not depend on the thread count.
//!
//! Row filtering stays in the **code domain**. The `WHERE` tree is compiled
//! once per query: every leaf the restriction normalizer turns into `IN` or
//! a range over one field (a column or a materialized virtual field) is
//! resolved to global-ids by the resolver the skip pass uses
//! ([`crate::skip`]), so a verdict and a mask cannot disagree about a
//! leaf. Per `Partial` chunk those ids become chunk-ids through the chunk
//! dictionary and the packed [`pd_common::BitVec`] mask is integer
//! compares over the row codes, 64 rows per word — no value is
//! materialized. Only leaves the resolver declines (a float literal no
//! integer stands for, calls such as `contains(..)`, a comparison of two
//! columns) are evaluated, once per distinct input tuple, through
//! `group_codes` (one evaluation per chunk-dictionary entry for a leaf of
//! one column; a leaf of more sees only the rows its cheaper siblings
//! left). A conjunct that holds
//! for a whole chunk drops out of that chunk's `AND`; an all-false mask
//! yields the empty payload without running a kernel; an all-true mask
//! runs the kernels unmasked.

use crate::cache::ResultCache;
use crate::column::StoredColumn;
use crate::datastore::DataStore;
use crate::groups::{Cell, Column, GroupFold, GroupTable, KeyBytes, Keys, PartialResult, SlotKind};
use crate::kernels::{self, FilterPlan, IndexScratch, Mask, Tables};
use crate::scheduler;
use crate::skip::{ChunkActivity, SkipAnalysis};
use crate::stats::ScanStats;
use pd_common::{BitVec, DataType, Error, Result, Row, Value};
use pd_encoding::{ChunkIds, CodesView, GlobalDict};
use pd_sql::{eval_expr, truthy, AggFunc, AnalyzedQuery, OutputCol, RowContext, SlotClass};
use std::cell::OnceCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt::Write;
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
/// rows miss the chunk-result cache. A row·query costs 3.3–6.3 ns (traced
/// `core.exec.scan_ns_per_row` on clickbench's four workloads, one run
/// each on a 2-vCPU VM) and a scanned chunk 0.1–0.6 µs besides (one key or
/// none, 10 to 310 chunks of 40 000 rows, one thread), so this many rows
/// are 0.1–0.2 ms of scanning, and halving that can repay a wake-up
/// (30–300 µs on a small VM, depending on the minute); a few thousand rows
/// do not, and whether they nearly do changes from run to run — which is
/// what a benchmark then measures instead of the engine.
const PARALLEL_SCAN_MIN_ROWS: usize = 32_768;

/// A finished query result.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    pub columns: Vec<String>,
    pub rows: Vec<Row>,
}

impl QueryResult {
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

/// Parse, analyze and execute a SQL string against a store.
pub fn query(store: &DataStore, sql: &str) -> Result<(QueryResult, ScanStats)> {
    execute(store, &pd_sql::plan(sql)?, &ExecContext::default())
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
    let plan = Plan::prepare(store, analyzed, ctx)?;
    let (groups, mut stats) = plan.run(store, ctx, 0)?;
    let result = rank(analyzed, &analyzed.reads, &IdKeys(&plan), &groups, &mut None)?;
    stats.elapsed = started.elapsed();
    Ok((result, stats))
}

/// Execute the scan + group phases, returning mergeable states.
pub fn execute_partial(
    store: &DataStore,
    analyzed: &AnalyzedQuery,
    ctx: &ExecContext,
) -> Result<(PartialResult, ScanStats)> {
    execute_partial_from(store, analyzed, ctx, 0)
}

/// [`execute_partial`] over the chunks from `first_chunk` on alone — the
/// rows appended past a mark whose answer is held elsewhere. The stats
/// count those chunks and nothing else.
pub fn execute_partial_from(
    store: &DataStore,
    analyzed: &AnalyzedQuery,
    ctx: &ExecContext,
    first_chunk: usize,
) -> Result<(PartialResult, ScanStats)> {
    let plan = Plan::prepare(store, analyzed, ctx)?;
    let (groups, stats) = plan.run(store, ctx, first_chunk)?;
    Ok((plan.value_keyed(groups, &analyzed.slots), stats))
}

/// Apply HAVING / ORDER BY / LIMIT and project the output columns. The
/// query's aggregates read the slots it lowers them to
/// ([`AnalyzedQuery::reads`]), each found among `partial`'s by name and
/// read in place, so a partial remembered for one chart answers every
/// chart of its keys whose slots it holds; one without a slot the query
/// reads is [`Error::Data`].
pub fn finalize(analyzed: &AnalyzedQuery, partial: PartialResult) -> Result<QueryResult> {
    finalize_kept(analyzed, partial, &mut None)
}

/// [`finalize`], remembering which groups it returned. With `kept` `None`
/// it ranks `partial` and leaves there the positions of the groups it
/// returned, in output order. With the positions an earlier call of the
/// same query over the same table left, it ranks nothing — no HAVING, no
/// order words, no selection — and builds those ≤ LIMIT rows alone. The
/// caller vouches for "the same": positions read against another table
/// name other groups.
pub fn finalize_kept(
    analyzed: &AnalyzedQuery,
    partial: PartialResult,
    kept: &mut Option<Vec<u32>>,
) -> Result<QueryResult> {
    let (groups, reads) = partial.for_query(analyzed)?;
    rank(analyzed, &reads, &ValueKeys, groups, kept)
}

/// What [`rank`] needs to know about a group table's cells of type `C`:
/// its key cells and the cells of its MIN/MAX columns.
trait KeyCells<C: Cell> {
    /// The value MIN/MAX cell `cell` of slot `slot` stands for.
    fn extreme(&self, slot: usize, cell: &C) -> Value;

    /// The values of key column `i`'s cells `groups`, in that order.
    fn key_values(
        &self,
        i: usize,
        cells: &C::Keys,
        groups: impl Iterator<Item = usize>,
    ) -> Vec<Value>;
}

/// Cells of a merged [`PartialResult`]: sort keys, which order as their
/// values do, and MIN/MAX cells that are values already.
struct ValueKeys;

impl KeyCells<Value> for ValueKeys {
    fn extreme(&self, _: usize, cell: &Value) -> Value {
        cell.clone()
    }

    fn key_values(
        &self,
        _: usize,
        cells: &KeyBytes,
        groups: impl Iterator<Item = usize>,
    ) -> Vec<Value> {
        groups.map(|g| cells.value(g)).collect()
    }
}

/// Cells that are global-ids into the dictionaries of a plan's key and
/// MIN/MAX argument columns, which are sorted: ids order like their values.
struct IdKeys<'a>(&'a Plan);

impl IdKeys<'_> {
    /// The dictionary of key column `i`.
    fn key_dict(&self, i: usize) -> &GlobalDict {
        &self.0.key_cols[i].dict
    }

    /// The dictionary of slot `s`'s MIN/MAX argument.
    fn slot_dict(&self, s: usize) -> &GlobalDict {
        &self.0.slots[s].col.as_ref().expect("MIN/MAX has an argument").dict
    }
}

impl KeyCells<u32> for IdKeys<'_> {
    fn extreme(&self, slot: usize, id: &u32) -> Value {
        self.slot_dict(slot).value(*id)
    }

    fn key_values(
        &self,
        i: usize,
        cells: &Vec<u32>,
        groups: impl Iterator<Item = usize>,
    ) -> Vec<Value> {
        values_of(self.key_dict(i), &groups.map(|g| cells[g]).collect::<Vec<u32>>())
    }
}

/// The sort keys of `ids` (any order, repeats allowed), one per id: one
/// ordered dictionary walk over the distinct ids
/// ([`GlobalDict::for_each_key`]) instead of a lookup per id — for front
/// coding, each block decoded once, not once per group — and
/// no [`Value`] made. Strictly ascending ids (one key over a sorted
/// dictionary) are the walk's own order: it writes the column directly.
fn keys_of(dict: &GlobalDict, ids: &[u32]) -> KeyBytes {
    if ids.windows(2).all(|pair| pair[0] < pair[1]) {
        // Room for short keys; longer ones grow the buffer.
        let mut keys = KeyBytes::with_capacity(ids.len(), 16 * ids.len());
        dict.for_each_key(ids, |key| keys.push(key));
        return keys;
    }
    let mut distinct = ids.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    let walked = keys_of(dict, &distinct);
    let at = |id: &u32| distinct.binary_search(id).expect("every id is walked") as u32;
    walked.gather(&ids.iter().map(at).collect::<Vec<u32>>())
}

/// The values of `ids` (any order, repeats allowed), one per id: their
/// sort keys ([`keys_of`]) decoded.
fn values_of(dict: &GlobalDict, ids: &[u32]) -> Vec<Value> {
    let keys = keys_of(dict, ids);
    (0..ids.len()).map(|g| keys.value(g)).collect()
}

/// HAVING / ORDER BY / LIMIT over a group table, whatever domain its
/// cells are in: the one ranking routine behind [`execute`] (global-ids)
/// and [`finalize`] (values — the root of a tree, whose shards do not
/// share dictionaries). Aggregate `i` reads the slots `reads[i]`.
///
/// The groups returned are [`select`]ed, unless `kept` already names them
/// ([`finalize_kept`]); then `kept` holds their positions. A [`Row`] is
/// built — keys looked up, aggregates finalized — for those groups only,
/// so a top-10 over thousands of groups names ten of them.
fn rank<C: Cell>(
    analyzed: &AnalyzedQuery,
    reads: &[pd_sql::SlotRef],
    domain: &impl KeyCells<C>,
    groups: &GroupTable<C>,
    kept: &mut Option<Vec<u32>>,
) -> Result<QueryResult> {
    let columns = analyzed.output_names();
    let source = |idx: usize| analyzed.output[idx].1;
    if groups.len() == 0 {
        let having = Having::of(analyzed, &columns)?;
        if !analyzed.keys.is_empty() {
            return Ok(QueryResult { columns, rows: Vec::new() });
        }
        // Global aggregation over zero rows still yields one row.
        let row: Vec<Value> = (0..columns.len())
            .map(|idx| match source(idx) {
                OutputCol::Key(_) => Value::Null,
                OutputCol::Agg(i) if analyzed.aggs[i].func == AggFunc::Count => Value::Int(0),
                OutputCol::Agg(_) => Value::Null,
            })
            .collect();
        let keep = having.passes(&|idx| row[idx].clone())? && analyzed.limit != Some(0);
        return Ok(QueryResult { columns, rows: if keep { vec![Row(row)] } else { Vec::new() } });
    }
    let kept = match kept {
        Some(kept) => kept,
        None => kept.insert(select(analyzed, reads, domain, groups, &columns)?),
    };

    // Only now do the survivors become rows, output column by column.
    let extreme = |s: usize, cell: &C| domain.extreme(s, cell);
    let at = || kept.iter().map(|&g| g as usize);
    let cells: Vec<Vec<Value>> = (0..columns.len())
        .map(|idx| match source(idx) {
            OutputCol::Key(i) => domain.key_values(i, groups.key(i), at()),
            OutputCol::Agg(i) => at().map(|g| groups.cell(reads[i], g, &extreme)).collect(),
        })
        .collect();
    let mut cells: Vec<_> = cells.into_iter().map(Vec::into_iter).collect();
    let rows = (0..kept.len())
        .map(|_| Row(cells.iter_mut().map(|col| col.next().expect("one cell per row")).collect()))
        .collect();
    Ok(QueryResult { columns, rows })
}

/// A query's HAVING, its output column names resolved to positions once.
struct Having<'a> {
    expr: Option<&'a pd_sql::Expr>,
    refs: Vec<(String, usize)>,
}

impl<'a> Having<'a> {
    fn of(analyzed: &'a AnalyzedQuery, columns: &[String]) -> Result<Having<'a>> {
        let mut refs = Vec::new();
        if let Some(having) = &analyzed.having {
            let mut names = Vec::new();
            having.referenced_columns(&mut names);
            for name in names {
                let idx = columns
                    .iter()
                    .position(|c| *c == name)
                    .ok_or_else(|| Error::Schema(format!("unknown output column `{name}`")))?;
                refs.push((name, idx));
            }
        }
        Ok(Having { expr: analyzed.having.as_ref(), refs })
    }

    /// Whether the row whose output column `idx` is `cell(idx)` passes.
    fn passes(&self, cell: &dyn Fn(usize) -> Value) -> Result<bool> {
        match self.expr {
            Some(having) => Ok(truthy(&eval_expr(having, &OutputRow { refs: &self.refs, cell })?)),
            None => Ok(true),
        }
    }
}

/// The positions of the groups HAVING / ORDER BY / LIMIT keep, in output
/// order, of a table of at least one group.
///
/// Groups are ranked *by position*, off the columns as they are stored.
/// An aggregate is compared by its order keys, read off its state column in
/// one typed pass when first compared ([`GroupTable::order_keys`]: counts
/// and sums as numbers, no [`Value`] per group); only the cells HAVING
/// reads, and a MIN/MAX the ORDER BY reads, are finalized for every group.
/// Key cells are compared as stored — ids of a sorted dictionary, sort keys
/// as bytes — and become values for every group only if HAVING names the
/// key. With one key compared as stored, the key cells are not read at all:
/// the table lists its groups in strictly ascending key order, so two
/// groups' positions order like their keys — and a chart ordered by that
/// key or by one aggregate ranks plain integer pairs ([`pair_order`]),
/// selected by their first word ([`first_by_word`]).
///
/// A LIMIT of k keeps at most k groups in a heap ([`first`]), so n groups
/// cost O(n log k) compares.
///
/// The order is total: the ORDER BY keys, ties broken by the whole row,
/// cell by cell — the output never depends on group-table order, and it is
/// the same order in both domains.
fn select<C: Cell>(
    analyzed: &AnalyzedQuery,
    reads: &[pd_sql::SlotRef],
    domain: &impl KeyCells<C>,
    groups: &GroupTable<C>,
    columns: &[String],
) -> Result<Vec<u32>> {
    let source = |idx: usize| analyzed.output[idx].1;
    let having = Having::of(analyzed, columns)?;

    // Columns the ranking reads for every group, finalized / looked up
    // once: the aggregates HAVING names and the MIN/MAX (no order key) ORDER
    // BY names; the keys HAVING names. An aggregate's order keys are read
    // off its column in one pass, the first time a compare needs them.
    let extreme = |s: usize, cell: &C| domain.extreme(s, cell);
    let agg_cell = |i: usize, g: usize| groups.cell(reads[i], g, &extreme);
    let words: Vec<OnceCell<_>> = analyzed.aggs.iter().map(|_| OnceCell::new()).collect();
    let order_keys = |i: usize| words[i].get_or_init(|| groups.order_keys(reads[i]));
    let having_reads = |src: OutputCol| having.refs.iter().any(|&(_, idx)| source(idx) == src);
    let agg_cells: Vec<Option<Vec<Value>>> = (0..analyzed.aggs.len())
        .map(|i| {
            let src = OutputCol::Agg(i);
            let ordered_by = analyzed.order_by.iter().any(|&(idx, _)| source(idx) == src);
            (having_reads(src) || ordered_by && order_keys(i).is_none())
                .then(|| (0..groups.len()).map(|g| agg_cell(i, g)).collect())
        })
        .collect();
    let key_values: Vec<Option<Vec<Value>>> = (0..analyzed.keys.len())
        .map(|i| {
            having_reads(OutputCol::Key(i))
                .then(|| domain.key_values(i, groups.key(i), 0..groups.len()))
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
    // One key compared as stored compares positions. The fold and
    // `PartialResult::new` leave their groups in key order, and
    // `PartialResult::from_columns` refuses a decoded partial that is not
    // ("unsorted or duplicate keys"), so no frame can reach this unsorted.
    let by_position = analyzed.keys.len() == 1 && key_values[0].is_none();
    if by_position {
        debug_assert!(groups.is_sorted(), "a ranked table lists its groups in key order");
    }
    let cmp_cell = |a: usize, b: usize, idx: usize| match source(idx) {
        OutputCol::Key(_) if by_position => a.cmp(&b),
        OutputCol::Key(i) => match &key_values[i] {
            Some(values) => values[a].cmp(&values[b]),
            None => groups.key(i).cmp_cells(a, groups.key(i), b),
        },
        OutputCol::Agg(i) => match &agg_cells[i] {
            Some(cells) => cells[a].cmp(&cells[b]),
            None => match order_keys(i) {
                Some(words) => words[a].cmp(&words[b]),
                None => agg_cell(i, a).cmp(&agg_cell(i, b)),
            },
        },
    };
    // The order: the ORDER BY columns, then the whole row, cell by cell.
    let compared = || {
        let row = (0..columns.len()).map(|idx| (idx, false));
        analyzed.order_by.iter().copied().chain(row)
    };
    let order = |a: &usize, b: &usize| {
        compared()
            .map(|(idx, desc)| if desc { cmp_cell(*b, *a, idx) } else { cmp_cell(*a, *b, idx) })
            .find(|ord| ord.is_ne())
            .unwrap_or(Ordering::Equal)
    };
    let limit = analyzed.limit.unwrap_or(usize::MAX);
    // HAVING is decided for every group first: the selection cannot fail.
    let verdicts: Option<Vec<bool>> = (analyzed.having.as_ref())
        .map(|_| (0..groups.len()).map(|g| having.passes(&|idx| cell(g, idx))).collect())
        .transpose()?;
    let passing = (0..groups.len()).filter(|&g| verdicts.as_ref().is_none_or(|pass| pass[g]));
    let keyed = |i| order_keys(i).is_some();
    Ok(match pair_order(compared(), source, by_position, keyed) {
        // A group's rank is an integer pair: one aggregate's order key and
        // the group's position, each reversed where it sorts descending.
        Some(PairOrder { agg, key_desc }) => {
            let flip = |desc: bool, word: u128| if desc { !word } else { word };
            let words = agg.map(|(i, desc)| (order_keys(i).as_deref().expect("order keys"), desc));
            let word = |g: usize| words.map_or(0, |(words, desc)| flip(desc, words[g]));
            let at = |g: usize| flip(key_desc, g as u128);
            let pairs = first_by_word(passing, word, at, limit).into_iter();
            pairs.map(|(_, at)| flip(key_desc, at) as u32).collect()
        }
        None => first(passing.map(|g| Ranked(g, &order)), limit)
            .into_iter()
            .map(|Ranked(g, _)| g as u32)
            .collect(),
    })
}

/// The first `limit` of `items` in order. The first `limit` are kept as
/// they come; if more follow, the kept ones become a heap with the last on
/// top, and each later item is compared with the top once and enters only
/// by displacing it — O(n log k) compares for n items, no sorted insert.
/// The ≤ k survivors are sorted at the end; with no more than k items, that
/// sort is all there is.
fn first<T: Ord>(items: impl Iterator<Item = T>, limit: usize) -> Vec<T> {
    let mut items = items.peekable();
    let mut kept = Vec::with_capacity(limit.min(items.size_hint().1.unwrap_or(0)));
    kept.extend(items.by_ref().take(limit));
    if items.peek().is_some() {
        let mut heap = BinaryHeap::from(kept);
        for item in items {
            if let Some(mut last) = heap.peek_mut() {
                if item < *last {
                    *last = item;
                }
            }
        }
        kept = heap.into_vec();
    }
    // Items that compare equal are equal in every output column: unstable
    // is exact.
    kept.sort_unstable();
    kept
}

/// [`first`] of the pairs `(word(g), at(g))` of `groups`, in one pass over
/// their words: once `limit` pairs are kept, a group whose word is above the
/// last kept pair's cannot enter and is passed over on that one compare;
/// only a smaller or equal word makes its pair and meets the heap's top.
fn first_by_word(
    groups: impl Iterator<Item = usize>,
    word: impl Fn(usize) -> u128,
    at: impl Fn(usize) -> u128,
    limit: usize,
) -> Vec<(u128, u128)> {
    let mut groups = groups.peekable();
    let mut kept = Vec::with_capacity(limit.min(groups.size_hint().1.unwrap_or(0)));
    kept.extend(groups.by_ref().take(limit).map(|g| (word(g), at(g))));
    if limit > 0 && groups.peek().is_some() {
        let mut heap = BinaryHeap::from(kept);
        let mut threshold = heap.peek().expect("limit > 0").0;
        for g in groups {
            let word = word(g);
            if word > threshold {
                continue;
            }
            let pair = (word, at(g));
            let mut last = heap.peek_mut().expect("limit > 0");
            if pair < *last {
                *last = pair;
                drop(last);
                threshold = heap.peek().expect("limit > 0").0;
            }
        }
        kept = heap.into_vec();
    }
    // Equal pairs are the same group: unstable is exact.
    kept.sort_unstable();
    kept
}

/// A total order that is an integer pair per group: at most one aggregate
/// (and whether it sorts descending), then the group's position (and
/// whether it sorts descending).
struct PairOrder {
    agg: Option<(usize, bool)>,
    key_desc: bool,
}

/// The order's comparisons `compared` as a [`PairOrder`], if they come to
/// one: up to the first that names the key (compared by position, so no two
/// groups tie there), every one names one aggregate that has order keys
/// (`keyed`: not a MIN/MAX) — a repeat of it ties wherever the first
/// compare did. Ending without the key is a pair too: groups tied on every
/// output column are equal rows, and position only picks among them. This
/// is every chart `SELECT k, … GROUP BY k ORDER BY <aggregate or k>`.
fn pair_order(
    compared: impl Iterator<Item = (usize, bool)>,
    source: impl Fn(usize) -> OutputCol,
    by_position: bool,
    keyed: impl Fn(usize) -> bool,
) -> Option<PairOrder> {
    let mut agg: Option<(usize, bool)> = None;
    for (idx, desc) in compared {
        match source(idx) {
            OutputCol::Key(_) => return by_position.then_some(PairOrder { agg, key_desc: desc }),
            OutputCol::Agg(i) if agg.is_some_and(|(first, _)| first == i) => {}
            OutputCol::Agg(i) if agg.is_none() && keyed(i) => agg = Some((i, desc)),
            OutputCol::Agg(_) => return None,
        }
    }
    Some(PairOrder { agg, key_desc: false })
}

/// A group position ordered by the ranking's `order`, so that a max-heap of
/// them has the last group kept on top.
struct Ranked<'a, F>(usize, &'a F);

impl<F: Fn(&usize, &usize) -> Ordering> Ord for Ranked<'_, F> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.1)(&self.0, &other.0)
    }
}

impl<F: Fn(&usize, &usize) -> Ordering> PartialOrd for Ranked<'_, F> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<F: Fn(&usize, &usize) -> Ordering> PartialEq for Ranked<'_, F> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl<F: Fn(&usize, &usize) -> Ordering> Eq for Ranked<'_, F> {}

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

/// Is a flat array of `cells` entries proportionate to a scan of `rows` rows?
pub(crate) fn proportionate(cells: u64, rows: u64) -> bool {
    cells <= (4 * rows).max(1024)
}

/// One aggregate slot of a plan: what it accumulates, over which column.
pub(crate) struct SlotPlan {
    pub(crate) kind: SlotKind,
    /// Argument column (None for `count`, which only counts).
    pub(crate) col: Option<Arc<StoredColumn>>,
    /// A float sum whose column is on one grid that admits every row of the
    /// store ([`StoredColumn::sums_exactly`]): plain adds sum it exactly,
    /// in the chunk kernels and in the fold.
    pub(crate) grid: bool,
}

/// The prepared execution plan.
struct Plan {
    key_cols: Vec<Arc<StoredColumn>>,
    /// The slots a scan fills: the query's [`AnalyzedQuery::slots`], typed.
    slots: Vec<SlotPlan>,
    filter: Option<FilterPlan>,
    skip: SkipAnalysis,
    /// Result-cache signature (table + keys + slots + sketch size).
    signature: Arc<str>,
    /// How many distinct columns a scan touches (for cell accounting).
    touched: usize,
}

/// One scanned chunk's contribution: a cache hit, a table of chunk-ids a
/// worker computed, or neither — the chunk went straight into a fold by id.
///
/// Workers never mutate shared state: a computed table is handed back for
/// the driver to admit into the cache (and account) in deterministic chunk
/// order, and a worker's own fold by id holds no chunk the cache keeps.
enum ChunkScan {
    Cached(Arc<GroupTable<u32>>),
    Computed(GroupTable<u32>),
    Folded,
}

/// What one thread keeps across the chunks it scans: the kernels' scratch
/// and, once it scans a chunk that folds straight into a fold by id, that
/// fold.
#[derive(Default)]
struct Worker<'a> {
    scratch: Scratch<'a>,
    groups: Option<GroupFold>,
}

/// The buffers a chunk's kernels write, kept across the chunks a thread
/// scans — the keys' codes and sizes, the mask's words, the group index's
/// arrays, the slot columns and their tables —, so that a chunk folded by
/// id allocates nothing its rows or groups size.
#[derive(Default)]
struct Scratch<'a> {
    codes: Vec<CodesView<'a>>,
    sizes: Vec<usize>,
    words: Vec<u64>,
    index: IndexScratch,
    /// Per slot, the column its loop wrote for the last chunk folded by id,
    /// whose buffers the next chunk's loop writes.
    columns: Vec<Column<u32>>,
    tables: Tables,
}

/// The driver-side, chunk-ordered fold of chunk tables.
///
/// Owns every shared-state mutation (cache admission, statistics), keeping
/// them deterministic under any worker scheduling; the groups accumulate in
/// a [`GroupFold`], cached and computed tables alike, each read from
/// chunk-ids to global-ids through its chunk dictionaries, and so do the
/// workers' folds by id.
struct Fold<'a> {
    plan: &'a Plan,
    cache: Option<&'a ResultCache>,
    stats: ScanStats,
    groups: GroupFold,
}

impl<'a> Fold<'a> {
    /// A fold continuing `stats`, by id over `by_id` ids if set.
    fn new(
        plan: &'a Plan,
        ctx: &'a ExecContext,
        by_id: Option<usize>,
        stats: ScanStats,
    ) -> Fold<'a> {
        let groups = plan.group_fold(by_id);
        Fold { plan, cache: ctx.result_cache.as_deref(), stats, groups }
    }

    /// Fold the scan of a task — chunk `c` of `rows` rows, `filtered` or
    /// fully active: account statistics, admit a computed table into the
    /// result cache, add the groups.
    fn absorb(&mut self, c: usize, rows: u64, filtered: bool, scan: ChunkScan) {
        let table = match scan {
            ChunkScan::Cached(hit) => {
                self.stats.chunks_cached += 1;
                self.stats.rows_cached += rows;
                hit
            }
            ChunkScan::Computed(_) | ChunkScan::Folded => {
                let cells = rows * self.plan.touched as u64;
                self.stats.chunks_scanned += 1;
                self.stats.rows_scanned += rows;
                self.stats.cells_scanned += cells;
                let ChunkScan::Computed(table) = scan else { return };
                let table = Arc::new(table);
                if let (Some(rc), false) = (self.cache, filtered) {
                    rc.put(&self.plan.signature, c as u32, table.clone());
                }
                table
            }
        };
        let plan = self.plan;
        self.groups.absorb(table, |i| plan.key_cols[i].chunks[c].dict.ids(), plan.extreme_ids(c));
    }
}

impl Plan {
    fn prepare(store: &DataStore, analyzed: &AnalyzedQuery, ctx: &ExecContext) -> Result<Plan> {
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

        // The query's slots, each typed by the column it reads.
        let mut slots = Vec::with_capacity(analyzed.slots.len());
        for slot in &analyzed.slots {
            let col = match &slot.arg {
                Some(arg) => {
                    let col = store.column_for_expr(arg)?;
                    touch(arg.canonical());
                    Some(col)
                }
                None => None,
            };
            let kind = match (slot.class, col.as_ref().map(|col| col.data_type())) {
                (SlotClass::Count, _) => SlotKind::Count,
                (SlotClass::Sum, Some(DataType::Int)) => SlotKind::SumInt,
                (SlotClass::Sum, Some(DataType::Float)) => SlotKind::SumFloat,
                (SlotClass::Sum, _) => {
                    return Err(Error::Type(format!("{slot} over a string column")))
                }
                (SlotClass::Min, _) => SlotKind::Min,
                (SlotClass::Max, _) => SlotKind::Max,
                (SlotClass::Distinct, _) => SlotKind::Distinct { m: ctx.sketch_m() },
            };
            // A cached chunk table was summed over rows this store still
            // holds, so on the grid now, whichever path summed it left the
            // exact sum in `hi` and zero in `lo`: plain adds to it are exact.
            let rows = store.n_rows() as u64;
            let grid =
                kind == SlotKind::SumFloat && col.as_ref().is_some_and(|c| c.sums_exactly(rows));
            slots.push(SlotPlan { kind, col, grid });
        }
        // `COUNT(x)` reads `count`, yet names a column: one that must
        // exist, and that a scan touches.
        let counted =
            analyzed.aggs.iter().filter(|agg| agg.func == AggFunc::Count && !agg.distinct);
        for arg in counted.filter_map(|agg| agg.arg.as_ref()) {
            store.column_for_expr(arg)?;
            touch(arg.canonical());
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

        let skip = SkipAnalysis::prepare(store, &analyzed.restriction)?;

        let mut signature = String::with_capacity(128);
        analyzed.write_group_shape(&mut signature);
        write!(signature, "|m:{}", ctx.sketch_m()).expect("a String takes every write");
        let signature: Arc<str> = signature.into();
        let touched = touched.len();
        Ok(Plan { key_cols, slots, filter, skip, signature, touched })
    }

    /// Scan the active chunks from `first` on (in parallel when
    /// `ctx.threads != 1`) and fold their group tables in chunk order. The
    /// table comes back keyed by global-ids: [`execute`] ranks it as it is,
    /// and only [`Plan::value_keyed`] pays for values.
    fn run(
        &self,
        store: &DataStore,
        ctx: &ExecContext,
        first: usize,
    ) -> Result<(GroupTable<u32>, ScanStats)> {
        let chunks = first..store.chunk_count();
        let mut stats = ScanStats { chunks_total: chunks.len(), ..Default::default() };

        // Classify every chunk up front — the skip analysis is a pure
        // dictionary computation, so it stays on the driver thread.
        let mut tasks: Vec<(usize, bool)> = Vec::new();
        for c in chunks {
            let rows = store.chunk_rows(c) as u64;
            stats.rows_total += rows;
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

        // The chunk-result cache is probed here, on the driver (read-only:
        // admission happens in the fold): a hit costs a lookup, and what
        // is left is the real size of the scan.
        let cached = |&(c, filtered): &(usize, bool)| match &ctx.result_cache {
            Some(rc) if !filtered => rc.get(&self.signature, c as u32).map(ChunkScan::Cached),
            _ => None,
        };
        let mut scans: Vec<Option<ChunkScan>> = tasks.iter().map(cached).collect();
        let misses: Vec<usize> = (0..tasks.len()).filter(|&i| scans[i].is_none()).collect();
        let miss_rows: usize = misses.iter().map(|&i| store.chunk_rows(tasks[i].0)).sum();

        // Morsel-driven scan: workers pull chunk tasks off a shared queue.
        // One key over a proportionate dictionary, or none, folds by id: a
        // chunk the cache will not keep goes straight into the fold of the
        // thread that scans it, and the workers' folds add up on the driver
        // (every slot adds exactly, so in any order). Any other chunk comes
        // back as its table; every mutation — cache admission, statistics —
        // happens in the fold on the driver in chunk order, so cache
        // eviction state stays deterministic regardless of worker
        // scheduling. Below the break-even of a hand-off, and with one
        // worker, the fold streams chunk by chunk on the driver.
        let active_rows = tasks.iter().map(|&(c, _)| store.chunk_rows(c) as u64).sum();
        let by_id = match &self.key_cols[..] {
            [] => Some(1),
            [col] if proportionate(u64::from(col.dict.len()), active_rows) => {
                Some(col.dict.len() as usize)
            }
            _ => None,
        };
        let folds = |filtered: bool| by_id.is_some() && (ctx.result_cache.is_none() || filtered);
        let mut folder = Fold::new(self, ctx, by_id, stats);
        let threads = ctx.effective_threads();
        if threads > 1 && misses.len() > 1 && miss_rows >= PARALLEL_SCAN_MIN_ROWS {
            let (computed, workers) =
                scheduler::run_tasks_with(threads, misses.len(), Worker::default, |worker, j| {
                    let (c, filtered) = tasks[misses[j]];
                    let Worker { scratch, groups } = worker;
                    let into = folds(filtered)
                        .then(|| groups.get_or_insert_with(|| self.group_fold(by_id)));
                    self.scan(store, c, filtered, scratch, into)
                })?;
            for (i, scan) in misses.iter().zip(computed) {
                scans[*i] = Some(scan);
            }
            // Nothing is folded yet: the first worker's fold becomes the driver's.
            let mut folds = workers.into_iter().filter_map(|worker| worker.groups);
            folder.groups = folds.next().unwrap_or(folder.groups);
            folds.for_each(|groups| folder.groups.add_fold(groups));
        }
        let mut scratch = Scratch::default();
        for (i, ready) in scans.into_iter().enumerate() {
            let (c, filtered) = tasks[i];
            let ready = match ready {
                Some(ready) => ready,
                None => {
                    let into = folds(filtered).then_some(&mut folder.groups);
                    self.scan(store, c, filtered, &mut scratch, into)?
                }
            };
            folder.absorb(c, store.chunk_rows(c) as u64, filtered, ready);
        }
        let groups = folder.groups.finish();
        debug_assert!(groups.is_sorted(), "the fold lists its groups in id order");
        Ok((groups, folder.stats))
    }

    /// An empty fold of this plan's groups, by id over `by_id` ids if set.
    fn group_fold(&self, by_id: Option<usize>) -> GroupFold {
        let kinds = self.slots.iter().map(|slot| slot.kind);
        let grid = self.slots.iter().map(|slot| slot.grid).collect();
        GroupFold::new(self.key_cols.len(), kinds, grid, by_id)
    }

    /// Per MIN/MAX slot, the global-ids of its argument's chunk-ids in
    /// chunk `c`.
    fn extreme_ids<'p>(&'p self, c: usize) -> impl Fn(usize) -> ChunkIds<'p> + 'p {
        move |s| self.slots[s].col.as_ref().expect("MIN/MAX has an argument").chunks[c].dict.ids()
    }

    /// The value-keyed form of a folded group table, for a consumer that
    /// does not share this store's dictionaries (a tree parent merging
    /// shards): each key column of ids written as sort keys, and each
    /// MIN/MAX column translated to values, by one ordered dictionary walk
    /// ([`keys_of`]), not one lookup per group; dictionaries are sorted
    /// bijections, so distinct id tuples stay distinct keys, in the fold's
    /// order.
    fn value_keyed(&self, groups: GroupTable<u32>, slots: &[pd_sql::Slot]) -> PartialResult {
        let cells = IdKeys(self);
        let groups = groups.into_values(
            |i, ids| keys_of(cells.key_dict(i), ids),
            |s, ids| values_of(cells.slot_dict(s), &ids),
        );
        PartialResult::new(groups, slots)
    }

    /// Scan chunk `c` in `scratch`: the row filter's mask, a group index
    /// and one loop per slot, whatever the query's shape. Then either add
    /// the slot columns straight `into` a fold by id, at the global ids of
    /// the groups some row is in, or make the chunk's table of chunk-ids.
    /// One group (no key, or one entry in every key's chunk dictionary),
    /// and dense keys' numbers where enough rows pass, list no group per
    /// row. `filtered` says whether the row filter applies (fully active
    /// chunks skip it by definition).
    fn scan<'a>(
        &'a self,
        store: &DataStore,
        c: usize,
        filtered: bool,
        scratch: &mut Scratch<'a>,
        into: Option<&mut GroupFold>,
    ) -> Result<ChunkScan> {
        let rows = store.chunk_rows(c);
        let Scratch { codes, sizes, words, index: spare, columns, tables } = scratch;
        codes.clear();
        codes.extend(self.key_cols.iter().map(|col| col.chunks[c].codes()));
        sizes.clear();
        sizes.extend(self.key_cols.iter().map(|col| (col.chunks[c].dict.len() as usize).max(1)));

        // Tabulate the row filter into a packed mask once per chunk; the
        // kernels below consume the mask instead of evaluating per row.
        let mask: Option<BitVec> = match (filtered, &self.filter) {
            (true, Some(plan)) => match kernels::filter_mask(plan, c, rows, words)? {
                // No row survives: the chunk contributes no group.
                Mask::Empty if into.is_some() => return Ok(ChunkScan::Folded),
                Mask::Empty => {
                    let slots = self.slots.iter().map(|slot| Column::new(slot.kind)).collect();
                    let keys = vec![Vec::new(); codes.len()];
                    return Ok(ChunkScan::Computed(GroupTable::new(0, keys, slots)));
                }
                // Every row survives: scan unmasked.
                Mask::All => None,
                Mask::Rows(bits) => Some(bits),
            },
            _ => None,
        };

        // Pass A: which rows are in which group — for dense keys, their
        // numbers.
        let dense = kernels::dense_capacity(sizes);
        let index = kernels::group_codes(codes, sizes, rows, mask.as_ref(), dense, spare);

        // Pass B: per-slot tight loops, into the last chunk's columns.
        if columns.len() != self.slots.len() {
            *columns = self.slots.iter().map(|slot| Column::new(slot.kind)).collect();
        }
        for (slot, column) in self.slots.iter().zip(columns.iter_mut()) {
            let spare = std::mem::replace(column, Column::new(slot.kind));
            *column = kernels::accumulate(slot, c, &index, spare, tables);
        }
        let scan = match into {
            Some(groups) => {
                let ids = self.key_cols.first().map(|col| col.chunks[c].dict.ids());
                let extremes = self.extreme_ids(c);
                index.fold_into(groups, columns, ids, |s, &cell| extremes(s).get(cell), spare);
                ChunkScan::Folded
            }
            // The groups no row is in dropped.
            None => ChunkScan::Computed(index.table(sizes, std::mem::take(columns), spare)),
        };
        if let Some(bits) = mask {
            *words = bits.into_words();
        }
        Ok(scan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_result_helpers() {
        let r = QueryResult {
            columns: vec!["a".into(), "b".into()],
            rows: vec![Row(vec![Value::Int(1), Value::from("x")])],
        };
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
