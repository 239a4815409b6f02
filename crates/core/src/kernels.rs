//! Dictionary-code group-by kernels (§2.4's inner loops).
//!
//! Everything in this module operates on the raw `u32` element codes of a
//! chunk — never on [`Value`]s — so the hot loops are array arithmetic:
//!
//! - [`filter_mask`] evaluates a `WHERE` tree, compiled once per query into
//!   a [`FilterPlan`], over one chunk into a packed [`BitVec`]. A leaf the
//!   skip pass's resolver turned into global-ids (`IN`, `=`, ranges on
//!   sorted dictionaries, over a column or a virtual field) costs two
//!   `partition_point`s or a short merge on the chunk dictionary's sorted
//!   global-ids, then one integer compare per row code, 64 rows per word
//!   (an `AND` of ranges on one column is one interval, one pass); leaves
//!   the resolver declines are tabulated once per chunk-dictionary entry
//!   through `eval_expr` (the only place a filter materializes values);
//!   `AND` / `OR` / `NOT` combine whole masks word-wise, with subtrees that
//!   are constant on the chunk folded away; only genuinely multi-column
//!   subtrees fall back to per-row evaluation.
//! - [`count_single`] / [`count_fused`] are the paper's
//!   `counts[elements[row]]++` loop, for one key and for two keys fused
//!   into a single flat array index — no per-row group map, no `Value`
//!   allocation.
//! - [`group_codes`] computes the [`GroupIndex`] of the general case: which
//!   rows are in which group, and every group's keys, numbered in
//!   ascending key order so a chunk table is born ordered. One dense key's
//!   **codes are its groups** ([`Members::Codes`]): pass B walks the
//!   chunk's rows, or its mask's set bits word by word, and reads a row's
//!   group off the key — no row list, no group per row, no renumbering —
//!   and [`GroupIndex::table`] drops the codes a mask left unused. That
//!   path is taken when the rows that pass are at least as many as the
//!   chunk dictionary's entries (always, unmasked); a mask that passes
//!   fewer lists its rows and numbers the codes they hold, which is
//!   cheaper there. That, and more keys, list a group per row (a masked
//!   chunk's passing rows only): the keys' mixed-radix numbers counted off
//!   a flat array when the key-dictionary product is small, sorted as
//!   packed `u64`s otherwise. A chunk of **one group** — no key, or one
//!   entry in every key's chunk dictionary — lists no group per row
//!   ([`Members::One`]): its rows are the chunk's, or its mask's.
//! - [`accumulate`] fills one aggregate slot's column
//!   ([`crate::groups::Column`]) over the index's (row, group) pairs with a
//!   per-slot tight loop: a `COUNT` is a histogram of the groups, a `SUM`
//!   gathers a per-chunk-id table from the typed dictionary, a MIN/MAX is a
//!   code minimum/maximum over a sorted one. `COUNT(DISTINCT …)` first
//!   finds the distinct (group, code) pairs of the passing rows (a flat
//!   presence array, or a sort), then hashes once per code that occurs
//!   (one ordered dictionary walk over sort keys, no [`Value`] made), and
//!   builds each group's sketch by one sort.
//!
//! **No row's add waits on the add just before it.** Equal codes side by
//! side — §3's sorted layout, a partition's leading field, a chunk of one
//! group — would make a loop that adds every row into one slot run at the
//! latency of a load → add → store chain. So one group's `COUNT` is the
//! mask's popcount or the chunk's length, its sums and MIN/MAX run in
//! [`LANES`] register lanes that the rows are dealt out to ([`fold_lanes`]:
//! `i128` sums, double-double pairs, codes), and a counts array or MIN/MAX
//! code array of at most [`SPLIT_MAX`] entries is written as [`LANES`]
//! copies ([`fold_cells`]); lanes and copies merge once per
//! chunk, past the lanes no row reached. A float lane merges through the
//! exact merge that folds chunk tables, so every answer is bit for bit the
//! one a single slot gives. The loops are the same for every row order.
//!
//! A chunk runs one set of kernels: the counts-array loops when its query
//! is `COUNT(*)` alone by one or two keys and it holds more than one group,
//! else [`group_codes`] and one [`accumulate`] per slot. Each kernel
//! dispatches on [`CodesView`] once per chunk and then runs a
//! monomorphized loop, one read per row, so the element representation
//! (const / bit-set / u8 / u16 / u32) costs no per-row branch.

use crate::column::{ColumnChunk, StoredColumn};
use crate::count_distinct::KmvSketch;
use crate::datastore::DataStore;
use crate::exec::{proportionate, SlotPlan};
use crate::groups::{Column, FloatColumn, GroupTable, SlotKind};
use crate::skip::{self, LeafIds, ResolvedLeaf};
use pd_common::{sortkey, BitVec, Error, Result, Value};
use pd_encoding::{CodesView, GlobalDict};
use pd_sql::{eval_expr, truthy, Expr, Restriction, RowContext};
use std::cell::OnceCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Per-chunk dense-grouping limit: products of key-dictionary sizes up to
/// this use a flat array; larger products sort the rows' packed codes.
pub(crate) const DENSE_GROUP_LIMIT: usize = 1 << 16;

/// Dispatch once on the representation, monomorphize the loop body. The
/// accessor holds the codes by value (`move`), so a loop in a function it
/// is handed to reads them from registers, not through this frame.
macro_rules! with_codes {
    ($view:expr, |$get:ident| $body:expr) => {
        match $view {
            CodesView::Const { .. } => {
                let $get = move |_row: usize| 0u32;
                $body
            }
            CodesView::Bits(bits) => {
                let $get = move |row: usize| bits.get(row) as u32;
                $body
            }
            CodesView::U8(v) => {
                let $get = move |row: usize| v[row] as u32;
                $body
            }
            CodesView::U16(v) => {
                let $get = move |row: usize| v[row] as u32;
                $body
            }
            CodesView::U32(v) => {
                let $get = move |row: usize| v[row];
                $body
            }
        }
    };
}

// ---------------------------------------------------------------------------
// Filter masks
// ---------------------------------------------------------------------------

/// A `WHERE` tree compiled once per query (by `Plan::prepare`), evaluated
/// once per `Partial` chunk by [`filter_mask`].
pub(crate) struct FilterPlan {
    root: Pred,
    /// Base columns read by the leaves the resolver declined
    /// ([`Pred::Table`], [`Pred::RowEval`]), by name — the only columns
    /// whose chunk-dictionary values a mask ever materializes.
    value_cols: Vec<(String, Arc<StoredColumn>)>,
}

enum Pred {
    Const(bool),
    And(Vec<Pred>),
    Or(Vec<Pred>),
    Not(Box<Pred>),
    /// A restriction leaf in the id domain: per chunk, integer work on the
    /// chunk dictionary's sorted global-ids and the row codes.
    Ids(ResolvedLeaf),
    /// A single-column leaf the resolver declined: a truth table over
    /// `value_cols[col]`'s chunk-dictionary values, one `eval_expr` each.
    Table {
        col: usize,
        expr: Expr,
    },
    /// Multi-column subtree: evaluate per row.
    RowEval(Expr),
}

impl FilterPlan {
    /// Compile `filter` against `store`.
    ///
    /// `AND` / `OR` / `NOT` structure comes from the expression (the
    /// normalized [`Restriction`] carries no expression for what it calls
    /// opaque); each leaf goes through the same normalization and the same
    /// resolver ([`skip::resolve_leaf`]) the chunk verdicts use, and stays
    /// in the value domain only if the resolver declines it.
    pub(crate) fn compile(store: &DataStore, filter: &Expr) -> Result<FilterPlan> {
        let mut value_cols = Vec::new();
        let root = compile_pred(store, filter, &mut value_cols)?;
        Ok(FilterPlan { root, value_cols })
    }
}

fn compile_pred(
    store: &DataStore,
    expr: &Expr,
    value_cols: &mut Vec<(String, Arc<StoredColumn>)>,
) -> Result<Pred> {
    use pd_sql::{BinaryOp, UnaryOp};
    let mut compile = |e: &Expr| compile_pred(store, e, value_cols);
    Ok(match expr {
        Expr::Binary { op: BinaryOp::And, lhs, rhs } => join(true, [compile(lhs)?, compile(rhs)?]),
        Expr::Binary { op: BinaryOp::Or, lhs, rhs } => join(false, [compile(lhs)?, compile(rhs)?]),
        Expr::Unary { op: UnaryOp::Not, expr } => Pred::Not(Box::new(compile(expr)?)),
        leaf => {
            if let Some(resolved) = skip::resolve_leaf(store, &Restriction::from_expr(leaf))? {
                return Ok(Pred::Ids(resolved));
            }
            let mut names = Vec::new();
            leaf.referenced_columns(&mut names);
            let mut slots = Vec::with_capacity(names.len());
            for name in &names {
                slots.push(match value_cols.iter().position(|(n, _)| n == name) {
                    Some(slot) => slot,
                    None => {
                        value_cols.push((name.clone(), store.column(name)?));
                        value_cols.len() - 1
                    }
                });
            }
            match slots[..] {
                [] => {
                    let no_columns: &[(&str, Value)] = &[];
                    Pred::Const(truthy(&eval_expr(leaf, no_columns)?))
                }
                [col] => Pred::Table { col, expr: leaf.clone() },
                _ => Pred::RowEval(leaf.clone()),
            }
        }
    })
}

/// `l AND r` (`and`) or `l OR r` as one flat child list — `a AND b AND c`
/// parses left-deep — with the per-row children last, so that every other
/// child narrows the rows they are evaluated on. Under `AND`, id ranges on
/// one column intersect: a window (`ts >= a AND ts < b`) is one code pass.
fn join(and: bool, sides: [Pred; 2]) -> Pred {
    let mut children: Vec<Pred> = Vec::new();
    let flat = sides.into_iter().flat_map(|side| match (and, side) {
        (true, Pred::And(nested)) | (false, Pred::Or(nested)) => nested,
        (_, other) => vec![other],
    });
    for child in flat {
        let merged = and
            && children.iter_mut().any(|held| match (held, &child) {
                (
                    Pred::Ids(ResolvedLeaf { col: a, ids: LeafIds::Range { lo, hi } }),
                    Pred::Ids(ResolvedLeaf { col: b, ids: LeafIds::Range { lo: l, hi: h } }),
                ) if Arc::ptr_eq(a, b) => {
                    (*lo, *hi) = ((*lo).max(*l), (*hi).min(*h));
                    true
                }
                _ => false,
            });
        if !merged {
            children.push(child);
        }
    }
    children.sort_by_key(has_row_eval);
    if and {
        Pred::And(children)
    } else {
        Pred::Or(children)
    }
}

/// The rows of one chunk that satisfy the filter. The two constant shapes
/// are what lets the caller short-circuit: no kernel runs over `Empty`, and
/// `All` runs the kernels unmasked.
pub(crate) enum Mask {
    Empty,
    All,
    /// Bit `r` is set iff row `r` satisfies the filter.
    Rows(BitVec),
}

impl Mask {
    fn constant(all: bool) -> Mask {
        if all {
            Mask::All
        } else {
            Mask::Empty
        }
    }
}

/// Evaluate `plan` over chunk `chunk` (`rows` rows).
pub(crate) fn filter_mask(plan: &FilterPlan, chunk: usize, rows: usize) -> Result<Mask> {
    let values = plan.value_cols.iter().map(|_| OnceCell::new()).collect();
    let cx = ChunkCx { plan, chunk, rows, values };
    Ok(match cx.mask(&plan.root, None)? {
        Mask::Rows(bits) if bits.none() => Mask::Empty,
        Mask::Rows(bits) if bits.all() => Mask::All,
        mask => mask,
    })
}

/// One chunk's evaluation state.
struct ChunkCx<'a> {
    plan: &'a FilterPlan,
    chunk: usize,
    rows: usize,
    /// Per `plan.value_cols` entry, the chunk dictionary translated to
    /// values — built on first use, so a chunk whose id-domain conjuncts
    /// already decided it never calls `dict.value()`.
    values: Vec<OnceCell<Vec<Value>>>,
}

impl ChunkCx<'_> {
    fn values(&self, col: usize) -> &[Value] {
        self.values[col].get_or_init(|| {
            let column = &self.plan.value_cols[col].1;
            let ids = column.chunks[self.chunk].dict.values();
            ids.iter().map(|&gid| column.dict.value(gid)).collect()
        })
    }

    /// Evaluate `pred` into a mask.
    ///
    /// `scope` is the set of rows whose bits the caller will actually use
    /// (`None`: all of them): an `AND` passes its accumulated mask down so
    /// expensive `RowEval` subtrees run only on rows that survived the
    /// cheaper siblings (the per-row short-circuit of a row-at-a-time
    /// evaluator, recovered in mask form). The result describes the rows in
    /// `scope` only — `All` means all of *those*, and other bits of `Rows`
    /// are unspecified; every scope provider intersects the child result
    /// with that scope.
    fn mask(&self, pred: &Pred, scope: Option<&BitVec>) -> Result<Mask> {
        Ok(match pred {
            Pred::Const(b) => Mask::constant(*b),
            Pred::Ids(leaf) => ids_mask(leaf, self.chunk),
            Pred::Table { col, expr } => {
                let (name, column) = &self.plan.value_cols[*col];
                let table: Vec<bool> = self
                    .values(*col)
                    .iter()
                    .map(|v| {
                        let ctx: &[(&str, Value)] = &[(name.as_str(), v.clone())];
                        Ok(truthy(&eval_expr(expr, ctx)?))
                    })
                    .collect::<Result<_>>()?;
                table_mask(column.chunks[self.chunk].codes(), &table)
            }
            Pred::And(children) => {
                // Rows of the scope that satisfied every child so far
                // (`None`: all of them).
                let mut acc: Option<BitVec> = None;
                // Per-row children come last (see `join`), so they
                // see the narrowest possible scope. A child that is `All`
                // on this chunk — a conjunct whose own verdict is Full —
                // drops out.
                for c in children {
                    match self.mask(c, acc.as_ref().or(scope))? {
                        Mask::Empty => return Ok(Mask::Empty),
                        Mask::All => {}
                        Mask::Rows(mut child) => {
                            if let Some(outer) = acc.as_ref().or(scope) {
                                child.and_assign(outer);
                            }
                            if child.none() {
                                return Ok(Mask::Empty);
                            }
                            acc = Some(child);
                        }
                    }
                }
                acc.map_or(Mask::All, Mask::Rows)
            }
            Pred::Or(children) => {
                // Rows some child satisfied so far (`None`: none yet).
                let mut acc: Option<BitVec> = None;
                let accept = |acc: &mut Option<BitVec>, rows: BitVec| match acc {
                    Some(acc) => acc.or_assign(&rows),
                    None => *acc = Some(rows),
                };
                for c in children {
                    if !has_row_eval(c) {
                        match self.mask(c, scope)? {
                            Mask::Empty => {}
                            Mask::All => return Ok(Mask::All),
                            Mask::Rows(child) => accept(&mut acc, child),
                        }
                        continue;
                    }
                    // Per-row disjuncts (ordered last) only evaluate rows
                    // no earlier sibling already satisfied (and that are in
                    // scope) — the other half of the per-row short-circuit.
                    let mut remaining = match scope {
                        Some(s) => s.clone(),
                        None => BitVec::filled(self.rows, true),
                    };
                    if let Some(satisfied) = &acc {
                        let mut unsatisfied = satisfied.clone();
                        unsatisfied.negate();
                        remaining.and_assign(&unsatisfied);
                    }
                    if remaining.none() {
                        break;
                    }
                    match self.mask(c, Some(&remaining))? {
                        Mask::Empty => {}
                        Mask::All => accept(&mut acc, remaining),
                        Mask::Rows(mut child) => {
                            child.and_assign(&remaining);
                            accept(&mut acc, child);
                        }
                    }
                }
                acc.map_or(Mask::Empty, Mask::Rows)
            }
            Pred::Not(inner) => match self.mask(inner, scope)? {
                Mask::Empty => Mask::All,
                Mask::All => Mask::Empty,
                Mask::Rows(mut bits) => {
                    bits.negate();
                    Mask::Rows(bits)
                }
            },
            Pred::RowEval(expr) => {
                let mut bits = BitVec::filled(self.rows, false);
                let mut test = |row: usize| -> Result<()> {
                    if truthy(&eval_expr(expr, &FilterRowContext { cx: self, row })?) {
                        bits.set(row, true);
                    }
                    Ok(())
                };
                match scope {
                    None => (0..self.rows).try_for_each(&mut test)?,
                    Some(s) => s.iter_ones().try_for_each(&mut test)?,
                }
                Mask::Rows(bits)
            }
        })
    }
}

/// Does this subtree contain a per-row evaluation leaf?
fn has_row_eval(pred: &Pred) -> bool {
    match pred {
        Pred::Const(_) | Pred::Ids(_) | Pred::Table { .. } => false,
        Pred::And(children) | Pred::Or(children) => children.iter().any(has_row_eval),
        Pred::Not(inner) => has_row_eval(inner),
        Pred::RowEval(_) => true,
    }
}

/// An id-domain leaf on one chunk: the resolved global-ids become chunk-ids
/// through the chunk dictionary's sorted global-ids, and a row matches iff
/// its code is one of them. No value is looked at.
fn ids_mask(leaf: &ResolvedLeaf, chunk: usize) -> Mask {
    let ch = &leaf.col.chunks[chunk];
    let gids = ch.dict.values();
    match &leaf.ids {
        LeafIds::Range { lo, hi } => {
            let a = gids.partition_point(|g| g < lo);
            let b = gids.partition_point(|g| g < hi).max(a);
            interval_mask(ch.codes(), gids.len(), a, b, false)
        }
        LeafIds::In { ids, negated } => {
            // Chunk-ids of the resolved ids this chunk holds, ascending:
            // binary searches when the id set is much the smaller side, a
            // merge of the two sorted lists otherwise.
            let mut hits: Vec<usize> = Vec::new();
            if ids.len() * 8 < gids.len() {
                hits.extend(ids.iter().filter_map(|id| ch.dict.id_of(id)).map(|c| c as usize));
            } else {
                let mut wanted = ids.iter().peekable();
                for (cid, gid) in gids.iter().enumerate() {
                    while wanted.next_if(|id| *id < gid).is_some() {}
                    if wanted.peek() == Some(&gid) {
                        hits.push(cid);
                    }
                }
            }
            let Some((&first, &last)) = hits.first().zip(hits.last()) else {
                return Mask::constant(*negated);
            };
            if last - first + 1 == hits.len() {
                // One id, or neighbours in this chunk: `code == cid` is the
                // one-wide interval.
                interval_mask(ch.codes(), gids.len(), first, last + 1, *negated)
            } else {
                let mut table = vec![*negated; gids.len()];
                for cid in hits {
                    table[cid] = !*negated;
                }
                table_mask(ch.codes(), &table)
            }
        }
    }
}

/// Rows whose code lies in the chunk-id interval `[a, b)` of a chunk
/// dictionary with `n` entries — or, `negated`, outside it.
fn interval_mask(codes: CodesView<'_>, n: usize, a: usize, b: usize, negated: bool) -> Mask {
    // Every chunk-id occurs in some row, so the mask is constant exactly
    // when the interval is empty or covers the dictionary.
    if a == b {
        return Mask::constant(negated);
    }
    if a == 0 && b == n {
        return Mask::constant(!negated);
    }
    let (a, width) = (a as u32, (b - a) as u32);
    code_mask(codes, |code| (code.wrapping_sub(a) < width) != negated)
}

/// Rows whose code's `table` entry is set.
fn table_mask(codes: CodesView<'_>, table: &[bool]) -> Mask {
    if !table.contains(&true) {
        return Mask::Empty;
    }
    if !table.contains(&false) {
        return Mask::All;
    }
    code_mask(codes, |code| table[code as usize])
}

/// Tabulate `keep(code)` over a chunk's codes, one 64-row word at a time.
fn code_mask(codes: CodesView<'_>, keep: impl Fn(u32) -> bool) -> Mask {
    fn pack<T: Copy + Into<u32>>(codes: &[T], keep: impl Fn(u32) -> bool) -> Mask {
        let words = codes
            .chunks(64)
            .map(|rows| {
                rows.iter()
                    .enumerate()
                    .fold(0u64, |word, (i, &code)| word | (keep(code.into()) as u64) << i)
            })
            .collect();
        Mask::Rows(BitVec::from_words(words, codes.len()))
    }
    match codes {
        CodesView::Const { .. } => Mask::constant(keep(0)),
        // Two codes: the mask is the bit-set itself, its complement, or
        // constant.
        CodesView::Bits(bits) => match (keep(0), keep(1)) {
            (false, false) => Mask::Empty,
            (true, true) => Mask::All,
            (false, true) => Mask::Rows(bits.clone()),
            (true, false) => {
                let mut flipped = bits.clone();
                flipped.negate();
                Mask::Rows(flipped)
            }
        },
        CodesView::U8(v) => pack(v, keep),
        CodesView::U16(v) => pack(v, keep),
        CodesView::U32(v) => pack(v, keep),
    }
}

/// Row context for multi-column filter subtrees.
struct FilterRowContext<'a> {
    cx: &'a ChunkCx<'a>,
    row: usize,
}

impl RowContext for FilterRowContext<'_> {
    fn column(&self, name: &str) -> Result<Value> {
        let cols = &self.cx.plan.value_cols;
        let idx = cols
            .iter()
            .position(|(n, _)| n == name)
            .ok_or_else(|| Error::Schema(format!("unknown column `{name}`")))?;
        let code = cols[idx].1.chunks[self.cx.chunk].elements.get(self.row);
        Ok(self.cx.values(idx)[code as usize].clone())
    }
}

// ---------------------------------------------------------------------------
// Lanes — no row's add waits on the add just before it
// ---------------------------------------------------------------------------

/// Independent accumulators a loop deals its rows out to, merged once per
/// chunk: a loop adding every row into one slot runs at the latency of a
/// load → add → store chain, one into four at the core's throughput.
const LANES: usize = 4;

/// The largest counts array (or MIN/MAX code array) that splits into
/// [`LANES`] copies. Measured with a standalone loop (`rustc -O`, 2 000-row
/// chunks of u16 codes, 2-vCPU x86-64, fastest of 60 runs) against one
/// array: at 2–256 entries the split runs 0.76–0.94 ns/row on sorted codes
/// against 0.89–3.10 for one array, and 0.76–0.82 on random codes against
/// 0.80–1.71; at 512 and 1 024 entries it loses (1.09 vs 1.06, 0.95 vs
/// 0.73 ns/row on random codes): the copies no longer pay for their merge.
/// The MIN/MAX copies, in the engine against one array (40 000 rows in
/// 2 000-row chunks, 1 thread): `user` (10 groups, random order)
/// 0.99–1.10×, `date(timestamp)` (~180 groups) 0.82–0.89× unmasked and
/// 1.04× under a mask, and 0.33–0.51× on §3's sorted store.
const SPLIT_MAX: usize = 256;

/// The rows a loop visits where no row needs a group of its own.
#[derive(Clone, Copy)]
pub(crate) enum Rows<'a> {
    /// Every row of a chunk of this many.
    All(usize),
    /// The rows a mask passes.
    Passing(&'a BitVec),
}

impl Rows<'_> {
    fn of(rows: usize, mask: Option<&BitVec>) -> Rows<'_> {
        mask.map_or(Rows::All(rows), Rows::Passing)
    }

    /// How many rows there are: a mask's popcount.
    fn count(self) -> usize {
        match self {
            Rows::All(n) => n,
            Rows::Passing(mask) => mask.count_ones(),
        }
    }

    /// `body(lane, row)` for every row, ascending, dealt out to the lanes
    /// as [`in_lanes`] deals indices — a mask's set bits [`LANES`] at a
    /// time, lane `j` taking the `j`-th.
    #[inline(always)]
    fn in_lanes(self, mut body: impl FnMut(usize, usize)) {
        match self {
            Rows::All(n) => in_lanes(n, body),
            Rows::Passing(mask) => {
                for (w, &word) in mask.words().iter().enumerate() {
                    let mut bits = word;
                    'word: while bits != 0 {
                        for lane in 0..LANES {
                            body(lane, w * 64 + bits.trailing_zeros() as usize);
                            bits &= bits - 1;
                            if bits == 0 {
                                break 'word;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// `body(lane, i)` for `i` in `0..n`: [`LANES`] at a time, lane `j` taking
/// the `j`-th of each, and what is left over on lane 0. A lane is a
/// constant of the unrolled loop, so state indexed by it stays in
/// registers.
#[inline(always)]
fn in_lanes(n: usize, mut body: impl FnMut(usize, usize)) {
    let whole = n - n % LANES;
    for i in (0..whole).step_by(LANES) {
        for lane in 0..LANES {
            body(lane, i + lane);
        }
    }
    (whole..n).for_each(|i| body(0, i));
}

/// Per counter below `size` (at least 1), how many of `rows` name it
/// (`counter(row)`).
#[inline(always)]
fn histogram(size: usize, rows: Rows<'_>, counter: impl Fn(usize) -> usize) -> Vec<u64> {
    fold_cells(size, rows, 0, counter, |n, _| n + 1, |n, m| n + m)
}

/// Per cell below `size` (at least 1), `add(held, row)` over the rows of
/// `rows` that name it (`cell(row)`), from `seed`: in [`LANES`] copies of
/// the array, merged once at the end by `merge`, when `size` is at most
/// [`SPLIT_MAX`], else in one array.
#[inline(always)]
fn fold_cells<T: Copy>(
    size: usize,
    rows: Rows<'_>,
    seed: T,
    cell: impl Fn(usize) -> usize,
    add: impl Fn(T, usize) -> T,
    merge: impl Fn(T, T) -> T,
) -> Vec<T> {
    if size <= SPLIT_MAX {
        copies::<T, LANES>(size, rows, seed, cell, add, merge)
    } else {
        copies::<T, 1>(size, rows, seed, cell, add, merge)
    }
}

/// [`fold_cells`] into `N` copies of the array, lane `j` folding into copy
/// `j % N`. A function of its own per closure, small enough that every
/// closure in it inlines.
#[inline(never)]
fn copies<T: Copy, const N: usize>(
    size: usize,
    rows: Rows<'_>,
    seed: T,
    cell: impl Fn(usize) -> usize,
    add: impl Fn(T, usize) -> T,
    merge: impl Fn(T, T) -> T,
) -> Vec<T> {
    let mut cells = vec![seed; size * N];
    rows.in_lanes(|lane, row| {
        let at = lane % N * size + cell(row);
        cells[at] = add(cells[at], row);
    });
    let (first, copies) = cells.split_at_mut(size);
    for copy in copies.chunks_exact(size) {
        first.iter_mut().zip(copy).for_each(|(held, &other)| *held = merge(*held, other));
    }
    cells.truncate(size);
    cells
}

// ---------------------------------------------------------------------------
// Count kernels — the paper's `counts[elements[row]]++`
// ---------------------------------------------------------------------------

/// Single-key `COUNT(*)`: one pass over the codes into a flat array.
pub(crate) fn count_single(
    view: CodesView<'_>,
    distinct: usize,
    mask: Option<&BitVec>,
) -> Vec<u64> {
    let rows = view.len();
    match (mask, view) {
        // Two codes count in O(words).
        (None, CodesView::Bits(bits)) => {
            let ones = bits.count_ones() as u64;
            vec![rows as u64 - ones, ones]
        }
        _ => with_codes!(view, |get| {
            histogram(distinct.max(1), Rows::of(rows, mask), |row| get(row) as usize)
        }),
    }
}

/// Two-key fused `COUNT(*)`: `counts[code_a * nb + code_b]++` over a flat
/// array of size `na * nb` (callers guarantee the product is dense-sized).
pub(crate) fn count_fused(
    a: CodesView<'_>,
    b: CodesView<'_>,
    nb: usize,
    capacity: usize,
    mask: Option<&BitVec>,
) -> Vec<u64> {
    let rows = Rows::of(a.len(), mask);
    with_codes!(a, |get_a| with_codes!(b, |get_b| {
        histogram(capacity.max(1), rows, |row| get_a(row) as usize * nb + get_b(row) as usize)
    }))
}

// ---------------------------------------------------------------------------
// Group-index computation (pass A of the general path)
// ---------------------------------------------------------------------------

/// The groups of one chunk: the rows they hold, each such row's group and
/// every group's keys. A masked chunk's index visits only its passing
/// rows, so pass B costs what the filter lets through, not the chunk's
/// size.
pub(crate) struct GroupIndex<'a> {
    /// Which rows are in which group.
    pub members: Members<'a>,
    /// How many groups pass B fills. Some row is in each, but for the
    /// codes a mask leaves unused under [`Members::Codes`], which
    /// [`GroupIndex::table`] drops.
    pub group_count: usize,
    /// Per key column, the chunk-id each group has there, the groups in
    /// strictly ascending key order.
    pub keys: Vec<Vec<u32>>,
}

/// Which rows of a chunk are in which group.
pub(crate) enum Members<'a> {
    /// One group holds the rows: there is no key, or every key's chunk
    /// dictionary has one entry. No group is listed per row.
    One(Rows<'a>),
    /// One key's chunk codes are the groups: a row's group is its code,
    /// read off `key` as a loop walks `rows`. No group is listed per row.
    Codes { rows: Rows<'a>, key: CodesView<'a> },
    /// A group per row.
    Each {
        /// A masked chunk's passing rows, ascending; `None`: every row, in
        /// order.
        rows: Option<Vec<usize>>,
        /// Per row listed (or, `rows` being `None`, per row), its group.
        groups: Vec<u32>,
    },
}

/// Compute the group index of `key_chunks` over `rows` rows, of which
/// `mask` (if any) passes some, numbering the groups in ascending key-tuple
/// order. Chunk-ids order like global ids, so this is ascending
/// global-id-tuple order.
///
/// Keys whose chunk dictionaries all have one entry (`sizes` all 1), and no
/// key, make [`Members::One`]. Else `dense_capacity` is the checked product
/// of the key-dictionary sizes if it fits [`DENSE_GROUP_LIMIT`] (the caller
/// computes it once per chunk). Then one key's codes are the groups
/// ([`Members::Codes`]) if at least as many rows pass as its chunk
/// dictionary has entries, which every unmasked chunk's do. Otherwise the
/// rows are listed, and a row's key codes are packed into a `u64`, a
/// mixed-radix number over `sizes` (most significant key first) that
/// orders like its key tuple; the groups are the numbers' ranks: counted
/// off a flat array if dense (for one key, a table the size of its chunk
/// dictionary), else found by a sort, where a prefix that would overflow a
/// `u64` is replaced by its rank (below 2³²) before the next key is packed.
pub(crate) fn group_codes<'a>(
    key_chunks: &[&'a ColumnChunk],
    sizes: &[usize],
    rows: usize,
    mask: Option<&'a BitVec>,
    dense_capacity: Option<usize>,
) -> GroupIndex<'a> {
    if sizes.iter().all(|&n| n == 1) {
        let keys = vec![vec![0]; key_chunks.len()];
        return GroupIndex { members: Members::One(Rows::of(rows, mask)), group_count: 1, keys };
    }
    if let (Some(_), [key]) = (dense_capacity, key_chunks) {
        let (n, visited) = (key.dict.len() as usize, Rows::of(rows, mask));
        if n <= visited.count() {
            let members = Members::Codes { rows: visited, key: key.codes() };
            return GroupIndex { members, group_count: n, keys: vec![(0..n as u32).collect()] };
        }
    }
    let passing: Vec<usize> = match mask {
        Some(mask) => mask.iter_ones().collect(),
        None => (0..rows).collect(),
    };
    let mut packed = vec![0u64; passing.len()];
    // Every packed value is below `radix`.
    let mut radix = 1u64;
    for (ch, &n) in key_chunks.iter().zip(sizes) {
        let n = n as u64;
        if radix.checked_mul(n).is_none() {
            radix = rank(&mut packed, None);
        }
        radix *= n;
        with_codes!(ch.codes(), |get| {
            for (p, &row) in packed.iter_mut().zip(&passing) {
                *p = *p * n + u64::from(get(row));
            }
        });
    }
    let group_count = rank(&mut packed, dense_capacity) as usize;
    let mut groups = Vec::with_capacity(passing.len());
    // A row of each group, to read its keys off.
    let mut member = vec![0; group_count];
    for (&g, &row) in packed.iter().zip(&passing) {
        groups.push(g as u32);
        member[g as usize] = row;
    }
    let keys = key_chunks.iter().map(|ch| member.iter().map(|&r| ch.elements.get(r)).collect());
    let members = Members::Each { rows: mask.is_some().then_some(passing), groups };
    GroupIndex { members, group_count, keys: keys.collect() }
}

impl GroupIndex<'_> {
    /// The chunk table of these groups, given the columns pass B filled
    /// over them: every group holds some row, in ascending key order. Under
    /// a mask, [`Members::Codes`] fills a group for every code, so the
    /// codes no passing row holds are dropped here — read off a `COUNT`
    /// column's zeros if the slots have one, else found by one presence
    /// pass over the passing rows.
    pub(crate) fn table(self, slots: Vec<Column<u32>>) -> GroupTable<u32> {
        let Members::Codes { rows: Rows::Passing(mask), key } = self.members else {
            return GroupTable::new(self.group_count, self.keys, slots);
        };
        let counts = slots.iter().find_map(|slot| match slot {
            Column::Count(counts) => Some(counts),
            _ => None,
        });
        // Per code, 1 if a passing row holds it.
        let mut to: Vec<u32> = match counts {
            Some(counts) => counts.iter().map(|&n| u32::from(n > 0)).collect(),
            None => {
                let mut held = vec![0; self.group_count];
                with_codes!(key, |get| {
                    Rows::Passing(mask).in_lanes(|_, row| held[get(row) as usize] = 1)
                });
                held
            }
        };
        let mut keys = self.keys;
        keys[0].retain(|&code| to[code as usize] == 1);
        let held = keys[0].len();
        if held == self.group_count {
            return GroupTable::new(held, keys, slots);
        }
        // A held code's group moves to its rank among them, any other past
        // the end, where spreading drops it.
        let mut next = 0;
        for at in &mut to {
            (*at, next) = if *at == 1 { (next, next + 1) } else { (u32::MAX, next) };
        }
        let slots = slots.into_iter().map(|column| column.spread(&to, held)).collect();
        GroupTable::new(held, keys, slots)
    }
}

/// Replace each value by its rank among the distinct values, which are
/// below `capacity` if one is given; return how many there are.
fn rank(packed: &mut [u64], capacity: Option<usize>) -> u64 {
    let Some(capacity) = capacity else {
        let mut distinct = packed.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        for p in packed.iter_mut() {
            *p = distinct.partition_point(|&d| d < *p) as u64;
        }
        return distinct.len() as u64;
    };
    let mut rank_of = vec![u32::MAX; capacity];
    packed.iter().for_each(|&p| rank_of[p as usize] = 0);
    let mut ranks = 0;
    for rank in rank_of.iter_mut().filter(|rank| **rank != u32::MAX) {
        (*rank, ranks) = (ranks, ranks + 1);
    }
    packed.iter_mut().for_each(|p| *p = u64::from(rank_of[*p as usize]));
    u64::from(ranks)
}

/// Per key column, the chunk-ids of the mixed-radix group `numbers` over
/// the chunk-dictionary `sizes` (most-significant key first): each digit
/// is a chunk-id. The digits come off least significant first, one
/// division per key but the first — none for one key.
pub(crate) fn dense_keys(numbers: &[u32], sizes: &[usize]) -> Vec<Vec<u32>> {
    let mut rest = numbers.to_vec();
    let mut keys = vec![Vec::new(); sizes.len()];
    for (i, &n) in sizes.iter().enumerate().rev() {
        let n = n as u32;
        let digit = |g: &mut u32| {
            if i == 0 {
                return *g;
            }
            let digit = *g % n;
            *g /= n;
            digit
        };
        keys[i] = rest.iter_mut().map(digit).collect();
    }
    keys
}

// ---------------------------------------------------------------------------
// Aggregate slots (pass B)
// ---------------------------------------------------------------------------

/// One aggregate slot's column over a chunk: the pass-B loop for `slot`
/// over the rows of `index`, a value read per chunk-dictionary entry off
/// the typed dictionary, if at all; MIN/MAX cells are chunk-ids. No
/// loop adds a row into the slot the row before it added into: one group's
/// `COUNT` is the rows' count, its sums and extremes run in [`LANES`]
/// register lanes, and a small counts or extremes array splits.
///
/// Float sums are exact ([`FloatColumn`]) — the fold across chunks,
/// threads and shards can then add them in any grouping and still produce
/// bit-identical results.
pub(crate) fn accumulate(slot: &SlotPlan, c: usize, index: &GroupIndex) -> Column<u32> {
    let arg = slot.col.as_ref().map(|col| (col, &col.chunks[c]));
    let group_count = index.group_count;
    match slot.kind {
        SlotKind::Count => Column::Count(match &index.members {
            Members::One(rows) => vec![rows.count() as u64],
            Members::Codes { rows, key } => with_codes!(*key, |group| {
                histogram(group_count, *rows, move |row| group(row) as usize)
            }),
            Members::Each { groups, .. } => {
                histogram(group_count, Rows::All(groups.len()), |i| groups[i] as usize)
            }
        }),
        SlotKind::SumInt => {
            let (col, chunk) = arg.expect("SUM has an argument");
            let GlobalDict::Int(dict) = &col.dict else { unreachable!("an integer SUM") };
            let table = gather(chunk, dict.values());
            // A slice, so that `add` is `Copy`.
            let table = &table[..];
            let add =
                move |sum: i128, code: u32| sum.wrapping_add(i128::from(table[code as usize]));
            Column::SumInt(match &index.members {
                Members::One(rows) => {
                    let lanes = with_codes!(chunk.codes(), |get| {
                        fold_lanes(*rows, 0, |_, sum, row| add(sum, get(row)))
                    });
                    vec![lanes.into_iter().fold(0, i128::wrapping_add)]
                }
                Members::Codes { .. } | Members::Each { .. } => {
                    let sums = vec![0i128; group_count];
                    fold_members(chunk.codes(), index, sums, move |sums, g, code| {
                        sums[g] = add(sums[g], code)
                    })
                }
            })
        }
        SlotKind::SumFloat => {
            let (col, chunk) = arg.expect("SUM has an argument");
            let table = &float_table(col, chunk)[..];
            Column::SumFloat(match &index.members {
                Members::One(rows) => {
                    let mut exact = [const { None }; LANES];
                    let lanes = with_codes!(chunk.codes(), |get| {
                        fold_lanes(*rows, (0.0, 0.0), |lane, sum, row| {
                            let x = table[get(row) as usize];
                            FloatColumn::add_to_lane(sum, x, &mut exact[lane])
                        })
                    });
                    FloatColumn::of_lanes(lanes, exact)
                }
                Members::Codes { .. } | Members::Each { .. } => {
                    let sums = FloatColumn::new(group_count);
                    fold_members(chunk.codes(), index, sums, move |sums, g, code| {
                        sums.add(g, table[code as usize])
                    })
                }
            })
        }
        SlotKind::Min | SlotKind::Max => {
            let is_min = slot.kind == SlotKind::Min;
            let (_, chunk) = arg.expect("MIN/MAX has an argument");
            // Extreme chunk-id per group; every group holds a row. Chunk-id
            // order is value order: an extreme is a code minimum (or
            // maximum), for one group of every row the first (or last)
            // chunk-id.
            let codes = chunk.codes();
            let whole_chunk = matches!(index.members, Members::One(Rows::All(_)));
            let best = match (whole_chunk, is_min) {
                (true, true) => vec![0],
                (true, false) => vec![chunk.dict.len() - 1],
                (false, true) => fold_codes(codes, index, u32::MAX, u32::min),
                (false, false) => fold_codes(codes, index, 0, u32::max),
            };
            Column::Extreme { is_min, best: best.into_iter().map(Some).collect() }
        }
        SlotKind::Distinct { m } => {
            let (col, chunk) = arg.expect("COUNT DISTINCT has an argument");
            // The distinct (group, code) pairs of the passing rows as ascending
            // `g·n + code`: marked in a flat array, or sorted if that is big.
            let (n, listed) = (chunk.dict.len() as usize, index.members.count());
            let pairs: Vec<usize> = if proportionate((group_count * n) as u64, listed as u64) {
                let present = vec![false; group_count * n];
                let present = fold_members(chunk.codes(), index, present, move |present, g, c| {
                    present[g * n + c as usize] = true
                });
                (0..present.len()).filter(|&p| present[p]).collect()
            } else {
                let pairs = Vec::with_capacity(listed);
                let mut pairs = fold_members(chunk.codes(), index, pairs, move |pairs, g, c| {
                    pairs.push(g * n + c as usize)
                });
                pairs.sort_unstable();
                pairs.dedup();
                pairs
            };
            // Hash the value of each code some pair holds, once: chunk-ids
            // order like global ids, so one ordered dictionary walk, whose
            // sort keys hash as their values do (`sortkey::hash`).
            let mut held = vec![false; n];
            pairs.iter().for_each(|&p| held[p % n] = true);
            let held: Vec<u32> = (0..n as u32).filter(|&c| held[c as usize]).collect();
            let gids: Vec<u32> = held.iter().map(|&c| chunk.dict.values()[c as usize]).collect();
            let mut hash = vec![0u64; n];
            let mut codes = held.iter();
            col.dict.for_each_key(&gids, |key| {
                hash[*codes.next().expect("a key per code") as usize] = sortkey::hash(key)
            });
            let mut rest = &pairs[..];
            let sketches = (0..group_count)
                .map(|g| {
                    let (of_g, after) = rest.split_at(rest.partition_point(|&p| p < (g + 1) * n));
                    rest = after;
                    KmvSketch::from_parts(m, of_g.iter().map(|&p| hash[p - g * n]))
                })
                .collect();
            Column::Distinct { m, sketches }
        }
    }
}

/// `lanes[lane] = add(lane, lanes[lane], row)` for every row of `rows`,
/// from [`LANES`] copies of `seed`: one group's sums and extremes. A
/// function of its own per `add`, small enough that every closure in it
/// inlines, so that nothing takes the lanes' address and they stay in
/// registers.
#[inline(never)]
fn fold_lanes<T: Copy>(
    rows: Rows<'_>,
    seed: T,
    mut add: impl FnMut(usize, T, usize) -> T,
) -> [T; LANES] {
    let mut lanes = [seed; LANES];
    rows.in_lanes(|lane, row| lanes[lane] = add(lane, lanes[lane], row));
    lanes
}

impl Members<'_> {
    /// How many rows the groups hold.
    fn count(&self) -> usize {
        match self {
            Members::One(rows) | Members::Codes { rows, .. } => rows.count(),
            Members::Each { groups, .. } => groups.len(),
        }
    }
}

/// Per group of `index`, `pick(held, code)` over its rows' codes from
/// `seed`: one group's in [`LANES`] register lanes, more groups' through
/// [`fold_cells`]. Lanes and copies merge past those no row reached, which
/// still hold `seed`.
fn fold_codes(
    codes: CodesView<'_>,
    index: &GroupIndex,
    seed: u32,
    pick: impl Fn(u32, u32) -> u32,
) -> Vec<u32> {
    let merge = |held: u32, other: u32| if other == seed { held } else { pick(held, other) };
    with_codes!(codes, |get| match &index.members {
        Members::One(rows) => {
            let lanes = fold_lanes(*rows, seed, |_, held, row| pick(held, get(row)));
            vec![lanes.into_iter().fold(seed, merge)]
        }
        Members::Codes { rows, key } => with_codes!(*key, |group| {
            let add = |held, row| pick(held, get(row));
            fold_cells(index.group_count, *rows, seed, |row| group(row) as usize, add, merge)
        }),
        Members::Each { rows, groups } => {
            let listed = Rows::All(groups.len());
            let group = |i: usize| groups[i] as usize;
            match rows {
                Some(rows) => {
                    let add = |held, i: usize| pick(held, get(rows[i]));
                    fold_cells(index.group_count, listed, seed, group, add, merge)
                }
                None => {
                    let add = |held, row| pick(held, get(row));
                    fold_cells(index.group_count, listed, seed, group, add, merge)
                }
            }
        }
    })
}

/// `add(state, group, code)` for every row of `index`, from `state`: a
/// masked chunk's passing rows only, by their list or their mask — no row
/// the mask dropped is visited — or every row. `add` is `Copy`, its
/// captures held by value, so that [`fold_coded`]'s loops keep them in
/// registers as they keep `state`.
#[inline(always)]
fn fold_members<S>(
    codes: CodesView<'_>,
    index: &GroupIndex,
    mut state: S,
    add: impl Fn(&mut S, usize, u32) + Copy,
) -> S {
    with_codes!(codes, |get| match &index.members {
        Members::One(rows) => rows.in_lanes(|_, row| add(&mut state, 0, get(row))),
        Members::Codes { rows, key } => return fold_coded(codes, *rows, *key, state, add),
        Members::Each { rows: Some(rows), groups } => {
            for (&row, &g) in rows.iter().zip(groups) {
                add(&mut state, g as usize, get(row));
            }
        }
        Members::Each { rows: None, groups } => {
            for (row, &g) in groups.iter().enumerate() {
                add(&mut state, g as usize, get(row));
            }
        }
    });
    state
}

/// [`fold_members`] where one key's codes are the groups, each row's read
/// off `key`: one [`fold_rows`] per pair of code representations, out of
/// [`fold_members`]' line so that its other loops compile as they would
/// alone.
#[inline(never)]
fn fold_coded<S>(
    codes: CodesView<'_>,
    rows: Rows<'_>,
    key: CodesView<'_>,
    state: S,
    add: impl Fn(&mut S, usize, u32) + Copy,
) -> S {
    with_codes!(codes, |get| with_codes!(key, |group| {
        fold_rows(rows, state, move |state, row| add(state, group(row) as usize, get(row)))
    }))
}

/// `add(state, row)` for every row of `rows`, from `state`. A function of
/// its own per closure, small enough that every closure in it inlines.
#[inline(never)]
fn fold_rows<S>(rows: Rows<'_>, mut state: S, add: impl Fn(&mut S, usize)) -> S {
    rows.in_lanes(|_, row| add(&mut state, row));
    state
}

/// Process-wide count of dictionary→f64 tables built (diagnostics: the
/// kernel bench asserts memoization keeps this from scaling with the
/// aggregate count).
pub(crate) static FLOAT_TABLE_BUILDS: AtomicU64 = AtomicU64::new(0);

fn float_table(col: &StoredColumn, chunk: &ColumnChunk) -> Vec<f64> {
    FLOAT_TABLE_BUILDS.fetch_add(1, Ordering::Relaxed);
    let GlobalDict::Float(dict) = &col.dict else { unreachable!("a float SUM") };
    gather(chunk, dict.values())
}

/// Per chunk-id, its global id's entry of a typed dictionary's `values`.
fn gather<T: Copy>(chunk: &ColumnChunk, values: &[T]) -> Vec<T> {
    chunk.dict.values().iter().map(|&gid| values[gid as usize]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_encoding::{Elements, ElementsMode};

    fn elements(ids: &[u32], distinct: u32) -> Elements {
        Elements::encode(ids, distinct, ElementsMode::Optimized)
    }

    // -- Filter masks: searched against the row-at-a-time evaluator -------

    use crate::options::{BuildOptions, PartitionSpec};
    use pd_common::rng::Rng;
    use pd_common::{DataType, Row, Schema};
    use pd_data::Table;
    use pd_sql::{parse_query, BinaryOp};
    use std::collections::BTreeSet;

    const MASK_ROWS: usize = 900;

    /// Columns chosen by code representation: `one` is constant (`const`),
    /// `two` two-valued (`bits`), `s` / `x` low-cardinality (`u8`), `n` has
    /// more than 256 values per chunk (`u16`); a `basic()` build stores
    /// every one of them as `u32`. `x` holds both zeros and a NaN; `ts`
    /// spans ten days for the virtual fields.
    fn mask_table() -> Table {
        let schema = Schema::of(&[
            ("one", DataType::Str),
            ("two", DataType::Str),
            ("s", DataType::Str),
            ("n", DataType::Int),
            ("x", DataType::Float),
            ("ts", DataType::Int),
        ]);
        let xs = [-1.5, -0.0, 0.0, 0.5, 1.0, 2.0, 2.5, 1e30, f64::NAN];
        let mut t = Table::new(schema);
        for i in 0..MASK_ROWS as i64 {
            t.push_row(Row(vec![
                Value::from("only"),
                Value::from(["a", "b"][(i * i % 7 % 2) as usize]),
                Value::from(format!("s{:02}", i * 5 % 12)),
                Value::Int(i * 7 % 601 - 300),
                Value::Float(xs[(i * 11 % xs.len() as i64) as usize]),
                Value::Int(1_325_376_000 + i * 977),
            ]))
            .unwrap();
        }
        t
    }

    fn random_leaf(rng: &mut Rng) -> String {
        let cmp = |rng: &mut Rng| *rng.pick(&["<", "<=", ">", ">=", "=", "!="]);
        // Present, absent and out-of-range literals; Int against Float and
        // Float against Int, integral and not, both zeros, and floats no
        // integer stands for.
        let s_lit = |rng: &mut Rng| format!("'s{:02}'", rng.range_usize(0, 14));
        let n_lit = |rng: &mut Rng| match rng.range_usize(0, 10) {
            0 => "4.5".to_owned(),
            1 => "5.0".to_owned(),
            2 => "-0.0".to_owned(),
            3 => "0.0".to_owned(),
            4 => "1e30".to_owned(),
            5 => "9007199254740992.0".to_owned(),
            6 => "1000".to_owned(),
            _ => rng.range_i64_inclusive(-320, 320).to_string(),
        };
        let x_lit = |rng: &mut Rng| {
            (*rng.pick(&["0", "1", "2", "0.0", "-0.0", "0.7", "1e30", "3"])).to_owned()
        };
        match rng.range_usize(0, 16) {
            0 => format!("s {} {}", cmp(rng), s_lit(rng)),
            1 => format!("{} {} s", s_lit(rng), cmp(rng)),
            2 => {
                let not = *rng.pick(&["", "NOT "]);
                let list: Vec<String> = (0..rng.range_usize(1, 5)).map(|_| s_lit(rng)).collect();
                format!("s {not}IN ({})", list.join(", "))
            }
            3 | 4 => format!("n {} {}", cmp(rng), n_lit(rng)),
            5 => format!("{} {} n", n_lit(rng), cmp(rng)),
            6 => format!("n {}IN ({}, {})", rng.pick(&["", "NOT "]), n_lit(rng), n_lit(rng)),
            7 | 8 => format!("x {} {}", cmp(rng), x_lit(rng)),
            9 => format!("x {}IN ({}, {})", rng.pick(&["", "NOT "]), x_lit(rng), x_lit(rng)),
            10 => format!("one {} 'only'", rng.pick(&["=", "!=", "<", ">="])),
            11 => format!("two {} '{}'", cmp(rng), rng.pick(&["a", "b", "c"])),
            // Virtual-field leaves.
            12 => format!("hour(ts) {} {}", cmp(rng), rng.range_usize(0, 25)),
            13 => format!(
                "date(ts) {}IN ('2012-01-0{}', '2012-01-0{}')",
                rng.pick(&["", "NOT "]),
                rng.range_usize(1, 10),
                rng.range_usize(0, 10)
            ),
            // Opaque single-column leaves, then two-column ones.
            14 => (*rng.pick(&["contains(s, '1')", "n * 2 > n + 3"])).to_owned(),
            _ => (*rng.pick(&["n > x", "contains(s, two)", "n + ts > 1325376500"])).to_owned(),
        }
    }

    fn random_filter(rng: &mut Rng, depth: usize) -> String {
        if depth == 0 || rng.chance(0.3) {
            return random_leaf(rng);
        }
        let (l, r) = (random_filter(rng, depth - 1), random_filter(rng, depth - 1));
        match rng.range_usize(0, 5) {
            0 | 1 => format!("({l} AND {r})"),
            2 | 3 => format!("({l} OR {r})"),
            _ => format!("NOT ({l} {} {r})", rng.pick(&["AND", "OR"])),
        }
    }

    fn parse_filter(where_sql: &str) -> Expr {
        parse_query(&format!("SELECT COUNT(*) FROM t WHERE {where_sql}"))
            .unwrap()
            .where_clause
            .unwrap()
    }

    /// The oracle: `eval_expr` per row over the stored values.
    fn reference_mask(store: &DataStore, filter: &Expr, chunk: usize) -> Vec<bool> {
        struct StoredRow<'a> {
            store: &'a DataStore,
            chunk: usize,
            row: usize,
        }
        impl RowContext for StoredRow<'_> {
            fn column(&self, name: &str) -> Result<Value> {
                Ok(self.store.column(name)?.value_at(self.chunk, self.row))
            }
        }
        (0..store.chunk_rows(chunk))
            .map(|row| truthy(&eval_expr(filter, &StoredRow { store, chunk, row }).unwrap()))
            .collect()
    }

    fn assert_masks_match_reference(store: &DataStore, filter: &Expr, label: &str) {
        let plan = FilterPlan::compile(store, filter).unwrap();
        for chunk in 0..store.chunk_count() {
            let rows = store.chunk_rows(chunk);
            let want = reference_mask(store, filter, chunk);
            let got: Vec<bool> = match filter_mask(&plan, chunk, rows).unwrap() {
                Mask::Empty => vec![false; rows],
                Mask::All => vec![true; rows],
                Mask::Rows(bits) => {
                    assert!(!bits.none() && !bits.all(), "constant masks are normalized: {label}");
                    bits.iter().collect()
                }
            };
            let differs = got.iter().zip(&want).position(|(g, w)| g != w);
            assert_eq!(differs, None, "chunk {chunk}, first differing row: {label}");
        }
    }

    #[test]
    fn filter_masks_equal_the_per_row_evaluator_on_every_code_representation() {
        let table = mask_table();
        let sorted = table.sorted_by(&["s"]).unwrap();
        let spec = PartitionSpec::new(&["s"], 450);
        let stores = [
            ("basic", DataStore::build(&table, &BuildOptions::basic()).unwrap()),
            ("optcols", DataStore::build(&table, &BuildOptions::optcols(spec.clone())).unwrap()),
            // Front-coded dictionaries: string ranges rank their bounds in a block.
            ("sorted", DataStore::build(&sorted, &BuildOptions::optdicts(spec)).unwrap()),
        ];
        let mut reprs = BTreeSet::new();
        for (_, store) in &stores {
            for name in store.column_names() {
                reprs.extend(
                    store.column(&name).unwrap().chunks.iter().map(|c| c.elements.repr_name()),
                );
            }
        }
        assert_eq!(
            reprs.into_iter().collect::<Vec<_>>(),
            ["bitset", "const", "u16", "u32", "u8"],
            "the table must exercise every representation"
        );

        let mut rng = Rng::seed_from_u64(0x5eed_0016);
        for case in 0..400 {
            let sql = random_filter(&mut rng, 3);
            let filter = parse_filter(&sql);
            for (name, store) in &stores {
                assert_masks_match_reference(store, &filter, &format!("case {case} {name}: {sql}"));
            }
        }
    }

    #[test]
    fn unresolvable_float_literals_fall_back_to_values_in_masks() {
        // The three cases an `as i64` cast gets wrong, plus the NaN bound
        // SQL text cannot spell: none may reach the id domain, and every
        // mask must still equal the evaluator.
        let table = mask_table();
        let store = DataStore::build(&table, &BuildOptions::basic()).unwrap();
        let n_vs = |op: BinaryOp, v: f64| Expr::Binary {
            op,
            lhs: Box::new(Expr::column("n")),
            rhs: Box::new(Expr::Literal(Value::Float(v))),
        };
        for v in [1e30, -1e30, f64::NAN, -f64::NAN, f64::INFINITY, 9_007_199_254_740_992.0, -0.0] {
            for op in [BinaryOp::Eq, BinaryOp::Ne, BinaryOp::Lt, BinaryOp::Le, BinaryOp::Ge] {
                let filter = n_vs(op, v);
                let plan = FilterPlan::compile(&store, &filter).unwrap();
                assert!(
                    matches!(plan.root, Pred::Table { .. }),
                    "{filter} must not resolve to ids"
                );
                assert_masks_match_reference(&store, &filter, &filter.to_string());
            }
        }
        // ... while ordinary literals do resolve.
        let plan = FilterPlan::compile(&store, &n_vs(BinaryOp::Ge, 4.5)).unwrap();
        assert!(matches!(plan.root, Pred::Ids(_)));
        assert!(plan.value_cols.is_empty(), "id leaves read no values");
    }

    #[test]
    fn only_declined_leaves_materialize_values() {
        let table = mask_table();
        let spec = PartitionSpec::new(&["s"], 450);
        let store =
            DataStore::build(&table.sorted_by(&["s"]).unwrap(), &BuildOptions::optdicts(spec))
                .unwrap();
        let cols = |sql: &str| -> Vec<String> {
            let plan = FilterPlan::compile(&store, &parse_filter(sql)).unwrap();
            plan.value_cols.into_iter().map(|(name, _)| name).collect()
        };
        assert!(cols("n >= 3 AND n < 90 AND date(ts) = '2012-01-02' AND s != 's03'").is_empty());
        // A string range on a front-coded dictionary is an id leaf too: the
        // dictionary ranks its bound.
        assert!(cols("s >= 's05' AND n > 3").is_empty());
        // A call is declined; the id leaf beside it still reads nothing.
        assert_eq!(cols("n > 3 AND (contains(s, '1') OR n > x)"), ["s", "n", "x"]);
    }

    #[test]
    fn count_single_matches_naive_for_every_repr() {
        for distinct in [1u32, 2, 5, 300, 70_000] {
            let ids: Vec<u32> = (0..500).map(|i| (i * 7 + 3) % distinct).collect();
            let e = elements(&ids, distinct);
            let mut naive = vec![0u64; distinct as usize];
            for &id in &ids {
                naive[id as usize] += 1;
            }
            let counts = count_single(e.codes(), distinct as usize, None);
            assert_eq!(counts, naive, "distinct={distinct}");
        }
    }

    #[test]
    fn count_single_respects_mask() {
        let ids: Vec<u32> = (0..100).map(|i| i % 4).collect();
        let e = elements(&ids, 4);
        let mask: BitVec = (0..100).map(|i| i % 2 == 0).collect();
        let counts = count_single(e.codes(), 4, Some(&mask));
        let mut naive = vec![0u64; 4];
        for (i, &id) in ids.iter().enumerate() {
            if i % 2 == 0 {
                naive[id as usize] += 1;
            }
        }
        assert_eq!(counts, naive);
    }

    #[test]
    fn count_fused_equals_pairwise_naive() {
        let a: Vec<u32> = (0..300).map(|i| i % 3).collect();
        let b: Vec<u32> = (0..300).map(|i| (i * 11) % 7).collect();
        let ea = elements(&a, 3);
        let eb = elements(&b, 7);
        let counts = count_fused(ea.codes(), eb.codes(), 7, 21, None);
        let mut naive = vec![0u64; 21];
        for i in 0..300 {
            naive[(a[i] * 7 + b[i]) as usize] += 1;
        }
        assert_eq!(counts, naive);
    }

    /// `group_codes` against a `BTreeMap` of the passing rows' key tuples,
    /// over random chunks of 0–3 keys: one group (no key, or one entry in
    /// every key's dictionary), one key's codes unmasked and under a mask
    /// that passes at least as many rows as the key has codes, one key
    /// listed under a mask that passes fewer, more keys dense unmasked and
    /// masked, sparse, and sparse with radices 2⁴⁰ times the dictionary
    /// sizes, so that two keys already overflow a `u64` and the packing
    /// must rank its prefix first. The groups ascend strictly, the index
    /// visits exactly the passing rows in ascending order (a listed one
    /// lists them, an unmasked one every row), every row's group holds
    /// that row's tuple and every group holds its rows. The chunk table
    /// ([`GroupIndex::table`]) is the distinct tuples in ascending order,
    /// each with its rows' count, whether it reads the unused codes off a
    /// `COUNT` column or finds them itself.
    #[test]
    fn group_codes_number_the_passing_key_tuples_in_ascending_order() {
        use pd_encoding::ChunkDict;
        use std::collections::BTreeMap;
        let mut rng = Rng::seed_from_u64(0x5eed_0036);
        // One key's codes unmasked, under a mask, one key listed, more keys
        // dense unmasked, dense masked, sparse, overflowing, one group.
        let mut reached = [false; 8];
        for case in 0..600 {
            let rows = rng.range_usize(1, 300);
            let mode = *rng.pick(&[ElementsMode::Basic, ElementsMode::Optimized]);
            // Each key's chunk as a store builds it: the sorted distinct
            // global-ids of its rows, and per row its chunk-id.
            let chunks: Vec<ColumnChunk> = (0..rng.range_usize(0, 4))
                .map(|_| {
                    let domain = rng.range_u64(1, 40);
                    let gids: Vec<u32> =
                        (0..rows).map(|_| (rng.range_u64(0, domain) * 3 + 1) as u32).collect();
                    let mut dict = gids.clone();
                    dict.sort_unstable();
                    dict.dedup();
                    let codes: Vec<u32> =
                        gids.iter().map(|g| dict.binary_search(g).unwrap() as u32).collect();
                    let elements = Elements::encode(&codes, dict.len() as u32, mode);
                    ColumnChunk { dict: ChunkDict::from_sorted(dict).unwrap(), elements }
                })
                .collect();
            let key_chunks: Vec<&ColumnChunk> = chunks.iter().collect();
            let mut sizes: Vec<usize> = chunks.iter().map(|ch| ch.dict.len() as usize).collect();
            let mask: Option<BitVec> =
                rng.chance(0.5).then(|| (0..rows).map(|_| rng.chance(0.6)).collect());
            let dense = match rng.range_usize(0, 3) {
                0 => Some(sizes.iter().product::<usize>()),
                1 => None,
                _ => {
                    sizes.iter_mut().for_each(|n| *n <<= 40);
                    None
                }
            };
            let overflows =
                sizes.iter().try_fold(1u64, |product, &n| product.checked_mul(n as u64)).is_none();

            let passes = |row: usize| mask.as_ref().is_none_or(|m| m.get(row));
            let tuple =
                |row: usize| -> Vec<u32> { chunks.iter().map(|ch| ch.elements.get(row)).collect() };
            let mut want: BTreeMap<Vec<u32>, usize> = BTreeMap::new();
            (0..rows).filter(|&r| passes(r)).for_each(|r| *want.entry(tuple(r)).or_default() += 1);

            let index = group_codes(&key_chunks, &sizes, rows, mask.as_ref(), dense);
            let label =
                format!("case {case}: {} keys, sizes {sizes:?}, dense {dense:?}", chunks.len());
            assert!(index.keys.iter().all(|col| col.len() == index.group_count), "{label}");
            let groups: Vec<Vec<u32>> = (0..index.group_count)
                .map(|g| index.keys.iter().map(|col| col[g]).collect())
                .collect();
            assert!(groups.windows(2).all(|pair| pair[0] < pair[1]), "{label}: ascending");
            let passing: Vec<usize> = (0..rows).filter(|&r| passes(r)).collect();
            let of_rows = |rows: &Rows| -> Vec<usize> {
                match rows {
                    Rows::All(n) => (0..*n).collect(),
                    Rows::Passing(bits) => bits.iter_ones().collect(),
                }
            };
            let (listed, row_groups): (Vec<usize>, Vec<u32>) = match &index.members {
                Members::One(one) => {
                    assert_eq!(index.group_count, 1, "{label}: one group");
                    reached[7] = true;
                    let listed = of_rows(one);
                    let groups = vec![0; listed.len()];
                    (listed, groups)
                }
                Members::Codes { rows: visited, key } => {
                    let [ch] = &chunks[..] else { panic!("{label}: codes of one key") };
                    assert!(dense.is_some(), "{label}: a dense key");
                    assert_eq!(index.group_count, ch.dict.len() as usize, "{label}: every code");
                    assert!(index.group_count <= passing.len(), "{label}: rows enough");
                    reached[mask.is_some() as usize] = true;
                    let listed = of_rows(visited);
                    let groups = with_codes!(*key, |get| listed.iter().map(|&r| get(r)).collect());
                    (listed, groups)
                }
                Members::Each { rows: listed, groups } => {
                    assert!(sizes.iter().any(|&n| n != 1), "{label}: more than one group");
                    assert_eq!(listed.is_some(), mask.is_some(), "{label}: listed iff masked");
                    reached[match (dense, overflows) {
                        (Some(_), _) if chunks.len() == 1 => {
                            assert!(want.len() < chunks[0].dict.len() as usize, "{label}");
                            assert!(passing.len() < chunks[0].dict.len() as usize, "{label}");
                            2
                        }
                        (Some(_), _) => 3 + mask.is_some() as usize,
                        (None, false) => 5,
                        (None, true) => 6,
                    }] = true;
                    (listed.clone().unwrap_or_else(|| (0..rows).collect()), groups.clone())
                }
            };
            assert_eq!(listed, passing, "{label}: the passing rows, ascending");
            assert_eq!(row_groups.len(), listed.len(), "{label}: one group per row visited");
            let mut members = vec![0; index.group_count];
            for (&row, &g) in listed.iter().zip(&row_groups) {
                assert_eq!(groups[g as usize], tuple(row), "{label}: row {row}");
                members[g as usize] += 1;
            }
            // Only a masked chunk's codes may hold groups of no row.
            let held: Vec<(Vec<u32>, usize)> =
                groups.into_iter().zip(members.iter().copied()).filter(|&(_, n)| n > 0).collect();
            if !matches!(index.members, Members::Codes { rows: Rows::Passing(_), .. }) {
                assert_eq!(held.len(), index.group_count, "{label}: some row in every group");
            }
            assert_eq!(held, want.clone().into_iter().collect::<Vec<_>>(), "{label}");

            // The table: the held groups, each with its count; an even case
            // hands it a `COUNT` column, an odd one no slot.
            let counted = case % 2 == 0;
            let slots = match counted {
                true => vec![Column::Count(members.iter().map(|&n| n as u64).collect())],
                false => Vec::new(),
            };
            let table = index.table(slots);
            let keys = (0..chunks.len()).map(|i| want.keys().map(|t| t[i]).collect()).collect();
            let slots = match counted {
                true => vec![Column::Count(want.values().map(|&n| n as u64).collect())],
                false => Vec::new(),
            };
            assert_eq!(table, GroupTable::new(want.len(), keys, slots), "{label}: the table");
        }
        assert_eq!(reached, [true; 8], "every path");
    }
}
