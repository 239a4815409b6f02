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
//!   global-ids, then one integer compare per row code, in the width the
//!   codes are stored in, into a byte of 0 or 1; each 8 bytes become 8
//!   mask bits by one multiply, so no shift is carried from row to row and
//!   the compares vectorize (an `AND` of ranges on one column is one
//!   interval, one pass); a leaf the resolver declines, of any number of
//!   columns, is evaluated once per distinct input tuple, through
//!   [`group_codes`] ([`eval_tuples`], the only place a filter
//!   materializes values), and its truth table over those numbers is the
//!   mask; `AND` / `OR` / `NOT` combine whole masks word-wise, with
//!   subtrees that are constant on the chunk folded away.
//! - [`group_codes`] computes a chunk's [`GroupIndex`]: which rows are in
//!   which group, and every group's keys, numbered in ascending key order
//!   so a chunk table is born ordered. **A row's group is a number**
//!   ([`Members::Codes`]) — the paper's `counts[elements[row]]++`. Dense
//!   keys' numbers are their digits: one key's codes as they are, more
//!   keys' mixed-radix numbers written one key at a time into one array;
//!   that path is taken when the product of the keys' chunk-dictionary
//!   sizes is dense and no larger than the rows that pass (always, for one
//!   key unmasked), and [`GroupIndex::table`] drops the numbers no passing
//!   row holds. Otherwise each passing row's packed mixed-radix number is
//!   ranked — off a flat array when the product is small, by a sort
//!   otherwise — and the rank is written at the row, the ranks' keys kept
//!   beside them. Pass B walks the chunk's rows, or its mask's set bits
//!   word by word, and reads a row's group off its number. A chunk of
//!   **one group** — no key, or one entry in every key's chunk dictionary
//!   — reads no number per row ([`Members::One`]).
//! - [`accumulate`] fills one aggregate slot's column
//!   ([`crate::groups::Column`]) over the index's (row, group) pairs with a
//!   per-slot tight loop: a `COUNT` is a histogram of the groups, a `SUM`
//!   gathers a per-chunk-id table from the typed dictionary, a MIN/MAX is a
//!   code minimum/maximum over a sorted one. A float `SUM` whose column is
//!   on one binary grid that admits the store's rows
//!   ([`pd_common::Grid`]) adds with plain `+` in the loops `COUNT` and
//!   MIN/MAX use, exact there; any other is a double-double pair per
//!   group ([`FloatColumn`]). `COUNT(DISTINCT …)` first
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
//! `i128` sums, doubles on a grid, double-double pairs, codes), and a
//! counts array, MIN/MAX code array or grid sums array of at most
//! [`SPLIT_MAX`] entries is written as [`LANES`] copies ([`fold_cells`]);
//! lanes and copies merge once per chunk, past the lanes no row reached. A
//! double-double lane merges through the exact merge that folds chunk
//! tables, a grid lane by a plain add that the grid makes exact, so every
//! answer is bit for bit the one a single slot gives. The loops are the
//! same for every row order.
//!
//! A chunk runs one set of kernels, whatever its query's shape: its mask,
//! [`group_codes`], one [`accumulate`] per slot, then [`GroupIndex::table`]
//! — or, where the query folds by id and no cache keeps the chunk's table,
//! [`GroupIndex::fold_into`], which adds the slot columns straight into the
//! fold, one walk per slot, each group at its global id. Every buffer those
//! steps write ([`IndexScratch`], [`Tables`], a slot's column, the mask's
//! words) is scratch that the thread scanning the chunk keeps across its
//! chunks, so such a chunk costs its rows and groups and allocates nothing
//! they size. `COUNT(*)` alone is a histogram of the groups like any
//! `COUNT` (a two-valued key's, unmasked, a popcount). Each kernel
//! dispatches on [`CodesView`] once per chunk and then runs a
//! monomorphized loop, one read per row, so the element representation
//! (const / bit-set / u8 / u16 / u32) costs no per-row branch.

use crate::column::{ColumnChunk, StoredColumn};
use crate::count_distinct::KmvSketch;
use crate::datastore::DataStore;
use crate::exec::{proportionate, SlotPlan};
use crate::groups::{Column, FloatColumn, GroupFold, GroupTable, SlotKind};
use crate::skip::{self, LeafIds, ResolvedLeaf};
use pd_common::{fsum, sortkey, BitVec, Result, Value};
use pd_encoding::{with_ids, ChunkIds, CodesView, GlobalDict};
use pd_sql::{eval_expr, truthy, Expr, Restriction};
use std::cell::{Cell, OnceCell};
use std::ops::ControlFlow;
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
    /// ([`Pred::Table`]), by name — the only columns whose
    /// chunk-dictionary values a mask ever materializes.
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
    /// A leaf the resolver declined: a truth table over the numbers of the
    /// tuples of `value_cols[cols]` ([`eval_tuples`]). A leaf of one column
    /// tabulates its whole chunk dictionary; one of more sees only the
    /// rows in its scope.
    Table {
        cols: Vec<usize>,
        expr: Expr,
    },
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
            let mut cols = Vec::with_capacity(names.len());
            for name in &names {
                cols.push(match value_cols.iter().position(|(n, _)| n == name) {
                    Some(slot) => slot,
                    None => {
                        value_cols.push((name.clone(), store.column(name)?));
                        value_cols.len() - 1
                    }
                });
            }
            if cols.is_empty() {
                let no_columns: &[(&str, Value)] = &[];
                Pred::Const(truthy(&eval_expr(leaf, no_columns)?))
            } else {
                Pred::Table { cols, expr: leaf.clone() }
            }
        }
    })
}

/// `l AND r` (`and`) or `l OR r` as one flat child list — `a AND b AND c`
/// parses left-deep — with the [`scoped`] children last, so that every
/// other child narrows the rows they are evaluated on. Under `AND`, id
/// ranges on one column intersect: a window (`ts >= a AND ts < b`) is one
/// code pass.
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
    children.sort_by_key(scoped);
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

/// Evaluate `plan` over chunk `chunk` (`rows` rows). The first leaf packed
/// packs into `words`' capacity; a constant mask gives its words back.
pub(crate) fn filter_mask(
    plan: &FilterPlan,
    chunk: usize,
    rows: usize,
    words: &mut Vec<u64>,
) -> Result<Mask> {
    let values = plan.value_cols.iter().map(|_| OnceCell::new()).collect();
    let spare = Cell::new(std::mem::take(words));
    let cx = ChunkCx { plan, chunk, rows, values, spare };
    let mask = cx.mask(&plan.root, None)?;
    *words = cx.spare.take();
    Ok(match mask {
        Mask::Rows(bits) if bits.none() || bits.all() => {
            let all = bits.all();
            *words = bits.into_words();
            Mask::constant(all)
        }
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
    /// Spare words for the first mask packed.
    spare: Cell<Vec<u64>>,
}

impl ChunkCx<'_> {
    fn values(&self, col: usize) -> &[Value] {
        self.values[col].get_or_init(|| self.plan.value_cols[col].1.chunk_values(self.chunk))
    }

    /// `pack(words)` with the spare words, which a mask packed takes.
    fn packed(&self, pack: impl FnOnce(&mut Vec<u64>) -> Mask) -> Mask {
        let mut words = self.spare.take();
        let mask = pack(&mut words);
        self.spare.set(words);
        mask
    }

    /// Evaluate `pred` into a mask.
    ///
    /// `scope` is the set of rows whose bits the caller will actually use
    /// (`None`: all of them): an `AND` passes its accumulated mask down so
    /// [`scoped`] subtrees evaluate only the tuples of rows that survived
    /// the cheaper siblings (the per-row short-circuit of a row-at-a-time
    /// evaluator, recovered in mask form). The result describes the rows in
    /// `scope` only — `All` means all of *those*, and other bits of `Rows`
    /// are unspecified; every scope provider intersects the child result
    /// with that scope.
    fn mask(&self, pred: &Pred, scope: Option<&BitVec>) -> Result<Mask> {
        Ok(match pred {
            Pred::Const(b) => Mask::constant(*b),
            Pred::Ids(leaf) => self.packed(|words| ids_mask(leaf, self.chunk, words)),
            Pred::Table { cols, expr } => {
                let sources: Vec<SourceRun<'_>> = (cols.iter())
                    .map(|&col| {
                        let (name, column) = &self.plan.value_cols[col];
                        let codes = column.chunks[self.chunk].codes();
                        SourceRun { name, values: self.values(col), codes }
                    })
                    .collect();
                let scope = scope.filter(|_| cols.len() > 1);
                let (index, values) = eval_tuples(expr, &sources, self.rows, scope, true)?;
                // Per number, whether a row in scope holds it and passes.
                let table: Vec<bool> =
                    values.iter().map(|v| v.as_ref().is_some_and(truthy)).collect();
                if !table.contains(&true) {
                    Mask::Empty
                } else if values.iter().flatten().all(truthy) {
                    Mask::All
                } else {
                    self.packed(|words| code_mask(index.numbers(), words, |g| table[g as usize]))
                }
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
                    if !scoped(c) {
                        match self.mask(c, scope)? {
                            Mask::Empty => {}
                            Mask::All => return Ok(Mask::All),
                            Mask::Rows(child) => accept(&mut acc, child),
                        }
                        continue;
                    }
                    // Scoped disjuncts (ordered last) only evaluate rows no
                    // earlier sibling already satisfied (and that are in
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
        })
    }
}

/// Does this subtree hold a leaf of more than one column, which evaluates
/// only the tuples of the rows in its scope?
fn scoped(pred: &Pred) -> bool {
    match pred {
        Pred::Const(_) | Pred::Ids(_) => false,
        Pred::Table { cols, .. } => cols.len() > 1,
        Pred::And(children) | Pred::Or(children) => children.iter().any(scoped),
        Pred::Not(inner) => scoped(inner),
    }
}

/// An id-domain leaf on one chunk: the resolved global-ids become chunk-ids
/// through the chunk dictionary's sorted global-ids, and a row matches iff
/// its code is one of them. No value is looked at.
fn ids_mask(leaf: &ResolvedLeaf, chunk: usize, words: &mut Vec<u64>) -> Mask {
    let ch = &leaf.col.chunks[chunk];
    let n = ch.dict.len() as usize;
    match &leaf.ids {
        LeafIds::Range { lo, hi } => {
            let a = ch.dict.lower_bound(*lo) as usize;
            let b = (ch.dict.lower_bound(*hi) as usize).max(a);
            interval_mask(ch.codes(), n, a, b, false, words)
        }
        LeafIds::In { ids, negated } => {
            // Chunk-ids of the resolved ids this chunk holds, ascending.
            let hits = |hit: &mut dyn FnMut(usize)| {
                let _ = ch.dict.for_each_held(ids, |cid| {
                    hit(cid as usize);
                    ControlFlow::Continue(())
                });
            };
            let (mut first, mut last, mut held) = (usize::MAX, 0, 0);
            hits(&mut |cid| (first, last, held) = (first.min(cid), last.max(cid), held + 1));
            if held == 0 {
                Mask::constant(*negated)
            } else if last - first + 1 == held {
                // One id, or neighbours in this chunk: `code == cid` is the
                // one-wide interval.
                interval_mask(ch.codes(), n, first, last + 1, *negated, words)
            } else {
                let mut table = vec![*negated; n];
                hits(&mut |cid| table[cid] = !*negated);
                // Not constant: the held ids are not all the entries.
                code_mask(ch.codes(), words, |code| table[code as usize])
            }
        }
    }
}

/// Rows whose code lies in the chunk-id interval `[a, b)` of a chunk
/// dictionary with `n` entries — or, `negated`, outside it — compared in
/// the width the codes are stored in.
fn interval_mask(
    codes: CodesView<'_>,
    n: usize,
    a: usize,
    b: usize,
    negated: bool,
    words: &mut Vec<u64>,
) -> Mask {
    // Every chunk-id occurs in some row, so the mask is constant exactly
    // when the interval is empty or covers the dictionary.
    if a == b {
        return Mask::constant(negated);
    }
    if a == 0 && b == n {
        return Mask::constant(!negated);
    }
    let (lo, width) = (a as u32, (b - a) as u32);
    // `u8` and `u16` codes compare as they are stored where every chunk-id
    // fits them, and so do `a` and `b - a < n`.
    match codes {
        CodesView::U8(v) if n <= 1 << 8 => {
            let (lo, width) = (lo as u8, width as u8);
            pack(v, words, |code| (code.wrapping_sub(lo) < width) != negated)
        }
        CodesView::U16(v) if n <= 1 << 16 => {
            let (lo, width) = (lo as u16, width as u16);
            pack(v, words, |code| (code.wrapping_sub(lo) < width) != negated)
        }
        _ => code_mask(codes, words, |code| (code.wrapping_sub(lo) < width) != negated),
    }
}

/// Tabulate `keep(code)` over a chunk's codes into the spare `words`.
fn code_mask(codes: CodesView<'_>, words: &mut Vec<u64>, keep: impl Fn(u32) -> bool) -> Mask {
    match codes {
        CodesView::Const { .. } => Mask::constant(keep(0)),
        // Two codes: the mask is the bit-set itself, its complement, or
        // constant.
        CodesView::Bits(bits) => match (keep(0), keep(1)) {
            (false, false) => Mask::Empty,
            (true, true) => Mask::All,
            (kept, _) => {
                let mut copy = std::mem::take(words);
                copy.clear();
                copy.extend_from_slice(bits.words());
                let mut copy = BitVec::from_words(copy, bits.len());
                if kept {
                    copy.negate();
                }
                Mask::Rows(copy)
            }
        },
        CodesView::U8(v) => pack(v, words, |code| keep(code.into())),
        CodesView::U16(v) => pack(v, words, |code| keep(code.into())),
        CodesView::U32(v) => pack(v, words, keep),
    }
}

/// `keep(code)` over `codes`, packed 64 rows per word into the spare
/// `words`: each 64-row block is compared into bytes of 0 or 1, and each 8
/// of them become 8 bits by one multiply — no shift carried from row to
/// row, so the compares vectorize. The bytes past a short last block are
/// cleared, so the last word's bits past the rows are zero.
fn pack_words<T: Copy>(codes: &[T], words: &mut Vec<u64>, keep: impl Fn(T) -> bool) -> Vec<u64> {
    let mut words = std::mem::take(words);
    words.clear();
    let mut bytes = [0u8; 64];
    for block in codes.chunks(64) {
        if block.len() < 64 {
            bytes = [0; 64];
        }
        for (byte, &code) in bytes.iter_mut().zip(block) {
            *byte = u8::from(keep(code));
        }
        let eights = bytes.chunks_exact(8).map(|eight| {
            let eight = u64::from_le_bytes(eight.try_into().expect("8 bytes"));
            eight.wrapping_mul(0x0102_0408_1020_4080) >> 56
        });
        words.push(eights.enumerate().fold(0, |word, (i, bits)| word | bits << (8 * i)));
    }
    words
}

/// [`pack_words`] as a mask of `codes.len()` rows.
fn pack<T: Copy>(codes: &[T], words: &mut Vec<u64>, keep: impl Fn(T) -> bool) -> Mask {
    Mask::Rows(BitVec::from_words(pack_words(codes, words, keep), codes.len()))
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
/// (`counter(row)`), in `cells`' buffer.
#[inline(always)]
fn histogram(
    cells: Vec<u64>,
    size: usize,
    rows: Rows<'_>,
    counter: impl Fn(usize) -> usize,
) -> Vec<u64> {
    fold_cells(cells, size, rows, 0, counter, |n, _| n + 1, |n, m| n + m)
}

/// Per cell below `size` (at least 1), `add(held, row)` over the rows of
/// `rows` that name it (`cell(row)`), from `seed`, in `cells`' buffer: in
/// [`LANES`] copies of the array, merged once at the end by `merge`, when
/// `size` is at most [`SPLIT_MAX`], else in one array.
#[inline(always)]
fn fold_cells<T: Copy>(
    cells: Vec<T>,
    size: usize,
    rows: Rows<'_>,
    seed: T,
    cell: impl Fn(usize) -> usize,
    add: impl Fn(T, usize) -> T,
    merge: impl Fn(T, T) -> T,
) -> Vec<T> {
    if size <= SPLIT_MAX {
        copies::<T, LANES>(cells, size, rows, seed, cell, add, merge)
    } else {
        copies::<T, 1>(cells, size, rows, seed, cell, add, merge)
    }
}

/// [`fold_cells`] into `N` copies of the array, lane `j` folding into copy
/// `j % N`. A function of its own per closure, small enough that every
/// closure in it inlines.
#[inline(never)]
fn copies<T: Copy, const N: usize>(
    mut cells: Vec<T>,
    size: usize,
    rows: Rows<'_>,
    seed: T,
    cell: impl Fn(usize) -> usize,
    add: impl Fn(T, usize) -> T,
    merge: impl Fn(T, T) -> T,
) -> Vec<T> {
    cells.clear();
    cells.resize(size * N, seed);
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
// Group-index computation (pass A)
// ---------------------------------------------------------------------------

/// The groups of one chunk: the rows they hold, each such row's group and
/// every group's keys. A masked chunk's index visits only its passing
/// rows, so pass B costs what the filter lets through, not the chunk's
/// size.
pub(crate) struct GroupIndex<'a> {
    /// Which rows are in which group.
    pub members: Members<'a>,
    /// How many groups pass B fills. Some row is in each, but for the
    /// digit numbers no passing row holds ([`Numbers::Key`],
    /// [`Numbers::Mixed`]), which [`GroupIndex::table`] drops.
    pub group_count: usize,
    /// Per key column, the chunk-id each group has there, the groups in
    /// strictly ascending key order, for one group and for ranks; none
    /// under digit numbers, whose keys are the numbers' digits.
    pub keys: Vec<Vec<u32>>,
}

/// Which rows of a chunk are in which group.
pub(crate) enum Members<'a> {
    /// One group holds the rows: there is no key, or every key's chunk
    /// dictionary has one entry. No group is read per row.
    One(Rows<'a>),
    /// A row's group is its number, read off `key` as a loop walks `rows`.
    Codes { rows: Rows<'a>, key: Numbers<'a> },
}

/// Every row's number under [`Members::Codes`]. A row a mask drops holds
/// 0, which every index numbers: a declined leaf's mask, a truth table over
/// the numbers, reads every row's.
pub(crate) enum Numbers<'a> {
    /// One key's chunk codes, as they are.
    Key(CodesView<'a>),
    /// More keys' mixed-radix numbers over the chunk-dictionary sizes (most
    /// significant key first), one per row of the chunk, written one key
    /// at a time.
    Mixed(Vec<u32>),
    /// Per row of the chunk, the rank of its key tuple among those the
    /// visited rows hold; [`GroupIndex::keys`] holds each rank's keys.
    Ranks(Vec<u32>),
}

impl Numbers<'_> {
    fn view(&self) -> CodesView<'_> {
        match self {
            Numbers::Key(codes) => *codes,
            Numbers::Mixed(numbers) | Numbers::Ranks(numbers) => CodesView::U32(numbers),
        }
    }
}

/// The arrays [`group_codes`] and the steps after it write, kept across
/// the chunks one thread scans ([`GroupIndex::recycle`] gives an index's
/// back): each is cleared or written in full before it is read.
#[derive(Default)]
pub(crate) struct IndexScratch {
    /// Per row, its number: more keys' digits, or a rank.
    numbers: Vec<u32>,
    /// The passing rows' packed key tuples.
    packed: Vec<u64>,
    /// Per packed tuple below a dense product, its rank.
    rank_of: Vec<u32>,
    /// Per rank, a row that holds it.
    member: Vec<usize>,
    /// Per key column, the chunk-id of each group: one group's, or ranks'.
    keys: Vec<Vec<u32>>,
    /// Per number, 1 if a visited row holds it.
    marks: Vec<u32>,
}

/// Compute the group index of the keys' codes over `rows` rows, of which
/// `mask` (if any) passes some, numbering the groups in ascending key-tuple
/// order, in `spare`'s arrays. Chunk-ids order like global ids, so this is
/// ascending global-id-tuple order.
///
/// Keys whose chunk dictionaries all have one entry (`sizes` all 1), and no
/// key, make [`Members::One`]. Else `dense_capacity` is the checked product
/// of the key-dictionary sizes if it fits [`DENSE_GROUP_LIMIT`] (the
/// caller's [`dense_capacity`], once per chunk). Then the keys' mixed-radix
/// numbers are the groups if no fewer rows pass than that product, which
/// every unmasked chunk's do for one key (a chunk dictionary holds no more
/// entries than its rows). Otherwise a passing row's key codes are packed
/// into a `u64`, its mixed-radix number, which orders like its key tuple,
/// and its group is that number's rank: counted off a flat array if dense,
/// else found by a sort, where a prefix that would overflow a `u64` is
/// replaced by its rank (below 2³²) before the next key is packed.
pub(crate) fn group_codes<'a>(
    codes: &[CodesView<'a>],
    sizes: &[usize],
    rows: usize,
    mask: Option<&'a BitVec>,
    dense_capacity: Option<usize>,
    spare: &mut IndexScratch,
) -> GroupIndex<'a> {
    let visited = Rows::of(rows, mask);
    let mut keys = || {
        let mut keys = std::mem::take(&mut spare.keys);
        keys.resize_with(codes.len(), Vec::new);
        keys.iter_mut().for_each(Vec::clear);
        keys
    };
    if sizes.iter().all(|&n| n == 1) {
        let mut keys = keys();
        keys.iter_mut().for_each(|cells| cells.push(0));
        return GroupIndex { members: Members::One(visited), group_count: 1, keys };
    }
    if let Some(product) = dense_capacity.filter(|&product| product <= visited.count()) {
        let key = match codes {
            [key] => Numbers::Key(*key),
            _ => {
                // An unmasked chunk's rows take the first key's digits as
                // they are; a masked chunk's passing rows only, walked by
                // the mask's set bits, over zeros.
                let mut numbers = std::mem::take(&mut spare.numbers);
                numbers.clear();
                match visited {
                    Rows::All(_) => with_codes!(codes[0], |get| numbers.extend((0..rows).map(get))),
                    Rows::Passing(_) => numbers.resize(rows, 0),
                }
                let skipped = usize::from(mask.is_none());
                for (&key, &n) in codes.iter().zip(sizes).skip(skipped) {
                    let n = n as u32;
                    with_codes!(key, |get| match visited {
                        Rows::All(_) => numbers
                            .iter_mut()
                            .enumerate()
                            .for_each(|(row, g)| *g = *g * n + get(row)),
                        Rows::Passing(_) => {
                            visited.in_lanes(|_, row| numbers[row] = numbers[row] * n + get(row))
                        }
                    });
                }
                Numbers::Mixed(numbers)
            }
        };
        let members = Members::Codes { rows: visited, key };
        return GroupIndex { members, group_count: product, keys: Vec::new() };
    }
    // The passing rows' packed tuples, ascending by row; every one is below
    // `radix`.
    let packed = &mut spare.packed;
    packed.clear();
    packed.resize(visited.count(), 0);
    let mut radix = 1u64;
    for (&key, &n) in codes.iter().zip(sizes) {
        let n = n as u64;
        if radix.checked_mul(n).is_none() {
            radix = rank(packed, None, &mut spare.rank_of);
        }
        radix *= n;
        let mut at = 0;
        with_codes!(key, |get| visited.in_lanes(|_, row| {
            packed[at] = packed[at] * n + u64::from(get(row));
            at += 1;
        }));
    }
    let group_count = rank(packed, dense_capacity, &mut spare.rank_of) as usize;
    // Each passing row's rank at its row, and a row of each group to read
    // its keys off.
    let (mut ranks, member, mut at) = (std::mem::take(&mut spare.numbers), &mut spare.member, 0);
    ranks.clear();
    ranks.resize(rows, 0);
    member.clear();
    member.resize(group_count, 0);
    visited.in_lanes(|_, row| {
        ranks[row] = packed[at] as u32;
        member[packed[at] as usize] = row;
        at += 1;
    });
    let mut keys = keys();
    for (cells, key) in keys.iter_mut().zip(codes) {
        cells.extend(member.iter().map(|&r| key.get(r)));
    }
    let members = Members::Codes { rows: visited, key: Numbers::Ranks(ranks) };
    GroupIndex { members, group_count, keys }
}

impl GroupIndex<'_> {
    /// Every row's group (a row a mask drops reads 0).
    fn numbers(&self) -> CodesView<'_> {
        match &self.members {
            Members::One(Rows::All(len)) => CodesView::Const { len: *len },
            Members::One(Rows::Passing(mask)) => CodesView::Const { len: mask.len() },
            Members::Codes { key, .. } => key.view(),
        }
    }

    /// Whether some number is held by no visited row, and if so, per
    /// number in `marks`, 1 if one is. One group and ranks are all held;
    /// one key's codes over every row are too if `every_code_held` (a
    /// chunk's are, a delta's need not be). Other digit numbers are held
    /// where `counts` (a `COUNT` column over them) is not zero, else where
    /// one presence pass over the visited rows finds them.
    fn mark(&self, counts: Option<&[u64]>, every_code_held: bool, marks: &mut Vec<u32>) -> bool {
        let (rows, key) = match &self.members {
            Members::One(_) | Members::Codes { key: Numbers::Ranks(_), .. } => return false,
            Members::Codes { rows: Rows::All(_), key: Numbers::Key(_) } if every_code_held => {
                return false
            }
            Members::Codes { rows, key } => (*rows, key),
        };
        marks.clear();
        match counts {
            Some(counts) => marks.extend(counts.iter().map(|&c| u32::from(c > 0))),
            None => {
                marks.resize(self.group_count, 0);
                with_codes!(key.view(), |get| rows.in_lanes(|_, row| marks[get(row) as usize] = 1));
            }
        }
        marks.contains(&0)
    }

    /// Per key column the chunk-id each held number has there, ascending,
    /// and whether some number is not held — then `marks` says which are
    /// ([`GroupIndex::mark`]). One group and ranks carry their keys (taken
    /// out of the index); digit numbers' keys are their digits.
    fn held(
        &mut self,
        sizes: &[usize],
        counts: Option<&[u64]>,
        every_code_held: bool,
        marks: &mut Vec<u32>,
    ) -> (bool, Vec<Vec<u32>>) {
        let partial = self.mark(counts, every_code_held, marks);
        if let Members::One(_) | Members::Codes { key: Numbers::Ranks(_), .. } = self.members {
            return (false, std::mem::take(&mut self.keys));
        }
        let held = (0..self.group_count as u32).filter(|&g| !partial || marks[g as usize] == 1);
        (partial, dense_keys(held.collect(), sizes))
    }

    /// The chunk table of these groups, given the keys' chunk-dictionary
    /// `sizes` and the columns pass B filled over them: every group holds
    /// some row, in ascending key order. The numbers no passing row holds
    /// ([`GroupIndex::mark`], read off a `COUNT` column's zeros if the
    /// slots have one) are dropped here, the columns compacted in place.
    /// The index's arrays go back to `spare`.
    pub(crate) fn table(
        mut self,
        sizes: &[usize],
        mut slots: Vec<Column<u32>>,
        spare: &mut IndexScratch,
    ) -> GroupTable<u32> {
        let (partial, keys) = self.held(sizes, count_column(&slots), true, &mut spare.marks);
        let (len, numbers) = (keys.first().map_or(self.group_count, Vec::len), self.group_count);
        self.recycle(spare);
        if partial {
            let held = (0..numbers).filter(|&g| spare.marks[g] == 1);
            slots.iter_mut().for_each(|column| column.compact(held.clone()));
        }
        GroupTable::new(len, keys, slots)
    }

    /// Add the `slots` pass B filled to a fold by id, one walk per slot,
    /// each group at its key's chunk-id's global id in `ids` (no key: id 0).
    /// One group, ranks and an unmasked chunk's codes are all held; a masked
    /// chunk's code is where its `COUNT` is not zero, or without one where
    /// it is marked ([`GroupIndex::mark`]), tested as the walk reaches it.
    pub(crate) fn fold_into(
        self,
        fold: &mut GroupFold,
        slots: &[Column<u32>],
        ids: Option<ChunkIds<'_>>,
        cell: impl Fn(usize, &u32) -> u32,
        spare: &mut IndexScratch,
    ) {
        let len = self.group_count;
        with_ids!(ids.unwrap_or(ChunkIds::U32(&[0])), |gid| {
            let id = |code: usize| gid(code) as usize;
            match &self.members {
                Members::One(_) => fold.add(len, slots, |_| Some(id(0)), cell),
                Members::Codes { key: Numbers::Ranks(_), .. } => {
                    let codes = &self.keys[0];
                    fold.add(len, slots, |g| Some(id(codes[g] as usize)), cell)
                }
                Members::Codes { rows: Rows::All(_), key: Numbers::Key(_) } => {
                    fold.add(len, slots, |code| Some(id(code)), cell)
                }
                Members::Codes { key: Numbers::Key(_), .. } => match count_column(slots) {
                    Some(n) => fold.add(len, slots, |code| (n[code] > 0).then(|| id(code)), cell),
                    None => {
                        self.mark(None, true, &mut spare.marks);
                        let marks = &spare.marks;
                        fold.add(len, slots, |code| (marks[code] == 1).then(|| id(code)), cell)
                    }
                },
                _ => unreachable!("a fold by id has one key or none"),
            }
        });
        self.recycle(spare);
    }

    /// Give the index's arrays back to `spare` for the next chunk.
    fn recycle(self, spare: &mut IndexScratch) {
        if let Members::Codes { key: Numbers::Mixed(numbers) | Numbers::Ranks(numbers), .. } =
            self.members
        {
            spare.numbers = numbers;
        }
        if !self.keys.is_empty() {
            spare.keys = self.keys;
        }
    }
}

/// The first `COUNT` column of `slots`.
fn count_column(slots: &[Column<u32>]) -> Option<&[u64]> {
    slots.iter().find_map(|slot| match slot {
        Column::Count(counts) => Some(&counts[..]),
        _ => None,
    })
}

/// The product of the keys' chunk-dictionary `sizes` if it fits
/// [`DENSE_GROUP_LIMIT`]: how many numbers [`group_codes`] may give dense
/// keys.
pub(crate) fn dense_capacity(sizes: &[usize]) -> Option<usize> {
    sizes.iter().try_fold(1usize, |product, &n| {
        product.checked_mul(n).filter(|&product| product <= DENSE_GROUP_LIMIT)
    })
}

/// Replace each value by its rank among the distinct values, which are
/// below `capacity` if one is given (ranked off `rank_of`, a flat array
/// that long); return how many there are.
fn rank(packed: &mut [u64], capacity: Option<usize>, rank_of: &mut Vec<u32>) -> u64 {
    let Some(capacity) = capacity else {
        let mut distinct = packed.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        for p in packed.iter_mut() {
            *p = distinct.partition_point(|&d| d < *p) as u64;
        }
        return distinct.len() as u64;
    };
    rank_of.clear();
    rank_of.resize(capacity, u32::MAX);
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
/// division per key but the first; the first key's are what is left —
/// for one key, the numbers themselves.
fn dense_keys(mut numbers: Vec<u32>, sizes: &[usize]) -> Vec<Vec<u32>> {
    let mut keys = vec![Vec::new(); sizes.len()];
    for (i, &n) in sizes.iter().enumerate().skip(1).rev() {
        let n = n as u32;
        // Each number gives its last digit and keeps the rest.
        keys[i] = numbers.iter_mut().map(|g| std::mem::replace(g, *g / n) % n).collect();
    }
    keys[0] = numbers;
    keys
}

// ---------------------------------------------------------------------------
// Expressions over rows: once per distinct input tuple
// ---------------------------------------------------------------------------

/// One column an expression reads over a run of rows (a chunk, or an
/// append's delta): the run's distinct values, and per row a code into them.
pub(crate) struct SourceRun<'a> {
    pub name: &'a str,
    pub values: &'a [Value],
    pub codes: CodesView<'a>,
}

/// Evaluate `expr` over the `rows` rows of `sources` that `scope` passes
/// (`None`: all; a scope passes some row): the rows are numbered by their
/// tuple of codes ([`group_codes`], the sources being its keys), and
/// `eval_expr` runs once per tuple some row in scope holds, in ascending
/// order — a function of a run's columns is a function of their codes
/// (§2's double dictionary). Returns the numbering and, per number, the
/// value on its tuple (`None` where no row in scope holds it).
/// `every_code_held`: every code below a source's value count occurs in
/// some row (a chunk's do; a delta's need not), so one source's codes,
/// unscoped, are evaluated without a pass over the rows.
pub(crate) fn eval_tuples<'a>(
    expr: &Expr,
    sources: &[SourceRun<'a>],
    rows: usize,
    scope: Option<&'a BitVec>,
    every_code_held: bool,
) -> Result<(GroupIndex<'a>, Vec<Option<Value>>)> {
    let sizes: Vec<usize> = sources.iter().map(|source| source.values.len().max(1)).collect();
    let codes: Vec<CodesView<'a>> = sources.iter().map(|source| source.codes).collect();
    // One source's codes are dense numbers, however many: its values are
    // as many.
    let dense = if let [size] = sizes[..] { Some(size) } else { dense_capacity(&sizes) };
    let mut spare = IndexScratch::default();
    let mut index = group_codes(&codes, &sizes, rows, scope, dense, &mut spare);
    let (partial, keys) = index.held(&sizes, None, every_code_held, &mut spare.marks);
    let n = index.group_count as u32;
    let held = (0..n).filter(|&g| !partial || spare.marks[g as usize] == 1);
    let mut values = vec![None; n as usize];
    let mut tuple: Vec<(&str, Value)> = sources.iter().map(|s| (s.name, Value::Null)).collect();
    for (at, number) in held.enumerate() {
        for ((cell, source), codes) in tuple.iter_mut().zip(sources).zip(&keys) {
            cell.1 = source.values[codes[at] as usize].clone();
        }
        values[number as usize] = Some(eval_expr(expr, &tuple[..])?);
    }
    Ok((index, values))
}

/// [`eval_tuples`] over every row of a run: its values go onto `values`,
/// and per row, in order, the position of the row's value there onto `at`.
pub(crate) fn eval_rows(
    expr: &Expr,
    sources: &[SourceRun<'_>],
    rows: usize,
    every_code_held: bool,
    values: &mut Vec<Value>,
    at: &mut Vec<u32>,
) -> Result<()> {
    let (index, tuples) = eval_tuples(expr, sources, rows, None, every_code_held)?;
    let position: Vec<u32> = (tuples.into_iter())
        .map(|value| {
            value.map_or(u32::MAX, |value| {
                values.push(value);
                values.len() as u32 - 1
            })
        })
        .collect();
    with_codes!(index.numbers(), |get| at.extend((0..rows).map(|row| position[get(row) as usize])));
    Ok(())
}

// ---------------------------------------------------------------------------
// Aggregate slots (pass B)
// ---------------------------------------------------------------------------

/// The per-chunk-id tables the slot loops read or write besides their
/// columns, kept across the chunks one thread scans: a `SUM`'s dictionary
/// values, a MIN/MAX's extreme codes.
#[derive(Default)]
pub(crate) struct Tables {
    ints: Vec<i64>,
    floats: Vec<f64>,
    codes: Vec<u32>,
}

/// One aggregate slot's column over a chunk: the pass-B loop for `slot`
/// over the rows of `index`, a value read per chunk-dictionary entry off
/// the typed dictionary, if at all; MIN/MAX cells are chunk-ids. The
/// column is written into `spare`'s buffers (a column of the slot's kind,
/// or any other for none), and its per-chunk-id tables into `tables`. No
/// loop adds a row into the slot the row before it added into: one group's
/// `COUNT` is the rows' count, its sums and extremes run in [`LANES`]
/// register lanes, and a small counts or extremes array splits.
///
/// Float sums are exact ([`FloatColumn`]) — the fold across chunks,
/// threads and shards can then add them in any grouping and still produce
/// bit-identical results: on a grid by plain adds, which the grid makes
/// exact ([`SlotPlan::grid`]), otherwise as double-double pairs.
pub(crate) fn accumulate(
    slot: &SlotPlan,
    c: usize,
    index: &GroupIndex,
    spare: Column<u32>,
    tables: &mut Tables,
) -> Column<u32> {
    let arg = slot.col.as_ref().map(|col| (col, &col.chunks[c]));
    let group_count = index.group_count;
    match slot.kind {
        SlotKind::Count => {
            let mut counts = match spare {
                Column::Count(counts) => counts,
                _ => Vec::new(),
            };
            counts.clear();
            Column::Count(match &index.members {
                Members::One(rows) => {
                    counts.push(rows.count() as u64);
                    counts
                }
                // Two codes count in O(words).
                Members::Codes {
                    rows: Rows::All(n),
                    key: Numbers::Key(CodesView::Bits(bits)),
                    ..
                } => {
                    let ones = bits.count_ones() as u64;
                    counts.extend([*n as u64 - ones, ones]);
                    counts
                }
                Members::Codes { rows, key } => with_codes!(key.view(), |group| {
                    histogram(counts, group_count, *rows, move |row| group(row) as usize)
                }),
            })
        }
        SlotKind::SumInt => {
            let (col, chunk) = arg.expect("SUM has an argument");
            let GlobalDict::Int(dict) = &col.dict else { unreachable!("an integer SUM") };
            gather(chunk, |gid| dict.value(gid), &mut tables.ints);
            // A slice, so that `add` is `Copy`.
            let table = &tables.ints[..];
            let add =
                move |sum: i128, code: u32| sum.wrapping_add(i128::from(table[code as usize]));
            let mut sums = match spare {
                Column::SumInt(sums) => sums,
                _ => Vec::new(),
            };
            sums.clear();
            Column::SumInt(match &index.members {
                Members::One(rows) => {
                    let lanes = with_codes!(chunk.codes(), |get| {
                        fold_lanes(*rows, 0, |_, sum, row| add(sum, get(row)))
                    });
                    sums.push(lanes.into_iter().fold(0, i128::wrapping_add));
                    sums
                }
                Members::Codes { .. } => {
                    sums.resize(group_count, 0);
                    fold_members(chunk.codes(), index, sums, move |sums, g, code| {
                        sums[g] = add(sums[g], code)
                    })
                }
            })
        }
        SlotKind::SumFloat => {
            let (col, chunk) = arg.expect("SUM has an argument");
            float_table(col, chunk, &mut tables.floats);
            let table = &tables.floats[..];
            let spare = match spare {
                Column::SumFloat(sums) => sums,
                _ => FloatColumn::new(0),
            };
            Column::SumFloat(match &index.members {
                // Every partial sum is exact: `COUNT`'s loops with a plain add.
                _ if slot.grid => {
                    let add = move |sum, code: u32| fsum::grid_add(sum, table[code as usize]);
                    let codes = chunk.codes();
                    spare.on_grid(|sums| fold_codes(sums, codes, index, 0.0, add, fsum::grid_add))
                }
                Members::One(rows) => {
                    let mut exact = [const { None }; LANES];
                    let lanes = with_codes!(chunk.codes(), |get| {
                        fold_lanes(*rows, (0.0, 0.0), |lane, sum, row| {
                            let x = table[get(row) as usize];
                            FloatColumn::add_to_lane(sum, x, &mut exact[lane])
                        })
                    });
                    FloatColumn::of_lanes(lanes, exact, spare)
                }
                Members::Codes { .. } => {
                    let sums = spare.reset(group_count);
                    fold_members(chunk.codes(), index, sums, move |sums, g, code| {
                        sums.add(g, table[code as usize])
                    })
                }
            })
        }
        SlotKind::Min | SlotKind::Max => {
            let is_min = slot.kind == SlotKind::Min;
            let (_, chunk) = arg.expect("MIN/MAX has an argument");
            let mut best = match spare {
                Column::Extreme { best, .. } => best,
                _ => Vec::new(),
            };
            best.clear();
            // Extreme chunk-id per group; every group holds a row. Chunk-id
            // order is value order: an extreme is a code minimum (or
            // maximum), for one group of every row the first (or last)
            // chunk-id.
            if let Members::One(Rows::All(_)) = index.members {
                best.push(Some(if is_min { 0 } else { chunk.dict.len() - 1 }));
            } else {
                let (codes, cells) = (chunk.codes(), std::mem::take(&mut tables.codes));
                let extremes = match is_min {
                    true => fold_codes(cells, codes, index, u32::MAX, u32::min, u32::min),
                    false => fold_codes(cells, codes, index, 0, u32::max, u32::max),
                };
                best.extend(extremes.iter().copied().map(Some));
                tables.codes = extremes;
            }
            Column::Extreme { is_min, best }
        }
        SlotKind::Distinct { m } => {
            let (col, chunk) = arg.expect("COUNT DISTINCT has an argument");
            // The distinct (group, code) pairs of the passing rows as ascending
            // `g·n + code`: marked in a flat array, or sorted if that is big.
            let (n, visited) = (chunk.dict.len() as usize, index.members.rows().count());
            let pairs: Vec<usize> = if proportionate((group_count * n) as u64, visited as u64) {
                let present = vec![false; group_count * n];
                let present = fold_members(chunk.codes(), index, present, move |present, g, c| {
                    present[g * n + c as usize] = true
                });
                (0..present.len()).filter(|&p| present[p]).collect()
            } else {
                let pairs = Vec::with_capacity(visited);
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
            let gids: Vec<u32> =
                with_ids!(chunk.dict.ids(), |id| held.iter().map(|&c| id(c as usize)).collect());
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

impl<'a> Members<'a> {
    /// The rows the groups hold.
    fn rows(&self) -> Rows<'a> {
        match self {
            Members::One(rows) | Members::Codes { rows, .. } => *rows,
        }
    }
}

/// Per group of `index`, `add(held, code)` over its rows' codes from
/// `seed`, in `cells`' buffer: one group's in [`LANES`] register lanes,
/// more groups' through [`fold_cells`]. Lanes and copies `merge` once, past
/// those no row reached, which still hold `seed`: `merge(held, seed)` must
/// be `held`.
fn fold_codes<T: Copy>(
    mut cells: Vec<T>,
    codes: CodesView<'_>,
    index: &GroupIndex,
    seed: T,
    add: impl Fn(T, u32) -> T,
    merge: impl Fn(T, T) -> T,
) -> Vec<T> {
    with_codes!(codes, |get| match &index.members {
        Members::One(rows) => {
            let lanes = fold_lanes(*rows, seed, |_, held, row| add(held, get(row)));
            cells.clear();
            cells.push(lanes.into_iter().fold(seed, merge));
            cells
        }
        Members::Codes { rows, key } => with_codes!(key.view(), |group| {
            let (add, size) = (|held, row| add(held, get(row)), index.group_count);
            fold_cells(cells, size, *rows, seed, |row| group(row) as usize, add, merge)
        }),
    })
}

/// `add(state, group, code)` for every row of `index`, from `state`: a
/// masked chunk's passing rows only, walked by the mask's set bits, or
/// every row; a row's group is read off its number. `add` is `Copy`, its
/// captures held by value, so that the loops keep them in registers as they
/// keep `state`: one [`fold_rows`] per pair of code representations.
#[inline(never)]
fn fold_members<S>(
    codes: CodesView<'_>,
    index: &GroupIndex,
    state: S,
    add: impl Fn(&mut S, usize, u32) + Copy,
) -> S {
    with_codes!(codes, |get| with_codes!(index.numbers(), |group| {
        fold_rows(index.members.rows(), state, move |state, row| {
            add(state, group(row) as usize, get(row))
        })
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

/// A float `SUM`'s dictionary values per chunk-id, into `table`.
fn float_table(col: &StoredColumn, chunk: &ColumnChunk, table: &mut Vec<f64>) {
    FLOAT_TABLE_BUILDS.fetch_add(1, Ordering::Relaxed);
    let GlobalDict::Float(dict) = &col.dict else { unreachable!("a float SUM") };
    gather(chunk, |gid| *dict.value(gid), table);
}

/// Per chunk-id, its global id's entry of a typed dictionary (`value`),
/// into `table`.
fn gather<T>(chunk: &ColumnChunk, value: impl Fn(u32) -> T, table: &mut Vec<T>) {
    table.clear();
    // One walk over the stored offsets, as wide as they are.
    match chunk.dict.ids() {
        ChunkIds::U8(first, v) => table.extend(v.iter().map(|&o| value(first + u32::from(o)))),
        ChunkIds::U16(first, v) => table.extend(v.iter().map(|&o| value(first + u32::from(o)))),
        ChunkIds::U32(ids) => table.extend(ids.iter().map(|&gid| value(gid))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_encoding::{Elements, ElementsMode};

    // -- Filter masks: searched against the row-at-a-time evaluator -------

    use crate::options::{BuildOptions, PartitionSpec};
    use pd_common::rng::Rng;
    use pd_common::{DataType, Row, Schema};
    use pd_data::Table;
    use pd_sql::{parse_query, BinaryOp, RowContext};
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
            let got: Vec<bool> = match filter_mask(&plan, chunk, rows, &mut Vec::new()).unwrap() {
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
        // Per chunk, the two-column leaves land on every side of
        // `group_codes`' rule: `contains(s, two)`'s numbers are no more
        // than the rows (the numbers are the groups), `n > x`'s are more
        // (the tuples ranked off a flat array), and the field `n + ts`'s
        // pass `DENSE_GROUP_LIMIT` (the tuples ranked by a sort).
        for (name, store) in &stores {
            for c in 0..store.chunk_count() {
                let rows = store.chunk_rows(c);
                let numbers = |cols: [&str; 2]| -> usize {
                    let size = |col: &str| store.column(col).unwrap().chunks[c].dict.len();
                    cols.map(size).iter().product::<u32>() as usize
                };
                assert!(numbers(["s", "two"]) <= rows, "{name} chunk {c}: numbered");
                assert!((rows + 1..=DENSE_GROUP_LIMIT).contains(&numbers(["n", "x"])), "{name}");
                assert!(numbers(["n", "ts"]) > DENSE_GROUP_LIMIT, "{name} chunk {c}: sorted");
            }
        }

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

    /// A declined leaf of two columns under `AND` is evaluated on the
    /// tuples of the rows its siblings leave, and on no other: here those
    /// of `n <= 0`, whose `if` yields `n`. A tuple of a row with `n > 0`
    /// would add `'a'` to a float and fail. (Both sides of its `>` read a
    /// column, so no resolver takes it, and no virtual field is made.)
    #[test]
    fn a_scoped_leaf_evaluates_only_the_tuples_its_scope_holds() {
        let store = DataStore::build(&mask_table(), &BuildOptions::basic()).unwrap();
        let leaf = "if(n > 0, 'a', n) + x > n";
        let row: &[(&str, Value)] = &[("n", Value::Int(1)), ("x", Value::Float(0.5))];
        assert!(eval_expr(&parse_filter(leaf), row).is_err(), "{leaf} fails where n > 0");
        let filter = parse_filter(&format!("n <= 0 AND {leaf}"));
        let plan = FilterPlan::compile(&store, &filter).unwrap();
        let Pred::And(children) = &plan.root else { panic!("an AND") };
        assert!(
            matches!(&children[..], [Pred::Ids(_), Pred::Table { cols, .. }] if cols.len() == 2)
        );
        assert_masks_match_reference(&store, &filter, &filter.to_string());
        assert!(store.virtual_names().is_empty());
    }

    /// A range leaf on a virtual field that fails to materialize — here on
    /// the rows with `n > 0`, where its `if` yields `'a'` — is declined, not
    /// an error: the mask evaluates it scoped, on the tuples of the rows
    /// `n <= 0` leaves, and no field is made. A column the store lacks is
    /// still an error.
    #[test]
    fn a_leaf_whose_field_fails_to_materialize_is_evaluated_scoped() {
        let store = DataStore::build(&mask_table(), &BuildOptions::basic()).unwrap();
        let filter = parse_filter("n <= 0 AND if(n > 0, 'a', n) + x > 0");
        let plan = FilterPlan::compile(&store, &filter).unwrap();
        let Pred::And(children) = &plan.root else { panic!("an AND") };
        assert!(matches!(&children[..], [Pred::Ids(_), Pred::Table { .. }]));
        assert_masks_match_reference(&store, &filter, &filter.to_string());
        assert!(store.virtual_names().is_empty());
        assert!(FilterPlan::compile(&store, &parse_filter("date(nosuch) = 'x'")).is_err());
    }

    /// A mask as one bool per row.
    fn mask_rows(mask: Mask, rows: usize) -> Vec<bool> {
        match mask {
            Mask::Empty => vec![false; rows],
            Mask::All => vec![true; rows],
            Mask::Rows(bits) => {
                assert_eq!(bits.len(), rows);
                assert!(clean_tail(bits.words(), rows), "a mask's last word ends in zeros");
                bits.iter().collect()
            }
        }
    }

    /// Whether the bits of the last of `words` past `rows` rows are zero.
    fn clean_tail(words: &[u64], rows: usize) -> bool {
        rows.is_multiple_of(64) || words.last().is_some_and(|&w| w >> (rows % 64) == 0)
    }

    /// [`code_mask`] and [`interval_mask`] against the per-row predicate,
    /// bit for bit, over every code representation at every length from 1
    /// to 300 (every residue mod 8 and mod 64): intervals empty, full,
    /// one-wide and random, each also negated, and random keep tables. One
    /// spare word buffer serves every mask, as a scan's scratch does, and
    /// the packer's own words end in zero bits past the rows.
    #[test]
    fn packed_masks_equal_the_per_row_predicate_at_every_length() {
        let mut rng = Rng::seed_from_u64(0x5eed_0075);
        let mut words = vec![u64::MAX; 3];
        for rows in 1..=300 {
            // Per representation: the dictionary size, the codes below it.
            let sizes = [
                1,
                2,
                rng.range_usize(3, 257),
                rng.range_usize(257, 2_000),
                rng.range_usize(1, 5_000),
            ];
            let codes: Vec<Vec<u32>> = (sizes.iter())
                .map(|&n| {
                    // Runs of one code beside scattered ones.
                    let run = rng.range_usize(0, n) as u32;
                    (0..rows)
                        .map(|_| if rng.chance(0.3) { run } else { rng.range_usize(0, n) as u32 })
                        .collect()
                })
                .collect();
            let bits: BitVec = codes[1].iter().map(|&c| c == 1).collect();
            let narrow: Vec<u8> = codes[2].iter().map(|&c| c as u8).collect();
            let wide: Vec<u16> = codes[3].iter().map(|&c| c as u16).collect();
            let views = [
                CodesView::Const { len: rows },
                CodesView::Bits(&bits),
                CodesView::U8(&narrow),
                CodesView::U16(&wide),
                CodesView::U32(&codes[4]),
            ];
            for ((view, &n), codes) in views.into_iter().zip(&sizes).zip(&codes) {
                assert_eq!(view.len(), rows);
                let label = |what: &str| format!("{rows} rows of {n} codes: {what}");
                let (a, b) = (rng.range_usize(0, n + 1), rng.range_usize(0, n + 1));
                let one = rng.range_usize(0, n);
                let intervals = [(0, 0), (n, n), (0, n), (one, one + 1), (a.min(b), a.max(b))];
                for (a, b) in intervals {
                    for negated in [false, true] {
                        let got =
                            mask_rows(interval_mask(view, n, a, b, negated, &mut words), rows);
                        let want: Vec<bool> = (codes.iter())
                            .map(|&c| (a as u32..b as u32).contains(&c) != negated)
                            .collect();
                        assert_eq!(got, want, "{}", label(&format!("[{a}, {b}), {negated}")));
                    }
                }
                let table: Vec<bool> = (0..n).map(|_| rng.chance(0.5)).collect();
                let keep = |code: u32| table[code as usize];
                let got = mask_rows(code_mask(view, &mut words, keep), rows);
                let want: Vec<bool> = codes.iter().map(|&c| keep(c)).collect();
                assert_eq!(got, want, "{}", label("a keep table"));
                let packed = match view {
                    CodesView::U8(v) => pack_words(v, &mut words, |c| keep(c.into())),
                    CodesView::U16(v) => pack_words(v, &mut words, |c| keep(c.into())),
                    CodesView::U32(v) => pack_words(v, &mut words, keep),
                    _ => continue,
                };
                assert_eq!(packed.len(), rows.div_ceil(64), "{}", label("one word per 64 rows"));
                assert!(clean_tail(&packed, rows), "{}", label("the last word's tail is zero"));
                let got: Vec<bool> =
                    (0..rows).map(|r| packed[r / 64] >> (r % 64) & 1 == 1).collect();
                assert_eq!(got, want, "{}", label("the packer's words"));
                words = packed;
            }
        }
    }

    /// A key's chunk as a store builds it from its rows' global-ids: the
    /// sorted distinct ids, and per row its chunk-id.
    fn key_chunk(gids: &[u32], mode: ElementsMode) -> ColumnChunk {
        let mut dict = gids.to_vec();
        dict.sort_unstable();
        dict.dedup();
        let codes: Vec<u32> = gids.iter().map(|g| dict.binary_search(g).unwrap() as u32).collect();
        let elements = Elements::encode(&codes, dict.len() as u32, mode);
        ColumnChunk { dict: pd_encoding::ChunkDict::from_sorted(dict, mode).unwrap(), elements }
    }

    /// Check [`group_codes`] on one chunk's keys against a `BTreeMap` of the
    /// passing rows' key tuples, and return the path it took: one key's
    /// codes unmasked (0) or masked (1), one key ranked (2), more keys'
    /// numbers unmasked (3) or masked (4), more keys ranked dense (5),
    /// sparse (6) or overflowing (7), one group (8).
    ///
    /// The groups ascend strictly, the index visits exactly the passing
    /// rows in ascending order (a masked one by its mask, an unmasked one
    /// every row), every row's group holds that row's tuple and every group
    /// but a digit number holds its rows; a `COUNT` slot ([`accumulate`]) counts
    /// them. The chunk table ([`GroupIndex::table`]) is the distinct tuples
    /// in ascending order — some row in every group —, each with its rows'
    /// count, whether it reads the unused numbers off that `COUNT` column
    /// (`counted`) or finds them itself.
    fn check_group_codes(
        chunks: &[ColumnChunk],
        sizes: &[usize],
        rows: usize,
        mask: Option<&BitVec>,
        dense: Option<usize>,
        counted: bool,
        label: &str,
    ) -> usize {
        use std::collections::BTreeMap;
        let passing: Vec<usize> = (0..rows).filter(|&r| mask.is_none_or(|m| m.get(r))).collect();
        let tuple =
            |row: usize| -> Vec<u32> { chunks.iter().map(|ch| ch.elements.get(row)).collect() };
        let mut want: BTreeMap<Vec<u32>, u64> = BTreeMap::new();
        passing.iter().for_each(|&r| *want.entry(tuple(r)).or_default() += 1);
        let overflows =
            sizes.iter().try_fold(1u64, |product, &n| product.checked_mul(n as u64)).is_none();

        let codes: Vec<CodesView<'_>> = chunks.iter().map(ColumnChunk::codes).collect();
        let mut spare = IndexScratch::default();
        let index = group_codes(&codes, sizes, rows, mask, dense, &mut spare);
        // Per group, its key tuple: a number's digits, most significant
        // key first, where the numbers are the groups' digits.
        let digits = matches!(
            &index.members,
            Members::Codes { key: Numbers::Key(_) | Numbers::Mixed(_), .. }
        );
        let groups: Vec<Vec<u32>> = (0..index.group_count)
            .map(|g| match digits {
                true => {
                    let mut rest = g;
                    let mut digits: Vec<u32> = (sizes.iter().rev())
                        .map(|&n| {
                            let digit = rest % n;
                            rest /= n;
                            digit as u32
                        })
                        .collect();
                    digits.reverse();
                    digits
                }
                _ => index.keys.iter().map(|col| col[g]).collect(),
            })
            .collect();
        assert!(groups.windows(2).all(|pair| pair[0] < pair[1]), "{label}: ascending");
        let of_rows = |rows: &Rows| -> Vec<usize> {
            match rows {
                Rows::All(n) => (0..*n).collect(),
                Rows::Passing(bits) => bits.iter_ones().collect(),
            }
        };
        let (path, listed, row_groups): (usize, Vec<usize>, Vec<u32>) = match &index.members {
            Members::One(one) => {
                assert_eq!(index.group_count, 1, "{label}: one group");
                let listed = of_rows(one);
                let groups = vec![0; listed.len()];
                (8, listed, groups)
            }
            Members::Codes { rows: visited, key } => {
                let masked = matches!(visited, Rows::Passing(_));
                assert_eq!(masked, mask.is_some(), "{label}: a mask's rows iff masked");
                let listed = of_rows(visited);
                let groups =
                    with_codes!(key.view(), |get| listed.iter().map(|&r| get(r)).collect());
                let path = if digits {
                    assert_eq!(Some(index.group_count), dense, "{label}: every number");
                    assert!(index.group_count <= passing.len(), "{label}: rows enough");
                    assert!(index.keys.is_empty(), "{label}: keys are the numbers' digits");
                    let first = if chunks.len() == 1 { 0 } else { 3 };
                    first + mask.is_some() as usize
                } else {
                    assert!(index.keys.iter().all(|col| col.len() == index.group_count), "{label}");
                    assert!(sizes.iter().any(|&n| n != 1), "{label}: more than one group");
                    match (dense, overflows) {
                        (Some(product), _) => {
                            assert!(passing.len() < product, "{label}: fewer rows than numbers");
                            if chunks.len() == 1 {
                                2
                            } else {
                                5
                            }
                        }
                        (None, false) => 6,
                        (None, true) => 7,
                    }
                };
                (path, listed, groups)
            }
        };
        assert_eq!(listed, passing, "{label}: the passing rows, ascending");
        assert_eq!(row_groups.len(), listed.len(), "{label}: one group per row visited");
        let mut members = vec![0u64; index.group_count];
        for (&row, &g) in listed.iter().zip(&row_groups) {
            assert_eq!(groups[g as usize], tuple(row), "{label}: row {row}");
            members[g as usize] += 1;
        }
        // Only digit numbers may be groups of no row.
        let held: Vec<(Vec<u32>, u64)> =
            groups.into_iter().zip(members.iter().copied()).filter(|&(_, n)| n > 0).collect();
        if !digits {
            assert_eq!(held.len(), index.group_count, "{label}: some row in every group");
        }
        assert_eq!(held, want.clone().into_iter().collect::<Vec<_>>(), "{label}");

        let slots = match counted {
            true => {
                let count = accumulate(
                    &SlotPlan { kind: SlotKind::Count, col: None, grid: false },
                    0,
                    &index,
                    Column::Count(Vec::new()),
                    &mut Tables::default(),
                );
                assert_eq!(count, Column::Count(members), "{label}: the counts");
                vec![count]
            }
            false => Vec::new(),
        };
        let table = index.table(sizes, slots, &mut spare);
        let keys = (0..chunks.len()).map(|i| want.keys().map(|t| t[i]).collect()).collect();
        let slots = match counted {
            true => vec![Column::Count(want.values().copied().collect())],
            false => Vec::new(),
        };
        assert_eq!(table, GroupTable::new(want.len(), keys, slots), "{label}: the table");
        path
    }

    /// [`check_group_codes`] over random chunks of 0–3 keys — dense,
    /// sparse, and sparse with radices 2⁴⁰ times the dictionary sizes, so
    /// that two keys already overflow a `u64` and the packing must rank its
    /// prefix first; unmasked and under random masks —, then over one key
    /// in every code representation (const, bits, u8, u16, and u32 at
    /// 70 000 codes) and two keys of 3 × 7, each unmasked and under a half
    /// mask. Every path is taken.
    #[test]
    fn group_codes_number_the_passing_key_tuples_in_ascending_order() {
        let mut rng = Rng::seed_from_u64(0x5eed_0036);
        let mut reached = [false; 9];
        for case in 0..600 {
            let rows = rng.range_usize(1, 300);
            let mode = *rng.pick(&[ElementsMode::Basic, ElementsMode::Optimized]);
            let chunks: Vec<ColumnChunk> = (0..rng.range_usize(0, 4))
                .map(|_| {
                    let domain = rng.range_u64(1, 40);
                    let gids: Vec<u32> =
                        (0..rows).map(|_| (rng.range_u64(0, domain) * 3 + 1) as u32).collect();
                    key_chunk(&gids, mode)
                })
                .collect();
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
            let label =
                format!("case {case}: {} keys, sizes {sizes:?}, dense {dense:?}", chunks.len());
            let counted = case % 2 == 0;
            reached
                [check_group_codes(&chunks, &sizes, rows, mask.as_ref(), dense, counted, &label)] =
                true;
        }

        let cases = [1u32, 2, 5, 300, 70_000].map(|distinct| {
            let rows = (distinct as usize).max(500);
            let gids: Vec<u32> = (0..rows as u32).map(|i| (i * 11 + 3) % distinct).collect();
            (rows, vec![key_chunk(&gids, ElementsMode::Optimized)])
        });
        let reprs: Vec<_> =
            cases.iter().map(|(_, chunks)| chunks[0].elements.repr_name()).collect();
        assert_eq!(reprs, ["const", "bitset", "u8", "u16", "u32"], "every representation");
        let a: Vec<u32> = (0..300).map(|i| i % 3).collect();
        let b: Vec<u32> = (0..300).map(|i| i * 11 % 7).collect();
        let two = (300, [a, b].map(|gids| key_chunk(&gids, ElementsMode::Optimized)).into());
        for (rows, chunks) in cases.into_iter().chain([two]) {
            let sizes: Vec<usize> = chunks.iter().map(|ch| ch.dict.len() as usize).collect();
            let product = sizes.iter().product::<usize>();
            let dense = (product <= DENSE_GROUP_LIMIT).then_some(product);
            let half: BitVec = (0..rows).map(|i| i % 2 == 0).collect();
            for (mask, counted) in
                [(None, true), (None, false), (Some(&half), true), (Some(&half), false)]
            {
                let label = format!("sizes {sizes:?}, masked {}", mask.is_some());
                reached[check_group_codes(&chunks, &sizes, rows, mask, dense, counted, &label)] =
                    true;
            }
        }
        assert_eq!(reached, [true; 9], "every path");
    }
}
