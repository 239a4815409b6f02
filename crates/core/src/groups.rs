//! The group table: the one representation of grouped aggregation states,
//! from a chunk kernel to the root of the computation tree, and the only
//! module that knows its layout.
//!
//! §2.4 groups by `counts[elements[row]]++` into arrays indexed by ids, §3
//! looks names up last and §4 merges partial results level by level.
//! [`GroupTable`] is those arrays: one **key column** per `GROUP BY`
//! expression and one typed **state column** per aggregate slot, group `g`
//! being position `g` of every column.
//!
//! Inside a store (the *id domain*) a cell (`K`) is a `u32` id and a key
//! column a `Vec<u32>`: a chunk kernel fills a chunk-local table of
//! chunk-ids, its groups born in ascending id order; that table is the
//! chunk-result cache's payload, a function of the chunk's rows alone;
//! [`GroupFold`] folds chunk tables into the store's table of global-ids,
//! reading each cell through its chunk dictionary, in the same order; the
//! executor's ranking reads columns.
//! Every dictionary is sorted, so in both domains a cell orders as the
//! value it stands for, and a MIN/MAX keeps the least or greatest cell. Where
//! stores meet (the *value domain*) a cell is a [`Value`]: a
//! [`PartialResult`] is the same table, every key column one byte buffer
//! ([`KeyBytes`]) of sort keys ([`pd_common::sortkey`], which `memcmp`
//! orders as [`Value::cmp`] orders the values), written by one ordered
//! dictionary walk, and every MIN/MAX column translated to values once. Its
//! groups are in **strictly ascending key order** (key tuples compared
//! column by column). The order is what makes the tree cheap: two partials
//! merge like sorted runs ([`PartialResult::merge`] — nothing is hashed,
//! keys are compared as byte slices and copied as bytes), equality is
//! column equality, the wire form is the columns as they are held, and the
//! root ranks the columns as they arrive, making a [`Value`] only for a
//! row it returns.
//!
//! A table holds *slots*, not aggregates: `pd_sql` lowers a query's
//! aggregates to them ([`pd_sql::AnalyzedQuery::slots`]), and what a query
//! reads off a table is decided when it is ranked ([`SlotRef`]). `AVG(x)`
//! is no column of its own: it reads the `sum(x)` slot and the `count`
//! slot, the same states a `SUM(x)` and a `COUNT(*)` read — so one table,
//! remembered once, answers all three.
//!
//! A float-sum slot is exact however its rows were split up. A chunk
//! kernel deals one group's rows out to a few lanes, each a slot's
//! double-double pair held by value in a register
//! ([`FloatColumn::add_to_lane`]), and merges them into one slot
//! ([`FloatColumn::of_lanes`]) by the merge that folds chunk tables: the
//! slot holds the exact sum a single slot fed row by row would hold. A
//! column on one binary grid that admits the store's rows
//! ([`fsum::Grid`]) is summed by plain adds instead, in the lanes and in
//! [`GroupFold`]: every partial sum is exact there, so the slot is the same.

use crate::count_distinct::KmvSketch;
use pd_common::{fsum, sortkey, Error, FloatSum, HeapSize, Result, Value};
use pd_sql::{AnalyzedQuery, SlotClass, SlotRef};
use std::cmp::Ordering;
use std::fmt::Debug;
use std::sync::Arc;

/// What a group table's cells are — ids in a store, values where stores
/// meet — and how that domain holds a key column of them. Cells order as
/// the values they stand for.
pub(crate) trait Cell: Clone + HeapSize + Ord {
    type Keys: Keys;
}

impl Cell for u32 {
    type Keys = Vec<u32>;
}

impl Cell for Value {
    type Keys = KeyBytes;
}

/// A key column: global-ids in a store, sort keys where stores meet.
pub(crate) trait Keys: Clone + Debug + Default + PartialEq {
    fn len(&self) -> usize;

    /// The order of cell `a` and `other`'s cell `b` as stored: ids, or
    /// the values' order for sort keys.
    fn cmp_cells(&self, a: usize, other: &Self, b: usize) -> Ordering;

    /// The cells of two columns at positions `0..len`: `a`'s cell `i` at
    /// `to_a[i]` and `b`'s cell `j` at `to_b[j]`, `a`'s where both have one.
    fn interleave(len: u32, a: &Self, to_a: &[u32], b: &Self, to_b: &[u32]) -> Self;

    /// The bytes the cells take, for cache admission.
    fn bytes(&self) -> usize;
}

impl Keys for Vec<u32> {
    fn len(&self) -> usize {
        self.len()
    }

    fn cmp_cells(&self, a: usize, other: &Self, b: usize) -> Ordering {
        self[a].cmp(&other[b])
    }

    fn interleave(len: u32, a: &Self, to_a: &[u32], b: &Self, to_b: &[u32]) -> Self {
        let mut cells = Vec::with_capacity(len as usize);
        interleave(len, to_a, to_b, |from_a, k| cells.push(if from_a { a[k] } else { b[k] }));
        cells
    }

    fn bytes(&self) -> usize {
        self.len() * size_of::<u32>()
    }
}

/// A key column where stores meet: the sort key ([`pd_common::sortkey`])
/// of every cell, laid end to end in one buffer, and where each ends.
/// Comparing two cells' bytes compares their values, so a merge compares
/// slices and copies bytes, and a copy of the column is two buffer copies;
/// a cell becomes a [`Value`] only when it is read as one
/// ([`KeyBytes::value`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct KeyBytes {
    bytes: Vec<u8>,
    ends: Vec<u32>,
}

impl KeyBytes {
    /// A column with room for `cells` cells of `bytes` bytes in all.
    pub(crate) fn with_capacity(cells: usize, bytes: usize) -> KeyBytes {
        KeyBytes { bytes: Vec::with_capacity(bytes), ends: Vec::with_capacity(cells) }
    }

    /// Append a cell given as its sort key.
    pub(crate) fn push(&mut self, key: &[u8]) {
        self.bytes.extend_from_slice(key);
        let end = u32::try_from(self.bytes.len()).expect("a key column holds under 4 GiB");
        self.ends.push(end);
    }

    /// Cell `g`'s sort key.
    pub(crate) fn get(&self, g: usize) -> &[u8] {
        let start = g.checked_sub(1).map_or(0, |before| self.ends[before]);
        &self.bytes[start as usize..self.ends[g] as usize]
    }

    /// Cell `g` as a value.
    pub(crate) fn value(&self, g: usize) -> Value {
        sortkey::decode(self.get(g))
    }

    /// The column as it crosses the wire: the buffer and the cells' ends.
    pub(crate) fn parts(&self) -> (&Vec<u8>, &Vec<u32>) {
        (&self.bytes, &self.ends)
    }

    /// A column from its decoded [`KeyBytes::parts`], every cell checked:
    /// ends that ascend within the buffer and reach its end, and cells
    /// [`sortkey::check`] accepts.
    pub(crate) fn from_parts(bytes: Vec<u8>, ends: Vec<u32>) -> Result<KeyBytes> {
        let mut start = 0;
        for &end in &ends {
            let cell = bytes.get(start..end as usize).ok_or_else(|| {
                Error::Data("wire: key column ends descend or pass its bytes".into())
            })?;
            sortkey::check(cell)?;
            start = end as usize;
        }
        if start != bytes.len() {
            return Err(Error::Data("wire: key column has bytes past its last cell".into()));
        }
        Ok(KeyBytes { bytes, ends })
    }

    /// The cells at `order`, in that order.
    pub(crate) fn gather(&self, order: &[u32]) -> KeyBytes {
        // Exact for a permutation, the mean cell's size otherwise.
        let bytes = self.bytes.len() * order.len() / self.len().max(1);
        let mut cells = KeyBytes::with_capacity(order.len(), bytes);
        order.iter().for_each(|&g| cells.push(self.get(g as usize)));
        cells
    }
}

impl Keys for KeyBytes {
    fn len(&self) -> usize {
        self.ends.len()
    }

    fn cmp_cells(&self, a: usize, other: &Self, b: usize) -> Ordering {
        self.get(a).cmp(other.get(b))
    }

    fn interleave(len: u32, a: &Self, to_a: &[u32], b: &Self, to_b: &[u32]) -> Self {
        let mut cells = KeyBytes::with_capacity(len as usize, a.bytes.len() + b.bytes.len());
        interleave(len, to_a, to_b, |from_a, k| {
            cells.push(if from_a { a.get(k) } else { b.get(k) })
        });
        cells
    }

    fn bytes(&self) -> usize {
        self.bytes.len() + self.ends.len() * size_of::<u32>()
    }
}

/// Where each position `0..len` of two merged columns takes its cell from:
/// `put(true, i)` for `a`'s cell `i` (`to_a[i]` is the position; `a`'s
/// where both have one), `put(false, j)` for `b`'s cell `j`.
fn interleave(len: u32, to_a: &[u32], to_b: &[u32], mut put: impl FnMut(bool, usize)) {
    let (mut i, mut j) = (0, 0);
    for at in 0..len {
        let (ours, theirs) = (to_a.get(i) == Some(&at), to_b.get(j) == Some(&at));
        put(ours, if ours { i } else { j });
        i += usize::from(ours);
        j += usize::from(theirs);
    }
}

/// What one slot accumulates: its [`SlotClass`], typed by its argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SlotKind {
    Count,
    SumInt,
    SumFloat,
    Min,
    Max,
    Distinct { m: usize },
}

impl SlotKind {
    /// The class of slot this kind of column holds.
    fn class(self) -> SlotClass {
        match self {
            SlotKind::Count => SlotClass::Count,
            SlotKind::SumInt | SlotKind::SumFloat => SlotClass::Sum,
            SlotKind::Min => SlotClass::Min,
            SlotKind::Max => SlotClass::Max,
            SlotKind::Distinct { .. } => SlotClass::Distinct,
        }
    }
}

/// The value of a MIN/MAX cell of a slot.
pub(crate) type Extreme<'a, K> = dyn Fn(usize, &K) -> Value + 'a;

/// One aggregate slot's states, one per group.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Column<K> {
    Count(Vec<u64>),
    /// Exact sums of an integer column: `SUM` wraps them to `i64` as it
    /// reads them, `AVG` rounds them once.
    SumInt(Vec<i128>),
    SumFloat(FloatColumn),
    /// MIN (`is_min`) or MAX: the extreme cell so far, `None` before the
    /// first row.
    Extreme {
        is_min: bool,
        best: Vec<Option<K>>,
    },
    Distinct {
        m: usize,
        sketches: Vec<KmvSketch>,
    },
}

impl<K: Cell> Column<K> {
    /// A column of no groups.
    pub(crate) fn new(kind: SlotKind) -> Column<K> {
        match kind {
            SlotKind::Count => Column::Count(Vec::new()),
            SlotKind::SumInt => Column::SumInt(Vec::new()),
            SlotKind::SumFloat => Column::SumFloat(FloatColumn::new(0)),
            SlotKind::Min => Column::Extreme { is_min: true, best: Vec::new() },
            SlotKind::Max => Column::Extreme { is_min: false, best: Vec::new() },
            SlotKind::Distinct { m } => Column::Distinct { m, sketches: Vec::new() },
        }
    }

    fn kind(&self) -> SlotKind {
        match self {
            Column::Count(_) => SlotKind::Count,
            Column::SumInt(_) => SlotKind::SumInt,
            Column::SumFloat(_) => SlotKind::SumFloat,
            Column::Extreme { is_min: true, .. } => SlotKind::Min,
            Column::Extreme { is_min: false, .. } => SlotKind::Max,
            Column::Distinct { m, .. } => SlotKind::Distinct { m: *m },
        }
    }

    fn len(&self) -> usize {
        match self {
            Column::Count(v) => v.len(),
            Column::SumInt(v) => v.len(),
            Column::SumFloat(sums) => sums.hi.len(),
            Column::Extreme { best, .. } => best.len(),
            Column::Distinct { sketches, .. } => sketches.len(),
        }
    }

    /// Add `from`'s group `j` into group `at(j)`, if any, in one walk, each
    /// MIN/MAX cell read as `cell` of it; float sums on one grid by plain adds.
    fn absorb(
        &mut self,
        from: &Column<K>,
        mut at: impl FnMut(usize) -> Option<usize>,
        cell: impl Fn(&K) -> K,
        grid: bool,
    ) {
        let slots = (0..from.len()).filter_map(|j| at(j).map(|t| (j, t)));
        match (self, from) {
            (Column::Count(to), Column::Count(from)) => slots.for_each(|(j, t)| to[t] += from[j]),
            // An `i128` holds 2^64 rows of `i64`s exactly; wrapping keeps a
            // forged sum from panicking, and `SUM`'s low 64 bits right.
            (Column::SumInt(to), Column::SumInt(from)) => {
                slots.for_each(|(j, t)| to[t] = to[t].wrapping_add(from[j]))
            }
            (Column::SumFloat(to), Column::SumFloat(from)) if grid => {
                slots.for_each(|(j, t)| to.absorb_on_grid(t, from, j))
            }
            (Column::SumFloat(to), Column::SumFloat(from)) => slots.for_each(|(j, t)| {
                to.absorb_one(t, (from.hi[j], from.lo[j]), from.exact[j].as_deref())
            }),
            (Column::Extreme { is_min, best: to }, Column::Extreme { best: from, .. }) => {
                let worse = if *is_min { Ordering::Greater } else { Ordering::Less };
                for (j, t) in slots {
                    let Some(from) = from[j].as_ref().map(&cell) else { continue };
                    if to[t].as_ref().is_none_or(|held| held.cmp(&from) == worse) {
                        to[t] = Some(from);
                    }
                }
            }
            (Column::Distinct { sketches: to, .. }, Column::Distinct { sketches: from, .. }) => {
                slots.for_each(|(j, t)| to[t].merge(&from[j]))
            }
            _ => unreachable!("tables of one plan have the same slot kinds"),
        }
    }

    /// Keep the groups `held` says, in order, in this column's buffers.
    pub(crate) fn compact(&mut self, held: impl Fn(usize) -> bool) {
        match self {
            Column::Count(v) => compact(v, held),
            Column::SumInt(v) => compact(v, held),
            Column::SumFloat(FloatColumn { hi, lo, exact }) => {
                compact(hi, &held);
                compact(lo, &held);
                compact(exact, held);
            }
            Column::Extreme { best, .. } => compact(best, held),
            Column::Distinct { sketches, .. } => compact(sketches, held),
        }
    }

    /// Group `j` moved to group `to[j]` of `len` (or dropped, if that is
    /// past the end); the groups nothing moves to are empty.
    fn spread(self, to: &[u32], len: usize) -> Column<K> {
        match self {
            Column::Count(v) => Column::Count(spread(v, to, len, 0)),
            Column::SumInt(v) => Column::SumInt(spread(v, to, len, 0)),
            Column::SumFloat(FloatColumn { hi, lo, exact }) => Column::SumFloat(FloatColumn {
                hi: spread(hi, to, len, 0.0),
                lo: spread(lo, to, len, 0.0),
                exact: spread(exact, to, len, None),
            }),
            Column::Extreme { is_min, best } => {
                Column::Extreme { is_min, best: spread(best, to, len, None) }
            }
            Column::Distinct { m, sketches } => {
                Column::Distinct { m, sketches: spread(sketches, to, len, KmvSketch::new(m)) }
            }
        }
    }

    fn approx_bytes(&self) -> usize {
        match self {
            Column::Count(v) => v.len() * 8,
            Column::SumInt(v) => v.len() * 16,
            Column::SumFloat(sums) => {
                sums.hi.len() * 24 + sums.exact.iter().flatten().count() * size_of::<FloatSum>()
            }
            Column::Extreme { best, .. } => best.iter().map(HeapSize::total_bytes).sum(),
            Column::Distinct { sketches, .. } => sketches.iter().map(HeapSize::total_bytes).sum(),
        }
    }
}

/// Keep the cells of `v` that `held` says, by position, in order.
fn compact<T>(v: &mut Vec<T>, held: impl Fn(usize) -> bool) {
    let mut at = 0..;
    v.retain(|_| at.next().is_some_and(&held));
}

/// `len` cells, `v`'s cell `j` at position `to[j]` if that is one of them,
/// and `empty` where no cell goes.
fn spread<T: Clone>(v: Vec<T>, to: &[u32], len: usize, empty: T) -> Vec<T> {
    let mut spread = vec![empty; len];
    for (cell, &at) in v.into_iter().zip(to) {
        if let Some(slot) = spread.get_mut(at as usize) {
            *slot = cell;
        }
    }
    spread
}

/// A float-sum column: a double-double `(hi, lo)` per group, with an exact
/// [`FloatSum`] only for the groups the pair cannot hold — or, for a column
/// on one binary grid ([`fsum::Grid`]), its sums in `hi` by plain adds.
///
/// A slot is **always exact**. While its pair is untainted, `hi + lo` *is*
/// the sum of everything added: each add is two branchless Knuth
/// `two_sum`s, and the residual of the second is zero iff the new pair
/// still equals the exact sum. The first add whose residual is not zero — a
/// non-finite input, an overflow, or more bits than two doubles hold —
/// taints the slot instead of being stored: the slot gets a `FloatSum`
/// seeded from the last exact pair, and takes this and every later add
/// there. The taint bit is `hi == NaN` (an untainted `hi` is finite, and a
/// NaN makes every later residual NaN, so the hot loop needs no second
/// branch); a slot has an exact accumulator iff it is tainted.
///
/// On a grid that admits the store's rows every partial sum is exact, so a
/// kernel adds with [`fsum::grid_add`] ([`FloatColumn::on_grid`]) and the
/// fold adds one chunk's `hi` per group ([`FloatColumn::absorb_on_grid`]).
/// That is the column the pair path makes on such data — `hi` the sum, `lo`
/// zero, no slot tainted —, so a table is the same whichever path made it.
#[derive(Debug, Clone)]
pub(crate) struct FloatColumn {
    hi: Vec<f64>,
    lo: Vec<f64>,
    exact: ExactSums,
}

/// Per slot, its exact accumulator once tainted.
pub(crate) type ExactSums = Vec<Option<Box<FloatSum>>>;

#[inline(always)]
fn two_sum(a: f64, b: f64) -> (f64, f64) {
    // pd-analysis: allow(float-exactness) -- this IS the double-double primitive: Knuth's TwoSum, whose raw adds are exactly compensated by `err`
    let s = a + b;
    let bv = s - a;
    // pd-analysis: allow(float-exactness) -- error term of Knuth's TwoSum; exact by construction
    let err = (a - (s - bv)) + (b - bv);
    (s, err)
}

impl FloatColumn {
    /// `len` empty slots, each an untainted pair.
    pub(crate) fn new(len: usize) -> FloatColumn {
        FloatColumn { hi: vec![0.0; len], lo: vec![0.0; len], exact: vec![None; len] }
    }

    /// `len` empty slots in this column's buffers.
    pub(crate) fn reset(self, len: usize) -> FloatColumn {
        self.on_grid(|mut hi| {
            hi.clear();
            hi.resize(len, 0.0);
            hi
        })
    }

    /// The exact sums that `fill` writes into this column's `hi` buffer,
    /// summed on one grid: each an untainted pair whose `lo` is zero.
    pub(crate) fn on_grid(mut self, fill: impl FnOnce(Vec<f64>) -> Vec<f64>) -> FloatColumn {
        self.hi = fill(std::mem::take(&mut self.hi));
        let len = self.hi.len();
        self.lo.clear();
        self.lo.resize(len, 0.0);
        self.exact.clear();
        self.exact.resize_with(len, || None);
        self
    }

    #[inline(always)]
    pub(crate) fn add(&mut self, g: usize, x: f64) {
        let (s1, e1) = two_sum(self.hi[g], x);
        let (s2, e2) = two_sum(self.lo[g], e1);
        // NaN compares unequal, so non-finite inputs and tainted slots
        // land here; -0.0 == 0.0 keeps signed-zero residuals exact.
        if e2 != 0.0 {
            return self.exact_mut(g).add(x);
        }
        self.hi[g] = s1;
        self.lo[g] = s2;
    }

    /// Slot `g`'s exact accumulator, tainting the slot.
    #[cold]
    pub(crate) fn exact_mut(&mut self, g: usize) -> &mut FloatSum {
        let (hi, lo) = (self.hi[g], self.lo[g]);
        self.hi[g] = f64::NAN;
        self.exact[g].get_or_insert_with(|| Box::new(pair_sum(hi, lo)))
    }

    /// Slot `g`'s sum as the exact accumulator a per-row accumulation
    /// would have produced, bit for bit.
    fn sum(&self, g: usize) -> FloatSum {
        self.exact[g].as_deref().cloned().unwrap_or_else(|| pair_sum(self.hi[g], self.lo[g]))
    }

    /// Slot `g`'s sum rounded once: IEEE addition of an exact pair is the
    /// correctly rounded exact sum, which is what [`FloatSum::value`] is.
    fn value(&self, g: usize) -> f64 {
        match &self.exact[g] {
            Some(sum) => sum.value(),
            // pd-analysis: allow(float-exactness) -- rounds the exact pair once; nothing is accumulated
            None => self.hi[g] + self.lo[g],
        }
    }

    /// [`FloatColumn::add`] on a lane: a pair held by value — in
    /// registers, while a loop deals its rows out to a few of them — and its
    /// exact accumulator once tainted.
    #[inline(always)]
    pub(crate) fn add_to_lane(lane: Pair, x: f64, exact: &mut Option<Box<FloatSum>>) -> Pair {
        let (s1, e1) = two_sum(lane.0, x);
        let (s2, e2) = two_sum(lane.1, e1);
        if e2 != 0.0 {
            taint(exact, lane, x);
            return (f64::NAN, lane.1);
        }
        (s1, s2)
    }

    /// One slot holding the sum of `lanes` ([`FloatColumn::add_to_lane`]),
    /// merged as chunk tables merge: the sum a single slot would hold. In
    /// `spare`'s buffers.
    pub(crate) fn of_lanes<const N: usize>(
        lanes: [Pair; N],
        exact: [Option<Box<FloatSum>>; N],
        spare: FloatColumn,
    ) -> FloatColumn {
        let mut sum = spare.reset(1);
        for ((hi, lo), exact) in lanes.into_iter().zip(exact) {
            sum.absorb_one(0, (hi, lo), exact.as_deref());
        }
        sum
    }

    /// Add `from`'s slot `j` to slot `to` of a column summed on one grid
    /// that admits the rows of both: one plain add, which is exact.
    fn absorb_on_grid(&mut self, to: usize, from: &FloatColumn, j: usize) {
        debug_assert!(from.exact[j].is_none() && from.lo[j] == 0.0, "a sum on the grid");
        self.hi[to] = fsum::grid_add(self.hi[to], from.hi[j]);
    }

    /// Add a slot — its pair, or its exact accumulator once tainted — to
    /// slot `to`.
    fn absorb_one(&mut self, to: usize, (hi, lo): Pair, exact: Option<&FloatSum>) {
        match exact {
            Some(sum) => self.exact_mut(to).merge(sum),
            None => {
                self.add(to, hi);
                self.add(to, lo);
            }
        }
    }

    /// The column as it crosses the wire: per slot its pair and, once
    /// tainted, its exact accumulator.
    pub(crate) fn parts(&self) -> (&Vec<f64>, &Vec<f64>, &ExactSums) {
        (&self.hi, &self.lo, &self.exact)
    }

    /// A column from its decoded [`FloatColumn::parts`]: one length, and
    /// an exact accumulator exactly on a tainted slot.
    pub(crate) fn from_parts(hi: Vec<f64>, lo: Vec<f64>, exact: ExactSums) -> Result<FloatColumn> {
        let tainted = |(sum, hi): (&Option<_>, &f64)| sum.is_some() == hi.is_nan();
        if hi.len() != lo.len() || hi.len() != exact.len() || !exact.iter().zip(&hi).all(tainted) {
            return Err(Error::Data("wire: float-sum column is inconsistent".into()));
        }
        Ok(FloatColumn { hi, lo, exact })
    }
}

/// Columns are equal when every slot holds the same exact sum, whichever
/// of them carries it as a pair.
impl PartialEq for FloatColumn {
    fn eq(&self, other: &FloatColumn) -> bool {
        self.hi.len() == other.hi.len() && (0..self.hi.len()).all(|g| self.sum(g) == other.sum(g))
    }
}

/// A double-double `(hi, lo)`: one [`FloatColumn`] slot, held by value.
pub(crate) type Pair = (f64, f64);

/// Add `x` to a lane's exact accumulator: the one it has, or one seeded
/// from its last exact pair.
#[cold]
#[inline(never)]
fn taint(exact: &mut Option<Box<FloatSum>>, (hi, lo): Pair, x: f64) {
    exact.get_or_insert_with(|| Box::new(pair_sum(hi, lo))).add(x);
}

/// The exact accumulator of an untainted pair.
fn pair_sum(hi: f64, lo: f64) -> FloatSum {
    let mut sum = FloatSum::from(hi);
    sum.add(lo);
    sum
}

/// Grouped aggregation states, struct-of-arrays: group `g` is cell `g` of
/// every key column and position `g` of every slot.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct GroupTable<K: Cell> {
    len: usize,
    keys: Vec<K::Keys>,
    slots: Vec<Column<K>>,
}

/// No groups, no columns.
impl<K: Cell> Default for GroupTable<K> {
    fn default() -> GroupTable<K> {
        GroupTable { len: 0, keys: Vec::new(), slots: Vec::new() }
    }
}

impl<K: Cell> GroupTable<K> {
    /// `len` groups given column by column.
    pub(crate) fn new(len: usize, keys: Vec<K::Keys>, slots: Vec<Column<K>>) -> GroupTable<K> {
        debug_assert!(keys.iter().all(|col| col.len() == len));
        GroupTable { len, keys, slots }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Key column `i`.
    pub(crate) fn key(&self, i: usize) -> &K::Keys {
        &self.keys[i]
    }

    /// Approximate in-memory footprint, for cost-aware cache admission.
    pub(crate) fn approx_bytes(&self) -> usize {
        let keys = self.keys.iter().map(Keys::bytes).sum::<usize>();
        keys + self.slots.iter().map(Column::approx_bytes).sum::<usize>()
    }

    /// `agg`'s output cell for group `g`.
    pub(crate) fn cell(&self, agg: SlotRef, g: usize, extreme: &Extreme<'_, K>) -> Value {
        if let Some(count) = agg.count {
            return self.average(agg.slot, count, g).map_or(Value::Null, Value::Float);
        }
        match &self.slots[agg.slot] {
            Column::Count(n) => Value::Int(n[g] as i64),
            Column::SumInt(sums) => Value::Int(sums[g] as i64),
            Column::SumFloat(sums) => Value::Float(sums.value(g)),
            Column::Extreme { best, .. } => {
                best[g].as_ref().map_or(Value::Null, |cell| extreme(agg.slot, cell))
            }
            Column::Distinct { sketches, .. } => Value::Int(estimate(&sketches[g])),
        }
    }

    /// Per group, `agg`'s output cell as a number that orders as the cells
    /// do ([`Value::cmp`] of [`GroupTable::cell`]'s), in one typed pass over
    /// the state columns as stored: counts, integer sums and sketches'
    /// rounded estimates as integers, float sums and averages in `f64` total
    /// order (`pd_common::sortkey`'s words), an average over no rows
    /// (`Null`) first. `None` for MIN/MAX, whose values only the caller has.
    pub(crate) fn order_keys(&self, agg: SlotRef) -> Option<Vec<u128>> {
        let word = |word: u64| u128::from(word) + 1;
        let (int, float) = (|v: i64| word(sortkey::int_word(v)), |x| word(sortkey::float_word(x)));
        if let Some(count) = agg.count {
            let Column::Count(n) = &self.slots[count] else { unreachable!("AVG reads a count") };
            let n = n.iter().enumerate();
            let average = |sum, n| mean(sum, n).map_or(0, float);
            return Some(match &self.slots[agg.slot] {
                Column::SumInt(sums) => n.map(|(g, &n)| average(sums[g] as f64, n)).collect(),
                Column::SumFloat(sums) => n.map(|(g, &n)| average(sums.value(g), n)).collect(),
                _ => unreachable!("AVG reads a sum slot"),
            });
        }
        Some(match &self.slots[agg.slot] {
            Column::Count(n) => n.iter().map(|&n| int(n as i64)).collect(),
            Column::SumInt(sums) => sums.iter().map(|&s| int(s as i64)).collect(),
            Column::SumFloat(sums) => (0..self.len).map(|g| float(sums.value(g))).collect(),
            Column::Distinct { sketches: s, .. } => s.iter().map(|s| int(estimate(s))).collect(),
            Column::Extreme { .. } => return None,
        })
    }

    /// An average's cell: slot `sum`'s exact sum rounded once, over slot
    /// `count`'s count; `None` (`Null`) over no rows.
    fn average(&self, sum: usize, count: usize, g: usize) -> Option<f64> {
        let sum = match &self.slots[sum] {
            Column::SumInt(sums) => sums[g] as f64,
            Column::SumFloat(sums) => sums.value(g),
            _ => unreachable!("AVG reads a sum slot"),
        };
        let Column::Count(n) = &self.slots[count] else { unreachable!("AVG reads a count slot") };
        mean(sum, n[g])
    }

    /// Add the slots of another table of this shape, whose group `j` is
    /// this table's group `map[j]`; slot `s` is a float sum on one grid if
    /// `grid[s]` is set.
    fn absorb(&mut self, slots: &[Column<K>], map: &[u32], grid: &[bool]) {
        for (s, (to, from)) in self.slots.iter_mut().zip(slots).enumerate() {
            to.absorb(from, |j| Some(map[j] as usize), K::clone, grid.get(s) == Some(&true));
        }
    }

    /// The order of this table's group `a` and `other`'s group `b`: their
    /// key tuples, column by column.
    fn cmp_keys(&self, a: usize, other: &GroupTable<K>, b: usize) -> Ordering {
        (self.keys.iter().zip(&other.keys))
            .map(|(own, theirs)| own.cmp_cells(a, theirs, b))
            .find(|ord| ord.is_ne())
            .unwrap_or(Ordering::Equal)
    }

    /// Are the groups in strictly ascending key order?
    pub(crate) fn is_sorted(&self) -> bool {
        (1..self.len).all(|g| self.cmp_keys(g - 1, self, g).is_lt())
    }
}

/// The mean of `n` rows that sum to `sum`; `None` (`Null`) over no rows.
fn mean(sum: f64, n: u64) -> Option<f64> {
    (n > 0).then(|| sum / n as f64)
}

/// A sketch's cell: its estimate, rounded.
fn estimate(sketch: &KmvSketch) -> i64 {
    sketch.estimate().round() as i64
}

impl GroupTable<u32> {
    /// A chunk's table of chunk-ids — as a chunk kernel makes it and the
    /// chunk-result cache keeps it — in global-ids: key column `i`'s cells
    /// through `keys(i)` and slot `s`'s MIN/MAX cells through `extremes(s)`,
    /// each the chunk dictionary's global-ids. Chunk dictionaries are
    /// sorted, so the groups stay in key order.
    fn into_global<'a>(
        mut self,
        keys: impl Fn(usize) -> &'a [u32],
        extremes: impl Fn(usize) -> &'a [u32],
    ) -> GroupTable<u32> {
        for (i, cells) in self.keys.iter_mut().enumerate() {
            let ids = keys(i);
            cells.iter_mut().for_each(|cell| *cell = ids[*cell as usize]);
        }
        for (s, column) in self.slots.iter_mut().enumerate() {
            if let Column::Extreme { best, .. } = column {
                let ids = extremes(s);
                best.iter_mut().flatten().for_each(|cell| *cell = ids[*cell as usize]);
            }
        }
        self
    }

    /// The same groups in the value domain: key column `i` as the sort keys
    /// `keys(i, ids)` of its ids, and slot `s`'s MIN/MAX cells as the values
    /// `extremes(s, ids)` of the ids it holds.
    pub(crate) fn into_values(
        self,
        keys: impl Fn(usize, &[u32]) -> KeyBytes,
        extremes: impl Fn(usize, Vec<u32>) -> Vec<Value>,
    ) -> GroupTable<Value> {
        let keys = (self.keys.iter().enumerate()).map(|(i, ids)| keys(i, ids)).collect();
        let slots = (self.slots.into_iter().enumerate())
            .map(|(s, column)| match column {
                Column::Count(v) => Column::Count(v),
                Column::SumInt(v) => Column::SumInt(v),
                Column::SumFloat(f) => Column::SumFloat(f),
                Column::Distinct { m, sketches } => Column::Distinct { m, sketches },
                Column::Extreme { is_min, best } => {
                    let present = best.iter().flatten().copied().collect();
                    let mut translated = extremes(s, present).into_iter();
                    let best =
                        best.iter().map(|cell| cell.as_ref().and_then(|_| translated.next()));
                    Column::Extreme { is_min, best: best.collect() }
                }
            })
            .collect();
        GroupTable { len: self.len, keys, slots }
    }
}

/// Add `other`'s groups to `table`'s. Both list theirs in strictly
/// ascending key order, and so does the result: one walk over both key
/// columns emits every group once, in order, and maps each side's groups to
/// the result's. `table`'s states move to their groups, and `other`'s are
/// added through [`GroupTable::absorb`]; when every group of `other` is one
/// of `table`'s, they are added in place. `other` is only read, and so are
/// the key columns: new groups make new columns, cell by cell from both
/// sides. A `table` nobody else holds gives its states away; a shared one
/// has them cloned. Slot `s` is a float sum on one grid if `grid[s]` is set
/// (none is, past `grid`'s end).
pub(crate) fn merge_tables<K: Cell>(
    table: &mut Arc<GroupTable<K>>,
    other: &GroupTable<K>,
    grid: &[bool],
) {
    if other.len == 0 {
        return;
    }
    let (a, b) = (&**table, other);
    let (mut to_a, mut to_b) = (Vec::with_capacity(a.len), Vec::with_capacity(b.len));
    let (mut i, mut j, mut len) = (0, 0, 0u32);
    while i < a.len || j < b.len {
        let ord = match (i < a.len, j < b.len) {
            (true, true) => a.cmp_keys(i, b, j),
            (true, false) => Ordering::Less,
            _ => Ordering::Greater,
        };
        if ord.is_le() {
            to_a.push(len);
            i += 1;
        }
        if ord.is_ge() {
            to_b.push(len);
            j += 1;
        }
        len += 1;
    }
    if len as usize == a.len {
        return Arc::make_mut(table).absorb(&other.slots, &to_b, grid);
    }
    let keys = (a.keys.iter().zip(&b.keys))
        .map(|(a, b)| K::Keys::interleave(len, a, &to_a, b, &to_b))
        .collect();
    let own = match Arc::get_mut(table) {
        Some(own) => std::mem::take(own),
        None => GroupTable { len: table.len, keys: Vec::new(), slots: table.slots.clone() },
    };
    let slots = own.slots.into_iter().map(|column| column.spread(&to_a, len as usize)).collect();
    let mut merged = GroupTable::new(len as usize, keys, slots);
    merged.absorb(&other.slots, &to_b, grid);
    match Arc::get_mut(table) {
        Some(own) => *own = merged,
        None => *table = Arc::new(merged),
    }
}

/// Mergeable per-group states, the §4 unit of tree aggregation: a group
/// table in the value domain, its groups in strictly ascending key order,
/// one state column per slot its query lowers to. Which aggregates read
/// which slots is the asking query's to say ([`crate::finalize`]), so one
/// partial answers every query of its slots. A key column is one buffer of
/// sort keys ([`pd_common::sortkey`]): a string is in it as its bytes, and
/// becomes a [`Value`] only if it is in the answer or `HAVING` reads it.
/// The state columns are as the scan left them, MIN/MAX cells as values.
///
/// Every column merges associatively and commutatively — counts and
/// integer sums add exactly, a float slot is exact whether it is a
/// double-double pair or a [`FloatSum`] superaccumulator, MIN / MAX keep
/// the extreme [`Value`], sketches merge as sorted runs — so a query's result is
/// bit-identical however its rows were grouped into chunks, threads,
/// shards or subtrees. Equality is column equality (keys by their bytes,
/// which hold floats by bits; float slots by exact sum).
///
/// The table is shared: a clone is a reference to the same columns, which
/// is how a node cache keeps an answer and hands it up again without
/// copying it. Readers ([`crate::finalize`], the wire encoder) never notice;
/// [`PartialResult::merge`] writes to a copy of its own unless it is the
/// only holder.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PartialResult {
    table: Arc<GroupTable<Value>>,
}

impl PartialResult {
    /// `table`, whose groups are in strictly ascending key order.
    pub(crate) fn new(table: GroupTable<Value>) -> PartialResult {
        debug_assert!(table.is_sorted());
        PartialResult { table: Arc::new(table) }
    }

    /// The partial of decoded columns, every invariant checked: columns of
    /// one length, groups in strictly ascending key order.
    pub(crate) fn from_columns(
        len: u64,
        keys: Vec<KeyBytes>,
        slots: Vec<Column<Value>>,
    ) -> Result<PartialResult> {
        let corrupt = |what: &str| Error::Data(format!("wire: partial result {what}"));
        let lens = keys.iter().map(Keys::len).chain(slots.iter().map(Column::len));
        if lens.map(|n| n as u64).any(|n| n != len) {
            return Err(corrupt("has ragged columns"));
        }
        // Columns of `len` cells were decoded, or there is none: then only
        // the order check stands between `len` and a loop that long, and it
        // fails at the first pair of equal (empty) keys.
        let len = usize::try_from(len).map_err(|_| corrupt("has ragged columns"))?;
        let table = GroupTable { len, keys, slots };
        if !table.is_sorted() {
            return Err(corrupt("has unsorted or duplicate keys"));
        }
        Ok(PartialResult { table: Arc::new(table) })
    }

    /// What the wire carries: group count, key columns, slots.
    pub(crate) fn columns(&self) -> (usize, &Vec<KeyBytes>, &Vec<Column<Value>>) {
        (self.table.len, &self.table.keys, &self.table.slots)
    }

    /// How many groups there are.
    pub fn len(&self) -> usize {
        self.table.len
    }

    pub fn is_empty(&self) -> bool {
        self.table.len == 0
    }

    /// The table, for ranking as the answer of `analyzed`: one key column
    /// per key and, slot by slot, a column of the class the query's
    /// aggregates lower to — anything else (a partial decoded from a peer
    /// that answered another query) is [`Error::Data`], before a cell is
    /// read. A partial of no groups has nothing to read.
    pub(crate) fn for_query(&self, analyzed: &AnalyzedQuery) -> Result<&GroupTable<Value>> {
        let table = &*self.table;
        let fits = table.keys.len() == analyzed.keys.len()
            && table.slots.len() == analyzed.slots.len()
            && (table.slots.iter().zip(&analyzed.slots))
                .all(|(column, slot)| column.kind().class() == slot.class);
        if !fits && !self.is_empty() {
            return Err(Error::Data("partial result does not fit its query's slots".into()));
        }
        Ok(table)
    }

    /// Merge another partial of the same slots into this one: one linear
    /// walk over both key columns (`merge_tables`). A partial of no columns
    /// ([`PartialResult::default`]) is the identity; partials of different
    /// shapes — key count or slot kinds — do not merge. Copy-on-write:
    /// clones of either side made before the merge keep what they held.
    pub fn merge(&mut self, other: PartialResult) -> Result<()> {
        let shape = |p: &PartialResult| {
            let kinds: Vec<SlotKind> = p.table.slots.iter().map(Column::kind).collect();
            (p.table.keys.len(), kinds)
        };
        if *other.table == GroupTable::default() {
            return Ok(());
        }
        if *self.table == GroupTable::default() {
            *self = other;
        } else if shape(self) == shape(&other) {
            merge_tables(&mut self.table, &other.table, &[]);
        } else {
            return Err(Error::Internal("cannot merge partial results of different shapes".into()));
        }
        Ok(())
    }

    /// Approximate in-memory footprint, for cost-aware cache admission
    /// (bytes × cells scanned).
    pub fn approx_bytes(&self) -> usize {
        self.table.approx_bytes()
    }
}

/// The fold of chunk tables into one store-wide table, all in ascending
/// id order.
///
/// One key whose dictionary is proportionate to the scanned volume folds
/// the paper's way, and so does no key, as one id: the table is a counts
/// array over every id of the dictionary; a chunk table, a chunk's slot
/// columns or another such fold adds into it by one walk per slot, each
/// group at its id ([`GroupFold::add`]), and the table is handed over
/// compacted in place to the ids shown. Every slot adds exactly, so such
/// folds of any chunks add up ([`GroupFold::add_fold`]) to the same table
/// in any order. Any other grouping — several keys, or a dictionary that
/// dwarfs the scan, where a selective query must not allocate a slot per id
/// for a handful of groups — merges the chunk tables pairwise
/// ([`merge_tables`]) in chunk order and balanced: a merge sort's run stack
/// of tables of 1, 2, 4, … chunks, so a group is merged O(log k) times over
/// k chunks and O(log k) tables are live. Either way a float sum on one
/// grid adds one chunk's sum per group by one plain add, any other by two
/// double-double adds.
pub(crate) struct GroupFold {
    /// The counts array; for merges, the table that folding no chunk gives.
    table: GroupTable<u32>,
    by: FoldBy,
    /// Per slot, whether it is a float sum on one grid, added by plain adds.
    grid: Vec<bool>,
}

enum FoldBy {
    /// Per id, whether a chunk showed it; `keyed`: the ids are the one
    /// key's, else there is no key and one id.
    ById { shown: Vec<bool>, keyed: bool },
    /// Tables merged from `n` chunks each, `n` halving up the stack.
    Runs(Vec<(Arc<GroupTable<u32>>, usize)>),
}

impl GroupFold {
    /// An empty table of `n_keys` key columns and `kinds` slots, of which
    /// those `grid` marks are float sums on one grid ([`fsum::Grid`]).
    /// `by_id`: add by id, over that many ids — the one key's dictionary,
    /// or one id for no key.
    pub(crate) fn new(
        n_keys: usize,
        kinds: impl Iterator<Item = SlotKind>,
        grid: Vec<bool>,
        by_id: Option<usize>,
    ) -> GroupFold {
        let slots = kinds.map(|kind| Column::new(kind).spread(&[], by_id.unwrap_or(0)));
        let table = GroupTable::new(0, vec![Vec::new(); n_keys], slots.collect());
        let by = match by_id {
            Some(ids) => FoldBy::ById { shown: vec![false; ids], keyed: n_keys == 1 },
            None => FoldBy::Runs(Vec::new()),
        };
        GroupFold { table, by, grid }
    }

    /// Add one chunk's table of chunk-ids, whose key column `i` and slot
    /// `s`'s MIN/MAX cells index `keys(i)` and `extremes(s)`: the chunk
    /// dictionaries' global-ids. Added by id, the table is read where it
    /// lies — a cached one is not copied; merged, it is translated
    /// ([`GroupTable::into_global`]), copied first if another holds it.
    pub(crate) fn absorb<'a>(
        &mut self,
        chunk: Arc<GroupTable<u32>>,
        keys: impl Fn(usize) -> &'a [u32],
        extremes: impl Fn(usize) -> &'a [u32],
    ) {
        debug_assert!(chunk.is_sorted(), "a chunk table lists its groups in id order");
        match &mut self.by {
            FoldBy::ById { .. } => {
                let cell = |s: usize, &c: &u32| extremes(s)[c as usize];
                match chunk.keys.first() {
                    Some(cells) => {
                        let ids = keys(0);
                        let at = |j: usize| Some(ids[cells[j] as usize] as usize);
                        self.add(chunk.len, &chunk.slots, at, cell)
                    }
                    None => self.add(chunk.len, &chunk.slots, |_| Some(0), cell),
                }
            }
            FoldBy::Runs(runs) => {
                let chunk = Arc::unwrap_or_clone(chunk).into_global(keys, extremes);
                let (mut run, mut chunks) = (Arc::new(chunk), 1);
                while runs.last().is_some_and(|&(_, n)| n == chunks) {
                    let (mut earlier, n) = runs.pop().expect("a run is on the stack");
                    merge_tables(&mut earlier, &run, &self.grid);
                    (run, chunks) = (earlier, chunks + n);
                }
                runs.push((run, chunks));
            }
        }
    }

    /// Add `len` groups' slot columns to a fold by id, one walk per slot:
    /// group `j` at id `at(j)`, none where that is `None` (a number no row
    /// holds), slot `s`'s MIN/MAX cell `c` as `cell(s, c)`. The first slot's
    /// walk marks the ids it adds at as shown.
    pub(crate) fn add(
        &mut self,
        len: usize,
        slots: &[Column<u32>],
        at: impl Fn(usize) -> Option<usize>,
        cell: impl Fn(usize, &u32) -> u32,
    ) {
        let FoldBy::ById { shown, .. } = &mut self.by else {
            unreachable!("only a fold by id adds columns")
        };
        let show = |j| at(j).inspect(|&id| shown[id] = true);
        let grid = &self.grid;
        let mut columns = self.table.slots.iter_mut().zip(slots).enumerate();
        match columns.next() {
            Some((s, (to, from))) => to.absorb(from, show, |c| cell(s, c), grid[s]),
            None => (0..len).filter_map(show).for_each(drop),
        }
        for (s, (to, from)) in columns {
            to.absorb(from, &at, |c| cell(s, c), grid[s]);
        }
    }

    /// Add another fold by id of the same query's chunks: the ids it
    /// showed, where they are.
    pub(crate) fn add_fold(&mut self, other: GroupFold) {
        let FoldBy::ById { shown, .. } = &other.by else { unreachable!("only folds by id add up") };
        let at = |id: usize| shown[id].then_some(id);
        self.add(shown.len(), &other.table.slots, at, |_, &id| id);
    }

    /// The folded table; by id, the fold's own columns, compacted in place
    /// unless every id was shown.
    pub(crate) fn finish(self) -> GroupTable<u32> {
        match self.by {
            FoldBy::ById { shown, keyed } => {
                let mut slots = self.table.slots;
                let ids: Vec<u32> = if shown.contains(&false) {
                    slots.iter_mut().for_each(|column| column.compact(|id| shown[id]));
                    (0..).zip(&shown).filter(|(_, &shown)| shown).map(|(id, _)| id).collect()
                } else {
                    (0..shown.len() as u32).collect()
                };
                GroupTable::new(ids.len(), if keyed { vec![ids] } else { Vec::new() }, slots)
            }
            FoldBy::Runs(runs) => {
                let mut runs = runs.into_iter().rev().map(|(run, _)| run);
                let Some(mut folded) = runs.next() else { return self.table };
                for mut earlier in runs {
                    merge_tables(&mut earlier, &folded, &self.grid);
                    folded = earlier;
                }
                Arc::unwrap_or_clone(folded)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A column of values, for tests that build tables by hand (here and
    /// in the codec's).
    impl<'a> FromIterator<&'a Value> for KeyBytes {
        fn from_iter<I: IntoIterator<Item = &'a Value>>(values: I) -> KeyBytes {
            let mut keys = KeyBytes::default();
            let mut key = Vec::new();
            for value in values {
                key.clear();
                sortkey::encode(value, &mut key);
                keys.push(&key);
            }
            keys
        }
    }

    /// Per-row accumulation into the column and into exact accumulators.
    fn summed(rows: &[(usize, f64)], groups: usize) -> (FloatColumn, Vec<FloatSum>) {
        let mut column = FloatColumn::new(groups);
        let mut reference = vec![FloatSum::new(); groups];
        for &(g, x) in rows {
            column.add(g, x);
            reference[g].add(x);
        }
        (column, reference)
    }

    #[test]
    fn untainted_pairs_are_the_per_row_sums() {
        let table = [1.5f64, -2.25, 1024.0, 0.125, 0.1, -0.0];
        let rows: Vec<(usize, f64)> = (0..96).map(|i| (i % 4, table[(i * 5) % 6])).collect();
        let (column, reference) = summed(&rows, 4);
        assert!(column.exact.iter().all(Option::is_none), "no slot tainted");
        for (g, want) in reference.iter().enumerate() {
            assert_eq!(column.sum(g), *want, "group {g}");
            assert_eq!(column.value(g).to_bits(), want.value().to_bits(), "group {g}");
        }
    }

    #[test]
    fn taint_seeds_the_exact_sum_from_the_last_exact_pair() {
        // Group 0 overflows and comes back, 1 sees a NaN, 2 an infinity,
        // 3 loses bits two doubles cannot hold, 4 stays a pair, 5 sees
        // nothing.
        let rows = [
            (0, 1e308),
            (0, 1e308),
            (0, -1e308),
            (1, 0.5),
            (1, f64::NAN),
            (1, 2.0),
            (2, -3.0),
            (2, f64::NEG_INFINITY),
            (3, 1e300),
            (3, 1.0),
            (3, 1e-300),
            (3, -1e300),
            (4, 0.25),
            (4, -0.0),
        ];
        let (column, reference) = summed(&rows, 6);
        let tainted: Vec<bool> = (0..6).map(|g| column.hi[g].is_nan()).collect();
        assert_eq!(tainted, [true, true, true, true, false, false]);
        for (g, want) in reference.iter().enumerate() {
            assert_eq!(column.sum(g), *want, "group {g}");
            assert_eq!(column.value(g).to_bits(), want.value().to_bits(), "group {g}");
        }
        // Absorbing keeps every slot exact, whichever side is tainted.
        let (mut folded, column) =
            (Column::SumFloat(FloatColumn::new(2)), Column::SumFloat(column));
        folded.absorb(&column, |j| Some(j % 2), u32::clone, false);
        folded.absorb(&column, |j| Some(1 - j % 2), u32::clone, false);
        let Column::SumFloat(folded) = folded else { unreachable!("a float-sum column") };
        let mut want = FloatSum::new();
        reference.iter().for_each(|sum| want.merge(sum));
        assert_eq!([folded.sum(0), folded.sum(1)], [want.clone(), want]);
    }

    #[test]
    fn tainted_slots_accumulate_like_float_sums() {
        let mut column = FloatColumn::new(3);
        for g in 0..3 {
            column.exact_mut(g);
        }
        column.add(0, 0.1);
        column.add(0, 0.2);
        (0..7).for_each(|_| column.add(1, 0.1));
        let mut a = FloatSum::from(0.1);
        a.add(0.2);
        let mut b = FloatSum::new();
        (0..7).for_each(|_| b.add(0.1));
        assert_eq!([column.sum(0), column.sum(1), column.sum(2)], [a, b, FloatSum::new()]);
        assert_eq!(column.value(2), 0.0);
    }

    #[test]
    fn both_fold_paths_list_ascending_ids_with_the_same_sums() {
        let chunk = |gids: &[u32], counts: &[u64]| {
            let counts = vec![Column::Count(counts.to_vec())];
            Arc::new(GroupTable::new(gids.len(), vec![gids.to_vec()], counts))
        };
        // Chunk-ids that are global-ids: every chunk dictionary holds 0..10.
        let ids: Vec<u32> = (0..10).collect();
        for direct in [Some(10), None] {
            let fold = || GroupFold::new(1, [SlotKind::Count].into_iter(), vec![false], direct);
            let empty = fold().finish();
            assert_eq!((empty.len(), empty.keys.len()), (0, 1), "no chunk: no group, one key");
            // The ids show up first-seen as 7, 2, 9; five chunks leave
            // runs of four and one on the merge path's stack.
            let mut fold = fold();
            for (gids, counts) in
                [(&[][..], &[][..]), (&[7], &[1]), (&[2, 7, 9], &[10, 30, 20]), (&[2, 9], &[2, 1])]
            {
                fold.absorb(chunk(gids, counts), |_| &ids, |_| &ids);
            }
            fold.absorb(chunk(&[9], &[5]), |_| &ids, |_| &ids);
            let table = fold.finish();
            assert_eq!(*table.key(0), [2, 7, 9], "{direct:?}");
            let counts = (0..3)
                .map(|g| table.cell(SlotRef { slot: 0, count: None }, g, &|_, _| Value::Null));
            assert_eq!(counts.collect::<Vec<_>>(), [12, 31, 26].map(Value::Int), "{direct:?}");
        }
    }

    /// A partial's groups as `(key, the cell each of `reads` finalizes)`.
    fn rows(partial: &PartialResult, reads: &[SlotRef]) -> Vec<(Vec<Value>, Vec<Value>)> {
        let table = &partial.table;
        (0..table.len)
            .map(|g| {
                let key = table.keys.iter().map(|col| col.value(g)).collect();
                let cell = |agg: &SlotRef| table.cell(*agg, g, &|_, v: &Value| v.clone());
                (key, reads.iter().map(cell).collect())
            })
            .collect()
    }

    /// Each slot read as it stands.
    fn slot_reads(partial: &PartialResult) -> Vec<SlotRef> {
        (0..partial.table.slots.len()).map(|slot| SlotRef { slot, count: None }).collect()
    }

    /// The partial of groups given in ascending key order: each key
    /// column's cells, and the slots' columns.
    fn partial(keys: &[&[Value]], slots: Vec<Column<Value>>) -> PartialResult {
        let columns = keys.iter().map(|cells| cells.iter().collect()).collect();
        PartialResult::new(GroupTable::new(keys[0].len(), columns, slots))
    }

    fn counted(groups: &[(&str, u64)]) -> PartialResult {
        let keys: Vec<Value> = groups.iter().map(|&(key, _)| Value::from(key)).collect();
        partial(&[&keys], vec![Column::Count(groups.iter().map(|&(_, n)| n).collect())])
    }

    #[test]
    fn columns_finalize_to_their_cells() {
        let mut sums = FloatColumn::new(2);
        sums.exact_mut(0);
        sums.exact_mut(1).add(10.0);
        let partial = partial(
            &[&[Value::Int(1), Value::Int(2)]],
            vec![
                Column::Count(vec![0, 4]),
                Column::SumInt(vec![0, -3 + (1 << 64)]),
                Column::SumFloat(sums),
                Column::Extreme { is_min: true, best: vec![Some(Value::Int(5)), None] },
                Column::Extreme { is_min: false, best: vec![None, Some(Value::from("z"))] },
            ],
        );
        let (int, float, null) = (Value::Int, Value::Float, Value::Null);
        let want = [
            (vec![int(1)], vec![int(0), int(0), float(0.0), int(5), null.clone()]),
            (vec![int(2)], vec![int(4), int(-3), float(10.0), null.clone(), Value::from("z")]),
        ];
        assert_eq!(rows(&partial, &slot_reads(&partial)), want);
        // An average reads a sum slot over the count slot: an integer sum
        // exactly, wrapped by no `SUM`, rounded once.
        let averages = [SlotRef { slot: 1, count: Some(0) }, SlotRef { slot: 2, count: Some(0) }];
        let want = [
            (vec![int(1)], vec![null.clone(), null]),
            (vec![int(2)], vec![float(((1u128 << 64) - 3) as f64 / 4.0), float(2.5)]),
        ];
        assert_eq!(rows(&partial, &averages), want);
    }

    #[test]
    fn merge_is_an_ordered_union_with_the_empty_partial_as_identity() {
        let mut merged = PartialResult::default();
        merged.merge(counted(&[("m", 2), ("x", 1)])).unwrap();
        merged.merge(PartialResult::default()).unwrap();
        // New groups before, between and after the held ones; one shared.
        merged.merge(counted(&[("a", 5), ("n", 7), ("x", 3), ("z", 9)])).unwrap();
        assert_eq!(merged, counted(&[("a", 5), ("m", 2), ("n", 7), ("x", 4), ("z", 9)]));
        // A subset adds in place.
        merged.merge(counted(&[("n", 1)])).unwrap();
        assert_eq!(merged, counted(&[("a", 5), ("m", 2), ("n", 8), ("x", 4), ("z", 9)]));

        let other_shape = partial(&[&[Value::from("a")]], vec![Column::SumInt(vec![1])]);
        assert!(merged.merge(other_shape).is_err());
    }

    #[test]
    fn a_clone_shares_its_table_until_one_of_them_merges() {
        let mut original = counted(&[("a", 1), ("m", 2)]);
        let clone = original.clone();
        assert!(Arc::ptr_eq(&original.table, &clone.table), "a clone copies no column");
        // Adopting a partial into the empty one shares it too.
        let mut adopted = PartialResult::default();
        adopted.merge(clone.clone()).unwrap();
        assert!(Arc::ptr_eq(&adopted.table, &clone.table));

        // A merge writes to a table of the receiver's own, and reads a
        // shared argument without consuming it.
        let argument = counted(&[("a", 4), ("z", 1)]);
        original.merge(argument.clone()).unwrap();
        assert!(!Arc::ptr_eq(&original.table, &clone.table));
        assert_eq!(original, counted(&[("a", 5), ("m", 2), ("z", 1)]));
        assert_eq!(clone, counted(&[("a", 1), ("m", 2)]));
        assert_eq!(adopted, clone);
        assert_eq!(argument, counted(&[("a", 4), ("z", 1)]));
        // The sole holder of a table merges into it where it is.
        let own = Arc::as_ptr(&original.table);
        original.merge(argument).unwrap();
        assert_eq!(Arc::as_ptr(&original.table), own);
        assert_eq!(original, counted(&[("a", 9), ("m", 2), ("z", 2)]));
    }

    #[test]
    fn merged_columns_keep_every_kind_of_state() {
        // Per group: key, float summed, integer extreme, hashes.
        let table = |groups: [(&str, f64, i64, &[u64]); 2]| {
            let names: Vec<Value> = groups.iter().map(|g| Value::from(g.0)).collect();
            let parities: Vec<Value> = groups.iter().map(|g| Value::Int(g.2 % 2)).collect();
            let mut sums = FloatColumn::new(2);
            (0..2).for_each(|g| sums.add(g, groups[g].1));
            let best = || groups.iter().map(|g| Some(Value::Int(g.2))).collect();
            let sketches = groups.iter().map(|g| KmvSketch::from_parts(4, g.3.to_vec()));
            let slots = vec![
                Column::SumFloat(sums),
                Column::Extreme { is_min: true, best: best() },
                Column::Extreme { is_min: false, best: best() },
                Column::Distinct { m: 4, sketches: sketches.collect() },
            ];
            partial(&[&names, &parities], slots)
        };
        let mut merged = table([("a", 1e308, 4, &[1, 2]), ("c", 0.5, 1, &[9])]);
        merged.merge(table([("a", 1e308, 2, &[2, 3]), ("b", 0.25, 7, &[5])])).unwrap();
        let (int, text) = (Value::Int, Value::from);
        let want = [
            (vec![text("a"), int(0)], vec![Value::Float(f64::INFINITY), int(2), int(4), int(3)]),
            (vec![text("b"), int(1)], vec![Value::Float(0.25), int(7), int(7), int(1)]),
            (vec![text("c"), int(1)], vec![Value::Float(0.5), int(1), int(1), int(1)]),
        ];
        assert_eq!(rows(&merged, &slot_reads(&merged)), want);
    }
}
