//! The group table: the one representation of grouped aggregation states
//! inside a store, and the only module that knows its layout.
//!
//! §2.4 groups by `counts[elements[row]]++` into arrays indexed by ids, and
//! §3 looks names up last. [`GroupTable`] is those arrays: one **key
//! column** per `GROUP BY` expression and one typed **state column** per
//! aggregate slot, group `g` being position `g` of every column. A chunk
//! kernel fills a chunk-local table of global-ids; that table is the
//! chunk-result cache's payload; [`GroupFold`] adds chunk tables into the
//! store's table column by column; the executor's ranking reads columns.
//! The cell type `K` is `u32` (global-ids) inside a store and
//! [`Value`] where stores meet: [`GroupTable::into_partial`] is the one
//! place an [`AggState`] is built — once per final group, for the
//! computation tree — and [`GroupTable::from_partial`] the one place they
//! are read back, at the root.
//!
//! `AVG` is not a column: the plan lowers it to a float-sum slot and a
//! count slot ([`AggRef::Avg`]), which `SUM(x)` / `COUNT(*)` of the same
//! query share.

use crate::count_distinct::KmvSketch;
use crate::exec::{AggState, PartialResult};
use pd_common::{Error, FloatSum, FxHashMap, HeapSize, Result, Value};
use std::cmp::Ordering;

/// What one aggregate slot accumulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SlotKind {
    Count,
    SumInt,
    SumFloat,
    Min,
    Max,
    Distinct { m: usize },
}

/// Which slots a query's aggregate reads.
#[derive(Debug, Clone, Copy)]
pub(crate) enum AggRef {
    Slot(usize),
    Avg { sum: usize, count: usize },
}

/// Which cells a domain question is about: key column `i`, or the MIN/MAX
/// cells of aggregate slot `s` (cells of the slot's argument column).
#[derive(Debug, Clone, Copy)]
pub(crate) enum CellsOf {
    Key(usize),
    Slot(usize),
}

/// The value of a MIN/MAX cell of a slot.
pub(crate) type Extreme<'a, K> = dyn Fn(usize, &K) -> Value + 'a;

/// One aggregate slot's states, one per group.
pub(crate) enum Column<K> {
    Count(Vec<u64>),
    SumInt(Vec<i64>),
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

impl<K: Clone> Column<K> {
    /// A column of no groups.
    pub(crate) fn new(kind: SlotKind) -> Column<K> {
        match kind {
            SlotKind::Count => Column::Count(Vec::new()),
            SlotKind::SumInt => Column::SumInt(Vec::new()),
            SlotKind::SumFloat => Column::SumFloat(FloatColumn::new(0, false)),
            SlotKind::Min => Column::Extreme { is_min: true, best: Vec::new() },
            SlotKind::Max => Column::Extreme { is_min: false, best: Vec::new() },
            SlotKind::Distinct { m } => Column::Distinct { m, sketches: Vec::new() },
        }
    }

    fn grow(&mut self, len: usize) {
        match self {
            Column::Count(v) => v.resize(len, 0),
            Column::SumInt(v) => v.resize(len, 0),
            Column::SumFloat(f) => f.grow(len),
            Column::Extreme { best, .. } => best.resize(len, None),
            Column::Distinct { m, sketches } => sketches.resize(len, KmvSketch::new(*m)),
        }
    }

    /// Add `from`'s group `j` into group `map[j]`. `order` is the value
    /// order of this slot's MIN/MAX cells.
    fn absorb(&mut self, from: &Column<K>, map: &[u32], order: impl Fn(&K, &K) -> Ordering) {
        let slots = map.iter().map(|&to| to as usize);
        match (self, from) {
            (Column::Count(to), Column::Count(from)) => {
                slots.zip(from).for_each(|(t, n)| to[t] += n)
            }
            (Column::SumInt(to), Column::SumInt(from)) => {
                slots.zip(from).for_each(|(t, n)| to[t] = to[t].wrapping_add(*n))
            }
            (Column::SumFloat(to), Column::SumFloat(from)) => to.absorb(from, map),
            (Column::Extreme { is_min, best: to }, Column::Extreme { best: from, .. }) => {
                let worse = if *is_min { Ordering::Greater } else { Ordering::Less };
                for (t, cell) in slots.zip(from) {
                    let Some(cell) = cell else { continue };
                    if to[t].as_ref().is_none_or(|held| order(held, cell) == worse) {
                        to[t] = Some(cell.clone());
                    }
                }
            }
            (Column::Distinct { sketches: to, .. }, Column::Distinct { sketches: from, .. }) => {
                slots.zip(from).for_each(|(t, sketch)| to[t].merge(sketch))
            }
            _ => unreachable!("tables of one plan have the same slot kinds"),
        }
    }

    /// Group `i` becomes the old group `order[i]`.
    fn reorder(&mut self, order: &[u32]) {
        match self {
            Column::Count(v) => permute(v, order),
            Column::SumInt(v) => permute(v, order),
            Column::SumFloat(f) => {
                permute(&mut f.hi, order);
                permute(&mut f.lo, order);
                if !f.exact.is_empty() {
                    permute(&mut f.exact, order);
                }
            }
            Column::Extreme { best, .. } => permute(best, order),
            Column::Distinct { sketches, .. } => permute(sketches, order),
        }
    }

    fn approx_bytes(&self) -> usize {
        match self {
            Column::Count(v) => v.len() * 8,
            Column::SumInt(v) => v.len() * 8,
            Column::SumFloat(f) => {
                f.hi.len() * 16 + f.exact.iter().flatten().count() * size_of::<FloatSum>()
            }
            Column::Extreme { best, .. } => best.len() * size_of::<Option<K>>(),
            Column::Distinct { sketches, .. } => sketches.iter().map(HeapSize::total_bytes).sum(),
        }
    }
}

/// `v` with element `i` moved from position `order[i]` (a permutation).
fn permute<T>(v: &mut Vec<T>, order: &[u32]) {
    let mut old: Vec<Option<T>> = std::mem::take(v).into_iter().map(Some).collect();
    v.extend(order.iter().map(|&g| old[g as usize].take().expect("`order` is a permutation")));
}

/// A float-sum column: a double-double `(hi, lo)` per group, with an exact
/// [`FloatSum`] only for the groups the pair cannot hold.
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
/// branch); a tainted slot without an exact accumulator has seen no row.
pub(crate) struct FloatColumn {
    hi: Vec<f64>,
    lo: Vec<f64>,
    /// Per slot, its exact accumulator if it has one; empty until the
    /// first taint sizes it to `hi`, so a column of pairs carries none.
    exact: Vec<Option<Box<FloatSum>>>,
}

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
    /// `len` empty slots: pairs, or (`exact`, the materializing
    /// baseline) exact accumulators from the first add.
    pub(crate) fn new(len: usize, exact: bool) -> FloatColumn {
        let hi = if exact { f64::NAN } else { 0.0 };
        FloatColumn { hi: vec![hi; len], lo: vec![0.0; len], exact: Vec::new() }
    }

    fn grow(&mut self, len: usize) {
        self.hi.resize(len, 0.0);
        self.lo.resize(len, 0.0);
        if !self.exact.is_empty() {
            self.exact.resize_with(len, || None);
        }
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
        if self.exact.is_empty() {
            self.exact.resize_with(self.hi.len(), || None);
        }
        self.exact[g].get_or_insert_with(|| Box::new(pair_sum(hi, lo)))
    }

    fn exact(&self, g: usize) -> Option<&FloatSum> {
        self.exact.get(g)?.as_deref()
    }

    /// Slot `g`'s sum as the exact accumulator a per-row accumulation
    /// would have produced, bit for bit.
    fn sum(&self, g: usize) -> FloatSum {
        self.exact(g).cloned().unwrap_or_else(|| pair_sum(self.hi[g], self.lo[g]))
    }

    /// Slot `g`'s sum rounded once: IEEE addition of an exact pair is the
    /// correctly rounded exact sum, which is what [`FloatSum::value`] is.
    fn value(&self, g: usize) -> f64 {
        match self.exact(g) {
            Some(sum) => sum.value(),
            None if self.hi[g].is_nan() => 0.0,
            // pd-analysis: allow(float-exactness) -- rounds the exact pair once; nothing is accumulated
            None => self.hi[g] + self.lo[g],
        }
    }

    fn absorb(&mut self, from: &FloatColumn, map: &[u32]) {
        for (j, &to) in map.iter().enumerate() {
            let to = to as usize;
            match from.exact(j) {
                Some(sum) => self.exact_mut(to).merge(sum),
                None if from.hi[j].is_nan() => {}
                None => {
                    self.add(to, from.hi[j]);
                    self.add(to, from.lo[j]);
                }
            }
        }
    }
}

/// The exact accumulator of an untainted pair (zero for a tainted slot
/// that has seen no row).
fn pair_sum(hi: f64, lo: f64) -> FloatSum {
    let mut sum = FloatSum::new();
    if !hi.is_nan() {
        sum.add(hi);
        sum.add(lo);
    }
    sum
}

/// Grouped aggregation states, struct-of-arrays: group `g` is `keys[i][g]`
/// for every key column and position `g` of every slot.
pub(crate) struct GroupTable<K> {
    len: usize,
    keys: Vec<Vec<K>>,
    slots: Vec<Column<K>>,
}

impl<K: Clone> GroupTable<K> {
    /// `len` groups given column by column.
    pub(crate) fn new(len: usize, keys: Vec<Vec<K>>, slots: Vec<Column<K>>) -> GroupTable<K> {
        debug_assert!(keys.iter().all(|col| col.len() == len));
        GroupTable { len, keys, slots }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Key column `i`.
    pub(crate) fn key(&self, i: usize) -> &[K] {
        &self.keys[i]
    }

    /// Group `i` becomes the old group `order[i]` (a permutation of the
    /// groups).
    pub(crate) fn reorder(&mut self, order: &[u32]) {
        if order.iter().zip(0..).all(|(&g, i)| g == i) {
            return;
        }
        self.keys.iter_mut().for_each(|cells| permute(cells, order));
        self.slots.iter_mut().for_each(|slot| slot.reorder(order));
    }

    /// Approximate in-memory footprint, for cost-aware cache admission.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.keys.len() * self.len * size_of::<K>()
            + self.slots.iter().map(Column::approx_bytes).sum::<usize>()
    }

    /// `agg`'s output cell for group `g`.
    pub(crate) fn cell(&self, agg: AggRef, g: usize, extreme: &Extreme<'_, K>) -> Value {
        match agg {
            AggRef::Avg { sum, count } => match (&self.slots[sum], &self.slots[count]) {
                (_, Column::Count(n)) if n[g] == 0 => Value::Null,
                (Column::SumFloat(sums), Column::Count(n)) => {
                    Value::Float(sums.value(g) / n[g] as f64)
                }
                _ => unreachable!("AVG reads a float-sum slot and a count slot"),
            },
            AggRef::Slot(s) => match &self.slots[s] {
                Column::Count(n) => Value::Int(n[g] as i64),
                Column::SumInt(sums) => Value::Int(sums[g]),
                Column::SumFloat(sums) => Value::Float(sums.value(g)),
                Column::Extreme { best, .. } => {
                    best[g].as_ref().map_or(Value::Null, |cell| extreme(s, cell))
                }
                Column::Distinct { sketches, .. } => {
                    Value::Int(sketches[g].estimate().round() as i64)
                }
            },
        }
    }

    /// The same groups with every key and MIN/MAX cell translated,
    /// a column at a time.
    pub(crate) fn map_cells<V>(
        self,
        translate: impl Fn(CellsOf, Vec<K>) -> Vec<V>,
    ) -> GroupTable<V> {
        let keys = (self.keys.into_iter().enumerate())
            .map(|(i, cells)| translate(CellsOf::Key(i), cells))
            .collect();
        let slots = (self.slots.into_iter().enumerate())
            .map(|(s, column)| match column {
                Column::Count(v) => Column::Count(v),
                Column::SumInt(v) => Column::SumInt(v),
                Column::SumFloat(f) => Column::SumFloat(f),
                Column::Distinct { m, sketches } => Column::Distinct { m, sketches },
                Column::Extreme { is_min, best } => {
                    let present = best.iter().flatten().cloned().collect();
                    let mut translated = translate(CellsOf::Slot(s), present).into_iter();
                    let best =
                        best.iter().map(|cell| cell.as_ref().and_then(|_| translated.next()));
                    Column::Extreme { is_min, best: best.collect() }
                }
            })
            .collect();
        GroupTable { len: self.len, keys, slots }
    }
}

impl GroupTable<Value> {
    /// The mergeable form the §4 computation tree carries: one
    /// [`AggState`] per aggregate per group — built here and nowhere else.
    pub(crate) fn into_partial(self, aggs: &[AggRef]) -> PartialResult {
        let GroupTable { len, keys, slots } = self;
        let state = |agg: &AggRef, g: usize| match *agg {
            AggRef::Avg { sum, count } => match (&slots[sum], &slots[count]) {
                (Column::SumFloat(sums), Column::Count(n)) => {
                    AggState::Avg { sum: Box::new(sums.sum(g)), count: n[g] }
                }
                _ => unreachable!("AVG reads a float-sum slot and a count slot"),
            },
            AggRef::Slot(s) => match &slots[s] {
                Column::Count(n) => AggState::Count(n[g]),
                Column::SumInt(sums) => AggState::SumInt(sums[g]),
                Column::SumFloat(sums) => AggState::SumFloat(Box::new(sums.sum(g))),
                Column::Extreme { is_min: true, best } => AggState::Min(best[g].clone()),
                Column::Extreme { is_min: false, best } => AggState::Max(best[g].clone()),
                Column::Distinct { sketches, .. } => AggState::Distinct(sketches[g].clone()),
            },
        };
        let mut result = PartialResult::default();
        result.groups.reserve(len);
        let mut keys: Vec<_> = keys.into_iter().map(Vec::into_iter).collect();
        for g in 0..len {
            let key = keys.iter_mut().map(|cells| cells.next().expect("one cell per group"));
            result.groups.insert(key.collect(), aggs.iter().map(|agg| state(agg, g)).collect());
        }
        result
    }

    /// Read a merged partial of `n_keys` key columns and `n_aggs`
    /// aggregates back into columns — the one consumer of [`AggState`]s.
    pub(crate) fn from_partial(
        partial: PartialResult,
        n_keys: usize,
        n_aggs: usize,
    ) -> Result<(GroupTable<Value>, Vec<AggRef>)> {
        let malformed = || Error::Internal("partial result does not match its query".into());
        let len = partial.groups.len();
        let mut keys: Vec<Vec<Value>> = (0..n_keys).map(|_| Vec::with_capacity(len)).collect();
        let mut slots: Vec<Column<Value>> = Vec::new();
        let mut aggs: Vec<AggRef> = Vec::new();
        for (g, (key, states)) in partial.groups.into_iter().enumerate() {
            if key.len() != n_keys || states.len() != n_aggs {
                return Err(malformed());
            }
            keys.iter_mut().zip(key.into_vec()).for_each(|(col, cell)| col.push(cell));
            if g == 0 {
                // The first group's states name the layout.
                for state in &states {
                    let at = slots.len();
                    let kind = match state {
                        AggState::Count(_) => SlotKind::Count,
                        AggState::SumInt(_) => SlotKind::SumInt,
                        AggState::SumFloat(_) | AggState::Avg { .. } => SlotKind::SumFloat,
                        AggState::Min(_) => SlotKind::Min,
                        AggState::Max(_) => SlotKind::Max,
                        AggState::Distinct(sketch) => SlotKind::Distinct { m: sketch.m() },
                    };
                    slots.push(Column::new(kind));
                    aggs.push(if let AggState::Avg { .. } = state {
                        slots.push(Column::new(SlotKind::Count));
                        AggRef::Avg { sum: at, count: at + 1 }
                    } else {
                        AggRef::Slot(at)
                    });
                }
            }
            for (agg, state) in aggs.iter().zip(states) {
                let fits = match (*agg, state) {
                    (AggRef::Avg { sum, count }, AggState::Avg { sum: s, count: n }) => {
                        slots[sum].push_sum(s) && slots[count].push_count(n)
                    }
                    (AggRef::Slot(s), state) => slots[s].push(state),
                    _ => false,
                };
                if !fits {
                    return Err(malformed());
                }
            }
        }
        Ok((GroupTable { len, keys, slots }, aggs))
    }
}

/// Appending one more group's state; `false` if it is of another kind.
impl Column<Value> {
    fn push_count(&mut self, n: u64) -> bool {
        let Column::Count(counts) = self else { return false };
        counts.push(n);
        true
    }

    fn push_sum(&mut self, sum: Box<FloatSum>) -> bool {
        let Column::SumFloat(sums) = self else { return false };
        // Every slot of a column read from a partial is exact, so the
        // three vectors grow in step.
        sums.hi.push(f64::NAN);
        sums.lo.push(0.0);
        sums.exact.push(Some(sum));
        true
    }

    fn push(&mut self, state: AggState) -> bool {
        match (self, state) {
            (column, AggState::Count(n)) => return column.push_count(n),
            (column, AggState::SumFloat(sum)) => return column.push_sum(sum),
            (Column::SumInt(sums), AggState::SumInt(n)) => sums.push(n),
            (Column::Extreme { is_min: true, best }, AggState::Min(v))
            | (Column::Extreme { is_min: false, best }, AggState::Max(v)) => best.push(v),
            (Column::Distinct { sketches, .. }, AggState::Distinct(s)) => sketches.push(s),
            _ => return false,
        }
        true
    }
}

/// The chunk-ordered fold of chunk tables into one store-wide table.
///
/// Per chunk, every chunk group is mapped to its table slot once — through
/// a global-id-indexed array when there is one key whose dictionary is
/// proportionate to the scanned volume (the paper's counts-array), through
/// a hash index of key tuples otherwise, so a selective query over a store
/// with an enormous dictionary never allocates `dict.len()` slots for a
/// handful of groups — and then each slot column adds its chunk column
/// through that map.
pub(crate) struct GroupFold {
    /// The groups folded so far.
    table: GroupTable<u32>,
    index: SlotIndex,
    /// The current chunk's groups as table slots.
    map: Vec<u32>,
}

enum SlotIndex {
    /// `slot_of[gid]`, `u32::MAX` for an id no chunk has shown.
    ById(Vec<u32>),
    ByKey(FxHashMap<Box<[u32]>, u32>),
}

impl GroupFold {
    /// An empty table of `n_keys` key columns and `kinds` slots.
    /// `direct`: index the one key by global-id, over a dictionary of that
    /// many entries.
    pub(crate) fn new(
        n_keys: usize,
        kinds: impl Iterator<Item = SlotKind>,
        direct: Option<usize>,
    ) -> GroupFold {
        let index = match direct {
            Some(dict_len) => SlotIndex::ById(vec![u32::MAX; dict_len]),
            None => SlotIndex::ByKey(FxHashMap::default()),
        };
        let slots = kinds.map(Column::new).collect();
        let table = GroupTable::new(0, vec![Vec::new(); n_keys], slots);
        GroupFold { table, index, map: Vec::new() }
    }

    /// Add one chunk's table. `order(s, a, b)` is the value order of slot
    /// `s`'s MIN/MAX cells.
    pub(crate) fn absorb(
        &mut self,
        chunk: &GroupTable<u32>,
        order: impl Fn(usize, &u32, &u32) -> Ordering,
    ) {
        let (table, map) = (&mut self.table, &mut self.map);
        map.clear();
        match &mut self.index {
            SlotIndex::ById(slot_of) => map.extend(chunk.keys[0].iter().map(|&gid| {
                let slot = &mut slot_of[gid as usize];
                if *slot == u32::MAX {
                    *slot = table.keys[0].len() as u32;
                    table.keys[0].push(gid);
                }
                *slot
            })),
            SlotIndex::ByKey(slot_of) => {
                let mut key = vec![0u32; chunk.keys.len()];
                map.extend((0..chunk.len).map(|j| {
                    key.iter_mut().zip(&chunk.keys).for_each(|(k, col)| *k = col[j]);
                    if let Some(&slot) = slot_of.get(&key[..]) {
                        return slot;
                    }
                    let slot = slot_of.len() as u32;
                    slot_of.insert(key.clone().into_boxed_slice(), slot);
                    table.keys.iter_mut().zip(&key).for_each(|(col, &k)| col.push(k));
                    slot
                }));
            }
        }
        table.len = map.iter().fold(table.len, |len, &slot| len.max(slot as usize + 1));
        for (s, (to, from)) in table.slots.iter_mut().zip(&chunk.slots).enumerate() {
            to.grow(table.len);
            to.absorb(from, map, |a, b| order(s, a, b));
        }
    }

    /// The folded table. A global-id index lists its groups in ascending
    /// id order — the value order of a sorted dictionary, so a consumer
    /// that needs the keys ordered finds them so.
    pub(crate) fn finish(self) -> GroupTable<u32> {
        let mut table = self.table;
        if let SlotIndex::ById(slot_of) = self.index {
            let order: Vec<u32> = slot_of.into_iter().filter(|&slot| slot != u32::MAX).collect();
            table.reorder(&order);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Per-row accumulation into the column and into exact accumulators.
    fn summed(rows: &[(usize, f64)], groups: usize) -> (FloatColumn, Vec<FloatSum>) {
        let mut column = FloatColumn::new(groups, false);
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
        assert!(column.exact.is_empty(), "no slot tainted");
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
        let mut folded = FloatColumn::new(2, false);
        folded.absorb(&column, &[0, 1, 0, 1, 0, 1]);
        folded.absorb(&column, &[1, 0, 1, 0, 1, 0]);
        let mut want = FloatSum::new();
        reference.iter().for_each(|sum| want.merge(sum));
        assert_eq!([folded.sum(0), folded.sum(1)], [want.clone(), want]);
    }

    #[test]
    fn all_exact_slots_accumulate_like_float_sums() {
        let mut column = FloatColumn::new(3, true);
        column.add(0, 0.1);
        column.add(0, 0.2);
        column.exact_mut(1).add_repeated(0.1, 7);
        let mut a = FloatSum::from(0.1);
        a.add(0.2);
        let mut b = FloatSum::new();
        b.add_repeated(0.1, 7);
        assert_eq!([column.sum(0), column.sum(1), column.sum(2)], [a, b, FloatSum::new()]);
        assert_eq!(column.value(2), 0.0);
    }

    #[test]
    fn fold_maps_chunk_groups_to_slots_in_both_indexes() {
        let chunk = |gids: &[u32], counts: &[u64]| {
            GroupTable::new(gids.len(), vec![gids.to_vec()], vec![Column::Count(counts.to_vec())])
        };
        for direct in [Some(10), None] {
            let mut fold = GroupFold::new(1, [SlotKind::Count].into_iter(), direct);
            fold.absorb(&chunk(&[], &[]), |_, a, b| a.cmp(b));
            fold.absorb(&chunk(&[7, 2], &[1, 2]), |_, a, b| a.cmp(b));
            fold.absorb(&chunk(&[2, 9, 7], &[10, 20, 30]), |_, a, b| a.cmp(b));
            // First-seen order under the hash index, ascending ids under
            // the direct one.
            let table = fold.finish();
            let (ids, want) = match direct {
                Some(_) => ([2, 7, 9], [12, 31, 20]),
                None => ([7, 2, 9], [31, 12, 20]),
            };
            assert_eq!(table.key(0), ids);
            let counts = (0..3).map(|g| table.cell(AggRef::Slot(0), g, &|_, _| Value::Null));
            assert_eq!(counts.collect::<Vec<_>>(), want.map(Value::Int));
        }
    }
}
