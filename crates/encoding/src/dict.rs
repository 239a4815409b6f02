//! Dictionaries: all distinct values of a column, sorted, addressed by
//! integer rank (*global-id*) — §2.3 of the paper.
//!
//! Both halves of §2.3's double dictionary are one structure, [`Sorted`]: a
//! boxed slice of strictly ascending entries whose index is the id. A
//! global dictionary is a `Sorted` of values (global-id → value); a chunk
//! dictionary ([`crate::ChunkDict`]) is a `Sorted<u32>` of global-ids
//! (chunk-id → global-id).
//!
//! Lookups go both ways: `value(global_id)` when materializing query
//! results (e.g. the top-10 strings after a group-by) and `id_of(value)`
//! when translating literals in `WHERE` clauses into global-ids for chunk
//! skipping.
//!
//! String and integer dictionaries come in two flavours, mirroring the
//! paper's §3 optimization step: a "canonical" sorted array with binary
//! search, and the same entries compressed — strings front-coded in blocks
//! ([`FrontCoded`]), integers packed as fixed-width offsets from their
//! minimum ([`Packed`]).

use crate::front::FrontCoded;
use crate::packed::Packed;
use pd_common::{sortkey, DataType, Error, FxHashMap, HeapSize, Result, Value};
use pd_compress::varint;
use std::borrow::Cow;
use std::cmp::Ordering;

/// What a [`Sorted`] holds: how two entries order, and what heap one owns.
pub trait Entry {
    fn order(&self, other: &Self) -> Ordering;

    /// Heap bytes the entry owns beyond its own size.
    fn heap(&self) -> usize {
        0
    }
}

impl Entry for i64 {
    fn order(&self, other: &Self) -> Ordering {
        self.cmp(other)
    }
}

impl Entry for u32 {
    fn order(&self, other: &Self) -> Ordering {
        self.cmp(other)
    }
}

/// Total order: every bit pattern is its own entry (`-0.0` before `0.0`,
/// NaN last), so a dictionary holding a NaN equals its own copy.
impl Entry for f64 {
    fn order(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl Entry for Box<str> {
    fn order(&self, other: &Self) -> Ordering {
        self.cmp(other)
    }

    fn heap(&self) -> usize {
        self.len()
    }
}

/// Strictly ascending distinct entries; an entry's id is its index.
#[derive(Debug, Clone)]
pub struct Sorted<T> {
    pub(crate) values: Box<[T]>,
}

/// Entries equal when they order equal: for floats, when their bits do.
impl<T: Entry> PartialEq for Sorted<T> {
    fn eq(&self, other: &Self) -> bool {
        self.values.len() == other.values.len()
            && self.values.iter().zip(other.values.iter()).all(|(a, b)| a.order(b).is_eq())
    }
}

impl<T: Entry> Eq for Sorted<T> {}

impl<T: Entry> Sorted<T> {
    /// Build from strictly ascending entries.
    pub fn from_sorted(values: Vec<T>) -> Result<Self> {
        if values.windows(2).any(|pair| pair[0].order(&pair[1]).is_ge()) {
            return Err(Error::Data("dictionary input must be sorted and unique".into()));
        }
        Ok(Sorted { values: values.into_boxed_slice() })
    }

    /// The distinct entries of `raw`, and each entry's id: sort, dedup,
    /// then rank every entry by a binary search.
    pub fn ranked(raw: &[T]) -> (Self, Vec<u32>)
    where
        T: Clone,
    {
        let mut distinct = raw.to_vec();
        distinct.sort_unstable_by(T::order);
        distinct.dedup_by(|a, b| a.order(b).is_eq());
        let sorted = Sorted { values: distinct.into_boxed_slice() };
        let ids = raw.iter().map(|v| sorted.id_of(v).expect("value was inserted")).collect();
        (sorted, ids)
    }

    pub fn len(&self) -> u32 {
        self.values.len() as u32
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The entry with id `id`. Panics if out of range.
    pub fn value(&self, id: u32) -> &T {
        &self.values[id as usize]
    }

    /// Every entry, indexed by id.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Id of `probe`, if present.
    pub fn id_of(&self, probe: &T) -> Option<u32> {
        self.rank_by(|v| v.order(probe)).ok()
    }

    /// Where the probe `cmp` orders entries against stands, with
    /// [`slice::binary_search`]'s contract: `Ok(id)` of its entry, or
    /// `Err(id)` of the first entry above it.
    pub fn rank_by(&self, cmp: impl FnMut(&T) -> Ordering) -> std::result::Result<u32, u32> {
        let at = self.values.binary_search_by(cmp);
        at.map(|i| i as u32).map_err(|i| i as u32)
    }

    /// Id of the first entry `>= probe`.
    pub fn lower_bound(&self, probe: &T) -> u32 {
        self.rank_by(|v| v.order(probe)).unwrap_or_else(std::convert::identity)
    }

    /// Merge `batch` into this array, which becomes their union, in order.
    /// A batch entry is placed by a binary search. New entries that all
    /// sort past the last one are appended to the array, and no id moves;
    /// others rebuild it in one pass.
    pub fn merge(&mut self, batch: &Sorted<T>) -> Merged
    where
        T: Clone,
    {
        // Per batch entry absent from `self`, the old position it goes before.
        let mut inserts: Vec<(usize, &T)> = Vec::new();
        let ids = (batch.values.iter())
            .map(|v| {
                let at = self.lower_bound(v) as usize;
                let id = (at + inserts.len()) as u32;
                if self.values.get(at).is_none_or(|o| o.order(v).is_ne()) {
                    inserts.push((at, v));
                }
                id
            })
            .collect();
        let Some(&(first, _)) = inserts.first() else { return Merged { ids, renumbered: None } };
        let len = self.values.len();
        let mut kept = std::mem::take(&mut self.values).into_vec();
        if first == len {
            kept.reserve_exact(inserts.len());
            kept.extend(inserts.into_iter().map(|(_, v)| v.clone()));
            self.values = kept.into_boxed_slice();
            return Merged { ids, renumbered: None };
        }
        let mut renumbered = Vec::with_capacity(len);
        let mut merged = Vec::with_capacity(len + inserts.len());
        let mut kept = kept.into_iter();
        let mut placed = 0;
        for (at, v) in inserts.iter().map(|&(at, v)| (at, Some(v))).chain([(len, None)]) {
            for value in kept.by_ref().take(at - placed) {
                renumbered.push(merged.len() as u32);
                merged.push(value);
            }
            placed = at;
            merged.extend(v.cloned());
        }
        self.values = merged.into_boxed_slice();
        Merged { ids, renumbered: Some(renumbered) }
    }
}

impl<T: Entry> HeapSize for Sorted<T> {
    fn heap_bytes(&self) -> usize {
        self.values.len() * std::mem::size_of::<T>()
            + self.values.iter().map(Entry::heap).sum::<usize>()
    }
}

/// String dictionary: sorted array ("canonical", §2.3) or front-coded
/// blocks ("OptDicts", §3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StrDict {
    Sorted(Sorted<Box<str>>),
    FrontCoded(FrontCoded),
}

impl StrDict {
    pub fn len(&self) -> u32 {
        match self {
            StrDict::Sorted(d) => d.len(),
            StrDict::FrontCoded(d) => d.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn value(&self, id: u32) -> String {
        match self {
            StrDict::Sorted(d) => String::from(&**d.value(id)),
            StrDict::FrontCoded(d) => d.value(id),
        }
    }

    /// The UTF-8 bytes of the strings with ranks `ids` (strictly
    /// ascending), handed to `f` in that order: indexing for the sorted
    /// array, one ordered pass for front coding
    /// ([`FrontCoded::for_each_of`]).
    pub fn for_each_of(&self, ids: &[u32], mut f: impl FnMut(&[u8])) {
        match self {
            StrDict::Sorted(d) => ids.iter().for_each(|&id| f(d.value(id).as_bytes())),
            StrDict::FrontCoded(d) => d.for_each_of(ids, f),
        }
    }

    /// Where `value` stands among the entries, with
    /// [`slice::binary_search`]'s contract: a binary search of the array, or
    /// of the block heads and then one block ([`FrontCoded::rank`]).
    pub fn rank(&self, value: &str) -> std::result::Result<u32, u32> {
        match self {
            StrDict::Sorted(d) => d.rank_by(|v| (**v).cmp(value)),
            StrDict::FrontCoded(d) => d.rank(value),
        }
    }

    /// The sorted-array form: the array itself, or the front-coded strings
    /// in rank order.
    fn to_sorted(&self) -> Cow<'_, Sorted<Box<str>>> {
        match self {
            StrDict::Sorted(d) => Cow::Borrowed(d),
            StrDict::FrontCoded(d) => {
                let mut values = Vec::with_capacity(d.len() as usize);
                d.for_each(|_, s| {
                    values.push(std::str::from_utf8(s).expect("a dictionary holds strings").into())
                });
                Cow::Owned(Sorted { values: values.into_boxed_slice() })
            }
        }
    }

    /// Visit `(id, UTF-8 bytes)` for every entry in ascending order.
    pub fn for_each(&self, mut f: impl FnMut(u32, &[u8])) {
        match self {
            StrDict::Sorted(d) => {
                d.values().iter().enumerate().for_each(|(id, v)| f(id as u32, v.as_bytes()))
            }
            StrDict::FrontCoded(d) => d.for_each(f),
        }
    }
}

impl HeapSize for StrDict {
    fn heap_bytes(&self) -> usize {
        match self {
            StrDict::Sorted(d) => d.heap_bytes(),
            StrDict::FrontCoded(d) => d.heap_bytes(),
        }
    }
}

/// Integer dictionary: sorted array ("canonical", §2.3) or offsets from the
/// minimum packed to one width ("OptDicts", §3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IntDict {
    Sorted(Sorted<i64>),
    Packed(Packed),
}

impl IntDict {
    pub fn len(&self) -> u32 {
        match self {
            IntDict::Sorted(d) => d.len(),
            IntDict::Packed(d) => d.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The entry with id `id`, in O(1): an index, or one load of its
    /// packed offset ([`Packed::value`]). Panics if out of range.
    #[inline]
    pub fn value(&self, id: u32) -> i64 {
        match self {
            IntDict::Sorted(d) => *d.value(id),
            IntDict::Packed(d) => d.value(id),
        }
    }

    /// Where `probe` stands among the entries, with
    /// [`slice::binary_search`]'s contract.
    pub fn rank(&self, probe: i64) -> std::result::Result<u32, u32> {
        match self {
            IntDict::Sorted(d) => d.rank_by(|v| v.cmp(&probe)),
            IntDict::Packed(d) => d.rank(probe),
        }
    }

    /// The sorted-array form: the array itself, or the packed entries
    /// unpacked.
    fn to_sorted(&self) -> Cow<'_, Sorted<i64>> {
        match self {
            IntDict::Sorted(d) => Cow::Borrowed(d),
            IntDict::Packed(d) => Cow::Owned(Sorted { values: d.iter().collect() }),
        }
    }

    fn merge(&mut self, batch: &IntDict) -> Merged {
        match self {
            IntDict::Sorted(old) => old.merge(&batch.to_sorted()),
            IntDict::Packed(old) => old.merge(&batch.to_sorted()),
        }
    }
}

impl HeapSize for IntDict {
    fn heap_bytes(&self) -> usize {
        match self {
            IntDict::Sorted(d) => d.heap_bytes(),
            IntDict::Packed(d) => d.heap_bytes(),
        }
    }
}

/// 2^53: below it every integer is its own `f64`; from it on neighbouring
/// `i64`s round to one float, so the row filter (which compares the
/// integer side `as f64`) and an exact integer lookup stop agreeing.
const EXACT_INT_LIMIT: f64 = 9_007_199_254_740_992.0;

/// The integer a float literal names in an integer dictionary, if it names
/// exactly one: integral and below 2^53 in magnitude. A bare `as i64` would
/// saturate `1e30` to `i64::MAX` and turn NaN into `0`.
fn float_as_int(v: f64) -> Option<i64> {
    (v.fract() == 0.0 && v.abs() < EXACT_INT_LIMIT).then_some(v as i64)
}

/// A typed global dictionary.
#[derive(Debug, Clone, PartialEq)]
pub enum GlobalDict {
    Int(IntDict),
    Float(Sorted<f64>),
    Str(StrDict),
}

impl GlobalDict {
    pub fn data_type(&self) -> DataType {
        match self {
            GlobalDict::Int(_) => DataType::Int,
            GlobalDict::Float(_) => DataType::Float,
            GlobalDict::Str(_) => DataType::Str,
        }
    }

    /// Number of distinct values.
    pub fn len(&self) -> u32 {
        match self {
            GlobalDict::Int(d) => d.len(),
            GlobalDict::Float(d) => d.len(),
            GlobalDict::Str(d) => d.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value with rank `id`.
    pub fn value(&self, id: u32) -> Value {
        match self {
            GlobalDict::Int(d) => Value::Int(d.value(id)),
            GlobalDict::Float(d) => Value::Float(*d.value(id)),
            GlobalDict::Str(d) => Value::Str(d.value(id)),
        }
    }

    /// The values with ranks `ids` — strictly ascending, all below `len()`
    /// — in that order: what `ids.map(value)` returns, at the price of one
    /// ordered pass over the dictionary ([`GlobalDict::for_each_key`])
    /// instead of one lookup per id.
    pub fn values_of(&self, ids: &[u32]) -> Vec<Value> {
        let mut values = Vec::with_capacity(ids.len());
        self.for_each_key(ids, |key| values.push(sortkey::decode(key)));
        values
    }

    /// The sort keys ([`pd_common::sortkey`]) of the values with ranks
    /// `ids` — strictly ascending, all below `len()` — handed to `f` in that
    /// order, by one ordered pass over the dictionary and with no [`Value`]
    /// made. Array dictionaries index, packed integers load an offset each;
    /// front coding decodes each block once and builds no string
    /// ([`FrontCoded::for_each_of`], which also panics on unsorted ids) —
    /// the difference between translating a group table and decoding a
    /// block per group. Panics on an id out of bounds, like
    /// [`GlobalDict::value`].
    pub fn for_each_key(&self, ids: &[u32], mut f: impl FnMut(&[u8])) {
        self.keys_of(ids, &mut f)
    }

    fn keys_of(&self, ids: &[u32], f: &mut dyn FnMut(&[u8])) {
        let mut key = Vec::new();
        match self {
            GlobalDict::Int(d) => ids.iter().for_each(|&id| f(&sortkey::int(d.value(id)))),
            GlobalDict::Float(d) => ids.iter().for_each(|&id| f(&sortkey::float(*d.value(id)))),
            GlobalDict::Str(d) => d.for_each_of(ids, |s| {
                key.clear();
                sortkey::push_str(s, &mut key);
                f(&key);
            }),
        }
    }

    /// Do id-domain answers about `literal` ([`GlobalDict::id_of`],
    /// [`GlobalDict::lower_bound`], [`GlobalDict::range_ids`]) equal, bit for
    /// bit, what the row filter's `values_equal` / `values_compare` decide
    /// value by value? Only a `Float` literal against integer entries can
    /// fail: the filter casts the integer side `as f64` and orders with
    /// `total_cmp`, so a non-finite literal, one at or beyond 2^53, or
    /// `-0.0` (ordered *below* integer zero) has no integer that stands for
    /// it. Callers must then treat the literal as "maybe", not as absent.
    pub fn resolves_exactly(&self, literal: &Value) -> bool {
        match (self.data_type(), literal) {
            (DataType::Int, Value::Float(v)) => {
                v.abs() < EXACT_INT_LIMIT && !(*v == 0.0 && v.is_sign_negative())
            }
            _ => true,
        }
    }

    /// Rank of `value`, if present. A type mismatch simply yields `None`
    /// (the restriction `country = 42` matches nothing), and so does a
    /// float no integer entry can equal (`1e30`, NaN).
    pub fn id_of(&self, value: &Value) -> Option<u32> {
        match (self, value) {
            (GlobalDict::Int(d), Value::Int(v)) => d.rank(*v).ok(),
            (GlobalDict::Int(d), Value::Float(v)) => float_as_int(*v).and_then(|x| d.rank(x).ok()),
            (GlobalDict::Float(d), Value::Float(v)) => d.id_of(v),
            (GlobalDict::Float(d), Value::Int(v)) => d.id_of(&(*v as f64)),
            (GlobalDict::Str(d), Value::Str(v)) => d.rank(v).ok(),
            _ => None,
        }
    }

    /// Rank of the first dictionary entry `>= value` (used by range
    /// restrictions), in the order the row filter compares by
    /// (`values_compare`: numbers across Int and Float by value, any other
    /// pair of types by [`Value`]'s order of kinds — NULL, numbers, strings).
    /// `None` only for a float bound an integer dictionary cannot rank
    /// exactly ([`GlobalDict::resolves_exactly`]).
    pub fn lower_bound(&self, value: &Value) -> Option<u32> {
        match (self, value) {
            (GlobalDict::Int(d), Value::Int(v)) => Some(at_or_above(d.rank(*v))),
            (GlobalDict::Int(d), Value::Float(v)) => {
                // First integer >= the float bound.
                self.resolves_exactly(value).then(|| at_or_above(d.rank(v.ceil() as i64)))
            }
            (GlobalDict::Float(d), Value::Float(v)) => Some(d.lower_bound(v)),
            (GlobalDict::Float(d), Value::Int(v)) => Some(d.lower_bound(&(*v as f64))),
            (GlobalDict::Str(d), Value::Str(v)) => Some(at_or_above(d.rank(v))),
            // A string bound is above every number, and a number or NULL
            // below every string; NULL is below every number too.
            (GlobalDict::Int(_) | GlobalDict::Float(_), Value::Str(_)) => Some(self.len()),
            _ => Some(0),
        }
    }

    /// Resolve a value range to the half-open global-id interval
    /// `[lo, hi)` of matching dictionary entries.
    ///
    /// Because dictionaries are sorted, id order equals value order, so a
    /// range restriction on values is a range restriction on ids — this is
    /// what lets chunk min/max ids answer range predicates (subsuming the
    /// min/max "small materialized aggregates" technique the paper cites).
    ///
    /// Bounds are `(value, inclusive)`, ranked by [`GlobalDict::lower_bound`]
    /// — front coding ranks a string it lacks as the array does
    /// ([`FrontCoded::rank`]).
    /// Returns `None` only when an integer dictionary cannot rank a float
    /// bound exactly ([`GlobalDict::resolves_exactly`]). The fully unbounded
    /// range is `Some((0, len))` on every dictionary.
    pub fn range_ids(
        &self,
        min: Option<&(Value, bool)>,
        max: Option<&(Value, bool)>,
    ) -> Option<(u32, u32)> {
        // Where a bound cuts the ids: past an entry equal to it when an
        // upper bound keeps it or a lower bound drops it.
        let cut = |(v, inclusive): &(Value, bool), upper: bool| {
            let base = self.lower_bound(v)?;
            Some(base + u32::from(*inclusive == upper && self.id_of(v) == Some(base)))
        };
        let lo = min.map_or(Some(0), |bound| cut(bound, false))?;
        let hi = max.map_or(Some(self.len()), |bound| cut(bound, true))?;
        Some((lo, hi.max(lo)))
    }

    /// Compress a sorted-array dictionary ("OptDicts", §3): front-code
    /// strings, pack integers. Floats, and compressed dictionaries, come
    /// back as they are.
    pub fn optimize(self) -> Result<GlobalDict> {
        Ok(match self {
            GlobalDict::Str(StrDict::Sorted(d)) => {
                GlobalDict::Str(StrDict::FrontCoded(FrontCoded::from_sorted(d.values())?))
            }
            GlobalDict::Int(IntDict::Sorted(d)) => {
                GlobalDict::Int(IntDict::Packed(Packed::from_sorted(d.values())?))
            }
            other => other,
        })
    }

    /// Merge the entries of `batch` — a dictionary of this one's type, over
    /// a batch of appended rows — into this one, which stays sorted: the
    /// dictionary a build of the old rows and the batch's rows together
    /// would make, in the same flavour (front coding stays front-coded,
    /// packing stays packed).
    ///
    /// Each batch entry is ranked, and only if one is new is the dictionary
    /// rewritten, in one pass over both: O(k log n) for a batch of k entries
    /// the dictionary holds, O(n + k log n) otherwise
    /// ([`Sorted::merge`], [`FrontCoded::merge`], [`Packed::merge`]). An
    /// integer dictionary whose new entries all sort past its last one
    /// grows at its end instead, in O(k log n) and one reallocation.
    ///
    /// Returns the batch entries' ids and, if any old entry moved, the
    /// monotone map of old ids to new ones ([`Merged`]).
    pub fn merge(&mut self, batch: &GlobalDict) -> Result<Merged> {
        match (self, batch) {
            (GlobalDict::Int(old), GlobalDict::Int(new)) => Ok(old.merge(new)),
            (GlobalDict::Float(old), GlobalDict::Float(new)) => Ok(old.merge(new)),
            (GlobalDict::Str(StrDict::Sorted(old)), GlobalDict::Str(new)) => {
                Ok(old.merge(&new.to_sorted()))
            }
            (GlobalDict::Str(StrDict::FrontCoded(old)), GlobalDict::Str(new)) => {
                Ok(old.merge(new.to_sorted().values()))
            }
            (old, new) => Err(Error::Type(format!(
                "cannot merge a {} dictionary into a {} one",
                new.data_type(),
                old.data_type()
            ))),
        }
    }

    /// Serialize the dictionary contents for the compressed layer:
    /// strings as len-prefixed bytes, integers as delta varints, floats as
    /// little-endian bits.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            GlobalDict::Int(d) => {
                out.push(0);
                varint::write_u64(&mut out, u64::from(d.len()));
                let mut prev = 0i64;
                for id in 0..d.len() {
                    let v = d.value(id);
                    varint::write_i64(&mut out, v.wrapping_sub(prev));
                    prev = v;
                }
            }
            GlobalDict::Float(d) => {
                out.push(1);
                varint::write_u64(&mut out, u64::from(d.len()));
                for v in d.values() {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            GlobalDict::Str(d) => {
                out.push(2);
                varint::write_u64(&mut out, u64::from(d.len()));
                d.for_each(|_, s| {
                    varint::write_u64(&mut out, s.len() as u64);
                    out.extend_from_slice(s);
                });
            }
        }
        out
    }

    /// Inverse of [`GlobalDict::to_bytes`]. String and integer dictionaries
    /// come back in sorted-array form; call [`GlobalDict::optimize`] to
    /// compress them.
    pub fn from_bytes(bytes: &[u8]) -> Result<GlobalDict> {
        let tag = *bytes.first().ok_or_else(|| Error::Data("dict: empty buffer".into()))?;
        let mut pos = 1;
        let len = varint::read_u64(bytes, &mut pos)? as usize;
        match tag {
            0 => {
                let mut values = Vec::with_capacity(len.min(1 << 20));
                let mut prev = 0i64;
                for _ in 0..len {
                    prev = prev.wrapping_add(varint::read_i64(bytes, &mut pos)?);
                    values.push(prev);
                }
                Ok(GlobalDict::Int(IntDict::Sorted(Sorted::from_sorted(values)?)))
            }
            1 => {
                let mut values = Vec::with_capacity(len.min(1 << 20));
                for _ in 0..len {
                    let raw = bytes
                        .get(pos..pos + 8)
                        .ok_or_else(|| Error::Data("dict: truncated float".into()))?;
                    values.push(f64::from_le_bytes(raw.try_into().expect("8 bytes")));
                    pos += 8;
                }
                Ok(GlobalDict::Float(Sorted::from_sorted(values)?))
            }
            2 => {
                let mut values = Vec::with_capacity(len.min(1 << 20));
                for _ in 0..len {
                    let n = varint::read_u64(bytes, &mut pos)? as usize;
                    let raw = bytes
                        .get(pos..pos + n)
                        .ok_or_else(|| Error::Data("dict: truncated string".into()))?;
                    let s = std::str::from_utf8(raw)
                        .map_err(|_| Error::Data("dict: invalid UTF-8".into()))?;
                    values.push(s.into());
                    pos += n;
                }
                Ok(GlobalDict::Str(StrDict::Sorted(Sorted::from_sorted(values)?)))
            }
            t => Err(Error::Data(format!("dict: unknown tag {t}"))),
        }
    }
}

impl HeapSize for GlobalDict {
    fn heap_bytes(&self) -> usize {
        match self {
            GlobalDict::Int(d) => d.heap_bytes(),
            GlobalDict::Float(d) => d.heap_bytes(),
            GlobalDict::Str(d) => d.heap_bytes(),
        }
    }
}

/// The id of the first entry at or above a probe, from a rank.
fn at_or_above(rank: std::result::Result<u32, u32>) -> u32 {
    rank.unwrap_or_else(std::convert::identity)
}

/// What [`GlobalDict::merge`] did to a dictionary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Merged {
    /// Per entry of the merged batch, its id in the merged dictionary.
    pub ids: Vec<u32>,
    /// Per old id, its new id — strictly ascending, so a sorted list of
    /// old ids maps to a sorted list of new ones. `None` when no old id
    /// moved: every new value sorts after the last old one, or there is
    /// none.
    pub renumbered: Option<Vec<u32>>,
}

/// Build a sorted global dictionary from a raw column and map every row to
/// its global-id.
///
/// This is the first half of the import pipeline of §2.3; front coding and
/// packing are made from the result by [`GlobalDict::optimize`]. All values must share one
/// type; `Null` is rejected (the stores in the paper operate on
/// denormalized, fully populated log tables).
pub fn build_dict(values: &[Value]) -> Result<(GlobalDict, Vec<u32>)> {
    let first = values
        .first()
        .ok_or_else(|| Error::Data("cannot build a dictionary from an empty column".into()))?;
    let dtype = first
        .data_type()
        .ok_or_else(|| Error::Data("null values are not supported in stored columns".into()))?;

    match dtype {
        DataType::Int => {
            let (dict, ids) = Sorted::ranked(&typed(values, dtype, Value::as_int)?);
            Ok((GlobalDict::Int(IntDict::Sorted(dict)), ids))
        }
        DataType::Float => {
            let float = |v: &Value| if let Value::Float(x) = v { Some(*x) } else { None };
            let (dict, ids) = Sorted::ranked(&typed(values, dtype, float)?);
            Ok((GlobalDict::Float(dict), ids))
        }
        DataType::Str => {
            // Hash-map interning first, then rank assignment: avoids a
            // comparison sort of every (possibly long, heavily duplicated)
            // row value.
            let mut intern: FxHashMap<&str, u32> = FxHashMap::default();
            let mut order: Vec<u32> = Vec::with_capacity(values.len());
            for v in values {
                match v {
                    Value::Str(s) => {
                        let next = intern.len() as u32;
                        let slot = *intern.entry(s.as_str()).or_insert(next);
                        order.push(slot);
                    }
                    other => return Err(type_mismatch(dtype, other)),
                }
            }
            let mut distinct: Vec<(&str, u32)> =
                intern.iter().map(|(s, slot)| (*s, *slot)).collect();
            distinct.sort_unstable_by(|a, b| a.0.cmp(b.0));
            // slot -> rank translation.
            let mut rank_of_slot = vec![0u32; distinct.len()];
            for (rank, (_, slot)) in distinct.iter().enumerate() {
                rank_of_slot[*slot as usize] = rank as u32;
            }
            let ids = order.iter().map(|slot| rank_of_slot[*slot as usize]).collect();
            let sorted: Vec<Box<str>> = distinct.iter().map(|(s, _)| (*s).into()).collect();
            Ok((GlobalDict::Str(StrDict::Sorted(Sorted::from_sorted(sorted)?)), ids))
        }
    }
}

/// Every value of a column, unwrapped by `get`; the first it refuses is a
/// type mismatch.
fn typed<T>(
    values: &[Value],
    dtype: DataType,
    get: impl Fn(&Value) -> Option<T>,
) -> Result<Vec<T>> {
    values.iter().map(|v| get(v).ok_or_else(|| type_mismatch(dtype, v))).collect()
}

fn type_mismatch(expected: DataType, got: &Value) -> Error {
    Error::Type(format!(
        "column is {expected} but found {}",
        got.data_type().map_or_else(|| "NULL".to_owned(), |t| t.to_string())
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_dict_round_trip() {
        let values: Vec<Value> = [5i64, 3, 5, 8, 3, 3, -1].into_iter().map(Value::Int).collect();
        let (dict, ids) = build_dict(&values).unwrap();
        assert_eq!(dict.len(), 4); // -1, 3, 5, 8
        for (v, id) in values.iter().zip(&ids) {
            assert_eq!(&dict.value(*id), v);
        }
        assert_eq!(dict.id_of(&Value::Int(8)), Some(3));
        assert_eq!(dict.id_of(&Value::Int(99)), None);
    }

    #[test]
    fn str_dict_round_trip_both_flavours() {
        let values: Vec<Value> = ["ebay", "amazon", "ebay", "cheap flights", "amazon"]
            .iter()
            .map(|s| Value::from(*s))
            .collect();
        let (sorted, ids) = build_dict(&values).unwrap();
        for (front_coded, dict) in [(false, sorted.clone()), (true, sorted.optimize().unwrap())] {
            assert_eq!(dict.len(), 3);
            for (v, id) in values.iter().zip(&ids) {
                assert_eq!(&dict.value(*id), v, "front_coded={front_coded}");
            }
            // Sorted ranks: amazon=0, cheap flights=1, ebay=2.
            assert_eq!(dict.id_of(&Value::from("amazon")), Some(0));
            assert_eq!(dict.id_of(&Value::from("ebay")), Some(2));
        }
    }

    #[test]
    fn float_dict_handles_total_order() {
        let values: Vec<Value> =
            [1.5f64, -0.0, 0.0, 1.5, f64::NAN].into_iter().map(Value::Float).collect();
        let (dict, ids) = build_dict(&values).unwrap();
        assert_eq!(dict.len(), 4); // -0.0, 0.0, 1.5, NaN
        for (v, id) in values.iter().zip(&ids) {
            assert_eq!(&dict.value(*id), v);
        }
    }

    #[test]
    fn nulls_and_mixed_types_rejected() {
        assert!(build_dict(&[Value::Null]).is_err());
        assert!(build_dict(&[Value::Int(1), Value::from("x")]).is_err());
        assert!(build_dict(&[]).is_err());
    }

    #[test]
    fn id_of_type_mismatch_is_none() {
        let (dict, _) = build_dict(&[Value::Int(1), Value::Int(2)]).unwrap();
        assert_eq!(dict.id_of(&Value::from("1")), None);
    }

    #[test]
    fn float_dict_accepts_int_literals() {
        let (dict, _) = build_dict(&[Value::Float(4.0), Value::Float(5.5)]).unwrap();
        assert_eq!(dict.id_of(&Value::Int(4)), Some(0));
        assert_eq!(dict.lower_bound(&Value::Int(5)), Some(1));
    }

    #[test]
    fn lower_bound_semantics() {
        let (dict, _) = build_dict(&[Value::Int(10), Value::Int(20), Value::Int(30)]).unwrap();
        assert_eq!(dict.lower_bound(&Value::Int(5)), Some(0));
        assert_eq!(dict.lower_bound(&Value::Int(20)), Some(1));
        assert_eq!(dict.lower_bound(&Value::Int(25)), Some(2));
        assert_eq!(dict.lower_bound(&Value::Int(99)), Some(3));
        // Another kind of bound orders as the row filter orders it: strings
        // above every number, numbers above NULL.
        assert_eq!(dict.lower_bound(&Value::from("5")), Some(3));
        assert_eq!(dict.lower_bound(&Value::Null), Some(0));
        let (strings, _) = build_dict(&[Value::from("a"), Value::from("b")]).unwrap();
        assert_eq!(strings.lower_bound(&Value::Int(i64::MAX)), Some(0));
        assert_eq!(strings.range_ids(None, Some(&(Value::Float(1e300), true))), Some((0, 0)));
    }

    #[test]
    fn optimize_compresses_strings_and_integers() {
        let (s, _) = build_dict(&[Value::from("b"), Value::from("a")]).unwrap();
        let opt = s.optimize().unwrap();
        assert!(matches!(opt, GlobalDict::Str(StrDict::FrontCoded(_))));
        assert_eq!(opt.value(0), Value::from("a"));

        let (i, _) = build_dict(&[Value::Int(7), Value::Int(-1)]).unwrap();
        let opt = i.optimize().unwrap();
        assert!(matches!(opt, GlobalDict::Int(IntDict::Packed(_))));
        assert_eq!((opt.value(0), opt.value(1)), (Value::Int(-1), Value::Int(7)));
        assert_eq!(opt.clone().optimize().unwrap(), opt, "packing is done once");

        let (f, _) = build_dict(&[Value::Float(1.0)]).unwrap();
        assert_eq!(f.clone().optimize().unwrap(), f);
    }

    #[test]
    fn serialization_round_trips() {
        let cases: Vec<Vec<Value>> = vec![
            [1i64, 5, 5, -9, 1 << 40].iter().map(|&v| Value::Int(v)).collect(),
            [0.25f64, -1.0, 3.5].iter().map(|&v| Value::Float(v)).collect(),
            ["x", "abc", "", "zz"].iter().map(|&v| Value::from(v)).collect(),
        ];
        for values in cases {
            let (dict, _) = build_dict(&values).unwrap();
            let bytes = dict.to_bytes();
            let back = GlobalDict::from_bytes(&bytes).unwrap();
            assert_eq!(back.len(), dict.len());
            for id in 0..dict.len() {
                assert_eq!(back.value(id), dict.value(id));
            }
        }
    }

    #[test]
    fn front_coded_serialization_round_trips_via_sorted_form() {
        let values: Vec<Value> = ["ga", "de", "fr", "de"].iter().map(|&v| Value::from(v)).collect();
        let dict = build_dict(&values).unwrap().0.optimize().unwrap();
        let back = GlobalDict::from_bytes(&dict.to_bytes()).unwrap();
        for id in 0..dict.len() {
            assert_eq!(back.value(id), dict.value(id));
        }
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(GlobalDict::from_bytes(&[]).is_err());
        assert!(GlobalDict::from_bytes(&[7]).is_err());
        assert!(GlobalDict::from_bytes(&[2, 1, 200]).is_err());
        // Tag 3 once carried a dictionary grown by appends; none is made.
        assert!(GlobalDict::from_bytes(&[3, 0]).is_err());
    }

    #[test]
    fn range_ids_semantics() {
        let (dict, _) =
            build_dict(&[Value::Int(10), Value::Int(20), Value::Int(30), Value::Int(40)]).unwrap();
        let r = |min: Option<(i64, bool)>, max: Option<(i64, bool)>| {
            dict.range_ids(
                min.map(|(v, i)| (Value::Int(v), i)).as_ref(),
                max.map(|(v, i)| (Value::Int(v), i)).as_ref(),
            )
        };
        assert_eq!(r(None, None), Some((0, 4)));
        // x > 20 -> ids {2, 3}
        assert_eq!(r(Some((20, false)), None), Some((2, 4)));
        // x >= 20 -> ids {1, 2, 3}
        assert_eq!(r(Some((20, true)), None), Some((1, 4)));
        // x < 20 -> ids {0}
        assert_eq!(r(None, Some((20, false))), Some((0, 1)));
        // x <= 20 -> ids {0, 1}
        assert_eq!(r(None, Some((20, true))), Some((0, 2)));
        // Bounds between values behave identically for both flags.
        assert_eq!(r(Some((25, false)), None), Some((2, 4)));
        assert_eq!(r(Some((25, true)), None), Some((2, 4)));
        // Empty intersections clamp to an empty interval.
        assert_eq!(r(Some((35, true)), Some((15, true))), Some((3, 3)));
    }

    #[test]
    fn range_ids_float_bounds_on_int_dict() {
        let (dict, _) = build_dict(&[Value::Int(10), Value::Int(20), Value::Int(30)]).unwrap();
        // x > 19.5 -> first int >= 20 (exclusive flag irrelevant: 19.5 not present)
        let r = dict.range_ids(Some(&(Value::Float(19.5), false)), None);
        assert_eq!(r, Some((1, 3)));
        // x > 20.0 must exclude 20 itself.
        let r = dict.range_ids(Some(&(Value::Float(20.0), false)), None);
        assert_eq!(r, Some((2, 3)));
        // x >= 20.0 includes it.
        let r = dict.range_ids(Some(&(Value::Float(20.0), true)), None);
        assert_eq!(r, Some((1, 3)));
    }

    #[test]
    fn float_literals_never_saturate_into_int_dictionaries() {
        let big = 1i64 << 53;
        let (dict, _) =
            build_dict(&[Value::Int(0), Value::Int(big + 1), Value::Int(i64::MAX)]).unwrap();
        // `1e30 as i64` is i64::MAX and `NaN as i64` is 0: neither may find
        // those entries.
        assert_eq!(dict.id_of(&Value::Float(1e30)), None);
        assert_eq!(dict.id_of(&Value::Float(f64::NAN)), None);
        assert_eq!(dict.id_of(&Value::Float(f64::INFINITY)), None);
        // From 2^53 on the filter's `as f64` comparison and an integer
        // lookup disagree (2^53 + 1 rounds to 2^53): not resolvable.
        for v in [big as f64, -(big as f64), 1e30, f64::NAN, f64::NEG_INFINITY, -0.0] {
            let v = Value::Float(v);
            assert!(!dict.resolves_exactly(&v), "{v}");
            assert_eq!(dict.lower_bound(&v), None, "{v}");
            assert_eq!(dict.range_ids(Some(&(v.clone(), true)), None), None, "{v}");
            assert_eq!(dict.range_ids(None, Some(&(v.clone(), false))), None, "{v}");
        }
        for v in [0.0, -0.5, 19.5, (big - 1) as f64] {
            assert!(dict.resolves_exactly(&Value::Float(v)), "{v}");
        }
        assert_eq!(dict.id_of(&Value::Float(0.0)), Some(0));
        // Same-type and Int-against-Float literals always resolve.
        let (floats, _) = build_dict(&[Value::Float(-0.0), Value::Float(f64::NAN)]).unwrap();
        assert!(floats.resolves_exactly(&Value::Float(f64::NAN)));
        assert!(floats.resolves_exactly(&Value::Int(i64::MAX)));
        assert!(dict.resolves_exactly(&Value::Int(i64::MAX)));
        assert!(dict.resolves_exactly(&Value::from("x")));
    }

    #[test]
    fn range_ids_on_front_coding_rank_absent_bounds() {
        let (sorted, _) = build_dict(&[Value::from("a"), Value::from("b")]).unwrap();
        let front_coded = sorted.clone().optimize().unwrap();
        for dict in [&sorted, &front_coded] {
            assert_eq!(dict.range_ids(Some(&(Value::from("b"), true)), None), Some((1, 2)));
            assert_eq!(dict.range_ids(Some(&(Value::from("a"), false)), None), Some((1, 2)));
            // Absent bounds: below, between and above the entries.
            assert_eq!(dict.range_ids(Some(&(Value::from(""), false)), None), Some((0, 2)));
            assert_eq!(dict.range_ids(None, Some(&(Value::from("aa"), true))), Some((0, 1)));
            assert_eq!(dict.range_ids(Some(&(Value::from("c"), true)), None), Some((2, 2)));
        }
    }

    fn ints(values: &[i64]) -> GlobalDict {
        build_dict(&values.iter().map(|&v| Value::Int(v)).collect::<Vec<_>>()).unwrap().0
    }

    fn all_values(dict: &GlobalDict) -> Vec<Value> {
        (0..dict.len()).map(|id| dict.value(id)).collect()
    }

    #[test]
    fn merge_sorts_new_values_in_and_maps_every_old_id() {
        let mut dict = ints(&[10, 30, 20]);
        // Present and new values; the batch's dictionary is sorted.
        let merged = dict.merge(&ints(&[20, 5, 30, 5])).unwrap();
        assert_eq!(merged.ids, [0, 2, 3], "5 is new, 20 and 30 are held");
        assert_eq!(merged.renumbered.as_deref(), Some(&[1, 2, 3][..]), "10, 20, 30 moved up");
        assert_eq!(all_values(&dict), all_values(&ints(&[5, 10, 20, 30])));
        let merged = dict.merge(&ints(&[7, 40])).unwrap();
        assert_eq!(merged.ids, [1, 5]);
        assert_eq!(merged.renumbered.as_deref(), Some(&[0, 2, 3, 4][..]));
        // Nothing new, or new values past the last: no old id moves.
        let merged = dict.merge(&ints(&[5, 40])).unwrap();
        assert_eq!((merged.ids, merged.renumbered), (vec![0, 5], None));
        let merged = dict.merge(&ints(&[40, 41, 50])).unwrap();
        assert_eq!((merged.ids, merged.renumbered), (vec![5, 6, 7], None));
        assert_eq!(dict, ints(&[5, 7, 10, 20, 30, 40, 41, 50]));
    }

    #[test]
    fn merge_refuses_other_types_and_tells_floats_by_bits() {
        let mut dict = ints(&[1]);
        assert!(dict.merge(&build_dict(&[Value::from("x")]).unwrap().0).is_err());
        assert_eq!(dict, ints(&[1]), "a refused merge changes nothing");

        let (mut floats, _) = build_dict(&[Value::Float(1.0)]).unwrap();
        let (zeros, _) = build_dict(&[Value::Float(0.0), Value::Float(-0.0)]).unwrap();
        let merged = floats.merge(&zeros).unwrap();
        assert_eq!(merged.ids, [0, 1], "signed zeros are distinct values");
        assert_eq!(merged.renumbered.as_deref(), Some(&[2][..]));
        assert_eq!(floats.id_of(&Value::Float(-0.0)), Some(0));
        // Numeric coercion still finds entries, like it does in a build.
        assert_eq!(floats.id_of(&Value::Int(1)), Some(2));
    }

    #[test]
    fn a_merged_dictionary_ranks_ranges() {
        let mut dict = ints(&[10, 20, 30]);
        dict.merge(&ints(&[15])).unwrap();
        assert_eq!(dict.lower_bound(&Value::Int(15)), Some(1));
        assert_eq!(dict.range_ids(Some(&(Value::Int(15), true)), None), Some((1, 4)));
        assert_eq!(dict.range_ids(Some(&(Value::Int(15), false)), None), Some((2, 4)));
    }

    #[test]
    fn front_coding_merges_into_front_coding() {
        let strs = |v: &[&str]| build_dict(&v.iter().map(|&s| Value::from(s)).collect::<Vec<_>>());
        let mut dict = strs(&["de", "fr"]).unwrap().0.optimize().unwrap();
        let merged = dict.merge(&strs(&["sg", "de"]).unwrap().0).unwrap();
        assert_eq!((merged.ids, merged.renumbered), (vec![0, 2], None));
        let merged = dict.merge(&strs(&["at"]).unwrap().0.optimize().unwrap()).unwrap();
        assert_eq!((merged.ids, merged.renumbered), (vec![0], Some(vec![1, 2, 3])));
        assert!(matches!(dict, GlobalDict::Str(StrDict::FrontCoded(_))));
        assert_eq!(dict, strs(&["at", "de", "fr", "sg"]).unwrap().0.optimize().unwrap());
        // Strings it holds are looked up, not merged.
        let merged = dict.merge(&strs(&["fr", "at"]).unwrap().0).unwrap();
        assert_eq!((merged.ids, merged.renumbered), (vec![0, 2], None));
    }

    #[test]
    fn front_coded_and_sorted_agree_on_large_dict() {
        let values: Vec<Value> = (0..3000)
            .map(|i| {
                Value::from(format!(
                    "logs.service_{}.2011-{:02}-{:02}",
                    i % 83,
                    i % 12 + 1,
                    i % 28 + 1
                ))
            })
            .collect();
        let (sorted, _) = build_dict(&values).unwrap();
        let front_coded = sorted.clone().optimize().unwrap();
        assert_eq!(sorted.len(), front_coded.len());
        for id in (0..sorted.len()).step_by(97) {
            assert_eq!(sorted.value(id), front_coded.value(id));
        }
        for v in values.iter().step_by(131) {
            assert_eq!(sorted.id_of(v), front_coded.id_of(v));
        }
    }
}
