//! Global dictionaries: all distinct values of a column, sorted, addressed
//! by integer rank (*global-id*) — §2.3 of the paper.
//!
//! Lookups go both ways: `value(global_id)` when materializing query
//! results (e.g. the top-10 strings after a group-by) and `id_of(value)`
//! when translating literals in `WHERE` clauses into global-ids for chunk
//! skipping.
//!
//! String dictionaries come in two flavours, mirroring the paper's §3
//! optimization step: a "canonical" sorted array with binary search, and
//! the compact 4-bit [`TrieDict`].

use crate::trie::TrieDict;
use pd_common::{sortkey, DataType, Error, FxHashMap, HeapSize, Result, Value};
use pd_compress::varint;

/// Sorted array of distinct strings; rank = index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortedStrDict {
    values: Box<[Box<str>]>,
}

impl SortedStrDict {
    /// Build from sorted, unique strings.
    pub fn from_sorted(values: Vec<Box<str>>) -> Result<Self> {
        for pair in values.windows(2) {
            if pair[0] >= pair[1] {
                return Err(Error::Data("dictionary input must be sorted and unique".into()));
            }
        }
        Ok(SortedStrDict { values: values.into_boxed_slice() })
    }

    pub fn len(&self) -> u32 {
        self.values.len() as u32
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn value(&self, id: u32) -> &str {
        &self.values[id as usize]
    }

    pub fn id_of(&self, value: &str) -> Option<u32> {
        self.values.binary_search_by(|v| v.as_ref().cmp(value)).ok().map(|i| i as u32)
    }

    /// Rank of the first entry `>= value`.
    pub fn lower_bound(&self, value: &str) -> u32 {
        self.values.partition_point(|v| v.as_ref() < value) as u32
    }

    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.values.iter().map(AsRef::as_ref)
    }
}

impl HeapSize for SortedStrDict {
    fn heap_bytes(&self) -> usize {
        self.values.len() * std::mem::size_of::<Box<str>>()
            + self.values.iter().map(|s| s.len()).sum::<usize>()
    }
}

/// String dictionary: sorted array ("canonical", §2.3) or trie ("OptDicts",
/// §3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StrDict {
    Sorted(SortedStrDict),
    Trie(TrieDict),
}

impl StrDict {
    pub fn len(&self) -> u32 {
        match self {
            StrDict::Sorted(d) => d.len(),
            StrDict::Trie(t) => t.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn value(&self, id: u32) -> String {
        match self {
            StrDict::Sorted(d) => d.value(id).to_owned(),
            StrDict::Trie(t) => t.value(id),
        }
    }

    /// The UTF-8 bytes of the strings with ranks `ids` (strictly
    /// ascending), handed to `f` in that order: indexing for the sorted
    /// array, one ordered walk for the trie ([`TrieDict::for_each_of`]).
    pub fn for_each_of(&self, ids: &[u32], mut f: impl FnMut(&[u8])) {
        match self {
            StrDict::Sorted(d) => ids.iter().for_each(|&id| f(d.value(id).as_bytes())),
            StrDict::Trie(t) => t.for_each_of(ids, f),
        }
    }

    pub fn id_of(&self, value: &str) -> Option<u32> {
        match self {
            StrDict::Sorted(d) => d.id_of(value),
            StrDict::Trie(t) => t.id_of(value),
        }
    }

    /// Re-encode as a trie (no-op if already one).
    pub fn to_trie(&self) -> Result<StrDict> {
        match self {
            StrDict::Sorted(d) => {
                let refs: Vec<&str> = d.iter().collect();
                Ok(StrDict::Trie(TrieDict::from_sorted(&refs)?))
            }
            StrDict::Trie(t) => Ok(StrDict::Trie(t.clone())),
        }
    }

    /// Visit `(id, UTF-8 bytes)` for every entry in ascending order.
    pub fn for_each(&self, mut f: impl FnMut(u32, &[u8])) {
        match self {
            StrDict::Sorted(d) => {
                for (id, v) in d.iter().enumerate() {
                    f(id as u32, v.as_bytes());
                }
            }
            StrDict::Trie(t) => t.for_each(f),
        }
    }
}

impl HeapSize for StrDict {
    fn heap_bytes(&self) -> usize {
        match self {
            StrDict::Sorted(d) => d.heap_bytes(),
            StrDict::Trie(t) => t.heap_bytes(),
        }
    }
}

/// Sorted array of distinct integers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntDict {
    values: Box<[i64]>,
}

impl IntDict {
    pub fn from_sorted(values: Vec<i64>) -> Result<Self> {
        for pair in values.windows(2) {
            if pair[0] >= pair[1] {
                return Err(Error::Data("dictionary input must be sorted and unique".into()));
            }
        }
        Ok(IntDict { values: values.into_boxed_slice() })
    }

    pub fn len(&self) -> u32 {
        self.values.len() as u32
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn value(&self, id: u32) -> i64 {
        self.values[id as usize]
    }

    pub fn id_of(&self, value: i64) -> Option<u32> {
        self.values.binary_search(&value).ok().map(|i| i as u32)
    }

    pub fn lower_bound(&self, value: i64) -> u32 {
        self.values.partition_point(|&v| v < value) as u32
    }

    pub fn iter(&self) -> impl Iterator<Item = i64> + '_ {
        self.values.iter().copied()
    }

    /// Every value, indexed by id.
    pub fn values(&self) -> &[i64] {
        &self.values
    }
}

impl HeapSize for IntDict {
    fn heap_bytes(&self) -> usize {
        self.values.len() * 8
    }
}

/// Sorted (by total order) array of distinct floats.
#[derive(Debug, Clone)]
pub struct FloatDict {
    values: Box<[f64]>,
}

/// Entries are the same when their bits are — the identity the dictionary
/// sorts and dedups by — so one holding a NaN equals its own copy.
impl PartialEq for FloatDict {
    fn eq(&self, other: &Self) -> bool {
        self.values.iter().map(|v| v.to_bits()).eq(other.values.iter().map(|v| v.to_bits()))
    }
}

impl FloatDict {
    pub fn from_sorted(values: Vec<f64>) -> Result<Self> {
        for pair in values.windows(2) {
            if pair[0].total_cmp(&pair[1]) != std::cmp::Ordering::Less {
                return Err(Error::Data("dictionary input must be sorted and unique".into()));
            }
        }
        Ok(FloatDict { values: values.into_boxed_slice() })
    }

    pub fn len(&self) -> u32 {
        self.values.len() as u32
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn value(&self, id: u32) -> f64 {
        self.values[id as usize]
    }

    pub fn id_of(&self, value: f64) -> Option<u32> {
        self.values.binary_search_by(|v| v.total_cmp(&value)).ok().map(|i| i as u32)
    }

    pub fn lower_bound(&self, value: f64) -> u32 {
        self.values.partition_point(|v| v.total_cmp(&value) == std::cmp::Ordering::Less) as u32
    }

    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.values.iter().copied()
    }

    /// Every value, indexed by id.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

impl HeapSize for FloatDict {
    fn heap_bytes(&self) -> usize {
        self.values.len() * 8
    }
}

/// A dictionary grown in place by appends: a sorted `base` (ids
/// `[0, base.len())`, id order = value order) plus a `tail` of
/// later-arriving values in *append* order (ids `[base.len(), len())`).
///
/// This is the structure that makes dictionary-delta shipping sound:
/// every id the base ever handed out keeps meaning the same value, so
/// chunk codes encoded before an append never need rewriting and group
/// folds over old and new chunks merge bit-identically. The price is that
/// id order no longer equals value order — rank-based range reasoning
/// ([`GlobalDict::lower_bound`] / [`GlobalDict::range_ids`]) answers
/// `None` ("maybe") and callers fall back to row-level evaluation.
///
/// Fields are private: the only ways to obtain a tailed dictionary are
/// [`GlobalDict::extend`] (which validates types and never duplicates a
/// value) and [`GlobalDict::from_bytes`] (which re-validates both).
#[derive(Debug, Clone, PartialEq)]
pub struct TailedDict {
    base: Box<GlobalDict>,
    tail: Vec<Value>,
}

impl TailedDict {
    pub fn len(&self) -> u32 {
        self.base.len() + self.tail.len() as u32
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sorted dictionary the appends grew from.
    pub fn base(&self) -> &GlobalDict {
        &self.base
    }

    /// Appended values in id order (`tail()[i]` has id `base().len() + i`).
    pub fn tail(&self) -> &[Value] {
        &self.tail
    }

    pub fn value(&self, id: u32) -> Value {
        if id < self.base.len() {
            self.base.value(id)
        } else {
            self.tail[(id - self.base.len()) as usize].clone()
        }
    }

    /// Position of `value` within the tail, under the same equality each
    /// typed dictionary's `id_of` uses (exact for ints and strings, bit
    /// pattern for floats, numeric coercion across Int/Float).
    fn tail_position(&self, value: &Value) -> Option<usize> {
        match (self.base.data_type(), value) {
            (DataType::Int, Value::Int(x)) => self.tail_int(*x),
            (DataType::Int, Value::Float(f)) => float_as_int(*f).and_then(|x| self.tail_int(x)),
            (DataType::Float, Value::Float(f)) => self.tail_float(*f),
            (DataType::Float, Value::Int(x)) => self.tail_float(*x as f64),
            (DataType::Str, Value::Str(s)) => {
                self.tail.iter().position(|t| matches!(t, Value::Str(v) if v == s))
            }
            _ => None,
        }
    }

    fn tail_int(&self, x: i64) -> Option<usize> {
        self.tail.iter().position(|t| matches!(t, Value::Int(v) if *v == x))
    }

    fn tail_float(&self, x: f64) -> Option<usize> {
        self.tail.iter().position(|t| matches!(t, Value::Float(v) if v.to_bits() == x.to_bits()))
    }

    pub fn id_of(&self, value: &Value) -> Option<u32> {
        self.base
            .id_of(value)
            .or_else(|| self.tail_position(value).map(|i| self.base.len() + i as u32))
    }
}

impl HeapSize for TailedDict {
    fn heap_bytes(&self) -> usize {
        self.base.heap_bytes()
            + self.tail.len() * std::mem::size_of::<Value>()
            + self.tail.iter().map(HeapSize::heap_bytes).sum::<usize>()
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
    Float(FloatDict),
    Str(StrDict),
    /// A sorted dictionary extended in place by appends (id order no
    /// longer equals value order; see [`TailedDict`]).
    Tailed(TailedDict),
}

impl GlobalDict {
    pub fn data_type(&self) -> DataType {
        match self {
            GlobalDict::Int(_) => DataType::Int,
            GlobalDict::Float(_) => DataType::Float,
            GlobalDict::Str(_) => DataType::Str,
            GlobalDict::Tailed(t) => t.base.data_type(),
        }
    }

    /// Number of distinct values.
    pub fn len(&self) -> u32 {
        match self {
            GlobalDict::Int(d) => d.len(),
            GlobalDict::Float(d) => d.len(),
            GlobalDict::Str(d) => d.len(),
            GlobalDict::Tailed(t) => t.len(),
        }
    }

    /// Does id order equal value order? True for every freshly built
    /// dictionary (they are sorted); false once appends grew a tail.
    /// Consumers that use integer-id comparisons as a proxy for value
    /// comparisons (range pruning, id-domain MIN/MAX) must check this and
    /// fall back to comparing values.
    pub fn is_value_ordered(&self) -> bool {
        !matches!(self, GlobalDict::Tailed(_))
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value with rank `id`.
    pub fn value(&self, id: u32) -> Value {
        match self {
            GlobalDict::Int(d) => Value::Int(d.value(id)),
            GlobalDict::Float(d) => Value::Float(d.value(id)),
            GlobalDict::Str(d) => Value::Str(d.value(id)),
            GlobalDict::Tailed(t) => t.value(id),
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
    /// made. Array dictionaries index; a trie shares every prefix walk and
    /// builds no string ([`TrieDict::for_each_of`], which also panics on
    /// unsorted ids) — the difference between translating a group table
    /// and walking the trie once per group. Panics on an id out of bounds,
    /// like [`GlobalDict::value`].
    pub fn for_each_key(&self, ids: &[u32], mut f: impl FnMut(&[u8])) {
        self.keys_of(ids, &mut f)
    }

    fn keys_of(&self, ids: &[u32], f: &mut dyn FnMut(&[u8])) {
        let mut key = Vec::new();
        match self {
            GlobalDict::Int(d) => ids.iter().for_each(|&id| f(&sortkey::int(d.value(id)))),
            GlobalDict::Float(d) => ids.iter().for_each(|&id| f(&sortkey::float(d.value(id)))),
            GlobalDict::Str(d) => d.for_each_of(ids, |s| {
                key.clear();
                sortkey::push_str(s, &mut key);
                f(&key);
            }),
            GlobalDict::Tailed(t) => {
                let base_len = t.base.len();
                let (in_base, in_tail) = ids.split_at(ids.partition_point(|&id| id < base_len));
                t.base.keys_of(in_base, f);
                for &id in in_tail {
                    key.clear();
                    sortkey::encode(&t.tail[(id - base_len) as usize], &mut key);
                    f(&key);
                }
            }
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
            (GlobalDict::Int(d), Value::Int(v)) => d.id_of(*v),
            (GlobalDict::Int(d), Value::Float(v)) => float_as_int(*v).and_then(|x| d.id_of(x)),
            (GlobalDict::Float(d), Value::Float(v)) => d.id_of(*v),
            (GlobalDict::Float(d), Value::Int(v)) => d.id_of(*v as f64),
            (GlobalDict::Str(d), Value::Str(v)) => d.id_of(v),
            (GlobalDict::Tailed(t), v) => t.id_of(v),
            _ => None,
        }
    }

    /// Rank of the first dictionary entry `>= value` (used by range
    /// restrictions). A type mismatch yields `None`, as does a float bound
    /// an integer dictionary cannot rank exactly
    /// ([`GlobalDict::resolves_exactly`]).
    pub fn lower_bound(&self, value: &Value) -> Option<u32> {
        match (self, value) {
            (GlobalDict::Int(d), Value::Int(v)) => Some(d.lower_bound(*v)),
            (GlobalDict::Int(d), Value::Float(v)) => {
                // First integer >= the float bound.
                self.resolves_exactly(value).then(|| d.lower_bound(v.ceil() as i64))
            }
            (GlobalDict::Float(d), Value::Float(v)) => Some(d.lower_bound(*v)),
            (GlobalDict::Float(d), Value::Int(v)) => Some(d.lower_bound(*v as f64)),
            (GlobalDict::Str(d), Value::Str(v)) => match d {
                StrDict::Sorted(s) => Some(s.lower_bound(v)),
                // Tries do not support rank-of-absent-value cheaply; the
                // store keeps range-restricted fields in sorted form.
                StrDict::Trie(_) => None,
            },
            // Appended tails break the id-order-equals-value-order
            // property ranks rely on; err towards "maybe".
            (GlobalDict::Tailed(_), _) => None,
            _ => None,
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
    /// Bounds are `(value, inclusive)`. Returns `None` when the dictionary
    /// cannot rank the bound (trie string dictionaries, tailed
    /// dictionaries, type mismatches). The fully unbounded range stays
    /// `Some((0, len))` even for tailed dictionaries: every id matches
    /// regardless of order.
    pub fn range_ids(
        &self,
        min: Option<&(Value, bool)>,
        max: Option<&(Value, bool)>,
    ) -> Option<(u32, u32)> {
        let lo = match min {
            None => 0,
            Some((v, inclusive)) => {
                let base = self.lower_bound(v)?;
                if !inclusive && self.id_of(v) == Some(base) {
                    base + 1
                } else {
                    base
                }
            }
        };
        let hi = match max {
            None => self.len(),
            Some((v, inclusive)) => {
                let base = self.lower_bound(v)?;
                if *inclusive && self.id_of(v) == Some(base) {
                    base + 1
                } else {
                    base
                }
            }
        };
        Some((lo, hi.max(lo)))
    }

    /// Re-encode string dictionaries as tries ("OptDicts", §3). Numeric
    /// dictionaries are untouched. A tailed dictionary optimizes its base
    /// (trie ids are rank order, so every id keeps its value).
    pub fn optimize(&self) -> Result<GlobalDict> {
        match self {
            GlobalDict::Str(d) => Ok(GlobalDict::Str(d.to_trie()?)),
            GlobalDict::Tailed(t) => Ok(GlobalDict::Tailed(TailedDict {
                base: Box::new(t.base.optimize()?),
                tail: t.tail.clone(),
            })),
            other => Ok(other.clone()),
        }
    }

    /// Append `values` in place, returning each input's global id.
    ///
    /// Values already present keep their existing id (including numeric
    /// Int/Float coercion, matching [`GlobalDict::id_of`]); genuinely new
    /// values are appended to the tail in first-seen order and receive the
    /// next ids. Existing ids are **never** renumbered — the code
    /// stability property dictionary-delta shipping relies on. Every value
    /// must match the dictionary's type exactly; `Null` is rejected before
    /// anything changes.
    ///
    /// O(k log n + t) for k values, a base of n and a tail of t: each value
    /// is looked up in the base, and the misses are matched against the
    /// tail in one pass — a tail grows with every append, and a lookup per
    /// miss would make a long ingest quadratic in it.
    pub fn extend(&mut self, values: &[Value]) -> Result<Vec<u32>> {
        let dtype = self.data_type();
        if let Some(v) = values.iter().find(|v| v.data_type() != Some(dtype)) {
            return Err(type_mismatch(dtype, v));
        }
        let base = match &*self {
            GlobalDict::Tailed(t) => &t.base,
            sorted => sorted,
        };
        let base_len = base.len();
        // A base id, or the slot of a value the base misses: one slot per
        // distinct miss, in first-seen order.
        let mut misses: Vec<&Value> = Vec::new();
        let mut slot_of: FxHashMap<&Value, usize> = FxHashMap::default();
        let found: Vec<std::result::Result<u32, usize>> = (values.iter())
            .map(|v| {
                base.id_of(v).ok_or_else(|| {
                    *slot_of.entry(v).or_insert_with(|| {
                        misses.push(v);
                        misses.len() - 1
                    })
                })
            })
            .collect();
        let mut resolved = vec![None; misses.len()];
        if !misses.is_empty() {
            // First genuinely new value: wrap the sorted dictionary in a
            // tail in place (ids `[0, len)` keep their meaning).
            if !matches!(self, GlobalDict::Tailed(_)) {
                let placeholder = GlobalDict::Int(IntDict::from_sorted(Vec::new())?);
                let base = std::mem::replace(self, placeholder);
                *self = GlobalDict::Tailed(TailedDict { base: Box::new(base), tail: Vec::new() });
            }
            let GlobalDict::Tailed(t) = self else { unreachable!("just wrapped") };
            for (position, value) in t.tail.iter().enumerate() {
                if let Some(&slot) = slot_of.get(value) {
                    resolved[slot] = Some(base_len + position as u32);
                }
            }
            for (id, value) in resolved.iter_mut().zip(misses) {
                if id.is_none() {
                    *id = Some(base_len + t.tail.len() as u32);
                    t.tail.push(value.clone());
                }
            }
        }
        Ok(found
            .into_iter()
            .map(|f| f.unwrap_or_else(|slot| resolved[slot].expect("resolved")))
            .collect())
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
                for v in d.iter() {
                    varint::write_i64(&mut out, v.wrapping_sub(prev));
                    prev = v;
                }
            }
            GlobalDict::Float(d) => {
                out.push(1);
                varint::write_u64(&mut out, u64::from(d.len()));
                for v in d.iter() {
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
            GlobalDict::Tailed(t) => {
                // Length-prefixed base bytes, then the tail values in id
                // order, typed like the base.
                out.push(3);
                let base = t.base.to_bytes();
                varint::write_u64(&mut out, base.len() as u64);
                out.extend_from_slice(&base);
                varint::write_u64(&mut out, t.tail.len() as u64);
                for v in &t.tail {
                    match v {
                        Value::Int(x) => varint::write_i64(&mut out, *x),
                        Value::Float(f) => out.extend_from_slice(&f.to_le_bytes()),
                        Value::Str(s) => {
                            varint::write_u64(&mut out, s.len() as u64);
                            out.extend_from_slice(s.as_bytes());
                        }
                        // extend() and from_bytes() both reject nulls.
                        Value::Null => unreachable!("tailed dictionaries hold no nulls"),
                    }
                }
            }
        }
        out
    }

    /// Inverse of [`GlobalDict::to_bytes`]. String dictionaries come back in
    /// sorted-array form; call [`GlobalDict::optimize`] to restore a trie.
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
                Ok(GlobalDict::Int(IntDict::from_sorted(values)?))
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
                Ok(GlobalDict::Float(FloatDict::from_sorted(values)?))
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
                Ok(GlobalDict::Str(StrDict::Sorted(SortedStrDict::from_sorted(values)?)))
            }
            3 => {
                // `len` is the byte length of the serialized base here.
                let raw = bytes
                    .get(pos..pos.saturating_add(len))
                    .ok_or_else(|| Error::Data("dict: truncated tailed base".into()))?;
                pos += len;
                let base = GlobalDict::from_bytes(raw)?;
                if matches!(base, GlobalDict::Tailed(_)) {
                    return Err(Error::Data("dict: nested tailed dictionary".into()));
                }
                let dtype = base.data_type();
                let tail_len = varint::read_u64(bytes, &mut pos)? as usize;
                if tail_len == 0 {
                    return Err(Error::Data("dict: tailed dictionary with empty tail".into()));
                }
                let mut tailed = TailedDict {
                    base: Box::new(base),
                    tail: Vec::with_capacity(tail_len.min(1 << 20)),
                };
                for _ in 0..tail_len {
                    let v = match dtype {
                        DataType::Int => Value::Int(varint::read_i64(bytes, &mut pos)?),
                        DataType::Float => {
                            let raw = bytes
                                .get(pos..pos + 8)
                                .ok_or_else(|| Error::Data("dict: truncated float".into()))?;
                            pos += 8;
                            Value::Float(f64::from_le_bytes(raw.try_into().expect("8 bytes")))
                        }
                        DataType::Str => {
                            let n = varint::read_u64(bytes, &mut pos)? as usize;
                            let raw = bytes
                                .get(pos..pos.saturating_add(n))
                                .ok_or_else(|| Error::Data("dict: truncated string".into()))?;
                            pos += n;
                            let s = std::str::from_utf8(raw)
                                .map_err(|_| Error::Data("dict: invalid UTF-8".into()))?;
                            Value::Str(s.to_owned())
                        }
                    };
                    if tailed.id_of(&v).is_some() {
                        return Err(Error::Data("dict: duplicate value in tail".into()));
                    }
                    tailed.tail.push(v);
                }
                Ok(GlobalDict::Tailed(tailed))
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
            GlobalDict::Tailed(t) => t.heap_bytes(),
        }
    }
}

/// Build a global dictionary from a raw column and map every row to its
/// global-id.
///
/// This is the first half of the import pipeline of §2.3. All values must
/// share one type; `Null` is rejected (the stores in the paper operate on
/// denormalized, fully populated log tables).
pub fn build_dict(values: &[Value], use_trie: bool) -> Result<(GlobalDict, Vec<u32>)> {
    let first = values
        .first()
        .ok_or_else(|| Error::Data("cannot build a dictionary from an empty column".into()))?;
    let dtype = first
        .data_type()
        .ok_or_else(|| Error::Data("null values are not supported in stored columns".into()))?;

    match dtype {
        DataType::Int => {
            let mut distinct: Vec<i64> = Vec::new();
            let mut raw: Vec<i64> = Vec::with_capacity(values.len());
            for v in values {
                match v {
                    Value::Int(x) => {
                        raw.push(*x);
                        distinct.push(*x);
                    }
                    other => return Err(type_mismatch(dtype, other)),
                }
            }
            distinct.sort_unstable();
            distinct.dedup();
            let ids = raw
                .iter()
                .map(|x| distinct.binary_search(x).expect("value was inserted") as u32)
                .collect();
            Ok((GlobalDict::Int(IntDict::from_sorted(distinct)?), ids))
        }
        DataType::Float => {
            let mut distinct: Vec<f64> = Vec::new();
            let mut raw: Vec<f64> = Vec::with_capacity(values.len());
            for v in values {
                match v {
                    Value::Float(x) => {
                        raw.push(*x);
                        distinct.push(*x);
                    }
                    other => return Err(type_mismatch(dtype, other)),
                }
            }
            distinct.sort_unstable_by(|a, b| a.total_cmp(b));
            distinct.dedup_by(|a, b| a.to_bits() == b.to_bits());
            let ids = raw
                .iter()
                .map(|x| {
                    distinct.binary_search_by(|v| v.total_cmp(x)).expect("value was inserted")
                        as u32
                })
                .collect();
            Ok((GlobalDict::Float(FloatDict::from_sorted(distinct)?), ids))
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
            let dict = if use_trie {
                let refs: Vec<&str> = distinct.iter().map(|(s, _)| *s).collect();
                StrDict::Trie(TrieDict::from_sorted(&refs)?)
            } else {
                StrDict::Sorted(SortedStrDict::from_sorted(sorted)?)
            };
            Ok((GlobalDict::Str(dict), ids))
        }
    }
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
        let (dict, ids) = build_dict(&values, false).unwrap();
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
        for use_trie in [false, true] {
            let (dict, ids) = build_dict(&values, use_trie).unwrap();
            assert_eq!(dict.len(), 3);
            for (v, id) in values.iter().zip(&ids) {
                assert_eq!(&dict.value(*id), v, "trie={use_trie}");
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
        let (dict, ids) = build_dict(&values, false).unwrap();
        assert_eq!(dict.len(), 4); // -0.0, 0.0, 1.5, NaN
        for (v, id) in values.iter().zip(&ids) {
            assert_eq!(&dict.value(*id), v);
        }
    }

    #[test]
    fn nulls_and_mixed_types_rejected() {
        assert!(build_dict(&[Value::Null], false).is_err());
        assert!(build_dict(&[Value::Int(1), Value::from("x")], false).is_err());
        assert!(build_dict(&[], false).is_err());
    }

    #[test]
    fn id_of_type_mismatch_is_none() {
        let (dict, _) = build_dict(&[Value::Int(1), Value::Int(2)], false).unwrap();
        assert_eq!(dict.id_of(&Value::from("1")), None);
    }

    #[test]
    fn float_dict_accepts_int_literals() {
        let (dict, _) = build_dict(&[Value::Float(4.0), Value::Float(5.5)], false).unwrap();
        assert_eq!(dict.id_of(&Value::Int(4)), Some(0));
        assert_eq!(dict.lower_bound(&Value::Int(5)), Some(1));
    }

    #[test]
    fn lower_bound_semantics() {
        let (dict, _) =
            build_dict(&[Value::Int(10), Value::Int(20), Value::Int(30)], false).unwrap();
        assert_eq!(dict.lower_bound(&Value::Int(5)), Some(0));
        assert_eq!(dict.lower_bound(&Value::Int(20)), Some(1));
        assert_eq!(dict.lower_bound(&Value::Int(25)), Some(2));
        assert_eq!(dict.lower_bound(&Value::Int(99)), Some(3));
    }

    #[test]
    fn optimize_converts_strings_only() {
        let (s, _) = build_dict(&[Value::from("b"), Value::from("a")], false).unwrap();
        let opt = s.optimize().unwrap();
        assert!(matches!(opt, GlobalDict::Str(StrDict::Trie(_))));
        assert_eq!(opt.value(0), Value::from("a"));

        let (i, _) = build_dict(&[Value::Int(1)], false).unwrap();
        assert_eq!(i.optimize().unwrap(), i);
    }

    #[test]
    fn serialization_round_trips() {
        let cases: Vec<Vec<Value>> = vec![
            [1i64, 5, 5, -9, 1 << 40].iter().map(|&v| Value::Int(v)).collect(),
            [0.25f64, -1.0, 3.5].iter().map(|&v| Value::Float(v)).collect(),
            ["x", "abc", "", "zz"].iter().map(|&v| Value::from(v)).collect(),
        ];
        for values in cases {
            let (dict, _) = build_dict(&values, false).unwrap();
            let bytes = dict.to_bytes();
            let back = GlobalDict::from_bytes(&bytes).unwrap();
            assert_eq!(back.len(), dict.len());
            for id in 0..dict.len() {
                assert_eq!(back.value(id), dict.value(id));
            }
        }
    }

    #[test]
    fn trie_serialization_round_trips_via_sorted_form() {
        let values: Vec<Value> = ["ga", "de", "fr", "de"].iter().map(|&v| Value::from(v)).collect();
        let (dict, _) = build_dict(&values, true).unwrap();
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
    }

    #[test]
    fn range_ids_semantics() {
        let (dict, _) =
            build_dict(&[Value::Int(10), Value::Int(20), Value::Int(30), Value::Int(40)], false)
                .unwrap();
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
        let (dict, _) =
            build_dict(&[Value::Int(10), Value::Int(20), Value::Int(30)], false).unwrap();
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
        let (mut dict, _) =
            build_dict(&[Value::Int(0), Value::Int(big + 1), Value::Int(i64::MAX)], false).unwrap();
        for tailed in [false, true] {
            // `1e30 as i64` is i64::MAX and `NaN as i64` is 0: neither may
            // find those entries.
            assert_eq!(dict.id_of(&Value::Float(1e30)), None, "tailed={tailed}");
            assert_eq!(dict.id_of(&Value::Float(f64::NAN)), None, "tailed={tailed}");
            assert_eq!(dict.id_of(&Value::Float(f64::INFINITY)), None, "tailed={tailed}");
            // From 2^53 on the filter's `as f64` comparison and an integer
            // lookup disagree (2^53 + 1 rounds to 2^53): not resolvable.
            for v in [big as f64, -(big as f64), 1e30, f64::NAN, f64::NEG_INFINITY, -0.0] {
                let v = Value::Float(v);
                assert!(!dict.resolves_exactly(&v), "{v} tailed={tailed}");
                assert_eq!(dict.lower_bound(&v), None, "{v} tailed={tailed}");
                assert_eq!(dict.range_ids(Some(&(v.clone(), true)), None), None, "{v}");
                assert_eq!(dict.range_ids(None, Some(&(v.clone(), false))), None, "{v}");
            }
            for v in [0.0, -0.5, 19.5, (big - 1) as f64] {
                assert!(dict.resolves_exactly(&Value::Float(v)), "{v} tailed={tailed}");
            }
            assert_eq!(dict.id_of(&Value::Float(0.0)), Some(0));
            dict.extend(&[Value::Int(7)]).unwrap();
            assert_eq!(dict.id_of(&Value::Float(7.0)), Some(3));
        }
        // Same-type and Int-against-Float literals always resolve.
        let (floats, _) = build_dict(&[Value::Float(-0.0), Value::Float(f64::NAN)], false).unwrap();
        assert!(floats.resolves_exactly(&Value::Float(f64::NAN)));
        assert!(floats.resolves_exactly(&Value::Int(i64::MAX)));
        assert!(dict.resolves_exactly(&Value::Int(i64::MAX)));
        assert!(dict.resolves_exactly(&Value::from("x")));
    }

    #[test]
    fn range_ids_unsupported_on_tries() {
        let (dict, _) = build_dict(&[Value::from("a"), Value::from("b")], true).unwrap();
        assert_eq!(dict.range_ids(Some(&(Value::from("a"), true)), None), None);
        // Sorted string dictionaries support ranges.
        let (sorted, _) = build_dict(&[Value::from("a"), Value::from("b")], false).unwrap();
        assert_eq!(sorted.range_ids(Some(&(Value::from("b"), true)), None), Some((1, 2)));
    }

    #[test]
    fn extend_keeps_existing_ids_and_appends_new_ones() {
        let (mut dict, _) =
            build_dict(&[Value::Int(10), Value::Int(30), Value::Int(20)], false).unwrap();
        assert!(dict.is_value_ordered());
        let before: Vec<Value> = (0..dict.len()).map(|id| dict.value(id)).collect();
        // Mix of present and new values, with a duplicate new value.
        let ids =
            dict.extend(&[Value::Int(20), Value::Int(5), Value::Int(30), Value::Int(5)]).unwrap();
        assert_eq!(ids, vec![1, 3, 2, 3], "present keep ids; new get the next id once");
        assert!(!dict.is_value_ordered());
        assert_eq!(dict.len(), 4);
        // Every pre-existing id still means the same value.
        for (id, v) in before.iter().enumerate() {
            assert_eq!(&dict.value(id as u32), v);
        }
        assert_eq!(dict.value(3), Value::Int(5));
        assert_eq!(dict.id_of(&Value::Int(5)), Some(3));
        // A second extend keeps growing the same tail.
        let ids = dict.extend(&[Value::Int(7), Value::Int(5)]).unwrap();
        assert_eq!(ids, vec![4, 3]);
        assert_eq!(dict.len(), 5);
    }

    #[test]
    fn extend_validates_types_and_handles_floats_by_bits() {
        let (mut ints, _) = build_dict(&[Value::Int(1)], false).unwrap();
        assert!(ints.extend(&[Value::from("x")]).is_err());
        assert!(ints.extend(&[Value::Null]).is_err());

        let (mut floats, _) = build_dict(&[Value::Float(1.0)], false).unwrap();
        let ids = floats.extend(&[Value::Float(-0.0), Value::Float(0.0)]).unwrap();
        assert_eq!(ids, vec![1, 2], "signed zeros are distinct values");
        assert_eq!(floats.id_of(&Value::Float(-0.0)), Some(1));
        // Numeric coercion still matches the base, like id_of.
        assert_eq!(floats.id_of(&Value::Int(1)), Some(0));
    }

    #[test]
    fn tailed_dict_errs_toward_maybe_on_ranges() {
        let (mut dict, _) =
            build_dict(&[Value::Int(10), Value::Int(20), Value::Int(30)], false).unwrap();
        dict.extend(&[Value::Int(15)]).unwrap();
        assert_eq!(dict.lower_bound(&Value::Int(15)), None);
        assert_eq!(dict.range_ids(Some(&(Value::Int(15), true)), None), None);
        // The fully unbounded range is exact regardless of id order.
        assert_eq!(dict.range_ids(None, None), Some((0, 4)));
    }

    #[test]
    fn tailed_serialization_round_trips_all_types() {
        let cases: Vec<(Vec<Value>, Vec<Value>)> = vec![
            (
                [1i64, 5, -9].iter().map(|&v| Value::Int(v)).collect(),
                [100i64, -100].iter().map(|&v| Value::Int(v)).collect(),
            ),
            (
                [0.25f64, -1.0].iter().map(|&v| Value::Float(v)).collect(),
                [f64::NAN, -0.0, 7.5].iter().map(|&v| Value::Float(v)).collect(),
            ),
            (
                ["b", "x"].iter().map(|&v| Value::from(v)).collect(),
                ["a", "zz", ""].iter().map(|&v| Value::from(v)).collect(),
            ),
        ];
        for (base, tail) in cases {
            let (mut dict, _) = build_dict(&base, false).unwrap();
            dict.extend(&tail).unwrap();
            let back = GlobalDict::from_bytes(&dict.to_bytes()).unwrap();
            assert_eq!(back.len(), dict.len());
            assert!(!back.is_value_ordered());
            for id in 0..dict.len() {
                assert_eq!(back.value(id), dict.value(id));
            }
        }
    }

    #[test]
    fn tailed_from_bytes_rejects_malformed_inputs() {
        let (mut dict, _) = build_dict(&[Value::Int(1), Value::Int(2)], false).unwrap();
        dict.extend(&[Value::Int(9)]).unwrap();
        let bytes = dict.to_bytes();
        // Truncations at every cut error, never panic.
        for cut in 0..bytes.len() {
            assert!(GlobalDict::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // A tail value duplicating the base is rejected.
        let mut dup = GlobalDict::from_bytes(&bytes).unwrap();
        if let GlobalDict::Tailed(t) = &mut dup {
            t.tail[0] = Value::Int(2);
        }
        assert!(GlobalDict::from_bytes(&dup.to_bytes()).is_err(), "duplicate tail value");
        // An empty tail is rejected (a sorted dict must stay tag 0/1/2).
        let base_bytes = GlobalDict::Int(IntDict::from_sorted(vec![1, 2]).unwrap()).to_bytes();
        let mut empty_tail = vec![3u8];
        pd_compress::varint::write_u64(&mut empty_tail, base_bytes.len() as u64);
        empty_tail.extend_from_slice(&base_bytes);
        pd_compress::varint::write_u64(&mut empty_tail, 0);
        assert!(GlobalDict::from_bytes(&empty_tail).is_err(), "empty tail");
        // A nested tailed base is rejected.
        let mut nested = vec![3u8];
        pd_compress::varint::write_u64(&mut nested, bytes.len() as u64);
        nested.extend_from_slice(&bytes);
        pd_compress::varint::write_u64(&mut nested, 1);
        pd_compress::varint::write_i64(&mut nested, 42);
        assert!(GlobalDict::from_bytes(&nested).is_err(), "nested tailed base");
    }

    #[test]
    fn trie_base_extends_in_place() {
        let (mut dict, _) = build_dict(&[Value::from("de"), Value::from("fr")], true).unwrap();
        let ids = dict.extend(&[Value::from("sg"), Value::from("de")]).unwrap();
        assert_eq!(ids, vec![2, 0]);
        assert_eq!(dict.value(2), Value::from("sg"));
        // Round trip through bytes (trie base serializes via its sorted form).
        let back = GlobalDict::from_bytes(&dict.to_bytes()).unwrap();
        for id in 0..dict.len() {
            assert_eq!(back.value(id), dict.value(id));
        }
        // optimize() keeps every id's meaning.
        let opt = dict.optimize().unwrap();
        for id in 0..dict.len() {
            assert_eq!(opt.value(id), dict.value(id));
        }
    }

    #[test]
    fn trie_and_sorted_agree_on_large_dict() {
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
        let (sorted, ids_a) = build_dict(&values, false).unwrap();
        let (trie, ids_b) = build_dict(&values, true).unwrap();
        assert_eq!(ids_a, ids_b);
        assert_eq!(sorted.len(), trie.len());
        for id in (0..sorted.len()).step_by(97) {
            assert_eq!(sorted.value(id), trie.value(id));
        }
        for v in values.iter().step_by(131) {
            assert_eq!(sorted.id_of(v), trie.id_of(v));
        }
    }
}
