//! Shard metadata for restriction-aware pruning at every tree level.
//!
//! The paper's production discipline is "pass through the tree once, prune
//! early, move few bytes": since queries now travel as decoded
//! [`pd_sql::Restriction`]s instead of SQL text, every node that parents a
//! subtree can ask *before* spending a network hop: can any row beneath
//! this child match? [`ShardMeta`] is the per-shard summary that makes the
//! question answerable, and it is layered like the paper's own metadata:
//!
//! 1. **Shard zone map** — row/chunk totals plus, per column, the complete
//!    distinct-value set (when small) and the min/max value;
//! 2. **Bloom filters** (§5: *"we additionally keep Bloom-filters for each
//!    dictionary"*) — for columns whose distinct set degraded past
//!    [`MAX_DISTINCT`], equality probes can still prove absence;
//! 3. **Per-chunk zone maps** ([`ChunkMeta`]) — min/max plus a small
//!    distinct set per chunk, so a parent can compute how much of a child
//!    is live and prune the edge when *zero* chunks survive (beneath a live
//!    edge the leaf's chunk dictionaries, which they were read off, judge);
//! 4. **Virtual fields** (§5.1 partial evaluation) — a restriction over
//!    `date(timestamp)` evaluates the expression over a column's complete
//!    value set, so computed fields prune instead of falling to
//!    `Opaque`-is-maybe; past the cap, a call pd-sql declares
//!    non-decreasing over a bare Int column (`date`, `year`) is bounded by
//!    its value at the column's two extremes, so a dated drill-down prunes
//!    shards and chunks whose time range lies elsewhere.
//!
//! **How a summary is made:** read off dictionaries (§2.3), never rows. A
//! value-ordered global dictionary is its column's distinct set in order —
//! up to [`MAX_DISTINCT`] entries are the set, the first and last the
//! extremes, and a degraded column's bloom hashes the entries; a chunk
//! dictionary is the ids its chunk's rows hold. A leaf reads the store it
//! just built; every copy absorbs an append off the delta's dictionaries
//! and codes ([`ShardMeta::absorb_append`]). The value-taking constructors
//! ([`ShardMeta::summarize`] & co.) make the same summary from rows, one
//! observation per cell: the reference the dictionary path is tested by.
//!
//! Soundness contract: every layer may err only towards `true` ("maybe").
//! A `false` from [`may_match`] / a `Skip` from [`chunk_verdicts`] is a
//! *proof* that the restriction rejects every row, so the parent can
//! substitute an empty partial and account the rows as skipped without
//! changing any result bit. To keep the proofs aligned with what the row
//! filter would actually do, every comparison goes through `pd_sql`'s own
//! [`values_equal`] / [`values_compare`] — the exact semantics `WHERE`
//! evaluation uses (numeric across Int/Float, total order otherwise) — and
//! virtual fields go through the same [`pd_sql::eval_expr`] the filter
//! applies per row. A virtual field bounded by its column's extremes is
//! sound only where pd-sql declares the bound
//! ([`pd_sql::non_decreasing_bounds`]): both ends integers that evaluate
//! without an error, and for `date` both in years 0000–9999, where the
//! text of a day orders as the day does; anything else stays "maybe".

use pd_common::wire::{Decode, Encode, Reader};
use pd_common::{DataType, Error, Field, Result, Row, Schema, Value};
use pd_core::{ChunkActivity, DataStore, Partitioning};
use pd_encoding::{BloomFilter, GlobalDict, TableDelta};
use pd_sql::{eval_expr, non_decreasing_bounds, values_compare, values_equal, Expr, Restriction};
use std::borrow::Cow;
use std::cmp::Ordering;

/// Distinct values tracked per column before the shard summary degrades to
/// min/max only. Low-cardinality dimensions (country, table name) stay
/// exact — they are the columns drill-down restrictions touch.
pub const MAX_DISTINCT: usize = 48;

/// The (smaller) distinct-set cap per chunk: chunks are value-clustered by
/// the partitioner, so even a modest set stays exact for the partition
/// fields, and there are many chunks per shard to keep small on the wire.
pub const MAX_CHUNK_DISTINCT: usize = 16;

/// Bits per key for the per-column Bloom filters (≈1% false positives).
const BLOOM_BITS_PER_KEY: usize = 10;

/// One column's summary.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnMeta {
    pub name: String,
    /// The complete distinct-value set, or `None` when it exceeded the cap
    /// (min/max still apply).
    pub values: Option<Vec<Value>>,
    /// Extremes under [`values_compare`]; `None` only for a rowless shard.
    pub min: Option<Value>,
    pub max: Option<Value>,
}

/// One chunk's zone map: row count plus per-column min/max and a small
/// distinct set, in schema field order.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkMeta {
    pub rows: u64,
    pub columns: Vec<ColumnMeta>,
}

/// A Bloom filter over one column's values, kept only for columns whose
/// shard distinct set degraded to `None` — the membership question the
/// zone map can no longer answer exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnBloom {
    pub name: String,
    /// The column's declared type. Probes of a different type kind bail to
    /// "maybe": SQL equality is numeric across Int/Float but the hashes
    /// are not, so a cross-type probe must never be treated as a proof.
    pub data_type: DataType,
    pub filter: BloomFilter,
}

impl ColumnBloom {
    /// Could the column contain `v`? `false` is a proof of absence under
    /// SQL equality; `true` may be a false positive. Float values hash by
    /// bit pattern, which matches this engine's total-order float equality
    /// (`-0.0 ≠ 0.0`, NaN payloads distinct).
    pub fn may_contain(&self, v: &Value) -> bool {
        match (self.data_type, v) {
            (DataType::Str, Value::Str(s)) => self.filter.may_contain(s.as_str()),
            (DataType::Int, Value::Int(i)) => self.filter.may_contain(i),
            (DataType::Float, Value::Float(f)) => self.filter.may_contain(&f.to_bits()),
            _ => true,
        }
    }

    /// `field`'s filter over `values`, sized for `keys` keys — the rows
    /// they came from, whether each value arrives once or once per row: an
    /// insert is idempotent, so the bits are the same.
    fn over<'a>(field: &Field, keys: usize, values: impl IntoIterator<Item = &'a Value>) -> Self {
        let filter = BloomFilter::new(keys, BLOOM_BITS_PER_KEY);
        let mut bloom =
            ColumnBloom { name: field.name.clone(), data_type: field.data_type, filter };
        values.into_iter().for_each(|v| bloom.insert(v));
        bloom
    }

    fn insert(&mut self, v: &Value) {
        match v {
            Value::Str(s) => self.filter.insert(s.as_str()),
            Value::Int(i) => self.filter.insert(i),
            Value::Float(f) => self.filter.insert(&f.to_bits()),
            // Nulls never satisfy an equality probe, so they need no bits.
            Value::Null => {}
        }
    }
}

/// One shard's summary, carried in the tree-wiring messages.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardMeta {
    pub shard: u64,
    pub rows: u64,
    /// Chunk count of the built store (for skip accounting up the tree).
    pub chunks: u64,
    pub columns: Vec<ColumnMeta>,
    /// Per-chunk zone maps in chunk order (empty until the leaf attaches
    /// them after the store build).
    pub chunk_metas: Vec<ChunkMeta>,
    /// Bloom filters for the columns whose `values` degraded to `None`.
    pub blooms: Vec<ColumnBloom>,
}

impl ShardMeta {
    /// Summarize `rows` value by value: the reference for what a leaf reads
    /// off its dictionaries. `chunks` and the chunk/bloom layers are filled
    /// in after the store build (see [`ShardMeta::summarize_chunks`] /
    /// [`ShardMeta::build_blooms`]).
    pub fn summarize(shard: u64, schema: &Schema, rows: &[Row]) -> ShardMeta {
        let mut columns = empty_columns(schema);
        for row in rows {
            for (meta, value) in columns.iter_mut().zip(&row.0) {
                meta.observe(value);
            }
        }
        ShardMeta {
            shard,
            rows: rows.len() as u64,
            chunks: 0,
            columns,
            chunk_metas: Vec::new(),
            blooms: Vec::new(),
        }
    }

    /// Shard `shard`'s summary, read off the dictionaries of `store` as
    /// [`DataStore::from_coded`] just built it (every global dictionary
    /// value-ordered): what [`ShardMeta::summarize`] & co. make of its rows.
    pub(crate) fn of_store(shard: u64, store: &DataStore) -> Result<ShardMeta> {
        let rows = store.n_rows();
        let chunk = |c| ChunkMeta { rows: store.chunk_rows(c) as u64, columns: Vec::new() };
        let mut meta = ShardMeta {
            shard,
            rows: rows as u64,
            chunks: store.chunk_count() as u64,
            columns: Vec::new(),
            chunk_metas: (0..store.chunk_count()).map(chunk).collect(),
            blooms: Vec::new(),
        };
        for field in store.schema().fields() {
            let column = store.column(&field.name)?;
            let entries: Vec<u32> = (0..column.dict.len()).collect();
            let all = 0..column.dict.len();
            meta.columns.push(zone_map(&field.name, &column.dict, all, MAX_DISTINCT));
            for (chunk, stored) in meta.chunk_metas.iter_mut().zip(&column.chunks) {
                let ids = stored.dict.ids().iter();
                chunk.columns.push(zone_map(&field.name, &column.dict, ids, MAX_CHUNK_DISTINCT));
            }
            if entries.len() > MAX_DISTINCT {
                meta.blooms.push(ColumnBloom::over(field, rows, &column.dict.values_of(&entries)));
            }
        }
        Ok(meta)
    }

    /// Attach per-chunk zone maps: the store's partitioning says which of
    /// the *original* rows landed in which chunk (and in what order), so
    /// the chunk summaries describe exactly the rows each chunk scan would
    /// visit. `columns` are the imported values in schema field order
    /// (indexed by original row, as [`pd_data::Table::column`] hands out).
    pub fn summarize_chunks(&mut self, schema: &Schema, columns: &[&[Value]], part: &Partitioning) {
        self.chunk_metas = (0..part.chunk_count())
            .map(|c| {
                let range = part.chunk_range(c);
                let mut metas = empty_columns(schema);
                for (meta, column) in metas.iter_mut().zip(columns) {
                    for &r in &part.row_order[range.clone()] {
                        meta.observe_capped(&column[r as usize], MAX_CHUNK_DISTINCT);
                    }
                }
                ChunkMeta { rows: range.len() as u64, columns: metas }
            })
            .collect();
    }

    /// Build Bloom filters for every column whose distinct set degraded —
    /// the columns where an equality probe currently gets only a min/max
    /// answer.
    pub fn build_blooms(&mut self, schema: &Schema, columns: &[&[Value]]) {
        self.blooms = schema
            .fields()
            .iter()
            .zip(columns)
            .zip(&self.columns)
            .filter(|(_, summary)| summary.values.is_none())
            .map(|((field, column), _)| ColumnBloom::over(field, column.len(), *column))
            .collect();
    }

    /// The shard-level summary for a named column.
    pub fn column(&self, name: &str) -> Option<&ColumnMeta> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// Take in an append its leaf applied, as the leaf's receipt describes
    /// it: `new_chunk_rows` are the row counts of the chunks the store cut
    /// `delta`'s rows into. Everyone who holds this shard's summary — the
    /// leaf, each merge server above it, the driver — runs this on their
    /// own copy with the same two inputs, and it is deterministic in them
    /// (the blooms too: same values, same hashes), so the copies stay equal
    /// without the summary ever travelling.
    ///
    /// Read off the delta's dictionaries and codes — a column observes its
    /// dictionary's entries, a new chunk's zone map is the distinct codes
    /// its rows hold: what [`ShardMeta::absorb_delta`] makes of the rows.
    ///
    /// Both inputs may have crossed a wire: a receipt or delta that does
    /// not fit this summary is an `Err` that changes nothing.
    pub fn absorb_append(&mut self, delta: &TableDelta, new_chunk_rows: &[u64]) -> Result<()> {
        delta.validate()?;
        let same_columns = self.columns.len() == delta.columns.len()
            && self
                .columns
                .iter()
                .zip(&delta.columns)
                .all(|(mine, theirs)| mine.name == theirs.name);
        if !same_columns {
            return Err(Error::Data(format!(
                "absorb: the delta's columns are not shard {}'s",
                self.shard
            )));
        }
        let total = new_chunk_rows.iter().try_fold(0u64, |sum, &rows| sum.checked_add(rows));
        if total != Some(delta.rows) {
            return Err(Error::Data(format!(
                "absorb: the receipt's chunks do not hold exactly the delta's {} rows",
                delta.rows
            )));
        }
        let chunk = |&rows| ChunkMeta { rows, columns: Vec::new() };
        let mut chunks: Vec<ChunkMeta> = new_chunk_rows.iter().map(chunk).collect();
        let fields = delta.schema.fields().iter().zip(&delta.columns);
        for (summary, (field, coded)) in self.columns.iter_mut().zip(fields) {
            // A delta's dictionary is value-ordered: its codes are ranks.
            let entries: Vec<u32> = (0..coded.dict.len()).collect();
            let values = coded.dict.values_of(&entries);
            observe_all(summary, &mut self.blooms, field, coded.codes.len(), &values);
            let mut codes = coded.codes.iter().copied();
            for chunk in &mut chunks {
                // Each count is at most the delta's row count, a `Vec`'s length.
                let mut ids: Vec<u32> = codes.by_ref().take(chunk.rows as usize).collect();
                ids.sort_unstable();
                ids.dedup();
                let ids = ids.iter().copied();
                chunk.columns.push(zone_map(&field.name, &coded.dict, ids, MAX_CHUNK_DISTINCT));
            }
        }
        self.push_chunks(chunks);
        Ok(())
    }

    /// Take in an applied streaming delta from its rows — the reference for
    /// [`ShardMeta::absorb_append`]: fold the delta's values into the shard
    /// zone map, append one [`ChunkMeta`] per fresh chunk, and keep the
    /// Bloom layer complete. `columns` are the delta values in schema field
    /// order (arrival order within each column); `new_chunk_rows` are the
    /// row counts of the chunks the store just appended.
    pub fn absorb_delta(
        &mut self,
        schema: &Schema,
        columns: &[&[Value]],
        new_chunk_rows: &[usize],
    ) {
        for ((summary, field), column) in self.columns.iter_mut().zip(schema.fields()).zip(columns)
        {
            observe_all(summary, &mut self.blooms, field, column.len(), column);
        }
        let mut at = 0usize;
        let chunks = new_chunk_rows.iter().map(|&len| {
            let mut metas = empty_columns(schema);
            for (meta, column) in metas.iter_mut().zip(columns) {
                for v in &column[at..at + len] {
                    meta.observe_capped(v, MAX_CHUNK_DISTINCT);
                }
            }
            at += len;
            ChunkMeta { rows: len as u64, columns: metas }
        });
        self.push_chunks(chunks.collect());
    }

    /// Account for the chunks an append cut, their zone maps in `chunks`.
    /// The chunk layer stays aligned with the store's chunk order only
    /// when it was complete before the append; an incomplete layer is
    /// dropped (shard-granular pruning stays sound) rather than left with
    /// misindexed verdicts.
    fn push_chunks(&mut self, chunks: Vec<ChunkMeta>) {
        self.rows += chunks.iter().map(|chunk| chunk.rows).sum::<u64>();
        let complete = !self.chunk_metas.is_empty() && self.chunk_metas.len() as u64 == self.chunks;
        self.chunks += chunks.len() as u64;
        if complete {
            self.chunk_metas.extend(chunks);
        } else {
            self.chunk_metas.clear();
        }
    }
}

/// Fold `added` — the values of `rows` new rows — into `field`'s shard zone
/// map `summary`, keeping its bloom complete.
///
/// Soundness at the cap transition: when the set degrades past
/// [`MAX_DISTINCT`] *during* this append, both the pre-append set and the
/// new values are still in hand, so the fresh filter is built exactly — no
/// value ever enters the shard without entering its bloom. A column
/// degraded before keeps its filter and gains the new values.
fn observe_all(
    summary: &mut ColumnMeta,
    blooms: &mut Vec<ColumnBloom>,
    field: &Field,
    rows: usize,
    added: &[Value],
) {
    let pre = summary.values.clone();
    added.iter().for_each(|v| summary.observe(v));
    match (pre, &summary.values) {
        (Some(pre), None) => {
            blooms.retain(|b| b.name != field.name);
            blooms.push(ColumnBloom::over(field, pre.len() + rows, pre.iter().chain(added)));
        }
        _ => {
            if let Some(bloom) = blooms.iter_mut().find(|b| b.name == field.name) {
                added.iter().for_each(|v| bloom.insert(v));
            }
        }
    }
}

/// The zone map of rows whose distinct values are `dict`'s entries at
/// `ids` — ascending ids of a value-ordered dictionary, so ascending values:
/// the set when at most `cap` of them, the extremes first and last.
fn zone_map<I>(name: &str, dict: &GlobalDict, mut ids: I, cap: usize) -> ColumnMeta
where
    I: DoubleEndedIterator<Item = u32> + ExactSizeIterator + Clone,
{
    ColumnMeta {
        name: name.to_owned(),
        values: (ids.len() <= cap).then(|| dict.values_of(&ids.clone().collect::<Vec<_>>())),
        min: ids.clone().next().map(|id| dict.value(id)),
        max: ids.next_back().map(|id| dict.value(id)),
    }
}

fn empty_columns(schema: &Schema) -> Vec<ColumnMeta> {
    schema
        .fields()
        .iter()
        .map(|f| ColumnMeta {
            name: f.name.clone(),
            values: Some(Vec::new()),
            min: None,
            max: None,
        })
        .collect()
}

impl ColumnMeta {
    fn observe(&mut self, value: &Value) {
        self.observe_capped(value, MAX_DISTINCT);
    }

    fn observe_capped(&mut self, value: &Value, cap: usize) {
        if let Some(values) = &mut self.values {
            // Sorted insert (by the same comparator pruning uses), so the
            // dedup is a binary search rather than a linear scan.
            if let Err(at) = values.binary_search_by(|m| values_compare(m, value)) {
                if values.len() >= cap {
                    self.values = None;
                } else {
                    values.insert(at, value.clone());
                }
            }
        }
        let wider = |bound: &mut Option<Value>, keep: Ordering| {
            if bound.as_ref().is_none_or(|b| values_compare(value, b) == keep) {
                *bound = Some(value.clone());
            }
        };
        wider(&mut self.min, Ordering::Less);
        wider(&mut self.max, Ordering::Greater);
    }

    /// Could any row of this column equal `v` (under SQL equality)?
    fn may_contain(&self, v: &Value) -> bool {
        if let Some(values) = &self.values {
            return values.iter().any(|m| values_equal(m, v));
        }
        match (&self.min, &self.max) {
            (Some(min), Some(max)) => {
                // SQL equality and the total order disagree in exactly one
                // corner: ±0.0 (values_equal(0, -0.0) but -0.0 < 0 under
                // total_cmp). A probe equal to either bound must therefore
                // count as present even when the interval test would place
                // it outside — otherwise a shard whose rows match could be
                // pruned, and pruning may only ever err towards "maybe".
                values_equal(v, min)
                    || values_equal(v, max)
                    || (values_compare(v, min) != Ordering::Less
                        && values_compare(v, max) != Ordering::Greater)
            }
            _ => false, // no rows at all
        }
    }
}

// --- the layered evaluator --------------------------------------------------

/// Can any row of the shard satisfy `restriction`? The full layered check:
/// shard zone map, then Bloom probes for equality restrictions on degraded
/// columns, then — when the chunk layer is present — the chunk zone maps,
/// pruning the shard when *zero* chunks may hold a match (evaluated up to
/// the first that may). Errs towards `true`: opaque predicates, unknown
/// columns and unresolvable virtual fields are all "maybe".
pub fn may_match(restriction: &Restriction, meta: &ShardMeta) -> bool {
    shard_may_match(restriction, meta)
        && (meta.chunk_metas.is_empty() || chunks_may_hold(restriction, meta).any(|live| live))
}

/// The shard-granular layers only (zone map + Bloom): [`may_match`]'s first
/// step.
fn shard_may_match(restriction: &Restriction, meta: &ShardMeta) -> bool {
    meta.rows > 0 && may_hold(restriction, &meta.columns, &meta.blooms)
}

/// Chunk-granular verdicts from the metadata alone, one per entry of
/// `meta.chunk_metas` (chunk order): `Skip` where the summary proves the
/// chunk empty, `Partial` everywhere else — an edge proves only emptiness
/// (a leaf's scan judges its chunks by its dictionaries: [`pd_core::skip`]).
/// It serves clickbench's mirror, which counts the `Skip`s.
pub fn chunk_verdicts(restriction: &Restriction, meta: &ShardMeta) -> Vec<ChunkActivity> {
    let verdict = |live| if live { ChunkActivity::Partial } else { ChunkActivity::Skip };
    chunks_may_hold(restriction, meta).map(verdict).collect()
}

/// Whether each chunk of `meta.chunk_metas` may hold a match, evaluated as
/// asked for.
fn chunks_may_hold<'a>(
    restriction: &'a Restriction,
    meta: &'a ShardMeta,
) -> impl Iterator<Item = bool> + 'a {
    // Shard-wide blooms stay sound per chunk: a value absent from the shard
    // is absent from every chunk of it.
    (meta.chunk_metas.iter())
        .map(|chunk| chunk.rows > 0 && may_hold(restriction, &chunk.columns, &meta.blooms))
}

/// Could a row summarized by one zone map (a shard's or a chunk's) satisfy
/// `restriction`? `false` is a proof of emptiness; anything uncertain is
/// `true`.
fn may_hold(restriction: &Restriction, columns: &[ColumnMeta], blooms: &[ColumnBloom]) -> bool {
    match restriction {
        Restriction::True | Restriction::Opaque => true,
        // Degenerate conjunctions/disjunctions err towards maybe: `all`
        // over zero children is vacuously true and `any` vacuously false,
        // and the latter once turned a vacuous restriction into a silent
        // wrong-answer prune. No parser produces them today; if a future
        // normalizer does, "maybe" costs a scan, never a result bit.
        Restriction::And(children) | Restriction::Or(children) if children.is_empty() => true,
        Restriction::And(children) => children.iter().all(|r| may_hold(r, columns, blooms)),
        Restriction::Or(children) => children.iter().any(|r| may_hold(r, columns, blooms)),
        Restriction::In { field, values, negated } => {
            let Some(column) = resolved_column(field, columns) else { return true };
            if *negated {
                // NOT IN is refuted only by the complete value set, every
                // present value listed.
                let listed = |m: &Value| values.iter().any(|v| values_equal(m, v));
                return !column.values.as_ref().is_some_and(|present| present.iter().all(listed));
            }
            // Bloom probes apply only to bare columns: the filters hash
            // *base* column values, never derived virtual-field outputs.
            let bloom = field.as_column().and_then(|name| blooms.iter().find(|b| b.name == name));
            values.iter().any(|v| column.may_contain(v) && bloom.is_none_or(|b| b.may_contain(v)))
        }
        Restriction::Range { field, min, max } => {
            let Some(column) = resolved_column(field, columns) else { return true };
            let (Some(cmin), Some(cmax)) = (&column.min, &column.max) else {
                return false; // no rows at all
            };
            // Range comparisons in the row filter are purely
            // `values_compare`, so interval reasoning here is exact: does
            // `x` lie on the `side` of `bound` the range keeps?
            let keeps = |x: &Value, bound: &Option<(Value, bool)>, side: Ordering| {
                bound.as_ref().is_none_or(|(v, inclusive)| match values_compare(x, v) {
                    Ordering::Equal => *inclusive,
                    order => order == side,
                })
            };
            keeps(cmax, min, Ordering::Greater) && keeps(cmin, max, Ordering::Less)
        }
    }
}

/// Resolve a restriction's field expression against a zone map: a bare
/// column looks up directly; any other expression that references exactly
/// one column is the §5.1 partial evaluation, in one of two ways:
///
/// - the column's complete distinct set survived: evaluating the expression
///   over that set yields the complete distinct set *of the expression*,
///   through exactly the [`pd_sql::eval_expr`] the row filter would apply;
/// - the set degraded to its extremes: an expression pd-sql declares
///   non-decreasing in a bare Int column ([`pd_sql::non_decreasing_bounds`]:
///   `date`, `year`) takes its extremes at the column's, so its zone map is
///   the function at the two ends, no set.
///
/// Any evaluation error or missing precondition resolves to `None`
/// ("maybe").
fn resolved_column<'a>(field: &Expr, columns: &'a [ColumnMeta]) -> Option<Cow<'a, ColumnMeta>> {
    if let Some(name) = field.as_column() {
        return columns.iter().find(|c| c.name == name).map(Cow::Borrowed);
    }
    let mut names = Vec::new();
    field.referenced_columns(&mut names);
    let [name] = names.as_slice() else { return None };
    let source = columns.iter().find(|c| c.name == *name)?;
    // The derived zone map is read only for its set and extremes.
    let Some(values) = &source.values else {
        let (min, max) = non_decreasing_bounds(field, source.min.as_ref()?, source.max.as_ref()?)?;
        return Some(Cow::Owned(ColumnMeta {
            name: String::new(),
            values: None,
            min: Some(min),
            max: Some(max),
        }));
    };
    let mut derived =
        ColumnMeta { name: String::new(), values: Some(Vec::new()), min: None, max: None };
    for v in values {
        let row = [(name.as_str(), v.clone())];
        let out = eval_expr(field, row.as_slice()).ok()?;
        derived.observe(&out);
    }
    Some(Cow::Owned(derived))
}

// --- wire codecs ------------------------------------------------------------

impl Encode for ColumnMeta {
    fn encode(&self, out: &mut Vec<u8>) {
        self.name.encode(out);
        self.values.encode(out);
        self.min.encode(out);
        self.max.encode(out);
    }
}

impl Decode for ColumnMeta {
    fn decode(r: &mut Reader<'_>) -> Result<ColumnMeta> {
        Ok(ColumnMeta {
            name: String::decode(r)?,
            values: Option::<Vec<Value>>::decode(r)?,
            min: Option::<Value>::decode(r)?,
            max: Option::<Value>::decode(r)?,
        })
    }
}

impl Encode for ChunkMeta {
    fn encode(&self, out: &mut Vec<u8>) {
        self.rows.encode(out);
        self.columns.encode(out);
    }
}

impl Decode for ChunkMeta {
    fn decode(r: &mut Reader<'_>) -> Result<ChunkMeta> {
        Ok(ChunkMeta { rows: r.u64()?, columns: Vec::<ColumnMeta>::decode(r)? })
    }
}

impl Encode for ColumnBloom {
    fn encode(&self, out: &mut Vec<u8>) {
        self.name.encode(out);
        self.data_type.encode(out);
        self.filter.encode(out);
    }
}

impl Decode for ColumnBloom {
    fn decode(r: &mut Reader<'_>) -> Result<ColumnBloom> {
        Ok(ColumnBloom {
            name: String::decode(r)?,
            data_type: DataType::decode(r)?,
            filter: BloomFilter::decode(r)?,
        })
    }
}

impl Encode for ShardMeta {
    fn encode(&self, out: &mut Vec<u8>) {
        self.shard.encode(out);
        self.rows.encode(out);
        self.chunks.encode(out);
        self.columns.encode(out);
        self.chunk_metas.encode(out);
        self.blooms.encode(out);
    }
}

impl Decode for ShardMeta {
    fn decode(r: &mut Reader<'_>) -> Result<ShardMeta> {
        Ok(ShardMeta {
            shard: r.u64()?,
            rows: r.u64()?,
            chunks: r.u64()?,
            columns: Vec::<ColumnMeta>::decode(r)?,
            chunk_metas: Vec::<ChunkMeta>::decode(r)?,
            blooms: Vec::<ColumnBloom>::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_common::wire::{from_bytes, to_bytes};
    use pd_common::DataType;
    use pd_sql::parse_query;

    fn sample_meta() -> ShardMeta {
        let schema = Schema::of(&[
            ("country", DataType::Str),
            ("latency", DataType::Int),
            ("x", DataType::Float),
        ]);
        let rows: Vec<Row> = (0..100i64)
            .map(|i| {
                Row(vec![
                    Value::from(["DE", "FR"][(i % 2) as usize]),
                    Value::Int(100 + i),
                    Value::Float(i as f64 * 0.5),
                ])
            })
            .collect();
        ShardMeta::summarize(7, &schema, &rows)
    }

    fn restriction(where_sql: &str) -> Restriction {
        let q = parse_query(&format!("SELECT COUNT(*) FROM t WHERE {where_sql}")).unwrap();
        Restriction::from_expr(&q.where_clause.unwrap())
    }

    /// Row-major test data → the column slices the production path (a
    /// columnar [`pd_data::Table`]) hands to the chunk/bloom builders.
    fn transposed(rows: &[Row]) -> Vec<Vec<Value>> {
        let width = rows.first().map_or(0, |r| r.0.len());
        (0..width).map(|i| rows.iter().map(|r| r.0[i].clone()).collect()).collect()
    }

    fn as_slices(columns: &[Vec<Value>]) -> Vec<&[Value]> {
        columns.iter().map(|c| c.as_slice()).collect()
    }

    #[test]
    fn summaries_capture_values_and_extremes() {
        let meta = sample_meta();
        let country = meta.column("country").unwrap();
        assert_eq!(country.values.as_ref().unwrap().len(), 2);
        let latency = meta.column("latency").unwrap();
        assert_eq!(latency.values, None, "100 distinct ints exceed the cap");
        assert_eq!(latency.min, Some(Value::Int(100)));
        assert_eq!(latency.max, Some(Value::Int(199)));
    }

    #[test]
    fn pruning_is_sound_and_useful() {
        let meta = sample_meta();
        // Provably absent values prune; present values don't.
        assert!(!may_match(&restriction("country = 'US'"), &meta));
        assert!(may_match(&restriction("country = 'DE'"), &meta));
        assert!(!may_match(&restriction("country IN ('US', 'SG')"), &meta));
        assert!(may_match(&restriction("country IN ('US', 'FR')"), &meta));
        // Min/max reasoning for the capped column.
        assert!(!may_match(&restriction("latency > 199"), &meta));
        assert!(may_match(&restriction("latency >= 199"), &meta));
        assert!(!may_match(&restriction("latency < 100"), &meta));
        assert!(may_match(&restriction("latency <= 100"), &meta));
        // Values inside the range can never be proven absent without the set.
        assert!(may_match(&restriction("latency = 150"), &meta));
        // Mixed-type numerics use SQL comparison semantics.
        assert!(!may_match(&restriction("latency > 199.5"), &meta));
        assert!(!may_match(&restriction("x > 49.6"), &meta));
        // AND prunes if any leg does; OR only if all legs do.
        assert!(!may_match(&restriction("country = 'US' AND latency > 0"), &meta));
        assert!(may_match(&restriction("country = 'US' OR latency > 0"), &meta));
        // NOT IN with a complete set prunes only when every value is listed.
        assert!(!may_match(&restriction("country NOT IN ('DE', 'FR')"), &meta));
        assert!(may_match(&restriction("country NOT IN ('DE')"), &meta));
        // Opaque predicates and unknown columns never prune.
        assert!(may_match(&restriction("contains(country, 'D')"), &meta));
        assert!(may_match(&restriction("date(timestamp) IN ('2012-01-01')"), &meta));
        assert!(may_match(&restriction("nosuch = 'x'"), &meta));
    }

    #[test]
    fn degenerate_and_or_err_toward_maybe() {
        // `all` over zero children is vacuously true and `any` vacuously
        // false — the latter would have turned an empty OR into a pruning
        // *proof*. Both degenerate forms must read "maybe": no future
        // parser/normalizer change may silently drop rows through them.
        let meta = sample_meta();
        assert!(may_match(&Restriction::And(vec![]), &meta));
        assert!(may_match(&Restriction::Or(vec![]), &meta));
        // Nested inside a live tree they stay harmless.
        assert!(may_match(
            &Restriction::And(vec![restriction("country = 'DE'"), Restriction::Or(vec![])]),
            &meta
        ));
        // ... and never weaken a sibling proof.
        assert!(!may_match(
            &Restriction::And(vec![restriction("country = 'US'"), Restriction::Or(vec![])]),
            &meta
        ));
    }

    #[test]
    fn blooms_refute_equality_on_degraded_columns() {
        // >MAX_DISTINCT distinct strings degrade the set; the Bloom layer
        // still proves absence for equality probes.
        let schema = Schema::of(&[("term", DataType::Str)]);
        let rows: Vec<Row> =
            (0..200).map(|i| Row(vec![Value::from(format!("term-{i}"))])).collect();
        let mut meta = ShardMeta::summarize(0, &schema, &rows);
        assert_eq!(meta.column("term").unwrap().values, None, "set must have degraded");
        // Without blooms: min/max spans the probes, so everything is maybe.
        assert!(may_match(&restriction("term = 'term-0a'"), &meta));
        let cols = transposed(&rows);
        meta.build_blooms(&schema, &as_slices(&cols));
        assert_eq!(meta.blooms.len(), 1);
        // Present values always probe true (no false negatives) ...
        for i in (0..200).step_by(17) {
            assert!(may_match(&restriction(&format!("term = 'term-{i}'")), &meta));
        }
        // ... and a provably-absent value prunes.
        assert!(!may_match(&restriction("term = 'term-0a'"), &meta));
        // Cross-type probes bail to maybe (SQL equality is numeric across
        // Int/Float; the hashes are not).
        let ints: Vec<Row> = (0..200).map(|i| Row(vec![Value::Int(i)])).collect();
        let int_schema = Schema::of(&[("term", DataType::Int)]);
        let mut int_meta = ShardMeta::summarize(0, &int_schema, &ints);
        let int_cols = transposed(&ints);
        int_meta.build_blooms(&int_schema, &as_slices(&int_cols));
        assert!(may_match(&restriction("term = 60.0"), &int_meta), "float probe on int bloom");
        // NOT IN is never refuted by a bloom (needs the complete set).
        assert!(may_match(&restriction("term NOT IN ('term-1')"), &meta));
    }

    /// Two chunks with a value gap between them: rows 0..50 hold 0..49,
    /// rows 50..100 hold 1050..1099.
    fn gapped_meta() -> ShardMeta {
        let schema = Schema::of(&[("v", DataType::Int)]);
        let rows: Vec<Row> =
            (0..100i64).map(|i| Row(vec![Value::Int(if i < 50 { i } else { 1000 + i })])).collect();
        let part =
            Partitioning { row_order: (0..100u32).collect(), chunk_starts: vec![0, 50, 100] };
        let mut meta = ShardMeta::summarize(1, &schema, &rows);
        meta.chunks = 2;
        let cols = transposed(&rows);
        meta.summarize_chunks(&schema, &as_slices(&cols), &part);
        meta
    }

    #[test]
    fn chunk_layer_prunes_inside_the_shard_envelope() {
        let meta = gapped_meta();
        assert_eq!(meta.chunk_metas.len(), 2);
        // The shard zone map spans [0, 1099]: a range in the gap is maybe
        // at shard granularity but provably dead in *every* chunk.
        let gap = restriction("v > 100 AND v < 1000");
        assert!(shard_may_match(&gap, &meta), "shard layer alone cannot refute");
        assert!(
            chunk_verdicts(&gap, &meta).iter().all(|a| *a == ChunkActivity::Skip),
            "both chunks are provably dead"
        );
        assert!(!may_match(&gap, &meta), "zero live chunks prune the shard");
        // A range touching one chunk keeps exactly that chunk live.
        let low = restriction("v < 40");
        let verdicts = chunk_verdicts(&low, &meta);
        assert_ne!(verdicts[0], ChunkActivity::Skip);
        assert_eq!(verdicts[1], ChunkActivity::Skip);
        assert!(may_match(&low, &meta));
    }

    #[test]
    fn virtual_fields_prune_through_partial_evaluation() {
        // §5.1: evaluate `date(timestamp)` over the column's complete
        // value set — the derived set decides restrictions no bare-column
        // zone map could.
        let schema = Schema::of(&[("timestamp", DataType::Int)]);
        let rows: Vec<Row> = (0..90i64)
            .map(|i| Row(vec![Value::Int((i % 3) * 86_400 + 100)])) // 3 distinct days
            .collect();
        let meta = ShardMeta::summarize(0, &schema, &rows);
        assert!(meta.column("timestamp").unwrap().values.is_some());
        assert!(may_match(&restriction("date(timestamp) IN ('1970-01-02')"), &meta));
        assert!(
            !may_match(&restriction("date(timestamp) IN ('1970-01-05')"), &meta),
            "a day outside the derived set prunes"
        );
        // Range restrictions work through the derived extremes too.
        assert!(!may_match(&restriction("date(timestamp) > '1970-01-09'"), &meta));
        assert!(may_match(&restriction("date(timestamp) >= '1970-01-01'"), &meta));
        // Arithmetic expressions derive the same way.
        assert!(!may_match(&restriction("timestamp * 2 > 400000"), &meta));
        // A degraded source set cannot derive a set: a call that may
        // decrease is maybe (the extremes are the next test's).
        let many: Vec<Row> = (0..100i64).map(|i| Row(vec![Value::Int(i * 86_400)])).collect();
        let degraded = ShardMeta::summarize(0, &schema, &many);
        assert_eq!(degraded.column("timestamp").unwrap().values, None);
        assert!(may_match(&restriction("hour(timestamp) IN (5)"), &degraded));
        // Evaluation errors resolve to maybe, never a panic or a prune.
        assert!(may_match(&restriction("nosuchfn(timestamp) IN (1)"), &meta));
        // Multi-column expressions stay opaque.
        let two = Schema::of(&[("a", DataType::Int), ("b", DataType::Int)]);
        let ab: Vec<Row> = (0..5i64).map(|i| Row(vec![Value::Int(i), Value::Int(i)])).collect();
        let meta_ab = ShardMeta::summarize(0, &two, &ab);
        assert!(may_match(&restriction("a + b > 100"), &meta_ab));
    }

    #[test]
    fn virtual_fields_prune_through_the_extremes_of_a_degraded_column() {
        // 100 hourly timestamps from 2012-02-27 00:00 to 2012-03-02 03:00:
        // past the distinct cap, so the zone map holds the extremes only,
        // and `date` and `year`, which never decrease, take theirs there.
        let schema = Schema::of(&[("timestamp", DataType::Int)]);
        let hourly = |i: i64| Value::Int(1_330_300_800 + i * 3_600);
        let rows: Vec<Row> = (0..100).map(|i| Row(vec![hourly(i)])).collect();
        let meta = ShardMeta::summarize(0, &schema, &rows);
        assert_eq!(meta.column("timestamp").unwrap().values, None, "set must have degraded");
        let prunes = |meta: &ShardMeta, where_sql: &str| !may_match(&restriction(where_sql), meta);
        assert!(prunes(&meta, "date(timestamp) = '2012-03-10'"));
        assert!(!prunes(&meta, "date(timestamp) = '2012-02-29'"));
        assert!(prunes(&meta, "date(timestamp) IN ('2012-01-01', '2012-03-10')"));
        assert!(!prunes(&meta, "date(timestamp) IN ('2012-01-01', '2012-03-01')"));
        assert!(prunes(&meta, "date(timestamp) >= '2012-03-03'"));
        assert!(!prunes(&meta, "date(timestamp) >= '2012-03-02'"));
        assert!(prunes(&meta, "date(timestamp) < '2012-02-27'"));
        assert!(prunes(&meta, "year(timestamp) = 2011"));
        assert!(!prunes(&meta, "year(timestamp) IN (2012)"));
        // A call that may decrease stays maybe, though no row is in July:
        // its ends bound nothing between them.
        assert!(!prunes(&meta, "month(timestamp) = 7"));
        // So does a float at an end, or a null.
        let floats = Schema::of(&[("timestamp", DataType::Float)]);
        let float_rows: Vec<Row> = (0..100)
            .map(|i| Row(vec![Value::Float(1_330_300_800.0 + i as f64 * 3_600.0)]))
            .collect();
        let float_meta = ShardMeta::summarize(0, &floats, &float_rows);
        assert!(!prunes(&float_meta, "date(timestamp) = '2012-03-10'"));
        let with = |extra: Value| {
            let mut rows = rows.clone();
            rows.push(Row(vec![extra]));
            ShardMeta::summarize(0, &schema, &rows)
        };
        assert!(!prunes(&with(Value::Null), "date(timestamp) = '2012-03-10'"));
        assert!(!prunes(&with(Value::Null), "year(timestamp) = 2011"));
        // An end outside years 0000-9999 leaves `date` maybe (its text no
        // longer orders as its day does), not `year`.
        for outside in [253_402_300_800, -62_167_219_201] {
            let meta = with(Value::Int(outside));
            assert!(!prunes(&meta, "date(timestamp) = '2012-03-10'"), "{outside}");
            assert!(prunes(&meta, "year(timestamp) > 10000"), "{outside}");
        }
    }

    #[test]
    fn signed_zero_equality_never_prunes_a_matching_shard() {
        // >MAX_DISTINCT distinct floats, all <= -0.0, so the value set
        // degrades to min/max with max = -0.0. `x = 0` matches the -0.0
        // rows under SQL equality even though Int(0) sits *above* the max
        // in the total order — the shard must not be pruned.
        let schema = Schema::of(&[("x", DataType::Float)]);
        let mut rows: Vec<Row> = (1..=60).map(|i| Row(vec![Value::Float(-(i as f64))])).collect();
        rows.push(Row(vec![Value::Float(-0.0)]));
        let meta = ShardMeta::summarize(0, &schema, &rows);
        assert_eq!(meta.column("x").unwrap().values, None, "set must have degraded");
        assert_eq!(meta.column("x").unwrap().max, Some(Value::Float(-0.0)));
        assert!(may_match(&restriction("x = 0"), &meta));
        // Float-vs-float equality in this engine is total_cmp-based, so
        // the row filter itself rejects `-0.0 = 0.0` — pruning that probe
        // is sound (and correct): only the numeric Int/Float path above
        // crosses the signed-zero boundary.
        assert!(!may_match(&restriction("x = 0.0"), &meta));
        assert!(may_match(&restriction("x = -60"), &meta), "equality with min");
        assert!(!may_match(&restriction("x = 1"), &meta), "still prunes above the range");
        assert!(!may_match(&restriction("x = -61"), &meta), "still prunes below the range");
        // The Bloom layer must respect the same corner: with blooms built,
        // the numeric cross-type probe `x = 0` bails to maybe (Int probe
        // on a Float filter), so the matching shard still survives.
        let mut bloomed = ShardMeta::summarize(0, &schema, &rows);
        let cols = transposed(&rows);
        bloomed.build_blooms(&schema, &as_slices(&cols));
        assert!(may_match(&restriction("x = 0"), &bloomed));
    }

    #[test]
    fn absorb_delta_updates_every_layer() {
        let mut meta = gapped_meta();
        assert_eq!((meta.rows, meta.chunks), (100, 2));
        // A value in the inter-chunk gap arrives as a delta chunk.
        let delta = [Value::Int(500), Value::Int(501), Value::Int(502)];
        meta.absorb_delta(&Schema::of(&[("v", DataType::Int)]), &[&delta], &[2, 1]);
        assert_eq!((meta.rows, meta.chunks), (103, 4));
        assert_eq!(meta.chunk_metas.len(), 4);
        assert_eq!(meta.chunk_metas[2].rows, 2);
        assert_eq!(meta.chunk_metas[3].rows, 1);
        // The gap range now matches via the appended chunks only.
        let gap = restriction("v > 100 AND v < 1000");
        let verdicts = chunk_verdicts(&gap, &meta);
        assert_eq!(verdicts[0], ChunkActivity::Skip);
        assert_eq!(verdicts[1], ChunkActivity::Skip);
        assert_ne!(verdicts[2], ChunkActivity::Skip);
        assert!(may_match(&gap, &meta));
        // Ranges outside everything still prune.
        assert!(!may_match(&restriction("v > 2000"), &meta));
    }

    #[test]
    fn absorb_delta_keeps_blooms_complete_across_the_cap_transition() {
        // 40 distinct strings at load (under MAX_DISTINCT, no bloom); the
        // delta pushes the set past the cap, which must produce an exact
        // fresh filter covering pre-append *and* delta values.
        let schema = Schema::of(&[("term", DataType::Str)]);
        let rows: Vec<Row> = (0..40).map(|i| Row(vec![Value::from(format!("pre-{i}"))])).collect();
        let mut meta = ShardMeta::summarize(0, &schema, &rows);
        let cols = transposed(&rows);
        meta.build_blooms(&schema, &as_slices(&cols));
        assert!(meta.blooms.is_empty(), "exact set needs no bloom");

        let delta: Vec<Value> = (0..20).map(|i| Value::from(format!("new-{i}"))).collect();
        meta.absorb_delta(&schema, &[&delta], &[20]);
        assert_eq!(meta.column("term").unwrap().values, None, "set must have degraded");
        assert_eq!(meta.blooms.len(), 1, "transition must build the filter");
        // No false negatives for either generation of values...
        for i in 0..40 {
            assert!(may_match(&restriction(&format!("term = 'pre-{i}'")), &meta));
        }
        for i in 0..20 {
            assert!(may_match(&restriction(&format!("term = 'new-{i}'")), &meta));
        }
        // ...while provably-absent values still prune through the filter.
        assert!(!may_match(&restriction("term = 'pre-0a'"), &meta));

        // A column already degraded at load keeps its filter and gains the
        // delta's values.
        let many: Vec<Row> =
            (0..200).map(|i| Row(vec![Value::from(format!("term-{i}"))])).collect();
        let mut degraded = ShardMeta::summarize(0, &schema, &many);
        let many_cols = transposed(&many);
        degraded.build_blooms(&schema, &as_slices(&many_cols));
        let late = [Value::from("late-arrival")];
        assert!(!may_match(&restriction("term = 'late-arrival'"), &degraded));
        degraded.absorb_delta(&schema, &[&late], &[1]);
        assert!(may_match(&restriction("term = 'late-arrival'"), &degraded));
        assert!(!may_match(&restriction("term = 'still-absent'"), &degraded));
    }

    #[test]
    fn empty_shards_always_prune() {
        let schema = Schema::of(&[("k", DataType::Str)]);
        let meta = ShardMeta::summarize(0, &schema, &[]);
        assert!(!may_match(&Restriction::True, &meta));
        assert!(!may_match(&restriction("k = 'a'"), &meta));
    }

    #[test]
    fn metas_round_trip_on_the_wire() {
        let mut meta = sample_meta();
        meta.chunks = 4;
        let schema = Schema::of(&[
            ("country", DataType::Str),
            ("latency", DataType::Int),
            ("x", DataType::Float),
        ]);
        let rows: Vec<Row> = (0..100i64)
            .map(|i| {
                Row(vec![
                    Value::from(["DE", "FR"][(i % 2) as usize]),
                    Value::Int(100 + i),
                    Value::Float(i as f64 * 0.5),
                ])
            })
            .collect();
        let part = Partitioning {
            row_order: (0..100u32).collect(),
            chunk_starts: vec![0, 25, 50, 75, 100],
        };
        let cols = transposed(&rows);
        meta.summarize_chunks(&schema, &as_slices(&cols), &part);
        meta.build_blooms(&schema, &as_slices(&cols));
        assert_eq!(meta.chunk_metas.len(), 4);
        assert!(!meta.blooms.is_empty(), "latency degraded, so it carries a bloom");
        let back: ShardMeta = from_bytes(&to_bytes(&meta)).unwrap();
        assert_eq!(back, meta);
        // Truncations error, never panic.
        let bytes = to_bytes(&meta);
        for cut in (0..bytes.len()).step_by(7) {
            assert!(from_bytes::<ShardMeta>(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }
}
