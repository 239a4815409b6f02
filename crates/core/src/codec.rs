//! Wire codecs for the execution layer: the types that cross the §4
//! process boundary.
//!
//! A leaf worker returns `(PartialResult, ScanStats)`; a merge server
//! returns the same after folding its subtree. Both therefore need
//! [`Encode`] / [`Decode`] — and the encodings must preserve every state
//! *bit-identically*, because the distributed equivalence suite asserts
//! exact equality (floats included) between the process-split tree and the
//! single-store engine. A partial travels as the columns of its group
//! table (`crate::groups`), as they are held, groups in their ascending key
//! order, so equal tables are equal bytes and `encode(decode(b)) == b`:
//!
//! - a key column is its one buffer of sort keys ([`pd_common::sortkey`]:
//!   a tag, then a string's UTF-8 bytes or a number's order-preserving
//!   bits) and each cell's end offset — no front coding, which would need a
//!   bounded decode of a prefix that expands past the frame;
//! - MIN/MAX cells are [`Value`]s, whose floats travel as raw IEEE bits;
//! - an integer-sum slot travels as its exact 16-byte (`i128`) sum;
//! - a float-sum slot travels as its 16-byte double-double pair, and as
//!   its [`pd_common::FloatSum`] superaccumulator (fixed 34-limb array,
//!   verbatim, see `pd_common::fsum`) only once tainted;
//! - count-distinct sketches travel as their retained hash sets, so a
//!   merge above the wire equals a merge below it.
//!
//! Nothing read is trusted: a column's length is checked against the
//! bytes that remain before anything is allocated for it (a key column's
//! buffer is one allocation of its declared length), and the constructors
//! of `crate::groups` hold every key cell to a tag, its width and UTF-8,
//! the ends to the buffer, the columns to the group count and the keys to
//! their strict order (compared as bytes) — a typed [`Error::Data`], never
//! a panic. A partial carries no aggregate list: `crate::finalize` holds
//! its slots to the asking query's, as `Error::Data` too.
//!
//! [`BuildOptions`] is codable too: the driver ships each worker its shard
//! rows *and* the import recipe, so a worker builds exactly the store the
//! in-process cluster would have built.

use crate::count_distinct::KmvSketch;
use crate::groups::{Column, FloatColumn, KeyBytes, PartialResult};
use crate::options::{BuildOptions, DictMode, PartitionSpec};
use crate::stats::ScanStats;
use pd_common::wire::{Decode, Encode, Reader};
use pd_common::{Error, Result, Value};

impl Encode for KmvSketch {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.m() as u64).encode(out);
        (self.len() as u64).encode(out);
        for h in self.hashes() {
            h.encode(out);
        }
    }
}

impl Decode for KmvSketch {
    fn decode(r: &mut Reader<'_>) -> Result<KmvSketch> {
        let m = usize::decode(r)?;
        let len = r.u64()?;
        let len = r.check_len(len, 8)?;
        // One sort, not an insert per hash: a forged list in descending
        // order must not cost len² moves.
        let hashes = (0..len).map(|_| r.u64()).collect::<Result<Vec<u64>>>()?;
        Ok(KmvSketch::from_parts(m, hashes))
    }
}

const COLUMN_COUNT: u8 = 0;
const COLUMN_SUM_INT: u8 = 1;
const COLUMN_SUM_FLOAT: u8 = 2;
const COLUMN_MIN: u8 = 3;
const COLUMN_MAX: u8 = 4;
const COLUMN_DISTINCT: u8 = 5;

/// A state column: its kind, then its vectors — a float-sum column as
/// every slot's 16-byte pair and, per slot, the exact accumulator it has
/// only once tainted.
impl Encode for Column<Value> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Column::Count(counts) => {
                out.push(COLUMN_COUNT);
                counts.encode(out);
            }
            Column::SumInt(sums) => {
                out.push(COLUMN_SUM_INT);
                sums.encode(out);
            }
            Column::SumFloat(sums) => {
                out.push(COLUMN_SUM_FLOAT);
                let (hi, lo, exact) = sums.parts();
                hi.encode(out);
                lo.encode(out);
                exact.encode(out);
            }
            Column::Extreme { is_min, best } => {
                out.push(if *is_min { COLUMN_MIN } else { COLUMN_MAX });
                best.encode(out);
            }
            Column::Distinct { m, sketches } => {
                out.push(COLUMN_DISTINCT);
                m.encode(out);
                sketches.encode(out);
            }
        }
    }
}

impl Decode for Column<Value> {
    fn decode(r: &mut Reader<'_>) -> Result<Column<Value>> {
        Ok(match r.u8()? {
            COLUMN_COUNT => Column::Count(Vec::decode(r)?),
            COLUMN_SUM_INT => Column::SumInt(Vec::decode(r)?),
            COLUMN_SUM_FLOAT => {
                let (hi, lo) = (Vec::decode(r)?, Vec::decode(r)?);
                Column::SumFloat(FloatColumn::from_parts(hi, lo, Vec::decode(r)?)?)
            }
            COLUMN_MIN => Column::Extreme { is_min: true, best: Vec::decode(r)? },
            COLUMN_MAX => Column::Extreme { is_min: false, best: Vec::decode(r)? },
            COLUMN_DISTINCT => Column::Distinct { m: usize::decode(r)?, sketches: Vec::decode(r)? },
            other => return Err(Error::Data(format!("wire: invalid state-column tag {other}"))),
        })
    }
}

/// A key column as it is held: its buffer, then where each cell ends.
impl Encode for KeyBytes {
    fn encode(&self, out: &mut Vec<u8>) {
        let (bytes, ends) = self.parts();
        (bytes.len() as u64).encode(out);
        out.extend_from_slice(bytes);
        ends.encode(out);
    }
}

/// One allocation of the buffer's declared length, once the bytes that
/// remain hold it; `KeyBytes::from_parts` checks the ends and every cell.
impl Decode for KeyBytes {
    fn decode(r: &mut Reader<'_>) -> Result<KeyBytes> {
        let len = r.u64()?;
        let len = r.check_len(len, 1)?;
        let bytes = r.take(len)?.to_vec();
        KeyBytes::from_parts(bytes, Vec::decode(r)?)
    }
}

/// The group table, column by column: the group count, the key columns,
/// the slot each state column holds, the state columns. Which aggregates
/// read which slots is the asking query's to say, so it does not travel.
/// Groups travel in their ascending key order, so equal partials are equal
/// bytes.
impl Encode for PartialResult {
    fn encode(&self, out: &mut Vec<u8>) {
        let (len, keys, names, slots) = self.columns();
        (len as u64).encode(out);
        keys.encode(out);
        (names.len() as u64).encode(out);
        names.iter().for_each(|slot| slot.encode(out));
        slots.encode(out);
    }
}

/// Every column's own length is checked against the bytes that remain as
/// it is read (`Vec`'s decoder), and `PartialResult::from_columns` holds
/// the columns to the group count and the keys to their order.
impl Decode for PartialResult {
    fn decode(r: &mut Reader<'_>) -> Result<PartialResult> {
        let len = r.u64()?;
        let (keys, names) = (Vec::decode(r)?, Vec::decode(r)?);
        PartialResult::from_columns(len, keys, names, Vec::decode(r)?)
    }
}

impl Encode for ScanStats {
    fn encode(&self, out: &mut Vec<u8>) {
        self.chunks_total.encode(out);
        self.chunks_skipped.encode(out);
        self.chunks_cached.encode(out);
        self.chunks_scanned.encode(out);
        self.rows_total.encode(out);
        self.rows_skipped.encode(out);
        self.rows_cached.encode(out);
        self.rows_scanned.encode(out);
        self.subtrees_pruned.encode(out);
        self.chunks_pruned_remote.encode(out);
        self.worker_cache_hits.encode(out);
        self.cells_scanned.encode(out);
        self.elapsed.encode(out);
    }
}

impl Decode for ScanStats {
    fn decode(r: &mut Reader<'_>) -> Result<ScanStats> {
        Ok(ScanStats {
            chunks_total: usize::decode(r)?,
            chunks_skipped: usize::decode(r)?,
            chunks_cached: usize::decode(r)?,
            chunks_scanned: usize::decode(r)?,
            rows_total: r.u64()?,
            rows_skipped: r.u64()?,
            rows_cached: r.u64()?,
            rows_scanned: r.u64()?,
            subtrees_pruned: usize::decode(r)?,
            chunks_pruned_remote: usize::decode(r)?,
            worker_cache_hits: usize::decode(r)?,
            cells_scanned: r.u64()?,
            elapsed: std::time::Duration::decode(r)?,
        })
    }
}

impl Encode for PartitionSpec {
    fn encode(&self, out: &mut Vec<u8>) {
        self.fields.encode(out);
        self.max_chunk_rows.encode(out);
    }
}

impl Decode for PartitionSpec {
    fn decode(r: &mut Reader<'_>) -> Result<PartitionSpec> {
        Ok(PartitionSpec { fields: Vec::<String>::decode(r)?, max_chunk_rows: usize::decode(r)? })
    }
}

impl Encode for BuildOptions {
    fn encode(&self, out: &mut Vec<u8>) {
        self.partition.encode(out);
        out.push(match self.elements {
            pd_encoding::ElementsMode::Basic => 0,
            pd_encoding::ElementsMode::Optimized => 1,
        });
        out.push(match self.dicts {
            DictMode::Sorted => 0,
            DictMode::FrontCoded => 1,
        });
    }
}

impl Decode for BuildOptions {
    fn decode(r: &mut Reader<'_>) -> Result<BuildOptions> {
        let partition = Option::<PartitionSpec>::decode(r)?;
        let elements = match r.u8()? {
            0 => pd_encoding::ElementsMode::Basic,
            1 => pd_encoding::ElementsMode::Optimized,
            other => return Err(Error::Data(format!("wire: invalid elements-mode tag {other}"))),
        };
        let dicts = match r.u8()? {
            0 => DictMode::Sorted,
            1 => DictMode::FrontCoded,
            other => return Err(Error::Data(format!("wire: invalid dict-mode tag {other}"))),
        };
        Ok(BuildOptions { partition, elements, dicts })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_common::wire::{from_bytes, to_bytes};
    use pd_sql::Slot;

    /// Two keys, one slot of every kind (one float slot tainted, one integer
    /// sum past `i64`).
    fn sample_partial() -> PartialResult {
        let mut sums = FloatColumn::new(2);
        sums.add(0, 0.1);
        sums.add(1, f64::NAN);
        PartialResult::from_columns(
            2,
            vec![
                [Value::from("x"), Value::from("x")].iter().collect(),
                [Value::Int(3), Value::Int(4)].iter().collect(),
            ],
            slots("count, SUM(n), SUM(x), MIN(x), MAX(s), COUNT(DISTINCT u)"),
            vec![
                Column::Count(vec![2, 5]),
                Column::SumInt(vec![i128::from(i64::MIN) * 3, -1]),
                Column::SumFloat(sums),
                Column::Extreme { is_min: true, best: vec![Some(Value::Float(-0.0)), None] },
                Column::Extreme { is_min: false, best: vec![None, Some(Value::from("z"))] },
                Column::Distinct {
                    m: 16,
                    sketches: vec![KmvSketch::from_parts(16, [3, 1, 2]), KmvSketch::new(16)],
                },
            ],
        )
        .unwrap()
    }

    /// The slots `aggs` lower to, in canonical order.
    fn slots(aggs: &str) -> Vec<Slot> {
        pd_sql::plan(&format!("SELECT {} FROM t", aggs.replace("count", "COUNT(*)"))).unwrap().slots
    }

    #[test]
    fn partial_results_round_trip_byte_for_byte() {
        for partial in [sample_partial(), PartialResult::default()] {
            let bytes = to_bytes(&partial);
            let back: PartialResult = from_bytes(&bytes).unwrap();
            assert_eq!(back, partial);
            assert_eq!(to_bytes(&back), bytes);
        }
    }

    #[test]
    fn columns_that_break_the_table_are_rejected() {
        let keys = |cells: [i64; 2]| vec![cells.map(Value::Int).iter().collect()];
        let counts = || vec![Column::Count(vec![1, 2])];
        let table = |len, keys, names| PartialResult::from_columns(len, keys, names, counts());
        assert!(table(2, keys([1, 2]), slots("count")).is_ok());
        for (what, broken) in [
            ("ragged", table(3, keys([1, 2]), slots("count"))),
            ("unsorted", table(2, keys([2, 1]), slots("count"))),
            ("duplicate", table(2, keys([1, 1]), slots("count"))),
            ("no keys", table(2, Vec::new(), slots("count"))),
            ("another slot's class", table(2, keys([1, 2]), slots("SUM(n)"))),
            ("a slot too many", table(2, keys([1, 2]), slots("count, SUM(n)"))),
            ("no columns", PartialResult::from_columns(u64::MAX, vec![], vec![], vec![])),
        ] {
            assert!(matches!(broken, Err(Error::Data(_))), "{what}: {broken:?}");
        }
        // An exact sum sits on every tainted slot and on no other.
        let sum = || Some(Box::new(pd_common::FloatSum::from(1.0)));
        let nan = f64::NAN;
        assert!(FloatColumn::from_parts(vec![0.5, nan], vec![0.0; 2], vec![None, sum()]).is_ok());
        for (hi, lo, exact) in [
            (vec![0.5, nan], vec![0.0; 2], vec![sum(), None]),
            (vec![0.5, nan], vec![0.0; 2], vec![None, None]),
            (vec![nan, nan], vec![0.0; 2], vec![sum()]),
            (vec![nan, nan], vec![0.0; 3], vec![None, None]),
        ] {
            assert!(FloatColumn::from_parts(hi, lo, exact).is_err());
        }
    }

    #[test]
    fn build_options_round_trip() {
        for options in [
            BuildOptions::basic(),
            BuildOptions::production(&["country", "table_name"]),
            BuildOptions::optcols(PartitionSpec::new(&["k"], 128)),
        ] {
            let back: BuildOptions = from_bytes(&to_bytes(&options)).unwrap();
            assert_eq!(back, options);
        }
    }

    #[test]
    fn scan_stats_round_trip() {
        let stats = ScanStats {
            chunks_total: 10,
            chunks_skipped: 4,
            chunks_cached: 1,
            chunks_scanned: 5,
            rows_total: 1000,
            rows_skipped: 400,
            rows_cached: 100,
            rows_scanned: 500,
            subtrees_pruned: 2,
            chunks_pruned_remote: 3,
            worker_cache_hits: 1,
            cells_scanned: 1500,
            elapsed: std::time::Duration::from_micros(1234),
        };
        let back: ScanStats = from_bytes(&to_bytes(&stats)).unwrap();
        assert_eq!(back, stats);
    }
}
