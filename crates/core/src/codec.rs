//! Wire codecs for the execution layer: the types that cross the §4
//! process boundary.
//!
//! A leaf worker returns `(PartialResult, ScanStats)`; a merge server
//! returns the same after folding its subtree. Both therefore need
//! [`Encode`] / [`Decode`] — and the encodings must preserve every state
//! *bit-identically*, because the distributed equivalence suite asserts
//! exact equality (floats included) between the process-split tree and the
//! single-store engine:
//!
//! - group keys are [`Value`]s, whose floats travel as raw IEEE bits;
//! - float sums are [`pd_common::FloatSum`] superaccumulators, whose fixed
//!   34-limb arrays travel verbatim (see `pd_common::fsum`);
//! - count-distinct sketches travel as their retained hash sets, so a
//!   merge above the wire equals a merge below it.
//!
//! [`BuildOptions`] is codable too: the driver ships each worker its shard
//! rows *and* the import recipe, so a worker builds exactly the store the
//! in-process cluster would have built.

use crate::count_distinct::KmvSketch;
use crate::exec::{AggState, PartialResult};
use crate::options::{BuildOptions, DictMode, PartitionSpec};
use crate::stats::ScanStats;
use pd_common::wire::{Decode, Encode, Reader};
use pd_common::{Error, FloatSum, Result, Value};

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
        let mut sketch = KmvSketch::new(m);
        for _ in 0..len {
            sketch.offer(r.u64()?);
        }
        Ok(sketch)
    }
}

const AGG_COUNT: u8 = 0;
const AGG_SUM_INT: u8 = 1;
const AGG_SUM_FLOAT: u8 = 2;
const AGG_MIN: u8 = 3;
const AGG_MAX: u8 = 4;
const AGG_AVG: u8 = 5;
const AGG_DISTINCT: u8 = 6;

impl Encode for AggState {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            AggState::Count(n) => {
                out.push(AGG_COUNT);
                n.encode(out);
            }
            AggState::SumInt(s) => {
                out.push(AGG_SUM_INT);
                s.encode(out);
            }
            AggState::SumFloat(s) => {
                out.push(AGG_SUM_FLOAT);
                s.encode(out);
            }
            AggState::Min(v) => {
                out.push(AGG_MIN);
                v.encode(out);
            }
            AggState::Max(v) => {
                out.push(AGG_MAX);
                v.encode(out);
            }
            AggState::Avg { sum, count } => {
                out.push(AGG_AVG);
                sum.encode(out);
                count.encode(out);
            }
            AggState::Distinct(sketch) => {
                out.push(AGG_DISTINCT);
                sketch.encode(out);
            }
        }
    }
}

impl Decode for AggState {
    fn decode(r: &mut Reader<'_>) -> Result<AggState> {
        Ok(match r.u8()? {
            AGG_COUNT => AggState::Count(r.u64()?),
            AGG_SUM_INT => AggState::SumInt(i64::decode(r)?),
            AGG_SUM_FLOAT => AggState::SumFloat(Box::new(FloatSum::decode(r)?)),
            AGG_MIN => AggState::Min(Option::<Value>::decode(r)?),
            AGG_MAX => AggState::Max(Option::<Value>::decode(r)?),
            AGG_AVG => {
                let sum = Box::new(FloatSum::decode(r)?);
                let count = r.u64()?;
                AggState::Avg { sum, count }
            }
            AGG_DISTINCT => AggState::Distinct(KmvSketch::decode(r)?),
            other => return Err(Error::Data(format!("wire: invalid agg-state tag {other}"))),
        })
    }
}

/// Group map as `(key, states)` pairs. Map iteration order is arbitrary, so
/// two equal partials may encode to different byte strings — but decoding
/// always reproduces the *same map*, which is what equality (and the merge
/// above the wire) is defined on.
impl Encode for PartialResult {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.groups.len() as u64).encode(out);
        for (key, states) in &self.groups {
            key.encode(out);
            states.encode(out);
        }
    }
}

impl Decode for PartialResult {
    fn decode(r: &mut Reader<'_>) -> Result<PartialResult> {
        let len = r.u64()?;
        let len = r.check_len(len, 2)?;
        let mut result = PartialResult::default();
        // Reserve at most what the remaining bytes could hold (a real
        // group is ≥ 17 bytes: one empty key + one Count state): corrupt
        // lengths must not drive table allocation.
        result.groups.reserve(len.min(r.remaining() / 17));
        for _ in 0..len {
            let key = Box::<[Value]>::decode(r)?;
            let states = Vec::<AggState>::decode(r)?;
            if result.groups.insert(key, states).is_some() {
                return Err(Error::Data("wire: duplicate group key in partial result".into()));
            }
        }
        Ok(result)
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
            DictMode::Trie => 1,
        });
        self.reorder.encode(out);
        out.push(match self.codec {
            pd_compress::CodecKind::None => 0,
            pd_compress::CodecKind::Rle => 1,
            pd_compress::CodecKind::Zippy => 2,
            pd_compress::CodecKind::Lzf => 3,
            pd_compress::CodecKind::Deflate => 4,
            pd_compress::CodecKind::Huffman => 5,
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
            1 => DictMode::Trie,
            other => return Err(Error::Data(format!("wire: invalid dict-mode tag {other}"))),
        };
        let reorder = bool::decode(r)?;
        let codec = match r.u8()? {
            0 => pd_compress::CodecKind::None,
            1 => pd_compress::CodecKind::Rle,
            2 => pd_compress::CodecKind::Zippy,
            3 => pd_compress::CodecKind::Lzf,
            4 => pd_compress::CodecKind::Deflate,
            5 => pd_compress::CodecKind::Huffman,
            other => return Err(Error::Data(format!("wire: invalid codec tag {other}"))),
        };
        Ok(BuildOptions { partition, elements, dicts, reorder, codec })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_common::wire::{from_bytes, to_bytes};

    #[test]
    fn agg_states_round_trip() {
        let states = vec![
            AggState::Count(7),
            AggState::SumInt(i64::MIN),
            AggState::SumFloat(Box::new(FloatSum::from(0.1))),
            AggState::Min(Some(Value::Float(-0.0))),
            AggState::Max(None),
            AggState::Avg { sum: Box::new(FloatSum::from(2.5)), count: 3 },
            AggState::Distinct(KmvSketch::from_parts(16, [3, 1, 2])),
        ];
        let back: Vec<AggState> = from_bytes(&to_bytes(&states)).unwrap();
        assert_eq!(back, states);
    }

    #[test]
    fn partial_results_round_trip() {
        let mut partial = PartialResult::default();
        partial
            .groups
            .insert(Box::from([Value::from("x"), Value::Int(3)]), vec![AggState::Count(2)]);
        partial.groups.insert(Box::from([]), vec![AggState::SumInt(-1)]);
        let back: PartialResult = from_bytes(&to_bytes(&partial)).unwrap();
        assert_eq!(back, partial);
        // Empty partial (no groups at all).
        let empty = PartialResult::default();
        let back: PartialResult = from_bytes(&to_bytes(&empty)).unwrap();
        assert_eq!(back, empty);
    }

    #[test]
    fn duplicate_group_keys_are_rejected() {
        let mut partial = PartialResult::default();
        partial.groups.insert(Box::from([Value::Int(1)]), vec![AggState::Count(1)]);
        let bytes = to_bytes(&partial);
        // Forge a 2-group frame containing the same group twice.
        let mut forged = Vec::new();
        2u64.encode(&mut forged);
        forged.extend_from_slice(&bytes[8..]);
        forged.extend_from_slice(&bytes[8..]);
        assert!(from_bytes::<PartialResult>(&forged).is_err());
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
