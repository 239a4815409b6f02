//! The shared row-at-a-time scan executor.
//!
//! This is the "traditional" evaluation strategy the paper contrasts with:
//! every row flows through an expression interpreter and a generic hash
//! table keyed by the group values ("more generic implementations which use
//! hash-tables and can cope with multiple group-by fields", §2.5). The
//! aggregation states are laid out as the query lowers its aggregates to
//! slots ([`AnalyzedQuery::slots`]) and finalized by pd-core, so a baseline
//! and the column-store return identical rows for identical queries.

use crate::io_model::IoModel;
use pd_common::{Error, FloatSum, FxHashMap, Result, Row, Value};
use pd_core::{finalize, AggState, KmvSketch, PartialResult, QueryResult};
use pd_sql::{analyze, eval_expr, parse_query, truthy, AnalyzedQuery, RowContext, Slot, SlotClass};
use std::time::{Duration, Instant};

/// Effectively-exact sketch size for the baselines' COUNT DISTINCT: they
/// pay for a full hash set, as real systems do.
const EXACT_DISTINCT_M: usize = 1 << 20;

/// Outcome of one backend execution.
#[derive(Debug, Clone)]
pub struct BackendRun {
    pub result: QueryResult,
    /// Bytes the backend streamed/decoded to answer the query.
    pub bytes_streamed: u64,
    /// Measured CPU time.
    pub cpu_time: Duration,
    /// `cpu_time` + modeled cold-cache disk time for `bytes_streamed`.
    pub total_time: Duration,
}

/// Row source context: resolves columns by schema index.
pub struct SchemaRow<'a> {
    pub schema: &'a pd_common::Schema,
    pub row: &'a Row,
}

impl RowContext for SchemaRow<'_> {
    fn column(&self, name: &str) -> Result<Value> {
        let idx = self.schema.resolve(name)?;
        Ok(self.row.0[idx].clone())
    }
}

/// Execute `analyzed` by scanning `rows`; `bytes_streamed` feeds the I/O
/// model.
pub fn scan_execute(
    schema: &pd_common::Schema,
    rows: impl Iterator<Item = Result<Row>>,
    analyzed: &AnalyzedQuery,
    bytes_streamed: u64,
    io: &IoModel,
) -> Result<BackendRun> {
    let started = Instant::now();
    let mut groups: FxHashMap<Vec<Value>, Vec<AggState>> = FxHashMap::default();

    for row in rows {
        let row = row?;
        let ctx = SchemaRow { schema, row: &row };
        if let Some(filter) = &analyzed.filter {
            if !truthy(&eval_expr(filter, &ctx)?) {
                continue;
            }
        }
        let key: Vec<Value> =
            analyzed.keys.iter().map(|k| eval_expr(k, &ctx)).collect::<Result<_>>()?;
        let states = match groups.get_mut(&key) {
            Some(s) => s,
            None => {
                let fresh: Vec<AggState> =
                    analyzed.slots.iter().map(|slot| empty_state(slot, schema)).collect();
                groups.entry(key).or_insert(fresh)
            }
        };
        for (slot, state) in analyzed.slots.iter().zip(states.iter_mut()) {
            let arg = match &slot.arg {
                Some(a) => Some(eval_expr(a, &ctx)?),
                None => None,
            };
            update_state(state, arg.as_ref())?;
        }
    }

    let result = finalize(analyzed, PartialResult::from_states(groups)?)?;
    let cpu_time = started.elapsed();
    Ok(BackendRun {
        result,
        bytes_streamed,
        cpu_time,
        total_time: cpu_time + io.stream_time(bytes_streamed),
    })
}

/// Build the empty state of one slot, typing a sum by the argument's
/// schema type when it is a bare column (expressions default to float).
fn empty_state(slot: &Slot, schema: &pd_common::Schema) -> AggState {
    match slot.class {
        SlotClass::Count => AggState::Count(0),
        SlotClass::Sum => {
            let is_int = (slot.arg.as_ref())
                .and_then(|a| a.as_column())
                .and_then(|name| schema.index_of(name))
                .is_some_and(|i| schema.field(i).data_type == pd_common::DataType::Int);
            if is_int {
                AggState::SumInt(0)
            } else {
                AggState::SumFloat(Box::new(FloatSum::new()))
            }
        }
        SlotClass::Min => AggState::Min(None),
        SlotClass::Max => AggState::Max(None),
        SlotClass::Distinct => AggState::Distinct(KmvSketch::new(EXACT_DISTINCT_M)),
    }
}

fn update_state(state: &mut AggState, arg: Option<&Value>) -> Result<()> {
    match state {
        AggState::Count(n) => *n += 1,
        AggState::SumInt(s) => {
            let v = arg
                .and_then(Value::as_int)
                .ok_or_else(|| Error::Type("SUM expected an integer".into()))?;
            *s += i128::from(v);
        }
        AggState::SumFloat(s) => {
            s.add(arg.map(Value::numeric).unwrap_or(0.0));
        }
        AggState::Min(m) => {
            let v = arg.ok_or_else(|| Error::Internal("MIN without argument".into()))?;
            if m.as_ref().is_none_or(|cur| v < cur) {
                *m = Some(v.clone());
            }
        }
        AggState::Max(m) => {
            let v = arg.ok_or_else(|| Error::Internal("MAX without argument".into()))?;
            if m.as_ref().is_none_or(|cur| v > cur) {
                *m = Some(v.clone());
            }
        }
        AggState::Distinct(sketch) => {
            let v = arg.ok_or_else(|| Error::Internal("DISTINCT without argument".into()))?;
            sketch.offer(pd_common::fx_hash64(v));
        }
    }
    Ok(())
}

/// Parse + analyze, rejecting queries no backend can serve.
pub fn prepare(sql: &str) -> Result<AnalyzedQuery> {
    let analyzed = analyze(&parse_query(sql)?)?;
    if analyzed.table.is_none() {
        return Err(Error::Unsupported("baselines execute single-table queries".into()));
    }
    Ok(analyzed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_common::{DataType, Schema};
    use pd_data::Table;

    fn sample() -> Table {
        let schema = Schema::of(&[("k", DataType::Str), ("v", DataType::Int)]);
        let mut t = Table::new(schema);
        for i in 0..100i64 {
            t.push_row(Row(vec![Value::from(["a", "b", "c"][(i % 3) as usize]), Value::Int(i)]))
                .unwrap();
        }
        t
    }

    fn run(sql: &str) -> BackendRun {
        let t = sample();
        let analyzed = prepare(sql).unwrap();
        scan_execute(t.schema(), t.iter_rows().map(Ok), &analyzed, 1024, &IoModel::default())
            .unwrap()
    }

    #[test]
    fn group_by_counts() {
        let run = run("SELECT k, COUNT(*) c FROM t GROUP BY k ORDER BY k ASC");
        let rows = &run.result.rows;
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].0, vec![Value::from("a"), Value::Int(34)]);
        assert_eq!(rows[1].0, vec![Value::from("b"), Value::Int(33)]);
        assert_eq!(rows[2].0, vec![Value::from("c"), Value::Int(33)]);
    }

    #[test]
    fn aggregates_and_filter() {
        let run = run("SELECT k, SUM(v), MIN(v), MAX(v), AVG(v) FROM t WHERE v >= 10 GROUP BY k ORDER BY k ASC");
        let rows = &run.result.rows;
        assert_eq!(rows.len(), 3);
        // Group "a": v in {12, 15, ..., 99} (multiples of 3 ≥ 12).
        let a = &rows[0].0;
        assert_eq!(a[2], Value::Int(12));
        assert_eq!(a[3], Value::Int(99));
    }

    /// At the `i64` extremes `SUM` wraps and `AVG` is the exact sum rounded
    /// once: the oracle's slots give the store's answer, bit for bit.
    #[test]
    fn integer_sums_wrap_and_averages_are_exact_like_the_store() {
        let mut t = sample();
        for (k, v) in [("a", i64::MAX), ("a", i64::MAX), ("b", i64::MIN), ("b", i64::MIN)] {
            t.push_row(Row(vec![Value::from(k), Value::Int(v)])).unwrap();
        }
        let sql = "SELECT k, SUM(v) s, AVG(v) a, COUNT(v) n FROM t GROUP BY k ORDER BY k ASC";
        let analyzed = prepare(sql).unwrap();
        let io = IoModel::default();
        let oracle = scan_execute(t.schema(), t.iter_rows().map(Ok), &analyzed, 0, &io).unwrap();
        let store = pd_core::DataStore::build(&t, &pd_core::BuildOptions::basic()).unwrap();
        let engine = pd_core::execute(&store, &analyzed, &Default::default()).unwrap().0;
        assert_eq!(oracle.result, engine);
        // Group "a": 0 + 3 + … + 99 and two i64::MAX.
        let exact = (0..100).step_by(3).sum::<i128>() + 2 * i128::from(i64::MAX);
        let a = &oracle.result.rows[0].0;
        assert_eq!(a[1], Value::Int(exact as i64), "SUM wraps");
        assert_eq!(a[2], Value::Float(exact as f64 / 36.0), "AVG divides the exact sum");
    }

    #[test]
    fn count_distinct_exact() {
        let run = run("SELECT COUNT(DISTINCT k) FROM t");
        assert_eq!(run.result.rows[0].0[0], Value::Int(3));
    }

    #[test]
    fn io_model_adds_time() {
        let run = run("SELECT COUNT(*) FROM t");
        assert!(run.total_time >= run.cpu_time);
        assert_eq!(run.bytes_streamed, 1024);
    }

    #[test]
    fn union_queries_rejected() {
        assert!(prepare(
            "SELECT a, SUM(x) FROM ((SELECT a, SUM(x) x FROM s1 GROUP BY a) UNION ALL (SELECT a, SUM(x) x FROM s2 GROUP BY a)) GROUP BY a"
        )
        .is_err());
    }
}
