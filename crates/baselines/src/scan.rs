//! The row oracle: the shared row-at-a-time scan of the baselines, and the
//! reference every equivalence suite checks the engine against.
//!
//! This is the "traditional" evaluation strategy the paper contrasts with:
//! every row flows through an expression interpreter and a generic hash
//! table keyed by the group values ("more generic implementations which use
//! hash-tables and can cope with multiple group-by fields", §2.5).
//!
//! Because it is the reference, it answers from the parsed query alone and
//! shares none of the engine's analysis, aggregation, slot lowering or
//! ranking: a fault there cannot be in both answers. It shares only
//! `parse_query`; the AST's syntax accessors (`SelectItem::output_name`,
//! `referenced_columns`, the canonical text); `eval_expr` and `truthy` for
//! scalars; pd-common's value primitives (`Value` order and equality,
//! `FloatSum`); and pd-core's `QueryResult`, which it returns. It owns,
//! straight from the AST:
//!
//! - **the query's shape** ([`Plan`]): a `GROUP BY` name that is a scalar
//!   alias means the aliased expression; it refuses a select expression
//!   that is not grouped, a repeated output name, a query with no aggregate
//!   and no key, and a `HAVING` or `ORDER BY` term that names no select
//!   item;
//! - **grouping** by key values, and per group and aggregate: `COUNT` of
//!   rows; `SUM` typed by its argument's values — integers add exactly in
//!   an `i128` and wrap to `i64`, floats add in one `FloatSum` rounded
//!   once, a string (or a mix) is an error — and a `SUM` or `AVG` of a
//!   string column is refused by the column's type before any row is read,
//!   as the engine refuses it when it plans; `MIN` / `MAX` by `Value` order;
//!   `COUNT(DISTINCT x)` as the size of an exact set; `AVG` as the exact
//!   sum rounded once, over the count;
//! - **the answer**: a keyless query over no rows is one row (`COUNT` 0,
//!   the rest `NULL`); `HAVING` reads select items by alias, by structure
//!   or by aggregate call; rows sort by the `ORDER BY` keys, then by the
//!   whole row cell by cell; `LIMIT` keeps a prefix.

use crate::io_model::IoModel;
use pd_common::{DataType, Error, FloatSum, FxHashMap, Result, Row, Schema, Value};
use pd_core::QueryResult;
use pd_data::Table;
use pd_sql::{
    eval_expr, parse_query, truthy, AggExpr, AggFunc, Expr, Query, RowContext, SelectExpr,
};
use std::cmp::Ordering::{Greater, Less};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

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
    pub schema: &'a Schema,
    pub row: &'a Row,
}

impl RowContext for SchemaRow<'_> {
    fn column(&self, name: &str) -> Result<Value> {
        let idx = self.schema.resolve(name)?;
        Ok(self.row.0[idx].clone())
    }
}

/// Where an output column comes from: a group key or an aggregate.
#[derive(Debug, Clone, Copy)]
enum Source {
    Key(usize),
    Agg(usize),
}

/// A query as the oracle runs it, every refusal made before a row is read.
#[derive(Debug, Clone)]
pub struct Plan {
    filter: Option<Expr>,
    keys: Vec<Expr>,
    aggs: Vec<AggExpr>,
    /// Output columns in select-list order: name and source.
    columns: Vec<(String, Source)>,
    /// `HAVING`, every select item it names replaced by its output name.
    having: Option<Expr>,
    /// `(output column, descending)`.
    order_by: Vec<(usize, bool)>,
    limit: Option<usize>,
}

/// Parse `sql` and plan it.
pub fn prepare(sql: &str) -> Result<Plan> {
    Plan::new(&parse_query(sql)?)
}

impl Plan {
    fn new(query: &Query) -> Result<Plan> {
        let alias = |name: &str| {
            query.select.iter().find_map(|item| match (&item.alias, &item.expr) {
                (Some(alias), SelectExpr::Scalar(e)) if alias == name => Some(e),
                _ => None,
            })
        };
        let mut keys: Vec<Expr> = Vec::new();
        for key in &query.group_by {
            let key = key.as_column().and_then(alias).unwrap_or(key);
            if !keys.contains(key) {
                keys.push(key.clone());
            }
        }

        let mut aggs = Vec::new();
        let mut columns: Vec<(String, Source)> = Vec::new();
        for item in &query.select {
            let name = item.output_name();
            if columns.iter().any(|(held, _)| *held == name) {
                return Err(Error::Schema(format!("output column `{name}` is named twice")));
            }
            let source = match &item.expr {
                SelectExpr::Aggregate(agg) => {
                    aggs.push(agg.clone());
                    Source::Agg(aggs.len() - 1)
                }
                SelectExpr::Scalar(e) => match keys.iter().position(|key| key == e) {
                    Some(key) => Source::Key(key),
                    None => return Err(Error::Schema(format!("`{e}` is not in GROUP BY"))),
                },
            };
            columns.push((name, source));
        }
        if aggs.is_empty() && keys.is_empty() {
            return Err(Error::Unsupported("a query that neither aggregates nor groups".into()));
        }

        let order_by = (query.order_by.iter())
            .map(|key| Ok((select_item(&key.expr, query, &columns)?, key.desc)))
            .collect::<Result<_>>()?;
        let having = (query.having.as_ref())
            .map(|having| over_outputs(having, query, &columns))
            .transpose()?;
        Ok(Plan {
            filter: query.where_clause.clone(),
            keys,
            aggs,
            columns,
            having,
            order_by,
            limit: query.limit,
        })
    }

    /// The base columns a scan reads: those the keys, the aggregates'
    /// arguments and the filter name.
    pub(crate) fn base_columns(&self) -> Vec<String> {
        let mut names = Vec::new();
        let args = self.aggs.iter().filter_map(|agg| agg.arg.as_ref());
        for expr in self.keys.iter().chain(args).chain(&self.filter) {
            expr.referenced_columns(&mut names);
        }
        names
    }
}

/// The select item `expr` names: an output name, a select expression, or
/// an aggregate call such as `count(*)`.
fn select_item(expr: &Expr, query: &Query, columns: &[(String, Source)]) -> Result<usize> {
    let named = expr.as_column().and_then(|name| columns.iter().position(|(n, _)| n == name));
    let matches = |item: &SelectExpr| match item {
        SelectExpr::Scalar(e) => e == expr,
        SelectExpr::Aggregate(agg) => is_call_of(expr, agg),
    };
    named.or_else(|| query.select.iter().position(|item| matches(&item.expr))).ok_or_else(|| {
        Error::Schema(format!("ORDER BY / HAVING term `{expr}` names no select item"))
    })
}

/// Is `expr` the call `agg` is written as (`count(*)`, `sum(x)`)?
fn is_call_of(expr: &Expr, agg: &AggExpr) -> bool {
    let Expr::Call { name, args } = expr else { return false };
    let same_arg = match (&agg.arg, args.as_slice()) {
        (None, [Expr::Column(star)]) => star == "*",
        (Some(arg), [e]) => arg == e,
        _ => false,
    };
    name.eq_ignore_ascii_case(agg.func.name()) && !agg.distinct && same_arg
}

/// `having` over output rows: each select item it names becomes a column
/// of the output name; a column or an aggregate call that is no select
/// item is an error.
fn over_outputs(having: &Expr, query: &Query, columns: &[(String, Source)]) -> Result<Expr> {
    if let Ok(idx) = select_item(having, query, columns) {
        return Ok(Expr::Column(columns[idx].0.clone()));
    }
    let over = |e: &Expr| over_outputs(e, query, columns).map(Box::new);
    let aggregate = |name: &str| {
        let funcs = [AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max, AggFunc::Avg];
        funcs.iter().any(|func| name.eq_ignore_ascii_case(func.name()))
    };
    Ok(match having {
        Expr::Literal(_) => having.clone(),
        Expr::Column(_) => {
            return Err(Error::Schema(format!("HAVING names `{having}`, no output column")))
        }
        Expr::Call { name, .. } if aggregate(name) => {
            return Err(Error::Schema(format!("HAVING's `{having}` is no select item")))
        }
        Expr::Call { name, args } => Expr::Call {
            name: name.clone(),
            args: args.iter().map(|a| over_outputs(a, query, columns)).collect::<Result<_>>()?,
        },
        Expr::Unary { op, expr } => Expr::Unary { op: *op, expr: over(expr)? },
        Expr::Binary { op, lhs, rhs } => Expr::Binary { op: *op, lhs: over(lhs)?, rhs: over(rhs)? },
        Expr::InList { expr, list, negated } => Expr::InList {
            expr: over(expr)?,
            list: list.iter().map(|e| over_outputs(e, query, columns)).collect::<Result<_>>()?,
            negated: *negated,
        },
    })
}

/// A running sum, typed by the first value it took.
#[derive(Debug, Clone)]
enum Sum {
    Int(i128),
    Float(Box<FloatSum>),
}

/// One aggregate's state for one group.
#[derive(Debug, Clone)]
enum Acc {
    Count(u64),
    /// `SUM` and `AVG`: how many values, and their sum once there is one.
    Sum(u64, Option<Sum>),
    /// `MIN` (`true`) or `MAX`: the extreme value so far.
    Extreme(bool, Option<Value>),
    Distinct(BTreeSet<Value>),
}

impl Acc {
    fn new(agg: &AggExpr) -> Acc {
        match (agg.func, agg.distinct) {
            (_, true) => Acc::Distinct(BTreeSet::new()),
            (AggFunc::Count, false) => Acc::Count(0),
            (AggFunc::Sum | AggFunc::Avg, false) => Acc::Sum(0, None),
            (AggFunc::Min, false) => Acc::Extreme(true, None),
            (AggFunc::Max, false) => Acc::Extreme(false, None),
        }
    }

    fn add(&mut self, arg: Option<Value>) -> Result<()> {
        let value = || arg.ok_or_else(|| Error::Unsupported("an aggregate of `*`".into()));
        match self {
            Acc::Count(n) => *n += 1,
            Acc::Sum(n, sum) => {
                *n += 1;
                match (sum, value()?) {
                    (sum @ None, Value::Int(x)) => *sum = Some(Sum::Int(x.into())),
                    (sum @ None, Value::Float(x)) => {
                        *sum = Some(Sum::Float(Box::new(FloatSum::from(x))))
                    }
                    (Some(Sum::Int(s)), Value::Int(x)) => *s += i128::from(x),
                    (Some(Sum::Float(s)), Value::Float(x)) => s.add(x),
                    (_, Value::Str(_)) => return Err(Error::Type("SUM over strings".into())),
                    (_, v) => return Err(Error::Type(format!("SUM of {v} beside other types"))),
                }
            }
            Acc::Extreme(min, best) => {
                let (v, better) = (value()?, if *min { Less } else { Greater });
                if best.as_ref().is_none_or(|held| v.cmp(held) == better) {
                    *best = Some(v);
                }
            }
            Acc::Distinct(set) => {
                set.insert(value()?);
            }
        }
        Ok(())
    }

    /// The aggregate's cell: over no rows, 0 for a count and `NULL` for
    /// the rest.
    fn finish(self, func: AggFunc) -> Value {
        match (self, func) {
            (Acc::Count(n), _) => Value::Int(n as i64),
            (Acc::Distinct(set), _) => Value::Int(set.len() as i64),
            (Acc::Sum(_, None), _) => Value::Null,
            (Acc::Sum(_, Some(Sum::Int(s))), AggFunc::Sum) => Value::Int(s as i64),
            (Acc::Sum(_, Some(Sum::Float(s))), AggFunc::Sum) => Value::Float(s.value()),
            (Acc::Sum(n, Some(Sum::Int(s))), _) => Value::Float(s as f64 / n as f64),
            (Acc::Sum(n, Some(Sum::Float(s))), _) => Value::Float(s.value() / n as f64),
            (Acc::Extreme(_, best), _) => best.unwrap_or(Value::Null),
        }
    }
}

/// Run `plan` by scanning `rows`; `bytes_streamed` feeds the I/O model.
pub fn scan_execute(
    schema: &Schema,
    rows: impl Iterator<Item = Result<Row>>,
    plan: &Plan,
    bytes_streamed: u64,
    io: &IoModel,
) -> Result<BackendRun> {
    let started = Instant::now();
    let result = answer(plan, schema, rows)?;
    let cpu_time = started.elapsed();
    Ok(BackendRun {
        result,
        bytes_streamed,
        cpu_time,
        total_time: cpu_time + io.stream_time(bytes_streamed),
    })
}

/// The oracle's answer to `sql` over `table`.
pub fn query(table: &Table, sql: &str) -> Result<QueryResult> {
    answer(&prepare(sql)?, table.schema(), table.iter_rows().map(Ok))
}

fn answer(
    plan: &Plan,
    schema: &Schema,
    rows: impl Iterator<Item = Result<Row>>,
) -> Result<QueryResult> {
    for agg in plan.aggs.iter().filter(|agg| matches!(agg.func, AggFunc::Sum | AggFunc::Avg)) {
        let column = agg.arg.as_ref().and_then(Expr::as_column).and_then(|c| schema.index_of(c));
        if column.is_some_and(|c| schema.field(c).data_type == DataType::Str) {
            return Err(Error::Type(format!("{} over a string column", agg.func.name())));
        }
    }
    let fresh = || plan.aggs.iter().map(Acc::new).collect::<Vec<_>>();
    let mut groups: FxHashMap<Vec<Value>, Vec<Acc>> = FxHashMap::default();
    for row in rows {
        let row = row?;
        let ctx = SchemaRow { schema, row: &row };
        if let Some(filter) = &plan.filter {
            if !truthy(&eval_expr(filter, &ctx)?) {
                continue;
            }
        }
        let key: Vec<Value> =
            plan.keys.iter().map(|k| eval_expr(k, &ctx)).collect::<Result<_>>()?;
        let accs = groups.entry(key).or_insert_with(fresh);
        for (agg, acc) in plan.aggs.iter().zip(accs) {
            acc.add(agg.arg.as_ref().map(|arg| eval_expr(arg, &ctx)).transpose()?)?;
        }
    }
    if groups.is_empty() && plan.keys.is_empty() {
        groups.insert(Vec::new(), fresh());
    }

    let names: Vec<&str> = plan.columns.iter().map(|(name, _)| name.as_str()).collect();
    let mut rows = Vec::with_capacity(groups.len());
    for (key, accs) in groups {
        let cells: Vec<Value> =
            (accs.into_iter().zip(&plan.aggs)).map(|(acc, agg)| acc.finish(agg.func)).collect();
        let row: Vec<Value> = (plan.columns.iter())
            .map(|(_, source)| match *source {
                Source::Key(i) => key[i].clone(),
                Source::Agg(i) => cells[i].clone(),
            })
            .collect();
        if let Some(having) = &plan.having {
            let named: Vec<(&str, Value)> =
                names.iter().copied().zip(row.iter().cloned()).collect();
            if !truthy(&eval_expr(having, &named[..])?) {
                continue;
            }
        }
        rows.push(Row(row));
    }
    rows.sort_by(|a, b| {
        let by = |&(idx, desc): &(usize, bool)| {
            let (x, y) = if desc { (b, a) } else { (a, b) };
            x.0[idx].cmp(&y.0[idx])
        };
        plan.order_by.iter().map(by).find(|ord| ord.is_ne()).unwrap_or_else(|| a.cmp(b))
    });
    rows.truncate(plan.limit.unwrap_or(usize::MAX));
    let columns = names.into_iter().map(str::to_owned).collect();
    Ok(QueryResult { columns, rows })
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
        let plan = prepare(sql).unwrap();
        scan_execute(t.schema(), t.iter_rows().map(Ok), &plan, 1024, &IoModel::default()).unwrap()
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
    /// once.
    #[test]
    fn integer_sums_wrap_and_averages_are_exact() {
        let mut t = sample();
        for (k, v) in [("a", i64::MAX), ("a", i64::MAX), ("b", i64::MIN), ("b", i64::MIN)] {
            t.push_row(Row(vec![Value::from(k), Value::Int(v)])).unwrap();
        }
        let sql = "SELECT k, SUM(v) s, AVG(v) a, COUNT(v) n FROM t GROUP BY k ORDER BY k ASC";
        let oracle = query(&t, sql).unwrap();
        // Group "a": 0 + 3 + … + 99 and two i64::MAX.
        let exact = (0..100).step_by(3).sum::<i128>() + 2 * i128::from(i64::MAX);
        let a = &oracle.rows[0].0;
        assert_eq!(a[1], Value::Int(exact as i64), "SUM wraps");
        assert_eq!(a[2], Value::Float(exact as f64 / 36.0), "AVG divides the exact sum");
    }

    /// A sum is typed by the values it adds: an integer expression sums to
    /// an integer, a float one to a float, a string column is an error.
    #[test]
    fn sums_are_typed_by_their_values() {
        let run = run("SELECT SUM(v * 2) s, SUM(v + 0.5) f, AVG(v + 1) a FROM t");
        let row = &run.result.rows[0].0;
        assert_eq!(row[0], Value::Int(9_900));
        assert_eq!(row[1], Value::Float(4_950.0 + 50.0));
        assert_eq!(row[2], Value::Float(50.5));
        assert!(query(&sample(), "SELECT SUM(k) s FROM t").is_err());
        assert!(query(&sample(), "SELECT k, AVG(k) a FROM t GROUP BY k").is_err());
    }

    /// A keyless query over no rows is one row, which HAVING and LIMIT
    /// still apply to; a keyed one is no row.
    #[test]
    fn no_rows_answer_one_keyless_row() {
        let none = "SELECT COUNT(*) c, COUNT(DISTINCT k) d, SUM(v) s, AVG(v) a, MIN(k) m FROM t \
                    WHERE v > 100";
        let row = &run(none).result.rows[0].0;
        assert_eq!(row[..], [Value::Int(0), Value::Int(0), Value::Null, Value::Null, Value::Null]);
        assert!(run(&format!("{none} HAVING c > 0")).result.rows.is_empty());
        assert!(run(&format!("{none} LIMIT 0")).result.rows.is_empty());
        let keyed = "SELECT k, COUNT(*) c FROM t WHERE v > 100 GROUP BY k";
        assert!(run(keyed).result.rows.is_empty());
    }

    /// Ties on the ORDER BY keys are broken by the whole row, ascending.
    #[test]
    fn ties_break_by_the_whole_row() {
        // 33 rows in each group.
        let sql = "SELECT k, COUNT(*) c FROM t WHERE v < 99 GROUP BY k ORDER BY c DESC LIMIT 2";
        let keys: Vec<Value> = run(sql).result.rows.iter().map(|row| row.0[0].clone()).collect();
        assert_eq!(keys, [Value::from("a"), Value::from("b")]);
    }

    /// HAVING reads select items by alias, by structure and by aggregate
    /// call, and refuses anything else, as ORDER BY does.
    #[test]
    fn having_and_order_by_name_select_items() {
        let run = run("SELECT k, COUNT(*) c FROM t GROUP BY k HAVING COUNT(*) > 33 AND k != 'x'");
        assert_eq!(run.result.rows, [Row(vec![Value::from("a"), Value::Int(34)])]);
        for sql in [
            "SELECT k, COUNT(*) c FROM t GROUP BY k HAVING v > 1",
            "SELECT k, COUNT(*) c FROM t GROUP BY k HAVING SUM(v) > 1",
            "SELECT k, COUNT(*) c FROM t GROUP BY k ORDER BY v",
            "SELECT k, v, COUNT(*) c FROM t GROUP BY k",
            "SELECT k, COUNT(*) k FROM t GROUP BY k",
            "SELECT k FROM t",
        ] {
            assert!(prepare(sql).is_err(), "{sql}");
        }
        // `GROUP BY` an alias groups by the aliased expression.
        let run = self::run("SELECT v / 50 h, COUNT(*) c FROM t GROUP BY h ORDER BY c DESC");
        assert_eq!(run.result.rows.len(), 100);
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
    fn union_queries_fail_to_parse() {
        let sql = "SELECT a, SUM(x) FROM ((SELECT a, SUM(x) x FROM s1 GROUP BY a) UNION ALL (SELECT a, SUM(x) x FROM s2 GROUP BY a)) GROUP BY a";
        assert!(matches!(parse_query(sql), Err(Error::Unsupported(_))));
        assert!(prepare(sql).is_err());
    }
}
