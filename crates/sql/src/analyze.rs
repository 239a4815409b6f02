//! Semantic analysis: from a parsed [`Query`] to an executable shape.
//!
//! The engine executes *group-by queries*: zero or more group keys (scalar
//! expressions, possibly materialized virtual fields) plus one or more
//! aggregates. Analysis resolves aliases (the paper's Query 2 groups by the
//! alias `date`), checks that non-aggregate select items appear in
//! `GROUP BY`, maps `ORDER BY` onto output columns, extracts the
//! [`Restriction`] tree that drives chunk skipping, and lowers the
//! aggregates to the [`Slot`]s a group table holds for them.

use crate::ast::*;
use crate::restriction::Restriction;
use pd_common::{Error, Result};
use std::fmt::{self, Write};

/// Where an output column comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputCol {
    /// `keys[i]`.
    Key(usize),
    /// `aggs[i]`.
    Agg(usize),
}

/// What a group-table slot accumulates. Slots order by class first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SlotClass {
    Count,
    Sum,
    Min,
    Max,
    Distinct,
}

/// One state column of a group table, free of types: its class and, but
/// for `count`, the expression it reads. Whichever aggregates read a slot,
/// it holds the same states.
#[derive(Debug, Clone, PartialEq)]
pub struct Slot {
    pub class: SlotClass,
    pub arg: Option<Expr>,
}

/// `count`, `sum(x)`, `min(x)`, `max(x)` or `distinct(x)`.
impl fmt::Display for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self.class {
            SlotClass::Count => "count",
            SlotClass::Sum => "sum",
            SlotClass::Min => "min",
            SlotClass::Max => "max",
            SlotClass::Distinct => "distinct",
        };
        match &self.arg {
            Some(arg) => write!(f, "{name}({arg})"),
            None => f.write_str(name),
        }
    }
}

/// The slots one aggregate reads: its state, and for `AVG` the count the
/// sum is divided by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotRef {
    pub slot: usize,
    pub count: Option<usize>,
}

/// An analyzed, executable query.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzedQuery {
    /// Source table.
    pub table: String,
    /// Group-by key expressions (aliases resolved).
    pub keys: Vec<Expr>,
    /// Aggregates, in select-list order.
    pub aggs: Vec<AggExpr>,
    /// The slots the aggregates lower to, each once, in canonical order:
    /// what a group table for this query holds, and what names it in a
    /// cache. Derived from `aggs` wherever a query is made (`analyze`, the
    /// wire decoder).
    pub slots: Vec<Slot>,
    /// Per aggregate, the slots it reads.
    pub reads: Vec<SlotRef>,
    /// Output columns: `(name, source)` in select-list order.
    pub output: Vec<(String, OutputCol)>,
    /// Full row-level filter (`WHERE`), if any.
    pub filter: Option<Expr>,
    /// The same filter normalized for chunk skipping.
    pub restriction: Restriction,
    /// `HAVING`, rewritten to reference output column names.
    pub having: Option<Expr>,
    /// `(output column index, descending)` sort keys.
    pub order_by: Vec<(usize, bool)>,
    pub limit: Option<usize>,
}

impl AnalyzedQuery {
    /// Names of the output columns, in order.
    pub fn output_names(&self) -> Vec<String> {
        self.output.iter().map(|(n, _)| n.clone()).collect()
    }

    /// Append `table|keys:k1,k2|slots:s1,s2` — what the query groups by and
    /// the slots its table holds, in canonical text — to `out`: the part
    /// every result-cache signature starts with (a leaf's chunk results, a
    /// tree node's partials), written into the caller's one buffer. Charts
    /// whose aggregates lower to the same slots (`SUM(x)` and `AVG(x)`
    /// beside a `COUNT(*)`) name one remembered table.
    pub fn write_group_shape(&self, out: &mut String) {
        fn joined<T: fmt::Display>(out: &mut String, items: &[T]) {
            for (i, item) in items.iter().enumerate() {
                let comma = if i > 0 { "," } else { "" };
                write!(out, "{comma}{item}").expect("a String takes every write");
            }
        }
        out.push_str(&self.table);
        out.push_str("|keys:");
        joined(out, &self.keys);
        out.push_str("|slots:");
        joined(out, &self.slots);
    }
}

/// Lower aggregates to slots, the one place this is decided: `COUNT(*)`
/// and `COUNT(x)` read `count` (stores hold no NULLs), `SUM(x)` reads
/// `sum(x)`, `AVG(x)` reads `sum(x)` and `count`, `MIN` / `MAX` read
/// `min(x)` / `max(x)` and `COUNT(DISTINCT x)` reads `distinct(x)`. Each
/// slot is held once, and the slots are sorted by class, then by the
/// argument's canonical text, so the table does not depend on how the
/// select list spelled or ordered the aggregates.
pub(crate) fn lower(aggs: &[AggExpr]) -> Result<(Vec<Slot>, Vec<SlotRef>)> {
    let state = |agg: &AggExpr| -> Result<Slot> {
        let class = match (agg.func, agg.distinct) {
            (_, true) => SlotClass::Distinct,
            (AggFunc::Count, false) => return Ok(Slot { class: SlotClass::Count, arg: None }),
            (AggFunc::Sum | AggFunc::Avg, false) => SlotClass::Sum,
            (AggFunc::Min, false) => SlotClass::Min,
            (AggFunc::Max, false) => SlotClass::Max,
        };
        match &agg.arg {
            Some(arg) => Ok(Slot { class, arg: Some(arg.clone()) }),
            None => Err(Error::Internal(format!("{agg} is only valid for COUNT"))),
        }
    };
    let states: Vec<Slot> = aggs.iter().map(state).collect::<Result<_>>()?;
    let count = Slot { class: SlotClass::Count, arg: None };
    let averaged = aggs.iter().any(|agg| agg.func == AggFunc::Avg);
    let mut slots: Vec<Slot> =
        states.iter().cloned().chain(averaged.then(|| count.clone())).collect();
    slots.sort_by_cached_key(|slot| (slot.class, slot.arg.as_ref().map(Expr::canonical)));
    slots.dedup();
    let at = |slot: &Slot| slots.iter().position(|held| held == slot).expect("a state is a slot");
    let reads = (aggs.iter().zip(&states))
        .map(|(agg, state)| SlotRef {
            slot: at(state),
            count: (agg.func == AggFunc::Avg).then(|| at(&count)),
        })
        .collect();
    Ok((slots, reads))
}

/// Analyze a parsed query.
pub fn analyze(query: &Query) -> Result<AnalyzedQuery> {
    // Alias → scalar expression (aggregate aliases resolve to the aggregate
    // itself, handled separately below).
    let scalar_alias = |name: &str| -> Option<&Expr> {
        query.select.iter().find_map(|item| match (&item.alias, &item.expr) {
            (Some(a), SelectExpr::Scalar(e)) if a == name => Some(e),
            _ => None,
        })
    };

    // Resolve GROUP BY entries: a bare column that names an alias means the
    // aliased expression (paper Query 2: `GROUP BY date`).
    let mut keys: Vec<Expr> = Vec::with_capacity(query.group_by.len());
    for g in &query.group_by {
        let resolved = match g.as_column() {
            Some(name) => scalar_alias(name).cloned().unwrap_or_else(|| g.clone()),
            None => g.clone(),
        };
        if !keys.contains(&resolved) {
            keys.push(resolved);
        }
    }

    // Select list → outputs.
    let mut aggs: Vec<AggExpr> = Vec::new();
    let mut output: Vec<(String, OutputCol)> = Vec::with_capacity(query.select.len());
    for item in &query.select {
        let name = item.output_name();
        if output.iter().any(|(n, _)| *n == name) {
            return Err(Error::Schema(format!("duplicate output column `{name}`")));
        }
        match &item.expr {
            SelectExpr::Aggregate(a) => {
                aggs.push(a.clone());
                output.push((name, OutputCol::Agg(aggs.len() - 1)));
            }
            SelectExpr::Scalar(e) => {
                let idx = keys.iter().position(|k| k == e).ok_or_else(|| {
                    Error::Schema(format!(
                        "select expression `{e}` must appear in GROUP BY (keys: {})",
                        keys.iter().map(|k| k.to_string()).collect::<Vec<_>>().join(", ")
                    ))
                })?;
                output.push((name, OutputCol::Key(idx)));
            }
        }
    }
    if aggs.is_empty() && keys.is_empty() {
        return Err(Error::Unsupported(
            "queries must aggregate or group (plain projections are outside the engine's SQL subset)"
                .into(),
        ));
    }

    // ORDER BY → output column indices.
    let mut order_by = Vec::with_capacity(query.order_by.len());
    for key in &query.order_by {
        let idx = resolve_output(&key.expr, query, &output)?;
        order_by.push((idx, key.desc));
    }

    // HAVING → expression over output column names.
    let having = match &query.having {
        None => None,
        Some(h) => Some(rewrite_having(h, query, &output)?),
    };

    let restriction = query.where_clause.as_ref().map_or(Restriction::True, Restriction::from_expr);
    let (slots, reads) = lower(&aggs)?;

    Ok(AnalyzedQuery {
        table: query.from.clone(),
        keys,
        aggs,
        slots,
        reads,
        output,
        filter: query.where_clause.clone(),
        restriction,
        having,
        order_by,
        limit: query.limit,
    })
}

/// Find the output column an ORDER BY / HAVING expression refers to: by
/// alias, by structural match with a select item, or by matching an
/// aggregate call like `count(*)`.
fn resolve_output(expr: &Expr, query: &Query, output: &[(String, OutputCol)]) -> Result<usize> {
    // 1. Alias or output-name match.
    if let Some(name) = expr.as_column() {
        if let Some(idx) = output.iter().position(|(n, _)| n == name) {
            return Ok(idx);
        }
    }
    // 2. Structural match against select expressions.
    for (idx, item) in query.select.iter().enumerate() {
        let matches = match &item.expr {
            SelectExpr::Scalar(e) => e == expr,
            SelectExpr::Aggregate(a) => expr_matches_agg(expr, a),
        };
        if matches {
            return Ok(idx);
        }
    }
    Err(Error::Schema(format!(
        "ORDER BY / HAVING expression `{expr}` does not match any output column"
    )))
}

/// The aggregate a call expression's (lower-cased) function name denotes.
fn agg_func(name: &str) -> Option<AggFunc> {
    Some(match name {
        "count" => AggFunc::Count,
        "sum" => AggFunc::Sum,
        "min" => AggFunc::Min,
        "max" => AggFunc::Max,
        "avg" => AggFunc::Avg,
        _ => return None,
    })
}

/// Does `count(*)`-style call expression denote aggregate `a`?
fn expr_matches_agg(expr: &Expr, a: &AggExpr) -> bool {
    let Expr::Call { name, args } = expr else {
        return false;
    };
    if agg_func(name) != Some(a.func) || a.distinct {
        return false;
    }
    match (&a.arg, args.as_slice()) {
        (None, [Expr::Column(star)]) => star == "*",
        (Some(arg), [e]) => arg == e,
        _ => false,
    }
}

/// Rewrite a HAVING expression so every reference to a select item becomes
/// a bare `Column(output_name)` the executor can resolve against result
/// rows. HAVING sees the query's *output*: a column or an aggregate call
/// that is no select item is rejected here — the executor finalizes only
/// what the select list names, so it could only fail on it after the scan
/// (and, on a tree, after every leaf has scanned and shipped).
fn rewrite_having(expr: &Expr, query: &Query, output: &[(String, OutputCol)]) -> Result<Expr> {
    if let Ok(idx) = resolve_output(expr, query, output) {
        return Ok(Expr::Column(output[idx].0.clone()));
    }
    Ok(match expr {
        Expr::Literal(_) => expr.clone(),
        Expr::Column(name) => {
            return Err(Error::Schema(format!(
                "HAVING column `{name}` is not an output column of the query (select it, or \
                 filter on it in WHERE)"
            )))
        }
        Expr::Call { name, .. } if agg_func(name).is_some() => {
            return Err(Error::Schema(format!(
                "HAVING aggregate `{expr}` does not match any select item (add it to the \
                 select list)"
            )))
        }
        Expr::Call { name, args } => Expr::Call {
            name: name.clone(),
            args: args.iter().map(|a| rewrite_having(a, query, output)).collect::<Result<_>>()?,
        },
        Expr::Unary { op, expr: inner } => {
            Expr::Unary { op: *op, expr: Box::new(rewrite_having(inner, query, output)?) }
        }
        Expr::Binary { op, lhs, rhs } => Expr::Binary {
            op: *op,
            lhs: Box::new(rewrite_having(lhs, query, output)?),
            rhs: Box::new(rewrite_having(rhs, query, output)?),
        },
        Expr::InList { expr: inner, list, negated } => Expr::InList {
            expr: Box::new(rewrite_having(inner, query, output)?),
            list: list.iter().map(|e| rewrite_having(e, query, output)).collect::<Result<_>>()?,
            negated: *negated,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn analyzed(sql: &str) -> AnalyzedQuery {
        analyze(&parse_query(sql).unwrap()).unwrap()
    }

    #[test]
    fn query1_shape() {
        let a = analyzed(
            "SELECT country, COUNT(*) as c FROM data GROUP BY country ORDER BY c DESC LIMIT 10;",
        );
        assert_eq!(a.table, "data");
        assert_eq!(a.keys, vec![Expr::column("country")]);
        assert_eq!(a.aggs, vec![AggExpr::count_star()]);
        assert_eq!(a.output[0], ("country".into(), OutputCol::Key(0)));
        assert_eq!(a.output[1], ("c".into(), OutputCol::Agg(0)));
        assert_eq!(a.order_by, vec![(1, true)]);
        assert_eq!(a.limit, Some(10));
    }

    #[test]
    fn query2_alias_resolution() {
        let a = analyzed(
            "SELECT date(timestamp) as date, COUNT(*), SUM(latency) FROM data
             GROUP BY date ORDER BY date ASC LIMIT 10;",
        );
        // GROUP BY date resolves to the aliased expression.
        assert_eq!(a.keys, vec![Expr::call("date", vec![Expr::column("timestamp")])]);
        assert_eq!(a.aggs.len(), 2);
        assert_eq!(a.order_by, vec![(0, false)]);
        assert_eq!(
            a.output_names(),
            vec!["date".to_owned(), "COUNT(*)".to_owned(), "SUM(latency)".to_owned()]
        );
    }

    #[test]
    fn global_aggregation_without_group_by() {
        let a = analyzed("SELECT COUNT(*), SUM(latency) FROM data WHERE country = 'DE'");
        assert!(a.keys.is_empty());
        assert_eq!(a.aggs.len(), 2);
        assert!(matches!(a.restriction, Restriction::In { .. }));
    }

    #[test]
    fn ungrouped_scalar_rejected() {
        let err = analyze(&parse_query("SELECT country, COUNT(*) FROM data").unwrap()).unwrap_err();
        assert!(err.to_string().contains("GROUP BY"));
    }

    #[test]
    fn plain_projection_rejected() {
        let err = analyze(&parse_query("SELECT country FROM data").unwrap());
        // `SELECT country FROM data` without GROUP BY: country isn't in any
        // group key list.
        assert!(err.is_err());
    }

    #[test]
    fn order_by_structural_match() {
        let a =
            analyzed("SELECT country, COUNT(*) FROM data GROUP BY country ORDER BY COUNT(*) DESC");
        assert_eq!(a.order_by, vec![(1, true)]);
        let a = analyzed(
            "SELECT date(timestamp) FROM data GROUP BY date(timestamp) ORDER BY date(timestamp)",
        );
        assert_eq!(a.order_by, vec![(0, false)]);
    }

    #[test]
    fn order_by_unknown_rejected() {
        let err = analyze(
            &parse_query("SELECT country, COUNT(*) c FROM data GROUP BY country ORDER BY zz")
                .unwrap(),
        );
        assert!(err.is_err());
    }

    #[test]
    fn having_rewrites_aggregates_to_output_names() {
        let a = analyzed(
            "SELECT country, COUNT(*) as c FROM data GROUP BY country HAVING COUNT(*) > 5",
        );
        assert_eq!(
            a.having.unwrap().to_string(),
            "(c > 5)",
            "HAVING must reference the output column"
        );
        let a = analyzed("SELECT country, COUNT(*) as c FROM data GROUP BY country HAVING c > 5 AND country != 'ZZ'");
        assert_eq!(a.having.unwrap().to_string(), r#"((c > 5) AND (country != "ZZ"))"#);
    }

    #[test]
    fn having_rejects_what_the_select_list_does_not_name() {
        // Each of these used to pass analysis and fail in `finalize`, after
        // the whole scan, as "unknown output column".
        for (having, names) in [
            ("SUM(latency) > 100", "sum(latency)"),
            ("c > 1 AND MAX(latency) < 5", "max(latency)"),
            ("latency > 100", "`latency`"),
            ("length(user) > 3", "`user`"),
            ("country IN ('DE', region)", "`region`"),
        ] {
            let sql =
                format!("SELECT country, COUNT(*) AS c FROM data GROUP BY country HAVING {having}");
            match analyze(&parse_query(&sql).unwrap()) {
                Err(Error::Schema(msg)) => {
                    assert!(msg.contains("HAVING") && msg.contains(names), "{sql}: {msg}")
                }
                other => panic!("{sql}: expected a schema error, got {other:?}"),
            }
        }
        // Scalar calls over output columns, and aggregates the select list
        // does name, still pass.
        let a = analyzed(
            "SELECT country, COUNT(*) AS c, SUM(latency) FROM data GROUP BY country \
             HAVING length(country) = 2 AND SUM(latency) / c > 1.5",
        );
        assert_eq!(
            a.having.unwrap().to_string(),
            "((length(country) = 2) AND ((SUM(latency) / c) > 1.5))"
        );
    }

    #[test]
    fn duplicate_output_names_rejected() {
        let err =
            analyze(&parse_query("SELECT country, country FROM data GROUP BY country").unwrap());
        assert!(err.is_err());
    }

    #[test]
    fn restriction_extracted() {
        let a = analyzed(
            r#"SELECT search_string, COUNT(*) as c FROM data
               WHERE search_string IN ("la redoute", "voyages sncf")
               GROUP BY search_string"#,
        );
        assert!(matches!(a.restriction, Restriction::In { ref values, .. } if values.len() == 2));
        assert!(a.filter.is_some());
    }

    #[test]
    fn aggregates_lower_to_slots_in_canonical_order() {
        let a = analyzed(
            "SELECT MAX(x) hi, AVG(y), COUNT(DISTINCT k), SUM(x), MIN(x), COUNT(z), AVG(x) FROM t",
        );
        let slots: Vec<String> = a.slots.iter().map(Slot::to_string).collect();
        assert_eq!(slots, ["count", "sum(x)", "sum(y)", "min(x)", "max(x)", "distinct(k)"]);
        let read = |slot, count| SlotRef { slot, count };
        let want = [read(4, None), read(2, Some(0)), read(5, None), read(1, None), read(3, None)];
        assert_eq!(a.reads[..5], want);
        assert_eq!(a.reads[5..], [read(0, None), read(1, Some(0))], "COUNT(z) counts rows");
    }
}
