//! Scalar expression evaluation.
//!
//! The engine calls it once per distinct input tuple of a run of rows (a
//! chunk, or an append's delta), numbered by their codes: to materialize
//! and extend virtual fields (§5) and to filter by the `WHERE` leaves that
//! chunk-ids cannot answer (§2.4). It also evaluates `HAVING` over result
//! rows, and every row of the row-wise baseline backends that the paper's
//! Table 1 compares against.
//!
//! Beside the functions it declares which of them never decrease as their
//! argument grows ([`non_decreasing_bounds`]: `date` and `year`), so that
//! a parent in the tree bounds `date(timestamp)` by the two ends of the
//! `timestamp` zone map it holds, without the column's values.

use crate::ast::{BinaryOp, Expr, UnaryOp};
use pd_common::{Error, Result, Value};
use std::fmt::Write;

/// Resolves column references while evaluating an expression.
pub trait RowContext {
    /// The value of column `name` in the current row.
    fn column(&self, name: &str) -> Result<Value>;
}

/// A context over `(name, value)` slices — convenient for tests and small
/// result rows.
impl RowContext for [(&str, Value)] {
    fn column(&self, name: &str) -> Result<Value> {
        self.iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.clone())
            .ok_or_else(|| Error::Schema(format!("unknown column `{name}`")))
    }
}

/// SQL truthiness: numeric non-zero. Strings and nulls are not valid
/// predicates.
pub fn truthy(v: &Value) -> bool {
    match v {
        Value::Int(x) => *x != 0,
        Value::Float(x) => *x != 0.0,
        _ => false,
    }
}

fn bool_value(b: bool) -> Value {
    Value::Int(b as i64)
}

/// Evaluate `expr` against a row.
pub fn eval_expr<C: RowContext + ?Sized>(expr: &Expr, row: &C) -> Result<Value> {
    match expr {
        Expr::Column(name) => row.column(name),
        Expr::Literal(v) => Ok(v.clone()),
        // Up to three arguments are held on the stack: a call evaluated per
        // row or per tuple allocates no list.
        Expr::Call { name, args } if args.len() <= 3 => {
            let mut values = [Value::Null, Value::Null, Value::Null];
            for (value, arg) in values.iter_mut().zip(args) {
                *value = eval_expr(arg, row)?;
            }
            eval_function(name, &values[..args.len()])
        }
        Expr::Call { name, args } => {
            let values: Vec<Value> =
                args.iter().map(|a| eval_expr(a, row)).collect::<Result<_>>()?;
            eval_function(name, &values)
        }
        Expr::Unary { op: UnaryOp::Not, expr } => Ok(bool_value(!truthy(&eval_expr(expr, row)?))),
        Expr::Unary { op: UnaryOp::Neg, expr } => match eval_expr(expr, row)? {
            Value::Int(v) => Ok(Value::Int(-v)),
            Value::Float(v) => Ok(Value::Float(-v)),
            other => Err(Error::Type(format!("cannot negate {other}"))),
        },
        Expr::Binary { op, lhs, rhs } => {
            // Short-circuit the logical operators.
            match op {
                BinaryOp::And => {
                    if !truthy(&eval_expr(lhs, row)?) {
                        return Ok(bool_value(false));
                    }
                    return Ok(bool_value(truthy(&eval_expr(rhs, row)?)));
                }
                BinaryOp::Or => {
                    if truthy(&eval_expr(lhs, row)?) {
                        return Ok(bool_value(true));
                    }
                    return Ok(bool_value(truthy(&eval_expr(rhs, row)?)));
                }
                _ => {}
            }
            let a = eval_expr(lhs, row)?;
            let b = eval_expr(rhs, row)?;
            eval_binary(*op, &a, &b)
        }
        Expr::InList { expr, list, negated } => {
            let v = eval_expr(expr, row)?;
            let mut found = false;
            for item in list {
                if values_equal(&v, &eval_expr(item, row)?) {
                    found = true;
                    break;
                }
            }
            Ok(bool_value(found != *negated))
        }
    }
}

/// SQL equality: numerically across Int/Float, exact otherwise.
pub fn values_equal(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(x), Value::Float(y)) | (Value::Float(y), Value::Int(x)) => *x as f64 == *y,
        _ => a == b,
    }
}

/// SQL ordering: numerically across Int/Float, the total [`Value`] order
/// otherwise. Public because shard-metadata pruning must reason with
/// *exactly* the comparator the row filter applies — any divergence would
/// let a pre-skip drop rows the filter would have kept.
pub fn values_compare(a: &Value, b: &Value) -> std::cmp::Ordering {
    match (a, b) {
        (Value::Int(x), Value::Float(y)) => (*x as f64).total_cmp(y),
        (Value::Float(x), Value::Int(y)) => x.total_cmp(&(*y as f64)),
        _ => a.cmp(b),
    }
}

fn eval_binary(op: BinaryOp, a: &Value, b: &Value) -> Result<Value> {
    use std::cmp::Ordering::*;
    Ok(match op {
        BinaryOp::Eq => bool_value(values_equal(a, b)),
        BinaryOp::Ne => bool_value(!values_equal(a, b)),
        BinaryOp::Lt => bool_value(values_compare(a, b) == Less),
        BinaryOp::Le => bool_value(values_compare(a, b) != Greater),
        BinaryOp::Gt => bool_value(values_compare(a, b) == Greater),
        BinaryOp::Ge => bool_value(values_compare(a, b) != Less),
        BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul => match (a, b) {
            (Value::Int(x), Value::Int(y)) => Value::Int(match op {
                BinaryOp::Add => x.wrapping_add(*y),
                BinaryOp::Sub => x.wrapping_sub(*y),
                _ => x.wrapping_mul(*y),
            }),
            _ => {
                let (x, y) = numeric_pair(a, b, op)?;
                Value::Float(match op {
                    BinaryOp::Add => x + y,
                    BinaryOp::Sub => x - y,
                    _ => x * y,
                })
            }
        },
        // Division always yields a float (7/2 = 3.5, as the UI expects for
        // computed measures like AVG built from SUM/SUM).
        BinaryOp::Div => {
            let (x, y) = numeric_pair(a, b, op)?;
            Value::Float(x / y)
        }
        BinaryOp::And | BinaryOp::Or => unreachable!("handled by eval_expr"),
    })
}

fn numeric_pair(a: &Value, b: &Value, op: BinaryOp) -> Result<(f64, f64)> {
    match (a.as_float(), b.as_float()) {
        (Some(x), Some(y)) => Ok((x, y)),
        _ => Err(Error::Type(format!("cannot apply `{}` to {a} and {b}", op.symbol()))),
    }
}

/// Scalar function dispatch.
fn eval_function(name: &str, args: &[Value]) -> Result<Value> {
    let arity = |n: usize| -> Result<()> {
        if args.len() == n {
            Ok(())
        } else {
            Err(Error::Type(format!("{name}() takes {n} argument(s), got {}", args.len())))
        }
    };
    match name {
        "date" => {
            arity(1)?;
            let ts = int_arg(name, &args[0])?;
            let (y, m, d) = civil_from_days(ts.div_euclid(86_400));
            // Sized up front: `format!` grows its string twice on the way.
            let mut day = String::with_capacity(10);
            write!(day, "{y:04}-{m:02}-{d:02}").expect("a String takes any text");
            Ok(Value::Str(day))
        }
        "hour" => {
            arity(1)?;
            let ts = int_arg(name, &args[0])?;
            Ok(Value::Int(ts.rem_euclid(86_400) / 3_600))
        }
        "year" => {
            arity(1)?;
            let ts = int_arg(name, &args[0])?;
            Ok(Value::Int(civil_from_days(ts.div_euclid(86_400)).0))
        }
        "month" => {
            arity(1)?;
            let ts = int_arg(name, &args[0])?;
            Ok(Value::Int(i64::from(civil_from_days(ts.div_euclid(86_400)).1)))
        }
        "day" => {
            arity(1)?;
            let ts = int_arg(name, &args[0])?;
            Ok(Value::Int(i64::from(civil_from_days(ts.div_euclid(86_400)).2)))
        }
        "lower" => {
            arity(1)?;
            Ok(Value::Str(str_arg(name, &args[0])?.to_lowercase()))
        }
        "upper" => {
            arity(1)?;
            Ok(Value::Str(str_arg(name, &args[0])?.to_uppercase()))
        }
        "length" => {
            arity(1)?;
            Ok(Value::Int(str_arg(name, &args[0])?.chars().count() as i64))
        }
        "contains" => {
            arity(2)?;
            let hay = str_arg(name, &args[0])?;
            let needle = str_arg(name, &args[1])?;
            Ok(bool_value(hay.contains(needle)))
        }
        "if" => {
            arity(3)?;
            Ok(if truthy(&args[0]) { args[1].clone() } else { args[2].clone() })
        }
        "log2_bucket" => {
            // Bucket a non-negative number by ⌊log2⌋ — the x-axis of the
            // paper's Figure 5.
            arity(1)?;
            let v = args[0]
                .as_float()
                .ok_or_else(|| Error::Type("log2_bucket() needs a number".into()))?;
            Ok(Value::Int(if v < 1.0 { 0 } else { v.log2().floor() as i64 }))
        }
        other => Err(Error::Unsupported(format!("function `{other}`"))),
    }
}

/// The extremes of `field` over rows whose one column lies between `min`
/// and `max` — the column's zone map — when `field` is a call that never
/// decreases as that column grows: `date` and `year` of a bare column. Sound
/// only as declared here, so `None` ("no bound known") unless both ends are
/// integers that evaluate without an error and, for `date`, fall in years
/// 0000–9999, where the text of a day orders as the day does (`-001-…` and
/// `10000-…` do not). A null or a float at an end is `None`.
pub fn non_decreasing_bounds(field: &Expr, min: &Value, max: &Value) -> Option<(Value, Value)> {
    let Expr::Call { name, args } = field else { return None };
    let ([Expr::Column(_)], Value::Int(lo), Value::Int(hi)) = (args.as_slice(), min, max) else {
        return None;
    };
    // 0000-01-01T00:00:00Z up to 10000-01-01T00:00:00Z.
    let four_digit_years = -62_167_219_200i64..253_402_300_800;
    let sound = match name.as_str() {
        "date" => four_digit_years.contains(lo) && four_digit_years.contains(hi),
        "year" => true,
        _ => false,
    };
    if !sound {
        return None;
    }
    let at = |ts: i64| eval_function(name, &[Value::Int(ts)]).ok();
    Some((at(*lo)?, at(*hi)?))
}

fn int_arg(name: &str, v: &Value) -> Result<i64> {
    match v {
        Value::Int(x) => Ok(*x),
        Value::Float(x) => Ok(*x as i64),
        other => Err(Error::Type(format!("{name}() needs a numeric argument, got {other}"))),
    }
}

fn str_arg<'a>(name: &str, v: &'a Value) -> Result<&'a str> {
    v.as_str().ok_or_else(|| Error::Type(format!("{name}() needs a string argument, got {v}")))
}

/// Days-since-epoch → (year, month, day) in the proleptic Gregorian
/// calendar (Howard Hinnant's `civil_from_days` algorithm).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097) as u64;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn eval_where(sql: &str, row: &[(&str, Value)]) -> Value {
        let q = parse_query(&format!("SELECT a FROM t WHERE {sql}")).unwrap();
        eval_expr(&q.where_clause.unwrap(), row).unwrap()
    }

    #[test]
    fn date_function_matches_known_dates() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(-1), (1969, 12, 31));
        // 2012-02-29 (the leap day the paper's §5 example uses) is day 15399.
        assert_eq!(civil_from_days(15_399), (2012, 2, 29));
        let v = eval_function("date", &[Value::Int(15_399 * 86_400 + 12 * 3600)]).unwrap();
        assert_eq!(v, Value::from("2012-02-29"));
        // End of 2011 — the paper's production measurement window.
        let v = eval_function("date", &[Value::Int(1_325_375_999)]).unwrap();
        assert_eq!(v, Value::from("2011-12-31"));
    }

    #[test]
    fn date_handles_negative_timestamps() {
        let v = eval_function("date", &[Value::Int(-1)]).unwrap();
        assert_eq!(v, Value::from("1969-12-31"));
    }

    #[test]
    fn arithmetic_and_comparisons() {
        let row: &[(&str, Value)] = &[("x", Value::Int(7)), ("y", Value::Float(2.0))];
        assert_eq!(eval_where("x + 1 = 8", row), Value::Int(1));
        assert_eq!(eval_where("x / 2 = 3.5", row), Value::Int(1));
        assert_eq!(eval_where("x * y = 14.0", row), Value::Int(1));
        assert_eq!(eval_where("x < y", row), Value::Int(0));
        assert_eq!(eval_where("x >= 7", row), Value::Int(1));
    }

    #[test]
    fn logic_short_circuits() {
        // `boom` is an unknown column; AND must not evaluate it.
        let row: &[(&str, Value)] = &[("x", Value::Int(0))];
        assert_eq!(eval_where("x = 1 AND boom = 2", row), Value::Int(0));
        let row: &[(&str, Value)] = &[("x", Value::Int(1))];
        assert_eq!(eval_where("x = 1 OR boom = 2", row), Value::Int(1));
    }

    #[test]
    fn in_and_not_in() {
        let row: &[(&str, Value)] = &[("country", Value::from("DE"))];
        assert_eq!(eval_where("country IN ('DE', 'FR')", row), Value::Int(1));
        assert_eq!(eval_where("country NOT IN ('DE', 'FR')", row), Value::Int(0));
        assert_eq!(eval_where("country IN ('US')", row), Value::Int(0));
        assert_eq!(eval_where("NOT country IN ('US')", row), Value::Int(1));
    }

    #[test]
    fn cross_type_equality() {
        assert!(values_equal(&Value::Int(4), &Value::Float(4.0)));
        assert!(!values_equal(&Value::Int(4), &Value::Float(4.5)));
        assert!(!values_equal(&Value::from("4"), &Value::Int(4)));
    }

    #[test]
    fn string_functions() {
        assert_eq!(eval_function("lower", &[Value::from("AuTo")]).unwrap(), Value::from("auto"));
        assert_eq!(eval_function("upper", &[Value::from("cat")]).unwrap(), Value::from("CAT"));
        assert_eq!(eval_function("length", &[Value::from("kostüme")]).unwrap(), Value::Int(7));
        assert_eq!(
            eval_function("contains", &[Value::from("blue cat toy"), Value::from("cat")]).unwrap(),
            Value::Int(1)
        );
    }

    #[test]
    fn if_and_log2_bucket() {
        assert_eq!(
            eval_function("if", &[Value::Int(1), Value::from("y"), Value::from("n")]).unwrap(),
            Value::from("y")
        );
        assert_eq!(eval_function("log2_bucket", &[Value::Float(0.5)]).unwrap(), Value::Int(0));
        assert_eq!(eval_function("log2_bucket", &[Value::Int(1)]).unwrap(), Value::Int(0));
        assert_eq!(eval_function("log2_bucket", &[Value::Int(1024)]).unwrap(), Value::Int(10));
        assert_eq!(eval_function("log2_bucket", &[Value::Int(1500)]).unwrap(), Value::Int(10));
    }

    #[test]
    fn errors_are_typed() {
        assert!(matches!(eval_function("date", &[Value::from("x")]), Err(Error::Type(_))));
        assert!(matches!(eval_function("nope", &[]), Err(Error::Unsupported(_))));
        assert!(matches!(eval_function("date", &[]), Err(Error::Type(_))));
        let row: &[(&str, Value)] = &[];
        let q = parse_query("SELECT a FROM t WHERE missing = 1").unwrap();
        assert!(eval_expr(&q.where_clause.unwrap(), row).is_err());
    }

    #[test]
    fn date_and_year_bound_a_column_by_its_ends() {
        let call = |name: &str| Expr::call(name, vec![Expr::column("ts")]);
        let bounds = |field: &Expr, lo: Value, hi: Value| non_decreasing_bounds(field, &lo, &hi);
        let (first, last) = (-62_167_219_200, 253_402_300_799);
        assert_eq!(
            bounds(&call("date"), Value::Int(first), Value::Int(last)),
            Some((Value::from("0000-01-01"), Value::from("9999-12-31")))
        );
        // One second past either end of four-digit years.
        assert_eq!(bounds(&call("date"), Value::Int(first - 1), Value::Int(0)), None);
        assert_eq!(bounds(&call("date"), Value::Int(0), Value::Int(last + 1)), None);
        // `year` never decreases over every integer.
        assert_eq!(
            bounds(&call("year"), Value::Int(i64::MIN), Value::Int(0)),
            Some((eval_function("year", &[Value::Int(i64::MIN)]).unwrap(), Value::Int(1970)))
        );
        // Only integers at both ends, only a bare column, only `date` and
        // `year`.
        assert_eq!(bounds(&call("date"), Value::Null, Value::Int(0)), None);
        assert_eq!(bounds(&call("date"), Value::Int(0), Value::Float(1.0)), None);
        let scaled = Expr::binary(BinaryOp::Mul, Expr::column("ts"), Expr::literal(Value::Int(2)));
        assert_eq!(bounds(&Expr::call("date", vec![scaled]), Value::Int(0), Value::Int(1)), None);
        for name in ["month", "day", "hour", "lower"] {
            assert_eq!(bounds(&call(name), Value::Int(0), Value::Int(1)), None, "{name}");
        }
    }

    #[test]
    fn hour_year_month_day() {
        let ts = Value::Int(15_399 * 86_400 + 13 * 3600 + 59);
        assert_eq!(eval_function("hour", std::slice::from_ref(&ts)).unwrap(), Value::Int(13));
        assert_eq!(eval_function("year", std::slice::from_ref(&ts)).unwrap(), Value::Int(2012));
        assert_eq!(eval_function("month", std::slice::from_ref(&ts)).unwrap(), Value::Int(2));
        assert_eq!(eval_function("day", &[ts]).unwrap(), Value::Int(29));
    }
}
