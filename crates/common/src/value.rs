//! Dynamically typed cell values.
//!
//! PowerDrill stores flat (denormalized) tables whose columns are strings,
//! integers or floating point numbers (§ "Notation and Simplifying
//! Assumptions"). [`Value`] is the boxed representation used at the edges of
//! the system — import, SQL literals, query results. The store itself never
//! keeps `Value`s per row; everything is dictionary-encoded.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer (timestamps, counters, ...).
    Int,
    /// 64-bit IEEE float (latencies, measures, ...).
    Float,
    /// UTF-8 string (countries, table names, search strings, ...).
    Str,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "INT"),
            DataType::Float => write!(f, "FLOAT"),
            DataType::Str => write!(f, "STRING"),
        }
    }
}

/// A single cell value.
///
/// `Value` has a *total* order (floats are ordered with
/// [`f64::total_cmp`], `Null` sorts first, and across types the order is
/// `Null < Int < Float < Str`), so values can always be sorted into the
/// global dictionaries the paper describes in §2.3.
#[derive(Debug, Clone)]
pub enum Value {
    /// Missing / absent value.
    Null,
    Int(i64),
    Float(f64),
    Str(String),
}

impl Value {
    /// The type of this value, or `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
        }
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric value used by `SUM` / `MIN` / `MAX` / `AVG` aggregations.
    /// Strings and nulls aggregate as 0 (matching the permissive behaviour
    /// of the log-analysis UI the paper describes).
    pub fn numeric(&self) -> f64 {
        match self {
            Value::Int(v) => *v as f64,
            Value::Float(v) => *v,
            _ => 0.0,
        }
    }

    /// Render the value the way the CSV format and query results do.
    pub fn render(&self) -> Cow<'_, str> {
        match self {
            Value::Null => Cow::Borrowed(""),
            Value::Int(v) => Cow::Owned(v.to_string()),
            Value::Float(v) => Cow::Owned(format_float(*v)),
            Value::Str(s) => Cow::Borrowed(s),
        }
    }

    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Int(_) => 1,
            Value::Float(_) => 2,
            Value::Str(_) => 3,
        }
    }
}

/// Format a float so that integral floats render without a trailing `.0`
/// ambiguity ever being lost: `1` becomes `"1"` only for `Int`; floats always
/// keep a fractional form so the CSV round-trip preserves types.
fn format_float(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.rank().hash(state);
        match self {
            Value::Null => {}
            Value::Int(v) => v.hash(state),
            Value::Float(v) => v.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{}", format_float(*v)),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_order_within_types() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::Str("a".into()) < Value::Str("b".into()));
        assert!(Value::Float(1.5) < Value::Float(2.5));
    }

    #[test]
    fn total_order_across_types() {
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Int(i64::MAX) < Value::Float(f64::NEG_INFINITY));
        assert!(Value::Float(f64::INFINITY) < Value::Str(String::new()));
    }

    #[test]
    fn float_total_order_handles_nan() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert!(Value::Float(f64::INFINITY) < nan);
        assert!(Value::Float(-f64::NAN) < Value::Float(f64::NEG_INFINITY));
    }

    #[test]
    fn equality_follows_total_order() {
        assert_eq!(Value::Float(0.0).cmp(&Value::Float(-0.0)), Ordering::Greater);
        assert_ne!(Value::Float(0.0), Value::Float(-0.0));
        assert_eq!(Value::Str("x".into()), Value::Str("x".into()));
    }

    #[test]
    fn numeric_coercions() {
        assert_eq!(Value::Int(4).numeric(), 4.0);
        assert_eq!(Value::Float(2.5).numeric(), 2.5);
        assert_eq!(Value::Str("zz".into()).numeric(), 0.0);
        assert_eq!(Value::Null.numeric(), 0.0);
        assert_eq!(Value::Int(4).as_float(), Some(4.0));
    }

    #[test]
    fn render_round_trips_visually() {
        assert_eq!(Value::Int(42).render(), "42");
        assert_eq!(Value::Float(1.0).render(), "1.0");
        assert_eq!(Value::Float(1.25).render(), "1.25");
        assert_eq!(Value::Str("hi".into()).render(), "hi");
        assert_eq!(Value::Null.render(), "");
    }

    #[test]
    fn hash_distinguishes_types() {
        use std::collections::hash_map::DefaultHasher;
        fn h(v: &Value) -> u64 {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        }
        assert_ne!(h(&Value::Int(1)), h(&Value::Float(1.0)));
        assert_ne!(h(&Value::Null), h(&Value::Int(0)));
    }

    #[test]
    fn data_type_display() {
        assert_eq!(DataType::Int.to_string(), "INT");
        assert_eq!(DataType::Float.to_string(), "FLOAT");
        assert_eq!(DataType::Str.to_string(), "STRING");
    }
}
