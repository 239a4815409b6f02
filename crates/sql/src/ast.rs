//! Abstract syntax for the supported SQL subset.
//!
//! `Display` implementations render *canonical* SQL: a fixed spelling with
//! normalized keywords, quoting and parenthesization. The canonical text of
//! an expression is the identity of its materialized virtual field (§5 of
//! the paper: expressions are computed once and stored like columns, keyed
//! by the expression itself).

use pd_common::Value;
use std::fmt;

/// A scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference.
    Column(String),
    /// Literal constant.
    Literal(Value),
    /// Scalar function call, e.g. `date(timestamp)`.
    Call { name: String, args: Vec<Expr> },
    /// Unary operator.
    Unary { op: UnaryOp, expr: Box<Expr> },
    /// Binary operator.
    Binary { op: BinaryOp, lhs: Box<Expr>, rhs: Box<Expr> },
    /// `expr [NOT] IN (v1, v2, ...)`.
    InList { expr: Box<Expr>, list: Vec<Expr>, negated: bool },
}

impl Expr {
    pub fn column(name: impl Into<String>) -> Expr {
        Expr::Column(name.into())
    }

    pub fn literal(value: impl Into<Value>) -> Expr {
        Expr::Literal(value.into())
    }

    pub fn binary(op: BinaryOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }
    }

    pub fn call(name: impl Into<String>, args: Vec<Expr>) -> Expr {
        Expr::Call { name: name.into(), args }
    }

    /// Is this a bare column reference?
    pub fn as_column(&self) -> Option<&str> {
        match self {
            Expr::Column(c) => Some(c),
            _ => None,
        }
    }

    /// Column names referenced anywhere in this expression.
    pub fn referenced_columns(&self, out: &mut Vec<String>) {
        match self {
            Expr::Column(c) => {
                if !out.iter().any(|o| o == c) {
                    out.push(c.clone());
                }
            }
            Expr::Literal(_) => {}
            Expr::Call { args, .. } => {
                for a in args {
                    a.referenced_columns(out);
                }
            }
            Expr::Unary { expr, .. } => expr.referenced_columns(out),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.referenced_columns(out);
                rhs.referenced_columns(out);
            }
            Expr::InList { expr, list, .. } => {
                expr.referenced_columns(out);
                for e in list {
                    e.referenced_columns(out);
                }
            }
        }
    }

    /// The canonical text, used as virtual-field key.
    pub fn canonical(&self) -> String {
        self.to_string()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    Not,
    Neg,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    Add,
    Sub,
    Mul,
    Div,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

impl BinaryOp {
    /// Parser precedence (higher binds tighter).
    pub fn precedence(self) -> u8 {
        match self {
            BinaryOp::Or => 1,
            BinaryOp::And => 2,
            BinaryOp::Eq
            | BinaryOp::Ne
            | BinaryOp::Lt
            | BinaryOp::Le
            | BinaryOp::Gt
            | BinaryOp::Ge => 4,
            BinaryOp::Add | BinaryOp::Sub => 5,
            BinaryOp::Mul | BinaryOp::Div => 6,
        }
    }

    pub fn symbol(self) -> &'static str {
        match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Eq => "=",
            BinaryOp::Ne => "!=",
            BinaryOp::Lt => "<",
            BinaryOp::Le => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::Ge => ">=",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
        }
    }
}

/// Aggregate functions supported by the engine; all except count-distinct
/// are algebraic and therefore mergeable across the §4 execution tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

impl AggFunc {
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Avg => "AVG",
        }
    }
}

/// An aggregate expression in a select list.
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    pub func: AggFunc,
    /// `None` only for `COUNT(*)`.
    pub arg: Option<Expr>,
    /// `COUNT(DISTINCT x)` — computed approximately, per §5.
    pub distinct: bool,
}

impl AggExpr {
    pub fn count_star() -> AggExpr {
        AggExpr { func: AggFunc::Count, arg: None, distinct: false }
    }
}

/// One select-list entry.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    pub expr: SelectExpr,
    pub alias: Option<String>,
}

#[derive(Debug, Clone, PartialEq)]
pub enum SelectExpr {
    Scalar(Expr),
    Aggregate(AggExpr),
}

impl SelectItem {
    /// The output column name: the alias if given, the canonical expression
    /// text otherwise.
    pub fn output_name(&self) -> String {
        if let Some(a) = &self.alias {
            return a.clone();
        }
        match &self.expr {
            SelectExpr::Scalar(e) => e.canonical(),
            SelectExpr::Aggregate(a) => agg_to_string(a),
        }
    }
}

/// `ORDER BY` key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    pub expr: Expr,
    pub desc: bool,
}

/// A parsed query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub select: Vec<SelectItem>,
    /// The table `FROM` names.
    pub from: String,
    pub where_clause: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
    pub order_by: Vec<OrderKey>,
    pub limit: Option<usize>,
}

fn agg_to_string(a: &AggExpr) -> String {
    match (&a.arg, a.distinct) {
        (None, _) => format!("{}(*)", a.func.name()),
        (Some(e), false) => format!("{}({e})", a.func.name()),
        (Some(e), true) => format!("{}(DISTINCT {e})", a.func.name()),
    }
}

fn quote_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        if ch == '"' || ch == '\\' {
            out.push('\\');
        }
        out.push(ch);
    }
    out.push('"');
    out
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(c) => write!(f, "{c}"),
            Expr::Literal(Value::Str(s)) => write!(f, "{}", quote_str(s)),
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Call { name, args } => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            // Self-parenthesized so unary nodes stay unambiguous inside
            // arithmetic in the canonical text.
            Expr::Unary { op: UnaryOp::Not, expr } => write!(f, "(NOT ({expr}))"),
            Expr::Unary { op: UnaryOp::Neg, expr } => write!(f, "(-({expr}))"),
            Expr::Binary { op, lhs, rhs } => write!(f, "({lhs} {} {rhs})", op.symbol()),
            Expr::InList { expr, list, negated } => {
                // Outer parentheses keep the canonical text unambiguous
                // when an IN expression nests inside arithmetic.
                write!(f, "({expr} {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, v) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "))")
            }
        }
    }
}

impl fmt::Display for AggExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", agg_to_string(self))
    }
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.expr {
            SelectExpr::Scalar(e) => write!(f, "{e}")?,
            SelectExpr::Aggregate(a) => write!(f, "{a}")?,
        }
        if let Some(alias) = &self.alias {
            write!(f, " AS {alias}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        for (i, item) in self.select.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{item}")?;
        }
        write!(f, " FROM {}", self.from)?;
        if let Some(w) = &self.where_clause {
            write!(f, " WHERE {w}")?;
        }
        if !self.group_by.is_empty() {
            write!(f, " GROUP BY ")?;
            for (i, g) in self.group_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{g}")?;
            }
        }
        if let Some(h) = &self.having {
            write!(f, " HAVING {h}")?;
        }
        if !self.order_by.is_empty() {
            write!(f, " ORDER BY ")?;
            for (i, o) in self.order_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}{}", o.expr, if o.desc { " DESC" } else { " ASC" })?;
            }
        }
        if let Some(l) = self.limit {
            write!(f, " LIMIT {l}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_rendering_is_stable() {
        let e = Expr::call("date", vec![Expr::column("timestamp")]);
        assert_eq!(e.canonical(), "date(timestamp)");
        let cmp = Expr::binary(BinaryOp::Gt, Expr::column("latency"), Expr::literal(100i64));
        assert_eq!(cmp.canonical(), "(latency > 100)");
    }

    #[test]
    fn string_literals_are_quoted_and_escaped() {
        let e = Expr::literal(r#"say "hi" \ bye"#);
        assert_eq!(e.to_string(), r#""say \"hi\" \\ bye""#);
    }

    #[test]
    fn in_list_rendering() {
        let e = Expr::InList {
            expr: Box::new(Expr::column("search_string")),
            list: vec![Expr::literal("la redoute"), Expr::literal("voyages sncf")],
            negated: false,
        };
        assert_eq!(e.to_string(), r#"(search_string IN ("la redoute", "voyages sncf"))"#);
    }

    #[test]
    fn output_names_use_alias_then_canonical() {
        let aliased = SelectItem {
            expr: SelectExpr::Aggregate(AggExpr::count_star()),
            alias: Some("c".into()),
        };
        assert_eq!(aliased.output_name(), "c");
        let bare = SelectItem { expr: SelectExpr::Scalar(Expr::column("country")), alias: None };
        assert_eq!(bare.output_name(), "country");
        let agg = SelectItem { expr: SelectExpr::Aggregate(AggExpr::count_star()), alias: None };
        assert_eq!(agg.output_name(), "COUNT(*)");
    }

    #[test]
    fn referenced_columns_deduplicate() {
        let e = Expr::binary(
            BinaryOp::Add,
            Expr::column("x"),
            Expr::binary(BinaryOp::Mul, Expr::column("x"), Expr::column("y")),
        );
        let mut cols = Vec::new();
        e.referenced_columns(&mut cols);
        assert_eq!(cols, vec!["x".to_owned(), "y".to_owned()]);
    }

    #[test]
    fn query_display_round_readable() {
        let q = Query {
            select: vec![
                SelectItem { expr: SelectExpr::Scalar(Expr::column("country")), alias: None },
                SelectItem {
                    expr: SelectExpr::Aggregate(AggExpr::count_star()),
                    alias: Some("c".into()),
                },
            ],
            from: "data".into(),
            where_clause: None,
            group_by: vec![Expr::column("country")],
            having: None,
            order_by: vec![OrderKey { expr: Expr::column("c"), desc: true }],
            limit: Some(10),
        };
        assert_eq!(
            q.to_string(),
            "SELECT country, COUNT(*) AS c FROM data GROUP BY country ORDER BY c DESC LIMIT 10"
        );
    }
}
