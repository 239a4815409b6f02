//! Normalization of `WHERE` clauses into the skipping fragment.
//!
//! §2.4: *"the system provides special support of the following operators:
//! AND, OR, NOT, IN, NOT IN, =, !="* — and §5 "Complex Expressions":
//! *"User-given expressions are split apart by these special operators as
//! far as possible"*, the remaining pieces being fields or materialized
//! building-block expressions.
//!
//! [`Restriction::from_expr`] performs exactly that split. `NOT` is pushed
//! down with De Morgan's laws; `=` / `!=` become one-element `IN` /
//! `NOT IN`. As an extension beyond the paper's operator list, order
//! comparisons (`<`, `<=`, `>`, `>=`) against literals become
//! [`Restriction::Range`] nodes: sorted dictionaries make a value range an
//! id range, so chunk min/max ids can skip — subsuming the min/max "small
//! materialized aggregates" technique the paper discusses in §2.1.
//! Everything else (arithmetic predicates, `contains(...)` calls) becomes
//! [`Restriction::Opaque`] — still evaluated row by row, but useless for
//! chunk skipping.

use crate::ast::{BinaryOp, Expr, UnaryOp};
use pd_common::Value;

/// A `WHERE` clause normalized for chunk-level reasoning.
#[derive(Debug, Clone, PartialEq)]
pub enum Restriction {
    /// No restriction — every chunk fully active.
    True,
    /// Conjunction.
    And(Vec<Restriction>),
    /// Disjunction.
    Or(Vec<Restriction>),
    /// `field [NOT] IN (values)`; `field` may be any materialized
    /// expression (§5), identified by its canonical text.
    In { field: Expr, values: Vec<Value>, negated: bool },
    /// `min <= field <= max` with `(value, inclusive)` bounds (either side
    /// optional). An extension: not part of the paper's special-operator
    /// list, but expressible on the same data structures.
    Range { field: Expr, min: Option<(Value, bool)>, max: Option<(Value, bool)> },
    /// A predicate the chunk dictionaries cannot reason about. The chunk
    /// must be scanned (rows are still filtered individually).
    Opaque,
}

impl Restriction {
    /// Normalize a `WHERE` expression.
    pub fn from_expr(expr: &Expr) -> Restriction {
        build(expr, false)
    }
}

/// Recursive normalization carrying a negation flag (De Morgan push-down).
fn build(expr: &Expr, negate: bool) -> Restriction {
    match expr {
        Expr::Unary { op: UnaryOp::Not, expr } => build(expr, !negate),
        Expr::Binary { op: BinaryOp::And, lhs, rhs } => {
            let (l, r) = (build(lhs, negate), build(rhs, negate));
            if negate {
                or2(l, r)
            } else {
                and2(l, r)
            }
        }
        Expr::Binary { op: BinaryOp::Or, lhs, rhs } => {
            let (l, r) = (build(lhs, negate), build(rhs, negate));
            if negate {
                and2(l, r)
            } else {
                or2(l, r)
            }
        }
        Expr::Binary { op: BinaryOp::Eq, lhs, rhs } => eq_restriction(lhs, rhs, negate),
        Expr::Binary { op: BinaryOp::Ne, lhs, rhs } => eq_restriction(lhs, rhs, !negate),
        Expr::Binary {
            op: op @ (BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge),
            lhs,
            rhs,
        } => range_restriction(*op, lhs, rhs, negate),
        Expr::InList { expr, list, negated } => {
            let mut values = Vec::with_capacity(list.len());
            for item in list {
                match item {
                    Expr::Literal(v) => values.push(v.clone()),
                    _ => return Restriction::Opaque,
                }
            }
            if matches!(**expr, Expr::Literal(_)) {
                return Restriction::Opaque;
            }
            Restriction::In { field: (**expr).clone(), values, negated: *negated != negate }
        }
        _ => Restriction::Opaque,
    }
}

/// `lhs = rhs` (or `!=` when `negated`): one side must be a literal, the
/// other becomes the field expression.
fn eq_restriction(lhs: &Expr, rhs: &Expr, negated: bool) -> Restriction {
    let (field, value) = match (lhs, rhs) {
        (Expr::Literal(v), f) if !matches!(f, Expr::Literal(_)) => (f, v),
        (f, Expr::Literal(v)) if !matches!(f, Expr::Literal(_)) => (f, v),
        _ => return Restriction::Opaque,
    };
    Restriction::In { field: field.clone(), values: vec![value.clone()], negated }
}

/// `lhs op rhs` with one literal side becomes a one-sided range. Negation
/// flips the comparison (`NOT (x < v)` is `x >= v`).
fn range_restriction(op: BinaryOp, lhs: &Expr, rhs: &Expr, negate: bool) -> Restriction {
    // Normalize to `field op literal`.
    let (field, value, op) = match (lhs, rhs) {
        (f, Expr::Literal(v)) if !matches!(f, Expr::Literal(_)) => (f, v, op),
        (Expr::Literal(v), f) if !matches!(f, Expr::Literal(_)) => {
            // `lit < field` is `field > lit`, etc.
            let flipped = match op {
                BinaryOp::Lt => BinaryOp::Gt,
                BinaryOp::Le => BinaryOp::Ge,
                BinaryOp::Gt => BinaryOp::Lt,
                BinaryOp::Ge => BinaryOp::Le,
                other => other,
            };
            (f, v, flipped)
        }
        _ => return Restriction::Opaque,
    };
    let op = if negate {
        match op {
            BinaryOp::Lt => BinaryOp::Ge,
            BinaryOp::Le => BinaryOp::Gt,
            BinaryOp::Gt => BinaryOp::Le,
            BinaryOp::Ge => BinaryOp::Lt,
            other => other,
        }
    } else {
        op
    };
    let (min, max) = match op {
        BinaryOp::Lt => (None, Some((value.clone(), false))),
        BinaryOp::Le => (None, Some((value.clone(), true))),
        BinaryOp::Gt => (Some((value.clone(), false)), None),
        BinaryOp::Ge => (Some((value.clone(), true)), None),
        _ => return Restriction::Opaque,
    };
    Restriction::Range { field: field.clone(), min, max }
}

fn and2(l: Restriction, r: Restriction) -> Restriction {
    let mut children = Vec::new();
    for c in [l, r] {
        match c {
            Restriction::True => {}
            Restriction::And(mut inner) => children.append(&mut inner),
            other => children.push(other),
        }
    }
    match children.len() {
        0 => Restriction::True,
        1 => children.pop().expect("len 1"),
        _ => Restriction::And(children),
    }
}

fn or2(l: Restriction, r: Restriction) -> Restriction {
    let mut children = Vec::new();
    for c in [l, r] {
        match c {
            Restriction::Or(mut inner) => children.append(&mut inner),
            other => children.push(other),
        }
    }
    if children.iter().any(|c| matches!(c, Restriction::True)) {
        return Restriction::True;
    }
    match children.len() {
        0 => Restriction::True,
        1 => children.pop().expect("len 1"),
        _ => Restriction::Or(children),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn restriction_of(where_sql: &str) -> Restriction {
        let q = parse_query(&format!("SELECT a FROM t WHERE {where_sql}")).unwrap();
        Restriction::from_expr(&q.where_clause.unwrap())
    }

    #[test]
    fn in_list_normalizes() {
        let r = restriction_of(r#"search_string IN ("la redoute", "voyages sncf")"#);
        match r {
            Restriction::In { field, values, negated } => {
                assert_eq!(field, Expr::column("search_string"));
                assert_eq!(values, vec![Value::from("la redoute"), Value::from("voyages sncf")]);
                assert!(!negated);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn equality_becomes_single_in() {
        let r = restriction_of("country = 'DE'");
        assert_eq!(
            r,
            Restriction::In {
                field: Expr::column("country"),
                values: vec![Value::from("DE")],
                negated: false
            }
        );
        let r = restriction_of("'DE' = country");
        assert!(matches!(r, Restriction::In { negated: false, .. }));
        let r = restriction_of("country != 'DE'");
        assert!(matches!(r, Restriction::In { negated: true, .. }));
    }

    #[test]
    fn not_pushes_down_de_morgan() {
        let r = restriction_of("NOT (country = 'DE' AND lang = 'de')");
        match r {
            Restriction::Or(children) => {
                assert_eq!(children.len(), 2);
                assert!(children
                    .iter()
                    .all(|c| matches!(c, Restriction::In { negated: true, .. })));
            }
            other => panic!("{other:?}"),
        }
        let r = restriction_of("NOT country IN ('US')");
        assert!(matches!(r, Restriction::In { negated: true, .. }));
        let r = restriction_of("NOT NOT country = 'US'");
        assert!(matches!(r, Restriction::In { negated: false, .. }));
    }

    #[test]
    fn conjunctions_flatten() {
        let r = restriction_of("a = 1 AND b = 2 AND c = 3");
        match r {
            Restriction::And(children) => assert_eq!(children.len(), 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn virtual_field_expressions_are_fields() {
        // §5: `date(timestamp) IN ('2012-02-29', ...)` skips via the
        // materialized virtual field's chunk dictionaries.
        let r = restriction_of("date(timestamp) IN ('2012-02-29')");
        match r {
            Restriction::In { field, .. } => {
                assert_eq!(field.canonical(), "date(timestamp)");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn comparisons_become_ranges() {
        let r = restriction_of("latency > 100");
        assert_eq!(
            r,
            Restriction::Range {
                field: Expr::column("latency"),
                min: Some((Value::Int(100), false)),
                max: None
            }
        );
        let r = restriction_of("latency <= 100");
        assert!(matches!(r, Restriction::Range { min: None, max: Some((_, true)), .. }));
        // Literal on the left flips the comparison.
        let r = restriction_of("100 < latency");
        assert!(matches!(r, Restriction::Range { min: Some((_, false)), max: None, .. }));
        // Negation flips it too: NOT (x < v) == x >= v.
        let r = restriction_of("NOT latency < 100");
        assert!(matches!(r, Restriction::Range { min: Some((_, true)), max: None, .. }));
        let r = restriction_of("country = 'DE' AND latency > 100");
        match r {
            Restriction::And(children) => {
                assert!(matches!(children[0], Restriction::In { .. }));
                assert!(matches!(children[1], Restriction::Range { .. }));
            }
            other => panic!("{other:?}"),
        }
        // Column-to-column comparisons stay opaque.
        assert_eq!(restriction_of("latency > timestamp"), Restriction::Opaque);
    }

    #[test]
    fn literal_only_predicates_are_opaque() {
        assert_eq!(restriction_of("1 = 1"), Restriction::Opaque);
        assert_eq!(restriction_of("1 IN (1, 2)"), Restriction::Opaque);
    }

    #[test]
    fn non_literal_in_lists_are_opaque() {
        assert_eq!(restriction_of("a IN (b, 2)"), Restriction::Opaque);
    }
}
