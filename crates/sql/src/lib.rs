//! The SQL subset PowerDrill's engine processes (§2.4, §4, §5).
//!
//! The Web UI the paper describes translates drag'n'drop interactions into
//! group-by SQL queries of a constrained shape:
//!
//! ```sql
//! SELECT search_string, COUNT(*) as c FROM data
//! WHERE search_string IN ("la redoute", "voyages sncf")
//! GROUP BY search_string ORDER BY c DESC LIMIT 10;
//! ```
//!
//! This crate provides the full front end for that subset:
//!
//! - [`lexer`] / [`parser`] — text → [`ast::Query`];
//! - [`ast`] — expressions, aggregates, queries, with canonical SQL
//!   rendering (`Display`), which doubles as the key for materialized
//!   virtual fields (§5);
//! - [`eval`] — scalar expression evaluation over row contexts, including
//!   the scalar functions (`date(...)`, etc.) the paper's Query 2 uses;
//! - [`restriction`] — normalization of `WHERE` clauses into the
//!   `AND / OR / NOT / IN / NOT IN / = / !=` fragment that drives chunk
//!   skipping (§2.4, §5 "Complex Expressions");
//! - [`analyze`](module@crate::analyze) — semantic analysis into an executable plan shape;
//! - [`rewrite`] — the §4 two-level rewrite for distributed execution;
//! - [`codec`] — wire codecs ([`pd_common::wire`]) for expressions and
//!   restrictions, with depth-bounded decoding so corrupt frames cannot
//!   crash a merge server.

#![forbid(unsafe_code)]

pub mod analyze;
pub mod ast;
pub mod codec;
pub mod eval;
pub mod lexer;
pub mod parser;
pub mod restriction;
pub mod rewrite;

pub use analyze::{analyze, AnalyzedQuery, OutputCol, Slot, SlotClass, SlotRef};
pub use ast::{
    AggExpr, AggFunc, BinaryOp, Expr, OrderKey, Query, SelectExpr, SelectItem, TableRef, UnaryOp,
};
pub use eval::{eval_expr, truthy, values_compare, values_equal, RowContext};
pub use parser::parse_query;
pub use restriction::Restriction;
pub use rewrite::{distributed_plan, DistributedPlan, MergeOp};
