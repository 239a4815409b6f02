//! Wire codecs for expressions and analyzed queries.
//!
//! Queries cross the §4 process boundary fully *decoded*: the driver
//! parses and analyzes once, and the [`AnalyzedQuery`] — group-by keys,
//! aggregates, output mapping, filter — travels as bytes. No worker
//! re-parses SQL on any hop: text frames are smaller, but planning a query
//! costs a worker more than decoding it, and a tree ships text slower (the
//! measurement is ROADMAP item 7's). The [`Restriction`] merge servers
//! prune by is a pure function of the filter, and the slots a table holds
//! of the aggregates, so neither is shipped: decoding derives them the way
//! `analyze` does, and a frame cannot carry either disagreeing with what it
//! is derived from.
//!
//! Expressions are recursive, and the wire contract says corrupt bytes
//! must yield `Err`, never a crash: a hand-crafted frame of nested unary
//! operators costs only two bytes per level, so an unbounded recursive
//! decode could blow the stack long before running out of input. Decoding
//! therefore tracks an explicit depth and fails past [`MAX_DEPTH`], the
//! bound the parser holds too.

use crate::analyze::{lower, AnalyzedQuery, OutputCol, Slot, SlotClass};
use crate::ast::{AggExpr, AggFunc, BinaryOp, Expr, UnaryOp};
use crate::restriction::Restriction;
use pd_common::wire::{Decode, Encode, Reader};
use pd_common::{Error, Result, Value};

/// Maximum nesting of an expression tree: the edges from its root down to
/// its deepest node, parsed or decoded.
pub const MAX_DEPTH: usize = 256;

fn depth_guard(depth: usize) -> Result<()> {
    if depth > MAX_DEPTH {
        return Err(Error::Data(format!("wire: expression nesting exceeds {MAX_DEPTH}")));
    }
    Ok(())
}

const EXPR_COLUMN: u8 = 0;
const EXPR_LITERAL: u8 = 1;
const EXPR_CALL: u8 = 2;
const EXPR_UNARY: u8 = 3;
const EXPR_BINARY: u8 = 4;
const EXPR_IN_LIST: u8 = 5;

impl Encode for UnaryOp {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            UnaryOp::Not => 0,
            UnaryOp::Neg => 1,
        });
    }
}

impl Decode for UnaryOp {
    fn decode(r: &mut Reader<'_>) -> Result<UnaryOp> {
        match r.u8()? {
            0 => Ok(UnaryOp::Not),
            1 => Ok(UnaryOp::Neg),
            other => Err(Error::Data(format!("wire: invalid unary-op tag {other}"))),
        }
    }
}

impl Encode for BinaryOp {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            BinaryOp::Add => 0,
            BinaryOp::Sub => 1,
            BinaryOp::Mul => 2,
            BinaryOp::Div => 3,
            BinaryOp::Eq => 4,
            BinaryOp::Ne => 5,
            BinaryOp::Lt => 6,
            BinaryOp::Le => 7,
            BinaryOp::Gt => 8,
            BinaryOp::Ge => 9,
            BinaryOp::And => 10,
            BinaryOp::Or => 11,
        });
    }
}

impl Decode for BinaryOp {
    fn decode(r: &mut Reader<'_>) -> Result<BinaryOp> {
        Ok(match r.u8()? {
            0 => BinaryOp::Add,
            1 => BinaryOp::Sub,
            2 => BinaryOp::Mul,
            3 => BinaryOp::Div,
            4 => BinaryOp::Eq,
            5 => BinaryOp::Ne,
            6 => BinaryOp::Lt,
            7 => BinaryOp::Le,
            8 => BinaryOp::Gt,
            9 => BinaryOp::Ge,
            10 => BinaryOp::And,
            11 => BinaryOp::Or,
            other => return Err(Error::Data(format!("wire: invalid binary-op tag {other}"))),
        })
    }
}

impl Encode for Expr {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Expr::Column(name) => {
                out.push(EXPR_COLUMN);
                name.encode(out);
            }
            Expr::Literal(value) => {
                out.push(EXPR_LITERAL);
                value.encode(out);
            }
            Expr::Call { name, args } => {
                out.push(EXPR_CALL);
                name.encode(out);
                args.encode(out);
            }
            Expr::Unary { op, expr } => {
                out.push(EXPR_UNARY);
                op.encode(out);
                expr.encode(out);
            }
            Expr::Binary { op, lhs, rhs } => {
                out.push(EXPR_BINARY);
                op.encode(out);
                lhs.encode(out);
                rhs.encode(out);
            }
            Expr::InList { expr, list, negated } => {
                out.push(EXPR_IN_LIST);
                expr.encode(out);
                list.encode(out);
                negated.encode(out);
            }
        }
    }
}

impl Decode for Expr {
    fn decode(r: &mut Reader<'_>) -> Result<Expr> {
        decode_expr(r, 0)
    }
}

fn decode_expr(r: &mut Reader<'_>, depth: usize) -> Result<Expr> {
    depth_guard(depth)?;
    Ok(match r.u8()? {
        EXPR_COLUMN => Expr::Column(String::decode(r)?),
        EXPR_LITERAL => Expr::Literal(Value::decode(r)?),
        EXPR_CALL => {
            let name = String::decode(r)?;
            Expr::Call { name, args: decode_expr_vec(r, depth + 1)? }
        }
        EXPR_UNARY => {
            let op = UnaryOp::decode(r)?;
            Expr::Unary { op, expr: Box::new(decode_expr(r, depth + 1)?) }
        }
        EXPR_BINARY => {
            let op = BinaryOp::decode(r)?;
            let lhs = Box::new(decode_expr(r, depth + 1)?);
            let rhs = Box::new(decode_expr(r, depth + 1)?);
            Expr::Binary { op, lhs, rhs }
        }
        EXPR_IN_LIST => {
            let expr = Box::new(decode_expr(r, depth + 1)?);
            let list = decode_expr_vec(r, depth + 1)?;
            let negated = bool::decode(r)?;
            Expr::InList { expr, list, negated }
        }
        other => return Err(Error::Data(format!("wire: invalid expr tag {other}"))),
    })
}

fn decode_expr_vec(r: &mut Reader<'_>, depth: usize) -> Result<Vec<Expr>> {
    let len = r.u64()?;
    let len = r.check_len(len, 1)?;
    // Pre-allocation bounded by the frame's actual bytes (see the generic
    // `Vec` decode in `pd_common::wire`): corrupt lengths must not reserve.
    let mut out = Vec::with_capacity(len.min(r.remaining() / std::mem::size_of::<Expr>()));
    for _ in 0..len {
        out.push(decode_expr(r, depth)?);
    }
    Ok(out)
}

// --- analyzed queries -------------------------------------------------------
//
// The §4 tree ships the *analyzed* query — keys, aggregates, filter,
// output mapping — instead of SQL text: workers execute it directly (no
// re-parse on every hop) and merge servers read the restriction its filter
// implies to prune subtrees whose shards cannot match.

impl Encode for AggFunc {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            AggFunc::Count => 0,
            AggFunc::Sum => 1,
            AggFunc::Min => 2,
            AggFunc::Max => 3,
            AggFunc::Avg => 4,
        });
    }
}

impl Decode for AggFunc {
    fn decode(r: &mut Reader<'_>) -> Result<AggFunc> {
        Ok(match r.u8()? {
            0 => AggFunc::Count,
            1 => AggFunc::Sum,
            2 => AggFunc::Min,
            3 => AggFunc::Max,
            4 => AggFunc::Avg,
            other => return Err(Error::Data(format!("wire: invalid agg-func tag {other}"))),
        })
    }
}

impl Encode for AggExpr {
    fn encode(&self, out: &mut Vec<u8>) {
        self.func.encode(out);
        self.arg.encode(out);
        self.distinct.encode(out);
    }
}

impl Decode for AggExpr {
    fn decode(r: &mut Reader<'_>) -> Result<AggExpr> {
        Ok(AggExpr {
            func: AggFunc::decode(r)?,
            arg: Option::<Expr>::decode(r)?,
            distinct: bool::decode(r)?,
        })
    }
}

/// A slot as its class tag and argument: what names a partial's state
/// column on the wire, for the asking query to find it by.
impl Encode for Slot {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.class as u8);
        self.arg.encode(out);
    }
}

/// A class without its argument shape (`count` takes none, every other
/// class one) is refused.
impl Decode for Slot {
    fn decode(r: &mut Reader<'_>) -> Result<Slot> {
        use SlotClass::*;
        let tag = r.u8()?;
        let class = [Count, Sum, Min, Max, Distinct].into_iter().find(|c| *c as u8 == tag);
        let class = class.ok_or_else(|| Error::Data(format!("wire: invalid slot tag {tag}")))?;
        let arg = Option::<Expr>::decode(r)?;
        if arg.is_some() == (class == Count) {
            return Err(Error::Data(format!("wire: slot {class:?} with argument {arg:?}")));
        }
        Ok(Slot { class, arg })
    }
}

impl Encode for OutputCol {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            OutputCol::Key(i) => {
                out.push(0);
                i.encode(out);
            }
            OutputCol::Agg(i) => {
                out.push(1);
                i.encode(out);
            }
        }
    }
}

impl Decode for OutputCol {
    fn decode(r: &mut Reader<'_>) -> Result<OutputCol> {
        Ok(match r.u8()? {
            0 => OutputCol::Key(usize::decode(r)?),
            1 => OutputCol::Agg(usize::decode(r)?),
            other => return Err(Error::Data(format!("wire: invalid output-col tag {other}"))),
        })
    }
}

impl Encode for AnalyzedQuery {
    fn encode(&self, out: &mut Vec<u8>) {
        self.table.encode(out);
        self.keys.encode(out);
        self.aggs.encode(out);
        self.output.encode(out);
        self.filter.encode(out);
        self.having.encode(out);
        self.order_by.encode(out);
        self.limit.encode(out);
    }
}

impl Decode for AnalyzedQuery {
    fn decode(r: &mut Reader<'_>) -> Result<AnalyzedQuery> {
        let table = String::decode(r)?;
        let keys = Vec::<Expr>::decode(r)?;
        let aggs = Vec::<AggExpr>::decode(r)?;
        let (slots, reads) = lower(&aggs)?;
        let output = Vec::<(String, OutputCol)>::decode(r)?;
        let filter = Option::<Expr>::decode(r)?;
        Ok(AnalyzedQuery {
            table,
            keys,
            aggs,
            slots,
            reads,
            output,
            restriction: filter.as_ref().map_or(Restriction::True, Restriction::from_expr),
            filter,
            having: Option::<Expr>::decode(r)?,
            order_by: Vec::<(usize, bool)>::decode(r)?,
            limit: Option::<usize>::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_common::wire::{from_bytes, to_bytes};

    fn sample_expr() -> Expr {
        Expr::Binary {
            op: BinaryOp::And,
            lhs: Box::new(Expr::InList {
                expr: Box::new(Expr::column("country")),
                list: vec![Expr::literal("DE"), Expr::literal("US")],
                negated: true,
            }),
            rhs: Box::new(Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(Expr::binary(
                    BinaryOp::Gt,
                    Expr::call("date", vec![Expr::column("timestamp")]),
                    Expr::literal(17i64),
                )),
            }),
        }
    }

    #[test]
    fn exprs_round_trip() {
        let expr = sample_expr();
        let back: Expr = from_bytes(&to_bytes(&expr)).unwrap();
        assert_eq!(back, expr);
        assert_eq!(back.canonical(), expr.canonical());
    }

    #[test]
    fn the_restriction_is_derived_from_the_filter_not_shipped() {
        for sql in [
            "SELECT k, COUNT(*) c FROM t WHERE k IN ('a','b') AND n > 3 GROUP BY k",
            "SELECT k, COUNT(*) c FROM t WHERE NOT (k = 'x' OR n != 0) GROUP BY k",
            "SELECT COUNT(*) FROM t",
        ] {
            let analyzed = crate::analyze(&crate::parse_query(sql).unwrap()).unwrap();
            // A query whose halves disagree in memory cannot put that on
            // the wire: the receiver prunes by what the filter implies.
            let mut tampered = analyzed.clone();
            tampered.restriction = Restriction::In {
                field: Expr::column("k"),
                values: vec![Value::from("nowhere")],
                negated: false,
            };
            assert_eq!(to_bytes(&tampered), to_bytes(&analyzed), "{sql}");
            let back: AnalyzedQuery = from_bytes(&to_bytes(&tampered)).unwrap();
            assert_eq!(back, analyzed, "{sql}");
        }
    }

    #[test]
    fn deep_nesting_bombs_are_rejected_not_overflowed() {
        // MAX_DEPTH+64 nested `NOT`s: two bytes per level, a few hundred
        // bytes total — decoding must fail gracefully, not blow the stack.
        let mut bytes = Vec::new();
        for _ in 0..(MAX_DEPTH + 64) {
            bytes.push(super::EXPR_UNARY);
            bytes.push(0); // UnaryOp::Not
        }
        bytes.push(super::EXPR_COLUMN);
        to_bytes(&String::from("c")).iter().for_each(|b| bytes.push(*b));
        let err = from_bytes::<Expr>(&bytes).unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");
    }

    #[test]
    fn truncations_error_cleanly() {
        let bytes = to_bytes(&sample_expr());
        for cut in 0..bytes.len() {
            assert!(from_bytes::<Expr>(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn analyzed_queries_round_trip() {
        for sql in [
            "SELECT country, COUNT(*) as c FROM data GROUP BY country ORDER BY c DESC LIMIT 10",
            "SELECT date(timestamp) as date, COUNT(*), SUM(latency) FROM data \
             GROUP BY date ORDER BY date ASC LIMIT 10",
            "SELECT k, AVG(x) a, MIN(n) mn FROM t WHERE k IN ('a','b') AND n > 3 \
             GROUP BY k HAVING a > 1.5 ORDER BY a DESC",
            "SELECT COUNT(*) FROM t WHERE NOT (k = 'x' OR n != 0)",
        ] {
            let analyzed = crate::analyze(&crate::parse_query(sql).unwrap()).unwrap();
            let back: AnalyzedQuery = from_bytes(&to_bytes(&analyzed)).unwrap();
            assert_eq!(back, analyzed, "{sql}");
        }
    }

    #[test]
    fn analyzed_query_truncations_error_cleanly() {
        let analyzed = crate::analyze(
            &crate::parse_query("SELECT k, COUNT(*) c FROM t WHERE k = 'a' GROUP BY k").unwrap(),
        )
        .unwrap();
        let bytes = to_bytes(&analyzed);
        for cut in 0..bytes.len() {
            assert!(from_bytes::<AnalyzedQuery>(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }
}
