//! Recursive-descent parser for the SQL subset.
//!
//! Grammar (keywords case-insensitive):
//!
//! ```text
//! query     := SELECT item (, item)* FROM table
//!              [WHERE expr] [GROUP BY expr (, expr)*] [HAVING expr]
//!              [ORDER BY order (, order)*] [LIMIT int] [;]
//! table     := ident
//! item      := (aggregate | expr) [[AS] ident]
//! aggregate := COUNT '(' '*' ')' | (COUNT|SUM|MIN|MAX|AVG) '(' [DISTINCT] expr ')'
//! order     := expr [ASC|DESC]
//! expr      := precedence-climbing over OR < AND < NOT < cmp/IN < +- < */ < unary
//! ```
//!
//! A subquery in `FROM`, `UNION`, and an expression nested deeper than the
//! wire decoder's [`MAX_DEPTH`] — as a tree (left-deep `a OR b OR …` chains
//! included) or as parser recursion (parentheses included) — are refused
//! as [`Error::Unsupported`]: every expression that parses crosses the wire.

use crate::ast::*;
use crate::codec::MAX_DEPTH;
use crate::lexer::{tokenize, Token};
use pd_common::{Error, Result, Value};

/// Parse a single SQL statement.
pub fn parse_query(input: &str) -> Result<Query> {
    let tokens = tokenize(input)?;
    if tokens.iter().any(|t| t.is_kw("union")) {
        return Err(Error::Unsupported("UNION".into()));
    }
    let mut p = Parser { tokens, pos: 0 };
    let q = p.parse_query()?;
    p.eat_if(|t| matches!(t, Token::Semicolon));
    if p.pos != p.tokens.len() {
        return Err(Error::Parse(format!("trailing tokens after query: {:?}", p.peek())));
    }
    Ok(q)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

/// An expression and its height: the edges from its root down to its
/// deepest node, the nesting the wire decoder counts.
type Parsed = (Expr, usize);

/// `op` over `expr`, a level above it.
fn unary(op: UnaryOp, (expr, height): Parsed) -> Result<Parsed> {
    Ok((Expr::Unary { op, expr: Box::new(expr) }, bounded(height + 1)?))
}

/// `depth`, if it is within [`MAX_DEPTH`].
fn bounded(depth: usize) -> Result<usize> {
    if depth > MAX_DEPTH {
        return Err(Error::Unsupported(format!("an expression nested deeper than {MAX_DEPTH}")));
    }
    Ok(depth)
}

const AGG_NAMES: [(&str, AggFunc); 5] = [
    ("count", AggFunc::Count),
    ("sum", AggFunc::Sum),
    ("min", AggFunc::Min),
    ("max", AggFunc::Max),
    ("avg", AggFunc::Avg),
];

/// Reserved words that terminate an expression / cannot be aliases.
const RESERVED: [&str; 16] = [
    "select", "from", "where", "group", "by", "having", "order", "limit", "as", "and", "or", "not",
    "in", "union", "all", "between",
];

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Result<&Token> {
        let t = self
            .tokens
            .get(self.pos)
            .ok_or_else(|| Error::Parse("unexpected end of query".into()))?;
        self.pos += 1;
        Ok(t)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_some_and(|t| t.is_kw(kw)) {
            self.pos += 1;
            return true;
        }
        false
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(Error::Parse(format!("expected `{}`, found {:?}", kw.to_uppercase(), self.peek())))
        }
    }

    fn eat_if(&mut self, pred: impl Fn(&Token) -> bool) -> bool {
        if self.peek().is_some_and(pred) {
            self.pos += 1;
            return true;
        }
        false
    }

    fn expect(&mut self, token: Token) -> Result<()> {
        if self.eat_if(|t| *t == token) {
            Ok(())
        } else {
            Err(Error::Parse(format!("expected {token:?}, found {:?}", self.peek())))
        }
    }

    fn parse_query(&mut self) -> Result<Query> {
        self.expect_kw("select")?;
        let mut select = vec![self.parse_select_item()?];
        while self.eat_if(|t| matches!(t, Token::Comma)) {
            select.push(self.parse_select_item()?);
        }
        self.expect_kw("from")?;
        let from = match self.next()? {
            Token::Ident(name) if !is_reserved(name) => name.clone(),
            // No engine reads a subquery: answering the outer query over the
            // whole table would be a wrong answer.
            Token::LParen => return Err(Error::Unsupported("a subquery in FROM".into())),
            other => return Err(Error::Parse(format!("expected table name, found {other:?}"))),
        };
        let where_clause = if self.eat_kw("where") { Some(self.expression()?) } else { None };
        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            group_by.push(self.expression()?);
            while self.eat_if(|t| matches!(t, Token::Comma)) {
                group_by.push(self.expression()?);
            }
        }
        let having = if self.eat_kw("having") { Some(self.expression()?) } else { None };
        let mut order_by = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let expr = self.expression()?;
                let desc = if self.eat_kw("desc") {
                    true
                } else {
                    self.eat_kw("asc");
                    false
                };
                order_by.push(OrderKey { expr, desc });
                if !self.eat_if(|t| matches!(t, Token::Comma)) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("limit") {
            match self.next()? {
                Token::Int(n) if *n >= 0 => Some(*n as usize),
                other => {
                    return Err(Error::Parse(format!(
                        "LIMIT expects a non-negative integer, found {other:?}"
                    )))
                }
            }
        } else {
            None
        };
        Ok(Query { select, from, where_clause, group_by, having, order_by, limit })
    }

    fn parse_select_item(&mut self) -> Result<SelectItem> {
        let expr = if let Some(agg) = self.try_parse_aggregate()? {
            SelectExpr::Aggregate(agg)
        } else {
            SelectExpr::Scalar(self.expression()?)
        };
        let alias = if self.eat_kw("as") {
            match self.next()? {
                Token::Ident(a) if !is_reserved(a) => Some(a.clone()),
                other => return Err(Error::Parse(format!("expected alias, found {other:?}"))),
            }
        } else if let Some(Token::Ident(a)) = self.peek() {
            // Bare alias: `COUNT(*) c`.
            if !is_reserved(a) {
                let a = a.clone();
                self.pos += 1;
                Some(a)
            } else {
                None
            }
        } else {
            None
        };
        Ok(SelectItem { expr, alias })
    }

    /// If the next tokens form an aggregate call, consume and return it.
    fn try_parse_aggregate(&mut self) -> Result<Option<AggExpr>> {
        let Some(Token::Ident(name)) = self.peek() else {
            return Ok(None);
        };
        let Some((_, func)) =
            AGG_NAMES.iter().find(|(kw, _)| name.eq_ignore_ascii_case(kw)).copied()
        else {
            return Ok(None);
        };
        if self.tokens.get(self.pos + 1) != Some(&Token::LParen) {
            return Ok(None);
        }
        self.pos += 2; // name + (
        if func == AggFunc::Count && self.eat_if(|t| matches!(t, Token::Star)) {
            self.expect(Token::RParen)?;
            return Ok(Some(AggExpr::count_star()));
        }
        let distinct = self.eat_kw("distinct");
        let arg = self.expression()?;
        self.expect(Token::RParen)?;
        if distinct && func != AggFunc::Count {
            return Err(Error::Unsupported(format!("{}(DISTINCT ...)", func.name())));
        }
        Ok(Some(AggExpr { func, arg: Some(arg), distinct }))
    }

    /// An expression that is a whole clause item, or an aggregate's argument.
    fn expression(&mut self) -> Result<Expr> {
        Ok(self.parse_expr(0, 0)?.0)
    }

    /// Precedence-climbing expression parser. `level` counts the calls
    /// nested around this one. `IN`, `BETWEEN` and calls are parsed out of
    /// line, so that each level of recursion costs little stack even
    /// unoptimized.
    fn parse_expr(&mut self, min_prec: u8, level: usize) -> Result<Parsed> {
        let mut lhs = self.parse_unary(level)?;
        loop {
            // `[NOT] IN (...)` and `[NOT] BETWEEN a AND b` bind like
            // comparisons.
            let saved = self.pos;
            let negated = self.eat_kw("not");
            if BinaryOp::Eq.precedence() >= min_prec {
                if self.eat_kw("in") {
                    lhs = self.parse_in(lhs, negated, level)?;
                    continue;
                }
                if self.eat_kw("between") {
                    lhs = self.parse_between(lhs, negated, level)?;
                    continue;
                }
            }
            if negated {
                self.pos = saved;
                return Ok(lhs);
            }
            let Some(op) = self.peek_binary_op().filter(|op| op.precedence() >= min_prec) else {
                return Ok(lhs);
            };
            self.pos += 1; // consume the operator token (AND/OR are single idents too)
            let rhs = self.parse_expr(op.precedence() + 1, level + 1)?;
            // A left-deep chain grows here, one level per operator, with
            // no recursion: the height, not the level, bounds it.
            let height = bounded(1 + lhs.1.max(rhs.1))?;
            lhs = (Expr::binary(op, lhs.0, rhs.0), height);
        }
    }

    /// The `(...)` of `expr [NOT] IN (...)`.
    fn parse_in(&mut self, (expr, height): Parsed, negated: bool, level: usize) -> Result<Parsed> {
        self.expect(Token::LParen)?;
        let (list, list_height) = self.parse_list(level + 1)?;
        self.expect(Token::RParen)?;
        let height = bounded(1 + height.max(list_height))?;
        Ok((Expr::InList { expr: Box::new(expr), list, negated }, height))
    }

    /// The `a AND b` of `x [NOT] BETWEEN a AND b`, desugared to
    /// `[NOT] (x >= a AND x <= b)`: two levels above its operands, three
    /// under `NOT`.
    fn parse_between(&mut self, x: Parsed, negated: bool, level: usize) -> Result<Parsed> {
        // Bounds parse above AND precedence so the separating AND is not
        // swallowed.
        let low = self.parse_expr(BinaryOp::Eq.precedence(), level + 1)?;
        self.expect_kw("and")?;
        let high = self.parse_expr(BinaryOp::Eq.precedence(), level + 1)?;
        let height = bounded(x.1.max(low.1).max(high.1) + 2 + usize::from(negated))?;
        let both = Expr::binary(
            BinaryOp::And,
            Expr::binary(BinaryOp::Ge, x.0.clone(), low.0),
            Expr::binary(BinaryOp::Le, x.0, high.0),
        );
        let expr =
            if negated { Expr::Unary { op: UnaryOp::Not, expr: Box::new(both) } } else { both };
        Ok((expr, height))
    }

    /// `expr (, expr)*`, and the greatest height among them.
    fn parse_list(&mut self, level: usize) -> Result<(Vec<Expr>, usize)> {
        let mut list = Vec::new();
        let mut height = 0;
        loop {
            let (expr, expr_height) = self.parse_expr(0, level)?;
            list.push(expr);
            height = height.max(expr_height);
            if !self.eat_if(|t| matches!(t, Token::Comma)) {
                return Ok((list, height));
            }
        }
    }

    fn peek_binary_op(&self) -> Option<BinaryOp> {
        match self.peek()? {
            Token::Plus => Some(BinaryOp::Add),
            Token::Minus => Some(BinaryOp::Sub),
            Token::Star => Some(BinaryOp::Mul),
            Token::Slash => Some(BinaryOp::Div),
            Token::Eq => Some(BinaryOp::Eq),
            Token::Ne => Some(BinaryOp::Ne),
            Token::Lt => Some(BinaryOp::Lt),
            Token::Le => Some(BinaryOp::Le),
            Token::Gt => Some(BinaryOp::Gt),
            Token::Ge => Some(BinaryOp::Ge),
            t if t.is_kw("and") => Some(BinaryOp::And),
            t if t.is_kw("or") => Some(BinaryOp::Or),
            _ => None,
        }
    }

    fn parse_unary(&mut self, level: usize) -> Result<Parsed> {
        bounded(level)?;
        if self.eat_kw("not") {
            // NOT binds tighter than AND but looser than comparisons.
            return unary(UnaryOp::Not, self.parse_expr(3, level + 1)?);
        }
        if self.eat_if(|t| matches!(t, Token::Minus)) {
            // Fold negation into numeric literals.
            return match self.parse_unary(level + 1)? {
                (Expr::Literal(Value::Int(v)), _) => Ok((Expr::Literal(Value::Int(-v)), 0)),
                (Expr::Literal(Value::Float(v)), _) => Ok((Expr::Literal(Value::Float(-v)), 0)),
                other => unary(UnaryOp::Neg, other),
            };
        }
        self.parse_primary(level)
    }

    fn parse_primary(&mut self, level: usize) -> Result<Parsed> {
        let expr = match self.next()? {
            Token::Int(v) => Expr::Literal(Value::Int(*v)),
            Token::Float(v) => Expr::Literal(Value::Float(*v)),
            Token::Str(s) => Expr::Literal(Value::Str(s.clone())),
            Token::LParen => {
                let parsed = self.parse_expr(0, level + 1)?;
                self.expect(Token::RParen)?;
                return Ok(parsed);
            }
            // `*` in primary position: the argument of `COUNT(*)` when it
            // appears in HAVING / ORDER BY expression context.
            Token::Star => Expr::Column("*".into()),
            Token::Ident(name) if is_reserved(name) => {
                return Err(Error::Parse(format!("unexpected keyword `{name}`")))
            }
            Token::Ident(name) => {
                let name = name.clone();
                if self.eat_if(|t| matches!(t, Token::LParen)) {
                    return self.parse_call(name, level);
                }
                Expr::Column(name)
            }
            other => return Err(Error::Parse(format!("unexpected token {other:?}"))),
        };
        Ok((expr, 0))
    }

    /// The arguments and `)` of a call to `name`.
    fn parse_call(&mut self, name: String, level: usize) -> Result<Parsed> {
        let name = name.to_lowercase();
        if self.eat_if(|t| matches!(t, Token::RParen)) {
            return Ok((Expr::Call { name, args: Vec::new() }, 0));
        }
        let (args, height) = self.parse_list(level + 1)?;
        self.expect(Token::RParen)?;
        Ok((Expr::Call { name, args }, bounded(height + 1)?))
    }
}

fn is_reserved(word: &str) -> bool {
    RESERVED.iter().any(|r| word.eq_ignore_ascii_case(r))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_section24_query() {
        let q = parse_query(
            r#"SELECT search_string, COUNT(*) as c FROM data
               WHERE search_string IN ("la redoute", "voyages sncf")
               GROUP BY search_string ORDER BY c DESC LIMIT 10;"#,
        )
        .unwrap();
        assert_eq!(q.select.len(), 2);
        assert_eq!(q.select[1].alias.as_deref(), Some("c"));
        assert_eq!(q.from, "data");
        assert!(matches!(q.where_clause, Some(Expr::InList { .. })));
        assert_eq!(q.group_by, vec![Expr::column("search_string")]);
        assert_eq!(q.order_by.len(), 1);
        assert!(q.order_by[0].desc);
        assert_eq!(q.limit, Some(10));
    }

    #[test]
    fn parses_paper_experiment_queries() {
        // Query 1
        let q1 = parse_query(
            "SELECT country, COUNT(*) as c FROM data GROUP BY country ORDER BY c DESC LIMIT 10;",
        )
        .unwrap();
        assert_eq!(q1.group_by.len(), 1);
        // Query 2
        let q2 = parse_query(
            "SELECT date(timestamp) as date, COUNT(*), SUM(latency) FROM data
             GROUP BY date ORDER BY date ASC LIMIT 10;",
        )
        .unwrap();
        assert_eq!(q2.select.len(), 3);
        assert!(matches!(
            q2.select[0].expr,
            SelectExpr::Scalar(Expr::Call { ref name, .. }) if name == "date"
        ));
        assert!(!q2.order_by[0].desc);
        // Query 3
        let q3 = parse_query(
            "SELECT table_name, COUNT(*) as c FROM data GROUP BY table_name ORDER BY c DESC LIMIT 10;",
        )
        .unwrap();
        assert_eq!(q3.limit, Some(10));
    }

    /// The paper writes its §4 rewrite as SQL over a `UNION ALL` of shard
    /// subqueries; the engine runs that rewrite on slots, and no engine
    /// reads a subquery, so the text is refused before analysis.
    #[test]
    fn a_from_subquery_or_a_union_is_unsupported() {
        for sql in [
            "SELECT a, SUM(x) FROM
               ((SELECT a, SUM(x) as x FROM S1 GROUP BY a)
                UNION ALL
                (SELECT a, SUM(x) as x FROM S2 GROUP BY a))
             GROUP BY a;",
            "SELECT a, COUNT(*) FROM (SELECT a FROM t WHERE a = 1) GROUP BY a",
            "SELECT a, COUNT(*) FROM t GROUP BY a UNION ALL SELECT a, COUNT(*) FROM u GROUP BY a",
        ] {
            let err = parse_query(sql).unwrap_err();
            assert!(matches!(err, Error::Unsupported(_)), "{sql}: {err}");
        }
    }

    #[test]
    fn operator_precedence() {
        let q = parse_query("SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3").unwrap();
        // OR(a=1, AND(b=2, c=3))
        match q.where_clause.unwrap() {
            Expr::Binary { op: BinaryOp::Or, rhs, .. } => {
                assert!(matches!(*rhs, Expr::Binary { op: BinaryOp::And, .. }));
            }
            other => panic!("bad tree: {other:?}"),
        }
        let q = parse_query("SELECT a FROM t WHERE a + b * c = 7").unwrap();
        match q.where_clause.unwrap() {
            Expr::Binary { op: BinaryOp::Eq, lhs, .. } => match *lhs {
                Expr::Binary { op: BinaryOp::Add, rhs, .. } => {
                    assert!(matches!(*rhs, Expr::Binary { op: BinaryOp::Mul, .. }));
                }
                other => panic!("bad arithmetic tree: {other:?}"),
            },
            other => panic!("bad tree: {other:?}"),
        }
    }

    #[test]
    fn not_in_and_not() {
        let q = parse_query("SELECT a FROM t WHERE country NOT IN ('US', 'DE')").unwrap();
        assert!(matches!(q.where_clause.unwrap(), Expr::InList { negated: true, .. }));
        let q = parse_query("SELECT a FROM t WHERE NOT country = 'US'").unwrap();
        assert!(matches!(q.where_clause.unwrap(), Expr::Unary { op: UnaryOp::Not, .. }));
        let q = parse_query("SELECT a FROM t WHERE NOT a = 1 AND b = 2").unwrap();
        // NOT binds to the comparison, not the conjunction.
        assert!(matches!(q.where_clause.unwrap(), Expr::Binary { op: BinaryOp::And, .. }));
    }

    #[test]
    fn between_desugars_to_range_conjunction() {
        let q = parse_query("SELECT a FROM t WHERE x BETWEEN 3 AND 7").unwrap();
        assert_eq!(q.where_clause.unwrap().to_string(), "((x >= 3) AND (x <= 7))");
        let q = parse_query("SELECT a FROM t WHERE x NOT BETWEEN 3 AND 7").unwrap();
        assert_eq!(q.where_clause.unwrap().to_string(), "(NOT (((x >= 3) AND (x <= 7))))");
        // BETWEEN binds tighter than a following AND.
        let q = parse_query("SELECT a FROM t WHERE x BETWEEN 3 AND 7 AND y = 1").unwrap();
        match q.where_clause.unwrap() {
            Expr::Binary { op: BinaryOp::And, rhs, .. } => {
                assert_eq!(rhs.to_string(), "(y = 1)");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn count_distinct() {
        let q =
            parse_query("SELECT country, COUNT(DISTINCT table_name) FROM data GROUP BY country")
                .unwrap();
        match &q.select[1].expr {
            SelectExpr::Aggregate(a) => {
                assert_eq!(a.func, AggFunc::Count);
                assert!(a.distinct);
            }
            other => panic!("expected aggregate, got {other:?}"),
        }
        assert!(parse_query("SELECT SUM(DISTINCT x) FROM t").is_err());
    }

    #[test]
    fn negative_literals_fold() {
        let q = parse_query("SELECT a FROM t WHERE x = -5").unwrap();
        match q.where_clause.unwrap() {
            Expr::Binary { rhs, .. } => assert_eq!(*rhs, Expr::Literal(Value::Int(-5))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bare_aliases() {
        let q = parse_query("SELECT COUNT(*) c FROM t").unwrap();
        assert_eq!(q.select[0].alias.as_deref(), Some("c"));
    }

    #[test]
    fn round_trips_through_display() {
        let sql = r#"SELECT country, COUNT(*) AS c FROM data WHERE search_string IN ("cat", "dog") AND (latency > 100) GROUP BY country ORDER BY c DESC LIMIT 10"#;
        let q = parse_query(sql).unwrap();
        let rendered = q.to_string();
        let q2 = parse_query(&rendered).unwrap();
        assert_eq!(q, q2, "display text must re-parse to the same AST");
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_query("").is_err());
        assert!(parse_query("SELECT").is_err());
        assert!(parse_query("SELECT a FROM").is_err());
        assert!(parse_query("SELECT a FROM t WHERE").is_err());
        assert!(parse_query("SELECT a FROM t LIMIT x").is_err());
        assert!(parse_query("SELECT a FROM t GROUP a").is_err());
        assert!(parse_query("SELECT a FROM t extra garbage ,").is_err());
        assert!(parse_query("SELECT a FROM select").is_err());
    }

    #[test]
    fn function_calls_lowercase_names() {
        let q = parse_query("SELECT DATE(timestamp) FROM t GROUP BY DATE(timestamp)").unwrap();
        match &q.select[0].expr {
            SelectExpr::Scalar(Expr::Call { name, .. }) => assert_eq!(name, "date"),
            other => panic!("{other:?}"),
        }
    }
}
