//! Randomized properties of the parser: rendering any generated query to
//! canonical SQL and re-parsing it yields the identical AST (display ∘
//! parse = id on the canonical form); what the subset lacks is refused; and
//! an expression parses exactly when it nests no deeper than the wire
//! carries. Driven by a seeded PRNG so failures reproduce exactly.

use pd_common::rng::Rng;
use pd_common::wire::{from_bytes, to_bytes};
use pd_common::{Error, Value};
use pd_sql::codec::MAX_DEPTH;
use pd_sql::{
    analyze, parse_query, AggExpr, AggFunc, AnalyzedQuery, BinaryOp, Expr, OrderKey, Query,
    SelectExpr, SelectItem, UnaryOp,
};

const RESERVED: [&str; 26] = [
    "select", "from", "where", "group", "by", "having", "order", "limit", "as", "and", "or", "not",
    "in", "union", "all", "between", "asc", "desc", "count", "sum", "min", "max", "avg",
    "distinct", "true", "false",
];

fn random_literal(rng: &mut Rng) -> Expr {
    match rng.range_usize(0, 3) {
        0 => Expr::Literal(Value::Int(rng.next_u64() as i32 as i64)),
        1 => Expr::Literal(Value::Float(rng.range_i64_inclusive(-1000, 999) as f64 * 0.25)),
        _ => {
            const CHARS: &[u8] =
                b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 _.-";
            let len = rng.range_usize(0, 12);
            let s: String =
                (0..len).map(|_| CHARS[rng.range_usize(0, CHARS.len())] as char).collect();
            Expr::Literal(Value::Str(s))
        }
    }
}

fn random_column(rng: &mut Rng) -> Expr {
    loop {
        let len = rng.range_usize(0, 8);
        let mut name = String::new();
        name.push((b'a' + rng.range_u64(0, 26) as u8) as char);
        const TAIL: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";
        for _ in 0..len {
            name.push(TAIL[rng.range_usize(0, TAIL.len())] as char);
        }
        if !RESERVED.contains(&name.as_str()) {
            return Expr::Column(name);
        }
    }
}

fn random_expr(rng: &mut Rng, depth: usize) -> Expr {
    if depth == 0 || rng.chance(0.3) {
        return if rng.chance(0.5) { random_literal(rng) } else { random_column(rng) };
    }
    match rng.range_usize(0, 5) {
        0 => {
            let ops = [
                BinaryOp::Add,
                BinaryOp::Sub,
                BinaryOp::Mul,
                BinaryOp::Div,
                BinaryOp::Eq,
                BinaryOp::Ne,
                BinaryOp::Lt,
                BinaryOp::Le,
                BinaryOp::Gt,
                BinaryOp::Ge,
                BinaryOp::And,
                BinaryOp::Or,
            ];
            let op = ops[rng.range_usize(0, ops.len())];
            Expr::binary(op, random_expr(rng, depth - 1), random_expr(rng, depth - 1))
        }
        1 => Expr::Unary { op: UnaryOp::Not, expr: Box::new(random_expr(rng, depth - 1)) },
        2 => {
            let list = (0..rng.range_usize(1, 4)).map(|_| random_literal(rng)).collect();
            Expr::InList {
                expr: Box::new(random_expr(rng, depth - 1)),
                list,
                negated: rng.chance(0.5),
            }
        }
        3 => Expr::call("date", vec![random_expr(rng, depth - 1)]),
        _ => Expr::call("contains", vec![random_expr(rng, depth - 1), random_literal(rng)]),
    }
}

fn random_agg(rng: &mut Rng) -> AggExpr {
    match rng.range_usize(0, 5) {
        0 => AggExpr::count_star(),
        1 => AggExpr { func: AggFunc::Sum, arg: Some(random_column(rng)), distinct: false },
        2 => AggExpr { func: AggFunc::Min, arg: Some(random_column(rng)), distinct: false },
        3 => AggExpr { func: AggFunc::Avg, arg: Some(random_column(rng)), distinct: false },
        _ => AggExpr { func: AggFunc::Count, arg: Some(random_column(rng)), distinct: true },
    }
}

fn random_query(rng: &mut Rng) -> Query {
    let keys: Vec<Expr> = (0..rng.range_usize(0, 2)).map(|_| random_column(rng)).collect();
    let aggs: Vec<AggExpr> = (0..rng.range_usize(1, 3)).map(|_| random_agg(rng)).collect();
    let where_clause = rng.chance(0.5).then(|| random_expr(rng, 3));
    let limit = rng.chance(0.5).then(|| rng.range_usize(0, 100));

    let mut select: Vec<SelectItem> = keys
        .iter()
        .map(|k| SelectItem { expr: SelectExpr::Scalar(k.clone()), alias: None })
        .collect();
    for (i, a) in aggs.into_iter().enumerate() {
        select.push(SelectItem { expr: SelectExpr::Aggregate(a), alias: Some(format!("agg{i}")) });
    }
    let order_by = if rng.chance(0.5) {
        let idx = rng.range_usize(0, 2).min(select.len() - 1);
        vec![OrderKey {
            expr: match &select[idx].expr {
                SelectExpr::Scalar(e) => e.clone(),
                SelectExpr::Aggregate(_) => {
                    Expr::column(select[idx].alias.clone().expect("aggs aliased"))
                }
            },
            desc: rng.chance(0.5),
        }]
    } else {
        Vec::new()
    };
    Query {
        select,
        from: "data".into(),
        where_clause,
        group_by: keys,
        having: None,
        order_by,
        limit,
    }
}

/// Canonical SQL text is a fixed point: parse(display(q)) == q.
#[test]
fn display_then_parse_is_identity() {
    let mut rng = Rng::seed_from_u64(0x5a1_0001);
    for _ in 0..128 {
        let q = random_query(&mut rng);
        let sql = q.to_string();
        let reparsed = parse_query(&sql)
            .unwrap_or_else(|e| panic!("canonical SQL failed to parse: {e}\nsql: {sql}"));
        assert_eq!(reparsed, q, "sql: {sql}");
    }
}

/// Expressions alone round-trip through their canonical text too.
#[test]
fn expr_canonical_round_trips() {
    let mut rng = Rng::seed_from_u64(0x5a1_0002);
    for _ in 0..128 {
        let e = random_expr(&mut rng, 3);
        let sql = format!("SELECT COUNT(*) FROM t WHERE {e}");
        let q =
            parse_query(&sql).unwrap_or_else(|err| panic!("failed to parse: {err}\nsql: {sql}"));
        assert_eq!(q.where_clause.unwrap(), e, "sql: {sql}");
    }
}

/// The lexer/parser never panic on arbitrary input.
#[test]
fn parser_never_panics() {
    let mut rng = Rng::seed_from_u64(0x5a1_0003);
    for _ in 0..128 {
        let len = rng.range_usize(0, 200);
        let input: String = (0..len)
            .map(|_| {
                // Printable ASCII plus a sprinkling of non-ASCII codepoints.
                if rng.chance(0.9) {
                    char::from_u32(rng.range_u64(0x20, 0x7f) as u32).unwrap()
                } else {
                    char::from_u32(rng.range_u64(0xa1, 0x2fff) as u32).unwrap_or('ß')
                }
            })
            .collect();
        let _ = parse_query(&input);
    }
}

/// A subquery in FROM — the paper's §4 `UNION ALL` of shard queries
/// included — and a `UNION` of two queries are refused, not parsed: no
/// engine reads them.
#[test]
fn subqueries_and_unions_are_unsupported() {
    let mut rng = Rng::seed_from_u64(0x5a1_0004);
    for _ in 0..64 {
        let q = random_query(&mut rng);
        for sql in [
            format!("SELECT COUNT(*) FROM ({q})"),
            format!("SELECT COUNT(*) c FROM (({q}) UNION ALL ({q})) ORDER BY c"),
            format!("{q} UNION {q}"),
            format!("{q} UNION ALL {q}"),
        ] {
            match parse_query(&sql) {
                Err(Error::Unsupported(_)) => {}
                other => panic!("expected an unsupported-feature error, got {other:?}\nsql: {sql}"),
            }
        }
    }
}

/// `c` under `depth` wrappers, each one level of the tree and of the
/// parser's recursion: `NOT`, a call, and the list of an `IN`.
fn wrapped(rng: &mut Rng, depth: usize) -> String {
    let mut text = String::from("c");
    for _ in 0..depth {
        text = match rng.range_usize(0, 3) {
            0 => format!("NOT {text}"),
            1 => format!("f({text})"),
            _ => format!("c IN ({text})"),
        };
    }
    text
}

/// `depth` levels of nesting, written each way the grammar nests. All but
/// the parentheses (which nest the parser, not the tree) build a tree
/// exactly `depth` deep; the left-deep `OR` chain does it without nesting
/// the parser.
fn nested(rng: &mut Rng, shape: usize, depth: usize) -> String {
    match shape {
        0 => format!("{}c", "NOT ".repeat(depth)),
        1 => format!("{}c", "- ".repeat(depth)),
        2 => format!("{}c{}", "f(".repeat(depth), ")".repeat(depth)),
        3 => format!("{}c{}", "c IN (".repeat(depth), ")".repeat(depth)),
        4 => format!("{}c{}", "(".repeat(depth), ")".repeat(depth)),
        5 => (0..=depth).map(|i| format!("c{i}")).collect::<Vec<_>>().join(" OR "),
        _ => wrapped(rng, depth),
    }
}

/// The parser and the wire decoder hold one bound: an expression nested
/// [`MAX_DEPTH`] deep parses, analyzes and crosses the wire; one level
/// more is refused at parse time, as a typed error, whichever way it nests
/// and in whichever clause.
#[test]
fn nesting_parses_up_to_the_wire_bound_and_no_further() {
    let mut rng = Rng::seed_from_u64(0x5a1_0005);
    for shape in 0..12 {
        let deepest = nested(&mut rng, shape, MAX_DEPTH);
        let sql = format!("SELECT COUNT(*) FROM t WHERE {deepest}");
        let analyzed = parse_query(&sql)
            .and_then(|q| analyze(&q))
            .unwrap_or_else(|e| panic!("shape {shape} at {MAX_DEPTH}: {e}"));
        let back: AnalyzedQuery = from_bytes(&to_bytes(&analyzed))
            .unwrap_or_else(|e| panic!("shape {shape} at {MAX_DEPTH} on the wire: {e}"));
        assert!(back == analyzed, "shape {shape}: the wire changed the query");

        let deeper = nested(&mut rng, shape, MAX_DEPTH + 1);
        for sql in [
            format!("SELECT COUNT(*) FROM t WHERE {deeper}"),
            format!("SELECT {deeper} k, COUNT(*) FROM t GROUP BY {deeper}"),
            format!("SELECT MIN({deeper}) FROM t"),
        ] {
            match parse_query(&sql) {
                Err(Error::Unsupported(msg)) => assert!(msg.contains("nested"), "{msg}"),
                other => panic!("shape {shape} at {}: got {other:?}", MAX_DEPTH + 1),
            }
        }
    }
}

/// Edge statements of the grammar and what the parser makes of each: the
/// query's canonical text, or the kind of error. Mixed-case keywords,
/// unreserved words as names and aliases, the operator spellings,
/// comments, escapes in both quote kinds, number shapes, bare aliases,
/// `NOT IN` / `BETWEEN`, `UNION` anywhere, and what may trail a query.
const PINNED: &[(&str, &str)] = &[
    ("SeLeCt country, CoUnT(*) As c FrOm data WhErE latency > 5 GrOuP bY country HaViNg c > 1 OrDeR bY c DeSc LiMiT 5", "SELECT country, COUNT(*) AS c FROM data WHERE (latency > 5) GROUP BY country HAVING (c > 1) ORDER BY c DESC LIMIT 5"),
    ("select country, count(*) as c from data group by country order by c desc limit 10;", "SELECT country, COUNT(*) AS c FROM data GROUP BY country ORDER BY c DESC LIMIT 10"),
    ("SELECT country, COUNT(*) as c FROM data GROUP BY country ORDER BY c DESC LIMIT 10;", "SELECT country, COUNT(*) AS c FROM data GROUP BY country ORDER BY c DESC LIMIT 10"),
    ("SELECT table_name as k, COUNT(*) as c FROM logs WHERE country = 'US' GROUP BY table_name ORDER BY c ASC LIMIT 10", r#"SELECT table_name AS k, COUNT(*) AS c FROM logs WHERE (country = "US") GROUP BY table_name ORDER BY c ASC LIMIT 10"#),
    ("SELECT asc, COUNT(*) desc FROM t GROUP BY asc ORDER BY desc DESC", "SELECT asc, COUNT(*) AS desc FROM t GROUP BY asc ORDER BY desc DESC"),
    ("SELECT desc, COUNT(*) AS asc FROM t GROUP BY desc ORDER BY asc ASC", "SELECT desc, COUNT(*) AS asc FROM t GROUP BY desc ORDER BY asc ASC"),
    ("SELECT count, SUM(x) AS sum FROM t GROUP BY count ORDER BY sum", "SELECT count, SUM(x) AS sum FROM t GROUP BY count ORDER BY sum ASC"),
    ("SELECT COUNT(*) count, MIN(x) min, MAX(x) max, AVG(x) avg FROM t", "SELECT COUNT(*) AS count, MIN(x) AS min, MAX(x) AS max, AVG(x) AS avg FROM t"),
    ("SELECT sum, min, max, avg, COUNT(*) FROM t GROUP BY sum, min, max, avg", "SELECT sum, min, max, avg, COUNT(*) FROM t GROUP BY sum, min, max, avg"),
    ("SELECT distinct, COUNT(*) FROM t GROUP BY distinct", "SELECT distinct, COUNT(*) FROM t GROUP BY distinct"),
    ("SELECT COUNT(DISTINCT distinct) FROM t", "SELECT COUNT(DISTINCT distinct) FROM t"),
    ("SELECT COUNT(DISTINCT *) FROM t", "SELECT COUNT(DISTINCT *) FROM t"),
    ("SELECT date, COUNT(*) AS date2 FROM t GROUP BY date", "SELECT date, COUNT(*) AS date2 FROM t GROUP BY date"),
    ("SELECT date(timestamp) as date, COUNT(*), SUM(latency) FROM data GROUP BY date ORDER BY date ASC LIMIT 10;", "SELECT date(timestamp) AS date, COUNT(*), SUM(latency) FROM data GROUP BY date ORDER BY date ASC LIMIT 10"),
    ("SELECT true, false, COUNT(*) FROM t GROUP BY true, false", "SELECT true, false, COUNT(*) FROM t GROUP BY true, false"),
    ("SELECT COUNT(*) FROM t WHERE true = 1 OR false != 0", "SELECT COUNT(*) FROM t WHERE ((true = 1) OR (false != 0))"),
    ("SELECT Count, COUNT(*) FROM t GROUP BY Count", "SELECT Count, COUNT(*) FROM t GROUP BY Count"),
    ("SELECT COUNT (*) FROM t", "SELECT COUNT(*) FROM t"),
    ("SELECT count (x) FROM t", "SELECT COUNT(x) FROM t"),
    ("SELECT COUNT FROM t", "SELECT COUNT FROM t"),
    ("SELECT COUNT(*) FROM t WHERE sum(x) > 1", "SELECT COUNT(*) FROM t WHERE (sum(x) > 1)"),
    ("SELECT COUNT(*) FROM t WHERE DATE(ts) = '2012-01-01'", r#"SELECT COUNT(*) FROM t WHERE (date(ts) = "2012-01-01")"#),
    ("SELECT COUNT(*) AS from FROM t", "Parse"),
    ("SELECT COUNT(*) FROM select", "Parse"),
    ("SELECT COUNT(*) all FROM t", "Parse"),
    ("SELECT COUNT(*) FROM t WHERE between = 1", "Parse"),
    ("SELECT COUNT(*) FROM t WHERE selector = 1 AND fromage = 2 AND order_id = 3 AND byte = 4 AND distinctly = 5 AND notable = 6 AND inner = 7", "SELECT COUNT(*) FROM t WHERE (((((((selector = 1) AND (fromage = 2)) AND (order_id = 3)) AND (byte = 4)) AND (distinctly = 5)) AND (notable = 6)) AND (inner = 7))"),
    ("SELECT COUNT(*) FROM logs.powerdrill.queries", "SELECT COUNT(*) FROM logs.powerdrill.queries"),
    ("SELECT COUNT(*) FROM t WHERE a == 1 AND b <> 2 AND c != 3", "SELECT COUNT(*) FROM t WHERE (((a = 1) AND (b != 2)) AND (c != 3))"),
    ("SELECT COUNT(*) FROM t WHERE a = = 1", "Parse"),
    ("SELECT COUNT(*) FROM t WHERE a === 1", "Parse"),
    ("SELECT COUNT(*) FROM t WHERE a ! 1", "Parse"),
    ("SELECT COUNT(*) FROM t WHERE a <= 1 AND b >= 2 AND c < 3 AND d > 4", "SELECT COUNT(*) FROM t WHERE ((((a <= 1) AND (b >= 2)) AND (c < 3)) AND (d > 4))"),
    ("SELECT COUNT(*) FROM t WHERE a < > 1", "Parse"),
    ("SELECT COUNT(*) -- the count\nFROM t -- trailing", "SELECT COUNT(*) FROM t"),
    ("SELECT COUNT(*) FROM t -- no newline at the end", "SELECT COUNT(*) FROM t"),
    ("SELECT COUNT(*) FROM t WHERE x - -1 = 0", "SELECT COUNT(*) FROM t WHERE ((x - -1) = 0)"),
    ("SELECT COUNT(*) FROM t WHERE x--1 = 0", "SELECT COUNT(*) FROM t WHERE x"),
    ("SELECT COUNT(*) FROM t WHERE x = 1 --", "SELECT COUNT(*) FROM t WHERE (x = 1)"),
    ("-- only a comment\nSELECT COUNT(*) FROM t WHERE s = 'it\\'s'", r#"SELECT COUNT(*) FROM t WHERE (s = "it's")"#),
    (r#"SELECT COUNT(*) FROM t WHERE s = "say \"hi\"""#, r#"SELECT COUNT(*) FROM t WHERE (s = "say \"hi\"")"#),
    (r#"SELECT COUNT(*) FROM t WHERE s = 'tab\there\nnew\rcr'"#, "SELECT COUNT(*) FROM t WHERE (s = \"tab\there\nnew\rcr\")"),
    (r#"SELECT COUNT(*) FROM t WHERE s = "back\\slash" OR s = 'q\"q'"#, r#"SELECT COUNT(*) FROM t WHERE ((s = "back\\slash") OR (s = "q\"q"))"#),
    (r#"SELECT COUNT(*) FROM t WHERE s = 'he said "x"' OR s = "it's""#, r#"SELECT COUNT(*) FROM t WHERE ((s = "he said \"x\"") OR (s = "it's"))"#),
    (r#"SELECT COUNT(*) FROM t WHERE s = '\ü' OR s = "karnevalskostüme""#, r#"SELECT COUNT(*) FROM t WHERE ((s = "ü") OR (s = "karnevalskostüme"))"#),
    (r#"SELECT COUNT(*) FROM t WHERE s = '' OR s = """#, r#"SELECT COUNT(*) FROM t WHERE ((s = "") OR (s = ""))"#),
    ("SELECT COUNT(*) FROM t WHERE s = 'unterminated", "Parse"),
    (r#"SELECT COUNT(*) FROM t WHERE s = 'dangling\"#, "Parse"),
    ("SELECT COUNT(*) FROM t WHERE s = 'select from union'", r#"SELECT COUNT(*) FROM t WHERE (s = "select from union")"#),
    ("SELECT COUNT(*) FROM t WHERE x = 1e5", "SELECT COUNT(*) FROM t WHERE (x = 100000.0)"),
    ("SELECT COUNT(*) FROM t WHERE x = 1.", "SELECT COUNT(*) FROM t WHERE (x = 1.0)"),
    ("SELECT COUNT(*) FROM t WHERE x = .5", "SELECT COUNT(*) FROM t WHERE (x = 0.5)"),
    ("SELECT COUNT(*) FROM t WHERE x = 2.5E-2 OR x = 1e+3 OR x = 4.25", "SELECT COUNT(*) FROM t WHERE (((x = 0.025) OR (x = 1000.0)) OR (x = 4.25))"),
    ("SELECT COUNT(*) FROM t WHERE x = 9223372036854775807", "SELECT COUNT(*) FROM t WHERE (x = 9223372036854775807)"),
    ("SELECT COUNT(*) FROM t WHERE x = 9223372036854775808", "Parse"),
    ("SELECT COUNT(*) FROM t WHERE x = -9223372036854775808", "Parse"),
    ("SELECT COUNT(*) FROM t WHERE x = -5 OR y = -2.5 OR z = - 3", "SELECT COUNT(*) FROM t WHERE (((x = -5) OR (y = -2.5)) OR (z = -3))"),
    ("SELECT COUNT(*) FROM t WHERE x = 1e", "Parse"),
    ("SELECT COUNT(*) FROM t WHERE x = 1.5.2", "Parse"),
    ("SELECT COUNT(*) FROM t WHERE x = .", "Parse"),
    ("SELECT COUNT(*) FROM t WHERE x = 1e5e5", "Parse"),
    ("SELECT COUNT(*) FROM t WHERE x = 007", "SELECT COUNT(*) FROM t WHERE (x = 7)"),
    ("SELECT COUNT(*) FROM t WHERE x = 3abc", "Parse"),
    ("SELECT COUNT(*) c FROM t", "SELECT COUNT(*) AS c FROM t"),
    ("SELECT country k, COUNT(*) n FROM t GROUP BY country", "SELECT country AS k, COUNT(*) AS n FROM t GROUP BY country"),
    (r#"SELECT COUNT(*) FROM t WHERE country NOT IN ('US', 'DE') AND x IN (1, 2.5, "s")"#, r#"SELECT COUNT(*) FROM t WHERE ((country NOT IN ("US", "DE")) AND (x IN (1, 2.5, "s")))"#),
    ("SELECT COUNT(*) FROM t WHERE country not in ('US')", r#"SELECT COUNT(*) FROM t WHERE (country NOT IN ("US"))"#),
    ("SELECT COUNT(*) FROM t WHERE x BETWEEN 3 AND 7 AND y = 1", "SELECT COUNT(*) FROM t WHERE (((x >= 3) AND (x <= 7)) AND (y = 1))"),
    ("SELECT COUNT(*) FROM t WHERE x NOT BETWEEN 3 AND 7", "SELECT COUNT(*) FROM t WHERE (NOT (((x >= 3) AND (x <= 7))))"),
    ("SELECT COUNT(*) FROM t WHERE NOT NOT a = 1", "SELECT COUNT(*) FROM t WHERE (NOT ((NOT ((a = 1)))))"),
    ("SELECT COUNT(*) FROM t WHERE x IN ()", "Parse"),
    ("SELECT COUNT(*) FROM t WHERE a NOT = 1", "Parse"),
    ("SELECT union FROM t", "Unsupported"),
    ("SELECT a FROM t WHERE x = 1 UNION SELECT a FROM u", "Unsupported"),
    ("SELECT a FROM t UnIoN ALL SELECT a FROM u", "Unsupported"),
    ("SELECT COUNT(*) FROM t WHERE union_id = 1", "SELECT COUNT(*) FROM t WHERE (union_id = 1)"),
    ("SELECT COUNT(*) FROM t @ union", "Parse"),
    ("SELECT COUNT(*) FROM t GROUP BY union", "Unsupported"),
    ("SELECT COUNT(*) FROM (SELECT a FROM t)", "Unsupported"),
    ("SELECT COUNT(*) FROM t;", "SELECT COUNT(*) FROM t"),
    ("SELECT COUNT(*) FROM t ;", "SELECT COUNT(*) FROM t"),
    ("SELECT COUNT(*) FROM t;;", "Parse"),
    ("SELECT COUNT(*) FROM t; garbage", "Parse"),
    ("SELECT COUNT(*) FROM t LIMIT 5 5", "Parse"),
    ("SELECT COUNT(*) FROM t extra", "Parse"),
    ("SELECT COUNT(*) FROM t LIMIT -1", "Parse"),
    ("SELECT COUNT(*) FROM t LIMIT 2.5", "Parse"),
    ("SELECT COUNT(*) FROM t ORDER BY c ASC DESC", "Parse"),
    ("SELECT SUM(DISTINCT x) FROM t", "Unsupported"),
    ("SELECT COUNT(*) FROM t GROUP a", "Parse"),
    ("SELECT", "Parse"),
    ("SELECT COUNT(*) FROM", "Parse"),
    ("SELECT ü FROM t", "Parse"),
    ("\tSELECT\tCOUNT(*)\tFROM\tt\tWHERE\ta\t=\t1", "SELECT COUNT(*) FROM t WHERE (a = 1)"),
    ("SELECT a, COUNT(*) FROM t GROUP BY a ORDER BY a ASC, COUNT(*) DESC", "SELECT a, COUNT(*) FROM t GROUP BY a ORDER BY a ASC, count(*) DESC"),
    ("SELECT f() , g(a, b) , COUNT(*) FROM t GROUP BY f(), g(a, b)", "SELECT f(), g(a, b), COUNT(*) FROM t GROUP BY f(), g(a, b)"),
    ("SELECT COUNT(*) FROM t WHERE a + b * c / d - e = 7 OR NOT x = 1 AND y = 2", "SELECT COUNT(*) FROM t WHERE ((((a + ((b * c) / d)) - e) = 7) OR ((NOT ((x = 1))) AND (y = 2)))"),
    ("SELECT COUNT(*) FROM t HAVING COUNT(*) > 1", "SELECT COUNT(*) FROM t HAVING (count(*) > 1)"),
    ("SELECT _a, COUNT(*) FROM t GROUP BY _a", "SELECT _a, COUNT(*) FROM t GROUP BY _a"),
    ("SELECT a.b, COUNT(*) FROM t GROUP BY a.b", "SELECT a.b, COUNT(*) FROM t GROUP BY a.b"),
];

#[test]
fn edge_statements_parse_as_pinned() {
    for (sql, want) in PINNED {
        let got = match parse_query(sql) {
            Ok(q) => q.to_string(),
            Err(Error::Parse(_)) => "Parse".into(),
            Err(Error::Unsupported(_)) => "Unsupported".into(),
            Err(other) => panic!("{sql}: unexpected error kind {other:?}"),
        };
        assert_eq!(got, *want, "sql: {sql}");
    }
}
