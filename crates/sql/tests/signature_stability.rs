//! Pins the canonical renderings that the distributed cache key
//! (`pd_dist::query_signature`) concatenates. Worker processes cache
//! partial results under `Expr::canonical()` / `Slot` display strings,
//! so these strings are a **wire format**: changing any of them silently
//! invalidates every warm cache in a rolling deploy. If one of these
//! assertions fails, you are changing the cache-key format — bump it
//! deliberately (and expect a cold cluster), don't drift into it.

use pd_sql::{analyze, parse_query, AnalyzedQuery};

fn analyzed(sql: &str) -> AnalyzedQuery {
    analyze(&parse_query(sql).unwrap()).unwrap()
}

/// The exact fragments `query_signature` joins: canonical keys, displayed
/// slots, canonical filter (empty when absent).
fn fragments(sql: &str) -> (String, String, String) {
    let q = analyzed(sql);
    (
        q.keys.iter().map(|k| k.canonical()).collect::<Vec<_>>().join(","),
        q.slots.iter().map(|s| s.to_string()).collect::<Vec<_>>().join(","),
        q.filter.as_ref().map(|f| f.canonical()).unwrap_or_default(),
    )
}

#[test]
fn key_expressions_render_canonically() {
    let (keys, _, _) = fragments("SELECT country, COUNT(*) c FROM logs GROUP BY country");
    assert_eq!(keys, "country");

    let (keys, _, _) =
        fragments("SELECT date(timestamp) d, country, COUNT(*) c FROM logs GROUP BY d, country");
    assert_eq!(keys, "date(timestamp),country");
}

#[test]
fn slots_render_canonically() {
    let (_, slots, _) = fragments(
        "SELECT COUNT(*) n, SUM(latency) s, MIN(user) lo, MAX(user) hi, AVG(latency) a, \
         COUNT(DISTINCT country) k FROM logs",
    );
    assert_eq!(slots, "count,sum(latency),min(user),max(user),distinct(country)");

    // Sorted by class, then by the argument's canonical text, whatever the
    // select list's order; each slot once.
    let (_, slots, _) = fragments(
        "SELECT MAX(b), SUM(z), COUNT(DISTINCT date(timestamp)), SUM(a), MIN(b), SUM(z) z2 \
         FROM logs",
    );
    assert_eq!(slots, "sum(a),sum(z),min(b),max(b),distinct(date(timestamp))");

    // AVG(x) reads sum(x) and count; COUNT(x) reads count.
    assert_eq!(fragments("SELECT AVG(latency) FROM logs").1, "count,sum(latency)");
    assert_eq!(fragments("SELECT COUNT(latency) FROM logs").1, "count");
    assert_eq!(
        fragments("SELECT COUNT(user), AVG(n), AVG(latency) FROM logs").1,
        "count,sum(latency),sum(n)"
    );
}

#[test]
fn filters_render_canonically() {
    // Comparisons are parenthesized, string literals are double-quoted.
    let (_, _, filter) = fragments("SELECT COUNT(*) FROM logs WHERE latency > 100");
    assert_eq!(filter, "(latency > 100)");

    let (_, _, filter) = fragments("SELECT COUNT(*) FROM logs WHERE country = 'DE'");
    assert_eq!(filter, "(country = \"DE\")");

    let (_, _, filter) =
        fragments("SELECT COUNT(*) FROM logs WHERE country IN ('DE', 'FR') AND NOT latency > 100");
    assert_eq!(filter, "((country IN (\"DE\", \"FR\")) AND (NOT ((latency > 100))))");

    // Embedded quotes are escaped, so distinct literals can never collide
    // into one key.
    let (_, _, filter) = fragments(r#"SELECT COUNT(*) FROM logs WHERE user = 'say "hi" bye'"#);
    assert_eq!(filter, r#"(user = "say \"hi\" bye")"#);
}

#[test]
fn canonical_forms_ignore_presentation_but_not_semantics() {
    // The cache key is built from (table, keys, aggs, filter) only —
    // aliases, HAVING, ORDER BY and LIMIT are finalize-time presentation.
    let base = fragments("SELECT country, COUNT(*) c FROM logs GROUP BY country");
    assert_eq!(
        base,
        fragments(
            "SELECT country, COUNT(*) total FROM logs GROUP BY country \
             HAVING total > 3 ORDER BY total DESC LIMIT 5"
        )
    );

    // Charts whose aggregates lower to the same slots share one table.
    let sum = fragments("SELECT country, COUNT(*) c, SUM(latency) s FROM logs GROUP BY country");
    for twin in [
        "SELECT country, AVG(latency) a FROM logs GROUP BY country",
        "SELECT country, SUM(latency) s, COUNT(user) n FROM logs GROUP BY country",
    ] {
        assert_eq!(sum, fragments(twin), "{twin}");
    }
    assert_eq!(base, fragments("SELECT country, COUNT(user) n FROM logs GROUP BY country"));

    // But anything touching the partial computation must differ.
    for other in [
        "SELECT country, COUNT(*) c FROM logs WHERE country = 'DE' GROUP BY country",
        "SELECT table_name, COUNT(*) c FROM logs GROUP BY table_name",
        "SELECT country, SUM(latency) c FROM logs GROUP BY country",
    ] {
        assert_ne!(base, fragments(other), "{other}");
    }
}

#[test]
fn canonical_text_reparses_to_the_same_canonical_text() {
    // canonical ∘ parse ∘ canonical = canonical: a signature computed from
    // re-rendered SQL (e.g. a forwarded query) matches the original's.
    for sql in [
        "SELECT country, COUNT(*) c FROM logs WHERE latency > 100 AND country IN ('DE','FR') \
         GROUP BY country",
        "SELECT date(timestamp) d, AVG(latency) a FROM logs GROUP BY d",
    ] {
        let (keys, slots, filter) = fragments(sql);
        let round = format!(
            "SELECT {}{}COUNT(*) c FROM logs{} GROUP BY {}",
            keys.replace(',', ", "),
            if keys.is_empty() { "" } else { ", " },
            if filter.is_empty() { String::new() } else { format!(" WHERE {filter}") },
            keys.replace(',', ", "),
        );
        let (keys2, _, filter2) = fragments(&round);
        assert_eq!(keys, keys2, "{sql}");
        assert_eq!(filter, filter2, "{sql}");
        let _ = slots;
    }
}
