//! The benchmark's inputs: the table spec, the dashboard clicks of
//! `scan_cold` and the analyst session of the drill workloads.
//!
//! Everything here is frozen in the bench: it uses its own generator and
//! chart mixes (not `pd_dist::workload`), so an engine change cannot move
//! the load it is measured under. The table itself comes from
//! `pd_data::generate_logs`; [`Fingerprint`] catches that drifting.

use crate::stats::Fnv;
use powerdrill::data::{LogsSpec, Table};
use powerdrill::Value;
use std::collections::{HashMap, HashSet};

/// xorshift64*, seeded through SplitMix64.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `0..n` (`n` ≥ 1; the modulo bias at these sizes is far
    /// below anything a latency can show).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `0..100`.
    fn percent(&mut self) -> usize {
        self.below(100)
    }
}

/// One seed per purpose, all derived from `--seed`.
pub fn derive(seed: u64, purpose: &str) -> u64 {
    let mut h = Fnv::default();
    h.u64(seed);
    h.str(purpose);
    h.finish()
}

/// The `LogsSpec::scaled` profile at `rows`, seeded from `--seed`.
pub fn table_spec(seed: u64, rows: usize) -> LogsSpec {
    LogsSpec { seed: derive(seed, "table"), ..LogsSpec::scaled(rows) }
}

pub const QUERIES_PER_CLICK: usize = 20;

/// One UI click: the charts of a dashboard refreshing together.
#[derive(Debug, Clone, PartialEq)]
pub struct Click {
    pub queries: Vec<String>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dim {
    Country,
    TableName,
    User,
    Date,
}

impl Dim {
    const ALL: [Dim; 4] = [Dim::Country, Dim::TableName, Dim::User, Dim::Date];

    fn expr(self) -> &'static str {
        match self {
            Dim::Country => "country",
            Dim::TableName => "table_name",
            Dim::User => "user",
            Dim::Date => "date(timestamp)",
        }
    }
}

/// One chart: what it groups by (`None` = a global aggregate), its
/// aggregates and how it ranks its groups.
struct Chart {
    dim: Option<Dim>,
    aggs: &'static str,
    order: &'static str,
}

const fn chart(dim: Option<Dim>, aggs: &'static str, order: &'static str) -> Chart {
    Chart { dim, aggs, order }
}

/// The drill dashboard. Four charts (the `ASC` twins of the four `COUNT(*)`
/// charts) differ from their neighbour only in ORDER BY, which the
/// result-cache signature leaves out: a top-10 beside a bottom-10, a time
/// series beside its busiest days. They are a fifth of every click that
/// the shard caches can always answer.
const DRILL_CHARTS: [Chart; QUERIES_PER_CLICK] = [
    chart(Some(Dim::Country), "COUNT(*) as c", "c DESC"),
    chart(Some(Dim::Country), "COUNT(*) as c", "c ASC"),
    chart(Some(Dim::Country), "COUNT(*) as c, SUM(latency) as s", "s DESC"),
    chart(Some(Dim::Country), "COUNT(*) as c, AVG(latency) as a", "a DESC"),
    chart(Some(Dim::Country), "MIN(latency) as mn, MAX(latency) as mx", "mx DESC"),
    chart(Some(Dim::Country), "COUNT(DISTINCT user) as u", "u DESC"),
    chart(Some(Dim::TableName), "COUNT(*) as c", "c DESC"),
    chart(Some(Dim::TableName), "COUNT(*) as c", "c ASC"),
    chart(Some(Dim::TableName), "COUNT(*) as c, SUM(latency) as s", "s DESC"),
    chart(Some(Dim::User), "COUNT(*) as c", "c DESC"),
    chart(Some(Dim::User), "COUNT(*) as c", "c ASC"),
    chart(Some(Dim::User), "COUNT(*) as c, AVG(latency) as a", "a DESC"),
    chart(Some(Dim::User), "COUNT(*) as c, MAX(latency) as mx", "mx DESC"),
    chart(Some(Dim::Date), "COUNT(*) as c", "c DESC"),
    chart(Some(Dim::Date), "COUNT(*) as c", "k ASC"),
    chart(Some(Dim::Date), "COUNT(*) as c, SUM(latency) as s", "s DESC"),
    chart(Some(Dim::Date), "COUNT(*) as c, AVG(latency) as a", "a DESC"),
    chart(None, "COUNT(*) as c, SUM(latency) as s, MIN(latency) as mn, MAX(latency) as mx", ""),
    chart(None, "COUNT(*) as c, AVG(latency) as a", ""),
    chart(None, "COUNT(DISTINCT table_name) as t", ""),
];

/// The `scan_cold` dashboard: high-cardinality `table_name` charts and
/// global aggregates among cheap dimensions. Two `table_name` charts, not
/// one: they cost three times the next dearest chart, and a single one is
/// exactly the dearest twentieth of the queries, which would put
/// `query_p95_us` on the cliff between the two.
const SCAN_CHARTS: [Chart; QUERIES_PER_CLICK] = [
    chart(Some(Dim::TableName), "COUNT(*) as c, SUM(latency) as s", "c DESC"),
    chart(None, "COUNT(*) as c, SUM(latency) as s, MIN(latency) as mn, MAX(latency) as mx", ""),
    chart(Some(Dim::Country), "COUNT(*) as c", "c DESC"),
    chart(Some(Dim::Country), "COUNT(*) as c, SUM(latency) as s", "s DESC"),
    chart(Some(Dim::Country), "COUNT(*) as c, AVG(latency) as a", "a DESC"),
    chart(Some(Dim::Country), "MIN(latency) as mn, MAX(latency) as mx", "mx DESC"),
    chart(Some(Dim::Country), "COUNT(DISTINCT user) as u", "u DESC"),
    chart(Some(Dim::TableName), "COUNT(*) as c, AVG(latency) as a", "a DESC"),
    chart(Some(Dim::User), "COUNT(*) as c", "c DESC"),
    chart(Some(Dim::User), "COUNT(*) as c, AVG(latency) as a", "a DESC"),
    chart(Some(Dim::User), "COUNT(*) as c, MAX(latency) as mx", "mx DESC"),
    chart(Some(Dim::User), "SUM(latency) as s", "s DESC"),
    chart(Some(Dim::User), "MIN(latency) as mn", "mn ASC"),
    chart(Some(Dim::Date), "COUNT(*) as c", "c DESC"),
    chart(Some(Dim::Date), "COUNT(*) as c, SUM(latency) as s", "s DESC"),
    chart(Some(Dim::Date), "COUNT(*) as c, AVG(latency) as a", "a DESC"),
    chart(Some(Dim::Date), "MAX(latency) as mx", "mx DESC"),
    chart(Some(Dim::Date), "MIN(latency) as mn", "mn ASC"),
    chart(None, "COUNT(*) as c, AVG(latency) as a", ""),
    chart(None, "COUNT(DISTINCT user) as u", ""),
];

fn render(chart: &Chart, conjuncts: &[&str]) -> String {
    let where_clause = if conjuncts.is_empty() {
        String::new()
    } else {
        format!(" WHERE {}", conjuncts.join(" AND "))
    };
    match chart.dim {
        Some(dim) => format!(
            "SELECT {d} as k, {aggs} FROM logs{where_clause} GROUP BY {d} ORDER BY {order} LIMIT 10",
            d = dim.expr(),
            aggs = chart.aggs,
            order = chart.order,
        ),
        None => format!("SELECT {} FROM logs{where_clause}", chart.aggs),
    }
}

/// Timestamp bounds of the table (its first column), for window filters.
fn time_range(table: &Table) -> (i64, i64) {
    let mut lo = i64::MAX;
    let mut hi = i64::MIN;
    for v in table.column(0) {
        if let Value::Int(ts) = v {
            lo = lo.min(*ts);
            hi = hi.max(*ts);
        }
    }
    (lo, hi)
}

/// `clicks` dashboard refreshes for `scan_cold`: every chart unrestricted
/// or filtered only on the measures no partitioning can skip by
/// (`latency >= x`, a `timestamp` window), thresholds drawn per click from
/// the shape stream `purpose`; the table (and so `--seed`) only places the
/// windows.
pub fn dashboard_clicks(table: &Table, purpose: &str, clicks: usize) -> Vec<Click> {
    let mut rng = shape_rng(purpose);
    let (lo, hi) = time_range(table);
    let span = (hi - lo).max(1) as u64;
    (0..clicks)
        .map(|_| {
            let latency = format!("latency >= {}", 20 + rng.below(60));
            let from = lo + (rng.next_u64() % (span / 4)) as i64;
            let window =
                format!("timestamp >= {from} AND timestamp < {}", from + (span / 4 * 3) as i64);
            let queries = SCAN_CHARTS
                .iter()
                .enumerate()
                .map(|(i, chart)| match i % 3 {
                    0 => render(chart, &[]),
                    1 => render(chart, &[&latency]),
                    _ => render(chart, &[&window]),
                })
                .collect();
            Click { queries }
        })
        .collect()
}

/// `YYYY-MM-DD` of a unix timestamp (proleptic Gregorian, UTC) — the text
/// `date(timestamp)` yields.
pub fn date_of(ts: i64) -> String {
    let z = ts.div_euclid(86_400) + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

/// One conjunct of the restriction stack.
#[derive(Debug, Clone, PartialEq)]
struct Filter {
    dim: Dim,
    sql: String,
}

/// Seed of every decision the generators make — which step comes next,
/// which dimension it touches, how popular a value it lands on, the
/// dashboard thresholds. A constant: `--seed` moves the table, and with it
/// the concrete values, but not the mix of cheap and dear clicks. The
/// driver judges the benchmark by the spread of ten runs on ten different
/// seeds; a session drawn from the seed spread 20 % on `click_p50_ms`
/// whatever the machine did, more than any bound.
const SHAPE_SEED: u64 = 7;

/// The decision stream for one purpose (`"session"`, `"warmup"`).
fn shape_rng(purpose: &str) -> Rng {
    Rng::new(derive(SHAPE_SEED, purpose))
}

/// The values of one dimension, each with the share of sampled rows up to
/// and including it.
struct Popularity(Vec<(String, f64)>);

impl Popularity {
    /// `by_name`: order values by name (days: a quantile is then a
    /// position in time); otherwise most popular first.
    fn of(values: impl Iterator<Item = String>, by_name: bool) -> Popularity {
        let mut counts: HashMap<String, usize> = HashMap::new();
        let mut total = 0usize;
        for v in values {
            *counts.entry(v).or_default() += 1;
            total += 1;
        }
        let mut ranked: Vec<(String, usize)> = counts.into_iter().collect();
        if by_name {
            ranked.sort();
        } else {
            ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        }
        let mut seen = 0;
        Popularity(
            ranked
                .into_iter()
                .map(|(value, n)| {
                    seen += n;
                    (value, seen as f64 / total as f64)
                })
                .collect(),
        )
    }

    /// The value a uniformly drawn row would hold, `u` in `[0, 1)` naming
    /// the row: popular values are drilled into more often.
    fn at(&self, u: f64) -> &str {
        let at = self.0.partition_point(|(_, share)| *share <= u);
        &self.0[at.min(self.0.len() - 1)].0
    }
}

/// An analyst session: an endless stream of drill / sibling / back steps,
/// each a click of [`QUERIES_PER_CLICK`] charts under the current
/// restriction stack. Values are those of the first `sample_rows` rows of
/// the table (the part a workload serves from the start), so every
/// restriction is satisfiable.
pub struct Session {
    shape: Rng,
    /// Indexed by `Dim as usize`.
    values: [Popularity; 4],
    stack: Vec<Filter>,
}

/// Deepest restriction stack.
const MAX_DEPTH: usize = 4;

impl Session {
    /// `purpose` names the decision stream.
    pub fn new(table: &Table, sample_rows: usize, purpose: &str) -> Session {
        let strings = |column: usize| {
            table.column(column)[..sample_rows].iter().map(|v| match v {
                Value::Int(ts) => date_of(*ts),
                other => other.render().replace('\'', ""),
            })
        };
        // `Dim` order: country, table_name, user, date.
        let values = [
            Popularity::of(strings(3), false),
            Popularity::of(strings(1), false),
            Popularity::of(strings(4), false),
            Popularity::of(strings(0), true),
        ];
        Session { shape: shape_rng(purpose), values, stack: Vec::new() }
    }

    fn sample_value(&mut self, dim: Dim) -> String {
        let u = (self.shape.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.values[dim as usize].at(u).to_owned()
    }

    /// A fresh filter on `dim`: mostly `dim = v`, one time in six
    /// `dim IN (v1, v2)`.
    fn filter_on(&mut self, dim: Dim) -> Filter {
        let a = self.sample_value(dim);
        let sql = if self.shape.below(6) == 0 {
            let b = self.sample_value(dim);
            format!("{} IN ('{a}', '{b}')", dim.expr())
        } else {
            format!("{} = '{a}'", dim.expr())
        };
        Filter { dim, sql }
    }

    /// The step mix, tuned once so that the session neither fits the
    /// caches nor escapes them (≥ 15 % of rows skipped and ≥ 15 % cached on
    /// `drill_local`), then fixed.
    fn step(&mut self) {
        let depth = self.stack.len();
        let roll = self.shape.percent();
        let (drill, sibling) = match depth {
            0 => (100, 0),
            MAX_DEPTH => (0, 40),
            _ => (40, 25),
        };
        if roll < drill {
            let free: Vec<Dim> =
                Dim::ALL.into_iter().filter(|d| self.stack.iter().all(|f| f.dim != *d)).collect();
            let dim = free[self.shape.below(free.len())];
            let filter = self.filter_on(dim);
            self.stack.push(filter);
        } else if roll < drill + sibling {
            // Replace the top value: the neighbouring bar of the chart
            // the analyst clicked last.
            let dim = self.stack.pop().expect("depth >= 1").dim;
            let filter = self.filter_on(dim);
            self.stack.push(filter);
        } else if roll < 95 {
            // Back: re-issues an earlier click's exact queries.
            self.stack.pop();
        } else {
            self.stack.clear();
        }
    }

    pub fn next_click(&mut self) -> Click {
        self.step();
        let queries = DRILL_CHARTS
            .iter()
            .map(|chart| {
                // A chart is never filtered by its own dimension: the
                // country chart keeps showing all countries.
                let conjuncts: Vec<&str> = self
                    .stack
                    .iter()
                    .filter(|f| Some(f.dim) != chart.dim)
                    .map(|f| f.sql.as_str())
                    .collect();
                render(chart, &conjuncts)
            })
            .collect();
        Click { queries }
    }

    pub fn clicks(&mut self, n: usize) -> Vec<Click> {
        (0..n).map(|_| self.next_click()).collect()
    }
}

/// What the inputs of one run looked like: compared against the values
/// recorded for the default seed, so that a drifting generator or chart
/// mix aborts the run instead of silently moving every metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub rows: u64,
    /// Distinct values per column, in schema order.
    pub distinct: [u64; 5],
    /// FNV-64 over every SQL string of the warm-up and the clicks.
    pub sql: u64,
}

/// As written in `Sizes::full`, so a re-recorded value can be pasted.
impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rows {} distinct {:?} sql {:#018x}", self.rows, self.distinct, self.sql)
    }
}

impl Fingerprint {
    pub fn of(table: &Table, clicks: &[&Click]) -> Fingerprint {
        let mut distinct = [0u64; 5];
        for (i, slot) in distinct.iter_mut().enumerate() {
            // Floats by bits, so the count is exact.
            let mut strs: HashSet<&str> = HashSet::new();
            let mut nums: HashSet<u64> = HashSet::new();
            for v in table.column(i) {
                match v {
                    Value::Str(s) => {
                        strs.insert(s);
                    }
                    Value::Int(n) => {
                        nums.insert(*n as u64);
                    }
                    Value::Float(f) => {
                        nums.insert(f.to_bits());
                    }
                    Value::Null => {}
                }
            }
            *slot = (strs.len() + nums.len()) as u64;
        }
        let mut sql = Fnv::default();
        for click in clicks {
            for q in &click.queries {
                sql.str(q);
            }
        }
        Fingerprint { rows: table.len() as u64, distinct, sql: sql.finish() }
    }

    /// One combined number, for the output line.
    pub fn combined(&self) -> u64 {
        let mut h = Fnv::default();
        h.u64(self.rows);
        for d in self.distinct {
            h.u64(d);
        }
        h.u64(self.sql);
        h.finish()
    }

    /// Names what differs from `recorded`; `None` when nothing does.
    pub fn drift_from(&self, recorded: &Fingerprint) -> Option<String> {
        const COLUMNS: [&str; 5] = ["timestamp", "table_name", "latency", "country", "user"];
        let mut drifted = Vec::new();
        if self.rows != recorded.rows {
            drifted.push(format!("row count {} (recorded {})", self.rows, recorded.rows));
        }
        for (i, name) in COLUMNS.iter().enumerate() {
            if self.distinct[i] != recorded.distinct[i] {
                drifted.push(format!(
                    "distinct `{name}` values {} (recorded {})",
                    self.distinct[i], recorded.distinct[i]
                ));
            }
        }
        if self.sql != recorded.sql {
            drifted.push(format!(
                "the generated SQL {:#018x} (recorded {:#018x})",
                self.sql, recorded.sql
            ));
        }
        (!drifted.is_empty()).then(|| drifted.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerdrill::data::generate_logs;
    use powerdrill::BuildOptions;

    fn small_table(seed: u64) -> Table {
        generate_logs(&table_spec(seed, 3_000))
    }

    #[test]
    fn inputs_repeat_per_seed_and_differ_across_seeds() {
        let table = small_table(1);
        let a = Session::new(&table, table.len(), "session").clicks(40);
        let b = Session::new(&table, table.len(), "session").clicks(40);
        let other_table = Session::new(&small_table(2), table.len(), "session").clicks(40);
        let warmup = Session::new(&table, table.len(), "warmup").clicks(40);
        assert_eq!(a, b);
        assert_ne!(a, other_table, "another seed's table holds other values");
        assert_ne!(a, warmup, "another purpose walks another path");
        assert_eq!(small_table(1), small_table(1));
        assert_ne!(small_table(1), small_table(2));
        assert_eq!(dashboard_clicks(&table, "session", 5), dashboard_clicks(&table, "session", 5));
        assert_ne!(dashboard_clicks(&table, "session", 5), dashboard_clicks(&table, "warmup", 5));
        assert_ne!(
            dashboard_clicks(&table, "session", 5),
            dashboard_clicks(&small_table(2), "session", 5),
            "another table places the windows elsewhere"
        );
    }

    #[test]
    fn seeds_change_values_but_not_the_shape_of_a_session() {
        let (one, two) = (small_table(1), small_table(2));
        let mut a = Session::new(&one, one.len(), "session");
        let mut b = Session::new(&two, two.len(), "session");
        for _ in 0..300 {
            a.next_click();
            b.next_click();
            let shape = |s: &Session| {
                s.stack.iter().map(|f| (f.dim, f.sql.contains(" IN "))).collect::<Vec<_>>()
            };
            assert_eq!(shape(&a), shape(&b));
        }
    }

    #[test]
    fn popularity_picks_the_value_of_the_named_row() {
        let values = ["b", "a", "b", "c", "b", "a"].map(str::to_owned);
        let ranked = Popularity::of(values.iter().cloned(), false);
        assert_eq!(ranked.at(0.0), "b");
        assert_eq!(ranked.at(0.49), "b");
        assert_eq!(ranked.at(0.5), "a");
        assert_eq!(ranked.at(0.84), "c");
        assert_eq!(ranked.at(0.999_999), "c");
        let by_name = Popularity::of(values.into_iter(), true);
        assert_eq!(by_name.at(0.0), "a");
        assert_eq!(by_name.at(0.34), "b");
    }

    #[test]
    fn a_click_is_twenty_parseable_charts_never_filtered_by_their_own_dimension() {
        let table = small_table(3);
        let mut session = Session::new(&table, table.len(), "session");
        let mut depths = HashSet::new();
        for _ in 0..200 {
            let click = session.next_click();
            depths.insert(session.stack.len());
            assert!(session.stack.len() <= MAX_DEPTH);
            assert_eq!(click.queries.len(), QUERIES_PER_CLICK);
            for (chart, sql) in DRILL_CHARTS.iter().zip(&click.queries) {
                powerdrill::sql::parse_query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
                if let (Some(dim), Some((_, tail))) = (chart.dim, sql.split_once(" WHERE ")) {
                    let restriction = tail.split(" GROUP BY ").next().unwrap();
                    assert!(
                        !restriction.contains(&format!("{} ", dim.expr())),
                        "chart on {} filtered by itself: {sql}",
                        dim.expr()
                    );
                }
            }
        }
        assert_eq!(depths.len(), MAX_DEPTH + 1, "every depth 0..=4 is visited");
        for click in dashboard_clicks(&table, "session", 3) {
            assert_eq!(click.queries.len(), QUERIES_PER_CLICK);
            for sql in &click.queries {
                powerdrill::sql::parse_query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
                assert!(!sql.contains("country =") && !sql.contains("table_name ="));
            }
        }
    }

    #[test]
    fn date_of_matches_the_engine() {
        assert_eq!(date_of(0), "1970-01-01");
        assert_eq!(date_of(1_317_427_200), "2011-10-01");
        assert_eq!(date_of(1_325_375_999), "2011-12-31");
        assert_eq!(date_of(1_330_516_800), "2012-02-29");
        // Every day the engine's `date(timestamp)` finds in a table is one
        // this function names, so a drill on a sampled date is satisfiable.
        let table = small_table(6);
        let pd = powerdrill::PowerDrill::import_uncached(&table, &BuildOptions::basic()).unwrap();
        let (result, _) = pd
            .sql("SELECT date(timestamp) as d, COUNT(*) as c FROM logs GROUP BY date(timestamp)")
            .unwrap();
        let engine: HashSet<String> =
            result.rows.iter().map(|r| r.values()[0].render().into_owned()).collect();
        let ours: HashSet<String> = table
            .column(0)
            .iter()
            .map(|v| if let Value::Int(ts) = v { date_of(*ts) } else { unreachable!() })
            .collect();
        assert!(engine.len() > 80, "a quarter of days: {}", engine.len());
        assert_eq!(engine, ours);
    }

    #[test]
    fn fingerprint_is_stable_and_names_what_drifted() {
        let table = small_table(4);
        let clicks = Session::new(&table, table.len(), "session").clicks(8);
        let refs: Vec<&Click> = clicks.iter().collect();
        let fp = Fingerprint::of(&table, &refs);
        assert_eq!(fp, Fingerprint::of(&table, &refs));
        assert_eq!(fp.rows, 3_000);
        assert_eq!(fp.distinct[3], 25, "the logs have 25 countries");
        assert_eq!(fp.drift_from(&fp), None);
        assert_eq!(fp.combined(), fp.clone().combined());

        let fewer = Fingerprint::of(&table, &refs[..7]);
        let drift = fewer.drift_from(&fp).unwrap();
        assert!(drift.contains("generated SQL") && !drift.contains("row count"), "{drift}");
        let other = Fingerprint::of(&small_table(5), &refs);
        assert!(other.drift_from(&fp).unwrap().contains("distinct `table_name`"));
    }
}
