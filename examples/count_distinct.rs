//! Approximate count distinct (§5): *"for many analyses it is important to
//! be able to quickly compute the number of distinct values of a field
//! grouped by another field. As an example, consider counting the number of
//! distinct table names per country."* — this example runs exactly that.
//!
//! ```bash
//! cargo run --release --example count_distinct
//! ```

use powerdrill::core::{execute, ExecContext};
use powerdrill::data::{generate_logs, LogsSpec};
use powerdrill::sql::plan;
use powerdrill::{BuildOptions, DataStore};

fn main() -> powerdrill::Result<()> {
    let rows = std::env::var("PD_ROWS").ok().and_then(|v| v.parse().ok()).unwrap_or(200_000);
    println!("generating {rows} rows ...");
    let table = generate_logs(&LogsSpec::scaled(rows));
    let store = DataStore::build(&table, &BuildOptions::production(&["country", "table_name"]))?;

    // The paper's own example query.
    let sql = "SELECT country, COUNT(DISTINCT table_name) as tables, COUNT(*) as queries \
               FROM logs GROUP BY country ORDER BY queries DESC LIMIT 8";
    let analyzed = plan(sql)?;

    // Exact reference (a saturated sketch is exact).
    let exact_ctx = ExecContext { sketch_m: 1 << 22, ..Default::default() };
    let (exact, _) = execute(&store, &analyzed, &exact_ctx)?;

    println!("\nexact:\n{}", exact.render());

    for m in [512usize, 4096] {
        let ctx = ExecContext { sketch_m: m, ..Default::default() };
        let (approx, stats) = execute(&store, &analyzed, &ctx)?;
        println!("approximate with m = {m} (latency {:?}):", stats.elapsed);
        // Show estimates next to exact values.
        for (row, exact_row) in approx.rows.iter().zip(&exact.rows) {
            let country = row.get(0).render().into_owned();
            let est = row.get(1).as_int().unwrap_or(0);
            let truth = exact_row.get(1).as_int().unwrap_or(0);
            let err =
                if truth > 0 { 100.0 * (est - truth).abs() as f64 / truth as f64 } else { 0.0 };
            println!("  {country:<4} estimate {est:>6}  exact {truth:>6}  error {err:>5.1}%");
        }
    }
    println!("\n(the sketch keeps the m smallest hash values; estimate = m/v, §5)");
    Ok(())
}
