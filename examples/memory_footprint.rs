//! The §3 optimization ladder, live: build the same dataset five ways and
//! print the per-query memory footprints (the shape of Table 4's
//! uncompressed rows; its Zippy rows size a compressed layer the engine
//! does not hold — `experiments table4` in `pd-bench` prints those).
//!
//! ```bash
//! cargo run --release --example memory_footprint
//! ```

use powerdrill::core::memory::report_for_query;
use powerdrill::data::{generate_logs, LogsSpec};
use powerdrill::{BuildOptions, DataStore, PartitionSpec};

fn main() -> powerdrill::Result<()> {
    let rows = std::env::var("PD_ROWS").ok().and_then(|v| v.parse().ok()).unwrap_or(100_000);
    println!("generating {rows} rows ...");
    let table = generate_logs(&LogsSpec::scaled(rows));
    let spec = PartitionSpec::new(&["country", "table_name"], 50_000.min(rows / 10).max(100));

    let queries = [
        ("Q1", "SELECT country, COUNT(*) as c FROM data GROUP BY country ORDER BY c DESC LIMIT 10"),
        ("Q2", "SELECT date(timestamp) as d, COUNT(*), SUM(latency) FROM data GROUP BY d ORDER BY d ASC LIMIT 10"),
        ("Q3", "SELECT table_name, COUNT(*) as c FROM data GROUP BY table_name ORDER BY c DESC LIMIT 10"),
    ];
    let variants: [(&str, BuildOptions); 5] = [
        ("Basic", BuildOptions::basic()),
        ("Chunks", BuildOptions::chunked(spec.clone())),
        ("OptCols", BuildOptions::optcols(spec.clone())),
        ("OptDicts", BuildOptions::optdicts(spec.clone())),
        ("Reorder", BuildOptions::reordered(spec)),
    ];

    let mb = |b: usize| b as f64 / (1024.0 * 1024.0);
    println!(
        "\n{:<10} {:>10} {:>10} {:>10}   (uncompressed MB per query)",
        "Variant", "Q1", "Q2", "Q3"
    );
    for (name, options) in &variants {
        let store = DataStore::build(&table, options)?;
        let sizes: Vec<f64> = queries
            .iter()
            .map(|(_, sql)| {
                Ok::<f64, powerdrill::Error>(mb(report_for_query(&store, sql)?.total()))
            })
            .collect::<Result<_, _>>()?;
        println!("{:<10} {:>10.3} {:>10.3} {:>10.3}", name, sizes[0], sizes[1], sizes[2]);
    }
    Ok(())
}
