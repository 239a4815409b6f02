//! The §3 optimization ladder, live: build the same dataset five ways and
//! print the per-query memory footprints (the shape of Table 4's
//! uncompressed rows; its Zippy rows size a compressed layer the engine
//! does not hold — `experiments table4` in `pd-bench` prints those). The
//! "Reorder" rung is sorted input + OptDicts: the table sorted by the
//! partition fields, then imported like the OptDicts rung. Sorting moves
//! rows within their chunks, so its uncompressed sizes equal OptDicts';
//! what it buys is longer runs, which only a compressed layer is paid in.
//!
//! ```bash
//! cargo run --release --example memory_footprint
//! ```

use powerdrill::core::memory::report_for_query;
use powerdrill::data::{generate_logs, LogsSpec, Table};
use powerdrill::{BuildOptions, DataStore, PartitionSpec};

fn main() -> powerdrill::Result<()> {
    let rows = std::env::var("PD_ROWS").ok().and_then(|v| v.parse().ok()).unwrap_or(100_000);
    println!("generating {rows} rows ...");
    let table = generate_logs(&LogsSpec::scaled(rows));
    let fields = ["country", "table_name"];
    let spec = PartitionSpec::new(&fields, 50_000.min(rows / 10).max(100));
    let sorted = table.sorted_by(&fields)?;

    let queries = [
        ("Q1", "SELECT country, COUNT(*) as c FROM data GROUP BY country ORDER BY c DESC LIMIT 10"),
        ("Q2", "SELECT date(timestamp) as d, COUNT(*), SUM(latency) FROM data GROUP BY d ORDER BY d ASC LIMIT 10"),
        ("Q3", "SELECT table_name, COUNT(*) as c FROM data GROUP BY table_name ORDER BY c DESC LIMIT 10"),
    ];
    let variants: [(&str, &Table, BuildOptions); 5] = [
        ("Basic", &table, BuildOptions::basic()),
        ("Chunks", &table, BuildOptions::chunked(spec.clone())),
        ("OptCols", &table, BuildOptions::optcols(spec.clone())),
        ("OptDicts", &table, BuildOptions::optdicts(spec.clone())),
        ("Reorder", &sorted, BuildOptions::optdicts(spec)),
    ];

    let mb = |b: usize| b as f64 / (1024.0 * 1024.0);
    println!(
        "\n{:<10} {:>10} {:>10} {:>10}   (uncompressed MB per query)",
        "Variant", "Q1", "Q2", "Q3"
    );
    for (name, table, options) in &variants {
        let store = DataStore::build(table, options)?;
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
