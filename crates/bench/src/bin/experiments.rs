//! Regenerate the paper's tables and figures.
//!
//! ```bash
//! cargo run -p pd-bench --release --bin experiments -- all
//! PD_ROWS=5000000 cargo run -p pd-bench --release --bin experiments -- table1
//! ```

use pd_bench::experiments;
use pd_bench::rows_from_env;

const USAGE: &str = "usage: experiments <subcommand> [rows]

subcommands:
  table1          Table 1  — CSV / record-io / Dremel / Basic latency+memory
  table2          Table 2  — optimized element encodings
  table3          Table 3  — Zippy on each encoding
  table4          Table 4  — step-wise summary
  trie            §3 text  — front-coded (OptDicts) dictionary sizes
  reorder         §3 text  — row reordering compression factors
  codecs          §5       — Zippy vs pd_bench::codecs (LZF / deflate / huffman / RLE)
  count_distinct  §5       — KMV sketch accuracy & speed
  cache           §5       — LRU vs 2Q vs ARC under scan pollution
  production      §6       — skipped/cached/scanned + disk-free fractions
  figure5         Figure 5 — latency vs bytes loaded from disk
  distributed     §4       — shard scaling, replication, tree depth
  partitioning    §2.2     — chunk threshold ablation
  elements        §3       — element encodings vs exact bit-width packing
  subdicts        §5       — sub-dictionaries + Bloom filters (pd_bench::subdict)
  all             everything above

rows default to $PD_ROWS or 500000.";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let rows = args.get(1).and_then(|v| v.parse().ok()).unwrap_or_else(rows_from_env);

    match cmd.as_str() {
        "table1" => experiments::table1(rows),
        "table2" => experiments::table2(rows),
        "table3" => experiments::table3(rows),
        "table4" => experiments::table4(rows),
        "trie" => experiments::trie(rows),
        "reorder" => experiments::reorder(rows),
        "codecs" => experiments::codecs(rows),
        "count_distinct" => experiments::count_distinct(rows),
        "cache" => experiments::cache(rows),
        "production" => experiments::production(rows),
        "figure5" => experiments::figure5(rows),
        "distributed" => experiments::distributed(rows),
        "partitioning" => experiments::partitioning(rows),
        "elements" => experiments::elements(rows),
        "subdicts" => experiments::subdicts(rows),
        "all" => experiments::all(rows),
        other => {
            eprintln!("unknown subcommand `{other}`\n\n{USAGE}");
            std::process::exit(2);
        }
    }
}
