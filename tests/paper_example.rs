//! The worked example of §2.4, end to end.
//!
//! The paper builds a `search_string` column laid out as in Figure 1
//! (three chunks, double dictionary encoding) and evaluates
//!
//! ```sql
//! SELECT search_string, COUNT(*) as c FROM data
//! WHERE search_string IN ("la redoute", "voyages sncf")
//! GROUP BY search_string ORDER BY c DESC LIMIT 10;
//! ```
//!
//! finding that one global-id occurs in no chunk and the other only in
//! chunk 2 — a single active chunk, one counts-array pass, one result row.

use powerdrill::{BuildOptions, DataType, PartitionSpec, PowerDrill, Row, Schema, Table, Value};

/// Figure 1's data, with a `region` key that pins rows into the paper's
/// three chunks (the paper assumes the §2.2 partitioning already happened).
fn figure1_table() -> Table {
    let schema = Schema::of(&[("region", DataType::Int), ("search_string", DataType::Str)]);
    let chunks: [&[&str]; 3] = [
        // chunk 0
        &["ebay", "cheap flights", "amazon", "ebay", "yellow pages"],
        // chunk 1
        &["ab in den Urlaub", "amazon", "ebay", "faschingskostüme", "immobilienscout"],
        // chunk 2 — "la redoute" appears once, "voyages sncf" three times.
        &["chaussures", "voyages sncf", "la redoute", "voyages sncf", "voyages sncf"],
    ];
    let mut table = Table::new(schema);
    for (region, values) in chunks.iter().enumerate() {
        for v in *values {
            table.push_row(Row(vec![Value::Int(region as i64), Value::from(*v)])).unwrap();
        }
    }
    table
}

#[test]
fn section_2_4_worked_example() {
    let table = figure1_table();
    let pd = PowerDrill::import(&table, &BuildOptions::optcols(PartitionSpec::new(&["region"], 5)))
        .unwrap();
    assert_eq!(pd.store().chunk_count(), 3, "the example has three chunks");

    let (result, stats) = pd
        .sql(
            r#"SELECT search_string, COUNT(*) as c FROM data
                WHERE search_string IN ("la redoute", "voyages sncf")
                GROUP BY search_string ORDER BY c DESC LIMIT 10;"#,
        )
        .unwrap();

    // Only chunk 2 is active; chunks 0 and 1 are skipped outright.
    assert_eq!(stats.chunks_total, 3);
    assert_eq!(stats.chunks_skipped, 2, "{}", stats.summary());
    assert_eq!(stats.chunks_scanned, 1);

    // Two result rows, ordered by count descending.
    assert_eq!(result.rows.len(), 2);
    assert_eq!(result.rows[0].0, vec![Value::from("voyages sncf"), Value::Int(3)]);
    assert_eq!(result.rows[1].0, vec![Value::from("la redoute"), Value::Int(1)]);
}

#[test]
fn dictionary_lookup_chain_of_figure1() {
    // dict(ch0.dict(ch0.elems[3])) — the double indirection, spelled out.
    let table = figure1_table();
    let pd = PowerDrill::import(&table, &BuildOptions::optcols(PartitionSpec::new(&["region"], 5)))
        .unwrap();
    let col = pd.store().column("search_string").unwrap();
    // Row 3 of chunk 0 is the second "ebay".
    assert_eq!(col.value_at(0, 3), Value::from("ebay"));
    let chunk0 = &col.chunks[0];
    let chunk_id = chunk0.elements.get(3);
    let global_id = chunk0.dict.get(chunk_id);
    assert_eq!(col.dict.value(global_id), Value::from("ebay"));
    // Chunk 0 holds 4 distinct values; the global dictionary 10.
    assert_eq!(chunk0.dict.len(), 4);
    assert_eq!(col.dict.len(), 10);
}

#[test]
fn absent_value_skips_all_chunks() {
    // "9 is not contained in any chunk": a value that exists in the
    // dictionary but not in any chunk cannot happen (chunk dictionaries
    // cover all occurrences), so the paper's case is a value absent from
    // the probed chunks; an entirely unknown value skips everything.
    let table = figure1_table();
    let pd = PowerDrill::import(&table, &BuildOptions::optcols(PartitionSpec::new(&["region"], 5)))
        .unwrap();
    let (result, stats) = pd
        .sql("SELECT search_string, COUNT(*) c FROM data WHERE search_string = 'karnevalskostüme' GROUP BY search_string")
        .unwrap();
    assert!(result.rows.is_empty());
    assert_eq!(stats.chunks_skipped, 3);
    assert_eq!(stats.rows_scanned, 0);
}
