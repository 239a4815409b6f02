//! The introduction's promise, as an executable assertion: as a user
//! drills down ("all German searches … containing 'auto' … from one day"),
//! each added restriction lets the store skip a larger share of the data,
//! while results stay exactly right.

use powerdrill::data::{generate_searches, SearchesSpec};
use powerdrill::{BuildOptions, PartitionSpec, PowerDrill, Value};

fn pd() -> PowerDrill {
    let fields = ["country", "search_string"];
    let table = generate_searches(&SearchesSpec::scaled(30_000)).sorted_by(&fields).unwrap();
    PowerDrill::import(&table, &BuildOptions::optdicts(PartitionSpec::new(&fields, 1_000))).unwrap()
}

#[test]
fn each_drill_down_step_skips_more() {
    let pd = pd();
    let steps = [
        "SELECT search_string, COUNT(*) c FROM s GROUP BY search_string ORDER BY c DESC LIMIT 5",
        "SELECT search_string, COUNT(*) c FROM s WHERE country = 'DE' GROUP BY search_string ORDER BY c DESC LIMIT 5",
        "SELECT search_string, COUNT(*) c FROM s WHERE country = 'DE' AND search_string IN ('auto', 'autoversicherung') GROUP BY search_string ORDER BY c DESC LIMIT 5",
    ];
    let mut last_skip = -1.0;
    for sql in steps {
        let (result, stats) = pd.sql(sql).unwrap();
        assert!(!result.rows.is_empty(), "{sql}");
        let skip = stats.skipped_fraction();
        assert!(
            skip >= last_skip,
            "skip fraction must not decrease while drilling down: {skip} after {last_skip} ({sql})"
        );
        last_skip = skip;
    }
    assert!(last_skip > 0.8, "the final drill-down should skip most data: {last_skip}");
}

#[test]
fn drilldown_results_are_consistent_across_steps() {
    let pd = pd();
    // The count of German "auto" searches must be identical whether asked
    // via a drilled-down grouped query or a direct global aggregate.
    let (grouped, _) = pd
        .sql("SELECT search_string, COUNT(*) c FROM s WHERE country = 'DE' GROUP BY search_string ORDER BY c DESC LIMIT 100")
        .unwrap();
    let auto_from_group: i64 = grouped
        .rows
        .iter()
        .filter(|r| r.get(0).as_str() == Some("auto"))
        .map(|r| r.get(1).as_int().unwrap())
        .sum();
    let (direct, stats) =
        pd.sql("SELECT COUNT(*) FROM s WHERE country = 'DE' AND search_string = 'auto'").unwrap();
    assert_eq!(direct.rows[0].0[0], Value::Int(auto_from_group));
    assert!(stats.skipped_fraction() > 0.5, "{}", stats.summary());
}

#[test]
fn language_correlation_shows_in_results() {
    let pd = pd();
    // 'auto' is a German term in this dataset; restricting to the US must
    // produce zero matches — via skipping alone, without scanning rows.
    let (result, stats) =
        pd.sql("SELECT COUNT(*) FROM s WHERE country = 'US' AND search_string = 'auto'").unwrap();
    assert_eq!(result.rows[0].0[0], Value::Int(0));
    assert_eq!(
        stats.rows_scanned,
        0,
        "country/search correlation lets the chunk dictionaries prove emptiness: {}",
        stats.summary()
    );
}

#[test]
fn contains_filter_works_but_cannot_skip() {
    let pd = pd();
    // contains() is outside the skipping operator set: correct results,
    // but every chunk must be scanned (modulo other conjuncts).
    let (with_country, s1) = pd
        .sql("SELECT COUNT(*) FROM s WHERE country = 'DE' AND contains(search_string, 'auto')")
        .unwrap();
    let (without, s2) =
        pd.sql("SELECT COUNT(*) FROM s WHERE contains(search_string, 'auto')").unwrap();
    let a = with_country.rows[0].0[0].as_int().unwrap();
    let b = without.rows[0].0[0].as_int().unwrap();
    assert!(a > 0 && b >= a);
    assert!(s1.rows_skipped > 0, "the country conjunct still skips: {}", s1.summary());
    assert_eq!(s2.rows_skipped, 0, "contains alone cannot skip: {}", s2.summary());
}
