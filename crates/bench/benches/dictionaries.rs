//! Dictionary lookups (§3 "Optimize Global-Dictionaries"): sorted array vs
//! front-coded blocks, in both directions, plus element access across
//! representations.
//!
//! One claim is asserted, as an in-run ratio: reading *every* entry of a
//! front-coded dictionary with one ordered walk (`for_each_of`, each block
//! decoded once, no string built) beats a `value()` call per id by at
//! least 3× — what a leaf pays to write a value-keyed group table's sort
//! keys. The same walk collecting owned strings (`values_of`) is reported
//! beside it, not asserted: there one allocation per id costs as much as
//! the decoding the walk saves.

use pd_bench::Bench;
use pd_encoding::{Elements, ElementsMode, FrontCoded, Sorted};
use std::hint::black_box;

fn names(n: usize) -> Vec<String> {
    let mut v: Vec<String> = (0..n)
        .map(|i| {
            format!(
                "logs.team_{:02}.dataset_{:03}.2011-{:02}-{:02}",
                i % 23,
                i % 301,
                i % 12 + 1,
                i % 28 + 1
            )
        })
        .collect();
    v.sort_unstable();
    v.dedup();
    v
}

fn main() {
    let values = names(120_000);
    let sorted: Sorted<Box<str>> =
        Sorted::from_sorted(values.iter().map(|s| s.as_str().into()).collect())
            .expect("sorted dict");
    let front_coded = FrontCoded::from_sorted(&values).expect("front coding");
    let probes: Vec<&str> = values.iter().step_by(7).map(String::as_str).collect();

    let bench = Bench::new("dictionaries").samples(10);
    bench.case_throughput("id_of/sorted_array", probes.len() as u64, || {
        for p in &probes {
            black_box(sorted.rank_by(|v| (**v).cmp(p)).ok());
        }
    });
    bench.case_throughput("id_of/front_coded", probes.len() as u64, || {
        for p in &probes {
            black_box(front_coded.id_of(p));
        }
    });

    let ids: Vec<u32> = (0..sorted.len()).step_by(7).collect();
    bench.case_throughput("value/sorted_array", ids.len() as u64, || {
        for &id in &ids {
            black_box(sorted.value(id));
        }
    });
    bench.case_throughput("value/front_coded", ids.len() as u64, || {
        for &id in &ids {
            black_box(front_coded.value(id));
        }
    });

    // Every id: a block decoded up to it each, or each block decoded once.
    let all: Vec<u32> = (0..front_coded.len()).collect();
    let per_id = bench.case_throughput("value_all/front_coded_per_id", all.len() as u64, || {
        black_box(all.iter().map(|&id| front_coded.value(id)).collect::<Vec<String>>());
    });
    let one_walk =
        bench.case_throughput("value_all/front_coded_for_each_of", all.len() as u64, || {
            let mut bytes = 0;
            front_coded.for_each_of(&all, |entry| bytes += entry.len());
            black_box(bytes);
        });
    bench.case_throughput("value_all/front_coded_values_of", all.len() as u64, || {
        black_box(front_coded.values_of(&all));
    });
    let mut walked = Vec::with_capacity(all.len());
    front_coded.for_each_of(&all, |entry| walked.push(String::from_utf8(entry.to_vec()).unwrap()));
    assert_eq!(walked, values, "the walk visits the dictionary");
    assert_eq!(front_coded.values_of(&all), values, "the walk returns the dictionary");
    assert!(
        one_walk * 3 <= per_id,
        "one ordered walk must beat a value() per id 3x: {one_walk:?} vs {per_id:?}"
    );

    // Element access across representations.
    let bench = Bench::new("elements_get").samples(10);
    const ROWS: usize = 500_000;
    for distinct in [1u32, 2, 200, 60_000] {
        let ids: Vec<u32> = (0..ROWS).map(|i| i as u32 % distinct).collect();
        let elements = Elements::encode(&ids, distinct, ElementsMode::Optimized);
        bench.case_throughput(elements.repr_name(), ROWS as u64, || {
            let mut sum = 0u64;
            elements.iter().for_each(|id| sum += u64::from(id));
            black_box(sum);
        });
    }
}
