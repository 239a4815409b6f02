//! Count-distinct (§5) and cache-policy microbenchmarks.

use pd_bench::residency::{CachePolicy, TieredCache};
use pd_bench::Bench;
use pd_common::fx_hash64;
use pd_core::KmvSketch;
use std::hint::black_box;

fn main() {
    const N: u64 = 500_000;
    let hashes: Vec<u64> = (0..N).map(|i| fx_hash64(&i)).collect();

    let bench = Bench::new("count_distinct").samples(5);
    for m in [1024usize, 4096, 16384] {
        bench.case_throughput(&format!("kmv_m{m}"), N, || {
            let mut sketch = KmvSketch::new(m);
            for &h in &hashes {
                sketch.offer(h);
            }
            black_box(sketch.estimate());
        });
    }
    // What a scan does instead of offering rows: a chunk's hashes become a
    // sketch by one sort (a chunk of `BuildOptions::production`'s 50 000
    // rows, every hash distinct), and a fold or a tree level merges two
    // saturated sketches as sorted runs (100 merges, each of a fresh clone).
    const CHUNK: usize = 50_000;
    for m in [1024usize, 4096, 16384] {
        bench.case_throughput(&format!("from_parts_chunk_m{m}"), CHUNK as u64, || {
            black_box(KmvSketch::from_parts(m, hashes[..CHUNK].iter().copied()).estimate());
        });
    }
    for m in [1024usize, 4096, 16384] {
        let a = KmvSketch::from_parts(m, hashes.iter().copied().step_by(2));
        let b = KmvSketch::from_parts(m, hashes.iter().copied().skip(1).step_by(3));
        assert_eq!((a.len(), b.len()), (m, m), "both sides saturated");
        bench.case_throughput(&format!("merge_saturated_m{m}"), 100 * 2 * m as u64, || {
            for _ in 0..100 {
                let mut merged = a.clone();
                merged.merge(&b);
                black_box(merged.estimate());
            }
        });
    }
    bench.case_throughput("exact_hashset", N, || {
        let set: pd_common::FxHashSet<u64> = hashes.iter().copied().collect();
        black_box(set.len());
    });

    let bench = Bench::new("cache_touch").samples(5);
    for policy in [CachePolicy::Lru, CachePolicy::TwoQ, CachePolicy::Arc] {
        let cache = TieredCache::new(policy, 1 << 20, 1 << 19);
        let keys: Vec<_> = (0..256u32).map(|i| (std::sync::Arc::<str>::from("col"), i)).collect();
        bench.case_throughput(&format!("{policy:?}"), 10_000, || {
            for i in 0..10_000u32 {
                let key = &keys[(i % 256) as usize];
                black_box(cache.touch(key, 8 << 10, 2 << 10));
            }
        });
    }
}
