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
