//! Randomized properties of the §5 comparison codecs: each must round-trip
//! arbitrary byte strings and never panic on corrupted input. Driven by a
//! seeded PRNG so failures reproduce exactly. (The engine's own codec has
//! the same suite in `pd-compress`; it is in `ALL` here too.)

use pd_bench::codecs::ALL;
use pd_common::rng::Rng;

fn random_bytes(rng: &mut Rng, max_len: usize) -> Vec<u8> {
    let len = rng.range_usize(0, max_len + 1);
    (0..len).map(|_| rng.range_u64(0, 256) as u8).collect()
}

#[test]
fn round_trip_arbitrary_bytes() {
    let mut rng = Rng::seed_from_u64(0xc0de_c001);
    for case in 0..64 {
        let input = random_bytes(&mut rng, 4096);
        for codec in ALL {
            let compressed = codec.compress(&input);
            let output = codec
                .decompress(&compressed)
                .unwrap_or_else(|e| panic!("case {case} {}: {e}", codec.name()));
            assert_eq!(output, input, "case {case} codec {}", codec.name());
        }
    }
}

#[test]
fn round_trip_low_entropy_bytes() {
    let mut rng = Rng::seed_from_u64(0xc0de_c002);
    for case in 0..64 {
        // Column-shaped data: few distinct values, long repeats.
        let seed_len = rng.range_usize(1, 16);
        let seed: Vec<u8> = (0..seed_len).map(|_| rng.range_u64(0, 4) as u8).collect();
        let reps = rng.range_usize(1, 400);
        let input: Vec<u8> = seed.iter().cycle().take(seed.len() * reps).copied().collect();
        for codec in ALL {
            let compressed = codec.compress(&input);
            let output = codec
                .decompress(&compressed)
                .unwrap_or_else(|e| panic!("case {case} {}: {e}", codec.name()));
            assert_eq!(output, input, "case {case} codec {}", codec.name());
        }
    }
}

#[test]
fn decompress_never_panics_on_garbage() {
    let mut rng = Rng::seed_from_u64(0xc0de_c003);
    for _ in 0..64 {
        let garbage = random_bytes(&mut rng, 512);
        for codec in ALL {
            // Any result is fine; panics and unbounded allocation are not.
            let _ = codec.decompress(&garbage);
        }
    }
}

#[test]
fn decompress_never_panics_on_truncation() {
    let mut rng = Rng::seed_from_u64(0xc0de_c004);
    for _ in 0..32 {
        let input = random_bytes(&mut rng, 1024);
        let cut_ratio = rng.next_f64();
        for codec in ALL {
            let compressed = codec.compress(&input);
            let cut = (compressed.len() as f64 * cut_ratio) as usize;
            let _ = codec.decompress(&compressed[..cut]);
        }
    }
}
