//! Randomized properties of the frame codec: it must round-trip arbitrary
//! byte strings and never panic on corrupted input — a compressed frame
//! body arrives from a socket. Driven by a seeded PRNG so failures
//! reproduce exactly.

use pd_common::rng::Rng;
use pd_compress::lz::LzCodec;
use pd_compress::Codec;

fn random_bytes(rng: &mut Rng, max_len: usize) -> Vec<u8> {
    let len = rng.range_usize(0, max_len + 1);
    (0..len).map(|_| rng.range_u64(0, 256) as u8).collect()
}

#[test]
fn round_trip_arbitrary_bytes() {
    let mut rng = Rng::seed_from_u64(0xc0de_c001);
    for case in 0..64 {
        let input = random_bytes(&mut rng, 4096);
        let output = LzCodec
            .decompress(&LzCodec.compress(&input))
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(output, input, "case {case}");
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
        let output = LzCodec
            .decompress(&LzCodec.compress(&input))
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(output, input, "case {case}");
    }
}

#[test]
fn decompress_never_panics_on_garbage() {
    let mut rng = Rng::seed_from_u64(0xc0de_c003);
    for _ in 0..64 {
        let garbage = random_bytes(&mut rng, 512);
        // Any result is fine; panics and unbounded allocation are not.
        let _ = LzCodec.decompress(&garbage);
    }
}

#[test]
fn decompress_never_panics_on_truncation() {
    let mut rng = Rng::seed_from_u64(0xc0de_c004);
    for _ in 0..32 {
        let input = random_bytes(&mut rng, 1024);
        let cut_ratio = rng.next_f64();
        let compressed = LzCodec.compress(&input);
        let cut = (compressed.len() as f64 * cut_ratio) as usize;
        let _ = LzCodec.decompress(&compressed[..cut]);
    }
}

#[test]
fn varint_round_trip() {
    use pd_compress::varint;
    let mut rng = Rng::seed_from_u64(0xc0de_c005);
    for _ in 0..64 {
        let values: Vec<u64> = (0..rng.range_usize(0, 200)).map(|_| rng.next_u64()).collect();
        let mut buf = Vec::new();
        for &v in &values {
            varint::write_u64(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(varint::read_u64(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
    }
}

#[test]
fn zigzag_varint_round_trip() {
    use pd_compress::varint;
    let mut rng = Rng::seed_from_u64(0xc0de_c006);
    for _ in 0..64 {
        let values: Vec<i64> =
            (0..rng.range_usize(0, 200)).map(|_| rng.next_u64() as i64).collect();
        let mut buf = Vec::new();
        for &v in &values {
            varint::write_i64(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(varint::read_i64(&buf, &mut pos).unwrap(), v);
        }
    }
}
