//! Wire-format properties for the types that cross the §4 process
//! boundary:
//!
//! 1. **Round trip**: `decode(encode(x)) == x` *bit-identically* for
//!    [`PartialResult`] / [`FloatSum`] over the partials of seeded-PRNG-
//!    generated stores and queries — NaN (with odd payloads), ±0.0 and
//!    subnormal floats in keys, sums and extremes, partials of no groups
//!    and empty (global-aggregation) keys, float slots still pairs beside
//!    tainted ones. Equality is exact: `Value` compares floats with
//!    `total_cmp` and `FloatSum` compares raw limbs, so a single flipped
//!    bit fails. The round trip is byte-stable too: `encode(decode(b)) ==
//!    b`.
//! 2. **Corruption safety**: decoding truncated or bit-flipped frames
//!    returns `Err` (or a different valid value, for flips that land in
//!    payload bytes) — never a panic, never an absurd allocation; ragged
//!    columns, unsorted or duplicate keys, unknown tags and lengths beyond
//!    the frame are typed `Error::Data`; a sketch's hash list in any order,
//!    with repeats, longer than its `m`, decodes to the sketch
//!    `KmvSketch::from_parts` makes of it.

use pd_common::rng::Rng;
use pd_common::sortkey::TAG_STR;
use pd_common::wire::{from_bytes, to_bytes};
use pd_common::{fx_hash64, DataType, Error, FloatSum, Row, Schema, Value};
use pd_core::{execute_partial, BuildOptions, DataStore, ExecContext, KmvSketch, PartialResult};
use pd_data::Table;
use pd_sql::{analyze, parse_query};

/// Floats that stress every encoding edge: NaNs with payloads, signed
/// zeros, subnormals, the extremes, and ordinary values.
fn random_float(rng: &mut Rng) -> f64 {
    match rng.range_usize(0, 10) {
        0 => f64::NAN,
        1 => f64::from_bits(f64::NAN.to_bits() | 0xbeef), // NaN payload
        2 => -0.0,
        3 => 0.0,
        4 => 5e-324,  // smallest subnormal
        5 => -2e-308, // subnormal-range
        6 => f64::INFINITY,
        7 => f64::NEG_INFINITY,
        8 => f64::MAX,
        _ => rng.range_i64_inclusive(-1_000_000, 1_000_000) as f64 * 0.001,
    }
}

/// A value of column type `of`.
fn random_value(rng: &mut Rng, of: DataType) -> Value {
    match of {
        DataType::Int => Value::Int(rng.range_i64_inclusive(i64::MIN / 2, i64::MAX / 2)),
        DataType::Float => Value::Float(random_float(rng)),
        DataType::Str => {
            let len = rng.range_usize(0, 12);
            Value::Str((0..len).map(|_| char::from(rng.range_usize(32, 127) as u8)).collect())
        }
    }
}

fn random_float_sum(rng: &mut Rng) -> FloatSum {
    let mut sum = FloatSum::new();
    for _ in 0..rng.range_usize(0, 20) {
        sum.add(random_float(rng));
    }
    sum
}

const TYPES: [DataType; 3] = [DataType::Int, DataType::Float, DataType::Str];

/// What the partials of one query have in common: its key columns' types,
/// its aggregates and its sketch size.
struct Shape {
    keys: Vec<DataType>,
    aggs: Vec<String>,
    m: usize,
}

/// Up to two keys of any type, one to four aggregates of any kind: COUNT,
/// an integer and a float SUM, MIN / MAX and COUNT DISTINCT of any type.
fn random_shape(rng: &mut Rng) -> Shape {
    let keys = (0..rng.range_usize(0, 3)).map(|_| *rng.pick(&TYPES)).collect();
    let column = |rng: &mut Rng| *rng.pick(&["i", "x", "s"]);
    let aggs = (0..rng.range_usize(1, 5))
        .map(|_| match rng.range_usize(0, 6) {
            0 => "COUNT(*)".to_owned(),
            1 => "SUM(i)".to_owned(),
            2 => "SUM(x)".to_owned(),
            3 => format!("MIN({})", column(rng)),
            4 => format!("MAX({})", column(rng)),
            _ => format!("COUNT(DISTINCT {})", column(rng)),
        })
        .collect();
    Shape { keys, aggs, m: rng.range_usize(1, 64) }
}

/// The partial of `shape`'s query over a random store. No groups at all
/// and the one group of an empty (global) key are both in-distribution;
/// some keys come from a domain small enough that groups hold several rows
/// and two partials of one shape share groups.
fn random_partial_of(rng: &mut Rng, shape: &Shape) -> PartialResult {
    let keys: Vec<String> = (0..shape.keys.len()).map(|i| format!("k{i}")).collect();
    let mut fields: Vec<(&str, DataType)> =
        keys.iter().map(String::as_str).zip(shape.keys.iter().copied()).collect();
    fields.extend([("i", DataType::Int), ("x", DataType::Float), ("s", DataType::Str)]);
    let mut table = Table::new(Schema::of(&fields));
    let groups = if rng.chance(0.1) { 0 } else { rng.range_usize(1, 30) };
    for _ in 0..groups.max(1) {
        let cells = fields.iter().enumerate().map(|(i, &(_, of))| match of {
            DataType::Int if i < keys.len() && rng.chance(0.5) => {
                Value::Int(rng.range_i64_inclusive(0, 6))
            }
            _ => random_value(rng, of),
        });
        let row = Row(cells.collect());
        table.push_row(row).unwrap();
    }
    let aggs = (shape.aggs.iter().enumerate()).map(|(i, agg)| format!("{agg} a{i}"));
    let select: Vec<String> = keys.iter().cloned().chain(aggs).collect();
    let filter = if groups == 0 { " WHERE i > i" } else { "" };
    let group_by =
        if keys.is_empty() { String::new() } else { format!(" GROUP BY {}", keys.join(", ")) };
    let sql = format!("SELECT {} FROM t{filter}{group_by}", select.join(", "));
    let analyzed = analyze(&parse_query(&sql).unwrap()).unwrap();
    let store = DataStore::build(&table, &BuildOptions::basic()).unwrap();
    let ctx = ExecContext { sketch_m: shape.m, ..Default::default() };
    execute_partial(&store, &analyzed, &ctx).unwrap().0
}

fn random_partial(rng: &mut Rng) -> PartialResult {
    let shape = random_shape(rng);
    random_partial_of(rng, &shape)
}

/// Partials as the engine makes them — float slots that are still pairs
/// beside ones a NaN, an infinity or an overflow tainted, MIN/MAX cells,
/// sketches — over one and over two keys.
fn engine_partials() -> Vec<PartialResult> {
    let schema = Schema::of(&[("k", DataType::Str), ("n", DataType::Int), ("x", DataType::Float)]);
    let mut table = Table::new(schema);
    let xs = [0.1, -0.0, 1e308, 1e308, f64::NAN, f64::NEG_INFINITY, 2.5, 1e-300];
    for i in 0..400usize {
        let x = if i % 7 < 3 { 0.25 * (i % 5) as f64 } else { xs[i % xs.len()] };
        table
            .push_row(Row(vec![
                Value::from(format!("k{:02}", i % 13)),
                Value::Int((i % 4) as i64),
                Value::Float(x),
            ]))
            .unwrap();
    }
    let store = DataStore::build(&table, &BuildOptions::basic()).unwrap();
    ["k", "k, n"]
        .map(|keys| {
            let sql = format!(
                "SELECT {keys}, COUNT(*), SUM(x), AVG(x), MIN(x), MAX(k), COUNT(DISTINCT n) \
                 FROM t GROUP BY {keys}"
            );
            let analyzed = analyze(&parse_query(&sql).unwrap()).unwrap();
            execute_partial(&store, &analyzed, &ExecContext::default()).unwrap().0
        })
        .to_vec()
}

#[test]
fn float_sums_round_trip_bit_identically() {
    let mut rng = Rng::seed_from_u64(0xc0de_c001);
    for _ in 0..500 {
        let sum = random_float_sum(&mut rng);
        let back: FloatSum = from_bytes(&to_bytes(&sum)).unwrap();
        // Struct equality is limb-level — bit identity of the exact sum —
        // and the rounded values must agree bit-for-bit too.
        assert_eq!(back, sum);
        assert_eq!(back.value().to_bits(), sum.value().to_bits());
    }
}

#[test]
fn partial_results_round_trip_bit_identically() {
    let mut rng = Rng::seed_from_u64(0xc0de_c002);
    let generated = (0..200).map(|_| random_partial(&mut rng));
    for (case, partial) in generated.chain(engine_partials()).enumerate() {
        let bytes = to_bytes(&partial);
        let back: PartialResult = from_bytes(&bytes).unwrap();
        assert_eq!(back, partial, "case {case}");
        // Byte-stable: the groups travel in key order, the columns as they
        // are — a decoded partial encodes to the bytes it came from.
        assert_eq!(to_bytes(&back), bytes, "case {case}");
    }
}

#[test]
fn merging_decoded_partials_equals_merging_originals() {
    // The wire sits *between* merge levels, so decode∘encode must commute
    // with the associative fold.
    let mut rng = Rng::seed_from_u64(0xc0de_c003);
    for _ in 0..50 {
        // Two partials of one query: mismatched shapes are a merge error
        // by contract, not a wire concern.
        let shape = random_shape(&mut rng);
        let (a, b) = (random_partial_of(&mut rng, &shape), random_partial_of(&mut rng, &shape));
        let mut direct = a.clone();
        direct.merge(b.clone()).unwrap();
        let mut via_wire: PartialResult = from_bytes(&to_bytes(&a)).unwrap();
        via_wire.merge(from_bytes(&to_bytes(&b)).unwrap()).unwrap();
        assert_eq!(via_wire, direct);
    }
}

#[test]
fn truncated_frames_always_error() {
    let mut rng = Rng::seed_from_u64(0xc0de_c004);
    let generated: Vec<_> = (0..20).map(|_| random_partial(&mut rng)).collect();
    for partial in generated.into_iter().chain(engine_partials()) {
        let bytes = to_bytes(&partial);
        // Every strict prefix must fail: the length prefixes demand more
        // bytes than remain, and `from_bytes` rejects trailing slack.
        for cut in 0..bytes.len() {
            assert!(
                from_bytes::<PartialResult>(&bytes[..cut]).is_err(),
                "decode of {cut}/{} bytes must fail",
                bytes.len()
            );
        }
    }
}

#[test]
fn corrupt_frames_never_panic() {
    // Seeded fuzz over valid encodings: flip bytes anywhere in the frame.
    // The decode may legitimately succeed with a *different* value (a flip
    // in an f64's mantissa is just another float), but it must return —
    // no panics, no unwinds, no huge allocations — and a refusal is a
    // typed `Error::Data`. A panic would abort the test process, so plain
    // execution is the assertion.
    let mut rng = Rng::seed_from_u64(0xc0de_c005);
    let mut decoded_ok = 0u32;
    let mut decode_err = 0u32;
    let generated: Vec<_> = (0..38).map(|_| random_partial(&mut rng)).collect();
    for partial in generated.iter().cloned().chain(engine_partials()) {
        let bytes = to_bytes(&partial);
        for _ in 0..50 {
            let mut corrupt = bytes.clone();
            let flips = rng.range_usize(1, 4);
            for _ in 0..flips {
                let pos = rng.range_usize(0, corrupt.len());
                corrupt[pos] ^= 1 << rng.range_usize(0, 8);
            }
            match from_bytes::<PartialResult>(&corrupt) {
                Ok(_) => decoded_ok += 1,
                Err(Error::Data(_)) => decode_err += 1,
                Err(other) => panic!("an untyped refusal: {other:?}"),
            }
        }
    }
    // Sanity: the fuzz actually exercised both outcomes.
    assert!(decode_err > 0, "bit flips that corrupt structure must error");
    assert_eq!(decoded_ok + decode_err, 2_000, "every corruption was decoded exactly once");

    // Forged first key columns — every way `malformed_tables_are_typed_errors`
    // breaks one by hand, on every generated and engine partial it fits.
    let mut kinds = std::collections::BTreeSet::new();
    for partial in generated.into_iter().chain(engine_partials()) {
        let bytes = to_bytes(&partial);
        for (what, corrupt) in forged_key_columns(&bytes) {
            let outcome = from_bytes::<PartialResult>(&corrupt);
            assert!(matches!(outcome, Err(Error::Data(_))), "{what}: {outcome:?}");
            kinds.insert(what);
        }
    }
    assert_eq!(kinds.len(), 9, "every forgery met a partial it fits: {kinds:?}");
}

/// The frame of a partial with its first key column broken, one way per
/// entry: `[group count][key columns][buffer length][buffer][end count]
/// [ends (u32)]…`. Empty when the partial has no key column or fewer than
/// two groups.
fn forged_key_columns(bytes: &[u8]) -> Vec<(&'static str, Vec<u8>)> {
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let (groups, keys) = (word(0), word(8));
    if keys == 0 || groups < 2 {
        return Vec::new();
    }
    let buffer = word(16);
    let (cells, ends) = (24, 24 + buffer + 8);
    let end =
        |g: usize| u32::from_le_bytes(bytes[ends + 4 * g..ends + 4 * g + 4].try_into().unwrap());
    let set_end = |b: &mut Vec<u8>, g: usize, to: u32| {
        b[ends + 4 * g..ends + 4 * g + 4].copy_from_slice(&to.to_le_bytes())
    };
    let (first, second) = (end(0) as usize, end(1) as usize);
    let edit = |edit: &dyn Fn(&mut Vec<u8>)| {
        let mut b = bytes.to_vec();
        edit(&mut b);
        b
    };
    let mut forged = vec![
        ("ends that descend", edit(&|b| set_end(b, 1, first as u32 - 1))),
        ("an end past the buffer", edit(&|b| set_end(b, groups - 1, buffer as u32 + 1))),
        ("a last end short of the buffer", edit(&|b| set_end(b, groups - 1, buffer as u32 - 1))),
        (
            "a buffer longer than the bytes left",
            edit(&|b| b[16..24].copy_from_slice(&(bytes.len() as u64).to_le_bytes())),
        ),
        ("a bad tag", edit(&|b| b[cells] = 4)),
    ];
    let widened = |byte: u8| {
        edit(&|b| {
            (0..groups).for_each(|g| set_end(b, g, end(g) + 1));
            b.insert(cells + first, byte);
            b[16..24].copy_from_slice(&(buffer as u64 + 1).to_le_bytes());
        })
    };
    match bytes[cells] {
        TAG_STR => forged.push(("invalid UTF-8", widened(0xff))),
        _ => forged.push(("a Null, Int or Float cell a byte wider", widened(0))),
    }
    // With one key column, a repeated or swapped cell repeats or swaps a
    // group's whole key.
    if keys == 1 && second - first == first {
        let swapped = edit(&|b| b[cells..cells + second].rotate_left(first));
        forged.push(("equal keys", edit(&|b| b.copy_within(cells..cells + first, cells + first))));
        forged.push(("descending keys", swapped));
    }
    forged
}

/// The partial of `SELECT k, {agg} FROM t GROUP BY k` at sketch size `m`
/// over a store of `rows` rows of each `(k, rows)`.
fn keyed_partial(agg: &str, m: usize, groups: &[(i64, usize)]) -> PartialResult {
    let mut table = Table::new(Schema::of(&[("k", DataType::Int)]));
    for &(k, rows) in groups {
        (0..rows).for_each(|_| table.push_row(Row(vec![Value::Int(k)])).unwrap());
    }
    let sql = format!("SELECT k, {agg} FROM t GROUP BY k");
    let analyzed = analyze(&parse_query(&sql).unwrap()).unwrap();
    let store = DataStore::build(&table, &BuildOptions::basic()).unwrap();
    let ctx = ExecContext { sketch_m: m, ..Default::default() };
    execute_partial(&store, &analyzed, &ctx).unwrap().0
}

#[test]
fn malformed_tables_are_typed_errors() {
    // Two groups, one key column, one count slot, byte by byte:
    // [0] group count · [8] key columns · [16] the key buffer's length ·
    // [24] Int 1 · [33] Int 2 (a tag, then 8 bytes) · [42] cells in the
    // column · [50] end 9 · [54] end 18 · [58] slot names · [66] `count`'s
    // class · [67] its argument (none) · [68] slots · [76] kind · [77] counts
    // in the column · [85] 10, 20. No aggregate list: which slots a query
    // reads is the query's to say, and it finds them by name.
    let bytes = to_bytes(&keyed_partial("COUNT(*)", 1 << 10, &[(1, 10), (2, 20)]));
    assert_eq!(bytes.len(), 101);
    assert!(from_bytes::<PartialResult>(&bytes).is_ok());
    type Edit<'a> = &'a dyn Fn(&mut Vec<u8>);
    let forged = |edit: Edit<'_>| {
        let mut bytes = bytes.clone();
        edit(&mut bytes);
        from_bytes::<PartialResult>(&bytes)
    };
    let end =
        |b: &mut Vec<u8>, at: usize, end: u32| b[at..at + 4].copy_from_slice(&end.to_le_bytes());
    let cases: [(&str, Edit<'_>); 17] = [
        ("more groups than cells", &|b| b[0] = 3),
        ("a key column one cell short", &|b| {
            b[42] = 1;
            b.drain(54..58);
            b.drain(33..42);
            b[16] = 9;
        }),
        ("unsorted keys", &|b| {
            let (first, second) = (b[24..33].to_vec(), b[33..42].to_vec());
            b.splice(24..42, second.into_iter().chain(first));
        }),
        ("duplicate keys", &|b| b.copy_within(24..33, 33)),
        ("ends that descend", &|b| end(b, 54, 5)),
        ("an end past the buffer", &|b| end(b, 54, 30)),
        ("a last end that is not the buffer's length", &|b| {
            b.insert(42, 0);
            b[16] = 19;
        }),
        ("a buffer longer than the bytes left", &|b| b[16..24].fill(0xff)),
        ("a bad tag", &|b| b[33] = 4),
        ("an Int cell of 10 bytes", &|b| {
            b.insert(33, 0);
            b[16] = 19;
            end(b, 51, 10);
            end(b, 55, 19);
        }),
        ("a Float cell of 8 bytes", &|b| {
            b[33] = 2;
            b.remove(41);
            b[16] = 17;
            end(b, 53, 17);
        }),
        ("invalid UTF-8 in a Str cell", &|b| {
            b.splice(24..42, [b"\x03aaaaaaa\xff", &b"\x03bbbbbbbb"[..]].concat());
        }),
        ("an unknown slot class", &|b| b[66] = 9),
        ("a sum named without its argument", &|b| b[66] = 1),
        ("a column named as a slot of another class", &|b| {
            b[66] = 1;
            b.splice(67..68, [1, 0, 1, 0, 0, 0, 0, 0, 0, 0, b'k']);
        }),
        ("an unknown column kind", &|b| b[76] = 9),
        ("a length beyond the remaining bytes", &|b| b[77..85].fill(0xff)),
    ];
    for (what, edit) in cases {
        let outcome = forged(edit);
        assert!(matches!(outcome, Err(Error::Data(_))), "{what}: {outcome:?}");
    }
    // The UTF-8 forgery is otherwise well formed: two Str keys, in order.
    let ascii = forged(&|b| {
        b.splice(24..42, [b"\x03aaaaaaa!", &b"\x03bbbbbbbb"[..]].concat());
    });
    assert!(ascii.is_ok(), "{ascii:?}");

    // A sketch's hash list unsorted, duplicated and longer than its `m` is
    // no error: it decodes to the sketch `from_parts` makes of that list
    // (which is the one offering it hash by hash keeps). A long descending
    // list decodes too, by one sort (an insert per hash would move len² / 2
    // hashes). A one-group partial carries the list in place of its
    // sketch of the key `1`.
    let with_hashes = |m: usize, hashes: Vec<u8>| {
        let mut bytes = to_bytes(&keyed_partial("COUNT(DISTINCT k)", m, &[(1, 1)]));
        let honest = to_bytes(&KmvSketch::from_parts(m, [fx_hash64(&Value::Int(1))]));
        let at = bytes.windows(honest.len()).position(|w| w == honest).unwrap();
        bytes.splice(at..at + honest.len(), hashes);
        from_bytes::<PartialResult>(&bytes).unwrap()
    };
    let decoded = |m: usize, list: &[u64]| {
        let head = [m as u64, list.len() as u64];
        with_hashes(m, head.iter().chain(list).flat_map(to_bytes).collect())
    };
    let made = |m: usize, list: &[u64]| {
        with_hashes(m, to_bytes(&KmvSketch::from_parts(m, list.iter().copied())))
    };
    let list = [9u64, 4, 4, 7, 1, 9, 2, 30];
    assert_eq!(decoded(3, &list), made(3, &list), "a forged hash list");
    assert_eq!(made(3, &list), made(3, &[1, 2, 4]));
    let descending: Vec<u64> = (0..200_000).rev().collect();
    let ascending: Vec<u64> = (0..200_000).collect();
    assert_eq!(decoded(1 << 20, &descending), made(1 << 20, &ascending), "a descending list");
}

#[test]
fn float_sum_corruptions_never_panic() {
    let mut rng = Rng::seed_from_u64(0xc0de_c006);
    let sum = random_float_sum(&mut rng);
    let bytes = to_bytes(&sum);
    for cut in 0..bytes.len() {
        assert!(from_bytes::<FloatSum>(&bytes[..cut]).is_err());
    }
    for _ in 0..500 {
        let mut corrupt = bytes.clone();
        let pos = rng.range_usize(0, corrupt.len());
        corrupt[pos] ^= 0xff;
        // Flips in limb bytes decode to a different (valid) sum; flips in
        // the flag byte beyond bit 2 must error.
        let _ = from_bytes::<FloatSum>(&corrupt);
    }
    let mut bad_flags = bytes.clone();
    *bad_flags.last_mut().unwrap() = 0xf0;
    assert!(from_bytes::<FloatSum>(&bad_flags).is_err());
}
