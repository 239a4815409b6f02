//! Randomized properties for the dictionary / element / front-coding invariants,
//! driven by a seeded PRNG so failures reproduce exactly.

use pd_common::rng::Rng;
use pd_common::{DataType, Value};
use pd_encoding::front::B;
use pd_encoding::{
    build_dict, ChunkDict, Elements, ElementsMode, FrontCoded, GlobalDict, IntDict, Sorted, StrDict,
};

/// The double indirection must reconstruct the original column exactly:
/// dict(ids[row]) == values[row] (§2.3's "synchronously iterating").
#[test]
fn dict_ids_reconstruct_column() {
    let mut rng = Rng::seed_from_u64(0xd1c7_0001);
    for case in 0..64 {
        let front_coded = rng.chance(0.5);
        let n = rng.range_usize(1, 200);
        let values: Vec<Value> = (0..n)
            .map(|_| {
                let len = rng.range_usize(0, 12);
                let s: String = (0..len)
                    .map(|_| char::from_u32(rng.range_u64(0x20, 0x7f) as u32).unwrap())
                    .collect();
                Value::from(s)
            })
            .collect();
        let (dict, ids) = build_dict(&values).unwrap();
        let dict = if front_coded { dict.optimize().unwrap() } else { dict };
        assert_eq!(ids.len(), values.len(), "case {case}");
        for (v, &id) in values.iter().zip(&ids) {
            assert_eq!(&dict.value(id), v, "case {case}");
            assert_eq!(dict.id_of(v), Some(id), "case {case}");
        }
        // Ranks are dense and the dictionary is sorted.
        for id in 1..dict.len() {
            assert!(dict.value(id - 1) < dict.value(id), "case {case}");
        }
    }
}

#[test]
fn int_dict_reconstructs_column() {
    let mut rng = Rng::seed_from_u64(0xd1c7_0002);
    for _ in 0..64 {
        let n = rng.range_usize(1, 300);
        let col: Vec<Value> = (0..n).map(|_| Value::Int(rng.next_u64() as i64)).collect();
        let (dict, ids) = build_dict(&col).unwrap();
        for (v, &id) in col.iter().zip(&ids) {
            assert_eq!(&dict.value(id), v);
        }
    }
}

/// Front coding and the sorted array are two encodings of the same
/// mapping: ids both ways, the rank of any probe — a stored string or one
/// the dictionary lacks —, ordered lookups of any id subset, the id range of
/// any value range, and a merge, which hands out the array's ids and writes
/// the bytes a build of the merged strings writes. Sizes cross block
/// boundaries: one entry, and `k·B - 1`, `k·B` and `k·B + 1` entries.
#[test]
fn front_coding_is_equivalent_to_sorted_array() {
    let mut rng = Rng::seed_from_u64(0xd1c7_0003);
    // Multi-byte characters among ASCII ones: their UTF-8 bytes sort
    // above every ASCII byte, and share lead bytes with each other.
    let alphabet = ['a', 'b', 'c', 'z', 'é', 'ü', '日'];
    let word = |rng: &mut Rng, max: usize| -> String {
        let len = rng.range_usize(0, max);
        (0..len).map(|_| *rng.pick(&alphabet)).collect()
    };
    for case in 0..96 {
        let k = rng.range_usize(1, 13);
        let n = [1, k * B as usize - 1, k * B as usize, k * B as usize + 1][case % 4];
        let mut raw = std::collections::BTreeSet::new();
        while raw.len() < n {
            raw.insert(word(&mut rng, 10));
        }
        let sorted: Vec<&str> = raw.iter().map(String::as_str).collect();
        let dict = FrontCoded::from_sorted(&sorted).unwrap();
        assert_eq!(dict.len() as usize, n, "case {case}");
        for (rank, s) in sorted.iter().enumerate() {
            assert_eq!(dict.id_of(s), Some(rank as u32), "case {case}");
            assert_eq!(dict.value(rank as u32), *s, "case {case}");
        }
        // Probes, mostly absent: prefixes and extensions of entries, their
        // neighbours a character up or down, the empty string, words of
        // their own.
        let mut probes: Vec<String> = vec![String::new(), "zzzz-absent".into(), "a-".into()];
        for s in &sorted {
            let chars: Vec<char> = s.chars().collect();
            let cut = rng.range_usize(0, chars.len() + 1);
            probes.push(chars[..cut].iter().collect());
            probes.push(format!("{s}{}", rng.pick(&alphabet)));
            for step in [-1i32, 1] {
                let mut near = chars.clone();
                if let Some(last) = near.last_mut() {
                    *last =
                        char::from_u32((*last as u32).saturating_add_signed(step)).unwrap_or(*last);
                }
                probes.push(near.into_iter().collect());
            }
            probes.push(word(&mut rng, 6));
        }
        for probe in &probes {
            let expect = sorted.binary_search(&probe.as_str()).map(|i| i as u32);
            assert_eq!(dict.rank(probe), expect.map_err(|i| i as u32), "case {case} {probe:?}");
            assert_eq!(dict.id_of(probe), expect.ok(), "case {case} {probe:?}");
        }
        // Ordered lookups decode what indexing the array reads.
        for ids in id_subsets(&mut rng, dict.len()) {
            let mut got = Vec::new();
            dict.for_each_of(&ids, |s| got.push(String::from_utf8(s.to_vec()).unwrap()));
            let want: Vec<&str> = ids.iter().map(|&id| sorted[id as usize]).collect();
            assert_eq!(got, want, "case {case}: ids {ids:?}");
        }
        // Value ranges resolve to the same id range on both flavours.
        let values: Vec<Value> = sorted.iter().map(|s| Value::from(*s)).collect();
        let (array, _) = build_dict(&values).unwrap();
        let front_coded = array.clone().optimize().unwrap();
        for _ in 0..32 {
            let mut bound = || {
                rng.chance(0.8).then(|| (Value::from(rng.pick(&probes).as_str()), rng.chance(0.5)))
            };
            let (min, max) = (bound(), bound());
            assert_eq!(
                front_coded.range_ids(min.as_ref(), max.as_ref()),
                array.range_ids(min.as_ref(), max.as_ref()),
                "case {case}: {min:?} .. {max:?}"
            );
        }
        // A merge of held and new words: the array's ids and map, and the
        // bytes a build of the union writes.
        let mut batch: Vec<String> = (0..rng.range_usize(1, 40))
            .map(|_| match rng.chance(0.3) {
                true => rng.pick(&sorted).to_string(),
                false => word(&mut rng, 10),
            })
            .collect();
        batch.sort_unstable();
        batch.dedup();
        let boxed =
            |v: &[&str]| Sorted::<Box<str>>::from_sorted(v.iter().map(|&s| s.into()).collect());
        let (mut merged, mut model) = (dict.clone(), boxed(&sorted).unwrap());
        let batch_refs: Vec<&str> = batch.iter().map(String::as_str).collect();
        let outcome = merged.merge(&batch);
        assert_eq!(outcome, model.merge(&boxed(&batch_refs).unwrap()), "case {case}");
        assert_eq!(merged, FrontCoded::from_sorted(model.values()).unwrap(), "case {case}");
    }
}

/// Packing and the sorted array are two encodings of the same integers:
/// every [`GlobalDict`] operation answers alike on both — the length, ids
/// both ways, the rank of any probe (held, absent, either end of `i64`, a
/// float), ordered lookups of any id subset, the id range of any value
/// range and the serialized bytes, which read back as the array — and
/// packing never takes more heap. Each round merges a batch into both:
/// the same ids and map, and the packing of the merged array. Entry sets:
/// one value, negatives, timestamps (a narrow range far from zero), a
/// random width, and `i64::MIN` with `i64::MAX` (a 64-bit width); batches
/// add entries below, among and past the entries, and past the width.
#[test]
fn packing_is_equivalent_to_sorted_array() {
    let mut rng = Rng::seed_from_u64(0xd1c7_000a);
    let (mut in_place, mut repacked) = (0, 0);
    for case in 0..120 {
        let values = int_shape(&mut rng, case % 5);
        let mut array = build_dict(&values).unwrap().0;
        let mut packed = array.clone().optimize().unwrap();
        for round in 0..4 {
            let label = format!("case {case} round {round}");
            assert_answers_alike(&mut rng, &array, &packed, &label);
            let (len, width) = (packed.len(), packed_width(&packed));
            let entries = build_dict(&int_batch(&mut rng, &array, round)).unwrap().0;
            let merged = packed.merge(&entries).unwrap();
            assert_eq!(merged, array.merge(&entries).unwrap(), "{label}");
            assert_eq!(packed, array.clone().optimize().unwrap(), "{label}");
            match (packed.len() > len, merged.renumbered, packed_width(&packed) == width) {
                (true, None, true) => in_place += 1,
                (true, ..) => repacked += 1,
                (false, ..) => {}
            }
        }
    }
    assert!(in_place > 60 && repacked > 60, "in place {in_place}, repacked {repacked}");
}

/// Integers of one of five shapes: one value, negatives, timestamps, a
/// random width from a random base, both ends of `i64` among others.
fn int_shape(rng: &mut Rng, shape: usize) -> Vec<Value> {
    let n = rng.range_usize(2, 120);
    let ints: Vec<i64> = match shape {
        0 => vec![*rng.pick(&[i64::MIN, -1, 0, 1_300_000_000, i64::MAX]); n],
        1 => (0..n).map(|_| rng.range_i64_inclusive(-1_000_000, -1)).collect(),
        2 => (0..n).map(|_| 1_293_840_000 + rng.range_i64_inclusive(0, 7_948_565)).collect(),
        3 => {
            let width = rng.range_u64(1, 64) as u32;
            let base = rng.next_u64() as i64;
            (0..n).map(|_| base.wrapping_add((rng.next_u64() >> (64 - width)) as i64)).collect()
        }
        _ => {
            [i64::MIN, i64::MAX].into_iter().chain((2..n).map(|_| rng.next_u64() as i64)).collect()
        }
    };
    ints.into_iter().map(Value::Int).collect()
}

/// A batch for round `round` of [`packing_is_equivalent_to_sorted_array`]:
/// entries past the last within a few steps (round 0), held and absent
/// ones among the entries (1), below the first (2), and all of those with
/// entries far past the last (3).
fn int_batch(rng: &mut Rng, dict: &GlobalDict, round: usize) -> Vec<Value> {
    let int = |id: u32| dict.value(id).as_int().unwrap();
    let (first, last) = (int(0), int(dict.len() - 1));
    (0..rng.range_usize(1, 12))
        .map(|_| match (round, rng.range_usize(0, 4)) {
            (0, _) | (3, 0) => last.saturating_add(rng.range_i64_inclusive(1, 40)),
            (1, 0) => int(rng.range_u64(0, u64::from(dict.len())) as u32),
            (1, _) | (3, 1) => {
                let (lo, hi) = (first as i128, last as i128);
                (lo + (rng.next_u64() as i128).rem_euclid(hi - lo + 1)) as i64
            }
            (2, _) | (3, 2) => first.saturating_sub(rng.range_i64_inclusive(1, 1 << 40)),
            _ => last.saturating_add(rng.range_i64_inclusive(1 << 30, 1 << 50)),
        })
        .map(Value::Int)
        .collect()
}

/// The width of a packed integer dictionary; 0 for any other.
fn packed_width(dict: &GlobalDict) -> u32 {
    match dict {
        GlobalDict::Int(IntDict::Packed(packed)) => packed.width(),
        _ => 0,
    }
}

/// `packed` answers every question as `array` does.
fn assert_answers_alike(rng: &mut Rng, array: &GlobalDict, packed: &GlobalDict, label: &str) {
    use pd_common::HeapSize;
    assert!(matches!(packed, GlobalDict::Int(IntDict::Packed(_))), "{label}");
    assert_eq!(packed.len(), array.len(), "{label}");
    for id in 0..array.len() {
        assert_eq!(packed.value(id), array.value(id), "{label}: id {id}");
    }
    let mut probes = vec![Value::Int(i64::MIN), Value::Int(i64::MAX), Value::Int(0)];
    for id in 0..array.len() {
        let v = array.value(id).as_int().unwrap();
        probes.extend([v, v.saturating_sub(1), v.saturating_add(1)].map(Value::Int));
        probes.extend([v as f64, v as f64 + 0.5, -(v as f64)].map(Value::Float));
    }
    probes.extend([1e30, f64::NAN, -0.0, f64::NEG_INFINITY].map(Value::Float));
    for probe in &probes {
        assert_eq!(packed.id_of(probe), array.id_of(probe), "{label}: {probe:?}");
        assert_eq!(packed.lower_bound(probe), array.lower_bound(probe), "{label}: {probe:?}");
    }
    for _ in 0..16 {
        let mut bound = || rng.chance(0.8).then(|| (rng.pick(&probes).clone(), rng.chance(0.5)));
        let (min, max) = (bound(), bound());
        let (got, want) = (
            packed.range_ids(min.as_ref(), max.as_ref()),
            array.range_ids(min.as_ref(), max.as_ref()),
        );
        assert_eq!(got, want, "{label}: {min:?} .. {max:?}");
    }
    for ids in id_subsets(rng, array.len()) {
        assert_eq!(packed.values_of(&ids), array.values_of(&ids), "{label}: ids {ids:?}");
        let (mut got, mut want) = (Vec::new(), Vec::new());
        packed.for_each_key(&ids, |key| got.push(key.to_vec()));
        array.for_each_key(&ids, |key| want.push(key.to_vec()));
        assert_eq!(got, want, "{label}: ids {ids:?}");
    }
    assert_eq!(packed.to_bytes(), array.to_bytes(), "{label}");
    assert_eq!(&GlobalDict::from_bytes(&packed.to_bytes()).unwrap(), array, "{label}");
    assert!(packed.heap_bytes() <= array.heap_bytes(), "{label}");
}

/// Elements encodings are lossless for every representation the ladder can
/// pick, and serialization round-trips.
#[test]
fn elements_encodings_are_lossless() {
    let mut rng = Rng::seed_from_u64(0xd1c7_0004);
    for case in 0..64 {
        let distinct = rng.range_u64(1, 70_000) as u32;
        let len = rng.range_usize(0, 400);
        let ids: Vec<u32> =
            (0..len).map(|i| (i as u32).wrapping_mul(2654435761) % distinct).collect();
        for mode in [ElementsMode::Basic, ElementsMode::Optimized] {
            let e = Elements::encode(&ids, distinct, mode);
            assert_eq!(e.len(), len, "case {case}");
            let back: Vec<u32> = e.iter().collect();
            assert_eq!(back, ids, "case {case}");
            let decoded = Elements::from_bytes(&e.to_bytes()).unwrap();
            assert_eq!(decoded, e, "case {case}");
            // The borrowed code view agrees with get() row by row.
            let view = e.codes();
            for (row, &id) in ids.iter().enumerate() {
                assert_eq!(view.get(row), id, "case {case} row {row}");
            }
        }
    }
}

/// A chunk dictionary answers as the `Sorted<u32>` of its ids does, stored
/// either way (Basic: 4 bytes an id; OptCols: offsets from the first id in
/// the width the range takes): `len`, `get`, `id_of`, `lower_bound`,
/// `contains_any`, `subset_of`, and the delta-varint bytes, the same for
/// every width, which decode to the same dictionary. OptCols never takes
/// more than 4 bytes an id. Renumbered through a random strictly increasing
/// map — one that keeps the width, one that forces a widening, one that
/// lands the last id on `u32::MAX` — it equals the dictionary the mapped
/// ids build. Ranges at 0, 255/256 and 65 535/65 536, the empty and
/// one-entry dictionaries, and ids at `u32::MAX`.
#[test]
fn chunk_dict_is_equivalent_to_sorted_array() {
    use pd_common::HeapSize;
    let mut rng = Rng::seed_from_u64(0xd1c7_0005);
    let (mut in_place, mut widened) = (0, 0);
    for case in 0..360 {
        let ids = chunk_ids(&mut rng, case);
        let model = Sorted::from_sorted(ids.clone()).unwrap();
        let basic = ChunkDict::from_sorted(ids.clone(), ElementsMode::Basic).unwrap();
        let opt = ChunkDict::from_sorted(ids.clone(), ElementsMode::Optimized).unwrap();
        assert_eq!(basic.heap_bytes(), 4 * ids.len(), "case {case}");
        assert!(opt.heap_bytes() <= 4 * ids.len(), "case {case}");
        for (mode, dict) in [(ElementsMode::Basic, &basic), (ElementsMode::Optimized, &opt)] {
            let label = format!("case {case} {mode:?}");
            assert_chunk_dict_answers_alike(&mut rng, &model, dict, &label);
            assert_eq!(dict.to_bytes(), delta_varints(&ids), "{label}");
            assert_eq!(&ChunkDict::from_bytes(&dict.to_bytes(), mode).unwrap(), dict, "{label}");
        }
        // Renumbering needs a map over every id below the last.
        if ids.last().is_none_or(|&last| last >= 1 << 17) {
            continue;
        }
        let map = monotone_map(&mut rng, ids.last().map_or(0, |&last| last as usize + 1), case);
        let mapped: Vec<u32> = ids.iter().map(|&id| map[id as usize]).collect();
        for (mode, dict) in [(ElementsMode::Basic, &basic), (ElementsMode::Optimized, &opt)] {
            let mut dict = dict.clone();
            dict.renumber(&map);
            let fresh = ChunkDict::from_sorted(mapped.clone(), mode).unwrap();
            assert_eq!(dict, fresh, "case {case} {mode:?}: renumbered");
            let model = Sorted::from_sorted(mapped.clone()).unwrap();
            assert_chunk_dict_answers_alike(&mut rng, &model, &dict, &format!("case {case}"));
        }
        if ids.len() > 1 {
            match ChunkDict::from_sorted(mapped, ElementsMode::Optimized).unwrap().heap_bytes() {
                bytes if bytes == opt.heap_bytes() => in_place += 1,
                _ => widened += 1,
            }
        }
    }
    assert!(in_place > 40 && widened > 40, "in place {in_place}, widened {widened}");
}

/// Sorted, distinct ids of one of six shapes: none, one (maybe
/// `u32::MAX`), a range of exactly 255 or 256, of exactly 65 535 or
/// 65 536, a small dense run, or ids anywhere up to `u32::MAX`. Every
/// other case starts the ids low enough to renumber.
fn chunk_ids(rng: &mut Rng, case: usize) -> Vec<u32> {
    let low = case.is_multiple_of(2);
    let span = |rng: &mut Rng, range: u32| {
        let first = if low { rng.range_u64(0, 1 << 16) as u32 } else { u32::MAX - range };
        let mut ids: Vec<u32> = (0..rng.range_usize(0, 300))
            .map(|_| first + rng.range_u64(0, u64::from(range) + 1) as u32)
            .chain([first, first + range])
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    };
    match (case / 2) % 6 {
        0 => Vec::new(),
        1 => vec![if low { rng.range_u64(0, 1000) as u32 } else { u32::MAX }],
        2 => {
            let range = *rng.pick(&[255, 256]);
            span(rng, range)
        }
        3 => {
            let range = *rng.pick(&[65_535, 65_536]);
            span(rng, range)
        }
        4 => {
            let range = rng.range_u64(1, 200) as u32;
            span(rng, range)
        }
        _ => {
            let mut ids: Vec<u32> = (0..rng.range_usize(1, 300))
                .map(|_| if low { rng.range_u64(0, 1 << 17) as u32 } else { rng.next_u64() as u32 })
                .chain((!low).then_some(u32::MAX))
                .collect();
            ids.sort_unstable();
            ids.dedup();
            ids
        }
    }
}

/// A strictly increasing map over `len` ids: steps of one (a width kept),
/// gaps that force a widening, or either shifted so that the last id maps
/// to `u32::MAX`.
fn monotone_map(rng: &mut Rng, len: usize, case: usize) -> Vec<u32> {
    let wide = case % 4 < 2;
    let mut next = rng.range_u64(0, 1 << 16) as u32;
    let mut map: Vec<u32> = (0..len)
        .map(|_| {
            let gap = match wide && rng.chance(0.02) {
                true => rng.range_u64(200, 70_000) as u32,
                false => rng.range_u64(0, 2) as u32,
            };
            next += 1 + gap;
            next
        })
        .collect();
    if case.is_multiple_of(3) {
        let shift = u32::MAX - map.last().copied().unwrap_or(0);
        map.iter_mut().for_each(|id| *id += shift);
    }
    map
}

/// The chunk dictionary's serialized form: `varint(len)` then each id's
/// varint delta from the one before (the first from 0).
fn delta_varints(ids: &[u32]) -> Vec<u8> {
    let deltas = ids.iter().scan(0, |prev, &id| Some(u64::from(id - std::mem::replace(prev, id))));
    let mut out = Vec::new();
    for mut v in std::iter::once(ids.len() as u64).chain(deltas) {
        while v >= 0x80 {
            out.push(v as u8 | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
    }
    out
}

/// `dict` answers every question as `model`, the sorted array of its ids,
/// does: each id, and probes at, between and beyond the ids.
fn assert_chunk_dict_answers_alike(
    rng: &mut Rng,
    model: &Sorted<u32>,
    dict: &ChunkDict,
    label: &str,
) {
    let ids = model.values();
    assert_eq!(dict.len(), model.len(), "{label}");
    assert_eq!(dict.ids().len(), ids.len(), "{label}");
    for (cid, &id) in ids.iter().enumerate() {
        assert_eq!(dict.get(cid as u32), id, "{label}");
        assert_eq!(dict.ids().get(cid as u32), id, "{label}");
    }
    let mut probes: Vec<u32> = vec![0, 1, u32::MAX - 1, u32::MAX];
    for _ in 0..12 {
        let near = ids.get(rng.range_usize(0, ids.len().max(1))).copied().unwrap_or(0);
        probes.extend([near, near.wrapping_sub(1), near.wrapping_add(1), rng.next_u64() as u32]);
    }
    for &p in &probes {
        assert_eq!(dict.id_of(p), model.id_of(&p), "{label} id_of({p})");
        assert_eq!(dict.lower_bound(p), model.lower_bound(&p), "{label} lower_bound({p})");
    }
    // Sets as a restriction resolves them: held and absent ids, few or many.
    for _ in 0..6 {
        let keep = rng.next_f64();
        let mut set: Vec<u32> = ids.iter().copied().filter(|_| rng.next_f64() < keep).collect();
        set.extend(probes.iter().copied().filter(|_| rng.chance(0.2)));
        set.sort_unstable();
        set.dedup();
        let held = |id: &u32| set.binary_search(id).is_ok();
        assert_eq!(dict.contains_any(&set), ids.iter().any(held), "{label} contains_any");
        assert_eq!(dict.subset_of(&set), ids.iter().all(held), "{label} subset_of");
    }
    assert!(dict.subset_of(ids), "{label}");
}

/// A random dictionary of each flavour — `Sorted`, `FrontCoded`, `Int`,
/// `Packed`, `Float` — and each of them again with a batch of an append
/// merged in.
fn random_dicts(rng: &mut Rng) -> Vec<(&'static str, GlobalDict)> {
    let n = rng.range_usize(1, 160);
    let mut dicts = vec![
        ("sorted", build_dict(&strings(rng, n, "t")).unwrap().0),
        ("front coded", build_dict(&strings(rng, n, "t")).unwrap().0.optimize().unwrap()),
        ("int", build_dict(&ints(rng, n, 0)).unwrap().0),
        ("packed", build_dict(&ints(rng, n, 0)).unwrap().0.optimize().unwrap()),
        ("float", build_dict(&floats(rng, n, 0.5)).unwrap().0),
    ];
    // The same five again, merged with values an append would bring.
    let m = rng.range_usize(1, 40);
    let appended = [
        ("merged sorted", strings(rng, m, "new")),
        ("merged front coded", strings(rng, m, "new")),
        ("merged int", ints(rng, m, -300)),
        ("merged packed", ints(rng, m, 400)),
        ("merged float", floats(rng, m, 0.25)),
    ];
    for (base, (name, new_values)) in appended.into_iter().enumerate() {
        let mut dict = dicts[base].1.clone();
        dict.merge(&build_dict(&new_values).unwrap().0).unwrap();
        dicts.push((name, dict));
    }
    dicts
}

/// `n` strings: shared prefixes, prefix chains and the empty string — the
/// shapes front coding shares differently — mostly ending in
/// `tag` and a number.
fn strings(rng: &mut Rng, n: usize, tag: &str) -> Vec<Value> {
    (0..n)
        .map(|_| {
            let depth = rng.range_usize(0, 4);
            let mut s = String::new();
            for _ in 0..depth {
                let parts = ["logs.", "ads.", "a", "ab", "日本", "team_07."];
                s.push_str(parts[rng.range_usize(0, parts.len())]);
            }
            if rng.chance(0.8) {
                s.push_str(&format!("{tag}{}", rng.range_usize(0, 40)));
            }
            Value::from(s)
        })
        .collect()
}

/// `n` integers within 500 of `lo`.
fn ints(rng: &mut Rng, n: usize, lo: i64) -> Vec<Value> {
    (0..n).map(|_| Value::Int(lo + rng.range_i64_inclusive(-500, 500))).collect()
}

/// `n` floats, multiples of `scale` and the specials -0.0, NaN and -inf.
fn floats(rng: &mut Rng, n: usize, scale: f64) -> Vec<Value> {
    (0..n)
        .map(|_| match rng.range_usize(0, 12) {
            0 => Value::Float(-0.0),
            1 => Value::Float(f64::NAN),
            2 => Value::Float(f64::NEG_INFINITY),
            _ => Value::Float(rng.range_i64_inclusive(-300, 300) as f64 * scale),
        })
        .collect()
}

/// A batch of `dict`'s type as an append brings it: values `dict` holds
/// (from `held`) and, but in a third of the batches, new ones — in a third
/// only above them, else below, among and above them.
fn batch(rng: &mut Rng, dict: &GlobalDict, held: &[Value]) -> Vec<Value> {
    let sides = [(0, 0), (2, 3), (0, 3)][rng.range_usize(0, 3)];
    let fresh = |rng: &mut Rng| match (dict.data_type(), rng.range_usize(sides.0, sides.1)) {
        (DataType::Int, side) => ints(rng, 1, [-3_000, 0, 3_000][side]).remove(0),
        (DataType::Float, side) => floats(rng, 1, [-7.0, 0.125, 7.0][side]).remove(0),
        (DataType::Str, side) => {
            let tag = ["", "m", "\u{ffff}"][side];
            let s = strings(rng, 1, "x").remove(0);
            Value::from(format!("{tag}{}", s.as_str().unwrap()))
        }
    };
    (0..rng.range_usize(1, 50))
        .map(|_| match rng.range_usize(0, 3) {
            0 => held[rng.range_usize(0, held.len())].clone(),
            _ if sides.0 == sides.1 => held[rng.range_usize(0, held.len())].clone(),
            _ => fresh(rng),
        })
        .collect()
}

/// Sorted id subsets of `0..len`: empty, singletons (first, last, random),
/// everything, a dense run, and random sparse picks.
fn id_subsets(rng: &mut Rng, len: u32) -> Vec<Vec<u32>> {
    let mut subsets = vec![Vec::new(), vec![0], vec![len - 1], (0..len).collect()];
    subsets.push(vec![rng.range_u64(0, u64::from(len)) as u32]);
    let from = rng.range_u64(0, u64::from(len)) as u32;
    subsets.push((from..len.min(from + rng.range_u64(1, 24) as u32)).collect());
    for keep in [0.05, 0.5, 0.9] {
        subsets.push((0..len).filter(|_| rng.chance(keep)).collect());
    }
    let mut ends = vec![0, len - 1];
    ends.dedup();
    subsets.push(ends);
    subsets
}

/// `values_of` is `value` mapped over the ids, for every dictionary flavour
/// and every shape of sorted id subset.
#[test]
fn values_of_equals_value_per_id() {
    let mut rng = Rng::seed_from_u64(0xd1c7_0007);
    for case in 0..48 {
        for (name, dict) in random_dicts(&mut rng) {
            for ids in id_subsets(&mut rng, dict.len()) {
                let want: Vec<Value> = ids.iter().map(|&id| dict.value(id)).collect();
                assert_eq!(dict.values_of(&ids), want, "case {case} {name}: ids {ids:?}");
            }
        }
    }
}

/// Id order is `Value::cmp` order after any run of merges — what lets a
/// consumer rank groups and ranges on ids and look up only the winners:
/// every dictionary, merged with batches whose new values fall below,
/// among and above its own, is bit for bit the dictionary a build of all
/// its values makes, in its own flavour (front coding stays front-coded,
/// packing stays packed).
#[test]
fn id_order_is_value_order_after_any_run_of_merges() {
    let mut rng = Rng::seed_from_u64(0xd1c7_0008);
    let mut moved = 0;
    for case in 0..48 {
        for (name, mut dict) in random_dicts(&mut rng) {
            let mut held: Vec<Value> = (0..dict.len()).map(|id| dict.value(id)).collect();
            for round in 0..3 {
                let values = batch(&mut rng, &dict, &held);
                moved += usize::from(
                    dict.merge(&build_dict(&values).unwrap().0).unwrap().renumbered.is_some(),
                );
                held.extend(values);
                let built = build_dict(&held).unwrap().0;
                let built = match dict {
                    GlobalDict::Str(StrDict::FrontCoded(_))
                    | GlobalDict::Int(IntDict::Packed(_)) => built.optimize().unwrap(),
                    _ => built,
                };
                assert_eq!(dict, built, "case {case} {name} round {round}");
                let values = dict.values_of(&(0..dict.len()).collect::<Vec<u32>>());
                assert!(values.windows(2).all(|pair| pair[0] < pair[1]), "case {case} {name}");
            }
        }
    }
    assert!(moved > 500, "merges must move old ids: {moved}");
}

/// A merge hands out the ids a sorted model does: each batch entry's id is
/// its rank among the old and new values, and the map of old ids to new
/// ones sends every old value to its new rank — strictly ascending, and
/// absent exactly when no old id moves.
#[test]
fn merge_assigns_the_ids_a_sorted_model_does() {
    let mut rng = Rng::seed_from_u64(0xd1c7_0009);
    let mut identities = 0;
    for case in 0..32 {
        for (name, mut dict) in random_dicts(&mut rng) {
            for round in 0..3 {
                let label = format!("case {case} {name} round {round}");
                let old: Vec<Value> = (0..dict.len()).map(|id| dict.value(id)).collect();
                let (entries, _) = build_dict(&batch(&mut rng, &dict, &old)).unwrap();
                let merged = dict.merge(&entries).unwrap();
                let rank = |v: &Value| dict.id_of(v).expect("a merged value is held");
                let want: Vec<u32> = (0..entries.len()).map(|e| rank(&entries.value(e))).collect();
                assert_eq!(merged.ids, want, "{label}");
                let want: Vec<u32> = old.iter().map(rank).collect();
                match merged.renumbered {
                    Some(map) => {
                        assert_eq!(map, want, "{label}");
                        assert!(map.iter().zip(0..).any(|(&to, from)| to != from), "{label}");
                    }
                    None => {
                        assert!(want.iter().zip(0..).all(|(&to, from)| to == from), "{label}");
                        identities += 1;
                    }
                }
            }
        }
    }
    assert!(identities > 100, "batches must also leave every old id: {identities}");
}

/// Front coding rejects what it cannot answer in one ordered pass.
#[test]
#[should_panic(expected = "strictly ascending")]
fn front_coded_values_of_rejects_unsorted_ids() {
    FrontCoded::from_sorted(&["a", "b", "c"]).unwrap().values_of(&[2, 1]);
}
