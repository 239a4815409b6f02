//! Randomized properties for the dictionary / element / front-coding invariants,
//! driven by a seeded PRNG so failures reproduce exactly.

use pd_common::rng::Rng;
use pd_common::{DataType, Value};
use pd_encoding::front::B;
use pd_encoding::{
    build_dict, ChunkDict, Elements, ElementsMode, FrontCoded, GlobalDict, Sorted, StrDict,
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
        let front_coded = array.optimize().unwrap();
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

/// Chunk dictionary membership agrees with a naive set check.
#[test]
fn chunk_dict_membership() {
    let mut rng = Rng::seed_from_u64(0xd1c7_0005);
    for case in 0..64 {
        let mut ids: Vec<u32> =
            (0..rng.range_usize(0, 200)).map(|_| rng.next_u64() as u32).collect();
        ids.sort_unstable();
        ids.dedup();
        let dict = ChunkDict::from_sorted(ids.clone()).unwrap();
        let set: std::collections::HashSet<u32> = ids.iter().copied().collect();
        let probes: Vec<u32> = (0..rng.range_usize(0, 50))
            .map(|_| {
                if rng.chance(0.5) && !ids.is_empty() {
                    ids[rng.range_usize(0, ids.len())] // present value
                } else {
                    rng.next_u64() as u32
                }
            })
            .collect();
        for &p in &probes {
            assert_eq!(dict.id_of(&p).is_some(), set.contains(&p), "case {case}");
        }
        let mut sorted_probes = probes.clone();
        sorted_probes.sort_unstable();
        sorted_probes.dedup();
        assert_eq!(
            dict.contains_any(&sorted_probes),
            sorted_probes.iter().any(|p| set.contains(p)),
            "case {case}"
        );
        let back = ChunkDict::from_bytes(&dict.to_bytes()).unwrap();
        assert_eq!(back, dict, "case {case}");
    }
}

/// A random dictionary of each flavour — `Sorted`, `FrontCoded`, `Int`, `Float`
/// — and each of them again with a batch of an append merged in.
fn random_dicts(rng: &mut Rng) -> Vec<(&'static str, GlobalDict)> {
    let n = rng.range_usize(1, 160);
    let mut dicts = vec![
        ("sorted", build_dict(&strings(rng, n, "t")).unwrap().0),
        ("front coded", build_dict(&strings(rng, n, "t")).unwrap().0.optimize().unwrap()),
        ("int", build_dict(&ints(rng, n, 0)).unwrap().0),
        ("float", build_dict(&floats(rng, n, 0.5)).unwrap().0),
    ];
    // The same four again, merged with values an append would bring.
    let m = rng.range_usize(1, 40);
    let appended = [
        ("merged sorted", strings(rng, m, "new")),
        ("merged front coded", strings(rng, m, "new")),
        ("merged int", ints(rng, m, -300)),
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
/// its values makes, in its own flavour (front coding stays front-coded).
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
                    GlobalDict::Str(StrDict::FrontCoded(_)) => built.optimize().unwrap(),
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
