//! Randomized properties for the dictionary / element / trie invariants,
//! driven by a seeded PRNG so failures reproduce exactly.

use pd_common::rng::Rng;
use pd_common::{DataType, Value};
use pd_encoding::{build_dict, ChunkDict, Elements, ElementsMode, GlobalDict, TrieDict};

/// The double indirection must reconstruct the original column exactly:
/// dict(ids[row]) == values[row] (§2.3's "synchronously iterating").
#[test]
fn dict_ids_reconstruct_column() {
    let mut rng = Rng::seed_from_u64(0xd1c7_0001);
    for case in 0..64 {
        let use_trie = rng.chance(0.5);
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
        let (dict, ids) = build_dict(&values, use_trie).unwrap();
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
        let (dict, ids) = build_dict(&col, false).unwrap();
        for (v, &id) in col.iter().zip(&ids) {
            assert_eq!(&dict.value(id), v);
        }
    }
}

/// Trie and sorted array are two encodings of the same mapping.
#[test]
fn trie_is_equivalent_to_sorted_array() {
    let mut rng = Rng::seed_from_u64(0xd1c7_0003);
    for case in 0..64 {
        let n = rng.range_usize(1, 100);
        let mut raw: Vec<String> = (0..n)
            .map(|_| {
                let len = rng.range_usize(0, 10);
                (0..len).map(|_| (b'a' + rng.range_u64(0, 26) as u8) as char).collect()
            })
            .collect();
        raw.sort_unstable();
        raw.dedup();
        let sorted: Vec<&str> = raw.iter().map(String::as_str).collect();
        let trie = TrieDict::from_sorted(&sorted).unwrap();
        assert_eq!(trie.len() as usize, sorted.len(), "case {case}");
        for (rank, s) in sorted.iter().enumerate() {
            assert_eq!(trie.id_of(s), Some(rank as u32), "case {case}");
            assert_eq!(trie.value(rank as u32), *s, "case {case}");
        }
        // Probes for absent values return None.
        for s in ["zzzz-absent", "", "a-"] {
            if !raw.iter().any(|r| r == s) {
                assert_eq!(trie.id_of(s), None, "case {case} probe {s:?}");
            }
        }
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
            assert_eq!(dict.chunk_id_of(p).is_some(), set.contains(&p), "case {case}");
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

/// A random dictionary of each flavour — `Sorted`, `Trie`, `Int`, `Float`,
/// and each of them `Tailed` by an extend with unseen values.
fn random_dicts(rng: &mut Rng) -> Vec<(&'static str, pd_encoding::GlobalDict)> {
    let n = rng.range_usize(1, 160);
    let strings = |rng: &mut Rng, n: usize, tag: &str| -> Vec<Value> {
        (0..n)
            .map(|_| {
                // Shared prefixes, prefix chains and the empty string: the
                // shapes a path-compressed trie treats differently.
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
    };
    let ints = |rng: &mut Rng, n: usize, lo: i64| -> Vec<Value> {
        (0..n).map(|_| Value::Int(lo + rng.range_i64_inclusive(-500, 500))).collect()
    };
    let floats = |rng: &mut Rng, n: usize, scale: f64| -> Vec<Value> {
        (0..n)
            .map(|_| match rng.range_usize(0, 12) {
                0 => Value::Float(-0.0),
                1 => Value::Float(f64::NAN),
                2 => Value::Float(f64::NEG_INFINITY),
                _ => Value::Float(rng.range_i64_inclusive(-300, 300) as f64 * scale),
            })
            .collect()
    };
    let mut dicts = vec![
        ("sorted", build_dict(&strings(rng, n, "t"), false).unwrap().0),
        ("trie", build_dict(&strings(rng, n, "t"), true).unwrap().0),
        ("int", build_dict(&ints(rng, n, 0), false).unwrap().0),
        ("float", build_dict(&floats(rng, n, 0.5), false).unwrap().0),
    ];
    // The same four again, tailed by values an append would bring.
    let m = rng.range_usize(1, 40);
    let appended = [
        ("tailed sorted", strings(rng, m, "new")),
        ("tailed trie", strings(rng, m, "new")),
        ("tailed int", ints(rng, m, -300)),
        ("tailed float", floats(rng, m, 0.25)),
    ];
    for (base, (name, new_values)) in appended.into_iter().enumerate() {
        let mut dict = dicts[base].1.clone();
        dict.extend(&new_values).unwrap();
        dicts.push((name, dict));
    }
    dicts
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

/// Id order is `Value::cmp` order whenever the dictionary says so — what
/// lets a consumer rank groups on ids and look up only the winners — and
/// a dictionary says so unless an append has tailed it, which does break
/// the order (a tail that happens to continue its base in order is still
/// reported unordered: the flag errs toward comparing values).
#[test]
fn id_order_is_value_order_when_value_ordered() {
    let mut rng = Rng::seed_from_u64(0xd1c7_0008);
    let mut tailed_out_of_order = 0;
    for case in 0..48 {
        for (name, dict) in random_dicts(&mut rng) {
            let values = dict.values_of(&(0..dict.len()).collect::<Vec<u32>>());
            let sorted = values.windows(2).all(|pair| pair[0] < pair[1]);
            let tailed = matches!(dict, pd_encoding::GlobalDict::Tailed(_));
            assert_eq!(dict.is_value_ordered(), !tailed, "case {case} {name}");
            if dict.is_value_ordered() {
                assert!(sorted, "case {case} {name}: ids must order like their values");
            } else if !sorted {
                tailed_out_of_order += 1;
            }
        }
    }
    assert!(tailed_out_of_order > 48, "tails must break id order: {tailed_out_of_order}");
}

/// `extend` hands out the ids a value-by-value model does: a value the
/// dictionary holds — in its base or its tail — keeps its id, a new one
/// gets the next id once, however often one call repeats it, and the
/// dictionary afterwards holds exactly the model's values in id order.
/// Runs over every flavour, tailed and not, through several extends.
#[test]
fn extend_assigns_the_ids_a_value_by_value_model_does() {
    let mut rng = Rng::seed_from_u64(0xd1c7_0009);
    let mut tail_hits = 0;
    for case in 0..32 {
        for (name, mut dict) in random_dicts(&mut rng) {
            let mut model: Vec<Value> = (0..dict.len()).map(|id| dict.value(id)).collect();
            for round in 0..3 {
                let values: Vec<Value> = (0..rng.range_usize(0, 60))
                    .map(|_| match rng.range_usize(0, 3) {
                        // One the dictionary holds, base or tail, or a
                        // fresh one of its type (repeats likely).
                        0 => model[rng.range_usize(0, model.len())].clone(),
                        _ => match dict.data_type() {
                            DataType::Int => Value::Int(rng.range_i64_inclusive(-900, 900)),
                            DataType::Float => match rng.range_usize(0, 8) {
                                0 => Value::Float(-0.0),
                                1 => Value::Float(f64::NAN),
                                _ => Value::Float(rng.range_i64_inclusive(-600, 600) as f64 / 4.0),
                            },
                            DataType::Str => Value::from(format!("v{}", rng.range_usize(0, 90))),
                        },
                    })
                    .collect();
                let base_len = match &dict {
                    GlobalDict::Tailed(t) => t.base().len(),
                    sorted => sorted.len(),
                } as usize;
                let held_before = model.len();
                let want: Vec<u32> = (values.iter())
                    .map(|v| {
                        let id = model.iter().position(|m| m == v).unwrap_or_else(|| {
                            model.push(v.clone());
                            model.len() - 1
                        });
                        tail_hits += usize::from((base_len..held_before).contains(&id));
                        id as u32
                    })
                    .collect();
                let got = dict.extend(&values).unwrap();
                assert_eq!(got, want, "case {case} {name} round {round}: {values:?}");
                let held: Vec<Value> = (0..dict.len()).map(|id| dict.value(id)).collect();
                assert_eq!(held, model, "case {case} {name} round {round}");
            }
        }
    }
    assert!(tail_hits > 1_000, "values the tail held must be asked: {tail_hits}");
}

/// The trie rejects what it cannot answer in one ordered walk.
#[test]
#[should_panic(expected = "strictly ascending")]
fn trie_values_of_rejects_unsorted_ids() {
    TrieDict::from_sorted(&["a", "b", "c"]).unwrap().values_of(&[2, 1]);
}
