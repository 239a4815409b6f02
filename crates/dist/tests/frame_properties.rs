//! Randomized properties of the RPC frame path, mirroring `pd-core`'s
//! `codec_properties.rs`: every frame must round-trip bit-identically, and
//! no amount of truncation or bit-flipping may ever panic the reader — a
//! corrupt peer is an error to fail over from, not a crash.

use pd_common::rng::Rng;
use pd_common::wire::{from_bytes, to_bytes};
use pd_common::{DataType, Row, RpcError, Schema, Value};
use pd_core::{execute_partial, BuildOptions, DataStore, ExecContext, PartialResult, ScanStats};
use pd_data::Table;
use pd_dist::node::NodeSpec;
use pd_dist::rpc::{
    encode_frame, read_frame, AppendAck, AppendReceipt, AppendRequest, LoadRequest, QueryRequest,
    Request, Response, ShardReport, SubtreeAnswer,
};
use pd_encoding::{GlobalDict, TableDelta};
use pd_sql::{analyze, parse_query};
use std::time::Duration;

/// A real partial result to embed in answers: every kind of state column,
/// float slots that are still exact pairs beside ones a NaN or an overflow
/// tainted into `FloatSum` superaccumulators.
fn real_partial() -> PartialResult {
    let schema = Schema::of(&[("k", DataType::Str), ("n", DataType::Int), ("x", DataType::Float)]);
    let mut table = Table::new(schema);
    for i in 0..60i64 {
        let x = match i % 10 {
            7 => f64::NAN,
            8 | 9 => 1e308,
            _ => i as f64 * 0.25 - 3.0,
        };
        let k = Value::from(["a", "b", "c"][(i % 3) as usize]);
        table.push_row(Row(vec![k, Value::Int(i % 4), Value::Float(x)])).unwrap();
    }
    let store = DataStore::build(&table, &BuildOptions::basic()).unwrap();
    let sql = "SELECT k, n, COUNT(*) c, SUM(x) s, AVG(x) a, MIN(x) lo, MAX(k) hi, \
               COUNT(DISTINCT x) d FROM t GROUP BY k, n";
    let analyzed = analyze(&parse_query(sql).unwrap()).unwrap();
    let ctx = ExecContext { threads: 1, ..Default::default() };
    execute_partial(&store, &analyzed, &ctx).unwrap().0
}

/// Random (valid) coded columns: typed, no nulls, floats with NaN payloads
/// and both zeros among them.
fn random_delta(rng: &mut Rng) -> TableDelta {
    let rows = rng.range_usize(1, 40);
    let schema = Schema::of(&[("k", DataType::Str), ("v", DataType::Int), ("x", DataType::Float)]);
    let keys: Vec<Value> =
        (0..rows).map(|_| Value::from(format!("k{}", rng.range_u64(0, 12)))).collect();
    let vals: Vec<Value> = (0..rows).map(|_| Value::Int(rng.next_u64() as i64)).collect();
    let floats: Vec<Value> = (0..rows)
        .map(|_| match rng.range_usize(0, 4) {
            0 => Value::Float(0.0),
            1 => Value::Float(-0.0),
            _ => Value::Float(f64::from_bits(rng.next_u64())),
        })
        .collect();
    TableDelta::from_columns(schema, &[&keys, &vals, &floats]).unwrap()
}

/// The two requests that carry rows, around the same `delta`, each with
/// where the delta's section starts in its payload. An append carries it
/// for one shard among 0–2 other shards' rows (the codec does not care
/// which shards, or whether one repeats: a node refuses that).
fn append_of(rng: &mut Rng, delta: TableDelta) -> (Request, usize) {
    let mut deltas: Vec<(u64, TableDelta)> =
        (0..rng.range_usize(0, 3)).map(|_| (rng.next_u64() % 64, random_delta(rng))).collect();
    let at = rng.range_usize(0, deltas.len() + 1);
    // Tag, then the pairs before it — their count encoded as the whole
    // list's is — then its shard.
    let section_at = 1 + to_bytes(&deltas[..at].to_vec()).len() + 8;
    deltas.insert(at, (rng.next_u64() % 64, delta));
    let append = AppendRequest { deltas };
    (Request::Append(Box::new(append)), section_at)
}

/// Both lead with their tag and the shard number.
fn load_of(rng: &mut Rng, delta: TableDelta) -> (Request, usize) {
    let load = Request::Load(Box::new(LoadRequest {
        shard: rng.next_u64() % 64,
        delta,
        build: BuildOptions::basic(),
        spec: NodeSpec {
            name: format!("l{}p", rng.next_u64() % 64),
            threads: rng.range_usize(0, 4),
        },
    }));
    (load, 1 + 8)
}

fn random_append(rng: &mut Rng) -> Request {
    let delta = random_delta(rng);
    append_of(rng, delta).0
}

fn random_load(rng: &mut Rng) -> Request {
    let delta = random_delta(rng);
    load_of(rng, delta).0
}

/// The receipt a leaf would ack `rows` appended rows with — or, one time
/// in four, one no leaf would send: the codec carries either.
fn random_receipt(rng: &mut Rng, rows: u64) -> AppendReceipt {
    let new_chunk_rows = if rng.next_u64().is_multiple_of(4) {
        (0..rng.range_usize(0, 5)).map(|_| rng.next_u64()).collect()
    } else {
        let first = rng.range_u64(0, rows + 1);
        vec![first, rows - first]
    };
    AppendReceipt { new_chunk_rows }
}

/// What a node acks an append with: 0–3 receipts and the bytes written
/// beneath it.
fn random_ack(rng: &mut Rng) -> Response {
    let receipts = (0..rng.range_usize(0, 4)).map(|_| {
        let rows = rng.range_u64(0, 500);
        random_receipt(rng, rows)
    });
    Response::Appended(AppendAck { receipts: receipts.collect(), bytes: rng.next_u64() })
}

fn random_request(rng: &mut Rng, case: usize) -> Request {
    match case % 5 {
        4 => random_append(rng),
        0 => random_load(rng),
        1 => {
            let sqls = [
                "SELECT k, COUNT(*) c FROM t WHERE k IN ('a','b') GROUP BY k",
                "SELECT COUNT(*), SUM(x) FROM t WHERE NOT (k = 'z' OR x > 1.5)",
                "SELECT k, AVG(x) a FROM t GROUP BY k HAVING a > 0 ORDER BY a DESC LIMIT 3",
            ];
            let sql = sqls[rng.range_usize(0, sqls.len())];
            Request::Query(Box::new(QueryRequest {
                query: analyze(&parse_query(sql).unwrap()).unwrap(),
                budget: Duration::from_nanos(rng.next_u64() % 1_000_000_000),
                hedge_micros: rng.next_u64() % 1_000_000,
            }))
        }
        2 => Request::Shutdown,
        _ => Request::Ping,
    }
}

fn random_response(rng: &mut Rng, partial: &PartialResult, case: usize) -> Response {
    match case % 5 {
        4 => random_ack(rng),
        0 => {
            let reports = (0..rng.range_usize(0, 6))
                .map(|_| ShardReport {
                    shard: rng.next_u64() % 16,
                    latency: Duration::from_nanos(rng.next_u64() % u64::MAX),
                    queue: Duration::from_nanos(rng.next_u64() % 1_000_000),
                    failover: rng.next_u64().is_multiple_of(2),
                    hedged: rng.next_u64().is_multiple_of(5),
                    cache_hit: false,
                })
                .collect();
            Response::Answer(Box::new(SubtreeAnswer {
                partial: partial.clone(),
                stats: ScanStats {
                    rows_total: rng.next_u64() % 10_000,
                    rows_skipped: rng.next_u64() % 10_000,
                    subtrees_pruned: rng.range_usize(0, 4),
                    chunks_pruned_remote: rng.range_usize(0, 64),
                    worker_cache_hits: rng.range_usize(0, 4),
                    ..Default::default()
                },
                reports,
            }))
        }
        1 => Response::Err(format!("error {}", rng.next_u64())),
        2 => {
            let message = format!("fault {}", rng.next_u64());
            Response::Fault(match rng.range_usize(0, 5) {
                0 => RpcError::Deadline(message),
                1 => RpcError::ConnRefused(message),
                2 => RpcError::Decode(message),
                3 => RpcError::VersionMismatch(message),
                _ => RpcError::PeerGone(message),
            })
        }
        _ => Response::Ok,
    }
}

#[test]
fn frames_round_trip_bit_identically() {
    let mut rng = Rng::seed_from_u64(0xf4a3_0001);
    let partial = real_partial();
    for case in 0..48 {
        let request = random_request(&mut rng, case);
        let response = random_response(&mut rng, &partial, case);
        let frame = encode_frame(&request, false).unwrap();
        let back: Request = read_frame(&mut frame.as_slice()).unwrap().unwrap();
        assert_eq!(back, request, "case {case}");

        let frame = encode_frame(&response, false).unwrap();
        let back: Response = read_frame(&mut frame.as_slice()).unwrap().unwrap();
        assert_eq!(back, response, "case {case}");
        // Byte-stable: a partial travels as its columns, groups in key
        // order, so what was read encodes to the frame it came in.
        assert_eq!(encode_frame(&back, false).unwrap(), frame, "case {case}");
    }
}

#[test]
fn truncated_frames_error_and_never_panic() {
    let mut rng = Rng::seed_from_u64(0xf4a3_0002);
    let partial = real_partial();
    for case in 0..16 {
        let response = random_response(&mut rng, &partial, case);
        let frame = encode_frame(&response, false).unwrap();
        for cut in 0..frame.len() {
            // Any outcome but a decoded message (or a panic) is fine: a
            // partial header reads as clean EOF, everything else is a hard
            // error for the failover path.
            if let Ok(Some(_)) = read_frame::<Response>(&mut frame[..cut].as_ref()) {
                panic!("case {case} cut={cut}: truncated frame decoded");
            }
        }
    }
    // Load and append frames carry nested dictionary payloads with their
    // own length prefixes — every truncation point must still error, never
    // decode.
    for case in 0..12 {
        let request = match case % 2 {
            0 => random_load(&mut rng),
            _ => random_append(&mut rng),
        };
        let frame = encode_frame(&request, false).unwrap();
        for cut in 0..frame.len() {
            if let Ok(Some(_)) = read_frame::<Request>(&mut frame[..cut].as_ref()) {
                panic!("append case {case} cut={cut}: truncated frame decoded");
            }
        }
    }
}

/// Rows cross the wire one way. A `Load` and an `Append` around the same
/// coded columns contain the byte-identical delta section — one codec — and
/// a delta forged in any of the ways a consumer would index out of bounds
/// by is refused by both, at decode, before a store or a summary sees it —
/// wherever among an append's shards it sits.
#[test]
fn a_load_and_an_append_ship_one_delta_codec_and_refuse_the_same_forgeries() {
    let mut rng = Rng::seed_from_u64(0xf4a3_0005);
    for case in 0..24 {
        let delta = random_delta(&mut rng);
        let section = to_bytes(&delta);
        let in_both = |delta: &TableDelta, rng: &mut Rng| {
            [load_of(rng, delta.clone()), append_of(rng, delta.clone())]
        };
        for (request, at) in in_both(&delta, &mut rng) {
            let payload = to_bytes(&request);
            assert_eq!(payload[at..at + section.len()], section[..], "case {case}");
        }

        let last = delta.columns.len() - 1;
        let mut bad_code = delta.clone();
        bad_code.columns[last].codes[0] = bad_code.columns[last].dict.len();
        let mut short = delta.clone();
        short.columns[0].codes.pop();
        let mut renamed = delta.clone();
        renamed.columns[1].name = "other".into();
        let mut rowless = delta.clone();
        rowless.rows = 0;
        rowless.columns.iter_mut().for_each(|column| column.codes.clear());
        let forgeries =
            [("code", bad_code), ("length", short), ("name", renamed), ("no rows", rowless)];
        for (what, forged) in &forgeries {
            for (request, _) in in_both(forged, &mut rng) {
                let frame = encode_frame(&request, false).unwrap();
                assert!(
                    read_frame::<Request>(&mut frame.as_slice()).is_err(),
                    "case {case}: a delta forged in its {what} decoded"
                );
            }
        }
        // Column 0's dictionary bytes with the retired tag 3 (a dictionary
        // grown by appends out of order, which no store makes any more):
        // refused as a dictionary, and in either frame that carries them.
        let dict = delta.columns[0].dict.to_bytes();
        let dict_section = to_bytes(&dict);
        let tag = dict_section.len() - dict.len();
        for (request, _) in in_both(&delta, &mut rng) {
            let mut frame = encode_frame(&request, false).unwrap();
            let at = (frame.windows(dict_section.len()))
                .position(|bytes| bytes == dict_section)
                .expect("the frame carries column 0's dictionary");
            frame[at + tag] = 3;
            let retired = &frame[at + tag..at + dict_section.len()];
            assert!(GlobalDict::from_bytes(retired).is_err(), "case {case}: tag 3 decoded");
            assert!(
                read_frame::<Request>(&mut frame.as_slice()).is_err(),
                "case {case}: a delta whose dictionary carries tag 3 decoded"
            );
        }
    }
    // An append's list lengths are checked against the bytes left before
    // anything is sized by them: a delta count, a receipt count, a receipt's
    // chunk count claiming more than the frame holds.
    let append =
        Request::Append(Box::new(AppendRequest { deltas: vec![(0, random_delta(&mut rng))] }));
    let ack = Response::Appended(AppendAck {
        receipts: vec![AppendReceipt { new_chunk_rows: vec![7, 3] }],
        bytes: 9,
    });
    let forged = |mut payload: Vec<u8>, count_at: usize| {
        payload[count_at..count_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        payload
    };
    // After the tag; after the tag; after that count.
    assert!(from_bytes::<Request>(&forged(to_bytes(&append), 1)).is_err());
    for count_at in [1, 1 + 8] {
        let decoded = from_bytes::<Response>(&forged(to_bytes(&ack), count_at));
        assert!(decoded.is_err(), "a count forged at {count_at} decoded");
    }
}

/// A partial carries no aggregate list: the asking query maps its
/// aggregates onto the partial's slots. An answer that decodes cleanly but
/// whose slots do not fit the query it answers — another query's table,
/// say a `Count` column where the query's lowering wants a float sum — is
/// a typed `Error::Data` at finalize and at a merge with a fitting
/// sibling: no panic, and no answer. A partial of the same slots, spelled
/// as other aggregates, does fit.
#[test]
fn a_partial_whose_slots_do_not_fit_its_query_is_a_typed_error() {
    let schema = Schema::of(&[("k", DataType::Str), ("n", DataType::Int), ("x", DataType::Float)]);
    let mut table = Table::new(schema);
    for i in 0..40i64 {
        let row = vec![Value::from(["a", "b", "c"][(i % 3) as usize]), Value::Int(i % 5)];
        table.push_row(Row([row, vec![Value::Float(i as f64 * 0.5)]].concat())).unwrap();
    }
    let store = DataStore::build(&table, &BuildOptions::basic()).unwrap();
    let analyzed = |sql: &str| analyze(&parse_query(sql).unwrap()).unwrap();
    // What a peer answering `sql` sends, as the asker reads it.
    let answer_to = |sql: &str| {
        let ctx = ExecContext { threads: 1, ..Default::default() };
        let (partial, stats) = execute_partial(&store, &analyzed(sql), &ctx).unwrap();
        let answer = Response::Answer(Box::new(SubtreeAnswer { partial, stats, reports: vec![] }));
        let frame = encode_frame(&answer, false).unwrap();
        match read_frame::<Response>(&mut frame.as_slice()).unwrap().unwrap() {
            Response::Answer(answer) => answer.partial,
            other => panic!("an answer, got {other:?}"),
        }
    };
    let by_k = |aggs: &str| format!("SELECT k, {aggs} FROM t GROUP BY k");
    let twin = answer_to(&by_k("COUNT(*) c, SUM(x) s"));
    let asked = analyzed(&by_k("AVG(x) a, COUNT(n) c"));
    let store_answer = pd_core::execute(&store, &asked, &ExecContext::default()).unwrap().0;
    assert_eq!(pd_core::finalize(&asked, twin).unwrap(), store_answer, "the same slots fit");

    let misfits = [
        ("SUM(x) s", by_k("COUNT(*) c"), "a count where a float sum is wanted"),
        ("AVG(x) a", by_k("COUNT(*) c, MIN(x) m"), "a minimum where AVG's sum is wanted"),
        ("MIN(x) m", by_k("MAX(x) m"), "a maximum where a minimum is wanted"),
        ("COUNT(*) c", "SELECT k, n, COUNT(*) c FROM t GROUP BY k, n".into(), "a key too many"),
        ("COUNT(*) c, SUM(n) s", by_k("COUNT(*) c"), "a slot too few"),
        ("COUNT(DISTINCT n) d", by_k("SUM(n) s"), "a sum where a sketch is wanted"),
    ];
    for (asked, answered, what) in misfits {
        let asked = analyzed(&by_k(asked));
        let forged = answer_to(&answered);
        let outcome = pd_core::finalize(&asked, forged.clone());
        assert!(matches!(outcome, Err(pd_common::Error::Data(_))), "{what}: {outcome:?}");
        let mut fitting = execute_partial(&store, &asked, &ExecContext::default()).unwrap().0;
        assert!(fitting.merge(forged).is_err(), "{what}: merged into a fitting sibling");
    }
}

#[test]
fn bit_flips_never_panic_the_reader() {
    let mut rng = Rng::seed_from_u64(0xf4a3_0003);
    let partial = real_partial();
    for case in 0..24 {
        let request = random_request(&mut rng, case);
        let response = random_response(&mut rng, &partial, case);
        for frame in
            [encode_frame(&request, false).unwrap(), encode_frame(&response, false).unwrap()]
        {
            for _ in 0..32 {
                let mut corrupt = frame.clone();
                let flips = rng.range_usize(1, 4);
                for _ in 0..flips {
                    let byte = rng.range_usize(0, corrupt.len());
                    let bit = rng.range_u64(0, 8) as u8;
                    corrupt[byte] ^= 1 << bit;
                }
                // Any Result is acceptable — the reader must neither panic
                // nor over-allocate (length caps are validated before any
                // allocation happens).
                let _ = read_frame::<Request>(&mut corrupt.as_slice());
                let _ = read_frame::<Response>(&mut corrupt.as_slice());
            }
        }
    }
}

#[test]
fn garbage_bytes_never_panic_the_reader() {
    let mut rng = Rng::seed_from_u64(0xf4a3_0004);
    for _ in 0..64 {
        let len = rng.range_usize(0, 512);
        let garbage: Vec<u8> = (0..len).map(|_| rng.range_u64(0, 256) as u8).collect();
        let _ = read_frame::<Request>(&mut garbage.as_slice());
        let _ = read_frame::<Response>(&mut garbage.as_slice());
    }
}

// --- typed decode errors on the live client read path -----------------------
//
// Regression coverage for the decode-surface panic sweep: the read side of
// `rpc.rs` must turn every hostile byte sequence a rogue peer can send into
// a *typed* `Err(Error::Rpc(..))` — `RpcError::Decode` for corrupt frames —
// so the failover machinery can dispatch on the variant. A panic (or an
// untyped error) here would take down the whole merge server instead of one
// child connection.

use pd_common::wire::{FrameHeader, FRAME_VERSION};
use pd_common::Error;
use pd_dist::rpc::{Addr, Listener, RpcClient};
use std::io::Write;

/// Bind a loopback listener and serve exactly one connection with `serve`,
/// then run `check` against a connected client.
fn with_rogue_server(
    serve: impl FnOnce(&mut pd_dist::rpc::Stream) + Send + 'static,
    check: impl FnOnce(&mut RpcClient),
) {
    let listener = Listener::bind(&Addr::parse("tcp:127.0.0.1:0").unwrap()).unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let mut stream = listener.accept().unwrap();
        serve(&mut stream);
    });
    let mut client = RpcClient::new(addr);
    client.connect_with_retry(Duration::from_secs(2)).unwrap();
    check(&mut client);
    server.join().unwrap();
}

fn expect_rpc_fault(client: &mut RpcClient) -> RpcError {
    match client.call(&Request::Ping, Duration::from_secs(2)) {
        Err(Error::Rpc(fault)) => fault,
        other => panic!("expected a typed rpc fault, got {other:?}"),
    }
}

#[test]
fn corrupt_response_body_is_a_typed_decode_error() {
    // A well-formed header whose body is garbage (no valid Response tag):
    // the decode failure must surface as RpcError::Decode, never a panic.
    with_rogue_server(
        |stream| {
            let body = [0xEEu8; 32];
            let mut frame = FrameHeader { len: body.len() as u32 }.to_bytes().to_vec();
            frame.extend_from_slice(&body);
            stream.write_all(&frame).unwrap();
            stream.flush().unwrap();
        },
        |client| {
            let fault = expect_rpc_fault(client);
            assert!(matches!(fault, RpcError::Decode(_)), "got {fault:?}");
        },
    );
}

#[test]
fn torn_frame_then_close_is_a_typed_peer_gone() {
    // A header promising 64 bytes followed by half of them and a close:
    // the deadline reader must report the vanished peer, typed.
    with_rogue_server(
        |stream| {
            let mut frame = FrameHeader { len: 64 }.to_bytes().to_vec();
            frame.extend_from_slice(&[0u8; 32]);
            stream.write_all(&frame).unwrap();
            stream.flush().unwrap();
            // Dropping the stream closes the connection mid-frame.
        },
        |client| {
            let fault = expect_rpc_fault(client);
            assert!(matches!(fault, RpcError::PeerGone(_)), "got {fault:?}");
        },
    );
}

#[test]
fn version_skew_is_a_typed_version_mismatch() {
    with_rogue_server(
        |stream| {
            // Hand-craft a header from a different protocol generation.
            let bad = [FRAME_VERSION.wrapping_add(1), 4, 0, 0, 0];
            stream.write_all(&bad).unwrap();
            stream.write_all(&[0u8; 4]).unwrap();
            stream.flush().unwrap();
        },
        |client| {
            let fault = expect_rpc_fault(client);
            assert!(matches!(fault, RpcError::VersionMismatch(_)), "got {fault:?}");
        },
    );
}
