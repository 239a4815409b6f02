//! The fan-out: ask every child, settle each leaf pair, fold.
//!
//! **The hop.** A socket child is another process and already runs in
//! parallel with its siblings, so a parent needs no thread to wait for it:
//! [`fan_out`] encodes the query frame once, writes it to every live child
//! in child order, then reads the replies in the same order and folds —
//! all on the calling thread. An edge costs its bytes and two syscalls
//! each way, not a thread wake-up.
//!
//! **Hedged replica racing.** A leaf pair's primary is asked with its
//! siblings; its reply is then awaited for the hedge delay (derived by
//! the driver from observed queue delays). A healthy primary answers
//! inside it and the replica is never contacted. Only when the delay
//! expires is the replica asked *in parallel*, on the one thread a fan-out
//! may spawn — first answer wins, the loser's socket is shut down via
//! [`CancelToken`](super::CancelToken). A straggling primary therefore
//! costs one hedge delay, not its whole budget. Transport faults let the
//! other copy win, while application errors from a live worker propagate —
//! deterministic, so a replica would only repeat them.

use super::client::RpcClient;
use super::link::{Ask, ChildHandle, Held, InFlight};
use super::{AppendReceipt, QueryRequest, Response, SubtreeAnswer};
use pd_common::{Error, Result, RpcError};
use pd_encoding::TableDelta;
use std::time::{Duration, Instant};

/// The §4 failover rule at one leaf: a failed primary — refused, dead,
/// reset, torn, out of budget — is replaced by its replica, one copy after
/// the other, the replica living on whatever budget remains; a merely
/// *slow* primary is raced by it ([`race`]). Without a replica any
/// transport failure is fatal for the query; an *application* error from a
/// live node always is. Returns `(answer, answered by the replica,
/// hedged)`.
pub(super) fn settle(
    shard: u64,
    mut primary: Held<'_>,
    mut replica: Option<Held<'_>>,
    sent: Result<()>,
    ask: &mut Ask<'_>,
) -> Result<(SubtreeAnswer, bool, bool)> {
    let first = match (&mut primary, &mut replica, &sent) {
        // A straggler costs one hedge delay instead of its whole budget.
        (Held::Socket(primary), Some(Held::Socket(replica)), Ok(()))
            if ask.request.hedge_micros > 0 =>
        {
            // The delay runs from the write; reading earlier siblings'
            // replies has used some of it up.
            let hedge_at = ask.started + Duration::from_micros(ask.request.hedge_micros);
            let quiet = hedge_at.saturating_duration_since(Instant::now());
            match primary.recv_within(quiet, ask.deadline) {
                // Answered inside the hedge window — the common, healthy
                // case: the replica is never contacted.
                Ok(Some(response)) => classify(Ok(response)),
                // Failed fast (refused connect, reset): immediate failover
                // below, not a hedge — the race was never close.
                Err(e) => LeafOutcome::Failed(e),
                // The hedge fires: the primary is still out there.
                Ok(None) => {
                    let deadline = ask.deadline;
                    let frame = ask.frame()?;
                    let (answer, by_replica) = race(primary, replica, frame, deadline, shard)?;
                    return Ok((answer, by_replica, true));
                }
            }
        }
        _ => primary.recv(sent, ask),
    };
    match (first, replica) {
        (LeafOutcome::Answer(answer), _) => Ok((answer, false, false)),
        (LeafOutcome::Fatal(e), _) => Err(e),
        (LeafOutcome::Failed(e), None) => Err(no_replica_fail(shard, e)),
        (LeafOutcome::Failed(pe), Some(mut replica)) => {
            let sent = replica.send(ask);
            match replica.recv(sent, ask) {
                LeafOutcome::Answer(answer) => Ok((answer, true, false)),
                LeafOutcome::Fatal(e) => Err(e),
                LeafOutcome::Failed(re) => Err(both_failed(shard, pe, re)),
            }
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Threads [`race`] spawned from this thread — the only spawn site a
    /// fan-out has.
    static HEDGE_SPAWNS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The hedged replica race, entered only once the hedge delay has passed
/// with the primary's reply still outstanding. The replica is asked on a
/// thread of its own — the one thread a fan-out may spawn — while the
/// caller keeps reading the primary; the first answer wins and shuts the
/// loser's socket down so its reader unblocks right away. A primary that
/// fails from here on loses the race it is already in. Returns
/// `(answer, answered_by_replica)`.
fn race(
    primary: &mut RpcClient,
    replica: &mut RpcClient,
    frame: &[u8],
    deadline: Instant,
    shard: u64,
) -> Result<(SubtreeAnswer, bool)> {
    let primary_token = primary.cancel_token();
    let replica_token = replica.cancel_token();
    #[cfg(test)]
    HEDGE_SPAWNS.with(|spawns| spawns.set(spawns.get() + 1));
    let (first, second) = std::thread::scope(|scope| {
        let hedge = scope.spawn(|| {
            let outcome = classify(replica.call_frame(frame, deadline));
            if matches!(outcome, LeafOutcome::Answer(_)) {
                primary_token.cancel();
            }
            outcome
        });
        let first = classify(primary.recv(deadline));
        if !matches!(first, LeafOutcome::Failed(_)) {
            // The primary settled it (an answer, or an error the replica
            // would only repeat): unblock the replica's reader now.
            replica_token.cancel();
        }
        (first, hedge.join().expect("the hedge thread panicked"))
    });
    // Whoever settled the race shut the other's socket down — unusable
    // from here on, even where its own call had completed first.
    if !matches!(first, LeafOutcome::Failed(_)) {
        replica.drop_stream();
    }
    if matches!(second, LeafOutcome::Answer(_)) {
        primary.drop_stream();
    }
    match (first, second) {
        (LeafOutcome::Answer(answer), _) => Ok((answer, false)),
        (LeafOutcome::Fatal(e), _) => Err(e),
        (LeafOutcome::Failed(_), LeafOutcome::Answer(answer)) => Ok((answer, true)),
        (LeafOutcome::Failed(_), LeafOutcome::Fatal(e)) => Err(e),
        // Both copies failed: combine, preferring the primary's typed
        // variant.
        (LeafOutcome::Failed(pe), LeafOutcome::Failed(re)) => Err(both_failed(shard, pe, re)),
    }
}

/// How a child's reply steers failover: an answer wins; a *transport*
/// failure lets the other copy win; a deterministic application error
/// aborts — the replica would only repeat it.
pub(super) enum LeafOutcome {
    Answer(SubtreeAnswer),
    Failed(Error),
    Fatal(Error),
}

pub(super) fn classify(result: Result<Response>) -> LeafOutcome {
    match result {
        Ok(Response::Answer(answer)) => LeafOutcome::Answer(*answer),
        Ok(Response::Err(message)) => LeafOutcome::Fatal(Error::Data(message)),
        Ok(Response::Malformed(message)) => LeafOutcome::Failed(Error::Rpc(RpcError::Decode(
            format!("peer rejected the request frame: {message}"),
        ))),
        Ok(Response::Fault(fault)) => LeafOutcome::Failed(Error::Rpc(fault)),
        Ok(Response::Ok | Response::Loaded(_) | Response::Appended(_)) => {
            LeafOutcome::Fatal(Error::Data("node acked a query without an answer".into()))
        }
        Err(e) => LeafOutcome::Failed(e),
    }
}

/// A shard with no replica lost its only copy: fatal, with the message
/// carrying the shard id and the replication note the driver and tests
/// key on, and the typed variant of the underlying fault preserved.
fn no_replica_fail(shard: u64, e: Error) -> Error {
    let message = format!("shard {shard}: primary failed ({e}) and replication is disabled");
    retag(e, message)
}

/// Both copies of a shard failed: fatal, preferring the primary's typed
/// variant (the replica usually just repeats the budget expiry).
fn both_failed(shard: u64, primary: Error, replica: Error) -> Error {
    let message = format!(
        "shard {shard}: primary and replica both failed (primary: {primary}; replica: {replica})"
    );
    retag(primary, message)
}

/// Rewrap `message` in `e`'s typed variant when it has one.
fn retag(e: Error, message: String) -> Error {
    match e {
        Error::Rpc(f) => match RpcError::from_tag(f.tag(), message.clone()) {
            Some(fault) => Error::Rpc(fault),
            // A tag this taxonomy doesn't know cannot round-trip; degrade to
            // untyped rather than panic on a future variant.
            None => Error::Data(message),
        },
        _ => Error::Data(message),
    }
}

/// Fan a query out to every child and fold the answers in fixed child
/// order — every level uses this same associative merge, so the tree shape
/// cannot change the result. One path for both kinds of link, on the
/// calling thread: `begin` asks every child in child order — a socket
/// child gets the one encoded frame and starts computing, since it is
/// another process and runs in parallel by itself —, then `finish` takes
/// each child's answer in child order against the one deadline; an
/// in-memory child computes its answer there. No thread is spawned and
/// none is woken on the healthy path; a reply larger than a socket buffer
/// simply waits in its sender's `write` until its turn to be read. Every
/// leaf's report is stamped from the fan-out's one start.
pub fn fan_out(children: &[ChildHandle], request: &QueryRequest) -> Result<SubtreeAnswer> {
    let mut ask = Ask::new(request);
    let flights: Vec<InFlight<'_>> = children.iter().map(|child| child.begin(&mut ask)).collect();
    // Every reply is read even after one failed: a connection left with a
    // reply in flight would have to be dropped.
    let answers: Vec<Result<SubtreeAnswer>> =
        flights.into_iter().map(|flight| flight.finish(&mut ask)).collect();
    let mut merged = SubtreeAnswer::empty();
    for answer in answers {
        let answer = answer?;
        merged.partial.merge(answer.partial)?;
        merged.stats += &answer.stats;
        merged.reports.extend(answer.reports);
    }
    Ok(merged)
}

/// Bring the shard summaries beneath `children` up to date with the
/// `deltas` their leaves applied and acked with `receipts` (one each, in
/// order) — in place, by the absorb the leaf itself ran
/// ([`crate::meta::ShardMeta::absorb_append`]), so every copy of a summary
/// in the tree stays equal to the leaf's without one ever being shipped.
/// The links are not touched: an append costs a parent no connection.
/// Every edge carries its summaries, in memory or over a socket, so a shard
/// no edge summarizes is an error — the sender's tree is not this one.
pub fn absorb_into(
    children: &[ChildHandle],
    deltas: &[(u64, TableDelta)],
    receipts: &[AppendReceipt],
) -> Result<()> {
    for ((shard, delta), receipt) in deltas.iter().zip(receipts) {
        let absorbed = children.iter().find_map(|child| {
            let mut metas = child.metas.write();
            let meta = metas.iter_mut().find(|meta| meta.shard == *shard)?;
            Some(meta.absorb_append(delta, &receipt.new_chunk_rows))
        });
        absorbed.ok_or_else(|| {
            Error::Data(format!("absorb: no summary of shard {shard} beneath this node"))
        })??;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{analyzed, count_all, fake_leaf, marked_answer, sample_meta};
    use super::super::{write_frame, Addr, ChildSpec};
    use super::*;
    use std::io::Read;

    #[test]
    fn pruned_children_answer_without_a_socket() {
        // The child spec points at an address nothing listens on: only the
        // metadata pre-skip can answer, proving no connection is made.
        let meta = sample_meta();
        let rows = meta.rows;
        let handle = ChildHandle::new(ChildSpec::Leaf {
            shard: 3,
            primary: Addr::Unix("/nonexistent/prune.sock".into()),
            replica: None,
            meta,
        });
        let request = |sql: &str| QueryRequest {
            query: analyzed(sql),
            budget: Duration::from_millis(50),
            hedge_micros: 0,
        };
        let absent = request("SELECT COUNT(*) FROM t WHERE k = 'absent'");
        let answer = fan_out(std::slice::from_ref(&handle), &absent).unwrap();
        assert_eq!(answer.stats.subtrees_pruned, 1);
        assert_eq!(answer.stats.rows_total, rows);
        assert_eq!(answer.stats.rows_skipped, rows);
        assert_eq!(answer.reports.len(), 1);
        assert_eq!(answer.reports[0].shard, 3);
        assert!(answer.partial.is_empty());
        // A restriction that *may* match must reach for the socket — and
        // fail, because nothing listens there.
        let present = request("SELECT COUNT(*) FROM t WHERE k = 'x'");
        let err = fan_out(std::slice::from_ref(&handle), &present).unwrap_err();
        assert!(
            matches!(err, Error::Rpc(RpcError::ConnRefused(_))),
            "a dead-address leaf with no replica fails typed: {err}"
        );
        assert!(err.to_string().contains("shard 3"), "{err}");
        assert!(err.to_string().contains("replication is disabled"), "{err}");
    }

    #[test]
    fn a_healthy_pair_spawns_nothing_and_a_stalled_primary_loses_the_race() {
        // The primary answers its 1st and 3rd query at once; its 2nd it
        // sits on until its socket is shut down under it, and says so.
        let (cancelled_tx, cancelled_rx) = std::sync::mpsc::channel();
        let cancelled_tx = pd_common::sync::Mutex::new(cancelled_tx);
        let (primary, primary_server) = fake_leaf(2, move |stream, nth| {
            if nth == 1 {
                let shut = matches!(stream.read(&mut [0u8; 1]), Ok(0) | Err(_));
                cancelled_tx.lock().send(shut).unwrap();
            } else {
                write_frame(stream, &marked_answer(1)).unwrap();
            }
        });
        let (replica, replica_server) = fake_leaf(1, |stream, _| {
            write_frame(stream, &marked_answer(2)).unwrap();
        });
        let pair = [ChildHandle::new(ChildSpec::Leaf {
            shard: 0,
            primary,
            replica: Some(replica),
            meta: sample_meta(),
        })];
        let request = count_all(30_000);
        let spawns = || HEDGE_SPAWNS.with(std::cell::Cell::get);
        assert_eq!(spawns(), 0);

        let healthy = fan_out(&pair, &request).unwrap();
        assert_eq!(healthy.stats.rows_total, 1, "the primary answers");
        assert!(!healthy.reports[0].hedged && !healthy.reports[0].failover);
        assert_eq!(spawns(), 0, "a primary inside the hedge window costs no thread");

        let raced = fan_out(&pair, &request).unwrap();
        assert_eq!(raced.stats.rows_total, 2, "the replica answers for the stalled primary");
        assert!(raced.reports[0].hedged && raced.reports[0].failover);
        assert_eq!(spawns(), 1, "a fired hedge spawns the one replica reader");
        assert!(
            cancelled_rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            "the loser's socket is shut down under it"
        );

        let next = fan_out(&pair, &request).unwrap();
        assert_eq!(next.stats.rows_total, 1, "the same links serve the next query");
        assert!(!next.reports[0].hedged && !next.reports[0].failover);
        assert_eq!(spawns(), 1);

        // Closing the links ends the fakes' connections.
        drop(pair);
        primary_server.join().unwrap();
        replica_server.join().unwrap();
    }
}
