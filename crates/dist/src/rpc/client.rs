//! One parent→child connection: connect with backoff, send a frame, read
//! the reply, all against one absolute deadline, cancellable from outside.
//!
//! Failures are typed ([`RpcError`]): transport faults (`Deadline`,
//! `PeerGone`, `Decode`, `ConnRefused`) let a replica win, while
//! application errors from a live worker propagate. Refused connects are
//! retried with bounded exponential backoff and seeded jitter.

use super::frame::{encode_frame, io_fault, read_frame_deadline, write_all_deadline, Addr, Stream};
use super::{Request, Response};
use pd_common::rng::Rng;
use pd_common::{fx_hash64, Error, Result, RpcError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Exponential backoff with seeded full jitter: sleep somewhere in
/// `[backoff/2, backoff]`, never past `left`, then double toward the cap.
/// Shared by connect retries and announce-file polling — the fix for the
/// old fixed-2ms busy loops.
pub(crate) fn backoff_sleep(backoff: &mut Duration, cap: Duration, left: Duration, rng: &mut Rng) {
    let micros = backoff.as_micros() as u64;
    let jittered = Duration::from_micros(rng.range_u64(micros / 2, micros + 1));
    std::thread::sleep(jittered.min(left));
    *backoff = (*backoff * 2).min(cap);
}

/// Largest backoff step between connect / announce retries.
pub(crate) const BACKOFF_CAP: Duration = Duration::from_millis(50);

/// A handle that cancels one in-flight call from *outside* the thread
/// blocked on it: the hedge race hands the loser's token to the winner's
/// side, which shuts the loser's socket down so its thread unblocks
/// immediately instead of waiting out the budget.
#[derive(Clone)]
pub struct CancelToken {
    slot: Arc<pd_common::sync::Mutex<Option<Stream>>>,
}

impl CancelToken {
    /// Shut down the connection this token watches (no-op when the client
    /// is not connected — a cancelled connect simply never sends).
    pub fn cancel(&self) {
        if let Some(stream) = self.slot.lock().take() {
            let _ = stream.shutdown();
        }
    }
}

/// One parent→child connection, reconnecting on demand. Calls are strictly
/// request/response — one [`RpcClient::send`], then one
/// [`RpcClient::recv`] — so a fan-out can put a frame on every child's
/// wire before it waits for any reply. A failed or timed-out half poisons
/// the connection (a late answer would desynchronize framing), so the
/// stream is dropped and the next send reconnects.
pub struct RpcClient {
    addr: Addr,
    stream: Option<Stream>,
    /// A second handle on the live stream, shared with [`CancelToken`]s.
    cancel_slot: Arc<pd_common::sync::Mutex<Option<Stream>>>,
    /// Seeded jitter for connect backoff — keyed off the address so two
    /// clients hammering the same crashed worker desynchronize, while a
    /// given tree's retry schedule stays reproducible.
    jitter: Rng,
}

impl RpcClient {
    pub fn new(addr: Addr) -> RpcClient {
        let jitter = Rng::seed_from_u64(fx_hash64(&addr.to_string()));
        RpcClient {
            addr,
            stream: None,
            cancel_slot: Arc::new(pd_common::sync::Mutex::new(None)),
            jitter,
        }
    }

    /// A token that can cancel this client's in-flight call from another
    /// thread. Valid across reconnects: the slot tracks the live stream.
    pub fn cancel_token(&self) -> CancelToken {
        CancelToken { slot: Arc::clone(&self.cancel_slot) }
    }

    fn adopt(&mut self, stream: Stream) {
        *self.cancel_slot.lock() = stream.try_clone().ok();
        self.stream = Some(stream);
    }

    pub(super) fn drop_stream(&mut self) {
        self.stream = None;
        self.cancel_slot.lock().take();
    }

    /// Connect, retrying with jittered exponential backoff until `timeout`
    /// — workers need a moment between `spawn` and `bind`.
    pub fn connect_with_retry(&mut self, timeout: Duration) -> Result<()> {
        let deadline = Instant::now() + timeout;
        let mut backoff = Duration::from_millis(1);
        loop {
            match self.addr.connect() {
                Ok(stream) => {
                    self.adopt(stream);
                    return Ok(());
                }
                Err(e) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Err(Error::Rpc(io_fault(
                            &format!(
                                "rpc: worker at {} not reachable after {timeout:?}",
                                self.addr
                            ),
                            &e,
                        )));
                    }
                    backoff_sleep(&mut backoff, BACKOFF_CAP, left, &mut self.jitter);
                }
            }
        }
    }

    /// Write one encoded frame ([`encode_frame`]), connecting first if
    /// need be, all by `deadline`. Any failure drops the connection and
    /// surfaces as a typed `Err` — the caller's failover decision
    /// dispatches on the [`RpcError`] variant.
    pub fn send(&mut self, frame: &[u8], deadline: Instant) -> Result<()> {
        let result = self.send_inner(frame, deadline);
        if result.is_err() {
            self.drop_stream();
        }
        result
    }

    fn send_inner(&mut self, frame: &[u8], deadline: Instant) -> Result<()> {
        if self.stream.is_none() {
            self.connect_by(deadline)?;
        }
        let stream = self
            .stream
            .as_mut()
            .ok_or_else(|| Error::Internal("rpc: stream vanished after connect".into()))?;
        write_all_deadline(stream, frame, deadline)
    }

    /// Read the reply to the frame last sent, by `deadline`. One absolute
    /// deadline shared with the [`RpcClient::send`] before it covers the
    /// whole exchange: the write budget and read budget are not additive,
    /// and the remaining budget shrinks across every syscall of a frame
    /// that arrives in pieces, so a stalled *or trickling* worker expires
    /// on time either way. Any failure drops the connection.
    pub fn recv(&mut self, deadline: Instant) -> Result<Response> {
        self.recv_within(Duration::MAX, deadline)?
            .ok_or_else(|| Error::Internal("rpc: an unbounded wait came back empty".into()))
    }

    /// [`RpcClient::recv`], but give up — `Ok(None)`, connection intact and
    /// in sync — when not one byte of the reply has arrived within `quiet`.
    /// This is the hedge timer: the reply can still be awaited afterwards.
    pub fn recv_within(&mut self, quiet: Duration, deadline: Instant) -> Result<Option<Response>> {
        let result = match self.stream.as_mut() {
            Some(stream) => read_frame_deadline::<Response>(stream, quiet, deadline),
            None => Err(Error::Rpc(RpcError::PeerGone("rpc: no request is in flight".into()))),
        };
        if result.is_err() {
            self.drop_stream();
        }
        result
    }

    /// One exchange of an already-encoded frame: `send`, then `recv`.
    pub fn call_frame(&mut self, frame: &[u8], deadline: Instant) -> Result<Response> {
        self.send(frame, deadline)?;
        self.recv(deadline)
    }

    /// Send `request`, wait up to `timeout` for the response: encode,
    /// `send`, `recv`.
    pub fn call(&mut self, request: &Request, timeout: Duration) -> Result<Response> {
        let deadline = Instant::now() + timeout.max(Duration::from_millis(1));
        self.call_frame(&encode_frame(request, false)?, deadline)
    }

    /// Connect within the call deadline. Only a refused connect is
    /// retried (the peer may be restarting), and only a *bounded* number
    /// of times — a crashed worker must fail over in milliseconds, not
    /// block its hedge race for the rest of the budget (connects cannot
    /// be interrupted by a [`CancelToken`]).
    fn connect_by(&mut self, deadline: Instant) -> Result<()> {
        const MAX_CONNECT_ATTEMPTS: u32 = 5;
        let mut backoff = Duration::from_millis(1);
        for attempt in 1.. {
            match self.addr.connect() {
                Ok(stream) => {
                    self.adopt(stream);
                    return Ok(());
                }
                Err(e) => {
                    let fault = io_fault(&format!("rpc: connect to {}", self.addr), &e);
                    let left = deadline.saturating_duration_since(Instant::now());
                    if !fault.retryable_connect()
                        || left.is_zero()
                        || attempt >= MAX_CONNECT_ATTEMPTS
                    {
                        return Err(Error::Rpc(fault));
                    }
                    backoff_sleep(&mut backoff, BACKOFF_CAP, left, &mut self.jitter);
                }
            }
        }
        unreachable!("the retry loop returns on success or at MAX_CONNECT_ATTEMPTS")
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{count_all, fake_leaf, marked_answer};
    use super::super::write_frame;
    use super::*;
    use std::io::Write;

    #[test]
    fn a_quiet_wait_leaves_the_stream_in_sync() {
        // The server answers only when told to; until then `recv_within`
        // must come back empty-handed without eating a byte.
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let go_rx = pd_common::sync::Mutex::new(go_rx);
        let (addr, server) = fake_leaf(1, move |stream, _| {
            go_rx.lock().recv().unwrap();
            write_frame(stream, &marked_answer(7)).unwrap();
        });
        let mut client = RpcClient::new(addr);
        let deadline = Instant::now() + Duration::from_secs(10);
        let frame = encode_frame(&Request::Query(Box::new(count_all(0))), false).unwrap();
        client.send(&frame, deadline).unwrap();
        assert!(client.recv_within(Duration::from_millis(20), deadline).unwrap().is_none());
        assert!(client.recv_within(Duration::from_millis(1), deadline).unwrap().is_none());
        go_tx.send(()).unwrap();
        assert_eq!(client.recv(deadline).unwrap(), marked_answer(7));
        drop(client);
        server.join().unwrap();
    }

    #[test]
    fn a_trickling_peer_expires_at_the_deadline() {
        // One byte of a valid reply every 10 ms: each read succeeds, so a
        // per-syscall timeout alone would never fire — the frame (~100
        // bytes) would take a second. The absolute deadline must.
        let (addr, server) = fake_leaf(1, |stream, _| {
            let frame = encode_frame(&marked_answer(1), false).unwrap();
            assert!(frame.len() >= 80, "{}", frame.len());
            for byte in frame {
                if stream.write_all(&[byte]).is_err() {
                    return; // the client gave up, as it should
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        });
        let mut client = RpcClient::new(addr);
        let budget = Duration::from_millis(150);
        let started = Instant::now();
        let err = client.call(&Request::Query(Box::new(count_all(0))), budget).unwrap_err();
        let elapsed = started.elapsed();
        assert!(matches!(err, Error::Rpc(RpcError::Deadline(_))), "{err}");
        assert!(elapsed >= budget, "expired early: {elapsed:?}");
        assert!(elapsed < budget * 3, "a trickle must not stretch the deadline: {elapsed:?}");
        server.join().unwrap();
    }
}
