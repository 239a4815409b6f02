//! The worker process: one [`Node`] of the §4 computation tree behind a
//! socket.
//!
//! `pd-dist-worker --listen <unix:path | tcp:host:port>` binds a socket in
//! either shape and serves the [`crate::rpc`] protocol. With
//! `--listen tcp:host:0` the OS picks the port; `--announce <file>` makes
//! the worker write its resolved address there (atomically, via rename) so
//! the spawner can find it. What the node *does* is [`crate::node`]'s
//! business — the same code an in-memory tree runs; this module is only
//! what is genuinely a process's: argv, sockets and the turnstile in front
//! of the node. The driver assigns the role after startup — a
//! [`Request::Load`] makes the process a leaf (it builds the store from the
//! shipped coded columns and acks with the [`crate::meta::ShardMeta`] every
//! leaf reads off its dictionaries, which the parent prunes by), a
//! [`Request::Attach`] a merge server over the listed children. Each
//! assignment *replaces* the node outright — a repurposed worker can never
//! answer from a shadowed store or a stale child list. A worker remembers
//! no answer: the root in the driver does ([`crate::shard_cache`]). Data
//! then changes in place: a [`Request::Append`] streams rows into an
//! existing leaf, which acks a receipt, or reaches a merge server, which
//! forwards the children beneath which rows land their part over the links
//! queries use and absorbs their receipts into its copies of the summaries
//! ([`Node::append`]) — nothing is replaced, and no connection is dropped.
//!
//! **Measured queue delays.** Connections are accepted and read on their
//! own threads, and a connection thread that has read a *complete* request
//! runs it itself — no executor thread, no hand-off. What keeps the
//! process serving one request at a time, in arrival order, is a FIFO
//! turnstile: the thread takes a ticket the moment its frame is whole
//! and runs when the ticket comes up (a connection still trickling its
//! frame in holds none, so it delays nobody). The time between taking the
//! ticket and being called is this process's *real* queue delay — one
//! monotonic clock inside one process — and it is handed to
//! [`Node::query`], which charges it against the query's budget and
//! reports it up the tree.
//!
//! A worker injects no fault: a test that needs a dead, reset, torn or
//! slow peer puts a relay in front of the worker (`tests/support/relay.rs`
//! runs [`serve`] behind one).

use crate::node::Node;
use crate::rpc::{
    read_frame, write_frame, Addr, ChildHandle, Listener, LoadRequest, Request, Response, Stream,
};
use pd_common::sync::Mutex;
use pd_common::{Error, Result};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar};
use std::time::{Duration, Instant};

/// Entry point for the `pd-dist-worker` binary: parse the listen address,
/// serve forever (until a `Shutdown` request or a fatal error). Returns
/// the process exit code.
pub fn worker_main() -> i32 {
    let mut args = std::env::args().skip(1);
    let mut listen = None;
    let mut announce = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => listen = args.next(),
            "--announce" => announce = args.next(),
            other => {
                eprintln!("pd-dist-worker: unknown argument `{other}`");
                return 2;
            }
        }
    }
    let Some(listen) = listen else {
        eprintln!("usage: pd-dist-worker --listen <unix:path|tcp:host:port> [--announce <file>]");
        return 2;
    };
    let addr = match Addr::parse(&listen) {
        Ok(addr) => addr,
        Err(e) => {
            eprintln!("pd-dist-worker: {e}");
            return 2;
        }
    };
    match serve(&addr, announce.as_deref().map(Path::new)) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("pd-dist-worker: {e}");
            1
        }
    }
}

/// The FIFO gate in front of the node: tickets are handed out in arrival
/// order and called one at a time, so requests execute exactly as a
/// single executor thread would run them — on the threads that read them.
#[derive(Default)]
struct Turnstile {
    /// `(next ticket to hand out, ticket being served)`.
    tickets: Mutex<(u64, u64)>,
    called: Condvar,
    /// The node this process currently is (`None` until the driver assigns
    /// a role), served to one ticket holder at a time.
    served: Mutex<Option<Node>>,
}

impl Turnstile {
    /// Take a ticket, wait for it to be called, run `serve` on the state
    /// and give the turn to the next ticket. `serve` is told how long the
    /// ticket waited.
    fn pass<T>(&self, serve: impl FnOnce(&mut Option<Node>, Duration) -> T) -> T {
        let arrived = Instant::now();
        let mut tickets = self.tickets.lock();
        let mine = tickets.0;
        tickets.0 += 1;
        while tickets.1 != mine {
            tickets = self.called.wait(tickets).unwrap_or_else(|e| e.into_inner());
        }
        drop(tickets);
        let _turn = Turn(self);
        // Never contended — only the called ticket gets here — the lock is
        // what hands the node from one connection thread to the next.
        let mut served = self.served.lock();
        serve(&mut served, arrived.elapsed())
    }
}

/// The called ticket's turn; dropping it calls the next ticket, so a
/// request that panics cannot wedge the ones behind it.
struct Turn<'a>(&'a Turnstile);

impl Drop for Turn<'_> {
    fn drop(&mut self) {
        let mut tickets = self.0.tickets.lock();
        tickets.1 += 1;
        if tickets.1 != tickets.0 {
            // Someone is waiting; which sleeper holds the next ticket is
            // not known, so all look.
            self.0.called.notify_all();
        }
    }
}

/// The temp file an announce is staged in before its atomic rename. The
/// name keeps the *full* announce file name (two workers announcing to
/// `w.1` and `w.2` must not both stage in `w.tmp`, as `with_extension`
/// would have it) and appends the pid (two processes told to announce to
/// the *same* file must not stage in the same temp file either).
fn announce_tmp(announce: &Path) -> PathBuf {
    let name = announce.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
    announce.with_file_name(format!("{name}.tmp.{}", std::process::id()))
}

/// Bind `addr` and serve the protocol, announcing the resolved address
/// (TCP: with the kernel-assigned port) to `announce` if given.
pub fn serve(addr: &Addr, announce: Option<&Path>) -> Result<()> {
    let listener = Listener::bind(addr)?;
    let local = listener.local_addr()?;
    if let Some(announce) = announce {
        // Atomic announce: spawners poll for the file, so it must never be
        // observable half-written.
        let tmp = announce_tmp(announce);
        std::fs::write(&tmp, local.to_string())?;
        std::fs::rename(&tmp, announce)?;
    }
    let turnstile = Arc::new(Turnstile::default());
    loop {
        let stream = listener.accept().map_err(|e| Error::Data(format!("accept: {e}")))?;
        let turnstile = Arc::clone(&turnstile);
        std::thread::Builder::new()
            .name("pd-worker-conn".into())
            .spawn(move || connection_loop(stream, &turnstile))
            .map_err(|e| Error::Data(format!("spawn connection: {e}")))?;
    }
}

/// Read frames off one connection until EOF and serve them: each complete
/// request passes the turnstile and runs on this thread. `Ping` answers
/// inline (the startup handshake must not wait behind a long import);
/// `Shutdown` acks and exits the process.
fn connection_loop(mut stream: Stream, turnstile: &Turnstile) {
    loop {
        let request = match read_frame::<Request>(&mut stream) {
            Ok(Some(request)) => request,
            Ok(None) => return, // peer closed
            Err(e) => {
                // Corrupt frame: NAK and drop the connection — framing is
                // unrecoverable once desynchronized, and the `Malformed`
                // tag tells a leaf's parent to fail over (fresh bytes to
                // the replica) rather than abort the query.
                let _ = write_frame(&mut stream, &Response::Malformed(e.to_string()));
                return;
            }
        };
        match request {
            Request::Ping => {
                if write_frame(&mut stream, &Response::Ok).is_err() {
                    return;
                }
            }
            Request::Shutdown => {
                let _ = write_frame(&mut stream, &Response::Ok);
                std::process::exit(0);
            }
            request => {
                let response = turnstile
                    .pass(|served, queued| handle(served, request, queued))
                    .unwrap_or_else(|e| match e {
                        // Typed robustness failures cross the wire as
                        // `Fault` so the parent's policy can dispatch on
                        // the variant; anything else is an app error.
                        Error::Rpc(fault) => Response::Fault(fault),
                        e => Response::Err(e.to_string()),
                    });
                if write_frame(&mut stream, &response).is_err() {
                    // Peer gave up (budget expiry or a hedge loss): drop
                    // the connection; the answer is stale by definition.
                    return;
                }
            }
        }
    }
}

/// Serve one request on the node.
fn handle(served: &mut Option<Node>, request: Request, queued: Duration) -> Result<Response> {
    match request {
        Request::Load(load) => {
            let LoadRequest { shard, delta, build, spec } = *load;
            // The leaf's own account of its data — value sets and extremes
            // of the exact rows it serves — is what makes parent-side
            // pruning sound.
            let (node, meta) = Node::leaf(shard, delta, &build, spec)?;
            *served = Some(node);
            Ok(Response::Loaded(Box::new(meta)))
        }
        Request::Attach(attach) => {
            let children = attach.children.into_iter().map(ChildHandle::new).collect();
            *served = Some(Node::mixer(children, attach.name));
            Ok(Response::Ok)
        }
        Request::Append(append) => Ok(Response::Appended(assigned(served)?.append(&append)?)),
        Request::Query(query) => {
            Ok(Response::Answer(Box::new(assigned(served)?.query(&query, queued)?)))
        }
        // Answered inline; neither passes the turnstile.
        Request::Ping | Request::Shutdown => Ok(Response::Ok),
    }
}

fn assigned(served: &Option<Node>) -> Result<&Node> {
    (served.as_ref()).ok_or_else(|| {
        Error::Data("worker has neither a store (Load) nor children (Attach)".into())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn announce_tmp_paths_never_collide() {
        // The regression: `with_extension("tmp")` maps both `w.1` and
        // `w.2` to `w.tmp`, so two workers announcing side by side clobber
        // each other's staging file.
        let a = announce_tmp(Path::new("/tmp/tree/w.1"));
        let b = announce_tmp(Path::new("/tmp/tree/w.2"));
        assert_ne!(a, b, "announce files differing only by extension must stage separately");
        assert_eq!(a.parent(), Some(Path::new("/tmp/tree")), "staging stays in the same dir");
        let name = a.file_name().unwrap().to_string_lossy().into_owned();
        assert!(name.starts_with("w.1.tmp."), "full original name is kept: {name}");
        assert!(
            name.ends_with(&std::process::id().to_string()),
            "pid-unique across processes: {name}"
        );
    }
}
