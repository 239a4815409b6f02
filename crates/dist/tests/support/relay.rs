//! The fault relay: a `pd-dist-worker` behind a relay that injects faults,
//! for tests, benches and examples.
//!
//! `<relay> --plan <file> --listen <unix:path|tcp:host:port> [--announce <file>]`
//! takes the worker's own arguments plus a plan ([`faults`]), so a cluster
//! spawns it through the usual `RpcConfig::worker_bin` path (see
//! [`faults::Relays`]). It runs the worker's server on a private unix
//! socket in this process and relays every connection to the address it
//! was told to listen on, frame by frame: one connection to the worker per
//! connection in, so the worker queues and measures exactly as it would
//! unrelayed. It learns its node's name from the `Load` or `Attach` it
//! relays, and for each query draws a fault from the plan, re-read per
//! query:
//!
//! - *refuse*: close the connection without forwarding the query;
//! - *kill*: exit the process (worker included) before any reply byte;
//! - *reset*: forward, then close without replying;
//! - *torn*: forward, pass on half the reply frame, then close;
//! - *delay*: forward, and sleep between the worker's answer and passing
//!   it on — that query's service time, nobody else's queue delay.
//!
//! The faults happen on genuine sockets, outside the code under test: the
//! parent meets them as it would meet a dead, reset or slow peer.

mod faults;

use faults::{Fault, Plan};
use pd_common::wire::{self, FrameHeader};
use pd_dist::rpc::{Addr, Listener, Request, Stream};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn main() {
    std::process::exit(run());
}

fn run() -> i32 {
    let (mut plan, mut listen, mut announce) = (None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let slot = match arg.as_str() {
            "--plan" => &mut plan,
            "--listen" => &mut listen,
            "--announce" => &mut announce,
            other => {
                eprintln!("relay: unknown argument `{other}`");
                return 2;
            }
        };
        *slot = args.next();
    }
    let (Some(plan), Some(listen)) = (plan, listen) else {
        eprintln!("usage: relay --plan <file> --listen <addr> [--announce <file>]");
        return 2;
    };
    match serve(Path::new(&plan), &listen, announce.as_deref().map(Path::new)) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("relay: {e}");
            1
        }
    }
}

fn serve(plan: &Path, listen: &str, announce: Option<&Path>) -> pd_common::Result<()> {
    let addr = Addr::parse(listen)?;
    // The worker's socket sits beside the relay's own files, where the
    // spawner's cleanup finds it.
    let beside = match (&addr, announce) {
        (Addr::Unix(path), _) => path.clone(),
        (_, Some(announce)) => announce.to_path_buf(),
        _ => std::env::temp_dir().join(format!("pd-relay-{}", std::process::id())),
    };
    let mut inner = beside.into_os_string();
    inner.push(".worker.sock");
    let inner = Addr::Unix(PathBuf::from(inner));
    let worker = inner.clone();
    std::thread::spawn(move || {
        if let Err(e) = pd_dist::worker::serve(&worker, None) {
            eprintln!("relay: worker: {e}");
            std::process::exit(1);
        }
    });

    let listener = Listener::bind(&addr)?;
    if let Some(announce) = announce {
        let mut staged = announce.as_os_str().to_owned();
        staged.push(".staged");
        std::fs::write(&staged, listener.local_addr()?.to_string())?;
        std::fs::rename(&staged, announce)?;
    }
    let name = Arc::new(Mutex::new(String::new()));
    loop {
        let downstream = listener.accept()?;
        let (inner, name, plan) = (inner.clone(), Arc::clone(&name), plan.to_path_buf());
        std::thread::spawn(move || relay(downstream, &inner, &plan, &name));
    }
}

/// Pass frames between one parent connection and the worker until either
/// side closes, applying each query's fault.
fn relay(mut downstream: Stream, inner: &Addr, plan: &Path, name: &Mutex<String>) {
    let name = || name.lock().expect("a relay thread panicked naming the node");
    let Some(mut upstream) = connect(inner) else { return };
    while let Some(frame) = read_frame(&mut downstream) {
        let fault = match wire::from_bytes::<Request>(&frame[FrameHeader::BYTES..]) {
            Ok(Request::Load(load)) => {
                *name() = load.spec.name.clone();
                None
            }
            Ok(Request::Attach(attach)) => {
                *name() = attach.name.clone();
                None
            }
            Ok(Request::Query(query)) => {
                // A missing or unreadable plan injects nothing.
                let plan = std::fs::read_to_string(plan).ok().and_then(|t| Plan::parse(&t).ok());
                let key = pd_common::fx_hash64(&wire::to_bytes(&query.query));
                plan.and_then(|plan| plan.draw(&name(), key))
            }
            _ => None,
        };
        match fault {
            Some(Fault::Refuse) => return,
            Some(Fault::Kill) => std::process::exit(9),
            _ => {}
        }
        if upstream.write_all(&frame).is_err() {
            return;
        }
        let Some(reply) = read_frame(&mut upstream) else { return };
        let reply = match fault {
            Some(Fault::Reset) => return,
            Some(Fault::Torn) => {
                let _ = downstream.write_all(&reply[..reply.len() / 2]);
                return;
            }
            Some(Fault::Delay(lag)) => {
                std::thread::sleep(lag);
                reply
            }
            _ => reply,
        };
        if downstream.write_all(&reply).is_err() {
            return;
        }
    }
}

/// One whole frame, header included; `None` once the peer closed or sent
/// something that is not a frame.
fn read_frame(stream: &mut Stream) -> Option<Vec<u8>> {
    let mut header = [0u8; FrameHeader::BYTES];
    stream.read_exact(&mut header).ok()?;
    let len = FrameHeader::parse(header).ok()?.len as usize;
    let mut frame = header.to_vec();
    frame.resize(FrameHeader::BYTES + len, 0);
    stream.read_exact(&mut frame[FrameHeader::BYTES..]).ok()?;
    Some(frame)
}

/// A connection to the worker, which may still be binding its socket.
fn connect(inner: &Addr) -> Option<Stream> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match inner.connect() {
            Ok(stream) => return Some(stream),
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(1)),
            Err(_) => return None,
        }
    }
}
