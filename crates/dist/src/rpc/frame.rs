//! Bytes on a socket: endpoints, frames and the deadlines their I/O runs
//! against — what only the socket kind of edge needs.
//!
//! **Transport.** Frames travel over a socket-shape-agnostic [`Stream`]:
//! `unix:<path>` sockets for the single-box process split, `tcp:<host:port>`
//! for multi-host trees (loopback TCP today, real hosts tomorrow — TCP
//! connections set `TCP_NODELAY`, because a query frame *is* the flush
//! boundary). [`Addr`] names an endpoint in either shape and crosses the
//! wire inside tree-wiring messages, so a merge server can parent children
//! on a different transport than its own.
//!
//! **Framing.** Every frame is `[FrameHeader][payload]` — the 5-byte
//! versioned header of [`pd_common::wire::FrameHeader`] (version, payload
//! length, capped at [`MAX_FRAME_BYTES`]) followed by the dependency-free
//! [`pd_common::wire`] encoding, raw: a partial result arriving at a merge
//! server is bit-identical to the one the leaf computed. Nothing is
//! compressed — the median query frame fits one segment, and what would
//! compress (a shard's `Load`, an `Append`) crosses a unix socket, where
//! bytes are cheaper than codec time.
//!
//! **Corruption.** Both sides decode frames with [`pd_common::wire`]'s
//! checked readers. Truncated or corrupt frames produce a typed
//! `RpcError::Decode`, which the failover path treats exactly like a
//! timeout — the other copy is asked.

use pd_common::wire::{self, Decode, Encode, FrameHeader};
use pd_common::{Error, Result, RpcError};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Upper bound on a single frame's payload. A shard's partial result for an
/// interactive group-by is kilobytes; a shard *load* (coded columns +
/// recipe) is megabytes. A length beyond this is corruption, not data.
pub const MAX_FRAME_BYTES: u32 = 1 << 30;

/// How much the first `read` of a reply asks for: a typical partial and
/// its header arrive in one syscall.
const FIRST_READ_BYTES: usize = 4096;

// --- addresses --------------------------------------------------------------

/// A tree-node endpoint in either socket shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Addr {
    /// A filesystem socket: `unix:/tmp/pd-tree-1/l0p.sock`.
    Unix(PathBuf),
    /// A TCP endpoint: `tcp:127.0.0.1:41233`.
    Tcp(String),
}

impl Addr {
    /// Parse the textual form (`unix:<path>` / `tcp:<host:port>`); a bare
    /// path is shorthand for a Unix socket.
    pub fn parse(s: &str) -> Result<Addr> {
        if let Some(path) = s.strip_prefix("unix:") {
            Ok(Addr::Unix(PathBuf::from(path)))
        } else if let Some(hostport) = s.strip_prefix("tcp:") {
            if !hostport.contains(':') {
                return Err(Error::Data(format!("rpc: tcp address `{hostport}` needs host:port")));
            }
            Ok(Addr::Tcp(hostport.to_owned()))
        } else if s.contains('/') {
            Ok(Addr::Unix(PathBuf::from(s)))
        } else {
            Err(Error::Data(format!(
                "rpc: cannot parse address `{s}` (unix:<path> | tcp:<host:port>)"
            )))
        }
    }

    /// Connect a [`Stream`] to this endpoint.
    pub fn connect(&self) -> std::io::Result<Stream> {
        match self {
            Addr::Unix(path) => Ok(Stream::Unix(UnixStream::connect(path)?)),
            Addr::Tcp(hostport) => {
                let stream = TcpStream::connect(hostport.as_str())?;
                // A frame is the flush boundary; Nagle would add RTTs.
                stream.set_nodelay(true)?;
                Ok(Stream::Tcp(stream))
            }
        }
    }
}

impl std::fmt::Display for Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Addr::Unix(path) => write!(f, "unix:{}", path.display()),
            Addr::Tcp(hostport) => write!(f, "tcp:{hostport}"),
        }
    }
}

/// One connected peer, in either socket shape. Both shapes expose the same
/// byte-stream and per-syscall-timeout surface, which is all the framing
/// layer needs — the deadline logic above it is shape-agnostic.
pub enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_read_timeout(timeout),
            Stream::Tcp(s) => s.set_read_timeout(timeout),
        }
    }

    pub fn set_write_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_write_timeout(timeout),
            Stream::Tcp(s) => s.set_write_timeout(timeout),
        }
    }

    /// A second handle onto the same connection (shared file descriptor) —
    /// what a [`CancelToken`](super::CancelToken) holds so a hedge loser can be shut down from
    /// outside the thread blocked on it.
    pub fn try_clone(&self) -> std::io::Result<Stream> {
        match self {
            Stream::Unix(s) => Ok(Stream::Unix(s.try_clone()?)),
            Stream::Tcp(s) => Ok(Stream::Tcp(s.try_clone()?)),
        }
    }

    /// Shut both directions down: any thread blocked reading this
    /// connection wakes immediately with an error.
    pub fn shutdown(&self) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// A bound accept socket in either shape.
pub enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    /// Bind `addr`. A TCP port of `0` binds an ephemeral port — read the
    /// real one back with [`Listener::local_addr`] (workers announce it to
    /// their spawner).
    pub fn bind(addr: &Addr) -> Result<Listener> {
        match addr {
            Addr::Unix(path) => Ok(Listener::Unix(
                UnixListener::bind(path)
                    .map_err(|e| Error::Data(format!("bind {}: {e}", path.display())))?,
            )),
            Addr::Tcp(hostport) => Ok(Listener::Tcp(
                TcpListener::bind(hostport.as_str())
                    .map_err(|e| Error::Data(format!("bind tcp:{hostport}: {e}")))?,
            )),
        }
    }

    /// The resolved address (TCP: with the real port).
    pub fn local_addr(&self) -> Result<Addr> {
        match self {
            Listener::Unix(l) => {
                let addr = l.local_addr().map_err(|e| Error::Data(format!("local_addr: {e}")))?;
                let path = addr
                    .as_pathname()
                    .ok_or_else(|| Error::Data("rpc: unnamed unix listener".into()))?;
                Ok(Addr::Unix(path.to_path_buf()))
            }
            Listener::Tcp(l) => {
                let addr = l.local_addr().map_err(|e| Error::Data(format!("local_addr: {e}")))?;
                Ok(Addr::Tcp(addr.to_string()))
            }
        }
    }

    pub fn accept(&self) -> std::io::Result<Stream> {
        match self {
            Listener::Unix(l) => Ok(Stream::Unix(l.accept()?.0)),
            Listener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                stream.set_nodelay(true)?;
                Ok(Stream::Tcp(stream))
            }
        }
    }
}

// --- framing ---------------------------------------------------------------

/// Encode one frame into bytes: header + payload. `_compress` is ignored:
/// every frame is raw. The parameter stays only so that callers written
/// when frames could be compressed still build.
pub fn encode_frame<T: Encode>(message: &T, _compress: bool) -> Result<Vec<u8>> {
    let payload = wire::to_bytes(message);
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&len| len <= MAX_FRAME_BYTES)
        .ok_or_else(|| Error::Data(format!("rpc: frame of {} bytes exceeds cap", payload.len())))?;
    let mut out = Vec::with_capacity(FrameHeader::BYTES + payload.len());
    out.extend_from_slice(&FrameHeader { len }.to_bytes());
    out.extend_from_slice(&payload);
    Ok(out)
}

/// Write one frame.
pub fn write_frame<T: Encode>(stream: &mut impl Write, message: &T) -> Result<()> {
    let frame = encode_frame(message, false)?;
    stream.write_all(&frame)?;
    stream.flush()?;
    Ok(())
}

/// Read one frame: `Ok(None)` on clean EOF (peer closed between frames).
pub fn read_frame<T: Decode>(stream: &mut impl Read) -> Result<Option<T>> {
    let mut header_bytes = [0u8; FrameHeader::BYTES];
    match stream.read_exact(&mut header_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    let header = FrameHeader::parse(header_bytes)?;
    if header.len > MAX_FRAME_BYTES {
        return Err(Error::Data(format!("rpc: corrupt frame length {}", header.len)));
    }
    let mut body = vec![0u8; header.len as usize];
    stream.read_exact(&mut body)?;
    wire::from_bytes(&body).map(Some)
}

/// Classify an I/O failure into the [`RpcError`] taxonomy so retry and
/// hedge policy can dispatch on the variant.
pub(super) fn io_fault(context: &str, e: &std::io::Error) -> RpcError {
    use std::io::ErrorKind;
    match e.kind() {
        // `NotFound` is a unix socket whose path is not (yet) bound — the
        // filesystem spelling of a refused connect.
        ErrorKind::ConnectionRefused | ErrorKind::NotFound => {
            RpcError::ConnRefused(format!("{context}: {e}"))
        }
        ErrorKind::WouldBlock | ErrorKind::TimedOut => {
            RpcError::Deadline(format!("{context}: {e}"))
        }
        _ => RpcError::PeerGone(format!("{context}: {e}")),
    }
}

/// The time left until `deadline`, or a typed deadline-expired error.
fn budget_left(deadline: Instant) -> Result<Duration> {
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Err(Error::Rpc(RpcError::Deadline("rpc: call budget expired".into())));
    }
    Ok(left)
}

/// `write_all` against an *absolute* deadline: the socket's write timeout
/// is armed with the whole remaining budget, and again — with what is
/// left — only after a short write, so a peer draining one byte per
/// interval still expires on time.
pub(super) fn write_all_deadline(
    stream: &mut Stream,
    mut bytes: &[u8],
    deadline: Instant,
) -> Result<()> {
    while !bytes.is_empty() {
        stream.set_write_timeout(Some(budget_left(deadline)?))?;
        match stream.write(bytes) {
            Ok(0) => {
                return Err(Error::Rpc(RpcError::PeerGone(
                    "rpc write: the connection accepts no more bytes".into(),
                )))
            }
            Ok(n) => bytes = bytes.get(n..).unwrap_or_default(),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(Error::Rpc(io_fault("rpc write", &e))),
        }
    }
    Ok(())
}

/// One `read`, retried across `EINTR`. EOF here is always mid-frame: the
/// peer vanished.
fn read_some(stream: &mut Stream, buf: &mut [u8]) -> std::io::Result<usize> {
    loop {
        match stream.read(buf) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "peer closed the connection mid-frame",
                ))
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            other => return other,
        }
    }
}

/// A further `read` of a frame whose previous read came up short: re-arm
/// the socket's read timeout with what is left of the budget first.
/// Socket timeouts are per-syscall, so without this a peer trickling one
/// byte per interval would reset the clock forever.
fn read_more(stream: &mut Stream, buf: &mut [u8], deadline: Instant) -> Result<usize> {
    stream.set_read_timeout(Some(budget_left(deadline)?))?;
    read_some(stream, buf).map_err(|e| Error::Rpc(io_fault("rpc read", &e)))
}

/// Read one response frame against an absolute `deadline`. The read
/// timeout is armed once, and the first `read` asks for enough that a
/// typical frame — header and body — arrives whole; only a frame that
/// comes in pieces pays a re-arm per piece ([`read_more`]), which is what
/// makes the deadline hold against a trickling peer.
///
/// `quiet` bounds the wait for the frame's *first byte*: `Ok(None)` when
/// nothing at all arrived within it (and the deadline lies further out) —
/// not one byte was consumed, so the stream is still in sync and the reply
/// can be awaited again. Decode failures (version mismatch aside, which
/// is already typed) surface as typed [`RpcError::Decode`] — torn bytes on
/// the wire, not app errors.
pub(super) fn read_frame_deadline<T: Decode>(
    stream: &mut Stream,
    quiet: Duration,
    deadline: Instant,
) -> Result<Option<T>> {
    let typed_decode = |e: Error| match e {
        Error::Rpc(f) => Error::Rpc(f),
        other => Error::Rpc(RpcError::Decode(other.to_string())),
    };
    let cursor = || Error::Internal("rpc: read cursor out of bounds".into());
    let left = budget_left(deadline)?;
    let mut head = [0u8; FIRST_READ_BYTES];
    stream.set_read_timeout(Some(quiet.min(left).max(Duration::from_micros(1))))?;
    let mut filled = match read_some(stream, &mut head) {
        Ok(n) => n,
        Err(e) => {
            let fault = io_fault("rpc read", &e);
            if quiet < left && matches!(fault, RpcError::Deadline(_)) {
                return Ok(None);
            }
            return Err(Error::Rpc(fault));
        }
    };
    while filled < FrameHeader::BYTES {
        filled += read_more(stream, head.get_mut(filled..).ok_or_else(cursor)?, deadline)?;
    }
    let header_bytes = head.first_chunk::<{ FrameHeader::BYTES }>().ok_or_else(cursor)?;
    let header = FrameHeader::parse(*header_bytes).map_err(typed_decode)?;
    if header.len > MAX_FRAME_BYTES {
        return Err(Error::Rpc(RpcError::Decode(format!(
            "rpc: corrupt frame length {}",
            header.len
        ))));
    }
    // Calls are strictly request/response: bytes past the frame's end
    // belong to no reply this connection is owed.
    let early = head.get(FrameHeader::BYTES..filled).ok_or_else(cursor)?;
    let mut body = vec![0u8; header.len as usize];
    let Some(prefix) = body.get_mut(..early.len()) else {
        return Err(Error::Rpc(RpcError::Decode(format!(
            "rpc: {} bytes past the end of a {}-byte frame",
            early.len() - body.len(),
            header.len
        ))));
    };
    prefix.copy_from_slice(early);
    let mut have = early.len();
    while have < body.len() {
        have += read_more(stream, body.get_mut(have..).ok_or_else(cursor)?, deadline)?;
    }
    wire::from_bytes(&body).map(Some).map_err(typed_decode)
}

#[cfg(test)]
mod tests {
    use super::super::{Request, Response};
    use super::*;

    #[test]
    fn addrs_parse_and_render() {
        let unix = Addr::parse("unix:/tmp/w.sock").unwrap();
        assert_eq!(unix, Addr::Unix("/tmp/w.sock".into()));
        assert_eq!(unix.to_string(), "unix:/tmp/w.sock");
        let tcp = Addr::parse("tcp:127.0.0.1:4000").unwrap();
        assert_eq!(tcp, Addr::Tcp("127.0.0.1:4000".into()));
        assert_eq!(Addr::parse(&tcp.to_string()).unwrap(), tcp);
        // Bare paths are unix shorthand; garbage is rejected.
        assert_eq!(Addr::parse("/tmp/w.sock").unwrap(), Addr::Unix("/tmp/w.sock".into()));
        assert!(Addr::parse("tcp:noport").is_err());
        assert!(Addr::parse("ipx:whatever").is_err());
    }

    #[test]
    fn frames_round_trip_over_a_socket_pair() {
        let (a, b) = UnixStream::pair().unwrap();
        let (mut a, mut b) = (Stream::Unix(a), Stream::Unix(b));
        write_frame(&mut a, &Request::Ping).unwrap();
        write_frame(&mut a, &Request::Shutdown).unwrap();
        assert_eq!(read_frame::<Request>(&mut b).unwrap(), Some(Request::Ping));
        assert_eq!(read_frame::<Request>(&mut b).unwrap(), Some(Request::Shutdown));
        drop(a);
        assert_eq!(read_frame::<Request>(&mut b).unwrap(), None, "clean EOF");
    }

    #[test]
    fn frames_round_trip_over_tcp_loopback() {
        let listener = Listener::bind(&Addr::Tcp("127.0.0.1:0".into())).unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let mut stream = listener.accept().unwrap();
            let request = read_frame::<Request>(&mut stream).unwrap().unwrap();
            write_frame(&mut stream, &Response::Ok).unwrap();
            request
        });
        let mut stream = addr.connect().unwrap();
        write_frame(&mut stream, &Request::Ping).unwrap();
        assert_eq!(read_frame::<Response>(&mut stream).unwrap(), Some(Response::Ok));
        assert_eq!(server.join().unwrap(), Request::Ping);
    }

    #[test]
    fn corrupt_frame_lengths_are_rejected() {
        let (a, b) = UnixStream::pair().unwrap();
        let (mut a, mut b) = (Stream::Unix(a), Stream::Unix(b));
        let mut bogus = FrameHeader { len: u32::MAX }.to_bytes().to_vec();
        bogus.extend_from_slice(&[0; 16]);
        a.write_all(&bogus).unwrap();
        assert!(read_frame::<Request>(&mut b).is_err());
    }
}
