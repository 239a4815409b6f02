//! The workspace-wide error type.

use std::fmt;

/// Errors produced anywhere in the PowerDrill workspace.
#[derive(Debug)]
pub enum Error {
    /// SQL lexing / parsing failure.
    Parse(String),
    /// Schema violation (unknown / duplicate field, arity mismatch, ...).
    Schema(String),
    /// Type error during analysis or evaluation.
    Type(String),
    /// Malformed input data (CSV / record-io decode failure, ...).
    Data(String),
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Feature outside the supported SQL subset.
    Unsupported(String),
    /// Internal invariant violation — a bug in this library.
    Internal(String),
    /// Typed RPC failure — retry / hedge / failover policy dispatches on
    /// the variant, never on message text.
    Rpc(RpcError),
}

/// The RPC failure taxonomy of the distributed tree. Every variant is a
/// *decision input*: `Deadline` and `PeerGone` are hedge/failover
/// triggers, `ConnRefused` is the only retryable connect error,
/// and `Decode`/`VersionMismatch` poison the connection without retry.
/// Tag 5 is unassigned: a frame carrying it fails to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpcError {
    /// The per-query time budget ran out (locally or at a peer).
    Deadline(String),
    /// Connect refused — the peer is not (yet) listening; retryable
    /// with backoff while the budget lasts.
    ConnRefused(String),
    /// A frame or payload failed to decode; the connection is poisoned.
    Decode(String),
    /// The peer speaks a different frame version; never retried.
    VersionMismatch(String),
    /// The peer vanished mid-conversation (reset, EOF, broken pipe).
    PeerGone(String),
}

impl RpcError {
    /// Wire tag, stable across releases (new variants append only).
    pub fn tag(&self) -> u8 {
        match self {
            RpcError::Deadline(_) => 0,
            RpcError::ConnRefused(_) => 1,
            RpcError::Decode(_) => 2,
            RpcError::VersionMismatch(_) => 3,
            RpcError::PeerGone(_) => 4,
        }
    }

    /// The human-readable detail carried by every variant.
    pub fn message(&self) -> &str {
        match self {
            RpcError::Deadline(m)
            | RpcError::ConnRefused(m)
            | RpcError::Decode(m)
            | RpcError::VersionMismatch(m)
            | RpcError::PeerGone(m) => m,
        }
    }

    /// Rebuild a variant from its wire tag.
    pub fn from_tag(tag: u8, message: String) -> Option<RpcError> {
        Some(match tag {
            0 => RpcError::Deadline(message),
            1 => RpcError::ConnRefused(message),
            2 => RpcError::Decode(message),
            3 => RpcError::VersionMismatch(message),
            4 => RpcError::PeerGone(message),
            _ => return None,
        })
    }

    /// Only a refused connect is worth retrying against the same
    /// address — the peer may simply not be listening yet.
    pub fn retryable_connect(&self) -> bool {
        matches!(self, RpcError::ConnRefused(_))
    }
}

impl fmt::Display for RpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpcError::Deadline(m) => write!(f, "deadline: {m}"),
            RpcError::ConnRefused(m) => write!(f, "connection refused: {m}"),
            RpcError::Decode(m) => write!(f, "decode: {m}"),
            RpcError::VersionMismatch(m) => write!(f, "version mismatch: {m}"),
            RpcError::PeerGone(m) => write!(f, "peer gone: {m}"),
        }
    }
}

impl From<RpcError> for Error {
    fn from(e: RpcError) -> Self {
        Error::Rpc(e)
    }
}

/// Workspace-wide result alias.
pub type Result<T, E = Error> = std::result::Result<T, E>;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse(m) => write!(f, "parse error: {m}"),
            Error::Schema(m) => write!(f, "schema error: {m}"),
            Error::Type(m) => write!(f, "type error: {m}"),
            Error::Data(m) => write!(f, "data error: {m}"),
            Error::Io(e) => write!(f, "io error: {e}"),
            Error::Unsupported(m) => write!(f, "unsupported: {m}"),
            Error::Internal(m) => write!(f, "internal error: {m}"),
            Error::Rpc(e) => write!(f, "rpc error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_category_and_message() {
        assert_eq!(Error::Parse("bad token".into()).to_string(), "parse error: bad token");
        assert_eq!(Error::Unsupported("JOIN".into()).to_string(), "unsupported: JOIN");
    }

    #[test]
    fn io_errors_convert_and_expose_source() {
        use std::error::Error as _;
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let err: Error = io.into();
        assert!(err.to_string().contains("gone"));
        assert!(err.source().is_some());
        assert!(Error::Type("t".into()).source().is_none());
    }

    #[test]
    fn rpc_error_tags_round_trip() {
        let all = [
            RpcError::Deadline("a".into()),
            RpcError::ConnRefused("b".into()),
            RpcError::Decode("c".into()),
            RpcError::VersionMismatch("d".into()),
            RpcError::PeerGone("e".into()),
        ];
        for e in all {
            let back = RpcError::from_tag(e.tag(), e.message().to_string()).unwrap();
            assert_eq!(back, e);
        }
        assert!(RpcError::from_tag(5, String::new()).is_none());
        assert!(RpcError::from_tag(250, String::new()).is_none());
        assert!(RpcError::ConnRefused(String::new()).retryable_connect());
        assert!(!RpcError::Deadline(String::new()).retryable_connect());
        let wrapped: Error = RpcError::Deadline("budget spent".into()).into();
        assert_eq!(wrapped.to_string(), "rpc error: deadline: budget spent");
    }
}
