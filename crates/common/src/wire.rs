//! Dependency-free binary wire format for the RPC boundary (§4).
//!
//! The computation tree runs in separate OS processes, so partial results,
//! queries and control messages cross process boundaries as bytes. This
//! module defines the encoding those bytes use: a fixed-width,
//! little-endian, length-prefixed format with no schema evolution, no
//! varints and no external crates — every field is written exactly once in
//! a fixed order, so `decode(encode(x)) == x` *bit-identically* (floats
//! travel as their IEEE bit patterns, preserving NaN payloads and signed
//! zeros; that is what lets the distributed equivalence suite assert exact
//! `assert_eq!` across the process split).
//!
//! Robustness contract: [`Decode`] implementations must return `Err` —
//! never panic, never over-allocate — on truncated or corrupt input. A
//! corrupt peer (or a bit flip on the wire) is an error to report up the
//! failover path, not a crash. Two mechanisms enforce this:
//!
//! - every length prefix is validated against the bytes actually remaining
//!   before any allocation ([`Reader::check_len`]), so a frame claiming
//!   "4 billion elements follow" fails immediately instead of allocating;
//! - recursive structures (expression trees) bound their decode depth
//!   explicitly — see `pd_sql`'s codec.
//!
//! Implementations for foundation types (`u8`…`f64`, `bool`, `String`,
//! `Option`, `Vec`, boxed slices, tuples, [`Duration`], [`Value`],
//! [`Schema`]) live here; domain types implement [`Encode`] / [`Decode`] in
//! their own crates ([`crate::FloatSum`] below in `fsum`, `PartialResult` /
//! aggregation states in `pd_core::codec`, expressions and analyzed queries
//! in `pd_sql::codec`, coded columns in `pd_encoding::delta`).

use crate::error::{Error, Result, RpcError};
use crate::schema::{Field, Schema};
use crate::value::{DataType, Value};
use std::time::Duration;

// --- frame header -----------------------------------------------------------

/// Version byte of the RPC frame header. Bumped whenever the frame layout
/// *or* the protocol-message encodings change shape; peers reject frames
/// from a different version instead of mis-framing the stream. Version 3:
/// deadline budgets + hedge delay + fault directives + node names in the
/// protocol messages, typed `Fault` responses, hedged flags in reports.
/// Version 4: chunk-granular shard metadata (per-chunk zone maps +
/// per-column Bloom filters) in `Load`/`Attach`, a per-query switch for
/// pruning by it, `chunks_pruned_remote` in scan stats.
/// Version 5: the streaming-append protocol — `Append` requests carrying
/// self-contained dictionary-delta tables (`pd_encoding::TableDelta`),
/// applied in place by leaf workers without a respawn.
/// Version 6: an `Append` is acked with a receipt (`Appended`: the new
/// chunks' row counts) instead of the shard's whole summary, and merge
/// servers take an `Absorb` request (deltas + receipts + epoch) in place
/// of a re-`Attach`.
/// Version 7: everything on the wire is measured or acted on — `ScanStats`
/// loses its two modeled byte counters and `Load` its residency budget;
/// faults travel as one directive list (`QueryRequest` loses its kill
/// list, the fault enum gains `Unreachable`) and request tag 4 (`Delay`) is
/// retired. Version 8: a partial result travels as the columns of its
/// group table, groups in ascending key order (no per-group state
/// records; a float-sum slot is a 16-byte pair, its 34-limb accumulator
/// only when tainted), and two fields nothing read leave —
/// `BuildOptions`' codec and `ChildSpec::Node`'s height.
/// Version 9: rows cross the wire one way — a `Load` carries the shard as
/// the coded columns an `Append` carries (`pd_encoding::TableDelta`), so
/// `Row` has no codec; `Load` and `Attach` share one node-spec layout; an
/// analyzed query ships its filter only (the restriction is derived from
/// it on decode); and a query loses version 4's switch — chunk-granular
/// pruning is simply what parents and leaves do.
/// Version 10: a partial's key column travels as it is held — one buffer
/// of sort keys (`crate::sortkey`) and each cell's end offset — instead of
/// one tagged `Value` per cell.
/// Version 11: an append walks the tree a query walks — one `Append` per
/// edge carries the deltas of every shard beneath the receiver and is acked
/// with every receipt beneath it plus the bytes written below; version 6's
/// `Absorb` (request tag 7) is retired.
/// Version 12: a partial result carries no aggregate list — the asking
/// query maps its aggregates onto the slots — and an integer-sum slot
/// travels as its exact 16-byte (`i128`) sum.
/// Version 13: an analyzed query's table is a plain string, without the
/// option tag it had while a `FROM` could hold a subquery.
/// Version 14: `BuildOptions` loses its row-reordering flag; a table that
/// wants §3's clustered rows is sorted before its import.
/// Version 15: frames are never compressed — the header loses its flags
/// byte, and an `Attach` its compression field.
/// Version 16: a query carries no fault directives — `QueryRequest` loses
/// version 3's list and its codec; faults come from a relay in front of a
/// worker, outside the protocol.
/// Version 17: `BuildOptions`' dictionary mode 1 names front-coded string
/// dictionaries, not tries.
/// Version 18: a partial result names the slot each state column holds,
/// so a node cache's table answers every chart whose slots it holds.
/// Version 19: the root is the one node that remembers, so nothing beneath
/// it is told a data version — a node spec loses its cache size and epoch,
/// and a query and an append their epoch.
/// Version 20: a shard report loses its cache flag — a root hit asks no
/// shard, and nothing beneath the root answers from a cache of answers.
/// Version 21: a merge server's `Attach` names it and no scan width — a
/// mixer scans nothing.
pub const FRAME_VERSION: u8 = 21;

/// The fixed 5-byte prelude of every RPC frame:
/// `[version u8][payload length u32 le]`.
///
/// Framing (length cap, reading) lives with the RPC layer; this header
/// only fixes the byte layout, so both sides of any transport — and the
/// property fuzzers — agree on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Payload bytes on the wire.
    pub len: u32,
}

impl FrameHeader {
    pub const BYTES: usize = 5;

    /// Serialize with the current [`FRAME_VERSION`].
    pub fn to_bytes(self) -> [u8; Self::BYTES] {
        let [l0, l1, l2, l3] = self.len.to_le_bytes();
        [FRAME_VERSION, l0, l1, l2, l3]
    }

    /// Parse and validate: a wrong version is a framing error (the stream
    /// cannot be trusted past it), and the *typed*
    /// [`RpcError::VersionMismatch`], so retry policies can refuse to
    /// retry it without string matching.
    pub fn parse(bytes: [u8; Self::BYTES]) -> Result<FrameHeader> {
        let [version, l0, l1, l2, l3] = bytes;
        if version != FRAME_VERSION {
            return Err(Error::Rpc(RpcError::VersionMismatch(format!(
                "wire: frame version {version} (this build speaks {FRAME_VERSION})"
            ))));
        }
        Ok(FrameHeader { len: u32::from_le_bytes([l0, l1, l2, l3]) })
    }
}

/// Serialize `self` by appending bytes to `out`.
pub trait Encode {
    fn encode(&self, out: &mut Vec<u8>);
}

/// Deserialize an instance by consuming bytes from a [`Reader`].
pub trait Decode: Sized {
    fn decode(r: &mut Reader<'_>) -> Result<Self>;
}

/// Encode a value into a fresh byte vector.
pub fn to_bytes<T: Encode + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// Decode a value from `buf`, requiring that *all* bytes are consumed —
/// trailing garbage is as much a framing error as missing bytes.
pub fn from_bytes<T: Decode>(buf: &[u8]) -> Result<T> {
    let mut r = Reader::new(buf);
    let value = T::decode(&mut r)?;
    if r.remaining() != 0 {
        return Err(Error::Data(format!("wire: {} trailing bytes after decode", r.remaining())));
    }
    Ok(value)
}

/// A bounds-checked cursor over an encoded buffer.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consume `n` bytes, or fail if fewer remain (truncated frame).
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(Error::Data(format!(
                "wire: truncated input (need {n} bytes, have {})",
                self.remaining()
            )));
        }
        let end = self.pos + n;
        let slice = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| Error::Internal("wire: reader cursor out of bounds".into()))?;
        self.pos = end;
        Ok(slice)
    }

    /// Validate a decoded element count against the bytes remaining:
    /// every element of a collection occupies at least `min_element_bytes`
    /// bytes, so a count exceeding `remaining / min` proves corruption —
    /// checked *before* any `Vec::with_capacity`, so corrupt lengths can
    /// never drive allocation.
    pub fn check_len(&self, len: u64, min_element_bytes: usize) -> Result<usize> {
        let max = self.remaining() / min_element_bytes.max(1);
        if len > max as u64 {
            return Err(Error::Data(format!(
                "wire: corrupt length {len} (at most {max} elements can remain)"
            )));
        }
        Ok(len as usize)
    }

    pub fn u8(&mut self) -> Result<u8> {
        self.take(1)?
            .first()
            .copied()
            .ok_or_else(|| Error::Internal("wire: take(1) violated its length contract".into()))
    }

    pub fn u32(&mut self) -> Result<u32> {
        match self.take(4)?.try_into() {
            Ok(bytes) => Ok(u32::from_le_bytes(bytes)),
            Err(_) => Err(Error::Internal("wire: take(4) violated its length contract".into())),
        }
    }

    pub fn u64(&mut self) -> Result<u64> {
        match self.take(8)?.try_into() {
            Ok(bytes) => Ok(u64::from_le_bytes(bytes)),
            Err(_) => Err(Error::Internal("wire: take(8) violated its length contract".into())),
        }
    }
}

// --- primitives ------------------------------------------------------------

impl Encode for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
}

impl Decode for u8 {
    fn decode(r: &mut Reader<'_>) -> Result<u8> {
        r.u8()
    }
}

impl Encode for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

impl Decode for u32 {
    fn decode(r: &mut Reader<'_>) -> Result<u32> {
        r.u32()
    }
}

impl Encode for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

impl Decode for u64 {
    fn decode(r: &mut Reader<'_>) -> Result<u64> {
        r.u64()
    }
}

impl Encode for i64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

impl Decode for i64 {
    fn decode(r: &mut Reader<'_>) -> Result<i64> {
        Ok(r.u64()? as i64)
    }
}

impl Encode for i128 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

impl Decode for i128 {
    fn decode(r: &mut Reader<'_>) -> Result<i128> {
        let low = r.u64()?;
        Ok((i128::from(r.u64()? as i64) << 64) | i128::from(low))
    }
}

impl Encode for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
}

impl Decode for usize {
    fn decode(r: &mut Reader<'_>) -> Result<usize> {
        let v = r.u64()?;
        usize::try_from(v).map_err(|_| Error::Data(format!("wire: usize overflow ({v})")))
    }
}

/// Floats travel as raw IEEE-754 bits: NaN payloads, signed zeros and
/// subnormals survive the round trip exactly.
impl Encode for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
}

impl Decode for f64 {
    fn decode(r: &mut Reader<'_>) -> Result<f64> {
        Ok(f64::from_bits(r.u64()?))
    }
}

impl Encode for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
}

impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<bool> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(Error::Data(format!("wire: invalid bool byte {other}"))),
        }
    }
}

impl Encode for str {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
}

impl Encode for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_str().encode(out);
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<String> {
        let len = r.u64()?;
        let len = r.check_len(len, 1)?;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| Error::Data(format!("wire: invalid utf-8 string: {e}")))
    }
}

impl Encode for Duration {
    fn encode(&self, out: &mut Vec<u8>) {
        // Saturating: half a millennium of nanoseconds is enough for a
        // queue-delay report.
        u64::try_from(self.as_nanos()).unwrap_or(u64::MAX).encode(out);
    }
}

impl Decode for Duration {
    fn decode(r: &mut Reader<'_>) -> Result<Duration> {
        Ok(Duration::from_nanos(r.u64()?))
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Option<T>> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            other => Err(Error::Data(format!("wire: invalid option tag {other}"))),
        }
    }
}

impl<T: Encode> Encode for Box<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
}

impl<T: Decode> Decode for Box<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Box<T>> {
        Ok(Box::new(T::decode(r)?))
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        for v in self {
            v.encode(out);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Vec<T>> {
        let len = r.u64()?;
        let len = r.check_len(len, 1)?;
        // Validity only needs ≥ 1 byte per element, but *pre-allocation*
        // is bounded by the bytes actually present: a corrupt length that
        // slips past the floor must never reserve more memory than the
        // frame itself occupies (the Vec grows normally past the hint).
        let mut out = Vec::with_capacity(len.min(r.remaining() / std::mem::size_of::<T>().max(1)));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for Box<[T]> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        for v in self.iter() {
            v.encode(out);
        }
    }
}

impl<T: Decode> Decode for Box<[T]> {
    fn decode(r: &mut Reader<'_>) -> Result<Box<[T]>> {
        Ok(Vec::<T>::decode(r)?.into_boxed_slice())
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut Reader<'_>) -> Result<(A, B)> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

// --- vocabulary types ------------------------------------------------------

const VALUE_NULL: u8 = 0;
const VALUE_INT: u8 = 1;
const VALUE_FLOAT: u8 = 2;
const VALUE_STR: u8 = 3;

impl Encode for Value {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.push(VALUE_NULL),
            Value::Int(v) => {
                out.push(VALUE_INT);
                v.encode(out);
            }
            Value::Float(v) => {
                out.push(VALUE_FLOAT);
                v.encode(out);
            }
            Value::Str(s) => {
                out.push(VALUE_STR);
                s.encode(out);
            }
        }
    }
}

impl Decode for Value {
    fn decode(r: &mut Reader<'_>) -> Result<Value> {
        match r.u8()? {
            VALUE_NULL => Ok(Value::Null),
            VALUE_INT => Ok(Value::Int(i64::decode(r)?)),
            VALUE_FLOAT => Ok(Value::Float(f64::decode(r)?)),
            VALUE_STR => Ok(Value::Str(String::decode(r)?)),
            other => Err(Error::Data(format!("wire: invalid value tag {other}"))),
        }
    }
}

impl Encode for DataType {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            DataType::Int => 0,
            DataType::Float => 1,
            DataType::Str => 2,
        });
    }
}

impl Decode for DataType {
    fn decode(r: &mut Reader<'_>) -> Result<DataType> {
        match r.u8()? {
            0 => Ok(DataType::Int),
            1 => Ok(DataType::Float),
            2 => Ok(DataType::Str),
            other => Err(Error::Data(format!("wire: invalid data-type tag {other}"))),
        }
    }
}

impl Encode for Field {
    fn encode(&self, out: &mut Vec<u8>) {
        self.name.encode(out);
        self.data_type.encode(out);
    }
}

impl Decode for Field {
    fn decode(r: &mut Reader<'_>) -> Result<Field> {
        let name = String::decode(r)?;
        let data_type = DataType::decode(r)?;
        Ok(Field { name, data_type })
    }
}

impl Encode for Schema {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.fields().len() as u64).encode(out);
        for f in self.fields() {
            f.encode(out);
        }
    }
}

impl Decode for Schema {
    fn decode(r: &mut Reader<'_>) -> Result<Schema> {
        // `Schema::new` re-validates (duplicate names), so a corrupt frame
        // cannot smuggle in an inconsistent schema.
        Schema::new(Vec::<Field>::decode(r)?)
    }
}

/// [`RpcError`] crosses the process boundary inside `Response::Fault`
/// frames: `[tag u8][message string]`, stable tags via `RpcError::tag`.
impl Encode for RpcError {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.tag());
        self.message().encode(out);
    }
}

impl Decode for RpcError {
    fn decode(r: &mut Reader<'_>) -> Result<RpcError> {
        let tag = r.u8()?;
        let message = String::decode(r)?;
        RpcError::from_tag(tag, message)
            .ok_or_else(|| Error::Data(format!("wire: invalid rpc-error tag {tag}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_headers_round_trip_and_validate() {
        for len in [0u32, 1, 7_800, u32::MAX] {
            let header = FrameHeader { len };
            assert_eq!(FrameHeader::parse(header.to_bytes()).unwrap(), header);
        }
        // Wrong version: the *typed* mismatch, never retried.
        let mut bytes = FrameHeader { len: 4 }.to_bytes();
        bytes[0] = FRAME_VERSION + 1;
        assert!(matches!(FrameHeader::parse(bytes), Err(Error::Rpc(RpcError::VersionMismatch(_)))));
    }

    fn round_trip<T: Encode + Decode + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = to_bytes(&value);
        let back: T = from_bytes(&bytes).expect("round trip decodes");
        assert_eq!(back, value);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(255u8);
        round_trip(u32::MAX);
        round_trip(u64::MAX);
        round_trip(i64::MIN);
        round_trip(i128::MIN);
        round_trip(i128::from(u64::MAX) - 3);
        round_trip(true);
        round_trip(String::from("héllo wörld"));
        round_trip(Duration::from_nanos(123_456_789));
        round_trip(Some(7u64));
        round_trip(Option::<u64>::None);
        round_trip(vec![1u64, 2, 3]);
        round_trip((String::from("k"), 9u64));
    }

    #[test]
    fn float_bits_survive_exactly() {
        for bits in [
            0u64,
            (-0.0f64).to_bits(),
            f64::NAN.to_bits(),
            f64::NAN.to_bits() | 0xdead, // non-standard NaN payload
            f64::INFINITY.to_bits(),
            f64::NEG_INFINITY.to_bits(),
            5e-324f64.to_bits(), // smallest subnormal
            f64::MAX.to_bits(),
        ] {
            let v = f64::from_bits(bits);
            let back: f64 = from_bytes(&to_bytes(&v)).unwrap();
            assert_eq!(back.to_bits(), bits);
        }
    }

    #[test]
    fn values_round_trip() {
        round_trip(Value::Null);
        round_trip(Value::Int(-42));
        round_trip(Value::Str("ü".into()));
        let v: Value = from_bytes(&to_bytes(&Value::Float(f64::NAN))).unwrap();
        match v {
            Value::Float(f) => assert_eq!(f.to_bits(), f64::NAN.to_bits()),
            other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn schema_and_rows_round_trip() {
        let schema = Schema::of(&[("a", DataType::Int), ("b", DataType::Str)]);
        let back: Schema = from_bytes(&to_bytes(&schema)).unwrap();
        assert_eq!(back.fields(), schema.fields());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let bytes = to_bytes(&vec![String::from("alpha"), String::from("beta")]);
        for cut in 0..bytes.len() {
            let err = from_bytes::<Vec<String>>(&bytes[..cut]);
            assert!(err.is_err(), "truncated at {cut} must fail");
        }
    }

    #[test]
    fn corrupt_lengths_never_allocate() {
        // A vec claiming u64::MAX elements with a 9-byte buffer.
        let mut bytes = Vec::new();
        u64::MAX.encode(&mut bytes);
        bytes.push(1);
        assert!(from_bytes::<Vec<u64>>(&bytes).is_err());
        // A string claiming to be huge.
        let mut bytes = Vec::new();
        (1u64 << 60).encode(&mut bytes);
        assert!(from_bytes::<String>(&bytes).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = to_bytes(&7u64);
        bytes.push(0);
        assert!(from_bytes::<u64>(&bytes).is_err());
    }

    #[test]
    fn invalid_tags_are_errors() {
        assert!(from_bytes::<bool>(&[9]).is_err());
        assert!(from_bytes::<Value>(&[77]).is_err());
        assert!(from_bytes::<Option<u8>>(&[3, 0]).is_err());
        assert!(from_bytes::<DataType>(&[8]).is_err());
        assert!(from_bytes::<RpcError>(&[99, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
    }

    #[test]
    fn rpc_errors_round_trip() {
        for e in [
            RpcError::Deadline("budget spent at mixer".into()),
            RpcError::ConnRefused("l0p.sock".into()),
            RpcError::Decode("torn frame".into()),
            RpcError::VersionMismatch("peer speaks 2".into()),
            RpcError::PeerGone("reset by peer".into()),
        ] {
            round_trip(e);
        }
    }
}
