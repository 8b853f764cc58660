//! The wire protocol: message grammar, handshake codec and typed errors.
//!
//! # Message grammar
//!
//! Every message is length-delimited:
//!
//! ```text
//! type     1 byte    message discriminator (below)
//! len      u32 LE    payload bytes
//! payload  len bytes
//! ```
//!
//! | type | name      | direction       | payload |
//! |------|-----------|-----------------|---------|
//! | 1    | `HELLO`   | client → server | magic `IGMN`, version `u32`, trace codec `u32`, tenant session spec (below) |
//! | 2    | `WELCOME` | server → client | empty: the handshake is accepted |
//! | 3    | `CHUNK`   | client → server | 16-byte span prefix, then one `igm-trace` codec **frame, verbatim** (header + payload) |
//! | 5    | `FIN`     | client → server | records the client sent on this lane, `u64` |
//! | 6    | `FIN_ACK` | server → client | records the server ingested on this lane, `u64` |
//! | 7    | `ERROR`   | server → client | reason string (`u16` len + UTF-8), sent before close on a rejected handshake |
//!
//! Type 4 is unassigned (it carried the retired credit grants of v5); like
//! every other unknown type it is refused from either side.
//!
//! The `HELLO` session spec carries everything [`SessionConfig`] holds, in
//! this order: tenant name (`u16` length + UTF-8), [`LifeguardKind`] (`u8`),
//! synthetic-mode flag, the three accelerator switches of [`AccelConfig`]
//! (LMA, IT, IF; one 0/1 byte each) and premarked regions (`u32` count,
//! then base and length, `u32` each). A server-side session thus
//! reproduces the client's local configuration exactly (the
//! loopback-equivalence guarantee rests on this). The switches carry no
//! sizes or policy: a present unit has the paper's size (the 64-entry
//! M-TLB, the 32-entry filter) and the IT policy comes from the
//! lifeguard's ETCT ([`igm_core::ItConfig::for_etct`]), on the server as
//! in a local session. The only client-sized inputs are the tenant name
//! (at most [`MAX_NAME_BYTES`]) and the premarked regions (at most
//! [`MAX_PREMARK_REGIONS`]). The version must be [`NET_VERSION`] and the
//! trace codec word [`igm_trace::CODEC_ID`], the codec every `CHUNK` frame
//! carries; the server refuses anything else with a typed
//! [`NetError::VersionMismatch`] or [`NetError::UnsupportedCodec`].
//!
//! # Backpressure
//!
//! The socket carries it; the protocol adds none. A full log channel stops
//! the server's lane from reading its socket (the lane retries its staged
//! batch before it polls again), the kernel's receive buffer fills, TCP
//! closes its window, and the client's nonblocking write waits — the
//! paper's full log buffer stalling the application core, stretched across
//! hosts. Server-side user-space buffering per lane stays below one poll's
//! read budget plus one message (at most [`MAX_MESSAGE_BYTES`]).
//!
//! # Span provenance
//!
//! Every `CHUNK` payload opens with a fixed [`SPAN_PREFIX_BYTES`]-byte
//! provenance prefix:
//!
//! ```text
//! flags   u8      bit 0: this frame is span-sampled
//! pad     3 bytes zero
//! flow    u32 LE  origin span flow (igm-span), 0 when unsampled
//! seq     u64 LE  frame sequence number within the flow
//! ```
//!
//! The sampling decision is made **once, at the origin forwarder**; a
//! sampled frame carries its [`FrameTag`] across the
//! wire so the server-side stages (`server_ingest`, `channel_wait`,
//! `dispatch`, …) chain under the same flow/seq as the client-side ones
//! (`client_send`, `credit_stall`) — one causally-joined waterfall per
//! frame.

use igm_core::AccelConfig;
use igm_lifeguards::LifeguardKind;
use igm_runtime::SessionConfig;
use igm_span::FrameTag;
use igm_trace::TraceError;
use std::fmt;
use std::io::{self, Read};
use std::ops::Range;

/// The four magic bytes opening every `HELLO`.
pub const NET_MAGIC: [u8; 4] = *b"IGMN";

/// The protocol version — the only one either side speaks.
pub const NET_VERSION: u32 = 6;

/// Fixed length of the span-provenance prefix opening every `CHUNK`
/// payload (flags `u8`, 3 pad bytes, flow `u32` LE, seq `u64` LE).
pub const SPAN_PREFIX_BYTES: usize = 16;

/// Bytes of message header preceding every payload (`type` u8 + `len`
/// u32 LE).
pub const MSG_HEADER_BYTES: usize = 5;

/// Upper bound accepted for one message payload: the largest legal codec
/// frame plus its frame header and the span prefix. A corrupt length
/// field becomes a typed error instead of an allocation.
pub const MAX_MESSAGE_BYTES: u32 =
    igm_trace::MAX_PAYLOAD_BYTES + igm_trace::FRAME_HEADER_BYTES as u32 + SPAN_PREFIX_BYTES as u32;

/// Message type discriminators.
pub mod msg {
    /// Client handshake (magic, version, tenant session spec).
    pub const HELLO: u8 = 1;
    /// Server handshake acceptance (no payload).
    pub const WELCOME: u8 = 2;
    /// A span prefix, then one codec frame, verbatim.
    pub const CHUNK: u8 = 3;
    /// Clean client shutdown, carrying the record count sent.
    pub const FIN: u8 = 5;
    /// Server acknowledgement of FIN, carrying ingested-record count.
    pub const FIN_ACK: u8 = 6;
    /// Handshake rejection reason; the server closes after sending it.
    pub const ERROR: u8 = 7;
}

/// Longest accepted tenant name in a handshake.
pub const MAX_NAME_BYTES: usize = 256;

/// Most premarked regions accepted in a handshake.
pub const MAX_PREMARK_REGIONS: usize = 65_536;

/// Errors produced by the protocol layer.
#[derive(Debug)]
pub enum NetError {
    /// Underlying socket failure.
    Io(io::Error),
    /// The peer's handshake does not open with [`NET_MAGIC`].
    BadMagic,
    /// The peer speaks a different protocol version.
    VersionMismatch {
        /// The version the peer announced.
        theirs: u32,
    },
    /// The peer's `HELLO` named a trace codec other than
    /// [`igm_trace::CODEC_ID`].
    UnsupportedCodec {
        /// The wire codec identifier the peer announced.
        theirs: u32,
    },
    /// A structurally invalid message (bad length, unknown type,
    /// out-of-range field).
    Malformed(&'static str),
    /// The connection closed at the wrong time (mid-message, before FIN,
    /// during the handshake).
    Disconnected(&'static str),
    /// The server refused the handshake (its `ERROR` reason).
    Rejected(String),
    /// The carried trace frame failed to decode.
    Trace(TraceError),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "igm-net i/o error: {e}"),
            NetError::BadMagic => write!(f, "peer is not an igm-net endpoint (bad magic)"),
            NetError::VersionMismatch { theirs } => {
                write!(f, "peer speaks protocol version {theirs} (this side speaks {NET_VERSION})")
            }
            NetError::UnsupportedCodec { theirs } => {
                let ours = igm_trace::CODEC_ID;
                write!(f, "peer requested trace codec {theirs} (this side speaks codec {ours})")
            }
            NetError::Malformed(reason) => write!(f, "malformed message: {reason}"),
            NetError::Disconnected(when) => write!(f, "connection closed: {when}"),
            NetError::Rejected(reason) => write!(f, "server rejected the session: {reason}"),
            NetError::Trace(e) => write!(f, "carried trace frame invalid: {e}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::Trace(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> NetError {
        NetError::Io(e)
    }
}

impl From<TraceError> for NetError {
    fn from(e: TraceError) -> NetError {
        NetError::Trace(e)
    }
}

/// Maps a protocol failure onto the ingest subsystem's lane-containment
/// error type (`offset` is the connection's consumed-byte position, for
/// the report).
pub(crate) fn lane_error(e: NetError, offset: u64) -> TraceError {
    match e {
        NetError::Io(e) => TraceError::Io(e),
        NetError::Trace(e) => e,
        NetError::BadMagic => {
            TraceError::Corrupt { offset, reason: "peer is not an igm-net endpoint" }
        }
        NetError::VersionMismatch { .. } => {
            TraceError::Corrupt { offset, reason: "peer protocol version changed mid-stream" }
        }
        NetError::UnsupportedCodec { .. } => {
            TraceError::Corrupt { offset, reason: "peer requested an unsupported trace codec" }
        }
        NetError::Malformed(reason) | NetError::Disconnected(reason) => {
            TraceError::Corrupt { offset, reason }
        }
        NetError::Rejected(_) => {
            TraceError::Corrupt { offset, reason: "peer rejected the session" }
        }
    }
}

// ---------------------------------------------------------------------------
// Encoding.
// ---------------------------------------------------------------------------

/// Appends one message header.
pub(crate) fn push_header(out: &mut Vec<u8>, ty: u8, len: usize) {
    out.push(ty);
    out.extend_from_slice(&u32::try_from(len).expect("message fits u32 length").to_le_bytes());
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&u16::try_from(s.len()).expect("string fits u16 length").to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Dense wire code of a [`LifeguardKind`].
fn lifeguard_code(kind: LifeguardKind) -> u8 {
    match kind {
        LifeguardKind::AddrCheck => 0,
        LifeguardKind::MemCheck => 1,
        LifeguardKind::TaintCheck => 2,
        LifeguardKind::TaintCheckDetailed => 3,
        LifeguardKind::LockSet => 4,
    }
}

fn lifeguard_from_code(code: u8) -> Option<LifeguardKind> {
    Some(match code {
        0 => LifeguardKind::AddrCheck,
        1 => LifeguardKind::MemCheck,
        2 => LifeguardKind::TaintCheck,
        3 => LifeguardKind::TaintCheckDetailed,
        4 => LifeguardKind::LockSet,
        _ => return None,
    })
}

/// Encodes a complete `HELLO` message for `session`, under an explicit
/// `version` and wire `codec` identifier (anything but [`NET_VERSION`] /
/// [`igm_trace::CODEC_ID`] is only useful to exercise the server's checks
/// — which is exactly what the protocol tests do).
pub fn hello_message(version: u32, codec: u32, session: &SessionConfig) -> Vec<u8> {
    let mut body = Vec::with_capacity(64 + session.premark.len() * 8);
    body.extend_from_slice(&NET_MAGIC);
    body.extend_from_slice(&version.to_le_bytes());
    body.extend_from_slice(&codec.to_le_bytes());
    push_str(&mut body, &session.name);
    body.push(lifeguard_code(session.lifeguard));
    body.push(session.synthetic_workload as u8);
    body.push(session.accel.lma as u8);
    body.push(session.accel.it as u8);
    body.push(session.accel.idempotent_filter as u8);
    body.extend_from_slice(&(session.premark.len() as u32).to_le_bytes());
    for (base, len) in &session.premark {
        body.extend_from_slice(&base.to_le_bytes());
        body.extend_from_slice(&len.to_le_bytes());
    }
    let mut out = Vec::with_capacity(MSG_HEADER_BYTES + body.len());
    push_header(&mut out, msg::HELLO, body.len());
    out.extend_from_slice(&body);
    out
}

/// The chunk span prefix: all-zero when the frame is unsampled, `flags`
/// bit 0 plus the frame's flow/seq when it carries a tag.
fn span_prefix(tag: Option<FrameTag>) -> [u8; SPAN_PREFIX_BYTES] {
    let mut prefix = [0u8; SPAN_PREFIX_BYTES];
    if let Some(tag) = tag {
        prefix[0] = 1;
        prefix[4..8].copy_from_slice(&tag.flow.to_le_bytes());
        prefix[8..].copy_from_slice(&tag.seq.to_le_bytes());
    }
    prefix
}

/// Bytes of a chunk message ahead of its frame: the message header and
/// the span prefix.
pub(crate) const CHUNK_HEAD_BYTES: usize = MSG_HEADER_BYTES + SPAN_PREFIX_BYTES;

/// Fills the [`CHUNK_HEAD_BYTES`] reserved ahead of a chunk's frame, once
/// the frame is encoded: the header for a `payload_len`-byte payload (span
/// prefix plus frame) and the span prefix.
pub(crate) fn put_chunk_head(head: &mut [u8], payload_len: usize, tag: Option<FrameTag>) {
    let len = u32::try_from(payload_len).expect("message fits u32 length");
    head[0] = msg::CHUNK;
    head[1..MSG_HEADER_BYTES].copy_from_slice(&len.to_le_bytes());
    head[MSG_HEADER_BYTES..CHUNK_HEAD_BYTES].copy_from_slice(&span_prefix(tag));
}

/// Decodes a chunk span prefix (exactly [`SPAN_PREFIX_BYTES`] bytes).
fn decode_span_prefix(bytes: &[u8]) -> Result<Option<FrameTag>, NetError> {
    debug_assert_eq!(bytes.len(), SPAN_PREFIX_BYTES);
    match bytes[0] {
        0 => Ok(None),
        1 => {
            let flow = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
            if flow == 0 {
                // Flow 0 is the "no flow" placeholder — a sampled frame
                // can never carry it.
                return Err(NetError::Malformed("sampled chunk carries the null span flow"));
            }
            let seq = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
            Ok(Some(FrameTag { flow, seq }))
        }
        _ => Err(NetError::Malformed("span prefix flags out of range")),
    }
}

fn u64_message(ty: u8, v: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(MSG_HEADER_BYTES + 8);
    push_header(&mut out, ty, 8);
    out.extend_from_slice(&v.to_le_bytes());
    out
}

/// Encodes a `WELCOME` (no payload).
pub(crate) fn welcome_message() -> Vec<u8> {
    let mut out = Vec::with_capacity(MSG_HEADER_BYTES);
    push_header(&mut out, msg::WELCOME, 0);
    out
}

/// Encodes a `FIN` carrying the client-side sent-record count.
pub(crate) fn fin_message(records: u64) -> Vec<u8> {
    u64_message(msg::FIN, records)
}

/// Encodes a `FIN_ACK` carrying the server-side ingested-record count.
pub(crate) fn fin_ack_message(records: u64) -> Vec<u8> {
    u64_message(msg::FIN_ACK, records)
}

/// Encodes an `ERROR` (handshake rejection).
pub(crate) fn error_message(reason: &str) -> Vec<u8> {
    let reason = &reason[..reason.len().min(512)];
    let mut out = Vec::with_capacity(MSG_HEADER_BYTES + 2 + reason.len());
    push_header(&mut out, msg::ERROR, 2 + reason.len());
    push_str(&mut out, reason);
    out
}

// ---------------------------------------------------------------------------
// Decoding.
// ---------------------------------------------------------------------------

/// Bounds-checked cursor over one message payload.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], NetError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let s = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(NetError::Malformed("message payload ends inside a field")),
        }
    }

    fn u8(&mut self) -> Result<u8, NetError> {
        Ok(self.take(1)?[0])
    }

    fn bool(&mut self) -> Result<bool, NetError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(NetError::Malformed("flag byte out of range")),
        }
    }

    fn u16(&mut self) -> Result<u16, NetError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, NetError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, NetError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn finish(&self) -> Result<(), NetError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(NetError::Malformed("message payload has trailing bytes"))
        }
    }
}

/// Decodes a `HELLO` payload into the tenant's [`SessionConfig`],
/// enforcing magic, version ([`NET_VERSION`]) and codec
/// ([`igm_trace::CODEC_ID`]) first.
pub fn decode_hello(payload: &[u8]) -> Result<SessionConfig, NetError> {
    let mut r = Reader { bytes: payload, pos: 0 };
    if r.take(4)? != NET_MAGIC {
        return Err(NetError::BadMagic);
    }
    let version = r.u32()?;
    if version != NET_VERSION {
        return Err(NetError::VersionMismatch { theirs: version });
    }
    let codec = r.u32()?;
    if codec != igm_trace::CODEC_ID {
        return Err(NetError::UnsupportedCodec { theirs: codec });
    }
    let name_len = r.u16()? as usize;
    if name_len > MAX_NAME_BYTES {
        return Err(NetError::Malformed("tenant name exceeds the protocol bound"));
    }
    let name = std::str::from_utf8(r.take(name_len)?)
        .map_err(|_| NetError::Malformed("tenant name is not UTF-8"))?
        .to_owned();
    let lifeguard =
        lifeguard_from_code(r.u8()?).ok_or(NetError::Malformed("lifeguard kind out of range"))?;
    let synthetic = r.bool()?;
    let accel = AccelConfig { lma: r.bool()?, it: r.bool()?, idempotent_filter: r.bool()? };
    let regions = r.u32()? as usize;
    if regions > MAX_PREMARK_REGIONS {
        return Err(NetError::Malformed("premark region count exceeds the protocol bound"));
    }
    let mut premark = Vec::with_capacity(regions);
    for _ in 0..regions {
        premark.push((r.u32()?, r.u32()?));
    }
    r.finish()?;
    let mut cfg = SessionConfig::new(name, lifeguard).accel(accel);
    cfg.synthetic_workload = synthetic;
    cfg.premark = premark;
    Ok(cfg)
}

fn decode_u64(payload: &[u8]) -> Result<u64, NetError> {
    let mut r = Reader { bytes: payload, pos: 0 };
    let v = r.u64()?;
    r.finish()?;
    Ok(v)
}

/// Decodes an `ERROR` payload (the rejection reason).
fn decode_error(payload: &[u8]) -> Result<String, NetError> {
    let mut r = Reader { bytes: payload, pos: 0 };
    let len = r.u16()? as usize;
    let reason = String::from_utf8_lossy(r.take(len)?).into_owned();
    r.finish()?;
    Ok(reason)
}

/// One decoded message. Each endpoint refuses the variants that may not
/// reach it.
#[derive(Debug)]
pub(crate) enum Message<'a> {
    Hello(SessionConfig),
    Welcome,
    /// The span prefix's tag and the verbatim codec frame behind it.
    Chunk {
        tag: Option<FrameTag>,
        frame: &'a [u8],
    },
    Fin {
        records: u64,
    },
    FinAck {
        records: u64,
    },
    Error(String),
}

/// Decodes one message peeked by [`MsgBuf::peek_message`]: its type and
/// payload. An unknown type (the retired `CREDIT` 4 included) is
/// [`NetError::Malformed`].
pub(crate) fn decode_message(ty: u8, payload: &[u8]) -> Result<Message<'_>, NetError> {
    Ok(match ty {
        msg::HELLO => Message::Hello(decode_hello(payload)?),
        msg::WELCOME if payload.is_empty() => Message::Welcome,
        msg::WELCOME => return Err(NetError::Malformed("WELCOME carries a payload")),
        msg::CHUNK => {
            if payload.len() < SPAN_PREFIX_BYTES {
                return Err(NetError::Malformed("chunk shorter than the span prefix"));
            }
            let (prefix, frame) = payload.split_at(SPAN_PREFIX_BYTES);
            Message::Chunk { tag: decode_span_prefix(prefix)?, frame }
        }
        msg::FIN => Message::Fin { records: decode_u64(payload)? },
        msg::FIN_ACK => Message::FinAck { records: decode_u64(payload)? },
        msg::ERROR => Message::Error(decode_error(payload)?),
        _ => return Err(NetError::Malformed("unknown message type")),
    })
}

// ---------------------------------------------------------------------------
// The shared nonblocking message buffer.
// ---------------------------------------------------------------------------

/// What one [`MsgBuf::fill_from`] accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fill {
    /// At least one byte arrived.
    Bytes(usize),
    /// Nothing available right now (nonblocking socket).
    WouldBlock,
    /// The peer closed its write side.
    Eof,
}

/// The nonblocking message reassembly buffer both endpoints share: bytes
/// are pulled off the socket as they arrive, complete messages are peeked
/// and consumed in order, and partial messages wait for the next fill
/// ([`Fill`] says whether bytes arrived, none are ready yet, or the peer
/// closed).
#[derive(Debug, Default)]
pub(crate) struct MsgBuf {
    buf: Vec<u8>,
    start: usize,
    /// Stream position of `buf[start]` (consumed bytes), for error
    /// reporting.
    consumed: u64,
}

impl MsgBuf {
    pub fn new() -> MsgBuf {
        MsgBuf::default()
    }

    /// Stream offset of the next unconsumed byte.
    pub fn stream_pos(&self) -> u64 {
        self.consumed
    }

    /// Whether unconsumed (complete or partial) bytes are buffered.
    pub fn has_buffered(&self) -> bool {
        self.start < self.buf.len()
    }

    /// Reads up to `max` bytes from `r` (nonblocking) into the buffer.
    pub fn fill_from(&mut self, r: &mut impl Read, max: usize) -> io::Result<Fill> {
        self.compact();
        let mut tmp = [0u8; 16 * 1024];
        let mut total = 0usize;
        while total < max {
            let want = tmp.len().min(max - total);
            match r.read(&mut tmp[..want]) {
                Ok(0) => return Ok(if total > 0 { Fill::Bytes(total) } else { Fill::Eof }),
                Ok(n) => {
                    self.buf.extend_from_slice(&tmp[..n]);
                    total += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    return Ok(if total > 0 { Fill::Bytes(total) } else { Fill::WouldBlock })
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(Fill::Bytes(total))
    }

    /// If a complete message is buffered, returns its type and payload
    /// range (pass the range to [`MsgBuf::bytes`], then its `end` to
    /// [`MsgBuf::consume`]).
    pub fn peek_message(&self) -> Result<Option<(u8, Range<usize>)>, NetError> {
        let avail = &self.buf[self.start..];
        if avail.len() < MSG_HEADER_BYTES {
            return Ok(None);
        }
        let ty = avail[0];
        let len = u32::from_le_bytes(avail[1..MSG_HEADER_BYTES].try_into().unwrap());
        if len > MAX_MESSAGE_BYTES {
            return Err(NetError::Malformed("message length exceeds the protocol bound"));
        }
        if avail.len() < MSG_HEADER_BYTES + len as usize {
            return Ok(None);
        }
        let at = self.start + MSG_HEADER_BYTES;
        Ok(Some((ty, at..at + len as usize)))
    }

    /// The bytes of a range returned by [`MsgBuf::peek_message`].
    pub fn bytes(&self, range: Range<usize>) -> &[u8] {
        &self.buf[range]
    }

    /// Marks everything up to `end` (a peeked message's payload end) as
    /// consumed.
    pub fn consume(&mut self, end: usize) {
        debug_assert!(end >= self.start && end <= self.buf.len());
        self.consumed += (end - self.start) as u64;
        self.start = end;
    }

    /// Reclaims the consumed prefix. An empty buffer resets for free; a
    /// consumed prefix past [`COMPACT_THRESHOLD_BYTES`] is shifted out
    /// (one memmove), so a long-lived connection's buffer stays bounded
    /// by the partial tail plus the threshold instead of growing with
    /// total bytes received.
    fn compact(&mut self) {
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start >= COMPACT_THRESHOLD_BYTES {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

/// Consumed-prefix length past which [`MsgBuf::compact`] memmoves the
/// tail instead of waiting for an exactly-empty buffer.
const COMPACT_THRESHOLD_BYTES: usize = 16 * 1024;

#[cfg(test)]
mod tests {
    use super::*;
    use igm_trace::CODEC_ID;

    #[test]
    fn hello_round_trips_every_field() {
        // All eight combinations of the three accelerator switches.
        for bits in 0..8u8 {
            let accel = AccelConfig {
                lma: bits & 1 != 0,
                it: bits & 2 != 0,
                idempotent_filter: bits & 4 != 0,
            };
            let mut cfg = SessionConfig::new("tenant-a", LifeguardKind::TaintCheck)
                .accel(accel)
                .premark(&[(0x1000, 0x40), (0x9000, 0x2000)]);
            cfg.synthetic_workload = true;
            let hello = hello_message(NET_VERSION, CODEC_ID, &cfg);
            assert_eq!(hello[0], msg::HELLO);
            let len = u32::from_le_bytes(hello[1..5].try_into().unwrap()) as usize;
            assert_eq!(hello.len(), MSG_HEADER_BYTES + len);
            let decoded = decode_hello(&hello[MSG_HEADER_BYTES..]).unwrap();
            assert_eq!(decoded.name, cfg.name);
            assert_eq!(decoded.lifeguard, cfg.lifeguard);
            assert_eq!(decoded.accel, cfg.accel);
            assert_eq!(decoded.synthetic_workload, cfg.synthetic_workload);
            assert_eq!(decoded.premark, cfg.premark);
        }
    }

    #[test]
    fn span_prefix_round_trips_sampled_and_unsampled() {
        assert_eq!(decode_span_prefix(&span_prefix(None)).unwrap(), None);

        let tag = FrameTag { flow: 0xDEAD_BEEF, seq: u64::MAX - 7 };
        let out = span_prefix(Some(tag));
        assert_eq!(decode_span_prefix(&out).unwrap(), Some(tag));

        // Hostile prefixes: bad flags, sampled bit with the null flow.
        let mut bad = out;
        bad[0] = 2;
        assert!(matches!(decode_span_prefix(&bad), Err(NetError::Malformed(_))));
        let mut null_flow = out;
        null_flow[4..8].fill(0);
        assert!(matches!(decode_span_prefix(&null_flow), Err(NetError::Malformed(_))));
    }

    #[test]
    fn hello_version_and_magic_are_enforced() {
        let cfg = SessionConfig::new("t", LifeguardKind::AddrCheck);
        // Every version but the current one is refused, the retired v2 to
        // v5 included, and the refusal names what this side speaks.
        for bad in [1, 2, 3, 4, 5, NET_VERSION + 1, 99] {
            let hello = hello_message(bad, CODEC_ID, &cfg);
            match decode_hello(&hello[MSG_HEADER_BYTES..]) {
                Err(e @ NetError::VersionMismatch { theirs }) => {
                    assert_eq!(theirs, bad);
                    assert!(e.to_string().contains("speaks 6"), "{e}");
                }
                other => panic!("version {bad}: expected mismatch, got {other:?}"),
            }
        }
        let mut bad = hello_message(NET_VERSION, CODEC_ID, &cfg);
        bad[MSG_HEADER_BYTES] = b'X';
        assert!(matches!(decode_hello(&bad[MSG_HEADER_BYTES..]), Err(NetError::BadMagic)));
    }

    #[test]
    fn hello_negotiates_the_compat_version_range() {
        let cfg = SessionConfig::new("peer", LifeguardKind::AddrCheck);
        // The admitted range is the single version NET_VERSION.
        let hello = hello_message(NET_VERSION, CODEC_ID, &cfg);
        assert_eq!(decode_hello(&hello[MSG_HEADER_BYTES..]).unwrap().name, "peer");
        // Its neighbours on both sides are refused (below it v5, which also
        // granted credit), and the refusal names the peer's version.
        for bad in [5, NET_VERSION + 1] {
            let hello = hello_message(bad, CODEC_ID, &cfg);
            match decode_hello(&hello[MSG_HEADER_BYTES..]) {
                Err(e @ NetError::VersionMismatch { theirs }) => {
                    assert_eq!(theirs, bad);
                    assert!(e.to_string().contains(&format!("protocol version {bad}")), "{e}");
                }
                other => panic!("version {bad}: expected mismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn hello_rejects_an_unknown_trace_codec() {
        let cfg = SessionConfig::new("t", LifeguardKind::AddrCheck);
        // The retired delta codec 1 and codec 2 (FNV-1a-32 frame
        // checksums) are as unknown as any other id, and the refusal
        // names both sides' codecs.
        for bad in [0, 1, 2, 7] {
            let hello = hello_message(NET_VERSION, bad, &cfg);
            match decode_hello(&hello[MSG_HEADER_BYTES..]) {
                Err(e @ NetError::UnsupportedCodec { theirs }) => {
                    assert_eq!(theirs, bad);
                    let text = e.to_string();
                    assert!(text.contains(&format!("codec {bad} ")), "{text}");
                    assert!(text.contains("speaks codec 3"), "{text}");
                }
                other => panic!("codec {bad}: expected unsupported codec, got {other:?}"),
            }
        }
    }

    /// Splits one whole encoded message into its type and payload.
    fn decode(message: &[u8]) -> Result<Message<'_>, NetError> {
        decode_message(message[0], &message[MSG_HEADER_BYTES..])
    }

    #[test]
    fn control_messages_round_trip() {
        let w = welcome_message();
        assert_eq!(w.len(), MSG_HEADER_BYTES);
        assert!(matches!(decode(&w), Ok(Message::Welcome)));
        assert!(matches!(decode(&fin_message(4096)), Ok(Message::Fin { records: 4096 })));
        assert!(matches!(decode(&fin_ack_message(4095)), Ok(Message::FinAck { records: 4095 })));
        match decode(&error_message("nope")) {
            Ok(Message::Error(reason)) => assert_eq!(reason, "nope"),
            other => panic!("expected an ERROR, got {other:?}"),
        }
    }

    #[test]
    fn a_welcome_with_a_payload_is_malformed() {
        let mut w = Vec::new();
        push_header(&mut w, msg::WELCOME, 8);
        w.extend_from_slice(&4096u64.to_le_bytes());
        assert!(matches!(decode(&w), Err(NetError::Malformed("WELCOME carries a payload"))));
    }

    #[test]
    fn a_type_4_message_is_refused() {
        // Type 4 was v5's CREDIT grant: a u64 of bytes.
        let credit = u64_message(4, 4096);
        assert!(matches!(decode(&credit), Err(NetError::Malformed("unknown message type"))));
    }

    /// One valid instance of every v6 message.
    fn every_message() -> Vec<Vec<u8>> {
        let cfg = SessionConfig::new("tenant", LifeguardKind::MemCheck)
            .accel(AccelConfig::full())
            .premark(&[(0x1000, 0x40), (0x9000, 0x2000)]);
        let mut chunk = vec![0u8; CHUNK_HEAD_BYTES];
        chunk.extend_from_slice(&[0xA5; 8]);
        let tag = Some(FrameTag { flow: 9, seq: 3 });
        put_chunk_head(&mut chunk[..CHUNK_HEAD_BYTES], SPAN_PREFIX_BYTES + 8, tag);
        vec![
            hello_message(NET_VERSION, CODEC_ID, &cfg),
            welcome_message(),
            chunk,
            fin_message(4096),
            fin_ack_message(4096),
            error_message("tenant quota exceeded"),
        ]
    }

    /// Reassembles `bytes` and decodes the whole message they hold, if
    /// any: whether one was there.
    fn read(bytes: &[u8]) -> Result<bool, NetError> {
        let mut buf = MsgBuf::new();
        buf.fill_from(&mut &bytes[..], usize::MAX).unwrap();
        match buf.peek_message()? {
            Some((ty, range)) => decode_message(ty, buf.bytes(range)).map(|_| true),
            None => Ok(false),
        }
    }

    #[test]
    fn every_flip_and_truncation_decodes_or_is_a_typed_error() {
        // Each decoder reached through `peek_message` either accepts a
        // damaged message or refuses it with a NetError; a panic fails the
        // test. Every strict prefix is an incomplete message.
        let mut cases = 0;
        for message in every_message() {
            assert!(read(&message).unwrap(), "the undamaged message decodes");
            for i in 0..message.len() {
                for mask in [0x01, 0x80, 0xFF] {
                    let mut bad = message.clone();
                    bad[i] ^= mask;
                    let _ = read(&bad);
                    cases += 1;
                }
                assert!(!read(&message[..i]).unwrap(), "a {i}-byte prefix is incomplete");
                cases += 1;
            }
        }
        assert!(cases > 500, "{cases} damaged messages");
    }

    #[test]
    fn msgbuf_stays_bounded_on_a_long_stream_with_partial_tails() {
        // Feed 10k messages such that a partial tail is buffered at every
        // fill (so the exact-empty reset never fires): the consumed
        // prefix must be compacted away instead of growing forever.
        let msg = fin_ack_message(7);
        let k = 10_000usize;
        let mut stream = Vec::with_capacity(k * msg.len());
        for _ in 0..k {
            stream.extend_from_slice(&msg);
        }
        let mut buf = MsgBuf::new();
        let mut fed = 0usize;
        let mut consumed = 0usize;
        while fed < stream.len() {
            let end = (fed + msg.len() + 1).min(stream.len());
            let mut r = &stream[fed..end];
            let _ = buf.fill_from(&mut r, usize::MAX).unwrap();
            fed = end;
            while let Some((_, range)) = buf.peek_message().unwrap() {
                buf.consume(range.end);
                consumed += 1;
            }
            assert!(
                buf.buf.len() <= COMPACT_THRESHOLD_BYTES + 2 * (msg.len() + 1),
                "buffer grew past the compaction bound: {} bytes",
                buf.buf.len()
            );
        }
        assert_eq!(consumed, k);
        assert_eq!(buf.stream_pos(), stream.len() as u64);
    }

    #[test]
    fn hello_rejects_a_switch_byte_out_of_range() {
        let cfg = SessionConfig::new("t", LifeguardKind::TaintCheck).accel(AccelConfig::full());
        let hello = hello_message(NET_VERSION, CODEC_ID, &cfg);
        // With no premarked regions the three switch bytes sit just before
        // the `u32` region count that ends the payload.
        let switches = hello.len() - 4 - 3;
        assert_eq!(hello[switches..switches + 3], [1, 1, 1]);
        for i in switches..switches + 3 {
            let mut bad = hello.clone();
            bad[i] = 2;
            assert!(
                matches!(decode_hello(&bad[MSG_HEADER_BYTES..]), Err(NetError::Malformed(_))),
                "switch byte {} of 2 must be refused",
                i - switches
            );
        }
    }

    #[test]
    fn msgbuf_reassembles_split_messages() {
        let mut buf = MsgBuf::new();
        let msg1 = fin_ack_message(1);
        let msg2 = fin_ack_message(2);
        let mut bytes = msg1.clone();
        bytes.extend_from_slice(&msg2);
        // Feed in awkward splits.
        for piece in bytes.chunks(3) {
            let mut r = piece;
            let _ = buf.fill_from(&mut r, usize::MAX).unwrap();
        }
        let (ty, range) = buf.peek_message().unwrap().unwrap();
        assert_eq!(ty, msg::FIN_ACK);
        assert!(matches!(
            decode_message(ty, buf.bytes(range.clone())),
            Ok(Message::FinAck { records: 1 })
        ));
        buf.consume(range.end);
        let (ty, range) = buf.peek_message().unwrap().unwrap();
        assert!(matches!(
            decode_message(ty, buf.bytes(range.clone())),
            Ok(Message::FinAck { records: 2 })
        ));
        buf.consume(range.end);
        assert!(buf.peek_message().unwrap().is_none());
        assert!(!buf.has_buffered());
        assert_eq!(buf.stream_pos(), bytes.len() as u64);
    }
}
