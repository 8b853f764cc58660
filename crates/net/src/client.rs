//! The client side: [`TraceForwarder`] ships a live record stream or a
//! recorded trace stream to a remote [`IngestServer`](crate::IngestServer)
//! over a nonblocking socket whose writes wait while the server's TCP
//! receive window is shut. It speaks one protocol version
//! ([`NET_VERSION`]) and one trace codec ([`CODEC_ID`]); a server that
//! refuses either surfaces as [`NetError::Rejected`].

use crate::wire::{
    self, Fill, Message, MsgBuf, NetError, CHUNK_HEAD_BYTES, NET_VERSION, SPAN_PREFIX_BYTES,
};
use igm_isa::TraceEntry;
use igm_lba::{chunks, TraceBatch};
use igm_obs::{Histogram, MetricsRegistry};
use igm_runtime::SessionConfig;
use igm_span::{alloc_flow, FlightRecorder, FrameTag, Sampler, Stage, Track};
use igm_trace::{encode_frame_with, CodecMetrics, Predictors, CODEC_ID, MAX_FRAME_RECORDS};
use std::io::{self, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client-side transport parameters.
#[derive(Debug, Clone)]
pub struct ForwarderConfig {
    /// Records are chunked at this many compressed-model bytes per frame
    /// (one wire chunk per frame). Matches the pool's default transport
    /// chunk so a forwarded stream reproduces a local session's batch
    /// boundaries — which is what makes the loopback-equivalence guarantee
    /// exact.
    pub chunk_bytes: u32,
}

impl Default for ForwarderConfig {
    fn default() -> ForwarderConfig {
        ForwarderConfig {
            // Inherit the pool's transport default so the two can never
            // silently diverge (the batch-boundary equivalence guarantee
            // depends on them matching).
            chunk_bytes: igm_runtime::PoolConfig::default().chunk_bytes,
        }
    }
}

/// How long to wait for the server's handshake reply (and for the final
/// `FIN_ACK`).
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// Counters a forwarder accumulates (the client-side analogue of the
/// ingest lane's [`LaneStats`](igm_trace::LaneStats)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForwarderStats {
    /// Chunk messages sent.
    pub chunks: u64,
    /// Records encoded into them.
    pub records: u64,
    /// Chunk payload bytes sent (span prefix plus frame).
    pub frame_bytes: u64,
    /// Chunk messages whose write found the server's TCP receive window
    /// shut (the byte credit the receiver grants) and had to wait — the
    /// remote analogue of the SPSC channel's producer stalls: each one
    /// means the server-side log channel (and behind it, a lifeguard) was
    /// the bottleneck.
    ///
    /// A lower bound on how often the receiver held the producer back: a
    /// write can also end because the kernel grew the send buffer
    /// (autotuning, up to `tcp_wmem`'s maximum) while the receiver still
    /// read nothing, and the chunks that fit into the grown buffer count
    /// no stall although the window stays shut.
    pub credit_stalls: u64,
    /// Wall-clock nanoseconds those writes waited. Each write counts only
    /// its own wait, which ends when the kernel takes the bytes — read by
    /// the receiver or released by send-buffer autotuning — so this
    /// undercounts how long the receiver held the producer back while
    /// autotuning still has room.
    pub credit_stall_nanos: u64,
}

/// What a finished forwarding session produced.
#[derive(Debug, Clone, Copy)]
pub struct ForwarderReport {
    /// Client-side counters.
    pub stats: ForwarderStats,
    /// Records the server acknowledged ingesting (`FIN_ACK`). Equal to
    /// `stats.records` on a healthy lane.
    pub server_records: u64,
}

/// A connection streaming one tenant's records to a remote ingest server.
///
/// The forwarder encodes every batch as a standard `igm-trace` codec
/// frame (the same bytes a [`CaptureSession`](igm_trace::CaptureSession)
/// would write) and ships it inside a chunk message; when the server's
/// receive window is shut the send *stalls* — counted in
/// [`ForwarderStats::credit_stalls`] — until the pool drains and the
/// server reads again. Sources are live record iterators
/// ([`TraceForwarder::stream`]) or pre-batched chunks
/// ([`TraceForwarder::send_batch`]); a recorded trace is forwarded
/// frame for frame by sending each batch its reader decodes.
pub struct TraceForwarder {
    stream: TcpStream,
    inbuf: MsgBuf,
    /// Set once the server's `WELCOME` arrives.
    welcomed: bool,
    chunk_bytes: u32,
    frame: Vec<u8>,
    stats: ForwarderStats,
    /// Set once the server's `FIN_ACK` arrives.
    fin_ack: Option<u64>,
    /// `igm_net_credit_stall_nanos` when a registry is attached
    /// ([`TraceForwarder::attach_metrics`]); disabled otherwise — the
    /// stall duration is already measured for [`ForwarderStats`], so the
    /// histogram adds no clock reads of its own.
    stall_hist: Histogram,
    /// Encoder predictor tables, persistent across frames (each frame
    /// still resets them — holding the allocation is what matters).
    predictors: Box<Predictors>,
    /// Codec byte counters / encode-latency histogram, bound by
    /// [`TraceForwarder::attach_metrics`].
    codec_metrics: CodecMetrics,
    /// Span origin state, bound by [`TraceForwarder::attach_spans`].
    spans: Option<ClientSpans>,
}

/// The forwarder's span-origin state: this lane's flow, its claimed
/// recorder ring, and the sampler that decides — once per chunk, at the
/// origin — whether a frame's journey is recorded.
struct ClientSpans {
    rec: Arc<FlightRecorder>,
    ring: usize,
    flow: u32,
    sampler: Sampler,
    /// Frame sequence number within the flow: one per chunk, sampled or
    /// not, so a waterfall's seq gaps reveal the sampling rate.
    next_seq: u64,
}

impl ClientSpans {
    fn tag_chunk(&mut self) -> Option<FrameTag> {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.sampler.sample().then_some(FrameTag { flow: self.flow, seq })
    }
}

impl TraceForwarder {
    /// Connects and performs the handshake under default transport
    /// parameters: `session` describes the tenant exactly as a local
    /// [`MonitorPool::open_session`](igm_runtime::MonitorPool::open_session)
    /// call would.
    pub fn connect(
        addr: impl ToSocketAddrs,
        session: &SessionConfig,
    ) -> Result<TraceForwarder, NetError> {
        TraceForwarder::connect_with(addr, session, ForwarderConfig::default())
    }

    /// Connects with explicit transport parameters, speaking
    /// [`NET_VERSION`]. A server that refuses the handshake surfaces as
    /// [`NetError::Rejected`] carrying its `ERROR` reason.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        session: &SessionConfig,
        cfg: ForwarderConfig,
    ) -> Result<TraceForwarder, NetError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let mut fwd = TraceForwarder {
            stream,
            inbuf: MsgBuf::new(),
            welcomed: false,
            chunk_bytes: cfg.chunk_bytes,
            frame: Vec::new(),
            stats: ForwarderStats::default(),
            fin_ack: None,
            stall_hist: Histogram::disabled(),
            predictors: Box::new(Predictors::new()),
            codec_metrics: CodecMetrics::detached(),
            spans: None,
        };
        let hello = wire::hello_message(NET_VERSION, CODEC_ID, session);
        fwd.push_bytes(&hello)?;
        let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
        while !fwd.welcomed {
            if !fwd.harvest()? && Instant::now() >= deadline {
                return Err(NetError::Io(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "timed out waiting for the server handshake",
                )));
            }
            if !fwd.welcomed {
                std::thread::sleep(Duration::from_micros(100));
            }
        }
        Ok(fwd)
    }

    /// Publishes this forwarder's credit-stall durations (waits for the
    /// server's TCP receive window) to `registry` as the
    /// `igm_net_credit_stall_nanos` histogram (e.g. the co-located
    /// pool's registry in a loopback deployment, or a client-side registry
    /// served by its own [`StatsServer`](igm_obs::StatsServer)), together
    /// with the `igm_codec_*` byte counters and encode-latency histogram.
    pub fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        self.stall_hist = registry.histogram(
            "igm_net_credit_stall_nanos",
            "Wall-clock wait for the server's TCP receive window, per stalled chunk",
        );
        self.codec_metrics = CodecMetrics::register(registry);
    }

    /// Makes this forwarder a span origin on `recorder` (e.g. the pool's
    /// own recorder in a loopback deployment, or a client-side recorder
    /// served by the client's [`StatsServer`](igm_obs::StatsServer)):
    /// every chunk gets a frame sequence number under a freshly allocated
    /// flow, the recorder's sampler decides once per chunk whether the
    /// frame's journey is recorded, and sampled chunks stamp
    /// `client_send` / `credit_stall` stages on [`Track::Client`] while
    /// carrying their tag across the wire for the server-side stages to
    /// chain under.
    pub fn attach_spans(&mut self, recorder: &Arc<FlightRecorder>) {
        self.spans = Some(ClientSpans {
            rec: Arc::clone(recorder),
            ring: recorder.ring_handle(),
            flow: alloc_flow(),
            sampler: recorder.sampler(),
            next_seq: 0,
        });
    }

    /// Client-side counters so far.
    pub fn stats(&self) -> ForwarderStats {
        self.stats
    }

    /// The chunking granularity ([`ForwarderConfig::chunk_bytes`]).
    pub fn chunk_bytes(&self) -> u32 {
        self.chunk_bytes
    }

    /// Sends one pre-batched chunk as one frame, waiting while the
    /// server's receive window is shut. An empty batch sends nothing; a
    /// batch of more than [`MAX_FRAME_RECORDS`] records is refused before
    /// it is encoded (`InvalidInput`).
    pub fn send_batch(&mut self, batch: &TraceBatch) -> Result<(), NetError> {
        if batch.is_empty() {
            return Ok(());
        }
        if batch.len() > MAX_FRAME_RECORDS as usize {
            return Err(NetError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                "batch exceeds the per-frame record bound",
            )));
        }
        let tag = self.spans.as_mut().and_then(ClientSpans::tag_chunk);
        // `client_send` opens before the encode and closes when the last
        // byte hits the socket, so a credit stall (the write waiting for
        // the receive window) nests inside it — the waterfall shows where
        // the send window went.
        let send_start = match (&self.spans, tag) {
            (Some(s), Some(_)) => Some(s.rec.now()),
            _ => None,
        };
        // The whole chunk message is built in the one reused buffer: the
        // frame is encoded behind room for the message header and span
        // prefix, which are filled in once its length is known, and the
        // message leaves in one write.
        self.frame.clear();
        self.frame.resize(CHUNK_HEAD_BYTES, 0);
        let started = self.codec_metrics.start_encode();
        encode_frame_with(&mut self.predictors, &mut self.frame, batch);
        self.codec_metrics.stop_encode(started);
        let frame_len = self.frame.len() - CHUNK_HEAD_BYTES;
        self.codec_metrics.count_frame(batch.len() as u64, frame_len as u64);
        let payload_len = frame_len + SPAN_PREFIX_BYTES;
        wire::put_chunk_head(&mut self.frame[..CHUNK_HEAD_BYTES], payload_len, tag);
        let message = std::mem::take(&mut self.frame);
        let r = self.push_bytes(&message);
        self.frame = message;
        if let Some(start) = r? {
            let stalled = start.elapsed().as_nanos() as u64;
            self.stats.credit_stalls += 1;
            self.stats.credit_stall_nanos += stalled;
            self.stall_hist.record(stalled);
            if let (Some(s), Some(tag)) = (&self.spans, tag) {
                let (track, t0) = (Track::Client(s.flow), s.rec.stamp(start));
                s.rec.record(s.ring, Stage::CreditStall, track, tag, t0, s.rec.now());
            }
        }
        if let (Some(s), Some(tag), Some(t0)) = (&self.spans, tag, send_start) {
            s.rec.record(s.ring, Stage::ClientSend, Track::Client(s.flow), tag, t0, s.rec.now());
        }
        self.stats.chunks += 1;
        self.stats.records += batch.len() as u64;
        self.stats.frame_bytes += payload_len as u64;
        Ok(())
    }

    /// Streams a whole record iterator, chunked at
    /// [`TraceForwarder::chunk_bytes`] — the remote twin of
    /// [`SessionHandle::stream`](igm_runtime::SessionHandle::stream).
    pub fn stream(&mut self, trace: impl IntoIterator<Item = TraceEntry>) -> Result<(), NetError> {
        let mut chunker = chunks(trace, self.chunk_bytes);
        let mut batch = TraceBatch::new();
        while chunker.next_into_batch(&mut batch) {
            self.send_batch(&batch)?;
        }
        Ok(())
    }

    /// Clean shutdown: sends `FIN` with the record count sent, waits for
    /// the server's `FIN_ACK`, and reports both sides' counts. The wait
    /// covers the server draining what the socket buffers still hold
    /// ahead of the `FIN`.
    pub fn finish(mut self) -> Result<ForwarderReport, NetError> {
        self.push_bytes(&wire::fin_message(self.stats.records))?;
        let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
        loop {
            if let Some(records) = self.fin_ack {
                return Ok(ForwarderReport { stats: self.stats, server_records: records });
            }
            match self.harvest() {
                Ok(true) => {}
                Ok(false) => {
                    if Instant::now() >= deadline {
                        return Err(NetError::Io(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "timed out waiting for FIN_ACK",
                        )));
                    }
                    std::thread::sleep(Duration::from_micros(100));
                }
                // The server may close the socket right after flushing the
                // FIN_ACK; if the ack landed in the same harvest that saw
                // the EOF, the shutdown was clean — only fail when the
                // connection died *without* acknowledging.
                Err(e) => {
                    if let Some(records) = self.fin_ack {
                        return Ok(ForwarderReport { stats: self.stats, server_records: records });
                    }
                    return Err(e);
                }
            }
        }
    }

    /// Drains whatever server messages are available without blocking.
    /// Returns whether anything was processed.
    fn harvest(&mut self) -> Result<bool, NetError> {
        let mut processed = false;
        loop {
            while let Some((ty, range)) = self.inbuf.peek_message()? {
                let payload_end = range.end;
                match wire::decode_message(ty, self.inbuf.bytes(range))? {
                    Message::Welcome => self.welcomed = true,
                    Message::FinAck { records } => self.fin_ack = Some(records),
                    Message::Error(reason) => return Err(NetError::Rejected(reason)),
                    _ => return Err(NetError::Malformed("unexpected message type from server")),
                }
                self.inbuf.consume(payload_end);
                processed = true;
            }
            match self.inbuf.fill_from(&mut self.stream, 16 * 1024)? {
                Fill::Bytes(_) => continue,
                Fill::WouldBlock => return Ok(processed),
                Fill::Eof => {
                    return Err(NetError::Disconnected(if self.inbuf.has_buffered() {
                        "server closed mid-message"
                    } else {
                        "server closed the connection"
                    }))
                }
            }
        }
    }

    /// Writes all of `bytes` on the nonblocking socket. While the send
    /// buffer is full (the server's receive window is shut) it harvests
    /// server messages, so a server that closed or sent `ERROR` still
    /// surfaces, and returns when the write first had to wait.
    fn push_bytes(&mut self, bytes: &[u8]) -> Result<Option<Instant>, NetError> {
        let mut sent = 0usize;
        let mut blocked_since = None;
        while sent < bytes.len() {
            match self.stream.write(&bytes[sent..]) {
                Ok(0) => return Err(NetError::Disconnected("socket closed while sending")),
                Ok(n) => sent += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    blocked_since.get_or_insert_with(Instant::now);
                    self.harvest()?;
                    std::thread::sleep(Duration::from_micros(50));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(NetError::Io(e)),
            }
        }
        Ok(blocked_since)
    }
}
