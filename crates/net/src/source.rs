//! The server-side socket lane: a readiness-polled
//! [`TraceSource`] over one client connection.

use crate::wire::{
    self, lane_error, Fill, FinStats, MsgBuf, NetError, MSG_HEADER_BYTES, SPAN_PREFIX_BYTES,
};
use igm_lba::TraceBatch;
use igm_runtime::ChannelStatsSnapshot;
use igm_span::{FlightRecorder, FrameTag, Stage, Track};
use igm_trace::{
    decode_frame_with, CodecMetrics, Predictors, SourceStatus, TraceError, TraceSource,
};
use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// Wire-credit bytes granted per compressed-model byte of log-channel
/// room. The channel accounts occupancy in the paper's compressed-record
/// model (1 B per instruction record); frames run ~1–2 B per record on
/// loopy code and several times that when most fields escape, so an
/// unscaled grant would under-fill the channel several-fold and throttle
/// a healthy producer.
/// The scale errs high — the channel's own byte-accounted refusal (the
/// staged-batch backstop) still bounds server memory when the estimate is
/// generous.
const MODEL_TO_WIRE_SCALE: u64 = 8;

/// Bytes read from the socket per scheduling poll, so one fast client
/// cannot pin the ingest thread inside a single lane turn.
const READ_BUDGET_PER_POLL: usize = 256 * 1024;

/// One accepted connection, adapted to the ingest front-end: chunk
/// messages decode (via the shared codec) into the lane's batch arena;
/// credit grants ride back on the same socket, sized from the tenant's
/// log-channel occupancy ([`TraceSource::transport_feedback`]); `FIN`
/// retires the lane cleanly after a `FIN_ACK`. All socket traffic is
/// nonblocking: the source reports [`SourceStatus::Pending`] instead of
/// ever stalling the shared ingest thread.
pub struct NetSource {
    stream: TcpStream,
    inbuf: MsgBuf,
    /// Credit/FIN_ACK bytes not yet accepted by the (nonblocking) socket.
    outbox: Vec<u8>,
    out_sent: usize,
    /// Target outstanding-credit window in wire bytes.
    window: u64,
    /// Cumulative credit granted (the initial `WELCOME` included).
    granted: u64,
    /// Cumulative chunk payload bytes received.
    received: u64,
    chunks: u64,
    records: u64,
    fin: Option<FinStats>,
    /// A write-side failure noticed during feedback, surfaced on the next
    /// poll (polls are the lane's error channel).
    deferred_error: Option<NetError>,
    /// Decoder predictor tables, persistent across this lane's frames.
    predictors: Box<Predictors>,
    /// Shared codec byte counters / decode-latency histogram.
    metrics: CodecMetrics,
    /// The pool's flight recorder: sampled frames get a `server_ingest`
    /// stage stamped over the decode window.
    recorder: Arc<FlightRecorder>,
    /// This lane's claimed ring in `recorder`.
    ring: usize,
    /// The last delivered chunk's span tag, held for the ingest lane to
    /// claim via [`TraceSource::take_span_tag`] and pin to the batch it
    /// sends into the pool.
    pending_tag: Option<FrameTag>,
}

impl NetSource {
    /// Adapts an accepted, handshaken connection. `inbuf` carries any
    /// bytes the handshake reader buffered past the `HELLO`; the `WELCOME`
    /// (granting `window` initial credit bytes) is queued for the first
    /// poll's flush.
    pub(crate) fn new(
        stream: TcpStream,
        window: u64,
        inbuf: MsgBuf,
        metrics: CodecMetrics,
        recorder: Arc<FlightRecorder>,
    ) -> io::Result<NetSource> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        let ring = recorder.ring_handle();
        Ok(NetSource {
            stream,
            inbuf,
            outbox: wire::welcome_message(window),
            out_sent: 0,
            window,
            granted: window,
            received: 0,
            chunks: 0,
            records: 0,
            fin: None,
            deferred_error: None,
            predictors: Box::new(Predictors::new()),
            metrics,
            recorder,
            ring,
            pending_tag: None,
        })
    }

    /// Chunk messages decoded so far.
    pub fn chunks(&self) -> u64 {
        self.chunks
    }

    /// Records decoded so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Pushes as much of the outbox as the socket will take.
    fn flush_outbox(&mut self) -> Result<(), NetError> {
        while self.out_sent < self.outbox.len() {
            match self.stream.write(&self.outbox[self.out_sent..]) {
                Ok(0) => return Err(NetError::Disconnected("socket closed while granting credit")),
                Ok(n) => self.out_sent += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(NetError::Io(e)),
            }
        }
        self.outbox.clear();
        self.out_sent = 0;
        Ok(())
    }

    fn outbox_drained(&self) -> bool {
        self.out_sent >= self.outbox.len()
    }

    fn fail(&self, e: NetError) -> TraceError {
        lane_error(e, self.inbuf.stream_pos())
    }

    /// The poll body, in [`NetError`] terms (mapped by the trait impl).
    fn poll(&mut self, out: &mut TraceBatch) -> Result<SourceStatus, NetError> {
        if let Some(e) = self.deferred_error.take() {
            return Err(e);
        }
        loop {
            self.flush_outbox()?;
            if let Some((ty, range)) = self.inbuf.peek_message()? {
                match ty {
                    wire::msg::CHUNK if self.fin.is_none() => {
                        let payload_at = self.inbuf.stream_pos() + MSG_HEADER_BYTES as u64;
                        let payload = self.inbuf.bytes(range.clone());
                        // Credit is accounted in whole chunk payload bytes
                        // (span prefix included), matching the client's
                        // ledger.
                        let payload_bytes = payload.len() as u64;
                        if payload.len() < SPAN_PREFIX_BYTES {
                            return Err(NetError::Malformed("chunk shorter than the span prefix"));
                        }
                        let (prefix, frame) = payload.split_at(SPAN_PREFIX_BYTES);
                        let tag = wire::decode_span_prefix(prefix)?;
                        let frame_at = payload_at + SPAN_PREFIX_BYTES as u64;
                        let span = tag.map(|tag| (tag, self.recorder.now()));
                        let started = self.metrics.start_decode();
                        decode_frame_with(&mut self.predictors, frame, frame_at, out)?;
                        self.metrics.stop_decode(started);
                        self.metrics.count_frame(out.len() as u64, frame.len() as u64);
                        if let Some((tag, t0)) = span {
                            let rec = &self.recorder;
                            rec.record(
                                self.ring,
                                Stage::ServerIngest,
                                Track::Lane(tag.flow),
                                tag,
                                t0,
                                rec.now(),
                            );
                            self.pending_tag = Some(tag);
                        }
                        self.received += payload_bytes;
                        self.chunks += 1;
                        self.records += out.len() as u64;
                        self.inbuf.consume(range.end);
                        return Ok(SourceStatus::Ready);
                    }
                    wire::msg::CHUNK => return Err(NetError::Malformed("chunk message after FIN")),
                    wire::msg::FIN => {
                        let stats = wire::decode_fin(self.inbuf.bytes(range.clone()))?;
                        if stats.records != self.records {
                            return Err(NetError::Malformed(
                                "FIN record count disagrees with received records",
                            ));
                        }
                        self.fin = Some(stats);
                        self.inbuf.consume(range.end);
                        let ack = wire::fin_ack_message(self.records);
                        self.outbox.extend_from_slice(&ack);
                        continue;
                    }
                    wire::msg::HELLO => {
                        return Err(NetError::Malformed("second handshake on an open lane"))
                    }
                    _ => return Err(NetError::Malformed("unexpected message type from client")),
                }
            }
            if self.fin.is_some() {
                if self.inbuf.has_buffered() {
                    return Err(NetError::Malformed("data after FIN"));
                }
                // Retire only after the FIN_ACK left the socket.
                self.flush_outbox()?;
                let done = self.outbox_drained();
                return Ok(if done { SourceStatus::Done } else { SourceStatus::Pending });
            }
            match self.inbuf.fill_from(&mut self.stream, READ_BUDGET_PER_POLL)? {
                Fill::Bytes(_) => continue,
                Fill::WouldBlock => return Ok(SourceStatus::Pending),
                Fill::Eof => {
                    return Err(NetError::Disconnected(if self.inbuf.has_buffered() {
                        "connection closed inside a message"
                    } else {
                        "connection closed before FIN"
                    }))
                }
            }
        }
    }
}

impl TraceSource for NetSource {
    fn next_batch(&mut self, out: &mut TraceBatch) -> Result<SourceStatus, TraceError> {
        out.clear();
        self.poll(out).map_err(|e| self.fail(e))
    }

    /// The last delivered chunk's wire span tag: the ingest lane pins it
    /// to the batch it sends into the pool, so the server-side
    /// `channel_wait`/`dispatch` stages chain under the *origin's*
    /// flow/seq.
    fn take_span_tag(&mut self) -> Option<FrameTag> {
        self.pending_tag.take()
    }

    /// The occupancy → credit hookup: the lane's log-channel drain state
    /// arrives once per scheduling turn, and the grant keeps the client's
    /// outstanding credit tracking `min(window, room)` — a full channel
    /// (slow lifeguard) freezes the grants, so the remote producer
    /// throttles instead of ballooning server memory.
    fn transport_feedback(&mut self, occupancy: &ChannelStatsSnapshot, capacity_bytes: u32) {
        if self.fin.is_some() || self.deferred_error.is_some() {
            return;
        }
        let room = capacity_bytes.saturating_sub(occupancy.used_bytes) as u64;
        let target = self.window.min(room * MODEL_TO_WIRE_SCALE);
        let outstanding = self.granted.saturating_sub(self.received);
        let grant = target.saturating_sub(outstanding);
        // Batch small grants (quarter-window quantum) so a draining
        // channel does not turn into a credit message per record; an empty
        // allowance is always refilled immediately, whatever its size.
        if grant > 0 && (outstanding == 0 || grant >= self.window / 4) {
            self.granted += grant;
            let msg = wire::credit_message(grant);
            self.outbox.extend_from_slice(&msg);
        }
        if let Err(e) = self.flush_outbox() {
            self.deferred_error = Some(e);
        }
    }
}
