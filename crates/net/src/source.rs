//! The server-side socket lane: a readiness-polled
//! [`TraceSource`] over one client connection.

use crate::wire::{self, lane_error, Fill, Message, MsgBuf, NetError, MSG_HEADER_BYTES};
use igm_lba::TraceBatch;
use igm_span::{FlightRecorder, FrameTag, Stage, Track};
use igm_trace::{
    decode_frame_with, CodecMetrics, Predictors, SourceStatus, TraceError, TraceSource,
};
use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// Bytes read from the socket per scheduling poll, so one fast client
/// cannot pin the ingest thread inside a single lane turn. With the one
/// message a poll may leave partly buffered, this bounds the lane's
/// user-space buffering.
const READ_BUDGET_PER_POLL: usize = 256 * 1024;

/// One accepted connection, adapted to the ingest front-end: chunk
/// messages decode (via the shared codec) into the lane's batch arena;
/// `FIN` retires the lane cleanly after a `FIN_ACK`. All socket traffic is
/// nonblocking: the source reports [`SourceStatus::Pending`] instead of
/// ever stalling the shared ingest thread. Backpressure is the socket's:
/// while the lane's log channel is full the lane stops polling this
/// source, so its receive buffer fills and TCP stalls the client.
pub struct NetSource {
    stream: TcpStream,
    inbuf: MsgBuf,
    /// `WELCOME`/`FIN_ACK` bytes not yet accepted by the (nonblocking)
    /// socket.
    outbox: Vec<u8>,
    out_sent: usize,
    chunks: u64,
    records: u64,
    /// Set once the client's `FIN` arrived.
    fin: bool,
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
    /// is queued for the first poll's flush.
    pub(crate) fn new(
        stream: TcpStream,
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
            outbox: wire::welcome_message(),
            out_sent: 0,
            chunks: 0,
            records: 0,
            fin: false,
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
                Ok(0) => return Err(NetError::Disconnected("socket closed while replying")),
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
        loop {
            self.flush_outbox()?;
            if let Some((ty, range)) = self.inbuf.peek_message()? {
                let payload_at = self.inbuf.stream_pos() + MSG_HEADER_BYTES as u64;
                // The decoded message borrows the buffer until this
                // statement ends; it is consumed after.
                let delivered = match wire::decode_message(ty, self.inbuf.bytes(range.clone()))? {
                    Message::Chunk { .. } if self.fin => {
                        return Err(NetError::Malformed("chunk message after FIN"))
                    }
                    Message::Chunk { tag, frame } => {
                        let frame_at = payload_at + wire::SPAN_PREFIX_BYTES as u64;
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
                        self.chunks += 1;
                        self.records += out.len() as u64;
                        true
                    }
                    Message::Fin { records } => {
                        if records != self.records {
                            return Err(NetError::Malformed(
                                "FIN record count disagrees with received records",
                            ));
                        }
                        self.fin = true;
                        self.outbox.extend_from_slice(&wire::fin_ack_message(self.records));
                        false
                    }
                    Message::Hello(_) => {
                        return Err(NetError::Malformed("second handshake on an open lane"))
                    }
                    _ => return Err(NetError::Malformed("unexpected message type from client")),
                };
                self.inbuf.consume(range.end);
                if delivered {
                    return Ok(SourceStatus::Ready);
                }
                continue;
            }
            if self.fin {
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
}
