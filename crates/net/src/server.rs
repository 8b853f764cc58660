//! The multi-tenant ingest server: one OS thread accepting, handshaking
//! and multiplexing every remote tenant through the shared
//! [`Ingestor`](igm_trace::Ingestor).

use crate::source::NetSource;
use crate::wire::{self, Fill, MsgBuf, NetError};
use igm_obs::{Counter, EventKind, EventRing};
use igm_runtime::MonitorPool;
use igm_span::FlightRecorder;
use igm_trace::{
    lake_stem, CodecMetrics, IngestConfig, IngestReport, Ingestor, LakeArtifact, TraceError,
};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Per-connection credit window in wire (frame) bytes: the initial
    /// `WELCOME` grant and the target outstanding allowance. Bounds the
    /// server's per-lane buffering to roughly this plus one frame.
    pub credit_window: u32,
    /// How long a connection may take to deliver its `HELLO` before it is
    /// rejected (keeps a stuck peer from occupying a pending slot
    /// forever; the accept loop itself never blocks on it).
    pub handshake_timeout: Duration,
    /// Scheduling parameters of the underlying multiplexed ingest loop.
    pub ingest: IngestConfig,
    /// Tee-at-ingest: when set, every accepted lane's record stream is
    /// also captured to `<dir>/<tenant>.igmt` (standard trace frames, one
    /// per wire chunk), so remote tenants leave on-disk artifacts exactly
    /// like local capture sessions.
    pub tee_dir: Option<PathBuf>,
}

impl Default for NetServerConfig {
    fn default() -> NetServerConfig {
        NetServerConfig {
            credit_window: 256 * 1024,
            handshake_timeout: Duration::from_secs(5),
            ingest: IngestConfig::default(),
            tee_dir: None,
        }
    }
}

/// Everything one serving run produced.
#[derive(Debug)]
pub struct NetServerReport {
    /// The multiplexed ingest report: per-tenant session reports
    /// (violations, dispatch stats, channel counters) and per-lane
    /// fairness/backpressure stats, exactly as a local ingest run yields
    /// them. Lanes that failed mid-stream (disconnect, corrupt frame)
    /// appear in its `errors`, finalized with what they had published.
    pub ingest: IngestReport,
    /// Connections rejected before a lane existed (bad magic, version
    /// mismatch, malformed or timed-out handshakes): peer address and
    /// refusal.
    pub rejected: Vec<(String, NetError)>,
    /// Connections accepted into lanes.
    pub accepted: usize,
}

/// A connection that has not completed its handshake yet.
struct Pending {
    stream: TcpStream,
    peer: String,
    inbuf: MsgBuf,
    deadline: Instant,
}

enum HandshakeStep {
    /// Still waiting for bytes.
    Wait,
    /// `HELLO` accepted: the tenant's session spec.
    Ready(igm_runtime::SessionConfig),
    /// Connection refused.
    Fail(NetError),
}

impl Pending {
    fn step(&mut self) -> HandshakeStep {
        match self.inbuf.fill_from(&mut self.stream, 16 * 1024) {
            Ok(Fill::Bytes(_)) | Ok(Fill::WouldBlock) => {}
            Ok(Fill::Eof) => {
                return HandshakeStep::Fail(NetError::Disconnected(
                    "connection closed during the handshake",
                ))
            }
            Err(e) => return HandshakeStep::Fail(NetError::Io(e)),
        }
        match self.inbuf.peek_message() {
            Err(e) => HandshakeStep::Fail(e),
            Ok(Some((ty, range))) if ty == wire::msg::HELLO => {
                let decoded = wire::decode_hello(self.inbuf.bytes(range.clone()));
                match decoded {
                    Ok(cfg) => {
                        self.inbuf.consume(range.end);
                        HandshakeStep::Ready(cfg)
                    }
                    Err(e) => HandshakeStep::Fail(e),
                }
            }
            Ok(Some(_)) => HandshakeStep::Fail(NetError::Malformed("first message is not a HELLO")),
            Ok(None) if Instant::now() >= self.deadline => HandshakeStep::Fail(NetError::Io(
                io::Error::new(io::ErrorKind::TimedOut, "handshake timed out"),
            )),
            Ok(None) => HandshakeStep::Wait,
        }
    }

    /// Best-effort `ERROR` reply before dropping a rejected connection
    /// (the socket is nonblocking; a peer that will not read simply
    /// misses the courtesy).
    fn refuse(mut self, e: &NetError) {
        let reason = e.to_string();
        let _ = self.stream.write(&wire::error_message(&reason));
    }
}

/// The cross-host ingest front-end: accepts N tenant connections from one
/// thread and plugs each into the shared multiplexed [`Ingestor`] as a
/// readiness-polled socket lane — one OS thread still drives every remote
/// tenant, with the same fairness bounds, per-lane backpressure staging
/// and [`LaneStats`](igm_trace::LaneStats) accounting as local pipe
/// lanes.
///
/// # Example (loopback)
///
/// ```
/// use igm_lifeguards::LifeguardKind;
/// use igm_net::{IngestServer, NetServerConfig, TraceForwarder};
/// use igm_runtime::{MonitorPool, PoolConfig, SessionConfig};
/// use igm_workload::Benchmark;
///
/// let pool = MonitorPool::new(PoolConfig::with_workers(2));
/// let server = IngestServer::bind("127.0.0.1:0", &pool, NetServerConfig::default()).unwrap();
/// let addr = server.local_addr().unwrap();
/// let client = std::thread::spawn(move || {
///     let cfg = SessionConfig::new("gzip", LifeguardKind::AddrCheck)
///         .synthetic()
///         .premark(&Benchmark::Gzip.profile().premark_regions());
///     let mut fwd = TraceForwarder::connect(addr, &cfg).unwrap();
///     fwd.stream(Benchmark::Gzip.trace(2_000)).unwrap();
///     fwd.finish().unwrap()
/// });
/// let report = server.serve_connections(1);
/// let sent = client.join().unwrap();
/// assert_eq!(sent.server_records, 2_000);
/// assert_eq!(report.ingest.records(), 2_000);
/// pool.shutdown();
/// ```
pub struct IngestServer<'p> {
    listener: TcpListener,
    cfg: NetServerConfig,
    ingestor: Ingestor<'p>,
    pending: Vec<Pending>,
    rejected: Vec<(String, NetError)>,
    accepted: usize,
    /// Sanitized tee artifact names already handed out this run, so two
    /// tenants with the same (or sanitize-colliding) name cannot write
    /// the same file concurrently.
    tee_names: std::collections::HashMap<String, usize>,
    /// `igm_net_accepted_total` on the pool's registry.
    obs_accepted: Counter,
    /// `igm_net_rejected_total`.
    obs_rejected: Counter,
    /// The registry's event ring: every refusal is narrated there as a
    /// `handshake_reject` with the peer address and reason.
    events: EventRing,
    /// Shared `igm_codec_*` counters/histograms on the pool's registry;
    /// every admitted lane's decoder clones these handles.
    codec_metrics: CodecMetrics,
    /// The pool's span flight recorder, when spans are on: every admitted
    /// lane claims its own ring and stamps `server_ingest` stages for
    /// sampled frames.
    recorder: Option<Arc<FlightRecorder>>,
}

impl<'p> IngestServer<'p> {
    /// Binds the listening socket and readies the multiplexed front-end
    /// over `pool`. Bind to port 0 to let the OS pick
    /// ([`IngestServer::local_addr`] reports it).
    pub fn bind(
        addr: impl ToSocketAddrs,
        pool: &'p MonitorPool,
        cfg: NetServerConfig,
    ) -> io::Result<IngestServer<'p>> {
        assert!(cfg.credit_window > 0, "a zero credit window would deadlock every client");
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let ingestor = Ingestor::with_config(pool, cfg.ingest.clone());
        let metrics = pool.metrics();
        Ok(IngestServer {
            listener,
            cfg,
            ingestor,
            pending: Vec::new(),
            rejected: Vec::new(),
            accepted: 0,
            tee_names: std::collections::HashMap::new(),
            obs_accepted: metrics
                .counter("igm_net_accepted_total", "Remote connections admitted as ingest lanes"),
            obs_rejected: metrics
                .counter("igm_net_rejected_total", "Connections refused before a lane existed"),
            events: metrics.events().clone(),
            codec_metrics: CodecMetrics::register(metrics),
            recorder: pool.recorder().cloned(),
        })
    }

    /// The bound listening address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves exactly `connections` handshake resolutions — accepted
    /// lanes plus rejections — then drives every accepted lane to
    /// completion and returns the combined report. Accepting, handshaking,
    /// credit flow and record multiplexing all run on the calling thread.
    pub fn serve_connections(mut self, connections: usize) -> NetServerReport {
        loop {
            let mut progress = false;
            let resolved = self.accepted + self.rejected.len() + self.pending.len();
            if resolved < connections {
                match self.listener.accept() {
                    Ok((stream, peer)) => {
                        if stream.set_nonblocking(true).is_ok() {
                            self.pending.push(Pending {
                                stream,
                                peer: peer.to_string(),
                                inbuf: MsgBuf::new(),
                                deadline: Instant::now() + self.cfg.handshake_timeout,
                            });
                        } else {
                            self.reject(
                                peer.to_string(),
                                NetError::Malformed("could not make the socket nonblocking"),
                            );
                        }
                        progress = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(e) => {
                        // A failed accept consumes one slot so a dying
                        // listener cannot wedge the loop.
                        self.reject("<accept>".to_owned(), NetError::Io(e));
                        progress = true;
                    }
                }
            }
            progress |= self.pump_handshakes();
            let pass = self.ingestor.pass();
            progress |= pass.progress;
            let resolved = self.accepted + self.rejected.len();
            if resolved >= connections && self.pending.is_empty() && pass.open == 0 {
                break;
            }
            // Unlike `Ingestor::run`, no helped pool turn here: this thread
            // also accepts and handshakes, and a turn would delay them.
            if !progress {
                std::thread::sleep(self.ingestor.idle_backoff());
            }
        }
        NetServerReport {
            ingest: self.ingestor.finish(),
            rejected: self.rejected,
            accepted: self.accepted,
        }
    }

    /// Steps every pending handshake; registers completed ones as lanes.
    fn pump_handshakes(&mut self) -> bool {
        let mut progress = false;
        let mut i = 0;
        while i < self.pending.len() {
            match self.pending[i].step() {
                HandshakeStep::Wait => i += 1,
                HandshakeStep::Ready(session_cfg) => {
                    let conn = self.pending.swap_remove(i);
                    progress = true;
                    match self.admit(conn, session_cfg) {
                        Ok(()) => {
                            self.accepted += 1;
                            self.obs_accepted.inc();
                        }
                        Err((peer, e)) => self.reject(peer, e),
                    }
                }
                HandshakeStep::Fail(e) => {
                    let conn = self.pending.swap_remove(i);
                    progress = true;
                    let peer = conn.peer.clone();
                    conn.refuse(&e);
                    self.reject(peer, e);
                }
            }
        }
        progress
    }

    /// Records one pre-lane refusal: counter, event-ring narration, report
    /// entry.
    fn reject(&mut self, peer: String, e: NetError) {
        self.obs_rejected.inc();
        self.events
            .record(EventKind::HandshakeReject { peer: peer.clone(), reason: e.to_string() });
        self.rejected.push((peer, e));
    }

    /// Plugs a handshaken connection into the ingest front-end (teed to a
    /// trace file when configured).
    fn admit(
        &mut self,
        conn: Pending,
        mut session_cfg: igm_runtime::SessionConfig,
    ) -> Result<(), (String, NetError)> {
        let peer = conn.peer;
        let source = NetSource::new(
            conn.stream,
            self.cfg.credit_window as u64,
            conn.inbuf,
            self.codec_metrics.clone(),
            self.recorder.clone(),
        )
        .map_err(|e| (peer.clone(), NetError::Io(e)))?;
        match &self.cfg.tee_dir {
            Some(dir) => {
                // Disambiguate repeated (or sanitize-colliding) tenant
                // names within this run: "gzip.igmt", "gzip-2.igmt", … —
                // two concurrent lanes must never interleave frames into
                // one artifact.
                let base = lake_stem(&session_cfg.name);
                let uses = self.tee_names.entry(base.clone()).or_insert(0);
                *uses += 1;
                let stem = if *uses == 1 { base } else { format!("{base}-{uses}") };
                // The artifact stem is the lane's durable trace identity:
                // violations this session attributes carry RecordIds that
                // a TraceLake over the tee directory can seek back into.
                let artifact = LakeArtifact::new(dir, &stem);
                session_cfg.trace = artifact.trace_id;
                let sink = File::create(&artifact.trace_path)
                    .map(BufWriter::new)
                    .map_err(|e| (peer.clone(), NetError::Io(e)))?;
                self.ingestor
                    .add_source_teed_indexed(session_cfg, source, sink, artifact.sidecar_path)
                    .map_err(|e: TraceError| (peer.clone(), NetError::Trace(e)))?;
            }
            None => self.ingestor.add_source(session_cfg, source),
        }
        Ok(())
    }
}
