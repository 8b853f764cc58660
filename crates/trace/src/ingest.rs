//! The multiplexed ingest front-end: one OS thread, many tenant sources.
//!
//! The runtime's original ingestion pattern dedicates one blocking
//! producer thread per tenant — faithful to the paper's one-application /
//! one-log-buffer coupling, but wasteful at service scale where most
//! tenants are intermittently idle. [`Ingestor`] replaces it: a single
//! thread round-robins over pluggable [`TraceSource`]s (in-memory
//! generators, recorded trace files, readiness-polled pipes), pulling
//! ready batches and publishing them into per-tenant [`MonitorPool`]
//! sessions with the *non-blocking* [`SessionHandle::try_send_batch`].
//!
//! Backpressure is per source: a batch refused by a full log channel is
//! *staged* on its lane and retried next turn, so one slow tenant defers
//! only itself while the thread keeps servicing the others — the software
//! analogue of per-core log buffers sharing one transport fabric. A lane
//! holding a staged batch does not poll its source, so a readiness-polled
//! source's own transport carries the stall back to its producer (for
//! `igm-net`'s socket lanes, TCP's receive window). A pass
//! on which every lane is deferred or pending does not idle the thread:
//! [`Ingestor::run`] spends it on one lifeguard turn of the pool
//! ([`MonitorPool::help`]) and sleeps only when there is none to run.
//! Fairness is a bounded number of batches per lane per turn plus
//! per-lane accounting ([`LaneStats`]) of how often each source was
//! ready, pending, or deferred by backpressure. A teed lane's frames are
//! not written here: its session tees each batch on the thread that
//! monitors it, so the ingest thread only pulls and publishes.

use crate::codec::{TraceError, TraceReader, TraceWriter};
use crate::tee::FrameTee;
use igm_isa::TraceEntry;
use igm_lba::{Chunks, TraceBatch};
use igm_obs::{Counter, EventKind, EventRing, Histogram};
use igm_runtime::{MonitorPool, SessionConfig, SessionHandle, SessionReport};
use std::fs::File;
use std::io::{BufReader, Read, Write};
use std::path::Path;
use std::sync::mpsc::{Receiver, SyncSender, TryRecvError, TrySendError};
use std::time::{Duration, Instant};

/// What a [`TraceSource`] produced for one poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceStatus {
    /// `out` holds the next batch.
    Ready,
    /// Nothing available right now; poll again later (readiness-style).
    Pending,
    /// The source is exhausted; the lane's session can finish.
    Done,
}

/// A pull-based supplier of record batches, polled by the [`Ingestor`].
///
/// Implementations must not block: a source with nothing available
/// returns [`SourceStatus::Pending`] and the ingest thread moves on. The
/// same three outcomes classify every readiness-polled endpoint
/// ([`PipeSource`] over an in-process pipe, `igm-net`'s socket lanes): a
/// whole batch delivered, nothing yet, or the peer gone.
pub trait TraceSource: Send {
    /// Fills `out` (cleared by the callee) with the next columnar batch.
    fn next_batch(&mut self, out: &mut TraceBatch) -> Result<SourceStatus, TraceError>;

    /// The span tag of the batch the last `next_batch` call delivered,
    /// taken at most once per batch. Sources whose frames arrive with a
    /// span context already stamped at the origin (`igm-net`'s socket
    /// lanes) surface it here so the lane can carry it into the pool and
    /// the frame's client- and server-side stages join into one chain.
    /// The default — local sources — returns `None`, which leaves the
    /// sampling decision to the session handle.
    fn take_span_tag(&mut self) -> Option<igm_span::FrameTag> {
        None
    }
}

/// An in-memory source: any record iterator, chunked at `chunk_bytes`
/// into columnar transport batches ([`igm_lba::chunks`] via the
/// allocation-free [`Chunks::next_into_batch`] — the generator produces
/// batches natively, no `Vec<TraceEntry>` staging).
#[derive(Debug)]
pub struct IterSource<I> {
    chunker: Chunks<I>,
}

impl<I: Iterator<Item = TraceEntry>> IterSource<I> {
    /// Wraps `trace`, batching at `chunk_bytes` compressed-record bytes.
    pub fn new(
        trace: impl IntoIterator<Item = TraceEntry, IntoIter = I>,
        chunk_bytes: u32,
    ) -> Self {
        IterSource { chunker: igm_lba::chunks(trace, chunk_bytes) }
    }
}

impl<I: Iterator<Item = TraceEntry> + Send> TraceSource for IterSource<I> {
    fn next_batch(&mut self, out: &mut TraceBatch) -> Result<SourceStatus, TraceError> {
        if self.chunker.next_into_batch(out) {
            Ok(SourceStatus::Ready)
        } else {
            Ok(SourceStatus::Done)
        }
    }
}

/// A recorded-trace source: frames stream out of a [`TraceReader`] one
/// chunk per poll, preserving the captured batch structure.
#[derive(Debug)]
pub struct FileSource<R: Read> {
    reader: TraceReader<R>,
}

impl<R: Read> FileSource<R> {
    /// Wraps an open trace stream.
    pub fn new(reader: TraceReader<R>) -> FileSource<R> {
        FileSource { reader }
    }
}

impl FileSource<BufReader<File>> {
    /// Opens the trace file at `path`.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        let file = File::open(path).map_err(TraceError::Io)?;
        Ok(FileSource { reader: TraceReader::new(BufReader::new(file))? })
    }
}

impl<R: Read + Send> TraceSource for FileSource<R> {
    fn next_batch(&mut self, out: &mut TraceBatch) -> Result<SourceStatus, TraceError> {
        if self.reader.read_chunk_into_batch(out)? {
            Ok(SourceStatus::Ready)
        } else {
            Ok(SourceStatus::Done)
        }
    }
}

/// Creates an in-process batch pipe of depth `depth`: the sender side
/// lives with an external producer (another thread, a network shim); the
/// [`PipeSource`] side is readiness-polled by the ingest thread and never
/// blocks it.
pub fn batch_pipe(depth: usize) -> (PipeSender, PipeSource) {
    let (tx, rx) = std::sync::mpsc::sync_channel(depth);
    (PipeSender { tx }, PipeSource { rx })
}

/// Producer endpoint of [`batch_pipe`].
#[derive(Debug, Clone)]
pub struct PipeSender {
    tx: SyncSender<TraceBatch>,
}

impl PipeSender {
    /// Queues one batch (anything convertible into a [`TraceBatch`]),
    /// blocking while the pipe is full. Returns the batch if the ingest
    /// side is gone.
    // The "error" is the refused batch arena itself and refusal is the hot
    // backpressure path — boxing it would add an allocation per refusal.
    #[allow(clippy::result_large_err)]
    pub fn send(&self, batch: impl Into<TraceBatch>) -> Result<(), TraceBatch> {
        self.tx.send(batch.into()).map_err(|e| e.0)
    }

    /// Queues one batch without blocking; returns it if the pipe is full
    /// or the ingest side is gone.
    #[allow(clippy::result_large_err)]
    pub fn try_send(&self, batch: impl Into<TraceBatch>) -> Result<(), TraceBatch> {
        self.tx.try_send(batch.into()).map_err(|e| match e {
            TrySendError::Full(b) | TrySendError::Disconnected(b) => b,
        })
    }
}

/// Consumer endpoint of [`batch_pipe`]: a readiness-polled pipe source.
#[derive(Debug)]
pub struct PipeSource {
    rx: Receiver<TraceBatch>,
}

impl TraceSource for PipeSource {
    fn next_batch(&mut self, out: &mut TraceBatch) -> Result<SourceStatus, TraceError> {
        out.clear();
        Ok(match self.rx.try_recv() {
            Ok(batch) => {
                *out = batch;
                SourceStatus::Ready
            }
            Err(TryRecvError::Empty) => SourceStatus::Pending,
            Err(TryRecvError::Disconnected) => SourceStatus::Done,
        })
    }
}

/// Batches published per lane per scheduling turn (the fairness bound: a
/// deep source cannot monopolize the thread).
const BATCHES_PER_TURN: usize = 4;

/// Sleep applied after a full pass with no progress (every lane pending or
/// deferred) when the pool has nothing runnable either, so an idle
/// front-end does not spin a core. [`Ingestor::run`] first spends a
/// no-progress pass on one lifeguard turn ([`MonitorPool::help`]) and
/// sleeps only when that finds no work.
const IDLE_BACKOFF: Duration = Duration::from_micros(200);

/// Per-lane fairness and backpressure accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct LaneStats {
    /// Batches published into the lane's session.
    pub batches: u64,
    /// Records published.
    pub records: u64,
    /// Sends refused by a full log channel and staged for retry — the
    /// lane's backpressure events (the non-blocking analogue of the SPSC
    /// channel's producer stalls).
    pub deferred_sends: u64,
    /// Polls that found the source not ready.
    pub pending_polls: u64,
    /// Scheduling turns that visited this lane.
    pub turns: u64,
}

/// The ingest front-end's registry handles (from the pool's registry, so
/// ingest metrics land on the same stats endpoint as the pool's).
#[derive(Debug, Clone)]
struct IngestObs {
    /// `igm_ingest_turn_nanos`: one lane scheduling turn.
    turn: Histogram,
    /// `igm_ingest_deferred_wait_nanos`: backpressure staging → successful
    /// publish, per deferred batch.
    deferred_wait: Histogram,
    /// `igm_ingest_lanes_opened_total`.
    lanes_opened: Counter,
    /// `igm_ingest_lane_failures_total`.
    lane_failures: Counter,
    /// The registry's lifecycle-event ring (lane failures are narrated
    /// here with their error string, in failure order).
    events: EventRing,
}

struct Lane {
    name: String,
    source: Box<dyn TraceSource>,
    session: Option<SessionHandle>,
    /// Tee-at-ingest: the lane's session tees every batch it monitors
    /// into one trace frame, on the pumping thread, so piped and remote
    /// tenants leave on-disk artifacts exactly like
    /// [`crate::CaptureSession`]s. The lane only polls it for a failed
    /// write each turn and flushes it at report collection.
    artifact: Option<FrameTee<Box<dyn Write + Send>>>,
    /// A batch refused by backpressure, awaiting retry.
    staged: Option<Deferred>,
    /// Pull staging arena: sources decode/chunk their columns straight
    /// into it, then ownership of the filled batch transfers to the log
    /// channel (the transport owns its batches); the lane refills the
    /// arena from the session's recycled spares.
    scratch: TraceBatch,
    /// Source exhausted and channel closed; the worker is draining in the
    /// background and the report is collected after the scheduling loop.
    closed: bool,
    stats: LaneStats,
    error: Option<TraceError>,
    obs: IngestObs,
}

/// A batch a full log channel refused, held on its lane for retry.
struct Deferred {
    batch: TraceBatch,
    /// Kept across retries so a deferred frame publishes under the span
    /// tag its origin stamped.
    tag: Option<igm_span::FrameTag>,
    /// When the batch was first refused, so the retry that finally
    /// publishes it reports the whole deferred wait.
    since: Option<Instant>,
}

/// Everything one [`Ingestor::run`] produced.
#[derive(Debug)]
pub struct IngestReport {
    /// Finished session reports, in lane registration order.
    pub sessions: Vec<SessionReport>,
    /// Per-lane fairness/backpressure counters, same order.
    pub lanes: Vec<(String, LaneStats)>,
    /// Source and tee errors (lane name, error), if any; the affected
    /// lanes were finalized early with whatever they had published (a
    /// teed lane, with whatever reached its sink).
    pub errors: Vec<(String, TraceError)>,
    /// Full scheduling passes over the lane set.
    pub passes: u64,
}

impl IngestReport {
    /// Total records published across all lanes.
    pub fn records(&self) -> u64 {
        self.lanes.iter().map(|(_, s)| s.records).sum()
    }
}

/// The single-threaded multiplexing front-end.
///
/// # Example
///
/// ```
/// use igm_lifeguards::LifeguardKind;
/// use igm_runtime::{MonitorPool, PoolConfig, SessionConfig};
/// use igm_trace::{Ingestor, IterSource};
/// use igm_workload::Benchmark;
///
/// let pool = MonitorPool::new(PoolConfig::with_workers(2));
/// let mut ingestor = Ingestor::new(&pool);
/// for bench in [Benchmark::Gzip, Benchmark::Mcf, Benchmark::Gcc] {
///     ingestor.add_source(
///         SessionConfig::new(bench.name(), LifeguardKind::AddrCheck)
///             .synthetic()
///             .premark(&bench.profile().premark_regions()),
///         IterSource::new(bench.trace(3_000), 4096),
///     );
/// }
/// let report = ingestor.run(); // one thread drives all three tenants
/// assert_eq!(report.records(), 9_000);
/// assert!(report.sessions.iter().all(|s| s.violations.is_empty()));
/// pool.shutdown();
/// ```
pub struct Ingestor<'p> {
    pool: &'p MonitorPool,
    lanes: Vec<Lane>,
    passes: u64,
    obs: IngestObs,
}

/// What one [`Ingestor::pass`] accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassOutcome {
    /// Whether any lane published a batch or finished this pass (when
    /// false, every open lane was pending or deferred — a driving loop
    /// should briefly back off instead of spinning).
    pub progress: bool,
    /// Lanes still open after the pass.
    pub open: usize,
}

impl<'p> Ingestor<'p> {
    /// A front-end over `pool`.
    pub fn new(pool: &'p MonitorPool) -> Ingestor<'p> {
        let metrics = pool.metrics();
        let obs = IngestObs {
            turn: metrics
                .histogram("igm_ingest_turn_nanos", "Duration of one ingest lane scheduling turn"),
            deferred_wait: metrics.histogram(
                "igm_ingest_deferred_wait_nanos",
                "Backpressure staging to successful publish, per deferred batch",
            ),
            lanes_opened: metrics
                .counter("igm_ingest_lanes_opened_total", "Ingest lanes registered"),
            lane_failures: metrics.counter(
                "igm_ingest_lane_failures_total",
                "Ingest lanes closed early by a source or tee error",
            ),
            events: metrics.events().clone(),
        };
        Ingestor { pool, lanes: Vec::new(), passes: 0, obs }
    }

    /// Registers a tenant: opens a session under `cfg` and attaches
    /// `source` to it. Lanes run when [`Ingestor::run`] (or the stepwise
    /// [`Ingestor::pass`]) drives them; sources may be added between
    /// passes, which is how `igm-net`'s server plugs freshly accepted
    /// connections into a running front-end.
    pub fn add_source(&mut self, cfg: SessionConfig, source: impl TraceSource + 'static) {
        let name = cfg.name.clone();
        let session = self.pool.open_session(cfg);
        self.add_lane(name, Box::new(source), session, None);
    }

    /// Like [`Ingestor::add_source`], but the lane's session also tees
    /// every batch into `sink` as standard trace frames (one frame per
    /// batch, in source order) — the ingest-side counterpart of
    /// [`crate::CaptureSession`], so piped and remote tenants leave
    /// on-disk artifacts too. The frames are written by the thread that
    /// monitors each batch, not by the ingest thread. The sink is flushed
    /// when the report is collected ([`Ingestor::finish`]); a tee write
    /// failure fails only this lane, whose session then stops at the last
    /// frame that reached the sink.
    pub fn add_source_teed(
        &mut self,
        cfg: SessionConfig,
        source: impl TraceSource + 'static,
        sink: impl Write + Send + 'static,
    ) -> Result<(), TraceError> {
        let writer = TraceWriter::new(Box::new(sink) as Box<dyn Write + Send>)?;
        self.add_teed_lane(cfg, Box::new(source), writer, None);
        Ok(())
    }

    /// Like [`Ingestor::add_source_teed`], but the tee writer also builds
    /// each frame's posting index inline, on the same pumping thread
    /// ([`TraceWriter::with_index`](crate::TraceWriter::with_index)), and
    /// the `IGMX` v3 sidecar is saved to `sidecar` when the report is
    /// collected, for a cleanly flushed trace only — so a remote or piped
    /// tenant's artifact lands lake-queryable, with no offline scan
    /// needed.
    pub fn add_source_teed_indexed(
        &mut self,
        cfg: SessionConfig,
        source: impl TraceSource + 'static,
        sink: impl Write + Send + 'static,
        sidecar: std::path::PathBuf,
    ) -> Result<(), TraceError> {
        let writer = TraceWriter::with_index(Box::new(sink) as Box<dyn Write + Send>)?;
        self.add_teed_lane(cfg, Box::new(source), writer, Some(sidecar));
        Ok(())
    }

    fn add_teed_lane(
        &mut self,
        cfg: SessionConfig,
        source: Box<dyn TraceSource>,
        writer: TraceWriter<Box<dyn Write + Send>>,
        sidecar: Option<std::path::PathBuf>,
    ) {
        let name = cfg.name.clone();
        let (session, artifact) = FrameTee::open(self.pool, cfg, writer, sidecar);
        self.add_lane(name, source, session, Some(artifact));
    }

    fn add_lane(
        &mut self,
        name: String,
        source: Box<dyn TraceSource>,
        session: SessionHandle,
        artifact: Option<FrameTee<Box<dyn Write + Send>>>,
    ) {
        self.obs.lanes_opened.inc();
        self.lanes.push(Lane {
            name,
            source,
            session: Some(session),
            artifact,
            staged: None,
            scratch: TraceBatch::new(),
            closed: false,
            stats: LaneStats::default(),
            error: None,
            obs: self.obs.clone(),
        });
    }

    /// Registered lanes.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// The idle backoff (what [`Ingestor::run`] sleeps after a
    /// no-progress pass when [`MonitorPool::help`] finds nothing to run;
    /// external driving loops may do the same).
    pub fn idle_backoff(&self) -> Duration {
        IDLE_BACKOFF
    }

    /// One scheduling pass over every open lane. External drivers (the
    /// `igm-net` server loop) interleave this with their own work —
    /// accepting connections, registering new lanes — and back off on
    /// [`PassOutcome::progress`]` == false`.
    pub fn pass(&mut self) -> PassOutcome {
        self.passes += 1;
        let mut open = 0usize;
        let mut progress = false;
        for lane in &mut self.lanes {
            if lane.closed || lane.session.is_none() {
                continue;
            }
            let turn_started = self.obs.turn.start();
            progress |= lane.turn(BATCHES_PER_TURN);
            self.obs.turn.stop(turn_started);
            open += usize::from(!(lane.closed || lane.session.is_none()));
        }
        PassOutcome { progress, open }
    }

    /// Drives every lane to completion on the calling thread and returns
    /// the combined report. A pass that publishes nothing (every lane
    /// pending or refused by a full channel) runs one pool turn on this
    /// thread instead of sleeping, when the pool has one to run.
    pub fn run(mut self) -> IngestReport {
        loop {
            let pass = self.pass();
            if pass.open == 0 {
                break;
            }
            // Every open lane is pending or deferred: run a lifeguard turn
            // of whatever the pool has runnable on this thread, and yield
            // the core briefly only when nothing is.
            if !pass.progress && !self.pool.help() {
                std::thread::sleep(IDLE_BACKOFF);
            }
        }
        self.finish()
    }

    /// Collects the finished lanes into the combined report. A lane
    /// completing mid-run closed its channel without blocking (the worker
    /// drains concurrently), so one finished tenant never stalled the
    /// others; callers invoke this once every source is done, and only the
    /// session finalizers are waited on here. A teed lane's sink is
    /// flushed (and its sidecar saved) here, once its session's report is
    /// in; a tee error found only now still fails the lane.
    pub fn finish(self) -> IngestReport {
        let mut sessions = Vec::new();
        let mut lanes = Vec::new();
        let mut errors = Vec::new();
        for mut lane in self.lanes {
            if let Some(session) = lane.session.take() {
                sessions.push(session.finish());
            }
            if let Some(Err(e)) = lane.artifact.take().map(FrameTee::finish) {
                lane.fail(e);
            }
            if let Some(err) = lane.error {
                errors.push((lane.name.clone(), err));
            }
            lanes.push((lane.name, lane.stats));
        }
        IngestReport { sessions, lanes, errors, passes: self.passes }
    }
}

impl Lane {
    /// One scheduling turn: publish up to `budget` batches. Returns
    /// whether anything was published or the lane finished.
    fn turn(&mut self, budget: usize) -> bool {
        self.stats.turns += 1;
        // A frame the session's tee failed to write stopped the session's
        // monitoring there: retire the lane with the tee's error.
        if let Some(e) = self.artifact.as_ref().and_then(FrameTee::failure) {
            return self.retire(Some(e));
        }
        let mut progress = false;
        for _ in 0..budget {
            // Retry a backpressure-deferred batch before pulling new work.
            let deferred = match self.staged.take() {
                Some(d) => d,
                None => match self.source.next_batch(&mut self.scratch) {
                    Ok(SourceStatus::Ready) => {
                        // Hand the filled arena to the channel and refill
                        // the staging slot from the session's recycled
                        // spares.
                        let spare = self
                            .session
                            .as_ref()
                            .map(SessionHandle::spare_batch)
                            .unwrap_or_default();
                        Deferred {
                            batch: std::mem::replace(&mut self.scratch, spare),
                            tag: self.source.take_span_tag(),
                            since: None,
                        }
                    }
                    Ok(SourceStatus::Pending) => {
                        self.stats.pending_polls += 1;
                        return progress;
                    }
                    Ok(SourceStatus::Done) => return self.retire(None),
                    // A corrupt or failing source ends its lane; the
                    // session is finalized with what it got.
                    Err(e) => return self.retire(Some(e)),
                },
            };
            if deferred.batch.is_empty() {
                continue;
            }
            let records = deferred.batch.len() as u64;
            let session = self.session.as_ref().expect("lane is open");
            match session.try_send_batch_tagged(deferred.batch, deferred.tag) {
                Ok(None) => {
                    // If this batch had been deferred, report how long it
                    // waited from first refusal to publication.
                    self.obs.deferred_wait.stop(deferred.since);
                    self.stats.batches += 1;
                    self.stats.records += records;
                    progress = true;
                }
                Ok(Some(refused)) => {
                    // Full channel: stage and let the other lanes run. The
                    // wait clock starts at the *first* refusal and keeps
                    // running across re-refusals.
                    let since = deferred.since.or_else(|| self.obs.deferred_wait.start());
                    self.staged = Some(Deferred { batch: refused, tag: deferred.tag, since });
                    self.stats.deferred_sends += 1;
                    return progress;
                }
                Err(_) => {
                    // Pool shut down under us; drop the lane.
                    self.session = None;
                    return true;
                }
            }
        }
        progress
    }

    /// Ends the lane: records `err` if it failed, then closes its log
    /// channel. Returns `true`, the turn's progress (the lane finished).
    fn retire(&mut self, err: Option<TraceError>) -> bool {
        if let Some(e) = err {
            self.fail(e);
        }
        self.close();
        true
    }

    /// Records the lane's error, unless it already failed for an earlier
    /// reason, and narrates the failure once — counter for the scrape,
    /// event with the error string for the endpoint's timeline.
    fn fail(&mut self, err: TraceError) {
        if self.error.is_some() {
            return;
        }
        self.obs.lane_failures.inc();
        self.obs
            .events
            .record(EventKind::LaneFailure { lane: self.name.clone(), error: err.to_string() });
        self.error = Some(err);
    }

    /// Closes the lane's log channel without blocking: the owning worker
    /// drains and finalizes in the background (teeing what is still
    /// buffered) while the ingest thread keeps servicing the other lanes;
    /// the report is collected, and a teed artifact flushed, after the
    /// scheduling loop.
    fn close(&mut self) {
        if let Some(session) = self.session.as_mut() {
            session.close();
        }
        self.closed = true;
    }
}
