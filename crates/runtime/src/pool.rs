//! The work-stealing lifeguard worker pool.
//!
//! A [`MonitorPool`] owns N worker threads — the software analogue of a pool
//! of lifeguard cores behind the LBA transport fabric. Each *tenant* (an
//! independent monitored application) opens a [`SessionHandle`]: the tenant
//! streams batched log records through a bounded
//! [`log_channel`](crate::log_channel) exactly as the application core
//! streams into the in-cache log buffer.
//!
//! Scheduling is **work stealing at session grain**. Every worker keeps a
//! deque of *resident* sessions and rotates through them, pumping a bounded
//! number of ready chunk batches per turn (the fairness bound). A worker
//! whose own sessions have nothing pending steals the most recently queued
//! *runnable* session — one with buffered batches — from another worker's
//! deque. Because the unit of theft is the whole session, its lifeguard,
//! dispatch pipeline and shadow-memory shard transfer to the thief along
//! with the pending batches: the session is always pumped by exactly one
//! thread at a time — a worker, or a helping producer (below) — so the hot
//! path stays lock- and shared-metadata-free while a hot tenant can no
//! longer starve the sessions that used to be pinned behind it.
//!
//! **One lock.** Who holds which session is decided by the pure state
//! machine of `protocol` (deques, checkouts, runnable sessions, the
//! epoch-job queue, parked workers and their pending rings, helped turns in
//! flight, shutdown) behind one `Mutex`, with one `Condvar` per worker to
//! park on. This file drives it: every worker move, helped turn, publish,
//! close and shutdown is one short critical section that returns what to
//! do outside it. Lock order is protocol, then channel, never the reverse —
//! in practice never both: a session's runnability reaches the protocol
//! only through a publish or a give-back. The tests explore every
//! interleaving of those critical sections at small bounds.
//!
//! **Backpressure is work-conserving.** A producer that has to wait on the
//! pool — a [`SessionHandle::send_batch`] refused by a full channel, an
//! idle `Ingestor` pass, a [`SessionHandle::finish`] whose report is not
//! ready — first runs lifeguard work on its own thread
//! ([`MonitorPool::help`]): it takes a runnable session off a worker's
//! deque exactly as a thief would, pumps one fairness turn, and puts the
//! session back on the deque it came from, so the session's home (and
//! every producer wakeup) stays with that worker. It blocks or sleeps only
//! when nothing is runnable, or when a worker is parked: that worker is the
//! idle capacity, and the producer's own publishes wake it. A full channel
//! still refuses the producer's own batch: backpressure holds, and the wait
//! is spent monitoring instead of idling a host core.
//!
//! **Tees run on the pumping thread.** A session opened with
//! [`MonitorPool::open_session_teed`] carries a [`SessionTee`]: whichever
//! thread pumps a batch — the home worker, a thief, a helping producer or
//! a pipelined session's spine — runs the tee on it just before the
//! dispatch, so a captured tenant's producer only publishes and the
//! encoding happens on the lifeguard side, as the paper's log producer /
//! lifeguard consumer split has it.
//!
//! The per-session hot path is batch-grain end to end: one
//! [`igm_core::DispatchPipeline::dispatch_batch`] call expands a chunk through
//! extraction → IT → ETCT → IF into a reusable [`EventBuf`], and one
//! [`Lifeguard::handle_batch`] call (static dispatch through
//! [`AnyLifeguard`]) runs the handlers — no closure, virtual call or heap
//! allocation per record.
//!
//! **Intra-session epoch pipelining** breaks the one-session-one-worker
//! wall for a *hot* tenant: when a session's log channel stays at least
//! half full for a few consecutive pump turns while another worker sits
//! parked (or always, under [`PipelineMode::Always`]), its owner switches
//! to an update-only spine —
//! events the lifeguard's [`LifeguardKind::spine_elides`] mask marks
//! metadata-pure are skipped — and accumulates the drained record batches
//! into epochs sized by [`EpochConfig`] that ship through the shared
//! injector as `EpochJob`s. Any worker serves the injector, interleaved
//! with session traffic; one job occupies its worker for one epoch's worth
//! of records. Each job replays its epoch's full event stream against the
//! boundary-snapshotted shadow state and dispatch pipeline, so the emitted
//! violation sequence is byte-identical to sequential monitoring; results
//! merge back in epoch order and their arenas recycle into the session's
//! spare pool. When the backlog drains the session drops back to plain
//! pumping.

mod protocol;

use crate::epoch::EpochConfig;
use crate::gate::{self, Entry};
use crate::spsc::{
    log_channel_with, ChannelObs, ChannelStatsSnapshot, LogConsumer, LogProducer, SendError,
};
use crate::stats::{PoolStats, PoolStatsSnapshot, SessionReport};
use igm_core::AccelConfig;
use igm_lba::{chunks, EventBuf, TraceBatch};
use igm_lifeguards::{AnyLifeguard, CostSink, Lifeguard, LifeguardKind, Monitor, Violation};
use igm_obs::{
    Counter, Detail, EventKind, EventRing, Gauge, Histogram, MetricsRegistry, RouteHandler,
    StatsServer,
};
use igm_span::{
    alloc_flow, tenant_id, FlightRecorder, FrameTag, RecordId, Sampler, SpanConfig, SpanRecord,
    Stage, Track,
};
use protocol::{By, Checkout, Notify, Protocol, Step};
use std::collections::BTreeMap;
use std::net::ToSocketAddrs;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Pool construction parameters.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Worker (lifeguard shard) threads. Defaults to the host's
    /// [`available_parallelism`](std::thread::available_parallelism)
    /// clamped to `1..=4`: workers beyond the cores only park, and a parked
    /// worker reads as idle capacity to [`PipelineMode::Auto`].
    pub workers: usize,
    /// Per-session log channel capacity in compressed-record bytes
    /// (defaults to the paper's 64 KB buffer).
    pub channel_capacity_bytes: u32,
    /// Producer-side batch size in compressed-record bytes.
    pub chunk_bytes: u32,
    /// When sessions switch to intra-session epoch pipelining
    /// ([`PipelineMode::Auto`] by default: hot sessions only).
    pub pipeline: PipelineMode,
    /// Epoch sizing for pipelined sessions. Defaults to
    /// [`EpochConfig::adaptive`] — epochs are steady-state now, so the
    /// check-density feedback sizing is the pool default.
    pub epoch: EpochConfig,
}

/// When a session switches to intra-session epoch pipelining.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PipelineMode {
    /// Pipeline a hot session only into idle capacity. Pipelining replays
    /// every record a second time, so it needs a worker that would
    /// otherwise idle. A session whose lifeguard's spine can elide
    /// something ([`LifeguardKind::spine_elides_any`]) and whose log
    /// channel has been at least half full for a few consecutive pump
    /// turns enters only if another worker was parked when its worker
    /// checked the session out — never on a one-worker pool, nor while
    /// every worker is busy with its own tenants — and drops back once the
    /// backlog drains. Only workers decide: a turn a waiting producer runs
    /// ([`MonitorPool::help`]) pumps an already pipelined session's spine
    /// but never enters the pipeline, so a producer helping while the only
    /// worker is parked cannot make a one-worker pool pipeline.
    /// Whichever way the decision falls, the session's violations and
    /// `DispatchStats` are those of sequential monitoring. The decision's
    /// inputs and the two rates (plain just before entry, the stretch's
    /// own) land in the event ring (`pipeline_enter`, `pipeline_exit`);
    /// declined opportunities count into
    /// `igm_epoch_pipeline_declined_total{reason}`. A stretch is not yet
    /// ended early when it measures slower than plain pumping: no measured
    /// workload supports such a rule. The default.
    #[default]
    Auto,
    /// Pipeline every session from its first record, whatever the
    /// lifeguard (bench/determinism-test mode).
    Always,
    /// Never pipeline.
    Never,
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()).clamp(1, 4),
            channel_capacity_bytes: igm_lba::buffer::DEFAULT_CAPACITY_BYTES,
            // A quarter of the 64 KB buffer per producer-side chunk: on the
            // batch-grain hot path the per-chunk costs (channel lock, wake,
            // dispatch setup) are fixed, so larger chunks amortize them —
            // 16 KB measures ~25-40% faster than 4 KB at every worker count
            // while still keeping four chunks in flight per channel.
            chunk_bytes: 16 * 1024,
            pipeline: PipelineMode::default(),
            epoch: EpochConfig::adaptive(),
        }
    }
}

impl PoolConfig {
    /// A pool with `workers` workers and default transport sizes.
    pub fn with_workers(workers: usize) -> PoolConfig {
        PoolConfig { workers, ..PoolConfig::default() }
    }
}

/// Per-tenant monitoring configuration.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Tenant label for reports and the violation stream.
    pub name: String,
    /// Which lifeguard monitors this tenant.
    pub lifeguard: LifeguardKind,
    /// Requested accelerators (masked by the lifeguard's Figure 2 row).
    pub accel: AccelConfig,
    /// Synthetic-workload mode (see
    /// [`igm_lifeguards::Lifeguard::set_synthetic_workload_mode`]).
    pub synthetic_workload: bool,
    /// Loader-established regions pre-marked before monitoring starts.
    pub premark: Vec<(u32, u32)>,
    /// Durable trace id ([`igm_span::trace_id`] of the captured
    /// artifact's stem) when this session's record stream is teed to a
    /// trace file; `0` for a live-only stream. Violations then carry
    /// [`igm_span::RecordId`]s that join against the trace lake. Never
    /// wire-encoded — capture/ingest assigns it server-side.
    pub trace: u32,
}

impl SessionConfig {
    /// A baseline (unaccelerated) session.
    pub fn new(name: impl Into<String>, lifeguard: LifeguardKind) -> SessionConfig {
        SessionConfig {
            name: name.into(),
            lifeguard,
            accel: AccelConfig::baseline(),
            synthetic_workload: false,
            premark: Vec::new(),
            trace: 0,
        }
    }

    /// Replaces the accelerator configuration.
    pub fn accel(mut self, accel: AccelConfig) -> SessionConfig {
        self.accel = accel;
        self
    }

    /// Enables synthetic-workload mode.
    pub fn synthetic(mut self) -> SessionConfig {
        self.synthetic_workload = true;
        self
    }

    /// Adds pre-marked regions.
    pub fn premark(mut self, regions: &[(u32, u32)]) -> SessionConfig {
        self.premark.extend_from_slice(regions);
        self
    }

    /// Tags the session with a durable trace id (see
    /// [`SessionConfig::trace`]).
    pub fn trace(mut self, trace: u32) -> SessionConfig {
        self.trace = trace;
        self
    }
}

/// A per-session hook the pool runs on every batch of a session opened
/// with [`MonitorPool::open_session_teed`] — the capture paths' trace
/// writer, for instance.
///
/// The contract:
/// - **Order.** The thread that pumps a batch runs the tee on it before
///   the dispatch: exactly once per batch, in channel order, and never
///   concurrently (one thread pumps a session at a time). That thread
///   may be any worker or a producer helping the pool
///   ([`MonitorPool::help`]), so the tee is `Send`.
/// - **Failure.** A batch the tee refuses (`Err`) is not monitored, and
///   no later batch is either: the session drains and drops the rest, so
///   whatever the tee recorded covers every batch the session processed.
///   The pool does not report the error; the tee keeps it for its owner.
/// - **Finish.** The pool drops the tee before it sends the session's
///   report, so once [`SessionHandle::finish`] returns, the owner can
///   reclaim what the tee shared.
///
/// A tee that shares state with its owner must never hold it across the
/// owner's [`SessionHandle::send_batch`], [`SessionHandle::finish`] or
/// [`MonitorPool::help`]: a helped turn may run this very tee on the
/// owner's thread.
pub trait SessionTee: Send {
    /// Records `batch`, the session's next batch in channel order.
    fn tee(&mut self, batch: &TraceBatch) -> std::io::Result<()>;
}

/// Whether a session's batches go through a [`SessionTee`] first.
enum Tee {
    Off,
    On(Box<dyn SessionTee>),
    /// The tee refused a batch: this and every later batch is dropped
    /// unmonitored.
    Refused,
}

impl Tee {
    /// Runs the tee on `batch`; whether the batch may be monitored.
    fn admits(&mut self, batch: &TraceBatch) -> bool {
        match self {
            Tee::Off => true,
            Tee::On(tee) => {
                let ok = tee.tee(batch).is_ok();
                if !ok {
                    *self = Tee::Refused;
                }
                ok
            }
            Tee::Refused => false,
        }
    }
}

/// Identifies a session within a pool.
pub type SessionId = u64;

/// One violation, tagged with its reporting session, flowing through the
/// pool's aggregated [`ViolationStream`].
#[derive(Debug, Clone)]
pub struct PoolViolation {
    /// Reporting session.
    pub session: SessionId,
    /// Tenant label.
    pub tenant: String,
    /// Which lifeguard reported.
    pub lifeguard: LifeguardKind,
    /// Global id of the faulting trace record, when the session carries
    /// a durable trace identity ([`SessionConfig::trace`]) and the
    /// violation anchors to a record — the lake join key.
    pub record: Option<RecordId>,
    /// The violation itself.
    pub violation: Violation,
}

/// Aggregated, pool-wide stream of violations in arrival order (per-session
/// order is preserved; cross-session order is arrival order).
#[derive(Debug)]
pub struct ViolationStream {
    rx: Receiver<PoolViolation>,
}

impl ViolationStream {
    /// Drains everything currently available without blocking.
    pub fn drain(&self) -> Vec<PoolViolation> {
        self.rx.try_iter().collect()
    }

    /// Blocks up to `timeout` for the next violation.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<PoolViolation> {
        self.rx.recv_timeout(timeout).ok()
    }
}

/// An epoch of a pipelined session's records, checked against its
/// snapshotted lifeguard shard (see [`ActiveSession::pump_pipelined`]).
pub(crate) struct EpochJob {
    pub index: usize,
    /// The session's lifeguard and dispatch pipeline at the epoch boundary.
    pub monitor: Monitor<AnyLifeguard>,
    /// The epoch's record batches, replayed in order against the snapshot.
    pub records: Vec<TraceBatch>,
    /// Global record sequence of the epoch's first record (for violation
    /// record-id attribution).
    pub first_record: u64,
    pub done: Sender<EpochResult>,
    /// The shipping session, published when the result lands so it is
    /// pumped to drain it. (The session accounts records, delivered events
    /// and violations on its live spine; the job adds nothing to the pool
    /// totals but its count.)
    pub session: SessionId,
}

/// Result of one [`EpochJob`].
#[derive(Debug)]
pub(crate) struct EpochResult {
    pub index: usize,
    pub violations: Vec<Violation>,
    /// Parallel to `violations`: each one's global record sequence
    /// ([`Monitor::record_seqs`]).
    pub violation_seqs: Vec<Option<u64>>,
    /// The job's record batches, handed back so the session can recycle
    /// their column capacity instead of reallocating.
    pub records: Vec<TraceBatch>,
    /// The job's lifeguard panicked: the epoch's violations are unknown
    /// and the session must not emit a silently truncated sequence.
    pub failed: bool,
}

/// State shared by the workers, the pool handle and every session handle.
struct PoolShared {
    /// The ownership protocol ([`protocol`]): the pool's one lock.
    proto: Mutex<Protocol<ActiveSession, EpochJob>>,
    /// One condition variable per worker, parked on under `proto`.
    bells: Vec<Condvar>,
    stats: PoolStats,
    /// The flight-recorder ring helped turns record into, so helpers never
    /// write into a worker's single-writer ring. Helping threads share it:
    /// each record claims its slot atomically, so two helpers write the
    /// same slot only if the ring laps during one write.
    helper_ring: usize,
    violations_tx: Sender<PoolViolation>,
    stream_taken: AtomicBool,
    /// The registry everything below reports into.
    metrics: Arc<MetricsRegistry>,
    /// `igm_dispatch_batch_nanos{lifeguard=…}`, indexed in
    /// [`LifeguardKind::ALL`] order; sessions clone their kind's handle.
    dispatch_hists: Vec<Histogram>,
    /// `igm_pool_epoch_job_nanos`.
    epoch_hist: Histogram,
    /// `igm_epoch_pipeline_active`: sessions currently pipelined.
    pipeline_active: Gauge,
    /// `igm_epoch_backlog_records`: records accepted by pipelined spines
    /// but not yet emitted by their epoch jobs.
    epoch_backlog: Gauge,
    /// `igm_epoch_pipeline_declined_total{reason="no_idle_worker"}`: hot
    /// sessions [`PipelineMode::Auto`] left on the plain path because no
    /// other worker was parked.
    declined_no_idle_worker: Counter,
    /// `igm_pool_parked_workers`: workers parked on their condition
    /// variables — the idle capacity [`PipelineMode::Auto`] pipelines into.
    parked: Gauge,
    /// `igm_epoch_journal_checks_total{lifeguard=…}`, indexed in
    /// [`LifeguardKind::ALL`] order: spine-elided (journaled) events whose
    /// checks were deferred to epoch jobs.
    journal_counters: Vec<Counter>,
    /// Registry handles every session log channel clones
    /// (`igm_channel_queue_latency_nanos`, `igm_channel_occupancy_bytes`).
    channel_obs: ChannelObs,
    /// The span flight recorder. Workers stamp
    /// `channel_wait`/`dispatch`/`epoch_job` stages for tagged (sampled)
    /// frames; `igm-net` endpoints attach to the same recorder so
    /// wire-side stages join the pool-side chains.
    recorder: Arc<FlightRecorder>,
    /// `igm_span_stage_nanos{stage=…}` for the pool-side stages.
    span_hists: SpanStageHists,
    /// Span origin for epoch jobs: they carry no producer frame tag, so
    /// sampled jobs chain under the pool's own epoch flow, keyed by job
    /// index.
    epoch_span: EpochSpan,
}

/// Pool-side stage histograms, indexed by name for the hot path.
struct SpanStageHists {
    channel_wait: Histogram,
    dispatch: Histogram,
    epoch_job: Histogram,
}

/// Flow id and sampler for the epoch-job span origin.
struct EpochSpan {
    flow: u32,
    sampler: Sampler,
}

impl PoolShared {
    fn proto(&self) -> MutexGuard<'_, Protocol<ActiveSession, EpochJob>> {
        self.proto.lock().unwrap()
    }

    /// Wakes the parked workers a transition named (after the lock is
    /// released, so the woken worker does not block on it at once).
    fn notify(&self, notify: Notify) {
        match notify {
            Notify::Nobody => {}
            Notify::One(w) => self.bells[w].notify_one(),
            Notify::All => self.bells.iter().for_each(Condvar::notify_one),
        }
    }

    /// Marks `session` runnable: its producer published or closed, or one
    /// of its epoch jobs reported.
    fn publish(&self, session: SessionId) {
        let notify = self.proto().publish(session);
        self.notify(notify);
    }

    /// Publishes an epoch job on the shared queue; any worker serves it.
    fn submit_epoch(&self, job: EpochJob) {
        let notify = self.proto().submit(job);
        self.notify(notify);
    }

    /// [`MonitorPool::help`]: a [`Protocol::help`] checkout, one turn.
    fn help(&self) -> bool {
        let Some(checkout) = self.proto().help() else { return false };
        self.stats.helped_turns.inc();
        let by = Pumper { ring: self.helper_ring, track: helper_track() };
        pump_owned(By::Helper, by, checkout, self, &self.stats)
    }

    /// Parks worker `w` until it is rung, unless a ring is already pending.
    fn park(&self, w: usize, stats: &PoolStats) {
        let mut proto = self.proto();
        if !proto.park(w) {
            return;
        }
        stats.parks.inc();
        self.parked.add(1);
        while !proto.woken(w) {
            proto = self.bells[w].wait(proto).unwrap();
        }
        self.parked.sub(1);
    }
}

/// The streaming, multi-tenant monitoring runtime.
///
/// # Example
///
/// ```
/// use igm_lifeguards::LifeguardKind;
/// use igm_runtime::{MonitorPool, PoolConfig, SessionConfig};
/// use igm_isa::{Annotation, OpClass, MemRef, Reg, TraceEntry};
///
/// let pool = MonitorPool::new(PoolConfig::with_workers(2));
/// let session = pool.open_session(SessionConfig::new("app0", LifeguardKind::AddrCheck));
/// session.send_batch(vec![
///     TraceEntry::annot(0x1000, Annotation::Malloc { base: 0x9000, size: 64 }),
///     TraceEntry::op(0x1004, OpClass::MemToReg { src: MemRef::word(0x9000), rd: Reg::Eax }),
///     // Touches one byte past the allocation: a violation.
///     TraceEntry::op(0x1008, OpClass::MemToReg { src: MemRef::word(0x9040), rd: Reg::Ecx }),
/// ]).unwrap();
/// let report = session.finish();
/// assert_eq!(report.records, 3);
/// assert_eq!(report.violations.len(), 1);
/// pool.shutdown();
/// ```
pub struct MonitorPool {
    shared: Arc<PoolShared>,
    joins: Vec<JoinHandle<()>>,
    next_session: AtomicU64,
    violations_rx: Mutex<Option<Receiver<PoolViolation>>>,
    chunk_bytes: u32,
    channel_capacity_bytes: u32,
    pipeline_mode: PipelineMode,
    epoch_cfg: EpochConfig,
}

impl MonitorPool {
    /// Spawns the worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.workers` is zero, or if `cfg.epoch` bounds no
    /// positive record count (`min == 0` or `min > max`).
    pub fn new(cfg: PoolConfig) -> MonitorPool {
        assert!(cfg.workers > 0, "a pool needs at least one worker");
        assert!(cfg.epoch.min > 0, "epochs must hold at least one record");
        assert!(cfg.epoch.min <= cfg.epoch.max, "epoch bounds must satisfy min <= max");
        let (vtx, vrx) = mpsc::channel();
        let metrics = Arc::new(MetricsRegistry::new());
        let dispatch_hists = LifeguardKind::ALL
            .iter()
            .map(|kind| {
                metrics.histogram_with(
                    "igm_dispatch_batch_nanos",
                    "per-batch dispatch + handler latency",
                    &[("lifeguard", kind.name())],
                )
            })
            .collect();
        let journal_counters = LifeguardKind::ALL
            .iter()
            .map(|kind| {
                metrics.counter_with(
                    "igm_epoch_journal_checks_total",
                    "spine-elided (journaled) events whose checks ran in epoch jobs",
                    &[("lifeguard", kind.name())],
                )
            })
            .collect();
        let recorder = Arc::new(FlightRecorder::new(SpanConfig {
            // One ring per worker, one for helped turns, plus headroom for
            // the ingest lanes and forwarders that attach to the pool's
            // recorder; each writer site claims its own via `ring_handle`.
            rings: cfg.workers + 9,
            ..SpanConfig::default()
        }));
        let span_hist = |stage: Stage| {
            metrics.histogram_with(
                "igm_span_stage_nanos",
                "per-stage latency of sampled frames (span flight recorder)",
                &[("stage", stage.name())],
            )
        };
        let span_hists = SpanStageHists {
            channel_wait: span_hist(Stage::ChannelWait),
            dispatch: span_hist(Stage::Dispatch),
            epoch_job: span_hist(Stage::EpochJob),
        };
        let epoch_span = EpochSpan { flow: alloc_flow(), sampler: recorder.sampler() };
        let channel_obs = ChannelObs {
            queue_latency: metrics.histogram(
                "igm_channel_queue_latency_nanos",
                "log-channel send-to-drain latency per batch",
            ),
            occupancy_bytes: metrics.gauge(
                "igm_channel_occupancy_bytes",
                "live compressed bytes buffered across the pool's log channels",
            ),
        };
        let shared = Arc::new(PoolShared {
            proto: Mutex::new(Protocol::new(cfg.workers)),
            bells: (0..cfg.workers).map(|_| Condvar::new()).collect(),
            stats: PoolStats::new(&metrics),
            helper_ring: recorder.ring_handle(),
            violations_tx: vtx,
            stream_taken: AtomicBool::new(false),
            dispatch_hists,
            epoch_hist: metrics
                .histogram("igm_pool_epoch_job_nanos", "epoch-job execution latency"),
            pipeline_active: metrics.gauge(
                "igm_epoch_pipeline_active",
                "sessions currently running the intra-session epoch pipeline",
            ),
            epoch_backlog: metrics.gauge(
                "igm_epoch_backlog_records",
                "records accepted by pipelined spines but not yet emitted by epoch jobs",
            ),
            declined_no_idle_worker: metrics.counter_with(
                "igm_epoch_pipeline_declined_total",
                "hot sessions the Auto gate left on the plain path",
                &[("reason", gate::DECLINED_NO_IDLE_WORKER)],
            ),
            parked: metrics.gauge("igm_pool_parked_workers", "workers parked waiting for work"),
            journal_counters,
            channel_obs,
            metrics,
            recorder,
            span_hists,
            epoch_span,
        });
        let joins = (0..cfg.workers)
            .map(|i| {
                let wshared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("igm-worker-{i}"))
                    .spawn(move || worker_main(i, wshared))
                    .expect("spawn lifeguard worker")
            })
            .collect();
        MonitorPool {
            shared,
            joins,
            next_session: AtomicU64::new(0),
            violations_rx: Mutex::new(Some(vrx)),
            chunk_bytes: cfg.chunk_bytes,
            channel_capacity_bytes: cfg.channel_capacity_bytes,
            pipeline_mode: cfg.pipeline,
            epoch_cfg: cfg.epoch,
        }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.shared.bells.len()
    }

    /// Opens a tenant session: builds the lifeguard shard, places it on a
    /// worker's deque (round-robin; the stealing scheduler corrects any
    /// imbalance at run time) and returns the producer-side handle. Its
    /// batches are monitored as published; to record them on the way, open
    /// it with [`MonitorPool::open_session_teed`].
    pub fn open_session(&self, cfg: SessionConfig) -> SessionHandle {
        self.open(cfg, Tee::Off)
    }

    /// Like [`MonitorPool::open_session`], but every batch the session
    /// pumps first goes through `tee`, on the pumping thread (see
    /// [`SessionTee`] for the order, failure and finish contract). A
    /// producer that tees this way only publishes: the tee's work lands
    /// on whichever thread monitors the batch.
    pub fn open_session_teed(
        &self,
        cfg: SessionConfig,
        tee: impl SessionTee + 'static,
    ) -> SessionHandle {
        self.open(cfg, Tee::On(Box::new(tee)))
    }

    fn open(&self, cfg: SessionConfig, tee: Tee) -> SessionHandle {
        let id = self.next_session.fetch_add(1, Ordering::Relaxed);
        let monitor =
            Monitor::build(cfg.lifeguard, &cfg.accel, cfg.synthetic_workload, &cfg.premark);
        let (producer, consumer) =
            log_channel_with(self.channel_capacity_bytes, self.shared.channel_obs.clone());
        let (done_tx, done_rx) = mpsc::channel();
        let kind_index = LifeguardKind::ALL
            .iter()
            .position(|k| *k == cfg.lifeguard)
            .expect("every lifeguard kind is in ALL");
        self.shared.metrics.events().record(EventKind::SessionOpen {
            session: id,
            tenant: cfg.name.clone(),
            lifeguard: cfg.lifeguard.name().to_owned(),
        });
        let session = ActiveSession {
            id,
            tenant_hash: tenant_id(&cfg.name),
            trace: cfg.trace,
            name: cfg.name,
            monitor,
            tee,
            consumer,
            done: done_tx,
            opened: Instant::now(),
            records: 0,
            violations: Vec::new(),
            violation_records: Vec::new(),
            dispatch_hist: self.shared.dispatch_hists[kind_index].clone(),
            journal_counter: self.shared.journal_counters[kind_index].clone(),
            pipeline_mode: self.pipeline_mode,
            epoch_cfg: self.epoch_cfg,
            hot_turns: 0,
            hot_since: None,
            carried_budget: None,
            pipe: None,
        };
        self.shared.stats.sessions_opened.inc();
        self.shared.proto().open(id, session);
        // The session is its own span origin for frames sent through the
        // handle: a fresh flow, a frame counter, a per-frame sampler.
        let spans = SessionSpans {
            flow: alloc_flow(),
            next_frame: AtomicU64::new(0),
            sampler: self.shared.recorder.sampler(),
        };
        SessionHandle {
            id,
            producer: Some(producer),
            shared: Arc::clone(&self.shared),
            done: done_rx,
            chunk_bytes: self.chunk_bytes,
            channel_capacity_bytes: self.channel_capacity_bytes,
            spans,
        }
    }

    /// Runs one lifeguard turn on the calling thread if any session is
    /// runnable and no worker is parked (a parked worker is left the
    /// work), and returns whether it made progress. This is what a
    /// producer does instead of waiting on the pool:
    /// [`SessionHandle::send_batch`] calls it while its channel is full
    /// and [`SessionHandle::finish`] while its report is not ready, and an
    /// `Ingestor` calls it on a pass that published nothing. The turn takes
    /// the most recently queued session with pending batches off a worker's
    /// deque, pumps it as that worker would (panics contained, records
    /// counted once, [`PoolStatsSnapshot::helped_turns`] incremented) and
    /// puts it back. A caller that gets `false` should block or sleep as it
    /// would have without helping.
    pub fn help(&self) -> bool {
        self.shared.help()
    }

    /// Takes the pool-wide violation stream. Yields `Some` on the first
    /// call, `None` afterwards (single consumer).
    ///
    /// Workers forward violations into the stream only from the moment it
    /// is taken (earlier ones are still in their session's
    /// [`SessionReport::violations`]); take the stream before opening
    /// sessions to observe everything.
    pub fn violation_stream(&self) -> Option<ViolationStream> {
        let taken = self.violations_rx.lock().unwrap().take().map(|rx| ViolationStream { rx });
        if taken.is_some() {
            self.shared.stream_taken.store(true, Ordering::Relaxed);
        }
        taken
    }

    /// A point-in-time view of the pool's aggregate counters.
    pub fn stats(&self) -> PoolStatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// The metrics registry the pool reports into. Other subsystems
    /// register their metrics here to share the pool's stats endpoint.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.shared.metrics
    }

    /// The pool's structured lifecycle-event ring (session open/close,
    /// steals, violations — plus whatever other subsystems on the same
    /// registry record).
    pub fn events(&self) -> &EventRing {
        self.shared.metrics.events()
    }

    /// The span flight recorder following sampled frames through the
    /// pipeline: sampled frames get `channel_wait`/`dispatch` stage
    /// records, epoch jobs get `epoch_job` ones, and a violation snapshots
    /// its frame's span chain into the event ring. An unsampled frame
    /// costs one branch per batch. Hand it to `igm-net` endpoints
    /// (`attach_spans`) so wire-side stages land in the same recorder and
    /// join the pool-side chains.
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.shared.recorder
    }

    /// Starts a [`StatsServer`] on `addr` serving this pool's registry and
    /// span recorder: `GET /metrics` (Prometheus text), `/stats.json`,
    /// `/events.json`, `/spans.json` and `/trace`, plus the custom
    /// [`RouteHandler`]s in `routes` (e.g. a trace lake's `/lake/*`
    /// routes). Bind port 0 to let the OS pick; the server stops on drop.
    pub fn serve_stats(
        &self,
        addr: impl ToSocketAddrs,
        routes: Vec<Arc<dyn RouteHandler>>,
    ) -> std::io::Result<StatsServer> {
        StatsServer::serve(
            addr,
            Arc::clone(&self.shared.metrics),
            Some(Arc::clone(&self.shared.recorder)),
            routes,
        )
    }

    /// Stops the workers and joins the threads; called implicitly on drop.
    ///
    /// Sessions whose producers already finished are finalized normally.
    /// A session whose [`SessionHandle`] is still live is *terminated*:
    /// buffered batches are drained, the session is finalized, and further
    /// `send_batch` calls on the handle fail with [`SendError`] — shutdown
    /// never deadlocks waiting on a producer that will not close.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        let notify = self.shared.proto().shutdown();
        self.shared.notify(notify);
        for join in self.joins.drain(..) {
            if join.join().is_err() {
                eprintln!("igm-runtime: a lifeguard worker panicked");
            }
        }
    }
}

impl Drop for MonitorPool {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Producer-side handle for one tenant session.
///
/// Dropping the handle without [`SessionHandle::finish`] closes the log
/// channel; the owning worker still drains buffered records and finalizes
/// the session, but the report is discarded.
pub struct SessionHandle {
    id: SessionId,
    producer: Option<LogProducer>,
    shared: Arc<PoolShared>,
    done: Receiver<SessionReport>,
    chunk_bytes: u32,
    channel_capacity_bytes: u32,
    /// Span origin for frames this handle publishes.
    spans: SessionSpans,
}

/// Per-session span origin: the flow id, the frame counter, and the
/// once-per-frame sampling decision.
struct SessionSpans {
    flow: u32,
    next_frame: AtomicU64,
    sampler: Sampler,
}

impl SessionSpans {
    /// Advances the frame counter (every frame gets an ordinal) and tags
    /// the sampled minority.
    fn tag_frame(&self) -> Option<FrameTag> {
        let seq = self.next_frame.fetch_add(1, Ordering::Relaxed);
        self.sampler.sample().then_some(FrameTag { flow: self.flow, seq })
    }
}

impl SessionHandle {
    /// The session's pool-wide id.
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// The pool's configured producer-side chunk size in compressed-record
    /// bytes (what [`SessionHandle::stream`] batches at).
    pub fn chunk_bytes(&self) -> u32 {
        self.chunk_bytes
    }

    /// The session's log-channel capacity in compressed-record bytes — the
    /// denominator of the occupancy accounting
    /// ([`SessionHandle::channel_stats`] `used_bytes` / this), which
    /// flow-controlled ingest front-ends (`igm-net`) turn into send
    /// credits for remote producers.
    pub fn channel_capacity_bytes(&self) -> u32 {
        self.channel_capacity_bytes
    }

    /// Publishes one pre-batched chunk of records, waiting out
    /// backpressure. Accepts anything convertible into a columnar
    /// [`TraceBatch`] (a `TraceBatch` moves through untouched; a
    /// `Vec<TraceEntry>` converts). While the channel is full the calling
    /// thread runs runnable sessions' turns ([`MonitorPool::help`]), this
    /// session's own included, and retries; it blocks only when `help`
    /// finds nothing to run, and only that blocking counts as a producer
    /// stall. An
    /// empty batch is a no-op. Fails once the session is
    /// [`close`](SessionHandle::close)d or the pool has shut down under it
    /// (or, mid-wait, once a helped turn of this session panicked).
    pub fn send_batch(&self, batch: impl Into<TraceBatch>) -> Result<(), SendError> {
        let mut batch = batch.into();
        let Some(producer) = self.producer.as_ref() else {
            return Err(SendError(Box::new(batch)));
        };
        // Nothing to publish: no frame ordinal, no sampling turn, no wakeup.
        if batch.is_empty() {
            return Ok(());
        }
        let tag = self.spans.tag_frame();
        while let Some(refused) = producer.try_publish(batch, tag)? {
            if !self.shared.help() {
                let r = producer.send_batch_tagged(refused, tag);
                self.shared.publish(self.id);
                return r;
            }
            batch = refused;
        }
        self.shared.publish(self.id);
        Ok(())
    }

    /// Publishes one batch without blocking: `Ok(None)` on success,
    /// `Ok(Some(batch))` when the log channel is full (the caller retries
    /// later — the multiplexed-ingest backpressure path), `Err` once the
    /// session is closed or the pool has shut down under it.
    pub fn try_send_batch(
        &self,
        batch: impl Into<TraceBatch>,
    ) -> Result<Option<TraceBatch>, SendError> {
        self.try_send_batch_tagged(batch, None)
    }

    /// [`SessionHandle::try_send_batch`] carrying an explicit span tag
    /// stamped at the frame's origin (an `igm-net` lane forwarding a
    /// remote producer's tag): the wire tag wins, so a loopback waterfall
    /// joins client- and server-side stages under one flow. With no wire
    /// tag the session's own sampler decides, exactly as
    /// [`SessionHandle::try_send_batch`] does — frames the origin did not
    /// sample may still be sampled server-side under the session's flow.
    pub fn try_send_batch_tagged(
        &self,
        batch: impl Into<TraceBatch>,
        wire_tag: Option<FrameTag>,
    ) -> Result<Option<TraceBatch>, SendError> {
        let batch = batch.into();
        let Some(producer) = self.producer.as_ref() else {
            return Err(SendError(Box::new(batch)));
        };
        if batch.is_empty() {
            return Ok(None);
        }
        let tag = wire_tag.or_else(|| self.spans.tag_frame());
        let r = producer.try_send_batch_tagged(batch, tag);
        if let Ok(None) = r {
            self.shared.publish(self.id);
        }
        r
    }

    /// Streams a whole trace, batching it with [`igm_lba::chunks`] at the
    /// pool's configured chunk size. Chunks are built column-first into
    /// recycled batch arenas ([`SessionHandle::spare_batch`]), so a
    /// steady-state producer allocates nothing per chunk.
    pub fn stream(
        &self,
        trace: impl IntoIterator<Item = igm_isa::TraceEntry>,
    ) -> Result<(), SendError> {
        let mut chunker = chunks(trace, self.chunk_bytes);
        let mut batch = self.spare_batch();
        while chunker.next_into_batch(&mut batch) {
            let next = self.spare_batch();
            self.send_batch(std::mem::replace(&mut batch, next))?;
        }
        Ok(())
    }

    /// A recycled (or fresh) batch arena to fill for the next
    /// [`SessionHandle::send_batch`]: the consumer hands drained arenas
    /// back through the channel, so their column capacity circulates
    /// instead of being reallocated per chunk.
    pub fn spare_batch(&self) -> TraceBatch {
        self.producer.as_ref().map(LogProducer::spare).unwrap_or_default()
    }

    /// Transport counters for this session's log channel.
    ///
    /// # Panics
    ///
    /// Panics after [`SessionHandle::close`] (the final counters are in
    /// the [`SessionReport`]).
    pub fn channel_stats(&self) -> ChannelStatsSnapshot {
        self.producer.as_ref().expect("producer present until close/finish").stats()
    }

    /// Closes the log channel **without blocking**: the owning worker
    /// drains and finalizes the session in the background. Further sends
    /// fail; call [`SessionHandle::finish`] later to collect the report
    /// (it then only waits, the close already happened). Lets a
    /// multiplexing producer retire one tenant while it keeps feeding the
    /// others.
    pub fn close(&mut self) {
        drop(self.producer.take());
        self.shared.publish(self.id);
    }

    /// Closes the log channel and waits until the session is drained and
    /// finalized. While the report is not ready the calling thread runs
    /// runnable sessions' turns ([`MonitorPool::help`]), this session's own
    /// included; it blocks only when `help` finds nothing to run.
    ///
    /// # Panics
    ///
    /// Panics if the session failed before finalizing (its lifeguard
    /// panicked).
    pub fn finish(mut self) -> SessionReport {
        drop(self.producer.take()); // close the channel
        self.shared.publish(self.id);
        loop {
            match self.done.try_recv() {
                Ok(report) => return report,
                Err(TryRecvError::Empty) if self.shared.help() => {}
                Err(_) => break,
            }
        }
        self.done
            .recv()
            .expect("session failed before finalize (lifeguard panic on this tenant; see stderr)")
    }
}

impl Drop for SessionHandle {
    fn drop(&mut self) {
        // Close the channel (if finish() didn't already) and publish the
        // close, so an abandoned session is drained and finalized.
        drop(self.producer.take());
        self.shared.publish(self.id);
    }
}

// ---------------------------------------------------------------------------
// Worker side.
// ---------------------------------------------------------------------------

struct ActiveSession {
    id: SessionId,
    name: String,
    /// FNV hash of `name` — the tenant half of emitted [`RecordId`]s.
    tenant_hash: u32,
    /// Durable trace id ([`SessionConfig::trace`]; 0 = live-only).
    trace: u32,
    /// The session's lifeguard behind its dispatch pipeline.
    monitor: Monitor<AnyLifeguard>,
    /// Runs on every batch before the dispatch.
    tee: Tee,
    consumer: LogConsumer,
    done: Sender<SessionReport>,
    opened: Instant,
    records: u64,
    violations: Vec<Violation>,
    /// Parallel to `violations`: each entry's attributed record id.
    violation_records: Vec<Option<RecordId>>,
    /// This session's kind's `igm_dispatch_batch_nanos{lifeguard=…}`.
    dispatch_hist: Histogram,
    /// This session's kind's `igm_epoch_journal_checks_total{lifeguard=…}`.
    journal_counter: Counter,
    /// Pool-level pipelining policy (copied from [`PoolConfig`]).
    pipeline_mode: PipelineMode,
    /// Epoch sizing for pipelined stretches (copied from [`PoolConfig`]).
    epoch_cfg: EpochConfig,
    /// Consecutive pump turns the log channel was at least half full (the
    /// [`PipelineMode::Auto`] trigger).
    hot_turns: u32,
    /// When the current run of hot turns began and the record count then:
    /// the plain rate `pipeline_enter` reports is measured from here to
    /// the entry decision.
    hot_since: Option<(Instant, u64)>,
    /// Last adaptive budget of the previous pipelined stretch, re-clamped
    /// on re-entry so a hot phase resumes near where it left off.
    carried_budget: Option<usize>,
    /// Live pipelining state (`Some` while the session is pipelined).
    pipe: Option<Box<PipelineState>>,
}

/// Per-session state while intra-session epoch pipelining is engaged.
struct PipelineState {
    /// Shadow and accelerator/dispatch state at the current epoch
    /// boundary (cloned when the previous epoch shipped); the next job
    /// replays against it. Replaying the identical batch stream through
    /// this clone delivers exactly the events the live spine delivered.
    snapshot: Monitor<AnyLifeguard>,
    /// Record batches accumulated into the current epoch; they travel with
    /// the job and the result hands them back for recycling.
    acc: Vec<TraceBatch>,
    acc_records: usize,
    /// Check events the accumulating epoch delivered (adaptive feedback).
    acc_checks: u64,
    /// Records accepted but not yet emitted (mirrors the pool-wide
    /// `igm_epoch_backlog_records` contribution of this session).
    backlog: i64,
    budget: usize,
    max_in_flight: usize,
    next_index: usize,
    next_emit: usize,
    in_flight: usize,
    /// Results that arrived out of epoch order, held until their turn.
    pending: BTreeMap<usize, EpochResult>,
    tx: Sender<EpochResult>,
    rx: Receiver<EpochResult>,
    /// The spine's staging buffers: every dispatched event, the
    /// non-elided ones it handles, and their (discarded) cost.
    events: EventBuf,
    updates: Vec<igm_lba::DeliveredEvent>,
    cost: CostSink,
    /// When the stretch began, and the records its epochs have emitted
    /// since (the rate `pipeline_exit` reports).
    entered: Instant,
    emitted_records: u64,
}

/// What an entry decision saw (the payload of `pipeline_enter`).
struct EntryInputs {
    channel_used_bytes: u32,
    channel_capacity_bytes: u32,
    hot_turns: u32,
    parked_workers: usize,
    plain_rate: u64,
}

impl ActiveSession {
    fn kind(&self) -> LifeguardKind {
        self.monitor.lifeguard().kind()
    }

    /// Processes up to `max_batches` buffered batches; returns how many
    /// units of progress were made (batches pumped plus epoch results
    /// drained). `stats` is the pumping thread's counter handle; `by` says
    /// who pumps, and `gate` is the checkout's [`Checkout::gate`].
    fn pump(
        &mut self,
        max_batches: usize,
        shared: &PoolShared,
        stats: &PoolStats,
        by: Pumper,
        gate: Option<usize>,
    ) -> usize {
        if self.pipe.is_none() {
            if let Some(inputs) = self.entry_decision(shared, gate) {
                self.enter_pipeline(shared, inputs);
            }
        }
        if self.pipe.is_some() {
            self.pump_pipelined(max_batches, shared, stats)
        } else {
            self.pump_plain(max_batches, shared, stats, by)
        }
    }

    /// Whether this pump turn should switch the session to the pipelined
    /// path, and on what evidence. Under [`PipelineMode::Auto`] this
    /// advances the hot-turn bookkeeping and counts declined opportunities
    /// as a side effect; the verdict itself is [`gate::entry`]'s, on the
    /// parked workers the worker's checkout saw. A helped turn (`gate` is
    /// `None`) leaves the gate and its bookkeeping alone: idle capacity is
    /// a worker's judgement. ([`PipelineMode::Always`] asks for no
    /// judgement, so it enters on whichever turn comes first.)
    fn entry_decision(&mut self, shared: &PoolShared, gate: Option<usize>) -> Option<EntryInputs> {
        if self.pipeline_mode == PipelineMode::Never {
            return None;
        }
        let mut inputs = EntryInputs {
            channel_used_bytes: self.consumer.used_bytes(),
            channel_capacity_bytes: self.consumer.capacity_bytes(),
            hot_turns: 0,
            parked_workers: 0,
            plain_rate: 0,
        };
        if self.pipeline_mode == PipelineMode::Always {
            inputs.parked_workers = gate.unwrap_or(0);
            return Some(inputs);
        }
        let parked = gate?;
        // Pipelining pays off only when the spine can elide work; a
        // full-stream spine (LockSet) would just add replay on top of
        // itself.
        if !self.kind().spine_elides_any() {
            return None;
        }
        if u64::from(inputs.channel_used_bytes) * 2 < u64::from(inputs.channel_capacity_bytes) {
            self.hot_turns = 0;
            self.hot_since = None;
            return None;
        }
        let (hot_from, records_then) =
            *self.hot_since.get_or_insert_with(|| (Instant::now(), self.records));
        self.hot_turns += 1;
        inputs.hot_turns = self.hot_turns;
        inputs.parked_workers = parked;
        match gate::entry(inputs.hot_turns, inputs.parked_workers) {
            Entry::Wait => None,
            Entry::Decline => {
                shared.declined_no_idle_worker.inc();
                self.hot_turns = 0;
                self.hot_since = None;
                None
            }
            Entry::Enter => {
                inputs.plain_rate = gate::records_per_sec(
                    self.records - records_then,
                    hot_from.elapsed().as_nanos() as u64,
                );
                Some(inputs)
            }
        }
    }

    fn enter_pipeline(&mut self, shared: &PoolShared, inputs: EntryInputs) {
        let budget = match self.carried_budget {
            // Re-entry: the carried budget must honor the configuration's
            // clamp from the very first epoch of the new stretch.
            Some(b) => self.epoch_cfg.clamp_budget(b),
            None => self.epoch_cfg.initial_budget(),
        };
        let (tx, rx) = mpsc::channel();
        self.pipe = Some(Box::new(PipelineState {
            snapshot: self.monitor.clone(),
            acc: Vec::new(),
            acc_records: 0,
            acc_checks: 0,
            backlog: 0,
            budget,
            // Bound outstanding jobs (each holds an epoch's record
            // batches) to a small multiple of the worker count; past the
            // cap the spine stops draining the channel and the bounded
            // channel pushes back on the producer.
            max_in_flight: 2 * shared.bells.len() + 1,
            next_index: 0,
            next_emit: 0,
            in_flight: 0,
            pending: BTreeMap::new(),
            tx,
            rx,
            events: EventBuf::new(),
            updates: Vec::new(),
            cost: CostSink::discarding(),
            entered: Instant::now(),
            emitted_records: 0,
        }));
        self.hot_turns = 0;
        self.hot_since = None;
        shared.pipeline_active.add(1);
        shared.metrics.events().record(EventKind::PipelineEnter {
            session: self.id,
            tenant: self.name.clone(),
            channel_used_bytes: inputs.channel_used_bytes,
            channel_capacity_bytes: inputs.channel_capacity_bytes,
            hot_turns: inputs.hot_turns,
            parked_workers: inputs.parked_workers,
            plain_rate: inputs.plain_rate,
        });
    }

    fn exit_pipeline(&mut self, shared: &PoolShared) {
        let pipe = self.pipe.take().expect("exit_pipeline on a non-pipelined session");
        debug_assert_eq!(pipe.backlog, 0, "exited with unemitted records");
        self.carried_budget = Some(pipe.budget);
        shared.pipeline_active.sub(1);
        shared.metrics.events().record(EventKind::PipelineExit {
            session: self.id,
            tenant: self.name.clone(),
            epochs: pipe.next_index as u64,
            stretch_rate: gate::records_per_sec(
                pipe.emitted_records,
                pipe.entered.elapsed().as_nanos() as u64,
            ),
        });
    }

    /// The pipelined pump: update-only spine + epoch job fan-out. Never
    /// blocks on results — with one worker, this same thread must return
    /// to the injector queue to run the jobs it shipped.
    fn pump_pipelined(
        &mut self,
        max_batches: usize,
        shared: &PoolShared,
        stats: &PoolStats,
    ) -> usize {
        let mut progress = usize::from(self.drain_epoch_results(shared, stats));
        let mut processed = 0;
        let kind = self.kind();
        while processed < max_batches {
            {
                let pipe = self.pipe.as_ref().expect("pipelined pump without state");
                // Job window full with a whole epoch already accumulated:
                // stop draining and let the bounded channel backpressure
                // the producer while the workers catch up.
                if pipe.in_flight >= pipe.max_in_flight && pipe.acc_records >= pipe.budget {
                    break;
                }
            }
            let Some((batch, _published, _tag)) = self.consumer.try_recv_batch_tagged() else {
                break;
            };
            processed += 1;
            if !self.tee.admits(&batch) {
                self.consumer.recycle(batch);
                continue;
            }
            self.records += batch.len() as u64;
            stats.records.add(batch.len() as u64);
            // Live dispatch: the spine's pipeline sees every batch, so the
            // session's DispatchStats equal sequential monitoring exactly.
            let pipe = self.pipe.as_mut().expect("pipelined pump without state");
            self.monitor.pipeline_mut().dispatch_batch(&batch, &mut pipe.events);
            pipe.updates.clear();
            let mut elided = 0u64;
            let mut checks = 0u64;
            for ev in pipe.events.events() {
                if crate::epoch::is_check_event(&ev.event) {
                    checks += 1;
                }
                if kind.spine_elides(&ev.event) {
                    elided += 1;
                } else {
                    pipe.updates.push(*ev);
                }
            }
            pipe.acc_checks += checks;
            self.journal_counter.add(elided);
            pipe.cost.clear();
            let lifeguard = self.monitor.lifeguard_mut();
            lifeguard.handle_batch(&pipe.updates, &mut pipe.cost);
            // Spine-side reports are duplicates of what the epoch job
            // derives with exact boundary state; the job is authoritative.
            let _ = lifeguard.take_violations();
            pipe.acc_records += batch.len();
            pipe.backlog += batch.len() as i64;
            shared.epoch_backlog.add(batch.len() as i64);
            pipe.acc.push(batch);
            if pipe.acc_records >= pipe.budget && pipe.in_flight < pipe.max_in_flight {
                self.ship_epoch(shared);
            }
            if self.drain_epoch_results(shared, stats) {
                progress += 1;
            }
        }
        // Backlog drained at the source: flush the partial epoch, and once
        // every shipped job has reported and been emitted in order, drop
        // back to plain pumping.
        if self.consumer.pending_batches() == 0 {
            {
                let pipe = self.pipe.as_ref().expect("pipelined pump without state");
                if !pipe.acc.is_empty() && pipe.in_flight < pipe.max_in_flight {
                    self.ship_epoch(shared);
                }
            }
            if self.drain_epoch_results(shared, stats) {
                progress += 1;
            }
            let pipe = self.pipe.as_ref().expect("pipelined pump without state");
            if pipe.acc.is_empty() && pipe.in_flight == 0 && pipe.pending.is_empty() {
                self.exit_pipeline(shared);
            }
        }
        processed + progress
    }

    /// Ships the accumulated epoch as an [`EpochJob`] and re-snapshots the
    /// spine at the new boundary.
    fn ship_epoch(&mut self, shared: &PoolShared) {
        let pipe = self.pipe.as_mut().expect("ship_epoch on a non-pipelined session");
        if pipe.acc.is_empty() {
            return;
        }
        let job = EpochJob {
            index: pipe.next_index,
            monitor: std::mem::replace(&mut pipe.snapshot, self.monitor.clone()),
            // The live spine already counted the accumulated records, so
            // the epoch's first record sits acc_records behind the total.
            first_record: self.records - pipe.acc_records as u64,
            records: std::mem::take(&mut pipe.acc),
            done: pipe.tx.clone(),
            session: self.id,
        };
        pipe.next_index += 1;
        pipe.in_flight += 1;
        // Adaptive re-budget from the shipped epoch's check density (a
        // no-op under fixed sizing).
        pipe.budget = self.epoch_cfg.next_budget(pipe.acc_records, pipe.acc_checks);
        pipe.acc_records = 0;
        pipe.acc_checks = 0;
        shared.submit_epoch(job);
    }

    /// Collects finished epoch results without blocking and emits the
    /// in-order prefix: violations flow to the stream/event ring exactly
    /// as plain pumping forwards them, and the drained arenas recycle into
    /// the session's spare pool. Returns whether anything was emitted.
    fn drain_epoch_results(&mut self, shared: &PoolShared, stats: &PoolStats) -> bool {
        let Some(pipe) = self.pipe.as_mut() else { return false };
        let mut emitted_any = false;
        while let Ok(r) = pipe.rx.try_recv() {
            pipe.in_flight -= 1;
            pipe.pending.insert(r.index, r);
        }
        loop {
            let pipe = self.pipe.as_mut().expect("drained a non-pipelined session");
            let Some(mut r) = pipe.pending.remove(&pipe.next_emit) else { break };
            pipe.next_emit += 1;
            emitted_any = true;
            if r.failed {
                // Settle the backlog gauge, then let pump_owned's panic
                // isolation drop the session: emitting a truncated
                // violation sequence would be worse than losing the
                // session.
                shared.epoch_backlog.sub(pipe.backlog);
                pipe.backlog = 0;
                panic!("epoch job {} failed (lifeguard panic)", r.index);
            }
            let emitted: i64 = r.records.iter().map(|b| b.len() as i64).sum();
            pipe.backlog -= emitted;
            shared.epoch_backlog.sub(emitted);
            pipe.emitted_records += emitted as u64;
            // Epoch jobs carry no producer frame, so no span chain; the
            // job attributed its violations to global sequences itself.
            if !r.violations.is_empty() {
                let fresh = std::mem::take(&mut r.violations);
                self.emit_violations(shared, stats, fresh, &r.violation_seqs, Vec::new());
            }
            for batch in r.records.drain(..) {
                self.consumer.recycle(batch);
            }
        }
        emitted_any
    }

    /// Emits `fresh` violations, in order, with their global record
    /// sequences `seqs` ([`Monitor::record_seqs`]) as record ids: to the
    /// aggregated stream, the event ring (one [`EventRing::record_many`]
    /// call, so the batch's entries share a timestamp; each snapshots
    /// `spans`, the faulting frame's chain, and renders its detail on read)
    /// and the session report.
    fn emit_violations(
        &mut self,
        shared: &PoolShared,
        stats: &PoolStats,
        fresh: Vec<Violation>,
        seqs: &[Option<u64>],
        spans: Vec<SpanRecord>,
    ) {
        stats.violations.add(fresh.len() as u64);
        let ids: Vec<Option<RecordId>> = seqs
            .iter()
            .map(|seq| seq.map(|seq| RecordId::new(self.tenant_hash, self.trace, seq)))
            .collect();
        // Forward to the aggregated stream only once someone holds it;
        // otherwise an untaken stream would buffer violations unboundedly
        // for the pool's lifetime. (They are always retained in the
        // session report below.)
        if shared.stream_taken.load(Ordering::Relaxed) {
            for (v, id) in fresh.iter().zip(&ids) {
                let _ = shared.violations_tx.send(PoolViolation {
                    session: self.id,
                    tenant: self.name.clone(),
                    lifeguard: self.kind(),
                    record: *id,
                    violation: *v,
                });
            }
        }
        // A violation storm must not slow the monitor: nothing is
        // formatted here, and the ring is locked once per batch.
        shared.metrics.events().record_many(fresh.len(), |i| EventKind::Violation {
            session: self.id,
            tenant: self.name.clone(),
            detail: Detail::new(fresh[i]),
            record: ids[i],
            spans: spans.clone(),
        });
        self.violations.extend(fresh);
        self.violation_records.extend(ids);
    }

    /// The plain (non-pipelined) batch-grain hot path.
    fn pump_plain(
        &mut self,
        max_batches: usize,
        shared: &PoolShared,
        stats: &PoolStats,
        by: Pumper,
    ) -> usize {
        let Pumper { ring, track, .. } = by;
        let mut processed = 0;
        while processed < max_batches {
            let Some((batch, published, tag)) = self.consumer.try_recv_batch_tagged() else {
                break;
            };
            processed += 1;
            // Span stamps only for the sampled minority that carries a
            // tag: the untagged hot path pays one branch here.
            let rec = &shared.recorder;
            if let Some(tag) = tag {
                let picked_up = rec.now();
                // The publish instant rode the queue with the tag; the wait
                // is publish → this pickup.
                let t_publish = published.map_or(picked_up, |at| rec.stamp(at));
                rec.record(ring, Stage::ChannelWait, track, tag, t_publish, picked_up);
                shared.span_hists.channel_wait.record(picked_up.saturating_sub(t_publish));
            }
            if !self.tee.admits(&batch) {
                self.consumer.recycle(batch);
                continue;
            }
            // The dispatch stage starts after the tee.
            let span = tag.map(|tag| (tag, rec.now()));
            // Global sequence of this batch's first record — violation
            // record ids are attributed against it below.
            let base_seq = self.records;
            self.records += batch.len() as u64;
            // One columnar pipeline pass and one statically-dispatched
            // handler pass per chunk, staging buffers reused across batches
            // (no per-record allocation — including the latency
            // observation: two relaxed fetch_adds).
            let t0 = self.dispatch_hist.start();
            self.monitor.observe_trace_batch(&batch);
            self.dispatch_hist.stop(t0);
            if let Some((tag, t_dispatch)) = span {
                let done = rec.now();
                rec.record(ring, Stage::Dispatch, track, tag, t_dispatch, done);
                shared.span_hists.dispatch.record(done.saturating_sub(t_dispatch));
            }
            stats.records.add(batch.len() as u64);
            if !self.monitor.violations().is_empty() {
                let seqs = self.monitor.record_seqs(self.monitor.events(), base_seq);
                let fresh = self.monitor.lifeguard_mut().take_violations();
                // A sampled frame that just violated gets a `violation`
                // marker record, then its whole completed chain is
                // snapshotted into the violations' event-ring entries.
                let spans = match span {
                    Some((tag, _)) => {
                        let now = rec.now();
                        rec.record(ring, Stage::Violation, track, tag, now, now);
                        rec.chain(tag)
                    }
                    None => Vec::new(),
                };
                self.emit_violations(shared, stats, fresh, &seqs, spans);
            }
            // Hand the drained arena back to the producer side for refill.
            self.consumer.recycle(batch);
        }
        processed
    }

    /// Whether buffered batches are waiting.
    fn has_pending(&self) -> bool {
        self.consumer.pending_batches() > 0
    }

    fn finished(&self) -> bool {
        // A pipelined session still owes its in-flight epochs' violations;
        // it finalizes only after the drain path exited the pipeline.
        self.consumer.is_drained() && self.pipe.is_none()
    }

    fn finalize(mut self, stats: &PoolStats, shared: &PoolShared) {
        let events = shared.metrics.events();
        // Termination can finalize a still-pipelined session (shutdown
        // terminates; in-flight epochs are abandoned): settle the gauges.
        if let Some(pipe) = self.pipe.take() {
            shared.pipeline_active.sub(1);
            shared.epoch_backlog.sub(pipe.backlog);
        }
        // Flush any violations reported after the last pump (none today,
        // but harmless and future-proof against buffering handlers).
        self.violations.extend(self.monitor.lifeguard_mut().take_violations());
        // End-of-run violations (leaks) have no faulting record.
        self.violation_records.resize(self.violations.len(), None);
        stats.sessions_closed.inc();
        stats.events_delivered.add(self.monitor.dispatch_stats().delivered);
        events.record(EventKind::SessionClose {
            session: self.id,
            tenant: self.name.clone(),
            records: self.records,
            violations: self.violations.len() as u64,
        });
        let report = SessionReport {
            id: self.id,
            name: self.name.clone(),
            lifeguard: self.kind(),
            records: self.records,
            dispatch: self.monitor.dispatch_stats().clone(),
            violations: self.violations,
            violation_records: self.violation_records,
            metadata_bytes: self.monitor.lifeguard().metadata_bytes(),
            channel: self.consumer.stats(),
            wall: self.opened.elapsed(),
        };
        // The tee goes first: once the owner holds the report, nothing on
        // the pool side still shares the tee's state.
        drop(self.tee);
        // The handle may have been dropped; the report is then discarded.
        let _ = self.done.send(report);
    }
}

/// Batches one worker processes from a session before rotating to the next
/// (fairness bound). A helped turn is one such turn.
const BATCHES_PER_TURN: usize = 4;

/// The thread pumping a checked-out session: where its span stages land.
#[derive(Debug, Clone, Copy)]
struct Pumper {
    /// The pumping thread's flight-recorder ring.
    ring: usize,
    /// [`Track::Worker`], or [`Track::Helper`] for a helped turn.
    track: Track,
}

/// The calling thread's [`Track::Helper`]: ids are handed out per thread
/// on first use, so each helping producer gets its own timeline.
fn helper_track() -> Track {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local!(static ID: u32 = NEXT.fetch_add(1, Ordering::Relaxed));
    Track::Helper(ID.with(|id| *id))
}

/// Idle moves a worker yields through before parking. Briefly-idle
/// workers (their session's producer is mid-chunk) resume without a futex
/// round trip per batch; genuinely idle workers still park.
const SPIN_PASSES: u32 = 8;

/// Per-worker staging buffers for epoch jobs, allocated once per worker
/// thread and reused across every job it serves (ROADMAP batch-path
/// follow-on: no per-job `CostSink`/`EventBuf` reallocation).
struct EpochScratch {
    cost: CostSink,
    events: EventBuf,
}

fn worker_main(idx: usize, shared: Arc<PoolShared>) {
    let mut idle_passes = 0u32;
    let mut scratch = EpochScratch { cost: CostSink::discarding(), events: EventBuf::new() };
    // This worker's counter clone: every handle claims its own stripe, so
    // the hot-path increments below never share a cache line with another
    // worker's.
    let stats = shared.stats.per_worker();
    // This worker's flight-recorder ring: claimed once, single-writer for
    // the thread's lifetime.
    let ring = shared.recorder.ring_handle();
    let me = Pumper { ring, track: Track::Worker(idx as u32) };
    loop {
        let (step, notify) = shared.proto().next(idx);
        shared.notify(notify);
        match step {
            Step::Job(job) => run_epoch_job_guarded(job, &stats, &shared, idx, ring, &mut scratch),
            Step::Pump(checkout) => {
                if checkout.from != idx {
                    stats.steals.inc();
                    shared.metrics.events().record(EventKind::Steal {
                        session: checkout.sid,
                        from_worker: checkout.from,
                        to_worker: idx,
                    });
                }
                pump_owned(By::Worker(idx), me, checkout, &shared, &stats);
            }
            Step::Exit => return,
            Step::Idle if idle_passes < SPIN_PASSES => {
                idle_passes += 1;
                std::thread::yield_now();
                continue;
            }
            Step::Idle => shared.park(idx, &stats),
        }
        idle_passes = 0;
    }
}

/// Pumps a checked-out session for one turn and gives it back to the
/// protocol, which re-queues it or hands it back to be finalized: drained,
/// or shut down (shutdown terminates; batches still buffered are lost). A
/// session whose lifeguard panicked is dropped. Returns whether any batch
/// was processed.
fn pump_owned(
    by: By,
    pumper: Pumper,
    checkout: Checkout<ActiveSession>,
    shared: &PoolShared,
    stats: &PoolStats,
) -> bool {
    let Checkout { sid, mut session, gate, .. } = checkout;
    // Panic isolation: one tenant's handler panicking must not take down
    // the other sessions of the pool, whichever thread pumped it.
    let pumped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        session.pump(BATCHES_PER_TURN, shared, stats, pumper, gate)
    }));
    let (finished, more) = match &pumped {
        Ok(n) => (session.finished(), *n > 0 && session.has_pending()),
        Err(_) => {
            eprintln!(
                "igm-runtime: lifeguard panicked in session {} ({}); session dropped",
                session.id, session.name
            );
            (true, false)
        }
    };
    let (done, notify) = shared.proto().give_back(by, sid, session, finished, more);
    shared.notify(notify);
    match pumped {
        Ok(n) => {
            if let Some(session) = done {
                session.finalize(stats, shared);
            }
            n > 0
        }
        // Dropping the session closes the channel (producer sees
        // SendError) and the report sender (finish() reports the failure);
        // the other sessions keep running.
        Err(_) => true,
    }
}

/// Runs an epoch job, containing panics to the job: a panicking handler
/// reports an explicit failed [`EpochResult`], which the shipping session
/// surfaces instead of emitting a truncated violation set.
fn run_epoch_job_guarded(
    job: EpochJob,
    stats: &PoolStats,
    shared: &PoolShared,
    worker: usize,
    ring: usize,
    scratch: &mut EpochScratch,
) {
    let index = job.index;
    let done = job.done.clone();
    let session = job.session;
    if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_epoch_job(job, stats, shared, worker, ring, scratch)
    }))
    .is_err()
    {
        eprintln!("igm-runtime: lifeguard panicked in epoch job {index}; epoch dropped");
        // The scratch buffers only ever hold plain values (no invariants
        // to restore); clear them so the next job starts clean.
        scratch.cost.clear();
        let _ = done.send(EpochResult {
            index,
            violations: Vec::new(),
            violation_seqs: Vec::new(),
            records: Vec::new(),
            failed: true,
        });
        shared.publish(session);
    }
}

/// Event-buffer capacity an epoch worker keeps between jobs. An epoch is
/// dispatched in one whole-batch column sweep, so the staging buffer
/// reaches epoch grain — a few events per record. The bound is sized so a
/// default-budget epoch ([`crate::epoch::DEFAULT_EPOCH_RECORDS`] records)
/// always fits and its capacity is reused job after job with no
/// shrink/regrow churn; only the outsized epochs of an adaptive run near
/// its `max` budget trigger a shrink, so one outlier does not pin
/// megabytes per worker for the worker's lifetime.
const EPOCH_SCRATCH_RETAIN_EVENTS: usize = 4 * crate::epoch::DEFAULT_EPOCH_RECORDS;
/// Record-boundary capacity retained alongside (one slot per record).
const EPOCH_SCRATCH_RETAIN_RECORDS: usize = 2 * crate::epoch::DEFAULT_EPOCH_RECORDS;

fn run_epoch_job(
    mut job: EpochJob,
    stats: &PoolStats,
    shared: &PoolShared,
    worker: usize,
    ring: usize,
    scratch: &mut EpochScratch,
) {
    // Epoch jobs carry no producer frame tag, so sampled jobs chain
    // under the pool's epoch flow, keyed by job index.
    let (rec, es) = (&shared.recorder, &shared.epoch_span);
    let span =
        es.sampler.sample().then(|| (FrameTag { flow: es.flow, seq: job.index as u64 }, rec.now()));
    // Staging buffers come from the worker's persistent scratch — one
    // allocation per worker lifetime in steady state. Replaying batch by
    // batch (instead of one concatenated sweep) keeps handler semantics
    // identical to the spine's per-batch passes; pipeline state carries
    // across the calls exactly as it did on the live spine.
    let t0 = shared.epoch_hist.start();
    let (mut violations, mut violation_seqs) = (Vec::new(), Vec::new());
    let mut base = job.first_record;
    for records in &job.records {
        job.monitor.observe_into(records, &mut scratch.events, &mut scratch.cost);
        // Attributed per batch, while its events are still in hand.
        if !job.monitor.violations().is_empty() {
            violation_seqs.extend(job.monitor.record_seqs(&scratch.events, base));
            violations.append(&mut job.monitor.lifeguard_mut().take_violations());
        }
        base += records.len() as u64;
    }
    shared.epoch_hist.stop(t0);
    if let Some((tag, t_start)) = span {
        let done = rec.now();
        rec.record(ring, Stage::EpochJob, Track::Worker(worker as u32), tag, t_start, done);
        shared.span_hists.epoch_job.record(done.saturating_sub(t_start));
    }
    if scratch.events.capacity() > EPOCH_SCRATCH_RETAIN_EVENTS {
        scratch.events.shrink_to(EPOCH_SCRATCH_RETAIN_EVENTS, EPOCH_SCRATCH_RETAIN_RECORDS);
    }
    // The job re-runs records the session's live spine already accounted:
    // it adds only its own count to the pool totals.
    stats.epoch_jobs.inc();
    let _ = job.done.send(EpochResult {
        index: job.index,
        violations,
        violation_seqs,
        records: job.records,
        failed: false,
    });
    shared.publish(job.session);
}

#[cfg(test)]
mod tests;
