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
//! **Backpressure is work-conserving.** A producer that has to wait on the
//! pool — a [`SessionHandle::send_batch`] refused by a full channel, an
//! idle `Ingestor` pass, a [`SessionHandle::finish`] whose report is not
//! ready — first runs lifeguard work on its own thread
//! ([`MonitorPool::help`]): it takes a runnable session off a worker's
//! deque exactly as a thief would, pumps one fairness turn, and puts the
//! session back on the deque it came from, so the session's home (and
//! every producer wakeup) stays with that worker. It blocks or sleeps only
//! when nothing is runnable, or when a worker is parked: that worker is the
//! idle capacity, and the producer's own publishes wake it. A full channel still refuses the producer's
//! own batch: backpressure holds, and the wait is spent monitoring instead
//! of idling a host core.
//!
//! The per-session hot path is batch-grain end to end: one
//! [`DispatchPipeline::dispatch_batch`] call expands a chunk through
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
//! injector as [`EpochJob`]s. Any worker serves the injector, interleaved
//! with session traffic; one job occupies its worker for one epoch's worth
//! of records. Each job replays its epoch's full event stream against the
//! boundary-snapshotted shadow state and dispatch pipeline, so the emitted
//! violation sequence is byte-identical to sequential monitoring; results
//! merge back in epoch order and their arenas recycle into the session's
//! spare pool. When the backlog drains the session drops back to plain
//! pumping.

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
    Counter, EventKind, EventRing, Gauge, Histogram, MetricsRegistry, RouteHandler, StatsServer,
};
use igm_span::{
    alloc_flow, tenant_id, FlightRecorder, FrameTag, RecordId, Sampler, SpanConfig, SpanRecord,
    Stage, Track,
};
use std::collections::{BTreeMap, VecDeque};
use std::net::ToSocketAddrs;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex};
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
    /// Metrics registry the pool reports into. `None` (the default) makes
    /// the pool create its own, reachable via [`MonitorPool::metrics`];
    /// pass a shared one to land several subsystems (pool, ingest server,
    /// forwarder) on a single stats endpoint.
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// Whether the pool runs a span [`FlightRecorder`] (`igm-span`):
    /// sampled frames get `channel_wait`/`dispatch` stage records, epoch
    /// jobs get `epoch_job` ones, violations snapshot their frame's span
    /// chain into the event ring, and [`MonitorPool::serve_stats`] serves
    /// `/spans.json` and `/trace`. On by default — unsampled frames cost
    /// one branch per batch (see the bench's `span_overhead` section).
    pub spans: bool,
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
    /// turns enters only if another worker is parked on its doorbell at
    /// that moment — never on a one-worker pool, nor while every worker is
    /// busy with its own tenants — and drops back once the backlog drains.
    /// Only workers decide: a turn a waiting producer runs
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
            metrics: None,
            spans: true,
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

/// One worker's wake-up doorbell, sequence-numbered so a worker that went
/// busy between reading the sequence and waiting can never miss a ring.
///
/// Each worker parks on its **own** doorbell. Ringing is lock-free while
/// the target worker is awake — the common steady state, where every
/// `send_batch` would otherwise fight N workers for a mutex. The SeqCst
/// ordering of `seq`/`sleepers` gives the classic flag-flag guarantee: if
/// the ringer reads `sleepers == 0`, the about-to-sleep worker's later
/// sequence check is ordered after the ring and sees the new value, so it
/// never parks on a stale count.
#[derive(Debug, Default)]
pub(crate) struct Doorbell {
    seq: AtomicU64,
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    bell: Condvar,
}

impl Doorbell {
    /// Publishes a state change (the owning worker re-checks the world
    /// before its next park).
    fn bump(&self) {
        self.seq.fetch_add(1, Ordering::SeqCst);
    }

    /// Wakes the parked owner, if parked. Returns whether a sleeper was
    /// notified. Only meaningful after a [`Doorbell::bump`].
    fn notify_if_sleeping(&self) -> bool {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            // Serialize with the sleeper's check-then-wait.
            drop(self.lock.lock().unwrap());
            self.bell.notify_one();
            true
        } else {
            false
        }
    }

    /// Bump-and-notify; returns whether a sleeper was notified.
    fn ring(&self) -> bool {
        self.bump();
        self.notify_if_sleeping()
    }

    /// Racy peek at whether the owner is parked (wakeup-targeting hint).
    fn sleeping(&self) -> bool {
        self.sleepers.load(Ordering::SeqCst) > 0
    }

    fn epoch(&self) -> u64 {
        self.seq.load(Ordering::SeqCst)
    }

    /// Blocks until the sequence moves past `seen` or `timeout` elapses.
    fn wait(&self, seen: u64, timeout: Duration) {
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let guard = self.lock.lock().unwrap();
        if self.seq.load(Ordering::SeqCst) == seen {
            let _ = self.bell.wait_timeout(guard, timeout).unwrap();
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
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
    /// The shipping session's home hint: its current worker is rung when
    /// the result lands, so drains do not wait out a park timeout. (The
    /// session accounts records, delivered events and violations on its
    /// live spine; the job adds nothing to the pool totals but its count.)
    pub home: Arc<AtomicUsize>,
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

/// One worker's resident-session deque with a lock-free occupancy mirror,
/// so steal scans (and the worker's own idle passes) skip empty shards
/// without touching the lock.
#[derive(Default)]
struct Shard {
    queue: Mutex<VecDeque<ActiveSession>>,
    len: AtomicUsize,
}

impl Shard {
    fn push(&self, session: ActiveSession) {
        let mut q = self.queue.lock().unwrap();
        q.push_back(session);
        self.len.store(q.len(), Ordering::Release);
    }

    fn pop(&self) -> Option<ActiveSession> {
        if self.len.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut q = self.queue.lock().unwrap();
        let session = q.pop_front();
        self.len.store(q.len(), Ordering::Release);
        session
    }

    /// Removes the most recently queued session with pending batches
    /// (steal-from-the-back: the deque front is what the owner will reach
    /// soonest).
    fn steal_runnable(&self) -> Option<ActiveSession> {
        if self.len.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut q = self.queue.lock().unwrap();
        let pos = q.iter().rposition(ActiveSession::has_pending)?;
        let session = q.remove(pos);
        self.len.store(q.len(), Ordering::Release);
        session
    }

    fn resident(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }
}

/// State shared by the workers, the pool handle and every session handle.
struct PoolShared {
    /// One resident-session deque per worker. A session lives in exactly
    /// one deque — or in neither while the worker or helping producer that
    /// took it is pumping it, which is what makes a mid-pump session
    /// unstealable.
    shards: Vec<Shard>,
    /// Injector queue for pipelined sessions' epoch jobs; any worker
    /// serves it.
    epoch_jobs: Mutex<VecDeque<EpochJob>>,
    /// Mirror of `epoch_jobs.len()`, so the (hot) worker loop skips the
    /// injector lock entirely while no session is pipelined.
    epoch_pending: AtomicUsize,
    /// One doorbell per worker (sticky wakeups: `send_batch` rings the
    /// session's home worker first).
    doorbells: Vec<Doorbell>,
    stats: PoolStats,
    /// Set once by [`MonitorPool::shutdown`]. SeqCst on both sides: a
    /// helper that took a session after a terminating worker last saw
    /// `helping == 0` must see the flag when its turn ends.
    shutdown: AtomicBool,
    /// Helped turns in flight ([`PoolShared::help`]). Counted before the
    /// helper takes a session, so a terminating worker that waits for zero
    /// never exits while a session it would have finalized is checked out.
    helping: AtomicUsize,
    /// The flight-recorder ring helped turns record into, so helpers never
    /// write into a worker's single-writer ring. Helping threads share it:
    /// each record claims its slot atomically, so two helpers write the
    /// same slot only if the ring laps during one write.
    helper_ring: usize,
    violations_tx: Sender<PoolViolation>,
    stream_taken: AtomicBool,
    /// The registry everything below reports into (owned or caller-shared;
    /// see [`PoolConfig::metrics`]).
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
    /// `igm_pool_parked_workers`: workers parked on their doorbells — the
    /// idle capacity [`PipelineMode::Auto`] pipelines into.
    parked: Gauge,
    /// `igm_epoch_journal_checks_total{lifeguard=…}`, indexed in
    /// [`LifeguardKind::ALL`] order: spine-elided (journaled) events whose
    /// checks were deferred to epoch jobs.
    journal_counters: Vec<Counter>,
    /// Registry handles every session log channel clones
    /// (`igm_channel_queue_latency_nanos`, `igm_channel_occupancy_bytes`).
    channel_obs: ChannelObs,
    /// The span flight recorder (`None` when [`PoolConfig::spans`] is
    /// off). Workers stamp `channel_wait`/`dispatch`/`epoch_job` stages
    /// for tagged (sampled) frames; `igm-net` endpoints attach to the
    /// same recorder so wire-side stages join the pool-side chains.
    recorder: Option<Arc<FlightRecorder>>,
    /// `igm_span_stage_nanos{stage=…}` for the pool-side stages (detached
    /// no-ops when spans are off).
    span_hists: SpanStageHists,
    /// Span origin for epoch jobs: they carry no producer frame tag, so
    /// sampled jobs chain under the pool's own epoch flow, keyed by job
    /// index.
    epoch_span: Option<EpochSpan>,
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
    /// Sticky wakeup: ring the session's home worker first, so an
    /// intermittent tenant keeps waking the worker that holds its shadow
    /// shard instead of random-walking between thieves. If the home worker
    /// is awake (busy), fall back to waking some parked worker — it can
    /// steal the session, so the pool stays work-conserving under load.
    fn ring_worker(&self, home: usize) {
        let n = self.doorbells.len();
        let home = home % n;
        if self.doorbells[home].ring() {
            return;
        }
        for off in 1..n {
            let db = &self.doorbells[(home + off) % n];
            // The peek is racy: a worker registering to sleep right now may
            // be missed, but the home doorbell was bumped above and the
            // park timeout bounds the cost of a lost fallback wake.
            if db.sleeping() && db.ring() {
                return;
            }
        }
    }

    /// Workers parked on their doorbells right now. Asked by a running
    /// worker, so it counts *other* workers only. Racy by nature (a worker
    /// may park or wake the next instant); the decision it feeds is
    /// revisited every turn.
    fn parked_workers(&self) -> usize {
        usize::try_from(self.parked.value()).unwrap_or(0)
    }

    /// Wakes one worker, any worker (epoch jobs live in a shared injector
    /// queue). Every doorbell is bumped — matching the old global-sequence
    /// semantics, so no about-to-park worker can sleep through the event —
    /// but only the first sleeper found is woken.
    fn ring_any(&self) {
        for db in &self.doorbells {
            db.bump();
        }
        for db in &self.doorbells {
            if db.notify_if_sleeping() {
                return;
            }
        }
    }

    /// Publishes an epoch job on the shared injector queue; any worker
    /// serves it.
    fn submit_epoch(&self, job: EpochJob) {
        // Increment the mirror before publishing the job: the counter may
        // transiently overstate the queue (workers then take the lock and
        // find nothing — harmless) but never understate or underflow it.
        self.epoch_pending.fetch_add(1, Ordering::SeqCst);
        self.epoch_jobs.lock().unwrap().push_back(job);
        self.ring_any();
    }

    /// Runs one lifeguard turn on the calling thread, if any session is
    /// runnable and no worker is parked: the most recently queued session
    /// with pending batches on any worker's deque is checked out
    /// (exclusively, as a thief takes it), pumped for one
    /// [`BATCHES_PER_TURN`] turn and put back on the deque it came from,
    /// its home unchanged. The turn never takes the [`PipelineMode::Auto`]
    /// entry decision. If the pool shut down during the turn, the session
    /// is finalized instead (a terminating worker may already have left).
    /// Returns whether the turn made progress.
    ///
    /// A parked worker is idle capacity the producer's own publishes wake
    /// ([`PoolShared::ring_worker`] falls back to it), so runnable work is
    /// left to it and the producer keeps its core for producing.
    fn help(&self) -> bool {
        if self.parked_workers() > 0 {
            return false;
        }
        self.helping.fetch_add(1, Ordering::SeqCst);
        let taken = (0..self.shards.len())
            .find_map(|victim| Some((self.shards[victim].steal_runnable()?, victim)));
        let progress = taken.is_some_and(|(session, victim)| self.helped_turn(session, victim));
        self.helping.fetch_sub(1, Ordering::SeqCst);
        if self.shutdown.load(Ordering::SeqCst) {
            // Terminating workers wait for `helping` to reach zero.
            self.ring_all();
        }
        progress
    }

    /// The turn [`PoolShared::help`] runs on `session`, checked out of
    /// `victim`'s deque by a caller already counted in `helping`.
    fn helped_turn(&self, session: ActiveSession, victim: usize) -> bool {
        self.stats.helped_turns.inc();
        let by = Pumper { shard: victim, ring: self.helper_ring, track: helper_track() };
        let progress =
            pump_owned(by, session, self, &self.stats, || self.shutdown.load(Ordering::SeqCst));
        // The victim may have parked while the session was out.
        self.doorbells[victim].ring();
        progress
    }

    /// Wakes every worker (session open/close, shutdown — rare control
    /// events where all workers must re-examine the world).
    fn ring_all(&self) {
        for db in &self.doorbells {
            db.bump();
        }
        for db in &self.doorbells {
            if db.sleepers.load(Ordering::SeqCst) > 0 {
                drop(db.lock.lock().unwrap());
                db.bell.notify_all();
            }
        }
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
    next_shard: AtomicUsize,
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
        let metrics = cfg.metrics.unwrap_or_default();
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
        let recorder = cfg.spans.then(|| {
            Arc::new(FlightRecorder::new(SpanConfig {
                // One ring per worker, one for helped turns, plus headroom
                // for the ingest lanes and forwarders that attach to the
                // pool's recorder; each writer site claims its own via
                // `ring_handle`.
                rings: cfg.workers + 9,
                ..SpanConfig::default()
            }))
        });
        let span_hist = |stage: Stage| {
            if recorder.is_some() {
                metrics.histogram_with(
                    "igm_span_stage_nanos",
                    "per-stage latency of sampled frames (span flight recorder)",
                    &[("stage", stage.name())],
                )
            } else {
                Histogram::disabled()
            }
        };
        let span_hists = SpanStageHists {
            channel_wait: span_hist(Stage::ChannelWait),
            dispatch: span_hist(Stage::Dispatch),
            epoch_job: span_hist(Stage::EpochJob),
        };
        let epoch_span =
            recorder.as_ref().map(|r| EpochSpan { flow: alloc_flow(), sampler: r.sampler() });
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
            shards: (0..cfg.workers).map(|_| Shard::default()).collect(),
            epoch_jobs: Mutex::new(VecDeque::new()),
            epoch_pending: AtomicUsize::new(0),
            doorbells: (0..cfg.workers).map(|_| Doorbell::default()).collect(),
            stats: PoolStats::new(&metrics),
            shutdown: AtomicBool::new(false),
            helping: AtomicUsize::new(0),
            helper_ring: recorder.as_ref().map_or(0, |r| r.ring_handle()),
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
            parked: metrics.gauge("igm_pool_parked_workers", "workers parked on their doorbells"),
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
            next_shard: AtomicUsize::new(0),
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
        self.shared.shards.len()
    }

    /// Opens a tenant session: builds the lifeguard shard, places it on a
    /// worker's deque (round-robin; the stealing scheduler corrects any
    /// imbalance at run time) and returns the producer-side handle.
    pub fn open_session(&self, cfg: SessionConfig) -> SessionHandle {
        let id = self.next_session.fetch_add(1, Ordering::Relaxed);
        let monitor =
            Monitor::build(cfg.lifeguard, &cfg.accel, cfg.synthetic_workload, &cfg.premark);
        let (producer, consumer) =
            log_channel_with(self.channel_capacity_bytes, self.shared.channel_obs.clone());
        let (done_tx, done_rx) = mpsc::channel();
        let shard = self.next_shard.fetch_add(1, Ordering::Relaxed) % self.shared.shards.len();
        // The home hint follows the session as workers re-queue or steal
        // it; `send_batch` rings the worker it points at first.
        let home = Arc::new(AtomicUsize::new(shard));
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
            consumer,
            done: done_tx,
            opened: Instant::now(),
            records: 0,
            violations: Vec::new(),
            violation_records: Vec::new(),
            home: Arc::clone(&home),
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
        self.shared.shards[shard].push(session);
        self.shared.ring_all();
        // The session is its own span origin for frames sent through the
        // handle: a fresh flow, a frame counter, a per-frame sampler.
        let spans = self.shared.recorder.as_ref().map(|r| SessionSpans {
            flow: alloc_flow(),
            next_frame: AtomicU64::new(0),
            sampler: r.sampler(),
        });
        SessionHandle {
            id,
            producer: Some(producer),
            shared: Arc::clone(&self.shared),
            done: done_rx,
            chunk_bytes: self.chunk_bytes,
            channel_capacity_bytes: self.channel_capacity_bytes,
            home,
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

    /// The metrics registry the pool reports into (its own unless one was
    /// passed via [`PoolConfig::metrics`]). Other subsystems register
    /// their metrics here to share the pool's stats endpoint.
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
    /// pipeline (`None` when [`PoolConfig::spans`] is off). Hand it to
    /// `igm-net` endpoints (`attach_spans`) so wire-side stages land in
    /// the same recorder and join the pool-side chains.
    pub fn recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.shared.recorder.as_ref()
    }

    /// Starts a [`StatsServer`] on `addr` serving this pool's registry:
    /// `GET /metrics` (Prometheus text), `/stats.json`, `/events.json`,
    /// plus `/spans.json` and `/trace` when the pool has a span recorder.
    /// Bind port 0 to let the OS pick; the server stops on drop.
    pub fn serve_stats(&self, addr: impl ToSocketAddrs) -> std::io::Result<StatsServer> {
        StatsServer::serve_with(
            addr,
            Arc::clone(&self.shared.metrics),
            self.shared.recorder.clone(),
        )
    }

    /// Like [`MonitorPool::serve_stats`], but additionally mounts custom
    /// [`RouteHandler`]s (e.g. a trace lake's `/lake/*` routes) alongside
    /// the built-in endpoints.
    pub fn serve_stats_routes(
        &self,
        addr: impl ToSocketAddrs,
        routes: Vec<Arc<dyn RouteHandler>>,
    ) -> std::io::Result<StatsServer> {
        StatsServer::serve_routes(
            addr,
            Arc::clone(&self.shared.metrics),
            self.shared.recorder.clone(),
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
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.ring_all();
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
    /// The worker currently hosting the session (sticky-wakeup hint).
    home: Arc<AtomicUsize>,
    /// Span origin for frames this handle publishes (`None` when the
    /// pool's spans are off).
    spans: Option<SessionSpans>,
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
        let tag = self.spans.as_ref().and_then(SessionSpans::tag_frame);
        while let Some(refused) = producer.try_publish(batch, tag)? {
            if !self.shared.help() {
                let r = producer.send_batch_tagged(refused, tag);
                self.shared.ring_worker(self.home.load(Ordering::Relaxed));
                return r;
            }
            batch = refused;
        }
        self.shared.ring_worker(self.home.load(Ordering::Relaxed));
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
        let tag = wire_tag.or_else(|| self.spans.as_ref().and_then(SessionSpans::tag_frame));
        let r = producer.try_send_batch_tagged(batch, tag);
        if let Ok(None) = r {
            self.shared.ring_worker(self.home.load(Ordering::Relaxed));
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
        self.shared.ring_all();
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
        self.shared.ring_all();
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
        // Close the channel (if finish() didn't already) and wake the
        // workers so an abandoned session is drained and finalized promptly
        // rather than on the park-timeout safety net.
        drop(self.producer.take());
        self.shared.ring_all();
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
    consumer: LogConsumer,
    done: Sender<SessionReport>,
    opened: Instant,
    records: u64,
    violations: Vec<Violation>,
    /// Parallel to `violations`: each entry's attributed record id.
    violation_records: Vec<Option<RecordId>>,
    /// Shared with the [`SessionHandle`]: which worker's deque the session
    /// currently lives on, so producer-side wakeups ring the owner first.
    home: Arc<AtomicUsize>,
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
    /// who pumps.
    fn pump(
        &mut self,
        max_batches: usize,
        shared: &PoolShared,
        stats: &PoolStats,
        by: Pumper,
    ) -> usize {
        if self.pipe.is_none() {
            if let Some(inputs) = self.entry_decision(shared, by) {
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
    /// as a side effect; the verdict itself is [`gate::entry`]'s. A helped
    /// turn leaves the gate and its bookkeeping alone: idle capacity is a
    /// worker's judgement. ([`PipelineMode::Always`] asks for no judgement,
    /// so it enters on whichever turn comes first.)
    fn entry_decision(&mut self, shared: &PoolShared, by: Pumper) -> Option<EntryInputs> {
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
            inputs.parked_workers = shared.parked_workers();
            return Some(inputs);
        }
        if by.helping() {
            return None;
        }
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
        inputs.parked_workers = shared.parked_workers();
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
            max_in_flight: 2 * shared.shards.len() + 1,
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
            home: Arc::clone(&self.home),
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
    /// aggregated stream, the event ring (each entry snapshotting `spans`,
    /// the faulting frame's chain) and the session report.
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
        // Violations are rare enough to narrate in the event ring (the
        // allocation here is off the zero-violation hot path).
        for (v, id) in fresh.iter().zip(&ids) {
            shared.metrics.events().record(EventKind::Violation {
                session: self.id,
                tenant: self.name.clone(),
                detail: v.to_string(),
                record: *id,
                spans: spans.clone(),
            });
        }
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
            // Global sequence of this batch's first record — violation
            // record ids are attributed against it below.
            let base_seq = self.records;
            self.records += batch.len() as u64;
            // Span stamps only for the sampled minority that carries a
            // tag: the untagged hot path pays one branch here.
            let span = match (&shared.recorder, tag) {
                (Some(rec), Some(tag)) => {
                    let picked_up = rec.now();
                    // The publish instant rode the queue with the tag;
                    // the wait is publish → this pickup.
                    let t_publish = published.map_or(picked_up, |at| rec.stamp(at));
                    rec.record(ring, Stage::ChannelWait, track, tag, t_publish, picked_up);
                    shared.span_hists.channel_wait.record(picked_up.saturating_sub(t_publish));
                    Some((rec, tag, picked_up))
                }
                _ => None,
            };
            // One columnar pipeline pass and one statically-dispatched
            // handler pass per chunk, staging buffers reused across batches
            // (no per-record allocation — including the latency
            // observation: two relaxed fetch_adds).
            let t0 = self.dispatch_hist.start();
            self.monitor.observe_trace_batch(&batch);
            self.dispatch_hist.stop(t0);
            if let Some((rec, tag, t_dispatch)) = span {
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
                    Some((rec, tag, _)) => {
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

    /// Whether buffered batches are waiting (the steal heuristic).
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
        // The handle may have been dropped; the report is then discarded.
        let _ = self.done.send(report);
    }
}

/// Batches one worker processes from a session before rotating to the next
/// (fairness bound). A helped turn is one such turn.
const BATCHES_PER_TURN: usize = 4;

/// The thread pumping a checked-out session: where the session goes back
/// afterwards, and where its span stages land.
#[derive(Debug, Clone, Copy)]
struct Pumper {
    /// The deque the session returns to, which is also its home hint: the
    /// pumping worker's own, or for a helped turn the deque it was taken
    /// from (a helper is no worker; wakeups must keep reaching one).
    shard: usize,
    /// The pumping thread's flight-recorder ring.
    ring: usize,
    /// [`Track::Worker`], or [`Track::Helper`] for a helped turn.
    track: Track,
}

impl Pumper {
    fn worker(idx: usize, ring: usize) -> Pumper {
        Pumper { shard: idx, ring, track: Track::Worker(idx as u32) }
    }

    fn helping(self) -> bool {
        matches!(self.track, Track::Helper(_))
    }
}

/// The calling thread's [`Track::Helper`]: ids are handed out per thread
/// on first use, so each helping producer gets its own timeline.
fn helper_track() -> Track {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local!(static ID: u32 = NEXT.fetch_add(1, Ordering::Relaxed));
    Track::Helper(ID.with(|id| *id))
}

/// How long an idle worker parks before re-polling anyway. Every
/// producer-side state change rings the doorbell, so this is only a safety
/// net and can be generous without adding latency.
const PARK_TIMEOUT: Duration = Duration::from_millis(25);

/// Empty passes a worker yields through before parking on the doorbell.
/// Briefly-idle workers (their session's producer is mid-chunk) resume
/// without a futex round trip per batch; genuinely idle workers still park.
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
    // the thread's lifetime (0 is a dead value when spans are off).
    let ring = shared.recorder.as_ref().map_or(0, |r| r.ring_handle());
    let me = Pumper::worker(idx, ring);
    loop {
        let seen = shared.doorbells[idx].epoch();
        let terminating = shared.shutdown.load(Ordering::SeqCst);
        let mut progress = false;

        // At most one epoch job per pass, so a deep injector queue cannot
        // starve resident session traffic. The atomic mirror keeps the
        // injector lock off the session hot path.
        if shared.epoch_pending.load(Ordering::SeqCst) > 0 {
            let job = shared.epoch_jobs.lock().unwrap().pop_front();
            if let Some(job) = job {
                shared.epoch_pending.fetch_sub(1, Ordering::SeqCst);
                run_epoch_job_guarded(job, &stats, &shared, idx, ring, &mut scratch);
                progress = true;
            }
        }

        // One rotation over this worker's resident sessions. Each session
        // is popped for the duration of its pump — a checked-out session is
        // invisible to thieves, which is what keeps ownership exclusive.
        let resident = shared.shards[idx].resident();
        for _ in 0..resident {
            let Some(session) = shared.shards[idx].pop() else { break };
            progress |= pump_owned(me, session, &shared, &stats, || terminating);
        }

        // Nothing of our own to do: steal a runnable session — with its
        // pending batches and its shadow shard — from a loaded worker.
        if !progress && !terminating {
            if let Some((session, victim)) = steal(idx, &shared) {
                stats.steals.inc();
                shared.metrics.events().record(EventKind::Steal {
                    session: session.id,
                    from_worker: victim,
                    to_worker: idx,
                });
                pump_owned(me, session, &shared, &stats, || terminating);
                progress = true;
            }
        }

        // A helper may hold one of this deque's sessions: wait for it to
        // put the session back or finalize it (checked before the deque, so
        // a session put back before the count dropped is seen).
        if terminating
            && shared.helping.load(Ordering::SeqCst) == 0
            && shared.shards[idx].resident() == 0
            && shared.epoch_pending.load(Ordering::SeqCst) == 0
        {
            return;
        }
        if progress {
            idle_passes = 0;
        } else {
            idle_passes += 1;
            if idle_passes <= SPIN_PASSES {
                std::thread::yield_now();
            } else {
                stats.parks.inc();
                shared.parked.add(1);
                shared.doorbells[idx].wait(seen, PARK_TIMEOUT);
                shared.parked.sub(1);
            }
        }
    }
}

/// Pumps a checked-out session and settles its ownership: finalized if
/// drained (or `terminate()` says the pool is terminating, asked after the
/// pump), re-queued on `by.shard`'s deque otherwise, dropped if its
/// lifeguard panicked. Returns whether any batch was processed.
fn pump_owned(
    by: Pumper,
    mut session: ActiveSession,
    shared: &PoolShared,
    stats: &PoolStats,
    terminate: impl FnOnce() -> bool,
) -> bool {
    // The session belongs to `by.shard` for the pump (and stays there if
    // it is re-queued below): point producer-side wakeups there.
    session.home.store(by.shard, Ordering::Relaxed);
    // Panic isolation: one tenant's handler panicking must not take down
    // the other sessions of the pool, whichever thread pumped it.
    let pumped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        session.pump(BATCHES_PER_TURN, shared, stats, by)
    }));
    match pumped {
        Ok(n) => {
            // When terminating, finalize unconditionally after one last
            // pump: shutdown *terminates*. An actively streaming producer
            // observes `SendError` once the consumer drops (records it had
            // buffered beyond this turn are lost); waiting for it to drain
            // could block for the producer's whole lifetime.
            if session.finished() || terminate() {
                session.finalize(stats, shared);
            } else {
                shared.shards[by.shard].push(session);
            }
            n > 0
        }
        Err(_) => {
            eprintln!(
                "igm-runtime: lifeguard panicked in session {} ({}); session dropped",
                session.id, session.name
            );
            // Dropping the session closes the channel (producer sees
            // SendError) and the report sender (finish() reports the
            // failure); the other sessions keep running.
            true
        }
    }
}

/// Scans the other workers' deques for a session with pending batches and
/// takes the most recently queued one.
fn steal(idx: usize, shared: &PoolShared) -> Option<(ActiveSession, usize)> {
    let n = shared.shards.len();
    for off in 1..n {
        let victim = (idx + off) % n;
        if let Some(session) = shared.shards[victim].steal_runnable() {
            return Some((session, victim));
        }
    }
    None
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
    let home = Arc::clone(&job.home);
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
        shared.ring_worker(home.load(Ordering::Relaxed));
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
    let span = match (&shared.recorder, &shared.epoch_span) {
        (Some(rec), Some(es)) if es.sampler.sample() => {
            Some((rec, FrameTag { flow: es.flow, seq: job.index as u64 }, rec.now()))
        }
        _ => None,
    };
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
    if let Some((rec, tag, t_start)) = span {
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
    shared.ring_worker(job.home.load(Ordering::Relaxed));
}

#[cfg(test)]
mod tests;
