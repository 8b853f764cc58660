//! # igm-runtime — the streaming, multi-tenant monitoring runtime
//!
//! The paper's Log-Based Architecture couples *one* monitored application to
//! *one* lifeguard through an in-cache log buffer. This crate scales that
//! design out in software, the way FireGuard-style fabrics scale fine-grained
//! monitoring to many cores: many tenants stream compressed log records
//! through bounded SPSC channels into a shared pool of **lifeguard worker
//! shards**, and a single hot application can additionally be checked
//! epoch by epoch across the pool.
//!
//! Two layers, plus the epoch sizing policy:
//!
//! * [`spsc`] — the bounded [`log_channel`]: columnar
//!   [`igm_lba::TraceBatch`] chunks ([`igm_lba::chunks`]), byte-accurate
//!   occupancy from the batch's column lengths using the paper's
//!   compressed-record size model, blocking backpressure with
//!   producer-stall accounting compatible with the timing model's
//!   `producer_stall_cycles` semantics, and drained batch arenas recycled
//!   back to the producer side so steady-state streaming allocates
//!   nothing per chunk.
//! * [`pool`] — the [`MonitorPool`]: N worker threads with a
//!   session-grain work-stealing scheduler. A session's lifeguard, dispatch
//!   pipeline and shadow-memory shard are pumped by exactly one thread at a
//!   time, a rule owned by one lock over a pure state machine (the pool's
//!   `protocol` module; lock order protocol, then channel, never the
//!   reverse) whose every interleaving the crate's tests explore at small
//!   bounds. An idle worker steals a runnable session — pending batches and
//!   shadow shard together — from a loaded one, so a hot tenant cannot
//!   starve the sessions queued behind it, and a producer that would wait
//!   on a full channel or a pending report runs a session's turn on its
//!   own thread instead ([`MonitorPool::help`]). The per-session hot path is
//!   batch-grain (`dispatch_batch` → `handle_batch`, statically dispatched
//!   through `AnyLifeguard`) with no per-record allocation. Per-tenant
//!   [`SessionHandle`]s; an aggregated [`ViolationStream`] and pool/session
//!   [`stats`] — which, since the `igm-obs` integration, are views over
//!   the pool's metrics registry ([`MonitorPool::metrics`]): per-lifeguard
//!   dispatch-latency histograms, channel queue-latency/occupancy, steal
//!   and park counters, a lifecycle-event ring and a span flight recorder
//!   following sampled frames ([`MonitorPool::recorder`]), all scrapeable
//!   live via [`MonitorPool::serve_stats`]. A single hot session no longer caps
//!   out at one worker's throughput: when its channel stays
//!   byte-saturated *and another worker sits parked*, the pool switches
//!   it to **intra-session epoch pipelining** ([`pool::PipelineMode`]) —
//!   the owning worker runs an update-only spine (per-lifeguard check
//!   elision,
//!   [`igm_lifeguards::LifeguardKind::spine_elides`]) and streams
//!   snapshot-check epoch jobs through the shared injector, emitting
//!   violations in epoch order so the observable sequence is identical
//!   to sequential checking. Epoch jobs replay the *full* event stream
//!   from the boundary snapshot of both the shadow state and the dispatch
//!   pipeline (IT and IF included), so even metadata that does not
//!   commute with check elision (MemCheck's cascade suppression,
//!   LockSet's lockset refinement) evolves exactly as it would
//!   sequentially, and so do the `DispatchStats`.
//!
//! [`epoch`] holds the sizing policy, [`EpochConfig`]: each epoch's record
//! budget follows the check density the previous one observed, and fixed
//! sizing is the case `min == max`.
//!
//! # Example: two tenants, one pool
//!
//! ```
//! use igm_lifeguards::LifeguardKind;
//! use igm_runtime::{MonitorPool, PoolConfig, SessionConfig};
//! use igm_isa::{Annotation, OpClass, MemRef, Reg, TraceEntry};
//!
//! let pool = MonitorPool::new(PoolConfig::with_workers(2));
//! let a = pool.open_session(SessionConfig::new("frontend", LifeguardKind::AddrCheck));
//! let b = pool.open_session(SessionConfig::new("worker", LifeguardKind::TaintCheck));
//!
//! a.send_batch(vec![TraceEntry::annot(0x10, Annotation::Malloc { base: 0x9000, size: 64 })])
//!     .unwrap();
//! b.send_batch(vec![
//!     TraceEntry::annot(0x20, Annotation::ReadInput { base: 0xa000, len: 4 }),
//!     TraceEntry::op(0x24, OpClass::MemToReg { src: MemRef::word(0xa000), rd: Reg::Eax }),
//! ])
//! .unwrap();
//!
//! let ra = a.finish();
//! let rb = b.finish();
//! assert_eq!(ra.records + rb.records, 3);
//! assert_eq!(pool.stats().sessions_closed, 2);
//! pool.shutdown();
//! ```

pub mod epoch;
mod gate;
pub mod pool;
pub mod spsc;
pub mod stats;

pub use epoch::EpochConfig;
pub use pool::{
    MonitorPool, PipelineMode, PoolConfig, PoolViolation, SessionConfig, SessionHandle, SessionId,
    SessionTee, ViolationStream,
};
pub use spsc::{log_channel, ChannelStatsSnapshot, LogConsumer, LogProducer, SendError};
pub use stats::{stats_table, PoolStatsSnapshot, SessionReport};
