//! # igm-runtime — the streaming, multi-tenant monitoring runtime
//!
//! The paper's Log-Based Architecture couples *one* monitored application to
//! *one* lifeguard through an in-cache log buffer. This crate scales that
//! design out in software, the way FireGuard-style fabrics scale fine-grained
//! monitoring to many cores: many tenants stream compressed log records
//! through bounded SPSC channels into a shared pool of **lifeguard worker
//! shards**, and a single hot application can additionally be checked
//! **epoch-parallel** across the pool.
//!
//! Three layers:
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
//!   pipeline and shadow-memory shard are owned by exactly one worker at a
//!   time; an idle worker steals a runnable session — pending batches and
//!   shadow shard together — from a loaded one, so a hot tenant cannot
//!   starve the sessions queued behind it. The per-session hot path is
//!   batch-grain (`dispatch_batch` → `handle_batch`, statically dispatched
//!   through `AnyLifeguard`) with no per-record allocation. Per-tenant
//!   [`SessionHandle`]s; an aggregated [`ViolationStream`] and pool/session
//!   [`stats`] — which, since the `igm-obs` integration, are views over
//!   the pool's metrics registry ([`MonitorPool::metrics`]): per-lifeguard
//!   dispatch-latency histograms, channel queue-latency/occupancy, steal
//!   and park counters, a lifecycle-event ring, all scrapeable live via
//!   [`MonitorPool::serve_stats`]. A single hot session no longer caps
//!   out at one worker's throughput: when its channel stays
//!   byte-saturated *and another worker sits parked*, the pool switches
//!   it to **intra-session epoch pipelining** ([`pool::PipelineMode`]) —
//!   the owning worker runs an update-only spine (per-lifeguard check
//!   elision,
//!   [`igm_lifeguards::LifeguardKind::spine_elides`]) and streams
//!   snapshot-check epoch jobs through the shared injector, emitting
//!   violations in epoch order so the observable sequence is identical
//!   to sequential checking.
//! * [`epoch`] — [`monitor_epoch_parallel`]: epoch-chunked parallel checking
//!   of one trace against snapshotted shadow state. Every lifeguard runs
//!   parallel: epoch jobs replay the *full* event stream from the epoch
//!   boundary snapshot, so even metadata that does not commute with check
//!   elision (MemCheck's cascade suppression, LockSet's lockset
//!   refinement) evolves exactly as it would sequentially.
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

pub use epoch::{
    adaptive_next_budget, monitor_epoch_parallel, monitor_epoch_parallel_with, EpochConfig,
    EpochReport, DEFAULT_EPOCH_RECORDS,
};
pub use pool::{
    MonitorPool, PipelineMode, PoolConfig, PoolViolation, SessionConfig, SessionHandle, SessionId,
    ViolationStream,
};
pub use spsc::{log_channel, ChannelStatsSnapshot, LogConsumer, LogProducer, SendError};
pub use stats::{stats_table, PoolStatsSnapshot, SessionReport};
