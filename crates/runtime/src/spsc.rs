//! The bounded SPSC log channel: the software analogue of LBA's in-cache
//! log buffer, generalized from one core pair to arbitrary producer and
//! consumer threads.
//!
//! Capacity is accounted in *compressed record bytes*
//! ([`igm_lba::compressed_size`]), and a producer that finds the buffer
//! full **stalls** — exactly the condition the timing model charges as
//! `igm_timing::TimingReport::producer_stall_cycles` (`igm-timing`).
//! Here the stall is a real blocked thread; the channel counts stall
//! events and stalled wall-clock nanoseconds so the runtime's stats stay
//! comparable with the co-simulator's stall accounting. Unlike a hardware
//! core, a stalled pool producer can do other work: a
//! [`SessionHandle::send_batch`](crate::SessionHandle::send_batch) whose
//! channel is full runs lifeguard turns first, and only the blocking that
//! remains when there is nothing to run counts as a stall.
//!
//! Records travel in *batches* (chunks produced by [`igm_lba::chunks`]):
//! the producer publishes a whole batch under one lock acquisition, which is
//! the transport analogue of the hardware writing compressed records a
//! cache line at a time.

use igm_lba::TraceBatch;
use igm_obs::{Gauge, Histogram};
use igm_span::FrameTag;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Registry handles a channel reports into: send→drain queue latency per
/// batch and live buffered bytes. A pool hands every session channel
/// clones of the same pair, so the gauge aggregates live occupancy across
/// the pool's channels. The default is fully detached (no registry).
#[derive(Debug, Clone)]
pub(crate) struct ChannelObs {
    /// `igm_channel_queue_latency_nanos`: publish → drain per batch.
    pub(crate) queue_latency: Histogram,
    /// `igm_channel_occupancy_bytes`: live compressed bytes buffered.
    pub(crate) occupancy_bytes: Gauge,
}

impl Default for ChannelObs {
    fn default() -> ChannelObs {
        ChannelObs { queue_latency: Histogram::disabled(), occupancy_bytes: Gauge::detached() }
    }
}

/// Error returned when sending into a channel whose consumer is gone. The
/// rejected batch is handed back to the caller (boxed: the error path is
/// cold, and the nine-column arena would otherwise dominate the size of
/// every `Result` on the send path).
#[derive(Debug, PartialEq, Eq)]
pub struct SendError(pub Box<TraceBatch>);

/// Monotonic counters shared by both endpoints (read via
/// [`ChannelStatsSnapshot`]).
#[derive(Debug, Default)]
struct ChannelCounters {
    pushed_records: AtomicU64,
    pushed_batches: AtomicU64,
    stall_events: AtomicU64,
    stall_nanos: AtomicU64,
    refused_sends: AtomicU64,
    peak_bytes: AtomicU32,
    used_bytes: AtomicU32,
    depth_batches: AtomicUsize,
}

/// A point-in-time view of a channel's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStatsSnapshot {
    /// Records accepted so far.
    pub pushed_records: u64,
    /// Batches accepted so far.
    pub pushed_batches: u64,
    /// Sends that blocked on a full buffer (the producer-stall condition of
    /// the timing model).
    pub stall_events: u64,
    /// Total wall-clock nanoseconds producers spent stalled: true
    /// blocking only. A pool producer whose channel is full first runs
    /// runnable session turns on its own thread
    /// ([`MonitorPool::help`](crate::MonitorPool::help)); that time is
    /// work, not a stall, and only the wait after `help` finds nothing
    /// runnable counts here (and in `stall_events`).
    pub stall_nanos: u64,
    /// Non-blocking sends ([`LogProducer::try_send_batch`]) refused by a
    /// full buffer — the backpressure signal of the multiplexed ingest
    /// path, where a refusal defers one source instead of blocking a
    /// thread.
    pub refused_sends: u64,
    /// High-water mark of byte occupancy.
    pub peak_bytes: u32,
    /// Bytes currently buffered.
    pub used_bytes: u32,
    /// Batches currently buffered (the queue depth).
    pub depth_batches: usize,
}

#[derive(Debug)]
struct Inner {
    /// Each batch travels with its publish timestamp (`None` when neither
    /// queue latency nor a span tag asks for one), so the drain side can
    /// report send→drain latency — and stamp the span `channel_wait`
    /// stage — without a second clock read on the send side, plus the
    /// frame's span tag (`None` for unsampled frames: the tag rides the
    /// queue for free either way).
    queue: VecDeque<(TraceBatch, Option<Instant>, Option<FrameTag>)>,
    used_bytes: u32,
    producer_closed: bool,
    consumer_closed: bool,
}

#[derive(Debug)]
struct Shared {
    capacity_bytes: u32,
    inner: Mutex<Inner>,
    not_full: Condvar,
    not_empty: Condvar,
    counters: ChannelCounters,
    /// Drained batch arenas handed back by the consumer for the producer
    /// side to refill (bounded; see [`SPARE_ARENAS`]). Keeps steady-state
    /// streaming allocation-free: column capacity circulates through the
    /// channel instead of being reallocated per chunk.
    spares: Mutex<Vec<TraceBatch>>,
    obs: ChannelObs,
}

/// Upper bound on recycled batch arenas parked on a channel.
const SPARE_ARENAS: usize = 8;

impl Shared {
    fn snapshot(&self) -> ChannelStatsSnapshot {
        let c = &self.counters;
        ChannelStatsSnapshot {
            pushed_records: c.pushed_records.load(Ordering::Relaxed),
            pushed_batches: c.pushed_batches.load(Ordering::Relaxed),
            stall_events: c.stall_events.load(Ordering::Relaxed),
            stall_nanos: c.stall_nanos.load(Ordering::Relaxed),
            refused_sends: c.refused_sends.load(Ordering::Relaxed),
            peak_bytes: c.peak_bytes.load(Ordering::Relaxed),
            used_bytes: c.used_bytes.load(Ordering::Relaxed),
            depth_batches: c.depth_batches.load(Ordering::Relaxed),
        }
    }
}

/// Creates a bounded SPSC log channel holding up to `capacity_bytes` of
/// compressed records.
///
/// # Panics
///
/// Panics if `capacity_bytes` is zero.
///
/// # Example
///
/// ```
/// use igm_isa::{OpClass, Reg, TraceEntry};
/// use igm_runtime::log_channel;
///
/// let (tx, rx) = log_channel(1024);
/// let rec = TraceEntry::op(0x1000, OpClass::ImmToReg { rd: Reg::Eax });
/// tx.send_batch(vec![rec; 8]).unwrap();
/// drop(tx); // close
/// assert_eq!(rx.recv_batch().unwrap().len(), 8);
/// assert!(rx.recv_batch().is_none());
/// ```
pub fn log_channel(capacity_bytes: u32) -> (LogProducer, LogConsumer) {
    log_channel_with(capacity_bytes, ChannelObs::default())
}

/// [`log_channel`] with registry handles attached (how the pool wires
/// every session channel onto its metrics registry).
pub(crate) fn log_channel_with(capacity_bytes: u32, obs: ChannelObs) -> (LogProducer, LogConsumer) {
    assert!(capacity_bytes > 0, "log channel capacity must be positive");
    let shared = Arc::new(Shared {
        capacity_bytes,
        inner: Mutex::new(Inner {
            queue: VecDeque::new(),
            used_bytes: 0,
            producer_closed: false,
            consumer_closed: false,
        }),
        not_full: Condvar::new(),
        not_empty: Condvar::new(),
        counters: ChannelCounters::default(),
        spares: Mutex::new(Vec::new()),
        obs,
    });
    (LogProducer { shared: Arc::clone(&shared) }, LogConsumer { shared })
}

/// The application-core endpoint. Not `Clone`: single producer.
#[derive(Debug)]
pub struct LogProducer {
    shared: Arc<Shared>,
}

impl LogProducer {
    /// Publishes one batch, blocking while the buffer is full (producer
    /// stall). A batch larger than the whole capacity is admitted once the
    /// buffer drains empty, so progress is always possible. Fails only when
    /// the consumer endpoint is gone.
    pub fn send_batch(&self, batch: impl Into<TraceBatch>) -> Result<(), SendError> {
        self.send_batch_tagged(batch, None)
    }

    /// [`LogProducer::send_batch`] carrying the frame's span tag alongside
    /// the batch (`None` for unsampled frames). The tag rides the queue
    /// and comes back out of [`LogConsumer::try_recv_batch_tagged`] so the
    /// drain side can stamp the frame's `channel_wait` span without any
    /// side table.
    pub fn send_batch_tagged(
        &self,
        batch: impl Into<TraceBatch>,
        tag: Option<FrameTag>,
    ) -> Result<(), SendError> {
        let batch = batch.into();
        if batch.is_empty() {
            return Ok(());
        }
        let bytes = batch.compressed_bytes();
        let mut inner = self.shared.inner.lock().unwrap();
        if inner.consumer_closed {
            return Err(SendError(Box::new(batch)));
        }
        if inner.used_bytes + bytes > self.shared.capacity_bytes && !inner.queue.is_empty() {
            // Producer stall: the log buffer is full.
            let start = Instant::now();
            self.shared.counters.stall_events.fetch_add(1, Ordering::Relaxed);
            while inner.used_bytes + bytes > self.shared.capacity_bytes
                && !inner.queue.is_empty()
                && !inner.consumer_closed
            {
                inner = self.shared.not_full.wait(inner).unwrap();
            }
            self.shared
                .counters
                .stall_nanos
                .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
            if inner.consumer_closed {
                return Err(SendError(Box::new(batch)));
            }
        }
        self.publish(inner, batch, bytes, tag);
        Ok(())
    }

    /// Publishes one batch without blocking. Returns `Ok(None)` on
    /// success, `Ok(Some(batch))` — handing the batch back — when the
    /// buffer is full (the caller decides when to retry; the refusal is
    /// counted as [`ChannelStatsSnapshot::refused_sends`]), and `Err` when
    /// the consumer endpoint is gone. Like [`LogProducer::send_batch`], a
    /// batch larger than the whole capacity is admitted once the buffer is
    /// empty, so progress is always possible.
    pub fn try_send_batch(
        &self,
        batch: impl Into<TraceBatch>,
    ) -> Result<Option<TraceBatch>, SendError> {
        self.try_send_batch_tagged(batch, None)
    }

    /// [`LogProducer::try_send_batch`] carrying the frame's span tag
    /// alongside the batch (`None` for unsampled frames). When the send is
    /// refused the caller keeps both the batch and the tag for the retry.
    pub fn try_send_batch_tagged(
        &self,
        batch: impl Into<TraceBatch>,
        tag: Option<FrameTag>,
    ) -> Result<Option<TraceBatch>, SendError> {
        let refused = self.try_publish(batch.into(), tag)?;
        if refused.is_some() {
            self.shared.counters.refused_sends.fetch_add(1, Ordering::Relaxed);
        }
        Ok(refused)
    }

    /// The non-blocking attempt behind [`LogProducer::try_send_batch_tagged`],
    /// without counting a refusal: a pool producer's blocking send tries
    /// this between helped turns, and its refusals are neither
    /// non-blocking refusals nor stalls.
    pub(crate) fn try_publish(
        &self,
        batch: TraceBatch,
        tag: Option<FrameTag>,
    ) -> Result<Option<TraceBatch>, SendError> {
        if batch.is_empty() {
            return Ok(None);
        }
        let bytes = batch.compressed_bytes();
        let inner = self.shared.inner.lock().unwrap();
        if inner.consumer_closed {
            return Err(SendError(Box::new(batch)));
        }
        if inner.used_bytes + bytes > self.shared.capacity_bytes && !inner.queue.is_empty() {
            return Ok(Some(batch));
        }
        self.publish(inner, batch, bytes, tag);
        Ok(None)
    }

    /// The shared enqueue-and-account tail of both send paths: admits
    /// `batch` (size pre-computed as `bytes`) under the held lock, updates
    /// every occupancy/throughput counter, and wakes the consumer.
    fn publish(
        &self,
        mut inner: std::sync::MutexGuard<'_, Inner>,
        batch: TraceBatch,
        bytes: u32,
        tag: Option<FrameTag>,
    ) {
        inner.used_bytes += bytes;
        let c = &self.shared.counters;
        c.used_bytes.store(inner.used_bytes, Ordering::Relaxed);
        c.peak_bytes.fetch_max(inner.used_bytes, Ordering::Relaxed);
        c.pushed_records.fetch_add(batch.len() as u64, Ordering::Relaxed);
        c.pushed_batches.fetch_add(1, Ordering::Relaxed);
        self.shared.obs.occupancy_bytes.add(bytes as i64);
        // `start()` is `None` (no clock read) when queue-latency recording
        // is off — but a tagged (sampled) frame always gets a timestamp,
        // because its `channel_wait` span needs the publish instant. Tagged
        // frames are the sampled minority, so the extra clock read stays
        // off the common path.
        let published =
            self.shared.obs.queue_latency.start().or_else(|| tag.map(|_| Instant::now()));
        inner.queue.push_back((batch, published, tag));
        c.depth_batches.store(inner.queue.len(), Ordering::Relaxed);
        drop(inner);
        self.shared.not_empty.notify_one();
    }

    /// Current counters.
    pub fn stats(&self) -> ChannelStatsSnapshot {
        self.shared.snapshot()
    }

    /// Pops a recycled batch arena the consumer handed back (empty, column
    /// capacity intact), or a fresh one when none is parked. Producers that
    /// refill spares instead of allocating keep the steady-state transport
    /// allocation-free.
    pub fn spare(&self) -> TraceBatch {
        self.shared.spares.lock().unwrap().pop().unwrap_or_default()
    }
}

impl Drop for LogProducer {
    fn drop(&mut self) {
        let mut inner = self.shared.inner.lock().unwrap();
        inner.producer_closed = true;
        drop(inner);
        self.shared.not_empty.notify_all();
    }
}

/// The lifeguard-core endpoint. Not `Clone`: single consumer.
#[derive(Debug)]
pub struct LogConsumer {
    shared: Arc<Shared>,
}

impl LogConsumer {
    fn take(&self, inner: &mut Inner) -> Option<(TraceBatch, Option<Instant>, Option<FrameTag>)> {
        let (batch, published, tag) = inner.queue.pop_front()?;
        let bytes = batch.compressed_bytes();
        inner.used_bytes -= bytes;
        let c = &self.shared.counters;
        c.used_bytes.store(inner.used_bytes, Ordering::Relaxed);
        c.depth_batches.store(inner.queue.len(), Ordering::Relaxed);
        self.shared.obs.occupancy_bytes.sub(bytes as i64);
        self.shared.obs.queue_latency.stop(published);
        Some((batch, published, tag))
    }

    /// Removes the oldest batch without blocking, along with its publish
    /// instant and span tag (both `None` unless the frame is sampled or
    /// queue-latency timing is on) — the pool's pump drains through this
    /// so it can stamp `channel_wait` for sampled frames.
    pub fn try_recv_batch_tagged(&self) -> Option<(TraceBatch, Option<Instant>, Option<FrameTag>)> {
        let mut inner = self.shared.inner.lock().unwrap();
        let taken = self.take(&mut inner)?;
        drop(inner);
        self.shared.not_full.notify_one();
        Some(taken)
    }

    /// Removes the oldest batch, blocking while the channel is empty.
    /// Returns `None` once the producer is gone and the buffer drained.
    pub fn recv_batch(&self) -> Option<TraceBatch> {
        let mut inner = self.shared.inner.lock().unwrap();
        loop {
            if let Some((batch, _, _)) = self.take(&mut inner) {
                drop(inner);
                self.shared.not_full.notify_one();
                return Some(batch);
            }
            if inner.producer_closed {
                return None;
            }
            inner = self.shared.not_empty.wait(inner).unwrap();
        }
    }

    /// Whether the producer is gone and every batch has been consumed.
    pub fn is_drained(&self) -> bool {
        let inner = self.shared.inner.lock().unwrap();
        inner.producer_closed && inner.queue.is_empty()
    }

    /// Batches currently buffered, from the lock-free counter mirror — the
    /// scheduler's steal heuristic probes this without touching the channel
    /// lock (the value may be momentarily stale, which stealing tolerates:
    /// a wrong guess costs one empty `try_recv_batch_tagged`).
    pub fn pending_batches(&self) -> usize {
        self.shared.counters.depth_batches.load(Ordering::Relaxed)
    }

    /// Live compressed bytes buffered, from the lock-free counter mirror
    /// (same staleness caveat as [`LogConsumer::pending_batches`]). With
    /// [`LogConsumer::capacity_bytes`] this is the occupancy signal the
    /// pool's hot-session detector reads per pump turn.
    pub fn used_bytes(&self) -> u32 {
        self.shared.counters.used_bytes.load(Ordering::Relaxed)
    }

    /// The channel's configured capacity in compressed-record bytes.
    pub fn capacity_bytes(&self) -> u32 {
        self.shared.capacity_bytes
    }

    /// Current counters.
    pub fn stats(&self) -> ChannelStatsSnapshot {
        self.shared.snapshot()
    }

    /// Hands a drained batch arena back for the producer side to refill
    /// (cleared here; dropped instead once `SPARE_ARENAS` are already
    /// parked).
    pub fn recycle(&self, mut batch: TraceBatch) {
        let mut spares = self.shared.spares.lock().unwrap();
        if spares.len() < SPARE_ARENAS {
            batch.clear();
            spares.push(batch);
        }
    }
}

impl Drop for LogConsumer {
    fn drop(&mut self) {
        let mut inner = self.shared.inner.lock().unwrap();
        inner.consumer_closed = true;
        // The discarded batches leave the pool-wide occupancy gauge too.
        self.shared.obs.occupancy_bytes.sub(inner.used_bytes as i64);
        // Release buffered batches so a blocked producer can observe the
        // closure rather than waiting for room that will never appear.
        inner.queue.clear();
        inner.used_bytes = 0;
        // Keep the shared counters truthful for stats read after closure.
        self.shared.counters.used_bytes.store(0, Ordering::Relaxed);
        self.shared.counters.depth_batches.store(0, Ordering::Relaxed);
        drop(inner);
        self.shared.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igm_isa::{OpClass, Reg, TraceEntry};

    fn rec(pc: u32) -> TraceEntry {
        TraceEntry::op(pc, OpClass::ImmToReg { rd: Reg::Eax })
    }

    #[test]
    fn backpressure_blocks_until_drained() {
        let (tx, rx) = log_channel(8);
        tx.send_batch((0..8).map(rec).collect::<Vec<_>>()).unwrap(); // exactly full
        let producer = std::thread::spawn(move || {
            tx.send_batch((8..12).map(rec).collect::<Vec<_>>()).unwrap();
            tx.stats().stall_events
        });
        // Give the producer time to hit the stall path.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(rx.recv_batch().unwrap().len(), 8);
        let stalls = producer.join().unwrap();
        assert_eq!(stalls, 1, "second send must have stalled");
        assert_eq!(rx.recv_batch().unwrap().len(), 4);
        let s = rx.stats();
        assert!(s.stall_nanos > 0);
        assert!(s.peak_bytes <= 8);
        assert_eq!(s.pushed_records, 12);
    }

    #[test]
    fn consumer_drop_unblocks_producer() {
        let (tx, rx) = log_channel(4);
        tx.send_batch((0..4).map(rec).collect::<Vec<_>>()).unwrap();
        let producer =
            std::thread::spawn(move || tx.send_batch((4..8).map(rec).collect::<Vec<_>>()));
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(rx);
        let err = producer.join().unwrap().unwrap_err();
        assert_eq!(err.0.len(), 4, "rejected batch is returned");
    }

    #[test]
    fn try_send_refuses_when_full_and_hands_batch_back() {
        let (tx, rx) = log_channel(8);
        assert_eq!(tx.try_send_batch((0..8).map(rec).collect::<Vec<_>>()), Ok(None));
        // Full: the batch comes back instead of blocking.
        let refused = tx.try_send_batch((8..12).map(rec).collect::<Vec<_>>()).unwrap();
        assert_eq!(refused.as_ref().map(TraceBatch::len), Some(4));
        assert_eq!(tx.stats().refused_sends, 1);
        assert_eq!(tx.stats().stall_events, 0, "refusal is not a stall");
        // Drain, then the retry succeeds.
        assert_eq!(rx.recv_batch().unwrap().len(), 8);
        assert_eq!(tx.try_send_batch(refused.unwrap()), Ok(None));
        assert_eq!(rx.recv_batch().unwrap().len(), 4);
        // Closed consumer: error, batch returned.
        drop(rx);
        let err = tx.try_send_batch(vec![rec(1)]).unwrap_err();
        assert_eq!(err.0.len(), 1);
    }

    #[test]
    fn span_tags_ride_the_queue_in_order() {
        let (tx, rx) = log_channel(1024);
        tx.send_batch_tagged(vec![rec(1)], Some(FrameTag { flow: 7, seq: 0 })).unwrap();
        tx.send_batch(vec![rec(2)]).unwrap();
        tx.send_batch_tagged(vec![rec(3)], Some(FrameTag { flow: 7, seq: 2 })).unwrap();
        let (_, published, tag) = rx.try_recv_batch_tagged().unwrap();
        assert_eq!(tag, Some(FrameTag { flow: 7, seq: 0 }));
        assert!(published.is_some(), "a tagged frame always carries its publish instant");
        let (_, published, tag) = rx.try_recv_batch_tagged().unwrap();
        assert_eq!(tag, None);
        assert!(published.is_none(), "untagged + timers off: no clock read");
        let (_, _, tag) = rx.try_recv_batch_tagged().unwrap();
        assert_eq!(tag, Some(FrameTag { flow: 7, seq: 2 }));
        assert!(rx.try_recv_batch_tagged().is_none());
    }

    #[test]
    fn oversized_batch_is_admitted_when_empty() {
        let (tx, rx) = log_channel(2);
        tx.send_batch((0..10).map(rec).collect::<Vec<_>>()).unwrap();
        assert_eq!(rx.recv_batch().unwrap().len(), 10);
    }

    #[test]
    fn drained_reports_closure() {
        let (tx, rx) = log_channel(16);
        tx.send_batch(vec![rec(1)]).unwrap();
        assert!(!rx.is_drained());
        drop(tx);
        assert!(!rx.is_drained(), "a batch is still queued");
        assert!(rx.recv_batch().is_some());
        assert!(rx.is_drained());
        assert!(rx.recv_batch().is_none());
    }
}
