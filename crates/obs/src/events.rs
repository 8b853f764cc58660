//! The structured lifecycle-event ring: *what happened*, not just how
//! many times.
//!
//! Counters answer "how much"; operators debugging a live monitor also
//! need the discrete story — which tenant's lane failed and why, which
//! handshake was rejected, when sessions opened and closed, where the
//! stealing scheduler moved work. [`EventRing`] is a bounded ring of
//! typed [`ObsEvent`]s with monotone sequence numbers: producers record
//! from any thread (one short mutex on a rare path — never the per-record
//! hot path), the ring overwrites its oldest entries when full (counting
//! the drops), and readers cursor through it with
//! [`EventRing::since`] — which is how the stats endpoint serves
//! `/events.json?since=N` without ever blocking a producer.

use igm_span::{RecordId, SpanRecord};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One structured lifecycle event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A pool session opened.
    SessionOpen {
        /// Pool-wide session id.
        session: u64,
        /// Tenant label.
        tenant: String,
        /// Monitoring lifeguard's name.
        lifeguard: String,
    },
    /// A pool session finalized.
    SessionClose {
        /// Pool-wide session id.
        session: u64,
        /// Tenant label.
        tenant: String,
        /// Records the session processed.
        records: u64,
        /// Violations it reported.
        violations: u64,
    },
    /// The work-stealing scheduler migrated a session between workers.
    Steal {
        /// The migrated session.
        session: u64,
        /// Worker the session was taken from.
        from_worker: usize,
        /// Worker that now owns it.
        to_worker: usize,
    },
    /// An ingest lane failed mid-stream (disconnect, corrupt frame, tee
    /// write failure); the lane was finalized with what it had published.
    LaneFailure {
        /// Lane (tenant) name.
        lane: String,
        /// The error, stringified at failure time.
        error: String,
    },
    /// A connection was refused before becoming a lane.
    HandshakeReject {
        /// Peer address.
        peer: String,
        /// Why it was refused.
        reason: String,
    },
    /// A hot session switched to intra-session epoch pipelining: the
    /// worker now runs an update-only spine and streams snapshot-check
    /// epoch jobs to the pool. The fields after `tenant` are what the
    /// decision saw.
    PipelineEnter {
        /// The session that went hot.
        session: u64,
        /// Tenant label.
        tenant: String,
        /// Compressed-record bytes buffered in the session's log channel.
        channel_used_bytes: u32,
        /// The channel's capacity in the same unit.
        channel_capacity_bytes: u32,
        /// Consecutive pump turns the channel had been at least half full.
        hot_turns: u32,
        /// Other workers parked on their doorbells (idle capacity).
        parked_workers: usize,
        /// Records/s the session sustained on the plain path over those
        /// hot turns (0 when entry was forced and nothing was measured).
        plain_rate: u64,
    },
    /// A pipelined session's backlog drained; it returned to plain
    /// sequential pumping, every shipped epoch merged.
    PipelineExit {
        /// The session.
        session: u64,
        /// Tenant label.
        tenant: String,
        /// Epoch jobs shipped during this pipelined stretch.
        epochs: u64,
        /// Records/s emitted by the stretch's epoch jobs over its wall
        /// time, entry to exit — to be read against the `plain_rate` of
        /// the matching [`EventKind::PipelineEnter`].
        stretch_rate: u64,
    },
    /// A lifeguard reported a violation.
    Violation {
        /// Reporting session.
        session: u64,
        /// Tenant label.
        tenant: String,
        /// Human-readable violation description.
        detail: String,
        /// Global record id of the faulting trace record, when the
        /// session carries a durable trace identity and the violation
        /// anchors to a record — the join key against the trace lake
        /// (`/lake/query?around=` replays its neighborhood).
        record: Option<RecordId>,
        /// The offending frame's completed span chain, snapshotted from
        /// the flight recorder at violation time (empty when the frame
        /// was unsampled or span recording is off) — per-frame
        /// provenance attached to the event itself.
        spans: Vec<SpanRecord>,
    },
}

impl EventKind {
    /// Stable kind tag (the `"kind"` field of the JSON export).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::SessionOpen { .. } => "session_open",
            EventKind::SessionClose { .. } => "session_close",
            EventKind::Steal { .. } => "steal",
            EventKind::LaneFailure { .. } => "lane_failure",
            EventKind::HandshakeReject { .. } => "handshake_reject",
            EventKind::PipelineEnter { .. } => "pipeline_enter",
            EventKind::PipelineExit { .. } => "pipeline_exit",
            EventKind::Violation { .. } => "violation",
        }
    }
}

/// One ring entry: an [`EventKind`] stamped with its sequence number and
/// ring-relative time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsEvent {
    /// Monotone sequence number (gaps mean the ring overwrote entries).
    pub seq: u64,
    /// Nanoseconds since the ring (registry) was created.
    pub at_nanos: u64,
    /// What happened.
    pub kind: EventKind,
}

#[derive(Debug)]
struct RingInner {
    buf: VecDeque<ObsEvent>,
    next_seq: u64,
    dropped: u64,
}

/// A bounded, shared ring of [`ObsEvent`]s. Cloning shares the ring.
#[derive(Debug, Clone)]
pub struct EventRing {
    inner: Arc<Mutex<RingInner>>,
    capacity: usize,
    started: Instant,
}

/// What one [`EventRing::since`] cursor read returned.
#[derive(Debug, Clone)]
pub struct EventsSnapshot {
    /// Events with `seq >= since`, oldest first.
    pub events: Vec<ObsEvent>,
    /// Events ever overwritten before being served (ring-wide).
    pub dropped: u64,
    /// The next sequence number the ring will assign — pass as the next
    /// read's `since` to resume exactly where this one stopped.
    pub next_seq: u64,
}

impl EventRing {
    /// Default ring capacity.
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// A ring retaining the most recent `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> EventRing {
        assert!(capacity > 0, "a zero-capacity event ring records nothing");
        EventRing {
            inner: Arc::new(Mutex::new(RingInner {
                buf: VecDeque::with_capacity(capacity),
                next_seq: 0,
                dropped: 0,
            })),
            capacity,
            started: Instant::now(),
        }
    }

    /// Records one event, assigning it the next sequence number. The
    /// oldest entry is overwritten when the ring is full.
    pub fn record(&self, kind: EventKind) {
        let at_nanos = self.started.elapsed().as_nanos() as u64;
        let mut inner = self.inner.lock().unwrap();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        if inner.buf.len() == self.capacity {
            inner.buf.pop_front();
            inner.dropped += 1;
        }
        inner.buf.push_back(ObsEvent { seq, at_nanos, kind });
    }

    /// Events recorded so far (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.inner.lock().unwrap().next_seq
    }

    /// Reads every retained event with `seq >= since`, oldest first,
    /// without consuming anything (the ring itself is the retention
    /// policy). `since = 0` reads everything retained.
    pub fn since(&self, since: u64) -> EventsSnapshot {
        let inner = self.inner.lock().unwrap();
        EventsSnapshot {
            events: inner.buf.iter().filter(|e| e.seq >= since).cloned().collect(),
            dropped: inner.dropped,
            next_seq: inner.next_seq,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences_and_overwrite() {
        let ring = EventRing::new(3);
        for i in 0..5u64 {
            ring.record(EventKind::Steal { session: i, from_worker: 0, to_worker: 1 });
        }
        let snap = ring.since(0);
        assert_eq!(snap.dropped, 2);
        assert_eq!(snap.next_seq, 5);
        assert_eq!(snap.events.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![2, 3, 4]);

        // Cursor resume: nothing new since next_seq.
        assert!(ring.since(snap.next_seq).events.is_empty());
        ring.record(EventKind::LaneFailure { lane: "x".into(), error: "boom".into() });
        let more = ring.since(snap.next_seq);
        assert_eq!(more.events.len(), 1);
        assert_eq!(more.events[0].seq, 5);
        assert_eq!(more.events[0].kind.name(), "lane_failure");
    }

    #[test]
    fn empty_ring_reads_cleanly() {
        let ring = EventRing::new(4);
        for since in [0, 1, u64::MAX] {
            let snap = ring.since(since);
            assert!(snap.events.is_empty());
            assert_eq!(snap.dropped, 0);
            assert_eq!(snap.next_seq, 0);
        }
        assert_eq!(ring.recorded(), 0);
    }

    #[test]
    fn cursor_past_head_is_empty_but_keeps_counters() {
        let ring = EventRing::new(2);
        for i in 0..3u64 {
            ring.record(EventKind::Steal { session: i, from_worker: 0, to_worker: 1 });
        }
        // next_seq is 3; a reader asking for the future gets nothing, but
        // the cursor/drop bookkeeping still tells it where the ring is.
        let snap = ring.since(100);
        assert!(snap.events.is_empty());
        assert_eq!(snap.next_seq, 3);
        assert_eq!(snap.dropped, 1);
    }

    #[test]
    fn cursor_inside_overwritten_region_reports_dropped() {
        let ring = EventRing::new(3);
        for i in 0..10u64 {
            ring.record(EventKind::Steal { session: i, from_worker: 0, to_worker: 1 });
        }
        // Retained: seqs 7, 8, 9. A reader resuming from seq 2 (long
        // overwritten) sees only what survived, and `dropped` tells it
        // the ring lost ground: 10 recorded - 3 retained = 7 overwritten.
        let snap = ring.since(2);
        assert_eq!(snap.events.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![7, 8, 9]);
        assert_eq!(snap.dropped, 7);
        assert_eq!(snap.next_seq, 10);
        // The resumed cursor then pages cleanly: nothing new yet.
        assert!(ring.since(snap.next_seq).events.is_empty());
    }

    #[test]
    fn wraparound_keeps_exactly_capacity_newest() {
        let ring = EventRing::new(4);
        for i in 0..100u64 {
            ring.record(EventKind::SessionClose {
                session: i,
                tenant: format!("t{i}"),
                records: i,
                violations: 0,
            });
        }
        let snap = ring.since(0);
        assert_eq!(snap.events.len(), 4);
        assert_eq!(snap.events.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![96, 97, 98, 99]);
        assert_eq!(snap.dropped, 96);
        assert_eq!(ring.recorded(), 100);
        // Sequence numbers stay monotone across the wrap.
        assert!(snap.events.windows(2).all(|w| w[0].seq + 1 == w[1].seq));
    }
}
