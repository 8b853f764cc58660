//! The [`PipelineMode::Auto`] entry gate, driven by hand.
//!
//! The threaded tests (`tests/pipeline_determinism.rs`) take whatever
//! decisions the host's scheduling produces; on a small host the gate
//! rarely even enters. Here the test thread *is* a worker: it checks the
//! hot session out of its shard (exactly what a worker's `pop` does, so
//! the pool's real worker can no longer see it) and pumps it turn by turn,
//! so the gate is looked at with the pool's worker parked — idle capacity —
//! on purpose, and the session's results are compared with sequential
//! monitoring afterwards. Every wait on the other thread has a deadline.

use super::*;
use igm_core::DispatchStats;
use igm_isa::{Annotation, MemRef, OpClass, Reg, TraceEntry};
use igm_obs::ObsEvent;

const HEAP: u32 = 0x9000_0000;

/// Spins until `done` holds; panics (rather than hanging the suite) if the
/// other thread has not got there within a generous deadline.
fn spin_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::yield_now();
    }
}

/// Benign AddrCheck traffic over one allocation with an access to
/// unallocated memory every 97 records.
fn planted_trace(n: u32) -> Vec<TraceEntry> {
    let mut trace = vec![TraceEntry::annot(0x10, Annotation::Malloc { base: HEAP, size: 0x1000 })];
    for i in 0..n {
        let pc = 0x1000 + 8 * i;
        let word = MemRef::word(HEAP + 4 * (i.wrapping_mul(7) % 0x400));
        trace.push(match i % 3 {
            0 => TraceEntry::op(pc, OpClass::ImmToMem { dst: word }),
            1 => TraceEntry::op(pc, OpClass::MemToReg { src: word, rd: Reg::Eax }),
            _ => TraceEntry::op(pc, OpClass::RegToReg { rs: Reg::Eax, rd: Reg::Ecx }),
        });
        if i % 97 == 96 {
            let wild = MemRef::word(0xdead_0000 + 8 * i);
            trace.push(TraceEntry::op(pc + 1, OpClass::MemToReg { src: wild, rd: Reg::Edx }));
        }
    }
    trace
}

fn sequential(cfg: &SessionConfig, trace: &[TraceEntry]) -> (Vec<Violation>, DispatchStats) {
    let mut lifeguard = cfg.build_lifeguard();
    let mut pipeline =
        DispatchPipeline::new(lifeguard.etct(), &cfg.lifeguard.mask_config(&cfg.accel));
    let (mut events, mut cost) = (EventBuf::new(), CostSink::discarding());
    pump_records(
        &mut pipeline,
        &mut lifeguard,
        &mut cost,
        &mut events,
        &TraceBatch::from_entries(trace),
    );
    (lifeguard.take_violations(), pipeline.stats().clone())
}

/// A one-worker `Auto` pool whose hot session the test thread pumps.
struct Rig {
    pool: MonitorPool,
    handle: SessionHandle,
    session: ActiveSession,
    stats: PoolStats,
    /// The trace, in 32-record sends, and how many were published.
    sends: Vec<Vec<TraceEntry>>,
    sent: usize,
    cfg: SessionConfig,
    trace: Vec<TraceEntry>,
}

impl Rig {
    fn new(records: u32) -> Rig {
        let pool = MonitorPool::new(PoolConfig {
            workers: 1,
            channel_capacity_bytes: 2048,
            spans: false,
            pipeline: PipelineMode::Auto,
            epoch: EpochConfig::Fixed(64),
            ..PoolConfig::default()
        });
        let cfg = SessionConfig::new("hot", LifeguardKind::AddrCheck);
        let handle = pool.open_session(cfg.clone());
        // Check the session out; the worker re-queues it after every
        // (empty) pump, so the pop succeeds within a few tries.
        let mut session = None;
        spin_until("the session is back in its shard", || {
            session = pool.shared.shards[0].pop();
            session.is_some()
        });
        let session = session.unwrap();
        let trace = planted_trace(records);
        let stats = pool.shared.stats.per_worker();
        let sends = trace.chunks(32).map(<[TraceEntry]>::to_vec).collect();
        Rig { pool, handle, session, stats, sends, sent: 0, cfg, trace }
    }

    fn shared(&self) -> &PoolShared {
        &self.pool.shared
    }

    /// Publishes sends until the channel refuses one (or the trace ends).
    fn fill(&mut self) {
        while let Some(send) = self.sends.get(self.sent) {
            match self.handle.try_send_batch(send.clone()).expect("session is open") {
                None => self.sent += 1,
                Some(_) => break,
            }
        }
    }

    /// Waits until the pool's only worker is parked.
    fn await_worker_parked(&self) {
        spin_until("the worker parks", || self.shared().parked_workers() == 1);
    }

    /// One pump turn, as the session's owning worker.
    fn turn(&mut self) -> usize {
        self.session.pump(BATCHES_PER_TURN, &self.pool.shared, &self.stats, 0, 0)
    }

    /// Fills the channel and pumps with the helper parked, until the gate
    /// lets the session in. (The helper's park timeout can wake it just as
    /// the gate looks; that opportunity is declined and the next one taken.)
    fn enter(&mut self) {
        for _ in 0..100 * gate::HOT_TURNS_TO_PIPELINE {
            assert!(self.sent < self.sends.len(), "the trace ran out before the gate opened");
            self.fill();
            self.await_worker_parked();
            self.turn();
            if self.session.pipe.is_some() {
                return;
            }
        }
        panic!("hot with a parked helper, yet never pipelined");
    }

    /// Streams the rest of the trace on whatever path the session is on,
    /// finalizes it and returns `(report, lifecycle events)`.
    fn finish(mut self) -> (SessionReport, Vec<ObsEvent>) {
        while self.sent < self.sends.len() {
            self.fill();
            self.turn();
        }
        self.handle.close();
        spin_until("the closed session drains", || {
            self.turn();
            self.session.finished()
        });
        let Rig { pool, handle, session, stats, cfg, trace, .. } = self;
        session.finalize(&stats, &pool.shared);
        let report = handle.finish();
        let (violations, dispatch) = sequential(&cfg, &trace);
        assert_eq!(report.records, trace.len() as u64);
        assert_eq!(report.violations, violations, "violations differ from sequential");
        assert_eq!(report.dispatch, dispatch, "DispatchStats differ from sequential");
        let snapshot = pool.metrics().snapshot();
        assert_eq!(snapshot.gauge_value("igm_epoch_pipeline_active"), Some(0));
        assert_eq!(snapshot.gauge_value("igm_epoch_backlog_records"), Some(0));
        let events = pool.events().since(0).events;
        pool.shutdown();
        (report, events)
    }
}

#[test]
fn a_hot_session_enters_when_a_worker_is_parked_and_exits_drained() {
    let mut rig = Rig::new(12_000);
    rig.enter();
    let (_, events) = rig.finish();
    let enter = events.iter().find_map(|e| match &e.kind {
        EventKind::PipelineEnter {
            hot_turns,
            parked_workers,
            plain_rate,
            channel_used_bytes,
            channel_capacity_bytes,
            ..
        } => Some((
            *hot_turns,
            *parked_workers,
            *plain_rate,
            *channel_used_bytes,
            *channel_capacity_bytes,
        )),
        _ => None,
    });
    let (hot_turns, parked_workers, plain_rate, used, capacity) =
        enter.expect("a pipeline_enter event");
    assert_eq!((hot_turns, parked_workers), (gate::HOT_TURNS_TO_PIPELINE, 1));
    assert!(plain_rate > 0);
    assert!(used * 2 >= capacity);
    let exits: Vec<(u64, u64)> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::PipelineExit { epochs, stretch_rate, .. } => Some((epochs, stretch_rate)),
            _ => None,
        })
        .collect();
    assert!(!exits.is_empty(), "a finished session has left the stretch it entered");
    assert!(exits[0].0 > 0 && exits[0].1 > 0, "the stretch shipped epochs at a measured rate");
}
