//! The [`PipelineMode::Auto`] entry gate and helped turns, driven by hand.
//!
//! The threaded tests (`tests/pipeline_determinism.rs`) take whatever
//! decisions the host's scheduling produces; on a small host the gate
//! rarely even enters. Here the test thread *is* a worker: it checks the
//! hot session out of its shard (exactly what a worker's `pop` does, so
//! the pool's real worker can no longer see it) and pumps it turn by turn,
//! so the gate is looked at with the pool's worker parked — idle capacity —
//! on purpose, and the session's results are compared with sequential
//! monitoring afterwards. The same check-out lets the test thread act as a
//! helping producer instead, at exactly the moments a threaded run would
//! only hit by chance: with the worker parked, across a shutdown, in a
//! turn that panics. Every wait on the other thread has a deadline.

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
    let mut m = Monitor::build(cfg.lifeguard, &cfg.accel, cfg.synthetic_workload, &cfg.premark);
    m.observe_trace_batch(&TraceBatch::from_entries(trace));
    (m.lifeguard_mut().take_violations(), m.dispatch_stats().clone())
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
            epoch: EpochConfig::fixed(64),
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
        self.session.pump(BATCHES_PER_TURN, &self.pool.shared, &self.stats, Pumper::worker(0, 0))
    }

    /// One pump turn, as a producer helping while it waits.
    fn helped_turn(&mut self) -> usize {
        let by = Pumper { shard: 0, ring: 0, track: helper_track() };
        self.session.pump(BATCHES_PER_TURN, &self.pool.shared, &self.stats, by)
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

/// Idle capacity is a worker's judgement: helped turns of a hot session,
/// taken while the pool's only worker is parked, neither enter the
/// pipeline nor count toward the gate's hot turns.
#[test]
fn a_helped_turn_never_enters_the_pipeline() {
    let mut rig = Rig::new(12_000);
    for _ in 0..4 * gate::HOT_TURNS_TO_PIPELINE {
        rig.fill();
        rig.await_worker_parked();
        assert!(rig.helped_turn() > 0);
    }
    assert!(rig.session.pipe.is_none(), "a helped turn entered the pipeline");
    assert_eq!(rig.session.hot_turns, 0, "a helped turn counted toward the gate");
    rig.finish();
}

/// A helped turn contains a panic exactly as a worker's turn does. The
/// panicking session is checked out by hand and given a failed epoch
/// result (what a pipelined session's epoch job reports when its
/// lifeguard panicked), its channel is filled, and it goes back on the
/// deque while the pool's only worker is busy with one huge batch of
/// another tenant, so the refused `send_batch` that follows is the thread
/// that takes and pumps it. That send returns the closed-channel error,
/// the failed session's `finish` fails as after a worker-side panic, and
/// the other tenants finish equal to sequential monitoring. Should the
/// test thread be descheduled until the worker is back and takes the
/// session itself, the outcome is the same; the run repeats until the
/// panic happened in a helped turn.
#[test]
fn a_panic_in_a_helped_turn_drops_only_its_session() {
    let helped = (0..5).any(|_| helped_turn_panics());
    assert!(helped, "the refused send never pumped the failing session");
}

/// One round of [`a_panic_in_a_helped_turn_drops_only_its_session`];
/// returns whether the panic happened in the helped turn.
fn helped_turn_panics() -> bool {
    let pool = MonitorPool::new(PoolConfig {
        workers: 1,
        channel_capacity_bytes: 2048,
        spans: false,
        pipeline: PipelineMode::Never,
        ..PoolConfig::default()
    });
    let shared = Arc::clone(&pool.shared);
    let failing = pool.open_session(SessionConfig::new("failing", LifeguardKind::AddrCheck));
    let mut session = None;
    spin_until("the failing session is back in its shard", || {
        session = shared.shards[0].pop();
        session.is_some()
    });
    let mut session = session.unwrap();
    let inputs = EntryInputs {
        channel_used_bytes: 0,
        channel_capacity_bytes: 0,
        hot_turns: 0,
        parked_workers: 0,
        plain_rate: 0,
    };
    session.enter_pipeline(&shared, inputs);
    let pipe = session.pipe.as_mut().unwrap();
    pipe.in_flight = 1;
    let failed = EpochResult {
        index: 0,
        violations: Vec::new(),
        violation_seqs: Vec::new(),
        records: Vec::new(),
        failed: true,
    };
    pipe.tx.send(failed).unwrap();
    let trace = planted_trace(4_000);
    let mut sends = trace.chunks(32);
    let refused = loop {
        let send = sends.next().expect("the channel fills before the trace ends");
        if let Some(refused) = failing.try_send_batch(send.to_vec()).unwrap() {
            break refused;
        }
    };

    let busy_cfg = SessionConfig::new("busy", LifeguardKind::AddrCheck);
    let busy = pool.open_session(busy_cfg.clone());
    let huge = planted_trace(400_000);
    busy.send_batch(huge.clone()).unwrap();
    spin_until("the worker takes the huge batch", || busy.channel_stats().used_bytes == 0);
    shared.shards[0].push(session);

    assert!(failing.send_batch(refused).is_err(), "the session is gone after its panic");
    let helped = pool.stats().helped_turns == 1;
    let finished = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| failing.finish()));
    assert!(finished.is_err(), "a session lost to a panic reports no result");

    let after_cfg = SessionConfig::new("after", LifeguardKind::AddrCheck);
    let after = pool.open_session(after_cfg.clone());
    let trace = planted_trace(20_000);
    after.stream(trace.iter().copied()).unwrap();
    for (handle, cfg, trace) in [(busy, &busy_cfg, &huge), (after, &after_cfg, &trace)] {
        let report = handle.finish();
        let (violations, dispatch) = sequential(cfg, trace);
        assert_eq!(report.records, trace.len() as u64, "{}", cfg.name);
        assert_eq!(report.violations, violations, "{}", cfg.name);
        assert_eq!(report.dispatch, dispatch, "{}", cfg.name);
    }
    pool.shutdown();
    helped
}

/// Shutdown never orphans a session a helper holds. The test thread takes
/// the session as [`PoolShared::help`] does (counted in `helping` first,
/// then checked out), shuts the pool down from another thread, and runs
/// the helped turn once the flag is set:
/// the worker, with an empty deque, must wait for the helped turn instead
/// of exiting, and the turn, ending after the flag is set, must finalize
/// the session rather than put it back on a deque no worker will serve.
#[test]
fn shutdown_waits_for_a_helped_turn_which_finalizes_its_session() {
    let pool = MonitorPool::new(PoolConfig { workers: 1, spans: false, ..PoolConfig::default() });
    let shared = Arc::clone(&pool.shared);
    let handle = pool.open_session(SessionConfig::new("held", LifeguardKind::AddrCheck));
    shared.helping.fetch_add(1, Ordering::SeqCst);
    let mut session = None;
    spin_until("the session is back in its shard", || {
        session = shared.shards[0].pop();
        session.is_some()
    });
    let session = session.unwrap();
    let trace = planted_trace(500);
    assert!(handle.try_send_batch(trace.clone()).unwrap().is_none());

    let shutdown = std::thread::spawn(move || pool.shutdown());
    spin_until("shutdown starts", || shared.shutdown.load(Ordering::SeqCst));
    std::thread::sleep(3 * PARK_TIMEOUT);
    assert!(!shutdown.is_finished(), "the worker left while a helped turn held a session");

    shared.helped_turn(session, 0);
    assert_eq!(shared.shards[0].resident(), 0, "the helped turn put the session back");
    shared.helping.fetch_sub(1, Ordering::SeqCst);
    shared.ring_all();
    shutdown.join().unwrap();
    assert_eq!(handle.finish().records, trace.len() as u64, "finalized after its last turn");
}
