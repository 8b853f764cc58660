//! Intra-session epoch pipelining must be invisible in the results: a
//! single hot session forced through the pipelined path
//! ([`igm::runtime::PipelineMode::Always`]) has to produce the *same
//! violation sequence and the same `DispatchStats`* as the plain
//! sequential `Monitor` over the same trace — for an elision-heavy
//! lifeguard (AddrCheck), a cascade-suppressing one (MemCheck, whose
//! check handlers mutate metadata) and one that elides nothing
//! (LockSet) — across randomized worker counts and epoch budgets. Under
//! [`igm::runtime::PipelineMode::Auto`] the same holds whichever way the
//! entry gate decides — and on a one-worker pool it must never decide to
//! pipeline at all.

use igm::accel::{AccelConfig, DispatchStats};
use igm::isa::{Annotation, MemRef, OpClass, Reg, TraceEntry};
use igm::lifeguards::{Lifeguard, LifeguardKind, Violation};
use igm::obs::EventKind;
use igm::runtime::{EpochConfig, MonitorPool, PipelineMode, PoolConfig, SessionConfig};
use igm::sim::Monitor;
use proptest::prelude::*;

/// A trace for `kind` with violations planted every `stride` records.
fn planted_trace(kind: LifeguardKind, n: usize, stride: usize, seed: u32) -> Vec<TraceEntry> {
    let heap = 0x9000_0000u32;
    let mut trace = Vec::with_capacity(n + 8);
    trace.push(TraceEntry::annot(0x10, Annotation::Malloc { base: heap, size: 0x1000 }));
    for i in 0..n as u32 {
        let pc = 0x1000 + 8 * i;
        let addr = heap + 4 * ((i.wrapping_mul(seed | 1)) % 0x400);
        let benign = match i % 4 {
            0 => TraceEntry::op(pc, OpClass::ImmToMem { dst: MemRef::word(addr) }),
            1 => TraceEntry::op(pc, OpClass::MemToReg { src: MemRef::word(addr), rd: Reg::Eax }),
            2 => TraceEntry::op(pc, OpClass::RegToReg { rs: Reg::Eax, rd: Reg::Ecx }),
            _ => TraceEntry::op(pc, OpClass::DestRegOpReg { rs: Reg::Ecx, rd: Reg::Eax }),
        };
        trace.push(benign);
        if (i as usize + 1).is_multiple_of(stride) {
            match kind {
                LifeguardKind::LockSet => {
                    // Two threads write the same fresh word, no lock held.
                    let w = 0xb000_0000 + 4 * i;
                    trace.push(TraceEntry::op(pc + 1, OpClass::ImmToMem { dst: MemRef::word(w) }));
                    trace.push(TraceEntry::annot(pc + 2, Annotation::ThreadSwitch { tid: 1 }));
                    trace.push(TraceEntry::op(pc + 3, OpClass::ImmToMem { dst: MemRef::word(w) }));
                    trace.push(TraceEntry::annot(pc + 4, Annotation::ThreadSwitch { tid: 0 }));
                }
                _ => {
                    // Touch unallocated memory (AddrCheck, MemCheck).
                    trace.push(TraceEntry::op(
                        pc + 1,
                        OpClass::MemToReg { src: MemRef::word(0xdead_0000 + 8 * i), rd: Reg::Edx },
                    ));
                }
            }
        }
    }
    trace
}

/// The sequential reference: the ordinary single-threaded `Monitor`.
fn sequential_reference(
    kind: LifeguardKind,
    trace: &[TraceEntry],
) -> (Vec<Violation>, DispatchStats) {
    let accel = AccelConfig::baseline();
    let mut seq = Monitor::new(kind.build_any(&accel), &accel);
    seq.observe_all(trace.iter().copied());
    let stats = seq.dispatch_stats().clone();
    let violations = seq.lifeguard_mut().take_violations();
    (violations, stats)
}

/// `(pipeline_enter, pipeline_exit)` events in the pool's ring.
fn pipeline_events(pool: &MonitorPool) -> (usize, usize) {
    let events = pool.events().since(0).events;
    let count = |want: fn(&EventKind) -> bool| events.iter().filter(|e| want(&e.kind)).count();
    (
        count(|k| matches!(k, EventKind::PipelineEnter { .. })),
        count(|k| matches!(k, EventKind::PipelineExit { .. })),
    )
}

/// One worker has no idle capacity to pipeline into: however hot the
/// channel runs, `Auto` must leave the session on the plain path — no
/// `pipeline_enter`, no epoch job — and the report is the sequential
/// monitor's.
#[test]
fn auto_never_pipelines_on_one_worker() {
    for kind in [LifeguardKind::AddrCheck, LifeguardKind::MemCheck] {
        let trace = planted_trace(kind, 40_000, 97, 7);
        let (seq_violations, seq_dispatch) = sequential_reference(kind, &trace);
        let pool = MonitorPool::new(PoolConfig {
            workers: 1,
            // A tiny channel and a producer that never pauses: the channel
            // sits full, which is all the parent's `Auto` looked at.
            channel_capacity_bytes: 2048,
            chunk_bytes: 256,
            pipeline: PipelineMode::Auto,
            ..PoolConfig::default()
        });
        let session = pool.open_session(SessionConfig::new("hot", kind));
        for chunk in trace.chunks(64) {
            session.send_batch(chunk.to_vec()).unwrap();
        }
        let report = session.finish();
        assert_eq!(pipeline_events(&pool), (0, 0), "{kind}: pipelined on a one-worker pool");
        assert_eq!(pool.stats().epoch_jobs, 0, "{kind}");
        assert_eq!(report.records, trace.len() as u64);
        assert_eq!(report.violations, seq_violations, "{kind}");
        assert_eq!(report.dispatch, seq_dispatch, "{kind}");
        pool.shutdown();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// One hot session, pipelined from the first record: violations and
    /// dispatch counters equal the sequential monitor exactly, for every
    /// worker count and epoch budget.
    #[test]
    fn pipelined_session_matches_sequential_monitor(
        workers in 1usize..=4,
        budget in 8usize..600,
        n in 300usize..900,
        stride in 11usize..50,
        chunk_records in 1usize..64,
        seed in 1u32..1000,
    ) {
        for kind in [LifeguardKind::AddrCheck, LifeguardKind::MemCheck, LifeguardKind::LockSet] {
            let trace = planted_trace(kind, n, stride, seed);
            let (seq_violations, seq_dispatch) = sequential_reference(kind, &trace);
            prop_assert!(!seq_violations.is_empty(), "{kind}: planted patterns must fire");

            let pool = MonitorPool::new(PoolConfig {
                workers,
                channel_capacity_bytes: 8192,
                chunk_bytes: 512,
                pipeline: PipelineMode::Always,
                epoch: EpochConfig::fixed(budget),
                ..PoolConfig::default()
            });
            let session = pool.open_session(SessionConfig::new("hot", kind));
            for chunk in trace.chunks(chunk_records) {
                session.send_batch(chunk.to_vec()).unwrap();
            }
            let report = session.finish();
            prop_assert!(
                pool.stats().epoch_jobs > 0,
                "{kind}: Always mode must actually ship epoch jobs"
            );
            prop_assert_eq!(report.records, trace.len() as u64);
            prop_assert_eq!(
                &report.violations, &seq_violations,
                "{} violations (workers={}, budget={}, chunk={})",
                kind, workers, budget, chunk_records
            );
            prop_assert_eq!(
                &report.dispatch, &seq_dispatch,
                "{} dispatch stats (workers={}, budget={}, chunk={})",
                kind, workers, budget, chunk_records
            );
            pool.shutdown();
        }
    }

    /// Auto mode decides per session, from live channel occupancy and
    /// parked workers, whether to pipeline — and whichever way the race
    /// falls, results must equal the sequential monitor, every stretch
    /// entered must have been exited, and the pipeline gauges must settle
    /// back to zero once the session finishes.
    #[test]
    fn auto_mode_is_invisible_and_settles_gauges(
        workers in 1usize..=4,
        n in 400usize..900,
        seed in 1u32..1000,
    ) {
        let kind = LifeguardKind::AddrCheck;
        let trace = planted_trace(kind, n, 19, seed);
        let (seq_violations, seq_dispatch) = sequential_reference(kind, &trace);

        let pool = MonitorPool::new(PoolConfig {
            workers,
            // A tiny channel, so a blasting producer keeps it byte-hot and
            // Auto's occupancy detector has every chance to trigger.
            channel_capacity_bytes: 2048,
            chunk_bytes: 256,
            pipeline: PipelineMode::Auto,
            ..PoolConfig::default()
        });
        let session = pool.open_session(SessionConfig::new("hot", kind));
        for chunk in trace.chunks(64) {
            session.send_batch(chunk.to_vec()).unwrap();
        }
        let report = session.finish();
        prop_assert_eq!(&report.violations, &seq_violations);
        prop_assert_eq!(&report.dispatch, &seq_dispatch);
        let (entered, exited) = pipeline_events(&pool);
        prop_assert_eq!(entered, exited, "a finished session has left every stretch it entered");
        if workers == 1 {
            prop_assert_eq!(entered, 0, "nothing is parked on a one-worker pool");
        }
        for g in pool.metrics().snapshot().gauges {
            if g.name == "igm_epoch_pipeline_active" || g.name == "igm_epoch_backlog_records" {
                prop_assert_eq!(g.value, 0, "{} must settle after finish", g.name);
            }
        }
        pool.shutdown();
    }

    /// Adaptive epoch sizing under pipelining must not change results
    /// either — whatever cuts the check-density feedback picks.
    #[test]
    fn pipelined_adaptive_budgets_match_sequential_monitor(
        workers in 1usize..=4,
        n in 300usize..700,
        seed in 1u32..1000,
    ) {
        let kind = LifeguardKind::AddrCheck;
        let trace = planted_trace(kind, n, 17, seed);
        let (seq_violations, seq_dispatch) = sequential_reference(kind, &trace);

        let pool = MonitorPool::new(PoolConfig {
            workers,
            channel_capacity_bytes: 8192,
            chunk_bytes: 512,
            pipeline: PipelineMode::Always,
            epoch: EpochConfig { initial: 64, min: 16, max: 256, target_checks: 128 },
            ..PoolConfig::default()
        });
        let session = pool.open_session(SessionConfig::new("hot", kind));
        for chunk in trace.chunks(23) {
            session.send_batch(chunk.to_vec()).unwrap();
        }
        let report = session.finish();
        prop_assert_eq!(&report.violations, &seq_violations);
        prop_assert_eq!(&report.dispatch, &seq_dispatch);
        pool.shutdown();
    }
}
