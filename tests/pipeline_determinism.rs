//! Intra-session epoch pipelining must be invisible in the results: a
//! single hot session forced through the pipelined path
//! ([`PipelineMode::Always`], the `pool-always` strategy of
//! `tests/equivalence.rs`) reports what the sequential `Monitor` reports,
//! across randomized worker counts, epoch budgets, send sizes and a
//! small transport chunk and channel. Under [`PipelineMode::Auto`] the
//! same holds whichever way the entry gate decides, every stretch it
//! enters it leaves, and on a one-worker pool it never decides to
//! pipeline at all.

mod common;

use common::strategies::{assert_matches_monitor, pipelined};
use common::{planted_trace, sequential};
use igm::lifeguards::LifeguardKind;
use igm::obs::EventKind;
use igm::runtime::{EpochConfig, MonitorPool, PipelineMode, PoolConfig, SessionConfig};
use proptest::prelude::*;

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
        let seq = sequential(&SessionConfig::new("hot", kind), &trace);
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
        assert_eq!(report.violations, seq.violations(), "{kind}");
        assert_eq!(&report.dispatch, seq.dispatch_stats(), "{kind}");
        pool.shutdown();
    }
}

/// A `workers`-worker pool with a small channel and transport chunk,
/// sizing epochs by `epoch`.
fn small_pool(workers: usize, epoch: EpochConfig) -> PoolConfig {
    PoolConfig {
        workers,
        channel_capacity_bytes: 8192,
        chunk_bytes: 512,
        epoch,
        ..PoolConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// One hot session, pipelined from the first record, matches the
    /// sequential monitor for every worker count and epoch budget, for an
    /// elision-heavy lifeguard (AddrCheck), a cascade-suppressing one
    /// (MemCheck) and one that elides nothing (LockSet).
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
            let cfg = SessionConfig::new("hot", kind);
            let pool = small_pool(workers, EpochConfig::fixed(budget));
            let (got, jobs) = pipelined(&cfg, &trace, pool, chunk_records);
            prop_assert!(jobs > 0, "{kind}: Always mode must actually ship epoch jobs");
            let want = assert_matches_monitor(&cfg, &trace, &got, false);
            prop_assert!(!want.violations.is_empty(), "{kind}: planted patterns must fire");
        }
    }

    /// Adaptive epoch sizing under pipelining must not change results
    /// either, whatever cuts the check-density feedback picks.
    #[test]
    fn pipelined_adaptive_budgets_match_sequential_monitor(
        workers in 1usize..=4,
        n in 300usize..700,
        seed in 1u32..1000,
    ) {
        let kind = LifeguardKind::AddrCheck;
        let trace = planted_trace(kind, n, 17, seed);
        let cfg = SessionConfig::new("hot", kind);
        let epoch = EpochConfig { initial: 64, min: 16, max: 256, target_checks: 128 };
        let (got, _) = pipelined(&cfg, &trace, small_pool(workers, epoch), 23);
        assert_matches_monitor(&cfg, &trace, &got, false);
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
        let seq = sequential(&SessionConfig::new("hot", kind), &trace);

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
        prop_assert_eq!(&report.violations[..], seq.violations());
        prop_assert_eq!(&report.dispatch, seq.dispatch_stats());
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
}
