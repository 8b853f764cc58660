//! Acceptance tests for the streaming runtime: a session pipelined into
//! snapshot-checked epochs ([`PipelineMode::Always`]) is exact against the
//! sequential `Monitor` on long traces with planted taint chains (IT on
//! and off), on a short MemCheck trace cut into 2-record epochs and on a
//! clean workload (the `pool-always` strategy of `tests/equivalence.rs`,
//! here with bounds on the epoch jobs it ships); the multi-tenant pool
//! serves concurrent benchmark sessions end to end; an `Ingestor` whose
//! stalled passes run lifeguard turns on its own thread stays exact and
//! counts every record once; producers that help while the pool shuts
//! down never hang or lose a report; and the pool refuses an epoch
//! configuration that bounds no epoch.

mod common;

use common::strategies::{assert_matches_monitor, pipelined, Observed};
use igm::accel::AccelConfig;
use igm::isa::{Annotation, MemRef, OpClass, Reg, TraceEntry};
use igm::lifeguards::{LifeguardKind, Violation};
use igm::runtime::{
    EpochConfig, MonitorPool, PipelineMode, PoolConfig, SessionConfig, SessionReport,
};
use igm::sim::SimConfig;
use igm::trace::{Ingestor, IterSource};
use igm::workload::Benchmark;
use std::sync::mpsc;
use std::time::Duration;

/// Streams `trace` in `send`-record sends through one session pipelined
/// from its first record, on a fresh pool of `workers` workers sizing
/// epochs by `epoch`, and asserts it matches the sequential `Monitor`.
/// Returns the violations and the pool's epoch-job count.
fn assert_pipelined_matches_sequential(
    cfg: &SessionConfig,
    trace: &[TraceEntry],
    workers: usize,
    epoch: EpochConfig,
    send: usize,
) -> (Vec<Violation>, u64) {
    let (got, jobs) =
        pipelined(cfg, trace, PoolConfig { epoch, ..PoolConfig::with_workers(workers) }, send);
    assert_matches_monitor(cfg, trace, &got, false);
    (got.violations, jobs)
}

#[test]
fn epoch_parallel_taintcheck_matches_sequential_monitor() {
    let trace = common::taint_chains(30_000);
    let send = 64;
    let baseline = SessionConfig::new("hot-app", LifeguardKind::TaintCheck);
    // Epoch sizes that do not divide the trace evenly, so the tail epoch
    // is short and the planted chains straddle cuts. No epoch exceeds its
    // budget by a whole send, which bounds the job count from below.
    for budget in [1_000, 4_096] {
        let (violations, jobs) = assert_pipelined_matches_sequential(
            &baseline,
            &trace,
            4,
            EpochConfig::fixed(budget),
            send,
        );
        assert!(violations.len() >= 20, "planted chains must fire (got {})", violations.len());
        let fewest = trace.len().div_ceil(budget + send - 1) as u64;
        assert!(jobs >= fewest, "{jobs} epoch jobs cannot cover the trace at budget {budget}");
    }

    // Adaptive sizing re-budgets every epoch from observed check density;
    // whatever cuts it picks, the result must still equal the reference.
    let adaptive = EpochConfig { initial: 1_000, min: 500, max: 8_192, target_checks: 2_000 };
    let (_, jobs) = assert_pipelined_matches_sequential(&baseline, &trace, 4, adaptive, send);
    let fewest = trace.len().div_ceil(8_192 + send - 1) as u64;
    assert!(jobs >= fewest, "adaptive epochs must cover the trace");

    // With IT on, every epoch job replays from a clone of the dispatch
    // pipeline taken at its boundary, so IT state crosses the cuts intact.
    let it = baseline.clone().accel(AccelConfig::full());
    let (violations, _) =
        assert_pipelined_matches_sequential(&it, &trace, 4, EpochConfig::fixed(1_000), send);
    assert!(violations.len() >= 20, "planted chains must fire with IT on");
}

#[test]
fn non_commuting_lifeguards_run_parallel_and_match_sequential() {
    // MemCheck's loads mutate metadata (cascade suppression), so each
    // epoch job replays the full event stream from its boundary snapshot.
    // 2-record epochs cut right through the store/load dependences.
    let trace = [
        TraceEntry::annot(0x10, Annotation::Malloc { base: 0x9000, size: 64 }),
        // A store then loads; one load of never-allocated memory.
        TraceEntry::op(0x14, OpClass::ImmToMem { dst: MemRef::word(0x9000) }),
        TraceEntry::op(0x18, OpClass::MemToReg { src: MemRef::word(0x9000), rd: Reg::Eax }),
        TraceEntry::op(0x1c, OpClass::MemToReg { src: MemRef::word(0x9020), rd: Reg::Ecx }),
        TraceEntry::op(0x20, OpClass::MemToReg { src: MemRef::word(0xdead_0000), rd: Reg::Edx }),
    ];
    let cfg = SessionConfig::new("memcheck-app", LifeguardKind::MemCheck);
    let (violations, jobs) =
        assert_pipelined_matches_sequential(&cfg, &trace, 2, EpochConfig::fixed(2), 1);
    assert!(!violations.is_empty(), "the unwritten load must fire");
    // One-record sends never overshoot the 2-record budget, so 5 records
    // take at least 3 epochs; a drained channel may ship more, partial ones.
    assert!(jobs >= 3, "only {jobs} epoch jobs for 5 records at budget 2");
}

#[test]
fn epoch_parallel_is_clean_on_clean_workloads() {
    // No planted bugs: both paths must agree on "nothing to report".
    let cfg = SessionConfig::new("clean", LifeguardKind::AddrCheck)
        .synthetic()
        .premark(&Benchmark::Crafty.profile().premark_regions());
    let trace: Vec<TraceEntry> = Benchmark::Crafty.trace(20_000).collect();
    let (violations, jobs) =
        assert_pipelined_matches_sequential(&cfg, &trace, 4, EpochConfig::fixed(4_096), 256);
    assert!(violations.is_empty(), "{:?}", violations.first());
    assert!(jobs > 0, "Always mode must actually ship epoch jobs");
}

#[test]
fn pool_serves_four_premarked_tenants() {
    let tenants = [
        (Benchmark::Gzip, 8_000),
        (Benchmark::Mcf, 8_000),
        (Benchmark::Vpr, 8_000),
        (Benchmark::Gap, 8_000),
    ];
    let pool = MonitorPool::new(PoolConfig::with_workers(4));
    let reports: Vec<SessionReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = tenants
            .iter()
            .map(|&(bench, n)| {
                let session = pool.open_session(
                    SessionConfig::new(bench.name(), LifeguardKind::AddrCheck)
                        .synthetic()
                        .premark(&bench.profile().premark_regions()),
                );
                scope.spawn(move || {
                    session.stream(bench.trace(n)).expect("pool outlives the stream");
                    session.finish()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("tenant thread completes")).collect()
    });
    pool.shutdown();
    assert_eq!(reports.len(), 4);
    for (r, (b, n)) in reports.iter().zip(&tenants) {
        assert_eq!(r.name, b.name());
        assert_eq!(r.records, *n);
        assert!(
            r.violations.is_empty(),
            "{}: clean workload flagged {:?}",
            r.name,
            r.violations.first()
        );
        assert!(r.records_per_sec() > 0.0);
    }
}

/// The `pool_tenants` shape on planted traces: one `Ingestor` thread
/// driving four tenants (the benchmark's lifeguard and accelerator mix)
/// into a one-worker default pool. The pool's only worker is first put
/// inside one long batch of a fifth tenant, so the ingest thread's stalled
/// passes meet runnable sessions and no parked worker, which is when the
/// protocol's `help` runs a turn: the ingest thread helps. Every session
/// must still equal the sequential `Monitor`, and each record must be
/// counted exactly once: what the lane published, what the session saw and
/// what the pool's counter says agree. A helped turn never makes the
/// one-worker `Auto` pool pipeline.
#[test]
fn ingest_thread_helps_a_one_worker_pool_exactly() {
    let n = 40_000;
    let planted = |kind, stride, seed| common::planted_trace(kind, n, stride, seed);
    let tenants = [
        (LifeguardKind::AddrCheck, false, planted(LifeguardKind::AddrCheck, 97, 1)),
        (LifeguardKind::MemCheck, true, planted(LifeguardKind::MemCheck, 89, 2)),
        (LifeguardKind::TaintCheck, true, common::taint_chains(n as u64)),
        (LifeguardKind::LockSet, false, planted(LifeguardKind::LockSet, 83, 3)),
    ];
    let cfgs: Vec<SessionConfig> = tenants
        .iter()
        .map(|(kind, on, _)| {
            let accel =
                if *on { SimConfig::optimized(*kind).accel } else { AccelConfig::baseline() };
            SessionConfig::new(format!("{kind}-{on}"), *kind).accel(accel)
        })
        .collect();
    let pool = MonitorPool::new(PoolConfig { workers: 1, ..PoolConfig::default() });
    let chunk = PoolConfig::default().chunk_bytes;
    let busy = pool.open_session(SessionConfig::new("busy", LifeguardKind::AddrCheck));
    let long = common::planted_trace(LifeguardKind::AddrCheck, 1_000_000, 101, 4);
    busy.send_batch(long.clone()).unwrap();
    while busy.channel_stats().used_bytes > 0 {
        std::thread::yield_now(); // until the worker has taken the batch
    }
    let mut ingestor = Ingestor::new(&pool);
    for (cfg, (_, _, trace)) in cfgs.iter().zip(&tenants) {
        ingestor.add_source(cfg.clone(), IterSource::new(trace.clone(), chunk));
    }
    let report = ingestor.run();
    let busy = busy.finish();
    let stats = pool.stats();
    pool.shutdown();
    assert_eq!(busy.records, long.len() as u64);

    assert!(report.errors.is_empty(), "{:?}", report.errors);
    let mut records = 0;
    for ((session, (lane, lane_stats)), (cfg, (_, _, trace))) in
        report.sessions.into_iter().zip(&report.lanes).zip(cfgs.iter().zip(&tenants))
    {
        assert_eq!(lane_stats.records, session.records, "lane {lane}");
        records += session.records;
        assert_matches_monitor(cfg, trace, &Observed::from(session), true);
    }
    assert_eq!(stats.records, records + busy.records, "a helped turn counts its records once");
    assert!(stats.helped_turns > 0, "the ingest thread never ran a turn: {stats:?}");
    assert_eq!(stats.epoch_jobs, 0, "a helped turn let a one-worker pool pipeline");
}

/// The shutdown hammer: producers stream through small channels, waiting
/// out backpressure by helping, while another thread shuts the pool down
/// at a different point each round. Every producer must come back, its
/// sends either accepted or refused with `SendError` once its session is
/// terminated, and its `finish` must return the report of what was
/// accepted: no helper may keep a session checked out across the workers'
/// exit. The whole run is bounded by a timeout instead of hanging.
#[test]
fn shutdown_while_producers_help_never_hangs_or_orphans_a_session() {
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut helped = 0;
        for round in 0..40u32 {
            let pool = MonitorPool::new(PoolConfig {
                workers: 1 + round as usize % 2,
                channel_capacity_bytes: 2048,
                chunk_bytes: 256,
                ..PoolConfig::default()
            });
            let metrics = std::sync::Arc::clone(pool.metrics());
            let trace = common::planted_trace(LifeguardKind::AddrCheck, 20_000, 97, round);
            let producers: Vec<_> = (0..3)
                .map(|t| {
                    let cfg = SessionConfig::new(format!("p{t}"), LifeguardKind::AddrCheck);
                    let session = pool.open_session(cfg);
                    let trace = trace.clone();
                    std::thread::spawn(move || {
                        let mut accepted = 0;
                        for send in trace.chunks(48) {
                            if session.send_batch(send.to_vec()).is_err() {
                                break;
                            }
                            accepted += send.len() as u64;
                        }
                        (accepted, session.finish())
                    })
                })
                .collect();
            std::thread::sleep(Duration::from_micros(250 * u64::from(round % 12)));
            pool.shutdown();
            for producer in producers {
                let (accepted, report) = producer.join().expect("the producer returns");
                assert!(report.records <= accepted, "{} > {accepted}", report.records);
            }
            helped += metrics.snapshot().counter_value("igm_pool_helped_turns_total").unwrap();
        }
        done_tx.send(helped).unwrap();
    });
    let helped = done_rx
        .recv_timeout(Duration::from_secs(120))
        .expect("a producer, helper or worker hung across shutdown");
    assert!(helped > 0, "the producers never helped");
}

/// An epoch budget clamped to `[0, max]` could ask for empty epochs; the
/// pool refuses it up front instead of on some session's first pump.
#[test]
#[should_panic(expected = "epochs must hold at least one record")]
fn pool_rejects_a_zero_epoch_minimum() {
    let _ = MonitorPool::new(PoolConfig {
        pipeline: PipelineMode::Always,
        epoch: EpochConfig { min: 0, ..EpochConfig::adaptive() },
        ..PoolConfig::with_workers(1)
    });
}

/// Inverted bounds would panic inside a worker's `clamp` on the first
/// pipelined pump (dropping the session); the pool refuses them up front.
#[test]
#[should_panic(expected = "epoch bounds must satisfy min <= max")]
fn pool_rejects_inverted_epoch_bounds() {
    let _ = MonitorPool::new(PoolConfig {
        pipeline: PipelineMode::Always,
        epoch: EpochConfig { initial: 64, min: 256, max: 16, target_checks: 128 },
        ..PoolConfig::with_workers(1)
    });
}
