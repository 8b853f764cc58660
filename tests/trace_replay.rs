//! Replay determinism and multiplexed ingest, end to end.
//!
//! The acceptance bar for the trace subsystem: replaying a captured trace
//! file through a `MonitorPool` must yield violations and `DispatchStats`
//! identical to the live run that produced it, for all five lifeguards —
//! and a single-thread `Ingestor` must drive many concurrent tenant
//! sources to the same results as dedicated producer threads. A session's
//! violation record ids name the exact faulting record, live or windowed,
//! plain or pipelined.

use igm::isa::{Annotation, CtrlOp, JumpTarget, MemRef, OpClass, Reg, TraceEntry};
use igm::lifeguards::{Lifeguard, LifeguardKind};
use igm::runtime::{
    EpochConfig, MonitorPool, PipelineMode, PoolConfig, SessionConfig, SessionReport,
};
use igm::sim::Monitor;
use igm::trace::{
    batch_pipe, replay_reader, replay_window, CaptureSession, FileSource, IngestConfig, Ingestor,
    IterSource, TraceReader, TraceWriter,
};
use igm::workload::{Benchmark, MtBenchmark};

/// A short buggy epilogue appended to a clean generated trace so replay
/// equality is asserted over *non-empty* violation sets: an out-of-bounds
/// heap read (AddrCheck, MemCheck) and a control transfer through a
/// tainted pointer (both TaintChecks).
fn buggy_epilogue() -> Vec<TraceEntry> {
    vec![
        TraceEntry::annot(0x9100_0000, Annotation::Malloc { base: 0x0a00_0000, size: 64 }),
        TraceEntry::annot(0x9100_0004, Annotation::ReadInput { base: 0x0a00_0000, len: 4 }),
        // One byte past the allocation.
        TraceEntry::op(
            0x9100_0008,
            OpClass::MemToReg { src: MemRef::word(0x0a00_0040), rd: Reg::Edx },
        ),
        // Load the untrusted word and jump through it.
        TraceEntry::op(
            0x9100_000c,
            OpClass::MemToReg { src: MemRef::word(0x0a00_0000), rd: Reg::Eax },
        ),
        TraceEntry::ctrl(0x9100_0010, CtrlOp::Indirect { target: JumpTarget::Reg(Reg::Eax) }),
        TraceEntry::annot(0x9100_0014, Annotation::Free { base: 0x0a00_0000 }),
    ]
}

fn session_cfg(kind: LifeguardKind, name: &str) -> SessionConfig {
    let premark = match kind {
        LifeguardKind::LockSet => MtBenchmark::Zchaff.trace(1).premark_regions(),
        _ => Benchmark::Gzip.profile().premark_regions(),
    };
    SessionConfig::new(name, kind).synthetic().premark(&premark)
}

fn workload_for(kind: LifeguardKind, n: u64) -> Vec<TraceEntry> {
    match kind {
        LifeguardKind::LockSet => MtBenchmark::Zchaff.trace(n).collect(),
        _ => {
            let mut trace: Vec<TraceEntry> = Benchmark::Gzip.trace(n).collect();
            trace.extend(buggy_epilogue());
            trace
        }
    }
}

#[test]
fn replay_reproduces_live_runs_for_all_five_lifeguards() {
    const N: u64 = 20_000;
    let pool = MonitorPool::new(PoolConfig::with_workers(4));
    for kind in [
        LifeguardKind::AddrCheck,
        LifeguardKind::MemCheck,
        LifeguardKind::TaintCheck,
        LifeguardKind::TaintCheckDetailed,
        LifeguardKind::LockSet,
    ] {
        let cfg = session_cfg(kind, kind.name());
        let trace = workload_for(kind, N);

        // Live run, teed to an in-memory trace file.
        let mut capture = CaptureSession::new(&pool, cfg.clone(), Vec::new()).unwrap();
        capture.stream(trace.iter().copied()).unwrap();
        let (live, bytes) = capture.finish().unwrap();
        assert_eq!(live.records, trace.len() as u64);
        if !matches!(kind, LifeguardKind::LockSet) {
            assert!(
                !live.violations.is_empty(),
                "{kind:?}: the buggy epilogue must trip the lifeguard live"
            );
        }

        // Replay the artifact through a fresh session: identical results.
        let mut reader = TraceReader::new(&bytes[..]).unwrap();
        let replayed = replay_reader(&pool, cfg, &mut reader).unwrap();
        assert_eq!(replayed.records, live.records, "{kind:?}: record counts diverge");
        assert_eq!(replayed.violations, live.violations, "{kind:?}: violations diverge");
        assert_eq!(replayed.dispatch, live.dispatch, "{kind:?}: dispatch stats diverge");
    }
    pool.shutdown();
}

#[test]
fn single_thread_ingestor_multiplexes_many_sources() {
    const N: u64 = 8_000;
    const TENANTS: [Benchmark; 8] = [
        Benchmark::Bzip2,
        Benchmark::Crafty,
        Benchmark::Gap,
        Benchmark::Gcc,
        Benchmark::Gzip,
        Benchmark::Mcf,
        Benchmark::Twolf,
        Benchmark::Vpr,
    ];
    let pool = MonitorPool::new(PoolConfig::with_workers(4));
    let mut ingestor = Ingestor::with_config(
        &pool,
        IngestConfig { batches_per_turn: 2, ..IngestConfig::default() },
    );

    // A mixed source population: in-memory generators, a recorded trace
    // file, and a readiness-polled pipe fed by an external producer.
    let recorded = igm::trace::encode_to_vec(TENANTS[0].trace(N), 4096);
    let (pipe_tx, pipe_rx) = batch_pipe(4);
    let feeder = std::thread::spawn(move || {
        for batch in igm::lba::chunks(TENANTS[1].trace(N), 4096) {
            if pipe_tx.send(batch).is_err() {
                return;
            }
        }
    });
    ingestor.add_source(
        session_cfg(LifeguardKind::AddrCheck, "recorded"),
        FileSource::new(TraceReader::new(std::io::Cursor::new(recorded)).unwrap()),
    );
    ingestor.add_source(session_cfg(LifeguardKind::TaintCheck, "piped"), pipe_rx);
    for bench in &TENANTS[2..] {
        let kind = if (*bench as usize).is_multiple_of(2) {
            LifeguardKind::AddrCheck
        } else {
            LifeguardKind::TaintCheck
        };
        ingestor.add_source(
            SessionConfig::new(bench.name(), kind)
                .synthetic()
                .premark(&bench.profile().premark_regions()),
            IterSource::new(bench.trace(N), 4096),
        );
    }
    assert_eq!(ingestor.lanes(), 8);

    // One OS thread drives all eight tenants to completion.
    let report = ingestor.run();
    feeder.join().unwrap();

    assert_eq!(report.sessions.len(), 8);
    assert!(report.errors.is_empty(), "clean sources: {:?}", report.errors);
    assert_eq!(report.records(), 8 * N);
    for session in &report.sessions {
        assert_eq!(session.records, N, "tenant {} lost records", session.name);
        assert!(session.violations.is_empty(), "clean workloads only");
    }
    for (name, lane) in &report.lanes {
        assert!(lane.turns > 0, "lane {name} was never scheduled");
        assert_eq!(lane.records, N, "lane {name} accounting diverges");
    }
    pool.shutdown();
}

#[test]
fn tee_at_ingest_leaves_replayable_artifacts_for_piped_lanes() {
    const N: u64 = 7_000;
    let pool = MonitorPool::new(PoolConfig::with_workers(2));
    let mut ingestor = Ingestor::new(&pool);

    // Two teed lanes: an in-memory generator (with the buggy epilogue, so
    // the replay equality is over non-empty violations) and a
    // readiness-polled pipe — the lane kinds that previously left no
    // artifact.
    let gen_sink = std::env::temp_dir().join(format!("igm_tee_gen_{}.igmt", std::process::id()));
    let pipe_sink = std::env::temp_dir().join(format!("igm_tee_pipe_{}.igmt", std::process::id()));
    let trace = workload_for(LifeguardKind::AddrCheck, N);
    ingestor
        .add_source_teed(
            session_cfg(LifeguardKind::AddrCheck, "generated"),
            IterSource::new(trace, 4096),
            std::fs::File::create(&gen_sink).unwrap(),
        )
        .unwrap();
    let (pipe_tx, pipe_rx) = batch_pipe(4);
    let feeder = std::thread::spawn(move || {
        for batch in igm::lba::chunks(Benchmark::Mcf.trace(N), 4096) {
            if pipe_tx.send(batch).is_err() {
                return;
            }
        }
    });
    ingestor
        .add_source_teed(
            SessionConfig::new("piped", LifeguardKind::TaintCheck)
                .synthetic()
                .premark(&Benchmark::Mcf.profile().premark_regions()),
            pipe_rx,
            std::fs::File::create(&pipe_sink).unwrap(),
        )
        .unwrap();

    let report = ingestor.run();
    feeder.join().unwrap();
    assert!(report.errors.is_empty(), "{:?}", report.errors);

    // Each artifact replays to results identical to its live lane.
    for (name, sink, cfg) in [
        ("generated", &gen_sink, session_cfg(LifeguardKind::AddrCheck, "generated-replay")),
        (
            "piped",
            &pipe_sink,
            SessionConfig::new("piped-replay", LifeguardKind::TaintCheck)
                .synthetic()
                .premark(&Benchmark::Mcf.profile().premark_regions()),
        ),
    ] {
        let live = report.sessions.iter().find(|s| s.name == name).unwrap();
        let replayed = igm::trace::replay_file(&pool, cfg, sink).unwrap();
        assert_eq!(replayed.records, live.records, "{name}: record counts diverge");
        assert_eq!(replayed.violations, live.violations, "{name}: violations diverge");
        assert_eq!(replayed.dispatch, live.dispatch, "{name}: dispatch stats diverge");
        std::fs::remove_file(sink).unwrap();
    }
    let generated = report.sessions.iter().find(|s| s.name == "generated").unwrap();
    assert!(!generated.violations.is_empty(), "epilogue must trip AddrCheck");
    pool.shutdown();
}

#[test]
fn ingestor_contains_a_corrupt_source_to_its_lane() {
    let pool = MonitorPool::new(PoolConfig::with_workers(2));
    let mut ingestor = Ingestor::new(&pool);

    // A trace whose second frame is corrupted.
    let mut bytes = igm::trace::encode_to_vec(Benchmark::Gzip.trace(6_000), 2048);
    let idx = bytes.len() - 3;
    bytes[idx] ^= 0xff;
    ingestor.add_source(
        session_cfg(LifeguardKind::AddrCheck, "corrupt"),
        FileSource::new(TraceReader::new(std::io::Cursor::new(bytes)).unwrap()),
    );
    ingestor.add_source(
        session_cfg(LifeguardKind::AddrCheck, "healthy"),
        IterSource::new(Benchmark::Mcf.trace(5_000), 4096),
    );

    let report = ingestor.run();
    assert_eq!(report.errors.len(), 1, "exactly the corrupt lane errors");
    assert_eq!(report.errors[0].0, "corrupt");
    // Both lanes still finalized; the healthy one is complete.
    assert_eq!(report.sessions.len(), 2);
    let healthy = report.sessions.iter().find(|s| s.name == "healthy").unwrap();
    assert_eq!(healthy.records, 5_000);
    let corrupt = report.sessions.iter().find(|s| s.name == "corrupt").unwrap();
    assert!(corrupt.records < 6_000, "the corrupt lane stops at the damaged frame");
    pool.shutdown();
}

/// The record each violation belongs to, by a `Monitor` fed one record at
/// a time: whatever it reports after observing record `i` is record `i`'s.
fn one_record_at_a_time(cfg: &SessionConfig, trace: &[TraceEntry]) -> Vec<u64> {
    let mut lifeguard = cfg.lifeguard.build_any(&cfg.accel);
    lifeguard.set_synthetic_workload_mode(cfg.synthetic_workload);
    for &(base, len) in &cfg.premark {
        lifeguard.premark_region(base, len);
    }
    let mut monitor = Monitor::new(lifeguard, &cfg.accel);
    let mut seqs = Vec::new();
    for (i, e) in trace.iter().enumerate() {
        monitor.observe(e);
        seqs.resize(monitor.violations().len(), i as u64);
    }
    seqs
}

fn assert_record_ids(report: &SessionReport, truth: &[u64], label: &str) {
    let seqs: Vec<u64> = report
        .violation_records
        .iter()
        .map(|id| id.unwrap_or_else(|| panic!("{label}: every violation has a pc")).seq)
        .collect();
    assert_eq!(seqs, truth, "{label}: violation record ids");
}

#[test]
fn violation_record_ids_name_the_faulting_record() {
    // A loop whose load at one pc runs off its block on iterations 3 and 7
    // only: the pc recurs every iteration, the fault does not.
    let base = 0x0a00_0000;
    let mut looped = vec![TraceEntry::annot(0x9200_0000, Annotation::Malloc { base, size: 64 })];
    for i in 0..10u32 {
        let addr = if i == 3 || i == 7 { base + 64 } else { base + 4 * i };
        looped.push(TraceEntry::op(
            0x9200_0010,
            OpClass::MemToReg { src: MemRef::word(addr), rd: Reg::Eax },
        ));
        looped.push(TraceEntry::op(0x9200_0014, OpClass::RegToReg { rs: Reg::Eax, rd: Reg::Ecx }));
        looped.push(TraceEntry::ctrl(0x9200_0018, CtrlOp::Direct));
    }
    let loop_cfg = SessionConfig::new("loop", LifeguardKind::AddrCheck);
    let loop_truth = one_record_at_a_time(&loop_cfg, &looped);
    assert_eq!(loop_truth, [1 + 3 * 3, 1 + 7 * 3]);

    // A window from the middle of a captured gcc run: AddrCheck never saw
    // the prefix's allocations, so the window faults densely at recurring
    // pcs.
    const N: u64 = 40_000;
    let mut writer = TraceWriter::with_index(Vec::new()).unwrap();
    let mut chunker = igm::lba::chunks(Benchmark::Gcc.trace(N), 4096);
    let mut batch = igm::lba::TraceBatch::new();
    while chunker.next_into_batch(&mut batch) {
        writer.write_chunk_batch(&batch).unwrap();
    }
    let index = writer.index().expect("index tracking requested").clone();
    let bytes = writer.finish().unwrap();
    let window = 15_000..35_000u64;
    let gcc: Vec<TraceEntry> = Benchmark::Gcc.trace(N).collect();
    let gcc_cfg = SessionConfig::new("gcc-window", LifeguardKind::AddrCheck)
        .synthetic()
        .premark(&Benchmark::Gcc.profile().premark_regions());
    let gcc_truth =
        one_record_at_a_time(&gcc_cfg, &gcc[window.start as usize..window.end as usize]);
    assert!(gcc_truth.len() > 1, "the window must fault more than once");

    for mode in [PipelineMode::Never, PipelineMode::Always] {
        let pool = MonitorPool::new(PoolConfig {
            pipeline: mode,
            epoch: EpochConfig::fixed(4),
            ..PoolConfig::with_workers(2)
        });
        let session = pool.open_session(loop_cfg.clone());
        for send in looped.chunks(7) {
            session.send_batch(send.to_vec()).unwrap();
        }
        assert_record_ids(&session.finish(), &loop_truth, &format!("loop, {mode:?}"));

        let mut reader = TraceReader::new(std::io::Cursor::new(&bytes)).unwrap();
        let report =
            replay_window(&pool, gcc_cfg.clone(), &mut reader, &index, window.clone()).unwrap();
        assert_record_ids(&report, &gcc_truth, &format!("gcc window, {mode:?}"));
        pool.shutdown();
    }
}
