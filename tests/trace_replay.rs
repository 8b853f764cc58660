//! Replay determinism and multiplexed ingest, end to end.
//!
//! Replaying a captured or ingest-teed trace reproduces the live run and
//! the sequential `Monitor` for all five lifeguards (the `replay` and
//! `ingest-tee` strategies of `tests/equivalence.rs`, here also with two
//! teed lanes in one `Ingestor`). A single-thread `Ingestor` must drive
//! many concurrent tenant sources to the same results as dedicated
//! producer threads, a corrupt source fails only its own lane, and a
//! session's violation record ids name the exact faulting record even
//! when its pc recurs. (Lake windows are the matrix's `lake-window`
//! column.)

mod common;

use common::strategies::{assert_matches_monitor, capture_replay, ingest_tee};
use common::{one_record_at_a_time, session_cfg, workload_for};
use igm::isa::{Annotation, CtrlOp, MemRef, OpClass, Reg, TraceEntry};
use igm::lifeguards::LifeguardKind;
use igm::runtime::{EpochConfig, MonitorPool, PipelineMode, PoolConfig, SessionConfig};
use igm::trace::{batch_pipe, FileSource, Ingestor, IterSource, TraceReader};
use igm::workload::Benchmark;

#[test]
fn replay_reproduces_live_runs_for_all_five_lifeguards() {
    for kind in LifeguardKind::ALL {
        let (cfg, trace) = (session_cfg(kind, kind.name()), workload_for(kind, 20_000));
        // Asserts the replay equals its live run, then the monitor.
        let replayed = capture_replay(&cfg, &trace);
        assert_matches_monitor(&cfg, &trace, &replayed, true);
        if kind != LifeguardKind::LockSet {
            assert!(!replayed.violations.is_empty(), "{kind}: the buggy epilogues must fire");
        }
    }
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
    let mut ingestor = Ingestor::new(&pool);

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
    // Two teed lanes in one ingestor: an in-memory generator with the
    // buggy epilogues and a readiness-polled pipe.
    let generated = session_cfg(LifeguardKind::AddrCheck, "generated");
    let piped = SessionConfig::new("piped", LifeguardKind::TaintCheck)
        .synthetic()
        .premark(&Benchmark::Mcf.profile().premark_regions());
    let lanes = [
        (generated, workload_for(LifeguardKind::AddrCheck, N), false),
        (piped, Benchmark::Mcf.trace(N).collect(), true),
    ];
    // Asserts each artifact replays to its live lane, then the monitor.
    let replays = ingest_tee(lanes.to_vec());
    for ((cfg, trace, _), replayed) in lanes.iter().zip(&replays) {
        assert_matches_monitor(cfg, trace, replayed, true);
    }
    assert!(!replays[0].violations.is_empty(), "the epilogues must trip AddrCheck");
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
    let cfg = SessionConfig::new("loop", LifeguardKind::AddrCheck);
    let (_, truth) = one_record_at_a_time(&cfg, &looped);
    assert_eq!(truth, [1 + 3 * 3, 1 + 7 * 3]);

    for mode in [PipelineMode::Never, PipelineMode::Always] {
        let pool = MonitorPool::new(PoolConfig {
            pipeline: mode,
            epoch: EpochConfig::fixed(4),
            ..PoolConfig::with_workers(2)
        });
        let session = pool.open_session(cfg.clone());
        for send in looped.chunks(7) {
            session.send_batch(send.to_vec()).unwrap();
        }
        let seqs: Vec<u64> = session
            .finish()
            .violation_records
            .iter()
            .map(|id| id.expect("every violation has a pc").seq)
            .collect();
        assert_eq!(seqs, truth, "{mode:?}: violation record ids");
        pool.shutdown();
    }
}
