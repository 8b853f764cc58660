//! Replay determinism and multiplexed ingest, end to end.
//!
//! Replaying a captured or ingest-teed trace reproduces the live run and
//! the sequential `Monitor` for all five lifeguards (the `replay` and
//! `ingest-tee` strategies of `tests/equivalence.rs`, here also with two
//! teed lanes in one `Ingestor`), and the teed bytes equal a
//! calling-thread writer's whichever thread wrote them, a helping
//! producer included. A single-thread `Ingestor` must drive many
//! concurrent tenant sources to the same results as dedicated producer
//! threads, a corrupt source or a full tee sink fails only its own lane,
//! and a session's violation record ids name the exact faulting record
//! even when its pc recurs. (Lake windows are the matrix's `lake-window`
//! column.)

mod common;

use common::strategies::{
    assert_artifact, assert_matches_monitor, capture_pool, capture_replay, ingest_tee,
};
use common::{one_record_at_a_time, session_cfg, workload_for};
use igm::isa::{Annotation, CtrlOp, MemRef, OpClass, Reg, TraceEntry};
use igm::lba::TraceBatch;
use igm::lifeguards::LifeguardKind;
use igm::runtime::{EpochConfig, MonitorPool, PipelineMode, PoolConfig, SessionConfig};
use igm::trace::{
    batch_pipe, capture_to_lake, lake_stem, CaptureError, CaptureSession, FileSource, Ingestor,
    IterSource, LakeArtifact, TraceReader,
};
use igm::workload::Benchmark;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

#[test]
fn replay_reproduces_live_runs_for_all_five_lifeguards() {
    for (seed, kind) in LifeguardKind::ALL.into_iter().enumerate() {
        let (cfg, trace) = (session_cfg(kind, kind.name()), workload_for(kind, 20_000));
        // Asserts the replay equals its live run and the teed bytes a
        // calling-thread writer's, then the monitor.
        let replayed = capture_replay(&cfg, &trace, seed);
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
        let mut chunker = igm::lba::chunks(TENANTS[1].trace(N), 4096);
        let mut batch = TraceBatch::new();
        while chunker.next_into_batch(&mut batch) {
            if pipe_tx.send(std::mem::take(&mut batch)).is_err() {
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

/// Two captures driven round-robin by this one thread (a lake capture and
/// a plain one, as the `lake_capture_query` benchmark drives two) on
/// [`capture_pool`]'s one-worker pool: a refused send runs the other
/// session's turn here, tee included, so frames and postings are written
/// by both threads. The artifacts must still equal a calling-thread
/// writer's. Helping depends on timing, so the run repeats until a helped
/// turn was seen.
#[test]
fn teed_frames_match_a_calling_thread_writer_while_the_producer_helps() {
    let config = capture_pool(1);
    let chunk = config.chunk_bytes;
    let tenants = [LifeguardKind::AddrCheck, LifeguardKind::TaintCheck]
        .map(|kind| (session_cfg(kind, kind.name()), workload_for(kind, 20_000)));
    for attempt in 0.. {
        let pool = MonitorPool::new(config.clone());
        let dir =
            std::env::temp_dir().join(format!("igm-helped-tee-{}-{attempt}", std::process::id()));
        let mut lake = capture_to_lake(&pool, tenants[0].0.clone(), &dir).unwrap();
        let mut plain = CaptureSession::new(&pool, tenants[1].0.clone(), Vec::new()).unwrap();
        let batches = |trace: &[TraceEntry]| -> Vec<TraceBatch> {
            let mut chunker = igm::lba::chunks(trace.iter().copied(), chunk);
            let mut batch = TraceBatch::new();
            let mut out = Vec::new();
            while chunker.next_into_batch(&mut batch) {
                out.push(batch.clone());
            }
            out
        };
        let (a, b) = (batches(&tenants[0].1), batches(&tenants[1].1));
        for i in 0..a.len().max(b.len()) {
            if let Some(batch) = a.get(i) {
                lake.send_batch(batch.clone()).unwrap();
            }
            if let Some(batch) = b.get(i) {
                plain.send_batch(batch.clone()).unwrap();
            }
        }
        let (lake_report, _) = lake.finish().unwrap();
        let (plain_report, plain_bytes) = plain.finish().unwrap();
        let helped = pool.stats().helped_turns;
        pool.shutdown();

        let artifact = LakeArtifact::new(&dir, &lake_stem(&tenants[0].0.name));
        let lake_bytes = std::fs::read(&artifact.trace_path).unwrap();
        let sidecar = std::fs::read(&artifact.sidecar_path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_artifact("lake", &tenants[0].1, chunk, &lake_bytes, Some(&sidecar));
        assert_artifact("plain", &tenants[1].1, chunk, &plain_bytes, None);
        for ((cfg, trace), report) in tenants.iter().zip([lake_report, plain_report]) {
            assert_matches_monitor(cfg, trace, &report.into(), true);
        }
        if helped > 0 {
            return;
        }
        assert!(attempt < 50, "the producer never helped in {attempt} runs");
    }
}

/// A sink that takes `writes_left` writes (a trace's two header writes,
/// then one per frame) and then fails every write and flush, like a full
/// disk. What it took stays readable through `taken`.
struct FullDisk {
    taken: Arc<Mutex<Vec<u8>>>,
    writes_left: usize,
}

impl FullDisk {
    /// A sink that takes the header and `frames` frames.
    fn after(frames: usize) -> (FullDisk, Arc<Mutex<Vec<u8>>>) {
        let taken = Arc::new(Mutex::new(Vec::new()));
        (FullDisk { taken: Arc::clone(&taken), writes_left: 2 + frames }, taken)
    }
}

impl Write for FullDisk {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.writes_left == 0 {
            return Err(io::Error::other("disk full"));
        }
        self.writes_left -= 1;
        self.taken.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        match self.writes_left {
            0 => Err(io::Error::other("disk full")),
            _ => Ok(()),
        }
    }
}

/// The frames and records a (possibly partial) trace holds.
fn decode(bytes: &[u8]) -> (u64, u64) {
    let mut reader = TraceReader::new(bytes).unwrap();
    let mut batch = igm::lba::TraceBatch::new();
    while reader.read_chunk_into_batch(&mut batch).unwrap() {}
    (reader.chunks(), reader.records())
}

/// A full disk on the tee (ROADMAP 12(b)) is contained: a capture returns
/// `CaptureError::Trace` without panicking or hanging, and in an
/// `Ingestor` the teed lane fails alone — one error, one counted lane
/// failure, no sidecar, and a session that monitored exactly the frames
/// that reached the sink — while the other lanes equal their sequential
/// `Monitor`.
#[test]
fn a_full_tee_sink_fails_only_its_own_capture_or_lane() {
    const FRAMES: usize = 3;
    let chunk = 2048;
    let pool = MonitorPool::new(PoolConfig { chunk_bytes: chunk, ..PoolConfig::with_workers(2) });
    let tenant =
        |kind: LifeguardKind, name: &str| (session_cfg(kind, name), workload_for(kind, 12_000));

    let (cfg, trace) = tenant(LifeguardKind::AddrCheck, "capture");
    let (sink, taken) = FullDisk::after(FRAMES);
    let mut capture = CaptureSession::new(&pool, cfg, sink).unwrap();
    let err = match capture.stream(trace.iter().copied()) {
        Err(e) => e,
        Ok(()) => capture.finish().map(drop).expect_err("the sink filled up"),
    };
    assert!(matches!(err, CaptureError::Trace(_)), "{err}");
    assert_eq!(decode(&taken.lock().unwrap()).0, FRAMES as u64);

    let full = tenant(LifeguardKind::AddrCheck, "full");
    let teed = tenant(LifeguardKind::TaintCheck, "teed");
    let plain = tenant(LifeguardKind::MemCheck, "plain");
    let dir = std::env::temp_dir().join(format!("igm-full-tee-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sidecar = LakeArtifact::new(&dir, "full").sidecar_path;
    let mut ingestor = Ingestor::new(&pool);
    let (sink, taken) = FullDisk::after(FRAMES);
    let source = IterSource::new(full.1.clone(), chunk);
    ingestor.add_source_teed_indexed(full.0.clone(), source, sink, sidecar.clone()).unwrap();
    let (sink, roomy) = FullDisk::after(usize::MAX - 2);
    ingestor.add_source_teed(teed.0.clone(), IterSource::new(teed.1.clone(), chunk), sink).unwrap();
    ingestor.add_source(plain.0.clone(), IterSource::new(plain.1.clone(), chunk));
    let report = ingestor.run();

    let names: Vec<&str> = report.errors.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(names, ["full"], "{:?}", report.errors);
    let failures = pool.metrics().snapshot().counter_value("igm_ingest_lane_failures_total");
    assert_eq!(failures, Some(1));
    assert!(!sidecar.exists(), "a partial artifact must not come with a sidecar");
    std::fs::remove_dir_all(&dir).unwrap();
    let (frames, records) = decode(&taken.lock().unwrap());
    assert_eq!(frames, FRAMES as u64);
    let mut sessions = report.sessions.into_iter();
    assert_eq!(sessions.next().unwrap().records, records, "monitored past the sink");
    assert_artifact("teed", &teed.1, chunk, &roomy.lock().unwrap(), None);
    for ((cfg, trace), session) in [teed, plain].iter().zip(sessions) {
        assert_matches_monitor(cfg, trace, &session.into(), true);
    }
    pool.shutdown();
}
