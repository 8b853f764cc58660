//! The execution strategies `tests/equivalence.rs` runs against the
//! sequential `Monitor`, and what each of them observes of a run. The
//! matrix runs every strategy over every cell; a test of one strategy on
//! inputs of its own (a proptest draw, a clean trace, several lanes at
//! once) runs it from here and compares with [`assert_matches_monitor`].

use igm::accel::DispatchStats;
use igm::isa::TraceEntry;
use igm::lake::TraceLake;
use igm::lifeguards::{AnyLifeguard, Lifeguard, Violation};
use igm::net::{IngestServer, NetServerConfig, TraceForwarder};
use igm::runtime::{
    EpochConfig, MonitorPool, PipelineMode, PoolConfig, SessionConfig, SessionReport,
};
use igm::sim::{Monitor, SimConfig, Simulator};
use igm::span::RecordId;
use igm::trace::{
    batch_pipe, capture_to_lake, lake_stem, replay_file, replay_reader, CaptureSession, Ingestor,
    IterSource, LakeArtifact, TraceReader, TraceWriter,
};
use std::fs::File;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Everything a strategy can observe of one run.
#[derive(Debug)]
pub struct Observed {
    pub records: u64,
    pub violations: Vec<Violation>,
    /// Each violation's record number, for strategies that attribute them.
    pub seqs: Option<Vec<Option<u64>>>,
    pub dispatch: DispatchStats,
    pub metadata_bytes: u64,
}

impl From<SessionReport> for Observed {
    fn from(r: SessionReport) -> Observed {
        Observed {
            records: r.records,
            seqs: Some(r.violation_records.iter().map(|id| id.map(|id| id.seq)).collect()),
            violations: r.violations,
            dispatch: r.dispatch,
            metadata_bytes: r.metadata_bytes,
        }
    }
}

/// Where `a` and `b` first differ, if they do.
fn first_diff<T: PartialEq>(a: &[T], b: &[T]) -> Option<usize> {
    let at = a.iter().zip(b).position(|(x, y)| x != y);
    at.or((a.len() != b.len()).then(|| a.len().min(b.len())))
}

impl Observed {
    fn of(mut m: Monitor<AnyLifeguard>, seqs: Option<Vec<Option<u64>>>) -> Observed {
        Observed {
            records: m.dispatch_stats().records,
            dispatch: m.dispatch_stats().clone(),
            metadata_bytes: m.lifeguard().metadata_bytes(),
            violations: m.lifeguard_mut().take_violations(),
            seqs,
        }
    }

    /// How `self` departs from the oracle `want` and the record truth
    /// `truth`. Without `whole_footprint`, `metadata_bytes` may fall short
    /// of the oracle's but not exceed it.
    pub fn diff(
        &self,
        want: &Observed,
        truth: &[Option<u64>],
        whole_footprint: bool,
    ) -> Vec<String> {
        let mut out = Vec::new();
        if self.records != want.records {
            out.push(format!("records {} vs {}", self.records, want.records));
        }
        if let Some(i) = first_diff(&self.violations, &want.violations) {
            let (n, m) = (self.violations.len(), want.violations.len());
            out.push(format!("violations differ at #{i} ({n} vs {m})"));
        }
        if let Some(seqs) = &self.seqs {
            if let Some(i) = first_diff(seqs, truth) {
                let (got, want) = (seqs.get(i), truth.get(i));
                out.push(format!("record ids differ at #{i}: {got:?} vs {want:?}"));
            }
        }
        if self.dispatch != want.dispatch {
            out.push(format!("DispatchStats {:?} vs {:?}", self.dispatch, want.dispatch));
        }
        let (got, footprint) = (self.metadata_bytes, want.metadata_bytes);
        if got > footprint || (whole_footprint && got != footprint) {
            out.push(format!("metadata_bytes {got} vs {footprint}"));
        }
        out
    }
}

/// The oracle: `Monitor` batched at the pool's transport chunk.
pub fn monitor_batched(cfg: &SessionConfig, trace: &[TraceEntry]) -> Observed {
    Observed::of(super::sequential(cfg, trace), None)
}

/// `Monitor` fed one record at a time: the `RecordId` truth.
pub fn monitor_per_record(cfg: &SessionConfig, trace: &[TraceEntry]) -> Observed {
    let (monitor, seqs) = super::one_record_at_a_time(cfg, trace);
    Observed::of(monitor, Some(seqs.into_iter().map(Some).collect()))
}

/// Panics unless `got` reports what the sequential `Monitor` reports over
/// `trace` (see [`Observed::diff`]); returns the oracle's observation.
pub fn assert_matches_monitor(
    cfg: &SessionConfig,
    trace: &[TraceEntry],
    got: &Observed,
    whole_footprint: bool,
) -> Observed {
    let (want, truth) = (monitor_batched(cfg, trace), monitor_per_record(cfg, trace));
    let diff = got.diff(&want, truth.seqs.as_deref().unwrap(), whole_footprint);
    assert!(diff.is_empty(), "{}: departs from the sequential monitor: {diff:?}", cfg.name);
    want
}

pub fn pool(workers: usize, pipeline: PipelineMode, epoch: EpochConfig) -> MonitorPool {
    MonitorPool::new(PoolConfig { pipeline, epoch, ..PoolConfig::with_workers(workers) })
}

/// `Simulator::run_trace`, whose handlers charge a recording `CostSink`.
pub fn simulated(cfg: &SessionConfig, trace: &[TraceEntry]) -> Observed {
    let mut sim = SimConfig::with_accel(cfg.lifeguard, cfg.accel);
    sim.synthetic_workload = cfg.synthetic_workload;
    let r = Simulator::new(sim).run_trace(&cfg.premark, None, trace.iter().copied());
    let recorded = r.timing.handler_instrs > 0 || r.dispatch.delivered == 0;
    assert!(recorded, "{}: the simulator records costs", cfg.name);
    let (records, metadata_bytes) = (r.dispatch.records, r.metadata_bytes);
    Observed { records, violations: r.violations, seqs: None, dispatch: r.dispatch, metadata_bytes }
}

/// A pool session that never pipelines, streamed at the pool's chunking.
pub fn pool_never(cfg: &SessionConfig, trace: &[TraceEntry]) -> Observed {
    let pool = pool(2, PipelineMode::Never, EpochConfig::adaptive());
    let session = pool.open_session(cfg.clone());
    session.stream(trace.iter().copied()).expect("pool alive");
    let report = session.finish();
    pool.shutdown();
    report.into()
}

/// One session pipelined from its first record on a fresh pool set up by
/// `pool`, fed `send`-record batches. Returns what it observed and the
/// pool's epoch-job count. Its `metadata_bytes` is the spine's: the spine
/// never runs the checks it elides, so it never allocates the shadow
/// chunks only those checks touch (the epoch jobs that do run them work
/// on snapshots), and its footprint may fall short of the oracle's.
pub fn pipelined(
    cfg: &SessionConfig,
    trace: &[TraceEntry],
    pool: PoolConfig,
    send: usize,
) -> (Observed, u64) {
    let pool = MonitorPool::new(PoolConfig { pipeline: PipelineMode::Always, ..pool });
    let session = pool.open_session(cfg.clone());
    for chunk in trace.chunks(send) {
        session.send_batch(chunk.to_vec()).expect("pool alive");
    }
    let report = session.finish();
    let jobs = pool.stats().epoch_jobs;
    pool.shutdown();
    (report.into(), jobs)
}

/// A fresh path under the temp dir, unique per call in this process.
fn scratch_path(what: &str) -> PathBuf {
    static RUN: AtomicU64 = AtomicU64::new(0);
    let run = RUN.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("igm-equivalence-{}-{run}.{what}", std::process::id()))
}

/// `replayed`, once it is shown to reproduce the `live` run it was
/// captured from.
fn reproducing(replayed: SessionReport, live: SessionReport) -> Observed {
    let (replayed, live) = (Observed::from(replayed), Observed::from(live));
    let diff = replayed.diff(&live, live.seqs.as_deref().unwrap(), true);
    assert!(diff.is_empty(), "replay departs from its live run: {diff:?}");
    replayed
}

/// Panics unless the teed artifact `trace_bytes` (and `sidecar`, when
/// indexed) equals what a `TraceWriter` on the calling thread writes for
/// `trace` batched at `chunk_bytes`, whichever thread pumped each batch.
pub fn assert_artifact(
    what: &str,
    trace: &[TraceEntry],
    chunk_bytes: u32,
    trace_bytes: &[u8],
    sidecar: Option<&[u8]>,
) {
    let mut writer = match sidecar {
        Some(_) => TraceWriter::with_index(Vec::new()),
        None => TraceWriter::new(Vec::new()),
    }
    .unwrap();
    let mut chunker = igm::lba::chunks(trace.iter().copied(), chunk_bytes);
    let mut batch = igm::lba::TraceBatch::new();
    while chunker.next_into_batch(&mut batch) {
        writer.write_chunk_batch(&batch).unwrap();
    }
    let want_sidecar = writer.take_index().map(|index| {
        let mut bytes = Vec::new();
        index.save(&mut bytes).unwrap();
        bytes
    });
    let want = writer.finish().unwrap();
    assert!(trace_bytes == want, "{what}: teed frames differ from a calling-thread writer's");
    assert!(sidecar == want_sidecar.as_deref(), "{what}: teed sidecar differs");
}

/// The pools a captured session is teed on, by the cell's seed: a
/// two-worker pool whose workers write the frames, or one worker behind a
/// two-chunk channel, so the producer, refused, often writes them in the
/// turns it helps. (A pipelined spine writes them in [`lake_window`].)
pub fn capture_pool(seed: usize) -> PoolConfig {
    match seed % 2 {
        0 => PoolConfig::with_workers(2),
        _ => PoolConfig {
            pipeline: PipelineMode::Never,
            chunk_bytes: 1024,
            channel_capacity_bytes: 2048,
            ..PoolConfig::with_workers(1)
        },
    }
}

/// A live session teed to a trace on a [`capture_pool`], then the trace
/// replayed through a fresh session. The teed bytes must equal a
/// calling-thread writer's.
pub fn capture_replay(cfg: &SessionConfig, trace: &[TraceEntry], seed: usize) -> Observed {
    let config = capture_pool(seed);
    let chunk_bytes = config.chunk_bytes;
    let pool = MonitorPool::new(config);
    let mut capture = CaptureSession::new(&pool, cfg.clone(), Vec::new()).unwrap();
    capture.stream(trace.iter().copied()).unwrap();
    let (live, bytes) = capture.finish().unwrap();
    assert_artifact(&cfg.name, trace, chunk_bytes, &bytes, None);
    let mut reader = TraceReader::new(&bytes[..]).unwrap();
    let replayed = replay_reader(&pool, cfg.clone(), &mut reader).unwrap();
    pool.shutdown();
    reproducing(replayed, live)
}

/// One lane of [`ingest_tee`]: its session, its trace, and whether a
/// producer thread feeds it through a readiness-polled pipe (else an
/// in-memory generator does).
pub type Lane = (SessionConfig, Vec<TraceEntry>, bool);

/// One `Ingestor` running every lane at once, each teed to a trace file;
/// then each file compared with a calling-thread writer's and replayed.
/// Returns the replays in lane order.
pub fn ingest_tee(lanes: Vec<Lane>) -> Vec<Observed> {
    let pool = pool(2, PipelineMode::Auto, EpochConfig::adaptive());
    let chunk = PoolConfig::default().chunk_bytes;
    let mut ingestor = Ingestor::new(&pool);
    let (mut feeders, mut sinks) = (Vec::new(), Vec::new());
    for (cfg, trace, piped) in lanes {
        let path = scratch_path("igmt");
        let sink = File::create(&path).unwrap();
        if piped {
            let (tx, rx) = batch_pipe(4);
            ingestor.add_source_teed(cfg.clone(), rx, sink).unwrap();
            let fed = trace.clone();
            feeders.push(std::thread::spawn(move || {
                let mut chunker = igm::lba::chunks(fed, chunk);
                let mut batch = igm::lba::TraceBatch::new();
                while chunker.next_into_batch(&mut batch) {
                    if tx.send(std::mem::take(&mut batch)).is_err() {
                        return;
                    }
                }
            }));
        } else {
            let source = IterSource::new(trace.clone(), chunk);
            ingestor.add_source_teed(cfg.clone(), source, sink).unwrap();
        }
        sinks.push((cfg, path, trace));
    }
    let report = ingestor.run();
    for feeder in feeders {
        feeder.join().unwrap();
    }
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    let mut replays = Vec::new();
    for ((cfg, path, trace), live) in sinks.into_iter().zip(report.sessions) {
        assert_artifact(&cfg.name, &trace, chunk, &std::fs::read(&path).unwrap(), None);
        let replayed = replay_file(&pool, cfg, &path).unwrap();
        std::fs::remove_file(&path).unwrap();
        replays.push(reproducing(replayed, live));
    }
    pool.shutdown();
    replays
}

/// The trace streamed over loopback: `TraceForwarder` → `IngestServer`
/// → pool.
pub fn wire(cfg: &SessionConfig, trace: &[TraceEntry]) -> Observed {
    let pool = pool(2, PipelineMode::Auto, EpochConfig::adaptive());
    let server = IngestServer::bind("127.0.0.1:0", &pool, NetServerConfig::default()).unwrap();
    let (addr, client_cfg, records) = (server.local_addr().unwrap(), cfg.clone(), trace.to_vec());
    let client = std::thread::spawn(move || {
        let mut fwd = TraceForwarder::connect(addr, &client_cfg).unwrap();
        fwd.stream(records).unwrap();
        fwd.finish().unwrap()
    });
    let mut report = server.serve_connections(1);
    let fwd = client.join().unwrap();
    pool.shutdown();
    assert_eq!(report.accepted, 1, "{}", cfg.name);
    assert!(report.ingest.errors.is_empty(), "{}: {:?}", cfg.name, report.ingest.errors);
    assert_eq!(fwd.server_records, fwd.stats.records, "{}: server lost records", cfg.name);
    report.ingest.sessions.remove(0).into()
}

/// ± a quarter of the trace around its middle record.
pub fn middle_half(len: usize) -> Range<usize> {
    len / 2 - len / 4..(len / 2 + len / 4 + 1).min(len)
}

/// The trace captured into a lake, then `TraceLake::replay_around` the
/// [`middle_half`], observed without its prefix, against a fresh `Monitor`
/// over the same window. The pool pipelines in 4-record epochs, so window
/// record ids are checked on the epoch path, and the pipelined spine
/// writes the frames and postings, which must equal a calling-thread
/// writer's.
pub fn lake_window(cfg: &SessionConfig, trace: &[TraceEntry]) -> Observed {
    let dir = scratch_path("lake");
    let pool = pool(2, PipelineMode::Always, EpochConfig::fixed(4));
    let mut capture = capture_to_lake(&pool, cfg.clone(), &dir).unwrap();
    capture.stream(trace.iter().copied()).unwrap();
    capture.finish().unwrap();
    let artifact = LakeArtifact::new(&dir, &lake_stem(&cfg.name));
    let bytes = std::fs::read(&artifact.trace_path).unwrap();
    let sidecar = std::fs::read(&artifact.sidecar_path).unwrap();
    assert_artifact(&cfg.name, trace, PoolConfig::default().chunk_bytes, &bytes, Some(&sidecar));
    let lake = TraceLake::open(&dir).unwrap();
    let (t, window) = (&lake.traces()[0], middle_half(trace.len()));
    let k = (window.len() / 2) as u64;
    let mid = RecordId::new(t.tenant, t.trace, window.start as u64 + k);
    let report = lake.replay_around(&pool, cfg.clone(), mid, k);
    pool.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
    report.unwrap().into()
}
