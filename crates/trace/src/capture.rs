//! On-disk capture and replay of live monitoring sessions.
//!
//! [`CaptureSession`] tees every batch a tenant publishes into a
//! [`TraceWriter`] frame *and* into the live [`MonitorPool`] session, so
//! the file records exactly the batch sequence the pool consumed — one
//! frame per transport chunk. [`replay_reader`] feeds such a file back
//! through a fresh pool session chunk-for-chunk; because the runtime's
//! dispatch path is deterministic in the record stream (batch boundaries
//! are semantically inert — see `tests/batch_equivalence.rs`), the replay
//! reproduces the live run's violations and [`DispatchStats`] exactly.
//!
//! [`DispatchStats`]: igm_core::DispatchStats

use crate::codec::{TraceError, TraceReader, TraceWriter};
use igm_isa::TraceEntry;
use igm_lba::{chunks, TraceBatch};
use igm_runtime::{MonitorPool, SendError, SessionConfig, SessionHandle, SessionReport};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Errors from a capture or replay session.
#[derive(Debug)]
pub enum CaptureError {
    /// Encoding or decoding the trace stream failed.
    Trace(TraceError),
    /// The pool rejected records (it was shut down under the session).
    Closed,
}

impl std::fmt::Display for CaptureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CaptureError::Trace(e) => write!(f, "capture trace error: {e}"),
            CaptureError::Closed => write!(f, "monitor pool closed under the session"),
        }
    }
}

impl std::error::Error for CaptureError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CaptureError::Trace(e) => Some(e),
            CaptureError::Closed => None,
        }
    }
}

impl From<TraceError> for CaptureError {
    fn from(e: TraceError) -> CaptureError {
        CaptureError::Trace(e)
    }
}

impl From<io::Error> for CaptureError {
    fn from(e: io::Error) -> CaptureError {
        CaptureError::Trace(TraceError::Io(e))
    }
}

impl From<SendError> for CaptureError {
    fn from(_: SendError) -> CaptureError {
        CaptureError::Closed
    }
}

/// A live pool session whose record stream is simultaneously encoded to a
/// trace sink.
///
/// # Example
///
/// ```
/// use igm_lifeguards::LifeguardKind;
/// use igm_runtime::{MonitorPool, PoolConfig, SessionConfig};
/// use igm_trace::{replay_reader, CaptureSession, TraceReader};
/// use igm_workload::Benchmark;
///
/// let pool = MonitorPool::new(PoolConfig::with_workers(2));
/// let cfg = SessionConfig::new("gzip", LifeguardKind::AddrCheck)
///     .synthetic()
///     .premark(&Benchmark::Gzip.profile().premark_regions());
///
/// // Live run, teed to an in-memory "file".
/// let mut cap = CaptureSession::new(&pool, cfg.clone(), Vec::new()).unwrap();
/// cap.stream(Benchmark::Gzip.trace(2_000)).unwrap();
/// let (live, bytes) = cap.finish().unwrap();
///
/// // Replay reproduces the live run exactly.
/// let replayed =
///     replay_reader(&pool, cfg, &mut TraceReader::new(&bytes[..]).unwrap()).unwrap();
/// assert_eq!(live.records, replayed.records);
/// assert_eq!(live.violations, replayed.violations);
/// assert_eq!(live.dispatch, replayed.dispatch);
/// pool.shutdown();
/// ```
pub struct CaptureSession<W: Write> {
    session: SessionHandle,
    writer: TraceWriter<W>,
    chunk_bytes: u32,
    /// Where to save the `IGMX` sidecar on finish, when the writer was
    /// opened indexing (the lake-capture path).
    sidecar: Option<PathBuf>,
}

impl<W: Write> CaptureSession<W> {
    /// Opens a session on `pool` whose traffic is teed into `sink`.
    pub fn new(
        pool: &MonitorPool,
        cfg: SessionConfig,
        sink: W,
    ) -> Result<CaptureSession<W>, CaptureError> {
        let session = pool.open_session(cfg);
        let chunk_bytes = session.chunk_bytes();
        let mut writer = TraceWriter::new(sink)?;
        writer.attach_metrics(pool.metrics());
        Ok(CaptureSession { session, writer, chunk_bytes, sidecar: None })
    }

    /// Publishes one pre-batched columnar chunk: one trace frame encoded
    /// straight from the batch's columns, then the live send (blocking on
    /// pool backpressure). The frame is written first so the file never
    /// misses a batch the pool processed.
    pub fn send_batch(&mut self, batch: impl Into<TraceBatch>) -> Result<(), CaptureError> {
        let batch = batch.into();
        self.writer.write_chunk_batch(&batch)?;
        self.session.send_batch(batch)?;
        Ok(())
    }

    /// Streams a whole trace, batching at the pool's chunk size into
    /// recycled batch arenas.
    pub fn stream(
        &mut self,
        trace: impl IntoIterator<Item = TraceEntry>,
    ) -> Result<(), CaptureError> {
        let mut chunker = chunks(trace, self.chunk_bytes);
        let mut batch = self.session.spare_batch();
        while chunker.next_into_batch(&mut batch) {
            let next = self.session.spare_batch();
            self.send_batch(std::mem::replace(&mut batch, next))?;
        }
        Ok(())
    }

    /// The underlying live session.
    pub fn session(&self) -> &SessionHandle {
        &self.session
    }

    /// Closes both sides: flushes the trace sink (and, for a lake
    /// capture, saves the `IGMX` sidecar next to it), finishes the live
    /// session, and returns the session report together with the sink.
    pub fn finish(mut self) -> Result<(SessionReport, W), CaptureError> {
        let index = self.writer.take_index();
        let sink = self.writer.finish()?;
        if let (Some(index), Some(path)) = (index, self.sidecar) {
            index.save_file(path)?;
        }
        let report = self.session.finish();
        Ok((report, sink))
    }
}

/// Opens a capture session teeing to a buffered file at `path`.
pub fn capture_to_file(
    pool: &MonitorPool,
    cfg: SessionConfig,
    path: impl AsRef<Path>,
) -> Result<CaptureSession<BufWriter<File>>, CaptureError> {
    let file = File::create(path)?;
    CaptureSession::new(pool, cfg, BufWriter::new(file))
}

/// Restricts a tenant name to filesystem-safe characters so a lake stem
/// derives deterministically from the session name (shared with the
/// `igm-net` tee).
pub fn lake_stem(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') { c } else { '_' })
        .collect()
}

/// One tenant's artifacts in a lake directory: the layout every capture
/// path writes and a `TraceLake` reads.
#[derive(Debug, Clone)]
pub struct LakeArtifact {
    /// `<dir>/<stem>.igmt`, the trace file.
    pub trace_path: PathBuf,
    /// `<dir>/<stem>.igmx`, its sidecar.
    pub sidecar_path: PathBuf,
    /// [`igm_span::trace_id`]`(stem)`, the durable trace id the session's
    /// violations carry.
    pub trace_id: u32,
}

impl LakeArtifact {
    /// The artifact named `stem` under `dir`.
    pub fn new(dir: &Path, stem: &str) -> LakeArtifact {
        LakeArtifact {
            trace_path: dir.join(format!("{stem}.igmt")),
            sidecar_path: dir.join(format!("{stem}.igmx")),
            trace_id: igm_span::trace_id(stem),
        }
    }
}

/// Opens a *lake* capture: the trace is written to `<dir>/<stem>.igmt`
/// with the posting index built inline
/// ([`TraceWriter::with_index`](crate::TraceWriter::with_index)), the
/// `IGMX` v2 sidecar is saved as `<dir>/<stem>.igmx` on finish, and the
/// session's durable trace id is set to
/// [`igm_span::trace_id`]`(stem)` — so every violation the session
/// attributes carries a [`igm_span::RecordId`] that a
/// `TraceLake` over `dir` can seek straight back into.
pub fn capture_to_lake(
    pool: &MonitorPool,
    mut cfg: SessionConfig,
    dir: impl AsRef<Path>,
) -> Result<CaptureSession<BufWriter<File>>, CaptureError> {
    let dir = dir.as_ref();
    let artifact = LakeArtifact::new(dir, &lake_stem(&cfg.name));
    cfg.trace = artifact.trace_id;
    std::fs::create_dir_all(dir)?;
    let file = File::create(&artifact.trace_path)?;
    let session = pool.open_session(cfg);
    let chunk_bytes = session.chunk_bytes();
    let mut writer = TraceWriter::with_index(BufWriter::new(file))?;
    writer.attach_metrics(pool.metrics());
    Ok(CaptureSession { session, writer, chunk_bytes, sidecar: Some(artifact.sidecar_path) })
}

/// Replays a recorded trace through a fresh session on `pool`,
/// chunk-for-chunk as captured, and returns the session's report.
///
/// Replaying the file produced by a [`CaptureSession`] under the same
/// [`SessionConfig`] yields a report whose `violations` and `dispatch`
/// stats equal the live run's.
pub fn replay_reader<R: Read>(
    pool: &MonitorPool,
    cfg: SessionConfig,
    reader: &mut TraceReader<R>,
) -> Result<SessionReport, CaptureError> {
    let session = pool.open_session(cfg);
    reader.attach_metrics(pool.metrics());
    let mut chunk = TraceBatch::new();
    while reader.read_chunk_into_batch(&mut chunk)? {
        // Frames decode directly into the batch's columns; the channel
        // takes ownership of each batch, and the next one starts from a
        // recycled arena the worker handed back.
        let next = session.spare_batch();
        session.send_batch(std::mem::replace(&mut chunk, next))?;
    }
    Ok(session.finish())
}

/// Replays only the records in `range` (0-based record numbers over the
/// whole trace) through a fresh session on `pool`, using `index` to seek
/// straight to the first frame the window touches — the prefix is never
/// decoded. Frames decode independently (delta streams reset per frame),
/// so this is exact; edge frames are trimmed to the window.
///
/// A window replay observes the records without their prefix, so lifeguard
/// state (and therefore violations) can differ from the same range inside
/// a full replay — this is an inspection tool, not a determinism claim.
/// Record numbers past the end of the trace are simply absent.
pub fn replay_window<R: Read + io::Seek>(
    pool: &MonitorPool,
    cfg: SessionConfig,
    reader: &mut TraceReader<R>,
    index: &crate::index::TraceIndex,
    range: std::ops::Range<u64>,
) -> Result<SessionReport, CaptureError> {
    let session = pool.open_session(cfg);
    let end = range.end.min(index.total_records());
    if range.start >= end {
        return Ok(session.finish());
    }
    let entry = *index.frame_for_record(range.start).expect("start record is inside the trace");
    reader.seek_to_frame(&entry)?;
    // Record number of the next frame's first record.
    let mut pos = entry.first_record;
    let mut chunk = TraceBatch::new();
    while pos < end && reader.read_chunk_into_batch(&mut chunk)? {
        let n = chunk.len();
        let skip = range.start.saturating_sub(pos).min(n as u64) as usize;
        let take_end = (end - pos).min(n as u64) as usize;
        if skip == 0 && take_end == n {
            let next = session.spare_batch();
            session.send_batch(std::mem::replace(&mut chunk, next))?;
        } else {
            // Edge frame: trim to the window through the entry view.
            let mut trimmed = session.spare_batch();
            trimmed.extend_entries(chunk.iter().skip(skip).take(take_end - skip));
            session.send_batch(trimmed)?;
        }
        pos += n as u64;
    }
    Ok(session.finish())
}

/// Replays a trace file at `path` through a fresh session on `pool`.
pub fn replay_file(
    pool: &MonitorPool,
    cfg: SessionConfig,
    path: impl AsRef<Path>,
) -> Result<SessionReport, CaptureError> {
    let file = File::open(path)?;
    let mut reader = TraceReader::new(BufReader::new(file))?;
    replay_reader(pool, cfg, &mut reader)
}
