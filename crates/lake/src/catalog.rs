//! The lake catalog: artifact discovery, index loading, and the
//! record-coordinate APIs (query, neighborhood, windowed replay).

use crate::query::{execute, LakeHits, LakeQuery};
use igm_isa::TraceEntry;
use igm_lba::TraceBatch;
use igm_runtime::{MonitorPool, SessionConfig, SessionReport};
use igm_span::{tenant_id, RecordId};
use igm_trace::{replay_window, CaptureError, LakeArtifact, TraceError, TraceIndex, TraceReader};
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};

/// Why a lake operation failed.
#[derive(Debug)]
pub enum LakeError {
    /// No trace in the lake has the requested tenant stem.
    UnknownTenant(String),
    /// No trace matches the record id's `(tenant, trace)` coordinates,
    /// or its `seq` is past the end of the trace.
    UnknownRecord(RecordId),
    /// Reading or decoding a trace artifact failed.
    Trace(TraceError),
    /// A windowed replay failed (pool closed under the session).
    Replay(CaptureError),
}

impl std::fmt::Display for LakeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LakeError::UnknownTenant(t) => write!(f, "no lake trace for tenant {t:?}"),
            LakeError::UnknownRecord(id) => write!(f, "no lake record {id}"),
            LakeError::Trace(e) => write!(f, "lake trace error: {e}"),
            LakeError::Replay(e) => write!(f, "lake replay error: {e}"),
        }
    }
}

impl std::error::Error for LakeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LakeError::Trace(e) => Some(e),
            LakeError::Replay(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TraceError> for LakeError {
    fn from(e: TraceError) -> LakeError {
        LakeError::Trace(e)
    }
}

/// One cataloged trace: the artifact pair plus its loaded posting index.
#[derive(Debug)]
pub struct LakeTrace {
    /// Artifact stem (`<stem>.igmt` / `<stem>.igmx`) — the tenant label
    /// as sanitized by the capture layer ([`igm_trace::lake_stem`]).
    pub stem: String,
    /// [`tenant_id`] of the stem (the `RecordId.tenant` coordinate).
    pub tenant: u32,
    /// [`igm_span::trace_id`] of the stem (the `RecordId.trace` coordinate).
    pub trace: u32,
    /// Path of the trace file.
    pub path: PathBuf,
    /// Trace file size in bytes.
    pub trace_bytes: u64,
    /// The loaded (or rebuilt) `IGMX` posting index.
    pub index: TraceIndex,
    /// Whether the sidecar had to be rebuilt by an offline record scan
    /// (missing, of another sidecar version, corrupt, or stale).
    pub rebuilt: bool,
}

impl LakeTrace {
    /// Index overhead in bytes per record (posting sections only — the
    /// lake's headline cost metric).
    pub fn index_bytes_per_record(&self) -> f64 {
        let records = self.index.total_records();
        if records == 0 {
            0.0
        } else {
            self.index.posting_bytes() as f64 / records as f64
        }
    }
}

/// A catalog over one directory of capture/tee artifacts.
///
/// Opening the lake pairs every `<stem>.igmt` with its `<stem>.igmx`
/// sidecar. A sidecar that is missing, of another version, corrupt, or
/// stale (its last frame does not end exactly where the trace file ends) is
/// rebuilt by [`TraceIndex::scan_records_file`] and saved back — the
/// offline build is byte-identical to the writer-inline one, so a lake
/// heals its indexes without changing what queries see. Traces that fail
/// even the rebuild are left out and reported by [`TraceLake::skipped`].
#[derive(Debug)]
pub struct TraceLake {
    dir: PathBuf,
    traces: Vec<LakeTrace>,
    skipped: Vec<(String, String)>,
}

impl TraceLake {
    /// Opens the lake over `dir`.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<TraceLake> {
        let dir = dir.as_ref().to_path_buf();
        let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "igmt"))
            .collect();
        paths.sort();
        let mut traces = Vec::new();
        let mut skipped = Vec::new();
        for path in paths {
            let stem = match path.file_stem().and_then(|s| s.to_str()) {
                Some(s) => s.to_owned(),
                None => continue,
            };
            let trace_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            let artifact = LakeArtifact::new(&dir, &stem);
            let sidecar = artifact.sidecar_path;
            let loaded =
                TraceIndex::load_file(&sidecar).ok().filter(|i| index_fits(i, &path, trace_bytes));
            let (index, rebuilt) = match loaded {
                Some(i) => (i, false),
                None => match TraceIndex::scan_records_file(&path) {
                    Ok(i) => {
                        // Heal the sidecar; failing to save is not fatal
                        // (the in-memory index still serves queries).
                        let _ = i.save_file(&sidecar);
                        (i, true)
                    }
                    Err(e) => {
                        skipped.push((stem, e.to_string()));
                        continue;
                    }
                },
            };
            traces.push(LakeTrace {
                tenant: tenant_id(&stem),
                trace: artifact.trace_id,
                stem,
                path,
                trace_bytes,
                index,
                rebuilt,
            });
        }
        Ok(TraceLake { dir, traces, skipped })
    }

    /// The directory this lake catalogs.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Every cataloged trace, in stem order.
    pub fn traces(&self) -> &[LakeTrace] {
        &self.traces
    }

    /// Artifacts that could not be cataloged: `(stem, reason)`.
    pub fn skipped(&self) -> &[(String, String)] {
        &self.skipped
    }

    /// Records across every cataloged trace.
    pub fn total_records(&self) -> u64 {
        self.traces.iter().map(|t| t.index.total_records()).sum()
    }

    /// Posting-index bytes across every cataloged trace.
    pub fn total_index_bytes(&self) -> u64 {
        self.traces.iter().map(|t| t.index.posting_bytes()).sum()
    }

    /// The trace captured under tenant stem `stem`, if cataloged.
    pub fn by_stem(&self, stem: &str) -> Option<&LakeTrace> {
        self.traces.iter().find(|t| t.stem == stem)
    }

    /// The trace with the given `RecordId` coordinates.
    pub fn by_ids(&self, tenant: u32, trace: u32) -> Option<&LakeTrace> {
        self.traces.iter().find(|t| t.tenant == tenant && t.trace == trace)
    }

    /// Runs `q` across the lake — against one tenant's trace when
    /// `tenant` is given, across every trace otherwise. Pure sidecar
    /// bitmap algebra: no trace file is opened. At most `limit` hit ids
    /// are materialized; `matched` still counts all of them.
    pub fn query(
        &self,
        tenant: Option<&str>,
        q: &LakeQuery,
        limit: usize,
    ) -> Result<LakeHits, LakeError> {
        let mut hits = LakeHits::default();
        match tenant {
            Some(stem) => {
                let t = self.by_stem(stem).ok_or_else(|| LakeError::UnknownTenant(stem.into()))?;
                execute(&t.index, t.tenant, t.trace, q, limit, &mut hits);
            }
            None => {
                for t in &self.traces {
                    execute(&t.index, t.tenant, t.trace, q, limit, &mut hits);
                }
            }
        }
        Ok(hits)
    }

    /// Decodes the ±`k` record neighborhood around `id` — the lake's
    /// only payload-decoding path, and it touches exactly the frames
    /// the window overlaps: the frame directory seeks the reader to the
    /// first one, and decoding stops at the window's end.
    pub fn neighborhood(&self, id: RecordId, k: u64) -> Result<Vec<(u64, TraceEntry)>, LakeError> {
        let t = self.locate(id)?;
        let start = id.seq.saturating_sub(k);
        let end = id.seq.saturating_add(k).saturating_add(1).min(t.index.total_records());
        let mut reader =
            TraceReader::new(BufReader::new(File::open(&t.path).map_err(TraceError::Io)?))?;
        let entry = *t.index.frame_for_record(start).expect("start is inside the trace");
        reader.seek_to_frame(&entry)?;
        let mut pos = entry.first_record;
        let mut out = Vec::with_capacity((end - start) as usize);
        let mut batch = TraceBatch::new();
        while pos < end && reader.read_chunk_into_batch(&mut batch)? {
            for (i, e) in batch.iter().enumerate() {
                let seq = pos + i as u64;
                if (start..end).contains(&seq) {
                    out.push((seq, e));
                }
            }
            pos += batch.len() as u64;
        }
        Ok(out)
    }

    /// Replays the ±`k` window around `id` through a fresh lifeguard
    /// session on `pool` (via [`replay_window`]'s directory seek) and
    /// returns its report. The window observes records without their
    /// prefix, so lifeguard state is an inspection view, not the
    /// original run's — see [`replay_window`]'s caveat.
    pub fn replay_around(
        &self,
        pool: &MonitorPool,
        cfg: SessionConfig,
        id: RecordId,
        k: u64,
    ) -> Result<SessionReport, LakeError> {
        let t = self.locate(id)?;
        let start = id.seq.saturating_sub(k);
        let end = id.seq.saturating_add(k).saturating_add(1);
        let mut reader =
            TraceReader::new(BufReader::new(File::open(&t.path).map_err(TraceError::Io)?))?;
        replay_window(pool, cfg, &mut reader, &t.index, start..end).map_err(LakeError::Replay)
    }

    fn locate(&self, id: RecordId) -> Result<&LakeTrace, LakeError> {
        self.by_ids(id.tenant, id.trace)
            .filter(|t| id.seq < t.index.total_records())
            .ok_or(LakeError::UnknownRecord(id))
    }
}

/// Whether a loaded sidecar still describes the trace file beside it: its
/// last frame must end exactly at the file's end (a stale sidecar from a
/// prior capture must not silently answer for a trace since rewritten,
/// appended to or truncated). An unreadable trace counts as a misfit, so
/// the rescan that follows reports the real error.
fn index_fits(index: &TraceIndex, path: &Path, trace_bytes: u64) -> bool {
    File::open(path).and_then(|f| index.covers(f, trace_bytes)).unwrap_or(false)
}
