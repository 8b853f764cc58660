//! The frame tee both capture paths hand the pool: [`CaptureSession`]
//! and the [`Ingestor`]'s teed lanes.
//!
//! A [`FrameTee`] holds the [`TraceWriter`], the optional `IGMX` sidecar
//! path and the first write error, shared between two halves: a clone
//! opened into the session ([`MonitorPool::open_session_teed`]) encodes
//! each batch as one frame on whichever thread pumps it, and the owner
//! polls [`FrameTee::failure`] between publishes and reclaims the writer
//! with [`FrameTee::finish`] once the session's report is in. The lock is
//! held only inside one frame write or one of those two calls, never
//! across a publish, a finish or a helped turn.
//!
//! [`CaptureSession`]: crate::CaptureSession
//! [`Ingestor`]: crate::Ingestor

use crate::codec::{TraceError, TraceWriter};
use igm_lba::TraceBatch;
use igm_runtime::{MonitorPool, SessionConfig, SessionHandle, SessionTee};
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A trace writer the pool runs as a [`SessionTee`], and its owner's
/// handle on it (the same type: both halves are clones of one `Arc`).
pub(crate) struct FrameTee<W: Write> {
    shared: Arc<Shared<W>>,
}

struct Shared<W: Write> {
    /// Set with the first error, so the owner's per-publish poll is one
    /// atomic load and never waits on a frame being written.
    failed: AtomicBool,
    state: Mutex<State<W>>,
}

struct State<W: Write> {
    /// `None` once [`FrameTee::finish`] took it.
    writer: Option<TraceWriter<W>>,
    /// Where to save the `IGMX` sidecar, for a writer that indexes.
    sidecar: Option<PathBuf>,
    /// The first write error.
    error: Option<io::Error>,
}

/// A copy of `e` (`io::Error` is not `Clone`): its kind and message.
fn copy(e: &io::Error) -> io::Error {
    io::Error::new(e.kind(), e.to_string())
}

impl<W: Write + Send + 'static> FrameTee<W> {
    /// Opens a session on `pool` whose batches `writer` records, frame by
    /// frame, on the pumping thread; `sidecar` is where
    /// [`FrameTee::finish`] saves the writer's index. Returns the session
    /// and the owner's half of the tee.
    pub(crate) fn open(
        pool: &MonitorPool,
        cfg: SessionConfig,
        writer: TraceWriter<W>,
        sidecar: Option<PathBuf>,
    ) -> (SessionHandle, FrameTee<W>) {
        let shared = Arc::new(Shared {
            failed: AtomicBool::new(false),
            state: Mutex::new(State { writer: Some(writer), sidecar, error: None }),
        });
        let session = pool.open_session_teed(cfg, FrameTee { shared: Arc::clone(&shared) });
        (session, FrameTee { shared })
    }
}

impl<W: Write> FrameTee<W> {
    fn state(&self) -> MutexGuard<'_, State<W>> {
        // A frame write that panicked took its session down with it; the
        // state it left is still the owner's to flush.
        self.shared.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The first write error, if a frame failed (a copy: the original
    /// stays for [`FrameTee::finish`]).
    pub(crate) fn failure(&self) -> Option<TraceError> {
        if !self.shared.failed.load(Ordering::Acquire) {
            return None;
        }
        self.state().error.as_ref().map(|e| TraceError::Io(copy(e)))
    }

    /// Reclaims the writer once the session's report is in: flushes it
    /// and, for a cleanly written and flushed trace, saves the sidecar —
    /// a partial artifact never comes with an authoritative index. Returns
    /// the sink, or the first write error (else the flush or save error).
    pub(crate) fn finish(self) -> Result<W, TraceError> {
        let mut state = self.state();
        let mut writer = state.writer.take().expect("a tee finishes once");
        let index = writer.take_index();
        let flushed = writer.finish();
        if let Some(e) = state.error.take() {
            return Err(TraceError::Io(e));
        }
        let sink = flushed?;
        if let (Some(index), Some(path)) = (index, state.sidecar.take()) {
            index.save_file(path)?;
        }
        Ok(sink)
    }
}

impl<W: Write + Send> SessionTee for FrameTee<W> {
    fn tee(&mut self, batch: &TraceBatch) -> io::Result<()> {
        let mut state = self.state();
        let writer = state.writer.as_mut().expect("the session tees before its owner finishes");
        let Err(e) = writer.write_chunk_batch(batch) else { return Ok(()) };
        let refused = copy(&e);
        state.error = Some(e);
        self.shared.failed.store(true, Ordering::Release);
        Err(refused)
    }
}
