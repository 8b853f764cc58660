//! Harness-side spans: one record per call the traced run makes into a
//! layer's public function.
//!
//! Spans live in a preallocated in-memory buffer and are written out once
//! at exit. A span names its layer by prefix (`core.dispatch_batch` belongs
//! to layer `core`), carries the span that caused it and the id of the rep
//! it ran in. A layer's *self time* is its span's duration minus the part
//! of that interval its child spans cover.

use crate::json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its buffer.
pub type SpanId = u32;

/// "No parent" / "span dropped because the buffer was full".
pub const NONE: SpanId = u32::MAX;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the buffer's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// The rep (timed window) this call belongs to: spans of one window
    /// share it.
    pub rep: u32,
    /// 0 = the generator thread; others number harness-side helper
    /// threads (the loopback server, the violation receiver).
    pub thread: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span name belongs to: everything before the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A fixed-capacity span recorder for one thread.
#[derive(Debug)]
pub struct SpanBuf {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<SpanId>,
    rep: u32,
    thread: u32,
    dropped: u64,
}

impl SpanBuf {
    /// A recorder holding at most `capacity` spans, timestamps relative to
    /// `origin` (share one origin between threads whose buffers will be
    /// [`absorb`](SpanBuf::absorb)ed).
    pub fn with_capacity(origin: Instant, thread: u32, capacity: usize) -> SpanBuf {
        SpanBuf {
            origin,
            spans: Vec::with_capacity(capacity),
            stack: Vec::with_capacity(8),
            rep: 0,
            thread,
            dropped: 0,
        }
    }

    /// A recorder that records nothing: what the untraced windows hand to
    /// code shared with the traced ones.
    pub fn off() -> SpanBuf {
        SpanBuf::with_capacity(Instant::now(), 0, 0)
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Sets the rep id stamped on spans opened from now on.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one. Returns [`NONE`] (and
    /// counts a drop) when the buffer is full — the buffer never grows
    /// inside a timed window.
    #[inline]
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return NONE;
        }
        let id = self.spans.len() as SpanId;
        let parent = self.stack.last().copied().unwrap_or(NONE);
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            rep: self.rep,
            thread: self.thread,
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id` (which must be the innermost open one).
    #[inline]
    pub fn exit(&mut self, id: SpanId) {
        if id == NONE {
            return;
        }
        let now = self.now_ns();
        debug_assert_eq!(self.stack.last(), Some(&id), "spans close innermost-first");
        self.stack.pop();
        self.spans[id as usize].end_ns = now;
    }

    /// Renames a recorded span — for calls whose kind is only known once
    /// they return (an ingest pass that turned out idle).
    pub fn rename(&mut self, id: SpanId, name: &'static str) {
        if id != NONE {
            self.spans[id as usize].name = name;
        }
    }

    /// Times `f` as one span.
    #[inline]
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Appends another thread's spans (recorded against the same origin);
    /// their parent links stay internal to the absorbed buffer.
    pub fn absorb(&mut self, other: SpanBuf) {
        let shift = self.spans.len() as SpanId;
        self.dropped += other.dropped;
        for mut s in other.spans {
            if s.parent != NONE {
                s.parent += shift;
            }
            self.spans.push(s);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans refused because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Durations (µs) of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64 / 1e3).collect()
    }

    /// The span file: one object per span plus the drop count.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(
            out,
            "{{\"workload\": {}, \"dropped\": {}, \"spans\": [",
            json::quote(workload),
            self.dropped
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = if s.parent == NONE { "null".to_owned() } else { s.parent.to_string() };
            let _ = write!(
                out,
                "\n{{\"id\": {i}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"rep\": {}, \"thread\": {}}}",
                json::quote(s.name),
                s.start_ns,
                s.end_ns,
                s.rep,
                s.thread
            );
        }
        out.push_str("\n]}\n");
        out
    }

    pub fn write_file(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json(workload))
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals (clipped to the span). Children may overlap each
/// other; overlapping cover is counted once.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NONE {
            let p = &spans[s.parent as usize];
            let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if b > a {
                children[s.parent as usize].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// One row of the per-layer table.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    pub layer: String,
    pub calls: u64,
    /// Σ duration of the layer's outermost spans (a layer's span nested in
    /// another span of the same layer is not counted twice).
    pub busy_ns: u64,
    /// Σ self time of the layer's spans.
    pub self_ns: u64,
    /// Time the generator was blocked inside this layer, as the program's
    /// own counters report it (channel stalls, credit stalls) or as the
    /// harness slept on the layer's behalf (idle backoff).
    pub wait_ns: u64,
}

/// Aggregates spans into per-layer busy/self rows (layers in name order);
/// `waits` adds known blocked time per layer.
pub fn layer_table(spans: &[Span], waits: &BTreeMap<&'static str, u64>) -> Vec<LayerRow> {
    let selfs = self_times_ns(spans);
    let mut rows: BTreeMap<&str, LayerRow> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let row = rows.entry(s.layer()).or_insert_with(|| LayerRow {
            layer: s.layer().to_owned(),
            calls: 0,
            busy_ns: 0,
            self_ns: 0,
            wait_ns: 0,
        });
        row.calls += 1;
        row.self_ns += self_ns;
        let nested_in_same_layer =
            s.parent != NONE && spans[s.parent as usize].layer() == s.layer();
        if !nested_in_same_layer {
            row.busy_ns += s.duration_ns();
        }
    }
    for (layer, ns) in waits {
        rows.entry(layer)
            .or_insert_with(|| LayerRow {
                layer: (*layer).to_owned(),
                calls: 0,
                busy_ns: 0,
                self_ns: 0,
                wait_ns: 0,
            })
            .wait_ns += ns;
    }
    rows.into_values().collect()
}

/// Renders [`layer_table`] rows for the terminal.
pub fn render_layer_table(rows: &[LayerRow]) -> String {
    let mut out = format!(
        "{:<12} {:>9} {:>12} {:>12} {:>12}\n",
        "layer", "calls", "busy ms", "self ms", "wait ms"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<12} {:>9} {:>12.3} {:>12.3} {:>12.3}",
            r.layer,
            r.calls,
            r.busy_ns as f64 / 1e6,
            r.self_ns as f64 / 1e6,
            r.wait_ns as f64 / 1e6
        );
    }
    out
}
