//! The measurement loop shared by all workloads: repeated set-up, timed
//! windows until `--seconds` is spent, medians, and the traced variant.

use crate::host::{self, Host};
use crate::json::Json;
use crate::metrics::{self, Metrics};
use crate::reference::Gate;
use crate::spans::{self, SpanBuf};
use crate::stats::{self, Summary};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Fewest measured windows a run reports from, however short `--seconds`.
pub const MIN_WINDOWS: usize = 5;

/// Spans one traced run may record before further ones are dropped.
pub const SPAN_CAPACITY: usize = 400_000;

/// One invocation's parameters.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    /// Multiplies every workload's record counts; 1.0 sizes a window at
    /// roughly a second on a 2-core host.
    pub scale: f64,
    /// Wall-clock budget of the measured part.
    pub seconds: f64,
    pub out: PathBuf,
    pub host: Host,
}

/// Wall and CPU time accumulated over a window's timed sections.
#[derive(Debug, Clone, Copy, Default)]
pub struct Clock {
    pub wall: f64,
    pub cpu: f64,
}

impl Clock {
    /// Runs `f` as (part of) the timed section.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let cpu = host::cpu_seconds();
        let started = Instant::now();
        let out = f();
        self.wall += started.elapsed().as_secs_f64();
        self.cpu += host::cpu_seconds() - cpu;
        out
    }
}

/// Open-loop pacing: sleeps most of the way to `due`, then spins the rest.
pub fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// What one timed window measured.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Records fully monitored (or simulated) in the timed sections.
    pub records: u64,
    pub clock: Clock,
    /// Latency samples (µs) of the workload's unit operation. Empty when
    /// the workload's unit is the window itself.
    pub ops_us: Vec<f64>,
}

impl Window {
    pub fn rate(&self) -> f64 {
        if self.clock.wall > 0.0 {
            self.records as f64 / self.clock.wall
        } else {
            0.0
        }
    }
}

/// State of a traced run: the span buffer, the per-layer metrics and the
/// known blocked time per layer.
#[derive(Debug)]
pub struct Tracer {
    pub spans: SpanBuf,
    pub metrics: Metrics,
    pub waits: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn wait(&mut self, layer: &'static str, nanos: u64) {
        *self.waits.entry(layer).or_insert(0) += nanos;
    }
}

/// One workload of the benchmark.
pub trait Workload: Sized {
    /// Input generation, reference computation and construction of
    /// everything that exists before the first timed window.
    fn setup(ctx: &Ctx) -> Self;

    /// Threads the workload runs, for the result's host section.
    fn threads(&self, host: &Host) -> String;

    /// One untraced window: calls the path's top-level functions.
    fn window(&mut self, ctx: &Ctx, gate: &mut Gate) -> Window;

    /// One traced window: the same work with the harness driving each
    /// layer's public function itself, one span per call.
    fn traced_window(&mut self, ctx: &Ctx, t: &mut Tracer, gate: &mut Gate) -> Window;

    /// Isolated-stage passes and counter reads that fill the per-layer
    /// metrics; `seconds` is the time left for them.
    fn layers(
        &mut self,
        ctx: &Ctx,
        seconds: f64,
        untraced: &[Window],
        t: &mut Tracer,
        gate: &mut Gate,
    );
}

/// A finished run, ready to print.
#[derive(Debug)]
pub struct Outcome {
    pub workload: &'static str,
    pub traced: bool,
    pub gate: Gate,
    pub metrics: Metrics,
    /// Window-sample summaries of the metrics that have them.
    pub summaries: Vec<(&'static str, Summary)>,
    /// `records_per_s` of each measured window, in run order.
    pub window_rates: Vec<f64>,
    pub threads: String,
    pub windows: usize,
    /// Per-layer table and reconciliation rows of a traced run.
    pub report: String,
}

/// Runs windows until `seconds` have passed since `started` (and at least
/// `min`), after one discarded warm-up window.
fn run_windows<W: Workload>(
    w: &mut W,
    ctx: &Ctx,
    gate: &mut Gate,
    seconds: f64,
    min: usize,
) -> Vec<Window> {
    let started = Instant::now();
    // Warm-up: lets arenas, page tables and lazily built state settle.
    w.window(ctx, gate);
    let mut windows = Vec::new();
    while windows.len() < min || started.elapsed().as_secs_f64() < seconds {
        windows.push(w.window(ctx, gate));
    }
    windows
}

/// The workload's unit-operation latency: median of the pooled samples,
/// or of the window times when the unit is the window.
fn op_p50_us(windows: &[Window]) -> f64 {
    let pooled: Vec<f64> = windows.iter().flat_map(|w| w.ops_us.iter().copied()).collect();
    if pooled.is_empty() {
        stats::median(&windows.iter().map(|w| w.clock.wall * 1e6).collect::<Vec<_>>())
    } else {
        stats::median(&pooled)
    }
}

/// The untraced run: end-to-end metrics.
pub fn run_end_to_end<W: Workload>(name: &'static str, ctx: &Ctx) -> Outcome {
    let mut gate = Gate::new();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let started = Instant::now();
    let mut w = W::setup(ctx);
    setups.push(started.elapsed().as_secs_f64());
    let windows = run_windows(&mut w, ctx, &mut gate, ctx.seconds, MIN_WINDOWS);
    // Read before the repeat set-ups below: what the allocator keeps of a
    // dropped set-up depends on the seed, and would make the peak trimodal.
    let peak_rss_mb = host::peak_rss_mb();
    let threads = w.threads(&ctx.host);
    drop(w);
    // `setup_s` is the median of several set-ups; the repeats only time.
    while setups.len() < SETUP_REPS {
        let started = Instant::now();
        let repeat = W::setup(ctx);
        setups.push(started.elapsed().as_secs_f64());
        drop(repeat);
    }

    let rates: Vec<f64> = windows.iter().map(Window::rate).collect();
    let mut metrics = Metrics::new();
    metrics.set("setup_s", stats::median(&setups));
    metrics.set("records_per_s", stats::median(&rates));
    metrics.set("op_p50_us", op_p50_us(&windows));
    metrics.set("peak_rss_mb", peak_rss_mb);
    Outcome {
        workload: name,
        traced: false,
        gate,
        metrics,
        summaries: vec![("setup_s", Summary::of(&setups)), ("records_per_s", Summary::of(&rates))],
        threads,
        windows: windows.len(),
        window_rates: rates,
        report: String::new(),
    }
}

/// The traced run: per-layer metrics, span file, per-layer table.
pub fn run_traced<W: Workload>(name: &'static str, ctx: &Ctx) -> Outcome {
    let mut gate = Gate::new();
    let mut w = W::setup(ctx);
    let mut t = Tracer {
        spans: SpanBuf::with_capacity(Instant::now(), 0, SPAN_CAPACITY),
        metrics: Metrics::new(),
        waits: BTreeMap::new(),
    };
    // A quarter of the budget for untraced windows (the overhead base and
    // the source of path-level counters), a third for traced ones, the
    // rest for the isolated-stage passes.
    let untraced = run_windows(&mut w, ctx, &mut gate, ctx.seconds * 0.25, 2);
    let started = Instant::now();
    let mut traced = Vec::new();
    while traced.len() < 2 || started.elapsed().as_secs_f64() < ctx.seconds * 0.33 {
        t.spans.set_rep(traced.len() as u32);
        traced.push(w.traced_window(ctx, &mut t, &mut gate));
    }
    let left = (ctx.seconds * 0.42).max(0.5);
    w.layers(ctx, left, &untraced, &mut t, &mut gate);

    let untraced_rate = stats::median(&untraced.iter().map(Window::rate).collect::<Vec<_>>());
    let traced_rate = stats::median(&traced.iter().map(Window::rate).collect::<Vec<_>>());
    if untraced_rate > 0.0 {
        t.metrics.set("harness.trace_overhead_share", 1.0 - traced_rate / untraced_rate);
    }
    // CPU the whole process burned per record over the untraced windows'
    // timed sections: throughput can hold while the pool spends twice the
    // cycles (epoch pipelining replays the event stream).
    let records: u64 = untraced.iter().map(|w| w.records).sum();
    let cpu: f64 = untraced.iter().map(|w| w.clock.cpu).sum();
    t.metrics.set("harness.cpu_ns_per_record", cpu * 1e9 / records.max(1) as f64);
    t.metrics.set("harness.spans_dropped", t.spans.dropped() as f64);

    let span_path = ctx.out.join(format!("{name}.spans.json"));
    if let Err(e) = t.spans.write_file(&span_path, name) {
        gate.check(false, || format!("writing {}: {e}", span_path.display()));
    }
    let mut report = spans::render_layer_table(&spans::layer_table(t.spans.spans(), &t.waits));
    for row in ["runtime.overhead_ratio", "net.tax_ratio", "harness.trace_overhead_share"] {
        if let Some(v) = t.metrics.get(row) {
            report.push_str(&format!("reconciliation: {row} = {v:.4}\n"));
        }
    }
    report.push_str(&format!(
        "spans: {} recorded, {} dropped -> {}\n",
        t.spans.spans().len(),
        t.spans.dropped(),
        span_path.display()
    ));
    Outcome {
        workload: name,
        traced: true,
        gate,
        metrics: t.metrics,
        summaries: Vec::new(),
        threads: w.threads(&ctx.host),
        windows: untraced.len() + traced.len(),
        window_rates: Vec::new(),
        report,
    }
}

impl Outcome {
    /// The contract line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn result_line(&self) -> String {
        let table: &[metrics::MetricDecl] =
            if self.traced { &metrics::PER_LAYER } else { &metrics::END_TO_END };
        Json::Obj(vec![
            ("correct".to_owned(), Json::Bool(self.gate.failed == 0)),
            ("attempted".to_owned(), Json::Num(self.gate.attempted.max(1) as f64)),
            ("failed".to_owned(), Json::Num(self.gate.failed as f64)),
            ("metrics".to_owned(), self.metrics.to_json(table)),
        ])
        .render()
    }

    /// The detail line printed before the contract line: host honesty
    /// (nproc, workers, threads, commit, rustc, seed, scale, windows) and
    /// the quartiles behind each median.
    pub fn detail_line(&self, ctx: &Ctx) -> String {
        let summaries = self
            .summaries
            .iter()
            .map(|(name, s)| {
                (
                    (*name).to_owned(),
                    Json::Obj(vec![
                        ("median".to_owned(), Json::Num(s.median)),
                        ("q1".to_owned(), Json::Num(s.q1)),
                        ("q3".to_owned(), Json::Num(s.q3)),
                        ("samples".to_owned(), Json::Num(s.n as f64)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("workload".to_owned(), Json::Str(self.workload.to_owned())),
            ("traced".to_owned(), Json::Bool(self.traced)),
            ("host".to_owned(), ctx.host.to_json()),
            ("threads".to_owned(), Json::Str(self.threads.clone())),
            ("seed".to_owned(), Json::Num(ctx.seed as f64)),
            ("scale".to_owned(), Json::Num(ctx.scale)),
            ("seconds".to_owned(), Json::Num(ctx.seconds)),
            ("windows".to_owned(), Json::Num(self.windows as f64)),
            ("failed_share".to_owned(), Json::Num(self.gate.failed_share())),
            ("summaries".to_owned(), Json::Obj(summaries)),
            (
                "window_records_per_s".to_owned(),
                Json::Arr(self.window_rates.iter().map(|r| Json::Num(r.round())).collect()),
            ),
        ])
        .render()
    }
}
