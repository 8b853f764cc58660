//! `pool_tenants`: four tenants through one `trace::Ingestor` thread into a
//! `MonitorPool` with the default `PoolConfig` (so `PipelineMode::Auto`).
//!
//! The handlers are the seq workloads' handlers; what this workload adds is
//! `runtime` — channels, scheduling, stealing, epoch pipelining — and its
//! reconciliation row says how much that costs over the sequential sum.

use crate::harness::{Clock, Ctx, Tracer, Window, Workload};
use crate::host::Host;
use crate::inputs::{scaled, BatchSource, Program, Tenant, Trace};
use crate::reference::{self, check_session, Gate, Reference};
use crate::spans::SpanBuf;
use crate::stats;
use igm::lba::buffer::DEFAULT_CAPACITY_BYTES;
use igm::lifeguards::LifeguardKind;
use igm::runtime::{
    log_channel, MonitorPool, PipelineMode, PoolConfig, PoolStatsSnapshot, SessionReport,
};
use igm::trace::{IngestReport, Ingestor};
use igm::workload::{Benchmark, MtBenchmark};
use std::sync::mpsc;
use std::time::Instant;

/// Records per tenant at `--scale 1`.
const RECORDS: u64 = 1_500_000;

/// Counters of the most recent untraced window.
#[derive(Debug, Clone, Copy, Default)]
struct PathCounters {
    deferred_sends: u64,
    steals: u64,
    parks: u64,
    epoch_jobs: u64,
}

#[derive(Debug)]
pub struct PoolTenants {
    tenants: Vec<Tenant>,
    refs: Vec<Reference>,
    counters: PathCounters,
}

/// A pool sized for this host, every other knob at its default.
pub fn default_pool(host: &Host) -> MonitorPool {
    MonitorPool::new(PoolConfig { workers: host.workers, ..PoolConfig::default() })
}

/// The pool behind the open-loop workloads: pipelining off. Their channels
/// are far from saturated, so `Auto` has no reason to engage — but one host
/// hiccup longer than the 64 KB channel fills it, `Auto` engages, and the
/// epochs' retained batches add a trace's worth of memory for the rest of
/// the process (measured: `paced_detect` 114 → 174 MB in about a third of
/// 4 s runs). That coin flip would be the whole of `peak_rss_mb`.
pub fn unpipelined_pool(host: &Host) -> MonitorPool {
    MonitorPool::new(PoolConfig {
        workers: host.workers,
        pipeline: PipelineMode::Never,
        ..PoolConfig::default()
    })
}

/// What a generator thread driving `send_batch` itself measured.
pub struct DirectRun {
    pub records: u64,
    pub wall: f64,
    /// µs inside each `send_batch` call.
    pub send_us: Vec<f64>,
    /// ms inside the `finish()` calls after the last send.
    pub drain_ms: f64,
    pub reports: Vec<SessionReport>,
}

/// Streams `tenants` through a fresh pool with blocking `send_batch`,
/// round-robin from the calling thread, one span per call. `after` runs
/// against the pool before it shuts down.
pub fn direct_run(
    host: &Host,
    mode: PipelineMode,
    tenants: &[&Tenant],
    spans: &mut SpanBuf,
    after: impl FnOnce(&MonitorPool),
) -> DirectRun {
    let pool = MonitorPool::new(PoolConfig {
        workers: host.workers,
        pipeline: mode,
        ..PoolConfig::default()
    });
    let sessions: Vec<_> = tenants.iter().map(|t| pool.open_session(t.session_config())).collect();
    let most = tenants.iter().map(|t| t.trace.batches.len()).max().unwrap_or(0);
    let mut send_us = Vec::with_capacity(most * tenants.len());
    let started = Instant::now();
    for i in 0..most {
        for (t, session) in tenants.iter().zip(&sessions) {
            let Some(batch) = t.trace.batches.get(i) else { continue };
            let batch = batch.clone();
            let span = spans.enter("runtime.send_batch");
            let sent = Instant::now();
            session.send_batch(batch).expect("the pool outlives its sessions");
            send_us.push(sent.elapsed().as_nanos() as f64 / 1e3);
            spans.exit(span);
        }
    }
    let drain = Instant::now();
    let reports: Vec<SessionReport> =
        spans.span("runtime.finish", || sessions.into_iter().map(|s| s.finish()).collect());
    let drain_ms = drain.elapsed().as_secs_f64() * 1e3;
    let wall = started.elapsed().as_secs_f64();
    after(&pool);
    pool.shutdown();
    DirectRun { records: reports.iter().map(|r| r.records).sum(), wall, send_us, drain_ms, reports }
}

impl PoolTenants {
    fn lanes(&self, ingestor: &mut Ingestor<'_>) {
        for t in &self.tenants {
            ingestor.add_source(t.session_config(), BatchSource::new(&t.trace));
        }
    }

    /// Gates one ingest run: no lane errors, every session equal to its
    /// reference, lane and session record counts reconciled.
    fn check(&mut self, report: &IngestReport, stats: &PoolStatsSnapshot, gate: &mut Gate) {
        gate.check(report.errors.is_empty(), || format!("ingest errors: {:?}", report.errors));
        for ((session, (lane, lane_stats)), want) in
            report.sessions.iter().zip(&report.lanes).zip(&self.refs)
        {
            check_session(gate, "pool_tenants", session, want);
            gate.check(lane_stats.records == session.records, || {
                format!(
                    "lane {lane} published {} records, session saw {}",
                    lane_stats.records, session.records
                )
            });
        }
        self.counters = PathCounters {
            deferred_sends: report.lanes.iter().map(|(_, l)| l.deferred_sends).sum(),
            steals: stats.steals,
            parks: stats.parks,
            epoch_jobs: stats.epoch_jobs,
        };
    }
}

impl Workload for PoolTenants {
    fn setup(ctx: &Ctx) -> Self {
        let n = scaled(RECORDS, ctx.scale);
        let specs = [
            (Program::Spec(Benchmark::Gcc), LifeguardKind::AddrCheck, false),
            (Program::Spec(Benchmark::Mcf), LifeguardKind::MemCheck, true),
            (Program::Spec(Benchmark::Gzip), LifeguardKind::TaintCheck, true),
            (Program::Mt(MtBenchmark::WaterNq), LifeguardKind::LockSet, false),
        ];
        let tenants: Vec<Tenant> = specs
            .into_iter()
            .enumerate()
            .map(|(i, (program, kind, on))| {
                Tenant::new(&Trace::generate(program, n, ctx.seed, i as u64), kind, on)
            })
            .collect();
        let refs = tenants.iter().map(reference::for_tenant).collect();
        PoolTenants { tenants, refs, counters: PathCounters::default() }
    }

    fn threads(&self, host: &Host) -> String {
        format!("1 generator (Ingestor) + {} pool workers (closed loop)", host.workers)
    }

    fn window(&mut self, ctx: &Ctx, gate: &mut Gate) -> Window {
        let pool = default_pool(&ctx.host);
        let mut ingestor = Ingestor::new(&pool);
        self.lanes(&mut ingestor);
        let mut clock = Clock::default();
        let report = clock.time(|| ingestor.run());
        let stats = pool.stats();
        pool.shutdown();
        self.check(&report, &stats, gate);
        Window { records: report.records(), clock, ops_us: Vec::new() }
    }

    fn traced_window(&mut self, ctx: &Ctx, t: &mut Tracer, gate: &mut Gate) -> Window {
        let pool = default_pool(&ctx.host);
        let mut ingestor = Ingestor::new(&pool);
        self.lanes(&mut ingestor);
        let mut clock = Clock::default();
        let mut idle_ns = 0u64;
        // `Ingestor::run`, spelled out through its public steps.
        let report = clock.time(|| {
            loop {
                let pass = t.spans.enter("trace.ingest_pass");
                let outcome = ingestor.pass();
                t.spans.exit(pass);
                if outcome.open == 0 {
                    break;
                }
                if !outcome.progress {
                    t.spans.rename(pass, "trace.ingest_pass_idle");
                    let slept = Instant::now();
                    std::thread::sleep(ingestor.idle_backoff());
                    idle_ns += slept.elapsed().as_nanos() as u64;
                }
            }
            let finish = t.spans.enter("runtime.finish");
            let report = ingestor.finish();
            t.spans.exit(finish);
            report
        });
        t.wait("trace", idle_ns);
        let stats = pool.stats();
        pool.shutdown();
        self.check(&report, &stats, gate);
        Window { records: report.records(), clock, ops_us: Vec::new() }
    }

    fn layers(
        &mut self,
        ctx: &Ctx,
        _seconds: f64,
        untraced: &[Window],
        t: &mut Tracer,
        gate: &mut Gate,
    ) {
        let records: u64 = self.tenants.iter().map(Tenant::records).sum();
        let gen: f64 = self.tenants.iter().map(|t| t.trace.gen_secs).sum();
        t.metrics.set("workload.gen_records_per_s", records as f64 / gen);
        t.metrics
            .set("trace.ingest_pass_us", stats::median(&t.spans.durations_us("trace.ingest_pass")));
        t.metrics.set("runtime.deferred_sends", self.counters.deferred_sends as f64);
        t.metrics.set("runtime.steals", self.counters.steals as f64);
        t.metrics.set("runtime.parks", self.counters.parks as f64);
        t.metrics.set("runtime.epoch_jobs", self.counters.epoch_jobs as f64);

        // Reconciliation: what the same tenants cost one after another on
        // one thread, against the pool's wall time times the parallelism it
        // had. 1.0 = transport and scheduling were free.
        let sequential: f64 = self.refs.iter().map(|r| r.secs).sum();
        let wall = stats::median(&untraced.iter().map(|w| w.clock.wall).collect::<Vec<_>>());
        let lanes = ctx.host.workers.min(self.tenants.len()) as f64;
        t.metrics.set("runtime.overhead_ratio", wall * lanes / sequential);

        // The same tenants with the generator calling `send_batch` itself:
        // per-send cost, blocking stalls, drain time, and the scrape.
        let all: Vec<&Tenant> = self.tenants.iter().collect();
        let mut scrape_ms = Vec::new();
        let run = direct_run(&ctx.host, PipelineMode::Auto, &all, &mut t.spans, |pool| {
            for _ in 0..9 {
                let started = Instant::now();
                let text = pool.metrics().snapshot().to_prometheus();
                scrape_ms.push(started.elapsed().as_secs_f64() * 1e3);
                std::hint::black_box(text);
            }
        });
        for (report, want) in run.reports.iter().zip(&self.refs) {
            check_session(gate, "pool_tenants direct sends", report, want);
        }
        let stall_ns: u64 = run.reports.iter().map(|r| r.channel.stall_nanos).sum();
        t.wait("runtime", stall_ns);
        t.metrics.set("runtime.send_p50_us", stats::median(&run.send_us));
        t.metrics.set("runtime.send_p99_us", stats::tail(&run.send_us, 0.99).1);
        t.metrics.set("runtime.drain_ms", run.drain_ms);
        t.metrics.set("runtime.producer_stall_share", stall_ns as f64 / 1e9 / run.wall);
        t.metrics.set("obs.scrape_ms", stats::median(&scrape_ms));

        // One hot session under each pipeline mode.
        let hot = [&self.tenants[0]];
        for (mode, name) in [
            (PipelineMode::Never, "never"),
            (PipelineMode::Auto, "auto"),
            (PipelineMode::Always, "always"),
        ] {
            let rates: Vec<f64> = (0..3)
                .map(|_| {
                    let run = direct_run(&ctx.host, mode, &hot, &mut SpanBuf::off(), |_| {});
                    check_session(gate, name, &run.reports[0], &self.refs[0]);
                    run.records as f64 / run.wall
                })
                .collect();
            t.metrics.set(
                &format!("runtime.single_session_records_per_s.{name}"),
                stats::median(&rates),
            );
        }

        t.metrics.set("runtime.channel_hop_us", channel_hop_us(&self.tenants[0], &mut t.spans));

        let pool = default_pool(&ctx.host);
        let open_us: Vec<f64> = (0..200)
            .map(|_| {
                let span = t.spans.enter("runtime.open_session");
                let started = Instant::now();
                let report = pool.open_session(self.tenants[0].session_config()).finish();
                let us = started.elapsed().as_nanos() as f64 / 1e3;
                t.spans.exit(span);
                std::hint::black_box(report);
                us
            })
            .collect();
        pool.shutdown();
        t.metrics.set("runtime.session_open_us", stats::median(&open_us));
    }
}

/// Median µs from `send_batch` on one thread to `recv_batch` returning on
/// another, one batch in flight, no monitor behind the channel.
fn channel_hop_us(tenant: &Tenant, spans: &mut SpanBuf) -> f64 {
    const HOPS: usize = 2_000;
    let batch = &tenant.trace.batches[0];
    let (tx, rx) = log_channel(DEFAULT_CAPACITY_BYTES);
    let (ack_tx, ack_rx) = mpsc::channel::<Instant>();
    let span = spans.enter("runtime.channel_hop");
    let hops = std::thread::scope(|scope| {
        scope.spawn(move || {
            while let Some(received) = rx.recv_batch() {
                let at = Instant::now();
                rx.recycle(received);
                if ack_tx.send(at).is_err() {
                    break;
                }
            }
        });
        let mut hops = Vec::with_capacity(HOPS);
        for _ in 0..HOPS {
            let next = batch.clone();
            let sent = Instant::now();
            tx.send_batch(next).expect("the consumer is alive");
            let received = ack_rx.recv().expect("the consumer acknowledges every batch");
            hops.push(received.saturating_duration_since(sent).as_nanos() as f64 / 1e3);
        }
        drop(tx);
        hops
    });
    spans.exit(span);
    stats::median(&hops)
}
