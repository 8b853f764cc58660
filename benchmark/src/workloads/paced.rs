//! `paced_detect`: the open-loop latency workload.
//!
//! Two AddrCheck sessions (accelerators off and on) are fed on a fixed
//! schedule, not as fast as the pool accepts. Every batch ends in one
//! planted `Free` of a never-allocated base at a unique pc, which AddrCheck
//! reports as `InvalidFree`; a receiver on the pool's violation stream
//! timestamps each arrival. Lag runs from the batch's *due* time — so a
//! stalled generator's lateness counts — to the violation leaving the
//! stream. It is set by the channel hop and the worker wake-up, not by
//! handler speed; throughput tricks that batch harder must not raise it.

use super::pool::unpipelined_pool;
use crate::harness::{wait_until, Clock, Ctx, Tracer, Window, Workload};
use crate::host::Host;
use crate::inputs::{scaled, Program, Tenant, Trace};
use crate::reference::{check_session, sequential, Gate, Reference};
use crate::spans::SpanBuf;
use crate::stats;
use igm::isa::{Annotation, TraceEntry};
use igm::lba::TraceBatch;
use igm::lifeguards::{LifeguardKind, Violation};
use igm::workload::Benchmark;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Records per session per window at `--scale 1`: one second at `RATE`.
const RECORDS: u64 = 2_000_000;
/// Scheduled records per second per session.
const RATE: f64 = 2_000_000.0;
/// The higher rate the traced run also probes.
const RATE_HI: f64 = 8_000_000.0;
/// A send this much past its due time counts as late.
const LATE: Duration = Duration::from_millis(1);
/// Plants: pcs no generated code uses, bases nothing allocates.
const PLANT_PC: u32 = 0xf000_0000;
const PLANT_BASE: u32 = 0xe000_0000;

/// One session's planted input.
#[derive(Debug)]
struct Paced {
    tenant: Tenant,
    batches: Vec<TraceBatch>,
    /// Records up to and including batch `i`.
    through: Vec<u64>,
    /// The planted pc of batch `i`.
    pcs: Vec<u32>,
    want: Reference,
}

#[derive(Debug, Default)]
struct PacedObs {
    lags_us: Vec<f64>,
    send_us: Vec<f64>,
    growth: Vec<f64>,
    sends: u64,
    late: u64,
}

#[derive(Debug)]
pub struct PacedDetect {
    sessions: Vec<Paced>,
    obs: PacedObs,
}

impl PacedDetect {
    /// One paced window at `rate` records per second per session.
    fn run(
        &mut self,
        ctx: &Ctx,
        rate: f64,
        spans: &mut SpanBuf,
        gate: &mut Gate,
    ) -> (Window, Vec<f64>) {
        let pool = unpipelined_pool(&ctx.host);
        let Some(stream) = pool.violation_stream() else {
            gate.check(false, || "the pool's violation stream was already taken".to_owned());
            pool.shutdown();
            return (Window::default(), Vec::new());
        };
        let handles: Vec<_> =
            self.sessions.iter().map(|s| pool.open_session(s.tenant.session_config())).collect();
        // The schedule: every batch of every session, in due order. A batch
        // is due once its last record would have been produced; the
        // sessions' clocks are staggered across one batch period, so a lag
        // is a session's own and not the wait behind the other's batch.
        let sessions = self.sessions.len() as f64;
        let mut schedule: Vec<(f64, usize, usize)> = self
            .sessions
            .iter()
            .enumerate()
            .flat_map(|(s, p)| {
                let stagger = p.through[0] as f64 / rate * s as f64 / sessions;
                p.through.iter().enumerate().map(move |(i, n)| (*n as f64 / rate + stagger, s, i))
            })
            .collect();
        schedule.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

        let done = AtomicBool::new(false);
        let mut clock = Clock::default();
        let mut send_us = Vec::with_capacity(schedule.len());
        let mut late = 0u64;
        let start = Instant::now() + Duration::from_millis(2);
        let (reports, arrivals) = std::thread::scope(|scope| {
            let done = &done;
            let receiver = scope.spawn(move || {
                let mut arrivals: Vec<(Violation, Instant)> = Vec::new();
                loop {
                    match stream.recv_timeout(Duration::from_millis(10)) {
                        Some(v) => arrivals.push((v.violation, Instant::now())),
                        None if done.load(Ordering::Acquire) => return arrivals,
                        None => {}
                    }
                }
            });
            let reports = clock.time(|| {
                for &(due_secs, s, i) in &schedule {
                    let batch = self.sessions[s].batches[i].clone();
                    let due = start + Duration::from_secs_f64(due_secs);
                    wait_until(due);
                    let span = spans.enter("runtime.send_batch");
                    let sent = Instant::now();
                    late += u64::from(sent.saturating_duration_since(due) > LATE);
                    handles[s].send_batch(batch).expect("the pool outlives its sessions");
                    send_us.push(sent.elapsed().as_nanos() as f64 / 1e3);
                    spans.exit(span);
                }
                spans.span("runtime.finish", || {
                    handles.into_iter().map(|h| h.finish()).collect::<Vec<_>>()
                })
            });
            // Release pairs with the receiver's Acquire: every violation of
            // the finished sessions is already in the stream.
            done.store(true, Ordering::Release);
            (reports, receiver.join().expect("the receiver thread completes"))
        });
        pool.shutdown();

        // Planted-violation round trip: every plant pc exactly once.
        let mut seen: HashMap<u32, (u32, Instant)> = HashMap::new();
        for (v, at) in &arrivals {
            if let Violation::InvalidFree { pc, .. } = v {
                let slot = seen.entry(*pc).or_insert((0, *at));
                slot.0 += 1;
            }
        }
        let expected: usize = self.sessions.iter().map(|s| s.want.violations.len()).sum();
        gate.check(arrivals.len() == expected, || {
            format!(
                "the stream delivered {} violations, the references have {expected}",
                arrivals.len()
            )
        });
        // Lag per batch, `[session][batch]`; a plant that did not arrive
        // exactly once fails and leaves its slot empty.
        let mut lag_us: Vec<Vec<Option<f64>>> =
            self.sessions.iter().map(|p| vec![None; p.batches.len()]).collect();
        for &(due_secs, s, i) in &schedule {
            let pc = self.sessions[s].pcs[i];
            match seen.get(&pc) {
                Some((1, at)) => {
                    let due = start + Duration::from_secs_f64(due_secs);
                    lag_us[s][i] = Some(at.saturating_duration_since(due).as_nanos() as f64 / 1e3);
                    gate.check(true, String::new);
                }
                other => gate.check(false, || {
                    format!("plant pc {pc:#x} observed {} times", other.map_or(0, |o| o.0))
                }),
            }
        }
        // Unit operation: one batch's detection, pooled over the two
        // sessions by geometric mean (their handlers differ in speed, and a
        // plain pooled median would sit on the gap between them).
        let batches = lag_us.iter().map(Vec::len).min().unwrap_or(0);
        let lags: Vec<(f64, f64)> = (0..batches)
            .filter_map(|i| {
                let each: Option<Vec<f64>> = lag_us.iter().map(|l| l[i]).collect();
                Some((self.sessions[0].through[i] as f64 / rate, stats::geomean(&each?)))
            })
            .collect();
        let mut records = 0u64;
        for (report, p) in reports.iter().zip(&self.sessions) {
            check_session(gate, "paced_detect", report, &p.want);
            records += report.records;
        }

        // Backlog growth: how much lag rises per second of run, first third
        // of the schedule against the last.
        let span_secs = schedule.last().map_or(0.0, |l| l.0);
        let third = |lo: f64, hi: f64| {
            stats::median(
                &lags
                    .iter()
                    .filter(|(d, _)| *d >= lo * span_secs && *d <= hi * span_secs)
                    .map(|(_, l)| *l)
                    .collect::<Vec<_>>(),
            )
        };
        if span_secs > 0.0 && lags.len() >= 6 {
            let growth_us = third(2.0 / 3.0, 1.0) - third(0.0, 1.0 / 3.0);
            self.obs.growth.push(growth_us / 1e6 / (span_secs * 2.0 / 3.0));
        }
        self.obs.sends += schedule.len() as u64;
        self.obs.late += late;
        let lags_us: Vec<f64> = lags.into_iter().map(|(_, l)| l).collect();
        (Window { records, clock, ops_us: lags_us.clone() }, send_us)
    }
}

impl PacedDetect {
    /// A window at the nominal rate, its samples kept for the per-layer
    /// metrics.
    fn measured(&mut self, ctx: &Ctx, spans: &mut SpanBuf, gate: &mut Gate) -> Window {
        let (window, send_us) = self.run(ctx, RATE, spans, gate);
        self.obs.lags_us.extend_from_slice(&window.ops_us);
        self.obs.send_us.extend(send_us);
        window
    }
}

impl Workload for PacedDetect {
    fn setup(ctx: &Ctx) -> Self {
        let n = scaled(RECORDS, ctx.scale);
        let sessions = [(Benchmark::Gcc, false), (Benchmark::Mcf, true)]
            .into_iter()
            .enumerate()
            .map(|(s, (bench, on))| {
                let trace = Trace::generate(Program::Spec(bench), n, ctx.seed, s as u64);
                let tenant = Tenant::new(&trace, LifeguardKind::AddrCheck, on);
                let mut through = Vec::with_capacity(trace.batches.len());
                let mut pcs = Vec::with_capacity(trace.batches.len());
                let mut total = 0u64;
                let batches: Vec<TraceBatch> = trace
                    .batches
                    .iter()
                    .enumerate()
                    .map(|(i, b)| {
                        let id = ((s as u32) << 24) | (i as u32) << 4;
                        let mut planted = b.clone();
                        planted.push(&TraceEntry::annot(
                            PLANT_PC | id,
                            Annotation::Free { base: PLANT_BASE | id },
                        ));
                        total += planted.len() as u64;
                        through.push(total);
                        pcs.push(PLANT_PC | id);
                        planted
                    })
                    .collect();
                let want = sequential(tenant.kind, &tenant.accel, &trace.premark, &batches);
                Paced { tenant, batches, through, pcs, want }
            })
            .collect();
        PacedDetect { sessions, obs: PacedObs::default() }
    }

    fn threads(&self, host: &Host) -> String {
        format!(
            "1 generator (open loop, {} records/s per session, 2 sessions) + 1 violation receiver + {} pool workers",
            RATE, host.workers
        )
    }

    fn window(&mut self, ctx: &Ctx, gate: &mut Gate) -> Window {
        self.measured(ctx, &mut SpanBuf::off(), gate)
    }

    fn traced_window(&mut self, ctx: &Ctx, t: &mut Tracer, gate: &mut Gate) -> Window {
        self.measured(ctx, &mut t.spans, gate)
    }

    fn layers(
        &mut self,
        ctx: &Ctx,
        _seconds: f64,
        _untraced: &[Window],
        t: &mut Tracer,
        gate: &mut Gate,
    ) {
        let records: u64 = self.sessions.iter().map(|s| s.tenant.records()).sum();
        let gen: f64 = self.sessions.iter().map(|s| s.tenant.trace.gen_secs).sum();
        let m = &mut t.metrics;
        m.set("workload.gen_records_per_s", records as f64 / gen);
        m.set("runtime.detect_lag_p99_us", stats::tail(&self.obs.lags_us, 0.99).1);
        m.set("runtime.send_p50_us", stats::median(&self.obs.send_us));
        m.set("runtime.send_p99_us", stats::tail(&self.obs.send_us, 0.99).1);
        m.set("runtime.backlog_growth_share", stats::median(&self.obs.growth));
        m.set("harness.late_share", self.obs.late as f64 / self.obs.sends.max(1) as f64);

        let mut hi = Vec::new();
        for _ in 0..4 {
            hi.extend(self.run(ctx, RATE_HI, &mut SpanBuf::off(), gate).0.ops_us);
        }
        t.metrics.set("runtime.detect_lag_p50_us.hi", stats::median(&hi));
    }
}
