//! `cosim_figures`: the paper's own metric, in simulated time.
//!
//! `sim::Simulator` (the timing co-simulation) runs 5 lifeguards ×
//! {baseline, optimized} × 3 benchmarks. Host speed is what
//! `records_per_s` measures; the simulated statistics are deterministic, so
//! every rep must reproduce the first one bit for bit and a change that
//! only speeds the simulator up must leave `sim_slowdown_*` identical.

use crate::harness::{Clock, Ctx, Tracer, Window, Workload};
use crate::host::Host;
use crate::metrics::lifeguard_slug;
use crate::reference::Gate;
use crate::spans::SpanBuf;
use igm::isa::TraceEntry;
use igm::lifeguards::LifeguardKind;
use igm::sim::{SimConfig, SimReport, Simulator};
use igm::workload::{Benchmark, MtBenchmark, TraceGen};
use std::time::Instant;

/// Records per simulated run at `--scale 1`.
const RECORDS: u64 = 80_000;
const BENCHMARKS: [Benchmark; 3] = [Benchmark::Gcc, Benchmark::Gzip, Benchmark::Mcf];
const MT_BENCHMARKS: [MtBenchmark; 3] =
    [MtBenchmark::Blast, MtBenchmark::WaterNq, MtBenchmark::Zchaff];

/// One generated application trace.
#[derive(Debug)]
struct App {
    name: &'static str,
    premark: Vec<(u32, u32)>,
    entries: Vec<TraceEntry>,
}

/// Everything of a `SimReport` that must repeat exactly.
#[derive(Debug, Clone, PartialEq)]
struct Digest {
    counters: [u64; 13],
    violations: usize,
    it_filtered: u64,
    if_hits: u64,
}

impl Digest {
    fn of(r: &SimReport) -> Digest {
        let t = &r.timing;
        let d = &r.dispatch;
        Digest {
            counters: [
                t.app_alone_cycles,
                t.monitored_cycles,
                t.consumer_cycles,
                t.producer_stall_cycles,
                t.syscall_drain_cycles,
                t.records,
                t.delivered_events,
                t.handler_instrs,
                d.events_extracted,
                d.unregistered_dropped,
                d.if_filtered,
                d.delivered,
                r.metadata_bytes,
            ],
            violations: r.violations.len(),
            it_filtered: r.it.map_or(0, |s| s.prop_filtered),
            if_hits: r.if_stats.map_or(0, |s| s.hits),
        }
    }
}

#[derive(Debug)]
pub struct CosimFigures {
    /// Single-threaded apps (AddrCheck … detailed TaintCheck) and the
    /// multithreaded ones LockSet runs on.
    spec: Vec<App>,
    mt: Vec<App>,
    gen_secs: f64,
    /// `(lifeguard, optimized, app, report)` of the latest window.
    reports: Vec<(LifeguardKind, bool, SimReport)>,
    first: Option<Vec<Digest>>,
}

impl CosimFigures {
    fn apps(&self, kind: LifeguardKind) -> &[App] {
        if kind == LifeguardKind::LockSet {
            &self.mt
        } else {
            &self.spec
        }
    }

    fn run(&mut self, spans: &mut SpanBuf, gate: &mut Gate) -> Window {
        let mut clock = Clock::default();
        let mut reports = Vec::with_capacity(30);
        let mut records = 0u64;
        for kind in LifeguardKind::ALL {
            for optimized in [false, true] {
                let cfg =
                    if optimized { SimConfig::optimized(kind) } else { SimConfig::baseline(kind) };
                for app in self.apps(kind) {
                    let report = spans.span("sim.run_trace", || {
                        clock.time(|| {
                            Simulator::new(cfg.clone()).run_trace(
                                &app.premark,
                                None,
                                app.entries.iter().copied(),
                            )
                        })
                    });
                    records += report.timing.records;
                    gate.check(report.timing.records == app.entries.len() as u64, || {
                        format!(
                            "{} under {kind}: simulated {} of {} records",
                            app.name,
                            report.timing.records,
                            app.entries.len()
                        )
                    });
                    reports.push((kind, optimized, report));
                }
            }
        }
        // Statistics identical across reps.
        let digests: Vec<Digest> = reports.iter().map(|(_, _, r)| Digest::of(r)).collect();
        match &self.first {
            Some(first) => gate.check(*first == digests, || {
                "simulated statistics differ between two reps of the same input".to_owned()
            }),
            None => self.first = Some(digests),
        }
        self.reports = reports;
        Window { records, clock, ops_us: Vec::new() }
    }

    /// Arithmetic mean of `slowdown()` over the selected runs, as the paper
    /// averages.
    fn mean_slowdown(&self, kind: Option<LifeguardKind>, optimized: bool) -> f64 {
        let picked: Vec<f64> = self
            .reports
            .iter()
            .filter(|(k, o, _)| *o == optimized && kind.is_none_or(|want| want == *k))
            .map(|(_, _, r)| r.slowdown())
            .collect();
        picked.iter().sum::<f64>() / picked.len().max(1) as f64
    }
}

impl Workload for CosimFigures {
    fn setup(ctx: &Ctx) -> Self {
        // No chunk floor here: the simulator takes records, not batches.
        let n = ((RECORDS as f64 * ctx.scale) as u64).max(2_000);
        let started = Instant::now();
        let spec = BENCHMARKS
            .into_iter()
            .enumerate()
            .map(|(i, b)| {
                let profile = b.profile();
                App {
                    name: b.name(),
                    premark: profile.premark_regions(),
                    entries: TraceGen::new(profile, n, ctx.seed ^ i as u64).collect(),
                }
            })
            .collect();
        let mt = MT_BENCHMARKS
            .into_iter()
            .map(|b| {
                let gen = b.trace(n);
                App { name: b.name(), premark: gen.premark_regions(), entries: gen.collect() }
            })
            .collect();
        let gen_secs = started.elapsed().as_secs_f64();
        CosimFigures { spec, mt, gen_secs, reports: Vec::new(), first: None }
    }

    fn threads(&self, _host: &Host) -> String {
        "1 (closed loop, the generator thread simulates)".to_owned()
    }

    fn window(&mut self, _ctx: &Ctx, gate: &mut Gate) -> Window {
        self.run(&mut SpanBuf::off(), gate)
    }

    fn traced_window(&mut self, _ctx: &Ctx, t: &mut Tracer, gate: &mut Gate) -> Window {
        self.run(&mut t.spans, gate)
    }

    fn layers(
        &mut self,
        _ctx: &Ctx,
        _seconds: f64,
        _untraced: &[Window],
        t: &mut Tracer,
        gate: &mut Gate,
    ) {
        let m = &mut t.metrics;
        let generated: usize = self.spec.iter().chain(&self.mt).map(|a| a.entries.len()).sum();
        m.set("workload.gen_records_per_s", generated as f64 / self.gen_secs);
        for kind in LifeguardKind::ALL {
            let slug = lifeguard_slug(kind);
            let (base, accel) =
                (self.mean_slowdown(Some(kind), false), self.mean_slowdown(Some(kind), true));
            m.set(&format!("timing.slowdown.{slug}.baseline"), base);
            m.set(&format!("timing.slowdown.{slug}.accel"), accel);
            // The paper's shape: acceleration never makes a lifeguard slower.
            gate.check(accel <= base, || {
                format!("{kind}: optimized slowdown {accel:.3} exceeds baseline {base:.3}")
            });
        }
        m.set("sim_slowdown_baseline", self.mean_slowdown(None, false));
        m.set("sim_slowdown_accel", self.mean_slowdown(None, true));

        let sum = |f: &dyn Fn(&SimReport) -> u64, optimized: Option<bool>| -> f64 {
            self.reports
                .iter()
                .filter(|(_, o, _)| optimized.is_none_or(|want| want == *o))
                .map(|(_, _, r)| f(r))
                .sum::<u64>() as f64
        };
        let ratio = |n: f64, d: f64| if d == 0.0 { 0.0 } else { n / d };
        m.set(
            "timing.producer_stall_cycle_share",
            ratio(
                sum(&|r| r.timing.producer_stall_cycles, None),
                sum(&|r| r.timing.monitored_cycles, None),
            ),
        );
        m.set(
            "timing.handler_instrs_per_record",
            ratio(sum(&|r| r.timing.handler_instrs, None), sum(&|r| r.timing.records, None)),
        );
        for (on, suffix) in [(false, "off"), (true, "on")] {
            m.set(
                &format!("core.delivered_share.{suffix}"),
                ratio(
                    sum(&|r| r.dispatch.delivered, Some(on)),
                    sum(&|r| r.dispatch.events_extracted, Some(on)),
                ),
            );
        }
        m.set(
            "core.if_filtered_share",
            ratio(
                sum(&|r| r.dispatch.if_filtered, Some(true)),
                sum(&|r| r.dispatch.events_extracted, Some(true)),
            ),
        );
        m.set(
            "core.it_reduction_share",
            ratio(
                sum(&|r| r.it.map_or(0, |s| s.prop_filtered), Some(true)),
                sum(&|r| r.it.map_or(0, |s| s.prop_in), Some(true)),
            ),
        );
        m.set("lifeguards.violations", sum(&|r| r.violations.len() as u64, None));
    }
}
