//! `seq_check` and `seq_propagate`: one thread, `Monitor::observe_trace_batch`
//! over pre-built batches, every lifeguard with accelerators off and on.
//!
//! The two differ only in which lifeguards run: check-type handlers whose
//! work is shadow range operations and the IF gate, or propagation-type
//! handlers whose work is IT and register metadata. Both are the
//! single-threaded baseline the threaded workloads are reconciled against.

use crate::harness::{Clock, Ctx, Tracer, Window, Workload};
use crate::host::Host;
use crate::inputs::{scaled, Program, Tenant, Trace};
use crate::metrics::lifeguard_slug;
use crate::reference::{self, fresh_monitor, Gate, Reference};
use crate::stats;
use igm::accel::{DispatchPipeline, ItStats};
use igm::lba::{extract_batch, EventBuf};
use igm::lifeguards::{AddrCheck, CostSink, Lifeguard, LifeguardKind};
use igm::shadow::TwoLevelShadow;
use igm::workload::{Benchmark, MtBenchmark};
use std::hint::black_box;
use std::time::Instant;

/// Records per trace at `--scale 1`.
const RECORDS: u64 = 3_000_000;

/// Traced-window time per tenant-config, summed over windows.
#[derive(Debug, Clone, Copy, Default)]
struct StageTime {
    observe_ns: u64,
    dispatch_ns: u64,
    handle_ns: u64,
    records: u64,
}

/// `PROPAGATE == false` is `seq_check`, `true` is `seq_propagate`.
#[derive(Debug)]
pub struct Seq<const PROPAGATE: bool> {
    tenants: Vec<Tenant>,
    refs: Vec<Reference>,
    /// Per-chunk latency scratch, `[tenant][chunk]`, reused across windows.
    lat_us: Vec<Vec<f64>>,
    stage: Vec<StageTime>,
    it: Vec<Option<ItStats>>,
}

impl<const PROPAGATE: bool> Workload for Seq<PROPAGATE> {
    fn setup(ctx: &Ctx) -> Self {
        let n = scaled(RECORDS, ctx.scale);
        let programs: Vec<(Program, LifeguardKind)> = if PROPAGATE {
            vec![
                (Program::Spec(Benchmark::Gzip), LifeguardKind::TaintCheck),
                (Program::Spec(Benchmark::Parser), LifeguardKind::TaintCheckDetailed),
                (Program::Mt(MtBenchmark::Zchaff), LifeguardKind::LockSet),
            ]
        } else {
            vec![
                (Program::Spec(Benchmark::Gcc), LifeguardKind::AddrCheck),
                (Program::Spec(Benchmark::Mcf), LifeguardKind::MemCheck),
            ]
        };
        let mut tenants = Vec::new();
        for (index, (program, kind)) in programs.into_iter().enumerate() {
            let trace = Trace::generate(program, n, ctx.seed, index as u64);
            tenants.push(Tenant::new(&trace, kind, false));
            tenants.push(Tenant::new(&trace, kind, true));
        }
        let refs: Vec<Reference> = tenants.iter().map(reference::for_tenant).collect();
        let lat_us = tenants.iter().map(|t| vec![0.0; t.trace.batches.len()]).collect();
        let configs = tenants.len();
        Seq {
            tenants,
            refs,
            lat_us,
            stage: vec![StageTime::default(); configs],
            it: vec![None; configs],
        }
    }

    fn threads(&self, _host: &Host) -> String {
        "1 (closed loop, the generator thread monitors)".to_owned()
    }

    fn window(&mut self, _ctx: &Ctx, gate: &mut Gate) -> Window {
        let mut clock = Clock::default();
        let mut records = 0u64;
        for (ci, t) in self.tenants.iter().enumerate() {
            let mut monitor = fresh_monitor(t.kind, &t.accel, &t.trace.premark);
            let lat = &mut self.lat_us[ci];
            clock.time(|| {
                for (i, batch) in t.trace.batches.iter().enumerate() {
                    let started = Instant::now();
                    monitor.observe_trace_batch(batch);
                    lat[i] = started.elapsed().as_nanos() as f64 / 1e3;
                }
            });
            records += t.records();
            let want = &self.refs[ci];
            gate.check(
                monitor.violations() == want.violations.as_slice()
                    && monitor.dispatch_stats() == &want.dispatch,
                || format!("{}: window differs from the set-up reference", t.name),
            );
        }
        // Unit operation: one transport chunk, pooled over the configs by
        // geometric mean so the slowest lifeguard does not decide it alone.
        let chunks = self.lat_us.iter().map(Vec::len).min().unwrap_or(0);
        let ops_us = (0..chunks)
            .map(|i| stats::geomean(&self.lat_us.iter().map(|l| l[i]).collect::<Vec<_>>()))
            .collect();
        Window { records, clock, ops_us }
    }

    fn traced_window(&mut self, _ctx: &Ctx, t: &mut Tracer, gate: &mut Gate) -> Window {
        let mut clock = Clock::default();
        let mut records = 0u64;
        for (ci, tenant) in self.tenants.iter().enumerate() {
            // The parts `Monitor` is made of, driven one public call at a
            // time so each gets its own span.
            let mut lifeguard = tenant.kind.build_any(&tenant.accel);
            lifeguard.set_synthetic_workload_mode(true);
            for (base, len) in &tenant.trace.premark {
                lifeguard.premark_region(*base, *len);
            }
            let masked = tenant.kind.mask_config(&tenant.accel);
            let mut pipeline = DispatchPipeline::new(lifeguard.etct(), &masked);
            let mut events = EventBuf::new();
            let mut cost = CostSink::new();
            let first_span = t.spans.spans().len();
            clock.time(|| {
                for batch in &tenant.trace.batches {
                    let observe = t.spans.enter("sim.observe_batch");
                    let dispatch = t.spans.enter("core.dispatch_batch");
                    pipeline.dispatch_batch(batch, &mut events);
                    t.spans.exit(dispatch);
                    cost.clear();
                    let handle = t.spans.enter("lifeguards.handle_batch");
                    lifeguard.handle_batch(events.events(), &mut cost);
                    t.spans.exit(handle);
                    t.spans.exit(observe);
                }
            });
            records += tenant.records();
            let acc = &mut self.stage[ci];
            acc.records += tenant.records();
            for s in &t.spans.spans()[first_span..] {
                match s.name {
                    "sim.observe_batch" => acc.observe_ns += s.duration_ns(),
                    "core.dispatch_batch" => acc.dispatch_ns += s.duration_ns(),
                    _ => acc.handle_ns += s.duration_ns(),
                }
            }
            self.it[ci] = pipeline.it_stats().copied();
            let want = &self.refs[ci];
            gate.check(
                lifeguard.violations() == want.violations.as_slice()
                    && pipeline.stats() == &want.dispatch,
                || format!("{}: stage-driven window differs from the reference", tenant.name),
            );
        }
        Window { records, clock, ops_us: Vec::new() }
    }

    fn layers(
        &mut self,
        _ctx: &Ctx,
        seconds: f64,
        _untraced: &[Window],
        t: &mut Tracer,
        _gate: &mut Gate,
    ) {
        let m = &mut t.metrics;
        let rate =
            |records: u64, ns: u64| if ns == 0 { 0.0 } else { records as f64 * 1e9 / ns as f64 };

        // Per-stage rates out of the traced windows.
        for on in [false, true] {
            let (mut records, mut ns) = (0u64, 0u64);
            for (tenant, s) in self.tenants.iter().zip(&self.stage) {
                if tenant.accel_on == on {
                    records += s.records;
                    ns += s.dispatch_ns;
                }
            }
            let suffix = if on { "on" } else { "off" };
            m.set(&format!("core.dispatch_records_per_s.{suffix}"), rate(records, ns));
        }
        for (tenant, s) in self.tenants.iter().zip(&self.stage) {
            let slug = lifeguard_slug(tenant.kind);
            let suffix = if tenant.accel_on { "on" } else { "off" };
            m.set(
                &format!("sim.tenant_records_per_s.{slug}.{suffix}"),
                rate(s.records, s.observe_ns),
            );
        }
        for pair in self.tenants.chunks(2).zip(self.stage.chunks(2)) {
            let (tenants, stages) = pair;
            let records: u64 = stages.iter().map(|s| s.records).sum();
            let ns: u64 = stages.iter().map(|s| s.handle_ns).sum();
            m.set(
                &format!("lifeguards.handle_records_per_s.{}", lifeguard_slug(tenants[0].kind)),
                rate(records, ns),
            );
        }

        // Exact counts, from the references and the accelerator units.
        for on in [false, true] {
            let (mut delivered, mut extracted, mut filtered) = (0u64, 0u64, 0u64);
            for (tenant, r) in self.tenants.iter().zip(&self.refs) {
                if tenant.accel_on == on {
                    delivered += r.dispatch.delivered;
                    extracted += r.dispatch.events_extracted;
                    filtered += r.dispatch.if_filtered;
                }
            }
            let suffix = if on { "on" } else { "off" };
            let share = |n: u64| if extracted == 0 { 0.0 } else { n as f64 / extracted as f64 };
            m.set(&format!("core.delivered_share.{suffix}"), share(delivered));
            if on {
                m.set("core.if_filtered_share", share(filtered));
            }
        }
        let (prop_in, prop_filtered) = self
            .it
            .iter()
            .flatten()
            .fold((0u64, 0u64), |(a, b), s| (a + s.prop_in, b + s.prop_filtered));
        m.set(
            "core.it_reduction_share",
            if prop_in == 0 { 0.0 } else { prop_filtered as f64 / prop_in as f64 },
        );
        m.set(
            "lifeguards.violations",
            self.refs.iter().map(|r| r.violations.len() as f64).sum::<f64>(),
        );
        m.set(
            "lifeguards.accel_violation_delta",
            self.refs
                .chunks(2)
                .map(|p| (p[0].violations.len() as f64 - p[1].violations.len() as f64).abs())
                .sum::<f64>(),
        );

        let traces: Vec<_> = self.tenants.iter().step_by(2).map(|t| &t.trace).collect();
        let records: u64 = traces.iter().map(|t| t.records).sum();
        let gen: f64 = traces.iter().map(|t| t.gen_secs).sum();
        m.set("workload.gen_records_per_s", records as f64 / gen);

        // Isolated passes over the same batches: extraction alone, then the
        // shadow range operations over the first trace's address column.
        let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
        let mut events = EventBuf::new();
        let mut extract_rates = Vec::new();
        let mut extracted = 0u64;
        while extract_rates.len() < 3 || Instant::now() < deadline {
            let span = t.spans.enter("lba.extract_batch");
            let started = Instant::now();
            extracted = 0;
            for trace in &traces {
                for batch in &trace.batches {
                    extract_batch(batch, &mut events);
                    extracted += black_box(&events).len() as u64;
                }
            }
            extract_rates.push(records as f64 / started.elapsed().as_secs_f64());
            t.spans.exit(span);
            if extract_rates.len() >= 40 {
                break;
            }
        }
        t.metrics.set("lba.extract_records_per_s", stats::median(&extract_rates));
        t.metrics.set("lba.events_per_record", extracted as f64 / records as f64);

        let mut shadow = TwoLevelShadow::new(AddrCheck::layout(), 0);
        let (mut update_rates, mut test_rates) = (Vec::new(), Vec::new());
        let ops: u64 = traces[0].batches.iter().map(|b| b.addrs().len() as u64).sum();
        for _ in 0..5 {
            let span = t.spans.enter("shadow.update_range");
            let started = Instant::now();
            for batch in &traces[0].batches {
                for addr in batch.addrs() {
                    shadow.packed_update_range(*addr, 4, 1, 0);
                }
            }
            update_rates.push(ops as f64 / started.elapsed().as_secs_f64());
            t.spans.exit(span);
            let span = t.spans.enter("shadow.test_range");
            let started = Instant::now();
            let mut hits = 0u64;
            for batch in &traces[0].batches {
                for addr in batch.addrs() {
                    hits += shadow.packed_test_all(*addr, 4, 1) as u64;
                }
            }
            black_box(hits);
            test_rates.push(ops as f64 / started.elapsed().as_secs_f64());
            t.spans.exit(span);
        }
        t.metrics.set("shadow.update_ops_per_s", stats::median(&update_rates));
        t.metrics.set("shadow.test_ops_per_s", stats::median(&test_rates));
        t.metrics.set("shadow.metadata_mb", shadow.metadata_bytes() as f64 / 1e6);
    }
}
