//! The benchmark's vocabulary: workloads, end-to-end metrics and per-layer
//! metrics, declared once here and mirrored in `/BENCHMARK.json` (a test
//! compares the two).
//!
//! A per-layer metric's layer is the crate directory its name starts with
//! (`runtime.steals` → `crates/runtime`); unprefixed per-layer names are
//! workload-specific results that have no end-to-end slot (see README).

use crate::json::{self, Json};

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One declared workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDecl {
    pub name: &'static str,
    pub why: &'static str,
}

/// One declared metric. `bound` is the share of the parent's median by
/// which an end-to-end metric may worsen before it counts as a regression
/// (per-layer metrics have none); `exact` marks values that repeat
/// bit-for-bit for one seed, which `selfcheck` compares exactly.
#[derive(Debug, Clone, Copy)]
pub struct MetricDecl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
    pub exact: bool,
}

pub const WORKLOADS: [WorkloadDecl; 7] = [
    WorkloadDecl {
        name: "seq_check",
        why: "Check-type handlers (AddrCheck, MemCheck), shadow range ops and the core gate do all the work on one thread; the baseline every threaded path is reconciled against.",
    },
    WorkloadDecl {
        name: "seq_propagate",
        why: "Propagation handlers, IT and register metadata dominate (TaintCheck, detailed tracking, LockSet); a handler or IT change must show here and leave seq_check flat.",
    },
    WorkloadDecl {
        name: "pool_tenants",
        why: "The seq handlers again, through one Ingestor thread into the default MonitorPool: the difference is runtime (channels, scheduling, stealing, epoch pipelining).",
    },
    WorkloadDecl {
        name: "net_loopback",
        why: "Cheapest handler behind two TraceForwarder connections shipping chunks on a fixed schedule, so the trace codec and the net wire and credit flow dominate; attributes the loopback tax.",
    },
    WorkloadDecl {
        name: "lake_capture_query",
        why: "Indexed capture beside open, query, neighborhood and windowed replay on the same trace and lake layer: index work moved off capture must not be paid back on the read side.",
    },
    WorkloadDecl {
        name: "paced_detect",
        why: "Open loop at a fixed record rate with one planted violation per batch: the only latency workload, timed from each batch's due time to the violation leaving the stream.",
    },
    WorkloadDecl {
        name: "cosim_figures",
        why: "The paper's own metric in simulated time (5 lifeguards, baseline and optimized, 3 benchmarks); statistics repeat exactly, so host-speed changes must leave them identical.",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDecl {
    MetricDecl { name, unit, better, bound: Some(bound), exact: false }
}

/// End-to-end metrics: every workload reports every one of them, none is
/// ever zero. What each means per workload is tabulated in the README.
pub const END_TO_END: [MetricDecl; 4] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("records_per_s", "1/s", Better::Higher, 0.25),
    e2e("op_p50_us", "us", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.15),
];

const fn rate(name: &'static str) -> MetricDecl {
    MetricDecl { name, unit: "1/s", better: Better::Higher, bound: None, exact: false }
}

const fn timed(name: &'static str, unit: &'static str) -> MetricDecl {
    MetricDecl { name, unit, better: Better::Lower, bound: None, exact: false }
}

const fn share(name: &'static str, better: Better, exact: bool) -> MetricDecl {
    MetricDecl { name, unit: "share", better, bound: None, exact }
}

const fn count(name: &'static str, exact: bool) -> MetricDecl {
    MetricDecl { name, unit: "count", better: Better::Lower, bound: None, exact }
}

const fn exact(name: &'static str, unit: &'static str) -> MetricDecl {
    MetricDecl { name, unit, better: Better::Lower, bound: None, exact: true }
}

/// Per-layer metrics, produced by the `--trace` run. A metric reads zero
/// on a workload that does not exercise its layer.
pub const PER_LAYER: [MetricDecl; 91] = [
    rate("workload.gen_records_per_s"),
    rate("lba.extract_records_per_s"),
    exact("lba.events_per_record", "count"),
    rate("core.dispatch_records_per_s.off"),
    rate("core.dispatch_records_per_s.on"),
    share("core.delivered_share.off", Better::Lower, true),
    share("core.delivered_share.on", Better::Lower, true),
    share("core.if_filtered_share", Better::Higher, true),
    share("core.it_reduction_share", Better::Higher, true),
    rate("lifeguards.handle_records_per_s.addrcheck"),
    rate("lifeguards.handle_records_per_s.memcheck"),
    rate("lifeguards.handle_records_per_s.taintcheck"),
    rate("lifeguards.handle_records_per_s.taintcheck_detailed"),
    rate("lifeguards.handle_records_per_s.lockset"),
    count("lifeguards.violations", true),
    count("lifeguards.accel_violation_delta", true),
    rate("shadow.update_ops_per_s"),
    rate("shadow.test_ops_per_s"),
    exact("shadow.metadata_mb", "MB"),
    rate("sim.tenant_records_per_s.addrcheck.off"),
    rate("sim.tenant_records_per_s.addrcheck.on"),
    rate("sim.tenant_records_per_s.memcheck.off"),
    rate("sim.tenant_records_per_s.memcheck.on"),
    rate("sim.tenant_records_per_s.taintcheck.off"),
    rate("sim.tenant_records_per_s.taintcheck.on"),
    rate("sim.tenant_records_per_s.taintcheck_detailed.off"),
    rate("sim.tenant_records_per_s.taintcheck_detailed.on"),
    rate("sim.tenant_records_per_s.lockset.off"),
    rate("sim.tenant_records_per_s.lockset.on"),
    timed("runtime.channel_hop_us", "us"),
    timed("runtime.session_open_us", "us"),
    timed("runtime.drain_ms", "ms"),
    timed("runtime.send_p50_us", "us"),
    timed("runtime.send_p99_us", "us"),
    timed("trace.ingest_pass_us", "us"),
    share("runtime.producer_stall_share", Better::Lower, false),
    count("runtime.deferred_sends", false),
    count("runtime.steals", false),
    count("runtime.parks", false),
    count("runtime.epoch_jobs", false),
    timed("runtime.overhead_ratio", "x"),
    rate("runtime.single_session_records_per_s.never"),
    rate("runtime.single_session_records_per_s.auto"),
    rate("runtime.single_session_records_per_s.always"),
    timed("runtime.detect_lag_p99_us", "us"),
    timed("runtime.detect_lag_p50_us.hi", "us"),
    share("runtime.backlog_growth_share", Better::Lower, false),
    rate("trace.encode_records_per_s"),
    rate("trace.decode_records_per_s"),
    exact("trace.bytes_per_record", "B"),
    rate("trace.encode_indexed_records_per_s"),
    exact("trace.index_bytes_per_record", "B"),
    rate("trace.scan_records_per_s"),
    rate("trace.capture_records_per_s"),
    timed("net.handshake_us", "us"),
    timed("net.fin_ms", "ms"),
    timed("net.send_p50_us", "us"),
    share("net.client_send_share", Better::Lower, false),
    share("net.credit_stall_share", Better::Lower, false),
    count("net.credit_stalls", false),
    count("net.deferred_sends", false),
    rate("net.closed_loop_records_per_s"),
    timed("net.tax_ratio", "x"),
    timed("lake.open_ms", "ms"),
    timed("lake.heal_ms", "ms"),
    timed("lake.query_us.sel1", "us"),
    timed("lake.query_us.sel10", "us"),
    timed("lake.query_us.sel100", "us"),
    timed("lake.neighborhood_us", "us"),
    share("lake.frames_skipped_share", Better::Higher, true),
    exact("timing.slowdown.addrcheck.baseline", "x"),
    exact("timing.slowdown.addrcheck.accel", "x"),
    exact("timing.slowdown.memcheck.baseline", "x"),
    exact("timing.slowdown.memcheck.accel", "x"),
    exact("timing.slowdown.taintcheck.baseline", "x"),
    exact("timing.slowdown.taintcheck.accel", "x"),
    exact("timing.slowdown.taintcheck_detailed.baseline", "x"),
    exact("timing.slowdown.taintcheck_detailed.accel", "x"),
    exact("timing.slowdown.lockset.baseline", "x"),
    exact("timing.slowdown.lockset.accel", "x"),
    share("timing.producer_stall_cycle_share", Better::Lower, true),
    exact("timing.handler_instrs_per_record", "count"),
    timed("obs.scrape_ms", "ms"),
    share("harness.trace_overhead_share", Better::Lower, false),
    share("harness.late_share", Better::Lower, false),
    timed("harness.cpu_ns_per_record", "ns"),
    exact("bytes_per_record", "B"),
    rate("replay_records_per_s"),
    exact("sim_slowdown_baseline", "x"),
    exact("sim_slowdown_accel", "x"),
    count("harness.spans_dropped", false),
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadDecl> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Looks a metric up by name in either table.
pub fn metric(name: &str) -> Option<&'static MetricDecl> {
    END_TO_END.iter().chain(PER_LAYER.iter()).find(|m| m.name == name)
}

/// Measured values keyed by declared metric name. Setting an undeclared
/// name is a harness bug and panics — the printed vocabulary can never
/// drift from the declared one.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Records `value` under `name` (replacing an earlier value).
    pub fn set(&mut self, name: &str, value: f64) {
        let decl = metric(name).unwrap_or_else(|| panic!("metric {name:?} is not declared"));
        match self.values.iter_mut().find(|(n, _)| *n == decl.name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((decl.name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The `metrics` object of a result line: every metric of `table` in
    /// declaration order, unset ones as zero.
    pub fn to_json(&self, table: &[MetricDecl]) -> Json {
        Json::Obj(
            table
                .iter()
                .map(|d| {
                    let v = self.get(d.name).unwrap_or(0.0);
                    (
                        d.name.to_owned(),
                        Json::Obj(vec![
                            ("value".to_owned(), Json::Num(v)),
                            ("unit".to_owned(), Json::Str(d.unit.to_owned())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// One line of the terminal metric listing.
pub fn render_line(decl: &MetricDecl, value: f64) -> String {
    format!("  {:<52} {:>18} {}", decl.name, json::num(value), decl.unit)
}

/// Lowercase metric-name suffix of a lifeguard (`taintcheck_detailed`).
pub fn lifeguard_slug(kind: igm::lifeguards::LifeguardKind) -> &'static str {
    use igm::lifeguards::LifeguardKind::*;
    match kind {
        AddrCheck => "addrcheck",
        MemCheck => "memcheck",
        TaintCheck => "taintcheck",
        TaintCheckDetailed => "taintcheck_detailed",
        LockSet => "lockset",
    }
}
