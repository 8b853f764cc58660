//! Handler cost accounting is discardable without being observable.
//!
//! `Simulator` hands the lifeguards a recording `CostSink` and feeds what
//! it collects to the timing model; `Monitor` (like the pool's sessions)
//! hands them a discarding one. On generated benchmark traces (wide
//! address spaces, so many shadow chunks are first-touched) and on
//! annotation-dense traffic, both reach the same verdicts, `DispatchStats`
//! and metadata footprint under the baseline and the optimized
//! configuration (the `simulator` strategy of `tests/equivalence.rs`);
//! and what the recording sink collects must stay what it was before the
//! discarding kind existed, pinned here through the simulated statistics
//! it drives.

mod common;

use common::strategies::{assert_matches_monitor, simulated};
use common::{annotation_dense, planted_bugs};
use igm::isa::TraceEntry;
use igm::lifeguards::LifeguardKind;
use igm::runtime::SessionConfig;
use igm::sim::{SimConfig, Simulator};
use igm::workload::{Benchmark, MtBenchmark};

const N: u64 = 30_000;

/// The trace and loader regions `kind` is studied on.
fn workload(kind: LifeguardKind) -> (Vec<TraceEntry>, Vec<(u32, u32)>) {
    if kind == LifeguardKind::LockSet {
        let gen = MtBenchmark::WaterNq.trace(N);
        let premark = gen.premark_regions();
        (gen.chain(planted_bugs()).collect(), premark)
    } else {
        let b = Benchmark::Gcc;
        (b.trace(N).chain(planted_bugs()).collect(), b.profile().premark_regions())
    }
}

#[test]
fn discarding_and_recording_sinks_reach_the_same_verdicts() {
    for kind in LifeguardKind::ALL {
        for (trace, premark) in [workload(kind), (annotation_dense(), Vec::new())] {
            for sim in [SimConfig::baseline(kind), SimConfig::optimized(kind)] {
                let cfg = SessionConfig::new(format!("{kind} / {}", sim.accel.label()), kind)
                    .synthetic()
                    .premark(&premark)
                    .accel(sim.accel);
                // Asserts the simulator charged handler costs.
                let recorded = simulated(&cfg, &trace);
                let want = assert_matches_monitor(&cfg, &trace, &recorded, true);
                assert!(!want.violations.is_empty(), "{}: planted bugs must fire", cfg.name);
            }
        }
    }
}

/// `(handler_instrs, monitored_cycles)` per lifeguard, baseline then
/// optimized, as the parent of the discarding sink produced them: the
/// recording sink's instruction counts and metadata references (the
/// consumer's cache behaviour depends on every address) still drive the
/// timing model to the same cycle.
const PINNED: [[(u64, u64); 2]; 5] = [
    [(171_885, 288_341), (58_392, 169_776)],
    [(339_342, 505_267), (130_314, 282_713)],
    [(130_595, 278_982), (30_275, 163_287)],
    [(205_383, 428_220), (89_416, 231_417)],
    [(1_188_130, 1_262_983), (1_096_044, 1_166_743)],
];

#[test]
fn recorded_costs_still_drive_the_timing_model_to_the_same_cycle() {
    for (kind, pinned) in LifeguardKind::ALL.into_iter().zip(PINNED) {
        let (trace, premark) = workload(kind);
        let configs = [SimConfig::baseline(kind), SimConfig::optimized(kind)];
        for (cfg, want) in configs.into_iter().zip(pinned) {
            let label = cfg.accel.label();
            let t = Simulator::new(cfg).run_trace(&premark, None, trace.iter().copied()).timing;
            assert_eq!((t.handler_instrs, t.monitored_cycles), want, "{kind} / {label}");
        }
    }
}
