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
//!
//! `Simulator::run_trace` handles a whole chunk's events in one
//! `handle_batch` on one thread, while a second splits the cost per record
//! at the sink's marks and steps the timing model. Both halves are held
//! to the one-thread loop they replaced: the marks split into exactly what
//! a `handle_batch` per record charges, and at every chunk and queue
//! boundary the report equals the per-record loop's, kept here as the
//! oracle.

mod common;

use common::strategies::{assert_matches_monitor, simulated};
use common::{annotation_dense, planted_bugs};
use igm::accel::DispatchPipeline;
use igm::isa::TraceEntry;
use igm::lba::{chunks, EventBuf, TraceBatch};
use igm::lifeguards::{AnyLifeguard, CostSink, Lifeguard, LifeguardKind};
use igm::runtime::SessionConfig;
use igm::sim::{SimConfig, SimReport, Simulator};
use igm::timing::CoSim;
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

/// `cfg`'s lifeguard, set up as `Simulator::run_trace` sets it up, and its
/// dispatch pipeline.
fn front(cfg: &SimConfig, premark: &[(u32, u32)]) -> (AnyLifeguard, DispatchPipeline) {
    let mut lifeguard = cfg.lifeguard.build_any(&cfg.accel);
    lifeguard.set_synthetic_workload_mode(true);
    for &(base, len) in premark {
        lifeguard.premark_region(base, len);
    }
    let pipeline = DispatchPipeline::new(lifeguard.etct(), &cfg.accel);
    (lifeguard, pipeline)
}

#[test]
fn cost_marks_split_a_batch_into_per_record_costs() {
    let gzip = Benchmark::Gzip;
    let zchaff = MtBenchmark::Zchaff.trace(N);
    let zchaff_premark = zchaff.premark_regions();
    let traces = [
        ("annotation-dense", annotation_dense(), Vec::new()),
        ("gzip", gzip.trace(N).collect(), gzip.profile().premark_regions()),
        ("zchaff", zchaff.collect(), zchaff_premark),
    ];
    for kind in LifeguardKind::ALL {
        for cfg in [SimConfig::baseline(kind), SimConfig::optimized(kind)] {
            for (name, trace, premark) in &traces {
                let at = |record: usize| {
                    format!("{kind} / {} / {name}: record {record}", cfg.accel.label())
                };
                let (mut batched, mut pipeline) = front(&cfg, premark);
                let (mut per_record, _) = front(&cfg, premark);
                let (mut events, mut cost, mut one) =
                    (EventBuf::new(), CostSink::new(), CostSink::new());
                for (c, chunk) in trace.chunks(1_024).enumerate() {
                    // Dispatch never reads lifeguard state: one sweep feeds both.
                    pipeline.dispatch_batch(&TraceBatch::from_entries(chunk), &mut events);
                    cost.clear();
                    batched.handle_batch(events.events(), &mut cost);
                    assert_eq!(cost.marks().len(), events.len(), "{}", at(c * 1_024));
                    let total = (cost.instrs(), cost.mem_vas().len() as u32);
                    let mark = |event: usize| cost.marks().get(event).copied().unwrap_or(total);
                    let mut end = 0;
                    for (r, evs) in events.record_slices().enumerate() {
                        one.clear();
                        per_record.handle_batch(evs, &mut one);
                        let (from, to) = (mark(end), mark(end + evs.len()));
                        end += evs.len();
                        assert_eq!(to.0 - from.0, one.instrs(), "{}", at(c * 1_024 + r));
                        let mem_vas = &cost.mem_vas()[from.1 as usize..to.1 as usize];
                        assert_eq!(mem_vas, one.mem_vas(), "{}", at(c * 1_024 + r));
                    }
                }
                assert_eq!(batched.violations(), per_record.violations(), "{}", at(trace.len()));
            }
        }
    }
}

/// What `Simulator::run_trace` computed on one thread before it had two
/// stages: ≈ 1 k-byte chunks, one `handle_batch` per record, and the
/// co-simulator stepped right after it.
fn one_thread_run(cfg: &SimConfig, premark: &[(u32, u32)], trace: &[TraceEntry]) -> SimReport {
    let (mut lifeguard, mut pipeline) = front(cfg, premark);
    let mut cosim = CoSim::new(cfg.system);
    let (mut events, mut cost) = (EventBuf::new(), CostSink::new());
    let mut chunker = chunks(trace.iter().copied(), 1_024);
    let mut batch = TraceBatch::new();
    while chunker.next_into_batch(&mut batch) {
        pipeline.dispatch_batch(&batch, &mut events);
        for (entry, evs) in batch.iter().zip(events.record_slices()) {
            cost.clear();
            lifeguard.handle_batch(evs, &mut cost);
            cosim.step_record(&entry, evs.len() as u32, cost.instrs(), cost.mem_vas());
        }
    }
    SimReport {
        lifeguard: cfg.lifeguard,
        accel: cfg.accel,
        benchmark: None,
        timing: cosim.finish(),
        dispatch: pipeline.stats().clone(),
        it: pipeline.it_stats().copied(),
        if_stats: pipeline.if_stats().copied(),
        violations: lifeguard.take_violations(),
        metadata_bytes: lifeguard.metadata_bytes(),
    }
}

#[test]
fn two_stage_runs_equal_the_one_thread_loop_at_every_boundary() {
    // `run_trace` chunks 1,024 records and queues two chunks between its
    // stages: around one chunk, two, a full pipeline (two queued, one
    // replaying, one being filled) and well past it.
    const LENGTHS: [usize; 12] =
        [0, 1, 1_023, 1_024, 1_025, 2_047, 2_048, 2_049, 4_095, 4_096, 4_097, 12_305];
    for kind in LifeguardKind::ALL {
        let (mut trace, premark) = workload(kind);
        // The planted bugs first, so that every prefix past them reports.
        trace.splice(0..0, planted_bugs());
        for cfg in [SimConfig::baseline(kind), SimConfig::optimized(kind)] {
            for len in LENGTHS {
                let at = format!("{kind} / {} / {len} records", cfg.accel.label());
                let want = one_thread_run(&cfg, &premark, &trace[..len]);
                let got = Simulator::new(cfg.clone()).run_trace(
                    &premark,
                    None,
                    trace[..len].iter().copied(),
                );
                assert_eq!(got.timing.records, len as u64, "{at}");
                assert_eq!(got.timing, want.timing, "{at}");
                assert_eq!(got.dispatch, want.dispatch, "{at}");
                assert_eq!(got.it, want.it, "{at}");
                assert_eq!(got.if_stats, want.if_stats, "{at}");
                assert_eq!(got.violations, want.violations, "{at}");
                assert_eq!(got.metadata_bytes, want.metadata_bytes, "{at}");
                assert_eq!(
                    (got.lifeguard, got.accel.label()),
                    (want.lifeguard, want.accel.label()),
                    "{at}"
                );
            }
        }
    }
}

#[test]
#[should_panic(expected = "the trace source failed")]
fn a_panicking_trace_source_ends_both_stages() {
    let (trace, premark) = workload(LifeguardKind::MemCheck);
    let failing = trace.into_iter().enumerate().map(|(i, e)| {
        assert!(i < 5_000, "the trace source failed");
        e
    });
    Simulator::new(SimConfig::baseline(LifeguardKind::MemCheck)).run_trace(&premark, None, failing);
}
