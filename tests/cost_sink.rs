//! Handler cost accounting is discardable without being observable.
//!
//! `Simulator` hands the lifeguards a recording `CostSink` and feeds what
//! it collects to the timing model; `Monitor` (like the pool's sessions)
//! hands them a discarding one. On the same generated benchmark traces —
//! wide address spaces, so many shadow chunks are first-touched — both
//! must reach the same violations, the same `DispatchStats` and the same
//! metadata footprint, for all five lifeguards under the baseline and the
//! optimized configuration; and what the recording sink collects must stay
//! what it was before the discarding kind existed, pinned here through the
//! simulated statistics it drives.

use igm::isa::{Annotation, CtrlOp, JumpTarget, MemRef, OpClass, Reg, TraceEntry};
use igm::lifeguards::{Lifeguard, LifeguardKind};
use igm::sim::{Monitor, SimConfig, SimReport, Simulator};
use igm::workload::{Benchmark, MtBenchmark};

const N: u64 = 30_000;

/// Bugs appended to every trace so the verdict comparison is not vacuous:
/// an access to unallocated memory (AddrCheck, MemCheck), a jump through a
/// register loaded from an input buffer (both TaintChecks) and two threads
/// writing one fresh word with no lock held (LockSet).
fn planted() -> Vec<TraceEntry> {
    let racy = MemRef::word(0xb000_0000);
    vec![
        TraceEntry::op(0x7000, OpClass::MemToReg { src: MemRef::word(0xdead_0000), rd: Reg::Edx }),
        TraceEntry::annot(0x7004, Annotation::Malloc { base: 0x6000_0000, size: 64 }),
        TraceEntry::annot(0x7008, Annotation::ReadInput { base: 0x6000_0000, len: 16 }),
        TraceEntry::op(0x700c, OpClass::MemToReg { src: MemRef::word(0x6000_0000), rd: Reg::Eax }),
        TraceEntry::ctrl(0x7010, CtrlOp::Indirect { target: JumpTarget::Reg(Reg::Eax) }),
        TraceEntry::annot(0x7014, Annotation::ThreadSwitch { tid: 0 }),
        TraceEntry::op(0x7018, OpClass::ImmToMem { dst: racy }),
        TraceEntry::annot(0x701c, Annotation::ThreadSwitch { tid: 1 }),
        TraceEntry::op(0x7020, OpClass::ImmToMem { dst: racy }),
    ]
}

/// The trace and loader regions `kind` is studied on.
fn workload(kind: LifeguardKind) -> (Vec<TraceEntry>, Vec<(u32, u32)>) {
    if kind == LifeguardKind::LockSet {
        let gen = MtBenchmark::WaterNq.trace(N);
        let premark = gen.premark_regions();
        (gen.chain(planted()).collect(), premark)
    } else {
        let b = Benchmark::Gcc;
        (b.trace(N).chain(planted()).collect(), b.profile().premark_regions())
    }
}

/// Annotation-dense traffic: a `Malloc`, `ReadInput`, `Lock` or `Unlock`
/// every third record, between loads, stores and register moves over the
/// blocks they name — any transport chunk of it crosses dozens of IT
/// flushes and whole-filter IF invalidations, and the range handlers run
/// on unaligned, overlapping blocks. Ends with the planted bugs.
fn annotation_dense() -> Vec<TraceEntry> {
    const BLOCK: u32 = 0x6100_0000;
    let mut trace = Vec::new();
    for i in 0..4_000u32 {
        let pc = 0x8000 + 4 * i;
        let base = BLOCK + 24 * (i % 64) + i % 3;
        let m = MemRef::word(base + 4 * (i % 5));
        trace.push(match i % 12 {
            0 => TraceEntry::annot(pc, Annotation::Malloc { base, size: 40 + i % 7 }),
            3 => TraceEntry::annot(pc, Annotation::ReadInput { base: base + 2, len: 9 + i % 5 }),
            6 => TraceEntry::annot(pc, Annotation::Lock { lock: 0x200 + i % 2 }),
            9 => TraceEntry::annot(pc, Annotation::Unlock { lock: 0x200 + i % 2 }),
            1 | 7 => TraceEntry::op(pc, OpClass::MemToReg { src: m, rd: Reg::Eax }),
            2 | 8 => TraceEntry::op(pc, OpClass::RegToReg { rs: Reg::Eax, rd: Reg::Ecx }),
            4 | 10 => TraceEntry::op(pc, OpClass::RegToMem { rs: Reg::Ecx, dst: m }),
            5 => TraceEntry::op(pc, OpClass::DestRegOpMem { src: m, rd: Reg::Edx }),
            _ => TraceEntry::op(pc, OpClass::ImmToMem { dst: m }),
        });
    }
    trace.extend(planted());
    trace
}

fn configs(kind: LifeguardKind) -> [SimConfig; 2] {
    [SimConfig::baseline(kind), SimConfig::optimized(kind)]
}

fn simulate(cfg: &SimConfig, trace: &[TraceEntry], premark: &[(u32, u32)]) -> SimReport {
    Simulator::new(cfg.clone()).run_trace(premark, None, trace.iter().copied())
}

#[test]
fn discarding_and_recording_sinks_reach_the_same_verdicts() {
    for kind in LifeguardKind::ALL {
        for (trace, premark) in [workload(kind), (annotation_dense(), Vec::new())] {
            for cfg in configs(kind) {
                let recorded = simulate(&cfg, &trace, &premark);
                assert!(recorded.timing.handler_instrs > 0, "{kind}: the simulator records costs");

                let mut lifeguard = kind.build_any(&cfg.accel);
                lifeguard.set_synthetic_workload_mode(true);
                for (base, len) in &premark {
                    lifeguard.premark_region(*base, *len);
                }
                let mut monitor = Monitor::new(lifeguard, &cfg.accel);
                monitor.observe_all(trace.iter().copied());

                let label = cfg.accel.label();
                assert!(
                    !recorded.violations.is_empty(),
                    "{kind} / {label}: planted bugs must fire"
                );
                assert_eq!(monitor.violations(), &recorded.violations[..], "{kind} / {label}");
                assert_eq!(monitor.dispatch_stats(), &recorded.dispatch, "{kind} / {label}");
                assert_eq!(
                    monitor.lifeguard().metadata_bytes(),
                    recorded.metadata_bytes,
                    "{kind} / {label}: metadata footprint"
                );
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
        for (cfg, want) in configs(kind).into_iter().zip(pinned) {
            let t = simulate(&cfg, &trace, &premark).timing;
            assert_eq!(
                (t.handler_instrs, t.monitored_cycles),
                want,
                "{kind} / {}",
                cfg.accel.label()
            );
        }
    }
}
