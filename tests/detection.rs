//! End-to-end bug detection: planted bugs must be caught under *every*
//! accelerator configuration — acceleration may drop redundant work but
//! never a true violation (the framework's soundness contract).

use igm::accel::{AccelConfig, ItConfig};
use igm::isa::asm::{Addressing, Cond, ProgramBuilder};
use igm::isa::{Annotation, Machine, MemSize, Reg, TraceEntry};
use igm::lifeguards::{
    AddrCheck, Lifeguard, LockSet, MemCheck, TaintCheck, TaintCheckDetailed, Violation,
};
use igm::sim::Monitor;
use igm::workload::MtBenchmark;

const STACK_TOP: u32 = 0xbfff_f000;

fn all_configs() -> Vec<AccelConfig> {
    vec![
        AccelConfig::baseline(),
        AccelConfig::lma(),
        AccelConfig::lma_if(),
        AccelConfig::lma_it(ItConfig::taint_style()),
        AccelConfig::full(ItConfig::taint_style()),
    ]
}

fn run_machine(build: impl Fn(&mut ProgramBuilder)) -> Vec<TraceEntry> {
    let mut p = ProgramBuilder::new(0x0804_8000);
    p.mov_ri(Reg::Esp, STACK_TOP);
    build(&mut p);
    p.halt();
    let mut m = Machine::new(p.build());
    m.feed_input(&[0x11; 64]);
    let _ = m.run(); // exploit traces may end in a wild jump
    m.take_trace()
}

#[test]
fn tainted_jump_detected_under_every_config() {
    let trace = run_machine(|p| {
        p.annot(Annotation::ReadInput { base: 0x0900_0000, len: 4 });
        p.load(Reg::Eax, Addressing::abs(0x0900_0000, MemSize::B4));
        p.jmp_ind_reg(Reg::Eax);
    });
    for accel in all_configs() {
        let mut mon = Monitor::new(TaintCheck::new(&accel), &accel);
        mon.observe_all(trace.iter().copied());
        assert_eq!(mon.violations().len(), 1, "config {}", accel.label());
        assert!(matches!(mon.violations()[0], Violation::TaintedUse { .. }));
    }
}

#[test]
fn taint_through_copy_chain_survives_acceleration() {
    // Input -> register -> memory -> register -> stored -> ret slot:
    // the inheritance chain crosses several IT states before the sink.
    let trace = run_machine(|p| {
        p.annot(Annotation::ReadInput { base: 0x0900_0000, len: 8 });
        p.load(Reg::Ecx, Addressing::abs(0x0900_0000, MemSize::B4));
        p.mov_rr(Reg::Edx, Reg::Ecx);
        p.store(Addressing::abs(0x0900_0100, MemSize::B4), Reg::Edx);
        p.load(Reg::Ebx, Addressing::abs(0x0900_0100, MemSize::B4));
        p.push(Reg::Ebx);
        p.ret(); // returns through the tainted stack slot
    });
    for accel in all_configs() {
        let mut mon = Monitor::new(TaintCheck::new(&accel), &accel);
        mon.observe_all(trace.iter().copied());
        assert!(
            mon.violations().iter().any(|v| matches!(v, Violation::TaintedUse { .. })),
            "config {} missed the chained taint",
            accel.label()
        );
    }
}

#[test]
fn detailed_taint_trail_consistent_across_configs() {
    let trace = run_machine(|p| {
        p.annot(Annotation::ReadInput { base: 0x0900_0000, len: 4 });
        p.load(Reg::Eax, Addressing::abs(0x0900_0000, MemSize::B4));
        p.store(Addressing::abs(0x0900_0200, MemSize::B4), Reg::Eax);
        p.annot(Annotation::Syscall {
            arg_reg: None,
            arg_mem: Some(igm::isa::MemRef::word(0x0900_0200)),
        });
    });
    let mut trails = Vec::new();
    for accel in all_configs() {
        let mut mon = Monitor::new(TaintCheckDetailed::new(&accel), &accel);
        mon.observe_all(trace.iter().copied());
        assert_eq!(mon.violations().len(), 1, "config {}", accel.label());
        trails.push(mon.lifeguard().taint_trail(0x0900_0200, 8));
    }
    // The reconstructed trail is a metadata observable: identical verdict
    // endpoints regardless of acceleration.
    for t in &trails {
        assert_eq!(t.last().map(|(a, _)| *a), Some(0x0900_0000));
    }
}

#[test]
fn memory_bugs_detected_under_every_config() {
    let trace = run_machine(|p| {
        let out = p.label();
        p.annot(Annotation::Malloc { base: 0x0900_0000, size: 32 });
        p.store_imm(Addressing::abs(0x0900_0000 + 32, MemSize::B4), 1); // OOB
        p.annot(Annotation::Free { base: 0x0900_0000 });
        p.load(Reg::Eax, Addressing::abs(0x0900_0000, MemSize::B4)); // UAF
        p.annot(Annotation::Free { base: 0x0900_0000 }); // double free
        p.annot(Annotation::Malloc { base: 0x0900_1000, size: 16 });
        p.load(Reg::Ecx, Addressing::abs(0x0900_1000, MemSize::B4));
        p.cmp_ri(Reg::Ecx, 0);
        p.jcc(Cond::Eq, out); // uninit branch input
        p.bind(out);
    });
    for accel in all_configs() {
        let mut ac = Monitor::new(AddrCheck::new(&accel), &accel);
        ac.lifeguard_mut().premark_region(STACK_TOP - 0x1000, 0x1000);
        ac.observe_all(trace.iter().copied());
        let kinds: Vec<_> = ac.violations().iter().collect();
        assert!(
            kinds.iter().any(|v| matches!(v, Violation::UnallocatedAccess { is_write: true, .. })),
            "config {}: OOB store missed",
            accel.label()
        );
        assert!(kinds.iter().any(|v| matches!(v, Violation::DoubleFree { .. })));

        let mut mc = Monitor::new(MemCheck::new(&accel), &accel);
        mc.lifeguard_mut().premark_region(STACK_TOP - 0x1000, 0x1000);
        mc.observe_all(trace.iter().copied());
        assert!(
            mc.violations().iter().any(|v| matches!(v, Violation::UninitUse { .. })),
            "config {}: uninit branch missed",
            accel.label()
        );
    }
}

#[test]
fn data_races_detected_and_clean_runs_silent_under_every_config() {
    let n = 120_000;
    let racy: Vec<TraceEntry> = MtBenchmark::Zchaff.trace_with_race(n).collect();
    let clean: Vec<TraceEntry> = MtBenchmark::Zchaff.trace(n).collect();
    let mut counts = Vec::new();
    for accel in all_configs() {
        let mut mon = Monitor::new(LockSet::new(&accel), &accel);
        mon.observe_all(clean.iter().copied());
        assert!(mon.violations().is_empty(), "config {}: false race", accel.label());

        let mut mon = Monitor::new(LockSet::new(&accel), &accel);
        mon.observe_all(racy.iter().copied());
        assert!(!mon.violations().is_empty(), "config {}: race missed", accel.label());
        counts.push(mon.violations().len());
    }
    // Acceleration must not change which races are found.
    assert!(counts.windows(2).all(|w| w[0] == w[1]), "race counts differ: {counts:?}");
}

#[test]
fn verdicts_identical_across_configs_for_taintcheck() {
    // A broader equivalence run: the full violation lists (pc, kind) must
    // match between baseline and fully accelerated configurations.
    let trace = run_machine(|p| {
        p.annot(Annotation::ReadInput { base: 0x0900_0000, len: 16 });
        p.mov_ri(Reg::Esi, 0x0900_0000);
        p.mov_ri(Reg::Edi, 0x0900_0100);
        for _ in 0..4 {
            p.movs(MemSize::B4);
        }
        p.load(Reg::Eax, Addressing::abs(0x0900_0104, MemSize::B4));
        p.jmp_ind_reg(Reg::Eax);
    });
    // The *source description* legitimately differs: the baseline names
    // the tainted register, while IT's lazy inheritance names the memory
    // location the register inherited from (strictly more informative).
    // The violation identity is (pc, sink).
    let identity = |v: &Violation| match v {
        Violation::TaintedUse { pc, sink, .. } => (*pc, *sink),
        other => panic!("unexpected violation {other}"),
    };
    let mut all: Vec<Vec<_>> = Vec::new();
    for accel in all_configs() {
        let mut mon = Monitor::new(TaintCheck::new(&accel), &accel);
        mon.observe_all(trace.iter().copied());
        all.push(mon.lifeguard_mut().take_violations().iter().map(identity).collect());
    }
    for other in &all[1..] {
        assert_eq!(&all[0], other);
    }
}

/// Decoded records are outside input: one that names the last bytes of the
/// address space — an access or a block whose end wraps to address 0 — must
/// be handled modulo 2^32 by every lifeguard, never panic a handler.
#[test]
fn records_wrapping_the_address_space_panic_no_lifeguard() {
    use igm::isa::{MemRef, OpClass};
    use igm::lifeguards::LifeguardKind;
    let top = MemRef::new(0xffff_fffe, MemSize::B4); // bytes fffe, ffff, 0, 1
    let trace = [
        TraceEntry::op(0x1000, OpClass::MemToReg { src: top, rd: Reg::Eax }),
        TraceEntry::annot(0x1008, Annotation::Malloc { base: 0xffff_f800, size: 0x1000 }),
        TraceEntry::annot(0x100c, Annotation::ReadInput { base: 0xffff_fff0, len: 0x20 }),
        TraceEntry::op(0x1010, OpClass::MemToReg { src: top, rd: Reg::Ecx }),
        TraceEntry::op(0x1014, OpClass::ImmToMem { dst: top }),
        TraceEntry::annot(0x1018, Annotation::Free { base: 0xffff_f800 }),
        TraceEntry::op(0x101c, OpClass::MemToReg { src: top, rd: Reg::Edx }),
    ];
    for kind in LifeguardKind::ALL {
        for accel in all_configs() {
            let accel = kind.mask_config(&accel);
            let mut mon = Monitor::new(kind.build_any(&accel), &accel);
            mon.observe_all(trace);
            let unallocated = mon
                .violations()
                .iter()
                .filter(|v| matches!(v, Violation::UnallocatedAccess { .. }))
                .count();
            if matches!(kind, LifeguardKind::AddrCheck | LifeguardKind::MemCheck) {
                // Flagged before the block exists and after it is freed,
                // clean while all four bytes — two at each end — are live.
                assert_eq!(unallocated, 2, "{kind} / {}: {:?}", accel.label(), mon.violations());
            }
        }
    }
}
