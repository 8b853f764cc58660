//! Cross-crate property-based tests: arbitrary machine programs produce
//! the same lifeguard verdicts under every accelerator configuration, or a
//! stated relation to them.

use igm::accel::AccelConfig;
use igm::isa::asm::{Addressing, BinOp, ProgramBuilder, SelfOp};
use igm::isa::{Annotation, Machine, MemSize, Reg, TraceEntry};
use igm::lifeguards::{Lifeguard, MemCheck, TaintCheck, Violation};
use igm::sim::Monitor;
use proptest::prelude::*;

const HEAP: u32 = 0x0900_0000;
const STACK_TOP: u32 = 0xbfff_f000;

/// A random but well-formed instruction for the generated programs.
#[derive(Debug, Clone)]
enum Step {
    MovRI(usize, u32),
    MovRR(usize, usize),
    Load(usize, u32, u8),
    Store(u32, usize, u8),
    StoreImm(u32, u32),
    Alu(usize, usize),
    AluImm(usize),
    Movs(u32, u32),
    ReadInput(u32, u32),
    JumpReg(usize),
    /// A system call taking the register as its argument: a use point for
    /// MemCheck. Not drawn by [`arb_step`]; the MemCheck property appends
    /// one so that the lazy baseline has something to report.
    SyscallArg(usize),
}

fn arb_addr() -> impl Strategy<Value = u32> {
    (0u32..64).prop_map(|o| HEAP + o * 4)
}

fn arb_size() -> impl Strategy<Value = u8> {
    prop_oneof![Just(1u8), Just(2), Just(4)]
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0usize..6, any::<u32>()).prop_map(|(r, v)| Step::MovRI(r, v)),
        (0usize..6, 0usize..6).prop_map(|(a, b)| Step::MovRR(a, b)),
        (0usize..6, arb_addr(), arb_size()).prop_map(|(r, a, s)| Step::Load(r, a, s)),
        (arb_addr(), 0usize..6, arb_size()).prop_map(|(a, r, s)| Step::Store(a, r, s)),
        (arb_addr(), any::<u32>()).prop_map(|(a, v)| Step::StoreImm(a, v)),
        (0usize..6, 0usize..6).prop_map(|(a, b)| Step::Alu(a, b)),
        (0usize..6).prop_map(Step::AluImm),
        (arb_addr(), arb_addr()).prop_map(|(s, d)| Step::Movs(s, d)),
        (arb_addr(), 1u32..32).prop_map(|(a, l)| Step::ReadInput(a, l)),
        (0usize..6).prop_map(Step::JumpReg),
    ]
}

/// Registers used by generated code (esp/ebp excluded to keep the stack
/// discipline intact).
const REGS: [Reg; 6] = [Reg::Eax, Reg::Ecx, Reg::Edx, Reg::Ebx, Reg::Esi, Reg::Edi];

fn build_trace(steps: &[Step]) -> Vec<TraceEntry> {
    let mut p = ProgramBuilder::new(0x0804_8000);
    p.mov_ri(Reg::Esp, STACK_TOP);
    p.annot(Annotation::Malloc { base: HEAP, size: 0x200 });
    let mut jumps = 0;
    for s in steps {
        match s {
            Step::MovRI(r, v) => {
                p.mov_ri(REGS[*r], *v);
            }
            Step::MovRR(a, b) => {
                p.mov_rr(REGS[*a], REGS[*b]);
            }
            Step::Load(r, a, sz) => {
                p.load(REGS[*r], Addressing::abs(*a, MemSize::from_bytes(*sz as u32).unwrap()));
            }
            Step::Store(a, r, sz) => {
                p.store(Addressing::abs(*a, MemSize::from_bytes(*sz as u32).unwrap()), REGS[*r]);
            }
            Step::StoreImm(a, v) => {
                p.store_imm(Addressing::abs(*a, MemSize::B4), *v);
            }
            Step::Alu(a, b) => {
                p.alu_rr(BinOp::Add, REGS[*a], REGS[*b]);
            }
            Step::AluImm(r) => {
                p.alu_ri(SelfOp::XorI(0x55), REGS[*r]);
            }
            Step::Movs(s, d) => {
                p.mov_ri(Reg::Esi, *s);
                p.mov_ri(Reg::Edi, *d);
                p.movs(MemSize::B4);
            }
            Step::ReadInput(a, l) => {
                p.annot(Annotation::ReadInput { base: *a, len: *l });
            }
            Step::JumpReg(r) => {
                // Cap control-transfer attempts; the machine stops at the
                // first wild jump anyway.
                if jumps == 0 {
                    jumps += 1;
                    p.jmp_ind_reg(REGS[*r]);
                }
            }
            Step::SyscallArg(r) => {
                p.annot(Annotation::Syscall { arg_reg: Some(REGS[*r]), arg_mem: None });
            }
        }
    }
    p.halt();
    let mut m = Machine::new(p.build());
    m.feed_input(&[0xab; 256]);
    let _ = m.run();
    m.take_trace()
}

fn taint_verdicts(trace: &[TraceEntry], accel: &AccelConfig) -> Vec<Violation> {
    let mut mon = Monitor::new(TaintCheck::new(accel), accel);
    mon.observe_all(trace.iter().copied());
    mon.lifeguard_mut().take_violations()
}

fn memcheck_verdicts(trace: &[TraceEntry], accel: &AccelConfig) -> Vec<Violation> {
    let mut mon = Monitor::new(MemCheck::new(accel), accel);
    mon.lifeguard_mut().premark_region(STACK_TOP - 0x1000, 0x1000);
    mon.observe_all(trace.iter().copied());
    mon.lifeguard_mut().take_violations()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// TaintCheck verdict identities — (pc, sink) pairs — are identical
    /// for baseline and every accelerated configuration, over arbitrary
    /// programs. (The reported *source* may differ: IT names the inherited
    /// memory origin where the baseline names the register.)
    #[test]
    fn taintcheck_verdicts_invariant_under_acceleration(
        steps in proptest::collection::vec(arb_step(), 1..60)
    ) {
        let trace = build_trace(&steps);
        let identity = |vs: Vec<Violation>| -> Vec<(u32, igm::lifeguards::violation::TaintSink)> {
            vs.into_iter().map(|v| match v {
                Violation::TaintedUse { pc, sink, .. } => (pc, sink),
                other => panic!("unexpected violation {other}"),
            }).collect()
        };
        let base = identity(taint_verdicts(&trace, &AccelConfig::baseline()));
        for accel in [
            AccelConfig::lma(),
            AccelConfig::lma_it(),
            AccelConfig::full(),
        ] {
            let got = identity(taint_verdicts(&trace, &accel));
            prop_assert_eq!(&base, &got, "config {}", accel.label());
        }
    }

    /// MemCheck's *accessibility* verdicts are invariant under acceleration.
    /// Uninitialized-use verdicts are compared as presence/absence: equal
    /// under `lma`, and under the IT configurations the eager checks of the
    /// paper's §4.2 variant report whenever the lazy baseline does (they may
    /// also report where it does not: an eager check fires on an
    /// uninitialized source of a non-unary operation the baseline never
    /// uses).
    #[test]
    fn memcheck_verdicts_invariant_under_acceleration(
        steps in proptest::collection::vec(arb_step(), 1..60),
        used in 0usize..6,
    ) {
        let mut steps = steps;
        steps.push(Step::SyscallArg(used));
        let trace = build_trace(&steps);
        let split = |v: Vec<Violation>| {
            let access: Vec<Violation> = v.iter().copied()
                .filter(|x| matches!(x, Violation::UnallocatedAccess { .. })).collect();
            let uninit = v.iter().any(|x| matches!(x, Violation::UninitUse { .. }));
            (access, uninit)
        };
        let (base_access, base_uninit) = split(memcheck_verdicts(&trace, &AccelConfig::baseline()));
        for accel in [
            AccelConfig::lma(),
            AccelConfig::lma_it(),
            AccelConfig::full(),
        ] {
            let (access, uninit) = split(memcheck_verdicts(&trace, &accel));
            prop_assert_eq!(&base_access, &access, "config {}", accel.label());
            if !accel.it {
                prop_assert_eq!(base_uninit, uninit, "config {}", accel.label());
            } else {
                let label = accel.label();
                prop_assert!(!base_uninit || uninit, "config {label}: lazy reports, eager does not");
            }
        }
    }
}
