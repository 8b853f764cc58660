//! MemCheck: AddrCheck plus detection of uninitialized-value use (Table 1).
//!
//! Metadata is two bits per application byte — *accessible* and
//! *initialized* — in one two-level shadow map (1-byte elements covering 4
//! application bytes, exactly the packing of paper §7.1), plus a per-byte
//! initialized mask per register.
//!
//! A load of an uninitialized value is not itself an error; MemCheck
//! propagates initialized state and flags *uses*: base/index registers of
//! address computations, conditional-test inputs and system-call arguments.
//! Under Inheritance Tracking the paper's *eager* variant additionally
//! checks the sources of non-unary operations (delivered as
//! `CheckNonUnary` events by the IT hardware) and treats their destinations
//! as initialized — the same handlers serve both modes, because the
//! baseline simply never receives eager check events.
//!
//! The Idempotent Filter caches only the *accessibility* checks (loads and
//! stores, one shared check category); initialized-state checks depend on
//! propagation and are not cacheable (see `DESIGN.md`).

use crate::allocs::Allocs;
use crate::cost::{CostSink, MetaMap};
use crate::violation::{Reporting, Reports, SourceDesc, Violation};
use crate::{fields, Lifeguard, LifeguardKind, Row, PLAIN};
use igm_core::AccelConfig;
use igm_isa::{Annotation, MemRef, OpClass, Reg};
use igm_lba::{DeliveredEvent, Event, EventType, IfEventConfig, MetaSource};
use igm_shadow::layout::ElemSize;
use igm_shadow::{RegMeta, ShadowLayout, TwoLevelShadow};

/// Accessible bit within the 2-bit packed metadata.
const A_BIT: u8 = 0b01;
/// Initialized bit within the 2-bit packed metadata.
const I_BIT: u8 = 0b10;
/// Fully valid: accessible and initialized.
const AI: u8 = 0b11;

/// The MemCheck lifeguard.
#[derive(Debug, Clone)]
pub struct MemCheck {
    meta: MetaMap,
    /// Per-register initialized mask: bit i set = byte i initialized.
    regs: RegMeta<u8>,
    /// The malloc/free record list.
    allocs: Allocs,
    violations: Reports,
    /// Treat `malloc` as `calloc` (initialize on allocation). Used by the
    /// synthetic-workload harness so that statistically generated reads do
    /// not trip uninitialized-use reports; detection examples leave it off.
    assume_calloc: bool,
}

impl MemCheck {
    /// Two metadata bits per application byte: 1-byte elements covering 4
    /// application bytes (the paper's §7.1 packing).
    pub fn layout() -> ShadowLayout {
        ShadowLayout::for_coverage(12, 4, ElemSize::B1).expect("constant layout is valid")
    }

    /// Builds MemCheck under `cfg`.
    pub fn new(cfg: &AccelConfig) -> MemCheck {
        MemCheck {
            meta: MetaMap::new(TwoLevelShadow::new(Self::layout(), 0), cfg.lma),
            regs: RegMeta::new(0xf), // registers are defined at program start
            allocs: Allocs::default(),
            violations: Reports::default(),
            assume_calloc: false,
        }
    }

    /// The shadow map behind the accessible/initialized bits (for space
    /// studies: what the lifeguard has mapped against what the host backs).
    pub fn shadow(&self) -> &TwoLevelShadow {
        self.meta.shadow()
    }

    /// Reports still-live blocks as leaks.
    pub fn report_leaks(&mut self) {
        self.allocs.report_leaks(&mut self.violations);
    }

    /// Whether every byte of `m` has `bit` set: one packed load.
    #[inline]
    fn range_all(&self, m: MemRef, bit: u8) -> bool {
        let n = m.size.bytes();
        let want = fields::every(bit, n);
        self.meta.shadow().packed_load(m.addr, n) & want == want
    }

    fn set_bits_range(&mut self, base: u32, len: u32, set: u8, clear: u8) {
        self.meta.shadow_mut().packed_update_range(base, len, set, clear);
    }

    fn check_accessible(&mut self, pc: u32, mref: MemRef, is_write: bool, cost: &mut CostSink) {
        let va = self.meta.map(mref.addr, cost);
        // Load, bit-offset compute, extract, compare, branch.
        cost.instr(5);
        cost.mem(va);
        if !self.range_all(mref, A_BIT) {
            self.violations.push(Violation::UnallocatedAccess { pc, mref, is_write });
        }
    }

    fn check_reg_init(&mut self, pc: u32, r: Reg, cost: &mut CostSink) {
        cost.instr(3);
        cost.mem(self.regs.va(r.index()));
        if self.regs.get(r.index()) != 0xf {
            self.violations.push(Violation::UninitUse { pc, source: SourceDesc::Reg(r.index()) });
            // Avoid cascading reports from the same value (paper §4.2).
            self.regs.set(r.index(), 0xf);
        }
    }

    fn check_mem_init(&mut self, pc: u32, m: MemRef, cost: &mut CostSink) {
        let va = self.meta.map(m.addr, cost);
        cost.instr(3);
        cost.mem(va);
        if !self.range_all(m, I_BIT) {
            self.violations.push(Violation::UninitUse { pc, source: SourceDesc::Mem(m) });
            self.set_bits_range(m.addr, m.size.bytes(), I_BIT, 0);
        }
    }

    /// Per-byte initialized mask of a memory range (bit i = byte i), bytes
    /// beyond the range read as initialized (zero-extension).
    #[inline]
    fn mem_mask(&self, m: MemRef) -> u8 {
        let n = m.size.bytes();
        let loaded = self.meta.shadow().packed_load(m.addr, n);
        fields::gather(loaded >> I_BIT.trailing_zeros()) | (0xf << n) & 0xf
    }

    /// Sets byte `i`'s initialized bit to bit `i` of `mask`, accessibility
    /// untouched. Every byte of `m` is written (and its chunk allocated)
    /// whether or not its bit changes.
    #[inline]
    fn write_mask_to_mem(&mut self, m: MemRef, mask: u8) {
        let n = m.size.bytes();
        let all = fields::every(I_BIT, n);
        let set = (fields::spread(mask) << I_BIT.trailing_zeros()) & all;
        self.meta.shadow_mut().packed_update(m.addr, n, set, all & !set);
    }

    fn handle_prop(&mut self, op: &OpClass, cost: &mut CostSink) {
        match *op {
            OpClass::ImmToReg { rd } => {
                cost.instr(1);
                cost.mem(self.regs.va(rd.index()));
                self.regs.set(rd.index(), 0xf);
            }
            OpClass::ImmToMem { dst } => {
                let va = self.meta.map(dst.addr, cost);
                cost.instr(2);
                cost.mem(va);
                self.set_bits_range(dst.addr, dst.size.bytes(), I_BIT, 0);
            }
            OpClass::RegSelf { .. } | OpClass::MemSelf { .. } | OpClass::ReadOnly { .. } => {
                cost.instr(1);
            }
            OpClass::RegToReg { rs, rd } => {
                cost.instr(2);
                cost.mem(self.regs.va(rs.index()));
                cost.mem(self.regs.va(rd.index()));
                let m = self.regs.get(rs.index());
                self.regs.set(rd.index(), m);
            }
            OpClass::RegToMem { rs, dst } => {
                let va = self.meta.map(dst.addr, cost);
                cost.instr(3);
                cost.mem(self.regs.va(rs.index()));
                cost.mem(va);
                let mask = self.regs.get(rs.index());
                self.write_mask_to_mem(dst, mask);
            }
            OpClass::MemToReg { src, rd } => {
                let va = self.meta.map(src.addr, cost);
                cost.instr(3);
                cost.mem(va);
                cost.mem(self.regs.va(rd.index()));
                let mask = self.mem_mask(src);
                self.regs.set(rd.index(), mask);
            }
            OpClass::MemToMem { src, dst } => {
                let sva = self.meta.map(src.addr, cost);
                let dva = self.meta.map(dst.addr, cost);
                cost.instr(4);
                cost.mem(sva);
                cost.mem(dva);
                let mask = self.mem_mask(src);
                self.write_mask_to_mem(dst, mask);
            }
            OpClass::DestRegOpReg { rs, rd } => {
                // Generic (lazy) propagation: result defined iff both
                // sources fully defined.
                cost.instr(3);
                cost.mem(self.regs.va(rs.index()));
                cost.mem(self.regs.va(rd.index()));
                let full = self.regs.get(rs.index()) == 0xf && self.regs.get(rd.index()) == 0xf;
                self.regs.set(rd.index(), if full { 0xf } else { 0 });
            }
            OpClass::DestRegOpMem { src, rd } => {
                let va = self.meta.map(src.addr, cost);
                cost.instr(3);
                cost.mem(va);
                cost.mem(self.regs.va(rd.index()));
                let full = self.range_all(src, I_BIT) && self.regs.get(rd.index()) == 0xf;
                self.regs.set(rd.index(), if full { 0xf } else { 0 });
            }
            OpClass::DestMemOpReg { rs, dst } => {
                let va = self.meta.map(dst.addr, cost);
                cost.instr(3);
                cost.mem(va);
                cost.mem(self.regs.va(rs.index()));
                let full = self.regs.get(rs.index()) == 0xf && self.range_all(dst, I_BIT);
                self.write_mask_to_mem(dst, if full { 0xf } else { 0 });
            }
            OpClass::Other { writes, mem_write, .. } => {
                // Slow path: decode the record, conservatively define
                // outputs.
                cost.instr(12);
                for r in writes.iter() {
                    cost.mem(self.regs.va(r.index()));
                    self.regs.set(r.index(), 0xf);
                }
                if let Some(mw) = mem_write {
                    let va = self.meta.map(mw.addr, cost);
                    cost.mem(va);
                    self.set_bits_range(mw.addr, mw.size.bytes(), I_BIT, 0);
                }
            }
        }
    }
}

/// MemCheck's ETCT rows (see the crate docs).
pub(crate) const ROWS: &[Row] = &[
    // Accessibility checks only read metadata: a pipelined spine skips them.
    Row::new(EventType::MemRead, IfEventConfig::cacheable_addr(0)).elided(),
    Row::new(EventType::MemWrite, IfEventConfig::cacheable_addr(0)).elided(),
    Row::new(EventType::ImmToReg, PLAIN),
    Row::new(EventType::ImmToMem, PLAIN),
    Row::new(EventType::RegSelf, PLAIN),
    Row::new(EventType::MemSelf, PLAIN),
    Row::new(EventType::RegToReg, PLAIN),
    Row::new(EventType::RegToMem, PLAIN),
    Row::new(EventType::MemToReg, PLAIN),
    Row::new(EventType::MemToMem, PLAIN),
    Row::new(EventType::DestRegOpReg, PLAIN),
    Row::new(EventType::DestRegOpMem, PLAIN),
    Row::new(EventType::DestMemOpReg, PLAIN),
    Row::new(EventType::Other, PLAIN),
    // Use checks store cascade-suppression state, so the spine runs them;
    // registering `CheckNonUnary` asks IT for the eager variant.
    Row::new(EventType::CheckNonUnary, PLAIN),
    Row::new(EventType::CheckAddrCompute, PLAIN),
    Row::new(EventType::CheckCondBranch, PLAIN),
    Row::new(EventType::CheckSyscallArg, PLAIN),
    Row::new(EventType::Malloc, IfEventConfig::invalidates_all()),
    Row::new(EventType::Free, IfEventConfig::invalidates_all()),
    // Conservative: the handler only keeps books, yet runs on the spine.
    Row::new(EventType::Syscall, IfEventConfig::invalidates_all()),
    Row::new(EventType::ReadInput, PLAIN),
];

impl Reporting for MemCheck {
    fn reports(&self) -> &Reports {
        &self.violations
    }

    fn reports_mut(&mut self) -> &mut Reports {
        &mut self.violations
    }
}

impl Lifeguard for MemCheck {
    fn kind(&self) -> LifeguardKind {
        LifeguardKind::MemCheck
    }

    /// Columnar batch sweep: the access checks and propagation handlers are
    /// dispatched without re-entering the generic `handle` match, so the
    /// hot loads/stores/props path stays branch-predictable. Cost accounting
    /// is identical to per-event handling.
    fn handle_batch(&mut self, evs: &[DeliveredEvent], cost: &mut CostSink) {
        for (i, ev) in evs.iter().enumerate() {
            self.violations.handling(i);
            cost.mark();
            match &ev.event {
                Event::MemRead(m) => self.check_accessible(ev.pc, *m, false, cost),
                Event::MemWrite(m) => self.check_accessible(ev.pc, *m, true, cost),
                Event::Prop(op) => self.handle_prop(op, cost),
                _ => self.handle(ev, cost),
            }
        }
    }

    fn handle(&mut self, ev: &DeliveredEvent, cost: &mut CostSink) {
        match &ev.event {
            Event::MemRead(m) => self.check_accessible(ev.pc, *m, false, cost),
            Event::MemWrite(m) => self.check_accessible(ev.pc, *m, true, cost),
            Event::Prop(op) => self.handle_prop(op, cost),
            Event::Check { source, .. } => match source {
                MetaSource::Reg(r) => self.check_reg_init(ev.pc, *r, cost),
                MetaSource::Mem(m) => self.check_mem_init(ev.pc, *m, cost),
            },
            Event::Annot(Annotation::Malloc { base, size }) => {
                cost.instr(20 + (size / 16).max(1)); // word-granular metadata memset
                let va = self.meta.map(*base, cost);
                cost.mem(va);
                let init = if self.assume_calloc { I_BIT } else { 0 };
                self.set_bits_range(*base, *size, A_BIT | init, if init == 0 { I_BIT } else { 0 });
                self.allocs.malloc(*base, *size);
            }
            Event::Annot(Annotation::Free { base }) => {
                cost.instr(20);
                match self.allocs.free(ev.pc, *base) {
                    Ok(size) => {
                        let va = self.meta.map(*base, cost);
                        cost.instr((size / 16).max(1));
                        cost.mem(va);
                        self.set_bits_range(*base, size, 0, AI);
                    }
                    Err(v) => self.violations.push(v),
                }
            }
            Event::Annot(Annotation::ReadInput { base, len }) => {
                let va = self.meta.map(*base, cost);
                cost.instr(3 + len / 16);
                cost.mem(va);
                if !self.meta.shadow().packed_test_all(*base, *len, A_BIT) {
                    self.violations.push(Violation::UnallocatedAccess {
                        pc: ev.pc,
                        mref: MemRef::word(*base),
                        is_write: true,
                    });
                }
                // Kernel-written bytes are initialized.
                self.set_bits_range(*base, *len, I_BIT, 0);
            }
            Event::Annot(Annotation::Syscall { .. }) => cost.instr(5),
            Event::Annot(_) => cost.instr(2),
        }
    }

    fn premark_region(&mut self, base: u32, len: u32) {
        self.set_bits_range(base, len, AI, 0);
    }

    fn set_synthetic_workload_mode(&mut self, enabled: bool) {
        self.assume_calloc = enabled;
    }

    fn metadata_bytes(&self) -> u64 {
        self.meta.metadata_bytes() + self.allocs.len() as u64 * 8 + 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igm_isa::MemSize;
    use igm_lba::CheckKind;

    fn run(lg: &mut MemCheck, event: Event) {
        let mut c = CostSink::new();
        lg.handle(&DeliveredEvent::new(0x1000, event), &mut c);
    }

    fn malloc(lg: &mut MemCheck, base: u32, size: u32) {
        run(lg, Event::Annot(Annotation::Malloc { base, size }));
    }

    #[test]
    fn uninitialized_load_is_silent_until_use() {
        let mut lg = MemCheck::new(&AccelConfig::baseline());
        malloc(&mut lg, 0x9000, 64);
        // Load of uninitialized memory: no report (copying is harmless).
        run(&mut lg, Event::MemRead(MemRef::word(0x9000)));
        run(&mut lg, Event::Prop(OpClass::MemToReg { src: MemRef::word(0x9000), rd: Reg::Eax }));
        assert!(lg.violations().is_empty());
        // Using %eax as a branch input is an error.
        run(
            &mut lg,
            Event::Check { kind: CheckKind::CondBranchInput, source: MetaSource::Reg(Reg::Eax) },
        );
        assert_eq!(lg.violations().len(), 1);
        assert!(matches!(lg.violations()[0], Violation::UninitUse { .. }));
    }

    #[test]
    fn initialization_clears_the_report_path() {
        let mut lg = MemCheck::new(&AccelConfig::baseline());
        malloc(&mut lg, 0x9000, 64);
        run(&mut lg, Event::Prop(OpClass::ImmToMem { dst: MemRef::word(0x9000) }));
        run(&mut lg, Event::Prop(OpClass::MemToReg { src: MemRef::word(0x9000), rd: Reg::Eax }));
        run(
            &mut lg,
            Event::Check { kind: CheckKind::CondBranchInput, source: MetaSource::Reg(Reg::Eax) },
        );
        assert!(lg.violations().is_empty());
    }

    #[test]
    fn propagation_through_memory_copies() {
        let mut lg = MemCheck::new(&AccelConfig::baseline());
        malloc(&mut lg, 0x9000, 64);
        malloc(&mut lg, 0xa000, 64);
        // Initialize source, copy mem->mem, then load+use: clean.
        run(&mut lg, Event::Prop(OpClass::ImmToMem { dst: MemRef::word(0x9000) }));
        run(
            &mut lg,
            Event::Prop(OpClass::MemToMem { src: MemRef::word(0x9000), dst: MemRef::word(0xa000) }),
        );
        run(&mut lg, Event::Prop(OpClass::MemToReg { src: MemRef::word(0xa000), rd: Reg::Ecx }));
        run(
            &mut lg,
            Event::Check { kind: CheckKind::AddrCompute, source: MetaSource::Reg(Reg::Ecx) },
        );
        assert!(lg.violations().is_empty());
        // Copy from an uninitialized word propagates the uninit state.
        run(
            &mut lg,
            Event::Prop(OpClass::MemToMem { src: MemRef::word(0x9010), dst: MemRef::word(0xa010) }),
        );
        run(&mut lg, Event::Prop(OpClass::MemToReg { src: MemRef::word(0xa010), rd: Reg::Edx }));
        run(
            &mut lg,
            Event::Check { kind: CheckKind::AddrCompute, source: MetaSource::Reg(Reg::Edx) },
        );
        assert_eq!(lg.violations().len(), 1);
    }

    #[test]
    fn generic_binary_op_poisons_destination() {
        let mut lg = MemCheck::new(&AccelConfig::baseline());
        malloc(&mut lg, 0x9000, 64);
        run(&mut lg, Event::Prop(OpClass::MemToReg { src: MemRef::word(0x9000), rd: Reg::Eax }));
        run(&mut lg, Event::Prop(OpClass::DestRegOpReg { rs: Reg::Eax, rd: Reg::Edx }));
        run(
            &mut lg,
            Event::Check { kind: CheckKind::CondBranchInput, source: MetaSource::Reg(Reg::Edx) },
        );
        assert_eq!(lg.violations().len(), 1);
    }

    #[test]
    fn eager_nonunary_check_reports_mem_source() {
        // With IT, the hardware delivers the check with the inherited
        // memory source.
        let mut lg = MemCheck::new(&AccelConfig::baseline());
        malloc(&mut lg, 0x9000, 64);
        run(
            &mut lg,
            Event::Check {
                kind: CheckKind::NonUnaryInput,
                source: MetaSource::Mem(MemRef::word(0x9000)),
            },
        );
        assert_eq!(lg.violations().len(), 1);
        assert!(matches!(
            lg.violations()[0],
            Violation::UninitUse { source: SourceDesc::Mem(_), .. }
        ));
    }

    #[test]
    fn no_cascade_after_first_report() {
        let mut lg = MemCheck::new(&AccelConfig::baseline());
        malloc(&mut lg, 0x9000, 64);
        run(&mut lg, Event::Prop(OpClass::MemToReg { src: MemRef::word(0x9000), rd: Reg::Eax }));
        for _ in 0..3 {
            run(
                &mut lg,
                Event::Check {
                    kind: CheckKind::CondBranchInput,
                    source: MetaSource::Reg(Reg::Eax),
                },
            );
        }
        assert_eq!(lg.violations().len(), 1, "report must not cascade");
    }

    #[test]
    fn partial_word_copy_tracks_byte_granularity() {
        let mut lg = MemCheck::new(&AccelConfig::baseline());
        malloc(&mut lg, 0x9000, 64);
        // Initialize one byte only.
        run(&mut lg, Event::Prop(OpClass::ImmToMem { dst: MemRef::byte(0x9000) }));
        // A 1-byte load zero-extends: fully defined register.
        run(&mut lg, Event::Prop(OpClass::MemToReg { src: MemRef::byte(0x9000), rd: Reg::Eax }));
        run(
            &mut lg,
            Event::Check { kind: CheckKind::CondBranchInput, source: MetaSource::Reg(Reg::Eax) },
        );
        assert!(lg.violations().is_empty());
        // A 4-byte load of the same word picks up 3 undefined bytes.
        run(
            &mut lg,
            Event::Prop(OpClass::MemToReg { src: MemRef::new(0x9000, MemSize::B4), rd: Reg::Ecx }),
        );
        run(
            &mut lg,
            Event::Check { kind: CheckKind::CondBranchInput, source: MetaSource::Reg(Reg::Ecx) },
        );
        assert_eq!(lg.violations().len(), 1);
    }

    #[test]
    fn accessibility_still_checked() {
        let mut lg = MemCheck::new(&AccelConfig::baseline());
        run(&mut lg, Event::MemWrite(MemRef::word(0x9000)));
        assert!(matches!(lg.violations()[0], Violation::UnallocatedAccess { is_write: true, .. }));
    }

    #[test]
    fn free_clears_initialized_state() {
        let mut lg = MemCheck::new(&AccelConfig::baseline());
        malloc(&mut lg, 0x9000, 64);
        run(&mut lg, Event::Prop(OpClass::ImmToMem { dst: MemRef::word(0x9000) }));
        run(&mut lg, Event::Annot(Annotation::Free { base: 0x9000 }));
        malloc(&mut lg, 0x9000, 64);
        run(&mut lg, Event::Prop(OpClass::MemToReg { src: MemRef::word(0x9000), rd: Reg::Eax }));
        run(
            &mut lg,
            Event::Check { kind: CheckKind::CondBranchInput, source: MetaSource::Reg(Reg::Eax) },
        );
        assert_eq!(lg.violations().len(), 1, "recycled memory is uninitialized again");
    }

    #[test]
    fn read_input_initializes_buffer() {
        let mut lg = MemCheck::new(&AccelConfig::baseline());
        malloc(&mut lg, 0x9000, 128);
        run(&mut lg, Event::Annot(Annotation::ReadInput { base: 0x9000, len: 128 }));
        run(&mut lg, Event::Prop(OpClass::MemToReg { src: MemRef::word(0x9040), rd: Reg::Eax }));
        run(
            &mut lg,
            Event::Check { kind: CheckKind::SyscallArg, source: MetaSource::Reg(Reg::Eax) },
        );
        assert!(lg.violations().is_empty());
    }

    #[test]
    fn assume_calloc_suppresses_uninit_tracking() {
        let mut lg = MemCheck::new(&AccelConfig::baseline());
        lg.set_synthetic_workload_mode(true);
        malloc(&mut lg, 0x9000, 64);
        run(&mut lg, Event::Prop(OpClass::MemToReg { src: MemRef::word(0x9000), rd: Reg::Eax }));
        run(
            &mut lg,
            Event::Check { kind: CheckKind::CondBranchInput, source: MetaSource::Reg(Reg::Eax) },
        );
        assert!(lg.violations().is_empty());
    }

    #[test]
    fn batch_override_matches_per_event_handling() {
        let evs = vec![
            DeliveredEvent::new(0x10, Event::Annot(Annotation::Malloc { base: 0x9000, size: 64 })),
            DeliveredEvent::new(0x14, Event::MemWrite(MemRef::word(0x9000))),
            DeliveredEvent::new(0x18, Event::Prop(OpClass::ImmToMem { dst: MemRef::word(0x9000) })),
            DeliveredEvent::new(
                0x1c,
                Event::Prop(OpClass::MemToReg { src: MemRef::word(0x9004), rd: Reg::Eax }),
            ),
            DeliveredEvent::new(
                0x20,
                Event::Check {
                    kind: CheckKind::CondBranchInput,
                    source: MetaSource::Reg(Reg::Eax),
                },
            ),
            DeliveredEvent::new(0x24, Event::MemRead(MemRef::word(0xdead_0000))),
            DeliveredEvent::new(0x28, Event::Annot(Annotation::Free { base: 0x9000 })),
        ];
        let mut a = MemCheck::new(&AccelConfig::baseline());
        let mut b = MemCheck::new(&AccelConfig::baseline());
        let mut c1 = CostSink::new();
        let mut c2 = CostSink::new();
        a.handle_batch(&evs, &mut c1);
        for ev in &evs {
            b.handle(ev, &mut c2);
        }
        assert_eq!(a.violations(), b.violations());
        assert_eq!(c1.instrs(), c2.instrs());
        assert_eq!(c1.mem_vas(), c2.mem_vas());
    }

    #[test]
    fn etct_registers_propagation_and_checks() {
        let lg = MemCheck::new(&AccelConfig::baseline());
        let etct = lg.etct();
        assert!(etct.is_registered(EventType::DestRegOpMem));
        assert!(etct.is_registered(EventType::CheckNonUnary));
        assert!(etct.if_config(EventType::MemRead).cacheable);
        assert!(!etct.if_config(EventType::CheckCondBranch).cacheable);
        assert!(etct.if_config(EventType::Free).invalidate_all);
    }
}
