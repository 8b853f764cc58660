//! TaintCheck: dynamic taint analysis for overwrite-based security exploits
//! (Table 1).
//!
//! All unverified program input (network/file reads) is marked *tainted*;
//! taint propagates through data movement and computation; an error is
//! raised when tainted data reaches a critical sink — an indirect jump
//! target, a `printf`-style format string, or a system-call argument.
//!
//! Metadata is two taint bits per application byte (1-byte elements per
//! 4-byte word: the paper's §7.1 packing, which makes the frequent 4-byte
//! IA32 operations single-byte metadata accesses) plus a per-byte taint
//! mask per register.
//!
//! Baseline handlers implement *generic* propagation (Figure 7's
//! `reg_taint[dest] |= mem_taint`). Under Inheritance Tracking the
//! hardware absorbs register-borne propagation and delivers only memory
//! metadata updates — the same handlers serve, since IT's transformed
//! events (`imm_to_mem`, `mem_to_mem`, …) are ordinary registered events.

use crate::cost::{CostSink, MetaMap};
use crate::violation::{Reporting, Reports, SourceDesc, TaintSink, Violation};
use crate::{fields, Lifeguard, LifeguardKind, Row, PLAIN};
use igm_core::AccelConfig;
use igm_isa::{Annotation, MemRef, OpClass, Reg};
use igm_lba::{CheckKind, DeliveredEvent, Event, EventType, MetaSource};
use igm_shadow::{RegMeta, ShadowLayout, TwoLevelShadow};

/// Tainted 2-bit metadata value.
const TAINTED: u8 = 0b11;
/// Clean 2-bit metadata value.
const CLEAN: u8 = 0b00;

/// The TaintCheck lifeguard.
#[derive(Debug, Clone)]
pub struct TaintCheck {
    meta: MetaMap,
    /// Per-register taint mask: bit i = byte i tainted.
    regs: RegMeta<u8>,
    violations: Reports,
    /// Tainted bytes currently tracked (for reports/tests).
    tainted_bytes: i64,
}

impl TaintCheck {
    /// Two taint bits per byte, 1-byte elements per word (the Figure 7
    /// packing), with a 12-bit level-1 index — the footprint-adaptive
    /// level-1 sizing of Figure 14(b) applied as the default (the paper's
    /// worked example uses 16 bits; see `ShadowLayout::taintcheck_fig7`).
    pub fn layout() -> ShadowLayout {
        ShadowLayout::for_coverage(12, 4, igm_shadow::layout::ElemSize::B1)
            .expect("constant layout is valid")
    }

    /// Builds TaintCheck under `cfg`.
    pub fn new(cfg: &AccelConfig) -> TaintCheck {
        TaintCheck {
            meta: MetaMap::new(TwoLevelShadow::new(Self::layout(), 0), cfg.lma),
            regs: RegMeta::new(0),
            violations: Reports::default(),
            tainted_bytes: 0,
        }
    }

    /// Whether any byte of `m` is tainted.
    pub fn mem_tainted(&self, m: MemRef) -> bool {
        self.mem_mask(m) != 0
    }

    /// Whether register `r` holds tainted data.
    pub fn reg_tainted(&self, r: Reg) -> bool {
        self.regs.get(r.index()) != 0
    }

    /// Per-byte taint mask of `m` (bit i = byte i is not clean): one packed
    /// load.
    #[inline]
    fn mem_mask(&self, m: MemRef) -> u8 {
        let loaded = self.meta.shadow().packed_load(m.addr, m.size.bytes());
        fields::gather(loaded | loaded >> 1)
    }

    /// Makes byte `i` of `m` tainted iff bit `i` of `mask` is set. Only the
    /// bytes whose metadata changes are written, so a store that changes
    /// nothing in a chunk does not allocate it.
    #[inline]
    fn write_mask(&mut self, m: MemRef, mask: u8) {
        let n = m.size.bytes();
        let new = (fields::spread(mask) * TAINTED as u32) & fields::every(TAINTED, n);
        let diff = self.meta.shadow().packed_load(m.addr, n) ^ new;
        if diff == 0 {
            return;
        }
        // Low bit of every field that changes; `new`'s fields are 0b11 or 0.
        let changed = (diff | diff >> 1) & 0x55;
        self.tainted_bytes +=
            (changed & new).count_ones() as i64 - (changed & !new).count_ones() as i64;
        let touched = changed * 0b11;
        self.meta.shadow_mut().packed_update(m.addr, n, new & touched, touched);
    }

    fn set_range(&mut self, base: u32, len: u32, v: u8) {
        let changed = self.meta.shadow_mut().packed_set_range_changed(base, len, v) as i64;
        self.tainted_bytes += if v == TAINTED { changed } else { -changed };
    }

    /// The sink a check event of `kind` guards, for both TaintChecks.
    pub(crate) fn sink_of(kind: CheckKind) -> TaintSink {
        match kind {
            CheckKind::SyscallArg => TaintSink::SyscallArg,
            CheckKind::FormatString => TaintSink::FormatString,
            _ => TaintSink::JumpTarget,
        }
    }

    fn handle_prop(&mut self, pc: u32, op: &OpClass, cost: &mut CostSink) {
        let _ = pc;
        match *op {
            OpClass::ImmToReg { rd } => {
                cost.instr(1);
                cost.mem(self.regs.va(rd.index()));
                self.regs.set(rd.index(), 0);
            }
            OpClass::ImmToMem { dst } => {
                let va = self.meta.map(dst.addr, cost);
                cost.instr(2);
                cost.mem(va);
                self.write_mask(dst, 0);
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
                self.write_mask(dst, mask);
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
                self.write_mask(dst, mask);
            }
            OpClass::DestRegOpReg { rs, rd } => {
                cost.instr(2);
                cost.mem(self.regs.va(rs.index()));
                cost.mem(self.regs.va(rd.index()));
                let m = self.regs.get(rd.index()) | self.regs.get(rs.index());
                self.regs.set(rd.index(), m);
            }
            OpClass::DestRegOpMem { src, rd } => {
                // Figure 7's handler: reg_taint[dest] |= mem_taint.
                let va = self.meta.map(src.addr, cost);
                cost.instr(2);
                cost.mem(va);
                let m = self.regs.get(rd.index()) | self.mem_mask(src);
                self.regs.set(rd.index(), m);
            }
            OpClass::DestMemOpReg { rs, dst } => {
                let va = self.meta.map(dst.addr, cost);
                cost.instr(3);
                cost.mem(self.regs.va(rs.index()));
                cost.mem(va);
                let mask = self.mem_mask(dst) | self.regs.get(rs.index());
                self.write_mask(dst, mask);
            }
            OpClass::Other { reads, writes, mem_read, mem_write } => {
                cost.instr(12);
                let mut any = mem_read.map(|m| self.mem_mask(m) != 0).unwrap_or(false);
                for r in reads.iter() {
                    any |= self.regs.get(r.index()) != 0;
                }
                let mask = if any { 0xf } else { 0 };
                for r in writes.iter() {
                    cost.mem(self.regs.va(r.index()));
                    self.regs.set(r.index(), mask);
                }
                if let Some(mw) = mem_write {
                    let va = self.meta.map(mw.addr, cost);
                    cost.mem(va);
                    self.write_mask(mw, mask);
                }
            }
        }
    }
}

/// TaintCheck's ETCT rows (see the crate docs), shared by
/// TaintCheckDetailed. Figure 4: the "self" and read-only operations leave
/// taint unchanged and are not registered.
pub(crate) const ROWS: &[Row] = &[
    Row::new(EventType::ImmToReg, PLAIN),
    Row::new(EventType::ImmToMem, PLAIN),
    Row::new(EventType::RegToReg, PLAIN),
    Row::new(EventType::RegToMem, PLAIN),
    Row::new(EventType::MemToReg, PLAIN),
    Row::new(EventType::MemToMem, PLAIN),
    Row::new(EventType::DestRegOpReg, PLAIN),
    Row::new(EventType::DestRegOpMem, PLAIN),
    Row::new(EventType::DestMemOpReg, PLAIN),
    Row::new(EventType::Other, PLAIN),
    // Critical sinks only read taint: a pipelined spine skips them.
    Row::new(EventType::CheckJumpTarget, PLAIN).elided(),
    Row::new(EventType::CheckSyscallArg, PLAIN).elided(),
    Row::new(EventType::CheckFormatString, PLAIN).elided(),
    Row::new(EventType::Malloc, PLAIN),
    Row::new(EventType::ReadInput, PLAIN),
];

impl Reporting for TaintCheck {
    fn reports(&self) -> &Reports {
        &self.violations
    }

    fn reports_mut(&mut self) -> &mut Reports {
        &mut self.violations
    }
}

impl Lifeguard for TaintCheck {
    fn kind(&self) -> LifeguardKind {
        LifeguardKind::TaintCheck
    }

    fn handle(&mut self, ev: &DeliveredEvent, cost: &mut CostSink) {
        match &ev.event {
            Event::Prop(op) => self.handle_prop(ev.pc, op, cost),
            Event::Check { kind, source } => {
                let tainted = match source {
                    MetaSource::Reg(r) => {
                        cost.instr(3);
                        cost.mem(self.regs.va(r.index()));
                        self.reg_tainted(*r)
                    }
                    MetaSource::Mem(m) => {
                        let va = self.meta.map(m.addr, cost);
                        cost.instr(3);
                        cost.mem(va);
                        self.mem_mask(*m) != 0
                    }
                };
                if tainted {
                    let source = match source {
                        MetaSource::Reg(r) => SourceDesc::Reg(r.index()),
                        MetaSource::Mem(m) => SourceDesc::Mem(*m),
                    };
                    self.violations.push(Violation::TaintedUse {
                        pc: ev.pc,
                        sink: Self::sink_of(*kind),
                        source,
                    });
                }
            }
            Event::Annot(Annotation::Malloc { base, size }) => {
                // Fresh allocations are untainted (Table 1).
                let va = self.meta.map(*base, cost);
                cost.instr(10 + size / 16); // word-granular metadata memset
                cost.mem(va);
                self.set_range(*base, *size, CLEAN);
            }
            Event::Annot(Annotation::ReadInput { base, len }) => {
                // Untrusted input: taint the buffer.
                let va = self.meta.map(*base, cost);
                cost.instr(10 + len / 16);
                cost.mem(va);
                self.set_range(*base, *len, TAINTED);
            }
            _ => cost.instr(1),
        }
    }

    fn premark_region(&mut self, _base: u32, _len: u32) {
        // Loader-established memory is untainted, which is the default.
    }

    fn metadata_bytes(&self) -> u64 {
        self.meta.metadata_bytes() + 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(lg: &mut TaintCheck, pc: u32, event: Event) {
        let mut c = CostSink::new();
        lg.handle(&DeliveredEvent::new(pc, event), &mut c);
    }

    fn taint_input(lg: &mut TaintCheck, base: u32, len: u32) {
        run(lg, 0, Event::Annot(Annotation::ReadInput { base, len }));
    }

    #[test]
    fn input_taints_and_malloc_clears() {
        let mut lg = TaintCheck::new(&AccelConfig::baseline());
        taint_input(&mut lg, 0x9000, 64);
        assert!(lg.mem_tainted(MemRef::word(0x9000)));
        run(&mut lg, 0, Event::Annot(Annotation::Malloc { base: 0x9000, size: 64 }));
        assert!(!lg.mem_tainted(MemRef::word(0x9000)));
    }

    #[test]
    fn taint_flows_through_load_store_chain() {
        let mut lg = TaintCheck::new(&AccelConfig::baseline());
        taint_input(&mut lg, 0x9000, 4);
        run(&mut lg, 1, Event::Prop(OpClass::MemToReg { src: MemRef::word(0x9000), rd: Reg::Eax }));
        assert!(lg.reg_tainted(Reg::Eax));
        run(&mut lg, 2, Event::Prop(OpClass::RegToReg { rs: Reg::Eax, rd: Reg::Ecx }));
        run(&mut lg, 3, Event::Prop(OpClass::RegToMem { rs: Reg::Ecx, dst: MemRef::word(0xa000) }));
        assert!(lg.mem_tainted(MemRef::word(0xa000)));
        // Overwriting with a constant clears.
        run(&mut lg, 4, Event::Prop(OpClass::ImmToMem { dst: MemRef::word(0xa000) }));
        assert!(!lg.mem_tainted(MemRef::word(0xa000)));
    }

    #[test]
    fn generic_binary_op_ors_taint() {
        let mut lg = TaintCheck::new(&AccelConfig::baseline());
        taint_input(&mut lg, 0x9000, 4);
        run(
            &mut lg,
            1,
            Event::Prop(OpClass::DestRegOpMem { src: MemRef::word(0x9000), rd: Reg::Edx }),
        );
        assert!(lg.reg_tainted(Reg::Edx));
        run(&mut lg, 2, Event::Prop(OpClass::DestRegOpReg { rs: Reg::Edx, rd: Reg::Ebx }));
        assert!(lg.reg_tainted(Reg::Ebx));
    }

    #[test]
    fn tainted_jump_target_is_flagged() {
        let mut lg = TaintCheck::new(&AccelConfig::baseline());
        taint_input(&mut lg, 0x9000, 4);
        run(&mut lg, 1, Event::Prop(OpClass::MemToReg { src: MemRef::word(0x9000), rd: Reg::Eax }));
        run(
            &mut lg,
            2,
            Event::Check { kind: CheckKind::JumpTarget, source: MetaSource::Reg(Reg::Eax) },
        );
        assert_eq!(lg.violations().len(), 1);
        assert!(matches!(
            lg.violations()[0],
            Violation::TaintedUse { sink: TaintSink::JumpTarget, .. }
        ));
    }

    #[test]
    fn clean_jump_target_is_silent() {
        let mut lg = TaintCheck::new(&AccelConfig::baseline());
        run(
            &mut lg,
            1,
            Event::Check { kind: CheckKind::JumpTarget, source: MetaSource::Reg(Reg::Eax) },
        );
        run(
            &mut lg,
            2,
            Event::Check {
                kind: CheckKind::FormatString,
                source: MetaSource::Mem(MemRef::word(0x8100_0000)),
            },
        );
        assert!(lg.violations().is_empty());
    }

    #[test]
    fn format_string_sink() {
        let mut lg = TaintCheck::new(&AccelConfig::baseline());
        taint_input(&mut lg, 0x9000, 16);
        run(
            &mut lg,
            3,
            Event::Check {
                kind: CheckKind::FormatString,
                source: MetaSource::Mem(MemRef::byte(0x9004)),
            },
        );
        assert!(matches!(
            lg.violations()[0],
            Violation::TaintedUse { sink: TaintSink::FormatString, .. }
        ));
    }

    #[test]
    fn byte_granular_taint_and_zero_extension() {
        let mut lg = TaintCheck::new(&AccelConfig::baseline());
        taint_input(&mut lg, 0x9001, 1); // only byte 1 of the word
                                         // 1-byte load of the clean byte 0: clean.
        run(&mut lg, 1, Event::Prop(OpClass::MemToReg { src: MemRef::byte(0x9000), rd: Reg::Eax }));
        assert!(!lg.reg_tainted(Reg::Eax));
        // 4-byte load picks up the tainted byte.
        run(&mut lg, 2, Event::Prop(OpClass::MemToReg { src: MemRef::word(0x9000), rd: Reg::Ecx }));
        assert!(lg.reg_tainted(Reg::Ecx));
        // Storing only the low byte of the (byte-1-tainted) register leaves
        // the destination clean.
        run(&mut lg, 3, Event::Prop(OpClass::RegToMem { rs: Reg::Ecx, dst: MemRef::byte(0xa000) }));
        assert!(!lg.mem_tainted(MemRef::byte(0xa000)));
    }

    #[test]
    fn opaque_op_propagates_conservatively() {
        let mut lg = TaintCheck::new(&AccelConfig::baseline());
        taint_input(&mut lg, 0x9000, 4);
        run(&mut lg, 1, Event::Prop(OpClass::MemToReg { src: MemRef::word(0x9000), rd: Reg::Eax }));
        let set = igm_isa::RegSet::from_regs([Reg::Eax, Reg::Ecx]);
        run(
            &mut lg,
            2,
            Event::Prop(OpClass::Other {
                reads: set,
                writes: set,
                mem_read: None,
                mem_write: None,
            }),
        );
        assert!(lg.reg_tainted(Reg::Ecx), "xchg must propagate taint");
    }

    /// `ReadInput` and `Malloc` over overlapping, unaligned ranges — some
    /// straddling the 1 MiB chunk boundary, some empty, some changing
    /// nothing — against a shadow driven one byte at a time.
    #[test]
    fn range_annotations_match_a_per_byte_reference() {
        const EDGE: u32 = 0x9010_0000; // first byte of a chunk
        let ranges: [(bool, u32, u32); 12] = [
            (true, EDGE - 11, 30),   // taint across the boundary
            (false, EDGE - 3, 9),    // clear an unaligned middle, also across
            (true, EDGE - 3, 2),     // re-taint two bytes below the boundary
            (false, EDGE + 40, 64),  // clear what was never tainted: no change
            (true, EDGE + 17, 0),    // empty range: the map still touches a chunk
            (true, 0x7fff_fffd, 70), // a second region, unaligned at both ends
            (false, 0x8000_0001, 3),
            (true, 0x8000_0000, 5),
            (false, 0xa00f_fff0, 16), // clean range ending on a boundary: no write
            (false, 0xa00f_fff8, 16), // ...and one crossing it, still no change
            (true, 0xa00f_ffff, 2),   // one byte each side of a boundary
            (false, EDGE - 64, 256),  // clear everything around the first edge
        ];
        let mut lg = TaintCheck::new(&AccelConfig::baseline());
        let mut reference = TwoLevelShadow::new(TaintCheck::layout(), 0);
        let mut probes = Vec::new();
        for (taint, base, len) in ranges {
            let (event, v) = if taint {
                (Annotation::ReadInput { base, len }, TAINTED)
            } else {
                (Annotation::Malloc { base, size: len }, CLEAN)
            };
            run(&mut lg, 0, Event::Annot(event));
            // The handler maps `base` (touching its chunk), then writes the
            // bytes whose metadata differs.
            reference.chunk_base_va(base);
            for a in base..base + len {
                if reference.packed_get(a) != v {
                    reference.packed_set(a, v);
                }
            }
            // Every byte any range has covered so far, and two either side.
            probes.extend(base - 2..base + len + 2);
            probes.sort_unstable();
            probes.dedup();
            let what = format!("after {event:?}");
            for &a in &probes {
                assert_eq!(
                    lg.mem_tainted(MemRef::byte(a)),
                    reference.packed_get(a) != CLEAN,
                    "{what}: byte {a:#x}"
                );
            }
            let tainted = probes.iter().filter(|a| reference.packed_get(**a) != CLEAN).count();
            assert_eq!(lg.tainted_bytes, tainted as i64, "{what}: tainted byte count");
            assert_eq!(
                lg.meta.shadow().allocated_chunks(),
                reference.allocated_chunks(),
                "{what}: chunks allocated"
            );
            let table = 4 * TaintCheck::layout().level1_entries() as u64;
            assert_eq!(lg.metadata_bytes(), reference.metadata_bytes() + table + 8, "{what}");
        }
        // Wider references see the same bytes.
        for &a in &probes {
            let word = MemRef::word(a);
            let any = (0..4).any(|i| reference.packed_get(a + i) != CLEAN);
            assert_eq!(lg.mem_tainted(word), any, "word at {a:#x}");
        }
    }

    #[test]
    fn etct_omits_self_events() {
        let lg = TaintCheck::new(&AccelConfig::baseline());
        let etct = lg.etct();
        // Figure 4: no event is delivered for the two "self" operations.
        assert!(!etct.is_registered(EventType::RegSelf));
        assert!(!etct.is_registered(EventType::MemSelf));
        assert!(!etct.is_registered(EventType::MemRead));
        assert!(etct.is_registered(EventType::DestRegOpMem));
    }
}
