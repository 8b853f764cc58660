//! TaintCheck with detailed tracking (paper §7.1).
//!
//! The enhanced variant keeps an 8-byte metadata record per 4-byte
//! application word: the 4-byte "from" address the taint was copied from
//! and the 4-byte instruction pointer that performed the copy. A zero
//! record means untainted. On a security violation the propagation trail
//! can be reconstructed by walking the "from" chain
//! ([`TaintCheckDetailed::taint_trail`]).
//!
//! This is exactly the kind of lifeguard that value-based hardware taint
//! proposals cannot support (the metadata is neither a bit nor hardware-
//! interpretable), while Inheritance Tracking accelerates it unchanged —
//! the point of the paper's §4.1 argument.
//!
//! Taint is tracked at word granularity (the metadata unit); sub-word
//! stores taint their containing word.

use crate::cost::{CostSink, MetaMap};
use crate::violation::{Reporting, Reports, SourceDesc, Violation};
use crate::{Lifeguard, LifeguardKind, TaintCheck};
use igm_core::AccelConfig;
use igm_isa::{Annotation, MemRef, OpClass, Reg};
use igm_lba::{DeliveredEvent, Event, MetaSource};
use igm_shadow::layout::ElemSize;
use igm_shadow::{RegMeta, ShadowLayout, TwoLevelShadow};
use std::collections::HashSet;

/// One taint record: packed `(from_addr, eip)`; zero = untainted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TaintRecord {
    /// Address the tainted value was copied from.
    pub from: u32,
    /// Instruction pointer of the copying instruction.
    pub eip: u32,
}

impl TaintRecord {
    const CLEAN: TaintRecord = TaintRecord { from: 0, eip: 0 };

    fn is_tainted(self) -> bool {
        self != TaintRecord::CLEAN
    }

    fn pack(self) -> u64 {
        (self.from as u64) | ((self.eip as u64) << 32)
    }

    fn unpack(v: u64) -> TaintRecord {
        TaintRecord { from: v as u32, eip: (v >> 32) as u32 }
    }
}

/// The detailed-tracking TaintCheck lifeguard.
#[derive(Debug, Clone)]
pub struct TaintCheckDetailed {
    meta: MetaMap,
    /// Per-register record (packed), zero = clean.
    regs: RegMeta<u64>,
    violations: Reports,
}

impl TaintCheckDetailed {
    /// 8-byte records per 4-byte word.
    pub fn layout() -> ShadowLayout {
        ShadowLayout::for_coverage(13, 4, ElemSize::B8).expect("constant layout is valid")
    }

    /// Builds the lifeguard under `cfg`.
    pub fn new(cfg: &AccelConfig) -> TaintCheckDetailed {
        TaintCheckDetailed {
            meta: MetaMap::new(TwoLevelShadow::new(Self::layout(), 0), cfg.lma),
            regs: RegMeta::new(0),
            violations: Reports::default(),
        }
    }

    fn word_record(&self, addr: u32) -> TaintRecord {
        TaintRecord::unpack(self.meta.shadow().elem_u64(addr))
    }

    fn set_word_record(&mut self, addr: u32, r: TaintRecord) {
        self.meta.shadow_mut().set_elem_u64(addr, r.pack());
    }

    /// Records covering `m` (one or two words).
    fn mem_record(&self, m: MemRef) -> TaintRecord {
        let first = self.word_record(m.addr);
        if first.is_tainted() {
            return first;
        }
        let last = m.addr.wrapping_add(m.size.bytes() - 1);
        if last & !3 != m.addr & !3 {
            return self.word_record(last);
        }
        TaintRecord::CLEAN
    }

    fn write_mem_record(&mut self, m: MemRef, r: TaintRecord) {
        let mut w = m.addr & !3;
        let last = m.addr.wrapping_add(m.size.bytes() - 1) & !3;
        loop {
            self.set_word_record(w, r);
            if w == last {
                break;
            }
            w = w.wrapping_add(4);
        }
    }

    fn reg_record(&self, r: Reg) -> TaintRecord {
        TaintRecord::unpack(self.regs.get(r.index()))
    }

    fn set_reg_record(&mut self, r: Reg, rec: TaintRecord) {
        self.regs.set(r.index(), rec.pack());
    }

    /// Whether register `r` holds tainted data.
    pub fn reg_tainted(&self, r: Reg) -> bool {
        self.reg_record(r).is_tainted()
    }

    /// Whether any word of `m` is tainted.
    pub fn mem_tainted(&self, m: MemRef) -> bool {
        self.mem_record(m).is_tainted()
    }

    /// Reconstructs the taint-propagation trail ending at `addr`: the list
    /// of `(location, eip)` hops from most recent backwards, bounded by
    /// `max_hops` and cycle-guarded.
    pub fn taint_trail(&self, addr: u32, max_hops: usize) -> Vec<(u32, u32)> {
        let mut trail = Vec::new();
        let mut seen = HashSet::new();
        let mut cur = addr & !3;
        while trail.len() < max_hops && seen.insert(cur) {
            let rec = self.word_record(cur);
            if !rec.is_tainted() {
                break;
            }
            trail.push((cur, rec.eip));
            cur = rec.from & !3;
        }
        trail
    }

    /// Charges the cost of one 8-byte metadata access (two 32-bit
    /// references on the IA32 lifeguard core).
    fn charge_record_access(&mut self, va: u32, cost: &mut CostSink) {
        cost.instr(2);
        cost.mem(va);
        cost.mem(va + 4);
    }

    fn handle_prop(&mut self, pc: u32, op: &OpClass, cost: &mut CostSink) {
        match *op {
            OpClass::ImmToReg { rd } => {
                cost.instr(2);
                cost.mem(self.regs.va(rd.index()));
                self.set_reg_record(rd, TaintRecord::CLEAN);
            }
            OpClass::ImmToMem { dst } => {
                let va = self.meta.map(dst.addr, cost);
                self.charge_record_access(va, cost);
                cost.instr(1);
                self.write_mem_record(dst, TaintRecord::CLEAN);
            }
            OpClass::RegSelf { .. } | OpClass::MemSelf { .. } | OpClass::ReadOnly { .. } => {
                cost.instr(1);
            }
            OpClass::RegToReg { rs, rd } => {
                cost.instr(3);
                cost.mem(self.regs.va(rs.index()));
                cost.mem(self.regs.va(rd.index()));
                let rec = self.reg_record(rs);
                self.set_reg_record(rd, rec);
            }
            OpClass::RegToMem { rs, dst } => {
                let va = self.meta.map(dst.addr, cost);
                self.charge_record_access(va, cost);
                cost.instr(2);
                cost.mem(self.regs.va(rs.index()));
                let rec = self.reg_record(rs);
                // The store is a new hop: record where the register got its
                // taint and which instruction stored it.
                let out = if rec.is_tainted() {
                    TaintRecord { from: rec.from, eip: pc }
                } else {
                    TaintRecord::CLEAN
                };
                self.write_mem_record(dst, out);
            }
            OpClass::MemToReg { src, rd } => {
                let va = self.meta.map(src.addr, cost);
                self.charge_record_access(va, cost);
                cost.instr(2);
                cost.mem(self.regs.va(rd.index()));
                let rec = self.mem_record(src);
                let out = if rec.is_tainted() {
                    TaintRecord { from: src.addr, eip: pc }
                } else {
                    TaintRecord::CLEAN
                };
                self.set_reg_record(rd, out);
            }
            OpClass::MemToMem { src, dst } => {
                let sva = self.meta.map(src.addr, cost);
                let dva = self.meta.map(dst.addr, cost);
                self.charge_record_access(sva, cost);
                self.charge_record_access(dva, cost);
                cost.instr(2);
                let rec = self.mem_record(src);
                let out = if rec.is_tainted() {
                    TaintRecord { from: src.addr, eip: pc }
                } else {
                    TaintRecord::CLEAN
                };
                self.write_mem_record(dst, out);
            }
            OpClass::DestRegOpReg { rs, rd } => {
                cost.instr(3);
                cost.mem(self.regs.va(rs.index()));
                cost.mem(self.regs.va(rd.index()));
                let rec = if self.reg_record(rd).is_tainted() {
                    self.reg_record(rd)
                } else {
                    self.reg_record(rs)
                };
                self.set_reg_record(rd, rec);
            }
            OpClass::DestRegOpMem { src, rd } => {
                let va = self.meta.map(src.addr, cost);
                self.charge_record_access(va, cost);
                cost.instr(2);
                cost.mem(self.regs.va(rd.index()));
                let rec = if self.reg_record(rd).is_tainted() {
                    self.reg_record(rd)
                } else {
                    let m = self.mem_record(src);
                    if m.is_tainted() {
                        TaintRecord { from: src.addr, eip: pc }
                    } else {
                        TaintRecord::CLEAN
                    }
                };
                self.set_reg_record(rd, rec);
            }
            OpClass::DestMemOpReg { rs, dst } => {
                let va = self.meta.map(dst.addr, cost);
                self.charge_record_access(va, cost);
                cost.instr(2);
                cost.mem(self.regs.va(rs.index()));
                let dst_rec = self.mem_record(dst);
                let rec = if dst_rec.is_tainted() {
                    dst_rec
                } else {
                    let r = self.reg_record(rs);
                    if r.is_tainted() {
                        TaintRecord { from: r.from, eip: pc }
                    } else {
                        TaintRecord::CLEAN
                    }
                };
                self.write_mem_record(dst, rec);
            }
            OpClass::Other { reads, writes, mem_read, mem_write } => {
                cost.instr(14);
                let mut rec = TaintRecord::CLEAN;
                if let Some(mr) = mem_read {
                    let m = self.mem_record(mr);
                    if m.is_tainted() {
                        rec = TaintRecord { from: mr.addr, eip: pc };
                    }
                }
                for r in reads.iter() {
                    let rr = self.reg_record(r);
                    if rr.is_tainted() && !rec.is_tainted() {
                        rec = TaintRecord { from: rr.from, eip: pc };
                    }
                }
                for r in writes.iter() {
                    cost.mem(self.regs.va(r.index()));
                    self.set_reg_record(r, rec);
                }
                if let Some(mw) = mem_write {
                    let va = self.meta.map(mw.addr, cost);
                    self.charge_record_access(va, cost);
                    self.write_mem_record(mw, rec);
                }
            }
        }
    }
}

impl Reporting for TaintCheckDetailed {
    fn reports(&self) -> &Reports {
        &self.violations
    }

    fn reports_mut(&mut self) -> &mut Reports {
        &mut self.violations
    }
}

impl Lifeguard for TaintCheckDetailed {
    fn kind(&self) -> LifeguardKind {
        LifeguardKind::TaintCheckDetailed
    }

    fn handle(&mut self, ev: &DeliveredEvent, cost: &mut CostSink) {
        match &ev.event {
            Event::Prop(op) => self.handle_prop(ev.pc, op, cost),
            Event::Check { kind, source } => {
                let tainted = match source {
                    MetaSource::Reg(r) => {
                        cost.instr(4);
                        cost.mem(self.regs.va(r.index()));
                        self.reg_tainted(*r)
                    }
                    MetaSource::Mem(m) => {
                        let va = self.meta.map(m.addr, cost);
                        self.charge_record_access(va, cost);
                        cost.instr(2);
                        self.mem_tainted(*m)
                    }
                };
                if tainted {
                    let sink = TaintCheck::sink_of(*kind);
                    let source = match source {
                        MetaSource::Reg(r) => SourceDesc::Reg(r.index()),
                        MetaSource::Mem(m) => SourceDesc::Mem(*m),
                    };
                    self.violations.push(Violation::TaintedUse { pc: ev.pc, sink, source });
                }
            }
            Event::Annot(Annotation::Malloc { base, size }) => {
                let va = self.meta.map(*base, cost);
                cost.instr(10 + size / 2); // two 4-byte stores per application word
                cost.mem(va);
                if *size == 0 {
                    // A misaligned empty block still names the word it
                    // starts in; the range fill would skip it.
                    for a in words(*base, 0) {
                        self.set_word_record(a, TaintRecord::CLEAN);
                    }
                } else {
                    self.meta.shadow_mut().set_elem_range(*base, *size, TaintRecord::CLEAN.pack());
                }
            }
            Event::Annot(Annotation::ReadInput { base, len }) => {
                let va = self.meta.map(*base, cost);
                cost.instr(10 + len / 2);
                cost.mem(va);
                for a in words(*base, *len) {
                    // Input bytes: the "from" is the input buffer itself,
                    // stamped with the read-annotation site.
                    self.set_word_record(a, TaintRecord { from: a, eip: ev.pc });
                }
            }
            _ => cost.instr(1),
        }
    }

    fn premark_region(&mut self, _base: u32, _len: u32) {}

    fn metadata_bytes(&self) -> u64 {
        self.meta.metadata_bytes() + 64
    }
}

/// The 4-byte words overlapping the annotated block `[base, base+len)`,
/// modulo 2^32: a block recorded at the top of the address space continues
/// at address 0 instead of overflowing the walk.
fn words(base: u32, len: u32) -> impl Iterator<Item = u32> {
    let count = ((base & 3) as u64 + len as u64).div_ceil(4);
    (0..count).map(move |i| (base & !3).wrapping_add(i as u32 * 4))
}

#[cfg(test)]
mod tests {
    use super::*;
    use igm_lba::CheckKind;

    fn run(lg: &mut TaintCheckDetailed, pc: u32, event: Event) {
        let mut c = CostSink::new();
        lg.handle(&DeliveredEvent::new(pc, event), &mut c);
    }

    #[test]
    fn trail_reconstruction_through_copies() {
        let mut lg = TaintCheckDetailed::new(&AccelConfig::baseline());
        // Input at 0x9000, copied 0x9000 -> %eax (pc 0x10) -> 0xa000
        // (pc 0x20) -> 0xb000 via mem_to_mem (pc 0x30).
        run(&mut lg, 1, Event::Annot(Annotation::ReadInput { base: 0x9000, len: 4 }));
        run(
            &mut lg,
            0x10,
            Event::Prop(OpClass::MemToReg { src: MemRef::word(0x9000), rd: Reg::Eax }),
        );
        run(
            &mut lg,
            0x20,
            Event::Prop(OpClass::RegToMem { rs: Reg::Eax, dst: MemRef::word(0xa000) }),
        );
        run(
            &mut lg,
            0x30,
            Event::Prop(OpClass::MemToMem { src: MemRef::word(0xa000), dst: MemRef::word(0xb000) }),
        );
        assert!(lg.mem_tainted(MemRef::word(0xb000)));
        let trail = lg.taint_trail(0xb000, 8);
        assert_eq!(
            trail,
            vec![(0xb000, 0x30), (0xa000, 0x20), (0x9000, 1)],
            "trail must walk back to the input read"
        );
    }

    #[test]
    fn clean_data_has_empty_trail() {
        let mut lg = TaintCheckDetailed::new(&AccelConfig::baseline());
        run(&mut lg, 1, Event::Prop(OpClass::ImmToMem { dst: MemRef::word(0x9000) }));
        assert!(lg.taint_trail(0x9000, 8).is_empty());
    }

    #[test]
    fn trail_is_cycle_safe() {
        let mut lg = TaintCheckDetailed::new(&AccelConfig::baseline());
        run(&mut lg, 1, Event::Annot(Annotation::ReadInput { base: 0x9000, len: 8 }));
        // Copy 0x9000 -> 0x9004 and back, forming a cycle.
        run(
            &mut lg,
            2,
            Event::Prop(OpClass::MemToMem { src: MemRef::word(0x9000), dst: MemRef::word(0x9004) }),
        );
        run(
            &mut lg,
            3,
            Event::Prop(OpClass::MemToMem { src: MemRef::word(0x9004), dst: MemRef::word(0x9000) }),
        );
        let trail = lg.taint_trail(0x9000, 100);
        assert!(trail.len() <= 3, "cycle guard must terminate: {trail:?}");
    }

    #[test]
    fn sink_detection_matches_plain_taintcheck() {
        let mut lg = TaintCheckDetailed::new(&AccelConfig::baseline());
        run(&mut lg, 1, Event::Annot(Annotation::ReadInput { base: 0x9000, len: 4 }));
        run(&mut lg, 2, Event::Prop(OpClass::MemToReg { src: MemRef::word(0x9000), rd: Reg::Edi }));
        run(
            &mut lg,
            3,
            Event::Check { kind: CheckKind::JumpTarget, source: MetaSource::Reg(Reg::Edi) },
        );
        assert_eq!(lg.violations().len(), 1);
    }

    #[test]
    fn untainted_overwrite_clears_record() {
        let mut lg = TaintCheckDetailed::new(&AccelConfig::baseline());
        run(&mut lg, 1, Event::Annot(Annotation::ReadInput { base: 0x9000, len: 4 }));
        run(&mut lg, 2, Event::Prop(OpClass::ImmToMem { dst: MemRef::word(0x9000) }));
        assert!(!lg.mem_tainted(MemRef::word(0x9000)));
    }

    /// The `Malloc` handler as one `set_elem_u64` per word of
    /// [`words`], the reference for its range fill.
    fn malloc_per_word(lg: &mut TaintCheckDetailed, base: u32, size: u32, cost: &mut CostSink) {
        let va = lg.meta.map(base, cost);
        cost.instr(10 + size / 2);
        cost.mem(va);
        for a in words(base, size) {
            lg.set_word_record(a, TaintRecord::CLEAN);
        }
    }

    #[test]
    fn malloc_range_fill_matches_the_per_word_clean() {
        let span = 1u32 << 19; // application bytes per level-2 chunk
        let blocks = [
            (0x9003, 0),                // empty but misaligned: one word
            (0x9000, 0),                // empty and aligned: no word
            (0x1234_5673, 2),           // two words from two bytes
            (0xffff_fff6, 0x20),        // wraps past 2^32
            (span - 14, 0x40),          // straddles two chunks
            (span, span),               // one whole chunk
            (span - 3, 2 * span + 7),   // partial, whole, partial
            (0xfff8_0001, span + 0x10), // the top chunk bar a byte, then wraps
        ];
        for accel in [AccelConfig::baseline(), AccelConfig::lma()] {
            for (base, size) in blocks {
                let mut fill = TaintCheckDetailed::new(&accel);
                let mut refr = TaintCheckDetailed::new(&accel);
                // Taint the block and a margin first, so cleaning shows.
                let input = Event::Annot(Annotation::ReadInput {
                    base: base.wrapping_sub(16),
                    len: size.saturating_add(32),
                });
                run(&mut fill, 1, input);
                run(&mut refr, 1, input);
                let mut fill_cost = CostSink::new();
                let malloc = Event::Annot(Annotation::Malloc { base, size });
                fill.handle(&DeliveredEvent::new(2, malloc), &mut fill_cost);
                let mut refr_cost = CostSink::new();
                malloc_per_word(&mut refr, base, size, &mut refr_cost);

                let case = format!("{base:#x}+{size:#x} under {accel:?}");
                assert_eq!(fill_cost.instrs(), refr_cost.instrs(), "{case}");
                assert_eq!(fill_cost.mem_vas(), refr_cost.mem_vas(), "{case}");
                assert_eq!(fill.metadata_bytes(), refr.metadata_bytes(), "{case}");
                for a in words(base.wrapping_sub(16), size.saturating_add(32)) {
                    let (got, want) = (fill.word_record(a), refr.word_record(a));
                    assert_eq!(got, want, "{case}: word {a:#x}");
                }
                // Chunk addresses are handed out in first-touch order.
                for chunk in 0..TaintCheckDetailed::layout().level1_entries() {
                    let a = chunk * span;
                    let (got, want) = (fill.meta.shadow(), refr.meta.shadow());
                    assert_eq!(
                        got.chunk_base_va_if_present(a),
                        want.chunk_base_va_if_present(a),
                        "{case}: chunk {a:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn handler_costs_exceed_plain_taintcheck() {
        // The detailed variant moves 8-byte records: its store handler must
        // be costlier than the 2-bit variant's.
        let mut plain = crate::TaintCheck::new(&AccelConfig::baseline());
        let mut detailed = TaintCheckDetailed::new(&AccelConfig::baseline());
        let ev = DeliveredEvent::new(
            0x10,
            Event::Prop(OpClass::RegToMem { rs: Reg::Eax, dst: MemRef::word(0xa000) }),
        );
        let mut c1 = CostSink::new();
        plain.handle(&ev, &mut c1);
        let mut c2 = CostSink::new();
        detailed.handle(&ev, &mut c2);
        assert!(c2.instrs() > c1.instrs());
        assert!(c2.mem_vas().len() > c1.mem_vas().len());
    }
}
