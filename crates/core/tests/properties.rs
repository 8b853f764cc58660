//! Property-based soundness tests for the three accelerators.
//!
//! The central contract (see `igm-core` crate docs) is that filtering never
//! changes lifeguard-visible state. Each accelerator gets an executable
//! oracle:
//!
//! * **IT** — a byte-granular software lifeguard implementing the paper's
//!   *unary propagation* semantics. With the clean-`%rs` optimization
//!   disabled, the IT-filtered event stream must produce *exactly* the same
//!   memory metadata, register metadata (after a final flush) and check
//!   verdicts as delivering every event. With the optimization enabled, the
//!   IT result is bounded between pessimistic-unary and generic propagation.
//! * **IF** — a model tracking which check keys are currently cached-valid;
//!   the filter must never discard a check whose key was invalidated since
//!   it was cached.
//! * **M-TLB** — the hardware translation must equal the software two-level
//!   walk for every layout/address, across reconfiguration flushes.

use igm_core::{
    IdempotentFilter, IfGeometry, IfOutcome, InheritanceTracker, ItConfig, MetadataTlb,
};
use igm_isa::{MemRef, MemSize, OpClass, Reg, RegSet};
use igm_lba::{CheckKind, DeliveredEvent, Event, IfEventConfig, MetaSource};
use igm_shadow::layout::ElemSize;
use igm_shadow::{ShadowLayout, TwoLevelShadow};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

// ---------------------------------------------------------------------------
// Byte-granular taint lifeguard model (the oracle).
// ---------------------------------------------------------------------------

/// Propagation semantics implemented by the model.
#[derive(Clone, Copy, PartialEq)]
enum Semantics {
    /// Non-unary destinations always become clean (pure unary assumption).
    PessimisticUnary,
    /// Non-unary destinations inherit the OR of their sources.
    Generic,
}

#[derive(Clone, Default)]
struct TaintModel {
    mem: HashMap<u32, bool>,
    regs: [[bool; 4]; 8],
}

impl TaintModel {
    fn mem_taint(&self, addr: u32) -> bool {
        *self.mem.get(&addr).unwrap_or(&false)
    }

    fn reg_clean(&self, r: Reg) -> bool {
        self.regs[r.index()].iter().all(|t| !t)
    }

    fn mem_range_any(&self, m: MemRef) -> bool {
        (0..m.size.bytes()).any(|i| self.mem_taint(m.addr.wrapping_add(i)))
    }

    fn set_mem_range(&mut self, m: MemRef, v: bool) {
        for i in 0..m.size.bytes() {
            self.mem.insert(m.addr.wrapping_add(i), v);
        }
    }

    fn check_verdict(&self, source: MetaSource) -> bool {
        match source {
            MetaSource::Reg(r) => !self.reg_clean(r),
            MetaSource::Mem(m) => self.mem_range_any(m),
        }
    }

    /// Applies one propagation event under the chosen semantics.
    fn apply(&mut self, op: &OpClass, sem: Semantics) {
        match *op {
            OpClass::ImmToReg { rd } => self.regs[rd.index()] = [false; 4],
            OpClass::ImmToMem { dst } => self.set_mem_range(dst, false),
            OpClass::RegSelf { .. } | OpClass::MemSelf { .. } | OpClass::ReadOnly { .. } => {}
            OpClass::RegToReg { rs, rd } => self.regs[rd.index()] = self.regs[rs.index()],
            OpClass::RegToMem { rs, dst } => {
                let v = self.regs[rs.index()];
                for i in 0..dst.size.bytes() {
                    self.mem.insert(dst.addr.wrapping_add(i), v[i as usize]);
                }
            }
            OpClass::MemToReg { src, rd } => {
                let mut v = [false; 4];
                for i in 0..src.size.bytes() {
                    v[i as usize] = self.mem_taint(src.addr.wrapping_add(i));
                }
                self.regs[rd.index()] = v;
            }
            OpClass::MemToMem { src, dst } => {
                // Read fully before writing (overlap-safe), zero-extend.
                let vals: Vec<bool> = (0..dst.size.bytes())
                    .map(|i| {
                        if i < src.size.bytes() {
                            self.mem_taint(src.addr.wrapping_add(i))
                        } else {
                            false
                        }
                    })
                    .collect();
                for (i, v) in vals.into_iter().enumerate() {
                    self.mem.insert(dst.addr.wrapping_add(i as u32), v);
                }
            }
            OpClass::DestRegOpReg { rs, rd } => match sem {
                Semantics::PessimisticUnary => self.regs[rd.index()] = [false; 4],
                Semantics::Generic => {
                    let any = !self.reg_clean(rs) || !self.reg_clean(rd);
                    self.regs[rd.index()] = [any; 4];
                }
            },
            OpClass::DestRegOpMem { src, rd } => match sem {
                Semantics::PessimisticUnary => self.regs[rd.index()] = [false; 4],
                Semantics::Generic => {
                    let any = self.mem_range_any(src) || !self.reg_clean(rd);
                    self.regs[rd.index()] = [any; 4];
                }
            },
            OpClass::DestMemOpReg { rs, dst } => match sem {
                Semantics::PessimisticUnary => self.set_mem_range(dst, false),
                Semantics::Generic => {
                    let any = !self.reg_clean(rs) || self.mem_range_any(dst);
                    self.set_mem_range(dst, any);
                }
            },
            OpClass::Other { writes, mem_write, .. } => {
                for r in writes.iter() {
                    self.regs[r.index()] = [false; 4];
                }
                if let Some(mw) = mem_write {
                    self.set_mem_range(mw, false);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Event generators.
// ---------------------------------------------------------------------------

fn arb_reg() -> impl Strategy<Value = Reg> {
    (0usize..8).prop_map(Reg::from_index)
}

fn arb_memref() -> impl Strategy<Value = MemRef> {
    // A small, heavily reused address window so overlaps and conflicts are
    // common.
    (0u32..48, prop_oneof![Just(MemSize::B1), Just(MemSize::B2), Just(MemSize::B4)])
        .prop_map(|(a, s)| MemRef::new(0x9000 + a, s))
}

fn arb_op() -> impl Strategy<Value = OpClass> {
    prop_oneof![
        arb_reg().prop_map(|rd| OpClass::ImmToReg { rd }),
        arb_memref().prop_map(|dst| OpClass::ImmToMem { dst }),
        arb_reg().prop_map(|rd| OpClass::RegSelf { rd }),
        arb_memref().prop_map(|dst| OpClass::MemSelf { dst }),
        (arb_reg(), arb_reg()).prop_map(|(rs, rd)| OpClass::RegToReg { rs, rd }),
        (arb_reg(), arb_memref()).prop_map(|(rs, dst)| OpClass::RegToMem { rs, dst }),
        (arb_memref(), arb_reg()).prop_map(|(src, rd)| OpClass::MemToReg { src, rd }),
        (arb_memref(), arb_memref()).prop_map(|(src, dst)| OpClass::MemToMem { src, dst }),
        (arb_reg(), arb_reg()).prop_map(|(rs, rd)| OpClass::DestRegOpReg { rs, rd }),
        (arb_memref(), arb_reg()).prop_map(|(src, rd)| OpClass::DestRegOpMem { src, rd }),
        (arb_reg(), arb_memref()).prop_map(|(rs, dst)| OpClass::DestMemOpReg { rs, dst }),
        (arb_reg(), arb_reg(), proptest::option::of(arb_memref())).prop_map(|(a, b, mw)| {
            OpClass::Other {
                reads: RegSet::from_regs([a]),
                writes: RegSet::from_regs([a, b]),
                mem_read: None,
                mem_write: mw,
            }
        }),
    ]
}

/// An interleaved program: propagation ops, with occasional taint seeds
/// (modelling `ReadInput` handlers writing tainted metadata would need an
/// annotation; instead we seed taint directly in both paths) and check
/// probes.
#[derive(Debug, Clone)]
enum Step {
    Op(OpClass),
    SeedTaint(MemRef),
    CheckReg(Reg),
    CheckMem(MemRef),
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        6 => arb_op().prop_map(Step::Op),
        1 => arb_memref().prop_map(Step::SeedTaint),
        1 => arb_reg().prop_map(Step::CheckReg),
        1 => arb_memref().prop_map(Step::CheckMem),
    ]
}

/// Runs a step sequence through the IT hardware, applying delivered events
/// to a software model; returns the model and collected check verdicts.
fn run_it_path(steps: &[Step], cfg: ItConfig, sem: Semantics) -> (TaintModel, Vec<bool>) {
    let mut it = InheritanceTracker::new(cfg);
    let mut sw = TaintModel::default();
    let mut verdicts = Vec::new();
    let mut out: Vec<DeliveredEvent> = Vec::new();
    for (pc, step) in steps.iter().enumerate() {
        out.clear();
        match step {
            Step::Op(op) => it.process(pc as u32, Event::Prop(*op), &mut out),
            Step::SeedTaint(m) => {
                // Taint arrives via an annotation in real life; the dispatch
                // pipeline flushes IT first, so do the same here.
                it.flush_all(pc as u32, &mut out);
                for d in out.drain(..) {
                    if let Event::Prop(op) = d.event {
                        sw.apply(&op, sem);
                    }
                }
                sw.set_mem_range(*m, true);
                continue;
            }
            Step::CheckReg(r) => {
                it.process(
                    pc as u32,
                    Event::Check { kind: CheckKind::JumpTarget, source: MetaSource::Reg(*r) },
                    &mut out,
                );
                // Filtered check => clean verdict; otherwise evaluate the
                // (possibly rewritten) source against software state.
                let verdict = out.drain(..).fold(false, |acc, d| {
                    acc | match d.event {
                        Event::Check { source, .. } => sw.check_verdict(source),
                        _ => unreachable!("check processing only emits checks"),
                    }
                });
                verdicts.push(verdict);
                continue;
            }
            Step::CheckMem(m) => {
                verdicts.push(sw.check_verdict(MetaSource::Mem(*m)));
                continue;
            }
        }
        for d in out.drain(..) {
            match d.event {
                Event::Prop(op) => sw.apply(&op, sem),
                Event::Check { .. } => { /* MemCheck-style eager checks */ }
                _ => unreachable!("IT only emits props and checks"),
            }
        }
    }
    // Final flush: software must end up with the complete register state.
    out.clear();
    it.flush_all(u32::MAX, &mut out);
    for d in out.drain(..) {
        if let Event::Prop(op) = d.event {
            sw.apply(&op, sem);
        }
    }
    (sw, verdicts)
}

/// Runs the same steps delivering every event directly (the baseline).
fn run_baseline(steps: &[Step], sem: Semantics) -> (TaintModel, Vec<bool>) {
    let mut sw = TaintModel::default();
    let mut verdicts = Vec::new();
    for step in steps {
        match step {
            Step::Op(op) => sw.apply(op, sem),
            Step::SeedTaint(m) => sw.set_mem_range(*m, true),
            Step::CheckReg(r) => verdicts.push(sw.check_verdict(MetaSource::Reg(*r))),
            Step::CheckMem(m) => verdicts.push(sw.check_verdict(MetaSource::Mem(*m))),
        }
    }
    (sw, verdicts)
}

fn taint_set(m: &TaintModel) -> HashSet<u32> {
    m.mem.iter().filter(|(_, t)| **t).map(|(a, _)| *a).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// With the clean-`%rs` optimization off, IT is an exact filter: final
    /// memory metadata, flushed register metadata and every check verdict
    /// equal the deliver-everything baseline under pessimistic-unary
    /// semantics.
    #[test]
    fn it_exactly_preserves_pessimistic_unary_semantics(
        steps in proptest::collection::vec(arb_step(), 1..120)
    ) {
        let cfg = ItConfig {
            nonunary_check: false,
            clean_rs_do_nothing: false,
            conflict_detection: true,
        };
        let (sw_it, v_it) = run_it_path(&steps, cfg, Semantics::PessimisticUnary);
        let (sw_base, v_base) = run_baseline(&steps, Semantics::PessimisticUnary);
        prop_assert_eq!(v_it, v_base);
        prop_assert_eq!(taint_set(&sw_it), taint_set(&sw_base));
        prop_assert_eq!(sw_it.regs, sw_base.regs);
    }

    /// With the optimization on, the IT result is bounded: at least as
    /// tainted as pessimistic unary, at most as tainted as generic
    /// propagation.
    #[test]
    fn it_with_clean_rs_optimization_is_bounded(
        steps in proptest::collection::vec(arb_step(), 1..120)
    ) {
        let cfg = ItConfig::default();
        let (sw_it, _) = run_it_path(&steps, cfg, Semantics::PessimisticUnary);
        let (lo, _) = run_baseline(&steps, Semantics::PessimisticUnary);
        let (hi, _) = run_baseline(&steps, Semantics::Generic);
        let it_taint = taint_set(&sw_it);
        let lo_taint = taint_set(&lo);
        let hi_taint = taint_set(&hi);
        prop_assert!(lo_taint.is_subset(&it_taint),
            "optimization must never lose pessimistic taint: missing {:?}",
            lo_taint.difference(&it_taint).collect::<Vec<_>>());
        prop_assert!(it_taint.is_subset(&hi_taint),
            "optimization must never exceed generic taint: extra {:?}",
            it_taint.difference(&hi_taint).collect::<Vec<_>>());
    }

    /// The Idempotent Filter never discards a check whose key was
    /// invalidated after it was cached (no stale filtering), for arbitrary
    /// interleavings and geometries.
    #[test]
    fn if_never_filters_stale_checks(
        ops in proptest::collection::vec((0u8..3, 0u32..32), 1..200),
        entries_log2 in 1u32..6,
        ways_sel in 0usize..3,
    ) {
        let entries = 1usize << entries_log2;
        let ways = [0, 1, 2][ways_sel].min(entries);
        let geom = if ways == 0 {
            IfGeometry::fully_associative(entries)
        } else {
            IfGeometry::set_associative(entries, ways)
        };
        let mut f = IdempotentFilter::new(geom);
        let check_cfg = IfEventConfig::cacheable_addr(0);
        let inval_match_cfg = IfEventConfig::invalidates_match(0, igm_lba::FieldSelect::ADDR_SIZE);
        let inval_all_cfg = IfEventConfig::invalidates_all();
        // Model: keys valid since their last insert (ignores capacity, so it
        // over-approximates cache contents).
        let mut valid: HashSet<u32> = HashSet::new();
        for (kind, a) in ops {
            let addr = 0x9000 + a * 4;
            let ev_check = Event::MemRead(MemRef::word(addr));
            match kind {
                0 => {
                    let outcome = f.process(0, &ev_check, &check_cfg);
                    if outcome == IfOutcome::Filtered {
                        prop_assert!(valid.contains(&addr),
                            "filtered a check at {addr:#x} that was invalidated");
                    }
                    valid.insert(addr);
                }
                1 => {
                    let ev = Event::MemWrite(MemRef::word(addr));
                    prop_assert_eq!(f.process(0, &ev, &inval_match_cfg), IfOutcome::Deliver);
                    valid.remove(&addr);
                }
                _ => {
                    let ev = Event::Annot(igm_isa::Annotation::Free { base: addr });
                    prop_assert_eq!(f.process(0, &ev, &inval_all_cfg), IfOutcome::Deliver);
                    valid.clear();
                }
            }
        }
    }

    /// Hardware `lma` translation equals the software two-level walk for
    /// arbitrary layouts and addresses, across reconfigurations.
    #[test]
    fn mtlb_matches_software_walk(
        l1_bits in 8u8..=20,
        elem_sel in 0u8..4,
        app_bytes_log2 in 0u32..4,
        addrs in proptest::collection::vec(any::<u32>(), 1..60),
        capacity_log2 in 1u32..6,
    ) {
        let elem = [ElemSize::B1, ElemSize::B2, ElemSize::B4, ElemSize::B8][elem_sel as usize];
        let app_bytes = 1u32 << app_bytes_log2;
        prop_assume!(32 - (l1_bits as u32) - app_bytes_log2 >= 1);
        let layout = ShadowLayout::for_coverage(l1_bits, app_bytes, elem).unwrap();
        let mut tlb = MetadataTlb::new(1 << capacity_log2);
        tlb.lma_config(layout);
        let mut shadow = TwoLevelShadow::new(layout, 0);
        for (i, a) in addrs.iter().enumerate() {
            if i == addrs.len() / 2 {
                // Mid-run reconfiguration with the same layout flushes the
                // TLB; translations must still agree afterwards.
                tlb.lma_config(layout);
            }
            let (va, _missed) = tlb.lma_or_fill(*a, || shadow.chunk_base_va(*a));
            prop_assert_eq!(va, shadow.elem_va(*a));
        }
    }

    /// The filter is deterministic: identical event sequences produce
    /// identical outcomes (no hidden global state).
    #[test]
    fn if_is_deterministic(
        ops in proptest::collection::vec((any::<bool>(), 0u32..64), 1..100)
    ) {
        let run = || {
            let mut f = IdempotentFilter::new(IfGeometry::set_associative(16, 4));
            let cfg = IfEventConfig::cacheable_addr(0);
            ops.iter().map(|(is_read, a)| {
                let m = MemRef::word(0x1000 + a * 4);
                let ev = if *is_read { Event::MemRead(m) } else { Event::MemWrite(m) };
                f.process(0, &ev, &cfg) == IfOutcome::Filtered
            }).collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }
}
