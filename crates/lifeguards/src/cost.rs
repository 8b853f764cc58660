//! Handler cost accounting.
//!
//! Lifeguard handlers are real software; their *cost* is what the timing
//! model charges to the lifeguard core. Each handler reports its dynamic
//! instruction count and the metadata virtual addresses it touches (those
//! addresses flow into the lifeguard core's cache model).
//!
//! The calibration anchor is the paper's Figure 7 TaintCheck handler:
//! eight IA32 instructions with the software two-level walk — five of them
//! metadata *mapping* — versus four with the `LMA` instruction.

use igm_core::MetadataTlb;
use igm_shadow::TwoLevelShadow;

/// Instructions for the software two-level address mapping (Figure 7: five
/// of the handler's eight instructions).
pub const SOFTWARE_MAP_INSTRS: u32 = 5;

/// Instructions charged for one M-TLB miss handler invocation: fault entry,
/// level-1 table walk, `lma_fill`, return, `lma` re-execution (paper §6.3;
/// estimated, since the paper reports only that misses are rare after the
/// flexible sizing).
pub const MISS_HANDLER_INSTRS: u32 = 20;

/// The `nlba` event-dispatch instruction ending every handler.
pub const NLBA_INSTRS: u32 = 1;

/// Per-event cost accumulator, reused across events.
///
/// Two kinds exist. A *recording* sink ([`CostSink::new`]) keeps the
/// instruction count and every metadata virtual address: the timing model
/// (`igm_sim::Simulator`), the figure binaries and the cost-comparing tests
/// read them back. A *discarding* sink ([`CostSink::discarding`]) is for the
/// functional paths that only want verdicts ([`Monitor`](crate::Monitor), pool
/// sessions, epoch spines and jobs, lake replay): [`CostSink::instr`] and
/// [`CostSink::mem`] do nothing, and [`MetaMap::map`] skips the M-TLB lookup
/// and the address arithmetic whose only consumer is the timing model. What
/// the handlers *do* — shadow reads and writes, chunk allocation order,
/// violations — is the same under both.
///
/// A recording sink also keeps one [mark](CostSink::mark) per handled
/// event, so one [`Lifeguard::handle_batch`](crate::Lifeguard::handle_batch)
/// over many events still yields each event's own cost.
#[derive(Debug, Default, Clone)]
pub struct CostSink {
    instrs: u64,
    mem_vas: Vec<u32>,
    /// Per handled event: `(instrs, mem_vas.len())` when it started.
    marks: Vec<(u64, u32)>,
    discard: bool,
}

impl CostSink {
    /// A fresh recording sink.
    pub fn new() -> CostSink {
        CostSink::default()
    }

    /// A sink that drops every charge: [`CostSink::instrs`] stays zero and
    /// [`CostSink::mem_vas`] stays empty.
    pub fn discarding() -> CostSink {
        CostSink { discard: true, ..CostSink::default() }
    }

    /// Resets the sink for the next event (or batch), keeping its
    /// allocations.
    pub fn clear(&mut self) {
        self.instrs = 0;
        self.mem_vas.clear();
        self.marks.clear();
    }

    /// Marks the start of the next event's handler. Every lifeguard's
    /// [`handle_batch`](crate::Lifeguard::handle_batch) calls this once per
    /// event, so event `i`'s cost is the difference between marks `i` and
    /// `i + 1` (the sink's totals after the last event).
    #[inline]
    pub fn mark(&mut self) {
        if !self.discard {
            self.marks.push((self.instrs, self.mem_vas.len() as u32));
        }
    }

    /// Charges `n` handler instructions.
    #[inline]
    pub fn instr(&mut self, n: u32) {
        if !self.discard {
            self.instrs += n as u64;
        }
    }

    /// Records a metadata memory reference at lifeguard virtual address
    /// `va` (also counts as one instruction's memory operand; the
    /// instruction itself must be charged separately).
    #[inline]
    pub fn mem(&mut self, va: u32) {
        if !self.discard {
            self.mem_vas.push(va);
        }
    }

    /// Instructions charged so far.
    pub fn instrs(&self) -> u64 {
        self.instrs
    }

    /// Metadata references recorded so far.
    pub fn mem_vas(&self) -> &[u32] {
        &self.mem_vas
    }

    /// One `(instrs, mem_vas.len())` mark per event handled since the last
    /// [`CostSink::clear`], in order (empty on a discarding sink).
    pub fn marks(&self) -> &[(u64, u32)] {
        &self.marks
    }
}

/// A metadata map bundling the shadow memory with its (optional) M-TLB,
/// charging the correct mapping cost per translation.
///
/// Every lifeguard owns one `MetaMap` per shadow structure; `map` is the
/// first thing almost every handler does (paper §2.1, metadata mapping).
#[derive(Debug, Clone)]
pub struct MetaMap {
    shadow: TwoLevelShadow,
    mtlb: Option<MetadataTlb>,
}

impl MetaMap {
    /// Wraps `shadow`; `mtlb_entries` of `Some(n)` enables `LMA`
    /// translation through an M-TLB with `n` entries.
    pub fn new(shadow: TwoLevelShadow, mtlb_entries: Option<usize>) -> MetaMap {
        let mtlb = mtlb_entries.map(|n| {
            let mut t = MetadataTlb::new(n);
            t.lma_config(*shadow.layout());
            t
        });
        MetaMap { shadow, mtlb }
    }

    /// The underlying shadow map.
    pub fn shadow(&self) -> &TwoLevelShadow {
        &self.shadow
    }

    /// Mutable access to the underlying shadow map (for direct metadata
    /// manipulation after mapping).
    pub fn shadow_mut(&mut self) -> &mut TwoLevelShadow {
        &mut self.shadow
    }

    /// The M-TLB, when enabled.
    pub fn mtlb(&self) -> Option<&MetadataTlb> {
        self.mtlb.as_ref()
    }

    /// Translates an application address to its metadata element address,
    /// charging mapping cost: one `lma` instruction (plus the miss handler
    /// on a miss) with the M-TLB, or the five-instruction software walk
    /// with its level-1 table load without.
    ///
    /// Under a [discarding](CostSink::discarding) sink nobody reads the
    /// translation, so the M-TLB and the element arithmetic are skipped: the
    /// covering chunk is still touched (first-touch allocation order and
    /// [`MetaMap::metadata_bytes`] stay exact) and the returned address is
    /// the chunk's base, good only for handing back to [`CostSink::mem`].
    pub fn map(&mut self, app_addr: u32, cost: &mut CostSink) -> u32 {
        if cost.discard {
            return self.shadow.chunk_base_va(app_addr);
        }
        match &mut self.mtlb {
            Some(tlb) => {
                cost.instr(1); // the lma instruction itself
                let shadow = &mut self.shadow;
                let l1_va = shadow.l1_entry_va(app_addr);
                let (va, missed) = tlb.lma_or_fill(app_addr, || shadow.chunk_base_va(app_addr));
                if missed {
                    cost.instr(MISS_HANDLER_INSTRS);
                    cost.mem(l1_va);
                }
                va
            }
            None => {
                cost.instr(SOFTWARE_MAP_INSTRS);
                cost.mem(self.shadow.l1_entry_va(app_addr));
                self.shadow.elem_va(app_addr)
            }
        }
    }

    /// Metadata bytes allocated by the shadow map.
    pub fn metadata_bytes(&self) -> u64 {
        self.shadow.metadata_bytes() + 4 * self.shadow.layout().level1_entries() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igm_shadow::ShadowLayout;

    fn map_with(mtlb: Option<usize>) -> MetaMap {
        MetaMap::new(TwoLevelShadow::new(ShadowLayout::taintcheck_fig7(), 0), mtlb)
    }

    #[test]
    fn software_walk_costs_five_instructions_and_one_load() {
        let mut m = map_with(None);
        let mut c = CostSink::new();
        let va = m.map(0xb3fb_703a, &mut c);
        assert_eq!(c.instrs(), SOFTWARE_MAP_INSTRS as u64);
        assert_eq!(c.mem_vas().len(), 1);
        assert_eq!(va, m.shadow_mut().elem_va(0xb3fb_703a));
    }

    #[test]
    fn lma_hit_costs_one_instruction() {
        let mut m = map_with(Some(16));
        let mut c = CostSink::new();
        m.map(0xb3fb_703a, &mut c); // cold miss
        assert_eq!(c.instrs(), 1 + MISS_HANDLER_INSTRS as u64);
        c.clear();
        let va = m.map(0xb3fb_703a, &mut c);
        assert_eq!(c.instrs(), 1);
        assert!(c.mem_vas().is_empty());
        assert_eq!(va, m.shadow_mut().elem_va(0xb3fb_703a));
    }

    #[test]
    fn figure7_handler_cost_ratio() {
        // A dest_reg_op_mem handler: map + metadata load + combine + nlba.
        let handler = |m: &mut MetaMap| {
            let mut c = CostSink::new();
            let va = m.map(0x9000, &mut c);
            c.instr(1); // load metadata
            c.mem(va);
            c.instr(1); // or into reg_taint
            c.instr(NLBA_INSTRS);
            c.instrs()
        };
        let mut soft = map_with(None);
        assert_eq!(handler(&mut soft), 8); // Figure 7 left: 8 instructions
        let mut hw = map_with(Some(16));
        let _warm = handler(&mut hw); // cold
        assert_eq!(handler(&mut hw), 4); // Figure 7 right: 4 instructions
    }

    #[test]
    fn discarding_sink_drops_charges_but_still_touches_chunks() {
        for mtlb in [None, Some(16)] {
            let mut recorded = map_with(mtlb);
            let mut discarded = map_with(mtlb);
            let mut rec = CostSink::new();
            let mut dis = CostSink::discarding();
            // Two chunks, first-touch order b3fb then 0804, one re-touch.
            for addr in [0xb3fb_703a, 0x0804_8000, 0xb3fb_0000] {
                let va = recorded.map(addr, &mut rec);
                rec.mem(va);
                let va = discarded.map(addr, &mut dis);
                dis.instr(3);
                dis.mem(va);
            }
            assert!(rec.instrs() > 0 && !rec.mem_vas().is_empty());
            assert_eq!(dis.instrs(), 0);
            assert!(dis.mem_vas().is_empty());
            assert_eq!(discarded.metadata_bytes(), recorded.metadata_bytes());
            for addr in [0xb3fb_703a, 0x0804_8000] {
                assert_eq!(
                    discarded.shadow().chunk_base_va_if_present(addr),
                    recorded.shadow().chunk_base_va_if_present(addr),
                    "chunks allocate in the same order under both sinks"
                );
            }
            if let Some(tlb) = discarded.mtlb() {
                assert_eq!(tlb.stats().lookups, 0, "the M-TLB is not consulted");
            }
        }
    }

    #[test]
    fn cost_sink_reuse() {
        let mut c = CostSink::new();
        c.instr(3);
        c.mem(0x10);
        c.clear();
        assert_eq!(c.instrs(), 0);
        assert!(c.mem_vas().is_empty());
    }
}
