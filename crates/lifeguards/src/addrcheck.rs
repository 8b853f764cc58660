//! AddrCheck: every memory access must touch allocated memory (Table 1).
//!
//! Metadata is one *accessible* bit per application byte, kept in a
//! two-level shadow map (1-byte elements covering 8 application bytes).
//! `malloc`/`free` wrapper annotations flip the bits; every load and store
//! checks them. Auxiliary malloc/free record lists catch double frees,
//! invalid frees and leaks.
//!
//! Under the Idempotent Filter, loads and stores share one check category
//! (the check is identical), keyed on address and size; `malloc`, `free`
//! and system calls invalidate the whole filter (paper §5).

use crate::cost::{CostSink, MetaMap, SOFTWARE_MAP_INSTRS};
use crate::violation::Violation;
use crate::{Lifeguard, LifeguardKind};
use igm_core::AccelConfig;
use igm_isa::{Annotation, MemRef};
use igm_lba::{DeliveredEvent, Etct, Event, EventType, IfEventConfig};
use igm_shadow::layout::ElemSize;
use igm_shadow::{ShadowLayout, TwoLevelShadow};
use std::collections::HashMap;

/// Accessible-bit value.
const ACCESSIBLE: u8 = 1;

/// Application page size covered by one bit of the page-accessibility
/// bitmap.
const PAGE_SHIFT: u32 = 12;
/// Pages in the 32-bit application space.
const PAGE_COUNT: usize = 1 << (32 - PAGE_SHIFT);

/// One entry of the merged malloc/free record list: the recorded size and
/// whether the block is currently live (a dead slot is a freed base kept
/// for double-free detection).
#[derive(Debug, Clone, Copy)]
struct AllocSlot {
    size: u32,
    live: bool,
}

/// The AddrCheck lifeguard.
#[derive(Debug, Clone)]
pub struct AddrCheck {
    meta: MetaMap,
    /// Merged malloc/free record list: base → (size, live?).
    allocs: HashMap<u32, AllocSlot>,
    /// One bit per 4 KiB application page; set ⇒ *every* byte of the page
    /// is accessible, so an access that stays inside such a page needs no
    /// shadow walk at all (the software mirror of the paper's check
    /// filtering: the common in-bounds case is a couple of loads).
    page_acc: Box<[u8]>,
    violations: Vec<Violation>,
    /// Total checks performed (for reports).
    checks: u64,
}

impl AddrCheck {
    /// One accessible bit per byte: 1-byte elements covering 8 application
    /// bytes, 16-bit level-1 index.
    pub fn layout() -> ShadowLayout {
        ShadowLayout::for_coverage(12, 8, ElemSize::B1).expect("constant layout is valid")
    }

    /// Builds AddrCheck under `cfg` (only the `lma` and `mtlb_entries`
    /// fields are relevant; IT never applies).
    pub fn new(cfg: &AccelConfig) -> AddrCheck {
        let shadow = TwoLevelShadow::new(Self::layout(), 0);
        AddrCheck {
            meta: MetaMap::new(shadow, cfg.lma.then_some(cfg.mtlb_entries)),
            allocs: HashMap::new(),
            page_acc: vec![0u8; PAGE_COUNT / 8].into_boxed_slice(),
            violations: Vec::new(),
            checks: 0,
        }
    }

    /// Number of access checks performed.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Reports every still-live block as a leak (call at program exit, as
    /// the real tool does; synthetic workloads intentionally skip this).
    pub fn report_leaks(&mut self) {
        let mut leaks: Vec<_> =
            self.allocs.iter().filter(|(_, s)| s.live).map(|(b, s)| (*b, s.size)).collect();
        leaks.sort_unstable();
        for (base, size) in leaks {
            self.violations.push(Violation::Leak { base, size });
        }
    }

    #[inline]
    fn page_bit(&self, page: u32) -> bool {
        self.page_acc[(page >> 3) as usize] & (1 << (page & 7)) != 0
    }

    /// Maintains the page bitmap for a metadata range update. Marking
    /// accessible sets the bits of *fully covered* pages only; revoking
    /// clears the bits of every overlapped page (conservative: a clear bit
    /// merely means "walk the shadow").
    fn update_page_bitmap(&mut self, base: u32, len: u32, accessible: bool) {
        if len == 0 {
            return;
        }
        // A block that runs past the top of the address space continues at
        // page 0, like the metadata range it mirrors.
        let end = base as u64 + len as u64; // exclusive
        let page = |p: u64| ((p % PAGE_COUNT as u64) >> 3, 1u8 << (p & 7));
        if accessible {
            let first = (base as u64).div_ceil(1 << PAGE_SHIFT);
            let last = end >> PAGE_SHIFT; // exclusive
            for p in first..last {
                let (byte, bit) = page(p);
                self.page_acc[byte as usize] |= bit;
            }
        } else {
            let first = (base as u64) >> PAGE_SHIFT;
            let last = (end - 1) >> PAGE_SHIFT; // inclusive
            for p in first..=last {
                let (byte, bit) = page(p);
                self.page_acc[byte as usize] &= !bit;
            }
        }
    }

    #[inline]
    fn check_access(&mut self, pc: u32, mref: MemRef, is_write: bool, cost: &mut CostSink) {
        self.checks += 1;
        let va = self.meta.map(mref.addr, cost);
        // Fast path: load the element, compute the in-element bit offset,
        // extract the per-byte bit field (shift, mask), compare against the
        // all-accessible pattern for the access size, branch.
        cost.instr(6);
        cost.mem(va);
        // Accesses crossing an element boundary re-map the tail. A record at
        // the very top of the address space may name bytes that wrap to its
        // bottom (`last < addr`): the tail is then simply another element.
        let last = mref.addr.wrapping_add(mref.size.bytes() - 1);
        if self.meta.shadow().layout().l1_index(last)
            != self.meta.shadow().layout().l1_index(mref.addr)
            || self.meta.shadow().layout().elem_index(last)
                != self.meta.shadow().layout().elem_index(mref.addr)
        {
            let va2 = self.meta.map(last, cost);
            cost.instr(2);
            cost.mem(va2);
        }
        // An access that stays inside one fully-accessible page needs no
        // shadow walk; anything else — a wrapping access included, which
        // `packed_all` checks byte by byte modulo 2^32 — takes the (packed,
        // byte-at-a-time at worst) range check.
        let page = mref.addr >> PAGE_SHIFT;
        if (last >= mref.addr && last >> PAGE_SHIFT == page && self.page_bit(page))
            || self.meta.shadow().packed_all(mref.addr, mref.size.bytes(), ACCESSIBLE)
        {
            return;
        }
        self.violations.push(Violation::UnallocatedAccess { pc, mref, is_write });
    }

    fn mark_range(&mut self, base: u32, len: u32, v: u8, cost: &mut CostSink) {
        // The handler memsets the metadata word-at-a-time: one 4-byte store
        // covers 32 application bytes; each metadata cache line is touched
        // once.
        let elems = len.div_ceil(8).max(1);
        cost.instr(4 + elems.div_ceil(4));
        for a in metadata_lines(base, len) {
            let va = self.meta.map(a, cost);
            cost.mem(va);
        }
        self.set_range(base, len, v);
    }

    fn set_range(&mut self, base: u32, len: u32, v: u8) {
        self.meta.shadow_mut().packed_set_range(base, len, v);
        self.update_page_bitmap(base, len, v == ACCESSIBLE);
    }
}

/// The application addresses at which a memset over the metadata of
/// `[base, base+len)` maps a new metadata line: one per 512 application
/// bytes.
fn metadata_lines(base: u32, len: u32) -> impl Iterator<Item = u32> {
    (base..base.saturating_add(len)).step_by(512)
}

impl Lifeguard for AddrCheck {
    fn kind(&self) -> LifeguardKind {
        LifeguardKind::AddrCheck
    }

    fn etct(&self) -> Etct {
        let mut etct = Etct::new();
        // Loads and stores perform the same check: one CC value.
        etct.register(EventType::MemRead, IfEventConfig::cacheable_addr(0));
        etct.register(EventType::MemWrite, IfEventConfig::cacheable_addr(0));
        // Metadata-changing rare events invalidate the filter.
        etct.register(EventType::Malloc, IfEventConfig::invalidates_all());
        etct.register(EventType::Free, IfEventConfig::invalidates_all());
        etct.register(EventType::Syscall, IfEventConfig::invalidates_all());
        // Kernel writes into a user buffer: the buffer must be allocated.
        etct.register_plain(EventType::ReadInput);
        etct
    }

    fn handle(&mut self, ev: &DeliveredEvent, cost: &mut CostSink) {
        match ev.event {
            Event::MemRead(m) => self.check_access(ev.pc, m, false, cost),
            Event::MemWrite(m) => self.check_access(ev.pc, m, true, cost),
            Event::Annot(Annotation::Malloc { base, size }) => {
                self.mark_range(base, size, ACCESSIBLE, cost);
                self.allocs.insert(base, AllocSlot { size, live: true });
                cost.instr(20); // record-list update
            }
            Event::Annot(Annotation::Free { base }) => {
                cost.instr(20);
                let slot = self.allocs.get_mut(&base).map(|s| {
                    let was_live = s.live;
                    s.live = false;
                    (was_live, s.size)
                });
                match slot {
                    Some((true, size)) => self.mark_range(base, size, 0, cost),
                    Some((false, _)) => {
                        self.violations.push(Violation::DoubleFree { pc: ev.pc, base })
                    }
                    None => self.violations.push(Violation::InvalidFree { pc: ev.pc, base }),
                }
            }
            Event::Annot(Annotation::ReadInput { base, len }) => {
                // The whole buffer must be accessible.
                let mref = MemRef::word(base);
                self.checks += 1;
                let va = self.meta.map(base, cost);
                cost.instr(3 + len / 512);
                cost.mem(va);
                if !self.meta.shadow().packed_all(base, len, ACCESSIBLE) {
                    self.violations.push(Violation::UnallocatedAccess {
                        pc: ev.pc,
                        mref,
                        is_write: true,
                    });
                }
            }
            Event::Annot(Annotation::Syscall { .. }) => {
                cost.instr(5); // bookkeeping only
            }
            _ => {
                // Unreachable under this lifeguard's ETCT.
                cost.instr(1);
            }
        }
    }

    /// Columnar batch override: the overwhelmingly common access-check
    /// events take a monomorphic loop whose fast path (page-bitmap hit) is
    /// a couple of loads; everything else falls through to the per-event
    /// handler. Event-for-event equivalent to the default loop.
    fn handle_batch(&mut self, evs: &[DeliveredEvent], cost: &mut CostSink) {
        for ev in evs {
            match ev.event {
                Event::MemRead(m) => self.check_access(ev.pc, m, false, cost),
                Event::MemWrite(m) => self.check_access(ev.pc, m, true, cost),
                _ => self.handle(ev, cost),
            }
        }
    }

    fn violations(&self) -> &[Violation] {
        &self.violations
    }

    fn take_violations(&mut self) -> Vec<Violation> {
        std::mem::take(&mut self.violations)
    }

    fn premark_region(&mut self, base: u32, len: u32) {
        // The malloc handler's walk, because it leaves the M-TLB as an
        // allocation of the region would and the timing model can tell; its
        // charges are dropped line by line, so the scratch sink stays empty
        // however large the region.
        let mut scratch = CostSink::new();
        for a in metadata_lines(base, len) {
            scratch.clear();
            self.meta.map(a, &mut scratch);
        }
        self.set_range(base, len, ACCESSIBLE);
    }

    fn metadata_bytes(&self) -> u64 {
        self.meta.metadata_bytes() + self.allocs.len() as u64 * 8
    }
    fn try_snapshot(&self) -> Option<Box<dyn Lifeguard + Send>> {
        Some(crate::ShardableLifeguard::snapshot_shard(self))
    }
}

/// The paper's baseline mapping cost is visible in this module's handlers:
/// exported for the documentation tests.
pub const ACCESS_CHECK_FAST_PATH_INSTRS: u32 = SOFTWARE_MAP_INSTRS + 6;

#[cfg(test)]
mod tests {
    use super::*;
    use igm_isa::MemSize;

    fn ev(pc: u32, event: Event) -> DeliveredEvent {
        DeliveredEvent::new(pc, event)
    }

    fn run(lg: &mut AddrCheck, event: Event) -> u64 {
        let mut c = CostSink::new();
        lg.handle(&ev(0x1000, event), &mut c);
        c.instrs()
    }

    #[test]
    fn access_to_unallocated_memory_is_flagged() {
        let mut lg = AddrCheck::new(&AccelConfig::baseline());
        run(&mut lg, Event::MemRead(MemRef::word(0x9000)));
        assert_eq!(lg.violations().len(), 1);
        assert!(matches!(lg.violations()[0], Violation::UnallocatedAccess { is_write: false, .. }));
    }

    #[test]
    fn malloc_makes_memory_accessible_free_revokes() {
        let mut lg = AddrCheck::new(&AccelConfig::baseline());
        run(&mut lg, Event::Annot(Annotation::Malloc { base: 0x9000, size: 64 }));
        run(&mut lg, Event::MemRead(MemRef::word(0x9000)));
        run(&mut lg, Event::MemWrite(MemRef::word(0x903c)));
        assert!(lg.violations().is_empty());
        // Out-of-bounds just past the block.
        run(&mut lg, Event::MemRead(MemRef::word(0x9040)));
        assert_eq!(lg.violations().len(), 1);
        // Use after free.
        run(&mut lg, Event::Annot(Annotation::Free { base: 0x9000 }));
        run(&mut lg, Event::MemRead(MemRef::word(0x9000)));
        assert_eq!(lg.violations().len(), 2);
    }

    #[test]
    fn boundary_access_straddling_block_end_is_flagged() {
        let mut lg = AddrCheck::new(&AccelConfig::baseline());
        run(&mut lg, Event::Annot(Annotation::Malloc { base: 0x9000, size: 62 }));
        // 4-byte access at 0x903c covers bytes 60..64, one past the block.
        run(&mut lg, Event::MemRead(MemRef::new(0x903c, MemSize::B4)));
        assert_eq!(lg.violations().len(), 1);
    }

    #[test]
    fn double_free_and_invalid_free() {
        let mut lg = AddrCheck::new(&AccelConfig::baseline());
        run(&mut lg, Event::Annot(Annotation::Malloc { base: 0x9000, size: 64 }));
        run(&mut lg, Event::Annot(Annotation::Free { base: 0x9000 }));
        run(&mut lg, Event::Annot(Annotation::Free { base: 0x9000 }));
        assert!(matches!(lg.violations()[0], Violation::DoubleFree { base: 0x9000, .. }));
        run(&mut lg, Event::Annot(Annotation::Free { base: 0xdead_0000 }));
        assert!(matches!(lg.violations()[1], Violation::InvalidFree { .. }));
    }

    #[test]
    fn leaks_reported_on_demand() {
        let mut lg = AddrCheck::new(&AccelConfig::baseline());
        run(&mut lg, Event::Annot(Annotation::Malloc { base: 0x9000, size: 64 }));
        run(&mut lg, Event::Annot(Annotation::Malloc { base: 0xa000, size: 32 }));
        run(&mut lg, Event::Annot(Annotation::Free { base: 0x9000 }));
        assert!(lg.violations().is_empty());
        lg.report_leaks();
        assert_eq!(lg.violations(), &[Violation::Leak { base: 0xa000, size: 32 }]);
    }

    #[test]
    fn premarked_regions_are_accessible_but_not_freeable() {
        let mut lg = AddrCheck::new(&AccelConfig::baseline());
        lg.premark_region(0xbff0_0000, 0x1000);
        run(&mut lg, Event::MemWrite(MemRef::word(0xbff0_0800)));
        assert!(lg.violations().is_empty());
        run(&mut lg, Event::Annot(Annotation::Free { base: 0xbff0_0000 }));
        assert!(matches!(lg.violations()[0], Violation::InvalidFree { .. }));
    }

    #[test]
    fn lma_halves_check_fast_path() {
        let mut base = AddrCheck::new(&AccelConfig::baseline());
        base.premark_region(0x9000, 64);
        let c_base = run(&mut base, Event::MemRead(MemRef::word(0x9000)));
        assert_eq!(c_base, (SOFTWARE_MAP_INSTRS + 6) as u64);

        let mut fast = AddrCheck::new(&AccelConfig::lma());
        fast.premark_region(0x9000, 64);
        run(&mut fast, Event::MemRead(MemRef::word(0x9000))); // cold miss
        let c_fast = run(&mut fast, Event::MemRead(MemRef::word(0x9000)));
        assert_eq!(c_fast, 7);
    }

    #[test]
    fn readinput_into_unallocated_buffer_is_flagged() {
        let mut lg = AddrCheck::new(&AccelConfig::baseline());
        run(&mut lg, Event::Annot(Annotation::ReadInput { base: 0x9000, len: 128 }));
        assert_eq!(lg.violations().len(), 1);
    }

    #[test]
    fn page_bitmap_fast_path_tracks_allocation_lifecycle() {
        let mut lg = AddrCheck::new(&AccelConfig::baseline());
        // Two fully-covered pages: their bits go hot.
        run(&mut lg, Event::Annot(Annotation::Malloc { base: 0x2000_0000, size: 0x2000 }));
        assert!(lg.page_bit(0x2000_0000 >> PAGE_SHIFT));
        assert!(lg.page_bit(0x2000_1000 >> PAGE_SHIFT));
        run(&mut lg, Event::MemRead(MemRef::word(0x2000_0ffc))); // page-bit hit
        run(&mut lg, Event::MemRead(MemRef::word(0x2000_0ffe))); // crosses pages
        assert!(lg.violations().is_empty());
        // Free revokes the bits and the access flags again.
        run(&mut lg, Event::Annot(Annotation::Free { base: 0x2000_0000 }));
        assert!(!lg.page_bit(0x2000_0000 >> PAGE_SHIFT));
        run(&mut lg, Event::MemRead(MemRef::word(0x2000_0000)));
        assert_eq!(lg.violations().len(), 1);
    }

    #[test]
    fn partial_page_allocations_never_set_page_bits() {
        let mut lg = AddrCheck::new(&AccelConfig::baseline());
        run(&mut lg, Event::Annot(Annotation::Malloc { base: 0x9000, size: 64 }));
        assert!(!lg.page_bit(0x9000 >> PAGE_SHIFT), "64-byte block must not claim its page");
        // The shadow walk still decides correctly in both directions.
        run(&mut lg, Event::MemRead(MemRef::word(0x9000)));
        assert!(lg.violations().is_empty());
        run(&mut lg, Event::MemRead(MemRef::word(0x9040)));
        assert_eq!(lg.violations().len(), 1);
    }

    #[test]
    fn batch_override_matches_per_event_handling() {
        let events = vec![
            ev(0x10, Event::Annot(Annotation::Malloc { base: 0x9000, size: 0x1000 })),
            ev(0x14, Event::MemRead(MemRef::word(0x9000))),
            ev(0x18, Event::MemWrite(MemRef::word(0x9ffc))),
            ev(0x1c, Event::MemRead(MemRef::word(0xdead_0000))),
            ev(0x20, Event::Annot(Annotation::Free { base: 0x9000 })),
            ev(0x24, Event::MemWrite(MemRef::word(0x9000))),
            ev(0x28, Event::Annot(Annotation::Free { base: 0x9000 })),
        ];
        let mut batched = AddrCheck::new(&AccelConfig::baseline());
        let mut looped = AddrCheck::new(&AccelConfig::baseline());
        let mut c1 = CostSink::new();
        let mut c2 = CostSink::new();
        batched.handle_batch(&events, &mut c1);
        for e in &events {
            looped.handle(e, &mut c2);
        }
        assert_eq!(batched.take_violations(), looped.take_violations());
        assert_eq!(c1.instrs(), c2.instrs());
        assert_eq!(c1.mem_vas(), c2.mem_vas());
        assert_eq!(batched.checks(), looped.checks());
    }

    #[test]
    fn etct_shares_cc_for_loads_and_stores() {
        let lg = AddrCheck::new(&AccelConfig::baseline());
        let etct = lg.etct();
        let r = etct.if_config(EventType::MemRead);
        let w = etct.if_config(EventType::MemWrite);
        assert!(r.cacheable && w.cacheable);
        assert_eq!(r.cc, w.cc);
        assert!(etct.if_config(EventType::Malloc).invalidate_all);
    }
}
