//! The Metadata-TLB and the `LMA` (Load Metadata Address) instruction
//! (paper §6).
//!
//! A software-managed, user-space TLB that translates *application* virtual
//! addresses to *lifeguard-space metadata* virtual addresses. Three
//! instructions drive it (Figure 8):
//!
//! * `lma_config $imm, $miss` — loads the layout (level-1/level-2 bits,
//!   element size) and the miss-handler address, flushing the TLB
//!   ([`MetadataTlb::lma_config`]);
//! * `lma %rs, %rt` — translates an application address in one cycle on a
//!   hit; on a miss the software miss handler runs and the instruction
//!   re-executes ([`MetadataTlb::lma`]);
//! * `lma_fill %ra, %rb` — inserts a (level-1 index → level-2 chunk start)
//!   mapping ([`MetadataTlb::lma_fill`]).
//!
//! Entries associate a level-1 index with the chunk's start address in
//! lifeguard space; the in-chunk offset is computed combinationally from the
//! configured layout (Figure 9), which is the same arithmetic as
//! [`ShadowLayout`] — the property tests pin hardware and software walks
//! together.

use igm_shadow::ShadowLayout;
use std::fmt;

/// Faults raised by [`MetadataTlb::lma`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LmaFault {
    /// `lma` executed before `lma_config`.
    NotConfigured,
    /// No entry matches the address's level-1 index; software must walk the
    /// level-1 table and `lma_fill`.
    Miss {
        /// The faulting application address (pushed on the stack for the
        /// miss handler in the hardware design).
        app_addr: u32,
    },
}

impl fmt::Display for LmaFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LmaFault::NotConfigured => write!(f, "lma executed before lma_config"),
            LmaFault::Miss { app_addr } => write!(f, "M-TLB miss for {app_addr:#010x}"),
        }
    }
}

impl std::error::Error for LmaFault {}

/// M-TLB statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MtlbStats {
    /// `lma` executions (misses that re-execute count once).
    pub lookups: u64,
    /// Successful one-cycle translations.
    pub hits: u64,
    /// Miss-handler invocations.
    pub misses: u64,
    /// `lma_fill` executions.
    pub fills: u64,
    /// `lma_config` executions (each flushes the TLB).
    pub config_flushes: u64,
}

impl MtlbStats {
    /// Miss rate over all lookups.
    pub fn miss_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.misses as f64 / self.lookups as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct TlbEntry {
    l1_index: u32,
    chunk_start: u32,
    last_used: u64,
}

/// The Metadata-TLB hardware: a fully associative, LRU-replaced CAM of
/// (level-1 index → chunk start) pairs.
///
/// # Example
///
/// ```
/// use igm_core::{MetadataTlb, LmaFault};
/// use igm_shadow::ShadowLayout;
///
/// let mut tlb = MetadataTlb::new(64);
/// tlb.lma_config(ShadowLayout::taintcheck_fig7());
/// // Cold miss: the handler walks the level-1 table and fills.
/// assert_eq!(tlb.lma(0xb3fb_703a), Err(LmaFault::Miss { app_addr: 0xb3fb_703a }));
/// tlb.lma_fill(0xb3fb_703a, 0x0804_6000);
/// // Re-execution hits and computes the Figure 9 example result.
/// assert_eq!(tlb.lma(0xb3fb_703a), Ok(0x0804_7c0e));
/// ```
#[derive(Debug, Clone)]
pub struct MetadataTlb {
    capacity: usize,
    layout: Option<ShadowLayout>,
    entries: Vec<TlbEntry>,
    /// Index in `entries` of the entry the last `lma` hit or `lma_fill`
    /// wrote, tried before the scan. Entries hold distinct level-1 indices,
    /// so a match there is the entry the scan would find.
    last: usize,
    tick: u64,
    stats: MtlbStats,
}

impl MetadataTlb {
    /// Creates a TLB with space for `capacity` mappings.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> MetadataTlb {
        assert!(capacity > 0, "M-TLB capacity must be positive");
        MetadataTlb {
            capacity,
            layout: None,
            entries: Vec::with_capacity(capacity),
            last: 0,
            tick: 0,
            stats: MtlbStats::default(),
        }
    }

    /// Number of mapping slots.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The configured layout, if any.
    pub fn layout(&self) -> Option<&ShadowLayout> {
        self.layout.as_ref()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &MtlbStats {
        &self.stats
    }

    /// Loads a metadata layout and flushes all entries (`lma_config`).
    /// Runtime reconfiguration is a deliberate flexibility point of the
    /// design (§6.3, first design choice).
    pub fn lma_config(&mut self, layout: ShadowLayout) {
        self.layout = Some(layout);
        self.entries.clear();
        self.stats.config_flushes += 1;
    }

    /// Inserts the mapping for `app_addr`'s level-1 region (`lma_fill`),
    /// evicting the LRU entry when full.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Self::lma_config`] (the hardware would
    /// fault; a lifeguard never does this).
    pub fn lma_fill(&mut self, app_addr: u32, chunk_start: u32) {
        let layout = self.layout.expect("lma_fill before lma_config");
        let l1 = layout.l1_index(app_addr);
        self.tick += 1;
        self.stats.fills += 1;
        if let Some(i) = self.entries.iter().position(|e| e.l1_index == l1) {
            let e = &mut self.entries[i];
            e.chunk_start = chunk_start;
            e.last_used = self.tick;
            self.last = i;
            return;
        }
        let entry = TlbEntry { l1_index: l1, chunk_start, last_used: self.tick };
        if self.entries.len() < self.capacity {
            self.last = self.entries.len();
            self.entries.push(entry);
        } else {
            let (victim, _) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .expect("capacity > 0");
            self.entries[victim] = entry;
            self.last = victim;
        }
    }

    /// Translates an application address to its metadata element address
    /// (`lma`).
    ///
    /// # Errors
    ///
    /// [`LmaFault::Miss`] when no entry covers the address (the caller runs
    /// the miss handler, fills, and re-executes); [`LmaFault::NotConfigured`]
    /// before `lma_config`.
    pub fn lma(&mut self, app_addr: u32) -> Result<u32, LmaFault> {
        let layout = self.layout.ok_or(LmaFault::NotConfigured)?;
        self.tick += 1;
        self.stats.lookups += 1;
        let l1 = layout.l1_index(app_addr);
        let found = match self.entries.get(self.last) {
            Some(e) if e.l1_index == l1 => Some(self.last),
            _ => self.entries.iter().position(|e| e.l1_index == l1),
        };
        match found {
            Some(i) => {
                self.last = i;
                let e = &mut self.entries[i];
                e.last_used = self.tick;
                self.stats.hits += 1;
                Ok(e.chunk_start.wrapping_add(layout.elem_offset_in_chunk(app_addr)))
            }
            None => {
                self.stats.misses += 1;
                Err(LmaFault::Miss { app_addr })
            }
        }
    }

    /// Translates, running `miss_handler` to obtain the chunk start on a
    /// miss (the software walk), filling, and re-executing — the full
    /// hardware/software protocol in one call. Returns the metadata address
    /// and whether a miss occurred.
    pub fn lma_or_fill(
        &mut self,
        app_addr: u32,
        miss_handler: impl FnOnce() -> u32,
    ) -> (u32, bool) {
        match self.lma(app_addr) {
            Ok(va) => (va, false),
            Err(LmaFault::NotConfigured) => panic!("lma_or_fill before lma_config"),
            Err(LmaFault::Miss { .. }) => {
                let chunk = miss_handler();
                self.lma_fill(app_addr, chunk);
                let va = self.lma(app_addr).expect("hit after fill");
                // The re-executed lma's hit is an artifact of the protocol,
                // not a second logical lookup.
                self.stats.lookups -= 1;
                self.stats.hits -= 1;
                (va, true)
            }
        }
    }

    /// Number of valid entries.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igm_shadow::layout::ElemSize;
    use igm_shadow::TwoLevelShadow;

    fn fig7() -> ShadowLayout {
        ShadowLayout::taintcheck_fig7()
    }

    #[test]
    fn unconfigured_tlb_faults() {
        let mut tlb = MetadataTlb::new(16);
        assert_eq!(tlb.lma(0x1234), Err(LmaFault::NotConfigured));
    }

    #[test]
    fn fig9_worked_example_hit_path() {
        let mut tlb = MetadataTlb::new(16);
        tlb.lma_config(fig7());
        tlb.lma_fill(0xb3fb_703a, 0x0804_6000);
        assert_eq!(tlb.lma(0xb3fb_703a), Ok(0x0804_7c0e));
        // Same level-1 region, different offset.
        assert_eq!(tlb.lma(0xb3fb_0000), Ok(0x0804_6000));
        assert_eq!(tlb.stats().hits, 2);
    }

    #[test]
    fn miss_fill_reexecute_protocol() {
        let mut tlb = MetadataTlb::new(16);
        tlb.lma_config(fig7());
        let mut shadow = TwoLevelShadow::new(fig7(), 0);
        let addr = 0xb3fb_703a;
        let (va, missed) = tlb.lma_or_fill(addr, || shadow.chunk_base_va(addr));
        assert!(missed);
        assert_eq!(va, shadow.elem_va(addr));
        // Second translation hits and agrees with the software walk.
        let (va2, missed2) = tlb.lma_or_fill(addr, || unreachable!("must hit"));
        assert!(!missed2);
        assert_eq!(va2, va);
        assert_eq!(tlb.stats().misses, 1);
        assert_eq!(tlb.stats().lookups, 2);
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let mut tlb = MetadataTlb::new(2);
        tlb.lma_config(fig7());
        // Three distinct level-1 regions (64 KB apart under 16 level-1 bits).
        tlb.lma_fill(0x0001_0000, 0x100);
        tlb.lma_fill(0x0002_0000, 0x200);
        // Touch region 1 so region 2 is LRU.
        assert!(tlb.lma(0x0001_0000).is_ok());
        tlb.lma_fill(0x0003_0000, 0x300);
        assert!(tlb.lma(0x0001_0000).is_ok());
        assert_eq!(tlb.lma(0x0002_0000), Err(LmaFault::Miss { app_addr: 0x0002_0000 }));
        assert!(tlb.lma(0x0003_0000).is_ok());
        assert_eq!(tlb.occupancy(), 2);
    }

    #[test]
    fn refill_same_region_updates_in_place() {
        let mut tlb = MetadataTlb::new(4);
        tlb.lma_config(fig7());
        tlb.lma_fill(0x0001_0000, 0x100);
        tlb.lma_fill(0x0001_0004, 0x900); // same region, new chunk address
        assert_eq!(tlb.occupancy(), 1);
        assert_eq!(tlb.lma(0x0001_0000), Ok(0x900));
    }

    #[test]
    fn config_flushes_entries() {
        let mut tlb = MetadataTlb::new(4);
        tlb.lma_config(fig7());
        tlb.lma_fill(0x0001_0000, 0x100);
        assert_eq!(tlb.occupancy(), 1);
        // Reconfigure for LockSet-style 4-byte elements.
        tlb.lma_config(ShadowLayout::for_coverage(16, 4, ElemSize::B4).unwrap());
        assert_eq!(tlb.occupancy(), 0);
        assert_eq!(tlb.stats().config_flushes, 2);
    }

    #[test]
    fn translation_matches_software_walk_for_many_layouts() {
        // The hardware translation must equal the software two-level walk
        // for every layout and address we throw at it.
        let layouts = [
            fig7(),
            ShadowLayout::for_coverage(12, 4, ElemSize::B4).unwrap(),
            ShadowLayout::for_coverage(20, 8, ElemSize::B1).unwrap(),
            ShadowLayout::for_coverage(10, 4, ElemSize::B8).unwrap(),
        ];
        let addrs = [0u32, 0x0804_8123, 0x4000_0000, 0xbfff_fffc, 0xffff_ffff];
        for layout in layouts {
            let mut tlb = MetadataTlb::new(8);
            tlb.lma_config(layout);
            let mut shadow = TwoLevelShadow::new(layout, 0);
            for &a in &addrs {
                let (va, _) = tlb.lma_or_fill(a, || shadow.chunk_base_va(a));
                assert_eq!(va, shadow.elem_va(a), "layout {layout:?} addr {a:#x}");
            }
        }
    }

    #[test]
    fn miss_rate_statistic() {
        let mut tlb = MetadataTlb::new(4);
        tlb.lma_config(fig7());
        let _ = tlb.lma(0x0001_0000);
        tlb.lma_fill(0x0001_0000, 0);
        let _ = tlb.lma(0x0001_0000);
        assert!((tlb.stats().miss_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = MetadataTlb::new(0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// The last-hit memo changes no translation, statistic or
        /// occupancy: every `lma`, `lma_fill` and `lma_config` agrees with
        /// the scan-only model, at capacities 1–8 and with flushes (and a
        /// layout switch) mid-stream.
        #[test]
        fn last_hit_memo_matches_the_scan_model(
            capacity in 1usize..=8,
            ops in proptest::collection::vec((0u8..8, 0u32..12, 0u32..0x1_0000), 1..200),
        ) {
            let layouts = [fig7(), ShadowLayout::for_coverage(16, 4, ElemSize::B4).unwrap()];
            let mut tlb = MetadataTlb::new(capacity);
            let mut model = oracle::ScanTlb::new(capacity);
            tlb.lma_config(layouts[0]);
            model.lma_config(layouts[0]);
            for (i, &(op, region, offset)) in ops.iter().enumerate() {
                // Twelve 64 KiB regions: more than the TLB holds.
                let addr = region << 16 | offset;
                match op {
                    0 => {
                        let layout = layouts[region as usize % 2];
                        tlb.lma_config(layout);
                        model.lma_config(layout);
                    }
                    1 | 2 => {
                        let chunk = offset << 8;
                        tlb.lma_fill(addr, chunk);
                        model.lma_fill(addr, chunk);
                    }
                    _ => proptest::prop_assert_eq!(tlb.lma(addr), model.lma(addr), "op {}", i),
                }
                proptest::prop_assert_eq!(tlb.stats(), &model.stats, "op {}", i);
                proptest::prop_assert_eq!(tlb.occupancy(), model.entries.len(), "op {}", i);
            }
        }
    }
}

/// The M-TLB before its last-hit memo: every lookup scans the entries. The
/// reference for `last_hit_memo_matches_the_scan_model`.
#[cfg(test)]
mod oracle {
    use super::{LmaFault, MtlbStats, TlbEntry};
    use igm_shadow::ShadowLayout;

    pub struct ScanTlb {
        capacity: usize,
        layout: Option<ShadowLayout>,
        pub entries: Vec<TlbEntry>,
        tick: u64,
        pub stats: MtlbStats,
    }

    impl ScanTlb {
        pub fn new(capacity: usize) -> ScanTlb {
            ScanTlb {
                capacity,
                layout: None,
                entries: Vec::new(),
                tick: 0,
                stats: MtlbStats::default(),
            }
        }

        pub fn lma_config(&mut self, layout: ShadowLayout) {
            self.layout = Some(layout);
            self.entries.clear();
            self.stats.config_flushes += 1;
        }

        pub fn lma_fill(&mut self, app_addr: u32, chunk_start: u32) {
            let layout = self.layout.expect("lma_fill before lma_config");
            let l1 = layout.l1_index(app_addr);
            self.tick += 1;
            self.stats.fills += 1;
            if let Some(e) = self.entries.iter_mut().find(|e| e.l1_index == l1) {
                e.chunk_start = chunk_start;
                e.last_used = self.tick;
                return;
            }
            let entry = TlbEntry { l1_index: l1, chunk_start, last_used: self.tick };
            if self.entries.len() < self.capacity {
                self.entries.push(entry);
            } else {
                let victim =
                    self.entries.iter_mut().min_by_key(|e| e.last_used).expect("capacity > 0");
                *victim = entry;
            }
        }

        pub fn lma(&mut self, app_addr: u32) -> Result<u32, LmaFault> {
            let layout = self.layout.ok_or(LmaFault::NotConfigured)?;
            self.tick += 1;
            self.stats.lookups += 1;
            let l1 = layout.l1_index(app_addr);
            match self.entries.iter_mut().find(|e| e.l1_index == l1) {
                Some(e) => {
                    e.last_used = self.tick;
                    self.stats.hits += 1;
                    Ok(e.chunk_start.wrapping_add(layout.elem_offset_in_chunk(app_addr)))
                }
                None => {
                    self.stats.misses += 1;
                    Err(LmaFault::Miss { app_addr })
                }
            }
        }
    }
}
