//! Idempotent Filters (paper §5).
//!
//! A small, lifeguard-configurable cache of recently observed checking
//! events. A hit means the identical check already ran and its metadata has
//! not changed since, so the event is redundant and is discarded. The
//! lifeguard controls, through the ETCT (see [`igm_lba::IfEventConfig`]):
//!
//! * which event types are cacheable (checking-only events);
//! * the check-categorization (CC) value grouping event types that perform
//!   the same check (AddrCheck uses one CC for loads and stores; LockSet
//!   must keep them apart);
//! * which record fields form the cache-line key;
//! * which event types invalidate the whole filter (e.g. `malloc`/`free`)
//!   or just the matching entry.
//!
//! The hardware is a set-associative cache with LRU replacement, indexed by
//! a hash of the whole line (paper §5); the paper finds 32 entries at 4-way
//! associativity already capture most of the benefit (Figure 13).

use igm_lba::{Event, IfEventConfig};
use std::fmt;

/// Geometry of the filter cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IfGeometry {
    /// Total number of entries.
    pub entries: usize,
    /// Associativity; `0` means fully associative.
    pub ways: usize,
}

impl IfGeometry {
    /// The paper's simulated configuration: 32 entries, fully associative
    /// (§7.1).
    pub fn isca08() -> IfGeometry {
        IfGeometry { entries: 32, ways: 0 }
    }

    /// A set-associative geometry.
    ///
    /// # Panics
    ///
    /// Panics unless `ways` divides `entries` and both are powers of two.
    pub fn set_associative(entries: usize, ways: usize) -> IfGeometry {
        assert!(entries.is_power_of_two(), "entries must be a power of two");
        assert!(ways.is_power_of_two() && ways <= entries, "invalid associativity");
        IfGeometry { entries, ways }
    }

    /// A fully associative geometry.
    pub fn fully_associative(entries: usize) -> IfGeometry {
        assert!(entries > 0);
        IfGeometry { entries, ways: 0 }
    }

    fn resolved_ways(&self) -> usize {
        if self.ways == 0 {
            self.entries
        } else {
            self.ways
        }
    }

    fn sets(&self) -> usize {
        self.entries / self.resolved_ways()
    }
}

impl fmt::Display for IfGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.ways == 0 {
            write!(f, "{} entries, fully associative", self.entries)
        } else {
            write!(f, "{} entries, {}-way", self.entries, self.ways)
        }
    }
}

/// Outcome of filtering one event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IfOutcome {
    /// The event is redundant; discard it.
    Filtered,
    /// The event must be delivered to the lifeguard.
    Deliver,
}

/// Filter statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IfStats {
    /// Cacheable events looked up.
    pub lookups: u64,
    /// Lookups that hit (events filtered).
    pub hits: u64,
    /// Lines inserted.
    pub inserts: u64,
    /// Whole-filter invalidations.
    pub invalidate_all: u64,
    /// Matching-entry invalidations that removed a line.
    pub invalidate_match: u64,
}

impl IfStats {
    /// Fraction of cacheable events filtered.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

/// A cache line: the CC value plus the selected record-field values
/// (unselected fields store as `None` and do not distinguish lines).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct LineKey {
    cc: u8,
    addr: Option<u32>,
    size: Option<u8>,
    pc: Option<u32>,
    reg: Option<u8>,
}

impl LineKey {
    fn build(pc: u32, ev: &Event, cfg: &IfEventConfig) -> LineKey {
        let mref = ev.addr_field();
        LineKey {
            cc: cfg.cc,
            addr: cfg.fields.addr.then(|| mref.map_or(0, |m| m.addr)),
            size: cfg.fields.size.then(|| mref.map_or(0, |m| m.size.bytes() as u8)),
            pc: cfg.fields.pc.then_some(pc),
            reg: cfg.fields.reg.then(|| ev.reg_field().map_or(0xff, |r| r.index() as u8)),
        }
    }

    fn hash(&self) -> u64 {
        // FNV-1a over the packed fields: a stand-in for the hardware's
        // hash-of-the-entire-line indexing.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        mix(self.cc as u64);
        mix(self.addr.map_or(u64::MAX, |v| v as u64));
        mix(self.size.map_or(u64::MAX, |v| v as u64));
        mix(self.pc.map_or(u64::MAX, |v| v as u64));
        mix(self.reg.map_or(u64::MAX, |v| v as u64));
        // Finalizer: FNV's low bits index the (few) sets, so avalanche
        // them (splitmix64 tail).
        h ^= h >> 30;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^ (h >> 31)
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    key: LineKey,
    last_used: u64,
}

/// The Idempotent Filter hardware.
///
/// # Example
///
/// ```
/// use igm_core::{IdempotentFilter, IfGeometry, IfOutcome};
/// use igm_lba::{Event, IfEventConfig};
/// use igm_isa::MemRef;
///
/// let mut f = IdempotentFilter::new(IfGeometry::isca08());
/// let cfg = IfEventConfig::cacheable_addr(0);
/// let ev = Event::MemRead(MemRef::word(0x9000));
/// assert_eq!(f.process(0x1000, &ev, &cfg), IfOutcome::Deliver); // first time
/// assert_eq!(f.process(0x1004, &ev, &cfg), IfOutcome::Filtered); // redundant
/// ```
#[derive(Debug, Clone)]
pub struct IdempotentFilter {
    geometry: IfGeometry,
    sets: Vec<Vec<Option<Line>>>,
    tick: u64,
    stats: IfStats,
}

impl IdempotentFilter {
    /// Creates an empty filter.
    pub fn new(geometry: IfGeometry) -> IdempotentFilter {
        let sets = vec![vec![None; geometry.resolved_ways()]; geometry.sets()];
        IdempotentFilter { geometry, sets, tick: 0, stats: IfStats::default() }
    }

    /// The configured geometry.
    pub fn geometry(&self) -> IfGeometry {
        self.geometry
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &IfStats {
        &self.stats
    }

    /// Empties the filter (whole-cache invalidation).
    pub fn clear(&mut self) {
        for set in &mut self.sets {
            set.fill(None);
        }
    }

    /// The set `key` lives in. A one-set filter (every fully associative
    /// geometry, the paper's included) needs no hash at all; otherwise the
    /// set count is a power of two whenever the geometry came through
    /// [`IfGeometry::set_associative`] or the wire decoder, and the mask
    /// then picks the same set the modulo would.
    #[inline]
    fn set_index(&self, key: &LineKey) -> usize {
        let sets = self.sets.len();
        if sets == 1 {
            0
        } else if sets.is_power_of_two() {
            (key.hash() & (sets as u64 - 1)) as usize
        } else {
            (key.hash() % sets as u64) as usize
        }
    }

    /// Runs one event through the filter with its ETCT configuration.
    ///
    /// Invalidation happens first (an updating event must evict stale
    /// checks even if it is itself cacheable under a different CC), then
    /// the lookup/insert.
    pub fn process(&mut self, pc: u32, ev: &Event, cfg: &IfEventConfig) -> IfOutcome {
        self.tick += 1;
        if cfg.invalidate_all {
            self.stats.invalidate_all += 1;
            self.clear();
        }
        let key = LineKey::build(pc, ev, cfg);
        if cfg.invalidate_match {
            let si = self.set_index(&key);
            for way in &mut self.sets[si] {
                if way.map(|l| l.key) == Some(key) {
                    *way = None;
                    self.stats.invalidate_match += 1;
                }
            }
        }
        if !cfg.cacheable {
            return IfOutcome::Deliver;
        }
        self.stats.lookups += 1;
        let si = self.set_index(&key);
        let tick = self.tick;
        let set = &mut self.sets[si];
        // Hit?
        for line in set.iter_mut().flatten() {
            if line.key == key {
                line.last_used = tick;
                self.stats.hits += 1;
                return IfOutcome::Filtered;
            }
        }
        // Miss: insert with LRU replacement.
        self.stats.inserts += 1;
        let victim = set
            .iter_mut()
            .min_by_key(|w| w.map_or(0, |l| l.last_used))
            .expect("sets are non-empty");
        *victim = Some(Line { key, last_used: tick });
        IfOutcome::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igm_isa::{MemRef, MemSize, Reg};
    use igm_lba::{CheckKind, FieldSelect, MetaSource};

    fn read(addr: u32) -> Event {
        Event::MemRead(MemRef::word(addr))
    }

    fn write(addr: u32) -> Event {
        Event::MemWrite(MemRef::word(addr))
    }

    fn cfg_addr(cc: u8) -> IfEventConfig {
        IfEventConfig::cacheable_addr(cc)
    }

    #[test]
    fn repeated_checks_are_filtered() {
        let mut f = IdempotentFilter::new(IfGeometry::isca08());
        assert_eq!(f.process(0, &read(0x100), &cfg_addr(0)), IfOutcome::Deliver);
        assert_eq!(f.process(4, &read(0x100), &cfg_addr(0)), IfOutcome::Filtered);
        assert_eq!(f.process(8, &read(0x100), &cfg_addr(0)), IfOutcome::Filtered);
        assert_eq!(f.stats().hits, 2);
        assert!((f.stats().hit_rate() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn shared_cc_merges_loads_and_stores() {
        // AddrCheck style: loads and stores with the same CC are the same
        // check.
        let mut f = IdempotentFilter::new(IfGeometry::isca08());
        assert_eq!(f.process(0, &read(0x100), &cfg_addr(0)), IfOutcome::Deliver);
        assert_eq!(f.process(4, &write(0x100), &cfg_addr(0)), IfOutcome::Filtered);
    }

    #[test]
    fn distinct_cc_separates_loads_and_stores() {
        // LockSet style: loads and stores must be treated separately.
        let mut f = IdempotentFilter::new(IfGeometry::isca08());
        assert_eq!(f.process(0, &read(0x100), &cfg_addr(1)), IfOutcome::Deliver);
        assert_eq!(f.process(4, &write(0x100), &cfg_addr(2)), IfOutcome::Deliver);
        assert_eq!(f.process(8, &write(0x100), &cfg_addr(2)), IfOutcome::Filtered);
    }

    #[test]
    fn different_addresses_or_sizes_do_not_alias() {
        let mut f = IdempotentFilter::new(IfGeometry::isca08());
        assert_eq!(f.process(0, &read(0x100), &cfg_addr(0)), IfOutcome::Deliver);
        assert_eq!(f.process(0, &read(0x104), &cfg_addr(0)), IfOutcome::Deliver);
        let halfword = Event::MemRead(MemRef::new(0x100, MemSize::B2));
        assert_eq!(f.process(0, &halfword, &cfg_addr(0)), IfOutcome::Deliver);
    }

    #[test]
    fn invalidate_all_flushes() {
        let mut f = IdempotentFilter::new(IfGeometry::isca08());
        f.process(0, &read(0x100), &cfg_addr(0));
        let inval = IfEventConfig::invalidates_all();
        let malloc = Event::Annot(igm_isa::Annotation::Malloc { base: 0x100, size: 8 });
        assert_eq!(f.process(0, &malloc, &inval), IfOutcome::Deliver);
        assert_eq!(f.process(0, &read(0x100), &cfg_addr(0)), IfOutcome::Deliver);
        assert_eq!(f.stats().invalidate_all, 1);
    }

    #[test]
    fn invalidate_match_evicts_only_matching_entry() {
        let mut f = IdempotentFilter::new(IfGeometry::isca08());
        f.process(0, &read(0x100), &cfg_addr(0));
        f.process(0, &read(0x200), &cfg_addr(0));
        // A store that invalidates the (cc=0, addr, size) key at 0x100.
        let inval = IfEventConfig::invalidates_match(0, FieldSelect::ADDR_SIZE);
        assert_eq!(f.process(0, &write(0x100), &inval), IfOutcome::Deliver);
        assert_eq!(f.stats().invalidate_match, 1);
        // 0x100 must re-check; 0x200 is still cached.
        assert_eq!(f.process(0, &read(0x100), &cfg_addr(0)), IfOutcome::Deliver);
        assert_eq!(f.process(0, &read(0x200), &cfg_addr(0)), IfOutcome::Filtered);
    }

    #[test]
    fn non_cacheable_events_always_deliver() {
        let mut f = IdempotentFilter::new(IfGeometry::isca08());
        let cfg = IfEventConfig::default();
        for _ in 0..3 {
            assert_eq!(f.process(0, &read(0x100), &cfg), IfOutcome::Deliver);
        }
        assert_eq!(f.stats().lookups, 0);
    }

    #[test]
    fn lru_evicts_oldest_in_fully_associative_filter() {
        let mut f = IdempotentFilter::new(IfGeometry::fully_associative(2));
        f.process(0, &read(0x100), &cfg_addr(0));
        f.process(0, &read(0x200), &cfg_addr(0));
        // Touch 0x100 so 0x200 becomes LRU.
        assert_eq!(f.process(0, &read(0x100), &cfg_addr(0)), IfOutcome::Filtered);
        // Insert a third line: evicts 0x200.
        f.process(0, &read(0x300), &cfg_addr(0));
        assert_eq!(f.process(0, &read(0x100), &cfg_addr(0)), IfOutcome::Filtered);
        assert_eq!(f.process(0, &read(0x200), &cfg_addr(0)), IfOutcome::Deliver);
    }

    #[test]
    fn set_associative_capacity_behaviour() {
        // 1-way (direct-mapped) with 4 sets: conflicting keys in the same
        // set evict each other even though the cache is not full.
        let mut f = IdempotentFilter::new(IfGeometry::set_associative(4, 1));
        let mut delivered = 0;
        for i in 0..64u32 {
            if f.process(0, &read(i * 4), &cfg_addr(0)) == IfOutcome::Deliver {
                delivered += 1;
            }
        }
        assert_eq!(delivered, 64); // cold pass: everything delivered
                                   // Second identical pass: a direct-mapped 4-entry filter cannot hold
                                   // 64 distinct lines, so most still deliver.
        let mut filtered = 0;
        for i in 0..64u32 {
            if f.process(0, &read(i * 4), &cfg_addr(0)) == IfOutcome::Filtered {
                filtered += 1;
            }
        }
        assert!(filtered <= 4);
    }

    #[test]
    fn set_placement_equals_hash_modulo_sets() {
        // Power-of-two set counts (masked), a hand-built non-power-of-two
        // one (modulo) and the one-set geometries (no hash) all place a
        // line where `hash % sets` would.
        let geometries = [
            IfGeometry::isca08(),
            IfGeometry::fully_associative(48),
            IfGeometry::set_associative(64, 4),
            IfGeometry::set_associative(8, 1),
            IfGeometry { entries: 48, ways: 4 },
        ];
        for g in geometries {
            let f = IdempotentFilter::new(g);
            for i in 0..512u32 {
                let key = LineKey::build(i, &read(i.wrapping_mul(0x9e37_79b9)), &cfg_addr(i as u8));
                assert_eq!(f.set_index(&key) as u64, key.hash() % g.sets() as u64, "{g}");
            }
        }
    }

    #[test]
    fn reg_keyed_checks() {
        let mut f = IdempotentFilter::new(IfGeometry::isca08());
        let cfg = IfEventConfig::cacheable_reg(5);
        let ck = |r: Reg| Event::Check { kind: CheckKind::AddrCompute, source: MetaSource::Reg(r) };
        assert_eq!(f.process(0, &ck(Reg::Esi), &cfg), IfOutcome::Deliver);
        assert_eq!(f.process(0, &ck(Reg::Esi), &cfg), IfOutcome::Filtered);
        assert_eq!(f.process(0, &ck(Reg::Edi), &cfg), IfOutcome::Deliver);
    }

    #[test]
    fn pc_field_distinguishes_sites_when_selected() {
        let mut f = IdempotentFilter::new(IfGeometry::isca08());
        let cfg = IfEventConfig {
            cacheable: true,
            cc: 0,
            fields: FieldSelect { addr: true, size: true, pc: true, reg: false },
            ..Default::default()
        };
        assert_eq!(f.process(0x10, &read(0x100), &cfg), IfOutcome::Deliver);
        assert_eq!(f.process(0x20, &read(0x100), &cfg), IfOutcome::Deliver);
        assert_eq!(f.process(0x10, &read(0x100), &cfg), IfOutcome::Filtered);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_rejected() {
        let _ = IfGeometry::set_associative(48, 4);
    }

    #[test]
    fn geometry_display() {
        assert_eq!(IfGeometry::isca08().to_string(), "32 entries, fully associative");
        assert_eq!(IfGeometry::set_associative(64, 4).to_string(), "64 entries, 4-way");
    }
}
