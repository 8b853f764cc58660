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

/// A cache line's key packed into one integer: the CC value, the selected
/// record-field values and one presence bit per field (an unselected field
/// stores as zero with its presence bit clear, so it does not distinguish
/// lines, while a selected field holding zero still does).
///
/// ```text
///  bit 127   91..88     87..80  79..72  71..64  63..32  31..0
/// +-------+----------+--------+-------+-------+-------+------+
/// | empty | presence |   cc   |  reg  | size  |  pc   | addr |
/// +-------+----------+--------+-------+-------+-------+------+
/// ```
///
/// Two keys are the same line exactly when the integers are equal. Bit 127
/// is never set in a real key; [`EMPTY`] uses it to mark a vacant way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LineKey(u128);

/// The key stored in a way that holds no line.
const EMPTY: LineKey = LineKey(1 << 127);

const HAS_ADDR: u128 = 1 << 88;
const HAS_SIZE: u128 = 1 << 89;
const HAS_PC: u128 = 1 << 90;
const HAS_REG: u128 = 1 << 91;

impl LineKey {
    #[inline]
    fn build(pc: u32, ev: &Event, cfg: &IfEventConfig) -> LineKey {
        let mref = ev.addr_field();
        let mut k = (cfg.cc as u128) << 80;
        if cfg.fields.addr {
            k |= HAS_ADDR | mref.map_or(0, |m| m.addr) as u128;
        }
        if cfg.fields.size {
            k |= HAS_SIZE | (mref.map_or(0, |m| m.size.bytes() as u8) as u128) << 64;
        }
        if cfg.fields.pc {
            k |= HAS_PC | (pc as u128) << 32;
        }
        if cfg.fields.reg {
            k |= HAS_REG | (ev.reg_field().map_or(0xff, |r| r.index() as u8) as u128) << 72;
        }
        LineKey(k)
    }

    /// A selected field's value, or `u64::MAX` for an unselected one — the
    /// words the line hash mixes.
    #[inline]
    fn field(self, has: u128, shift: u32, mask: u128) -> u64 {
        if self.0 & has != 0 {
            ((self.0 >> shift) & mask) as u64
        } else {
            u64::MAX
        }
    }

    /// The hardware's hash of the entire line, which places a line in its
    /// set: FNV-1a over the fields, then an avalanche.
    fn hash(self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        mix(((self.0 >> 80) & 0xff) as u64);
        mix(self.field(HAS_ADDR, 0, 0xffff_ffff));
        mix(self.field(HAS_SIZE, 64, 0xff));
        mix(self.field(HAS_PC, 32, 0xffff_ffff));
        mix(self.field(HAS_REG, 72, 0xff));
        // Finalizer: FNV's low bits index the (few) sets, so avalanche
        // them (splitmix64 tail).
        h ^= h >> 30;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^ (h >> 31)
    }

    /// Bucket of the key → way index (`shift` keeps the top
    /// `log2(buckets)` bits of a multiplicative hash). Independent of the
    /// set-placement hash: it only has to spread keys over buckets.
    #[inline]
    fn bucket(self, shift: u32) -> u32 {
        // The high word holds 28 bits (size, reg, cc, presence): rotate it
        // clear of the address before mixing.
        let (lo, hi) = (self.0 as u64, (self.0 >> 64) as u64);
        ((lo ^ hi.rotate_left(36)).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> shift) as u32
    }
}

/// One way of the cache, with its intrusive links.
#[derive(Debug, Clone, Copy)]
struct Way {
    key: LineKey,
    /// Index bucket the key hashes to (valid while occupied).
    bucket: u32,
    /// Next way in the same index bucket.
    chain: u32,
    /// Neighbours on the set's recency ring.
    newer: u32,
    older: u32,
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
///
/// # Structure
///
/// One layout serves every geometry. The ways of all sets live in one
/// array (set `s` owns ways `s * ways .. (s + 1) * ways`); each way holds
/// its line's packed key and two intrusive links:
///
/// * a **key → way index** — a chained hash table over the packed key
///   (twice as many buckets as ways), so finding a line is a bucket probe
///   and integer compares instead of a scan of the set. A key determines
///   its set, so one table indexes all sets. A chain ends at a *sentinel*
///   way past the last real one, vacant and linked to itself, so the
///   first two links of any chain can be probed without testing for its
///   end;
/// * a **recency ring per set**, threaded through every way of the set,
///   occupied or not: following `older` from the set's MRU way visits the
///   ways from most to least recently used and then returns to the MRU
///   way, so the LRU way is the MRU way's `newer` neighbour and promoting
///   it is a move of the MRU pointer, not a relink.
///
/// Hit, miss, eviction and matching-entry invalidation are therefore O(1)
/// (expected, for the chain walk); only whole-filter invalidation touches
/// every way, and it returns at once when the filter is already empty.
///
/// # Why this is exactly LRU
///
/// The invariant is that a set's ring, read from its MRU way, lists *the
/// occupied ways from most to least recently touched, then the vacant
/// ways*. A hit or an insertion moves its way to the MRU end; a
/// matching-entry invalidation vacates its way and moves it to the LRU
/// end; whole-filter invalidation vacates everything (any order of vacant
/// ways satisfies the invariant). The victim of an insertion is always the
/// way at the LRU end — a vacant way while one exists, otherwise the least
/// recently touched line, which is what a scan for the smallest last-use
/// stamp (vacant counting as zero) would pick. Which *position* a line
/// occupies within its set is not observable through this interface, so
/// the two agree on every outcome and every counter.
#[derive(Debug, Clone)]
pub struct IdempotentFilter {
    geometry: IfGeometry,
    /// Every set's ways, then the chain-end sentinel.
    ways: Box<[Way]>,
    /// Most recently used way of each set.
    mru: Box<[u32]>,
    /// Index bucket heads.
    buckets: Box<[u32]>,
    bucket_shift: u32,
    /// Occupied ways, so clearing an empty filter costs nothing.
    live: u32,
    stats: IfStats,
}

impl IdempotentFilter {
    /// Creates an empty filter.
    ///
    /// # Panics
    ///
    /// Panics if the geometry holds no complete set (`entries` smaller
    /// than the associativity, or zero).
    pub fn new(geometry: IfGeometry) -> IdempotentFilter {
        let per_set = geometry.resolved_ways();
        assert!(per_set > 0 && geometry.entries >= per_set, "filter geometry holds no line");
        let sets = geometry.sets();
        let total = u32::try_from(sets * per_set).expect("filter too large");
        let per_set = per_set as u32;
        let bucket_count = (2 * total as usize).next_power_of_two();
        // Each set's ways start out as one ring, all vacant; way `total` is
        // the sentinel every chain ends at (and itself continues to).
        let nil = total;
        let ways = (0..total)
            .map(|w| {
                let (first, i) = (w - w % per_set, w % per_set);
                Way {
                    key: EMPTY,
                    bucket: 0,
                    chain: nil,
                    newer: first + (i + per_set - 1) % per_set,
                    older: first + (i + 1) % per_set,
                }
            })
            .chain([Way { key: EMPTY, bucket: 0, chain: nil, newer: nil, older: nil }])
            .collect();
        IdempotentFilter {
            geometry,
            ways,
            mru: (0..sets as u32).map(|s| s * per_set).collect(),
            buckets: vec![nil; bucket_count].into_boxed_slice(),
            bucket_shift: 64 - bucket_count.trailing_zeros(),
            live: 0,
            stats: IfStats::default(),
        }
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
        if self.live == 0 {
            return;
        }
        for w in self.ways.iter_mut() {
            w.key = EMPTY;
        }
        self.buckets.fill(self.nil());
        self.live = 0;
    }

    /// The sentinel way that ends every bucket chain.
    #[inline]
    fn nil(&self) -> u32 {
        self.ways.len() as u32 - 1
    }

    /// The set `key` lives in. A one-set filter (every fully associative
    /// geometry, the paper's included) needs no hash at all; otherwise the
    /// set count is a power of two whenever the geometry came through
    /// [`IfGeometry::set_associative`] or the wire decoder, and the mask
    /// then picks the same set the modulo would.
    #[inline]
    fn set_index(&self, key: LineKey) -> usize {
        let sets = self.mru.len();
        if sets == 1 {
            0
        } else if sets.is_power_of_two() {
            (key.hash() & (sets as u64 - 1)) as usize
        } else {
            (key.hash() % sets as u64) as usize
        }
    }

    /// The way on `bucket`'s chain holding `key`, if any. The first two
    /// links are probed unconditionally — a missing link is the sentinel,
    /// whose vacant key matches no line — so a chain of length ≤ 2, nearly
    /// every chain at a load factor of ½, is found or missed without a
    /// data-dependent loop.
    #[inline]
    fn find(&self, key: LineKey, bucket: u32) -> Option<u32> {
        let first = self.buckets[bucket as usize];
        let second = self.ways[first as usize].chain;
        if self.ways[first as usize].key == key {
            return Some(first);
        }
        let second_way = &self.ways[second as usize];
        if second_way.key == key {
            return Some(second);
        }
        let (nil, mut w) = (self.nil(), second_way.chain);
        while w != nil {
            let way = &self.ways[w as usize];
            if way.key == key {
                return Some(w);
            }
            w = way.chain;
        }
        None
    }

    /// Puts `key` into way `w` and the way at the head of `bucket`.
    #[inline]
    fn occupy(&mut self, w: u32, key: LineKey, bucket: u32) {
        let head = std::mem::replace(&mut self.buckets[bucket as usize], w);
        let way = &mut self.ways[w as usize];
        (way.key, way.bucket, way.chain) = (key, bucket, head);
    }

    /// Takes occupied way `w` off its bucket's chain and marks it vacant.
    #[inline]
    fn vacate(&mut self, w: u32) {
        let Way { bucket, chain: after, .. } = self.ways[w as usize];
        self.ways[w as usize].key = EMPTY;
        let mut at = self.buckets[bucket as usize];
        if at == w {
            self.buckets[bucket as usize] = after;
            return;
        }
        // `w` was occupied, hence on its bucket's chain.
        while self.ways[at as usize].chain != w {
            at = self.ways[at as usize].chain;
        }
        self.ways[at as usize].chain = after;
    }

    /// The least recently used way of set `si`.
    #[inline]
    fn lru(&self, si: usize) -> u32 {
        self.ways[self.mru[si] as usize].newer
    }

    /// Moves way `w` (neither end of set `si`'s ring) to between the LRU
    /// and the MRU way.
    #[inline]
    fn splice_between_ends(&mut self, si: usize, w: u32) {
        let Way { newer, older, .. } = self.ways[w as usize];
        self.ways[newer as usize].older = older;
        self.ways[older as usize].newer = newer;
        let (mru, lru) = (self.mru[si], self.lru(si));
        (self.ways[w as usize].newer, self.ways[w as usize].older) = (lru, mru);
        self.ways[lru as usize].older = w;
        self.ways[mru as usize].newer = w;
    }

    /// Makes way `w` the most recently used of set `si`: one unlink and
    /// one relink just "newer" than an anchor, then the MRU pointer steps
    /// to `w`. The anchor is the MRU way, or — when `w` already is the MRU
    /// way — its older neighbour, which relinks `w` where it was; either
    /// way there is no branch on where `w` sits in the ring.
    #[inline]
    fn touch(&mut self, si: usize, w: u32) {
        let mru = self.mru[si];
        let Way { newer, older, .. } = self.ways[w as usize];
        let anchor = if w == mru { older } else { mru };
        self.ways[newer as usize].older = older;
        self.ways[older as usize].newer = newer;
        let lru = self.ways[anchor as usize].newer;
        (self.ways[w as usize].newer, self.ways[w as usize].older) = (lru, anchor);
        self.ways[lru as usize].older = w;
        self.ways[anchor as usize].newer = w;
        self.mru[si] = w;
    }

    /// Makes way `w` the least recently used of set `si`.
    #[inline]
    fn retire(&mut self, si: usize, w: u32) {
        if w == self.lru(si) {
            return;
        }
        if w == self.mru[si] {
            // Stepping the pointer back leaves `w` just "newer" than the
            // new MRU way, which is the LRU end.
            self.mru[si] = self.ways[w as usize].older;
        } else {
            self.splice_between_ends(si, w);
        }
    }

    /// Runs one event through the filter with its ETCT configuration.
    ///
    /// Invalidation happens first (an updating event must evict stale
    /// checks even if it is itself cacheable under a different CC), then
    /// the lookup/insert.
    #[inline]
    pub fn process(&mut self, pc: u32, ev: &Event, cfg: &IfEventConfig) -> IfOutcome {
        if cfg.invalidate_all {
            self.stats.invalidate_all += 1;
            self.clear();
        }
        if !(cfg.invalidate_match || cfg.cacheable) {
            return IfOutcome::Deliver;
        }
        let key = LineKey::build(pc, ev, cfg);
        let bucket = key.bucket(self.bucket_shift);
        let si = self.set_index(key);
        let mut found = self.find(key, bucket);
        if cfg.invalidate_match {
            if let Some(w) = found.take() {
                self.vacate(w);
                self.retire(si, w);
                self.live -= 1;
                self.stats.invalidate_match += 1;
            }
        }
        if !cfg.cacheable {
            return IfOutcome::Deliver;
        }
        self.stats.lookups += 1;
        if let Some(w) = found {
            self.touch(si, w);
            self.stats.hits += 1;
            return IfOutcome::Filtered;
        }
        // Miss: the LRU end of the set is a vacant way while one exists,
        // else the least recently used line.
        self.stats.inserts += 1;
        let victim = self.lru(si);
        if self.ways[victim as usize].key == EMPTY {
            self.live += 1;
        } else {
            self.vacate(victim);
        }
        self.occupy(victim, key, bucket);
        self.mru[si] = victim;
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
                assert_eq!(f.set_index(key) as u64, key.hash() % g.sets() as u64, "{g}");
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
