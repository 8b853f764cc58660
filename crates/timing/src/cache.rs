//! Set-associative, LRU-replaced cache model.
//!
//! Each set holds its tags in recency order, most recently used first, so
//! LRU needs no timestamps: a hit in way 0 is one compare, a hit deeper in
//! the set rotates the ways in front of it down by one, and a miss rotates
//! the whole set, dropping the least recently used (or an invalid) way, and
//! writes the new tag into way 0. The line touched last is therefore always
//! way 0 of its set, and a repeat of it — the instruction cache sees long
//! runs of same-line fetches — is a hit that changes nothing. This is the
//! same replacement decision, access for access, as stamping each way with
//! a use counter and evicting the smallest stamp (invalid ways first); the
//! `oracle` test module keeps that model and compares the two.

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Associativity.
    pub ways: u32,
    /// Access latency in cycles.
    pub latency: u32,
}

impl CacheConfig {
    /// Table 2 private L1 (instruction or data): 16 KB, 64 B lines, 2-way,
    /// 1-cycle.
    pub fn isca08_l1() -> CacheConfig {
        CacheConfig { size_bytes: 16 * 1024, line_bytes: 64, ways: 2, latency: 1 }
    }

    /// Table 2 shared L2: 512 KB, 64 B lines, 8-way, 10-cycle.
    pub fn isca08_l2() -> CacheConfig {
        CacheConfig { size_bytes: 512 * 1024, line_bytes: 64, ways: 8, latency: 10 }
    }

    fn sets(&self) -> u32 {
        self.size_bytes / self.line_bytes / self.ways
    }
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub accesses: u64,
    pub misses: u64,
}

impl CacheStats {
    /// Miss rate over all accesses.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// One cache level.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// log2 of the line size and of the set count (both powers of two):
    /// an address splits into tag, set and line offset by shifts and a mask.
    line_shift: u32,
    set_shift: u32,
    /// `tags[set * ways..][..ways]` is one set, most recently used first;
    /// `u32::MAX` = invalid (a tag is at most 30 bits wide).
    tags: Vec<u32>,
    /// The line number (`addr >> line_shift`) of the last access, which is
    /// way 0 of its set; `u32::MAX` before the first access.
    last_line: u32,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics on degenerate geometries: a line size that is not a power of
    /// two of at least 4 bytes, zero ways, or a set count that is not a
    /// positive power of two.
    pub fn new(cfg: CacheConfig) -> Cache {
        let valid = cfg.line_bytes.is_power_of_two()
            && cfg.line_bytes >= 4
            && cfg.ways > 0
            && cfg.sets().is_power_of_two();
        assert!(valid, "invalid cache geometry {cfg:?}");
        let sets = cfg.sets();
        Cache {
            cfg,
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
            tags: vec![u32::MAX; (sets * cfg.ways) as usize],
            last_line: u32::MAX,
            stats: CacheStats::default(),
        }
    }

    /// The geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Accesses `addr`; returns `true` on a hit. A miss fills the line
    /// (allocate-on-miss for both reads and writes).
    #[inline]
    pub fn access(&mut self, addr: u32) -> bool {
        self.stats.accesses += 1;
        let line = addr >> self.line_shift;
        if line == self.last_line {
            // Already its set's most recently used line: nothing moves.
            return true;
        }
        self.last_line = line;
        let index = (line & ((1 << self.set_shift) - 1)) as usize;
        let tag = line >> self.set_shift;
        let ways = self.cfg.ways as usize;
        let set = &mut self.tags[index * ways..][..ways];
        if set[0] == tag {
            return true;
        }
        // A hit in way `w` moves it to the front; a miss drops the last
        // (least recently used or invalid) way and fills the front.
        let (w, hit) = match set.iter().position(|t| *t == tag) {
            Some(w) => (w, true),
            None => (ways - 1, false),
        };
        for i in (1..=w).rev() {
            set[i] = set[i - 1];
        }
        set[0] = tag;
        self.stats.misses += !hit as u64;
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tiny() -> Cache {
        // 4 lines of 64 B, 2-way => 2 sets.
        Cache::new(CacheConfig { size_bytes: 256, line_bytes: 64, ways: 2, latency: 1 })
    }

    #[test]
    fn first_touch_misses_second_hits() {
        let mut c = tiny();
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x103f)); // same line
        assert!(!c.access(0x1040)); // next line
        assert_eq!(c.stats().misses, 2);
        assert_eq!(c.stats().accesses, 4);
    }

    #[test]
    fn lru_within_set() {
        let mut c = tiny();
        // Three lines mapping to set 0 (line numbers even): 0x0000, 0x0080, 0x0100.
        c.access(0x0000);
        c.access(0x0080);
        c.access(0x0000); // touch: 0x0080 becomes LRU
        c.access(0x0100); // evicts 0x0080
        assert!(c.access(0x0000));
        assert!(!c.access(0x0080));
    }

    #[test]
    fn isca08_geometries_are_valid() {
        let l1 = Cache::new(CacheConfig::isca08_l1());
        assert_eq!(l1.config().sets(), 128);
        let l2 = Cache::new(CacheConfig::isca08_l2());
        assert_eq!(l2.config().sets(), 1024);
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = Cache::new(CacheConfig::isca08_l1());
        // Stream over 64 KB (4x the 16 KB L1) twice: second pass still
        // misses everywhere.
        for _ in 0..2 {
            for a in (0..64 * 1024).step_by(64) {
                c.access(a);
            }
        }
        assert!(c.stats().miss_rate() > 0.99);
        // A 4 KB working set fits: second pass all hits.
        let mut c = Cache::new(CacheConfig::isca08_l1());
        for a in (0..4096).step_by(64) {
            c.access(a);
        }
        let before = c.stats().misses;
        for a in (0..4096).step_by(64) {
            assert!(c.access(a));
        }
        assert_eq!(c.stats().misses, before);
    }

    #[test]
    #[should_panic(expected = "invalid cache geometry")]
    fn zero_ways_is_rejected() {
        let _ = Cache::new(CacheConfig { size_bytes: 1024, line_bytes: 64, ways: 0, latency: 1 });
    }

    /// Expands `(pattern, seed, len)` bursts into addresses: 0 repeats one
    /// line, 1 is a conflict storm over `ways + 1..=ways + 3` lines of one
    /// set, 2 a stride of 4 B to 4 KiB, 3 random addresses.
    fn stream(cfg: &CacheConfig, bursts: &[(u8, u32, u32)]) -> Vec<u32> {
        let mix = |seed: u32, i: u32| {
            let z = seed.wrapping_add(i.wrapping_mul(0x9e37_79b9));
            let z = (z ^ (z >> 16)).wrapping_mul(0x85eb_ca6b);
            z ^ (z >> 13)
        };
        let line = cfg.line_bytes;
        let mut out = Vec::new();
        for &(pattern, seed, len) in bursts {
            for i in 0..len {
                out.push(match pattern {
                    0 => (seed & !(line - 1)) | (i.wrapping_mul(13) & (line - 1)),
                    1 => {
                        let lines = cfg.ways + 1 + seed % 3;
                        let same_set = cfg.sets() * line;
                        seed.wrapping_add((mix(seed, i) % lines).wrapping_mul(same_set))
                    }
                    2 => seed.wrapping_add(i.wrapping_mul((seed >> 22) * 4 + 4)),
                    _ => mix(seed, i),
                });
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The recency-ordered kernel and its last-line memo make the same
        /// hit/miss decision as the stamp-LRU model on every access, over
        /// 1–16 ways, 1–1024 sets and 4–128 B lines.
        #[test]
        fn recency_order_matches_the_stamp_model(
            ways_log in 0u32..5,
            sets_log in 0u32..=10,
            line_log in 2u32..=7,
            bursts in proptest::collection::vec((0u8..4, any::<u32>(), 1u32..48), 1..40),
        ) {
            let (ways, sets, line) = (1 << ways_log, 1 << sets_log, 1 << line_log);
            let cfg = CacheConfig { size_bytes: sets * ways * line, line_bytes: line, ways, latency: 1 };
            let mut kernel = Cache::new(cfg);
            let mut model = oracle::StampCache::new(cfg);
            for (i, addr) in stream(&cfg, &bursts).into_iter().enumerate() {
                prop_assert_eq!(kernel.access(addr), model.access(addr), "access {} at {:#x}", i, addr);
            }
            prop_assert_eq!(kernel.stats(), model.stats());
        }
    }

    #[test]
    fn miss_rate_statistic() {
        let mut c = tiny();
        c.access(0);
        c.access(0);
        assert!((c.stats().miss_rate() - 0.5).abs() < 1e-9);
    }
}

/// The stamp-LRU model the recency-ordered kernel replaced, kept as it was
/// as the reference for `recency_order_matches_the_stamp_model`.
#[cfg(test)]
mod oracle {
    use super::{CacheConfig, CacheStats};

    /// One cache level whose ways carry last-use timestamps.
    pub struct StampCache {
        cfg: CacheConfig,
        line_shift: u32,
        set_shift: u32,
        /// `tags[set * ways + way]`; `u32::MAX` = invalid.
        tags: Vec<u32>,
        /// LRU timestamps, parallel to `tags`.
        lru: Vec<u64>,
        tick: u64,
        stats: CacheStats,
    }

    impl StampCache {
        pub fn new(cfg: CacheConfig) -> StampCache {
            let sets = cfg.sets();
            let n = (sets * cfg.ways) as usize;
            StampCache {
                cfg,
                line_shift: cfg.line_bytes.trailing_zeros(),
                set_shift: sets.trailing_zeros(),
                tags: vec![u32::MAX; n],
                lru: vec![0; n],
                tick: 0,
                stats: CacheStats::default(),
            }
        }

        pub fn stats(&self) -> &CacheStats {
            &self.stats
        }

        pub fn access(&mut self, addr: u32) -> bool {
            self.tick += 1;
            self.stats.accesses += 1;
            let line = addr >> self.line_shift;
            let set = (line & ((1 << self.set_shift) - 1)) as usize;
            let tag = line >> self.set_shift;
            let base = set * self.cfg.ways as usize;
            let ways = &mut self.tags[base..base + self.cfg.ways as usize];
            if let Some(w) = ways.iter().position(|t| *t == tag) {
                self.lru[base + w] = self.tick;
                return true;
            }
            self.stats.misses += 1;
            // LRU victim.
            let victim =
                (0..self.cfg.ways as usize).min_by_key(|w| self.lru[base + w]).expect("ways > 0");
            self.tags[base + victim] = tag;
            self.lru[base + victim] = self.tick;
            false
        }
    }
}
