//! Set-associative, LRU-replaced cache model.

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
    /// `tags[set * ways + way]`; `u32::MAX` = invalid.
    tags: Vec<u32>,
    /// LRU timestamps, parallel to `tags`.
    lru: Vec<u64>,
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics on degenerate geometries (zero sets or non-power-of-two line
    /// size).
    pub fn new(cfg: CacheConfig) -> Cache {
        assert!(cfg.line_bytes.is_power_of_two() && cfg.line_bytes >= 4);
        let sets = cfg.sets();
        assert!(sets > 0 && sets.is_power_of_two(), "invalid cache geometry {cfg:?}");
        let n = (sets * cfg.ways) as usize;
        Cache {
            cfg,
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
            tags: vec![u32::MAX; n],
            lru: vec![0; n],
            tick: 0,
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn miss_rate_statistic() {
        let mut c = tiny();
        c.access(0);
        c.access(0);
        assert!((c.stats().miss_rate() - 0.5).abs() < 1e-9);
    }
}
