//! Parametric set-associative caches and the simulated memory hierarchy
//! (L1I + L1D + unified L2 + memory), shared by every machine model.

/// Geometry and latency of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets (power of two).
    pub sets: u32,
    /// Associativity.
    pub ways: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
    /// Access latency in cycles (hit).
    pub latency: u32,
}

impl CacheConfig {
    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        u64::from(self.sets) * u64::from(self.ways) * u64::from(self.line_bytes)
    }

    /// 32 KiB, 4-way, 64 B lines, 2-cycle L1 instruction cache.
    pub fn l1i() -> CacheConfig {
        CacheConfig {
            sets: 128,
            ways: 4,
            line_bytes: 64,
            latency: 2,
        }
    }

    /// 32 KiB, 8-way, 64 B lines, 3-cycle L1 data cache.
    pub fn l1d() -> CacheConfig {
        CacheConfig {
            sets: 64,
            ways: 8,
            line_bytes: 64,
            latency: 2,
        }
    }

    /// 1 MiB, 8-way, 64 B lines, 12-cycle unified L2.
    pub fn l2() -> CacheConfig {
        CacheConfig {
            sets: 2048,
            ways: 8,
            line_bytes: 64,
            latency: 10,
        }
    }
}

/// A set-associative cache with true-LRU replacement (tags only — this is a
/// timing/energy model, data lives in the functional layer).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cache {
    cfg: CacheConfig,
    /// `tags[set * ways + way]`; `u64::MAX` = invalid.
    tags: Vec<u64>,
    /// Monotonic use stamps for LRU.
    stamps: Vec<u64>,
    tick: u64,
    hits: u64,
    misses: u64,
    /// `log2(line_bytes)`: an address shifted right by this is its line.
    line_shift: u32,
    /// `sets - 1`: a line masked by this is its set.
    set_mask: u64,
}

impl Cache {
    /// An empty cache with the given geometry.
    ///
    /// # Panics
    /// Panics unless `sets` and `line_bytes` are powers of two.
    pub fn new(cfg: CacheConfig) -> Cache {
        assert!(cfg.sets.is_power_of_two(), "sets must be a power of two");
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let n = (cfg.sets * cfg.ways) as usize;
        Cache {
            cfg,
            tags: vec![u64::MAX; n],
            stamps: vec![0; n],
            tick: 0,
            hits: 0,
            misses: 0,
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_mask: u64::from(cfg.sets) - 1,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    fn set_of(&self, addr: u64) -> usize {
        (self.tag_of(addr) & self.set_mask) as usize
    }

    fn tag_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// Access `addr`; returns `true` on hit. Misses allocate (fill) the line,
    /// evicting the LRU way.
    pub fn access(&mut self, addr: u64) -> bool {
        self.tick += 1;
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let base = set * self.cfg.ways as usize;
        let ways = &mut self.tags[base..base + self.cfg.ways as usize];
        if let Some(w) = ways.iter().position(|t| *t == tag) {
            self.stamps[base + w] = self.tick;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        // Fill: evict LRU.
        let lru = (0..self.cfg.ways as usize)
            .min_by_key(|w| self.stamps[base + w])
            .expect("nonzero associativity");
        self.tags[base + lru] = tag;
        self.stamps[base + lru] = self.tick;
        false
    }

    /// Hit/miss counts so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Miss ratio so far (0 when unused).
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// Where an access was finally serviced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServicedBy {
    /// Hit in the first level.
    L1,
    /// L1 miss, L2 hit.
    L2,
    /// Missed the whole hierarchy.
    Memory,
}

/// Result of a hierarchy access: total latency plus which level serviced it
/// (the caller emits the corresponding energy events).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessResult {
    /// Total access latency in cycles.
    pub latency: u32,
    /// Level that serviced the access.
    pub serviced_by: ServicedBy,
}

/// The simulated memory hierarchy: split L1s over a unified L2 over flat
/// memory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemHierarchy {
    /// Instruction L1.
    pub l1i: Cache,
    /// Data L1.
    pub l1d: Cache,
    /// Unified second level.
    pub l2: Cache,
    /// Latency of a memory (L2 miss) access.
    pub mem_latency: u32,
}

impl MemHierarchy {
    /// Standard hierarchy used by every model in the study (§3.3).
    pub fn standard() -> MemHierarchy {
        MemHierarchy {
            l1i: Cache::new(CacheConfig::l1i()),
            l1d: Cache::new(CacheConfig::l1d()),
            l2: Cache::new(CacheConfig::l2()),
            mem_latency: 150,
        }
    }

    /// Instruction fetch access.
    pub fn access_inst(&mut self, addr: u64) -> AccessResult {
        Self::walk(&mut self.l1i, &mut self.l2, self.mem_latency, addr)
    }

    /// Data access (loads and committed stores).
    pub fn access_data(&mut self, addr: u64) -> AccessResult {
        Self::walk(&mut self.l1d, &mut self.l2, self.mem_latency, addr)
    }

    fn walk(l1: &mut Cache, l2: &mut Cache, mem_latency: u32, addr: u64) -> AccessResult {
        if l1.access(addr) {
            return AccessResult {
                latency: l1.config().latency,
                serviced_by: ServicedBy::L1,
            };
        }
        if l2.access(addr) {
            return AccessResult {
                latency: l1.config().latency + l2.config().latency,
                serviced_by: ServicedBy::L2,
            };
        }
        AccessResult {
            latency: l1.config().latency + l2.config().latency + mem_latency,
            serviced_by: ServicedBy::Memory,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_hits() {
        let mut c = Cache::new(CacheConfig::l1d());
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1008), "same line");
        assert_eq!(c.stats(), (2, 1));
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 2-way cache, 1 set: third distinct line evicts the least recent.
        let mut c = Cache::new(CacheConfig {
            sets: 1,
            ways: 2,
            line_bytes: 64,
            latency: 1,
        });
        c.access(0x0); // A miss
        c.access(0x40); // B miss
        c.access(0x0); // A hit (B becomes LRU)
        c.access(0x80); // C miss, evicts B
        assert!(c.access(0x0), "A retained");
        assert!(!c.access(0x40), "B evicted");
    }

    #[test]
    fn working_set_larger_than_capacity_thrashes() {
        let mut c = Cache::new(CacheConfig {
            sets: 4,
            ways: 2,
            line_bytes: 64,
            latency: 1,
        });
        // Capacity 512B; stream over 4KiB repeatedly.
        for _ in 0..4 {
            for a in (0..4096u64).step_by(64) {
                c.access(a);
            }
        }
        assert!(c.miss_ratio() > 0.9, "miss ratio {}", c.miss_ratio());
    }

    #[test]
    fn hierarchy_latencies_stack() {
        let mut h = MemHierarchy::standard();
        let first = h.access_data(0x5000);
        assert_eq!(first.serviced_by, ServicedBy::Memory);
        assert_eq!(first.latency, 2 + 10 + 150);
        let second = h.access_data(0x5000);
        assert_eq!(second.serviced_by, ServicedBy::L1);
        assert_eq!(second.latency, 2);
        // Evicted from L1 but not L2 -> L2 hit. (Touch enough lines mapping
        // to the same L1 set.)
        let cfg = *h.l1d.config();
        for i in 1..=cfg.ways as u64 {
            h.access_data(0x5000 + i * u64::from(cfg.line_bytes) * u64::from(cfg.sets));
        }
        let third = h.access_data(0x5000);
        assert_eq!(third.serviced_by, ServicedBy::L2);
        assert_eq!(third.latency, 2 + 10);
    }

    #[test]
    fn capacities_match_paper_table() {
        assert_eq!(CacheConfig::l1i().capacity(), 32 * 1024);
        assert_eq!(CacheConfig::l1d().capacity(), 32 * 1024);
        assert_eq!(CacheConfig::l2().capacity(), 1024 * 1024);
    }
}
