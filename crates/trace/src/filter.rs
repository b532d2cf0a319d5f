//! The gradual filtering mechanism (§2.3): small set-associative counter
//! caches that identify frequent (**hot**) and most-frequent (**blazing**)
//! TIDs. Only hot TIDs are constructed into the trace cache; only blazing
//! traces are handed to the optimizer. This selectivity is PARROT's key
//! power-awareness lever.

use parrot_telemetry::trace as tev;

/// Counter-filter geometry and threshold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FilterConfig {
    /// Number of sets (power of two).
    pub sets: u32,
    /// Associativity.
    pub ways: u32,
    /// Count at which a TID qualifies.
    pub threshold: u32,
}

impl FilterConfig {
    /// The hot filter: TID must complete 12 times before construction.
    pub fn hot() -> FilterConfig {
        FilterConfig {
            sets: 256,
            ways: 4,
            threshold: 12,
        }
    }

    /// The blazing filter: trace must execute 48 times before optimization
    /// (the paper notes a "relatively high blazing threshold" amortizes the
    /// optimizer).
    pub fn blazing() -> FilterConfig {
        FilterConfig {
            sets: 128,
            ways: 4,
            threshold: 48,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    key: u64,
    count: u32,
    stamp: u64,
}

/// A small set-associative cache of saturating access counters keyed by TID.
#[derive(Clone, Debug)]
pub struct CounterFilter {
    cfg: FilterConfig,
    entries: Vec<Entry>,
    tick: u64,
    /// Number of counter evictions (capacity pressure indicator).
    pub evictions: u64,
}

impl CounterFilter {
    /// An empty filter.
    ///
    /// # Panics
    /// Panics unless `sets` is a power of two and `threshold > 0`.
    pub fn new(cfg: FilterConfig) -> CounterFilter {
        assert!(cfg.sets.is_power_of_two(), "sets must be a power of two");
        assert!(cfg.threshold > 0, "threshold must be positive");
        CounterFilter {
            cfg,
            entries: vec![
                Entry {
                    key: u64::MAX,
                    count: 0,
                    stamp: 0
                };
                (cfg.sets * cfg.ways) as usize
            ],
            tick: 0,
            evictions: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &FilterConfig {
        &self.cfg
    }

    /// First entry of the set `key` maps to (`sets` is a power of two).
    fn set_base(&self, key: u64) -> usize {
        (key & (u64::from(self.cfg.sets) - 1)) as usize * self.cfg.ways as usize
    }

    /// Record one occurrence of `key`; returns the updated count.
    /// A brand-new or evicted-and-refetched key starts at 1.
    pub fn bump(&mut self, key: u64) -> u32 {
        self.tick += 1;
        let base = self.set_base(key);
        let ways = &mut self.entries[base..base + self.cfg.ways as usize];
        if let Some(e) = ways.iter_mut().find(|e| e.key == key) {
            e.count = e.count.saturating_add(1);
            e.stamp = self.tick;
            if e.count == self.cfg.threshold {
                // Exactly crossing the threshold: this occurrence promotes
                // the TID (to construction or, for the blazing filter, to
                // the optimizer).
                tev::instant(
                    "filter.promote",
                    "trace",
                    tev::track::TRACE,
                    tev::arg1("threshold", f64::from(self.cfg.threshold)),
                );
            }
            return e.count;
        }
        // Victim: prefer an invalid way, else the LRU.
        let victim = ways
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| {
                if e.key == u64::MAX {
                    (0, 0)
                } else {
                    (1, e.stamp)
                }
            })
            .map(|(i, _)| i)
            .expect("nonzero associativity");
        if ways[victim].key != u64::MAX {
            self.evictions += 1;
        }
        ways[victim] = Entry {
            key,
            count: 1,
            stamp: self.tick,
        };
        1
    }

    /// Has `key` reached the threshold (without modifying state)?
    pub fn is_qualified(&self, key: u64) -> bool {
        self.count(key) >= self.cfg.threshold
    }

    /// Current count for `key` (0 if not resident).
    pub fn count(&self, key: u64) -> u32 {
        let base = self.set_base(key);
        self.entries[base..base + self.cfg.ways as usize]
            .iter()
            .find(|e| e.key == key)
            .map(|e| e.count)
            .unwrap_or(0)
    }

    /// A different key guaranteed to index the same set as `key` — models a
    /// TID hash collision for fault injection. Since `sets` is a power of
    /// two, adding any multiple of it preserves the set index even across
    /// wrap-around. `salt` varies which colliding key is produced.
    pub fn alias_key(&self, key: u64, salt: u64) -> u64 {
        key.wrapping_add(u64::from(self.cfg.sets) * (1 + salt % 7))
    }

    /// Reset the counter for `key` (e.g. after acting on qualification).
    pub fn reset(&mut self, key: u64) {
        let base = self.set_base(key);
        if let Some(e) = self.entries[base..base + self.cfg.ways as usize]
            .iter_mut()
            .find(|e| e.key == key)
        {
            e.count = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filter(threshold: u32) -> CounterFilter {
        CounterFilter::new(FilterConfig {
            sets: 16,
            ways: 2,
            threshold,
        })
    }

    #[test]
    fn qualifies_exactly_at_threshold() {
        let mut f = filter(3);
        assert_eq!(f.bump(42), 1);
        assert!(!f.is_qualified(42));
        assert_eq!(f.bump(42), 2);
        assert!(!f.is_qualified(42));
        assert_eq!(f.bump(42), 3);
        assert!(f.is_qualified(42));
    }

    #[test]
    fn cold_keys_evict_lru_but_hot_key_survives_by_recency() {
        let mut f = CounterFilter::new(FilterConfig {
            sets: 1,
            ways: 2,
            threshold: 10,
        });
        for _ in 0..5 {
            f.bump(1); // hot key, most recent
        }
        f.bump(2);
        f.bump(1); // re-touch 1 so 2 is LRU
        f.bump(3); // evicts 2
        assert_eq!(f.count(1), 6);
        assert_eq!(f.count(2), 0, "cold key evicted");
        assert_eq!(f.count(3), 1);
        assert!(f.evictions > 0);
    }

    #[test]
    fn eviction_restarts_counting() {
        let mut f = CounterFilter::new(FilterConfig {
            sets: 1,
            ways: 1,
            threshold: 5,
        });
        for _ in 0..4 {
            f.bump(7);
        }
        f.bump(8); // evicts 7
        assert_eq!(f.bump(7), 1, "evicted key restarts at 1");
    }

    #[test]
    fn reset_clears_count() {
        let mut f = filter(2);
        f.bump(5);
        f.bump(5);
        assert!(f.is_qualified(5));
        f.reset(5);
        assert!(!f.is_qualified(5));
        assert_eq!(f.count(5), 0);
    }

    #[test]
    fn distinct_keys_are_independent() {
        let mut f = filter(2);
        f.bump(100);
        f.bump(116); // different set likely; even same set, independent count
        assert_eq!(f.count(100), 1);
        assert_eq!(f.count(116), 1);
    }

    #[test]
    fn alias_key_collides_in_set_but_differs() {
        let f = filter(3);
        for key in [0u64, 5, 1 << 40, u64::MAX - 3] {
            for salt in 0..10 {
                let alias = f.alias_key(key, salt);
                assert_ne!(alias, key);
                assert_eq!(alias % 16, key % 16, "same set");
            }
        }
    }

    #[test]
    fn paper_thresholds() {
        assert!(FilterConfig::blazing().threshold > FilterConfig::hot().threshold);
    }
}
