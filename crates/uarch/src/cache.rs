//! Set-associative caches with true-LRU replacement, and the two-level
//! hierarchy of paper Table 1.

use crate::config::CacheConfig;

/// Where a memory access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessLevel {
    /// Hit in the L1 cache.
    L1,
    /// Missed L1, hit L2.
    L2,
    /// Missed both caches; serviced by main memory.
    Memory,
}

/// A set-associative cache with true-LRU replacement.
///
/// Tag-array only (no data), which is all a timing/power simulator needs.
///
/// # Examples
///
/// ```
/// use didt_uarch::cache::Cache;
/// use didt_uarch::CacheConfig;
///
/// let mut c = Cache::new(CacheConfig {
///     size_bytes: 1024, associativity: 2, line_bytes: 64, latency: 3,
/// });
/// assert!(!c.access(0x40));   // cold miss
/// assert!(c.access(0x40));    // now resident
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `tags[set * assoc + way]`; u64::MAX = invalid.
    tags: Vec<u64>,
    /// LRU ordering per set: `lru[set * assoc + rank]` = way index,
    /// rank 0 = most recently used.
    lru: Vec<u8>,
    set_mask: u64,
    line_shift: u32,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Build a cache from its geometry.
    ///
    /// # Panics
    ///
    /// Panics when the geometry is degenerate (zero sizes, non-power-of-
    /// two sets/lines, or associativity above 255).
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "sets must be a power of two"
        );
        assert!(
            config.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(config.associativity > 0 && config.associativity <= 255);
        Cache {
            config,
            tags: vec![u64::MAX; sets * config.associativity],
            lru: (0..sets * config.associativity)
                .map(|i| (i % config.associativity) as u8)
                .collect(),
            set_mask: (sets - 1) as u64,
            line_shift: config.line_bytes.trailing_zeros(),
            hits: 0,
            misses: 0,
        }
    }

    /// Geometry of this cache.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Access `addr`; returns `true` on hit. Misses allocate (the line is
    /// brought in, evicting the LRU way).
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let assoc = self.config.associativity;
        let base = set * assoc;
        // MRU fast path: most accesses re-touch the most recent line in
        // the set, where the LRU rotation is a no-op — skip the scans.
        let mru_way = self.lru[base] as usize;
        if self.tags[base + mru_way] == line {
            self.hits += 1;
            return true;
        }
        let tags = &mut self.tags[base..base + assoc];
        let lru = &mut self.lru[base..base + assoc];
        if let Some(way) = tags.iter().position(|&t| t == line) {
            // Move this way to MRU position.
            let rank = lru
                .iter()
                .position(|&w| w as usize == way)
                .expect("way in lru");
            lru[..=rank].rotate_right(1);
            lru[0] = way as u8;
            self.hits += 1;
            true
        } else {
            // Evict the LRU way (last rank).
            let victim = lru[assoc - 1];
            tags[victim as usize] = line;
            lru.rotate_right(1);
            lru[0] = victim;
            self.misses += 1;
            false
        }
    }

    /// Hits observed so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses observed so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Invalidate all lines and zero the statistics. Also restores the
    /// LRU rank order of every set to the as-built state, so a recycled
    /// cache is indistinguishable from a fresh `Cache::new`.
    pub fn reset(&mut self) {
        self.tags.fill(u64::MAX);
        let assoc = self.config.associativity;
        for (i, rank) in self.lru.iter_mut().enumerate() {
            *rank = (i % assoc) as u8;
        }
        self.hits = 0;
        self.misses = 0;
    }
}

/// How many lines the stream prefetcher pulls ahead per trigger.
const STREAM_PREFETCH_DEGREE: u64 = 8;

/// An L1 + unified-L2 + memory hierarchy for one access stream, with a
/// tagged sequential stream prefetcher: two consecutive line misses
/// launch a stream that runs ahead of the demand accesses, re-armed each
/// time the demand stream reaches a trigger line. Strided array sweeps
/// become cheap (as on real hardware with stream engines); pointer
/// chasing and random accesses still pay full memory latency.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    l1: Cache,
    l2: Cache,
    memory_latency: u32,
    prefetch: bool,
    last_miss_line: u64,
    stream_trigger: u64,
    stream_next: u64,
    /// Hoisted L1 line geometry, so the hot access path does no
    /// per-call `trailing_zeros` recomputation.
    line_shift: u32,
    line_bytes: u64,
}

impl Hierarchy {
    /// Build a hierarchy from L1/L2 geometry and memory latency, with the
    /// stream prefetcher enabled.
    #[must_use]
    pub fn new(l1: CacheConfig, l2: CacheConfig, memory_latency: u32) -> Self {
        Hierarchy {
            line_shift: l1.line_bytes.trailing_zeros(),
            line_bytes: l1.line_bytes as u64,
            l1: Cache::new(l1),
            l2: Cache::new(l2),
            memory_latency,
            prefetch: true,
            last_miss_line: u64::MAX - 1,
            stream_trigger: u64::MAX,
            stream_next: u64::MAX,
        }
    }

    /// Enable or disable the stream prefetcher.
    pub fn set_prefetch(&mut self, enabled: bool) {
        self.prefetch = enabled;
    }

    /// Pull `STREAM_PREFETCH_DEGREE` lines starting at `stream_next` into
    /// both cache levels and advance the trigger.
    fn prefetch_ahead(&mut self) {
        let line_bytes = self.line_bytes;
        for k in 0..STREAM_PREFETCH_DEGREE {
            let addr = (self.stream_next + k) * line_bytes;
            if !self.l1.access(addr) {
                self.l2.access(addr);
            }
        }
        self.stream_next += STREAM_PREFETCH_DEGREE;
        // Re-arm the trigger a few lines before the prefetched frontier.
        self.stream_trigger = self.stream_next - 2;
    }

    /// Access `addr`, returning where it hit and the total latency.
    pub fn access(&mut self, addr: u64) -> (AccessLevel, u32) {
        let line = addr >> self.line_shift;
        let result = if self.l1.access(addr) {
            (AccessLevel::L1, self.l1.config().latency)
        } else if self.l2.access(addr) {
            (
                AccessLevel::L2,
                self.l1.config().latency + self.l2.config().latency,
            )
        } else {
            (
                AccessLevel::Memory,
                self.l1.config().latency + self.l2.config().latency + self.memory_latency,
            )
        };
        if self.prefetch {
            if result.0 == AccessLevel::L1 {
                if line == self.stream_trigger {
                    self.prefetch_ahead();
                }
            } else {
                if line == self.last_miss_line.wrapping_add(1) {
                    // Two sequential line misses: launch the stream.
                    self.stream_next = line + 1;
                    self.prefetch_ahead();
                }
                self.last_miss_line = line;
            }
        }
        result
    }

    /// The L2 cache.
    #[must_use]
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// Invalidate everything, zero statistics, and disarm the stream
    /// prefetcher — bit-identical to a freshly built hierarchy (the
    /// prefetch enable flag is configuration and is left as set).
    pub fn reset(&mut self) {
        self.l1.reset();
        self.l2.reset();
        self.last_miss_line = u64::MAX - 1;
        self.stream_trigger = u64::MAX;
        self.stream_next = u64::MAX;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CacheConfig {
        CacheConfig {
            size_bytes: 1024,
            associativity: 2,
            line_bytes: 64,
            latency: 3,
        }
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = Cache::new(small());
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1010)); // same line
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        // 2-way: fill a set with A, B; touch A; insert C → B evicted.
        let mut c = Cache::new(small());
        let sets = small().sets() as u64; // 8 sets
        let line = 64u64;
        let a = 0;
        let b = a + sets * line; // same set, different tag
        let cc = b + sets * line;
        assert!(!c.access(a));
        assert!(!c.access(b));
        assert!(c.access(a)); // A is MRU, B is LRU
        assert!(!c.access(cc)); // evicts B
        assert!(c.access(a)); // A still resident
        assert!(!c.access(b)); // B was evicted
    }

    #[test]
    fn working_set_within_capacity_all_hits() {
        let mut c = Cache::new(small());
        let lines = small().size_bytes / small().line_bytes; // 16 lines
        for pass in 0..3 {
            for i in 0..lines as u64 {
                let hit = c.access(i * 64);
                if pass > 0 {
                    assert!(hit, "pass {pass}, line {i}");
                }
            }
        }
    }

    #[test]
    fn working_set_exceeding_capacity_thrashes() {
        let mut c = Cache::new(small());
        let lines = 4 * small().size_bytes / small().line_bytes;
        for _ in 0..3 {
            for i in 0..lines as u64 {
                c.access(i * 64);
            }
        }
        // Sequential sweep of 4× capacity with LRU: everything misses
        // after the first pass too.
        let miss_rate = c.misses() as f64 / (c.hits() + c.misses()) as f64;
        assert!(miss_rate > 0.9, "miss rate {miss_rate}");
    }

    #[test]
    fn reset_clears() {
        let mut c = Cache::new(small());
        c.access(0);
        c.reset();
        assert_eq!(c.hits() + c.misses(), 0);
        assert!(!c.access(0));
    }

    #[test]
    fn hierarchy_latencies() {
        let l2cfg = CacheConfig {
            size_bytes: 4096,
            associativity: 4,
            line_bytes: 64,
            latency: 16,
        };
        let mut h = Hierarchy::new(small(), l2cfg, 250);
        let (lvl, lat) = h.access(0x8000);
        assert_eq!(lvl, AccessLevel::Memory);
        assert_eq!(lat, 3 + 16 + 250);
        let (lvl, lat) = h.access(0x8000);
        assert_eq!(lvl, AccessLevel::L1);
        assert_eq!(lat, 3);
    }

    #[test]
    fn hierarchy_l2_hit_after_l1_eviction() {
        // Thrash L1 with a working set that fits in L2.
        let l2cfg = CacheConfig {
            size_bytes: 16 * 1024,
            associativity: 4,
            line_bytes: 64,
            latency: 16,
        };
        let mut h = Hierarchy::new(small(), l2cfg, 250);
        let lines = 64u64; // 4 KB working set: 4× L1, fits L2
        for _ in 0..2 {
            for i in 0..lines {
                h.access(i * 64);
            }
        }
        // Second pass should have been L2 hits, not memory.
        let (lvl, _) = h.access(0);
        assert_ne!(lvl, AccessLevel::Memory);
    }

    #[test]
    fn stream_prefetcher_covers_sequential_sweeps() {
        let l2cfg = CacheConfig {
            size_bytes: 2 * 1024 * 1024,
            associativity: 4,
            line_bytes: 64,
            latency: 16,
        };
        let mut h = Hierarchy::new(small(), l2cfg, 250);
        // Sequential sweep far beyond both caches: after the stream is
        // detected (two line misses), nearly everything hits.
        let mut mem_misses = 0;
        for line in 0..4096u64 {
            for word in 0..8u64 {
                let (lvl, _) = h.access(0x4000_0000 + line * 64 + word * 8);
                if lvl == AccessLevel::Memory {
                    mem_misses += 1;
                }
            }
        }
        assert!(
            mem_misses < 40,
            "memory misses {mem_misses} on a pure stream"
        );
    }

    #[test]
    fn prefetcher_ignores_random_accesses() {
        let l2cfg = CacheConfig {
            size_bytes: 64 * 1024,
            associativity: 4,
            line_bytes: 64,
            latency: 16,
        };
        let mut on = Hierarchy::new(small(), l2cfg, 250);
        let mut off = Hierarchy::new(small(), l2cfg, 250);
        off.set_prefetch(false);
        // Pseudo-random lines over a region 64x the L2: prefetching can't
        // help, and must not make things worse.
        let mut state = 7u64;
        let mut misses = (0u64, 0u64);
        for _ in 0..20_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let addr = 0x8000_0000 + (state % 65_536) * 64;
            if on.access(addr).0 == AccessLevel::Memory {
                misses.0 += 1;
            }
            if off.access(addr).0 == AccessLevel::Memory {
                misses.1 += 1;
            }
        }
        let ratio = misses.0 as f64 / misses.1.max(1) as f64;
        assert!(
            (0.9..1.1).contains(&ratio),
            "prefetch changed random-miss rate: {ratio}"
        );
    }

    #[test]
    fn hierarchy_reset_matches_fresh() {
        let l2cfg = CacheConfig {
            size_bytes: 64 * 1024,
            associativity: 4,
            line_bytes: 64,
            latency: 16,
        };
        let mut h = Hierarchy::new(small(), l2cfg, 250);
        // Launch a prefetch stream and dirty both levels...
        for line in 0..256u64 {
            h.access(0x4000_0000 + line * 64);
        }
        h.reset();
        // ...then the recycled hierarchy must replay exactly like new,
        // including the (re-disarmed) stream prefetcher.
        let mut fresh = Hierarchy::new(small(), l2cfg, 250);
        for line in 0..256u64 {
            let addr = 0x4000_0000 + line * 64;
            assert_eq!(h.access(addr), fresh.access(addr), "line {line}");
        }
        assert_eq!(h.l1.misses(), fresh.l1.misses());
        assert_eq!(h.l2().misses(), fresh.l2().misses());
    }
}
