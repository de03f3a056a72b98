//! Set-associative cache model.
//!
//! The indirect cost of IPC (§2.1.2 of the paper) is the eviction of
//! user-mode state from the L1 instruction/data caches, the unified L2/L3,
//! and the TLBs while the kernel runs. To let that effect emerge rather than
//! hard-coding it, every simulated memory access goes through a real cache
//! hierarchy: physically indexed, set-associative, LRU-replaced caches whose
//! geometries default to the Skylake i7-6700K the paper used.

use std::ops::Range;

use crate::Cycles;

/// What an access is, for routing and PMU accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Instruction fetch: goes through L1i.
    InstructionFetch,
    /// Data read: goes through L1d.
    DataRead,
    /// Data write: goes through L1d (write-allocate).
    DataWrite,
}

impl AccessKind {
    /// Whether this access goes through the instruction port.
    pub fn is_instruction(self) -> bool {
        matches!(self, AccessKind::InstructionFetch)
    }
}

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (lines per set).
    pub ways: usize,
    /// Line size in bytes (64 on every x86 part we model).
    pub line_bytes: usize,
}

impl CacheConfig {
    /// Skylake 32 KiB 8-way L1 instruction cache.
    pub const fn skylake_l1i() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024,
            ways: 8,
            line_bytes: 64,
        }
    }

    /// Skylake 32 KiB 8-way L1 data cache.
    pub const fn skylake_l1d() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024,
            ways: 8,
            line_bytes: 64,
        }
    }

    /// Skylake 256 KiB 4-way private L2.
    pub const fn skylake_l2() -> Self {
        CacheConfig {
            size_bytes: 256 * 1024,
            ways: 4,
            line_bytes: 64,
        }
    }

    /// Skylake 8 MiB 16-way shared L3 (i7-6700K).
    pub const fn skylake_l3() -> Self {
        CacheConfig {
            size_bytes: 8 * 1024 * 1024,
            ways: 16,
            line_bytes: 64,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.ways * self.line_bytes)
    }
}

/// One set-associative, LRU-replaced cache level.
///
/// Tags are full line addresses, so the model never aliases distinct lines.
/// The cache is a pure hit/miss filter: latency charging is done by the
/// hierarchy walker in [`crate::machine::Machine`].
///
/// All sets live in one flat slot array, `ways` slots per set. A slot
/// holds `line + 1` as a `u32`, so 0 marks an empty slot; a set keeps its
/// lines most recently used first, with empty slots at the LRU end. A hit
/// moves its line to the front, a miss shifts the set down by one (the
/// last slot — the LRU line, or an empty slot — falls off) and writes the
/// new line at the front: the victim is exactly the strict-LRU one.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `slots[set * ways..][..ways]` is one set, MRU first.
    slots: Box<[u32]>,
    /// `log2(line_bytes)`.
    line_shift: u32,
    /// `sets - 1`.
    set_mask: usize,
    /// Total lookups.
    pub accesses: u64,
    /// Lookups that missed.
    pub misses: u64,
}

impl Cache {
    /// Creates an empty (cold) cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero ways, a line size that is
    /// not a power of two, or a capacity that is not a power-of-two number
    /// of sets).
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.ways > 0 && config.line_bytes.is_power_of_two());
        assert_eq!(config.size_bytes % (config.ways * config.line_bytes), 0);
        let sets = config.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Cache {
            config,
            slots: vec![0; sets * config.ways].into_boxed_slice(),
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: sets - 1,
            accesses: 0,
            misses: 0,
        }
    }

    /// The geometry this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The slot range of the set holding `paddr`, and the slot value of
    /// its line.
    ///
    /// # Panics
    ///
    /// Panics if `line + 1` does not fit a slot (with 64-byte lines, from
    /// the last line below 256 GiB up; the modeled machine has 16 GiB).
    fn set_of(&self, paddr: u64) -> (Range<usize>, u32) {
        let line = paddr >> self.line_shift;
        let tag = u32::try_from(line + 1).expect("physical address beyond the cache tag range");
        let start = (line as usize & self.set_mask) * self.config.ways;
        (start..start + self.config.ways, tag)
    }

    /// Looks up the line holding `paddr`, filling it on a miss.
    ///
    /// Returns `true` on a hit. On a miss the LRU line of the set is
    /// evicted (the model is not inclusive — a level evicts without
    /// back-invalidating the others — and does not track dirtiness;
    /// write-back traffic is folded into miss latency).
    pub fn access(&mut self, paddr: u64) -> bool {
        self.accesses += 1;
        let (range, tag) = self.set_of(paddr);
        // One pass both searches and shifts: each slot takes its
        // predecessor's line until the pass meets `tag` (a hit) or the LRU
        // line falls off the end (a miss).
        let mut carry = tag;
        for slot in &mut self.slots[range] {
            let old = std::mem::replace(slot, carry);
            if old == tag {
                return true;
            }
            carry = old;
        }
        self.misses += 1;
        false
    }

    /// Looks up without filling (used to probe state in tests).
    pub fn probe(&self, paddr: u64) -> bool {
        let (range, tag) = self.set_of(paddr);
        self.slots[range].contains(&tag)
    }

    /// Invalidates the whole cache (e.g. `WBINVD`); statistics survive.
    pub fn flush(&mut self) {
        self.slots.fill(0);
    }

    /// Number of lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.slots.iter().filter(|&&t| t != 0).count()
    }

    /// Resets the hit/miss statistics without touching cache state.
    pub fn reset_stats(&mut self) {
        self.accesses = 0;
        self.misses = 0;
    }
}

/// Latencies of the Skylake hierarchy, expressed as *additional* cycles per
/// level over the previous one. Kept alongside the geometry so benches can
/// describe the hierarchy in one place.
#[derive(Debug, Clone, Copy)]
pub struct HierarchyLatency {
    /// L1 hit.
    pub l1: Cycles,
    /// Extra on L1 miss, L2 hit.
    pub l2: Cycles,
    /// Extra on L2 miss, L3 hit.
    pub l3: Cycles,
    /// Extra on L3 miss (DRAM).
    pub dram: Cycles,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B lines = 512 B.
        Cache::new(CacheConfig {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
        })
    }

    #[test]
    fn skylake_geometries() {
        assert_eq!(CacheConfig::skylake_l1i().sets(), 64);
        assert_eq!(CacheConfig::skylake_l2().sets(), 1024);
        assert_eq!(CacheConfig::skylake_l3().sets(), 8192);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1038)); // Same 64-byte line.
        assert_eq!(c.misses, 1);
        assert_eq!(c.accesses, 3);
    }

    #[test]
    #[should_panic(expected = "beyond the cache tag range")]
    fn line_beyond_the_tag_range_panics() {
        tiny().access(1 << 38);
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_line_size_panics() {
        Cache::new(CacheConfig {
            size_bytes: 384,
            ways: 2,
            line_bytes: 48,
        });
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = tiny();
        // Three lines mapping to set 0 in a 2-way set: stride = sets*line =
        // 256 bytes.
        c.access(0x0000);
        c.access(0x0100);
        c.access(0x0200); // Evicts 0x0000.
        assert!(!c.probe(0x0000));
        assert!(c.probe(0x0100));
        assert!(c.probe(0x0200));
    }

    #[test]
    fn touching_lru_line_saves_it() {
        let mut c = tiny();
        c.access(0x0000);
        c.access(0x0100);
        c.access(0x0000); // Refresh.
        c.access(0x0200); // Evicts 0x0100, not 0x0000.
        assert!(c.probe(0x0000));
        assert!(!c.probe(0x0100));
    }

    #[test]
    fn flush_empties_but_keeps_stats() {
        let mut c = tiny();
        c.access(0x0000);
        c.flush();
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.accesses, 1);
        assert!(!c.probe(0x0000));
    }

    #[test]
    fn distinct_sets_do_not_interfere() {
        let mut c = tiny();
        for i in 0..4u64 {
            c.access(i * 64);
        }
        assert_eq!(c.resident_lines(), 4);
        assert_eq!(c.misses, 4);
        for i in 0..4u64 {
            assert!(c.probe(i * 64));
        }
    }
}
