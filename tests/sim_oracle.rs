//! Oracle test of the simulated cache.
//!
//! `reference` holds the original `Vec<Vec<_>>` cache model, kept here
//! unchanged as a test-only oracle: each set is a `Vec` ordered least
//! recently used first, updated with `position` + `remove` + `push`. The
//! production [`sb_sim::Cache`] stores every set in one flat,
//! most-recently-used-first array instead. The first property replays
//! random operation sequences through both, on tiny geometries and on the
//! Skylake ones, and requires identical results, statistics and occupancy
//! after every operation. The last property drives
//! [`Machine::mem_access`] in lockstep with a reference hierarchy built
//! from the oracle caches and compares latency, clocks and PMU counters.

use proptest::prelude::*;
use sb_sim::{AccessKind, Cache, CacheConfig, CostModel, Cycles, Machine, MachineConfig, Pmu};

mod reference {
    //! The original cache model, unchanged apart from its imports.

    #![allow(dead_code)]

    use sb_sim::CacheConfig;

    /// One set-associative, LRU-replaced cache level.
    ///
    /// Tags are full line addresses, so the model never aliases distinct lines.
    /// The cache is a pure hit/miss filter: latency charging is done by the
    /// hierarchy walker in [`crate::machine::Machine`].
    #[derive(Debug, Clone)]
    pub struct Cache {
        config: CacheConfig,
        /// `sets[set]` holds up to `ways` line addresses, most recently used
        /// last.
        sets: Vec<Vec<u64>>,
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
        /// Panics if the geometry is degenerate (zero ways or a capacity that is
        /// not a whole number of sets).
        pub fn new(config: CacheConfig) -> Self {
            assert!(config.ways > 0 && config.line_bytes > 0);
            assert_eq!(config.size_bytes % (config.ways * config.line_bytes), 0);
            let sets = config.sets();
            assert!(sets.is_power_of_two(), "set count must be a power of two");
            Cache {
                config,
                sets: vec![Vec::new(); sets],
                accesses: 0,
                misses: 0,
            }
        }

        /// The geometry this cache was built with.
        pub fn config(&self) -> &CacheConfig {
            &self.config
        }

        fn set_of(&self, paddr: u64) -> (usize, u64) {
            let line = paddr / self.config.line_bytes as u64;
            let set = (line as usize) & (self.sets.len() - 1);
            (set, line)
        }

        /// Looks up the line holding `paddr`, filling it on a miss.
        ///
        /// Returns `true` on a hit. On a miss the LRU line of the set is
        /// evicted (the model is not inclusive and does not track dirtiness;
        /// write-back traffic is folded into miss latency).
        pub fn access(&mut self, paddr: u64) -> bool {
            self.accesses += 1;
            let (set, line) = self.set_of(paddr);
            let ways = self.config.ways;
            let set = &mut self.sets[set];
            if let Some(pos) = set.iter().position(|&l| l == line) {
                let l = set.remove(pos);
                set.push(l);
                true
            } else {
                self.misses += 1;
                if set.len() == ways {
                    set.remove(0);
                }
                set.push(line);
                false
            }
        }

        /// Looks up without filling (used to probe state in tests).
        pub fn probe(&self, paddr: u64) -> bool {
            let line = paddr / self.config.line_bytes as u64;
            let set = (line as usize) & (self.sets.len() - 1);
            self.sets[set].contains(&line)
        }

        /// Invalidates the whole cache (e.g. `WBINVD`); statistics survive.
        pub fn flush(&mut self) {
            for set in &mut self.sets {
                set.clear();
            }
        }

        /// Number of lines currently resident.
        pub fn resident_lines(&self) -> usize {
            self.sets.iter().map(Vec::len).sum()
        }

        /// Resets the hit/miss statistics without touching cache state.
        pub fn reset_stats(&mut self) {
            self.accesses = 0;
            self.misses = 0;
        }
    }
}

/// Cache geometries under test: tiny ones (a single set, a single way,
/// two ways) and every Skylake level.
const CACHES: [CacheConfig; 7] = [
    CacheConfig {
        size_bytes: 256,
        ways: 4,
        line_bytes: 64,
    },
    CacheConfig {
        size_bytes: 512,
        ways: 1,
        line_bytes: 64,
    },
    CacheConfig {
        size_bytes: 512,
        ways: 2,
        line_bytes: 64,
    },
    CacheConfig::skylake_l1i(),
    CacheConfig::skylake_l1d(),
    CacheConfig::skylake_l2(),
    CacheConfig::skylake_l3(),
];

/// A line that lands in one of four sets (the first two, one in the
/// middle, the last) with one of `2 * ways` tags there, so every set the
/// sequence touches sees hits, misses and evictions.
fn line(sets: usize, ways: usize, set_pick: u8, tag_pick: u8) -> u64 {
    let set = [0, 1, sets / 2, sets - 1][set_pick as usize % 4] as u64;
    let tag = tag_pick as u64 % (2 * ways as u64);
    tag * sets as u64 + set
}

#[derive(Debug, Clone, Copy)]
enum CacheOp {
    /// `access` of a line picked by [`line`], at a byte offset in it, in
    /// the low or the high end of the 16 GiB physical space.
    Access(u8, u8, u8, bool),
    Probe(u8, u8, u8, bool),
    Flush,
    ResetStats,
}

fn cache_op() -> impl Strategy<Value = CacheOp> {
    (
        any::<u8>(),
        any::<u8>(),
        any::<u8>(),
        any::<u8>(),
        any::<bool>(),
    )
        .prop_map(|(op, s, t, o, hi)| match op {
            0..=3 => CacheOp::Flush,
            4..=7 => CacheOp::ResetStats,
            8..=63 => CacheOp::Probe(s, t, o, hi),
            _ => CacheOp::Access(s, t, o, hi),
        })
}

/// The physical address of a [`CacheOp`] line in geometry `c`.
fn paddr(c: &CacheConfig, set_pick: u8, tag_pick: u8, offset: u8, hi: bool) -> u64 {
    // 15 GiB up: the top of the modeled 16 GiB stays within the tag range.
    let base = if hi { 15 << 30 } else { 0 };
    base + line(c.sets(), c.ways, set_pick, tag_pick) * c.line_bytes as u64
        + offset as u64 % c.line_bytes as u64
}

/// The reference hierarchy: the original `Machine::mem_access` walk over
/// oracle caches, with its own clocks and PMUs.
struct RefMachine {
    cost: CostModel,
    cores: Vec<RefCpu>,
    l3: reference::Cache,
}

struct RefCpu {
    tsc: Cycles,
    l1i: reference::Cache,
    l1d: reference::Cache,
    l2: reference::Cache,
    pmu: Pmu,
}

impl RefMachine {
    fn new(cores: usize) -> Self {
        RefMachine {
            cost: CostModel::skylake(),
            cores: (0..cores)
                .map(|_| RefCpu {
                    tsc: 0,
                    l1i: reference::Cache::new(CacheConfig::skylake_l1i()),
                    l1d: reference::Cache::new(CacheConfig::skylake_l1d()),
                    l2: reference::Cache::new(CacheConfig::skylake_l2()),
                    pmu: Pmu::new(),
                })
                .collect(),
            l3: reference::Cache::new(CacheConfig::skylake_l3()),
        }
    }

    fn mem_access(&mut self, core: usize, hpa: u64, kind: AccessKind) -> Cycles {
        let cpu = &mut self.cores[core];
        let mut latency = self.cost.l1_hit;
        let l1_hit = if kind.is_instruction() {
            let hit = cpu.l1i.access(hpa);
            if !hit {
                cpu.pmu.l1i_misses += 1;
            }
            hit
        } else {
            let hit = cpu.l1d.access(hpa);
            if !hit {
                cpu.pmu.l1d_misses += 1;
            }
            hit
        };
        if !l1_hit {
            latency += self.cost.l2_hit;
            if !cpu.l2.access(hpa) {
                cpu.pmu.l2_misses += 1;
                latency += self.cost.l3_hit;
                if !self.l3.access(hpa) {
                    cpu.pmu.l3_misses += 1;
                    latency += self.cost.dram;
                }
            }
        }
        self.cores[core].tsc += latency;
        latency
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn cache_matches_the_reference(
        geometry in 0usize..CACHES.len(),
        ops in proptest::collection::vec(cache_op(), 1..400),
    ) {
        let config = CACHES[geometry];
        let mut flat = Cache::new(config);
        let mut oracle = reference::Cache::new(config);
        for (i, &op) in ops.iter().enumerate() {
            match op {
                CacheOp::Access(s, t, o, hi) => {
                    let a = paddr(&config, s, t, o, hi);
                    prop_assert_eq!(flat.access(a), oracle.access(a), "op {}: {:?}", i, op);
                }
                CacheOp::Probe(s, t, o, hi) => {
                    let a = paddr(&config, s, t, o, hi);
                    prop_assert_eq!(flat.probe(a), oracle.probe(a), "op {}: {:?}", i, op);
                }
                CacheOp::Flush => {
                    flat.flush();
                    oracle.flush();
                }
                CacheOp::ResetStats => {
                    flat.reset_stats();
                    oracle.reset_stats();
                }
            }
            prop_assert_eq!(flat.accesses, oracle.accesses, "op {}", i);
            prop_assert_eq!(flat.misses, oracle.misses, "op {}", i);
            prop_assert_eq!(flat.resident_lines(), oracle.resident_lines(), "op {}", i);
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Lines 512 KiB apart share an L1, L2 and L3 set, so a pick of 40
    /// of them per set overflows all three levels; two cores share the L3.
    #[test]
    fn mem_access_matches_the_reference_hierarchy(
        ops in proptest::collection::vec((0usize..2, 0u8..3, 0u64..40, 0u64..4, 0u64..64), 1..600),
    ) {
        let mut m = Machine::new(MachineConfig {
            cores: 2,
            ..MachineConfig::default()
        });
        let mut oracle = RefMachine::new(2);
        let l3_sets = CacheConfig::skylake_l3().sets() as u64;
        for (i, &(core, kind, tag, set, offset)) in ops.iter().enumerate() {
            let kind = [
                AccessKind::InstructionFetch,
                AccessKind::DataRead,
                AccessKind::DataWrite,
            ][kind as usize];
            let set = [0, 1, 64, 1024][set as usize];
            let hpa = (tag * l3_sets + set) * 64 + offset;
            prop_assert_eq!(
                m.mem_access(core, hpa, kind),
                oracle.mem_access(core, hpa, kind),
                "op {}", i
            );
            for c in 0..2 {
                prop_assert_eq!(m.cpu(c).tsc, oracle.cores[c].tsc, "op {}", i);
                prop_assert_eq!(m.cpu(c).pmu, oracle.cores[c].pmu, "op {}", i);
            }
        }
    }
}
