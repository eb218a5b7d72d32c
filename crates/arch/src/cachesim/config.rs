//! Parametric cache-hierarchy configurations.
//!
//! The A64FX numbers follow the Fujitsu micro-architecture manual: 64 KiB
//! 4-way L1d with 256 B lines and modulo indexing, and a 7 MiB usable
//! (8 MiB minus the assistant-core partition) 14-way L2 per CMG whose set
//! index XOR-folds high physical-address bits into `PA<18:8>`:
//!
//! ```text
//! index<10:0> = ((PA<36:34> ^ PA<32:30> ^ PA<31:29> ^ PA<27:25> ^ PA<23:21>) << 8)
//!               ^ PA<18:8>
//! ```
//!
//! Traces model one core's shard of a full-node run, so the shipped
//! configurations are *per-core slices*: the private L1 at full size and
//! the shared L2/L3 scaled to one core's fair share of capacity (sets
//! reduced, ways — and therefore conflict behaviour — preserved).

/// Set-index function of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexHash {
    /// Plain modulo indexing: `set = line mod sets`.
    Modulo,
    /// Fold `line >> shift` into the low index bits with XOR.
    XorFold {
        /// Right-shift applied before folding.
        shift: u32,
    },
    /// The A64FX L2 hash above (256 B lines assumed), masked to `sets`.
    A64fxL2,
}

impl IndexHash {
    /// Set index of byte address `addr` for a level with `sets` sets
    /// (power of two) and `line_shift = log2(line_bytes)`.
    pub fn set_of(self, addr: u64, line_shift: u32, sets: u64) -> u64 {
        let line = addr >> line_shift;
        match self {
            IndexHash::Modulo => line & (sets - 1),
            IndexHash::XorFold { shift } => (line ^ (line >> shift)) & (sets - 1),
            IndexHash::A64fxL2 => {
                let fold =
                    ((addr >> 34) ^ (addr >> 30) ^ (addr >> 29) ^ (addr >> 25) ^ (addr >> 21))
                        & 0x7;
                (((fold << 8) ^ ((addr >> 8) & 0x7ff)) & 0x7ff) & (sets - 1)
            }
        }
    }
}

/// Sector-cache way partition: Fujitsu's software-controlled split of a
/// cache's ways between two data classes (HPC extension `sector cache`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectorConfig {
    /// Ways granted to sector 0 and sector 1; must sum to the level's ways.
    pub ways: [u32; 2],
}

/// Hardware next-line prefetcher attached to a level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchConfig {
    /// Lines fetched ahead on a detected ascending stream.
    pub degree: u32,
}

/// One cache level.
#[derive(Debug, Clone)]
pub struct LevelConfig {
    /// Display name (`"L1d"`, `"L2"`, …).
    pub name: String,
    /// Line size in bytes (power of two; equal across the hierarchy).
    pub line_bytes: u64,
    /// Number of sets (power of two).
    pub sets: u64,
    /// Associativity.
    pub ways: u32,
    /// Set-index function.
    pub hash: IndexHash,
    /// `true` to allocate on store misses (write-back caches).
    pub write_allocate: bool,
    /// Optional sector-cache way partition.
    pub sector: Option<SectorConfig>,
    /// Optional next-line prefetcher (honoured on the innermost level).
    pub prefetch: Option<PrefetchConfig>,
}

impl LevelConfig {
    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.line_bytes * self.sets * self.ways as u64
    }
}

/// An ordered cache hierarchy, innermost level first.
#[derive(Debug, Clone)]
pub struct HierarchyConfig {
    /// Configuration name (`"a64fx-core"`, …).
    pub name: String,
    /// Levels from L1 outward.
    pub levels: Vec<LevelConfig>,
}

impl HierarchyConfig {
    /// Check structural invariants; panics describe the offending level.
    pub fn validate(&self) {
        assert!(!self.levels.is_empty(), "{}: empty hierarchy", self.name);
        let line = self.levels[0].line_bytes;
        for l in &self.levels {
            assert!(
                l.line_bytes.is_power_of_two() && l.sets.is_power_of_two(),
                "{}/{}: line and set counts must be powers of two",
                self.name,
                l.name
            );
            assert_eq!(
                l.line_bytes, line,
                "{}/{}: mixed line sizes are not supported",
                self.name, l.name
            );
            assert!(l.ways >= 1, "{}/{}: zero ways", self.name, l.name);
            if let Some(s) = l.sector {
                assert_eq!(
                    s.ways[0] + s.ways[1],
                    l.ways,
                    "{}/{}: sector ways must sum to associativity",
                    self.name,
                    l.name
                );
                assert!(
                    s.ways[0] >= 1 && s.ways[1] >= 1,
                    "{}/{}: each sector needs at least one way",
                    self.name,
                    l.name
                );
            }
        }
    }

    /// Shared line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.levels[0].line_bytes
    }

    /// A64FX per-core slice: full private L1d (64 KiB, 4-way, modulo) plus
    /// a 14-way XOR-hashed slice of the CMG L2 — 256 of the 2048 sets,
    /// i.e. 896 KiB ≈ the 7 MiB usable L2 divided by its 12 sharing cores
    /// (rounded up to a power-of-two set count to keep the hash exact).
    pub fn a64fx_core() -> Self {
        let h = Self {
            name: "a64fx-core".into(),
            levels: vec![
                LevelConfig {
                    name: "L1d".into(),
                    line_bytes: 256,
                    sets: 64,
                    ways: 4,
                    hash: IndexHash::Modulo,
                    write_allocate: true,
                    sector: None,
                    prefetch: Some(PrefetchConfig { degree: 2 }),
                },
                LevelConfig {
                    name: "L2".into(),
                    line_bytes: 256,
                    sets: 256,
                    ways: 14,
                    hash: IndexHash::A64fxL2,
                    write_allocate: true,
                    sector: None,
                    prefetch: None,
                },
            ],
        };
        h.validate();
        h
    }

    /// A64FX per-CMG hierarchy: one core's L1 in front of the full 7 MiB
    /// usable 14-way L2 (2048 sets, XOR hash). Used when a trace models a
    /// whole CMG's interleaved working set.
    pub fn a64fx_cmg() -> Self {
        let mut h = Self::a64fx_core();
        h.name = "a64fx-cmg".into();
        h.levels[1].sets = 2048;
        h.validate();
        h
    }

    /// Like [`Self::a64fx_core`] but with the L2 way-partitioned by the
    /// sector cache: `ways` ways for sector-1 (streaming) data, the rest
    /// for sector 0.
    pub fn a64fx_core_sectored(streaming_ways: u32) -> Self {
        let mut h = Self::a64fx_core();
        h.name = format!("a64fx-core-sector{streaming_ways}");
        h.levels[1].sector = Some(SectorConfig {
            ways: [14 - streaming_ways, streaming_ways],
        });
        h.validate();
        h
    }

    /// Skylake-SP per-core slice: 32 KiB 8-way L1d, 1 MiB 16-way private
    /// L2, and one core's 1.375 MiB 11-way slice of the 33 MiB shared L3.
    /// 64 B lines throughout.
    pub fn skylake_core() -> Self {
        let h = Self {
            name: "skylake-core".into(),
            levels: vec![
                LevelConfig {
                    name: "L1d".into(),
                    line_bytes: 64,
                    sets: 64,
                    ways: 8,
                    hash: IndexHash::Modulo,
                    write_allocate: true,
                    sector: None,
                    prefetch: Some(PrefetchConfig { degree: 2 }),
                },
                LevelConfig {
                    name: "L2".into(),
                    line_bytes: 64,
                    sets: 1024,
                    ways: 16,
                    hash: IndexHash::Modulo,
                    write_allocate: true,
                    sector: None,
                    prefetch: None,
                },
                LevelConfig {
                    name: "L3".into(),
                    line_bytes: 64,
                    sets: 2048,
                    ways: 11,
                    hash: IndexHash::XorFold { shift: 11 },
                    write_allocate: true,
                    sector: None,
                    prefetch: None,
                },
            ],
        };
        h.validate();
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a64fx_core_capacities() {
        let h = HierarchyConfig::a64fx_core();
        assert_eq!(h.levels[0].capacity_bytes(), 64 * 1024);
        assert_eq!(h.levels[1].capacity_bytes(), 896 * 1024);
        assert_eq!(h.line_bytes(), 256);
    }

    #[test]
    fn a64fx_cmg_l2_is_7mib() {
        let h = HierarchyConfig::a64fx_cmg();
        assert_eq!(h.levels[1].capacity_bytes(), 7 * 1024 * 1024);
    }

    #[test]
    fn l2_hash_folds_high_bits() {
        // Two addresses 2^21 apart map to different sets under the XOR
        // hash but the same set under modulo indexing.
        let sets = 2048;
        let a = 0x40000u64;
        let b = a + (1 << 21);
        let xor = IndexHash::A64fxL2;
        assert_eq!(
            IndexHash::Modulo.set_of(a, 8, sets),
            IndexHash::Modulo.set_of(b, 8, sets)
        );
        assert_ne!(xor.set_of(a, 8, sets), xor.set_of(b, 8, sets));
        // Low bits still select consecutive sets for consecutive lines.
        assert_eq!(xor.set_of(a, 8, sets) + 1, xor.set_of(a + 256, 8, sets));
    }

    #[test]
    fn hash_respects_set_mask() {
        for hash in [
            IndexHash::Modulo,
            IndexHash::XorFold { shift: 7 },
            IndexHash::A64fxL2,
        ] {
            for addr in (0..1u64 << 24).step_by(997 * 8) {
                assert!(hash.set_of(addr, 8, 256) < 256);
            }
        }
    }

    #[test]
    #[should_panic(expected = "sector ways must sum")]
    fn bad_sector_split_rejected() {
        let mut h = HierarchyConfig::a64fx_core();
        h.levels[1].sector = Some(SectorConfig { ways: [4, 4] });
        h.validate();
    }
}
