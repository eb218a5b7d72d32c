//! Cache hierarchy descriptions.

use simkit::units::{Bandwidth, Bytes};

/// One level of cache.
#[derive(Debug, Clone)]
pub struct CacheLevel {
    /// Level name, e.g. `"L1d"`, `"L2"`.
    pub name: String,
    /// Capacity of one instance of this cache.
    pub size: Bytes,
    /// Cores sharing one instance (1 = private; 12 = per-CMG L2 on A64FX).
    pub shared_by: usize,
    /// Cache line size in bytes (64 on Skylake, 256 on A64FX).
    pub line_bytes: usize,
    /// Aggregate load bandwidth of one instance.
    pub bandwidth: Bandwidth,
}

/// An ordered cache hierarchy, innermost first.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    /// Levels from L1 outward.
    pub levels: Vec<CacheLevel>,
}

impl CacheHierarchy {
    /// The A64FX hierarchy: 64 KiB private L1d, 8 MiB L2 shared by the 12
    /// cores of a CMG (4 × 8 MiB = 32 MB per node as Table I lists it),
    /// no L3. 256-byte cache lines.
    pub fn a64fx() -> Self {
        Self {
            levels: vec![
                CacheLevel {
                    name: "L1d".into(),
                    size: Bytes::kib(64.0),
                    shared_by: 1,
                    line_bytes: 256,
                    // ~230 GB/s per core L1 load bandwidth (2×512-bit loads/cycle).
                    bandwidth: Bandwidth::gb_per_sec(230.0),
                },
                CacheLevel {
                    name: "L2".into(),
                    size: Bytes::mib(8.0),
                    shared_by: 12,
                    line_bytes: 256,
                    // Per-CMG L2 bandwidth (manual: ~900 GB/s read per CMG).
                    bandwidth: Bandwidth::gb_per_sec(900.0),
                },
            ],
        }
    }

    /// The Skylake-SP 8160 hierarchy: 32 KiB L1d + 1 MiB L2 private,
    /// 33 MB L3 shared per socket (non-inclusive). 64-byte lines.
    pub fn skylake_8160() -> Self {
        Self {
            levels: vec![
                CacheLevel {
                    name: "L1d".into(),
                    size: Bytes::kib(32.0),
                    shared_by: 1,
                    line_bytes: 64,
                    bandwidth: Bandwidth::gb_per_sec(270.0),
                },
                CacheLevel {
                    name: "L2".into(),
                    size: Bytes::kib(1024.0),
                    shared_by: 1,
                    line_bytes: 64,
                    bandwidth: Bandwidth::gb_per_sec(130.0),
                },
                CacheLevel {
                    name: "L3".into(),
                    size: Bytes::mib(33.0),
                    shared_by: 24,
                    line_bytes: 64,
                    bandwidth: Bandwidth::gb_per_sec(400.0),
                },
            ],
        }
    }

    /// Total last-level-cache capacity across `n_instances_on_node`
    /// instances; used for the STREAM sizing rule
    /// `E ≥ max(1e7, 4·S/8)` from the paper.
    pub fn llc_total(&self, cores_per_node: usize) -> Bytes {
        match self.levels.last() {
            None => Bytes::ZERO,
            Some(llc) => {
                let instances = cores_per_node.div_ceil(llc.shared_by);
                Bytes::new(llc.size.value() * instances as f64)
            }
        }
    }

    /// Smallest level that fits a working set of `bytes`, or `None` if it
    /// only fits in main memory.
    pub fn level_fitting(&self, bytes: Bytes) -> Option<&CacheLevel> {
        self.levels.iter().find(|l| bytes.value() <= l.size.value())
    }
}

/// Minimum STREAM array length (in 8-byte elements) mandated by the
/// benchmark's rules: `E ≥ max(1e7, 4·S/8)` with `S` the total last-level
/// cache size in bytes.
pub fn stream_min_elements(llc_total: Bytes) -> usize {
    let by_cache = (4.0 * llc_total.value() / 8.0).ceil() as usize;
    by_cache.max(10_000_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a64fx_llc_total_is_32mb() {
        let h = CacheHierarchy::a64fx();
        // 4 CMGs × 8 MiB.
        let total = h.llc_total(48);
        assert_eq!(total.value(), 4.0 * 8.0 * 1024.0 * 1024.0);
    }

    #[test]
    fn skylake_llc_total_is_33mb_per_socket() {
        let h = CacheHierarchy::skylake_8160();
        // One socket's worth of cores -> one L3 instance.
        let total = h.llc_total(24);
        assert_eq!(total.value(), 33.0 * 1024.0 * 1024.0);
        // Full node (48 cores) -> two instances.
        assert_eq!(h.llc_total(48).value(), 66.0 * 1024.0 * 1024.0);
    }

    #[test]
    fn stream_sizing_rule() {
        // Small cache: the 1e7 floor dominates.
        assert_eq!(stream_min_elements(Bytes::mib(8.0)), 10_000_000);
        // Big cache: 4·S/8 dominates (S = 66 MiB -> 34.6M elements).
        let s = Bytes::mib(66.0);
        let e = stream_min_elements(s);
        assert_eq!(e, (4.0 * s.value() / 8.0) as usize);
        assert!(e > 10_000_000);
    }

    #[test]
    fn level_fitting_walks_outward() {
        let h = CacheHierarchy::skylake_8160();
        assert_eq!(h.level_fitting(Bytes::kib(16.0)).unwrap().name, "L1d");
        assert_eq!(h.level_fitting(Bytes::kib(512.0)).unwrap().name, "L2");
        assert_eq!(h.level_fitting(Bytes::mib(20.0)).unwrap().name, "L3");
        assert!(h.level_fitting(Bytes::gib(1.0)).is_none());
    }

    #[test]
    fn a64fx_lines_are_256_bytes() {
        let h = CacheHierarchy::a64fx();
        assert!(h.levels.iter().all(|l| l.line_bytes == 256));
    }
}
