//! The two machines of the paper, fully populated (Table I).

use crate::cache::CacheHierarchy;
use crate::cpu::CoreModel;
use crate::isa::VectorIsa;
use crate::memory::MemoryModel;
use simkit::units::{Bandwidth, FlopRate};

/// A complete machine description: node architecture plus cluster scale.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Cluster name as used in the paper.
    pub name: String,
    /// System integrator (Table I).
    pub integrator: String,
    /// Core model.
    pub core: CoreModel,
    /// Cache hierarchy.
    pub caches: CacheHierarchy,
    /// Memory model.
    pub memory: MemoryModel,
    /// Sockets per node (1 A64FX, 2 Skylake).
    pub sockets: usize,
    /// Number of compute nodes in the cluster.
    pub nodes: usize,
    /// Peak per-direction network injection bandwidth per node (Table I).
    pub network_peak: Bandwidth,
    /// Interconnect name.
    pub interconnect: String,
}

impl Machine {
    /// Cores per node.
    pub fn cores_per_node(&self) -> usize {
        self.memory.cores()
    }

    /// Table I `DP Peak / node`.
    pub fn peak_dp_node(&self) -> FlopRate {
        FlopRate::per_sec(self.core.peak_dp().value() * self.cores_per_node() as f64)
    }

    /// Theoretical peak of `n` nodes.
    pub fn peak_dp_cluster(&self, n: usize) -> FlopRate {
        assert!(
            n >= 1 && n <= self.nodes,
            "node count out of range for {}",
            self.name
        );
        FlopRate::per_sec(self.peak_dp_node().value() * n as f64)
    }
}

/// CTE-Arm: the Fugaku-like production cluster at BSC. 192 nodes, one
/// Fujitsu A64FX (48 cores, 4 CMGs, SVE-512, 32 GB HBM2) per node, TofuD.
///
/// ```
/// let cte = arch::machines::cte_arm();
/// assert_eq!(cte.cores_per_node(), 48);
/// // Table I: 3379.20 GFlop/s DP peak per node.
/// assert!((cte.peak_dp_node().as_gflops() - 3379.20).abs() < 0.01);
/// ```
pub fn cte_arm() -> Machine {
    Machine {
        name: "CTE-Arm".into(),
        integrator: "Fujitsu".into(),
        core: CoreModel {
            name: "A64FX".into(),
            freq_ghz: 2.2,
            vector_isa: VectorIsa::sve_512(),
            fma_pipes: 2,
            scalar_fma_per_cycle: 2,
            // Weak out-of-order engine: shallow reorder window and few
            // rename registers keep un-tuned scalar code near 1.4 flop/cycle
            // of the 4 flop/cycle scalar peak. This single parameter,
            // together with the GNU SVE uptake in `compiler.rs`, produces
            // the paper's 2–5× application slowdowns.
            scalar_ilp: 0.35,
            // A64FX sustains full-node SVE at nominal frequency by design.
            full_load_vector_derate: 1.0,
        },
        caches: CacheHierarchy::a64fx(),
        memory: MemoryModel::a64fx(),
        sockets: 1,
        nodes: 192,
        network_peak: Bandwidth::gb_per_sec(6.8),
        interconnect: "TofuD".into(),
    }
}

/// MareNostrum 4: the Intel reference system. 3456 nodes, 2× Xeon Platinum
/// 8160 (24 cores each, AVX-512, 6 DDR4-2666 channels per socket), OmniPath.
pub fn marenostrum4() -> Machine {
    Machine {
        name: "MareNostrum 4".into(),
        integrator: "Lenovo".into(),
        core: CoreModel {
            name: "Xeon Platinum 8160".into(),
            freq_ghz: 2.1,
            vector_isa: VectorIsa::avx512(),
            fma_pipes: 2,
            scalar_fma_per_cycle: 2,
            // Skylake's deep out-of-order engine sustains ~3.4 flop/cycle
            // of the 4 flop/cycle scalar peak on un-tuned code.
            scalar_ilp: 0.85,
            // Package-wide AVX-512 load trips the licence/thermal frequency
            // limit: full-node SIMD sustains ~70 % of the nominal rate.
            // (A single core — Fig. 1 — still runs at nominal clock.)
            full_load_vector_derate: 0.70,
        },
        caches: CacheHierarchy::skylake_8160(),
        memory: MemoryModel::skylake_8160(),
        sockets: 2,
        nodes: 3456,
        network_peak: Bandwidth::gb_per_sec(12.0),
        interconnect: "Intel OmniPath".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_dp_peaks() {
        let cte = cte_arm();
        let mn4 = marenostrum4();
        assert!((cte.core.peak_dp().as_gflops() - 70.40).abs() < 0.01);
        assert!((mn4.core.peak_dp().as_gflops() - 67.20).abs() < 0.01);
        assert!((cte.peak_dp_node().as_gflops() - 3379.20).abs() < 0.01);
        assert!((mn4.peak_dp_node().as_gflops() - 3225.60).abs() < 0.01);
    }

    #[test]
    fn table1_node_counts_and_cores() {
        let cte = cte_arm();
        let mn4 = marenostrum4();
        assert_eq!(cte.nodes, 192);
        assert_eq!(mn4.nodes, 3456);
        assert_eq!(cte.cores_per_node(), 48);
        assert_eq!(mn4.cores_per_node(), 48);
        assert_eq!(cte.sockets, 1);
        assert_eq!(mn4.sockets, 2);
    }

    #[test]
    fn table1_memory_and_network() {
        let cte = cte_arm();
        let mn4 = marenostrum4();
        assert_eq!(cte.memory.capacity().value(), 32e9);
        assert_eq!(mn4.memory.capacity().value(), 96e9);
        assert_eq!(cte.memory.peak_bandwidth().as_gb_per_sec(), 1024.0);
        assert_eq!(mn4.memory.peak_bandwidth().as_gb_per_sec(), 256.0);
        assert_eq!(cte.network_peak.as_gb_per_sec(), 6.8);
        assert_eq!(mn4.network_peak.as_gb_per_sec(), 12.0);
    }

    #[test]
    fn cluster_peak_scales_linearly() {
        let cte = cte_arm();
        let p192 = cte.peak_dp_cluster(192).as_tflops();
        // 192 × 3.3792 TFlop/s ≈ 648.8 TFlop/s.
        assert!((p192 - 648.8064).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "node count out of range")]
    fn cluster_peak_bounds_checked() {
        cte_arm().peak_dp_cluster(193);
    }
}
