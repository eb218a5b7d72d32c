//! Node power and energy-to-solution models.
//!
//! A natural extension of the paper's evaluation (its own prior work,
//! Mantovani et al. FGCS 2020, is exactly this study for ThunderX2): the
//! A64FX was co-designed for power efficiency, so even where CTE-Arm is
//! slower, it can win on energy. The model is a standard component-level
//! decomposition:
//!
//! ```text
//! P_node = P_idle + u_scalar·P_scalar + u_vector·P_vector + u_mem·P_mem
//! ```
//!
//! with utilizations in `[0, 1]` derived from a kernel's achieved rates.
//! Constants come from published measurements: an A64FX node draws ~120 W
//! idle and ~350 W under HPL; a dual-8160 node ~180 W idle and ~450 W under
//! HPL (plus DDR4), which reproduce Fugaku's ~15 GFlop/s/W Green500 figure
//! and typical Skylake cluster efficiencies of ~5 GFlop/s/W.

use crate::cost::{CostModel, KernelProfile};
use crate::machines::Machine;
use simkit::units::Time;

/// Component-level node power model (Watts).
#[derive(Debug, Clone)]
pub struct PowerModel {
    /// Idle node power (fans, HBM refresh, NIC, uncore).
    pub idle_w: f64,
    /// Added power with all scalar pipes busy.
    pub scalar_w: f64,
    /// Added power with all vector units busy.
    pub vector_w: f64,
    /// Added power at full memory bandwidth.
    pub memory_w: f64,
}

impl PowerModel {
    /// A64FX node: 120 W idle, +60 W scalar, +130 W SVE, +40 W HBM.
    pub fn a64fx() -> Self {
        Self {
            idle_w: 120.0,
            scalar_w: 60.0,
            vector_w: 130.0,
            memory_w: 40.0,
        }
    }

    /// Dual Xeon 8160 node: 180 W idle, +90 W scalar, +150 W AVX-512,
    /// +30 W DDR4.
    pub fn skylake_8160() -> Self {
        Self {
            idle_w: 180.0,
            scalar_w: 90.0,
            vector_w: 150.0,
            memory_w: 30.0,
        }
    }

    /// The factory power model for a machine (keyed on socket count, like
    /// the memory model).
    pub fn for_machine(machine: &Machine) -> Self {
        if machine.sockets == 1 {
            Self::a64fx()
        } else {
            Self::skylake_8160()
        }
    }

    /// Node power while running a kernel with the given component
    /// utilizations (each clamped to `[0, 1]`).
    pub fn node_power(&self, u_scalar: f64, u_vector: f64, u_mem: f64) -> f64 {
        self.idle_w
            + u_scalar.clamp(0.0, 1.0) * self.scalar_w
            + u_vector.clamp(0.0, 1.0) * self.vector_w
            + u_mem.clamp(0.0, 1.0) * self.memory_w
    }

    /// Peak node power (everything saturated).
    pub fn peak_power(&self) -> f64 {
        self.idle_w + self.scalar_w + self.vector_w + self.memory_w
    }
}

/// Energy outcome of a run.
#[derive(Debug, Clone)]
pub struct EnergyReport {
    /// Mean node power during the run (W).
    pub node_power_w: f64,
    /// Energy to solution across `nodes` nodes (J).
    pub energy_j: f64,
    /// Useful flops per joule (flop/J = Flop/s per W).
    pub flops_per_joule: f64,
}

/// Estimate the energy of executing `profile` on `cores` cores of every
/// one of `nodes` nodes (each node runs one chunk; `elapsed` is the chunk
/// time from the cost model).
pub fn energy_of_run(
    machine: &Machine,
    cost: &CostModel<'_>,
    profile: &KernelProfile,
    cores: usize,
    nodes: usize,
) -> EnergyReport {
    let power = PowerModel::for_machine(machine);
    let elapsed: Time = cost.parallel_time(profile, cores);

    // Component utilizations from achieved vs peak rates.
    let v = cost
        .compiler
        .vectorized_fraction(profile.vectorizable, profile.tuned);
    let achieved = profile.flops.value() / elapsed.value(); // flop/s on this node
    let vec_peak = machine.peak_dp_node().value();
    let scalar_peak = machine.core.peak_scalar().value() * cores as f64;
    let u_vector = (achieved * v / vec_peak).clamp(0.0, 1.0);
    let u_scalar = (achieved * (1.0 - v) / scalar_peak).clamp(0.0, 1.0);
    let bw = profile.bytes.value() / elapsed.value();
    let u_mem = (bw / machine.memory.app_sustained_bandwidth().value()).clamp(0.0, 1.0);
    // Core-count scaling of the active components.
    let frac = cores as f64 / machine.cores_per_node() as f64;
    let node_power_w = power.node_power(u_scalar * frac, u_vector * frac, u_mem);
    let energy_j = node_power_w * elapsed.value() * nodes as f64;
    EnergyReport {
        node_power_w,
        energy_j,
        flops_per_joule: profile.flops.value() * nodes as f64 / energy_j,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::Compiler;
    use crate::machines::{cte_arm, marenostrum4};

    fn hpl_like() -> KernelProfile {
        KernelProfile::dp("hpl", 1e13, 1e10)
            .with_vectorizable(1.0)
            .with_tuned(true)
            .with_vector_efficiency(0.88)
    }

    #[test]
    fn peak_power_is_component_sum() {
        let p = PowerModel::a64fx();
        assert_eq!(p.peak_power(), 350.0);
        assert_eq!(PowerModel::skylake_8160().peak_power(), 450.0);
    }

    #[test]
    fn idle_kernel_draws_idle_power() {
        let p = PowerModel::a64fx();
        assert_eq!(p.node_power(0.0, 0.0, 0.0), p.idle_w);
        // Utilizations are clamped.
        assert_eq!(p.node_power(2.0, 2.0, 2.0), p.peak_power());
    }

    #[test]
    fn a64fx_hpl_efficiency_is_green500_class() {
        // Fugaku's Green500 figure: ~15 GFlop/s/W under HPL.
        let m = cte_arm();
        let compiler = Compiler::fujitsu();
        let cost = CostModel::new(&m.core, &m.memory, &compiler);
        let report = energy_of_run(&m, &cost, &hpl_like(), 48, 1);
        let gflops_per_w = report.flops_per_joule / 1e9;
        assert!(
            (10.0..=18.0).contains(&gflops_per_w),
            "A64FX HPL efficiency {gflops_per_w} GFlop/s/W"
        );
    }

    #[test]
    fn skylake_hpl_efficiency_is_typical() {
        // Skylake-generation clusters: ~5 GFlop/s/W under HPL.
        let m = marenostrum4();
        let compiler = Compiler::intel();
        let cost = CostModel::new(&m.core, &m.memory, &compiler);
        let report = energy_of_run(&m, &cost, &hpl_like(), 48, 1);
        let gflops_per_w = report.flops_per_joule / 1e9;
        assert!(
            (3.5..=7.5).contains(&gflops_per_w),
            "Skylake HPL efficiency {gflops_per_w} GFlop/s/W"
        );
    }

    #[test]
    fn a64fx_wins_energy_even_when_losing_time() {
        // An un-tuned application chunk: CTE-Arm is ~3× slower but its node
        // draws far less when SVE sits idle, so energy-to-solution is
        // closer than time-to-solution — and for memory-bound work the
        // A64FX wins outright.
        let profile = KernelProfile::dp("stream-ish", 1e11, 8e11).with_vectorizable(0.5);
        let cte = cte_arm();
        let mn4 = marenostrum4();
        let gnu = Compiler::gnu_sve();
        let intel = Compiler::intel();
        let e_cte = energy_of_run(
            &cte,
            &CostModel::new(&cte.core, &cte.memory, &gnu),
            &profile,
            48,
            1,
        );
        let e_mn4 = energy_of_run(
            &mn4,
            &CostModel::new(&mn4.core, &mn4.memory, &intel),
            &profile,
            48,
            1,
        );
        assert!(
            e_cte.energy_j < e_mn4.energy_j,
            "memory-bound: A64FX energy {} J < Xeon {} J",
            e_cte.energy_j,
            e_mn4.energy_j
        );
    }

    #[test]
    fn energy_scales_linearly_with_nodes() {
        let m = cte_arm();
        let compiler = Compiler::fujitsu();
        let cost = CostModel::new(&m.core, &m.memory, &compiler);
        let e1 = energy_of_run(&m, &cost, &hpl_like(), 48, 1);
        let e4 = energy_of_run(&m, &cost, &hpl_like(), 48, 4);
        assert!((e4.energy_j / e1.energy_j - 4.0).abs() < 1e-9);
        assert_eq!(e1.node_power_w, e4.node_power_w);
    }

    #[test]
    fn power_is_within_physical_bounds() {
        let m = cte_arm();
        for compiler in [Compiler::fujitsu(), Compiler::gnu_sve()] {
            let cost = CostModel::new(&m.core, &m.memory, &compiler);
            for profile in [
                hpl_like(),
                KernelProfile::dp("scalarish", 1e10, 1e8).with_vectorizable(0.1),
                KernelProfile::dp("stream", 1e9, 1e11),
            ] {
                let r = energy_of_run(&m, &cost, &profile, 48, 1);
                let pm = PowerModel::a64fx();
                assert!(r.node_power_w >= pm.idle_w);
                assert!(r.node_power_w <= pm.peak_power());
            }
        }
    }
}
