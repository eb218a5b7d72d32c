//! Roofline analysis: the classic visual model for the machine balance
//! discussion in the paper's conclusions (weak scalar core vs fast memory).
//!
//! For a machine and toolchain, the attainable performance at arithmetic
//! intensity `I` (flop/byte) is
//!
//! ```text
//! P(I) = min(P_compute, I · B_sustained)
//! ```
//!
//! with several compute ceilings: the vector peak, the compiler-achieved
//! ceiling (uptake-limited), and the scalar ceiling. The machine-balance
//! ridge point `I* = P / B` tells which kernels are memory-bound: the
//! A64FX's enormous bandwidth pushes its ridge to ~3.8 flop/byte while
//! MareNostrum 4 sits at ~16 — which is exactly why the Alya Solver phase
//! (low intensity) nearly closes the gap while Assembly (high intensity)
//! does not.

use crate::cachesim::{CacheSim, HierarchyConfig, Trace};
use crate::compiler::Compiler;
use crate::machines::Machine;

/// One roofline ceiling.
#[derive(Debug, Clone)]
pub struct Ceiling {
    /// Name, e.g. `"SVE peak"` or `"scalar (untuned)"`.
    pub name: String,
    /// Node-level compute ceiling in flop/s.
    pub flops: f64,
}

/// A machine's roofline under a given toolchain.
///
/// ```
/// use arch::{compiler::Compiler, roofline::Roofline};
/// let r = Roofline::build(&arch::machines::cte_arm(), &Compiler::gnu_sve());
/// // HBM pushes the ridge point below 4 flop/byte.
/// assert!(r.ridge(0) < 4.0);
/// ```
#[derive(Debug, Clone)]
pub struct Roofline {
    /// Machine name.
    pub machine: String,
    /// Sustained node memory bandwidth (bytes/s).
    pub bandwidth: f64,
    /// Compute ceilings, highest first.
    pub ceilings: Vec<Ceiling>,
}

impl Roofline {
    /// Build the roofline of a machine/toolchain pair. The "compiler"
    /// ceiling assumes a fully-vectorizable untuned kernel; the scalar
    /// ceiling assumes none of it vectorizes.
    pub fn build(machine: &Machine, compiler: &Compiler) -> Self {
        let cores = machine.cores_per_node() as f64;
        let vector_peak = machine.peak_dp_node().value();
        let scalar_sustained =
            machine.core.sustained_scalar().value() * compiler.scalar_quality * cores;
        let uptake = compiler.uptake_app;
        // Amdahl blend of vector and scalar paths at full vectorizability.
        let compiler_ceiling = 1.0
            / (uptake / (vector_peak * machine.core.full_load_vector_derate)
                + (1.0 - uptake) / scalar_sustained);
        Self {
            machine: machine.name.clone(),
            bandwidth: machine.memory.app_sustained_bandwidth().value(),
            ceilings: vec![
                Ceiling {
                    name: format!("{} peak", machine.core.vector_isa.name),
                    flops: vector_peak,
                },
                Ceiling {
                    name: format!("compiler-achieved ({:?})", compiler.id),
                    flops: compiler_ceiling,
                },
                Ceiling {
                    name: "scalar (untuned)".into(),
                    flops: scalar_sustained,
                },
            ],
        }
    }

    /// Attainable flop/s at intensity `I` under a given ceiling index.
    pub fn attainable(&self, ceiling: usize, intensity: f64) -> f64 {
        assert!(intensity >= 0.0, "negative intensity");
        (intensity * self.bandwidth).min(self.ceilings[ceiling].flops)
    }

    /// The ridge point `I* = P/B` of a ceiling: kernels below it are
    /// memory-bound, above it compute-bound.
    pub fn ridge(&self, ceiling: usize) -> f64 {
        self.ceilings[ceiling].flops / self.bandwidth
    }

    /// Sample the roofline over a log-spaced intensity range for plotting:
    /// `(intensity, attainable-per-ceiling…)` rows.
    pub fn sample(&self, lo: f64, hi: f64, points: usize) -> Vec<(f64, Vec<f64>)> {
        assert!(lo > 0.0 && hi > lo && points >= 2, "bad sampling range");
        let step = (hi / lo).powf(1.0 / (points - 1) as f64);
        (0..points)
            .map(|i| {
                let x = lo * step.powi(i as i32);
                let ys = (0..self.ceilings.len())
                    .map(|c| self.attainable(c, x))
                    .collect();
                (x, ys)
            })
            .collect()
    }
}

/// A cache-aware roofline point for one kernel: the classic roofline
/// places a kernel at its *nominal* intensity (flops ÷ bytes the code
/// touches); the cache-aware point uses the *simulated DRAM traffic*
/// instead, which moves kernels with reuse (GEMM, stencils) to the
/// right and leaves pure streams exactly where the flat model put them.
#[derive(Debug, Clone)]
pub struct CacheRooflinePoint {
    /// Kernel name (from the trace).
    pub kernel: String,
    /// Flops in the traced region.
    pub flops: f64,
    /// Nominal (flat-counted) bytes of the trace.
    pub nominal_bytes: f64,
    /// Simulated DRAM bytes of the trace.
    pub dram_bytes: f64,
    /// Nominal arithmetic intensity, flop/byte.
    pub nominal_intensity: f64,
    /// Cache-aware arithmetic intensity, flop/byte.
    pub effective_intensity: f64,
}

/// Cache-aware roofline: the flat [`Roofline`] plus a hierarchy config
/// used to place kernels at their simulated-traffic intensity.
///
/// This is additive — the serialized [`Roofline`] stays untouched so
/// existing golden files remain byte-identical.
#[derive(Debug, Clone)]
pub struct CacheRoofline {
    /// The flat roofline (ceilings and sustained bandwidth).
    pub roofline: Roofline,
    /// The cache hierarchy traces are simulated against.
    pub hierarchy: HierarchyConfig,
}

impl CacheRoofline {
    /// Build from a machine/toolchain pair and a hierarchy config.
    pub fn build(machine: &Machine, compiler: &Compiler, hierarchy: HierarchyConfig) -> Self {
        Self {
            roofline: Roofline::build(machine, compiler),
            hierarchy,
        }
    }

    /// Place a kernel on the roofline: simulate its trace and report both
    /// the nominal and the cache-aware intensity.
    pub fn place(&self, flops: f64, trace: &Trace) -> CacheRooflinePoint {
        assert!(flops >= 0.0, "negative flop count");
        let sim = CacheSim::new(self.hierarchy.clone()).run(trace);
        let nominal_bytes = sim.nominal_bytes as f64;
        let dram_bytes = sim.dram_bytes() as f64;
        CacheRooflinePoint {
            kernel: trace.name.clone(),
            flops,
            nominal_bytes,
            dram_bytes,
            nominal_intensity: flops / nominal_bytes.max(1.0),
            effective_intensity: flops / dram_bytes.max(1.0),
        }
    }

    /// Attainable flop/s for a placed kernel under a ceiling, using the
    /// cache-aware intensity.
    pub fn attainable(&self, ceiling: usize, point: &CacheRooflinePoint) -> f64 {
        self.roofline.attainable(ceiling, point.effective_intensity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cachesim::TraceBuilder;
    use crate::machines::{cte_arm, marenostrum4};

    #[test]
    fn a64fx_ridge_is_low_thanks_to_hbm() {
        let r = Roofline::build(&cte_arm(), &Compiler::fujitsu());
        let ridge = r.ridge(0);
        // 3379 GFlop/s / 862.6 GB/s ≈ 3.9 flop/byte.
        assert!((ridge - 3.9).abs() < 0.2, "ridge {ridge}");
    }

    #[test]
    fn skylake_ridge_is_4x_higher() {
        let a = Roofline::build(&cte_arm(), &Compiler::fujitsu()).ridge(0);
        let s = Roofline::build(&marenostrum4(), &Compiler::intel()).ridge(0);
        assert!(s > 3.5 * a, "Skylake ridge {s} vs A64FX {a}");
    }

    #[test]
    fn ceilings_are_ordered() {
        for (m, c) in [
            (cte_arm(), Compiler::gnu_sve()),
            (marenostrum4(), Compiler::intel()),
        ] {
            let r = Roofline::build(&m, &c);
            assert!(r.ceilings[0].flops >= r.ceilings[1].flops);
            assert!(r.ceilings[1].flops >= r.ceilings[2].flops);
        }
    }

    #[test]
    fn gnu_compiler_ceiling_collapses_toward_scalar() {
        // With 12 % uptake the achieved ceiling sits much closer to the
        // scalar roof than to the SVE peak — the paper's core finding.
        let r = Roofline::build(&cte_arm(), &Compiler::gnu_sve());
        let peak = r.ceilings[0].flops;
        let achieved = r.ceilings[1].flops;
        let scalar = r.ceilings[2].flops;
        assert!(achieved < 0.1 * peak, "achieved {achieved} vs peak {peak}");
        assert!(
            achieved < 1.35 * scalar,
            "achieved sits near the scalar roof"
        );
    }

    #[test]
    fn attainable_is_min_of_bandwidth_and_ceiling() {
        let r = Roofline::build(&cte_arm(), &Compiler::fujitsu());
        // Deep in memory-bound territory.
        let low = r.attainable(0, 0.1);
        assert!((low - 0.1 * r.bandwidth).abs() < 1.0);
        // Deep in compute-bound territory.
        let high = r.attainable(0, 1000.0);
        assert_eq!(high, r.ceilings[0].flops);
    }

    #[test]
    fn sampling_is_log_spaced_and_monotone() {
        let r = Roofline::build(&marenostrum4(), &Compiler::intel());
        let samples = r.sample(0.01, 100.0, 41);
        assert_eq!(samples.len(), 41);
        assert!((samples[0].0 - 0.01).abs() < 1e-12);
        assert!((samples[40].0 - 100.0).abs() < 1e-9);
        for w in samples.windows(2) {
            assert!(w[1].0 > w[0].0);
            for (a, b) in w[0].1.iter().zip(&w[1].1) {
                assert!(b >= a, "attainable never decreases with intensity");
            }
        }
    }

    #[test]
    fn cache_roofline_moves_reuse_kernels_right() {
        let cr = CacheRoofline::build(
            &cte_arm(),
            &Compiler::fujitsu(),
            HierarchyConfig::a64fx_core(),
        );
        // Streaming triad: effective == nominal intensity exactly.
        let n = 1u64 << 16;
        let mut t = TraceBuilder::new("triad");
        let a = t.array("a", 8 * n);
        let b = t.array("b", 8 * n);
        let c = t.array("c", 8 * n);
        t.open(n);
        t.read(b, 0, &[8]);
        t.read(c, 0, &[8]);
        t.write(a, 0, &[8]);
        t.close();
        let triad = cr.place(2.0 * n as f64, &t.build());
        assert_eq!(triad.nominal_bytes, triad.dram_bytes);

        // A cache-resident re-read loop: effective intensity far higher.
        let m = 2048u64;
        let mut t = TraceBuilder::new("reread");
        let x = t.array("x", 8 * m);
        t.open(16);
        t.open(m);
        t.read(x, 0, &[0, 8]);
        t.close();
        t.close();
        let hot = cr.place(2.0 * (16 * m) as f64, &t.build());
        assert!(
            hot.effective_intensity > 5.0 * hot.nominal_intensity,
            "reuse: nominal {} vs effective {}",
            hot.nominal_intensity,
            hot.effective_intensity
        );
        // And the cache-aware attainable reflects that.
        assert!(cr.attainable(0, &hot) > cr.attainable(0, &triad));
    }

    #[test]
    fn solver_vs_assembly_explained_by_rooflines() {
        // Alya solver streaming sits at ~0.05 flop/byte (memory-bound on
        // MN4, not on the A64FX side thanks to HBM); assembly at ~50
        // flop/byte (compute-bound on both, so the compiler ceiling rules).
        let cte = Roofline::build(&cte_arm(), &Compiler::gnu_sve());
        let mn4 = Roofline::build(&marenostrum4(), &Compiler::intel());
        // Memory-bound point: A64FX attains more.
        assert!(cte.attainable(1, 0.05) > mn4.attainable(1, 0.05));
        // Compute-bound point: MN4 attains much more (compiler ceiling).
        assert!(mn4.attainable(1, 50.0) > 3.0 * cte.attainable(1, 50.0));
    }
}
