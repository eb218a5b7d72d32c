//! Per-core execution model.

use crate::isa::{Precision, VectorIsa};
use simkit::units::FlopRate;

/// Analytic model of one CPU core.
///
/// The peak throughput follows the paper's formula `P_v = s · i · f · o`:
/// `s` lanes per instruction (from the ISA and precision), `i` FMA
/// instructions issued per cycle ([`fma_pipes`](Self::fma_pipes)), `f` the
/// clock frequency, and `o = 2` flops per fused multiply-add.
///
/// Beyond the peak, the model carries one scalar-pipeline parameter,
/// [`scalar_ilp`](Self::scalar_ilp): the *sustained* fraction of scalar FMA
/// issue slots a typical un-tuned, dependency-laden application loop keeps
/// busy. This is where the A64FX's weak out-of-order core (shallow window,
/// fewer rename registers — see the micro-architecture manual) differs from
/// Skylake's aggressive OoO engine, and it is the dominant term behind the
/// paper's 2–4× application slowdowns.
#[derive(Debug, Clone)]
pub struct CoreModel {
    /// Marketing name, e.g. `"A64FX"`.
    pub name: String,
    /// Clock frequency in GHz (turbo disabled on both machines).
    pub freq_ghz: f64,
    /// Primary SIMD extension used for peak computation.
    pub vector_isa: VectorIsa,
    /// FMA-capable vector pipelines (`i` in the peak formula). Both A64FX
    /// (2 × 512-bit FLA/FLB) and Skylake-SP 8160 (ports 0+5) have 2.
    pub fma_pipes: usize,
    /// Scalar FMA instructions issued per cycle at peak (both cores can
    /// dual-issue scalar FP).
    pub scalar_fma_per_cycle: usize,
    /// Sustained fraction of scalar FP issue achieved by un-tuned
    /// application code (out-of-order strength proxy, in `(0, 1]`).
    pub scalar_ilp: f64,
    /// SIMD throughput derate when (nearly) every core of the node drives
    /// its vector unit at once, in `(0, 1]`. Skylake-SP reduces frequency
    /// under package-wide AVX-512 load (the licence/thermal limit), so a
    /// full-node DGEMM sustains ~70 % of the single-core Fig.-1 rate; the
    /// A64FX is designed for full-node SVE at nominal clock (1.0).
    pub full_load_vector_derate: f64,
}

impl CoreModel {
    /// Theoretical peak vector throughput at a precision
    /// (`P_v = s · i · f · o`). `None` if the ISA lacks arithmetic at that
    /// precision (e.g. FP16 on Skylake).
    pub fn peak_vector(&self, p: Precision) -> Option<FlopRate> {
        let lanes = self.vector_isa.lanes(p)?;
        Some(FlopRate::gflops(
            lanes as f64 * self.fma_pipes as f64 * self.freq_ghz * 2.0,
        ))
    }

    /// Theoretical peak scalar throughput (independent of precision: one
    /// element per instruction).
    pub fn peak_scalar(&self) -> FlopRate {
        FlopRate::gflops(self.scalar_fma_per_cycle as f64 * self.freq_ghz * 2.0)
    }

    /// Sustained scalar throughput for un-tuned application code: the peak
    /// derated by the out-of-order strength.
    pub fn sustained_scalar(&self) -> FlopRate {
        FlopRate::per_sec(self.peak_scalar().value() * self.scalar_ilp)
    }

    /// Double-precision peak used in Table I (`DP Peak / core`).
    pub fn peak_dp(&self) -> FlopRate {
        self.peak_vector(Precision::Double)
            .expect("every modelled ISA supports double precision")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a64fx_core() -> CoreModel {
        CoreModel {
            name: "A64FX".into(),
            freq_ghz: 2.2,
            vector_isa: VectorIsa::sve_512(),
            fma_pipes: 2,
            scalar_fma_per_cycle: 2,
            scalar_ilp: 0.32,
            full_load_vector_derate: 1.0,
        }
    }

    fn skylake_core() -> CoreModel {
        CoreModel {
            name: "Xeon Platinum 8160".into(),
            freq_ghz: 2.1,
            vector_isa: VectorIsa::avx512(),
            fma_pipes: 2,
            scalar_fma_per_cycle: 2,
            scalar_ilp: 0.85,
            full_load_vector_derate: 0.70,
        }
    }

    #[test]
    fn a64fx_dp_peak_matches_table1() {
        // Table I: 70.40 GFlop/s per core.
        let c = a64fx_core();
        assert!((c.peak_dp().as_gflops() - 70.4).abs() < 1e-9);
    }

    #[test]
    fn skylake_dp_peak_matches_table1() {
        // Table I: 67.20 GFlop/s per core.
        let c = skylake_core();
        assert!((c.peak_dp().as_gflops() - 67.2).abs() < 1e-9);
    }

    #[test]
    fn vector_peak_scales_with_precision() {
        let c = a64fx_core();
        let dp = c.peak_vector(Precision::Double).unwrap().as_gflops();
        let sp = c.peak_vector(Precision::Single).unwrap().as_gflops();
        let hp = c.peak_vector(Precision::Half).unwrap().as_gflops();
        assert!((sp - 2.0 * dp).abs() < 1e-9);
        assert!((hp - 4.0 * dp).abs() < 1e-9);
    }

    #[test]
    fn skylake_has_no_half_precision_vector() {
        assert!(skylake_core().peak_vector(Precision::Half).is_none());
    }

    #[test]
    fn scalar_peak() {
        // 2 scalar FMA/cycle × 2 flops × 2.2 GHz = 8.8 GFlop/s.
        let c = a64fx_core();
        assert!((c.peak_scalar().as_gflops() - 8.8).abs() < 1e-9);
        assert!(c.sustained_scalar().value() < c.peak_scalar().value());
    }
}
