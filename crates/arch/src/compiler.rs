//! Compiler and toolchain model.
//!
//! The paper's central qualitative finding is that on CTE-Arm the available
//! toolchains could not put application code onto the SVE unit: the Fujitsu
//! compiler failed to build most applications (Alya, NEMO, Gromacs hang or
//! error out), and the GNU toolchain that did build them auto-vectorized
//! very little, leaving performance to the weak scalar core. On
//! MareNostrum 4 the Intel compiler vectorizes the same codes well.
//!
//! This module encodes that as a per-toolchain **vectorization uptake**: the
//! fraction of a kernel's *vectorizable* work that the compiler actually
//! lands on SIMD. Uptake multiplies the kernel's intrinsic vectorizable
//! fraction in [`crate::cost::KernelProfile`]; everything else runs on the
//! scalar pipeline.

/// Source language of a build (STREAM has C and Fortran variants with
/// measurably different behaviour on CTE-Arm).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Language {
    /// C sources.
    C,
    /// Fortran sources.
    Fortran,
}

/// The toolchains used in the paper's Table II / Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompilerId {
    /// Fujitsu compiler (fcc/frt) 1.2.26b — A64FX native, aggressive SVE,
    /// but unable to build most of the applications.
    Fujitsu,
    /// GNU 8.3.1 with SVE support backported — builds everything, but SVE
    /// auto-vectorization uptake is low on real application loops.
    GnuSve,
    /// GNU 11.0.0 — required by Gromacs; slightly better SVE uptake.
    Gnu11,
    /// Intel 2017–2019 — MareNostrum 4 reference, strong AVX-512 uptake.
    Intel,
}

/// A toolchain with its empirical optimization quality parameters.
#[derive(Debug, Clone)]
pub struct Compiler {
    /// Which toolchain this is.
    pub id: CompilerId,
    /// Version string as reported in the paper.
    pub version: &'static str,
    /// Fraction of a kernel's vectorizable work the auto-vectorizer actually
    /// lands on SIMD for *hand-tuned benchmark* loops (STREAM, HPL-style):
    /// simple, unit-stride, pragma-annotated.
    pub uptake_tuned: f64,
    /// The same fraction for *un-tuned application* loops: deep call chains,
    /// mixed strides, Fortran modules. This is where GNU-on-A64FX collapses.
    pub uptake_app: f64,
    /// Scalar code-generation quality factor (scheduling, unrolling)
    /// relative to an ideal compiler, in `(0, 1]`.
    pub scalar_quality: f64,
    /// Whether the toolchain can successfully build each paper application.
    /// Order: [Alya, NEMO, Gromacs, OpenIFS, WRF]. Encodes the paper's
    /// compilation-failure experience (Section V).
    pub builds_apps: [bool; 5],
}

impl Compiler {
    /// Fujitsu 1.2.26b on A64FX: excellent SVE on simple loops, hangs or
    /// errors on Alya/NEMO/Gromacs; OpenIFS compiled but failed at run time
    /// (counted as unusable here).
    pub fn fujitsu() -> Self {
        Self {
            id: CompilerId::Fujitsu,
            version: "1.2.26b",
            // Trivial pragma-annotated loops (FPU µKernel, STREAM, HPL
            // panel kernels) vectorize completely.
            uptake_tuned: 1.0,
            uptake_app: 0.60,
            scalar_quality: 0.90,
            builds_apps: [false, false, false, false, true],
        }
    }

    /// GNU 8.3.1-sve: builds everything, low SVE uptake on applications.
    pub fn gnu_sve() -> Self {
        Self {
            id: CompilerId::GnuSve,
            version: "8.3.1-sve",
            uptake_tuned: 0.70,
            // The paper: "we verified that the compiler could not leverage
            // the SVE unit in several cases" — most app flops stay scalar.
            uptake_app: 0.12,
            scalar_quality: 0.85,
            builds_apps: [true, true, false, true, true],
        }
    }

    /// GNU 11.0.0: needed by Gromacs; slightly better SVE codegen and it
    /// understands Gromacs' ARM_SVE SIMD layer.
    pub fn gnu11() -> Self {
        Self {
            id: CompilerId::Gnu11,
            version: "11.0.0",
            uptake_tuned: 0.80,
            uptake_app: 0.25,
            scalar_quality: 0.87,
            builds_apps: [true, true, true, true, true],
        }
    }

    /// Intel 2017–2019 on Skylake: strong AVX-512 uptake on both benchmark
    /// and application loops.
    pub fn intel() -> Self {
        Self {
            id: CompilerId::Intel,
            version: "2018.4",
            uptake_tuned: 1.0,
            // Two decades of tuning against production Fortran codes: the
            // Intel compiler lands about two thirds of the vectorizable
            // application work on AVX-512.
            uptake_app: 0.65,
            scalar_quality: 1.0,
            builds_apps: [true, true, true, true, true],
        }
    }

    /// Effective fraction of a kernel's work that runs vectorized, given the
    /// kernel's intrinsically vectorizable fraction and whether the code is
    /// a tuned benchmark or an un-tuned application.
    pub fn vectorized_fraction(&self, kernel_vectorizable: f64, tuned: bool) -> f64 {
        let uptake = if tuned {
            self.uptake_tuned
        } else {
            self.uptake_app
        };
        (kernel_vectorizable.clamp(0.0, 1.0)) * uptake
    }

    /// Whether this toolchain can build the `i`-th application
    /// (0 = Alya … 4 = WRF).
    pub fn can_build(&self, app_index: usize) -> bool {
        self.builds_apps[app_index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fujitsu_cannot_build_most_apps() {
        let f = Compiler::fujitsu();
        // Alya, NEMO, Gromacs, OpenIFS all failed in the paper.
        assert!(!f.can_build(0));
        assert!(!f.can_build(1));
        assert!(!f.can_build(2));
        assert!(!f.can_build(3));
    }

    #[test]
    fn gnu_builds_everything_needed() {
        let g = Compiler::gnu_sve();
        assert!(g.can_build(0) && g.can_build(1) && g.can_build(3) && g.can_build(4));
        // Gromacs needs GNU 11.
        assert!(!g.can_build(2));
        assert!(Compiler::gnu11().can_build(2));
    }

    #[test]
    fn intel_beats_gnu_on_app_uptake() {
        assert!(Compiler::intel().uptake_app > 3.0 * Compiler::gnu_sve().uptake_app);
    }

    #[test]
    fn vectorized_fraction_composes() {
        let g = Compiler::gnu_sve();
        let f = g.vectorized_fraction(0.8, false);
        assert!((f - 0.8 * 0.12).abs() < 1e-12);
        let t = g.vectorized_fraction(0.8, true);
        assert!((t - 0.8 * 0.70).abs() < 1e-12);
    }

    #[test]
    fn vectorized_fraction_clamps_input() {
        let g = Compiler::intel();
        assert!(g.vectorized_fraction(1.5, true) <= g.uptake_tuned + 1e-12);
        assert_eq!(g.vectorized_fraction(-0.5, true), 0.0);
    }
}
