//! Cross-crate validation: the cluster-scale simulations are pinned to the
//! *real* algorithms in `kernels` — this suite runs those algorithms end to
//! end and checks the invariants the benchmarks rely on.

use kernels::cg::{build_hpcg_matrix, cg_solve};
use kernels::fem::{assemble, solve, TriangleMesh};
use kernels::md::LjSystem;
use kernels::spectral::{dft_reference, fft};
use kernels::stream::{StreamArrays, StreamKernel};

#[test]
fn hpl_numerics_pass_the_official_residual_check() {
    // The same check the HPL binary prints PASSED/FAILED with.
    for seed in 1..=5 {
        let residual = hpl::verify_small_system(100, 24, seed);
        assert!(residual < 16.0, "seed {seed}: residual {residual}");
    }
}

#[test]
fn hpcg_numerics_converge_with_preconditioning() {
    let (iters, rel, _) = hpcg::verify_small_grid(10, 10, 10);
    assert!(rel < 1e-8);
    assert!(iters <= 60);
}

#[test]
fn hpcg_flop_accounting_matches_iteration_structure() {
    // A single-iteration run executes the initial SymGS (4·nnz), one SpMV
    // (2·nnz) and the end-of-loop SymGS (4·nnz) plus O(n) BLAS-1:
    // ~10·nnz flops in total.
    let a = build_hpcg_matrix(6, 6, 6);
    let b = vec![1.0; a.n];
    let one = cg_solve(&a, &b, 1, 0.0, true);
    let expected = 10.0 * a.nnz() as f64;
    assert!(
        one.flops >= expected && one.flops < 1.25 * expected,
        "1-iter flops {} vs nnz-model {expected}",
        one.flops
    );
}

#[test]
fn stream_verification_passes_after_many_rounds() {
    let mut arrays = StreamArrays::new(50_000);
    let rounds = 10;
    for _ in 0..rounds {
        for k in StreamKernel::ALL {
            arrays.run_parallel(k);
        }
    }
    assert!(arrays.verify(rounds) < 1e-12);
}

#[test]
fn fem_converges_to_the_manufactured_solution() {
    use std::f64::consts::PI;
    let mesh = TriangleMesh::unit_square(13);
    let assembly = assemble(
        &mesh,
        |x, y| 2.0 * PI * PI * (PI * x).sin() * (PI * y).sin(),
        |_, _| 0.0,
    );
    let result = solve(&assembly, 5000, 1e-12);
    let worst = mesh
        .nodes
        .iter()
        .enumerate()
        .map(|(i, &(x, y))| (result.x[i] - (PI * x).sin() * (PI * y).sin()).abs())
        .fold(0.0f64, f64::max);
    assert!(worst < 0.03, "max nodal error {worst}");
}

#[test]
fn md_conserves_energy_and_momentum_together() {
    let mut sys = LjSystem::cubic_lattice(4, 0.7, 99);
    sys.compute_forces();
    let (pe0, ke0, _) = sys.step(0.002);
    for _ in 0..150 {
        sys.step(0.002);
    }
    let (pe1, ke1, _) = sys.step(0.002);
    let drift = ((pe1 + ke1) - (pe0 + ke0)).abs() / (pe0 + ke0).abs();
    assert!(drift < 0.03, "energy drift {drift}");
    let p = sys.momentum();
    assert!(p.iter().all(|c| c.abs() < 1e-8), "momentum {p:?}");
}

#[test]
fn fft_agrees_with_dft_on_many_lengths() {
    let mut rng = simkit::rng::Pcg32::seeded(5);
    for bits in 1..=9 {
        let n = 1usize << bits;
        let sig: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)))
            .collect();
        let mut got = sig.clone();
        fft(&mut got, false);
        let want = dft_reference(&sig, false);
        for (g, w) in got.iter().zip(&want) {
            assert!(
                (g.0 - w.0).abs() < 1e-7 && (g.1 - w.1).abs() < 1e-7,
                "n={n}"
            );
        }
    }
}

#[test]
fn ocean_stencil_conserves_volume_for_long_runs() {
    let mut g = kernels::stencil::OceanGrid::with_bump(48, 40);
    let v0 = g.total_volume();
    for _ in 0..1000 {
        g.step(0.0005, 1.0);
    }
    assert!((g.total_volume() - v0).abs() < 1e-8 * v0.abs().max(1.0));
    assert!(g.eta.iter().all(|e| e.is_finite()));
}

#[test]
fn simulated_hpl_and_real_lu_share_the_flop_convention() {
    // The simulator's reported GFlop/s and the kernel's flop formula agree.
    let n = 1000u64;
    let analytic = kernels::lu::hpl_flops(n);
    assert!((analytic - (2.0 / 3.0 * 1e9 + 1.5e6)).abs() < 1.0);
}
