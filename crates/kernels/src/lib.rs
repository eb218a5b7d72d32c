//! # kernels — real, host-executable compute kernels
//!
//! Every computational core the paper touches, implemented for real in Rust
//! (rayon-parallel where the original is OpenMP-parallel):
//!
//! * [`fma`] — the FPU µKernel: chains of independent fused multiply-adds
//!   (Fig. 1's workload).
//! * [`stream`] — the four STREAM kernels: Copy, Scale, Add, Triad (Figs.
//!   2–3).
//! * [`gemm`] / [`lu`] — blocked DGEMM and right-looking LU with partial
//!   pivoting: the computational heart of LINPACK (Fig. 6).
//! * [`matrix`] — CSR sparse matrices and dense helpers shared by the
//!   solvers.
//! * [`stencil_matrix`] — the structure-aware sparse engine: ELL-27
//!   stencil-packed SpMV (no column-index indirection) and the parallel
//!   multicolor symmetric Gauss–Seidel smoother used by the HPCG path.
//! * [`cg`] — 27-point-stencil SpMV, symmetric Gauss–Seidel and the
//!   preconditioned CG iteration: the heart of HPCG (Fig. 7).
//! * [`fem`] — unstructured finite-element assembly + solve: the Alya proxy
//!   (Figs. 8–10).
//! * [`stencil`] — structured-grid ocean/atmosphere updates: the NEMO and
//!   WRF proxies (Figs. 11, 16).
//! * [`mg`] — the geometric multigrid V-cycle of reference HPCG.
//! * [`md`] — Lennard-Jones molecular dynamics with cell lists: the Gromacs
//!   proxy (Figs. 12–13).
//! * [`spectral`] — radix-2 FFT and small dense spectral transforms: the
//!   OpenIFS proxy (Figs. 14–15).
//! * [`tune`] — the shared tuning knobs (parallel cutoffs, chunk and tile
//!   sizes), derived from the [`arch::cachesim`] A64FX cache model.
//!
//! Each kernel reports its operation counts (`flops()` / `bytes()`), which
//! the simulator crates turn into [`arch`-style] kernel profiles; the
//! kernels themselves run on the host for correctness tests and the
//! `cluster-eval bench-all` throughput rows.

#![warn(missing_docs)]

pub mod cg;
pub mod f16;
pub mod fem;
pub mod fma;
pub mod gemm;
pub mod lu;
pub mod matrix;
pub mod md;
pub mod mg;
pub mod spectral;
pub mod stencil;
pub mod stencil_matrix;
pub mod stream;
pub mod tune;
