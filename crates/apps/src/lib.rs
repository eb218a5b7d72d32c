//! # apps — the five scientific applications (Figs. 8–16)
//!
//! Proxy models of the applications the paper runs "as is": each app
//! declares its workload (from the published input set), its per-phase
//! resource profile (arithmetic intensity, intrinsic vectorizability,
//! communication pattern) and its memory footprint, and is executed on the
//! simulated clusters through [`mpisim::Job`]. The *inputs* of each model
//! are documented per app; the *outputs* — who wins, by what factor, where
//! the crossovers sit — are checked against the paper in each module's
//! tests and in the integration suite.
//!
//! | app | module | input set | figures |
//! |---|---|---|---|
//! | Alya | [`alya`] | TestCaseB, 132 M-element sphere mesh | 8, 9, 10 |
//! | NEMO | [`nemo`] | BENCH ORCA1-like | 11 |
//! | Gromacs | [`gromacs`] | lignocellulose-rf, 3.3 M atoms | 12, 13 |
//! | OpenIFS | [`openifs`] | TL255L91 / TC0511L91 | 14, 15 |
//! | WRF | [`wrf`] | Iberia 4 km, 56 h, 54 frames | 16 |
//!
//! The real computational kernels behind these proxies (FEM assembly,
//! C-grid stencils, LJ force loops, FFT/Legendre transforms) live in
//! the `kernels` crate and are validated there and in the workspace's
//! `tests/kernel_validation.rs`; this crate only models their cost.
//! [`capacity`] derives the memory minimums behind Table IV's "NP" cells.

#![warn(missing_docs)]

pub mod alya;
pub mod capacity;
pub mod common;
pub mod gromacs;
pub mod nemo;
pub mod openifs;
pub mod wrf;

pub use common::{AppRun, Cluster, ScalingPoint};
