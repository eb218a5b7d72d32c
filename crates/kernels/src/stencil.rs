//! Structured-grid stencil kernels — the NEMO and WRF proxies.
//!
//! * [`OceanGrid`] — a 2-D shallow-water-like update on an Arakawa-C-style
//!   grid (NEMO's horizontal structure): gravity-wave + advection terms,
//!   periodic east–west like a global ocean.
//! * [`AtmosGrid`] — a 3-D advection–diffusion update (WRF's mesoscale
//!   dynamics proxy) plus the per-hour output-frame serialization the WRF
//!   study toggles on and off.

use crate::tune;
use rayon::prelude::*;

/// A 2-D ocean state on an `nx × ny` C-grid: surface height `eta` and
/// velocities `u`, `v`.
#[derive(Debug, Clone)]
pub struct OceanGrid {
    /// East–west points.
    pub nx: usize,
    /// North–south points.
    pub ny: usize,
    /// Surface elevation.
    pub eta: Vec<f64>,
    /// Zonal velocity.
    pub u: Vec<f64>,
    /// Meridional velocity.
    pub v: Vec<f64>,
}

/// Gravitational acceleration (m/s²).
const G: f64 = 9.81;
/// Resting depth (m).
const H: f64 = 100.0;

/// One row of the height update, `eta[i] -= ch·(du + dv)`: branch-free
/// interior (the periodic x-wrap is peeled to the last element) with the
/// `du + dv` association of the original per-element loop. `vnext` is
/// `None` on the top wall row, where the original code negates `v`
/// directly (not `0.0 - v`, which would flip the sign bit of zeros).
#[inline]
fn eta_row_update(row: &mut [f64], urow: &[f64], vrow: &[f64], vnext: Option<&[f64]>, ch: f64) {
    let nx = row.len();
    let m = nx - 1;
    match vnext {
        Some(vn) => {
            for (((r, uw), vn), vc) in row[..m]
                .iter_mut()
                .zip(urow.windows(2))
                .zip(&vn[..m])
                .zip(&vrow[..m])
            {
                let du = uw[1] - uw[0];
                let dv = vn - vc;
                *r -= ch * (du + dv);
            }
            let du = urow[0] - urow[m];
            let dv = vn[m] - vrow[m];
            row[m] -= ch * (du + dv);
        }
        None => {
            for ((r, uw), vc) in row[..m].iter_mut().zip(urow.windows(2)).zip(&vrow[..m]) {
                let du = uw[1] - uw[0];
                let dv = -vc;
                *r -= ch * (du + dv);
            }
            let du = urow[0] - urow[m];
            let dv = -vrow[m];
            row[m] -= ch * (du + dv);
        }
    }
}

/// One row of the zonal-velocity update, `u[i] -= cg·(eta[i] − eta[i−1])`,
/// with the periodic wrap peeled to `i = 0`.
#[inline]
fn u_row_update(urow: &mut [f64], erow: &[f64], cg: f64) {
    let nx = urow.len();
    urow[0] -= cg * (erow[0] - erow[nx - 1]);
    for (u, ew) in urow[1..].iter_mut().zip(erow.windows(2)) {
        *u -= cg * (ew[1] - ew[0]);
    }
}

/// One row of the meridional-velocity update,
/// `v[i] -= cg·(eta[j][i] − eta[j−1][i])` — pure elementwise zip.
#[inline]
fn v_row_update(vrow: &mut [f64], erow: &[f64], erow_south: &[f64], cg: f64) {
    for ((v, ec), es) in vrow.iter_mut().zip(erow).zip(erow_south) {
        *v -= cg * (ec - es);
    }
}

impl OceanGrid {
    /// A grid at rest with a Gaussian elevation bump in the middle.
    pub fn with_bump(nx: usize, ny: usize) -> Self {
        assert!(nx >= 4 && ny >= 4, "grid too small");
        let mut eta = vec![0.0; nx * ny];
        let (cx, cy) = (nx as f64 / 2.0, ny as f64 / 2.0);
        let sigma = nx.min(ny) as f64 / 8.0;
        for j in 0..ny {
            for i in 0..nx {
                let d2 =
                    ((i as f64 - cx).powi(2) + (j as f64 - cy).powi(2)) / (2.0 * sigma * sigma);
                eta[j * nx + i] = (-d2).exp();
            }
        }
        Self {
            nx,
            ny,
            eta,
            u: vec![0.0; nx * ny],
            v: vec![0.0; nx * ny],
        }
    }

    /// Flat index of grid point `(i, j)`.
    #[inline]
    pub fn id(&self, i: usize, j: usize) -> usize {
        j * self.nx + i
    }

    /// One leapfrog-style shallow-water step with time step `dt` and grid
    /// spacing `dx`. Periodic in x (east–west), closed walls in y.
    /// Returns `(flops, bytes)` executed.
    ///
    /// Two implementations, both bit-identical to [`Self::step_reference`]
    /// (the updates are elementwise with unchanged expressions, so only
    /// the traversal order differs):
    ///
    /// * pools with >1 thread run two parallel row passes — the height
    ///   update, then a fused u+v pass that reads each freshly-written
    ///   `eta` row once for both velocity components;
    /// * a 1-thread pool runs a fully fused y-tiled sweep, tile height
    ///   sized by [`tune::ocean_tile_rows`] so three fields over a tile
    ///   plus halo stay resident in the modelled 64 KiB L1d.
    pub fn step(&mut self, dt: f64, dx: f64) -> (u64, u64) {
        let (nx, ny) = (self.nx, self.ny);
        let ch = (dt / dx) * H;
        let cg = (dt / dx) * G;
        if rayon::current_num_threads() <= 1 {
            self.step_fused_tiled(ch, cg);
        } else {
            self.step_two_pass(ch, cg);
        }
        let cells = (nx * ny) as u64;
        // ~10 flops and 7 f64 touches per cell across the three sweeps.
        (cells * 10, cells * 7 * 8)
    }

    /// Parallel path: height pass, then one fused velocity pass.
    fn step_two_pass(&mut self, ch: f64, cg: f64) {
        let (nx, ny) = (self.nx, self.ny);
        {
            let u = &self.u;
            let v = &self.v;
            self.eta
                .par_chunks_mut(nx)
                .enumerate()
                .for_each(|(j, row)| {
                    let urow = &u[j * nx..(j + 1) * nx];
                    let vrow = &v[j * nx..(j + 1) * nx];
                    let vnext = if j + 1 < ny {
                        Some(&v[(j + 1) * nx..(j + 2) * nx])
                    } else {
                        None
                    };
                    eta_row_update(row, urow, vrow, vnext, ch);
                });
        }
        {
            let eta = &self.eta;
            self.u
                .par_chunks_mut(nx)
                .zip(self.v.par_chunks_mut(nx))
                .enumerate()
                .for_each(|(j, (urow, vrow))| {
                    let erow = &eta[j * nx..(j + 1) * nx];
                    u_row_update(urow, erow, cg);
                    if j == 0 {
                        vrow.fill(0.0);
                    } else {
                        v_row_update(vrow, erow, &eta[(j - 1) * nx..j * nx], cg);
                    }
                });
        }
    }

    /// Single-thread path: all three updates fused per y-tile, so each
    /// tile's rows of eta/u/v are touched once per step while L1-resident.
    /// Row `j`'s height update reads only `v` rows `j` and `j+1`, which
    /// the velocity half of the current tile has not yet written, so the
    /// fusion computes exactly the two-pass values.
    fn step_fused_tiled(&mut self, ch: f64, cg: f64) {
        let (nx, ny) = (self.nx, self.ny);
        let tile = tune::ocean_tile_rows(nx);
        let mut j0 = 0;
        while j0 < ny {
            let j1 = (j0 + tile).min(ny);
            for j in j0..j1 {
                let urow = &self.u[j * nx..(j + 1) * nx];
                let vrow = &self.v[j * nx..(j + 1) * nx];
                let vnext = if j + 1 < ny {
                    Some(&self.v[(j + 1) * nx..(j + 2) * nx])
                } else {
                    None
                };
                let row = &mut self.eta[j * nx..(j + 1) * nx];
                eta_row_update(row, urow, vrow, vnext, ch);
            }
            for j in j0..j1 {
                let erow = &self.eta[j * nx..(j + 1) * nx];
                u_row_update(&mut self.u[j * nx..(j + 1) * nx], erow, cg);
                let vrow = &mut self.v[j * nx..(j + 1) * nx];
                if j == 0 {
                    vrow.fill(0.0);
                } else {
                    v_row_update(vrow, erow, &self.eta[(j - 1) * nx..j * nx], cg);
                }
            }
            j0 = j1;
        }
    }

    /// The pre-optimization three-sweep step, kept verbatim as the
    /// differential oracle for the tiled and fused paths.
    #[doc(hidden)]
    pub fn step_reference(&mut self, dt: f64, dx: f64) -> (u64, u64) {
        let (nx, ny) = (self.nx, self.ny);
        let c = dt / dx;
        // Height update from velocity divergence.
        let u = &self.u;
        let v = &self.v;
        self.eta
            .par_chunks_mut(nx)
            .enumerate()
            .for_each(|(j, row)| {
                for i in 0..nx {
                    let ip = (i + 1) % nx;
                    let du = u[j * nx + ip] - u[j * nx + i];
                    let dv = if j + 1 < ny {
                        v[(j + 1) * nx + i] - v[j * nx + i]
                    } else {
                        -v[j * nx + i]
                    };
                    row[i] -= c * H * (du + dv);
                }
            });
        // Velocity update from pressure gradient.
        let eta = &self.eta;
        self.u.par_chunks_mut(nx).enumerate().for_each(|(j, row)| {
            for i in 0..nx {
                let im = (i + nx - 1) % nx;
                row[i] -= c * G * (eta[j * nx + i] - eta[j * nx + im]);
            }
        });
        self.v.par_chunks_mut(nx).enumerate().for_each(|(j, row)| {
            if j == 0 {
                for r in row.iter_mut() {
                    *r = 0.0;
                }
            } else {
                for i in 0..nx {
                    row[i] -= c * G * (eta[j * nx + i] - eta[(j - 1) * nx + i]);
                }
            }
        });
        let cells = (nx * ny) as u64;
        (cells * 10, cells * 7 * 8)
    }

    /// Symbolic access trace of one core's row-shard of [`OceanGrid::step`]:
    /// see [`ocean_traffic_trace`].
    pub fn traffic_trace(&self) -> arch::Trace {
        ocean_traffic_trace(self.nx as u64, self.ny as u64)
    }

    /// Total fluid volume (∝ mean elevation) — conserved by the periodic /
    /// wall boundary scheme up to round-off.
    pub fn total_volume(&self) -> f64 {
        self.eta.iter().sum()
    }

    /// Total energy (potential + kinetic), used as a stability diagnostic.
    pub fn energy(&self) -> f64 {
        let pe: f64 = self.eta.iter().map(|&e| 0.5 * G * e * e).sum();
        let ke: f64 = self
            .u
            .iter()
            .zip(&self.v)
            .map(|(&u, &v)| 0.5 * H * (u * u + v * v))
            .sum();
        pe + ke
    }
}

/// Symbolic access trace of one shallow-water [`OceanGrid::step`] over an
/// `nx × ny` row shard (one core's slice of the domain).
///
/// Three sweeps, each a row-major pass over the grid:
///
/// 1. `eta` read-modify-write from `u[j,i]`, `u[j,i+1]`, `v[j,i]`,
///    `v[j+1,i]`;
/// 2. `u` read-modify-write from `eta[j,i]`, `eta[j,i−1]`;
/// 3. `v` read-modify-write from `eta[j,i]`, `eta[j−1,i]`.
///
/// Every array carries a one-row halo margin so the ±1 / ±row offsets
/// stay in bounds (the periodic x-wrap is approximated by the +1
/// neighbour). Rows are reused within a sweep (the `v[j+1]` row read at
/// sweep position `j` is re-read at `j+1` from cache), but the full
/// arrays are evicted between sweeps at shard sizes above the L2, which
/// is what pushes moved traffic to ~80 B/cell against the 56 B/cell the
/// operation count books.
pub fn ocean_traffic_trace(nx: u64, ny: u64) -> arch::Trace {
    assert!(nx >= 2 && ny >= 2, "degenerate trace grid");
    let cells = nx * ny;
    let row = nx as i64;
    let margin = nx; // one halo row above and below
    let mut t = arch::TraceBuilder::new("stencil_ocean");
    let eta = t.array("eta", 8 * (cells + 2 * margin));
    let u = t.array("u", 8 * (cells + 2 * margin));
    let v = t.array("v", 8 * (cells + 2 * margin));
    let m8 = 8 * margin as i64;
    // Sweep 1: eta -= c·H·(du + dv).
    t.open(cells);
    t.read(u, m8, &[8]);
    t.read(u, m8 + 8, &[8]);
    t.read(v, m8, &[8]);
    t.read(v, m8 + 8 * row, &[8]);
    t.read(eta, m8, &[8]);
    t.write(eta, m8, &[8]);
    t.close();
    // Sweep 2: u -= c·G·(eta[i] − eta[i−1]).
    t.open(cells);
    t.read(eta, m8, &[8]);
    t.read(eta, m8 - 8, &[8]);
    t.read(u, m8, &[8]);
    t.write(u, m8, &[8]);
    t.close();
    // Sweep 3: v -= c·G·(eta[i] − eta[i−nx]).
    t.open(cells);
    t.read(eta, m8, &[8]);
    t.read(eta, m8 - 8 * row, &[8]);
    t.read(v, m8, &[8]);
    t.write(v, m8, &[8]);
    t.close();
    t.build()
}

/// A 3-D atmospheric field on an `nx × ny × nz` grid.
#[derive(Debug, Clone)]
pub struct AtmosGrid {
    /// East–west points.
    pub nx: usize,
    /// North–south points.
    pub ny: usize,
    /// Vertical levels.
    pub nz: usize,
    /// Scalar field (potential temperature proxy).
    pub theta: Vec<f64>,
}

impl AtmosGrid {
    /// Initialize with a smooth thermal bubble.
    pub fn with_bubble(nx: usize, ny: usize, nz: usize) -> Self {
        assert!(nx >= 4 && ny >= 4 && nz >= 2, "grid too small");
        let mut theta = vec![300.0; nx * ny * nz];
        let (cx, cy) = (nx as f64 / 2.0, ny as f64 / 2.0);
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    let d2 = (i as f64 - cx).powi(2) + (j as f64 - cy).powi(2);
                    theta[(k * ny + j) * nx + i] += 2.0 * (-d2 / (nx as f64)).exp();
                }
            }
        }
        Self { nx, ny, nz, theta }
    }

    /// One upwind advection + diffusion step with constant wind `(uw, vw)`
    /// and diffusivity `kappa` (all in grid units, CFL ≤ 1 expected).
    /// Returns `(flops, bytes)`.
    pub fn step(&mut self, uw: f64, vw: f64, kappa: f64) -> (u64, u64) {
        assert!(uw.abs() <= 1.0 && vw.abs() <= 1.0, "CFL violation");
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        let old = self.theta.clone();
        self.theta
            .par_chunks_mut(nx * ny)
            .enumerate()
            .for_each(|(k, level)| {
                let base = k * ny * nx;
                for j in 0..ny {
                    for i in 0..nx {
                        let idx = j * nx + i;
                        let c = old[base + idx];
                        let w = old[base + j * nx + (i + nx - 1) % nx];
                        let e = old[base + j * nx + (i + 1) % nx];
                        let s = old[base + ((j + ny - 1) % ny) * nx + i];
                        let n = old[base + ((j + 1) % ny) * nx + i];
                        // Upwind advection (positive wind assumed from W/S).
                        let adv = uw * (c - w) + vw * (c - s);
                        let diff = kappa * (w + e + s + n - 4.0 * c);
                        level[idx] = c - adv + diff;
                    }
                }
            });
        let cells = (nx * ny * nz) as u64;
        (cells * 12, cells * 6 * 8)
    }

    /// Mean field value — conserved by the periodic scheme when `uw = vw`
    /// advection is conservative and diffusion is symmetric.
    pub fn mean(&self) -> f64 {
        self.theta.iter().sum::<f64>() / self.theta.len() as f64
    }

    /// Byte count of one output frame (WRF's hourly history write).
    pub fn frame_bytes(&self) -> u64 {
        (self.theta.len() * 8) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ocean_volume_is_conserved() {
        let mut g = OceanGrid::with_bump(32, 32);
        let v0 = g.total_volume();
        for _ in 0..100 {
            g.step(0.001, 1.0);
        }
        let v1 = g.total_volume();
        assert!(
            (v1 - v0).abs() < 1e-9 * v0.abs().max(1.0),
            "volume drifted {v0} -> {v1}"
        );
    }

    #[test]
    fn ocean_waves_propagate() {
        let mut g = OceanGrid::with_bump(32, 32);
        let centre0 = g.eta[g.id(16, 16)];
        for _ in 0..200 {
            g.step(0.001, 1.0);
        }
        let centre1 = g.eta[g.id(16, 16)];
        assert!(centre1 < centre0, "bump must radiate outwards");
        assert!(g.eta.iter().all(|e| e.is_finite()), "stable integration");
    }

    #[test]
    fn ocean_energy_stays_bounded() {
        let mut g = OceanGrid::with_bump(24, 24);
        let e0 = g.energy();
        for _ in 0..500 {
            g.step(0.0005, 1.0);
        }
        let e1 = g.energy();
        assert!(
            e1.is_finite() && e1 < 10.0 * e0,
            "energy blew up: {e0} -> {e1}"
        );
    }

    #[test]
    fn tiled_step_matches_reference_bitwise() {
        // Grid tall enough that the 1-thread path crosses several tiles
        // (tile height for nx=256 is 32 - 2 rows), wide enough that rows
        // matter; run many steps so divergence would compound.
        let mut opt = OceanGrid::with_bump(256, 96);
        let mut refr = opt.clone();
        for _ in 0..25 {
            opt.step(0.001, 1.0);
            refr.step_reference(0.001, 1.0);
        }
        for (field, (x, y)) in [
            ("eta", (&opt.eta, &refr.eta)),
            ("u", (&opt.u, &refr.u)),
            ("v", (&opt.v, &refr.v)),
        ] {
            for (i, (a, b)) in x.iter().zip(y.iter()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{field}[{i}]: {a} vs {b}");
            }
        }
    }

    #[test]
    fn ocean_flop_accounting() {
        let mut g = OceanGrid::with_bump(16, 8);
        let (flops, bytes) = g.step(0.001, 1.0);
        assert_eq!(flops, 16 * 8 * 10);
        assert_eq!(bytes, 16 * 8 * 7 * 8);
    }

    #[test]
    fn atmos_mean_is_conserved_under_pure_diffusion() {
        let mut g = AtmosGrid::with_bubble(16, 16, 4);
        let m0 = g.mean();
        for _ in 0..100 {
            g.step(0.0, 0.0, 0.1);
        }
        let m1 = g.mean();
        assert!((m1 - m0).abs() < 1e-9, "mean drifted {m0} -> {m1}");
    }

    #[test]
    fn atmos_diffusion_flattens_the_bubble() {
        let mut g = AtmosGrid::with_bubble(16, 16, 2);
        let spread0: f64 = {
            let m = g.mean();
            g.theta.iter().map(|&t| (t - m).powi(2)).sum()
        };
        for _ in 0..200 {
            g.step(0.0, 0.0, 0.2);
        }
        let spread1: f64 = {
            let m = g.mean();
            g.theta.iter().map(|&t| (t - m).powi(2)).sum()
        };
        assert!(
            spread1 < spread0 / 2.0,
            "diffusion must flatten: {spread0} -> {spread1}"
        );
    }

    #[test]
    fn atmos_advection_moves_the_bubble() {
        let mut g = AtmosGrid::with_bubble(32, 32, 2);
        let peak_i = |g: &AtmosGrid| {
            let mut best = (0usize, f64::MIN);
            for i in 0..g.nx {
                let v = g.theta[16 * g.nx + i];
                if v > best.1 {
                    best = (i, v);
                }
            }
            best.0
        };
        let before = peak_i(&g);
        for _ in 0..8 {
            g.step(1.0, 0.0, 0.0);
        }
        let after = peak_i(&g);
        assert_eq!((before + 8) % g.nx, after, "peak must advect 8 cells east");
    }

    #[test]
    fn frame_bytes_match_field_size() {
        let g = AtmosGrid::with_bubble(8, 8, 4);
        assert_eq!(g.frame_bytes(), 8 * 8 * 4 * 8);
    }

    #[test]
    #[should_panic(expected = "CFL")]
    fn cfl_violation_rejected() {
        let mut g = AtmosGrid::with_bubble(8, 8, 2);
        g.step(1.5, 0.0, 0.0);
    }

    #[test]
    fn ocean_traffic_trace_books_ten_touches_per_cell() {
        // 6 + 4 + 4 accesses per cell across the three sweeps: the moved
        // side of the 56-counted vs 80-moved B/cell gap.
        let trace = ocean_traffic_trace(64, 32);
        assert_eq!(trace.nominal_accesses(), 64 * 32 * 14);
        assert_eq!(trace.op_mix().gather_loads, 0.0);
        let g = OceanGrid::with_bump(64, 32);
        assert_eq!(g.traffic_trace().nominal_accesses(), 64 * 32 * 14);
    }
}
