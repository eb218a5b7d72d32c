//! Lennard-Jones molecular dynamics with cell lists — the Gromacs proxy.
//!
//! Gromacs' hot loop is the short-range non-bonded force kernel over
//! neighbour pairs inside a cutoff, integrated with a leapfrog scheme and
//! domain-decomposed over MPI. This module implements exactly that core in
//! reduced units: periodic cubic box, cell-list neighbour search, truncated
//! LJ 12-6 potential, velocity-Verlet integration.
//!
//! The force path is a flat CSR-style cell list (one `cell_ptr`/`entries`
//! pair rebuilt in place by counting sort — zero steady-state allocation)
//! driven by a deterministic **half-neighbor** traversal: every unordered
//! pair is evaluated once per periodic image, through 13 lexicographically
//! forward cell offsets plus the intra-cell triangle, with the image shift
//! precomputed per (cell, offset) so the inner loop carries no divisions
//! or rounding. The pre-optimization full-neighbor path is retained as
//! [`LjSystem::compute_forces_reference`], the differential oracle under
//! test.

use crate::tune;
use rayon::prelude::*;
use simkit::rng::Pcg32;

/// The 13 lexicographically forward cell offsets `(dz, dy, dx)`: together
/// with the intra-cell triangle they visit every unordered neighbour-cell
/// pair exactly once.
const FORWARD: [(i64, i64, i64); 13] = [
    (0, 0, 1),
    (0, 1, -1),
    (0, 1, 0),
    (0, 1, 1),
    (1, -1, -1),
    (1, -1, 0),
    (1, -1, 1),
    (1, 0, -1),
    (1, 0, 0),
    (1, 0, 1),
    (1, 1, -1),
    (1, 1, 0),
    (1, 1, 1),
];

/// Wrap one cell coordinate into `[0, ncell)` and report the periodic
/// image shift sign the wrap implies (−1, 0 or +1 box lengths).
#[inline]
fn wrap_cell(c: i64, ncell: usize) -> (usize, f64) {
    if c < 0 {
        ((c + ncell as i64) as usize, -1.0)
    } else if c >= ncell as i64 {
        ((c - ncell as i64) as usize, 1.0)
    } else {
        (c as usize, 0.0)
    }
}

/// Flat CSR-style cell list plus the per-chunk force accumulators, all
/// reused across calls so steady-state stepping performs no allocation.
#[derive(Debug, Clone, Default)]
struct CellScratch {
    /// Cells per box edge.
    ncell: usize,
    /// Prefix offsets into `entries`, length `ncell³ + 1`.
    cell_ptr: Vec<usize>,
    /// Particle ids grouped by cell, ascending within each cell (the same
    /// order the nested `Vec<Vec<usize>>` build pushed them).
    entries: Vec<usize>,
    /// Counting-sort cursors (counts, then running insert positions).
    cursor: Vec<usize>,
    /// Per-particle cell id.
    cell_of: Vec<usize>,
    /// One private force buffer per traversal chunk.
    chunk_force: Vec<Vec<[f64; 3]>>,
    /// Per-chunk `(potential, flops)` partials.
    chunk_stats: Vec<(f64, u64)>,
}

/// A particle system in a periodic cubic box (reduced LJ units).
#[derive(Debug, Clone)]
pub struct LjSystem {
    /// Box edge length.
    pub box_len: f64,
    /// Interaction cutoff radius.
    pub cutoff: f64,
    /// Positions, flattened `[x, y, z]` per particle.
    pub pos: Vec<[f64; 3]>,
    /// Velocities.
    pub vel: Vec<[f64; 3]>,
    /// Forces from the last evaluation.
    pub force: Vec<[f64; 3]>,
    /// Reused cell-list and accumulator storage.
    scratch: CellScratch,
}

impl LjSystem {
    /// Place `n³` particles on a simple cubic lattice with small random
    /// velocity jitter (zeroed net momentum).
    pub fn cubic_lattice(n: usize, density: f64, seed: u64) -> Self {
        assert!(n >= 2, "need at least 2³ particles");
        assert!(density > 0.0, "density must be positive");
        let count = n * n * n;
        let box_len = (count as f64 / density).cbrt();
        let spacing = box_len / n as f64;
        let mut rng = Pcg32::seeded(seed);
        let mut pos = Vec::with_capacity(count);
        let mut vel = Vec::with_capacity(count);
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    pos.push([
                        (i as f64 + 0.5) * spacing,
                        (j as f64 + 0.5) * spacing,
                        (k as f64 + 0.5) * spacing,
                    ]);
                    vel.push([
                        rng.uniform(-0.1, 0.1),
                        rng.uniform(-0.1, 0.1),
                        rng.uniform(-0.1, 0.1),
                    ]);
                }
            }
        }
        // Remove net momentum.
        let mut com = [0.0f64; 3];
        for v in &vel {
            for d in 0..3 {
                com[d] += v[d];
            }
        }
        for v in &mut vel {
            for d in 0..3 {
                v[d] -= com[d] / count as f64;
            }
        }
        let cutoff = 2.5f64.min(box_len / 2.0 - 1e-9);
        Self {
            box_len,
            cutoff,
            pos,
            vel,
            force: vec![[0.0; 3]; count],
            scratch: CellScratch::default(),
        }
    }

    /// Particle count.
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// Never empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Minimum-image displacement from `a` to `b` under the periodic box.
    pub fn min_image(&self, a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
        let mut d = [0.0; 3];
        for k in 0..3 {
            let mut x = b[k] - a[k];
            x -= self.box_len * (x / self.box_len).round();
            d[k] = x;
        }
        d
    }

    /// Rebuild the flat cell list in place by counting sort: one pass to
    /// bin particles, a prefix scan, one pass to scatter ids. Buffers are
    /// reused, so after the first call this allocates nothing.
    fn rebuild_cells(&mut self) {
        let ncell = ((self.box_len / self.cutoff).floor() as usize).max(1);
        let nc3 = ncell * ncell * ncell;
        let w = self.box_len / ncell as f64;
        let n = self.pos.len();
        let pos = &self.pos;
        let s = &mut self.scratch;
        s.ncell = ncell;
        s.cell_of.clear();
        s.cursor.clear();
        s.cursor.resize(nc3, 0);
        for p in pos {
            let cx = ((p[0] / w) as usize).min(ncell - 1);
            let cy = ((p[1] / w) as usize).min(ncell - 1);
            let cz = ((p[2] / w) as usize).min(ncell - 1);
            let c = (cz * ncell + cy) * ncell + cx;
            s.cell_of.push(c);
            s.cursor[c] += 1;
        }
        s.cell_ptr.clear();
        s.cell_ptr.reserve(nc3 + 1);
        let mut acc = 0usize;
        s.cell_ptr.push(0);
        for c in 0..nc3 {
            acc += s.cursor[c];
            s.cell_ptr.push(acc);
        }
        for c in 0..nc3 {
            s.cursor[c] = s.cell_ptr[c];
        }
        s.entries.clear();
        s.entries.resize(n, 0);
        for (i, &c) in s.cell_of.iter().enumerate() {
            s.entries[s.cursor[c]] = i;
            s.cursor[c] += 1;
        }
    }

    /// The original nested cell-list build, kept as the oracle for the
    /// flat counting-sort rebuild (same grouping, same within-cell order).
    #[doc(hidden)]
    pub fn cell_list_nested(&self) -> (usize, Vec<Vec<usize>>) {
        let ncell = ((self.box_len / self.cutoff).floor() as usize).max(1);
        let mut cells = vec![Vec::new(); ncell * ncell * ncell];
        let w = self.box_len / ncell as f64;
        for (i, p) in self.pos.iter().enumerate() {
            let cx = ((p[0] / w) as usize).min(ncell - 1);
            let cy = ((p[1] / w) as usize).min(ncell - 1);
            let cz = ((p[2] / w) as usize).min(ncell - 1);
            cells[(cz * ncell + cy) * ncell + cx].push(i);
        }
        (ncell, cells)
    }

    /// Evaluate truncated-LJ forces and return `(potential_energy, flops)`.
    ///
    /// Half-neighbor traversal: cells are walked in chunks (a pure
    /// function of the system size, [`tune::md_force_chunks`]); each chunk
    /// evaluates its (cell, forward-offset) pair blocks once, applying
    /// Newton's third law into a chunk-private force buffer, and the
    /// buffers are reduced in fixed chunk order — so forces and energies
    /// are bit-identical at any thread count, while each pair's math runs
    /// once instead of twice and the inner loop replaces `min_image`'s
    /// three divisions and roundings with a precomputed image shift.
    ///
    /// Flop accounting keeps the historical symmetric-visit convention
    /// (18 per checked pair-image, 40 per accepted pair — the same totals
    /// the two-sided reference books), so GFLOP/s stay comparable across
    /// kernel versions in the bench history.
    pub fn compute_forces(&mut self) -> (f64, u64) {
        self.rebuild_cells();
        let n = self.len();
        let rc2 = self.cutoff * self.cutoff;
        let box_len = self.box_len;
        let pos = &self.pos;
        let ncell = self.scratch.ncell;
        let nc2 = ncell * ncell;
        let nc3 = nc2 * ncell;
        let k_chunks = tune::md_force_chunks(n, nc3);
        let cells_per = nc3.div_ceil(k_chunks);

        let CellScratch {
            ref cell_ptr,
            ref entries,
            ref mut chunk_force,
            ref mut chunk_stats,
            ..
        } = self.scratch;
        chunk_force.resize(k_chunks, Vec::new());
        chunk_force.truncate(k_chunks);
        chunk_stats.clear();
        chunk_stats.resize(k_chunks, (0.0, 0));

        let run_chunk = |k: usize, buf: &mut Vec<[f64; 3]>| -> (f64, u64) {
            buf.clear();
            buf.resize(n, [0.0; 3]);
            let mut pe = 0.0f64;
            let mut flops = 0u64;
            let c0 = k * cells_per;
            let c1 = ((k + 1) * cells_per).min(nc3);
            let mut pair = |i: usize, j: usize, shift: [f64; 3]| {
                let pi = pos[i];
                let pj = pos[j];
                let d = [
                    pj[0] + shift[0] - pi[0],
                    pj[1] + shift[1] - pi[1],
                    pj[2] + shift[2] - pi[2],
                ];
                let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                flops += 18;
                if r2 >= rc2 || r2 == 0.0 {
                    return;
                }
                let inv2 = 1.0 / r2;
                let inv6 = inv2 * inv2 * inv2;
                let inv12 = inv6 * inv6;
                // F/r = 24(2r⁻¹² − r⁻⁶)/r².
                let fr = 24.0 * (2.0 * inv12 - inv6) * inv2;
                for dim in 0..3 {
                    buf[i][dim] -= fr * d[dim];
                    buf[j][dim] += fr * d[dim];
                }
                pe += 4.0 * (inv12 - inv6);
                flops += 40;
            };
            for c in c0..c1 {
                let cz = (c / nc2) as i64;
                let cy = ((c % nc2) / ncell) as i64;
                let cx = (c % ncell) as i64;
                let own = &entries[cell_ptr[c]..cell_ptr[c + 1]];
                // Intra-cell triangle (no image shift).
                for (a, &i) in own.iter().enumerate() {
                    for &j in &own[a + 1..] {
                        pair(i, j, [0.0; 3]);
                    }
                }
                // 13 forward neighbour cells, image shift per offset.
                for &(dz, dy, dx) in FORWARD.iter() {
                    let (zz, sz) = wrap_cell(cz + dz, ncell);
                    let (yy, sy) = wrap_cell(cy + dy, ncell);
                    let (xx, sx) = wrap_cell(cx + dx, ncell);
                    let nb = (zz * ncell + yy) * ncell + xx;
                    let shift = [sx * box_len, sy * box_len, sz * box_len];
                    let other = &entries[cell_ptr[nb]..cell_ptr[nb + 1]];
                    if nb == c {
                        // ncell == 1: the offset wraps onto the cell
                        // itself. Ordered pairs i ≠ j visit the +shift
                        // and −shift images of each unordered pair once
                        // each — still one evaluation per (pair, image).
                        for &i in own {
                            for &j in other {
                                if i != j {
                                    pair(i, j, shift);
                                }
                            }
                        }
                    } else {
                        for &i in own {
                            for &j in other {
                                pair(i, j, shift);
                            }
                        }
                    }
                }
            }
            (pe, flops)
        };

        if n < tune::md_par_min_particles() {
            for (k, (buf, stat)) in chunk_force
                .iter_mut()
                .zip(chunk_stats.iter_mut())
                .enumerate()
            {
                *stat = run_chunk(k, buf);
            }
        } else {
            chunk_force
                .par_iter_mut()
                .zip(chunk_stats.par_iter_mut())
                .enumerate()
                .for_each(|(k, (buf, stat))| {
                    *stat = run_chunk(k, buf);
                });
        }

        // Fixed-order reduction: chunk count and order are pure functions
        // of the system, so the sums are bit-identical on any pool.
        for f in self.force.iter_mut() {
            *f = [0.0; 3];
        }
        for buf in chunk_force.iter() {
            for (f, b) in self.force.iter_mut().zip(buf) {
                for dim in 0..3 {
                    f[dim] += b[dim];
                }
            }
        }
        let mut pe_total = 0.0;
        let mut flops_total = 0;
        for &(pe, fl) in chunk_stats.iter() {
            pe_total += pe;
            flops_total += fl;
        }
        (pe_total, flops_total)
    }

    /// The pre-optimization full-neighbor force evaluation (nested cell
    /// list, per-pair `min_image`, each pair computed from both sides),
    /// kept verbatim as the differential oracle for
    /// [`Self::compute_forces`].
    #[doc(hidden)]
    pub fn compute_forces_reference(&mut self) -> (f64, u64) {
        let (ncell, cells) = self.cell_list_nested();
        let rc2 = self.cutoff * self.cutoff;
        let pos = &self.pos;
        let box_len = self.box_len;
        let min_image = |a: [f64; 3], b: [f64; 3]| {
            let mut d = [0.0; 3];
            for k in 0..3 {
                let mut x = b[k] - a[k];
                x -= box_len * (x / box_len).round();
                d[k] = x;
            }
            d
        };
        const PAR_MIN_PARTICLES: usize = 256;
        const PAR_GRAIN: usize = 64;
        let per_particle = |i: usize| {
            let w = box_len / ncell as f64;
            let p = pos[i];
            let cx = ((p[0] / w) as usize).min(ncell - 1) as i64;
            let cy = ((p[1] / w) as usize).min(ncell - 1) as i64;
            let cz = ((p[2] / w) as usize).min(ncell - 1) as i64;
            let mut f = [0.0f64; 3];
            let mut pe = 0.0;
            let mut flops = 0u64;
            let nc = ncell as i64;
            for dz in -1..=1 {
                for dy in -1..=1 {
                    for dx in -1..=1 {
                        let cc = ((cz + dz).rem_euclid(nc) * nc + (cy + dy).rem_euclid(nc)) * nc
                            + (cx + dx).rem_euclid(nc);
                        for &j in &cells[cc as usize] {
                            if j == i {
                                continue;
                            }
                            let d = min_image(p, pos[j]);
                            let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                            flops += 9;
                            if r2 >= rc2 || r2 == 0.0 {
                                continue;
                            }
                            let inv2 = 1.0 / r2;
                            let inv6 = inv2 * inv2 * inv2;
                            let inv12 = inv6 * inv6;
                            let fr = 24.0 * (2.0 * inv12 - inv6) * inv2;
                            for k in 0..3 {
                                f[k] -= fr * d[k];
                            }
                            pe += 0.5 * 4.0 * (inv12 - inv6);
                            flops += 20;
                        }
                    }
                }
            }
            (f, pe, flops)
        };
        let results: Vec<([f64; 3], f64, u64)> = if self.len() < PAR_MIN_PARTICLES {
            (0..self.len()).map(per_particle).collect()
        } else {
            (0..self.len())
                .into_par_iter()
                .map(per_particle)
                .collect_with_grain(PAR_GRAIN)
        };

        let mut pe_total = 0.0;
        let mut flops_total = 0;
        for (i, (f, pe, fl)) in results.into_iter().enumerate() {
            self.force[i] = f;
            pe_total += pe;
            flops_total += fl;
        }
        (pe_total, flops_total)
    }

    /// One velocity-Verlet step of size `dt`. Returns `(pe, ke, flops)`.
    pub fn step(&mut self, dt: f64) -> (f64, f64, u64) {
        let n = self.len();
        // Half kick + drift.
        for i in 0..n {
            for k in 0..3 {
                self.vel[i][k] += 0.5 * dt * self.force[i][k];
                self.pos[i][k] = (self.pos[i][k] + dt * self.vel[i][k]).rem_euclid(self.box_len);
            }
        }
        let (pe, flops) = self.compute_forces();
        // Second half kick.
        for i in 0..n {
            for k in 0..3 {
                self.vel[i][k] += 0.5 * dt * self.force[i][k];
            }
        }
        let ke = self.kinetic_energy();
        (pe, ke, flops + (n as u64) * 18)
    }

    /// Kinetic energy `½Σv²` (unit mass).
    pub fn kinetic_energy(&self) -> f64 {
        self.vel
            .iter()
            .map(|v| 0.5 * (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]))
            .sum()
    }

    /// Net momentum (conserved quantity).
    pub fn momentum(&self) -> [f64; 3] {
        let mut p = [0.0; 3];
        for v in &self.vel {
            for k in 0..3 {
                p[k] += v[k];
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_setup() {
        let s = LjSystem::cubic_lattice(4, 0.8, 1);
        assert_eq!(s.len(), 64);
        assert!(s.box_len > 0.0);
        assert!(s.cutoff <= s.box_len / 2.0);
        let p = s.momentum();
        assert!(p.iter().all(|&x| x.abs() < 1e-12), "momentum zeroed: {p:?}");
    }

    #[test]
    fn flat_cell_list_matches_nested() {
        for (n, density, seed) in [(2, 0.1, 3), (4, 0.8, 1), (5, 0.4, 7), (8, 0.8, 2)] {
            let mut s = LjSystem::cubic_lattice(n, density, seed);
            // Perturb off the lattice so cells have ragged occupancy.
            for _ in 0..5 {
                s.compute_forces();
                s.step(0.002);
            }
            let (ncell, nested) = s.cell_list_nested();
            s.rebuild_cells();
            assert_eq!(s.scratch.ncell, ncell);
            let nc3 = ncell * ncell * ncell;
            assert_eq!(s.scratch.cell_ptr.len(), nc3 + 1);
            for (c, cell) in nested.iter().enumerate() {
                let span = s.scratch.cell_ptr[c]..s.scratch.cell_ptr[c + 1];
                assert_eq!(
                    &s.scratch.entries[span],
                    cell.as_slice(),
                    "cell {c} of {n}³ @ {density}"
                );
            }
        }
    }

    #[test]
    fn half_neighbor_forces_match_reference() {
        // ncell ≥ 3 here, where the reference's 27-cell scan visits each
        // pair exactly twice: the half-neighbor path must agree to
        // rounding (association differs) and book identical flops.
        let mut s = LjSystem::cubic_lattice(8, 0.8, 11);
        let mut r = s.clone();
        let (pe_new, fl_new) = s.compute_forces();
        let (pe_ref, fl_ref) = r.compute_forces_reference();
        assert_eq!(fl_new, fl_ref, "symmetric-convention flop totals");
        assert!(
            ((pe_new - pe_ref) / pe_ref.abs().max(1.0)).abs() < 1e-12,
            "pe {pe_new} vs {pe_ref}"
        );
        for (i, (a, b)) in s.force.iter().zip(&r.force).enumerate() {
            for d in 0..3 {
                let scale = b[d].abs().max(1.0);
                assert!(
                    ((a[d] - b[d]) / scale).abs() < 1e-9,
                    "force[{i}][{d}]: {} vs {}",
                    a[d],
                    b[d]
                );
            }
        }
    }

    #[test]
    fn forces_sum_to_zero() {
        let mut s = LjSystem::cubic_lattice(4, 0.8, 2);
        s.compute_forces();
        let mut net = [0.0f64; 3];
        for f in &s.force {
            for k in 0..3 {
                net[k] += f[k];
            }
        }
        for k in 0..3 {
            assert!(net[k].abs() < 1e-9, "net force {net:?}");
        }
    }

    #[test]
    fn two_close_particles_repel() {
        let mut s = LjSystem::cubic_lattice(2, 0.1, 3);
        // Force the first two particles close together along x.
        s.pos[0] = [1.0, 1.0, 1.0];
        s.pos[1] = [1.9, 1.0, 1.0];
        s.compute_forces();
        // Separation 0.9 < 2^(1/6): repulsive — particle 0 pushed −x,
        // particle 1 pushed +x.
        assert!(s.force[0][0] < 0.0, "f0 {:?}", s.force[0]);
        assert!(s.force[1][0] > 0.0, "f1 {:?}", s.force[1]);
    }

    #[test]
    fn energy_is_approximately_conserved() {
        let mut s = LjSystem::cubic_lattice(4, 0.6, 4);
        s.compute_forces();
        let (pe0, ke0, _) = s.step(0.002);
        let e0 = pe0 + ke0;
        let mut e_last = e0;
        for _ in 0..200 {
            let (pe, ke, _) = s.step(0.002);
            e_last = pe + ke;
        }
        let drift = ((e_last - e0) / e0.abs()).abs();
        assert!(drift < 0.02, "energy drift {drift}");
    }

    #[test]
    fn momentum_is_conserved() {
        let mut s = LjSystem::cubic_lattice(3, 0.7, 5);
        s.compute_forces();
        for _ in 0..100 {
            s.step(0.002);
        }
        let p = s.momentum();
        assert!(p.iter().all(|&x| x.abs() < 1e-8), "momentum {p:?}");
    }

    #[test]
    fn positions_stay_in_box() {
        let mut s = LjSystem::cubic_lattice(3, 0.7, 6);
        s.compute_forces();
        for _ in 0..100 {
            s.step(0.003);
        }
        for p in &s.pos {
            for k in 0..3 {
                assert!((0.0..=s.box_len).contains(&p[k]), "escaped: {p:?}");
            }
        }
    }

    #[test]
    fn flops_scale_with_density() {
        let mut sparse = LjSystem::cubic_lattice(4, 0.3, 7);
        let mut dense = LjSystem::cubic_lattice(4, 1.0, 7);
        let (_, f_sparse) = sparse.compute_forces();
        let (_, f_dense) = dense.compute_forces();
        assert!(
            f_dense > f_sparse,
            "denser system visits more pairs: {f_sparse} vs {f_dense}"
        );
    }

    #[test]
    fn min_image_wraps() {
        let s = LjSystem::cubic_lattice(2, 0.1, 8);
        let l = s.box_len;
        let d = s.min_image([0.1, 0.0, 0.0], [l - 0.1, 0.0, 0.0]);
        assert!((d[0] + 0.2).abs() < 1e-12, "wrapped distance {d:?}");
    }
}
