//! Synthetic workload generation for scheduler studies.
//!
//! Production HPC queues have a well-known shape: many small, short jobs,
//! a heavy tail of hero runs, bursty submissions. The generator here is a
//! small parameterized model of that mix, deterministic per seed, used by
//! the scheduler example and benches.

use crate::queue::JobRequest;
use simkit::rng::Pcg32;
use simkit::units::Time;

/// Parameters of a synthetic submission stream.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Jobs to generate.
    pub jobs: usize,
    /// Cluster size (caps the hero jobs).
    pub cluster_nodes: usize,
    /// Span of the submission window in seconds.
    pub window_s: f64,
    /// Fraction of jobs that are machine-scale hero runs.
    pub hero_fraction: f64,
    /// Runtime range of ordinary jobs in seconds `(lo, hi)`.
    pub duration_s: (f64, f64),
}

impl WorkloadSpec {
    /// A production-like day on a 192-node machine.
    pub fn production_day(cluster_nodes: usize) -> Self {
        Self {
            jobs: 150,
            cluster_nodes,
            window_s: 86_400.0,
            hero_fraction: 0.08,
            duration_s: (120.0, 14_400.0),
        }
    }

    /// Generate the stream, sorted by submission time.
    ///
    /// # Panics
    /// Panics on degenerate parameters.
    pub fn generate(&self, seed: u64) -> Vec<JobRequest> {
        assert!(self.jobs >= 1 && self.cluster_nodes >= 1, "degenerate spec");
        assert!(
            self.duration_s.0 > 0.0 && self.duration_s.1 >= self.duration_s.0,
            "bad duration range"
        );
        assert!((0.0..=1.0).contains(&self.hero_fraction), "bad fraction");
        let mut rng = Pcg32::seeded(seed);
        let mut out: Vec<JobRequest> = (0..self.jobs)
            .map(|id| {
                let hero = rng.next_f64() < self.hero_fraction;
                let nodes = if hero {
                    // Hero runs: 50–100 % of the machine.
                    let lo = self.cluster_nodes / 2;
                    lo + rng.next_below((self.cluster_nodes - lo) as u32 + 1) as usize
                } else {
                    // Ordinary: log-uniform-ish between 1 and 25 % of it.
                    let cap = (self.cluster_nodes / 4).max(1);
                    1 + rng.next_below(cap as u32) as usize
                };
                JobRequest {
                    id,
                    nodes: nodes.max(1),
                    duration: Time::seconds(rng.uniform(self.duration_s.0, self.duration_s.1)),
                    submit: Time::seconds(rng.uniform(0.0, self.window_s)),
                }
            })
            .collect();
        out.sort_by(|a, b| {
            a.submit
                .value()
                .total_cmp(&b.submit.value())
                .then(a.id.cmp(&b.id))
        });
        out
    }
}

/// A multi-day production submission stream at machine scale — the input
/// of `cluster-eval sched-replay` and the `"sched"` host bench.
///
/// Compared to [`WorkloadSpec`] (a single day of 150 jobs on CTE-Arm),
/// this models the mix the full-Fugaku replay needs: **log-normal-ish
/// durations** (median ~15 min with a heavy tail, clamped to half a day),
/// **bursty arrivals** (per-day burst centers with Gaussian jitter over a
/// uniform background), and **power-of-two-biased node counts** (most MPI
/// jobs ask for round sizes; a configurable sliver are machine-scale hero
/// runs). Node counts self-scale so the offered load lands near
/// `offered_load` of machine capacity regardless of cluster size or job
/// rate — the queueing regime stays production-like at 192 and at 158,976
/// nodes.
#[derive(Debug, Clone)]
pub struct ReplaySpec {
    /// Cluster size (node counts scale to it).
    pub cluster_nodes: usize,
    /// Days of submissions.
    pub days: usize,
    /// Jobs submitted per day.
    pub jobs_per_day: usize,
    /// Offered load as a fraction of machine node-time capacity, in
    /// `(0, 1]`. Around 0.75 gives realistic queues that still drain.
    pub offered_load: f64,
    /// Fraction of jobs that are machine-scale hero runs (25–50 % of the
    /// cluster).
    pub hero_fraction: f64,
}

/// Burst centers drawn per day for the arrival process.
const BURSTS_PER_DAY: usize = 8;
/// Seconds in a replay day.
const DAY_S: f64 = 86_400.0;
/// Log-normal duration shape: median and sigma of `ln(duration)`.
const DUR_MEDIAN_S: f64 = 900.0;
const DUR_SIGMA: f64 = 1.1;

/// Standard normal deviate via the Box–Muller transform (the second
/// deviate is discarded). The replay stream is defined by this transform:
/// `tests/golden/sched/smoke.csv`, the sched row of `BENCH_host.json` and
/// the `replay` benchmark workload all pin it, so it stays here rather
/// than following `Pcg32::normal` to a different sampler.
fn box_muller(rng: &mut Pcg32) -> f64 {
    // Draw until u is strictly positive so ln(u) is finite.
    let mut u = rng.next_f64();
    while u <= f64::MIN_POSITIVE {
        u = rng.next_f64();
    }
    let v = rng.next_f64();
    (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
}

impl ReplaySpec {
    /// A production-like stream on a cluster, at 75 % offered load.
    pub fn new(cluster_nodes: usize, days: usize, jobs_per_day: usize) -> Self {
        Self {
            cluster_nodes,
            days,
            jobs_per_day,
            offered_load: 0.75,
            hero_fraction: 0.0005,
        }
    }

    /// Total jobs in the stream.
    pub fn jobs(&self) -> usize {
        self.days * self.jobs_per_day
    }

    /// Generate the stream, sorted by the scheduler's `(submit, id)` key.
    ///
    /// # Panics
    /// Panics on degenerate parameters.
    pub fn generate(&self, seed: u64) -> Vec<JobRequest> {
        assert!(
            self.cluster_nodes >= 1 && self.days >= 1 && self.jobs_per_day >= 1,
            "degenerate spec"
        );
        assert!(
            self.offered_load > 0.0 && self.offered_load <= 1.0,
            "offered load outside (0, 1]"
        );
        assert!((0.0..=1.0).contains(&self.hero_fraction), "bad fraction");
        let mut rng = Pcg32::seeded(seed);

        // Pick the exponent range whose power-of-two mix lands nearest the
        // per-job node budget implied by the offered load.
        let mean_dur = DUR_MEDIAN_S * (DUR_SIGMA * DUR_SIGMA / 2.0).exp();
        let budget = self.offered_load * self.cluster_nodes as f64 * DAY_S
            / (self.jobs_per_day as f64 * mean_dur);
        let mut max_exp = 0u32;
        while 1usize << (max_exp + 1) <= self.cluster_nodes {
            max_exp += 1;
        }
        // E[nodes | emax] for the 70 % exact / 30 % perturbed mix below.
        let mix_mean = |emax: u32| 1.15 * ((1u64 << (emax + 1)) - 1) as f64 / (emax as f64 + 1.0);
        let mut emax = 0u32;
        while emax < max_exp && mix_mean(emax) < budget {
            emax += 1;
        }

        let mut out: Vec<JobRequest> = Vec::with_capacity(self.jobs());
        let mut centers = [0.0f64; BURSTS_PER_DAY];
        for day in 0..self.days {
            let day_start = day as f64 * DAY_S;
            for c in &mut centers {
                *c = day_start + rng.uniform(0.0, DAY_S);
            }
            for j in 0..self.jobs_per_day {
                let id = day * self.jobs_per_day + j;
                let hero = rng.next_f64() < self.hero_fraction;
                let nodes = if hero {
                    let lo = self.cluster_nodes / 4;
                    lo + rng.next_below((self.cluster_nodes / 2 - lo) as u32 + 1) as usize
                } else {
                    let e = rng.next_below(emax + 1);
                    let base = 1usize << e;
                    if rng.next_f64() < 0.7 {
                        base // the power-of-two bias itself
                    } else {
                        base + rng.next_below(base as u32) as usize
                    }
                };
                let duration = (DUR_MEDIAN_S * (DUR_SIGMA * box_muller(&mut rng)).exp())
                    .clamp(60.0, DAY_S / 2.0);
                let submit = if rng.next_f64() < 0.3 {
                    day_start + rng.uniform(0.0, DAY_S) // background arrivals
                } else {
                    let c = centers[rng.next_below(BURSTS_PER_DAY as u32) as usize];
                    (c + 900.0 * box_muller(&mut rng)).clamp(day_start, day_start + DAY_S - 1.0)
                };
                out.push(JobRequest {
                    id,
                    nodes: nodes.clamp(1, self.cluster_nodes),
                    duration: Time::seconds(duration),
                    submit: Time::seconds(submit),
                });
            }
        }
        out.sort_by(|a, b| {
            a.submit
                .value()
                .total_cmp(&b.submit.value())
                .then(a.id.cmp(&b.id))
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn box_muller_reproduces_the_replay_streams_normals() {
        // Seed 2026's first eight Box–Muller deviates. Replay streams are
        // built from this sequence, so it must not move by a bit.
        let want: [u64; 8] = [
            0x3ff6370185df061a,
            0x3fe3e2b6fe0fb72f,
            0x3fef060dea42eaef,
            0xbfdb175bbb0e8e3f,
            0x3fddc19e6b62344f,
            0xbff2a446fc855cf9,
            0x3fb359f642bed2ce,
            0xbfdecce4505f7d21,
        ];
        let mut rng = Pcg32::seeded(2026);
        let got: Vec<u64> = (0..8).map(|_| box_muller(&mut rng).to_bits()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn generates_requested_count_sorted() {
        let w = WorkloadSpec::production_day(192).generate(1);
        assert_eq!(w.len(), 150);
        for pair in w.windows(2) {
            assert!(pair[0].submit <= pair[1].submit);
        }
    }

    #[test]
    fn all_jobs_fit_the_cluster() {
        let w = WorkloadSpec::production_day(192).generate(2);
        assert!(w.iter().all(|j| (1..=192).contains(&j.nodes)));
        assert!(w.iter().all(|j| j.duration > Time::ZERO));
    }

    #[test]
    fn hero_fraction_is_respected() {
        let spec = WorkloadSpec {
            jobs: 2000,
            ..WorkloadSpec::production_day(192)
        };
        let w = spec.generate(3);
        let heroes = w.iter().filter(|j| j.nodes >= 96).count() as f64 / 2000.0;
        assert!((heroes - 0.08).abs() < 0.02, "hero share {heroes}");
    }

    #[test]
    fn deterministic_per_seed() {
        let spec = WorkloadSpec::production_day(192);
        let a = spec.generate(7);
        let b = spec.generate(7);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.nodes, y.nodes);
            assert_eq!(x.submit, y.submit);
        }
        let c = spec.generate(8);
        assert!(a.iter().zip(&c).any(|(x, y)| x.nodes != y.nodes));
    }

    #[test]
    fn runs_through_the_scheduler() {
        use crate::allocator::{AllocationPolicy, Allocator};
        use crate::queue::Scheduler;
        use interconnect::tofu::TofuD;
        let w = WorkloadSpec::production_day(192).generate(4);
        let alloc = Allocator::new(TofuD::cte_arm(), AllocationPolicy::BestFitContiguous, 1);
        let (jobs, stats) = Scheduler::new(alloc, true).run(w);
        assert!(jobs.iter().all(|j| j.end.is_some()));
        assert!(stats.utilization > 0.2, "day keeps the machine busy");
    }

    #[test]
    #[should_panic(expected = "bad duration")]
    fn degenerate_durations_rejected() {
        WorkloadSpec {
            duration_s: (10.0, 1.0),
            ..WorkloadSpec::production_day(192)
        }
        .generate(1);
    }

    #[test]
    fn replay_stream_is_sorted_sized_and_deterministic() {
        let spec = ReplaySpec::new(192, 2, 300);
        let a = spec.generate(5);
        assert_eq!(a.len(), 600);
        for pair in a.windows(2) {
            assert!(
                (pair[0].submit, pair[0].id) < (pair[1].submit, pair[1].id),
                "sorted by (submit, id)"
            );
        }
        assert!(a.iter().all(|j| (1..=192).contains(&j.nodes)));
        assert!(a
            .iter()
            .all(|j| j.duration >= Time::seconds(60.0) && j.duration <= Time::seconds(43_200.0)));
        let b = spec.generate(5);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.nodes == y.nodes && x.submit == y.submit && x.duration == y.duration));
        let c = spec.generate(6);
        assert!(a.iter().zip(&c).any(|(x, y)| x.nodes != y.nodes));
    }

    #[test]
    fn replay_node_counts_are_power_of_two_biased() {
        let w = ReplaySpec::new(158_976, 1, 4000).generate(9);
        let pow2 = w.iter().filter(|j| j.nodes.is_power_of_two()).count();
        assert!(
            pow2 as f64 / w.len() as f64 > 0.5,
            "round sizes dominate: {pow2}/{}",
            w.len()
        );
    }

    #[test]
    fn replay_arrivals_are_bursty() {
        // Hour-of-day histogram: burst mass should make the busiest hours
        // far heavier than a uniform process would.
        let w = ReplaySpec::new(192, 1, 2400).generate(3);
        let mut hourly = [0usize; 24];
        for j in &w {
            hourly[(j.submit.value() / 3600.0) as usize % 24] += 1;
        }
        let max = *hourly.iter().max().unwrap();
        let uniform = w.len() / 24;
        assert!(max as f64 > 1.5 * uniform as f64, "peak {max} vs {uniform}");
    }

    #[test]
    fn replay_offered_load_tracks_the_target() {
        // Node-seconds offered per day within a factor-2 band of target —
        // the generator self-scales across cluster sizes.
        for cluster in [192usize, 158_976] {
            let spec = ReplaySpec::new(cluster, 1, 2000);
            let w = spec.generate(11);
            let offered: f64 = w.iter().map(|j| j.nodes as f64 * j.duration.value()).sum();
            let target = spec.offered_load * cluster as f64 * 86_400.0;
            assert!(
                offered > 0.4 * target && offered < 2.0 * target,
                "cluster {cluster}: offered {offered:.3e} vs target {target:.3e}"
            );
        }
    }

    #[test]
    fn replay_runs_through_the_scheduler() {
        use crate::allocator::{AllocationPolicy, Allocator};
        use crate::queue::Scheduler;
        use interconnect::tofu::TofuD;
        let w = ReplaySpec::new(192, 1, 200).generate(4);
        let alloc = Allocator::new(TofuD::cte_arm(), AllocationPolicy::BestFitContiguous, 1);
        let (jobs, stats) = Scheduler::new(alloc, true).run(w);
        assert!(jobs.iter().all(|j| j.end.is_some()));
        assert!(stats.utilization > 0.3, "load keeps the machine busy");
    }
}
