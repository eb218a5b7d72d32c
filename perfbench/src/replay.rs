//! `replay`: full-Fugaku (158,976-node TofuD) scheduler replays with
//! best-fit allocation and EASY backfill — `sched::ReplaySpec::generate`
//! plus `Scheduler::run`, the two halves of `schedreplay::run_replay`.
//!
//! This path exercises `sched` alone and bypasses every simulation and
//! cache layer. Checks: every iteration replays the same seed and must
//! give bit-identical `SchedulerStats`, and completed + abandoned jobs
//! must equal submitted jobs.

use crate::trace::{self, Tracer};
use crate::{probes, repeat, Args, Checks, Metrics, Outcome, Stop, PER_LAYER};
use cluster_eval::schedreplay::machine_topo;
use interconnect::tofu::TofuD;
use interconnect::topology::Topology;
use sched::{AllocationPolicy, Allocator, JobRequest, ReplaySpec, Scheduler, SchedulerStats};

/// Days of submissions per replay.
pub const DAYS: usize = 3;
/// Jobs submitted per day.
pub const JOBS_PER_DAY: usize = 40_000;
/// Jobs per day of the untimed warm-up replay.
const WARMUP_JOBS_PER_DAY: usize = 4_000;

fn fugaku() -> TofuD {
    machine_topo("fugaku").expect("fugaku is a known machine")
}

/// The replay input for `seed`: a production-like stream on full Fugaku.
pub fn workload(seed: u64) -> Vec<JobRequest> {
    ReplaySpec::new(fugaku().nodes(), DAYS, JOBS_PER_DAY).generate(seed)
}

fn schedule(jobs: Vec<JobRequest>, seed: u64) -> (usize, SchedulerStats) {
    let allocator = Allocator::new(fugaku(), AllocationPolicy::BestFitContiguous, seed);
    let (states, stats) = Scheduler::new(allocator, true)
        .retain_allocations(false)
        .run(jobs);
    let completed = states
        .iter()
        .filter(|s| s.end.is_some() && !s.abandoned)
        .count();
    (completed, stats)
}

/// The stats as exact bit patterns, so "identical" means bit-identical.
fn fingerprint(s: &SchedulerStats) -> [u64; 7] {
    [
        s.makespan.value().to_bits(),
        s.mean_wait.value().to_bits(),
        s.mean_compactness.to_bits(),
        s.utilization.to_bits(),
        s.failed_nodes as u64,
        s.requeued as u64,
        s.abandoned as u64,
    ]
}

fn setup(seed: u64) -> Result<(), String> {
    // Untimed warm-up: a short replay on the same machine.
    let jobs = ReplaySpec::new(fugaku().nodes(), 1, WARMUP_JOBS_PER_DAY).generate(seed);
    let submitted = jobs.len();
    let (completed, stats) = schedule(jobs, seed);
    if completed + stats.abandoned != submitted {
        return Err(format!(
            "warm-up replay lost jobs: {completed} completed + {} abandoned != {submitted}",
            stats.abandoned
        ));
    }
    Ok(())
}

/// What one replay produced, for the untimed checks.
struct Replayed {
    submitted: usize,
    completed: usize,
    stats: SchedulerStats,
}

/// A pass of replays; returns the unit walls and the first replay's stats.
fn pass(
    seed: u64,
    stop: Stop,
    tracer: &Tracer,
    checks: &mut Checks,
) -> Result<(Vec<f64>, SchedulerStats), String> {
    let mut first: Option<SchedulerStats> = None;
    let walls = repeat(
        stop,
        |i| {
            let root = tracer.span("bench.replay", 0, i as u64 + 1);
            let jobs = {
                let _s = tracer.span("sched.generate", root.id(), 0);
                workload(seed)
            };
            let submitted = jobs.len();
            let _s = tracer.span("sched.schedule", root.id(), 0);
            let (completed, stats) = schedule(jobs, seed);
            Ok(Replayed {
                submitted,
                completed,
                stats,
            })
        },
        |i, r| {
            checks.record(if r.completed + r.stats.abandoned == r.submitted {
                Ok(())
            } else {
                Err(format!(
                    "replay {i}: {} completed + {} abandoned != {} submitted",
                    r.completed, r.stats.abandoned, r.submitted
                ))
            });
            match &first {
                None => first = Some(r.stats),
                Some(want) => checks.record(if fingerprint(want) == fingerprint(&r.stats) {
                    Ok(())
                } else {
                    Err(format!(
                        "replay {i}: stats {:?} differ from {want:?}",
                        r.stats
                    ))
                }),
            }
        },
    )?;
    Ok((walls, first.expect("a pass runs at least one replay")))
}

/// Run the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut checks = Checks::default();
    let ((), setup_s) = crate::repeated_setup(crate::SETUPS, || setup(args.seed))?;
    let off = Tracer::new(false);
    if !args.trace {
        let (walls, stats) = pass(args.seed, Stop::Budget(args.budget()), &off, &mut checks)?;
        eprintln!(
            "replay: {} jobs on {} nodes per replay, {}; utilization {:.6}, \
             mean wait {:.3} s; error_rate = {}/{}",
            DAYS * JOBS_PER_DAY,
            fugaku().nodes(),
            crate::describe_walls(&walls),
            stats.utilization,
            stats.mean_wait.value(),
            checks.failed,
            checks.attempted
        );
        let metrics = crate::e2e_metrics(setup_s, &walls);
        return Ok(Outcome { checks, metrics });
    }

    let (untraced, _) = pass(
        args.seed,
        Stop::Budget(args.budget() / 2),
        &off,
        &mut checks,
    )?;
    let tracer = Tracer::new(true);
    let (traced, stats) = pass(args.seed, Stop::Count(untraced.len()), &tracer, &mut checks)?;
    let spans = tracer.finish();

    let mut m = Metrics::new(PER_LAYER);
    m.set(
        "tracing_overhead",
        crate::best(&traced) / crate::best(&untraced) - 1.0,
    );
    crate::report_spans(args, &spans, &mut m);
    let span_median =
        |name: &str| crate::stats::median(&trace::durations(&spans, name)).unwrap_or(0.0);
    m.set("sched.generate_ms", span_median("sched.generate") * 1e-6);
    m.set("sched.schedule_s", span_median("sched.schedule") * 1e-9);
    m.set("sched.utilization", stats.utilization);
    m.set("sched.mean_wait_s", stats.mean_wait.value());
    m.set("sched.mean_compactness", stats.mean_compactness);
    probes::run_all(args, &mut m)?;
    Ok(Outcome { checks, metrics: m })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic_per_seed_and_differs_across_seeds() {
        let key = |jobs: &[JobRequest]| -> Vec<(usize, usize, u64, u64)> {
            jobs.iter()
                .map(|j| {
                    (
                        j.id,
                        j.nodes,
                        j.submit.value().to_bits(),
                        j.duration.value().to_bits(),
                    )
                })
                .collect()
        };
        let a = key(&workload(5));
        assert_eq!(a.len(), DAYS * JOBS_PER_DAY);
        assert_eq!(a, key(&workload(5)));
        assert_ne!(a, key(&workload(6)));
    }
}
