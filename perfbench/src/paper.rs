//! `paper`: repeated cold regenerations of the 20 paper artifacts — the
//! `run --all` path users run to reproduce the paper.
//!
//! One unit is `engine::run_experiments(all_experiments(), 1, ..)` on a
//! fresh memory-only `Ctx`. Checks: every artifact's CSV is byte-identical
//! to `tests/golden/<id>.csv`, and the cache ledger (memory hits / disk
//! hits / misses summed over the run) repeats the set-up pass's exactly.
//! The paper registry is the whole input, so the seed changes nothing.

use crate::trace::Tracer;
use crate::{golden, probes, repeat, Args, Checks, Metrics, Outcome, Stop, PER_LAYER};
use cluster_eval::engine::{run_experiments, Ctx, RunReport};
use cluster_eval::experiments::all_experiments;
use std::collections::BTreeMap;

/// The experiments whose wall time is reported on its own.
const NAMED: [&str; 4] = ["fig8", "table4", "fig11", "fig16"];

/// Memory hits, disk hits and misses summed over one regeneration.
type Ledger = (u64, u64, u64);

struct Inputs {
    goldens: BTreeMap<String, String>,
    ledger: Ledger,
}

fn regenerate() -> Vec<RunReport> {
    run_experiments(all_experiments(), 1, &Ctx::new())
}

fn ledger(reports: &[RunReport]) -> Ledger {
    reports.iter().fold((0, 0, 0), |(m, d, x), r| {
        (m + r.mem_hits, d + r.disk_hits, x + r.misses)
    })
}

/// Check one regeneration: one check per artifact plus one for the ledger.
fn check(reports: &[RunReport], inputs: &Inputs, checks: &mut Checks) {
    for r in reports {
        let got = r.artifact.to_csv();
        checks.record(match inputs.goldens.get(r.id) {
            None => Err(format!("{}: no golden snapshot", r.id)),
            Some(want) => match golden::first_diff(want, &got) {
                None => Ok(()),
                Some(at) => Err(format!("{}: differs from its golden at byte {at}", r.id)),
            },
        });
    }
    if reports.len() != inputs.goldens.len() {
        checks.record(Err(format!(
            "{} artifacts regenerated, {} goldens",
            reports.len(),
            inputs.goldens.len()
        )));
    }
    let got = ledger(reports);
    checks.record(if got == inputs.ledger {
        Ok(())
    } else {
        Err(format!(
            "cache ledger {got:?} (mem, disk, miss) != {:?}",
            inputs.ledger
        ))
    });
}

fn setup(checks: &mut Checks) -> Result<Inputs, String> {
    let ids: Vec<&str> = all_experiments().iter().map(|e| e.id).collect();
    let goldens = golden::load(&ids)?;
    // Untimed warm-up pass; its ledger is the one every later pass repeats.
    let reports = regenerate();
    let inputs = Inputs {
        goldens,
        ledger: ledger(&reports),
    };
    if inputs.ledger.1 != 0 {
        return Err(format!(
            "memory-only context reported {} disk hits",
            inputs.ledger.1
        ));
    }
    check(&reports, &inputs, checks);
    Ok(inputs)
}

/// Per-experiment walls of one regeneration, in milliseconds.
type ExperimentWalls = Vec<(&'static str, f64)>;

/// A pass of regenerations; returns the unit walls and each unit's
/// per-experiment walls.
fn pass(
    stop: Stop,
    inputs: &Inputs,
    tracer: &Tracer,
    checks: &mut Checks,
) -> Result<(Vec<f64>, Vec<ExperimentWalls>), String> {
    let mut all = Vec::new();
    let walls = repeat(
        stop,
        |i| {
            let _s = tracer.span("engine.run_experiments", 0, i as u64 + 1);
            Ok(regenerate())
        },
        |i, reports| {
            let _s = tracer.span("bench.check", 0, i as u64 + 1);
            check(&reports, inputs, checks);
            all.push(
                reports
                    .iter()
                    .map(|r| (r.id, r.wall.as_secs_f64() * 1e3))
                    .collect(),
            );
        },
    )?;
    Ok((walls, all))
}

/// Run the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut checks = Checks::default();
    let (inputs, setup_s) = crate::repeated_setup(crate::SETUPS, || setup(&mut checks))?;
    let off = Tracer::new(false);
    if !args.trace {
        let (walls, _) = pass(Stop::Budget(args.budget()), &inputs, &off, &mut checks)?;
        eprintln!(
            "paper: cold regenerations of {} artifacts, {}; ledger (mem, disk, miss) = {:?}; \
             error_rate = {}/{}",
            inputs.goldens.len(),
            crate::describe_walls(&walls),
            inputs.ledger,
            checks.failed,
            checks.attempted
        );
        let metrics = crate::e2e_metrics(setup_s, &walls);
        return Ok(Outcome { checks, metrics });
    }

    // The traced pass repeats the untraced pass's unit count; the best
    // walls of the two give the tracing overhead.
    let (untraced, _) = pass(Stop::Budget(args.budget() / 2), &inputs, &off, &mut checks)?;
    let tracer = Tracer::new(true);
    let (traced, per_experiment) =
        pass(Stop::Count(untraced.len()), &inputs, &tracer, &mut checks)?;
    let spans = tracer.finish();

    let mut m = Metrics::new(PER_LAYER);
    m.set(
        "tracing_overhead",
        crate::best(&traced) / crate::best(&untraced) - 1.0,
    );
    crate::report_spans(args, &spans, &mut m);
    let per_unit = |pick: &dyn Fn(&str) -> bool| -> f64 {
        let walls: Vec<f64> = per_experiment
            .iter()
            .map(|unit| {
                unit.iter()
                    .filter(|(id, _)| pick(id))
                    .map(|(_, ms)| ms)
                    .sum()
            })
            .collect();
        crate::stats::median(&walls).unwrap_or(0.0)
    };
    for id in NAMED {
        m.set(&format!("engine.{id}_ms"), per_unit(&|x| x == id));
    }
    m.set("engine.other_ms", per_unit(&|x| !NAMED.contains(&x)));
    m.set("cache.paper_mem_hits", inputs.ledger.0 as f64);
    m.set("cache.paper_misses", inputs.ledger.2 as f64);
    probes::run_all(args, &mut m)?;
    Ok(Outcome { checks, metrics: m })
}
