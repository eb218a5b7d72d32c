//! `perfbench` — end-to-end and per-layer benchmark of the cluster-eval
//! workspace, driven entirely through the crates' public API.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper|whatif|replay> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run checks the program's outputs. The last line of standard
//! output is one JSON object: `{"correct","attempted","failed","metrics"}`.
//! With `--trace 0` the metrics are the end-to-end set ([`E2E`]); with
//! `--trace 1` they are the per-layer set ([`PER_LAYER`]). Human-readable
//! tables go to standard error. See `perfbench/README.md`.

mod golden;
mod paper;
mod probes;
mod replay;
mod stats;
mod trace;
mod whatif;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("best_op_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A
/// layer the traced workload bypasses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tracing_overhead", "ratio"),
    ("self_share.engine", "ratio"),
    ("self_share.serve", "ratio"),
    ("self_share.json", "ratio"),
    ("self_share.store", "ratio"),
    ("self_share.sched", "ratio"),
    ("self_share.bench", "ratio"),
    ("engine.fig8_ms", "ms"),
    ("engine.table4_ms", "ms"),
    ("engine.fig11_ms", "ms"),
    ("engine.fig16_ms", "ms"),
    ("engine.other_ms", "ms"),
    ("apps.alya_192_ms", "ms"),
    ("apps.nemo_192_ms", "ms"),
    ("apps.wrf_192_ms", "ms"),
    ("apps.openifs_192_ms", "ms"),
    ("apps.gromacs_192_ms", "ms"),
    ("hpl.simulate_us", "us"),
    ("hpcg.simulate_us", "us"),
    ("mpisim.job_new_us", "us"),
    ("mpisim.compute_us_768r", "us"),
    ("mpisim.compute_us_9216r", "us"),
    ("mpisim.allreduce_us_9216r", "us"),
    ("mpisim.halo_us_9216r", "us"),
    ("arch.chunk_time_ns", "ns"),
    ("interconnect.path_cost_ns", "ns"),
    ("interconnect.message_time_ns", "ns"),
    ("interconnect.bandwidth_map_ms", "ms"),
    ("json.parse_us", "us"),
    ("serve.query_parse_us", "us"),
    ("serve.answer_mem_us", "us"),
    ("serve.answer_disk_us", "us"),
    ("serve.answer_miss_ms", "ms"),
    ("cache.paper_mem_hits", "count"),
    ("cache.paper_misses", "count"),
    ("cache.whatif_mem_hits", "count"),
    ("cache.whatif_disk_hits", "count"),
    ("cache.whatif_misses", "count"),
    ("cache.whatif_hit_ratio", "ratio"),
    ("cache.whatif_lookups", "count"),
    ("store.get_us", "us"),
    ("store.put_us", "us"),
    ("store.reopen_ms", "ms"),
    ("store.records", "count"),
    ("store.segment_bytes", "bytes"),
    ("sched.generate_ms", "ms"),
    ("sched.schedule_s", "s"),
    ("sched.allocate_us", "us"),
    ("sched.release_us", "us"),
    ("sched.compactness_us", "us"),
    ("sched.utilization", "ratio"),
    ("sched.mean_wait_s", "s"),
    ("sched.mean_compactness", "hops"),
];

/// Threads a workload may use: the load comes from one process with at
/// most this many workers (the request fan-out of `serve::respond`).
pub const WORKERS: usize = 2;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload to run.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long the measured part of the run lasts.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

impl Args {
    /// The measurement budget.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed '{value}'"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds '{value}'"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    if !["paper", "whatif", "replay"].contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be paper | whatif | replay, not '{}'",
            args.workload
        ));
    }
    Ok(args)
}

/// Check outcomes of a run: every failed check is one failed operation.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checked operations.
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
    /// The first few failure messages.
    pub messages: Vec<String>,
}

impl Checks {
    /// Record one checked operation; `Err` carries why it failed.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(msg);
            }
        }
    }
}

/// The metric values of one run, keyed by name.
pub struct Metrics {
    schema: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Every metric of `schema`, all at 0 until set.
    pub fn new(schema: &'static [(&'static str, &'static str)]) -> Self {
        Self {
            schema,
            values: schema.iter().map(|&(n, _)| (n, 0.0)).collect(),
        }
    }

    /// Set a metric.
    ///
    /// # Panics
    /// Panics on a name outside the schema: the printed set must match
    /// `BENCHMARK.json` exactly.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .iter_mut()
            .find(|(n, _)| **n == name)
            .unwrap_or_else(|| panic!("metric '{name}' is not in the schema"));
        *slot.1 = if value.is_finite() { value } else { 0.0 };
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, &(name, unit)) in self.schema.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                self.values[name]
            );
        }
        out.push('}');
        out
    }

    fn to_table(&self) -> String {
        let mut out = String::new();
        for &(name, unit) in self.schema {
            let _ = writeln!(out, "  {name:<32} {:>16.6} {unit}", self.values[name]);
        }
        out
    }
}

/// What a workload hands back to `main`.
pub struct Outcome {
    /// Output checks of the whole run.
    pub checks: Checks,
    /// The metric set the run prints.
    pub metrics: Metrics,
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run `setup` `times` times and keep the last result together with the
/// median set-up wall time in seconds.
pub fn repeated_setup<T>(
    times: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut walls = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        let t0 = Instant::now();
        last = Some(setup()?);
        walls.push(t0.elapsed().as_secs_f64());
    }
    let median = stats::median(&walls).expect("at least one set-up");
    Ok((last.expect("at least one set-up"), median))
}

/// Times each workload sets up per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Fewest units a budgeted pass runs, however long they take.
pub const MIN_UNITS: usize = 3;

/// When a pass of units stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// Once the budget has passed (and at least [`MIN_UNITS`] ran).
    Budget(Duration),
    /// After exactly this many units.
    Count(usize),
}

/// Run identical units of work until `stop`, timing each `unit` call
/// alone; `check` then inspects the unit's output, untimed. Returns the
/// unit walls in seconds.
pub fn repeat<R>(
    stop: Stop,
    mut unit: impl FnMut(usize) -> Result<R, String>,
    mut check: impl FnMut(usize, R),
) -> Result<Vec<f64>, String> {
    let start = Instant::now();
    let mut walls = Vec::new();
    loop {
        let i = walls.len();
        let done = match stop {
            Stop::Budget(b) => i >= MIN_UNITS && start.elapsed() >= b,
            Stop::Count(n) => i >= n,
        };
        if done {
            return Ok(walls);
        }
        let t0 = Instant::now();
        let out = unit(i)?;
        walls.push(t0.elapsed().as_secs_f64());
        check(i, out);
    }
}

/// Fastest of a pass's unit walls.
pub fn best(walls: &[f64]) -> f64 {
    walls.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The end-to-end metrics of an untraced pass of units.
pub fn e2e_metrics(setup_s: f64, walls: &[f64]) -> Metrics {
    let mut m = Metrics::new(E2E);
    m.set("setup_s", setup_s);
    m.set("best_op_ms", best(walls) * 1e3);
    m.set("peak_rss_mb", peak_rss_mb());
    m
}

/// One-line summary of a pass's unit walls for standard error.
pub fn describe_walls(walls: &[f64]) -> String {
    let mut sorted = walls.to_vec();
    sorted.sort_by(f64::total_cmp);
    format!(
        "{} units: best {:.4} s, median {:.4} s, worst {:.4} s",
        walls.len(),
        sorted[0],
        stats::median(walls).expect("at least one unit"),
        sorted[sorted.len() - 1]
    )
}

/// Scratch space for temporary stores, relative to the working directory
/// (the checkout root); emptied as each store is dropped.
pub fn work_dir() -> PathBuf {
    PathBuf::from(".bench_tmp")
}

/// A directory removed on drop.
pub struct TempDir(pub PathBuf);

impl TempDir {
    /// Create a fresh, empty directory under [`work_dir`].
    pub fn new(tag: &str) -> Result<Self, String> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = work_dir().join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty scratch root behind (fails harmlessly if in use).
        let _ = std::fs::remove_dir(work_dir());
    }
}

/// Write the spans of a traced run, print the per-layer self-time table
/// and set each layer's `self_share.<layer>` metric.
pub fn report_spans(args: &Args, spans: &[trace::Span], metrics: &mut Metrics) {
    let out_dir = PathBuf::from(".bench_out");
    let path = out_dir.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
    match std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(&path, trace::to_json(spans)))
    {
        Ok(()) => eprintln!(
            "perfbench: {} spans written to {}",
            spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
    let layers = trace::layer_self_times(spans);
    let total: u64 = layers.values().map(|l| l.self_ns).sum();
    eprintln!("per-layer self time ({} spans):", spans.len());
    eprintln!(
        "  {:<14} {:>8} {:>12} {:>7}",
        "layer", "spans", "self_ms", "share"
    );
    let mut rows: Vec<_> = layers.iter().collect();
    rows.sort_by_key(|(_, l)| std::cmp::Reverse(l.self_ns));
    for (layer, l) in rows {
        let share = l.self_ns as f64 / total.max(1) as f64;
        eprintln!(
            "  {layer:<14} {:>8} {:>12.3} {:>6.1}%",
            l.spans,
            l.self_ns as f64 / 1e6,
            share * 100.0
        );
        let name = format!("self_share.{layer}");
        if PER_LAYER.iter().any(|(n, _)| *n == name) {
            metrics.set(&name, share);
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <paper|whatif|replay> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "paper" => paper::run(&args),
        "whatif" => whatif::run(&args),
        _ => replay::run(&args),
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed to run: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    let Outcome { checks, metrics } = outcome;
    eprintln!(
        "{} seed={} trace={} — {} metrics:\n{}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        if args.trace {
            "per-layer"
        } else {
            "end-to-end"
        },
        metrics.to_table()
    );
    for m in &checks.messages {
        eprintln!("perfbench: check failed: {m}");
    }
    let correct = checks.failed == 0 && checks.attempted > 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        checks.attempted,
        checks.failed,
        metrics.to_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric sets printed here and declared in `BENCHMARK.json` must
    /// agree name for name and unit for unit.
    #[test]
    fn schema_matches_benchmark_json() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = cluster_eval::json::parse(&text).expect("BENCHMARK.json parses");
        for (key, schema) in [("end_to_end", E2E), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = doc
                .get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.get("name")
                            .and_then(|v| v.as_str())
                            .expect("name")
                            .to_string(),
                        m.get("unit")
                            .and_then(|v| v.as_str())
                            .expect("unit")
                            .to_string(),
                    )
                })
                .collect();
            let printed: Vec<(String, String)> = schema
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, printed, "{key} differs from BENCHMARK.json");
        }
    }

    #[test]
    fn metrics_print_every_schema_entry() {
        let mut m = Metrics::new(E2E);
        m.set("setup_s", 0.5);
        m.set("best_op_ms", f64::NAN);
        let json = m.to_json();
        assert!(json.contains("\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}"));
        assert!(json.contains("\"best_op_ms\":{\"value\":0,\"unit\":\"ms\"}"));
        assert_eq!(json.matches("\"unit\"").count(), E2E.len());
        cluster_eval::json::parse(&json).expect("valid JSON");
    }

    #[test]
    #[should_panic(expected = "not in the schema")]
    fn unknown_metric_names_are_refused() {
        Metrics::new(E2E).set("latency_ms", 1.0);
    }
}
