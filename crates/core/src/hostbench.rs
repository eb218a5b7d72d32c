//! Host micro-benchmarks for the kernel runtime (`bench-all --json`).
//!
//! Unlike the experiment registry — which reproduces the *paper's* A64FX
//! numbers from analytic machine models — this module measures what the
//! rewritten parallel runtime actually delivers on the machine running the
//! binary: per-kernel GB/s or GFLOP/s with 1 worker thread and with the
//! full configured pool, plus the resulting speedup. The output is the
//! committed `BENCH_host.json` snapshot (regenerate it with
//! `cluster-eval bench-all --json > BENCH_host.json` — the recorded
//! `host.cores` field says what hardware a snapshot came from, so numbers
//! from a 1-core CI container and a 48-core A64FX node are never confused).
//!
//! Every row uses calibrated best-of-k timing: one warm-up call estimates
//! the measured operation's wall time, reps are auto-scaled so every timed
//! batch runs at least 25 ms, and the reported number is the best per-rep
//! time over 5 batches. That keeps a microsecond kernel from being timed
//! as a single clock-granularity sample, so run-to-run deltas in
//! `BENCH_host.json` reflect the code, not the timer. The kernels
//! themselves are the real `crates/kernels` implementations, so these
//! numbers move when the runtime or the kernels do.

use crate::cachemodel::CacheModelEntry;
use crate::engine::Ctx;
use crate::json::Writer;
use crate::serve::{batch_lines, replay_cold_warm, respond, ReplayReport};
use arch::cachesim::Prediction;
use arch::cost::{
    spmv_csr_bytes, spmv_csr_moved_bytes, spmv_stencil_bytes, spmv_stencil_moved_bytes,
};
use interconnect::folded::FoldedTable;
use interconnect::link::LinkModel;
use interconnect::network::Network;
use interconnect::routing::{all_pairs_loads, RouteSteps};
use interconnect::table::RoutingTable;
use interconnect::tofu::{TofuD, DIMS};
use interconnect::topology::{NodeId, Topology};
use kernels::cg::{build_hpcg_matrix, symgs};
use kernels::gemm::{gemm_blocked, gemm_flops};
use kernels::matrix::DenseMatrix;
use kernels::md::LjSystem;
use kernels::mg::MgHierarchy;
use kernels::stencil::OceanGrid;
use kernels::stencil_matrix::StencilMatrix;
use kernels::stream::{StreamArrays, StreamKernel};
use std::time::Instant;

/// Minimum wall time a calibrated timed batch should cover. Long enough
/// to amortize timer granularity and scheduling jitter, short enough that
/// the full kernel suite stays interactive.
const TARGET_BATCH_SECS: f64 = 0.025;

/// Timed batches per calibrated measurement (the best one is reported).
const BATCHES: usize = 5;

/// Upper bound on auto-scaled reps, so a nanosecond-cheap closure cannot
/// spin a batch for minutes.
const MAX_REPS: usize = 100_000;

/// Calibrated best-of-k timing: one warm-up call primes caches and
/// estimates the closure's wall time, reps are scaled so a batch covers
/// [`TARGET_BATCH_SECS`], and the best per-rep seconds over [`BATCHES`]
/// batches is returned.
fn calibrated_best<F: FnMut()>(mut f: F) -> f64 {
    let t0 = Instant::now();
    f();
    let warm = t0.elapsed().as_secs_f64();
    let reps = if warm > 0.0 {
        ((TARGET_BATCH_SECS / warm).ceil() as usize).clamp(1, MAX_REPS)
    } else {
        MAX_REPS
    };
    let mut best = f64::INFINITY;
    for _ in 0..BATCHES {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        best = best.min(t0.elapsed().as_secs_f64() / reps as f64);
    }
    best
}

/// A kernel measurement entry point: thread count in, throughput out.
type BenchFn = fn(usize) -> f64;

/// One kernel's measurement at both thread settings.
#[derive(Debug, Clone)]
pub struct KernelBench {
    /// Kernel name (`stream_triad`, `gemm_blocked`, …).
    pub name: &'static str,
    /// Unit of `value_1t` / `value_nt` (`GB/s` or `GFLOP/s`).
    pub metric: &'static str,
    /// Problem-size note for the record (e.g. `n=2000000`).
    pub size: String,
    /// Throughput with a single worker thread.
    pub value_1t: f64,
    /// Throughput with the full configured pool.
    pub value_nt: f64,
}

impl KernelBench {
    /// `value_nt / value_1t`.
    pub fn speedup(&self) -> f64 {
        if self.value_1t > 0.0 {
            self.value_nt / self.value_1t
        } else {
            0.0
        }
    }
}

/// Interconnect fast-path measurements: per-message route-cost resolution
/// (before/after the memoized table), route-step enumeration rate, routing
/// table construction cost, and the parallel all-pairs link-load sweep at
/// one worker vs. the full pool.
#[derive(Debug, Clone)]
pub struct NetworkBench {
    /// Topology the route-rate numbers come from.
    pub route_topology: String,
    /// Routes resolved per second through `Network::path_cost` with the
    /// memoized [`RoutingTable`] built — the per-message fast path every
    /// `message_time` call rides.
    pub routes_per_sec: f64,
    /// The same query stream answered the pre-change way: `path_cost`
    /// before `routing_table()` is built falls back to direct
    /// coordinate-decode `hops()`/`sharing()` — byte-for-byte the code
    /// `message_time` ran before the table existed. Measured fresh on the
    /// same host every run, so the before/after never mixes machines.
    pub baseline_routes_per_sec: f64,
    /// Full-route step enumeration rate: the non-allocating `RouteSteps`
    /// iterator walked to completion over every ordered pair.
    pub route_enum_per_sec: f64,
    /// Wall time to build the memoized [`RoutingTable`], microseconds.
    pub table_build_us: f64,
    /// Topology the link-load sweep runs on.
    pub sweep_topology: String,
    /// All-pairs link-load sweep wall time with a 1-worker pool, ms.
    pub sweep_ms_1t: f64,
    /// Same sweep with the full configured pool, ms.
    pub sweep_ms_nt: f64,
    /// Topology of the symmetry-folded rows (full Fugaku).
    pub folded_topology: String,
    /// Path-cost resolutions per second through the folded table's
    /// all-pairs decode loop (hops + sharing class per pair).
    pub folded_routes_per_sec: f64,
    /// Wall time to build the full-Fugaku folded table, milliseconds.
    pub folded_build_ms: f64,
    /// Resident bytes of the full-Fugaku folded table.
    pub folded_table_bytes: usize,
    /// Topology of the 10k-node closed-form sweep row.
    pub sweep_10k_topology: String,
    /// Closed-form all-pairs uniform-traffic sweep (link loads + mean
    /// hops) at 10k+ nodes, milliseconds.
    pub sweep_10k_closed_ms: f64,
    /// The same closed-form sweep at full-Fugaku scale, milliseconds.
    pub fugaku_sweep_closed_ms: f64,
}

impl NetworkBench {
    /// `routes_per_sec / baseline_routes_per_sec` — how much faster the
    /// memoized table resolves a route than the pre-change direct path.
    pub fn resolve_speedup(&self) -> f64 {
        if self.baseline_routes_per_sec > 0.0 {
            self.routes_per_sec / self.baseline_routes_per_sec
        } else {
            0.0
        }
    }

    /// `sweep_ms_1t / sweep_ms_nt`.
    pub fn sweep_speedup(&self) -> f64 {
        if self.sweep_ms_nt > 0.0 {
            self.sweep_ms_1t / self.sweep_ms_nt
        } else {
            0.0
        }
    }
}

/// Structure-aware HPCG engine measurements: the CSR baseline against the
/// stencil-packed format for SpMV (throughput *and* effective traffic),
/// the sequential SymGS oracle against the parallel multicolor smoother,
/// and the full V-cycle at one worker vs. the configured pool.
#[derive(Debug, Clone)]
pub struct HpcgBench {
    /// Grid the SpMV/SymGS rows ran on (e.g. `32x32x32`).
    pub grid: String,
    /// CSR SpMV flop rate under the full pool, GFLOP/s.
    pub spmv_csr_gflops: f64,
    /// CSR SpMV *compulsory-DRAM-floor* traffic under the full pool, GB/s:
    /// the minimal main-memory bytes a perfect cache would move
    /// ([`spmv_csr_bytes`]) over measured wall time. A lower bound on the
    /// achieved bandwidth, NOT a throughput ranking across formats.
    pub spmv_csr_gbs_dram_floor: f64,
    /// CSR SpMV *moved* traffic, GB/s ([`spmv_csr_moved_bytes`]: what the
    /// loop actually touches). Comparable across matrix formats, unlike
    /// the floor number.
    pub spmv_csr_gbs_moved: f64,
    /// Stencil-packed SpMV flop rate under the full pool, GFLOP/s.
    pub spmv_stencil_gflops: f64,
    /// Stencil-packed SpMV *compulsory-DRAM-floor* traffic, GB/s
    /// ([`spmv_stencil_bytes`]: just the `x`/`y` streams — the packed
    /// format's whole metadata is ~500 B, so its floor is tiny *by
    /// construction*). Dividing by these few bytes makes a *faster* kernel
    /// print a *smaller* GB/s than CSR — never compare this column across
    /// formats; use the `_gbs_moved` columns for that.
    pub spmv_stencil_gbs_dram_floor: f64,
    /// Stencil-packed SpMV *moved* traffic, GB/s
    /// ([`spmv_stencil_moved_bytes`]): the format-comparable number.
    pub spmv_stencil_gbs_moved: f64,
    /// Sequential (oracle) SymGS sweeps per second.
    pub symgs_seq_sweeps_per_sec: f64,
    /// Parallel multicolor SymGS sweeps per second under the full pool.
    pub symgs_colored_sweeps_per_sec: f64,
    /// One V-cycle on the stencil hierarchy with a 1-worker pool, ms.
    pub vcycle_ms_1t: f64,
    /// Same V-cycle with the full configured pool, ms.
    pub vcycle_ms_nt: f64,
}

impl HpcgBench {
    /// `spmv_stencil_gflops / spmv_csr_gflops` — the format win at equal
    /// arithmetic.
    pub fn spmv_format_speedup(&self) -> f64 {
        if self.spmv_csr_gflops > 0.0 {
            self.spmv_stencil_gflops / self.spmv_csr_gflops
        } else {
            0.0
        }
    }

    /// `symgs_colored_sweeps_per_sec / symgs_seq_sweeps_per_sec`.
    pub fn symgs_speedup(&self) -> f64 {
        if self.symgs_seq_sweeps_per_sec > 0.0 {
            self.symgs_colored_sweeps_per_sec / self.symgs_seq_sweeps_per_sec
        } else {
            0.0
        }
    }

    /// `vcycle_ms_1t / vcycle_ms_nt`.
    pub fn vcycle_speedup(&self) -> f64 {
        if self.vcycle_ms_nt > 0.0 {
            self.vcycle_ms_1t / self.vcycle_ms_nt
        } else {
            0.0
        }
    }
}

/// The full host snapshot.
#[derive(Debug, Clone)]
pub struct HostBench {
    /// Cores the OS reports (`available_parallelism`). Distinct from
    /// `pool_threads`: a snapshot may legitimately record a pool wider or
    /// narrower than the hardware.
    pub detected_cores: usize,
    /// Worker threads the "N-thread" column used.
    pub pool_threads: usize,
    /// The `RAYON_NUM_THREADS` override in effect, if any.
    pub rayon_threads_env: Option<String>,
    /// Per-kernel measurements.
    pub kernels: Vec<KernelBench>,
    /// Interconnect fast-path measurements.
    pub network: NetworkBench,
    /// Structure-aware HPCG engine measurements.
    pub hpcg: HpcgBench,
}

/// Serve-path measurements over the committed canned batch
/// (`tests/data/serve_batch_50.jsonl`, compiled into the binary): the cold
/// replay that pays every engine miss against a fresh store, the warm
/// replay served from the reopened disk store, and the engine cost of two
/// identical in-flight queries under the single-flight slot lock.
#[derive(Debug, Clone)]
pub struct ServeBench {
    /// Request lines in the canned batch.
    pub requests: usize,
    /// `--jobs` level both replays ran at.
    pub jobs: usize,
    /// Walls and cache traffic of the cold replay (every unique query a
    /// miss) and the warm one (engine never runs, so zero misses).
    pub replay: ReplayReport,
    /// Engine misses charged for two identical queries evaluated
    /// concurrently in one request: the per-key slot lock is a
    /// single-flight map, so this is 1, not 2.
    pub inflight_dedupe_misses: u64,
}

impl ServeBench {
    /// Cold over warm replay wall time — what the persistent tier buys.
    pub fn warm_speedup(&self) -> f64 {
        if self.replay.warm_ms > 0.0 {
            self.replay.cold_ms / self.replay.warm_ms
        } else {
            0.0
        }
    }

    /// Write the members of the snapshot's `serve` object.
    pub(crate) fn write_json(&self, w: &mut Writer) {
        let r = &self.replay;
        w.key("batch").str("tests/data/serve_batch_50.jsonl");
        w.key("requests").uint(self.requests as u64);
        w.key("queries").uint(r.cold.total());
        w.key("jobs").uint(self.jobs as u64);
        w.key("cold_batch_ms").fixed(r.cold_ms, 2);
        w.key("warm_batch_ms").fixed(r.warm_ms, 2);
        w.key("warm_speedup").fixed(self.warm_speedup(), 1);
        w.key("cold_misses").uint(r.cold.misses);
        w.key("warm_disk_hits").uint(r.warm.disk_hits);
        w.key("warm_mem_hits").uint(r.warm.mem_hits);
        w.key("warm_misses").uint(r.warm.misses);
        w.key("inflight_dedupe_misses")
            .uint(self.inflight_dedupe_misses);
    }
}

/// The canned what-if batch the serve tests, CI smoke and this bench all
/// replay: 10 requests x 5 queries, 45 unique + 5 repeats, all-success.
const SERVE_BATCH: &str = include_str!("../../../tests/data/serve_batch_50.jsonl");

/// Measure the serve front end over the canned batch: cold against a
/// fresh store in a scratch directory, warm against the reopened store
/// ([`replay_cold_warm`]), plus the in-flight dedupe cost.
pub fn run_serve_bench(jobs: usize) -> ServeBench {
    let lines = batch_lines(SERVE_BATCH);
    let replay = replay_cold_warm(&lines, jobs).expect("warm serve replay matches cold");

    // Dedupe cost: two identical queries in one request, two workers. The
    // slot lock makes one compute and the other wait for the fresh value.
    let dup = r#"{"id": 1, "queries": [
        {"app": "hpl", "machine": "cte-arm", "nodes": 16},
        {"app": "hpl", "machine": "cte-arm", "nodes": 16}]}"#
        .replace('\n', " ");
    let dedupe_ctx = Ctx::new();
    let _ = respond(&dedupe_ctx, &dup, 2);

    ServeBench {
        requests: lines.len(),
        jobs,
        replay,
        inflight_dedupe_misses: dedupe_ctx.cache.counters().misses,
    }
}

/// Scheduler-replay throughput at full-Fugaku scale: days of synthetic
/// production dispatched through the run-indexed allocator, single thread
/// (the replay is inherently sequential; its speed comes from the data
/// structures, not the pool).
#[derive(Debug, Clone)]
pub struct SchedBench {
    /// Machine replayed.
    pub machine: String,
    /// Cluster size.
    pub nodes: usize,
    /// Days of submissions.
    pub days: usize,
    /// Jobs per day.
    pub jobs_per_day: usize,
    /// Jobs replayed.
    pub jobs: usize,
    /// Generate + simulate wall time, seconds.
    pub wall_s: f64,
    /// Jobs simulated per wall-clock second.
    pub jobs_per_sec: f64,
    /// Simulated makespan, seconds.
    pub makespan_s: f64,
    /// Node-time utilization in `[0, 1]`.
    pub utilization: f64,
    /// Mean queue wait, simulated seconds.
    pub mean_wait_s: f64,
    /// Mean allocation compactness, pairwise hops.
    pub mean_compactness: f64,
}

impl SchedBench {
    /// Write the members of the snapshot's `sched` object.
    pub(crate) fn write_json(&self, w: &mut Writer) {
        w.key("machine").str(&self.machine);
        w.key("nodes").uint(self.nodes as u64);
        w.key("days").uint(self.days as u64);
        w.key("jobs_per_day").uint(self.jobs_per_day as u64);
        w.key("jobs").uint(self.jobs as u64);
        w.key("wall_s").fixed(self.wall_s, 3);
        w.key("jobs_per_sec").fixed(self.jobs_per_sec, 0);
        w.key("makespan_s").fixed(self.makespan_s, 0);
        w.key("utilization").fixed(self.utilization, 4);
        w.key("mean_wait_s").fixed(self.mean_wait_s, 1);
        w.key("mean_compactness").fixed(self.mean_compactness, 3);
    }
}

/// Replay three days of full-Fugaku production (158,976 nodes, 40,000
/// jobs/day) under the best-fit policy and report throughput plus the
/// headline scheduler stats. Deterministic apart from the wall-time
/// fields.
pub fn run_sched_bench() -> SchedBench {
    let config = crate::schedreplay::ReplayConfig {
        days: 3,
        ..crate::schedreplay::ReplayConfig::fugaku_month()
    };
    let out = crate::schedreplay::run_replay(&config);
    SchedBench {
        machine: config.machine,
        nodes: out.nodes,
        days: config.days,
        jobs_per_day: config.jobs_per_day,
        jobs: out.jobs,
        wall_s: out.wall_s,
        jobs_per_sec: out.jobs_per_sec,
        makespan_s: out.stats.makespan.value(),
        utilization: out.stats.utilization,
        mean_wait_s: out.stats.mean_wait.value(),
        mean_compactness: out.stats.mean_compactness,
    }
}

/// Run `measure` under a pool fixed to `threads` workers.
fn with_pool<R>(threads: usize, measure: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool construction is infallible")
        .install(measure)
}

/// Giga-units per second of `f`, which does `units` of work per call,
/// timed by [`calibrated_best`] under a pool of `threads` workers.
fn giga_rate(threads: usize, units: f64, f: impl FnMut()) -> f64 {
    units / with_pool(threads, || calibrated_best(f)) / 1e9
}

fn bench_stream(threads: usize) -> f64 {
    let mut arrays = StreamArrays::new(2_000_000);
    let bytes = (arrays.len() * StreamKernel::Triad.bytes_per_element()) as f64;
    giga_rate(threads, bytes, || {
        if threads > 1 {
            arrays.run_parallel(StreamKernel::Triad);
        } else {
            arrays.run_sequential(StreamKernel::Triad);
        }
    })
}

fn bench_gemm(threads: usize) -> f64 {
    let n = 192;
    let a = DenseMatrix::from_fn(n, n, |i, j| ((i * 31 + j * 17) % 97) as f64 / 97.0);
    let b = DenseMatrix::from_fn(n, n, |i, j| ((i * 13 + j * 41) % 89) as f64 / 89.0);
    let mut c = DenseMatrix::zeros(n, n);
    giga_rate(threads, gemm_flops(n, n, n) as f64, || {
        gemm_blocked(&a, &b, &mut c)
    })
}

fn bench_spmv(threads: usize) -> f64 {
    let a = build_hpcg_matrix(24, 24, 24);
    let x: Vec<f64> = (0..a.n).map(|i| (i as f64).sin()).collect();
    let mut y = vec![0.0; a.n];
    giga_rate(threads, (2 * a.nnz()) as f64, || a.spmv(&x, &mut y))
}

fn bench_spmv_stencil(threads: usize) -> f64 {
    let a = StencilMatrix::hpcg(24, 24, 24);
    let x: Vec<f64> = (0..a.n).map(|i| (i as f64).sin()).collect();
    let mut y = vec![0.0; a.n];
    giga_rate(threads, (2 * a.nnz()) as f64, || a.spmv(&x, &mut y))
}

fn bench_stencil(threads: usize) -> f64 {
    let mut grid = OceanGrid::with_bump(512, 256);
    // Bytes per step is a pure function of the grid size.
    let (_, bytes) = grid.step(1.0, 1000.0);
    giga_rate(threads, bytes as f64, || {
        grid.step(1.0, 1000.0);
    })
}

fn bench_md(threads: usize) -> f64 {
    let mut sys = LjSystem::cubic_lattice(12, 0.8, 42);
    // Positions never move here, so the flop count is call-invariant.
    let (_, flops) = sys.compute_forces();
    giga_rate(threads, flops as f64, || {
        sys.compute_forces();
    })
}

fn topo_label(t: &TofuD) -> String {
    format!("TofuD {:?} ({} nodes)", t.dims, t.nodes())
}

/// Route-cost resolutions per second through [`Network::path_cost`] over
/// every ordered pair — the operation `message_time` performs per message.
/// With the routing table built this is the O(1) fast path; on a fresh
/// network it falls back to the pre-change direct computation, which is
/// what makes it the in-situ baseline.
fn bench_resolve_rate(net: &Network<TofuD>) -> f64 {
    let n = net.topology().nodes();
    let secs = calibrated_best(|| {
        let mut hop_sink = 0u64;
        let mut share_sink = 0.0f64;
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    let c = net.path_cost(NodeId(a), NodeId(b));
                    hop_sink = hop_sink.wrapping_add(c.hops as u64);
                    share_sink += c.sharing;
                }
            }
        }
        std::hint::black_box((hop_sink, share_sink));
    });
    (n * (n - 1)) as f64 / secs
}

/// Step-enumeration rate: walk the non-allocating step iterator over every
/// ordered pair of the CTE-Arm torus. Uses the same decode-free
/// constructor the all-pairs sweeps use.
fn bench_route_enum_rate(topo: &TofuD) -> f64 {
    let n = topo.nodes();
    let secs = calibrated_best(|| {
        let mut sink = 0u64;
        for s in 0..n {
            let src = NodeId(s);
            let sc = topo.coords(src);
            let mut dc = [0usize; DIMS];
            for r in 0..n {
                if r != s {
                    sink = RouteSteps::from_coords(topo, src, sc, dc)
                        .fold(sink, |acc, step| acc.wrapping_add(step.to.index() as u64));
                }
                topo.advance_coords(&mut dc);
            }
        }
        std::hint::black_box(sink);
    });
    (n * (n - 1)) as f64 / secs
}

/// Microseconds to build the memoized distance/sharing table.
fn bench_table_build(topo: &TofuD) -> f64 {
    calibrated_best(|| {
        std::hint::black_box(RoutingTable::build(topo));
    }) * 1e6
}

/// Folded-table resolutions per second: stream the all-pairs decode loop
/// (two array reads + unpack per ordered pair, self-pairs included) over a
/// table that fits in cache.
fn bench_folded_resolve_rate(topo: &TofuD) -> f64 {
    let t = FoldedTable::build(topo);
    let n = t.nodes();
    let secs = calibrated_best(|| {
        std::hint::black_box(t.checksum_all_pairs());
    });
    (n * n) as f64 / secs
}

/// Closed-form uniform-traffic sweep wall time (ms): per-link loads with
/// max/mean plus the machine-wide mean hop distance.
fn bench_closed_sweep(topo: &TofuD) -> f64 {
    calibrated_best(|| {
        let load = interconnect::sweep::uniform_link_load(topo);
        let hops = interconnect::sweep::uniform_mean_hops(topo);
        std::hint::black_box((load, hops));
    }) * 1e3
}

/// All-pairs link-load sweep wall time (ms) under a pool of `threads`.
fn bench_sweep(topo: &TofuD, threads: usize) -> f64 {
    with_pool(threads, || {
        calibrated_best(|| {
            std::hint::black_box(all_pairs_loads(topo).max_mean());
        }) * 1e3
    })
}

/// Measure the interconnect fast path on the 192-node CTE-Arm torus:
/// per-message cost resolution before (direct fallback) and after (memoized
/// table) the fast path, step enumeration, table construction, and the
/// all-pairs link-load sweep on a 1536-node TofuD at 1 worker vs. the full
/// pool.
pub fn run_network_bench(pool_threads: usize) -> NetworkBench {
    let small = TofuD::cte_arm();
    let big = TofuD::with_dims([8, 4, 4, 2, 3, 2], [true, true, true, false, true, false]);
    // 10 368 nodes: the smallest row past the ISSUE's 10k sweep target.
    let tenk = TofuD::with_dims([12, 12, 6, 2, 3, 2], [true, true, true, false, true, false]);
    let fugaku = crate::faults::fugaku_topo();
    // Two networks over the same topology: one left table-less so
    // `path_cost` runs the pre-change direct computation, one with the
    // memoized table the production path uses.
    let direct = Network::new(TofuD::cte_arm(), LinkModel::tofud());
    let cached = Network::new(TofuD::cte_arm(), LinkModel::tofud());
    cached.routing_table();
    // The last timed build is kept for its footprint, so the snapshot
    // never pays one more, untimed build just to read `memory_bytes`.
    let mut folded = None;
    let folded_build_ms = calibrated_best(|| {
        folded = Some(std::hint::black_box(FoldedTable::build(&fugaku)));
    }) * 1e3;
    let folded_table_bytes = folded
        .expect("calibrated_best runs its closure")
        .memory_bytes();
    NetworkBench {
        route_topology: topo_label(&small),
        routes_per_sec: bench_resolve_rate(&cached),
        baseline_routes_per_sec: bench_resolve_rate(&direct),
        route_enum_per_sec: bench_route_enum_rate(&small),
        table_build_us: bench_table_build(&small),
        sweep_topology: topo_label(&big),
        sweep_ms_1t: bench_sweep(&big, 1),
        sweep_ms_nt: bench_sweep(&big, pool_threads),
        folded_topology: topo_label(&fugaku),
        folded_routes_per_sec: bench_folded_resolve_rate(&small),
        folded_build_ms,
        folded_table_bytes,
        sweep_10k_topology: topo_label(&tenk),
        sweep_10k_closed_ms: bench_closed_sweep(&tenk),
        fugaku_sweep_closed_ms: bench_closed_sweep(&fugaku),
    }
}

/// Measure the structure-aware HPCG engine on a 32³ grid: both SpMV
/// formats (same operator, same flops — only the stored format differs),
/// both SymGS smoothers, and the 4-level V-cycle at 1 worker vs. the pool.
pub fn run_hpcg_bench(pool_threads: usize) -> HpcgBench {
    let (nx, ny, nz) = (32, 32, 32);
    let csr = build_hpcg_matrix(nx, ny, nz);
    let st = StencilMatrix::hpcg(nx, ny, nz);
    let n = st.n;
    let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
    let b = vec![1.0; n];
    let mut y = vec![0.0; n];

    let spmv_csr_secs = with_pool(pool_threads, || calibrated_best(|| csr.spmv(&x, &mut y)));
    let spmv_st_secs = with_pool(pool_threads, || calibrated_best(|| st.spmv(&x, &mut y)));
    let flops = (2 * csr.nnz()) as f64;

    // Sweeps/s: the sequential lexicographic oracle vs. the parallel
    // multicolor smoother (same operator; the guess vector lives outside
    // the timed region and per-sweep cost is value-independent).
    let mut xs = vec![0.0; n];
    let symgs_seq_secs = calibrated_best(|| symgs(&csr, &b, &mut xs));
    xs.fill(0.0);
    let symgs_col_secs = with_pool(pool_threads, || {
        calibrated_best(|| st.symgs_colored(&b, &mut xs))
    });

    let h = MgHierarchy::build(nx, ny, nz, 4);
    let mut xv = vec![0.0; n];
    let mut vcycle_ms = |threads: usize| {
        with_pool(threads, || {
            calibrated_best(|| {
                xv.fill(0.0);
                h.v_cycle(&b, &mut xv);
            }) * 1e3
        })
    };
    let vcycle_ms_1t = vcycle_ms(1);
    let vcycle_ms_nt = vcycle_ms(pool_threads);

    HpcgBench {
        grid: format!("{nx}x{ny}x{nz}"),
        spmv_csr_gflops: flops / spmv_csr_secs / 1e9,
        spmv_csr_gbs_dram_floor: spmv_csr_bytes(n, csr.nnz()) / spmv_csr_secs / 1e9,
        spmv_csr_gbs_moved: spmv_csr_moved_bytes(n, csr.nnz()) / spmv_csr_secs / 1e9,
        spmv_stencil_gflops: flops / spmv_st_secs / 1e9,
        spmv_stencil_gbs_dram_floor: spmv_stencil_bytes(n) / spmv_st_secs / 1e9,
        spmv_stencil_gbs_moved: spmv_stencil_moved_bytes(n) / spmv_st_secs / 1e9,
        symgs_seq_sweeps_per_sec: 1.0 / symgs_seq_secs,
        symgs_colored_sweeps_per_sec: 1.0 / symgs_col_secs,
        vcycle_ms_1t,
        vcycle_ms_nt,
    }
}

/// Measure the six host kernels at 1 thread and at `pool_threads`.
///
/// Factored out of [`run_host_bench`] so the `bench-delta` regression
/// gate can run just the kernel rows (twice, cheaply) without paying for
/// the network and HPCG sections.
pub fn run_kernel_benches(pool_threads: usize) -> Vec<KernelBench> {
    let runs: Vec<(&'static str, &'static str, String, BenchFn)> = vec![
        (
            "stream_triad",
            "GB/s",
            "n=2000000 f64 elements".into(),
            bench_stream,
        ),
        (
            "gemm_blocked",
            "GFLOP/s",
            "192x192x192 packed tiles".into(),
            bench_gemm,
        ),
        (
            "spmv_csr",
            "GFLOP/s",
            "HPCG 24x24x24 27-point, 20 reps".into(),
            bench_spmv,
        ),
        (
            "spmv_stencil",
            "GFLOP/s",
            "HPCG 24x24x24 stencil-packed, 20 reps".into(),
            bench_spmv_stencil,
        ),
        (
            "stencil_ocean",
            "GB/s",
            "512x256 shallow-water, 10 steps".into(),
            bench_stencil,
        ),
        (
            "md_forces",
            "GFLOP/s",
            "1728 LJ particles, cell list".into(),
            bench_md,
        ),
    ];
    runs.into_iter()
        .map(|(name, metric, size, f)| {
            let value_1t = f(1);
            // On a 1-wide pool the "N-thread" leg is the same measurement;
            // skip the duplicate run (the JSON suppresses the column too).
            let value_nt = if pool_threads > 1 {
                f(pool_threads)
            } else {
                value_1t
            };
            KernelBench {
                name,
                metric,
                size,
                value_1t,
                value_nt,
            }
        })
        .collect()
}

/// Measure every kernel at 1 thread and at the configured pool width.
pub fn run_host_bench() -> HostBench {
    let pool_threads = rayon::current_num_threads();
    let detected_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let rayon_threads_env = std::env::var("RAYON_NUM_THREADS").ok();
    if pool_threads > detected_cores {
        eprintln!(
            "warning: pool of {pool_threads} threads oversubscribes the \
             {detected_cores} detected core(s); N-thread numbers will be noisy"
        );
    }
    HostBench {
        detected_cores,
        pool_threads,
        rayon_threads_env,
        kernels: run_kernel_benches(pool_threads),
        network: run_network_bench(pool_threads),
        hpcg: run_hpcg_bench(pool_threads),
    }
}

impl HostBench {
    /// Write the snapshot's `host`, `kernels`, `hpcg` and `network` members.
    /// A 1-wide pool has no distinct N-thread leg: no N-thread columns, and
    /// `null` speedups.
    pub(crate) fn write_json(&self, w: &mut Writer) {
        let pool = self.pool_threads;
        let wide = pool > 1;
        w.key("host").obj(|w| {
            w.key("detected_cores").uint(self.detected_cores as u64);
            w.key("pool_threads").uint(pool as u64);
            match &self.rayon_threads_env {
                Some(v) => w.key("rayon_num_threads_env").str(v),
                None => w.key("rayon_num_threads_env").null(),
            }
        });
        w.key("kernels").arr(|w| {
            for k in &self.kernels {
                w.obj(|w| {
                    w.key("name").str(k.name);
                    w.key("metric").str(k.metric);
                    w.key("size").str(&k.size);
                    w.key("value_1_thread").fixed(k.value_1t, 3);
                    if wide {
                        w.key(&format!("value_{pool}_threads")).fixed(k.value_nt, 3);
                        w.key("speedup").fixed(k.speedup(), 3);
                    } else {
                        w.key("speedup").null();
                    }
                });
            }
        });
        let hp = &self.hpcg;
        w.key("hpcg").obj(|w| {
            w.key("grid").str(&hp.grid);
            w.key("spmv_csr_gflops").fixed(hp.spmv_csr_gflops, 3);
            w.key("spmv_csr_gbs_dram_floor")
                .fixed(hp.spmv_csr_gbs_dram_floor, 3);
            w.key("spmv_csr_gbs_moved").fixed(hp.spmv_csr_gbs_moved, 3);
            w.key("spmv_stencil_gflops")
                .fixed(hp.spmv_stencil_gflops, 3);
            w.key("spmv_stencil_gbs_dram_floor")
                .fixed(hp.spmv_stencil_gbs_dram_floor, 3);
            w.key("spmv_stencil_gbs_moved")
                .fixed(hp.spmv_stencil_gbs_moved, 3);
            w.key("spmv_format_speedup")
                .fixed(hp.spmv_format_speedup(), 3);
            w.key("symgs_seq_sweeps_per_sec")
                .fixed(hp.symgs_seq_sweeps_per_sec, 1);
            w.key("symgs_colored_sweeps_per_sec")
                .fixed(hp.symgs_colored_sweeps_per_sec, 1);
            w.key("symgs_speedup").fixed(hp.symgs_speedup(), 3);
            w.key("vcycle_wall_ms_1_thread").fixed(hp.vcycle_ms_1t, 2);
            if wide {
                w.key(&format!("vcycle_wall_ms_{pool}_threads"))
                    .fixed(hp.vcycle_ms_nt, 2);
                w.key("vcycle_speedup").fixed(hp.vcycle_speedup(), 3);
            } else {
                w.key("vcycle_speedup").null();
            }
        });
        let nw = &self.network;
        w.key("network").obj(|w| {
            w.key("route_topology").str(&nw.route_topology);
            w.key("routes_per_sec").fixed(nw.routes_per_sec, 0);
            w.key("baseline_routes_per_sec")
                .fixed(nw.baseline_routes_per_sec, 0);
            w.key("resolve_speedup").fixed(nw.resolve_speedup(), 3);
            w.key("route_enum_per_sec").fixed(nw.route_enum_per_sec, 0);
            w.key("table_build_us").fixed(nw.table_build_us, 1);
            w.key("sweep_topology").str(&nw.sweep_topology);
            w.key("sweep_wall_ms_1_thread").fixed(nw.sweep_ms_1t, 1);
            if wide {
                w.key(&format!("sweep_wall_ms_{pool}_threads"))
                    .fixed(nw.sweep_ms_nt, 1);
                w.key("sweep_speedup").fixed(nw.sweep_speedup(), 3);
            } else {
                w.key("sweep_speedup").null();
            }
            w.key("folded_topology").str(&nw.folded_topology);
            w.key("folded_routes_per_sec")
                .fixed(nw.folded_routes_per_sec, 0);
            w.key("folded_build_ms").fixed(nw.folded_build_ms, 1);
            w.key("folded_table_bytes")
                .uint(nw.folded_table_bytes as u64);
            w.key("sweep_10k_topology").str(&nw.sweep_10k_topology);
            w.key("sweep_10k_closed_ms")
                .fixed(nw.sweep_10k_closed_ms, 2);
            w.key("fugaku_sweep_closed_ms")
                .fixed(nw.fugaku_sweep_closed_ms, 2);
        });
    }
}

/// Write the `cache` array: predicted DRAM traffic and %-of-peak per
/// cache-model registry kernel. Deterministic — no host measurement.
pub(crate) fn write_cache_rows(w: &mut Writer, rows: &[(CacheModelEntry, Prediction)]) {
    w.arr(|w| {
        for (e, p) in rows {
            w.obj(|w| {
                w.key("kernel").str(e.key);
                w.key("dram_bytes").uint(p.sim.dram_bytes());
                w.key("nominal_bytes").uint(p.sim.nominal_bytes);
                w.key("pct_peak_flops").fixed(p.pct_peak_flops, 4);
                w.key("pct_peak_bw").fixed(p.pct_peak_bw, 4);
                w.key("bound").str(&p.bound);
            });
        }
    });
}

/// Render the `bench-all --json` snapshot (the `BENCH_host.json` format),
/// sections in the order host, kernels, hpcg, network, cache (the rows of
/// [`crate::cachemodel::predict_all`]), serve, sched.
pub fn snapshot_json(
    host: &HostBench,
    cache: &[(CacheModelEntry, Prediction)],
    serve: &ServeBench,
    sched: &SchedBench,
) -> String {
    let mut w = Writer::pretty();
    w.obj(|w| {
        host.write_json(w);
        write_cache_rows(w.key("cache"), cache);
        w.key("serve").obj(|w| serve.write_json(w));
        w.key("sched").obj(|w| sched.write_json(w));
    });
    w.finish() + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use simkit::cache::TierCounters;

    /// The host half of the snapshot as one document.
    fn render(hb: &HostBench) -> String {
        let mut w = Writer::pretty();
        w.obj(|w| hb.write_json(w));
        w.finish()
    }

    fn sample_host() -> HostBench {
        HostBench {
            detected_cores: 4,
            pool_threads: 4,
            rayon_threads_env: None,
            kernels: vec![],
            network: sample_network(),
            hpcg: sample_hpcg(),
        }
    }

    /// The full snapshot around the sample sections, without cache rows.
    fn sample_snapshot() -> String {
        snapshot_json(&sample_host(), &[], &sample_serve(), &sample_sched())
    }

    fn sample_network() -> NetworkBench {
        NetworkBench {
            route_topology: "TofuD [4, 2, 2, 2, 3, 2] (192 nodes)".into(),
            routes_per_sec: 5.0e7,
            baseline_routes_per_sec: 1.0e7,
            route_enum_per_sec: 2.0e7,
            table_build_us: 120.0,
            sweep_topology: "TofuD [8, 4, 4, 2, 3, 2] (1536 nodes)".into(),
            sweep_ms_1t: 200.0,
            sweep_ms_nt: 50.0,
            folded_topology: "TofuD [24, 23, 24, 2, 3, 2] (158976 nodes)".into(),
            folded_routes_per_sec: 1.5e9,
            folded_build_ms: 40.0,
            folded_table_bytes: 9_582_978,
            sweep_10k_topology: "TofuD [12, 12, 6, 2, 3, 2] (10368 nodes)".into(),
            sweep_10k_closed_ms: 1.25,
            fugaku_sweep_closed_ms: 18.5,
        }
    }

    fn sample_hpcg() -> HpcgBench {
        HpcgBench {
            grid: "32x32x32".into(),
            spmv_csr_gflops: 2.0,
            spmv_csr_gbs_dram_floor: 18.0,
            spmv_csr_gbs_moved: 26.0,
            spmv_stencil_gflops: 6.0,
            spmv_stencil_gbs_dram_floor: 3.0,
            spmv_stencil_gbs_moved: 42.0,
            symgs_seq_sweeps_per_sec: 100.0,
            symgs_colored_sweeps_per_sec: 250.0,
            vcycle_ms_1t: 40.0,
            vcycle_ms_nt: 10.0,
        }
    }

    #[test]
    fn json_shape_is_well_formed() {
        let hb = HostBench {
            detected_cores: 4,
            pool_threads: 4,
            rayon_threads_env: None,
            kernels: vec![KernelBench {
                name: "stream_triad",
                metric: "GB/s",
                size: "n=10".into(),
                value_1t: 10.0,
                value_nt: 30.0,
            }],
            network: sample_network(),
            hpcg: sample_hpcg(),
        };
        let j = render(&hb);
        assert!(j.contains("\"detected_cores\": 4"));
        assert!(j.contains("\"rayon_num_threads_env\": null"));
        assert!(j.contains("\"value_4_threads\": 30.000"));
        assert!(j.contains("\"speedup\": 3.000"));
        assert!(j.contains("\"routes_per_sec\": 50000000"));
        assert!(j.contains("\"baseline_routes_per_sec\": 10000000"));
        assert!(j.contains("\"resolve_speedup\": 5.000"));
        assert!(j.contains("\"route_enum_per_sec\": 20000000"));
        assert!(j.contains("\"sweep_wall_ms_4_threads\": 50.0"));
        assert!(j.contains("\"sweep_speedup\": 4.000"));
        assert!(j.contains("\"folded_routes_per_sec\": 1500000000"));
        assert!(j.contains("\"folded_build_ms\": 40.0"));
        assert!(j.contains("\"folded_table_bytes\": 9582978"));
        assert!(j.contains("\"sweep_10k_closed_ms\": 1.25"));
        assert!(j.contains("\"fugaku_sweep_closed_ms\": 18.50"));
        assert!(j.contains("\"hpcg\": {"));
        assert!(j.contains("\"grid\": \"32x32x32\""));
        assert!(j.contains("\"spmv_csr_gbs_dram_floor\": 18.000"));
        assert!(j.contains("\"spmv_csr_gbs_moved\": 26.000"));
        assert!(j.contains("\"spmv_stencil_gbs_dram_floor\": 3.000"));
        assert!(j.contains("\"spmv_stencil_gbs_moved\": 42.000"));
        assert!(j.contains("\"spmv_format_speedup\": 3.000"));
        assert!(j.contains("\"symgs_speedup\": 2.500"));
        assert!(j.contains("\"vcycle_wall_ms_4_threads\": 10.00"));
        assert!(j.contains("\"vcycle_speedup\": 4.000"));
        let v = json::parse(&j).expect("valid JSON");
        for section in ["host", "kernels", "hpcg", "network"] {
            assert!(v.get(section).is_some(), "missing {section}");
        }
    }

    #[test]
    fn single_thread_pool_suppresses_speedup_columns() {
        // Regression for the committed 1-core snapshot: the JSON printed
        // `value_1_thread` AND `value_1_threads` per kernel plus a
        // "speedup" that was pure measurement noise. A 1-wide pool must
        // emit one value column and null ratios.
        let hb = HostBench {
            detected_cores: 1,
            pool_threads: 1,
            rayon_threads_env: None,
            kernels: vec![KernelBench {
                name: "stream_triad",
                metric: "GB/s",
                size: "n=10".into(),
                value_1t: 10.0,
                value_nt: 10.0,
            }],
            network: sample_network(),
            hpcg: sample_hpcg(),
        };
        let j = render(&hb);
        assert!(j.contains("\"value_1_thread\": 10.000"));
        assert!(!j.contains("\"value_1_threads\""));
        assert!(j.contains("\"speedup\": null"));
        assert!(!j.contains("\"vcycle_wall_ms_1_threads\""));
        assert!(j.contains("\"vcycle_speedup\": null"));
        assert!(!j.contains("\"sweep_wall_ms_1_threads\""));
        assert!(j.contains("\"sweep_speedup\": null"));
        // The scale rows are thread-count-independent and stay.
        assert!(j.contains("\"folded_table_bytes\": 9582978"));
        let v = json::parse(&j).expect("valid JSON");
        let kernel = &v.get("kernels").unwrap().as_array().unwrap()[0];
        assert_eq!(kernel.get("speedup"), Some(&Value::Null));
    }

    #[test]
    fn rayon_env_override_is_quoted() {
        let mut hb = HostBench {
            detected_cores: 8,
            pool_threads: 2,
            rayon_threads_env: Some("2".into()),
            kernels: vec![],
            network: sample_network(),
            hpcg: sample_hpcg(),
        };
        assert!(render(&hb).contains("\"rayon_num_threads_env\": \"2\""));
        // The variable is recorded verbatim, so a hostile value must be
        // escaped, not break the document.
        let hostile = "2\" \\ \"x";
        hb.rayon_threads_env = Some(hostile.into());
        let v = json::parse(&render(&hb)).expect("valid JSON");
        let env = v.get("host").and_then(|h| h.get("rayon_num_threads_env"));
        assert_eq!(env.and_then(Value::as_str), Some(hostile));
    }

    #[test]
    fn hpcg_ratios_handle_zero_denominators() {
        let mut hp = sample_hpcg();
        assert_eq!(hp.spmv_format_speedup(), 3.0);
        assert_eq!(hp.symgs_speedup(), 2.5);
        assert_eq!(hp.vcycle_speedup(), 4.0);
        hp.spmv_csr_gflops = 0.0;
        hp.symgs_seq_sweeps_per_sec = 0.0;
        hp.vcycle_ms_nt = 0.0;
        assert_eq!(hp.spmv_format_speedup(), 0.0);
        assert_eq!(hp.symgs_speedup(), 0.0);
        assert_eq!(hp.vcycle_speedup(), 0.0);
    }

    #[test]
    fn sweep_speedup_handles_zero_denominator() {
        let mut nw = sample_network();
        assert_eq!(nw.sweep_speedup(), 4.0);
        nw.sweep_ms_nt = 0.0;
        assert_eq!(nw.sweep_speedup(), 0.0);
    }

    #[test]
    fn resolve_speedup_handles_zero_baseline() {
        let mut nw = sample_network();
        assert_eq!(nw.resolve_speedup(), 5.0);
        nw.baseline_routes_per_sec = 0.0;
        assert_eq!(nw.resolve_speedup(), 0.0);
    }

    #[test]
    fn spmv_moved_gbs_is_format_comparable() {
        // Regression for the old report: dividing the stencil kernel's
        // time by its tiny model-byte count printed ~1 GB/s against CSR's
        // ~17 GB/s for a *faster* kernel. The moved-byte columns must put
        // both formats in the same band.
        let hp = run_hpcg_bench(2);
        assert!(
            hp.spmv_stencil_gflops > 0.0 && hp.spmv_csr_gflops > 0.0,
            "bench must produce nonzero rates"
        );
        let ratio = hp.spmv_stencil_gbs_moved / hp.spmv_csr_gbs_moved;
        assert!(
            ratio > 0.2 && ratio < 5.0,
            "moved-GB/s ratio stencil/CSR out of band: {ratio}"
        );
        // The faster format must never report less moved traffic per
        // second than it reports arithmetic — sanity tie between columns.
        assert!(hp.spmv_stencil_gbs_moved > hp.spmv_stencil_gbs_dram_floor);
    }

    fn sample_serve() -> ServeBench {
        let tiers = |mem_hits, disk_hits, misses| TierCounters {
            mem_hits,
            disk_hits,
            misses,
        };
        ServeBench {
            requests: 10,
            jobs: 2,
            replay: ReplayReport {
                cold_ms: 800.0,
                warm_ms: 2.0,
                cold: tiers(5, 0, 45),
                warm: tiers(5, 45, 0),
            },
            inflight_dedupe_misses: 1,
        }
    }

    #[test]
    fn serve_section_carries_every_key() {
        let s = sample_snapshot();
        for key in [
            "\"serve\": {",
            "\"batch\": \"tests/data/serve_batch_50.jsonl\"",
            "\"requests\": 10",
            "\"queries\": 50",
            "\"jobs\": 2",
            "\"cold_batch_ms\": 800.00",
            "\"warm_batch_ms\": 2.00",
            "\"warm_speedup\": 400.0",
            "\"cold_misses\": 45",
            "\"warm_disk_hits\": 45",
            "\"warm_mem_hits\": 5",
            "\"warm_misses\": 0",
            "\"inflight_dedupe_misses\": 1",
        ] {
            assert!(s.contains(key), "serve section missing {key}:\n{s}");
        }
        let v = json::parse(&s).expect("valid JSON");
        let serve = v.get("serve").expect("serve section");
        assert_eq!(
            serve.get("warm_speedup").and_then(Value::as_f64),
            Some(400.0)
        );
    }

    #[test]
    fn serve_section_splices_into_the_snapshot() {
        // One document, its sections in the committed snapshot's order.
        let j = sample_snapshot();
        assert!(j.ends_with("}\n"));
        json::parse(&j).expect("valid JSON");
        let at = |section: &str| {
            j.find(&format!("\n  \"{section}\": "))
                .unwrap_or_else(|| panic!("no top-level {section}"))
        };
        let order = [
            "host", "kernels", "hpcg", "network", "cache", "serve", "sched",
        ]
        .map(at);
        assert!(order.windows(2).all(|p| p[0] < p[1]), "{order:?}");
    }

    #[test]
    fn warm_speedup_handles_zero_denominator() {
        let mut s = sample_serve();
        assert_eq!(s.warm_speedup(), 400.0);
        s.replay.warm_ms = 0.0;
        assert_eq!(s.warm_speedup(), 0.0);
    }

    #[test]
    fn serve_bench_measures_the_canned_batch() {
        // The real thing, at jobs=2: the warm replay must be engine-free
        // and the duplicate pair must cost one miss.
        let sb = run_serve_bench(2);
        let r = &sb.replay;
        assert_eq!((sb.requests, r.cold.total()), (10, 50));
        assert_eq!(r.cold.misses, 45, "unique-query count drifted");
        assert_eq!(r.warm.misses, 0, "warm replay reached the engine");
        assert!(r.warm.disk_hits > 0, "warm replay never touched the store");
        assert_eq!(sb.inflight_dedupe_misses, 1, "single-flight dedupe broke");
        assert!(r.cold_ms > 0.0 && r.warm_ms > 0.0);
    }

    fn sample_sched() -> SchedBench {
        SchedBench {
            machine: "fugaku".into(),
            nodes: 158_976,
            days: 3,
            jobs_per_day: 40_000,
            jobs: 120_000,
            wall_s: 2.5,
            jobs_per_sec: 48_000.0,
            makespan_s: 262_000.0,
            utilization: 0.71,
            mean_wait_s: 310.0,
            mean_compactness: 5.125,
        }
    }

    #[test]
    fn sched_section_carries_every_key() {
        let s = sample_snapshot();
        for key in [
            "\"sched\": {",
            "\"machine\": \"fugaku\"",
            "\"nodes\": 158976",
            "\"days\": 3",
            "\"jobs_per_day\": 40000",
            "\"jobs\": 120000",
            "\"wall_s\": 2.500",
            "\"jobs_per_sec\": 48000",
            "\"makespan_s\": 262000",
            "\"utilization\": 0.7100",
            "\"mean_wait_s\": 310.0",
            "\"mean_compactness\": 5.125",
        ] {
            assert!(s.contains(key), "sched section missing {key}:\n{s}");
        }
        let v = json::parse(&s).expect("valid JSON");
        let sched = v.get("sched").expect("sched section");
        assert_eq!(sched.get("machine").and_then(Value::as_str), Some("fugaku"));
    }

    #[test]
    fn sched_section_splices_next_to_serve() {
        // cache, serve and sched are siblings of the host sections.
        let v = json::parse(&sample_snapshot()).expect("valid JSON");
        assert_eq!(
            v.get("cache").and_then(Value::as_array).map(<[_]>::len),
            Some(0)
        );
        assert!(v.get("serve").and_then(|s| s.get("jobs")).is_some());
        assert!(v.get("sched").and_then(|s| s.get("jobs")).is_some());
    }

    #[test]
    fn speedup_handles_zero_baseline() {
        let k = KernelBench {
            name: "x",
            metric: "GB/s",
            size: String::new(),
            value_1t: 0.0,
            value_nt: 5.0,
        };
        assert_eq!(k.speedup(), 0.0);
    }
}
