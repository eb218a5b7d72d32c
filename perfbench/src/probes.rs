//! Outside-in layer probes: each layer's public functions called directly
//! at the sizes the workloads use. Every probe reports calls made, busy
//! time and time per call (on standard error); the time per call is the
//! per-layer metric.

use crate::{Args, Metrics, TempDir};
use apps::common::{AppRun, Cluster, JobHandle};
use arch::cost::{CostModel, KernelProfile};
use interconnect::link::LinkModel;
use interconnect::network::Network;
use interconnect::tofu::TofuD;
use interconnect::topology::{NodeId, Topology};
use mpisim::job::Job;
use mpisim::layout::JobLayout;
use sched::{AllocationPolicy, Allocator, ReplaySpec};
use simkit::cache::CacheKey;
use simkit::rng::Pcg32;
use simkit::store::Store;
use simkit::units::{Bytes, Time};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Busy time a fast probe accumulates before it stops.
const BUDGET: Duration = Duration::from_millis(60);
/// CTE-Arm nodes the 192-node probes use (the whole machine).
const NODES: usize = 192;
/// Ranks per node of the Alya-style layouts (one per A64FX core).
const RANKS_PER_NODE: usize = 48;
/// Records the store probe writes.
const STORE_RECORDS: usize = 1024;
/// Job sizes the allocator probe replays.
const SCHED_JOBS: usize = 4000;

/// Calls made and time spent by one probe.
#[derive(Debug, Clone, Copy, Default)]
struct Probe {
    calls: u64,
    busy: Duration,
}

impl Probe {
    fn per_call_s(&self) -> f64 {
        self.busy.as_secs_f64() / self.calls.max(1) as f64
    }

    fn add(&mut self, t0: Instant) {
        self.busy += t0.elapsed();
        self.calls += 1;
    }
}

/// Call `f` in growing batches until at least `min_calls` calls and
/// [`BUDGET`] of busy time; timing whole batches keeps clock reads out of
/// nanosecond-scale calls.
fn time<R>(min_calls: u64, mut f: impl FnMut() -> R) -> Probe {
    let mut p = Probe::default();
    let mut batch = 1u64;
    while p.calls < min_calls || p.busy < BUDGET {
        let t0 = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        p.busy += t0.elapsed();
        p.calls += batch;
        if p.busy < BUDGET / 8 {
            batch *= 2;
        }
    }
    p
}

struct Table(Vec<(&'static str, Probe, f64, &'static str)>);

impl Table {
    /// Record a probe and set `metric` to its time per call in `unit`.
    fn put(&mut self, m: &mut Metrics, metric: &'static str, unit: &'static str, p: Probe) {
        let scale = match unit {
            "s" => 1.0,
            "ms" => 1e3,
            "us" => 1e6,
            "ns" => 1e9,
            other => unreachable!("unit {other}"),
        };
        let v = p.per_call_s() * scale;
        m.set(metric, v);
        self.0.push((metric, p, v, unit));
    }
}

fn apps_probes(m: &mut Metrics, t: &mut Table) {
    let c = Cluster::CteArm;
    let alya = apps::alya::Alya::test_case_b();
    t.put(
        m,
        "apps.alya_192_ms",
        "ms",
        time(2, || black_box(&alya).simulate(c, black_box(NODES))),
    );
    let nemo = apps::nemo::Nemo::bench_orca1();
    t.put(
        m,
        "apps.nemo_192_ms",
        "ms",
        time(2, || black_box(&nemo).simulate(c, black_box(NODES))),
    );
    let wrf = apps::wrf::Wrf::iberia_4km();
    t.put(
        m,
        "apps.wrf_192_ms",
        "ms",
        time(2, || black_box(&wrf).simulate(c, black_box(NODES), false)),
    );
    let ifs = apps::openifs::OpenIfs::tc0511l91();
    t.put(
        m,
        "apps.openifs_192_ms",
        "ms",
        time(2, || black_box(&ifs).simulate(c, black_box(NODES))),
    );
    let gmx = apps::gromacs::Gromacs::lignocellulose_rf();
    t.put(
        m,
        "apps.gromacs_192_ms",
        "ms",
        time(2, || black_box(&gmx).simulate(c, black_box(NODES))),
    );
    let machine = c.machine();
    let link = LinkModel::tofud();
    let cfg = hpl::paper_config(&machine, NODES);
    t.put(
        m,
        "hpl.simulate_us",
        "us",
        time(2, || {
            hpl::simulate(
                black_box(&machine),
                &link,
                black_box(NODES),
                black_box(&cfg),
            )
        }),
    );
    let cfg = hpcg::HpcgConfig::paper(hpcg::HpcgVersion::Optimized);
    t.put(
        m,
        "hpcg.simulate_us",
        "us",
        time(2, || {
            hpcg::simulate(black_box(&machine), black_box(NODES), black_box(&cfg))
        }),
    );
}

/// An Alya-assembly-sized per-rank chunk.
fn chunk() -> KernelProfile {
    KernelProfile::dp("probe-assembly", 2.0e8, 1.5e8).with_vectorizable(0.97)
}

fn mpisim_arch_probes(m: &mut Metrics, t: &mut Table) {
    let machine = Cluster::CteArm.machine();
    let compiler = Cluster::CteArm.app_compiler(false);
    let net = Network::new(TofuD::cte_arm(), LinkModel::tofud());
    let layout = |nodes: usize| {
        JobLayout::new(
            (0..nodes).map(NodeId).collect(),
            RANKS_PER_NODE,
            1,
            machine.memory.n_domains,
            machine.cores_per_node(),
        )
    };
    let (small, large) = (layout(16), layout(NODES));
    let profile = chunk();
    let new_job = || Job::new(&machine, &compiler, &net, large.clone(), 17);
    t.put(m, "mpisim.job_new_us", "us", time(3, new_job));
    let mut job = Job::new(&machine, &compiler, &net, small.clone(), 17);
    t.put(
        m,
        "mpisim.compute_us_768r",
        "us",
        time(3, || job.compute(&profile)),
    );
    let mut job = new_job();
    t.put(
        m,
        "mpisim.compute_us_9216r",
        "us",
        time(3, || job.compute(&profile)),
    );
    let bytes = Bytes::new(16.0);
    t.put(
        m,
        "mpisim.allreduce_us_9216r",
        "us",
        time(3, || job.allreduce(black_box(bytes))),
    );
    let halo = Bytes::new(20_000.0);
    t.put(
        m,
        "mpisim.halo_us_9216r",
        "us",
        time(3, || JobHandle::halo(&mut job, 10, halo)),
    );

    let cm = CostModel::new(&machine.core, &machine.memory, &compiler);
    let active = small.active_cores_per_node();
    t.put(
        m,
        "arch.chunk_time_ns",
        "ns",
        time(3, || cm.chunk_time(black_box(&profile), black_box(active))),
    );
}

fn interconnect_probes(seed: u64, m: &mut Metrics, t: &mut Table) {
    // A fresh network prices paths by direct routing, as every app job does.
    let net = Network::new(TofuD::cte_arm(), LinkModel::tofud());
    let mut rng = Pcg32::seeded(seed);
    let pairs: Vec<(NodeId, NodeId)> = (0..1024)
        .map(|_| {
            let a = rng.next_below(NODES as u32) as usize;
            let b = rng.next_below(NODES as u32) as usize;
            (NodeId(a), NodeId(b))
        })
        .collect();
    let mut i = 0;
    let mut next = || {
        i = (i + 1) % pairs.len();
        pairs[i]
    };
    t.put(
        m,
        "interconnect.path_cost_ns",
        "ns",
        time(3, || {
            let (a, b) = next();
            net.path_cost(a, b)
        }),
    );
    let bytes = Bytes::new(256.0);
    t.put(
        m,
        "interconnect.message_time_ns",
        "ns",
        time(3, || {
            let (a, b) = next();
            net.message_time(a, b, bytes)
        }),
    );
    t.put(
        m,
        "interconnect.bandwidth_map_ms",
        "ms",
        time(2, || {
            let net = Network::new(TofuD::cte_arm(), LinkModel::tofud());
            net.pairwise_bandwidth_map(bytes, &mut Pcg32::seeded(seed))
        }),
    );
}

fn store_probes(m: &mut Metrics, t: &mut Table) -> Result<(), String> {
    let dir = TempDir::new("probe-store")?;
    let store = Store::open(&dir.0, 0x5eed).map_err(|e| format!("probe store: {e}"))?;
    let keys: Vec<CacheKey> = (0..STORE_RECORDS)
        .map(|i| CacheKey::new("CTE-Arm", "probe", format!("nodes={i}")))
        .collect();
    let value = AppRun {
        elapsed: Time::seconds(1.25),
        phases: vec![
            ("assembly".into(), Time::seconds(0.5)),
            ("solver".into(), Time::seconds(0.75)),
        ],
    };
    let mut put = Probe::default();
    for key in &keys {
        let t0 = Instant::now();
        store
            .put(key, &value)
            .map_err(|e| format!("probe store put: {e}"))?;
        put.add(t0);
    }
    t.put(m, "store.put_us", "us", put);
    let mut i = 0;
    let get = time(3, || {
        i = (i + 7) % keys.len();
        store.get::<AppRun>(&keys[i]).expect("probe key was put")
    });
    t.put(m, "store.get_us", "us", get);
    Ok(())
}

fn sched_probes(seed: u64, m: &mut Metrics, t: &mut Table) {
    let topo = cluster_eval::schedreplay::machine_topo("fugaku").expect("fugaku");
    let sizes: Vec<usize> = ReplaySpec::new(topo.nodes(), 1, crate::replay::JOBS_PER_DAY)
        .generate(seed)
        .iter()
        .take(SCHED_JOBS)
        .map(|j| j.nodes)
        .collect();
    let mut alloc = Allocator::new(topo, AllocationPolicy::BestFitContiguous, seed);
    let (mut a, mut r, mut c) = (Probe::default(), Probe::default(), Probe::default());
    let mut held: VecDeque<Vec<NodeId>> = VecDeque::new();
    for &n in &sizes {
        loop {
            let t0 = Instant::now();
            let got = alloc.allocate(n);
            a.add(t0);
            if let Some(nodes) = got {
                let t0 = Instant::now();
                black_box(alloc.compactness(&nodes));
                c.add(t0);
                held.push_back(nodes);
                break;
            }
            let oldest = held.pop_front().expect("an empty machine fits any job");
            let t0 = Instant::now();
            alloc.release(&oldest);
            r.add(t0);
        }
    }
    for nodes in held {
        let t0 = Instant::now();
        alloc.release(&nodes);
        r.add(t0);
    }
    t.put(m, "sched.allocate_us", "us", a);
    t.put(m, "sched.release_us", "us", r);
    t.put(m, "sched.compactness_us", "us", c);
}

/// Run every probe and set its metric.
pub fn run_all(args: &Args, m: &mut Metrics) -> Result<(), String> {
    let mut t = Table(Vec::new());
    apps_probes(m, &mut t);
    mpisim_arch_probes(m, &mut t);
    interconnect_probes(args.seed, m, &mut t);
    store_probes(m, &mut t)?;
    sched_probes(args.seed, m, &mut t);
    eprintln!("layer probes:");
    eprintln!(
        "  {:<32} {:>10} {:>10} {:>14}",
        "probe", "calls", "busy_ms", "per_call"
    );
    for (name, p, v, unit) in &t.0 {
        eprintln!(
            "  {name:<32} {:>10} {:>10.2} {:>11.3} {unit}",
            p.calls,
            p.busy.as_secs_f64() * 1e3,
            v
        );
    }
    Ok(())
}
