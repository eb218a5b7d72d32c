//! Shared infrastructure for the application studies.

use arch::compiler::Compiler;
use arch::machines::{cte_arm, marenostrum4, Machine};
use interconnect::fattree::FatTree;
use interconnect::link::LinkModel;
use interconnect::network::Network;
use interconnect::tofu::TofuD;
use interconnect::topology::NodeId;
use mpisim::job::Job;
use mpisim::layout::JobLayout;
use simkit::units::Time;

/// Which cluster an application run targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cluster {
    /// CTE-Arm (A64FX, TofuD, GNU toolchain).
    CteArm,
    /// MareNostrum 4 (Skylake, OmniPath, Intel toolchain).
    MareNostrum4,
}

impl Cluster {
    /// Both clusters, CTE-Arm first (plot order).
    pub const BOTH: [Cluster; 2] = [Cluster::CteArm, Cluster::MareNostrum4];

    /// The machine description.
    pub fn machine(self) -> Machine {
        match self {
            Cluster::CteArm => cte_arm(),
            Cluster::MareNostrum4 => marenostrum4(),
        }
    }

    /// Display name as used in the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            Cluster::CteArm => "CTE-Arm",
            Cluster::MareNostrum4 => "MareNostrum 4",
        }
    }

    /// The toolchain the paper ended up using on this cluster (Section V:
    /// the Fujitsu compiler failed on the applications; GNU was used on
    /// CTE-Arm and Intel on MareNostrum 4). Gromacs needs GNU 11.
    pub fn app_compiler(self, needs_gnu11: bool) -> Compiler {
        match self {
            Cluster::CteArm => {
                if needs_gnu11 {
                    Compiler::gnu11()
                } else {
                    Compiler::gnu_sve()
                }
            }
            Cluster::MareNostrum4 => Compiler::intel(),
        }
    }
}

/// Outcome of one application run.
#[derive(Debug, Clone)]
pub struct AppRun {
    /// Total elapsed time of the measured region.
    pub elapsed: Time,
    /// Named phase times (e.g. Alya's Assembly and Solver), slowest-rank.
    pub phases: Vec<(String, Time)>,
}

impl AppRun {
    /// Time of a named phase.
    pub fn phase(&self, name: &str) -> Option<Time> {
        self.phases.iter().find(|(n, _)| n == name).map(|&(_, t)| t)
    }
}

impl simkit::codec::Encode for AppRun {
    fn encode(&self, out: &mut Vec<u8>) {
        self.elapsed.encode(out);
        self.phases.encode(out);
    }
}

impl simkit::codec::Decode for AppRun {
    fn decode(r: &mut simkit::codec::Reader<'_>) -> Result<Self, simkit::codec::DecodeError> {
        Ok(AppRun {
            elapsed: Time::decode(r)?,
            phases: Vec::<(String, Time)>::decode(r)?,
        })
    }
}

impl simkit::store::StoreValue for AppRun {
    const TYPE_NAME: &'static str = "apps::AppRun";
}

/// One point of a strong-scaling study.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// Node count.
    pub nodes: usize,
    /// Run outcome.
    pub run: AppRun,
}

/// Execute `body` with a freshly-built job on the requested cluster. The
/// closure receives the job with the standard layout (ranks/threads as
/// given) and must drive it to completion; its return value is passed
/// through.
pub fn with_job<R>(
    cluster: Cluster,
    nodes: usize,
    ranks_per_node: usize,
    threads_per_rank: usize,
    needs_gnu11: bool,
    seed: u64,
    body: impl FnOnce(&mut dyn JobHandle) -> R,
) -> R {
    let machine = cluster.machine();
    let compiler = cluster.app_compiler(needs_gnu11);
    let layout = |m: &Machine| {
        JobLayout::new(
            (0..nodes).map(NodeId).collect(),
            ranks_per_node,
            threads_per_rank,
            m.memory.n_domains,
            m.cores_per_node(),
        )
    };
    match cluster {
        Cluster::CteArm => {
            let net = Network::new(TofuD::cte_arm(), LinkModel::tofud());
            let mut job = Job::new(&machine, &compiler, &net, layout(&machine), seed);
            body(&mut job)
        }
        Cluster::MareNostrum4 => {
            let net = Network::new(FatTree::marenostrum4(), LinkModel::omnipath());
            let mut job = Job::new(&machine, &compiler, &net, layout(&machine), seed);
            body(&mut job)
        }
    }
}

/// Object-safe subset of [`Job`] operations the app models need, so one
/// model body can drive either cluster's topology.
pub trait JobHandle {
    /// All ranks execute the same per-rank chunk.
    fn compute(&mut self, profile: &arch::cost::KernelProfile);
    /// Blocking allreduce of `bytes` per rank.
    fn allreduce(&mut self, bytes: simkit::units::Bytes);
    /// Alltoall of `bytes` per rank pair.
    fn alltoall(&mut self, bytes: simkit::units::Bytes);
    /// Halo exchange: every rank swaps `bytes` with `n_neighbors` peers
    /// (ring-like neighbourhood over rank space).
    fn halo(&mut self, n_neighbors: usize, bytes: simkit::units::Bytes);
    /// Collective file write through the parallel filesystem.
    fn write_output(&mut self, total_bytes: simkit::units::Bytes);
    /// Latest rank clock.
    fn elapsed(&self) -> Time;
    /// Number of ranks.
    fn n_ranks(&self) -> usize;
}

/// Sustained bandwidth of the shared parallel filesystem (GPFS on both
/// clusters; a single job rarely sees more than ~10 GB/s).
const FS_BANDWIDTH_GBPS: f64 = 10.0;

impl<T: interconnect::topology::Topology> JobHandle for Job<'_, T> {
    fn compute(&mut self, profile: &arch::cost::KernelProfile) {
        Job::compute(self, profile);
    }
    fn allreduce(&mut self, bytes: simkit::units::Bytes) {
        Job::allreduce(self, bytes);
    }
    fn alltoall(&mut self, bytes: simkit::units::Bytes) {
        Job::alltoall(self, bytes);
    }
    fn halo(&mut self, n_neighbors: usize, bytes: simkit::units::Bytes) {
        let n = self.n_ranks();
        Job::neighbor_exchange(self, |r| {
            (1..=n_neighbors.div_ceil(2))
                .flat_map(|d| [(r + d) % n, (r + n - d % n) % n])
                .take(n_neighbors.min(n.saturating_sub(1)))
                .map(|peer| (peer, bytes))
                .collect()
        });
    }
    fn write_output(&mut self, total_bytes: simkit::units::Bytes) {
        Job::parallel_write(
            self,
            total_bytes,
            simkit::units::Bandwidth::gb_per_sec(FS_BANDWIDTH_GBPS),
        );
    }
    fn elapsed(&self) -> Time {
        Job::elapsed(self)
    }
    fn n_ranks(&self) -> usize {
        self.layout().n_ranks()
    }
}

/// Minimum nodes needed to hold `footprint_bytes` of application state on a
/// cluster (the paper's "NP" entries come from this: 32 GB/node on CTE-Arm
/// vs 96 GB on MareNostrum 4).
pub fn min_nodes(cluster: Cluster, footprint_bytes: f64) -> usize {
    let cap = cluster.machine().memory.capacity().value();
    // Applications cannot use every byte: runtime + MPI buffers take ~15 %.
    (footprint_bytes / (0.85 * cap)).ceil().max(1.0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use arch::cost::KernelProfile;
    use simkit::units::Bytes;

    #[test]
    fn compiler_selection_matches_paper() {
        use arch::compiler::CompilerId;
        assert_eq!(Cluster::CteArm.app_compiler(false).id, CompilerId::GnuSve);
        assert_eq!(Cluster::CteArm.app_compiler(true).id, CompilerId::Gnu11);
        assert_eq!(
            Cluster::MareNostrum4.app_compiler(false).id,
            CompilerId::Intel
        );
    }

    #[test]
    fn with_job_runs_on_both_clusters() {
        for cluster in Cluster::BOTH {
            let t = with_job(cluster, 2, 48, 1, false, 1, |job| {
                job.compute(&KernelProfile::dp("w", 1e9, 1e7));
                job.allreduce(Bytes::kib(8.0));
                job.elapsed()
            });
            assert!(t.value() > 0.0, "{cluster:?}");
        }
    }

    #[test]
    fn min_nodes_reflects_memory_sizes() {
        // A 300 GB footprint: 12 nodes on CTE-Arm, 4 on MareNostrum 4.
        let f = 300e9;
        assert_eq!(min_nodes(Cluster::CteArm, f), 12);
        assert_eq!(min_nodes(Cluster::MareNostrum4, f), 4);
        assert_eq!(min_nodes(Cluster::CteArm, 1.0), 1);
    }

    #[test]
    fn halo_reaches_neighbors() {
        let t2 = with_job(Cluster::CteArm, 2, 48, 1, false, 1, |job| {
            job.halo(2, Bytes::kib(64.0));
            job.elapsed()
        });
        let t6 = with_job(Cluster::CteArm, 2, 48, 1, false, 1, |job| {
            job.halo(6, Bytes::kib(64.0));
            job.elapsed()
        });
        assert!(t6 > t2, "more neighbours cost more");
    }

    #[test]
    fn app_run_phase_lookup() {
        let run = AppRun {
            elapsed: Time::seconds(3.0),
            phases: vec![
                ("assembly".into(), Time::seconds(2.0)),
                ("solver".into(), Time::seconds(1.0)),
            ],
        };
        assert_eq!(run.phase("solver"), Some(Time::seconds(1.0)));
        assert_eq!(run.phase("io"), None);
    }
}
