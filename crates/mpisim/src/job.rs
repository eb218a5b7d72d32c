//! The [`Job`] execution context: runs SPMD programs on virtual clocks.

use crate::collectives::{self, CollectiveAlgo};
use crate::faults::JobFaults;
use crate::layout::JobLayout;
use crate::trace::{Activity, Trace};
use arch::compiler::Compiler;
use arch::cost::{CostModel, KernelProfile};
use arch::machines::Machine;
use interconnect::network::{Network, PathCost};
use interconnect::topology::{NodeId, Topology};
use simkit::rng::Pcg32;
use simkit::time::VirtualClock;
use simkit::units::{Bandwidth, Bytes, Time};

/// A posted, not-yet-completed neighbour exchange (see
/// [`Job::post_neighbor_exchange`]).
#[must_use = "a posted exchange must be completed with wait_halo"]
pub struct PendingHalo {
    completion: Vec<Time>,
}

/// A running MPI job on a simulated cluster.
///
/// Each rank owns a [`VirtualClock`]. Compute steps advance individual
/// clocks (with optional load-imbalance noise); synchronizing communication
/// aligns clocks the way blocking MPI semantics do. The job's elapsed time
/// is the latest clock — the "slowest process" time the paper plots.
pub struct Job<'a, T: Topology> {
    machine: &'a Machine,
    compiler: &'a Compiler,
    network: &'a Network<T>,
    layout: JobLayout,
    /// Per-rank clocks; stale while `aligned` is set.
    clocks: Vec<VirtualClock>,
    /// `Some(c)` while every rank clock equals `c`: at launch and after any
    /// global sync. Global operations then update `c` alone, in O(1), and
    /// operations that move ranks apart write it back into `clocks` first.
    aligned: Option<VirtualClock>,
    rng: Pcg32,
    algo: CollectiveAlgo,
    imbalance_sigma: f64,
    /// Per-rank compute clock stretch from fault-plan slowdowns (CMG
    /// throttling); 1.0 everywhere on a healthy machine, in which case the
    /// multiply is bit-neutral.
    compute_stretch: Vec<f64>,
    /// Cached farthest pair of allocated nodes: the conservative
    /// representative route for collective stages.
    far_pair: (NodeId, NodeId),
    /// Resolved route cost of `far_pair`, cached at launch so every
    /// collective stage prices its messages without re-routing.
    far_cost: PathCost,
    trace: Option<Trace>,
}

impl<'a, T: Topology> Job<'a, T> {
    /// Launch a job.
    pub fn new(
        machine: &'a Machine,
        compiler: &'a Compiler,
        network: &'a Network<T>,
        layout: JobLayout,
        seed: u64,
    ) -> Self {
        let n = layout.n_ranks();
        let far_pair = Self::farthest_pair(network, &layout);
        let far_cost = network.path_cost(far_pair.0, far_pair.1);
        Self {
            machine,
            compiler,
            network,
            layout,
            clocks: vec![VirtualClock::new(); n],
            aligned: Some(VirtualClock::new()),
            rng: Pcg32::seeded(seed),
            algo: CollectiveAlgo::Auto,
            imbalance_sigma: 0.03,
            compute_stretch: vec![1.0; n],
            far_pair,
            far_cost,
            trace: None,
        }
    }

    fn farthest_pair(network: &Network<T>, layout: &JobLayout) -> (NodeId, NodeId) {
        let nodes = &layout.nodes;
        if nodes.len() < 2 {
            return (nodes[0], nodes[0]);
        }
        // When the network has already materialised its pair table (folded
        // on TofuD — two array reads per hop query), ride it; otherwise
        // fall back to direct coordinate routing. Both return identical hop
        // counts, so the selected pair is the same either way.
        let hops: &dyn Fn(NodeId, NodeId) -> usize = match network.table_if_built() {
            Some(t) => &|a, b| t.hops(a, b),
            None => &|a, b| network.topology().hops(a, b),
        };
        let first = nodes[0];
        // Double sweep from the first node: near-diameter pair in O(n).
        let a = *nodes
            .iter()
            .max_by_key(|&&n| hops(first, n))
            .expect("non-empty");
        let b = *nodes
            .iter()
            .max_by_key(|&&n| hops(a, n))
            .expect("non-empty");
        (a, b)
    }

    /// Select the inter-node collective algorithm (default: size-based).
    pub fn with_collective_algo(mut self, algo: CollectiveAlgo) -> Self {
        self.algo = algo;
        self
    }

    /// Apply the job-visible slice of a fault plan: ranks on throttled
    /// nodes run compute chunks `1/factor` slower. Network-side faults are
    /// not handled here — they live in the `Network` this job already
    /// prices against.
    ///
    /// # Panics
    /// Panics if any node in the layout is hard-failed (by the plan or the
    /// network): a rank there would never finish. The scheduler layer is
    /// responsible for draining failed nodes before placement.
    pub fn with_faults(mut self, faults: &JobFaults) -> Self {
        for &node in &self.layout.nodes {
            assert!(
                !faults.is_failed(node) && !self.network.is_failed(node),
                "cannot place ranks on failed node {node}"
            );
        }
        for rank in 0..self.layout.n_ranks() {
            self.compute_stretch[rank] = faults.compute_stretch(self.layout.node_of(rank));
        }
        self
    }

    /// Enable per-rank execution tracing (see [`crate::trace`]).
    pub fn with_tracing(mut self) -> Self {
        self.trace = Some(Trace::new());
        self
    }

    /// The recorded trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Set the per-compute-step load-imbalance sigma (default 0.03;
    /// 0 = perfectly balanced).
    pub fn with_imbalance(mut self, sigma: f64) -> Self {
        assert!(sigma >= 0.0, "imbalance sigma must be non-negative");
        self.imbalance_sigma = sigma;
        self
    }

    /// Number of ranks.
    pub fn n_ranks(&self) -> usize {
        self.layout.n_ranks()
    }

    /// The layout.
    pub fn layout(&self) -> &JobLayout {
        &self.layout
    }

    /// The farthest pair of allocated nodes — the representative route
    /// whose cached cost prices every collective stage.
    pub fn far_pair(&self) -> (NodeId, NodeId) {
        self.far_pair
    }

    /// The job's elapsed time so far: the latest rank clock.
    pub fn elapsed(&self) -> Time {
        match self.aligned {
            Some(clock) => clock.now(),
            None => self
                .clocks
                .iter()
                .map(|c| c.now())
                .fold(Time::ZERO, Time::max),
        }
    }

    /// Per-rank clock snapshot.
    pub fn rank_times(&self) -> Vec<Time> {
        match self.aligned {
            Some(clock) => vec![clock.now(); self.n_ranks()],
            None => self.clocks.iter().map(|c| c.now()).collect(),
        }
    }

    /// Write the aligned clock back into every rank, ahead of an operation
    /// that reads or moves ranks one by one.
    fn materialise(&mut self) {
        if let Some(clock) = self.aligned.take() {
            self.clocks.fill(clock);
        }
    }

    /// Every rank executes the same per-rank work chunk; each rank's time is
    /// perturbed by the imbalance noise.
    pub fn compute(&mut self, per_rank: &KernelProfile) {
        // A rank's chunk is split across its OpenMP threads. The cost model
        // never reads the name, so the split profile leaves it empty.
        let threads = self.layout.threads_per_rank as f64;
        let per_thread = KernelProfile {
            name: String::new(),
            flops: per_rank.flops / threads,
            bytes: per_rank.bytes / threads,
            ..*per_rank
        };
        let cm = CostModel::new(&self.machine.core, &self.machine.memory, self.compiler);
        let base = cm.chunk_time(&per_thread, self.layout.active_cores_per_node());
        let sigma = self.imbalance_sigma;
        let aligned = self.aligned.take();
        let ranks = self.clocks.iter_mut().zip(&self.compute_stretch);
        for (rank, (clock, &stretch)) in ranks.enumerate() {
            // Fault-plan slowdown: ×1.0 on healthy nodes is bit-neutral.
            let mut t = base.value() * stretch;
            if sigma > 0.0 {
                t *= self.rng.lognormal_noise(sigma);
            }
            let t = Time::seconds(t);
            if let Some(a) = aligned {
                *clock = a;
            }
            let start = clock.now();
            clock.advance(t);
            if let Some(trace) = self.trace.as_mut() {
                trace.record(rank, Activity::Compute, start, start + t, &per_rank.name);
            }
        }
    }

    /// Representative point-to-point time across the allocation (worst
    /// pair). Collective stages call this once per stage with varying
    /// sizes, so the route cost comes from the cached [`PathCost`] rather
    /// than re-resolving `far_pair` each time.
    fn inter_node_ptp(&self, bytes: Bytes) -> Time {
        self.network.message_time_with(&self.far_cost, bytes)
    }

    /// Intra-node (shared-memory) point-to-point time.
    fn intra_node_ptp(&self, bytes: Bytes) -> Time {
        // Shared-memory copy: half the injection overhead + copy at 20 GB/s,
        // mirroring Network's self-message model.
        self.network.link().sw_overhead * 0.5 + bytes / Bandwidth::gb_per_sec(20.0)
    }

    /// A blocking operation over every rank: the clocks meet at the latest
    /// one, then advance by `cost` together, which leaves them aligned.
    /// Traced, each rank's interval spans from its own arrival to the
    /// common completion.
    fn blocking_all(&mut self, cost: Time, activity: Activity, label: &str) {
        let starts = self.trace.is_some().then(|| self.rank_times());
        let mut done = VirtualClock::new();
        done.advance_to(self.elapsed());
        done.advance(cost);
        self.aligned = Some(done);
        if let (Some(trace), Some(starts)) = (self.trace.as_mut(), starts) {
            for (rank, start) in starts.into_iter().enumerate() {
                trace.record(rank, activity, start, done.now(), label);
            }
        }
    }

    /// Hierarchical blocking collective over every rank: intra-node stage
    /// over the ranks of one node, inter-node stage over node leaders.
    fn collective(
        &mut self,
        label: &str,
        bytes: Bytes,
        intra_f: impl Fn(usize, Bytes, &dyn Fn(Bytes) -> Time) -> Time,
        inter_f: impl Fn(usize, Bytes, &dyn Fn(Bytes) -> Time) -> Time,
    ) {
        let intra = intra_f(self.layout.ranks_per_node, bytes, &|b| {
            self.intra_node_ptp(b)
        });
        let inter = inter_f(self.layout.n_nodes(), bytes, &|b| self.inter_node_ptp(b));
        self.blocking_all(intra + inter, Activity::Collective, label);
    }

    /// MPI_Barrier over all ranks.
    pub fn barrier(&mut self) {
        self.collective(
            "barrier",
            Bytes::ZERO,
            |p, b, ptp| collectives::barrier(p, ptp(b)),
            |p, b, ptp| collectives::barrier(p, ptp(b)),
        );
    }

    /// MPI_Allreduce of `bytes` per rank.
    pub fn allreduce(&mut self, bytes: Bytes) {
        let algo = self.algo;
        self.collective(
            "allreduce",
            bytes,
            |p, b, ptp| collectives::allreduce(p, b, algo, ptp),
            |p, b, ptp| collectives::allreduce(p, b, algo, ptp),
        );
    }

    /// MPI_Bcast of `bytes` from rank 0.
    pub fn bcast(&mut self, bytes: Bytes) {
        let algo = self.algo;
        self.collective(
            "bcast",
            bytes,
            |p, b, ptp| collectives::bcast(p, b, algo, ptp),
            |p, b, ptp| collectives::bcast(p, b, algo, ptp),
        );
    }

    /// MPI_Reduce of `bytes` to rank 0.
    pub fn reduce(&mut self, bytes: Bytes) {
        let algo = self.algo;
        self.collective(
            "reduce",
            bytes,
            |p, b, ptp| collectives::reduce(p, b, algo, ptp),
            |p, b, ptp| collectives::reduce(p, b, algo, ptp),
        );
    }

    /// MPI_Allgather where each rank contributes `bytes`.
    pub fn allgather(&mut self, bytes: Bytes) {
        let algo = self.algo;
        let rpn = self.layout.ranks_per_node;
        self.collective(
            "allgather",
            bytes,
            |p, b, ptp| collectives::allgather(p, b, algo, ptp),
            // Node leaders carry their node's aggregated contribution.
            |p, b, ptp| collectives::allgather(p, b * rpn as f64, algo, ptp),
        );
    }

    /// MPI_Alltoall where each rank sends `bytes` to every other rank.
    pub fn alltoall(&mut self, bytes: Bytes) {
        let rpn = self.layout.ranks_per_node;
        self.collective(
            "alltoall",
            bytes,
            |p, b, ptp| collectives::alltoall(p, b, ptp),
            // Inter-node traffic: each node exchanges rpn² rank-pair
            // payloads with every other node.
            |p, b, ptp| collectives::alltoall(p, b * (rpn * rpn) as f64, ptp),
        );
    }

    /// Allreduce over a sub-communicator (e.g. HPL's grid rows/columns):
    /// only the listed ranks synchronize and pay the cost; everyone else
    /// keeps running.
    ///
    /// # Panics
    /// Panics on duplicate or out-of-range ranks.
    pub fn allreduce_among(&mut self, ranks: &[usize], bytes: Bytes) {
        let mut seen = vec![false; self.n_ranks()];
        for &r in ranks {
            assert!(r < self.n_ranks(), "rank out of range");
            assert!(!seen[r], "duplicate rank in sub-communicator");
            seen[r] = true;
        }
        if ranks.len() <= 1 {
            return;
        }
        self.materialise();
        let latest = ranks
            .iter()
            .map(|&r| self.clocks[r].now())
            .fold(Time::ZERO, Time::max);
        // Cost: how many distinct nodes does the subset span?
        let mut nodes: Vec<_> = ranks.iter().map(|&r| self.layout.node_of(r)).collect();
        nodes.sort_unstable();
        nodes.dedup();
        let per_node = ranks.len().div_ceil(nodes.len());
        let algo = self.algo;
        let cost = collectives::allreduce(per_node, bytes, algo, |b| self.intra_node_ptp(b))
            + collectives::allreduce(nodes.len(), bytes, algo, |b| self.inter_node_ptp(b));
        for &r in ranks {
            let clock = &mut self.clocks[r];
            let start = clock.now();
            clock.advance_to(latest);
            clock.advance(cost);
            let end = clock.now();
            if let Some(trace) = self.trace.as_mut() {
                trace.record(r, Activity::Collective, start, end, "allreduce(sub)");
            }
        }
    }

    /// MPI_Gather of `bytes` per rank to rank 0.
    pub fn gather(&mut self, bytes: Bytes) {
        let rpn = self.layout.ranks_per_node;
        self.collective(
            "gather",
            bytes,
            |p, b, ptp| collectives::gather(p, b, ptp),
            // Node leaders forward their node's aggregate.
            |p, b, ptp| collectives::gather(p, b * rpn as f64, ptp),
        );
    }

    /// MPI_Reduce_scatter of `bytes` per rank.
    pub fn reduce_scatter(&mut self, bytes: Bytes) {
        self.collective(
            "reduce_scatter",
            bytes,
            |p, b, ptp| collectives::reduce_scatter(p, b, ptp),
            |p, b, ptp| collectives::reduce_scatter(p, b, ptp),
        );
    }

    /// MPI_Scan (inclusive prefix) of `bytes` per rank.
    pub fn scan(&mut self, bytes: Bytes) {
        self.collective(
            "scan",
            bytes,
            |p, b, ptp| collectives::scan(p, b, ptp),
            |p, b, ptp| collectives::scan(p, b, ptp),
        );
    }

    /// Paired MPI_Sendrecv between two ranks: both clocks meet, then pay the
    /// transfer.
    pub fn sendrecv(&mut self, a: usize, b: usize, bytes: Bytes) {
        assert!(
            a < self.n_ranks() && b < self.n_ranks(),
            "rank out of range"
        );
        self.materialise();
        let t = if self.layout.same_node(a, b) {
            self.intra_node_ptp(bytes)
        } else {
            self.network
                .message_time(self.layout.node_of(a), self.layout.node_of(b), bytes)
        };
        let (sa, sb) = (self.clocks[a].now(), self.clocks[b].now());
        let end = sa.max(sb) + t;
        self.clocks[a].advance_to(end);
        self.clocks[b].advance_to(end);
        if let Some(trace) = self.trace.as_mut() {
            trace.record(a, Activity::PointToPoint, sa, end, "sendrecv");
            trace.record(b, Activity::PointToPoint, sb, end, "sendrecv");
        }
    }

    /// Post a non-blocking neighbour exchange (`MPI_Isend`/`MPI_Irecv`):
    /// each rank pays only the injection overheads now; the wire time
    /// proceeds in the background and [`Job::wait_halo`] synchronizes with
    /// it. Compute issued between post and wait overlaps with the
    /// transfers — the classic halo-hiding pattern.
    pub fn post_neighbor_exchange(
        &mut self,
        neighbors: impl Fn(usize) -> Vec<(usize, Bytes)>,
    ) -> PendingHalo {
        self.materialise();
        let sw = self.network.link().sw_overhead;
        let mut completion = Vec::with_capacity(self.n_ranks());
        for rank in 0..self.n_ranks() {
            let msgs = neighbors(rank);
            if msgs.is_empty() {
                completion.push(self.clocks[rank].now());
                continue;
            }
            // Injection overheads occupy the CPU.
            let inject = sw * msgs.len() as f64;
            let start = self.clocks[rank].now();
            self.clocks[rank].advance(inject);
            // Wire time proceeds asynchronously from the post time.
            let mut slowest = Time::ZERO;
            for &(peer, bytes) in &msgs {
                assert!(peer < self.n_ranks(), "peer rank out of range");
                let t = if self.layout.same_node(rank, peer) {
                    self.intra_node_ptp(bytes)
                } else {
                    self.network.message_time(
                        self.layout.node_of(rank),
                        self.layout.node_of(peer),
                        bytes,
                    )
                };
                slowest = slowest.max(t);
            }
            completion.push(start + inject + slowest);
        }
        PendingHalo { completion }
    }

    /// Complete a posted exchange: each rank's clock jumps to the later of
    /// its current time (compute finished after the wire) and the
    /// transfer completion (the wire was the bottleneck).
    pub fn wait_halo(&mut self, pending: PendingHalo) {
        assert_eq!(
            pending.completion.len(),
            self.n_ranks(),
            "pending halo from a different job"
        );
        self.materialise();
        for (rank, &done) in pending.completion.iter().enumerate() {
            let start = self.clocks[rank].now();
            self.clocks[rank].advance_to(done);
            if let Some(trace) = self.trace.as_mut() {
                let end = start.max(done);
                if end > start {
                    trace.record(rank, Activity::PointToPoint, start, end, "halo-wait");
                }
            }
        }
    }

    /// Blocking neighbour (halo) exchange: post and immediately wait.
    /// Defined as the composition of [`Job::post_neighbor_exchange`] and
    /// [`Job::wait_halo`], so blocking and overlapped paths share one cost
    /// model by construction.
    pub fn neighbor_exchange(&mut self, neighbors: impl Fn(usize) -> Vec<(usize, Bytes)>) {
        let pending = self.post_neighbor_exchange(neighbors);
        self.wait_halo(pending);
    }

    /// Collective file output of `total_bytes` through a shared parallel
    /// filesystem of the given sustained bandwidth (used for WRF's hourly
    /// frames). All ranks block until the write drains.
    pub fn parallel_write(&mut self, total_bytes: Bytes, fs_bandwidth: Bandwidth) {
        self.blocking_all(total_bytes / fs_bandwidth, Activity::Io, "parallel_write");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arch::machines::{cte_arm, marenostrum4};
    use interconnect::fattree::FatTree;
    use interconnect::link::LinkModel;
    use interconnect::tofu::TofuD;

    fn cte_job(n_nodes: usize, rpn: usize, tpr: usize) -> (Machine, Compiler, Network<TofuD>) {
        let m = cte_arm();
        let c = Compiler::gnu_sve();
        let net = Network::new(TofuD::cte_arm(), LinkModel::tofud());
        let _ = (n_nodes, rpn, tpr);
        (m, c, net)
    }

    fn layout(machine: &Machine, n_nodes: usize, rpn: usize, tpr: usize) -> JobLayout {
        JobLayout::new(
            (0..n_nodes).map(NodeId).collect(),
            rpn,
            tpr,
            machine.memory.n_domains,
            machine.cores_per_node(),
        )
    }

    #[test]
    fn fresh_job_has_zero_elapsed() {
        let (m, c, net) = cte_job(4, 48, 1);
        let job = Job::new(&m, &c, &net, layout(&m, 4, 48, 1), 1);
        assert_eq!(job.elapsed(), Time::ZERO);
        assert_eq!(job.n_ranks(), 192);
    }

    #[test]
    fn compute_advances_clocks() {
        let (m, c, net) = cte_job(2, 48, 1);
        let mut job = Job::new(&m, &c, &net, layout(&m, 2, 48, 1), 1);
        job.compute(&KernelProfile::dp("work", 1e9, 1e8));
        assert!(job.elapsed().value() > 0.0);
        // All ranks advanced.
        assert!(job.rank_times().iter().all(|t| t.value() > 0.0));
    }

    #[test]
    fn imbalance_spreads_rank_times() {
        let (m, c, net) = cte_job(2, 48, 1);
        let mut job = Job::new(&m, &c, &net, layout(&m, 2, 48, 1), 1).with_imbalance(0.1);
        job.compute(&KernelProfile::dp("work", 1e9, 1e8));
        let times = job.rank_times();
        let min = times
            .iter()
            .map(|t| t.value())
            .fold(f64::INFINITY, f64::min);
        let max = times.iter().map(|t| t.value()).fold(0.0, f64::max);
        assert!(max > min * 1.02, "imbalance should spread clocks");
        // Zero imbalance: identical clocks.
        let mut balanced = Job::new(&m, &c, &net, layout(&m, 2, 48, 1), 1).with_imbalance(0.0);
        balanced.compute(&KernelProfile::dp("work", 1e9, 1e8));
        let bt = balanced.rank_times();
        assert!(bt.iter().all(|t| (t.value() - bt[0].value()).abs() < 1e-15));
    }

    #[test]
    fn barrier_aligns_clocks() {
        let (m, c, net) = cte_job(2, 48, 1);
        let mut job = Job::new(&m, &c, &net, layout(&m, 2, 48, 1), 1).with_imbalance(0.2);
        job.compute(&KernelProfile::dp("work", 1e9, 1e8));
        job.barrier();
        let times = job.rank_times();
        assert!(
            times
                .iter()
                .all(|t| (t.value() - times[0].value()).abs() < 1e-15),
            "clocks aligned after barrier"
        );
    }

    #[test]
    fn allreduce_costs_more_on_more_nodes() {
        let (m, c, net) = cte_job(2, 48, 1);
        let mut small = Job::new(&m, &c, &net, layout(&m, 2, 48, 1), 1).with_imbalance(0.0);
        let mut large = Job::new(&m, &c, &net, layout(&m, 64, 48, 1), 1).with_imbalance(0.0);
        small.allreduce(Bytes::kib(8.0));
        large.allreduce(Bytes::kib(8.0));
        assert!(large.elapsed() > small.elapsed());
    }

    #[test]
    fn sendrecv_couples_two_ranks_only() {
        let (m, c, net) = cte_job(2, 4, 12);
        let mut job = Job::new(&m, &c, &net, layout(&m, 2, 4, 12), 1).with_imbalance(0.0);
        job.sendrecv(0, 7, Bytes::kib(64.0));
        let times = job.rank_times();
        assert!(times[0].value() > 0.0);
        assert_eq!(times[0], times[7]);
        assert_eq!(times[3], Time::ZERO);
    }

    #[test]
    fn intra_node_messages_are_cheaper() {
        let (m, c, net) = cte_job(2, 4, 12);
        let mut job = Job::new(&m, &c, &net, layout(&m, 2, 4, 12), 1).with_imbalance(0.0);
        job.sendrecv(0, 1, Bytes::kib(64.0)); // same node
        let intra = job.rank_times()[0];
        let mut job2 = Job::new(&m, &c, &net, layout(&m, 2, 4, 12), 1).with_imbalance(0.0);
        job2.sendrecv(0, 4, Bytes::kib(64.0)); // across nodes
        let inter = job2.rank_times()[0];
        assert!(intra < inter);
    }

    #[test]
    fn neighbor_exchange_overlaps_messages() {
        let (m, c, net) = cte_job(4, 1, 48);
        let mut job = Job::new(&m, &c, &net, layout(&m, 4, 1, 48), 1).with_imbalance(0.0);
        // Ring halo: each rank talks to both neighbours.
        let n = job.n_ranks();
        job.neighbor_exchange(|r| {
            vec![
                ((r + 1) % n, Bytes::kib(32.0)),
                ((r + n - 1) % n, Bytes::kib(32.0)),
            ]
        });
        let t_two = job.elapsed();
        // A single message of the same size costs barely less (overlap).
        let mut one = Job::new(&m, &c, &net, layout(&m, 4, 1, 48), 1).with_imbalance(0.0);
        one.neighbor_exchange(|r| vec![((r + 1) % n, Bytes::kib(32.0))]);
        let t_one = one.elapsed();
        assert!(t_two.value() < t_one.value() * 2.0, "messages overlap");
        assert!(
            t_two > t_one,
            "extra message still costs injection overhead"
        );
    }

    #[test]
    fn parallel_write_scales_with_volume() {
        let (m, c, net) = cte_job(2, 48, 1);
        let mut job = Job::new(&m, &c, &net, layout(&m, 2, 48, 1), 1);
        job.parallel_write(Bytes::gb(10.0), Bandwidth::gb_per_sec(5.0));
        assert!((job.elapsed().value() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn works_on_fattree_cluster_too() {
        let m = marenostrum4();
        let c = Compiler::intel();
        let net = Network::new(FatTree::marenostrum4(), LinkModel::omnipath());
        let l = JobLayout::new(
            (0..16).map(NodeId).collect(),
            48,
            1,
            m.memory.n_domains,
            m.cores_per_node(),
        );
        let mut job = Job::new(&m, &c, &net, l, 1);
        job.compute(&KernelProfile::dp("work", 1e10, 1e9));
        job.allreduce(Bytes::kib(64.0));
        assert!(job.elapsed().value() > 0.0);
    }

    #[test]
    fn cached_route_cost_is_bit_identical_to_rerouting() {
        // A job on a network with the routing table prebuilt must price
        // every collective exactly like one that routes through the
        // topology directly.
        let (m, c, net) = cte_job(8, 48, 1);
        let net_cached = Network::new(TofuD::cte_arm(), LinkModel::tofud());
        net_cached.routing_table();
        let script = |net: &Network<TofuD>| {
            let mut job = Job::new(&m, &c, net, layout(&m, 8, 48, 1), 7).with_imbalance(0.0);
            job.allreduce(Bytes::kib(64.0));
            job.alltoall(Bytes::kib(4.0));
            job.bcast(Bytes::mib(1.0));
            job.elapsed().value()
        };
        assert_eq!(script(&net).to_bits(), script(&net_cached).to_bits());
    }

    #[test]
    fn far_pair_spans_the_allocation() {
        let (m, c, net) = cte_job(4, 48, 1);
        let job = Job::new(&m, &c, &net, layout(&m, 4, 48, 1), 1);
        let (a, b) = job.far_pair();
        let topo = net.topology();
        // The double sweep lands on a pair at least as far apart as any
        // pair involving node 0.
        let from_zero = (0..4)
            .map(|i| topo.hops(NodeId(0), NodeId(i)))
            .max()
            .unwrap();
        assert!(topo.hops(a, b) >= from_zero);
    }

    #[test]
    fn deterministic_across_runs() {
        let (m, c, net) = cte_job(4, 48, 1);
        let run = || {
            let mut job = Job::new(&m, &c, &net, layout(&m, 4, 48, 1), 42);
            job.compute(&KernelProfile::dp("w", 1e9, 1e8));
            job.allreduce(Bytes::kib(8.0));
            job.elapsed().value()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn overlap_hides_halo_behind_compute() {
        let (m, c, net) = cte_job(4, 1, 48);
        let layout4 = layout(&m, 4, 1, 48);
        let work = KernelProfile::dp("w", 5e10, 1e8);
        let halo = Bytes::mib(2.0);
        let n = 4;
        let peers = move |r: usize| vec![((r + 1) % n, halo), ((r + n - 1) % n, halo)];

        // Sequential: compute, then blocking halo.
        let mut seq = Job::new(&m, &c, &net, layout4.clone(), 1).with_imbalance(0.0);
        seq.compute(&work);
        seq.neighbor_exchange(peers);
        let t_seq = seq.elapsed();

        // Overlapped: post, compute, wait.
        let mut ovl = Job::new(&m, &c, &net, layout(&m, 4, 1, 48), 1).with_imbalance(0.0);
        let pending = ovl.post_neighbor_exchange(peers);
        ovl.compute(&work);
        ovl.wait_halo(pending);
        let t_ovl = ovl.elapsed();

        assert!(t_ovl < t_seq, "overlap must win: {t_ovl} vs {t_seq}");
        // And it can never beat the compute time alone.
        let mut comp = Job::new(&m, &c, &net, layout(&m, 4, 1, 48), 1).with_imbalance(0.0);
        comp.compute(&work);
        assert!(t_ovl >= comp.elapsed());
    }

    #[test]
    fn wait_without_compute_costs_the_full_transfer() {
        let (m, c, net) = cte_job(2, 1, 48);
        let halo = Bytes::mib(4.0);
        let mut a = Job::new(&m, &c, &net, layout(&m, 2, 1, 48), 1).with_imbalance(0.0);
        let pending = a.post_neighbor_exchange(|r| vec![(1 - r, halo)]);
        a.wait_halo(pending);
        let mut b = Job::new(&m, &c, &net, layout(&m, 2, 1, 48), 1).with_imbalance(0.0);
        b.neighbor_exchange(|r| vec![(1 - r, halo)]);
        // Identical when nothing overlaps (same injection + wire costs).
        assert!((a.elapsed().value() - b.elapsed().value()).abs() < 1e-12);
    }

    #[test]
    fn trace_records_compute_and_collectives() {
        use crate::trace::Activity;
        let (m, c, net) = cte_job(2, 4, 12);
        let mut job = Job::new(&m, &c, &net, layout(&m, 2, 4, 12), 1)
            .with_tracing()
            .with_imbalance(0.05);
        job.compute(&KernelProfile::dp("kernel-x", 1e9, 1e7));
        job.allreduce(Bytes::kib(8.0));
        job.parallel_write(Bytes::mib(10.0), Bandwidth::gb_per_sec(10.0));
        let trace = job.trace().expect("tracing enabled");
        // 8 ranks × (1 compute + 1 collective + 1 io).
        assert_eq!(trace.events.len(), 24);
        assert!(trace.fraction(Activity::Compute) > 0.0);
        assert!(trace.fraction(Activity::Collective) > 0.0);
        assert!(trace.fraction(Activity::Io) > 0.0);
        let gantt = trace.gantt(4, 40);
        assert!(gantt.contains("r0"));
        // With imbalance, the fastest rank's collective interval includes
        // its wait for the slowest — collective time varies per rank.
        let coll: Vec<f64> = trace
            .events
            .iter()
            .filter(|e| e.activity == Activity::Collective)
            .map(|e| e.duration().value())
            .collect();
        let min = coll.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = coll.iter().cloned().fold(0.0, f64::max);
        assert!(max > min, "waits differ across ranks");
    }

    #[test]
    fn untraced_job_has_no_trace() {
        let (m, c, net) = cte_job(1, 4, 1);
        let mut job = Job::new(&m, &c, &net, layout(&m, 1, 4, 1), 1);
        job.compute(&KernelProfile::dp("w", 1e6, 0.0));
        assert!(job.trace().is_none());
    }

    #[test]
    fn extra_collectives_advance_clocks() {
        let (m, c, net) = cte_job(4, 48, 1);
        for op in ["gather", "reduce_scatter", "scan"] {
            let mut job = Job::new(&m, &c, &net, layout(&m, 4, 48, 1), 1).with_imbalance(0.0);
            match op {
                "gather" => job.gather(Bytes::kib(4.0)),
                "reduce_scatter" => job.reduce_scatter(Bytes::kib(4.0)),
                _ => job.scan(Bytes::kib(4.0)),
            }
            assert!(job.elapsed().value() > 0.0, "{op} must cost time");
        }
    }

    #[test]
    fn subset_allreduce_leaves_others_untouched() {
        let (m, c, net) = cte_job(4, 4, 12);
        let mut job = Job::new(&m, &c, &net, layout(&m, 4, 4, 12), 1).with_imbalance(0.0);
        // Ranks 0, 4, 8, 12: one per node — a "grid column".
        job.allreduce_among(&[0, 4, 8, 12], Bytes::kib(8.0));
        let times = job.rank_times();
        assert!(times[0].value() > 0.0);
        assert_eq!(times[0], times[4]);
        assert_eq!(times[1], Time::ZERO, "non-members untouched");
        // The subset collective is cheaper than the full one.
        let mut full = Job::new(&m, &c, &net, layout(&m, 4, 4, 12), 1).with_imbalance(0.0);
        full.allreduce(Bytes::kib(8.0));
        assert!(times[0] < full.elapsed());
    }

    #[test]
    #[should_panic(expected = "duplicate rank")]
    fn subset_allreduce_rejects_duplicates() {
        let (m, c, net) = cte_job(2, 4, 12);
        let mut job = Job::new(&m, &c, &net, layout(&m, 2, 4, 12), 1);
        job.allreduce_among(&[0, 0], Bytes::kib(1.0));
    }

    #[test]
    fn slowdown_fault_stretches_compute_on_its_node_only() {
        use interconnect::faults::{Fault, FaultPlan};
        let (m, c, net) = cte_job(2, 4, 12);
        let plan = FaultPlan::new("slow").with(Fault::Slowdown {
            node: NodeId(1),
            factor: 0.5,
        });
        let jf = crate::faults::JobFaults::from_plan(&plan);
        let mut job = Job::new(&m, &c, &net, layout(&m, 2, 4, 12), 1)
            .with_imbalance(0.0)
            .with_faults(&jf);
        job.compute(&KernelProfile::dp("w", 1e9, 1e8));
        let times = job.rank_times();
        // Ranks 0–3 live on node 0 (healthy), ranks 4–7 on node 1 (×2).
        assert!(
            (times[4].value() - 2.0 * times[0].value()).abs() < 1e-12 * times[0].value(),
            "throttled node runs exactly 2x slower"
        );
    }

    #[test]
    fn empty_faults_are_bit_neutral() {
        let (m, c, net) = cte_job(4, 48, 1);
        let script = |job: &mut Job<TofuD>| {
            job.compute(&KernelProfile::dp("w", 1e9, 1e8));
            job.allreduce(Bytes::kib(8.0));
            job.elapsed().value()
        };
        let mut plain = Job::new(&m, &c, &net, layout(&m, 4, 48, 1), 42);
        let mut faulted = Job::new(&m, &c, &net, layout(&m, 4, 48, 1), 42)
            .with_faults(&crate::faults::JobFaults::none());
        assert_eq!(
            script(&mut plain).to_bits(),
            script(&mut faulted).to_bits(),
            "JobFaults::none must not perturb a single bit"
        );
    }

    #[test]
    fn any_fault_never_speeds_a_job_up() {
        use interconnect::faults::{Fault, FaultPlan};
        use interconnect::network::Degradation;
        let (m, c, net) = cte_job(4, 48, 1);
        let plan = FaultPlan::new("mix")
            .with(Fault::Degrade {
                node: NodeId(2),
                degradation: Degradation::receive_fault(0.1),
            })
            .with(Fault::Retransmit {
                node: NodeId(1),
                drop_prob: 0.2,
                timeout: Time::micros(30.0),
            })
            .with(Fault::Slowdown {
                node: NodeId(3),
                factor: 0.6,
            });
        let faulty_net = plan.apply(Network::new(TofuD::cte_arm(), LinkModel::tofud()));
        let jf = crate::faults::JobFaults::from_plan(&plan);
        let script = |net: &Network<TofuD>, jf: &crate::faults::JobFaults| {
            let mut job = Job::new(&m, &c, net, layout(&m, 4, 48, 1), 7)
                .with_imbalance(0.0)
                .with_faults(jf);
            job.compute(&KernelProfile::dp("w", 1e9, 1e8));
            job.allreduce(Bytes::kib(64.0));
            job.sendrecv(0, 100, Bytes::kib(32.0));
            job.alltoall(Bytes::kib(4.0));
            job.elapsed()
        };
        let clean = script(&net, &crate::faults::JobFaults::none());
        let faulty = script(&faulty_net, &jf);
        assert!(faulty >= clean, "faults cannot reduce makespan");
        assert!(faulty > clean, "these faults sit on allocated nodes");
    }

    #[test]
    #[should_panic(expected = "cannot place ranks on failed node")]
    fn placement_on_failed_node_is_refused() {
        use interconnect::faults::{Fault, FaultPlan};
        let (m, c, _) = cte_job(2, 4, 12);
        let plan = FaultPlan::new("dead").with(Fault::Failure { node: NodeId(1) });
        let net = plan.apply(Network::new(TofuD::cte_arm(), LinkModel::tofud()));
        let jf = crate::faults::JobFaults::from_plan(&plan);
        let _ = Job::new(&m, &c, &net, layout(&m, 2, 4, 12), 1).with_faults(&jf);
    }

    #[test]
    #[should_panic(expected = "rank out of range")]
    fn sendrecv_bounds_checked() {
        let (m, c, net) = cte_job(1, 4, 1);
        let mut job = Job::new(&m, &c, &net, layout(&m, 1, 4, 1), 1);
        job.sendrecv(0, 4, Bytes::ZERO);
    }

    #[test]
    #[should_panic(expected = "rank out of range")]
    fn subset_allreduce_checks_a_single_rank_too() {
        let (m, c, net) = cte_job(1, 4, 1);
        let mut job = Job::new(&m, &c, &net, layout(&m, 1, 4, 1), 1);
        job.allreduce_among(&[99], Bytes::kib(1.0));
    }

    /// The per-rank stepper `Job` replaced: one profile clone and one
    /// `chunk_time` per rank, every sync and advance over every clock, and a
    /// full clock snapshot per collective. The oracle test below holds `Job`
    /// to it bit for bit.
    struct Reference<'a, T: Topology> {
        machine: &'a Machine,
        compiler: &'a Compiler,
        network: &'a Network<T>,
        layout: JobLayout,
        clocks: Vec<VirtualClock>,
        rng: Pcg32,
        algo: CollectiveAlgo,
        imbalance_sigma: f64,
        compute_stretch: Vec<f64>,
        far_cost: PathCost,
        trace: Option<Trace>,
    }

    impl<'a, T: Topology> Reference<'a, T> {
        #[allow(clippy::too_many_arguments)]
        fn new(
            machine: &'a Machine,
            compiler: &'a Compiler,
            network: &'a Network<T>,
            layout: JobLayout,
            seed: u64,
            algo: CollectiveAlgo,
            imbalance_sigma: f64,
            faults: &JobFaults,
            traced: bool,
        ) -> Self {
            let far_pair = Job::farthest_pair(network, &layout);
            let n = layout.n_ranks();
            Self {
                machine,
                compiler,
                network,
                clocks: vec![VirtualClock::new(); n],
                rng: Pcg32::seeded(seed),
                algo,
                imbalance_sigma,
                compute_stretch: (0..n)
                    .map(|r| faults.compute_stretch(layout.node_of(r)))
                    .collect(),
                far_cost: network.path_cost(far_pair.0, far_pair.1),
                trace: traced.then(Trace::new),
                layout,
            }
        }

        fn n_ranks(&self) -> usize {
            self.layout.n_ranks()
        }

        fn elapsed(&self) -> Time {
            self.clocks
                .iter()
                .map(|c| c.now())
                .fold(Time::ZERO, Time::max)
        }

        fn rank_times(&self) -> Vec<Time> {
            self.clocks.iter().map(|c| c.now()).collect()
        }

        fn compute(&mut self, per_rank: &KernelProfile) {
            let cm = CostModel::new(&self.machine.core, &self.machine.memory, self.compiler);
            let active = self.layout.active_cores_per_node();
            let threads = self.layout.threads_per_rank;
            for rank in 0..self.n_ranks() {
                let profile = per_rank.clone();
                let per_thread = KernelProfile {
                    flops: profile.flops / threads as f64,
                    bytes: profile.bytes / threads as f64,
                    ..profile
                };
                let mut t = cm.chunk_time(&per_thread, active);
                t = Time::seconds(t.value() * self.compute_stretch[rank]);
                if self.imbalance_sigma > 0.0 {
                    t = Time::seconds(t.value() * self.rng.lognormal_noise(self.imbalance_sigma));
                }
                let start = self.clocks[rank].now();
                self.clocks[rank].advance(t);
                if let Some(trace) = self.trace.as_mut() {
                    trace.record(rank, Activity::Compute, start, start + t, &per_thread.name);
                }
            }
        }

        fn inter_node_ptp(&self, bytes: Bytes) -> Time {
            self.network.message_time_with(&self.far_cost, bytes)
        }

        fn intra_node_ptp(&self, bytes: Bytes) -> Time {
            self.network.link().sw_overhead * 0.5 + bytes / Bandwidth::gb_per_sec(20.0)
        }

        fn sync_clocks(&mut self) -> Time {
            let latest = self.elapsed();
            for c in &mut self.clocks {
                c.advance_to(latest);
            }
            latest
        }

        fn advance_all(&mut self, dt: Time) {
            for c in &mut self.clocks {
                c.advance(dt);
            }
        }

        fn record_all(&mut self, starts: &[Time], activity: Activity, label: &str) {
            let ends = self.rank_times();
            if let Some(trace) = self.trace.as_mut() {
                for (rank, (&s, &e)) in starts.iter().zip(&ends).enumerate() {
                    trace.record(rank, activity, s, e, label);
                }
            }
        }

        fn hierarchical(
            &mut self,
            label: &str,
            bytes: Bytes,
            intra_f: impl Fn(usize, Bytes, &dyn Fn(Bytes) -> Time) -> Time,
            inter_f: impl Fn(usize, Bytes, &dyn Fn(Bytes) -> Time) -> Time,
        ) {
            let starts = self.rank_times();
            self.sync_clocks();
            let rpn = self.layout.ranks_per_node;
            let nodes = self.layout.n_nodes();
            let cost = intra_f(rpn, bytes, &|b| self.intra_node_ptp(b))
                + inter_f(nodes, bytes, &|b| self.inter_node_ptp(b));
            self.advance_all(cost);
            self.record_all(&starts, Activity::Collective, label);
        }

        fn barrier(&mut self) {
            let starts = self.rank_times();
            self.sync_clocks();
            let rpn = self.layout.ranks_per_node;
            let nodes = self.layout.n_nodes();
            let cost = collectives::barrier(rpn, self.intra_node_ptp(Bytes::ZERO))
                + collectives::barrier(nodes, self.inter_node_ptp(Bytes::ZERO));
            self.advance_all(cost);
            self.record_all(&starts, Activity::Collective, "barrier");
        }

        fn allreduce(&mut self, bytes: Bytes) {
            let algo = self.algo;
            let f =
                move |p, b, ptp: &dyn Fn(Bytes) -> Time| collectives::allreduce(p, b, algo, ptp);
            self.hierarchical("allreduce", bytes, f, f);
        }

        fn bcast(&mut self, bytes: Bytes) {
            let algo = self.algo;
            let f = move |p, b, ptp: &dyn Fn(Bytes) -> Time| collectives::bcast(p, b, algo, ptp);
            self.hierarchical("bcast", bytes, f, f);
        }

        fn reduce(&mut self, bytes: Bytes) {
            let algo = self.algo;
            let f = move |p, b, ptp: &dyn Fn(Bytes) -> Time| collectives::reduce(p, b, algo, ptp);
            self.hierarchical("reduce", bytes, f, f);
        }

        fn allgather(&mut self, bytes: Bytes) {
            let (algo, rpn) = (self.algo, self.layout.ranks_per_node);
            self.hierarchical(
                "allgather",
                bytes,
                |p, b, ptp| collectives::allgather(p, b, algo, ptp),
                |p, b, ptp| collectives::allgather(p, b * rpn as f64, algo, ptp),
            );
        }

        fn alltoall(&mut self, bytes: Bytes) {
            let rpn = self.layout.ranks_per_node;
            self.hierarchical(
                "alltoall",
                bytes,
                |p, b, ptp| collectives::alltoall(p, b, ptp),
                |p, b, ptp| collectives::alltoall(p, b * (rpn * rpn) as f64, ptp),
            );
        }

        fn gather(&mut self, bytes: Bytes) {
            let rpn = self.layout.ranks_per_node;
            self.hierarchical(
                "gather",
                bytes,
                |p, b, ptp| collectives::gather(p, b, ptp),
                |p, b, ptp| collectives::gather(p, b * rpn as f64, ptp),
            );
        }

        fn reduce_scatter(&mut self, bytes: Bytes) {
            let f = |p, b, ptp: &dyn Fn(Bytes) -> Time| collectives::reduce_scatter(p, b, ptp);
            self.hierarchical("reduce_scatter", bytes, f, f);
        }

        fn scan(&mut self, bytes: Bytes) {
            let f = |p, b, ptp: &dyn Fn(Bytes) -> Time| collectives::scan(p, b, ptp);
            self.hierarchical("scan", bytes, f, f);
        }

        fn allreduce_among(&mut self, ranks: &[usize], bytes: Bytes) {
            if ranks.len() <= 1 {
                return;
            }
            let starts = self.rank_times();
            let latest = ranks
                .iter()
                .map(|&r| self.clocks[r].now())
                .fold(Time::ZERO, Time::max);
            for &r in ranks {
                self.clocks[r].advance_to(latest);
            }
            let mut nodes: Vec<_> = ranks.iter().map(|&r| self.layout.node_of(r)).collect();
            nodes.sort_unstable();
            nodes.dedup();
            let per_node = ranks.len().div_ceil(nodes.len());
            let algo = self.algo;
            let cost = collectives::allreduce(per_node, bytes, algo, |b| self.intra_node_ptp(b))
                + collectives::allreduce(nodes.len(), bytes, algo, |b| self.inter_node_ptp(b));
            for &r in ranks {
                self.clocks[r].advance(cost);
            }
            let ends: Vec<Time> = ranks.iter().map(|&r| self.clocks[r].now()).collect();
            if let Some(trace) = self.trace.as_mut() {
                for (&r, &e) in ranks.iter().zip(&ends) {
                    trace.record(r, Activity::Collective, starts[r], e, "allreduce(sub)");
                }
            }
        }

        fn sendrecv(&mut self, a: usize, b: usize, bytes: Bytes) {
            let start = self.clocks[a].now().max(self.clocks[b].now());
            let t = if self.layout.same_node(a, b) {
                self.intra_node_ptp(bytes)
            } else {
                self.network
                    .message_time(self.layout.node_of(a), self.layout.node_of(b), bytes)
            };
            let end = start + t;
            let (sa, sb) = (self.clocks[a].now(), self.clocks[b].now());
            self.clocks[a].advance_to(end);
            self.clocks[b].advance_to(end);
            if let Some(trace) = self.trace.as_mut() {
                trace.record(a, Activity::PointToPoint, sa, end, "sendrecv");
                trace.record(b, Activity::PointToPoint, sb, end, "sendrecv");
            }
        }

        fn post_neighbor_exchange(
            &mut self,
            neighbors: impl Fn(usize) -> Vec<(usize, Bytes)>,
        ) -> Vec<Time> {
            let sw = self.network.link().sw_overhead;
            let mut completion = Vec::with_capacity(self.n_ranks());
            for rank in 0..self.n_ranks() {
                let msgs = neighbors(rank);
                if msgs.is_empty() {
                    completion.push(self.clocks[rank].now());
                    continue;
                }
                let inject = sw * msgs.len() as f64;
                let start = self.clocks[rank].now();
                self.clocks[rank].advance(inject);
                let mut slowest = Time::ZERO;
                for &(peer, bytes) in &msgs {
                    let t = if self.layout.same_node(rank, peer) {
                        self.intra_node_ptp(bytes)
                    } else {
                        self.network.message_time(
                            self.layout.node_of(rank),
                            self.layout.node_of(peer),
                            bytes,
                        )
                    };
                    slowest = slowest.max(t);
                }
                completion.push(start + inject + slowest);
            }
            completion
        }

        fn wait_halo(&mut self, completion: Vec<Time>) {
            for (rank, &done) in completion.iter().enumerate() {
                let start = self.clocks[rank].now();
                self.clocks[rank].advance_to(done);
                if let Some(trace) = self.trace.as_mut() {
                    let end = start.max(done);
                    if end > start {
                        trace.record(rank, Activity::PointToPoint, start, end, "halo-wait");
                    }
                }
            }
        }

        fn neighbor_exchange(&mut self, neighbors: impl Fn(usize) -> Vec<(usize, Bytes)>) {
            let pending = self.post_neighbor_exchange(neighbors);
            self.wait_halo(pending);
        }

        fn parallel_write(&mut self, total_bytes: Bytes, fs_bandwidth: Bandwidth) {
            let starts = self.rank_times();
            self.sync_clocks();
            self.advance_all(total_bytes / fs_bandwidth);
            self.record_all(&starts, Activity::Io, "parallel_write");
        }
    }

    /// A ring halo pattern: every rank talks to the rank `stride` ahead
    /// (and, if `both`, behind); ranks divisible by `idle_every` send
    /// nothing.
    #[derive(Clone, Copy, Debug)]
    struct Ring {
        stride: usize,
        both: bool,
        idle_every: usize,
        bytes: Bytes,
    }

    impl Ring {
        fn peers(self, n: usize) -> impl Fn(usize) -> Vec<(usize, Bytes)> {
            move |r| {
                if r % self.idle_every == 0 {
                    return Vec::new();
                }
                let mut v = vec![((r + self.stride) % n, self.bytes)];
                if self.both {
                    v.push(((r + n - self.stride % n) % n, self.bytes));
                }
                v
            }
        }
    }

    /// One step of an oracle script: every public `Job` operation.
    #[derive(Clone, Debug)]
    enum Op {
        Compute(KernelProfile),
        Barrier,
        Allreduce(Bytes),
        Bcast(Bytes),
        Reduce(Bytes),
        Allgather(Bytes),
        Alltoall(Bytes),
        Gather(Bytes),
        ReduceScatter(Bytes),
        Scan(Bytes),
        Halo(Ring),
        Overlap(Ring, KernelProfile),
        Sendrecv(usize, usize, Bytes),
        AllreduceAmong(Vec<usize>, Bytes),
        Write(Bytes, Bandwidth),
    }

    impl Op {
        fn random(rng: &mut Pcg32, n: usize) -> Self {
            let bytes = Bytes::new(rng.uniform(0.0, 4.0e6).floor());
            let profile = |rng: &mut Pcg32| {
                KernelProfile::dp("chunk", rng.uniform(1e6, 1e10), rng.uniform(0.0, 1e9))
                    .with_vectorizable(rng.uniform(0.0, 1.0))
            };
            let ring = |rng: &mut Pcg32| Ring {
                stride: 1 + rng.next_below(n as u32) as usize,
                both: rng.next_below(2) == 0,
                idle_every: 2 + rng.next_below(8) as usize,
                bytes,
            };
            match rng.next_below(15) {
                0 => Op::Compute(profile(rng)),
                1 => Op::Barrier,
                2 => Op::Allreduce(bytes),
                3 => Op::Bcast(bytes),
                4 => Op::Reduce(bytes),
                5 => Op::Allgather(bytes),
                6 => Op::Alltoall(bytes),
                7 => Op::Gather(bytes),
                8 => Op::ReduceScatter(bytes),
                9 => Op::Scan(bytes),
                10 => Op::Halo(ring(rng)),
                11 => Op::Overlap(ring(rng), profile(rng)),
                12 => Op::Sendrecv(
                    rng.next_below(n as u32) as usize,
                    rng.next_below(n as u32) as usize,
                    bytes,
                ),
                13 => {
                    let mut ranks: Vec<usize> = (0..n).collect();
                    rng.shuffle(&mut ranks);
                    ranks.truncate(rng.next_below(n as u32 + 1) as usize);
                    Op::AllreduceAmong(ranks, bytes)
                }
                _ => Op::Write(bytes, Bandwidth::gb_per_sec(rng.uniform(1.0, 50.0))),
            }
        }
    }

    /// Apply one `Op` to a `Job` or a `Reference` (same method names).
    macro_rules! apply {
        ($s:expr, $op:expr) => {{
            let n = $s.n_ranks();
            match $op {
                Op::Compute(p) => $s.compute(p),
                Op::Barrier => $s.barrier(),
                Op::Allreduce(b) => $s.allreduce(*b),
                Op::Bcast(b) => $s.bcast(*b),
                Op::Reduce(b) => $s.reduce(*b),
                Op::Allgather(b) => $s.allgather(*b),
                Op::Alltoall(b) => $s.alltoall(*b),
                Op::Gather(b) => $s.gather(*b),
                Op::ReduceScatter(b) => $s.reduce_scatter(*b),
                Op::Scan(b) => $s.scan(*b),
                Op::Halo(ring) => $s.neighbor_exchange(ring.peers(n)),
                Op::Overlap(ring, p) => {
                    let pending = $s.post_neighbor_exchange(ring.peers(n));
                    $s.compute(p);
                    $s.wait_halo(pending);
                }
                Op::Sendrecv(a, b, bytes) => $s.sendrecv(*a, *b, *bytes),
                Op::AllreduceAmong(ranks, b) => $s.allreduce_among(ranks, *b),
                Op::Write(b, bw) => $s.parallel_write(*b, *bw),
            }
        }};
    }

    fn assert_same_state<T: Topology>(job: &Job<T>, reference: &Reference<T>, at: &str) {
        let bits = |ts: Vec<Time>| ts.iter().map(|t| t.value().to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(job.rank_times()), bits(reference.rank_times()), "{at}");
        assert_eq!(
            job.elapsed().value().to_bits(),
            reference.elapsed().value().to_bits(),
            "{at}"
        );
        match (job.trace(), reference.trace.as_ref()) {
            (None, None) => {}
            (Some(got), Some(want)) => {
                assert_eq!(got.events.len(), want.events.len(), "{at}: event count");
                for (i, (g, w)) in got.events.iter().zip(&want.events).enumerate() {
                    assert_eq!(g.rank, w.rank, "{at}: event {i} rank");
                    assert_eq!(g.activity, w.activity, "{at}: event {i} activity");
                    assert_eq!(
                        g.start.value().to_bits(),
                        w.start.value().to_bits(),
                        "{at}: event {i} start"
                    );
                    assert_eq!(
                        g.end.value().to_bits(),
                        w.end.value().to_bits(),
                        "{at}: event {i} end"
                    );
                    assert_eq!(g.label, w.label, "{at}: event {i} label");
                }
            }
            _ => panic!("{at}: tracing differs"),
        }
    }

    /// Run `script` on a fresh `Job` and its `Reference` twin under every
    /// σ × fault × tracing combination, comparing after each step.
    fn check_script<T: Topology>(
        (m, c, net): (&Machine, &Compiler, &Network<T>),
        nodes: &[NodeId],
        (rpn, tpr): (usize, usize),
        (seed, algo, sigma, slow): (u64, CollectiveAlgo, f64, &JobFaults),
        script: &[Op],
    ) {
        let l = JobLayout::new(
            nodes.to_vec(),
            rpn,
            tpr,
            m.memory.n_domains,
            m.cores_per_node(),
        );
        for sigma in [0.0, sigma] {
            for faults in [&JobFaults::none(), slow] {
                for traced in [false, true] {
                    let mut job = Job::new(m, c, net, l.clone(), seed)
                        .with_collective_algo(algo)
                        .with_imbalance(sigma)
                        .with_faults(faults);
                    if traced {
                        job = job.with_tracing();
                    }
                    let mut reference =
                        Reference::new(m, c, net, l.clone(), seed, algo, sigma, faults, traced);
                    for (i, op) in script.iter().enumerate() {
                        apply!(job, op);
                        apply!(reference, op);
                        let at = format!(
                            "seed {seed} {algo:?} σ={sigma} faulted={} traced={traced} \
                             step {i} {op:?}",
                            !faults.is_empty()
                        );
                        assert_same_state(&job, &reference, &at);
                    }
                }
            }
        }
    }

    #[test]
    fn job_is_bit_identical_to_the_per_rank_reference() {
        use interconnect::faults::{Fault, FaultPlan};
        let (cte, gnu) = (cte_arm(), Compiler::gnu_sve());
        let tofu = Network::new(TofuD::cte_arm(), LinkModel::tofud());
        let (mn4, intel) = (marenostrum4(), Compiler::intel());
        let fat = Network::new(FatTree::marenostrum4(), LinkModel::omnipath());
        let cores = cte.cores_per_node().min(mn4.cores_per_node());
        let algos = [
            CollectiveAlgo::Auto,
            CollectiveAlgo::BinomialTree,
            CollectiveAlgo::Ring,
        ];
        let mut rng = Pcg32::seeded(0x5eed);
        for seed in 0..320u64 {
            let n_nodes = 1 + rng.next_below(6) as usize;
            let rpn = *rng.choose(&[1, 2, 3, 4, 8, 12, 48]);
            let tpr = 1 + rng.next_below((cores / rpn) as u32) as usize;
            let mut nodes: Vec<NodeId> = (0..24).map(NodeId).collect();
            rng.shuffle(&mut nodes);
            nodes.truncate(n_nodes);
            let slow = JobFaults::from_plan(&FaultPlan::new("slow").with(Fault::Slowdown {
                node: *rng.choose(&nodes),
                factor: rng.uniform(0.3, 0.9),
            }));
            let run = (seed, *rng.choose(&algos), rng.uniform(0.01, 0.3), &slow);
            let len = 4 + rng.next_below(12) as usize;
            let script: Vec<Op> = (0..len)
                .map(|_| Op::random(&mut rng, n_nodes * rpn))
                .collect();
            check_script((&cte, &gnu, &tofu), &nodes, (rpn, tpr), run, &script);
            check_script((&mn4, &intel, &fat), &nodes, (rpn, tpr), run, &script);
        }
    }
}
