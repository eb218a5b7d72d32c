//! Ablations of the design choices in DESIGN.md §6.
//!
//! Five studies, each printing the finding EXPERIMENTS.md quotes:
//! collective algorithm, placement policy, SVE-uptake sweep, HBM↔DDR4
//! memory swap and communication/computation overlap. Every number is a
//! deterministic model output, so there is no timing loop.
//!
//! ```bash
//! cargo run --release --example ablations
//! ```

use arch::compiler::Compiler;
use arch::cost::{CostModel, KernelProfile};
use arch::machines::{cte_arm, marenostrum4};
use arch::memory::MemoryModel;
use interconnect::link::LinkModel;
use interconnect::network::Network;
use interconnect::placement::{allocate, mean_pairwise_hops, Placement};
use interconnect::tofu::TofuD;
use interconnect::topology::NodeId;
use mpisim::collectives::CollectiveAlgo;
use mpisim::job::Job;
use mpisim::layout::JobLayout;
use simkit::rng::Pcg32;
use simkit::units::Bytes;

/// A synthetic Alya-solver-like loop on 64 CTE-Arm nodes: 200 iterations
/// of compute + two 8-byte allreduces under the given collective algorithm.
fn solver_loop(algo: CollectiveAlgo) -> f64 {
    let machine = cte_arm();
    let compiler = Compiler::gnu_sve();
    let net = Network::new(TofuD::cte_arm(), LinkModel::tofud());
    let layout = JobLayout::new(
        (0..64).map(NodeId).collect(),
        48,
        1,
        machine.memory.n_domains,
        machine.cores_per_node(),
    );
    let mut job = Job::new(&machine, &compiler, &net, layout, 1).with_collective_algo(algo);
    let profile = KernelProfile::dp("iter", 1e6, 1e5).with_vectorizable(0.3);
    for _ in 0..200 {
        job.compute(&profile);
        job.allreduce(Bytes::new(8.0));
        job.allreduce(Bytes::new(8.0));
    }
    job.elapsed().value()
}

fn ablation_collectives() {
    let tree = solver_loop(CollectiveAlgo::BinomialTree);
    let ring = solver_loop(CollectiveAlgo::Ring);
    let auto = solver_loop(CollectiveAlgo::Auto);
    println!("== ablation: collective algorithm (64-node solver loop) ==");
    println!("  binomial tree: {tree:.4} s simulated");
    println!(
        "  ring:          {ring:.4} s simulated ({:.2}× tree)",
        ring / tree
    );
    println!("  auto:          {auto:.4} s simulated\n");
}

fn placement_hops(policy: Placement, seed: u64) -> f64 {
    let topo = TofuD::cte_arm();
    let mut rng = Pcg32::seeded(seed);
    let nodes = allocate(&topo, 48, policy, &mut rng);
    mean_pairwise_hops(&topo, &nodes)
}

fn ablation_placement() {
    let contiguous = placement_hops(Placement::ContiguousBlock, 1);
    let random: f64 = (0..10)
        .map(|s| placement_hops(Placement::Random, s))
        .sum::<f64>()
        / 10.0;
    println!("== ablation: placement policy (48-node job on the torus) ==");
    println!("  topology-aware block: {contiguous:.2} mean hops");
    println!(
        "  random allocation:    {random:.2} mean hops ({:.0}% worse)\n",
        100.0 * (random / contiguous - 1.0)
    );
}

/// Alya-assembly slowdown (CTE/MN4) as a function of GNU's SVE uptake.
fn assembly_slowdown(uptake: f64) -> f64 {
    let cte = cte_arm();
    let mn4 = marenostrum4();
    let mut gnu = Compiler::gnu_sve();
    gnu.uptake_app = uptake;
    let intel = Compiler::intel();
    let profile = KernelProfile::dp("assembly", 1e9, 2e7).with_vectorizable(0.97);
    let tc = CostModel::new(&cte.core, &cte.memory, &gnu)
        .chunk_time(&profile, 48)
        .value();
    let tm = CostModel::new(&mn4.core, &mn4.memory, &intel)
        .chunk_time(&profile, 48)
        .value();
    tc / tm
}

fn ablation_sve_uptake() {
    println!("== ablation: SVE uptake sweep (the paper's conclusion in numbers) ==");
    for uptake in [0.12, 0.30, 0.50, 0.65, 0.90] {
        println!(
            "  GNU SVE uptake {:>4.0}% -> Alya-assembly slowdown {:.2}×",
            uptake * 100.0,
            assembly_slowdown(uptake)
        );
    }
    println!();
}

/// Solver-phase (streaming) gap with the factory memory systems vs with
/// HBM and DDR4 swapped between the machines.
fn ablation_memory_swap() {
    let cte = cte_arm();
    let mn4 = marenostrum4();
    let gnu = Compiler::gnu_sve();
    let intel = Compiler::intel();
    let stream = KernelProfile::dp("solver-stream", 0.0, 1e8);
    let gap = |cte_mem: &MemoryModel, mn4_mem: &MemoryModel| {
        let tc = CostModel::new(&cte.core, cte_mem, &gnu)
            .chunk_time(&stream, 48)
            .value();
        let tm = CostModel::new(&mn4.core, mn4_mem, &intel)
            .chunk_time(&stream, 48)
            .value();
        tc / tm
    };
    let factory = gap(&cte.memory, &mn4.memory);
    let swapped = gap(&mn4.memory, &cte.memory);
    println!("== ablation: memory subsystem swap (streaming solver phase) ==");
    println!("  factory (A64FX+HBM vs Xeon+DDR4): CTE/MN4 time ratio {factory:.2}");
    println!("  swapped (A64FX+DDR4 vs Xeon+HBM): CTE/MN4 time ratio {swapped:.2}");
    println!("  -> the HBM advantage flips sign when swapped\n");
}

/// A NEMO-like step with blocking vs overlapped halo exchanges on 16
/// CTE-Arm nodes with large halos.
fn stencil_step(overlap: bool) -> f64 {
    let machine = cte_arm();
    let compiler = Compiler::gnu_sve();
    let net = Network::new(TofuD::cte_arm(), LinkModel::tofud());
    let layout = JobLayout::new(
        (0..16).map(NodeId).collect(),
        4,
        12,
        machine.memory.n_domains,
        machine.cores_per_node(),
    );
    let mut job = Job::new(&machine, &compiler, &net, layout, 1).with_imbalance(0.0);
    // Work sized so compute and halo wire time are comparable — the regime
    // where overlap pays.
    let work = KernelProfile::dp("stencil", 1e8, 2e7).with_vectorizable(0.3);
    let n = 64;
    let halo = Bytes::mib(8.0);
    let peers = move |r: usize| vec![((r + 1) % n, halo), ((r + n - 1) % n, halo)];
    for _ in 0..10 {
        if overlap {
            let pending = job.post_neighbor_exchange(peers);
            job.compute(&work);
            job.wait_halo(pending);
        } else {
            job.compute(&work);
            job.neighbor_exchange(peers);
        }
    }
    job.elapsed().value()
}

fn ablation_overlap() {
    let blocking = stencil_step(false);
    let overlapped = stencil_step(true);
    println!("== ablation: communication/computation overlap (stencil, 16 nodes) ==");
    println!("  blocking halos:   {blocking:.4} s simulated");
    println!(
        "  overlapped halos: {overlapped:.4} s simulated ({:.0}% saved)",
        100.0 * (1.0 - overlapped / blocking)
    );
}

fn main() {
    ablation_collectives();
    ablation_placement();
    ablation_sve_uptake();
    ablation_memory_swap();
    ablation_overlap();
}
