//! From simulated traffic to predicted %-of-peak.
//!
//! The predictor composes three machine-grounded terms, all derived from
//! the trace rather than from per-kernel efficiency knobs:
//!
//! 1. **Compute time** from a port/issue model: vector FMA pipes versus
//!    load/store issue slots, with indexed gathers serialized to
//!    element-per-cycle (the SVE gather cost that makes CSR SpMV scalar-ish)
//!    and the compiler's vectorization uptake from [`crate::compiler`].
//! 2. **Cache-supply time** per level: lines filled into level *i* must be
//!    delivered by level *i+1*'s per-core bandwidth share.
//! 3. **DRAM time** from the simulator's line-accurate traffic at the
//!    machine's *measured* sustained bandwidth (the STREAM-calibrated
//!    hardware constant — machine property, not kernel property).
//!
//! Traces describe one core's shard of a full-node run; every rate here is
//! a per-core share under full-node load, so node-level %-of-peak equals
//! the per-core figure.

use super::config::HierarchyConfig;
use super::sim::{CacheSim, SimResult};
use super::trace::Trace;
use crate::compiler::Compiler;
use crate::machines::Machine;

/// Vector memory/FP issue widths of one core.
#[derive(Debug, Clone, Copy)]
pub struct PortModel {
    /// DP elements per vector register (8 for 512-bit SVE/AVX-512).
    pub lanes: f64,
    /// Vector loads issued per cycle.
    pub loads_per_cycle: f64,
    /// Vector stores issued per cycle.
    pub stores_per_cycle: f64,
    /// Combined load+store issue slots per cycle.
    pub mem_issue_per_cycle: f64,
    /// Gathered elements retired per cycle (indexed loads serialize).
    pub gather_elems_per_cycle: f64,
}

impl PortModel {
    /// A64FX: 2 × 512-bit loads or 1 store per cycle, 2 combined EAG
    /// slots, gathers at one element per cycle.
    pub fn a64fx() -> Self {
        Self {
            lanes: 8.0,
            loads_per_cycle: 2.0,
            stores_per_cycle: 1.0,
            mem_issue_per_cycle: 2.0,
            gather_elems_per_cycle: 1.0,
        }
    }

    /// Skylake-SP: 2 loads + 1 store per cycle, faster gathers (2 elems
    /// per cycle through the AVX-512 gather unit).
    pub fn skylake() -> Self {
        Self {
            lanes: 8.0,
            loads_per_cycle: 2.0,
            stores_per_cycle: 1.0,
            mem_issue_per_cycle: 3.0,
            gather_elems_per_cycle: 2.0,
        }
    }
}

/// What the kernel computes, per core shard (matching its trace).
#[derive(Debug, Clone)]
pub struct KernelSpec {
    /// Kernel name.
    pub name: String,
    /// Double-precision flops executed by the shard.
    pub flops: f64,
    /// Bytes under the kernel's own flat accounting convention (what its
    /// effective-GB/s number divides by).
    pub counted_bytes: f64,
    /// Fraction of the work that is vectorizable (structural property).
    pub vectorizable: f64,
    /// `true` when the kernel is hand-tuned/vendor-library code.
    pub tuned: bool,
}

/// Per-level utilization entry of a [`Prediction`].
#[derive(Debug, Clone)]
pub struct LevelLoad {
    /// Level name.
    pub name: String,
    /// Bytes supplied to this level from below (fills) plus pushed back
    /// (writebacks), per core shard.
    pub bytes: f64,
    /// Per-core bandwidth share feeding this level, GB/s.
    pub supply_gbs: f64,
    /// Fraction of the kernel's time this level's supply path is busy.
    pub utilization: f64,
}

/// Predicted performance of one kernel on one machine.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// Kernel name.
    pub kernel: String,
    /// Predicted shard execution time in seconds.
    pub time_s: f64,
    /// Predicted fraction of DP peak flops, in `[0, 1]`.
    pub pct_peak_flops: f64,
    /// Predicted effective bandwidth (counted bytes / time) as a fraction
    /// of peak DRAM bandwidth.
    pub pct_peak_bw: f64,
    /// Effective GB/s at node scale under the kernel's byte convention.
    pub effective_node_gbs: f64,
    /// Predicted GF/s at node scale.
    pub node_gflops: f64,
    /// Compute-side time share (port model), `t_compute / time`.
    pub compute_utilization: f64,
    /// Per-cache-level supply utilizations, innermost first.
    pub levels: Vec<LevelLoad>,
    /// DRAM utilization, `t_dram / time`.
    pub dram_utilization: f64,
    /// Which term bound the kernel: `"compute"`, a level name, or `"dram"`.
    pub bound: String,
    /// The underlying traffic simulation.
    pub sim: SimResult,
}

/// A machine + compiler + hierarchy bundle that predicts kernel
/// performance from traces.
#[derive(Debug, Clone)]
pub struct Predictor {
    /// Machine description (bandwidths, clocks, core counts).
    pub machine: Machine,
    /// Compiler model (vectorization uptake).
    pub compiler: Compiler,
    /// Cache hierarchy to simulate.
    pub cfg: HierarchyConfig,
    /// Core issue widths.
    pub ports: PortModel,
    /// Relative DRAM cost of a written byte versus a read byte. The
    /// A64FX spec sheet lists an asymmetric 256/128 GB/s HBM2 interface
    /// per CMG, but Fortran STREAM (zfill full-line stores) measures
    /// write parity on the shared bus, so the calibrated default is 1.0;
    /// raise it to model store-limited scenarios.
    pub dram_write_cost: f64,
}

impl Predictor {
    /// CTE-Arm with the Fujitsu toolchain — the paper's tuned baseline.
    pub fn cte_arm_fujitsu() -> Self {
        Self {
            machine: crate::machines::cte_arm(),
            compiler: Compiler::fujitsu(),
            cfg: HierarchyConfig::a64fx_core(),
            ports: PortModel::a64fx(),
            dram_write_cost: 1.0,
        }
    }

    /// MareNostrum 4 with the Intel toolchain.
    pub fn marenostrum4_intel() -> Self {
        Self {
            machine: crate::machines::marenostrum4(),
            compiler: Compiler::intel(),
            cfg: HierarchyConfig::skylake_core(),
            ports: PortModel::skylake(),
            dram_write_cost: 1.0,
        }
    }

    /// Predictor for a machine by name (`"CTE-Arm"` or `"MareNostrum 4"`)
    /// with its native toolchain, or `None` for unknown machines.
    pub fn for_machine(machine: &Machine) -> Option<Self> {
        match machine.name.as_str() {
            "CTE-Arm" => Some(Self::cte_arm_fujitsu()),
            "MareNostrum 4" => Some(Self::marenostrum4_intel()),
            _ => None,
        }
    }

    /// Per-core share of the measured sustained DRAM bandwidth, GB/s.
    fn dram_share_gbs(&self) -> f64 {
        self.machine
            .memory
            .app_sustained_bandwidth()
            .as_gb_per_sec()
            / self.machine.cores_per_node() as f64
    }

    /// Per-core supply bandwidth feeding cache level `i` (the bandwidth
    /// of level `i+1`, divided by its sharing cores), GB/s; `None` when
    /// the next level is DRAM (handled by the DRAM term).
    fn supply_share_gbs(&self, i: usize) -> Option<f64> {
        let next = self.machine.caches.levels.get(i + 1)?;
        Some(next.bandwidth.as_gb_per_sec() / next.shared_by as f64)
    }

    /// Compute-side time of the shard in seconds (port/issue model).
    fn compute_time_s(&self, spec: &KernelSpec, trace: &Trace) -> f64 {
        let mix = trace.op_mix();
        let core = &self.machine.core;
        let v = self
            .compiler
            .vectorized_fraction(spec.vectorizable, spec.tuned);
        let freq_hz = core.freq_ghz * 1e9;
        let derate = core.full_load_vector_derate;

        // Vectorized share: FMA pipes vs load/store issue slots.
        let lanes = self.ports.lanes;
        let fma_insts = v * spec.flops / (2.0 * lanes);
        let cycles_fp = fma_insts / core.fma_pipes as f64;
        // Memory ops: vector instructions for the vectorized share,
        // element-granular for the scalar share; gathers always serialize.
        let unit_load_insts = mix.unit_loads * (v / lanes + (1.0 - v));
        let store_insts = mix.stores * (v / lanes + (1.0 - v));
        let cycles_mem = (unit_load_insts / self.ports.loads_per_cycle)
            .max(store_insts / self.ports.stores_per_cycle)
            .max((unit_load_insts + store_insts) / self.ports.mem_issue_per_cycle)
            + mix.gather_loads / self.ports.gather_elems_per_cycle;
        let t_vec = cycles_fp.max(cycles_mem) / (freq_hz * derate);

        // Scalar share of the flops at the sustained scalar rate.
        let scalar_flops = (1.0 - v) * spec.flops;
        let t_scalar = if scalar_flops > 0.0 {
            scalar_flops / self.machine.core.sustained_scalar().value()
        } else {
            0.0
        };
        t_vec + t_scalar
    }

    /// Simulate `trace` and predict the kernel's performance.
    pub fn predict(&self, spec: &KernelSpec, trace: &Trace) -> Prediction {
        let sim = CacheSim::new(self.cfg.clone()).run(trace);
        let t_compute = self.compute_time_s(spec, trace);

        let mut levels = Vec::new();
        let mut t_supply_max = 0.0f64;
        let mut supply_bound = String::new();
        for (i, l) in sim.levels.iter().enumerate() {
            let bytes = (sim.fill_bytes(i) + sim.writeback_bytes(i)) as f64;
            if let Some(supply_gbs) = self.supply_share_gbs(i) {
                let t = bytes / (supply_gbs * 1e9);
                if t > t_supply_max {
                    t_supply_max = t;
                    supply_bound = l.name.clone();
                }
                levels.push(LevelLoad {
                    name: l.name.clone(),
                    bytes,
                    supply_gbs,
                    utilization: t, // normalized below
                });
            }
        }
        let t_dram = (sim.dram_read_bytes() as f64
            + self.dram_write_cost * sim.dram_write_bytes() as f64)
            / (self.dram_share_gbs() * 1e9);

        let time_s = t_compute.max(t_supply_max).max(t_dram).max(1e-30);
        for l in &mut levels {
            l.utilization /= time_s;
        }
        let bound = if time_s <= t_compute {
            "compute".to_string()
        } else if t_dram >= t_supply_max {
            "dram".to_string()
        } else {
            supply_bound
        };

        let cores = self.machine.cores_per_node() as f64;
        let core_peak_flops = self.machine.core.peak_dp().value();
        let peak_bw_core = self.machine.memory.peak_bandwidth().as_gb_per_sec() / cores;
        let gflops_core = spec.flops / time_s / 1e9;
        let gbs_core = spec.counted_bytes / time_s / 1e9;

        Prediction {
            kernel: spec.name.clone(),
            time_s,
            pct_peak_flops: (spec.flops / time_s) / core_peak_flops,
            pct_peak_bw: gbs_core / peak_bw_core,
            effective_node_gbs: gbs_core * cores,
            node_gflops: gflops_core * cores,
            compute_utilization: t_compute / time_s,
            levels,
            dram_utilization: t_dram / time_s,
            bound,
            sim,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::trace::TraceBuilder;
    use super::*;

    fn triad_spec_trace(n: u64) -> (KernelSpec, Trace) {
        let mut t = TraceBuilder::new("stream_triad");
        let a = t.array("a", 8 * n);
        let b = t.array("b", 8 * n);
        let c = t.array("c", 8 * n);
        t.open(n);
        t.read(b, 0, &[8]);
        t.read(c, 0, &[8]);
        t.write(a, 0, &[8]);
        t.close();
        (
            KernelSpec {
                name: "stream_triad".into(),
                flops: 2.0 * n as f64,
                counted_bytes: 24.0 * n as f64,
                vectorizable: 1.0,
                tuned: true,
            },
            t.build(),
        )
    }

    #[test]
    fn triad_lands_on_the_measured_sustained_fraction() {
        let p = Predictor::cte_arm_fujitsu();
        let (spec, trace) = triad_spec_trace(1 << 18);
        let pred = p.predict(&spec, &trace);
        // Streaming trace ⇒ DRAM bytes == counted bytes ⇒ %-of-peak-BW is
        // exactly the machine's measured sustained fraction (0.842).
        let expect = p.machine.memory.app_sustained_bandwidth().as_gb_per_sec()
            / p.machine.memory.peak_bandwidth().as_gb_per_sec();
        assert!(
            (pred.pct_peak_bw - expect).abs() < 1e-9,
            "triad pct {} vs sustained {expect}",
            pred.pct_peak_bw
        );
        assert_eq!(pred.bound, "dram");
        assert!(pred.pct_peak_flops < 0.03);
    }

    #[test]
    fn cache_resident_kernel_is_compute_bound() {
        // Tiny FMA-rich kernel: one resident line, many flops.
        let mut t = TraceBuilder::new("fma");
        let x = t.array("x", 256);
        t.open(1 << 16);
        t.read(x, 0, &[0]);
        t.close();
        let spec = KernelSpec {
            name: "fma".into(),
            flops: 16.0 * (1 << 16) as f64,
            counted_bytes: 8.0 * (1 << 16) as f64,
            vectorizable: 1.0,
            tuned: true,
        };
        let p = Predictor::cte_arm_fujitsu();
        let pred = p.predict(&spec, &t.build());
        assert_eq!(pred.bound, "compute");
        assert!(pred.pct_peak_flops > 0.5, "pct {}", pred.pct_peak_flops);
    }

    #[test]
    fn gathers_depress_compute_throughput() {
        let n = 1u64 << 14;
        let build = |gather: bool| {
            let mut t = TraceBuilder::new("spmv-ish");
            let x = t.array("x", 8 * n);
            let y = t.array("y", 8 * n);
            t.open(n);
            if gather {
                t.read_gather(x, 0, &[8]);
            } else {
                t.read(x, 0, &[8]);
            }
            t.write(y, 0, &[8]);
            t.close();
            t.build()
        };
        let spec = KernelSpec {
            name: "spmv-ish".into(),
            flops: 2.0 * n as f64,
            counted_bytes: 16.0 * n as f64,
            vectorizable: 1.0,
            tuned: true,
        };
        let p = Predictor::cte_arm_fujitsu();
        let unit = p.compute_time_s(&spec, &build(false));
        let gath = p.compute_time_s(&spec, &build(true));
        assert!(
            gath > 3.0 * unit,
            "gather {gath} should be ≫ unit-stride {unit}"
        );
    }

    #[test]
    fn skylake_predictor_exists_and_runs() {
        let p = Predictor::marenostrum4_intel();
        let (spec, trace) = triad_spec_trace(1 << 16);
        let pred = p.predict(&spec, &trace);
        assert!(pred.pct_peak_bw > 0.3 && pred.pct_peak_bw < 1.0);
    }
}
