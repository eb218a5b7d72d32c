//! The cache-model kernel registry: every kernel the paper measures a
//! %-of-peak for, paired with its symbolic access trace and per-core
//! work spec, so the `cache-model` subcommand, the validation goldens and
//! the property tests all drive the same inputs.
//!
//! Sizes are one core's shard of a full-node run — the hierarchy configs
//! in [`arch::cachesim`] are per-core slices for the same reason. Shards
//! are chosen to exceed the per-core L2 slice (so DRAM steady state is
//! real) while keeping simulated access counts in the few-million range.

use arch::cachesim::{KernelSpec, Prediction, Predictor};
use arch::machines::Machine;
use arch::Trace;
use kernels::cg::spmv_csr_traffic_trace;
use kernels::gemm::gemm_traffic_trace;
use kernels::stencil::ocean_traffic_trace;
use kernels::stencil_matrix::stencil_spmv_traffic_trace;
use kernels::stream::StreamKernel;

/// One registry entry: a kernel spec plus the trace that realises it.
pub struct CacheModelEntry {
    /// Stable kernel key (used in golden CSVs and CLI output).
    pub key: &'static str,
    /// The per-core work description handed to the predictor.
    pub spec: KernelSpec,
    /// The access trace handed to the simulator.
    pub trace: Trace,
}

/// STREAM shard: 2 MiB per array per core, far beyond the L2 slice.
const STREAM_N: u64 = 1 << 18;
/// DGEMM per-core tile: 192³ (the hostbench size) keeps the packed A
/// panel L2-resident.
const GEMM_DIM: u64 = 192;
/// CSR SpMV per-core grid shard.
const CSR_GRID: (u64, u64, u64) = (32, 32, 64);
/// Stencil-packed SpMV per-core grid shard — big enough that `x` (its
/// whole working set, 2 MiB) streams through the per-core L2 slice.
const ST_GRID: (u64, u64, u64) = (64, 64, 64);
/// Ocean shallow-water per-core row shard: 2 MiB per field.
const OCEAN: (u64, u64) = (1024, 256);

fn stream_entry(k: StreamKernel, key: &'static str) -> CacheModelEntry {
    let trace = k.traffic_trace(STREAM_N);
    CacheModelEntry {
        key,
        spec: KernelSpec {
            name: key.into(),
            flops: k.flops_per_element() as f64 * STREAM_N as f64,
            counted_bytes: k.bytes_per_element() as f64 * STREAM_N as f64,
            vectorizable: 1.0,
            tuned: true,
        },
        trace,
    }
}

/// Build the registry: the four paper-anchored kernels plus STREAM copy.
pub fn registry() -> Vec<CacheModelEntry> {
    let mut entries = vec![
        stream_entry(StreamKernel::Triad, "stream_triad"),
        stream_entry(StreamKernel::Copy, "stream_copy"),
    ];
    let (m, n, k) = (GEMM_DIM, GEMM_DIM, GEMM_DIM);
    let gemm_trace = gemm_traffic_trace(m, n, k);
    entries.push(CacheModelEntry {
        key: "dgemm",
        spec: KernelSpec {
            name: "dgemm".into(),
            flops: (2 * m * n * k) as f64,
            counted_bytes: gemm_trace.nominal_bytes() as f64,
            vectorizable: 1.0,
            tuned: true,
        },
        trace: gemm_trace,
    });
    let (cx, cy, cz) = CSR_GRID;
    let csr_trace = spmv_csr_traffic_trace(cx, cy, cz);
    let rows = cx * cy * cz;
    entries.push(CacheModelEntry {
        key: "spmv_csr",
        spec: KernelSpec {
            name: "spmv_csr".into(),
            flops: (2 * 27 * rows) as f64,
            counted_bytes: csr_trace.nominal_bytes() as f64,
            vectorizable: 1.0,
            tuned: true,
        },
        trace: csr_trace,
    });
    let (sx, sy, sz) = ST_GRID;
    let st_trace = stencil_spmv_traffic_trace(sx, sy, sz);
    let st_rows = sx * sy * sz;
    entries.push(CacheModelEntry {
        key: "spmv_stencil",
        spec: KernelSpec {
            name: "spmv_stencil".into(),
            flops: (2 * 27 * st_rows) as f64,
            counted_bytes: st_trace.nominal_bytes() as f64,
            vectorizable: 1.0,
            tuned: true,
        },
        trace: st_trace,
    });
    let (ox, oy) = OCEAN;
    let ocean_trace = ocean_traffic_trace(ox, oy);
    let cells = ox * oy;
    entries.push(CacheModelEntry {
        key: "stencil_ocean",
        spec: KernelSpec {
            name: "stencil_ocean".into(),
            // OceanGrid::step books ~10 flops and 7 f64 touches per cell.
            flops: (10 * cells) as f64,
            counted_bytes: (7 * 8 * cells) as f64,
            vectorizable: 1.0,
            tuned: true,
        },
        trace: ocean_trace,
    });
    entries
}

/// Predict every registry kernel on a machine. Returns `None` when the
/// predictor has no hierarchy config for it.
pub fn predict_all(machine: &Machine) -> Option<Vec<(CacheModelEntry, Prediction)>> {
    let predictor = Predictor::for_machine(machine)?;
    Some(
        registry()
            .into_iter()
            .map(|e| {
                let p = predictor.predict(&e.spec, &e.trace);
                (e, p)
            })
            .collect(),
    )
}

/// Render the per-level hit/miss/traffic table plus the %-of-peak
/// prediction for every registry kernel — the `cache-model` subcommand
/// body, kept here so tests can cover it without a process spawn.
pub fn render_report(machine: &Machine) -> Option<String> {
    let rows = predict_all(machine)?;
    let mut out = String::new();
    out.push_str(&format!("cache model — {}\n", machine.name));
    for (e, p) in &rows {
        let sim = &p.sim;
        out.push_str(&format!(
            "\n{}  ({} flops, counted {:.1} MiB)\n",
            e.key,
            e.spec.flops,
            e.spec.counted_bytes / (1024.0 * 1024.0)
        ));
        for lvl in &sim.levels {
            out.push_str(&format!(
                "  {:<4} accesses {:>12}  hits {:>12}  misses {:>10}  hit-rate {:>6.2}%\n",
                lvl.name,
                lvl.accesses,
                lvl.hits,
                lvl.misses,
                100.0 * lvl.hit_rate()
            ));
        }
        out.push_str(&format!(
            "  DRAM read {:.2} MiB, write {:.2} MiB (nominal {:.2} MiB)\n",
            sim.dram_read_bytes() as f64 / (1024.0 * 1024.0),
            sim.dram_write_bytes() as f64 / (1024.0 * 1024.0),
            sim.nominal_bytes as f64 / (1024.0 * 1024.0)
        ));
        out.push_str(&format!(
            "  predicted: {:.1} GFLOP/s/node  {:.2}% of peak flops  {:.1}% of peak BW  bound: {}\n",
            p.node_gflops,
            100.0 * p.pct_peak_flops,
            100.0 * p.pct_peak_bw,
            p.bound
        ));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;
    use arch::machines::{cte_arm, marenostrum4};

    #[test]
    fn registry_has_the_paper_kernels() {
        let keys: Vec<&str> = registry().iter().map(|e| e.key).collect();
        for k in [
            "stream_triad",
            "stream_copy",
            "dgemm",
            "spmv_csr",
            "spmv_stencil",
            "stencil_ocean",
        ] {
            assert!(keys.contains(&k), "missing registry kernel {k}");
        }
    }

    #[test]
    fn report_renders_all_kernels_for_both_machines() {
        for m in [cte_arm(), marenostrum4()] {
            let r = render_report(&m).expect("predictor for paper machine");
            for e in registry() {
                assert!(r.contains(e.key), "{} missing {}", m.name, e.key);
            }
            assert!(r.contains("DRAM read"));
        }
    }

    #[test]
    fn unknown_machine_yields_none() {
        let mut m = cte_arm();
        m.name = "mystery-box".into();
        assert!(render_report(&m).is_none());
        assert!(predict_all(&m).is_none());
    }

    #[test]
    fn json_block_is_balanced_and_complete() {
        // The snapshot's `cache` section, rendered as `bench-all --json`
        // renders it: one object per registry kernel, in registry order.
        let rows = predict_all(&cte_arm()).unwrap();
        let mut w = crate::json::Writer::pretty();
        crate::hostbench::write_cache_rows(&mut w, &rows);
        let v = crate::json::parse(&w.finish()).expect("the section parses");
        let parsed = v.as_array().unwrap();
        assert_eq!(parsed.len(), registry().len());
        for (row, (e, p)) in parsed.iter().zip(&rows) {
            assert_eq!(row.get("kernel").and_then(Value::as_str), Some(e.key));
            assert_eq!(
                row.get("dram_bytes").and_then(Value::as_u64),
                Some(p.sim.dram_bytes())
            );
            assert_eq!(row.get("bound").and_then(Value::as_str), Some(&*p.bound));
            for key in ["nominal_bytes", "pct_peak_flops", "pct_peak_bw"] {
                assert!(row.get(key).is_some(), "{} lacks {key}", e.key);
            }
        }
    }
}
