//! Report formatting: plain-text tables for the terminal, and the
//! `BENCH_*.json` documents, built as [`Json`] values.

use crate::diff::Json;
use crate::experiments::{PrecisionReport, Table1Report};
use ntx_model::compare::{AreaFigure, EfficiencyFigure, PlatformRow, StencilPlatform};
use ntx_model::roofline::{Roofline, RooflinePoint};
use ntx_model::table2::Table2Row;

/// Builds a [`Json::Obj`] from `"key" => value` members, in order.
macro_rules! obj {
    ($($key:literal => $value:expr),* $(,)?) => {
        Json::Obj(vec![$(($key.to_owned(), Json::from($value))),*])
    };
}

/// A JSON array of `f` applied to each item.
fn arr<T>(items: &[T], f: impl Fn(&T) -> Json) -> Json {
    Json::Arr(items.iter().map(f).collect())
}

/// Formats Table I ("Figures of merit of one NTX cluster").
#[must_use]
pub fn table1(r: &Table1Report) -> String {
    let mut s = String::new();
    s.push_str("Table I — figures of merit of one NTX cluster (22FDX)\n");
    s.push_str(&format!(
        "  {:<28} {:>10}    (paper)\n",
        "metric", "measured"
    ));
    let rows = [
        ("peak performance [Gflop/s]", r.peak_flops / 1e9, 20.0),
        ("peak AXI bandwidth [GB/s]", r.peak_bandwidth / 1e9, 5.0),
        ("sustained conv3x3 [Gflop/s]", r.sustained_flops / 1e9, 17.4),
        (
            "banking-conflict prob. [%]",
            r.conflict_probability * 100.0,
            13.0,
        ),
        ("practical peak [Gflop/s]", r.practical_peak / 1e9, 17.4),
        ("power @ conv3x3 [mW]", r.power_w * 1e3, 186.0),
        ("efficiency [Gflop/sW]", r.efficiency / 1e9, 108.0),
        ("energy [pJ/flop]", r.pj_per_flop, 9.3),
    ];
    for (name, v, paper) in rows {
        s.push_str(&format!("  {name:<28} {v:>10.2}    ({paper})\n"));
    }
    s
}

/// Formats the Fig. 5 roofline series.
#[must_use]
pub fn fig5(points: &[RooflinePoint], roofline: &Roofline) -> String {
    let mut s = String::new();
    s.push_str("Figure 5 — roofline of one NTX cluster\n");
    s.push_str(&format!(
        "  ridge at {:.1} flop/B; peak {:.0} Gflop/s; bandwidth {:.0} GB/s\n",
        roofline.ridge(),
        roofline.peak_flops / 1e9,
        roofline.peak_bandwidth / 1e9
    ));
    s.push_str(&format!(
        "  {:<22} {:>10} {:>14} {:>10} {:>8}\n",
        "kernel", "OI [fl/B]", "perf [Gfl/s]", "limit", "util"
    ));
    for p in points {
        let bound = if roofline.is_compute_bound(p.oi) {
            "compute"
        } else {
            "memory"
        };
        s.push_str(&format!(
            "  {:<22} {:>10.3} {:>14.2} {:>10} {:>7.0}%\n",
            p.label,
            p.oi,
            p.performance / 1e9,
            bound,
            p.utilization(roofline) * 100.0
        ));
    }
    s
}

/// Formats Table II (this work + comparison platforms).
#[must_use]
pub fn table2(
    rows: &[Table2Row],
    accelerators: &[PlatformRow],
    gpus: &[PlatformRow],
    paper_geomeans: &[f64],
) -> String {
    let mut s = String::new();
    s.push_str("Table II — training energy efficiency [Gop/sW]\n");
    s.push_str(&format!(
        "  {:<12} {:>3} {:>4} {:>6} {:>4} {:>5} {:>6} | {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} | {:>7} {:>7}\n",
        "platform", "nm", "dram", "mm2", "LiM", "GHz", "Top/s", "Alex", "GooLe", "Incv3", "RN34",
        "RN50", "RN152", "geomean", "(paper)"
    ));
    for (r, paper) in rows.iter().zip(paper_geomeans) {
        s.push_str(&format!(
            "  {:<12} {:>3} {:>4} {:>6.1} {:>4} {:>5.2} {:>6.3} |",
            r.label, r.logic_nm, r.dram_nm, r.area_mm2, r.lim, r.freq_ghz, r.peak_tops
        ));
        for (_, e) in &r.efficiency {
            s.push_str(&format!(" {e:>6.1}"));
        }
        s.push_str(&format!(" | {:>7.1} {:>7.1}\n", r.geomean, paper));
    }
    s.push_str("  --- custom accelerators (literature values) ---\n");
    for p in accelerators {
        s.push_str(&platform_line(p));
    }
    s.push_str("  --- GPUs (literature values) ---\n");
    for p in gpus {
        s.push_str(&platform_line(p));
    }
    s
}

fn platform_line(p: &PlatformRow) -> String {
    let area = p
        .area_mm2
        .map_or_else(|| "   -".into(), |a| format!("{a:>6.1}"));
    let dram = p
        .dram_nm
        .map_or_else(|| "   -".into(), |d| format!("{d:>4}"));
    let mut s = format!(
        "  {:<12} {:>3} {} {} {:>4} {:>5.2} {:>6.3} |",
        p.name, p.logic_nm, dram, area, "-", p.freq_ghz, p.peak_tops
    );
    for e in &p.efficiency {
        match e {
            Some(v) => s.push_str(&format!(" {v:>6.1}")),
            None => s.push_str("      -"),
        }
    }
    s.push_str(&format!(" | {:>7.1}\n", p.geomean));
    s
}

/// Formats the Fig. 6 energy-efficiency bars.
#[must_use]
pub fn fig6(f: &EfficiencyFigure) -> String {
    let mut s = String::new();
    s.push_str("Figure 6 — training energy efficiency [Gop/sW]\n");
    for b in &f.bars {
        let bar = "#".repeat((b.value / 1.5).round() as usize);
        s.push_str(&format!(
            "  {:<10} {:>6.1} {:<10} {}\n",
            b.name, b.value, b.class, bar
        ));
    }
    s.push_str(&format!(
        "  NTX 32 (22 nm) vs best 28 nm GPU: x{:.1}   (paper: x2.5)\n",
        f.ratio_22nm
    ));
    s.push_str(&format!(
        "  NTX 64 (14 nm) vs best 16 nm GPU: x{:.1}   (paper: x3.0)\n",
        f.ratio_14nm
    ));
    s
}

/// Formats the Fig. 7 area-efficiency bars.
#[must_use]
pub fn fig7(f: &AreaFigure) -> String {
    let mut s = String::new();
    s.push_str("Figure 7 — compute per silicon area [Gop/s mm²]\n");
    for b in &f.bars {
        let bar = "#".repeat((b.value / 5.0).round() as usize);
        s.push_str(&format!(
            "  {:<10} {:>6.1} {:<10} {}\n",
            b.name, b.value, b.class, bar
        ));
    }
    s.push_str(&format!(
        "  NTX 32 (22 nm) vs best 28 nm GPU: x{:.1}   (paper: x6.5)\n",
        f.ratio_22nm
    ));
    s.push_str(&format!(
        "  NTX 64 (14 nm) vs best 16 nm GPU: x{:.1}   (paper: x10.4)\n",
        f.ratio_14nm
    ));
    s
}

/// Formats the scale-out strong-scaling experiment.
#[must_use]
pub fn scaling(r: &crate::experiments::ScalingReport) -> String {
    let mut s = String::new();
    s.push_str("Scale-out — strong scaling of one sharded workload\n");
    s.push_str(&format!("  workload: {}\n", r.workload));
    s.push_str(&format!(
        "  {:>8} {:>12} {:>12} {:>9} {:>11} {:>8} {:>9} {:>11}\n",
        "clusters", "cycles", "Gflop/s", "speedup", "efficiency", "DMA occ", "power W", "Gflop/sW"
    ));
    for p in &r.points {
        s.push_str(&format!(
            "  {:>8} {:>12} {:>12.2} {:>8.2}x {:>10.0}% {:>7.0}% {:>9.3} {:>11.1}\n",
            p.clusters,
            p.makespan_cycles,
            p.flops_per_second / 1e9,
            p.speedup,
            p.efficiency * 100.0,
            p.dma_occupancy * 100.0,
            p.power_w,
            p.flops_per_watt / 1e9,
        ));
    }
    s.push_str(&format!(
        "  outputs bit-identical across cluster counts: {}\n",
        if r.bit_identical { "yes" } else { "NO" }
    ));
    s
}

/// Formats the §II-C precision experiment.
#[must_use]
pub fn precision(r: &PrecisionReport) -> String {
    format!(
        "Section II-C — deferred-rounding precision (3x3 conv layer, 64 ch)\n  \
         NTX wide-accumulator RMSE : {:.3e}\n  \
         conventional fp32 FPU RMSE: {:.3e}\n  \
         improvement               : x{:.2}   (paper: x1.7)\n",
        r.ntx_rmse, r.fpu_rmse, r.improvement
    )
}

/// Formats the §IV Green-Wave comparison.
#[must_use]
pub fn greenwave(rows: &[StencilPlatform]) -> String {
    let mut s = String::new();
    s.push_str("Section IV — 8th-order seismic Laplacian comparison\n");
    s.push_str(&format!(
        "  {:<16} {:>12} {:>14}\n",
        "platform", "Gflop/s", "Gflop/sW"
    ));
    for r in rows {
        s.push_str(&format!(
            "  {:<16} {:>12.1} {:>14.2}\n",
            r.name, r.gflops, r.gflops_per_watt
        ));
    }
    s.push_str("  (paper estimates NTX 16 at 130 Gflop/s, 11 Gflop/sW)\n");
    s
}

/// Formats one curve of the shared-HMC saturation sweep.
fn hmc_curve_text(c: &crate::experiments::HmcWorkloadCurve) -> String {
    let mut s = String::new();
    s.push_str(&format!("  workload: {}\n", c.workload));
    s.push_str(&format!(
        "  {:>8} {:>13} {:>13} {:>9} {:>11} {:>11} {:>9} {:>5}\n",
        "clusters",
        "ideal cyc",
        "shared cyc",
        "slowdown",
        "efficiency",
        "ext GB/s",
        "DMA wait",
        "bits"
    ));
    for p in &c.points {
        s.push_str(&format!(
            "  {:>8} {:>13} {:>13} {:>8.2}x {:>10.0}% {:>11.2} {:>8.0}% {:>5}\n",
            p.clusters,
            p.ideal_makespan_cycles,
            p.contended_makespan_cycles,
            p.slowdown,
            p.efficiency * 100.0,
            p.achieved_ext_bandwidth / 1e9,
            p.ext_wait_fraction * 100.0,
            if p.bit_identical { "ok" } else { "DIFF" },
        ));
    }
    s
}

/// Formats the shared-HMC saturation measurement.
#[must_use]
pub fn hmc(r: &crate::experiments::HmcReport) -> String {
    let mut s = String::new();
    s.push_str("Shared HMC — weak-scaling saturation under the vault/LoB budget\n");
    s.push_str(&format!(
        "  shared bandwidth: {:.1} GB/s = {:.2} DMA words per NTX cycle\n",
        r.shared_bandwidth / 1e9,
        r.shared_words_per_cycle
    ));
    s.push_str(&hmc_curve_text(&r.conv));
    s.push_str(&hmc_curve_text(&r.gemm));
    s.push_str(&format!(
        "  outputs bit-identical across memory models: {}\n",
        if r.bit_identical { "yes" } else { "NO" }
    ));
    s
}

fn hmc_point_json(p: &crate::experiments::HmcScalingPoint) -> Json {
    obj! {
        "clusters" => p.clusters,
        "ideal_makespan_cycles" => p.ideal_makespan_cycles,
        "contended_makespan_cycles" => p.contended_makespan_cycles,
        "slowdown" => p.slowdown,
        "efficiency" => p.efficiency,
        "achieved_ext_bandwidth" => p.achieved_ext_bandwidth,
        "ext_wait_fraction" => p.ext_wait_fraction,
        "bit_identical" => p.bit_identical,
    }
}

fn hmc_curve_json(c: &crate::experiments::HmcWorkloadCurve) -> Json {
    obj! {
        "workload" => c.workload.as_str(),
        "points" => arr(&c.points, hmc_point_json),
    }
}

/// Builds the shared-HMC saturation measurement as the
/// `BENCH_hmc.json` artifact.
#[must_use]
pub fn hmc_json(r: &crate::experiments::HmcReport) -> Json {
    obj! {
        "shared_bandwidth" => r.shared_bandwidth,
        "shared_words_per_cycle" => r.shared_words_per_cycle,
        "conv" => hmc_curve_json(&r.conv),
        "gemm" => hmc_curve_json(&r.gemm),
        "bit_identical" => r.bit_identical,
    }
}

/// Formats one curve of the mesh weak-scaling sweep.
fn mesh_curve_text(c: &crate::experiments::MeshWorkloadCurve) -> String {
    let mut s = String::new();
    s.push_str(&format!("  workload: {}\n", c.workload));
    s.push_str(&format!(
        "  {:>8} {:>5} {:>12} {:>12} {:>12} {:>8} {:>8} {:>11} {:>9} {:>5}\n",
        "clusters",
        "cubes",
        "ideal cyc",
        "affine cyc",
        "naive cyc",
        "aff eff",
        "nai eff",
        "remote MB",
        "rem wait",
        "bits"
    ));
    for p in &c.points {
        s.push_str(&format!(
            "  {:>8} {:>5} {:>12} {:>12} {:>12} {:>7.0}% {:>7.0}% {:>11.2} {:>8.0}% {:>5}\n",
            p.clusters,
            p.cubes,
            p.ideal_makespan_cycles,
            p.affine_makespan_cycles,
            p.naive_makespan_cycles,
            p.affine_efficiency * 100.0,
            p.naive_efficiency * 100.0,
            p.naive_remote_bytes as f64 / 1e6,
            p.naive_remote_wait_fraction * 100.0,
            if p.bit_identical { "ok" } else { "DIFF" },
        ));
    }
    s
}

/// Formats the multi-cube mesh measurement.
#[must_use]
pub fn mesh(r: &crate::experiments::MeshReport) -> String {
    let mut s = String::new();
    s.push_str("HMC mesh — weak scaling over cubes, data-affine vs naive placement\n");
    s.push_str(&format!(
        "  per-cube bandwidth: {:.1} GB/s; serial link: {:.2} words/cycle, {} cycles latency\n",
        r.cube_bandwidth / 1e9,
        r.link_words_per_cycle,
        r.link_latency_cycles
    ));
    s.push_str(&mesh_curve_text(&r.conv));
    s.push_str(&mesh_curve_text(&r.gemm));
    s.push_str(&format!(
        "  outputs bit-identical across memory models and placements: {}\n",
        if r.bit_identical { "yes" } else { "NO" }
    ));
    s
}

fn mesh_point_json(p: &crate::experiments::MeshScalingPoint) -> Json {
    obj! {
        "clusters" => p.clusters,
        "cubes" => p.cubes,
        "ideal_makespan_cycles" => p.ideal_makespan_cycles,
        "affine_makespan_cycles" => p.affine_makespan_cycles,
        "naive_makespan_cycles" => p.naive_makespan_cycles,
        "affine_efficiency" => p.affine_efficiency,
        "naive_efficiency" => p.naive_efficiency,
        "affine_remote_bytes" => p.affine_remote_bytes,
        "naive_remote_bytes" => p.naive_remote_bytes,
        "naive_remote_wait_fraction" => p.naive_remote_wait_fraction,
        "bit_identical" => p.bit_identical,
    }
}

fn mesh_curve_json(c: &crate::experiments::MeshWorkloadCurve) -> Json {
    obj! {
        "workload" => c.workload.as_str(),
        "points" => arr(&c.points, mesh_point_json),
    }
}

/// Builds the mesh measurement as the `BENCH_mesh.json` artifact.
#[must_use]
pub fn mesh_json(r: &crate::experiments::MeshReport) -> Json {
    obj! {
        "cube_bandwidth" => r.cube_bandwidth,
        "link_words_per_cycle" => r.link_words_per_cycle,
        "link_latency_cycles" => r.link_latency_cycles,
        "conv" => mesh_curve_json(&r.conv),
        "gemm" => mesh_curve_json(&r.gemm),
        "bit_identical" => r.bit_identical,
    }
}

/// Formats the simulator fast-path measurement.
#[must_use]
pub fn simperf(r: &crate::experiments::SimPerfReport) -> String {
    let mut s = String::new();
    s.push_str("Simulator hot loop — burst fast path vs pure per-cycle path\n");
    for w in [&r.streaming, &r.single_ntx] {
        s.push_str(&format!(
            "  {} ({} simulated cycles, {} elements)\n",
            w.workload, w.cycles, w.elements
        ));
        s.push_str(&format!(
            "    per-cycle {:>10.3} ms ({:.3e} el/s)   burst {:>10.3} ms ({:.3e} el/s)   speedup {:.2}x\n",
            w.wall_reference_s * 1e3,
            w.elements_per_sec_reference,
            w.wall_fast_s * 1e3,
            w.elements_per_sec_fast,
            w.speedup
        ));
        s.push_str(&format!(
            "    bit-identical outputs: {}; identical cycle/stall counters: {}\n",
            w.bit_identical, w.counters_identical
        ));
    }
    s
}

/// Formats the serving-stack measurement.
#[must_use]
pub fn serving(r: &crate::experiments::ServingBenchReport) -> String {
    let mut s = String::new();
    s.push_str(
        "Serving stack — one farm for every queue runner, analytical backend, async front-end\n",
    );
    s.push_str(&format!(
        "  mixed queue: {} jobs on {} clusters\n",
        r.jobs, r.clusters
    ));
    s.push_str(&format!(
        "  barriered replay   : {:>12} cycles (same placement; {:>8} full-width)\n  \
         pipelined farm     : {:>12} cycles  (queue admitted, then drained; {:.2}x vs barriered, \
         {:.2}x vs full-width, outputs bit-identical: {}, per-job counters identical: {})\n",
        r.barriered_makespan_cycles,
        r.fullwidth_makespan_cycles,
        r.pipelined_makespan_cycles,
        r.pipelined_speedup,
        r.fullwidth_speedup,
        if r.bit_identical { "yes" } else { "NO" },
        if r.snapshots_identical { "yes" } else { "NO" },
    ));
    s.push_str(&format!(
        "  continuous farm    : {:>12} cycles  (admission interleaved with retires, outputs vs \
         barriered same-placement oracle bit-identical: {})\n",
        r.continuous_makespan_cycles,
        if r.continuous_bit_identical {
            "yes"
        } else {
            "NO"
        },
    ));
    s.push_str(&format!(
        "  analytical backend : {:>12} cycles estimated, {} simulator cycles spent\n",
        r.estimated_cycles_total, r.estimate_sim_cycles
    ));
    let st = &r.continuous;
    s.push_str(&format!(
        "  server (continuous): {} jobs, {:.1} jobs/s, latency mean {:.1} ms / max {:.1} ms, \
         occupancy {:.0}%, {} deadline misses\n",
        st.served_jobs,
        st.jobs_per_second,
        st.mean_latency_s * 1e3,
        st.max_latency_s * 1e3,
        st.occupancy * 100.0,
        st.deadline_misses
    ));
    s.push_str(&format!(
        "  worker-pool scaling ({} host cores, bit-identical to serial: {}):\n",
        r.host_cores,
        if r.pool_bit_identical { "yes" } else { "NO" },
    ));
    for p in &r.pool_scaling {
        s.push_str(&format!(
            "    {} thread{}: {:>8.1} jobs/s  ({:.2}x)\n",
            p.threads,
            if p.threads == 1 { " " } else { "s" },
            p.jobs_per_second,
            p.speedup
        ));
    }
    s
}

/// One server-run block of the `BENCH_serving.json` artifact.
fn server_run_json(st: &crate::experiments::ServerRunStats) -> Json {
    obj! {
        "served_jobs" => st.served_jobs,
        "jobs_per_second" => st.jobs_per_second,
        "mean_latency_seconds" => st.mean_latency_s,
        "max_latency_seconds" => st.max_latency_s,
        "occupancy" => st.occupancy,
        "deadline_misses" => st.deadline_misses,
    }
}

/// Builds the serving-stack measurement as the
/// `BENCH_serving.json` artifact.
#[must_use]
pub fn serving_json(r: &crate::experiments::ServingBenchReport) -> Json {
    obj! {
        "clusters" => r.clusters,
        "jobs" => r.jobs,
        "barriered_makespan_cycles" => r.barriered_makespan_cycles,
        "fullwidth_makespan_cycles" => r.fullwidth_makespan_cycles,
        "pipelined_makespan_cycles" => r.pipelined_makespan_cycles,
        "pipelined_speedup" => r.pipelined_speedup,
        "fullwidth_speedup" => r.fullwidth_speedup,
        "bit_identical" => r.bit_identical,
        "snapshots_identical" => r.snapshots_identical,
        "continuous_makespan_cycles" => r.continuous_makespan_cycles,
        "continuous_bit_identical" => r.continuous_bit_identical,
        "estimated_cycles_total" => r.estimated_cycles_total,
        "estimate_sim_cycles" => r.estimate_sim_cycles,
        "server_continuous" => server_run_json(&r.continuous),
        "host_cores" => r.host_cores,
        "pool_bit_identical" => r.pool_bit_identical,
        "pool_speedup_4x" => r.pool_speedup_4x,
        "pool_scaling" => arr(&r.pool_scaling, |p| obj! {
            "threads" => p.threads,
            "jobs_per_second" => p.jobs_per_second,
            "speedup" => p.speedup,
        }),
    }
}

fn simperf_workload_json(w: &crate::experiments::SimPerfWorkload) -> Json {
    obj! {
        "workload" => w.workload,
        "simulated_cycles" => w.cycles,
        "simulated_elements" => w.elements,
        "flops" => w.flops,
        "wall_seconds_fast" => w.wall_fast_s,
        "wall_seconds_per_cycle" => w.wall_reference_s,
        "elements_per_sec_fast" => w.elements_per_sec_fast,
        "elements_per_sec_per_cycle" => w.elements_per_sec_reference,
        "speedup" => w.speedup,
        "bit_identical" => w.bit_identical,
        "counters_identical" => w.counters_identical,
    }
}

/// Builds the simulator fast-path measurement as the
/// `BENCH_sim.json` artifact.
#[must_use]
pub fn simperf_json(r: &crate::experiments::SimPerfReport) -> Json {
    obj! {
        "workloads" => Json::Arr(vec![
            simperf_workload_json(&r.streaming),
            simperf_workload_json(&r.single_ntx),
        ]),
    }
}

/// Renders the chaos / robustness measurement for the terminal.
#[must_use]
pub fn chaos(r: &crate::experiments::ChaosBenchReport) -> String {
    let mut s = String::new();
    s.push_str("Chaos serving — fault injection, recovery, overload control\n");
    s.push_str(&format!(
        "  trace: {} jobs on {} clusters, closed-loop calibration {} cycles\n",
        r.jobs, r.clusters, r.calib_makespan_cycles
    ));
    s.push_str(&format!(
        "  recovery (kill 1/{} + stalls): {} -> {} cycles ({:.3}x, bound {:.3}x), \
         {} jobs lost, outputs bit-identical: {}\n",
        r.clusters,
        r.baseline_makespan_cycles,
        r.faulted_makespan_cycles,
        r.makespan_ratio,
        r.degradation_bound,
        r.jobs_lost,
        if r.recovery_bit_identical {
            "yes"
        } else {
            "NO"
        },
    ));
    s.push_str(&format!(
        "    {} faults injected, {} shards re-placed, {} stall cycles absorbed\n",
        r.faults_injected, r.shards_retried, r.fault_stall_cycles
    ));
    for (mode, st) in [("0.5x load", &r.unsaturated), ("2.0x load", &r.saturated)] {
        s.push_str(&format!(
            "  {mode}: {}/{} completed, {} shed, latency p50/p99/p999 = {}/{}/{} cycles, \
             miss rate {:.1}%\n",
            st.completed,
            st.offered,
            st.shed,
            st.p50_cycles,
            st.p99_cycles,
            st.p999_cycles,
            st.miss_rate() * 100.0,
        ));
    }
    s.push_str(&format!(
        "  shedding: accepted-job p99 ratio {:.3}x (bound {:.1}x), budget {} cycles\n",
        r.p99_ratio, r.p99_bound, r.budget_cycles
    ));
    s.push_str(&format!(
        "  link fault (1/4 bandwidth): remote wait {} -> {} cycles, outputs bit-identical: {}\n",
        r.link_wait_base_cycles,
        r.link_wait_faulted_cycles,
        if r.link_bit_identical { "yes" } else { "NO" },
    ));
    s.push_str(&format!(
        "  async front-end: {} submitted, {} completed, {} backpressure, \
         every outcome explicit: {}\n",
        r.async_submitted,
        r.async_completed,
        r.async_backpressure,
        if r.async_all_explicit { "yes" } else { "NO" },
    ));
    s
}

/// One open-loop run block of the `BENCH_chaos.json` artifact.
fn chaos_run_json(st: &crate::experiments::ChaosRunStats) -> Json {
    obj! {
        "offered" => st.offered,
        "completed" => st.completed,
        "shed" => st.shed,
        "deadline_misses" => st.deadline_misses,
        "miss_rate" => st.miss_rate(),
        "p50_cycles" => st.p50_cycles,
        "p99_cycles" => st.p99_cycles,
        "p999_cycles" => st.p999_cycles,
        "makespan_cycles" => st.makespan_cycles,
    }
}

/// Builds the chaos measurement as the `BENCH_chaos.json`
/// artifact.
#[must_use]
pub fn chaos_json(r: &crate::experiments::ChaosBenchReport) -> Json {
    obj! {
        "clusters" => r.clusters,
        "jobs" => r.jobs,
        "calib_makespan_cycles" => r.calib_makespan_cycles,
        "budget_cycles" => r.budget_cycles,
        "baseline_makespan_cycles" => r.baseline_makespan_cycles,
        "faulted_makespan_cycles" => r.faulted_makespan_cycles,
        "makespan_ratio" => r.makespan_ratio,
        "degradation_bound" => r.degradation_bound,
        "jobs_lost" => r.jobs_lost,
        "recovery_bit_identical" => r.recovery_bit_identical,
        "faults_injected" => r.faults_injected,
        "shards_retried" => r.shards_retried,
        "fault_stall_cycles" => r.fault_stall_cycles,
        "unsaturated" => chaos_run_json(&r.unsaturated),
        "saturated" => chaos_run_json(&r.saturated),
        "p99_ratio" => r.p99_ratio,
        "p99_bound" => r.p99_bound,
        "link_wait_base_cycles" => r.link_wait_base_cycles,
        "link_wait_faulted_cycles" => r.link_wait_faulted_cycles,
        "link_bit_identical" => r.link_bit_identical,
        "async_submitted" => r.async_submitted,
        "async_completed" => r.async_completed,
        "async_backpressure" => r.async_backpressure,
        "async_all_explicit" => r.async_all_explicit,
    }
}

/// Formats the native-CPU backend report as a text table.
#[must_use]
pub fn cpu(r: &crate::experiments::CpuBenchReport) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "Native CPU backend vs cycle-accurate simulator ({} host cores, {} worker threads)\n",
        r.host_cores, r.threads
    ));
    s.push_str(&format!(
        "  {:<18} {:>8} {:>12} {:>12} {:>12} {:>9} {:>9} {:>6} {:>11}\n",
        "workload",
        "elems",
        "sim [ms]",
        "fast [us]",
        "exact [us]",
        "fast x",
        "exact x",
        "bits",
        "fast rmse"
    ));
    for p in &r.workloads {
        s.push_str(&format!(
            "  {:<18} {:>8} {:>12.3} {:>12.2} {:>12.2} {:>9.0} {:>9.0} {:>6} {:>11.3e}\n",
            p.workload,
            p.elements,
            p.sim_wall_s * 1e3,
            p.fast_wall_s * 1e6,
            p.exact_wall_s * 1e6,
            p.fast_speedup,
            p.exact_speedup,
            if p.exact_bit_identical { "ok" } else { "FAIL" },
            p.fast_rmse
        ));
    }
    s.push_str(&format!(
        "  exact mode bit-identical: {}   gated fast speedup (conv3x3, dot-4096): {:.0}x\n",
        if r.exact_bit_identical { "yes" } else { "NO" },
        r.gated_fast_speedup
    ));
    s
}

fn cpu_point_json(p: &crate::experiments::CpuWorkloadPoint) -> Json {
    obj! {
        "workload" => p.workload.as_str(),
        "elements" => p.elements,
        "sim_wall_s" => p.sim_wall_s,
        "fast_wall_s" => p.fast_wall_s,
        "exact_wall_s" => p.exact_wall_s,
        "fast_speedup" => p.fast_speedup,
        "exact_speedup" => p.exact_speedup,
        "exact_bit_identical" => p.exact_bit_identical,
        "fast_rmse" => p.fast_rmse,
        "fast_max_abs_err" => p.fast_max_abs_err,
    }
}

/// Formats the native-CPU backend report as JSON (for `BENCH_cpu.json`).
#[must_use]
pub fn cpu_json(r: &crate::experiments::CpuBenchReport) -> Json {
    obj! {
        "host_cores" => r.host_cores,
        "threads" => r.threads,
        "workloads" => arr(&r.workloads, cpu_point_json),
        "exact_bit_identical" => r.exact_bit_identical,
        "gated_fast_speedup" => r.gated_fast_speedup,
    }
}

/// Formats the training-step DAG report as a text table.
#[must_use]
pub fn dnn(r: &crate::experiments::DnnBenchReport) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "Whole-network training step as a job DAG: {} (batch {}), {} GEMM ops, \
         dims capped to {}, {} clusters\n",
        r.network, r.batch, r.ops, r.dim_cap, r.clusters
    ));
    s.push_str(&format!(
        "  {:<18} {:>6} {:>8} {:>12} {:>16} {:>6}\n",
        "run", "jobs", "failed", "wall [ms]", "makespan [cyc]", "order"
    ));
    for run in &r.runs {
        s.push_str(&format!(
            "  {:<18} {:>6} {:>8} {:>12.2} {:>16} {:>6}\n",
            run.backend,
            run.jobs,
            run.failed,
            run.wall_s * 1e3,
            run.makespan_cycles,
            if run.order_topological { "ok" } else { "FAIL" }
        ));
    }
    s.push_str(&format!(
        "  sim == native-exact bitwise: {}   sim rerun bitwise-identical: {}\n",
        if r.sim_native_bit_identical {
            "yes"
        } else {
            "NO"
        },
        if r.sim_deterministic { "yes" } else { "NO" }
    ));
    s.push_str(&format!(
        "  split-K vs resident oracle bit-identical: {}   deep GEMM 8x6000x4 \
         bit-identical: {} (fast-mode max |err| {:.3e})\n",
        if r.split_oracle_bit_identical {
            "yes"
        } else {
            "NO"
        },
        if r.deep_split_bit_identical {
            "yes"
        } else {
            "NO"
        },
        r.deep_fast_max_abs_err
    ));
    s.push_str(&format!(
        "  executed DAG: {:.3} MMAC   full-size step: {:.2} GMAC, Table II model \
         predicts {:.1} ms ({:.1} Gflop) on {} clusters\n",
        r.scaled_macs as f64 / 1e6,
        r.full_macs as f64 / 1e9,
        r.predicted_step_s * 1e3,
        r.predicted_flops / 1e9,
        r.clusters
    ));
    s
}

fn dnn_run_json(run: &crate::experiments::DnnStepRun) -> Json {
    obj! {
        "backend" => run.backend.as_str(),
        "jobs" => run.jobs,
        "failed" => run.failed,
        "wall_s" => run.wall_s,
        "makespan_cycles" => run.makespan_cycles,
        "order_topological" => run.order_topological,
    }
}

/// Formats the training-step DAG report as JSON (for `BENCH_dnn.json`).
#[must_use]
pub fn dnn_json(r: &crate::experiments::DnnBenchReport) -> Json {
    obj! {
        "network" => r.network.as_str(),
        "ops" => r.ops,
        "batch" => r.batch,
        "dim_cap" => r.dim_cap,
        "clusters" => r.clusters,
        "scaled_macs" => r.scaled_macs,
        "full_macs" => r.full_macs,
        "runs" => arr(&r.runs, dnn_run_json),
        "sim_native_bit_identical" => r.sim_native_bit_identical,
        "sim_deterministic" => r.sim_deterministic,
        "split_oracle_bit_identical" => r.split_oracle_bit_identical,
        "deep_split_bit_identical" => r.deep_split_bit_identical,
        "deep_fast_max_abs_err" => r.deep_fast_max_abs_err,
        "predicted_step_s" => r.predicted_step_s,
        "predicted_flops" => r.predicted_flops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments;
    use ntx_dnn::TrainingModel;
    use ntx_model::{compare, table2 as t2};

    #[test]
    fn all_formatters_produce_nonempty_output() {
        let t1 = experiments::table1_report();
        assert!(table1(&t1).contains("Table I"));
        let pts = experiments::fig5_points();
        let r = Roofline::default();
        let out = fig5(&pts, &r);
        assert!(out.contains("CONV 3x3") && out.contains("GEMM 1024"));
        let rows = t2::this_work_rows(&TrainingModel::default());
        let paper = [22.5, 29.3, 36.7, 35.9, 47.5, 60.4, 70.6, 76.0, 78.7];
        let out = table2(&rows, &compare::accelerators(), &compare::gpus(), &paper);
        assert!(out.contains("ScaleDeep") && out.contains("GTX 1080 Ti"));
        let out = fig6(&compare::figure6(&TrainingModel::default()));
        assert!(out.contains("paper: x2.5"));
        let out = fig7(&compare::figure7());
        assert!(out.contains("paper: x10.4"));
        let out = precision(&experiments::precision_experiment());
        assert!(out.contains("improvement"));
        let out = greenwave(&experiments::greenwave_rows());
        assert!(out.contains("Green Wave"));
    }
}
