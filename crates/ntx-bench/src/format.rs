//! Report formatting: the `BENCH_*.json` documents, built as [`Json`]
//! values, and their terminal rendering ([`text`]); plus plain-text
//! tables for the paper reports that write no document, since they
//! print paper reference values beside the measured ones.

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

/// Renders a `BENCH_*.json` document for the terminal under `title`.
/// Scalar members print as aligned `key  value` lines, nested objects
/// as indented blocks, and arrays of objects as tables, one row per
/// element under a header of their keys. Flags read `yes`/`NO`;
/// integers print in full, other numbers to about 4 significant
/// digits.
#[must_use]
pub fn text(title: &str, doc: &Json) -> String {
    let mut out = format!("{title}\n");
    match doc {
        Json::Obj(fields) => block(&mut out, fields, "  "),
        other => out.push_str(&format!("  {}\n", cell(other))),
    }
    out
}

/// Writes `fields`, one member per line, at indent `pad`.
fn block(out: &mut String, fields: &[(String, Json)], pad: &str) {
    let width = fields
        .iter()
        .filter(|(_, v)| is_scalar(v))
        .map(|(k, _)| k.chars().count())
        .max()
        .unwrap_or(0);
    let inner = format!("{pad}  ");
    for (key, value) in fields {
        match value {
            Json::Obj(members) => {
                out.push_str(&format!("{pad}{key}:\n"));
                block(out, members, &inner);
            }
            Json::Arr(items) => {
                out.push_str(&format!("{pad}{key}:\n"));
                table(out, items, &inner);
            }
            scalar => out.push_str(&format!("{pad}{key:<width$}  {}\n", cell(scalar))),
        }
    }
}

fn is_scalar(v: &Json) -> bool {
    !matches!(v, Json::Obj(_) | Json::Arr(_))
}

/// Writes objects of scalars that share their keys as a table under a
/// header of those keys, each column right-aligned to its widest cell;
/// any other array as a block of `[i]` members.
fn table(out: &mut String, items: &[Json], pad: &str) {
    let keys: Vec<&str> = match items.first() {
        Some(Json::Obj(fields)) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        _ => Vec::new(),
    };
    let rows: Option<Vec<Vec<String>>> = items
        .iter()
        .map(|item| match item {
            Json::Obj(fields)
                if fields.len() == keys.len()
                    && fields
                        .iter()
                        .zip(&keys)
                        .all(|((k, v), key)| k == key && is_scalar(v)) =>
            {
                Some(fields.iter().map(|(_, v)| cell(v)).collect())
            }
            _ => None,
        })
        .collect();
    let Some(rows) = rows.filter(|_| !keys.is_empty()) else {
        let indexed: Vec<(String, Json)> = items
            .iter()
            .enumerate()
            .map(|(i, v)| (format!("[{i}]"), v.clone()))
            .collect();
        return block(out, &indexed, pad);
    };
    let header = keys.iter().map(|k| (*k).to_owned()).collect();
    let lines: Vec<Vec<String>> = std::iter::once(header).chain(rows).collect();
    let widths: Vec<usize> = (0..keys.len())
        .map(|c| {
            lines
                .iter()
                .map(|l| l[c].chars().count())
                .max()
                .unwrap_or(0)
        })
        .collect();
    for line in &lines {
        let cells: Vec<String> = line
            .iter()
            .zip(&widths)
            .map(|(s, &w)| format!("{s:>w$}"))
            .collect();
        out.push_str(&format!("{pad}{}\n", cells.join("  ")));
    }
}

/// One scalar as text: flags `yes`/`NO`, integers in full, other
/// finite numbers to about 4 significant digits.
fn cell(v: &Json) -> String {
    match v {
        Json::Bool(b) => (if *b { "yes" } else { "NO" }).to_owned(),
        // `fract` of an infinity is NaN, so this arm is finite only.
        Json::Num(x) if x.fract() == 0.0 => format!("{x:.0}"),
        Json::Num(x) if (1e-3..1e6).contains(&x.abs()) => {
            format!("{x:.*}", (3.0 - x.abs().log10().floor()) as usize)
        }
        Json::Num(x) if x.is_finite() => format!("{x:.3e}"),
        Json::Str(s) => s.clone(),
        other => other.to_string(),
    }
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

    #[test]
    fn text_renders_a_document_to_an_exact_string() {
        let doc = obj! {
            "clusters" => 8u32,
            "makespan_ratio" => 1.10378,
            "bit_identical" => true,
            "err" => 3.9e-5,
            "bandwidth" => 31_999_999_999.5,
            "unsaturated" => obj! { "offered" => 64u32, "deadline_misses" => 0u32 },
            "runs" => Json::Arr(vec![
                obj! { "backend" => "simulator", "jobs" => 23u32, "ok" => true },
                obj! { "backend" => "native", "jobs" => 5u32, "ok" => false },
            ]),
            "split_ok" => false,
        };
        let expect = "\
Chaos
  clusters        8
  makespan_ratio  1.104
  bit_identical   yes
  err             3.900e-5
  bandwidth       3.200e10
  unsaturated:
    offered          64
    deadline_misses  0
  runs:
      backend  jobs   ok
    simulator    23  yes
       native     5   NO
  split_ok        NO
";
        assert_eq!(text("Chaos", &doc), expect);
    }
}
