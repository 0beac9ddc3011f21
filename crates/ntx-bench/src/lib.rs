//! Experiment harness: one runner per table/figure of the paper.
//!
//! Each function reproduces one evaluation artifact end to end —
//! running the cycle simulator where the paper ran its gate-level
//! simulation, and the calibrated analytical models where the paper
//! extrapolated — and returns the data the paper's table or figure
//! plots. The `report-*` binaries print them. The seven that record a
//! `BENCH_*.json` document print that same document through
//! [`format::text`]; `report-simperf` times the simulator hot loop.

#![forbid(unsafe_code)]

pub mod diff;
pub mod experiments;
pub mod format;
mod process;

pub use experiments::{
    chaos_report, cpu_report, dnn_report, fig5_points, greenwave_rows, hmc_report,
    hmc_report_sweep, mesh_report, mesh_report_sweep, precision_experiment, scaling_report,
    serving_report, simperf_report, table1_report, ChaosBenchReport, ChaosRunStats, CpuBenchReport,
    CpuWorkloadPoint, DnnBenchReport, DnnStepRun, HmcReport, HmcScalingPoint, HmcWorkloadCurve,
    MeshReport, MeshScalingPoint, MeshWorkloadCurve, PrecisionReport, ScalingPoint, ScalingReport,
    ServingBenchReport, SimPerfReport, SimPerfWorkload, Table1Report,
};
pub use process::write_bench;
