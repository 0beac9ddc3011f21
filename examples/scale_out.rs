//! Scale-out: shard a job queue across multiple NTX clusters.
//!
//! Demonstrates the `ntx-sched` runtime: a convolution, a GEMM, an
//! AXPY and a stencil are submitted to a job queue, tiled across four
//! simulated clusters with double-buffered DMA, space-shared and
//! pipelined by the cluster farm, and executed with bit-identical
//! results to a single-cluster run — at a fraction of the makespan.
//!
//! Run with `cargo run --release --example scale_out`.

use ntx::kernels::blas::GemmKernel;
use ntx::kernels::conv::Conv2dKernel;
use ntx::model::power::EnergyModel;
use ntx::sched::{JobQueue, ScaleOutConfig, ScaleOutExecutor};

fn data(n: usize, mut seed: u32) -> Vec<f32> {
    (0..n)
        .map(|_| {
            seed ^= seed << 13;
            seed ^= seed >> 17;
            seed ^= seed << 5;
            (seed as f32 / u32::MAX as f32) * 2.0 - 1.0
        })
        .collect()
}

fn build_queue() -> JobQueue {
    let mut queue = JobQueue::new();
    let kernel = Conv2dKernel {
        height: 98,
        width: 63,
        k: 3,
        filters: 4,
    };
    queue
        .job("conv3x3 96x61x4")
        .conv2d(
            kernel,
            data((kernel.height * kernel.width) as usize, 0xaa55),
            data((kernel.k * kernel.k * kernel.filters) as usize, 0x1234),
        )
        .submit();
    let dims = GemmKernel {
        m: 48,
        k: 32,
        n: 24,
    };
    queue
        .job("gemm 48x32x24")
        .gemm(
            dims,
            data((dims.m * dims.k) as usize, 7),
            data((dims.k * dims.n) as usize, 9),
        )
        .submit();
    // Two small jobs: the space-sharing placement packs these onto the
    // clusters the bigger jobs leave idle, so they run concurrently.
    queue
        .job("axpy 1000")
        .axpy(1.5, data(1000, 0x11), data(1000, 0x22))
        .submit();
    queue
        .job("stencil 40x23")
        .stencil2d(40, 23, data(40 * 23, 0x33))
        .submit();
    queue
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Run the same queue on 1 and on 4 clusters.
    let mut single = ScaleOutExecutor::new(ScaleOutConfig::with_clusters(1));
    let base = single.run_queue(&mut build_queue())?;

    let mut wide = ScaleOutExecutor::new(ScaleOutConfig::with_clusters(4));
    let batch = wide.run_queue(&mut build_queue())?;

    println!(
        "scale-out demo: {} jobs on 4 clusters (pipelined farm)",
        batch.results.len()
    );
    for (r1, r4) in base.results.iter().zip(&batch.results) {
        let identical = r1
            .output
            .iter()
            .zip(&r4.output)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        println!(
            "  {:<18} {:>9} -> {:>8} cycles ({:.2}x), outputs bit-identical: {}",
            r4.label,
            r1.report.makespan_cycles,
            r4.report.makespan_cycles,
            r4.report.speedup_vs(&r1.report),
            identical
        );
        assert!(identical, "sharding must not change results");
    }

    let model = EnergyModel::tapeout();
    let energy = batch.report.energy(&model);
    println!(
        "  batch: {:.2} Gflop/s aggregate, {:.0}% DMA occupancy, {:.3} W, {:.1} Gflop/sW",
        batch.report.flops_per_second() / 1e9,
        batch.report.dma_occupancy() * 100.0,
        energy.power_w,
        energy.flops_per_watt / 1e9,
    );
    println!(
        "  strong scaling vs 1 cluster: {:.2}x speedup, {:.0}% efficiency",
        batch.report.speedup_vs(&base.report),
        batch.report.scaling_efficiency_vs(&base.report) * 100.0,
    );

    // The barriered accounting of the same per-job windows: every job
    // waits for its predecessor's slowest cluster, so the batch takes
    // their sum. The farm overlaps the jobs instead — same per-job
    // results, smaller batch makespan.
    let barriered: u64 = batch.results.iter().map(|r| r.report.makespan_cycles).sum();
    println!(
        "  inter-job pipelining: {} -> {} cycles ({:.2}x vs the barriered accounting)",
        barriered,
        batch.report.makespan_cycles,
        barriered as f64 / batch.report.makespan_cycles as f64,
    );
    Ok(())
}
