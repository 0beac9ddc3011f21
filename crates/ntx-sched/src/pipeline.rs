//! Per-cluster pipeline execution.
//!
//! The double-buffered DMA state machine lives next to the tile
//! builders in [`ntx_kernels::schedule`] so the blocking `run_tiles`
//! wrapper and this crate's multi-cluster executor share one copy of
//! the §II-E schedule (watermark rule, prefetch ordering, ping-pong
//! safety). The executor drives one pipeline per cluster step by step,
//! so N independent cluster simulations run deterministically, with
//! bit-identical results whichever thread steps each cluster.

pub use ntx_kernels::schedule::TilePipeline;

#[cfg(test)]
mod tests {
    use super::*;
    use ntx_kernels::reference;
    use ntx_kernels::schedule::{axpy_tiles, run_tiles};
    use ntx_sim::{Cluster, ClusterConfig};

    #[test]
    fn empty_pipeline_is_done_immediately() {
        let mut cluster = Cluster::new(ClusterConfig::default());
        let mut p = TilePipeline::new(&mut cluster, Vec::new());
        assert!(!p.is_busy());
        assert!(!p.step(&mut cluster));
    }

    #[test]
    fn matches_blocking_run_tiles() {
        let n = 1500u32;
        let a = 2.5f32;
        let x: Vec<f32> = (0..n).map(|i| (i as f32) * 0.01 - 3.0).collect();
        let y: Vec<f32> = (0..n).map(|i| 1.0 - (i as f32) * 0.02).collect();

        // Blocking schedule.
        let mut c1 = Cluster::new(ClusterConfig::default());
        c1.ext_mem().write_f32_slice(0, &x);
        c1.ext_mem().write_f32_slice(0x10_0000, &y);
        let tiles = axpy_tiles(&c1, n, a, 0, 0x10_0000, 256);
        let perf1 = run_tiles(&mut c1, &tiles);
        let out1 = c1.ext_mem().read_f32_slice(0x10_0000, n as usize);

        // Stepped state machine.
        let mut c2 = Cluster::new(ClusterConfig::default());
        c2.ext_mem().write_f32_slice(0, &x);
        c2.ext_mem().write_f32_slice(0x10_0000, &y);
        let before = c2.perf();
        let mut p = TilePipeline::new(&mut c2, tiles);
        p.run_to_completion(&mut c2);
        let perf2 = c2.perf().since(&before);
        let out2 = c2.ext_mem().read_f32_slice(0x10_0000, n as usize);

        let mut expect = y;
        reference::axpy(a, &x, &mut expect);
        assert_eq!(out1, expect);
        assert_eq!(out2, expect);
        assert_eq!(perf1.flops, perf2.flops);
        assert_eq!(perf1.dma_bytes, perf2.dma_bytes);
        assert_eq!(perf1.cycles, perf2.cycles);
    }

    /// The tiler puts operands at `EXT_IN0`, `EXT_IN1` (16 MiB) and
    /// `EXT_OUT` (32 MiB). A sparse store holds only the pages a shard
    /// touches: at most one per region for serve-mix's largest shapes.
    #[test]
    fn tiled_shards_keep_ext_memory_to_the_pages_they_touch() {
        use crate::{Job, JobKind, ReadbackSource, Tiler};
        use ntx_kernels::blas::GemmKernel;
        use ntx_kernels::conv::Conv2dKernel;

        let data = |n: usize| -> Vec<f32> { (0..n).map(|i| (i % 17) as f32 * 0.125).collect() };
        let kinds = [
            JobKind::Axpy {
                a: 1.25,
                x: data(14_000),
                y: data(14_000),
            },
            JobKind::Gemm {
                dims: GemmKernel {
                    m: 32,
                    k: 16,
                    n: 16,
                },
                a: data(32 * 16),
                b: data(16 * 16),
            },
            JobKind::Conv2d {
                kernel: Conv2dKernel {
                    height: 64,
                    width: 48,
                    k: 3,
                    filters: 4,
                },
                image: data(64 * 48),
                weights: data(9 * 4),
            },
            JobKind::Stencil2d {
                height: 64,
                width: 40,
                grid: data(64 * 40),
            },
        ];
        let cpu = ntx_cpu::NativeBackend::exact().with_threads(1);
        let mut cluster = Cluster::new(ClusterConfig::default());
        for kind in kinds {
            let expect = match &kind {
                JobKind::Axpy { a, x, y } => cpu.axpy(*a, x, y),
                JobKind::Gemm { dims, a, b } => cpu.gemm(dims, a, b),
                JobKind::Conv2d {
                    kernel,
                    image,
                    weights,
                } => cpu.conv2d(kernel, image, weights),
                JobKind::Stencil2d {
                    height,
                    width,
                    grid,
                } => cpu.stencil2d(*height as usize, *width as usize, grid),
                JobKind::Raw(_) => unreachable!("no raw jobs here"),
            };
            let job = Job::new(0, "footprint", kind);
            let mut out = vec![0f32; job.output_len()];
            for plan in Tiler::new(1).plan(&job, &cluster).expect("plans") {
                for (addr, values) in &plan.ext_writes {
                    cluster.ext_mem().write_f32_slice(*addr, values);
                }
                for (addr, values) in &plan.tcdm_writes {
                    cluster.write_tcdm_f32(*addr, values);
                }
                TilePipeline::new(&mut cluster, plan.tiles).run_to_completion(&mut cluster);
                for rb in &plan.readbacks {
                    let dst = &mut out[rb.dst..rb.dst + rb.len as usize];
                    match rb.source {
                        ReadbackSource::Ext(addr) => cluster.ext_mem().read_f32_into(addr, dst),
                        ReadbackSource::Tcdm(addr) => cluster.read_tcdm_into(addr, dst),
                    }
                }
            }
            assert_eq!(out, expect, "{}", job.label);
            assert!(
                cluster.ext_mem().resident_bytes() <= 3 * 64 * 1024,
                "{}: {} bytes resident",
                job.label,
                cluster.ext_mem().resident_bytes()
            );
        }
    }
}
