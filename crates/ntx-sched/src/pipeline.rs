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
}
