//! Stencil kernels decomposed into per-dimension NTX passes (§III-B3).
//!
//! *"Its star shaped access pattern allows it to be computed efficiently
//! on NTX by decomposing the kernel into its separate dimensions."*
//!
//! The shared building block is [`StencilPass`]: one dimension-
//! decomposed pass in which every output point is a `taps`-long dot
//! product of input samples spaced a constant stride apart. The discrete
//! Laplace operators (1-D/2-D/3-D), the 13-coefficient diffusion stencil
//! of \[16\] (9 + 2 + 2 decomposition) and the Green-Wave-style 8th-order
//! Laplacian are all built from it; later passes accumulate into the
//! output of earlier ones through the memory-initialised accumulator.

use crate::KernelCost;
use ntx_isa::{AccuInit, AguConfig, Command, ConfigError, LoopNest, NtxConfig, OperandSelect};
use ntx_sim::{Cluster, PerfSnapshot};

/// One dimension-decomposed stencil pass over a 2-level output
/// iteration space (`outer × inner` points).
///
/// Every output point is `Σ_t coeff[t] · in[base + t·sample_stride]`;
/// the input/output bases advance by the `inner`/`outer` strides as the
/// iteration walks. All strides are in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StencilPass {
    /// Number of taps (coefficients) per output point.
    pub taps: u32,
    /// Distance between consecutive input samples of one output point.
    pub sample_stride: i32,
    /// Inner iteration count.
    pub inner: u32,
    /// Input-base advance per inner step.
    pub inner_in_stride: i32,
    /// Output advance per inner step.
    pub inner_out_stride: i32,
    /// Outer iteration count.
    pub outer: u32,
    /// Input-base advance per outer step (from the start of the
    /// previous outer row).
    pub outer_in_stride: i32,
    /// Output advance per outer step (likewise from the row start).
    pub outer_out_stride: i32,
    /// TCDM byte address of the first input sample.
    pub in_base: u32,
    /// TCDM byte address of the coefficient vector.
    pub coeff_base: u32,
    /// TCDM byte address of the first output point.
    pub out_base: u32,
    /// Accumulate into the existing output (later passes of a
    /// decomposed stencil) instead of overwriting.
    pub accumulate: bool,
}

impl StencilPass {
    /// Lowers the pass into NTX configurations, splitting the outer
    /// dimension across up to `engines` co-processors.
    ///
    /// # Errors
    ///
    /// Propagates [`ConfigError`].
    pub fn lower(&self, engines: u32) -> Result<Vec<NtxConfig>, ConfigError> {
        self.lower_replicated(engines, 0)
    }

    /// Like [`StencilPass::lower`], but engine `e` reads its
    /// coefficients from `coeff_base + e * coeff_stride` (bytes).
    /// Per-engine coefficient replicas avoid the structural bank
    /// conflict of all engines fetching the same coefficient word each
    /// tap — the same trick the convolution lowering plays with its
    /// weight replicas. A stride of zero shares one copy.
    ///
    /// # Errors
    ///
    /// Propagates [`ConfigError`].
    pub fn lower_replicated(
        &self,
        engines: u32,
        coeff_stride: u32,
    ) -> Result<Vec<NtxConfig>, ConfigError> {
        let taps = self.taps as i32;
        let engines = engines.min(self.outer).max(1);
        let base = self.outer / engines;
        let rem = self.outer % engines;
        let mut configs = Vec::new();
        let mut o0 = 0u32;
        for e in 0..engines {
            let rows = base + u32::from(e < rem);
            if rows == 0 {
                continue;
            }
            let in_start = self
                .in_base
                .wrapping_add((o0 as i32).wrapping_mul(self.outer_in_stride) as u32);
            let out_start = self
                .out_base
                .wrapping_add((o0 as i32).wrapping_mul(self.outer_out_stride) as u32);
            // Replica index = the engine slot this config is offloaded
            // to (callers enumerate the returned configs).
            let coeff_start = self.coeff_base + configs.len() as u32 * coeff_stride;
            let cfg = NtxConfig::builder()
                .command(Command::Mac {
                    operand: OperandSelect::Memory,
                })
                .accu_init(if self.accumulate {
                    AccuInit::Memory
                } else {
                    AccuInit::Zero
                })
                .loops(LoopNest::nested(&[self.taps, self.inner, rows]).with_levels(1, 1))
                .agu(
                    0,
                    AguConfig::new(
                        in_start,
                        [
                            self.sample_stride,
                            self.inner_in_stride - (taps - 1) * self.sample_stride,
                            self.outer_in_stride
                                - (self.inner as i32 - 1) * self.inner_in_stride
                                - (taps - 1) * self.sample_stride,
                            0,
                            0,
                        ],
                    ),
                )
                .agu(
                    1,
                    AguConfig::new(coeff_start, [4, -4 * (taps - 1), -4 * (taps - 1), 0, 0]),
                )
                .agu(
                    2,
                    AguConfig::new(
                        out_start,
                        [
                            0,
                            self.inner_out_stride,
                            self.outer_out_stride - (self.inner as i32 - 1) * self.inner_out_stride,
                            0,
                            0,
                        ],
                    ),
                )
                .build()?;
            configs.push(cfg);
            o0 += rows;
        }
        Ok(configs)
    }

    /// Offloads the pass to `cluster` and runs it to completion.
    pub fn run(&self, cluster: &mut Cluster) {
        let configs = self
            .lower(cluster.num_engines() as u32)
            .expect("valid stencil pass");
        for (i, cfg) in configs.iter().enumerate() {
            cluster.offload_with_writes(i, cfg, 8);
        }
        cluster.run_to_completion();
    }
}

/// The 1-D discrete Laplace operator (3 coefficients, §III-B3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Laplace1dKernel {
    /// Input length (output has `n - 2` points).
    pub n: u32,
}

impl Laplace1dKernel {
    /// Analytic cost: 3 MACs per output point, stream in/out once.
    #[must_use]
    pub fn cost(&self) -> KernelCost {
        let out = u64::from(self.n) - 2;
        KernelCost {
            flops: 2 * 3 * out,
            min_ext_bytes: 4 * (u64::from(self.n) + out),
        }
    }

    /// Runs in the TCDM; returns the interior Laplacian and perf delta.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != n`, `n < 3`, or data exceeds the TCDM.
    pub fn run(&self, cluster: &mut Cluster, input: &[f32]) -> (Vec<f32>, PerfSnapshot) {
        assert_eq!(input.len() as u32, self.n, "input length mismatch");
        assert!(self.n >= 3, "laplace1d needs at least 3 points");
        let in_addr = 0u32;
        let coeff_addr = 4 * self.n;
        let out_addr = coeff_addr + 16;
        let out_n = self.n - 2;
        assert!(
            out_addr + 4 * out_n <= cluster.config().tcdm.bytes,
            "data exceeds TCDM"
        );
        cluster.write_tcdm_f32(in_addr, input);
        cluster.write_tcdm_f32(coeff_addr, &[1.0, -2.0, 1.0]);
        let before = cluster.perf();
        StencilPass {
            taps: 3,
            sample_stride: 4,
            inner: out_n,
            inner_in_stride: 4,
            inner_out_stride: 4,
            outer: 1,
            outer_in_stride: 0,
            outer_out_stride: 0,
            in_base: in_addr,
            coeff_base: coeff_addr,
            out_base: out_addr,
            accumulate: false,
        }
        .run(cluster);
        let perf = cluster.perf().since(&before);
        (cluster.read_tcdm_f32(out_addr, out_n as usize), perf)
    }
}

/// The 2-D discrete Laplace operator (5-point star, decomposed into an
/// x pass and an accumulating y pass — two NTX instructions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Laplace2dKernel {
    /// Grid height.
    pub height: u32,
    /// Grid width.
    pub width: u32,
}

impl Laplace2dKernel {
    /// Analytic cost: the decomposition performs 2×3 MACs per point
    /// (x pass + y pass) with the output read back once for the
    /// accumulating pass.
    #[must_use]
    pub fn cost(&self) -> KernelCost {
        let out = u64::from(self.height - 2) * u64::from(self.width - 2);
        KernelCost {
            flops: 2 * 6 * out,
            min_ext_bytes: 4 * (u64::from(self.height) * u64::from(self.width) + out),
        }
    }

    /// Runs in the TCDM; returns the interior Laplacian and perf delta.
    ///
    /// # Panics
    ///
    /// Panics on size mismatch, grids below 3×3, or TCDM overflow.
    pub fn run(&self, cluster: &mut Cluster, input: &[f32]) -> (Vec<f32>, PerfSnapshot) {
        let (h, w) = (self.height, self.width);
        assert_eq!(input.len() as u32, h * w, "grid size mismatch");
        assert!(h >= 3 && w >= 3, "grid too small");
        let in_addr = 0u32;
        let coeff_addr = 4 * h * w;
        let out_addr = coeff_addr + 16;
        let (oh, ow) = (h - 2, w - 2);
        assert!(
            out_addr + 4 * oh * ow <= cluster.config().tcdm.bytes,
            "data exceeds TCDM"
        );
        cluster.write_tcdm_f32(in_addr, input);
        cluster.write_tcdm_f32(coeff_addr, &[1.0, -2.0, 1.0]);
        let before = cluster.perf();
        // Pass 1 (x direction): rows are outer, columns inner.
        StencilPass {
            taps: 3,
            sample_stride: 4,
            inner: ow,
            inner_in_stride: 4,
            inner_out_stride: 4,
            outer: oh,
            outer_in_stride: 4 * w as i32,
            outer_out_stride: 4 * ow as i32,
            in_base: in_addr + 4 * w, // start at row 1, column 0
            coeff_base: coeff_addr,
            out_base: out_addr,
            accumulate: false,
        }
        .run(cluster);
        // Pass 2 (y direction): columns outer, rows inner; accumulate.
        StencilPass {
            taps: 3,
            sample_stride: 4 * w as i32,
            inner: oh,
            inner_in_stride: 4 * w as i32,
            inner_out_stride: 4 * ow as i32,
            outer: ow,
            outer_in_stride: 4,
            outer_out_stride: 4,
            in_base: in_addr + 4, // start at row 0, column 1
            coeff_base: coeff_addr,
            out_base: out_addr,
            accumulate: true,
        }
        .run(cluster);
        let perf = cluster.perf().since(&before);
        (cluster.read_tcdm_f32(out_addr, (oh * ow) as usize), perf)
    }
}

/// The 3-D discrete Laplace operator (7-point star, three passes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Laplace3dKernel {
    /// Grid depth.
    pub depth: u32,
    /// Grid height.
    pub height: u32,
    /// Grid width.
    pub width: u32,
}

impl Laplace3dKernel {
    /// Analytic cost: 3×3 MACs per point, grid streamed once.
    #[must_use]
    pub fn cost(&self) -> KernelCost {
        let out =
            u64::from(self.depth - 2) * u64::from(self.height - 2) * u64::from(self.width - 2);
        let cells = u64::from(self.depth) * u64::from(self.height) * u64::from(self.width);
        KernelCost {
            flops: 2 * 9 * out,
            min_ext_bytes: 4 * (cells + out),
        }
    }

    /// Runs in the TCDM; returns the interior Laplacian and perf delta.
    ///
    /// # Panics
    ///
    /// Panics on size mismatch, grids below 3³, or TCDM overflow.
    pub fn run(&self, cluster: &mut Cluster, input: &[f32]) -> (Vec<f32>, PerfSnapshot) {
        let (d, h, w) = (self.depth, self.height, self.width);
        assert_eq!(input.len() as u32, d * h * w, "grid size mismatch");
        assert!(d >= 3 && h >= 3 && w >= 3, "grid too small");
        let in_addr = 0u32;
        let coeff_addr = 4 * d * h * w;
        let out_addr = coeff_addr + 16;
        let (od, oh, ow) = (d - 2, h - 2, w - 2);
        let out_len = od * oh * ow;
        assert!(
            out_addr + 4 * out_len <= cluster.config().tcdm.bytes,
            "data exceeds TCDM"
        );
        cluster.write_tcdm_f32(in_addr, input);
        cluster.write_tcdm_f32(coeff_addr, &[1.0, -2.0, 1.0]);
        let before = cluster.perf();
        let plane = 4 * (h * w) as i32;
        // x pass over every interior (z, y) row.
        for z in 0..od {
            StencilPass {
                taps: 3,
                sample_stride: 4,
                inner: ow,
                inner_in_stride: 4,
                inner_out_stride: 4,
                outer: oh,
                outer_in_stride: 4 * w as i32,
                outer_out_stride: 4 * ow as i32,
                in_base: in_addr + ((z + 1) * h * w + w) * 4,
                coeff_base: coeff_addr,
                out_base: out_addr + z * oh * ow * 4,
                accumulate: false,
            }
            .run(cluster);
        }
        // y pass (columns within each interior plane), accumulating.
        for z in 0..od {
            StencilPass {
                taps: 3,
                sample_stride: 4 * w as i32,
                inner: oh,
                inner_in_stride: 4 * w as i32,
                inner_out_stride: 4 * ow as i32,
                outer: ow,
                outer_in_stride: 4,
                outer_out_stride: 4,
                in_base: in_addr + ((z + 1) * h * w + 1) * 4,
                coeff_base: coeff_addr,
                out_base: out_addr + z * oh * ow * 4,
                accumulate: true,
            }
            .run(cluster);
        }
        // z pass (through planes), accumulating; outer walks rows.
        for y in 0..oh {
            StencilPass {
                taps: 3,
                sample_stride: plane,
                inner: od,
                inner_in_stride: plane,
                inner_out_stride: 4 * (oh * ow) as i32,
                outer: ow,
                outer_in_stride: 4,
                outer_out_stride: 4,
                in_base: in_addr + ((y + 1) * w + 1) * 4,
                coeff_base: coeff_addr,
                out_base: out_addr + y * ow * 4,
                accumulate: true,
            }
            .run(cluster);
        }
        let perf = cluster.perf().since(&before);
        (cluster.read_tcdm_f32(out_addr, out_len as usize), perf)
    }
}

/// The 13-coefficient diffusion stencil of \[16\]: a 3×3 in-plane pass
/// plus two z-pair passes (the paper's 9 + 2 + 2 decomposition).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiffusionKernel {
    /// Grid depth (needs ≥ 5 for the ±2 z taps).
    pub depth: u32,
    /// Grid height.
    pub height: u32,
    /// Grid width.
    pub width: u32,
}

impl DiffusionKernel {
    /// Analytic cost: 13 MACs per output point, grid streamed once.
    #[must_use]
    pub fn cost(&self) -> KernelCost {
        let out =
            u64::from(self.depth - 4) * u64::from(self.height - 2) * u64::from(self.width - 2);
        let cells = u64::from(self.depth) * u64::from(self.height) * u64::from(self.width);
        KernelCost {
            flops: 2 * 13 * out,
            min_ext_bytes: 4 * (cells + out),
        }
    }

    /// Runs in the TCDM; returns the interior result and perf delta.
    /// Coefficients as in [`crate::reference::diffusion`].
    ///
    /// # Panics
    ///
    /// Panics on size mismatch, undersized grids, or TCDM overflow.
    pub fn run(
        &self,
        cluster: &mut Cluster,
        input: &[f32],
        plane: &[f32; 9],
        z_near: &[f32; 2],
        z_far: &[f32; 2],
    ) -> (Vec<f32>, PerfSnapshot) {
        let (d, h, w) = (self.depth, self.height, self.width);
        assert_eq!(input.len() as u32, d * h * w, "grid size mismatch");
        assert!(d >= 5 && h >= 3 && w >= 3, "grid too small");
        let in_addr = 0u32;
        let plane_addr = 4 * d * h * w;
        let znear_addr = plane_addr + 4 * 9;
        let zfar_addr = znear_addr + 4 * 2;
        let out_addr = zfar_addr + 4 * 2;
        let (od, oh, ow) = (d - 4, h - 2, w - 2);
        let out_len = od * oh * ow;
        assert!(
            out_addr + 4 * out_len <= cluster.config().tcdm.bytes,
            "data exceeds TCDM"
        );
        cluster.write_tcdm_f32(in_addr, input);
        cluster.write_tcdm_f32(plane_addr, plane);
        cluster.write_tcdm_f32(znear_addr, z_near);
        cluster.write_tcdm_f32(zfar_addr, z_far);
        let before = cluster.perf();
        // Pass 1: 3×3 in-plane convolution per output plane (9 coeffs).
        let conv = crate::conv::Conv2dKernel::single(h, w, 3);
        for z in 0..od {
            let cfgs = conv
                .lower(
                    in_addr + (z + 2) * h * w * 4,
                    plane_addr,
                    out_addr + z * oh * ow * 4,
                    cluster.num_engines() as u32,
                    false,
                )
                .expect("valid plane pass");
            for (i, cfg) in cfgs.iter().enumerate() {
                cluster.offload_with_writes(i, cfg, 6);
            }
            cluster.run_to_completion();
        }
        let plane_bytes = 4 * (h * w) as i32;
        // Pass 2: z_near pair (taps at z-1 and z+1 → spacing 2 planes).
        for y in 0..oh {
            StencilPass {
                taps: 2,
                sample_stride: 2 * plane_bytes,
                inner: od,
                inner_in_stride: plane_bytes,
                inner_out_stride: 4 * (oh * ow) as i32,
                outer: ow,
                outer_in_stride: 4,
                outer_out_stride: 4,
                in_base: in_addr + (h * w + (y + 1) * w + 1) * 4, // z = 1
                coeff_base: znear_addr,
                out_base: out_addr + y * ow * 4,
                accumulate: true,
            }
            .run(cluster);
        }
        // Pass 3: z_far pair (taps at z-2 and z+2 → spacing 4 planes).
        for y in 0..oh {
            StencilPass {
                taps: 2,
                sample_stride: 4 * plane_bytes,
                inner: od,
                inner_in_stride: plane_bytes,
                inner_out_stride: 4 * (oh * ow) as i32,
                outer: ow,
                outer_in_stride: 4,
                outer_out_stride: 4,
                in_base: in_addr + ((y + 1) * w + 1) * 4, // z = 0
                coeff_base: zfar_addr,
                out_base: out_addr + y * ow * 4,
                accumulate: true,
            }
            .run(cluster);
        }
        let perf = cluster.perf().since(&before);
        (cluster.read_tcdm_f32(out_addr, out_len as usize), perf)
    }
}

/// The Green-Wave comparison workload (§IV): an 8th-order (radius-4)
/// Laplacian, decomposed into three 9-tap passes. Only the analytic
/// cost is needed for the comparison; the taps-per-dimension pass runs
/// on the same [`StencilPass`] machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HighOrderLaplaceKernel {
    /// Grid depth.
    pub depth: u32,
    /// Grid height.
    pub height: u32,
    /// Grid width.
    pub width: u32,
}

impl HighOrderLaplaceKernel {
    /// Stencil radius (order 8 → 4).
    pub const RADIUS: u32 = 4;

    /// Analytic cost: 3 × 9 MACs per point (+ central tap shared),
    /// grid streamed once.
    #[must_use]
    pub fn cost(&self) -> KernelCost {
        let r = Self::RADIUS;
        let out = u64::from(self.depth - 2 * r)
            * u64::from(self.height - 2 * r)
            * u64::from(self.width - 2 * r);
        let cells = u64::from(self.depth) * u64::from(self.height) * u64::from(self.width);
        KernelCost {
            flops: 2 * 27 * out,
            min_ext_bytes: 4 * (cells + out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use ntx_sim::{Cluster, ClusterConfig};

    fn cluster() -> Cluster {
        Cluster::new(ClusterConfig::default())
    }

    fn field(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| ((i * 13 + 5) % 17) as f32 * 0.25 - 2.0)
            .collect()
    }

    fn assert_close(got: &[f32], expect: &[f32]) {
        assert_eq!(got.len(), expect.len());
        for (i, (g, e)) in got.iter().zip(expect).enumerate() {
            assert!(
                (g - e).abs() <= 1e-3 * e.abs().max(1.0),
                "element {i}: {g} vs {e}"
            );
        }
    }

    #[test]
    fn laplace1d_matches_reference() {
        let input = field(64);
        let mut c = cluster();
        let (got, perf) = Laplace1dKernel { n: 64 }.run(&mut c, &input);
        assert_close(&got, &reference::laplace1d(&input));
        assert_eq!(perf.flops, 2 * 3 * 62);
    }

    #[test]
    fn laplace2d_matches_reference() {
        let (h, w) = (10u32, 9u32);
        let input = field((h * w) as usize);
        let mut c = cluster();
        let (got, _) = Laplace2dKernel {
            height: h,
            width: w,
        }
        .run(&mut c, &input);
        assert_close(&got, &reference::laplace2d(&input, h as usize, w as usize));
    }

    #[test]
    fn laplace3d_matches_reference() {
        let (d, h, w) = (6u32, 7u32, 5u32);
        let input = field((d * h * w) as usize);
        let mut c = cluster();
        let (got, _) = Laplace3dKernel {
            depth: d,
            height: h,
            width: w,
        }
        .run(&mut c, &input);
        assert_close(
            &got,
            &reference::laplace3d(&input, d as usize, h as usize, w as usize),
        );
    }

    #[test]
    fn diffusion_matches_reference() {
        let (d, h, w) = (7u32, 6u32, 6u32);
        let input = field((d * h * w) as usize);
        let plane = [0.05, 0.1, 0.05, 0.1, 0.4, 0.1, 0.05, 0.1, 0.05];
        let z_near = [0.08, 0.07];
        let z_far = [0.02, 0.03];
        let mut c = cluster();
        let (got, _) = DiffusionKernel {
            depth: d,
            height: h,
            width: w,
        }
        .run(&mut c, &input, &plane, &z_near, &z_far);
        assert_close(
            &got,
            &reference::diffusion(
                &input, d as usize, h as usize, w as usize, &plane, &z_near, &z_far,
            ),
        );
    }

    #[test]
    fn stencil_pass_single_point() {
        // One output point: weighted sum of three samples.
        let mut c = cluster();
        c.write_tcdm_f32(0, &[1.0, 10.0, 100.0]);
        c.write_tcdm_f32(0x40, &[2.0, 3.0, 4.0]);
        StencilPass {
            taps: 3,
            sample_stride: 4,
            inner: 1,
            inner_in_stride: 0,
            inner_out_stride: 0,
            outer: 1,
            outer_in_stride: 0,
            outer_out_stride: 0,
            in_base: 0,
            coeff_base: 0x40,
            out_base: 0x80,
            accumulate: false,
        }
        .run(&mut c);
        assert_eq!(c.read_tcdm_f32(0x80, 1)[0], 2.0 + 30.0 + 400.0);
    }

    #[test]
    fn costs_scale_with_footprint() {
        let lap1 = Laplace1dKernel { n: 16384 }.cost();
        let lap2 = Laplace2dKernel {
            height: 128,
            width: 128,
        }
        .cost();
        let lap3 = Laplace3dKernel {
            depth: 32,
            height: 32,
            width: 32,
        }
        .cost();
        let diff = DiffusionKernel {
            depth: 32,
            height: 32,
            width: 32,
        }
        .cost();
        // Higher-dimensional stencils have more reuse per point.
        assert!(lap1.operational_intensity() < lap2.operational_intensity());
        assert!(lap2.operational_intensity() < lap3.operational_intensity());
        assert!(lap3.operational_intensity() < diff.operational_intensity());
        // All remain memory-bound (< 4 flop/B ridge of the cluster).
        assert!(diff.operational_intensity() < 4.0);
    }
}
