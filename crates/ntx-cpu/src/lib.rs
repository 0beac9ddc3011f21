//! # ntx-cpu — native host-CPU execution of NTX jobs
//!
//! The third point on the backend curve. The cycle-accurate simulator
//! is bit-exact but slow; the analytical roofline is instant but
//! computes nothing. [`NativeBackend`] executes the same GEMM /
//! convolution / AXPY / stencil jobs directly on the host CPU at
//! memory speed, in one of two modes:
//!
//! * [`NativeMode::Fast`] — multi-accumulator, SIMD-friendly
//!   partial-sum reduction ([`reduce::LANES`] independent lanes break
//!   the FP-add latency chain, tree-combined at the end). Results
//!   carry ordinary float rounding error; measure it with
//!   [`ntx_fpu::rmse`].
//! * [`NativeMode::Exact`] — every reduction is rounded exactly once,
//!   from its exact value, per architecturally-visible store,
//!   replicating the NTX datapath's per-element semantics. Outputs are
//!   bit-identical to the cycle-accurate simulator on every job kind.
//!
//! Exact convolution, stencil and AXPY push each product through the
//! wide Kulisch [`ntx_fpu::WideAccumulator`]. Exact GEMM first splits
//! each row of `A` and column of `B` once per call into a panel of
//! signed 24-bit significands, their exponent offsets from the vector's
//! smallest exponent, and the vector's exponent span. Where the spans
//! prove the exact sum fits an `i128`
//! (`span_a + span_b + 48 + bit_length(k) <= 126`), a `C` element is
//! summed as `Σ (sa·sb) << (oa+ob)` in one register and rounded once
//! with [`ntx_fpu::compose`]; any other element (a wider span, or an
//! Inf/NaN in its row or column) goes through the wide accumulator.
//! Both branches give the correctly rounded exact sum, so the choice
//! never changes a bit. It saves decomposing both operands on every
//! MAC: on the AlexNet training step (dims capped at 64) exact GEMM
//! fell from 20–28 to 2.8–4.1 ns per MAC on a 2-vCPU Xeon VM.
//!
//! Work is sharded over contiguous output-row bands across scoped
//! threads ([`NativeBackend::with_threads`]); both modes are
//! bit-identical across thread counts because no reduction ever
//! crosses a band boundary.
//!
//! This crate is deliberately scheduler-agnostic — it depends only on
//! the kernel descriptors and the FPU model. `ntx-sched` wraps it as
//! its two native backends, selected per job by
//! `BackendKind::{NativeFast, NativeExact}`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod panel;
pub mod reduce;

use ntx_fpu::WideAccumulator;
use ntx_kernels::blas::GemmKernel;
use ntx_kernels::conv::Conv2dKernel;
use panel::Panel;

/// Laplace stencil tap coefficients, matching
/// `ntx_kernels::schedule::laplace2d_tiles`.
const STENCIL_COEFFS: [f32; 3] = [1.0, -2.0, 1.0];

/// Minimum output elements before shard-parallel execution pays for
/// thread spawn overhead; smaller jobs run on the calling thread.
const PAR_MIN_ELEMS: usize = 8192;

/// Accumulation discipline for the native kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NativeMode {
    /// Multi-accumulator partial sums, tree-combined: fastest, with
    /// ordinary float rounding error.
    Fast,
    /// Exact accumulation, one rounding per stored element:
    /// bit-identical to the cycle-accurate simulator. GEMM sums each
    /// dot product in one `i128` when its operands' exponent spans
    /// prove it fits, and in the wide Kulisch accumulator otherwise;
    /// the other kernels always use the wide accumulator.
    Exact,
}

/// Executes NTX jobs on the host CPU.
///
/// Stateless apart from its configuration; methods take input slices
/// and return freshly-allocated outputs, so one backend can serve
/// concurrent callers by shared reference.
#[derive(Debug, Clone)]
pub struct NativeBackend {
    mode: NativeMode,
    threads: usize,
}

impl NativeBackend {
    /// Creates a backend in the given mode, running on the calling
    /// thread only.
    #[must_use]
    pub fn new(mode: NativeMode) -> Self {
        Self { mode, threads: 1 }
    }

    /// Shorthand for [`NativeMode::Fast`].
    #[must_use]
    pub fn fast() -> Self {
        Self::new(NativeMode::Fast)
    }

    /// Shorthand for [`NativeMode::Exact`].
    #[must_use]
    pub fn exact() -> Self {
        Self::new(NativeMode::Exact)
    }

    /// Shards kernels over `threads` scoped worker threads (clamped to
    /// at least one). Outputs are bit-identical at every thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The configured accumulation mode.
    #[must_use]
    pub fn mode(&self) -> NativeMode {
        self.mode
    }

    /// The configured shard-parallel thread count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// `out[i] = y[i] + a * x[i]`.
    ///
    /// Exact mode seeds the accumulator from `y[i]` (the datapath's
    /// memory-init) and adds the single product exactly, rounding
    /// once — matching the simulator bit for bit.
    ///
    /// # Panics
    /// Panics if `x` and `y` have different lengths.
    #[must_use]
    pub fn axpy(&self, a: f32, x: &[f32], y: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), y.len(), "axpy operands must have equal lengths");
        let mut out = vec![0.0f32; x.len()];
        let exact = self.mode == NativeMode::Exact;
        self.banded(&mut out, 1, &|offset, band: &mut [f32]| {
            if exact {
                let mut acc = WideAccumulator::new();
                for (i, o) in band.iter_mut().enumerate() {
                    let j = offset + i;
                    acc.clear();
                    acc.add_value(y[j]);
                    acc.add_product(x[j], a);
                    *o = acc.round();
                }
            } else {
                for (i, o) in band.iter_mut().enumerate() {
                    let j = offset + i;
                    *o = a * x[j] + y[j];
                }
            }
        });
        out
    }

    /// Row-major GEMM: `C[i][j] = Σ_l A[i][l] * B[l][j]`, `C` is
    /// `m × n`.
    ///
    /// Exact mode rounds every dot product once from its exact value.
    /// Each row of `A` and column of `B` is decomposed once per call
    /// into a panel, shared by every band; a `C` element whose row and
    /// column exponent spans prove the exact sum fits an `i128` is
    /// summed there, and any other (a wider span, or an Inf/NaN in its
    /// row or column) goes through the Kulisch accumulator.
    /// Fast mode uses the classic `ikj` loop when `n` is wide enough —
    /// each output element then owns an independent accumulator, the
    /// matrix form of the multi-lane trick — and falls back to
    /// [`reduce::dot_fast`]'s explicit lanes for skinny outputs such
    /// as dot products (`n == 1`).
    ///
    /// # Panics
    /// Panics if `a` or `b` don't match `dims`.
    #[must_use]
    pub fn gemm(&self, dims: &GemmKernel, a: &[f32], b: &[f32]) -> Vec<f32> {
        let (m, k, n) = (dims.m as usize, dims.k as usize, dims.n as usize);
        assert_eq!(a.len(), m * k, "gemm A must be m*k elements");
        assert_eq!(b.len(), k * n, "gemm B must be k*n elements");
        let mut out = vec![0.0f32; m * n];
        let panels = (self.mode == NativeMode::Exact).then(|| {
            (
                Panel::new(m, k, |i, l| a[i * k + l]),
                Panel::new(n, k, |j, l| b[l * n + j]),
            )
        });
        self.banded(&mut out, n.max(1), &|offset, band: &mut [f32]| {
            if let Some((rows, cols)) = &panels {
                let mut acc = WideAccumulator::new();
                for (i, o) in band.iter_mut().enumerate() {
                    let (row, col) = ((offset + i) / n, (offset + i) % n);
                    *o = rows.dot(row, cols, col).unwrap_or_else(|| {
                        acc.clear();
                        for l in 0..k {
                            acc.add_product(a[row * k + l], b[l * n + col]);
                        }
                        acc.round()
                    });
                }
            } else if n >= reduce::LANES {
                // ikj: the inner loop strides unit over a row of B and
                // a row of C, giving n independent accumulators.
                for (r, row_out) in band.chunks_exact_mut(n).enumerate() {
                    let row = offset / n + r;
                    for l in 0..k {
                        let alk = a[row * k + l];
                        for (o, &blj) in row_out.iter_mut().zip(&b[l * n..l * n + n]) {
                            *o += alk * blj;
                        }
                    }
                }
            } else {
                let mut col = vec![0.0f32; k];
                for (i, o) in band.iter_mut().enumerate() {
                    let (row, c) = ((offset + i) / n, (offset + i) % n);
                    for (l, slot) in col.iter_mut().enumerate() {
                        *slot = b[l * n + c];
                    }
                    *o = reduce::dot_fast(&a[row * k..row * k + k], &col);
                }
            }
        });
        out
    }

    /// 2-D convolution, `filters` independent `k × k` kernels over one
    /// `height × width` image; output is filter-major
    /// `filters × out_height × out_width` (valid padding).
    ///
    /// # Panics
    /// Panics if `image` or `weights` don't match `kernel`, or the
    /// kernel doesn't fit the image.
    #[must_use]
    pub fn conv2d(&self, kernel: &Conv2dKernel, image: &[f32], weights: &[f32]) -> Vec<f32> {
        let (h, w) = (kernel.height as usize, kernel.width as usize);
        let (k, f) = (kernel.k as usize, kernel.filters as usize);
        assert!(k <= h && k <= w, "conv kernel must fit the image");
        assert_eq!(
            image.len(),
            h * w,
            "conv image must be height*width elements"
        );
        assert_eq!(
            weights.len(),
            k * k * f,
            "conv weights must be k*k*filters elements"
        );
        let (oh, ow) = (kernel.out_height() as usize, kernel.out_width() as usize);
        let mut out = vec![0.0f32; f * oh * ow];
        let exact = self.mode == NativeMode::Exact;
        self.banded(&mut out, ow.max(1), &|offset, band: &mut [f32]| {
            let mut acc = WideAccumulator::new();
            for (r, row_out) in band.chunks_exact_mut(ow).enumerate() {
                let row = offset / ow + r;
                let (filt, y) = (row / oh, row % oh);
                let wgt = &weights[filt * k * k..(filt + 1) * k * k];
                for (x, o) in row_out.iter_mut().enumerate() {
                    if exact {
                        acc.clear();
                        for ky in 0..k {
                            for kx in 0..k {
                                acc.add_product(image[(y + ky) * w + (x + kx)], wgt[ky * k + kx]);
                            }
                        }
                        *o = acc.round();
                    } else {
                        let mut sum = 0.0f32;
                        for ky in 0..k {
                            for kx in 0..k {
                                sum += image[(y + ky) * w + (x + kx)] * wgt[ky * k + kx];
                            }
                        }
                        *o = sum;
                    }
                }
            }
        });
        out
    }

    /// Two-pass Laplace stencil over a `height × width` grid; output
    /// is `(height-2) × (width-2)`.
    ///
    /// The datapath runs this as a horizontal `[1, -2, 1]` pass into a
    /// temporary (rounded to `f32`), then a vertical pass that
    /// re-seeds the accumulator from the temporary — so even exact
    /// mode rounds *twice* per element, and the native kernel
    /// replicates both roundings to stay bit-identical. Fast mode
    /// fuses the five-point stencil into one expression.
    ///
    /// # Panics
    /// Panics if `grid` isn't `height * width` elements or either
    /// dimension is below 3.
    #[must_use]
    pub fn stencil2d(&self, height: usize, width: usize, grid: &[f32]) -> Vec<f32> {
        assert!(
            height >= 3 && width >= 3,
            "stencil grid must be at least 3x3"
        );
        assert_eq!(
            grid.len(),
            height * width,
            "stencil grid must be height*width elements"
        );
        let (oh, ow) = (height - 2, width - 2);
        let mut out = vec![0.0f32; oh * ow];
        let c = STENCIL_COEFFS;
        let exact = self.mode == NativeMode::Exact;
        self.banded(&mut out, ow, &|offset, band: &mut [f32]| {
            let mut acc = WideAccumulator::new();
            for (r, row_out) in band.chunks_exact_mut(ow).enumerate() {
                let y = offset / ow + r;
                for (x, o) in row_out.iter_mut().enumerate() {
                    if exact {
                        // Horizontal pass: rounded intermediate.
                        acc.clear();
                        for (t, &ct) in c.iter().enumerate() {
                            acc.add_product(grid[(y + 1) * width + x + t], ct);
                        }
                        let tmp = acc.round();
                        // Vertical pass: memory-init from the
                        // intermediate, second rounding on store.
                        acc.clear();
                        acc.add_value(tmp);
                        for (t, &ct) in c.iter().enumerate() {
                            acc.add_product(grid[(y + t) * width + x + 1], ct);
                        }
                        *o = acc.round();
                    } else {
                        let center = grid[(y + 1) * width + x + 1];
                        let horiz = grid[(y + 1) * width + x] - 2.0 * center
                            + grid[(y + 1) * width + x + 2];
                        let vert =
                            grid[y * width + x + 1] - 2.0 * center + grid[(y + 2) * width + x + 1];
                        *o = horiz + vert;
                    }
                }
            }
        });
        out
    }

    /// Runs `work` over `out` split into contiguous bands of whole
    /// `granule`-element rows, one scoped thread per band. `work`
    /// receives the band's starting element offset. Reductions never
    /// cross rows, so banding cannot change any output bit.
    fn banded<F>(&self, out: &mut [f32], granule: usize, work: &F)
    where
        F: Fn(usize, &mut [f32]) + Sync,
    {
        let rows = out.len() / granule.max(1);
        let bands = self.threads.min(rows.max(1));
        if bands <= 1 || out.len() < PAR_MIN_ELEMS {
            work(0, out);
            return;
        }
        std::thread::scope(|s| {
            let mut rest = out;
            let mut row0 = 0usize;
            for b in 0..bands {
                // Spread the remainder rows over the leading bands.
                let rows_here = rows / bands + usize::from(b < rows % bands);
                let (band, tail) = rest.split_at_mut(rows_here * granule);
                rest = tail;
                let offset = row0 * granule;
                row0 += rows_here;
                s.spawn(move || work(offset, band));
            }
            // Trailing partial row (only when granule doesn't divide
            // the output, which no kernel above produces).
            if !rest.is_empty() {
                work(row0 * granule, rest);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(n: usize, mut seed: u32) -> Vec<f32> {
        (0..n)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 17;
                seed ^= seed << 5;
                ((seed % 257) as f32 - 128.0) / 7.0
            })
            .collect()
    }

    fn assert_bits_eq(lhs: &[f32], rhs: &[f32], what: &str) {
        assert_eq!(lhs.len(), rhs.len(), "{what}: length mismatch");
        for (i, (a, b)) in lhs.iter().zip(rhs).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{what}: bit mismatch at {i}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn exact_axpy_rounds_once_per_element() {
        let (x, y) = (data(300, 1), data(300, 2));
        let out = NativeBackend::exact().axpy(0.3, &x, &y);
        for i in 0..x.len() {
            let mut acc = WideAccumulator::new();
            acc.add_value(y[i]);
            acc.add_product(x[i], 0.3);
            assert_eq!(out[i].to_bits(), acc.round().to_bits());
        }
    }

    #[test]
    fn exact_gemm_matches_kulisch_dot() {
        let dims = GemmKernel { m: 5, k: 37, n: 4 };
        let a = data(5 * 37, 3);
        let b = data(37 * 4, 4);
        let out = NativeBackend::exact().gemm(&dims, &a, &b);
        for i in 0..5 {
            for j in 0..4 {
                let col: Vec<f32> = (0..37).map(|l| b[l * 4 + j]).collect();
                let want = reduce::dot_exact(&a[i * 37..(i + 1) * 37], &col);
                assert_eq!(out[i * 4 + j].to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn fast_kernels_track_f64_reference() {
        let be = NativeBackend::fast();
        let dims = GemmKernel { m: 9, k: 33, n: 7 };
        let a = data(9 * 33, 5);
        let b = data(33 * 7, 6);
        let out = be.gemm(&dims, &a, &b);
        for i in 0..9 {
            for j in 0..7 {
                let want: f64 = (0..33)
                    .map(|l| f64::from(a[i * 33 + l]) * f64::from(b[l * 7 + j]))
                    .sum();
                assert!((f64::from(out[i * 7 + j]) - want).abs() < 1e-2);
            }
        }
        let grid = data(8 * 9, 7);
        let st = be.stencil2d(8, 9, &grid);
        for y in 0..6 {
            for x in 0..7 {
                let g = |yy: usize, xx: usize| f64::from(grid[yy * 9 + xx]);
                let want = g(y + 1, x) + g(y + 1, x + 2) + g(y, x + 1) + g(y + 2, x + 1)
                    - 4.0 * g(y + 1, x + 1);
                assert!((f64::from(st[y * 7 + x]) - want).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn banding_is_bit_identical_across_thread_counts() {
        // Large enough to clear PAR_MIN_ELEMS so threading engages.
        let dims = GemmKernel {
            m: 96,
            k: 40,
            n: 96,
        };
        let a = data(96 * 40, 8);
        let b = data(40 * 96, 9);
        // Every third row of A spans 90 binades and column 5 of B holds
        // a NaN: their outputs fall back to the Kulisch accumulator,
        // the rest take the i128 panel path, across band boundaries.
        let (mut wide_a, mut wide_b) = (a.clone(), b.clone());
        for row in wide_a.chunks_exact_mut(40).step_by(3) {
            row[0] *= 2f32.powi(90);
        }
        wide_b[5] = f32::NAN;
        let img = data(100 * 100, 10);
        let wgt = data(9 * 2, 11);
        let conv = Conv2dKernel {
            height: 100,
            width: 100,
            k: 3,
            filters: 2,
        };
        let grid = data(110 * 100, 12);
        let (x, y) = (data(10_000, 13), data(10_000, 14));
        for mode in [NativeMode::Fast, NativeMode::Exact] {
            let serial = NativeBackend::new(mode);
            let pooled = NativeBackend::new(mode).with_threads(4);
            assert_bits_eq(
                &serial.gemm(&dims, &a, &b),
                &pooled.gemm(&dims, &a, &b),
                "gemm",
            );
            assert_bits_eq(
                &serial.gemm(&dims, &wide_a, &wide_b),
                &pooled.gemm(&dims, &wide_a, &wide_b),
                "gemm with fallback outputs",
            );
            assert_bits_eq(
                &serial.conv2d(&conv, &img, &wgt),
                &pooled.conv2d(&conv, &img, &wgt),
                "conv2d",
            );
            assert_bits_eq(
                &serial.stencil2d(110, 100, &grid),
                &pooled.stencil2d(110, 100, &grid),
                "stencil2d",
            );
            assert_bits_eq(&serial.axpy(1.5, &x, &y), &pooled.axpy(1.5, &x, &y), "axpy");
        }
    }

    #[test]
    fn output_shapes() {
        let be = NativeBackend::fast();
        let conv = Conv2dKernel {
            height: 10,
            width: 8,
            k: 3,
            filters: 4,
        };
        assert_eq!(
            be.conv2d(&conv, &data(80, 1), &data(36, 2)).len(),
            4 * 8 * 6
        );
        assert_eq!(be.stencil2d(5, 6, &data(30, 3)).len(), 3 * 4);
        let dims = GemmKernel { m: 3, k: 4, n: 2 };
        assert_eq!(be.gemm(&dims, &data(12, 4), &data(8, 5)).len(), 6);
    }
}
