//! Operand panels: the exact GEMM's integer fast path.
//!
//! The NTX FMAC adds each 48-bit product exactly into its wide
//! accumulator and rounds once (§II-C). Pushing every product through
//! the 640-bit [`ntx_fpu::WideAccumulator`] reproduces that, but
//! classifies and decomposes both operands again on every MAC. A
//! [`Panel`] splits each row of `A` (or column of `B`) once per GEMM
//! into signed 24-bit significands and their exponent offsets from the
//! vector's smallest exponent. When a row's and a column's exponent
//! spans prove that the exact dot product fits an `i128`, it is summed
//! as `Σ (sa·sb) << (oa+ob)` in one register and rounded once with
//! [`compose`] — the correctly rounded exact sum, the same value the
//! wide accumulator rounds to. Every other output is left to the wide
//! accumulator.

use ntx_fpu::{compose, decompose};

/// Largest `span_a + span_b + 48 + bit_length(k)` the `i128` sum
/// accepts. A product of two 24-bit significands is below 2^48, its
/// shift is at most `span_a + span_b`, and `k` such terms stay below
/// `2^bit_length(k)` times one, so every partial sum stays below 2^126.
const WINDOW_BITS: u32 = 126;

/// Where a vector's exponents lie: the weight of its smallest
/// significand LSB and the distance to its largest.
#[derive(Debug, Clone, Copy)]
struct Bounds {
    lsb: i32,
    span: u32,
}

/// `vectors` operand vectors of `len` elements each, decomposed once.
#[derive(Debug)]
pub(crate) struct Panel {
    len: usize,
    /// Signed significands, vector-major.
    sig: Vec<i32>,
    /// Exponent offset of each significand from its vector's `lsb`.
    off: Vec<u8>,
    /// Per vector; `None` when it holds an Inf or NaN.
    bounds: Vec<Option<Bounds>>,
}

impl Panel {
    /// Splits `vectors` vectors of `len` elements, where `at(v, l)` is
    /// element `l` of vector `v`.
    pub(crate) fn new(vectors: usize, len: usize, at: impl Fn(usize, usize) -> f32) -> Self {
        let mut sig = vec![0i32; vectors * len];
        let mut off = vec![0u8; vectors * len];
        let mut exp = vec![0i32; len];
        let mut bounds = Vec::with_capacity(vectors);
        for v in 0..vectors {
            let sig = &mut sig[v * len..(v + 1) * len];
            let (mut lo, mut hi) = (i32::MAX, i32::MIN);
            let mut finite = true;
            for (l, (s, e)) in sig.iter_mut().zip(&mut exp).enumerate() {
                let x = at(v, l);
                if !x.is_finite() {
                    finite = false;
                    break;
                }
                let d = decompose(x);
                if d.mantissa != 0 {
                    lo = lo.min(d.exp);
                    hi = hi.max(d.exp);
                }
                let m = d.mantissa as i32;
                (*s, *e) = (if d.negative { -m } else { m }, d.exp);
            }
            if !finite {
                bounds.push(None);
            } else if lo > hi {
                // All zeros: the sum is +0.0 whatever the weight.
                bounds.push(Some(Bounds { lsb: 0, span: 0 }));
            } else {
                // A zero decomposes at exponent -149, at or below `lo`:
                // clamped to offset 0, its zero significand adds
                // nothing. Finite exponents span at most 253, so
                // offsets fit a u8.
                for (o, &e) in off[v * len..(v + 1) * len].iter_mut().zip(&exp) {
                    *o = (e - lo).max(0) as u8;
                }
                bounds.push(Some(Bounds {
                    lsb: lo,
                    span: (hi - lo) as u32,
                }));
            }
        }
        Self {
            len,
            sig,
            off,
            bounds,
        }
    }

    /// The dot product of vector `i` of `self` with vector `j` of
    /// `other`, correctly rounded, or `None` when an operand is Inf or
    /// NaN or the exponent spans are too wide for the `i128` sum.
    ///
    /// # Panics
    /// Panics if the panels' vector lengths differ.
    pub(crate) fn dot(&self, i: usize, other: &Panel, j: usize) -> Option<f32> {
        assert_eq!(self.len, other.len, "dot operands must have equal lengths");
        let (a, b) = (self.bounds[i]?, other.bounds[j]?);
        let k_bits = usize::BITS - self.len.leading_zeros();
        if a.span + b.span + 48 + k_bits > WINDOW_BITS {
            return None;
        }
        let ((sa, oa), (sb, ob)) = (self.vector(i), other.vector(j));
        let mut sum = 0i128;
        for ((&x, &p), (&y, &q)) in sa.iter().zip(oa).zip(sb.iter().zip(ob)) {
            sum += i128::from(i64::from(x) * i64::from(y)) << (u32::from(p) + u32::from(q));
        }
        Some(compose(sum < 0, sum.unsigned_abs(), a.lsb + b.lsb, false))
    }

    /// Significands and exponent offsets of vector `v`.
    fn vector(&self, v: usize) -> (&[i32], &[u8]) {
        let range = v * self.len..(v + 1) * self.len;
        (&self.sig[range.clone()], &self.off[range])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{reduce, NativeBackend};
    use ntx_kernels::blas::GemmKernel;

    /// Runs `a · b` through a one-row panel and through the exact GEMM,
    /// checks both against the Kulisch oracle, and returns the panel's
    /// answer (`None`: the GEMM took the fallback).
    fn check(a: &[f32], b: &[f32]) -> Option<f32> {
        let k = a.len();
        let fast = Panel::new(1, k, |_, l| a[l]).dot(0, &Panel::new(1, k, |_, l| b[l]), 0);
        let want = reduce::dot_exact(a, b);
        let dims = GemmKernel {
            m: 1,
            k: k as u32,
            n: 1,
        };
        let got = NativeBackend::exact().gemm(&dims, a, b)[0];
        assert_eq!(got.to_bits(), want.to_bits(), "gemm {got:e} vs {want:e}");
        if let Some(x) = fast {
            assert_eq!(x.to_bits(), want.to_bits(), "panel {x:e} vs {want:e}");
        }
        fast
    }

    /// `(2^24 - 1) · 2^lsb`: a full 24-bit significand.
    fn full(lsb: i32) -> f32 {
        f32::from_bits(((lsb + 150) as u32) << 23 | 0x7f_ffff)
    }

    #[test]
    fn window_edge_takes_the_fast_path_at_126_and_falls_back_at_127() {
        // k = 7 (bit length 3): spans 38 + 37 reach the bound exactly.
        // Five of the seven products carry the full shift, so the sum
        // is about 5 · 2^123, near the top of the i128.
        let (lo, k) = (-80, 7);
        let a: Vec<f32> = (0..k)
            .map(|l| full(lo + if l == 0 { 0 } else { 38 }))
            .collect();
        for span_b in [37, 38] {
            let b: Vec<f32> = (0..k)
                .map(|l| full(lo + if l == k - 1 { 0 } else { span_b }))
                .collect();
            let fast = check(&a, &b);
            assert_eq!(fast.is_some(), 38 + span_b + 48 + 3 == WINDOW_BITS as i32);
            let neg: Vec<f32> = b.iter().map(|x| -x).collect();
            assert_eq!(check(&a, &neg).is_some(), fast.is_some());
        }
    }

    #[test]
    fn overflow_rounds_to_signed_infinity() {
        let a = [f32::MAX, f32::MAX];
        assert_eq!(check(&a, &[2.0, 2.0]), Some(f32::INFINITY));
        assert_eq!(check(&a, &[-2.0, -2.0]), Some(f32::NEG_INFINITY));
    }

    #[test]
    fn subnormal_results_round_to_nearest_even() {
        // 2^-149 + 2^-151 = 1.25 ulp rounds down to the smallest subnormal.
        let x = check(&[2f32.powi(-100); 2], &[2f32.powi(-49), 2f32.powi(-51)]);
        assert_eq!(x, Some(f32::from_bits(1)));
        // A subnormal operand: 5 · 2^-149 · 0.5 ties to the even 2 ulp.
        let x = check(&[f32::from_bits(5)], &[0.5]);
        assert_eq!(x.map(f32::to_bits), Some(2));
    }

    #[test]
    fn zero_rows_and_cancellations_give_positive_zero() {
        let zero = check(&[0.0, -0.0, 0.0], &[1.0, -3.0, 2.5]);
        assert_eq!(zero.map(f32::to_bits), Some(0));
        let cancel = check(&[1.5, -1.5], &[-2.0, -2.0]);
        assert_eq!(cancel.map(f32::to_bits), Some(0));
    }

    #[test]
    fn specials_and_wide_spans_fall_back() {
        assert!(check(&[1.0, f32::INFINITY], &[2.0, 0.0]).is_none());
        assert!(check(&[1.0, f32::NAN], &[2.0, 3.0]).is_none());
        // 2^100 beside 1.0 spans 100 binades: past the window.
        assert!(check(&[1.0, 2f32.powi(100)], &[3.0, -1.0]).is_none());
    }
}
