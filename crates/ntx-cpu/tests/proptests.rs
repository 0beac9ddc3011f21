//! Differential tests of the exact GEMM against the per-element Kulisch
//! dot product ([`reduce::dot_exact`]).
//!
//! The generators drive both branches of the exact GEMM: narrow
//! exponent spreads take the `i128` panel path, full-range exponents
//! and Inf/NaN operands force the wide-accumulator fallback, and a
//! sprinkled Inf or NaN mixes the two within one matrix.

use ntx_cpu::{reduce, NativeBackend};
use ntx_kernels::blas::GemmKernel;
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;

/// One operand element drawn by generator `kind`:
/// 0 — multiples of 1/16 in [-2, 2);
/// 1 — full-mantissa uniform values in [-1, 1);
/// 2 — random bit patterns over the whole finite range, with
///     subnormals and ±0 drawn often.
fn element(kind: u8) -> BoxedStrategy<f32> {
    match kind {
        0 => (-32i32..32).prop_map(|m| m as f32 / 16.0).boxed(),
        1 => any::<u32>()
            .prop_map(|bits| ((bits >> 8) as f32 - 8_388_608.0) / 8_388_608.0)
            .boxed(),
        _ => (0u8..16, any::<u32>())
            .prop_map(|(pick, bits)| match pick {
                0 => 0.0,
                1 => -0.0,
                2 | 3 => f32::from_bits(bits & 0x807f_ffff),
                _ if bits & 0x7f80_0000 == 0x7f80_0000 => f32::from_bits(bits & !0x4000_0000),
                _ => f32::from_bits(bits),
            })
            .boxed(),
    }
}

/// `(m, k, n, A, B)`: m and n in 1..9, k in 1..300 or 4096, elements
/// from one generator, and in a quarter of the cases up to three Inf or
/// NaN values sprinkled over A and B.
fn gemm_case() -> impl Strategy<Value = (usize, usize, usize, Vec<f32>, Vec<f32>)> {
    let k = (0u8..8, 1usize..300).prop_map(|(pick, k)| if pick == 0 { 4096 } else { k });
    (1usize..9, k, 1usize..9, 0u8..3, 0u8..4).prop_flat_map(|(m, k, n, kind, sprinkle)| {
        let specials = if sprinkle == 0 { 1..4 } else { 0..1 };
        (
            Just((m, k, n)),
            prop::collection::vec(element(kind), m * k),
            prop::collection::vec(element(kind), k * n),
            prop::collection::vec((any::<usize>(), 0u8..3), specials),
        )
            .prop_map(|((m, k, n), mut a, mut b, specials)| {
                for (at, which) in specials {
                    let x = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][usize::from(which)];
                    let at = at % (a.len() + b.len());
                    if at < a.len() {
                        a[at] = x;
                    } else {
                        b[at - a.len()] = x;
                    }
                }
                (m, k, n, a, b)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every exact GEMM output is the oracle's dot product, bit for bit
    /// (any NaN matches any NaN).
    #[test]
    fn exact_gemm_matches_dot_exact((m, k, n, a, b) in gemm_case()) {
        let dims = GemmKernel { m: m as u32, k: k as u32, n: n as u32 };
        let out = NativeBackend::exact().gemm(&dims, &a, &b);
        for i in 0..m {
            for j in 0..n {
                let col: Vec<f32> = (0..k).map(|l| b[l * n + j]).collect();
                let want = reduce::dot_exact(&a[i * k..(i + 1) * k], &col);
                let got = out[i * n + j];
                prop_assert!(
                    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                    "C[{i}][{j}] of {m}x{k}x{n}: {got:e} vs oracle {want:e}"
                );
            }
        }
    }
}
