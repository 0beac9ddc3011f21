//! Kernel library: the §III-B workloads lowered onto NTX.
//!
//! Every kernel the paper evaluates is implemented twice:
//!
//! * as a **plain-Rust reference** ([`reference`](mod@reference)) used as the
//!   correctness oracle, and
//! * as an **NTX lowering** that programs the hardware loops and AGUs
//!   of the cycle simulator ([`blas`], [`conv`], [`stencil`]) and runs
//!   either directly in the TCDM or through the DMA double-buffering
//!   schedule of §II-E ([`schedule`]).
//!
//! The lowerings follow the decompositions the paper describes: BLAS
//! tiles sized to the TCDM, convolutions as four-deep MAC loop nests,
//! and star-shaped stencils decomposed into one NTX instruction per
//! dimension (§III-B3).
//!
//! Each kernel also exposes its analytical flop and minimum-traffic
//! counts, the inputs to the Fig. 5 roofline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blas;
pub mod conv;
pub mod reference;
pub mod schedule;
pub mod stencil;

/// Analytic cost counts of one kernel invocation, used by the roofline
/// and extrapolation models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelCost {
    /// Floating-point operations performed.
    pub flops: u64,
    /// Minimum external-memory traffic in bytes (compulsory reads of
    /// inputs plus writes of outputs, assuming perfect on-chip reuse
    /// within one TCDM tile).
    pub min_ext_bytes: u64,
}

impl KernelCost {
    /// Operational intensity in flop/byte (the Fig. 5 x-axis).
    #[must_use]
    pub fn operational_intensity(&self) -> f64 {
        if self.min_ext_bytes == 0 {
            f64::INFINITY
        } else {
            self.flops as f64 / self.min_ext_bytes as f64
        }
    }
}

/// Splits `n` work items into at most `parts` contiguous chunks of
/// near-equal size; returns `(start, len)` pairs (empty chunks
/// omitted). This is the one work-splitting rule every lowering in this
/// crate uses — engines within a cluster and, in the scale-out
/// scheduler, clusters within a system shard with the same geometry, so
/// an N-way run touches exactly the same elements as a 1-way run.
#[must_use]
pub fn split_work(n: u32, parts: u32) -> Vec<(u32, u32)> {
    let parts = parts.min(n).max(1);
    let base = n / parts;
    let rem = n % parts;
    let mut out = Vec::with_capacity(parts as usize);
    let mut start = 0;
    for p in 0..parts {
        let len = base + u32::from(p < rem);
        if len > 0 {
            out.push((start, len));
        }
        start += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operational_intensity_basics() {
        let c = KernelCost {
            flops: 100,
            min_ext_bytes: 50,
        };
        assert!((c.operational_intensity() - 2.0).abs() < 1e-12);
        let inf = KernelCost {
            flops: 1,
            min_ext_bytes: 0,
        };
        assert!(inf.operational_intensity().is_infinite());
    }
}
