//! Plain-Rust reference implementations (correctness oracles).
//!
//! All references accumulate in `f64` so they double as the
//! high-precision baseline of the §II-C RMSE study.

/// `y[i] = a * x[i] + y[i]` (BLAS 1).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn axpy(a: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy requires equal lengths");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi = (f64::from(a) * f64::from(xi) + f64::from(*yi)) as f32;
    }
}

/// `y = A x` for a row-major `rows × cols` matrix (BLAS 2).
///
/// # Panics
///
/// Panics on inconsistent dimensions.
#[must_use]
pub fn gemv(a: &[f32], x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    assert_eq!(a.len(), rows * cols, "matrix size mismatch");
    assert_eq!(x.len(), cols, "vector size mismatch");
    (0..rows)
        .map(|r| {
            let mut acc = 0f64;
            for c in 0..cols {
                acc += f64::from(a[r * cols + c]) * f64::from(x[c]);
            }
            acc as f32
        })
        .collect()
}

/// `C = A B` for row-major matrices (`A`: `m × k`, `B`: `k × n`).
///
/// # Panics
///
/// Panics on inconsistent dimensions.
#[must_use]
pub fn gemm(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    assert_eq!(a.len(), m * k, "A size mismatch");
    assert_eq!(b.len(), k * n, "B size mismatch");
    let mut c = vec![0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0f64;
            for l in 0..k {
                acc += f64::from(a[i * k + l]) * f64::from(b[l * n + j]);
            }
            c[i * n + j] = acc as f32;
        }
    }
    c
}

/// Valid (no padding) 2-D cross-correlation of a `height × width` image
/// with a `k × k` kernel — the convolution as DNN frameworks define it.
/// Output is `(height-k+1) × (width-k+1)`.
///
/// # Panics
///
/// Panics if the image is smaller than the kernel.
#[must_use]
pub fn conv2d(image: &[f32], height: usize, width: usize, kernel: &[f32], k: usize) -> Vec<f32> {
    assert_eq!(image.len(), height * width, "image size mismatch");
    assert_eq!(kernel.len(), k * k, "kernel size mismatch");
    assert!(height >= k && width >= k, "image smaller than kernel");
    let oh = height - k + 1;
    let ow = width - k + 1;
    let mut out = vec![0f32; oh * ow];
    for y in 0..oh {
        for x in 0..ow {
            let mut acc = 0f64;
            for ky in 0..k {
                for kx in 0..k {
                    acc += f64::from(image[(y + ky) * width + (x + kx)])
                        * f64::from(kernel[ky * k + kx]);
                }
            }
            out[y * ow + x] = acc as f32;
        }
    }
    out
}

/// 1-D discrete Laplace operator with the 3-coefficient stencil
/// `[1, -2, 1]`; output has `n - 2` interior points.
///
/// # Panics
///
/// Panics if `n < 3`.
#[must_use]
pub fn laplace1d(input: &[f32]) -> Vec<f32> {
    assert!(input.len() >= 3, "laplace1d needs at least 3 points");
    input
        .windows(3)
        .map(|w| (f64::from(w[0]) - 2.0 * f64::from(w[1]) + f64::from(w[2])) as f32)
        .collect()
}

/// 2-D discrete Laplace operator (5-point star) on the interior of a
/// `height × width` grid; output is `(height-2) × (width-2)`.
///
/// # Panics
///
/// Panics if either dimension is below 3.
#[must_use]
pub fn laplace2d(input: &[f32], height: usize, width: usize) -> Vec<f32> {
    assert!(height >= 3 && width >= 3, "grid too small");
    assert_eq!(input.len(), height * width, "grid size mismatch");
    let oh = height - 2;
    let ow = width - 2;
    let mut out = vec![0f32; oh * ow];
    for y in 0..oh {
        for x in 0..ow {
            let c = (y + 1) * width + (x + 1);
            let acc = f64::from(input[c - width])
                + f64::from(input[c + width])
                + f64::from(input[c - 1])
                + f64::from(input[c + 1])
                - 4.0 * f64::from(input[c]);
            out[y * ow + x] = acc as f32;
        }
    }
    out
}

/// 3-D discrete Laplace operator (7-point star) on the interior of a
/// `depth × height × width` grid.
///
/// # Panics
///
/// Panics if any dimension is below 3.
#[must_use]
pub fn laplace3d(input: &[f32], depth: usize, height: usize, width: usize) -> Vec<f32> {
    assert!(depth >= 3 && height >= 3 && width >= 3, "grid too small");
    assert_eq!(input.len(), depth * height * width, "grid size mismatch");
    let (od, oh, ow) = (depth - 2, height - 2, width - 2);
    let mut out = vec![0f32; od * oh * ow];
    let idx = |z: usize, y: usize, x: usize| (z * height + y) * width + x;
    for z in 0..od {
        for y in 0..oh {
            for x in 0..ow {
                let (cz, cy, cx) = (z + 1, y + 1, x + 1);
                let acc = f64::from(input[idx(cz - 1, cy, cx)])
                    + f64::from(input[idx(cz + 1, cy, cx)])
                    + f64::from(input[idx(cz, cy - 1, cx)])
                    + f64::from(input[idx(cz, cy + 1, cx)])
                    + f64::from(input[idx(cz, cy, cx - 1)])
                    + f64::from(input[idx(cz, cy, cx + 1)])
                    - 6.0 * f64::from(input[idx(cz, cy, cx)]);
                out[(z * oh + y) * ow + x] = acc as f32;
            }
        }
    }
    out
}

/// The 13-coefficient diffusion stencil of \[16\] (§III-B3): a 3×3 plane
/// stencil plus two ±z neighbour pairs, decomposable into NTX
/// instructions with nine, two and two coefficients. Operates on the
/// interior of a `depth × height × width` grid.
///
/// Coefficient layout: `plane` holds the 3×3 in-plane weights,
/// `z_near = [w(z-1), w(z+1)]`, `z_far = [w(z-2), w(z+2)]`.
///
/// # Panics
///
/// Panics if any dimension is too small for the footprint.
#[must_use]
pub fn diffusion(
    input: &[f32],
    depth: usize,
    height: usize,
    width: usize,
    plane: &[f32; 9],
    z_near: &[f32; 2],
    z_far: &[f32; 2],
) -> Vec<f32> {
    assert!(depth >= 5 && height >= 3 && width >= 3, "grid too small");
    assert_eq!(input.len(), depth * height * width, "grid size mismatch");
    let (od, oh, ow) = (depth - 4, height - 2, width - 2);
    let idx = |z: usize, y: usize, x: usize| (z * height + y) * width + x;
    let mut out = vec![0f32; od * oh * ow];
    for z in 0..od {
        for y in 0..oh {
            for x in 0..ow {
                let (cz, cy, cx) = (z + 2, y + 1, x + 1);
                let mut acc = 0f64;
                for ky in 0..3 {
                    for kx in 0..3 {
                        acc += f64::from(plane[ky * 3 + kx])
                            * f64::from(input[idx(cz, cy + ky - 1, cx + kx - 1)]);
                    }
                }
                acc += f64::from(z_near[0]) * f64::from(input[idx(cz - 1, cy, cx)]);
                acc += f64::from(z_near[1]) * f64::from(input[idx(cz + 1, cy, cx)]);
                acc += f64::from(z_far[0]) * f64::from(input[idx(cz - 2, cy, cx)]);
                acc += f64::from(z_far[1]) * f64::from(input[idx(cz + 2, cy, cx)]);
                out[(z * oh + y) * ow + x] = acc as f32;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_basics() {
        let x = [1.0f32, 2.0, 3.0];
        let mut y = [10.0f32, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0, 36.0]);
    }

    #[test]
    fn gemv_identity() {
        let a = [1.0f32, 0.0, 0.0, 1.0];
        let x = [3.0f32, 4.0];
        assert_eq!(gemv(&a, &x, 2, 2), vec![3.0, 4.0]);
    }

    #[test]
    fn gemm_small_known() {
        // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
        let a = [1.0f32, 2.0, 3.0, 4.0];
        let b = [5.0f32, 6.0, 7.0, 8.0];
        assert_eq!(gemm(&a, &b, 2, 2, 2), vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn conv2d_averaging_kernel() {
        let img: Vec<f32> = (1..=16).map(|v| v as f32).collect(); // 4x4
        let k = [1.0f32 / 9.0; 9];
        let out = conv2d(&img, 4, 4, &k, 3);
        assert_eq!(out.len(), 4);
        // Mean of the top-left 3x3 block: (1+2+3+5+6+7+9+10+11)/9 = 6
        assert!((out[0] - 6.0).abs() < 1e-6);
    }

    #[test]
    fn laplace1d_of_linear_ramp_is_zero() {
        let x: Vec<f32> = (0..10).map(|v| 3.0 * v as f32 + 1.0).collect();
        for v in laplace1d(&x) {
            assert_eq!(v, 0.0);
        }
    }

    #[test]
    fn laplace1d_of_quadratic_is_constant() {
        let x: Vec<f32> = (0..10).map(|v| (v * v) as f32).collect();
        for v in laplace1d(&x) {
            assert_eq!(v, 2.0);
        }
    }

    #[test]
    fn laplace2d_of_harmonic_is_zero() {
        // f(x,y) = x^2 - y^2 is harmonic: Laplacian = 0.
        let (h, w) = (6, 5);
        let mut grid = vec![0f32; h * w];
        for y in 0..h {
            for x in 0..w {
                grid[y * w + x] = (x * x) as f32 - (y * y) as f32;
            }
        }
        for v in laplace2d(&grid, h, w) {
            assert_eq!(v, 0.0);
        }
    }

    #[test]
    fn laplace3d_of_quadratic() {
        // f = x^2 + y^2 + z^2 has Laplacian 6 everywhere.
        let (d, h, w) = (4, 4, 4);
        let mut grid = vec![0f32; d * h * w];
        for z in 0..d {
            for y in 0..h {
                for x in 0..w {
                    grid[(z * h + y) * w + x] = (x * x + y * y + z * z) as f32;
                }
            }
        }
        for v in laplace3d(&grid, d, h, w) {
            assert_eq!(v, 6.0);
        }
    }

    #[test]
    fn diffusion_reduces_to_plane_stencil_with_zero_z() {
        let (d, h, w) = (5, 4, 4);
        let grid: Vec<f32> = (0..d * h * w).map(|v| (v % 7) as f32).collect();
        let plane = [0.0, 1.0, 0.0, 1.0, -4.0, 1.0, 0.0, 1.0, 0.0];
        let out = diffusion(&grid, d, h, w, &plane, &[0.0, 0.0], &[0.0, 0.0]);
        // Compare against laplace2d on the central plane (z=2).
        let central: Vec<f32> = grid[2 * h * w..3 * h * w].to_vec();
        let expect = laplace2d(&central, h, w);
        assert_eq!(out, expect);
    }
}
