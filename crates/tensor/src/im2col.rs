//! im2col + GEMM convolution — the matrix formulation PIM mappings (and
//! GPUs) actually execute.
//!
//! `im2col` unrolls every convolution window into a matrix column; the
//! convolution then becomes one matrix-matrix product with the reshaped
//! kernels. This is the dense formulation whose zero columns ZFDR prunes,
//! so having it as a first-class reference both cross-checks the loop-nest
//! kernels and quantifies the im2col traffic the baselines pay.

use crate::geometry::SconvGeometry;
use crate::tensor::Tensor;

/// Unrolls a padded `[C, H, W]` input into the im2col matrix
/// `[C·K·K, O·O]` for the given geometry: column `(oy·O + ox)` holds the
/// window at output position `(oy, ox)` in channel-major, then
/// row-major-kernel order. Padding is resolved inline against the
/// unpadded input (no padded intermediate plane is materialised):
/// out-of-bounds window taps are `0.0`, exactly the values of the padded
/// formulation.
///
/// # Panics
///
/// Panics if the input shape disagrees with the geometry.
pub fn im2col(input: &Tensor, geom: &SconvGeometry) -> Tensor {
    assert_eq!(input.shape().len(), 3, "im2col expects [C, H, W]");
    assert_eq!(input.shape()[1], geom.input, "input extent mismatch");
    assert_eq!(input.shape()[2], geom.input, "input extent mismatch");
    let c = input.shape()[0];
    let k = geom.kernel;
    let o = geom.output;
    let h = geom.input;
    let (stride, pad) = (geom.stride, geom.pad);
    let mut out = vec![0.0; c * k * k * o * o];
    let data = input.data();
    for ci in 0..c {
        for ky in 0..k {
            for kx in 0..k {
                let row = ci * k * k + ky * k + kx;
                let orow = &mut out[row * o * o..(row + 1) * o * o];
                for oy in 0..o {
                    let y = oy * stride + ky;
                    let dst = &mut orow[oy * o..(oy + 1) * o];
                    if y < pad || y >= pad + h {
                        dst.fill(0.0);
                        continue;
                    }
                    let irow = &data[ci * h * h + (y - pad) * h..ci * h * h + (y - pad + 1) * h];
                    for (ox, slot) in dst.iter_mut().enumerate() {
                        let x = ox * stride + kx;
                        *slot = if x < pad || x >= pad + h {
                            0.0
                        } else {
                            irow[x - pad]
                        };
                    }
                }
            }
        }
    }
    Tensor::from_vec(&[c * k * k, o * o], out)
}

/// Reshapes `[OC, IC, K, K]` kernels into the GEMM weight matrix
/// `[OC, IC·K·K]` matching [`im2col`]'s row order.
///
/// # Panics
///
/// Panics if the weights are not rank-4.
pub fn kernels_to_matrix(weights: &Tensor) -> Tensor {
    assert_eq!(weights.shape().len(), 4, "expected [OC, IC, K, K] kernels");
    let (oc, ic, k) = (weights.shape()[0], weights.shape()[1], weights.shape()[2]);
    Tensor::from_fn(&[oc, ic * k * k], |idx| {
        let (row, col) = (idx[0], idx[1]);
        let ci = col / (k * k);
        let ky = (col / k) % k;
        let kx = col % k;
        weights[&[row, ci, ky, kx]]
    })
}

/// Matrix multiply `[m, k] × [k, n] → [m, n]` through the blocked,
/// thread-parallel [`crate::tensor::gemm`] kernel.
///
/// # Panics
///
/// Panics on inner-dimension mismatch.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(
        a.shape()[1],
        b.shape()[0],
        "inner dimensions disagree: {:?} x {:?}",
        a.shape(),
        b.shape()
    );
    crate::tensor::gemm(a, b)
}

/// Convolution through im2col + GEMM; identical to
/// [`crate::conv::Conv2d::forward`].
///
/// # Panics
///
/// Panics on operand shape mismatches.
pub fn conv2d_gemm(input: &Tensor, weights: &Tensor, geom: &SconvGeometry) -> Tensor {
    let oc = weights.shape()[0];
    let cols = im2col(input, geom);
    let w = kernels_to_matrix(weights);
    let flat = matmul(&w, &cols);
    flat.reshaped(&[oc, geom.output, geom.output])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_tensors_close;
    use crate::conv::Conv2d;

    fn det(shape: &[usize], seed: u32) -> Tensor {
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(7);
        Tensor::from_fn(shape, |_| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            ((state >> 16) as f32 / 65536.0) - 0.5
        })
    }

    #[test]
    fn gemm_conv_equals_loop_nest() {
        for (i, k, s, p, ic, oc) in [
            (8, 3, 1, 1, 2, 3),
            (8, 5, 2, 2, 3, 4),
            (16, 4, 2, 1, 2, 2),
            (6, 3, 3, 0, 1, 1),
        ] {
            let geom = SconvGeometry::new(i, k, s, p).unwrap();
            let conv = Conv2d::new(ic, oc, k, s, p).unwrap();
            let input = det(&[ic, i, i], i as u32);
            let weights = det(&[oc, ic, k, k], k as u32);
            let a = conv.forward(&input, &weights);
            let b = conv2d_gemm(&input, &weights, &geom);
            assert_tensors_close(&a, &b, 1e-4);
        }
    }

    #[test]
    fn im2col_shape_and_content() {
        let geom = SconvGeometry::new(4, 3, 1, 0).unwrap();
        let input = Tensor::from_fn(&[1, 4, 4], |i| (i[1] * 4 + i[2]) as f32);
        let cols = im2col(&input, &geom);
        assert_eq!(cols.shape(), &[9, 4]);
        // First column = top-left window, row-major.
        let first: Vec<f32> = (0..9).map(|r| cols[&[r, 0]]).collect();
        assert_eq!(first, vec![0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 8.0, 9.0, 10.0]);
    }

    #[test]
    fn inline_padding_matches_padded_formulation() {
        // im2col_into resolves padding inline; it must reproduce the
        // materialised pad_planes formulation value-for-value.
        use crate::zero_insert::pad_planes;
        for (i, k, s, p, c) in [(8, 3, 1, 1, 2), (8, 5, 2, 2, 3), (16, 4, 2, 1, 2), (6, 3, 3, 0, 1)]
        {
            let geom = SconvGeometry::new(i, k, s, p).unwrap();
            let input = det(&[c, i, i], 5);
            let cols = im2col(&input, &geom);
            let padded = pad_planes(&input, p);
            let o = geom.output;
            for ci in 0..c {
                for ky in 0..k {
                    for kx in 0..k {
                        let row = ci * k * k + ky * k + kx;
                        for oy in 0..o {
                            for ox in 0..o {
                                let want = padded[&[ci, oy * s + ky, ox * s + kx]];
                                let got = cols[&[row, oy * o + ox]];
                                assert_eq!(got.to_bits(), want.to_bits());
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn matmul_identity() {
        let a = det(&[3, 3], 9);
        let id = Tensor::from_fn(&[3, 3], |i| if i[0] == i[1] { 1.0 } else { 0.0 });
        assert_tensors_close(&matmul(&a, &id), &a, 1e-6);
        assert_tensors_close(&matmul(&id, &a), &a, 1e-6);
    }

    #[test]
    #[should_panic(expected = "inner dimensions disagree")]
    fn matmul_rejects_mismatch() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        let _ = matmul(&a, &b);
    }
}
