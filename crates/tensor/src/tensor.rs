//! A minimal dense, row-major, `f32` n-dimensional tensor.
//!
//! The accelerator simulation only needs shapes, but the functional GAN
//! substrate and the ZFDR correctness proofs need real arithmetic, so this
//! module provides just enough of an ndarray: construction, indexing,
//! element-wise maps, and a couple of linear-algebra helpers. The dense
//! kernels ([`gemm`], [`gemm_nt`], [`mmv`]) are thin allocating wrappers
//! over the packed, cache-blocked microkernels in [`crate::kernel`].

use std::fmt;

/// Maximum tensor rank. Shapes and strides are stored inline (no per-tensor
/// heap allocation for metadata), and nothing in the workspace needs more
/// than `[N, C, H, W]`.
pub(crate) const MAX_RANK: usize = 4;

/// Dense row-major `f32` tensor.
///
/// Shape and strides live in fixed `[usize; 4]` arrays (rank ≤ 4), so
/// constructing a tensor around an existing buffer performs no heap
/// allocation — the property the training workspace's zero-allocation
/// steady state relies on. Zero-sized dimensions are allowed; such tensors
/// simply hold no elements.
///
/// # Example
///
/// ```
/// use lergan_tensor::Tensor;
/// let t = Tensor::from_fn(&[2, 3], |idx| (idx[0] * 3 + idx[1]) as f32);
/// assert_eq!(t[&[1, 2]], 5.0);
/// assert_eq!(t.len(), 6);
/// ```
#[derive(Clone)]
pub struct Tensor {
    rank: usize,
    shape: [usize; MAX_RANK],
    strides: [usize; MAX_RANK],
    data: Vec<f32>,
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.shape() == other.shape() && self.data == other.data
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tensor")
            .field("shape", &self.shape())
            .field("len", &self.data.len())
            .finish()
    }
}

/// Validates a shape and lays out its inline dimension/stride arrays
/// (unused trailing slots hold 1, which keeps the stride recurrence
/// well-defined; they are never compared or exposed).
fn dims_for(shape: &[usize]) -> (usize, [usize; MAX_RANK], [usize; MAX_RANK]) {
    let rank = shape.len();
    assert!(rank >= 1, "tensor shape must have at least one dim");
    assert!(rank <= MAX_RANK, "tensor rank {rank} exceeds {MAX_RANK}");
    let mut dims = [1usize; MAX_RANK];
    dims[..rank].copy_from_slice(shape);
    let mut strides = [1usize; MAX_RANK];
    for i in (0..rank.saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * dims[i + 1];
    }
    (rank, dims, strides)
}

impl Tensor {
    /// Creates a tensor of the given shape filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `shape` is empty or longer than four dimensions.
    pub fn zeros(shape: &[usize]) -> Self {
        Self::filled(shape, 0.0)
    }

    /// Creates a tensor of the given shape filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::filled(shape, 1.0)
    }

    /// Creates a tensor of the given shape filled with `value`.
    pub fn filled(shape: &[usize], value: f32) -> Self {
        let (rank, dims, strides) = dims_for(shape);
        let len = shape.iter().product();
        Tensor {
            rank,
            shape: dims,
            strides,
            data: vec![value; len],
        }
    }

    /// Creates a tensor from an existing flat buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the product of `shape`.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        let expected: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            expected,
            "buffer length {} does not match shape {shape:?}",
            data.len()
        );
        let (rank, dims, strides) = dims_for(shape);
        Tensor {
            rank,
            shape: dims,
            strides,
            data,
        }
    }

    /// Creates a tensor by evaluating `f` at every multi-index.
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(&[usize]) -> f32) -> Self {
        let mut t = Tensor::zeros(shape);
        let mut idx = [0usize; MAX_RANK];
        let rank = t.rank;
        for flat in 0..t.data.len() {
            t.unflatten(flat, &mut idx[..rank]);
            t.data[flat] = f(&idx[..rank]);
        }
        t
    }

    /// The shape of the tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape[..self.rank]
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements (true only when some dimension
    /// is zero).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the flat buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Flat offset of a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of bounds.
    pub fn offset(&self, idx: &[usize]) -> usize {
        assert_eq!(idx.len(), self.rank, "index rank mismatch");
        let mut off = 0;
        for (d, (&i, (&dim, &stride))) in idx
            .iter()
            .zip(self.shape().iter().zip(self.strides.iter()))
            .enumerate()
        {
            assert!(i < dim, "index {i} out of bounds for dim {d} (size {dim})");
            off += i * stride;
        }
        off
    }

    fn unflatten(&self, mut flat: usize, out: &mut [usize]) {
        for (o, &stride) in out.iter_mut().zip(self.strides.iter()) {
            *o = flat / stride;
            flat %= stride;
        }
    }

    /// Returns a reshaped copy sharing the same data.
    ///
    /// # Panics
    ///
    /// Panics if the new shape has a different element count.
    pub fn reshaped(&self, shape: &[usize]) -> Tensor {
        Tensor::from_vec(shape, self.data.clone())
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            rank: self.rank,
            shape: self.shape,
            strides: self.strides,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Element-wise binary combination of two same-shape tensors.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip_with(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "zip_with shape mismatch");
        Tensor {
            rank: self.rank,
            shape: self.shape,
            strides: self.strides,
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Number of elements equal to exactly `0.0`.
    pub fn count_zeros(&self) -> usize {
        self.data.iter().filter(|&&x| x == 0.0).count()
    }

    /// Overwrites every element with `value` in place.
    pub fn fill(&mut self, value: f32) {
        self.data.fill(value);
    }

    /// Scales every element in place.
    pub fn scale_in_place(&mut self, k: f32) {
        for x in &mut self.data {
            *x *= k;
        }
    }

    /// Adds `k * other` into `self` (AXPY).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn axpy_in_place(&mut self, k: f32, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += k * b;
        }
    }

    /// Adds `k * other` into `self` from a flat slice of the same length.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn axpy_slice_in_place(&mut self, k: f32, other: &[f32]) {
        assert_eq!(self.data.len(), other.len(), "axpy length mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.iter()) {
            *a += k * b;
        }
    }
}

impl std::ops::Index<&[usize]> for Tensor {
    type Output = f32;
    fn index(&self, idx: &[usize]) -> &f32 {
        &self.data[self.offset(idx)]
    }
}

impl std::ops::IndexMut<&[usize]> for Tensor {
    fn index_mut(&mut self, idx: &[usize]) -> &mut f32 {
        let off = self.offset(idx);
        &mut self.data[off]
    }
}

impl std::ops::Index<&[usize; 2]> for Tensor {
    type Output = f32;
    fn index(&self, idx: &[usize; 2]) -> &f32 {
        &self.data[self.offset(idx.as_slice())]
    }
}

impl std::ops::Index<&[usize; 3]> for Tensor {
    type Output = f32;
    fn index(&self, idx: &[usize; 3]) -> &f32 {
        &self.data[self.offset(idx.as_slice())]
    }
}

impl std::ops::Index<&[usize; 4]> for Tensor {
    type Output = f32;
    fn index(&self, idx: &[usize; 4]) -> &f32 {
        &self.data[self.offset(idx.as_slice())]
    }
}

/// Work floor (multiply-adds) below which kernels stay single-threaded:
/// dispatching to the worker pool costs more than this much arithmetic.
pub(crate) const MIN_PARALLEL_FLOPS: usize = 32 * 1024;

/// Matrix-multiply-vector: `m` is `[rows, cols]`, `v` has `cols` elements.
///
/// This is the primitive the ReRAM CArray executes in one read cycle.
/// Allocating wrapper over [`crate::kernel::mmv_into`]; every element
/// accumulates along `cols` in ascending order, bit-identically for every
/// thread count.
///
/// # Panics
///
/// Panics if `m` is not rank-2 or the vector length does not match.
pub fn mmv(m: &Tensor, v: &[f32]) -> Vec<f32> {
    assert_eq!(m.shape().len(), 2, "mmv expects a rank-2 matrix");
    let mut out = vec![0.0; m.shape()[0]];
    crate::kernel::mmv_into(m, v, &mut out);
    out
}

/// Packed matrix-matrix product: `a` is `[m, k]`, `b` is `[k, n]`,
/// returning `[m, n]`.
///
/// This is the primitive behind the phase-class GEMMs of
/// [`crate::zero_free::PhaseConv`] and the im2col convolution. Allocating
/// wrapper over the cache-blocked [`crate::kernel::gemm_into`], which
/// accumulates along `k` in ascending order exactly like [`mmv`] does, so
/// for any column vector `b` the two agree bit-for-bit; row blocks are
/// distributed over the [`crate::parallel`] substrate with each worker
/// owning disjoint output rows, so results are bit-identical for every
/// thread count.
///
/// # Panics
///
/// Panics if either operand is not rank-2 or the inner dimensions differ.
///
/// # Example
///
/// ```
/// use lergan_tensor::tensor::gemm;
/// use lergan_tensor::Tensor;
/// let a = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
/// let b = Tensor::from_vec(&[2, 2], vec![5.0, 6.0, 7.0, 8.0]);
/// assert_eq!(gemm(&a, &b).data(), &[19.0, 22.0, 43.0, 50.0]);
/// ```
pub fn gemm(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape().len(), 2, "gemm expects rank-2 operands");
    assert_eq!(b.shape().len(), 2, "gemm expects rank-2 operands");
    let mut out = Tensor::zeros(&[a.shape()[0], b.shape()[1]]);
    crate::kernel::gemm_into(a, b, out.data_mut());
    out
}

/// GEMM with a pre-transposed right operand:
/// `[m, k] × ([n, k])ᵀ → [m, n]`.
///
/// Every element accumulates over `l` ascending from `0.0` with the same
/// chain as [`mmv`], so `gemm_nt(a, bt)` column `j` is bit-identical to
/// `mmv(a, bt_row_j)`.
/// Allocating wrapper over [`crate::kernel::gemm_nt_into`]. Prefer this
/// over [`gemm`] when the right operand is naturally gathered
/// row-per-column (few columns, long inner dimension).
///
/// # Panics
///
/// Panics if either operand is not rank-2 or the inner dimensions (the
/// *second* extent of both operands) disagree.
pub fn gemm_nt(a: &Tensor, bt: &Tensor) -> Tensor {
    assert_eq!(a.shape().len(), 2, "gemm_nt expects rank-2 operands");
    assert_eq!(bt.shape().len(), 2, "gemm_nt expects rank-2 operands");
    let mut out = Tensor::zeros(&[a.shape()[0], bt.shape()[0]]);
    crate::kernel::gemm_nt_into(a, bt, out.data_mut());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.shape(), &[2, 3, 4]);
        assert_eq!(t.len(), 24);
        assert_eq!(t.count_zeros(), 24);
        assert!(!t.is_empty());
    }

    #[test]
    fn zero_sized_dimensions_are_allowed() {
        let t = Tensor::zeros(&[3, 0]);
        assert_eq!(t.shape(), &[3, 0]);
        assert_eq!(t.len(), 0);
        assert!(t.is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn rank_above_four_panics() {
        let _ = Tensor::zeros(&[1, 1, 1, 1, 1]);
    }

    #[test]
    fn equality_ignores_inline_padding() {
        // Same shape built through different paths must compare equal, and
        // different ranks with the same element count must not.
        let a = Tensor::from_vec(&[2, 3], vec![0.0; 6]);
        let b = Tensor::zeros(&[2, 3]);
        assert_eq!(a, b);
        let c = Tensor::zeros(&[2, 3, 1]);
        assert_ne!(a, c);
    }

    #[test]
    fn from_fn_row_major_order() {
        let t = Tensor::from_fn(&[2, 3], |idx| (idx[0] * 10 + idx[1]) as f32);
        assert_eq!(t.data(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn indexing_round_trip() {
        let t = Tensor::from_fn(&[3, 4, 5], |idx| {
            (idx[0] * 100 + idx[1] * 10 + idx[2]) as f32
        });
        assert_eq!(t[&[2, 3, 4]], 234.0);
        assert_eq!(t[&[0, 0, 0]], 0.0);
    }

    #[test]
    fn index_mut_writes() {
        let mut t = Tensor::zeros(&[2, 2]);
        t[&[1, 0][..]] = 7.0;
        assert_eq!(t[&[1, 0]], 7.0);
        assert_eq!(t.sum(), 7.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let t = Tensor::zeros(&[2, 2]);
        let _ = t[&[2, 0]];
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_length_mismatch_panics() {
        let _ = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn map_and_zip() {
        let a = Tensor::from_vec(&[3], vec![1.0, 2.0, 3.0]);
        let b = a.map(|x| x * 2.0);
        assert_eq!(b.data(), &[2.0, 4.0, 6.0]);
        let c = a.zip_with(&b, |x, y| y - x);
        assert_eq!(c.data(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn fill_overwrites_in_place() {
        let mut t = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        t.fill(0.5);
        assert_eq!(t.data(), &[0.5; 4]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::ones(&[2, 2]);
        let b = Tensor::filled(&[2, 2], 3.0);
        a.axpy_in_place(0.5, &b);
        assert_eq!(a.data(), &[2.5, 2.5, 2.5, 2.5]);
        a.axpy_slice_in_place(1.0, &[0.5; 4]);
        assert_eq!(a.data(), &[3.0, 3.0, 3.0, 3.0]);
    }

    #[test]
    fn mmv_matches_manual() {
        let m = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let out = mmv(&m, &[1.0, 0.0, -1.0]);
        assert_eq!(out, vec![-2.0, -2.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_fn(&[2, 6], |idx| (idx[0] * 6 + idx[1]) as f32);
        let r = t.reshaped(&[3, 4]);
        assert_eq!(r.shape(), &[3, 4]);
        assert_eq!(r.data(), t.data());
    }
}
