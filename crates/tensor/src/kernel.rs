//! Shape-adaptive GEMM: SIMD microkernels, a no-pack direct path, and the
//! packed, cache-blocked BLIS-style driver.
//!
//! This module is the dense-compute core of the workspace. Every product
//! enters through [`gemm_buf`], [`gemm_nt_buf`] or [`mmv_buf`] (the
//! `_into` variants and the allocating wrappers in [`crate::tensor`] are
//! thin shells over them). `mmv_buf` is one ascending dot product per
//! row; the two GEMMs are routed by [`crate::dispatch`] to one of three
//! strategies:
//!
//! * **Direct** — no packing: register tiles accumulate straight out of
//!   the row-major right operand. This wins on the small `m = 16–64`
//!   products the benchmark GANs issue, where packing the right operand
//!   costs more than it saves.
//! * **Packed** — the classic `jc → pc → ic → ir → jr` blocked driver:
//!   columns in panels of `NC`, the reduction in panels of `KC` packed
//!   into contiguous [`NR`]-wide strips, rows in blocks of `MC` and
//!   register tiles of [`MR`], with the scalar microkernel.
//! * **Packed + SIMD** — the same driver with the explicit AVX
//!   microkernel ([`NR`] = 8 = one 256-bit register of f32 lanes),
//!   runtime-detected. The direct path also uses the AVX kernel on its
//!   full-width column tiles when the host has it.
//!
//! # Bit-exactness
//!
//! Every output element of every strategy is accumulated as the scalar
//! chain `((0 + a_0·b_0) + a_1·b_1) + …` with the reduction index strictly
//! ascending — the same chain the pre-packing kernels produced. The SIMD
//! kernel preserves it because its vectors run across *output columns*:
//! lane `j` performs exactly the scalar column-`j` chain (separate IEEE-754
//! multiply and add per step, never FMA-contracted), and lanes never mix.
//! Blocking only ever stores the running value to and reloads it from
//! `f32` between panels, which is exact, and parallelism only splits
//! output *rows* across workers, so the chain per element is independent
//! of strategy, blocking, SIMD width, and thread count alike. Golden tests
//! in the workspace root pin all three strategies bit-for-bit against
//! verbatim copies of the pre-packing kernels across all benchmark GAN
//! shapes.

use crate::dispatch::{self, OpKind, Strategy};
use crate::parallel;
use crate::tensor::{Tensor, MIN_PARALLEL_FLOPS};
use crate::workspace;

/// Register-tile height: output rows accumulated at once.
pub const MR: usize = 4;
/// Register-tile width: output columns per packed strip, and the f32 lane
/// count of one AVX register.
pub const NR: usize = 8;
/// Row-block size: output rows that stream over one packed panel.
const MC: usize = 64;
/// Reduction-panel depth: one packed `[KC × NR]` strip stays in L1.
const KC: usize = 256;
/// Column-panel width: one packed `[KC × NC]` panel stays in L2.
const NC: usize = 1024;

/// The scalar accumulation-order-defining loop of the crate.
///
/// Accumulates `acc[i][j] += a[abase + i·lda + l] · b[bbase + l·ldb + j]`
/// for `l` ascending over one reduction panel. `ldb` is the row stride of
/// the right operand: [`NR`] for packed strips, the full matrix width `n`
/// for the direct path.
///
/// The loops are iterator-free with fixed trip counts over the register
/// tile, which LLVM unrolls and autovectorizes at the build's baseline
/// SIMD width; there is no FMA contraction (separate multiply and add), so
/// the result is the exact IEEE-754 chain the naive kernels compute. The
/// AVX twin (`microkernel_avx`) computes the same chain eight lanes at a
/// time; [`microkernel`] picks between them.
#[allow(clippy::needless_range_loop)] // fixed-width indexed loops vectorize as written
#[allow(clippy::too_many_arguments)] // mirrors the BLIS microkernel signature
#[inline(always)]
fn microkernel_scalar(
    acc: &mut [[f32; NR]; MR],
    mr: usize,
    a: &[f32],
    abase: usize,
    lda: usize,
    b: &[f32],
    bbase: usize,
    ldb: usize,
    kc: usize,
) {
    for l in 0..kc {
        let bv = &b[bbase + l * ldb..bbase + l * ldb + NR];
        for i in 0..mr {
            let av = a[abase + i * lda + l];
            let row = &mut acc[i];
            for j in 0..NR {
                row[j] += av * bv[j];
            }
        }
    }
}

/// Variable-width tail of the direct path: like [`microkernel_scalar`]
/// but over `jw < NR` live columns, for the right edge of an un-packed
/// (and therefore un-padded) right operand.
#[allow(clippy::too_many_arguments)]
fn microkernel_tail(
    acc: &mut [[f32; NR]; MR],
    mr: usize,
    jw: usize,
    a: &[f32],
    abase: usize,
    lda: usize,
    b: &[f32],
    bbase: usize,
    ldb: usize,
    kc: usize,
) {
    for l in 0..kc {
        let bv = &b[bbase + l * ldb..bbase + l * ldb + jw];
        for (i, row) in acc.iter_mut().enumerate().take(mr) {
            let av = a[abase + i * lda + l];
            for (j, &bj) in bv.iter().enumerate() {
                row[j] += av * bj;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{MR, NR};
    #[allow(clippy::wildcard_imports)] // the intrinsics module is designed for this
    use std::arch::x86_64::*;

    /// AVX twin of the scalar microkernel: one 256-bit register of eight
    /// f32 lanes per accumulator row, separate `_mm256_mul_ps` and
    /// `_mm256_add_ps` per step (never FMA), `l` strictly ascending — so
    /// lane `j`'s value is exactly the scalar kernel's column-`j` chain.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX support at runtime, `mr` must be
    /// at most [`MR`], `a` must cover the `mr × kc` tile rooted at `abase`
    /// with leading dimension `lda`, and `b` must hold [`NR`] readable
    /// values at `bbase + l·ldb` for every `l < kc`.
    #[target_feature(enable = "avx")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn microkernel_avx(
        acc: &mut [[f32; NR]; MR],
        mr: usize,
        a: &[f32],
        abase: usize,
        lda: usize,
        b: &[f32],
        bbase: usize,
        ldb: usize,
        kc: usize,
    ) {
        debug_assert!(mr <= MR);
        debug_assert!(kc == 0 || bbase + (kc - 1) * ldb + NR <= b.len());
        debug_assert!(mr == 0 || kc == 0 || abase + (mr - 1) * lda + kc <= a.len());
        let mut va = [_mm256_setzero_ps(); MR];
        for (i, row) in acc.iter().enumerate().take(mr) {
            va[i] = _mm256_loadu_ps(row.as_ptr());
        }
        let ap = a.as_ptr();
        let bp = b.as_ptr().add(bbase);
        for l in 0..kc {
            let bv = _mm256_loadu_ps(bp.add(l * ldb));
            for (i, v) in va.iter_mut().enumerate().take(mr) {
                let av = _mm256_set1_ps(*ap.add(abase + i * lda + l));
                *v = _mm256_add_ps(*v, _mm256_mul_ps(av, bv));
            }
        }
        for (i, row) in acc.iter_mut().enumerate().take(mr) {
            _mm256_storeu_ps(row.as_mut_ptr(), va[i]);
        }
    }
}

/// Full-width microkernel step: the AVX kernel when `use_simd` (the caller
/// pairs it with runtime detection), the scalar kernel otherwise. Both
/// compute the identical accumulation chain.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn microkernel(
    acc: &mut [[f32; NR]; MR],
    mr: usize,
    a: &[f32],
    abase: usize,
    lda: usize,
    b: &[f32],
    bbase: usize,
    ldb: usize,
    kc: usize,
    use_simd: bool,
) {
    #[cfg(target_arch = "x86_64")]
    if use_simd {
        // SAFETY: callers set `use_simd` only when `dispatch::simd_available`
        // confirmed AVX, and the drivers uphold the tile bounds.
        unsafe { x86::microkernel_avx(acc, mr, a, abase, lda, b, bbase, ldb, kc) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = use_simd;
    microkernel_scalar(acc, mr, a, abase, lda, b, bbase, ldb, kc);
}

/// Where packed strips gather their values from.
enum PackSrc<'a> {
    /// Row-major `[k, n]` right operand (`b` of [`gemm_into`]).
    Rows(&'a [f32], usize),
    /// Row-major `[n, k]` pre-transposed right operand (`bt` of
    /// [`gemm_nt_into`]): column `j` of the product is row `j` here.
    Cols(&'a [f32], usize),
}

/// Packs the `kc × nc` panel rooted at `(pc, jc)` into `NR`-wide strips:
/// strip `s` covers product columns `jc + s·NR ..`, laid out as `kc` rows
/// of `NR` contiguous values, zero-padded past the matrix edge so the
/// microkernel never branches on the column tail. Padding lanes multiply
/// finite left-operand values by `+0.0` and are never stored, so they
/// cannot perturb any real output element.
fn pack_panel(src: &PackSrc<'_>, pc: usize, kc: usize, jc: usize, nc: usize, buf: &mut [f32]) {
    let nstrips = nc.div_ceil(NR);
    for s in 0..nstrips {
        let j0 = jc + s * NR;
        let jw = NR.min(jc + nc - j0);
        let strip = &mut buf[s * kc * NR..(s + 1) * kc * NR];
        match *src {
            PackSrc::Rows(b, n) => {
                for l in 0..kc {
                    let brow = &b[(pc + l) * n + j0..(pc + l) * n + j0 + jw];
                    let dst = &mut strip[l * NR..l * NR + NR];
                    dst[..jw].copy_from_slice(brow);
                    dst[jw..].fill(0.0);
                }
            }
            PackSrc::Cols(bt, k) => {
                for jj in 0..jw {
                    let brow = &bt[(j0 + jj) * k + pc..(j0 + jj) * k + pc + kc];
                    for (l, &v) in brow.iter().enumerate() {
                        strip[l * NR + jj] = v;
                    }
                }
                for jj in jw..NR {
                    for l in 0..kc {
                        strip[l * NR + jj] = 0.0;
                    }
                }
            }
        }
    }
}

/// Serial blocked driver over one worker's contiguous row range.
///
/// `orows` is the worker's slab of the output (`mw` full rows of width
/// `n`), `row0` its first absolute row. Each worker packs into its own
/// thread-local buffer, so no packing state is shared across threads.
#[allow(clippy::too_many_arguments)]
fn gemm_rows_packed(
    orows: &mut [f32],
    row0: usize,
    a: &[f32],
    k: usize,
    n: usize,
    src: &PackSrc<'_>,
    pack: &mut [f32],
    use_simd: bool,
) {
    let mw = orows.len() / n;
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        let nstrips = nc.div_ceil(NR);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            let panel = &mut pack[..nstrips * kc * NR];
            pack_panel(src, pc, kc, jc, nc, panel);
            for ic in (0..mw).step_by(MC) {
                let mc = MC.min(mw - ic);
                for ir in (0..mc).step_by(MR) {
                    let i0 = ic + ir;
                    let mr = MR.min(mc - ir);
                    for s in 0..nstrips {
                        let j0 = jc + s * NR;
                        let jw = NR.min(jc + nc - j0);
                        let mut acc = [[0.0f32; NR]; MR];
                        for (i, row) in acc.iter_mut().enumerate().take(mr) {
                            let base = (i0 + i) * n + j0;
                            row[..jw].copy_from_slice(&orows[base..base + jw]);
                        }
                        microkernel(
                            &mut acc,
                            mr,
                            a,
                            (row0 + i0) * k + pc,
                            k,
                            panel,
                            s * kc * NR,
                            NR,
                            kc,
                            use_simd,
                        );
                        for (i, row) in acc.iter().enumerate().take(mr) {
                            let base = (i0 + i) * n + j0;
                            orows[base..base + jw].copy_from_slice(&row[..jw]);
                        }
                    }
                }
            }
        }
    }
}

/// Serial direct (no-pack) driver over one worker's contiguous row range:
/// register tiles accumulate straight out of the row-major `[k, n]` right
/// operand, the whole reduction held in registers. For the small shapes
/// dispatch routes here, `b` is cache-resident anyway and the packed
/// driver's copy of it is pure overhead.
fn gemm_rows_direct(orows: &mut [f32], row0: usize, a: &[f32], k: usize, n: usize, b: &[f32]) {
    let mw = orows.len() / n;
    let use_simd = dispatch::simd_available();
    let full = n - n % NR;
    for i0 in (0..mw).step_by(MR) {
        let mr = MR.min(mw - i0);
        let abase = (row0 + i0) * k;
        let mut j0 = 0;
        while j0 < full {
            let mut acc = [[0.0f32; NR]; MR];
            microkernel(&mut acc, mr, a, abase, k, b, j0, n, k, use_simd);
            for (i, row) in acc.iter().enumerate().take(mr) {
                let base = (i0 + i) * n + j0;
                orows[base..base + NR].copy_from_slice(row);
            }
            j0 += NR;
        }
        if j0 < n {
            let jw = n - j0;
            let mut acc = [[0.0f32; NR]; MR];
            microkernel_tail(&mut acc, mr, jw, a, abase, k, b, j0, n, k);
            for (i, row) in acc.iter().enumerate().take(mr) {
                let base = (i0 + i) * n + j0;
                orows[base..base + jw].copy_from_slice(&row[..jw]);
            }
        }
    }
}

/// Serial direct driver for the pre-transposed right operand: each output
/// element is one contiguous ascending dot product over `a` row `i` and
/// `bt` row `j` — the exact chain, with no pack and no padding lanes.
fn gemm_nt_rows_direct(orows: &mut [f32], row0: usize, a: &[f32], k: usize, n: usize, bt: &[f32]) {
    let mw = orows.len() / n;
    for i in 0..mw {
        let arow = &a[(row0 + i) * k..(row0 + i) * k + k];
        let orow = &mut orows[i * n..(i + 1) * n];
        for (j, slot) in orow.iter_mut().enumerate() {
            let brow = &bt[j * k..j * k + k];
            *slot = arow.iter().zip(brow).map(|(&x, &y)| x * y).sum();
        }
    }
}

/// Shared parallel dispatch of the packed strategies: splits output rows
/// across workers (disjoint rows, full reduction per element —
/// bit-identical for every thread count) and runs the blocked driver on
/// each range.
fn run_packed(m: usize, k: usize, n: usize, a: &[f32], src: PackSrc<'_>, out: &mut [f32], strategy: Strategy) {
    debug_assert!(m > 0 && k > 0 && n > 0);
    let use_simd = strategy == Strategy::PackedSimd && dispatch::simd_available();
    let min_rows = (MIN_PARALLEL_FLOPS / (k * n)).max(1);
    let pack_len = n.min(NC).div_ceil(NR) * NR * k.min(KC);
    parallel::for_each_unit_chunk_mut(out, n, min_rows, |row0, orows| {
        workspace::with_pack_buffer(pack_len, |pack| {
            gemm_rows_packed(orows, row0, a, k, n, &src, pack, use_simd);
        });
    });
}

/// Slice-level shape-dispatched GEMM: `out[m, n] = a[m, k] × b[k, n]`,
/// all row-major.
///
/// `out` is fully overwritten (zeroed first), so stale contents of a pooled
/// buffer are fine. Degenerate shapes are well-defined: any zero dimension
/// yields an all-zero (possibly empty) output. The strategy is chosen by
/// [`dispatch::select`] from the shape alone and never affects the result.
///
/// # Panics
///
/// Panics if any slice length disagrees with its `m`/`k`/`n` dimensions.
pub fn gemm_buf(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm left operand length mismatch");
    assert_eq!(b.len(), k * n, "gemm right operand length mismatch");
    assert_eq!(out.len(), m * n, "gemm output length mismatch");
    out.fill(0.0);
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    match dispatch::select(OpKind::Gemm, m, k, n) {
        Strategy::Direct => {
            let min_rows = (MIN_PARALLEL_FLOPS / (k * n)).max(1);
            parallel::for_each_unit_chunk_mut(out, n, min_rows, |row0, orows| {
                gemm_rows_direct(orows, row0, a, k, n, b);
            });
        }
        s => run_packed(m, k, n, a, PackSrc::Rows(b, n), out, s),
    }
}

/// Slice-level shape-dispatched GEMM with a pre-transposed right operand:
/// `out[m, n] = a[m, k] × (bt[n, k])ᵀ`. Same conventions as [`gemm_buf`].
///
/// # Panics
///
/// Panics if any slice length disagrees with its `m`/`k`/`n` dimensions.
pub fn gemm_nt_buf(m: usize, k: usize, n: usize, a: &[f32], bt: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm_nt left operand length mismatch");
    assert_eq!(bt.len(), n * k, "gemm_nt right operand length mismatch");
    assert_eq!(out.len(), m * n, "gemm_nt output length mismatch");
    out.fill(0.0);
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    match dispatch::select(OpKind::GemmNt, m, k, n) {
        Strategy::Direct => {
            let min_rows = (MIN_PARALLEL_FLOPS / (k * n)).max(1);
            parallel::for_each_unit_chunk_mut(out, n, min_rows, |row0, orows| {
                gemm_nt_rows_direct(orows, row0, a, k, n, bt);
            });
        }
        s => run_packed(m, k, n, a, PackSrc::Cols(bt, k), out, s),
    }
}

/// Slice-level matrix-vector product: `out[rows] = mdata[rows, cols] · v`.
///
/// One output column can never amortise a pack, so every row is one
/// contiguous ascending dot product, whatever strategy is pinned. Same
/// conventions as [`gemm_buf`].
///
/// # Panics
///
/// Panics if any slice length disagrees with `rows`/`cols`.
pub fn mmv_buf(rows: usize, cols: usize, mdata: &[f32], v: &[f32], out: &mut [f32]) {
    assert_eq!(mdata.len(), rows * cols, "mmv matrix length mismatch");
    assert_eq!(v.len(), cols, "mmv vector length mismatch");
    assert_eq!(out.len(), rows, "mmv output length mismatch");
    out.fill(0.0);
    if rows == 0 || cols == 0 {
        return;
    }
    let min_rows = (MIN_PARALLEL_FLOPS / cols).max(1);
    parallel::for_each_chunk_mut(out, min_rows, |row0, chunk| {
        for (i, slot) in chunk.iter_mut().enumerate() {
            let row = &mdata[(row0 + i) * cols..(row0 + i + 1) * cols];
            *slot = row.iter().zip(v).map(|(&a, &b)| a * b).sum();
        }
    });
}

/// Shape-dispatched GEMM into a caller-owned buffer: `a` is `[m, k]`, `b`
/// is `[k, n]`, `out` receives the row-major `[m, n]` product.
///
/// # Panics
///
/// Panics if either operand is not rank-2, the inner dimensions differ, or
/// `out` is not exactly `m · n` long.
pub fn gemm_into(a: &Tensor, b: &Tensor, out: &mut [f32]) {
    assert_eq!(a.shape().len(), 2, "gemm expects rank-2 operands");
    assert_eq!(b.shape().len(), 2, "gemm expects rank-2 operands");
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (kb, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, kb, "gemm inner dimensions disagree");
    gemm_buf(m, k, n, a.data(), b.data(), out);
}

/// Shape-dispatched GEMM with pre-transposed right operand into a
/// caller-owned buffer: `a` is `[m, k]`, `bt` is `[n, k]`, `out` receives
/// `[m, n]`.
///
/// # Panics
///
/// Panics if either operand is not rank-2, the inner dimensions (the
/// *second* extent of both operands) differ, or `out` is not `m · n` long.
pub fn gemm_nt_into(a: &Tensor, bt: &Tensor, out: &mut [f32]) {
    assert_eq!(a.shape().len(), 2, "gemm_nt expects rank-2 operands");
    assert_eq!(bt.shape().len(), 2, "gemm_nt expects rank-2 operands");
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (n, kb) = (bt.shape()[0], bt.shape()[1]);
    assert_eq!(k, kb, "gemm_nt inner dimensions disagree");
    gemm_nt_buf(m, k, n, a.data(), bt.data(), out);
}

/// Matrix-vector product into a caller-owned buffer: `m` is `[rows,
/// cols]`, `out` receives the `rows` results.
///
/// # Panics
///
/// Panics if `m` is not rank-2 or either slice length mismatches.
pub fn mmv_into(m: &Tensor, v: &[f32], out: &mut [f32]) {
    assert_eq!(m.shape().len(), 2, "mmv expects a rank-2 matrix");
    let (rows, cols) = (m.shape()[0], m.shape()[1]);
    mmv_buf(rows, cols, m.data(), v, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{with_strategy, ForcedStrategy};
    use crate::parallel::with_threads;
    use crate::tensor::{gemm, gemm_nt, mmv};

    const ALL_FORCED: [ForcedStrategy; 4] = [
        ForcedStrategy::Auto,
        ForcedStrategy::Direct,
        ForcedStrategy::Packed,
        ForcedStrategy::Simd,
    ];

    fn det(shape: &[usize]) -> Tensor {
        let mut state = 0x9e3779b97f4a7c15u64;
        Tensor::from_fn(shape, |_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 40) as f64 / (1u64 << 24) as f64) as f32 - 0.5
        })
    }

    /// Reference chain: one ascending dot product per element, exactly the
    /// pre-packing kernels' order.
    fn gemm_ref(a: &Tensor, b: &Tensor) -> Vec<f32> {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for l in 0..k {
                let av = a.data()[i * k + l];
                for j in 0..n {
                    out[i * n + j] += av * b.data()[l * n + j];
                }
            }
        }
        out
    }

    #[test]
    fn every_strategy_matches_reference_chain_bitwise() {
        // Shapes straddling every blocking boundary: MR/NR tails, multiple
        // KC panels, single-element edges.
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 7, 5),
            (4, 8, 8),
            (5, 300, 17),
            (13, 520, 33),
            (64, 64, 64),
        ] {
            let a = det(&[m, k]);
            let b = det(&[k, n]);
            let r = gemm_ref(&a, &b);
            for forced in ALL_FORCED {
                for threads in [1, 2, 8] {
                    let got =
                        with_strategy(forced, || with_threads(threads, || gemm(&a, &b)));
                    assert_eq!(
                        got.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        r.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        "gemm {m}x{k}x{n} {forced:?} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn gemm_nt_column_matches_mmv_bitwise_per_strategy() {
        // The documented contract: gemm_nt(a, bt) column j == mmv(a, bt
        // row j), bit for bit, whatever strategies the two dispatch to.
        let a = det(&[6, 37]);
        let bt = det(&[9, 37]);
        for forced in ALL_FORCED {
            let full = with_strategy(forced, || gemm_nt(&a, &bt));
            for j in 0..9 {
                let row = &bt.data()[j * 37..(j + 1) * 37];
                let col = mmv(&a, row);
                for (i, &v) in col.iter().enumerate() {
                    assert_eq!(full.data()[i * 9 + j].to_bits(), v.to_bits(), "{forced:?}");
                }
            }
        }
    }

    #[test]
    fn into_variants_overwrite_stale_contents() {
        let a = det(&[3, 5]);
        let b = det(&[5, 4]);
        let mut out = vec![f32::NAN; 12];
        gemm_into(&a, &b, &mut out);
        assert_eq!(out, gemm(&a, &b).data());
        let bt = det(&[4, 5]);
        let mut out = vec![f32::NAN; 12];
        gemm_nt_into(&a, &bt, &mut out);
        assert_eq!(out, gemm_nt(&a, &bt).data());
        let mut out = vec![f32::NAN; 3];
        mmv_into(&a, &b.data()[..5], &mut out);
        assert_eq!(out, mmv(&a, &b.data()[..5]));
    }

    #[test]
    fn degenerate_shapes_are_well_defined_per_strategy() {
        for forced in ALL_FORCED {
            with_strategy(forced, || {
                for &(m, k, n) in &[(0, 3, 4), (3, 0, 4), (3, 4, 0), (0, 0, 0), (1, 1, 1)] {
                    let a = det(&[m, k]);
                    let b = det(&[k, n]);
                    let out = gemm(&a, &b);
                    assert_eq!(out.shape(), &[m, n]);
                    if k == 0 {
                        assert!(out.data().iter().all(|&x| x == 0.0));
                    }
                    let bt = det(&[n, k]);
                    assert_eq!(gemm_nt(&a, &bt).shape(), &[m, n]);
                    let v = vec![1.0; k];
                    assert_eq!(mmv(&a, &v).len(), m);
                }
            });
        }
    }
}
