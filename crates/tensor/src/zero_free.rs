//! Zero-free lowering of strided, transposed and dilated convolutions into
//! one GEMM per phase class.
//!
//! Every convolution direction the trainer runs maps, along each spatial
//! axis, an output position `p` and a kernel tap `t` to an input position:
//!
//! * **conv form** — `in = p·S + t·D − P`: S-CONV and D-CONV forward, and
//!   the T-CONV input gradient, which is the plain stride-`S′` convolution
//!   of `∇output`. Every tap of every position lands on a true value (or
//!   on padding), so the axis has one class.
//! * **transposed form** — `in·S = p + t·D − off`, defined only when the
//!   division is exact: T-CONV forward (the zero-inserted input, Fig. 4)
//!   and the input gradients of S-CONV and D-CONV (T-CONV dataflow). The
//!   taps that land on a true value depend only on `p mod S`, the
//!   position's **phase class**; every other tap multiplies an inserted
//!   zero.
//!
//! [`PhaseConv`] splits the output positions into the per-axis phase
//! classes, gathers for each class pair only the taps that land on true
//! values (border taps read zero), and runs one shape-dispatched GEMM per
//! class pair with `n = batch × class positions` — the inserted zeros are
//! never stored, moved or multiplied. This is the software realisation of
//! the ZFDR reshaping (Sec. IV) for every batched conv direction of the
//! trainer; the per-axis taps of one class are the ZFDR "pattern".
//!
//! # Bit-identity with the zero-insertion references
//!
//! Each output element sums its non-zero terms in the reference order of
//! the kernel it replaces: `(ic, ky↑, kx↑)` for forward directions (the
//! zero-insertion GEMM, [`crate::conv::tconv_forward_zero_insert`],
//! [`crate::dconv::dconv_direct`]) and `(oc, ky↓, kx↓)` for input
//! gradients ([`crate::conv::Conv2d::input_grad`],
//! [`crate::dconv::dconv_input_grad_scatter`]); a gradient plan realises
//! the descending order by walking a flipped kernel ascending. Every chain
//! starts at `+0`, and an IEEE-754 sum is `−0` only when both addends are
//! `−0`, so such a chain is never `−0` and adding `±0` to it is exact. The
//! references' extra terms are all `0·w` or `g·0`, which are `±0` for finite
//! operands, so skipping them changes no bit. The one divergence is a
//! non-finite operand: zero insertion computes `0·∞ = NaN` where the
//! zero-free chain has no term.
//!
//! # GEMM orientation
//!
//! Every product is `[maps, taps] × [taps, batch·positions]`: the GEMM
//! kernel's SIMD lanes run across positions, whatever the channel counts.
//! A single output map makes that an `m = 1` product (the generator's
//! last T-CONV, the input gradient of a one-channel first conv). Putting
//! `batch × positions` on the rows instead, with a transposed
//! position-major gather, measured 2.8x slower at both of those
//! `train_dcgan32` shapes (batch 8, 2 threads on a 2-core x86-64 host with
//! AVX): with one map each gathered value feeds a single
//! multiply, so the gather dominates, and a position-major gather reads
//! every tap from a different plane row. So there is one orientation.

use crate::geometry::{DconvGeometry, SconvGeometry, TconvGeometry};
use crate::kernel::{gemm_buf, gemm_nt_buf};
use crate::parallel;
use crate::workspace::{with_thread_workspace, Workspace};

/// One kernel tap of an axis class: the class positions `q` in `lo..hi`
/// read input `base + q·step`; the others fall on padding and read zero.
#[derive(Debug, Clone, Copy)]
struct Tap {
    /// Kernel index along the axis.
    kernel: usize,
    /// Input position of class position `q = 0` (negative: padding).
    base: isize,
    lo: usize,
    hi: usize,
}

impl Tap {
    /// Copies this tap's row of the class gather: `dst[q]` is input
    /// `base + q·step` of `irow` inside `lo..hi`, zero outside.
    fn copy_row(&self, irow: &[f32], step: usize, dst: &mut [f32]) {
        dst[..self.lo].fill(0.0);
        dst[self.hi..].fill(0.0);
        if self.lo == self.hi {
            return;
        }
        let start = (self.base + (self.lo * step) as isize) as usize;
        let span = &mut dst[self.lo..self.hi];
        if step == 1 {
            span.copy_from_slice(&irow[start..start + span.len()]);
        } else {
            for (i, slot) in span.iter_mut().enumerate() {
                *slot = irow[start + i * step];
            }
        }
    }

    /// The input position class position `q` reads, if it is in bounds.
    fn input(&self, q: usize, step: usize) -> Option<usize> {
        (self.lo..self.hi)
            .contains(&q)
            .then(|| (self.base + (q * step) as isize) as usize)
    }
}

/// The output positions `first + q·period` (`q < count`) of one phase
/// class and the taps that land on true values there, in reduction order.
#[derive(Debug, Clone)]
struct AxisClass {
    first: usize,
    count: usize,
    taps: Vec<Tap>,
}

/// One spatial axis of a lowered convolution: `in·period = p·step + t·D −
/// offset`, with one of `period`/`step` equal to 1.
#[derive(Debug, Clone)]
struct Axis {
    input: usize,
    output: usize,
    /// Distance between the output positions of one class.
    period: usize,
    /// Input advance per class position.
    step: usize,
    classes: Vec<AxisClass>,
}

impl Axis {
    /// Taps run `t = 0..kernel` ascending; with `flip` tap `t` reads kernel
    /// index `kernel − 1 − t`, which turns the descending-`k` order of the
    /// gradient scatters into an ascending walk.
    #[allow(clippy::too_many_arguments)]
    fn new(
        input: usize,
        output: usize,
        kernel: usize,
        step: usize,
        period: usize,
        dilation: usize,
        offset: isize,
        flip: bool,
    ) -> Self {
        let classes = (0..period.min(output))
            .map(|first| {
                let count = (output - first).div_ceil(period);
                let taps = (0..kernel)
                    .filter_map(|t| {
                        let num = (first * step + t * dilation) as isize - offset;
                        if num.rem_euclid(period as isize) != 0 {
                            return None;
                        }
                        let base = num.div_euclid(period as isize);
                        let (lo, hi) = in_bounds(base, step, input, count);
                        let kernel_index = if flip { kernel - 1 - t } else { t };
                        Some(Tap {
                            kernel: kernel_index,
                            base,
                            lo,
                            hi,
                        })
                    })
                    .collect();
                AxisClass { first, count, taps }
            })
            .collect();
        Axis {
            input,
            output,
            period,
            step,
            classes,
        }
    }

    /// Conv form, `in = p·stride + t·dilation − pad`: one class.
    fn conv(
        input: usize,
        output: usize,
        kernel: usize,
        stride: usize,
        dilation: usize,
        pad: isize,
        flip: bool,
    ) -> Self {
        Self::new(input, output, kernel, stride, 1, dilation, pad, flip)
    }

    /// Transposed form, `in·stride = p + t·dilation − offset`: `stride`
    /// phase classes.
    fn transposed(
        input: usize,
        output: usize,
        kernel: usize,
        stride: usize,
        dilation: usize,
        offset: isize,
        flip: bool,
    ) -> Self {
        Self::new(input, output, kernel, 1, stride, dilation, offset, flip)
    }
}

/// The class positions `q < count` whose input `base + q·step` lies in
/// `[0, input)`, as a range `lo..hi`.
fn in_bounds(base: isize, step: usize, input: usize, count: usize) -> (usize, usize) {
    let step = step as isize;
    let lo = if base >= 0 {
        0
    } else {
        (-base + step - 1) / step
    };
    let room = input as isize - base;
    let hi = if room > 0 {
        (room + step - 1) / step
    } else {
        0
    };
    let lo = (lo as usize).min(count);
    (lo, (hi as usize).clamp(lo, count))
}

/// One row-class × column-class pair: `taps` kernel taps per channel and
/// `positions` output positions per sample.
#[derive(Debug, Clone, Copy)]
struct Pair {
    rc: usize,
    cc: usize,
    taps: usize,
    positions: usize,
    /// The pair's `[maps, taps]` weight matrix is the weight tensor itself
    /// (a forward plan whose one class walks every tap in order), so
    /// neither the matrix nor its `∇W` needs a copy.
    dense: bool,
}

/// A 2-D convolution direction lowered into one GEMM per phase-class pair
/// (see the module docs).
///
/// A plan reads `channels` input planes and writes `maps` output planes.
/// Weights are always the layer's `[OC, IC, Kh, Kw]` tensor: a forward
/// plan reads it as `[maps, channels, …]`, an input-gradient plan as
/// `[channels, maps, …]` with the kernel flipped. Plans depend on the
/// geometry only, so layers build them once and reuse them every step.
#[derive(Debug, Clone)]
pub struct PhaseConv {
    rows: Axis,
    cols: Axis,
    channels: usize,
    maps: usize,
    /// Weight index of `(m, ch, ky, kx)`: `m·m_stride + ch·ch_stride +
    /// ky·kw + kx`.
    m_stride: usize,
    ch_stride: usize,
    kh: usize,
    kw: usize,
    pairs: Vec<Pair>,
}

impl PhaseConv {
    fn from_axes(
        rows: Axis,
        cols: Axis,
        channels: usize,
        maps: usize,
        kh: usize,
        kw: usize,
        gradient: bool,
    ) -> Self {
        let in_order = |taps: &[Tap], k: usize| {
            taps.len() == k && taps.iter().enumerate().all(|(t, tap)| tap.kernel == t)
        };
        let pairs = (0..rows.classes.len())
            .flat_map(|rc| (0..cols.classes.len()).map(move |cc| (rc, cc)))
            .map(|(rc, cc)| {
                let (r, c) = (&rows.classes[rc], &cols.classes[cc]);
                Pair {
                    rc,
                    cc,
                    taps: r.taps.len() * c.taps.len(),
                    positions: r.count * c.count,
                    dense: !gradient && in_order(&r.taps, kh) && in_order(&c.taps, kw),
                }
            })
            .collect();
        let (m_stride, ch_stride) = if gradient {
            (kh * kw, maps * kh * kw)
        } else {
            (channels * kh * kw, kh * kw)
        };
        PhaseConv {
            rows,
            cols,
            channels,
            maps,
            m_stride,
            ch_stride,
            kh,
            kw,
            pairs,
        }
    }

    /// S-CONV forward: `[IC, H, W] → [OC, O, O]`, one class.
    pub fn sconv(in_channels: usize, out_channels: usize, geom: &SconvGeometry) -> Self {
        let axis = Axis::conv(
            geom.input,
            geom.output,
            geom.kernel,
            geom.stride,
            1,
            geom.pad as isize,
            false,
        );
        let k = geom.kernel;
        Self::from_axes(axis.clone(), axis, in_channels, out_channels, k, k, false)
    }

    /// S-CONV input gradient (T-CONV dataflow): `∇output [OC, O, O] →
    /// ∇input [IC, H, W]`, summing `(oc, ky↓, kx↓)` per element like
    /// [`crate::conv::Conv2d::input_grad`].
    pub fn sconv_input_grad(in_channels: usize, out_channels: usize, geom: &SconvGeometry) -> Self {
        let k = geom.kernel;
        let offset = (k - 1) as isize - geom.pad as isize;
        let axis = Axis::transposed(geom.output, geom.input, k, geom.stride, 1, offset, true);
        Self::from_axes(axis.clone(), axis, out_channels, in_channels, k, k, true)
    }

    /// T-CONV forward over the zero-inserted input of Fig. 4, true values
    /// only: `[IC, I, I] → [OC, O, O]`, one class per phase `o mod S′`.
    pub fn tconv(in_channels: usize, out_channels: usize, geom: &TconvGeometry) -> Self {
        let k = geom.kernel;
        let axis = Axis::transposed(
            geom.input,
            geom.output,
            k,
            geom.converse_stride,
            1,
            geom.insertion_pad as isize,
            false,
        );
        Self::from_axes(axis.clone(), axis, in_channels, out_channels, k, k, false)
    }

    /// T-CONV input gradient: the plain stride-`S′` convolution of
    /// `∇output [OC, O, O]` into `∇input [IC, I, I]` — what the dense
    /// S-CONV over the expanded plane computes at its true positions.
    pub fn tconv_input_grad(in_channels: usize, out_channels: usize, geom: &TconvGeometry) -> Self {
        let k = geom.kernel;
        let pad = (k - 1) as isize - geom.insertion_pad as isize;
        let axis = Axis::conv(
            geom.output,
            geom.input,
            k,
            geom.converse_stride,
            1,
            pad,
            true,
        );
        Self::from_axes(axis.clone(), axis, out_channels, in_channels, k, k, true)
    }

    /// D-CONV forward over the true taps only (no expanded kernel):
    /// `[IC, H, W] → [OC, Oh, Ow]`, one class.
    pub fn dconv(in_channels: usize, out_channels: usize, geom: &DconvGeometry) -> Self {
        let (r, c) = (&geom.rows, &geom.cols);
        let rows = Axis::conv(
            r.input,
            r.output,
            r.kernel,
            r.stride,
            r.dilation,
            r.pad as isize,
            false,
        );
        let cols = Axis::conv(
            c.input,
            c.output,
            c.kernel,
            c.stride,
            c.dilation,
            c.pad as isize,
            false,
        );
        Self::from_axes(
            rows,
            cols,
            in_channels,
            out_channels,
            r.kernel,
            c.kernel,
            false,
        )
    }

    /// D-CONV input gradient: `∇output [OC, Oh, Ow] → ∇input [IC, H, W]`,
    /// summing `(oc, jy↓, jx↓)` per element like
    /// [`crate::dconv::dconv_input_grad_scatter`].
    pub fn dconv_input_grad(in_channels: usize, out_channels: usize, geom: &DconvGeometry) -> Self {
        let axis = |a: &crate::geometry::DconvAxis| {
            let offset = ((a.kernel - 1) * a.dilation) as isize - a.pad as isize;
            Axis::transposed(
                a.output, a.input, a.kernel, a.stride, a.dilation, offset, true,
            )
        };
        let (r, c) = (&geom.rows, &geom.cols);
        Self::from_axes(
            axis(r),
            axis(c),
            out_channels,
            in_channels,
            r.kernel,
            c.kernel,
            true,
        )
    }

    /// Input planes read per sample.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Output planes written per sample.
    pub fn maps(&self) -> usize {
        self.maps
    }

    /// `(rows, cols)` extent of an input plane.
    pub fn input_extent(&self) -> (usize, usize) {
        (self.rows.input, self.cols.input)
    }

    /// `(rows, cols)` extent of an output plane.
    pub fn output_extent(&self) -> (usize, usize) {
        (self.rows.output, self.cols.output)
    }

    /// Length of the weight tensor the plan reads (and of one `∇W`).
    pub fn weight_len(&self) -> usize {
        self.channels * self.maps * self.kh * self.kw
    }

    /// Products of two true values per sample: for every class pair and
    /// tap pair, the class positions whose input lies in bounds, times
    /// channels and maps. The GEMMs run `maps · cols_len(1)` products; the
    /// rest are border taps that read padding.
    pub fn true_products(&self) -> usize {
        let span = |taps: &[Tap]| taps.iter().map(|t| t.hi - t.lo).sum::<usize>();
        let per_pair: usize = self
            .pairs
            .iter()
            .map(|pair| {
                let (r, c) = self.classes(pair);
                span(&r.taps) * span(&c.taps)
            })
            .sum();
        per_pair * self.channels * self.maps
    }

    /// Length of the gathered-column buffer for `batch` samples.
    pub fn cols_len(&self, batch: usize) -> usize {
        batch
            * self
                .pairs
                .iter()
                .map(|p| self.channels * p.taps * p.positions)
                .sum::<usize>()
    }

    fn classes(&self, pair: &Pair) -> (&AxisClass, &AxisClass) {
        (&self.rows.classes[pair.rc], &self.cols.classes[pair.cc])
    }

    /// Runs the lowered convolution over `batch` concatenated input
    /// samples, writing `[batch, maps, Oh, Ow]` into `out` (fully
    /// overwritten).
    ///
    /// `cols` (length [`cols_len`](Self::cols_len)) receives every class
    /// pair's gathered `[taps, batch·positions]` columns, which
    /// [`weight_grad_partials`](Self::weight_grad_partials) reuses. The
    /// weight matrices and GEMM results are drawn from `ws`.
    ///
    /// # Panics
    ///
    /// Panics if a slice length disagrees with the plan.
    pub fn forward(
        &self,
        input: &[f32],
        batch: usize,
        weights: &[f32],
        cols: &mut [f32],
        out: &mut [f32],
        ws: &mut Workspace,
    ) {
        let (h, w) = self.input_extent();
        let (oh, ow) = self.output_extent();
        assert_eq!(
            input.len(),
            batch * self.channels * h * w,
            "input length mismatch"
        );
        assert_eq!(weights.len(), self.weight_len(), "weight length mismatch");
        assert_eq!(
            cols.len(),
            self.cols_len(batch),
            "column buffer length mismatch"
        );
        assert_eq!(
            out.len(),
            batch * self.maps * oh * ow,
            "output length mismatch"
        );
        let mut rest = cols;
        for pair in &self.pairs {
            let (r, n) = (self.channels * pair.taps, batch * pair.positions);
            let (pcols, tail) = rest.split_at_mut(r * n);
            rest = tail;
            if r == 0 {
                // No tap reaches a true value: every term is an inserted
                // zero, and the reference chain is the empty `+0`.
                self.scatter(pair, batch, None, out);
                continue;
            }
            self.gather(pair, input, batch, pcols);
            let mut res = ws.take(self.maps * n);
            if pair.dense {
                gemm_buf(self.maps, r, n, weights, pcols, &mut res);
            } else {
                let mut wm = ws.take(self.maps * r);
                self.for_each_weight(pair, |k, i| wm[k] = weights[i]);
                gemm_buf(self.maps, r, n, &wm, pcols, &mut res);
                ws.give(wm);
            }
            self.scatter(pair, batch, Some(&res), out);
            ws.give(res);
        }
    }

    /// Calls `f(k, i)` for every element of a class pair's `[maps, taps]`
    /// matrix: `k` its row-major index, `i` its weight-tensor index, in
    /// `(m, ch, ty, tx)` order.
    fn for_each_weight(&self, pair: &Pair, mut f: impl FnMut(usize, usize)) {
        let (cr, cc) = self.classes(pair);
        let mut k = 0;
        for m in 0..self.maps {
            for ch in 0..self.channels {
                let base = m * self.m_stride + ch * self.ch_stride;
                for ty in &cr.taps {
                    let row = base + ty.kernel * self.kw;
                    for tx in &cc.taps {
                        f(k, row + tx.kernel);
                        k += 1;
                    }
                }
            }
        }
    }

    /// Gathers `[taps, batch·positions]`: row `(ch, ty, tx)`, column
    /// `b·positions + qy·nc + qx`. Sharded by row; pure data movement.
    fn gather(&self, pair: &Pair, input: &[f32], batch: usize, pcols: &mut [f32]) {
        let (cr, cc) = self.classes(pair);
        let (nr, nc) = (cr.count, cc.count);
        let (tr, tc) = (cr.taps.len(), cc.taps.len());
        let (h, w) = self.input_extent();
        let (plane, slen) = (h * w, self.channels * h * w);
        let n = batch * nr * nc;
        let (ystep, xstep) = (self.rows.step, self.cols.step);
        parallel::for_each_unit_chunk_mut(pcols, n, parallel::min_units(n), |row0, rows| {
            for (d, orow) in rows.chunks_mut(n).enumerate() {
                let row = row0 + d;
                let ch = row / (tr * tc);
                let ty = &cr.taps[(row / tc) % tr];
                let tx = &cc.taps[row % tc];
                for (b, brow) in orow.chunks_mut(nr * nc).enumerate() {
                    let src = &input[b * slen + ch * plane..b * slen + (ch + 1) * plane];
                    for (qy, dst) in brow.chunks_mut(nc).enumerate() {
                        match ty.input(qy, ystep) {
                            Some(iy) => tx.copy_row(&src[iy * w..(iy + 1) * w], xstep, dst),
                            None => dst.fill(0.0),
                        }
                    }
                }
            }
        });
    }

    /// Writes one class pair's `[maps, batch·positions]` result (`None`:
    /// zeros) to its positions of the `[batch, maps, Oh, Ow]` output.
    fn scatter(&self, pair: &Pair, batch: usize, res: Option<&[f32]>, out: &mut [f32]) {
        let (cr, cc) = self.classes(pair);
        let (nr, nc) = (cr.count, cc.count);
        let (oh, ow) = self.output_extent();
        let (oo, olen) = (oh * ow, self.maps * oh * ow);
        let n = batch * nr * nc;
        let (py, px) = (self.rows.period, self.cols.period);
        let min_samples = parallel::min_units(self.maps * nr * nc);
        parallel::for_each_unit_chunk_mut(out, olen, min_samples, |b0, samples| {
            for (d, sample) in samples.chunks_mut(olen).enumerate() {
                let b = b0 + d;
                for (m, oplane) in sample.chunks_mut(oo).enumerate() {
                    for qy in 0..nr {
                        let y = cr.first + qy * py;
                        let orow = &mut oplane[y * ow..(y + 1) * ow];
                        match res {
                            None => (0..nc).for_each(|qx| orow[cc.first + qx * px] = 0.0),
                            Some(res) => {
                                let src = &res[m * n + (b * nr + qy) * nc..][..nc];
                                if px == 1 {
                                    orow[cc.first..cc.first + nc].copy_from_slice(src);
                                } else {
                                    for (qx, &v) in src.iter().enumerate() {
                                        orow[cc.first + qx * px] = v;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        });
    }

    /// Per-sample weight gradients of a forward plan: writes sample `b`'s
    /// `∇W` (the weight tensor's layout) into `parts[b·W..(b+1)·W]`, from
    /// the `cols` a [`forward`](Self::forward) over the same batch left and
    /// the `[batch, maps, Oh, Ow]` output gradient.
    ///
    /// Each tap's gradient sums `∇output · input` over the class positions
    /// in ascending order from `+0` — the chain `gemm_nt` evaluates over
    /// the zero-inserted im2col matrix, without its `±0` terms. Samples run
    /// in parallel, each on its worker's thread workspace; folding the
    /// partials (in a thread-count-independent order) is the caller's.
    ///
    /// # Panics
    ///
    /// Panics if a slice length disagrees with the plan.
    pub fn weight_grad_partials(
        &self,
        cols: &[f32],
        grad_out: &[f32],
        batch: usize,
        parts: &mut [f32],
    ) {
        let wlen = self.weight_len();
        let (oh, ow) = self.output_extent();
        let glen = self.maps * oh * ow;
        assert_eq!(
            cols.len(),
            self.cols_len(batch),
            "column buffer length mismatch"
        );
        assert_eq!(grad_out.len(), batch * glen, "∇output length mismatch");
        assert_eq!(parts.len(), batch * wlen, "partial buffer length mismatch");
        // Each sample's partial costs about one multiply-add per weight
        // and output position.
        let min_samples = parallel::min_units(wlen * oh * ow);
        parallel::for_each_unit_chunk_mut(parts, wlen, min_samples, |b0, chunk| {
            with_thread_workspace(|tws| {
                for (d, part) in chunk.chunks_mut(wlen).enumerate() {
                    let b = b0 + d;
                    part.fill(0.0);
                    let g = &grad_out[b * glen..(b + 1) * glen];
                    let mut off = 0;
                    for pair in &self.pairs {
                        let (r, np) = (self.channels * pair.taps, pair.positions);
                        let pcols = &cols[off..off + r * batch * np];
                        off += r * batch * np;
                        if r == 0 {
                            continue;
                        }
                        let mut gc = tws.take(self.maps * np);
                        self.gather_grad(pair, g, &mut gc);
                        // The sample's column block, copied contiguous.
                        let mut cb = tws.take(r * np);
                        for (row, dst) in cb.chunks_mut(np).enumerate() {
                            dst.copy_from_slice(&pcols[(row * batch + b) * np..][..np]);
                        }
                        if pair.dense {
                            gemm_nt_buf(self.maps, np, r, &gc, &cb, part);
                        } else {
                            let mut res = tws.take(self.maps * r);
                            gemm_nt_buf(self.maps, np, r, &gc, &cb, &mut res);
                            self.for_each_weight(pair, |k, i| part[i] = res[k]);
                            tws.give(res);
                        }
                        tws.give(cb);
                        tws.give(gc);
                    }
                }
            });
        });
    }

    /// Gathers one sample's `∇output` at a class pair's positions:
    /// `[maps, positions]`.
    fn gather_grad(&self, pair: &Pair, g: &[f32], gc: &mut [f32]) {
        let (cr, cc) = self.classes(pair);
        let (nr, nc) = (cr.count, cc.count);
        let (oh, ow) = self.output_extent();
        let (py, px) = (self.rows.period, self.cols.period);
        for (m, dst) in gc.chunks_mut(nr * nc).enumerate() {
            let plane = &g[m * oh * ow..(m + 1) * oh * ow];
            for (qy, drow) in dst.chunks_mut(nc).enumerate() {
                let orow = &plane[(cr.first + qy * py) * ow..][..ow];
                for (qx, slot) in drow.iter_mut().enumerate() {
                    *slot = orow[cc.first + qx * px];
                }
            }
        }
    }
}
