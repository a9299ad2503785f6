//! Bit-identity of the zero-free phase-class lowering with the frozen
//! zero-insertion and scatter references.
//!
//! For random geometries — strides 1–3, odd extents, padding, T-CONV
//! `extra_end_pad`, asymmetric per-axis D-CONV — and batch sizes 1, 3 and
//! 8, every direction a [`PhaseConv`] runs must reproduce its reference
//! bit for bit at 1, 2 and 8 worker threads:
//!
//! | direction | reference |
//! |---|---|
//! | T-CONV forward | `tconv_forward_zero_insert` |
//! | T-CONV ∇input | `Conv2d::input_grad` over the expanded plane, gathered |
//! | S-CONV forward | `Conv2d::forward` |
//! | S-CONV ∇input | `Conv2d::input_grad` |
//! | D-CONV forward | `dconv_direct` |
//! | D-CONV ∇input | `dconv_input_grad_scatter` |
//! | every ∇W | `gemm_nt` over the zero-inserted (or dense) im2col matrix |
//!
//! Inputs carry exact `±0` values, so the skipped-term argument of the
//! module docs is exercised, not assumed.

use lergan_tensor::conv::tconv_forward_zero_insert;
use lergan_tensor::dconv::{dconv_direct, dconv_input_grad_scatter, im2col_dconv};
use lergan_tensor::im2col::im2col;
use lergan_tensor::zero_free::PhaseConv;
use lergan_tensor::zero_insert::expand_tconv_input;
use lergan_tensor::{
    gemm_nt, parallel, Conv2d, DconvAxis, DconvGeometry, SconvGeometry, TconvGeometry, Tensor,
    Workspace,
};
use proptest::prelude::*;

const BATCHES: [usize; 3] = [1, 3, 8];
const THREADS: [usize; 3] = [1, 2, 8];

/// Deterministic values in `[-0.5, 0.5)`, every fifth one an exact `+0`
/// or `−0`.
fn det(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (0..len)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            match i % 10 {
                3 => 0.0,
                8 => -0.0,
                _ => ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5,
            }
        })
        .collect()
}

fn bits_eq(got: &[f32], want: &[f32], what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len(), "{} length", what);
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        prop_assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{} element {}: {} vs {}",
            what,
            i,
            a,
            b
        );
    }
    Ok(())
}

/// What one lowered forward, ∇W and ∇input pass produce.
struct Lowered {
    out: Vec<f32>,
    parts: Vec<f32>,
    din: Vec<f32>,
}

/// Runs `fwd` over `x`, the ∇W partials of `g`, and `bwd` over `g`, with
/// every buffer pre-poisoned so an unwritten element shows.
fn run(fwd: &PhaseConv, bwd: &PhaseConv, x: &[f32], w: &[f32], g: &[f32], batch: usize) -> Lowered {
    let mut ws = Workspace::new();
    let (oh, ow) = fwd.output_extent();
    let (h, wd) = fwd.input_extent();
    let mut cols = vec![f32::NAN; fwd.cols_len(batch)];
    let mut out = vec![f32::NAN; batch * fwd.maps() * oh * ow];
    fwd.forward(x, batch, w, &mut cols, &mut out, &mut ws);
    let mut parts = vec![f32::NAN; batch * fwd.weight_len()];
    fwd.weight_grad_partials(&cols, g, batch, &mut parts);
    let mut gcols = vec![f32::NAN; bwd.cols_len(batch)];
    let mut din = vec![f32::NAN; batch * fwd.channels() * h * wd];
    bwd.forward(g, batch, w, &mut gcols, &mut din, &mut ws);
    Lowered { out, parts, din }
}

/// Per-sample references of one layer direction triple.
struct Reference {
    out: Vec<f32>,
    parts: Vec<f32>,
    din: Vec<f32>,
}

fn check(
    fwd: &PhaseConv,
    bwd: &PhaseConv,
    batch: usize,
    seed: u64,
    reference: impl Fn(&[f32], &[f32], &[f32]) -> Reference,
) -> Result<(), TestCaseError> {
    let (h, wd) = fwd.input_extent();
    let (oh, ow) = fwd.output_extent();
    let x = det(batch * fwd.channels() * h * wd, seed);
    let w = det(fwd.weight_len(), seed + 1);
    let g = det(batch * fwd.maps() * oh * ow, seed + 2);
    let want = reference(&x, &w, &g);
    for threads in THREADS {
        let got = parallel::with_threads(threads, || run(fwd, bwd, &x, &w, &g, batch));
        bits_eq(&got.out, &want.out, &format!("forward, {threads} threads"))?;
        bits_eq(&got.parts, &want.parts, &format!("∇W, {threads} threads"))?;
        bits_eq(&got.din, &want.din, &format!("∇input, {threads} threads"))?;
    }
    Ok(())
}

/// Per-sample `∇W = gemm_nt(∇output, cols)` over a reference im2col.
fn wgrad(g: &[f32], oc: usize, cols: &Tensor) -> Vec<f32> {
    let oo = cols.shape()[1];
    gemm_nt(&Tensor::from_vec(&[oc, oo], g.to_vec()), cols).into_vec()
}

fn tconv_case(
    ic: usize,
    oc: usize,
    geom: TconvGeometry,
    batch: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    let fwd = PhaseConv::tconv(ic, oc, &geom);
    let bwd = PhaseConv::tconv_input_grad(ic, oc, &geom);
    let (i, o, k) = (geom.input, geom.output, geom.kernel);
    let e = geom.expanded();
    let inner = Conv2d::new(ic, oc, k, 1, 0).unwrap();
    let egeom = SconvGeometry::new(e, k, 1, 0).unwrap();
    check(&fwd, &bwd, batch, seed, |x, w, g| {
        let wt = Tensor::from_vec(&[oc, ic, k, k], w.to_vec());
        let mut r = Reference {
            out: Vec::new(),
            parts: Vec::new(),
            din: Vec::new(),
        };
        for b in 0..batch {
            let xb = Tensor::from_vec(
                &[ic, i, i],
                x[b * ic * i * i..(b + 1) * ic * i * i].to_vec(),
            );
            let gb = &g[b * oc * o * o..(b + 1) * oc * o * o];
            r.out
                .extend_from_slice(tconv_forward_zero_insert(&xb, &wt, &geom).data());
            let cols = im2col(&expand_tconv_input(&xb, &geom), &egeom);
            r.parts.extend(wgrad(gb, oc, &cols));
            let dex = inner.input_grad(&Tensor::from_vec(&[oc, o, o], gb.to_vec()), &wt, e);
            let (p, s) = (geom.insertion_pad, geom.converse_stride);
            for ci in 0..ic {
                for y in 0..i {
                    for xx in 0..i {
                        r.din.push(dex[&[ci, p + y * s, p + xx * s]]);
                    }
                }
            }
        }
        r
    })
}

fn sconv_case(
    ic: usize,
    oc: usize,
    geom: SconvGeometry,
    batch: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    let fwd = PhaseConv::sconv(ic, oc, &geom);
    let bwd = PhaseConv::sconv_input_grad(ic, oc, &geom);
    let (i, o, k) = (geom.input, geom.output, geom.kernel);
    let conv = Conv2d::new(ic, oc, k, geom.stride, geom.pad).unwrap();
    check(&fwd, &bwd, batch, seed, |x, w, g| {
        let wt = Tensor::from_vec(&[oc, ic, k, k], w.to_vec());
        let mut r = Reference {
            out: Vec::new(),
            parts: Vec::new(),
            din: Vec::new(),
        };
        for b in 0..batch {
            let xb = Tensor::from_vec(
                &[ic, i, i],
                x[b * ic * i * i..(b + 1) * ic * i * i].to_vec(),
            );
            let gb = Tensor::from_vec(
                &[oc, o, o],
                g[b * oc * o * o..(b + 1) * oc * o * o].to_vec(),
            );
            r.out.extend_from_slice(conv.forward(&xb, &wt).data());
            r.parts.extend(wgrad(gb.data(), oc, &im2col(&xb, &geom)));
            r.din.extend_from_slice(conv.input_grad(&gb, &wt, i).data());
        }
        r
    })
}

fn dconv_case(
    ic: usize,
    oc: usize,
    geom: DconvGeometry,
    batch: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    let fwd = PhaseConv::dconv(ic, oc, &geom);
    let bwd = PhaseConv::dconv_input_grad(ic, oc, &geom);
    let (h, wd) = (geom.rows.input, geom.cols.input);
    let (oh, ow) = (geom.rows.output, geom.cols.output);
    let (kh, kw) = (geom.rows.kernel, geom.cols.kernel);
    let (eh, ew) = (geom.rows.effective_kernel(), geom.cols.effective_kernel());
    let (dh, dw) = (geom.rows.dilation, geom.cols.dilation);
    check(&fwd, &bwd, batch, seed, |x, w, g| {
        let wt = Tensor::from_vec(&[oc, ic, kh, kw], w.to_vec());
        let mut r = Reference {
            out: Vec::new(),
            parts: Vec::new(),
            din: Vec::new(),
        };
        for b in 0..batch {
            let xb = Tensor::from_vec(
                &[ic, h, wd],
                x[b * ic * h * wd..(b + 1) * ic * h * wd].to_vec(),
            );
            let gb = &g[b * oc * oh * ow..(b + 1) * oc * oh * ow];
            r.out
                .extend_from_slice(dconv_direct(&xb, &wt, &geom).data());
            // ∇W over the dense effective-extent im2col, true taps kept.
            let dense = wgrad(gb, oc, &im2col_dconv(&xb, &geom));
            for p in 0..oc * ic {
                for jy in 0..kh {
                    for jx in 0..kw {
                        r.parts.push(dense[p * eh * ew + jy * dh * ew + jx * dw]);
                    }
                }
            }
            let mut din = vec![0.0; ic * h * wd];
            dconv_input_grad_scatter(gb, &wt, &geom, &mut din);
            r.din.extend(din);
        }
        r
    })
}

/// Channel counts including 1 on either side (the `m = 1` products).
fn channels() -> impl Strategy<Value = (usize, usize)> {
    (1usize..4, 1usize..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tconv_lowering_matches_zero_insertion(
        (i, k, s, target) in (1usize..7, 1usize..6, 1usize..4, 1usize..20),
        (ic, oc) in channels(),
        seed in 0u64..1_000_000,
    ) {
        // `for_target` reaches odd outputs and `extra_end_pad = 1`.
        let Some(geom) = TconvGeometry::for_target(i, k, s, target) else {
            return Err(TestCaseError::reject("no geometry"));
        };
        for batch in BATCHES {
            tconv_case(ic, oc, geom, batch, seed)?;
        }
    }

    #[test]
    fn sconv_lowering_matches_references(
        (i, k, s, p) in (1usize..12, 1usize..6, 1usize..4, 0usize..4),
        (ic, oc) in channels(),
        seed in 0u64..1_000_000,
    ) {
        let Some(geom) = SconvGeometry::new(i, k, s, p) else {
            return Err(TestCaseError::reject("no geometry"));
        };
        for batch in BATCHES {
            sconv_case(ic, oc, geom, batch, seed)?;
        }
    }

    #[test]
    fn dconv_lowering_matches_references(
        (hi, kh, sh, dh, ph) in (1usize..12, 1usize..4, 1usize..4, 1usize..4, 0usize..5),
        (wi, kw, sw, dw, pw) in (1usize..12, 1usize..4, 1usize..4, 1usize..4, 0usize..5),
        (ic, oc) in channels(),
        seed in 0u64..1_000_000,
    ) {
        let (Some(rows), Some(cols)) = (DconvAxis::new(hi, kh, sh, dh, ph), DconvAxis::new(wi, kw, sw, dw, pw)) else {
            return Err(TestCaseError::reject("no geometry"));
        };
        for batch in BATCHES {
            dconv_case(ic, oc, DconvGeometry::new(rows, cols), batch, seed)?;
        }
    }
}

#[test]
fn train_dcgan32_shapes_match_references() {
    // The benchmark GAN's conv layers, at batch 8.
    let t = |i, s| TconvGeometry::for_upsampling(i, 5, s).unwrap();
    for (ic, oc, i) in [(64, 32, 4), (32, 16, 8), (16, 1, 16)] {
        tconv_case(ic, oc, t(i, 2), 8, 7).unwrap();
    }
    for (ic, oc, i) in [(1, 16, 32), (16, 32, 16), (32, 64, 8), (64, 64, 4)] {
        sconv_case(ic, oc, SconvGeometry::new(i, 5, 2, 2).unwrap(), 8, 11).unwrap();
    }
    dconv_case(32, 32, DconvGeometry::square(8, 3, 1, 2, 2).unwrap(), 8, 13).unwrap();
}

#[test]
fn extra_end_pad_geometries_match_zero_insertion() {
    // Every small T-CONV whose target output needs the one-sided end pad.
    let mut seen = 0;
    for i in 1..6 {
        for k in 1..6 {
            for s in 1..4 {
                for target in 1..16 {
                    let Some(geom) = TconvGeometry::for_target(i, k, s, target) else {
                        continue;
                    };
                    if geom.extra_end_pad == 1 {
                        tconv_case(2, 3, geom, 3, seen).unwrap();
                        seen += 1;
                    }
                }
            }
        }
    }
    assert!(seen > 0, "no extra_end_pad geometry reached");
}

#[test]
fn negative_zero_activations_stay_bit_identical() {
    // Whole planes of −0.0 (and +0.0) make every true term of some chains
    // a signed zero: the lowering must still match bit for bit.
    let geom = TconvGeometry::for_upsampling(5, 5, 2).unwrap();
    let (ic, oc, batch) = (2, 3, 3);
    let fwd = PhaseConv::tconv(ic, oc, &geom);
    let bwd = PhaseConv::tconv_input_grad(ic, oc, &geom);
    let (i, o) = (geom.input, geom.output);
    let mut x = det(batch * ic * i * i, 5);
    x[..i * i].fill(-0.0);
    x[ic * i * i..ic * i * i + i * i].fill(0.0);
    let w = det(oc * ic * 25, 6);
    let mut g = det(batch * oc * o * o, 7);
    g[..o * o].fill(-0.0);
    let got = run(&fwd, &bwd, &x, &w, &g, batch);
    let wt = Tensor::from_vec(&[oc, ic, 5, 5], w.clone());
    for b in 0..batch {
        let xb = Tensor::from_vec(
            &[ic, i, i],
            x[b * ic * i * i..(b + 1) * ic * i * i].to_vec(),
        );
        let want = tconv_forward_zero_insert(&xb, &wt, &geom);
        let slen = oc * o * o;
        for (a, r) in got.out[b * slen..(b + 1) * slen].iter().zip(want.data()) {
            assert_eq!(a.to_bits(), r.to_bits(), "sample {b}");
        }
    }
    // A chain whose every true term is ±0 ends at +0 in both.
    assert!(got.out.iter().all(|v| v.to_bits() != (-0.0f32).to_bits()));
    assert!(got.din.iter().all(|v| v.to_bits() != (-0.0f32).to_bits()));
}

#[test]
fn non_finite_weight_is_the_documented_divergence() {
    // Zero insertion multiplies every inserted zero by every weight, so an
    // infinite weight turns those terms into 0·∞ = NaN; the zero-free
    // chain never forms them. Where the reference is not NaN, the two
    // still agree bit for bit.
    let geom = TconvGeometry::for_upsampling(4, 5, 2).unwrap();
    let (ic, oc) = (2, 2);
    let fwd = PhaseConv::tconv(ic, oc, &geom);
    let x: Vec<f32> = (0..ic * 16).map(|v| 1.0 + v as f32).collect();
    let mut w = det(oc * ic * 25, 9);
    w[12] = f32::INFINITY; // tap (2, 2) of (oc 0, ic 0)
    let mut ws = Workspace::new();
    let mut cols = vec![0.0; fwd.cols_len(1)];
    let mut out = vec![0.0; oc * 64];
    fwd.forward(&x, 1, &w, &mut cols, &mut out, &mut ws);
    let reference = tconv_forward_zero_insert(
        &Tensor::from_vec(&[ic, 4, 4], x),
        &Tensor::from_vec(&[oc, ic, 5, 5], w),
        &geom,
    );
    let mut diverged = 0;
    for (a, r) in out.iter().zip(reference.data()) {
        if r.is_nan() && !a.is_nan() {
            diverged += 1;
        } else {
            assert_eq!(a.to_bits(), r.to_bits());
        }
    }
    assert!(
        diverged > 0,
        "the infinite tap must hit inserted zeros somewhere"
    );
    assert!(
        out[..64].iter().any(|v| v.is_infinite()),
        "true values still meet the infinite tap"
    );
}
