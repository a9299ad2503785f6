//! Criterion benches for the ZFDR machinery (Fig. 16's substrate):
//! zero-free execution through the phase-class lowering (`PhaseConv`, one
//! GEMM per phase-class pair) against the naive zero-insertion kernels,
//! plus plan enumeration and the closed-form counting.

use criterion::{criterion_group, criterion_main, Criterion};
use lergan_core::zfdr::closed_form;
use lergan_core::ZfdrPlan;
use lergan_tensor::conv::{tconv_forward_zero_insert, wconv_weight_grad_zero_insert};
use lergan_tensor::zero_free::PhaseConv;
use lergan_tensor::{TconvGeometry, Tensor, WconvGeometry, Workspace};
use std::hint::black_box;

fn det(shape: &[usize], seed: u32) -> Tensor {
    let mut state = seed.wrapping_mul(747796405).wrapping_add(1);
    Tensor::from_fn(shape, |_| {
        state = state.wrapping_mul(1664525).wrapping_add(1013904223);
        ((state >> 16) as f32 / 65536.0) - 0.5
    })
}

/// One-sample forward of `lowering` with buffers held across iterations,
/// as a training loop holds them.
fn bench_forward(
    c: &mut Criterion,
    group: &str,
    lowering: &PhaseConv,
    input: &Tensor,
    weights: &Tensor,
) {
    let (oh, ow) = lowering.output_extent();
    let mut cols = vec![0.0; lowering.cols_len(1)];
    let mut out = vec![0.0; lowering.maps() * oh * ow];
    let mut ws = Workspace::new();
    c.bench_function(&format!("{group}/phase_conv"), |b| {
        b.iter(|| {
            lowering.forward(
                black_box(input.data()),
                1,
                black_box(weights.data()),
                &mut cols,
                &mut out,
                &mut ws,
            )
        })
    });
}

fn bench_tconv(c: &mut Criterion) {
    // CONV1 geometry with reduced channels (full channels would bench
    // memory bandwidth, not the algorithms).
    let geom = TconvGeometry::for_upsampling(4, 5, 2).unwrap();
    let input = det(&[16, 4, 4], 1);
    let weights = det(&[8, 16, 5, 5], 2);
    bench_forward(
        c,
        "tconv_conv1_16x8ch",
        &PhaseConv::tconv(16, 8, &geom),
        &input,
        &weights,
    );
    c.bench_function("tconv_conv1_16x8ch/naive_zero_insertion", |b| {
        b.iter(|| tconv_forward_zero_insert(black_box(&input), black_box(&weights), &geom))
    });
}

fn bench_tconv_wide(c: &mut Criterion) {
    // CONV3-like upsampling stage at realistic channel counts: the
    // regime where one GEMM per phase class amortises the weight reuse.
    let geom = TconvGeometry::for_upsampling(16, 5, 2).unwrap();
    let input = det(&[64, 16, 16], 5);
    let weights = det(&[32, 64, 5, 5], 6);
    bench_forward(
        c,
        "tconv_16to32_64x32ch",
        &PhaseConv::tconv(64, 32, &geom),
        &input,
        &weights,
    );
}

fn bench_wconv(c: &mut Criterion) {
    // W-CONV-S ∇W: the lowering's partial reads the columns its S-CONV
    // forward gathered, so each iteration runs both.
    let geom = WconvGeometry::new(8, 5, 2, 2).unwrap();
    let input = det(&[8, 8, 8], 3);
    let dout = det(&[8, 4, 4], 4);
    let lowering = PhaseConv::sconv(8, 8, &geom.forward);
    let weights = vec![0.0; lowering.weight_len()];
    let mut cols = vec![0.0; lowering.cols_len(1)];
    let mut out = vec![0.0; dout.len()];
    let mut dw = vec![0.0; lowering.weight_len()];
    let mut ws = Workspace::new();
    c.bench_function("wconv_8x8_8ch/phase_conv", |b| {
        b.iter(|| {
            lowering.forward(
                black_box(input.data()),
                1,
                &weights,
                &mut cols,
                &mut out,
                &mut ws,
            );
            lowering.weight_grad_partials(&cols, black_box(dout.data()), 1, &mut dw);
        })
    });
    c.bench_function("wconv_8x8_8ch/naive_zero_insertion", |b| {
        b.iter(|| wconv_weight_grad_zero_insert(black_box(&input), black_box(&dout), &geom))
    });
}

fn bench_plan(c: &mut Criterion) {
    let geom = TconvGeometry::for_upsampling(32, 5, 2).unwrap();
    c.bench_function("zfdr_plan_enumeration_32", |b| {
        b.iter(|| ZfdrPlan::for_tconv(black_box(&geom)))
    });
    c.bench_function("zfdr_closed_form_32", |b| {
        b.iter(|| closed_form::tconv_cases(black_box(&geom)))
    });
}

criterion_group!(
    benches,
    bench_tconv,
    bench_tconv_wide,
    bench_wconv,
    bench_plan
);
criterion_main!(benches);
