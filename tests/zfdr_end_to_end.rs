//! Cross-crate functional tests: the zero-free phase-class lowering
//! (`PhaseConv`) must agree with the zero-insertion references on every
//! geometry that occurs in the Table V benchmarks, and execute exactly the
//! true-value products that the analytic model's ZFDR plan charges.

use lergan::core::ZfdrPlan;
use lergan::gan::{benchmarks, Layer};
use lergan::tensor::conv::{tconv_forward_zero_insert, wconv_weight_grad_zero_insert};
use lergan::tensor::zero_free::PhaseConv;
use lergan::tensor::{TconvGeometry, Tensor, WconvGeometry, Workspace};
use proptest::prelude::*;

fn det(shape: &[usize], seed: u32) -> Tensor {
    let mut state = seed.wrapping_mul(2654435761).wrapping_add(99);
    Tensor::from_fn(shape, |_| {
        state = state.wrapping_mul(1664525).wrapping_add(1013904223);
        ((state >> 16) as f32 / 65536.0) - 0.5
    })
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

/// One-sample T-CONV forward through the lowering.
fn phase_tconv(input: &Tensor, weights: &Tensor, geom: &TconvGeometry) -> Tensor {
    let (oc, ic) = (weights.shape()[0], weights.shape()[1]);
    let plan = PhaseConv::tconv(ic, oc, geom);
    let mut cols = vec![0.0; plan.cols_len(1)];
    let mut out = vec![0.0; oc * geom.output * geom.output];
    let mut ws = Workspace::new();
    plan.forward(
        input.data(),
        1,
        weights.data(),
        &mut cols,
        &mut out,
        &mut ws,
    );
    Tensor::from_vec(&[oc, geom.output, geom.output], out)
}

/// One-sample W-CONV-S weight gradient through the lowering: the S-CONV
/// forward gathers the columns its `∇W` partial reads.
fn phase_wconv(input: &Tensor, dout: &Tensor, geom: &WconvGeometry) -> Tensor {
    let f = &geom.forward;
    let (ic, oc) = (input.shape()[0], dout.shape()[0]);
    let plan = PhaseConv::sconv(ic, oc, f);
    let mut cols = vec![0.0; plan.cols_len(1)];
    let mut out = vec![0.0; oc * f.output * f.output];
    let weights = vec![0.0; plan.weight_len()];
    let mut ws = Workspace::new();
    plan.forward(input.data(), 1, &weights, &mut cols, &mut out, &mut ws);
    let mut dw = vec![0.0; plan.weight_len()];
    plan.weight_grad_partials(&cols, dout.data(), 1, &mut dw);
    Tensor::from_vec(&[oc, ic, f.kernel, f.kernel], dw)
}

/// Every distinct T-CONV geometry in the Table V benchmarks, exercised
/// with reduced channels.
#[test]
fn zfdr_matches_naive_on_every_benchmark_tconv_geometry() {
    let mut seen = std::collections::HashSet::new();
    let mut exercised = 0;
    for gan in benchmarks::all() {
        if gan.generator.dims != 2 {
            continue; // the lowering is 2-D; 3D-GAN is counted analytically
        }
        for net in [&gan.generator, &gan.discriminator] {
            for layer in &net.layers {
                let Layer::Tconv(t) = layer else { continue };
                if !seen.insert(t.geometry) {
                    continue;
                }
                // Skip the largest extents to keep the test quick; the
                // geometry classes repeat with the spatial period anyway.
                if t.geometry.output > 16 {
                    continue;
                }
                let input = det(&[3, t.geometry.input, t.geometry.input], exercised + 1);
                let weights = det(
                    &[2, 3, t.geometry.kernel, t.geometry.kernel],
                    exercised + 77,
                );
                let zf = phase_tconv(&input, &weights, &t.geometry);
                let naive = tconv_forward_zero_insert(&input, &weights, &t.geometry);
                assert_eq!(bits(&zf), bits(&naive), "{:?}", t.geometry);
                exercised += 1;
            }
        }
    }
    assert!(exercised >= 4, "expected several distinct geometries");
}

/// Every distinct S-CONV geometry's weight-gradient (W-CONV-S) direction.
#[test]
fn wconv_zfdr_matches_naive_on_benchmark_geometries() {
    let mut seen = std::collections::HashSet::new();
    let mut exercised = 0;
    for gan in benchmarks::all() {
        if gan.discriminator.dims != 2 {
            continue;
        }
        for net in [&gan.generator, &gan.discriminator] {
            for layer in &net.layers {
                let Layer::Conv(c) = layer else { continue };
                if c.geometry.input > 16 || !seen.insert(c.geometry) {
                    continue;
                }
                let geom = WconvGeometry {
                    forward: c.geometry,
                };
                let input = det(&[2, c.geometry.input, c.geometry.input], exercised + 5);
                let dout = det(&[3, c.geometry.output, c.geometry.output], exercised + 50);
                let zf = phase_wconv(&input, &dout, &geom);
                let naive = wconv_weight_grad_zero_insert(&input, &dout, &geom);
                assert_eq!(bits(&zf), bits(&naive), "{:?}", c.geometry);
                exercised += 1;
            }
        }
    }
    assert!(exercised >= 2, "expected several distinct geometries");
}

/// `Σ reuse · volume` over a plan's 2-D class tuples: the true-value
/// products per (in-channel, out-channel) pair the model charges.
fn plan_products(plan: &ZfdrPlan) -> u128 {
    let mut total = 0;
    plan.for_each_tuple(2, |reuse, volume, _| total += reuse * volume);
    total
}

/// The model's ZFDR plan and the executed lowering count the same
/// products on every 2-D benchmark geometry: T-CONV forward, the W-CONV-S
/// weight gradient of every S-CONV, and symmetric D-CONV (the dilated
/// layers live in the extended benchmarks). The lowering's GEMMs also run
/// border taps that read padding, so they never run fewer.
#[test]
fn plan_and_lowering_count_the_same_products() {
    let mut checked = 0;
    for gan in benchmarks::all().into_iter().chain(benchmarks::extended()) {
        for net in [&gan.generator, &gan.discriminator] {
            if net.dims != 2 {
                continue;
            }
            for layer in &net.layers {
                let (lowering, plan) = match layer {
                    Layer::Tconv(t) => (
                        PhaseConv::tconv(t.in_channels, t.out_channels, &t.geometry),
                        ZfdrPlan::for_tconv(&t.geometry),
                    ),
                    Layer::Conv(c) => (
                        PhaseConv::sconv(c.in_channels, c.out_channels, &c.geometry),
                        ZfdrPlan::for_wconv(&WconvGeometry {
                            forward: c.geometry,
                        }),
                    ),
                    Layer::Dconv(d) if d.geometry.is_symmetric() => (
                        PhaseConv::dconv(d.in_channels, d.out_channels, &d.geometry),
                        ZfdrPlan::for_dconv(&d.geometry.rows),
                    ),
                    _ => continue,
                };
                let pairs = (lowering.channels() * lowering.maps()) as u128;
                let executed = lowering.true_products() as u128;
                assert_eq!(
                    executed,
                    plan_products(&plan) * pairs,
                    "{}: {layer:?}",
                    gan.name
                );
                let gemm = (lowering.maps() * lowering.cols_len(1)) as u128;
                assert!(gemm >= executed, "{}: {layer:?}", gan.name);
                checked += 1;
            }
        }
    }
    assert!(checked >= 40, "only {checked} geometries checked");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random valid geometries: the lowering equals the zero-insertion
    /// reference bit for bit (the core correctness property of the paper).
    #[test]
    fn zfdr_tconv_equivalence_random(i in 2usize..8, w in 2usize..6, s in 2usize..4, seed in 0u32..500) {
        prop_assume!(w >= s); // avoid output holes (degenerate for GANs)
        let Some(geom) = TconvGeometry::for_upsampling(i, w, s) else {
            return Ok(());
        };
        let input = det(&[2, i, i], seed);
        let weights = det(&[2, 2, w, w], seed + 1000);
        let zf = phase_tconv(&input, &weights, &geom);
        let naive = tconv_forward_zero_insert(&input, &weights, &geom);
        prop_assert_eq!(bits(&zf), bits(&naive));
        // Zero-free invariant: the true products equal the analytic
        // useful-MAC count.
        prop_assert_eq!(
            PhaseConv::tconv(2, 2, &geom).true_products(),
            geom.useful_multiplications_per_channel() * 2 * 2
        );
    }

    /// Random valid W-CONV-S geometries.
    #[test]
    fn zfdr_wconv_equivalence_random(i in 4usize..12, w in 2usize..6, s in 1usize..3, p in 0usize..3, seed in 0u32..500) {
        let Some(geom) = WconvGeometry::new(i, w, s, p) else {
            return Ok(());
        };
        prop_assume!(geom.forward.output >= 1);
        let input = det(&[2, i, i], seed);
        let dout = det(&[2, geom.forward.output, geom.forward.output], seed + 2000);
        let zf = phase_wconv(&input, &dout, &geom);
        let naive = wconv_weight_grad_zero_insert(&input, &dout, &geom);
        prop_assert_eq!(bits(&zf), bits(&naive));
    }
}
