//! Property tests anchoring the batched trainer, the only training path.
//!
//! Two independent anchors replace any second, per-sample implementation:
//!
//! * **Batch invariance.** For randomly drawn stacks — DCGAN-style
//!   generators and extended-grammar discriminators mixing dilated
//!   convolutions, skip edges and norm variants — each sample's slice of
//!   a batch-`B` forward output and input gradient is bit-identical to a
//!   separate `B = 1` run on that sample, and the batch-`B` weight
//!   gradients are bit-identical to the `B = 1` gradients folded by
//!   [`tree_reduce_in_place`]. A batch is therefore exactly `B`
//!   independent samples plus one fixed reduction order.
//! * **Per-layer reference anchors.** Every conv-family layer's forward,
//!   `∇input` and `∇W` bit-match the tensor crate's frozen references:
//!
//!   | layer | forward | `∇input` | `∇W` |
//!   |---|---|---|---|
//!   | S-CONV | `Conv2d::forward` | `Conv2d::input_grad` | `Conv2d::weight_grad`, `wconv_weight_grad_zero_insert` |
//!   | T-CONV | `tconv_forward_zero_insert` | `Conv2d::input_grad` over the zero-inserted plane, gathered | `Conv2d::weight_grad` over the zero-inserted plane |
//!   | D-CONV | `dconv_direct`, `dconv_zero_insertion` | `dconv_input_grad_scatter` | `Conv2d::weight_grad` at the effective extent, true taps kept |
//!
//! Both anchors are checked at 1, 2 and 8 worker threads, so they cover
//! the data-parallel sharding too.

use lergan_gan::topology::parse_network;
use lergan_gan::train::{
    build_trainable_with, tree_reduce_in_place, ConvTrainLayer, DconvTrainLayer, LayerState,
    TconvTrainLayer, TrainableLayer,
};
use lergan_tensor::conv::{tconv_forward_zero_insert, wconv_weight_grad_zero_insert};
use lergan_tensor::dconv::{dconv_direct, dconv_input_grad_scatter, dconv_zero_insertion};
use lergan_tensor::zero_insert::expand_tconv_input;
use lergan_tensor::{
    parallel, Conv2d, DconvGeometry, SconvGeometry, TconvGeometry, Tensor, WconvGeometry, Workspace,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const THREADS: [usize; 3] = [1, 2, 8];

fn det(shape: &[usize], seed: u32) -> Tensor {
    let mut state = seed.wrapping_mul(747796405).wrapping_add(1);
    Tensor::from_fn(shape, |_| {
        state = state.wrapping_mul(1664525).wrapping_add(1013904223);
        ((state >> 16) as f32 / 65536.0) - 0.5
    })
}

/// Stacks same-shaped samples into one `[B, …]` tensor.
fn pack(samples: &[Tensor]) -> Tensor {
    let mut shape = vec![samples.len()];
    shape.extend_from_slice(samples[0].shape());
    let data: Vec<f32> = samples
        .iter()
        .flat_map(|s| s.data().iter().copied())
        .collect();
    Tensor::from_vec(&shape, data)
}

fn bits_eq(a: &[f32], b: &[f32], what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len(), "{} length", what);
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        prop_assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{} element {} ({} vs {})",
            what,
            i,
            x,
            y
        );
    }
    Ok(())
}

/// Folds `parts[b]` (one buffer per sample) with the batched trainer's
/// fixed reduction tree.
fn tree_fold(parts: &[Vec<f32>]) -> Vec<f32> {
    let len = parts[0].len();
    let mut flat: Vec<f32> = parts.iter().flatten().copied().collect();
    tree_reduce_in_place(&mut flat, parts.len(), len);
    flat.truncate(len);
    flat
}

/// Bit-compares the batch-`B` stack's accumulated gradients against the
/// `B = 1` snapshots folded by the fixed tree.
fn grads_match_tree(
    batched: &[LayerState],
    singles: &[Vec<LayerState>],
) -> Result<(), TestCaseError> {
    for (li, bstate) in batched.iter().enumerate() {
        for (key, btensor) in bstate.entries() {
            let parts: Vec<Vec<f32>> = singles
                .iter()
                .map(|s| {
                    s[li]
                        .get(key)
                        .expect("twins capture the same keys")
                        .data()
                        .to_vec()
                })
                .collect();
            bits_eq(
                btensor.data(),
                &tree_fold(&parts),
                &format!("layer {li} {key}"),
            )?;
        }
    }
    Ok(())
}

/// Runs one batch-`B` forward/backward over a stack and `B` separate
/// `B = 1` passes over an identically initialised twin, at each thread
/// count, and bit-compares outputs, input gradients, tree-folded weight
/// gradients and persistent state.
#[allow(clippy::too_many_arguments)]
fn check_batch_invariance(
    notation: &str,
    is_generator: bool,
    batch_norm: bool,
    extent: usize,
    input_shape: &[usize],
    seed_shape: &[usize],
    batch: usize,
    case_seed: u32,
) -> Result<(), TestCaseError> {
    let spec = parse_network("prop", notation, 2, extent).unwrap();
    let inputs: Vec<Tensor> = (0..batch)
        .map(|b| det(input_shape, case_seed + b as u32))
        .collect();
    let seeds: Vec<Tensor> = (0..batch)
        .map(|b| det(seed_shape, case_seed + 100 + b as u32))
        .collect();
    let packed = pack(&inputs);
    let packed_seeds = pack(&seeds);
    for threads in THREADS {
        parallel::with_threads(threads, || -> Result<(), TestCaseError> {
            let build = || {
                let mut rng = StdRng::seed_from_u64(u64::from(case_seed));
                build_trainable_with(&spec, is_generator, batch_norm, &mut rng)
            };
            let (mut net, mut single) = (build(), build());

            let out = net.forward_batch(&packed, batch).unwrap();
            let din = net.backward_batch(&packed_seeds, batch).unwrap();
            let slen = out.len() / batch;
            let dlen = din.len() / batch;
            let mut singles = Vec::new();
            for b in 0..batch {
                single.zero_grads();
                let o = single.forward_batch(&pack(&inputs[b..=b]), 1).unwrap();
                bits_eq(
                    &out.data()[b * slen..(b + 1) * slen],
                    o.data(),
                    &format!("{threads} threads, forward sample {b}"),
                )?;
                let d = single.backward_batch(&pack(&seeds[b..=b]), 1).unwrap();
                bits_eq(
                    &din.data()[b * dlen..(b + 1) * dlen],
                    d.data(),
                    &format!("{threads} threads, ∇input sample {b}"),
                )?;
                single.recycle(o);
                single.recycle(d);
                singles.push(single.capture_grads());
            }
            grads_match_tree(&net.capture_grads(), &singles)?;
            // Persistent state: BatchNorm running statistics fold in
            // sample order either way; weights are untouched.
            for (li, (ls, rs)) in net
                .capture_state()
                .iter()
                .zip(single.capture_state().iter())
                .enumerate()
            {
                for (key, lt) in ls.entries() {
                    let rt = rs.get(key).expect("twin state keys agree");
                    bits_eq(lt.data(), rt.data(), &format!("state layer {li} {key}"))?;
                }
            }
            Ok(())
        })?;
    }
    Ok(())
}

/// Per-sample reference results of one conv-family layer.
#[derive(Default)]
struct Reference {
    out: Vec<f32>,
    din: Vec<f32>,
    /// One `∇W` per sample, folded by the tree before comparing.
    dw: Vec<Vec<f32>>,
}

/// Drives `layer` through one batched forward/backward over `batch`
/// samples of `input_shape` (gradient samples of `grad_shape`) at each
/// thread count and bit-compares against `reference(x, g, weights)`,
/// which evaluates one sample.
fn check_layer<L: TrainableLayer>(
    make: impl Fn() -> L,
    input_shape: &[usize],
    grad_shape: &[usize],
    batch: usize,
    seed: u32,
    reference: impl Fn(&Tensor, &Tensor, &Tensor, &mut Reference),
) -> Result<(), TestCaseError> {
    let xs: Vec<Tensor> = (0..batch)
        .map(|b| det(input_shape, seed + b as u32))
        .collect();
    let gs: Vec<Tensor> = (0..batch)
        .map(|b| det(grad_shape, seed + 50 + b as u32))
        .collect();
    let weights = make()
        .capture_state()
        .get("weights")
        .expect("conv layers own weights")
        .clone();
    let mut want = Reference::default();
    for (x, g) in xs.iter().zip(&gs) {
        reference(x, g, &weights, &mut want);
    }
    let want_dw = tree_fold(&want.dw);
    let (x, g) = (pack(&xs), pack(&gs));
    for threads in THREADS {
        parallel::with_threads(threads, || -> Result<(), TestCaseError> {
            let mut layer = make();
            let mut ws = Workspace::new();
            let out = layer.forward_batch(&x, batch, &mut ws).unwrap();
            bits_eq(
                out.data(),
                &want.out,
                &format!("{threads} threads, forward"),
            )?;
            let din = layer.backward_batch(&g, batch, &mut ws).unwrap();
            bits_eq(din.data(), &want.din, &format!("{threads} threads, ∇input"))?;
            let grads = layer.capture_grads();
            let dw = grads.get("grad").expect("conv layers accumulate \"grad\"");
            bits_eq(dw.data(), &want_dw, &format!("{threads} threads, ∇W"))
        })?;
    }
    Ok(())
}

fn sconv_anchor(
    (ic, oc): (usize, usize),
    geom: SconvGeometry,
    batch: usize,
    seed: u32,
) -> Result<(), TestCaseError> {
    let (i, o, k) = (geom.input, geom.output, geom.kernel);
    let conv = Conv2d::new(ic, oc, k, geom.stride, geom.pad).unwrap();
    let wgeom = WconvGeometry::new(i, k, geom.stride, geom.pad).unwrap();
    let make = || {
        let mut rng = StdRng::seed_from_u64(u64::from(seed));
        ConvTrainLayer::new(ic, oc, k, geom.stride, geom.pad, &mut rng).unwrap()
    };
    check_layer(make, &[ic, i, i], &[oc, o, o], batch, seed, |x, g, w, r| {
        r.out.extend_from_slice(conv.forward(x, w).data());
        r.din.extend_from_slice(conv.input_grad(g, w, i).data());
        let dw = conv.weight_grad(x, g);
        let zero_inserted = wconv_weight_grad_zero_insert(x, g, &wgeom);
        assert_eq!(
            dw.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            zero_inserted
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            "the two S-CONV ∇W references agree"
        );
        r.dw.push(dw.into_vec());
    })
}

fn tconv_anchor(
    (ic, oc): (usize, usize),
    geom: TconvGeometry,
    batch: usize,
    seed: u32,
) -> Result<(), TestCaseError> {
    let (i, o, k) = (geom.input, geom.output, geom.kernel);
    let e = geom.expanded();
    let inner = Conv2d::new(ic, oc, k, 1, 0).unwrap();
    let (p, s) = (geom.insertion_pad, geom.converse_stride);
    let make = || {
        let mut rng = StdRng::seed_from_u64(u64::from(seed));
        TconvTrainLayer::new(ic, oc, geom, &mut rng)
    };
    check_layer(make, &[ic, i, i], &[oc, o, o], batch, seed, |x, g, w, r| {
        r.out
            .extend_from_slice(tconv_forward_zero_insert(x, w, &geom).data());
        let dex = inner.input_grad(g, w, e);
        for ci in 0..ic {
            for y in 0..i {
                for xx in 0..i {
                    r.din.push(dex[&[ci, p + y * s, p + xx * s]]);
                }
            }
        }
        r.dw.push(
            inner
                .weight_grad(&expand_tconv_input(x, &geom), g)
                .into_vec(),
        );
    })
}

fn dconv_anchor(
    (ic, oc): (usize, usize),
    geom: DconvGeometry,
    batch: usize,
    seed: u32,
) -> Result<(), TestCaseError> {
    let a = geom.rows;
    let (i, o, k, d) = (a.input, a.output, a.kernel, a.dilation);
    let eff = a.effective_kernel();
    let dense = Conv2d::new(ic, oc, eff, a.stride, a.pad).unwrap();
    let make = || {
        let mut rng = StdRng::seed_from_u64(u64::from(seed));
        DconvTrainLayer::new(ic, oc, geom, &mut rng)
    };
    check_layer(make, &[ic, i, i], &[oc, o, o], batch, seed, |x, g, w, r| {
        let out = dconv_direct(x, w, &geom);
        let zero_inserted = dconv_zero_insertion(x, w, &geom);
        assert_eq!(
            out.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            zero_inserted
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            "the two D-CONV forward references agree"
        );
        r.out.extend_from_slice(out.data());
        let mut din = vec![0.0; ic * i * i];
        dconv_input_grad_scatter(g.data(), w, &geom, &mut din);
        r.din.extend(din);
        // ∇W of the dense effective-extent kernel; the true taps sit at
        // the dilation multiples.
        let full = dense.weight_grad(x, g);
        let mut dw = Vec::with_capacity(oc * ic * k * k);
        for pair in 0..oc * ic {
            for jy in 0..k {
                for jx in 0..k {
                    dw.push(full.data()[pair * eff * eff + jy * d * eff + jx * d]);
                }
            }
        }
        r.dw.push(dw);
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random DCGAN-style generator stacks: FC reshape, two stride-2
    /// T-CONV upsampling stages, stride-1 T-CONV head, optional
    /// BatchNorm after every hidden T-CONV.
    #[test]
    fn random_generator_stacks_are_batch_invariant(
        c1 in 2usize..7,
        c2 in 2usize..5,
        noise in prop_oneof![Just(4usize), Just(8)],
        batch_norm in prop_oneof![Just(false), Just(true)],
        batch in 2usize..6,
        case_seed in 0u32..1000,
    ) {
        let notation = format!("{noise}f-({c1}t-{c2}t)(3k2s)-t1");
        let (input, seed) = (&[noise][..], &[1, 8, 8][..]);
        check_batch_invariance(&notation, true, batch_norm, 8, input, seed, batch, case_seed)?;
    }

    /// Random extended-grammar discriminator stacks: stride-1 conv core
    /// plus optional dilated conv, norm-tagged conv and skip edge, FC
    /// head.
    #[test]
    fn random_extended_stacks_are_batch_invariant(
        c in 3usize..9,
        dilated in prop_oneof![Just(false), Just(true)],
        norm in prop_oneof![Just(""), Just("bn"), Just("pn")],
        skip in prop_oneof![Just(false), Just(true)],
        batch in 2usize..5,
        case_seed in 0u32..1000,
    ) {
        let mut mid = String::new();
        if dilated {
            mid.push_str(&format!("-{c}c3k1s2d"));
        }
        // The skip edge jumps two layers, so two same-shape convs always
        // follow its source.
        mid.push_str(&format!("-{c}c3k1s{norm}"));
        if skip {
            mid.push_str("+2");
        }
        mid.push_str(&format!("-{c}c3k1s-{c}c3k1s"));
        let notation = format!("(1c-{c}c)(3k1s){mid}-f1");
        check_batch_invariance(&notation, false, false, 8, &[1, 8, 8], &[1], batch, case_seed)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sconv_layer_matches_references(
        (i, k, s, p) in (1usize..10, 1usize..6, 1usize..4, 0usize..3),
        channels in (1usize..4, 1usize..4),
        batch in prop_oneof![Just(1usize), Just(3)],
        seed in 0u32..100_000,
    ) {
        let Some(geom) = SconvGeometry::new(i, k, s, p) else {
            return Err(TestCaseError::reject("no geometry"));
        };
        sconv_anchor(channels, geom, batch, seed)?;
    }

    #[test]
    fn tconv_layer_matches_references(
        (i, k, s, target) in (1usize..7, 1usize..6, 1usize..4, 1usize..16),
        channels in (1usize..4, 1usize..4),
        batch in prop_oneof![Just(1usize), Just(3)],
        seed in 0u32..100_000,
    ) {
        // `for_target` reaches odd outputs and `extra_end_pad = 1`.
        let Some(geom) = TconvGeometry::for_target(i, k, s, target) else {
            return Err(TestCaseError::reject("no geometry"));
        };
        tconv_anchor(channels, geom, batch, seed)?;
    }

    #[test]
    fn dconv_layer_matches_references(
        (i, k, s, d, p) in (1usize..10, 1usize..4, 1usize..3, 1usize..4, 0usize..4),
        channels in (1usize..4, 1usize..4),
        batch in prop_oneof![Just(1usize), Just(3)],
        seed in 0u32..100_000,
    ) {
        let Some(geom) = DconvGeometry::square(i, k, s, d, p) else {
            return Err(TestCaseError::reject("no geometry"));
        };
        dconv_anchor(channels, geom, batch, seed)?;
    }
}

#[test]
fn benchmark_conv_shapes_match_references() {
    // The conv layers of the 32 px benchmark GAN, at batch 2.
    let t = |i| TconvGeometry::for_upsampling(i, 5, 2).unwrap();
    for (ic, oc, i) in [(16, 8, 4), (8, 1, 8)] {
        tconv_anchor((ic, oc), t(i), 2, 7).unwrap();
    }
    for (ic, oc, i) in [(1, 8, 16), (8, 16, 8)] {
        sconv_anchor((ic, oc), SconvGeometry::new(i, 5, 2, 2).unwrap(), 2, 11).unwrap();
    }
    dconv_anchor((8, 8), DconvGeometry::square(8, 3, 1, 2, 2).unwrap(), 2, 13).unwrap();
}

#[test]
fn dcgan_generator_with_batchnorm_is_batch_invariant() {
    // Batch of 5: a non-power-of-two exercises the ragged tree edge.
    check_batch_invariance(
        "16f-(8t-4t)(3k2s)-t1",
        true,
        true,
        16,
        &[16],
        &[1, 16, 16],
        5,
        7,
    )
    .unwrap();
}

#[test]
fn extended_grammar_stack_is_batch_invariant() {
    // Dilated conv, a skip edge and bn/pn norm tags in one stack.
    let notation = "(1c-8c)(3k1s)-8c3k1s2d-8c3k1sbn+2-8c3k1s-8c3k1spn-f1";
    check_batch_invariance(notation, false, false, 8, &[1, 8, 8], &[1], 3, 17).unwrap();
}
