//! `train_dcgan32`: the functional trainer in a closed loop of batched
//! steps on a 32 px DCGAN whose k5 s2 T-CONVs (64/32/16 channels) and one
//! dilated conv make zero insertion the dominant cost.
//!
//! The untraced run times `Gan::train_step_batched`. The traced run drives
//! the same step from outside through the public `Sequential` batch calls
//! on `Gan.generator` / `Gan.discriminator`, drives every layer on its own
//! through the `TrainableLayer` batch methods, and times the GEMM kernels
//! at the workload's largest shapes.

use crate::alloc;
use crate::calib;
use crate::report::{
    beyond, check, median, metric, percentile, Better, Check, EndToEnd, Outcome, Traced,
};
use crate::trace::Tracer;
use lergan_core::LerGan;
use lergan_gan::ir::{network_ops, OpKind};
use lergan_gan::layer::Layer;
use lergan_gan::topology::{parse_network, GanSpec, NetworkSpec};
use lergan_gan::train::{
    build_trainable_bound, ConvTrainLayer, DconvTrainLayer, DenseLayer, Gan, LeakyRelu, Reshape,
    StepStats, Tanh, TconvTrainLayer, TrainError, TrainableLayer, UpdateRule,
};
use lergan_gan::{GemmShape, Phase};
use lergan_tensor::dispatch;
use lergan_tensor::{gemm_into, gemm_nt_into, parallel, Tensor, Workspace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Generator: FC to 64×4×4, then three k5 s2 T-CONVs up to 1×32×32.
pub const GENERATOR: &str = "16f-(64t-32t-16t)(5k2s)-t1";
/// Discriminator: two k5 s2 S-CONVs, a k3 dilation-2 conv, two more
/// k5 s2 S-CONVs and the logit FC.
pub const DISCRIMINATOR: &str = "(1c-16c)(5k2s)-32c3k1s2d-32c5k2s-64c5k2s-f1";
const EXTENT: usize = 32;
/// Samples per step.
pub const BATCH: usize = 8;
const NOISE_DIM: usize = 16;
/// Worker threads of the workload (`LERGAN_THREADS` overrides).
pub const THREADS: usize = 2;
const LR: f32 = 2e-4;
/// Distinct real batches the loop cycles through.
const DATA_BATCHES: usize = 8;
/// Set-ups per run, one per segment of the run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Warm-up stops at the first step that allocates nothing, or here.
const MAX_WARMUP: usize = 8;
/// Steps whose loss bits must agree across thread counts.
const DETERMINISM_STEPS: usize = 8;
/// Tail percentile of the step time (≥ 10 samples beyond it from 100 steps).
const TAIL_Q: f64 = 0.9;
/// Repetitions of each single-layer and kernel probe (after one warm-up).
const PROBE_REPS: usize = 5;

const DATA_SALT: u64 = 0xDA7A_5EED_0000_0001;
const INIT_SALT: u64 = 0x1417_5EED_0000_0002;
const NOISE_SALT: u64 = 0x0015_E5EE_D000_0003;

fn networks() -> (NetworkSpec, NetworkSpec) {
    let g = parse_network("train_dcgan32 generator", GENERATOR, 2, EXTENT)
        .expect("generator notation parses");
    let d = parse_network("train_dcgan32 discriminator", DISCRIMINATOR, 2, EXTENT)
        .expect("discriminator notation parses");
    (g, d)
}

/// The trainer, fully determined by the workload seed.
fn build_gan(seed: u64) -> Gan {
    let (g_spec, d_spec) = networks();
    let mut rng = StdRng::seed_from_u64(seed ^ INIT_SALT);
    let (g, _) = build_trainable_bound(&g_spec, true, false, &mut rng);
    let (d, _) = build_trainable_bound(&d_spec, false, false, &mut rng);
    Gan::new(g, d, NOISE_DIM, LR, seed ^ NOISE_SALT).with_optimizer(UpdateRule::dcgan_adam(LR))
}

/// Seeded "real" batches: smooth random gratings in (-1, 1).
fn real_batches(seed: u64) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed ^ DATA_SALT);
    (0..DATA_BATCHES)
        .map(|_| {
            let mut data = Vec::with_capacity(BATCH * EXTENT * EXTENT);
            for _ in 0..BATCH {
                let fx = 0.1 + 0.5 * rng.gen::<f32>();
                let fy = 0.1 + 0.5 * rng.gen::<f32>();
                let px = std::f32::consts::TAU * rng.gen::<f32>();
                let py = std::f32::consts::TAU * rng.gen::<f32>();
                let amp = 0.5 + rng.gen::<f32>();
                for y in 0..EXTENT {
                    for x in 0..EXTENT {
                        let v = (fx * x as f32 + px).sin() + (fy * y as f32 + py).cos();
                        data.push((amp * v).tanh());
                    }
                }
            }
            Tensor::from_vec(&[BATCH, 1, EXTENT, EXTENT], data)
        })
        .collect()
}

/// Stands in for the losses of a step that returned `Err`.
const FAILED_STEP: StepStats = StepStats {
    d_loss: f32::NAN,
    g_loss: f32::NAN,
};

fn finite(s: &StepStats) -> bool {
    s.d_loss.is_finite() && s.g_loss.is_finite()
}

fn loss_bits(s: &StepStats) -> (u32, u32) {
    (s.d_loss.to_bits(), s.g_loss.to_bits())
}

/// One set-up: a fresh trainer from `seed`, then warm-up steps until a
/// step allocates nothing. Returns the trainer, the warm-up losses and the
/// seconds taken.
fn set_up(seed: u64, data: &[Tensor]) -> (Gan, Vec<StepStats>, f64) {
    let t0 = Instant::now();
    let mut gan = build_gan(seed);
    let mut losses = Vec::new();
    loop {
        let before = alloc::allocations();
        let stats = gan
            .train_step_batched(&data[losses.len() % DATA_BATCHES])
            .unwrap_or(FAILED_STEP);
        losses.push(stats);
        if alloc::allocations() == before || losses.len() >= MAX_WARMUP {
            break;
        }
    }
    (gan, losses, t0.elapsed().as_secs_f64())
}

/// Untraced run: `SETUP_REPS` segments of `seconds / SETUP_REPS`, each a
/// timed set-up and then a closed loop of `train_step_batched` on that
/// trainer, so the set-ups whose median is `setup_s` are spread over the
/// run. Each set-up and each step is followed by the host-speed reference
/// kernel, which the timings exclude. Each rebuilt trainer must repeat the
/// first one's loss bits; then the cross-thread loss-bit check.
pub fn measure(seed: u64, seconds: f64, threads: usize) -> Outcome {
    let data = real_batches(seed);
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let (mut warmup, mut warmup_ok) = (0usize, true);
    let mut reference: Vec<(u32, u32)> = Vec::new();
    let mut rebuilt_differ = 0usize;
    // Raw step ms, the same at nominal host speed, and the reference
    // kernel's ms after each step.
    let (mut step_ms, mut step_adjusted, mut host_ref_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut failed = 0u64;
    parallel::with_threads(threads, || {
        for _ in 0..SETUP_REPS {
            // The previous segment's trainer is dropped before this set-up,
            // so peak memory is that of one trainer.
            let ((mut gan, mut losses), s) = calib::bracketed(threads, || {
                let (gan, losses, s) = set_up(seed, &data);
                ((gan, losses), s)
            });
            setup.push(s);
            warmup += losses.len();
            warmup_ok &= losses.iter().all(finite);
            let t0 = Instant::now();
            while t0.elapsed().as_secs_f64() < seconds / SETUP_REPS as f64
                || losses.len() < DETERMINISM_STEPS
            {
                let reals = &data[losses.len() % DATA_BATCHES];
                let t = Instant::now();
                let r = gan.train_step_batched(black_box(reals));
                let ms = t.elapsed().as_secs_f64() * 1e3;
                let (adjusted, r_ms) = calib::adjusted(ms, threads);
                step_ms.push(ms);
                step_adjusted.push(adjusted);
                host_ref_ms.push(r_ms);
                let stats = r.unwrap_or(FAILED_STEP);
                if !finite(&stats) {
                    failed += 1;
                }
                losses.push(stats);
            }
            let bits: Vec<(u32, u32)> = losses[..DETERMINISM_STEPS].iter().map(loss_bits).collect();
            if reference.is_empty() {
                reference = bits;
            } else {
                rebuilt_differ += usize::from(bits != reference);
            }
        }
    });

    // Replay the first steps from the same seed at the other thread count.
    let other = if threads == 1 { 2 } else { 1 };
    let replay: Vec<(u32, u32)> = parallel::with_threads(other, || {
        let mut g = build_gan(seed);
        (0..DETERMINISM_STEPS)
            .map(|i| {
                g.train_step_batched(&data[i % DATA_BATCHES])
                    .map_or((u32::MAX, u32::MAX), |s| loss_bits(&s))
            })
            .collect()
    });

    let n = step_ms.len();
    let samples_per_s = (n * BATCH) as f64 * 1e3 / step_ms.iter().sum::<f64>();
    let p50 = median(&step_ms);
    let op_ms = median(&step_adjusted);
    let tail = percentile(&step_ms, TAIL_Q);
    let setup_s = median(&setup);
    let checks = vec![
        check(
            "train.losses_finite",
            warmup_ok && failed == 0,
            format!(
                "{warmup} warm-up + {n} timed steps, {failed} with a non-finite loss or an error"
            ),
        ),
        check(
            "train.rebuilt_trainers_repeat",
            rebuilt_differ == 0,
            format!(
                "{rebuilt_differ} of {} rebuilt trainers differ from the first in their first \
                 {DETERMINISM_STEPS} loss bits",
                SETUP_REPS - 1
            ),
        ),
        check(
            "train.loss_bits_threads_1_vs_2",
            replay == reference,
            format!("first {DETERMINISM_STEPS} steps at {threads} vs {other} threads"),
        ),
    ];
    Outcome {
        attempted: n as u64,
        failed,
        checks,
        named: vec![
            metric("setup_s", setup_s, "s", Better::Lower),
            metric(
                "train_samples_per_s",
                samples_per_s,
                "samples/s",
                Better::Higher,
            ),
            metric("step_ms_p50", p50, "ms", Better::Lower),
            metric("step_ms_p90", tail, "ms", Better::Lower),
            metric("step_samples", n as f64, "count", Better::Higher),
            metric("host_ref_ms", median(&host_ref_ms), "ms", Better::Lower),
            metric(
                "step_p90_samples_beyond",
                beyond(n, TAIL_Q) as f64,
                "count",
                Better::Higher,
            ),
            metric(
                "failed_frac",
                failed as f64 / n as f64,
                "fraction",
                Better::Lower,
            ),
        ],
        e2e: EndToEnd {
            setup_s,
            throughput_per_s: BATCH as f64 * 1e3 / op_ms,
            op_ms,
        },
        op_mean_ms: step_ms.iter().sum::<f64>() / n as f64,
    }
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

fn bce_with_logit(logit: f32, target: f32) -> f32 {
    logit.max(0.0) - logit * target + (1.0 + (-logit.abs()).exp()).ln()
}

/// `[batch, 1]` loss-gradient seeds for `logits`, adding the BCE loss.
fn loss_seeds(logits: &Tensor, target: f32, loss: &mut f32) -> Tensor {
    let m = logits.len() as f32;
    let data = logits
        .data()
        .iter()
        .map(|&l| {
            *loss += bce_with_logit(l, target);
            (sigmoid(l) - target) / m
        })
        .collect();
    Tensor::from_vec(&[logits.len(), 1], data)
}

fn noise_batch(rng: &mut StdRng, batch: usize) -> Tensor {
    let data = (0..batch * NOISE_DIM)
        .map(|_| rng.gen::<f32>() * 2.0 - 1.0)
        .collect();
    Tensor::from_vec(&[batch, NOISE_DIM], data)
}

/// One training step driven from outside: the dataflow of
/// `Gan::train_step_batched` (train D on real + fake, then G through D),
/// each stack call in its own span.
fn decomposed_step(
    gan: &mut Gan,
    reals: &Tensor,
    step: u64,
    rule: &UpdateRule,
    rng: &mut StdRng,
    tr: &mut Tracer,
) -> Result<StepStats, TrainError> {
    let b = reals.shape()[0];
    let (g, d) = (&mut gan.generator, &mut gan.discriminator);
    let mut d_loss = 0.0;
    let logits = tr.span("gan.d.fwd", step, || d.forward_batch(reals, b))?;
    let seeds = loss_seeds(&logits, 1.0, &mut d_loss);
    d.recycle(logits);
    let din = tr.span("gan.d.bwd", step, || d.backward_batch(&seeds, b))?;
    d.recycle(din);
    let noise = noise_batch(rng, b);
    let fakes = tr.span("gan.g.fwd", step, || g.forward_batch(&noise, b))?;
    let logits = tr.span("gan.d.fwd", step, || d.forward_batch(&fakes, b))?;
    g.recycle(fakes);
    let seeds = loss_seeds(&logits, 0.0, &mut d_loss);
    d.recycle(logits);
    let din = tr.span("gan.d.bwd", step, || d.backward_batch(&seeds, b))?;
    d.recycle(din);
    tr.span("gan.update", step, || {
        d.apply_update(rule, step + 1);
        g.zero_grads();
    });

    let mut g_loss = 0.0;
    let noise = noise_batch(rng, b);
    let fakes = tr.span("gan.g.fwd", step, || g.forward_batch(&noise, b))?;
    let logits = tr.span("gan.d.fwd", step, || d.forward_batch(&fakes, b))?;
    g.recycle(fakes);
    let seeds = loss_seeds(&logits, 1.0, &mut g_loss);
    d.recycle(logits);
    let d_grad = tr.span("gan.d.bwd", step, || d.backward_batch(&seeds, b))?;
    let g_grad = tr.span("gan.g.bwd", step, || g.backward_batch(&d_grad, b))?;
    d.recycle(d_grad);
    g.recycle(g_grad);
    tr.span("gan.update", step, || {
        g.apply_update(rule, step + 1);
        d.zero_grads();
    });
    Ok(StepStats {
        d_loss: d_loss / (2.0 * b as f32),
        g_loss: g_loss / b as f32,
    })
}

/// Op-kind bucket of a probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Fc,
    Sconv,
    Tconv,
    Dconv,
    NormAct,
}

impl Kind {
    const ALL: [Kind; 5] = [
        Kind::Fc,
        Kind::Sconv,
        Kind::Tconv,
        Kind::Dconv,
        Kind::NormAct,
    ];

    fn of(op: OpKind) -> Kind {
        match op {
            OpKind::Fc => Kind::Fc,
            OpKind::Sconv | OpKind::Wconv => Kind::Sconv,
            OpKind::Tconv => Kind::Tconv,
            OpKind::Dconv => Kind::Dconv,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kind::Fc => "fc",
            Kind::Sconv => "sconv",
            Kind::Tconv => "tconv",
            Kind::Dconv => "dconv",
            Kind::NormAct => "norm_act",
        }
    }

    fn spans(self) -> (&'static str, &'static str) {
        match self {
            Kind::Fc => ("gan.fc.fwd", "gan.fc.bwd"),
            Kind::Sconv => ("gan.sconv.fwd", "gan.sconv.bwd"),
            Kind::Tconv => ("gan.tconv.fwd", "gan.tconv.bwd"),
            Kind::Dconv => ("gan.dconv.fwd", "gan.dconv.bwd"),
            Kind::NormAct => ("gan.norm_act.fwd", "gan.norm_act.bwd"),
        }
    }
}

/// One layer driven on its own at the shape the stack binds it to.
struct Probe {
    /// `g.L<i>` / `d.L<i>` for parameterised layers (the layer's index in
    /// its network), with a suffix for the activations that follow it.
    label: String,
    /// Network layer index and generator flag, for the model join.
    layer_index: usize,
    generator: bool,
    kind: Kind,
    layer: Box<dyn TrainableLayer>,
    input: Tensor,
    grad: Tensor,
    /// The trainer's forward GEMM per sample.
    gemm: Option<GemmShape>,
    /// The IR's useful MACs per sample of the layer's forward op.
    useful_macs: u128,
    fwd_ms: f64,
    bwd_ms: f64,
}

impl Probe {
    /// MACs the layer executes for one batch, forward + backward (the
    /// backward runs the input- and the weight-gradient GEMMs).
    fn executed_macs(&self) -> u128 {
        self.gemm.map_or(0, |g| g.macs() * BATCH as u128 * 3)
    }
}

fn random(shape: &[usize], rng: &mut StdRng) -> Tensor {
    let n = shape.iter().product();
    Tensor::from_vec(shape, (0..n).map(|_| rng.gen::<f32>() - 0.5).collect())
}

/// Probes for every layer of `net`, mirroring `build_trainable_bound`'s
/// stack (parameterised layer, reshape, activation) with no batch norm.
fn probes(net: &NetworkSpec, generator: bool, rng: &mut StdRng, ws: &mut Workspace) -> Vec<Probe> {
    let tag = if generator { "g" } else { "d" };
    let phase = if generator {
        Phase::GForward
    } else {
        Phase::DForward
    };
    let n = net.layers.len();
    let mut out = Vec::new();
    for op in network_ops(net, phase) {
        let i = op.layer_index;
        let (layer, input_shape): (Box<dyn TrainableLayer>, Vec<usize>) = match &net.layers[i] {
            Layer::Fc(f) => (
                Box::new(DenseLayer::new(f.in_units, f.out_units, rng)),
                vec![BATCH, f.in_units],
            ),
            Layer::Conv(c) => (
                Box::new(
                    ConvTrainLayer::from_geometry(c.in_channels, c.out_channels, c.geometry, rng)
                        .expect("spec geometry is valid"),
                ),
                vec![BATCH, c.in_channels, c.geometry.input, c.geometry.input],
            ),
            Layer::Tconv(t) => (
                Box::new(TconvTrainLayer::new(
                    t.in_channels,
                    t.out_channels,
                    t.geometry,
                    rng,
                )),
                vec![BATCH, t.in_channels, t.geometry.input, t.geometry.input],
            ),
            Layer::Dconv(dc) => (
                Box::new(DconvTrainLayer::new(
                    dc.in_channels,
                    dc.out_channels,
                    dc.geometry,
                    rng,
                )),
                vec![
                    BATCH,
                    dc.in_channels,
                    dc.geometry.rows.input,
                    dc.geometry.cols.input,
                ],
            ),
        };
        let label = format!("{tag}.L{i}");
        let gemm = layer.gemm_shape();
        let mut probe = Probe {
            label: label.clone(),
            layer_index: i,
            generator,
            kind: Kind::of(op.kind),
            input: random(&input_shape, rng),
            grad: Tensor::zeros(&[1]),
            layer,
            gemm,
            useful_macs: op.workload.macs_useful,
            fwd_ms: 0.0,
            bwd_ms: 0.0,
        };
        let mut shape = bind_grad(&mut probe, rng, ws);
        let mut followers: Vec<(String, Box<dyn TrainableLayer>)> = Vec::new();
        if let (Layer::Fc(f), Some(next)) = (&net.layers[i], net.layers.get(i + 1)) {
            if !matches!(next, Layer::Fc(_)) {
                let (c, s) = (next.fan_in_channels(), next.in_spatial());
                followers.push((
                    format!("{label}.reshape"),
                    Box::new(Reshape::new(&[f.out_units], &[c, s, s])),
                ));
            }
        }
        if i + 1 == n && generator {
            followers.push((format!("{label}.tanh"), Box::new(Tanh::new())));
        } else if i + 1 < n {
            followers.push((format!("{label}.lrelu"), Box::new(LeakyRelu::new(0.2))));
        }
        out.push(probe);
        for (label, layer) in followers {
            let mut p = Probe {
                label,
                layer_index: i,
                generator,
                kind: Kind::NormAct,
                input: random(&shape, rng),
                grad: Tensor::zeros(&[1]),
                layer,
                gemm: None,
                useful_macs: 0,
                fwd_ms: 0.0,
                bwd_ms: 0.0,
            };
            shape = bind_grad(&mut p, rng, ws);
            out.push(p);
        }
    }
    out
}

/// Runs one forward to learn the output shape, seeds a matching gradient
/// and returns the shape.
fn bind_grad(p: &mut Probe, rng: &mut StdRng, ws: &mut Workspace) -> Vec<usize> {
    let y = p
        .layer
        .forward_batch(&p.input, BATCH, ws)
        .expect("probe input matches the layer");
    let shape = y.shape().to_vec();
    ws.give_tensor(y);
    p.grad = random(&shape, rng);
    shape
}

/// Median forward and backward ms of one probe over `reps` repetitions
/// (after one warm-up), each call in a span.
fn time_probe(
    p: &mut Probe,
    reps: usize,
    ws: &mut Workspace,
    tr: &mut Tracer,
    id: u64,
) -> (f64, f64) {
    let (fwd_name, bwd_name) = p.kind.spans();
    let (mut f, mut b) = (Vec::new(), Vec::new());
    for r in 0..=reps {
        let y = tr.span(fwd_name, id, || {
            p.layer.forward_batch(black_box(&p.input), BATCH, ws)
        });
        let fwd_ns = tr.last_ns();
        ws.give_tensor(y.expect("probe input matches the layer"));
        let dx = tr.span(bwd_name, id, || {
            p.layer.backward_batch(black_box(&p.grad), BATCH, ws)
        });
        let bwd_ns = tr.last_ns();
        ws.give_tensor(dx.expect("probe gradient matches the layer"));
        p.layer.zero_grads();
        if r > 0 {
            f.push(fwd_ns / 1e6);
            b.push(bwd_ns / 1e6);
        }
    }
    (median(&f), median(&b))
}

/// Median ns of `f` over `reps` calls after one warm-up, each in a span.
fn time_kernel(name: &'static str, reps: usize, tr: &mut Tracer, mut f: impl FnMut()) -> f64 {
    f();
    let mut ns = Vec::with_capacity(reps);
    for r in 0..reps {
        tr.span(name, r as u64, &mut f);
        ns.push(tr.last_ns());
    }
    median(&ns)
}

/// The workload's largest forward GEMM per sample, by MACs.
fn largest_gemm(probes: &[Probe]) -> Option<GemmShape> {
    probes
        .iter()
        .filter_map(|p| p.gemm)
        .max_by_key(GemmShape::macs)
}

/// The GEMM strategy the workload's largest batched forward product
/// resolves to on this host (`forced/selected`).
pub fn gemm_strategy() -> String {
    let (g_spec, d_spec) = networks();
    let mut rng = StdRng::seed_from_u64(0);
    let mut largest: Option<GemmShape> = None;
    for (spec, generator) in [(&g_spec, true), (&d_spec, false)] {
        let (net, bindings) = build_trainable_bound(spec, generator, false, &mut rng);
        for b in bindings {
            if let Some(g) = net.layer(b.train_index).gemm_shape() {
                if largest.is_none_or(|l| g.macs() > l.macs()) {
                    largest = Some(g);
                }
            }
        }
    }
    let g = largest.expect("the workload has GEMM layers");
    let selected = dispatch::select(
        dispatch::OpKind::Gemm,
        g.m as usize * BATCH,
        g.k as usize,
        g.n as usize,
    );
    format!("{:?}/{:?}", dispatch::forced(), selected)
}

/// Traced run: the decomposed step loop for `seconds`, every layer on its
/// own, the GEMM kernels, thread scaling of the largest T-CONV, and heap
/// allocations per step.
pub fn traced(seed: u64, seconds: f64, threads: usize, tr: &mut Tracer) -> Traced {
    parallel::with_threads(threads, || traced_at(seed, seconds, threads, tr))
}

fn traced_at(seed: u64, seconds: f64, threads: usize, tr: &mut Tracer) -> Traced {
    let data = real_batches(seed);
    let rule = UpdateRule::dcgan_adam(LR);
    let mut rng = StdRng::seed_from_u64(seed ^ NOISE_SALT);
    let mut gan = build_gan(seed);
    let mut checks: Vec<Check> = Vec::new();
    let mut bad = 0u64;

    // Warm the stacks' pools outside the trace.
    let mut scratch = Tracer::new();
    for s in 0..2u64 {
        let r = decomposed_step(
            &mut gan,
            &data[s as usize],
            s,
            &rule,
            &mut rng,
            &mut scratch,
        );
        bad += u64::from(!r.as_ref().is_ok_and(finite));
    }
    let t0 = Instant::now();
    let mut step = 2u64;
    while t0.elapsed().as_secs_f64() < seconds || step < 5 {
        let reals = &data[step as usize % DATA_BATCHES];
        tr.begin("gan.step", step);
        let r = decomposed_step(&mut gan, reals, step, &rule, &mut rng, tr);
        tr.end();
        bad += u64::from(!r.as_ref().is_ok_and(finite));
        step += 1;
    }
    let steps = (step - 2) as f64;
    checks.push(check(
        "train.traced_losses_finite",
        bad == 0,
        format!("{bad} of {step} decomposed steps failed or gave a non-finite loss"),
    ));
    let st = tr.self_times();
    let per_step = |name: &str| st.get(name).map_or(0.0, |s| s.self_ns as f64 / steps / 1e6);
    let step_durations = tr.durations_ns("gan.step");
    let op_mean_ms = step_durations.iter().sum::<f64>() / step_durations.len() as f64 / 1e6;
    let mut layers = vec![
        metric("gan.g.fwd_ms", per_step("gan.g.fwd"), "ms", Better::Lower),
        metric("gan.g.bwd_ms", per_step("gan.g.bwd"), "ms", Better::Lower),
        metric("gan.d.fwd_ms", per_step("gan.d.fwd"), "ms", Better::Lower),
        metric("gan.d.bwd_ms", per_step("gan.d.bwd"), "ms", Better::Lower),
        metric("gan.update_ms", per_step("gan.update"), "ms", Better::Lower),
        metric(
            "gan.step_glue_ms",
            per_step("gan.step"),
            "ms",
            Better::Lower,
        ),
    ];

    // Heap allocations of the program's own step, pools warm.
    for reals in &data[..2] {
        let _ = gan.train_step_batched(reals);
    }
    let before = alloc::allocations();
    const COUNTED: usize = 4;
    for reals in &data[..COUNTED] {
        let _ = gan.train_step_batched(reals);
    }
    let allocs_per_step = (alloc::allocations() - before) as f64 / COUNTED as f64;

    // Every layer on its own.
    let (g_spec, d_spec) = networks();
    let mut prng = StdRng::seed_from_u64(seed ^ INIT_SALT);
    let mut ws = Workspace::new();
    let mut all = probes(&g_spec, true, &mut prng, &mut ws);
    all.extend(probes(&d_spec, false, &mut prng, &mut ws));
    for (id, p) in all.iter_mut().enumerate() {
        let (f, b) = time_probe(p, PROBE_REPS, &mut ws, tr, id as u64);
        p.fwd_ms = f;
        p.bwd_ms = b;
    }
    for kind in Kind::ALL {
        let of_kind: Vec<&Probe> = all.iter().filter(|p| p.kind == kind).collect();
        let fwd: f64 = of_kind.iter().map(|p| p.fwd_ms).sum();
        let bwd: f64 = of_kind.iter().map(|p| p.bwd_ms).sum();
        layers.push(metric(
            format!("gan.{}.fwd_ms", kind.name()),
            fwd,
            "ms",
            Better::Lower,
        ));
        layers.push(metric(
            format!("gan.{}.bwd_ms", kind.name()),
            bwd,
            "ms",
            Better::Lower,
        ));
        if kind != Kind::NormAct {
            let macs: u128 = of_kind.iter().map(|p| p.executed_macs()).sum();
            let gflops = 2.0 * macs as f64 / ((fwd + bwd) * 1e6);
            layers.push(metric(
                format!("gan.{}.gflops", kind.name()),
                gflops,
                "GFLOP/s",
                Better::Higher,
            ));
        }
    }
    for kind in [Kind::Tconv, Kind::Dconv] {
        let of_kind = all.iter().filter(|p| p.kind == kind);
        let useful: u128 = of_kind.clone().map(|p| p.useful_macs).sum();
        let executed: u128 = of_kind.filter_map(|p| p.gemm).map(|g| g.macs()).sum();
        layers.push(metric(
            format!("gan.{}.useful_mac_frac", kind.name()),
            useful as f64 / executed.max(1) as f64,
            "fraction",
            Better::Higher,
        ));
    }

    // The analytic model of the same GAN, joined per op.
    let mut spec = GanSpec::parse("train_dcgan32", GENERATOR, DISCRIMINATOR, &[EXTENT, EXTENT])
        .expect("workload notation parses");
    spec.batch_size = BATCH;
    let model = LerGan::builder(&spec)
        .build()
        .map(|l| l.train_iterations(1));
    checks.push(check(
        "train.model_builds",
        model.is_ok(),
        model
            .as_ref()
            .err()
            .map_or(String::new(), |e| e.to_string()),
    ));
    let mut table = String::from(
        "| op | kind | fwd ms | bwd ms | executed MACs | GFLOP/s | model fwd ns | model err ns | model wgrad ns | model pJ |\n|---|---|---|---|---|---|---|---|---|---|\n",
    );
    for p in all.iter().filter(|p| p.kind != Kind::NormAct) {
        let phases = if p.generator {
            [Phase::GForward, Phase::GBackward, Phase::GWeightGrad]
        } else {
            [Phase::DForward, Phase::DBackward, Phase::DWeightGrad]
        };
        let (ns, pj) = match &model {
            Ok(r) => {
                let labels = phases.map(|ph| format!("{ph} L{}", p.layer_index));
                (
                    labels.clone().map(|l| r.op_latency.get(&l)),
                    labels.iter().map(|l| r.op_energy.get(l)).sum::<f64>(),
                )
            }
            Err(_) => ([0.0; 3], 0.0),
        };
        let measured = p.fwd_ms + p.bwd_ms;
        let macs = p.executed_macs();
        let gflops = 2.0 * macs as f64 / (measured * 1e6);
        let _ = writeln!(
            table,
            "| {} | {} | {:.4} | {:.4} | {} | {:.3} | {:.1} | {:.1} | {:.1} | {:.1} |",
            p.label,
            p.kind.name(),
            p.fwd_ms,
            p.bwd_ms,
            macs,
            gflops,
            ns[0],
            ns[1],
            ns[2],
            pj
        );
        layers.push(metric(
            format!("op.{}.measured_ms", p.label),
            measured,
            "ms",
            Better::Lower,
        ));
        layers.push(metric(
            format!("op.{}.macs", p.label),
            macs as f64,
            "count",
            Better::Lower,
        ));
        layers.push(metric(
            format!("op.{}.model_ns", p.label),
            ns.iter().sum(),
            "ns",
            Better::Lower,
        ));
        layers.push(metric(
            format!("op.{}.model_pj", p.label),
            pj,
            "pJ",
            Better::Lower,
        ));
    }

    // GEMM kernels at the largest forward and weight-gradient shapes.
    let g = largest_gemm(&all).expect("the workload has GEMM layers");
    let (m, k, n) = (g.m as usize, g.k as usize, g.n as usize);
    let mb = m * BATCH;
    let a = random(&[mb, k], &mut prng);
    let b = random(&[k, n], &mut prng);
    let mut out = vec![0.0f32; mb * n];
    let gemm_ns = time_kernel("tensor.gemm", PROBE_REPS, tr, || {
        gemm_into(black_box(&a), black_box(&b), &mut out)
    });
    // Weight gradient per sample: dY^T [n, m] times X [m, k].
    let dy_t = random(&[n, m], &mut prng);
    let x_t = random(&[k, m], &mut prng);
    let mut wgrad = vec![0.0f32; n * k];
    let gemm_nt_ns = time_kernel("tensor.gemm_nt", PROBE_REPS, tr, || {
        gemm_nt_into(black_box(&dy_t), black_box(&x_t), &mut wgrad)
    });
    layers.push(metric(
        "tensor.gemm.gflops",
        2.0 * (mb * k * n) as f64 / gemm_ns,
        "GFLOP/s",
        Better::Higher,
    ));
    layers.push(metric(
        "tensor.gemm_nt.gflops",
        2.0 * (n * m * k) as f64 / gemm_nt_ns,
        "GFLOP/s",
        Better::Higher,
    ));

    // Fwd+bwd of the largest T-CONV at one thread and at two.
    let big = all
        .iter_mut()
        .filter(|p| p.kind == Kind::Tconv)
        .max_by_key(|p| p.gemm.map_or(0, |g| g.macs()))
        .expect("the workload has T-CONV layers");
    let mut at = |t: usize| {
        parallel::with_threads(t, || {
            let (f, b) = time_probe(big, PROBE_REPS, &mut ws, tr, 1000 + t as u64);
            f + b
        })
    };
    let t1 = at(1);
    let t2 = at(2);
    layers.push(metric(
        "tensor.parallel.t2_speedup",
        t1 / t2,
        "x",
        Better::Higher,
    ));
    layers.push(metric(
        "tensor.allocs_per_step",
        allocs_per_step,
        "count",
        Better::Lower,
    ));

    checks.push(check(
        "train.layer_metrics_finite",
        layers.iter().all(|m| m.value.is_finite()),
        format!("{} train layer metrics at {threads} threads", layers.len()),
    ));
    Traced {
        layers,
        checks,
        table,
        op_mean_ms,
    }
}
