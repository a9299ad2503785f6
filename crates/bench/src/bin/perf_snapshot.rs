//! Wall-clock performance snapshot of the zero-free execution and the
//! training substrate, written to `BENCH_zfdr.json`.
//!
//! Times six workloads with `std::time::Instant`:
//!
//! * T-CONV through the phase-class lowering (`PhaseConv`, buffers held
//!   across calls as the trainer holds them), the zero-insertion
//!   reference, and a faithful copy of the original lazy per-position
//!   ZFDR implementation pinned below as the baseline,
//! * the W-CONV-S weight gradient (same variants; the lowering's `∇W`
//!   reads the columns its S-CONV forward gathered, so its entry times
//!   both),
//! * D-CONV dilated convolution: the lowering against the naive
//!   zero-inserted-kernel formulation,
//! * S-CONV through im2col + GEMM,
//! * every GEMM execution strategy (`direct`, `packed`, `simd`), the
//!   shape-adaptive `dispatch` that picks among them, and the pre-packing
//!   kernel preserved in [`lergan_bench::naive`], on the dominant GEMM
//!   shape of every Table V benchmark GAN,
//! * the `mmv` row-dot kernel on an FC-discriminator-head shape,
//! * one full DCGAN training step on the reduced 16 px networks.
//!
//! Each conv workload is timed at one worker thread and at the
//! configured thread count (`LERGAN_THREADS` or the host parallelism),
//! so the snapshot records both algorithmic and threading speedups —
//! except on single-core hosts, where the thread-scaling speedup key
//! becomes an object carrying the `skipped_single_core` marker *and*
//! the 1-thread measurement it is based on, so the trajectory stays
//! comparable across hosts instead of a meaningless 1.00 or a dropped
//! entry. When the output file already exists, its 1-thread
//! `gan_train_step_16px/full` time is read back first and the new
//! snapshot records the ratio as `gan_train_step_vs_previous`.
//!
//! Usage: `perf_snapshot [output.json]` (default `BENCH_zfdr.json`).

use lergan_bench::harness::time_ns;
use lergan_bench::naive;
use lergan_core::ZfdrPlan;
use lergan_gan::benchmarks;
use lergan_gan::ir::OpGraph;
use lergan_gan::topology::parse_network;
use lergan_gan::train::{build_trainable_with, pack_batch, Gan, UpdateRule};
use lergan_tensor::conv::{tconv_forward_zero_insert, wconv_weight_grad_zero_insert};
use lergan_tensor::dconv::dconv_zero_insertion;
use lergan_tensor::dispatch::{with_strategy, ForcedStrategy};
use lergan_tensor::im2col::conv2d_gemm;
use lergan_tensor::tensor::{gemm, mmv};
use lergan_tensor::zero_free::PhaseConv;
use lergan_tensor::{parallel, SconvGeometry, TconvGeometry, Tensor, WconvGeometry, Workspace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Duration;

fn det(shape: &[usize], seed: u32) -> Tensor {
    let mut state = seed.wrapping_mul(747796405).wrapping_add(1);
    Tensor::from_fn(shape, |_| {
        state = state.wrapping_mul(1664525).wrapping_add(1013904223);
        ((state >> 16) as f32 / 65536.0) - 0.5
    })
}

/// Measurement window of [`time_ns`]'s calibration and timing runs.
const WINDOW: Duration = Duration::from_millis(70);

// ---------------------------------------------------------------------
// Faithful copy of the original per-position ZFDR implementation (lazy
// HashMap materialisation, per-position pattern clones, bounds-checked
// multi-index gathers). Kept verbatim so the snapshot always measures
// the batched path against the same baseline, independent of how the
// library's reference path evolves.
// ---------------------------------------------------------------------

fn seed_tconv(input: &Tensor, weights: &Tensor, geom: &TconvGeometry) -> Tensor {
    let (oc, ic) = (weights.shape()[0], weights.shape()[1]);
    let plan = ZfdrPlan::for_tconv(geom);
    let o = geom.output;
    let p = geom.insertion_pad;
    let s = geom.converse_stride;
    let mut out = Tensor::zeros(&[oc, o, o]);
    let mut matrices: HashMap<(usize, usize), Tensor> = HashMap::new();
    for oy in 0..o {
        let rc = plan.class_at(oy);
        let pr = plan.axis_classes()[rc].pattern.clone();
        for ox in 0..o {
            let cc = plan.class_at(ox);
            let pc = plan.axis_classes()[cc].pattern.clone();
            if pr.is_empty() || pc.is_empty() {
                continue;
            }
            let matrix = matrices.entry((rc, cc)).or_insert_with(|| {
                let cols = pr.len() * pc.len() * ic;
                Tensor::from_fn(&[oc, cols], |idx| {
                    let (row, col) = (idx[0], idx[1]);
                    let ci = col % ic;
                    let kxi = (col / ic) % pc.len();
                    let kyi = col / (ic * pc.len());
                    weights[&[row, ci, pr[kyi], pc[kxi]]]
                })
            });
            let mut vec = Vec::with_capacity(pr.len() * pc.len() * ic);
            for &ky in &pr {
                let iy = (oy + ky - p) / s;
                for &kx in &pc {
                    let ix = (ox + kx - p) / s;
                    for ci in 0..ic {
                        vec.push(input[&[ci, iy, ix]]);
                    }
                }
            }
            let result = naive::mmv(matrix, &vec);
            for (co, &v) in result.iter().enumerate() {
                out[&[co, oy, ox][..]] = v;
            }
        }
    }
    out
}

fn seed_wconv(input: &Tensor, dout: &Tensor, geom: &WconvGeometry) -> Tensor {
    let f = geom.forward;
    let (ic, oc) = (input.shape()[0], dout.shape()[0]);
    let plan = ZfdrPlan::for_wconv(geom);
    let w = geom.gradient_extent();
    let mut dw = Tensor::zeros(&[oc, ic, w, w]);
    let mut matrices: HashMap<(usize, usize), Tensor> = HashMap::new();
    for wy in 0..w {
        let rc = plan.class_at(wy);
        let pr = plan.axis_classes()[rc].pattern.clone();
        for wx in 0..w {
            let cc = plan.class_at(wx);
            let pc = plan.axis_classes()[cc].pattern.clone();
            if pr.is_empty() || pc.is_empty() {
                continue;
            }
            let matrix = matrices.entry((rc, cc)).or_insert_with(|| {
                Tensor::from_fn(&[oc, pr.len() * pc.len()], |idx| {
                    let (row, col) = (idx[0], idx[1]);
                    let oxi = col % pc.len();
                    let oyi = col / pc.len();
                    dout[&[row, pr[oyi], pc[oxi]]]
                })
            });
            for ci in 0..ic {
                let mut vec = Vec::with_capacity(pr.len() * pc.len());
                for &oh in &pr {
                    let iy = wy + oh * f.stride - f.pad;
                    for &ow in &pc {
                        let ix = wx + ow * f.stride - f.pad;
                        vec.push(input[&[ci, iy, ix]]);
                    }
                }
                let result = naive::mmv(matrix, &vec);
                for (co, &v) in result.iter().enumerate() {
                    dw[&[co, ci, wy, wx][..]] = v;
                }
            }
        }
    }
    dw
}

/// A one-sample lowered forward with its buffers held across calls, as
/// the trainer holds them.
struct Lowered {
    conv: PhaseConv,
    cols: Vec<f32>,
    out: Vec<f32>,
    ws: Workspace,
}

impl Lowered {
    fn new(conv: PhaseConv) -> Self {
        let (oh, ow) = conv.output_extent();
        Lowered {
            cols: vec![0.0; conv.cols_len(1)],
            out: vec![0.0; conv.maps() * oh * ow],
            ws: Workspace::new(),
            conv,
        }
    }

    fn forward(&mut self, input: &Tensor, weights: &[f32]) {
        self.conv.forward(
            input.data(),
            1,
            weights,
            &mut self.cols,
            &mut self.out,
            &mut self.ws,
        );
    }
}

struct Entry {
    name: String,
    threads: usize,
    ns: f64,
}

/// The 1-thread `gan_train_step_16px/full` time recorded in a previous
/// snapshot at `path`, if one exists in this tool's output format.
fn previous_train_step_ns(path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    for line in text.lines() {
        if line.contains("\"gan_train_step_16px/full\"") && line.contains("\"threads\": 1") {
            let key = "\"ns_per_iter\": ";
            let start = line.find(key)? + key.len();
            let rest = &line[start..];
            let end = rest
                .find(|c: char| !(c.is_ascii_digit() || c == '.'))
                .unwrap_or(rest.len());
            return rest[..end].parse().ok();
        }
    }
    None
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_zfdr.json".to_string());
    let previous_step_ns = previous_train_step_ns(&out_path);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = parallel::current_threads();
    let mut entries: Vec<Entry> = Vec::new();
    let mut record = |name: &str, t: usize, ns: f64| {
        println!("{name:44} threads={t}  {ns:>12.0} ns/iter");
        entries.push(Entry {
            name: name.to_string(),
            threads: t,
            ns,
        });
    };

    // Times `f` at one worker thread and at the configured count.
    let at_thread_counts = |f: &mut dyn FnMut()| {
        let counts = if threads == 1 {
            vec![1]
        } else {
            vec![1, threads]
        };
        counts
            .into_iter()
            .map(|t| (t, parallel::with_threads(t, || time_ns(WINDOW, &mut *f))))
            .collect::<Vec<_>>()
    };

    // T-CONV at the CONV1 bench geometry (16 in / 8 out channels).
    let geom = TconvGeometry::for_upsampling(4, 5, 2).unwrap();
    let input = det(&[16, 4, 4], 1);
    let weights = det(&[8, 16, 5, 5], 2);
    let ns = time_ns(WINDOW, || {
        black_box(seed_tconv(black_box(&input), black_box(&weights), &geom));
    });
    record("tconv_conv1_16x8ch/seed_per_position", 1, ns);
    for (t, ns) in at_thread_counts(&mut || {
        black_box(tconv_forward_zero_insert(
            black_box(&input),
            black_box(&weights),
            &geom,
        ));
    }) {
        record("tconv_conv1_16x8ch/zero_insert", t, ns);
    }
    let mut conv1 = Lowered::new(PhaseConv::tconv(16, 8, &geom));
    for (t, ns) in at_thread_counts(&mut || conv1.forward(black_box(&input), weights.data())) {
        record("tconv_conv1_16x8ch/phase_conv", t, ns);
    }

    // T-CONV at realistic mid-network channel counts.
    let geom_w = TconvGeometry::for_upsampling(16, 5, 2).unwrap();
    let input_w = det(&[64, 16, 16], 5);
    let weights_w = det(&[32, 64, 5, 5], 6);
    let ns = time_ns(WINDOW, || {
        black_box(seed_tconv(
            black_box(&input_w),
            black_box(&weights_w),
            &geom_w,
        ));
    });
    record("tconv_16to32_64x32ch/seed_per_position", 1, ns);
    let mut wide = Lowered::new(PhaseConv::tconv(64, 32, &geom_w));
    for (t, ns) in at_thread_counts(&mut || wide.forward(black_box(&input_w), weights_w.data())) {
        record("tconv_16to32_64x32ch/phase_conv", t, ns);
    }

    // W-CONV-S weight gradient. The lowering's ∇W reads the columns its
    // S-CONV forward gathered, so its entry times both.
    let geom_g = WconvGeometry::new(8, 5, 2, 2).unwrap();
    let input_g = det(&[8, 8, 8], 3);
    let dout_g = det(&[8, 4, 4], 4);
    let ns = time_ns(WINDOW, || {
        black_box(seed_wconv(black_box(&input_g), black_box(&dout_g), &geom_g));
    });
    record("wconv_8x8_8ch/seed_per_position", 1, ns);
    for (t, ns) in at_thread_counts(&mut || {
        black_box(wconv_weight_grad_zero_insert(
            black_box(&input_g),
            black_box(&dout_g),
            &geom_g,
        ));
    }) {
        record("wconv_8x8_8ch/zero_insert", t, ns);
    }
    let mut wconv = Lowered::new(PhaseConv::sconv(8, 8, &geom_g.forward));
    let fwd_weights = vec![0.0; wconv.conv.weight_len()];
    let mut dw = vec![0.0; wconv.conv.weight_len()];
    for (t, ns) in at_thread_counts(&mut || {
        wconv.forward(black_box(&input_g), &fwd_weights);
        wconv
            .conv
            .weight_grad_partials(&wconv.cols, black_box(dout_g.data()), 1, &mut dw);
    }) {
        record("wconv_8x8_8ch/phase_conv", t, ns);
    }

    // D-CONV: the lowering, which gathers only the true taps, against the
    // naive formulation that materialises the zero-inserted dilated
    // kernel (the EcoFlow dual of T-CONV's zero-inserted input). Geometry
    // mirrors the ResDilatedGAN refiner block: 3x3 kernel at dilation 2
    // over a 16 px plane, extent-preserving.
    let geom_d = {
        let axis = lergan_tensor::DconvAxis::for_target(16, 3, 1, 2, 16)
            .expect("stride-1 dilated conv keeps the extent");
        lergan_tensor::DconvGeometry::new(axis, axis)
    };
    let input_d = det(&[16, 16, 16], 9);
    let weights_d = det(&[16, 16, 3, 3], 10);
    for (t, ns) in at_thread_counts(&mut || {
        black_box(dconv_zero_insertion(
            black_box(&input_d),
            black_box(&weights_d),
            &geom_d,
        ));
    }) {
        record("dconv_16px_16x16ch_d2/zero_inserted", t, ns);
    }
    let mut dconv = Lowered::new(PhaseConv::dconv(16, 16, &geom_d));
    for (t, ns) in at_thread_counts(&mut || dconv.forward(black_box(&input_d), weights_d.data())) {
        record("dconv_16px_16x16ch_d2/zero_free", t, ns);
    }

    // S-CONV through im2col + GEMM (discriminator-style layer).
    let geom_s = SconvGeometry::new(16, 5, 2, 2).unwrap();
    let input_s = det(&[32, 16, 16], 7);
    let weights_s = det(&[32, 32, 5, 5], 8);
    for (t, ns) in at_thread_counts(&mut || {
        black_box(conv2d_gemm(
            black_box(&input_s),
            black_box(&weights_s),
            &geom_s,
        ));
    }) {
        record("sconv_16px_32x32ch/im2col_gemm", t, ns);
    }

    // Every GEMM strategy, the shape-adaptive dispatch, and the
    // pre-packing naive kernel on the dominant (largest-MAC) im2col shape
    // of every Table V benchmark GAN, dimensions clamped so the sweep
    // stays fast while preserving each topology's aspect mix. The
    // dispatch entries are the ones CI gates on: the committed
    // `dispatch_thresholds.json` must keep `dispatch` at or ahead of
    // `naive` on every one of these shapes.
    let mut gemm_ratios: Vec<f64> = Vec::new();
    for spec in benchmarks::all() {
        let Some(shape) = OpGraph::build(&spec)
            .ops()
            .iter()
            .map(|op| op.gemm)
            .max_by_key(|g| g.macs())
        else {
            continue;
        };
        let clamp = |d: u128| (d as usize).clamp(1, 192);
        let (m, k, n) = (clamp(shape.m), clamp(shape.k), clamp(shape.n));
        let a = det(&[m, k], 31);
        let b = det(&[k, n], 32);
        let slug: String = spec
            .name
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '_'
                }
            })
            .collect();
        let forced_ns = |fs: ForcedStrategy| {
            parallel::with_threads(1, || {
                with_strategy(fs, || {
                    time_ns(WINDOW, || {
                        black_box(gemm(black_box(&a), black_box(&b)));
                    })
                })
            })
        };
        let direct_ns = forced_ns(ForcedStrategy::Direct);
        let packed_ns = forced_ns(ForcedStrategy::Packed);
        let simd_ns = forced_ns(ForcedStrategy::Simd);
        let dispatch_ns = forced_ns(ForcedStrategy::Auto);
        let naive_ns = parallel::with_threads(1, || {
            time_ns(WINDOW, || {
                black_box(naive::gemm(black_box(&a), black_box(&b)));
            })
        });
        record(&format!("gemm_{slug}_{m}x{k}x{n}/direct"), 1, direct_ns);
        record(&format!("gemm_{slug}_{m}x{k}x{n}/packed"), 1, packed_ns);
        record(&format!("gemm_{slug}_{m}x{k}x{n}/simd"), 1, simd_ns);
        record(&format!("gemm_{slug}_{m}x{k}x{n}/dispatch"), 1, dispatch_ns);
        record(&format!("gemm_{slug}_{m}x{k}x{n}/naive"), 1, naive_ns);
        if dispatch_ns > 0.0 {
            gemm_ratios.push(naive_ns / dispatch_ns);
        }
    }
    let gemm_geomean = if gemm_ratios.is_empty() {
        1.0
    } else {
        (gemm_ratios.iter().map(|r| r.ln()).sum::<f64>() / gemm_ratios.len() as f64).exp()
    };

    // The mmv row-dot kernel on an FC-discriminator-head shape.
    let mmv_mat = det(&[64, 1024], 33);
    let mmv_vec: Vec<f32> = det(&[1024], 34).data().to_vec();
    let ns = parallel::with_threads(1, || {
        time_ns(WINDOW, || {
            black_box(mmv(black_box(&mmv_mat), black_box(&mmv_vec)));
        })
    });
    record("mmv_fc_64x1024/direct", 1, ns);

    // One full DCGAN training step on the reduced 16 px networks.
    let mut rng = StdRng::seed_from_u64(1);
    let gen_spec = parse_network("g", "8f-(8t-4t)(3k2s)-t1", 2, 16).unwrap();
    let disc_spec = parse_network("d", "(1c-8c)(3k2s)-f1", 2, 16).unwrap();
    let g = build_trainable_with(&gen_spec, true, false, &mut rng);
    let d = build_trainable_with(&disc_spec, false, false, &mut rng);
    let mut gan = Gan::new(g, d, 8, 0.01, 2).with_optimizer(UpdateRule::dcgan_adam(0.01));
    let reals = pack_batch(&[
        Tensor::filled(&[1, 16, 16], 0.5),
        Tensor::filled(&[1, 16, 16], 0.5),
    ])
    .expect("same-shaped samples");
    for (t, ns) in at_thread_counts(&mut || {
        black_box(gan.train_step_batched(black_box(&reals)).unwrap());
    }) {
        record("gan_train_step_16px/full", t, ns);
    }

    let find = |name: &str, t: usize| {
        entries
            .iter()
            .find(|e| e.name == name && e.threads == t)
            .map(|e| e.ns)
    };
    let seed_conv1 = find("tconv_conv1_16x8ch/seed_per_position", 1);
    let phase_conv1 = find("tconv_conv1_16x8ch/phase_conv", 1);
    let speedup_conv1 = match (seed_conv1, phase_conv1) {
        (Some(s), Some(b)) if b > 0.0 => s / b,
        _ => 0.0,
    };
    let zero_insert_conv1 = find("tconv_conv1_16x8ch/zero_insert", 1);
    let zero_free_vs_zero_insert = match (zero_insert_conv1, phase_conv1) {
        (Some(r), Some(b)) if b > 0.0 => r / b,
        _ => 0.0,
    };
    // Thread-scaling numbers are meaningless on a single-core host (the
    // "multi" run is the same 1-worker run), so record the marker with
    // the 1-thread measurement it would have been computed from — the
    // entry stays in the trajectory instead of being dropped.
    let thread_scaling_json = if cores == 1 || threads == 1 {
        let one = phase_conv1.unwrap_or(0.0);
        format!("{{ \"marker\": \"skipped_single_core\", \"one_thread_ns\": {one:.0} }}")
    } else {
        let phase_multi = find("tconv_conv1_16x8ch/phase_conv", threads);
        let thread_speedup = match (phase_conv1, phase_multi) {
            (Some(one), Some(multi)) if multi > 0.0 => one / multi,
            _ => 1.0,
        };
        format!("{thread_speedup:.2}")
    };
    let dconv_naive = find("dconv_16px_16x16ch_d2/zero_inserted", 1);
    let dconv_free = find("dconv_16px_16x16ch_d2/zero_free", 1);
    let dconv_speedup = match (dconv_naive, dconv_free) {
        (Some(n), Some(f)) if f > 0.0 => n / f,
        _ => 0.0,
    };
    let step_ns = find("gan_train_step_16px/full", 1);
    let step_vs_previous = match (previous_step_ns, step_ns) {
        (Some(prev), Some(now)) if now > 0.0 => prev / now,
        _ => 1.0,
    };

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"host\": {{ \"cores\": {cores}, \"configured_threads\": {threads} }},\n"
    ));
    json.push_str("  \"results\": [\n");
    for (i, e) in entries.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"name\": \"{}\", \"threads\": {}, \"ns_per_iter\": {:.0} }}{}\n",
            e.name,
            e.threads,
            e.ns,
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"speedups\": {{\n    \"tconv_conv1_phase_conv_vs_seed_1thread\": {speedup_conv1:.2},\n    \"tconv_conv1_zero_free_vs_zero_insert\": {zero_free_vs_zero_insert:.2},\n    \"tconv_conv1_phase_conv_multi_vs_1thread\": {thread_scaling_json},\n    \"dconv_zero_free_vs_naive\": {dconv_speedup:.2},\n    \"gemm_dispatch_vs_naive_geomean\": {gemm_geomean:.2},\n    \"gan_train_step_vs_previous\": {step_vs_previous:.2}\n  }}\n"
    ));
    json.push_str("}\n");
    std::fs::write(&out_path, &json).expect("write snapshot");
    println!("\nphase conv vs seed per-position (CONV1, 1 thread): {speedup_conv1:.2}x");
    println!("zero-free vs zero insertion (CONV1, 1 thread):    {zero_free_vs_zero_insert:.2}x");
    println!("phase conv {threads} threads vs 1 thread (CONV1):     {thread_scaling_json}");
    println!("dconv zero-free vs zero-inserted (d=2, 16 px):    {dconv_speedup:.2}x");
    println!("dispatch vs naive GEMM (geomean over Table V):    {gemm_geomean:.2}x");
    println!("train step vs previous snapshot (1 thread):       {step_vs_previous:.2}x");
    println!("wrote {out_path}");
}
