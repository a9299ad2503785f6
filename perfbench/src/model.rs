//! `model_eval`: the analytic PIM model alone. A closed loop over a grid of
//! the ten benchmark GANs (eight Table V + two extended) × eight LerGAN
//! configurations, plus the PRIME, PRIME-NS, GPU and FPGA baselines for
//! each GAN. It runs the compiler, ZFDR plans, mapping, schedule lowering,
//! the sim engine and the NoC/ReRAM cost model, and never the trainer.

use crate::report::{
    check, geomean, median, metric, percentile, Better, Check, EndToEnd, Outcome, Traced,
};
use crate::calib;
use crate::trace::Tracer;
use lergan_baselines::{BaselineReport, FpgaGan, GpuPlatform, Prime};
use lergan_core::compiler::{self, PhaseDegrees};
use lergan_core::lergan::CostModel;
use lergan_core::schedule::lower_iteration;
use lergan_core::{
    CompilerOptions, Connection, LerGan, ReplicaDegree, ReshapeScheme, ScheduleContext,
    TrainingReport, ZfdrPlan,
};
use lergan_gan::{benchmarks, GanSpec, Phase, WorkloadKind};
use lergan_noc::{DcuPair, NocConfig};
use lergan_reram::ReramConfig;
use lergan_tensor::parallel;
use std::collections::{BTreeSet, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Worker threads of the workload (`LERGAN_THREADS` overrides).
pub const THREADS: usize = 1;
/// Iterations simulated per LerGAN eval.
const ITERATIONS: usize = 10;
/// Set-ups per run, spread evenly over it; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Tail percentile of the eval time.
const TAIL_Q: f64 = 0.99;
/// Eval timings reserved per run (well above what a 30 s run produces).
const EVAL_SAMPLES_RESERVED: usize = 1 << 17;

/// One LerGAN configuration of the grid.
#[derive(Debug, Clone, Copy)]
struct Config {
    scheme: ReshapeScheme,
    connection: Connection,
    degree: ReplicaDegree,
}

const fn cfg(scheme: ReshapeScheme, connection: Connection, degree: ReplicaDegree) -> Config {
    Config {
        scheme,
        connection,
        degree,
    }
}

use Connection::{HTree, ThreeD};
use ReplicaDegree::{High, Low, Middle, NoDuplication};
use ReshapeScheme::{Normal, Zfdr};

const CONFIGS: [Config; 8] = [
    cfg(Zfdr, HTree, NoDuplication),
    cfg(Zfdr, ThreeD, NoDuplication),
    cfg(Zfdr, HTree, Low),
    cfg(Zfdr, ThreeD, Low),
    cfg(Zfdr, ThreeD, Middle),
    cfg(Zfdr, ThreeD, High),
    cfg(Normal, HTree, Low),
    cfg(Normal, ThreeD, Low),
];
/// LerGAN-low: ZFDR + 3D + low duplication.
const LERGAN_LOW: usize = 3;
/// NR + H-tree + low, the configuration LerGAN-low must never lose to.
const NR_HTREE_LOW: usize = 6;

#[derive(Debug, Clone, Copy)]
enum Baseline {
    Prime,
    PrimeNs,
    Gpu,
    Fpga,
}

const BASELINES: [Baseline; 4] = [
    Baseline::Prime,
    Baseline::PrimeNs,
    Baseline::Gpu,
    Baseline::Fpga,
];

impl Baseline {
    fn run(self, gan: &GanSpec) -> BaselineReport {
        match self {
            Baseline::Prime => Prime::new().train_iteration(gan),
            Baseline::PrimeNs => Prime::normalized_space().train_iteration(gan),
            Baseline::Gpu => GpuPlatform::new().train_iteration(gan),
            Baseline::Fpga => FpgaGan::new().train_iteration(gan),
        }
    }

    fn span(self) -> &'static str {
        match self {
            Baseline::Prime | Baseline::PrimeNs => "baselines.prime",
            Baseline::Gpu => "baselines.gpu",
            Baseline::Fpga => "baselines.fpga",
        }
    }
}

/// One grid point.
#[derive(Debug, Clone, Copy)]
enum Eval {
    LerGan(usize, usize),
    Baseline(usize, Baseline),
}

/// What an eval produced.
enum EvalReport {
    LerGan(Box<(LerGan, TrainingReport)>),
    Baseline(BaselineReport),
    Failed(String),
}

/// The GAN set: Table V then the extended-grammar benchmarks.
fn gans() -> Vec<GanSpec> {
    let mut g = benchmarks::all();
    g.extend(benchmarks::extended());
    g
}

fn grid(gans: usize) -> Vec<Eval> {
    let mut g = Vec::with_capacity(gans * (CONFIGS.len() + BASELINES.len()));
    for gi in 0..gans {
        g.extend((0..CONFIGS.len()).map(|c| Eval::LerGan(gi, c)));
        g.extend(BASELINES.map(|b| Eval::Baseline(gi, b)));
    }
    g
}

fn builder(gan: &GanSpec, c: Config) -> lergan_core::LerGanBuilder {
    LerGan::builder(gan)
        .reshape_scheme(c.scheme)
        .connection(c.connection)
        .replica_degree(c.degree)
}

/// Runs one eval, optionally with spans around its calls.
fn run_eval(e: Eval, gans: &[GanSpec], tr: Option<&mut Tracer>, id: u64) -> EvalReport {
    match (e, tr) {
        (Eval::LerGan(gi, c), None) => match builder(&gans[gi], CONFIGS[c]).build() {
            Ok(l) => {
                let r = l.train_iterations(ITERATIONS);
                EvalReport::LerGan(Box::new((l, r)))
            }
            Err(err) => EvalReport::Failed(err.to_string()),
        },
        (Eval::LerGan(gi, c), Some(tr)) => {
            let b = builder(&gans[gi], CONFIGS[c]);
            match tr.span("core.build", id, || b.build()) {
                Ok(l) => {
                    let r = tr.span("core.train_iterations", id, || {
                        l.train_iterations(ITERATIONS)
                    });
                    EvalReport::LerGan(Box::new((l, r)))
                }
                Err(err) => EvalReport::Failed(err.to_string()),
            }
        }
        (Eval::Baseline(gi, b), None) => EvalReport::Baseline(b.run(&gans[gi])),
        (Eval::Baseline(gi, b), Some(tr)) => {
            EvalReport::Baseline(tr.span(b.span(), id, || b.run(&gans[gi])))
        }
    }
}

/// Latency and energy per iteration (ns, pJ) when both are finite and
/// positive.
fn figures(r: &EvalReport) -> Option<(f64, f64)> {
    let (ns, pj) = match r {
        EvalReport::LerGan(b) => (
            b.1.iteration_latency_ns,
            b.1.total_energy_pj / b.1.iterations as f64,
        ),
        EvalReport::Baseline(b) => (b.iteration_latency_ns, b.iteration_energy_pj),
        EvalReport::Failed(_) => return None,
    };
    (ns.is_finite() && ns > 0.0 && pj.is_finite() && pj > 0.0).then_some((ns, pj))
}

/// FNV-1a over every number an eval reports, for the bit-identity check.
fn fingerprint(r: &EvalReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: f64| {
        for byte in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    match r {
        EvalReport::LerGan(b) => {
            let r = &b.1;
            eat(r.iteration_latency_ns);
            eat(r.total_energy_pj);
            for (_, v) in r
                .op_latency
                .iter()
                .chain(r.op_energy.iter())
                .chain(r.phase_latency.iter())
            {
                eat(v);
            }
            eat(r.counts.crossbar_mmv_ops as f64);
        }
        EvalReport::Baseline(b) => {
            eat(b.iteration_latency_ns);
            eat(b.iteration_energy_pj);
        }
        EvalReport::Failed(_) => eat(f64::NAN),
    }
    h
}

/// The reference pass: every eval once, with the checks that need whole
/// reports, and the deterministic model figures.
struct Reference {
    fingerprints: Vec<u64>,
    failed: u64,
    checks: Vec<Check>,
    sim_iter_ms: f64,
    sim_energy_mj: f64,
}

fn reference_pass(gans: &[GanSpec], grid: &[Eval]) -> Reference {
    let mut fingerprints = Vec::with_capacity(grid.len());
    let mut failed = 0u64;
    let mut errors = Vec::new();
    let mut missing_ops = Vec::new();
    let mut latency = vec![[0.0f64; CONFIGS.len()]; gans.len()];
    let mut low = (Vec::new(), Vec::new());
    for &e in grid {
        let r = run_eval(e, gans, None, 0);
        fingerprints.push(fingerprint(&r));
        let fig = figures(&r);
        failed += u64::from(fig.is_none());
        if let EvalReport::Failed(err) = &r {
            errors.push(format!("{e:?}: {err}"));
        }
        if let (Eval::LerGan(gi, c), EvalReport::LerGan(b)) = (e, &r) {
            let (l, rep) = &**b;
            let keys: BTreeSet<&str> = rep.op_latency.iter().map(|(k, _)| k).collect();
            for op in l.compiled().graph.ops() {
                let label = format!("{} L{}", op.phase, op.layer_index);
                if !keys.contains(label.as_str()) {
                    missing_ops.push(format!("{} {label}", gans[gi].name));
                }
            }
            latency[gi][c] = rep.iteration_latency_ns;
            if c == LERGAN_LOW {
                if let Some((ns, pj)) = fig {
                    low.0.push(ns / 1e6);
                    low.1.push(pj / 1e9);
                }
            }
        }
    }
    let slower: Vec<&str> = gans
        .iter()
        .zip(&latency)
        .filter(|(_, l)| l[LERGAN_LOW].is_nan() || l[LERGAN_LOW] > l[NR_HTREE_LOW])
        .map(|(g, _)| g.name.as_str())
        .collect();
    let checks = vec![
        check(
            "model.reference_pass_builds",
            errors.is_empty(),
            format!("build errors: {errors:?}"),
        ),
        check(
            "model.op_latency_covers_every_op",
            missing_ops.is_empty(),
            format!("missing: {missing_ops:?}"),
        ),
        check(
            "model.zfdr_3d_low_not_slower_than_nr_htree_low",
            slower.is_empty(),
            format!("slower on: {slower:?}"),
        ),
    ];
    Reference {
        fingerprints,
        failed,
        checks,
        sim_iter_ms: geomean(&low.0),
        sim_energy_mj: geomean(&low.1),
    }
}

/// One set-up: the GAN set, the grid and its reference pass, and how long
/// they took.
fn set_up() -> (Vec<GanSpec>, Vec<Eval>, Reference, f64) {
    let t0 = Instant::now();
    let gans = gans();
    let grid = grid(gans.len());
    let reference = reference_pass(&gans, &grid);
    (gans, grid, reference, t0.elapsed().as_secs_f64())
}

/// Untraced run: `setup_s` (GAN set + one reference pass over the grid),
/// then whole passes of the grid until `seconds` have elapsed, each eval
/// timed and compared bit for bit with the reference pass. The set-ups
/// after the first are spread over the run, between passes and outside
/// their timing, so that their median does not hang on how busy the host
/// was in the run's first second.
pub fn measure(seconds: f64, threads: usize) -> Outcome {
    parallel::with_threads(threads, || measure_at(seconds, threads))
}

fn measure_at(seconds: f64, threads: usize) -> Outcome {
    let timed_set_up = || {
        calib::bracketed(threads, || {
            let (gans, grid, reference, s) = set_up();
            ((gans, grid, reference), s)
        })
    };
    // Set-up times at nominal host speed.
    let ((gans, grid, reference), first) = timed_set_up();
    let mut setup = Vec::with_capacity(SETUP_REPS);
    setup.push(first);
    let mut setups_differ = 0u64;
    let mut set_up_again = |setup: &mut Vec<f64>| {
        let ((_, _, again), s) = timed_set_up();
        setup.push(s);
        setups_differ += u64::from(again.fingerprints != reference.fingerprints);
    };

    // Reserved up front: a growing sample vector would make peak RSS
    // depend on how fast the host ran.
    let mut eval_ms = Vec::with_capacity(EVAL_SAMPLES_RESERVED);
    // Mean eval ms of each whole pass over the grid, at nominal host speed,
    // and the reference kernel's ms after each pass.
    let mut pass_eval_ms = Vec::new();
    let mut host_ref_ms = Vec::new();
    let mut failed = 0u64;
    let mut diverged = 0u64;
    let t0 = Instant::now();
    while pass_eval_ms.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        let mut pass_ms = 0.0;
        for (i, &e) in grid.iter().enumerate() {
            let t = Instant::now();
            let r = run_eval(e, &gans, None, i as u64);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            eval_ms.push(ms);
            pass_ms += ms;
            failed += u64::from(figures(&r).is_none());
            diverged += u64::from(fingerprint(black_box(&r)) != reference.fingerprints[i]);
        }
        let (adjusted, r) = calib::adjusted(pass_ms / grid.len() as f64, threads);
        pass_eval_ms.push(adjusted);
        host_ref_ms.push(r);
        let due = setup.len() as f64 * seconds / SETUP_REPS as f64;
        if setup.len() < SETUP_REPS && t0.elapsed().as_secs_f64() >= due {
            set_up_again(&mut setup);
        }
    }
    while setup.len() < SETUP_REPS {
        set_up_again(&mut setup);
    }
    let passes = pass_eval_ms.len();
    let n = eval_ms.len();
    let evals_per_s = n as f64 * 1e3 / eval_ms.iter().sum::<f64>();
    let p50 = median(&eval_ms);
    let tail = percentile(&eval_ms, TAIL_Q);
    let setup_s = median(&setup);
    // Eval costs cluster by GAN and config, so the median of single evals
    // sits in a gap between clusters and jumps with noise; the median over
    // whole passes of the mean eval time does not.
    let op_ms = median(&pass_eval_ms);
    let mut checks = vec![
        check(
            "model.reports_finite_positive",
            failed == 0 && reference.failed == 0,
            format!(
                "{failed} of {n} timed evals and {} of {} reference evals failed",
                reference.failed,
                grid.len()
            ),
        ),
        check(
            "model.passes_bit_identical",
            diverged == 0 && setups_differ == 0,
            format!(
                "{diverged} of {n} evals over {passes} passes and {setups_differ} of {} later \
                 reference passes differ from the first reference pass",
                SETUP_REPS - 1
            ),
        ),
    ];
    checks.extend(reference.checks);
    Outcome {
        attempted: n as u64,
        failed,
        checks,
        named: vec![
            metric("setup_s", setup_s, "s", Better::Lower),
            metric("model_evals_per_s", evals_per_s, "evals/s", Better::Higher),
            metric("eval_ms_p50", p50, "ms", Better::Lower),
            metric("eval_ms_p99", tail, "ms", Better::Lower),
            metric("eval_samples", n as f64, "count", Better::Higher),
            metric("host_ref_ms", median(&host_ref_ms), "ms", Better::Lower),
            metric(
                "sim_iter_ms",
                reference.sim_iter_ms,
                "sim-ms",
                Better::Lower,
            ),
            metric(
                "sim_energy_mj",
                reference.sim_energy_mj,
                "sim-mJ",
                Better::Lower,
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
            throughput_per_s: 1e3 / op_ms,
            op_ms,
        },
        op_mean_ms: eval_ms.iter().sum::<f64>() / n as f64,
    }
}

/// The schedule context `LerGan::train_iterations` lowers, rebuilt from
/// the accelerator's public parts and the builder's default configs.
struct Context {
    allocs: HashMap<Phase, lergan_core::TileAllocation>,
    pair: DcuPair,
    reram: ReramConfig,
    noc: NocConfig,
    cost: CostModel,
}

impl Context {
    fn of(l: &LerGan) -> Self {
        let noc = NocConfig::default();
        Context {
            allocs: Phase::ALL
                .iter()
                .map(|&p| (p, l.allocation(p).clone()))
                .collect(),
            pair: DcuPair::with_faults(&noc, l.faults().links()),
            reram: ReramConfig::default(),
            noc,
            cost: CostModel::default(),
        }
    }
}

/// Every public ZFDR plan constructor the GAN's zero-inserted workloads
/// call for, in op order; returns how many plans were built.
fn zfdr_plans(l: &LerGan) -> usize {
    let mut built = 0;
    for op in l.compiled().graph.ops() {
        match &op.workload.kind {
            WorkloadKind::Dense => {}
            WorkloadKind::TconvInput(g) => {
                black_box(ZfdrPlan::for_tconv(g));
                built += 1;
            }
            WorkloadKind::WconvKernel(g) => {
                black_box(ZfdrPlan::for_wconv(g));
                built += 1;
            }
            WorkloadKind::DconvKernel(g) => {
                black_box(ZfdrPlan::for_dconv(&g.rows));
                black_box(ZfdrPlan::for_dconv(&g.cols));
                built += 2;
            }
        }
    }
    built
}

/// Traced run: whole passes of the grid for `seconds`. Each eval is a
/// `model.eval` span around `core.build` + `core.train_iterations` (or one
/// baseline call); beside it, the LerGAN evals' stages are driven on their
/// own: `core.compile`, `core.zfdr.plan`, `core.schedule.lower`, `sim.run`.
pub fn traced(seconds: f64, threads: usize, tr: &mut Tracer) -> Traced {
    parallel::with_threads(threads, || traced_at(seconds, tr))
}

fn traced_at(seconds: f64, tr: &mut Tracer) -> Traced {
    let gans = gans();
    let grid = grid(gans.len());
    let reram = ReramConfig::default();
    let mut checks = Vec::new();
    let mut bad = 0u64;
    let mut mismatched = Vec::new();
    let mut tasks_per_pass = 0u64;
    let (mut sim_tasks, mut sim_ns) = (0u64, 0.0f64);
    let mut passes = 0u64;
    let mut id = 0u64;
    let t0 = Instant::now();
    while passes == 0 || t0.elapsed().as_secs_f64() < seconds {
        for &e in &grid {
            tr.begin("model.eval", id);
            let r = run_eval(e, &gans, Some(&mut *tr), id);
            tr.end();
            bad += u64::from(figures(&r).is_none());
            if let (Eval::LerGan(gi, c), EvalReport::LerGan(b)) = (e, &r) {
                let (l, rep) = &**b;
                let c = CONFIGS[c];
                let options = CompilerOptions {
                    scheme: c.scheme,
                    degree: c.degree,
                    connection: c.connection,
                    phase_degrees: PhaseDegrees::none(),
                };
                tr.span("core.compile", id, || {
                    black_box(compiler::compile(&gans[gi], options, &reram))
                });
                tr.span("core.zfdr.plan", id, || zfdr_plans(l));
                let cx = Context::of(l);
                let ctx = ScheduleContext {
                    gan: l.gan(),
                    compiled: l.compiled(),
                    allocs: &cx.allocs,
                    pair: &cx.pair,
                    reram: &cx.reram,
                    noc: &cx.noc,
                    cost: &cx.cost,
                };
                let lowered = tr.span("core.schedule.lower", id, || lower_iteration(&ctx));
                let schedule = tr.span("sim.run", id, || lowered.engine.run());
                sim_ns += tr.last_ns();
                match schedule {
                    Ok(s) => {
                        sim_tasks += s.len() as u64;
                        if passes == 0 {
                            tasks_per_pass += s.len() as u64;
                        }
                        if s.makespan_ns().to_bits() != rep.iteration_latency_ns.to_bits() {
                            mismatched.push(format!("{} {:?}", gans[gi].name, c));
                        }
                    }
                    Err(err) => mismatched.push(format!("{}: {err}", gans[gi].name)),
                }
            }
            id += 1;
        }
        passes += 1;
    }
    checks.push(check(
        "model.traced_reports_finite_positive",
        bad == 0,
        format!("{bad} of {id} traced evals failed"),
    ));
    checks.push(check(
        "model.outside_schedule_matches_report",
        mismatched.is_empty(),
        format!(
            "lowered + run from outside vs train_iterations latency; mismatches: {mismatched:?}"
        ),
    ));

    // Deterministic counts of LerGAN-low over the GAN set.
    let (mut useful, mut dense) = (0u128, 0u128);
    let (mut crossbar_ops, mut moved) = (0u128, 0u128);
    for g in &gans {
        if let Ok(l) = builder(g, CONFIGS[LERGAN_LOW]).build() {
            let compiled = l.compiled();
            for op in compiled.graph.ops() {
                if !matches!(op.workload.kind, WorkloadKind::Dense) {
                    useful += op.workload.macs_useful;
                    dense += op.workload.macs_dense;
                }
            }
            moved += compiled
                .phases
                .iter()
                .map(|p| p.moved_values_per_sample())
                .sum::<u128>();
            crossbar_ops += l.train_iterations(1).counts.crossbar_mmv_ops;
        }
    }

    let st = tr.self_times();
    let mean = |name: &str| st.get(name).map_or(0.0, |s| s.mean_ms());
    let evals = tr.durations_ns("model.eval");
    let op_mean_ms = evals.iter().sum::<f64>() / evals.len() as f64 / 1e6;
    let layers = vec![
        metric("core.compile_ms", mean("core.compile"), "ms", Better::Lower),
        metric(
            "core.zfdr.plan_ms",
            mean("core.zfdr.plan"),
            "ms",
            Better::Lower,
        ),
        metric("core.build_ms", mean("core.build"), "ms", Better::Lower),
        metric(
            "core.schedule.lower_ms",
            mean("core.schedule.lower"),
            "ms",
            Better::Lower,
        ),
        metric("sim.run_ms", mean("sim.run"), "ms", Better::Lower),
        metric("sim.tasks", tasks_per_pass as f64, "count", Better::Lower),
        metric(
            "sim.host_ns_per_task",
            sim_ns / sim_tasks.max(1) as f64,
            "ns",
            Better::Lower,
        ),
        metric(
            "core.zfdr.useful_mac_frac",
            useful as f64 / dense.max(1) as f64,
            "fraction",
            Better::Higher,
        ),
        metric(
            "reram.crossbar_ops",
            crossbar_ops as f64,
            "count",
            Better::Lower,
        ),
        metric("noc.moved_values", moved as f64, "count", Better::Lower),
        metric(
            "baselines.prime_ms",
            mean("baselines.prime"),
            "ms",
            Better::Lower,
        ),
        metric(
            "baselines.gpu_ms",
            mean("baselines.gpu"),
            "ms",
            Better::Lower,
        ),
        metric(
            "baselines.fpga_ms",
            mean("baselines.fpga"),
            "ms",
            Better::Lower,
        ),
    ];
    Traced {
        layers,
        checks,
        table: String::new(),
        op_mean_ms,
    }
}
