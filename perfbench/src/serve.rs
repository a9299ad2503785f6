//! `serve_faulty`: the serving runtime over a faulty fleet. Open-loop
//! Poisson streams of DCGAN + cGAN fine-tuning jobs arrive in simulated
//! time at ρ = 0.8 of fleet capacity; the host runs each simulation as
//! fast as it can. Every pair carries stuck-at faults, wear and a flaky
//! NoC, so each job pays the fault-aware rebuild in
//! `SelfHealingRuntime::new`, the ABFT checks, the recovery ladder and
//! link retransmits.
//!
//! The traffic is ten independent streams of 110 jobs, each served by a
//! fresh fleet: 1,100 jobs in all, so the pooled p99 sojourn has ten jobs
//! beyond it. Short simulations give the host-side metrics a percentile
//! over many samples instead of one long sample.

use crate::report::{
    beyond, check, median, metric, Better, EndToEnd, Outcome, Traced,
};
use crate::calib;
use crate::trace::Tracer;
use lergan_core::{LinkChaos, RecoveryPolicy, SelfHealingRuntime, SystemFaults};
use lergan_gan::Phase;
use lergan_reram::{FaultMap, WearModel};
use lergan_serve::job::{batch, batch_seed, job_trainer, run_standalone};
use lergan_serve::{AdmissionPolicy, JobSpec, PlanCache, ServeConfig, ServeReport, ServeRuntime};
use lergan_tensor::parallel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Worker threads of the workload (`LERGAN_THREADS` overrides).
pub const THREADS: usize = 2;
const PAIRS: usize = 3;
const TENANTS: u32 = 3;
/// DCGAN and cGAN, by Table V order.
const TOPOLOGIES: [usize; 2] = [0, 1];
const STEPS: u64 = 10;
/// Independent arrival streams, each on a fresh fleet.
const STREAMS: usize = 10;
const JOBS_PER_STREAM: u64 = 110;
/// Offered load as a fraction of the fleet's fault-free capacity.
const RHO: f64 = 0.8;
const DEADLINE_SLACK: f64 = 25.0;
const QUEUE_DEPTH: usize = 8;
const TENANT_QUOTA: usize = 4;
const FAULT_RATE: f64 = 5e-4;
/// Write endurance `(mean, spread)` of every pair's cells.
const WEAR: (u64, f64) = (400, 1.3);
/// Per-wire flip and drop probabilities per transfer attempt.
const LINK_FLIP_RATE: f64 = 2e-3;
const LINK_DROP_RATE: f64 = 5e-4;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Repetitions of each single-call probe.
const PROBE_REPS: u64 = 40;

const ARRIVAL_SALT: u64 = 0xA441_5EED_0000_0001;
const FAULT_SALT: u64 = 0xFA01_5EED_0000_0002;
const LINK_SALT: u64 = 0x1114_5EED_0000_0003;

/// Seed of stream `i` of workload seed `seed` (SplitMix64 finaliser).
fn stream_seed(seed: u64, i: usize) -> u64 {
    let mut z = seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The fleet of one stream: faults, wear and link hazards seeded from it.
fn config(stream: u64) -> ServeConfig {
    ServeConfig {
        admission: AdmissionPolicy {
            max_queue_depth: QUEUE_DEPTH,
            per_tenant_quota: TENANT_QUOTA,
        },
        seed: stream ^ FAULT_SALT,
        ..ServeConfig::pristine(PAIRS)
    }
    .with_fault_rate(FAULT_RATE)
    .with_wear(WEAR.0, WEAR.1)
    .with_link_chaos(LinkChaos {
        seed: stream ^ LINK_SALT,
        flip_rate: LINK_FLIP_RATE,
        drop_rate: LINK_DROP_RATE,
        burst: None,
    })
}

/// Arrival rate offering `RHO` of the fleet's fault-free capacity, from
/// the mean service time of the traffic mix (compiles both plans).
fn arrival_rate(plans: &mut PlanCache) -> Result<f64, String> {
    let mut iter_ns = 0.0;
    for &t in &TOPOLOGIES {
        iter_ns += plans.iteration_ns(t).map_err(|e| e.to_string())?;
    }
    let service_s = STEPS as f64 * iter_ns / TOPOLOGIES.len() as f64 / 1e9;
    Ok(RHO * PAIRS as f64 / service_s)
}

/// One stream's jobs: exponential inter-arrival gaps at `rate` jobs per
/// simulated second; tenant, topology and job seed drawn per job.
fn jobs(stream: u64, rate: f64) -> Vec<JobSpec> {
    let mut rng = StdRng::seed_from_u64(stream ^ ARRIVAL_SALT);
    let per_ns = rate / 1e9;
    let mut t = 0.0f64;
    (0..JOBS_PER_STREAM)
        .map(|id| {
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / per_ns;
            JobSpec {
                id,
                tenant: rng.gen::<u32>() % TENANTS,
                topology: TOPOLOGIES[(rng.gen::<u32>() % TOPOLOGIES.len() as u32) as usize],
                steps: STEPS,
                seed: rng.gen(),
                arrival_ns: t,
                deadline_slack: Some(DEADLINE_SLACK),
            }
        })
        .collect()
}

/// One stream ready to serve.
struct Stream {
    jobs: Vec<JobSpec>,
    runtime: ServeRuntime,
}

/// One set-up: plan compiles, the ten streams and their fleets, and a
/// warm-up job of each topology trained standalone.
fn prepare(seed: u64) -> Result<(PlanCache, Vec<Stream>), String> {
    let mut plans = PlanCache::table_v();
    let rate = arrival_rate(&mut plans)?;
    let streams: Vec<Stream> = (0..STREAMS)
        .map(|i| {
            let s = stream_seed(seed, i);
            Stream {
                jobs: jobs(s, rate),
                runtime: ServeRuntime::new(config(s)),
            }
        })
        .collect();
    for &t in &TOPOLOGIES {
        if let Some(job) = streams[0].jobs.iter().find(|j| j.topology == t) {
            black_box(run_standalone(job));
        }
    }
    Ok((plans, streams))
}

/// The report with its per-job final checkpoints folded into one digest,
/// so the ten streams' reports stay small while a repeat can still be
/// compared bit for bit.
fn slim(mut r: ServeReport) -> (ServeReport, u64) {
    let digest = std::mem::take(&mut r.outcomes)
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, (id, ckpt)| {
            (h ^ id ^ ckpt.payload_digest()).wrapping_mul(0x0100_0000_01b3)
        });
    (r, digest)
}

/// Conservation, and no job stranded on a quarantined fleet.
fn conservation(r: &ServeReport) -> Result<(), String> {
    r.check_conservation()?;
    if r.stranded > 0 {
        return Err(format!("{} jobs stranded", r.stranded));
    }
    Ok(())
}

/// The ten streams' reports as one: counters and busy/wall time summed,
/// sojourn latencies pooled and sorted.
fn pooled<'a>(reports: impl Iterator<Item = &'a ServeReport>) -> ServeReport {
    let mut p = ServeReport {
        pairs: PAIRS as u64,
        ..ServeReport::default()
    };
    for r in reports {
        p.submitted += r.submitted;
        p.admitted += r.admitted;
        p.shed_queue_full += r.shed_queue_full;
        p.shed_quota += r.shed_quota;
        p.shed_deadline += r.shed_deadline;
        p.completed += r.completed;
        p.failed += r.failed;
        p.stranded += r.stranded;
        p.job_retries += r.job_retries;
        p.requeued += r.requeued;
        p.deadline_misses += r.deadline_misses;
        p.quarantined_pairs += r.quarantined_pairs;
        p.wall_ns += r.wall_ns;
        p.busy_ns += r.busy_ns;
        p.latencies_ns.extend_from_slice(&r.latencies_ns);
        p.healing.add(&r.healing);
        p.plan_hits += r.plan_hits;
        p.plan_misses += r.plan_misses;
    }
    p.latencies_ns.sort_by(f64::total_cmp);
    p
}

/// Untraced run: `setup_s`, then simulations of the streams in turn —
/// all ten at least, more while the next one still fits in `seconds`. A
/// repeated stream must reproduce its first report exactly.
pub fn measure(seed: u64, seconds: f64, threads: usize) -> Outcome {
    parallel::with_threads(threads, || measure_at(seed, seconds, threads))
}

fn measure_at(seed: u64, seconds: f64, threads: usize) -> Outcome {
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        let (p, s) = calib::bracketed(threads, || {
            let t0 = Instant::now();
            let p = prepare(seed);
            (p, t0.elapsed().as_secs_f64())
        });
        setup.push(s);
        kept = Some(p);
    }
    let (mut plans, streams) = match kept.expect("at least one set-up") {
        Ok(p) => p,
        Err(e) => {
            return Outcome {
                attempted: 1,
                failed: 1,
                checks: vec![check("serve.setup", false, e)],
                ..Outcome::default()
            }
        }
    };

    let mut reports: Vec<(ServeReport, u64)> = Vec::with_capacity(STREAMS);
    let mut host_ms_per_job = Vec::new();
    // Host ms per job at nominal host speed: a simulation spans a second or
    // more, so it is scaled by the mean of the reference kernel runs just
    // before and just after it.
    let mut adjusted_ms_per_job = Vec::new();
    let mut host_ref_ms = vec![calib::reference_ms(threads)];
    let (mut attempted, mut failed, mut repeats_differ) = (0u64, 0u64, 0u64);
    let (mut completed, mut total_host_s) = (0u64, 0.0f64);
    let mut checks = Vec::new();
    let t0 = Instant::now();
    for k in 0.. {
        let elapsed = t0.elapsed().as_secs_f64();
        if k >= STREAMS && elapsed + elapsed / k as f64 > seconds {
            break;
        }
        let s = &streams[k % STREAMS];
        let jobs = s.jobs.clone();
        let t = Instant::now();
        let r = s.runtime.run(jobs, &mut plans);
        let host_s = t.elapsed().as_secs_f64();
        let r = match r {
            Ok(r) => r,
            Err(e) => {
                checks.push(check("serve.run", false, e.to_string()));
                attempted += JOBS_PER_STREAM;
                failed += JOBS_PER_STREAM;
                break;
            }
        };
        attempted += r.submitted;
        failed += r.failed + r.stranded;
        let ms_per_job = host_s * 1e3 / r.completed.max(1) as f64;
        let before = host_ref_ms[host_ref_ms.len() - 1];
        let after = calib::reference_ms(threads);
        host_ref_ms.push(after);
        host_ms_per_job.push(ms_per_job);
        adjusted_ms_per_job.push(ms_per_job * calib::NOMINAL_MS * 2.0 / (before + after));
        completed += r.completed;
        total_host_s += host_s;
        let r = slim(r);
        match reports.get(k % STREAMS) {
            Some(first) => repeats_differ += u64::from(*first != r),
            None => reports.push(r),
        }
    }
    let broken: Vec<String> = reports
        .iter()
        .filter_map(|(r, _)| conservation(r).err())
        .collect();
    checks.push(check(
        "serve.conservation_no_stranded",
        broken.is_empty() && reports.len() == STREAMS,
        format!("{} streams; {broken:?}", reports.len()),
    ));
    checks.push(check(
        "serve.repeats_identical",
        repeats_differ == 0,
        format!(
            "{} simulations, {repeats_differ} repeats differ from their stream's first",
            host_ms_per_job.len()
        ),
    ));
    let all = pooled(reports.iter().map(|(r, _)| r));
    let setup_s = median(&setup);
    let op_ms = median(&adjusted_ms_per_job);
    Outcome {
        attempted,
        failed,
        checks,
        named: vec![
            metric("setup_s", setup_s, "s", Better::Lower),
            metric(
                "serve_jobs_per_s",
                completed as f64 / total_host_s,
                "jobs/s",
                Better::Higher,
            ),
            metric(
                "serve_sim_p50_ms",
                all.p50_ns() / 1e6,
                "sim-ms",
                Better::Lower,
            ),
            metric(
                "serve_sim_p99_ms",
                all.p99_ns() / 1e6,
                "sim-ms",
                Better::Lower,
            ),
            metric(
                "completed_jobs",
                all.completed as f64,
                "count",
                Better::Higher,
            ),
            metric(
                "sojourn_p99_samples_beyond",
                beyond(all.latencies_ns.len(), 0.99) as f64,
                "count",
                Better::Higher,
            ),
            metric("shed_frac", all.shed_rate(), "fraction", Better::Lower),
            metric(
                "failed_frac",
                failed as f64 / attempted.max(1) as f64,
                "fraction",
                Better::Lower,
            ),
            metric(
                "simulations",
                host_ms_per_job.len() as f64,
                "count",
                Better::Higher,
            ),
            metric("host_ref_ms", median(&host_ref_ms), "ms", Better::Lower),
        ],
        e2e: EndToEnd {
            setup_s,
            throughput_per_s: 1e3 / op_ms,
            op_ms,
        },
        op_mean_ms: host_ms_per_job.iter().sum::<f64>() / host_ms_per_job.len().max(1) as f64,
    }
}

/// Traced run: cold plan compiles, the ten streams once each on a cold
/// plan cache, then pair 0's self-healing runtime (stream 0's fleet) and
/// the per-sample trainer driven on their own.
pub fn traced(seed: u64, threads: usize, tr: &mut Tracer) -> Traced {
    parallel::with_threads(threads, || traced_at(seed, tr))
}

fn traced_at(seed: u64, tr: &mut Tracer) -> Traced {
    let mut checks = Vec::new();
    let mut compile_ns = Vec::new();
    for rep in 0..3 {
        let mut cold = PlanCache::table_v();
        for &t in &TOPOLOGIES {
            let r = tr.span("serve.plan.compile", rep, || cold.plan(t));
            compile_ns.push(tr.last_ns());
            if let Err(e) = r {
                checks.push(check("serve.plan.compile", false, e.to_string()));
            }
        }
    }

    let mut plans = PlanCache::table_v();
    let rate = arrival_rate(&mut PlanCache::table_v()).unwrap_or(1.0);
    let mut reports = Vec::with_capacity(STREAMS);
    let mut host_ms_per_job = Vec::with_capacity(STREAMS);
    for i in 0..STREAMS {
        let s = stream_seed(seed, i);
        let runtime = ServeRuntime::new(config(s));
        let stream = jobs(s, rate);
        match tr.span("serve.run", i as u64, || runtime.run(stream, &mut plans)) {
            Ok(r) => {
                host_ms_per_job.push(tr.last_ns() / 1e6 / r.completed.max(1) as f64);
                reports.push(r);
            }
            Err(e) => checks.push(check("serve.traced_run", false, e.to_string())),
        }
    }
    let rep = pooled(reports.iter());
    let ok = conservation(&rep);
    checks.push(check(
        "serve.traced_conservation_no_stranded",
        ok.is_ok() && reports.len() == STREAMS,
        ok.err().unwrap_or_default(),
    ));

    // Pair 0 of stream 0's fleet, seeded exactly as the runtime seeds it.
    let cfg = config(stream_seed(seed, 0));
    let mut faults = SystemFaults::none();
    *faults.bank_mut(Phase::GForward) = FaultMap::seeded(cfg.seed, cfg.fault_rate, cfg.fault_cells);
    let wear = WearModel::new(WEAR.0, WEAR.1, cfg.seed);
    let chaos = cfg.link.expect("the faulty fleet has a link model");
    let spec = plans.spec(TOPOLOGIES[0]).clone();
    let policy = RecoveryPolicy::default();
    let mut probe_rng = StdRng::seed_from_u64(seed ^ ARRIVAL_SALT ^ FAULT_SALT);
    let mut runtime_probe = None;
    for r in 0..5 {
        let trainer = job_trainer(probe_rng.gen());
        let built = tr.span("core.recovery.new", r, || {
            SelfHealingRuntime::new(&spec, trainer, faults.clone(), policy, wear)
        });
        runtime_probe = Some(built);
    }
    let job_seed: u64 = probe_rng.gen();
    let mut step_errors = 0u64;
    match runtime_probe.expect("five builds") {
        Ok(rt) => {
            let mut rt = rt.with_link(chaos.transients(0));
            let mut rng = StdRng::seed_from_u64(batch_seed(job_seed));
            for s in 0..PROBE_REPS {
                let reals = batch(&mut rng);
                let r = tr.span("core.recovery.step", s, || rt.step(&reals));
                step_errors += u64::from(r.is_err());
            }
        }
        Err(e) => checks.push(check("core.recovery.new", false, e.to_string())),
    }
    checks.push(check(
        "core.recovery.probe_steps",
        step_errors == 0,
        format!("{step_errors} of {PROBE_REPS} self-healed steps failed"),
    ));

    let mut trainer = job_trainer(job_seed);
    let mut rng = StdRng::seed_from_u64(batch_seed(job_seed));
    let mut bad = 0u64;
    for s in 0..PROBE_REPS {
        let reals = batch(&mut rng);
        let stats = tr.span("gan.train_step", s, || trainer.train_step(&reals));
        bad += u64::from(!(stats.d_loss.is_finite() && stats.g_loss.is_finite()));
        let ckpt = tr.span("gan.checkpoint", s, || trainer.checkpoint());
        let restored = tr.span("gan.restore", s, || trainer.restore(&ckpt));
        bad += u64::from(restored.is_err());
    }
    checks.push(check(
        "serve.trainer_probe",
        bad == 0,
        format!("{bad} non-finite steps or failed restores"),
    ));

    let st = tr.self_times();
    let mean = |name: &str| st.get(name).map_or(0.0, |s| s.mean_ms());
    let lookups = rep.plan_hits + rep.plan_misses;
    let h = rep.healing;
    let layers = vec![
        metric(
            "serve.plan.compile_ms",
            median(&compile_ns) / 1e6,
            "ms",
            Better::Lower,
        ),
        metric(
            "serve.plan.hit_rate",
            rep.plan_hits as f64 / lookups.max(1) as f64,
            "fraction",
            Better::Higher,
        ),
        metric("serve.run_ms", mean("serve.run"), "ms", Better::Lower),
        metric(
            "serve.utilisation",
            rep.utilisation(),
            "fraction",
            Better::Higher,
        ),
        metric(
            "serve.shed_queue_full",
            rep.shed_queue_full as f64,
            "count",
            Better::Lower,
        ),
        metric(
            "serve.shed_quota",
            rep.shed_quota as f64,
            "count",
            Better::Lower,
        ),
        metric(
            "serve.shed_deadline",
            rep.shed_deadline as f64,
            "count",
            Better::Lower,
        ),
        metric(
            "serve.job_retries",
            rep.job_retries as f64,
            "count",
            Better::Lower,
        ),
        metric(
            "serve.requeued",
            rep.requeued as f64,
            "count",
            Better::Lower,
        ),
        metric(
            "serve.quarantined_pairs",
            rep.quarantined_pairs as f64,
            "count",
            Better::Lower,
        ),
        metric(
            "core.recovery.new_ms",
            mean("core.recovery.new"),
            "ms",
            Better::Lower,
        ),
        metric(
            "core.recovery.step_ms",
            mean("core.recovery.step"),
            "ms",
            Better::Lower,
        ),
        metric(
            "core.recovery.detected",
            h.detected as f64,
            "count",
            Better::Lower,
        ),
        metric(
            "core.recovery.corrected",
            h.corrected as f64,
            "count",
            Better::Lower,
        ),
        metric(
            "core.recovery.remapped",
            h.remapped as f64,
            "count",
            Better::Lower,
        ),
        metric(
            "core.recovery.rolled_back",
            h.rolled_back as f64,
            "count",
            Better::Lower,
        ),
        metric(
            "core.link.retransmitted",
            h.retransmitted as f64,
            "count",
            Better::Lower,
        ),
        metric(
            "core.link.quarantined",
            h.link_quarantined as f64,
            "count",
            Better::Lower,
        ),
        metric(
            "gan.train_step_ms",
            mean("gan.train_step"),
            "ms",
            Better::Lower,
        ),
        metric(
            "gan.checkpoint_ms",
            mean("gan.checkpoint"),
            "ms",
            Better::Lower,
        ),
        metric("gan.restore_ms", mean("gan.restore"), "ms", Better::Lower),
    ];
    Traced {
        layers,
        checks,
        table: String::new(),
        op_mean_ms: host_ms_per_job.iter().sum::<f64>() / host_ms_per_job.len().max(1) as f64,
    }
}
