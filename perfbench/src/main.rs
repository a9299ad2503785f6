//! End-to-end and per-layer benchmark of the LerGAN reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train_dcgan32|model_eval|serve_faulty> \
//!     [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! ```
//!
//! An untraced run (`--trace 0`) measures one workload for `--seconds`,
//! runs its correctness checks and prints the end-to-end metrics. A traced
//! run (`--trace 1`) records spans around the benchmark's calls into every
//! layer of all three workloads and prints the per-layer metrics, plus
//! `trace_overhead_frac`: how much slower the requested workload's unit of
//! work ran traced than untraced. The last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`; the full
//! report, the spans and the per-op table go to `--out` (default
//! `perfbench/out`). A failed check makes the exit code 1.

mod alloc;
mod calib;
mod model;
mod report;
mod serve;
mod trace;
mod train;

use report::{
    check, checks_json, json_num, json_str, metric, metrics_json, peak_rss_mb, print_metrics,
    Better, Check, Host, Metric, Outcome,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;
/// Seconds measured when `--seconds` is absent.
const DEFAULT_SECONDS: f64 = 30.0;

const USAGE: &str = "usage: lergan-perfbench --workload <train_dcgan32|model_eval|serve_faulty> \
[--seed N] [--seconds S] [--trace 0|1] [--out DIR]";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Train,
    Model,
    Serve,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "train_dcgan32" => Some(Workload::Train),
            "model_eval" => Some(Workload::Model),
            "serve_faulty" => Some(Workload::Serve),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Train => "train_dcgan32",
            Workload::Model => "model_eval",
            Workload::Serve => "serve_faulty",
        }
    }

    /// Worker threads: `LERGAN_THREADS` when set, else the workload's own.
    fn threads(self) -> usize {
        let own = match self {
            Workload::Train => train::THREADS,
            Workload::Model => model::THREADS,
            Workload::Serve => serve::THREADS,
        };
        std::env::var("LERGAN_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(own)
    }

    /// Untraced run over `seconds`.
    fn measure(self, seed: u64, seconds: f64) -> Outcome {
        match self {
            Workload::Train => train::measure(seed, seconds, self.threads()),
            Workload::Model => model::measure(seconds, self.threads()),
            Workload::Serve => serve::measure(seed, seconds, self.threads()),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut out = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    while let Some(flag) = it.next() {
        let (key, inline) = match flag.split_once('=') {
            Some((k, v)) => (k.to_string(), Some(v.to_string())),
            None => (flag, None),
        };
        let value = match inline.or_else(|| it.next()) {
            Some(v) => v,
            None => return Err(format!("{key} needs a value")),
        };
        match key.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {key}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        out,
    })
}

/// What a run prints and writes.
struct Run {
    attempted: u64,
    failed: u64,
    checks: Vec<Check>,
    /// The workload's own end-to-end metrics (report file and table).
    named: Vec<Metric>,
    /// The metrics of the last output line.
    metrics: Vec<Metric>,
}

fn untraced(args: &Args) -> Run {
    let o = args.workload.measure(args.seed, args.seconds);
    let rss = peak_rss_mb();
    let mut named = o.named;
    named.push(metric("peak_rss_mb", rss, "MB", Better::Lower));
    let e = o.e2e;
    Run {
        attempted: o.attempted,
        failed: o.failed,
        checks: o.checks,
        named,
        metrics: vec![
            metric("setup_s", e.setup_s, "s", Better::Lower),
            metric(
                "throughput_per_s",
                e.throughput_per_s,
                "1/s",
                Better::Higher,
            ),
            metric("op_ms", e.op_ms, "ms", Better::Lower),
            metric("peak_rss_mb", rss, "MB", Better::Lower),
        ],
    }
}

/// Traced run: the requested workload untraced for the overhead base, then
/// every workload's traced pass. Budgets: the trainer loops get half of
/// `--seconds`, the model loops a quarter, the serve passes each stream
/// once.
fn traced(args: &Args) -> Run {
    let w = args.workload;
    let budget = match w {
        Workload::Train => args.seconds / 2.0,
        Workload::Model | Workload::Serve => args.seconds / 4.0,
    };
    let base = w.measure(args.seed, budget);
    let mut tr = trace::Tracer::new();
    let t = train::traced(
        args.seed,
        args.seconds / 2.0,
        Workload::Train.threads(),
        &mut tr,
    );
    let m = model::traced(args.seconds / 4.0, Workload::Model.threads(), &mut tr);
    let s = serve::traced(args.seed, Workload::Serve.threads(), &mut tr);
    let traced_mean = match w {
        Workload::Train => t.op_mean_ms,
        Workload::Model => m.op_mean_ms,
        Workload::Serve => s.op_mean_ms,
    };
    let overhead = traced_mean / base.op_mean_ms - 1.0;

    let stem = format!("{}-seed{}", w.name(), args.seed);
    write(&args.out, &format!("spans-{stem}.json"), &tr.to_json());
    write(&args.out, &format!("op_table-{stem}.md"), &t.table);
    println!(
        "per-op table (train_dcgan32, batch {}):\n{}",
        train::BATCH,
        t.table
    );

    let mut checks = base.checks;
    let mut metrics = Vec::new();
    for part in [t, m, s] {
        checks.extend(part.checks);
        metrics.extend(part.layers);
    }
    metrics.push(metric(
        "trace_overhead_frac",
        overhead,
        "fraction",
        Better::Lower,
    ));
    Run {
        attempted: base.attempted,
        failed: base.failed,
        checks,
        named: base.named,
        metrics,
    }
}

/// Writes one output file; a failure is reported, not fatal.
fn write(dir: &Path, name: &str, body: &str) {
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(dir.join(name), body))
    {
        eprintln!(
            "perfbench: could not write {}: {e}",
            dir.join(name).display()
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut run = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    let non_finite: Vec<&str> = run
        .metrics
        .iter()
        .chain(&run.named)
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name.as_str())
        .collect();
    let finite = check(
        "metrics_finite",
        non_finite.is_empty(),
        format!("non-finite: {non_finite:?}"),
    );
    run.checks.push(finite);
    let correct = run.checks.iter().all(|c| c.ok) && run.attempted > 0;

    let host = Host::detect(args.workload.threads(), train::gemm_strategy());
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host {}", host.to_json());
    for c in &run.checks {
        println!(
            "check {:<48} {} {}",
            c.name,
            if c.ok { "ok  " } else { "FAIL" },
            c.detail
        );
    }
    print_metrics(&format!("{} end-to-end", args.workload.name()), &run.named);
    if args.trace {
        print_metrics("per-layer (traced)", &run.metrics);
    }
    let report = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"checks\": {}, \"named\": {}, \"metrics\": {}}}\n",
        json_str(args.workload.name()),
        args.seed,
        json_num(args.seconds),
        u8::from(args.trace),
        host.to_json(),
        correct,
        run.attempted,
        run.failed,
        checks_json(&run.checks),
        metrics_json(&run.named, true),
        metrics_json(&run.metrics, true),
    );
    write(
        &args.out,
        &format!(
            "report-{}-seed{}-trace{}.json",
            args.workload.name(),
            args.seed,
            u8::from(args.trace)
        ),
        &report,
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.attempted,
        run.failed,
        metrics_json(&run.metrics, false)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
