//! What a run reports: metrics with units and better directions,
//! correctness checks, order statistics, the host block, and the JSON
//! the run prints and writes.

use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub better: Better,
}

/// Shorthand constructor.
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str, better: Better) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        better,
    }
}

/// One correctness check and what it saw.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// Shorthand constructor.
pub fn check(name: &'static str, ok: bool, detail: impl Into<String>) -> Check {
    Check {
        name,
        ok,
        detail: detail.into(),
    }
}

/// The end-to-end metrics every workload reports under one name, so that
/// each run prints the same set. All times are at nominal host speed (see
/// `calib`): `setup_s` is the median set-up, `op_ms` the median unit of work
/// — one train step, one model-grid pass's mean eval, or one served
/// stream's host ms per completed job — and `throughput_per_s` the samples,
/// evals or jobs per second at that median.
#[derive(Debug, Clone, Copy, Default)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub throughput_per_s: f64,
    pub op_ms: f64,
}

/// Result of one untraced workload run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (train steps, evals, submitted jobs).
    pub attempted: u64,
    /// Of those, operations that failed.
    pub failed: u64,
    pub checks: Vec<Check>,
    /// The workload's own metrics, under the names the workload defines.
    pub named: Vec<Metric>,
    pub e2e: EndToEnd,
    /// Mean host time of one operation (ms), the base of the trace
    /// overhead.
    pub op_mean_ms: f64,
}

/// Result of one traced layer pass.
#[derive(Debug, Clone, Default)]
pub struct Traced {
    pub layers: Vec<Metric>,
    pub checks: Vec<Check>,
    /// A side-by-side table the pass writes out (markdown; may be empty).
    pub table: String,
    /// Mean host time of one traced operation (ms), same unit of work as
    /// [`Outcome::op_mean_ms`].
    pub op_mean_ms: f64,
}

/// Median of unsorted values (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile `q ∈ (0, 1]` of unsorted values (0 for an empty
/// slice).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `q` of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Geometric mean of positive values (0 for an empty slice).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host a run measured on.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub lergan_threads_env: String,
    pub threads: usize,
    pub gemm_strategy: String,
    pub avx: bool,
    pub rustc: &'static str,
    pub commit: String,
}

impl Host {
    /// Describes this host; `threads` is the worker count the workload ran
    /// with and `gemm_strategy` the strategy its largest GEMM resolves to.
    pub fn detect(threads: usize, gemm_strategy: String) -> Self {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            lergan_threads_env: std::env::var("LERGAN_THREADS").unwrap_or_else(|_| "unset".into()),
            threads,
            gemm_strategy,
            avx: lergan_tensor::dispatch::simd_available(),
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
            commit: commit(),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"LERGAN_THREADS\": {}, \"threads\": {}, \"gemm_strategy\": {}, \"avx\": {}, \"rustc\": {}, \"commit\": {}}}",
            self.nproc,
            json_str(&self.lergan_threads_env),
            self.threads,
            json_str(&self.gemm_strategy),
            self.avx,
            json_str(self.rustc),
            json_str(&self.commit)
        )
    }
}

/// The commit of the checked-out tree, or `unknown` outside a git work
/// tree (a plain export of the sources).
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit the value carries; non-finite values,
/// which JSON cannot hold, become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// `{"name": {"value": v, "unit": u}, ...}`, optionally with `better`.
pub fn metrics_json(metrics: &[Metric], with_better: bool) -> String {
    let mut s = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "{}: {{\"value\": {}, \"unit\": {}",
            json_str(&m.name),
            json_num(m.value),
            json_str(m.unit)
        );
        if with_better {
            let _ = write!(s, ", \"better\": {}", json_str(m.better.as_str()));
        }
        s.push('}');
    }
    s.push('}');
    s
}

/// The checks as a JSON array.
pub fn checks_json(checks: &[Check]) -> String {
    let items: Vec<String> = checks
        .iter()
        .map(|c| {
            format!(
                "{{\"name\": {}, \"ok\": {}, \"detail\": {}}}",
                json_str(c.name),
                c.ok,
                json_str(&c.detail)
            )
        })
        .collect();
    format!("[{}]", items.join(", "))
}

/// Human-readable metric table, one line per metric.
pub fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!(
            "  {:<34} {:>16.6} {:<10} ({} is better)",
            m.name,
            m.value,
            m.unit,
            m.better.as_str()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_num(1.203_412_5), "1.2034125");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
    }
}
