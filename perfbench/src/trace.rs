//! In-memory spans recorded around the benchmark's own calls into each
//! layer's public functions. Nothing inside the program is instrumented:
//! a span brackets one call (or one benchmark-driven step) from outside.
//!
//! Spans stay in memory while the run measures and are written out once,
//! when it ends. A layer's self time is its span minus its child spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call the span brackets, e.g. `gan.g.fwd`.
    pub name: &'static str,
    /// Step, eval or job id the span belongs to.
    pub id: u64,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. Single-threaded: spans nest strictly.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    last_closed: Option<usize>,
}

/// Calls and summed self time of every span with one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfTime {
    /// Closed spans with this name.
    pub calls: u64,
    /// Their summed self time (ns).
    pub self_ns: u64,
}

impl SelfTime {
    /// Mean self time per call, in ms (0 when never called).
    pub fn mean_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64 / 1e6
        }
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            last_closed: None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, id: u64) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        let idx = self.open.pop().expect("end() matches a begin()");
        self.spans[idx].end_ns = self.now_ns();
        self.last_closed = Some(idx);
    }

    /// Duration (ns) of the span closed most recently.
    pub fn last_ns(&self) -> f64 {
        self.last_closed
            .map_or(0.0, |i| self.spans[i].duration_ns() as f64)
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        self.begin(name, id);
        let r = f();
        self.end();
        r
    }

    /// Durations (ns) of every span named `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Self time per span name: each span's duration minus its children's.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.self_ns += s.duration_ns().saturating_sub(children);
        }
        out
    }

    /// The spans as a JSON array of `{name, id, start_ns, end_ns, parent}`.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(self.spans.len() * 80 + 4);
        s.push_str("[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                s,
                "  {{\"name\": \"{}\", \"id\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}}}{}",
                sp.name,
                sp.id,
                sp.start_ns,
                sp.end_ns,
                parent,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        s.push_str("]\n");
        s
    }
}
