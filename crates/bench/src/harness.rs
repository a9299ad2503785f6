//! Shared harness for the figure/table binaries.
//!
//! Every `figNN`/`table5`/`scaling`/`overhead` binary builds a [`Report`]
//! — a title plus [`Section`]s of tables, named facts and free-text notes
//! — and hands it to [`run`], which parses the common command-line flags
//! and emits the report:
//!
//! ```text
//! --format text|md|json   output format (default: text)
//! --out PATH              write to PATH instead of stdout
//! ```
//!
//! This replaces ten hand-rolled `println!` main functions with one
//! renderer, and gives every figure a machine-readable JSON form for the
//! CI smoke run.

use crate::table::TextTable;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Nanoseconds per iteration of `f`: one warmup call, a calibration loop
/// growing the iteration count until a run spans `window`, then two more
/// windows at that count. Returns the *minimum* window mean — scheduler
/// preemption and interrupt noise only ever inflate a window, so the min
/// is the stable estimator (a single long window's mean absorbs every
/// hiccup and jitters >10% on a busy 1-core host).
pub fn time_ns(window: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let window_ns = window.as_nanos() as f64;
    let mut iters: u64 = 1;
    let (mut best, iters) = loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed();
        let per = (elapsed.as_nanos() as f64 / iters as f64).max(1.0);
        if elapsed >= window || iters >= 1_000_000 {
            break (per, iters);
        }
        iters = ((window_ns / per).ceil() as u64).clamp(iters * 2, 1_000_000);
    };
    for _ in 0..2 {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let per = (start.elapsed().as_nanos() as f64 / iters as f64).max(1.0);
        best = best.min(per);
    }
    best
}

/// A named headline value, e.g. an average with the paper's number quoted.
#[derive(Debug, Clone)]
pub struct Fact {
    /// What the value is.
    pub label: String,
    /// The formatted value (units and paper comparison included).
    pub value: String,
}

/// One block of a report: an optional heading, any number of tables,
/// headline facts and free-text notes, rendered in that order.
#[derive(Debug, Clone, Default)]
pub struct Section {
    /// Optional sub-heading.
    pub heading: Option<String>,
    /// Data tables.
    pub tables: Vec<TextTable>,
    /// Headline values.
    pub facts: Vec<Fact>,
    /// Commentary lines.
    pub notes: Vec<String>,
}

impl Section {
    /// Creates an empty section.
    pub fn new() -> Self {
        Section::default()
    }

    /// Sets the sub-heading.
    pub fn heading(mut self, h: impl Into<String>) -> Self {
        self.heading = Some(h.into());
        self
    }

    /// Appends a table.
    pub fn table(mut self, t: TextTable) -> Self {
        self.tables.push(t);
        self
    }

    /// Appends a headline fact.
    pub fn fact(mut self, label: impl Into<String>, value: impl Into<String>) -> Self {
        self.facts.push(Fact {
            label: label.into(),
            value: value.into(),
        });
        self
    }

    /// Appends a commentary line.
    pub fn note(mut self, n: impl Into<String>) -> Self {
        self.notes.push(n.into());
        self
    }
}

/// A complete figure/table report.
#[derive(Debug, Clone)]
pub struct Report {
    /// Report title (the paper's figure caption).
    pub title: String,
    /// Content blocks.
    pub sections: Vec<Section>,
}

impl Report {
    /// Creates a report with no sections yet.
    pub fn new(title: impl Into<String>) -> Self {
        Report {
            title: title.into(),
            sections: Vec::new(),
        }
    }

    /// Appends a section.
    pub fn section(mut self, s: Section) -> Self {
        self.sections.push(s);
        self
    }

    /// Renders the report as plain text (the classic binary output).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        for s in &self.sections {
            out.push('\n');
            if let Some(h) = &s.heading {
                let _ = writeln!(out, "{h}");
            }
            for t in &s.tables {
                out.push_str(&t.render());
            }
            for f in &s.facts {
                let _ = writeln!(out, "{}: {}", f.label, f.value);
            }
            for n in &s.notes {
                let _ = writeln!(out, "{n}");
            }
        }
        out
    }

    /// Renders the report as GitHub-flavoured markdown.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        for s in &self.sections {
            out.push('\n');
            if let Some(h) = &s.heading {
                let _ = writeln!(out, "## {h}\n");
            }
            for t in &s.tables {
                let _ = writeln!(out, "| {} |", t.header().join(" | "));
                let rule: Vec<&str> = t.header().iter().map(|_| "---").collect();
                let _ = writeln!(out, "| {} |", rule.join(" | "));
                for row in t.rows() {
                    let _ = writeln!(out, "| {} |", row.join(" | "));
                }
                out.push('\n');
            }
            for f in &s.facts {
                let _ = writeln!(out, "- **{}**: {}", f.label, f.value);
            }
            for n in &s.notes {
                let _ = writeln!(out, "{n}");
            }
        }
        out
    }

    /// Renders the report as JSON (hand-rolled; the workspace is
    /// dependency-free).
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"title\": {},", json_str(&self.title));
        out.push_str("  \"sections\": [");
        for (si, s) in self.sections.iter().enumerate() {
            if si > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n");
            if let Some(h) = &s.heading {
                let _ = writeln!(out, "      \"heading\": {},", json_str(h));
            }
            out.push_str("      \"tables\": [");
            for (ti, t) in s.tables.iter().enumerate() {
                if ti > 0 {
                    out.push(',');
                }
                out.push_str("\n        {\"header\": ");
                out.push_str(&json_str_array(t.header()));
                out.push_str(", \"rows\": [");
                for (ri, row) in t.rows().iter().enumerate() {
                    if ri > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&json_str_array(row));
                }
                out.push_str("]}");
            }
            if !s.tables.is_empty() {
                out.push_str("\n      ");
            }
            out.push_str("],\n      \"facts\": {");
            for (fi, f) in s.facts.iter().enumerate() {
                if fi > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\n        {}: {}", json_str(&f.label), json_str(&f.value));
            }
            if !s.facts.is_empty() {
                out.push_str("\n      ");
            }
            out.push_str("},\n      \"notes\": ");
            out.push_str(&json_str_array(&s.notes));
            out.push_str("\n    }");
        }
        if !self.sections.is_empty() {
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_str_array(items: &[String]) -> String {
    let cells: Vec<String> = items.iter().map(|s| json_str(s)).collect();
    format!("[{}]", cells.join(", "))
}

/// Output format selected on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Plain text (default).
    Text,
    /// GitHub-flavoured markdown.
    Markdown,
    /// JSON.
    Json,
}

/// Parsed command-line options shared by every figure binary.
#[derive(Debug, Clone)]
pub struct Options {
    /// Selected output format.
    pub format: Format,
    /// Output path; `None` writes to stdout.
    pub out: Option<String>,
}

impl Options {
    /// Parses `--format` / `--out` from an argument iterator (without the
    /// program name). Returns an error message on unknown flags or values.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut format = Format::Text;
        let mut out = None;
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--format" => {
                    let v = args.next().ok_or("--format needs a value")?;
                    format = match v.as_str() {
                        "text" => Format::Text,
                        "md" | "markdown" => Format::Markdown,
                        "json" => Format::Json,
                        other => return Err(format!("unknown format {other:?}")),
                    };
                }
                "--out" => out = Some(args.next().ok_or("--out needs a value")?),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(Options { format, out })
    }
}

/// Renders `report` according to the process's command-line flags and
/// writes it to stdout or `--out PATH`. Exits with status 2 on a bad
/// command line, 1 on an I/O failure.
pub fn run(report: &Report) {
    let options = match Options::parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: [--format text|md|json] [--out PATH]");
            std::process::exit(2);
        }
    };
    let rendered = match options.format {
        Format::Text => report.render_text(),
        Format::Markdown => report.render_markdown(),
        Format::Json => report.render_json(),
    };
    match &options.out {
        None => print!("{rendered}"),
        Some(path) => {
            if let Err(e) = std::fs::write(path, &rendered) {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut t = TextTable::new(&["benchmark", "speedup"]);
        t.row(&["DCGAN".into(), "8.92x".into()]);
        Report::new("Fig. N: sample")
            .section(
                Section::new()
                    .table(t)
                    .fact("Average", "8.92x (paper 7.46x)")
                    .note("one-line commentary"),
            )
            .section(Section::new().heading("second block").note("tail \"quote\""))
    }

    #[test]
    fn text_contains_all_pieces() {
        let s = sample().render_text();
        assert!(s.starts_with("Fig. N: sample\n"));
        assert!(s.contains("DCGAN"));
        assert!(s.contains("Average: 8.92x (paper 7.46x)"));
        assert!(s.contains("second block"));
    }

    #[test]
    fn markdown_tables_are_piped() {
        let s = sample().render_markdown();
        assert!(s.contains("# Fig. N: sample"));
        assert!(s.contains("| benchmark | speedup |"));
        assert!(s.contains("| --- | --- |"));
        assert!(s.contains("| DCGAN | 8.92x |"));
        assert!(s.contains("- **Average**: 8.92x (paper 7.46x)"));
        assert!(s.contains("## second block"));
    }

    #[test]
    fn json_escapes_and_round_trips_structure() {
        let s = sample().render_json();
        assert!(s.contains("\"title\": \"Fig. N: sample\""));
        assert!(s.contains("\"header\": [\"benchmark\", \"speedup\"]"));
        assert!(s.contains("\"rows\": [[\"DCGAN\", \"8.92x\"]]"));
        assert!(s.contains("\"Average\": \"8.92x (paper 7.46x)\""));
        assert!(s.contains("tail \\\"quote\\\""));
        // Balanced braces/brackets — cheap well-formedness check.
        for (open, close) in [('{', '}'), ('[', ']')] {
            let in_strings_removed: String = {
                // Strip string literals so braces inside them don't count.
                let mut out = String::new();
                let mut in_str = false;
                let mut escape = false;
                for c in s.chars() {
                    if in_str {
                        if escape {
                            escape = false;
                        } else if c == '\\' {
                            escape = true;
                        } else if c == '"' {
                            in_str = false;
                        }
                    } else if c == '"' {
                        in_str = true;
                    } else {
                        out.push(c);
                    }
                }
                out
            };
            let opens = in_strings_removed.matches(open).count();
            let closes = in_strings_removed.matches(close).count();
            assert_eq!(opens, closes, "unbalanced {open}{close}");
        }
    }

    #[test]
    fn options_parse_flags() {
        let o = Options::parse(
            ["--format", "json", "--out", "/tmp/x.json"]
                .into_iter()
                .map(String::from),
        )
        .unwrap();
        assert_eq!(o.format, Format::Json);
        assert_eq!(o.out.as_deref(), Some("/tmp/x.json"));
        assert!(Options::parse(["--format", "yaml"].into_iter().map(String::from)).is_err());
        assert!(Options::parse(["--nope"].into_iter().map(String::from)).is_err());
        let d = Options::parse(std::iter::empty()).unwrap();
        assert_eq!(d.format, Format::Text);
        assert!(d.out.is_none());
    }
}
