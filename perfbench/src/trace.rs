//! In-memory spans recorded around the layer calls the benchmark makes.
//!
//! A span has a name, start and end (ns since the tracer started), a
//! parent span and the id of the operation it belongs to. Spans stay in
//! memory while the workload runs and are written out when it ends; the
//! per-layer metrics are self times: a span's duration minus the part
//! its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index + 1 of the parent span in the tracer, 0 for a root span.
    pub parent: u32,
    pub op: u64,
}

#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
    /// Per-operation tracing overhead by part: the traced per-layer sum
    /// over the untraced operation time, minus one.
    overhead: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            overhead: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested in the innermost open
    /// span. A root span starts a new operation.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let parent = self.open.last().copied().unwrap_or(0);
        if parent == 0 {
            self.op += 1;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            op: self.op,
        });
        self.open.push(idx as u32 + 1);
        let r = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        r
    }

    /// Records an already-measured span (e.g. one timed on another
    /// thread) and returns its id, to pass as `parent` of its children.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, parent: u32) -> u32 {
        let ns = |t: Instant| t.saturating_duration_since(self.t0).as_nanos() as u64;
        if parent == 0 {
            self.op += 1;
        }
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            op: self.op,
        });
        self.spans.len() as u32
    }

    /// Spans recorded so far; ranges of them delimit operations.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time in seconds per span name over spans `from..to`, which
    /// must hold whole operations.
    pub fn self_times(&self, from: usize, to: usize) -> BTreeMap<&'static str, f64> {
        let spans = &self.spans[from..to];
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            let p = s.parent as usize;
            if p > from {
                child_ns[p - 1 - from] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(c);
            *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Total duration in seconds of the root spans over spans `from..to`.
    pub fn root_time(&self, from: usize, to: usize) -> f64 {
        self.spans[from..to]
            .iter()
            .filter(|s| s.parent == 0)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    pub fn note_overhead(&mut self, part: &'static str, share: f64) {
        self.overhead.entry(part).or_default().push(share);
    }

    /// The overhead shares noted so far, by part.
    pub fn overhead(&self) -> &BTreeMap<&'static str, Vec<f64>> {
        &self.overhead
    }

    /// Writes every span as a tab-separated line.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "span\top\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}\t{}",
                i + 1,
                s.op,
                s.parent,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        w.flush()
    }
}
