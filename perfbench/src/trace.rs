//! In-memory span recorder for the traced run.
//!
//! A span is a name, a start and an end, the span that caused it, and
//! the request it belongs to. Spans stay in memory while the benchmark
//! runs and are written out as JSON lines at the end. A layer's self time
//! is its spans' durations minus the part covered by their child spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Per-name totals over every recorded span.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub calls: u64,
    pub self_ns: u64,
}

impl LayerTime {
    /// Mean self time per call, in microseconds.
    #[must_use]
    pub fn per_call_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64 / 1e3
        }
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn offset(&self, at: Instant) -> u64 {
        crate::util::nanos(at.saturating_duration_since(self.origin))
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.offset(start),
            end_ns: self.offset(end),
            parent,
            request,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span that will parent later ones; close it with
    /// [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent, request)
    }

    pub fn close(&mut self, index: usize) {
        self.spans[index].end_ns = self.offset(Instant::now());
    }

    /// Times `f` as a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent, request);
        out
    }

    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name.
    #[must_use]
    pub fn self_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, &c) in self.spans.iter().zip(&covered) {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.self_ns += (s.end_ns - s.start_ns).saturating_sub(c);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the directory or writing the file.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut text = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        std::fs::write(path, text)
    }
}

/// One line per span name: calls, total self time, per call, per request.
pub fn layer_table(times: &BTreeMap<&'static str, LayerTime>, requests: u64) -> String {
    let mut s = String::from("layer self times (name: calls, self µs total, µs/call, µs/request):");
    for (name, t) in times {
        s.push_str(&format!(
            "\n     {name:<28} {:>9} {:>14.1} {:>10.3} {:>10.3}",
            t.calls,
            t.self_ns as f64 / 1e3,
            t.per_call_us(),
            t.self_ns as f64 / 1e3 / requests.max(1) as f64
        ));
    }
    s
}

/// Writes the spans under `perfbench/out/` and says where.
pub fn write_spans(tracer: &Tracer, workload: &str, seed: u64) -> String {
    let path = std::path::PathBuf::from(format!("perfbench/out/spans-{workload}-seed{seed}.jsonl"));
    match tracer.write(&path) {
        Ok(()) => format!("spans: {} written to {}", tracer.len(), path.display()),
        Err(e) => format!(
            "spans: {} kept in memory; writing {} failed: {e}",
            tracer.len(),
            path.display()
        ),
    }
}

/// The cost of tracing itself: throughput of the traced phase against the
/// untraced one of the same run, and the number of spans recorded.
pub fn overhead_metrics(
    untraced_per_s: f64,
    traced_per_s: f64,
    spans: usize,
) -> [(&'static str, f64); 4] {
    [
        (
            "trace.overhead",
            1.0 - traced_per_s / untraced_per_s.max(1e-9),
        ),
        ("trace.untraced_ops_per_s", untraced_per_s),
        ("trace.traced_ops_per_s", traced_per_s),
        ("trace.spans", spans as f64),
    ]
}
