//! In-memory spans around the benchmark's calls into each layer.
//!
//! The benchmark times every library call it makes through a [`Tracer`].
//! Timing is always on — set-up and run seconds are end-to-end metrics —
//! but spans are only kept when the tracer was built with tracing on, so
//! the untraced run pays one clock read per call and nothing else. Spans
//! are written out once, when the benchmark ends; nothing is traced
//! inside the library crates.

use std::time::Instant;

use crate::json::Json;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name (`crate.module.call`, or `workload.<name>` at the top).
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The workload the span belongs to.
    pub workload: &'static str,
    /// The unit of work (one engine run, one certification) it belongs to.
    pub unit: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Times library calls and, when tracing, records them as spans.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans: (index into `spans` when tracing, start time).
    stack: Vec<(Option<usize>, u64)>,
    workload: &'static str,
    unit: u32,
    setup_ns: u64,
    last_ns: u64,
}

impl Tracer {
    /// A tracer that keeps spans iff `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            workload: "",
            unit: 0,
            setup_ns: 0,
            last_ns: 0,
        }
    }

    /// Whether spans are kept.
    pub fn tracing(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Label subsequent spans with `workload`.
    pub fn set_workload(&mut self, workload: &'static str) {
        self.workload = workload;
    }

    /// Label subsequent spans with unit id `unit`.
    pub fn set_unit(&mut self, unit: u32) {
        self.unit = unit;
    }

    /// Open a span that encloses later calls (close it with
    /// [`Tracer::close`]).
    pub fn open(&mut self, name: &'static str) {
        let start = self.now();
        let idx = self.on.then(|| {
            self.spans.push(Span {
                name,
                start_ns: start,
                end_ns: start,
                parent: self.stack.iter().rev().find_map(|&(i, _)| i),
                workload: self.workload,
                unit: self.unit,
            });
            self.spans.len() - 1
        });
        self.stack.push((idx, start));
    }

    /// Close the innermost open span; returns its duration in seconds.
    ///
    /// # Panics
    ///
    /// Panics if no span is open (a bug in the caller's nesting).
    pub fn close(&mut self) -> f64 {
        let (idx, start) = self.stack.pop().expect("close without a matching open");
        let end = self.now();
        if let Some(i) = idx {
            self.spans[i].end_ns = end;
        }
        self.last_ns = end - start;
        secs(self.last_ns)
    }

    /// Run `f` as a leaf span named `name`.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    /// [`Tracer::call`] for a constructor or parser: its time also
    /// counts towards the set-up total.
    pub fn setup<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let out = self.call(name, f);
        self.setup_ns += self.last_ns;
        out
    }

    /// Seconds the last closed span took.
    pub fn last_s(&self) -> f64 {
        secs(self.last_ns)
    }

    /// Set-up seconds accumulated since the last call, and reset.
    pub fn take_setup_s(&mut self) -> f64 {
        secs(std::mem::take(&mut self.setup_ns))
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let line = Json::obj()
                .with("id", i)
                .with("name", s.name)
                .with("start_ns", s.start_ns)
                .with("end_ns", s.end_ns)
                .with("parent", s.parent)
                .with("workload", s.workload)
                .with("unit", u64::from(s.unit));
            out.push_str(&line.render());
            out.push('\n');
        }
        out
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children. Children may nest further or overlap one
/// another; overlapping coverage counts once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            kids[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(kids)
        .map(|(s, mut iv)| {
            iv.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in iv {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per-layer totals over `spans`: (name, calls, total ns, self ns),
/// sorted by self time, largest first.
pub fn layer_table(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => {
                r.1 += 1;
                r.2 += s.dur_ns();
                r.3 += self_ns;
            }
            None => rows.push((s.name, 1, s.dur_ns(), self_ns)),
        }
    }
    rows.sort_by(|a, b| b.3.cmp(&a.3).then(a.0.cmp(b.0)));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            workload: "w",
            unit: 0,
        }
    }

    #[test]
    fn self_time_with_nested_and_overlapping_children() {
        let spans = vec![
            span("root", 0, 100, None),
            // Two children of root overlapping on [30, 40).
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            // A child reaching past its parent's end is clipped.
            span("c", 90, 120, Some(0)),
            // A grandchild: covered time of `a`, not of `root`.
            span("g", 15, 25, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 30 - 10, 30, 30, 10]);
    }

    #[test]
    fn tracer_nests_and_counts_setup() {
        let mut t = Tracer::new(true);
        t.set_workload("w");
        t.open("outer");
        let x = t.setup("inner.new", || 7);
        let y = t.call("inner.run", || x + 1);
        t.close();
        assert_eq!(y, 8);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.workload == "w"));
        assert_eq!(layer_table(spans).len(), 3);
        assert_eq!(t.to_jsonl().lines().count(), 3);
        assert!(t.take_setup_s() >= 0.0);
        assert_eq!(t.take_setup_s(), 0.0);
    }

    #[test]
    fn untraced_tracer_keeps_no_spans() {
        let mut t = Tracer::new(false);
        t.open("outer");
        t.call("leaf", || ());
        t.close();
        assert!(t.spans().is_empty());
    }
}
