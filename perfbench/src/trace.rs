//! The traced run's span recorder.
//!
//! A span is a named interval with the span that caused it as parent; all
//! spans of one served request carry its request id. Spans stay in memory
//! and are written out once, when the run ends, so recording costs one
//! clock read and one `Vec` push per boundary. A layer's self time is its
//! span's duration minus the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// Index of the causing span in [`Recorder::spans`].
    pub parent: Option<usize>,
    /// Served-request id shared by every span of that request.
    pub request: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over all spans of that name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Totals {
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 * 1e-9
    }

    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 * 1e-9
    }
}

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    /// Spans opened by [`Recorder::span`] and not yet closed, innermost last.
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds from the origin to `t` (0 for instants before it).
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let parent = self.open.last().copied();
        let start_ns = self.ns(Instant::now());
        let index = self.push(name, parent, None, start_ns, start_ns);
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.ns(Instant::now());
        result
    }

    /// Records a span measured elsewhere (another thread, or timestamps
    /// gathered during an untraced phase) and returns its index.
    pub fn push(
        &mut self,
        name: &str,
        parent: Option<usize>,
        request: Option<u64>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        assert!(end_ns >= start_ns, "span {name} ends before it starts");
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            request,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed like [`Recorder::spans`]: its
    /// duration minus the union of its children's intervals clipped to it
    /// (children may overlap when they ran on different threads).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| span.duration_ns() - covered_ns(span, kids))
            .collect()
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<String, Totals> {
        let mut out: BTreeMap<String, Totals> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let t = out.entry(span.name.clone()).or_default();
            t.count += 1;
            t.total_ns += span.duration_ns();
            t.self_ns += self_ns;
        }
        out
    }

    /// Totals of the spans named `name` (all zero if none was recorded).
    pub fn get(&self, name: &str) -> Totals {
        self.totals().get(name).copied().unwrap_or_default()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (span, self_ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                span.name,
                opt(span.parent.map(|p| p as u64)),
                opt(span.request),
                span.start_ns,
                span.end_ns,
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `kids` intervals clipped to `span`. Sorts `kids`.
fn covered_ns(span: &Span, kids: &mut [(u64, u64)]) -> u64 {
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for &(start, end) in kids.iter() {
        let start = start.max(reach);
        let end = end.min(span.end_ns);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder_with(spans: &[(&str, Option<usize>, u64, u64)]) -> Recorder {
        let mut rec = Recorder::new();
        for &(name, parent, start, end) in spans {
            rec.push(name, parent, None, start, end);
        }
        rec
    }

    #[test]
    fn self_time_subtracts_child_coverage() {
        let rec = recorder_with(&[
            ("root", None, 0, 100),
            ("a", Some(0), 10, 30),
            ("b", Some(0), 50, 90),
            ("a.inner", Some(1), 12, 20),
        ]);
        assert_eq!(rec.self_ns(), vec![40, 12, 40, 8]);
        let totals = rec.totals();
        // Self times of a tree partition the root's duration.
        let sum: u64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(sum, 100);
        assert_eq!(totals["a"].total_ns, 20);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two requests served concurrently under one phase span.
        let rec = recorder_with(&[
            ("phase", None, 0, 100),
            ("req", Some(0), 10, 60),
            ("req", Some(0), 40, 80),
            ("req", Some(0), 70, 75),
        ]);
        assert_eq!(rec.self_ns()[0], 100 - 70);
        assert_eq!(rec.get("req").count, 3);
        assert_eq!(rec.get("req").total_ns, 50 + 40 + 5);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let rec = recorder_with(&[("p", None, 100, 200), ("c", Some(0), 50, 150)]);
        assert_eq!(rec.self_ns()[0], 50);
    }

    #[test]
    fn nested_span_calls_link_parents() {
        let mut rec = Recorder::new();
        let v = rec.span("outer", |rec| {
            rec.span("inner", |_| 7) + rec.span("inner", |_| 1)
        });
        assert_eq!(v, 8);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].end_ns >= spans[2].end_ns);
        assert_eq!(rec.get("inner").count, 2);
        assert_eq!(rec.get("missing"), Totals::default());
    }
}
