//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end and the span that caused it. Spans
//! stay in memory while the benchmark runs and are written as JSON when
//! it ends. With tracing off, [`Tracer::span`] only calls its closure.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer and operation, e.g. `textify` or `embedding.sgns`.
    pub name: &'static str,
    /// Start offset in nanoseconds.
    pub start_ns: u64,
    /// End offset in nanoseconds.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span recorder; disabled for the untraced run.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`, nested in the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Records a count of work done at a layer boundary; the latest
    /// value wins.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            self.counts.insert(name, value);
        }
    }

    /// The latest count recorded under `name`.
    pub fn counted(&self, name: &str) -> Option<f64> {
        self.counts.get(name).copied()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Durations in seconds of every span named `name`, in order.
    pub fn secs(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Per-parent totals: for each span named `parent`, the summed seconds
    /// of its direct children named `child`.
    pub fn child_secs(&self, parent: &str, child: &str) -> Vec<f64> {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == parent)
            .map(|(i, _)| {
                self.spans
                    .iter()
                    .filter(|c| c.parent == Some(i) && c.name == child)
                    .map(Span::secs)
                    .sum()
            })
            .collect()
    }

    /// The spans and counts as a JSON object.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
                format!(
                    "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                    s.name, s.start_ns, s.end_ns
                )
            })
            .collect();
        let counts: Vec<String> = self
            .counts
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        format!(
            "{{\"counts\":{{{}}},\"spans\":[\n{}\n]}}",
            counts.join(","),
            rows.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents() {
        let mut t = Tracer::new(true);
        t.span("fit", |t| {
            t.span("textify", |_| ());
            t.span("graph.build", |_| ());
        });
        t.span("fit", |_| ());
        assert_eq!(t.secs("fit").len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(0));
        assert_eq!(t.child_secs("fit", "textify").len(), 2);
        assert!(t.to_json().contains("\"parent\":0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("fit", |_| 5), 5);
        assert!(t.secs("fit").is_empty());
    }
}
