//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (the program itself carries no tracing yet): name, start, end,
//! parent span and operation id. They stay in memory and are written
//! out as JSON lines when the run ends.
//!
//! Two kinds of nesting occur. A child recorded inside its parent's
//! interval (an HTTP exchange's connect and first-byte wait, or the
//! parse/answer/encode steps of a replayed handler) is nested in time.
//! A layer that a public call runs internally (the solves inside
//! `answer`) is timed by calling that layer's public function again on
//! the same inputs right after the parent call; its span names the
//! parent but lies after it. Self time is therefore computed from
//! durations: a span's duration minus the durations of its children.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Operation (timed query or request) the span belongs to.
    pub op: usize,
    /// Parent span id, if any.
    pub parent: Option<usize>,
    /// Layer call, e.g. `qbd.lumped.upper`.
    pub name: &'static str,
    /// Start, in nanoseconds since the trace began.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace began.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// In-memory spans and per-operation counters.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    counters: Vec<(usize, &'static str, f64)>,
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            counters: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span that ran from `start` to `end`; returns its id.
    pub fn record(
        &mut self,
        op: usize,
        parent: Option<usize>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            op,
            parent,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Runs `f` as span `name`; returns its result and the span id.
    pub fn time<T>(
        &mut self,
        op: usize,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let id = self.record(op, parent, name, start, Instant::now());
        (out, id)
    }

    /// Makes span `id` a child of `parent` (for a parent whose interval
    /// is only known once its children have run).
    pub fn reparent(&mut self, id: usize, parent: usize) {
        self.spans[id].parent = Some(parent);
    }

    /// Records a count made at a layer boundary of operation `op`.
    pub fn count(&mut self, op: usize, name: &'static str, value: f64) {
        self.counters.push((op, name, value));
    }

    /// Per-operation total duration (ms) of every span called `name`.
    pub fn per_op_ms(&self, name: &str) -> Vec<f64> {
        let mut by_op: BTreeMap<usize, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_op.entry(s.op).or_default() += s.ms();
        }
        by_op.into_values().collect()
    }

    /// Per-operation total of every counter called `name`.
    pub fn per_op_count(&self, name: &str) -> Vec<f64> {
        let mut by_op: BTreeMap<usize, f64> = BTreeMap::new();
        for (op, n, v) in &self.counters {
            if *n == name {
                *by_op.entry(*op).or_default() += v;
            }
        }
        by_op.into_values().collect()
    }

    /// Per-operation self time (ms) of the spans called `name`: each
    /// span's duration minus its children's durations.
    pub fn per_op_self_ms(&self, name: &str) -> Vec<f64> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        let mut by_op: BTreeMap<usize, f64> = BTreeMap::new();
        for (id, s) in self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
        {
            *by_op.entry(s.op).or_default() += s.ms() - child_ms[id];
        }
        by_op.into_values().collect()
    }

    /// Per-operation coverage of the spans called `name`: the summed
    /// durations of their direct children over their own duration.
    pub fn per_op_coverage(&self, name: &str) -> Vec<f64> {
        let self_ms = self.per_op_self_ms(name);
        let total = self.per_op_ms(name);
        total
            .iter()
            .zip(self_ms)
            .filter(|(t, _)| **t > 0.0)
            .map(|(t, s)| (t - s) / t)
            .collect()
    }

    /// Writes every span and counter as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\": {id}, \"op\": {}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        for (op, name, value) in &self.counters {
            writeln!(
                out,
                "{{\"counter\": \"{name}\", \"op\": {op}, \"value\": {value:?}}}"
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_coverage_is_their_share() {
        let mut t = Trace::new();
        let base = Instant::now();
        let at = |ms: u64| base + Duration::from_millis(ms);
        let parent = t.record(0, None, "op", at(0), at(10));
        t.record(0, Some(parent), "a", at(10), at(14));
        let b = t.record(0, Some(parent), "b", at(14), at(19));
        t.record(0, Some(b), "b.inner", at(14), at(16));
        assert_eq!(t.per_op_ms("op"), vec![10.0]);
        assert_eq!(t.per_op_self_ms("op"), vec![1.0]);
        assert_eq!(t.per_op_self_ms("b"), vec![3.0]);
        assert_eq!(t.per_op_coverage("op"), vec![0.9]);
        t.count(0, "n", 2.0);
        t.count(0, "n", 3.0);
        t.count(1, "n", 7.0);
        assert_eq!(t.per_op_count("n"), vec![5.0, 7.0]);
    }
}
