//! In-memory span tracer for the benchmark's own call sites.
//!
//! Every span records a name, start, end and parent. Spans stay in memory
//! until the run ends; [`Tracer::self_seconds`] then charges each span its
//! duration minus the time its direct children cover, so the self times of
//! all spans under a root add up to the root's duration. A disabled tracer
//! records nothing and costs one branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `ml.train`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Handle of an open span, returned by [`Tracer::enter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

/// Span and count recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        SpanId(Some(id))
    }

    /// Closes `id`, and with it any span a panicking call left open inside
    /// it.
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let now = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Adds `n` to the count `name` (recorded only when enabled).
    pub fn count(&mut self, name: &'static str, n: f64) {
        if self.enabled {
            *self.counts.entry(name).or_insert(0.0) += n;
        }
    }

    /// Recorded counts by name.
    pub fn counts(&self) -> &BTreeMap<&'static str, f64> {
        &self.counts
    }

    /// Duration in seconds of the first span named `name`, if any.
    pub fn duration_s(&self, name: &str) -> Option<f64> {
        self.spans
            .iter()
            .find(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
    }

    /// Per-span self time in nanoseconds: duration minus the durations of
    /// direct children.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end_ns - s.start_ns;
            }
        }
        own
    }

    /// Self time in seconds summed by span name, over the spans under the
    /// first span named `root` (the root itself included).
    pub fn self_seconds(&self, root: &str) -> BTreeMap<&'static str, f64> {
        let mut totals = BTreeMap::new();
        let Some(root_idx) = self.spans.iter().position(|s| s.name == root) else {
            return totals;
        };
        let own = self.self_ns();
        for (i, s) in self.spans.iter().enumerate() {
            if self.descends_from(i, root_idx) {
                *totals.entry(s.name).or_insert(0.0) += own[i] as f64 * 1e-9;
            }
        }
        totals
    }

    fn descends_from(&self, mut i: usize, ancestor: usize) -> bool {
        loop {
            if i == ancestor {
                return true;
            }
            match self.spans[i].parent {
                Some(p) => i = p,
                None => return false,
            }
        }
    }

    /// The spans as a JSON array of `{name, start_ns, end_ns, parent,
    /// self_ns}` objects.
    pub fn spans_json(&self) -> String {
        let own = self.self_ns();
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"self_ns\":{}}}",
                s.name, s.start_ns, s.end_ns, own[i]
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_root() {
        let mut t = Tracer::new(true);
        let root = t.enter("run");
        t.time("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let mid = t.enter("b");
        t.time("a", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        t.exit(mid);
        t.exit(root);
        let selfs = t.self_seconds("run");
        let total: f64 = selfs.values().sum();
        let root_s = t.duration_s("run").unwrap();
        assert!((total - root_s).abs() < 1e-9, "{total} vs {root_s}");
        assert!(selfs["a"] >= 0.003);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.enter("run");
        t.count("x", 1.0);
        t.exit(id);
        assert!(t.spans.is_empty());
        assert!(t.counts().is_empty());
    }
}
