//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start, end, parent span and trace id (all
//! spans of one `whatif` request share the request's id). Spans are kept
//! in memory and written out once, when the run ends. A disabled tracer
//! hands out inert guards without reading the clock, so untraced passes
//! pay one branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id, from 1.
    pub id: u64,
    /// Parent span id; 0 for a root span.
    pub parent: u64,
    /// Trace id shared by every span of one request; 0 when unset.
    pub trace: u64,
    /// `layer.operation`; the text before the first `.` names the layer.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The layer this span is charged to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder shared by every thread of a run.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records spans when `enabled`, and nothing otherwise.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Open a span; it is recorded when the guard drops.
    pub fn span(&self, name: &'static str, parent: u64, trace: u64) -> Guard<'_> {
        if !self.enabled {
            return Guard {
                tracer: self,
                id: 0,
                parent,
                trace,
                name,
                start: None,
            };
        }
        Guard {
            tracer: self,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            trace,
            name,
            start: Some(Instant::now()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record a span whose name is only known once it ended (e.g. the
    /// cache tier a query was answered from).
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        trace: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        self.push(Span {
            // Ids only need to be unique; they publish no other data.
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            trace,
            name,
            start_ns: self.nanos(start),
            end_ns: self.nanos(end),
        });
    }

    fn push(&self, span: Span) {
        // A poisoned lock only means another span writer panicked; the
        // vector itself is never left half-updated by a push.
        let mut spans = match self.spans.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        spans.push(span);
    }

    /// Every span recorded so far, ordered by start time.
    pub fn finish(self) -> Vec<Span> {
        let mut spans = self.spans.into_inner().expect("a span writer panicked");
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    fn nanos(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }
}

/// An open span; records itself on drop.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: u64,
    trace: u64,
    name: &'static str,
    start: Option<Instant>,
}

impl Guard<'_> {
    /// This span's id, to pass as the parent of its children (0 when the
    /// tracer is disabled).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let end = Instant::now();
        self.tracer.push(Span {
            id: self.id,
            parent: self.parent,
            trace: self.trace,
            name: self.name,
            start_ns: self.tracer.nanos(start),
            end_ns: self.tracer.nanos(end),
        });
    }
}

/// Self time of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans charged to the layer.
    pub spans: usize,
    /// Sum over those spans of their duration minus the part of it their
    /// children cover, in nanoseconds.
    pub self_ns: u64,
}

/// Per-layer self time. A span's self time is its duration minus the
/// union of its children's intervals (clipped to the span), so children
/// running in parallel on other threads are not subtracted twice.
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
        let entry = out.entry(s.layer()).or_default();
        entry.spans += 1;
        entry.self_ns += s.dur_ns() - covered;
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Durations in nanoseconds of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// All spans as one JSON array, one span per line.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}{sep}",
            s.id, s.parent, s.trace, s.name, s.start_ns, s.end_ns
        );
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            trace: 7,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping children (parallel workers) cover [10, 60).
        let spans = [
            span(1, 0, "serve.request", 0, 100),
            span(2, 1, "serve.answer_miss", 10, 50),
            span(3, 1, "serve.answer_mem", 20, 60),
            span(4, 0, "store.reopen", 100, 130),
        ];
        let t = layer_self_times(&spans);
        // serve: request 100 - 50 covered, plus the children's own 40 + 40.
        assert_eq!(t["serve"].self_ns, 50 + 40 + 40);
        assert_eq!(t["serve"].spans, 3);
        assert_eq!(t["store"].self_ns, 30);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        {
            let g = tracer.span("bench.x", 0, 0);
            assert_eq!(g.id(), 0);
        }
        assert!(tracer.finish().is_empty());
    }

    #[test]
    fn enabled_tracer_links_parents_and_trace_ids() {
        let tracer = Tracer::new(true);
        {
            let root = tracer.span("serve.request", 0, 42);
            std::thread::scope(|s| {
                s.spawn(|| drop(tracer.span("serve.answer_mem", root.id(), 42)));
            });
        }
        let spans = tracer.finish();
        assert_eq!(spans.len(), 2);
        let root = spans.iter().find(|s| s.parent == 0).expect("root");
        let child = spans.iter().find(|s| s.parent != 0).expect("child");
        assert_eq!(child.parent, root.id);
        assert!(spans.iter().all(|s| s.trace == 42));
        assert!(root.start_ns <= child.start_ns && child.end_ns <= root.end_ns);
        assert!(to_json(&spans).contains("\"name\":\"serve.answer_mem\""));
    }
}
