//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! Nothing inside the program is instrumented by this benchmark, so a span
//! is always "one call into a layer's public function, seen from outside":
//! a name (`<layer>.<function>`), start and end, the span that caused it,
//! and an operation id shared by the spans of one request. Spans stay in
//! memory and are written out once, when the run ends. With tracing off the
//! same call sites only read the clock, which is what the end-to-end pass
//! runs with.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the same trace.
    pub parent: Option<usize>,
    /// Operation id: spans of one request (window, delta, rep) share it.
    pub op: u64,
}

pub struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
    /// Open spans on this thread, innermost last.
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { origin: Instant::now(), on, spans: Vec::new(), open: Vec::new() }
    }

    /// Suspends or resumes recording (used to measure tracing overhead
    /// inside one run); a tracer created off stays off.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span that may have children: `f` gets the tracer
    /// back to open them. Returns `f`'s value and the span's seconds.
    pub fn scope<R>(
        &mut self,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, f64) {
        let start_ns = self.now_ns();
        let id = self.on.then(|| {
            let parent = self.open.last().copied();
            self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let value = f(self);
        let end_ns = self.now_ns();
        if let Some(id) = id {
            self.spans[id].end_ns = end_ns;
            self.open.pop();
        }
        (value, (end_ns - start_ns) as f64 / 1e9)
    }

    /// A leaf span around one call into a layer.
    pub fn call<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> (R, f64) {
        self.scope(name, op, |_| f())
    }

    /// A tracer for another thread, on the same clock; give it back with
    /// [`Tracer::adopt`].
    pub fn fork(&self) -> Tracer {
        Tracer { origin: self.origin, on: self.on, spans: Vec::new(), open: Vec::new() }
    }

    /// Appends a forked tracer's spans; its root spans become children of
    /// the innermost span open here.
    pub fn adopt(&mut self, child: Tracer) {
        let base = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.extend(child.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(parent);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                        ("op", Json::Num(s.op as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Per-name totals over a trace.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct NameTotals {
    pub count: usize,
    pub total_ns: u64,
    /// Total minus the part of each span's interval its children cover.
    pub self_ns: u64,
}

/// A span's self time: its duration minus the part of that interval its
/// direct children cover (children on other threads may overlap each
/// other, so the cover is the union of their intervals, clipped to the
/// parent).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (s.start_ns.max(spans[p].start_ns), s.end_ns.min(spans[p].end_ns));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    let mut totals: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        kids.sort_unstable();
        let (mut covered, mut reach) = (0u64, s.start_ns);
        for &(lo, hi) in kids.iter() {
            let lo = lo.max(reach);
            if hi > lo {
                covered += hi - lo;
                reach = hi;
            }
        }
        let duration = s.end_ns - s.start_ns;
        let t = totals.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += duration;
        t.self_ns += duration - covered;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, op: 0 }
    }

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        let spans = [
            span("window", 0, 100, None),
            span("parse", 10, 30, Some(0)),
            // Two children on different threads overlapping in 40..50:
            // together they cover 35..60 = 25 ns, not 30.
            span("engine", 35, 50, Some(0)),
            span("engine", 40, 60, Some(0)),
            // A grandchild does not reduce the root's self time again.
            span("probe", 41, 45, Some(3)),
            // A child leaking past its parent is clipped to it.
            span("flush", 90, 130, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(
            t["window"],
            NameTotals { count: 1, total_ns: 100, self_ns: 100 - 20 - 25 - 10 }
        );
        assert_eq!(t["parse"].self_ns, 20);
        assert_eq!(t["engine"], NameTotals { count: 2, total_ns: 35, self_ns: 35 - 4 });
        assert_eq!(t["probe"].self_ns, 4);
    }

    #[test]
    fn scopes_nest_and_adopted_threads_hang_under_the_open_span() {
        let mut tracer = Tracer::new(true);
        let ((), outer_secs) = tracer.scope("phase", 1, |t| {
            t.call("layer.f", 7, || ());
            let mut worker = t.fork();
            worker.scope("client.window", 8, |w| {
                w.call("client.read", 8, || ());
            });
            t.adopt(worker);
        });
        assert!(outer_secs >= 0.0);
        let names: Vec<_> = tracer.spans().iter().map(|s| (s.name, s.parent, s.op)).collect();
        assert_eq!(
            names,
            vec![
                ("phase", None, 1),
                ("layer.f", Some(0), 7),
                ("client.window", Some(0), 8),
                ("client.read", Some(2), 8),
            ]
        );
        for s in tracer.spans() {
            assert!(s.end_ns >= s.start_ns);
        }
        assert_eq!(Json::parse(&tracer.to_json().compact()).unwrap().items().len(), 4);
    }

    #[test]
    fn a_tracer_that_is_off_times_but_records_nothing() {
        let mut tracer = Tracer::new(false);
        let (value, secs) = tracer.call("layer.f", 0, || 41 + 1);
        assert_eq!(value, 42);
        assert!(secs >= 0.0);
        assert!(tracer.spans().is_empty());
    }
}
