//! Spans recorded by the ledger around its calls into each layer: name,
//! start, end, the span that caused it, and an id shared by the spans of one
//! request. Held in memory, written when the workload ends. With tracing
//! off every call is a no-op, which is how the untraced pass runs.

use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the trace, `None` for the root.
    pub parent: Option<u32>,
    /// Frame or operation number within the workload; 0 when the span is
    /// not one request among many.
    pub id: u64,
}

/// Handle returned by [`Tracer::enter`]; `None` when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    paused: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            paused: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// `true` while spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled && !self.paused
    }

    /// Stops recording until unpaused: how the traced pass measures the
    /// same phase without spans, for the tracing overhead.
    pub fn pause(&mut self, paused: bool) {
        self.paused = paused;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled() {
            return Open(None);
        }
        let index = self.spans.len() as u32;
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            id: 0,
        });
        self.open.push(index);
        Open(Some(index))
    }

    /// Closes `open` and any span still open inside it.
    pub fn exit(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        let now = self.ns(Instant::now());
        while let Some(top) = self.open.pop() {
            if let Some(span) = self.spans.get_mut(top as usize) {
                span.end_ns = now;
            }
            if top == index {
                break;
            }
        }
    }

    /// Records a finished call timed by the caller (the same two instants
    /// the metric is computed from) as a child of the innermost open span.
    pub fn leaf(&mut self, name: &'static str, start: Instant, end: Instant, id: u64) {
        if !self.enabled() {
            return;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            id,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Time spent under one span name, and the part of it no child span covers.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTime {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Length of the union of `intervals` clipped to `[lo, hi]`. Children of one
/// span can overlap (two connections run side by side), so their durations
/// cannot simply be summed.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Per-name totals in order of first appearance: a span's self time is its
/// duration minus the part of that interval its child spans cover.
pub fn self_times(spans: &[Span]) -> Vec<SelfTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(kids) = span.parent.and_then(|p| children.get_mut(p as usize)) {
            kids.push((span.start_ns, span.end_ns));
        }
    }
    let mut out: Vec<SelfTime> = Vec::new();
    for (span, kids) in spans.iter().zip(children.iter_mut()) {
        let total = span.end_ns.saturating_sub(span.start_ns);
        let own = total - covered(kids, span.start_ns, span.end_ns);
        match out.iter_mut().find(|s| s.name == span.name) {
            Some(entry) => {
                entry.count += 1;
                entry.total_ns += total;
                entry.self_ns += own;
            }
            None => out.push(SelfTime {
                name: span.name,
                count: 1,
                total_ns: total,
                self_ns: own,
            }),
        }
    }
    out
}

/// Share of the root span's duration that its direct children cover, in
/// percent: how much of the workload the phase spans account for.
pub fn root_coverage_pct(spans: &[Span]) -> f64 {
    let Some(root) = spans.first() else {
        return 0.0;
    };
    let mut phases: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(0))
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    let total = root.end_ns.saturating_sub(root.start_ns);
    if total == 0 {
        return 0.0;
    }
    100.0 * covered(&mut phases, root.start_ns, root.end_ns) as f64 / total as f64
}

pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> Json {
    let span_rows = spans
        .iter()
        .map(|s| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                ),
                ("id", Json::Num(s.id as f64)),
            ])
        })
        .collect();
    let self_rows = self_times(spans)
        .iter()
        .map(|s| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("count", Json::Num(s.count as f64)),
                ("total_ns", Json::Num(s.total_ns as f64)),
                ("self_ns", Json::Num(s.self_ns as f64)),
            ])
        })
        .collect();
    Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::Num(seed as f64)),
        ("phase_coverage_pct", Json::Num(root_coverage_pct(spans))),
        ("self_times", Json::Arr(self_rows)),
        ("spans", Json::Arr(span_rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a` by 10: the union covers 10..60, not 30 + 30.
            span("a", 30, 60, Some(0)),
            span("b", 70, 90, Some(0)),
            span("leaf", 72, 80, Some(3)),
            // A child reaching past its parent is clipped to it.
            span("leaf", 85, 95, Some(3)),
        ];
        let st = self_times(&spans);
        let by = |name: &str| {
            st.iter()
                .find(|s| s.name == name)
                .cloned()
                .expect("present")
        };
        assert_eq!(by("root").self_ns, 100 - 50 - 20);
        assert_eq!(
            (by("a").count, by("a").total_ns, by("a").self_ns),
            (2, 60, 60)
        );
        assert_eq!(by("b").self_ns, 20 - 8 - 5);
        assert_eq!(by("leaf").total_ns, 18);
        assert_eq!(
            st.iter().map(|s| s.name).collect::<Vec<_>>(),
            ["root", "a", "b", "leaf"]
        );
        assert_eq!(root_coverage_pct(&spans), 70.0);
    }

    #[test]
    fn tracer_nests_and_is_silent_when_off() {
        let mut t = Tracer::new(true);
        let root = t.enter("root");
        let inner = t.enter("inner");
        let (a, b) = (Instant::now(), Instant::now());
        t.leaf("call", a, b, 7);
        t.exit(inner);
        t.leaf("after", a, b, 0);
        t.exit(root);
        let parents: Vec<Option<u32>> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(1), Some(0)]);
        assert_eq!(t.spans()[2].id, 7);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);

        let mut off = Tracer::new(false);
        let open = off.enter("root");
        off.leaf("call", a, b, 1);
        off.exit(open);
        assert!(off.spans().is_empty());

        t.pause(true);
        t.leaf("unseen", a, b, 0);
        t.pause(false);
        assert_eq!(t.spans().len(), 4);
    }
}
