//! Spans the harness records around its own calls into each layer.
//!
//! A span is `(name, start, end, parent)` plus optional counts taken at
//! the same boundary; all spans of one run share the workload's name as
//! their identifier. They are kept in memory and written out once, at
//! exit. A disabled tracer records nothing, so the untraced set pays
//! nothing for the traced set's bookkeeping.
//!
//! In-program spans (ROADMAP item 1b) are a later change; these sit in
//! the benchmark's own files, around public-API calls.

use std::time::Instant;

use stats::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counts taken at the span's boundaries (deltas over the span).
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    workload: &'static str,
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &'static str, enabled: bool) -> Self {
        Tracer {
            workload,
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one. Returns its id (meaningless
    /// when disabled).
    pub fn enter(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
            counts: Vec::new(),
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize, counts: &[(&'static str, u64)]) {
        if !self.enabled {
            return;
        }
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        let now = self.now_ns();
        let s = &mut self.spans[id];
        s.end_ns = now;
        s.counts.extend_from_slice(counts);
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id, &[]);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self) -> Json {
        let mut arr = Json::arr();
        for (id, s) in self.spans.iter().enumerate() {
            let mut o = Json::obj();
            o.set("id", Json::U64(id as u64));
            o.set("name", Json::str(s.name));
            match s.parent {
                Some(p) => o.set("parent", Json::U64(p as u64)),
                None => o.set("parent", Json::Null),
            };
            o.set("start_ns", Json::U64(s.start_ns));
            o.set("end_ns", Json::U64(s.end_ns));
            o.set("self_ns", Json::U64(self_ns(&self.spans, id)));
            for &(k, v) in &s.counts {
                o.set(k, Json::U64(v));
            }
            arr.push(o);
        }
        let mut root = Json::obj();
        root.set("workload", Json::str(self.workload));
        root.set("spans", arr);
        root
    }
}

/// A span's self time: its duration minus the part its direct children
/// cover (children of one parent never overlap — the harness is
/// single-threaded and spans nest).
pub fn self_ns(spans: &[Span], id: usize) -> u64 {
    let children: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(Span::duration_ns)
        .sum();
    spans[id].duration_ns().saturating_sub(children)
}

/// Total duration in seconds of the spans called `name` in `spans`.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64)
        .sum::<f64>()
        / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            parent,
            start_ns,
            end_ns,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // 0: [0, 100] with children 1: [10, 40] and 2: [50, 70];
        // 3: [20, 30] is a grandchild and must not be subtracted twice.
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 40),
            span(Some(0), 50, 70),
            span(Some(1), 20, 30),
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 30 - 20);
        assert_eq!(self_ns(&spans, 1), 30 - 10);
        assert_eq!(self_ns(&spans, 2), 20);
        assert_eq!(self_ns(&spans, 3), 10);
    }

    #[test]
    fn tracer_nests_and_disabled_records_nothing() {
        let mut t = Tracer::new("w", true);
        let outer = t.enter("outer");
        t.span("inner", || ());
        t.exit(outer, &[("events", 7)]);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].counts, vec![("events", 7)]);
        assert!(t.spans()[0].duration_ns() >= t.spans()[1].duration_ns());

        let mut off = Tracer::new("w", false);
        let id = off.enter("x");
        off.exit(id, &[]);
        assert!(off.spans().is_empty());
    }
}
