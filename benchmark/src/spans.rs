//! In-memory spans around the harness's calls into each layer.
//!
//! One span per call batch (a chunk of packets, the inserts between two
//! ticks, one tick's close): name, start, end, the span that caused it, and
//! the round it belongs to. Spans stay in memory and are written out once,
//! after the last measurement.

use serde_json::Value;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub round: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    epoch: Instant,
    round: u32,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            round: 0,
            spans: Vec::new(),
        }
    }

    /// Later spans belong to `round`.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; it reads as zero-length until [`Self::exit`].
    pub fn enter(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            round: self.round,
        });
        self.spans.len() - 1
    }

    /// Close a span; returns its duration in nanoseconds.
    pub fn exit(&mut self, id: SpanId) -> u64 {
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].duration_ns()
    }

    /// Run `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let id = self.enter(name, parent);
        let out = f();
        (out, self.exit(id))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace file's content.
    pub fn to_json(&self, workload: &str) -> Value {
        let spans = self
            .spans
            .iter()
            .zip(self_times(&self.spans))
            .map(|(s, self_ns)| {
                Value::Map(vec![
                    ("name".into(), Value::Str(s.name.into())),
                    ("start_ns".into(), Value::U64(s.start_ns)),
                    ("end_ns".into(), Value::U64(s.end_ns)),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                    ),
                    ("round".into(), Value::U64(s.round as u64)),
                    ("self_ns".into(), Value::U64(self_ns)),
                ])
            })
            .collect();
        Value::Map(vec![
            ("workload".into(), Value::Str(workload.into())),
            ("spans".into(), Value::Seq(spans)),
        ])
    }
}

/// Each span's self time: its duration minus the part its direct children
/// cover. Children are sequential in this harness (one thread records), so
/// their durations add.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(parent) = s.parent {
            covered[parent] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            round: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("tick", 0, 100, None),
            span("close", 5, 35, Some(0)),
            span("profile", 40, 60, Some(0)),
            span("knn", 42, 50, Some(2)),
            span("other", 0, 1_000, None),
        ];
        assert_eq!(self_times(&spans), [50, 30, 12, 8, 1_000]);
    }

    #[test]
    fn recorder_nests_spans_and_stamps_rounds() {
        let mut r = Recorder::new();
        let root = r.enter("round", None);
        let (_, a) = r.time("layer", Some(root), || std::hint::black_box(1 + 1));
        r.set_round(1);
        let (_, b) = r.time("layer", Some(root), || std::hint::black_box(2 + 2));
        r.exit(root);
        assert_eq!((r.spans()[1].round, r.spans()[2].round), (0, 1));
        assert_eq!(r.spans()[1].parent, Some(root));
        assert!(r.spans()[root].duration_ns() >= a + b);
        assert_eq!(
            self_times(r.spans())[root],
            r.spans()[root].duration_ns() - a - b
        );
        let json = serde_json::to_string(&r.to_json("w")).unwrap();
        assert!(json.contains("\"workload\":\"w\"") && json.contains("\"parent\":null"));
        assert!(json.contains("\"self_ns\":"));
    }
}
