//! In-memory span recording for the traced run.
//!
//! A span is `(name, start, end, parent, sample)`, recorded by the
//! benchmark's own code around each call into a layer. The layer is the
//! span name up to its first `.` (`trace.finish` belongs to `trace`).
//! Spans stay in memory and are written out once, when the run ends, so
//! recording costs two clock reads, an uncontended lock and a push. With
//! recording off (`--trace 0`) every call is a no-op.
//!
//! A layer's self time is its span's duration minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start: u64,
    /// End, ns since origin.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The sample this span belongs to (0 = set-up).
    pub sample: u64,
    /// The rung that sample ran under (empty during set-up).
    pub rung: &'static str,
}

/// Span recorder. Spans nest by call order on the one thread that runs
/// samples; other threads only read the recording.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    state: Mutex<State>,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    sample: (u64, &'static str),
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    spans: &'a Spans,
    index: Option<usize>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(i) = self.index {
            let end = self.spans.now();
            let mut state = self.spans.state();
            state.spans[i].end = end;
            state.open.pop();
        }
    }
}

impl Spans {
    /// A recorder; `enabled == false` records nothing.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    fn state(&self) -> MutexGuard<'_, State> {
        // Recording never panics while holding the lock, so a poisoned
        // lock still holds whole spans.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Attribute the spans opened from now on to `sample`, run under
    /// `rung`.
    pub fn set_sample(&self, sample: u64, rung: &'static str) {
        self.state().sample = (sample, rung);
    }

    /// Open a span; it closes when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                spans: self,
                index: None,
            };
        }
        let start = self.now();
        let mut state = self.state();
        let index = state.spans.len();
        let (sample, rung) = state.sample;
        let parent = state.open.last().copied();
        state.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            sample,
            rung,
        });
        state.open.push(index);
        SpanGuard {
            spans: self,
            index: Some(index),
        }
    }

    /// Every recorded span.
    pub fn snapshot(&self) -> Vec<Span> {
        self.state().spans.clone()
    }

    /// Spans as JSON lines: one object per span.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for s in self.state().spans.iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"sample\":{},\"rung\":\"{}\"}}",
                s.name, s.start, s.end, parent, s.sample, s.rung
            );
        }
        out
    }
}

/// The layer a span belongs to: its name up to the first `.`.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time in nanoseconds of every span: its duration minus the union
/// of its children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(cursor);
                let hi = hi.min(s.end);
                if hi > lo {
                    covered += hi - lo;
                    cursor = hi;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// Total self time (seconds) per layer over all spans.
pub fn layer_self_seconds(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times(spans)) {
        *out.entry(layer_of(s.name).to_string()).or_insert(0.0) += ns as f64 * 1e-9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            sample: 1,
            rung: "trace",
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let spans = vec![
            span("bench.sample", 0, 100, None),
            span("omprt.barrier", 10, 40, Some(0)),
            span("trace.finish", 50, 80, Some(0)),
            span("trace.decode", 60, 70, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![40, 30, 20, 10]);
        let layers = layer_self_seconds(&spans);
        assert!((layers["bench"] - 40e-9).abs() < 1e-15);
        assert!((layers["trace"] - 30e-9).abs() < 1e-15);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = vec![
            span("bench.sample", 0, 100, None),
            span("workloads.rank", 10, 60, Some(0)),
            span("workloads.rank", 30, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn recorder_nests_by_call_order() {
        let spans = Spans::new(true);
        spans.set_sample(3, "trace");
        {
            let _outer = spans.span("bench.sample");
            let _inner = spans.span("core.attach");
        }
        let _after = spans.span("trace.finish");
        drop(_after);
        let got = spans.snapshot();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].parent, None);
        assert_eq!(got[1].parent, Some(0));
        assert_eq!(got[2].parent, None);
        assert!(got
            .iter()
            .all(|s| s.sample == 3 && s.rung == "trace" && s.end >= s.start));
        assert_eq!(spans.to_json_lines().lines().count(), 3);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let spans = Spans::new(false);
        drop(spans.span("bench.sample"));
        assert!(spans.snapshot().is_empty());
    }
}
