//! Spans recorded by the benchmark around its calls into the simulator.
//!
//! A span has a name, a start and end (nanoseconds since the tracer was
//! created), the span that caused it, and the id of the simulation run it
//! belongs to. Spans are kept in memory and written out once, as JSON
//! lines, when the benchmark ends. A span's *self time* is its duration
//! minus the part of its interval that its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Index of a span in the tracer.
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-boundary name, e.g. `engine.profiled`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The simulation run the span belongs to (0 = not tied to one run).
    pub run: u64,
}

/// Times scopes and, when enabled, records them as spans.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records spans only when `on`.
    #[must_use]
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f`, returning its result and wall duration. When enabled the
    /// scope is recorded as a span, and `f` receives its id to parent the
    /// spans it opens.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        run: u64,
        f: impl FnOnce(&mut Tracer, Option<SpanId>) -> T,
    ) -> (T, Duration) {
        let id = self.on.then(|| {
            self.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                run,
            });
            self.spans.len() - 1
        });
        let t0 = Instant::now();
        let out = f(self, id);
        let took = t0.elapsed();
        if let Some(id) = id {
            let start = t0.duration_since(self.epoch);
            self.spans[id].start_ns = nanos(start);
            self.spans[id].end_ns = nanos(start + took);
        }
        (out, took)
    }

    /// Every recorded span, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"run\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.run, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to its own).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| {
            let clipped = kids
                .into_iter()
                .map(|(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                .filter(|(a, b)| a < b)
                .collect();
            (s.end_ns - s.start_ns).saturating_sub(union_len(clipped))
        })
        .collect()
}

/// Total length covered by a set of half-open intervals.
fn union_len(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Per-name totals: `(count, total ns, self ns)`.
#[must_use]
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let row = out.entry(s.name).or_insert((0, 0, 0));
        row.0 += 1;
        row.1 += s.end_ns - s.start_ns;
        row.2 += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            run: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("run", 0, 100, None),
            span("build", 0, 10, Some(0)),
            span("engine", 20, 90, Some(0)),
            span("render", 95, 99, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![16, 10, 70, 4]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two workers' runs overlap inside one sweep span.
        let spans = [
            span("sweep", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [span("p", 10, 50, None), span("c", 0, 30, Some(0))];
        assert_eq!(self_times(&spans), vec![20, 30]);
    }

    #[test]
    fn grandchildren_count_only_against_their_parent() {
        let spans = [
            span("run", 0, 100, None),
            span("engine", 0, 80, Some(0)),
            span("inner", 0, 50, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 50]);
    }

    #[test]
    fn tracer_records_nesting_only_when_on() {
        let mut off = Tracer::new(false);
        let (v, _) = off.scope("x", None, 0, |_, id| id);
        assert_eq!(v, None);
        assert!(off.spans().is_empty());

        let mut on = Tracer::new(true);
        on.scope("outer", None, 7, |t, id| {
            t.scope("inner", id, 7, |_, _| ());
        });
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let totals = by_name(spans);
        assert_eq!(totals["outer"].0, 1);
        assert!(on.to_jsonl().lines().count() == 2);
    }
}
