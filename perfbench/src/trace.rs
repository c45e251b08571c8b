//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps a span around each call it makes into a layer of
//! the system. A span carries a name, start and end (nanoseconds since the
//! recorder was created), the index of its parent span, and the id of the
//! request or matrix it belongs to. Spans stay in memory and are written
//! once, when the run ends. A disabled recorder keeps nothing and costs
//! one branch per span.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Layer-qualified name, e.g. `gpusim.measure`.
    pub name: String,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// Request or matrix id the span belongs to.
    pub id: u64,
}

impl SpanRec {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder, shareable across threads.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    /// A recorder that keeps spans only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its index (None when disabled). Close it with
    /// [`Tracer::close`].
    pub fn open(&self, name: &str, parent: Option<usize>, id: u64) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        let mut spans = self
            .spans
            .lock()
            .expect("span store poisoned by a panicking thread");
        spans.push(SpanRec {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
            id,
        });
        Some(spans.len() - 1)
    }

    /// Close a span opened by [`Tracer::open`].
    pub fn close(&self, span: Option<usize>) {
        if let Some(i) = span {
            let end = self.now_ns();
            self.spans
                .lock()
                .expect("span store poisoned by a panicking thread")[i]
                .end_ns = end;
        }
    }

    /// Record a span whose start and end were taken elsewhere.
    pub fn record(&self, name: &str, start: Instant, end: Instant, parent: Option<usize>, id: u64) {
        if !self.on {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans
            .lock()
            .expect("span store poisoned by a panicking thread")
            .push(SpanRec {
                name: name.to_string(),
                start_ns: ns(start),
                end_ns: ns(end),
                parent,
                id,
            });
    }

    /// Run `f` inside a span; `f` receives the span index so nested calls
    /// can name it as their parent.
    pub fn time<R>(
        &self,
        name: &str,
        parent: Option<usize>,
        id: u64,
        f: impl FnOnce(Option<usize>) -> R,
    ) -> R {
        let span = self.open(name, parent, id);
        let out = f(span);
        self.close(span);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking thread")
            .clone()
    }

    /// Write every span as one JSON document.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let selfs = self_times_ns(&spans);
        let mut out = String::from("{\"spans\":[\n");
        for (i, (s, self_ns)) in spans.iter().zip(&selfs).enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"i\":{i},\"name\":{:?},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"parent\":{parent},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id
            ));
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once).
pub fn self_times_ns(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let a = s.start_ns.max(parent.start_ns);
            let b = s.end_ns.min(parent.end_ns);
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals of self time, in milliseconds.
pub fn self_ms_by_name(spans: &[SpanRec]) -> BTreeMap<String, f64> {
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.name.clone()).or_default() += ns as f64 / 1e6;
    }
    out
}

/// Durations (ms) of every span called `name`.
pub fn durations_ms(spans: &[SpanRec], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> SpanRec {
        SpanRec {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 35, Some(1)),
            span("b", 50, 60, Some(0)),
        ];
        // root: 100 - (30 + 10); a: 30 - 20; leaves keep their duration.
        assert_eq!(self_times_ns(&spans), vec![60, 10, 20, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        let spans = vec![
            span("root", 0, 100, None),
            span("x", 10, 50, Some(0)),
            span("y", 30, 70, Some(0)),
            // Ends after its parent: only the covered part counts.
            span("z", 90, 130, Some(0)),
        ];
        // Union of children inside root: [10, 70) + [90, 100) = 70.
        assert_eq!(self_times_ns(&spans)[0], 30);
        let by_name = self_ms_by_name(&spans);
        assert!((by_name["root"] - 30e-6).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_and_disabled_recorder_keeps_nothing() {
        let t = Tracer::new(true);
        let v = t.time("outer", None, 7, |p| t.time("inner", p, 7, |_| 42));
        assert_eq!(v, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let off = Tracer::new(false);
        off.time("outer", None, 0, |_| ());
        assert!(off.spans().is_empty());
    }
}
