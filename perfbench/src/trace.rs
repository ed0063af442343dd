//! In-memory span recorder for the traced benchmark run.
//!
//! A span is a name, a start and an end (nanoseconds since the recorder was
//! created), the span that encloses it, and the pass it belongs to. Spans
//! are only opened by the benchmark's own code around calls into the
//! workspace crates' public functions. Counts (accesses, trace events,
//! findings...) are recorded per pass next to the spans. With the recorder
//! off, [`Tracer::span`] just calls its closure and counts are dropped.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `simt.run/CC/baseline`.
    pub name: String,
    /// Pass the span belongs to (0 is the untimed warm-up pass).
    pub pass: u32,
    /// Index of the enclosing span in [`Tracer::spans`], if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span and count recorder; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pass: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<u32, BTreeMap<String, f64>>,
}

impl Tracer {
    /// A recorder that records (`on`) or only runs closures (`!on`).
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            pass: 0,
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Whether spans and counts are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switches recording on or off for the passes that follow.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "cannot toggle tracing inside a span");
        self.on = on;
    }

    /// Starts attributing spans and counts to pass `pass`.
    pub fn begin_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            pass: self.pass,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        r
    }

    /// Adds `v` to the current pass's count `name`.
    pub fn count(&mut self, name: &str, v: f64) {
        if self.on {
            *self
                .counts
                .entry(self.pass)
                .or_default()
                .entry(name.to_string())
                .or_insert(0.0) += v;
        }
    }

    /// All closed spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count `name` of pass `pass` (0 when never counted).
    pub fn count_of(&self, pass: u32, name: &str) -> f64 {
        self.counts
            .get(&pass)
            .and_then(|c| c.get(name))
            .copied()
            .unwrap_or(0.0)
    }

    /// Summed duration of pass `pass`'s spans whose name satisfies `pick`.
    pub fn secs_of(&self, pass: u32, pick: impl Fn(&str) -> bool) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.pass == pass && pick(&s.name))
            .map(Span::secs)
            .sum()
    }

    /// Self time of every span: its duration minus the time its child spans
    /// cover (children of one span never overlap — they run one after the
    /// other on the recording thread).
    pub fn self_secs(&self) -> Vec<f64> {
        let mut out: Vec<f64> = self.spans.iter().map(Span::secs).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] -= s.secs();
            }
        }
        out
    }

    /// The spans as JSON lines, one object per span, with self time.
    pub fn to_jsonl(&self) -> String {
        let self_secs = self.self_secs();
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"pass\":{},\"name\":\"{}\",\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_s\":{}}}",
                s.pass, s.name, s.start_ns, s.end_ns, self_secs[i]
            );
        }
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parent_and_self_time() {
        let mut t = Tracer::new(true);
        t.begin_pass(3);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.count("things", 2.0);
            t.count("things", 1.0);
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].pass, 3);
        let own = t.self_secs();
        assert!(own[0] >= 0.0 && own[0] < spans[0].secs());
        assert_eq!(own[1], spans[1].secs());
        assert_eq!(t.count_of(3, "things"), 3.0);
        assert_eq!(t.secs_of(3, |n| n == "inner"), spans[1].secs());
    }

    #[test]
    fn off_recorder_runs_closures_only() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        t.count("c", 1.0);
        assert!(t.spans().is_empty());
        assert_eq!(t.count_of(0, "c"), 0.0);
    }
}
