//! In-memory spans, recorded from the benchmark's own files around calls
//! into each layer and written out once at exit.
//!
//! Every host thread (and the main thread, for set-up) owns one
//! [`Recorder`]; nothing is shared while measuring. A span's parent is the
//! span that was open on the same recorder when it began.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What ran (`setup.gen`, `serve_batch`, `probe.reduce_sync`, ...).
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch; `>= start_ns`.
    pub end_ns: u64,
    /// Index (in the same recorder) of the span that caused this one.
    pub parent: Option<usize>,
    /// Host rank, or `MAIN` for the main thread.
    pub host: usize,
    /// Which unit (or set-up repetition, or probe repetition) this span
    /// belongs to; spans of one unit share it.
    pub unit: u64,
}

/// The `host` of spans recorded by the main thread.
pub const MAIN: usize = usize::MAX;

/// Handle returned by [`Recorder::begin`], consumed by [`Recorder::end`].
#[derive(Debug)]
#[must_use = "a span that is never ended is never recorded"]
pub struct Open(usize);

/// One thread's span log.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    host: usize,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    /// A recorder for `host` whose timestamps count from `epoch` (shared
    /// by all recorders of a run so their spans line up).
    pub fn new(epoch: Instant, host: usize) -> Recorder {
        Recorder {
            epoch,
            host,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under whatever span is currently open.
    pub fn begin(&mut self, name: &'static str, unit: u64) -> Open {
        let i = self.spans.len();
        let now = self.now();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            host: self.host,
            unit,
        });
        self.stack.push(i);
        Open(i)
    }

    /// Closes the innermost open span, which must be `open`; returns its
    /// duration in nanoseconds.
    pub fn end(&mut self, open: Open) -> u64 {
        assert_eq!(self.stack.pop(), Some(open.0), "spans must nest");
        let now = self.now();
        let s = &mut self.spans[open.0];
        s.end_ns = now;
        now - s.start_ns
    }

    /// Times `f` as one span and returns its result with the duration in
    /// seconds.
    pub fn time<R>(&mut self, name: &'static str, unit: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.begin(name, unit);
        let r = f();
        (r, self.end(open) as f64 / 1e9)
    }

    /// Records an already-finished interval that began at `since` (for
    /// work that started before this recorder's thread did); returns its
    /// duration in seconds.
    pub fn record_since(&mut self, name: &'static str, unit: u64, since: Instant) -> f64 {
        let open = self.begin(name, unit);
        let start = since.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans[open.0].start_ns = start;
        self.end(open) as f64 / 1e9
    }

    /// The recorded spans, in begin order.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "span left open");
        self.spans
    }
}

/// Self time of every span of one recorder: its duration minus the part
/// of that interval its direct children cover (children of one parent
/// never overlap, because a recorder is single-threaded).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.end_ns - s.start_ns;
        }
    }
    own
}

/// For every span named `parent_name`: the share of its duration covered
/// by its direct children (1.0 for a zero-length span).
pub fn child_coverage(spans: &[Span], parent_name: &str) -> Vec<f64> {
    let own = self_times(spans);
    spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == parent_name)
        .map(|(s, &own)| match s.end_ns - s.start_ns {
            0 => 1.0,
            d => 1.0 - own as f64 / d as f64,
        })
        .collect()
}

/// Serializes the recorders' spans (one slice per recorder) as a JSON
/// array; parents are re-indexed into the flattened array.
pub fn to_json(recorders: &[Vec<Span>]) -> String {
    let mut out = String::from("[\n");
    let mut base = 0;
    let mut first = true;
    for spans in recorders {
        let own = self_times(spans);
        for (s, own) in spans.iter().zip(own) {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let host = match s.host {
                MAIN => "\"main\"".to_string(),
                h => h.to_string(),
            };
            let parent = match s.parent {
                Some(p) => (base + p).to_string(),
                None => "null".to_string(),
            };
            write!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\"parent\":{parent},\"host\":{host},\"unit\":{}}}",
                s.name, s.start_ns, s.end_ns, s.unit
            )
            .expect("write to String");
        }
        base += spans.len();
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            host: 0,
            unit: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("round", 0, 100, None),
            span("compute", 5, 45, Some(0)),
            span("sync", 50, 95, Some(0)),
            span("inner", 60, 70, Some(2)),
        ];
        // round: 100 - 40 - 45; sync: 45 - 10; grandchildren only count
        // against their own parent.
        assert_eq!(self_times(&spans), vec![15, 40, 35, 10]);
        assert_eq!(child_coverage(&spans, "round"), vec![0.85]);
        assert_eq!(child_coverage(&spans, "inner"), vec![0.0]);
    }

    #[test]
    fn recorder_nests_and_links_parents() {
        let mut r = Recorder::new(Instant::now(), 1);
        let outer = r.begin("outer", 7);
        let ((), secs) = r.time("inner", 7, || ());
        assert!(secs >= 0.0);
        r.end(outer);
        let spans = r.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(spans.iter().all(|s| s.host == 1 && s.unit == 7));
    }

    #[test]
    fn json_reindexes_parents_across_recorders() {
        let a = vec![span("a", 0, 10, None)];
        let b = vec![span("b", 0, 10, None), span("c", 1, 2, Some(0))];
        let json = to_json(&[a, b]);
        assert!(
            json.contains("\"name\":\"c\",\"start_ns\":1,\"end_ns\":2,\"self_ns\":1,\"parent\":1,")
        );
        assert_eq!(json.matches("\"parent\":null").count(), 2);
    }
}
