//! An in-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; the program under test is not
//! instrumented. A span has a name, start and end (nanoseconds since the
//! recorder's origin), an optional parent and an optional request id.
//! A span may stand for `items` repetitions of one call (micro rows), so
//! the per-call time is its duration divided by `items`. Spans stay in
//! memory and are written out once, at the end.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a span in its recorder.
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `cache.get`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The request this span belongs to; `None` for micro rows.
    pub request: Option<u64>,
    /// Repetitions of the call the span covers.
    pub items: u64,
    /// Free-form detail (a cache tier, a job kind, a suite).
    pub tag: &'static str,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Duration of one covered call, in nanoseconds.
    pub fn per_item_ns(&self) -> f64 {
        self.duration_ns() as f64 / self.items.max(1) as f64
    }
}

/// Records spans in memory. A disabled recorder records nothing, so the
/// same code path serves the untraced comparison run.
#[derive(Debug)]
pub struct SpanRecorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanRecorder {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        SpanRecorder { enabled, origin: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span.
    pub fn start(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: Option<u64>,
    ) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
            items: 1,
            tag: "",
        });
        self.spans.len() - 1
    }

    /// Closes a span.
    pub fn end(&mut self, id: SpanId) {
        if self.enabled {
            let now = self.now_ns();
            self.spans[id].end_ns = now;
        }
    }

    /// Closes a span that covered `items` calls, with a detail tag.
    pub fn end_with(&mut self, id: SpanId, items: u64, tag: &'static str) {
        if self.enabled {
            let now = self.now_ns();
            let span = &mut self.spans[id];
            span.end_ns = now;
            span.items = items;
            span.tag = tag;
        }
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let request = s.request.map_or("null".to_owned(), |r| r.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{request},\"items\":{},\"tag\":\"{}\"}}",
                s.name, s.start_ns, s.end_ns, s.items, s.tag
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children count once; a child
/// running past its parent counts only inside it).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| span.duration_ns() - covered(span.start_ns, span.end_ns, kids))
        .collect()
}

/// Length of the union of `intervals`, clipped to `[start, end]`.
fn covered(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}
