//! Simulation trace recording.
//!
//! Attack descriptions require detectable outcomes ("create dedicated log
//! files", §III-C). Beyond the security log of `security-controls`, the
//! worlds record functional events — mode switches, lock transitions,
//! warnings surfaced — in a [`TraceRecorder`]; the attack executor
//! evaluates success criteria against both.

use std::fmt::{self, Write as _};

use serde::{Deserialize, Serialize};

use saseval_types::SimTime;

/// One functional trace event.
#[derive(Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Virtual time of the event.
    pub at: SimTime,
    /// Emitting component (e.g. `OBU`, `driver`, `lock-actuator`).
    pub source: String,
    /// Event kind (e.g. `take-over-requested`, `lock-open`).
    pub kind: String,
    /// Free-form detail.
    pub detail: String,
}

impl Clone for TraceEvent {
    fn clone(&self) -> Self {
        TraceEvent {
            at: self.at,
            source: self.source.clone(),
            kind: self.kind.clone(),
            detail: self.detail.clone(),
        }
    }

    /// Copies `source` into this event, reusing its string buffers.
    fn clone_from(&mut self, source: &Self) {
        let TraceEvent { at, source: from, kind, detail } = self;
        *at = source.at;
        from.clone_from(&source.source);
        kind.clone_from(&source.kind);
        detail.clone_from(&source.detail);
    }
}

/// An append-only functional trace.
#[derive(Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecorder {
    events: Vec<TraceEvent>,
}

impl Clone for TraceRecorder {
    fn clone(&self) -> Self {
        TraceRecorder { events: self.events.clone() }
    }

    /// Copies `source`'s events into this trace's buffer.
    fn clone_from(&mut self, source: &Self) {
        let TraceRecorder { events } = self;
        events.clone_from(&source.events);
    }
}

impl TraceRecorder {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// All events in record order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events of the given kind.
    pub fn of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a TraceEvent> {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// The first event of the given kind, if any.
    pub fn first_of_kind(&self, kind: &str) -> Option<&TraceEvent> {
        self.events.iter().find(|e| e.kind == kind)
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// A world's trace: a [`TraceRecorder`] that keeps the events a
/// `clone_from` drops and records later events into their string
/// buffers. A scratch world reset to a snapshot before every fuzz input
/// therefore records the input's events without allocating once it has
/// recorded as many before.
#[derive(Debug, Default)]
pub(crate) struct RecycledTrace {
    recorder: TraceRecorder,
    /// Dropped events, the next one to reuse last.
    spare: Vec<TraceEvent>,
}

impl RecycledTrace {
    /// Appends an event; `detail` is formatted into the event's buffer.
    pub(crate) fn record(
        &mut self,
        at: SimTime,
        source: &str,
        kind: &str,
        detail: impl fmt::Display,
    ) {
        let mut event = self.spare.pop().unwrap_or_else(|| TraceEvent {
            at,
            source: String::new(),
            kind: String::new(),
            detail: String::new(),
        });
        event.at = at;
        event.source.clear();
        event.source.push_str(source);
        event.kind.clear();
        event.kind.push_str(kind);
        event.detail.clear();
        write!(event.detail, "{detail}").expect("formatting into a String cannot fail");
        self.recorder.events.push(event);
    }

    /// The recorded trace.
    pub(crate) fn recorder(&self) -> &TraceRecorder {
        &self.recorder
    }
}

impl Clone for RecycledTrace {
    fn clone(&self) -> Self {
        RecycledTrace { recorder: self.recorder.clone(), spare: Vec::new() }
    }

    /// Copies `source`'s events, keeping this trace's surplus events as
    /// spares.
    fn clone_from(&mut self, source: &Self) {
        let RecycledTrace { recorder, spare } = self;
        let kept = source.recorder.events.len();
        if recorder.events.len() > kept {
            spare.extend(recorder.events.drain(kept..).rev());
        }
        recorder.clone_from(&source.recorder);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_filter() {
        let mut recycled = RecycledTrace::default();
        recycled.record(SimTime::ZERO, "OBU", "warning-surfaced", "roadworks");
        recycled.record(SimTime::from_millis(3), "driver", "take-over", "manual control");
        recycled.record(SimTime::from_millis(4), "OBU", "warning-surfaced", "signage");
        let trace = recycled.recorder();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.of_kind("warning-surfaced").count(), 2);
        assert_eq!(trace.first_of_kind("take-over").unwrap().at, SimTime::from_millis(3));
        assert!(trace.first_of_kind("lock-open").is_none());
    }

    #[test]
    fn recycled_trace_reuses_dropped_events() {
        let mut snapshot = RecycledTrace::default();
        snapshot.record(SimTime::ZERO, "OBU", "warning-surfaced", "roadworks");
        let mut scratch = snapshot.clone();
        scratch.record(SimTime::from_millis(1), "driver", "take-over", format_args!("{} s", 2));
        scratch.record(SimTime::from_millis(2), "OBU", "limit-applied", "");
        assert_eq!(scratch.recorder().events()[1].detail, "2 s");
        scratch.clone_from(&snapshot);
        assert_eq!(scratch.recorder(), snapshot.recorder());
        assert_eq!(scratch.spare.len(), 2);
        scratch.record(SimTime::from_millis(3), "lock-actuator", "lock-open", "");
        assert_eq!(scratch.spare.len(), 1, "the first dropped event is reused first");
        let last = scratch.recorder().events().last().expect("recorded");
        assert_eq!(
            (last.source.as_str(), last.kind.as_str(), last.detail.as_str()),
            ("lock-actuator", "lock-open", "")
        );
        assert_eq!(last.at, SimTime::from_millis(3));
    }
}
