//! Observability for the SaSeVAL workspace: structured events plus a
//! small metrics model (counters, gauges, fixed-bucket histograms and
//! span timers), all keyed by `&'static str` names.
//!
//! The design goal is that instrumentation is *free when off*: code
//! holds a cheap [`Obs`] handle, and the default no-op handle reduces
//! every call to a branch on `None`. When a caller wants data, it swaps
//! in a handle backed by a [`MemoryRecorder`] and takes a
//! [`MetricsSnapshot`] at the end:
//!
//! ```
//! use saseval_obs::Obs;
//!
//! let (obs, recorder) = Obs::memory();
//! obs.counter("demo.items", 3);
//! {
//!     let _span = obs.span("demo.phase");
//!     // ... timed work ...
//! }
//! let snapshot = recorder.snapshot();
//! assert_eq!(snapshot.counter("demo.items"), Some(3));
//! assert_eq!(snapshot.histogram("demo.phase").map(|h| h.count), Some(1));
//! ```
//!
//! Exporters live in [`export`]: [`export::to_json`] embeds a snapshot in
//! machine-readable reports, [`export::to_markdown`] renders it for
//! humans.

pub mod export;
mod recorder;
mod snapshot;

use std::sync::Arc;
use std::time::Instant;

pub use recorder::{FieldValue, MemoryRecorder, NoopRecorder, Recorder};
pub use snapshot::{
    BucketSnapshot, CounterSnapshot, EventSnapshot, GaugeSnapshot, HistogramSnapshot,
    MetricsSnapshot,
};

/// A cheaply cloneable handle through which code emits metrics.
///
/// The default handle is a no-op: every emit method is a branch on
/// `None`. Construct a recording handle with [`Obs::recording`] or
/// [`Obs::memory`].
#[derive(Clone, Default)]
pub struct Obs {
    recorder: Option<Arc<dyn Recorder>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs").field("recording", &self.recorder.is_some()).finish()
    }
}

impl Obs {
    /// A handle that drops everything (the default).
    pub fn noop() -> Self {
        Obs { recorder: None }
    }

    /// A handle forwarding to `recorder`.
    pub fn recording(recorder: Arc<dyn Recorder>) -> Self {
        Obs { recorder: Some(recorder) }
    }

    /// Convenience: a recording handle plus the in-memory recorder
    /// backing it, for taking a [`MetricsSnapshot`] later.
    pub fn memory() -> (Self, Arc<MemoryRecorder>) {
        let recorder = Arc::new(MemoryRecorder::default());
        (Obs::recording(recorder.clone()), recorder)
    }

    /// Whether emits reach a recorder.
    pub fn is_enabled(&self) -> bool {
        self.recorder.is_some()
    }

    /// Adds `delta` to the counter `name`.
    pub fn counter(&self, name: &'static str, delta: u64) {
        if let Some(recorder) = &self.recorder {
            recorder.counter(name, delta);
        }
    }

    /// Sets the gauge `name` to `value` (last write wins).
    pub fn gauge(&self, name: &'static str, value: f64) {
        if let Some(recorder) = &self.recorder {
            recorder.gauge(name, value);
        }
    }

    /// Records `value` into the fixed-bucket histogram `name`.
    pub fn histogram(&self, name: &'static str, value: f64) {
        if let Some(recorder) = &self.recorder {
            recorder.histogram(name, value);
        }
    }

    /// Emits a structured event.
    pub fn event(&self, name: &'static str, fields: &[(&'static str, FieldValue)]) {
        if let Some(recorder) = &self.recorder {
            recorder.event(name, fields);
        }
    }

    /// Starts a wall-clock span; its duration in seconds lands in the
    /// histogram `name` when the guard drops (or via [`Span::finish`]).
    pub fn span(&self, name: &'static str) -> Span {
        Span { obs: self.clone(), name, start: Instant::now(), done: false }
    }
}

/// Guard returned by [`Obs::span`]. Records elapsed wall time into a
/// histogram on drop.
#[derive(Debug)]
pub struct Span {
    obs: Obs,
    name: &'static str,
    start: Instant,
    done: bool,
}

impl Span {
    /// Ends the span now and returns the elapsed seconds.
    pub fn finish(mut self) -> f64 {
        self.done = true;
        let elapsed = self.start.elapsed().as_secs_f64();
        self.obs.histogram(self.name, elapsed);
        elapsed
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.done {
            self.obs.histogram(self.name, self.start.elapsed().as_secs_f64());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_handle_is_side_effect_free() {
        let obs = Obs::noop();
        assert!(!obs.is_enabled());
        obs.counter("c", 1);
        obs.gauge("g", 1.0);
        obs.histogram("h", 1.0);
        obs.event("e", &[("k", FieldValue::U64(1))]);
        let elapsed = obs.span("s").finish();
        assert!(elapsed >= 0.0);
        // The default handle equals an explicitly-noop one.
        assert!(!Obs::default().is_enabled());
    }

    #[test]
    fn recording_handle_collects() {
        let (obs, recorder) = Obs::memory();
        obs.counter("case.total", 2);
        obs.counter("case.total", 3);
        obs.gauge("rate", 0.25);
        obs.gauge("rate", 0.5);
        obs.histogram("latency", 0.004);
        obs.event("verdict", &[("attack", FieldValue::Str("AD20".into()))]);
        obs.span("phase").finish();

        let snapshot = recorder.snapshot();
        assert_eq!(snapshot.counter("case.total"), Some(5));
        assert_eq!(snapshot.gauge("rate"), Some(0.5));
        assert_eq!(snapshot.histogram("latency").map(|h| h.count), Some(1));
        assert_eq!(snapshot.histogram("phase").map(|h| h.count), Some(1));
        assert_eq!(snapshot.events.len(), 1);
        assert_eq!(snapshot.events[0].name, "verdict");
    }

    #[test]
    fn span_drop_records_once() {
        let (obs, recorder) = Obs::memory();
        {
            let _span = obs.span("work");
        }
        let explicit = obs.span("work").finish();
        assert!(explicit >= 0.0);
        assert_eq!(recorder.snapshot().histogram("work").map(|h| h.count), Some(2));
    }
}
