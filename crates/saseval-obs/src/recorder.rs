//! The [`Recorder`] sink trait and its two implementations.

use std::collections::BTreeMap;
use std::fmt::{self, Display};
use std::sync::Mutex;

use crate::snapshot::{
    BucketSnapshot, CounterSnapshot, EventSnapshot, GaugeSnapshot, HistogramSnapshot,
    MetricsSnapshot,
};

/// A typed value attached to a structured event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Free-form text.
    Str(String),
}

impl Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::Str(v) => f.write_str(v),
        }
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_owned())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// A metrics sink. Every method has an empty default body, so an
/// implementation overrides only what it stores and a no-op recorder is
/// the trait's default behaviour.
pub trait Recorder: Send + Sync {
    /// Adds `delta` to the counter `name`.
    fn counter(&self, name: &'static str, delta: u64) {
        let _ = (name, delta);
    }

    /// Sets the gauge `name` to `value`.
    fn gauge(&self, name: &'static str, value: f64) {
        let _ = (name, value);
    }

    /// Records `value` into the histogram `name`.
    fn histogram(&self, name: &'static str, value: f64) {
        let _ = (name, value);
    }

    /// Stores a structured event.
    fn event(&self, name: &'static str, fields: &[(&'static str, FieldValue)]) {
        let _ = (name, fields);
    }
}

/// A recorder that drops everything (all trait defaults).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// Upper bucket bounds shared by every histogram: powers of ten from one
/// microsecond-scale value up, suitable both for durations in seconds
/// and small magnitude counts. Values above the last bound land in the
/// implicit `+inf` overflow bucket.
pub const HISTOGRAM_BOUNDS: [f64; 12] =
    [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1e3, 1e4, 1e5];

#[derive(Debug, Clone)]
struct HistogramData {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// Non-cumulative per-bucket counts; index `HISTOGRAM_BOUNDS.len()`
    /// is the overflow bucket.
    buckets: [u64; HISTOGRAM_BOUNDS.len() + 1],
}

impl HistogramData {
    fn new() -> Self {
        HistogramData {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; HISTOGRAM_BOUNDS.len() + 1],
        }
    }

    fn record(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let index = HISTOGRAM_BOUNDS
            .iter()
            .position(|bound| value <= *bound)
            .unwrap_or(HISTOGRAM_BOUNDS.len());
        self.buckets[index] += 1;
    }
}

#[derive(Debug, Default)]
struct MemoryState {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, HistogramData>,
    events: Vec<EventSnapshot>,
}

/// A thread-safe in-memory recorder; the source of [`MetricsSnapshot`]s.
#[derive(Debug, Default)]
pub struct MemoryRecorder {
    state: Mutex<MemoryState>,
}

impl MemoryRecorder {
    fn state(&self) -> std::sync::MutexGuard<'_, MemoryState> {
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The current value of one counter, without building a full
    /// [`MetricsSnapshot`] — cheap enough to call per request (the
    /// campaign server's `stats` frame reads its live counters this
    /// way). `None` if the counter has never been bumped.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.state().counters.get(name).copied()
    }

    /// The current value of one gauge (last write wins); `None` if the
    /// gauge has never been set. Live companion to
    /// [`MemoryRecorder::counter_value`].
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.state().gauges.get(name).copied()
    }

    /// A point-in-time copy of everything recorded so far, with metric
    /// names in sorted order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let state = self.state();
        MetricsSnapshot {
            counters: state
                .counters
                .iter()
                .map(|(name, value)| CounterSnapshot { name: (*name).to_owned(), value: *value })
                .collect(),
            gauges: state
                .gauges
                .iter()
                .map(|(name, value)| GaugeSnapshot { name: (*name).to_owned(), value: *value })
                .collect(),
            histograms: state
                .histograms
                .iter()
                .map(|(name, data)| {
                    let mut cumulative = 0;
                    let buckets = HISTOGRAM_BOUNDS
                        .iter()
                        .zip(&data.buckets)
                        .map(|(bound, count)| {
                            cumulative += count;
                            BucketSnapshot { le: *bound, count: cumulative }
                        })
                        .collect();
                    HistogramSnapshot {
                        name: (*name).to_owned(),
                        count: data.count,
                        sum: data.sum,
                        min: if data.count == 0 { 0.0 } else { data.min },
                        max: if data.count == 0 { 0.0 } else { data.max },
                        buckets,
                    }
                })
                .collect(),
            events: state.events.clone(),
        }
    }
}

impl Recorder for MemoryRecorder {
    fn counter(&self, name: &'static str, delta: u64) {
        *self.state().counters.entry(name).or_insert(0) += delta;
    }

    fn gauge(&self, name: &'static str, value: f64) {
        self.state().gauges.insert(name, value);
    }

    fn histogram(&self, name: &'static str, value: f64) {
        self.state().histograms.entry(name).or_insert_with(HistogramData::new).record(value);
    }

    fn event(&self, name: &'static str, fields: &[(&'static str, FieldValue)]) {
        let event = EventSnapshot {
            name: name.to_owned(),
            fields: fields
                .iter()
                .map(|(key, value)| ((*key).to_owned(), value.to_string()))
                .collect(),
        };
        self.state().events.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_are_inclusive_upper_bounds() {
        let mut data = HistogramData::new();
        // Exactly on a bound goes into that bound's bucket (`le`).
        data.record(1e-3);
        // Just above a bound spills into the next bucket.
        data.record(1.000_001e-3);
        // Below the smallest bound lands in the first bucket.
        data.record(0.0);
        // Above the largest bound lands in the overflow bucket.
        data.record(2e5);

        let le_1ms = HISTOGRAM_BOUNDS.iter().position(|b| *b == 1e-3).expect("bound");
        assert_eq!(data.buckets[le_1ms], 1);
        assert_eq!(data.buckets[le_1ms + 1], 1);
        assert_eq!(data.buckets[0], 1);
        assert_eq!(data.buckets[HISTOGRAM_BOUNDS.len()], 1);
        assert_eq!(data.count, 4);
        assert_eq!(data.min, 0.0);
        assert_eq!(data.max, 2e5);
    }

    #[test]
    fn snapshot_buckets_are_cumulative() {
        let recorder = MemoryRecorder::default();
        recorder.histogram("h", 1e-6);
        recorder.histogram("h", 1e-5);
        recorder.histogram("h", 1e-5);
        let snapshot = recorder.snapshot();
        let histogram = snapshot.histogram("h").expect("histogram");
        assert_eq!(histogram.buckets[0].count, 1, "le 1e-6");
        assert_eq!(histogram.buckets[1].count, 3, "le 1e-5 is cumulative");
        assert_eq!(histogram.buckets.last().expect("buckets").count, 3);
    }

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let recorder = MemoryRecorder::default();
        recorder.counter("c", 1);
        recorder.counter("c", 41);
        recorder.gauge("g", 1.0);
        recorder.gauge("g", 2.0);
        let snapshot = recorder.snapshot();
        assert_eq!(snapshot.counter("c"), Some(42));
        assert_eq!(snapshot.gauge("g"), Some(2.0));
    }

    #[test]
    fn live_single_metric_reads_match_the_snapshot() {
        let recorder = MemoryRecorder::default();
        assert_eq!(recorder.counter_value("c"), None);
        assert_eq!(recorder.gauge_value("g"), None);
        recorder.counter("c", 2);
        recorder.counter("c", 3);
        recorder.gauge("g", 0.75);
        assert_eq!(recorder.counter_value("c"), Some(5));
        assert_eq!(recorder.gauge_value("g"), Some(0.75));
        assert_eq!(recorder.snapshot().counter("c"), recorder.counter_value("c"));
    }

    #[test]
    fn field_values_render() {
        assert_eq!(FieldValue::from(3u64).to_string(), "3");
        assert_eq!(FieldValue::from(-3i64).to_string(), "-3");
        assert_eq!(FieldValue::from(true).to_string(), "true");
        assert_eq!(FieldValue::from("x").to_string(), "x");
        assert_eq!(FieldValue::from(0.5).to_string(), "0.5");
    }
}
