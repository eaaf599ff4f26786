//! Campaign runner: executes suites of test cases and aggregates results.

use saseval_obs::Obs;
use serde::{Deserialize, Serialize};

use crate::executor::{execute_with_obs, ExecutionResult, TestCase};

/// Aggregated results of a campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Per-case results, in case order.
    pub results: Vec<ExecutionResult>,
}

impl CampaignReport {
    /// Number of executed cases.
    pub fn total(&self) -> usize {
        self.results.len()
    }

    /// Number of cases where the attack succeeded (a safety impact
    /// materialized).
    pub fn successes(&self) -> usize {
        self.results.iter().filter(|r| r.attack_succeeded).count()
    }

    /// Number of cases with detection evidence.
    pub fn detections(&self) -> usize {
        self.results.iter().filter(|r| r.detected).count()
    }

    /// Attack success rate over the campaign (0.0–1.0); 0.0 for an empty
    /// campaign.
    pub fn success_rate(&self) -> f64 {
        if self.results.is_empty() {
            return 0.0;
        }
        self.successes() as f64 / self.results.len() as f64
    }

    /// Results for one attack description.
    pub fn for_attack<'a>(
        &'a self,
        attack_id: &'a str,
    ) -> impl Iterator<Item = &'a ExecutionResult> {
        self.results.iter().filter(move |r| r.attack_id == attack_id)
    }
}

/// Runs all cases serially, preserving order.
pub fn run_campaign(cases: &[TestCase]) -> CampaignReport {
    run_campaign_with_obs(cases, &Obs::noop())
}

/// [`run_campaign`] with metrics: the whole campaign is timed under the
/// `campaign.run_seconds` span and progress/verdict counts land in the
/// `campaign.*` counters (in addition to per-case `case.*` metrics).
pub fn run_campaign_with_obs(cases: &[TestCase], obs: &Obs) -> CampaignReport {
    let span = obs.span("campaign.run_seconds");
    let results: Vec<ExecutionResult> =
        cases.iter().map(|case| execute_with_obs(case, obs)).collect();
    record_campaign_totals(&results, obs);
    span.finish();
    CampaignReport { results }
}

fn record_campaign_totals(results: &[ExecutionResult], obs: &Obs) {
    obs.counter("campaign.cases", results.len() as u64);
    obs.counter("campaign.succeeded", results.iter().filter(|r| r.attack_succeeded).count() as u64);
    obs.counter("campaign.detected", results.iter().filter(|r| r.detected).count() as u64);
}

/// Runs all cases on a scoped thread pool, preserving result order. Each
/// case is independent (worlds are self-contained), so this is
/// embarrassingly parallel.
///
/// Workers claim case indices from a shared atomic counter and send
/// `(index, result)` pairs over a channel; only the coordinating thread
/// writes into the result vector, so no lock is held around result
/// storage (the old implementation serialized every completion on a
/// mutex over the whole vector).
pub fn run_campaign_parallel(cases: &[TestCase], threads: usize) -> CampaignReport {
    run_campaign_parallel_with_obs(cases, threads, &Obs::noop())
}

/// [`run_campaign_parallel`] with metrics. Workers emit per-case `case.*`
/// metrics through their own handle clones; the coordinating thread
/// records `campaign.completed` progress as results arrive, so campaign
/// bookkeeping never contends with workers.
pub fn run_campaign_parallel_with_obs(
    cases: &[TestCase],
    threads: usize,
    obs: &Obs,
) -> CampaignReport {
    let threads = threads.clamp(1, cases.len().max(1));
    if threads == 1 {
        return run_campaign_with_obs(cases, obs);
    }
    let span = obs.span("campaign.run_seconds");
    let mut results: Vec<Option<ExecutionResult>> = Vec::new();
    results.resize_with(cases.len(), || None);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let (sender, receiver) = std::sync::mpsc::channel();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let sender = sender.clone();
            let next = &next;
            let worker_obs = obs.clone();
            scope.spawn(move || loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= cases.len() {
                    break;
                }
                let result = execute_with_obs(&cases[i], &worker_obs);
                if sender.send((i, result)).is_err() {
                    break;
                }
            });
        }
        drop(sender);
        for (i, result) in receiver.iter() {
            results[i] = Some(result);
            obs.counter("campaign.completed", 1);
        }
    });

    let results: Vec<ExecutionResult> =
        results.into_iter().map(|r| r.expect("all cases executed")).collect();
    record_campaign_totals(&results, obs);
    span.finish();
    CampaignReport { results }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::AttackKind;
    use vehicle_sim::config::ControlSelection;

    fn small_suite() -> Vec<TestCase> {
        vec![
            TestCase {
                attack_id: "AD20".into(),
                label: "undefended".into(),
                kind: AttackKind::V2xFlood { per_tick: 40 },
                controls: ControlSelection::none(),
                seed: 1,
            },
            TestCase {
                attack_id: "AD20".into(),
                label: "defended".into(),
                kind: AttackKind::V2xFlood { per_tick: 40 },
                controls: ControlSelection::all(),
                seed: 1,
            },
            TestCase {
                attack_id: "AD06".into(),
                label: "jam".into(),
                kind: AttackKind::V2xJam,
                controls: ControlSelection::all(),
                seed: 1,
            },
        ]
    }

    #[test]
    fn serial_campaign_aggregates() {
        let report = run_campaign(&small_suite());
        assert_eq!(report.total(), 3);
        assert_eq!(report.successes(), 2, "undefended flood + jam succeed");
        assert!(report.success_rate() > 0.6 && report.success_rate() < 0.7);
        assert_eq!(report.for_attack("AD20").count(), 2);
    }

    #[test]
    fn parallel_matches_serial() {
        let suite = small_suite();
        let serial = run_campaign(&suite);
        let parallel = run_campaign_parallel(&suite, 4);
        assert_eq!(serial.total(), parallel.total());
        for (s, p) in serial.results.iter().zip(&parallel.results) {
            assert_eq!(s.attack_id, p.attack_id);
            assert_eq!(s.attack_succeeded, p.attack_succeeded);
            assert_eq!(s.detected, p.detected);
            assert_eq!(s.violated_goals, p.violated_goals);
        }
    }

    #[test]
    fn campaign_metrics_recorded() {
        let (obs, recorder) = Obs::memory();
        let report = run_campaign_with_obs(&small_suite(), &obs);
        let snapshot = recorder.snapshot();
        assert_eq!(snapshot.counter("campaign.cases"), Some(3));
        assert_eq!(snapshot.counter("campaign.succeeded"), Some(report.successes() as u64));
        assert_eq!(snapshot.counter("campaign.detected"), Some(report.detections() as u64));
        assert_eq!(snapshot.histogram("campaign.run_seconds").map(|h| h.count), Some(1));
        for phase in ["case.precondition_seconds", "case.inject_seconds", "case.evaluate_seconds"] {
            assert_eq!(snapshot.histogram(phase).map(|h| h.count), Some(3), "{phase}");
        }
        assert_eq!(snapshot.events.iter().filter(|e| e.name == "case.verdict").count(), 3);
        // The worlds' own instrumentation flows through the same handle.
        assert!(snapshot.counter("world.construction.ticks").unwrap_or(0) > 0);
    }

    #[test]
    fn parallel_campaign_metrics_track_progress() {
        let (obs, recorder) = Obs::memory();
        let report = run_campaign_parallel_with_obs(&small_suite(), 2, &obs);
        let snapshot = recorder.snapshot();
        assert_eq!(snapshot.counter("campaign.completed"), Some(report.total() as u64));
        assert_eq!(snapshot.counter("campaign.cases"), Some(report.total() as u64));
        assert_eq!(snapshot.events.iter().filter(|e| e.name == "case.verdict").count(), 3);
    }

    #[test]
    fn empty_campaign() {
        let report = run_campaign(&[]);
        assert_eq!(report.total(), 0);
        assert_eq!(report.success_rate(), 0.0);
    }
}
