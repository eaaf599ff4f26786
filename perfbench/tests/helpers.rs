//! Tests for the benchmark's own helpers: the percentile rule, span
//! self times, seeded job sequences, the Zipf and re-spelling
//! generators, and the client-side frame scan.

use std::collections::HashSet;

use saseval_perfbench::frame::{self, Frame};
use saseval_perfbench::spans::{self_times, Span};
use saseval_perfbench::stats::{beyond, percentile, supports};
use saseval_perfbench::workload::{
    campaign_mix_job, fuzz_fresh_job, lint_combinations, replay_request, replay_working_set,
    respell, zipf_cdf, zipf_draw, Job, Kind, SplitMix, FUZZ_BLOCK, FUZZ_LONG, MEMORY_TIER_ENTRIES,
    MIX_BLOCK, MIX_HEAD, WORKING_SET,
};
use saseval_server::cache::FramedPayload;
use saseval_server::job::{ControlsPreset, JobSpec, SuiteName};
use saseval_server::protocol::done_head;

#[test]
fn percentile_is_nearest_rank() {
    let samples: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&samples, 50.0), 50.0);
    assert_eq!(percentile(&samples, 99.0), 99.0);
    assert_eq!(percentile(&samples, 100.0), 100.0);
    assert_eq!(percentile(&[7.0], 99.0), 7.0);
}

#[test]
fn p99_needs_ten_samples_beyond_it() {
    assert_eq!(beyond(1000, 99.0), 10);
    assert!(supports(1000, 99.0));
    assert_eq!(beyond(999, 99.0), 9);
    assert!(!supports(999, 99.0));
    assert!(supports(20, 50.0));
    assert!(!supports(0, 50.0));
}

fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span { name: "s", start_ns, end_ns, parent, request: Some(1), items: 1, tag: "" }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let spans = vec![
        span(0, 100, None),
        // Overlapping children count once; the part of a child past
        // its parent's end does not count against the parent.
        span(10, 30, Some(0)),
        span(20, 40, Some(0)),
        span(90, 120, Some(0)),
        // A grandchild is charged to its own parent only.
        span(12, 18, Some(1)),
    ];
    assert_eq!(self_times(&spans), vec![60, 14, 20, 30, 6]);
}

#[test]
fn a_span_without_children_is_all_self_time() {
    assert_eq!(self_times(&[span(5, 9, None)]), vec![4]);
}

fn lines(jobs: impl Iterator<Item = Job>) -> Vec<String> {
    jobs.map(|j| j.line).collect()
}

#[test]
fn fresh_sequences_are_fixed_by_the_seed() {
    let fuzz = |seed| lines((0..300).map(|i| fuzz_fresh_job(seed, i)));
    assert_eq!(fuzz(7), fuzz(7));
    assert_ne!(fuzz(7), fuzz(8));
    let mix = |seed| lines((0..300).map(|i| campaign_mix_job(seed, i)));
    assert_eq!(mix(7), mix(7));
    assert_ne!(mix(7), mix(8));
}

#[test]
fn replay_sequences_are_fixed_by_the_seed() {
    let set = replay_working_set(7);
    assert_eq!(lines(set.iter().cloned()), lines(replay_working_set(7).into_iter()));
    assert_ne!(lines(set.iter().cloned()), lines(replay_working_set(8).into_iter()));
    let cdf = zipf_cdf(set.len(), 1.0);
    let requests = |seed| (0..500).map(|i| replay_request(seed, i, &set, &cdf)).collect::<Vec<_>>();
    assert_eq!(requests(7), requests(7));
    assert_ne!(requests(7), requests(8));
}

#[test]
fn fresh_workloads_never_repeat_a_job() {
    for job in [fuzz_fresh_job as fn(u64, usize) -> Job, campaign_mix_job] {
        let keys: HashSet<u64> = (0..1500).map(|i| job(3, i).spec.cache_key()).collect();
        assert_eq!(keys.len(), 1500);
    }
}

#[test]
fn fuzz_fresh_mixes_scenarios_and_presets_exactly() {
    let mut counts = std::collections::BTreeMap::new();
    let mut long = 0;
    for i in 0..6 * FUZZ_BLOCK {
        let JobSpec::Fuzz(job) = fuzz_fresh_job(5, i).spec else { panic!("fuzz job") };
        let class = format!("{:?}", job.scenario);
        let class = class.split(" {").next().unwrap_or_default().to_owned();
        let preset = match job.scenario {
            saseval_server::job::ScenarioSpec::Keyless(s) => s.controls,
            saseval_server::job::ScenarioSpec::Construction(s) => s.controls,
        };
        if job.iterations >= 4096 {
            assert!(job.iterations <= 4352);
            assert!(class.starts_with("Keyless") && preset == ControlsPreset::None, "{job:?}");
            long += 1;
            continue;
        }
        assert!((768..=1280).contains(&job.iterations));
        *counts.entry((class, format!("{preset:?}"))).or_insert(0) += 1;
    }
    assert_eq!(long, 6 * FUZZ_LONG);
    assert_eq!(counts.len(), 6);
    assert!(counts.values().all(|&n| n == FUZZ_BLOCK - FUZZ_LONG), "{counts:?}");
}

#[test]
fn campaign_mix_runs_every_lint_combination_once_and_keeps_its_layout() {
    let jobs: Vec<Job> = (0..MIX_HEAD + 20 * MIX_BLOCK).map(|i| campaign_mix_job(9, i)).collect();
    let lint: Vec<String> =
        jobs.iter().filter(|j| j.kind() == Kind::Lint).map(|j| j.line.clone()).collect();
    assert_eq!(lint.len(), lint_combinations().len());
    assert_eq!(lint.iter().collect::<HashSet<_>>().len(), lint.len());
    // The heaviest jobs open the sequence.
    for job in &jobs[..MIX_HEAD] {
        assert!(job.line.contains("Ablation"), "{}", job.line);
    }
    assert!(jobs[MIX_HEAD..].iter().all(|j| !j.line.contains("Ablation")));
    // A block past the lint slots has the fixed class counts.
    let block = &jobs[MIX_HEAD + 19 * MIX_BLOCK..];
    let full = block
        .iter()
        .filter(|j| matches!(j.spec, JobSpec::Campaign(c) if c.suite == SuiteName::Full))
        .count();
    let scenario = block.iter().filter(|j| j.kind() == Kind::Scenario).count();
    assert_eq!((full, scenario), (2, 70));
}

#[test]
fn zipf_cdf_is_normalised_and_skewed() {
    let cdf = zipf_cdf(WORKING_SET, 1.0);
    assert!(cdf.windows(2).all(|w| w[0] < w[1]));
    assert!((cdf[WORKING_SET - 1] - 1.0).abs() < 1e-12);
    let mut rng = SplitMix::new(1);
    let draws = 200_000;
    let mut hot = 0;
    let mut first = 0;
    for _ in 0..draws {
        let rank = zipf_draw(&cdf, &mut rng);
        assert!(rank < WORKING_SET);
        hot += usize::from(rank < MEMORY_TIER_ENTRIES);
        first += usize::from(rank == 0);
    }
    let share = |n: usize| n as f64 / draws as f64;
    // Rank 1 carries 1/H(512) ≈ 0.147 of the mass; the 128 hottest
    // ranks H(128)/H(512) ≈ 0.796.
    assert!((share(first) - cdf[0]).abs() < 0.005, "{}", share(first));
    assert!((share(hot) - cdf[MEMORY_TIER_ENTRIES - 1]).abs() < 0.005, "{}", share(hot));
    assert!((cdf[MEMORY_TIER_ENTRIES - 1] - 0.796).abs() < 0.01);
}

#[test]
fn respelling_keeps_the_key_and_changes_the_text() {
    let set = replay_working_set(11);
    let mut rng = SplitMix::new(3);
    let mut changed = 0;
    for job in &set {
        for _ in 0..4 {
            let text = respell(&job.spec, &mut rng);
            let spec: JobSpec = serde_json::from_str(&text).expect("re-spelled text parses");
            assert_eq!(spec.cache_key(), job.spec.cache_key(), "{text} vs {}", job.line);
            changed += usize::from(text != job.line);
        }
    }
    // Campaign jobs have only two fields to reorder, so some spellings
    // coincide with the canonical one; most do not.
    assert!(changed * 2 > set.len() * 4, "{changed}");
}

#[test]
fn replay_requests_respell_a_seeded_share() {
    let set = replay_working_set(2);
    let cdf = zipf_cdf(set.len(), 1.0);
    let requests: Vec<_> = (0..20_000).map(|i| replay_request(2, i, &set, &cdf)).collect();
    let respelled = requests.iter().filter(|r| r.respelled).count() as f64 / 20_000.0;
    assert!((respelled - 0.1).abs() < 0.01, "{respelled}");
    for r in requests.iter().filter(|r| !r.respelled) {
        assert_eq!(r.line, set[r.entry].line);
    }
}

#[test]
fn the_frame_scan_slices_the_exact_payload() {
    let payload = br#"{"Campaign":{"results":[{"label":"a,\"payload\":b"}]}}"#;
    let stats =
        saseval_server::FreshStats { elapsed_seconds: 0.25, inputs_per_sec: None, cases: Some(3) };
    let mut line = done_head("42", 0xAB, "miss", Some(&stats));
    line.extend_from_slice(FramedPayload::frame(payload).tail());
    match frame::parse(&line) {
        Frame::Done { id, cache, elapsed_s, payload: got } => {
            assert_eq!((id, cache, elapsed_s), (42, "miss", Some(0.25)));
            assert_eq!(got, payload);
        }
        other => panic!("not a done frame: {other:?}"),
    }
    let hit =
        [done_head("7", 1, "disk", None), FramedPayload::frame(b"{}").tail().to_vec()].concat();
    assert!(matches!(
        frame::parse(&hit),
        Frame::Done { id: 7, cache: "disk", elapsed_s: None, .. }
    ));
    assert!(matches!(
        frame::parse(br#"{"id":"3","event":"error","message":"nope"}"#),
        Frame::Error { id: Some(3), ref message } if message == "nope"
    ));
    assert_eq!(frame::parse(br#"{"id":"3","event":"accepted","key":"00"}"#), Frame::Interim);
    assert_eq!(frame::parse(b"garbage"), Frame::Malformed);
}

#[test]
fn windowed_p99_shrugs_off_one_stalled_window() {
    use saseval_perfbench::stats::windowed_percentile;
    // 10 000 requests in completion order: ten windows of 1000, one of
    // which stalls with a slow tail.
    let order: Vec<f64> = (0..10_000).map(f64::from).collect();
    let samples: Vec<f64> = (0..10_000)
        .map(|i| if (3000..3200).contains(&i) { 50.0 } else { 1.0 + (i % 100) as f64 / 100.0 })
        .collect();
    assert_eq!(percentile(&saseval_perfbench::stats::sorted(&samples), 99.0), 50.0);
    // Each calm window's p99 is its 990th of 1000 values, 1.98.
    assert!((windowed_percentile(&samples, &order, 99.0) - 1.98).abs() < 1e-9);
    // Fewer than two windows' worth: the plain percentile.
    assert_eq!(
        windowed_percentile(&samples[..1500], &order[..1500], 99.0),
        percentile(&saseval_perfbench::stats::sorted(&samples[..1500]), 99.0)
    );
}

#[test]
fn window_sizes_follow_the_percentile_rule() {
    use saseval_perfbench::stats::{window_size, MIN_WINDOW};
    assert_eq!(window_size(99.0), 1000);
    assert_eq!(window_size(50.0), MIN_WINDOW);
}

#[test]
fn windowed_rate_ignores_one_stalled_window() {
    use saseval_perfbench::stats::windowed_rate;
    // 100 completions per second for 10 s, except a 1 s stall after
    // the 500th completion.
    let times: Vec<f64> =
        (1..=1000).map(|i| f64::from(i) / 100.0 + if i > 500 { 1.0 } else { 0.0 }).collect();
    assert!((windowed_rate(&times) - 100.0).abs() < 1e-6);
    assert!(1000.0 / times[999] < 91.0);
}
