//! Properties of the crash-triage subsystem: the ddmin minimizer
//! (crash-preserving, non-lengthening, 1-minimal, deterministic,
//! budget-safe) and the serial fuzz→minimize→persist→replay loop.

use proptest::prelude::*;

use saseval::fuzz::corpus::{Corpus, Replayer};
use saseval::fuzz::fuzzer::{Fuzzer, TargetResponse, TriageConfig};
use saseval::fuzz::minimize::{minimize, MinimizeConfig};
use saseval::fuzz::model::v2x_warning_model;
use saseval::obs::Obs;
use saseval::tara::tree::{AttackTree, TreeNode};
use saseval::tara::AttackPath;

/// The crash predicate minimization preserves in these tests: the input
/// contains the contiguous needle pair `[0xAB, 0xCD]`. Its unique
/// 1-minimal crashing input is the bare pair.
fn has_needle(bytes: &[u8]) -> bool {
    bytes.windows(2).any(|w| w == [0xAB, 0xCD])
}

/// A crashing input: `noise` with the needle pair spliced in at `at`.
fn crashing_input(noise: &[u8], at: usize) -> Vec<u8> {
    let at = at % (noise.len() + 1);
    let mut input = noise[..at].to_vec();
    input.extend([0xAB, 0xCD]);
    input.extend(&noise[at..]);
    input
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn minimized_input_still_crashes_and_never_grows(
        noise in proptest::collection::vec(any::<u8>(), 0..64),
        at in any::<usize>(),
    ) {
        let input = crashing_input(&noise, at);
        let result = minimize(&input, has_needle, &MinimizeConfig::default(), &Obs::noop());
        prop_assert!(has_needle(&result.output), "minimization lost the crash");
        prop_assert!(result.output.len() <= input.len());
        prop_assert_eq!(result.original_len, input.len());
        prop_assert!((0.0..=1.0).contains(&result.reduction_ratio()));
    }

    #[test]
    fn minimized_input_is_one_minimal(
        noise in proptest::collection::vec(any::<u8>(), 0..48),
        at in any::<usize>(),
    ) {
        let input = crashing_input(&noise, at);
        let result = minimize(&input, has_needle, &MinimizeConfig::default(), &Obs::noop());
        prop_assert!(result.one_minimal);
        prop_assert!(!result.budget_exhausted);
        // The needle predicate has exactly one 1-minimal crasher.
        prop_assert_eq!(&result.output, &vec![0xAB, 0xCD]);
        // 1-minimality, checked directly: removing any single byte of
        // the output un-crashes it.
        for skip in 0..result.output.len() {
            let mut shorter = result.output.clone();
            shorter.remove(skip);
            prop_assert!(!has_needle(&shorter), "removing byte {skip} still crashes");
        }
    }

    #[test]
    fn minimization_is_deterministic(
        noise in proptest::collection::vec(any::<u8>(), 0..64),
        at in any::<usize>(),
        budget in 8usize..512,
    ) {
        let input = crashing_input(&noise, at);
        let config = MinimizeConfig { max_steps: budget };
        let first = minimize(&input, has_needle, &config, &Obs::noop());
        let second = minimize(&input, has_needle, &config, &Obs::noop());
        prop_assert_eq!(first.output, second.output);
        prop_assert_eq!(first.steps, second.steps);
        prop_assert_eq!(first.one_minimal, second.one_minimal);
        prop_assert_eq!(first.budget_exhausted, second.budget_exhausted);
    }

    /// Exhausting the step budget yields a *partial* result: still
    /// crashing, never longer — and flagged, never silently 1-minimal.
    #[test]
    fn budget_exhaustion_is_safe_and_flagged(
        noise in proptest::collection::vec(any::<u8>(), 16..64),
        at in any::<usize>(),
        budget in 1usize..8,
    ) {
        let input = crashing_input(&noise, at);
        let config = MinimizeConfig { max_steps: budget };
        let result = minimize(&input, has_needle, &config, &Obs::noop());
        prop_assert!(has_needle(&result.output));
        prop_assert!(result.output.len() <= input.len());
        prop_assert!(result.steps <= budget);
        if result.budget_exhausted {
            prop_assert!(!result.one_minimal);
        }
    }
}

fn paths() -> Vec<AttackPath> {
    AttackTree::new(
        "open the vehicle",
        TreeNode::or(
            "ways",
            vec![
                TreeNode::leaf_on("replay recorded command", "BLE_PHONE"),
                TreeNode::leaf_on("forge command", "ECU_GW"),
            ],
        ),
    )
    .expect("tree")
    .paths()
    .expect("paths")
}

/// Crashes on any input containing the poison byte `0xEE` — a crash
/// that genuinely shrinks (its 1-minimal form is the single byte), so
/// the test exercises the minimized-entry path.
fn crashy_target(input: &[u8]) -> TargetResponse {
    if input.contains(&0xEE) {
        TargetResponse::Crash
    } else if input.first().is_some_and(|t| (1..=3).contains(t)) {
        TargetResponse::Accepted
    } else {
        TargetResponse::Rejected
    }
}

/// End to end: a serial run with triage persists every deduped crash
/// (plus its minimized form) into the corpus, and the corpus replays
/// clean against the oracle that produced it.
#[test]
fn serial_triage_persists_and_replays_clean() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static DIR_COUNTER: AtomicUsize = AtomicUsize::new(0);
    let corpus_dir = std::env::temp_dir().join(format!(
        "saseval-crash-triage-{}-{}",
        std::process::id(),
        DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));

    let attack_paths = paths();
    let model = v2x_warning_model();
    let report = Fuzzer::new(model.clone(), 11).with_triage(TriageConfig::new(&corpus_dir)).run(
        &attack_paths,
        3_000,
        1,
        |_| crashy_target,
    );
    assert!(!report.crashes.is_empty(), "the seeded bugs must fire");

    let corpus = Corpus::open(&corpus_dir);
    let entries = corpus.entries(&model.name).expect("entries");
    // Every entry still crashes, and its sidecar says so.
    for entry in &entries {
        assert_eq!(entry.meta.expected, TargetResponse::Crash, "{}", entry.meta.hash);
        assert_eq!(crashy_target(&entry.bytes), TargetResponse::Crash);
        assert_eq!(entry.meta.seed, 11);
    }
    // The corpus is exactly the deduplicated union of the crashes as
    // found plus their minimized forms.
    use saseval::fuzz::corpus::content_hash;
    let mut expected: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    let mut shrank = 0usize;
    for finding in &report.crashes {
        expected.insert(content_hash(&finding.input));
        let result = minimize(
            &finding.input,
            |b| crashy_target(b) == TargetResponse::Crash,
            &MinimizeConfig::default(),
            &Obs::noop(),
        );
        if result.output != finding.input {
            shrank += 1;
        }
        expected.insert(content_hash(&result.output));
    }
    let stored: std::collections::BTreeSet<String> =
        entries.iter().map(|e| e.meta.hash.clone()).collect();
    assert_eq!(stored, expected);
    assert!(shrank > 0, "at least one crash must genuinely shrink");
    // minimized_from links never dangle.
    for entry in entries.iter().filter(|e| e.meta.minimized_from.is_some()) {
        let from = entry.meta.minimized_from.as_ref().unwrap();
        assert!(entries.iter().any(|e| &e.meta.hash == from), "minimized_from {from} dangles");
    }
    // The corpus replays clean against the oracle that recorded it.
    let replay = Replayer::new()
        .replay_model(&corpus, &model.name, &mut |b| crashy_target(b))
        .expect("replay");
    assert_eq!(replay.total, entries.len());
    assert!(replay.is_clean(), "{:?}", replay.regressions);

    std::fs::remove_dir_all(&corpus_dir).expect("cleanup");
}
