//! Crash-triage measurement backing the `BENCH_triage.json` export, the
//! `repro_tables triage` experiment, and the
//! `repro_tables --replay-corpus DIR` regression gate: minimization
//! statistics (reduction ratio, steps) per protocol model against
//! seeded-bug oracles, plus corpus replay rendering.

use std::io;
use std::path::Path;

use saseval_fuzz::corpus::{Corpus, Replayer};
use saseval_fuzz::fuzzer::{Fuzzer, TargetResponse};
use saseval_fuzz::minimize::{minimize, MinimizeConfig, MinimizeResult};
use saseval_fuzz::model::{keyless_command_model, v2x_warning_model};
use saseval_obs::{MetricsSnapshot, Obs};
use saseval_tara::tree::{AttackTree, TreeNode};
use saseval_tara::AttackPath;
use serde::{Deserialize, Serialize};

fn triage_paths() -> Vec<AttackPath> {
    AttackTree::new(
        "open the vehicle",
        TreeNode::or(
            "ways",
            vec![TreeNode::leaf_on("replay", "BLE_PHONE"), TreeNode::leaf_on("forge", "ECU_GW")],
        ),
    )
    .expect("tree")
    .paths()
    .expect("paths")
}

/// A seeded-bug oracle for `model`: the built-in robust decode oracle
/// plus one deliberately planted crash, so triage always has findings to
/// minimize. Panics on a model without a seeded bug.
///
/// * `v2x-warning` — crashes on a signage message whose limit byte is
///   zero (`[2, 0, ..]`), the classic missed boundary.
/// * `keyless-command` — crashes on a 33-byte open frame (`cmd == 2`)
///   whose timestamp word is zero.
pub fn seeded_bug_oracle(model: &str) -> fn(&[u8]) -> TargetResponse {
    fn v2x(input: &[u8]) -> TargetResponse {
        match input {
            [2, 0, ..] => TargetResponse::Crash,
            [t, ..] if (1..=3).contains(t) => TargetResponse::Accepted,
            _ => TargetResponse::Rejected,
        }
    }
    fn keyless(input: &[u8]) -> TargetResponse {
        if input.len() != 33 {
            return TargetResponse::Rejected;
        }
        if input[0] == 2 && input[9..17] == [0; 8] {
            return TargetResponse::Crash;
        }
        if (1..=2).contains(&input[0]) {
            TargetResponse::Accepted
        } else {
            TargetResponse::Rejected
        }
    }
    match model {
        "v2x-warning" => v2x,
        "keyless-command" => keyless,
        other => panic!("no seeded-bug oracle for model {other:?}"),
    }
}

/// Per-model minimization statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TriageBenchRow {
    /// Protocol model name.
    pub model: String,
    /// Deduplicated crashes found and minimized.
    pub crashes: usize,
    /// Mean crash-input length before minimization.
    pub mean_original_len: f64,
    /// Mean crash-input length after minimization.
    pub mean_minimized_len: f64,
    /// Mean fraction of the input removed (0.0–1.0).
    pub mean_reduction_ratio: f64,
    /// Mean predicate evaluations per minimization.
    pub mean_steps: f64,
    /// Whether every minimization completed to a 1-minimal output
    /// within budget.
    pub all_one_minimal: bool,
    /// Whether every minimized input still crashes the oracle.
    pub all_still_crash: bool,
}

/// The document written to `BENCH_triage.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TriageBenchExport {
    /// Fuzzing iterations per model used to collect crashes.
    pub iterations: usize,
    /// Minimizer step budget.
    pub minimize_budget: usize,
    /// Per-model statistics.
    pub rows: Vec<TriageBenchRow>,
    /// The `fuzz.minimize.*` metrics recorded while minimizing.
    pub metrics: MetricsSnapshot,
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut count) = (0.0, 0usize);
    for value in values {
        sum += value;
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// Fuzzes both built-in models against their seeded-bug oracles for
/// `iterations` inputs each, minimizes every deduplicated crash with
/// `budget` steps, and returns the aggregated statistics.
pub fn minimize_stats(iterations: usize, budget: usize) -> TriageBenchExport {
    let paths = triage_paths();
    let config = MinimizeConfig { max_steps: budget };
    let (obs, recorder) = Obs::memory();
    let mut rows = Vec::new();
    for model in [v2x_warning_model(), keyless_command_model()] {
        let oracle = seeded_bug_oracle(&model.name);
        let report = Fuzzer::new(model.clone(), 7).run(&paths, iterations, 1, |_| oracle);
        let results: Vec<MinimizeResult> = report
            .crashes
            .iter()
            .map(|finding| {
                minimize(&finding.input, |b| oracle(b) == TargetResponse::Crash, &config, &obs)
            })
            .collect();
        rows.push(TriageBenchRow {
            model: model.name.clone(),
            crashes: results.len(),
            mean_original_len: mean(results.iter().map(|r| r.original_len as f64)),
            mean_minimized_len: mean(results.iter().map(|r| r.output.len() as f64)),
            mean_reduction_ratio: mean(results.iter().map(MinimizeResult::reduction_ratio)),
            mean_steps: mean(results.iter().map(|r| r.steps as f64)),
            all_one_minimal: results.iter().all(|r| r.one_minimal),
            all_still_crash: results.iter().all(|r| oracle(&r.output) == TargetResponse::Crash),
        });
    }
    TriageBenchExport {
        iterations,
        minimize_budget: budget,
        rows,
        metrics: recorder.snapshot().with_prefix("fuzz.minimize"),
    }
}

/// Replays the corpus at `dir` against the built-in model oracles and
/// renders a verdict table. Returns the rendered table and whether the
/// replay was clean (zero regressions).
///
/// # Errors
///
/// Propagates corpus I/O and corruption errors, and fails on a model
/// subdirectory with no built-in oracle.
pub fn replay_corpus_table(dir: &Path) -> io::Result<(String, bool)> {
    use std::fmt::Write as _;
    let corpus = Corpus::open(dir);
    let replayer = Replayer::new();
    let mut out = format!("Corpus replay — {}\n", dir.display());
    let mut total = 0usize;
    let mut regressions = 0usize;
    for model in corpus.models()? {
        let mut oracle = saseval_fuzz::corpus::builtin_oracle(&model).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("no built-in oracle for corpus model {model:?}"),
            )
        })?;
        let report = replayer.replay_model(&corpus, &model, &mut oracle)?;
        writeln!(
            out,
            "  {:<18} {:>4} entries, {:>4} matched, {:>3} regression(s)",
            model,
            report.total,
            report.matched,
            report.regressions.len()
        )
        .expect("write");
        for regression in &report.regressions {
            writeln!(
                out,
                "    REGRESSION {}/{}: expected {:?}, got {:?}",
                regression.model, regression.hash, regression.expected, regression.actual
            )
            .expect("write");
        }
        total += report.total;
        regressions += report.regressions.len();
    }
    writeln!(out, "  {total} entrie(s) replayed, {regressions} regression(s).").expect("write");
    Ok((out, regressions == 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimize_stats_cover_both_models() {
        let export = minimize_stats(4_000, 4_096);
        assert_eq!(export.rows.len(), 2);
        for row in &export.rows {
            assert!(row.crashes > 0, "{row:?}");
            assert!(row.all_one_minimal, "{row:?}");
            assert!(row.all_still_crash, "{row:?}");
            assert!(row.mean_minimized_len <= row.mean_original_len, "{row:?}");
        }
        // The v2x seeded bug minimizes to the 2-byte boundary input; the
        // keyless one is length-pinned (33 bytes) so reduction comes
        // from zero-simplification only.
        let v2x = &export.rows[0];
        assert_eq!(v2x.model, "v2x-warning");
        assert!((v2x.mean_minimized_len - 2.0).abs() < 1e-9, "{v2x:?}");
        assert!(v2x.mean_reduction_ratio > 0.0);
        let keyless = &export.rows[1];
        assert!((keyless.mean_minimized_len - 33.0).abs() < 1e-9, "{keyless:?}");
        assert!(
            export.metrics.histogram("fuzz.minimize.steps").is_some(),
            "minimize metrics embedded"
        );
        let json = serde_json::to_string(&export).expect("serializable");
        assert!(json.contains("mean_reduction_ratio"));
    }

    #[test]
    fn replay_corpus_table_renders_fixture_corpus() {
        // The committed fixture corpus must replay clean on HEAD (the
        // same gate scripts/check.sh runs via repro_tables).
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join("tests/fixtures/corpus");
        let (table, clean) = replay_corpus_table(&dir).expect("replay");
        assert!(clean, "{table}");
        assert!(table.contains("0 regression(s)."), "{table}");
    }
}
