//! Fuzzing throughput measurement backing the `BENCH_fuzz.json` export
//! and EXPERIMENTS.md's "Fuzzing throughput" section: one shard vs several
//! inputs-per-second on the built-in protocol models.

use std::time::Instant;

use saseval_fuzz::corpus::builtin_oracle;
use saseval_fuzz::fuzzer::{Fuzzer, TargetResponse};
use saseval_fuzz::model::{keyless_command_model, v2x_warning_model, ProtocolModel};
use saseval_tara::tree::{AttackTree, TreeNode};
use saseval_tara::AttackPath;
use serde::{Deserialize, Serialize};

/// One measured configuration of the fuzz throughput grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FuzzThroughputRow {
    /// Protocol model name.
    pub model: String,
    /// Shard count passed to [`Fuzzer::run`].
    pub shards: usize,
    /// Inputs executed.
    pub iterations: usize,
    /// Wall-clock seconds for the run.
    pub seconds: f64,
    /// Throughput in inputs per second.
    pub inputs_per_sec: f64,
    /// Unique crash findings (sanity: constant across shard counts for
    /// crash-free oracles).
    pub crashes: usize,
    /// Merged protocol field coverage in percent.
    pub field_coverage_percent: f64,
}

/// The document written to `BENCH_fuzz.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FuzzThroughputExport {
    /// Hardware parallelism available to the shard threads.
    pub available_parallelism: usize,
    /// The measured grid: models × shard counts.
    pub rows: Vec<FuzzThroughputRow>,
}

fn bench_paths() -> Vec<AttackPath> {
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

/// Runs `iterations` fuzz inputs against `model`'s robust decode oracle
/// (the shared [`builtin_oracle`]) at the given shard count and reports
/// throughput.
pub fn measure_fuzz_throughput(
    model: &ProtocolModel,
    shards: usize,
    iterations: usize,
) -> FuzzThroughputRow {
    let paths = bench_paths();
    let target: fn(&[u8]) -> TargetResponse =
        builtin_oracle(&model.name).expect("built-in oracle for built-in model");
    let start = Instant::now();
    let report = Fuzzer::new(model.clone(), 7).run(&paths, iterations, shards, |_| target);
    let seconds = start.elapsed().as_secs_f64();
    FuzzThroughputRow {
        model: model.name.clone(),
        shards,
        iterations,
        seconds,
        inputs_per_sec: if seconds > 0.0 { iterations as f64 / seconds } else { f64::INFINITY },
        crashes: report.crashes.len(),
        field_coverage_percent: report.field_coverage_percent(),
    }
}

/// Measures the full grid — keyless and V2X models at 1/2/4 shards —
/// with `iterations` inputs per cell.
pub fn fuzz_throughput_grid(iterations: usize) -> FuzzThroughputExport {
    let mut rows = Vec::new();
    for model in [keyless_command_model(), v2x_warning_model()] {
        for shards in [1usize, 2, 4] {
            rows.push(measure_fuzz_throughput(&model, shards, iterations));
        }
    }
    FuzzThroughputExport {
        available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_both_models_and_all_shard_counts() {
        let export = fuzz_throughput_grid(2_000);
        assert_eq!(export.rows.len(), 6);
        for row in &export.rows {
            assert_eq!(row.iterations, 2_000);
            assert!(row.inputs_per_sec > 0.0, "{row:?}");
            assert_eq!(row.crashes, 0, "robust oracles never crash: {row:?}");
            assert!(row.field_coverage_percent > 50.0, "{row:?}");
        }
        assert!(export.available_parallelism >= 1);
        let json = serde_json::to_string(&export).expect("serializable");
        assert!(json.contains("inputs_per_sec"));
    }
}
