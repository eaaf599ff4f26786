//! Warm-prefix simulation throughput backing EXPERIMENTS.md's
//! "Warm-prefix fuzzing throughput" table: how fast the simulation
//! oracle answers fuzz inputs when every input replays the world from
//! `t = 0` tick by tick, versus the oracle itself — resetting its
//! scratch world to a copy-on-write snapshot taken at the
//! attack-activation time and running the tail through the next-event
//! advance. The oracle's row keeps its name, `fork-from-snapshot`.
//!
//! Both strategies answer every input identically (asserted here),
//! so the comparison measures the work
//! [`WorldSnapshot`](vehicle_sim::WorldSnapshot) and the idle-tick
//! advance save per input.

use std::time::Instant;

use saseval_fuzz::fuzzer::{FuzzTarget, TargetResponse};
use saseval_fuzz::sim_target::{SimOracle, FUZZ_SENDER};
use saseval_types::{Ftti, SimTime};
use serde::{Deserialize, Serialize};
use vehicle_sim::keyless::{KeylessConfig, KeylessWorld};
use vehicle_sim::ControlSelection;

/// One measured execution strategy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimThroughputRow {
    /// Strategy name: `replay-from-zero` or `fork-from-snapshot`.
    pub strategy: String,
    /// Inputs executed.
    pub inputs: usize,
    /// Wall-clock seconds for the run.
    pub seconds: f64,
    /// Throughput in inputs per second.
    pub inputs_per_sec: f64,
}

/// The warm-prefix comparison document (embedded into `BENCH_fuzz.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimThroughputExport {
    /// Length of the attacker-free prefix every input shares.
    pub warm_prefix_ms: u64,
    /// Simulated time between attack activation and the horizon.
    pub tail_ms: u64,
    /// The measured rows, one per strategy.
    pub rows: Vec<SimThroughputRow>,
    /// Throughput of `fork-from-snapshot` over `replay-from-zero`.
    pub fork_speedup: f64,
}

impl SimThroughputExport {
    /// The row for `strategy`; panics if the export doesn't contain it.
    pub fn row(&self, strategy: &str) -> &SimThroughputRow {
        self.rows.iter().find(|r| r.strategy == strategy).expect("strategy row")
    }
}

fn bench_config(warm_prefix_ms: u64, tail_ms: u64) -> KeylessConfig {
    KeylessConfig {
        controls: ControlSelection::all(),
        horizon: Ftti::from_millis(warm_prefix_ms + tail_ms),
        ..Default::default()
    }
}

/// Deterministic input mix: valid-length frames, short garbage and empty
/// payloads, cycled — representative of what the mutator feeds the
/// oracle without dragging the fuzzer's own cost into the measurement.
fn bench_inputs(count: usize) -> Vec<Vec<u8>> {
    (0..count)
        .map(|i| match i % 3 {
            0 => vec![i as u8; 33],
            1 => vec![i as u8, (i / 7) as u8, 3],
            _ => Vec::new(),
        })
        .collect()
}

fn timed_row(strategy: &str, inputs: usize, run: impl FnOnce()) -> SimThroughputRow {
    let start = Instant::now();
    run();
    let seconds = start.elapsed().as_secs_f64();
    SimThroughputRow {
        strategy: strategy.to_owned(),
        inputs,
        seconds,
        inputs_per_sec: if seconds > 0.0 { inputs as f64 / seconds } else { f64::INFINITY },
    }
}

/// Measures both strategies on the keyless oracle: a warm prefix of
/// `warm_prefix_ms` virtual milliseconds, a fuzzed tail of `tail_ms`, and
/// `count` inputs per strategy. Panics if the strategies ever classify an
/// input differently — the speedup must never come from skipped work.
pub fn measure_sim_strategies(
    warm_prefix_ms: u64,
    tail_ms: u64,
    count: usize,
) -> SimThroughputExport {
    let config = bench_config(warm_prefix_ms, tail_ms);
    let attack_at = SimTime::from_millis(warm_prefix_ms);
    let inputs = bench_inputs(count);
    let mut oracle = SimOracle::keyless(config.clone(), attack_at);

    // Replay-from-zero: every input pays for the whole prefix again.
    let mut replayed = Vec::with_capacity(count);
    let replay = timed_row("replay-from-zero", count, || {
        for input in &inputs {
            let mut world = KeylessWorld::new(config.clone());
            world.run_until(attack_at, &mut ());
            world.send_ble(FUZZ_SENDER, input.clone());
            while world.step(&mut ()) {}
            let rejected = world.security_log().events().iter().any(|e| &*e.sender == FUZZ_SENDER);
            replayed.push(if world.into_outcome().any_violation() {
                TargetResponse::Crash
            } else if rejected {
                TargetResponse::Rejected
            } else {
                TargetResponse::Accepted
            });
        }
    });

    // Fork-from-snapshot: the prefix is simulated once, above; every
    // input resets the oracle's scratch world to it.
    let mut forked = Vec::with_capacity(count);
    let fork = timed_row("fork-from-snapshot", count, || {
        for input in &inputs {
            forked.push(oracle.respond(input));
        }
    });

    assert_eq!(replayed, forked, "fork-from-snapshot diverged from replay-from-zero");

    let fork_speedup = fork.inputs_per_sec / replay.inputs_per_sec;
    SimThroughputExport { warm_prefix_ms, tail_ms, rows: vec![replay, fork], fork_speedup }
}

/// The configuration exported to `BENCH_fuzz.json` and EXPERIMENTS.md: a
/// 20 s warm prefix and a 500 ms fuzzed tail.
pub fn warm_prefix_comparison(count: usize) -> SimThroughputExport {
    measure_sim_strategies(20_000, 500, count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fork_from_snapshot_is_at_least_3x_faster_than_replay() {
        // 20 s of warm prefix vs a 200 ms tail: the fork pays ~20 ticks
        // plus one deep clone where the replay pays ~2 000 ticks, so the
        // expected speedup is well over an order of magnitude — asserting
        // >= 3x leaves a huge margin for noisy CI machines.
        let export = measure_sim_strategies(20_000, 200, 12);
        assert!(
            export.fork_speedup >= 3.0,
            "fork-from-snapshot only {:.2}x faster than replay-from-zero: {export:?}",
            export.fork_speedup
        );
        assert_eq!(export.rows.len(), 2);
        assert_eq!(export.row("replay-from-zero").inputs, 12);
    }

    #[test]
    fn export_serializes_with_speedups() {
        let export = measure_sim_strategies(1_000, 200, 6);
        assert!(export.fork_speedup > 0.0);
        let json = serde_json::to_string(&export).expect("serializable");
        assert!(json.contains("fork_speedup"));
        assert!(json.contains("replay-from-zero"));
    }
}
