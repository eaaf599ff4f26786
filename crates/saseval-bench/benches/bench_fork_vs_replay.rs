//! Benchmarks of copy-on-write warm prefixes: answering a fuzz input by
//! replaying the world from `t = 0` vs the oracle, which resets its
//! scratch world to a frozen
//! [`WorldSnapshot`](vehicle_sim::WorldSnapshot) at attack-activation
//! time (the `bench_fork_vs_replay` acceptance gate: the snapshot must
//! be several times faster for warm-prefix inputs).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use saseval_fuzz::fuzzer::FuzzTarget;
use saseval_fuzz::sim_target::{SimOracle, FUZZ_SENDER};
use saseval_types::{Ftti, SimTime};
use vehicle_sim::keyless::{KeylessConfig, KeylessWorld};
use vehicle_sim::ControlSelection;

fn config(warm_prefix_ms: u64) -> KeylessConfig {
    KeylessConfig {
        controls: ControlSelection::all(),
        horizon: Ftti::from_millis(warm_prefix_ms + 500),
        ..Default::default()
    }
}

const INPUT: &[u8] = &[7u8; 33];

/// One input answered by re-simulating the whole prefix vs resetting to
/// the frozen snapshot, at growing prefix lengths — the replay cost
/// grows linearly with the prefix, the reset cost stays flat.
fn bench_fork_vs_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("fork_vs_replay");
    group.sample_size(10);
    for warm_prefix_ms in [1_000u64, 5_000, 20_000] {
        let attack_at = SimTime::from_millis(warm_prefix_ms);
        group.bench_with_input(
            BenchmarkId::new("replay_from_zero", warm_prefix_ms),
            &warm_prefix_ms,
            |b, &warm_prefix_ms| {
                b.iter(|| {
                    let mut world = KeylessWorld::new(config(warm_prefix_ms));
                    world.run_until(attack_at, &mut ());
                    world.send_ble(FUZZ_SENDER, INPUT.to_vec());
                    while world.step(&mut ()) {}
                    black_box(world.into_outcome());
                });
            },
        );
        let mut oracle = SimOracle::keyless(config(warm_prefix_ms), attack_at);
        group.bench_with_input(
            BenchmarkId::new("fork_from_snapshot", warm_prefix_ms),
            &warm_prefix_ms,
            |b, _| {
                b.iter(|| black_box(oracle.respond(INPUT)));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_fork_vs_replay);
criterion_main!(benches);
