//! Allocation budget of one fuzz input through the simulation oracle.
//!
//! Every fuzz shard resets one scratch world from the warm snapshot
//! before each input, and the reset reuses every buffer the scratch
//! world already holds. An input therefore allocates only for what it
//! adds: the copy of its payload (the bytes and their shared buffer),
//! and, when a control rejects it, the security-log entry's strings.
//! This test holds each of the six fuzzed classes (keyless and
//! construction worlds, each under the `None`, `All` and `AuthOnly`
//! control presets, at the default horizon and attack activation) to a
//! per-input bound, counted over 1 024 inputs after a 64-input warm-up.
//!
//! Measured allocations per input at mutator seed 5, when every input
//! forked, ran and dropped a world, and with the reused scratch world:
//!
//! | class                 | fork per input | scratch reset |
//! |-----------------------|---------------:|--------------:|
//! | keyless/None          |          16.35 |          2.00 |
//! | keyless/All           |          22.35 |          4.68 |
//! | keyless/AuthOnly      |          17.35 |          4.68 |
//! | construction/None     |          11.62 |          1.98 |
//! | construction/All      |          19.96 |          4.98 |
//! | construction/AuthOnly |          14.96 |          4.98 |
//!
//! The `None` classes are held to 2 (only the payload copy), the
//! classes whose controls reject inputs to 6. A buffer that stops being
//! reused, or a per-input allocation that creeps back in, fails them.
//!
//! This file is its own test binary because it installs a counting
//! global allocator. Counting is switched on per thread, so allocations
//! of the harness's other threads are never counted. The counts are
//! deterministic: the simulation is seeded and single-threaded.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use saseval::fuzz::fuzzer::FuzzTarget;
use saseval::fuzz::mutate::{GeneratedInput, Mutator};
use saseval::fuzz::scenario::protocol_model;
use saseval::fuzz::SimOracle;
use saseval::server::job::{ConstructionScenario, ControlsPreset, KeylessScenario, ScenarioSpec};
use saseval::types::WorldKind;

struct CountingAlloc;

thread_local! {
    /// Allocations made on this thread while counting; `None` when off.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count_one() {
    // `try_with`: the slot is gone while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|count| {
        if let Some(n) = count.get() {
            count.set(Some(n + 1));
        }
    });
}

// SAFETY: every method forwards to `System` unchanged; counting only
// touches a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Inputs run before counting starts: the scratch world is built and
/// its buffers reach their working sizes.
const WARM_UP: usize = 64;
/// Inputs counted.
const COUNTED: usize = 1_024;
/// The mutator seed of the counted stream.
const SEED: u64 = 5;

fn oracle(spec: ScenarioSpec) -> SimOracle {
    match spec {
        ScenarioSpec::Keyless(_) => {
            SimOracle::keyless(spec.keyless_config().expect("keyless"), spec.attack_at())
        }
        ScenarioSpec::Construction(_) => SimOracle::construction(
            spec.construction_config().expect("construction"),
            spec.attack_at(),
        ),
    }
}

/// The fuzz loop's input stream for `world`: every tenth input a valid
/// baseline, the rest mutations.
fn inputs(world: WorldKind) -> Vec<Vec<u8>> {
    let mut mutator = Mutator::new(protocol_model(world), SEED);
    let mut input = GeneratedInput::empty();
    (0..WARM_UP + COUNTED)
        .map(|i| {
            if i % 10 == 0 {
                mutator.generate_valid_into(&mut input);
            } else {
                mutator.generate_into(&mut input);
            }
            input.bytes.clone()
        })
        .collect()
}

/// Allocations per counted input of `spec`'s oracle.
fn allocations_per_input(spec: ScenarioSpec) -> f64 {
    let world = match spec {
        ScenarioSpec::Keyless(_) => WorldKind::Keyless,
        ScenarioSpec::Construction(_) => WorldKind::Construction,
    };
    let inputs = inputs(world);
    let (warm_up, counted) = inputs.split_at(WARM_UP);
    let mut oracle = oracle(spec);
    for input in warm_up {
        std::hint::black_box(oracle.respond(input));
    }
    ALLOCATIONS.with(|count| count.set(Some(0)));
    for input in counted {
        std::hint::black_box(oracle.respond(input));
    }
    let allocations = ALLOCATIONS.with(|count| count.take()).expect("counting was on");
    allocations as f64 / COUNTED as f64
}

fn keyless(controls: ControlsPreset) -> ScenarioSpec {
    ScenarioSpec::Keyless(KeylessScenario { controls, horizon_ms: 0, attack_at_ms: 0 })
}

fn construction(controls: ControlsPreset) -> ScenarioSpec {
    ScenarioSpec::Construction(ConstructionScenario { controls, horizon_ms: 0, attack_at_ms: 0 })
}

fn assert_budget(name: &str, spec: ScenarioSpec, budget: f64) {
    let per_input = allocations_per_input(spec);
    println!("{name}: {per_input:.2} allocations per input");
    assert!(
        per_input <= budget,
        "{name} made {per_input:.2} allocations per input, budget {budget}"
    );
}

#[test]
fn keyless_inputs_stay_within_allocation_budget() {
    assert_budget("keyless/None", keyless(ControlsPreset::None), 2.0);
    assert_budget("keyless/All", keyless(ControlsPreset::All), 6.0);
    assert_budget("keyless/AuthOnly", keyless(ControlsPreset::AuthOnly), 6.0);
}

#[test]
fn construction_inputs_stay_within_allocation_budget() {
    assert_budget("construction/None", construction(ControlsPreset::None), 2.0);
    assert_budget("construction/All", construction(ControlsPreset::All), 6.0);
    assert_budget("construction/AuthOnly", construction(ControlsPreset::AuthOnly), 6.0);
}

#[test]
fn counting_sees_allocations_only_while_on() {
    let boxed = Box::new(1u64);
    assert_eq!(ALLOCATIONS.with(Cell::get), None);
    ALLOCATIONS.with(|count| count.set(Some(0)));
    let counted = std::hint::black_box(vec![*boxed; 4]);
    let allocations = ALLOCATIONS.with(|count| count.take()).expect("counting was on");
    assert_eq!(allocations, 1);
    drop(counted);
}
