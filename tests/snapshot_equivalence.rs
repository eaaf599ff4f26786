//! Snapshot-equivalence properties of the copy-on-write world forks
//! (the determinism contract behind warm-prefix fuzzing):
//!
//! 1. forking a world at time `T` and stepping the fork to the end is
//!    bit-identical — trace and outcome — to one uninterrupted
//!    from-scratch run of the same configuration;
//! 2. forks are independent: events injected into the parent after the
//!    fork never leak into the fork (and vice versa);
//! 3. the frozen snapshot itself never advances;
//! 4. fuzzing through the simulation oracle produces bit-identical
//!    reports serially and on one shard, and reproducible reports at a
//!    fixed shard count;
//! 5. from the same fork, the attacker-free next-event advance
//!    (`advance_unattacked`, which skips or shortens provably idle
//!    ticks) ends exactly where tick-by-tick `step(&mut ())` does:
//!    outcome, trace, security log, `now`, every obs counter and event
//!    (`world.*.ticks` included), and link, bus and channel statistics.

mod common;

use bytes::Bytes;
use proptest::prelude::*;

use saseval::fuzz::fuzzer::Fuzzer;
use saseval::fuzz::model::keyless_command_model;
use saseval::fuzz::sim_target::SimOracle;
use saseval::net::ble::BleConfig;
use saseval::net::v2x::V2xMessage;
use saseval::obs::Obs;
use saseval::sim::construction::{ConstructionConfig, ConstructionWorld, MSG_RELEASE};
use saseval::sim::keyless::{Command, KeylessConfig, KeylessWorld, CMD_OPEN, CMD_SERVICE};
use saseval::sim::vehicle::ControlMode;
use saseval::sim::ControlSelection;
use saseval::tara::tree::{AttackTree, TreeNode};
use saseval::tara::AttackPath;
use saseval::types::{Ftti, SimTime};

use common::{construction_observation, controls_for, json, v2x_profile};

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

fn keyless_config(seed: u64, controls: u8, horizon_ms: u64) -> KeylessConfig {
    KeylessConfig {
        seed,
        controls: controls_for(controls),
        horizon: Ftti::from_millis(horizon_ms),
        ..Default::default()
    }
}

/// Builds the keyless world with its owner schedule — both runs of a
/// comparison must start from byte-identical worlds.
fn scheduled_keyless(config: &KeylessConfig, open_ms: u64, close_ms: u64) -> KeylessWorld {
    let mut world = KeylessWorld::new(config.clone());
    world.schedule_owner_open(SimTime::from_millis(open_ms));
    world.schedule_owner_close(SimTime::from_millis(close_ms));
    world
}

proptest! {
    // Every case steps several worlds to their horizon; keep samples low.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Keyless: fork at `T`, step to the end — trace and outcome match a
    /// from-scratch run exactly, owner script (EventQueue) included, and
    /// neither the parent stepping on nor a sibling fork disturbs it.
    #[test]
    fn keyless_fork_matches_from_scratch_run(
        seed in any::<u64>(),
        controls in 0u8..3,
        fork_ms in 0u64..1_500,
        open_ms in 0u64..2_000,
        close_ms in 0u64..2_000,
    ) {
        let config = keyless_config(seed, controls, 2_000);

        let mut reference = scheduled_keyless(&config, open_ms, close_ms);
        while reference.step(&mut ()) {}
        let reference_trace = reference.trace().clone();
        let reference_outcome = json(&reference.into_outcome());

        let mut parent = scheduled_keyless(&config, open_ms, close_ms);
        parent.run_until(SimTime::from_millis(fork_ms), &mut ());
        let snapshot = parent.snapshot();
        let frozen_now = snapshot.get().now();

        let mut fork = snapshot.fork();
        // Divergence injected into the parent AFTER the fork must not
        // leak into the fork (deep Clone of the owner-script EventQueue).
        parent.schedule_owner_open(SimTime::from_millis(fork_ms + 10));
        while parent.step(&mut ()) {}
        while fork.step(&mut ()) {}

        prop_assert_eq!(fork.trace(), &reference_trace);
        prop_assert_eq!(json(&fork.into_outcome()), reference_outcome.as_str());

        // The frozen prefix never advanced, and a second fork replays
        // identically to the first.
        prop_assert_eq!(snapshot.get().now(), frozen_now);
        let mut sibling = snapshot.fork();
        while sibling.step(&mut ()) {}
        prop_assert_eq!(sibling.trace(), &reference_trace);
        prop_assert_eq!(json(&sibling.into_outcome()), reference_outcome);
    }

    /// Construction: fork at `T`, step to the end — trace, outcome and
    /// final kinematic state match a from-scratch run exactly (lossy V2X
    /// channel RNG included).
    #[test]
    fn construction_fork_matches_from_scratch_run(
        seed in any::<u64>(),
        controls in 0u8..3,
        speed in 20.0f64..35.0,
        fork_ms in 0u64..2_000,
    ) {
        let config = ConstructionConfig {
            seed,
            controls: controls_for(controls),
            initial_speed_mps: speed,
            horizon: Ftti::from_secs(3),
            ..Default::default()
        };

        let mut reference = ConstructionWorld::new(config.clone());
        while reference.step(&mut ()) {}
        let reference_trace = reference.trace().clone();
        let reference_position = reference.vehicle().position_m();
        let reference_outcome = json(&reference.into_outcome());

        let mut parent = ConstructionWorld::new(config);
        parent.run_until(SimTime::from_millis(fork_ms), &mut ());
        let mut fork = parent.snapshot().fork();
        while fork.step(&mut ()) {}

        prop_assert_eq!(fork.trace(), &reference_trace);
        prop_assert_eq!(fork.vehicle().position_m().to_bits(), reference_position.to_bits());
        prop_assert_eq!(json(&fork.into_outcome()), reference_outcome);
    }

    /// Fuzzing through the simulation oracle: a one-shard parallel run
    /// produces the serial report.
    #[test]
    fn sim_oracle_one_shard_fuzzing_equals_serial(
        seed in any::<u64>(),
        attack_ms in 0u64..200,
    ) {
        let config = KeylessConfig {
            horizon: Ftti::from_millis(300),
            controls: ControlSelection::none(),
            ..Default::default()
        };
        let oracle = SimOracle::keyless(config, SimTime::from_millis(attack_ms));
        let attack_paths = paths();

        let serial = Fuzzer::new(keyless_command_model(), seed)
            .run_target(&attack_paths, 30, &mut oracle.clone());
        let one_shard = Fuzzer::new(keyless_command_model(), seed)
            .run_parallel_targets(&attack_paths, 30, 1, |_| oracle.clone());
        prop_assert_eq!(&serial, &one_shard);
    }
}

/// Sharded parallel runs through the simulation oracle stay
/// deterministic for a fixed shard count.
#[test]
fn sharded_sim_oracle_fuzzing_is_reproducible() {
    let config = KeylessConfig {
        horizon: Ftti::from_millis(300),
        controls: ControlSelection::none(),
        ..Default::default()
    };
    let oracle = SimOracle::keyless(config, SimTime::from_millis(50));
    let attack_paths = paths();
    for shards in [2usize, 3] {
        let run = || {
            Fuzzer::new(keyless_command_model(), 17).run_parallel_targets(
                &attack_paths,
                48,
                shards,
                |_| oracle.clone(),
            )
        };
        assert_eq!(run(), run(), "{shards} shards reproducible");
    }
}

// ---------------------------------------------------------------------
// Property 5: the attacker-free next-event advance equals tick-by-tick
// stepping from the same fork.
// ---------------------------------------------------------------------

/// BLE profiles: nominal, lossy and jammed (the scenario model's
/// channel profiles).
fn ble_profile(selector: u8) -> BleConfig {
    match selector % 3 {
        0 => BleConfig::default(),
        1 => BleConfig { latency_us: 10_000, loss_prob: 0.08, ..BleConfig::default() },
        _ => BleConfig { latency_us: 20_000, loss_prob: 0.40, ..BleConfig::default() },
    }
}

/// What is injected at the fork point, before the attacker-free tail.
#[derive(Debug, Clone)]
enum KeylessInjection {
    Nothing,
    /// One raw payload, as the fuzz oracle injects.
    Raw(Vec<u8>),
    /// A forged open command under a foreign key.
    ForgedOpen,
    /// `n` service requests: with flood protection off they back up
    /// on the CAN bus.
    ServiceFlood(usize),
}

fn keyless_injection() -> impl Strategy<Value = KeylessInjection> {
    prop_oneof![
        Just(KeylessInjection::Nothing),
        proptest::collection::vec(any::<u8>(), 0..40).prop_map(KeylessInjection::Raw),
        Just(KeylessInjection::ForgedOpen),
        (1usize..80).prop_map(KeylessInjection::ServiceFlood),
    ]
}

fn inject_keyless(world: &mut KeylessWorld, injection: &KeylessInjection, jam_ms: Option<u64>) {
    let now = world.now();
    if let Some(ms) = jam_ms {
        world.link_mut().jam(now + Ftti::from_millis(ms));
    }
    match injection {
        KeylessInjection::Nothing => {}
        KeylessInjection::Raw(bytes) => world.send_ble("FUZZ", bytes.clone()),
        KeylessInjection::ForgedOpen => {
            let cmd =
                Command { cmd: CMD_OPEN, key_id: 0xBAD, ts: now.as_micros(), response: 0, tag: 0 };
            world.send_ble("FUZZ", cmd.encode());
        }
        KeylessInjection::ServiceFlood(n) => {
            let cmd = Command { cmd: CMD_SERVICE, key_id: 0, ts: 0, response: 0, tag: 0 };
            for _ in 0..*n {
                world.send_ble("FUZZ", cmd.encode());
            }
        }
    }
}

/// Everything the equivalence compares of a keyless world, consuming
/// it: outcome JSON last, because it flushes the tick counters.
fn keyless_observation(mut world: KeylessWorld, recorder: &saseval::obs::MemoryRecorder) -> String {
    let link = (world.link_mut().stats(), world.link_mut().state().clone());
    let head = json(&(
        world.now(),
        world.trace(),
        world.security_log().events(),
        link,
        world.can_bus().stats(),
    ));
    let outcome = json(&world.into_outcome());
    format!("{head}\n{outcome}\n{}", json(&recorder.snapshot()))
}

/// Runs `fork` both ways — tick by tick and with the next-event
/// advance — through each checkpoint in turn and then to the end,
/// comparing every observable at each stop. A wake-up that comes too
/// late shows at a checkpoint inside the window it skipped wrongly.
fn assert_keyless_advance_equivalent(fork: &KeylessWorld, checkpoints: &[SimTime]) {
    let (obs_ticked, rec_ticked) = Obs::memory();
    let (obs_advanced, rec_advanced) = Obs::memory();
    let mut ticked = fork.clone().with_obs(obs_ticked);
    let mut advanced = fork.clone().with_obs(obs_advanced);

    for &at in checkpoints {
        ticked.run_until(at, &mut ());
        advanced.advance_unattacked(at);
        assert_eq!(advanced.now(), ticked.now(), "now after advancing to {at}");
        assert_eq!(advanced.trace(), ticked.trace(), "trace at {at}");
        assert_eq!(advanced.security_log().events(), ticked.security_log().events());
        assert_eq!(advanced.link_mut().stats(), ticked.link_mut().stats(), "link at {at}");
        assert_eq!(advanced.link_mut().state(), ticked.link_mut().state(), "link at {at}");
        assert_eq!(advanced.can_bus().stats(), ticked.can_bus().stats(), "bus at {at}");
    }

    while ticked.step(&mut ()) {}
    advanced.advance_unattacked(SimTime::MAX);
    assert!(advanced.is_done());
    assert_eq!(
        keyless_observation(advanced, &rec_advanced),
        keyless_observation(ticked, &rec_ticked)
    );
}

#[derive(Debug, Clone)]
enum ConstructionInjection {
    Nothing,
    /// One unsigned raw payload, as the fuzz oracle injects.
    Raw(Vec<u8>),
    /// A correctly signed control release from an authenticated
    /// attacker.
    SignedRelease,
    /// `n` signed messages at once: enough to overflow the OBU queue.
    Flood(usize),
    /// `n` unread messages at once, as AD20 sends to a shut-down OBU or
    /// from an isolated sender: arrivals the channel still counts.
    UnreadFlood(usize),
}

fn construction_injection() -> impl Strategy<Value = ConstructionInjection> {
    prop_oneof![
        Just(ConstructionInjection::Nothing),
        proptest::collection::vec(any::<u8>(), 0..8).prop_map(ConstructionInjection::Raw),
        Just(ConstructionInjection::SignedRelease),
        (1usize..400).prop_map(ConstructionInjection::Flood),
        (1usize..400).prop_map(ConstructionInjection::UnreadFlood),
    ]
}

fn inject_construction(
    world: &mut ConstructionWorld,
    injection: &ConstructionInjection,
    jam_ms: Option<u64>,
) {
    let now = world.now();
    if let Some(ms) = jam_ms {
        world.channel_mut().jam(now + Ftti::from_millis(ms));
    }
    match injection {
        ConstructionInjection::Nothing => {}
        ConstructionInjection::Raw(bytes) => {
            let kind = u16::from(bytes.first().copied().unwrap_or(0));
            let msg = V2xMessage::new("FUZZ", kind, Bytes::copy_from_slice(bytes), now);
            world.channel_mut().broadcast(msg, now);
        }
        ConstructionInjection::SignedRelease => {
            let msg = world.signed_message("RSU-EVIL", &[MSG_RELEASE], now);
            world.channel_mut().broadcast(msg, now);
        }
        ConstructionInjection::Flood(n) => {
            for _ in 0..*n {
                let msg = world.signed_message("RSU-EVIL", &[MSG_RELEASE], now);
                world.channel_mut().broadcast(msg, now);
            }
        }
        ConstructionInjection::UnreadFlood(n) => {
            for _ in 0..*n {
                world.channel_mut().broadcast_unread(now);
            }
        }
    }
}

fn assert_construction_advance_equivalent(fork: &ConstructionWorld, checkpoints: &[SimTime]) {
    let (obs_ticked, rec_ticked) = Obs::memory();
    let (obs_advanced, rec_advanced) = Obs::memory();
    let mut ticked = fork.clone().with_obs(obs_ticked);
    let mut advanced = fork.clone().with_obs(obs_advanced);

    for &at in checkpoints {
        ticked.run_until(at, &mut ());
        advanced.advance_unattacked(at);
        assert_eq!(advanced.now(), ticked.now(), "now after advancing to {at}");
        assert_eq!(advanced.trace(), ticked.trace(), "trace at {at}");
        assert_eq!(advanced.security_log().events(), ticked.security_log().events());
        assert_eq!(advanced.channel_mut().stats(), ticked.channel_mut().stats(), "channel at {at}");
        assert_eq!(
            advanced.vehicle().position_m().to_bits(),
            ticked.vehicle().position_m().to_bits(),
            "position at {at}"
        );
    }

    while ticked.step(&mut ()) {}
    advanced.advance_unattacked(SimTime::MAX);
    assert!(advanced.is_done());
    assert_eq!(
        construction_observation(advanced, &rec_advanced),
        construction_observation(ticked, &rec_ticked)
    );
}

/// Sorted checkpoint times spread over `fork_ms..horizon_ms` (in
/// thousandths of that span), in microseconds so they fall off the
/// tick grid as often as on it.
fn checkpoint_times(fork_ms: u64, horizon_ms: u64, mut permille: Vec<u64>) -> Vec<SimTime> {
    permille.sort_unstable();
    let span_us = (horizon_ms - fork_ms) * 1_000;
    permille
        .into_iter()
        .map(|p| SimTime::from_micros(fork_ms * 1_000 + span_us * p / 1_000))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Keyless: owner scripts, lossy and jammed links, active jam
    /// windows, supervision drops inside long horizons and CAN
    /// backlogs from service floods.
    #[test]
    fn keyless_next_event_advance_matches_ticking(
        seed in any::<u64>(),
        controls in 0u8..3,
        ble in 0u8..3,
        horizon_ms in 200u64..7_000,
        fork_permille in 0u64..1_000,
        checkpoint_permille in proptest::collection::vec(0u64..1_000, 0..8),
        open_ms in proptest::option::of(0u64..7_000),
        close_ms in proptest::option::of(0u64..7_000),
        injection in keyless_injection(),
        jam_ms in proptest::option::of(0u64..3_000),
    ) {
        let config = KeylessConfig {
            seed,
            controls: controls_for(controls),
            ble: ble_profile(ble),
            horizon: Ftti::from_millis(horizon_ms),
            ..Default::default()
        };
        let mut world = KeylessWorld::new(config);
        if let Some(ms) = open_ms {
            world.schedule_owner_open(SimTime::from_millis(ms));
        }
        if let Some(ms) = close_ms {
            world.schedule_owner_close(SimTime::from_millis(ms));
        }
        let fork_ms = horizon_ms * fork_permille / 1_000;
        world.run_until(SimTime::from_millis(fork_ms), &mut ());
        inject_keyless(&mut world, &injection, jam_ms);
        let checkpoints = checkpoint_times(fork_ms, horizon_ms, checkpoint_permille);
        assert_keyless_advance_equivalent(&world, &checkpoints);
    }

    /// Construction: background senders, platoon followers, extra RSUs,
    /// lossy and jammed channels, jam windows, OBU floods, take-overs
    /// in progress at the fork and zone entry.
    #[test]
    fn construction_quiet_tick_advance_matches_ticking(
        seed in any::<u64>(),
        controls in 0u8..3,
        v2x in 0u8..3,
        (background, platoon, spacing, extra_rsus) in (0u16..4, 0u16..3, 10u16..50, 0u16..3),
        site_m in 150u16..1_500,
        speed in 15.0f64..35.0,
        horizon_s in 2u64..70,
        fork_permille in 0u64..1_000,
        checkpoint_permille in proptest::collection::vec(0u64..1_000, 0..8),
        injection in construction_injection(),
        jam_ms in proptest::option::of(0u64..3_000),
    ) {
        let config = ConstructionConfig {
            seed,
            controls: controls_for(controls),
            v2x: v2x_profile(v2x),
            background_senders: background,
            platoon_followers: platoon,
            platoon_spacing_m: f64::from(spacing),
            extra_rsus,
            site_position_m: f64::from(site_m),
            initial_speed_mps: speed,
            horizon: Ftti::from_secs(horizon_s),
            ..Default::default()
        };
        let mut world = ConstructionWorld::new(config);
        let horizon_ms = horizon_s * 1_000;
        let fork_ms = horizon_ms * fork_permille / 1_000;
        world.run_until(SimTime::from_millis(fork_ms), &mut ());
        inject_construction(&mut world, &injection, jam_ms);
        let checkpoints = checkpoint_times(fork_ms, horizon_ms, checkpoint_permille);
        assert_construction_advance_equivalent(&world, &checkpoints);
    }
}

/// A long keyless tail: the injected frame connects the link at 1.2 s,
/// is delivered at the 1.21 s tick, and supervision drops the link at
/// the first tick more than 2 s after its 1.205 s arrival — 3.21 s.
/// The checkpoint one tick later sees a drop that came late.
#[test]
fn keyless_advance_crosses_a_supervision_drop() {
    let config = KeylessConfig { horizon: Ftti::from_secs(5), ..Default::default() };
    let mut world = KeylessWorld::new(config);
    world.run_until(SimTime::from_millis(1_200), &mut ());
    inject_keyless(&mut world, &KeylessInjection::Raw(vec![1, 2, 3]), None);
    let mut ticked = world.clone();
    while ticked.step(&mut ()) {}
    assert_eq!(ticked.link_mut().stats().supervision_drops, 1, "the drop lies inside the horizon");
    assert_keyless_advance_equivalent(&world, &[SimTime::from_millis(3_215)]);
}

/// A service flood with flood protection off backs the CAN bus up
/// across several ticks; the advance only skips once it has drained.
#[test]
fn keyless_advance_waits_for_a_can_backlog() {
    let config = KeylessConfig {
        controls: ControlSelection::none(),
        horizon: Ftti::from_secs(2),
        ..Default::default()
    };
    let mut world = KeylessWorld::new(config);
    world.schedule_owner_open(SimTime::from_millis(120));
    world.run_until(SimTime::from_millis(100), &mut ());
    inject_keyless(&mut world, &KeylessInjection::ServiceFlood(64), None);
    let mut probe = world.clone();
    probe.run_until(SimTime::from_millis(120), &mut ());
    assert!(!probe.can_bus().is_idle(), "the flood is still queued on the bus");
    assert_keyless_advance_equivalent(&world, &[SimTime::from_millis(130)]);
}

/// A fork taken while the driver is reacting to a take-over request,
/// run to zone entry at the default 1500 m site.
#[test]
fn construction_advance_through_takeover_to_zone_entry() {
    let config = ConstructionConfig { horizon: Ftti::from_secs(100), ..Default::default() };
    let mut world = ConstructionWorld::new(config);
    world.run_until(SimTime::from_secs(29), &mut ());
    assert!(
        matches!(world.mode(), ControlMode::TakeOverRequested { .. }),
        "take-over in progress at the fork: {:?}",
        world.mode()
    );
    inject_construction(&mut world, &ConstructionInjection::Raw(vec![2, 200]), None);
    let mut ticked = world.clone();
    while ticked.step(&mut ()) {}
    assert!(ticked.vehicle().position_m() >= 1_500.0, "zone entered");
    assert_construction_advance_equivalent(
        &world,
        &[SimTime::from_secs(30), SimTime::from_secs(40)],
    );
}

/// Unread arrivals in flight long before the RSU range, where every
/// tick without them is quiet: the advance must poll them on the tick
/// they arrive, as ticking does, and not leave them in the channel.
#[test]
fn construction_advance_polls_unread_arrivals() {
    let config = ConstructionConfig { horizon: Ftti::from_secs(3), ..Default::default() };
    let mut world = ConstructionWorld::new(config);
    world.run_until(SimTime::from_secs(1), &mut ());
    inject_construction(&mut world, &ConstructionInjection::UnreadFlood(40), None);
    assert!(!world.channel_mut().is_idle(), "unread arrivals are in flight");
    assert_construction_advance_equivalent(&world, &[SimTime::from_micros(1_010_001)]);
}
