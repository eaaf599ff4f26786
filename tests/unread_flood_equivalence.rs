//! AD20's unread flood path equals the per-message flood it replaces.
//!
//! `AuthenticatedFlood` hands each tick's messages to
//! `ConstructionWorld::broadcast_signed`. Once the OBU service has shut
//! down or the attacker is isolated, that call builds and signs nothing:
//! the channel only makes each message's draws and counts its arrival
//! (`V2xChannel::broadcast_unread`). The reference hook below is the
//! flood's body from before that path existed — every message built,
//! signed and broadcast. Both must leave the world in the same state:
//! trace, security log, channel statistics, kinematics bits, outcome and
//! every obs counter.
//!
//! The properties keep proptest's default configuration, so the
//! `PROPTEST_CASES` environment variable raises their case count.

mod common;

use std::sync::Arc;

use bytes::Bytes;
use proptest::prelude::*;

use saseval::engine::attacks::{AuthenticatedFlood, Composed, JamChannel};
use saseval::obs::Obs;
use saseval::sim::construction::{ConstructionConfig, ConstructionWorld};
use saseval::sim::{AttackerHook, ControlSelection};
use saseval::types::{Ftti, SimTime};

use common::{construction_observation, controls_for, v2x_profile};

/// The flood's per-message body before the unread path: every message is
/// built, signed and broadcast, whatever the OBU will do with it.
struct PerMessageFlood(AuthenticatedFlood);

impl AttackerHook<ConstructionWorld> for PerMessageFlood {
    fn on_tick(&mut self, world: &mut ConstructionWorld, now: SimTime) {
        let flood = &self.0;
        let distance = world.config().site_position_m - world.vehicle().position_m();
        if distance > flood.within_m || distance <= 0.0 {
            return;
        }
        for i in 0..flood.per_tick {
            let payload = Bytes::copy_from_slice(&[0xEE, (i % 251) as u8]);
            let msg = world.signed_message_bytes(Arc::clone(&flood.sender), payload, now);
            world.channel_mut().broadcast(msg, now);
        }
    }
}

/// Runs `config` to the end under `flood`, composed with `jam` when
/// given, and returns the world's full observation.
fn observe(
    config: &ConstructionConfig,
    flood: impl AttackerHook<ConstructionWorld> + 'static,
    jam: Option<JamChannel>,
) -> String {
    let (obs, recorder) = Obs::memory();
    let mut world = ConstructionWorld::new(config.clone()).with_obs(obs);
    let mut attacker = Composed::new().with(flood);
    if let Some(jam) = jam {
        attacker = attacker.with(jam);
    }
    while world.step(&mut attacker) {}
    construction_observation(world, &recorder)
}

/// Asserts the unread path and the per-message reference agree on
/// `config` under `flood` and `jam`.
fn assert_unread_matches_per_message(
    config: &ConstructionConfig,
    flood: &AuthenticatedFlood,
    jam: Option<&JamChannel>,
) {
    assert_eq!(
        observe(config, flood.clone(), jam.cloned()),
        observe(config, PerMessageFlood(flood.clone()), jam.cloned()),
        "per_tick {} within {} m",
        flood.per_tick,
        flood.within_m
    );
}

proptest! {
    /// Control presets (shutdown without the message counter, isolation
    /// with it), flood rates around the OBU budget, all three channel
    /// profiles and jam windows that open before, during or after the
    /// flood.
    #[test]
    fn unread_flood_matches_per_message_flood(
        seed in any::<u64>(),
        controls in 0u8..3,
        v2x in 0u8..3,
        per_tick in 1usize..64,
        within_m in 20.0f64..400.0,
        site_m in 100u16..400,
        horizon_s in 2u64..12,
        jam in proptest::option::of((0u64..12_000, 0u64..3_000)),
    ) {
        let config = ConstructionConfig {
            seed,
            controls: controls_for(controls),
            v2x: v2x_profile(v2x),
            site_position_m: f64::from(site_m),
            horizon: Ftti::from_secs(horizon_s),
            ..Default::default()
        };
        let flood = AuthenticatedFlood { per_tick, within_m, ..AuthenticatedFlood::ad20() };
        let jam = jam.map(|(from_ms, len_ms)| {
            JamChannel::new(SimTime::from_millis(from_ms), SimTime::from_millis(from_ms + len_ms))
        });
        assert_unread_matches_per_message(&config, &flood, jam.as_ref());
    }
}

/// Table VI's two AD20 cases at full scale, each with a jam that opens
/// mid-flood: by then the service has shut down (no message counter) or
/// the attacker is isolated (counter armed), so the unread arrivals in
/// flight when the jam starts must be counted as jammed.
#[test]
fn ad20_cases_match_per_message_flood_with_a_jam_mid_flood() {
    let flood = AuthenticatedFlood::ad20();
    let jam = JamChannel::new(SimTime::from_secs(20), SimTime::from_millis(20_500));
    for v2x in 0..3 {
        for controls in [
            ControlSelection { flood_protection: false, ..ControlSelection::all() },
            ControlSelection::all(),
        ] {
            let config =
                ConstructionConfig { controls, v2x: v2x_profile(v2x), ..Default::default() };
            let outcome = ConstructionWorld::new(config.clone()).run(&mut flood.clone());
            assert!(
                outcome.service_shutdown
                    || outcome.isolated_senders.iter().any(|s| s == "attacker"),
                "the flood must reach an unread state: {outcome:?}"
            );
            assert_unread_matches_per_message(&config, &flood, Some(&jam));
        }
    }
}
