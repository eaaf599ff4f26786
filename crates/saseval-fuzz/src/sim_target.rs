//! Simulation-backed fuzz oracles: fuzz inputs run against the vehicle
//! worlds instead of a hand-written responder.
//!
//! [`SimOracle`] freezes a world at the attack-activation time as a
//! copy-on-write [`WorldSnapshot`]. Each fuzz input then *forks* from
//! that warm prefix instead of re-simulating from `t = 0`, is injected as
//! a frame from the hostile sender [`FUZZ_SENDER`], and the fork steps to
//! its end condition. Classification:
//!
//! * any safety-goal violation → [`TargetResponse::Crash`],
//! * otherwise a security-log event naming the fuzz sender →
//!   [`TargetResponse::Rejected`] (a deployed control caught the input),
//! * otherwise [`TargetResponse::Accepted`] (absorbed without harm).
//!
//! Both the warm prefix and each post-injection tail are attacker-free,
//! so they run through the worlds' next-event `advance_unattacked`,
//! which skips (keyless) or reduces to kinematics (construction) every
//! tick that provably does nothing, bit-identically to tick-by-tick
//! stepping.
//!
//! The warm prefix must be attacker-free: classification attributes log
//! entries from [`FUZZ_SENDER`] to the injected input, which holds
//! because the prefix world never saw that sender.

use bytes::Bytes;
use saseval_types::SimTime;
use vehicle_net::v2x::V2xMessage;
use vehicle_sim::construction::{ConstructionConfig, ConstructionWorld};
use vehicle_sim::keyless::{KeylessConfig, KeylessWorld};
use vehicle_sim::WorldSnapshot;

use crate::fuzzer::{FuzzTarget, TargetResponse};

/// The sender identity fuzz inputs are injected under.
pub const FUZZ_SENDER: &str = "FUZZ";

#[derive(Debug, Clone)]
enum Scenario {
    Keyless(WorldSnapshot<KeylessWorld>),
    Construction(WorldSnapshot<ConstructionWorld>),
}

/// A fuzz target backed by a simulated world: forks every input from a
/// frozen warm prefix, injects it, steps to the horizon and classifies
/// the outcome. See the [module docs](self) for the classification rules.
#[derive(Debug, Clone)]
pub struct SimOracle {
    scenario: Scenario,
}

/// Broadcasts `input` on the V2X channel as an (unsigned) message from
/// the fuzz sender, mirroring how [`KeylessWorld::send_ble`] carries raw
/// attacker payloads on the BLE side.
fn inject_construction(world: &mut ConstructionWorld, input: &[u8]) {
    let now = world.now();
    let kind = u16::from(input.first().copied().unwrap_or(0));
    let msg = V2xMessage::new(FUZZ_SENDER, kind, Bytes::copy_from_slice(input), now);
    world.channel_mut().broadcast(msg, now);
}

fn classify_keyless(world: KeylessWorld) -> TargetResponse {
    let rejected = world.security_log().events().iter().any(|e| e.sender == FUZZ_SENDER);
    if world.into_outcome().any_violation() {
        TargetResponse::Crash
    } else if rejected {
        TargetResponse::Rejected
    } else {
        TargetResponse::Accepted
    }
}

fn classify_construction(world: ConstructionWorld) -> TargetResponse {
    let rejected = world.security_log().events().iter().any(|e| e.sender == FUZZ_SENDER);
    if world.into_outcome().any_violation() {
        TargetResponse::Crash
    } else if rejected {
        TargetResponse::Rejected
    } else {
        TargetResponse::Accepted
    }
}

impl SimOracle {
    /// Keyless (Use Case II) oracle: runs an attacker-free world under
    /// `config` to `attack_at`, freezes it, and fuzzes BLE payloads from
    /// there.
    pub fn keyless(config: KeylessConfig, attack_at: SimTime) -> Self {
        SimOracle { scenario: Scenario::Keyless(KeylessWorld::warm_snapshot(config, attack_at)) }
    }

    /// Construction-site (Use Case I) oracle: runs an attacker-free world
    /// under `config` to `attack_at`, freezes it, and fuzzes V2X payloads
    /// from there.
    pub fn construction(config: ConstructionConfig, attack_at: SimTime) -> Self {
        let snapshot = ConstructionWorld::warm_snapshot(config, attack_at);
        SimOracle { scenario: Scenario::Construction(snapshot) }
    }
}

impl FuzzTarget for SimOracle {
    fn respond(&mut self, input: &[u8]) -> TargetResponse {
        match &self.scenario {
            Scenario::Keyless(snapshot) => {
                let mut world = snapshot.fork();
                world.send_ble(FUZZ_SENDER, input.to_vec());
                world.advance_unattacked(SimTime::MAX);
                classify_keyless(world)
            }
            Scenario::Construction(snapshot) => {
                let mut world = snapshot.fork();
                inject_construction(&mut world, input);
                world.advance_unattacked(SimTime::MAX);
                classify_construction(world)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use saseval_types::Ftti;
    use vehicle_sim::keyless::{Command, CMD_OPEN};
    use vehicle_sim::ControlSelection;

    use super::*;

    fn short_keyless(controls: ControlSelection) -> KeylessConfig {
        KeylessConfig { horizon: Ftti::from_secs(2), controls, ..Default::default() }
    }

    fn open_command() -> Vec<u8> {
        Command { cmd: CMD_OPEN, key_id: 0xBAD, ts: 0, response: 0, tag: 0 }.encode()
    }

    #[test]
    fn keyless_oracle_classifies_all_three_ways() {
        // No controls: a bare open command is admitted and opens the
        // vehicle without a pending owner request — SG01, a crash.
        let mut open_everything =
            SimOracle::keyless(short_keyless(ControlSelection::none()), SimTime::from_millis(100));
        assert_eq!(open_everything.respond(&open_command()), TargetResponse::Crash);

        // Full control stack: the same forged command is rejected and
        // logged against the fuzz sender.
        let mut hardened =
            SimOracle::keyless(short_keyless(ControlSelection::all()), SimTime::from_millis(100));
        assert_eq!(hardened.respond(&open_command()), TargetResponse::Rejected);

        // A malformed frame decodes to nothing and is absorbed silently.
        assert_eq!(hardened.respond(&[1, 2, 3]), TargetResponse::Accepted);
    }

    #[test]
    fn construction_oracle_rejects_unsigned_fuzz_frames() {
        let config = ConstructionConfig { horizon: Ftti::from_secs(2), ..Default::default() };
        let mut oracle = SimOracle::construction(config, SimTime::from_millis(100));
        // An unsigned frame fails authentication; the OBU logs the fuzz
        // sender.
        let response = oracle.respond(&[2, 200]);
        assert_eq!(response, TargetResponse::Rejected);
    }
}
