//! Attacks on the keyless-opener BLE/gateway path (Use Case II).

use std::sync::Arc;

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use saseval_types::SimTime;
use security_controls::controls::{IdAllowList, MacAuthenticator};
use security_controls::mac::Tag;
use serde::{Deserialize, Serialize};
use vehicle_sim::keyless::{Command, KeylessWorld, CMD_CLOSE, CMD_OPEN, CMD_SERVICE, OWNER_PHONE};
use vehicle_sim::AttackerHook;

/// How AD08 guesses electronic key IDs (Table VII implementation
/// comments: "a) Randomly replace IDs of keys and b) test against
/// increasing IDs (if a valid ID is known)").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KeyGuessStrategy {
    /// Uniformly random 64-bit IDs.
    Random,
    /// Incrementing IDs starting from a known base.
    Incrementing {
        /// The known starting ID.
        base: u64,
    },
}

/// Table VII's AD08: "The attacker uses modified keys to gain access to
/// the vehicle" (Threat: Spoofing — Attack: Spoofing). The precondition
/// grants an authenticated communication link, so the commands carry
/// valid MACs; only the electronic-ID allow-list can stop them.
#[derive(Debug)]
pub struct KeyIdSpoof {
    /// The guessing strategy.
    pub strategy: KeyGuessStrategy,
    /// Attempts per tick.
    pub per_tick: u32,
    /// Total attempt budget.
    pub budget: u32,
    sent: u32,
    rng: StdRng,
}

impl KeyIdSpoof {
    /// Creates the spoofing attack with the given guessing strategy.
    pub fn new(strategy: KeyGuessStrategy, per_tick: u32, budget: u32, seed: u64) -> Self {
        KeyIdSpoof { strategy, per_tick, budget, sent: 0, rng: StdRng::seed_from_u64(seed) }
    }

    fn next_id(&mut self) -> u64 {
        match self.strategy {
            KeyGuessStrategy::Random => self.rng.random(),
            KeyGuessStrategy::Incrementing { base } => base.wrapping_add(u64::from(self.sent)),
        }
    }
}

impl AttackerHook<KeylessWorld> for KeyIdSpoof {
    fn on_tick(&mut self, world: &mut KeylessWorld, now: SimTime) {
        for _ in 0..self.per_tick {
            if self.sent >= self.budget || world.lock_open() {
                return;
            }
            let key_id = self.next_id();
            self.sent += 1;
            let tag =
                MacAuthenticator::sign(world.command_key(), "attacker", &[CMD_OPEN], now).raw();
            let cmd = Command { cmd: CMD_OPEN, key_id, ts: now.as_micros(), response: 0, tag };
            world.send_ble("attacker", cmd.encode());
        }
    }
}

/// AD01: replays the owner's recorded opening exchange under the owner's
/// radio identity (Threat: Repudiation — Attack: Replay).
#[derive(Debug, Clone)]
pub struct ReplayOpen {
    /// When to replay.
    pub at: SimTime,
    done: bool,
}

impl ReplayOpen {
    /// Creates the replay, firing at `at`.
    pub fn new(at: SimTime) -> Self {
        ReplayOpen { at, done: false }
    }
}

impl AttackerHook<KeylessWorld> for ReplayOpen {
    fn on_tick(&mut self, world: &mut KeylessWorld, now: SimTime) {
        if self.done || now < self.at {
            return;
        }
        // Find the first sniffed OPEN command.
        let recorded = world
            .sniffed()
            .find(|p| Command::decode(p).is_some_and(|c| c.cmd == CMD_OPEN))
            .cloned();
        if let Some(frame) = recorded {
            world.send_ble(OWNER_PHONE, frame);
            self.done = true;
        }
    }
}

/// AD14: floods the gateway with BLE service requests that fan out onto
/// the CAN bus (Threat: Denial of service — Attack: Denial of service).
#[derive(Debug, Clone)]
pub struct ServiceFlood {
    /// Service requests per tick.
    pub per_tick: usize,
    /// The attacker's identity and the encoded request, built once and
    /// shared by every injected frame.
    sender: Arc<str>,
    request: Bytes,
}

impl ServiceFlood {
    /// Creates the flood sending `per_tick` service requests per tick.
    pub fn new(per_tick: usize) -> Self {
        let request = Command { cmd: CMD_SERVICE, key_id: 0, ts: 0, response: 0, tag: 0 };
        ServiceFlood {
            per_tick,
            sender: Arc::from("attacker"),
            request: Bytes::from(request.encode()),
        }
    }

    /// AD14's parameters: 30 requests per tick (3 000/s at a 10 ms tick),
    /// beyond the 125 kbit/s CAN bus's frame capacity.
    pub fn ad14() -> Self {
        ServiceFlood::new(30)
    }
}

impl AttackerHook<KeylessWorld> for ServiceFlood {
    /// One tick's requests share a sender, an instant and a payload, so
    /// they go out as one burst.
    fn on_tick(&mut self, world: &mut KeylessWorld, _now: SimTime) {
        let mut unsent = self.per_tick;
        while unsent > 0 {
            let burst = u32::try_from(unsent).unwrap_or(u32::MAX);
            world.send_ble_burst(Arc::clone(&self.sender), self.request.clone(), burst);
            unsent -= burst as usize;
        }
    }
}

/// AD15: jams the BLE channel while the owner tries to open (Threat:
/// Denial of service — Attack: Jamming).
#[derive(Debug, Clone)]
pub struct BleJam {
    /// Jam start.
    pub from: SimTime,
    /// Jam end.
    pub until: SimTime,
    armed: bool,
}

impl BleJam {
    /// Creates the jamming window.
    pub fn new(from: SimTime, until: SimTime) -> Self {
        BleJam { from, until, armed: true }
    }
}

impl AttackerHook<KeylessWorld> for BleJam {
    fn on_tick(&mut self, world: &mut KeylessWorld, now: SimTime) {
        if self.armed && now >= self.from {
            world.link_mut().jam(self.until);
            self.armed = false;
        }
    }
}

/// AD18: spoofs a close command while a person is entering (Threat:
/// Spoofing — Attack: Fake messages). The attacker holds the command key
/// and the owner's key ID (relay-grade access); only challenge–response
/// or an entry interlock stops the closing.
#[derive(Debug, Clone)]
pub struct SpoofClose {
    /// When to send the close.
    pub at: SimTime,
    /// The owner key ID to claim.
    pub claimed_id: u64,
    done: bool,
}

impl SpoofClose {
    /// Creates the close spoof.
    pub fn new(at: SimTime, claimed_id: u64) -> Self {
        SpoofClose { at, claimed_id, done: false }
    }
}

impl AttackerHook<KeylessWorld> for SpoofClose {
    fn on_tick(&mut self, world: &mut KeylessWorld, now: SimTime) {
        if self.done || now < self.at {
            return;
        }
        self.done = true;
        let tag = MacAuthenticator::sign(world.command_key(), "attacker", &[CMD_CLOSE], now).raw();
        let cmd = Command {
            cmd: CMD_CLOSE,
            key_id: self.claimed_id,
            ts: now.as_micros(),
            response: 0,
            tag,
        };
        world.send_ble("attacker", cmd.encode());
    }
}

/// AD09: injects a forged open frame directly on the CAN bus via an
/// exposed stub behind a compromised gateway port (Threat: Tampering —
/// Attack: Inject). Only the gateway's segment filtering stops it.
#[derive(Debug, Clone)]
pub struct CanStubInject {
    /// When to inject.
    pub at: SimTime,
    /// The command to inject ([`CMD_OPEN`] or [`CMD_CLOSE`]).
    pub cmd: u8,
    done: bool,
}

impl CanStubInject {
    /// Creates the stub injection.
    pub fn new(at: SimTime, cmd: u8) -> Self {
        CanStubInject { at, cmd, done: false }
    }
}

impl AttackerHook<KeylessWorld> for CanStubInject {
    fn on_tick(&mut self, world: &mut KeylessWorld, now: SimTime) {
        if self.done || now < self.at {
            return;
        }
        self.done = true;
        world.inject_can_from_stub(self.cmd);
    }
}

/// AD24: tampers with the allow-list of authorized key IDs (Threat:
/// Tampering — Attack: Config. change), then opens with the added ID.
#[derive(Debug, Clone)]
pub struct AllowlistTamper {
    /// The ID the attacker tries to whitelist.
    pub rogue_id: u64,
    /// Whether the attacker somehow holds the configuration write key
    /// (insider variant).
    pub with_auth: Option<Tag>,
    /// When to attempt the write.
    pub at: SimTime,
    wrote: bool,
    opened: bool,
}

impl AllowlistTamper {
    /// Creates the tamper attempt; `with_auth` carries a valid write tag
    /// for the insider variant.
    pub fn new(rogue_id: u64, with_auth: Option<Tag>, at: SimTime) -> Self {
        AllowlistTamper { rogue_id, with_auth, at, wrote: false, opened: false }
    }

    /// Computes the legitimate write tag for `id` — test helper for the
    /// insider variant.
    pub fn insider_auth(config_key: security_controls::mac::MacKey, id: u64) -> Tag {
        IdAllowList::write_auth(config_key, id)
    }
}

impl AttackerHook<KeylessWorld> for AllowlistTamper {
    fn on_tick(&mut self, world: &mut KeylessWorld, now: SimTime) {
        if now < self.at {
            return;
        }
        if !self.wrote {
            self.wrote = true;
            let auth = self.with_auth.unwrap_or(Tag::from_raw(0xDEAD_BEEF));
            let _ = world.try_allowlist_write(self.rogue_id, auth);
            return;
        }
        if !self.opened {
            self.opened = true;
            let tag =
                MacAuthenticator::sign(world.command_key(), "attacker", &[CMD_OPEN], now).raw();
            let cmd = Command {
                cmd: CMD_OPEN,
                key_id: self.rogue_id,
                ts: now.as_micros(),
                response: 0,
                tag,
            };
            world.send_ble("attacker", cmd.encode());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saseval_types::Ftti;
    use vehicle_sim::config::ControlSelection;
    use vehicle_sim::keyless::{KeylessConfig, KeylessOutcome};

    fn run_with(
        controls: ControlSelection,
        setup: impl FnOnce(&mut KeylessWorld),
        hook: &mut dyn AttackerHook<KeylessWorld>,
    ) -> KeylessOutcome {
        let config = KeylessConfig { controls, ..Default::default() };
        let mut world = KeylessWorld::new(config);
        setup(&mut world);
        world.run(hook)
    }

    fn no_cr() -> ControlSelection {
        ControlSelection { challenge_response: false, ..ControlSelection::all() }
    }

    #[test]
    fn ad08_random_ids_rejected_by_allowlist() {
        let mut spoof = KeyIdSpoof::new(KeyGuessStrategy::Random, 5, 2_000, 1);
        let outcome = run_with(no_cr(), |_| {}, &mut spoof);
        assert!(!outcome.lock_open, "{outcome:?}");
        assert!(!outcome.sg01_violated);
    }

    #[test]
    fn ad08_incrementing_ids_rejected_by_allowlist() {
        // Base close to (but not hitting within budget) the owner ID.
        let owner = KeylessConfig::default().owner_key_id;
        let mut spoof =
            KeyIdSpoof::new(KeyGuessStrategy::Incrementing { base: owner - 10_000 }, 5, 2_000, 1);
        let outcome = run_with(no_cr(), |_| {}, &mut spoof);
        assert!(!outcome.lock_open);
    }

    #[test]
    fn ad08_incrementing_ids_open_when_budget_reaches_owner_id() {
        // With a known nearby ID the incrementing strategy hits the
        // allowed ID before the broken-message counter (threshold 10)
        // isolates the attacker — Table VII's variant (b).
        let owner = KeylessConfig::default().owner_key_id;
        let mut spoof =
            KeyIdSpoof::new(KeyGuessStrategy::Incrementing { base: owner - 5 }, 1, 2_000, 1);
        let outcome = run_with(no_cr(), |_| {}, &mut spoof);
        assert!(outcome.lock_open, "{outcome:?}");
        assert!(outcome.sg01_violated);
    }

    #[test]
    fn ad08_succeeds_without_allowlist() {
        let controls = ControlSelection { allow_list: false, ..no_cr() };
        let mut spoof = KeyIdSpoof::new(KeyGuessStrategy::Random, 1, 10, 1);
        let outcome = run_with(controls, |_| {}, &mut spoof);
        assert!(outcome.lock_open);
        assert!(outcome.sg01_violated);
    }

    #[test]
    fn ad14_flood_starves_open_without_rate_limit() {
        let controls = ControlSelection { flood_protection: false, ..no_cr() };
        let outcome = run_with(
            controls,
            |w| w.schedule_owner_open(SimTime::from_secs(1)),
            &mut ServiceFlood::ad14(),
        );
        assert!(outcome.sg03_violated, "{outcome:?}");
    }

    #[test]
    fn ad14_flood_contained_by_rate_limit() {
        let outcome = run_with(
            no_cr(),
            |w| w.schedule_owner_open(SimTime::from_secs(1)),
            &mut ServiceFlood::ad14(),
        );
        assert!(!outcome.sg03_violated, "{outcome:?}");
    }

    #[test]
    fn ad15_jam_blocks_opening() {
        let outcome = run_with(
            no_cr(),
            |w| w.schedule_owner_open(SimTime::from_secs(1)),
            &mut BleJam::new(SimTime::ZERO, SimTime::from_secs(3_600)),
        );
        assert!(outcome.sg03_violated, "jamming defeats message-level controls: {outcome:?}");
    }

    #[test]
    fn ad18_close_spoof_stopped_by_challenge_response() {
        let owner = KeylessConfig::default().owner_key_id;
        let outcome = run_with(
            ControlSelection::all(),
            |w| w.schedule_owner_open(SimTime::from_secs(1)),
            &mut SpoofClose::new(SimTime::from_secs(2), owner),
        );
        assert!(!outcome.sg04_violated, "{outcome:?}");
        assert!(outcome.lock_open, "vehicle stays open for the entering person");
    }

    #[test]
    fn ad18_close_spoof_succeeds_without_challenge_response() {
        let owner = KeylessConfig::default().owner_key_id;
        let outcome = run_with(
            no_cr(),
            |w| w.schedule_owner_open(SimTime::from_secs(1)),
            &mut SpoofClose::new(SimTime::from_secs(2), owner),
        );
        assert!(outcome.sg04_violated, "{outcome:?}");
    }

    #[test]
    fn ad09_stub_injection_filtered_by_gateway() {
        let mut inject = CanStubInject::new(SimTime::from_millis(100), CMD_OPEN);
        let outcome = run_with(ControlSelection::all(), |_| {}, &mut inject);
        assert!(!outcome.lock_open, "{outcome:?}");
        assert!(!outcome.sg01_violated);
    }

    #[test]
    fn ad09_stub_injection_opens_without_filtering() {
        let controls = ControlSelection { can_filtering: false, ..ControlSelection::all() };
        let mut inject = CanStubInject::new(SimTime::from_millis(100), CMD_OPEN);
        let outcome = run_with(controls, |_| {}, &mut inject);
        assert!(outcome.lock_open, "{outcome:?}");
        assert!(outcome.sg01_violated);
    }

    #[test]
    fn ad24_unauthenticated_tamper_fails() {
        let mut tamper = AllowlistTamper::new(0xEE01, None, SimTime::from_millis(100));
        let outcome = run_with(no_cr(), |_| {}, &mut tamper);
        assert!(!outcome.lock_open, "{outcome:?}");
    }

    #[test]
    fn replay_after_close_rejected_with_full_stack() {
        let mut replay = ReplayOpen::new(SimTime::from_secs(8));
        let outcome = run_with(
            no_cr(),
            |w| {
                w.schedule_owner_open(SimTime::from_secs(1));
                w.schedule_owner_close(SimTime::from_secs(5));
            },
            &mut replay,
        );
        assert!(!outcome.lock_open, "{outcome:?}");
        assert_eq!(outcome.transitions, 2);
    }

    #[test]
    fn replay_succeeds_with_auth_only() {
        let controls =
            ControlSelection { authentication: true, allow_list: true, ..ControlSelection::none() };
        let mut replay = ReplayOpen::new(SimTime::from_secs(8));
        let outcome = run_with(
            controls,
            |w| {
                w.schedule_owner_open(SimTime::from_secs(1));
                w.schedule_owner_close(SimTime::from_secs(5));
            },
            &mut replay,
        );
        assert!(outcome.lock_open, "{outcome:?}");
        assert!(outcome.sg01_violated);
    }

    #[test]
    fn guess_budget_is_respected() {
        let mut spoof = KeyIdSpoof::new(KeyGuessStrategy::Random, 100, 50, 1);
        let config = KeylessConfig { horizon: Ftti::from_secs(2), ..Default::default() };
        let mut world = KeylessWorld::new(config);
        world.schedule_owner_open(SimTime::from_millis(1_500));
        let _ = world.run(&mut spoof);
        assert_eq!(spoof.sent, 50);
    }
}
