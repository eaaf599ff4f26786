//! Attacks on the RSU–OBU V2X interface (Use Case I).

use std::sync::Arc;

use bytes::Bytes;
use saseval_types::{Ftti, SimTime};
use vehicle_net::v2x::V2xMessage;
use vehicle_sim::construction::{ConstructionWorld, MSG_ROADWORKS, MSG_SIGNAGE};
use vehicle_sim::AttackerHook;

/// Table VI's AD20: an *authenticated* attacker floods the OBU_RSU
/// interface with extra messages ("with high frequency or in chaotic
/// way") to overload the ECU. Attack types: Denial of service / Disable.
///
/// The attacker starts once the vehicle approaches the construction site
/// (the precondition of AD20) and sends `per_tick` correctly signed
/// road-works messages per tick under its own sender identity.
#[derive(Debug, Clone)]
pub struct AuthenticatedFlood {
    /// The attacker's sender identity, shared by every injected message.
    pub sender: Arc<str>,
    /// Messages injected per tick.
    pub per_tick: usize,
    /// Distance to the site below which the attack runs (the
    /// precondition), in metres.
    pub within_m: f64,
}

impl AuthenticatedFlood {
    /// AD20's parameters: 40 messages per tick (4 000/s), starting while
    /// the vehicle approaches the site — before it reaches the RSU range,
    /// so the service is already overloaded when the genuine warning
    /// would arrive.
    pub fn ad20() -> Self {
        AuthenticatedFlood { sender: Arc::from("attacker"), per_tick: 40, within_m: 1_200.0 }
    }
}

/// The flood's junk payloads `[0xEE, i]` for `i` in `0..251`, built at
/// compile time so every injected message signs static bytes.
static FLOOD_PAYLOADS: [[u8; 2]; 251] = {
    let mut table = [[0xEE, 0]; 251];
    let mut i = 0;
    while i < table.len() {
        table[i][1] = i as u8;
        i += 1;
    }
    table
};

impl AttackerHook<ConstructionWorld> for AuthenticatedFlood {
    fn on_tick(&mut self, world: &mut ConstructionWorld, now: SimTime) {
        let distance = world.config().site_position_m - world.vehicle().position_m();
        if distance > self.within_m || distance <= 0.0 {
            return;
        }
        // "extra messages … in chaotic way" (Table VI): validly signed
        // frames of a non-warning type, useless but budget-consuming.
        let payloads = (0..self.per_tick)
            .map(|i| Bytes::from_static(&FLOOD_PAYLOADS[i % FLOOD_PAYLOADS.len()]));
        world.broadcast_signed(&self.sender, payloads, now);
    }
}

/// An unauthenticated forgery: the attacker injects a crafted payload
/// without a valid tag. Models the Spoofing ("Fake messages") and
/// Tampering ("Alter", "Inject") attack types — an altered message fails
/// the integrity check exactly like a forged one.
#[derive(Debug, Clone)]
pub struct UnsignedSpoof {
    /// The attacker's claimed sender identity.
    pub sender: String,
    /// The forged payload.
    pub payload: Vec<u8>,
    /// Injection period (every `period` of virtual time).
    pub period: Ftti,
    next: Option<SimTime>,
}

impl UnsignedSpoof {
    /// Creates a periodic forgery injection.
    pub fn new(sender: impl Into<String>, payload: Vec<u8>, period: Ftti) -> Self {
        UnsignedSpoof { sender: sender.into(), payload, period, next: None }
    }

    /// AD10: a forged in-vehicle speed limit of `limit` km/h.
    pub fn fake_limit(limit: u8) -> Self {
        UnsignedSpoof::new("RSU-1", vec![MSG_SIGNAGE, limit], Ftti::from_millis(100))
    }
}

impl AttackerHook<ConstructionWorld> for UnsignedSpoof {
    fn on_tick(&mut self, world: &mut ConstructionWorld, now: SimTime) {
        let due = match self.next {
            None => true,
            Some(at) => now >= at,
        };
        if !due {
            return;
        }
        self.next = Some(now + self.period);
        let msg = V2xMessage::new(
            self.sender.clone(),
            u16::from(self.payload.first().copied().unwrap_or(0)),
            bytes::Bytes::copy_from_slice(&self.payload),
            now,
        );
        world.channel_mut().broadcast(msg, now);
    }
}

/// An insider with the signing key spoofs excessive signage (attack type
/// "Fake messages" mounted by an evil-mechanic profile). Only the
/// plausibility check can catch limits outside the physical range; limits
/// inside the range slip through every message-level control — the
/// ablation benches surface that residual risk.
#[derive(Debug, Clone)]
pub struct SignedSpoofLimit {
    /// The spoofed limit in km/h.
    pub limit: u8,
    /// Injection period.
    pub period: Ftti,
    next: Option<SimTime>,
}

impl SignedSpoofLimit {
    /// Creates the insider signage spoof.
    pub fn new(limit: u8, period: Ftti) -> Self {
        SignedSpoofLimit { limit, period, next: None }
    }
}

impl AttackerHook<ConstructionWorld> for SignedSpoofLimit {
    fn on_tick(&mut self, world: &mut ConstructionWorld, now: SimTime) {
        let due = match self.next {
            None => true,
            Some(at) => now >= at,
        };
        if !due {
            return;
        }
        self.next = Some(now + self.period);
        let msg = world.signed_message("RSU-1", &[MSG_SIGNAGE, self.limit], now);
        world.channel_mut().broadcast(msg, now);
    }
}

/// AD17: replays genuine warnings recorded "at other locations or from
/// other vehicles" (attack type Replay). The replayed message is
/// correctly signed but stale: its generation timestamp lies `staleness`
/// in the past.
#[derive(Debug, Clone)]
pub struct ReplayStaleWarning {
    /// When to inject the replay.
    pub at: SimTime,
    /// Age of the recorded warning.
    pub staleness: Ftti,
    done: bool,
}

impl ReplayStaleWarning {
    /// Creates the replay injection.
    pub fn new(at: SimTime, staleness: Ftti) -> Self {
        ReplayStaleWarning { at, staleness, done: false }
    }
}

impl AttackerHook<ConstructionWorld> for ReplayStaleWarning {
    fn on_tick(&mut self, world: &mut ConstructionWorld, now: SimTime) {
        if self.done || now < self.at {
            return;
        }
        self.done = true;
        // A genuine recorded message: signed with the RSU key at its
        // original (old) generation time.
        let generated =
            SimTime::from_micros(now.as_micros().saturating_sub(self.staleness.as_micros()));
        let msg = world.signed_message("RSU-1", &[MSG_ROADWORKS, 200], generated);
        world.channel_mut().broadcast(msg, now);
    }
}

/// AD06/AD23: jams the V2X channel (attack type Jamming).
#[derive(Debug, Clone)]
pub struct JamChannel {
    /// Jam start.
    pub from: SimTime,
    /// Jam end.
    pub until: SimTime,
    armed: bool,
}

impl JamChannel {
    /// Creates a jamming window.
    pub fn new(from: SimTime, until: SimTime) -> Self {
        JamChannel { from, until, armed: true }
    }
}

impl AttackerHook<ConstructionWorld> for JamChannel {
    fn on_tick(&mut self, world: &mut ConstructionWorld, now: SimTime) {
        if self.armed && now >= self.from {
            world.channel_mut().jam(self.until);
            self.armed = false;
        }
    }
}

/// AD05/AD16: store-and-forward delay (attack type Delay). The attacker
/// jams direct reception until `release_at`, then re-broadcasts every
/// sniffed genuine message unchanged (signature and original timestamp
/// intact) — the OBU sees each warning late and stale.
#[derive(Debug, Clone)]
pub struct DelayedDelivery {
    /// When the attacker releases the buffered messages.
    pub release_at: SimTime,
    replayed: bool,
}

impl DelayedDelivery {
    /// Creates the delay attack releasing at `release_at`.
    pub fn new(release_at: SimTime) -> Self {
        DelayedDelivery { release_at, replayed: false }
    }
}

impl AttackerHook<ConstructionWorld> for DelayedDelivery {
    fn on_tick(&mut self, world: &mut ConstructionWorld, now: SimTime) {
        if now < self.release_at {
            world.channel_mut().jam(self.release_at);
        } else if !self.replayed {
            self.replayed = true;
            let buffered: Vec<V2xMessage> = world.sniffed().to_vec();
            for msg in buffered {
                world.channel_mut().broadcast(msg, now);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vehicle_sim::config::ControlSelection;
    use vehicle_sim::construction::{ConstructionConfig, ConstructionWorld};

    fn run(
        controls: ControlSelection,
        hook: &mut dyn AttackerHook<ConstructionWorld>,
    ) -> vehicle_sim::construction::ConstructionOutcome {
        let config = ConstructionConfig { controls, ..Default::default() };
        ConstructionWorld::new(config).run(hook)
    }

    #[test]
    fn ad20_flood_shuts_service_without_counter() {
        let controls = ControlSelection { flood_protection: false, ..ControlSelection::all() };
        let outcome = run(controls, &mut AuthenticatedFlood::ad20());
        assert!(outcome.service_shutdown, "{outcome:?}");
        assert!(outcome.sg01_violated);
    }

    #[test]
    fn ad20_flood_leaves_no_dead_backlog_after_shutdown() {
        // Once the service has shut down its queue is never read again,
        // so the flood that keeps arriving must not pile up in it.
        let controls = ControlSelection { flood_protection: false, ..ControlSelection::all() };
        let config = ConstructionConfig { controls, ..Default::default() };
        let limit = config.obu_queue_limit;
        let mut world = ConstructionWorld::new(config);
        let mut flood = AuthenticatedFlood::ad20();
        let mut ticks_after_shutdown = 0u32;
        while world.step(&mut flood) {
            if !world.service_alive() {
                ticks_after_shutdown += 1;
                assert!(world.obu_backlog() <= limit, "backlog {}", world.obu_backlog());
            }
        }
        assert!(ticks_after_shutdown > 100, "the flood outlives the service");
        assert!(world.obu_backlog() <= limit, "final backlog {}", world.obu_backlog());
        assert!(world.into_outcome().service_shutdown);
    }

    #[test]
    fn ad20_flood_contained_by_counter() {
        let outcome = run(ControlSelection::all(), &mut AuthenticatedFlood::ad20());
        assert!(!outcome.service_shutdown, "{outcome:?}");
        assert!(!outcome.sg01_violated);
        assert!(outcome.isolated_senders.iter().any(|s| s == "attacker"));
    }

    #[test]
    fn fake_limit_rejected_with_auth_accepted_without() {
        let with_auth = run(ControlSelection::all(), &mut UnsignedSpoof::fake_limit(120));
        assert!(!with_auth.sg03_violated);
        // Emergent self-DoS: the forger claimed the genuine RSU identity,
        // so the broken-message counter isolates "RSU-1" itself.
        assert!(with_auth.isolated_senders.iter().any(|s| s == "RSU-1"));
        let without = run(ControlSelection::none(), &mut UnsignedSpoof::fake_limit(120));
        assert!(without.sg03_violated, "{without:?}");
    }

    #[test]
    fn insider_limit_spoof_beats_everything_but_plausibility() {
        // Limit 200 km/h: plausibility (5..=130) catches it.
        let caught =
            run(ControlSelection::all(), &mut SignedSpoofLimit::new(200, Ftti::from_millis(100)));
        assert!(!caught.sg03_violated);
        // Limit 100 km/h: inside the plausible range, slips through even
        // the full stack — the residual risk the ablation bench reports.
        let slipped =
            run(ControlSelection::all(), &mut SignedSpoofLimit::new(100, Ftti::from_millis(100)));
        assert!(slipped.sg03_violated, "{slipped:?}");
    }

    #[test]
    fn stale_replay_rejected_by_freshness() {
        let mut replay = ReplayStaleWarning::new(SimTime::from_secs(1), Ftti::from_secs(30));
        let outcome = run(ControlSelection::all(), &mut replay);
        // Vehicle is far from the site at t=1s; a successful replay would
        // surface an unintended warning there.
        assert_eq!(outcome.unintended_warnings, 0, "{outcome:?}");
        let requested = outcome.takeover_requested_at.expect("nominal warning still arrives");
        assert!(requested > SimTime::from_secs(5), "take-over only at the genuine site");
    }

    #[test]
    fn stale_replay_accepted_without_freshness() {
        let mut replay = ReplayStaleWarning::new(SimTime::from_secs(1), Ftti::from_secs(30));
        let controls = ControlSelection {
            freshness: false,
            replay_protection: false,
            ..ControlSelection::all()
        };
        let outcome = run(controls, &mut replay);
        assert!(outcome.unintended_warnings > 0, "{outcome:?}");
        let requested = outcome.takeover_requested_at.expect("replay triggers take-over");
        assert!(
            requested < SimTime::from_secs(2),
            "unintended take-over long before the site: {requested}"
        );
    }

    #[test]
    fn jamming_defeats_message_level_controls() {
        let mut jam = JamChannel::new(SimTime::ZERO, SimTime::from_secs(3_600));
        let outcome = run(ControlSelection::all(), &mut jam);
        assert!(outcome.sg01_violated, "{outcome:?}");
        assert!(outcome.takeover_requested_at.is_none());
    }

    #[test]
    fn delay_attack_postpones_takeover() {
        let nominal = ConstructionWorld::new(ConstructionConfig::default()).run_nominal();
        let nominal_request = nominal.takeover_requested_at.unwrap();
        // Without freshness the delayed (stale) copies are accepted late.
        let controls = ControlSelection {
            freshness: false,
            replay_protection: false,
            ..ControlSelection::all()
        };
        let config = ConstructionConfig { controls, ..Default::default() };
        let release = nominal_request + Ftti::from_secs(10);
        let outcome = ConstructionWorld::new(config).run(&mut DelayedDelivery::new(release));
        let at = outcome.takeover_requested_at.expect("released copies accepted");
        assert!(
            at > nominal_request + Ftti::from_secs(5),
            "delayed request {at} vs nominal {nominal_request}"
        );
    }

    #[test]
    fn delay_attack_with_freshness_means_no_takeover_from_stale_copies() {
        let nominal = ConstructionWorld::new(ConstructionConfig::default()).run_nominal();
        let release = nominal.takeover_requested_at.unwrap() + Ftti::from_secs(10);
        let outcome = ConstructionWorld::new(ConstructionConfig::default())
            .run(&mut DelayedDelivery::new(release));
        // Stale copies are rejected; only genuinely fresh post-release
        // broadcasts (if the vehicle is still approaching) can help.
        if let Some(at) = outcome.takeover_requested_at {
            assert!(at >= release, "{at} vs release {release}");
        }
    }
}
