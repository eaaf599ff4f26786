//! Use Case I world: autonomous vehicle approaching a construction site
//! (paper §IV-A, Fig. 2).
//!
//! The road-side unit (RSU) periodically broadcasts signed road-works
//! warnings and speed-limit signage over the V2X channel once the vehicle
//! is in range. The on-board unit (OBU) admits messages through its
//! [`ControlStack`], surfaces the warning, and requests a driver
//! take-over; the driver reacts after their reaction time and brakes to
//! the zone speed. The OBU has a finite processing budget per tick and a
//! bounded ingress queue — saturating it shuts the service down, which is
//! attack AD20's success criterion ("Shutdown of service", Table VI).
//!
//! The world evaluates the Use Case I safety goals directly:
//!
//! * **SG01** violated when the vehicle enters the work zone without
//!   control having returned to the driver.
//! * **SG02** violated when control switches more often than the nominal
//!   hand-over sequence allows.
//! * **SG03** violated when an accepted signage limit exceeds the true
//!   zone limit.
//! * **SG04** violated when the take-over completes only after zone entry
//!   (warning missing or too late).

use std::collections::VecDeque;
use std::sync::Arc;

use bytes::Bytes;
use saseval_obs::Obs;
use serde::{Deserialize, Serialize};

use saseval_types::{Ftti, SimTime};
use security_controls::controls::{
    FloodDetector, FreshnessWindow, MacAuthenticator, PlausibilityCheck, ReplayDetector,
};
use security_controls::mac::MacKey;
use security_controls::{ControlStack, Envelope, SecurityLog};
use vehicle_net::v2x::{V2xChannel, V2xConfig, V2xMessage};

use crate::config::ControlSelection;
use crate::trace::{RecycledTrace, TraceRecorder};
use crate::vehicle::{ControlMode, Driver, Vehicle};
use crate::AttackerHook;

/// Payload type byte: road-works warning.
pub const MSG_ROADWORKS: u8 = 1;
/// Payload type byte: speed-limit signage.
pub const MSG_SIGNAGE: u8 = 2;
/// Payload type byte: control-release (automation may resume).
pub const MSG_RELEASE: u8 = 3;
/// The legitimate road-side unit's identity.
pub const RSU_SENDER: &str = "RSU-1";

/// Configuration of the construction-site world.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConstructionConfig {
    /// Initial (automated) cruise speed in m/s.
    pub initial_speed_mps: f64,
    /// Position of the work-zone entry in metres from the start.
    pub site_position_m: f64,
    /// RSU communication range in metres before the site.
    pub rsu_range_m: f64,
    /// Period between RSU warning broadcasts.
    pub warn_period: Ftti,
    /// True speed limit inside the zone in km/h.
    pub zone_speed_limit_kmh: u8,
    /// The driver model.
    pub driver: Driver,
    /// Simulation tick.
    pub tick: Ftti,
    /// Give-up horizon.
    pub horizon: Ftti,
    /// Messages the OBU can admit per tick while the service is alive.
    pub obu_budget_per_tick: usize,
    /// Ingress queue bound; overflowing it shuts the service down.
    pub obu_queue_limit: usize,
    /// Deployed security controls.
    pub controls: ControlSelection,
    /// V2X channel parameters.
    pub v2x: V2xConfig,
    /// RNG seed for the channel.
    pub seed: u64,
    /// Background traffic: number of other vehicles (`BG-i` senders)
    /// periodically broadcasting unauthenticated status messages. Zero —
    /// the default — adds no messages and no channel RNG draws, so
    /// default-config traces are bit-identical to earlier revisions.
    #[serde(default)]
    pub background_senders: u16,
    /// Platoon followers trailing the ego vehicle. Each follower `i`
    /// drives at `(i + 1) × platoon_spacing_m` behind the ego position
    /// and starts broadcasting status messages once it passes the road
    /// origin. Zero disables the platoon entirely.
    #[serde(default)]
    pub platoon_followers: u16,
    /// Gap between consecutive platoon vehicles in metres.
    #[serde(default)]
    pub platoon_spacing_m: f64,
    /// Additional road-side units (`RSU-2`, `RSU-3`, …) rebroadcasting
    /// the signed warning/signage pair on the same period. Zero — the
    /// default — leaves only the single demonstrator RSU.
    #[serde(default)]
    pub extra_rsus: u16,
}

impl Default for ConstructionConfig {
    fn default() -> Self {
        ConstructionConfig {
            initial_speed_mps: 25.0,
            site_position_m: 1_500.0,
            rsu_range_m: 800.0,
            warn_period: Ftti::from_millis(100),
            zone_speed_limit_kmh: 60,
            driver: Driver::default(),
            tick: Ftti::from_millis(10),
            horizon: Ftti::from_secs(180),
            obu_budget_per_tick: 16,
            obu_queue_limit: 256,
            controls: ControlSelection::all(),
            v2x: V2xConfig { latency_us: 2_000, jitter_us: 500, loss_prob: 0.01 },
            seed: 42,
            background_senders: 0,
            platoon_followers: 0,
            platoon_spacing_m: 0.0,
            extra_rsus: 0,
        }
    }
}

/// Outcome of one construction-site run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConstructionOutcome {
    /// When the vehicle entered the work zone (or the horizon elapsed).
    pub entered_zone_at: SimTime,
    /// Speed at zone entry in m/s.
    pub entry_speed_mps: f64,
    /// Whether the vehicle was still under automated control at entry.
    pub entered_automated: bool,
    /// Whether the OBU service shut down (AD20 success criterion).
    pub service_shutdown: bool,
    /// When the take-over was requested, if ever.
    pub takeover_requested_at: Option<SimTime>,
    /// When the driver had manual control, if ever.
    pub manual_at: Option<SimTime>,
    /// Number of control-mode transitions.
    pub mode_switches: u32,
    /// The last accepted signage limit, if any.
    pub applied_limit_kmh: Option<u8>,
    /// SG01 violated: zone entered without control returned to the human.
    pub sg01_violated: bool,
    /// SG02 violated: intermittent control switches.
    pub sg02_violated: bool,
    /// SG03 violated: unsafe speed limit accepted.
    pub sg03_violated: bool,
    /// SG04 violated: take-over missing or completed after zone entry.
    pub sg04_violated: bool,
    /// Senders the broken-message counter isolated (Table VI fail
    /// criterion).
    pub isolated_senders: Vec<String>,
    /// When the first sender was isolated — the detection latency the
    /// flood-sweep ablation reports against the FTTI.
    pub isolated_at: Option<SimTime>,
    /// Warnings accepted while no site was in RSU range — the
    /// "too many unintended warnings" class behind SG05 (attack AD17).
    pub unintended_warnings: u32,
}

impl ConstructionOutcome {
    /// How long the driver had manual control before zone entry — the
    /// safety margin the take-over chain produced. `None` when the driver
    /// never had control before entry.
    pub fn takeover_margin(&self) -> Option<saseval_types::Ftti> {
        self.manual_at.filter(|at| *at < self.entered_zone_at).map(|at| self.entered_zone_at - at)
    }
}

impl ConstructionOutcome {
    /// Whether any Use Case I safety goal was violated.
    pub fn any_violation(&self) -> bool {
        self.sg01_violated || self.sg02_violated || self.sg03_violated || self.sg04_violated
    }
}

/// The running world. Attacker hooks receive `&mut ConstructionWorld` and
/// may inject, replay, alter or jam via [`ConstructionWorld::channel_mut`]
/// and the message helpers.
pub struct ConstructionWorld {
    config: ConstructionConfig,
    now: SimTime,
    vehicle: Vehicle,
    mode: ControlMode,
    channel: V2xChannel,
    stack: ControlStack,
    rsu_key: MacKey,
    obu_queue: VecDeque<V2xMessage>,
    /// Reusable scratch buffer for per-tick channel polls; draining into
    /// it keeps the steady-state step loop free of per-tick allocation.
    delivery_buf: Vec<V2xMessage>,
    /// The payload buffer of the envelope the OBU admits messages in,
    /// reused from one message to the next.
    payload_buf: Vec<u8>,
    service_alive: bool,
    next_broadcast: Option<SimTime>,
    applied_limit_kmh: Option<u8>,
    unsafe_limit_accepted: bool,
    unintended_warnings: u32,
    mode_switches: u32,
    takeover_requested_at: Option<SimTime>,
    manual_at: Option<SimTime>,
    sniffed: Vec<V2xMessage>,
    trace: RecycledTrace,
    obs: Obs,
    ticks: u64,
    entered_zone: bool,
}

impl Clone for ConstructionWorld {
    fn clone(&self) -> Self {
        ConstructionWorld {
            config: self.config.clone(),
            now: self.now,
            vehicle: self.vehicle,
            mode: self.mode,
            channel: self.channel.clone(),
            stack: self.stack.clone(),
            rsu_key: self.rsu_key,
            obu_queue: self.obu_queue.clone(),
            delivery_buf: self.delivery_buf.clone(),
            payload_buf: self.payload_buf.clone(),
            service_alive: self.service_alive,
            next_broadcast: self.next_broadcast,
            applied_limit_kmh: self.applied_limit_kmh,
            unsafe_limit_accepted: self.unsafe_limit_accepted,
            unintended_warnings: self.unintended_warnings,
            mode_switches: self.mode_switches,
            takeover_requested_at: self.takeover_requested_at,
            manual_at: self.manual_at,
            sniffed: self.sniffed.clone(),
            trace: self.trace.clone(),
            obs: self.obs.clone(),
            ticks: self.ticks,
            entered_zone: self.entered_zone,
        }
    }

    /// Copies `source` into this world, reusing every buffer it holds:
    /// channel, stack, OBU queue, the scratch buffer, the sniffed feed
    /// and the trace. Every field is listed, so a new one cannot be
    /// left out of the copy.
    fn clone_from(&mut self, source: &Self) {
        let ConstructionWorld {
            config,
            now,
            vehicle,
            mode,
            channel,
            stack,
            rsu_key,
            obu_queue,
            delivery_buf,
            payload_buf,
            service_alive,
            next_broadcast,
            applied_limit_kmh,
            unsafe_limit_accepted,
            unintended_warnings,
            mode_switches,
            takeover_requested_at,
            manual_at,
            sniffed,
            trace,
            obs,
            ticks,
            entered_zone,
        } = self;
        config.clone_from(&source.config);
        *now = source.now;
        *vehicle = source.vehicle;
        *mode = source.mode;
        channel.clone_from(&source.channel);
        stack.clone_from(&source.stack);
        *rsu_key = source.rsu_key;
        obu_queue.clone_from(&source.obu_queue);
        delivery_buf.clone_from(&source.delivery_buf);
        payload_buf.clone_from(&source.payload_buf);
        *service_alive = source.service_alive;
        *next_broadcast = source.next_broadcast;
        *applied_limit_kmh = source.applied_limit_kmh;
        *unsafe_limit_accepted = source.unsafe_limit_accepted;
        *unintended_warnings = source.unintended_warnings;
        *mode_switches = source.mode_switches;
        *takeover_requested_at = source.takeover_requested_at;
        *manual_at = source.manual_at;
        sniffed.clone_from(&source.sniffed);
        trace.clone_from(&source.trace);
        obs.clone_from(&source.obs);
        *ticks = source.ticks;
        *entered_zone = source.entered_zone;
    }
}

impl std::fmt::Debug for ConstructionWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConstructionWorld")
            .field("now", &self.now)
            .field("position_m", &self.vehicle.position_m())
            .field("mode", &self.mode)
            .field("service_alive", &self.service_alive)
            .finish()
    }
}

impl ConstructionWorld {
    /// Creates the world in its initial state.
    pub fn new(config: ConstructionConfig) -> Self {
        let rsu_key = MacKey::new(config.seed ^ 0x5256_5355); // "RSU"-flavoured
        let mut stack = ControlStack::new("OBU");
        let c = config.controls;
        if c.authentication {
            stack.push(MacAuthenticator::new(rsu_key));
        }
        if c.freshness {
            stack.push(FreshnessWindow::new(Ftti::from_millis(500)));
        }
        if c.replay_protection {
            stack.push(ReplayDetector::new(4_096));
        }
        if c.flood_protection {
            // The legitimate RSU sends ~20 messages/s (warning + signage
            // per 100 ms); 30/s leaves headroom.
            stack.push(FloodDetector::new(30, Ftti::from_secs(1)));
        }
        if c.plausibility {
            stack.push(PlausibilityCheck::new("signage-plausibility", |env, _| {
                match env.payload() {
                    [MSG_SIGNAGE, limit, ..] if !(5..=130).contains(limit) => {
                        Err(format!("speed limit {limit} outside [5, 130]"))
                    }
                    _ => Ok(()),
                }
            }));
        }
        let vehicle = Vehicle::new(config.initial_speed_mps);
        let channel = V2xChannel::new(config.v2x, config.seed);
        ConstructionWorld {
            config,
            now: SimTime::ZERO,
            vehicle,
            mode: ControlMode::Automated,
            channel,
            stack,
            rsu_key,
            obu_queue: VecDeque::new(),
            delivery_buf: Vec::new(),
            payload_buf: Vec::new(),
            service_alive: true,
            next_broadcast: None,
            applied_limit_kmh: None,
            unsafe_limit_accepted: false,
            unintended_warnings: 0,
            mode_switches: 0,
            takeover_requested_at: None,
            manual_at: None,
            sniffed: Vec::new(),
            trace: RecycledTrace::default(),
            obs: Obs::noop(),
            ticks: 0,
            entered_zone: false,
        }
    }

    /// Attaches a metrics handle. The world emits a
    /// `world.construction.run_seconds` span, tick/event counters, and
    /// propagates the handle to the V2X channel (`net.v2x.*`).
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.channel.set_obs(obs.clone());
        self.obs = obs;
        self
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The vehicle state.
    pub fn vehicle(&self) -> &Vehicle {
        &self.vehicle
    }

    /// The current control mode.
    pub fn mode(&self) -> ControlMode {
        self.mode
    }

    /// Whether the OBU service is still alive.
    pub fn service_alive(&self) -> bool {
        self.service_alive
    }

    /// Messages waiting in the OBU ingress queue. Once the service has
    /// shut down the queue is never read again, so it is emptied and
    /// later deliveries are dropped: the backlog stays at zero.
    pub fn obu_backlog(&self) -> usize {
        self.obu_queue.len()
    }

    /// The RSU's signing key. Table VI's implementation comment requires
    /// an *authenticated* attacker ("create an authenticated sender as
    /// attacker besides the original sender"), so the attack engine may
    /// obtain the key.
    pub fn rsu_key(&self) -> MacKey {
        self.rsu_key
    }

    /// Mutable access to the V2X channel for injection and jamming.
    pub fn channel_mut(&mut self) -> &mut V2xChannel {
        &mut self.channel
    }

    /// Every genuine RSU broadcast so far — the attacker's eavesdropping
    /// feed (replay and delay attacks record from here).
    pub fn sniffed(&self) -> &[V2xMessage] {
        &self.sniffed
    }

    /// The OBU's security log.
    pub fn security_log(&self) -> &SecurityLog {
        self.stack.log()
    }

    /// The functional trace.
    pub fn trace(&self) -> &TraceRecorder {
        self.trace.recorder()
    }

    /// The world configuration.
    pub fn config(&self) -> &ConstructionConfig {
        &self.config
    }

    /// Builds a correctly signed message from `sender` — used by the RSU
    /// and by authenticated attackers (AD20).
    pub fn signed_message(
        &self,
        sender: impl Into<Arc<str>>,
        payload: &[u8],
        at: SimTime,
    ) -> V2xMessage {
        self.signed_message_bytes(sender, Bytes::copy_from_slice(payload), at)
    }

    /// [`ConstructionWorld::signed_message`] over a payload the caller
    /// already holds as [`Bytes`]. With a shared sender and a static or
    /// shared payload the message is built without allocating.
    pub fn signed_message_bytes(
        &self,
        sender: impl Into<Arc<str>>,
        payload: Bytes,
        at: SimTime,
    ) -> V2xMessage {
        let sender = sender.into();
        let tag = MacAuthenticator::sign(self.rsu_key, &sender, &payload, at);
        let msg_type = u16::from(payload.first().copied().unwrap_or(0));
        V2xMessage::new(sender, msg_type, payload, at).with_auth_tag(tag.raw())
    }

    /// Signs each payload as `sender` at `at` and broadcasts it at `at` —
    /// the authenticated attacker's (AD20) injection primitive.
    ///
    /// A message is *unread* when the OBU will certainly drop it on
    /// arrival: its service has shut down, or `sender` is isolated.
    /// Neither state is ever undone, so the decision holds from send time
    /// on. Unread messages are neither built nor signed: they go to the
    /// channel as one [`V2xChannel::broadcast_unread_burst`], which makes
    /// each message's draws and counts, so the channel's RNG stream and
    /// statistics stay as if every message had been sent.
    pub fn broadcast_signed(
        &mut self,
        sender: &Arc<str>,
        payloads: impl IntoIterator<Item = Bytes>,
        at: SimTime,
    ) {
        if !self.service_alive || self.stack.is_isolated(sender) {
            let count = payloads.into_iter().count();
            let count = u32::try_from(count).expect("a tick's flood fits a u32 burst");
            self.channel.broadcast_unread_burst(count, at);
            return;
        }
        for payload in payloads {
            let msg = self.signed_message_bytes(Arc::clone(sender), payload, at);
            self.channel.broadcast(msg, at);
        }
    }

    /// Whether the RSU broadcasts on this tick: the vehicle is in range
    /// of the site and the warning period has elapsed.
    fn rsu_broadcast_due(&self) -> bool {
        let distance_to_site = self.config.site_position_m - self.vehicle.position_m();
        if distance_to_site > self.config.rsu_range_m || distance_to_site <= 0.0 {
            return false;
        }
        self.next_broadcast.is_none_or(|at| self.now >= at)
    }

    fn rsu_tick(&mut self) {
        if !self.rsu_broadcast_due() {
            return;
        }
        let distance_to_site = self.config.site_position_m - self.vehicle.position_m();
        self.next_broadcast = Some(self.now + self.config.warn_period);
        let distance_dm = (distance_to_site / 10.0).clamp(0.0, 255.0) as u8;
        let warning = self.signed_message(RSU_SENDER, &[MSG_ROADWORKS, distance_dm], self.now);
        self.sniffed.push(warning.clone());
        self.channel.broadcast(warning, self.now);
        let signage = self.signed_message(
            RSU_SENDER,
            &[MSG_SIGNAGE, self.config.zone_speed_limit_kmh],
            self.now,
        );
        self.sniffed.push(signage.clone());
        self.channel.broadcast(signage, self.now);
        // Additional road-side units rebroadcast the same signed pair
        // from their own sender identities on the shared period —
        // infrastructure density as a scenario dimension.
        for k in 0..self.config.extra_rsus {
            let sender: Arc<str> = Arc::from(format!("RSU-{}", k + 2));
            let warning =
                self.signed_message(Arc::clone(&sender), &[MSG_ROADWORKS, distance_dm], self.now);
            self.channel.broadcast(warning, self.now);
            let signage = self.signed_message(
                sender,
                &[MSG_SIGNAGE, self.config.zone_speed_limit_kmh],
                self.now,
            );
            self.channel.broadcast(signage, self.now);
        }
    }

    /// Payload type byte of background-traffic status messages. Not one
    /// of the `MSG_*` command bytes, so an admitted status message is
    /// channel load only.
    const MSG_TRAFFIC: u8 = 0xCA;
    /// Payload type byte of platoon-follower status messages.
    const MSG_PLATOON: u8 = 0xCB;
    /// Ticks between consecutive status broadcasts of one background or
    /// platoon sender (100 ms at the default 10 ms tick).
    const STATUS_PERIOD_TICKS: u64 = 10;

    /// Background traffic and platoon followers: unauthenticated status
    /// broadcasts that load the channel, the OBU ingress queue and — with
    /// authentication armed — the broken-message isolation counters.
    /// Follower positions are derived from the ego position (follower `i`
    /// trails by `(i + 1) × platoon_spacing_m`), so followers only start
    /// transmitting once they pass the road origin. With both counts at
    /// zero (the default) this is a no-op that draws no channel RNG.
    fn traffic_tick(&mut self) {
        if !self.traffic_due() {
            return;
        }
        for i in 0..self.config.background_senders {
            let msg = V2xMessage::new(
                format!("BG-{i}"),
                u16::from(Self::MSG_TRAFFIC),
                Bytes::copy_from_slice(&[Self::MSG_TRAFFIC, i as u8]),
                self.now,
            );
            self.channel.broadcast(msg, self.now);
        }
        for i in 0..self.config.platoon_followers {
            let trail = f64::from(i + 1) * self.config.platoon_spacing_m;
            if self.vehicle.position_m() - trail < 0.0 {
                continue;
            }
            let msg = V2xMessage::new(
                format!("PLT-{i}"),
                u16::from(Self::MSG_PLATOON),
                Bytes::copy_from_slice(&[Self::MSG_PLATOON, i as u8]),
                self.now,
            );
            self.channel.broadcast(msg, self.now);
        }
    }

    /// Whether background or platoon senders broadcast on this tick.
    fn traffic_due(&self) -> bool {
        (self.config.background_senders > 0 || self.config.platoon_followers > 0)
            && self.ticks.is_multiple_of(Self::STATUS_PERIOD_TICKS)
    }

    fn obu_tick(&mut self) {
        let mut delivered = std::mem::take(&mut self.delivery_buf);
        self.channel.poll_into(self.now, &mut delivered);
        if !self.service_alive {
            // A shut-down service never comes back and never reads its
            // queue again: drop the deliveries instead of hoarding them.
            delivered.clear();
            self.delivery_buf = delivered;
            return;
        }
        for msg in delivered.drain(..) {
            // Messages from isolated senders are shed at ingress — the
            // "enforce change of frequency" effect of Table VI.
            if self.stack.is_isolated(msg.sender()) {
                continue;
            }
            self.obu_queue.push_back(msg);
        }
        self.delivery_buf = delivered;
        if self.obu_queue.len() > self.config.obu_queue_limit {
            self.service_alive = false;
            self.obu_queue.clear();
            self.trace.record(
                self.now,
                "OBU",
                "service-shutdown",
                format_args!("ingress queue exceeded {} messages", self.config.obu_queue_limit),
            );
            return;
        }
        for _ in 0..self.config.obu_budget_per_tick {
            let Some(msg) = self.obu_queue.pop_front() else { break };
            let mut payload = std::mem::take(&mut self.payload_buf);
            payload.clear();
            payload.extend_from_slice(msg.payload());
            let mut envelope =
                Envelope::new(Arc::clone(msg.shared_sender()), msg.generated_at(), payload);
            if let Some(tag) = msg.auth_tag() {
                envelope = envelope.with_tag(security_controls::mac::Tag::from_raw(tag));
            }
            let accepted = self.stack.admit(&envelope, self.now).is_accepted();
            self.payload_buf = envelope.into_payload();
            if !accepted {
                continue;
            }
            match *msg.payload().as_ref() {
                [MSG_ROADWORKS, ..] => {
                    let distance = self.config.site_position_m - self.vehicle.position_m();
                    if distance > self.config.rsu_range_m || distance <= 0.0 {
                        // A warning surfaced although no site is in range —
                        // the "unintended warnings" class behind SG05.
                        self.unintended_warnings += 1;
                        self.trace.record(
                            self.now,
                            "OBU",
                            "unintended-warning",
                            "warning accepted outside any site's RSU range",
                        );
                    }
                    if matches!(self.mode, ControlMode::Automated) {
                        let complete_at = self.now + self.config.driver.reaction;
                        self.mode = ControlMode::TakeOverRequested { complete_at };
                        self.mode_switches += 1;
                        self.takeover_requested_at.get_or_insert(self.now);
                        self.trace.record(
                            self.now,
                            "OBU",
                            "take-over-requested",
                            "road-works warning surfaced to driver",
                        );
                    }
                }
                [MSG_SIGNAGE, limit, ..] => {
                    if limit > self.config.zone_speed_limit_kmh {
                        self.unsafe_limit_accepted = true;
                    }
                    if self.applied_limit_kmh != Some(limit) {
                        self.applied_limit_kmh = Some(limit);
                        self.trace.record(
                            self.now,
                            "OBU",
                            "limit-applied",
                            format_args!("{limit} km/h"),
                        );
                    }
                }
                [MSG_RELEASE, ..] if !matches!(self.mode, ControlMode::Automated) => {
                    self.mode = ControlMode::Automated;
                    self.mode_switches += 1;
                    self.trace.record(self.now, "OBU", "control-released", "automation resumed");
                }
                _ => {}
            }
        }
    }

    /// Driver take-over completion and acceleration decision — the part
    /// of a tick that precedes the kinematics integration.
    fn driver_decision_tick(&mut self) {
        if let ControlMode::TakeOverRequested { complete_at } = self.mode {
            if self.now >= complete_at {
                self.mode = ControlMode::Manual;
                self.mode_switches += 1;
                self.manual_at.get_or_insert(self.now);
                self.trace.record(self.now, "driver", "manual-control", "driver has taken over");
            }
        }
        let zone_speed_mps = f64::from(self.config.zone_speed_limit_kmh) / 3.6;
        match self.mode {
            ControlMode::Manual => {
                if self.vehicle.speed_mps() > zone_speed_mps {
                    self.vehicle.set_accel(-self.config.driver.braking_mps2);
                } else {
                    self.vehicle.set_accel(0.0);
                }
            }
            _ => self.vehicle.set_accel(0.0),
        }
    }

    /// Everything in a tick up to (but excluding) the kinematics
    /// integration: RSU broadcast, OBU admission, driver decision.
    fn pre_kinematics_tick(&mut self) {
        self.rsu_tick();
        self.traffic_tick();
        self.obu_tick();
        self.driver_decision_tick();
    }

    /// Advances virtual time past the just-integrated tick and latches
    /// the end condition.
    fn commit_tick(&mut self) {
        self.now += self.config.tick;
        self.ticks += 1;
        if self.vehicle.position_m() >= self.config.site_position_m {
            self.entered_zone = true;
        }
    }

    fn finish(&self) -> ConstructionOutcome {
        let entered_zone = self.entered_zone;
        let entered_automated = !matches!(self.mode, ControlMode::Manual);
        let sg01_violated = entered_zone && entered_automated;
        let sg02_violated = self.mode_switches > 2;
        let sg03_violated = self.unsafe_limit_accepted;
        let sg04_violated = match self.manual_at {
            Some(at) => !entered_zone || at >= self.now,
            None => true,
        } && entered_zone;
        let isolation_events: Vec<_> = self
            .stack
            .log()
            .events()
            .iter()
            .filter(|e| e.detail.contains("unwanted sender"))
            .collect();
        let isolated_at = isolation_events.first().map(|e| e.at);
        let isolated_senders = isolation_events.iter().map(|e| e.sender.to_string()).collect();
        ConstructionOutcome {
            entered_zone_at: self.now,
            entry_speed_mps: self.vehicle.speed_mps(),
            entered_automated,
            service_shutdown: !self.service_alive,
            takeover_requested_at: self.takeover_requested_at,
            manual_at: self.manual_at,
            mode_switches: self.mode_switches,
            applied_limit_kmh: self.applied_limit_kmh,
            sg01_violated,
            sg02_violated,
            sg03_violated,
            sg04_violated,
            isolated_senders,
            isolated_at,
            unintended_warnings: self.unintended_warnings,
        }
    }

    /// Whether the run has reached its end condition (zone entry or the
    /// horizon).
    pub fn is_done(&self) -> bool {
        self.entered_zone || self.now >= SimTime::ZERO + self.config.horizon
    }

    /// Performs one tick under the given attacker. Returns whether a tick
    /// was performed (`false` once [`ConstructionWorld::is_done`]).
    pub fn step(&mut self, attacker: &mut dyn AttackerHook<ConstructionWorld>) -> bool {
        if self.is_done() {
            return false;
        }
        let now = self.now;
        attacker.on_tick(self, now);
        self.pre_kinematics_tick();
        self.vehicle.step(self.config.tick);
        self.commit_tick();
        true
    }

    /// Steps until virtual time reaches `until` (or the run ends).
    pub fn run_until(
        &mut self,
        until: SimTime,
        attacker: &mut dyn AttackerHook<ConstructionWorld>,
    ) {
        while self.now < until && self.step(attacker) {}
    }

    /// Attacker-free [`ConstructionWorld::run_until`] with quiet ticks
    /// reduced to their kinematics; pass [`SimTime::MAX`] to run to the
    /// end condition. The world ends bit-identical to
    /// `run_until(until, &mut ())` — state, trace, security log, channel
    /// statistics, `now` and the tick count.
    ///
    /// The vehicle moves every tick, so no time is skipped. A tick is
    /// quiet when no RSU broadcast is due at the current position, no
    /// traffic broadcast is due, the channel has nothing in flight and
    /// the OBU queue is empty: its RSU, traffic and OBU phases then do
    /// nothing, and only the driver decision, the same kinematics
    /// integration and the commit run.
    pub fn advance_unattacked(&mut self, until: SimTime) {
        while self.now < until && !self.is_done() {
            let quiet = !self.rsu_broadcast_due()
                && !self.traffic_due()
                && self.channel.is_idle()
                && self.obu_queue.is_empty();
            if quiet {
                self.driver_decision_tick();
            } else {
                self.pre_kinematics_tick();
            }
            self.vehicle.step(self.config.tick);
            self.commit_tick();
        }
    }

    /// Deep-copies the world; the fork replays bit-identically to a
    /// from-scratch run brought to the same state, then diverges
    /// independently.
    pub fn fork(&self) -> ConstructionWorld {
        self.clone()
    }

    /// Freezes the current state as a copy-on-write snapshot to fork many
    /// runs from a warm common prefix.
    pub fn snapshot(&self) -> crate::WorldSnapshot<ConstructionWorld> {
        crate::WorldSnapshot::new(self.clone())
    }

    /// Builds an attacker-free world under `config`, runs it to `at` and
    /// freezes it: the warm prefix a fuzz run resets its scratch world to
    /// before every input, so the run pays world construction and the
    /// prefix once. The prefix is reached by next-event jumps, so
    /// building it is cheap.
    pub fn warm_snapshot(
        config: ConstructionConfig,
        at: SimTime,
    ) -> crate::WorldSnapshot<ConstructionWorld> {
        let mut world = ConstructionWorld::new(config);
        world.advance_unattacked(at);
        world.snapshot()
    }

    /// Consumes the world and evaluates the safety goals on its current
    /// state, flushing the tick counter. [`ConstructionWorld::run`] is
    /// stepping to completion followed by this.
    pub fn into_outcome(self) -> ConstructionOutcome {
        self.outcome()
    }

    /// [`ConstructionWorld::into_outcome`] by reference, for a world that
    /// is reset and reused afterwards. It flushes the tick counter too,
    /// so call it once per run.
    pub fn outcome(&self) -> ConstructionOutcome {
        self.obs.counter("world.construction.ticks", self.ticks);
        self.finish()
    }

    /// Runs the world to zone entry (or the horizon) under the given
    /// attacker.
    pub fn run(
        mut self,
        attacker: &mut dyn AttackerHook<ConstructionWorld>,
    ) -> ConstructionOutcome {
        let span = self.obs.span("world.construction.run_seconds");
        while self.step(attacker) {}
        self.obs.counter("world.construction.ticks", self.ticks);
        span.finish();
        self.finish()
    }

    /// Runs the world without any attacker (the nominal baseline).
    pub fn run_nominal(self) -> ConstructionOutcome {
        self.run(&mut ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> ConstructionWorld {
        ConstructionWorld::new(ConstructionConfig::default())
    }

    #[test]
    fn nominal_run_hands_over_safely() {
        let outcome = world().run_nominal();
        assert!(!outcome.any_violation(), "{outcome:?}");
        assert!(!outcome.entered_automated);
        assert!(!outcome.service_shutdown);
        assert!(outcome.takeover_requested_at.is_some());
        assert!(outcome.manual_at.is_some());
        assert_eq!(outcome.mode_switches, 2);
        assert_eq!(outcome.applied_limit_kmh, Some(60));
        // Entry speed respects the zone limit (60 km/h ≈ 16.7 m/s).
        assert!(outcome.entry_speed_mps <= 60.0 / 3.6 + 0.1, "{}", outcome.entry_speed_mps);
    }

    #[test]
    fn nominal_run_is_deterministic() {
        let a = world().run_nominal();
        let b = world().run_nominal();
        assert_eq!(a.entered_zone_at, b.entered_zone_at);
        assert_eq!(a.takeover_requested_at, b.takeover_requested_at);
        assert_eq!(a.entry_speed_mps, b.entry_speed_mps);
    }

    #[test]
    fn without_rsu_range_no_takeover() {
        // RSU range 0: the warning never reaches the vehicle; SG01/SG04
        // violated even without an attacker (sanity check of the
        // violation predicates).
        let config = ConstructionConfig { rsu_range_m: 0.0, ..Default::default() };
        let outcome = ConstructionWorld::new(config).run_nominal();
        assert!(outcome.sg01_violated);
        assert!(outcome.sg04_violated);
        assert!(outcome.entered_automated);
    }

    #[test]
    fn jammed_channel_prevents_takeover() {
        struct Jam;
        impl AttackerHook<ConstructionWorld> for Jam {
            fn on_tick(&mut self, world: &mut ConstructionWorld, now: SimTime) {
                if now == SimTime::ZERO {
                    world.channel_mut().jam(SimTime::from_secs(3_600));
                }
            }
        }
        let outcome = world().run(&mut Jam);
        assert!(outcome.sg01_violated);
        assert!(outcome.takeover_requested_at.is_none());
    }

    #[test]
    fn unsigned_injection_rejected_with_auth() {
        // A forged release message without a valid tag must be ignored
        // when authentication is on.
        struct Inject;
        impl AttackerHook<ConstructionWorld> for Inject {
            fn on_tick(&mut self, world: &mut ConstructionWorld, now: SimTime) {
                let msg = V2xMessage::new("EVIL", 3, Bytes::from_static(&[MSG_RELEASE]), now);
                world.channel_mut().broadcast(msg, now);
            }
        }
        let outcome = world().run(&mut Inject);
        assert!(!outcome.sg02_violated, "{outcome:?}");
        assert!(!outcome.entered_automated);
        // The forger got isolated by the broken-message counter.
        assert!(outcome.isolated_senders.iter().any(|s| s == "EVIL"));
    }

    #[test]
    fn unsigned_injection_succeeds_without_controls() {
        // The same forged release flips control back with controls off —
        // oscillation (SG02) and automated zone entry (SG01).
        struct Inject;
        impl AttackerHook<ConstructionWorld> for Inject {
            fn on_tick(&mut self, world: &mut ConstructionWorld, now: SimTime) {
                let msg = V2xMessage::new("EVIL", 3, Bytes::from_static(&[MSG_RELEASE]), now);
                world.channel_mut().broadcast(msg, now);
            }
        }
        let config =
            ConstructionConfig { controls: ControlSelection::none(), ..Default::default() };
        let outcome = ConstructionWorld::new(config).run(&mut Inject);
        assert!(outcome.sg02_violated);
        assert!(outcome.sg01_violated);
        assert!(outcome.mode_switches > 2);
    }

    #[test]
    fn horizon_run_reports_no_zone_entry() {
        // A stationary vehicle never reaches the site.
        let config = ConstructionConfig {
            initial_speed_mps: 0.0,
            horizon: Ftti::from_secs(2),
            ..Default::default()
        };
        let outcome = ConstructionWorld::new(config).run_nominal();
        assert!(!outcome.sg01_violated, "no zone entry, no SG01 violation");
        assert!(!outcome.sg04_violated);
    }

    #[test]
    fn scenario_traffic_knobs_preserve_nominal_safety() {
        // Background traffic, a platoon and extra RSUs load the channel
        // and the OBU, but the nominal hand-over chain still completes:
        // unauthenticated status spam is rejected (and eventually
        // isolated), signed rebroadcasts are benign.
        let config = ConstructionConfig {
            background_senders: 3,
            platoon_followers: 2,
            platoon_spacing_m: 20.0,
            extra_rsus: 2,
            ..Default::default()
        };
        let outcome = ConstructionWorld::new(config.clone()).run_nominal();
        assert!(!outcome.any_violation(), "{outcome:?}");
        assert!(!outcome.service_shutdown);
        assert!(
            outcome.isolated_senders.iter().any(|s| s.starts_with("BG-")),
            "background spam senders get isolated: {:?}",
            outcome.isolated_senders
        );
        // Deterministic under the scenario knobs too.
        let again = ConstructionWorld::new(config).run_nominal();
        assert_eq!(outcome.entered_zone_at, again.entered_zone_at);
        assert_eq!(outcome.entry_speed_mps, again.entry_speed_mps);
    }

    #[test]
    fn trace_records_the_handover() {
        let config = ConstructionConfig::default();
        let world = ConstructionWorld::new(config);
        // Run on a clone-like fresh world to inspect the trace via outcome
        // is not possible (run consumes); instead re-run and check the
        // outcome-level facts already asserted above. Here we check the
        // signed-message helper round-trips through the control stack.
        let msg = world.signed_message(RSU_SENDER, &[MSG_ROADWORKS, 80], SimTime::ZERO);
        assert_eq!(msg.sender(), RSU_SENDER);
        assert!(msg.auth_tag().is_some());
    }
}
