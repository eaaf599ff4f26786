//! Use Case II world: keyless car opener via smartphone and BLE
//! (paper §IV-B).
//!
//! The owner's phone opens/closes the vehicle over a [`BleLink`]. A
//! gateway admits commands through its [`ControlStack`] — electronic-ID
//! allow-list (Table VII), MAC, freshness, replay cache,
//! challenge–response — and forwards accepted commands over the
//! [`CanBus`] to the door-lock ECU. Non-command BLE service requests are
//! forwarded to the CAN bus as diagnostic traffic; without gateway rate
//! limiting an attacker can flood the bus through this path and starve
//! the opening function (SG03, the "flooding of the CAN bus by forwarded
//! Bluetooth requests" of §IV-B).
//!
//! Safety goals evaluated: **SG01** keep vehicle closed (no unauthorized
//! open), **SG02** avoid intermittent open/close, **SG03** opening served
//! within its availability budget, **SG04** no closing while a person is
//! entering.

use std::sync::Arc;

use bytes::Bytes;
use saseval_obs::Obs;
use serde::{Deserialize, Serialize};

use saseval_types::{Ftti, SimTime};
use security_controls::controls::{
    ChallengeResponse, FloodDetector, FreshnessWindow, IdAllowList, MacAuthenticator,
    ReplayDetector,
};
use security_controls::mac::{MacKey, Tag};
use security_controls::{ControlStack, Envelope, SecurityLog};
use vehicle_net::ble::{BleConfig, BleLink};
use vehicle_net::can::{CanBus, CanBusConfig, CanDelivery, CanFrame, CanId};

use crate::config::ControlSelection;
use crate::kernel::EventQueue;
use crate::trace::{RecycledTrace, TraceRecorder};
use crate::AttackerHook;

/// Command byte: open the vehicle.
pub const CMD_OPEN: u8 = 1;
/// Command byte: close the vehicle.
pub const CMD_CLOSE: u8 = 2;
/// Command byte: generic service/diagnostic request (forwarded traffic).
pub const CMD_SERVICE: u8 = 0x10;
/// CAN identifier of body-control (lock) commands.
pub const CAN_LOCK_CMD: u16 = 0x2A0;
/// CAN identifier of forwarded diagnostic traffic (higher priority than
/// lock commands — the flooding lever).
pub const CAN_DIAG: u16 = 0x100;
/// The owner's phone identity.
pub const OWNER_PHONE: &str = "owner-phone";

/// A decoded BLE command frame (33-byte wire layout:
/// `cmd ‖ key_id(8) ‖ ts(8) ‖ challenge_response(8) ‖ tag(8)`).
///
/// The generation timestamp travels *inside* the authenticated payload —
/// a replayed command therefore stays MAC-valid but stale, exactly the
/// situation the §IV-B freshness/challenge–response discussion is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Command {
    /// The command byte ([`CMD_OPEN`], [`CMD_CLOSE`], [`CMD_SERVICE`]).
    pub cmd: u8,
    /// The claimed electronic key ID.
    pub key_id: u64,
    /// Generation timestamp in microseconds of virtual time.
    pub ts: u64,
    /// The challenge response (0 when absent).
    pub response: u64,
    /// The authentication tag (0 when absent).
    pub tag: u64,
}

impl Command {
    /// Encodes the command into its wire layout.
    pub fn encode(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(33);
        out.push(self.cmd);
        out.extend_from_slice(&self.key_id.to_le_bytes());
        out.extend_from_slice(&self.ts.to_le_bytes());
        out.extend_from_slice(&self.response.to_le_bytes());
        out.extend_from_slice(&self.tag.to_le_bytes());
        out
    }

    /// Decodes a wire payload; `None` when malformed.
    pub fn decode(payload: &[u8]) -> Option<Command> {
        if payload.len() != 33 {
            return None;
        }
        let word = |i: usize| u64::from_le_bytes(payload[i..i + 8].try_into().expect("8 bytes"));
        Some(Command {
            cmd: payload[0],
            key_id: word(1),
            ts: word(9),
            response: word(17),
            tag: word(25),
        })
    }
}

/// Configuration of the keyless world.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KeylessConfig {
    /// Simulation tick.
    pub tick: Ftti,
    /// Run horizon.
    pub horizon: Ftti,
    /// Deployed security controls.
    pub controls: ControlSelection,
    /// BLE link parameters.
    pub ble: BleConfig,
    /// CAN bus parameters.
    pub can: CanBusConfig,
    /// The owner's electronic key ID.
    pub owner_key_id: u64,
    /// Availability budget for serving an open request (SG03 FTTI).
    pub open_budget: Ftti,
    /// How long a person is assumed to be entering after an open (SG04).
    pub entry_window: Ftti,
    /// RNG seed.
    pub seed: u64,
}

impl Default for KeylessConfig {
    fn default() -> Self {
        KeylessConfig {
            tick: Ftti::from_millis(10),
            horizon: Ftti::from_secs(30),
            controls: ControlSelection::all(),
            ble: BleConfig::default(),
            can: CanBusConfig { bitrate_bps: 125_000, tx_queue_depth: 64 },
            owner_key_id: 0x0DE5_1234,
            open_budget: Ftti::from_secs(5),
            entry_window: Ftti::from_secs(3),
            seed: 7,
        }
    }
}

/// Outcome of one keyless run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KeylessOutcome {
    /// Final lock state (true = open).
    pub lock_open: bool,
    /// First open actuation, if any.
    pub opened_at: Option<SimTime>,
    /// Latency from the owner's request to actuation, if served.
    pub open_latency: Option<Ftti>,
    /// An open actuated with no owner request pending (SG01 violation).
    pub unauthorized_open: bool,
    /// Lock transitions (open↔close) over the run.
    pub transitions: u32,
    /// A close actuated inside the entry window (SG04 violation).
    pub closed_during_entry: bool,
    /// SG01 violated: vehicle did not stay closed against unauthorized
    /// commands.
    pub sg01_violated: bool,
    /// SG02 violated: intermittent open/close.
    pub sg02_violated: bool,
    /// SG03 violated: owner's open not served within the budget.
    pub sg03_violated: bool,
    /// SG04 violated: unintended closing during entry.
    pub sg04_violated: bool,
    /// Senders isolated by the broken-message counter.
    pub isolated_senders: Vec<String>,
    /// When the first sender was isolated (detection latency).
    pub isolated_at: Option<SimTime>,
}

impl KeylessOutcome {
    /// Whether any Use Case II safety goal was violated.
    pub fn any_violation(&self) -> bool {
        self.sg01_violated || self.sg02_violated || self.sg03_violated || self.sg04_violated
    }
}

/// Every byte value in order, so a one-byte frame payload can borrow a
/// static slice instead of allocating.
static BYTE_VALUES: [u8; 256] = {
    let mut values = [0; 256];
    let mut i = 0;
    while i < 256 {
        values[i] = i as u8;
        i += 1;
    }
    values
};

/// `byte` as a one-byte payload, without allocating.
fn byte_payload(byte: u8) -> Bytes {
    Bytes::from_static(std::slice::from_ref(&BYTE_VALUES[usize::from(byte)]))
}

#[derive(Clone, Copy)]
enum OwnerAction {
    Open,
    Close,
}

/// The running keyless world.
pub struct KeylessWorld {
    config: KeylessConfig,
    now: SimTime,
    link: BleLink,
    stack: ControlStack,
    can: CanBus,
    command_key: MacKey,
    config_key: MacKey,
    forward_limiter: Option<FloodDetector>,
    owner_script: EventQueue<OwnerAction>,
    /// Reusable scratch buffers for the per-tick link poll, owner
    /// script drain and bus deliveries; keeping them on the world
    /// removes the per-tick allocations from the steady-state step loop.
    frame_buf: Vec<vehicle_net::ble::BleFrame>,
    action_buf: Vec<OwnerAction>,
    delivery_buf: Vec<CanDelivery>,
    /// The payload buffer of the envelope the gateway admits commands
    /// in, reused from one command to the next.
    payload_buf: Vec<u8>,
    lock_open: bool,
    transitions: u32,
    opened_at: Option<SimTime>,
    owner_open_requested_at: Option<SimTime>,
    pending_owner_open: Option<SimTime>,
    open_latency: Option<Ftti>,
    unauthorized_open: bool,
    entering_until: Option<SimTime>,
    closed_during_entry: bool,
    /// The gateway's CAN node name, built once and shared by every frame
    /// it forwards.
    gateway_node: Arc<str>,
    /// The eavesdropping feed as runs of equal consecutive payloads: a
    /// flood repeating one request is one entry, not one per send.
    sniffed: Vec<(Bytes, u32)>,
    trace: RecycledTrace,
    obs: Obs,
    ticks: u64,
}

impl Clone for KeylessWorld {
    fn clone(&self) -> Self {
        KeylessWorld {
            config: self.config.clone(),
            now: self.now,
            link: self.link.clone(),
            stack: self.stack.clone(),
            can: self.can.clone(),
            command_key: self.command_key,
            config_key: self.config_key,
            forward_limiter: self.forward_limiter.clone(),
            owner_script: self.owner_script.clone(),
            frame_buf: self.frame_buf.clone(),
            action_buf: self.action_buf.clone(),
            delivery_buf: self.delivery_buf.clone(),
            payload_buf: self.payload_buf.clone(),
            lock_open: self.lock_open,
            transitions: self.transitions,
            opened_at: self.opened_at,
            owner_open_requested_at: self.owner_open_requested_at,
            pending_owner_open: self.pending_owner_open,
            open_latency: self.open_latency,
            unauthorized_open: self.unauthorized_open,
            entering_until: self.entering_until,
            closed_during_entry: self.closed_during_entry,
            gateway_node: Arc::clone(&self.gateway_node),
            sniffed: self.sniffed.clone(),
            trace: self.trace.clone(),
            obs: self.obs.clone(),
            ticks: self.ticks,
        }
    }

    /// Copies `source` into this world, reusing every buffer it holds:
    /// link, stack, bus and owner-script storage, the scratch buffers,
    /// the sniffed feed and the trace. Every field is listed, so a new
    /// one cannot be left out of the copy.
    fn clone_from(&mut self, source: &Self) {
        let KeylessWorld {
            config,
            now,
            link,
            stack,
            can,
            command_key,
            config_key,
            forward_limiter,
            owner_script,
            frame_buf,
            action_buf,
            delivery_buf,
            payload_buf,
            lock_open,
            transitions,
            opened_at,
            owner_open_requested_at,
            pending_owner_open,
            open_latency,
            unauthorized_open,
            entering_until,
            closed_during_entry,
            gateway_node,
            sniffed,
            trace,
            obs,
            ticks,
        } = self;
        config.clone_from(&source.config);
        *now = source.now;
        link.clone_from(&source.link);
        stack.clone_from(&source.stack);
        can.clone_from(&source.can);
        *command_key = source.command_key;
        *config_key = source.config_key;
        forward_limiter.clone_from(&source.forward_limiter);
        owner_script.clone_from(&source.owner_script);
        frame_buf.clone_from(&source.frame_buf);
        action_buf.clone_from(&source.action_buf);
        delivery_buf.clone_from(&source.delivery_buf);
        payload_buf.clone_from(&source.payload_buf);
        *lock_open = source.lock_open;
        *transitions = source.transitions;
        *opened_at = source.opened_at;
        *owner_open_requested_at = source.owner_open_requested_at;
        *pending_owner_open = source.pending_owner_open;
        *open_latency = source.open_latency;
        *unauthorized_open = source.unauthorized_open;
        *entering_until = source.entering_until;
        *closed_during_entry = source.closed_during_entry;
        if !Arc::ptr_eq(gateway_node, &source.gateway_node) {
            *gateway_node = Arc::clone(&source.gateway_node);
        }
        sniffed.clone_from(&source.sniffed);
        trace.clone_from(&source.trace);
        obs.clone_from(&source.obs);
        *ticks = source.ticks;
    }
}

impl std::fmt::Debug for KeylessWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeylessWorld")
            .field("now", &self.now)
            .field("lock_open", &self.lock_open)
            .field("transitions", &self.transitions)
            .finish()
    }
}

impl KeylessWorld {
    /// Creates the world in its initial (closed, advertising) state.
    pub fn new(config: KeylessConfig) -> Self {
        let command_key = MacKey::new(config.seed ^ 0x4B45_594C); // "KEYL"
        let config_key = MacKey::new(config.seed ^ 0x434F_4E46); // "CONF"
        let mut stack = ControlStack::new("GW");
        let c = config.controls;
        if c.allow_list {
            stack.push(IdAllowList::new([config.owner_key_id], config_key));
        }
        if c.authentication {
            stack.push(MacAuthenticator::new(command_key));
        }
        if c.freshness {
            stack.push(FreshnessWindow::new(Ftti::from_millis(500)));
        }
        if c.replay_protection {
            stack.push(ReplayDetector::new(4_096));
        }
        if c.challenge_response {
            stack.push(ChallengeResponse::new(command_key));
        }
        let forward_limiter = if c.flood_protection {
            // Legitimate companion-app service traffic stays below
            // 20 requests/s.
            Some(FloodDetector::new(20, Ftti::from_secs(1)))
        } else {
            None
        };
        let mut link = BleLink::new(config.ble, config.seed);
        link.start_advertising(SimTime::ZERO);
        let can = CanBus::new(config.can);
        KeylessWorld {
            config,
            now: SimTime::ZERO,
            link,
            stack,
            can,
            command_key,
            config_key,
            forward_limiter,
            owner_script: EventQueue::new(),
            frame_buf: Vec::new(),
            action_buf: Vec::new(),
            delivery_buf: Vec::new(),
            payload_buf: Vec::new(),
            lock_open: false,
            transitions: 0,
            opened_at: None,
            owner_open_requested_at: None,
            pending_owner_open: None,
            open_latency: None,
            unauthorized_open: false,
            entering_until: None,
            closed_during_entry: false,
            gateway_node: Arc::from("GW"),
            sniffed: Vec::new(),
            trace: RecycledTrace::default(),
            obs: Obs::noop(),
            ticks: 0,
        }
    }

    /// Attaches a metrics handle. The world emits a
    /// `world.keyless.run_seconds` span, tick/event counters, and
    /// propagates the handle to the BLE link (`net.ble.*`) and the CAN bus
    /// (`net.can.*`).
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.link.set_obs(obs.clone());
        self.can.set_obs(obs.clone());
        self.obs = obs;
        self
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Whether the vehicle is currently open.
    pub fn lock_open(&self) -> bool {
        self.lock_open
    }

    /// The command MAC key. Table VII's precondition grants the attacker
    /// "an authenticated communication link", so the attack engine may
    /// obtain the key; whether attacks succeed is then up to the
    /// remaining controls (the allow-list, for AD08).
    pub fn command_key(&self) -> MacKey {
        self.command_key
    }

    /// The configuration-write key guarding allow-list changes. Held by
    /// legitimate tooling and, in the insider variant of attack AD24, by
    /// an evil-mechanic attacker.
    pub fn config_key(&self) -> MacKey {
        self.config_key
    }

    /// The BLE link, for attacker injection and jamming.
    pub fn link_mut(&mut self) -> &mut BleLink {
        &mut self.link
    }

    /// The gateway-to-lock CAN bus (read-only: queues and statistics).
    pub fn can_bus(&self) -> &CanBus {
        &self.can
    }

    /// All payloads ever sent on the radio, in send order — the
    /// attacker's eavesdropping feed (replay attacks record from here).
    /// Each payload shares the sent frame's buffer; a payload sent several
    /// times in a row is stored once with its count and yielded once per
    /// send.
    pub fn sniffed(&self) -> impl Iterator<Item = &Bytes> + '_ {
        self.sniffed
            .iter()
            .flat_map(|(payload, sends)| std::iter::repeat_n(payload, *sends as usize))
    }

    /// The gateway's security log.
    pub fn security_log(&self) -> &SecurityLog {
        self.stack.log()
    }

    /// The functional trace.
    pub fn trace(&self) -> &TraceRecorder {
        self.trace.recorder()
    }

    /// The world configuration.
    pub fn config(&self) -> &KeylessConfig {
        &self.config
    }

    /// Attempts a configuration write adding `id` to the allow-list
    /// (attack AD24). Returns whether the write was accepted; `None` when
    /// no allow-list is deployed.
    pub fn try_allowlist_write(&mut self, id: u64, auth: Tag) -> Option<bool> {
        self.stack.control_mut::<IdAllowList>("id-allow-list").map(|list| list.try_add(id, auth))
    }

    /// Injects a body-control frame from an exposed CAN stub (attack
    /// AD09: "inject a forged open frame on the CAN bus via a compromised
    /// gateway port"). With gateway filtering enabled the frame is dropped
    /// at the segment boundary and the drop is logged; otherwise it goes
    /// straight to the lock actuator. Returns whether the frame reached
    /// the bus.
    pub fn inject_can_from_stub(&mut self, cmd: u8) -> bool {
        if self.config.controls.can_filtering {
            self.trace.record(
                self.now,
                "gateway",
                "stub-frame-filtered",
                format_args!("body-control frame {cmd:#x} from untrusted segment dropped"),
            );
            return false;
        }
        let frame =
            CanFrame::new(CanId::new(CAN_LOCK_CMD).expect("const id"), byte_payload(cmd), "stub")
                .expect("stub frame");
        self.can.submit(frame, self.now).is_ok()
    }

    /// Schedules the owner to open the vehicle at `at`.
    pub fn schedule_owner_open(&mut self, at: SimTime) {
        self.owner_script.schedule(at, OwnerAction::Open);
    }

    /// Schedules the owner to close the vehicle at `at`.
    pub fn schedule_owner_close(&mut self, at: SimTime) {
        self.owner_script.schedule(at, OwnerAction::Close);
    }

    /// Sends a raw payload on the BLE radio under any sender name — the
    /// attack engine's injection primitive. Connects (or hijacks the
    /// session) if necessary. A sender that keeps its identity as an
    /// `Arc<str>` and its payload as [`Bytes`] sends without allocating:
    /// the link frame shares both, the sniffed entry shares the payload.
    pub fn send_ble(&mut self, sender: impl Into<Arc<str>>, payload: impl Into<Bytes>) {
        self.send_ble_burst(sender, payload, 1);
    }

    /// Sends `count` copies of a payload at once, exactly as `count`
    /// calls of [`KeylessWorld::send_ble`] would: the link makes each
    /// copy's loss draw, and the sniffed feed records every copy. The
    /// copies that survive travel, and reach the gateway, as one burst.
    pub fn send_ble_burst(
        &mut self,
        sender: impl Into<Arc<str>>,
        payload: impl Into<Bytes>,
        count: u32,
    ) {
        if count == 0 {
            return;
        }
        let sender = sender.into();
        if !self.link.is_connected() {
            self.link.start_advertising(self.now);
            if self.link.connect(Arc::clone(&sender), self.now).is_err() {
                return;
            }
        }
        let payload = payload.into();
        let mut unrecorded = count;
        while unrecorded > 0 {
            match self.sniffed.last_mut() {
                Some((last, sends)) if *last == payload && *sends < u32::MAX => {
                    let added = unrecorded.min(u32::MAX - *sends);
                    *sends += added;
                    unrecorded -= added;
                }
                _ => {
                    self.sniffed.push((payload.clone(), unrecorded));
                    unrecorded = 0;
                }
            }
        }
        let _ = self.link.send_burst(sender, payload, count, self.now);
    }

    /// Builds a fully credentialed command as the owner's phone would.
    pub fn owner_command(&mut self, cmd: u8) -> Command {
        let response = match self.stack.control_mut::<ChallengeResponse>("challenge-response") {
            Some(cr) => {
                let nonce = cr.issue(OWNER_PHONE);
                ChallengeResponse::respond(self.command_key, nonce, &[cmd]).raw()
            }
            None => 0,
        };
        let tag = MacAuthenticator::sign(self.command_key, OWNER_PHONE, &[cmd], self.now).raw();
        Command { cmd, key_id: self.config.owner_key_id, ts: self.now.as_micros(), response, tag }
    }

    fn perform_owner_action(&mut self, action: OwnerAction) {
        let cmd = match action {
            OwnerAction::Open => {
                self.owner_open_requested_at.get_or_insert(self.now);
                self.pending_owner_open = Some(self.now);
                self.trace.record(self.now, "owner", "open-requested", "");
                CMD_OPEN
            }
            OwnerAction::Close => {
                self.trace.record(self.now, "owner", "close-requested", "");
                CMD_CLOSE
            }
        };
        let command = self.owner_command(cmd);
        self.send_ble(OWNER_PHONE, command.encode());
    }

    fn gateway_tick(&mut self) {
        let mut frames = std::mem::take(&mut self.frame_buf);
        self.link.poll_into(self.now, &mut frames);
        for frame in frames.drain(..) {
            if self.stack.is_isolated(&frame.sender) {
                continue;
            }
            let Some(command) = Command::decode(&frame.payload) else { continue };
            if command.cmd == CMD_SERVICE {
                // Service requests never reach the control stack, so
                // nothing isolates the sender part-way through a burst.
                self.forward_service(&frame.sender, frame.count);
                continue;
            }
            let mut payload = std::mem::take(&mut self.payload_buf);
            payload.clear();
            payload.push(command.cmd);
            let mut envelope =
                Envelope::new(Arc::clone(&frame.sender), SimTime::from_micros(command.ts), payload)
                    .with_claimed_id(command.key_id);
            if command.tag != 0 {
                envelope = envelope.with_tag(Tag::from_raw(command.tag));
            }
            if command.response != 0 {
                envelope = envelope.with_challenge_response(Tag::from_raw(command.response));
            }
            // Commands pass the stack one frame at a time.
            for _ in 0..frame.count {
                if self.stack.admit(&envelope, self.now).is_accepted() {
                    let lock_cmd = CanFrame::new(
                        CanId::new(CAN_LOCK_CMD).expect("const id"),
                        byte_payload(command.cmd),
                        Arc::clone(&self.gateway_node),
                    )
                    .expect("lock frame");
                    let _ = self.can.submit(lock_cmd, self.now);
                } else if self.stack.is_isolated(&frame.sender) {
                    // The rejection isolated the sender, and isolation is
                    // one-way: the burst's other frames are dropped unread.
                    break;
                }
            }
            self.payload_buf = envelope.into_payload();
        }
        self.frame_buf = frames;
    }

    /// Forwards `count` service requests from `sender`: subject only to
    /// the gateway rate limiter, then placed on the CAN bus as one run of
    /// diagnostic frames (the §IV-B flooding path).
    fn forward_service(&mut self, sender: &Arc<str>, count: u32) {
        let admitted = match &mut self.forward_limiter {
            Some(limiter) => limiter.admit(sender, self.now, count as usize) as u32,
            None => count,
        };
        if admitted == 0 {
            return;
        }
        let diag = CanFrame::new(
            CanId::new(CAN_DIAG).expect("const id"),
            Bytes::from_static(&[CMD_SERVICE]),
            Arc::clone(&self.gateway_node),
        )
        .expect("diag frame");
        let _ = self.can.submit_run(diag, admitted, self.now);
    }

    fn actuator_tick(&mut self) {
        let mut deliveries = std::mem::take(&mut self.delivery_buf);
        self.can.advance_into(self.now, &mut deliveries);
        for delivery in deliveries.drain(..) {
            if delivery.frame.id().raw() != CAN_LOCK_CMD {
                continue;
            }
            // A run repeats one lock command, and a command that finds
            // the lock already in its state does nothing: only the run's
            // first frame can actuate.
            match delivery.frame.payload().first() {
                Some(&CMD_OPEN) if !self.lock_open => {
                    self.lock_open = true;
                    self.transitions += 1;
                    self.opened_at.get_or_insert(delivery.completed_at);
                    self.entering_until = Some(delivery.completed_at + self.config.entry_window);
                    match self.pending_owner_open.take() {
                        Some(req) => {
                            if self.open_latency.is_none() {
                                self.open_latency = Some(delivery.completed_at - req);
                            }
                        }
                        None => self.unauthorized_open = true,
                    }
                    self.trace.record(delivery.completed_at, "lock-actuator", "lock-open", "");
                }
                Some(&CMD_CLOSE) if self.lock_open => {
                    self.lock_open = false;
                    self.transitions += 1;
                    if self.entering_until.is_some_and(|until| delivery.completed_at < until) {
                        self.closed_during_entry = true;
                    }
                    self.trace.record(delivery.completed_at, "lock-actuator", "lock-close", "");
                }
                _ => {}
            }
        }
        self.delivery_buf = deliveries;
    }

    fn finish(&self) -> KeylessOutcome {
        let owner_requested = self.owner_open_requested_at.is_some();
        let served_in_budget =
            self.open_latency.is_some_and(|latency| latency <= self.config.open_budget);
        let isolation_events: Vec<_> = self
            .stack
            .log()
            .events()
            .iter()
            .filter(|e| e.detail.contains("unwanted sender"))
            .collect();
        let isolated_at = isolation_events.first().map(|e| e.at);
        let isolated_senders = isolation_events.iter().map(|e| e.sender.to_string()).collect();
        KeylessOutcome {
            lock_open: self.lock_open,
            opened_at: self.opened_at,
            open_latency: self.open_latency,
            unauthorized_open: self.unauthorized_open,
            transitions: self.transitions,
            closed_during_entry: self.closed_during_entry,
            sg01_violated: self.unauthorized_open,
            sg02_violated: self.transitions > 2,
            sg03_violated: owner_requested && !served_in_budget,
            sg04_violated: self.closed_during_entry,
            isolated_senders,
            isolated_at,
        }
    }

    /// Whether the run has reached the horizon.
    pub fn is_done(&self) -> bool {
        self.now >= SimTime::ZERO + self.config.horizon
    }

    /// Performs one tick under the given attacker. Returns whether a tick
    /// was performed (`false` once [`KeylessWorld::is_done`]).
    pub fn step(&mut self, attacker: &mut dyn AttackerHook<KeylessWorld>) -> bool {
        if self.is_done() {
            return false;
        }
        let now = self.now;
        attacker.on_tick(self, now);
        self.tick_body();
        true
    }

    /// The attacker-independent part of one tick: owner-script drain
    /// (via the allocation-free [`EventQueue::pop_due_into`]), gateway
    /// admission, lock actuation, time advance.
    fn tick_body(&mut self) {
        let mut actions = std::mem::take(&mut self.action_buf);
        self.owner_script.pop_due_into(self.now, &mut actions);
        for action in actions.drain(..) {
            self.perform_owner_action(action);
        }
        self.action_buf = actions;
        self.gateway_tick();
        self.actuator_tick();
        self.now += self.config.tick;
        self.ticks += 1;
    }

    /// Steps until virtual time reaches `until` (or the run ends).
    pub fn run_until(&mut self, until: SimTime, attacker: &mut dyn AttackerHook<KeylessWorld>) {
        while self.now < until && self.step(attacker) {}
    }

    /// Attacker-free [`KeylessWorld::run_until`] as a next-event time
    /// advance; pass [`SimTime::MAX`] to run to the horizon. The world
    /// ends bit-identical to `run_until(until, &mut ())` — state, trace,
    /// security log, link and bus statistics, `now` and the tick count.
    ///
    /// The keyless world has no continuous state, so a tick in which no
    /// owner action is due, the link has nothing to deliver or supervise
    /// and the CAN bus is idle does nothing but advance time. While the
    /// bus is idle, `now` therefore jumps in one step to the first tick
    /// at or after the earliest of the owner script's head, the link's
    /// [`BleLink::next_wake_up`] and the end, and the skipped ticks are
    /// still counted.
    pub fn advance_unattacked(&mut self, until: SimTime) {
        let end = until.min(SimTime::ZERO + self.config.horizon);
        while self.now < end {
            if self.can.is_idle() {
                let wake = [self.owner_script.next_time(), self.link.next_wake_up()]
                    .into_iter()
                    .flatten()
                    .fold(end, SimTime::min);
                let idle_ticks =
                    (wake - self.now).as_micros().div_ceil(self.config.tick.as_micros());
                if idle_ticks > 0 {
                    self.now += self.config.tick.saturating_mul(idle_ticks);
                    self.ticks += idle_ticks;
                    continue;
                }
            }
            self.tick_body();
        }
    }

    /// Deep-copies the world; the fork replays bit-identically to a
    /// from-scratch run brought to the same state, then diverges
    /// independently (owner script, challenge nonces and replay caches
    /// included).
    pub fn fork(&self) -> KeylessWorld {
        self.clone()
    }

    /// Freezes the current state as a copy-on-write snapshot to fork many
    /// runs from a warm common prefix.
    pub fn snapshot(&self) -> crate::WorldSnapshot<KeylessWorld> {
        crate::WorldSnapshot::new(self.clone())
    }

    /// Builds an attacker-free world under `config`, runs it to `at` and
    /// freezes it: the warm prefix a fuzz run resets its scratch world to
    /// before every input, so the run pays world construction and the
    /// prefix once. The prefix is reached by next-event jumps, so
    /// building it is cheap.
    pub fn warm_snapshot(config: KeylessConfig, at: SimTime) -> crate::WorldSnapshot<KeylessWorld> {
        let mut world = KeylessWorld::new(config);
        world.advance_unattacked(at);
        world.snapshot()
    }

    /// Consumes the world and evaluates the safety goals on its current
    /// state, flushing the tick/event counters. [`KeylessWorld::run`] is
    /// stepping to completion followed by this.
    pub fn into_outcome(self) -> KeylessOutcome {
        self.outcome()
    }

    /// [`KeylessWorld::into_outcome`] by reference, for a world that is
    /// reset and reused afterwards. It flushes the counters too, so call
    /// it once per run.
    pub fn outcome(&self) -> KeylessOutcome {
        self.obs.counter("world.keyless.ticks", self.ticks);
        self.obs.counter("sim.events.scheduled", self.owner_script.scheduled_total());
        self.obs.counter("sim.events.popped", self.owner_script.popped_total());
        self.finish()
    }

    /// Runs the world to the horizon under the given attacker.
    pub fn run(mut self, attacker: &mut dyn AttackerHook<KeylessWorld>) -> KeylessOutcome {
        let span = self.obs.span("world.keyless.run_seconds");
        while self.step(attacker) {}
        self.obs.counter("world.keyless.ticks", self.ticks);
        self.obs.counter("sim.events.scheduled", self.owner_script.scheduled_total());
        self.obs.counter("sim.events.popped", self.owner_script.popped_total());
        span.finish();
        self.finish()
    }

    /// Runs the world without an attacker.
    pub fn run_nominal(self) -> KeylessOutcome {
        self.run(&mut ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> KeylessWorld {
        KeylessWorld::new(KeylessConfig::default())
    }

    #[test]
    fn command_wire_round_trip() {
        let cmd = Command { cmd: CMD_OPEN, key_id: 0xABCD, ts: 3, response: 7, tag: 99 };
        assert_eq!(Command::decode(&cmd.encode()), Some(cmd));
        assert_eq!(Command::decode(&[1, 2, 3]), None);
    }

    #[test]
    fn owner_opens_and_closes_nominally() {
        let mut w = world();
        w.schedule_owner_open(SimTime::from_secs(1));
        w.schedule_owner_close(SimTime::from_secs(5));
        let outcome = w.run_nominal();
        assert!(outcome.opened_at.is_some(), "{outcome:?}");
        assert!(!outcome.lock_open, "closed again at the end");
        assert_eq!(outcome.transitions, 2);
        assert!(!outcome.sg01_violated);
        assert!(!outcome.sg02_violated);
        assert!(!outcome.sg03_violated);
        // The owner closing after the 3 s entry window is not a SG04
        // violation.
        assert!(!outcome.sg04_violated, "{outcome:?}");
        let latency = outcome.open_latency.unwrap();
        assert!(latency <= Ftti::from_millis(100), "latency {latency}");
    }

    #[test]
    fn nominal_without_any_request_stays_closed() {
        let outcome = world().run_nominal();
        assert!(!outcome.lock_open);
        assert_eq!(outcome.transitions, 0);
        assert!(!outcome.sg01_violated);
        assert!(!outcome.sg03_violated, "no request, no availability demand");
    }

    #[test]
    fn forged_key_id_rejected_with_allow_list() {
        // AD08 with the allow-list deployed: "Opening is rejected".
        struct Spoof;
        impl AttackerHook<KeylessWorld> for Spoof {
            fn on_tick(&mut self, world: &mut KeylessWorld, now: SimTime) {
                if now == SimTime::from_millis(100) {
                    let tag =
                        MacAuthenticator::sign(world.command_key(), "attacker", &[CMD_OPEN], now)
                            .raw();
                    let cmd = Command {
                        cmd: CMD_OPEN,
                        key_id: 0xBAD,
                        ts: now.as_micros(),
                        response: 0,
                        tag,
                    };
                    world.send_ble("attacker", cmd.encode());
                }
            }
        }
        let config = KeylessConfig {
            controls: ControlSelection { challenge_response: false, ..ControlSelection::all() },
            ..Default::default()
        };
        let outcome = KeylessWorld::new(config).run(&mut Spoof);
        assert!(!outcome.lock_open);
        assert!(!outcome.sg01_violated);
    }

    #[test]
    fn forged_key_id_opens_without_allow_list() {
        // AD08 without the control: "Open the vehicle".
        struct Spoof;
        impl AttackerHook<KeylessWorld> for Spoof {
            fn on_tick(&mut self, world: &mut KeylessWorld, now: SimTime) {
                if now == SimTime::from_millis(100) {
                    let tag =
                        MacAuthenticator::sign(world.command_key(), "attacker", &[CMD_OPEN], now)
                            .raw();
                    let cmd = Command {
                        cmd: CMD_OPEN,
                        key_id: 0xBAD,
                        ts: now.as_micros(),
                        response: 0,
                        tag,
                    };
                    world.send_ble("attacker", cmd.encode());
                }
            }
        }
        let config = KeylessConfig {
            controls: ControlSelection {
                allow_list: false,
                challenge_response: false,
                ..ControlSelection::all()
            },
            ..Default::default()
        };
        let outcome = KeylessWorld::new(config).run(&mut Spoof);
        assert!(outcome.lock_open);
        assert!(outcome.sg01_violated);
    }

    #[test]
    fn allowlist_config_write_requires_auth() {
        let mut w = world();
        assert_eq!(w.try_allowlist_write(0xEE01, Tag::from_raw(1)), Some(false));
        let auth = IdAllowList::write_auth(w.config_key, 0xEE01);
        assert_eq!(w.try_allowlist_write(0xEE01, auth), Some(true));
    }

    #[test]
    fn can_flooding_starves_owner_open_without_flood_control() {
        // AD14: forwarded service requests saturate the CAN bus.
        struct Flood;
        impl AttackerHook<KeylessWorld> for Flood {
            fn on_tick(&mut self, world: &mut KeylessWorld, _now: SimTime) {
                for _ in 0..30 {
                    let cmd = Command { cmd: CMD_SERVICE, key_id: 0, ts: 0, response: 0, tag: 0 };
                    world.send_ble("attacker", cmd.encode());
                }
            }
        }
        let config = KeylessConfig {
            controls: ControlSelection { flood_protection: false, ..ControlSelection::all() },
            horizon: Ftti::from_secs(10),
            ..Default::default()
        };
        let mut w = KeylessWorld::new(config);
        w.schedule_owner_open(SimTime::from_secs(1));
        let outcome = w.run(&mut Flood);
        assert!(outcome.sg03_violated, "{outcome:?}");
    }

    #[test]
    fn can_flooding_mitigated_by_flood_control() {
        struct Flood;
        impl AttackerHook<KeylessWorld> for Flood {
            fn on_tick(&mut self, world: &mut KeylessWorld, _now: SimTime) {
                for _ in 0..30 {
                    let cmd = Command { cmd: CMD_SERVICE, key_id: 0, ts: 0, response: 0, tag: 0 };
                    world.send_ble("attacker", cmd.encode());
                }
            }
        }
        let config = KeylessConfig { horizon: Ftti::from_secs(10), ..Default::default() };
        let mut w = KeylessWorld::new(config);
        w.schedule_owner_open(SimTime::from_secs(1));
        let outcome = w.run(&mut Flood);
        assert!(!outcome.sg03_violated, "{outcome:?}");
        assert!(outcome.open_latency.is_some());
    }

    #[test]
    fn replayed_open_rejected_with_replay_protection() {
        // AD01: the attacker replays the owner's recorded open exchange.
        struct Replay {
            done: bool,
        }
        impl AttackerHook<KeylessWorld> for Replay {
            fn on_tick(&mut self, world: &mut KeylessWorld, now: SimTime) {
                // Wait until the owner's frame is on the air, then replay
                // it after the owner closed again.
                if !self.done && now >= SimTime::from_secs(8) {
                    let recorded = world.sniffed().next().cloned();
                    if let Some(frame) = recorded {
                        world.send_ble(OWNER_PHONE, frame);
                        self.done = true;
                    }
                }
            }
        }
        let config = KeylessConfig {
            controls: ControlSelection { challenge_response: false, ..ControlSelection::all() },
            ..Default::default()
        };
        let mut w = KeylessWorld::new(config);
        w.schedule_owner_open(SimTime::from_secs(1));
        w.schedule_owner_close(SimTime::from_secs(5));
        let outcome = w.run(&mut Replay { done: false });
        assert!(!outcome.lock_open, "replay must not reopen: {outcome:?}");
        assert_eq!(outcome.transitions, 2);
    }

    #[test]
    fn replayed_open_succeeds_with_auth_only() {
        // §IV-B: replay works despite valid end-to-end authentication.
        struct Replay {
            done: bool,
        }
        impl AttackerHook<KeylessWorld> for Replay {
            fn on_tick(&mut self, world: &mut KeylessWorld, now: SimTime) {
                if !self.done && now >= SimTime::from_secs(8) {
                    let recorded = world.sniffed().next().cloned();
                    if let Some(frame) = recorded {
                        world.send_ble(OWNER_PHONE, frame);
                        self.done = true;
                    }
                }
            }
        }
        let config = KeylessConfig {
            controls: ControlSelection {
                authentication: true,
                allow_list: true,
                ..ControlSelection::none()
            },
            ..Default::default()
        };
        let mut w = KeylessWorld::new(config);
        w.schedule_owner_open(SimTime::from_secs(1));
        w.schedule_owner_close(SimTime::from_secs(5));
        let outcome = w.run(&mut Replay { done: false });
        assert!(outcome.lock_open, "replay reopens the vehicle: {outcome:?}");
        assert!(outcome.sg01_violated, "reopening without a pending request violates SG01");
        assert!(outcome.transitions >= 3);
    }

    #[test]
    fn sibling_forks_from_one_snapshot_diverge_independently() {
        // Warm a world to t = 1 s, snapshot, fork three siblings, inject a
        // different owner action into each and step them tick by tick in
        // turn; every fork must see only its own injection.
        let mut base = world();
        base.run_until(SimTime::from_secs(1), &mut ());
        let snapshot = base.snapshot();
        let mut forks: Vec<_> = (0..3).map(|_| snapshot.fork()).collect();
        forks[0].schedule_owner_open(SimTime::from_secs(2));
        forks[1].schedule_owner_open(SimTime::from_secs(2));
        forks[1].schedule_owner_close(SimTime::from_secs(6));
        // forks[2] gets nothing.
        while forks.iter_mut().fold(false, |stepped, fork| fork.step(&mut ()) | stepped) {}
        let outcomes: Vec<_> = forks.into_iter().map(KeylessWorld::into_outcome).collect();
        assert!(outcomes[0].lock_open, "{:?}", outcomes[0]);
        assert!(!outcomes[1].lock_open, "{:?}", outcomes[1]);
        assert_eq!(outcomes[1].transitions, 2);
        assert_eq!(outcomes[2].transitions, 0);
        assert!(outcomes.iter().all(|o| !o.sg01_violated), "owner actions are authorized");
    }
}
