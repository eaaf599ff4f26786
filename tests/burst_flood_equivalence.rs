//! AD14's burst flood path equals the per-message flood it replaces.
//!
//! `ServiceFlood` hands each tick's requests to
//! `KeylessWorld::send_ble_burst` as one burst. The BLE link makes every
//! request's loss draw and queues the survivors as one entry, the
//! gateway rate-limits the entry with one `FloodDetector::admit`, and the
//! CAN bus queues and delivers runs of identical frames. Two properties
//! pin that down:
//!
//! - **World level.** The reference hook below is the flood's body
//!   before bursts: `per_tick` calls of `send_ble`. Both must leave the
//!   world in the same state: outcome, trace, security log, link and bus
//!   statistics, the sniffed feed, time and every obs counter (the tick
//!   count among them). A second property sends bursts of any command,
//!   so bursts that pass the control stack frame by frame, and lock
//!   commands that queue as CAN runs, are covered too.
//! - **Bus level.** Random scripts of submits, advances and transmission
//!   errors run against a copy of the frame-by-frame arbitration loop
//!   the run-carrying bus replaced. Expanding every delivered run must
//!   give the same frames with the same completion times, and the
//!   statistics, queue lengths, idleness and obs counters must agree.
//!
//! The properties keep proptest's default configuration, so the
//! `PROPTEST_CASES` environment variable raises their case count.

// Only the control presets and the JSON helper are used here.
#[allow(dead_code)]
mod common;

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use bytes::Bytes;
use proptest::prelude::*;

use saseval::controls::controls::MacAuthenticator;
use saseval::engine::attacks::{BleJam, Composed, ServiceFlood};
use saseval::net::ble::BleConfig;
use saseval::net::can::{CanBus, CanBusConfig, CanFrame, CanId, NodeErrorState};
use saseval::net::NetError;
use saseval::obs::{MemoryRecorder, Obs};
use saseval::sim::keyless::{
    Command, KeylessConfig, KeylessWorld, CMD_CLOSE, CMD_OPEN, CMD_SERVICE,
};
use saseval::sim::AttackerHook;
use saseval::types::{Ftti, SimTime};

use common::{controls_for, json};

/// Everything the equivalence compares of a keyless world, consuming
/// it: outcome JSON last, because it flushes the tick counters.
fn keyless_observation(mut world: KeylessWorld, recorder: &MemoryRecorder) -> String {
    let sniffed: Vec<&Bytes> = world.sniffed().collect();
    let sniffed = json(&sniffed);
    let link = (world.link_mut().stats(), world.link_mut().state().clone());
    let head = json(&(
        world.now(),
        world.trace(),
        world.security_log().events(),
        link,
        world.can_bus().stats(),
    ));
    let outcome = json(&world.into_outcome());
    format!("{head}\n{sniffed}\n{outcome}\n{}", json(&recorder.snapshot()))
}

/// A run's world parameters.
#[derive(Debug, Clone)]
struct Setup {
    config: KeylessConfig,
    open_at: Option<SimTime>,
    close_at: Option<SimTime>,
    jam: Option<BleJam>,
}

/// Runs `setup` to the horizon under `attacker`, composed with the jam
/// when there is one, and returns the world's full observation.
fn observe(setup: &Setup, attacker: impl AttackerHook<KeylessWorld> + 'static) -> String {
    let (obs, recorder) = Obs::memory();
    let mut world = KeylessWorld::new(setup.config.clone()).with_obs(obs);
    if let Some(at) = setup.open_at {
        world.schedule_owner_open(at);
    }
    if let Some(at) = setup.close_at {
        world.schedule_owner_close(at);
    }
    let mut composed = Composed::new().with(attacker);
    if let Some(jam) = &setup.jam {
        composed = composed.with(jam.clone());
    }
    while world.step(&mut composed) {}
    keyless_observation(world, &recorder)
}

/// The payload a flooding hook sends at `now`.
#[derive(Debug, Clone, Copy)]
enum Payload {
    /// AD14's service request.
    Service,
    /// A MAC-valid open under the owner's key ID: accepted where the
    /// controls let it through, so its lock frames queue as CAN runs.
    SignedOpen,
    /// A MAC-valid close under the owner's key ID.
    SignedClose,
    /// An open under a foreign key ID and no MAC: broken messages that
    /// can isolate the sender in the middle of a burst.
    ForgedOpen,
    /// Bytes that do not decode as a command.
    Malformed,
}

impl Payload {
    fn at(self, world: &KeylessWorld, sender: &str, now: SimTime) -> Bytes {
        let signed = |cmd: u8| {
            let tag = MacAuthenticator::sign(world.command_key(), sender, &[cmd], now).raw();
            let key_id = world.config().owner_key_id;
            Command { cmd, key_id, ts: now.as_micros(), response: 0, tag }
        };
        let command = match self {
            Payload::Service => Command { cmd: CMD_SERVICE, key_id: 0, ts: 0, response: 0, tag: 0 },
            Payload::SignedOpen => signed(CMD_OPEN),
            Payload::SignedClose => signed(CMD_CLOSE),
            Payload::ForgedOpen => {
                Command { cmd: CMD_OPEN, key_id: 0xBAD, ts: now.as_micros(), response: 0, tag: 0 }
            }
            Payload::Malformed => return Bytes::from_static(b"\x10garbage"),
        };
        Bytes::from(command.encode())
    }
}

/// The flood body before bursts: `per_tick` single sends per tick.
struct PerMessage {
    payload: Payload,
    per_tick: usize,
    sender: Arc<str>,
}

impl AttackerHook<KeylessWorld> for PerMessage {
    fn on_tick(&mut self, world: &mut KeylessWorld, now: SimTime) {
        let payload = self.payload.at(world, &self.sender, now);
        for _ in 0..self.per_tick {
            world.send_ble(Arc::clone(&self.sender), payload.clone());
        }
    }
}

/// The same traffic as one burst per tick.
struct Burst {
    payload: Payload,
    per_tick: u32,
    sender: Arc<str>,
}

impl AttackerHook<KeylessWorld> for Burst {
    fn on_tick(&mut self, world: &mut KeylessWorld, now: SimTime) {
        let payload = self.payload.at(world, &self.sender, now);
        world.send_ble_burst(Arc::clone(&self.sender), payload, self.per_tick);
    }
}

fn per_message(payload: Payload, per_tick: usize) -> PerMessage {
    PerMessage { payload, per_tick, sender: Arc::from("attacker") }
}

/// BLE loss profiles: lossless, the default, and heavy loss.
fn ble_profile(selector: u8) -> BleConfig {
    let loss_prob = match selector % 3 {
        0 => 0.0,
        1 => BleConfig::default().loss_prob,
        _ => 0.3,
    };
    BleConfig { loss_prob, ..BleConfig::default() }
}

fn payload_kind(selector: u8) -> Payload {
    match selector % 5 {
        0 => Payload::Service,
        1 => Payload::SignedOpen,
        2 => Payload::SignedClose,
        3 => Payload::ForgedOpen,
        _ => Payload::Malformed,
    }
}

#[allow(clippy::too_many_arguments)]
fn setup(
    seed: u64,
    controls: u8,
    flood_protection: bool,
    ble: u8,
    horizon_s: u64,
    open_ms: Option<u64>,
    close_ms: Option<u64>,
    jam: Option<(u64, u64)>,
) -> Setup {
    let config = KeylessConfig {
        seed,
        controls: saseval::sim::ControlSelection { flood_protection, ..controls_for(controls) },
        ble: ble_profile(ble),
        horizon: Ftti::from_secs(horizon_s),
        ..Default::default()
    };
    Setup {
        config,
        open_at: open_ms.map(SimTime::from_millis),
        close_at: close_ms.map(SimTime::from_millis),
        jam: jam.map(|(from_ms, len_ms)| {
            BleJam::new(SimTime::from_millis(from_ms), SimTime::from_millis(from_ms + len_ms))
        }),
    }
}

proptest! {
    /// `ServiceFlood` against `per_tick` single sends: control presets
    /// with the rate limiter on and off, loss profiles, jam windows and
    /// owner open/close times.
    #[test]
    fn service_flood_bursts_match_per_message_sends(
        seed in any::<u64>(),
        controls in 0u8..3,
        flood_protection in any::<bool>(),
        ble in 0u8..3,
        per_tick in 1usize..64,
        horizon_s in 2u64..10,
        open_ms in proptest::option::of(0u64..9_000),
        close_ms in proptest::option::of(0u64..9_000),
        jam in proptest::option::of((0u64..9_000, 0u64..3_000)),
    ) {
        let setup =
            setup(seed, controls, flood_protection, ble, horizon_s, open_ms, close_ms, jam);
        prop_assert_eq!(
            observe(&setup, ServiceFlood::new(per_tick)),
            observe(&setup, per_message(Payload::Service, per_tick)),
            "per_tick {}",
            per_tick
        );
    }

    /// Bursts of any command against single sends: accepted commands
    /// queue lock frames as CAN runs, rejected ones may isolate the
    /// sender part-way through a burst.
    #[test]
    fn command_bursts_match_per_message_sends(
        seed in any::<u64>(),
        controls in 0u8..3,
        flood_protection in any::<bool>(),
        ble in 0u8..3,
        payload in 0u8..5,
        per_tick in 1u32..24,
        horizon_s in 1u64..4,
        open_ms in proptest::option::of(0u64..4_000),
        jam in proptest::option::of((0u64..4_000, 0u64..1_000)),
    ) {
        let setup = setup(seed, controls, flood_protection, ble, horizon_s, open_ms, None, jam);
        let payload = payload_kind(payload);
        let burst = Burst { payload, per_tick, sender: Arc::from("attacker") };
        prop_assert_eq!(
            observe(&setup, burst),
            observe(&setup, per_message(payload, per_tick as usize)),
            "{:?} x {}",
            payload,
            per_tick
        );
    }
}

/// Table VII's two AD14 cases at full scale, with the owner's open
/// request inside the flood.
#[test]
fn ad14_cases_match_per_message_flood() {
    for flood_protection in [false, true] {
        let setup = setup(7, 2, flood_protection, 1, 30, Some(1_000), None, None);
        assert_eq!(
            observe(&setup, ServiceFlood::ad14()),
            observe(&setup, per_message(Payload::Service, 30)),
            "flood protection {flood_protection}"
        );
    }
}

/// Why a reference submit failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Refused {
    BusOff,
    QueueFull,
}

/// A copy of the frame-by-frame bus the run-carrying one replaced: one
/// queue entry per frame, one arbitration round per delivered frame.
struct ReferenceBus {
    config: CanBusConfig,
    queues: BTreeMap<String, VecDeque<(CanFrame, SimTime)>>,
    tec: BTreeMap<String, u32>,
    cursor: SimTime,
    submitted: u64,
    delivered: u64,
    dropped: u64,
    obs: Obs,
}

impl ReferenceBus {
    fn new(config: CanBusConfig, obs: Obs) -> Self {
        ReferenceBus {
            config,
            queues: BTreeMap::new(),
            tec: BTreeMap::new(),
            cursor: SimTime::ZERO,
            submitted: 0,
            delivered: 0,
            dropped: 0,
            obs,
        }
    }

    fn error_state(&self, node: &str) -> NodeErrorState {
        match self.tec.get(node).copied().unwrap_or(0) {
            0..=127 => NodeErrorState::ErrorActive,
            128..=255 => NodeErrorState::ErrorPassive,
            _ => NodeErrorState::BusOff,
        }
    }

    fn submit(&mut self, frame: CanFrame, now: SimTime) -> Result<(), Refused> {
        if self.error_state(frame.sender()) == NodeErrorState::BusOff {
            return Err(Refused::BusOff);
        }
        let queue = self.queues.entry(frame.sender().to_owned()).or_default();
        if queue.len() >= self.config.tx_queue_depth {
            self.dropped += 1;
            self.obs.counter("net.can.dropped", 1);
            return Err(Refused::QueueFull);
        }
        queue.push_back((frame, now));
        self.submitted += 1;
        self.obs.counter("net.can.submitted", 1);
        Ok(())
    }

    fn advance(&mut self, now: SimTime) -> Vec<(CanFrame, SimTime)> {
        let mut deliveries = Vec::new();
        loop {
            let min_ready = self.queues.values().filter_map(|q| q.front()).map(|q| q.1).min();
            let Some(min_ready) = min_ready else { break };
            if self.cursor < min_ready {
                self.cursor = min_ready;
            }
            if self.cursor >= now {
                break;
            }
            let winner_node = self
                .queues
                .iter()
                .filter_map(|(node, q)| {
                    q.front().filter(|f| f.1 <= self.cursor).map(|f| (f.0.id(), node))
                })
                .min()
                .map(|(_, node)| node.clone());
            let Some(node) = winner_node else {
                self.cursor = min_ready.max(self.cursor);
                if self.cursor >= now {
                    break;
                }
                continue;
            };
            let queue = self.queues.get_mut(&node).expect("winner queue");
            let bits = queue.front().expect("winner frame").0.wire_bits();
            let duration =
                Ftti::from_micros(u64::from(bits) * 1_000_000 / u64::from(self.config.bitrate_bps));
            let completed_at = self.cursor + duration;
            if completed_at > now {
                break;
            }
            let frame = queue.pop_front().expect("winner frame").0;
            if queue.is_empty() {
                self.queues.remove(&node);
            }
            self.cursor = completed_at;
            self.delivered += 1;
            if let Some(tec) = self.tec.get_mut(&node) {
                *tec = tec.saturating_sub(1);
            }
            deliveries.push((frame, completed_at));
        }
        if !deliveries.is_empty() {
            self.obs.counter("net.can.arbitrated", deliveries.len() as u64);
        }
        deliveries
    }

    fn report_error(&mut self, node: &str) {
        let tec = self.tec.entry(node.to_owned()).or_insert(0);
        let was_on = *tec < 256;
        *tec = tec.saturating_add(8);
        if *tec >= 256 {
            self.queues.remove(node);
            if was_on {
                self.obs.counter("net.can.bus_off", 1);
                self.obs.event("net.can.bus_off", &[("node", node.into())]);
            }
        }
    }

    fn queue_len(&self, node: &str) -> usize {
        self.queues.get(node).map_or(0, VecDeque::len)
    }

    fn is_idle(&self) -> bool {
        self.queues.values().all(VecDeque::is_empty)
    }
}

const NODES: [&str; 3] = ["attacker", "ecu", "gateway"];

/// One step of a bus script.
#[derive(Debug, Clone)]
enum BusOp {
    /// `count` copies of a frame from `node` with `id` and a payload of
    /// `len` bytes, ready `delay_us` after the script clock.
    Submit { node: usize, id: u16, len: usize, count: u32, delay_us: u64 },
    /// Moves the script clock forward and advances the bus to it.
    Advance { dt_us: u64 },
    /// `times` transmission errors on `node` (32 put it bus-off).
    Errors { node: usize, times: u32 },
    /// Clears `node`'s error state.
    Recover { node: usize },
}

fn bus_op() -> impl Strategy<Value = BusOp> {
    let nodes = NODES.len();
    prop_oneof![
        (
            0..nodes,
            prop_oneof![Just(0x050u16), Just(0x100), Just(0x2A0), 0u16..0x7FF],
            0usize..9,
            1u32..40,
            prop_oneof![Just(0u64), 0u64..5_000]
        )
            .prop_map(|(node, id, len, count, delay_us)| BusOp::Submit {
                node,
                id,
                len,
                count,
                delay_us
            }),
        (0..nodes, Just(0x100u16), Just(1usize), 1u32..40, Just(0u64)).prop_map(
            |(node, id, len, count, delay_us)| BusOp::Submit { node, id, len, count, delay_us }
        ),
        prop_oneof![0u64..1_000, 0u64..20_000].prop_map(|dt_us| BusOp::Advance { dt_us }),
        (0..nodes, prop_oneof![Just(1u32), Just(32u32), 1u32..20])
            .prop_map(|(node, times)| BusOp::Errors { node, times }),
        (0..nodes).prop_map(|node| BusOp::Recover { node }),
    ]
}

/// The run bus's view of a submit result, in the reference's terms.
fn refused(result: Result<(), NetError>) -> Option<Refused> {
    match result {
        Ok(()) => None,
        Err(NetError::BusOff { .. }) => Some(Refused::BusOff),
        Err(NetError::TxQueueFull { .. }) => Some(Refused::QueueFull),
        Err(other) => panic!("unexpected submit error {other:?}"),
    }
}

proptest! {
    /// Random scripts over 2–3 nodes: runs and single frames, mixed
    /// identifiers, payload lengths and ready times, bus-off and
    /// recovery, at bit rates from 125 kbit/s up to one where short
    /// frames take no whole microsecond.
    #[test]
    fn run_bus_matches_per_frame_arbitration(
        nodes in 2usize..4,
        bitrate in prop_oneof![Just(125_000u32), Just(500_000), Just(1_000_000), Just(100_000_000)],
        depth in 1usize..48,
        ops in prop::collection::vec(bus_op(), 1..60),
    ) {
        let config = CanBusConfig { bitrate_bps: bitrate, tx_queue_depth: depth };
        let (obs, recorder) = Obs::memory();
        let (reference_obs, reference_recorder) = Obs::memory();
        let mut bus = CanBus::new(config);
        bus.set_obs(obs);
        let mut reference = ReferenceBus::new(config, reference_obs);
        let mut clock = SimTime::ZERO;
        let mut deliveries = Vec::new();
        for op in ops {
            match op {
                BusOp::Submit { node, id, len, count, delay_us } => {
                    let node = NODES[node % nodes];
                    let payload = Bytes::from(vec![id as u8; len]);
                    let frame = CanFrame::new(CanId::new(id).unwrap(), payload, node).unwrap();
                    let at = clock + Ftti::from_micros(delay_us);
                    let expected: Vec<_> =
                        (0..count).filter_map(|_| reference.submit(frame.clone(), at).err()).collect();
                    let got = refused(bus.submit_run(frame, count, at));
                    prop_assert_eq!(got, expected.first().copied(), "submit {} x {}", node, count);
                }
                BusOp::Advance { dt_us } => {
                    clock += Ftti::from_micros(dt_us);
                    bus.advance_into(clock, &mut deliveries);
                    let expanded: Vec<(CanFrame, SimTime)> = deliveries
                        .iter()
                        .flat_map(|d| d.completion_times().map(|t| (d.frame.clone(), t)))
                        .collect();
                    prop_assert_eq!(expanded, reference.advance(clock), "advance to {}", clock);
                }
                BusOp::Errors { node, times } => {
                    for _ in 0..times {
                        bus.report_error(NODES[node % nodes]);
                        reference.report_error(NODES[node % nodes]);
                    }
                }
                BusOp::Recover { node } => {
                    bus.recover(NODES[node % nodes]);
                    reference.tec.remove(NODES[node % nodes]);
                }
            }
            let stats = bus.stats();
            prop_assert_eq!(
                (stats.submitted, stats.delivered, stats.dropped),
                (reference.submitted, reference.delivered, reference.dropped)
            );
            for node in NODES {
                prop_assert_eq!(bus.queue_len(node), reference.queue_len(node), "{}", node);
                prop_assert_eq!(bus.error_state(node), reference.error_state(node), "{}", node);
            }
            prop_assert_eq!(bus.is_idle(), reference.is_idle());
        }
        prop_assert_eq!(json(&recorder.snapshot()), json(&reference_recorder.snapshot()));
    }
}
