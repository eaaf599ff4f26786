//! CAN bus model: priority arbitration, finite bandwidth, error states.
//!
//! The model captures the CAN properties the paper calls out as
//! automotive-specific (§V: "the characteristics of busses as limited
//! bandwidth"): frames contend for a shared medium, the lowest identifier
//! wins arbitration, and a saturated bus starves high-identifier traffic —
//! which is exactly how forwarded-BLE flooding makes the opening function
//! unavailable in Use Case II (SG03).
//!
//! Time is virtual ([`SimTime`]); the bus is advanced explicitly by the
//! simulation loop via [`CanBus::advance`].

use std::collections::{BTreeMap, VecDeque};

use bytes::Bytes;
use saseval_obs::Obs;
use serde::{Deserialize, Serialize};

use saseval_types::{Ftti, SimTime};

use crate::error::NetError;

/// A validated 11-bit CAN identifier. Lower values win arbitration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CanId(u16);

impl CanId {
    /// The highest valid standard identifier.
    pub const MAX: u16 = 0x7FF;

    /// Creates a CAN identifier.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidCanId`] if `raw` exceeds 11 bits.
    pub fn new(raw: u16) -> Result<Self, NetError> {
        if raw > Self::MAX {
            return Err(NetError::InvalidCanId { raw });
        }
        Ok(CanId(raw))
    }

    /// The raw identifier value.
    pub fn raw(self) -> u16 {
        self.0
    }
}

impl std::fmt::Display for CanId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#05x}", self.0)
    }
}

/// A CAN data frame.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CanFrame {
    id: CanId,
    payload: Bytes,
    sender: String,
}

impl CanFrame {
    /// Creates a frame.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::PayloadTooLong`] if the payload exceeds 8 bytes.
    pub fn new(id: CanId, payload: Bytes, sender: impl Into<String>) -> Result<Self, NetError> {
        if payload.len() > 8 {
            return Err(NetError::PayloadTooLong { len: payload.len() });
        }
        Ok(CanFrame { id, payload, sender: sender.into() })
    }

    /// The frame identifier.
    pub fn id(&self) -> CanId {
        self.id
    }

    /// The data payload (0–8 bytes).
    pub fn payload(&self) -> &Bytes {
        &self.payload
    }

    /// The transmitting node's name.
    pub fn sender(&self) -> &str {
        &self.sender
    }

    /// On-wire size in bits: a standard data frame carries roughly 47 bits
    /// of overhead plus 8 bits per payload byte (stuffing ignored).
    pub fn wire_bits(&self) -> u32 {
        47 + 8 * self.payload.len() as u32
    }
}

/// Error state of a node, following the CAN fault-confinement states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeErrorState {
    /// Normal operation (TEC < 128).
    ErrorActive,
    /// Degraded (128 ≤ TEC < 256).
    ErrorPassive,
    /// Disconnected from the bus (TEC ≥ 256).
    BusOff,
}

/// Configuration of a [`CanBus`].
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CanBusConfig {
    /// Bus bit rate in bits per second (classic CAN: 125k/250k/500k).
    pub bitrate_bps: u32,
    /// Per-node transmit queue depth; frames beyond it are dropped.
    pub tx_queue_depth: usize,
}

impl Default for CanBusConfig {
    fn default() -> Self {
        CanBusConfig { bitrate_bps: 500_000, tx_queue_depth: 32 }
    }
}

/// A delivered frame with its bus completion time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CanDelivery {
    /// The transmitted frame.
    pub frame: CanFrame,
    /// Virtual time at which transmission completed.
    pub completed_at: SimTime,
}

/// Per-bus transmission statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CanBusStats {
    /// Frames accepted into transmit queues.
    pub submitted: u64,
    /// Frames delivered on the bus.
    pub delivered: u64,
    /// Frames dropped due to queue overflow.
    pub dropped: u64,
}

#[derive(Clone)]
struct QueuedFrame {
    frame: CanFrame,
    ready: SimTime,
}

/// A shared CAN bus with per-node transmit queues.
///
/// # Example
///
/// ```
/// use vehicle_net::can::{CanBus, CanBusConfig, CanFrame, CanId};
/// use saseval_types::SimTime;
/// use bytes::Bytes;
///
/// let mut bus = CanBus::new(CanBusConfig::default());
/// let lock = CanFrame::new(CanId::new(0x2A0)?, Bytes::from_static(b"open"), "GW")?;
/// bus.submit(lock, SimTime::ZERO)?;
/// let deliveries = bus.advance(SimTime::from_millis(1));
/// assert_eq!(deliveries.len(), 1);
/// # Ok::<(), vehicle_net::NetError>(())
/// ```
#[derive(Clone)]
pub struct CanBus {
    config: CanBusConfig,
    queues: BTreeMap<String, VecDeque<QueuedFrame>>,
    tec: BTreeMap<String, u32>,
    cursor: SimTime,
    stats: CanBusStats,
    obs: Obs,
}

impl std::fmt::Debug for CanBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CanBus")
            .field("cursor", &self.cursor)
            .field("queued_nodes", &self.queues.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl CanBus {
    /// Creates an idle bus.
    pub fn new(config: CanBusConfig) -> Self {
        CanBus {
            config,
            queues: BTreeMap::new(),
            tec: BTreeMap::new(),
            cursor: SimTime::ZERO,
            stats: CanBusStats::default(),
            obs: Obs::noop(),
        }
    }

    /// Attaches a metrics handle; the bus emits `net.can.*` counters and a
    /// `net.can.bus_off` event through it.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The configuration in effect.
    pub fn config(&self) -> &CanBusConfig {
        &self.config
    }

    /// Queues a frame for transmission at `now`.
    ///
    /// # Errors
    ///
    /// * [`NetError::BusOff`] if the sender is bus-off.
    /// * [`NetError::TxQueueFull`] if the sender's queue is at capacity
    ///   (the frame is counted as dropped).
    pub fn submit(&mut self, frame: CanFrame, now: SimTime) -> Result<(), NetError> {
        if self.error_state(frame.sender()) == NodeErrorState::BusOff {
            return Err(NetError::BusOff { node: frame.sender().to_owned() });
        }
        let queue = self.queues.entry(frame.sender().to_owned()).or_default();
        if queue.len() >= self.config.tx_queue_depth {
            self.stats.dropped += 1;
            self.obs.counter("net.can.dropped", 1);
            return Err(NetError::TxQueueFull { node: frame.sender().to_owned() });
        }
        queue.push_back(QueuedFrame { frame, ready: now });
        self.stats.submitted += 1;
        self.obs.counter("net.can.submitted", 1);
        Ok(())
    }

    /// Runs arbitration and transmission up to virtual time `now`,
    /// returning completed deliveries in bus order.
    ///
    /// At each bus-idle instant every node's queue head with `ready ≤` the
    /// bus cursor contends; the lowest CAN identifier wins (ties broken by
    /// node name, deterministically). A frame only completes if its full
    /// transmission fits before `now`.
    pub fn advance(&mut self, now: SimTime) -> Vec<CanDelivery> {
        let mut deliveries = Vec::new();
        loop {
            // Earliest instant any frame is ready.
            let min_ready = self.queues.values().filter_map(|q| q.front()).map(|q| q.ready).min();
            let Some(min_ready) = min_ready else { break };
            if self.cursor < min_ready {
                self.cursor = min_ready;
            }
            if self.cursor >= now {
                break;
            }
            // Contenders: queue heads ready at the cursor; lowest ID wins.
            let winner_node = self
                .queues
                .iter()
                .filter_map(|(node, q)| {
                    q.front().filter(|f| f.ready <= self.cursor).map(|f| (f.frame.id(), node))
                })
                .min()
                .map(|(_, node)| node.clone());
            let Some(node) = winner_node else {
                // Nothing ready at the cursor: jump to the next ready time.
                self.cursor = min_ready.max(self.cursor);
                if self.cursor >= now {
                    break;
                }
                continue;
            };
            let queue = self.queues.get_mut(&node).expect("winner queue");
            let bits = queue.front().expect("winner frame").frame.wire_bits();
            let duration =
                Ftti::from_micros(u64::from(bits) * 1_000_000 / u64::from(self.config.bitrate_bps));
            let completed_at = self.cursor + duration;
            if completed_at > now {
                break;
            }
            let frame = queue.pop_front().expect("winner frame").frame;
            if queue.is_empty() {
                self.queues.remove(&node);
            }
            self.cursor = completed_at;
            self.stats.delivered += 1;
            // Successful transmission decrements the error counter.
            if let Some(tec) = self.tec.get_mut(&node) {
                *tec = tec.saturating_sub(1);
            }
            deliveries.push(CanDelivery { frame, completed_at });
        }
        if !deliveries.is_empty() {
            self.obs.counter("net.can.arbitrated", deliveries.len() as u64);
        }
        deliveries
    }

    /// Records a transmission error attributed to `node` (e.g. injected by
    /// an attacker); the transmit error counter rises by 8, per CAN fault
    /// confinement.
    pub fn report_error(&mut self, node: &str) {
        let tec = self.tec.entry(node.to_owned()).or_insert(0);
        let was_on = *tec < 256;
        *tec = tec.saturating_add(8);
        if *tec >= 256 {
            // Bus-off nodes lose their pending frames.
            self.queues.remove(node);
            if was_on {
                self.obs.counter("net.can.bus_off", 1);
                self.obs.event("net.can.bus_off", &[("node", node.into())]);
            }
        }
    }

    /// Clears a node's error state (simulates a bus-off recovery sequence).
    pub fn recover(&mut self, node: &str) {
        self.tec.remove(node);
    }

    /// The fault-confinement state of `node`.
    pub fn error_state(&self, node: &str) -> NodeErrorState {
        match self.tec.get(node).copied().unwrap_or(0) {
            0..=127 => NodeErrorState::ErrorActive,
            128..=255 => NodeErrorState::ErrorPassive,
            _ => NodeErrorState::BusOff,
        }
    }

    /// Number of frames currently queued by `node`.
    pub fn queue_len(&self, node: &str) -> usize {
        self.queues.get(node).map_or(0, VecDeque::len)
    }

    /// Whether no frame is queued on any node. [`CanBus::advance`] on an
    /// idle bus delivers nothing and leaves the bus unchanged, so a
    /// caller stepping in fixed ticks may skip it.
    pub fn is_idle(&self) -> bool {
        self.queues.values().all(VecDeque::is_empty)
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> CanBusStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(id: u16, sender: &str) -> CanFrame {
        CanFrame::new(CanId::new(id).unwrap(), Bytes::from_static(&[0u8; 8]), sender).unwrap()
    }

    #[test]
    fn id_validation() {
        assert!(CanId::new(0x7FF).is_ok());
        assert!(matches!(CanId::new(0x800), Err(NetError::InvalidCanId { raw: 0x800 })));
    }

    #[test]
    fn payload_validation() {
        let long = Bytes::from(vec![0u8; 9]);
        assert!(matches!(
            CanFrame::new(CanId::new(1).unwrap(), long, "n"),
            Err(NetError::PayloadTooLong { len: 9 })
        ));
    }

    #[test]
    fn lowest_id_wins_arbitration() {
        let mut bus = CanBus::new(CanBusConfig::default());
        bus.submit(frame(0x500, "low-prio"), SimTime::ZERO).unwrap();
        bus.submit(frame(0x100, "high-prio"), SimTime::ZERO).unwrap();
        let deliveries = bus.advance(SimTime::from_millis(10));
        assert_eq!(deliveries.len(), 2);
        assert_eq!(deliveries[0].frame.id().raw(), 0x100);
        assert_eq!(deliveries[1].frame.id().raw(), 0x500);
    }

    #[test]
    fn transmission_takes_wire_time() {
        // 111 bits at 500 kbit/s = 222 us.
        let mut bus = CanBus::new(CanBusConfig::default());
        bus.submit(frame(0x100, "n"), SimTime::ZERO).unwrap();
        assert!(bus.advance(SimTime::from_micros(200)).is_empty());
        let deliveries = bus.advance(SimTime::from_micros(250));
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].completed_at, SimTime::from_micros(222));
    }

    #[test]
    fn flooding_starves_higher_ids() {
        // An attacker floods with ID 0x050; the victim's 0x2A0 frame waits
        // until the flood queue drains.
        let mut bus = CanBus::new(CanBusConfig { bitrate_bps: 125_000, tx_queue_depth: 64 });
        for _ in 0..32 {
            bus.submit(frame(0x050, "attacker"), SimTime::ZERO).unwrap();
        }
        bus.submit(frame(0x2A0, "gateway"), SimTime::ZERO).unwrap();
        // 111 bits at 125 kbit/s = 888 us per frame; 32 flood frames take
        // ~28.4 ms. At 10 ms the victim frame has not been delivered.
        let early = bus.advance(SimTime::from_millis(10));
        assert!(early.iter().all(|d| d.frame.sender() == "attacker"));
        let late = bus.advance(SimTime::from_millis(40));
        assert!(late.iter().any(|d| d.frame.sender() == "gateway"));
    }

    #[test]
    fn queue_overflow_drops() {
        let mut bus = CanBus::new(CanBusConfig { bitrate_bps: 500_000, tx_queue_depth: 2 });
        bus.submit(frame(1, "n"), SimTime::ZERO).unwrap();
        bus.submit(frame(1, "n"), SimTime::ZERO).unwrap();
        let err = bus.submit(frame(1, "n"), SimTime::ZERO).unwrap_err();
        assert!(matches!(err, NetError::TxQueueFull { .. }));
        assert_eq!(bus.stats().dropped, 1);
    }

    #[test]
    fn error_confinement_states() {
        let mut bus = CanBus::new(CanBusConfig::default());
        assert_eq!(bus.error_state("n"), NodeErrorState::ErrorActive);
        for _ in 0..16 {
            bus.report_error("n");
        }
        assert_eq!(bus.error_state("n"), NodeErrorState::ErrorPassive);
        for _ in 0..16 {
            bus.report_error("n");
        }
        assert_eq!(bus.error_state("n"), NodeErrorState::BusOff);
        assert!(matches!(bus.submit(frame(1, "n"), SimTime::ZERO), Err(NetError::BusOff { .. })));
        bus.recover("n");
        assert_eq!(bus.error_state("n"), NodeErrorState::ErrorActive);
        assert!(bus.submit(frame(1, "n"), SimTime::ZERO).is_ok());
    }

    #[test]
    fn bus_off_clears_pending_frames() {
        let mut bus = CanBus::new(CanBusConfig::default());
        bus.submit(frame(1, "n"), SimTime::ZERO).unwrap();
        for _ in 0..32 {
            bus.report_error("n");
        }
        assert_eq!(bus.queue_len("n"), 0);
        assert!(bus.advance(SimTime::from_secs(1)).is_empty());
    }

    #[test]
    fn successful_tx_heals_error_counter() {
        let mut bus = CanBus::new(CanBusConfig::default());
        for _ in 0..16 {
            bus.report_error("n");
        }
        assert_eq!(bus.error_state("n"), NodeErrorState::ErrorPassive);
        // 8 successful transmissions reduce TEC by 8 (128 -> 120).
        for _ in 0..8 {
            bus.submit(frame(1, "n"), SimTime::ZERO).unwrap();
        }
        bus.advance(SimTime::from_secs(1));
        assert_eq!(bus.error_state("n"), NodeErrorState::ErrorActive);
    }

    #[test]
    fn frames_respect_ready_time() {
        let mut bus = CanBus::new(CanBusConfig::default());
        bus.submit(frame(1, "n"), SimTime::from_millis(5)).unwrap();
        assert!(bus.advance(SimTime::from_millis(5)).is_empty());
        let deliveries = bus.advance(SimTime::from_millis(6));
        assert_eq!(deliveries.len(), 1);
        assert!(deliveries[0].completed_at > SimTime::from_millis(5));
    }

    #[test]
    fn obs_counters_track_bus_activity() {
        let (obs, recorder) = Obs::memory();
        let mut bus = CanBus::new(CanBusConfig { bitrate_bps: 500_000, tx_queue_depth: 1 });
        bus.set_obs(obs);
        bus.submit(frame(1, "n"), SimTime::ZERO).unwrap();
        bus.submit(frame(1, "n"), SimTime::ZERO).unwrap_err();
        bus.advance(SimTime::from_secs(1));
        for _ in 0..32 {
            bus.report_error("n");
        }
        let snapshot = recorder.snapshot();
        assert_eq!(snapshot.counter("net.can.submitted"), Some(1));
        assert_eq!(snapshot.counter("net.can.dropped"), Some(1));
        assert_eq!(snapshot.counter("net.can.arbitrated"), Some(1));
        assert_eq!(snapshot.counter("net.can.bus_off"), Some(1), "bus-off counted once");
        assert_eq!(snapshot.events[0].name, "net.can.bus_off");
    }

    #[test]
    fn idle_tracks_queued_frames() {
        let mut bus = CanBus::new(CanBusConfig { bitrate_bps: 500_000, tx_queue_depth: 1 });
        assert!(bus.is_idle());
        bus.submit(frame(1, "n"), SimTime::ZERO).unwrap();
        assert!(!bus.is_idle());
        // A dropped frame adds nothing to the queues.
        bus.submit(frame(1, "n"), SimTime::ZERO).unwrap_err();
        // Not yet transmitted: still busy.
        assert!(bus.advance(SimTime::from_micros(100)).is_empty());
        assert!(!bus.is_idle());
        assert_eq!(bus.advance(SimTime::from_millis(1)).len(), 1);
        assert!(bus.is_idle());
        // Bus-off discards the pending frames: idle again.
        bus.submit(frame(1, "m"), SimTime::ZERO).unwrap();
        for _ in 0..32 {
            bus.report_error("m");
        }
        assert!(bus.is_idle());
    }

    #[test]
    fn deterministic_tie_break() {
        let mut bus = CanBus::new(CanBusConfig::default());
        bus.submit(frame(0x100, "zeta"), SimTime::ZERO).unwrap();
        bus.submit(frame(0x100, "alpha"), SimTime::ZERO).unwrap();
        let deliveries = bus.advance(SimTime::from_millis(10));
        assert_eq!(deliveries[0].frame.sender(), "alpha");
    }
}
