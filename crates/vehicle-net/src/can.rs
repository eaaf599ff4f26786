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
use std::sync::Arc;

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

/// A CAN data frame. The sender name is a shared [`Arc<str>`], so a
/// node that keeps its identity can build frames without copying it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CanFrame {
    id: CanId,
    payload: Bytes,
    sender: Arc<str>,
}

impl CanFrame {
    /// Creates a frame.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::PayloadTooLong`] if the payload exceeds 8 bytes.
    pub fn new(id: CanId, payload: Bytes, sender: impl Into<Arc<str>>) -> Result<Self, NetError> {
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

/// A run of identical frames delivered back to back, with the
/// completion time of its first frame. Frame `k` of the run (counting
/// from 0) completed at `completed_at + k · frame_time`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CanDelivery {
    /// The transmitted frame.
    pub frame: CanFrame,
    /// Virtual time at which the run's first frame completed.
    pub completed_at: SimTime,
    /// Frames in the run (at least 1).
    pub count: u32,
    /// Bus time of one frame.
    pub frame_time: Ftti,
}

impl CanDelivery {
    /// The completion time of each frame of the run, in bus order.
    pub fn completion_times(&self) -> impl Iterator<Item = SimTime> + '_ {
        (0..u64::from(self.count)).map(|k| self.completed_at + self.frame_time.saturating_mul(k))
    }
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

/// `count` copies of one frame, queued together with one ready time.
#[derive(Clone)]
struct QueuedRun {
    frame: CanFrame,
    ready: SimTime,
    count: u32,
}

/// One node's transmit queue: runs in FIFO order and their frame total.
#[derive(Clone, Default)]
struct NodeQueue {
    runs: VecDeque<QueuedRun>,
    frames: usize,
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
    /// Transmit queues keyed by the sender's shared name, so queueing
    /// and arbitration copy a pointer, not the name.
    queues: BTreeMap<Arc<str>, NodeQueue>,
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

    /// Queues a frame for transmission at `now`: a run of one.
    ///
    /// # Errors
    ///
    /// * [`NetError::BusOff`] if the sender is bus-off.
    /// * [`NetError::TxQueueFull`] if the sender's queue is at capacity
    ///   (the frame is counted as dropped).
    pub fn submit(&mut self, frame: CanFrame, now: SimTime) -> Result<(), NetError> {
        self.submit_run(frame, 1, now)
    }

    /// Queues `count` copies of `frame` for transmission at `now`, as
    /// `count` calls of [`CanBus::submit`] would: copies beyond the
    /// queue depth are dropped and counted, the rest are queued as one
    /// run.
    ///
    /// # Errors
    ///
    /// * [`NetError::BusOff`] if the sender is bus-off (nothing queued).
    /// * [`NetError::TxQueueFull`] if at least one copy was dropped.
    pub fn submit_run(
        &mut self,
        frame: CanFrame,
        count: u32,
        now: SimTime,
    ) -> Result<(), NetError> {
        if self.error_state(frame.sender()) == NodeErrorState::BusOff {
            return Err(NetError::BusOff { node: Arc::clone(&frame.sender) });
        }
        let queue = match self.queues.get_mut(frame.sender()) {
            Some(queue) => queue,
            None => self.queues.entry(Arc::clone(&frame.sender)).or_default(),
        };
        let room = self.config.tx_queue_depth.saturating_sub(queue.frames);
        let accepted = u32::try_from(room).unwrap_or(u32::MAX).min(count);
        let dropped = count - accepted;
        let result = if dropped > 0 {
            self.stats.dropped += u64::from(dropped);
            self.obs.counter("net.can.dropped", u64::from(dropped));
            Err(NetError::TxQueueFull { node: Arc::clone(&frame.sender) })
        } else {
            Ok(())
        };
        if accepted > 0 {
            queue.frames += accepted as usize;
            queue.runs.push_back(QueuedRun { frame, ready: now, count: accepted });
            self.stats.submitted += u64::from(accepted);
            self.obs.counter("net.can.submitted", u64::from(accepted));
        }
        result
    }

    /// The bus time of one `frame`.
    fn frame_time(&self, frame: &CanFrame) -> Ftti {
        Ftti::from_micros(
            u64::from(frame.wire_bits()) * 1_000_000 / u64::from(self.config.bitrate_bps),
        )
    }

    /// Runs arbitration and transmission up to virtual time `now`,
    /// returning completed runs in bus order.
    pub fn advance(&mut self, now: SimTime) -> Vec<CanDelivery> {
        let mut deliveries = Vec::new();
        self.advance_into(now, &mut deliveries);
        deliveries
    }

    /// [`CanBus::advance`] writing into a caller-owned buffer, which is
    /// cleared first.
    ///
    /// At each bus-idle instant every node's queue head with `ready ≤` the
    /// bus cursor contends; the lowest CAN identifier wins (ties broken by
    /// node name, deterministically). A frame only completes if its full
    /// transmission fits before `now`.
    ///
    /// A winning run keeps the bus frame after frame until its end, the
    /// first frame that would not fit before `now`, or the first frame
    /// boundary at which a higher-priority head of another node is ready.
    /// Those frames are delivered as one [`CanDelivery`]; expanding every
    /// run gives exactly the frame-by-frame arbitration.
    pub fn advance_into(&mut self, now: SimTime, deliveries: &mut Vec<CanDelivery>) {
        deliveries.clear();
        let mut delivered = 0u64;
        loop {
            // Earliest instant any frame is ready.
            let heads = self.queues.iter().filter_map(|(node, q)| Some((node, q.runs.front()?)));
            let Some(min_ready) = heads.clone().map(|(_, run)| run.ready).min() else { break };
            self.cursor = self.cursor.max(min_ready);
            if self.cursor >= now {
                break;
            }
            // Contenders: queue heads ready at the cursor; lowest ID wins.
            // One always exists, since the earliest head is ready.
            let cursor = self.cursor;
            let (winner, run_len, frame_time) = heads
                .clone()
                .filter(|(_, run)| run.ready <= cursor)
                .min_by_key(|(node, run)| (run.frame.id(), *node))
                .map(|(node, run)| ((run.frame.id(), node), run.count, self.frame_time(&run.frame)))
                .expect("the earliest head is ready at the cursor");
            if cursor + frame_time > now {
                break;
            }
            // The run's next frame follows while it completes by `now`
            // and no higher-priority head is ready at the boundary. Those
            // heads are not ready at the cursor, or they would have won.
            let mut count = u64::from(run_len);
            let step = frame_time.as_micros();
            if count > 1 && step > 0 {
                count = count.min((now - cursor).as_micros() / step);
                let preempt_at = heads
                    .filter(|(node, run)| (run.frame.id(), *node) < winner)
                    .map(|(_, run)| run.ready)
                    .min();
                if let Some(at) = preempt_at {
                    count = count.min((at - cursor).as_micros().div_ceil(step));
                }
            }
            let node = Arc::clone(winner.1);
            let queue = self.queues.get_mut(&node).expect("winner queue");
            let run = queue.runs.front_mut().expect("winner run");
            let count = u32::try_from(count).expect("at most the run's count");
            let frame = if count == run.count {
                queue.runs.pop_front().expect("winner run").frame
            } else {
                run.count -= count;
                run.frame.clone()
            };
            queue.frames -= count as usize;
            if queue.runs.is_empty() {
                self.queues.remove(&node);
            }
            self.cursor = cursor + frame_time.saturating_mul(u64::from(count));
            delivered += u64::from(count);
            // Successful transmissions decrement the error counter.
            if let Some(tec) = self.tec.get_mut(&*node) {
                *tec = tec.saturating_sub(count);
            }
            deliveries.push(CanDelivery {
                frame,
                completed_at: cursor + frame_time,
                count,
                frame_time,
            });
        }
        if delivered > 0 {
            self.stats.delivered += delivered;
            self.obs.counter("net.can.arbitrated", delivered);
        }
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
        self.queues.get(node).map_or(0, |queue| queue.frames)
    }

    /// Whether no frame is queued on any node. [`CanBus::advance`] on an
    /// idle bus delivers nothing and leaves the bus unchanged, so a
    /// caller stepping in fixed ticks may skip it.
    pub fn is_idle(&self) -> bool {
        self.queues.values().all(|queue| queue.runs.is_empty())
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
    fn a_run_yields_the_bus_at_the_first_boundary_a_higher_priority_head_is_ready() {
        // 111 bits at 500 kbit/s = 222 us per frame.
        let mut bus = CanBus::new(CanBusConfig::default());
        bus.submit_run(frame(0x300, "flood"), 5, SimTime::ZERO).unwrap();
        bus.submit(frame(0x100, "lock"), SimTime::from_micros(300)).unwrap();
        let mut deliveries = Vec::new();
        bus.advance_into(SimTime::from_millis(10), &mut deliveries);
        let runs: Vec<_> =
            deliveries.iter().map(|d| (d.frame.sender(), d.count, d.completed_at)).collect();
        assert_eq!(
            runs,
            [
                ("flood", 2, SimTime::from_micros(222)),
                ("lock", 1, SimTime::from_micros(666)),
                ("flood", 3, SimTime::from_micros(888)),
            ]
        );
        let last: Vec<_> = deliveries[2].completion_times().collect();
        assert_eq!(last, [888, 1_110, 1_332].map(SimTime::from_micros));
        assert_eq!(bus.stats().delivered, 6);
    }

    #[test]
    fn a_run_past_the_queue_depth_is_cut_and_counted() {
        let mut bus = CanBus::new(CanBusConfig { bitrate_bps: 500_000, tx_queue_depth: 4 });
        bus.submit(frame(1, "n"), SimTime::ZERO).unwrap();
        let err = bus.submit_run(frame(1, "n"), 5, SimTime::ZERO).unwrap_err();
        assert!(matches!(err, NetError::TxQueueFull { .. }));
        assert_eq!(bus.queue_len("n"), 4);
        assert_eq!((bus.stats().submitted, bus.stats().dropped), (4, 2));
        // A run that stops at `now` leaves the rest queued.
        let deliveries = bus.advance(SimTime::from_micros(500));
        assert_eq!(deliveries.iter().map(|d| d.count).sum::<u32>(), 2);
        assert_eq!(bus.queue_len("n"), 2);
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
