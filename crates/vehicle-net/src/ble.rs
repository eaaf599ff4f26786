//! BLE-like session link between smartphone and vehicle (Use Case II).
//!
//! Models what the keyless-opener attacks need: an
//! advertising/connection state machine, per-direction sequence numbers,
//! frame latency and loss, jamming, and connection supervision (a link
//! with no traffic for longer than the supervision timeout drops — the
//! mechanism behind connection-flapping attacks on SG02).

use std::sync::Arc;

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use saseval_obs::Obs;
use serde::{Deserialize, Serialize};

use saseval_types::{Ftti, SimTime};

use crate::error::NetError;

/// Connection state of the link.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum LinkState {
    /// Peripheral silent.
    Idle,
    /// Peripheral advertising, connectable.
    Advertising,
    /// Connected to a central.
    Connected {
        /// Name of the connected central (e.g. the owner's phone).
        central: String,
    },
}

/// A data frame on the link, or a burst of `count` identical frames
/// sent together and delivered together.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BleFrame {
    /// Link-layer sequence number (monotonic per connection) of the
    /// first frame of the burst that survived transit.
    pub seq: u32,
    /// Sender name, shared with every other frame from the same
    /// identity.
    pub sender: Arc<str>,
    /// Application payload.
    pub payload: Bytes,
    /// Send time (basis of freshness checks).
    pub sent_at: SimTime,
    /// Frames this entry stands for (at least 1).
    pub count: u32,
}

/// Configuration of a [`BleLink`].
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct BleConfig {
    /// One-way frame latency in microseconds.
    pub latency_us: u64,
    /// Independent loss probability per frame (0.0–1.0). Validated at
    /// [`BleLink::new`]: debug builds assert the range, release builds
    /// clamp out-of-range values into it (NaN becomes `0.0`).
    pub loss_prob: f64,
    /// Supervision timeout: the connection drops if no frame is delivered
    /// for this long.
    pub supervision_timeout: Ftti,
}

impl Default for BleConfig {
    fn default() -> Self {
        BleConfig {
            latency_us: 5_000,
            loss_prob: 0.005,
            supervision_timeout: Ftti::from_millis(2_000),
        }
    }
}

/// Link statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BleStats {
    /// Frames submitted.
    pub sent: u64,
    /// Frames delivered.
    pub delivered: u64,
    /// Frames lost (loss or jam).
    pub lost: u64,
    /// Connections established.
    pub connects: u64,
    /// Connections dropped by supervision timeout.
    pub supervision_drops: u64,
}

/// A point-to-point BLE-like session link.
///
/// # Example
///
/// ```
/// use vehicle_net::ble::{BleConfig, BleLink};
/// use saseval_types::SimTime;
/// use bytes::Bytes;
///
/// let mut link = BleLink::new(BleConfig::default(), 7);
/// link.start_advertising(SimTime::ZERO);
/// link.connect("owner-phone", SimTime::ZERO)?;
/// link.send("owner-phone", Bytes::from_static(b"OPEN"), SimTime::ZERO)?;
/// let frames = link.poll(SimTime::from_millis(10));
/// assert_eq!(frames.len(), 1);
/// assert_eq!(frames[0].payload.as_ref(), b"OPEN");
/// # Ok::<(), vehicle_net::NetError>(())
/// ```
#[derive(Clone)]
pub struct BleLink {
    config: BleConfig,
    state: LinkState,
    rng: StdRng,
    next_seq: u32,
    in_flight: Vec<(SimTime, BleFrame)>,
    last_activity: SimTime,
    jam_until: Option<SimTime>,
    stats: BleStats,
    obs: Obs,
}

impl std::fmt::Debug for BleLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BleLink")
            .field("state", &self.state)
            .field("in_flight", &self.in_flight.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl BleLink {
    /// Creates an idle link.
    ///
    /// `config.loss_prob` is validated here: debug builds panic on a
    /// value outside `[0.0, 1.0]`, release builds clamp it into range.
    pub fn new(mut config: BleConfig, seed: u64) -> Self {
        config.loss_prob = crate::validated_loss_prob(config.loss_prob);
        BleLink {
            config,
            state: LinkState::Idle,
            rng: StdRng::seed_from_u64(seed),
            next_seq: 0,
            in_flight: Vec::new(),
            last_activity: SimTime::ZERO,
            jam_until: None,
            stats: BleStats::default(),
            obs: Obs::noop(),
        }
    }

    /// The configuration in effect (loss probability already validated).
    pub fn config(&self) -> &BleConfig {
        &self.config
    }

    /// Attaches a metrics handle; the link emits `net.ble.*` counters and
    /// a `net.ble.session` event per connect/supervision-drop through it.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The current connection state.
    pub fn state(&self) -> &LinkState {
        &self.state
    }

    /// Whether a central is connected.
    pub fn is_connected(&self) -> bool {
        matches!(self.state, LinkState::Connected { .. })
    }

    /// Starts advertising (no-op when already advertising or connected).
    pub fn start_advertising(&mut self, _now: SimTime) {
        if matches!(self.state, LinkState::Idle) {
            self.state = LinkState::Advertising;
        }
    }

    /// Connects a central to the advertising peripheral.
    ///
    /// # Errors
    ///
    /// * [`NetError::AlreadyConnected`] if a central is connected.
    /// * [`NetError::NotConnected`] if the peripheral is idle (not
    ///   advertising) or the channel is jammed at `now`.
    pub fn connect(&mut self, central: impl Into<String>, now: SimTime) -> Result<(), NetError> {
        match self.state {
            LinkState::Connected { .. } => Err(NetError::AlreadyConnected),
            LinkState::Idle => Err(NetError::NotConnected),
            LinkState::Advertising => {
                if self.is_jammed(now) {
                    return Err(NetError::NotConnected);
                }
                let central = central.into();
                self.stats.connects += 1;
                self.obs.counter("net.ble.connects", 1);
                self.obs.event(
                    "net.ble.session",
                    &[("action", "connect".into()), ("central", central.as_str().into())],
                );
                self.state = LinkState::Connected { central };
                self.next_seq = 0;
                self.last_activity = now;
                Ok(())
            }
        }
    }

    /// Disconnects; the peripheral returns to advertising.
    pub fn disconnect(&mut self, _now: SimTime) {
        if self.is_connected() {
            self.state = LinkState::Advertising;
            self.in_flight.clear();
        }
    }

    /// Sends a frame over the established connection. Returns the assigned
    /// sequence number; the frame may still be lost in transit.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NotConnected`] if no connection exists.
    pub fn send(
        &mut self,
        sender: impl Into<Arc<str>>,
        payload: Bytes,
        now: SimTime,
    ) -> Result<u32, NetError> {
        self.send_burst(sender, payload, 1, now)
    }

    /// Sends `count` identical frames at `now`, as `count` calls of
    /// [`BleLink::send`] would: each frame gets its sequence number and
    /// its own loss draw, in order. The frames that survive travel as
    /// one in-flight entry and are delivered as one [`BleFrame`] whose
    /// `count` says how many it stands for. Returns the first assigned
    /// sequence number.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NotConnected`] if no connection exists.
    pub fn send_burst(
        &mut self,
        sender: impl Into<Arc<str>>,
        payload: Bytes,
        count: u32,
        now: SimTime,
    ) -> Result<u32, NetError> {
        if !self.is_connected() {
            return Err(NetError::NotConnected);
        }
        let first = self.next_seq;
        if count == 0 {
            return Ok(first);
        }
        self.next_seq += count;
        self.stats.sent += u64::from(count);
        self.obs.counter("net.ble.sent", u64::from(count));
        // A jammed channel loses every frame without a draw.
        let mut survivors = 0;
        let mut first_survivor = first;
        if !self.is_jammed(now) {
            for seq in first..first + count {
                if self.config.loss_prob > 0.0 && self.rng.random_bool(self.config.loss_prob) {
                    continue;
                }
                if survivors == 0 {
                    first_survivor = seq;
                }
                survivors += 1;
            }
        }
        let lost = count - survivors;
        if lost > 0 {
            self.stats.lost += u64::from(lost);
            self.obs.counter("net.ble.lost", u64::from(lost));
        }
        if survivors > 0 {
            let frame = BleFrame {
                seq: first_survivor,
                sender: sender.into(),
                payload,
                sent_at: now,
                count: survivors,
            };
            let arrival = now + Ftti::from_micros(self.config.latency_us);
            self.in_flight.push((arrival, frame));
        }
        Ok(first)
    }

    /// Delivers frames due at `now`, in send order, and runs connection
    /// supervision: if the link is connected and the last delivered
    /// activity is older than the supervision timeout, the connection
    /// drops. A burst's surviving frames come back as one [`BleFrame`]
    /// with their `count`.
    pub fn poll(&mut self, now: SimTime) -> Vec<BleFrame> {
        let mut delivered = Vec::new();
        self.poll_into(now, &mut delivered);
        delivered
    }

    /// [`BleLink::poll`] writing into a caller-owned buffer. `delivered`
    /// is cleared first. Receivers that poll every tick keep one buffer
    /// alive across ticks, so steady-state polling performs no per-tick
    /// allocation.
    pub fn poll_into(&mut self, now: SimTime, delivered: &mut Vec<BleFrame>) {
        delivered.clear();
        self.in_flight.sort_by_key(|(t, _)| *t);
        let due = self.in_flight.partition_point(|(arrival, _)| *arrival <= now);
        let mut delivered_frames = 0;
        for (arrival, frame) in self.in_flight.drain(..due) {
            let count = u64::from(frame.count);
            if self.jam_until.is_some_and(|until| arrival < until) {
                self.stats.lost += count;
                self.obs.counter("net.ble.lost", count);
            } else {
                self.last_activity = arrival;
                delivered_frames += count;
                delivered.push(frame);
            }
        }
        if delivered_frames > 0 {
            self.stats.delivered += delivered_frames;
            self.obs.counter("net.ble.delivered", delivered_frames);
        }

        if self.is_connected()
            && now.saturating_since(self.last_activity) > self.config.supervision_timeout
        {
            self.state = LinkState::Advertising;
            self.stats.supervision_drops += 1;
            self.obs.counter("net.ble.supervision_drops", 1);
            self.obs.event("net.ble.session", &[("action", "supervision-drop".into())]);
        }
    }

    /// Jams the link until `until`.
    pub fn jam(&mut self, until: SimTime) {
        self.jam_until = Some(match self.jam_until {
            Some(existing) => existing.max(until),
            None => until,
        });
    }

    /// Whether the link is jammed at `t`.
    pub fn is_jammed(&self, t: SimTime) -> bool {
        self.jam_until.is_some_and(|until| t < until)
    }

    /// The earliest instant at which [`BleLink::poll`] can change the
    /// link: the next in-flight arrival (delivered, or counted lost
    /// inside a jam window) or, while connected, the first instant the
    /// supervision check fires — `last_activity + timeout + 1 µs`, since
    /// the drop test is a strict `>`. `None` when neither exists. Jam
    /// windows raise no wake-up of their own: they only filter arrivals.
    ///
    /// A poll at any `now` before this instant delivers nothing, drops
    /// nothing and leaves the link unchanged, so a caller stepping in
    /// fixed ticks may skip every poll before it.
    pub fn next_wake_up(&self) -> Option<SimTime> {
        let arrival = self.in_flight.iter().map(|(arrival, _)| *arrival).min();
        let supervision = self
            .is_connected()
            .then(|| self.last_activity + self.config.supervision_timeout + Ftti::from_micros(1));
        arrival.into_iter().chain(supervision).min()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> BleStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossless() -> BleConfig {
        BleConfig { latency_us: 1_000, loss_prob: 0.0, supervision_timeout: Ftti::from_millis(100) }
    }

    fn connected() -> BleLink {
        let mut link = BleLink::new(lossless(), 1);
        link.start_advertising(SimTime::ZERO);
        link.connect("phone", SimTime::ZERO).unwrap();
        link
    }

    #[test]
    fn state_machine_transitions() {
        let mut link = BleLink::new(lossless(), 1);
        assert_eq!(*link.state(), LinkState::Idle);
        assert!(matches!(link.connect("phone", SimTime::ZERO), Err(NetError::NotConnected)));
        link.start_advertising(SimTime::ZERO);
        assert_eq!(*link.state(), LinkState::Advertising);
        link.connect("phone", SimTime::ZERO).unwrap();
        assert!(link.is_connected());
        assert!(matches!(link.connect("other", SimTime::ZERO), Err(NetError::AlreadyConnected)));
        link.disconnect(SimTime::ZERO);
        assert_eq!(*link.state(), LinkState::Advertising);
    }

    #[test]
    fn send_requires_connection() {
        let mut link = BleLink::new(lossless(), 1);
        assert!(matches!(
            link.send("phone", Bytes::from_static(b"OPEN"), SimTime::ZERO),
            Err(NetError::NotConnected)
        ));
    }

    #[test]
    fn sequence_numbers_monotonic_per_connection() {
        let mut link = connected();
        let a = link.send("phone", Bytes::from_static(b"a"), SimTime::ZERO).unwrap();
        let b = link.send("phone", Bytes::from_static(b"b"), SimTime::ZERO).unwrap();
        assert_eq!((a, b), (0, 1));
        link.disconnect(SimTime::ZERO);
        link.connect("phone", SimTime::ZERO).unwrap();
        let c = link.send("phone", Bytes::from_static(b"c"), SimTime::ZERO).unwrap();
        assert_eq!(c, 0, "sequence resets per connection");
    }

    #[test]
    fn frames_arrive_after_latency() {
        let mut link = connected();
        link.send("phone", Bytes::from_static(b"OPEN"), SimTime::ZERO).unwrap();
        assert!(link.poll(SimTime::from_micros(999)).is_empty());
        let frames = link.poll(SimTime::from_millis(1));
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].sent_at, SimTime::ZERO);
    }

    #[test]
    fn supervision_timeout_drops_connection() {
        let mut link = connected();
        link.send("phone", Bytes::from_static(b"x"), SimTime::ZERO).unwrap();
        link.poll(SimTime::from_millis(1));
        assert!(link.is_connected());
        // No traffic for > 100 ms: supervision drops the link.
        link.poll(SimTime::from_millis(200));
        assert!(!link.is_connected());
        assert_eq!(link.stats().supervision_drops, 1);
    }

    #[test]
    fn jam_loses_frames_and_blocks_connects() {
        let mut link = connected();
        link.jam(SimTime::from_millis(50));
        link.send("phone", Bytes::from_static(b"x"), SimTime::from_millis(10)).unwrap();
        assert!(link.poll(SimTime::from_millis(20)).is_empty());
        assert_eq!(link.stats().lost, 1);
        // Supervision eventually drops the jammed connection; reconnection
        // during the jam fails.
        link.poll(SimTime::from_millis(130));
        assert!(!link.is_connected());
        // Jam window extended; connect attempts inside it fail.
        link.jam(SimTime::from_millis(500));
        assert!(link.connect("phone", SimTime::from_millis(140)).is_err());
        assert!(link.connect("phone", SimTime::from_millis(600)).is_ok());
    }

    #[test]
    fn loss_is_deterministic_per_seed() {
        let config = BleConfig { latency_us: 0, loss_prob: 0.5, ..lossless() };
        let observe = |seed| {
            let mut link = BleLink::new(config, seed);
            link.start_advertising(SimTime::ZERO);
            link.connect("phone", SimTime::ZERO).unwrap();
            for _ in 0..50 {
                link.send("phone", Bytes::from_static(b"x"), SimTime::ZERO).unwrap();
            }
            link.poll(SimTime::from_secs(1)).len()
        };
        assert_eq!(observe(5), observe(5));
    }

    #[test]
    fn a_burst_draws_and_counts_like_single_sends() {
        let config = BleConfig { loss_prob: 0.4, ..lossless() };
        let mut single = BleLink::new(config, 3);
        single.start_advertising(SimTime::ZERO);
        single.connect("phone", SimTime::ZERO).unwrap();
        let mut burst = single.clone();
        for _ in 0..20 {
            single.send("phone", Bytes::from_static(b"x"), SimTime::ZERO).unwrap();
        }
        assert_eq!(burst.send_burst("phone", Bytes::from_static(b"x"), 20, SimTime::ZERO), Ok(0));
        let frames = burst.poll(SimTime::from_millis(1));
        let [frame] = &frames[..] else { panic!("one entry for the burst: {frames:?}") };
        let singles = single.poll(SimTime::from_millis(1));
        assert_eq!(frame.count as usize, singles.len());
        assert_eq!(frame.seq, singles[0].seq, "numbered from the first survivor");
        assert_eq!(burst.stats(), single.stats());
        // The link's draws stay aligned afterwards.
        for link in [&mut single, &mut burst] {
            link.send("phone", Bytes::from_static(b"y"), SimTime::from_millis(1)).unwrap();
        }
        assert_eq!(burst.poll(SimTime::from_secs(1)), single.poll(SimTime::from_secs(1)));
    }

    #[test]
    fn obs_records_session_events() {
        let (obs, recorder) = Obs::memory();
        let mut link = BleLink::new(lossless(), 1);
        link.set_obs(obs);
        link.start_advertising(SimTime::ZERO);
        link.connect("phone", SimTime::ZERO).unwrap();
        link.send("phone", Bytes::from_static(b"x"), SimTime::ZERO).unwrap();
        link.poll(SimTime::from_millis(1));
        link.poll(SimTime::from_millis(200));
        let snapshot = recorder.snapshot();
        assert_eq!(snapshot.counter("net.ble.connects"), Some(1));
        assert_eq!(snapshot.counter("net.ble.sent"), Some(1));
        assert_eq!(snapshot.counter("net.ble.delivered"), Some(1));
        assert_eq!(snapshot.counter("net.ble.supervision_drops"), Some(1));
        let actions: Vec<&str> = snapshot
            .events
            .iter()
            .filter(|e| e.name == "net.ble.session")
            .map(|e| e.fields[0].1.as_str())
            .collect();
        assert_eq!(actions, ["connect", "supervision-drop"]);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "loss_prob"))]
    fn out_of_range_loss_prob_is_rejected_at_construction() {
        let config = BleConfig { loss_prob: f64::NAN, ..lossless() };
        // Debug builds assert at the constructor; release builds treat
        // NaN as a lossless link instead of panicking inside
        // `rng.random_bool`.
        let link = BleLink::new(config, 1);
        assert_eq!(link.config().loss_prob, 0.0);
    }

    #[test]
    fn wake_up_is_the_next_arrival() {
        let mut link = connected();
        link.send("phone", Bytes::from_static(b"x"), SimTime::from_millis(5)).unwrap();
        // Arrival at 6 ms comes before the supervision deadline.
        assert_eq!(link.next_wake_up(), Some(SimTime::from_millis(6)));
        link.poll(SimTime::from_millis(6));
        // Delivered: only the supervision deadline remains, measured
        // from the delivery.
        assert_eq!(link.next_wake_up(), Some(SimTime::from_micros(106_001)));
    }

    #[test]
    fn wake_up_lands_on_the_strict_supervision_boundary() {
        let mut link = connected();
        let deadline = SimTime::from_micros(100_001);
        assert_eq!(link.next_wake_up(), Some(deadline));
        // Exactly `timeout` after the last activity the link survives …
        link.poll(SimTime::from_millis(100));
        assert!(link.is_connected());
        assert_eq!(link.next_wake_up(), Some(deadline));
        // … and 1 µs later it drops; an advertising link never wakes.
        link.poll(deadline);
        assert!(!link.is_connected());
        assert_eq!(link.next_wake_up(), None);
    }

    #[test]
    fn jam_raises_no_wake_up() {
        let mut link = BleLink::new(lossless(), 1);
        link.start_advertising(SimTime::ZERO);
        link.jam(SimTime::from_secs(10));
        assert_eq!(link.next_wake_up(), None, "the end of a jam window is no event");
        link.connect("phone", SimTime::from_secs(11)).unwrap();
        link.jam(SimTime::from_secs(20));
        // A frame sent into the jam is lost at send: nothing in flight.
        link.send("phone", Bytes::from_static(b"x"), SimTime::from_secs(12)).unwrap();
        assert_eq!(link.next_wake_up(), Some(SimTime::from_micros(11_100_001)));
    }

    #[test]
    fn wake_up_counts_frames_a_jam_will_drop() {
        let mut link = connected();
        link.send("phone", Bytes::from_static(b"x"), SimTime::ZERO).unwrap();
        link.jam(SimTime::from_millis(50));
        // The arrival is still an event: the poll counts it lost.
        assert_eq!(link.next_wake_up(), Some(SimTime::from_millis(1)));
        assert!(link.poll(SimTime::from_millis(1)).is_empty());
        assert_eq!(link.stats().lost, 1);
        assert_eq!(link.next_wake_up(), Some(SimTime::from_micros(100_001)));
    }

    #[test]
    fn disconnect_clears_in_flight() {
        let mut link = connected();
        link.send("phone", Bytes::from_static(b"x"), SimTime::ZERO).unwrap();
        link.disconnect(SimTime::ZERO);
        link.connect("phone", SimTime::ZERO).unwrap();
        assert!(link.poll(SimTime::from_secs(1)).is_empty());
    }
}
