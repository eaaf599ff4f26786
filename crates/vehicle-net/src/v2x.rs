//! V2X broadcast channel (802.11p-like) between RSU and OBU.
//!
//! Models the properties Use Case I's attacks exploit: propagation latency
//! with deterministic jitter, independent frame loss, and **jamming
//! windows** during which nothing is received ([`V2xChannel::jam`]) — the
//! executable form of attack type "Jamming" from Table IV.

use std::sync::Arc;

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use saseval_obs::Obs;
use serde::{Deserialize, Serialize};

use saseval_types::{Ftti, SimTime};

/// A V2X application message.
///
/// The sender identity is a shared [`Arc<str>`]: cloning a message, or
/// building many messages from one identity, copies a pointer rather
/// than the name.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct V2xMessage {
    sender: Arc<str>,
    msg_type: u16,
    payload: Bytes,
    generated_at: SimTime,
    auth_tag: Option<u64>,
}

impl V2xMessage {
    /// Creates a message stamped with its generation time (the basis of
    /// freshness checks in `security-controls`).
    pub fn new(
        sender: impl Into<Arc<str>>,
        msg_type: u16,
        payload: Bytes,
        generated_at: SimTime,
    ) -> Self {
        V2xMessage { sender: sender.into(), msg_type, payload, generated_at, auth_tag: None }
    }

    /// Attaches a security-envelope authentication tag (cf. IEEE 1609.2;
    /// here the toy MAC of `security-controls`).
    pub fn with_auth_tag(mut self, tag: u64) -> Self {
        self.auth_tag = Some(tag);
        self
    }

    /// The authentication tag, if present.
    pub fn auth_tag(&self) -> Option<u64> {
        self.auth_tag
    }

    /// The claimed sender identity (spoofable — authentication is the job
    /// of `security-controls`).
    pub fn sender(&self) -> &str {
        &self.sender
    }

    /// The claimed sender identity as its shared allocation; cloning it
    /// copies a pointer.
    pub fn shared_sender(&self) -> &Arc<str> {
        &self.sender
    }

    /// The application message type (e.g. road-works warning, signage).
    pub fn msg_type(&self) -> u16 {
        self.msg_type
    }

    /// The payload bytes.
    pub fn payload(&self) -> &Bytes {
        &self.payload
    }

    /// The sender-stamped generation time.
    pub fn generated_at(&self) -> SimTime {
        self.generated_at
    }

    /// Returns a copy with a different claimed sender (spoofing helper for
    /// the attack engine).
    pub fn with_sender(&self, sender: impl Into<Arc<str>>) -> V2xMessage {
        V2xMessage { sender: sender.into(), ..self.clone() }
    }

    /// Returns a copy with a different payload (tampering helper).
    pub fn with_payload(&self, payload: Bytes) -> V2xMessage {
        V2xMessage { payload, ..self.clone() }
    }

    /// Returns a copy with a different generation timestamp (replay/delay
    /// helper).
    pub fn with_generated_at(&self, generated_at: SimTime) -> V2xMessage {
        V2xMessage { generated_at, ..self.clone() }
    }
}

/// Configuration of a [`V2xChannel`].
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct V2xConfig {
    /// Base propagation + processing latency in microseconds.
    pub latency_us: u64,
    /// Maximum deterministic jitter added on top, in microseconds.
    pub jitter_us: u64,
    /// Independent loss probability per frame (0.0–1.0). Validated at
    /// [`V2xChannel::new`]: debug builds assert the range, release builds
    /// clamp out-of-range values into it (NaN becomes `0.0`).
    pub loss_prob: f64,
}

impl Default for V2xConfig {
    fn default() -> Self {
        V2xConfig { latency_us: 2_000, jitter_us: 1_000, loss_prob: 0.01 }
    }
}

/// Channel reception statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct V2xStats {
    /// Messages handed to the channel.
    pub sent: u64,
    /// Messages delivered to the receiver.
    pub delivered: u64,
    /// Messages lost to random channel loss.
    pub lost: u64,
    /// Messages suppressed by jamming.
    pub jammed: u64,
}

/// A broadcast channel with one receiver, deterministic under a fixed
/// seed.
///
/// See the [crate-level example](crate).
#[derive(Clone)]
pub struct V2xChannel {
    config: V2xConfig,
    rng: StdRng,
    in_flight: Vec<(SimTime, V2xMessage)>,
    /// Unread messages in flight ([`V2xChannel::broadcast_unread_burst`]),
    /// one entry per burst: only their reception is left to count.
    unread: Vec<UnreadBurst>,
    jam_until: Option<SimTime>,
    stats: V2xStats,
    obs: Obs,
}

/// The arrivals of one unread burst still to count. They are not
/// stored: replaying the burst's draws from the RNG state it was sent
/// with recovers each one exactly, which a poll needs only when its
/// cut-off or the jam deadline falls inside the pending span.
#[derive(Debug, Clone)]
struct UnreadBurst {
    /// The channel RNG before the burst's first draw.
    rng: StdRng,
    /// The send instant.
    sent_at: SimTime,
    /// Messages sent, lost ones included: a replay redraws them all.
    sent: u32,
    /// Arrivals not yet counted.
    pending: u32,
    /// The earliest pending arrival; every earlier one has been counted.
    first: SimTime,
    /// The latest arrival.
    last: SimTime,
}

impl UnreadBurst {
    /// Counts the pending arrivals due at `now` as delivered or jammed
    /// (an arrival before `jam_until` is jammed) and returns
    /// `(delivered, jammed)`. Arrivals after `now` stay pending.
    fn count_due(
        &mut self,
        now: SimTime,
        jam_until: Option<SimTime>,
        config: &V2xConfig,
    ) -> (u64, u64) {
        let pending = u64::from(self.pending);
        if self.last <= now {
            match jam_until {
                Some(until) if until > self.last => {
                    self.pending = 0;
                    return (0, pending);
                }
                Some(until) if until > self.first => {}
                _ => {
                    self.pending = 0;
                    return (pending, 0);
                }
            }
        }
        let (mut delivered, mut jammed) = (0, 0);
        let (counted_before, mut first) = (self.first, SimTime::MAX);
        let mut rng = self.rng.clone();
        self.pending = 0;
        for _ in 0..self.sent {
            let Some(jitter) = draw_jitter(&mut rng, config.loss_prob, config.jitter_us) else {
                continue;
            };
            let arrival = self.sent_at + Ftti::from_micros(config.latency_us + jitter);
            if arrival < counted_before {
                // Counted at an earlier poll.
            } else if arrival > now {
                self.pending += 1;
                first = first.min(arrival);
            } else if jam_until.is_some_and(|until| arrival < until) {
                jammed += 1;
            } else {
                delivered += 1;
            }
        }
        debug_assert_eq!(delivered + jammed + u64::from(self.pending), pending);
        self.first = first;
        (delivered, jammed)
    }
}

/// One message's channel draws: the loss draw, then, unless it hits,
/// the jitter draw. Returns the jitter, or `None` for a lost message.
#[inline]
fn draw_jitter(rng: &mut StdRng, loss_prob: f64, jitter_us: u64) -> Option<u64> {
    if loss_prob > 0.0 && rng.random_bool(loss_prob) {
        return None;
    }
    Some(if jitter_us == 0 { 0 } else { rng.random_range(0..=jitter_us) })
}

impl std::fmt::Debug for V2xChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let unread: u64 = self.unread.iter().map(|burst| u64::from(burst.pending)).sum();
        f.debug_struct("V2xChannel")
            .field("in_flight", &self.in_flight.len())
            .field("unread_in_flight", &unread)
            .field("jam_until", &self.jam_until)
            .field("stats", &self.stats)
            .finish()
    }
}

impl V2xChannel {
    /// Creates a channel with the given configuration and RNG seed.
    ///
    /// `config.loss_prob` is validated here: debug builds panic on a
    /// value outside `[0.0, 1.0]`, release builds clamp it into range.
    pub fn new(mut config: V2xConfig, seed: u64) -> Self {
        config.loss_prob = crate::validated_loss_prob(config.loss_prob);
        V2xChannel {
            config,
            rng: StdRng::seed_from_u64(seed),
            in_flight: Vec::new(),
            unread: Vec::new(),
            jam_until: None,
            stats: V2xStats::default(),
            obs: Obs::noop(),
        }
    }

    /// Attaches a metrics handle; the channel emits `net.v2x.*` counters
    /// through it.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The configuration in effect.
    pub fn config(&self) -> &V2xConfig {
        &self.config
    }

    /// Broadcasts a message at `now`. Returns the scheduled arrival time,
    /// or `None` if the frame was lost (random loss or jamming).
    pub fn broadcast(&mut self, msg: V2xMessage, now: SimTime) -> Option<SimTime> {
        self.stats.sent += 1;
        self.obs.counter("net.v2x.sent", 1);
        if self.is_jammed(now) {
            self.stats.jammed += 1;
            self.obs.counter("net.v2x.jammed", 1);
            return None;
        }
        let Some(jitter) = draw_jitter(&mut self.rng, self.config.loss_prob, self.config.jitter_us)
        else {
            self.stats.lost += 1;
            self.obs.counter("net.v2x.lost", 1);
            return None;
        };
        let arrival = now + Ftti::from_micros(self.config.latency_us + jitter);
        self.in_flight.push((arrival, msg));
        Some(arrival)
    }

    /// Broadcasts, at `now`, a message its receiver will certainly drop on
    /// arrival: [`V2xChannel::broadcast_unread_burst`] of one message.
    /// Returns the scheduled arrival time, or `None` if the frame was lost.
    pub fn broadcast_unread(&mut self, now: SimTime) -> Option<SimTime> {
        (self.broadcast_unread_burst(1, now) == 1)
            .then(|| self.unread.last().expect("the burst was just queued").first)
    }

    /// Broadcasts, at `now`, `count` messages their receiver will
    /// certainly drop on arrival. The channel makes the send-time
    /// decisions and RNG draws `count` calls of
    /// [`V2xChannel::broadcast`] would make, in the same order, and
    /// counts each arrival as delivered or jammed exactly as it would
    /// count the message's, but keeps no message: [`V2xChannel::poll`]
    /// never returns one for them. The burst is counted once and travels
    /// as one in-flight entry. Returns how many of its messages are in
    /// flight, i.e. neither lost nor jammed at send.
    pub fn broadcast_unread_burst(&mut self, count: u32, now: SimTime) -> u32 {
        if count == 0 {
            return 0;
        }
        self.stats.sent += u64::from(count);
        self.obs.counter("net.v2x.sent", u64::from(count));
        if self.is_jammed(now) {
            self.stats.jammed += u64::from(count);
            self.obs.counter("net.v2x.jammed", u64::from(count));
            return 0;
        }
        let rng = self.rng.clone();
        let V2xConfig { latency_us, jitter_us, loss_prob } = self.config;
        let (mut arrived, mut min, mut max) = (0, u64::MAX, 0);
        for _ in 0..count {
            if let Some(jitter) = draw_jitter(&mut self.rng, loss_prob, jitter_us) {
                arrived += 1;
                min = min.min(jitter);
                max = max.max(jitter);
            }
        }
        let lost = count - arrived;
        if lost > 0 {
            self.stats.lost += u64::from(lost);
            self.obs.counter("net.v2x.lost", u64::from(lost));
        }
        if arrived > 0 {
            self.unread.push(UnreadBurst {
                rng,
                sent_at: now,
                sent: count,
                pending: arrived,
                first: now + Ftti::from_micros(latency_us + min),
                last: now + Ftti::from_micros(latency_us + max),
            });
        }
        arrived
    }

    /// Returns messages whose arrival time is `≤ now`, in arrival order.
    /// Arrivals inside a jam window are suppressed.
    pub fn poll(&mut self, now: SimTime) -> Vec<V2xMessage> {
        let mut delivered = Vec::new();
        self.poll_into(now, &mut delivered);
        delivered
    }

    /// [`V2xChannel::poll`] writing into a caller-owned buffer.
    /// `delivered` is cleared first. Receivers that poll every tick keep
    /// one buffer alive across ticks, so steady-state polling performs no
    /// per-tick allocation; undelivered in-flight messages stay in place
    /// rather than being rebuilt into a fresh vector. Due unread arrivals
    /// are counted as delivered or jammed but never handed out.
    pub fn poll_into(&mut self, now: SimTime, delivered: &mut Vec<V2xMessage>) {
        delivered.clear();
        self.in_flight.sort_by_key(|(t, _)| *t);
        let due = self.in_flight.partition_point(|(arrival, _)| *arrival <= now);
        let mut jammed = 0;
        for (arrival, msg) in self.in_flight.drain(..due) {
            if self.jam_until.is_some_and(|until| arrival < until) {
                jammed += 1;
            } else {
                delivered.push(msg);
            }
        }
        let mut unread_delivered = 0;
        let (jam_until, config) = (self.jam_until, &self.config);
        self.unread.retain_mut(|burst| {
            if burst.first <= now {
                let (arrived, lost_to_jam) = burst.count_due(now, jam_until, config);
                unread_delivered += arrived;
                jammed += lost_to_jam;
            }
            burst.pending > 0
        });
        if jammed > 0 {
            self.stats.jammed += jammed;
            self.obs.counter("net.v2x.jammed", jammed);
        }
        let delivered_total = delivered.len() as u64 + unread_delivered;
        if delivered_total > 0 {
            self.stats.delivered += delivered_total;
            self.obs.counter("net.v2x.delivered", delivered_total);
        }
    }

    /// Jams the channel until `until`: frames sent or arriving before that
    /// instant are lost.
    pub fn jam(&mut self, until: SimTime) {
        self.jam_until = Some(match self.jam_until {
            Some(existing) => existing.max(until),
            None => until,
        });
    }

    /// Whether the channel is jammed at `t`.
    pub fn is_jammed(&self, t: SimTime) -> bool {
        self.jam_until.is_some_and(|until| t < until)
    }

    /// Whether nothing is in flight, unread arrivals included.
    /// [`V2xChannel::poll`] on an idle channel delivers nothing and leaves
    /// the channel unchanged, so a caller stepping in fixed ticks may skip
    /// it.
    pub fn is_idle(&self) -> bool {
        self.in_flight.is_empty() && self.unread.is_empty()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> V2xStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossless() -> V2xConfig {
        V2xConfig { latency_us: 1_000, jitter_us: 0, loss_prob: 0.0 }
    }

    fn msg(sender: &str, t: SimTime) -> V2xMessage {
        V2xMessage::new(sender, 1, Bytes::from_static(b"warn"), t)
    }

    #[test]
    fn delivery_after_latency() {
        let mut ch = V2xChannel::new(lossless(), 1);
        let arrival = ch.broadcast(msg("RSU", SimTime::ZERO), SimTime::ZERO).unwrap();
        assert_eq!(arrival, SimTime::from_millis(1));
        assert!(ch.poll(SimTime::from_micros(999)).is_empty());
        assert_eq!(ch.poll(SimTime::from_millis(1)).len(), 1);
    }

    #[test]
    fn jitter_bounded_and_deterministic() {
        let config = V2xConfig { latency_us: 1_000, jitter_us: 500, loss_prob: 0.0 };
        let arrivals: Vec<Vec<SimTime>> = (0..2)
            .map(|_| {
                let mut ch = V2xChannel::new(config, 7);
                (0..20)
                    .map(|_| ch.broadcast(msg("RSU", SimTime::ZERO), SimTime::ZERO).unwrap())
                    .collect()
            })
            .collect();
        assert_eq!(arrivals[0], arrivals[1], "same seed, same arrivals");
        for a in &arrivals[0] {
            assert!(*a >= SimTime::from_micros(1_000) && *a <= SimTime::from_micros(1_500));
        }
    }

    #[test]
    fn loss_rate_roughly_matches() {
        let config = V2xConfig { latency_us: 0, jitter_us: 0, loss_prob: 0.3 };
        let mut ch = V2xChannel::new(config, 99);
        let mut lost = 0;
        for _ in 0..10_000 {
            if ch.broadcast(msg("RSU", SimTime::ZERO), SimTime::ZERO).is_none() {
                lost += 1;
            }
        }
        assert!((2_700..=3_300).contains(&lost), "lost {lost} of 10000");
    }

    #[test]
    fn jamming_suppresses_sends_and_arrivals() {
        let mut ch = V2xChannel::new(lossless(), 1);
        // In-flight frame arriving inside the later jam window is lost.
        ch.broadcast(msg("RSU", SimTime::ZERO), SimTime::ZERO).unwrap();
        ch.jam(SimTime::from_millis(5));
        // Send attempt during the jam window is lost immediately.
        assert!(ch
            .broadcast(msg("RSU", SimTime::from_millis(2)), SimTime::from_millis(2))
            .is_none());
        assert!(ch.poll(SimTime::from_millis(10)).is_empty());
        assert_eq!(ch.stats().jammed, 2);
        // After the window the channel recovers.
        ch.broadcast(msg("RSU", SimTime::from_millis(6)), SimTime::from_millis(6)).unwrap();
        assert_eq!(ch.poll(SimTime::from_millis(10)).len(), 1);
    }

    #[test]
    fn jam_extension_keeps_latest_deadline() {
        let mut ch = V2xChannel::new(lossless(), 1);
        ch.jam(SimTime::from_millis(10));
        ch.jam(SimTime::from_millis(5));
        assert!(ch.is_jammed(SimTime::from_millis(8)));
        assert!(!ch.is_jammed(SimTime::from_millis(10)));
    }

    #[test]
    fn poll_orders_by_arrival() {
        let config = V2xConfig { latency_us: 1_000, jitter_us: 900, loss_prob: 0.0 };
        let mut ch = V2xChannel::new(config, 3);
        let mut expected: Vec<(SimTime, String)> = (0..10)
            .map(|i| {
                let sender = format!("S{i}");
                let arrival = ch.broadcast(msg(&sender, SimTime::ZERO), SimTime::ZERO).unwrap();
                (arrival, sender)
            })
            .collect();
        assert!(!expected.is_sorted(), "jitter must reorder the sends for the test to bite");
        // Ties keep their send order.
        expected.sort_by_key(|(arrival, _)| *arrival);
        let delivered: Vec<String> =
            ch.poll(SimTime::from_secs(1)).iter().map(|m| m.sender().to_owned()).collect();
        let expected: Vec<String> = expected.into_iter().map(|(_, sender)| sender).collect();
        assert_eq!(delivered, expected);
        assert_eq!(ch.stats().delivered, 10);
    }

    #[test]
    fn obs_counters_track_channel_activity() {
        let (obs, recorder) = Obs::memory();
        let mut ch = V2xChannel::new(lossless(), 1);
        ch.set_obs(obs);
        ch.broadcast(msg("RSU", SimTime::ZERO), SimTime::ZERO).unwrap();
        ch.jam(SimTime::from_millis(5));
        ch.broadcast(msg("RSU", SimTime::from_millis(2)), SimTime::from_millis(2));
        assert!(ch.poll(SimTime::from_millis(10)).is_empty(), "arrival fell in jam window");
        let snapshot = recorder.snapshot();
        assert_eq!(snapshot.counter("net.v2x.sent"), Some(2));
        assert_eq!(snapshot.counter("net.v2x.jammed"), Some(2));
        assert_eq!(snapshot.counter("net.v2x.delivered"), None);

        // A burst's totals equal those of its messages sent one by one:
        // some lost, some jammed at send, some jammed or delivered on
        // arrival.
        let config = V2xConfig { latency_us: 1_000, jitter_us: 900, loss_prob: 0.3 };
        let totals = |burst: bool| {
            let (obs, recorder) = Obs::memory();
            let mut ch = V2xChannel::new(config, 11);
            ch.set_obs(obs);
            for (i, count) in [40u32, 25, 60].into_iter().enumerate() {
                let now = SimTime::from_millis(3 * i as u64);
                if i == 1 {
                    ch.jam(SimTime::from_millis(4));
                }
                if burst {
                    ch.broadcast_unread_burst(count, now);
                } else {
                    for _ in 0..count {
                        ch.broadcast_unread(now);
                    }
                }
                ch.poll(now + Ftti::from_micros(1_500));
            }
            ch.poll(SimTime::from_secs(1));
            let snapshot = recorder.snapshot();
            let counters: Vec<_> = ["sent", "lost", "jammed", "delivered"]
                .map(|name| snapshot.counter(&format!("net.v2x.{name}")))
                .into();
            (counters, ch.stats())
        };
        let (per_message, stats) = totals(false);
        assert_eq!(totals(true), (per_message.clone(), stats));
        assert!(per_message.iter().all(|c| c.is_some_and(|n| n > 0)), "{per_message:?}");
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "loss_prob"))]
    fn out_of_range_loss_prob_is_rejected_at_construction() {
        let config = V2xConfig { latency_us: 0, jitter_us: 0, loss_prob: 1.5 };
        // Debug builds assert at the constructor; release builds clamp to
        // 1.0, so every non-jammed frame is lost instead of panicking
        // inside `rng.random_bool`.
        let mut ch = V2xChannel::new(config, 1);
        assert_eq!(ch.config().loss_prob, 1.0);
        assert_eq!(ch.broadcast(msg("RSU", SimTime::ZERO), SimTime::ZERO), None);
    }

    #[test]
    fn idle_tracks_in_flight_messages() {
        let mut ch = V2xChannel::new(lossless(), 1);
        assert!(ch.is_idle());
        ch.broadcast(msg("RSU", SimTime::ZERO), SimTime::ZERO).unwrap();
        assert!(!ch.is_idle());
        assert!(ch.poll(SimTime::from_micros(999)).is_empty());
        assert!(!ch.is_idle(), "not yet arrived");
        assert_eq!(ch.poll(SimTime::from_millis(1)).len(), 1);
        assert!(ch.is_idle());
        // A frame lost at send never enters the channel …
        ch.jam(SimTime::from_millis(10));
        assert!(ch
            .broadcast(msg("RSU", SimTime::from_millis(2)), SimTime::from_millis(2))
            .is_none());
        assert!(ch.is_idle());
        // … but one in flight when the jam starts stays until polled.
        ch.broadcast(msg("RSU", SimTime::from_millis(20)), SimTime::from_millis(20)).unwrap();
        ch.jam(SimTime::from_millis(30));
        assert!(!ch.is_idle());
        assert!(ch.poll(SimTime::from_millis(21)).is_empty());
        assert!(ch.is_idle());
    }

    #[test]
    fn unread_broadcasts_draw_and_count_like_messages() {
        let config = V2xConfig { latency_us: 1_000, jitter_us: 900, loss_prob: 0.3 };
        let mut read = V2xChannel::new(config, 5);
        let mut unread = V2xChannel::new(config, 5);
        for i in 0..200u64 {
            let now = SimTime::from_micros(i * 100);
            if i == 120 {
                // In-flight arrivals before 13 ms are jammed at the poll.
                read.jam(SimTime::from_millis(13));
                unread.jam(SimTime::from_millis(13));
            }
            assert_eq!(read.broadcast(msg("A", now), now), unread.broadcast_unread(now));
            if i % 7 == 0 {
                read.poll(now);
                assert!(unread.poll(now).is_empty(), "unread arrivals are never handed out");
                assert_eq!(read.stats(), unread.stats());
                assert_eq!(read.is_idle(), unread.is_idle());
            }
        }
        assert!(!unread.is_idle());
        read.poll(SimTime::from_secs(1));
        unread.poll(SimTime::from_secs(1));
        assert!(unread.is_idle());
        assert_eq!(read.stats(), unread.stats());
        let stats = unread.stats();
        assert!(stats.delivered > 0 && stats.lost > 0 && stats.jammed > 0, "{stats:?}");
    }

    #[test]
    fn message_helpers() {
        let m = msg("RSU", SimTime::from_millis(3));
        assert_eq!(m.with_sender("EVIL").sender(), "EVIL");
        assert_eq!(m.with_payload(Bytes::from_static(b"x")).payload().as_ref(), b"x");
        assert_eq!(m.with_generated_at(SimTime::ZERO).generated_at(), SimTime::ZERO);
        assert_eq!(m.msg_type(), 1);
    }
}
