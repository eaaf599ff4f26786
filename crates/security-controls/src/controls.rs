//! The concrete security controls.
//!
//! Each control implements [`SecurityControl`] and maps to an "Expected
//! Measures" entry of the paper's attack descriptions:
//!
//! | Control | Paper reference |
//! |---|---|
//! | [`MacAuthenticator`] | authentication of messages (§IV-A, §V) |
//! | [`FreshnessWindow`] | "timestamps … within the communication" (§IV-B) |
//! | [`ReplayDetector`] | replay attacks (§IV-B) |
//! | [`ChallengeResponse`] | "challenge-responds-patterns" (§IV-B) |
//! | [`FloodDetector`] | Table VI flooding mitigation |
//! | [`IdAllowList`] | Table VII "list of allowed IDs" |
//! | [`PlausibilityCheck`] | plausibility checks (§III-C) |

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};
use std::sync::Arc;

use saseval_types::{Ftti, SimTime};

use crate::envelope::Envelope;
use crate::mac::{MacKey, Tag};
use crate::stack::{RejectReason, SecurityControl};

/// Verifies the envelope's tag with a shared key, binding sender identity,
/// payload and generation time.
#[derive(Debug, Clone, Copy)]
pub struct MacAuthenticator {
    key: MacKey,
}

impl MacAuthenticator {
    /// Creates the authenticator for the given shared key.
    pub fn new(key: MacKey) -> Self {
        MacAuthenticator { key }
    }

    /// Signs an envelope's parts the way this control expects them —
    /// legitimate senders use this helper.
    pub fn sign(key: MacKey, sender: &str, payload: &[u8], generated_at: SimTime) -> Tag {
        key.sign_parts(&[sender.as_bytes(), payload], generated_at)
    }
}

impl SecurityControl for MacAuthenticator {
    fn name(&self) -> &str {
        "mac-authenticator"
    }

    fn check(&mut self, envelope: &Envelope, _now: SimTime) -> Result<(), RejectReason> {
        let tag = envelope.tag().ok_or(RejectReason::BadMac)?;
        let valid = self.key.verify_parts(
            &[envelope.sender().as_bytes(), envelope.payload()],
            envelope.generated_at(),
            tag,
        );
        if valid {
            Ok(())
        } else {
            Err(RejectReason::BadMac)
        }
    }

    fn box_clone(&self) -> Box<dyn SecurityControl> {
        Box::new(*self)
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Rejects messages whose generation timestamp lies outside
/// `[now - window, now + skew]`.
#[derive(Debug, Clone, Copy)]
pub struct FreshnessWindow {
    window: Ftti,
    max_skew: Ftti,
}

impl FreshnessWindow {
    /// Creates a window with a default forward clock-skew allowance of
    /// 10 ms.
    pub fn new(window: Ftti) -> Self {
        FreshnessWindow { window, max_skew: Ftti::from_millis(10) }
    }

    /// Overrides the forward skew allowance.
    pub fn with_max_skew(mut self, max_skew: Ftti) -> Self {
        self.max_skew = max_skew;
        self
    }
}

impl SecurityControl for FreshnessWindow {
    fn name(&self) -> &str {
        "freshness-window"
    }

    fn check(&mut self, envelope: &Envelope, now: SimTime) -> Result<(), RejectReason> {
        let age = now.saturating_since(envelope.generated_at());
        if age > self.window {
            return Err(RejectReason::Stale);
        }
        let skew = envelope.generated_at().saturating_since(now);
        if skew > self.max_skew {
            return Err(RejectReason::Stale);
        }
        Ok(())
    }

    fn box_clone(&self) -> Box<dyn SecurityControl> {
        Box::new(*self)
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Rejects exact re-deliveries: remembers `(sender, generated_at,
/// payload-digest)` triples in a bounded FIFO cache.
#[derive(Debug, Clone)]
pub struct ReplayDetector {
    seen: HashSet<(Arc<str>, u64, u64)>,
    order: VecDeque<(Arc<str>, u64, u64)>,
    capacity: usize,
}

impl ReplayDetector {
    /// Creates a detector remembering up to `capacity` messages.
    pub fn new(capacity: usize) -> Self {
        ReplayDetector { seen: HashSet::new(), order: VecDeque::new(), capacity: capacity.max(1) }
    }

    fn key(envelope: &Envelope) -> (Arc<str>, u64, u64) {
        // A keyless digest is fine here: the detector compares equality,
        // not authenticity.
        let digest = MacKey::new(0).sign(envelope.payload()).raw();
        (Arc::clone(envelope.shared_sender()), envelope.generated_at().as_micros(), digest)
    }
}

impl SecurityControl for ReplayDetector {
    fn name(&self) -> &str {
        "replay-detector"
    }

    fn check(&mut self, envelope: &Envelope, _now: SimTime) -> Result<(), RejectReason> {
        let key = Self::key(envelope);
        if self.seen.contains(&key) {
            return Err(RejectReason::Replayed);
        }
        if self.order.len() == self.capacity {
            if let Some(old) = self.order.pop_front() {
                self.seen.remove(&old);
            }
        }
        self.seen.insert(key.clone());
        self.order.push_back(key);
        Ok(())
    }

    fn box_clone(&self) -> Box<dyn SecurityControl> {
        Box::new(self.clone())
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Challenge–response verification (§IV-B): the verifier issues a nonce
/// per sender; a valid message carries `mac(key, nonce ‖ payload)`. Each
/// nonce admits exactly one message, defeating replay even with valid
/// end-to-end encryption.
#[derive(Debug, Clone)]
pub struct ChallengeResponse {
    key: MacKey,
    outstanding: BTreeMap<String, u64>,
    next_nonce: u64,
}

impl ChallengeResponse {
    /// Creates the verifier with the shared key.
    pub fn new(key: MacKey) -> Self {
        ChallengeResponse { key, outstanding: BTreeMap::new(), next_nonce: 1 }
    }

    /// Issues a fresh challenge nonce for `sender` (replacing any
    /// outstanding one).
    pub fn issue(&mut self, sender: &str) -> u64 {
        let nonce = self.next_nonce;
        self.next_nonce += 1;
        self.outstanding.insert(sender.to_owned(), nonce);
        nonce
    }

    /// Computes the response a legitimate sender returns for a challenge.
    pub fn respond(key: MacKey, nonce: u64, payload: &[u8]) -> Tag {
        key.sign_parts(&[&nonce.to_le_bytes(), payload], SimTime::ZERO)
    }
}

impl SecurityControl for ChallengeResponse {
    fn name(&self) -> &str {
        "challenge-response"
    }

    fn check(&mut self, envelope: &Envelope, _now: SimTime) -> Result<(), RejectReason> {
        let response = envelope.challenge_response().ok_or(RejectReason::BadChallengeResponse)?;
        let nonce = self
            .outstanding
            .get(envelope.sender())
            .copied()
            .ok_or(RejectReason::BadChallengeResponse)?;
        let expected = Self::respond(self.key, nonce, envelope.payload());
        if expected == response {
            // Single use: the nonce is consumed.
            self.outstanding.remove(envelope.sender());
            Ok(())
        } else {
            Err(RejectReason::BadChallengeResponse)
        }
    }

    fn box_clone(&self) -> Box<dyn SecurityControl> {
        Box::new(self.clone())
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Sliding-window per-sender rate limiter (the flooding mitigation of
/// Table VI).
#[derive(Debug, Clone)]
pub struct FloodDetector {
    max_per_window: usize,
    window: Ftti,
    /// Per-sender arrival times, keyed by the envelope's shared sender
    /// so a known sender is looked up without allocating.
    history: BTreeMap<Arc<str>, VecDeque<SimTime>>,
}

impl FloodDetector {
    /// Allows at most `max_per_window` messages per sender within any
    /// trailing `window`.
    pub fn new(max_per_window: usize, window: Ftti) -> Self {
        FloodDetector { max_per_window: max_per_window.max(1), window, history: BTreeMap::new() }
    }

    /// Admits up to `count` messages from `sender` arriving together at
    /// `now`, as `count` calls of [`SecurityControl::check`] would:
    /// prunes the window once and admits `min(count, budget left)`.
    /// Returns the number admitted; the rest are rejected as flooding.
    pub fn admit(&mut self, sender: &Arc<str>, now: SimTime, count: usize) -> usize {
        let history = match self.history.get_mut(&**sender) {
            Some(history) => history,
            None => self.history.entry(Arc::clone(sender)).or_default(),
        };
        while let Some(&front) = history.front() {
            if now.saturating_since(front) > self.window {
                history.pop_front();
            } else {
                break;
            }
        }
        let admitted = self.max_per_window.saturating_sub(history.len()).min(count);
        for _ in 0..admitted {
            history.push_back(now);
        }
        admitted
    }
}

impl SecurityControl for FloodDetector {
    fn name(&self) -> &str {
        "flood-detector"
    }

    fn check(&mut self, envelope: &Envelope, now: SimTime) -> Result<(), RejectReason> {
        match self.admit(envelope.shared_sender(), now, 1) {
            0 => Err(RejectReason::Flooding),
            _ => Ok(()),
        }
    }

    fn box_clone(&self) -> Box<dyn SecurityControl> {
        Box::new(self.clone())
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The Table VII control: "Check received vehicles electronic ID with
/// list of allowed IDs". Configuration writes require authentication —
/// attack AD24 (tampering with the allow-list) exercises exactly that.
#[derive(Debug, Clone)]
pub struct IdAllowList {
    allowed: BTreeSet<u64>,
    config_key: MacKey,
}

impl IdAllowList {
    /// Creates the allow-list with its configuration-write key.
    pub fn new(allowed: impl IntoIterator<Item = u64>, config_key: MacKey) -> Self {
        IdAllowList { allowed: allowed.into_iter().collect(), config_key }
    }

    /// Attempts a configuration write adding `id`, authenticated by a tag
    /// over the new ID. Returns whether the write was accepted.
    pub fn try_add(&mut self, id: u64, auth: Tag) -> bool {
        if self.config_key.verify(&id.to_le_bytes(), auth) {
            self.allowed.insert(id);
            true
        } else {
            false
        }
    }

    /// Computes the write-authorization tag for `id` — held by legitimate
    /// configuration tooling.
    pub fn write_auth(key: MacKey, id: u64) -> Tag {
        key.sign(&id.to_le_bytes())
    }

    /// Whether `id` is currently allowed.
    pub fn contains(&self, id: u64) -> bool {
        self.allowed.contains(&id)
    }

    /// Number of allowed IDs.
    pub fn len(&self) -> usize {
        self.allowed.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.allowed.is_empty()
    }
}

impl SecurityControl for IdAllowList {
    fn name(&self) -> &str {
        "id-allow-list"
    }

    fn check(&mut self, envelope: &Envelope, _now: SimTime) -> Result<(), RejectReason> {
        match envelope.claimed_id() {
            Some(id) if self.allowed.contains(&id) => Ok(()),
            _ => Err(RejectReason::NotAllowed),
        }
    }

    fn box_clone(&self) -> Box<dyn SecurityControl> {
        Box::new(self.clone())
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A content plausibility check (§III-C: "a safety measure could determine
/// that plausibility checks fail"), parameterized with a domain predicate.
/// The predicate type a [`PlausibilityCheck`] evaluates. A stateless
/// `Fn` behind an `Arc` keeps the check `Clone` (forked worlds share
/// the immutable predicate, never mutable state) and `Send + Sync`.
type PlausibilityPredicate = Arc<dyn Fn(&Envelope, SimTime) -> Result<(), String> + Send + Sync>;

/// A content plausibility check (§III-C: "a safety measure could determine
/// that plausibility checks fail"), parameterized with a domain predicate.
#[derive(Clone)]
pub struct PlausibilityCheck {
    name: String,
    predicate: PlausibilityPredicate,
}

impl std::fmt::Debug for PlausibilityCheck {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlausibilityCheck").field("name", &self.name).finish()
    }
}

impl PlausibilityCheck {
    /// Creates a named check from a predicate returning `Err(reason)` for
    /// implausible content.
    pub fn new(
        name: impl Into<String>,
        predicate: impl Fn(&Envelope, SimTime) -> Result<(), String> + Send + Sync + 'static,
    ) -> Self {
        PlausibilityCheck { name: name.into(), predicate: Arc::new(predicate) }
    }

    /// A ready-made check for speed-limit payloads: the first payload byte
    /// is the limit in km/h and must lie within `[min, max]`.
    pub fn speed_limit_range(min: u8, max: u8) -> Self {
        PlausibilityCheck::new("speed-limit-plausibility", move |env, _| {
            match env.payload().first() {
                Some(&limit) if (min..=max).contains(&limit) => Ok(()),
                Some(&limit) => Err(format!("speed limit {limit} outside [{min}, {max}]")),
                None => Err("empty speed-limit payload".to_owned()),
            }
        })
    }
}

impl SecurityControl for PlausibilityCheck {
    fn name(&self) -> &str {
        &self.name
    }

    fn check(&mut self, envelope: &Envelope, now: SimTime) -> Result<(), RejectReason> {
        (self.predicate)(envelope, now).map_err(RejectReason::Implausible)
    }

    fn box_clone(&self) -> Box<dyn SecurityControl> {
        Box::new(self.clone())
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signed(key: MacKey, sender: &str, payload: &[u8], t: SimTime) -> Envelope {
        Envelope::new(sender, t, payload.to_vec())
            .with_tag(MacAuthenticator::sign(key, sender, payload, t))
    }

    #[test]
    fn mac_accepts_valid_rejects_forged() {
        let key = MacKey::new(1);
        let mut mac = MacAuthenticator::new(key);
        let good = signed(key, "RSU", b"warn", SimTime::ZERO);
        assert!(mac.check(&good, SimTime::ZERO).is_ok());
        // Missing tag.
        let untagged = Envelope::new("RSU", SimTime::ZERO, b"warn".to_vec());
        assert_eq!(mac.check(&untagged, SimTime::ZERO), Err(RejectReason::BadMac));
        // Spoofed sender with a tag copied from the genuine message.
        let spoofed = Envelope::new("EVIL", SimTime::ZERO, b"warn".to_vec())
            .with_tag(MacAuthenticator::sign(key, "RSU", b"warn", SimTime::ZERO));
        assert_eq!(mac.check(&spoofed, SimTime::ZERO), Err(RejectReason::BadMac));
        // Wrong key.
        let wrong = signed(MacKey::new(2), "RSU", b"warn", SimTime::ZERO);
        assert_eq!(mac.check(&wrong, SimTime::ZERO), Err(RejectReason::BadMac));
    }

    #[test]
    fn freshness_window_bounds() {
        let mut fw = FreshnessWindow::new(Ftti::from_millis(100));
        let env = |t| Envelope::new("s", t, vec![]);
        // Inside the window.
        assert!(fw.check(&env(SimTime::ZERO), SimTime::from_millis(100)).is_ok());
        // Too old.
        assert_eq!(
            fw.check(&env(SimTime::ZERO), SimTime::from_millis(101)),
            Err(RejectReason::Stale)
        );
        // Slightly from the future (allowed skew 10 ms).
        assert!(fw.check(&env(SimTime::from_millis(10)), SimTime::ZERO).is_ok());
        assert_eq!(
            fw.check(&env(SimTime::from_millis(11)), SimTime::ZERO),
            Err(RejectReason::Stale)
        );
    }

    #[test]
    fn replay_detector_catches_duplicates() {
        let mut rd = ReplayDetector::new(16);
        let env = Envelope::new("s", SimTime::ZERO, b"OPEN".to_vec());
        assert!(rd.check(&env, SimTime::ZERO).is_ok());
        assert_eq!(rd.check(&env, SimTime::from_millis(5)), Err(RejectReason::Replayed));
        // A different timestamp is a different message.
        let fresh = Envelope::new("s", SimTime::from_millis(1), b"OPEN".to_vec());
        assert!(rd.check(&fresh, SimTime::from_millis(5)).is_ok());
    }

    #[test]
    fn replay_detector_cache_eviction() {
        let mut rd = ReplayDetector::new(2);
        let env = |i: u64| Envelope::new("s", SimTime::from_micros(i), vec![]);
        assert!(rd.check(&env(1), SimTime::ZERO).is_ok());
        assert!(rd.check(&env(2), SimTime::ZERO).is_ok());
        assert!(rd.check(&env(3), SimTime::ZERO).is_ok()); // evicts 1
        assert!(rd.check(&env(1), SimTime::ZERO).is_ok(), "evicted entry forgotten");
        assert_eq!(rd.check(&env(3), SimTime::ZERO), Err(RejectReason::Replayed));
    }

    #[test]
    fn challenge_response_single_use() {
        let key = MacKey::new(5);
        let mut cr = ChallengeResponse::new(key);
        let nonce = cr.issue("phone");
        let env = Envelope::new("phone", SimTime::ZERO, b"OPEN".to_vec())
            .with_challenge_response(ChallengeResponse::respond(key, nonce, b"OPEN"));
        assert!(cr.check(&env, SimTime::ZERO).is_ok());
        // Replaying the same (valid) response fails: nonce consumed.
        assert_eq!(cr.check(&env, SimTime::ZERO), Err(RejectReason::BadChallengeResponse));
    }

    #[test]
    fn challenge_response_rejects_wrong_nonce_or_missing() {
        let key = MacKey::new(5);
        let mut cr = ChallengeResponse::new(key);
        cr.issue("phone");
        let missing = Envelope::new("phone", SimTime::ZERO, b"OPEN".to_vec());
        assert_eq!(cr.check(&missing, SimTime::ZERO), Err(RejectReason::BadChallengeResponse));
        let wrong = Envelope::new("phone", SimTime::ZERO, b"OPEN".to_vec())
            .with_challenge_response(ChallengeResponse::respond(key, 9999, b"OPEN"));
        assert_eq!(cr.check(&wrong, SimTime::ZERO), Err(RejectReason::BadChallengeResponse));
    }

    #[test]
    fn flood_detector_sliding_window() {
        let mut fd = FloodDetector::new(3, Ftti::from_millis(100));
        let env = Envelope::new("s", SimTime::ZERO, vec![]);
        for i in 0..3 {
            assert!(fd.check(&env, SimTime::from_millis(i)).is_ok());
        }
        assert_eq!(fd.check(&env, SimTime::from_millis(3)), Err(RejectReason::Flooding));
        // After the window slides, capacity is available again.
        assert!(fd.check(&env, SimTime::from_millis(150)).is_ok());
    }

    #[test]
    fn flood_detector_is_per_sender() {
        let mut fd = FloodDetector::new(1, Ftti::from_millis(100));
        let a = Envelope::new("a", SimTime::ZERO, vec![]);
        let b = Envelope::new("b", SimTime::ZERO, vec![]);
        assert!(fd.check(&a, SimTime::ZERO).is_ok());
        assert!(fd.check(&b, SimTime::ZERO).is_ok());
        assert_eq!(fd.check(&a, SimTime::ZERO), Err(RejectReason::Flooding));
    }

    #[test]
    fn flood_detector_admits_a_burst_as_single_checks() {
        let sender: Arc<str> = Arc::from("s");
        let env = Envelope::new(Arc::clone(&sender), SimTime::ZERO, vec![]);
        let mut burst = FloodDetector::new(5, Ftti::from_millis(100));
        let mut single = burst.clone();
        for (at_ms, count) in [(0, 3), (10, 4), (50, 2), (120, 7), (300, 0), (301, 9)] {
            let now = SimTime::from_millis(at_ms);
            let admitted = (0..count).filter(|_| single.check(&env, now).is_ok()).count();
            assert_eq!(burst.admit(&sender, now, count), admitted, "at {at_ms} ms");
        }
    }

    #[test]
    fn allow_list_checks_claimed_id() {
        let config_key = MacKey::new(9);
        let mut al = IdAllowList::new([0x1111, 0x2222], config_key);
        let allowed = Envelope::new("phone", SimTime::ZERO, vec![]).with_claimed_id(0x1111);
        assert!(al.check(&allowed, SimTime::ZERO).is_ok());
        let unknown = Envelope::new("phone", SimTime::ZERO, vec![]).with_claimed_id(0x3333);
        assert_eq!(al.check(&unknown, SimTime::ZERO), Err(RejectReason::NotAllowed));
        let missing = Envelope::new("phone", SimTime::ZERO, vec![]);
        assert_eq!(al.check(&missing, SimTime::ZERO), Err(RejectReason::NotAllowed));
    }

    #[test]
    fn allow_list_config_writes_require_auth() {
        let config_key = MacKey::new(9);
        let mut al = IdAllowList::new([1], config_key);
        // AD24: unauthenticated tamper attempt fails.
        assert!(!al.try_add(0xEE01, Tag::from_raw(0xDEAD)));
        assert!(!al.contains(0xEE01));
        // Legitimate write succeeds.
        let auth = IdAllowList::write_auth(config_key, 0xEE01);
        assert!(al.try_add(0xEE01, auth));
        assert!(al.contains(0xEE01));
        assert_eq!(al.len(), 2);
    }

    #[test]
    fn speed_limit_plausibility() {
        let mut pc = PlausibilityCheck::speed_limit_range(5, 130);
        let ok = Envelope::new("RSU", SimTime::ZERO, vec![80]);
        assert!(pc.check(&ok, SimTime::ZERO).is_ok());
        let too_high = Envelope::new("RSU", SimTime::ZERO, vec![200]);
        assert!(matches!(pc.check(&too_high, SimTime::ZERO), Err(RejectReason::Implausible(_))));
        let empty = Envelope::new("RSU", SimTime::ZERO, vec![]);
        assert!(pc.check(&empty, SimTime::ZERO).is_err());
    }
}
