//! The [`SecurityControl`] trait and the composing [`ControlStack`].

use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use saseval_types::SimTime;

use crate::envelope::Envelope;
use crate::log::SecurityLog;

/// Why a control rejected a message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RejectReason {
    /// Authentication tag missing or wrong.
    BadMac,
    /// Message older than the freshness window (or from the future).
    Stale,
    /// Message already seen (replay).
    Replayed,
    /// Sender exceeded the admissible message rate.
    Flooding,
    /// Sender previously isolated as unwanted.
    SenderIsolated,
    /// Claimed electronic ID not on the allow-list.
    NotAllowed,
    /// Challenge response missing or wrong.
    BadChallengeResponse,
    /// Content failed a plausibility check.
    Implausible(String),
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::BadMac => write!(f, "authentication tag missing or invalid"),
            RejectReason::Stale => write!(f, "message outside the freshness window"),
            RejectReason::Replayed => write!(f, "message replayed"),
            RejectReason::Flooding => write!(f, "sender rate limit exceeded"),
            RejectReason::SenderIsolated => write!(f, "sender isolated as unwanted"),
            RejectReason::NotAllowed => write!(f, "electronic ID not on the allow-list"),
            RejectReason::BadChallengeResponse => {
                write!(f, "challenge response missing or invalid")
            }
            RejectReason::Implausible(why) => write!(f, "implausible content: {why}"),
        }
    }
}

/// Admission decision for one message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// The message passed every control.
    Accepted,
    /// A control rejected the message.
    Rejected(RejectReason),
}

impl Verdict {
    /// Whether the message was accepted.
    pub fn is_accepted(&self) -> bool {
        matches!(self, Verdict::Accepted)
    }
}

/// One security control in an admission stack.
///
/// Controls are stateful (replay caches, rate windows) and are consulted
/// in stack order; the first rejection wins. Controls must be cloneable
/// (via [`SecurityControl::box_clone`]) and `Send + Sync` so that worlds
/// holding a stack can be frozen behind shared copy-on-write snapshots
/// and moved across fuzzing shards.
pub trait SecurityControl: Send + Sync {
    /// Stable control name, used in the security log.
    fn name(&self) -> &str;

    /// Checks one envelope at virtual time `now`.
    ///
    /// # Errors
    ///
    /// Returns the [`RejectReason`] when the control rejects the message.
    fn check(&mut self, envelope: &Envelope, now: SimTime) -> Result<(), RejectReason>;

    /// Deep-copies the control, state included. Snapshot forking clones
    /// the whole stack; a control sharing mutable state with its clone
    /// would leak information between forked worlds and break replay
    /// determinism.
    fn box_clone(&self) -> Box<dyn SecurityControl>;

    /// Overwrites `target` with a deep copy of this control. A control
    /// whose `target` is of its own type copies its state into it with
    /// `Clone::clone_from`, reusing `target`'s buffers; the default
    /// replaces `target` with [`SecurityControl::box_clone`]. Resetting
    /// a scratch world from its snapshot goes through this.
    fn clone_into_box(&self, target: &mut Box<dyn SecurityControl>) {
        *target = self.box_clone();
    }

    /// The control as [`Any`], for typed access to a control inside a
    /// stack via [`ControlStack::control_mut`].
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl Clone for Box<dyn SecurityControl> {
    fn clone(&self) -> Self {
        self.box_clone()
    }

    fn clone_from(&mut self, source: &Self) {
        source.clone_into_box(self);
    }
}

/// [`SecurityControl::clone_into_box`] for a `Clone` control: copies
/// `source` into `target` in place when `target` is a `T`.
pub(crate) fn clone_control_into<T: SecurityControl + Clone + 'static>(
    source: &T,
    target: &mut Box<dyn SecurityControl>,
) {
    match target.as_any_mut().downcast_mut::<T>() {
        Some(target) => target.clone_from(source),
        None => *target = source.box_clone(),
    }
}

/// Makes `target` hold `source`'s entries, for maps in which an absent
/// key behaves exactly like a key whose value `reset` has emptied. Keys
/// only `target` holds are reset in place instead of removed, so their
/// nodes and value buffers serve the next insert of the same key.
pub(crate) fn clone_map_from<K: Ord + Clone, V: Clone>(
    target: &mut BTreeMap<K, V>,
    source: &BTreeMap<K, V>,
    reset: impl Fn(&mut V),
) {
    for (key, value) in target.iter_mut() {
        match source.get(key) {
            Some(from) => value.clone_from(from),
            None => reset(value),
        }
    }
    for (key, value) in source {
        if !target.contains_key(key) {
            target.insert(key.clone(), value.clone());
        }
    }
}

/// Default broken-message threshold after which a sender is isolated.
pub const DEFAULT_ISOLATION_THRESHOLD: u32 = 10;

/// An ordered stack of security controls plus the Table VI
/// *broken-message counter*: each rejection increments the sending
/// identity's counter; at the isolation threshold the sender is declared
/// unwanted and every further message from it is rejected outright
/// ("Security control identifies unwanted sender").
pub struct ControlStack {
    owner: String,
    controls: Vec<Box<dyn SecurityControl>>,
    /// Keyed by the envelope's shared sender: recording a known sender
    /// allocates nothing, a new one clones a pointer.
    broken_counter: BTreeMap<Arc<str>, u32>,
    isolated: BTreeMap<Arc<str>, SimTime>,
    isolation_threshold: u32,
    log: SecurityLog,
    accepted: u64,
    rejected: u64,
}

impl Clone for ControlStack {
    fn clone(&self) -> Self {
        ControlStack {
            owner: self.owner.clone(),
            controls: self.controls.clone(),
            broken_counter: self.broken_counter.clone(),
            isolated: self.isolated.clone(),
            isolation_threshold: self.isolation_threshold,
            log: self.log.clone(),
            accepted: self.accepted,
            rejected: self.rejected,
        }
    }

    /// Copies `source` into this stack, reusing its buffers: each control
    /// takes `source`'s state in place, and a sender counted here but not
    /// in `source` keeps its counter entry at zero, which counts exactly
    /// as an absent one.
    fn clone_from(&mut self, source: &Self) {
        let ControlStack {
            owner,
            controls,
            broken_counter,
            isolated,
            isolation_threshold,
            log,
            accepted,
            rejected,
        } = self;
        owner.clone_from(&source.owner);
        controls.clone_from(&source.controls);
        clone_map_from(broken_counter, &source.broken_counter, |count| *count = 0);
        if *isolated != source.isolated {
            isolated.clone_from(&source.isolated);
        }
        *isolation_threshold = source.isolation_threshold;
        log.clone_from(&source.log);
        *accepted = source.accepted;
        *rejected = source.rejected;
    }
}

impl fmt::Debug for ControlStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ControlStack")
            .field("owner", &self.owner)
            .field("controls", &self.controls.len())
            .field("isolated", &self.isolated.len())
            .field("accepted", &self.accepted)
            .field("rejected", &self.rejected)
            .finish()
    }
}

impl ControlStack {
    /// Creates an empty stack owned by the named component (e.g. `"OBU"`).
    pub fn new(owner: impl Into<String>) -> Self {
        ControlStack {
            owner: owner.into(),
            controls: Vec::new(),
            broken_counter: BTreeMap::new(),
            isolated: BTreeMap::new(),
            isolation_threshold: DEFAULT_ISOLATION_THRESHOLD,
            log: SecurityLog::new(),
            accepted: 0,
            rejected: 0,
        }
    }

    /// Appends a control (consulted after the ones already pushed).
    pub fn push(&mut self, control: impl SecurityControl + 'static) -> &mut Self {
        self.controls.push(Box::new(control));
        self
    }

    /// Overrides the broken-message isolation threshold.
    pub fn set_isolation_threshold(&mut self, threshold: u32) {
        self.isolation_threshold = threshold.max(1);
    }

    /// Runs the stack over one envelope.
    pub fn admit(&mut self, envelope: &Envelope, now: SimTime) -> Verdict {
        if self.isolated.contains_key(envelope.sender()) {
            self.rejected += 1;
            self.log.record(
                now,
                "broken-message-counter",
                envelope.sender(),
                "message from isolated sender dropped",
            );
            return Verdict::Rejected(RejectReason::SenderIsolated);
        }
        for control in &mut self.controls {
            if let Err(reason) = control.check(envelope, now) {
                self.rejected += 1;
                self.log.record(now, control.name(), envelope.sender(), reason.to_string());
                let counter = match self.broken_counter.get_mut(envelope.sender()) {
                    Some(counter) => counter,
                    None => {
                        self.broken_counter.entry(Arc::clone(envelope.shared_sender())).or_insert(0)
                    }
                };
                *counter += 1;
                if *counter >= self.isolation_threshold {
                    self.isolated.insert(Arc::clone(envelope.shared_sender()), now);
                    self.log.record(
                        now,
                        "broken-message-counter",
                        envelope.sender(),
                        format!(
                            "unwanted sender identified after {counter} broken messages; isolated"
                        ),
                    );
                }
                return Verdict::Rejected(reason);
            }
        }
        self.accepted += 1;
        Verdict::Accepted
    }

    /// Whether the stack has isolated `sender` as unwanted.
    pub fn is_isolated(&self, sender: &str) -> bool {
        self.isolated.contains_key(sender)
    }

    /// The owner component's name.
    pub fn owner(&self) -> &str {
        &self.owner
    }

    /// The security log (detection evidence).
    pub fn log(&self) -> &SecurityLog {
        &self.log
    }

    /// (accepted, rejected) message counts.
    pub fn counts(&self) -> (u64, u64) {
        (self.accepted, self.rejected)
    }

    /// Names of the installed controls, in consultation order.
    pub fn control_names(&self) -> Vec<&str> {
        self.controls.iter().map(|c| c.name()).collect()
    }

    /// Typed mutable access to the installed control named `name`.
    ///
    /// Returns `None` when no control has that name or the named control
    /// is not a `T`. Worlds use this to reach stateful controls (issue a
    /// challenge nonce, extend an allow-list) without holding aliasing
    /// handles outside the stack — which would break deep cloning.
    pub fn control_mut<T: 'static>(&mut self, name: &str) -> Option<&mut T> {
        self.controls
            .iter_mut()
            .find(|c| c.name() == name)
            .and_then(|c| c.as_any_mut().downcast_mut::<T>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A control that rejects payloads starting with `0xFF`, counting how
    /// many it has seen (state, so cloning semantics are observable).
    #[derive(Clone)]
    struct RejectFf {
        seen: u32,
    }

    impl RejectFf {
        fn new() -> Self {
            RejectFf { seen: 0 }
        }
    }

    impl SecurityControl for RejectFf {
        fn name(&self) -> &str {
            "reject-ff"
        }

        fn check(&mut self, envelope: &Envelope, _now: SimTime) -> Result<(), RejectReason> {
            self.seen += 1;
            if envelope.payload().first() == Some(&0xFF) {
                Err(RejectReason::Implausible("leading 0xFF".into()))
            } else {
                Ok(())
            }
        }

        fn box_clone(&self) -> Box<dyn SecurityControl> {
            Box::new(self.clone())
        }

        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    fn env(sender: &str, payload: &[u8]) -> Envelope {
        Envelope::new(sender, SimTime::ZERO, payload.to_vec())
    }

    #[test]
    fn empty_stack_accepts_everything() {
        let mut stack = ControlStack::new("OBU");
        assert!(stack.admit(&env("x", b"y"), SimTime::ZERO).is_accepted());
        assert_eq!(stack.counts(), (1, 0));
    }

    #[test]
    fn rejection_logged_and_counted() {
        let mut stack = ControlStack::new("OBU");
        stack.push(RejectFf::new());
        let verdict = stack.admit(&env("evil", &[0xFF, 1]), SimTime::from_millis(3));
        assert!(!verdict.is_accepted());
        assert_eq!(stack.counts(), (0, 1));
        assert_eq!(stack.log().len(), 1);
        assert_eq!(stack.log().events()[0].control, "reject-ff");
        assert_eq!(stack.log().events()[0].at, SimTime::from_millis(3));
    }

    #[test]
    fn broken_message_counter_isolates_unwanted_sender() {
        // Table VI: "Security control identifies unwanted sender".
        let mut stack = ControlStack::new("OBU");
        stack.push(RejectFf::new());
        stack.set_isolation_threshold(5);
        for _ in 0..5 {
            stack.admit(&env("attacker", &[0xFF]), SimTime::ZERO);
        }
        assert!(stack.is_isolated("attacker"));
        // Even a well-formed message from the isolated sender is dropped.
        let verdict = stack.admit(&env("attacker", b"ok"), SimTime::ZERO);
        assert_eq!(verdict, Verdict::Rejected(RejectReason::SenderIsolated));
        // Other senders are unaffected.
        assert!(stack.admit(&env("RSU-1", b"ok"), SimTime::ZERO).is_accepted());
        assert!(stack.log().any(|e| e.detail.contains("unwanted sender")));
    }

    #[test]
    fn threshold_floor_is_one() {
        let mut stack = ControlStack::new("OBU");
        stack.push(RejectFf::new());
        stack.set_isolation_threshold(0);
        stack.admit(&env("a", &[0xFF]), SimTime::ZERO);
        assert!(stack.is_isolated("a"));
    }

    #[test]
    fn control_names_in_order() {
        let mut stack = ControlStack::new("GW");
        stack.push(RejectFf::new());
        assert_eq!(stack.control_names(), ["reject-ff"]);
        assert_eq!(stack.owner(), "GW");
    }

    #[test]
    fn control_mut_downcasts_by_name() {
        let mut stack = ControlStack::new("GW");
        stack.push(RejectFf::new());
        stack.admit(&env("a", b"ok"), SimTime::ZERO);
        let control = stack.control_mut::<RejectFf>("reject-ff").expect("installed");
        assert_eq!(control.seen, 1);
        assert!(stack.control_mut::<RejectFf>("absent").is_none());
        // Right name, wrong type: the downcast must fail, not panic.
        assert!(stack.control_mut::<u32>("reject-ff").is_none());
    }

    #[test]
    fn clone_deep_copies_control_state() {
        let mut stack = ControlStack::new("GW");
        stack.push(RejectFf::new());
        stack.admit(&env("a", &[0xFF]), SimTime::ZERO);
        let mut fork = stack.clone();
        assert_eq!(fork.counts(), stack.counts());
        // Diverge the fork; the original's control state must not move.
        fork.admit(&env("a", b"ok"), SimTime::ZERO);
        assert_eq!(fork.control_mut::<RejectFf>("reject-ff").unwrap().seen, 2);
        assert_eq!(stack.control_mut::<RejectFf>("reject-ff").unwrap().seen, 1);
        assert_eq!(stack.counts(), (0, 1));
        assert_eq!(fork.counts(), (1, 1));
    }

    #[test]
    fn reject_reason_display() {
        assert_eq!(RejectReason::Replayed.to_string(), "message replayed");
        assert!(RejectReason::Implausible("x".into()).to_string().contains("x"));
    }
}
