//! The intrusion-detection log.
//!
//! Attack descriptions require a detectable fail case (paper §III-C: the
//! SUT "may create dedicated log files" when an attack is detected). The
//! [`SecurityLog`] is that evidence trail: every control decision that
//! rejects a message, and every sender isolation, is recorded with its
//! virtual timestamp. The attack executor evaluates "Attack Fails"
//! criteria against it.

use std::borrow::Cow;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use saseval_types::SimTime;

/// One recorded security event. The control and sender names are shared
/// with the stack and the envelope, and a fixed detail text is borrowed,
/// so recording a rejection allocates nothing beyond the log's own
/// buffer; all three serialize as plain strings.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SecurityEvent {
    /// Virtual time of the event.
    pub at: SimTime,
    /// The control that raised the event.
    pub control: Arc<str>,
    /// The sender the event concerns.
    pub sender: Arc<str>,
    /// Event detail (reject reason, isolation notice, …).
    pub detail: Cow<'static, str>,
}

/// An append-only security event log.
#[derive(Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SecurityLog {
    events: Vec<SecurityEvent>,
}

impl Clone for SecurityLog {
    fn clone(&self) -> Self {
        SecurityLog { events: self.events.clone() }
    }

    /// Copies `source`'s events into this log's buffer.
    fn clone_from(&mut self, source: &Self) {
        let SecurityLog { events } = self;
        events.clone_from(&source.events);
    }
}

impl SecurityLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event. Passing shared names and a `&'static str`
    /// detail makes the entry allocation-free.
    pub fn record(
        &mut self,
        at: SimTime,
        control: impl Into<Arc<str>>,
        sender: impl Into<Arc<str>>,
        detail: impl Into<Cow<'static, str>>,
    ) {
        self.events.push(SecurityEvent {
            at,
            control: control.into(),
            sender: sender.into(),
            detail: detail.into(),
        });
    }

    /// All events in record order.
    pub fn events(&self) -> &[SecurityEvent] {
        &self.events
    }

    /// Events raised by the named control.
    pub fn by_control<'a>(&'a self, control: &'a str) -> impl Iterator<Item = &'a SecurityEvent> {
        self.events.iter().filter(move |e| *e.control == *control)
    }

    /// Events concerning the named sender.
    pub fn by_sender<'a>(&'a self, sender: &'a str) -> impl Iterator<Item = &'a SecurityEvent> {
        self.events.iter().filter(move |e| *e.sender == *sender)
    }

    /// Whether any event matches the predicate — the hook the attack
    /// executor uses to evaluate "Attack Fails" detection criteria.
    pub fn any(&self, predicate: impl Fn(&SecurityEvent) -> bool) -> bool {
        self.events.iter().any(predicate)
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut log = SecurityLog::new();
        assert!(log.is_empty());
        log.record(SimTime::from_millis(1), "flood-detector", "attacker", "rate exceeded");
        log.record(SimTime::from_millis(2), "mac", "attacker", "bad tag");
        log.record(SimTime::from_millis(3), "mac", "RSU-1", "bad tag");
        assert_eq!(log.len(), 3);
        assert_eq!(log.by_control("mac").count(), 2);
        assert_eq!(log.by_sender("attacker").count(), 2);
        assert!(log.any(|e| e.detail.contains("rate")));
        assert!(!log.any(|e| &*e.control == "allow-list"));
    }

    #[test]
    fn events_serialize_as_plain_strings() {
        let mut log = SecurityLog::new();
        log.record(SimTime::from_millis(1), "mac", Arc::<str>::from("RSU-1"), "bad tag");
        log.record(SimTime::from_millis(2), "mac", "RSU-1", format!("after {} tries", 3));
        let json = serde_json::to_string(&log).unwrap();
        let at = |ms| serde_json::to_string(&SimTime::from_millis(ms)).unwrap();
        assert_eq!(
            json,
            format!(
                r#"{{"events":[{{"at":{},"control":"mac","sender":"RSU-1","detail":"bad tag"}},{{"at":{},"control":"mac","sender":"RSU-1","detail":"after 3 tries"}}]}}"#,
                at(1),
                at(2)
            )
        );
        assert_eq!(serde_json::from_str::<SecurityLog>(&json).unwrap(), log);
    }
}
