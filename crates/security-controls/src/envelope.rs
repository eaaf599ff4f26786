//! The normalized inbound-message view the controls inspect.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use saseval_types::SimTime;

use crate::mac::Tag;

/// A medium-independent view of one inbound message.
///
/// The simulation agents translate V2X messages, BLE frames and CAN
/// frames into envelopes before admission; the controls never need to
/// know the medium. The sender is the message's shared [`Arc<str>`], so
/// wrapping a message copies a pointer, not the name.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Envelope {
    sender: Arc<str>,
    generated_at: SimTime,
    payload: Vec<u8>,
    tag: Option<Tag>,
    claimed_id: Option<u64>,
    challenge_response: Option<Tag>,
}

impl Envelope {
    /// Creates an envelope with the mandatory fields.
    pub fn new(
        sender: impl Into<Arc<str>>,
        generated_at: SimTime,
        payload: impl Into<Vec<u8>>,
    ) -> Self {
        Envelope {
            sender: sender.into(),
            generated_at,
            payload: payload.into(),
            tag: None,
            claimed_id: None,
            challenge_response: None,
        }
    }

    /// Attaches an authentication tag.
    pub fn with_tag(mut self, tag: Tag) -> Self {
        self.tag = Some(tag);
        self
    }

    /// Attaches a claimed electronic ID (the keyless-opener key ID of
    /// Table VII).
    pub fn with_claimed_id(mut self, id: u64) -> Self {
        self.claimed_id = Some(id);
        self
    }

    /// Attaches a challenge response.
    pub fn with_challenge_response(mut self, response: Tag) -> Self {
        self.challenge_response = Some(response);
        self
    }

    /// The claimed sender identity.
    pub fn sender(&self) -> &str {
        &self.sender
    }

    /// The claimed sender identity as its shared allocation; controls
    /// that remember a sender clone this pointer instead of the name.
    pub fn shared_sender(&self) -> &Arc<str> {
        &self.sender
    }

    /// The sender-stamped generation time.
    pub fn generated_at(&self) -> SimTime {
        self.generated_at
    }

    /// The payload bytes.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// The authentication tag, if present.
    pub fn tag(&self) -> Option<Tag> {
        self.tag
    }

    /// The claimed electronic ID, if present.
    pub fn claimed_id(&self) -> Option<u64> {
        self.claimed_id
    }

    /// The challenge response, if present.
    pub fn challenge_response(&self) -> Option<Tag> {
        self.challenge_response
    }

    /// Consumes the envelope and returns its payload buffer, so a
    /// receiver admitting one message after another can build the next
    /// envelope in the same buffer.
    pub fn into_payload(self) -> Vec<u8> {
        self.payload
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mac::MacKey;

    #[test]
    fn builder_accessors() {
        let key = MacKey::new(1);
        let env = Envelope::new("phone", SimTime::from_millis(5), b"OPEN".to_vec())
            .with_tag(key.sign(b"OPEN"))
            .with_claimed_id(0x1234)
            .with_challenge_response(key.sign(b"challenge"));
        assert_eq!(env.sender(), "phone");
        assert_eq!(env.generated_at(), SimTime::from_millis(5));
        assert_eq!(env.payload(), b"OPEN");
        assert!(env.tag().is_some());
        assert_eq!(env.claimed_id(), Some(0x1234));
        assert!(env.challenge_response().is_some());
    }

    #[test]
    fn optional_fields_default_to_none() {
        let env = Envelope::new("s", SimTime::ZERO, vec![]);
        assert!(env.tag().is_none());
        assert!(env.claimed_id().is_none());
        assert!(env.challenge_response().is_none());
    }
}
