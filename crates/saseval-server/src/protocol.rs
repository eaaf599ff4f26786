//! Wire-frame construction and parsing helpers shared by the server's
//! event loop and the blocking [`crate::server::Client`].
//!
//! One JSON value per `\n`-terminated line, both directions. Frames are
//! built by hand where byte layout matters — the `done` frame in
//! particular is assembled as a per-request *head* plus a shared
//! pre-framed *tail* ([`crate::cache::FramedPayload`]) so a cached
//! payload is spliced into the socket without ever being copied — and
//! through the deterministic vendored `serde_json` everywhere else.

use serde_json::JsonValue;

use crate::worker::FreshStats;

/// Looks a field up in a JSON object (linear scan; request objects are
/// tiny).
pub fn map_field<'a>(value: &'a JsonValue, name: &str) -> Option<&'a JsonValue> {
    match value {
        JsonValue::Map(entries) => {
            entries.iter().find(|(key, _)| key == name).map(|(_, field)| field)
        }
        _ => None,
    }
}

/// Looks a string field up in a JSON object.
pub fn str_field<'a>(value: &'a JsonValue, name: &str) -> Option<&'a str> {
    match map_field(value, name) {
        Some(JsonValue::Str(s)) => Some(s),
        _ => None,
    }
}

/// Serializes an ordered field list as one compact JSON object line
/// (without the trailing newline).
pub fn frame(fields: Vec<(&str, JsonValue)>) -> String {
    let map =
        JsonValue::Map(fields.into_iter().map(|(key, value)| (key.to_owned(), value)).collect());
    serde_json::to_string(&map).expect("frames always serialize")
}

/// An `error` frame, with the request id when one could be parsed.
pub fn error_frame(id: Option<&str>, message: &str) -> String {
    let mut fields = Vec::new();
    if let Some(id) = id {
        fields.push(("id", JsonValue::Str(id.to_owned())));
    }
    fields.push(("event", JsonValue::Str("error".to_owned())));
    fields.push(("message", JsonValue::Str(message.to_owned())));
    frame(fields)
}

/// An `accepted` frame: the job's request id and 16-hex cache key.
pub fn accepted_frame(id: &str, key: u64) -> String {
    frame(vec![
        ("id", JsonValue::Str(id.to_owned())),
        ("event", JsonValue::Str("accepted".to_owned())),
        ("key", JsonValue::Str(format!("{key:016x}"))),
    ])
}

/// A `progress` frame carrying one live metric sample.
pub fn progress_frame(id: &str, metric: &str, value: f64) -> String {
    frame(vec![
        ("id", JsonValue::Str(id.to_owned())),
        ("event", JsonValue::Str("progress".to_owned())),
        ("metric", JsonValue::Str(metric.to_owned())),
        ("value", JsonValue::F64(value)),
    ])
}

/// The terminal `cancelled` frame of a cancelled job request.
pub fn cancelled_frame(id: &str) -> String {
    frame(vec![
        ("id", JsonValue::Str(id.to_owned())),
        ("event", JsonValue::Str("cancelled".to_owned())),
    ])
}

/// The per-request *head* of a `done` frame, ending exactly where the
/// shared pre-framed payload tail (`,"payload":…}\n`, see
/// [`crate::cache::FramedPayload`]) begins. Concatenating
/// `done_head ⧺ framed.tail()` reproduces the historical single-buffer
/// frame byte for byte, so cached, coalesced and fresh responses stay
/// bit-identical.
pub fn done_head(id: &str, key: u64, cache: &str, stats: Option<&FreshStats>) -> Vec<u8> {
    let id_literal = serde_json::to_string(id).expect("strings always serialize");
    let mut head = format!(
        "{{\"id\":{id_literal},\"event\":\"done\",\"key\":\"{key:016x}\",\"cache\":\"{cache}\""
    );
    if let Some(stats) = stats {
        head.push_str(",\"stats\":");
        head.push_str(&serde_json::to_string(stats).expect("stats always serialize"));
    }
    head.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::FramedPayload;

    #[test]
    fn done_head_plus_framed_tail_reproduces_the_legacy_frame() {
        let payload = br#"{"Fuzz":{"iterations":3}}"#;
        let framed = FramedPayload::frame(payload);
        let mut line = done_head("j1", 0xABCD, "memory", None);
        line.extend_from_slice(framed.tail());
        let expected = format!(
            "{{\"id\":\"j1\",\"event\":\"done\",\"key\":\"{:016x}\",\"cache\":\"memory\",\"payload\":{}}}\n",
            0xABCDu64,
            std::str::from_utf8(payload).unwrap(),
        );
        assert_eq!(line, expected.into_bytes());
    }

    #[test]
    fn stats_land_between_cache_and_payload() {
        let stats = FreshStats { elapsed_seconds: 1.5, inputs_per_sec: Some(2.0), cases: None };
        let head = done_head("x", 1, "miss", Some(&stats));
        let text = String::from_utf8(head).unwrap();
        assert!(text.ends_with(&format!(",\"stats\":{}", serde_json::to_string(&stats).unwrap())));
        assert!(text.starts_with("{\"id\":\"x\",\"event\":\"done\""));
    }

    #[test]
    fn error_frames_carry_the_id_when_known() {
        assert_eq!(
            error_frame(Some("a"), "nope"),
            r#"{"id":"a","event":"error","message":"nope"}"#
        );
        assert_eq!(error_frame(None, "nope"), r#"{"event":"error","message":"nope"}"#);
    }
}
