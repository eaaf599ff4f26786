//! Helpers shared by the server's integration tests.

use saseval_server::protocol::map_field;
use saseval_server::Client;
use serde_json::JsonValue;

/// One counter of the server's live `stats` frame, read over `client`.
pub fn stat(client: &mut Client, name: &str) -> u64 {
    let stats = client.stats().expect("stats frame");
    match map_field(&stats, name) {
        Some(JsonValue::U64(v)) => *v,
        other => panic!("stats field {name} missing or non-integer: {other:?}"),
    }
}
