//! Helpers shared by the equivalence tests: control presets, V2X
//! channel profiles and the construction world's full observation.

use saseval::net::v2x::V2xConfig;
use saseval::obs::MemoryRecorder;
use saseval::sim::construction::{ConstructionConfig, ConstructionWorld};
use saseval::sim::ControlSelection;

/// Control presets: everything, nothing, and everything but
/// challenge–response.
pub fn controls_for(selector: u8) -> ControlSelection {
    match selector % 3 {
        0 => ControlSelection::all(),
        1 => ControlSelection::none(),
        _ => ControlSelection { challenge_response: false, ..ControlSelection::all() },
    }
}

pub fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("serializable")
}

/// V2X profiles: nominal, lossy and jammed. Profile 2's latency exceeds
/// the 10 ms tick, so its arrivals cross tick boundaries.
pub fn v2x_profile(selector: u8) -> V2xConfig {
    match selector % 3 {
        0 => ConstructionConfig::default().v2x,
        1 => V2xConfig { latency_us: 5_000, jitter_us: 1_500, loss_prob: 0.10 },
        _ => V2xConfig { latency_us: 10_000, jitter_us: 3_000, loss_prob: 0.45 },
    }
}

/// Everything the equivalence compares of a construction world,
/// consuming it: trace, security log, channel statistics, kinematics
/// bits, then the outcome (which flushes the tick counter) and the
/// metrics snapshot.
pub fn construction_observation(mut world: ConstructionWorld, recorder: &MemoryRecorder) -> String {
    let channel = world.channel_mut().stats();
    let head = json(&(
        world.now(),
        world.trace(),
        world.security_log().events(),
        channel,
        world.vehicle().position_m().to_bits(),
        world.vehicle().speed_mps().to_bits(),
    ));
    let outcome = json(&world.into_outcome());
    format!("{head}\n{outcome}\n{}", json(&recorder.snapshot()))
}
