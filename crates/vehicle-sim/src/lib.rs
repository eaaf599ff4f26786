//! Discrete-event vehicle simulator for the SaSeVAL reproduction.
//!
//! The paper's evaluation ran on two EU-SECREDAS demonstrators we do not
//! have; this crate is their simulated stand-in (see DESIGN.md for the
//! substitution argument):
//!
//! * [`construction`] — **Use Case I** (paper Fig. 2): an autonomous
//!   vehicle approaches a construction site; the road-side unit (RSU)
//!   informs the vehicle via the on-board unit (OBU) so that control is
//!   transferred back to the driver. The world models vehicle kinematics,
//!   periodic signed warnings over a lossy V2X channel, an OBU with a
//!   finite processing budget (so packet flooding can shut the service
//!   down — attack AD20), a driver take-over model and signed signage
//!   (speed limits, SG03).
//! * [`keyless`] — **Use Case II**: a smartphone opens/closes the vehicle
//!   over a BLE link; a gateway validates commands (allow-list of key IDs
//!   as in Table VII, challenge–response, freshness) and forwards them to
//!   the door-lock ECU over the CAN bus — so flooding the gateway with
//!   forwarded BLE requests starves the opening function (SG03).
//!
//! Both worlds expose an [`AttackerHook`] callback invoked every tick;
//! the `attack-engine` crate implements the paper's attack types against
//! these hooks. Outcomes report exactly the attack-success / attack-fails
//! criteria the attack descriptions specify.
//!
//! Everything runs in virtual time with seeded randomness: identical
//! configurations replay identically (RQ3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod construction;
mod error;
pub mod kernel;
pub mod keyless;
pub mod trace;
pub mod vehicle;

pub use config::ControlSelection;
pub use error::SimError;
pub use trace::{TraceEvent, TraceRecorder};

use std::sync::Arc;

use saseval_types::SimTime;

/// Attacker behaviour injected into a world, invoked once per simulation
/// tick. Implementations live in the `attack-engine` crate; `()` is the
/// no-attack baseline.
pub trait AttackerHook<W> {
    /// Called at every tick with the world state and current time.
    fn on_tick(&mut self, world: &mut W, now: SimTime);
}

impl<W> AttackerHook<W> for () {
    fn on_tick(&mut self, _world: &mut W, _now: SimTime) {}
}

/// A frozen world state at a point in virtual time, shared copy-on-write.
///
/// Capturing a snapshot at the attack-activation time lets many mutated
/// inputs start from the same warm prefix instead of re-simulating it
/// from `t = 0`: the frozen state lives once behind an [`Arc`].
/// [`WorldSnapshot::fork`] deep-clones it into an independent world;
/// [`WorldSnapshot::reset_into`] copies it into a scratch world the
/// caller keeps, reusing that world's buffers, so a loop running one
/// input after another allocates no world per input. Either way the
/// world's subsequent steps are bit-identical to a from-scratch run
/// brought to the same state (the snapshot-equivalence property gating
/// this crate's determinism contract).
#[derive(Debug, Clone)]
pub struct WorldSnapshot<W> {
    state: Arc<W>,
}

impl<W: Clone> WorldSnapshot<W> {
    /// Freezes `world` as the shared prefix state.
    pub fn new(world: W) -> Self {
        WorldSnapshot { state: Arc::new(world) }
    }

    /// Deep-clones an independent world out of the frozen prefix.
    pub fn fork(&self) -> W {
        (*self.state).clone()
    }

    /// Resets `scratch` to the frozen prefix with `Clone::clone_from`:
    /// afterwards it runs exactly as a [`WorldSnapshot::fork`] would,
    /// whatever it ran before, but keeps the buffers it already grew.
    pub fn reset_into(&self, scratch: &mut W) {
        scratch.clone_from(&self.state);
    }

    /// Read-only access to the frozen state.
    pub fn get(&self) -> &W {
        &self.state
    }
}
