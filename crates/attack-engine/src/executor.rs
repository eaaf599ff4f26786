//! The attack executor: runs one bound attack description against a world
//! and decides success/failure per the description's criteria (RQ3).

use serde::{Deserialize, Serialize};

use saseval_obs::Obs;
use saseval_types::{Ftti, SimTime};
use vehicle_sim::config::ControlSelection;
use vehicle_sim::construction::{ConstructionConfig, ConstructionOutcome, ConstructionWorld};
use vehicle_sim::keyless::{KeylessConfig, KeylessOutcome, KeylessWorld};
use vehicle_sim::AttackerHook;

use crate::attacks::{
    AllowlistTamper, AuthenticatedFlood, BleJam, CanStubInject, DelayedDelivery, JamChannel,
    KeyGuessStrategy, KeyIdSpoof, ReplayOpen, ReplayStaleWarning, ServiceFlood, SignedSpoofLimit,
    SpoofClose, UnsignedSpoof,
};

/// A parameterized, executable attack — the refinement of an attack
/// description into a concrete stimulus (paper §III-D, attack
/// implementation).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum AttackKind {
    /// AD20: authenticated packet flooding of the OBU_RSU interface.
    V2xFlood {
        /// Messages injected per tick.
        per_tick: usize,
    },
    /// AD10: forged (unsigned) speed-limit signage.
    V2xFakeLimit {
        /// The spoofed limit in km/h.
        limit: u8,
    },
    /// Insider variant: correctly signed spoofed signage.
    V2xInsiderLimit {
        /// The spoofed limit in km/h.
        limit: u8,
    },
    /// AD17: replay of a recorded (stale) warning far from any site.
    V2xReplayWarning {
        /// Age of the recording.
        staleness_s: u64,
    },
    /// AD06: jamming of the V2X channel for the whole approach.
    V2xJam,
    /// AD05/AD16: store-and-forward delay of all warnings.
    V2xDelay {
        /// Release time of the buffered messages, seconds of virtual time.
        release_s: u64,
    },
    /// AD08: key-ID spoofing against the keyless opener.
    KeySpoof {
        /// The guessing strategy.
        strategy: KeyGuessStrategy,
        /// Total guess budget.
        budget: u32,
    },
    /// AD01: replay of the owner's opening command after they left.
    BleReplayOpen,
    /// AD14: CAN flooding via forwarded BLE service requests.
    BleCanFlood {
        /// Requests per tick.
        per_tick: usize,
    },
    /// AD15: BLE jamming during the owner's open attempt.
    BleJamming,
    /// AD18: spoofed close while a person is entering.
    BleSpoofClose,
    /// AD24: allow-list tampering (unauthenticated unless `insider`).
    AllowlistTamper {
        /// Whether the attacker holds the configuration write key.
        insider: bool,
    },
    /// AD09: direct injection of a forged open frame on an exposed CAN
    /// stub.
    CanStubInject,
}

impl AttackKind {
    /// Whether this attack targets the construction-site world (else the
    /// keyless world).
    pub fn targets_construction(&self) -> bool {
        matches!(
            self,
            AttackKind::V2xFlood { .. }
                | AttackKind::V2xFakeLimit { .. }
                | AttackKind::V2xInsiderLimit { .. }
                | AttackKind::V2xReplayWarning { .. }
                | AttackKind::V2xJam
                | AttackKind::V2xDelay { .. }
        )
    }
}

/// One bound test case: an attack description ID, the executable attack,
/// and the SUT's control configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TestCase {
    /// The attack description this test implements (e.g. `AD20`).
    pub attack_id: String,
    /// Human-readable label (control configuration etc.).
    pub label: String,
    /// The executable attack.
    pub kind: AttackKind,
    /// The SUT's deployed controls.
    pub controls: ControlSelection,
    /// RNG seed for the run.
    pub seed: u64,
}

/// The world-specific outcome of a run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum WorldOutcome {
    /// Construction-site world outcome.
    Construction(ConstructionOutcome),
    /// Keyless world outcome.
    Keyless(KeylessOutcome),
}

impl WorldOutcome {
    /// The violated safety goals, by use-case-local ID.
    pub fn violated_goals(&self) -> Vec<&'static str> {
        let mut goals = Vec::new();
        match self {
            WorldOutcome::Construction(o) => {
                if o.sg01_violated {
                    goals.push("SG01");
                }
                if o.sg02_violated {
                    goals.push("SG02");
                }
                if o.sg03_violated {
                    goals.push("SG03");
                }
                if o.sg04_violated {
                    goals.push("SG04");
                }
            }
            WorldOutcome::Keyless(o) => {
                if o.sg01_violated {
                    goals.push("SG01");
                }
                if o.sg02_violated {
                    goals.push("SG02");
                }
                if o.sg03_violated {
                    goals.push("SG03");
                }
                if o.sg04_violated {
                    goals.push("SG04");
                }
            }
        }
        goals
    }
}

/// The executor's verdict on one test case.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExecutionResult {
    /// The attack description ID.
    pub attack_id: String,
    /// The test-case label.
    pub label: String,
    /// The control configuration used.
    pub controls: ControlSelection,
    /// Whether the attack's success criterion was met (a safety goal was
    /// violated / the service shut down / the vehicle opened).
    pub attack_succeeded: bool,
    /// Whether the SUT produced detection evidence (isolated the sender
    /// or logged rejections) — the "Attack Fails" criterion.
    pub detected: bool,
    /// The violated safety goals.
    pub violated_goals: Vec<String>,
    /// The raw world outcome.
    pub outcome: WorldOutcome,
}

fn construction_config(case: &TestCase) -> ConstructionConfig {
    ConstructionConfig { controls: case.controls, seed: case.seed, ..Default::default() }
}

fn keyless_config(case: &TestCase) -> KeylessConfig {
    KeylessConfig { controls: case.controls, seed: case.seed, ..Default::default() }
}

/// A test case bound to its world, attacker hook and verdict evaluator —
/// the output of the precondition phase, consumed by the injection phase
/// of [`execute_with_obs`].
//
// Variant sizes differ because the worlds are inlined, but `Prepared`
// values are transient — built and destructured within a single call —
// so boxing the worlds would only add allocations.
#[allow(clippy::large_enum_variant)]
enum Prepared {
    /// A construction-site case.
    Construction {
        world: ConstructionWorld,
        hook: Box<dyn AttackerHook<ConstructionWorld>>,
        verdict: fn(&ConstructionOutcome) -> (bool, bool),
    },
    /// A keyless case.
    Keyless {
        world: KeylessWorld,
        hook: Box<dyn AttackerHook<KeylessWorld>>,
        verdict: fn(&KeylessOutcome) -> (bool, bool),
    },
}

/// Executes one test case end to end and evaluates the verdict.
///
/// The success criterion per attack kind mirrors the corresponding attack
/// description's "Attack Success" row; detection mirrors "Attack Fails".
pub fn execute(case: &TestCase) -> ExecutionResult {
    execute_with_obs(case, &Obs::noop())
}

/// [`execute`] with metrics: phase timings land in the
/// `case.{precondition,inject,evaluate}_seconds` histograms and each
/// verdict is emitted as a `case.verdict` event.
pub fn execute_with_obs(case: &TestCase, obs: &Obs) -> ExecutionResult {
    let precondition = obs.span("case.precondition_seconds");
    let run = prepare(case, obs);
    precondition.finish();

    let inject = obs.span("case.inject_seconds");
    let (outcome, succeeded, detected) = match run {
        Prepared::Construction { world, mut hook, verdict } => {
            let o = world.run(hook.as_mut());
            let (succeeded, detected) = verdict(&o);
            (WorldOutcome::Construction(o), succeeded, detected)
        }
        Prepared::Keyless { world, mut hook, verdict } => {
            let o = world.run(hook.as_mut());
            let (succeeded, detected) = verdict(&o);
            (WorldOutcome::Keyless(o), succeeded, detected)
        }
    };
    inject.finish();

    let evaluate = obs.span("case.evaluate_seconds");
    let result = ExecutionResult {
        attack_id: case.attack_id.clone(),
        label: case.label.clone(),
        controls: case.controls,
        attack_succeeded: succeeded,
        detected,
        violated_goals: outcome.violated_goals().iter().map(|s| (*s).to_owned()).collect(),
        outcome,
    };
    obs.event(
        "case.verdict",
        &[
            ("attack_id", result.attack_id.as_str().into()),
            ("label", result.label.as_str().into()),
            ("succeeded", succeeded.into()),
            ("detected", detected.into()),
        ],
    );
    evaluate.finish();
    result
}

/// Executes `cases` one by one through [`execute`], in input order.
///
/// Exists only because the `perfbench/` harness calls it; remove it in
/// the next change that edits `perfbench/`.
pub fn execute_batch(cases: &[TestCase]) -> Vec<ExecutionResult> {
    cases.iter().map(execute).collect()
}

/// Builds the world and attacker hook for `case` — the precondition
/// phase — paired with the attack-specific verdict evaluator applied
/// after the run — the injection phase.
fn prepare(case: &TestCase, obs: &Obs) -> Prepared {
    match &case.kind {
        AttackKind::V2xFlood { per_tick } => Prepared::Construction {
            world: ConstructionWorld::new(construction_config(case)).with_obs(obs.clone()),
            hook: Box::new(AuthenticatedFlood {
                per_tick: *per_tick,
                ..AuthenticatedFlood::ad20()
            }),
            // Table VI: success = "Shutdown of service"; fails =
            // "Security control identifies unwanted sender".
            verdict: |o| (o.service_shutdown, o.isolated_senders.iter().any(|s| s == "attacker")),
        },
        AttackKind::V2xFakeLimit { limit } => Prepared::Construction {
            world: ConstructionWorld::new(construction_config(case)).with_obs(obs.clone()),
            hook: Box::new(UnsignedSpoof::fake_limit(*limit)),
            verdict: |o| (o.sg03_violated, !o.isolated_senders.is_empty()),
        },
        AttackKind::V2xInsiderLimit { limit } => Prepared::Construction {
            world: ConstructionWorld::new(construction_config(case)).with_obs(obs.clone()),
            hook: Box::new(SignedSpoofLimit::new(*limit, Ftti::from_millis(100))),
            verdict: |o| (o.sg03_violated, !o.isolated_senders.is_empty()),
        },
        AttackKind::V2xReplayWarning { staleness_s } => Prepared::Construction {
            world: ConstructionWorld::new(construction_config(case)).with_obs(obs.clone()),
            hook: Box::new(ReplayStaleWarning::new(
                SimTime::from_secs(1),
                Ftti::from_secs(*staleness_s),
            )),
            // Success = the replayed warning was accepted although no
            // site was in range (the SG05 "unintended warnings" class).
            verdict: |o| (o.unintended_warnings > 0, !o.isolated_senders.is_empty()),
        },
        AttackKind::V2xJam => Prepared::Construction {
            world: ConstructionWorld::new(construction_config(case)).with_obs(obs.clone()),
            hook: Box::new(JamChannel::new(SimTime::ZERO, SimTime::from_secs(3_600))),
            verdict: |o| (o.sg01_violated, !o.isolated_senders.is_empty()),
        },
        AttackKind::V2xDelay { release_s } => Prepared::Construction {
            world: ConstructionWorld::new(construction_config(case)).with_obs(obs.clone()),
            hook: Box::new(DelayedDelivery::new(SimTime::from_secs(*release_s))),
            verdict: |o| (o.sg01_violated || o.sg04_violated, !o.isolated_senders.is_empty()),
        },
        AttackKind::KeySpoof { strategy, budget } => Prepared::Keyless {
            world: KeylessWorld::new(keyless_config(case)).with_obs(obs.clone()),
            hook: Box::new(KeyIdSpoof::new(*strategy, 5, *budget, case.seed)),
            // Table VII: success = "Open the vehicle"; fails =
            // "Opening is rejected".
            verdict: |o| (o.sg01_violated, o.isolated_senders.iter().any(|s| s == "attacker")),
        },
        AttackKind::BleReplayOpen => {
            let mut world = KeylessWorld::new(keyless_config(case)).with_obs(obs.clone());
            world.schedule_owner_open(SimTime::from_secs(1));
            world.schedule_owner_close(SimTime::from_secs(5));
            Prepared::Keyless {
                world,
                hook: Box::new(ReplayOpen::new(SimTime::from_secs(8))),
                verdict: |o| (o.sg01_violated, !o.isolated_senders.is_empty()),
            }
        }
        AttackKind::BleCanFlood { per_tick } => {
            let mut world = KeylessWorld::new(keyless_config(case)).with_obs(obs.clone());
            world.schedule_owner_open(SimTime::from_secs(1));
            Prepared::Keyless {
                world,
                hook: Box::new(ServiceFlood::new(*per_tick)),
                verdict: |o| (o.sg03_violated, !o.isolated_senders.is_empty()),
            }
        }
        AttackKind::BleJamming => {
            let mut world = KeylessWorld::new(keyless_config(case)).with_obs(obs.clone());
            world.schedule_owner_open(SimTime::from_secs(1));
            Prepared::Keyless {
                world,
                hook: Box::new(BleJam::new(SimTime::ZERO, SimTime::from_secs(3_600))),
                verdict: |o| (o.sg03_violated, !o.isolated_senders.is_empty()),
            }
        }
        AttackKind::BleSpoofClose => {
            let config = keyless_config(case);
            let owner_id = config.owner_key_id;
            let mut world = KeylessWorld::new(config).with_obs(obs.clone());
            world.schedule_owner_open(SimTime::from_secs(1));
            Prepared::Keyless {
                world,
                hook: Box::new(SpoofClose::new(SimTime::from_secs(2), owner_id)),
                verdict: |o| (o.sg04_violated, !o.isolated_senders.is_empty()),
            }
        }
        AttackKind::CanStubInject => Prepared::Keyless {
            world: KeylessWorld::new(keyless_config(case)).with_obs(obs.clone()),
            hook: Box::new(CanStubInject::new(
                SimTime::from_millis(100),
                vehicle_sim::keyless::CMD_OPEN,
            )),
            verdict: |o| (o.sg01_violated, !o.isolated_senders.is_empty()),
        },
        AttackKind::AllowlistTamper { insider } => {
            let world = KeylessWorld::new(keyless_config(case)).with_obs(obs.clone());
            let auth = insider.then(|| AllowlistTamper::insider_auth(world.config_key(), 0xEE01));
            Prepared::Keyless {
                world,
                hook: Box::new(AllowlistTamper::new(0xEE01, auth, SimTime::from_millis(100))),
                verdict: |o| (o.sg01_violated, !o.isolated_senders.is_empty()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(kind: AttackKind, controls: ControlSelection) -> TestCase {
        TestCase {
            attack_id: "TEST".to_owned(),
            label: "test".to_owned(),
            kind,
            controls,
            seed: 42,
        }
    }

    #[test]
    fn flood_verdicts_flip_with_control() {
        let undefended = execute(&case(
            AttackKind::V2xFlood { per_tick: 40 },
            ControlSelection { flood_protection: false, ..ControlSelection::all() },
        ));
        assert!(undefended.attack_succeeded);
        assert!(undefended.violated_goals.contains(&"SG01".to_owned()));

        let defended =
            execute(&case(AttackKind::V2xFlood { per_tick: 40 }, ControlSelection::all()));
        assert!(!defended.attack_succeeded);
        assert!(defended.detected, "unwanted sender identified");
    }

    #[test]
    fn key_spoof_verdicts_flip_with_allowlist() {
        let no_cr = ControlSelection { challenge_response: false, ..ControlSelection::all() };
        let defended = execute(&case(
            AttackKind::KeySpoof { strategy: KeyGuessStrategy::Random, budget: 500 },
            no_cr,
        ));
        assert!(!defended.attack_succeeded);

        let undefended = execute(&case(
            AttackKind::KeySpoof { strategy: KeyGuessStrategy::Random, budget: 10 },
            ControlSelection {
                allow_list: false,
                challenge_response: false,
                ..ControlSelection::all()
            },
        ));
        assert!(undefended.attack_succeeded);
        assert!(undefended.violated_goals.contains(&"SG01".to_owned()));
    }

    #[test]
    fn targets_classification() {
        assert!(AttackKind::V2xJam.targets_construction());
        assert!(!AttackKind::BleReplayOpen.targets_construction());
    }

    #[test]
    fn execution_is_deterministic() {
        let c = case(AttackKind::BleCanFlood { per_tick: 30 }, ControlSelection::none());
        let a = execute(&c);
        let b = execute(&c);
        assert_eq!(a.attack_succeeded, b.attack_succeeded);
        assert_eq!(a.violated_goals, b.violated_goals);
    }
}
