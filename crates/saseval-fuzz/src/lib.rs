//! Protocol-guided fuzz testing driven by TARA attack paths (paper
//! §II-B, testing type 2).
//!
//! "The attack trees are used to create TARA attack paths, which define
//! the interfaces for protocol-guided automated or semi-automated fuzz
//! testing. The coverage of tested protocol can then be measured with
//! percent."
//!
//! This crate implements that loop:
//!
//! * [`model`] describes a protocol's fields (the V2X warning payload and
//!   the keyless command frame ship as built-ins),
//! * [`mutate`] generates protocol-aware inputs: valid baselines, field
//!   boundary values, and byte-level corruption — all from a seeded RNG,
//! * [`coverage`] measures, in percent, how much of the protocol's field
//!   classes and how many of the attack paths have been exercised,
//! * [`fuzzer`] schedules fuzzing sessions over the interfaces named by
//!   the attack paths of a [`saseval_tara::AttackTree`] and reports
//!   crashes/violations found by the target oracle. Serial
//!   ([`Fuzzer::run`](fuzzer::Fuzzer::run)) and sharded-parallel
//!   ([`Fuzzer::run_parallel`](fuzzer::Fuzzer::run_parallel)) loops share
//!   one allocation-free core; the parallel merge is deterministic per
//!   shard count, and one shard reproduces the serial output exactly.
//!   Targets implement [`FuzzTarget`]; batched
//!   targets are driven via
//!   [`Fuzzer::with_batch_size`](fuzzer::Fuzzer::with_batch_size) without
//!   changing the report,
//! * [`sim_target`] backs the oracle with the vehicle worlds: every input
//!   forks from a copy-on-write world snapshot taken at attack-activation
//!   time, and the attacker-free prefix and tail run through the worlds'
//!   next-event advance, which skips provably idle ticks,
//! * [`scenario`] lifts the loop from single messages to whole
//!   validation scenarios: a parameterized
//!   [`scenario::ScenarioSpec`] (traffic density, platoon
//!   shape, RSU count, channel profile, attacker placement, FTTI
//!   variant, armed controls) with a seeded sampler and mutation
//!   operators, compiled to world configs and driven by a
//!   coverage-guided [`scenario::ScenarioSearch`] that
//!   reuses [`CoverageMap`] over a scenario-dimension model under the
//!   same sharded determinism contract as the fuzzer,
//! * [`mod@minimize`] shrinks crash inputs with deterministic delta
//!   debugging (`ddmin` plus zero-simplification, step-budgeted),
//! * [`corpus`] persists findings into a content-addressed on-disk
//!   regression corpus and replays them against the current models —
//!   attach a [`TriageConfig`] via
//!   [`Fuzzer::with_triage`](fuzzer::Fuzzer::with_triage) to minimize
//!   and persist every new crash automatically.
//!
//! # Example
//!
//! ```
//! use saseval_fuzz::fuzzer::{Fuzzer, TargetResponse};
//! use saseval_fuzz::model::keyless_command_model;
//! use saseval_tara::tree::{AttackTree, TreeNode};
//!
//! let tree = AttackTree::new(
//!     "Open the vehicle",
//!     TreeNode::leaf_on("send forged open command", "BLE_PHONE"),
//! )?;
//! let mut fuzzer = Fuzzer::new(keyless_command_model(), 7);
//! let report = fuzzer.run(&tree.paths()?, 500, |input| {
//!     // A robust target: rejects everything malformed, never crashes.
//!     if input.len() == 33 { TargetResponse::Accepted } else { TargetResponse::Rejected }
//! });
//! assert_eq!(report.crashes.len(), 0);
//! assert!(report.field_coverage_percent() > 50.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod coverage;
pub mod fuzzer;
pub mod minimize;
pub mod model;
pub mod mutate;
pub mod scenario;
pub mod sim_target;

pub use corpus::{builtin_oracle, Corpus, CorpusEntry, EntryMeta, ReplayReport, Replayer};
pub use coverage::CoverageMap;
pub use fuzzer::{
    ClosureTarget, Finding, FuzzReport, FuzzTarget, Fuzzer, TargetResponse, TriageConfig,
};
pub use minimize::{minimize, MinimizeConfig, MinimizeResult};
pub use model::{FieldKind, FieldSpec, ProtocolModel};
pub use mutate::{GeneratedInput, Mutator, ValueClass};
pub use scenario::{
    DimRange, NamedScenario, ScenarioFile, ScenarioRecord, ScenarioSampler, ScenarioSearch,
    ScenarioSearchReport, ScenarioSpace, ScenarioSpec, ScenarioVerdict,
};
pub use sim_target::{SimOracle, FUZZ_SENDER};
