//! Parameterized scenario model and coverage-guided scenario search
//! (ROADMAP item 2, paper §III-A).
//!
//! The paper derives threats *from driving scenarios*, but the fuzzer so
//! far only varied the message under test — the world around it was
//! fixed. This module closes that gap with three layers:
//!
//! 1. **Model** — [`ScenarioSpec`] is a flat, `Copy` description of one
//!    concrete validation scenario: which demonstrator world runs,
//!    background-traffic density, platoon size and spacing, RSU count,
//!    channel degradation, attacker placement, FTTI variant and armed
//!    controls. [`ScenarioSpace`] bounds every dimension with a
//!    [`DimRange`], so a scenario file declares exactly what it intends
//!    to explore.
//! 2. **Sampling** — [`ScenarioSampler`] draws specs uniformly from a
//!    space and mutates existing specs one dimension at a time (snap to
//!    a bound, redraw, or step by one). All draws come from a single
//!    seeded [`StdRng`], so a `(space, seed)` pair reproduces the exact
//!    sample stream.
//! 3. **Search** — [`ScenarioSearch`] runs a coverage-guided loop over
//!    the *scenario-dimension* coverage model ([`dimension_model`]):
//!    each evaluated spec is compiled to a world config, exercised by a
//!    short seeded fuzz session ([`SimOracle`]), and recorded into a
//!    [`CoverageMap`] cell per dimension bucket × verdict. Specs that
//!    light new cells join the mutation frontier.
//!
//! # Determinism contract
//!
//! [`ScenarioSearch::run_parallel`] mirrors `Fuzzer::run` and runs on
//! the same shard executor: the iteration range is split into
//! contiguous per-shard chunks, shard `s` seeds its sampler with the
//! same splitmix stride used by the fuzzer, and shard results merge in
//! shard order. A fixed `(seed, shards)` pair therefore reproduces a
//! bit-identical corpus and merged coverage map, whatever the thread
//! count, and `shards = 1` is the plain serial loop. Per-spec
//! evaluation seeds derive from the spec's canonical hash — never from
//! the shard — so a spec receives the same verdict wherever it lands.
//!
//! [`ScenarioSpec::canonical_hash`] is FNV-1a over the spec's canonical
//! JSON (declaration-order fields, no whitespace); the server reuses it
//! for result-cache keys.

use std::collections::HashSet;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use saseval_obs::Obs;
use saseval_tara::tree::{AttackTree, TreeNode};
use saseval_tara::AttackPath;
use saseval_types::hash::fnv1a64;
use saseval_types::{AttackerPlacement, ChannelProfile, ControlsProfile, Ftti, SimTime, WorldKind};
use serde::{Deserialize, Serialize};
use vehicle_net::ble::BleConfig;
use vehicle_net::v2x::V2xConfig;
use vehicle_sim::config::ControlSelection;
use vehicle_sim::construction::ConstructionConfig;
use vehicle_sim::keyless::KeylessConfig;

use crate::coverage::CoverageMap;
use crate::fuzzer::{available_threads, run_shards, shard_range, shard_seed, Fuzzer};
use crate::model::{keyless_command_model, v2x_warning_model, FieldKind, FieldSpec, ProtocolModel};
use crate::mutate::{GeneratedInput, ValueClass};
use crate::sim_target::SimOracle;

/// Number of searchable scenario dimensions (the world kind is fixed by
/// the space, not searched).
pub const DIMENSIONS: usize = 8;

/// Dimension names, in dimension-index order.
pub const DIM_NAMES: [&str; DIMENSIONS] = [
    "traffic_density",
    "platoon_followers",
    "platoon_spacing_m",
    "rsu_count",
    "channel",
    "attacker",
    "ftti_ms",
    "controls",
];

/// Dimension indices that only affect the construction world; a keyless
/// space must pin them (see lint rule SASE027).
pub const CONSTRUCTION_ONLY_DIMS: [usize; 4] = [0, 1, 2, 3];

/// Value buckets per dimension in the coverage model.
pub const BUCKETS: u16 = 4;

/// Verdict arms per dimension bucket in the path model.
pub const VERDICTS: usize = 3;

/// Default fuzz inputs per scenario evaluation.
pub const DEFAULT_EVAL_ITERATIONS: usize = 12;

/// Inclusive value range of one scenario dimension.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DimRange {
    /// Smallest admissible value.
    pub lo: u16,
    /// Largest admissible value.
    pub hi: u16,
}

impl DimRange {
    /// An inclusive range `lo..=hi`.
    pub const fn new(lo: u16, hi: u16) -> Self {
        DimRange { lo, hi }
    }

    /// A degenerate range holding exactly `value`.
    pub const fn pinned(value: u16) -> Self {
        DimRange { lo: value, hi: value }
    }

    /// Whether `value` lies inside the range.
    pub fn contains(self, value: u16) -> bool {
        self.lo <= value && value <= self.hi
    }

    /// Whether the range admits exactly one value.
    pub fn is_pinned(self) -> bool {
        self.lo == self.hi
    }

    /// Whether the range is empty (`lo > hi`) and therefore invalid.
    pub fn is_inverted(self) -> bool {
        self.lo > self.hi
    }

    /// Number of admissible values (0 when inverted).
    pub fn span(self) -> u32 {
        if self.is_inverted() {
            0
        } else {
            u32::from(self.hi - self.lo) + 1
        }
    }
}

/// One concrete validation scenario: a point in a [`ScenarioSpace`].
///
/// Fields are in dimension-index order after `world`; the canonical
/// JSON serialization (and thus [`ScenarioSpec::canonical_hash`])
/// follows this declaration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Which demonstrator world runs.
    pub world: WorldKind,
    /// Background vehicles broadcasting unauthenticated status traffic
    /// (construction world only).
    pub traffic_density: u16,
    /// Platoon vehicles trailing the ego vehicle (construction only).
    pub platoon_followers: u16,
    /// Gap between consecutive platoon vehicles in metres (construction
    /// only).
    pub platoon_spacing_m: u16,
    /// Road-side units rebroadcasting the warning (construction only;
    /// the demonstrator's single RSU counts as 1).
    pub rsu_count: u16,
    /// Radio-channel degradation profile.
    pub channel: ChannelProfile,
    /// When the attacker activates.
    pub attacker: AttackerPlacement,
    /// Fault-tolerant time interval variant in milliseconds: the
    /// keyless entry window, and the post-attack observation budget of
    /// both worlds.
    pub ftti_ms: u16,
    /// Which security controls the vehicle arms.
    pub controls: ControlsProfile,
}

impl ScenarioSpec {
    /// Value of dimension `dim` (enum dimensions report their stable
    /// index).
    ///
    /// # Panics
    ///
    /// Panics if `dim >= DIMENSIONS`.
    pub fn value(&self, dim: usize) -> u16 {
        match dim {
            0 => self.traffic_density,
            1 => self.platoon_followers,
            2 => self.platoon_spacing_m,
            3 => self.rsu_count,
            4 => self.channel.index(),
            5 => self.attacker.index(),
            6 => self.ftti_ms,
            7 => self.controls.index(),
            _ => panic!("scenario dimension {dim} out of range"),
        }
    }

    /// Sets dimension `dim` to `value` (enum dimensions clamp the index
    /// into their variant set).
    ///
    /// # Panics
    ///
    /// Panics if `dim >= DIMENSIONS`.
    pub fn set_value(&mut self, dim: usize, value: u16) {
        match dim {
            0 => self.traffic_density = value,
            1 => self.platoon_followers = value,
            2 => self.platoon_spacing_m = value,
            3 => self.rsu_count = value,
            4 => self.channel = ChannelProfile::from_index(value),
            5 => self.attacker = AttackerPlacement::from_index(value),
            6 => self.ftti_ms = value,
            7 => self.controls = ControlsProfile::from_index(value),
            _ => panic!("scenario dimension {dim} out of range"),
        }
    }

    /// The canonical JSON form: declaration-order fields, no
    /// whitespace. Cache keys and corpus hashes are computed over this.
    pub fn canonical_json(&self) -> String {
        serde_json::to_string(self).expect("scenario specs always serialize")
    }

    /// FNV-1a hash of [`ScenarioSpec::canonical_json`].
    pub fn canonical_hash(&self) -> u64 {
        fnv1a64(self.canonical_json().as_bytes())
    }

    /// When the attacker activates in this scenario.
    pub fn attack_at(&self) -> SimTime {
        self.attacker.attack_at()
    }

    /// Simulation horizon: attack activation plus the FTTI variant plus
    /// a fixed 200 ms settling margin.
    pub fn horizon(&self) -> Ftti {
        Ftti::from_millis(self.attack_at().as_millis() + u64::from(self.ftti_ms) + 200)
    }

    /// Compiles the spec to a keyless-world config; `None` when the
    /// spec targets the construction world.
    ///
    /// The channel profile maps onto the BLE link (`Lossy`: 8 % loss at
    /// 10 ms latency, `Jammed`: 40 % loss at 20 ms) and `ftti_ms`
    /// becomes the SG04 entry window. Construction-only dimensions are
    /// ignored.
    pub fn keyless_config(&self) -> Option<KeylessConfig> {
        if self.world != WorldKind::Keyless {
            return None;
        }
        let ble = match self.channel {
            ChannelProfile::Nominal => BleConfig::default(),
            ChannelProfile::Lossy => {
                BleConfig { latency_us: 10_000, loss_prob: 0.08, ..BleConfig::default() }
            }
            ChannelProfile::Jammed => {
                BleConfig { latency_us: 20_000, loss_prob: 0.40, ..BleConfig::default() }
            }
        };
        Some(KeylessConfig {
            horizon: self.horizon(),
            controls: selection(self.controls),
            ble,
            entry_window: Ftti::from_millis(u64::from(self.ftti_ms)),
            ..KeylessConfig::default()
        })
    }

    /// Compiles the spec to a construction-world config; `None` when
    /// the spec targets the keyless world.
    ///
    /// `traffic_density` becomes the background-sender count, the
    /// platoon dimensions map straight through, `rsu_count` becomes
    /// `extra_rsus = rsu_count - 1` (the demonstrator RSU is always
    /// present), and the channel profile maps onto the V2X link
    /// (`Lossy`: 10 % loss, `Jammed`: 45 % loss with widened jitter).
    pub fn construction_config(&self) -> Option<ConstructionConfig> {
        if self.world != WorldKind::Construction {
            return None;
        }
        let mut config = ConstructionConfig {
            horizon: self.horizon(),
            controls: selection(self.controls),
            background_senders: self.traffic_density,
            platoon_followers: self.platoon_followers,
            platoon_spacing_m: f64::from(self.platoon_spacing_m),
            extra_rsus: self.rsu_count.saturating_sub(1),
            ..ConstructionConfig::default()
        };
        match self.channel {
            // Nominal keeps the demonstrator's own default channel.
            ChannelProfile::Nominal => {}
            ChannelProfile::Lossy => {
                config.v2x = V2xConfig { latency_us: 5_000, jitter_us: 1_500, loss_prob: 0.10 };
            }
            ChannelProfile::Jammed => {
                config.v2x = V2xConfig { latency_us: 10_000, jitter_us: 3_000, loss_prob: 0.45 };
            }
        }
        Some(config)
    }

    /// Use Case II exactly as the paper demonstrates it: the keyless
    /// world with every default, expressed as a scenario. Compiles to
    /// `KeylessConfig::default()` with the scenario horizon.
    pub fn keyless_demonstrator() -> Self {
        ScenarioSpec {
            world: WorldKind::Keyless,
            traffic_density: 0,
            platoon_followers: 0,
            platoon_spacing_m: 0,
            rsu_count: 0,
            channel: ChannelProfile::Nominal,
            attacker: AttackerPlacement::Midway,
            ftti_ms: 3_000,
            controls: ControlsProfile::All,
        }
    }

    /// Use Case I exactly as the paper demonstrates it: the
    /// construction world with every default, expressed as a scenario.
    /// Compiles to `ConstructionConfig::default()` with the scenario
    /// horizon.
    pub fn construction_demonstrator() -> Self {
        ScenarioSpec {
            world: WorldKind::Construction,
            traffic_density: 0,
            platoon_followers: 0,
            platoon_spacing_m: 0,
            rsu_count: 1,
            channel: ChannelProfile::Nominal,
            attacker: AttackerPlacement::Midway,
            ftti_ms: 2_000,
            controls: ControlsProfile::All,
        }
    }
}

fn selection(profile: ControlsProfile) -> ControlSelection {
    match profile {
        ControlsProfile::All => ControlSelection::all(),
        ControlsProfile::None => ControlSelection::none(),
        ControlsProfile::AuthOnly => ControlSelection::auth_only(),
    }
}

/// Bounds of every scenario dimension plus the fixed world kind: what a
/// search (or a scenario data file) declares it intends to explore.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ScenarioSpace {
    /// The demonstrator world every spec in this space runs in.
    pub world: WorldKind,
    /// Range of background-sender counts.
    pub traffic_density: DimRange,
    /// Range of platoon-follower counts.
    pub platoon_followers: DimRange,
    /// Range of platoon spacings in metres.
    pub platoon_spacing_m: DimRange,
    /// Range of RSU counts.
    pub rsu_count: DimRange,
    /// Range of [`ChannelProfile`] indices.
    pub channel: DimRange,
    /// Range of [`AttackerPlacement`] indices.
    pub attacker: DimRange,
    /// Range of FTTI variants in milliseconds.
    pub ftti_ms: DimRange,
    /// Range of [`ControlsProfile`] indices.
    pub controls: DimRange,
}

impl Default for ScenarioSpace {
    fn default() -> Self {
        Self::keyless_default()
    }
}

impl ScenarioSpace {
    /// The stock keyless search space: construction-only dimensions
    /// pinned to zero, every enum dimension fully open, FTTI between
    /// 200 ms and 1.8 s.
    pub fn keyless_default() -> Self {
        ScenarioSpace {
            world: WorldKind::Keyless,
            traffic_density: DimRange::pinned(0),
            platoon_followers: DimRange::pinned(0),
            platoon_spacing_m: DimRange::pinned(0),
            rsu_count: DimRange::pinned(0),
            channel: DimRange::new(0, 2),
            attacker: DimRange::new(0, 2),
            ftti_ms: DimRange::new(200, 1_800),
            controls: DimRange::new(0, 2),
        }
    }

    /// The stock construction search space: up to 8 background senders,
    /// platoons of up to 4 followers spaced 10–50 m, 1–4 RSUs, every
    /// enum dimension open, FTTI between 100 ms and 1.9 s.
    pub fn construction_default() -> Self {
        ScenarioSpace {
            world: WorldKind::Construction,
            traffic_density: DimRange::new(0, 8),
            platoon_followers: DimRange::new(0, 4),
            platoon_spacing_m: DimRange::new(10, 50),
            rsu_count: DimRange::new(1, 4),
            channel: DimRange::new(0, 2),
            attacker: DimRange::new(0, 2),
            ftti_ms: DimRange::new(100, 1_900),
            controls: DimRange::new(0, 2),
        }
    }

    /// Range of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim >= DIMENSIONS`.
    pub fn range(&self, dim: usize) -> DimRange {
        match dim {
            0 => self.traffic_density,
            1 => self.platoon_followers,
            2 => self.platoon_spacing_m,
            3 => self.rsu_count,
            4 => self.channel,
            5 => self.attacker,
            6 => self.ftti_ms,
            7 => self.controls,
            _ => panic!("scenario dimension {dim} out of range"),
        }
    }

    /// Checks the space itself: no inverted ranges, enum dimensions
    /// within their variant sets.
    pub fn validate(&self) -> Result<(), String> {
        for (dim, name) in DIM_NAMES.iter().enumerate() {
            let range = self.range(dim);
            if range.is_inverted() {
                return Err(format!(
                    "dimension `{name}` has inverted range {}..={}",
                    range.lo, range.hi
                ));
            }
        }
        for dim in [4, 5, 7] {
            let range = self.range(dim);
            if range.hi > 2 {
                return Err(format!(
                    "enum dimension `{}` admits index {} but only 0..=2 exist",
                    DIM_NAMES[dim], range.hi
                ));
            }
        }
        Ok(())
    }

    /// Checks that `spec` lies inside this space (same world, every
    /// dimension in range).
    pub fn validate_spec(&self, spec: &ScenarioSpec) -> Result<(), String> {
        if spec.world != self.world {
            return Err(format!(
                "spec world {:?} does not match space world {:?}",
                spec.world, self.world
            ));
        }
        for (dim, name) in DIM_NAMES.iter().enumerate() {
            let range = self.range(dim);
            let value = spec.value(dim);
            if !range.contains(value) {
                return Err(format!(
                    "dimension `{name}` value {value} outside declared range {}..={}",
                    range.lo, range.hi
                ));
            }
        }
        Ok(())
    }
}

/// Seeded property-based sampler and mutator over a [`ScenarioSpace`].
///
/// All randomness flows through one [`StdRng`], so a `(space, seed)`
/// pair reproduces the exact stream of samples, mutations and frontier
/// picks.
#[derive(Debug)]
pub struct ScenarioSampler {
    space: ScenarioSpace,
    rng: StdRng,
}

impl ScenarioSampler {
    /// A sampler over `space` seeded with `seed`.
    pub fn new(space: ScenarioSpace, seed: u64) -> Self {
        ScenarioSampler { space, rng: StdRng::seed_from_u64(seed) }
    }

    /// The space this sampler draws from.
    pub fn space(&self) -> &ScenarioSpace {
        &self.space
    }

    fn draw(&mut self, range: DimRange) -> u16 {
        if range.lo >= range.hi {
            range.lo
        } else {
            self.rng.random_range(range.lo..=range.hi)
        }
    }

    /// Draws a spec uniformly from the space, dimension by dimension.
    pub fn sample(&mut self) -> ScenarioSpec {
        let mut spec = ScenarioSpec {
            world: self.space.world,
            traffic_density: 0,
            platoon_followers: 0,
            platoon_spacing_m: 0,
            rsu_count: 0,
            channel: ChannelProfile::Nominal,
            attacker: AttackerPlacement::Early,
            ftti_ms: 0,
            controls: ControlsProfile::All,
        };
        for dim in 0..DIMENSIONS {
            let value = self.draw(self.space.range(dim));
            spec.set_value(dim, value);
        }
        spec
    }

    /// Mutates one randomly chosen dimension of `spec`: snap to the
    /// lower bound, snap to the upper bound, redraw uniformly, or step
    /// by one. The result always lies inside the space.
    pub fn mutate(&mut self, spec: &ScenarioSpec) -> ScenarioSpec {
        let mut out = *spec;
        let dim = self.rng.random_range(0..DIMENSIONS);
        let range = self.space.range(dim);
        let value = match self.rng.random_range(0..4u32) {
            0 => range.lo,
            1 => range.hi,
            2 => self.draw(range),
            _ => {
                let current = spec.value(dim);
                if self.rng.random_bool(0.5) {
                    current.saturating_add(1).clamp(range.lo, range.hi)
                } else {
                    current.saturating_sub(1).clamp(range.lo, range.hi)
                }
            }
        };
        out.set_value(dim, value);
        out
    }

    /// Draws a frontier index in `0..len`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn pick(&mut self, len: usize) -> usize {
        assert!(len > 0, "cannot pick from an empty frontier");
        self.rng.random_range(0..len)
    }
}

/// How a scenario evaluation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ScenarioVerdict {
    /// No fuzz input was rejected and none violated a safety goal.
    Clean,
    /// At least one input was rejected by a security control; no
    /// violation.
    Guarded,
    /// At least one input drove the world into a safety-goal violation.
    Violating,
}

impl ScenarioVerdict {
    /// Stable index of this verdict (0, 1, 2).
    pub fn index(self) -> usize {
        match self {
            ScenarioVerdict::Clean => 0,
            ScenarioVerdict::Guarded => 1,
            ScenarioVerdict::Violating => 2,
        }
    }
}

/// The scenario-dimension coverage model: one byte field per dimension
/// holding its bucket index, so [`CoverageMap`] field cells become
/// `dimension × {Min, Max, Valid, Invalid}` and path indices become
/// `dimension-bucket × verdict`.
pub fn dimension_model() -> ProtocolModel {
    let fields = DIM_NAMES
        .iter()
        .map(|name| FieldSpec::new(*name, FieldKind::Byte { min: 0, max: BUCKETS as u8 - 1 }))
        .collect();
    ProtocolModel::new("scenario-dimensions", fields)
}

/// Total path indices of the scenario coverage model.
pub fn total_paths() -> usize {
    DIMENSIONS * usize::from(BUCKETS) * VERDICTS
}

/// Equal-width bucket of `value` inside `range` (0 when the range is
/// pinned or degenerate).
pub fn bucket(range: DimRange, value: u16) -> u16 {
    let span = range.span();
    if span <= 1 || !range.contains(value) {
        return 0;
    }
    let offset = u32::from(value - range.lo);
    ((offset * u32::from(BUCKETS)) / span).min(u32::from(BUCKETS) - 1) as u16
}

fn value_class(range: DimRange, value: u16) -> ValueClass {
    if !range.contains(value) {
        ValueClass::Invalid
    } else if range.is_pinned() {
        ValueClass::Valid
    } else if value == range.lo {
        ValueClass::Min
    } else if value == range.hi {
        ValueClass::Max
    } else {
        ValueClass::Valid
    }
}

/// Records `spec`'s footprint into `map` and returns how many new
/// coverage points (field cells + path indices) it lit.
///
/// Every dimension contributes one field cell (its boundary class) and
/// one path index (`(dim · BUCKETS + bucket) · VERDICTS + verdict`).
pub fn record_spec(
    map: &mut CoverageMap,
    space: &ScenarioSpace,
    spec: &ScenarioSpec,
    verdict: ScenarioVerdict,
) -> usize {
    let before = map.cells() + map.paths_exercised();
    let choices: Vec<(usize, ValueClass)> =
        (0..DIMENSIONS).map(|dim| (dim, value_class(space.range(dim), spec.value(dim)))).collect();
    let full = GeneratedInput { bytes: Vec::new(), choices, structural: false };
    let path_only = GeneratedInput::empty();
    for dim in 0..DIMENSIONS {
        let b = bucket(space.range(dim), spec.value(dim));
        let path = (dim * usize::from(BUCKETS) + usize::from(b)) * VERDICTS + verdict.index();
        map.record(path, if dim == 0 { &full } else { &path_only });
    }
    map.cells() + map.paths_exercised() - before
}

/// One corpus entry of a scenario search: a spec that lit new coverage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScenarioRecord {
    /// Global iteration index at which the spec was evaluated.
    pub iteration: usize,
    /// Shard that evaluated it.
    pub shard: usize,
    /// The scenario itself.
    pub spec: ScenarioSpec,
    /// How its evaluation ended.
    pub verdict: ScenarioVerdict,
    /// Coverage points (cells + paths) it newly lit in its shard.
    pub new_cells: usize,
}

/// Merged result of a scenario search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSearchReport {
    /// Requested evaluation budget.
    pub budget: usize,
    /// Specs actually evaluated (duplicates are skipped, not re-run).
    pub evaluated: usize,
    /// Distinct field cells lit in the merged coverage map.
    pub cells: usize,
    /// Distinct path indices exercised in the merged coverage map.
    pub paths: usize,
    /// Coverage-increasing scenarios in iteration order, deduplicated
    /// across shards by canonical hash.
    pub corpus: Vec<ScenarioRecord>,
}

impl ScenarioSearchReport {
    /// Total coverage points: field cells plus exercised paths.
    pub fn coverage_points(&self) -> usize {
        self.cells + self.paths
    }

    /// FNV-1a hash of the corpus's canonical JSON — a compact
    /// determinism witness.
    pub fn corpus_hash(&self) -> u64 {
        let json = serde_json::to_string(&self.corpus).expect("scenario corpora always serialize");
        fnv1a64(json.as_bytes())
    }
}

struct ShardOutcome {
    map: CoverageMap,
    records: Vec<ScenarioRecord>,
    evaluated: usize,
}

/// Coverage-guided search over a [`ScenarioSpace`].
///
/// Each evaluated spec is compiled to a world config, exercised by a
/// short seeded fuzz session against the matching [`SimOracle`], and
/// recorded into the scenario-dimension [`CoverageMap`]. Specs that
/// light new coverage join the mutation frontier; odd iterations mutate
/// a frontier pick, even iterations sample fresh.
pub struct ScenarioSearch {
    space: ScenarioSpace,
    base_seed: u64,
    eval_iterations: usize,
    obs: Obs,
}

impl ScenarioSearch {
    /// A search over `space` with base seed `seed`.
    pub fn new(space: ScenarioSpace, seed: u64) -> Self {
        ScenarioSearch {
            space,
            base_seed: seed,
            eval_iterations: DEFAULT_EVAL_ITERATIONS,
            obs: Obs::noop(),
        }
    }

    /// Sets the fuzz inputs per scenario evaluation (clamped to ≥ 1).
    pub fn with_eval_iterations(mut self, iterations: usize) -> Self {
        self.eval_iterations = iterations.max(1);
        self
    }

    /// Attaches an observability sink. The search emits the
    /// `scenario.evaluated` counter and the `scenario.inputs_per_sec`
    /// throughput gauge.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Coverage-guided search over `budget` iterations split over
    /// `shards` shards (0 counts as 1): bit-identical for a fixed
    /// `(seed, shards)` pair.
    pub fn run_parallel(&self, budget: usize, shards: usize) -> ScenarioSearchReport {
        self.search(budget, shards.max(1), true, available_threads())
    }

    /// Pure random-sampling baseline at the same budget: no frontier,
    /// no mutation — every iteration samples fresh.
    pub fn run_random(&self, budget: usize) -> ScenarioSearchReport {
        self.search(budget, 1, false, 1)
    }

    /// The search behind both entry points, with its shards on at most
    /// `max_threads` threads.
    pub(crate) fn search(
        &self,
        budget: usize,
        shards: usize,
        guided: bool,
        max_threads: usize,
    ) -> ScenarioSearchReport {
        let outcomes = run_shards((0..shards).collect(), max_threads, |shard| {
            self.run_shard(budget, shards, shard, guided)
        });

        let mut merged: Option<CoverageMap> = None;
        let mut records: Vec<ScenarioRecord> = Vec::new();
        let mut evaluated = 0;
        for outcome in outcomes {
            match merged.as_mut() {
                Some(map) => map.merge(&outcome.map),
                None => merged = Some(outcome.map),
            }
            records.extend(outcome.records);
            evaluated += outcome.evaluated;
        }
        // Global iteration indices partition across shards, so sorting
        // by iteration alone is a total, shard-count-stable order.
        records.sort_by_key(|record| record.iteration);
        let mut seen = HashSet::new();
        records.retain(|record| seen.insert(record.spec.canonical_hash()));

        let (cells, paths) = match &merged {
            Some(map) => (map.cells(), map.paths_exercised()),
            None => (0, 0),
        };
        self.obs.counter("scenario.corpus", records.len() as u64);
        self.obs.gauge("scenario.cells", cells as f64);
        ScenarioSearchReport { budget, evaluated, cells, paths, corpus: records }
    }

    fn run_shard(&self, budget: usize, shards: usize, shard: usize, guided: bool) -> ShardOutcome {
        let mut sampler = ScenarioSampler::new(self.space, shard_seed(self.base_seed, shard));
        let mut map = CoverageMap::new(&dimension_model(), total_paths());
        let paths = attack_paths(self.space.world);
        let mut frontier: Vec<ScenarioSpec> = Vec::new();
        let mut seen: HashSet<u64> = HashSet::new();
        let mut records = Vec::new();
        let mut evaluated = 0usize;
        let started = Instant::now();
        for iteration in shard_range(budget, shards, shard) {
            let spec = if guided && !frontier.is_empty() && iteration % 2 == 1 {
                let pick = sampler.pick(frontier.len());
                sampler.mutate(&frontier[pick])
            } else {
                sampler.sample()
            };
            let hash = spec.canonical_hash();
            if !seen.insert(hash) {
                continue;
            }
            let verdict = self.evaluate(&spec, hash, &paths);
            evaluated += 1;
            let new_cells = record_spec(&mut map, &self.space, &spec, verdict);
            if new_cells > 0 {
                records.push(ScenarioRecord { iteration, shard, spec, verdict, new_cells });
                if guided {
                    frontier.push(spec);
                }
            }
            self.obs.counter("scenario.evaluated", 1);
            let elapsed = started.elapsed().as_secs_f64();
            if elapsed > 0.0 {
                self.obs.gauge("scenario.inputs_per_sec", evaluated as f64 / elapsed);
            }
        }
        ShardOutcome { map, records, evaluated }
    }

    /// Compiles and exercises one spec. The fuzz seed derives from the
    /// spec's canonical hash (never the shard), so a spec receives the
    /// same verdict wherever — and however often — it is evaluated.
    fn evaluate(&self, spec: &ScenarioSpec, hash: u64, paths: &[AttackPath]) -> ScenarioVerdict {
        let fuzzer = Fuzzer::new(protocol_model(spec.world), self.base_seed ^ hash);
        let report = fuzzer.run(paths, self.eval_iterations, 1, |_| match spec.world {
            WorldKind::Keyless => SimOracle::keyless(
                spec.keyless_config().expect("keyless spec compiles"),
                spec.attack_at(),
            ),
            WorldKind::Construction => SimOracle::construction(
                spec.construction_config().expect("construction spec compiles"),
                spec.attack_at(),
            ),
        });
        if !report.crashes.is_empty() {
            ScenarioVerdict::Violating
        } else if report.rejected > 0 {
            ScenarioVerdict::Guarded
        } else {
            ScenarioVerdict::Clean
        }
    }
}

/// The fixed attack paths a fuzz run against `world` cycles through: one
/// built-in single-leaf tree per demonstrator, on the interface the TARA
/// names for its use case (`BLE_PHONE` for keyless entry, `OBU_RSU` for
/// the construction site).
pub fn attack_paths(world: WorldKind) -> Vec<AttackPath> {
    let tree = match world {
        WorldKind::Keyless => AttackTree::new(
            "Open the vehicle",
            TreeNode::leaf_on("send forged open command", "BLE_PHONE"),
        ),
        WorldKind::Construction => {
            AttackTree::new("Disrupt warnings", TreeNode::leaf_on("spoof signage", "OBU_RSU"))
        }
    };
    tree.expect("built-in trees are well-formed").paths().expect("built-in trees have paths")
}

/// The protocol a fuzz run against `world` generates inputs for: the
/// keyless command frame for keyless entry, the V2X warning payload for
/// the construction site.
pub fn protocol_model(world: WorldKind) -> ProtocolModel {
    match world {
        WorldKind::Keyless => keyless_command_model(),
        WorldKind::Construction => v2x_warning_model(),
    }
}

/// A named scenario inside a data file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NamedScenario {
    /// Human-readable scenario name, unique within its file.
    pub name: String,
    /// The scenario itself.
    pub spec: ScenarioSpec,
}

/// A scenario data file (`*.scn.json`): a declared space plus named
/// concrete scenarios drawn from it. `saseval-lint` validates these
/// (rules SASE025–SASE029).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScenarioFile {
    /// The space every scenario in the file must lie in.
    pub space: ScenarioSpace,
    /// The concrete scenarios.
    pub scenarios: Vec<NamedScenario>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_search(space: ScenarioSpace) -> ScenarioSearch {
        ScenarioSearch::new(space, 7).with_eval_iterations(2)
    }

    #[test]
    fn sampler_is_deterministic_and_in_space() {
        let space = ScenarioSpace::construction_default();
        let mut a = ScenarioSampler::new(space, 42);
        let mut b = ScenarioSampler::new(space, 42);
        for _ in 0..32 {
            let sa = a.sample();
            assert_eq!(sa, b.sample());
            space.validate_spec(&sa).expect("samples lie in the space");
        }
    }

    #[test]
    fn mutations_never_leave_the_space() {
        let space = ScenarioSpace::construction_default();
        let mut sampler = ScenarioSampler::new(space, 9);
        let mut spec = sampler.sample();
        for _ in 0..256 {
            spec = sampler.mutate(&spec);
            space.validate_spec(&spec).expect("mutants lie in the space");
        }
    }

    #[test]
    fn canonical_hash_tracks_spec_identity() {
        let a = ScenarioSpec::keyless_demonstrator();
        let mut b = a;
        assert_eq!(a.canonical_hash(), b.canonical_hash());
        b.ftti_ms += 1;
        assert_ne!(a.canonical_hash(), b.canonical_hash());
    }

    #[test]
    fn demonstrators_compile_to_default_configs() {
        let keyless = ScenarioSpec::keyless_demonstrator();
        let compiled = keyless.keyless_config().expect("keyless demonstrator compiles");
        let hand_built = KeylessConfig { horizon: keyless.horizon(), ..KeylessConfig::default() };
        assert_eq!(
            serde_json::to_string(&compiled).unwrap(),
            serde_json::to_string(&hand_built).unwrap()
        );
        assert!(keyless.construction_config().is_none());

        let construction = ScenarioSpec::construction_demonstrator();
        let compiled =
            construction.construction_config().expect("construction demonstrator compiles");
        let hand_built =
            ConstructionConfig { horizon: construction.horizon(), ..ConstructionConfig::default() };
        assert_eq!(
            serde_json::to_string(&compiled).unwrap(),
            serde_json::to_string(&hand_built).unwrap()
        );
        assert!(construction.keyless_config().is_none());
    }

    #[test]
    fn record_spec_counts_new_coverage_points_once() {
        let space = ScenarioSpace::construction_default();
        let mut map = CoverageMap::new(&dimension_model(), total_paths());
        let spec = ScenarioSpec::construction_demonstrator();
        let first = record_spec(&mut map, &space, &spec, ScenarioVerdict::Clean);
        assert!(first > 0, "a fresh spec lights coverage");
        let second = record_spec(&mut map, &space, &spec, ScenarioVerdict::Clean);
        assert_eq!(second, 0, "re-recording the same spec lights nothing");
        let third = record_spec(&mut map, &space, &spec, ScenarioVerdict::Violating);
        assert!(third > 0, "a new verdict lights new path indices");
    }

    #[test]
    fn search_is_deterministic() {
        let search = tiny_search(ScenarioSpace::keyless_default());
        for shards in [1, 2] {
            assert_eq!(search.run_parallel(6, shards), search.run_parallel(6, shards));
        }
    }

    #[test]
    fn scenario_file_round_trips_through_json() {
        let file = ScenarioFile {
            space: ScenarioSpace::keyless_default(),
            scenarios: vec![NamedScenario {
                name: "demonstrator".into(),
                spec: ScenarioSpec::keyless_demonstrator(),
            }],
        };
        let json = serde_json::to_string_pretty(&file).unwrap();
        let back: ScenarioFile = serde_json::from_str(&json).unwrap();
        assert_eq!(back, file);
    }
}
