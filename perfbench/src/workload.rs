//! Seeded job sequences for the three workloads.
//!
//! Every request line is a pure function of `(workload, seed, index)`,
//! so two runs with the same seed send the same lines, whatever the
//! timing. The server only ever sees the generated job text.

use saseval_fuzz::scenario::DEFAULT_EVAL_ITERATIONS;
use saseval_server::job::{JobSpec, ScenarioSpec, DEFAULT_ATTACK_AT_MS, DEFAULT_HORIZON_MS};

/// Memory-tier capacity of the default server configuration; the
/// replay working set is sized as a multiple of it.
pub const MEMORY_TIER_ENTRIES: usize = 128;

/// Replay working-set size: four times the memory tier, so a stable
/// share of requests is answered by the disk tier.
pub const WORKING_SET: usize = 4 * MEMORY_TIER_ENTRIES;

/// Zipf exponent of the replay popularity distribution.
pub const ZIPF_EXPONENT: f64 = 1.0;

/// Share of replay requests sent in a re-spelled form (shuffled field
/// order, spelled-out defaults), so the server's canonicalization memo
/// misses while the cache still hits.
pub const RESPELL_SHARE: f64 = 0.1;

/// Campaign-mix requests are laid out in blocks of this many jobs with
/// a fixed composition (see [`campaign_mix_job`]).
pub const MIX_BLOCK: usize = 100;

/// Fuzz-fresh requests are laid out in blocks of this many jobs, of
/// which [`FUZZ_LONG`] are long (see [`fuzz_fresh_job`]).
pub const FUZZ_BLOCK: usize = 100;

/// Long jobs per fuzz-fresh block: 3 %, so the 99th percentile falls
/// inside the long class, with a third of it beyond.
pub const FUZZ_LONG: usize = 3;

/// One slot in every this many campaign-mix jobs is a lint job, while
/// distinct (catalog, suite) combinations remain.
pub const LINT_EVERY: usize = 50;

/// SplitMix64: a small, fully specified generator, so sequences do not
/// depend on any library's RNG stream.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// A generator for element `index` of the stream keyed by `seed`
    /// and `salt`.
    pub fn at(seed: u64, salt: u64, index: u64) -> Self {
        let mut base = SplitMix(seed ^ salt.rotate_left(32));
        SplitMix(base.next_u64() ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// SplitMix64's finalizer: a bijection on `u64` that scatters nearby
/// inputs across the whole range.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, never-seen fuzz jobs: every request misses.
    FuzzFresh,
    /// Closed loop, fresh campaign, scenario and lint jobs.
    CampaignMix,
    /// Open loop, Zipf-skewed repeats answered by the cache.
    ReplayHits,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::FuzzFresh, Workload::CampaignMix, Workload::ReplayHits];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FuzzFresh => "fuzz-fresh",
            Workload::CampaignMix => "campaign-mix",
            Workload::ReplayHits => "replay-hits",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether every request of the workload is a never-seen job.
    pub fn is_fresh(self) -> bool {
        !matches!(self, Workload::ReplayHits)
    }
}

/// Job kind, for per-kind layer metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// `{"Fuzz":…}`
    Fuzz,
    /// `{"Campaign":…}`
    Campaign,
    /// `{"Lint":…}`
    Lint,
    /// `{"Scenario":…}`
    Scenario,
}

impl Kind {
    /// Every kind.
    pub const ALL: [Kind; 4] = [Kind::Fuzz, Kind::Campaign, Kind::Lint, Kind::Scenario];

    /// Lower-case metric suffix.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Fuzz => "fuzz",
            Kind::Campaign => "campaign",
            Kind::Lint => "lint",
            Kind::Scenario => "scenario",
        }
    }

    /// The kind of a spec.
    pub fn of(spec: &JobSpec) -> Kind {
        match spec {
            JobSpec::Fuzz(_) => Kind::Fuzz,
            JobSpec::Campaign(_) => Kind::Campaign,
            JobSpec::Lint(_) => Kind::Lint,
            JobSpec::Scenario(_) => Kind::Scenario,
        }
    }
}

/// One request's job: the wire text sent and the spec it parses to.
#[derive(Debug, Clone)]
pub struct Job {
    /// The job's JSON text as sent (`{"Fuzz":{…}}`).
    pub line: String,
    /// The parsed spec.
    pub spec: JobSpec,
}

impl Job {
    /// Parses generated job text; the generators only emit valid specs.
    pub fn from_line(line: String) -> Job {
        let spec = serde_json::from_str(&line).expect("generated job text parses");
        Job { line, spec }
    }

    /// The job's kind.
    pub fn kind(&self) -> Kind {
        Kind::of(&self.spec)
    }
}

/// A JSON object written from `(key, value-text)` fields, in the order
/// given.
fn object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", body.join(","))
}

/// Wraps a job body in its external tag.
fn tagged(tag: &str, body: String) -> String {
    format!("{{\"{tag}\":{body}}}")
}

const PRESETS: [&str; 3] = ["All", "None", "AuthOnly"];
const CHEAP_SUITES: [&str; 4] = ["Jamming", "Ad08", "Delay", "Replay"];
const ALL_SUITES: [&str; 8] =
    ["Full", "Ad20", "Ad08", "Replay", "CanFlood", "Delay", "Jamming", "Ablation"];
const CATALOGS: [&str; 2] = ["UseCase1", "UseCase2"];

/// A job seed for position `index` of a stream: distinct per index (a
/// bijection of it) and well scattered, since job seeds feed RNGs whose
/// streams may correlate for nearby seeds.
fn distinct_seed(seed: u64, salt: u64, index: u64) -> u64 {
    mix64(SplitMix::at(seed, salt, 0).next_u64().wrapping_add(index))
}

fn fuzz_line(scenario: &str, preset: &str, iterations: u64, seed: u64) -> String {
    let inner = tagged(scenario, object(&[("controls", format!("\"{preset}\""))]));
    tagged(
        "Fuzz",
        object(&[
            ("scenario", inner),
            ("iterations", iterations.to_string()),
            ("seed", seed.to_string()),
        ]),
    )
}

fn campaign_line(suite: &str, seed: u64) -> String {
    tagged("Campaign", object(&[("suite", format!("\"{suite}\"")), ("seed", seed.to_string())]))
}

fn scenario_line(budget: u64, seed: u64) -> String {
    tagged("Scenario", object(&[("budget", budget.to_string()), ("seed", seed.to_string())]))
}

fn lint_line(catalog: &str, suite: Option<&str>) -> String {
    let mut fields = vec![("catalog", format!("\"{catalog}\""))];
    if let Some(suite) = suite {
        fields.push(("suite", format!("\"{suite}\"")));
    }
    tagged("Lint", object(&fields))
}

/// Job `index` of the fuzz-fresh sequence. Jobs come in blocks of
/// [`FUZZ_BLOCK`]; [`FUZZ_LONG`] seeded slots of each block hold a long
/// keyless job without controls (4096–4352 iterations, ≈60 ms and a
/// ≈270 KB payload), and the other slots hold the regular jobs in
/// order. The long class sets the 99th percentile from inside it (of
/// every thousand jobs, ten long ones lie beyond it and twenty below
/// it), so the tail measures the longest fuzz runs and the largest
/// payloads rather than where host stalls happen to land on ≈15 ms
/// jobs.
///
/// Regular jobs alternate keyless and construction; within each run of
/// three jobs of one scenario the three control presets appear once
/// each in a seeded order, so the class mix is exact at every length;
/// iterations are drawn from 768..=1280 (mean 1024) so per-class
/// latencies blend into one smooth distribution. Every fuzz seed is
/// distinct.
pub fn fuzz_fresh_job(seed: u64, index: usize) -> Job {
    let (block, slot) = (index / FUZZ_BLOCK, index % FUZZ_BLOCK);
    let mut slots: [usize; FUZZ_BLOCK] = std::array::from_fn(|i| i);
    SplitMix::at(seed, 0xF3, block as u64).shuffle(&mut slots);
    let long = &slots[..FUZZ_LONG];
    if long.contains(&slot) {
        let iterations = 4096 + SplitMix::at(seed, 0xF4, index as u64).below(257);
        let job_seed = distinct_seed(seed, 0xF5, index as u64);
        return Job::from_line(fuzz_line("Keyless", "None", iterations, job_seed));
    }
    let regular =
        block * (FUZZ_BLOCK - FUZZ_LONG) + slot - long.iter().filter(|&&s| s < slot).count();
    let scenario = if regular.is_multiple_of(2) { "Keyless" } else { "Construction" };
    let round = regular / 6;
    let mut order = PRESETS;
    SplitMix::at(seed, 0xF0, round as u64).shuffle(&mut order);
    let preset = order[(regular % 6) / 2];
    let iterations = 768 + SplitMix::at(seed, 0xF1, regular as u64).below(513);
    let job_seed = distinct_seed(seed, 0xF2, regular as u64);
    Job::from_line(fuzz_line(scenario, preset, iterations, job_seed))
}

/// Every (catalog, suite) lint combination, the static analysis first.
pub fn lint_combinations() -> Vec<(&'static str, Option<&'static str>)> {
    CATALOGS
        .iter()
        .flat_map(|&c| {
            std::iter::once((c, None)).chain(ALL_SUITES.iter().map(move |&s| (c, Some(s))))
        })
        .collect()
}

/// The job-class layout of one campaign-mix block of [`MIX_BLOCK`]
/// jobs, before the lint slots are overlaid. Cheap campaign suites
/// (≈1 ms, 25 %) sit below scenario searches (≈3–8 ms, 70 %), so the
/// median falls well inside the scenario class rather than on a class
/// boundary. The long suites are a 5 % minority; the 2 % `Full` share
/// (≈0.25 s each) is the slowest class and sets the 99th percentile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MixClass {
    Cheap,
    Scenario,
    Suite(&'static str),
}

fn mix_block_layout() -> Vec<MixClass> {
    let mut layout = Vec::with_capacity(MIX_BLOCK);
    layout.extend([MixClass::Cheap; 25]);
    layout.extend([MixClass::Scenario; 70]);
    layout.extend([MixClass::Suite("CanFlood"); 2]);
    layout.push(MixClass::Suite("Ad20"));
    layout.extend([MixClass::Suite("Full"); 2]);
    debug_assert_eq!(layout.len(), MIX_BLOCK);
    layout
}

/// The first campaign-mix jobs: every `Ablation`-bearing job (≈0.5 s
/// and ≈90 MB each, the largest in the mix). Both clients start the
/// first two together, and the next two when those finish, so the
/// heaviest jobs always overlap the same way and the process's peak
/// memory does not depend on when they happen to meet later on.
pub const MIX_HEAD: usize = 4;

/// Job `index` of the campaign-mix sequence. The first [`MIX_HEAD`]
/// jobs are the two `Ablation` lint combinations and two `Ablation`
/// campaigns. After them, blocks of [`MIX_BLOCK`] jobs follow a seeded
/// permutation of a fixed class layout, and one slot in every
/// [`LINT_EVERY`] (at a seeded offset) carries the next remaining lint
/// combination, in a seeded order, until all have run; the slot then
/// keeps its layout class. Campaign and scenario seeds are distinct per
/// index, so every job is fresh.
pub fn campaign_mix_job(seed: u64, index: usize) -> Job {
    let job_seed = distinct_seed(seed, 0xC4, index as u64);
    match index {
        0 | 1 => return Job::from_line(lint_line(CATALOGS[index], Some("Ablation"))),
        2 | 3 => return Job::from_line(campaign_line("Ablation", job_seed)),
        _ => {}
    }
    let index = index - MIX_HEAD;
    let lint_offset = SplitMix::at(seed, 0xC0, 0).below(LINT_EVERY as u64) as usize;
    if index % LINT_EVERY == lint_offset {
        let mut combos: Vec<_> =
            lint_combinations().into_iter().filter(|&(_, s)| s != Some("Ablation")).collect();
        SplitMix::at(seed, 0xC1, 0).shuffle(&mut combos);
        if let Some(&(catalog, suite)) = combos.get(index / LINT_EVERY) {
            return Job::from_line(lint_line(catalog, suite));
        }
    }
    let mut layout = mix_block_layout();
    SplitMix::at(seed, 0xC2, (index / MIX_BLOCK) as u64).shuffle(&mut layout);
    let mut rng = SplitMix::at(seed, 0xC3, index as u64);
    let line = match layout[index % MIX_BLOCK] {
        MixClass::Cheap => {
            campaign_line(CHEAP_SUITES[rng.below(CHEAP_SUITES.len() as u64) as usize], job_seed)
        }
        MixClass::Scenario => scenario_line(16 + rng.below(49), job_seed),
        MixClass::Suite(suite) => campaign_line(suite, job_seed),
    };
    Job::from_line(line)
}

/// The replay working set: [`WORKING_SET`] distinct jobs of all four
/// kinds, cheap enough to fill at set-up. Fuzz jobs use 64–256
/// iterations (keyless `None` payloads run to tens of KB, so disk reads
/// carry real bytes), campaigns use the cheap suites, scenario searches
/// a budget of 16, and lint jobs every static and cheap-suite
/// combination.
pub fn replay_working_set(seed: u64) -> Vec<Job> {
    let mut lines: Vec<String> = lint_combinations()
        .into_iter()
        .filter(|(_, suite)| suite.is_none_or(|s| CHEAP_SUITES.contains(&s)))
        .map(|(catalog, suite)| lint_line(catalog, suite))
        .collect();
    let mut index = 0u64;
    while lines.len() < WORKING_SET {
        let mut rng = SplitMix::at(seed, 0xA0, index);
        let job_seed = distinct_seed(seed, 0xA1, index);
        lines.push(match index % 3 {
            0 => {
                let scenario = if rng.below(2) == 0 { "Keyless" } else { "Construction" };
                let preset = PRESETS[rng.below(3) as usize];
                fuzz_line(scenario, preset, 64 + rng.below(193), job_seed)
            }
            1 => campaign_line(CHEAP_SUITES[rng.below(4) as usize], job_seed),
            _ => scenario_line(16, job_seed),
        });
        index += 1;
    }
    // Popularity rank is a seeded permutation, so the hottest entries
    // are of every kind.
    SplitMix::at(seed, 0xA2, 0).shuffle(&mut lines);
    lines.into_iter().map(Job::from_line).collect()
}

/// Cumulative Zipf(`exponent`) weights over ranks `1..=n`, normalised
/// to end at 1.
pub fn zipf_cdf(n: usize, exponent: f64) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(n);
    let mut total = 0.0;
    for rank in 1..=n {
        total += 1.0 / (rank as f64).powf(exponent);
        cdf.push(total);
    }
    for weight in &mut cdf {
        *weight /= total;
    }
    cdf
}

/// Draws a rank index (0-based) from a Zipf CDF.
pub fn zipf_draw(cdf: &[f64], rng: &mut SplitMix) -> usize {
    let u = rng.unit();
    cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
}

/// One replay request: which working-set entry, and the text to send.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayRequest {
    /// Index into the working set.
    pub entry: usize,
    /// Whether the text is a re-spelling of the entry's canonical line.
    pub respelled: bool,
    /// The job text to send.
    pub line: String,
}

/// Request `index` of the replay-hits sequence: a Zipf-skewed pick from
/// the working set, re-spelled with probability [`RESPELL_SHARE`].
pub fn replay_request(seed: u64, index: usize, set: &[Job], cdf: &[f64]) -> ReplayRequest {
    let mut rng = SplitMix::at(seed, 0xB0, index as u64);
    let entry = zipf_draw(cdf, &mut rng);
    let respelled = rng.unit() < RESPELL_SHARE;
    let line =
        if respelled { respell(&set[entry].spec, &mut rng) } else { set[entry].line.clone() };
    ReplayRequest { entry, respelled, line }
}

/// Pushes `(name, value)` onto `fields` with probability ½.
fn maybe(
    rng: &mut SplitMix,
    fields: &mut Vec<(&'static str, String)>,
    name: &'static str,
    value: String,
) {
    if rng.below(2) == 0 {
        fields.push((name, value));
    }
}

/// A semantically identical spelling of `spec`: every field in a seeded
/// order, each defaulted field either omitted or spelled out. The
/// server must canonicalize it onto the same cache key.
pub fn respell(spec: &JobSpec, rng: &mut SplitMix) -> String {
    let (tag, mut fields) = match spec {
        JobSpec::Fuzz(job) => {
            let (scenario_tag, controls, horizon_ms, attack_at_ms) = match job.scenario {
                ScenarioSpec::Keyless(s) => ("Keyless", s.controls, s.horizon_ms, s.attack_at_ms),
                ScenarioSpec::Construction(s) => {
                    ("Construction", s.controls, s.horizon_ms, s.attack_at_ms)
                }
            };
            let mut inner = vec![("controls", format!("\"{controls:?}\""))];
            let horizon = if horizon_ms == 0 { DEFAULT_HORIZON_MS } else { horizon_ms };
            maybe(rng, &mut inner, "horizon_ms", horizon.to_string());
            let attack_at = if attack_at_ms == 0 { DEFAULT_ATTACK_AT_MS } else { attack_at_ms };
            maybe(rng, &mut inner, "attack_at_ms", attack_at.to_string());
            rng.shuffle(&mut inner);
            let mut fields = vec![
                ("scenario", tagged(scenario_tag, object(&inner))),
                ("iterations", job.iterations.to_string()),
                ("seed", job.seed.to_string()),
            ];
            maybe(rng, &mut fields, "shards", job.shards.max(1).to_string());
            // Batch size is erased from the key, so any value is a
            // re-spelling.
            let batch = 1 + rng.below(32);
            maybe(rng, &mut fields, "batch", batch.to_string());
            ("Fuzz", fields)
        }
        JobSpec::Campaign(job) => (
            "Campaign",
            vec![("suite", format!("\"{:?}\"", job.suite)), ("seed", job.seed.to_string())],
        ),
        JobSpec::Lint(job) => {
            let mut fields = vec![("catalog", format!("\"{:?}\"", job.catalog))];
            match job.suite {
                Some(suite) => fields.push(("suite", format!("\"{suite:?}\""))),
                None => maybe(rng, &mut fields, "suite", "null".into()),
            }
            maybe(rng, &mut fields, "artifacts", "0".into());
            ("Lint", fields)
        }
        JobSpec::Scenario(job) => {
            let mut fields =
                vec![("budget", job.budget.to_string()), ("seed", job.seed.to_string())];
            maybe(rng, &mut fields, "shards", job.shards.max(1).to_string());
            let eval = if job.eval_iterations == 0 {
                DEFAULT_EVAL_ITERATIONS
            } else {
                job.eval_iterations
            };
            maybe(rng, &mut fields, "eval_iterations", eval.to_string());
            let space = serde_json::to_string(&job.space).expect("scenario spaces serialize");
            maybe(rng, &mut fields, "space", space);
            ("Scenario", fields)
        }
    };
    rng.shuffle(&mut fields);
    tagged(tag, object(&fields))
}
