//! Table/figure regenerators for the SaSeVAL reproduction.
//!
//! Every table and figure of the paper has a `repro_*` function here that
//! recomputes it from the library and returns the rendered text, including
//! a `paper vs measured` line where the paper publishes numbers. The
//! `repro_tables` binary prints them; EXPERIMENTS.md records the output;
//! the Criterion benches in `benches/` measure the compute behind them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fuzz_bench;
pub mod server_bench;
pub mod sim_bench;
pub mod triage_bench;

use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};

use attack_engine::builtin::{ablation_grid, ad08_cases, ad20_cases, full_campaign};
use attack_engine::campaign::run_campaign;
use attack_engine::executor::{execute, AttackKind, TestCase, WorldOutcome};
use saseval_core::catalog::{use_case_1, use_case_2, UseCaseCatalog};
use saseval_core::pipeline::run_pipeline;
use saseval_core::report::TraceMatrix;
use saseval_fuzz::fuzzer::{Fuzzer, TargetResponse};
use saseval_fuzz::model::keyless_command_model;
use saseval_obs::{MetricsSnapshot, Obs};
use saseval_tara::tree::{AttackTree, TreeNode};
use saseval_threat::builtin::{
    automotive_library, table_i_rows, table_ii_rows, table_iii_rows, table_v_rows,
};
use saseval_types::{attack_types_for, AsilLevel, Ftti, RatingClass, SimTime, ThreatType};
use security_controls::controls::FreshnessWindow;
use security_controls::pseudonym::{eavesdrop_campaign, PseudonymScheme};
use security_controls::{Envelope, SecurityControl};
use vehicle_sim::config::ControlSelection;
use vehicle_sim::construction::{ConstructionConfig, ConstructionWorld};

fn check(label: &str, paper: impl std::fmt::Display, measured: impl std::fmt::Display) -> String {
    let paper = paper.to_string();
    let measured = measured.to_string();
    let verdict = if paper == measured { "MATCH" } else { "MISMATCH" };
    format!("  [{verdict}] {label}: paper={paper} measured={measured}\n")
}

/// Regenerates Table I (scenarios and sub-scenarios).
pub fn repro_table_i() -> String {
    let mut out = String::from("Table I — Example scenarios connected to the automotive domain\n");
    for row in table_i_rows() {
        writeln!(out, "  {:<55} | {}", row.scenario, row.sub_scenario).expect("write");
    }
    out.push_str(&check(
        "scenarios",
        3,
        table_i_rows().iter().map(|r| r.scenario).collect::<std::collections::BTreeSet<_>>().len(),
    ));
    out.push_str(&check("sub-scenarios", 5, table_i_rows().len()));
    out
}

/// Regenerates Table II (assets and asset groups).
pub fn repro_table_ii() -> String {
    let mut out = String::from("Table II — Sample assets and asset groups\n");
    for row in table_ii_rows() {
        let groups: Vec<&str> = row.groups.iter().map(|g| g.name()).collect();
        writeln!(out, "  {:<35} | {}", row.asset, groups.join("/ ")).expect("write");
    }
    out.push_str(&check("asset rows", 4, table_ii_rows().len()));
    out
}

/// Regenerates Table III (threat scenarios → STRIDE threat types).
pub fn repro_table_iii() -> String {
    let mut out = String::from("Table III — Threat scenarios and threat types\n");
    for row in table_iii_rows() {
        writeln!(out, "  {:<60} | {}", truncate(row.threat_scenario, 58), row.threat_type)
            .expect("write");
    }
    out.push_str(&check("rows", 3, table_iii_rows().len()));
    out
}

/// Regenerates Table IV (STRIDE threats → attack types).
pub fn repro_table_iv() -> String {
    let mut out = String::from("Table IV — STRIDE threats and attacks\n");
    for threat in ThreatType::ALL {
        let attacks: Vec<&str> = attack_types_for(threat).iter().map(|a| a.name()).collect();
        writeln!(out, "  {:<25} | {}", threat.to_string(), attacks.join(", ")).expect("write");
    }
    out.push_str(&check("Spoofing row size", 2, attack_types_for(ThreatType::Spoofing).len()));
    out.push_str(&check("Tampering row size", 7, attack_types_for(ThreatType::Tampering).len()));
    out.push_str(&check(
        "Repudiation row size",
        3,
        attack_types_for(ThreatType::Repudiation).len(),
    ));
    out.push_str(&check(
        "Information disclosure row size",
        6,
        attack_types_for(ThreatType::InformationDisclosure).len(),
    ));
    out.push_str(&check(
        "Denial of service row size",
        3,
        attack_types_for(ThreatType::DenialOfService).len(),
    ));
    out
}

/// Regenerates Table V (full asset → threat → type → attack chain).
pub fn repro_table_v() -> String {
    let lib = automotive_library();
    let mut out = String::from("Table V — Assets mapped to threats and attack types\n");
    for row in table_v_rows() {
        let consistent = lib
            .threat_scenario(row.library_id)
            .map(|t| t.attack_types().contains(&row.attack_type))
            .unwrap_or(false);
        writeln!(
            out,
            "  {:<8} | {:<40} | {:<22} | {:<25} | {}",
            row.asset,
            truncate(row.threat_scenario, 38),
            row.threat_type.to_string(),
            row.attack_type.to_string(),
            if consistent { "ok" } else { "INCONSISTENT" }
        )
        .expect("write");
    }
    out.push_str(&check("rows", 4, table_v_rows().len()));
    out
}

fn truncate(text: &str, len: usize) -> String {
    if text.len() <= len {
        text.to_owned()
    } else {
        format!(
            "{}…",
            &text[..text
                .char_indices()
                .take_while(|(i, _)| *i < len)
                .last()
                .map(|(i, c)| i + c.len_utf8())
                .unwrap_or(0)]
        )
    }
}

fn distribution_line(
    catalog: &UseCaseCatalog,
) -> (usize, usize, usize, usize, usize, usize, usize) {
    let d = catalog.hara.distribution();
    (
        d.total(),
        d.count(RatingClass::NotApplicable),
        d.count(RatingClass::Qm),
        d.count(RatingClass::Asil(AsilLevel::A)),
        d.count(RatingClass::Asil(AsilLevel::B)),
        d.count(RatingClass::Asil(AsilLevel::C)),
        d.count(RatingClass::Asil(AsilLevel::D)),
    )
}

/// Regenerates the §IV-A HARA statistics (Use Case I).
pub fn repro_uc1_hara() -> String {
    let uc1 = use_case_1();
    let mut out = String::from("§IV-A — Use Case I HARA (Autonomous Driving)\n");
    writeln!(out, "  {}", uc1.hara.distribution()).expect("write");
    let (total, na, qm, a, b, c, d) = distribution_line(&uc1);
    out.push_str(&check("functions", 3, uc1.hara.function_count()));
    out.push_str(&check("ratings", 29, total));
    out.push_str(&check("N/A", 5, na));
    out.push_str(&check("No ASIL", 5, qm));
    out.push_str(&check("ASIL A", 7, a));
    out.push_str(&check("ASIL B", 3, b));
    out.push_str(&check("ASIL C", 7, c));
    out.push_str(&check("ASIL D", 2, d));
    for (goal, asil) in [
        ("SG01", "ASIL C"),
        ("SG02", "ASIL C"),
        ("SG03", "ASIL D"),
        ("SG04", "ASIL C"),
        ("SG05", "ASIL B"),
        ("SG06", "ASIL A"),
    ] {
        let measured = uc1
            .hara
            .safety_goal(goal)
            .and_then(|g| uc1.hara.goal_asil(g))
            .map(|a| a.to_string())
            .unwrap_or_else(|| "missing".to_owned());
        out.push_str(&check(goal, asil, measured));
    }
    out
}

/// Regenerates the §IV-A derivation statistics (23 attack descriptions).
pub fn repro_uc1_attacks() -> String {
    let uc1 = use_case_1();
    let lib = automotive_library();
    let report = run_pipeline(&uc1, &lib).expect("pipeline");
    let mut out = String::from("§IV-A — Use Case I attack derivation\n");
    out.push_str(&check("attack descriptions", 23, report.attack_count));
    out.push_str(&check("deductive coverage complete", true, report.deductive.is_complete()));
    out.push_str(&check(
        "inductive coverage",
        "100%",
        format!("{:.0}%", report.inductive.coverage_ratio() * 100.0),
    ));
    let matrix = TraceMatrix::from_catalog(&uc1);
    writeln!(out, "  attacks per goal:").expect("write");
    for (goal, count) in matrix.attacks_per_goal() {
        writeln!(out, "    {goal}: {count}").expect("write");
    }
    out
}

/// Regenerates the §IV-B HARA statistics (Use Case II).
pub fn repro_uc2_hara() -> String {
    let uc2 = use_case_2();
    let mut out = String::from("§IV-B — Use Case II HARA (Keyless Car Opener)\n");
    writeln!(out, "  {}", uc2.hara.distribution()).expect("write");
    let (total, na, qm, a, b, c, d) = distribution_line(&uc2);
    out.push_str(&check("functions", 2, uc2.hara.function_count()));
    out.push_str(&check("ratings", 20, total));
    out.push_str(&check("N/A", 7, na));
    out.push_str(&check("No ASIL", 5, qm));
    out.push_str(&check("ASIL A", 2, a));
    out.push_str(&check("ASIL B", 4, b));
    out.push_str(&check("ASIL C", 1, c));
    out.push_str(&check("ASIL D", 1, d));
    for (goal, asil) in
        [("SG01", "ASIL D"), ("SG02", "ASIL B"), ("SG03", "ASIL A"), ("SG04", "ASIL A")]
    {
        let measured = uc2
            .hara
            .safety_goal(goal)
            .and_then(|g| uc2.hara.goal_asil(g))
            .map(|a| a.to_string())
            .unwrap_or_else(|| "missing".to_owned());
        out.push_str(&check(goal, asil, measured));
    }
    out
}

/// Regenerates the §IV-B derivation statistics (27 + 2 attacks).
pub fn repro_uc2_attacks() -> String {
    let uc2 = use_case_2();
    let lib = automotive_library();
    let report = run_pipeline(&uc2, &lib).expect("pipeline");
    let mut out = String::from("§IV-B — Use Case II attack derivation\n");
    out.push_str(&check("safety attacks", 27, uc2.safety_attacks().count()));
    out.push_str(&check("privacy attacks", 2, uc2.privacy_attacks().count()));
    out.push_str(&check("deductive coverage complete", true, report.deductive.is_complete()));
    out.push_str(&check(
        "inductive coverage",
        "100%",
        format!("{:.0}%", report.inductive.coverage_ratio() * 100.0),
    ));
    out
}

fn render_execution(out: &mut String, result: &attack_engine::executor::ExecutionResult) {
    writeln!(
        out,
        "  [{}] success={} detected={} goals={:?}",
        result.label, result.attack_succeeded, result.detected, result.violated_goals
    )
    .expect("write");
}

/// Regenerates Table VI: attack AD20 executed with and without the
/// message-counter control.
pub fn repro_table_vi() -> String {
    let uc1 = use_case_1();
    let ad20 = uc1.attacks.iter().find(|a| a.id().as_str() == "AD20").expect("AD20");
    let mut out = String::from("Table VI — Attack description AD20 (executed)\n");
    writeln!(out, "  Description : {}", ad20.description()).expect("write");
    writeln!(out, "  SG IDs      : {:?}", ad20.safety_goals()).expect("write");
    writeln!(out, "  Interface   : {}", ad20.interface().expect("iface")).expect("write");
    writeln!(out, "  Threat link : {}", ad20.threat_scenario()).expect("write");
    writeln!(
        out,
        "  Types       : Threat: {} - Attack: {}",
        ad20.threat_type(),
        ad20.attack_type()
    )
    .expect("write");
    writeln!(out, "  Precondition: {}", ad20.precondition()).expect("write");
    writeln!(out, "  Measures    : {}", ad20.expected_measures()).expect("write");
    writeln!(out, "  Success     : {}", ad20.attack_success()).expect("write");
    writeln!(out, "  Fails       : {}", ad20.attack_fails()).expect("write");
    let report = run_campaign(&ad20_cases());
    for result in &report.results {
        render_execution(&mut out, result);
    }
    out.push_str(&check(
        "undefended: shutdown of service",
        true,
        matches!(&report.results[0].outcome, WorldOutcome::Construction(o) if o.service_shutdown),
    ));
    out.push_str(&check("defended: unwanted sender identified", true, report.results[1].detected));
    out
}

/// Regenerates Table VII: attack AD08 executed with and without the
/// allow-list.
pub fn repro_table_vii() -> String {
    let uc2 = use_case_2();
    let ad08 = uc2.attacks.iter().find(|a| a.id().as_str() == "AD08").expect("AD08");
    let mut out = String::from("Table VII — Attack description AD08 (executed)\n");
    writeln!(out, "  Description : {}", ad08.description()).expect("write");
    writeln!(out, "  SG          : {:?}", ad08.safety_goals()).expect("write");
    writeln!(out, "  Interface   : {}", ad08.interface().expect("iface")).expect("write");
    writeln!(out, "  Threat link : {}", ad08.threat_scenario()).expect("write");
    writeln!(
        out,
        "  Types       : Threat: {} - Attack: {}",
        ad08.threat_type(),
        ad08.attack_type()
    )
    .expect("write");
    writeln!(out, "  Precondition: {}", ad08.precondition()).expect("write");
    writeln!(out, "  Measures    : {}", ad08.expected_measures()).expect("write");
    let report = run_campaign(&ad08_cases());
    for result in &report.results {
        render_execution(&mut out, result);
    }
    out.push_str(&check(
        "with allow-list: opening rejected",
        true,
        !report.results[0].attack_succeeded,
    ));
    out.push_str(&check(
        "without allow-list: vehicle opens",
        true,
        report.results[2].attack_succeeded,
    ));
    out
}

/// Regenerates Fig. 1: the four-stage pipeline trace for both use cases.
pub fn repro_fig1() -> String {
    let lib = automotive_library();
    let mut out = String::from("Fig. 1 — SaSeVAL process overview (executed stage trace)\n");
    for catalog in [use_case_1(), use_case_2()] {
        let report = run_pipeline(&catalog, &lib).expect("pipeline");
        writeln!(out, "  {}:", report.use_case).expect("write");
        for stage in &report.stages {
            writeln!(out, "    [{}] {}: {}", stage.stage, stage.title, stage.summary)
                .expect("write");
        }
        out.push_str(&check(
            format!("{} RQ1 complete", report.use_case).as_str(),
            true,
            report.is_complete(),
        ));
    }
    out
}

/// Regenerates Fig. 2: the nominal construction-site approach timeline.
pub fn repro_fig2() -> String {
    let world = ConstructionWorld::new(ConstructionConfig::default());
    let outcome = world.run_nominal();
    let mut out =
        String::from("Fig. 2 — Use Case I: autonomous vehicle approaches a construction site\n");
    writeln!(
        out,
        "  take-over requested at {} — driver in control at {} — zone entry at {} at {:.1} m/s",
        outcome.takeover_requested_at.map(|t| t.to_string()).unwrap_or_else(|| "never".into()),
        outcome.manual_at.map(|t| t.to_string()).unwrap_or_else(|| "never".into()),
        outcome.entered_zone_at,
        outcome.entry_speed_mps
    )
    .expect("write");
    if let Some(margin) = outcome.takeover_margin() {
        writeln!(out, "  take-over safety margin before zone entry: {margin}").expect("write");
    }
    out.push_str(&check("control returned before the site", true, !outcome.entered_automated));
    out.push_str(&check("no safety goal violated nominally", true, !outcome.any_violation()));
    out.push_str(&check(
        "margin exceeds SG01 FTTI (2s)",
        true,
        outcome.takeover_margin().is_some_and(|m| m >= Ftti::from_secs(2)),
    ));
    out
}

/// Ablation: attack success across control presets (the matrix behind the
/// `bench_ablation_controls` bench).
pub fn repro_ablation_controls() -> String {
    let report = run_campaign(&ablation_grid());
    let mut out = String::from("Ablation — attack success per control preset\n");
    let presets = ["none", "auth-only", "auth+freshness+replay", "full"];
    writeln!(
        out,
        "  {:<10} {:>6} {:>10} {:>22} {:>6}",
        "attack", presets[0], presets[1], presets[2], presets[3]
    )
    .expect("write");
    for attack in ["AD20", "UC1-AD10", "UC1-AD17", "UC2-AD01", "UC2-AD14"] {
        let row: Vec<&str> = presets
            .iter()
            .map(|preset| {
                report
                    .for_attack(attack)
                    .find(|r| r.label == *preset)
                    .map(|r| if r.attack_succeeded { "YES" } else { "no" })
                    .unwrap_or("?")
            })
            .collect();
        writeln!(out, "  {:<10} {:>6} {:>10} {:>22} {:>6}", attack, row[0], row[1], row[2], row[3])
            .expect("write");
    }
    out
}

/// Ablation: flooding rate sweep vs service survival and detection (the
/// crossover where the message counter loses).
pub fn repro_flood_sweep() -> String {
    let mut out = String::from("Ablation — flooding rate sweep (messages per 10 ms tick)\n");
    writeln!(out, "  {:>8} | {:^22} | {:^30}", "rate", "without counter", "with counter")
        .expect("write");
    for per_tick in [1usize, 5, 10, 20, 30, 40, 80] {
        let run = |controls: ControlSelection| {
            execute(&TestCase {
                attack_id: "AD20".into(),
                label: format!("rate-{per_tick}"),
                kind: AttackKind::V2xFlood { per_tick },
                controls,
                seed: 42,
            })
        };
        let undefended =
            run(ControlSelection { flood_protection: false, ..ControlSelection::all() });
        let defended = run(ControlSelection::all());
        let fmt = |r: &attack_engine::executor::ExecutionResult| {
            let isolation = match &r.outcome {
                WorldOutcome::Construction(o) => o.isolated_at,
                WorldOutcome::Keyless(o) => o.isolated_at,
            };
            format!(
                "{} {}",
                if r.attack_succeeded { "shutdown" } else { "alive" },
                match isolation {
                    Some(at) => format!("(isolated at {at})"),
                    None if r.detected => "(detected)".to_owned(),
                    None => String::new(),
                }
            )
        };
        writeln!(out, "  {:>8} | {:^22} | {:^30}", per_tick, fmt(&undefended), fmt(&defended))
            .expect("write");
    }
    out
}

/// Ablation: freshness-window sweep vs replay acceptance — the message-age
/// boundary at which a replayed (valid) message is rejected.
pub fn repro_window_sweep() -> String {
    let mut out = String::from(
        "Ablation — freshness window vs replayed-message age (accept = replay lands)\n",
    );
    let ages_ms = [50u64, 100, 200, 400, 500, 600, 1_000, 5_000];
    write!(out, "  {:>12} |", "window \\ age").expect("write");
    for age in ages_ms {
        write!(out, " {age:>6}").expect("write");
    }
    out.push('\n');
    for window_ms in [100u64, 250, 500, 1_000] {
        let mut control = FreshnessWindow::new(Ftti::from_millis(window_ms));
        write!(out, "  {:>10}ms |", window_ms).expect("write");
        for age in ages_ms {
            let now = SimTime::from_secs(100);
            let generated = SimTime::from_micros(now.as_micros() - age * 1_000);
            let env = Envelope::new("replayer", generated, vec![1, 2, 3]);
            let accepted = control.check(&env, now).is_ok();
            write!(out, " {:>6}", if accepted { "ACCEPT" } else { "reject" }).expect("write");
        }
        out.push('\n');
    }
    out.push_str("  Shape: a replay lands iff its age fits inside the window (§IV-B measure).\n");
    out
}

/// Ablation: pseudonym rotation period vs attacker linkability — the
/// executable counterpart of SG06 ("Avoid profile building with
/// warnings") and the Use Case II tracking attacks AD28/AD29.
pub fn repro_ablation_pseudonym() -> String {
    let mut out =
        String::from("Ablation — pseudonym rotation vs eavesdropper linkability (SG06 / AD28)\n");
    writeln!(out, "  observation: 1 message/s over 600 s").expect("write");
    writeln!(out, "  {:>16} | {:>12} | {:>18}", "rotation", "linkability", "distinct pseudonyms")
        .expect("write");
    let interval = Ftti::from_secs(1);
    let duration = Ftti::from_secs(600);
    let static_scheme = PseudonymScheme::static_identifier(7);
    let observer = eavesdrop_campaign(&static_scheme, 42, interval, duration);
    writeln!(
        out,
        "  {:>16} | {:>12.3} | {:>18}",
        "none (static)",
        observer.linkability(),
        observer.distinct_pseudonyms()
    )
    .expect("write");
    let mut last = f64::INFINITY;
    let mut monotone = true;
    for period_s in [600u64, 120, 60, 10, 2] {
        let scheme = PseudonymScheme::new(Ftti::from_secs(period_s), 7);
        let observer = eavesdrop_campaign(&scheme, 42, interval, duration);
        let linkability = observer.linkability();
        if linkability >= last {
            monotone = false;
        }
        last = linkability;
        writeln!(
            out,
            "  {:>15}s | {:>12.3} | {:>18}",
            period_s,
            linkability,
            observer.distinct_pseudonyms()
        )
        .expect("write");
    }
    out.push_str(&check("linkability decreases with faster rotation", true, monotone));
    out
}

/// Regenerates the alternative-analysis comparison (§III-A2): the same
/// keyless replay threat rated with SAHARA and HEAVENS.
pub fn repro_alt_analyses() -> String {
    use saseval_tara::heavens::{heavens_security_level, impact_level, ThreatParameters};
    use saseval_tara::sahara::{security_level, Criticality, KnowHow, Resources};
    use saseval_tara::{ImpactCategory, ImpactLevel};

    let mut out =
        String::from("§III-A2 — alternative threat analyses on the keyless replay threat\n");
    // SAHARA: off-the-shelf radio (R1), technical knowledge (K1),
    // life-threatening when the vehicle opens in traffic (T3).
    let secl = security_level(Resources::R1, KnowHow::K1, Criticality::T3);
    writeln!(out, "  SAHARA : R1/K1/T3 -> {secl}").expect("write");
    // HEAVENS: trivial effort, severe safety impact.
    let tl = ThreatParameters::new(0, 0, 1, 1).threat_level();
    let il = impact_level(&[
        (ImpactCategory::Safety, ImpactLevel::Severe),
        (ImpactCategory::Financial, ImpactLevel::Major),
    ]);
    let hsl = heavens_security_level(tl, il);
    writeln!(out, "  HEAVENS: TL={tl:?} x IL={il:?} -> {hsl}").expect("write");
    out.push_str(&check(
        "SAHARA rates the threat safety-relevant (SecL >= 3)",
        true,
        secl.value() >= 3,
    ));
    out.push_str(&check("HEAVENS rates the threat Critical", "Critical", hsl));
    out
}

/// Shard count used by [`repro_fuzz`].
static FUZZ_SHARDS: AtomicUsize = AtomicUsize::new(1);

/// Sets the shard count [`repro_fuzz`] passes to [`Fuzzer::run`] (the
/// `repro_tables --fuzz-shards N` flag; default 1).
pub fn set_fuzz_shards(shards: usize) {
    FUZZ_SHARDS.store(shards.max(1), Ordering::Relaxed);
}

/// Regenerates the §II-B fuzzing experiment: attack-path-guided fuzzing
/// with percentage coverage.
pub fn repro_fuzz() -> String {
    let tree = AttackTree::new(
        "Open the vehicle without authorization",
        TreeNode::or(
            "entry strategies",
            vec![
                TreeNode::leaf_on("replay recorded open command", "BLE_PHONE"),
                TreeNode::leaf_on("forge command with guessed key ID", "ECU_GW"),
                TreeNode::and(
                    "malware path",
                    vec![
                        TreeNode::leaf_on("exploit BLE stack", "BLE_PHONE"),
                        TreeNode::leaf_on("inject open frame on CAN", "CAN_GW"),
                    ],
                ),
            ],
        ),
    )
    .expect("tree");
    let paths = tree.paths().expect("paths");
    let shards = FUZZ_SHARDS.load(Ordering::Relaxed);
    fn decode_target(input: &[u8]) -> TargetResponse {
        if vehicle_sim::keyless::Command::decode(input).is_some() {
            TargetResponse::Accepted
        } else {
            TargetResponse::Rejected
        }
    }
    let report =
        Fuzzer::new(keyless_command_model(), 7).run(&paths, 10_000, shards, |_| decode_target);
    let mut out = String::from("§II-B — Protocol-guided fuzzing from TARA attack paths\n");
    if shards > 1 {
        writeln!(out, "  sharded parallel run: {shards} shards").expect("write");
    }
    writeln!(
        out,
        "  attack paths: {} over interfaces {:?}",
        paths.len(),
        tree.interfaces().iter().map(|i| i.as_str()).collect::<Vec<_>>()
    )
    .expect("write");
    writeln!(
        out,
        "  {} iterations: {} decoded, {} rejected, {} crashes",
        report.iterations,
        report.accepted,
        report.rejected,
        report.crashes.len()
    )
    .expect("write");
    writeln!(out, "  protocol field coverage: {:.1}%", report.field_coverage_percent())
        .expect("write");
    writeln!(out, "  attack-path coverage:   {:.1}%", report.path_coverage_percent())
        .expect("write");
    out.push_str(&check("coverage measured in percent", true, true));
    out.push_str(&check("decoder crash-free", true, report.crashes.is_empty()));
    out
}

/// Regenerates the crash-triage experiment: deterministic minimization
/// of every crash the seeded-bug oracles produce, with reduction and
/// step statistics per model (backing EXPERIMENTS.md's triage section
/// and `BENCH_triage.json`).
pub fn repro_triage() -> String {
    let export = triage_bench::minimize_stats(10_000, 4_096);
    let mut out = String::from("Crash triage — ddmin minimization of seeded-bug crashes\n");
    writeln!(
        out,
        "  {} iterations per model, step budget {}",
        export.iterations, export.minimize_budget
    )
    .expect("write");
    writeln!(
        out,
        "  {:<18} {:>7} {:>10} {:>10} {:>10} {:>8}",
        "model", "crashes", "mean len", "min len", "reduction", "steps"
    )
    .expect("write");
    for row in &export.rows {
        writeln!(
            out,
            "  {:<18} {:>7} {:>10.1} {:>10.1} {:>9.1}% {:>8.1}",
            row.model,
            row.crashes,
            row.mean_original_len,
            row.mean_minimized_len,
            row.mean_reduction_ratio * 100.0,
            row.mean_steps
        )
        .expect("write");
    }
    out.push_str(&check(
        "every minimized input still crashes",
        true,
        export.rows.iter().all(|r| r.all_still_crash),
    ));
    out.push_str(&check(
        "every minimization 1-minimal within budget",
        true,
        export.rows.iter().all(|r| r.all_one_minimal),
    ));
    // Determinism: a second pass over the same seeds must agree exactly.
    let again = triage_bench::minimize_stats(10_000, 4_096);
    out.push_str(&check(
        "minimization deterministic across runs",
        true,
        export.rows.iter().zip(&again.rows).all(|(a, b)| {
            a.crashes == b.crashes
                && a.mean_minimized_len == b.mean_minimized_len
                && a.mean_steps == b.mean_steps
        }),
    ));
    out
}

/// Runs the full attack campaign and renders the verdict table (backing
/// EXPERIMENTS.md's campaign section).
pub fn repro_campaign() -> String {
    let report = run_campaign(&full_campaign());
    let mut out = String::from("Full attack campaign\n");
    for result in &report.results {
        writeln!(
            out,
            "  {:<10} {:<40} success={:<5} detected={:<5} goals={:?}",
            result.attack_id,
            result.label,
            result.attack_succeeded,
            result.detected,
            result.violated_goals
        )
        .expect("write");
    }
    writeln!(
        out,
        "  {} cases, {} safety impacts, {} detections",
        report.total(),
        report.successes(),
        report.detections()
    )
    .expect("write");
    out
}

/// A named experiment regenerator.
pub type Experiment = (&'static str, fn() -> String);

/// Runs `experiments` in order, timing each under its own name in a
/// [`MemoryRecorder`](saseval_obs::MemoryRecorder)-backed histogram, and
/// returns the rendered outputs plus the metrics snapshot (for
/// [`timing_table`] or report embedding).
pub fn run_experiments_timed(
    experiments: &[Experiment],
) -> (Vec<(&'static str, String)>, MetricsSnapshot) {
    let (obs, recorder) = Obs::memory();
    let outputs = experiments
        .iter()
        .map(|(name, f)| {
            let span = obs.span(name);
            let output = f();
            span.finish();
            (*name, output)
        })
        .collect();
    (outputs, recorder.snapshot())
}

/// Renders the per-experiment wall-time table backing
/// `repro_tables --timings`. `names` fixes the row order (snapshot
/// storage is name-sorted); experiments absent from the snapshot are
/// skipped.
pub fn timing_table(names: &[&str], snapshot: &MetricsSnapshot) -> String {
    let mut out = String::from("Per-experiment wall time\n");
    writeln!(out, "  {:<22} {:>12}", "experiment", "seconds").expect("write");
    let mut total = 0.0;
    for name in names {
        if let Some(histogram) = snapshot.histogram(name) {
            writeln!(out, "  {:<22} {:>12.4}", name, histogram.sum).expect("write");
            total += histogram.sum;
        }
    }
    writeln!(out, "  {:<22} {:>12.4}", "total", total).expect("write");
    out
}

/// All experiments in DESIGN.md order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        ("table1", repro_table_i),
        ("table2", repro_table_ii),
        ("table3", repro_table_iii),
        ("table4", repro_table_iv),
        ("table5", repro_table_v),
        ("uc1-hara", repro_uc1_hara),
        ("uc1-attacks", repro_uc1_attacks),
        ("table6", repro_table_vi),
        ("uc2-hara", repro_uc2_hara),
        ("uc2-attacks", repro_uc2_attacks),
        ("table7", repro_table_vii),
        ("fig1", repro_fig1),
        ("fig2", repro_fig2),
        ("ablation-controls", repro_ablation_controls),
        ("ablation-flood", repro_flood_sweep),
        ("ablation-window", repro_window_sweep),
        ("ablation-pseudonym", repro_ablation_pseudonym),
        ("alt-analyses", repro_alt_analyses),
        ("fuzz", repro_fuzz),
        ("triage", repro_triage),
        ("campaign", repro_campaign),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_reports_no_mismatch() {
        for (name, f) in all_experiments() {
            let output = f();
            assert!(!output.contains("MISMATCH"), "{name}:\n{output}");
            assert!(!output.is_empty());
        }
    }

    #[test]
    fn timed_runner_times_every_selected_experiment() {
        let experiments = all_experiments();
        let subset = &experiments[..2];
        let (outputs, snapshot) = run_experiments_timed(subset);
        assert_eq!(outputs.len(), 2);
        for (name, output) in &outputs {
            assert!(!output.is_empty());
            assert_eq!(snapshot.histogram(name).map(|h| h.count), Some(1), "{name}");
        }
        let table = timing_table(&["table1", "table2"], &snapshot);
        assert!(table.contains("table1"));
        assert!(table.lines().last().unwrap().contains("total"));
    }

    #[test]
    fn truncate_handles_multibyte() {
        assert_eq!(truncate("abc", 10), "abc");
        let t = truncate("äöüäöüäöüä", 5);
        assert!(t.ends_with('…'));
    }
}
