//! TARA ↔ HARA ↔ fuzzing integration: the §II-B workflow end to end.

use saseval::controls::mac::MacKey;
use saseval::controls::{ControlStack, Envelope};
use saseval::core::catalog::use_case_1;
use saseval::fuzz::fuzzer::{Fuzzer, TargetResponse};
use saseval::fuzz::model::v2x_warning_model;
use saseval::tara::tree::{AttackTree, TreeNode};
use saseval::tara::{
    cross_check, risk_level, AttackFeasibility, CrossCheckOutcome, DamageScenario,
    FeasibilityFactors, ImpactCategory, ImpactLevel,
};
use saseval::types::SimTime;

fn damage_scenarios() -> Vec<DamageScenario> {
    vec![
        // Aligns with Use Case I's Rat01 hazard.
        DamageScenario::builder("DS-CRASH", "Manipulated warnings cause a crash into road works")
            .impact(ImpactCategory::Safety, ImpactLevel::Severe)
            .impact(ImpactCategory::Operational, ImpactLevel::Major)
            .asset("V2X_COMM")
            .build()
            .unwrap(),
        // Cybersecurity-only: not a fault-induced hazard.
        DamageScenario::builder(
            "DS-RANSOM",
            "Ransomware renders the infotainment backend unusable until payment",
        )
        .impact(ImpactCategory::Safety, ImpactLevel::Moderate)
        .impact(ImpactCategory::Financial, ImpactLevel::Major)
        .build()
        .unwrap(),
        // Privacy-only: excluded from the safety cross-check.
        DamageScenario::builder("DS-PROFILE", "Movement profiles of the vehicle are built")
            .impact(ImpactCategory::Privacy, ImpactLevel::Major)
            .build()
            .unwrap(),
    ]
}

#[test]
fn tara_hara_cross_check_classifies_paper_style() {
    // §II-B: damage scenarios either align with hazardous events
    // (refine via HARA) or are cybersecurity-only.
    let uc1 = use_case_1();
    let report = cross_check(&damage_scenarios(), &uc1.hara);
    let (comparable, cyber_only, not_safety) = report.counts();
    assert_eq!((comparable, cyber_only, not_safety), (1, 1, 1));

    let crash = &report.matches[0];
    assert_eq!(crash.outcome, CrossCheckOutcome::Comparable);
    assert!(
        crash.matched_hazards.iter().any(|r| r.as_str() == "Rat01"),
        "aligned with the paper's Rat01 excerpt: {crash:?}"
    );
}

#[test]
fn risk_assessment_prioritizes_easy_high_impact_attacks() {
    // Replay with an off-the-shelf radio: high feasibility.
    let replay = FeasibilityFactors::new(0, 1, 0, 1, 1);
    // Multi-expert bespoke relay setup: low feasibility.
    let relay = FeasibilityFactors::new(3, 4, 3, 2, 3);
    assert_eq!(replay.feasibility(), AttackFeasibility::High);
    assert_eq!(relay.feasibility(), AttackFeasibility::Low);

    let severe_easy = risk_level(ImpactLevel::Severe, replay.feasibility());
    let severe_hard = risk_level(ImpactLevel::Severe, relay.feasibility());
    assert!(severe_easy > severe_hard);
    assert_eq!(severe_easy.value(), 5);
    assert!(severe_hard.needs_treatment());
}

fn uc1_attack_tree() -> AttackTree {
    AttackTree::new(
        "Prevent the take-over at the construction site",
        TreeNode::or(
            "disruption strategies",
            vec![
                TreeNode::leaf_on("jam the V2X channel", "OBU_RSU"),
                TreeNode::and(
                    "flood the OBU",
                    vec![
                        TreeNode::leaf_on("obtain credentials", "OBU_RSU"),
                        TreeNode::leaf_on("send extra messages at high frequency", "OBU_RSU"),
                    ],
                ),
                TreeNode::and(
                    "suppress warnings",
                    vec![
                        TreeNode::leaf_on("intercept RSU frames", "OBU_RSU"),
                        TreeNode::leaf_on("forward corrupted copies", "OBU_RSU"),
                    ],
                ),
            ],
        ),
    )
    .unwrap()
}

#[test]
fn attack_tree_paths_drive_fuzzer_with_full_path_coverage() {
    // §II-B testing type 2: TARA attack paths define the fuzzed
    // interfaces; coverage is measured in percent.
    let tree = uc1_attack_tree();
    let paths = tree.paths().unwrap();
    assert_eq!(paths.len(), 3);
    assert_eq!(tree.interfaces().len(), 1, "all paths act on OBU_RSU");

    // Target: the OBU admission stack over the V2X warning payload,
    // with the same signage-plausibility predicate the construction
    // world deploys. Isolation is disabled: a fuzzer hammers one sender
    // by design.
    let key = MacKey::new(0xA11CE);
    let fuzzer = Fuzzer::new(v2x_warning_model(), 99);
    let report = fuzzer.run(&paths, 5_000, 1, |_| {
        let mut stack = ControlStack::new("OBU-fuzz");
        stack.set_isolation_threshold(u32::MAX);
        stack.push(saseval::controls::controls::PlausibilityCheck::new(
            "signage-plausibility",
            |env, _| match env.payload() {
                [2, limit, ..] if !(5..=130).contains(limit) => {
                    Err(format!("speed limit {limit} outside [5, 130]"))
                }
                _ => Ok(()),
            },
        ));
        move |input: &[u8]| {
            let envelope = Envelope::new("fuzz", SimTime::ZERO, input.to_vec());
            // Plausibility check applies to the first byte = limit
            // semantics of the simplified model; rejection is the
            // expected response.
            if stack.admit(&envelope, SimTime::ZERO).is_accepted() {
                TargetResponse::Accepted
            } else {
                TargetResponse::Rejected
            }
        }
    });
    let _ = key;
    assert_eq!(report.path_coverage_percent(), 100.0);
    assert!(report.field_coverage_percent() >= 75.0);
    assert!(report.crashes.is_empty());
    assert!(report.accepted > 0 && report.rejected > 0);
}

#[test]
fn fuzzer_finds_seeded_decoder_bug_from_attack_paths() {
    // A deliberately buggy OBU decoder: panics (modelled as Crash) when a
    // signage frame carries limit zero — the classic missed boundary.
    let tree = uc1_attack_tree();
    let paths = tree.paths().unwrap();
    let fuzzer = Fuzzer::new(v2x_warning_model(), 1234);
    let report = fuzzer.run(&paths, 5_000, 1, |_| {
        |input: &[u8]| match input {
            [2, 0] => TargetResponse::Crash,
            [t, _] if (1..=3).contains(t) => TargetResponse::Accepted,
            _ => TargetResponse::Rejected,
        }
    });
    assert!(!report.crashes.is_empty(), "seeded bug found");
    let finding = &report.crashes[0];
    assert_eq!(finding.input, [2, 0]);
    assert!(finding.path_goal.contains("take-over"));
}

#[test]
fn path_limit_guards_combinatorial_trees() {
    // An AND of 5 ORs with 8 children each would yield 32 768 paths;
    // enumeration must stop at the bound instead of exploding.
    let ors: Vec<TreeNode> = (0..5)
        .map(|i| {
            TreeNode::or(
                format!("stage-{i}"),
                (0..8).map(|j| TreeNode::leaf(format!("step-{i}-{j}"))).collect(),
            )
        })
        .collect();
    let tree = AttackTree::new("combinatorial", TreeNode::and("all stages", ors)).unwrap();
    assert!(tree.paths().is_err(), "default limit (10k) exceeded");
    assert_eq!(tree.paths_bounded(40_000).unwrap().len(), 32_768);
}
