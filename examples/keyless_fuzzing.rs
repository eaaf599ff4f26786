//! Protocol-guided fuzzing of the keyless-opener command decoder, driven
//! by TARA attack paths (paper §II-B, testing type 2).
//!
//! Builds the attack tree for the "open the vehicle" goal, extracts the
//! attack paths (which name the fuzzable interfaces), and fuzzes the
//! 33-byte keyless command frame against the gateway's decoder +
//! admission stack. Coverage is reported in percent, as the paper
//! prescribes.
//!
//! ```sh
//! cargo run --example keyless_fuzzing
//! ```

use saseval::controls::controls::{FreshnessWindow, MacAuthenticator, ReplayDetector};
use saseval::controls::mac::{MacKey, Tag};
use saseval::controls::{ControlStack, Envelope};
use saseval::fuzz::fuzzer::{Fuzzer, TargetResponse};
use saseval::fuzz::model::keyless_command_model;
use saseval::sim::keyless::Command;
use saseval::tara::tree::{AttackTree, TreeNode};
use saseval::types::{Ftti, SimTime};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // TARA attack tree for Use Case II's SG01 (paper §II-B).
    let tree = AttackTree::new(
        "Open the vehicle without authorization",
        TreeNode::or(
            "entry strategies",
            vec![
                TreeNode::and(
                    "relay attack",
                    vec![
                        TreeNode::leaf_on("relay BLE advertisement", "BLE_PHONE"),
                        TreeNode::leaf_on("forward challenge to real key", "BLE_PHONE"),
                    ],
                ),
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
    )?;
    let paths = tree.paths()?;
    println!("Attack tree: goal {:?}", tree.goal());
    println!(
        "  {} leaves, {} attack paths, interfaces: {:?}\n",
        tree.leaf_count(),
        paths.len(),
        tree.interfaces().iter().map(|i| i.as_str()).collect::<Vec<_>>()
    );
    for (i, path) in paths.iter().enumerate() {
        println!("  path {i}: {}", path.steps().collect::<Vec<_>>().join(" -> "));
    }

    // The fuzz target: decode + admission through the gateway stack,
    // built by the factory for the run's single shard.
    let fuzzer = Fuzzer::new(keyless_command_model(), 0xC0FFEE);
    let now = SimTime::from_secs(1);
    let report = fuzzer.run(&paths, 20_000, 1, |_| {
        let mut stack = ControlStack::new("GW-fuzz");
        stack.push(MacAuthenticator::new(MacKey::new(0xF00D)));
        stack.push(FreshnessWindow::new(Ftti::from_millis(500)));
        stack.push(ReplayDetector::new(8_192));
        move |input: &[u8]| {
            let Some(command) = Command::decode(input) else {
                return TargetResponse::Rejected;
            };
            let mut envelope =
                Envelope::new("fuzz-sender", SimTime::from_micros(command.ts), vec![command.cmd])
                    .with_claimed_id(command.key_id);
            if command.tag != 0 {
                envelope = envelope.with_tag(Tag::from_raw(command.tag));
            }
            if stack.admit(&envelope, now).is_accepted() {
                TargetResponse::Accepted
            } else {
                TargetResponse::Rejected
            }
        }
    });

    println!("\nFuzzing report ({} iterations):", report.iterations);
    println!("  accepted: {}, rejected: {}", report.accepted, report.rejected);
    println!("  crashes/violations: {}", report.crashes.len());
    println!("  protocol field coverage: {:.1}%", report.field_coverage_percent());
    println!("  attack-path coverage:   {:.1}%", report.path_coverage_percent());
    assert!(report.crashes.is_empty(), "the admission stack must never crash");
    Ok(())
}
