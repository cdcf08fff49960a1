//! Golden bytes for the run and campaign JSON.
//!
//! The campaign service's "served result == one-shot result" contract is a
//! byte-level contract on [`run_to_json`], and every paper artifact leaves
//! the simulator as [`CampaignReport::to_json`]. This test pins both
//! outputs, byte for byte, on a tiny fixed campaign that exercises every
//! conditional member and escape: a faulted point, an adversarial point, a
//! zero-op point whose zero-cycle runtime makes every `normalized` value
//! non-finite (so it renders `null`), and a label carrying `"`, `\`, a
//! newline and a control character. (`bytes_per_miss` itself is always
//! finite: the traffic breakdown divides by at least one miss.)
//!
//! The expected bytes live in `tests/golden/`. A change that alters them
//! changes the wire format; update the files only on purpose.

use tc_system::campaign::{Campaign, CampaignReport};
use tc_system::{run_to_json, ExperimentPoint, RunOptions};
use tc_types::{AdversarySpec, FaultSpec, ProtocolKind, SystemConfig};
use tc_workloads::WorkloadProfile;

const GOLDEN_CAMPAIGN: &str = include_str!("golden/campaign.json");
const GOLDEN_RUNS: &str = include_str!("golden/runs.ndjson");

fn point(label: &str, protocol: ProtocolKind) -> ExperimentPoint {
    let mut config = SystemConfig::isca03_default()
        .with_nodes(4)
        .with_protocol(protocol)
        .with_seed(5);
    config.l2.size_bytes = 64 * 1024;
    ExperimentPoint::new(label, config, WorkloadProfile::specjbb())
}

fn options(ops_per_node: u64) -> RunOptions {
    RunOptions {
        ops_per_node,
        max_cycles: 20_000_000,
        ..RunOptions::default()
    }
}

/// The fixed campaign: runs from three small campaigns (plain + faulted,
/// adversarial, zero-op) folded into one report with pinned wall-clock and
/// thread count, so every byte is a function of the simulation alone.
fn golden_report() -> CampaignReport {
    let faults = FaultSpec::parse("drop=0.02,dup=0.01").unwrap();
    let adversary = AdversarySpec::parse("reorder=3,seed=9").unwrap();
    let plain = Campaign::new(vec![
        point("TokenB \"q\"\\b\n\u{7}", ProtocolKind::TokenB),
        point("TokenB-faulted", ProtocolKind::TokenB).with_faults(faults),
        point("Directory", ProtocolKind::Directory),
    ])
    .options(options(120))
    .threads(1)
    .run();
    let adversarial = Campaign::new(vec![point("TokenB-adversary", ProtocolKind::TokenB)])
        .options(options(120).with_adversary(adversary))
        .threads(1)
        .run();
    let idle = Campaign::new(vec![point("Hammer-idle", ProtocolKind::Hammer)])
        .options(options(0))
        .threads(1)
        .run();
    // The idle point leads: its zero-cycle runtime is the normalization
    // baseline, which sends every `normalized` value through the
    // non-finite -> `null` path.
    let mut runs = idle.runs;
    runs.extend(plain.runs);
    runs.extend(adversarial.runs);
    let mut header = options(120).with_adversary(adversary);
    header.faults = faults;
    CampaignReport {
        runs,
        options: header,
        threads: 2,
        wall_seconds: 1.2345,
    }
}

#[test]
fn run_and_campaign_json_match_the_golden_bytes() {
    let report = golden_report();
    let normalized: Vec<f64> = report.runtime_rows().iter().map(|r| r.normalized).collect();
    assert!(
        normalized.iter().all(|n| !n.is_finite()),
        "the idle baseline must send every normalized value to null: {normalized:?}"
    );
    let lines: String = report
        .runs
        .iter()
        .map(|run| run_to_json(&run.label, &run.report) + "\n")
        .collect();
    assert_eq!(lines, GOLDEN_RUNS, "run_to_json bytes changed");
    // Line 1 is the whole report; line 2 drops the idle baseline, so the
    // `normalized` column renders as finite fixed-decimal numbers.
    let campaign = format!(
        "{}\n{}\n",
        report.to_json(),
        report.slice(1, report.runs.len() - 1).to_json()
    );
    assert_eq!(
        campaign, GOLDEN_CAMPAIGN,
        "CampaignReport::to_json bytes changed"
    );
}
