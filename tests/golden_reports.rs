//! Golden `RunReport`s for the three MOSI baselines.
//!
//! Conformance and restore-equivalence check that runs are violation-free
//! and agree with each other; neither pins absolute numbers. This test pins
//! the full `{:#?}` of the [`RunReport`] — controller counters, per-class
//! traffic, latency percentiles and the engine's line-state peaks
//! (`state_bytes` included) — for Directory (in-DRAM and perfect), Hammer
//! and Snooping on the ordered tree across the four standard contended
//! workloads, plus one Directory and one Hammer run under delay and reorder
//! faults, which both protocols tolerate. A refactor of the protocol
//! controllers must leave every byte alone.
//!
//! The expected text lives in `tests/golden/reports.txt`. On a mismatch the
//! test writes what it produced next to the build's temporary files and
//! names that path; update the golden file only on purpose.

use std::fmt::Write as _;

use token_coherence::prelude::*;
use token_coherence::types::FaultSpec;

use tc_testkit::Scenario;

const GOLDEN: &str = include_str!("golden/reports.txt");

/// Operations per node: enough for evictions, writebacks and racing
/// upgrades on every workload while keeping the debug-build run short.
const OPS_PER_NODE: u64 = 200;

const SEED: u64 = 11;

fn run(scenario: &Scenario, config: &SystemConfig, faults: FaultSpec) -> RunReport {
    let mut system = System::build(config, &scenario.workload);
    system.run(RunOptions {
        ops_per_node: OPS_PER_NODE,
        max_cycles: scenario.max_cycles,
        faults,
        ..RunOptions::default()
    })
}

fn golden_text() -> String {
    let perfect = |scenario: &Scenario| {
        let mut config = scenario.config(ProtocolKind::Directory, SEED);
        config.directory_mode = DirectoryMode::Perfect;
        config
    };
    let faults = FaultSpec::parse("delay=0.05@300,reorder=3,seed=5").expect("valid fault spec");
    let mut text = String::new();
    let mut emit = |label: String, report: RunReport| {
        assert!(
            report.violations.is_empty(),
            "{label}: {:?}",
            report.violations
        );
        writeln!(text, "== {label}\n{report:#?}").expect("writing to a String");
    };
    for scenario in Scenario::standard() {
        for protocol in [
            ProtocolKind::Directory,
            ProtocolKind::Hammer,
            ProtocolKind::Snooping,
        ] {
            let config = scenario.config(protocol, SEED);
            emit(
                format!("{}/{protocol}", scenario.name),
                run(&scenario, &config, FaultSpec::none()),
            );
        }
        emit(
            format!("{}/Directory-perfect", scenario.name),
            run(&scenario, &perfect(&scenario), FaultSpec::none()),
        );
    }
    let scenario = Scenario::by_name("oltp_calibration").expect("standard scenario");
    for protocol in [ProtocolKind::Directory, ProtocolKind::Hammer] {
        let config = scenario.config(protocol, SEED);
        emit(
            format!("{}/{protocol}/faults", scenario.name),
            run(&scenario, &config, faults),
        );
    }
    text
}

#[test]
fn mosi_baseline_reports_match_the_golden_text() {
    let actual = golden_text();
    if actual != GOLDEN {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden_reports.txt");
        std::fs::write(&path, &actual).expect("writing the actual reports");
        let line = actual
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, g)| a != g)
            .map_or_else(|| "past the end".to_string(), |i| format!("{}", i + 1));
        panic!(
            "MOSI baseline reports differ from tests/golden/reports.txt at line {line}; \
             the actual text is in {}",
            path.display()
        );
    }
}
