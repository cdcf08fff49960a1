//! The benchmark's workloads and the simulated digest of their results.

use std::fmt;

use tc_system::experiment::{base_config, figure5a_points};
use tc_system::{ExperimentPoint, RunOptions, RunReport};
use tc_testkit::Scenario;
use tc_types::{BandwidthMode, ProtocolKind, TopologyKind};
use tc_workloads::WorkloadProfile;

/// Names accepted by `--workload`, in the order `all` runs them.
pub const NAMES: [&str; 3] = ["tokenb16", "scale64", "fig5"];

/// Operations per node of the `tokenb16` run.
const TOKENB16_OPS: u64 = 8_000;
/// Operations per node of the `scale64` run.
const SCALE64_OPS: u64 = 600;
/// Operations per node of each Figure 5a point.
const FIG5_OPS: u64 = 800;

/// One workload: the experiment points it runs and their run options.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub points: Vec<ExperimentPoint>,
    pub options: RunOptions,
}

impl Workload {
    /// Builds the named workload with every point seeded from `seed`.
    pub fn by_name(name: &str, seed: u64) -> Option<Workload> {
        let (name, points, options) = match name {
            "tokenb16" => {
                let config = base_config()
                    .with_protocol(ProtocolKind::TokenB)
                    .with_topology(TopologyKind::Torus)
                    .with_bandwidth(BandwidthMode::Limited)
                    .with_seed(seed);
                let point = ExperimentPoint::new(
                    "oltp: TokenB-Torus (3.2GB/s)",
                    config,
                    WorkloadProfile::oltp(),
                );
                let options = RunOptions {
                    ops_per_node: TOKENB16_OPS,
                    ..RunOptions::default()
                };
                ("tokenb16", vec![point], options)
            }
            "scale64" => {
                let scenario = Scenario::sweep64();
                let point = scenario.experiment_point(ProtocolKind::TokenB, seed);
                let options = RunOptions {
                    ops_per_node: SCALE64_OPS,
                    ..scenario.run_options()
                };
                ("scale64", vec![point], options)
            }
            "fig5" => {
                let points = WorkloadProfile::commercial()
                    .iter()
                    .flat_map(|profile| {
                        figure5a_points(profile).into_iter().map(|mut p| {
                            p.label = format!("{}: {}", profile.name, p.label);
                            p.config = p.config.with_seed(seed);
                            p
                        })
                    })
                    .collect();
                let options = RunOptions {
                    ops_per_node: FIG5_OPS,
                    ..RunOptions::standard()
                };
                ("fig5", points, options)
            }
            _ => return None,
        };
        Some(Workload {
            name,
            points,
            options,
        })
    }

    /// Why a run of `point` failed, if it did.
    pub fn run_failure(&self, point: &ExperimentPoint, report: &RunReport) -> Option<String> {
        run_failure(point, &self.options, report)
    }
}

/// Why a run of `point` under `options` failed, if it did: violations, or
/// fewer operations than every node's target.
pub fn run_failure(
    point: &ExperimentPoint,
    options: &RunOptions,
    report: &RunReport,
) -> Option<String> {
    if let Some(v) = report.violations.first() {
        return Some(format!(
            "{}: {} violation(s), first: {v:?}",
            point.label,
            report.violations.len()
        ));
    }
    let target = options.ops_per_node * point.config.num_nodes as u64;
    (report.total_ops < target).then(|| {
        format!(
            "{}: completed {} of {target} operations",
            point.label, report.total_ops
        )
    })
}

/// The simulated results of one run that a speed-only change must leave
/// identical. Printed with every result, never gated as a metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Digest {
    pub events_delivered: u64,
    pub runtime_cycles: u64,
    pub total_ops: u64,
    pub misses: u64,
    pub bytes_per_miss: f64,
    pub miss_latency_p50: u64,
    pub miss_latency_p99: u64,
    pub state_bytes: u64,
}

impl Digest {
    pub fn of(report: &RunReport) -> Digest {
        let m = &report.misses;
        Digest {
            events_delivered: report.engine.events_delivered,
            runtime_cycles: report.runtime_cycles,
            total_ops: report.total_ops,
            misses: m.read_misses + m.write_misses + m.upgrade_misses,
            bytes_per_miss: report.bytes_per_miss(),
            miss_latency_p50: report.miss_latency_p50,
            miss_latency_p99: report.miss_latency_p99,
            state_bytes: report.engine.state.state_bytes,
        }
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "events={} cycles={} ops={} misses={} bytes/miss={:.3} lat_p50={} lat_p99={} state_bytes={}",
            self.events_delivered,
            self.runtime_cycles,
            self.total_ops,
            self.misses,
            self.bytes_per_miss,
            self.miss_latency_p50,
            self.miss_latency_p99,
            self.state_bytes
        )
    }
}
