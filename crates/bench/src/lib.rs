//! Shared machinery for the `tc-bench` experiment CLI and the engine
//! throughput benchmark.
//!
//! One binary, `tc-bench`, resolves *named campaigns* — each regenerating a
//! table or figure of the paper's evaluation — from the
//! `tc_system::experiment` point catalogs and executes them through the
//! multi-threaded `tc_system::Campaign` driver:
//!
//! | campaign       | paper artifact |
//! |----------------|----------------|
//! | `table1`       | Table 1 — target system parameters |
//! | `table2`       | Table 2 — reissued / persistent request rates |
//! | `fig4-runtime` | Figure 4a — runtime, Snooping vs TokenB |
//! | `fig4-traffic` | Figure 4b — traffic, Snooping vs TokenB |
//! | `fig5-runtime` | Figure 5a — runtime, Directory & Hammer vs TokenB |
//! | `fig5-traffic` | Figure 5b — traffic, Directory & Hammer vs TokenB |
//! | `scalability`  | Section 6, Question 5 — traffic scaling to 64 processors |
//! | `sweep64`      | 64-node scale sweep, with wall-clock recording for `BENCH_engine.json` |
//! | `faultsweep`   | Robustness: every protocol under its tolerated fault classes |
//!
//! Run `tc-bench list` for the catalog. Options are shared across
//! campaigns: `--ops N` (operations per node), `--threads N` (campaign
//! worker threads), `--workload NAME` (restrict figure campaigns to one
//! workload), `--protocol NAME` (filter points), `--faults SPEC` (inject a
//! fault spec such as `drop=0.01,dup=0.005,reorder=4` into every point that
//! does not carry its own), `--json PATH` (dump the campaign report), and
//! for `sweep64` additionally `--record PATH` (merge wall-clock fields into
//! a `BENCH_engine.json`-style file) and `--serial-baseline` (also run
//! single-threaded, check bit-identical reports, and record the speedup).

#![warn(missing_docs)]

use tc_system::campaign::CampaignReport;
use tc_system::experiment::{
    figure4a_points, figure4b_points, figure5a_points, figure5b_points, scalability_points,
    table2_points, ExperimentPoint,
};
use tc_types::{Json, ProtocolKind, SystemConfig, TrafficClass};
use tc_workloads::WorkloadProfile;

/// How one campaign section's reports are rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableKind {
    /// Normalized runtime (Figures 4a / 5a).
    Runtime,
    /// Traffic breakdown in bytes per miss (Figures 4b / 5b).
    Traffic,
    /// Reissue-rate percentages (Table 2).
    Reissue,
    /// Bytes-per-miss comparison across node counts (Question 5).
    Scalability,
    /// Runtime plus traffic plus miss latency (the scale sweep).
    Sweep,
    /// Injected-fault counts and recovery statistics (the fault sweep).
    Fault,
}

/// One renderable slice of a campaign: a title plus the points it runs.
#[derive(Debug, Clone)]
pub struct Section {
    /// Section heading, e.g. `"Workload: OLTP"`.
    pub title: String,
    /// The experiment points of this section.
    pub points: Vec<ExperimentPoint>,
    /// How to render the section's reports.
    pub table: TableKind,
}

/// A named campaign in the `tc-bench` catalog.
#[derive(Debug, Clone, Copy)]
pub struct CampaignSpec {
    /// Canonical name (`tc-bench <name>`).
    pub name: &'static str,
    /// Accepted aliases (the retired per-figure binary names).
    pub aliases: &'static [&'static str],
    /// One-line description for `tc-bench list`.
    pub about: &'static str,
    /// What the paper reports for this artifact, printed after the tables.
    pub paper_note: &'static str,
}

/// The campaign catalog: every table and figure of the evaluation plus the
/// scale sweep.
pub const CAMPAIGNS: &[CampaignSpec] = &[
    CampaignSpec {
        name: "table1",
        aliases: &[],
        about: "Table 1: target system parameters (no simulation)",
        paper_note: "",
    },
    CampaignSpec {
        name: "table2",
        aliases: &[],
        about: "Table 2: TokenB reissue / persistent request rates per commercial workload",
        paper_note: "Paper reports (Table 2): Apache 95.75 / 3.25 / 0.71 / 0.29, OLTP 97.57 / \
                     1.79 / 0.43 / 0.21, SPECjbb 97.60 / 2.03 / 0.30 / 0.07, average 96.97 / \
                     2.36 / 0.48 / 0.19.",
    },
    CampaignSpec {
        name: "fig4-runtime",
        aliases: &["fig4_runtime", "fig4a"],
        about: "Figure 4a: runtime of Snooping (tree) vs TokenB (tree and torus)",
        paper_note: "Paper reports (Figure 4a): with the same tree interconnect Snooping is 1-5% \
                     faster than TokenB (reissues); by exploiting the unordered torus, TokenB \
                     becomes 26-65% faster than Snooping-on-Tree with 3.2 GB/s links and 15-28% \
                     faster with unlimited bandwidth.",
    },
    CampaignSpec {
        name: "fig4-traffic",
        aliases: &["fig4_traffic", "fig4b"],
        about: "Figure 4b: traffic (bytes/miss) of TokenB vs Snooping",
        paper_note: "Paper reports (Figure 4b): TokenB and Snooping use approximately the same \
                     interconnect bandwidth; data responses and writebacks dominate both, with \
                     broadcast requests a modest additional component for TokenB (plus a small \
                     sliver of reissued requests).",
    },
    CampaignSpec {
        name: "fig5-runtime",
        aliases: &["fig5_runtime", "fig5a"],
        about: "Figure 5a: runtime of TokenB vs Hammer vs Directory on the torus",
        paper_note: "Paper reports (Figure 5a): TokenB is 17-54% faster than Directory and 8-29% \
                     faster than Hammer by removing the home-node indirection from cache-to-cache \
                     misses; Hammer is 7-17% faster than Directory by avoiding the DRAM directory \
                     lookup; even with a perfect (zero-cycle) directory, TokenB remains 6-18% \
                     faster than Directory.",
    },
    CampaignSpec {
        name: "fig5-traffic",
        aliases: &["fig5_traffic", "fig5b"],
        about: "Figure 5b: traffic (bytes/miss) of TokenB vs Hammer vs Directory",
        paper_note: "Paper reports (Figure 5b): Directory uses 21-25% less traffic than TokenB \
                     (both are dominated by 72-byte data messages), while Hammer uses 79-90% more \
                     than TokenB because every miss broadcasts probes and collects an \
                     acknowledgement from every node.",
    },
    CampaignSpec {
        name: "scalability",
        aliases: &["question5"],
        about: "Question 5: TokenB vs Directory vs Hammer traffic at 16/32/64 nodes",
        paper_note: "Paper reports: TokenB's broadcast limits scalability — at 64 processors it \
                     uses roughly twice the interconnect bandwidth of Directory (but far less \
                     than Hammer, whose acknowledgement storm grows fastest). TokenB remains \
                     practical to perhaps 32-64 processors when bandwidth is plentiful.",
    },
    CampaignSpec {
        name: "sweep64",
        aliases: &["sweep"],
        about: "64-node scale sweep (every protocol on every legal topology, contended OLTP)",
        paper_note: "",
    },
    CampaignSpec {
        name: "faultsweep",
        aliases: &["faults"],
        about: "Robustness: each protocol under every fault class it contracts to survive",
        paper_note: "The paper's decoupling argument (Section 3.4): transient requests are \
                     performance hints, so TokenB tolerates a fabric that drops, duplicates, \
                     delays, and reorders them — reissue timeouts and persistent requests \
                     restore liveness while token counting keeps safety. The ordered baselines \
                     tolerate only the classes their ordering assumptions survive.",
    },
];

/// Resolves a campaign by name or alias, ignoring case and treating `-`/`_`
/// as equivalent.
pub fn resolve_campaign(name: &str) -> Option<&'static CampaignSpec> {
    let normalize = |s: &str| s.replace(['-', '_'], "").to_ascii_lowercase();
    let wanted = normalize(name);
    CAMPAIGNS.iter().find(|spec| {
        normalize(spec.name) == wanted || spec.aliases.iter().any(|a| normalize(a) == wanted)
    })
}

/// The commercial workloads a figure campaign iterates, or just the one the
/// user asked for.
fn figure_workloads(only: Option<&WorkloadProfile>) -> Vec<WorkloadProfile> {
    match only {
        Some(workload) => vec![workload.clone()],
        None => WorkloadProfile::commercial(),
    }
}

/// The node counts of the scalability campaign.
pub const SCALABILITY_NODE_COUNTS: [usize; 3] = [16, 32, 64];

/// Builds the sections of a simulation campaign (everything except
/// `table1`, which prints a static parameter table). Returns `None` for
/// unknown names and for `table1`.
pub fn campaign_sections(name: &str, workload: Option<&WorkloadProfile>) -> Option<Vec<Section>> {
    let spec = resolve_campaign(name)?;
    let sections = match spec.name {
        "table2" => vec![Section {
            title: "Table 2: overhead due to reissued requests (TokenB, 16-node torus)".to_string(),
            points: table2_points(),
            table: TableKind::Reissue,
        }],
        "fig4-runtime" => figure_workloads(workload)
            .into_iter()
            .map(|w| Section {
                title: format!("Workload: {}", w.name),
                points: figure4a_points(&w),
                table: TableKind::Runtime,
            })
            .collect(),
        "fig4-traffic" => figure_workloads(workload)
            .into_iter()
            .map(|w| Section {
                title: format!("Workload: {}", w.name),
                points: figure4b_points(&w),
                table: TableKind::Traffic,
            })
            .collect(),
        "fig5-runtime" => figure_workloads(workload)
            .into_iter()
            .map(|w| Section {
                title: format!("Workload: {}", w.name),
                points: figure5a_points(&w),
                table: TableKind::Runtime,
            })
            .collect(),
        "fig5-traffic" => figure_workloads(workload)
            .into_iter()
            .map(|w| Section {
                title: format!("Workload: {}", w.name),
                points: figure5b_points(&w),
                table: TableKind::Traffic,
            })
            .collect(),
        "scalability" => SCALABILITY_NODE_COUNTS
            .iter()
            .map(|&nodes| Section {
                title: format!("{nodes} nodes"),
                points: scalability_points(nodes),
                table: TableKind::Scalability,
            })
            .collect(),
        "sweep64" => vec![Section {
            title: "64-node scale sweep (contended OLTP, every legal protocol/topology)"
                .to_string(),
            points: tc_system::experiment::sweep64_points(),
            table: TableKind::Sweep,
        }],
        "faultsweep" => vec![Section {
            title: "Fault sweep: contract-gated injection, contended hot-block, 4-node torus"
                .to_string(),
            points: tc_system::experiment::faultsweep_points(),
            table: TableKind::Fault,
        }],
        _ => return None, // table1 has no simulation sections
    };
    Some(sections)
}

/// Renders the Table 2 reissue percentages (plus the cross-workload average
/// row) from a campaign report.
pub fn render_reissue_table(report: &CampaignReport) -> String {
    let mut out = format!(
        "{:<12} {:>14} {:>14} {:>15} {:>14}\n",
        "workload", "not reissued", "reissued once", "reissued > once", "persistent"
    );
    let mut averages = [0.0f64; 4];
    for run in &report.runs {
        let row = run.report.table2_row();
        for (avg, value) in averages.iter_mut().zip(row.iter()) {
            *avg += value / report.runs.len() as f64;
        }
        out.push_str(&format!(
            "{:<12} {:>13.2}% {:>13.2}% {:>14.2}% {:>13.2}%\n",
            run.label, row[0], row[1], row[2], row[3]
        ));
    }
    out.push_str(&format!(
        "{:<12} {:>13.2}% {:>13.2}% {:>14.2}% {:>13.2}%\n",
        "Average", averages[0], averages[1], averages[2], averages[3]
    ));
    out
}

/// Renders the Question 5 scalability comparison: one row per node count,
/// one column per protocol, from the per-node-count campaign slices.
pub fn render_scalability_table(slices: &[(usize, CampaignReport)]) -> String {
    let mut out = format!(
        "{:>6} {:>18} {:>18} {:>18} {:>12}\n",
        "nodes", "TokenB B/miss", "Directory B/miss", "Hammer B/miss", "TokenB/Dir"
    );
    for (nodes, slice) in slices {
        let find = |protocol: ProtocolKind| {
            slice
                .runs
                .iter()
                .find(|run| run.report.protocol == protocol)
                .map(|run| run.report.bytes_per_miss())
                .unwrap_or(f64::NAN)
        };
        let tokenb = find(ProtocolKind::TokenB);
        let directory = find(ProtocolKind::Directory);
        let hammer = find(ProtocolKind::Hammer);
        out.push_str(&format!(
            "{:>6} {:>18.1} {:>18.1} {:>18.1} {:>11.2}x\n",
            nodes,
            tokenb,
            directory,
            hammer,
            tokenb / directory
        ));
    }
    out
}

/// Renders the fault sweep: per point, the injected-fault counts and the
/// recovery-side statistics (reissue timeouts fired, persistent-request
/// activations, worst-case miss recovery latency), plus the verifier's
/// verdict — the row-by-row version of "safe and live under fire".
pub fn render_fault_table(report: &CampaignReport) -> String {
    let mut out = format!(
        "{:<22} {:>7} {:>5} {:>7} {:>7} {:>6} {:>8} {:>10} {:>12} {:>9}\n",
        "point",
        "dropped",
        "dup",
        "delayed",
        "reorder",
        "outage",
        "reissues",
        "persistent",
        "recovery ns",
        "verdict"
    );
    for run in &report.runs {
        let f = run.report.engine.faults;
        let verdict = if run.report.violations.is_empty() {
            "ok"
        } else {
            "VIOLATED"
        };
        out.push_str(&format!(
            "{:<22} {:>7} {:>5} {:>7} {:>7} {:>6} {:>8} {:>10} {:>12} {:>9}\n",
            run.label,
            f.dropped,
            f.duplicated,
            f.delayed,
            f.reordered,
            f.link_deferred,
            f.reissue_timeouts,
            f.persistent_activations,
            f.max_recovery_ns,
            verdict
        ));
    }
    out
}

/// Renders Table 1 (the target system parameters) — the one campaign that
/// runs no simulation.
pub fn render_table1() -> String {
    let c = SystemConfig::isca03_default();
    let mut out = String::from("Table 1: target system parameters (ISCA 2003)\n\n");
    out.push_str("Coherent memory system\n");
    out.push_str(&format!(
        "  split L1 I & D caches    {} kB, {}-way, {} ns\n",
        c.l1.size_bytes / 1024,
        c.l1.associativity,
        c.l1.latency_ns
    ));
    out.push_str(&format!(
        "  unified L2 cache         {} MB, {}-way, {} ns\n",
        c.l2.size_bytes / (1024 * 1024),
        c.l2.associativity,
        c.l2.latency_ns
    ));
    out.push_str(&format!(
        "  cache block size         {} bytes\n",
        c.block_bytes
    ));
    out.push_str(&format!(
        "  DRAM / directory latency {} ns\n",
        c.dram_latency_ns
    ));
    out.push_str(&format!(
        "  memory/dir controllers   {} ns\n",
        c.controller_latency_ns
    ));
    out.push_str(&format!(
        "  network link bandwidth   {:.1} GB/s\n",
        c.interconnect.link_bandwidth_bytes_per_ns
    ));
    out.push_str(&format!(
        "  network link latency     {} ns (wire + sync + route)\n",
        c.interconnect.link_latency_ns
    ));
    out.push_str("\nProcessors\n");
    out.push_str(&format!("  nodes                    {}\n", c.num_nodes));
    out.push_str(&format!(
        "  outstanding misses       {} (reorder window {} memory ops)\n",
        c.processor.max_outstanding_misses, c.processor.overlap_window
    ));
    out.push_str(&format!(
        "  ops per transaction      {}\n",
        c.processor.ops_per_transaction
    ));
    out.push_str("\nToken Coherence\n");
    out.push_str(&format!(
        "  tokens per block (T)     {}\n",
        c.token.tokens_per_block
    ));
    out.push_str(&format!(
        "  reissue timeout          {}x average miss latency + randomized backoff\n",
        c.token.reissue_latency_multiplier
    ));
    out.push_str(&format!(
        "  persistent escalation    after ~{} reissues\n",
        c.token.reissues_before_persistent
    ));
    out.push_str(&format!(
        "  token state per block    {} bits\n",
        c.token_state_bits()
    ));
    out
}

/// A sanity cross-check the `tc-bench` CLI runs after every campaign: the
/// sum of the per-class bytes must equal the total for every run (guards
/// the traffic renderers against a class being silently dropped from
/// [`TrafficClass::ALL`]).
pub fn traffic_classes_cover_total(report: &CampaignReport) -> bool {
    report.runs.iter().all(|run| {
        let breakdown = run.report.traffic_breakdown();
        let sum: f64 = TrafficClass::ALL
            .iter()
            .map(|class| breakdown.class(*class))
            .sum();
        (sum - breakdown.total()).abs() < 1e-6
    })
}

/// Merges `fields` into the JSON object file at `path` (the
/// `BENCH_engine.json` format): a field already present is replaced in
/// place, a new one is appended, and every other member is kept. A missing
/// or empty file starts a new object. The file is rewritten one member per
/// line.
///
/// # Errors
///
/// Returns the I/O error from reading or writing the file, or an
/// `InvalidData` error when the existing file is not a JSON object.
pub fn merge_bench_fields(path: &str, fields: Vec<(&str, Json)>) -> std::io::Result<()> {
    let invalid = |message: String| std::io::Error::new(std::io::ErrorKind::InvalidData, message);
    let previous = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(e),
    };
    let mut members = if previous.trim().is_empty() {
        Vec::new()
    } else {
        match Json::parse(&previous) {
            Ok(Json::Obj(members)) => members,
            Ok(_) => return Err(invalid(format!("{path} is not a JSON object"))),
            Err(e) => return Err(invalid(format!("{path}: {e}"))),
        }
    };
    for (key, value) in fields {
        match members.iter_mut().find(|(k, _)| k == key) {
            Some((_, slot)) => *slot = value,
            None => members.push((key.to_string(), value)),
        }
    }
    let lines: Vec<String> = members
        .into_iter()
        .map(|(key, value)| format!("  {}: {value}", Json::Str(key)))
        .collect();
    std::fs::write(path, format!("{{\n{}\n}}\n", lines.join(",\n")))
}

/// The value of the flag at `args[*i]`, parsed: advances `*i` onto the
/// value. A missing value is the `"<flag> requires a value"` usage error and
/// an unparseable one is `"bad <flag> value: <value>"`; take a `String` to
/// parse it yourself.
///
/// # Errors
///
/// Returns the usage message when the value is missing or does not parse.
pub fn flag_value<T: std::str::FromStr>(args: &[String], i: &mut usize) -> Result<T, String> {
    let flag = &args[*i];
    *i += 1;
    let value = args
        .get(*i)
        .ok_or_else(|| format!("{flag} requires a value"))?;
    value
        .parse()
        .map_err(|_| format!("bad {flag} value: {value}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_system::campaign::Campaign;
    use tc_system::RunOptions;

    #[test]
    fn every_legacy_binary_name_resolves_to_a_campaign() {
        for name in [
            "table1",
            "table2",
            "fig4_runtime",
            "fig4_traffic",
            "fig5_runtime",
            "fig5_traffic",
            "scalability",
            "sweep64",
        ] {
            assert!(resolve_campaign(name).is_some(), "{name} must resolve");
        }
        assert!(resolve_campaign("FIG4-RUNTIME").is_some());
        assert!(resolve_campaign("nope").is_none());
    }

    #[test]
    fn figure_campaigns_have_one_section_per_commercial_workload() {
        let sections = campaign_sections("fig4-runtime", None).unwrap();
        assert_eq!(sections.len(), 3);
        assert!(sections.iter().all(|s| s.table == TableKind::Runtime));
        assert_eq!(sections[0].points.len(), 6);
        let only = WorkloadProfile::oltp();
        let restricted = campaign_sections("fig5-traffic", Some(&only)).unwrap();
        assert_eq!(restricted.len(), 1);
        assert!(restricted[0].title.contains("OLTP"));
    }

    #[test]
    fn scalability_sections_follow_the_node_counts() {
        let sections = campaign_sections("scalability", None).unwrap();
        assert_eq!(sections.len(), SCALABILITY_NODE_COUNTS.len());
        for (section, nodes) in sections.iter().zip(SCALABILITY_NODE_COUNTS) {
            assert!(section.points.iter().all(|p| p.config.num_nodes == nodes));
        }
    }

    #[test]
    fn faultsweep_resolves_and_gates_points_per_protocol() {
        assert!(resolve_campaign("faultsweep").is_some());
        assert!(resolve_campaign("faults").is_some());
        let sections = campaign_sections("faultsweep", None).unwrap();
        assert_eq!(sections.len(), 1);
        assert_eq!(sections[0].table, TableKind::Fault);
        let points = &sections[0].points;
        // TokenB takes a baseline + all five classes + combined; the
        // unordered baselines take baseline + three classes + combined.
        assert_eq!(points.len(), 7 + 5 + 5);
        // Every non-baseline point carries only classes its protocol
        // tolerates.
        for point in points {
            for kind in tc_types::FaultKind::ALL {
                if point.faults.enables(kind) {
                    assert!(
                        point.config.protocol.tolerates(kind),
                        "{}: injects untolerated class {kind:?}",
                        point.label
                    );
                }
            }
        }
    }

    #[test]
    fn fault_table_renders_stats_and_verdicts() {
        let mut points = tc_system::experiment::faultsweep_points();
        points.retain(|p| p.label.starts_with("TokenB"));
        points.truncate(2); // baseline + drop
        let report = Campaign::new(points)
            .options(RunOptions {
                ops_per_node: 300,
                max_cycles: 50_000_000,
                ..RunOptions::default()
            })
            .threads(1)
            .run();
        assert!(report.verified().is_ok());
        let table = render_fault_table(&report);
        assert!(table.contains("TokenB (reliable)"));
        assert!(table.contains("persistent"));
        assert!(table.contains("ok"));
        assert!(!table.contains("VIOLATED"));
    }

    #[test]
    fn table1_renders_the_parameter_table() {
        let text = render_table1();
        assert!(text.contains("Table 1"));
        assert!(text.contains("tokens per block"));
        assert!(text.contains("3.2 GB/s"));
    }

    #[test]
    fn reissue_and_scalability_renderers_work_on_real_reports() {
        let mut points = table2_points();
        points.truncate(1);
        points[0].config = points[0].config.clone().with_nodes(4);
        points[0].config.l2.size_bytes = 256 * 1024;
        let report = Campaign::new(points)
            .options(RunOptions {
                ops_per_node: 400,
                max_cycles: 50_000_000,
                ..RunOptions::default()
            })
            .threads(1)
            .run();
        assert!(report.verified().is_ok());
        let reissue = render_reissue_table(&report);
        assert!(reissue.contains("Average"));
        assert!(traffic_classes_cover_total(&report));
        let scal = render_scalability_table(&[(4, report)]);
        assert!(scal.contains("TokenB/Dir"));
    }

    #[test]
    fn merge_bench_fields_replaces_and_preserves() {
        let path =
            std::env::temp_dir().join(format!("tc_bench_merge_test_{}.json", std::process::id()));
        let path = path.to_str().unwrap().to_string();
        let _ = std::fs::remove_file(&path);
        merge_bench_fields(
            &path,
            vec![
                ("alpha", Json::u64(1)),
                ("beta", Json::fixed(2.5, 1)),
                ("gamma", Json::Str("g".to_string())),
            ],
        )
        .unwrap();
        merge_bench_fields(&path, vec![("alpha", Json::u64(7)), ("delta", Json::Null)]).unwrap();
        // In-place replacement keeps member order; new members append.
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            text,
            "{\n  \"alpha\": 7,\n  \"beta\": 2.5,\n  \"gamma\": \"g\",\n  \"delta\": null\n}\n"
        );

        // A compact one-line file merges member by member, not line by line.
        std::fs::write(&path, "{\"a\":1,\"b\":[2,3],\"c\":\"x,y\"}").unwrap();
        merge_bench_fields(&path, vec![("b", Json::u64(9))]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "{\n  \"a\": 1,\n  \"b\": 9,\n  \"c\": \"x,y\"\n}\n");
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed.get("c").and_then(Json::as_str), Some("x,y"));

        // A file that is not a JSON object is refused, not overwritten.
        std::fs::write(&path, "not json").unwrap();
        assert!(merge_bench_fields(&path, vec![("a", Json::u64(1))]).is_err());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "not json");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn flag_value_parses_or_names_the_flag() {
        let args: Vec<String> = ["--ops", "12", "--threads", "x", "--out"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut i = 0;
        assert_eq!(flag_value::<u64>(&args, &mut i), Ok(12));
        assert_eq!(i, 1);
        i = 2;
        assert_eq!(
            flag_value::<usize>(&args, &mut i),
            Err("bad --threads value: x".to_string())
        );
        i = 4;
        assert_eq!(
            flag_value::<String>(&args, &mut i),
            Err("--out requires a value".to_string())
        );
    }
}
