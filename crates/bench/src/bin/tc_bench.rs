//! `tc-bench` — the one experiment CLI.
//!
//! Resolves a named campaign from the experiment catalogs and runs it
//! through the multi-threaded campaign driver:
//!
//! ```text
//! tc-bench list
//! tc-bench table2
//! tc-bench fig5-runtime --ops 12000 --threads 8
//! tc-bench fig4-traffic --workload oltp --json /tmp/fig4b.json
//! tc-bench sweep64 --ops 20000 --threads 8 --serial-baseline --record BENCH_engine.json
//! ```
//!
//! Replaces the eight per-artifact binaries (`table1`, `table2`,
//! `fig4_runtime`, `fig4_traffic`, `fig5_runtime`, `fig5_traffic`,
//! `scalability`, and `engine_throughput --sweep64`); the retired names
//! still resolve as campaign aliases.

use tc_bench::{
    campaign_sections, flag_value, merge_bench_fields, render_fault_table, render_reissue_table,
    render_scalability_table, render_table1, resolve_campaign, traffic_classes_cover_total,
    CampaignSpec, Section, TableKind, CAMPAIGNS, SCALABILITY_NODE_COUNTS,
};
use tc_sim::{JournalRecord, RunJournal};
use tc_system::campaign::{Campaign, CampaignReport};
use tc_system::experiment::{ExperimentPoint, SWEEP64_OPS_PER_NODE};
use tc_system::{RunOptions, System};
use tc_types::{FaultSpec, Json, ProtocolKind, SystemConfig};
use tc_workloads::WorkloadProfile;

/// Parsed command-line options (everything after the campaign name).
struct CliOptions {
    ops: Option<u64>,
    threads: usize,
    workload: Option<WorkloadProfile>,
    protocol: Option<ProtocolKind>,
    faults: Option<FaultSpec>,
    json_path: Option<String>,
    runs_json_path: Option<String>,
    record_path: Option<String>,
    serial_baseline: bool,
    shards: Option<u32>,
}

fn usage() -> String {
    let mut out = String::from("usage: tc-bench <campaign> [options]\n\ncampaigns:\n");
    for spec in CAMPAIGNS {
        out.push_str(&format!("  {:<14} {}\n", spec.name, spec.about));
    }
    out.push_str(
        "  run-one        one point run directly on the engine, with checkpoint/resume \
         (see `tc-bench run-one --help`)\n",
    );
    out.push_str(
        "  hunt           budgeted adversarial-schedule search for persistent-request \
         pathologies (see `tc-bench hunt --help`)\n",
    );
    out.push_str(
        "  serve          host the resident campaign service (see `tc-bench serve --help`)\n  \
         submit         expand a campaign and submit it to a running service\n  \
         status         print a running service's status page\n  \
         shutdown       drain and stop a running service\n",
    );
    out.push_str(
        "\noptions:\n  \
         --ops N             memory operations per node (campaign-specific default)\n  \
         --threads N         campaign worker threads (default: all cores)\n  \
         --workload NAME     restrict figure campaigns to one workload\n  \
         --protocol NAME     keep only points of one protocol\n  \
         --faults SPEC       inject faults, e.g. drop=0.01,dup=0.005,reorder=4,link=2-5@1000..5000\n                      (points carrying their own spec, e.g. faultsweep's, keep it)\n  \
         --json PATH         write the campaign report as JSON\n  \
         --runs-json PATH    write one NDJSON line per run (the campaign service's wire format)\n  \
         --shards N          run every point on the sharded PDES engine with N shards\n                      (sweep64: the campaign stays serial; instead time shards(1) vs\n                      shards(N) on the reference point, verify shard-count\n                      invariance, and record the speedup)\n  \
         --record PATH       (sweep64) merge wall-clock fields into a BENCH_engine.json-style file\n  \
         --serial-baseline   (sweep64) also run with one thread, verify bit-identical reports,\n                      and record the parallel speedup\n",
    );
    out
}

fn parse_options(args: &[String]) -> Result<CliOptions, String> {
    let mut options = CliOptions {
        ops: None,
        threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        workload: None,
        protocol: None,
        faults: None,
        json_path: None,
        runs_json_path: None,
        record_path: None,
        serial_baseline: false,
        shards: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--ops" => options.ops = Some(flag_value(args, &mut i)?),
            "--threads" => {
                options.threads = flag_value(args, &mut i)?;
                if options.threads == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
            }
            "--workload" => options.workload = Some(parse_workload(flag_value(args, &mut i)?)?),
            "--protocol" => options.protocol = Some(parse_protocol(flag_value(args, &mut i)?)?),
            "--faults" => options.faults = Some(parse_faults(flag_value(args, &mut i)?)?),
            "--json" => options.json_path = Some(flag_value(args, &mut i)?),
            "--runs-json" => options.runs_json_path = Some(flag_value(args, &mut i)?),
            "--record" => options.record_path = Some(flag_value(args, &mut i)?),
            "--serial-baseline" => options.serial_baseline = true,
            "--shards" => options.shards = Some(check_shards(flag_value(args, &mut i)?)?),
            other => return Err(format!("unknown option: {other}")),
        }
        i += 1;
    }
    Ok(options)
}

fn parse_workload(name: String) -> Result<WorkloadProfile, String> {
    WorkloadProfile::by_name(&name).ok_or_else(|| format!("unknown workload: {name}"))
}

fn parse_protocol(name: String) -> Result<ProtocolKind, String> {
    ProtocolKind::by_name(&name).ok_or_else(|| format!("unknown protocol: {name}"))
}

fn parse_faults(spec: String) -> Result<FaultSpec, String> {
    FaultSpec::parse(&spec).map_err(|e| format!("bad --faults value: {e}"))
}

fn check_shards(shards: u32) -> Result<u32, String> {
    match shards {
        0 => Err("--shards must be at least 1 (omit it for the serial engine)".to_string()),
        shards => Ok(shards),
    }
}

/// The default per-node operation count of a campaign.
fn default_ops(campaign: &str) -> u64 {
    match campaign {
        // The 64-node points are large; mirror the retired binary's shorter
        // default so a bare `tc-bench scalability` finishes in minutes.
        "scalability" => RunOptions::standard().ops_per_node.min(6_000),
        "sweep64" => SWEEP64_OPS_PER_NODE,
        _ => RunOptions::standard().ops_per_node,
    }
}

fn run_options(
    campaign: &str,
    ops: Option<u64>,
    faults: Option<FaultSpec>,
    shards: Option<u32>,
) -> RunOptions {
    let mut options = if campaign == "sweep64" {
        RunOptions::sweep64()
    } else {
        RunOptions::standard()
    };
    options.ops_per_node = ops.unwrap_or_else(|| default_ops(campaign));
    // Campaign-wide fault injection; a point carrying its own spec (the
    // faultsweep catalog's per-class points) overrides this at run time.
    if let Some(faults) = faults {
        options.faults = faults;
    }
    // sweep64's committed wall-clock fields are serial-engine figures; there
    // --shards drives only the epilogue's reference-point scaling
    // measurement, never the campaign itself.
    if campaign != "sweep64" {
        if let Some(shards) = shards {
            options = options.with_shards(shards);
        }
    }
    options
}

/// Runs `points` as one campaign with progress on stderr.
fn run_campaign(
    points: Vec<ExperimentPoint>,
    options: RunOptions,
    threads: usize,
) -> CampaignReport {
    Campaign::new(points)
        .options(options)
        .threads(threads)
        .on_progress(|event| eprintln!("  {event}"))
        .run()
}

/// Re-slices a flattened multi-section campaign report per section.
fn section_slices(report: &CampaignReport, sections: &[Section]) -> Vec<CampaignReport> {
    let mut slices = Vec::with_capacity(sections.len());
    let mut offset = 0;
    for section in sections {
        slices.push(report.slice(offset, section.points.len()));
        offset += section.points.len();
    }
    slices
}

/// Parsed `run-one` options.
struct RunOneOptions {
    protocol: ProtocolKind,
    workload: WorkloadProfile,
    nodes: usize,
    seed: u64,
    ops: u64,
    max_cycles: u64,
    faults: Option<FaultSpec>,
    checkpoint_every: Option<u64>,
    checkpoint_dir: Option<String>,
    resume: Option<String>,
    crash_after: Option<u64>,
    report_out: Option<String>,
    shards: Option<u32>,
}

fn run_one_usage() -> &'static str {
    "usage: tc-bench run-one [options]\n\n\
     Runs one experiment point directly (no campaign driver), with optional\n\
     engine checkpointing, crash simulation, and resume-from-snapshot.\n\n\
     options:\n  \
     --protocol NAME       protocol (default: tokenb)\n  \
     --workload NAME       workload profile (default: oltp)\n  \
     --nodes N             node count (default: 4)\n  \
     --seed N              seed (default: 12)\n  \
     --ops N               memory operations per node (default: 20000)\n  \
     --max-cycles N        cycle budget (default: 1000000000)\n  \
     --faults SPEC         inject faults into the fabric\n  \
     --checkpoint-every N  seal a snapshot every N delivered events\n  \
     --checkpoint-dir DIR  write snap-<events>.tcsnap + journal.tcj into DIR\n  \
     --resume FILE         restore FILE and run to completion instead of starting fresh\n  \
     --crash-after K       exit(42) right after sealing the K-th checkpoint (CI crash gate)\n  \
     --report-out PATH     write the final report (deterministic debug form; sharded runs\n                        write the determinism view) to PATH\n  \
     --shards N            run on the sharded PDES engine with N shards (clamped to the\n                        node count; incompatible with the checkpoint options)\n"
}

fn parse_run_one(args: &[String]) -> Result<RunOneOptions, String> {
    let mut options = RunOneOptions {
        protocol: ProtocolKind::TokenB,
        workload: WorkloadProfile::oltp(),
        nodes: 4,
        seed: 12,
        ops: 20_000,
        max_cycles: 1_000_000_000,
        faults: None,
        checkpoint_every: None,
        checkpoint_dir: None,
        resume: None,
        crash_after: None,
        report_out: None,
        shards: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--protocol" => options.protocol = parse_protocol(flag_value(args, &mut i)?)?,
            "--workload" => options.workload = parse_workload(flag_value(args, &mut i)?)?,
            "--nodes" => options.nodes = flag_value(args, &mut i)?,
            "--seed" => options.seed = flag_value(args, &mut i)?,
            "--ops" => options.ops = flag_value(args, &mut i)?,
            "--max-cycles" => options.max_cycles = flag_value(args, &mut i)?,
            "--faults" => options.faults = Some(parse_faults(flag_value(args, &mut i)?)?),
            "--checkpoint-every" => options.checkpoint_every = Some(flag_value(args, &mut i)?),
            "--checkpoint-dir" => options.checkpoint_dir = Some(flag_value(args, &mut i)?),
            "--resume" => options.resume = Some(flag_value(args, &mut i)?),
            "--crash-after" => options.crash_after = Some(flag_value(args, &mut i)?),
            "--report-out" => options.report_out = Some(flag_value(args, &mut i)?),
            "--shards" => options.shards = Some(check_shards(flag_value(args, &mut i)?)?),
            other => return Err(format!("unknown run-one option: {other}")),
        }
        i += 1;
    }
    if options.checkpoint_every.is_some() && options.checkpoint_dir.is_none() {
        return Err("--checkpoint-every requires --checkpoint-dir".to_string());
    }
    if options.crash_after.is_some() && options.checkpoint_every.is_none() {
        return Err("--crash-after requires --checkpoint-every".to_string());
    }
    if options.shards.is_some() && (options.checkpoint_every.is_some() || options.resume.is_some())
    {
        // The sharded engine has no snapshot plane; a CLI error beats the
        // engine's own panic.
        return Err("--shards is incompatible with --checkpoint-every/--resume".to_string());
    }
    Ok(options)
}

/// `tc-bench run-one`: one point, run directly on the engine so snapshots
/// can be cut, crashed on, and resumed — the CLI face of the snapshot
/// plane. Writes `snap-<events>.tcsnap` plus an append-only `journal.tcj`
/// (both torn-tail tolerant) into the checkpoint directory.
fn run_one(cli: RunOneOptions) {
    let config = SystemConfig::isca03_default()
        .with_nodes(cli.nodes)
        .with_protocol(cli.protocol)
        .with_seed(cli.seed);
    let mut run_options = RunOptions {
        ops_per_node: cli.ops,
        max_cycles: cli.max_cycles,
        ..RunOptions::default()
    };
    if let Some(faults) = cli.faults {
        run_options.faults = faults;
    }
    if let Some(every) = cli.checkpoint_every {
        run_options = run_options.with_checkpoint_every(every);
    }
    if let Some(shards) = cli.shards {
        run_options = run_options.with_shards(shards);
    }

    let mut system = System::build(&config, &cli.workload);

    // The checkpoint sink: seal each snapshot to its own file and keep the
    // journal current, so a crash at any instant leaves a resumable trail.
    let dir = cli.checkpoint_dir.clone();
    if let Some(dir) = &dir {
        std::fs::create_dir_all(dir).expect("create checkpoint dir");
    }
    let mut journal = match &dir {
        Some(dir) => match std::fs::read(format!("{dir}/journal.tcj")) {
            Ok(bytes) => {
                let (journal, torn) = RunJournal::load(&bytes);
                if torn {
                    eprintln!(
                        "journal.tcj has a torn tail (crashed run); {} intact records kept",
                        journal.records().len()
                    );
                }
                journal
            }
            Err(_) => RunJournal::new(),
        },
        None => RunJournal::new(),
    };
    let crash_after = cli.crash_after;
    let mut checkpoints_sealed: u64 = 0;
    let mut sink = |events: u64, bytes: &[u8]| {
        let Some(dir) = &dir else { return };
        let path = format!("{dir}/snap-{events}.tcsnap");
        std::fs::write(&path, bytes).expect("write snapshot");
        journal.append(JournalRecord::Checkpoint {
            events_delivered: events,
            // The snapshot is cut between events; the journal's cycle is
            // informational, so the event count doubles as its stamp.
            cycle: events,
        });
        std::fs::write(format!("{dir}/journal.tcj"), journal.as_bytes()).expect("write journal");
        eprintln!("checkpoint at event {events}: {path}");
        checkpoints_sealed += 1;
        if crash_after == Some(checkpoints_sealed) {
            eprintln!("simulated crash after {checkpoints_sealed} checkpoint(s)");
            std::process::exit(42);
        }
    };

    let report = if let Some(snap_path) = &cli.resume {
        let bytes = std::fs::read(snap_path)
            .unwrap_or_else(|e| panic!("cannot read snapshot {snap_path}: {e}"));
        let progress = system
            .restore(&run_options, &bytes)
            .unwrap_or_else(|e| panic!("cannot restore {snap_path}: {e}"));
        eprintln!(
            "restored {snap_path} at event {}",
            system.events_delivered()
        );
        system.resume_with_checkpoints(run_options, progress, &mut sink)
    } else {
        system.run_with_checkpoints(run_options, &mut sink)
    };

    if let Some(dir) = &dir {
        journal.append(JournalRecord::End {
            events_delivered: system.events_delivered(),
            cycle: report.runtime_cycles,
        });
        std::fs::write(format!("{dir}/journal.tcj"), journal.as_bytes()).expect("write journal");
    }

    println!("{report}");
    // The sharded engine counts deliveries in the report, not on the
    // serial engine's counter.
    let events = if run_options.shards > 0 {
        report.engine.events_delivered
    } else {
        system.events_delivered()
    };
    println!("events_delivered: {events}");
    if let Some(path) = &cli.report_out {
        // A sharded run's deterministic form is its determinism view: the
        // per-shard capacity telemetry legitimately varies with shard count,
        // so writing the view lets CI byte-diff shards(1) against shards(N).
        let text = if run_options.shards > 0 {
            format!("{:#?}\n", report.determinism_view())
        } else {
            format!("{report:#?}\n")
        };
        std::fs::write(path, text).expect("write report");
        eprintln!("wrote {path}");
    }
    if let Err(violation) = report.verified() {
        eprintln!("VERIFICATION FAILURE: {violation}");
        std::process::exit(1);
    }
}

fn hunt_usage() -> &'static str {
    "usage: tc-bench hunt [options]\n\n\
     Budgeted adversarial-schedule search: random probes over the\n\
     AdversarySpec knobs, then greedy mutation of the worst schedule found,\n\
     scored by the pathology objective (worst/p99 miss latency, reissue and\n\
     persistent-request pressure, completion skew). Deterministic in every\n\
     option: the same invocation always reports the same outcome. Any\n\
     verifier violation is shrunk to a minimal replay recipe and fails the\n\
     command.\n\n\
     options:\n  \
     --protocol NAME  protocol to attack (default: tokenb)\n  \
     --scenario NAME  conformance scenario to perturb (default: hot_block_contention)\n  \
     --seed N         workload + probe seed (default: 44382)\n  \
     --budget N       adversarial evaluations to spend (default: 24)\n  \
     --ops N          memory operations per node per evaluation (default: 200)\n  \
     --smoke          fixed CI configuration (seed 44382, budget 8, ops 150);\n                   rejects combining with the knobs above\n"
}

fn parse_hunt(args: &[String]) -> Result<tc_testkit::HuntOptions, String> {
    let mut options = tc_testkit::HuntOptions::default();
    let mut smoke = false;
    let mut tuned = false;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--protocol" => options.protocol = parse_protocol(flag_value(args, &mut i)?)?,
            "--scenario" => options.scenario = flag_value(args, &mut i)?,
            "--seed" => options.seed = flag_value(args, &mut i)?,
            "--budget" => {
                options.budget = flag_value(args, &mut i)?;
                if options.budget == 0 {
                    return Err("--budget must be at least 1".to_string());
                }
            }
            "--ops" => options.ops_per_node = flag_value(args, &mut i)?,
            "--smoke" => smoke = true,
            other => return Err(format!("unknown hunt option: {other}")),
        }
        tuned |= flag != "--smoke";
        i += 1;
    }
    if smoke {
        if tuned {
            return Err("--smoke fixes every knob; drop the other options".to_string());
        }
        // The CI configuration: small, fast, and pinned. CI runs this twice
        // and diffs the stdout, so everything printed must be deterministic.
        options.budget = 8;
        options.ops_per_node = 150;
    }
    if tc_testkit::Scenario::by_name(&options.scenario).is_none() {
        return Err(format!("unknown scenario: {}", options.scenario));
    }
    Ok(options)
}

/// `tc-bench hunt`: the CLI face of the pathology hunter. Prints the
/// deterministic outcome line (CI diffs two invocations of `--smoke`
/// against each other) and exits non-zero if the verifier caught a
/// violation — after printing the shrunk minimal repro.
fn run_hunt(options: tc_testkit::HuntOptions) {
    let outcome = tc_testkit::hunt(&options);
    println!("{outcome}");
    if outcome.failure.is_some() {
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------------
// Campaign service subcommands
// ---------------------------------------------------------------------------

/// Address the client subcommands default to, matching `serve`'s default.
const DEFAULT_SERVE_ADDR: &str = "127.0.0.1:7533";

fn serve_usage() -> &'static str {
    "usage: tc-bench serve [options]\n\n\
     Hosts the resident campaign service: submissions arrive as JSON over\n\
     HTTP, wait in a priority job queue, run on a worker pool, and stream\n\
     back as NDJSON — with a dedup result cache keyed on the full\n\
     determinism tuple, so repeated sweeps are free. Runs until a client\n\
     sends `tc-bench shutdown` (queued jobs finish first).\n\n\
     options:\n  \
     --addr HOST:PORT  bind address (default: 127.0.0.1:7533; port 0 picks one)\n  \
     --workers N       jobs simulated concurrently (default: 2)\n  \
     --cache PATH      persist the result cache here across restarts\n"
}

fn run_serve(args: &[String]) -> Result<(), String> {
    let mut options = tc_serve::ServeOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => options.addr = flag_value(args, &mut i)?,
            "--workers" => {
                options.workers = flag_value(args, &mut i)?;
                if options.workers == 0 {
                    return Err("--workers must be at least 1".to_string());
                }
            }
            "--cache" => options.cache_path = Some(flag_value(args, &mut i)?),
            other => return Err(format!("unknown serve option: {other}")),
        }
        i += 1;
    }
    let workers = options.workers;
    let server = tc_serve::Server::bind(options).map_err(|e| format!("cannot bind: {e}"))?;
    if let Some(warning) = &server.cache_warning {
        eprintln!("{warning}");
    }
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    eprintln!("tc-serve listening on {addr} ({workers} workers)");
    let stats = server.run().map_err(|e| format!("server error: {e}"))?;
    eprintln!(
        "drained: {} jobs completed, {} failed; {} points run, {} served from cache; \
         {} cache entries",
        stats.jobs_completed,
        stats.jobs_failed,
        stats.points_run,
        stats.points_cached,
        stats.cache_entries
    );
    Ok(())
}

fn submit_usage() -> String {
    let mut out = String::from(
        "usage: tc-bench submit <campaign> [options]\n\n\
         Expands a campaign into explicit experiment points (exactly as the\n\
         one-shot path would run them) and submits it to a running\n\
         `tc-bench serve`, streaming each run line to stdout as it lands.\n\ncampaigns:\n",
    );
    for spec in CAMPAIGNS {
        if spec.name != "table1" {
            out.push_str(&format!("  {:<14} {}\n", spec.name, spec.about));
        }
    }
    out.push_str(
        "\noptions:\n  \
         --addr HOST:PORT  service address (default: 127.0.0.1:7533)\n  \
         --priority LEVEL  queue priority: low, normal, or high (default: normal)\n  \
         --ops N           memory operations per node (campaign-specific default)\n  \
         --workload NAME   restrict figure campaigns to one workload\n  \
         --protocol NAME   keep only points of one protocol\n  \
         --faults SPEC     campaign-wide fault injection\n  \
         --runs-json PATH  also write the streamed run lines to PATH\n",
    );
    out
}

/// The sections `spec` runs once the `--workload` and `--protocol` filters
/// apply: the one expansion the one-shot path and `submit` share, so both
/// run exactly the same points and reject the same combinations.
fn filtered_sections(
    spec: &CampaignSpec,
    workload: Option<&WorkloadProfile>,
    protocol: Option<ProtocolKind>,
) -> Result<Vec<Section>, String> {
    if spec.name == "table1" {
        return Err("table1 is a static parameter table; nothing to simulate".to_string());
    }
    // Only the figure campaigns iterate workloads; rejecting --workload
    // elsewhere beats silently running all three commercial profiles.
    if workload.is_some() && !spec.name.starts_with("fig") {
        return Err(format!(
            "--workload applies only to the figure campaigns; {} runs a fixed workload set",
            spec.name
        ));
    }
    let mut sections =
        campaign_sections(spec.name, workload).expect("campaign resolved but has no sections");
    if let Some(protocol) = protocol {
        // The scalability renderer compares fixed protocol columns, so a
        // filtered run would print NaN columns; reject instead.
        if spec.name == "scalability" {
            return Err(
                "--protocol does not apply to scalability (its table compares protocols)"
                    .to_string(),
            );
        }
        for section in &mut sections {
            section.points.retain(|p| p.config.protocol == protocol);
        }
        sections.retain(|s| !s.points.is_empty());
        if sections.is_empty() {
            return Err("no points left after --protocol filter".to_string());
        }
    }
    Ok(sections)
}

fn run_submit(args: &[String]) -> Result<(), String> {
    let Some(campaign) = args.first().filter(|a| !a.starts_with("--")) else {
        return Err("submit needs a campaign name".to_string());
    };
    let campaign = campaign.clone();
    let mut addr = DEFAULT_SERVE_ADDR.to_string();
    let mut priority = tc_types::JobPriority::default();
    let mut ops: Option<u64> = None;
    let mut workload: Option<WorkloadProfile> = None;
    let mut protocol: Option<ProtocolKind> = None;
    let mut faults: Option<FaultSpec> = None;
    let mut runs_json: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => addr = flag_value(args, &mut i)?,
            "--priority" => {
                priority = tc_types::JobPriority::parse(&flag_value::<String>(args, &mut i)?)?;
            }
            "--ops" => ops = Some(flag_value(args, &mut i)?),
            "--workload" => workload = Some(parse_workload(flag_value(args, &mut i)?)?),
            "--protocol" => protocol = Some(parse_protocol(flag_value(args, &mut i)?)?),
            "--faults" => faults = Some(parse_faults(flag_value(args, &mut i)?)?),
            "--runs-json" => runs_json = Some(flag_value(args, &mut i)?),
            other => return Err(format!("unknown submit option: {other}")),
        }
        i += 1;
    }

    let Some(spec) = resolve_campaign(&campaign) else {
        return Err(format!("unknown campaign: {campaign}"));
    };
    let points = filtered_sections(spec, workload.as_ref(), protocol)?
        .into_iter()
        .flat_map(|s| s.points)
        .collect();
    let submission = tc_serve::Submission {
        priority,
        options: run_options(spec.name, ops, faults, None),
        points,
    };
    eprintln!(
        "submitting {} points to {addr} (priority {})",
        submission.points.len(),
        priority.name()
    );
    let mut captured = String::new();
    let outcome = tc_serve::submit(&addr, &submission, |line| {
        println!("{line}");
        if runs_json.is_some() {
            captured.push_str(line);
            captured.push('\n');
        }
    })
    .map_err(|e| e.to_string())?;
    if let Some(path) = &runs_json {
        std::fs::write(path, captured).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    eprintln!(
        "{}: {} points — {} run, {} served from cache",
        outcome.job, outcome.points, outcome.ran, outcome.cache_hits
    );
    Ok(())
}

/// Parses the lone `--addr` option the status/shutdown subcommands take.
fn parse_addr_only(subcommand: &str, args: &[String]) -> Result<String, String> {
    let mut addr = DEFAULT_SERVE_ADDR.to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => addr = flag_value(args, &mut i)?,
            other => return Err(format!("unknown {subcommand} option: {other}")),
        }
        i += 1;
    }
    Ok(addr)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let campaign_name = match args.first().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => {
            print!("{}", usage());
            return;
        }
        Some("run-one") => {
            if args.get(1).map(String::as_str) == Some("--help") {
                print!("{}", run_one_usage());
                return;
            }
            match parse_run_one(&args[1..]) {
                Ok(options) => run_one(options),
                Err(message) => {
                    eprintln!("{message}\n\n{}", run_one_usage());
                    std::process::exit(2);
                }
            }
            return;
        }
        Some("hunt") => {
            if args.get(1).map(String::as_str) == Some("--help") {
                print!("{}", hunt_usage());
                return;
            }
            match parse_hunt(&args[1..]) {
                Ok(options) => run_hunt(options),
                Err(message) => {
                    eprintln!("{message}\n\n{}", hunt_usage());
                    std::process::exit(2);
                }
            }
            return;
        }
        Some("serve") => {
            if args.get(1).map(String::as_str) == Some("--help") {
                print!("{}", serve_usage());
                return;
            }
            if let Err(message) = run_serve(&args[1..]) {
                eprintln!("{message}\n\n{}", serve_usage());
                std::process::exit(2);
            }
            return;
        }
        Some("submit") => {
            if args.get(1).map(String::as_str) == Some("--help") || args.len() == 1 {
                print!("{}", submit_usage());
                return;
            }
            if let Err(message) = run_submit(&args[1..]) {
                eprintln!("submit failed: {message}");
                std::process::exit(1);
            }
            return;
        }
        Some("status") => {
            match parse_addr_only("status", &args[1..]).and_then(|addr| {
                tc_serve::status(&addr).map_err(|e| format!("cannot reach {addr}: {e}"))
            }) {
                Ok(page) => print!("{page}"),
                Err(message) => {
                    eprintln!("{message}");
                    std::process::exit(1);
                }
            }
            return;
        }
        Some("shutdown") => {
            match parse_addr_only("shutdown", &args[1..]).and_then(|addr| {
                tc_serve::shutdown(&addr)
                    .map(|()| addr.clone())
                    .map_err(|e| format!("cannot reach {addr}: {e}"))
            }) {
                Ok(addr) => eprintln!("service at {addr} is draining"),
                Err(message) => {
                    eprintln!("{message}");
                    std::process::exit(1);
                }
            }
            return;
        }
        Some("list") => {
            println!("available campaigns:");
            for spec in CAMPAIGNS {
                println!("  {:<14} {}", spec.name, spec.about);
            }
            return;
        }
        Some(name) => name.to_string(),
    };
    let Some(spec) = resolve_campaign(&campaign_name) else {
        eprintln!("unknown campaign: {campaign_name}\n\n{}", usage());
        std::process::exit(2);
    };
    let cli = match parse_options(&args[1..]) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("{message}\n\n{}", usage());
            std::process::exit(2);
        }
    };

    if spec.name == "table1" {
        print!("{}", render_table1());
        return;
    }

    let sections =
        filtered_sections(spec, cli.workload.as_ref(), cli.protocol).unwrap_or_else(|message| {
            eprintln!("{message}");
            std::process::exit(2);
        });
    let options = run_options(spec.name, cli.ops, cli.faults, cli.shards);
    let all_points: Vec<ExperimentPoint> = sections.iter().flat_map(|s| s.points.clone()).collect();
    println!(
        "campaign {} ({} points, {} ops/node, {} threads)",
        spec.name,
        all_points.len(),
        options.ops_per_node,
        cli.threads
    );

    // One flattened campaign keeps every core busy across section
    // boundaries; reports are re-sliced per section for rendering.
    let report = run_campaign(all_points.clone(), options, cli.threads);

    if !traffic_classes_cover_total(&report) {
        eprintln!(
            "WARNING: per-class traffic bytes do not sum to the total; \
             a TrafficClass is missing from the breakdown"
        );
    }

    if spec.name == "sweep64" {
        finish_sweep64(all_points, &sections, &report, options, &cli);
    } else {
        let slices = section_slices(&report, &sections);
        for (section, slice) in sections.iter().zip(&slices) {
            match section.table {
                TableKind::Runtime => {
                    println!("\n{}", slice.render_runtime_table(&section.title));
                }
                TableKind::Traffic => {
                    println!("\n{}", slice.render_traffic_table(&section.title));
                }
                TableKind::Reissue => {
                    println!("\n{}\n{}", section.title, render_reissue_table(slice));
                }
                TableKind::Fault => {
                    println!("\n{}\n{}", section.title, render_fault_table(slice));
                }
                TableKind::Scalability | TableKind::Sweep => {}
            }
        }
        if sections.iter().any(|s| s.table == TableKind::Scalability) {
            let rows: Vec<(usize, CampaignReport)> = SCALABILITY_NODE_COUNTS
                .iter()
                .copied()
                .zip(slices.iter().cloned())
                .collect();
            println!("\n{}", render_scalability_table(&rows));
        }
        if !spec.paper_note.is_empty() {
            println!("\n{}", spec.paper_note);
        }
    }

    eprintln!(
        "campaign wall-clock: {:.1} s across {} threads",
        report.wall_seconds, report.threads
    );
    if let Some(path) = &cli.json_path {
        std::fs::write(path, report.to_json()).expect("write campaign JSON");
        eprintln!("wrote {path}");
    }
    if let Some(path) = &cli.runs_json_path {
        // One line per run in submission order — byte-identical to what the
        // campaign service streams for the same points (pinned by CI).
        let mut out = String::new();
        for run in &report.runs {
            out.push_str(&tc_system::run_to_json(&run.label, &run.report));
            out.push('\n');
        }
        std::fs::write(path, out).expect("write runs NDJSON");
        eprintln!("wrote {path}");
    }
    if let Err((label, violation)) = report.verified() {
        eprintln!("VERIFICATION FAILURE in {label}: {violation}");
        std::process::exit(1);
    }
}

/// Sweep64 epilogue: the scale tables, the optional serial determinism
/// baseline (re-running `all_points` with one thread), and the
/// `BENCH_engine.json` wall-clock recording.
fn finish_sweep64(
    all_points: Vec<ExperimentPoint>,
    sections: &[Section],
    parallel: &CampaignReport,
    options: RunOptions,
    cli: &CliOptions,
) {
    println!("\n{}", parallel.render_runtime_table(&sections[0].title));
    println!(
        "\n{}",
        parallel.render_traffic_table("Traffic (bytes/miss)")
    );
    println!(
        "\n{}",
        parallel.render_miss_latency_table("Miss latency summary")
    );

    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // Speedup honesty: on a host with fewer cores than workers the wall-clock
    // ratios measure oversubscription, not the engine. Warn instead of
    // letting a sub-1.0 "speedup" read as a regression.
    if host_cores < parallel.threads {
        eprintln!(
            "WARNING: host has {host_cores} core(s) but the campaign ran {} threads; \
             wall-clock speedup figures measure oversubscription, not the engine",
            parallel.threads
        );
    }
    if let Some(shards) = cli.shards {
        if (shards as usize) > host_cores {
            eprintln!(
                "WARNING: host has {host_cores} core(s) but --shards {shards} was requested; \
                 shard speedup figures measure oversubscription, not the engine"
            );
        }
    }

    // Single-run shard scaling: the reference point (the campaign's first)
    // at shards(1) vs shards(N), timed, with the shard-count-invariance
    // contract checked on the way.
    let reference = all_points
        .first()
        .cloned()
        .expect("sweep64 has at least one point");
    let mut shard_walls: Option<(u32, f64, f64)> = None;
    if let Some(shards) = cli.shards {
        eprintln!(
            "shard scaling: reference point {} at shards(1) vs shards({shards}) ...",
            reference.label
        );
        let time_at = |n: u32| {
            let mut system = System::build(&reference.config, &reference.workload);
            let start = std::time::Instant::now();
            let report = system.run(options.with_shards(n));
            (report, start.elapsed().as_secs_f64())
        };
        let (one, wall_one) = time_at(1);
        let (many, wall_many) = time_at(shards);
        assert_eq!(
            one.determinism_view(),
            many.determinism_view(),
            "shards(1) and shards({shards}) must produce bit-identical determinism views"
        );
        println!(
            "\nshard determinism check ok: shards(1) and shards({shards}) reports are \
             bit-identical (windows {}, lookahead {} ns, sync stalls {})",
            many.engine.sharding.windows,
            many.engine.sharding.lookahead_ns,
            many.engine.sharding.sync_stalls
        );
        println!(
            "shard wall-clock: {wall_one:.1} s at shards(1) vs {wall_many:.1} s at \
             shards({shards}) ({:.2}x)",
            wall_one / wall_many
        );
        shard_walls = Some((shards, wall_one, wall_many));
    }

    let mut serial_wall: Option<f64> = None;
    if cli.serial_baseline {
        eprintln!("serial baseline: re-running the campaign with 1 thread ...");
        let serial = run_campaign(all_points, options, 1);
        assert_eq!(
            serial.runs, parallel.runs,
            "threads(1) and threads(N) must produce bit-identical reports"
        );
        println!(
            "\ndeterminism check ok: {} serial reports are bit-identical to the threaded run",
            serial.runs.len()
        );
        println!(
            "wall-clock: {:.1} s serial vs {:.1} s with {} threads ({:.2}x)",
            serial.wall_seconds,
            parallel.wall_seconds,
            parallel.threads,
            serial.wall_seconds / parallel.wall_seconds
        );
        serial_wall = Some(serial.wall_seconds);
    }

    if let Some(path) = &cli.record_path {
        // The largest single-point line-state working set of the sweep (the
        // per-point figure is deterministic; the max names the worst point).
        let peak_state_bytes = parallel
            .reports()
            .map(|r| r.engine.state.state_bytes)
            .max()
            .unwrap_or(0);
        let mut fields = vec![
            (
                "sweep64_campaign_points",
                Json::u64(parallel.runs.len() as u64),
            ),
            (
                "sweep64_campaign_ops_per_node",
                Json::u64(options.ops_per_node),
            ),
            ("sweep64_threads", Json::u64(parallel.threads as u64)),
            (
                "sweep64_wall_s_parallel",
                Json::fixed(parallel.wall_seconds, 3),
            ),
            ("sweep64_host_cores", Json::u64(host_cores as u64)),
            ("sweep64_peak_state_bytes", Json::u64(peak_state_bytes)),
        ];
        if let Some(serial) = serial_wall {
            fields.extend([
                ("sweep64_wall_s_serial", Json::fixed(serial, 3)),
                (
                    "sweep64_parallel_speedup",
                    Json::fixed(serial / parallel.wall_seconds, 3),
                ),
            ]);
        }
        if let Some((shards, wall_one, wall_many)) = shard_walls {
            fields.extend([
                ("sweep64_shards", Json::u64(u64::from(shards))),
                ("sweep64_wall_s_shard1", Json::fixed(wall_one, 3)),
                ("sweep64_wall_s_sharded", Json::fixed(wall_many, 3)),
                (
                    "sweep64_shard_speedup",
                    Json::fixed(wall_one / wall_many, 3),
                ),
            ]);
        }
        merge_bench_fields(path, fields).expect("record sweep64 wall-clock");
        eprintln!("recorded sweep64 wall-clock fields in {path}");
    }
}
