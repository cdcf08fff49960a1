//! Engine throughput baseline: how many simulation events per second of
//! wall-clock time the event loop sustains.
//!
//! Unlike the figure/table binaries, this benchmark measures the *simulator*
//! rather than the simulated protocols, so future PRs that touch the hot path
//! have a recorded perf trajectory. The default configuration is fixed
//! (TokenB, OLTP, 4 nodes, 20 000 ops/node) and the result is written to
//! `BENCH_engine.json` at the workspace root.
//!
//! The first recorded measurement is kept as `baseline_events_per_sec`;
//! subsequent runs update `events_per_sec` and `speedup_vs_baseline` but
//! preserve the baseline, so the JSON always answers "how much faster than
//! the first commit is the engine now?".
//!
//! Modes beyond the default measurement:
//!
//! * `--check <path>`: regression gate. After measuring, compare against the
//!   `events_per_sec` recorded in `<path>` and exit non-zero if this run is
//!   more than `--tolerance` (default 0.30) below it. The tolerance is
//!   deliberately generous: shared CI runners and noisy-neighbour hosts
//!   swing wall-clock measurements by tens of percent, and the gate exists
//!   to catch order-of-magnitude regressions, not 5% drift. On hardware
//!   unrelated to the machine that recorded the file, gate against the
//!   seed-engine figure instead (`--check-key baseline_events_per_sec`) —
//!   an absolute same-machine number would fail forever on a slower host.
//! * `--check-state-bytes`: peak-state-bytes regression gate (next to the
//!   throughput gate). Unlike wall-clock, the line-state plane's peak byte
//!   footprint is *deterministic* — a pure function of the pinned simulation
//!   and the struct layouts — so the gate is tight: the run fails if the
//!   measured `peak_state_bytes` exceeds the figure recorded in the
//!   `--check` file by more than 10%. A failure means a change grew the
//!   simulated-state working set; re-record only for an intentional change.
//!
//! The 64-node scale measurement that used to live behind `--sweep64` is
//! now `tc-bench sweep64 --record <path>`, which runs the whole sweep
//! campaign through the threaded driver. Both write through
//! `merge_bench_fields`, so this binary replaces only its own fields and
//! keeps the `sweep64_*` ones (and any others) intact.

use std::time::Instant;

use tc_bench::{flag_value, merge_bench_fields};
use tc_system::{RunOptions, System};
use tc_types::{Json, ProtocolKind, SystemConfig};
use tc_workloads::WorkloadProfile;

/// Default number of timed runs; the fastest is reported to suppress
/// scheduler and noisy-neighbour interference (the minimum of n wall-clock
/// samples converges on the true cost as n grows).
const TIMED_RUNS: usize = 7;

/// Short description of the engine configuration being measured, recorded in
/// the JSON so trajectory points are attributable to engine generations.
const ENGINE_CONFIG: &str = "calendar-queue + msg-arena + line-state plane";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut ops_per_node: u64 = 20_000;
    let mut num_nodes: usize = 4;
    let mut out_path = "BENCH_engine.json".to_string();
    let mut check_path: Option<String> = None;
    let mut check_key = "events_per_sec".to_string();
    let mut tolerance: f64 = 0.30;
    let mut check_state_bytes = false;
    let mut runs = TIMED_RUNS;
    // Strict parsing: a flag with a missing value is a usage error, not a
    // silently-empty string (an empty `--check` path would make the
    // regression gate a no-op that still exits 0).
    let mut i = 1;
    while i < args.len() {
        let arg = args[i].as_str();
        let mut value = || -> String {
            flag_value(&args, &mut i).unwrap_or_else(|message| {
                eprintln!("usage: {message}");
                std::process::exit(2);
            })
        };
        match arg {
            "--ops" => ops_per_node = parse_or_die(arg, &value()),
            "--nodes" => num_nodes = parse_or_die(arg, &value()),
            "--runs" => runs = parse_or_die(arg, &value()),
            "--out" => out_path = value(),
            "--check" => check_path = Some(value()),
            "--check-key" => check_key = value(),
            "--check-state-bytes" => check_state_bytes = true,
            "--tolerance" => tolerance = parse_or_die(arg, &value()),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let config = SystemConfig::isca03_default()
        .with_nodes(num_nodes)
        .with_protocol(ProtocolKind::TokenB)
        .with_seed(12);
    let profile = WorkloadProfile::oltp();
    let options = RunOptions {
        ops_per_node,
        max_cycles: 200_000_000_000,
        ..RunOptions::default()
    };

    // Warmup run: page in the binary, warm the allocator.
    eprintln!("warmup ...");
    run_once(&config, &profile, options);

    let mut best_events_per_sec = 0.0f64;
    let mut best = (0u64, 0.0f64);
    let mut state = tc_types::LineStateStats::default();
    for i in 0..runs {
        let (events, secs, run_state) = run_once(&config, &profile, options);
        // Deterministic: identical in every run of this configuration.
        state = run_state;
        let rate = events as f64 / secs;
        eprintln!(
            "run {}/{runs}: {events} events in {secs:.3} s = {rate:.0} events/s \
             (line-state plane: {} peak entries, {} B)",
            i + 1,
            state.total_entries(),
            state.state_bytes
        );
        if rate > best_events_per_sec {
            best_events_per_sec = rate;
            best = (events, secs);
        }
    }

    // Read before the write below, so checking against the file being
    // (re)written still gates on the previous record rather than on this
    // run's own result.
    let check_reference = check_path
        .as_ref()
        .and_then(|path| recorded(path, &check_key));
    let state_bytes_reference = check_path
        .as_ref()
        .and_then(|path| recorded(path, "peak_state_bytes"));
    let baseline = recorded(&out_path, "baseline_events_per_sec").unwrap_or(best_events_per_sec);
    merge_bench_fields(
        &out_path,
        vec![
            ("benchmark", Json::Str("engine_throughput".to_string())),
            ("engine", Json::Str(ENGINE_CONFIG.to_string())),
            ("protocol", Json::Str("TokenB".to_string())),
            ("workload", Json::Str("oltp".to_string())),
            ("num_nodes", Json::u64(num_nodes as u64)),
            ("ops_per_node", Json::u64(ops_per_node)),
            ("events_delivered", Json::u64(best.0)),
            ("wall_seconds", Json::fixed(best.1, 6)),
            ("events_per_sec", Json::fixed(best_events_per_sec, 0)),
            ("baseline_events_per_sec", Json::fixed(baseline, 0)),
            (
                "speedup_vs_baseline",
                Json::fixed(best_events_per_sec / baseline, 3),
            ),
            ("peak_state_entries", Json::u64(state.total_entries())),
            ("peak_state_bytes", Json::u64(state.state_bytes)),
        ],
    )
    .expect("write benchmark result");
    print!(
        "{}",
        std::fs::read_to_string(&out_path).expect("read benchmark result back")
    );
    eprintln!("wrote {out_path}");

    if let Some(check_path) = check_path {
        match check_reference {
            Some(recorded) if recorded > 0.0 => {
                let floor = recorded * (1.0 - tolerance);
                if best_events_per_sec < floor {
                    eprintln!(
                        "REGRESSION: {best_events_per_sec:.0} events/s is more than \
                         {:.0}% below the recorded {recorded:.0} events/s \
                         ({check_key} in {check_path})",
                        tolerance * 100.0
                    );
                    std::process::exit(1);
                }
                eprintln!(
                    "check ok: {best_events_per_sec:.0} events/s >= {floor:.0} \
                     ({recorded:.0} {check_key} recorded in {check_path}, {:.0}% tolerance)",
                    tolerance * 100.0
                );
            }
            _ => {
                eprintln!("REGRESSION CHECK FAILED: no {check_key} number found in {check_path}");
                std::process::exit(1);
            }
        }
        if check_state_bytes {
            match state_bytes_reference {
                Some(recorded) if recorded > 0.0 => {
                    // Deterministic metric: tight 10% ceiling (slack only for
                    // cross-platform struct-layout differences).
                    let ceiling = recorded * 1.10;
                    if state.state_bytes as f64 > ceiling {
                        eprintln!(
                            "STATE REGRESSION: peak_state_bytes {} exceeds the recorded \
                             {recorded:.0} by more than 10% ({check_path})",
                            state.state_bytes
                        );
                        std::process::exit(1);
                    }
                    eprintln!(
                        "state check ok: peak_state_bytes {} <= {ceiling:.0} \
                         ({recorded:.0} recorded in {check_path})",
                        state.state_bytes
                    );
                }
                _ => {
                    eprintln!(
                        "STATE REGRESSION CHECK FAILED: no peak_state_bytes found in {check_path}"
                    );
                    std::process::exit(1);
                }
            }
        }
    } else if check_state_bytes {
        eprintln!("--check-state-bytes requires --check <path>");
        std::process::exit(2);
    }
}

/// Parses a flag value or exits with a usage error.
fn parse_or_die<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("usage: {flag} got an unparseable value: {value:?}");
        std::process::exit(2);
    })
}

/// Builds a fresh system and times one run, returning (events, seconds,
/// line-state plane stats).
fn run_once(
    config: &SystemConfig,
    profile: &WorkloadProfile,
    options: RunOptions,
) -> (u64, f64, tc_types::LineStateStats) {
    let mut system = System::build(config, profile);
    let start = Instant::now();
    let report = system.run(options);
    let secs = start.elapsed().as_secs_f64();
    assert!(
        report.violations.is_empty(),
        "benchmark run must verify cleanly: {:?}",
        report.violations
    );
    (system.events_delivered(), secs, report.engine.state)
}

/// The number recorded under `key` in the JSON object file at `path`;
/// `None` when the file is missing or unparseable, or the member is absent
/// or not a number.
fn recorded(path: &str, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    Json::parse(&text).ok()?.get(key)?.as_f64()
}
