//! `tcbench`: host-time benchmark of the Token Coherence simulator.
//!
//! ```text
//! tcbench [--workload tokenb16|scale64|fig5|all] [--seed N] [--seconds N]
//!         [--trace 0|1] [--out PATH]
//! ```
//!
//! With `--trace 0` (the default) each workload is run untraced and every
//! end-to-end metric is printed with its unit, sample count, median and
//! quartiles. With `--trace 1` the separate traced run prints the
//! per-layer metrics instead. Every workload runs on `nproc` threads, so
//! none runs more. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` for a single workload,
//! or those objects by workload name, with the host, for `--workload all`.
//! `--out` writes the same line to a file. The exit code is non-zero when
//! a correctness check failed.

mod host;
mod phases;
mod replay;
mod stats;
mod timed;
mod traced;
mod untraced;
mod workload;

use std::process::ExitCode;
use std::time::Duration;

use stats::{fmt_num, Metric};
use workload::{Workload, NAMES};

/// Command-line arguments.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".to_string(),
        seed: 1,
        seconds: 30,
        trace: false,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?,
            "--trace" => args.trace = number(value()?)? != 0,
            "--out" => args.out = Some(value()?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload != "all" && !NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {} (expected one of {NAMES:?} or all)",
            args.workload
        ));
    }
    Ok(args)
}

/// One workload's outcome.
struct Outcome {
    name: &'static str,
    metrics: Vec<Metric>,
    gate: phases::Gate,
    notes: Vec<String>,
}

impl Outcome {
    fn failed_frac(&self) -> f64 {
        self.gate.failed as f64 / self.gate.attempted.max(1) as f64
    }

    fn print(&self) {
        println!("== {} ==", self.name);
        for m in &self.metrics {
            println!("  {}", m.describe());
        }
        println!(
            "  {:<40} {:>14} {:<9} ({} failed of {} runs, requests and checks attempted)",
            "failed_frac",
            fmt_num(self.failed_frac()),
            "ratio",
            self.gate.failed,
            self.gate.attempted
        );
        for note in &self.notes {
            println!("  note: {note}");
        }
        for (i, d) in self.gate.digests().enumerate() {
            println!("  digest[{i}] {d}");
        }
        for problem in &self.gate.problems {
            println!("  FAILED: {problem}");
        }
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`,
    /// each metric as its reported value and unit.
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    fmt_num(m.value()),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.gate.correct(),
            self.gate.attempted,
            self.gate.failed,
            metrics.join(", ")
        )
    }
}

fn run_workload(name: &str, args: &Args, threads: usize) -> Outcome {
    let wl = Workload::by_name(name, args.seed).expect("workload names are checked");
    let mut gate = phases::Gate::default();
    let (metrics, notes) = if args.trace {
        traced::measure(&wl, threads, &mut gate)
    } else {
        let metrics = untraced::measure(&wl, threads, Duration::from_secs(args.seconds), &mut gate);
        (metrics, Vec::new())
    };
    Outcome {
        name: wl.name,
        metrics,
        gate,
        notes,
    }
}

fn main() -> ExitCode {
    let host = host::Fingerprint::take();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("tcbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("host: {}", host.to_json());
    println!(
        "args: workload={} seed={} seconds={} trace={} threads={}",
        args.workload, args.seed, args.seconds, args.trace as u8, host.nproc
    );

    let (line, correct) = if args.workload != "all" {
        let outcome = run_workload(&args.workload, &args, host.nproc);
        outcome.print();
        (outcome.to_json(), outcome.gate.correct())
    } else {
        let mut parts = Vec::new();
        let mut correct = true;
        for name in NAMES {
            let reset = host::reset_peak_rss();
            let outcome = run_workload(name, &args, host.nproc);
            outcome.print();
            if !reset {
                println!(
                    "  note: peak_rss_mb is the process peak so far (VmHWM could not be reset)"
                );
            }
            correct &= outcome.gate.correct();
            parts.push(format!("\"{name}\": {}", outcome.to_json()));
        }
        let line = format!(
            "{{\"host\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"correct\": {correct}, \"workloads\": {{{}}}}}",
            host.to_json(),
            args.seed,
            args.seconds,
            args.trace,
            parts.join(", ")
        );
        (line, correct)
    };
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, format!("{line}\n")) {
            eprintln!("tcbench: writing {path}: {e}");
            return ExitCode::from(2);
        }
    }
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_types::Json;

    #[test]
    fn result_line_parses_with_the_workspace_json_reader() {
        let mut gate = phases::Gate::default();
        gate.checked_run(None);
        gate.checked_run(Some("short run".to_string()));
        let outcome = Outcome {
            name: "tokenb16",
            metrics: vec![
                Metric::new("run_s", "s", vec![0.91, 0.9, 0.95]),
                Metric::new("resubmit_p95_ms", "ms", (0..200).map(f64::from).collect()).at(95.0),
            ],
            gate,
            notes: Vec::new(),
        };
        let parsed = Json::parse(&outcome.to_json()).expect("result line is JSON");
        assert_eq!(parsed.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(parsed.get("attempted").and_then(Json::as_u64), Some(2));
        assert_eq!(parsed.get("failed").and_then(Json::as_u64), Some(1));
        let run = parsed.get("metrics").and_then(|m| m.get("run_s")).unwrap();
        assert_eq!(run.get("value").and_then(Json::as_f64), Some(0.91));
        assert_eq!(run.get("unit").and_then(Json::as_str), Some("s"));
        let tail = parsed
            .get("metrics")
            .and_then(|m| m.get("resubmit_p95_ms"))
            .unwrap();
        let p95 = tail.get("value").and_then(Json::as_f64).unwrap();
        assert!((p95 - 189.95).abs() < 1e-9, "p95 = {p95}");
    }
}
