//! The host a result was measured on, and the process's peak memory.

use std::process::Command;

use tc_types::json::escape_json_str_into;

/// What identifies the host and build behind a result.
#[derive(Debug)]
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_head: String,
}

impl Fingerprint {
    pub fn take() -> Fingerprint {
        let nproc = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Fingerprint {
            nproc,
            cpu_model,
            rustc: command_line("rustc", &["-V"]),
            git_head: command_line("git", &["rev-parse", "HEAD"]),
        }
    }

    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"nproc\": {}", self.nproc);
        for (key, value) in [
            ("cpu_model", &self.cpu_model),
            ("rustc", &self.rustc),
            ("git_head", &self.git_head),
        ] {
            out.push_str(", \"");
            out.push_str(key);
            out.push_str("\": \"");
            escape_json_str_into(&mut out, value);
            out.push('"');
        }
        out.push('}');
        out
    }
}

/// The first line a command prints, or `unknown` if it cannot run.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The process's peak resident set (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets VmHWM to the current resident set, so the next workload of a
/// multi-workload run reports its own peak. Returns whether it worked.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}
