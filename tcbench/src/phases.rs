//! The timed phases every workload runs, and the correctness gate they
//! report to.

use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use tc_protocols::ProtocolRegistry;
use tc_serve::{client, ServeOptions, ServeStats, Server, Submission};
use tc_system::{run_to_json, Campaign, CampaignEvent, RunOptions, RunReport, System};
use tc_types::JobPriority;

use crate::workload::{Digest, Workload};

/// Counts attempted and failed runs, requests and checks, and why each
/// failed.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// The first digest seen for each point; every later run must match.
    reference: Vec<Option<Digest>>,
    /// `run_to_json` of the first one-shot reports: what the service must
    /// stream, byte for byte.
    expected_lines: Option<Vec<String>>,
}

impl Gate {
    fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }

    /// Checks one run of point `index`: no violations, its target reached,
    /// and the same digest as every earlier run of the point.
    pub fn run(&mut self, wl: &Workload, index: usize, report: &RunReport, what: &str) {
        let point = &wl.points[index];
        let problem = wl.run_failure(point, report).or_else(|| {
            self.reference.resize(wl.points.len(), None);
            let digest = Digest::of(report);
            match &self.reference[index] {
                None => {
                    self.reference[index] = Some(digest);
                    None
                }
                Some(first) if *first == digest => None,
                Some(first) => Some(format!(
                    "{}: digest {digest} differs from the first run's {first}",
                    point.label
                )),
            }
        });
        self.checked_run(problem.map(|p| format!("{what}: {p}")));
    }

    /// Counts a run checked elsewhere, failed if it has a problem.
    pub fn checked_run(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(problem) = problem {
            self.fail(problem);
        }
    }

    /// Checks one service request: it succeeded and streamed exactly the
    /// one-shot lines.
    pub fn request(&mut self, what: &str, outcome: Result<Vec<String>, String>) {
        self.attempted += 1;
        match outcome {
            Err(e) => self.fail(format!("{what}: {e}")),
            Ok(lines) => {
                let expected = self.expected_lines.as_ref().expect("one-shot ran first");
                if lines != *expected {
                    let at = lines.iter().zip(expected).position(|(a, b)| a != b);
                    self.fail(format!(
                        "{what}: {} streamed lines differ from the {} one-shot lines (first difference at {at:?})",
                        lines.len(),
                        expected.len()
                    ));
                }
            }
        }
    }

    /// Counts a check that is neither a run nor a request, failed unless
    /// `ok`.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(problem());
        }
    }

    /// The reference digests, one per point.
    pub fn digests(&self) -> impl Iterator<Item = &Digest> {
        self.reference.iter().flatten()
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// What one rep's set-up built.
pub struct Prepared {
    pub setup_s: f64,
    /// The built system of a single-point workload, for the serial run.
    pub system: Option<System>,
    pub server: Server,
}

/// Builds every point's system and binds a fresh service. The systems of
/// a multi-point workload are dropped: its campaign builds its own.
pub fn setup(wl: &Workload, threads: usize, registry: &ProtocolRegistry) -> Prepared {
    let start = Instant::now();
    let mut system = None;
    for point in &wl.points {
        let built = System::build_with(&point.config, &point.workload, registry);
        if wl.points.len() == 1 {
            system = Some(built);
        }
    }
    let server = Server::bind(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        workers: threads,
        cache_path: None,
    })
    .expect("bind the service on a local port");
    Prepared {
        setup_s: start.elapsed().as_secs_f64(),
        system,
        server,
    }
}

/// Runs a built system; returns (run seconds, report).
pub fn serial(mut system: System, options: RunOptions) -> (f64, RunReport) {
    let start = Instant::now();
    let report = system.run(options);
    (start.elapsed().as_secs_f64(), report)
}

/// One one-shot campaign.
pub struct CampaignOutcome {
    pub wall_s: f64,
    /// Wall seconds of each point (build and run), in submission order.
    pub point_s: Vec<f64>,
    pub reports: Vec<RunReport>,
}

impl CampaignOutcome {
    pub fn events(&self) -> u64 {
        self.reports.iter().map(|r| r.engine.events_delivered).sum()
    }
}

/// Runs every point as one campaign on `threads` workers.
pub fn campaign(wl: &Workload, threads: usize, registry: ProtocolRegistry) -> CampaignOutcome {
    let point_s = Arc::new(Mutex::new(vec![0.0; wl.points.len()]));
    let sink = Arc::clone(&point_s);
    let start = Instant::now();
    let report = Campaign::new(wl.points.clone())
        .options(wl.options)
        .threads(threads)
        .registry(registry)
        .on_progress(move |event| {
            if let CampaignEvent::Finished {
                index,
                wall_seconds,
                ..
            } = event
            {
                sink.lock().expect("progress lock poisoned")[index] = wall_seconds;
            }
        })
        .run();
    let wall_s = start.elapsed().as_secs_f64();
    let point_s = point_s.lock().expect("progress lock poisoned").clone();
    CampaignOutcome {
        wall_s,
        point_s,
        reports: report.runs.into_iter().map(|run| run.report).collect(),
    }
}

impl Gate {
    /// Checks a campaign's runs; the first campaign fixes the lines the
    /// service must stream.
    pub fn campaign(&mut self, wl: &Workload, outcome: &CampaignOutcome, what: &str) {
        for (i, report) in outcome.reports.iter().enumerate() {
            self.run(wl, i, report, what);
        }
        if self.expected_lines.is_none() {
            self.expected_lines = Some(
                wl.points
                    .iter()
                    .zip(&outcome.reports)
                    .map(|(point, report)| run_to_json(&point.label, report))
                    .collect(),
            );
        }
    }
}

/// A running in-process service and the address it listens on.
pub struct Service {
    pub addr: String,
    handle: JoinHandle<std::io::Result<ServeStats>>,
}

impl Service {
    pub fn start(server: Server) -> Service {
        let addr = server
            .local_addr()
            .expect("bound service has an address")
            .to_string();
        let handle = std::thread::spawn(move || server.run());
        Service { addr, handle }
    }

    /// Drains the service and waits for it to exit.
    pub fn stop(self) -> Result<ServeStats, String> {
        client::shutdown(&self.addr).map_err(|e| e.to_string())?;
        match self.handle.join() {
            Ok(result) => result.map_err(|e| e.to_string()),
            Err(_) => Err("service thread panicked".to_string()),
        }
    }
}

/// One submission's timings and streamed run lines.
pub struct Served {
    pub first_line_s: f64,
    pub last_line_s: f64,
    /// Points the service answered from its cache.
    pub cached: usize,
    pub lines: Result<Vec<String>, String>,
}

/// Submits the workload's points and collects the streamed run lines.
pub fn submit(addr: &str, submission: &Submission) -> Served {
    let mut lines = Vec::with_capacity(submission.points.len());
    let mut first_line_s = 0.0;
    let mut last_line_s = 0.0;
    let mut cached = 0;
    let start = Instant::now();
    let outcome = client::submit(addr, submission, |line| {
        last_line_s = start.elapsed().as_secs_f64();
        if lines.is_empty() {
            first_line_s = last_line_s;
        }
        lines.push(line.trim_end().to_string());
    });
    let lines = match outcome {
        Ok(o) if o.ran + o.cache_hits == submission.points.len() => {
            cached = o.cache_hits;
            Ok(lines)
        }
        Ok(o) => Err(format!(
            "{}: {} ran + {} cached of {} points",
            o.job,
            o.ran,
            o.cache_hits,
            submission.points.len()
        )),
        Err(e) => Err(e.to_string()),
    };
    Served {
        first_line_s,
        last_line_s,
        cached,
        lines,
    }
}

/// The submission of every point of the workload.
pub fn submission(wl: &Workload) -> Submission {
    Submission {
        priority: JobPriority::Normal,
        options: wl.options,
        points: wl.points.clone(),
    }
}
