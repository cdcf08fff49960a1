//! The untraced run: the end-to-end metrics of one workload.
//!
//! One rep sets the workload up (every point's system built, a fresh
//! service bound), runs a single point serially, runs every point as a
//! one-shot campaign, submits them cold to the service, and resubmits them
//! warm in a closed loop. The first rep is an untimed warm-up; reps repeat
//! until the run has lasted `seconds` and at least [`MIN_REPS`] timed reps
//! are done.

use std::time::{Duration, Instant};

use tc_protocols::{default_registry, ProtocolRegistry};

use crate::host::peak_rss_mb;
use crate::phases::{self, Gate, Service};
use crate::stats::Metric;
use crate::workload::Workload;

/// Timed reps per run, at least.
const MIN_REPS: usize = 7;
/// Warm resubmissions per rep: with [`MIN_REPS`] reps, enough that ten
/// samples lie beyond the 95th percentile.
const RESUBMITS_PER_REP: usize = 29;
/// Set-up samples per run, at least, and the set-up time they must fill.
/// A single-point set-up takes a few milliseconds, and the few made inside
/// reps follow a run whose memory was just freed: on a 2-core host the
/// spread (q3 - q1) / median of their median over ten `tokenb16` runs was
/// 0.39, against 0.07-0.11 with bare set-ups added after the reps.
const MIN_SETUPS: usize = 7;
const MIN_SETUP_TIME: Duration = Duration::from_secs(1);

#[derive(Debug, Default)]
struct Samples {
    setup_s: Vec<f64>,
    run_s: Vec<f64>,
    events_per_s: Vec<f64>,
    campaign_s: Vec<f64>,
    served_s: Vec<f64>,
    resubmit_ms: Vec<f64>,
}

pub fn measure(wl: &Workload, threads: usize, seconds: Duration, gate: &mut Gate) -> Vec<Metric> {
    let registry = default_registry().clone();
    let mut warm_up = Samples::default();
    rep(wl, threads, &registry, 1, gate, &mut warm_up);

    let mut s = Samples::default();
    let start = Instant::now();
    let mut reps = 0;
    while reps < MIN_REPS || start.elapsed() < seconds {
        rep(wl, threads, &registry, RESUBMITS_PER_REP, gate, &mut s);
        reps += 1;
    }
    while s.setup_s.len() < MIN_SETUPS
        || Duration::from_secs_f64(s.setup_s.iter().sum()) < MIN_SETUP_TIME
    {
        s.setup_s
            .push(phases::setup(wl, threads, &registry).setup_s);
    }

    vec![
        Metric::new("setup_s", "s", s.setup_s),
        Metric::new("run_s", "s", s.run_s),
        Metric::new("events_per_s", "events/s", s.events_per_s),
        Metric::one("peak_rss_mb", "MiB", peak_rss_mb()),
        Metric::new("campaign_s", "s", s.campaign_s),
        Metric::new("served_s", "s", s.served_s),
        Metric::new("resubmit_p50_ms", "ms", s.resubmit_ms.clone()),
        Metric::new("resubmit_p95_ms", "ms", s.resubmit_ms).at(95.0),
    ]
}

fn rep(
    wl: &Workload,
    threads: usize,
    registry: &ProtocolRegistry,
    resubmits: usize,
    gate: &mut Gate,
    s: &mut Samples,
) {
    let prepared = phases::setup(wl, threads, registry);
    s.setup_s.push(prepared.setup_s);
    let service = Service::start(prepared.server);

    if let Some(system) = prepared.system {
        let (run_s, report) = phases::serial(system, wl.options);
        gate.run(wl, 0, &report, "serial run");
        s.run_s.push(run_s);
        s.events_per_s
            .push(report.engine.events_delivered as f64 / run_s);
    }

    let oneshot = phases::campaign(wl, threads, registry.clone());
    gate.campaign(wl, &oneshot, "one-shot campaign");
    s.campaign_s.push(oneshot.wall_s);
    if wl.points.len() > 1 {
        // Host time spent simulating, summed over the campaign's points.
        let run_s: f64 = oneshot.point_s.iter().sum();
        s.run_s.push(run_s);
        s.events_per_s.push(oneshot.events() as f64 / run_s);
    }

    let submission = phases::submission(wl);
    let cold = phases::submit(&service.addr, &submission);
    gate.check(cold.cached == 0, || {
        format!(
            "cold submission: {} points came from the cache",
            cold.cached
        )
    });
    s.served_s.push(cold.last_line_s);
    gate.request("cold submission", cold.lines);
    for _ in 0..resubmits {
        let start = Instant::now();
        let warm = phases::submit(&service.addr, &submission);
        s.resubmit_ms.push(start.elapsed().as_secs_f64() * 1e3);
        gate.check(warm.cached == wl.points.len(), || {
            format!(
                "warm resubmission: {} of {} points came from the cache",
                warm.cached,
                wl.points.len()
            )
        });
        gate.request("warm resubmission", warm.lines);
    }
    if let Err(e) = service.stop() {
        gate.check(false, || format!("service shutdown: {e}"));
    }
}
