//! The traced run: per-layer metrics of one workload, measured from the
//! benchmark's own code around calls into each layer. It never supplies
//! end-to-end numbers.

use std::time::Instant;

use tc_protocols::{default_registry, ProtocolRegistry};
use tc_serve::client;
use tc_system::{ExperimentPoint, RunReport, System};
use tc_types::ProtocolKind;

use crate::phases::{self, Gate, Service};
use crate::replay;
use crate::stats::{percentile, Metric};
use crate::timed::{self, Tallies, METHODS, PROTOCOLS};
use crate::workload::{run_failure, Workload};

/// Untraced and traced simulation passes, alternated.
const PAIRS: usize = 2;
/// Messages each controller records for the engine replay.
const RECORD_PER_NODE: usize = 20_000;
/// `/status` round trips and warm resubmissions timed.
const STATUS_CALLS: usize = 20;
const RESUBMITS: usize = 20;
/// A companion run's share of the workload's operations per node.
const COMPANION_OPS_DIVISOR: u64 = 4;
/// The sharded comparison's share of the workload's operations per node.
const SHARDED_OPS_DIVISOR: u64 = 4;

/// Host time and reports of one pass over the workload's simulations.
struct Pass {
    run_s: f64,
    reports: Vec<RunReport>,
    wall_s: f64,
}

/// A single-point workload runs its system serially; a multi-point one as
/// a campaign, whose run time is the sum of its points' wall times.
fn pass(wl: &Workload, threads: usize, registry: &ProtocolRegistry) -> Pass {
    if wl.points.len() == 1 {
        let point = &wl.points[0];
        let system = System::build_with(&point.config, &point.workload, registry);
        let (run_s, report) = phases::serial(system, wl.options);
        return Pass {
            run_s,
            reports: vec![report],
            wall_s: run_s,
        };
    }
    let outcome = phases::campaign(wl, threads, registry.clone());
    Pass {
        run_s: outcome.point_s.iter().sum(),
        reports: outcome.reports,
        wall_s: outcome.wall_s,
    }
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

pub fn measure(wl: &Workload, threads: usize, gate: &mut Gate) -> (Vec<Metric>, Vec<String>) {
    let plain = default_registry().clone();
    let instrumented = timed::timed_registry();
    let mut notes = Vec::new();
    let check = |gate: &mut Gate, p: &Pass, what: &str| {
        for (i, report) in p.reports.iter().enumerate() {
            gate.run(wl, i, report, what);
        }
    };

    // Warm-up, then untraced and traced passes alternated. Every pass must
    // reproduce the warm-up's digests.
    check(gate, &pass(wl, threads, &plain), "warm-up");
    timed::take_tallies();
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut tallies = Tallies::default();
    let mut last_untraced = None;
    for _ in 0..PAIRS {
        let p = pass(wl, threads, &plain);
        check(gate, &p, "untraced pass");
        untraced_s.push(p.run_s);
        last_untraced = Some(p);
        let p = pass(wl, threads, &instrumented);
        check(gate, &p, "traced pass");
        traced_s.push(p.run_s);
        timed::add_tallies(&mut tallies, &timed::take_tallies());
    }
    let untraced = last_untraced.expect("at least one pair");
    let untraced_run_s = median(&untraced_s);
    let traced_run_s = median(&traced_s);

    // A recording pass for the engine replay.
    timed::record_messages(RECORD_PER_NODE);
    let recorded = pass(wl, threads, &instrumented);
    timed::record_messages(0);
    timed::take_tallies();
    check(gate, &recorded, "recording pass");
    let engine = replay::replay_engine(timed::take_recordings());

    let mut metrics = Vec::new();
    let per_pass = 1.0 / PAIRS as f64;
    let mut controller_s = 0.0;
    let mut sends = 0.0;
    for (i, (kind, prefix)) in PROTOCOLS.iter().enumerate() {
        let present = wl.points.iter().any(|p| p.config.protocol == *kind);
        if present {
            controller_s += tallies[i].iter().map(|t| t.self_s()).sum::<f64>() * per_pass;
            sends += tallies[i].iter().map(|t| t.sent as f64).sum::<f64>() * per_pass;
        }
        if *kind == ProtocolKind::Snooping {
            continue;
        }
        let (protocol_tallies, scale) = if present {
            (tallies[i], per_pass)
        } else {
            notes.push(format!(
                "{prefix}: the workload runs no {kind:?} point; timed on a companion run of \
                 its first point under {kind:?} at 1/{COMPANION_OPS_DIVISOR} of its operations"
            ));
            (
                companion(wl, &wl.points[0], *kind, &instrumented, gate)[i],
                1.0,
            )
        };
        for (method, tally) in METHODS.iter().zip(protocol_tallies) {
            if *method == "timer" && *kind != ProtocolKind::TokenB {
                // Directory and Hammer arm no timers: nothing to time.
                continue;
            }
            metrics.push(Metric::one(
                format!("{prefix}.{method}.calls"),
                "count",
                tally.calls as f64 * scale,
            ));
            metrics.push(Metric::one(
                format!("{prefix}.{method}.self_s"),
                "s",
                tally.self_s() * scale,
            ));
        }
    }
    metrics.push(Metric::one(
        "system.controller_share",
        "ratio",
        controller_s / traced_run_s,
    ));
    metrics.push(Metric::one(
        "system.engine_self_s",
        "s",
        traced_run_s - controller_s,
    ));

    // Counts come from the run (messages the controllers sent, events the
    // queue delivered); costs per operation from the replay.
    let events: u64 = untraced
        .reports
        .iter()
        .map(|r| r.engine.events_delivered)
        .sum();
    let replayed_sends = engine.sends.max(1) as f64;
    metrics.push(Metric::one("interconnect.send.calls", "count", sends));
    metrics.push(Metric::one(
        "interconnect.send.ns_per_call",
        "ns",
        engine.send_s * 1e9 / replayed_sends,
    ));
    metrics.push(Metric::one(
        "interconnect.send.arrivals_per_call",
        "count",
        engine.arrivals as f64 / replayed_sends,
    ));
    metrics.push(Metric::one("sim.queue.ops", "count", 2.0 * events as f64));
    metrics.push(Metric::one(
        "sim.queue.ns_per_op",
        "ns",
        engine.queue_s * 1e9 / engine.queue_ops.max(1) as f64,
    ));
    let peak_depth = untraced
        .reports
        .iter()
        .map(|r| r.engine.peak_queue_depth)
        .max();
    metrics.push(Metric::one(
        "sim.queue.peak_depth",
        "count",
        peak_depth.unwrap_or(0) as f64,
    ));
    metrics.push(Metric::one("sim.arena.msgs", "count", sends));
    metrics.push(Metric::one(
        "sim.arena.ns_per_msg",
        "ns",
        engine.arena_s * 1e9 / engine.arena_msgs.max(1) as f64,
    ));

    // Memory system and workload generators, one profile at a time.
    let mut probe = Vec::new();
    let mut next_op = Vec::new();
    let mut seen = Vec::new();
    for point in &wl.points {
        if !seen.contains(&point.workload.name) {
            seen.push(point.workload.name);
            let (p, n) = replay::cache_and_generator(point);
            probe.push(p);
            next_op.push(n);
        }
    }
    metrics.push(Metric::new("memsys.cache.probe_ns", "ns", probe));
    let state_bytes = untraced
        .reports
        .iter()
        .map(|r| r.engine.state.state_bytes)
        .max();
    metrics.push(Metric::one(
        "memsys.line_state_bytes",
        "bytes",
        state_bytes.unwrap_or(0) as f64,
    ));
    metrics.push(Metric::new("workloads.next_op_ns", "ns", next_op));

    // Campaign scheduling: a one-shot campaign of every point.
    let oneshot = phases::campaign(wl, threads, plain.clone());
    gate.campaign(wl, &oneshot, "one-shot campaign");
    let busy_s: f64 = oneshot.point_s.iter().sum();
    metrics.push(Metric::one(
        "system.campaign.point_s_p50",
        "s",
        median(&oneshot.point_s),
    ));
    metrics.push(Metric::one(
        "system.campaign.point_s_max",
        "s",
        oneshot.point_s.iter().copied().fold(0.0, f64::max),
    ));
    metrics.push(Metric::one(
        "system.campaign.busy_frac",
        "ratio",
        busy_s / (threads as f64 * oneshot.wall_s),
    ));

    // The service: a cold submission, warm resubmissions, then status
    // round trips.
    let prepared = phases::setup(wl, threads, &plain);
    let service = Service::start(prepared.server);
    let submission = phases::submission(wl);
    let cold = phases::submit(&service.addr, &submission);
    gate.request("cold submission", cold.lines);
    let mut resubmit_ms = Vec::with_capacity(RESUBMITS);
    for _ in 0..RESUBMITS {
        let start = Instant::now();
        let warm = phases::submit(&service.addr, &submission);
        resubmit_ms.push(start.elapsed().as_secs_f64() * 1e3);
        gate.request("warm resubmission", warm.lines);
    }
    metrics.push(Metric::one(
        "serve.cold.first_line_ms",
        "ms",
        cold.first_line_s * 1e3,
    ));
    metrics.push(Metric::one(
        "serve.cold.busy_frac",
        "ratio",
        busy_s / (threads as f64 * cold.last_line_s),
    ));
    let (render_ns, lookup_ns) =
        replay::render_and_lookup(&wl.points, &oneshot.reports, &wl.options);
    metrics.push(Metric::one("serve.render_ns", "ns", render_ns));
    metrics.push(Metric::one("serve.cache.lookup_ns", "ns", lookup_ns));
    // A warm resubmission's latency less rendering and looking up its
    // points: the wait for the service's accept poll, plus HTTP and client
    // glue.
    let served_points_ms = wl.points.len() as f64 * (render_ns + lookup_ns) * 1e-6;
    metrics.push(Metric::one(
        "serve.accept_wait_ms",
        "ms",
        median(&resubmit_ms) - served_points_ms,
    ));
    let mut status_ms = Vec::with_capacity(STATUS_CALLS);
    for _ in 0..STATUS_CALLS {
        let start = Instant::now();
        let ok = client::status(&service.addr).is_ok();
        status_ms.push(start.elapsed().as_secs_f64() * 1e3);
        gate.check(ok, || "status request failed".to_string());
    }
    metrics.push(Metric::new("serve.http.status_ms", "ms", status_ms));
    if let Err(e) = service.stop() {
        gate.check(false, || format!("service shutdown: {e}"));
    }

    // The sharded engine against the serial one, on the first point at a
    // fraction of the workload's operations.
    let point = &wl.points[0];
    let mut options = wl.options;
    options.ops_per_node /= SHARDED_OPS_DIVISOR;
    let build = || System::build(&point.config, &point.workload);
    let (serial_s, serial) = phases::serial(build(), options);
    let (shards1_s, one) = phases::serial(build(), options.with_shards(1));
    let (shards_n_s, many) = phases::serial(build(), options.with_shards(threads as u32));
    for (what, report) in [("serial", &serial), ("1-shard", &one), ("N-shard", &many)] {
        gate.checked_run(run_failure(point, &options, report).map(|p| format!("{what} run: {p}")));
    }
    gate.check(one.determinism_view() == many.determinism_view(), || {
        format!("sharded run: 1 and {threads} shards disagree")
    });
    metrics.push(Metric::one("system.sharded.run_s_shards1", "s", shards1_s));
    metrics.push(Metric::one("system.sharded.run_s_shardsN", "s", shards_n_s));
    metrics.push(Metric::one(
        "system.sharded.speedup_vs_serial",
        "ratio",
        serial_s / shards_n_s,
    ));

    metrics.push(Metric::one(
        "trace.overhead_frac",
        "ratio",
        (traced_run_s - untraced_run_s) / untraced_run_s,
    ));
    notes.push(format!(
        "controller time is sampled on 1 call in {} per entry point; traced run_s {traced_run_s:.4} s \
         against untraced {untraced_run_s:.4} s; campaign wall {:.4} s",
        1u32 << timed::SAMPLE_SHIFT,
        untraced.wall_s
    ));
    notes.push(format!(
        "engine replay: {} of the run's sends (at most {RECORD_PER_NODE} recorded per controller), \
         {} queue operations, peak replay depth {}",
        engine.sends, engine.queue_ops, engine.queue_peak
    ));
    (metrics, notes)
}

/// Runs `point` under `protocol` at a fraction of the workload's
/// operations with timed controllers, and returns its tallies.
fn companion(
    wl: &Workload,
    point: &ExperimentPoint,
    protocol: ProtocolKind,
    registry: &ProtocolRegistry,
    gate: &mut Gate,
) -> Tallies {
    let mut point = point.clone();
    point.config.protocol = protocol;
    let mut options = wl.options;
    options.ops_per_node /= COMPANION_OPS_DIVISOR;
    timed::take_tallies();
    let report = point.run_with(options, registry);
    let problem = run_failure(&point, &options, &report);
    gate.checked_run(problem.map(|p| format!("companion {} run: {p}", protocol.name())));
    timed::take_tallies()
}
