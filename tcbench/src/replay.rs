//! Per-layer microbenches of the traced run: the engine layers timed by
//! replaying a recorded message stream, and the memory, workload and
//! service layers timed on inputs derived from the workload.

use std::hint::black_box;
use std::time::Instant;

use tc_interconnect::Interconnect;
use tc_memsys::SetAssocCache;
use tc_serve::{cache_key, ResultCache};
use tc_sim::{Arena, ArenaRef, EventQueue};
use tc_system::{run_to_json, ExperimentPoint, RunOptions, RunReport};
use tc_types::{Cycle, Message, NodeId};
use tc_workloads::WorkloadGenerator;

use crate::timed::Recording;

/// What the replay of recorded messages measured.
#[derive(Debug, Default)]
pub struct EngineReplay {
    pub sends: u64,
    pub arrivals: u64,
    pub send_s: f64,
    pub queue_ops: u64,
    pub queue_s: f64,
    pub queue_peak: u64,
    pub arena_msgs: u64,
    pub arena_s: f64,
}

/// One step of the arena replay, in the order the queue replay met it.
#[derive(Debug, Clone, Copy)]
enum ArenaStep {
    Park { msg: u32, copies: u32 },
    Deliver { msg: u32 },
}

/// Replays each recording through a fresh fabric built from its config,
/// then the arrivals through the calendar queue and the payload arena, in
/// the order the runner would: each send parks its payload once and
/// schedules one delivery per arrival, and deliveries due by the next send
/// are popped, read and released before it.
pub fn replay_engine(recordings: Vec<Recording>) -> EngineReplay {
    let mut total = EngineReplay::default();
    for Recording {
        config,
        mut messages,
    } in recordings
    {
        messages.sort_by_key(|m| m.sent_at);
        // Fabric: every send's arrivals, flattened per message.
        let mut fabric = Interconnect::new(config.num_nodes, config.interconnect);
        let mut buf: Vec<(Cycle, NodeId)> = Vec::new();
        let mut arrivals: Vec<Cycle> = Vec::with_capacity(messages.len() * config.num_nodes);
        let mut ends: Vec<usize> = Vec::with_capacity(messages.len());
        let start = Instant::now();
        for msg in &messages {
            fabric.send_arrivals(msg.sent_at, msg, &mut buf);
            arrivals.extend(buf.iter().map(|&(at, _)| at));
            ends.push(arrivals.len());
            buf.clear();
        }
        total.send_s += start.elapsed().as_secs_f64();
        total.sends += messages.len() as u64;
        total.arrivals += arrivals.len() as u64;

        // Calendar queue: the timed pass, then the same pass logging the
        // order the arena replay follows.
        let start = Instant::now();
        let (ops, peak) = queue_pass(&messages, &arrivals, &ends, None);
        total.queue_s += start.elapsed().as_secs_f64();
        total.queue_ops += ops;
        total.queue_peak = total.queue_peak.max(peak);
        let mut steps = Vec::with_capacity(messages.len() + arrivals.len());
        queue_pass(&messages, &arrivals, &ends, Some(&mut steps));

        // Payload arena.
        let mut payloads: Vec<Option<Message>> = messages.into_iter().map(Some).collect();
        let mut handles: Vec<Option<ArenaRef>> = vec![None; payloads.len()];
        let mut arena: Arena<Message> = Arena::new();
        let start = Instant::now();
        for step in &steps {
            match *step {
                ArenaStep::Park { msg, copies } => {
                    let payload = payloads[msg as usize].take().expect("parked once");
                    handles[msg as usize] = Some(arena.insert_shared(payload, copies));
                }
                ArenaStep::Deliver { msg } => {
                    let handle = handles[msg as usize].expect("delivered after parking");
                    black_box(arena.get(handle));
                    arena.release(handle);
                }
            }
        }
        total.arena_s += start.elapsed().as_secs_f64();
        total.arena_msgs += steps
            .iter()
            .filter(|s| matches!(s, ArenaStep::Park { .. }))
            .count() as u64;
    }
    total
}

/// Runs the arrivals through an [`EventQueue`]; returns (operations, peak
/// depth) and, when asked, the arena steps in order.
fn queue_pass(
    messages: &[Message],
    arrivals: &[Cycle],
    ends: &[usize],
    mut steps: Option<&mut Vec<ArenaStep>>,
) -> (u64, u64) {
    let mut queue: EventQueue<u32> = EventQueue::new();
    let mut ops = 0u64;
    let mut begin = 0usize;
    let mut pop_due =
        |queue: &mut EventQueue<u32>, until: Cycle, steps: &mut Option<&mut Vec<ArenaStep>>| {
            while queue.peek_time().is_some_and(|t| t <= until) {
                let (_, msg) = queue.pop().expect("peeked");
                ops += 1;
                if let Some(steps) = steps.as_mut() {
                    steps.push(ArenaStep::Deliver { msg });
                }
            }
        };
    for (i, (msg, &end)) in messages.iter().zip(ends).enumerate() {
        pop_due(&mut queue, msg.sent_at, &mut steps);
        if end > begin {
            for &at in &arrivals[begin..end] {
                queue.schedule(at, i as u32);
            }
            if let Some(steps) = steps.as_mut() {
                steps.push(ArenaStep::Park {
                    msg: i as u32,
                    copies: (end - begin) as u32,
                });
            }
        }
        begin = end;
    }
    pop_due(&mut queue, Cycle::MAX, &mut steps);
    let scheduled = arrivals.len() as u64;
    (ops + scheduled, queue.max_depth() as u64)
}

/// Probes per timed pass of the cache and generator microbenches.
const OPS_PER_NODE: usize = 4096;
/// Timed probe passes over the generated addresses.
const PROBE_PASSES: usize = 5;

/// Nanoseconds per L2 probe (lookup, and insert on a miss) on the
/// addresses the point's workload generators yield, and nanoseconds per
/// generated operation.
pub fn cache_and_generator(point: &ExperimentPoint) -> (f64, f64) {
    let config = &point.config;
    let nodes = config.num_nodes;
    let mut generators: Vec<WorkloadGenerator> = (0..nodes)
        .map(|n| WorkloadGenerator::new(&point.workload, NodeId::new(n), nodes, config.seed))
        .collect();
    let start = Instant::now();
    let mut blocks = Vec::with_capacity(nodes * OPS_PER_NODE);
    for generator in &mut generators {
        for _ in 0..OPS_PER_NODE {
            blocks.push(
                black_box(generator.next_op())
                    .op
                    .addr
                    .block(config.block_bytes),
            );
        }
    }
    let next_op_ns = start.elapsed().as_nanos() as f64 / blocks.len() as f64;

    // Five passes over the same addresses; the median is the probe cost
    // once the caches hold the working set they can.
    let mut caches: Vec<SetAssocCache<u8>> = (0..nodes)
        .map(|_| SetAssocCache::new(&config.l2, config.block_bytes))
        .collect();
    let mut passes: Vec<f64> = (0..PROBE_PASSES)
        .map(|_| {
            let start = Instant::now();
            for (cache, chunk) in caches.iter_mut().zip(blocks.chunks(OPS_PER_NODE)) {
                for &block in chunk {
                    if cache.get(block).is_none() {
                        black_box(cache.insert(block, 0));
                    }
                }
            }
            start.elapsed().as_nanos() as f64 / blocks.len() as f64
        })
        .collect();
    passes.sort_by(f64::total_cmp);
    let probe_ns = passes[PROBE_PASSES / 2];
    (probe_ns, next_op_ns)
}

/// Calls made per timed pass of the service microbenches.
const SERVICE_CALLS: usize = 2000;

/// Nanoseconds per `run_to_json` of the workload's reports and per
/// `ResultCache::lookup` of their keys.
pub fn render_and_lookup(
    points: &[ExperimentPoint],
    reports: &[RunReport],
    options: &RunOptions,
) -> (f64, f64) {
    let pairs: Vec<(&ExperimentPoint, &RunReport)> = points.iter().zip(reports).collect();
    let start = Instant::now();
    for i in 0..SERVICE_CALLS {
        let (point, report) = pairs[i % pairs.len()];
        black_box(run_to_json(&point.label, report));
    }
    let render_ns = start.elapsed().as_nanos() as f64 / SERVICE_CALLS as f64;

    let mut cache = ResultCache::new();
    let keys: Vec<String> = pairs
        .iter()
        .map(|(point, report)| {
            let key = cache_key(point, options);
            cache.insert(key.clone(), (*report).clone());
            key
        })
        .collect();
    let start = Instant::now();
    for i in 0..SERVICE_CALLS {
        black_box(cache.lookup(&keys[i % keys.len()]).is_some());
    }
    let lookup_ns = start.elapsed().as_nanos() as f64 / SERVICE_CALLS as f64;
    (render_ns, lookup_ns)
}
