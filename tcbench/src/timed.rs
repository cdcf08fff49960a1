//! The traced run's controller instrument: a [`CoherenceController`] that
//! wraps a stock controller, forwards every trait method to it, and times
//! its three event entry points from outside the protocol's code.
//!
//! Timing every call costs more than many calls take, so only one call in
//! `2^SAMPLE_SHIFT` per method is timed and the self time is scaled up by
//! the call count. Calls are counted exactly. The wrapper can also record
//! the messages each call leaves in the outbox, for the engine replay in
//! `replay.rs`.
//!
//! Factories are plain function pointers, so the tallies live in process
//! globals: each wrapper accumulates privately and folds its tally in when
//! the system that owns it is dropped.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use tc_protocols::{default_registry, ProtocolFactory, ProtocolRegistry};
use tc_sim::{SnapReader, SnapWriter, SnapshotError};
use tc_types::{
    AccessOutcome, BlockAddr, BlockAudit, CoherenceController, ControllerStats, Cycle,
    LineStateStats, MemOp, Message, NodeId, Outbox, ProtocolKind, SystemConfig, Timer,
};

/// One call in `2^SAMPLE_SHIFT` is timed.
pub const SAMPLE_SHIFT: u32 = 4;
const SAMPLE_MASK: u64 = (1 << SAMPLE_SHIFT) - 1;

/// The timed entry points, in tally order.
pub const METHODS: [&str; 3] = ["access", "msg", "timer"];

/// Protocols in tally order, with the layer prefix their metrics use.
pub const PROTOCOLS: [(ProtocolKind, &str); 4] = [
    (ProtocolKind::TokenB, "core.tokenb"),
    (ProtocolKind::Snooping, "protocols.snooping"),
    (ProtocolKind::Directory, "protocols.directory"),
    (ProtocolKind::Hammer, "protocols.hammer"),
];

/// Calls, sampled time and messages sent of one entry point.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub calls: u64,
    pub sampled_calls: u64,
    pub sampled_ns: u64,
    pub sent: u64,
}

impl Tally {
    /// Estimated self time of every call, in seconds: the sampled time less
    /// the clock's own cost per sample, scaled to every call.
    pub fn self_s(&self) -> f64 {
        if self.sampled_calls == 0 {
            return 0.0;
        }
        let clock_ns = clock_overhead_ns() * self.sampled_calls as f64;
        let net_ns = (self.sampled_ns as f64 - clock_ns).max(0.0);
        net_ns * 1e-9 * self.calls as f64 / self.sampled_calls as f64
    }

    fn add(&mut self, other: &Tally) {
        self.calls += other.calls;
        self.sampled_calls += other.sampled_calls;
        self.sampled_ns += other.sampled_ns;
        self.sent += other.sent;
    }
}

/// What one timed sample adds to the span it measures: the median of
/// back-to-back clock reads, measured once per process.
pub fn clock_overhead_ns() -> f64 {
    static OVERHEAD: OnceLock<f64> = OnceLock::new();
    *OVERHEAD.get_or_init(|| {
        let mut spans: Vec<u64> = (0..10_001)
            .map(|_| {
                let start = Instant::now();
                start.elapsed().as_nanos() as u64
            })
            .collect();
        spans.sort_unstable();
        spans[spans.len() / 2] as f64
    })
}

/// Tallies of every protocol and entry point: `[protocol][method]`.
pub type Tallies = [[Tally; 3]; 4];

/// Messages one system's controllers emitted, with that system's config.
#[derive(Debug)]
pub struct Recording {
    pub config: SystemConfig,
    pub messages: Vec<Message>,
}

const ZERO: Tally = Tally {
    calls: 0,
    sampled_calls: 0,
    sampled_ns: 0,
    sent: 0,
};
static TALLIES: Mutex<Tallies> = Mutex::new([[ZERO; 3]; 4]);
/// Messages each controller records; 0 records nothing.
static RECORD_PER_NODE: AtomicUsize = AtomicUsize::new(0);
static NEXT_SYSTEM: AtomicU64 = AtomicU64::new(0);
/// One controller's recording: `(system id, config if node 0, messages)`.
type RecordedPart = (u64, Option<SystemConfig>, Vec<Message>);
static RECORDED: Mutex<Vec<RecordedPart>> = Mutex::new(Vec::new());

thread_local! {
    /// The system whose controllers this thread is building: a system
    /// builds node 0 first, on one thread.
    static BUILDING: Cell<u64> = const { Cell::new(0) };
}

/// Takes (and zeroes) the tallies of every wrapper dropped so far.
pub fn take_tallies() -> Tallies {
    std::mem::take(&mut *TALLIES.lock().expect("tally lock poisoned"))
}

/// Adds `more` into `total`.
pub fn add_tallies(total: &mut Tallies, more: &Tallies) {
    for (tp, mp) in total.iter_mut().zip(more) {
        for (t, m) in tp.iter_mut().zip(mp) {
            t.add(m);
        }
    }
}

/// Makes wrappers built from now on record up to `per_node` messages each.
pub fn record_messages(per_node: usize) {
    RECORD_PER_NODE.store(per_node, Ordering::SeqCst);
}

/// Takes the recordings of every system dropped so far, one per system.
pub fn take_recordings() -> Vec<Recording> {
    let mut parts = std::mem::take(&mut *RECORDED.lock().expect("recording lock poisoned"));
    parts.sort_by_key(|(id, _, _)| *id);
    let mut systems: Vec<RecordedPart> = Vec::new();
    for (id, config, messages) in parts {
        match systems.last_mut() {
            Some(last) if last.0 == id => {
                last.1 = last.1.take().or(config);
                last.2.extend(messages);
            }
            _ => systems.push((id, config, messages)),
        }
    }
    systems
        .into_iter()
        .map(|(_, config, messages)| Recording {
            config: config.expect("node 0 labels its system's recording"),
            messages,
        })
        .collect()
}

/// A registry whose entries wrap the four stock factories in timed
/// controllers.
pub fn timed_registry() -> ProtocolRegistry {
    let factories: [ProtocolFactory; 4] = [
        timed_factory::<0>,
        timed_factory::<1>,
        timed_factory::<2>,
        timed_factory::<3>,
    ];
    let mut registry = ProtocolRegistry::empty();
    for ((kind, _), factory) in PROTOCOLS.iter().zip(factories) {
        registry.register(kind.name(), *kind, factory);
    }
    registry
}

/// The stock factory of `PROTOCOLS[P]`, its controller wrapped in [`Timed`].
fn timed_factory<const P: usize>(
    node: NodeId,
    config: &SystemConfig,
) -> Box<dyn CoherenceController> {
    let stock = default_registry()
        .resolve(PROTOCOLS[P].0)
        .expect("the stock registry builds every protocol");
    Timed::wrap(P, (stock.factory)(node, config), node, config)
}

/// A stock controller with timed entry points.
#[derive(Debug)]
struct Timed {
    inner: Box<dyn CoherenceController>,
    protocol: usize,
    tally: [Tally; 3],
    system: u64,
    /// Kept on node 0 only, to label the recording.
    config: Option<SystemConfig>,
    record_cap: usize,
    recorded: Vec<Message>,
}

impl Timed {
    fn wrap(
        protocol: usize,
        inner: Box<dyn CoherenceController>,
        node: NodeId,
        config: &SystemConfig,
    ) -> Box<dyn CoherenceController> {
        if node.index() == 0 {
            BUILDING.with(|b| b.set(NEXT_SYSTEM.fetch_add(1, Ordering::SeqCst)));
        }
        let record_cap = RECORD_PER_NODE.load(Ordering::SeqCst);
        Box::new(Timed {
            inner,
            protocol,
            tally: [Tally::default(); 3],
            system: BUILDING.with(Cell::get),
            config: (node.index() == 0 && record_cap > 0).then(|| config.clone()),
            record_cap,
            recorded: Vec::new(),
        })
    }

    /// Runs one entry point, timing it if it is this method's sampled call,
    /// and counts (and records, up to the cap) the messages it sent.
    #[inline]
    fn timed<R>(
        &mut self,
        method: usize,
        out: &mut Outbox,
        call: impl FnOnce(&mut dyn CoherenceController, &mut Outbox) -> R,
    ) -> R {
        let before = out.messages.len();
        let tally = &mut self.tally[method];
        let sampled = tally.calls & SAMPLE_MASK == 0;
        tally.calls += 1;
        let result = if sampled {
            let start = Instant::now();
            let result = call(&mut *self.inner, out);
            tally.sampled_ns += start.elapsed().as_nanos() as u64;
            tally.sampled_calls += 1;
            result
        } else {
            call(&mut *self.inner, out)
        };
        let sent = &out.messages[before..];
        tally.sent += sent.len() as u64;
        let room = self.record_cap - self.recorded.len();
        self.recorded.extend(sent.iter().take(room).cloned());
        result
    }
}

impl Drop for Timed {
    fn drop(&mut self) {
        if let Ok(mut tallies) = TALLIES.lock() {
            let mut mine = Tallies::default();
            mine[self.protocol] = self.tally;
            add_tallies(&mut tallies, &mine);
        }
        if self.record_cap > 0 {
            if let Ok(mut recorded) = RECORDED.lock() {
                recorded.push((
                    self.system,
                    self.config.take(),
                    std::mem::take(&mut self.recorded),
                ));
            }
        }
    }
}

impl CoherenceController for Timed {
    fn node(&self) -> NodeId {
        self.inner.node()
    }

    fn protocol_name(&self) -> &'static str {
        self.inner.protocol_name()
    }

    fn access(&mut self, now: Cycle, op: &MemOp, out: &mut Outbox) -> AccessOutcome {
        self.timed(0, out, |c, out| c.access(now, op, out))
    }

    fn handle_message(&mut self, now: Cycle, msg: &Message, out: &mut Outbox) {
        self.timed(1, out, |c, out| c.handle_message(now, msg, out))
    }

    fn handle_timer(&mut self, now: Cycle, timer: Timer, out: &mut Outbox) {
        self.timed(2, out, |c, out| c.handle_timer(now, timer, out))
    }

    fn stats(&self) -> ControllerStats {
        self.inner.stats()
    }

    fn audit_block(&self, addr: BlockAddr) -> Vec<BlockAudit> {
        self.inner.audit_block(addr)
    }

    fn audited_blocks(&self) -> Vec<BlockAddr> {
        self.inner.audited_blocks()
    }

    fn outstanding_misses(&self) -> usize {
        self.inner.outstanding_misses()
    }

    fn outstanding_blocks(&self) -> Vec<BlockAddr> {
        self.inner.outstanding_blocks()
    }

    fn line_state_stats(&self) -> LineStateStats {
        self.inner.line_state_stats()
    }

    fn set_arbiter_sabotage(&mut self, on: bool) {
        self.inner.set_arbiter_sabotage(on)
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.inner.save_state(w)
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        self.inner.load_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_system::{RunOptions, System};
    use tc_types::TopologyKind;
    use tc_workloads::WorkloadProfile;

    #[test]
    fn timed_controllers_leave_every_report_bit_identical() {
        let registry = timed_registry();
        let options = RunOptions {
            ops_per_node: 300,
            max_cycles: 50_000_000,
            ..RunOptions::default()
        };
        for (kind, _) in PROTOCOLS {
            let topology = if kind == ProtocolKind::Snooping {
                TopologyKind::Tree
            } else {
                TopologyKind::Torus
            };
            let config = SystemConfig::isca03_default()
                .with_nodes(4)
                .with_protocol(kind)
                .with_topology(topology);
            let profile = WorkloadProfile::oltp();
            let plain = System::build(&config, &profile).run(options);
            let timed = System::build_with(&config, &profile, &registry).run(options);
            assert!(
                plain.violations.is_empty(),
                "{kind:?}: {:?}",
                plain.violations
            );
            assert_eq!(plain, timed, "{kind:?}: timing changed the report");
        }
        let tallies = take_tallies();
        for (i, (kind, _)) in PROTOCOLS.iter().enumerate() {
            assert!(tallies[i][0].calls > 0, "{kind:?}: no access calls counted");
        }
    }
}
