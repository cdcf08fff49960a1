//! Statistics containers shared by the protocols, the interconnect, and the
//! system runner.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Mutex, OnceLock};

use tc_sim::snapshot::{SnapReader, SnapWriter, SnapshotError};

use crate::ids::Cycle;
use crate::message::{Message, MsgKind};

/// Interns a counter name so a deserialized [`ControllerStats::extra`] key
/// can become the `&'static str` the map requires. The vocabulary is the
/// handful of protocol counter names, so leaking each distinct name once is
/// bounded and cheap.
pub fn intern_counter_name(name: &str) -> &'static str {
    static NAMES: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    let names = NAMES.get_or_init(|| Mutex::new(Vec::new()));
    let mut guard = names.lock().unwrap_or_else(|poison| poison.into_inner());
    if let Some(&existing) = guard.iter().find(|&&n| n == name) {
        return existing;
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    guard.push(leaked);
    leaked
}

/// Traffic classification used by the paper's traffic breakdowns
/// (Figures 4b and 5b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TrafficClass {
    /// Initial transient / ordinary requests.
    Request,
    /// Requests forwarded by a home node and invalidations.
    ForwardedOrInvalidation,
    /// Data responses and writebacks (72-byte messages).
    DataResponseOrWriteback,
    /// Other non-data messages (acks, unblocks, dataless token transfers).
    OtherControl,
    /// Reissued transient requests and persistent-request traffic
    /// (Token Coherence only).
    ReissueOrPersistent,
}

impl TrafficClass {
    /// All classes, in the order the paper's stacked bars present them.
    pub const ALL: [TrafficClass; 5] = [
        TrafficClass::DataResponseOrWriteback,
        TrafficClass::OtherControl,
        TrafficClass::ForwardedOrInvalidation,
        TrafficClass::Request,
        TrafficClass::ReissueOrPersistent,
    ];

    /// Dense index of this class, used by [`TrafficStats`]' flat counters.
    #[inline]
    const fn index(self) -> usize {
        match self {
            TrafficClass::Request => 0,
            TrafficClass::ForwardedOrInvalidation => 1,
            TrafficClass::DataResponseOrWriteback => 2,
            TrafficClass::OtherControl => 3,
            TrafficClass::ReissueOrPersistent => 4,
        }
    }

    /// Classifies a message.
    pub fn of(msg: &Message) -> TrafficClass {
        if msg.reissue {
            return TrafficClass::ReissueOrPersistent;
        }
        match &msg.kind {
            MsgKind::GetS | MsgKind::GetM => TrafficClass::Request,
            MsgKind::HammerProbe { .. }
            | MsgKind::FwdGetS { .. }
            | MsgKind::FwdGetM { .. }
            | MsgKind::Inv { .. } => TrafficClass::ForwardedOrInvalidation,
            MsgKind::TokenData { .. } | MsgKind::Data { .. } | MsgKind::PutM => {
                TrafficClass::DataResponseOrWriteback
            }
            MsgKind::PersistentRequest { .. }
            | MsgKind::PersistentActivate { .. }
            | MsgKind::PersistentDeactivate
            | MsgKind::PersistentAck
            | MsgKind::PersistentComplete => TrafficClass::ReissueOrPersistent,
            MsgKind::PutS
            | MsgKind::TokenOnly { .. }
            | MsgKind::InvAck
            | MsgKind::WbAck
            | MsgKind::WbCancel
            | MsgKind::Unblock
            | MsgKind::ExclusiveUnblock => TrafficClass::OtherControl,
        }
    }

    /// Label used in experiment reports.
    pub fn label(self) -> &'static str {
        match self {
            TrafficClass::Request => "requests",
            TrafficClass::ForwardedOrInvalidation => "forwards & invalidations",
            TrafficClass::DataResponseOrWriteback => "data responses & writebacks",
            TrafficClass::OtherControl => "other non-data messages",
            TrafficClass::ReissueOrPersistent => "reissues & persistent requests",
        }
    }
}

impl fmt::Display for TrafficClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Interconnect traffic, accumulated per traffic class, in both messages and
/// link-bytes (a broadcast that crosses five links counts its size five
/// times, matching how the paper reports interconnect traffic).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrafficStats {
    // Flat per-class counters indexed by `TrafficClass::index`: `record`
    // runs once per injected message on the hot send path, so the class
    // buckets are arrays rather than maps.
    bytes: [u64; 5],
    messages: [u64; 5],
    link_bytes: [u64; 5],
}

impl TrafficStats {
    /// Creates an empty traffic accumulator.
    pub fn new() -> Self {
        TrafficStats::default()
    }

    /// Records one message that will traverse `link_crossings` links.
    #[inline]
    pub fn record(&mut self, class: TrafficClass, size_bytes: u64, link_crossings: u64) {
        let i = class.index();
        self.bytes[i] += size_bytes;
        self.messages[i] += 1;
        self.link_bytes[i] += size_bytes * link_crossings;
    }

    /// Endpoint bytes recorded for a class (each message counted once).
    pub fn bytes(&self, class: TrafficClass) -> u64 {
        self.bytes[class.index()]
    }

    /// Messages recorded for a class.
    pub fn messages(&self, class: TrafficClass) -> u64 {
        self.messages[class.index()]
    }

    /// Link-crossing bytes recorded for a class (the paper's traffic metric).
    pub fn link_bytes(&self, class: TrafficClass) -> u64 {
        self.link_bytes[class.index()]
    }

    /// Total endpoint bytes across all classes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Total messages across all classes.
    pub fn total_messages(&self) -> u64 {
        self.messages.iter().sum()
    }

    /// Total link-crossing bytes across all classes.
    pub fn total_link_bytes(&self) -> u64 {
        self.link_bytes.iter().sum()
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &TrafficStats) {
        for i in 0..5 {
            self.bytes[i] += other.bytes[i];
            self.messages[i] += other.messages[i];
            self.link_bytes[i] += other.link_bytes[i];
        }
    }

    /// Serializes all per-class counters.
    pub fn save_state(&self, w: &mut SnapWriter) {
        for arr in [&self.bytes, &self.messages, &self.link_bytes] {
            for &v in arr {
                w.u64(v);
            }
        }
    }

    /// Rebuilds from [`TrafficStats::save_state`] bytes.
    pub fn load_state(r: &mut SnapReader<'_>) -> Result<TrafficStats, SnapshotError> {
        let mut out = TrafficStats::new();
        for arr in [&mut out.bytes, &mut out.messages, &mut out.link_bytes] {
            for v in arr.iter_mut() {
                *v = r.u64()?;
            }
        }
        Ok(out)
    }
}

/// Cache-miss statistics for one node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MissStats {
    /// Demand accesses that hit in the L1.
    pub l1_hits: u64,
    /// Demand accesses that hit in the L2 (after missing in the L1).
    pub l2_hits: u64,
    /// Read misses that left the node.
    pub read_misses: u64,
    /// Write misses that left the node.
    pub write_misses: u64,
    /// Upgrade misses (had a shared copy, needed exclusive).
    pub upgrade_misses: u64,
    /// Misses satisfied by another cache (cache-to-cache transfers).
    pub cache_to_cache: u64,
    /// Misses satisfied by memory.
    pub from_memory: u64,
    /// Sum of miss latencies, for averaging.
    pub total_miss_latency: Cycle,
    /// Number of completed misses contributing to `total_miss_latency`.
    pub completed_misses: u64,
    /// Writebacks (dirty evictions) sent to memory.
    pub writebacks: u64,
}

impl MissStats {
    /// Total misses that left the node.
    pub fn total_misses(&self) -> u64 {
        self.read_misses + self.write_misses + self.upgrade_misses
    }

    /// Average latency of completed misses, in cycles.
    pub fn average_miss_latency(&self) -> f64 {
        if self.completed_misses == 0 {
            0.0
        } else {
            self.total_miss_latency as f64 / self.completed_misses as f64
        }
    }

    /// Fraction of completed misses that were cache-to-cache transfers.
    pub fn cache_to_cache_fraction(&self) -> f64 {
        let done = self.cache_to_cache + self.from_memory;
        if done == 0 {
            0.0
        } else {
            self.cache_to_cache as f64 / done as f64
        }
    }

    /// Serializes every counter.
    pub fn save_state(&self, w: &mut SnapWriter) {
        for v in [
            self.l1_hits,
            self.l2_hits,
            self.read_misses,
            self.write_misses,
            self.upgrade_misses,
            self.cache_to_cache,
            self.from_memory,
            self.total_miss_latency,
            self.completed_misses,
            self.writebacks,
        ] {
            w.u64(v);
        }
    }

    /// Rebuilds from [`MissStats::save_state`] bytes.
    pub fn load_state(r: &mut SnapReader<'_>) -> Result<MissStats, SnapshotError> {
        Ok(MissStats {
            l1_hits: r.u64()?,
            l2_hits: r.u64()?,
            read_misses: r.u64()?,
            write_misses: r.u64()?,
            upgrade_misses: r.u64()?,
            cache_to_cache: r.u64()?,
            from_memory: r.u64()?,
            total_miss_latency: r.u64()?,
            completed_misses: r.u64()?,
            writebacks: r.u64()?,
        })
    }

    /// Merges another node's statistics into this one.
    pub fn merge(&mut self, other: &MissStats) {
        self.l1_hits += other.l1_hits;
        self.l2_hits += other.l2_hits;
        self.read_misses += other.read_misses;
        self.write_misses += other.write_misses;
        self.upgrade_misses += other.upgrade_misses;
        self.cache_to_cache += other.cache_to_cache;
        self.from_memory += other.from_memory;
        self.total_miss_latency += other.total_miss_latency;
        self.completed_misses += other.completed_misses;
        self.writebacks += other.writebacks;
    }
}

/// Reissue/persistent-request statistics (Table 2 of the paper).
///
/// Only the Token Coherence protocol populates these; they are zero for the
/// baselines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReissueStats {
    /// Misses satisfied by their first transient request.
    pub not_reissued: u64,
    /// Misses reissued exactly once.
    pub reissued_once: u64,
    /// Misses reissued more than once (but satisfied without a persistent
    /// request).
    pub reissued_more: u64,
    /// Misses that escalated to a persistent request.
    pub persistent: u64,
}

impl ReissueStats {
    /// Total misses recorded.
    pub fn total(&self) -> u64 {
        self.not_reissued + self.reissued_once + self.reissued_more + self.persistent
    }

    /// Percentage of misses in each category, in Table 2 column order
    /// (not reissued, reissued once, reissued more than once, persistent).
    pub fn percentages(&self) -> [f64; 4] {
        let total = self.total();
        if total == 0 {
            return [0.0; 4];
        }
        let pct = |x: u64| 100.0 * x as f64 / total as f64;
        [
            pct(self.not_reissued),
            pct(self.reissued_once),
            pct(self.reissued_more),
            pct(self.persistent),
        ]
    }

    /// Merges another node's statistics into this one.
    pub fn merge(&mut self, other: &ReissueStats) {
        self.not_reissued += other.not_reissued;
        self.reissued_once += other.reissued_once;
        self.reissued_more += other.reissued_more;
        self.persistent += other.persistent;
    }

    /// Serializes every counter.
    pub fn save_state(&self, w: &mut SnapWriter) {
        for v in [
            self.not_reissued,
            self.reissued_once,
            self.reissued_more,
            self.persistent,
        ] {
            w.u64(v);
        }
    }

    /// Rebuilds from [`ReissueStats::save_state`] bytes.
    pub fn load_state(r: &mut SnapReader<'_>) -> Result<ReissueStats, SnapshotError> {
        Ok(ReissueStats {
            not_reissued: r.u64()?,
            reissued_once: r.u64()?,
            reissued_more: r.u64()?,
            persistent: r.u64()?,
        })
    }
}

/// Per-structure occupancy of the sparse line-state plane — the compact
/// per-block-address tables (MSHRs, writeback buffers and handshake windows,
/// home-memory state, persistent-request entries) every controller keeps.
///
/// Each controller reports its own peaks
/// ([`crate::CoherenceController::line_state_stats`]); the runner sums them
/// across nodes, so the figures are the total simulated-state working set.
/// `state_bytes` prices the backing arrays of those tables at end of run
/// (they never shrink, so it is the peak footprint) — an *estimate* of the
/// plane's host-memory cost, deliberately excluding the fixed-capacity
/// L1/L2 tag arrays, which are dense, preallocated, and configuration-sized.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LineStateStats {
    /// Peak simultaneously outstanding MSHR entries.
    pub mshr_peak: u64,
    /// Peak writeback-buffer entries (dirty evictions awaiting handshake).
    pub wb_buffer_peak: u64,
    /// Peak open writeback-handshake windows (snooping only).
    pub wb_window_peak: u64,
    /// Peak home-memory blocks with materialized protocol state.
    pub home_peak: u64,
    /// Peak active persistent-request table entries (TokenB only).
    pub persistent_peak: u64,
    /// Bytes allocated by the line-state tables backing the above.
    pub state_bytes: u64,
}

impl LineStateStats {
    /// Merges another node's (or structure's) peaks into this aggregate by
    /// summation: the total is an upper bound on the simultaneous
    /// system-wide working set.
    pub fn merge(&mut self, other: &LineStateStats) {
        self.mshr_peak += other.mshr_peak;
        self.wb_buffer_peak += other.wb_buffer_peak;
        self.wb_window_peak += other.wb_window_peak;
        self.home_peak += other.home_peak;
        self.persistent_peak += other.persistent_peak;
        self.state_bytes += other.state_bytes;
    }

    /// Total peak entries across every structure.
    pub fn total_entries(&self) -> u64 {
        self.mshr_peak
            + self.wb_buffer_peak
            + self.wb_window_peak
            + self.home_peak
            + self.persistent_peak
    }

    /// Serializes every peak.
    pub fn save_state(&self, w: &mut SnapWriter) {
        for v in [
            self.mshr_peak,
            self.wb_buffer_peak,
            self.wb_window_peak,
            self.home_peak,
            self.persistent_peak,
            self.state_bytes,
        ] {
            w.u64(v);
        }
    }

    /// Rebuilds from [`LineStateStats::save_state`] bytes.
    pub fn load_state(r: &mut SnapReader<'_>) -> Result<LineStateStats, SnapshotError> {
        Ok(LineStateStats {
            mshr_peak: r.u64()?,
            wb_buffer_peak: r.u64()?,
            wb_window_peak: r.u64()?,
            home_peak: r.u64()?,
            persistent_peak: r.u64()?,
            state_bytes: r.u64()?,
        })
    }
}

/// Engine-level (simulator, not simulated-system) statistics for one run.
///
/// These are the numbers bottleneck hunts start from: how deep the event
/// queue got tells you whether queue operations dominate, the message
/// arena's peak occupancy tells you how much payload memory the in-flight
/// message population actually needs, and the line-state plane's peaks tell
/// you how big the simulated-state working set grew. All are high-water
/// marks over the whole run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Peak number of events pending in the event queue at any instant.
    pub peak_queue_depth: u64,
    /// Peak number of in-flight messages parked in the payload arena at any
    /// instant (every scheduled `Send` plus every undelivered `Deliver`).
    pub peak_arena_occupancy: u64,
    /// Total events the engine delivered over the run (the numerator of the
    /// events-per-second throughput metric).
    pub events_delivered: u64,
    /// Double-releases caught by the message arena's accounting guard.
    /// Always zero in a correct engine; a non-zero value means a payload
    /// handle was released twice past the generation check and the run's
    /// bookkeeping cannot be trusted.
    pub arena_accounting_errors: u64,
    /// Per-structure peaks and estimated byte footprint of the sparse
    /// line-state plane, summed across nodes.
    pub state: LineStateStats,
    /// Fault-injection counters (all zero when the run used
    /// [`FaultSpec::none`](crate::fault::FaultSpec::none)).
    pub faults: crate::fault::FaultStats,
    /// Adversarial-scheduling counters (all zero when the run used
    /// [`AdversarySpec::none`](crate::adversary::AdversarySpec::none)).
    pub adversary: crate::adversary::AdversaryStats,
    /// Sharded-execution telemetry (all zero/empty when the run used the
    /// serial engine).
    pub sharding: ShardStats,
}

impl EngineStats {
    /// Serializes every counter, including the nested planes.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.u64(self.peak_queue_depth);
        w.u64(self.peak_arena_occupancy);
        w.u64(self.events_delivered);
        w.u64(self.arena_accounting_errors);
        self.state.save_state(w);
        self.faults.save_state(w);
        self.adversary.save_state(w);
        self.sharding.save_state(w);
    }

    /// Rebuilds from [`EngineStats::save_state`] bytes.
    pub fn load_state(r: &mut SnapReader<'_>) -> Result<EngineStats, SnapshotError> {
        Ok(EngineStats {
            peak_queue_depth: r.u64()?,
            peak_arena_occupancy: r.u64()?,
            events_delivered: r.u64()?,
            arena_accounting_errors: r.u64()?,
            state: LineStateStats::load_state(r)?,
            faults: crate::fault::FaultStats::load_state(r)?,
            adversary: crate::adversary::AdversaryStats::load_state(r)?,
            sharding: ShardStats::load_state(r)?,
        })
    }
}

/// Telemetry from the sharded (conservative-PDES) runner: how the run was
/// partitioned, how the windowed synchronization behaved, and the per-shard
/// engine peaks.
///
/// Capacity telemetry, not behavior: per-shard queue/arena peaks and stall
/// counts legitimately differ between shard counts even though the
/// simulated run is bit-identical, so the shard-determinism tests compare
/// reports through a view with this (and the global peaks) normalized out.
/// All-default on serial (`shards == 0`) runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Worker shards the run was partitioned into (0 = serial engine).
    pub shards: u32,
    /// The conservative lookahead window, in ns, derived from the
    /// topology's minimum inter-node path latency.
    pub lookahead_ns: u64,
    /// Barrier windows executed (commit rounds at window boundaries).
    pub windows: u64,
    /// Sync stalls: window rounds in which a shard had no local events to
    /// process and only waited at the barrier, summed across shards. High
    /// stall counts relative to `windows * shards` mean the partition is
    /// imbalanced or the lookahead window is small relative to activity.
    pub sync_stalls: u64,
    /// Events delivered by each shard's queue, indexed by shard.
    pub shard_events: Vec<u64>,
    /// Peak event-queue depth per shard.
    pub shard_peak_queue: Vec<u64>,
    /// Peak message-arena occupancy per shard.
    pub shard_peak_arena: Vec<u64>,
}

impl ShardStats {
    /// Serializes every counter.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.u32(self.shards);
        w.u64(self.lookahead_ns);
        w.u64(self.windows);
        w.u64(self.sync_stalls);
        w.seq(self.shard_events.iter(), |w, &v| w.u64(v));
        w.seq(self.shard_peak_queue.iter(), |w, &v| w.u64(v));
        w.seq(self.shard_peak_arena.iter(), |w, &v| w.u64(v));
    }

    /// Rebuilds from [`ShardStats::save_state`] bytes.
    pub fn load_state(r: &mut SnapReader<'_>) -> Result<ShardStats, SnapshotError> {
        Ok(ShardStats {
            shards: r.u32()?,
            lookahead_ns: r.u64()?,
            windows: r.u64()?,
            sync_stalls: r.u64()?,
            shard_events: r.seq(|r| r.u64())?,
            shard_peak_queue: r.seq(|r| r.u64())?,
            shard_peak_arena: r.seq(|r| r.u64())?,
        })
    }
}

/// Statistics exported by a coherence controller.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ControllerStats {
    /// Cache and miss statistics.
    pub misses: MissStats,
    /// Reissue histogram (Token Coherence only).
    pub reissue: ReissueStats,
    /// Number of persistent requests this node initiated.
    pub persistent_requests_initiated: u64,
    /// Number of messages this controller sent.
    pub messages_sent: u64,
    /// Number of messages this controller received.
    pub messages_received: u64,
    /// Protocol-specific named counters (for example directory lookups or
    /// snoop responses), reported verbatim in experiment output.
    pub extra: BTreeMap<&'static str, u64>,
}

impl ControllerStats {
    /// Creates an empty statistics record.
    pub fn new() -> Self {
        ControllerStats::default()
    }

    /// Adds `amount` to a protocol-specific named counter.
    pub fn bump(&mut self, counter: &'static str, amount: u64) {
        *self.extra.entry(counter).or_insert(0) += amount;
    }

    /// Reads a protocol-specific named counter.
    pub fn counter(&self, counter: &str) -> u64 {
        self.extra.get(counter).copied().unwrap_or(0)
    }

    /// Merges another controller's statistics into this one.
    pub fn merge(&mut self, other: &ControllerStats) {
        self.misses.merge(&other.misses);
        self.reissue.merge(&other.reissue);
        self.persistent_requests_initiated += other.persistent_requests_initiated;
        self.messages_sent += other.messages_sent;
        self.messages_received += other.messages_received;
        for (k, v) in &other.extra {
            *self.extra.entry(k).or_insert(0) += v;
        }
    }

    /// Serializes every counter, including the named extras (in the
    /// `BTreeMap`'s deterministic key order).
    pub fn save_state(&self, w: &mut SnapWriter) {
        self.misses.save_state(w);
        self.reissue.save_state(w);
        w.u64(self.persistent_requests_initiated);
        w.u64(self.messages_sent);
        w.u64(self.messages_received);
        w.seq(self.extra.iter(), |w, (&k, &v)| {
            w.str(k);
            w.u64(v);
        });
    }

    /// Rebuilds from [`ControllerStats::save_state`] bytes. Counter names
    /// round-trip through [`intern_counter_name`].
    pub fn load_state(r: &mut SnapReader<'_>) -> Result<ControllerStats, SnapshotError> {
        let misses = MissStats::load_state(r)?;
        let reissue = ReissueStats::load_state(r)?;
        let persistent_requests_initiated = r.u64()?;
        let messages_sent = r.u64()?;
        let messages_received = r.u64()?;
        let entries = r.seq(|r| {
            let name = r.str()?;
            let value = r.u64()?;
            Ok((intern_counter_name(&name), value))
        })?;
        Ok(ControllerStats {
            misses,
            reissue,
            persistent_requests_initiated,
            messages_sent,
            messages_received,
            extra: entries.into_iter().collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::BlockAddr;
    use crate::ids::NodeId;
    use crate::message::{DataPayload, Destination, Vnet};

    fn msg(kind: MsgKind) -> Message {
        Message::new(
            NodeId::new(0),
            Destination::Broadcast,
            BlockAddr::new(1),
            kind,
            Vnet::Request,
            0,
        )
    }

    #[test]
    fn classification_matches_paper_categories() {
        assert_eq!(TrafficClass::of(&msg(MsgKind::GetS)), TrafficClass::Request);
        assert_eq!(
            TrafficClass::of(&msg(MsgKind::Inv {
                requester: NodeId::new(1)
            })),
            TrafficClass::ForwardedOrInvalidation
        );
        assert_eq!(
            TrafficClass::of(&msg(MsgKind::TokenData {
                tokens: 1,
                owner: false,
                dirty: false,
                from_memory: true,
                payload: DataPayload::default(),
            })),
            TrafficClass::DataResponseOrWriteback
        );
        assert_eq!(
            TrafficClass::of(&msg(MsgKind::TokenOnly { tokens: 1 })),
            TrafficClass::OtherControl
        );
        assert_eq!(
            TrafficClass::of(&msg(MsgKind::PersistentRequest { write: true })),
            TrafficClass::ReissueOrPersistent
        );
    }

    #[test]
    fn reissued_requests_are_classified_separately() {
        let mut m = msg(MsgKind::GetM);
        m.reissue = true;
        assert_eq!(TrafficClass::of(&m), TrafficClass::ReissueOrPersistent);
    }

    #[test]
    fn traffic_stats_accumulate_and_merge() {
        let mut a = TrafficStats::new();
        a.record(TrafficClass::Request, 8, 3);
        a.record(TrafficClass::Request, 8, 2);
        a.record(TrafficClass::DataResponseOrWriteback, 72, 2);
        assert_eq!(a.bytes(TrafficClass::Request), 16);
        assert_eq!(a.messages(TrafficClass::Request), 2);
        assert_eq!(a.link_bytes(TrafficClass::Request), 40);
        assert_eq!(a.total_bytes(), 88);
        assert_eq!(a.total_link_bytes(), 40 + 144);

        let mut b = TrafficStats::new();
        b.record(TrafficClass::Request, 8, 1);
        b.merge(&a);
        assert_eq!(b.messages(TrafficClass::Request), 3);
        assert_eq!(b.total_messages(), 4);
    }

    #[test]
    fn miss_stats_compute_averages() {
        let m = MissStats {
            read_misses: 2,
            write_misses: 1,
            completed_misses: 3,
            total_miss_latency: 300,
            cache_to_cache: 2,
            from_memory: 1,
            ..MissStats::default()
        };
        assert_eq!(m.total_misses(), 3);
        assert!((m.average_miss_latency() - 100.0).abs() < 1e-9);
        assert!((m.cache_to_cache_fraction() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_miss_stats_do_not_divide_by_zero() {
        let m = MissStats::default();
        assert_eq!(m.average_miss_latency(), 0.0);
        assert_eq!(m.cache_to_cache_fraction(), 0.0);
    }

    #[test]
    fn reissue_percentages_sum_to_one_hundred() {
        let r = ReissueStats {
            not_reissued: 97,
            reissued_once: 2,
            reissued_more: 1,
            persistent: 0,
        };
        let p = r.percentages();
        assert!((p.iter().sum::<f64>() - 100.0).abs() < 1e-9);
        assert!((p[0] - 97.0).abs() < 1e-9);
    }

    #[test]
    fn empty_reissue_stats_percentages_are_zero() {
        assert_eq!(ReissueStats::default().percentages(), [0.0; 4]);
    }

    #[test]
    fn controller_stats_merge_and_counters() {
        let mut a = ControllerStats::new();
        a.bump("directory_lookups", 5);
        a.messages_sent = 10;
        let mut b = ControllerStats::new();
        b.bump("directory_lookups", 3);
        b.messages_sent = 2;
        a.merge(&b);
        assert_eq!(a.counter("directory_lookups"), 8);
        assert_eq!(a.messages_sent, 12);
        assert_eq!(a.counter("missing"), 0);
    }
}
