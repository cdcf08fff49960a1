//! Traditional MOSI split-transaction snooping on a totally-ordered
//! interconnect.
//!
//! Every request (and every writeback) is broadcast to *all* nodes —
//! including the requester itself — over the ordered tree interconnect. The
//! single root switch serializes the broadcasts, so every node observes every
//! request in the same order; that total order is what resolves races with no
//! home-node indirection. A single "owner bit" kept at the block's home
//! memory (following Frank's scheme, as the paper does) decides when memory
//! must supply the data, avoiding a snoop-response combining tree.
//!
//! The one place the total order is not enough is the **writeback race**: a
//! broadcast PutM is only an ordered *marker*, and between the marker and
//! the (unordered) writeback data reaching the home, the block has no cache
//! owner and memory does not yet have the data. Requests ordered in that
//! window used to be stranded forever — the deadlock that kept the snooping
//! baseline out of the contended sweeps. The fix is the
//! writeback-acknowledgement handshake (see [`crate::common::WbWindow`]):
//!
//! 1. The PutM marker opens a *writeback window* at the block's home; every
//!    request ordered while the window is open is queued there.
//! 2. When the writer observes its own PutM in the total order it answers
//!    with exactly one handshake message: the writeback **data** if it still
//!    holds the block (requests ordered *before* the PutM may have taken it),
//!    or an explicit **WbCancel** if it does not. Either way the writer's
//!    buffer entry is gone from that point on — requests ordered after the
//!    PutM are never the writer's responsibility.
//! 3. On data, memory applies the writeback, becomes the owner, and answers
//!    the queued requests (reads, then at most one write — the write's winner
//!    observes and answers everything ordered after it). On cancel, the
//!    queue is dropped: whichever cache took ownership before the PutM
//!    observes those same requests in its own ordered stream.
//!
//! The protocol is the low-latency baseline for cache-to-cache misses — but
//! it fundamentally cannot run on the unordered torus, which is exactly the
//! limitation TokenB removes.

use tc_sim::{SnapReader, SnapWriter, SnapshotError};
use tc_types::{
    AccessOutcome, BlockAddr, CoherenceController, Cycle, DataPayload, Destination, MemOp, Message,
    MsgKind, NodeId, Outbox, ReqId, SystemConfig, Vnet,
};

use crate::common::{
    emit_queued_request, read_queued_request, MosiState, QueuedRequest, WbHandshake, WbResolution,
};
use crate::mosi::{mosi_bookkeeping, MosiNode, SnapState};

/// The snooping MSHR extension. The transaction's request id, which every
/// data response echoes, is its first pending op's (see
/// [`crate::mosi::Mshr::request_id`]).
#[derive(Debug, Default)]
struct SnoopMshr {
    /// Whether this node has observed its own request in the total order.
    ordered: bool,
    /// Whether the node still held a readable copy when its own request was
    /// ordered (upgrades complete without waiting for data).
    still_valid: bool,
    /// Requests by other nodes, observed after ours was ordered, that we must
    /// answer once we obtain the block.
    forward_queue: Vec<QueuedRequest>,
}

/// Memory-side state: the "owner bit" — true when memory must respond.
/// Writebacks in flight are tracked separately by the per-block handshake
/// windows of the [`crate::common::WritebackPlane`].
#[derive(Debug, Clone, Copy)]
struct OwnerBit {
    memory_owner: bool,
}

impl Default for OwnerBit {
    fn default() -> Self {
        OwnerBit { memory_owner: true }
    }
}

/// The snooping controller for one node.
#[derive(Debug)]
pub struct SnoopingController {
    core: MosiNode<SnoopMshr, OwnerBit>,
}

impl SnoopingController {
    /// Creates the snooping controller for `node` under `config`.
    pub fn new(node: NodeId, config: &SystemConfig) -> Self {
        SnoopingController {
            core: MosiNode::new(node, config, true),
        }
    }

    /// Answers `request` with this owner's copy of `addr`, echoing the
    /// request's id.
    fn send_cache_data(
        &mut self,
        now: Cycle,
        request: QueuedRequest,
        addr: BlockAddr,
        exclusive: bool,
        version: u64,
        out: &mut Outbox,
    ) {
        let mut data = self.core.unicast(
            now + self.core.controller_latency + self.core.l2_latency,
            request.requester,
            addr,
            MsgKind::Data {
                acks_expected: 0,
                exclusive,
                from_memory: false,
                payload: DataPayload::new(version),
            },
            Vnet::Response,
        );
        data.req_id = request.req_id;
        self.core.send(out, data);
    }

    // ------------------------------------------------------------------
    // Snoop handling: every node sees every request in the same order.
    // ------------------------------------------------------------------

    fn snoop_request(
        &mut self,
        now: Cycle,
        requester: NodeId,
        addr: BlockAddr,
        write: bool,
        req_id: Option<ReqId>,
        out: &mut Outbox,
    ) {
        let request = QueuedRequest {
            requester,
            write,
            req_id,
        };
        if requester == self.core.node {
            self.observe_own_request(now, addr, out);
        } else {
            self.snoop_other_request(now, request, addr, out);
        }
        // Home-memory processing happens at every node for the blocks it
        // homes, regardless of who requested.
        if self.core.is_home(addr) {
            self.memory_snoop(now, request, addr, out);
        }
    }

    fn observe_own_request(&mut self, now: Cycle, addr: BlockAddr, out: &mut Outbox) {
        let still_valid = self
            .core
            .l2
            .peek(addr)
            .map(|l| l.state.readable())
            .unwrap_or(false);
        if let Some(mshr) = self.core.mshrs.get_mut(addr) {
            mshr.ext.ordered = true;
            mshr.ext.still_valid = still_valid;
        }
        self.try_complete(now, addr, out);
    }

    fn snoop_other_request(
        &mut self,
        now: Cycle,
        request: QueuedRequest,
        addr: BlockAddr,
        out: &mut Outbox,
    ) {
        let write = request.write;
        // If we have an ordered outstanding request for this block, we are
        // (or are about to become) the block's owner in the total order, so
        // we must remember this request and answer it once our data arrives.
        if let Some(mshr) = self.core.mshrs.get_mut(addr) {
            if mshr.ext.ordered {
                mshr.ext.forward_queue.push(request);
                return;
            }
        }

        let in_live_cache = self.core.l2.contains(addr);
        match self.core.line_or_wb(addr) {
            Some(line) if line.state.is_owner() => {
                // The migratory hand-off is only applied from a live cache
                // line; a block sitting in the write-back buffer answers GetS
                // requests with a plain shared copy so that ownership only
                // leaves the buffer through a GetM (which the home can track).
                let migratory = !write
                    && self.core.migratory_optimization
                    && in_live_cache
                    && line.state == MosiState::Modified
                    && line.dirty;
                let exclusive = write || migratory;
                self.send_cache_data(now, request, addr, exclusive, line.version, out);
                self.core.stats.bump("snoop_data_responses", 1);
                let core = &mut self.core;
                if exclusive {
                    core.l2.remove(addr);
                    core.l1.invalidate(addr);
                    // Ownership (and the writeback obligation) moves to the
                    // requester; the pending writeback is cancelled.
                    core.wb.take(addr);
                } else if let Some(l) = core.l2.get(addr) {
                    l.state = MosiState::Owned;
                } else if let Some(entry) = core.wb.line_mut(addr) {
                    // The shared copy came out of the writeback buffer: the
                    // entry must demote to Owned just like a live line, or a
                    // pullback (re-access before the PutM is ordered) would
                    // reinstall it as Modified and let a store hit locally
                    // while the requester's shared copy is never invalidated.
                    entry.state = MosiState::Owned;
                }
            }
            Some(_) if write => {
                // Another node's ordered GetM invalidates our shared copy; no
                // acknowledgement is needed because the order is authoritative.
                self.core.l2.remove(addr);
                self.core.l1.invalidate(addr);
                self.core.stats.bump("snoop_invalidations", 1);
            }
            _ => {}
        }

        // If this node's own (not yet ordered) request races with the other
        // node's ordered request, our copy is gone; we will simply wait for
        // data from the new owner.
    }

    fn memory_snoop(
        &mut self,
        now: Cycle,
        request: QueuedRequest,
        addr: BlockAddr,
        out: &mut Outbox,
    ) {
        let bit = self.core.memory.state_mut(addr);
        if bit.memory_owner {
            // Memory is the owner of record and answers directly, even while
            // a (necessarily stale) writeback window is open: a PutM ordered
            // while memory owns the block can only resolve to a cancel.
            if request.write {
                bit.memory_owner = false;
            }
            let version = self.core.memory.data_version(addr);
            self.send_memory_response(now, request, addr, version, out);
        } else if self.core.wb.window_is_open(addr) {
            // No owner anywhere: the previous owner's writeback marker has
            // been ordered but its data (or cancel) is still in flight. Queue
            // the request; the handshake resolution answers it. This is the
            // request that used to be stranded.
            self.core.wb.window_queue_request(addr, request);
            self.core.stats.bump("wb_window_queued_requests", 1);
        }
        // Otherwise some cache owns the block and observes this same ordered
        // request; answering is its responsibility.
    }

    /// Answers `request` from this node's home memory, echoing the
    /// request's id; a GetM takes the block exclusively.
    fn send_memory_response(
        &mut self,
        now: Cycle,
        request: QueuedRequest,
        addr: BlockAddr,
        version: u64,
        out: &mut Outbox,
    ) {
        let mut data = self.core.unicast(
            now + self.core.controller_latency + self.core.dram_latency,
            request.requester,
            addr,
            MsgKind::Data {
                acks_expected: 0,
                exclusive: request.write,
                from_memory: true,
                payload: DataPayload::new(version),
            },
            Vnet::Response,
        );
        data.req_id = request.req_id;
        self.core.send(out, data);
        self.core.stats.bump("memory_responses", 1);
    }

    /// An ordered PutM marker: opens the home's writeback window, and — at
    /// the writer — triggers the handshake response (data or cancel).
    fn snoop_writeback(
        &mut self,
        now: Cycle,
        from: NodeId,
        addr: BlockAddr,
        version: u64,
        out: &mut Outbox,
    ) {
        if self.core.is_home(addr) {
            let resolutions = self.core.wb.window_on_putm(addr, from, version);
            // The handshake normally trails its marker, but cascade anyway in
            // case it was stashed.
            self.apply_wb_resolutions(now, addr, resolutions, out);
        }
        if from == self.core.node {
            // Observing our own PutM is the handshake point: from here on,
            // requests ordered after the PutM are the home's responsibility,
            // so the buffer entry must go either way. Ship the data if we
            // still hold the block *this marker announced* (the version
            // check: the block may have been pulled back, re-written and
            // re-evicted, in which case this marker is void and a later one
            // carries the data); cancel otherwise.
            let still_held = self
                .core
                .wb
                .line(addr)
                .map(|line| line.version == version)
                .unwrap_or(false);
            let home = Destination::Node(self.core.home_of(addr));
            let at = now + self.core.controller_latency;
            let handshake = if still_held {
                let line = self.core.wb.take(addr).expect("checked above");
                let data = MsgKind::Data {
                    acks_expected: 0,
                    exclusive: false,
                    from_memory: false,
                    payload: DataPayload::new(line.version),
                };
                Message::new(self.core.node, home, addr, data, Vnet::Writeback, at)
            } else {
                self.core.stats.bump("writebacks_cancelled", 1);
                let cancel = MsgKind::WbCancel;
                Message::new(self.core.node, home, addr, cancel, Vnet::Writeback, at)
                    .with_req_id(ReqId::new(version))
            };
            self.core.send(out, handshake);
        }
    }

    /// The home receives a writeback handshake message (the data, or a
    /// cancel) from `writer`.
    fn on_wb_handshake(
        &mut self,
        now: Cycle,
        writer: NodeId,
        addr: BlockAddr,
        version: u64,
        outcome: WbHandshake,
        out: &mut Outbox,
    ) {
        debug_assert!(self.core.is_home(addr));
        let resolutions = self
            .core
            .wb
            .window_on_handshake(addr, writer, version, outcome);
        self.apply_wb_resolutions(now, addr, resolutions, out);
    }

    /// Applies resolved writeback markers: commits the data (memory becomes
    /// the owner) and answers the requests queued in each window.
    fn apply_wb_resolutions(
        &mut self,
        now: Cycle,
        addr: BlockAddr,
        resolutions: Vec<WbResolution>,
        out: &mut Outbox,
    ) {
        for resolution in resolutions {
            if resolution.outcome == WbHandshake::Data {
                self.core.memory.write_data(addr, resolution.version);
                self.core.memory.state_mut(addr).memory_owner = true;
                for request in resolution.serve {
                    if request.write {
                        self.core.memory.state_mut(addr).memory_owner = false;
                    }
                    self.send_memory_response(now, request, addr, resolution.version, out);
                    self.core.stats.bump("wb_window_served_requests", 1);
                }
            }
            // A cancelled marker needs no action: ownership never left the
            // cache side, and the owner answers the dropped requests itself.
            // (The plane drops the window entry itself once it is empty.)
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_data(
        &mut self,
        now: Cycle,
        addr: BlockAddr,
        exclusive: bool,
        from_memory: bool,
        payload: DataPayload,
        req_id: Option<ReqId>,
        out: &mut Outbox,
    ) {
        let core = &mut self.core;
        let Some(mshr) = core.mshrs.get_mut(addr) else {
            return;
        };
        // A response tagged for an earlier transaction on this block (for
        // example the redundant memory response to an upgrade that already
        // completed via `still_valid`) must not complete this one.
        if req_id.is_some_and(|id| id != mshr.request_id(&core.pending_ops)) {
            return;
        }
        // A cache-supplied copy supersedes memory's copy (memory may respond
        // as well when its owner bit is stale for at most one transition).
        if !from_memory || !mshr.data_received {
            mshr.version = payload.version;
            mshr.dirty = !from_memory;
            mshr.from_cache |= !from_memory;
        }
        mshr.data_received = true;
        mshr.exclusive |= exclusive;
        self.try_complete(now, addr, out);
    }

    /// A miss completes once its own request is ordered and its data is in;
    /// an upgrade whose copy survived until then needs no data.
    fn try_complete(&mut self, now: Cycle, addr: BlockAddr, out: &mut Outbox) {
        let Some(mshr) = self.core.mshrs.get(addr) else {
            return;
        };
        let satisfied = mshr.data_received || (mshr.write && mshr.ext.still_valid);
        if !mshr.ext.ordered || !satisfied {
            return;
        }
        let version = if mshr.data_received {
            mshr.version
        } else {
            self.core.l2.peek(addr).map(|l| l.version).unwrap_or(0)
        };
        let mshr = self.core.complete(now, addr, version, out);

        // Serve the requests we promised to answer, in order, until one of
        // them takes ownership away from us.
        let mut still_owner = self
            .core
            .l2
            .peek(addr)
            .map(|l| l.state.is_owner())
            .unwrap_or(false);
        for request in mshr.ext.forward_queue {
            let write = request.write;
            if !still_owner {
                // The request is someone else's responsibility now; if it was
                // an exclusive request, our copy must go.
                if write {
                    self.core.l2.remove(addr);
                    self.core.l1.invalidate(addr);
                }
                continue;
            }
            let Some(line) = self.core.l2.peek(addr).copied() else {
                break;
            };
            let migratory = !write
                && self.core.migratory_optimization
                && line.state == MosiState::Modified
                && line.dirty;
            let exclusive = write || migratory;
            self.send_cache_data(now, request, addr, exclusive, line.version, out);
            if exclusive {
                self.core.l2.remove(addr);
                self.core.l1.invalidate(addr);
                still_owner = false;
            } else if let Some(l) = self.core.l2.get(addr) {
                l.state = MosiState::Owned;
            }
        }

        self.core.reissue_deferred(now, addr, out);
    }
}

impl CoherenceController for SnoopingController {
    fn protocol_name(&self) -> &'static str {
        "Snooping"
    }

    fn access(&mut self, now: Cycle, op: &MemOp, out: &mut Outbox) -> AccessOutcome {
        // A block sitting in the writeback buffer is pulled straight back
        // into the cache: this node is still the block's owner of record, so
        // broadcasting a request for it would go unanswered (the old
        // self-deadlock). The in-flight PutM resolves as a WbCancel when this
        // node observes it with the buffer entry gone.
        let addr = op.addr.block(self.core.home_map.block_bytes());
        if let Some(line) = self.core.wb.take(addr) {
            self.core.stats.bump("writeback_pullbacks", 1);
            self.core.install(now, addr, line, out);
        }
        self.core.access(now, op, out)
    }

    fn handle_message(&mut self, now: Cycle, msg: &Message, out: &mut Outbox) {
        self.core.stats.messages_received += 1;
        let addr = msg.addr;
        match &msg.kind {
            MsgKind::GetS => self.snoop_request(now, msg.src, addr, false, msg.req_id, out),
            MsgKind::GetM => self.snoop_request(now, msg.src, addr, true, msg.req_id, out),
            MsgKind::PutM => {
                let version = msg.req_id.map(|r| r.value()).unwrap_or(0);
                self.snoop_writeback(now, msg.src, addr, version, out);
            }
            MsgKind::Data {
                exclusive,
                from_memory,
                payload,
                ..
            } => {
                if msg.vnet == Vnet::Writeback {
                    self.on_wb_handshake(
                        now,
                        msg.src,
                        addr,
                        payload.version,
                        WbHandshake::Data,
                        out,
                    );
                } else {
                    self.handle_data(
                        now,
                        addr,
                        *exclusive,
                        *from_memory,
                        *payload,
                        msg.req_id,
                        out,
                    );
                }
            }
            MsgKind::WbCancel => {
                let version = msg.req_id.map(|r| r.value()).unwrap_or(0);
                self.on_wb_handshake(now, msg.src, addr, version, WbHandshake::Cancel, out);
            }
            other => {
                debug_assert!(false, "Snooping received unexpected message {other:?}");
            }
        }
    }

    mosi_bookkeeping!();
}

impl SnapState for SnoopMshr {
    fn save(&self, w: &mut SnapWriter) {
        w.bool(self.ordered);
        w.bool(self.still_valid);
        w.seq(self.forward_queue.iter(), emit_queued_request);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let ordered = r.bool()?;
        let still_valid = r.bool()?;
        let forward_len = r.bounded_len(6)?;
        let mut forward_queue = Vec::with_capacity(forward_len);
        for _ in 0..forward_len {
            forward_queue.push(read_queued_request(r)?);
        }
        Ok(SnoopMshr {
            ordered,
            still_valid,
            forward_queue,
        })
    }
}

impl SnapState for OwnerBit {
    fn save(&self, w: &mut SnapWriter) {
        w.bool(self.memory_owner);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(OwnerBit {
            memory_owner: r.bool()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_types::{Address, MemOpKind, MissCompletion, MissKind, ProtocolKind};

    fn config() -> SystemConfig {
        SystemConfig::isca03_default()
            .with_nodes(4)
            .with_protocol(ProtocolKind::Snooping)
    }

    fn controller(node: usize) -> SnoopingController {
        SnoopingController::new(NodeId::new(node), &config())
    }

    fn load(addr: u64, id: u64) -> MemOp {
        MemOp::new(ReqId::new(id), Address::new(addr), MemOpKind::Load)
    }

    fn store(addr: u64, id: u64) -> MemOp {
        MemOp::new(ReqId::new(id), Address::new(addr), MemOpKind::Store)
    }

    /// Delivers messages to every addressed node in a fixed global order,
    /// mimicking the total order the tree interconnect provides.
    fn broadcast_round(out: &Outbox, nodes: &mut [SnoopingController], now: Cycle) -> Outbox {
        let mut next = Outbox::new();
        for msg in &out.messages {
            for node in nodes.iter_mut() {
                if msg.dest.includes(node.node(), msg.src) {
                    node.handle_message(now, msg, &mut next);
                }
            }
        }
        next
    }

    fn run_until_quiet(
        mut frontier: Outbox,
        nodes: &mut [SnoopingController],
        start: Cycle,
    ) -> Vec<MissCompletion> {
        let mut completions = Vec::new();
        let mut now = start;
        for _ in 0..12 {
            if frontier.messages.is_empty() {
                break;
            }
            now += 60;
            let next = broadcast_round(&frontier, nodes, now);
            completions.extend(next.completions.iter().copied());
            frontier = next;
        }
        completions
    }

    #[test]
    fn requests_are_broadcast_to_everyone_including_self() {
        let mut c = controller(1);
        let mut out = Outbox::new();
        c.access(0, &load(0, 1), &mut out);
        assert_eq!(out.messages.len(), 1);
        match &out.messages[0].dest {
            Destination::Multicast(nodes) => {
                assert_eq!(nodes.len(), 4);
                assert!(nodes.contains(&NodeId::new(1)));
            }
            other => panic!("expected a full multicast, got {other:?}"),
        }
    }

    #[test]
    fn memory_owner_bit_makes_memory_respond_exactly_once() {
        let mut nodes: Vec<SnoopingController> = (0..4).map(controller).collect();
        let mut out = Outbox::new();
        nodes[1].access(0, &load(0, 1), &mut out);
        let completions = run_until_quiet(out, &mut nodes, 0);
        assert_eq!(completions.len(), 1);
        assert!(!completions[0].cache_to_cache);
        assert_eq!(
            nodes[1].core.l2.peek(BlockAddr::new(0)).unwrap().state,
            MosiState::Shared
        );
        // Memory stays the owner for shared data.
        let home_stats = nodes[0].stats();
        assert_eq!(home_stats.counter("memory_responses"), 1);
    }

    #[test]
    fn write_miss_transfers_ownership_from_memory_to_cache() {
        let mut nodes: Vec<SnoopingController> = (0..4).map(controller).collect();
        let mut out = Outbox::new();
        nodes[2].access(0, &store(0, 1), &mut out);
        let completions = run_until_quiet(out, &mut nodes, 0);
        assert_eq!(completions.len(), 1);
        assert_eq!(completions[0].kind, MissKind::Write);
        assert_eq!(
            nodes[2].core.l2.peek(BlockAddr::new(0)).unwrap().state,
            MosiState::Modified
        );

        // A second writer obtains the block from the first cache, not memory.
        let mut out = Outbox::new();
        nodes[3].access(1000, &store(0, 2), &mut out);
        let completions = run_until_quiet(out, &mut nodes, 1000);
        assert_eq!(completions.len(), 1);
        assert!(completions[0].cache_to_cache);
        assert!(nodes[2].core.l2.peek(BlockAddr::new(0)).is_none());
    }

    #[test]
    fn migratory_read_takes_the_whole_block() {
        let mut nodes: Vec<SnoopingController> = (0..4).map(controller).collect();
        let mut out = Outbox::new();
        nodes[2].access(0, &store(0, 1), &mut out);
        run_until_quiet(out, &mut nodes, 0);

        let mut out = Outbox::new();
        nodes[1].access(1000, &load(0, 2), &mut out);
        let completions = run_until_quiet(out, &mut nodes, 1000);
        assert_eq!(completions.len(), 1);
        assert!(completions[0].cache_to_cache);
        // With the migratory optimization the reader ends up with an
        // exclusive (Modified) copy and the old owner is invalidated.
        assert_eq!(
            nodes[1].core.l2.peek(BlockAddr::new(0)).unwrap().state,
            MosiState::Modified
        );
        assert!(nodes[2].core.l2.peek(BlockAddr::new(0)).is_none());
    }

    #[test]
    fn upgrade_completes_when_its_own_request_is_ordered() {
        let mut nodes: Vec<SnoopingController> = (0..4).map(controller).collect();
        // Get a shared copy at node 1.
        let mut out = Outbox::new();
        nodes[1].access(0, &load(0, 1), &mut out);
        run_until_quiet(out, &mut nodes, 0);
        assert_eq!(
            nodes[1].core.l2.peek(BlockAddr::new(0)).unwrap().state,
            MosiState::Shared
        );

        // Store to it: the upgrade completes once the GetM is ordered, even
        // though memory also supplies (redundant) data.
        let mut out = Outbox::new();
        assert_eq!(
            nodes[1].access(1000, &store(0, 2), &mut out),
            AccessOutcome::Miss
        );
        let completions = run_until_quiet(out, &mut nodes, 1000);
        assert_eq!(completions.len(), 1);
        assert_eq!(completions[0].kind, MissKind::Upgrade);
        assert_eq!(
            nodes[1].core.l2.peek(BlockAddr::new(0)).unwrap().state,
            MosiState::Modified
        );
    }

    #[test]
    fn racing_writes_are_resolved_by_the_total_order() {
        let mut nodes: Vec<SnoopingController> = (0..4).map(controller).collect();
        // Both node 1 and node 2 issue GetM for the same block "at once";
        // the delivery order (node 1 first) is the total order.
        let mut out1 = Outbox::new();
        nodes[1].access(0, &store(0, 1), &mut out1);
        let mut out2 = Outbox::new();
        nodes[2].access(0, &store(0, 2), &mut out2);
        let mut combined = Outbox::new();
        combined.messages.extend(out1.messages);
        combined.messages.extend(out2.messages);

        let completions = run_until_quiet(combined, &mut nodes, 0);
        assert_eq!(completions.len(), 2, "both writers eventually complete");
        // Exactly one cache ends with the modified copy.
        let holders: Vec<_> = (0..4)
            .filter(|n| {
                nodes[*n]
                    .core
                    .l2
                    .peek(BlockAddr::new(0))
                    .map(|l| l.state == MosiState::Modified)
                    .unwrap_or(false)
            })
            .collect();
        assert_eq!(holders.len(), 1);
        // The loser's write must be ordered after the winner's: its final
        // version is the globally newest.
        let winner_version = completions.iter().map(|c| c.data_version).max().unwrap();
        let holder = holders[0];
        assert_eq!(
            nodes[holder]
                .core
                .l2
                .peek(BlockAddr::new(0))
                .unwrap()
                .version,
            winner_version
        );
    }

    /// A request ordered *inside* the writeback window — after the PutM
    /// marker but before the writeback data reaches the home — used to be
    /// stranded forever. The handshake queues it at the home and serves it
    /// when the data arrives.
    #[test]
    fn request_ordered_in_the_writeback_window_is_served_by_memory() {
        let mut nodes: Vec<SnoopingController> = (0..4).map(controller).collect();
        let mut out = Outbox::new();
        nodes[1].access(0, &store(0, 1), &mut out);
        run_until_quiet(out, &mut nodes, 0);

        // Evict the modified line: the PutM marker is broadcast.
        let line = *nodes[1].core.l2.peek(BlockAddr::new(0)).unwrap();
        nodes[1].core.l2.remove(BlockAddr::new(0));
        let mut out = Outbox::new();
        nodes[1].core.evict(2000, BlockAddr::new(0), line, &mut out);
        let putm = out.messages[0].clone();
        assert_eq!(putm.kind, MsgKind::PutM);

        // Deliver the marker everywhere. The writer ships the data; hold it.
        let mut handshake = Outbox::new();
        for node in nodes.iter_mut() {
            node.handle_message(2100, &putm, &mut handshake);
        }
        let data = handshake.messages.pop().expect("writeback data shipped");
        assert_eq!(data.vnet, Vnet::Writeback);
        assert!(
            nodes[1].core.wb.buffer_is_empty(),
            "entry dropped at handshake"
        );

        // A read ordered inside the window: nobody owns the block, so the
        // home queues it rather than leaving it stranded.
        let mut out = Outbox::new();
        nodes[3].access(2200, &load(0, 9), &mut out);
        let gets = out.messages[0].clone();
        let mut after_gets = Outbox::new();
        for node in nodes.iter_mut() {
            node.handle_message(2300, &gets, &mut after_gets);
        }
        assert!(
            after_gets.messages.is_empty(),
            "no response while the window is open"
        );
        assert_eq!(nodes[0].stats().counter("wb_window_queued_requests"), 1);

        // The writeback data arrives: memory applies it and serves the queue.
        let mut served = Outbox::new();
        nodes[0].handle_message(2400, &data, &mut served);
        assert_eq!(served.messages.len(), 1);
        let completions = run_until_quiet(served, &mut nodes, 2400);
        assert_eq!(completions.len(), 1);
        assert!(!completions[0].cache_to_cache);
        assert_eq!(completions[0].data_version, line.version);
        assert_eq!(nodes[0].stats().counter("wb_window_served_requests"), 1);
    }

    /// Re-accessing a block whose writeback is still in flight pulls it back
    /// out of the writeback buffer (the node is still the owner of record);
    /// the in-flight PutM then resolves as an explicit WbCancel at the home.
    #[test]
    fn reaccess_during_writeback_pulls_the_block_back_and_cancels() {
        let mut nodes: Vec<SnoopingController> = (0..4).map(controller).collect();
        let mut out = Outbox::new();
        nodes[1].access(0, &store(0, 1), &mut out);
        run_until_quiet(out, &mut nodes, 0);

        let line = *nodes[1].core.l2.peek(BlockAddr::new(0)).unwrap();
        nodes[1].core.l2.remove(BlockAddr::new(0));
        let mut out = Outbox::new();
        nodes[1].core.evict(2000, BlockAddr::new(0), line, &mut out);
        let putm = out.messages[0].clone();
        assert!(nodes[1].core.wb.contains(BlockAddr::new(0)));

        // Re-access before the PutM is ordered: a hit straight out of the
        // writeback buffer, no broadcast.
        let mut out = Outbox::new();
        let outcome = nodes[1].access(2050, &load(0, 2), &mut out);
        assert!(matches!(outcome, AccessOutcome::Hit { .. }));
        assert!(out.messages.is_empty());
        assert!(nodes[1].core.wb.buffer_is_empty());
        assert_eq!(
            nodes[1].core.l2.peek(BlockAddr::new(0)).unwrap().state,
            MosiState::Modified
        );

        // The stale marker resolves as a cancel; memory does not become the
        // owner and the node still answers later requests.
        let mut handshake = Outbox::new();
        for node in nodes.iter_mut() {
            node.handle_message(2100, &putm, &mut handshake);
        }
        assert_eq!(handshake.messages.len(), 1);
        assert_eq!(handshake.messages[0].kind, MsgKind::WbCancel);
        let mut quiet = Outbox::new();
        nodes[0].handle_message(2200, &handshake.messages[0], &mut quiet);
        assert!(quiet.messages.is_empty());
        assert_eq!(nodes[1].stats().counter("writeback_pullbacks"), 1);
        assert_eq!(nodes[1].stats().counter("writebacks_cancelled"), 1);

        let mut out = Outbox::new();
        nodes[3].access(3000, &load(0, 9), &mut out);
        let completions = run_until_quiet(out, &mut nodes, 3000);
        assert_eq!(completions.len(), 1);
        assert!(
            completions[0].cache_to_cache,
            "the pulled-back owner serves"
        );
    }

    /// A GetS answered out of the writeback buffer must demote the buffer
    /// entry to Owned: if the block is then pulled back by a local store,
    /// the store must take the upgrade-broadcast path (invalidating the
    /// reader) — never hit a silently-still-Modified line while the
    /// reader's shared copy lives on.
    #[test]
    fn store_after_wb_buffer_answered_a_gets_takes_the_upgrade_path() {
        let mut nodes: Vec<SnoopingController> = (0..4).map(controller).collect();
        let mut out = Outbox::new();
        nodes[1].access(0, &store(0, 1), &mut out);
        run_until_quiet(out, &mut nodes, 0);

        // Evict the modified line; hold the PutM.
        let line = *nodes[1].core.l2.peek(BlockAddr::new(0)).unwrap();
        nodes[1].core.l2.remove(BlockAddr::new(0));
        let mut out = Outbox::new();
        nodes[1].core.evict(2000, BlockAddr::new(0), line, &mut out);
        let putm = out.messages[0].clone();

        // A read ordered before the PutM is answered from the buffer with a
        // shared copy; the buffer entry demotes to Owned.
        let mut out = Outbox::new();
        nodes[3].access(2100, &load(0, 2), &mut out);
        let completions = run_until_quiet(out, &mut nodes, 2100);
        assert_eq!(completions.len(), 1);
        assert!(completions[0].cache_to_cache);
        assert_eq!(
            nodes[1].core.wb.line(BlockAddr::new(0)).unwrap().state,
            MosiState::Owned
        );

        // The writer re-accesses with a store: the pullback yields an Owned
        // (not writable) line, so the store must miss and broadcast.
        let mut upgrade_out = Outbox::new();
        let outcome = nodes[1].access(2200, &store(0, 3), &mut upgrade_out);
        assert_eq!(outcome, AccessOutcome::Miss, "store must not hit silently");
        assert!(upgrade_out.messages.iter().any(|m| m.kind == MsgKind::GetM));

        // Deliver the stale PutM (resolves as a cancel), then the upgrade.
        let mut putm_out = Outbox::new();
        putm_out.messages.push(putm);
        let cancel_round = broadcast_round(&putm_out, &mut nodes, 2300);
        run_until_quiet(cancel_round, &mut nodes, 2300);
        let completions = run_until_quiet(upgrade_out, &mut nodes, 2400);
        assert_eq!(completions.len(), 1);
        assert_eq!(completions[0].kind, MissKind::Upgrade);
        assert_eq!(
            nodes[1].core.l2.peek(BlockAddr::new(0)).unwrap().state,
            MosiState::Modified
        );
        assert!(
            nodes[3].core.l2.peek(BlockAddr::new(0)).is_none(),
            "the reader's shared copy must be invalidated by the upgrade"
        );
    }

    #[test]
    fn writeback_restores_the_memory_owner_bit() {
        let mut nodes: Vec<SnoopingController> = (0..4).map(controller).collect();
        let mut out = Outbox::new();
        nodes[1].access(0, &store(0, 1), &mut out);
        run_until_quiet(out, &mut nodes, 0);

        // Evict the modified line.
        let line = *nodes[1].core.l2.peek(BlockAddr::new(0)).unwrap();
        nodes[1].core.l2.remove(BlockAddr::new(0));
        let mut out = Outbox::new();
        nodes[1].core.evict(2000, BlockAddr::new(0), line, &mut out);
        assert!(out.messages.iter().any(|m| m.kind == MsgKind::PutM));
        run_until_quiet(out, &mut nodes, 2000);

        // A later read is served by memory again.
        let mut out = Outbox::new();
        nodes[3].access(3000, &load(0, 9), &mut out);
        let completions = run_until_quiet(out, &mut nodes, 3000);
        assert_eq!(completions.len(), 1);
        assert!(!completions[0].cache_to_cache);
        assert_eq!(completions[0].data_version, line.version);
    }
}
