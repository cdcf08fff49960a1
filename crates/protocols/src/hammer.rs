//! AMD-Hammer-style broadcast protocol.
//!
//! The Hammer protocol (and its relatives: Intel's E8870 Scalability Port,
//! IBM's xSeries Summit) avoids directory storage and directory lookup
//! latency by broadcasting. A requester sends its request to the block's home
//! node; the home immediately broadcasts a probe to every other node and, in
//! parallel, fetches the block from memory. Every probed node answers the
//! requester directly — the owning cache with data, everyone else with an
//! acknowledgement — and the requester finishes when it has heard from
//! everyone (N-1 probe responses plus the memory response), then unblocks the
//! home. The home serializes requests per block while one is outstanding.
//!
//! Compared with a directory protocol this removes the directory lookup from
//! the critical path but keeps the home-node indirection, and it costs far
//! more interconnect traffic because every miss triggers a broadcast and a
//! full set of acknowledgements (the paper's Figure 5b).

use std::collections::VecDeque;

use tc_memsys::{HomeMemory, L1Filter, MshrTable, OpList, OpSlab, SetAssocCache};
use tc_sim::{SnapReader, SnapWriter, SnapshotError};
use tc_types::{
    AccessOutcome, BlockAddr, BlockAudit, CoherenceController, ControllerStats, Cycle, DataPayload,
    Destination, HomeMap, LineStateStats, MemOp, Message, MissCompletion, MsgKind, NodeId, Outbox,
    ReqId, SystemConfig, Timer, Vnet,
};

use crate::common::{
    apply_pending_ops, emit_mosi_line, emit_pending_op, miss_kind, mosi_hit_path, read_mosi_line,
    read_pending_op, record_completed_miss, version_node_bits, MosiLine, MosiState, PendingOp,
    WritebackPlane,
};

#[derive(Debug)]
struct HammerMshr {
    pending: OpList,
    write: bool,
    upgrade: bool,
    issued_at: Cycle,
    responses_expected: u32,
    responses_received: u32,
    data_received: bool,
    exclusive: bool,
    version: u64,
    dirty: bool,
    from_cache: bool,
    memory_version: u64,
    memory_data_received: bool,
}

/// Home-side serialization state for one block.
#[derive(Debug, Clone, Default)]
struct HammerEntry {
    busy: bool,
    queue: VecDeque<(NodeId, bool)>,
}

/// The Hammer-protocol controller for one node.
#[derive(Debug)]
pub struct HammerController {
    node: NodeId,
    num_nodes: usize,
    home_map: HomeMap,
    l1: L1Filter,
    l2: SetAssocCache<MosiLine>,
    l2_latency: Cycle,
    controller_latency: Cycle,
    dram_latency: Cycle,
    memory: HomeMemory<HammerEntry>,
    mshrs: MshrTable<HammerMshr>,
    /// In-flight writebacks (PutM sent, WbAck pending) on the shared plane.
    wb: WritebackPlane,
    migratory_optimization: bool,
    stats: ControllerStats,
    store_counter: u64,
    /// Pooled storage for every MSHR entry's pending-op list.
    pending_ops: OpSlab<PendingOp>,
    /// Reusable completion/deferral scratch for `apply_pending_ops`.
    completion_scratch: Vec<(ReqId, u64)>,
    deferred_scratch: Vec<PendingOp>,
}

impl HammerController {
    /// Creates the Hammer controller for `node` under `config`.
    pub fn new(node: NodeId, config: &SystemConfig) -> Self {
        let home_map = HomeMap::new(config.num_nodes, config.block_bytes);
        HammerController {
            node,
            num_nodes: config.num_nodes,
            home_map,
            l1: L1Filter::new(&config.l1, config.block_bytes),
            l2: SetAssocCache::new(&config.l2, config.block_bytes),
            l2_latency: config.l2.latency_ns,
            controller_latency: config.controller_latency_ns,
            dram_latency: config.dram_latency_ns,
            memory: HomeMemory::new(node, home_map, config.dram_latency_ns),
            mshrs: MshrTable::new(config.processor.max_outstanding_misses.max(1)),
            wb: WritebackPlane::new(),
            migratory_optimization: config.token.migratory_optimization,
            stats: ControllerStats::new(),
            store_counter: 0,
            pending_ops: OpSlab::new(),
            completion_scratch: Vec::new(),
            deferred_scratch: Vec::new(),
        }
    }

    fn home_of(&self, addr: BlockAddr) -> NodeId {
        self.home_map.home_of(addr)
    }

    fn is_home(&self, addr: BlockAddr) -> bool {
        self.home_map.is_home(self.node, addr)
    }

    fn send(&mut self, out: &mut Outbox, msg: Message) {
        self.stats.messages_sent += 1;
        out.send(msg);
    }

    fn unicast(
        &self,
        at: Cycle,
        dest: NodeId,
        addr: BlockAddr,
        kind: MsgKind,
        vnet: Vnet,
    ) -> Message {
        Message::new(self.node, Destination::Node(dest), addr, kind, vnet, at)
    }

    // ------------------------------------------------------------------
    // Home side.
    // ------------------------------------------------------------------

    fn home_handle_request(
        &mut self,
        now: Cycle,
        requester: NodeId,
        addr: BlockAddr,
        write: bool,
        out: &mut Outbox,
    ) {
        debug_assert!(self.is_home(addr));
        let entry = self.memory.state_mut(addr);
        if entry.busy {
            entry.queue.push_back((requester, write));
            return;
        }
        entry.busy = true;
        self.serve_at_home(now, requester, addr, write, out);
    }

    fn serve_at_home(
        &mut self,
        now: Cycle,
        requester: NodeId,
        addr: BlockAddr,
        write: bool,
        out: &mut Outbox,
    ) {
        // Probe every node except the requester (including this home node's
        // own cache, which receives the probe like any other node).
        let probe_targets: Vec<NodeId> = (0..self.num_nodes)
            .map(NodeId::new)
            .filter(|n| *n != requester)
            .collect();
        let probe = Message::new(
            self.node,
            Destination::multicast(probe_targets),
            addr,
            MsgKind::HammerProbe { requester, write },
            Vnet::Forwarded,
            now + self.controller_latency,
        );
        self.send(out, probe);
        self.stats.bump("hammer_probes", 1);

        // In parallel, memory supplies its copy of the data.
        let version = self.memory.data_version(addr);
        let data = self.unicast(
            now + self.controller_latency + self.dram_latency,
            requester,
            addr,
            MsgKind::Data {
                acks_expected: 0,
                exclusive: write,
                from_memory: true,
                payload: DataPayload::new(version),
            },
            Vnet::Response,
        );
        self.send(out, data);
    }

    fn home_handle_unblock(&mut self, now: Cycle, addr: BlockAddr, out: &mut Outbox) {
        let next = {
            let entry = self.memory.state_mut(addr);
            entry.busy = false;
            entry.queue.pop_front()
        };
        if let Some((requester, write)) = next {
            let entry = self.memory.state_mut(addr);
            entry.busy = true;
            self.serve_at_home(now, requester, addr, write, out);
        }
    }

    fn home_handle_putm(
        &mut self,
        now: Cycle,
        from: NodeId,
        addr: BlockAddr,
        version: u64,
        out: &mut Outbox,
    ) {
        self.memory.write_data(addr, version);
        let ack = self.unicast(
            now + self.controller_latency,
            from,
            addr,
            MsgKind::WbAck,
            Vnet::Response,
        );
        self.send(out, ack);
    }

    // ------------------------------------------------------------------
    // Cache side.
    // ------------------------------------------------------------------

    fn line_or_wb(&self, addr: BlockAddr) -> Option<MosiLine> {
        self.l2.peek(addr).copied().or_else(|| self.wb.line(addr))
    }

    fn handle_probe(
        &mut self,
        now: Cycle,
        requester: NodeId,
        addr: BlockAddr,
        write: bool,
        out: &mut Outbox,
    ) {
        let at = now + self.controller_latency + self.l2_latency;
        let line = self.line_or_wb(addr);
        match line {
            Some(line) if line.state.is_owner() => {
                let migratory = !write
                    && self.migratory_optimization
                    && line.state == MosiState::Modified
                    && line.dirty;
                let exclusive = write || migratory;
                let data = self.unicast(
                    at,
                    requester,
                    addr,
                    MsgKind::Data {
                        acks_expected: 0,
                        exclusive,
                        from_memory: false,
                        payload: DataPayload::new(line.version),
                    },
                    Vnet::Response,
                );
                self.send(out, data);
                if exclusive {
                    self.l2.remove(addr);
                    self.l1.invalidate(addr);
                } else if let Some(l) = self.l2.get(addr) {
                    l.state = MosiState::Owned;
                }
            }
            Some(_) if write => {
                // A shared copy: invalidate and acknowledge.
                self.l2.remove(addr);
                self.l1.invalidate(addr);
                let ack = self.unicast(at, requester, addr, MsgKind::InvAck, Vnet::Response);
                self.send(out, ack);
            }
            _ => {
                // Nothing (or a read probe at a plain sharer): acknowledge.
                let ack = self.unicast(at, requester, addr, MsgKind::InvAck, Vnet::Response);
                self.send(out, ack);
            }
        }
    }

    fn handle_response(
        &mut self,
        now: Cycle,
        addr: BlockAddr,
        data: Option<(bool, bool, DataPayload)>,
        out: &mut Outbox,
    ) {
        let Some(mshr) = self.mshrs.get_mut(addr) else {
            return;
        };
        mshr.responses_received += 1;
        if let Some((exclusive, from_memory, payload)) = data {
            if from_memory {
                mshr.memory_data_received = true;
                mshr.memory_version = payload.version;
            } else {
                // A cache's copy supersedes memory's possibly stale copy.
                mshr.data_received = true;
                mshr.version = payload.version;
                mshr.dirty = true;
                mshr.from_cache = true;
            }
            mshr.exclusive |= exclusive;
        }
        self.try_complete(now, addr, out);
    }

    fn try_complete(&mut self, now: Cycle, addr: BlockAddr, out: &mut Outbox) {
        let Some(mshr) = self.mshrs.get(addr) else {
            return;
        };
        if mshr.responses_received < mshr.responses_expected {
            return;
        }
        if !mshr.data_received && !mshr.memory_data_received {
            return;
        }
        let mut mshr = self.mshrs.release(addr).expect("checked above");

        let (version, dirty, from_cache) = if mshr.data_received {
            (mshr.version, mshr.dirty, true)
        } else {
            (mshr.memory_version, false, false)
        };
        let granted_exclusive = mshr.write || mshr.exclusive;
        let state = if granted_exclusive {
            MosiState::Modified
        } else {
            MosiState::Shared
        };
        let mut line = MosiLine {
            state,
            dirty: dirty && state.is_owner(),
            version,
            valid_since: mshr.issued_at,
        };
        // Stores merged into a read miss wait for an upgrade transaction.
        apply_pending_ops(
            &mut line,
            self.pending_ops.iter(&mshr.pending),
            granted_exclusive,
            &mut self.store_counter,
            version_node_bits(self.node),
            &mut self.completion_scratch,
            &mut self.deferred_scratch,
        );
        self.pending_ops.clear(&mut mshr.pending);
        if let Some(victim) = self.l2.insert(addr, line) {
            self.evict(now, victim.addr, victim.state, out);
        }

        let kind = miss_kind(mshr.write, mshr.upgrade);
        for (req_id, v) in self.completion_scratch.drain(..) {
            out.complete(MissCompletion {
                req_id,
                addr,
                kind,
                issued_at: mshr.issued_at,
                completed_at: now,
                data_version: v,
                cache_to_cache: from_cache,
            });
        }

        let latency = now.saturating_sub(mshr.issued_at);
        record_completed_miss(&mut self.stats, kind, latency, from_cache);

        let home = self.home_of(addr);
        let unblock = self.unicast(
            now + self.controller_latency,
            home,
            addr,
            MsgKind::Unblock,
            Vnet::Response,
        );
        self.send(out, unblock);

        // Re-issue merged stores as an upgrade transaction.
        if !self.deferred_scratch.is_empty() {
            self.stats.bump("merged_store_upgrades", 1);
            let mut deferred = OpList::new();
            for i in 0..self.deferred_scratch.len() {
                let op = self.deferred_scratch[i];
                self.pending_ops.push(&mut deferred, op);
            }
            self.deferred_scratch.clear();
            let upgrade = HammerMshr {
                pending: deferred,
                write: true,
                upgrade: true,
                issued_at: now,
                responses_expected: self.num_nodes as u32,
                responses_received: 0,
                data_received: false,
                exclusive: false,
                version: 0,
                dirty: false,
                from_cache: false,
                memory_version: 0,
                memory_data_received: false,
            };
            self.mshrs
                .allocate(addr, upgrade)
                .unwrap_or_else(|_| panic!("upgrade MSHR conflict at {}", self.node));
            let getm = self.unicast(
                now + self.controller_latency,
                home,
                addr,
                MsgKind::GetM,
                Vnet::Request,
            );
            self.send(out, getm);
        }
    }

    fn evict(&mut self, now: Cycle, addr: BlockAddr, line: MosiLine, out: &mut Outbox) {
        self.l1.invalidate(addr);
        if line.state.is_owner() {
            self.stats.misses.writebacks += 1;
            self.wb.stash(addr, line);
            let home = self.home_of(addr);
            let putm = Message::new(
                self.node,
                Destination::Node(home),
                addr,
                MsgKind::PutM,
                Vnet::Writeback,
                now + self.controller_latency,
            )
            .with_req_id(ReqId::new(line.version));
            self.send(out, putm);
        }
    }
}

impl CoherenceController for HammerController {
    fn node(&self) -> NodeId {
        self.node
    }

    fn protocol_name(&self) -> &'static str {
        "Hammer"
    }

    fn access(&mut self, now: Cycle, op: &MemOp, out: &mut Outbox) -> AccessOutcome {
        let addr = op.addr.block(self.home_map.block_bytes());
        let write = op.kind.is_write();
        // Hammer hits are probe/ack-protected, so read hits are wall-clock
        // fresh (`valid_since = now`).
        if let Some(outcome) = mosi_hit_path(
            &mut self.l1,
            &mut self.l2,
            addr,
            write,
            now,
            self.l2_latency,
            &mut self.store_counter,
            version_node_bits(self.node),
            &mut self.stats.misses,
            false,
        ) {
            return outcome;
        }

        let had_copy = self
            .l2
            .peek(addr)
            .map(|l| l.state.readable())
            .unwrap_or(false);
        if let Some(mshr) = self.mshrs.get_mut(addr) {
            self.pending_ops.push(
                &mut mshr.pending,
                PendingOp {
                    req_id: op.id,
                    write,
                },
            );
            // A later write merged into a read miss simply waits; the miss
            // will complete with whatever permission was requested first and
            // the store will retry as an upgrade (kept simple: Hammer is a
            // baseline).
            return AccessOutcome::Miss;
        }

        let mshr = HammerMshr {
            pending: self.pending_ops.singleton(PendingOp {
                req_id: op.id,
                write,
            }),
            write,
            upgrade: write && had_copy,
            issued_at: now,
            // N-1 probe responses plus the memory response.
            responses_expected: self.num_nodes as u32,
            responses_received: 0,
            data_received: false,
            exclusive: false,
            version: 0,
            dirty: false,
            from_cache: false,
            memory_version: 0,
            memory_data_received: false,
        };
        self.mshrs
            .allocate(addr, mshr)
            .unwrap_or_else(|_| panic!("MSHR overflow at {}", self.node));
        let home = self.home_of(addr);
        let kind = if write { MsgKind::GetM } else { MsgKind::GetS };
        let msg = self.unicast(
            now + self.controller_latency,
            home,
            addr,
            kind,
            Vnet::Request,
        );
        self.send(out, msg);
        AccessOutcome::Miss
    }

    fn handle_message(&mut self, now: Cycle, msg: &Message, out: &mut Outbox) {
        self.stats.messages_received += 1;
        let addr = msg.addr;
        match &msg.kind {
            MsgKind::GetS => self.home_handle_request(now, msg.src, addr, false, out),
            MsgKind::GetM => self.home_handle_request(now, msg.src, addr, true, out),
            MsgKind::HammerProbe { requester, write } => {
                self.handle_probe(now, *requester, addr, *write, out)
            }
            MsgKind::Data {
                exclusive,
                from_memory,
                payload,
                ..
            } => self.handle_response(now, addr, Some((*exclusive, *from_memory, *payload)), out),
            MsgKind::InvAck => self.handle_response(now, addr, None, out),
            MsgKind::Unblock => self.home_handle_unblock(now, addr, out),
            MsgKind::PutM => {
                let version = msg.req_id.map(|r| r.value()).unwrap_or(0);
                self.home_handle_putm(now, msg.src, addr, version, out);
            }
            MsgKind::WbAck => {
                self.wb.take(addr);
            }
            other => {
                debug_assert!(false, "Hammer received unexpected message {other:?}");
            }
        }
    }

    fn handle_timer(&mut self, _now: Cycle, _timer: Timer, _out: &mut Outbox) {
        // Hammer arms no timers.
    }

    fn stats(&self) -> ControllerStats {
        self.stats.clone()
    }

    fn audit_block(&self, addr: BlockAddr) -> Vec<BlockAudit> {
        let mut audits = Vec::new();
        if let Some(line) = self.l2.peek(addr) {
            audits.push(BlockAudit {
                tokens: 0,
                owner_token: line.state.is_owner(),
                readable: line.state.readable(),
                writable: line.state.writable(),
                data_version: line.version,
                in_memory: false,
            });
        }
        audits
    }

    fn audited_blocks(&self) -> Vec<BlockAddr> {
        self.l2.blocks()
    }

    fn outstanding_misses(&self) -> usize {
        self.mshrs.len()
    }

    fn outstanding_blocks(&self) -> Vec<BlockAddr> {
        self.mshrs.blocks_sorted()
    }

    fn line_state_stats(&self) -> LineStateStats {
        let (wb_buffer_peak, wb_window_peak) = self.wb.peaks();
        LineStateStats {
            mshr_peak: self.mshrs.high_water() as u64,
            wb_buffer_peak,
            wb_window_peak,
            home_peak: self.memory.entries_high_water(),
            persistent_peak: 0,
            state_bytes: self.mshrs.state_bytes()
                + self.wb.state_bytes()
                + self.memory.state_bytes(),
        }
    }

    fn save_state(&self, w: &mut SnapWriter) {
        w.u64(self.store_counter);
        self.stats.save_state(w);
        self.l1.save_state(w);
        self.l2.save_state(w, emit_mosi_line);
        self.memory.save_state(w, emit_hammer_entry);
        self.mshrs
            .save_state(w, |w, mshr| emit_hammer_mshr(w, mshr, &self.pending_ops));
        self.wb.save_state(w);
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        self.store_counter = r.u64()?;
        self.stats = ControllerStats::load_state(r)?;
        self.l1.load_state(r)?;
        self.l2.load_state(r, read_mosi_line)?;
        self.memory.load_state(r, read_hammer_entry)?;
        // Rebuild the pending-op pool from scratch; handles saved inside the
        // reloaded MSHR entries are re-minted as they are read.
        self.pending_ops.reset();
        let slab = &mut self.pending_ops;
        self.mshrs.load_state(r, |r| read_hammer_mshr(r, slab))?;
        self.wb.load_state(r)?;
        Ok(())
    }
}

fn emit_hammer_entry(w: &mut SnapWriter, entry: &HammerEntry) {
    w.bool(entry.busy);
    w.seq(entry.queue.iter(), |w, &(node, write)| {
        w.u32(node.index() as u32);
        w.bool(write);
    });
}

fn read_hammer_entry(r: &mut SnapReader<'_>) -> Result<HammerEntry, SnapshotError> {
    let busy = r.bool()?;
    let queue_len = r.bounded_len(5)?;
    let mut queue = VecDeque::with_capacity(queue_len);
    for _ in 0..queue_len {
        queue.push_back((NodeId::new(r.u32()? as usize), r.bool()?));
    }
    Ok(HammerEntry { busy, queue })
}

fn emit_hammer_mshr(w: &mut SnapWriter, mshr: &HammerMshr, slab: &OpSlab<PendingOp>) {
    w.seq(slab.iter(&mshr.pending), emit_pending_op);
    w.bool(mshr.write);
    w.bool(mshr.upgrade);
    w.u64(mshr.issued_at);
    w.u32(mshr.responses_expected);
    w.u32(mshr.responses_received);
    w.bool(mshr.data_received);
    w.bool(mshr.exclusive);
    w.u64(mshr.version);
    w.bool(mshr.dirty);
    w.bool(mshr.from_cache);
    w.u64(mshr.memory_version);
    w.bool(mshr.memory_data_received);
}

fn read_hammer_mshr(
    r: &mut SnapReader<'_>,
    slab: &mut OpSlab<PendingOp>,
) -> Result<HammerMshr, SnapshotError> {
    let pending_len = r.bounded_len(9)?;
    let mut pending = OpList::new();
    for _ in 0..pending_len {
        slab.push(&mut pending, read_pending_op(r)?);
    }
    Ok(HammerMshr {
        pending,
        write: r.bool()?,
        upgrade: r.bool()?,
        issued_at: r.u64()?,
        responses_expected: r.u32()?,
        responses_received: r.u32()?,
        data_received: r.bool()?,
        exclusive: r.bool()?,
        version: r.u64()?,
        dirty: r.bool()?,
        from_cache: r.bool()?,
        memory_version: r.u64()?,
        memory_data_received: r.bool()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_types::{Address, MemOpKind, MissKind};

    fn config() -> SystemConfig {
        SystemConfig::isca03_default()
            .with_nodes(4)
            .with_protocol(tc_types::ProtocolKind::Hammer)
            .with_topology(tc_types::TopologyKind::Torus)
    }

    fn controller(node: usize) -> HammerController {
        HammerController::new(NodeId::new(node), &config())
    }

    fn load(addr: u64, id: u64) -> MemOp {
        MemOp::new(ReqId::new(id), Address::new(addr), MemOpKind::Load)
    }

    fn store(addr: u64, id: u64) -> MemOp {
        MemOp::new(ReqId::new(id), Address::new(addr), MemOpKind::Store)
    }

    fn deliver_all(out: &Outbox, nodes: &mut [HammerController], now: Cycle) -> Outbox {
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

    #[test]
    fn home_broadcasts_probes_and_memory_data() {
        let mut home = controller(0);
        let mut requester = controller(1);
        let mut out = Outbox::new();
        requester.access(0, &load(0, 1), &mut out);
        assert_eq!(out.messages[0].dest, Destination::Node(NodeId::new(0)));

        let mut home_only = [home];
        let home_out = deliver_all(&out, &mut home_only, 10);
        home = home_only.into_iter().next().unwrap();
        let probe = home_out
            .messages
            .iter()
            .find(|m| matches!(m.kind, MsgKind::HammerProbe { .. }))
            .expect("probe broadcast");
        match &probe.dest {
            Destination::Multicast(nodes) => {
                assert_eq!(nodes.len(), 3);
                assert!(!nodes.contains(&NodeId::new(1)));
            }
            other => panic!("expected multicast, got {other:?}"),
        }
        assert!(home_out.messages.iter().any(|m| matches!(
            m.kind,
            MsgKind::Data {
                from_memory: true,
                ..
            }
        )));
        let _ = home;
    }

    #[test]
    fn requester_waits_for_every_response() {
        let mut nodes: Vec<HammerController> = (0..4).map(controller).collect();
        // Node 1 issues a read miss for block 0 (homed at node 0).
        let mut out = Outbox::new();
        nodes[1].access(0, &load(0, 1), &mut out);

        // Deliver the request to the home, then fan everything out until the
        // requester completes.
        let mut frontier = out;
        let mut completions = Vec::new();
        for step in 0..6 {
            let produced = {
                let mut next = Outbox::new();
                for msg in &frontier.messages {
                    for node in nodes.iter_mut() {
                        if msg.dest.includes(node.node(), msg.src) {
                            node.handle_message(10 * (step + 1), msg, &mut next);
                        }
                    }
                }
                next
            };
            completions.extend(produced.completions.iter().copied());
            frontier = produced;
            if !completions.is_empty() {
                break;
            }
        }
        assert_eq!(completions.len(), 1);
        assert_eq!(completions[0].kind, MissKind::Read);
        assert!(!completions[0].cache_to_cache, "data came from memory");
    }

    #[test]
    fn dirty_owner_data_supersedes_memory_data() {
        let mut nodes: Vec<HammerController> = (0..4).map(controller).collect();

        // Node 2 takes block 0 to M (run the full exchange).
        let mut frontier = Outbox::new();
        nodes[2].access(0, &store(0, 1), &mut frontier);
        for step in 0..6 {
            let mut next = Outbox::new();
            for msg in &frontier.messages {
                for node in nodes.iter_mut() {
                    if msg.dest.includes(node.node(), msg.src) {
                        node.handle_message(100 * (step + 1), msg, &mut next);
                    }
                }
            }
            frontier = next;
        }
        assert_eq!(
            nodes[2].l2.peek(BlockAddr::new(0)).unwrap().state,
            MosiState::Modified
        );
        let written_version = nodes[2].l2.peek(BlockAddr::new(0)).unwrap().version;

        // Node 3 now reads the block; the dirty copy at node 2 must win over
        // the stale memory copy.
        let mut frontier = Outbox::new();
        nodes[3].access(1000, &load(0, 2), &mut frontier);
        let mut observed = None;
        for step in 0..6 {
            let mut next = Outbox::new();
            for msg in &frontier.messages {
                for node in nodes.iter_mut() {
                    if msg.dest.includes(node.node(), msg.src) {
                        node.handle_message(1000 + 100 * (step + 1), msg, &mut next);
                    }
                }
            }
            for c in &next.completions {
                observed = Some(*c);
            }
            frontier = next;
            if observed.is_some() {
                break;
            }
        }
        let completion = observed.expect("read must complete");
        assert!(completion.cache_to_cache);
        assert_eq!(completion.data_version, written_version);
    }

    #[test]
    fn probes_generate_many_acknowledgements() {
        let mut nodes: Vec<HammerController> = (0..4).map(controller).collect();
        let mut out = Outbox::new();
        nodes[1].access(0, &load(0, 1), &mut out);
        // Request reaches home.
        let mut home_out = Outbox::new();
        for msg in &out.messages {
            nodes[0].handle_message(10, msg, &mut home_out);
        }
        // Probes reach the other nodes; every one answers.
        let mut acks = 0;
        for msg in &home_out.messages {
            if let MsgKind::HammerProbe { .. } = msg.kind {
                for target in msg.dest.expand(4, msg.src) {
                    let mut reply = Outbox::new();
                    nodes[target.index()].handle_message(20, msg, &mut reply);
                    acks += reply
                        .messages
                        .iter()
                        .filter(|m| m.kind == MsgKind::InvAck)
                        .count();
                }
            }
        }
        assert_eq!(acks, 3, "every probed node acknowledges");
    }

    #[test]
    fn home_serializes_requests_per_block() {
        let mut home = controller(0);
        let req_a = Message::new(
            NodeId::new(1),
            Destination::Node(NodeId::new(0)),
            BlockAddr::new(0),
            MsgKind::GetM,
            Vnet::Request,
            0,
        );
        let req_b = Message::new(
            NodeId::new(2),
            Destination::Node(NodeId::new(0)),
            BlockAddr::new(0),
            MsgKind::GetM,
            Vnet::Request,
            5,
        );
        let mut out = Outbox::new();
        home.handle_message(10, &req_a, &mut out);
        let first_probes = out.messages.len();
        let mut out2 = Outbox::new();
        home.handle_message(15, &req_b, &mut out2);
        assert!(out2.messages.is_empty(), "second request must queue");
        // The unblock from the first requester releases the second.
        let unblock = Message::new(
            NodeId::new(1),
            Destination::Node(NodeId::new(0)),
            BlockAddr::new(0),
            MsgKind::Unblock,
            Vnet::Response,
            50,
        );
        let mut out3 = Outbox::new();
        home.handle_message(60, &unblock, &mut out3);
        assert_eq!(out3.messages.len(), first_probes);
    }
}
