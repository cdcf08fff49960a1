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

use tc_sim::{SnapReader, SnapWriter, SnapshotError};
use tc_types::{
    AccessOutcome, BlockAddr, CoherenceController, Cycle, DataPayload, Destination, MemOp, Message,
    MsgKind, NodeId, Outbox, SystemConfig, Vnet,
};

use crate::common::MosiState;
use crate::mosi::{mosi_bookkeeping, MosiNode, SnapState};

/// The Hammer MSHR extension: probe responses counted so far, and memory's
/// copy of the data, which a cache's copy supersedes.
#[derive(Debug, Default)]
struct HammerMshr {
    responses_received: u32,
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
    core: MosiNode<HammerMshr, HammerEntry>,
}

impl HammerController {
    /// Creates the Hammer controller for `node` under `config`.
    pub fn new(node: NodeId, config: &SystemConfig) -> Self {
        HammerController {
            core: MosiNode::new(node, config, false),
        }
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
        debug_assert!(self.core.is_home(addr));
        let entry = self.core.memory.state_mut(addr);
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
        let core = &mut self.core;
        // Probe every node except the requester (including this home node's
        // own cache, which receives the probe like any other node).
        let probe_targets: Vec<NodeId> = (0..core.home_map.num_nodes())
            .map(NodeId::new)
            .filter(|n| *n != requester)
            .collect();
        let probe = Message::new(
            core.node,
            Destination::multicast(probe_targets),
            addr,
            MsgKind::HammerProbe { requester, write },
            Vnet::Forwarded,
            now + core.controller_latency,
        );
        core.send(out, probe);
        core.stats.bump("hammer_probes", 1);

        // In parallel, memory supplies its copy of the data.
        let version = core.memory.data_version(addr);
        core.send_to(
            now + core.controller_latency + core.dram_latency,
            requester,
            addr,
            MsgKind::Data {
                acks_expected: 0,
                exclusive: write,
                from_memory: true,
                payload: DataPayload::new(version),
            },
            Vnet::Response,
            out,
        );
    }

    fn home_handle_unblock(&mut self, now: Cycle, addr: BlockAddr, out: &mut Outbox) {
        let entry = self.core.memory.state_mut(addr);
        entry.busy = false;
        if let Some((requester, write)) = entry.queue.pop_front() {
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
        self.core.memory.write_data(addr, version);
        self.core.send_to(
            now + self.core.controller_latency,
            from,
            addr,
            MsgKind::WbAck,
            Vnet::Response,
            out,
        );
    }

    // ------------------------------------------------------------------
    // Cache side.
    // ------------------------------------------------------------------

    fn handle_probe(
        &mut self,
        now: Cycle,
        requester: NodeId,
        addr: BlockAddr,
        write: bool,
        out: &mut Outbox,
    ) {
        let core = &mut self.core;
        let at = now + core.controller_latency + core.l2_latency;
        match core.line_or_wb(addr) {
            Some(line) if line.state.is_owner() => {
                let migratory = !write
                    && core.migratory_optimization
                    && line.state == MosiState::Modified
                    && line.dirty;
                let exclusive = write || migratory;
                core.send_to(
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
                    out,
                );
                if exclusive {
                    core.l2.remove(addr);
                    core.l1.invalidate(addr);
                } else if let Some(l) = core.l2.get(addr) {
                    l.state = MosiState::Owned;
                }
            }
            line => {
                // A write probe invalidates a shared copy. Every non-owner
                // acknowledges.
                if line.is_some() && write {
                    core.l2.remove(addr);
                    core.l1.invalidate(addr);
                }
                core.send_to(at, requester, addr, MsgKind::InvAck, Vnet::Response, out);
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
        let Some(mshr) = self.core.mshrs.get_mut(addr) else {
            return;
        };
        mshr.ext.responses_received += 1;
        if let Some((exclusive, from_memory, payload)) = data {
            if from_memory {
                mshr.ext.memory_data_received = true;
                mshr.ext.memory_version = payload.version;
            } else {
                mshr.data_received = true;
                mshr.version = payload.version;
                mshr.dirty = true;
                mshr.from_cache = true;
            }
            mshr.exclusive |= exclusive;
        }
        self.try_complete(now, addr, out);
    }

    /// A miss completes once every node has answered (N-1 probe responses
    /// plus the memory response) and some data is in; a cache's copy
    /// supersedes memory's possibly stale one.
    fn try_complete(&mut self, now: Cycle, addr: BlockAddr, out: &mut Outbox) {
        let Some(mshr) = self.core.mshrs.get(addr) else {
            return;
        };
        let responses_expected = self.core.home_map.num_nodes() as u32;
        if mshr.ext.responses_received < responses_expected
            || !(mshr.data_received || mshr.ext.memory_data_received)
        {
            return;
        }
        let version = if mshr.data_received {
            mshr.version
        } else {
            mshr.ext.memory_version
        };
        self.core.complete(now, addr, version, out);
        let home = self.core.home_of(addr);
        self.core.send_to(
            now + self.core.controller_latency,
            home,
            addr,
            MsgKind::Unblock,
            Vnet::Response,
            out,
        );
        self.core.reissue_deferred(now, addr, out);
    }
}

impl CoherenceController for HammerController {
    fn protocol_name(&self) -> &'static str {
        "Hammer"
    }

    fn access(&mut self, now: Cycle, op: &MemOp, out: &mut Outbox) -> AccessOutcome {
        self.core.access(now, op, out)
    }

    fn handle_message(&mut self, now: Cycle, msg: &Message, out: &mut Outbox) {
        self.core.stats.messages_received += 1;
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
                self.core.wb.take(addr);
            }
            other => {
                debug_assert!(false, "Hammer received unexpected message {other:?}");
            }
        }
    }

    mosi_bookkeeping!();
}

impl SnapState for HammerMshr {
    fn save(&self, w: &mut SnapWriter) {
        w.u32(self.responses_received);
        w.u64(self.memory_version);
        w.bool(self.memory_data_received);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(HammerMshr {
            responses_received: r.u32()?,
            memory_version: r.u64()?,
            memory_data_received: r.bool()?,
        })
    }
}

impl SnapState for HammerEntry {
    fn save(&self, w: &mut SnapWriter) {
        w.bool(self.busy);
        w.seq(self.queue.iter(), |w, &(node, write)| {
            w.u32(node.index() as u32);
            w.bool(write);
        });
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let busy = r.bool()?;
        let queue_len = r.bounded_len(5)?;
        let mut queue = VecDeque::with_capacity(queue_len);
        for _ in 0..queue_len {
            queue.push_back((NodeId::new(r.u32()? as usize), r.bool()?));
        }
        Ok(HammerEntry { busy, queue })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_types::{Address, MemOpKind, MissKind, ReqId};

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
            nodes[2].core.l2.peek(BlockAddr::new(0)).unwrap().state,
            MosiState::Modified
        );
        let written_version = nodes[2].core.l2.peek(BlockAddr::new(0)).unwrap().version;

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
