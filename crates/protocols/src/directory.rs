//! Full-map blocking directory protocol (Origin 2000 / Alpha 21364 style).
//!
//! Every block's home node keeps a full-map directory entry: the current
//! owner (a cache, or memory itself) and the set of sharers. Requests are
//! sent to the home, which either answers from memory, forwards the request
//! to the owning cache, and/or issues invalidations; requesters collect
//! invalidation acknowledgements and finish the transaction with an unblock
//! message. The home *blocks* (queues) later requests for a block while one
//! is in flight, so no negative acknowledgements or retries are needed.
//!
//! The cost of this design — and the reason the paper builds TokenB — is the
//! indirection: every cache-to-cache miss takes three interconnect traversals
//! (requester → home → owner → requester) plus the directory lookup, which
//! in the base system lives in DRAM.

use std::collections::{BTreeSet, VecDeque};

use tc_sim::{SnapReader, SnapWriter, SnapshotError};
use tc_types::{
    AccessOutcome, BlockAddr, CoherenceController, Cycle, DataPayload, DirectoryMode, MemOp,
    Message, MsgKind, NodeId, Outbox, SystemConfig, Vnet,
};

use crate::common::MosiState;
use crate::mosi::{mosi_bookkeeping, MosiNode, SnapState};

/// The directory protocol's MSHR extension: invalidation acknowledgements.
#[derive(Debug, Default)]
struct DirMshr {
    /// Known once the data response (or a forward's data) arrives.
    acks_expected: Option<u32>,
    acks_received: u32,
}

/// The home node's directory entry for one block.
#[derive(Debug, Clone, Default)]
struct DirEntry {
    owner: Option<NodeId>,
    sharers: BTreeSet<NodeId>,
    busy: bool,
    queue: VecDeque<(NodeId, bool)>,
}

/// The directory-protocol controller for one node (cache side plus the
/// directory/home side for the blocks it homes).
#[derive(Debug)]
pub struct DirectoryController {
    core: MosiNode<DirMshr, DirEntry>,
    directory_latency: Cycle,
}

impl DirectoryController {
    /// Creates the directory controller for `node` under `config`.
    pub fn new(node: NodeId, config: &SystemConfig) -> Self {
        let directory_latency = match config.directory_mode {
            DirectoryMode::InDram => config.dram_latency_ns,
            DirectoryMode::Perfect => 0,
        };
        DirectoryController {
            core: MosiNode::new(node, config, false),
            directory_latency,
        }
    }

    // ------------------------------------------------------------------
    // Home / directory side.
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
        self.core.stats.bump("directory_lookups", 1);
        let entry = self.core.memory.state_mut(addr);
        if entry.busy {
            entry.queue.push_back((requester, write));
            return;
        }
        self.process_at_home(now, requester, addr, write, out);
    }

    fn process_at_home(
        &mut self,
        now: Cycle,
        requester: NodeId,
        addr: BlockAddr,
        write: bool,
        out: &mut Outbox,
    ) {
        let dir_delay = self.core.controller_latency + self.directory_latency;
        let mem_delay = dir_delay + self.core.dram_latency;
        let mem_version = self.core.memory.data_version(addr);
        let entry = self.core.memory.state_mut(addr);
        let owner = entry.owner;
        // Requests for the block queue behind this one until the
        // requester's unblock; for a read answered by memory this keeps a
        // racing GetM from invalidating the requester before its data
        // arrives.
        entry.busy = true;
        // A write invalidates every other sharer and takes ownership.
        let mut other_sharers = Vec::new();
        if write {
            other_sharers.extend(
                entry
                    .sharers
                    .iter()
                    .filter(|s| **s != requester && Some(**s) != owner),
            );
            entry.sharers.clear();
            entry.owner = Some(requester);
        } else {
            entry.sharers.insert(requester);
        }
        let acks = other_sharers.len() as u32;
        match owner.filter(|o| *o != requester) {
            // A cache owns the block: forward the request; the owner supplies
            // the data directly to the requester.
            Some(current_owner) => {
                let fwd = if write {
                    MsgKind::FwdGetM {
                        requester,
                        acks_expected: acks,
                    }
                } else {
                    MsgKind::FwdGetS { requester }
                };
                self.core.send_to(
                    now + dir_delay,
                    current_owner,
                    addr,
                    fwd,
                    Vnet::Forwarded,
                    out,
                );
                self.core.stats.bump("directory_forwards", 1);
            }
            // Memory owns the block (or the requester is upgrading a block it
            // already owns): memory supplies the data.
            None => self.core.send_to(
                now + mem_delay,
                requester,
                addr,
                MsgKind::Data {
                    acks_expected: acks,
                    exclusive: write,
                    from_memory: true,
                    payload: DataPayload::new(mem_version),
                },
                Vnet::Response,
                out,
            ),
        }
        for sharer in other_sharers {
            self.core.send_to(
                now + dir_delay,
                sharer,
                addr,
                MsgKind::Inv { requester },
                Vnet::Forwarded,
                out,
            );
            self.core.stats.bump("invalidations_sent", 1);
        }
    }

    fn home_handle_unblock(
        &mut self,
        now: Cycle,
        from: NodeId,
        addr: BlockAddr,
        exclusive: bool,
        out: &mut Outbox,
    ) {
        let entry = self.core.memory.state_mut(addr);
        if exclusive {
            entry.owner = Some(from);
            entry.sharers.clear();
        } else {
            entry.sharers.insert(from);
        }
        entry.busy = false;
        // Serve the next queued request, if any.
        if let Some((requester, write)) = entry.queue.pop_front() {
            self.process_at_home(now, requester, addr, write, out);
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
        let entry = self.core.memory.state_mut(addr);
        if entry.owner == Some(from) && !entry.busy {
            entry.owner = None;
        }
        entry.sharers.remove(&from);
        self.core.send_to(
            now + self.core.controller_latency + self.directory_latency,
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

    fn handle_forward(
        &mut self,
        now: Cycle,
        requester: NodeId,
        addr: BlockAddr,
        write: bool,
        acks_expected: u32,
        out: &mut Outbox,
    ) {
        let core = &mut self.core;
        let Some(line) = core.line_or_wb(addr) else {
            core.stats.bump("forwards_without_copy", 1);
            return;
        };
        let migratory = !write
            && core.migratory_optimization
            && line.state == MosiState::Modified
            && line.dirty;
        let exclusive = write || migratory;
        core.send_to(
            now + core.controller_latency + core.l2_latency,
            requester,
            addr,
            MsgKind::Data {
                acks_expected,
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

    fn handle_inv(&mut self, now: Cycle, requester: NodeId, addr: BlockAddr, out: &mut Outbox) {
        let core = &mut self.core;
        if let Some(line) = core.l2.peek(addr).copied() {
            if !line.state.is_owner() {
                core.l2.remove(addr);
            }
        }
        core.l1.invalidate(addr);
        core.send_to(
            now + core.controller_latency,
            requester,
            addr,
            MsgKind::InvAck,
            Vnet::Response,
            out,
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_data(
        &mut self,
        now: Cycle,
        addr: BlockAddr,
        acks_expected: u32,
        exclusive: bool,
        from_memory: bool,
        payload: DataPayload,
        out: &mut Outbox,
    ) {
        let Some(mshr) = self.core.mshrs.get_mut(addr) else {
            return;
        };
        mshr.data_received = true;
        mshr.exclusive |= exclusive;
        mshr.version = payload.version;
        mshr.dirty = !from_memory;
        mshr.from_cache |= !from_memory;
        let expected = mshr.ext.acks_expected.unwrap_or(0).max(acks_expected);
        mshr.ext.acks_expected = Some(expected);
        self.try_complete(now, addr, out);
    }

    fn handle_inv_ack(&mut self, now: Cycle, addr: BlockAddr, out: &mut Outbox) {
        if let Some(mshr) = self.core.mshrs.get_mut(addr) {
            mshr.ext.acks_received += 1;
        }
        self.try_complete(now, addr, out);
    }

    /// A miss completes once its data is in and, for a write, every
    /// invalidation is acknowledged; the requester then unblocks the home.
    fn try_complete(&mut self, now: Cycle, addr: BlockAddr, out: &mut Outbox) {
        let Some(mshr) = self.core.mshrs.get(addr) else {
            return;
        };
        let acks_missing =
            mshr.write && mshr.ext.acks_received < mshr.ext.acks_expected.unwrap_or(0);
        if !mshr.data_received || acks_missing {
            return;
        }
        let version = mshr.version;
        let mshr = self.core.complete(now, addr, version, out);
        let unblock = if mshr.granted_exclusive() {
            MsgKind::ExclusiveUnblock
        } else {
            MsgKind::Unblock
        };
        let home = self.core.home_of(addr);
        self.core.send_to(
            now + self.core.controller_latency,
            home,
            addr,
            unblock,
            Vnet::Response,
            out,
        );
        self.core.reissue_deferred(now, addr, out);
    }
}

impl CoherenceController for DirectoryController {
    fn protocol_name(&self) -> &'static str {
        "Directory"
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
            MsgKind::FwdGetS { requester } => {
                self.handle_forward(now, *requester, addr, false, 0, out)
            }
            MsgKind::FwdGetM {
                requester,
                acks_expected,
            } => self.handle_forward(now, *requester, addr, true, *acks_expected, out),
            MsgKind::Inv { requester } => self.handle_inv(now, *requester, addr, out),
            MsgKind::Data {
                acks_expected,
                exclusive,
                from_memory,
                payload,
            } => self.handle_data(
                now,
                addr,
                *acks_expected,
                *exclusive,
                *from_memory,
                *payload,
                out,
            ),
            MsgKind::InvAck => self.handle_inv_ack(now, addr, out),
            MsgKind::Unblock => self.home_handle_unblock(now, msg.src, addr, false, out),
            MsgKind::ExclusiveUnblock => self.home_handle_unblock(now, msg.src, addr, true, out),
            MsgKind::PutM => {
                let version = msg.req_id.map(|r| r.value()).unwrap_or(0);
                self.home_handle_putm(now, msg.src, addr, version, out);
            }
            MsgKind::WbAck => {
                self.core.wb.take(addr);
            }
            other => {
                debug_assert!(false, "Directory received unexpected message {other:?}");
            }
        }
    }

    mosi_bookkeeping!();
}

impl SnapState for DirMshr {
    fn save(&self, w: &mut SnapWriter) {
        w.option(self.acks_expected, |w, acks| w.u32(acks));
        w.u32(self.acks_received);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(DirMshr {
            acks_expected: r.option(|r| r.u32())?,
            acks_received: r.u32()?,
        })
    }
}

impl SnapState for DirEntry {
    fn save(&self, w: &mut SnapWriter) {
        w.option(self.owner, |w, owner| w.u32(owner.index() as u32));
        w.seq(self.sharers.iter(), |w, s| w.u32(s.index() as u32));
        w.bool(self.busy);
        w.seq(self.queue.iter(), |w, &(node, write)| {
            w.u32(node.index() as u32);
            w.bool(write);
        });
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let owner = r.option(|r| Ok(NodeId::new(r.u32()? as usize)))?;
        let sharer_len = r.bounded_len(4)?;
        let mut sharers = BTreeSet::new();
        for _ in 0..sharer_len {
            sharers.insert(NodeId::new(r.u32()? as usize));
        }
        let busy = r.bool()?;
        let queue_len = r.bounded_len(5)?;
        let mut queue = VecDeque::with_capacity(queue_len);
        for _ in 0..queue_len {
            queue.push_back((NodeId::new(r.u32()? as usize), r.bool()?));
        }
        Ok(DirEntry {
            owner,
            sharers,
            busy,
            queue,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_types::{Address, Destination, MemOpKind, MissKind, ReqId};

    fn config() -> SystemConfig {
        SystemConfig::isca03_default()
            .with_nodes(4)
            .with_protocol(tc_types::ProtocolKind::Directory)
            .with_topology(tc_types::TopologyKind::Torus)
    }

    fn controller(node: usize) -> DirectoryController {
        DirectoryController::new(NodeId::new(node), &config())
    }

    fn load(addr: u64, id: u64) -> MemOp {
        MemOp::new(ReqId::new(id), Address::new(addr), MemOpKind::Load)
    }

    fn store(addr: u64, id: u64) -> MemOp {
        MemOp::new(ReqId::new(id), Address::new(addr), MemOpKind::Store)
    }

    fn deliver(out: &Outbox, to: &mut DirectoryController, now: Cycle) -> Outbox {
        let mut next = Outbox::new();
        for msg in &out.messages {
            if msg.dest.includes(to.node(), msg.src) {
                to.handle_message(now, msg, &mut next);
            }
        }
        next
    }

    #[test]
    fn steady_state_miss_traffic_recycles_pending_op_storage() {
        let mut home = controller(0);
        let mut requester = controller(1);

        // Warm-up: a read miss with a store merged into it exercises both
        // the merge path and the deferred-upgrade re-issue path, so the pool
        // reaches its deepest population immediately.
        let mut out = Outbox::new();
        requester.access(0, &load(0, 1), &mut out);
        requester.access(1, &store(0, 2), &mut out);
        let home_out = deliver(&out, &mut home, 10);
        let done = deliver(&home_out, &mut requester, 100);
        let home_out = deliver(&done, &mut home, 110);
        let done = deliver(&home_out, &mut requester, 200);
        deliver(&done, &mut home, 210);
        assert_eq!(requester.outstanding_misses(), 0);
        let (fresh_after_warmup, _) = requester.core.pending_ops.counters();
        assert!(fresh_after_warmup >= 2);

        // Steady state: churn many more misses (distinct home-0 blocks so
        // each access is a genuine miss) than the warm-up population.
        for round in 1..200u64 {
            let addr = round * 4 * 64;
            let at = 1_000 * round;
            let mut out = Outbox::new();
            requester.access(at, &load(addr, 2 * round + 1), &mut out);
            let home_out = deliver(&out, &mut home, at + 10);
            let done = deliver(&home_out, &mut requester, at + 100);
            deliver(&done, &mut home, at + 110);
            assert_eq!(requester.outstanding_misses(), 0);
        }

        let (fresh, recycled) = requester.core.pending_ops.counters();
        assert_eq!(
            fresh, fresh_after_warmup,
            "steady-state misses must recycle pending-op storage, not grow it"
        );
        // 199 steady-state singletons plus the warm-up's deferred-upgrade
        // list, which was already served from the free list.
        assert_eq!(recycled, 200);
        assert_eq!(requester.core.pending_ops.live(), 0);
    }

    #[test]
    fn read_miss_goes_to_home_and_memory_responds() {
        let mut home = controller(0);
        let mut requester = controller(1);
        let mut out = Outbox::new();
        assert_eq!(
            requester.access(0, &load(0, 1), &mut out),
            AccessOutcome::Miss
        );
        assert_eq!(out.messages.len(), 1);
        assert_eq!(out.messages[0].kind, MsgKind::GetS);
        assert_eq!(out.messages[0].dest, Destination::Node(NodeId::new(0)));

        let home_out = deliver(&out, &mut home, 30);
        assert!(matches!(
            home_out.messages[0].kind,
            MsgKind::Data {
                exclusive: false,
                from_memory: true,
                ..
            }
        ));

        let done = deliver(&home_out, &mut requester, 200);
        assert_eq!(done.completions.len(), 1);
        assert_eq!(done.completions[0].kind, MissKind::Read);
        // The requester unblocks the home.
        assert!(done.messages.iter().any(|m| m.kind == MsgKind::Unblock));
    }

    #[test]
    fn write_miss_on_shared_block_invalidates_sharers() {
        let mut home = controller(0);
        let mut reader = controller(1);
        let mut writer = controller(2);

        // Reader gets a shared copy first.
        let mut out = Outbox::new();
        reader.access(0, &load(0, 1), &mut out);
        let home_out = deliver(&out, &mut home, 10);
        let reader_done = deliver(&home_out, &mut reader, 100);
        deliver(&reader_done, &mut home, 110);

        // Writer requests M.
        let mut out = Outbox::new();
        writer.access(200, &store(0, 2), &mut out);
        let home_out = deliver(&out, &mut home, 210);
        // Home sends data (with one ack expected) and an invalidation.
        let data = home_out
            .messages
            .iter()
            .find(|m| matches!(m.kind, MsgKind::Data { .. }))
            .expect("data response");
        assert!(matches!(
            data.kind,
            MsgKind::Data {
                acks_expected: 1,
                exclusive: true,
                ..
            }
        ));
        let inv = home_out
            .messages
            .iter()
            .find(|m| matches!(m.kind, MsgKind::Inv { .. }))
            .expect("invalidation");
        assert_eq!(inv.dest, Destination::Node(NodeId::new(1)));

        // Data alone is not enough; the ack must arrive too.
        let partial = deliver(&home_out, &mut writer, 300);
        assert!(partial.completions.is_empty());
        let reader_out = deliver(&home_out, &mut reader, 310);
        let ack = reader_out
            .messages
            .iter()
            .find(|m| m.kind == MsgKind::InvAck)
            .expect("invalidation ack");
        assert_eq!(ack.dest, Destination::Node(NodeId::new(2)));
        assert_eq!(reader.audit_block(BlockAddr::new(0)).len(), 0);

        let done = deliver(&reader_out, &mut writer, 400);
        assert_eq!(done.completions.len(), 1);
        assert_eq!(done.completions[0].kind, MissKind::Write);
    }

    #[test]
    fn cache_to_cache_miss_is_forwarded_through_home() {
        let mut home = controller(0);
        let mut owner = controller(1);
        let mut reader = controller(2);

        // Owner takes the block to M and dirties it.
        let mut out = Outbox::new();
        owner.access(0, &store(0, 1), &mut out);
        let home_out = deliver(&out, &mut home, 10);
        let owner_done = deliver(&home_out, &mut owner, 100);
        deliver(&owner_done, &mut home, 110);

        // Reader misses; home forwards to the owner.
        let mut out = Outbox::new();
        reader.access(200, &load(0, 2), &mut out);
        let home_out = deliver(&out, &mut home, 210);
        let fwd = home_out
            .messages
            .iter()
            .find(|m| matches!(m.kind, MsgKind::FwdGetS { .. }))
            .expect("forward to owner");
        assert_eq!(fwd.dest, Destination::Node(NodeId::new(1)));

        // Owner responds straight to the reader (migratory: exclusive).
        let owner_out = deliver(&home_out, &mut owner, 300);
        let data = &owner_out.messages[0];
        assert!(matches!(
            data.kind,
            MsgKind::Data {
                from_memory: false,
                exclusive: true,
                ..
            }
        ));
        assert_eq!(data.dest, Destination::Node(NodeId::new(2)));

        let done = deliver(&owner_out, &mut reader, 400);
        assert_eq!(done.completions.len(), 1);
        assert!(done.completions[0].cache_to_cache);
        // The reader announces exclusive ownership to the home.
        assert!(done
            .messages
            .iter()
            .any(|m| m.kind == MsgKind::ExclusiveUnblock));
    }

    #[test]
    fn requests_queue_while_the_directory_is_busy() {
        let mut home = controller(0);
        let mut a = controller(1);
        let mut b = controller(2);

        // A starts a write miss; home forwards nothing (memory owner) but
        // becomes busy until the unblock.
        let mut out_a = Outbox::new();
        a.access(0, &store(0, 1), &mut out_a);
        let home_out_a = deliver(&out_a, &mut home, 10);

        // B's write miss arrives while the directory is still busy.
        let mut out_b = Outbox::new();
        b.access(20, &store(0, 2), &mut out_b);
        let home_out_b = deliver(&out_b, &mut home, 30);
        assert!(
            home_out_b.messages.is_empty(),
            "the busy directory must queue, not respond"
        );

        // A completes and unblocks; the home then serves B by forwarding to A.
        let a_done = deliver(&home_out_a, &mut a, 100);
        let home_after_unblock = deliver(&a_done, &mut home, 150);
        assert!(home_after_unblock
            .messages
            .iter()
            .any(|m| matches!(m.kind, MsgKind::FwdGetM { .. })));
    }

    #[test]
    fn writeback_returns_ownership_to_memory() {
        let mut home = controller(0);
        let mut owner = controller(1);
        let mut out = Outbox::new();
        owner.access(0, &store(0, 1), &mut out);
        let home_out = deliver(&out, &mut home, 10);
        let owner_done = deliver(&home_out, &mut owner, 100);
        deliver(&owner_done, &mut home, 110);

        // Evict by inserting a conflicting line directly.
        let mut out = Outbox::new();
        let line = *owner.core.l2.peek(BlockAddr::new(0)).unwrap();
        owner.core.l2.remove(BlockAddr::new(0));
        owner.core.evict(200, BlockAddr::new(0), line, &mut out);
        let putm = out
            .messages
            .iter()
            .find(|m| m.kind == MsgKind::PutM)
            .expect("writeback sent");
        assert_eq!(putm.dest, Destination::Node(NodeId::new(0)));

        let home_out = deliver(&out, &mut home, 300);
        assert!(home_out.messages.iter().any(|m| m.kind == MsgKind::WbAck));
        // Memory is the owner again: a later read is served from memory.
        let mut reader = controller(2);
        let mut rout = Outbox::new();
        reader.access(400, &load(0, 5), &mut rout);
        let resp = deliver(&rout, &mut home, 410);
        assert!(matches!(
            resp.messages[0].kind,
            MsgKind::Data {
                from_memory: true,
                ..
            }
        ));
    }

    #[test]
    fn upgrade_miss_counts_as_upgrade() {
        let mut home = controller(0);
        let mut c = controller(1);
        // Obtain a shared copy.
        let mut out = Outbox::new();
        c.access(0, &load(0, 1), &mut out);
        let home_out = deliver(&out, &mut home, 10);
        let done = deliver(&home_out, &mut c, 100);
        deliver(&done, &mut home, 110);
        // Now store to it.
        let mut out = Outbox::new();
        assert_eq!(c.access(200, &store(0, 2), &mut out), AccessOutcome::Miss);
        let home_out = deliver(&out, &mut home, 210);
        let done = deliver(&home_out, &mut c, 300);
        assert_eq!(done.completions[0].kind, MissKind::Upgrade);
        assert_eq!(c.stats().misses.upgrade_misses, 1);
    }

    #[test]
    fn hits_do_not_generate_traffic() {
        let mut home = controller(0);
        let mut c = controller(1);
        let mut out = Outbox::new();
        c.access(0, &store(0, 1), &mut out);
        let home_out = deliver(&out, &mut home, 10);
        deliver(&home_out, &mut c, 100);
        let mut out = Outbox::new();
        assert!(matches!(
            c.access(200, &load(0, 2), &mut out),
            AccessOutcome::Hit { .. }
        ));
        assert!(matches!(
            c.access(210, &store(0, 3), &mut out),
            AccessOutcome::Hit { .. }
        ));
        assert!(out.messages.is_empty());
    }
}
