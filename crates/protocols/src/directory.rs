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

use tc_memsys::{HomeMemory, L1Filter, MshrTable, OpList, OpSlab, SetAssocCache};
use tc_sim::{SnapReader, SnapWriter, SnapshotError};
use tc_types::{
    AccessOutcome, BlockAddr, BlockAudit, CoherenceController, ControllerStats, Cycle, DataPayload,
    Destination, DirectoryMode, HomeMap, LineStateStats, MemOp, Message, MissCompletion, MsgKind,
    NodeId, Outbox, ReqId, SystemConfig, Timer, Vnet,
};

use crate::common::{
    apply_pending_ops, emit_mosi_line, emit_pending_op, miss_kind, mosi_hit_path, read_mosi_line,
    read_pending_op, record_completed_miss, version_node_bits, MosiLine, MosiState, PendingOp,
    WritebackPlane,
};

/// Requester-side bookkeeping for an outstanding directory miss. The
/// pending-op list lives in the controller's [`OpSlab`] pool.
#[derive(Debug)]
struct DirMshr {
    pending: OpList,
    write: bool,
    upgrade: bool,
    issued_at: Cycle,
    data_received: bool,
    exclusive: bool,
    acks_expected: Option<u32>,
    acks_received: u32,
    version: u64,
    dirty: bool,
    from_cache: bool,
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
    node: NodeId,
    home_map: HomeMap,
    l1: L1Filter,
    l2: SetAssocCache<MosiLine>,
    l2_latency: Cycle,
    controller_latency: Cycle,
    dram_latency: Cycle,
    directory_latency: Cycle,
    memory: HomeMemory<DirEntry>,
    mshrs: MshrTable<DirMshr>,
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

impl DirectoryController {
    /// Creates the directory controller for `node` under `config`.
    pub fn new(node: NodeId, config: &SystemConfig) -> Self {
        let home_map = HomeMap::new(config.num_nodes, config.block_bytes);
        let directory_latency = match config.directory_mode {
            DirectoryMode::InDram => config.dram_latency_ns,
            DirectoryMode::Perfect => 0,
        };
        DirectoryController {
            node,
            home_map,
            l1: L1Filter::new(&config.l1, config.block_bytes),
            l2: SetAssocCache::new(&config.l2, config.block_bytes),
            l2_latency: config.l2.latency_ns,
            controller_latency: config.controller_latency_ns,
            dram_latency: config.dram_latency_ns,
            directory_latency,
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

    fn is_home(&self, addr: BlockAddr) -> bool {
        self.home_map.is_home(self.node, addr)
    }

    fn home_of(&self, addr: BlockAddr) -> NodeId {
        self.home_map.home_of(addr)
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
        debug_assert!(self.is_home(addr));
        self.stats.bump("directory_lookups", 1);
        let entry = self.memory.state_mut(addr);
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
        let dir_delay = self.controller_latency + self.directory_latency;
        let mem_delay = self.controller_latency + self.directory_latency + self.dram_latency;
        let mem_version = self.memory.data_version(addr);
        let entry = self.memory.state_mut(addr);
        let owner = entry.owner;
        let sharers = entry.sharers.clone();

        if write {
            entry.busy = true;
            let other_sharers: Vec<NodeId> = sharers
                .iter()
                .copied()
                .filter(|s| *s != requester && Some(*s) != owner)
                .collect();
            let acks = other_sharers.len() as u32;
            entry.sharers.clear();
            match owner {
                Some(current_owner) if current_owner != requester => {
                    // Forward to the owning cache; it supplies exclusive data
                    // directly to the requester.
                    entry.owner = Some(requester);
                    let fwd = self.unicast(
                        now + dir_delay,
                        current_owner,
                        addr,
                        MsgKind::FwdGetM {
                            requester,
                            acks_expected: acks,
                        },
                        Vnet::Forwarded,
                    );
                    self.send(out, fwd);
                    self.stats.bump("directory_forwards", 1);
                }
                _ => {
                    // Memory owns the block (or the requester is upgrading a
                    // block it already owns): memory supplies the data.
                    entry.owner = Some(requester);
                    let data = self.unicast(
                        now + mem_delay,
                        requester,
                        addr,
                        MsgKind::Data {
                            acks_expected: acks,
                            exclusive: true,
                            from_memory: true,
                            payload: DataPayload::new(mem_version),
                        },
                        Vnet::Response,
                    );
                    self.send(out, data);
                }
            }
            for sharer in other_sharers {
                let inv = self.unicast(
                    now + dir_delay,
                    sharer,
                    addr,
                    MsgKind::Inv { requester },
                    Vnet::Forwarded,
                );
                self.send(out, inv);
                self.stats.bump("invalidations_sent", 1);
            }
        } else {
            match owner {
                Some(current_owner) if current_owner != requester => {
                    let entry = self.memory.state_mut(addr);
                    entry.busy = true;
                    entry.sharers.insert(requester);
                    let fwd = self.unicast(
                        now + dir_delay,
                        current_owner,
                        addr,
                        MsgKind::FwdGetS { requester },
                        Vnet::Forwarded,
                    );
                    self.send(out, fwd);
                    self.stats.bump("directory_forwards", 1);
                }
                _ => {
                    // Memory owns the block: respond directly. The entry
                    // still blocks until the requester's unblock so that a
                    // racing GetM cannot invalidate the requester before its
                    // data arrives.
                    let entry = self.memory.state_mut(addr);
                    entry.busy = true;
                    entry.sharers.insert(requester);
                    let data = self.unicast(
                        now + mem_delay,
                        requester,
                        addr,
                        MsgKind::Data {
                            acks_expected: 0,
                            exclusive: false,
                            from_memory: true,
                            payload: DataPayload::new(mem_version),
                        },
                        Vnet::Response,
                    );
                    self.send(out, data);
                }
            }
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
        {
            let entry = self.memory.state_mut(addr);
            if exclusive {
                entry.owner = Some(from);
                entry.sharers.clear();
            } else {
                entry.sharers.insert(from);
            }
            entry.busy = false;
        }
        // Serve the next queued request, if any.
        let next = {
            let entry = self.memory.state_mut(addr);
            entry.queue.pop_front()
        };
        if let Some((requester, write)) = next {
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
        self.memory.write_data(addr, version);
        {
            let entry = self.memory.state_mut(addr);
            if entry.owner == Some(from) && !entry.busy {
                entry.owner = None;
            }
            entry.sharers.remove(&from);
        }
        let ack = self.unicast(
            now + self.controller_latency + self.directory_latency,
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

    fn install_line(&mut self, now: Cycle, addr: BlockAddr, line: MosiLine, out: &mut Outbox) {
        if let Some(victim) = self.l2.insert(addr, line) {
            self.evict(now, victim.addr, victim.state, out);
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
        // Shared lines are dropped silently; the directory's sharer list may
        // over-approximate, which only costs an occasional spurious
        // invalidation (answered with an ack as usual).
    }

    fn handle_forward(
        &mut self,
        now: Cycle,
        requester: NodeId,
        addr: BlockAddr,
        write: bool,
        acks_expected: u32,
        out: &mut Outbox,
    ) {
        let Some(line) = self.line_or_wb(addr) else {
            self.stats.bump("forwards_without_copy", 1);
            return;
        };
        let at = now + self.controller_latency + self.l2_latency;
        if write {
            let data = self.unicast(
                at,
                requester,
                addr,
                MsgKind::Data {
                    acks_expected,
                    exclusive: true,
                    from_memory: false,
                    payload: DataPayload::new(line.version),
                },
                Vnet::Response,
            );
            self.send(out, data);
            self.l2.remove(addr);
            self.l1.invalidate(addr);
        } else {
            let migratory =
                self.migratory_optimization && line.state == MosiState::Modified && line.dirty;
            if migratory {
                let data = self.unicast(
                    at,
                    requester,
                    addr,
                    MsgKind::Data {
                        acks_expected: 0,
                        exclusive: true,
                        from_memory: false,
                        payload: DataPayload::new(line.version),
                    },
                    Vnet::Response,
                );
                self.send(out, data);
                self.l2.remove(addr);
                self.l1.invalidate(addr);
            } else {
                let data = self.unicast(
                    at,
                    requester,
                    addr,
                    MsgKind::Data {
                        acks_expected: 0,
                        exclusive: false,
                        from_memory: false,
                        payload: DataPayload::new(line.version),
                    },
                    Vnet::Response,
                );
                self.send(out, data);
                if let Some(l) = self.l2.get(addr) {
                    l.state = MosiState::Owned;
                }
            }
        }
    }

    fn handle_inv(&mut self, now: Cycle, requester: NodeId, addr: BlockAddr, out: &mut Outbox) {
        if let Some(line) = self.l2.peek(addr).copied() {
            if !line.state.is_owner() {
                self.l2.remove(addr);
            }
        }
        self.l1.invalidate(addr);
        let ack = self.unicast(
            now + self.controller_latency,
            requester,
            addr,
            MsgKind::InvAck,
            Vnet::Response,
        );
        self.send(out, ack);
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
        let Some(mshr) = self.mshrs.get_mut(addr) else {
            return;
        };
        mshr.data_received = true;
        mshr.exclusive |= exclusive;
        mshr.version = payload.version;
        mshr.dirty = !from_memory;
        mshr.from_cache |= !from_memory;
        let expected = mshr.acks_expected.unwrap_or(0).max(acks_expected);
        mshr.acks_expected = Some(expected);
        self.try_complete(now, addr, out);
    }

    fn handle_inv_ack(&mut self, now: Cycle, addr: BlockAddr, out: &mut Outbox) {
        if let Some(mshr) = self.mshrs.get_mut(addr) {
            mshr.acks_received += 1;
        }
        self.try_complete(now, addr, out);
    }

    fn try_complete(&mut self, now: Cycle, addr: BlockAddr, out: &mut Outbox) {
        let Some(mshr) = self.mshrs.get(addr) else {
            return;
        };
        if !mshr.data_received {
            return;
        }
        if mshr.write {
            let expected = mshr.acks_expected.unwrap_or(0);
            if mshr.acks_received < expected {
                return;
            }
        }
        let mut mshr = self.mshrs.release(addr).expect("checked above");

        // Install the line.
        let granted_exclusive = mshr.write || mshr.exclusive;
        let state = if granted_exclusive {
            MosiState::Modified
        } else {
            MosiState::Shared
        };
        let mut line = MosiLine {
            state,
            dirty: mshr.dirty && state.is_owner(),
            version: mshr.version,
            valid_since: mshr.issued_at,
        };
        // Stores merged into a read miss cannot be performed with only a
        // shared copy; they are re-issued below as an upgrade transaction.
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
        self.install_line(now, addr, line, out);

        let kind = miss_kind(mshr.write, mshr.upgrade);
        for (req_id, version) in self.completion_scratch.drain(..) {
            out.complete(MissCompletion {
                req_id,
                addr,
                kind,
                issued_at: mshr.issued_at,
                completed_at: now,
                data_version: version,
                cache_to_cache: mshr.from_cache,
            });
        }

        let latency = now.saturating_sub(mshr.issued_at);
        record_completed_miss(&mut self.stats, kind, latency, mshr.from_cache);

        // Tell the home the transaction is over so it can unblock.
        let home = self.home_of(addr);
        let unblock_kind = if granted_exclusive {
            MsgKind::ExclusiveUnblock
        } else {
            MsgKind::Unblock
        };
        let unblock = self.unicast(
            now + self.controller_latency,
            home,
            addr,
            unblock_kind,
            Vnet::Response,
        );
        self.send(out, unblock);

        // Re-issue any stores that merged into this read miss as a fresh
        // upgrade transaction.
        if !self.deferred_scratch.is_empty() {
            self.stats.bump("merged_store_upgrades", 1);
            let mut deferred = OpList::new();
            for i in 0..self.deferred_scratch.len() {
                let op = self.deferred_scratch[i];
                self.pending_ops.push(&mut deferred, op);
            }
            self.deferred_scratch.clear();
            let upgrade = DirMshr {
                pending: deferred,
                write: true,
                upgrade: true,
                issued_at: now,
                data_received: false,
                exclusive: false,
                acks_expected: None,
                acks_received: 0,
                version: 0,
                dirty: false,
                from_cache: false,
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
}

impl CoherenceController for DirectoryController {
    fn node(&self) -> NodeId {
        self.node
    }

    fn protocol_name(&self) -> &'static str {
        "Directory"
    }

    fn access(&mut self, now: Cycle, op: &MemOp, out: &mut Outbox) -> AccessOutcome {
        let addr = op.addr.block(self.home_map.block_bytes());
        let write = op.kind.is_write();
        // Directory hits are acknowledgement-protected, so read hits are
        // wall-clock fresh (`valid_since = now`).
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
            // Merge into the outstanding miss. A store merged into a read
            // miss is satisfied later: if the read returns without write
            // permission, the store is re-issued as an upgrade transaction
            // when the read completes (see `try_complete`).
            self.pending_ops.push(
                &mut mshr.pending,
                PendingOp {
                    req_id: op.id,
                    write,
                },
            );
            return AccessOutcome::Miss;
        }

        let mshr = DirMshr {
            pending: self.pending_ops.singleton(PendingOp {
                req_id: op.id,
                write,
            }),
            write,
            upgrade: write && had_copy,
            issued_at: now,
            data_received: false,
            exclusive: false,
            acks_expected: None,
            acks_received: 0,
            version: 0,
            dirty: false,
            from_cache: false,
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
                self.wb.take(addr);
            }
            other => {
                debug_assert!(false, "Directory received unexpected message {other:?}");
            }
        }
    }

    fn handle_timer(&mut self, _now: Cycle, _timer: Timer, _out: &mut Outbox) {
        // The directory protocol arms no timers.
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
        self.memory.save_state(w, emit_dir_entry);
        self.mshrs
            .save_state(w, |w, mshr| emit_dir_mshr(w, mshr, &self.pending_ops));
        self.wb.save_state(w);
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        self.store_counter = r.u64()?;
        self.stats = ControllerStats::load_state(r)?;
        self.l1.load_state(r)?;
        self.l2.load_state(r, read_mosi_line)?;
        self.memory.load_state(r, read_dir_entry)?;
        // Rebuild the pending-op pool from scratch; handles saved inside the
        // reloaded MSHR entries are re-minted as they are read.
        self.pending_ops.reset();
        let slab = &mut self.pending_ops;
        self.mshrs.load_state(r, |r| read_dir_mshr(r, slab))?;
        self.wb.load_state(r)?;
        Ok(())
    }
}

fn emit_dir_entry(w: &mut SnapWriter, entry: &DirEntry) {
    w.option(entry.owner, |w, owner| w.u32(owner.index() as u32));
    w.seq(entry.sharers.iter(), |w, s| w.u32(s.index() as u32));
    w.bool(entry.busy);
    w.seq(entry.queue.iter(), |w, &(node, write)| {
        w.u32(node.index() as u32);
        w.bool(write);
    });
}

fn read_dir_entry(r: &mut SnapReader<'_>) -> Result<DirEntry, SnapshotError> {
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

fn emit_dir_mshr(w: &mut SnapWriter, mshr: &DirMshr, slab: &OpSlab<PendingOp>) {
    w.seq(slab.iter(&mshr.pending), emit_pending_op);
    w.bool(mshr.write);
    w.bool(mshr.upgrade);
    w.u64(mshr.issued_at);
    w.bool(mshr.data_received);
    w.bool(mshr.exclusive);
    w.option(mshr.acks_expected, |w, acks| w.u32(acks));
    w.u32(mshr.acks_received);
    w.u64(mshr.version);
    w.bool(mshr.dirty);
    w.bool(mshr.from_cache);
}

fn read_dir_mshr(
    r: &mut SnapReader<'_>,
    slab: &mut OpSlab<PendingOp>,
) -> Result<DirMshr, SnapshotError> {
    let pending_len = r.bounded_len(9)?;
    let mut pending = OpList::new();
    for _ in 0..pending_len {
        slab.push(&mut pending, read_pending_op(r)?);
    }
    Ok(DirMshr {
        pending,
        write: r.bool()?,
        upgrade: r.bool()?,
        issued_at: r.u64()?,
        data_received: r.bool()?,
        exclusive: r.bool()?,
        acks_expected: r.option(|r| r.u32())?,
        acks_received: r.u32()?,
        version: r.u64()?,
        dirty: r.bool()?,
        from_cache: r.bool()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_types::{Address, MemOpKind, MissKind};

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
        let (fresh_after_warmup, _) = requester.pending_ops.counters();
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

        let (fresh, recycled) = requester.pending_ops.counters();
        assert_eq!(
            fresh, fresh_after_warmup,
            "steady-state misses must recycle pending-op storage, not grow it"
        );
        // 199 steady-state singletons plus the warm-up's deferred-upgrade
        // list, which was already served from the free list.
        assert_eq!(recycled, 200);
        assert_eq!(requester.pending_ops.live(), 0);
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
        let line = *owner.l2.peek(BlockAddr::new(0)).unwrap();
        owner.l2.remove(BlockAddr::new(0));
        owner.evict(200, BlockAddr::new(0), line, &mut out);
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
