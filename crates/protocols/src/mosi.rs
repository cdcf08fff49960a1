//! The MOSI cache side shared by the Snooping, Directory and Hammer
//! baselines.
//!
//! The three baselines differ only in how a request is ordered and routed:
//! an ordered broadcast, home indirection, or a probe broadcast from the
//! home. Everything else is one machine, [`MosiNode`]: the L1/L2 line
//! states, the MSHRs and their merged pending operations, the writeback
//! buffer, eviction, the hit path, and the completion of a miss (install,
//! perform the merged operations, report, re-issue merged stores as an
//! upgrade). Each protocol file keeps its home-side state machine, its
//! request/probe/forward handlers, and the rule for when a miss is complete.

use tc_memsys::{hinted_get, HomeMemory, L1Filter, MshrTable, OpList, OpSlab, SetAssocCache};
use tc_sim::{SnapReader, SnapWriter, SnapshotError};
use tc_types::{
    AccessOutcome, BlockAddr, BlockAudit, ControllerStats, Cycle, Destination, HomeMap,
    LineStateStats, MemOp, Message, MissCompletion, MissKind, MsgKind, NodeId, Outbox, ReqId,
    SystemConfig, Vnet,
};

use crate::common::{
    emit_mosi_line, read_mosi_line, version_node_bits, MosiLine, MosiState, PendingOp,
    WritebackPlane,
};

/// Snapshot codec of a protocol's own per-block state: its MSHR extension
/// and its home-memory entry.
pub(crate) trait SnapState: Sized {
    /// Appends this value to a snapshot.
    fn save(&self, w: &mut SnapWriter);
    /// Reads a value written by [`SnapState::save`].
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError>;
}

/// Requester-side bookkeeping for one outstanding miss: the fields every
/// MOSI baseline shares plus the protocol's extension `ext`. The pending-op
/// list lives in the node's [`OpSlab`].
#[derive(Debug, Default)]
pub(crate) struct Mshr<E> {
    pub(crate) pending: OpList,
    pub(crate) write: bool,
    pub(crate) upgrade: bool,
    pub(crate) issued_at: Cycle,
    pub(crate) data_received: bool,
    pub(crate) exclusive: bool,
    pub(crate) version: u64,
    pub(crate) dirty: bool,
    pub(crate) from_cache: bool,
    pub(crate) ext: E,
}

impl<E: SnapState> Mshr<E> {
    /// Whether the completing miss leaves the line Modified (a write, or a
    /// read answered with an exclusive copy by the migratory hand-off).
    pub(crate) fn granted_exclusive(&self) -> bool {
        self.write || self.exclusive
    }

    /// The id the miss was issued under: its first pending op's.
    pub(crate) fn request_id(&self, slab: &OpSlab<PendingOp>) -> ReqId {
        slab.iter(&self.pending)
            .next()
            .expect("an outstanding miss has a pending op")
            .req_id
    }

    fn save(&self, w: &mut SnapWriter, slab: &OpSlab<PendingOp>) {
        w.seq(slab.iter(&self.pending), |w, op| {
            w.u64(op.req_id.value());
            w.bool(op.write);
        });
        w.bool(self.write);
        w.bool(self.upgrade);
        w.u64(self.issued_at);
        w.bool(self.data_received);
        w.bool(self.exclusive);
        w.u64(self.version);
        w.bool(self.dirty);
        w.bool(self.from_cache);
        self.ext.save(w);
    }

    fn load(r: &mut SnapReader<'_>, slab: &mut OpSlab<PendingOp>) -> Result<Self, SnapshotError> {
        let pending_len = r.bounded_len(9)?;
        let mut pending = OpList::new();
        for _ in 0..pending_len {
            let op = PendingOp {
                req_id: ReqId::new(r.u64()?),
                write: r.bool()?,
            };
            slab.push(&mut pending, op);
        }
        Ok(Mshr {
            pending,
            write: r.bool()?,
            upgrade: r.bool()?,
            issued_at: r.u64()?,
            data_received: r.bool()?,
            exclusive: r.bool()?,
            version: r.u64()?,
            dirty: r.bool()?,
            from_cache: r.bool()?,
            ext: E::load(r)?,
        })
    }
}

/// The cache side of one MOSI baseline node, plus the home memory of the
/// blocks it homes. `E` is the protocol's MSHR extension, `H` its
/// home-memory entry.
#[derive(Debug)]
pub(crate) struct MosiNode<E, H> {
    pub(crate) node: NodeId,
    pub(crate) home_map: HomeMap,
    pub(crate) l1: L1Filter,
    pub(crate) l2: SetAssocCache<MosiLine>,
    pub(crate) l2_latency: Cycle,
    pub(crate) controller_latency: Cycle,
    pub(crate) dram_latency: Cycle,
    pub(crate) memory: HomeMemory<H>,
    pub(crate) mshrs: MshrTable<Mshr<E>>,
    /// In-flight writebacks plus (at Snooping's home nodes) the ordered-PutM
    /// handshake windows.
    pub(crate) wb: WritebackPlane,
    pub(crate) migratory_optimization: bool,
    pub(crate) stats: ControllerStats,
    /// Snooping's all-nodes destination (Arc-backed, so a clone per send is
    /// a refcount bump). When set, requests and writebacks are broadcast on
    /// the ordered tree, requests carry their id, and read hits report the
    /// copy's `valid_since`: an unacknowledged ordered broadcast is coherent
    /// but not wall-clock fresh (see [`MosiLine::valid_since`]). When unset,
    /// both go to the block's home and read hits are fresh at `now`.
    broadcast: Option<Destination>,
    store_counter: u64,
    /// Pooled storage for every MSHR entry's pending-op list.
    pub(crate) pending_ops: OpSlab<PendingOp>,
    /// Reusable completion/deferral scratch, so completing a miss allocates
    /// nothing in the steady state.
    completion_scratch: Vec<(ReqId, u64)>,
    deferred_scratch: Vec<PendingOp>,
}

impl<E, H> MosiNode<E, H>
where
    E: SnapState + Default,
    H: SnapState + Default + Clone,
{
    /// The node's cache side under `config`; `ordered_broadcast` selects
    /// Snooping's routing (see the `broadcast` field).
    pub(crate) fn new(node: NodeId, config: &SystemConfig, ordered_broadcast: bool) -> Self {
        let home_map = HomeMap::new(config.num_nodes, config.block_bytes);
        MosiNode {
            node,
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
            broadcast: ordered_broadcast
                .then(|| Destination::Multicast((0..config.num_nodes).map(NodeId::new).collect())),
            store_counter: 0,
            pending_ops: OpSlab::new(),
            completion_scratch: Vec::new(),
            deferred_scratch: Vec::new(),
        }
    }

    pub(crate) fn home_of(&self, addr: BlockAddr) -> NodeId {
        self.home_map.home_of(addr)
    }

    pub(crate) fn is_home(&self, addr: BlockAddr) -> bool {
        self.home_map.is_home(self.node, addr)
    }

    pub(crate) fn send(&mut self, out: &mut Outbox, msg: Message) {
        self.stats.messages_sent += 1;
        out.send(msg);
    }

    pub(crate) fn unicast(
        &self,
        at: Cycle,
        dest: NodeId,
        addr: BlockAddr,
        kind: MsgKind,
        vnet: Vnet,
    ) -> Message {
        Message::new(self.node, Destination::Node(dest), addr, kind, vnet, at)
    }

    /// Sends a [`MosiNode::unicast`] message.
    pub(crate) fn send_to(
        &mut self,
        at: Cycle,
        dest: NodeId,
        addr: BlockAddr,
        kind: MsgKind,
        vnet: Vnet,
        out: &mut Outbox,
    ) {
        let msg = self.unicast(at, dest, addr, kind, vnet);
        self.send(out, msg);
    }

    /// Where requests and writebacks for `addr` go.
    fn request_dest(&self, addr: BlockAddr) -> Destination {
        match &self.broadcast {
            Some(everyone) => everyone.clone(),
            None => Destination::Node(self.home_of(addr)),
        }
    }

    /// The live line for `addr`, or its copy parked in the writeback buffer.
    pub(crate) fn line_or_wb(&self, addr: BlockAddr) -> Option<MosiLine> {
        self.l2.peek(addr).copied().or_else(|| self.wb.line(addr))
    }

    /// Installs `line` in the L2, evicting the victim it displaces.
    pub(crate) fn install(
        &mut self,
        now: Cycle,
        addr: BlockAddr,
        line: MosiLine,
        out: &mut Outbox,
    ) {
        if let Some(victim) = self.l2.insert(addr, line) {
            self.evict(now, victim.addr, victim.state, out);
        }
    }

    /// Drops an evicted line. An owner parks the line in the writeback
    /// buffer and sends a PutM carrying its version; shared lines go
    /// silently (a directory's sharer list may then over-approximate, which
    /// only costs a spurious invalidation, acknowledged as usual).
    pub(crate) fn evict(&mut self, now: Cycle, addr: BlockAddr, line: MosiLine, out: &mut Outbox) {
        self.l1.invalidate(addr);
        if line.state.is_owner() {
            self.stats.misses.writebacks += 1;
            self.wb.stash(addr, line);
            let putm = Message::new(
                self.node,
                self.request_dest(addr),
                addr,
                MsgKind::PutM,
                Vnet::Writeback,
                now + self.controller_latency,
            )
            .with_req_id(ReqId::new(line.version));
            self.send(out, putm);
        }
    }

    /// Sends the request of a new miss. On the ordered tree it goes to every
    /// node *including this one* — the self-delivery tells the requester
    /// where its request falls in the total order — tagged with `req_id`,
    /// which every data response echoes.
    fn issue(&mut self, now: Cycle, addr: BlockAddr, write: bool, req_id: ReqId, out: &mut Outbox) {
        let kind = if write { MsgKind::GetM } else { MsgKind::GetS };
        let mut msg = Message::new(
            self.node,
            self.request_dest(addr),
            addr,
            kind,
            Vnet::Request,
            now + self.controller_latency,
        );
        msg.req_id = self.broadcast.is_some().then_some(req_id);
        self.send(out, msg);
    }

    /// One processor access: an L1-hinted L2 hit (a write hit bumps the
    /// version in place), or a miss that merges into the block's
    /// outstanding MSHR or allocates one and issues its request.
    pub(crate) fn access(&mut self, now: Cycle, op: &MemOp, out: &mut Outbox) -> AccessOutcome {
        let addr = op.addr.block(self.home_map.block_bytes());
        let write = op.kind.is_write();
        if let Some(hit) = self.hit(now, addr, write) {
            return hit;
        }
        let pending_op = PendingOp {
            req_id: op.id,
            write,
        };
        if let Some(mshr) = self.mshrs.get_mut(addr) {
            // A store merged into a read miss is re-issued as an upgrade if
            // the read completes without write permission.
            self.pending_ops.push(&mut mshr.pending, pending_op);
            return AccessOutcome::Miss;
        }
        let had_copy = self
            .l2
            .peek(addr)
            .map(|l| l.state.readable())
            .unwrap_or(false);
        let mshr = Mshr {
            pending: self.pending_ops.singleton(pending_op),
            write,
            upgrade: write && had_copy,
            issued_at: now,
            ..Mshr::default()
        };
        self.mshrs
            .allocate(addr, mshr)
            .unwrap_or_else(|_| panic!("MSHR overflow at {}", self.node));
        self.issue(now, addr, write, op.id, out);
        AccessOutcome::Miss
    }

    fn hit(&mut self, now: Cycle, addr: BlockAddr, write: bool) -> Option<AccessOutcome> {
        let (l1_hit, line) = hinted_get(&mut self.l1, &mut self.l2, addr);
        let latency = if l1_hit {
            self.l1.latency_ns()
        } else {
            self.l1.latency_ns() + self.l2_latency
        };
        let line = line?;
        let (version, valid_since) = if write && line.state.writable() {
            self.store_counter += 1;
            line.version = version_node_bits(self.node) | self.store_counter;
            line.dirty = true;
            (line.version, now)
        } else if !write && line.state.readable() {
            let valid_since = if self.broadcast.is_some() {
                line.valid_since
            } else {
                now
            };
            (line.version, valid_since)
        } else {
            return None;
        };
        if l1_hit {
            self.stats.misses.l1_hits += 1;
        } else {
            self.stats.misses.l2_hits += 1;
        }
        Some(AccessOutcome::Hit {
            latency,
            version,
            valid_since,
        })
    }

    /// Completes the miss at `addr`, whose protocol's completion rule holds:
    /// releases the MSHR, installs the line (Modified if exclusivity was
    /// granted, else Shared) holding `version`, the data the protocol
    /// settled on, performs the merged operations, emits their completions
    /// and records the miss. Stores merged into a read that was not granted
    /// exclusivity stay deferred for [`MosiNode::reissue_deferred`], which
    /// the protocol calls after its own completion messages. Returns the
    /// released entry.
    pub(crate) fn complete(
        &mut self,
        now: Cycle,
        addr: BlockAddr,
        version: u64,
        out: &mut Outbox,
    ) -> Mshr<E> {
        let mut mshr = self
            .mshrs
            .release(addr)
            .expect("completing an outstanding miss");
        let granted_exclusive = mshr.granted_exclusive();
        let state = if granted_exclusive {
            MosiState::Modified
        } else {
            MosiState::Shared
        };
        let mut line = MosiLine {
            state,
            dirty: mshr.dirty && state.is_owner(),
            version,
            valid_since: mshr.issued_at,
        };
        self.completion_scratch.clear();
        self.deferred_scratch.clear();
        for op in self.pending_ops.iter(&mshr.pending) {
            if op.write && !granted_exclusive {
                self.deferred_scratch.push(*op);
                continue;
            }
            if op.write {
                self.store_counter += 1;
                line.version = version_node_bits(self.node) | self.store_counter;
                line.dirty = true;
            }
            self.completion_scratch.push((op.req_id, line.version));
        }
        self.pending_ops.clear(&mut mshr.pending);
        self.install(now, addr, line, out);

        let kind = miss_kind(mshr.write, mshr.upgrade);
        for (req_id, data_version) in self.completion_scratch.drain(..) {
            out.complete(MissCompletion {
                req_id,
                addr,
                kind,
                issued_at: mshr.issued_at,
                completed_at: now,
                data_version,
                cache_to_cache: mshr.from_cache,
            });
        }
        let misses = &mut self.stats.misses;
        misses.completed_misses += 1;
        misses.total_miss_latency += now.saturating_sub(mshr.issued_at);
        match kind {
            MissKind::Read => misses.read_misses += 1,
            MissKind::Write => misses.write_misses += 1,
            MissKind::Upgrade => misses.upgrade_misses += 1,
        }
        if mshr.from_cache {
            misses.cache_to_cache += 1;
        } else {
            misses.from_memory += 1;
        }
        // The baselines never reissue.
        self.stats.reissue.not_reissued += 1;
        mshr
    }

    /// Re-issues the stores [`MosiNode::complete`] deferred as a fresh
    /// upgrade miss on `addr`, under the first deferred store's id.
    pub(crate) fn reissue_deferred(&mut self, now: Cycle, addr: BlockAddr, out: &mut Outbox) {
        let Some(first) = self.deferred_scratch.first() else {
            return;
        };
        let req_id = first.req_id;
        self.stats.bump("merged_store_upgrades", 1);
        let mut pending = OpList::new();
        for op in self.deferred_scratch.drain(..) {
            self.pending_ops.push(&mut pending, op);
        }
        let upgrade = Mshr {
            pending,
            write: true,
            upgrade: true,
            issued_at: now,
            ..Mshr::default()
        };
        self.mshrs
            .allocate(addr, upgrade)
            .unwrap_or_else(|_| panic!("upgrade MSHR conflict at {}", self.node));
        self.issue(now, addr, true, req_id, out);
    }

    pub(crate) fn audit_block(&self, addr: BlockAddr) -> Vec<BlockAudit> {
        self.l2
            .peek(addr)
            .map(|line| BlockAudit {
                tokens: 0,
                owner_token: line.state.is_owner(),
                readable: line.state.readable(),
                writable: line.state.writable(),
                data_version: line.version,
                in_memory: false,
            })
            .into_iter()
            .collect()
    }

    pub(crate) fn line_state_stats(&self) -> LineStateStats {
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

    pub(crate) fn save_state(&self, w: &mut SnapWriter) {
        w.u64(self.store_counter);
        self.stats.save_state(w);
        self.l1.save_state(w);
        self.l2.save_state(w, emit_mosi_line);
        self.memory.save_state(w, |w, entry| entry.save(w));
        self.mshrs
            .save_state(w, |w, mshr| mshr.save(w, &self.pending_ops));
        self.wb.save_state(w);
    }

    pub(crate) fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        self.store_counter = r.u64()?;
        self.stats = ControllerStats::load_state(r)?;
        self.l1.load_state(r)?;
        self.l2.load_state(r, read_mosi_line)?;
        self.memory.load_state(r, H::load)?;
        // Rebuild the pending-op pool from scratch; handles saved inside the
        // reloaded MSHR entries are re-minted as they are read.
        self.pending_ops.reset();
        let slab = &mut self.pending_ops;
        self.mshrs.load_state(r, |r| Mshr::load(r, slab))?;
        self.wb.load_state(r)?;
        Ok(())
    }
}

/// The miss classification every protocol shares.
fn miss_kind(write: bool, upgrade: bool) -> MissKind {
    match (write, upgrade) {
        (false, _) => MissKind::Read,
        (true, false) => MissKind::Write,
        (true, true) => MissKind::Upgrade,
    }
}

/// The `CoherenceController` methods every MOSI baseline answers from its
/// [`MosiNode`] field `core`; expanded inside each protocol's impl block.
macro_rules! mosi_bookkeeping {
    () => {
        fn node(&self) -> ::tc_types::NodeId {
            self.core.node
        }

        fn handle_timer(
            &mut self,
            _now: ::tc_types::Cycle,
            _timer: ::tc_types::Timer,
            _out: &mut ::tc_types::Outbox,
        ) {
            // The MOSI baselines arm no timers.
        }

        fn stats(&self) -> ::tc_types::ControllerStats {
            self.core.stats.clone()
        }

        fn audit_block(&self, addr: ::tc_types::BlockAddr) -> Vec<::tc_types::BlockAudit> {
            self.core.audit_block(addr)
        }

        fn audited_blocks(&self) -> Vec<::tc_types::BlockAddr> {
            self.core.l2.blocks()
        }

        fn outstanding_misses(&self) -> usize {
            self.core.mshrs.len()
        }

        fn outstanding_blocks(&self) -> Vec<::tc_types::BlockAddr> {
            self.core.mshrs.blocks_sorted()
        }

        fn line_state_stats(&self) -> ::tc_types::LineStateStats {
            self.core.line_state_stats()
        }

        fn save_state(&self, w: &mut ::tc_sim::SnapWriter) {
            self.core.save_state(w)
        }

        fn load_state(
            &mut self,
            r: &mut ::tc_sim::SnapReader<'_>,
        ) -> Result<(), ::tc_sim::SnapshotError> {
            self.core.load_state(r)
        }
    };
}
pub(crate) use mosi_bookkeeping;
