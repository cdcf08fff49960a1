//! Runtime verification of the coherence safety and liveness properties.

use std::collections::VecDeque;

use tc_sim::{SnapReader, SnapWriter, SnapshotError};
use tc_types::{BlockAddr, BlockAudit, Cycle, FastHashMap, InvariantViolation, NodeId};

/// Recent write history for one block: which version was current when.
#[derive(Debug, Clone, Default)]
struct BlockHistory {
    /// (version, time it became current), oldest first; the last entry is the
    /// currently visible version. Bounded to keep memory use constant; a
    /// deque so trimming the oldest entry is O(1) rather than a memmove of
    /// the whole window on every write to a hot block.
    versions: VecDeque<(u64, Cycle)>,
}

impl BlockHistory {
    const MAX_ENTRIES: usize = 128;

    fn ensure_initial(&mut self) {
        if self.versions.is_empty() {
            // Version 0 (the never-written block) is current from time zero.
            self.versions.push_back((0, 0));
        }
    }

    fn record(&mut self, version: u64, at: Cycle) {
        self.ensure_initial();
        self.versions.push_back((version, at));
        while self.versions.len() > Self::MAX_ENTRIES {
            self.versions.pop_front();
        }
    }

    fn current(&self) -> u64 {
        self.versions.back().map(|(v, _)| *v).unwrap_or(0)
    }

    /// Returns `true` if `version` was the current version at some instant in
    /// the window `[issued_at, completed_at]`.
    ///
    /// Scans newest-first: an entry is superseded at the instant its
    /// successor became current, and legal reads overwhelmingly observe
    /// recent versions, so the reverse scan exits after a step or two where
    /// the forward scan walked the whole window.
    fn was_current_during(&self, version: u64, issued_at: Cycle, completed_at: Cycle) -> bool {
        if self.versions.is_empty() {
            return version == 0;
        }
        let mut superseded_at = Cycle::MAX;
        for &(v, became_current) in self.versions.iter().rev() {
            if v == version && superseded_at >= issued_at && became_current <= completed_at {
                return true;
            }
            superseded_at = became_current;
        }
        false
    }
}

/// Checks the properties the correctness substrate is supposed to guarantee.
///
/// * **Value safety** — every load must observe the value produced by the
///   most recent store that completed before it (the observable consequence
///   of "single writer or many readers, never both").
/// * **Token conservation** (Token Coherence only) — at quiescence, every
///   audited block still has exactly `T` tokens and exactly one owner token.
/// * **Single writer** — at quiescence, no block has two writable copies, and
///   a writable copy excludes any other readable copy.
/// * **Starvation freedom** — no request remains outstanding at the end of a
///   run for longer than the starvation bound.
///
/// The verifier is deliberately protocol-agnostic: it sees only completed
/// reads/writes and the [`BlockAudit`] snapshots controllers expose.
#[derive(Debug, Default)]
pub struct Verifier {
    /// Per-block write history. Keyed access only (never iterated), so the
    /// deterministic-but-unordered `FastHashMap` is safe and keeps the
    /// per-completed-operation lookup off the BTree pointer chase.
    history: FastHashMap<BlockAddr, BlockHistory>,
    /// Fairness oracle: persistent-request escalations currently outstanding,
    /// `(node, block) -> cycle the persistent request was first observed`.
    /// Keyed access plus sorted iteration at sweep/save time, so the
    /// unordered map stays deterministic.
    escalations: FastHashMap<(NodeId, BlockAddr), Cycle>,
    violations: Vec<InvariantViolation>,
    reads_checked: u64,
    writes_recorded: u64,
}

impl Verifier {
    /// Creates an empty verifier.
    pub fn new() -> Self {
        Verifier::default()
    }

    /// Records a completed store of `version` to `addr` at time `at`.
    pub fn record_write(&mut self, _node: NodeId, addr: BlockAddr, version: u64, at: Cycle) {
        self.writes_recorded += 1;
        self.history.entry(addr).or_default().record(version, at);
    }

    /// Checks a load of `version` from `addr` that was issued at `issued_at`
    /// and completed at `at`.
    ///
    /// The load is legal if the value it observed was the block's current
    /// value at *some* instant during the load's lifetime — the coherence
    /// (per-location serializability) requirement. A load that returns a
    /// value that was already overwritten before the load was even issued is
    /// stale and gets flagged.
    pub fn check_read(
        &mut self,
        node: NodeId,
        addr: BlockAddr,
        version: u64,
        issued_at: Cycle,
        at: Cycle,
    ) {
        self.reads_checked += 1;
        let entry = self.history.entry(addr).or_default();
        entry.ensure_initial();
        // Observing the globally newest value is never stale (a write that
        // takes effect in the same event batch may carry a slightly later
        // completion timestamp than the read that already sees it).
        if version == entry.current() {
            return;
        }
        if !entry.was_current_during(version, issued_at, at) {
            self.violations.push(InvariantViolation::StaleDataRead {
                node,
                addr,
                observed_version: version,
                expected_version: entry.current(),
                at,
            });
        }
    }

    /// Audits token conservation and the single-writer property for one block
    /// given every node's audit plus the tokens currently in flight in the
    /// interconnect.
    pub fn audit_block(
        &mut self,
        addr: BlockAddr,
        audits: &[BlockAudit],
        in_flight_tokens: u32,
        in_flight_owners: u32,
        expected_tokens: Option<u32>,
        at: Cycle,
    ) {
        if let Some(expected) = expected_tokens {
            let total: u32 = audits.iter().map(|a| a.tokens).sum::<u32>() + in_flight_tokens;
            if total != expected {
                self.violations.push(InvariantViolation::TokenConservation {
                    addr,
                    expected,
                    found: total,
                    at,
                });
            }
            let owners = audits.iter().filter(|a| a.owner_token).count() as u32 + in_flight_owners;
            if owners != 1 {
                self.violations
                    .push(InvariantViolation::DuplicateOwner { addr, at });
            }
        }
        let writers = audits.iter().filter(|a| a.writable).count();
        let readers = audits.iter().filter(|a| a.readable).count();
        if writers > 1 || (writers == 1 && readers > 1) {
            self.violations
                .push(InvariantViolation::WriteWithoutExclusive {
                    node: NodeId::new(0),
                    addr,
                    held: readers as u32,
                    required: 1,
                    at,
                });
        }
        // At quiescence every surviving readable cache copy must hold the
        // block's current value: a write invalidates every sharer, so a
        // divergent copy is the signature of a *lost invalidation*. This is
        // the backstop for protocols whose read hits are only
        // coherence-checked at runtime (unacknowledged snooping, see
        // `AccessOutcome::Hit::valid_since`): transient skew-staleness is
        // legal while the invalidation is in flight, but nothing stale may
        // survive the drain.
        let current = self.history.get(&addr).map(|h| h.current()).unwrap_or(0);
        for audit in audits.iter().filter(|a| a.readable && !a.in_memory) {
            if audit.data_version != current {
                self.violations.push(InvariantViolation::StaleDataRead {
                    node: NodeId::new(0),
                    addr,
                    observed_version: audit.data_version,
                    expected_version: current,
                    at,
                });
            }
        }
    }

    /// Records a starvation violation (a request still outstanding at the end
    /// of the run beyond the starvation bound).
    pub fn record_starvation(
        &mut self,
        node: NodeId,
        addr: BlockAddr,
        issued_at: Cycle,
        at: Cycle,
    ) {
        self.violations.push(InvariantViolation::Starvation {
            node,
            addr,
            issued_at,
            at,
            waited: at.saturating_sub(issued_at),
        });
    }

    /// Fairness oracle: notes that `node` escalated to a persistent request
    /// for `addr` at time `at`. Only the *first* observation per `(node,
    /// block)` pair is kept — reissued persistent requests for the same
    /// stuck operation must not reset the waiting clock, or a protocol
    /// could launder starvation through periodic reissue.
    pub fn note_persistent_request(&mut self, node: NodeId, addr: BlockAddr, at: Cycle) {
        self.escalations.entry((node, addr)).or_insert(at);
    }

    /// Fairness oracle: notes that `node`'s operation on `addr` completed at
    /// `at`. If a persistent request had been observed for the pair and the
    /// time from escalation to completion exceeds `bound`, a
    /// [`InvariantViolation::Starvation`] is recorded — the request *did*
    /// eventually finish, but not within the bounded-wait guarantee the
    /// persistent-request machinery is supposed to provide.
    pub fn note_completion(&mut self, node: NodeId, addr: BlockAddr, at: Cycle, bound: Cycle) {
        if let Some(issued_at) = self.escalations.remove(&(node, addr)) {
            let waited = at.saturating_sub(issued_at);
            if waited > bound {
                self.violations.push(InvariantViolation::Starvation {
                    node,
                    addr,
                    issued_at,
                    at,
                    waited,
                });
            }
        }
    }

    /// Fairness oracle: end-of-run sweep. Every escalation still outstanding
    /// at `at` that has already waited longer than `bound` is starved —
    /// whether or not the run's drain loop would eventually have completed
    /// it. Entries are drained in `(node, block)` order so repeated runs
    /// report violations in a stable order.
    pub fn sweep_escalations(&mut self, at: Cycle, bound: Cycle) {
        let mut outstanding: Vec<((NodeId, BlockAddr), Cycle)> = self.escalations.drain().collect();
        outstanding.sort_unstable_by_key(|((node, addr), _)| (node.index(), addr.value()));
        for ((node, addr), issued_at) in outstanding {
            let waited = at.saturating_sub(issued_at);
            if waited > bound {
                self.violations.push(InvariantViolation::Starvation {
                    node,
                    addr,
                    issued_at,
                    at,
                    waited,
                });
            }
        }
    }

    /// Number of persistent-request escalations the fairness oracle is still
    /// tracking (not yet completed or swept).
    pub fn escalations_outstanding(&self) -> usize {
        self.escalations.len()
    }

    /// Records a deadlock violation (the drain limit was hit with a request
    /// still outstanding and events still in flight).
    pub fn record_deadlock(&mut self, node: NodeId, addr: BlockAddr, issued_at: Cycle, at: Cycle) {
        self.violations.push(InvariantViolation::Deadlock {
            node,
            addr,
            issued_at,
            at,
        });
    }

    /// Records a livelock: the forward-progress watchdog exhausted its
    /// event budget with events still flowing but no operation completing.
    pub fn record_livelock(
        &mut self,
        node: NodeId,
        addr: BlockAddr,
        issued_at: Cycle,
        at: Cycle,
        events_without_progress: u64,
    ) {
        self.violations.push(InvariantViolation::Livelock {
            node,
            addr,
            issued_at,
            at,
            events_without_progress,
        });
    }

    /// All violations detected so far.
    pub fn violations(&self) -> &[InvariantViolation] {
        &self.violations
    }

    /// (reads checked, writes recorded) counters.
    pub fn counters(&self) -> (u64, u64) {
        (self.reads_checked, self.writes_recorded)
    }

    /// Consumes the verifier, returning its violations.
    pub fn into_violations(self) -> Vec<InvariantViolation> {
        self.violations
    }

    /// Serializes the verifier. The write-history map is iterated in block
    /// order so identical verifier states always produce identical bytes.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.u64(self.reads_checked);
        w.u64(self.writes_recorded);
        let mut blocks: Vec<(&BlockAddr, &BlockHistory)> = self.history.iter().collect();
        blocks.sort_unstable_by_key(|(addr, _)| **addr);
        w.seq(blocks.into_iter(), |w, (addr, history)| {
            w.u64(addr.value());
            w.seq(history.versions.iter(), |w, &(version, at)| {
                w.u64(version);
                w.u64(at);
            });
        });
        w.seq(self.violations.iter(), emit_violation);
        let mut escalations: Vec<(&(NodeId, BlockAddr), &Cycle)> =
            self.escalations.iter().collect();
        escalations.sort_unstable_by_key(|((node, addr), _)| (node.index(), addr.value()));
        w.seq(escalations.into_iter(), |w, ((node, addr), at)| {
            w.u32(node.index() as u32);
            w.u64(addr.value());
            w.u64(*at);
        });
    }

    /// Restores [`Verifier::save_state`] bytes.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        self.reads_checked = r.u64()?;
        self.writes_recorded = r.u64()?;
        let block_count = r.bounded_len(16)?;
        self.history.clear();
        for _ in 0..block_count {
            let addr = BlockAddr::new(r.u64()?);
            let version_count = r.bounded_len(16)?;
            let mut versions = VecDeque::with_capacity(version_count);
            for _ in 0..version_count {
                versions.push_back((r.u64()?, r.u64()?));
            }
            self.history.insert(addr, BlockHistory { versions });
        }
        let violation_count = r.bounded_len(9)?;
        self.violations = Vec::with_capacity(violation_count);
        for _ in 0..violation_count {
            self.violations.push(read_violation(r)?);
        }
        let escalation_count = r.bounded_len(20)?;
        self.escalations.clear();
        for _ in 0..escalation_count {
            let node = NodeId::new(r.u32()? as usize);
            let addr = BlockAddr::new(r.u64()?);
            let at = r.u64()?;
            self.escalations.insert((node, addr), at);
        }
        Ok(())
    }
}

// Snapshot codec for violations. Tags are wire format: append, never
// renumber.
pub(crate) fn emit_violation(w: &mut SnapWriter, v: &InvariantViolation) {
    match *v {
        InvariantViolation::TokenConservation {
            addr,
            expected,
            found,
            at,
        } => {
            w.u8(0);
            w.u64(addr.value());
            w.u32(expected);
            w.u32(found);
            w.u64(at);
        }
        InvariantViolation::DuplicateOwner { addr, at } => {
            w.u8(1);
            w.u64(addr.value());
            w.u64(at);
        }
        InvariantViolation::WriteWithoutExclusive {
            node,
            addr,
            held,
            required,
            at,
        } => {
            w.u8(2);
            w.u32(node.index() as u32);
            w.u64(addr.value());
            w.u32(held);
            w.u32(required);
            w.u64(at);
        }
        InvariantViolation::ReadWithoutToken { node, addr, at } => {
            w.u8(3);
            w.u32(node.index() as u32);
            w.u64(addr.value());
            w.u64(at);
        }
        InvariantViolation::OwnerTokenWithoutData { addr, at } => {
            w.u8(4);
            w.u64(addr.value());
            w.u64(at);
        }
        InvariantViolation::StaleDataRead {
            node,
            addr,
            observed_version,
            expected_version,
            at,
        } => {
            w.u8(5);
            w.u32(node.index() as u32);
            w.u64(addr.value());
            w.u64(observed_version);
            w.u64(expected_version);
            w.u64(at);
        }
        InvariantViolation::Starvation {
            node,
            addr,
            issued_at,
            at,
            waited,
        } => {
            w.u8(9);
            w.u32(node.index() as u32);
            w.u64(addr.value());
            w.u64(issued_at);
            w.u64(at);
            w.u64(waited);
        }
        InvariantViolation::Livelock {
            node,
            addr,
            issued_at,
            at,
            events_without_progress,
        } => {
            w.u8(7);
            w.u32(node.index() as u32);
            w.u64(addr.value());
            w.u64(issued_at);
            w.u64(at);
            w.u64(events_without_progress);
        }
        InvariantViolation::Deadlock {
            node,
            addr,
            issued_at,
            at,
        } => {
            w.u8(8);
            w.u32(node.index() as u32);
            w.u64(addr.value());
            w.u64(issued_at);
            w.u64(at);
        }
    }
}

pub(crate) fn read_violation(r: &mut SnapReader<'_>) -> Result<InvariantViolation, SnapshotError> {
    Ok(match r.u8()? {
        0 => InvariantViolation::TokenConservation {
            addr: BlockAddr::new(r.u64()?),
            expected: r.u32()?,
            found: r.u32()?,
            at: r.u64()?,
        },
        1 => InvariantViolation::DuplicateOwner {
            addr: BlockAddr::new(r.u64()?),
            at: r.u64()?,
        },
        2 => InvariantViolation::WriteWithoutExclusive {
            node: NodeId::new(r.u32()? as usize),
            addr: BlockAddr::new(r.u64()?),
            held: r.u32()?,
            required: r.u32()?,
            at: r.u64()?,
        },
        3 => InvariantViolation::ReadWithoutToken {
            node: NodeId::new(r.u32()? as usize),
            addr: BlockAddr::new(r.u64()?),
            at: r.u64()?,
        },
        4 => InvariantViolation::OwnerTokenWithoutData {
            addr: BlockAddr::new(r.u64()?),
            at: r.u64()?,
        },
        5 => InvariantViolation::StaleDataRead {
            node: NodeId::new(r.u32()? as usize),
            addr: BlockAddr::new(r.u64()?),
            observed_version: r.u64()?,
            expected_version: r.u64()?,
            at: r.u64()?,
        },
        7 => InvariantViolation::Livelock {
            node: NodeId::new(r.u32()? as usize),
            addr: BlockAddr::new(r.u64()?),
            issued_at: r.u64()?,
            at: r.u64()?,
            events_without_progress: r.u64()?,
        },
        8 => InvariantViolation::Deadlock {
            node: NodeId::new(r.u32()? as usize),
            addr: BlockAddr::new(r.u64()?),
            issued_at: r.u64()?,
            at: r.u64()?,
        },
        9 => InvariantViolation::Starvation {
            node: NodeId::new(r.u32()? as usize),
            addr: BlockAddr::new(r.u64()?),
            issued_at: r.u64()?,
            at: r.u64()?,
            waited: r.u64()?,
        },
        other => return Err(SnapshotError::Corrupt(format!("violation tag {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn audit(tokens: u32, owner: bool, readable: bool, writable: bool) -> BlockAudit {
        BlockAudit {
            tokens,
            owner_token: owner,
            readable,
            writable,
            data_version: 0,
            in_memory: false,
        }
    }

    #[test]
    fn reads_of_the_latest_write_pass() {
        let mut v = Verifier::new();
        v.record_write(NodeId::new(0), BlockAddr::new(1), 10, 100);
        v.check_read(NodeId::new(1), BlockAddr::new(1), 10, 150, 200);
        assert!(v.violations().is_empty());
        assert_eq!(v.counters(), (1, 1));
    }

    #[test]
    fn stale_reads_are_flagged() {
        let mut v = Verifier::new();
        v.record_write(NodeId::new(0), BlockAddr::new(1), 10, 100);
        v.record_write(NodeId::new(2), BlockAddr::new(1), 20, 200);
        // Issued and completed strictly after the second write, yet observed
        // the first write's value: stale.
        v.check_read(NodeId::new(1), BlockAddr::new(1), 10, 250, 300);
        assert_eq!(v.violations().len(), 1);
        assert!(matches!(
            v.violations()[0],
            InvariantViolation::StaleDataRead { .. }
        ));
    }

    #[test]
    fn reads_ordered_before_a_racing_write_are_tolerated() {
        let mut v = Verifier::new();
        v.record_write(NodeId::new(0), BlockAddr::new(1), 10, 100);
        v.record_write(NodeId::new(2), BlockAddr::new(1), 20, 200);
        // The read was issued while version 10 was still current, so the
        // coherence order may legally place it before the second write even
        // though its data arrived later.
        v.check_read(NodeId::new(1), BlockAddr::new(1), 10, 150, 300);
        assert!(v.violations().is_empty());
    }

    #[test]
    fn unwritten_blocks_read_as_version_zero() {
        let mut v = Verifier::new();
        v.check_read(NodeId::new(0), BlockAddr::new(7), 0, 40, 50);
        assert!(v.violations().is_empty());
        v.check_read(NodeId::new(0), BlockAddr::new(7), 3, 55, 60);
        assert_eq!(v.violations().len(), 1);
    }

    #[test]
    fn very_old_values_are_not_accepted() {
        let mut v = Verifier::new();
        for i in 1..10u64 {
            v.record_write(NodeId::new(0), BlockAddr::new(1), i, i * 100);
        }
        // Issued long after version 3 was overwritten.
        v.check_read(NodeId::new(1), BlockAddr::new(1), 3, 800, 900);
        assert_eq!(v.violations().len(), 1);
    }

    #[test]
    fn token_conservation_audit_detects_lost_tokens() {
        let mut v = Verifier::new();
        v.audit_block(
            BlockAddr::new(1),
            &[audit(10, true, true, false), audit(5, false, true, false)],
            0,
            0,
            Some(16),
            1000,
        );
        assert_eq!(v.violations().len(), 1);
        assert!(matches!(
            v.violations()[0],
            InvariantViolation::TokenConservation { found: 15, .. }
        ));
    }

    #[test]
    fn in_flight_tokens_count_toward_conservation() {
        let mut v = Verifier::new();
        v.audit_block(
            BlockAddr::new(1),
            &[audit(10, false, true, false)],
            6,
            1,
            Some(16),
            1000,
        );
        assert!(v.violations().is_empty());
    }

    #[test]
    fn duplicate_owner_tokens_are_flagged() {
        let mut v = Verifier::new();
        v.audit_block(
            BlockAddr::new(2),
            &[audit(8, true, true, false), audit(8, true, true, false)],
            0,
            0,
            Some(16),
            500,
        );
        assert_eq!(v.violations().len(), 1);
        assert!(matches!(
            v.violations()[0],
            InvariantViolation::DuplicateOwner { .. }
        ));
    }

    #[test]
    fn two_writers_violate_single_writer() {
        let mut v = Verifier::new();
        v.audit_block(
            BlockAddr::new(3),
            &[audit(0, false, true, true), audit(0, false, true, true)],
            0,
            0,
            None,
            700,
        );
        assert_eq!(v.violations().len(), 1);
    }

    #[test]
    fn one_writer_many_readers_is_flagged() {
        let mut v = Verifier::new();
        v.audit_block(
            BlockAddr::new(3),
            &[
                audit(0, false, true, true),
                audit(0, false, true, false),
                audit(0, false, true, false),
            ],
            0,
            0,
            None,
            700,
        );
        assert_eq!(v.violations().len(), 1);
    }

    #[test]
    fn surviving_stale_copies_are_flagged_at_quiescence() {
        let mut v = Verifier::new();
        v.record_write(NodeId::new(0), BlockAddr::new(4), 10, 100);
        v.record_write(NodeId::new(2), BlockAddr::new(4), 20, 200);
        // One copy holds the current version, another still holds the
        // overwritten one: its invalidation was lost.
        let mut fresh = audit(0, false, true, false);
        fresh.data_version = 20;
        let mut stale = audit(0, false, true, false);
        stale.data_version = 10;
        v.audit_block(BlockAddr::new(4), &[fresh, stale], 0, 0, None, 900);
        assert_eq!(v.violations().len(), 1);
        assert!(matches!(
            v.violations()[0],
            InvariantViolation::StaleDataRead {
                observed_version: 10,
                expected_version: 20,
                ..
            }
        ));
    }

    #[test]
    fn matching_copies_pass_the_quiescence_version_check() {
        let mut v = Verifier::new();
        v.record_write(NodeId::new(0), BlockAddr::new(4), 10, 100);
        let mut a = audit(0, false, true, false);
        a.data_version = 10;
        let mut b = audit(0, false, true, false);
        b.data_version = 10;
        v.audit_block(BlockAddr::new(4), &[a, b], 0, 0, None, 900);
        assert!(v.violations().is_empty());
    }

    #[test]
    fn starvation_is_recorded() {
        let mut v = Verifier::new();
        v.record_starvation(NodeId::new(3), BlockAddr::new(9), 100, 90_000);
        assert!(matches!(
            v.into_violations()[0],
            InvariantViolation::Starvation { waited: 89_900, .. }
        ));
    }

    #[test]
    fn completion_within_bound_clears_escalation() {
        let mut v = Verifier::new();
        v.note_persistent_request(NodeId::new(1), BlockAddr::new(5), 1_000);
        assert_eq!(v.escalations_outstanding(), 1);
        v.note_completion(NodeId::new(1), BlockAddr::new(5), 3_000, 10_000);
        assert_eq!(v.escalations_outstanding(), 0);
        assert!(v.violations().is_empty());
    }

    #[test]
    fn late_completion_is_starvation() {
        let mut v = Verifier::new();
        v.note_persistent_request(NodeId::new(1), BlockAddr::new(5), 1_000);
        v.note_completion(NodeId::new(1), BlockAddr::new(5), 20_001, 10_000);
        assert!(matches!(
            v.violations()[0],
            InvariantViolation::Starvation {
                issued_at: 1_000,
                at: 20_001,
                waited: 19_001,
                ..
            }
        ));
    }

    #[test]
    fn reissue_does_not_reset_the_waiting_clock() {
        let mut v = Verifier::new();
        v.note_persistent_request(NodeId::new(2), BlockAddr::new(7), 1_000);
        // A reissued persistent request for the same stuck op arrives later;
        // the clock must keep running from the first escalation.
        v.note_persistent_request(NodeId::new(2), BlockAddr::new(7), 9_000);
        v.note_completion(NodeId::new(2), BlockAddr::new(7), 12_001, 11_000);
        assert!(matches!(
            v.violations()[0],
            InvariantViolation::Starvation {
                issued_at: 1_000,
                ..
            }
        ));
    }

    #[test]
    fn sweep_flags_only_overdue_escalations() {
        let mut v = Verifier::new();
        v.note_persistent_request(NodeId::new(3), BlockAddr::new(1), 100);
        v.note_persistent_request(NodeId::new(0), BlockAddr::new(2), 49_000);
        v.sweep_escalations(50_000, 10_000);
        assert_eq!(v.escalations_outstanding(), 0);
        // Only the first (waited 49_900 > 10_000) starved; violations come
        // out in (node, block) order.
        assert_eq!(v.violations().len(), 1);
        assert!(matches!(
            v.violations()[0],
            InvariantViolation::Starvation {
                issued_at: 100,
                waited: 49_900,
                ..
            }
        ));
    }

    #[test]
    fn completions_without_escalation_are_ignored() {
        let mut v = Verifier::new();
        v.note_completion(NodeId::new(0), BlockAddr::new(1), 5_000, 10);
        assert!(v.violations().is_empty());
    }

    #[test]
    fn escalations_and_waited_survive_a_snapshot_round_trip() {
        let mut v = Verifier::new();
        v.note_persistent_request(NodeId::new(1), BlockAddr::new(5), 1_000);
        v.note_persistent_request(NodeId::new(2), BlockAddr::new(6), 2_000);
        v.record_starvation(NodeId::new(3), BlockAddr::new(9), 100, 90_000);
        let mut w = SnapWriter::new();
        v.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut restored = Verifier::new();
        restored.load_state(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(restored.escalations_outstanding(), 2);
        assert!(matches!(
            restored.violations()[0],
            InvariantViolation::Starvation { waited: 89_900, .. }
        ));
        // The restored oracle still holds the original escalation times.
        restored.note_completion(NodeId::new(1), BlockAddr::new(5), 50_000, 10_000);
        assert_eq!(restored.violations().len(), 2);
    }

    #[test]
    fn tag6_starvation_is_rejected_as_corrupt() {
        // Tag 6 was the four-field Starvation that predates `waited`. No
        // current-version snapshot carries it, so it decodes as corrupt.
        let mut w = SnapWriter::new();
        w.u8(6);
        w.u32(4);
        w.u64(11);
        w.u64(200);
        w.u64(90_200);
        let bytes = w.into_bytes();
        assert_eq!(
            read_violation(&mut SnapReader::new(&bytes)),
            Err(SnapshotError::Corrupt("violation tag 6".to_string()))
        );
    }
}
