//! The per-node table of active persistent requests.

use tc_memsys::LineTable;
use tc_sim::{SnapReader, SnapWriter, SnapshotError};
use tc_types::{BlockAddr, NodeId};

/// One active persistent request, as remembered by every node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PersistentEntry {
    /// The starving node that must receive all tokens for the block.
    pub requester: NodeId,
    /// Whether the requester needs write permission (it is sent all tokens
    /// either way; the flag is kept for reporting).
    pub write: bool,
}

/// The hardware table each node keeps of activated persistent requests
/// (Section 3.2: an 8-byte entry per home-memory arbiter).
///
/// While an entry for a block is present, the node must forward every token
/// it holds for that block — and every token it receives later — to the
/// entry's requester, until the arbiter broadcasts a deactivation. Entries
/// live on the shared [`LineTable`] plane: the table is probed on every
/// token receipt and every transient-request snoop, and nothing depends on
/// iteration order.
#[derive(Debug, Clone, Default)]
pub struct PersistentTable {
    entries: LineTable<PersistentEntry>,
    activations_seen: u64,
}

impl PersistentTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        PersistentTable::default()
    }

    /// Records an activation broadcast by an arbiter.
    pub fn activate(&mut self, addr: BlockAddr, requester: NodeId, write: bool) {
        self.activations_seen += 1;
        self.entries
            .insert(addr, PersistentEntry { requester, write });
    }

    /// Removes the entry for `addr` (a deactivation broadcast). Returns the
    /// entry that was active, if any.
    pub fn deactivate(&mut self, addr: BlockAddr) -> Option<PersistentEntry> {
        self.entries.remove(addr)
    }

    /// The active persistent request for `addr`, if any.
    pub fn active(&self, addr: BlockAddr) -> Option<PersistentEntry> {
        self.entries.get(addr).copied()
    }

    /// Returns the requester that tokens for `addr` must be forwarded to, if
    /// it is some node other than `me`.
    pub fn forward_target(&self, addr: BlockAddr, me: NodeId) -> Option<NodeId> {
        match self.entries.get(addr) {
            Some(entry) if entry.requester != me => Some(entry.requester),
            _ => None,
        }
    }

    /// Number of entries currently active.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no persistent requests are active.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of activations this node has observed.
    pub fn activations_seen(&self) -> u64 {
        self.activations_seen
    }

    /// Peak number of simultaneously active entries.
    pub fn high_water(&self) -> usize {
        self.entries.high_water()
    }

    /// Bytes allocated by the backing line table.
    pub fn state_bytes(&self) -> u64 {
        self.entries.allocated_bytes()
    }

    /// Serializes the table's entries and activation counter.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.u64(self.activations_seen);
        self.entries.save_state(w, |w, e| {
            w.u32(e.requester.index() as u32);
            w.bool(e.write);
        });
    }

    /// Restores [`PersistentTable::save_state`] bytes.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        self.activations_seen = r.u64()?;
        self.entries = LineTable::load_state(r, |r| {
            Ok(PersistentEntry {
                requester: NodeId::new(r.u32()? as usize),
                write: r.bool()?,
            })
        })?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activate_then_deactivate_round_trips() {
        let mut table = PersistentTable::new();
        assert!(table.is_empty());
        table.activate(BlockAddr::new(5), NodeId::new(2), true);
        assert_eq!(table.len(), 1);
        assert_eq!(
            table.active(BlockAddr::new(5)),
            Some(PersistentEntry {
                requester: NodeId::new(2),
                write: true
            })
        );
        let removed = table.deactivate(BlockAddr::new(5)).unwrap();
        assert_eq!(removed.requester, NodeId::new(2));
        assert!(table.active(BlockAddr::new(5)).is_none());
    }

    #[test]
    fn forward_target_excludes_the_requester_itself() {
        let mut table = PersistentTable::new();
        table.activate(BlockAddr::new(9), NodeId::new(3), false);
        assert_eq!(
            table.forward_target(BlockAddr::new(9), NodeId::new(1)),
            Some(NodeId::new(3))
        );
        assert_eq!(
            table.forward_target(BlockAddr::new(9), NodeId::new(3)),
            None
        );
        assert_eq!(
            table.forward_target(BlockAddr::new(10), NodeId::new(1)),
            None
        );
    }

    #[test]
    fn one_entry_per_block_with_replacement() {
        let mut table = PersistentTable::new();
        table.activate(BlockAddr::new(1), NodeId::new(0), false);
        table.activate(BlockAddr::new(1), NodeId::new(4), true);
        assert_eq!(table.len(), 1);
        assert_eq!(
            table.active(BlockAddr::new(1)).unwrap().requester,
            NodeId::new(4)
        );
        assert_eq!(table.activations_seen(), 2);
    }

    #[test]
    fn deactivating_missing_entry_is_harmless() {
        let mut table = PersistentTable::new();
        assert!(table.deactivate(BlockAddr::new(77)).is_none());
    }
}
