//! Home-memory state storage.

use tc_sim::snapshot::{SnapReader, SnapWriter, SnapshotError};
use tc_types::{BlockAddr, HomeMap, NodeId};

use crate::line_table::LineTable;

/// Per-home-node memory state.
///
/// Each node is the *home* for an interleaved slice of physical memory. For
/// every block it homes, the node's memory keeps:
///
/// * the DRAM copy of the block's contents (a version number standing in for
///   the 64 data bytes), and
/// * protocol-specific home state `S` — the directory entry, the memory's
///   token count and owner-token bit, or the snooping "memory owner" bit.
///
/// State is stored sparsely in [`LineTable`]s: blocks that have never been
/// touched are in their protocol-defined default state (`S::default()`),
/// which for Token Coherence means "memory holds all `T` tokens including
/// the owner token", and for the other protocols means "memory is the owner,
/// no sharers". These tables are probed on every home-side access and
/// nothing depends on their iteration order (`touched_blocks` feeds an
/// order-insensitive audit set), which is exactly the contract the compact
/// open-addressed plane provides.
#[derive(Debug, Clone)]
pub struct HomeMemory<S> {
    node: NodeId,
    home_map: HomeMap,
    dram_latency_ns: u64,
    state: LineTable<S>,
    data: LineTable<u64>,
    accesses: u64,
}

impl<S: Default + Clone> HomeMemory<S> {
    /// Creates the home memory for `node`.
    pub fn new(node: NodeId, home_map: HomeMap, dram_latency_ns: u64) -> Self {
        HomeMemory {
            node,
            home_map,
            dram_latency_ns,
            state: LineTable::new(),
            data: LineTable::new(),
            accesses: 0,
        }
    }

    /// DRAM access latency in nanoseconds.
    pub fn dram_latency_ns(&self) -> u64 {
        self.dram_latency_ns
    }

    /// Returns `true` if this node is the home for `addr`.
    pub fn is_home(&self, addr: BlockAddr) -> bool {
        self.home_map.is_home(self.node, addr)
    }

    /// The protocol state for a homed block, creating the default entry on
    /// first touch.
    ///
    /// # Panics
    ///
    /// Panics if this node is not the home for `addr`; home state must only
    /// ever be consulted at the home node.
    pub fn state_mut(&mut self, addr: BlockAddr) -> &mut S {
        assert!(
            self.is_home(addr),
            "{} is not the home for {addr}",
            self.node
        );
        self.accesses += 1;
        self.state.or_default(addr)
    }

    /// Reads the protocol state for a homed block without creating an entry.
    pub fn state(&self, addr: BlockAddr) -> Option<&S> {
        self.state.get(addr)
    }

    /// The DRAM copy's data version for a block (zero if never written back).
    pub fn data_version(&self, addr: BlockAddr) -> u64 {
        self.data.get(addr).copied().unwrap_or(0)
    }

    /// Updates the DRAM copy's data version (a writeback).
    pub fn write_data(&mut self, addr: BlockAddr, version: u64) {
        self.data.insert(addr, version);
    }

    /// Number of home-state accesses performed (a proxy for directory
    /// lookups / memory controller occupancy).
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Iterates over blocks with explicit (non-default) home state.
    /// Deterministic but unspecified order; callers collect into
    /// order-insensitive sets.
    pub fn touched_blocks(&self) -> impl Iterator<Item = (BlockAddr, &S)> {
        self.state.iter()
    }

    /// Peak number of blocks with materialized home state.
    pub fn entries_high_water(&self) -> u64 {
        self.state.high_water() as u64
    }

    /// Bytes allocated by the home-side line tables (protocol state plus the
    /// DRAM data versions).
    pub fn state_bytes(&self) -> u64 {
        self.state.allocated_bytes() + self.data.allocated_bytes()
    }

    /// Serializes the mutable home-side state (protocol state table, DRAM
    /// data versions, access counter). Node, home map, and latency are
    /// config-derived and restored by construction.
    pub fn save_state(&self, w: &mut SnapWriter, emit: impl FnMut(&mut SnapWriter, &S)) {
        w.u64(self.accesses);
        self.state.save_state(w, emit);
        self.data.save_state(w, |w, &v| w.u64(v));
    }

    /// Restores [`HomeMemory::save_state`] bytes onto a same-config memory.
    pub fn load_state(
        &mut self,
        r: &mut SnapReader<'_>,
        read: impl FnMut(&mut SnapReader<'_>) -> Result<S, SnapshotError>,
    ) -> Result<(), SnapshotError> {
        self.accesses = r.u64()?;
        self.state = LineTable::load_state(r, read)?;
        self.data = LineTable::load_state(r, |r| r.u64())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Default, PartialEq)]
    struct DirEntry {
        sharers: Vec<usize>,
    }

    fn memory_for(node: usize) -> HomeMemory<DirEntry> {
        HomeMemory::new(NodeId::new(node), HomeMap::new(4, 64), 80)
    }

    #[test]
    fn home_check_follows_interleaving() {
        let m = memory_for(1);
        assert!(m.is_home(BlockAddr::new(1)));
        assert!(m.is_home(BlockAddr::new(5)));
        assert!(!m.is_home(BlockAddr::new(2)));
    }

    #[test]
    fn state_is_created_on_demand_with_default() {
        let mut m = memory_for(1);
        assert!(m.state(BlockAddr::new(5)).is_none());
        m.state_mut(BlockAddr::new(5)).sharers.push(3);
        assert_eq!(m.state(BlockAddr::new(5)).unwrap().sharers, vec![3]);
        assert_eq!(m.accesses(), 1);
        assert_eq!(m.touched_blocks().count(), 1);
    }

    #[test]
    #[should_panic(expected = "not the home")]
    fn touching_a_foreign_block_panics() {
        let mut m = memory_for(1);
        m.state_mut(BlockAddr::new(2));
    }

    #[test]
    fn data_versions_default_to_zero_and_update() {
        let mut m = memory_for(0);
        assert_eq!(m.data_version(BlockAddr::new(4)), 0);
        m.write_data(BlockAddr::new(4), 17);
        assert_eq!(m.data_version(BlockAddr::new(4)), 17);
        assert_eq!(m.dram_latency_ns(), 80);
    }
}
