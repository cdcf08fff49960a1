//! Miss status holding registers (MSHRs): bookkeeping for outstanding misses.

use tc_sim::snapshot::{SnapReader, SnapWriter, SnapshotError};
use tc_types::BlockAddr;

use crate::line_table::LineTable;

/// A table of outstanding misses, at most one entry per block, with a
/// configurable capacity.
///
/// The entry type `E` is protocol-defined (requester lists, token
/// accumulation state, retry counters, ...). Entries live in a compact
/// [`LineTable`], so the allocate/lookup/release cycle on the miss path is a
/// bare-`u64` probe instead of a `BTreeMap` descent, and the table reports
/// its own occupancy high-water mark for the engine's state accounting.
/// Iteration order is deterministic for a given history but unspecified;
/// audit paths that need address order sort explicitly.
#[derive(Debug, Clone)]
pub struct MshrTable<E> {
    capacity: usize,
    entries: LineTable<E>,
    allocations: u64,
    capacity_stalls: u64,
}

impl<E> MshrTable<E> {
    /// Creates a table with room for `capacity` simultaneous misses.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR table needs at least one entry");
        MshrTable {
            capacity,
            entries: LineTable::new(),
            allocations: 0,
            capacity_stalls: 0,
        }
    }

    /// Maximum number of simultaneous outstanding misses.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of misses currently outstanding.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no misses are outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns `true` if a new (distinct-block) miss can be allocated.
    pub fn has_room(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Allocates an entry for `addr`. Returns `Err(entry)` (handing the entry
    /// back) if the table is full or the block already has an entry.
    pub fn allocate(&mut self, addr: BlockAddr, entry: E) -> Result<&mut E, E> {
        if self.entries.contains(addr) {
            return Err(entry);
        }
        if !self.has_room() {
            self.capacity_stalls += 1;
            return Err(entry);
        }
        self.allocations += 1;
        Ok(self.entries.or_insert_with(addr, || entry))
    }

    /// Looks up the entry for `addr`.
    pub fn get(&self, addr: BlockAddr) -> Option<&E> {
        self.entries.get(addr)
    }

    /// Looks up the entry for `addr` mutably.
    pub fn get_mut(&mut self, addr: BlockAddr) -> Option<&mut E> {
        self.entries.get_mut(addr)
    }

    /// Returns `true` if `addr` has an outstanding miss.
    pub fn contains(&self, addr: BlockAddr) -> bool {
        self.entries.contains(addr)
    }

    /// Deallocates and returns the entry for `addr`.
    pub fn release(&mut self, addr: BlockAddr) -> Option<E> {
        self.entries.remove(addr)
    }

    /// Iterates over outstanding entries (deterministic, unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, &E)> {
        self.entries.iter()
    }

    /// The blocks of every outstanding miss, sorted by address — the stable
    /// order deadlock/starvation reports rely on.
    pub fn blocks_sorted(&self) -> Vec<BlockAddr> {
        self.entries.blocks_sorted()
    }

    /// Peak number of simultaneously outstanding misses over the table's
    /// lifetime.
    pub fn high_water(&self) -> usize {
        self.entries.high_water()
    }

    /// Bytes allocated by the backing line table (monotone, so this is the
    /// peak footprint at end of run).
    pub fn state_bytes(&self) -> u64 {
        self.entries.allocated_bytes()
    }

    /// (total allocations, allocations rejected for capacity) counters.
    pub fn counters(&self) -> (u64, u64) {
        (self.allocations, self.capacity_stalls)
    }

    /// Serializes the entry table and counters (capacity is config-derived).
    pub fn save_state(&self, w: &mut SnapWriter, emit: impl FnMut(&mut SnapWriter, &E)) {
        w.u64(self.allocations);
        w.u64(self.capacity_stalls);
        self.entries.save_state(w, emit);
    }

    /// Restores [`MshrTable::save_state`] bytes onto a same-capacity table.
    pub fn load_state(
        &mut self,
        r: &mut SnapReader<'_>,
        read: impl FnMut(&mut SnapReader<'_>) -> Result<E, SnapshotError>,
    ) -> Result<(), SnapshotError> {
        self.allocations = r.u64()?;
        self.capacity_stalls = r.u64()?;
        self.entries = LineTable::load_state(r, read)?;
        if self.entries.len() > self.capacity {
            return Err(SnapshotError::Corrupt("MSHR population".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_get_release_cycle() {
        let mut t: MshrTable<&str> = MshrTable::new(2);
        assert!(t.allocate(BlockAddr::new(1), "a").is_ok());
        assert_eq!(t.get(BlockAddr::new(1)), Some(&"a"));
        assert!(t.contains(BlockAddr::new(1)));
        assert_eq!(t.release(BlockAddr::new(1)), Some("a"));
        assert!(t.is_empty());
        assert_eq!(t.release(BlockAddr::new(1)), None);
    }

    #[test]
    fn duplicate_allocation_is_rejected() {
        let mut t: MshrTable<u32> = MshrTable::new(2);
        t.allocate(BlockAddr::new(1), 1).unwrap();
        assert_eq!(t.allocate(BlockAddr::new(1), 2), Err(2));
        assert_eq!(t.get(BlockAddr::new(1)), Some(&1));
    }

    #[test]
    fn capacity_is_enforced_and_counted() {
        let mut t: MshrTable<u32> = MshrTable::new(1);
        t.allocate(BlockAddr::new(1), 1).unwrap();
        assert!(!t.has_room());
        assert_eq!(t.allocate(BlockAddr::new(2), 2), Err(2));
        let (allocs, stalls) = t.counters();
        assert_eq!(allocs, 1);
        assert_eq!(stalls, 1);
    }

    #[test]
    fn entries_can_be_mutated_in_place() {
        let mut t: MshrTable<Vec<u32>> = MshrTable::new(4);
        t.allocate(BlockAddr::new(9), vec![1]).unwrap();
        t.get_mut(BlockAddr::new(9)).unwrap().push(2);
        assert_eq!(t.get(BlockAddr::new(9)).unwrap(), &vec![1, 2]);
    }

    #[test]
    fn iteration_covers_every_entry_and_sorted_blocks_are_ordered() {
        let mut t: MshrTable<u32> = MshrTable::new(4);
        t.allocate(BlockAddr::new(30), 3).unwrap();
        t.allocate(BlockAddr::new(10), 1).unwrap();
        t.allocate(BlockAddr::new(20), 2).unwrap();
        let mut order: Vec<u64> = t.iter().map(|(a, _)| a.value()).collect();
        order.sort_unstable();
        assert_eq!(order, vec![10, 20, 30]);
        assert_eq!(
            t.blocks_sorted(),
            vec![BlockAddr::new(10), BlockAddr::new(20), BlockAddr::new(30)]
        );
    }

    #[test]
    fn high_water_survives_releases() {
        let mut t: MshrTable<u32> = MshrTable::new(8);
        for i in 0..5 {
            t.allocate(BlockAddr::new(i), 0).unwrap();
        }
        for i in 0..5 {
            t.release(BlockAddr::new(i));
        }
        assert_eq!(t.high_water(), 5);
        assert!(t.state_bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_panics() {
        let _: MshrTable<u32> = MshrTable::new(0);
    }
}
