use serde::{Deserialize, Serialize};

use crate::{Geometry, LruOrder};

/// A small buffer of recently touched cache lines (line address + way),
/// accessed before the main cache arrays.
///
/// With one entry this is Su & Despain's in-cache line buffer / a
/// single-line filter cache (paper refs \[13\]\[6\]); with several entries it
/// approximates Ghose & Kamble's multiple line buffers \[15\]. The paper's
/// conclusion names a MAB + line-buffer hybrid as future work, which the
/// `sim` crate implements as an ablation: on a line-buffer hit neither tag
/// arrays nor data ways are activated (data comes from the buffer), at the
/// price of buffer energy on every probe.
///
/// The buffer stores only metadata (line address and memoized way); data
/// bytes stay in the cache model, since the simulator needs counts, not a
/// second copy of the bytes.
///
/// ```
/// use waymem_cache::{Geometry, LineBuffer};
///
/// let mut lb = LineBuffer::new(Geometry::frv(), 1);
/// assert_eq!(lb.lookup(0x1000), None);
/// lb.record(0x1000, 1);
/// assert_eq!(lb.lookup(0x1004), Some(1)); // same 32-B line
/// assert_eq!(lb.lookup(0x1020), None);    // next line
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LineBuffer {
    geom: Geometry,
    entries: Vec<Option<(u32, u32)>>, // (line base, way)
    lru: LruOrder,
}

impl LineBuffer {
    /// Creates a buffer with `entries` slots over caches shaped by `geom`.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    #[must_use]
    pub fn new(geom: Geometry, entries: usize) -> Self {
        assert!(entries > 0, "line buffer needs at least one entry");
        Self {
            geom,
            entries: vec![None; entries],
            lru: LruOrder::new(entries),
        }
    }

    /// Probes the buffer for the line containing `addr`. On a hit returns
    /// the memoized way and refreshes recency.
    pub fn lookup(&mut self, addr: u32) -> Option<u32> {
        let base = self.geom.line_base(addr);
        let slot = self
            .entries
            .iter()
            .position(|e| matches!(e, Some((b, _)) if *b == base))?;
        self.lru.touch(slot);
        self.entries[slot].map(|(_, w)| w)
    }

    /// Records that the line containing `addr` now resides in `way`,
    /// replacing the LRU slot if the line is not already buffered.
    pub fn record(&mut self, addr: u32, way: u32) {
        let base = self.geom.line_base(addr);
        if let Some(slot) = self
            .entries
            .iter()
            .position(|e| matches!(e, Some((b, _)) if *b == base))
        {
            self.entries[slot] = Some((base, way));
            self.lru.touch(slot);
            return;
        }
        let victim = self.lru.victim();
        self.entries[victim] = Some((base, way));
        self.lru.touch(victim);
    }

    /// Drops the entry for the line containing `addr`, if buffered. Called
    /// when the cache evicts that line.
    pub fn invalidate_line(&mut self, addr: u32) {
        let base = self.geom.line_base(addr);
        for e in &mut self.entries {
            if matches!(e, Some((b, _)) if *b == base) {
                *e = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lb(n: usize) -> LineBuffer {
        LineBuffer::new(Geometry::frv(), n)
    }

    #[test]
    fn hit_within_line_miss_outside() {
        let mut b = lb(1);
        b.record(0x2000, 0);
        assert_eq!(b.lookup(0x201f), Some(0));
        assert_eq!(b.lookup(0x2020), None);
    }

    #[test]
    fn single_entry_replacement() {
        let mut b = lb(1);
        b.record(0x1000, 0);
        b.record(0x2000, 1);
        assert_eq!(b.lookup(0x1000), None);
        assert_eq!(b.lookup(0x2000), Some(1));
    }

    #[test]
    fn multi_entry_lru_replacement() {
        let mut b = lb(2);
        b.record(0x1000, 0);
        b.record(0x2000, 1);
        let _ = b.lookup(0x1000); // refresh 0x1000
        b.record(0x3000, 0); // evicts 0x2000
        assert_eq!(b.lookup(0x2000), None);
        assert_eq!(b.lookup(0x1000), Some(0));
        assert_eq!(b.lookup(0x3000), Some(0));
    }

    #[test]
    fn record_updates_way_in_place() {
        let mut b = lb(2);
        b.record(0x1000, 0);
        b.record(0x1000, 1);
        assert_eq!(b.lookup(0x1000), Some(1));
    }

    #[test]
    fn invalidate_removes_only_matching_line() {
        let mut b = lb(2);
        b.record(0x1000, 0);
        b.record(0x2000, 1);
        b.invalidate_line(0x1008);
        assert_eq!(b.lookup(0x1000), None);
        assert_eq!(b.lookup(0x2000), Some(1));
    }
}
