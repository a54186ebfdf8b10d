//! Side structure for Ma, Zhang & Asanović's link-based way memoization
//! (paper reference \[11\]): per cache-line *sequential* and *branch*
//! links. Each link names a target line (by its base address) and the way
//! it was resident in when the link was created.
//!
//! Soundness contract: a link may be used only if (a) its stored target
//! base equals the line actually being fetched, and (b) no fill has
//! touched the target location since the link was set. (b) is maintained
//! by [`LinkTable::invalidate_target`], which is exactly the replacement-
//! time "mechanism to invalidate sequential and branch links" the paper
//! criticizes this approach for needing.

use waymem_cache::Geometry;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Link {
    target_base: u32,
    way: u32,
}

/// Per-location (set × way) sequential and branch links.
#[derive(Debug)]
pub struct LinkTable {
    geom: Geometry,
    seq: Vec<Option<Link>>,
    branch: Vec<Option<Link>>,
    invalidated: u64,
}

impl LinkTable {
    /// Creates an empty table for caches shaped by `geom`.
    #[must_use]
    pub fn new(geom: Geometry) -> Self {
        let n = (geom.sets() * geom.ways()) as usize;
        Self {
            geom,
            seq: vec![None; n],
            branch: vec![None; n],
            invalidated: 0,
        }
    }

    fn loc(&self, set: u32, way: u32) -> usize {
        (set * self.geom.ways() + way) as usize
    }

    /// Looks up the sequential link of the line at (`set`, `way`); returns
    /// the memoized way if it names `target_base`.
    #[must_use]
    pub fn seq_way(&self, set: u32, way: u32, target_base: u32) -> Option<u32> {
        self.seq[self.loc(set, way)]
            .filter(|l| l.target_base == target_base)
            .map(|l| l.way)
    }

    /// Looks up the branch link of the line at (`set`, `way`).
    #[must_use]
    pub fn branch_way(&self, set: u32, way: u32, target_base: u32) -> Option<u32> {
        self.branch[self.loc(set, way)]
            .filter(|l| l.target_base == target_base)
            .map(|l| l.way)
    }

    /// Sets the sequential link of (`set`, `way`).
    pub fn set_seq(&mut self, set: u32, way: u32, target_base: u32, target_way: u32) {
        let loc = self.loc(set, way);
        self.seq[loc] = Some(Link {
            target_base,
            way: target_way,
        });
    }

    /// Sets the branch link of (`set`, `way`).
    pub fn set_branch(&mut self, set: u32, way: u32, target_base: u32, target_way: u32) {
        let loc = self.loc(set, way);
        self.branch[loc] = Some(Link {
            target_base,
            way: target_way,
        });
    }

    /// A fill replaced the line at (`set`, `way`): clears that location's
    /// own links and every link pointing at it. This is the scan the
    /// hardware must implement (or approximate) on each replacement.
    pub fn invalidate_target(&mut self, set: u32, way: u32) {
        let loc = self.loc(set, way);
        self.seq[loc] = None;
        self.branch[loc] = None;
        let geom = self.geom;
        let mut cleared = 0u64;
        for link in self.seq.iter_mut().chain(self.branch.iter_mut()) {
            if let Some(l) = link {
                if geom.index_of(l.target_base) == set && l.way == way {
                    *link = None;
                    cleared += 1;
                }
            }
        }
        self.invalidated += cleared;
    }

    /// Links cleared by replacement-time invalidation so far.
    #[must_use]
    pub fn invalidated(&self) -> u64 {
        self.invalidated
    }
}

/// A way-extended branch target buffer (Inoue et al., paper reference
/// \[12\]): fully associative entries keyed by the *source packet* of a
/// control transfer, memoizing the target line and the way it resided in.
#[derive(Debug)]
pub struct Btb {
    geom: Geometry,
    entries: Vec<Option<BtbEntry>>,
    lru: waymem_cache::LruOrder,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BtbEntry {
    source: u32,
    target_base: u32,
    way: u32,
}

impl Btb {
    /// Creates an empty BTB with `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or exceeds 64.
    #[must_use]
    pub fn new(geom: Geometry, entries: usize) -> Self {
        Self {
            geom,
            entries: vec![None; entries],
            lru: waymem_cache::LruOrder::new(entries),
        }
    }

    /// Probes for a transfer from `source` to the line at `target_base`;
    /// returns the memoized way on a full match and refreshes recency.
    pub fn probe(&mut self, source: u32, target_base: u32) -> Option<u32> {
        let slot = self.entries.iter().position(|e| {
            matches!(e, Some(en) if en.source == source && en.target_base == target_base)
        })?;
        self.lru.touch(slot);
        self.entries[slot].map(|e| e.way)
    }

    /// Installs (or refreshes) the entry for `source`, replacing LRU.
    pub fn record(&mut self, source: u32, target_base: u32, way: u32) {
        let slot = self
            .entries
            .iter()
            .position(|e| matches!(e, Some(en) if en.source == source))
            .unwrap_or_else(|| self.lru.victim());
        self.entries[slot] = Some(BtbEntry {
            source,
            target_base,
            way,
        });
        self.lru.touch(slot);
    }

    /// A fill replaced the line at (`set`, `way`): drop entries pointing
    /// there.
    pub fn invalidate_target(&mut self, set: u32, way: u32) {
        let geom = self.geom;
        for e in &mut self.entries {
            if let Some(en) = e {
                if geom.index_of(en.target_base) == set && en.way == way {
                    *e = None;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> Geometry {
        Geometry::new(8, 2, 32).unwrap()
    }

    #[test]
    fn btb_round_trip_and_invalidation() {
        let g = geom();
        let mut b = Btb::new(g, 4);
        assert_eq!(b.probe(0x100, 0x200), None);
        b.record(0x100, 0x200, 1);
        assert_eq!(b.probe(0x100, 0x200), Some(1));
        assert_eq!(b.probe(0x100, 0x240), None, "target changed");
        b.invalidate_target(g.index_of(0x200), 1);
        assert_eq!(b.probe(0x100, 0x200), None);
    }

    #[test]
    fn btb_lru_replacement() {
        let g = geom();
        let mut b = Btb::new(g, 2);
        b.record(0x10, 0x100, 0);
        b.record(0x20, 0x200, 1);
        let _ = b.probe(0x10, 0x100); // refresh first entry
        b.record(0x30, 0x300, 0); // evicts 0x20
        assert_eq!(b.probe(0x20, 0x200), None);
        assert_eq!(b.probe(0x10, 0x100), Some(0));
        assert_eq!(b.probe(0x30, 0x300), Some(0));
    }

    #[test]
    fn btb_rekeying_same_source_updates_in_place() {
        let g = geom();
        let mut b = Btb::new(g, 2);
        b.record(0x10, 0x100, 0);
        b.record(0x10, 0x180, 1); // same branch, new target (e.g. indirect)
        assert_eq!(b.probe(0x10, 0x100), None);
        assert_eq!(b.probe(0x10, 0x180), Some(1));
    }

    #[test]
    fn links_round_trip_when_target_matches() {
        let g = geom();
        let mut t = LinkTable::new(g);
        t.set_seq(3, 0, 0x80, 1);
        assert_eq!(t.seq_way(3, 0, 0x80), Some(1));
        assert_eq!(t.seq_way(3, 0, 0xa0), None, "different target line");
        assert_eq!(t.branch_way(3, 0, 0x80), None, "branch link separate");
        t.set_branch(3, 0, 0x200, 0);
        assert_eq!(t.branch_way(3, 0, 0x200), Some(0));
    }

    #[test]
    fn replacement_invalidates_incoming_links() {
        let g = geom();
        let mut t = LinkTable::new(g);
        // Line at set 2, way 1 is the target of two links.
        let target_base = g.line_addr(5, 2);
        t.set_seq(1, 0, target_base, 1);
        t.set_branch(7, 1, target_base, 1);
        // And itself links elsewhere.
        t.set_seq(2, 1, 0x80, 0);
        t.invalidate_target(2, 1);
        assert_eq!(t.seq_way(1, 0, target_base), None);
        assert_eq!(t.branch_way(7, 1, target_base), None);
        assert_eq!(t.seq_way(2, 1, 0x80), None, "own links die too");
        assert_eq!(t.invalidated(), 2);
    }

    #[test]
    fn unrelated_links_survive_invalidation() {
        let g = geom();
        let mut t = LinkTable::new(g);
        t.set_seq(1, 0, g.line_addr(9, 4), 0);
        t.invalidate_target(4, 1); // same set, different way
        assert_eq!(t.seq_way(1, 0, g.line_addr(9, 4)), Some(0));
    }
}
