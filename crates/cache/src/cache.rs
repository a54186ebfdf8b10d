use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::lru::shift_to_front;
use crate::{Geometry, MainMemory};

/// The kind of data-side access, used for replacement/dirty semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// A read (load or instruction fetch).
    Load,
    /// A write (store). Write-allocate: a missing line is filled first.
    Store,
}

/// Description of a line evicted by a fill, needed by way-memoization
/// structures to stay consistent with the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EvictedLine {
    /// Tag of the evicted line.
    pub tag: u32,
    /// Set index the line lived in.
    pub index: u32,
    /// Way the line lived in (now occupied by the new line).
    pub way: u32,
    /// Whether the line was dirty and had to be written back.
    pub dirty: bool,
}

/// Result of a full cache access (probe + optional fill + LRU update).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessOutcome {
    /// Whether the line was already resident.
    pub hit: bool,
    /// The way holding the line after the access.
    pub way: u32,
    /// Set index of the access.
    pub index: u32,
    /// Whether the access hit the way its set had used most recently —
    /// what an MRU way predictor guesses. Always `false` on a miss.
    pub mru_hit: bool,
    /// Eviction information when a fill displaced a valid line.
    pub evicted: Option<EvictedLine>,
}

/// The tag of a way that holds no line. A line holds at least 4 bytes, so
/// real tags have at most 30 bits and never equal it.
pub(crate) const INVALID: u32 = u32::MAX;

/// A write-back, write-allocate, LRU set-associative cache holding only
/// the state the energy accounting reads: tags, valid and dirty bits, and
/// per-set recency.
///
/// Lines carry no bytes. Energy depends on residency, recency and dirty
/// state alone, so a fill or write-back moves nothing; it only counts one
/// line transfer on the [`MainMemory`] passed to [`access`](Self::access).
/// All state lives in flat arrays indexed by `set × ways + way`, so an
/// access allocates nothing.
///
/// State changes and accounting are decoupled: [`probe`](Self::probe) is a
/// side-effect-free residency check, [`access`](Self::access) performs the
/// architectural access (LRU update, fill on miss, write-back of dirty
/// victims), and the energy-relevant counts of tag/way activations are left
/// to the calling front-end, because they depend on the lookup *scheme*, not
/// on the cache state.
///
/// ```
/// use waymem_cache::{AccessKind, Geometry, MainMemory, SetAssocCache};
///
/// # fn main() -> Result<(), waymem_cache::GeometryError> {
/// let mut cache = SetAssocCache::new(Geometry::new(4, 2, 16)?);
/// let mut mem = MainMemory::new();
/// assert!(cache.probe(0x20).is_none());
/// let out = cache.access(0x20, AccessKind::Load, &mut mem);
/// assert_eq!((out.hit, out.way), (false, 0));
/// assert_eq!(cache.probe(0x20), Some(0));
/// assert_eq!(mem.block_reads(), 1); // one line fill
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SetAssocCache {
    geom: Geometry,
    /// The tag in every (set, way), [`INVALID`] where the way is empty.
    tags: Box<[u32]>,
    /// The dirty bit of every (set, way).
    dirty: Box<[bool]>,
    /// Per set, its ways ordered most recently used first.
    lru: Box<[u8]>,
    fills: u64,
    write_backs: u64,
}

impl SetAssocCache {
    /// Creates an empty (all-invalid) cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has more than 255 ways (recency keeps one
    /// byte per way).
    #[must_use]
    pub fn new(geom: Geometry) -> Self {
        let ways = u8::try_from(geom.ways()).expect("at most 255 ways");
        let lines = geom.sets() as usize * usize::from(ways);
        // Way 0 starts least recently used in every set, so it fills first.
        let order: Vec<u8> = (0..ways).rev().collect();
        Self {
            geom,
            tags: vec![INVALID; lines].into(),
            dirty: vec![false; lines].into(),
            lru: order.repeat(geom.sets() as usize).into(),
            fills: 0,
            write_backs: 0,
        }
    }

    /// The cache geometry.
    #[must_use]
    pub fn geometry(&self) -> Geometry {
        self.geom
    }

    /// The flat-array positions of set `index`'s ways.
    fn set(&self, index: u32) -> Range<usize> {
        let ways = self.geom.ways() as usize;
        let start = index as usize * ways;
        start..start + ways
    }

    /// Side-effect-free residency check: the way holding `addr`'s line, if
    /// resident. Does not update LRU state.
    #[must_use]
    pub fn probe(&self, addr: u32) -> Option<u32> {
        self.resident_way(self.geom.tag_of(addr), self.geom.index_of(addr))
    }

    /// Residency check by (tag, set index) rather than full address. Used by
    /// consistency property tests for the MAB.
    #[must_use]
    pub fn resident_way(&self, tag: u32, index: u32) -> Option<u32> {
        self.tags[self.set(index)]
            .iter()
            .position(|&t| t == tag)
            .map(|w| w as u32)
    }

    /// Performs an architectural access: on a hit touches LRU; on a miss
    /// evicts the LRU way, counting a write-back on `mem` if it was dirty,
    /// fills the line (counting a line read on `mem`), and touches LRU.
    /// Stores mark the line dirty.
    pub fn access(&mut self, addr: u32, kind: AccessKind, mem: &mut MainMemory) -> AccessOutcome {
        let index = self.geom.index_of(addr);
        let tag = self.geom.tag_of(addr);
        let set = self.set(index);
        // Search the ways most recently used first: a hit usually ends the
        // search early, and its rank is what the LRU update needs.
        let found = self.lru[set.clone()]
            .iter()
            .position(|&w| self.tags[set.start + usize::from(w)] == tag);
        let rank = found.unwrap_or(set.len() - 1);
        let way = u32::from(self.lru[set.start + rank]);
        let (hit, evicted) = match found {
            Some(_) => (true, None),
            None => {
                let line = set.start + way as usize;
                let evicted = (self.tags[line] != INVALID).then(|| EvictedLine {
                    tag: self.tags[line],
                    index,
                    way,
                    dirty: self.dirty[line],
                });
                if self.dirty[line] {
                    self.write_backs += 1;
                    mem.count_block_write();
                }
                self.tags[line] = tag;
                self.dirty[line] = false;
                self.fills += 1;
                mem.count_block_read();
                (false, evicted)
            }
        };
        if kind == AccessKind::Store {
            self.dirty[set.start + way as usize] = true;
        }
        shift_to_front(&mut self.lru[set], rank);
        AccessOutcome {
            hit,
            way,
            index,
            mru_hit: found == Some(0),
            evicted,
        }
    }

    /// Writes back every dirty line and marks them clean, counting one
    /// line write on `mem` each. Returns the number of lines written back.
    pub fn flush(&mut self, mem: &mut MainMemory) -> u64 {
        let mut flushed = 0;
        for dirty in self.dirty.iter_mut().filter(|d| **d) {
            *dirty = false;
            mem.count_block_write();
            flushed += 1;
        }
        self.write_backs += flushed;
        flushed
    }

    /// Total number of line fills performed (equals miss count).
    #[must_use]
    pub fn fills(&self) -> u64 {
        self.fills
    }

    /// Total number of dirty write-backs performed.
    #[must_use]
    pub fn write_backs(&self) -> u64 {
        self.write_backs
    }

    /// Number of valid lines currently resident.
    #[must_use]
    pub fn resident_lines(&self) -> u64 {
        self.tags.iter().filter(|&&t| t != INVALID).count() as u64
    }

    /// The LRU victim way of `index`'s set (the way the next fill will use).
    #[must_use]
    pub fn victim_way(&self, index: u32) -> u32 {
        u32::from(self.lru[self.set(index).end - 1])
    }

    /// The most-recently-used way of `index`'s set — what an MRU way
    /// predictor guesses.
    #[must_use]
    pub fn mru_way(&self, index: u32) -> u32 {
        u32::from(self.lru[self.set(index).start])
    }

    /// Tag stored in (`index`, `way`) when that way is valid.
    #[must_use]
    pub fn tag_at(&self, index: u32, way: u32) -> Option<u32> {
        let tag = self.tags[self.set(index).start + way as usize];
        (tag != INVALID).then_some(tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (SetAssocCache, MainMemory) {
        let geom = Geometry::new(4, 2, 16).unwrap();
        (SetAssocCache::new(geom), MainMemory::new())
    }

    #[test]
    fn cold_miss_then_hit() {
        let (mut cache, mut mem) = small();
        let out = cache.access(0x40, AccessKind::Load, &mut mem);
        assert!(!out.hit);
        assert_eq!(out.evicted, None);
        let out = cache.access(0x44, AccessKind::Load, &mut mem);
        assert!(out.hit, "same line must hit");
        assert_eq!(cache.fills(), 1);
        assert_eq!(mem.block_reads(), 1, "one line transfer, no bytes");
        assert_eq!(mem.resident_pages(), 0);
    }

    #[test]
    fn two_way_set_holds_two_conflicting_lines() {
        let (mut cache, mut mem) = small();
        // Same index (set 0), different tags: line size 16, 4 sets -> stride 64.
        cache.access(0x000, AccessKind::Load, &mut mem);
        cache.access(0x040, AccessKind::Load, &mut mem);
        assert!(cache.access(0x000, AccessKind::Load, &mut mem).hit);
        assert!(cache.access(0x040, AccessKind::Load, &mut mem).hit);
    }

    #[test]
    fn lru_eviction_order() {
        let (mut cache, mut mem) = small();
        cache.access(0x000, AccessKind::Load, &mut mem); // way 0... first fill
        cache.access(0x040, AccessKind::Load, &mut mem); // other way
        cache.access(0x000, AccessKind::Load, &mut mem); // touch 0x000 -> 0x040 is LRU
        let out = cache.access(0x080, AccessKind::Load, &mut mem); // evicts 0x040's line
        assert!(!out.hit);
        let ev = out.evicted.expect("a valid line was displaced");
        assert_eq!(ev.index, 0);
        let g = cache.geometry();
        assert_eq!(ev.tag, g.tag_of(0x040));
        assert!(cache.probe(0x000).is_some());
        assert!(cache.probe(0x040).is_none());
        assert!(cache.probe(0x080).is_some());
    }

    #[test]
    fn dirty_victim_is_written_back() {
        let (mut cache, mut mem) = small();
        cache.access(0x00, AccessKind::Store, &mut mem);
        // Evict line 0x00 by loading two more lines into set 0.
        cache.access(0x40, AccessKind::Load, &mut mem);
        let out = cache.access(0x80, AccessKind::Load, &mut mem);
        assert!(cache.probe(0x00).is_none());
        assert!(out.evicted.is_some_and(|e| e.dirty && e.tag == 0));
        assert_eq!(cache.write_backs(), 1);
        assert_eq!(mem.block_writes(), 1, "the write-back is one line transfer");
    }

    #[test]
    fn clean_victim_is_not_written_back() {
        let (mut cache, mut mem) = small();
        cache.access(0x00, AccessKind::Load, &mut mem);
        cache.access(0x40, AccessKind::Load, &mut mem);
        cache.access(0x80, AccessKind::Load, &mut mem);
        assert_eq!(cache.write_backs(), 0);
        assert_eq!(mem.block_writes(), 0);
    }

    #[test]
    fn store_miss_allocates_and_dirties() {
        let (mut cache, mut mem) = small();
        let out = cache.access(0x20, AccessKind::Store, &mut mem);
        assert!(!out.hit);
        assert_eq!(cache.probe(0x20), Some(out.way));
        // Force eviction: the allocated line leaves dirty.
        cache.access(0x60, AccessKind::Load, &mut mem);
        let out = cache.access(0xa0, AccessKind::Load, &mut mem);
        assert!(out.evicted.is_some_and(|e| e.dirty));
        assert_eq!(cache.write_backs(), 1);
    }

    #[test]
    fn flush_writes_all_dirty_lines() {
        let (mut cache, mut mem) = small();
        cache.access(0x00, AccessKind::Store, &mut mem);
        cache.access(0x10, AccessKind::Store, &mut mem);
        cache.access(0x20, AccessKind::Load, &mut mem);
        let flushed = cache.flush(&mut mem);
        assert_eq!(flushed, 2);
        assert_eq!(mem.block_writes(), 2);
        // Lines stay resident and clean.
        assert!(cache.probe(0x00).is_some());
        assert_eq!(cache.flush(&mut mem), 0);
        assert_eq!(cache.write_backs(), 2);
    }

    #[test]
    fn probe_is_side_effect_free() {
        let (mut cache, mut mem) = small();
        cache.access(0x000, AccessKind::Load, &mut mem);
        cache.access(0x040, AccessKind::Load, &mut mem);
        // Probing 0x000 must NOT refresh its recency.
        for _ in 0..8 {
            let _ = cache.probe(0x000);
        }
        // 0x000 is still LRU (0x040 was touched last) -> it gets evicted.
        cache.access(0x080, AccessKind::Load, &mut mem);
        assert!(cache.probe(0x000).is_none());
        assert!(cache.probe(0x040).is_some());
    }

    #[test]
    fn resident_way_matches_probe() {
        let (mut cache, mut mem) = small();
        cache.access(0x5_0040, AccessKind::Load, &mut mem);
        let g = cache.geometry();
        assert_eq!(
            cache.resident_way(g.tag_of(0x5_0040), g.index_of(0x5_0040)),
            cache.probe(0x5_0040)
        );
    }

    #[test]
    fn functional_equivalence_with_flat_memory() {
        // Random-ish access pattern. The CPU's data lives in memory; the
        // cache in front of it must leave that memory equal to a flat one
        // with no cache, and count exactly the line transfers it makes.
        let (mut cache, mut mem) = small();
        let mut flat = MainMemory::new();
        let mut x: u32 = 0x2024_0611;
        for i in 0..2000u32 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            let addr = (x % 0x400) & !3;
            if x & 1 == 0 {
                cache.access(addr, AccessKind::Store, &mut mem);
                mem.write_u32(addr, i);
                flat.write_u32(addr, i);
            } else {
                cache.access(addr, AccessKind::Load, &mut mem);
                let (got, want) = (mem.read_u32(addr), flat.read_u32(addr));
                assert_eq!(got, want, "addr {addr:#x} iteration {i}");
            }
            assert!(cache.probe(addr).is_some(), "line resident after access");
        }
        cache.flush(&mut mem);
        for addr in (0..0x400).step_by(4) {
            assert_eq!(mem.read_u32(addr), flat.read_u32(addr));
        }
        assert_eq!(mem.resident_pages(), flat.resident_pages());
        assert_eq!(mem.block_reads(), cache.fills());
        assert_eq!(mem.block_writes(), cache.write_backs());
        assert_eq!(cache.flush(&mut mem), 0, "flush leaves every line clean");
    }
}
