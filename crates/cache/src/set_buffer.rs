use serde::{Deserialize, Serialize};

use crate::cache::INVALID;
use crate::{Geometry, LruOrder};

/// Outcome of a [`SetBuffer`] probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SetBufferLookup {
    /// The accessed set is buffered and the tag matched: the way is known
    /// without touching the tag arrays.
    WayKnown(u32),
    /// The accessed set is buffered but no buffered tag matched. The buffer
    /// proves the line's way is *not* among the buffered ways, but a full
    /// lookup is still required.
    SetKnownTagMiss,
    /// The accessed set is not buffered at all.
    SetMiss,
}

/// Yang, Yu & Zhang's *lightweight set buffer* (paper approach \[14\]), the
/// D-cache baseline of Figures 4–5.
///
/// The buffer keeps, for each of a few most-recently-used **sets**, a copy of
/// the tags of every way of that set. A subsequent access to a buffered set
/// compares against the small buffered tags instead of activating the
/// cache's tag arrays, and on a match activates only the matching data way.
/// Unlike an L0 cache there is no extra-cycle penalty on a buffer miss
/// (the full lookup proceeds as usual), but unlike the MAB the scheme
/// "cannot exploit inter-cache-line access locality" — a stream touching a
/// new set every access gets nothing.
///
/// The buffered copies live in flat arrays sized once at construction, so
/// a refill copies the cache's tag row in place and allocates nothing.
///
/// ```
/// use waymem_cache::{Geometry, SetBuffer, SetBufferLookup};
///
/// let g = Geometry::frv();
/// let mut sb = SetBuffer::new(g, 1);
/// let addr = 0x0001_2340;
/// assert_eq!(sb.lookup(addr), SetBufferLookup::SetMiss);
/// sb.refill(g.index_of(addr), [Some(g.tag_of(addr)), None]);
/// assert_eq!(sb.lookup(addr), SetBufferLookup::WayKnown(0));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SetBuffer {
    geom: Geometry,
    /// The set index buffered in each slot, [`INVALID`] for an empty slot.
    sets: Box<[u32]>,
    /// Per slot, the tag of every way of its set ([`INVALID`] = invalid way).
    tags: Box<[u32]>,
    lru: LruOrder,
    lookups: u64,
    way_hits: u64,
}

impl SetBuffer {
    /// Creates a buffer tracking up to `entries` sets of a cache shaped by
    /// `geom`.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    #[must_use]
    pub fn new(geom: Geometry, entries: usize) -> Self {
        assert!(entries > 0, "set buffer needs at least one entry");
        Self {
            geom,
            sets: vec![INVALID; entries].into(),
            tags: vec![INVALID; entries * geom.ways() as usize].into(),
            lru: LruOrder::new(entries),
            lookups: 0,
            way_hits: 0,
        }
    }

    /// The buffered tags of `slot`, one per cache way.
    fn row(&mut self, slot: usize) -> &mut [u32] {
        let ways = self.geom.ways() as usize;
        &mut self.tags[slot * ways..(slot + 1) * ways]
    }

    /// Probes the buffer for `addr`'s set and tag.
    pub fn lookup(&mut self, addr: u32) -> SetBufferLookup {
        self.lookups += 1;
        let index = self.geom.index_of(addr);
        let tag = self.geom.tag_of(addr);
        let Some(slot) = self.slot_of(index) else {
            return SetBufferLookup::SetMiss;
        };
        self.lru.touch(slot);
        match self.row(slot).iter().position(|&t| t == tag) {
            Some(way) => {
                self.way_hits += 1;
                SetBufferLookup::WayKnown(way as u32)
            }
            None => SetBufferLookup::SetKnownTagMiss,
        }
    }

    /// Installs (or refreshes) the buffered copy of set `index` with the
    /// cache's current per-way tags (`None` for an invalid way), replacing
    /// the LRU slot if the set was not buffered.
    ///
    /// # Panics
    ///
    /// Panics unless `tags` yields exactly one tag per cache way.
    pub fn refill(&mut self, index: u32, tags: impl IntoIterator<Item = Option<u32>>) {
        let slot = self.slot_of(index).unwrap_or_else(|| self.lru.victim());
        self.sets[slot] = index;
        let mut tags = tags.into_iter();
        for t in self.row(slot) {
            *t = tags
                .next()
                .expect("one tag per cache way")
                .unwrap_or(INVALID);
        }
        assert!(tags.next().is_none(), "one tag per cache way");
        self.lru.touch(slot);
    }

    /// Probes performed.
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Probes resolved with [`SetBufferLookup::WayKnown`].
    #[must_use]
    pub fn way_hits(&self) -> u64 {
        self.way_hits
    }

    fn slot_of(&self, index: u32) -> Option<usize> {
        self.sets.iter().position(|&s| s == index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Geometry, SetBuffer) {
        let g = Geometry::new(16, 2, 16).unwrap();
        (g, SetBuffer::new(g, 2))
    }

    #[test]
    fn miss_then_refill_then_way_hit() {
        let (g, mut sb) = setup();
        let addr = 0x1230;
        assert_eq!(sb.lookup(addr), SetBufferLookup::SetMiss);
        sb.refill(g.index_of(addr), [None, Some(g.tag_of(addr))]);
        assert_eq!(sb.lookup(addr), SetBufferLookup::WayKnown(1));
        assert_eq!(sb.way_hits(), 1);
    }

    #[test]
    fn same_set_different_tag_is_tag_miss() {
        let (g, mut sb) = setup();
        let a = 0x0030; // set from bits [7:4]
        let b = a + g.sets() * g.line_bytes(); // same index, different tag
        assert_eq!(g.index_of(a), g.index_of(b));
        sb.refill(g.index_of(a), [Some(g.tag_of(a)), None]);
        assert_eq!(sb.lookup(b), SetBufferLookup::SetKnownTagMiss);
    }

    #[test]
    fn lru_replacement_of_sets() {
        let (g, mut sb) = setup();
        sb.refill(0, [Some(1), None]);
        sb.refill(1, [Some(1), None]);
        let _ = sb.lookup(g.line_addr(1, 0)); // touch set 0
        sb.refill(2, [Some(1), None]); // evicts set 1
        assert_eq!(sb.lookup(g.line_addr(1, 1)), SetBufferLookup::SetMiss);
        assert_eq!(
            sb.lookup(g.line_addr(1, 0)),
            SetBufferLookup::WayKnown(0)
        );
    }
}
