use serde::{Deserialize, Serialize};

use crate::cache::INVALID;
use crate::LruOrder;

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
/// This model keeps only which sets are buffered, in LRU order, not their
/// tag rows. A buffered row always equals the cache's row: an access to a
/// buffered set either matches a buffered tag, which changes no tag, or
/// misses the buffer, and a buffer miss always refills the set's copy from
/// the cache after the access. So the buffer names the way exactly when
/// the set is buffered and the cache holds the line, and
/// [`lookup`](Self::lookup) takes the cache's answer.
///
/// ```
/// use waymem_cache::{SetBuffer, SetBufferLookup};
///
/// let mut sb = SetBuffer::new(1);
/// assert_eq!(sb.lookup(7, Some(1)), SetBufferLookup::SetMiss);
/// sb.refill(7);
/// assert_eq!(sb.lookup(7, Some(1)), SetBufferLookup::WayKnown(1));
/// assert_eq!(sb.lookup(7, None), SetBufferLookup::SetKnownTagMiss);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SetBuffer {
    /// The set index buffered in each slot, [`INVALID`] for an empty slot.
    sets: Box<[u32]>,
    lru: LruOrder,
}

impl SetBuffer {
    /// Creates a buffer tracking up to `entries` sets.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    #[must_use]
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0, "set buffer needs at least one entry");
        Self { sets: vec![INVALID; entries].into(), lru: LruOrder::new(entries) }
    }

    /// Probes the buffer for set `index` on an access whose line the
    /// cache holds in way `resident` (`None` when it does not).
    pub fn lookup(&mut self, index: u32, resident: Option<u32>) -> SetBufferLookup {
        let Some(slot) = self.slot_of(index) else {
            return SetBufferLookup::SetMiss;
        };
        self.lru.touch(slot);
        resident.map_or(SetBufferLookup::SetKnownTagMiss, SetBufferLookup::WayKnown)
    }

    /// Installs (or refreshes) the buffered copy of set `index` after a
    /// buffer miss, replacing the LRU slot if the set was not buffered.
    pub fn refill(&mut self, index: u32) {
        let slot = self.slot_of(index).unwrap_or_else(|| self.lru.victim());
        self.sets[slot] = index;
        self.lru.touch(slot);
    }

    fn slot_of(&self, index: u32) -> Option<usize> {
        self.sets.iter().position(|&s| s == index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_refill_then_way_hit() {
        let mut sb = SetBuffer::new(2);
        assert_eq!(sb.lookup(3, Some(1)), SetBufferLookup::SetMiss);
        sb.refill(3);
        assert_eq!(sb.lookup(3, Some(1)), SetBufferLookup::WayKnown(1));
    }

    #[test]
    fn same_set_different_tag_is_tag_miss() {
        let mut sb = SetBuffer::new(2);
        sb.refill(3);
        assert_eq!(sb.lookup(3, None), SetBufferLookup::SetKnownTagMiss);
    }

    #[test]
    fn lru_replacement_of_sets() {
        let mut sb = SetBuffer::new(2);
        sb.refill(0);
        sb.refill(1);
        let _ = sb.lookup(0, Some(0)); // touch set 0
        sb.refill(2); // evicts set 1
        assert_eq!(sb.lookup(1, Some(0)), SetBufferLookup::SetMiss);
        assert_eq!(sb.lookup(0, Some(0)), SetBufferLookup::WayKnown(0));
    }
}
