use serde::{Deserialize, Serialize};

/// Tracks a true least-recently-used order over `n` slots (rows/columns of
/// a MAB, entries of a set or line buffer).
///
/// The paper updates MAB entries "using Least Recently Used (LRU) policy"
/// (§3.3, citing Hennessy & Patterson), and the FR-V caches are LRU as well.
/// Capacities in this system are tiny (2–32), so the order is kept as an
/// explicit most-recent-first permutation in a fixed array; `touch` is a
/// short scan and a shift, which beats any pointer structure at these
/// sizes.
///
/// ```
/// use waymem_cache::LruOrder;
///
/// let mut lru = LruOrder::new(4);
/// assert_eq!(lru.victim(), 0); // after reset, slot 0 fills first
/// lru.touch(0);
/// assert_eq!(lru.victim(), 1);
/// assert_eq!(lru.mru(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LruOrder {
    /// Slot indices ordered most-recently-used first; only the first
    /// `len` entries are meaningful.
    order: [u8; Self::CAPACITY],
    len: u8,
}

impl LruOrder {
    /// The most slots one order can track.
    pub const CAPACITY: usize = 64;

    /// Creates an order over `n` slots. Slot 0 starts least recently used
    /// (so way 0 fills first after reset) and slot `n - 1` most recently
    /// used.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds [`CAPACITY`](Self::CAPACITY).
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(
            n > 0 && n <= Self::CAPACITY,
            "LRU capacity {n} out of range 1..={}",
            Self::CAPACITY
        );
        let mut order = [0; Self::CAPACITY];
        for (slot, o) in (0..n as u8).rev().zip(&mut order) {
            *o = slot;
        }
        Self {
            order,
            len: n as u8,
        }
    }

    fn slots(&self) -> &[u8] {
        &self.order[..usize::from(self.len)]
    }

    /// Number of slots tracked.
    #[must_use]
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// Always `false`: an order over zero slots cannot be constructed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Marks `slot` as most recently used.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= len()`.
    pub fn touch(&mut self, slot: usize) {
        let rank = position(self.slots(), slot);
        self.touch_rank(rank);
    }

    /// The least-recently-used slot — the replacement victim.
    #[must_use]
    pub fn victim(&self) -> usize {
        usize::from(self.order[usize::from(self.len) - 1])
    }

    /// The most-recently-used slot.
    #[must_use]
    pub fn mru(&self) -> usize {
        usize::from(self.order[0])
    }

    /// Slots ordered most-recently-used first.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.slots().iter().map(|&s| usize::from(s))
    }

    /// Searches the slots in recency order, most recent first, for one
    /// satisfying `pred`; returns its `(rank, slot)`. Searching in recency
    /// order finds recently used entries after a step or two, and the rank
    /// lets [`touch_rank`](Self::touch_rank) skip a second search.
    pub fn find(&self, mut pred: impl FnMut(usize) -> bool) -> Option<(usize, usize)> {
        self.iter().enumerate().find(|&(_, slot)| pred(slot))
    }

    /// Marks the slot at recency `rank` as most recently used.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= len()`.
    pub fn touch_rank(&mut self, rank: usize) {
        shift_to_front(&mut self.order[..usize::from(self.len)], rank);
    }

    /// Recency rank of `slot` (0 = MRU, `len()-1` = LRU).
    ///
    /// # Panics
    ///
    /// Panics if `slot >= len()`.
    #[must_use]
    pub fn rank_of(&self, slot: usize) -> usize {
        position(self.slots(), slot)
    }
}

/// Moves the entry at `rank` of the most-recent-first permutation `order`
/// to the front. [`SetAssocCache`](crate::SetAssocCache) keeps one such
/// permutation per set in a flat array and updates it with this function.
pub(crate) fn shift_to_front(order: &mut [u8], rank: usize) {
    let slot = order[rank];
    for i in (0..rank).rev() {
        order[i + 1] = order[i];
    }
    order[0] = slot;
}

fn position(order: &[u8], slot: usize) -> usize {
    order
        .iter()
        .position(|&s| usize::from(s) == slot)
        .expect("slot within capacity")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_order_fills_slot_zero_first() {
        let lru = LruOrder::new(3);
        assert_eq!(lru.iter().collect::<Vec<_>>(), vec![2, 1, 0]);
        assert_eq!(lru.victim(), 0);
        assert_eq!(lru.mru(), 2);
        assert_eq!(lru.len(), 3);
    }

    #[test]
    fn touch_moves_to_front_preserving_relative_order() {
        let mut lru = LruOrder::new(4);
        lru.touch(2); // [3,2,1,0] -> [2,3,1,0]
        assert_eq!(lru.iter().collect::<Vec<_>>(), vec![2, 3, 1, 0]);
        lru.touch(0);
        assert_eq!(lru.iter().collect::<Vec<_>>(), vec![0, 2, 3, 1]);
        assert_eq!(lru.victim(), 1);
    }

    #[test]
    fn touch_is_idempotent_on_mru() {
        let mut lru = LruOrder::new(2);
        lru.touch(1);
        lru.touch(1);
        assert_eq!(lru.mru(), 1);
        assert_eq!(lru.victim(), 0);
    }

    #[test]
    fn rank_of_tracks_positions() {
        let mut lru = LruOrder::new(4);
        lru.touch(0); // [0,3,2,1]
        assert_eq!(lru.rank_of(0), 0);
        assert_eq!(lru.rank_of(3), 1);
        assert_eq!(lru.rank_of(1), 3);
    }

    #[test]
    fn find_searches_most_recent_first_and_touch_rank_promotes() {
        let mut lru = LruOrder::new(4); // [3,2,1,0]
        assert_eq!(lru.find(|s| s % 2 == 0), Some((1, 2)));
        assert_eq!(lru.find(|s| s > 3), None);
        lru.touch_rank(3); // slot 0 -> [0,3,2,1]
        assert_eq!(lru.iter().collect::<Vec<_>>(), vec![0, 3, 2, 1]);
    }

    #[test]
    fn single_slot_is_its_own_victim() {
        let mut lru = LruOrder::new(1);
        assert_eq!(lru.victim(), 0);
        lru.touch(0);
        assert_eq!(lru.victim(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_capacity_panics() {
        let _ = LruOrder::new(0);
    }

    #[test]
    #[should_panic(expected = "slot within capacity")]
    fn touching_out_of_range_panics() {
        let mut lru = LruOrder::new(2);
        lru.touch(2);
    }

    #[test]
    fn lru_sequence_matches_reference_model() {
        // Reference model: vector of timestamps.
        let n = 5;
        let mut lru = LruOrder::new(n);
        let mut stamp = vec![0u64; n];
        // Initial recency: slot 0 oldest (the reset victim).
        for (i, s) in stamp.iter_mut().enumerate() {
            *s = (i + 1) as u64;
        }
        let touches = [3usize, 1, 4, 1, 0, 2, 2, 4, 3, 0, 1];
        for (t, &slot) in (n as u64 + 1..).zip(touches.iter()) {
            lru.touch(slot);
            stamp[slot] = t;
            let expect_victim = stamp
                .iter()
                .enumerate()
                .min_by_key(|&(_, &s)| s)
                .map(|(i, _)| i)
                .unwrap();
            assert_eq!(lru.victim(), expect_victim);
        }
    }
}
