use std::ops::AddAssign;

use serde::{Deserialize, Serialize};

/// Energy-relevant access counters for one cache under one lookup scheme.
///
/// These are the quantities the paper's Figures 4 and 6 plot (tag accesses
/// and way accesses per cache access) and that Eq. (1) converts into power.
/// A front-end counts each access, its lookup's tag and way activations
/// and its hit, miss (with the one fill write per miss that `way_reads`
/// includes) and write-back from the outcome of the one cache access
/// behind it ([`AccessOutcome`](crate::AccessOutcome)), so they are
/// exactly what the cache did; an access that skips or repeats its
/// outcome breaks `hits + misses == accesses`, which
/// [`is_consistent`](Self::is_consistent) checks.
///
/// ```
/// use waymem_cache::AccessStats;
///
/// let mut s = AccessStats::default();
/// s.accesses = 10;
/// s.tag_reads = 20;
/// s.way_reads = 17;
/// assert!((s.tags_per_access() - 2.0).abs() < 1e-12);
/// assert!((s.ways_per_access() - 1.7).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessStats {
    /// Cache accesses observed by the front-end (fetch packets for the
    /// I-cache, loads + stores for the D-cache).
    pub accesses: u64,
    /// Individual tag-array activations (a conventional W-way lookup costs W).
    pub tag_reads: u64,
    /// Individual data-way activations: reads plus write activations plus
    /// fill writes.
    pub way_reads: u64,
    /// Accesses that hit in the cache.
    pub hits: u64,
    /// Accesses that missed and triggered a line fill.
    pub misses: u64,
    /// MAB lookups that hit (way memoization scheme only, else 0).
    pub mab_hits: u64,
    /// MAB lookups performed (way memoization scheme only, else 0).
    pub mab_lookups: u64,
    /// Accesses short-circuited by intra-line sequential-flow memoization
    /// (I-cache schemes), needing no tag access.
    pub intra_line_skips: u64,
    /// Lookups served by an auxiliary buffer (set buffer / line buffer),
    /// costing buffer energy instead of array energy.
    pub buffer_hits: u64,
    /// Dirty lines written back to memory.
    pub write_backs: u64,
    /// Memoized-way hits that turned out to point at a stale location
    /// (only possible in deliberately unsound consistency modes used to
    /// probe the paper's §3.3 LRU argument; always 0 otherwise).
    pub unsound_hits: u64,
}

impl AccessStats {
    /// Creates zeroed counters (same as `default`, provided per C-CTOR).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Average tag-array activations per cache access (Figures 4 and 6,
    /// upper bars). Returns 0 when no accesses were recorded.
    #[must_use]
    pub fn tags_per_access(&self) -> f64 {
        ratio(self.tag_reads, self.accesses)
    }

    /// Average data-way activations per cache access (Figures 4 and 6,
    /// lower bars). Returns 0 when no accesses were recorded.
    #[must_use]
    pub fn ways_per_access(&self) -> f64 {
        ratio(self.way_reads, self.accesses)
    }

    /// Cache hit rate in [0, 1]. Returns 0 when no accesses were recorded.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        ratio(self.hits, self.accesses)
    }

    /// MAB hit rate in [0, 1] over MAB lookups (not over all accesses).
    #[must_use]
    pub fn mab_hit_rate(&self) -> f64 {
        ratio(self.mab_hits, self.mab_lookups)
    }

    /// Checks internal consistency: hits + misses = accesses, and hit/lookup
    /// counters never exceed their denominators.
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        self.hits + self.misses == self.accesses
            && self.mab_hits <= self.mab_lookups
            && self.misses <= self.accesses
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl AddAssign for AccessStats {
    fn add_assign(&mut self, rhs: Self) {
        self.accesses += rhs.accesses;
        self.tag_reads += rhs.tag_reads;
        self.way_reads += rhs.way_reads;
        self.hits += rhs.hits;
        self.misses += rhs.misses;
        self.mab_hits += rhs.mab_hits;
        self.mab_lookups += rhs.mab_lookups;
        self.intra_line_skips += rhs.intra_line_skips;
        self.buffer_hits += rhs.buffer_hits;
        self.write_backs += rhs.write_backs;
        self.unsound_hits += rhs.unsound_hits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_stats_have_zero_ratios() {
        let s = AccessStats::new();
        assert_eq!(s.tags_per_access(), 0.0);
        assert_eq!(s.ways_per_access(), 0.0);
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.mab_hit_rate(), 0.0);
        assert!(s.is_consistent());
    }

    #[test]
    fn add_assign_accumulates_all_fields() {
        let mut a = AccessStats {
            accesses: 1,
            tag_reads: 2,
            way_reads: 3,
            hits: 1,
            misses: 0,
            mab_hits: 1,
            mab_lookups: 1,
            intra_line_skips: 4,
            buffer_hits: 5,
            write_backs: 6,
            unsound_hits: 0,
        };
        let b = a;
        a += b;
        assert_eq!(a.accesses, 2);
        assert_eq!(a.tag_reads, 4);
        assert_eq!(a.way_reads, 6);
        assert_eq!(a.hits, 2);
        assert_eq!(a.intra_line_skips, 8);
        assert_eq!(a.buffer_hits, 10);
        assert_eq!(a.write_backs, 12);
        assert!(a.is_consistent());
    }

    #[test]
    fn inconsistency_is_detected() {
        let s = AccessStats {
            accesses: 2,
            hits: 1,
            misses: 0,
            ..AccessStats::default()
        };
        assert!(!s.is_consistent());
        let s = AccessStats {
            mab_hits: 3,
            mab_lookups: 2,
            ..AccessStats::default()
        };
        assert!(!s.is_consistent());
    }
}
