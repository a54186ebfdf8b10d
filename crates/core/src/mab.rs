use serde::{Deserialize, Serialize};
use waymem_cache::LruOrder;

use crate::{Cflag, DispClass, LowAdd, MabConfig, SmallAdder};

/// Outcome of a MAB probe for one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MabLookup {
    /// Both comparators matched and the pair is valid: the cache may skip
    /// every tag array and activate only `way`.
    Hit {
        /// The memoized way holding the line.
        way: u32,
        /// Set index reconstructed by the narrow adder.
        set_index: u32,
        /// Line offset reconstructed by the narrow adder.
        offset: u32,
    },
    /// No valid memoized pair; the cache performs a conventional lookup and
    /// should then call [`Mab::record`] with the resolved way.
    Miss {
        /// Whether a tag row matched (hit for the tag comparator).
        row_hit: bool,
        /// Whether a set-index column matched.
        col_hit: bool,
        /// Set index reconstructed by the narrow adder.
        set_index: u32,
    },
    /// The displacement's upper bits are neither all-0 nor all-1: the MAB
    /// datapath cannot reconstruct the address, so it is bypassed entirely
    /// (no update either).
    Wide,
}

impl MabLookup {
    /// `true` for [`MabLookup::Hit`].
    #[must_use]
    pub fn is_hit(&self) -> bool {
        matches!(self, MabLookup::Hit { .. })
    }
}

/// What [`Mab::record`] did to the structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecordOutcome {
    /// Row used for the pair (index into tag entries).
    pub row: usize,
    /// Column used for the pair (index into set-index entries).
    pub col: usize,
    /// Whether an existing tag row matched (update case 1 or 3 of §3.3).
    pub row_reused: bool,
    /// Whether an existing set-index column matched (update case 1 or 2).
    pub col_reused: bool,
}

/// Running counters of MAB behaviour, independent of any cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MabStats {
    /// Probes with a narrow displacement.
    pub lookups: u64,
    /// Probes answered with a valid memoized way.
    pub hits: u64,
    /// Probes rejected because the displacement was wide.
    pub wide_bypasses: u64,
    /// Tag-row comparator matches.
    pub row_hits: u64,
    /// Set-index comparator matches.
    pub col_hits: u64,
    /// Tag rows displaced by LRU replacement.
    pub row_replacements: u64,
    /// Set-index columns displaced by LRU replacement.
    pub col_replacements: u64,
    /// Pairs cleared by [`Mab::invalidate_location`].
    pub invalidated_pairs: u64,
}

impl MabStats {
    /// Hit rate over narrow-displacement probes, in [0, 1].
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

/// Marks an unused tag row. Row contents are `base_tag << 2 | cflag`, at
/// most 34 bits, so no real row equals it.
const EMPTY_ROW: u64 = u64::MAX;
/// Marks an unused set-index column (real set indices fit in 31 bits).
const EMPTY_COL: u32 = u32::MAX;
const MAX: usize = MabConfig::MAX_ENTRIES;

/// The Memory Address Buffer: `N_t` tag rows × `N_s` set-index columns with
/// a validity/way matrix, per §3.3 of the paper.
///
/// The structure is cache-agnostic: it memoizes (address → way) mappings
/// and relies on its owner (the cache front-end in `waymem-sim`) to call
/// [`invalidate_location`](Self::invalidate_location) whenever the cache
/// replaces a line, which keeps every valid pair pointing at a resident
/// line. See the crate docs for the soundness argument.
///
/// Like the hardware, it lives in fixed arrays: the row and column
/// entries, one 64-bit mask of valid columns per row (the `vflag`
/// matrix) and the memoized way of every pair. A probe searches at most
/// `N_t` rows and `N_s` columns, most recently used first, and tests one
/// bit.
///
/// ```
/// use waymem_core::{Mab, MabConfig, MabLookup};
///
/// let mut mab = Mab::new(MabConfig::paper_dcache());
/// mab.record(0x8000, 4, 0);
/// match mab.lookup(0x8000, 4) {
///     MabLookup::Hit { way, .. } => assert_eq!(way, 0),
///     other => panic!("expected hit, got {other:?}"),
/// }
/// // The cache replaced that line: the pair must die with it.
/// let set_index = 0x8004 >> 5 & 0x1ff;
/// mab.invalidate_location(set_index, 0);
/// assert!(!mab.lookup(0x8000, 4).is_hit());
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mab {
    cfg: MabConfig,
    adder: SmallAdder,
    /// Tag row contents, `base_tag << 2 | cflag`, or [`EMPTY_ROW`].
    rows: [u64; MAX],
    /// Set index of each column, or [`EMPTY_COL`].
    cols: [u32; MAX],
    /// Bit `c` of `valid[r]` is `vflag[r][c]`.
    valid: [u64; MAX],
    /// The memoized way of pair (`r`, `c`), meaningful while it is valid.
    ways: [[u8; MAX]; MAX],
    row_lru: LruOrder,
    col_lru: LruOrder,
    stats: MabStats,
}

impl Mab {
    /// Creates an empty MAB.
    #[must_use]
    pub fn new(cfg: MabConfig) -> Self {
        Self {
            cfg,
            adder: SmallAdder::new(cfg.geometry()),
            rows: [EMPTY_ROW; MAX],
            cols: [EMPTY_COL; MAX],
            valid: [0; MAX],
            ways: [[0; MAX]; MAX],
            row_lru: LruOrder::new(cfg.tag_entries()),
            col_lru: LruOrder::new(cfg.set_entries()),
            stats: MabStats::default(),
        }
    }

    /// The configuration this MAB was built with.
    #[must_use]
    pub fn config(&self) -> MabConfig {
        self.cfg
    }

    /// The narrow-adder datapath model.
    #[must_use]
    pub fn adder(&self) -> SmallAdder {
        self.adder
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> MabStats {
        self.stats
    }

    /// Resets statistics without touching MAB contents.
    pub fn reset_stats(&mut self) {
        self.stats = MabStats::default();
    }

    /// The tag row an access `base + disp` with narrow-adder result `r`
    /// compares against: base tag and [`Cflag`].
    fn row_of(&self, base: u32, r: LowAdd) -> u64 {
        let cflag = Cflag {
            carry: r.carry,
            negative: r.class == DispClass::Ones,
        };
        u64::from(self.cfg.geometry().tag_of(base)) << 2 | u64::from(cflag.encode())
    }

    /// The `(rank, slot)` of the tag row holding `row`, searched most
    /// recently used first.
    fn find_row(&self, row: u64) -> Option<(usize, usize)> {
        self.row_lru.find(|r| self.rows[r] == row)
    }

    /// The `(rank, slot)` of the column holding `set_index`.
    fn find_col(&self, set_index: u32) -> Option<(usize, usize)> {
        self.col_lru.find(|c| self.cols[c] == set_index)
    }

    /// Probes the MAB for the access `base + disp`.
    ///
    /// On a [`MabLookup::Hit`] the matched row and column become most
    /// recently used (the probe is the use). Misses do not change recency;
    /// the subsequent [`record`](Self::record) call does.
    pub fn lookup(&mut self, base: u32, disp: i32) -> MabLookup {
        let r = self.adder.add(base, disp);
        if r.class == DispClass::Wide {
            self.stats.wide_bypasses += 1;
            return MabLookup::Wide;
        }
        self.stats.lookups += 1;
        let row = self.find_row(self.row_of(base, r));
        let col = self.find_col(r.set_index);
        self.stats.row_hits += u64::from(row.is_some());
        self.stats.col_hits += u64::from(col.is_some());
        if let (Some((row_rank, row)), Some((col_rank, col))) = (row, col) {
            if self.valid[row] >> col & 1 == 1 {
                self.stats.hits += 1;
                self.row_lru.touch_rank(row_rank);
                self.col_lru.touch_rank(col_rank);
                return MabLookup::Hit {
                    way: u32::from(self.ways[row][col]),
                    set_index: r.set_index,
                    offset: r.offset,
                };
            }
        }
        MabLookup::Miss {
            row_hit: row.is_some(),
            col_hit: col.is_some(),
            set_index: r.set_index,
        }
    }

    /// Records that the access `base + disp` resolved to `way` in the cache,
    /// applying the four update cases of §3.3:
    ///
    /// 1. row hit, column hit → set `vflag[r][c]`;
    /// 2. row miss, column hit → replace LRU row (clearing its vflags),
    ///    then set `vflag[r][c]`;
    /// 3. row hit, column miss → replace LRU column (clearing its vflags),
    ///    then set `vflag[r][c]`;
    /// 4. both miss → replace LRU row and LRU column, then set
    ///    `vflag[r][c]`.
    ///
    /// Returns `None` (and records nothing) for wide displacements, which
    /// the hardware cannot represent.
    ///
    /// # Panics
    ///
    /// Panics if `way` exceeds 255.
    pub fn record(&mut self, base: u32, disp: i32, way: u32) -> Option<RecordOutcome> {
        let r = self.adder.add(base, disp);
        if r.class == DispClass::Wide {
            return None;
        }
        let row_key = self.row_of(base, r);
        let (row_rank, row, row_reused) = match self.find_row(row_key) {
            Some((rank, row)) => (rank, row, true),
            None => {
                let victim = self.row_lru.victim();
                self.rows[victim] = row_key;
                self.valid[victim] = 0;
                self.stats.row_replacements += 1;
                (self.row_lru.len() - 1, victim, false)
            }
        };
        let (col_rank, col, col_reused) = match self.find_col(r.set_index) {
            Some((rank, col)) => (rank, col, true),
            None => {
                let victim = self.col_lru.victim();
                self.cols[victim] = r.set_index;
                for mask in &mut self.valid[..self.cfg.tag_entries()] {
                    *mask &= !(1 << victim);
                }
                self.stats.col_replacements += 1;
                (self.col_lru.len() - 1, victim, false)
            }
        };
        self.row_lru.touch_rank(row_rank);
        self.col_lru.touch_rank(col_rank);
        self.valid[row] |= 1 << col;
        self.ways[row][col] = u8::try_from(way).expect("way number fits the pair's way field");
        Some(RecordOutcome {
            row,
            col,
            row_reused,
            col_reused,
        })
    }

    /// Clears every valid pair that memoizes cache location
    /// (`set_index`, `way`). The cache front-end calls this when a fill
    /// replaces the line at that location, keeping MAB hits sound.
    ///
    /// Returns the number of pairs cleared (0 or 1 when the structure is
    /// consistent, since at most one pair can describe one location).
    pub fn invalidate_location(&mut self, set_index: u32, way: u32) -> usize {
        // Columns hold distinct set indices, so at most one matches.
        let Some((_, col)) = self.find_col(set_index) else {
            return 0;
        };
        let mut cleared = 0;
        for row in 0..self.cfg.tag_entries() {
            if self.valid[row] >> col & 1 == 1 && u32::from(self.ways[row][col]) == way {
                self.valid[row] &= !(1 << col);
                cleared += 1;
            }
        }
        self.stats.invalidated_pairs += cleared as u64;
        cleared
    }

    /// Clears every entry and pair (e.g. on a cache flush or context
    /// switch). Statistics are preserved.
    pub fn invalidate_all(&mut self) {
        self.rows.fill(EMPTY_ROW);
        self.cols.fill(EMPTY_COL);
        self.valid.fill(0);
    }

    /// Number of currently valid (row, column) pairs.
    #[must_use]
    pub fn valid_pairs(&self) -> usize {
        self.valid.iter().map(|m| m.count_ones() as usize).sum()
    }

    /// Iterates over valid pairs as `(set_index, way, effective_tag)`
    /// triples — the exact claims the MAB is making about the cache, used
    /// by consistency property tests.
    pub fn claims(&self) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        let geom = self.cfg.geometry();
        let tag_mask = (1u32 << geom.tag_bits()) - 1;
        (0..self.cfg.tag_entries()).flat_map(move |row| {
            let cflag = Cflag::decode((self.rows[row] & 0b11) as u8);
            let adjust = match (cflag.carry, cflag.negative) {
                (c, false) => u32::from(c),
                (c, true) => u32::from(c).wrapping_sub(1),
            };
            let eff_tag = ((self.rows[row] >> 2) as u32).wrapping_add(adjust) & tag_mask;
            (0..self.cfg.set_entries())
                .filter(move |&col| self.valid[row] >> col & 1 == 1)
                .map(move |col| (self.cols[col], u32::from(self.ways[row][col]), eff_tag))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waymem_cache::Geometry;

    fn mab(nt: usize, ns: usize) -> Mab {
        Mab::new(MabConfig::new(Geometry::frv(), nt, ns).unwrap())
    }

    /// Address helper: base chosen so tag = t, set index = s, offset = 0.
    fn addr(t: u32, s: u32) -> u32 {
        (t << 14) | (s << 5)
    }

    #[test]
    fn empty_mab_misses_everything() {
        let mut m = mab(2, 8);
        assert!(matches!(
            m.lookup(0x1234, 0),
            MabLookup::Miss {
                row_hit: false,
                col_hit: false,
                ..
            }
        ));
        assert_eq!(m.valid_pairs(), 0);
    }

    #[test]
    fn record_then_hit_same_pair() {
        let mut m = mab(2, 8);
        let out = m.record(addr(5, 3), 4, 1).unwrap();
        assert!(!out.row_reused && !out.col_reused);
        match m.lookup(addr(5, 3), 4) {
            MabLookup::Hit {
                way,
                set_index,
                offset,
            } => {
                assert_eq!(way, 1);
                assert_eq!(set_index, 3);
                assert_eq!(offset, 4);
            }
            other => panic!("expected hit, got {other:?}"),
        }
        assert_eq!(m.stats().hits, 1);
    }

    #[test]
    fn different_representation_same_effective_address_misses_conservatively() {
        // (base, disp) with a carry and (base', 0) can address the same
        // line, but the MAB compares the stored (base tag, cflag)
        // *representation*, so the differently-formed probe misses. That is
        // conservative (an extra full lookup), never unsound.
        let mut m = mab(2, 8);
        let carrying_base = (5 << 14) | 0x3fe0;
        m.record(carrying_base, 0x20, 0); // effective tag 6, set 0
        let g = Geometry::frv();
        let real = carrying_base.wrapping_add(0x20);
        assert_eq!(g.tag_of(real), 6);
        assert!(!m.lookup(addr(6, 0), 0).is_hit());
    }

    #[test]
    fn same_representation_hits_across_offsets_within_line() {
        let mut m = mab(2, 8);
        m.record(addr(9, 7), 0, 0);
        // Same base, displacement varying within the line: same set index,
        // same carry (none) -> hit.
        for disp in [0, 4, 8, 31] {
            assert!(m.lookup(addr(9, 7), disp).is_hit(), "disp={disp}");
        }
        // Crossing into the next set: column miss.
        assert!(!m.lookup(addr(9, 7), 32).is_hit());
    }

    #[test]
    fn wide_displacement_bypasses_and_never_records() {
        let mut m = mab(2, 8);
        assert_eq!(m.lookup(0x1000, 1 << 20), MabLookup::Wide);
        assert_eq!(m.record(0x1000, 1 << 20, 1), None);
        assert_eq!(m.stats().wide_bypasses, 1);
        assert_eq!(m.valid_pairs(), 0);
    }

    #[test]
    fn update_case_1_row_and_col_reused() {
        let mut m = mab(2, 8);
        m.record(addr(1, 1), 0, 0);
        m.record(addr(1, 2), 0, 0); // row reused (case 3 first: new col)
        let out = m.record(addr(1, 1), 0, 1).unwrap(); // case 1: both reused
        assert!(out.row_reused && out.col_reused);
        match m.lookup(addr(1, 1), 0) {
            MabLookup::Hit { way, .. } => assert_eq!(way, 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn update_case_2_row_replacement_clears_row_vflags() {
        let mut m = mab(1, 8); // single row: every new tag replaces it
        m.record(addr(1, 1), 0, 0);
        m.record(addr(1, 2), 0, 1);
        assert_eq!(m.valid_pairs(), 2);
        // New tag, existing column 1 -> case 2. Row is replaced; both old
        // pairs must die; only the new pair lives.
        let out = m.record(addr(2, 1), 0, 0).unwrap();
        assert!(!out.row_reused && out.col_reused);
        assert_eq!(m.valid_pairs(), 1);
        assert!(!m.lookup(addr(1, 1), 0).is_hit());
        assert!(!m.lookup(addr(1, 2), 0).is_hit());
        assert!(m.lookup(addr(2, 1), 0).is_hit());
    }

    #[test]
    fn update_case_3_col_replacement_clears_col_vflags() {
        let mut m = mab(2, 1); // single column
        m.record(addr(1, 1), 0, 0);
        m.record(addr(2, 1), 0, 1);
        assert_eq!(m.valid_pairs(), 2);
        // Existing tag 1, new set 2 -> case 3: column replaced.
        let out = m.record(addr(1, 2), 0, 0).unwrap();
        assert!(out.row_reused && !out.col_reused);
        assert_eq!(m.valid_pairs(), 1);
        assert!(!m.lookup(addr(1, 1), 0).is_hit());
        assert!(!m.lookup(addr(2, 1), 0).is_hit());
        assert!(m.lookup(addr(1, 2), 0).is_hit());
    }

    #[test]
    fn update_case_4_replaces_both() {
        let mut m = mab(1, 1);
        m.record(addr(1, 1), 0, 0);
        let out = m.record(addr(2, 2), 0, 1).unwrap();
        assert!(!out.row_reused && !out.col_reused);
        assert_eq!(m.valid_pairs(), 1);
        assert!(m.lookup(addr(2, 2), 0).is_hit());
    }

    #[test]
    fn lru_row_replacement_prefers_least_recent() {
        let mut m = mab(2, 8);
        m.record(addr(1, 1), 0, 0); // row A
        m.record(addr(2, 2), 0, 0); // row B
        let _ = m.lookup(addr(1, 1), 0); // touch row A
        m.record(addr(3, 3), 0, 0); // replaces row B
        assert!(m.lookup(addr(1, 1), 0).is_hit());
        assert!(!m.lookup(addr(2, 2), 0).is_hit());
        assert!(m.lookup(addr(3, 3), 0).is_hit());
    }

    #[test]
    fn lru_col_replacement_prefers_least_recent() {
        let mut m = mab(2, 2);
        m.record(addr(1, 1), 0, 0);
        m.record(addr(1, 2), 0, 0);
        let _ = m.lookup(addr(1, 1), 0); // touch col 1
        m.record(addr(1, 3), 0, 0); // replaces col holding set 2
        assert!(m.lookup(addr(1, 1), 0).is_hit());
        assert!(!m.lookup(addr(1, 2), 0).is_hit());
        assert!(m.lookup(addr(1, 3), 0).is_hit());
    }

    #[test]
    fn carry_distinguishes_entries() {
        let mut m = mab(2, 8);
        // Same base upper bits, one displacement carries out of bit 13.
        let base = (7 << 14) | 0x3ff0;
        m.record(base, 0x4, 0); // no carry
        assert!(!m.lookup(base, 0x10).is_hit(), "carry case must miss");
        m.record(base, 0x10, 1); // carry -> distinct row
        match m.lookup(base, 0x10) {
            MabLookup::Hit { way, .. } => assert_eq!(way, 1),
            other => panic!("{other:?}"),
        }
        // Original entry still live (different row).
        assert!(m.lookup(base, 0x4).is_hit());
    }

    #[test]
    fn sign_distinguishes_entries() {
        let mut m = mab(2, 8);
        let base = (3 << 14) | 0x0100;
        m.record(base, 0x20, 0);
        // A negative displacement reaching the same set index has a
        // different cflag -> different row, conservative miss.
        assert!(!m.lookup(base.wrapping_add(0x40), -0x20, ).is_hit());
    }

    #[test]
    fn invalidate_location_kills_exactly_matching_pairs() {
        let mut m = mab(2, 8);
        m.record(addr(1, 5), 0, 1);
        m.record(addr(2, 5), 0, 0);
        assert_eq!(m.invalidate_location(5, 1), 1);
        assert!(!m.lookup(addr(1, 5), 0).is_hit());
        assert!(m.lookup(addr(2, 5), 0).is_hit(), "other way survives");
        assert_eq!(m.invalidate_location(5, 1), 0, "idempotent");
        assert_eq!(m.invalidate_location(6, 0), 0, "other set unaffected");
    }

    #[test]
    fn invalidate_all_clears_structure_but_keeps_stats() {
        let mut m = mab(2, 8);
        m.record(addr(1, 1), 0, 0);
        let _ = m.lookup(addr(1, 1), 0);
        let hits_before = m.stats().hits;
        m.invalidate_all();
        assert_eq!(m.valid_pairs(), 0);
        assert!(!m.lookup(addr(1, 1), 0).is_hit());
        assert_eq!(m.stats().hits, hits_before);
    }

    #[test]
    fn claims_report_effective_tags() {
        let mut m = mab(2, 8);
        let base = (7 << 14) | 0x3ff0;
        m.record(base, 0x10, 1); // carry: effective tag = 8
        let claims: Vec<_> = m.claims().collect();
        assert_eq!(claims.len(), 1);
        let (set, way, tag) = claims[0];
        let g = Geometry::frv();
        let real = base.wrapping_add(0x10);
        assert_eq!(set, g.index_of(real));
        assert_eq!(way, 1);
        assert_eq!(tag, g.tag_of(real));
    }

    #[test]
    fn hit_rate_accumulates() {
        let mut m = mab(2, 8);
        m.record(addr(1, 1), 0, 0);
        let _ = m.lookup(addr(1, 1), 0); // hit
        let _ = m.lookup(addr(9, 9), 0); // miss
        assert!((m.stats().hit_rate() - 0.5).abs() < 1e-12);
        m.reset_stats();
        assert_eq!(m.stats().lookups, 0);
    }

    #[test]
    fn cross_product_covers_nt_times_ns_addresses() {
        let mut m = mab(2, 4);
        // Fill all 8 pairs: tags {1,2} x sets {1,2,3,4}.
        for t in 1..=2 {
            for s in 1..=4 {
                m.record(addr(t, s), 0, 0);
            }
        }
        assert_eq!(m.valid_pairs(), 8);
        for t in 1..=2 {
            for s in 1..=4 {
                assert!(m.lookup(addr(t, s), 0).is_hit(), "t={t} s={s}");
            }
        }
    }
}
