//! Property-based tests for the MAB datapath and structure invariants.

use std::collections::HashMap;

use proptest::prelude::*;
use waymem_cache::Geometry;
use waymem_core::{DispClass, Mab, MabConfig, MabLookup, MabStats, RecordOutcome, SmallAdder};

fn geometries() -> impl Strategy<Value = Geometry> {
    prop_oneof![
        Just(Geometry::frv()),
        Just(Geometry::new(64, 2, 16).unwrap()),
        Just(Geometry::new(256, 4, 32).unwrap()),
        Just(Geometry::new(128, 1, 64).unwrap()),
    ]
}

proptest! {
    /// The narrow datapath's reconstruction must agree with the full 32-bit
    /// addition whenever it claims to handle the displacement.
    #[test]
    fn effective_tag_equals_full_add(geom in geometries(), base: u32, disp: i32) {
        let adder = SmallAdder::new(geom);
        let real = base.wrapping_add(disp as u32);
        match adder.effective_tag(base, disp) {
            Some(tag) => prop_assert_eq!(tag, geom.tag_of(real)),
            None => prop_assert_eq!(adder.classify(disp), DispClass::Wide),
        }
    }

    /// The low sum, set index and offset of the narrow adder match the full
    /// addition for narrow displacements.
    #[test]
    fn low_fields_equal_full_add(geom in geometries(), base: u32, disp in -16384i32..16384) {
        let adder = SmallAdder::new(geom);
        prop_assume!(adder.classify(disp) != DispClass::Wide);
        let real = base.wrapping_add(disp as u32);
        let r = adder.add(base, disp);
        prop_assert_eq!(r.set_index, geom.index_of(real));
        prop_assert_eq!(r.offset, geom.offset_of(real));
        let low_mask = (1u32 << geom.low_bits()) - 1;
        prop_assert_eq!(r.low_sum, real & low_mask);
    }

    /// Narrowness is exactly the arithmetic condition -2^k <= disp < 2^k.
    #[test]
    fn classification_is_range_check(geom in geometries(), disp: i32) {
        let adder = SmallAdder::new(geom);
        let k = geom.low_bits();
        let narrow = i64::from(disp) >= -(1i64 << k) && i64::from(disp) < (1i64 << k);
        prop_assert_eq!(adder.classify(disp).is_narrow(), narrow);
    }
}

/// Reference model: a simple map from (set, way) to effective tag, updated
/// alongside the MAB. After any sequence of record/invalidate operations, a
/// MAB hit must agree with the model.
#[derive(Default)]
struct Oracle {
    // (set_index, way) -> effective tag resident there
    resident: std::collections::HashMap<(u32, u32), u32>,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Soundness under adversarial interleavings: every MAB hit points at a
    /// (set, way) whose "resident" tag (per the oracle, which mirrors
    /// exactly the record/invalidate calls) equals the probe's effective
    /// tag. Records play the role of cache-resolved lookups; invalidations
    /// play the role of cache evictions.
    #[test]
    fn mab_hits_are_sound(
        nt in 1usize..4,
        ns in 1usize..9,
        ops in prop::collection::vec(
            (0u32..8, 0u32..16, -64i32..64, 0u32..2, prop::bool::ANY),
            1..200,
        ),
    ) {
        let geom = Geometry::frv();
        let cfg = MabConfig::new(geom, nt, ns).unwrap();
        let mut mab = Mab::new(cfg);
        let adder = SmallAdder::new(geom);
        let mut oracle = Oracle::default();

        for (tag, set, disp, way, invalidate) in ops {
            let base = (tag << 14) | (set << 5);
            if invalidate {
                // Model a cache eviction at the effective location.
                let r = adder.add(base, disp);
                mab.invalidate_location(r.set_index, way);
                oracle.resident.remove(&(r.set_index, way));
                continue;
            }
            // Probe first: if the MAB hits, it must agree with the oracle.
            if let MabLookup::Hit { way: w, set_index, .. } = mab.lookup(base, disp) {
                let eff_tag = adder.effective_tag(base, disp).unwrap();
                let resident = oracle.resident.get(&(set_index, w)).copied();
                prop_assert_eq!(
                    resident, Some(eff_tag),
                    "MAB claims ({}, {}) holds tag {:#x} but oracle says {:?}",
                    set_index, w, eff_tag, resident
                );
            } else if adder.classify(disp).is_narrow() {
                // Cache resolves the access: line now resident at (set, way).
                let r = adder.add(base, disp);
                let eff_tag = adder.effective_tag(base, disp).unwrap();
                // Way memoization contract: before recording a new location
                // the caller invalidates what the fill displaced.
                mab.invalidate_location(r.set_index, way);
                oracle.resident.insert((r.set_index, way), eff_tag);
                mab.record(base, disp, way);
            }
        }

        // Post-condition: every standing claim agrees with the oracle.
        for (set, way, tag) in mab.claims() {
            prop_assert_eq!(oracle.resident.get(&(set, way)).copied(), Some(tag));
        }
    }

    /// The number of valid pairs never exceeds N_t x N_s, and invalidate_all
    /// empties the structure.
    #[test]
    fn valid_pairs_bounded(
        nt in 1usize..4,
        ns in 1usize..9,
        ops in prop::collection::vec((0u32..64, 0u32..32, 0u32..2), 1..100),
    ) {
        let cfg = MabConfig::new(Geometry::frv(), nt, ns).unwrap();
        let mut mab = Mab::new(cfg);
        for (tag, set, way) in ops {
            mab.record((tag << 14) | (set << 5), 0, way);
            prop_assert!(mab.valid_pairs() <= nt * ns);
        }
        mab.invalidate_all();
        prop_assert_eq!(mab.valid_pairs(), 0);
    }

    /// Recording an address and immediately probing it hits with the
    /// recorded way (for narrow displacements).
    #[test]
    fn record_probe_round_trip(
        base: u32,
        disp in -16384i32..16384,
        way in 0u32..2,
    ) {
        let mut mab = Mab::new(MabConfig::paper_dcache());
        prop_assume!(mab.adder().classify(disp).is_narrow());
        mab.record(base, disp, way);
        match mab.lookup(base, disp) {
            MabLookup::Hit { way: w, .. } => prop_assert_eq!(w, way),
            other => prop_assert!(false, "expected hit, got {:?}", other),
        }
    }

    /// Statistics stay consistent: hits <= lookups, and each narrow probe
    /// increments exactly one of {hit, miss}.
    #[test]
    fn stats_consistency(ops in prop::collection::vec((0u32..16, 0u32..16, -40i32..40), 1..100)) {
        let mut mab = Mab::new(MabConfig::paper_dcache());
        for (tag, set, disp) in ops {
            let base = (tag << 14) | (set << 5);
            let before = mab.stats();
            let res = mab.lookup(base, disp);
            let after = mab.stats();
            match res {
                MabLookup::Wide => {
                    prop_assert_eq!(after.lookups, before.lookups);
                    prop_assert_eq!(after.wide_bypasses, before.wide_bypasses + 1);
                }
                _ => {
                    prop_assert_eq!(after.lookups, before.lookups + 1);
                }
            }
            if !res.is_hit() {
                mab.record(base, disp, (tag ^ set) & 1);
            }
            prop_assert!(mab.stats().hits <= mab.stats().lookups);
        }
    }
}

/// A tag row's contents: base tag, carry, negative displacement.
type RowKey = (u32, bool, bool);

/// The reference MAB: rows and columns as explicit recency lists (most
/// recent first) of `(slot, entry)`, and the valid pairs as a map from
/// (row entry, set index) to the memoized way.
struct RefMab {
    geom: Geometry,
    rows: Vec<(usize, Option<RowKey>)>,
    cols: Vec<(usize, Option<u32>)>,
    pairs: HashMap<(RowKey, u32), u32>,
    stats: MabStats,
}

/// Moves entry `pos` (the least recently used one for `None`) of a
/// recency list to the front; returns its slot.
fn touch<T>(list: &mut Vec<(usize, T)>, pos: Option<usize>) -> usize {
    let entry = list.remove(pos.unwrap_or(list.len() - 1));
    let slot = entry.0;
    list.insert(0, entry);
    slot
}

/// Installs `entry` in the least recently used slot of `list`, returning
/// what it displaced.
fn replace_lru<T: Copy>(list: &mut [(usize, Option<T>)], entry: T) -> Option<T> {
    let last = list.len() - 1;
    list[last].1.replace(entry)
}

impl RefMab {
    fn new(geom: Geometry, nt: usize, ns: usize) -> Self {
        Self {
            geom,
            rows: (0..nt).rev().map(|slot| (slot, None)).collect(),
            cols: (0..ns).rev().map(|slot| (slot, None)).collect(),
            pairs: HashMap::new(),
            stats: MabStats::default(),
        }
    }

    /// Row entry, set index and offset of `base + disp` from the full
    /// arithmetic, or `None` when the displacement is wide.
    fn decode(&self, base: u32, disp: i32) -> Option<(RowKey, u32, u32)> {
        let k = self.geom.low_bits();
        if !(-(1i64 << k)..(1i64 << k)).contains(&i64::from(disp)) {
            return None;
        }
        let mask = (1u32 << k) - 1;
        let sum = (base & mask) + (disp as u32 & mask);
        let low = sum & mask;
        let key = (self.geom.tag_of(base), sum > mask, disp < 0);
        Some((
            key,
            low >> self.geom.offset_bits(),
            low & (self.geom.line_bytes() - 1),
        ))
    }

    fn find(&self, key: RowKey, set_index: u32) -> (Option<usize>, Option<usize>) {
        (
            self.rows.iter().position(|r| r.1 == Some(key)),
            self.cols.iter().position(|c| c.1 == Some(set_index)),
        )
    }

    fn lookup(&mut self, base: u32, disp: i32) -> MabLookup {
        let Some((key, set_index, offset)) = self.decode(base, disp) else {
            self.stats.wide_bypasses += 1;
            return MabLookup::Wide;
        };
        self.stats.lookups += 1;
        let (row, col) = self.find(key, set_index);
        self.stats.row_hits += u64::from(row.is_some());
        self.stats.col_hits += u64::from(col.is_some());
        match (row, col, self.pairs.get(&(key, set_index))) {
            (Some(r), Some(c), Some(&way)) => {
                self.stats.hits += 1;
                touch(&mut self.rows, Some(r));
                touch(&mut self.cols, Some(c));
                MabLookup::Hit {
                    way,
                    set_index,
                    offset,
                }
            }
            _ => MabLookup::Miss {
                row_hit: row.is_some(),
                col_hit: col.is_some(),
                set_index,
            },
        }
    }

    fn record(&mut self, base: u32, disp: i32, way: u32) -> Option<RecordOutcome> {
        let (key, set_index, _) = self.decode(base, disp)?;
        let (row_pos, col_pos) = self.find(key, set_index);
        if row_pos.is_none() {
            self.stats.row_replacements += 1;
            if let Some(old) = replace_lru(&mut self.rows, key) {
                self.pairs.retain(|&(k, _), _| k != old);
            }
        }
        if col_pos.is_none() {
            self.stats.col_replacements += 1;
            if let Some(old) = replace_lru(&mut self.cols, set_index) {
                self.pairs.retain(|&(_, s), _| s != old);
            }
        }
        let row = touch(&mut self.rows, row_pos);
        let col = touch(&mut self.cols, col_pos);
        self.pairs.insert((key, set_index), way);
        Some(RecordOutcome {
            row,
            col,
            row_reused: row_pos.is_some(),
            col_reused: col_pos.is_some(),
        })
    }

    fn invalidate_location(&mut self, set_index: u32, way: u32) -> usize {
        let before = self.pairs.len();
        self.pairs
            .retain(|&(_, s), &mut w| (s, w) != (set_index, way));
        let cleared = before - self.pairs.len();
        self.stats.invalidated_pairs += cleared as u64;
        cleared
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The MAB answers every probe, record and invalidation exactly as the
    /// naive recency-list model does, at shapes up to 4×32, with every
    /// statistic equal after every operation.
    #[test]
    fn mab_matches_reference_model(
        nt in 1usize..=4,
        ns in 1usize..=32,
        ops in prop::collection::vec((0u32..6, 0u32..48, -80i32..80, 0u32..4, 0u8..8), 1..300),
    ) {
        let geom = Geometry::new(64, 4, 16).unwrap();
        let mut mab = Mab::new(MabConfig::new(geom, nt, ns).unwrap());
        let mut model = RefMab::new(geom, nt, ns);
        for (tag, set, disp, way, op) in ops {
            let base = (tag << geom.low_bits()) | (set << geom.offset_bits());
            // One op in eight probes with a displacement too wide for the MAB.
            let disp = if op == 7 { disp << 12 } else { disp };
            if op < 2 {
                let index = geom.index_of(base.wrapping_add(disp as u32));
                prop_assert_eq!(
                    mab.invalidate_location(index, way),
                    model.invalidate_location(index, way)
                );
            } else {
                let probe = mab.lookup(base, disp);
                prop_assert_eq!(probe, model.lookup(base, disp));
                if !probe.is_hit() {
                    prop_assert_eq!(mab.record(base, disp, way), model.record(base, disp, way));
                }
            }
            prop_assert_eq!(mab.stats(), model.stats);
            prop_assert_eq!(mab.valid_pairs(), model.pairs.len());
        }
    }
}
