//! Property-based tests for the MAB datapath and structure invariants.

#[path = "support/ref_mab.rs"]
mod ref_mab;

use proptest::prelude::*;
use ref_mab::RefMab;
use waymem_cache::Geometry;
use waymem_core::{DispClass, Mab, MabConfig, MabLookup, SmallAdder};

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
