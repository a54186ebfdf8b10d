//! Exercises the façade crate's public API end to end, the way a
//! downstream user would: standalone MAB use, hardware-model queries and
//! property tests spanning crates.

use proptest::prelude::*;
use waymem::core::{Mab, MabConfig, MabLookup, SmallAdder};
use waymem::hwmodel::{
    cache_area_mm2, mab_area_mm2, mab_delay_ns, mab_power_mw, CacheShape, MabShape, Technology,
};
use waymem::prelude::*;

/// Compile-time name-check: every type and function `waymem::prelude`
/// documents must resolve under exactly these names, with the expected
/// shapes. This fails to *compile* (not merely to run) if a re-export is
/// dropped or renamed, so downstream code can rely on the prelude.
#[allow(dead_code)]
fn prelude_reexports_are_stable() {
    use waymem::prelude;

    // Cache substrate.
    type _AccessStats = prelude::AccessStats;
    type _Geometry = prelude::Geometry;
    // MAB (the paper's contribution).
    type _Mab = prelude::Mab;
    type _MabConfig = prelude::MabConfig;
    type _MabLookup = prelude::MabLookup;
    // Hardware models.
    type _Technology = prelude::Technology;
    // Simulation driver.
    type _SimConfig = prelude::SimConfig;
    type _SimResult = prelude::SimResult;
    type _DScheme = prelude::DScheme;
    type _IScheme = prelude::IScheme;
    // Workloads.
    type _Benchmark = prelude::Benchmark;
    // Workload identity + ingestion.
    type _WorkloadId = prelude::WorkloadId;
    type _SynthSpec = prelude::SynthSpec;
    type _SynthPattern = prelude::SynthPattern;
    type _TraceStore = prelude::TraceStore;
    type _LogFormat = prelude::LogFormat;
    type _Ingested = prelude::Ingested;
    // The experiment builder.
    type _Experiment = prelude::Experiment<'static>;
    type _Suite = prelude::Suite<'static>;
    type _SuiteResult = prelude::SuiteResult;
    type _ExecPolicy = prelude::ExecPolicy;
    type _WorkloadSpec = prelude::WorkloadSpec;
    type _RunError = prelude::RunError;

    // The builder's terminal signatures must stay stable.
    #[allow(clippy::type_complexity)]
    let _run: fn(
        prelude::Experiment<'static>,
    ) -> Result<prelude::SimResult, prelude::RunError> = prelude::Experiment::run;
    #[allow(clippy::type_complexity)]
    let _run_suite: fn(
        prelude::Suite<'static>,
    ) -> Result<prelude::SuiteResult, prelude::RunError> = prelude::Suite::run;

    // The prelude types must be the same items as the per-crate exports,
    // not lookalikes (coercing a reference proves type identity).
    let geom: &prelude::Geometry = &waymem::cache::Geometry::frv();
    let _tech: &prelude::Technology = &waymem::hwmodel::Technology::frv_0130();
    let _ = geom;
}

#[test]
fn prelude_covers_the_basics() {
    let geom = Geometry::frv();
    let cfg = MabConfig::new(geom, 2, 8).expect("valid");
    let mut mab = Mab::new(cfg);
    mab.record(0x2_0000, 16, 1);
    assert!(matches!(
        mab.lookup(0x2_0000, 16),
        MabLookup::Hit { way: 1, .. }
    ));
}

#[test]
fn hardware_models_answer_the_design_questions() {
    let tech = Technology::frv_0130();
    // Is the 2x8 D-MAB cheap? (~3% of the cache macro.)
    let overhead = mab_area_mm2(MabShape::frv(2, 8), tech)
        / cache_area_mm2(CacheShape::frv(), tech);
    assert!(overhead < 0.05);
    // Does it fit the cycle?
    assert!(mab_delay_ns(MabShape::frv(2, 8), tech) < tech.cycle_ns());
    // Is its power budget small relative to the arrays it disables?
    let p = mab_power_mw(MabShape::frv(2, 8), tech);
    assert!(p.active_mw < 5.0);
}

#[test]
fn geometry_sweep_runs_through_the_facade() {
    // A coarse version of the ablation binary, as an API exercise.
    let mut last_ratio = f64::INFINITY;
    for set_entries in [1usize, 8] {
        let r = Experiment::kernel(Benchmark::Dct)
            .dschemes([
                DScheme::Original,
                DScheme::WayMemo {
                    tag_entries: 2,
                    set_entries,
                },
            ])
            .run()
            .expect("runs");
        let ratio = r.dcache[1].stats.tag_reads as f64 / r.dcache[0].stats.tag_reads as f64;
        assert!(
            ratio <= last_ratio + 1e-9,
            "more MAB entries should not increase tag reads"
        );
        last_ratio = ratio;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Cross-crate property: for any geometry and narrow displacement, the
    /// adder model in `core` agrees with the field extraction in `cache`.
    #[test]
    fn adder_and_geometry_agree(
        sets_log in 2u32..12,
        line_log in 2u32..7,
        base: u32,
        disp in -8192i32..8192,
    ) {
        let geom = Geometry::new(1 << sets_log, 2, 1 << line_log).expect("valid");
        let adder = SmallAdder::new(geom);
        prop_assume!(adder.classify(disp).is_narrow());
        let real = base.wrapping_add(disp as u32);
        let r = adder.add(base, disp);
        prop_assert_eq!(r.set_index, geom.index_of(real));
        prop_assert_eq!(r.offset, geom.offset_of(real));
        prop_assert_eq!(adder.effective_tag(base, disp), Some(geom.tag_of(real)));
    }

    /// Random access streams through the paper's D front-end keep the
    /// accounting consistent and the MAB claims sound.
    #[test]
    fn random_streams_stay_consistent(
        ops in prop::collection::vec((any::<u16>(), -64i32..64, any::<bool>()), 1..400),
    ) {
        let geom = Geometry::new(32, 2, 16).expect("valid");
        let mut front = DScheme::WayMemo { tag_entries: 2, set_entries: 4 }.build(geom);
        for (base16, disp, is_store) in ops {
            let base = u32::from(base16) << 2;
            let addr = base.wrapping_add(disp as u32);
            front.access(is_store, base, disp, addr);
        }
        let s = front.stats();
        prop_assert!(s.is_consistent());
        prop_assert!(s.way_reads >= s.accesses, "at least one way per access");
    }
}
