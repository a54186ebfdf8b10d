//! End-to-end assertions of the paper's evaluation claims (the *shape* of
//! Figures 4–8, not absolute milliwatts): who wins, by roughly what
//! factor, and that way memoization pays no cycles.
//!
//! One run of the paper's report — its scheme set and the `ext.*` runs
//! over one trace store — serves every test that needs only those
//! schemes, including the byte-for-byte comparison of the
//! `waymem/paper/v1` artifact against `tests/golden/paper.json`. A change
//! that is meant to alter the paper's numbers regenerates the file
//! explicitly:
//!
//! ```sh
//! WAYMEM_BLESS_GOLDEN=1 cargo test --test paper_claims
//! ```

use std::sync::OnceLock;

use waymem::prelude::*;
use waymem::sim::SchemeResult;
use waymem_bench::paper::{self, Report};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/paper.json");

/// The seven kernels under the paper's scheme set, and the whole report
/// built from them and the extension runs, computed once per test binary.
fn shared() -> &'static (Vec<SimResult>, Report) {
    static SHARED: OnceLock<(Vec<SimResult>, Report)> = OnceLock::new();
    SHARED.get_or_init(|| paper::run(&TraceStore::new()).expect("the report's runs succeed"))
}

/// A saving row of the shared report, as a fraction.
fn saving(id: &str) -> f64 {
    shared().1.ours(id) / 100.0
}

fn dcache(r: &SimResult, scheme: DScheme) -> &SchemeResult {
    r.dcache_by_name(&scheme.name()).expect("scheme ran")
}

fn icache(r: &SimResult, scheme: IScheme) -> &SchemeResult {
    r.icache_by_name(&scheme.name()).expect("scheme ran")
}

/// One kernel experiment under the paper's default configuration, for
/// the schemes outside the paper's set.
fn run(bench: Benchmark, dschemes: &[DScheme], ischemes: &[IScheme]) -> SimResult {
    Experiment::kernel(bench)
        .dschemes(dschemes.iter().copied())
        .ischemes(ischemes.iter().copied())
        .run()
        .expect("runs")
}

#[test]
fn paper_artifact_matches_the_golden_file() {
    let actual = shared().1.to_json();
    if std::env::var_os("WAYMEM_BLESS_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(GOLDEN).expect("golden file is committed");
    let diffs: Vec<_> = expected.lines().zip(actual.lines()).filter(|(e, a)| e != a).collect();
    assert!(
        expected == actual,
        "{} line(s) differ from {GOLDEN} ({} expected lines, {} actual), (expected, actual): \
         {diffs:#?}",
        diffs.len(),
        expected.lines().count(),
        actual.lines().count(),
    );
}

#[test]
fn figure4_shape_holds_on_every_benchmark() {
    for r in &shared().0 {
        let bench = r.workload;
        let orig = &dcache(r, DScheme::Original).stats;
        let sb = &dcache(r, DScheme::SetBuffer { entries: 1 }).stats;
        let ours = &dcache(r, DScheme::paper_way_memo()).stats;

        // Original: exactly W tag reads per access.
        assert!((orig.tags_per_access() - 2.0).abs() < 1e-9, "{bench}");
        // Write-back buffer keeps original's ways below 2.
        assert!(orig.ways_per_access() < 2.0, "{bench}");
        // Ours reads at least one way per access.
        assert!(ours.ways_per_access() >= 1.0, "{bench}");
        // Ours eliminates the majority of tag accesses; the set buffer
        // sits between (it cannot exploit cross-set locality).
        assert!(
            ours.tag_reads < orig.tag_reads * 3 / 5,
            "{bench}: ours {} vs orig {}",
            ours.tag_reads,
            orig.tag_reads
        );
        assert!(sb.tag_reads <= orig.tag_reads, "{bench}");
        assert!(ours.ways_per_access() <= orig.ways_per_access(), "{bench}");
    }
}

#[test]
fn figure5_power_ordering_holds() {
    for r in &shared().0 {
        let bench = r.workload;
        assert!(
            saving(&format!("fig5.{bench}.saving_pct")) > 0.0,
            "{bench}: ours must beat original"
        );
        let ours = dcache(r, DScheme::paper_way_memo()).power;
        // The MAB contributes a visible but small slice.
        assert!(ours.mab_mw > 0.0, "{bench}");
        assert!(
            ours.mab_mw < 0.35 * ours.total_mw(),
            "{bench}: MAB power should not dominate"
        );
    }
    // Paper: 35% average D-cache saving. The band admits compress, where
    // the MAB's cost nearly cancels what it saves (README, "How close to
    // the paper").
    let avg = saving("fig5.saving_avg_pct");
    assert!(
        (0.25..0.40).contains(&avg),
        "average D-cache saving {avg:.3} outside the band"
    );
}

#[test]
fn figure6_icache_tag_reduction_and_mab_size_scaling() {
    let ours8 = IScheme::WayMemo {
        tag_entries: 2,
        set_entries: 8,
    };
    let ours32 = IScheme::WayMemo {
        tag_entries: 2,
        set_entries: 32,
    };
    for r in &shared().0 {
        let bench = r.workload;
        let orig = &icache(r, IScheme::Original).stats;
        let intra = &icache(r, IScheme::IntraLine).stats;
        let ours8 = &icache(r, ours8).stats;
        let ours32 = &icache(r, ours32).stats;

        // [4] removes a large share of tag accesses (paper: ~60%).
        assert!(
            intra.tag_reads * 2 < orig.tag_reads,
            "{bench}: [4] {} vs orig {}",
            intra.tag_reads,
            orig.tag_reads
        );
        // Ours removes most of the remainder (paper: to ~80% of [4]).
        assert!(
            ours8.tag_reads < intra.tag_reads,
            "{bench}: ours {} vs [4] {}",
            ours8.tag_reads,
            intra.tag_reads
        );
        // A bigger MAB never does worse.
        assert!(ours32.tag_reads <= ours8.tag_reads, "{bench}");
        // Every scheme sees the identical access stream.
        assert_eq!(orig.accesses, ours8.accesses, "{bench}");
    }
}

#[test]
fn figure7_icache_power_ordering() {
    for r in &shared().0 {
        let bench = r.workload;
        let (base, ours) = (
            shared().1.ours(&format!("fig7.{bench}.baseline_mw")),
            shared().1.ours(&format!("fig7.{bench}.ours_mw")),
        );
        assert!(
            ours < base,
            "{bench}: ours {ours:.2} mW vs [4] {base:.2} mW"
        );
    }
    // Paper: 25% average I-cache saving against [4].
    let avg = saving("fig7.saving_avg_pct");
    assert!(
        (0.20..0.35).contains(&avg),
        "average I-cache saving vs [4] {avg:.3} outside the band"
    );
}

#[test]
fn figure8_total_saving_band() {
    let savings: Vec<f64> = shared()
        .0
        .iter()
        .map(|r| saving(&format!("fig8.{}.saving_pct", r.workload)))
        .collect();
    // Paper: 30% average total saving vs original+[4].
    let avg = saving("fig8.saving_avg_pct");
    assert!(
        (0.25..0.35).contains(&avg),
        "total saving {avg:.3} outside the band; per-benchmark {savings:?}"
    );
    assert!(
        savings.iter().all(|&s| s > 0.0),
        "ours must win on every benchmark: {savings:?}"
    );
}

#[test]
fn no_performance_penalty_for_way_memoization() {
    // The paper's central claim, read from the report's rows on every
    // kernel: way memoization pays no cycle, unlike the related-work
    // alternatives.
    let at = |id: String| shared().1.ours(&id);
    for r in &shared().0 {
        let bench = r.workload;
        let ours = at(format!("abstract.{bench}.extra_cycles"));
        assert_eq!(ours, 0.0, "{bench}: the paper's central claim");
        let predict = at(format!("ext.dalt.{bench}.way_predict[9].extra_cycles"));
        assert!(predict > 0.0, "{bench}: way prediction mispredicts");
        let two_phase = at(format!("ext.dalt.{bench}.two_phase[8].extra_cycles"));
        let accesses = r.dcache[0].stats.accesses as f64;
        assert_eq!(two_phase, accesses, "{bench}: two-phase pays every access");
    }
}

#[test]
fn displacements_are_almost_always_narrow() {
    // §3.1: "more than 99% of displacement values are less than 2^13" on
    // the paper's benchmarks; frv-lite's 16-bit displacement field allows
    // wide ones, so the claim is measurable rather than structural.
    for r in &shared().0 {
        let bench = r.workload;
        let s = &dcache(r, DScheme::paper_way_memo()).stats;
        let narrow = s.mab_lookups; // lookups counts narrow + wide probes
        assert!(narrow > 0, "{bench}");
        // mab_lookups here = lookups + wide bypasses = all accesses.
        assert_eq!(s.mab_lookups, s.accesses, "{bench}");
    }
}

#[test]
fn related_work_ordering_matches_section_2() {
    // The paper's §2 positions: [4] < original; ours handles both flows
    // that [12] (no inter-line sequential) and [14]-style buffers miss;
    // [11] is competitive but pays link bits. The report holds every
    // I scheme's power on every kernel.
    let at = |id: String| shared().1.ours(&id);
    for r in &shared().0 {
        let bench = r.workload;
        let orig = at(format!("abstract.i_vs_original.{bench}.baseline_mw"));
        let intra = at(format!("fig7.{bench}.intra_line[4].total_mw"));
        let link = at(format!("ext.icache.{bench}.link_memo[11].total_mw"));
        let btb = at(format!("ext.icache.{bench}.ext_btb[12]x32.total_mw"));
        let ours = at(format!("fig7.{bench}.way_memo_2x16.total_mw"));
        assert!(intra < orig, "{bench}: [4] must beat original");
        assert!(btb < intra, "{bench}: [12] must beat [4]");
        assert!(link < intra, "{bench}: [11] must beat [4]");
        assert!(ours < btb, "{bench}: ours must beat [12]");
        assert!(ours <= link * 1.02, "{bench}: ours must match/beat [11]");
        // [12] leaves inter-line sequential tag reads on the table.
        let btb_tags = at(format!("ext.icache.{bench}.ext_btb[12]x32.tags_per_access"));
        let ours_tags = at(format!("fig6.{bench}.way_memo_2x16.tags_per_access"));
        assert!(btb_tags > ours_tags * 5.0, "{bench}: [12]'s sequential-flow weakness");
    }
}

#[test]
fn filter_cache_saves_power_but_pays_cycles() {
    // The paper rejects L0 caches for the performance loss, not the
    // power: verify both sides of that trade-off.
    let r = run(
        Benchmark::Dct,
        &[DScheme::Original, DScheme::FilterCache { lines: 4 }],
        &[],
    );
    let filter = &r.dcache[1];
    assert!(filter.power.total_mw() < r.dcache[0].power.total_mw());
    assert!(filter.extra_cycles > 0, "L0 misses cost cycles");
}

#[test]
fn mpeg2enc_is_among_the_best_savers() {
    // The paper's best case is mpeg2enc (40% total saving). Check it is
    // in the top half of our per-benchmark savings.
    let savings: Vec<(String, f64)> = shared()
        .0
        .iter()
        .map(|r| {
            let name = r.workload.name();
            let s = saving(&format!("fig8.{name}.saving_pct"));
            (name, s)
        })
        .collect();
    let mpeg = saving(&format!("fig8.{}.saving_pct", Benchmark::Mpeg2Enc.name()));
    let better = savings.iter().filter(|(_, s)| *s > mpeg).count();
    assert!(
        better <= 3,
        "mpeg2enc should rank in the top half: {savings:?}"
    );
}
