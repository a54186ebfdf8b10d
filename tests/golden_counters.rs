//! Golden counters: the exact `AccessStats` and extra cycles of every D-
//! and I-cache scheme, pinned against a committed file.
//!
//! The inputs are the synthetic standard suite and the committed Lackey
//! capture, each at the FR-V geometry and at a small 2 kB cache
//! (64 sets × 2 ways × 16-B lines) where most accesses miss and dirty
//! lines are written back. Together they cover the miss, fill,
//! write-back and invalidation paths that the paper kernels (which
//! almost always hit) leave cold. Every experiment is rendered twice —
//! replayed in memory and replayed from a streamed `.wmtr` file — and
//! both renders must match the file.
//!
//! Within each (input, geometry, side) group every scheme must report the
//! same hits, misses and write-backs, since each scheme only puts a
//! different lookup in front of the same cache; that is checked on every
//! render, blessed or not.
//!
//! A second file, `mab_stats.txt`, pins every MAB scheme's own
//! breakdown on the same inputs — row-only and column-only hits,
//! replacements, invalidated pairs, wide bypasses — so a change that
//! moves a saving can be explained down to the MAB.
//!
//! Any change to a counter fails these tests. A change that is meant to
//! alter results regenerates both files explicitly:
//!
//! ```sh
//! WAYMEM_BLESS_GOLDEN=1 cargo test --test golden_counters
//! ```

use std::fmt::Write as _;
use std::sync::Arc;

use waymem::core::MabStats;
use waymem::ingest::synth::standard_suite;
use waymem::prelude::*;
use waymem::sim::presets::{full_dschemes, full_ischemes};
use waymem::sim::SchemeResult;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/counters.txt");
const MAB_GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/mab_stats.txt");

/// Synthetic accesses per pattern: enough to wrap the small cache many
/// times, small enough for a debug build to finish in seconds.
const SYNTH_ACCESSES: u32 = 20_000;

fn geometries() -> [Geometry; 2] {
    [
        Geometry::frv(),
        Geometry::new(64, 2, 16).expect("valid geometry"),
    ]
}

fn experiments() -> Vec<Experiment<'static>> {
    let lackey = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/crates/ingest/tests/fixtures/lackey_small.log"
    );
    let mut out: Vec<Experiment<'static>> = standard_suite(SYNTH_ACCESSES)
        .into_iter()
        .map(Experiment::synthetic)
        .collect();
    out.push(Experiment::ingest(lackey));
    out
}

fn counters_line(out: &mut String, prefix: &str, side: char, r: &SchemeResult) {
    let AccessStats {
        accesses,
        tag_reads,
        way_reads,
        hits,
        misses,
        mab_hits,
        mab_lookups,
        intra_line_skips,
        buffer_hits,
        write_backs,
        unsound_hits,
    } = r.stats;
    writeln!(
        out,
        "{prefix} {side} {} = {accesses} {tag_reads} {way_reads} {hits} {misses} {mab_hits} \
         {mab_lookups} {intra_line_skips} {buffer_hits} {write_backs} {unsound_hits} {}",
        r.name.replace(' ', "_"),
        r.extra_cycles
    )
    .expect("write to String");
}

/// Every scheme of one side replays the same accesses through the same
/// cache, so all must report that cache's hits, misses and write-backs: a
/// scheme changes what a lookup costs, never what the cache does. Checked
/// before any render is compared or blessed, so a change that breaks it
/// cannot be re-blessed into the golden file.
fn assert_one_cache_outcome(prefix: &str, side: char, results: &[SchemeResult]) {
    let outcome = |r: &SchemeResult| (r.stats.hits, r.stats.misses, r.stats.write_backs);
    let first = &results[0];
    for r in results {
        assert_eq!(
            outcome(r),
            outcome(first),
            "{prefix} {side}: {} and {} disagree on (hits, misses, write_backs)",
            r.name,
            first.name
        );
    }
}

/// Renders every counter of every run, one line per (workload, geometry,
/// side, scheme), replaying in memory or from a streamed `.wmtr` file.
fn render(streaming: bool) -> String {
    let mut out = String::from(
        "# <workload> <sets>x<ways>x<line> <D|I> <scheme> = accesses tag_reads way_reads \
         hits misses mab_hits mab_lookups intra_line_skips buffer_hits write_backs \
         unsound_hits extra_cycles\n",
    );
    for g in geometries() {
        for exp in experiments() {
            let result = exp
                .streaming(streaming)
                .geometry(g)
                .dschemes(full_dschemes())
                .ischemes(full_ischemes())
                .run()
                .expect("golden workload runs");
            let prefix = format!(
                "{} {}x{}x{}",
                result.workload,
                g.sets(),
                g.ways(),
                g.line_bytes()
            );
            writeln!(out, "{prefix} cycles = {}", result.cycles).expect("write to String");
            assert_one_cache_outcome(&prefix, 'D', &result.dcache);
            assert_one_cache_outcome(&prefix, 'I', &result.icache);
            for r in &result.dcache {
                counters_line(&mut out, &prefix, 'D', r);
            }
            for r in &result.icache {
                counters_line(&mut out, &prefix, 'I', r);
            }
        }
    }
    out
}

fn mab_line(out: &mut String, prefix: &str, side: char, name: &str, stats: MabStats) {
    let MabStats {
        lookups,
        hits,
        wide_bypasses,
        row_hits,
        col_hits,
        row_replacements,
        col_replacements,
        invalidated_pairs,
    } = stats;
    writeln!(
        out,
        "{prefix} {side} {} = {lookups} {hits} {wide_bypasses} {row_hits} {col_hits} \
         {row_replacements} {col_replacements} {invalidated_pairs}",
        name.replace(' ', "_")
    )
    .expect("write to String");
}

/// Renders the MAB breakdown of every MAB scheme, one line per
/// (workload, geometry, side, scheme). Each scheme's front is rebuilt
/// and fed the trace [`Experiment::prepare`] resolved; its counters must
/// equal the engine's result for that scheme, so the breakdown explains
/// exactly the counters `counters.txt` pins.
fn render_mab() -> String {
    let mut out = String::from(
        "# <workload> <sets>x<ways>x<line> <D|I> <scheme> = lookups hits wide_bypasses \
         row_hits col_hits row_replacements col_replacements invalidated_pairs\n",
    );
    for g in geometries() {
        for exp in experiments() {
            let prepared = exp
                .geometry(g)
                .dschemes(full_dschemes())
                .ischemes(full_ischemes())
                .prepare()
                .expect("golden workload resolves");
            let trace = Arc::clone(prepared.trace().expect("an in-memory resolve holds the trace"));
            let result = prepared.run().expect("golden workload runs");
            let prefix =
                format!("{} {}x{}x{}", result.workload, g.sets(), g.ways(), g.line_bytes());
            for (scheme, engine) in full_dschemes().into_iter().zip(&result.dcache) {
                assert_eq!(scheme.name(), engine.name);
                let mut front = scheme.build(g);
                front.replay(&trace.data_events);
                if let Some(stats) = front.mab_stats() {
                    assert_eq!(front.stats(), engine.stats, "{prefix} D {}", engine.name);
                    let cycles = front.extra_cycles();
                    assert_eq!(cycles, engine.extra_cycles, "{prefix} D {}", engine.name);
                    mab_line(&mut out, &prefix, 'D', &engine.name, stats);
                }
            }
            for (scheme, engine) in full_ischemes().into_iter().zip(&result.icache) {
                assert_eq!(scheme.name(), engine.name);
                let mut front = scheme.build(g);
                front.replay(&trace.fetch_events);
                if let Some(stats) = front.mab_stats() {
                    assert_eq!(front.stats(), engine.stats, "{prefix} I {}", engine.name);
                    mab_line(&mut out, &prefix, 'I', &engine.name, stats);
                }
            }
        }
    }
    out
}

fn blessing() -> bool {
    std::env::var_os("WAYMEM_BLESS_GOLDEN").is_some()
}

#[test]
fn every_scheme_matches_the_golden_counters() {
    let actual = render(false);
    if blessing() {
        std::fs::write(GOLDEN, &actual).expect("write golden file");
        return;
    }
    assert_matches_golden(GOLDEN, &actual);
}

/// The streamed replay — each section decoded once per replay chain and
/// fanned out to its fronts — must render the committed file exactly. It
/// never rewrites the file: the in-memory render is the one blessed.
#[test]
fn streamed_replay_matches_the_golden_counters() {
    assert_matches_golden(GOLDEN, &render(true));
}

#[test]
fn every_mab_scheme_matches_the_golden_breakdown() {
    let actual = render_mab();
    if blessing() {
        std::fs::write(MAB_GOLDEN, &actual).expect("write golden file");
        return;
    }
    assert_matches_golden(MAB_GOLDEN, &actual);
}

fn assert_matches_golden(golden: &str, actual: &str) {
    let expected = std::fs::read_to_string(golden).expect("golden file is committed");
    let diffs: Vec<String> = expected
        .lines()
        .zip(actual.lines())
        .filter(|(e, a)| e != a)
        .map(|(e, a)| format!("  expected {e}\n  actual   {a}"))
        .collect();
    assert!(
        diffs.is_empty() && expected.lines().count() == actual.lines().count(),
        "{} counter line(s) differ from {golden} ({} expected lines, {} actual):\n{}",
        diffs.len(),
        expected.lines().count(),
        actual.lines().count(),
        diffs.join("\n")
    );
}
