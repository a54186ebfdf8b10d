//! Concurrency consistency of the observability layer: a parallel
//! [`Experiment::run_all`] run must account for every replayed trace
//! event exactly — the per-worker `replay.*` counters sum to the number
//! of events the front-ends actually consumed, the `replay.front_ns`
//! histogram holds one observation per front and `replay.cache_ns` one
//! per replay chain, and the armed span tracer emits a valid, balanced
//! Chrome trace for the whole run.
//!
//! The obs instruments are process-global, so this binary holds exactly
//! one `#[test]`: deltas stay attributable to the one run it performs.

use waymem::obs;
use waymem::prelude::*;
use waymem::workloads::Benchmark;

#[test]
fn parallel_suite_metrics_account_for_every_event() {
    // Arm the span tracer up front so the run below is captured too.
    let span_path = std::env::temp_dir()
        .join(format!("waymem-obs-test-{}.json", std::process::id()));
    obs::span::arm(&span_path);

    let dschemes = vec![DScheme::Original, DScheme::paper_way_memo()];
    let ischemes = vec![IScheme::Original, IScheme::paper_way_memo()];
    let workloads: Vec<Benchmark> = Benchmark::ALL.iter().copied().take(3).collect();

    // The kernels are deterministic: recording them up front yields the
    // exact event counts the run's own (re-)recordings will replay.
    // Every front-end consumes its workload's full stream independently,
    // so the worker counters must sum to events × fronts-per-side.
    let cfg = SimConfig::default();
    let mut expect_data = 0u64;
    let mut expect_fetch = 0u64;
    for &bench in &workloads {
        let trace = waymem::sim::record_trace(bench, &cfg).expect("kernel records");
        expect_data += trace.data_events.len() as u64 * dschemes.len() as u64;
        expect_fetch += trace.fetch_events.len() as u64 * ischemes.len() as u64;
    }
    assert!(expect_data > 0 && expect_fetch > 0, "kernels recorded nothing");

    let data_ctr = obs::counter!("replay.data_events");
    let fetch_ctr = obs::counter!("replay.fetch_events");
    let front_hist = obs::histogram!("replay.front_ns");
    let cache_hist = obs::histogram!("replay.cache_ns");
    let data_before = data_ctr.get();
    let fetch_before = fetch_ctr.get();
    let fronts_before = front_hist.count();
    let chains_before = cache_hist.count();

    let results = Experiment::run_all(workloads.iter().map(|&bench| {
        Experiment::kernel(bench).dschemes(dschemes.clone()).ischemes(ischemes.clone())
    }))
    .expect("suite runs");
    assert_eq!(results.len(), workloads.len());
    assert_eq!(
        data_ctr.get() - data_before,
        expect_data,
        "replay.data_events disagrees with the events the D-fronts consumed"
    );
    assert_eq!(
        fetch_ctr.get() - fetch_before,
        expect_fetch,
        "replay.fetch_events disagrees with the events the I-fronts consumed"
    );

    // One `replay.front_ns` observation per front, and the merged
    // snapshot must agree with the live view taken right after it —
    // no observation may be lost between shards.
    let fronts = (workloads.len() * (dschemes.len() + ischemes.len())) as u64;
    assert_eq!(front_hist.count() - fronts_before, fronts);
    let snap = front_hist.snapshot();
    assert_eq!(snap.count, snap.buckets.iter().sum::<u64>());
    assert_eq!(snap.count, front_hist.count());
    // One `replay.cache_ns` observation per replay chain (its one cache
    // pass, summed over its windows): at least a D and an I chain per
    // workload, at most one chain per front.
    let chains = cache_hist.count() - chains_before;
    let per_side = workloads.len() as u64 * 2;
    assert!((per_side..=fronts).contains(&chains), "{chains} chains for {fronts} fronts");

    // The captured spans round-trip as balanced Chrome trace JSON and
    // cover the record and replay phases of the run above.
    obs::span::disarm();
    let (path, events) = obs::span::flush()
        .expect("span flush writes")
        .expect("tracer was armed");
    assert!(events > 0, "armed run recorded no spans");
    let text = std::fs::read_to_string(&path).expect("span file readable");
    let summary = obs::chrome::validate_trace(&text).expect("valid Chrome trace");
    assert_eq!(summary.events, events);
    for prefix in ["record", "replay", "suite.workload"] {
        assert!(
            summary.has_span_prefix(prefix),
            "no {prefix}* span among {:?}",
            summary.names
        );
    }
    // Each chain enters one `replay.chain` span and records one cache pass.
    use obs::json::Json;
    let root = obs::json::parse(&text).expect("span file parses");
    let spans = root.get("traceEvents").and_then(Json::as_arr).expect("events");
    let is = |e: &Json, key: &str, value: &str| e.get(key).and_then(Json::as_str) == Some(value);
    let chain_spans = spans
        .iter()
        .filter(|e| is(e, "name", "replay.chain") && is(e, "ph", "B"))
        .count() as u64;
    assert_eq!(chain_spans, chains, "one replay.cache_ns observation per replay.chain span");
    std::fs::remove_file(&path).ok();
}
