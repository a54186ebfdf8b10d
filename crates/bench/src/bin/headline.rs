//! Checks the abstract's headline claims in one run of the paper's scheme
//! set, each saving against its figure's baseline as
//! [`waymem_bench::paper`] defines it:
//! * D-cache power against the original D-cache (Fig. 5);
//! * I-cache power against the intra-line cache \[4\] (Fig. 7), and,
//!   under its own name, against a conventional I-cache;
//! * total power against original + \[4\] (Fig. 8), average and best;
//! * no performance penalty (zero extra cycles for way memoization).
//!
//! It also times three passes of the 7-benchmark suite through the one
//! replay engine — a cold pass through the shared
//! [`waymem_sim::TraceStore`] (records or disk-loads each trace), a warm
//! pass (pure in-memory store hits), and a bounded-memory streaming pass
//! replaying each trace from its on-disk `.wmtr` file in batches — and
//! writes the wall-clocks, the streaming events/sec, and the store's
//! hit/miss/compression accounting to `BENCH_headline.json` (schema
//! `waymem/headline/v7`, not tracked), and appends them to the run
//! ledger (`waymem_bench::ledger`), so the repository tracks its own
//! performance trajectory.
//!
//! Set `WAYMEM_TRACE_CACHE=<dir>` to persist recorded traces across
//! invocations; a second run then reports `"records": 0` — the CI
//! cold-vs-warm smoke checks exactly that.

use std::time::Instant;

use waymem_bench::paper::{self, Report};
use waymem_bench::ledger;
use waymem_obs::json::Json;
use waymem_obs::phase;
use waymem_sim::{Experiment, TraceStore};
use waymem_workloads::Benchmark;

fn main() {
    // Arm span capture (WAYMEM_SPANS=<path>) and resolve the log level
    // (WAYMEM_LOG) before any instrumented work runs.
    waymem_obs::init_from_env();
    let (dschemes, ischemes) = (paper::dschemes(), paper::ischemes());
    let store = TraceStore::from_env();

    // Cold pass: every lookup misses in memory (records, or loads from a
    // warm cache dir); warm pass: every lookup is an in-memory hit.
    let cold_start = Instant::now();
    let results = paper::suite(&store).expect("suite runs");
    let cold_s = cold_start.elapsed().as_secs_f64();
    let warm_start = Instant::now();
    let warm = paper::suite(&store).expect("suite runs");
    let warm_s = warm_start.elapsed().as_secs_f64();

    // Streaming pass: each kernel's trace replays from its on-disk
    // `.wmtr` file in bounded batches — O(batch) resident memory, the
    // pipeline that keeps multi-GB captures feasible. Timed per whole
    // pass; the events/sec figure is the headline streaming number.
    let stream_start = Instant::now();
    let mut stream_events: u64 = 0;
    let mut streamed = Vec::with_capacity(Benchmark::ALL.len());
    for &bench in &Benchmark::ALL {
        let prepared = Experiment::kernel(bench)
            .dschemes(dschemes.iter().copied())
            .ischemes(ischemes.iter().copied())
            .store(&store)
            .streaming(true)
            .prepare()
            .expect("streaming prepare");
        stream_events += prepared.source().len();
        streamed.push(prepared.run().expect("streaming replay"));
    }
    let stream_s = stream_start.elapsed().as_secs_f64();
    let stream_eps = if stream_s > 0.0 { stream_events as f64 / stream_s } else { 0.0 };

    // The passes must agree exactly (tests pin this; cheap re-check).
    for (pass, other) in [("warm", &warm), ("streaming", &streamed)] {
        for (a, b) in results.iter().zip(other) {
            assert_eq!(a.cycles, b.cycles, "{}: {pass} replay disagrees", a.workload);
            for (x, y) in a.dcache.iter().zip(&b.dcache).chain(a.icache.iter().zip(&b.icache)) {
                assert_eq!(x.stats, y.stats, "{}/{}: {pass} disagrees", a.workload, x.name);
            }
        }
    }

    let report = Report::new(&results);
    print!("{}", report.claims);

    let stats = store.stats();
    println!(
        "\nsuite wall-clock: store cold {:.1} ms, store warm {:.1} ms",
        cold_s * 1e3,
        warm_s * 1e3
    );
    println!(
        "streaming replay: {:.1} ms for {} events ({:.0} events/s, O(batch) resident)",
        stream_s * 1e3,
        stream_events,
        stream_eps
    );
    println!(
        "trace store: {} lookups, {} hits, {} disk hits, {} records ({:.0}% hit rate), {:.2}x codec compression",
        stats.lookups,
        stats.hits,
        stats.disk_hits,
        stats.records,
        stats.hit_rate() * 100.0,
        stats.compression_ratio()
    );

    let phases = phase::snapshot();
    println!(
        "engine phases (exclusive wall-clock): {}",
        phases
            .iter()
            .map(|(name, s)| format!("{name} {:.1} ms", s * 1e3))
            .collect::<Vec<_>>()
            .join(", ")
    );

    // One provenance stamps the report, the ledger record and the line
    // printed about it.
    let prov = ledger::Provenance::detect();
    // The perf figures double as this run's ledger record: what the
    // report carries at its root, the record carries under `perf`.
    let mut perf = vec![
        ("store_cold_seconds", Json::from(cold_s)),
        ("store_warm_seconds", Json::from(warm_s)),
        ("streaming_seconds", Json::from(stream_s)),
        ("streaming_events", Json::from(stream_events)),
        ("streaming_events_per_sec", Json::from(stream_eps)),
        ("trace_store", stats.to_json()),
        ("phases", phase::to_json(&phases)),
    ];
    perf.extend(report.headline().map(|(name, pct)| (name, Json::from(pct))));
    let mut report = vec![
        ("schema", Json::from("waymem/headline/v7")),
        ("git_rev", Json::from(prov.git_rev.clone())),
        ("host_threads", Json::from(prov.host_threads)),
        ("benchmarks", Json::from(results.len() as u64)),
        ("dschemes", Json::from(dschemes.len() as u64)),
        ("ischemes", Json::from(ischemes.len() as u64)),
    ];
    report.extend(perf.iter().cloned());
    let metrics = waymem_obs::snapshot::take().to_json();
    report.push(("metrics", metrics.clone()));
    let report = Json::object(report);
    std::fs::write("BENCH_headline.json", format!("{report}\n"))
        .expect("write BENCH_headline.json");
    eprintln!("wrote BENCH_headline.json");

    // Append this run to the durable trajectory (WAYMEM_LEDGER=off to
    // skip; see waymem_bench::ledger for the dedup/rotation policy).
    if let Some(outcome) = ledger::append_from_env("headline", Json::object(perf), metrics, &prov) {
        eprintln!(
            "ledger: {} — {} records (run {} at rev {}{})",
            outcome.path.display(),
            outcome.records,
            outcome.runs_at_rev,
            prov.git_rev,
            if prov.git_dirty { ", dirty" } else { "" }
        );
    }

    // With WAYMEM_SPANS set, drain every thread's span buffer into the
    // Chrome trace-event file (open it at ui.perfetto.dev).
    match waymem_obs::span::flush() {
        Ok(Some((path, events))) => eprintln!("wrote {events} span events to {}", path.display()),
        Ok(None) => {}
        Err(e) => eprintln!("headline: failed to write span trace: {e}"),
    }
}
