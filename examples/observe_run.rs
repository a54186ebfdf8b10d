//! Observability walkthrough: arm the span tracer, run the seven
//! kernels over one store, then read back everything the obs layer collected — the
//! metrics registry (counters, gauges, latency histograms), the
//! exclusive per-phase wall-clock breakdown, and the Chrome trace-event
//! profile (open it at <https://ui.perfetto.dev>).
//!
//! ```sh
//! cargo run --release --example observe_run
//! # or capture spans/logs from the environment instead:
//! WAYMEM_SPANS=spans.json WAYMEM_LOG=debug cargo run --release --example observe_run
//! ```

use waymem::obs;
use waymem::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Environment first (WAYMEM_SPANS / WAYMEM_LOG), programmatic
    // fallback second: arm the tracer ourselves if the env didn't.
    obs::init_from_env();
    if !obs::span::armed() {
        obs::span::arm(std::env::temp_dir().join("observe_run_spans.json"));
    }

    // Any instrumented work will do; store-backed kernel runs exercise
    // every phase — resolve, record, store I/O, and parallel replay.
    let dir = std::env::temp_dir().join("observe_run_cache");
    let store = TraceStore::with_cache_dir(&dir);
    let results = Experiment::run_all(Benchmark::ALL.map(|bench| {
        Experiment::kernel(bench)
            .dschemes([DScheme::Original, DScheme::paper_way_memo()])
            .ischemes([IScheme::Original, IScheme::paper_way_memo()])
            .store(&store)
    }))?;
    println!("ran {} workloads\n", results.len());

    // 1. The metrics registry: every counter, gauge, and histogram any
    // layer recorded, by name. Histograms report quantiles to
    // power-of-two bucket resolution.
    let snapshot = obs::registry().snapshot();
    println!("counters:");
    for (name, value) in &snapshot.counters {
        println!("  {name:<24} {value}");
    }
    println!("histograms (ns):");
    for (name, h) in &snapshot.histograms {
        println!(
            "  {name:<24} n={:<8} p50={:<10} p95={:<10} p99={}",
            h.count,
            h.p50(),
            h.p95(),
            h.p99()
        );
    }

    // 2. The phase breakdown: exclusive wall-clock per engine phase —
    // the same numbers `headline` exports as `phases` in
    // BENCH_headline.json (schema v7).
    println!("\nengine phases (exclusive wall-clock):");
    for (name, seconds) in obs::phase::snapshot() {
        println!("  {name:<10} {:.1} ms", seconds * 1e3);
    }

    // 3. The span profile: drain every thread's buffer into one Chrome
    // trace-event JSON file and sanity-check it with the bundled
    // validator.
    if let Some((path, events)) = obs::span::flush()? {
        let summary = obs::chrome::validate_trace(&std::fs::read_to_string(&path)?)
            .map_err(std::io::Error::other)?;
        println!(
            "\nwrote {events} span events ({} distinct names, {} threads) to {}",
            summary.names.len(),
            summary.threads,
            path.display()
        );
        println!("open it at https://ui.perfetto.dev");
    }
    Ok(())
}
