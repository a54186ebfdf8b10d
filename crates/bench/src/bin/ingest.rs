//! Runs **any** memory trace — ingested Valgrind Lackey / CSV logs and
//! the built-in synthetic access patterns — through every implemented
//! lookup scheme (conventional, the paper's way memoization, and all
//! ablations), printing per-scheme tag/way activations and Eq. (1) power
//! per workload and exporting them into `BENCH_ingest.json` (schema
//! `waymem/ingest/v2`): one entry per workload, its source and replay
//! speed around the shared [`result_json`] encoding.
//!
//! ```text
//! cargo run --release -p waymem-bench --bin ingest -- [OPTIONS] [LOG...]
//!
//! LOG                  log files; `.csv` parses as the CSV grammar,
//!                      anything else as Valgrind Lackey --trace-mem=yes
//! --format lackey|csv  force one grammar for every log
//! --synth-accesses N   data accesses per synthetic pattern (default 200000)
//! --no-synth           skip the synthetic pattern suite
//! --stream             bounded-memory pipeline: parse straight to disk
//!                      and replay in batches — resident memory is
//!                      O(batch), not O(trace), so multi-GB captures fit
//! --out DIR            write BENCH_ingest.json there (default: cwd)
//! ```
//!
//! Capture a real program's trace and run it in two commands:
//!
//! ```text
//! valgrind --tool=lackey --trace-mem=yes --log-file=prog.log ./prog
//! cargo run --release -p waymem-bench --bin ingest -- prog.log
//! ```
//!
//! With `WAYMEM_TRACE_CACHE=<dir>` the parsed/generated traces persist
//! as `.wmtr` files keyed by content hash / generator spec, and
//! `WAYMEM_TRACE_CACHE_MAX_BYTES` caps that directory (oldest evicted
//! first) — ingested logs are exactly where unbounded growth would bite.

use std::path::PathBuf;
use std::process::ExitCode;

use waymem_bench::{full_dschemes, full_ischemes, ledger};
use waymem_ingest::{synth, LogFormat};
use waymem_obs::json::Json;
use waymem_sim::{
    catch_worker, result_json, Experiment, FigureRow, Prepared, RunError, SimConfig, SimResult,
    TraceSource, TraceStore, WorkloadId,
};

/// One evaluated workload: where it came from, what ran, how fast the
/// replay consumed its events.
struct Row {
    /// Human-readable label for tables and JSON (file name or pattern).
    label: String,
    /// Source description for the JSON metadata.
    source: Json,
    result: SimResult,
    /// `"streaming"` (bounded-memory disk replay) or `"materialized"`.
    source_mode: &'static str,
    /// Wall-clock seconds the replay took.
    replay_seconds: f64,
    /// Events (fetch + data) consumed per second of replay.
    events_per_sec: f64,
}

struct Options {
    logs: Vec<PathBuf>,
    forced_format: Option<LogFormat>,
    synth_accesses: u32,
    run_synth: bool,
    streaming: bool,
    out_dir: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: ingest [--format lackey|csv] [--synth-accesses N] [--no-synth] [--stream] \
         [--out DIR] [LOG...]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        logs: Vec::new(),
        forced_format: None,
        synth_accesses: 200_000,
        run_synth: true,
        streaming: false,
        out_dir: PathBuf::from("."),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => {
                opts.forced_format = match args.next().as_deref() {
                    Some("lackey") => Some(LogFormat::Lackey),
                    Some("csv") => Some(LogFormat::Csv),
                    _ => usage(),
                }
            }
            "--synth-accesses" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => opts.synth_accesses = n,
                None => usage(),
            },
            "--no-synth" => opts.run_synth = false,
            "--stream" => opts.streaming = true,
            "--out" => match args.next() {
                Some(dir) => opts.out_dir = PathBuf::from(dir),
                None => usage(),
            },
            "--help" | "-h" => usage(),
            flag if flag.starts_with('-') => usage(),
            log => opts.logs.push(PathBuf::from(log)),
        }
    }
    opts
}

/// Replays a prepared experiment, timing the replay and deriving the
/// streamed-events-per-second figure the JSON export reports first-class.
fn replay_row(
    prepared: Prepared,
    label: String,
    source: Json,
    streaming: bool,
) -> Result<Row, RunError> {
    let events = prepared.source().len();
    let start = std::time::Instant::now();
    let result = prepared.run()?;
    let replay_seconds = start.elapsed().as_secs_f64();
    Ok(Row {
        label,
        source,
        result,
        source_mode: if streaming { "streaming" } else { "materialized" },
        replay_seconds,
        events_per_sec: if replay_seconds > 0.0 {
            events as f64 / replay_seconds
        } else {
            0.0
        },
    })
}

fn print_tables(row: &Row) {
    let r = &row.result;
    println!(
        "\n### workload {} ({}) — {} cycles, {} D accesses, {} I accesses \
         [{} replay: {:.0} events/s]",
        row.label,
        r.workload,
        r.cycles,
        r.dcache.first().map_or(0, |s| s.stats.accesses),
        r.icache.first().map_or(0, |s| s.stats.accesses),
        row.source_mode,
        row.events_per_sec,
    );
    for (title, side) in [("D-cache", &r.dcache), ("I-cache", &r.icache)] {
        if side.is_empty() {
            continue;
        }
        let tag_row = FigureRow {
            label: row.label.clone(),
            values: side.iter().map(|s| (s.name.clone(), s.stats.tags_per_access())).collect(),
        };
        let way_row = FigureRow {
            label: row.label.clone(),
            values: side.iter().map(|s| (s.name.clone(), s.stats.ways_per_access())).collect(),
        };
        let mw_row = FigureRow {
            label: row.label.clone(),
            values: side.iter().map(|s| (s.name.clone(), s.power.total_mw())).collect(),
        };
        print!("{}", waymem_sim::format_ratio_table(&format!("{title}: tag reads / access"), &[tag_row]));
        print!("{}", waymem_sim::format_ratio_table(&format!("{title}: way reads / access"), &[way_row]));
        print!("{}", waymem_sim::format_ratio_table(&format!("{title}: total power (mW)"), &[mw_row]));
    }
}

fn main() -> ExitCode {
    // Arm span capture (WAYMEM_SPANS=<path>) and resolve the log level
    // (WAYMEM_LOG) before any instrumented work runs.
    waymem_obs::init_from_env();
    let opts = parse_args();
    if opts.logs.is_empty() && !opts.run_synth {
        eprintln!("ingest: nothing to do (no logs and --no-synth)");
        return ExitCode::from(2);
    }
    let cfg = SimConfig::default();
    let dschemes = full_dschemes();
    let ischemes = full_ischemes();
    let store = TraceStore::from_env();
    let mut rows: Vec<Row> = Vec::new();
    // Per-workload failure isolation: one unreadable log (or a worker
    // panic) skips that workload and is reported, instead of discarding
    // every other result in the batch.
    let mut failures: Vec<(String, RunError)> = Vec::new();

    for path in &opts.logs {
        let format = opts.forced_format.unwrap_or_else(|| LogFormat::for_path(path));
        let label = path
            .file_name()
            .map_or_else(|| path.display().to_string(), |n| n.to_string_lossy().into_owned());
        // The experiment hashes the raw bytes first: with a warm trace
        // cache the `.wmtr` disk hit then skips parsing (and the event
        // materialization) entirely — for a multi-GB capture the parse
        // *is* the cost.
        let outcome = catch_worker(|| {
            let prepared = Experiment::ingest(path)
                .format(format)
                .config(cfg)
                .dschemes(dschemes.clone())
                .ischemes(ischemes.clone())
                .store(&store)
                .streaming(opts.streaming)
                .prepare()?;
            let hash = prepared.source_hash();
            let meta = prepared.ingest_meta();
            let (fetches, data) = match prepared.source() {
                TraceSource::Materialized(t) => {
                    (t.fetch_events.len() as u64, t.data_events.len() as u64)
                }
                TraceSource::Streaming(t) => (t.fetch_count(), t.data_count()),
            };
            match meta {
                Some(m) => eprintln!(
                    "ingest: {label}: {} lines ({} skipped), {fetches} fetches, {data} loads/stores, hash {hash:016x}",
                    m.lines, m.skipped,
                ),
                None => eprintln!(
                    "ingest: {label}: replayed cached trace ({fetches} fetches, {data} loads/stores), hash {hash:016x}",
                ),
            }
            let mut source = vec![
                ("kind".to_owned(), Json::from("external")),
                ("path".to_owned(), Json::from(path.display().to_string())),
                (
                    "format".to_owned(),
                    Json::from(if format == LogFormat::Csv { "csv" } else { "lackey" }),
                ),
                ("content_hash".to_owned(), Json::from(format!("{hash:016x}"))),
            ];
            if let Some(m) = meta {
                source.push(("lines".to_owned(), Json::from(m.lines)));
                source.push(("skipped_lines".to_owned(), Json::from(m.skipped)));
            }
            replay_row(prepared, label.clone(), Json::Object(source), opts.streaming)
        });
        match outcome {
            Ok(row) => rows.push(row),
            Err(e) => {
                waymem_obs::warn!(
                    "ingest.workload_failed",
                    workload = label,
                    error = e,
                    retryable = e.is_retryable(),
                );
                failures.push((label, e));
            }
        }
    }

    if opts.run_synth {
        for spec in synth::standard_suite(opts.synth_accesses) {
            let id = WorkloadId::Synthetic(spec);
            let prepared = Experiment::synthetic(spec)
                .config(cfg)
                .dschemes(dschemes.clone())
                .ischemes(ischemes.clone())
                .store(&store)
                .streaming(opts.streaming)
                .prepare();
            let source = Json::object(vec![
                ("kind", Json::from("synthetic")),
                ("pattern", Json::from(spec.pattern.token())),
                ("accesses", Json::from(spec.accesses)),
                ("seed", Json::from(spec.seed)),
                ("generator_version", Json::from(synth::GENERATOR_VERSION)),
            ]);
            let row = catch_worker(|| {
                prepared.and_then(|p| replay_row(p, id.name(), source, opts.streaming))
            });
            match row {
                Ok(row) => rows.push(row),
                Err(e) => {
                    waymem_obs::warn!(
                        "ingest.workload_failed",
                        workload = id.name(),
                        error = e,
                        retryable = e.is_retryable(),
                    );
                    failures.push((id.name(), e));
                }
            }
        }
    }

    for row in &rows {
        print_tables(row);
    }

    // One entry per workload: its label, source and replay speed around
    // the shared result encoding.
    let workloads: Vec<Json> = rows
        .iter()
        .map(|row| {
            Json::object(vec![
                ("workload", Json::from(row.label.clone())),
                ("source_mode", Json::from(row.source_mode)),
                ("replay_seconds", Json::from(row.replay_seconds)),
                ("events_per_sec", Json::from(row.events_per_sec)),
                ("source", row.source.clone()),
                ("result", result_json(&row.result)),
            ])
        })
        .collect();
    let failure_rows: Vec<Json> = failures
        .iter()
        .map(|(workload, error)| {
            Json::object(vec![
                ("workload", Json::from(workload.clone())),
                ("error", Json::from(error.to_string())),
                ("retryable", Json::from(error.is_retryable())),
            ])
        })
        .collect();
    let metrics = waymem_obs::snapshot::take().to_json();
    let json = Json::object(vec![
        ("schema", Json::from("waymem/ingest/v2")),
        (
            "geometry",
            Json::object(vec![
                ("sets", Json::from(cfg.geometry.sets())),
                ("ways", Json::from(cfg.geometry.ways())),
                ("line_bytes", Json::from(cfg.geometry.line_bytes())),
            ]),
        ),
        ("workloads", Json::Array(workloads)),
        ("failures", Json::Array(failure_rows)),
        ("trace_store", store.stats().to_json()),
        ("metrics", metrics.clone()),
    ]);
    let json_path = opts.out_dir.join("BENCH_ingest.json");
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir) {
        eprintln!("ingest: cannot create {}: {e}", opts.out_dir.display());
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(&json_path, format!("{json}\n")) {
        eprintln!("ingest: cannot write {}: {e}", json_path.display());
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {}", json_path.display());

    // Append this batch to the durable trajectory (WAYMEM_LEDGER=off to
    // skip): aggregate replay throughput across the surviving rows plus
    // the store's compression accounting and the phase breakdown.
    let replay_seconds: f64 = rows.iter().map(|r| r.replay_seconds).sum();
    let replayed_events: f64 =
        rows.iter().map(|r| r.events_per_sec * r.replay_seconds).sum();
    let perf = vec![
        ("workloads", Json::from(rows.len() as u64)),
        ("failed_workloads", Json::from(failures.len() as u64)),
        ("replay_seconds", Json::from(replay_seconds)),
        (
            "events_per_sec",
            Json::from(if replay_seconds > 0.0 { replayed_events / replay_seconds } else { 0.0 }),
        ),
        ("trace_store", store.stats().to_json()),
        ("phases", waymem_obs::phase::to_json(&waymem_obs::phase::snapshot())),
    ];
    let prov = ledger::Provenance::detect();
    if let Some(outcome) = ledger::append_from_env("ingest", Json::object(perf), metrics, &prov) {
        eprintln!(
            "ledger: {} — {} records (run {})",
            outcome.path.display(),
            outcome.records,
            outcome.runs_at_rev
        );
    }
    if !failures.is_empty() {
        // Each failure was already warned as `ingest.workload_failed`
        // when it happened; the recap is one summary event.
        waymem_obs::warn!("ingest.batch_failures", count = failures.len());
    }
    match waymem_obs::span::flush() {
        Ok(Some((path, events))) => eprintln!("wrote {events} span events to {}", path.display()),
        Ok(None) => {}
        Err(e) => eprintln!("ingest: failed to write span trace: {e}"),
    }
    // Isolation, not indifference: partial results with failures noted
    // still exit 0, but a batch where *nothing* survived is a failure.
    if rows.is_empty() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
