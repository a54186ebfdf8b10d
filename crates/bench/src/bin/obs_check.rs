//! CI gate for the observability exports: validates a span trace file
//! (written via `WAYMEM_SPANS=<path>`) as well-formed Chrome trace-event
//! JSON with balanced `B`/`E` pairs and spans covering the record, store
//! I/O, and replay phases — and, when a `BENCH_headline.json` is given,
//! checks its schema v6 `phases` breakdown and embedded `metrics`
//! snapshot (histogram percentiles monotone, phase totals non-negative).
//! `--flight FILE` validates a crash flight-recorder dump instead of /
//! as well as the span trace.
//!
//! ```text
//! cargo run --release -p waymem-bench --bin obs_check -- spans.json [BENCH_headline.json]
//! cargo run --release -p waymem-bench --bin obs_check -- --flight waymem-flight.json
//! ```
//!
//! Exits non-zero with a description of the first violation, so a CI
//! step is just the two commands: a `headline` run with `WAYMEM_SPANS`
//! set, then this check over what it wrote.

use std::process::ExitCode;

use waymem_obs::chrome::validate_trace;
use waymem_obs::flight::validate_dump;
use waymem_obs::json::parse;
use waymem_obs::snapshot::validate_metrics;

/// Span-name prefixes a headline run must have recorded: trace
/// production, store disk I/O, and front-end replay.
const REQUIRED_SPAN_PREFIXES: [&str; 3] = ["record", "store.io", "replay"];

/// Keys the schema v6 `phases` object must carry.
const REQUIRED_PHASES: [&str; 4] = ["resolve", "record", "io", "replay"];

fn check_spans(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let summary = validate_trace(&text).map_err(|e| format!("{path}: {e}"))?;
    for prefix in REQUIRED_SPAN_PREFIXES {
        if !summary.has_span_prefix(prefix) {
            return Err(format!(
                "{path}: no span named {prefix}* among {:?}",
                summary.names
            ));
        }
    }
    println!(
        "obs_check: {path}: {} events across {} threads, {} distinct spans — ok",
        summary.events,
        summary.threads,
        summary.names.len()
    );
    Ok(())
}

fn check_headline(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let root = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let schema = root
        .get("schema")
        .and_then(|v| v.as_str())
        .ok_or_else(|| format!("{path}: missing schema"))?;
    if schema != "waymem/headline/v6" {
        return Err(format!("{path}: schema is {schema}, expected waymem/headline/v6"));
    }
    let phases = root.get("phases").ok_or_else(|| format!("{path}: missing phases object"))?;
    for key in REQUIRED_PHASES {
        let seconds = phases
            .get(key)
            .and_then(|v| v.as_num())
            .ok_or_else(|| format!("{path}: phases.{key} missing or non-numeric"))?;
        if !(seconds.is_finite() && seconds >= 0.0) {
            return Err(format!("{path}: phases.{key} = {seconds} is not a valid duration"));
        }
    }
    // A headline run replays seven kernels; a breakdown where no phase
    // accumulated any time means the instrumentation came unthreaded.
    let total: f64 = REQUIRED_PHASES
        .iter()
        .filter_map(|k| phases.get(k).and_then(|v| v.as_num()))
        .sum();
    if total <= 0.0 {
        return Err(format!("{path}: all phases are zero"));
    }
    // The embedded registry snapshot must be internally consistent:
    // counters non-negative, histogram percentiles monotone
    // (p50 ≤ p95 ≤ p99 ≤ max), phase totals non-negative.
    let metrics =
        root.get("metrics").ok_or_else(|| format!("{path}: missing metrics object"))?;
    validate_metrics(metrics).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "obs_check: {path}: schema v6, four-phase breakdown ({total:.3} s total), \
         metrics snapshot consistent — ok"
    );
    Ok(())
}

fn check_flight(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let summary = validate_dump(&text).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "obs_check: {path}: flight dump (reason {:?}) with {} events, {} distinct names, \
         metrics snapshot consistent — ok",
        summary.reason,
        summary.events,
        summary.names.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    let mut positional: Vec<String> = Vec::new();
    let mut flights: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--flight" => match args.next() {
                Some(path) => flights.push(path),
                None => {
                    eprintln!("obs_check: --flight needs a path");
                    return ExitCode::from(2);
                }
            },
            flag if flag.starts_with('-') => {
                eprintln!("usage: obs_check [SPANS_JSON [BENCH_HEADLINE_JSON]] [--flight DUMP_JSON]");
                return ExitCode::from(2);
            }
            path => positional.push(path.to_owned()),
        }
    }
    let (spans, headline) = match positional.as_slice() {
        [] if !flights.is_empty() => (None, None),
        [spans] => (Some(spans.clone()), None),
        [spans, headline] => (Some(spans.clone()), Some(headline.clone())),
        _ => {
            eprintln!("usage: obs_check [SPANS_JSON [BENCH_HEADLINE_JSON]] [--flight DUMP_JSON]");
            return ExitCode::from(2);
        }
    };
    let outcome = spans
        .map_or(Ok(()), |path| check_spans(&path))
        .and_then(|()| headline.map_or(Ok(()), |path| check_headline(&path)))
        .and_then(|()| flights.iter().try_for_each(|path| check_flight(path)));
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("obs_check: {message}");
            ExitCode::FAILURE
        }
    }
}
