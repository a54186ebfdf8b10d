//! CI gate for the observability exports: validates a span trace file
//! (written via `WAYMEM_SPANS=<path>`) as well-formed Chrome trace-event
//! JSON with balanced `B`/`E` pairs and spans covering the record, store
//! I/O, and replay phases — and, when a `BENCH_headline.json` is given,
//! checks its schema v7 `phases` breakdown and embedded `metrics`
//! snapshot (histogram percentiles monotone, phase totals non-negative).
//! `--flight FILE` validates a crash flight-recorder dump instead of /
//! as well as the span trace. `--results FILE` validates a result
//! artifact (`BENCH_export.json` or `BENCH_ingest.json`): its schema tag,
//! and in every `result_json` object `hits + misses == accesses` and
//! `mab_hits <= mab_lookups` per scheme, and one shared `hits`, `misses`
//! and `write_backs` per cache side, since every scheme of a side drives
//! the same cache. It checks the rows of the paper artifact
//! (`BENCH_paper.json`) as `check_paper` says, and a loadgen artifact
//! (`BENCH_loadgen.json`) as `check_loadgen` says.
//!
//! ```text
//! cargo run --release -p waymem-bench --bin obs_check -- spans.json [BENCH_headline.json]
//! cargo run --release -p waymem-bench --bin obs_check -- --flight waymem-flight.json
//! cargo run --release -p waymem-bench --bin obs_check -- --results BENCH_ingest.json
//! cargo run --release -p waymem-bench --bin obs_check -- --results BENCH_paper.json
//! cargo run --release -p waymem-bench --bin obs_check -- --results BENCH_loadgen.json
//! ```
//!
//! Exits non-zero with a description of the first violation, so a CI
//! step is just the two commands: a `headline` run with `WAYMEM_SPANS`
//! set, then this check over what it wrote.

use std::collections::HashSet;
use std::process::ExitCode;

use waymem_bench::paper;
use waymem_obs::chrome::validate_trace;
use waymem_obs::flight::validate_dump;
use waymem_obs::json::{parse, Json};
use waymem_obs::snapshot::validate_metrics;

/// Span-name prefixes a headline run must have recorded: trace
/// production, store disk I/O, and front-end replay.
const REQUIRED_SPAN_PREFIXES: [&str; 3] = ["record", "store.io", "replay"];

/// Keys the schema v7 `phases` object must carry.
const REQUIRED_PHASES: [&str; 4] = ["resolve", "record", "io", "replay"];

/// The schemas of the headline report and of the loadgen artifact.
const HEADLINE_SCHEMA: &str = "waymem/headline/v7";
const LOADGEN_SCHEMA: &str = "waymem/loadgen/v3";

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
    if schema != HEADLINE_SCHEMA {
        return Err(format!("{path}: schema is {schema}, expected {HEADLINE_SCHEMA}"));
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
        "obs_check: {path}: schema v7, four-phase breakdown ({total:.3} s total), \
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

/// The `result_json` objects of a result artifact, by its schema.
fn results_of(root: &Json) -> Result<Vec<&Json>, String> {
    let schema = root.get("schema").and_then(Json::as_str).ok_or("missing schema")?;
    let missing = |key: &str| format!("{schema}: missing {key} array");
    match schema {
        "waymem/export/v1" => {
            let results = root.get("results").and_then(Json::as_arr);
            Ok(results.ok_or_else(|| missing("results"))?.iter().collect())
        }
        "waymem/ingest/v2" => {
            let workloads = root.get("workloads").and_then(Json::as_arr);
            let workloads = workloads.ok_or_else(|| missing("workloads"))?;
            workloads
                .iter()
                .map(|w| w.get("result").ok_or_else(|| format!("{schema}: a workload has no result")))
                .collect()
        }
        other => Err(format!("schema is {other}, not a result artifact")),
    }
}

/// Checks one `result_json` object: per scheme, `hits + misses ==
/// accesses` and `mab_hits <= mab_lookups`; per cache side, one shared
/// `hits`, `misses` and `write_backs`.
fn check_result(result: &Json) -> Result<(), String> {
    let workload = result.get("workload").and_then(Json::as_str).unwrap_or("?");
    let schemes = result.get("schemes").and_then(Json::as_arr);
    let schemes = schemes.ok_or_else(|| format!("{workload}: missing schemes array"))?;
    let mut sides: Vec<(&str, [f64; 3])> = Vec::new();
    for s in schemes {
        let cache = s.get("cache").and_then(Json::as_str).unwrap_or("?");
        let name = s.get("scheme").and_then(Json::as_str).unwrap_or("?");
        let at = format!("{workload} {cache} {name}");
        let field = |key: &str| {
            let value = s.get(key).and_then(Json::as_num);
            value.ok_or_else(|| format!("{at}: {key} missing or non-numeric"))
        };
        let (accesses, hits, misses) = (field("accesses")?, field("hits")?, field("misses")?);
        if hits + misses != accesses {
            return Err(format!("{at}: hits {hits} + misses {misses} != accesses {accesses}"));
        }
        let (mab_hits, mab_lookups) = (field("mab_hits")?, field("mab_lookups")?);
        if mab_hits > mab_lookups {
            return Err(format!("{at}: mab_hits {mab_hits} > mab_lookups {mab_lookups}"));
        }
        let outcome = [hits, misses, field("write_backs")?];
        match sides.iter().find(|(side, _)| *side == cache) {
            Some((_, shared)) if *shared != outcome => {
                return Err(format!(
                    "{at}: hits/misses/write_backs {outcome:?} differ from the side's {shared:?}"
                ));
            }
            Some(_) => {}
            None => sides.push((cache, outcome)),
        }
    }
    Ok(())
}

/// Checks a paper artifact's rows, and returns how many it has: ids
/// non-empty and unique, `ours` finite, and `paper` and `delta` both null,
/// or both numbers with `delta = ours − paper` to four decimals.
fn check_paper(root: &Json) -> Result<usize, String> {
    let rows = root.get("rows").and_then(Json::as_arr).ok_or("missing rows array")?;
    let mut ids = HashSet::new();
    for row in rows {
        let id = row.get("id").and_then(Json::as_str).filter(|id| !id.is_empty());
        let id = id.ok_or("a row has no id")?;
        let ours = row.get("ours").and_then(Json::as_num).filter(|v| v.is_finite());
        let ours = ours.ok_or_else(|| format!("{id}: ours missing or not finite"))?;
        let quoted = |key| match row.get(key) {
            Some(Json::Null) => Ok(None),
            v => v.and_then(Json::as_num).map(Some).ok_or(format!("{id}: {key} is no number")),
        };
        match (quoted("paper")?, quoted("delta")?) {
            (None, None) => {}
            (Some(paper), Some(delta)) if (delta - (ours - paper)).abs() <= 1e-4 => {}
            (Some(_), Some(delta)) => return Err(format!("{id}: delta {delta} != ours - paper")),
            _ => return Err(format!("{id}: paper and delta must be both null or both numbers")),
        }
        if !ids.insert(id) {
            return Err(format!("{id}: duplicate id"));
        }
    }
    Ok(rows.len())
}

/// Checks a loadgen artifact: every run request sent is ok, refused or a
/// transport error; at most the pings sent were answered; at most the ok
/// requests shared a dedup leader's run; p50 latency ≤ p99; and the
/// daemon's embedded snapshot is consistent and counted at least the ok
/// requests and answered pings. Returns the ok request count.
fn check_loadgen(root: &Json) -> Result<f64, String> {
    let perf = root.get("perf").ok_or("missing perf object")?;
    let count = |key: &str| {
        perf.get(key).and_then(Json::as_num).ok_or_else(|| format!("perf.{key} missing"))
    };
    let (sent, ok) = (count("requests_sent")?, count("requests_ok")?);
    let (refused, errors) = (count("requests_refused")?, count("transport_errors")?);
    if sent != ok + refused + errors {
        return Err(format!("sent {sent} != ok {ok} + refused {refused} + errors {errors}"));
    }
    let (pings_sent, pings_ok) = (count("pings_sent")?, count("pings_ok")?);
    if pings_ok > pings_sent {
        return Err(format!("pings_ok {pings_ok} > pings_sent {pings_sent}"));
    }
    let shared = count("dedup_shared")?;
    if shared > ok {
        return Err(format!("dedup_shared {shared} > requests_ok {ok}"));
    }
    let (p50, p99) = (count("latency_p50_us")?, count("latency_p99_us")?);
    if p50 > p99 {
        return Err(format!("latency_p50_us {p50} > latency_p99_us {p99}"));
    }
    let daemon = root.get("daemon").filter(|d| **d != Json::Null);
    let daemon = daemon.ok_or("daemon is null: no snapshot of the daemon that served the run")?;
    validate_metrics(daemon).map_err(|e| format!("daemon: {e}"))?;
    let served = daemon.get("counters").and_then(|c| c.get("serve.requests"));
    let served = served.and_then(Json::as_num).unwrap_or(0.0);
    if served < ok + pings_ok {
        return Err(format!(
            "daemon counted {served} serve.requests, fewer than {ok} ok + {pings_ok} pings ok"
        ));
    }
    Ok(ok)
}

fn check_results(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let root = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let schema = root.get("schema").and_then(Json::as_str);
    if schema == Some(paper::SCHEMA) {
        let rows = check_paper(&root).map_err(|e| format!("{path}: {e}"))?;
        println!("obs_check: {path}: {rows} paper rows, ids unique, deltas consistent — ok");
        return Ok(());
    }
    if schema == Some(LOADGEN_SCHEMA) {
        let ok = check_loadgen(&root).map_err(|e| format!("{path}: {e}"))?;
        println!("obs_check: {path}: {ok} ok requests accounted, daemon snapshot consistent — ok");
        return Ok(());
    }
    let results = results_of(&root).map_err(|e| format!("{path}: {e}"))?;
    if results.is_empty() {
        return Err(format!("{path}: no results"));
    }
    for result in &results {
        check_result(result).map_err(|e| format!("{path}: {e}"))?;
    }
    println!(
        "obs_check: {path}: {} results, counters consistent, one cache outcome per side — ok",
        results.len()
    );
    Ok(())
}

const USAGE: &str = "usage: obs_check [SPANS_JSON [BENCH_HEADLINE_JSON]] [--flight DUMP_JSON] \
                     [--results RESULT_JSON]";

fn main() -> ExitCode {
    let mut positional: Vec<String> = Vec::new();
    let mut flights: Vec<String> = Vec::new();
    let mut results: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let list = match arg.as_str() {
            "--flight" => &mut flights,
            "--results" => &mut results,
            flag if flag.starts_with('-') => {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
            path => {
                positional.push(path.to_owned());
                continue;
            }
        };
        match args.next() {
            Some(path) => list.push(path),
            None => {
                eprintln!("obs_check: {arg} needs a path");
                return ExitCode::from(2);
            }
        }
    }
    let (spans, headline) = match positional.as_slice() {
        [] if !flights.is_empty() || !results.is_empty() => (None, None),
        [spans] => (Some(spans.clone()), None),
        [spans, headline] => (Some(spans.clone()), Some(headline.clone())),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = spans
        .map_or(Ok(()), |path| check_spans(&path))
        .and_then(|()| headline.map_or(Ok(()), |path| check_headline(&path)))
        .and_then(|()| flights.iter().try_for_each(|path| check_flight(path)))
        .and_then(|()| results.iter().try_for_each(|path| check_results(path)));
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("obs_check: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheme(cache: &str, name: &str, counts: [u64; 6]) -> String {
        let [accesses, hits, misses, mab_hits, mab_lookups, write_backs] = counts;
        format!(
            "{{\"cache\":\"{cache}\",\"scheme\":\"{name}\",\"accesses\":{accesses},\
             \"hits\":{hits},\"misses\":{misses},\"mab_hits\":{mab_hits},\
             \"mab_lookups\":{mab_lookups},\"write_backs\":{write_backs}}}"
        )
    }

    fn check(schemes: &[String]) -> Result<(), String> {
        let text = format!("{{\"workload\":\"w\",\"schemes\":[{}]}}", schemes.join(","));
        check_result(&parse(&text).expect("valid JSON"))
    }

    #[test]
    fn consistent_result_passes() {
        let d = scheme("dcache", "original", [10, 8, 2, 0, 0, 1]);
        let d_memo = scheme("dcache", "way_memo", [10, 8, 2, 6, 10, 1]);
        let i = scheme("icache", "original", [20, 19, 1, 0, 0, 0]);
        assert_eq!(check(&[d, d_memo, i]), Ok(()));
    }

    #[test]
    fn inconsistent_counters_are_rejected() {
        let d = scheme("dcache", "original", [10, 8, 2, 0, 0, 1]);
        for bad in [
            scheme("dcache", "lost_access", [10, 8, 1, 0, 0, 1]),
            scheme("dcache", "mab_overcount", [10, 8, 2, 11, 10, 1]),
            scheme("dcache", "other_cache", [10, 8, 2, 0, 0, 2]),
        ] {
            assert!(check(&[d.clone(), bad.clone()]).is_err(), "{bad} must be rejected");
        }
    }

    fn paper(rows: &[&str]) -> Result<usize, String> {
        let text = format!("{{\"schema\":\"waymem/paper/v1\",\"rows\":[{}]}}", rows.join(","));
        check_paper(&parse(&text).expect("valid JSON"))
    }

    #[test]
    fn consistent_paper_artifact_passes() {
        let rows = [
            r#"{"id":"a.x","ours":0.3333,"paper":0.5000,"delta":-0.1667}"#,
            r#"{"id":"b.y","ours":2.0000,"paper":null,"delta":null}"#,
        ];
        assert_eq!(paper(&rows), Ok(2));
    }

    #[test]
    fn inconsistent_paper_rows_are_rejected() {
        let good = r#"{"id":"a.x","ours":1.0000,"paper":0.5000,"delta":0.5000}"#;
        for bad in [
            r#"{"id":"a.x","ours":2.0000,"paper":null,"delta":null}"#,
            r#"{"id":"b.y","ours":1.0000,"paper":0.5000,"delta":0.4000}"#,
            r#"{"id":"c.z","ours":1.0000,"paper":0.5000,"delta":null}"#,
        ] {
            assert!(paper(&[good, bad]).is_err(), "{bad} must be rejected");
        }
    }

    /// A consistent loadgen artifact, shaped like a local serve +
    /// loadgen run of 200 requests from 2 clients.
    fn loadgen_text() -> String {
        format!(
            "{{\"schema\":\"{LOADGEN_SCHEMA}\",\"perf\":{{\"requests_sent\":200,\
             \"requests_ok\":190,\"requests_refused\":10,\"transport_errors\":0,\
             \"pings_sent\":12,\"pings_ok\":12,\
             \"dedup_shared\":20,\"latency_p50_us\":2123,\"latency_p99_us\":6418}},\
             \"daemon\":{{\"counters\":{{\"serve.requests\":203}},\"gauges\":{{}},\
             \"histograms\":{{}},\"phases\":{{}}}}}}"
        )
    }

    fn loadgen(text: &str) -> Result<f64, String> {
        check_loadgen(&parse(text).expect("valid JSON"))
    }

    #[test]
    fn consistent_loadgen_artifact_passes() {
        assert_eq!(loadgen(&loadgen_text()), Ok(190.0));
    }

    #[test]
    fn inconsistent_loadgen_artifacts_are_rejected() {
        let good = loadgen_text();
        let daemon = good.find("\"daemon\"").expect("has a daemon");
        for (bad, why) in [
            (good.replace("\"requests_sent\":200", "\"requests_sent\":201"), "sent 201"),
            (good.replace("\"latency_p50_us\":2123", "\"latency_p50_us\":7000"), "p50"),
            (good.replace("\"dedup_shared\":20", "\"dedup_shared\":191"), "dedup_shared"),
            (good.replace("\"serve.requests\":203", "\"serve.requests\":189"), "serve."),
            (good.replace("\"pings_ok\":12", "\"pings_ok\":13"), "pings_ok 13 > pings_sent 12"),
            (good.replace("\"pings_sent\":12,", ""), "perf.pings_sent missing"),
            // Enough for the ok requests, not for the answered pings too.
            (good.replace("\"serve.requests\":203", "\"serve.requests\":201"), "12 pings ok"),
            (format!("{}\"daemon\":null}}", &good[..daemon]), "daemon is null"),
        ] {
            assert_ne!(bad, good, "the edit must change the artifact");
            let err = loadgen(&bad).expect_err("an inconsistent artifact");
            assert!(err.contains(why), "{bad}: {err}");
        }
    }

    #[test]
    fn only_result_artifacts_are_accepted() {
        let headline = parse("{\"schema\":\"waymem/headline/v7\"}").expect("valid JSON");
        assert!(results_of(&headline).is_err());
        let ingest = parse("{\"schema\":\"waymem/ingest/v2\",\"workloads\":[{\"result\":{}}]}")
            .expect("valid JSON");
        assert_eq!(results_of(&ingest).map(|r| r.len()), Ok(1));
    }
}
