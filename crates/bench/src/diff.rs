//! Perf-delta computation between two bench reports — the library
//! behind the `bench_diff` regression gate.
//!
//! [`extract`] pulls the comparable figures out of either report shape
//! (a `BENCH_headline.json` root or a `BENCH_LEDGER.jsonl` record,
//! whose figures live under `"perf"`): the throughput/quality metrics
//! in [`HIGHER_BETTER`], plus the per-phase wall-clock totals as
//! `phase.<name>` (lower is better). [`compare`] then pairs the metrics
//! both reports carry and flags regressions past a tolerance:
//!
//! * a higher-better metric regresses when it falls below
//!   `baseline × (1 − tolerance)`;
//! * a phase regresses when it exceeds `baseline × (1 + tolerance)`
//!   **and** grows by more than [`PHASE_ABS_FLOOR_SECONDS`] — tiny
//!   absolute phases jitter by large ratios without meaning anything.
//!
//! Metrics only one side carries are skipped (schema evolution must not
//! fail the gate), but zero shared metrics is an error — that means the
//! two files were never comparable at all.

use waymem_obs::json::Json;

/// Metrics where bigger is better, read from the report root (headline)
/// or its `perf` object (ledger records). `compression_ratio` also
/// resolves through `trace_store.compression_ratio`.
pub const HIGHER_BETTER: [&str; 4] = [
    "streaming_events_per_sec",
    "events_per_sec",
    "compression_ratio",
    "total_saving_fig8_avg_pct",
];

/// Seconds a phase must grow in absolute terms — on top of the relative
/// tolerance — before it counts as a regression.
pub const PHASE_ABS_FLOOR_SECONDS: f64 = 0.25;

/// One metric's baseline-vs-current comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Metric name (`streaming_events_per_sec`, `phase.replay`, ...).
    pub metric: String,
    /// The baseline report's value.
    pub baseline: f64,
    /// The current report's value.
    pub current: f64,
    /// Signed relative change in percent (positive = current larger).
    pub change_pct: f64,
    /// `true` for `phase.*` metrics, where smaller is better.
    pub lower_better: bool,
    /// `true` when the change crossed the tolerance the wrong way.
    pub regressed: bool,
}

/// Every [`Delta`] from one [`compare`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// All compared metrics, in [`HIGHER_BETTER`]-then-phases order.
    pub deltas: Vec<Delta>,
    /// The tolerance the comparison ran with, in percent.
    pub tolerance_pct: f64,
}

impl DiffReport {
    /// The deltas that crossed the tolerance the wrong way.
    #[must_use]
    pub fn regressions(&self) -> Vec<&Delta> {
        self.deltas.iter().filter(|d| d.regressed).collect()
    }
}

/// Pulls the comparable `(name, value)` figures out of a parsed report:
/// headline roots directly, ledger records through their `perf` object.
/// Missing metrics are simply absent — [`compare`] works on the
/// intersection.
#[must_use]
pub fn extract(root: &Json) -> Vec<(String, f64)> {
    let perf = root.get("perf").unwrap_or(root);
    let mut out = Vec::new();
    for key in HIGHER_BETTER {
        let value = perf.get(key).and_then(Json::as_num).or_else(|| {
            (key == "compression_ratio")
                .then(|| perf.get("trace_store")?.get(key)?.as_num())
                .flatten()
        });
        if let Some(v) = value.filter(|v| v.is_finite()) {
            out.push((key.to_owned(), v));
        }
    }
    if let Some(Json::Object(phases)) = perf.get("phases") {
        for (name, seconds) in phases {
            if let Some(s) = seconds.as_num().filter(|s| s.is_finite()) {
                out.push((format!("phase.{name}"), s));
            }
        }
    }
    out
}

/// Compares `current` against `baseline` with a symmetric relative
/// `tolerance_pct`, flagging each shared metric per the module rules.
///
/// # Errors
///
/// When the two reports share no comparable metric — the files were
/// not comparable bench reports.
pub fn compare(
    current: &Json,
    baseline: &Json,
    tolerance_pct: f64,
) -> Result<DiffReport, String> {
    let base = extract(baseline);
    let cur = extract(current);
    let tol = tolerance_pct.max(0.0) / 100.0;
    let mut deltas = Vec::new();
    for (metric, b) in base {
        let Some((_, c)) = cur.iter().find(|(name, _)| *name == metric) else {
            continue;
        };
        let c = *c;
        let lower_better = metric.starts_with("phase.");
        let change_pct = if b.abs() > f64::EPSILON { (c - b) / b * 100.0 } else { 0.0 };
        let regressed = if lower_better {
            c > b * (1.0 + tol) && (c - b) > PHASE_ABS_FLOOR_SECONDS
        } else {
            b > 0.0 && c < b * (1.0 - tol)
        };
        deltas.push(Delta { metric, baseline: b, current: c, change_pct, lower_better, regressed });
    }
    if deltas.is_empty() {
        return Err("reports share no comparable perf metric".into());
    }
    Ok(DiffReport { deltas, tolerance_pct })
}

#[cfg(test)]
mod tests {
    use super::*;
    use waymem_obs::json::parse;

    const REPORT: &str = r#"{"schema":"waymem/headline/v7","streaming_events_per_sec":1e7,
        "trace_store":{"compression_ratio":3.5},"total_saving_fig8_avg_pct":30.0,
        "phases":{"resolve":0.01,"record":1.0,"io":0.3,"replay":2.0}}"#;

    #[test]
    fn identical_reports_pass() {
        let v = parse(REPORT).unwrap();
        let report = compare(&v, &v, 25.0).unwrap();
        assert!(report.regressions().is_empty(), "{:?}", report.regressions());
        assert_eq!(report.deltas.len(), 7, "{:?}", report.deltas);
    }

    #[test]
    fn degraded_current_is_flagged() {
        let base = parse(REPORT).unwrap();
        let degraded = parse(
            r#"{"streaming_events_per_sec":2e6,
               "trace_store":{"compression_ratio":3.5},"total_saving_fig8_avg_pct":30.0,
               "phases":{"resolve":0.01,"record":1.0,"io":0.3,"replay":9.0}}"#,
        )
        .unwrap();
        let report = compare(&degraded, &base, 25.0).unwrap();
        let flagged: Vec<&str> =
            report.regressions().iter().map(|d| d.metric.as_str()).collect();
        assert!(flagged.contains(&"streaming_events_per_sec"), "{flagged:?}");
        assert!(flagged.contains(&"phase.replay"), "{flagged:?}");
        assert!(!flagged.contains(&"compression_ratio"), "{flagged:?}");
    }

    #[test]
    fn improvements_and_small_phase_jitter_pass() {
        let base = parse(REPORT).unwrap();
        // Better everywhere; phase "io" doubles but stays under the
        // absolute floor.
        let better = parse(
            r#"{"streaming_events_per_sec":2e7,
               "trace_store":{"compression_ratio":4.0},"total_saving_fig8_avg_pct":35.0,
               "phases":{"resolve":0.02,"record":1.0,"io":0.5,"replay":2.0}}"#,
        )
        .unwrap();
        let report = compare(&better, &base, 25.0).unwrap();
        assert!(report.regressions().is_empty(), "{:?}", report.regressions());
    }

    #[test]
    fn ledger_records_compare_through_their_perf_object() {
        let record = parse(&format!(
            r#"{{"schema":"waymem/ledger/v1","bin":"headline","perf":{}}}"#,
            REPORT
        ))
        .unwrap();
        let headline = parse(REPORT).unwrap();
        let report = compare(&headline, &record, 25.0).unwrap();
        assert!(report.regressions().is_empty());
    }

    #[test]
    fn disjoint_reports_are_an_error() {
        let a = parse(r#"{"streaming_events_per_sec":1e7}"#).unwrap();
        let b = parse(r#"{"events_per_sec":1e6}"#).unwrap();
        assert!(compare(&a, &b, 25.0).is_err());
    }
}
