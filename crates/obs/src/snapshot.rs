//! One-call export of the whole observability state.
//!
//! [`take`] freezes every instrument in the [`metrics`](crate::metrics)
//! registry — counters, gauges, and histograms reduced to their summary
//! statistics (count / sum / max / mean / p50 / p95 / p99) — together
//! with the [`phase`] accumulators, into one plain-data
//! [`Snapshot`]. [`Snapshot::to_json`] renders it as a JSON object,
//! which is what the bench binaries embed as the `"metrics"`
//! object of `BENCH_*.json`, what every `BENCH_LEDGER.jsonl` record
//! carries, and what the [`flight`](crate::flight) recorder dumps next
//! to its event ring.
//!
//! [`validate_metrics`] is the matching reader-side check, over the
//! value [`json::parse`](crate::json::parse) reads back: histogram
//! percentiles must be monotone (p50 ≤ p95 ≤ p99), counts must agree
//! with finiteness, and phase totals must be non-negative. The
//! `obs_check` binary runs it over exported files; tests run it over
//! freshly rendered snapshots.

use crate::json::Json;
use crate::metrics::{registry, HistogramSnapshot};
use crate::phase;

/// Summary statistics of one histogram, percentiles to bucket
/// resolution — the export-side reduction of a
/// [`HistogramSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramStats {
    /// Total observations.
    pub count: u64,
    /// Sum of every recorded value (wrapping).
    pub sum: u64,
    /// Largest value recorded.
    pub max: u64,
    /// Arithmetic mean (0.0 when empty).
    pub mean: f64,
    /// Median, to bucket resolution.
    pub p50: u64,
    /// 95th percentile, to bucket resolution.
    pub p95: u64,
    /// 99th percentile, to bucket resolution.
    pub p99: u64,
}

impl From<HistogramSnapshot> for HistogramStats {
    fn from(s: HistogramSnapshot) -> Self {
        HistogramStats {
            count: s.count,
            sum: s.sum,
            max: s.max,
            mean: s.mean(),
            p50: s.p50(),
            p95: s.p95(),
            p99: s.p99(),
        }
    }
}

/// A point-in-time freeze of every instrument plus the phase
/// accumulators. Name-sorted within each section (the registry interns
/// by name into sorted maps).
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Every counter's name and count.
    pub counters: Vec<(String, u64)>,
    /// Every gauge's name and value.
    pub gauges: Vec<(String, f64)>,
    /// Every histogram's name and summary statistics.
    pub histograms: Vec<(String, HistogramStats)>,
    /// Exclusive per-phase wall-clock seconds, in
    /// [`Phase`](crate::phase::Phase) declaration order.
    pub phases: Vec<(&'static str, f64)>,
}

/// Freezes the registry and the phase accumulators now.
#[must_use]
pub fn take() -> Snapshot {
    let regs = registry().snapshot();
    Snapshot {
        counters: regs.counters,
        gauges: regs.gauges,
        histograms: regs
            .histograms
            .into_iter()
            .map(|(name, snap)| (name, HistogramStats::from(snap)))
            .collect(),
        phases: phase::snapshot().to_vec(),
    }
}

impl Snapshot {
    /// Renders the snapshot as one JSON object:
    ///
    /// ```json
    /// {"counters":{"replay.data_events":123},
    ///  "gauges":{"store.hits":7.0},
    ///  "histograms":{"store.io.read_ns":{"count":4,"sum":..,"max":..,
    ///                "mean":..,"p50":..,"p95":..,"p99":..}},
    ///  "phases":{"resolve":0.01,"record":1.2,"io":0.3,"replay":2.0}}
    /// ```
    #[must_use]
    pub fn to_json(&self) -> Json {
        let histogram = |h: &HistogramStats| {
            Json::object(vec![
                ("count", Json::from(h.count)),
                ("sum", Json::from(h.sum)),
                ("max", Json::from(h.max)),
                ("mean", Json::from(h.mean)),
                ("p50", Json::from(h.p50)),
                ("p95", Json::from(h.p95)),
                ("p99", Json::from(h.p99)),
            ])
        };
        let counters = self.counters.iter().map(|(n, v)| (n.as_str(), Json::from(*v)));
        let gauges = self.gauges.iter().map(|(n, v)| (n.as_str(), Json::from(*v)));
        let histograms = self.histograms.iter().map(|(n, h)| (n.as_str(), histogram(h)));
        Json::object(vec![
            ("counters", Json::object(counters.collect())),
            ("gauges", Json::object(gauges.collect())),
            ("histograms", Json::object(histograms.collect())),
            ("phases", phase::to_json(&self.phases)),
        ])
    }
}

/// Validates a parsed `"metrics"` object (the shape [`Snapshot::to_json`]
/// emits and the bench binaries embed): the three instrument sections
/// must be objects, every histogram must carry monotone percentiles
/// (p50 ≤ p95 ≤ p99, all ≤ max) and an internally consistent count, and
/// every phase total must be a non-negative finite number.
///
/// # Errors
///
/// A human-readable description of the first violation.
pub fn validate_metrics(metrics: &Json) -> Result<(), String> {
    let section = |key: &str| -> Result<&[(String, Json)], String> {
        match metrics.get(key) {
            Some(Json::Object(fields)) => Ok(fields),
            Some(_) => Err(format!("metrics.{key} is not an object")),
            None => Err(format!("metrics has no {key} object")),
        }
    };
    for (name, value) in section("counters")? {
        let n = value
            .as_num()
            .ok_or_else(|| format!("counter {name} is not a number"))?;
        if !(n.is_finite() && n >= 0.0) {
            return Err(format!("counter {name} = {n} is not a valid count"));
        }
    }
    for (name, value) in section("gauges")? {
        // Gauges are free-form levels; they only need to be numeric
        // (the writer already turned non-finite values into null).
        if value.as_num().is_none() && *value != Json::Null {
            return Err(format!("gauge {name} is not a number"));
        }
    }
    for (name, hist) in section("histograms")? {
        let field = |key: &str| {
            hist.get(key)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("histogram {name}.{key} missing or non-numeric"))
        };
        let count = field("count")?;
        let (p50, p95, p99, max) = (field("p50")?, field("p95")?, field("p99")?, field("max")?);
        if !(p50 <= p95 && p95 <= p99) {
            return Err(format!(
                "histogram {name}: percentiles not monotone (p50 {p50} / p95 {p95} / p99 {p99})"
            ));
        }
        if count > 0.0 && p99 > max {
            return Err(format!("histogram {name}: p99 {p99} exceeds max {max}"));
        }
        if count < 0.0 || !count.is_finite() {
            return Err(format!("histogram {name}: bad count {count}"));
        }
    }
    for (name, seconds) in section("phases")? {
        let s = seconds
            .as_num()
            .ok_or_else(|| format!("phase {name} is not a number"))?;
        if !(s.is_finite() && s >= 0.0) {
            return Err(format!("phase {name} = {s} is not a valid duration"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn snapshot_round_trips_through_its_own_validator() {
        crate::counter!("test.snapshot.counter").add(3);
        crate::gauge!("test.snapshot.gauge").set(1.5);
        let h = crate::histogram!("test.snapshot.hist");
        for v in [1u64, 10, 100, 1000] {
            h.record(v);
        }
        let snap = take();
        assert!(snap.counters.iter().any(|(n, v)| n == "test.snapshot.counter" && *v >= 3));
        let text = snap.to_json().to_string();
        let parsed = parse(&text).expect("snapshot renders valid JSON");
        validate_metrics(&parsed).expect("snapshot validates");
        let hist = parsed
            .get("histograms")
            .and_then(|h| h.get("test.snapshot.hist"))
            .expect("histogram exported");
        assert!(hist.get("count").and_then(Json::as_num).unwrap() >= 4.0);
    }

    #[test]
    fn fixed_snapshot_renders_the_pinned_layout() {
        let hist = HistogramStats {
            count: 4,
            sum: 1111,
            max: 1000,
            mean: 277.75,
            p50: 16,
            p95: 1000,
            p99: 1000,
        };
        let snap = Snapshot {
            counters: vec![("replay.events".into(), 3), ("z \"q\"\\\n".into(), u64::MAX)],
            gauges: vec![
                ("g.level".into(), 1.5),
                ("g.whole".into(), 2.0),
                ("g.nan".into(), f64::NAN),
            ],
            histograms: vec![("store.io.read_ns".into(), hist)],
            phases: vec![("resolve", 0.0), ("record", 1.25), ("io", 1e-7), ("replay", 2.0)],
        };
        // The layout the hand-built writer this replaced produced.
        let expected = concat!(
            r#"{"counters":{"replay.events":3,"z \"q\"\\\n":18446744073709551615},"#,
            r#""gauges":{"g.level":1.5,"g.whole":2.0,"g.nan":null},"#,
            r#""histograms":{"store.io.read_ns":{"count":4,"sum":1111,"max":1000,"#,
            r#""mean":277.75,"p50":16,"p95":1000,"p99":1000}},"#,
            r#""phases":{"resolve":0.0,"record":1.25,"io":1e-7,"replay":2.0}}"#,
        );
        assert_eq!(snap.to_json().to_string(), expected);
    }

    #[test]
    fn histogram_stats_reduce_the_snapshot() {
        let h = crate::metrics::Histogram::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        let stats = HistogramStats::from(h.snapshot());
        assert_eq!(stats.count, 100);
        assert_eq!(stats.max, 100);
        assert!(stats.p50 <= stats.p95 && stats.p95 <= stats.p99);
        assert!((stats.mean - 50.5).abs() < 1e-9);
    }

    #[test]
    fn validator_rejects_broken_shapes() {
        let bad_mono = parse(
            r#"{"counters":{},"gauges":{},"histograms":{"h":{"count":1,"sum":1,"max":9,"mean":1.0,"p50":8,"p95":4,"p99":9}},"phases":{}}"#,
        )
        .unwrap();
        assert!(validate_metrics(&bad_mono).unwrap_err().contains("not monotone"));
        let neg_phase = parse(
            r#"{"counters":{},"gauges":{},"histograms":{},"phases":{"io":-0.5}}"#,
        )
        .unwrap();
        assert!(validate_metrics(&neg_phase).unwrap_err().contains("io"));
        let missing = parse(r#"{"counters":{}}"#).unwrap();
        assert!(validate_metrics(&missing).unwrap_err().contains("gauges"));
    }
}
