//! Pairwise A/B statistics — the library behind the `bench_ab` gate.
//!
//! `bench_ab` runs the benchmark declared in `BENCHMARK.json` at a base
//! revision and at the working tree in alternating pairs, so that host
//! drift between minutes cancels within each pair. For every workload and
//! every end-to-end metric this module reduces the pairs to:
//!
//! * each side's median and quartiles ([`Quartiles`]);
//! * the median per-pair ratio (change / base) with its quartiles;
//! * the pairs the change won and lost (ties count for neither);
//! * a [`Verdict`], by the rule [`summarize`] documents;
//!
//! and [`gate_fails`] decides whether one metric fails the gate: the
//! mirror of a `better` verdict, past [`GATE_THRESHOLD`]. Each metric's
//! direction and bound come from `BENCHMARK.json`
//! ([`MetricSpec::from_benchmark`]), so the gate keeps no list of its
//! own.

use waymem_obs::json::Json;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Bigger is better (throughput).
    Higher,
    /// Smaller is better (latency, set-up time, memory).
    Lower,
}

impl Better {
    /// `true` when `a` is strictly better than `b`.
    #[must_use]
    pub fn beats(self, a: f64, b: f64) -> bool {
        match self {
            Better::Higher => a > b,
            Better::Lower => a < b,
        }
    }

    /// `true` when `ratio` (change / base) is worse than 1 by more than
    /// `margin` (a fraction).
    #[must_use]
    pub fn ratio_worse_than(self, ratio: f64, margin: f64) -> bool {
        match self {
            Better::Higher => ratio < 1.0 - margin,
            Better::Lower => ratio > 1.0 + margin,
        }
    }

    /// The direction's name in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// The metric's name in the benchmark's output.
    pub name: String,
    /// Which way it improves.
    pub better: Better,
    /// How far (a fraction of the base median) it may worsen before a
    /// change counts as a regression.
    pub bound: f64,
}

impl MetricSpec {
    /// The workload names and end-to-end metrics of a parsed
    /// `BENCHMARK.json`.
    ///
    /// # Errors
    ///
    /// When a workload or metric entry lacks its fields, or `better` is
    /// neither `higher` nor `lower`.
    pub fn from_benchmark(bench: &Json) -> Result<(Vec<String>, Vec<MetricSpec>), String> {
        let list = |key: &str| {
            bench
                .get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json has no `{key}` list"))
        };
        let workloads = list("workloads")?
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).map(str::to_owned))
            .collect::<Option<Vec<_>>>()
            .ok_or("a workload has no name")?;
        let metrics = list("end_to_end")?
            .iter()
            .map(|m| {
                let name = m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("a metric has no name")?;
                let better = match m.get("better").and_then(Json::as_str) {
                    Some("higher") => Better::Higher,
                    Some("lower") => Better::Lower,
                    other => return Err(format!("{name}: `better` is {other:?}")),
                };
                let bound = m
                    .get("bound")
                    .and_then(Json::as_num)
                    .filter(|b| b.is_finite() && *b >= 0.0)
                    .ok_or_else(|| format!("{name}: no usable `bound`"))?;
                Ok(MetricSpec {
                    name: name.to_owned(),
                    better,
                    bound,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok((workloads, metrics))
    }
}

/// One benchmark run, read from the JSON object its output ends with.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// The benchmark checked its outputs and found them right.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Every metric's value, by name.
    pub metrics: Vec<(String, f64)>,
}

impl Run {
    /// Parses the last non-empty line of a run's standard output:
    /// `{"correct": .., "attempted": .., "failed": .., "metrics": {name:
    /// {"value": .., "unit": ..}, ..}}`.
    ///
    /// # Errors
    ///
    /// When the output is empty, the line is not JSON, or a field is
    /// missing.
    pub fn parse(stdout: &str) -> Result<Run, String> {
        let line = stdout
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .ok_or("no output")?;
        let v = waymem_obs::json::parse(line).map_err(|e| format!("last line is not JSON: {e}"))?;
        let count = |key: &str| {
            v.get(key)
                .and_then(Json::as_num)
                .filter(|n| n.is_finite() && *n >= 0.0)
                .map(|n| n as u64)
                .ok_or_else(|| format!("no `{key}` count"))
        };
        let Some(Json::Object(metrics)) = v.get("metrics") else {
            return Err("no `metrics` object".into());
        };
        Ok(Run {
            correct: v.get("correct") == Some(&Json::Bool(true)),
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics: metrics
                .iter()
                .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_num()?)))
                .collect(),
        })
    }

    /// The value of `metric`, if the run reported it.
    #[must_use]
    pub fn metric(&self, metric: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(name, _)| name == metric)
            .map(|&(_, v)| v)
    }
}

/// A sample's quartiles, by linear interpolation between the sorted
/// values (the median of an even count is the mean of the middle two).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Quartiles {
    /// The quartiles of `values`.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    #[must_use]
    pub fn of(values: &[f64]) -> Quartiles {
        assert!(!values.is_empty(), "quartiles of nothing");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let at = |p: f64| {
            let pos = p * (v.len() - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        };
        Quartiles {
            q1: at(0.25),
            median: at(0.5),
            q3: at(0.75),
        }
    }

    /// The interquartile range: the sample's own spread.
    #[must_use]
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// What the pairs say about one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change won at least 9 of 10 pairs, and its median beats the
    /// base median by more than the base's interquartile range.
    Better,
    /// The change's median is worse than the base median by more than
    /// the metric's bound.
    Worse,
    /// The base's own spread is wider than the bound, and not every
    /// change run beat every base run: these runs cannot tell.
    Unresolved,
    /// None of the above: no change the runs can show.
    Same,
}

impl Verdict {
    /// The verdict's lower-case name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Same => "same",
        }
    }
}

/// One metric's reduction of the pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// The metric.
    pub spec: MetricSpec,
    /// The base runs, in pair order.
    pub base_runs: Vec<f64>,
    /// The change's runs, in pair order.
    pub change_runs: Vec<f64>,
    /// The base side's quartiles.
    pub base: Quartiles,
    /// The change side's quartiles.
    pub change: Quartiles,
    /// The quartiles of the per-pair ratios change / base.
    pub ratio: Quartiles,
    /// Pairs in which the change beat the base.
    pub won: usize,
    /// Pairs in which the base beat the change.
    pub lost: usize,
    /// The verdict.
    pub verdict: Verdict,
}

/// Reduces `pairs` of (base, change) values of the metric `spec`.
///
/// The verdict, checked in this order:
/// [`Better`](Verdict::Better) when at least 9/10 of the pairs were won
/// and the change's median beats the base median by more than the base's
/// interquartile range; [`Worse`](Verdict::Worse) when the change's
/// median is past the bound; [`Unresolved`](Verdict::Unresolved) when
/// the base's interquartile range is wider than the bound (as a fraction
/// of its median) and not every change run beat every base run;
/// otherwise [`Same`](Verdict::Same).
///
/// # Panics
///
/// Panics if `pairs` is empty.
#[must_use]
pub fn summarize(spec: &MetricSpec, pairs: &[(f64, f64)]) -> Summary {
    let better = spec.better;
    let base_runs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let change_runs: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let ratios: Vec<f64> = pairs.iter().map(|&(b, c)| c / b).collect();
    let base = Quartiles::of(&base_runs);
    let change = Quartiles::of(&change_runs);
    let won = pairs.iter().filter(|&&(b, c)| better.beats(c, b)).count();
    let lost = pairs.iter().filter(|&&(b, c)| better.beats(b, c)).count();
    let every_run_beats = change_runs
        .iter()
        .all(|&c| base_runs.iter().all(|&b| better.beats(c, b)));
    let verdict = if won * 10 >= pairs.len() * 9
        && better.beats(change.median, base.median)
        && (change.median - base.median).abs() > base.iqr()
    {
        Verdict::Better
    } else if better.ratio_worse_than(change.median / base.median, spec.bound) {
        Verdict::Worse
    } else if base.iqr() > spec.bound * base.median.abs() && !every_run_beats {
        Verdict::Unresolved
    } else {
        Verdict::Same
    };
    Summary {
        spec: spec.clone(),
        base_runs,
        change_runs,
        base,
        change,
        ratio: Quartiles::of(&ratios),
        won,
        lost,
        verdict,
    }
}

/// How far (a fraction) a metric's median per-pair ratio must be worse
/// than 1 before [`gate_fails`] fails it.
///
/// Two builds of one tree, run against each other in 28 pairs of 3-s
/// runs per workload on a 2-vCPU host, lost every pair in one of 120
/// balanced 6-pair (metric, window) cells: `sweep-warm` `events_per_s`,
/// by 3.6% and inside the base's own spread. Of the cells that lost 5
/// of 6, the worst ratio was 13.6% off, also inside that spread. A
/// redundant MAB probe that cost `sweep-warm`'s `op_p50_ms` 11% failed.
/// Other hosts' spread is not measured.
pub const GATE_THRESHOLD: f64 = 0.10;

/// The gate on one metric: it fails when the change lost every pair, its
/// median per-pair ratio is worse than 1 by more than [`GATE_THRESHOLD`],
/// and its median is worse than the base median by more than the base's
/// interquartile range.
#[must_use]
pub fn gate_fails(summary: &Summary) -> bool {
    let better = summary.spec.better;
    summary.lost == summary.base_runs.len()
        && better.ratio_worse_than(summary.ratio.median, GATE_THRESHOLD)
        && better.beats(summary.base.median, summary.change.median)
        && (summary.change.median - summary.base.median).abs() > summary.base.iqr()
}

fn quartiles_json(prefix: &str, q: Quartiles) -> Vec<(String, Json)> {
    vec![
        (format!("{prefix}_q1"), Json::from(q.q1)),
        (format!("{prefix}_median"), Json::from(q.median)),
        (format!("{prefix}_q3"), Json::from(q.q3)),
    ]
}

/// One metric's summary as a JSON object, raw runs included.
#[must_use]
pub fn summary_json(s: &Summary) -> Json {
    let runs = |v: &[f64]| Json::Array(v.iter().map(|&x| Json::from(x)).collect());
    let mut fields = vec![
        ("better".to_owned(), Json::from(s.spec.better.name())),
        ("bound".to_owned(), Json::from(s.spec.bound)),
    ];
    fields.extend(quartiles_json("base", s.base));
    fields.extend(quartiles_json("change", s.change));
    fields.extend(quartiles_json("ratio", s.ratio));
    fields.extend([
        ("won".to_owned(), Json::from(s.won as u64)),
        ("lost".to_owned(), Json::from(s.lost as u64)),
        ("verdict".to_owned(), Json::from(s.verdict.name())),
        ("base_runs".to_owned(), runs(&s.base_runs)),
        ("change_runs".to_owned(), runs(&s.change_runs)),
    ]);
    Json::Object(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use waymem_obs::json::parse;

    fn spec(better: Better, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            better,
            bound,
        }
    }

    /// Ten pairs whose base runs are `base` and change runs `base × k`.
    fn scaled(base: &[f64], k: f64) -> Vec<(f64, f64)> {
        base.iter().map(|&b| (b, b * k)).collect()
    }

    const STEADY: [f64; 10] = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.0, 10.1, 9.9];

    #[test]
    fn quartiles_interpolate() {
        let q = Quartiles::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.75, 2.5, 3.25));
        let q = Quartiles::of(&[7.0]);
        assert_eq!((q.q1, q.median, q.q3), (7.0, 7.0, 7.0));
    }

    #[test]
    fn a_consistent_gain_is_better() {
        let s = summarize(&spec(Better::Higher, 0.25), &scaled(&STEADY, 1.5));
        assert_eq!((s.won, s.lost, s.verdict), (10, 0, Verdict::Better));
        assert!((s.ratio.median - 1.5).abs() < 1e-12);
        // Lower-better metrics win by falling.
        let s = summarize(&spec(Better::Lower, 0.25), &scaled(&STEADY, 0.7));
        assert_eq!(s.verdict, Verdict::Better);
    }

    #[test]
    fn a_gain_inside_the_base_spread_is_not_better() {
        // Every pair won, but by less than the base's quartile spread.
        let s = summarize(&spec(Better::Higher, 0.25), &scaled(&STEADY, 1.01));
        assert_eq!(s.won, 10);
        assert_eq!(s.verdict, Verdict::Same);
    }

    #[test]
    fn eight_of_ten_is_not_better() {
        let mut pairs = scaled(&STEADY, 1.5);
        pairs[3].1 = 1.0;
        pairs[7].1 = 1.0;
        let s = summarize(&spec(Better::Higher, 0.25), &pairs);
        assert_eq!((s.won, s.verdict), (8, Verdict::Same));
    }

    #[test]
    fn a_median_past_the_bound_is_worse() {
        let s = summarize(&spec(Better::Higher, 0.25), &scaled(&STEADY, 0.7));
        assert_eq!((s.lost, s.verdict), (10, Verdict::Worse));
        let s = summarize(&spec(Better::Lower, 0.1), &scaled(&STEADY, 1.12));
        assert_eq!(s.verdict, Verdict::Worse);
        // Within the bound it is only the same.
        let s = summarize(&spec(Better::Lower, 0.1), &scaled(&STEADY, 1.05));
        assert_eq!(s.verdict, Verdict::Same);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy = [3.7, 4.0, 3.8, 3.9, 3.68, 4.02, 3.75, 3.95, 3.7, 4.0];
        let pairs: Vec<(f64, f64)> = noisy.iter().rev().map(|&c| c * 1.01).zip(noisy).collect();
        let s = summarize(&spec(Better::Lower, 0.05), &pairs);
        assert!(s.base.iqr() > 0.05 * s.base.median);
        assert_eq!(s.verdict, Verdict::Unresolved);
        // Unless every change run beats every base run.
        let apart: Vec<(f64, f64)> = noisy.iter().map(|&b| (b, b - 0.4)).collect();
        let s = summarize(&spec(Better::Lower, 0.05), &apart);
        assert_ne!(s.verdict, Verdict::Unresolved);
    }

    #[test]
    fn the_gate_needs_every_pair_lost_by_more_than_the_threshold() {
        let m = spec(Better::Higher, 0.25);
        assert!(gate_fails(&summarize(&m, &scaled(&STEADY, 0.85))));
        assert!(!gate_fails(&summarize(&m, &scaled(&STEADY, 0.95))));
        let mut one_won = scaled(&STEADY, 0.85);
        one_won[0].1 = 11.0;
        assert!(!gate_fails(&summarize(&m, &one_won)));
        let m = spec(Better::Lower, 0.1);
        assert!(gate_fails(&summarize(&m, &scaled(&STEADY, 1.2))));
        // Ties lose nothing.
        assert!(!gate_fails(&summarize(&m, &scaled(&STEADY, 1.0))));
    }

    #[test]
    fn the_gate_holds_inside_the_base_spread() {
        // Every pair lost by 12%, but the base runs spread wider than
        // that: the medians differ by less than the base's IQR.
        let wide = [6.0, 14.0, 7.0, 13.0, 8.0, 12.0];
        let s = summarize(&spec(Better::Higher, 0.25), &scaled(&wide, 0.88));
        assert_eq!(s.lost, wide.len());
        assert!(s.base.iqr() > (s.base.median - s.change.median).abs());
        assert!(!gate_fails(&s));
    }

    #[test]
    fn specs_come_from_the_benchmark_file() {
        let bench = parse(
            r#"{"workloads":[{"name":"a","why":"x"},{"name":"b","why":"y"}],
                "end_to_end":[{"name":"events_per_s","unit":"1/s","better":"higher","bound":0.25},
                              {"name":"peak_rss_mib","unit":"MiB","better":"lower","bound":0.1}]}"#,
        )
        .unwrap();
        let (workloads, metrics) = MetricSpec::from_benchmark(&bench).unwrap();
        assert_eq!(workloads, ["a", "b"]);
        assert_eq!(
            metrics[0],
            MetricSpec {
                name: "events_per_s".into(),
                better: Better::Higher,
                bound: 0.25
            }
        );
        assert_eq!(metrics[1].better, Better::Lower);
        let bad = parse(r#"{"workloads":[],"end_to_end":[{"name":"x","better":"up","bound":1}]}"#)
            .unwrap();
        assert!(MetricSpec::from_benchmark(&bad).is_err());
    }

    #[test]
    fn runs_parse_from_the_last_output_line() {
        let out = "workload w\n  events_per_s 1.0\n{\"correct\": true, \"attempted\": 12, \"failed\": 0, \
                   \"metrics\": {\"events_per_s\": {\"value\": 1.5e7, \"unit\": \"1/s\"}}}\n";
        let run = Run::parse(out).unwrap();
        assert!(run.correct);
        assert_eq!((run.attempted, run.failed), (12, 0));
        assert_eq!(run.metric("events_per_s"), Some(1.5e7));
        assert_eq!(run.metric("op_p50_ms"), None);
        assert!(Run::parse("").is_err());
        assert!(Run::parse("perfbench: error\n").is_err());
        let wrong = Run::parse(r#"{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}"#);
        assert!(!wrong.unwrap().correct);
    }

    #[test]
    fn summaries_render_every_figure() {
        let s = summarize(&spec(Better::Higher, 0.25), &scaled(&STEADY, 1.5));
        let j = summary_json(&s);
        assert_eq!(j.get("verdict").and_then(Json::as_str), Some("better"));
        assert_eq!(j.get("won").and_then(Json::as_num), Some(10.0));
        assert_eq!(
            j.get("change_runs")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(10)
        );
        assert!(j.get("ratio_median").and_then(Json::as_num).is_some());
    }
}
