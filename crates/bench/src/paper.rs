//! The paper's evaluation in one place. This module owns every decision
//! behind a reproduced number:
//!
//! * the scheme set: D = original, set buffer \[14\], way memoization
//!   2×8; I = original, intra-line \[4\], way memoization 2×8 / 2×16 /
//!   2×32 ([`dschemes`], [`ischemes`]);
//! * each figure's baseline: Fig. 5 divides the 2×8 D-cache by the
//!   original one, Fig. 7 the 2×16 I-cache by \[4\], Fig. 8 the pair by
//!   original + \[4\];
//! * the averaging rule: the geometric mean of the per-kernel
//!   ours/baseline power ratios;
//! * the values the paper quotes.
//!
//! [`Report::new`] turns one [`suite`] run into every row of Tables 1–3,
//! Figures 4–8 and the abstract's claims, each as `{id, ours, paper,
//! delta}`, together with the text tables the `paper` bin prints.
//! [`Report::to_json`] renders the rows as the `waymem/paper/v1`
//! artifact that `tests/golden/paper.json` pins byte for byte.

use std::fmt::Write as _;

use waymem_cache::AccessStats;
use waymem_hwmodel::{
    cache_area_mm2, mab_area_mm2, mab_delay_ns, mab_power_mw, CacheShape, MabShape, Technology,
};
use waymem_sim::{
    fig4_dschemes, fig6_ischemes, format_power_table, format_ratio_table, DScheme, FigureRow,
    IScheme, SchemeResult, SimResult, Suite,
};

use crate::geometric_mean;
use crate::json::Json;

/// Schema tag of the artifact [`Report::to_json`] renders.
pub const SCHEMA: &str = "waymem/paper/v1";

/// Decimal places of every number in the artifact.
const DECIMALS: usize = 4;

const D_ORIGINAL: DScheme = DScheme::Original;
const D_OURS: DScheme = DScheme::WayMemo { tag_entries: 2, set_entries: 8 };
const I_ORIGINAL: IScheme = IScheme::Original;
const I_INTRA_LINE: IScheme = IScheme::IntraLine;
const I_OURS: IScheme = IScheme::WayMemo { tag_entries: 2, set_entries: 16 };

/// The MAB shapes of Tables 1–3: `N_t` rows by `N_s` columns.
const TAG_ENTRIES: [u32; 2] = [1, 2];
const SET_ENTRIES: [u32; 4] = [4, 8, 16, 32];
/// Table 1: MAB area, mm².
const PAPER_AREA_MM2: [[f64; 4]; 2] = [[0.016, 0.027, 0.065, 0.307], [0.019, 0.033, 0.085, 0.311]];
/// MAB area as a share of the 32 kB cache macro, %, as the paper's prose
/// quotes it for the 2×8, 2×16 and 2×32 MABs.
const PAPER_OVERHEAD_PCT: [[Option<f64>; 4]; 2] =
    [[None; 4], [None, Some(3.0), Some(7.5), Some(27.5)]];
/// The CPU cycle every MAB delay must fit (400 MHz), ns.
const PAPER_CYCLE_NS: f64 = 2.5;
/// Table 2: MAB critical-path delay, ns.
const PAPER_DELAY_NS: [[f64; 4]; 2] = [[1.00, 1.00, 1.08, 1.14], [1.02, 1.02, 1.08, 1.16]];
/// Table 3: MAB power, (active, sleep) mW.
const PAPER_MAB_MW: [[(f64, f64); 4]; 2] = [
    [(1.95, 0.24), (2.37, 0.40), (3.39, 0.76), (6.25, 1.37)],
    [(2.34, 0.40), (3.07, 0.68), (4.56, 1.28), (7.93, 2.26)],
];

/// The D-cache schemes of Figures 4, 5 and 8.
#[must_use]
pub fn dschemes() -> Vec<DScheme> {
    fig4_dschemes()
}

/// The I-cache schemes: the conventional cache, baseline of the
/// abstract's I-vs-original saving, and those of Figures 6–8.
#[must_use]
pub fn ischemes() -> Vec<IScheme> {
    std::iter::once(I_ORIGINAL).chain(fig6_ischemes()).collect()
}

/// The seven kernels under the paper's scheme set: the run every row of
/// a [`Report`] comes from.
pub fn suite<'s>() -> Suite<'s> {
    Suite::kernels().dschemes(dschemes()).ischemes(ischemes())
}

/// The caches a saving compares, whose total powers add: a D scheme, an
/// I scheme, or both.
type Caches = (Option<DScheme>, Option<IScheme>);

/// One saving the paper claims: `ours` against its figure's `baseline`.
/// The averages are the figures' own; the maxima are the abstract's "up
/// to" figures, set against the best kernel of the figure on that side.
#[derive(Debug, Clone, Copy)]
struct Saving {
    id: &'static str,
    baseline: Caches,
    ours: Caches,
    paper_avg_pct: Option<f64>,
    paper_max_pct: Option<f64>,
}

const FIG5: Saving = Saving {
    id: "fig5",
    baseline: (Some(D_ORIGINAL), None),
    ours: (Some(D_OURS), None),
    paper_avg_pct: Some(35.0),
    paper_max_pct: Some(50.0),
};
const FIG7: Saving = Saving {
    id: "fig7",
    baseline: (None, Some(I_INTRA_LINE)),
    ours: (None, Some(I_OURS)),
    paper_avg_pct: Some(25.0),
    paper_max_pct: Some(40.0),
};
const FIG8: Saving = Saving {
    id: "fig8",
    baseline: (Some(D_ORIGINAL), Some(I_INTRA_LINE)),
    ours: (Some(D_OURS), Some(I_OURS)),
    paper_avg_pct: Some(30.0),
    paper_max_pct: Some(40.0),
};
/// The I-cache against a conventional one. No figure of the paper uses
/// this baseline, so it quotes no number for it.
const I_VS_ORIGINAL: Saving = Saving {
    id: "abstract.i_vs_original",
    baseline: (None, Some(I_ORIGINAL)),
    ours: (None, Some(I_OURS)),
    paper_avg_pct: None,
    paper_max_pct: None,
};

/// One reproduced number next to the paper's.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Stable identifier, `<table|figure>.<kernel?>.<scheme?>.<quantity>`.
    pub id: String,
    /// Our value.
    pub ours: f64,
    /// The paper's value, where it quotes one.
    pub paper: Option<f64>,
    /// `ours − paper`, where the paper quotes a value.
    pub delta: Option<f64>,
}

/// Every row of the paper's tables, figures and claims, plus their text
/// rendering.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All rows, in table-then-figure order.
    pub rows: Vec<Row>,
    /// The text tables of Tables 1–3, Figures 4–8 and the abstract.
    pub text: String,
    /// The abstract's claims alone: one line of savings per kernel.
    pub claims: String,
}

impl Report {
    /// Builds every row from `results`, a run of [`suite`].
    ///
    /// # Panics
    ///
    /// Panics if a result lacks one of the paper's schemes.
    #[must_use]
    pub fn new(results: &[SimResult]) -> Report {
        let dnames: Vec<String> = dschemes().iter().map(DScheme::name).collect();
        let inames: Vec<String> = fig6_ischemes().iter().map(IScheme::name).collect();
        let mut report = Report::default();
        report.tables();
        report.access_figure("Figure 4", "D", results, &dnames, SimResult::dcache_by_name);
        report.power_figure("Figure 5", "D", results, &dnames, SimResult::dcache_by_name);
        let fig5 = report.saving(FIG5, results);
        let (avg, max) = (FIG5.paper_avg_pct.unwrap_or_default(), FIG5.paper_max_pct);
        let _ = writeln!(
            report.text,
            "average D-cache power: ours/original = {:.2} (paper: ~{:.2}, i.e. {avg:.0}% average \
             reduction; up to {:.0}%)",
            fig5.ratio_avg,
            1.0 - avg / 100.0,
            max.unwrap_or_default(),
        );
        report.access_figure("Figure 6", "I", results, &inames, SimResult::icache_by_name);
        report.power_figure("Figure 7", "I", results, &inames, SimResult::icache_by_name);
        let fig7 = report.saving(FIG7, results);
        let avg = FIG7.paper_avg_pct.unwrap_or_default();
        let _ = writeln!(
            report.text,
            "average I-cache power, ours(2x16)/[4] = {:.2} (paper: ~{:.2}, i.e. {avg:.0}% average \
             reduction)",
            fig7.ratio_avg,
            1.0 - avg / 100.0,
        );
        let fig8 = report.saving(FIG8, results);
        report.fig8_table(&fig8);
        let i_vs_original = report.saving(I_VS_ORIGINAL, results);
        report.claims_table(results, [&fig5, &fig7, &i_vs_original, &fig8]);
        report.closeness();
        report
    }

    /// The row `id`, if the report has one.
    #[must_use]
    pub fn get(&self, id: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.id == id)
    }

    /// Our value of the row `id`.
    ///
    /// # Panics
    ///
    /// Panics if the report has no such row.
    #[must_use]
    pub fn ours(&self, id: &str) -> f64 {
        self.get(id).unwrap_or_else(|| panic!("no paper row {id}")).ours
    }

    /// The headline savings, each named after its baseline, as
    /// `BENCH_headline.json` reports them (percent).
    #[must_use]
    pub fn headline(&self) -> [(&'static str, f64); 5] {
        [
            ("d_saving_avg_pct", self.ours("fig5.saving_avg_pct")),
            ("i_saving_vs_intra_line_avg_pct", self.ours("fig7.saving_avg_pct")),
            ("i_saving_vs_original_avg_pct", self.ours("abstract.i_vs_original.saving_avg_pct")),
            ("total_saving_fig8_avg_pct", self.ours("fig8.saving_avg_pct")),
            ("total_saving_fig8_max_pct", self.ours("fig8.saving_max_pct")),
        ]
    }

    /// The `waymem/paper/v1` artifact: one row per line, every number
    /// with four decimal places, `null` where the paper quotes none.
    #[must_use]
    pub fn to_json(&self) -> String {
        let num = |v: Option<f64>| v.map_or("null".to_owned(), |v| format!("{v:.DECIMALS$}"));
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                let id = Json::from(r.id.as_str());
                let (ours, paper, delta) = (num(Some(r.ours)), num(r.paper), num(r.delta));
                format!(r#"{{"id":{id},"ours":{ours},"paper":{paper},"delta":{delta}}}"#)
            })
            .collect();
        format!("{{\"schema\":\"{SCHEMA}\",\"rows\":[\n{}\n]}}\n", rows.join(",\n"))
    }

    fn row(&mut self, id: impl Into<String>, ours: f64, paper: Option<f64>) {
        let delta = paper.map(|p| ours - p);
        self.rows.push(Row { id: id.into(), ours, paper, delta });
    }

    /// Tables 1–3 from the hardware models, each printed beside the
    /// paper's.
    fn tables(&mut self) {
        let tech = Technology::frv_0130();
        let cache = cache_area_mm2(CacheShape::frv(), tech);
        self.row("table1.cache_area_mm2", cache, None);
        let mut t = format!(
            "Table 1: MAB area (mm^2); 32 kB 2-way cache macro = {cache:.3} mm^2\n\
             paper (mm^2):   Ns=4    Ns=8    Ns=16   Ns=32\n"
        );
        grid(&mut t, 6, |k, j, _| format!("{:>8.3}", PAPER_AREA_MM2[k][j]));
        t.push_str("model (mm^2, overhead %):\n");
        grid(&mut t, 7, |k, j, shape| {
            let a = mab_area_mm2(MabShape::frv(shape.0, shape.1), tech);
            let pct = a / cache * 100.0;
            let id = format!("table1.{}x{}", shape.0, shape.1);
            self.row(format!("{id}.area_mm2"), a, Some(PAPER_AREA_MM2[k][j]));
            self.row(format!("{id}.overhead_pct"), pct, PAPER_OVERHEAD_PCT[k][j]);
            format!("  {a:.3} ({pct:>4.1}%)")
        });

        let cycle = tech.cycle_ns();
        self.row("table2.cycle_ns", cycle, Some(PAPER_CYCLE_NS));
        let _ = write!(
            t,
            "Table 2: MAB critical-path delay (ns); CPU cycle = {cycle:.2} ns\n\
             paper (ns):     Ns=4   Ns=8   Ns=16  Ns=32\n"
        );
        grid(&mut t, 7, |k, j, _| format!("{:>7.2}", PAPER_DELAY_NS[k][j]));
        t.push_str("model (ns):\n");
        grid(&mut t, 8, |k, j, shape| {
            let d = mab_delay_ns(MabShape::frv(shape.0, shape.1), tech);
            let id = format!("table2.{}x{}.delay_ns", shape.0, shape.1);
            self.row(id, d, Some(PAPER_DELAY_NS[k][j]));
            format!("  {d:.2} ")
        });
        t.push_str("every configuration fits the cycle: no delay penalty.\n");

        t.push_str(
            "Table 3: MAB power (mW), active / sleep\n\
             paper:          Ns=4        Ns=8        Ns=16       Ns=32\n",
        );
        grid(&mut t, 4, |k, j, _| {
            let (active, sleep) = PAPER_MAB_MW[k][j];
            format!("{:>12}", format!("{active:.2}/{sleep:.2}"))
        });
        t.push_str("model:\n");
        grid(&mut t, 5, |k, j, shape| {
            let p = mab_power_mw(MabShape::frv(shape.0, shape.1), tech);
            let (active, sleep) = PAPER_MAB_MW[k][j];
            let id = format!("table3.{}x{}", shape.0, shape.1);
            self.row(format!("{id}.active_mw"), p.active_mw, Some(active));
            self.row(format!("{id}.sleep_mw"), p.sleep_mw, Some(sleep));
            format!("  {:.2}/{:.2} ", p.active_mw, p.sleep_mw)
        });
        self.text.push_str(&t);
    }

    /// Figure 4 or 6: tag and way accesses per cache access, per kernel
    /// and scheme.
    fn access_figure(
        &mut self,
        figure: &str,
        side: &str,
        results: &[SimResult],
        schemes: &[String],
        lookup: Lookup,
    ) {
        let id = figure.replace("Figure ", "fig");
        let quantities = [
            ("top", "tag accesses", "tags_per_access", AccessStats::tags_per_access as fn(&_) -> _),
            ("bottom", "ways accessed", "ways_per_access", AccessStats::ways_per_access),
        ];
        for (part, what, quantity, value) in quantities {
            let mut rows = Vec::new();
            for r in results {
                let label = r.workload.name();
                let mut values = Vec::new();
                for name in schemes {
                    let v = value(&find(r, lookup, name).stats);
                    self.row(format!("{id}.{label}.{}.{quantity}", key(name)), v, None);
                    values.push((name.clone(), v));
                }
                rows.push(FigureRow { label, values });
            }
            let title = format!("{figure} ({part}): # {what} / {side}-cache access");
            self.text.push_str(&format_ratio_table(&title, &rows));
        }
        self.text.push_str(if side == "D" {
            "expected shape: original ~2.0 tags; ours ~90% fewer tags; ways > 1 for ours (at \
             least one way per access); stores keep even the original below 2 ways.\n"
        } else {
            "expected shape: [4] removes ~60% of tag accesses (intra-line flow); ours removes \
             most of the rest, improving with MAB size.\n"
        });
    }

    /// Figure 5 or 7: the Eq. (1) power split per kernel and scheme.
    fn power_figure(
        &mut self,
        figure: &str,
        side: &str,
        results: &[SimResult],
        schemes: &[String],
        lookup: Lookup,
    ) {
        let id = figure.replace("Figure ", "fig");
        for r in results {
            let label = r.workload.name();
            let mut entries = Vec::new();
            for name in schemes {
                let p = find(r, lookup, name).power;
                let at = format!("{id}.{label}.{}", key(name));
                self.row(format!("{at}.data_mw"), p.data_mw, None);
                self.row(format!("{at}.tag_mw"), p.tag_mw, None);
                self.row(format!("{at}.mab_mw"), p.mab_mw, None);
                self.row(format!("{at}.buf_mw"), p.buffer_mw, None);
                self.row(format!("{at}.total_mw"), p.total_mw(), None);
                entries.push((name.clone(), p));
            }
            let title = format!("{figure}: {side}-cache power — {label}");
            self.text.push_str(&format_power_table(&title, &entries));
        }
    }

    /// The averaging rule: per kernel, ours/baseline of the summed power;
    /// on average, the geometric mean of those ratios; at best, the
    /// smallest. Savings are `1 − ratio`, in percent.
    fn saving(&mut self, s: Saving, results: &[SimResult]) -> Savings {
        let mut kernels = Vec::new();
        for r in results {
            let label = r.workload.name();
            let (base, ours) = (power_mw(s.baseline, r), power_mw(s.ours, r));
            self.row(format!("{}.{label}.baseline_mw", s.id), base, None);
            self.row(format!("{}.{label}.ours_mw", s.id), ours, None);
            self.row(format!("{}.{label}.saving_pct", s.id), pct(ours / base), None);
            kernels.push((label, base, ours));
        }
        let ratios: Vec<f64> = kernels.iter().map(|(_, base, ours)| ours / base).collect();
        let ratio_avg = geometric_mean(&ratios);
        let ratio_best = ratios.iter().copied().fold(f64::INFINITY, f64::min);
        self.row(format!("{}.saving_avg_pct", s.id), pct(ratio_avg), s.paper_avg_pct);
        self.row(format!("{}.saving_max_pct", s.id), pct(ratio_best), s.paper_max_pct);
        Savings { saving: s, kernels, ratio_avg, ratio_best }
    }

    fn fig8_table(&mut self, fig8: &Savings) {
        let t = &mut self.text;
        let _ = writeln!(t, "Figure 8: total I+D cache power (mW)");
        let _ = writeln!(
            t,
            "{:<12}  {:>14}  {:>14}  {:>8}",
            "benchmark", "orig+[4] mW", "ours mW", "saving"
        );
        for (label, base, ours) in &fig8.kernels {
            let _ =
                writeln!(t, "{label:<12}  {base:>14.2}  {ours:>14.2}  {:>7.1}%", pct(ours / base));
        }
        let _ = writeln!(
            t,
            "average saving: {:.1}% (paper: {:.0}% average, {:.0}% max, best on mpeg2enc)",
            pct(fig8.ratio_avg),
            FIG8.paper_avg_pct.unwrap_or_default(),
            FIG8.paper_max_pct.unwrap_or_default(),
        );
    }

    /// The abstract's claims: every saving per kernel, each against its
    /// own baseline, and way memoization's extra cycles.
    fn claims_table(&mut self, results: &[SimResult], savings: [&Savings; 4]) {
        let mut t = String::from(
            "Headline claims (abstract): D vs original (Fig. 5), I vs [4] (Fig. 7) and vs \
             original, total vs original+[4] (Fig. 8)\n",
        );
        let _ = writeln!(
            t,
            "{:<13}  {:>9}  {:>9}  {:>9}  {:>9}  {:>12}",
            "benchmark", "D saving", "I vs [4]", "I vs orig", "total", "extra cycles"
        );
        for (k, r) in results.iter().enumerate() {
            let label = r.workload.name();
            let _ = write!(t, "{label:<13}");
            for s in savings {
                let (_, base, ours) = &s.kernels[k];
                let _ = write!(t, "  {:>8.1}%", pct(ours / base));
            }
            let extra = find(r, SimResult::dcache_by_name, &D_OURS.name()).extra_cycles;
            let _ = writeln!(t, "  {extra:>12}");
            self.row(format!("abstract.{label}.extra_cycles"), extra as f64, Some(0.0));
        }
        let summary = [
            ("average", savings.map(|s| Some(pct(s.ratio_avg)))),
            ("best", savings.map(|s| Some(pct(s.ratio_best)))),
            ("paper average", savings.map(|s| s.saving.paper_avg_pct)),
            ("paper best", savings.map(|s| s.saving.paper_max_pct)),
        ];
        for (name, values) in summary {
            let _ = write!(t, "{name:<13}");
            for value in values {
                let _ = match value {
                    Some(v) => write!(t, "  {v:>8.1}%"),
                    None => write!(t, "  {:>9}", "-"),
                };
            }
            t.push('\n');
        }
        self.text.push_str(&t);
        self.claims = t;
    }

    /// The summary the README's "How close to the paper" section shows:
    /// the Fig. 5, 7 and 8 averages and maxima, and the row of each of
    /// Tables 1–3 furthest from the paper, relative to the paper's value.
    fn closeness(&mut self) {
        let relative = |r: &&Row| r.delta.zip(r.paper).map_or(0.0, |(d, p)| (d / p).abs());
        let mut ids: Vec<String> = ["fig5", "fig7", "fig8"]
            .iter()
            .flat_map(|f| [format!("{f}.saving_avg_pct"), format!("{f}.saving_max_pct")])
            .collect();
        for table in ["table1.", "table2.", "table3."] {
            let quoted = self.rows.iter().filter(|r| r.id.starts_with(table) && r.paper.is_some());
            let worst = quoted.max_by(|a, b| relative(a).total_cmp(&relative(b)));
            ids.push(worst.expect("every table quotes the paper").id.clone());
        }
        let mut t = String::from(
            "How close to the paper\n| row | ours | paper | delta | delta / paper |\n\
             |---|---:|---:|---:|---:|\n",
        );
        for id in &ids {
            let r = self.get(id).expect("summary rows exist");
            let (paper, delta) = (r.paper.unwrap_or_default(), r.delta.unwrap_or_default());
            let places = if id.ends_with("_pct") {
                1
            } else if id.ends_with("_mm2") {
                3
            } else {
                2
            };
            let _ = writeln!(
                t,
                "| `{id}` | {:.places$} | {paper:.places$} | {delta:+.places$} | {:+.1}% |",
                r.ours,
                delta / paper * 100.0
            );
        }
        self.text.push_str(&t);
    }
}

/// One saving's figures: per kernel `(name, baseline mW, ours mW)`, the
/// geometric-mean ratio and the best kernel's ratio.
struct Savings {
    saving: Saving,
    kernels: Vec<(String, f64, f64)>,
    ratio_avg: f64,
    ratio_best: f64,
}

/// Writes one line per `N_t` of Tables 1–3: the `Nt=` label, `pad`
/// spaces, then `cell(k, j, (N_t, N_s))` for each `N_s` column.
fn grid(t: &mut String, pad: usize, mut cell: impl FnMut(usize, usize, (u32, u32)) -> String) {
    for (k, nt) in TAG_ENTRIES.into_iter().enumerate() {
        let _ = write!(t, "  Nt={nt}{:pad$}", "");
        for (j, ns) in SET_ENTRIES.into_iter().enumerate() {
            t.push_str(&cell(k, j, (nt, ns)));
        }
        t.push('\n');
    }
}

/// The summed total power of `caches` in `r`.
fn power_mw((d, i): Caches, r: &SimResult) -> f64 {
    let mw = |lookup, name: String| find(r, lookup, &name).power.total_mw();
    d.map_or(0.0, |s| mw(SimResult::dcache_by_name, s.name()))
        + i.map_or(0.0, |s| mw(SimResult::icache_by_name, s.name()))
}

/// A power ratio as the saving it means, in percent.
fn pct(ratio: f64) -> f64 {
    (1.0 - ratio) * 100.0
}

/// One side's results by scheme name: [`SimResult::dcache_by_name`] or
/// [`SimResult::icache_by_name`].
type Lookup = for<'r> fn(&'r SimResult, &str) -> Option<&'r SchemeResult>;

/// The result of the scheme `name`, on the side `lookup` searches.
fn find<'r>(r: &'r SimResult, lookup: Lookup, name: &str) -> &'r SchemeResult {
    lookup(r, name).unwrap_or_else(|| panic!("{}: no scheme {name}", r.workload))
}

/// A scheme name as a row-id component: no spaces.
fn key(name: &str) -> String {
    name.replace(' ', "_")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_set_holds_every_baseline_and_ours() {
        let (d, i) = (dschemes(), ischemes());
        for s in [FIG5, FIG7, FIG8, I_VS_ORIGINAL] {
            for (ds, is) in [s.baseline, s.ours] {
                assert!(ds.is_none_or(|x| d.contains(&x)) && is.is_none_or(|x| i.contains(&x)));
            }
        }
        assert_eq!(d, [D_ORIGINAL, DScheme::SetBuffer { entries: 1 }, D_OURS]);
        assert_eq!(i.len(), 5);
    }

    #[test]
    fn json_has_one_row_per_line_with_fixed_decimals() {
        let mut report = Report::default();
        report.row("a.x", 1.0 / 3.0, Some(0.5));
        report.row("b.y", 2.0, None);
        assert_eq!(
            report.to_json(),
            "{\"schema\":\"waymem/paper/v1\",\"rows\":[\n\
             {\"id\":\"a.x\",\"ours\":0.3333,\"paper\":0.5000,\"delta\":-0.1667},\n\
             {\"id\":\"b.y\",\"ours\":2.0000,\"paper\":null,\"delta\":null}\n\
             ]}\n"
        );
    }
}
