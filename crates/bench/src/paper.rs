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
//! delta}`, with the text tables the `paper` bin prints; [`run`] also
//! appends the `ext.*` rows, which test the paper's design choices.
//! [`Report::to_json`] renders the rows as the `waymem/paper/v1`
//! artifact that `tests/golden/paper.json` pins byte for byte.

use std::fmt::Write as _;

use waymem_cache::{AccessStats, Geometry};
use waymem_hwmodel::{
    cache_area_mm2, mab_area_mm2, mab_delay_ns, mab_power_mw, CacheShape, MabShape, Technology,
};
use waymem_obs::json::Json;
use waymem_sim::{
    fig4_dschemes, fig6_ischemes, format_power_table, format_ratio_table, DScheme, Experiment,
    FigureRow, IScheme, RunError, SchemeResult, SimConfig, SimResult, TraceStore,
};
use waymem_workloads::Benchmark;

use crate::geometric_mean;

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

/// The extensions' D-MAB sweep: `N_t` rows by the `N_s` of [`SET_ENTRIES`].
const SWEEP_TAG_ENTRIES: [u32; 3] = [1, 2, 4];
/// The D-cache alternatives §2 argues against, way prediction \[9\] and
/// two-phase lookup \[8\], and the conclusion's MAB + line-buffer hybrid.
const D_ALTERNATIVES: [DScheme; 3] = [
    DScheme::WayPredict,
    DScheme::TwoPhase,
    DScheme::WayMemoLineBuffer { tag_entries: 2, set_entries: 8, line_entries: 2 },
];
/// The §3.3 audit: the paper's D-MAB trusting LRU order, with no
/// invalidation on fills.
const D_PAPER_LRU: DScheme = DScheme::WayMemoPaperLru { tag_entries: 2, set_entries: 8 };
/// The I-cache schemes outside Figures 6–7: link memoization \[11\], the
/// extended BTB \[12\], and the 4×16 point of the I-MAB sizing.
const I_EXTENSIONS: [IScheme; 3] = [
    IScheme::LinkMemo,
    IScheme::ExtendedBtb { entries: 32 },
    IScheme::WayMemo { tag_entries: 4, set_entries: 16 },
];
/// The I-MAB sizing, (`N_t`, `N_s`).
const I_SIZES: [(u32, u32); 4] = [(2, 8), (2, 16), (2, 32), (4, 16)];
/// The associativity and line-size sweep, one table per (capacity kB,
/// line bytes, workload scale) over its numbers of ways.
const ASSOC_TABLES: [(u32, u32, u32, &[u32]); 4] = [
    (32, 32, 1, &[1, 2, 4, 8, 16]),
    (32, 16, 1, &[1, 2, 4, 8, 16]),
    (32, 64, 1, &[1, 2, 4, 8, 16]),
    (64, 32, 2, &[8, 16]),
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

/// Runs the seven kernels under the paper's scheme set over `store`:
/// the run every row of a [`Report`] comes from.
///
/// # Errors
///
/// The first [`RunError`] in [`Benchmark::ALL`] order.
pub fn suite(store: &TraceStore) -> Result<Vec<SimResult>, RunError> {
    run_kernels(store, |exp| exp.dschemes(dschemes()).ischemes(ischemes()))
}

/// Runs the seven kernels, in [`Benchmark::ALL`] order, over `store`,
/// each experiment set up by `setup`.
fn run_kernels<'s>(
    store: &'s TraceStore,
    setup: impl Fn(Experiment<'s>) -> Experiment<'s>,
) -> Result<Vec<SimResult>, RunError> {
    Experiment::run_all(Benchmark::ALL.map(|bench| setup(Experiment::kernel(bench).store(store))))
}

/// Runs [`suite`] and the extension runs over one `store`, so each kernel
/// is interpreted once per scale, and builds the whole report: the
/// paper's rows ([`Report::new`]), then the `ext.*` rows.
///
/// # Errors
///
/// The first [`RunError`] of any run.
pub fn run(store: &TraceStore) -> Result<(Vec<SimResult>, Report), RunError> {
    let results = suite(store)?;
    let mut report = Report::new(&results);
    report.extensions(&results, store)?;
    Ok((results, report))
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

/// Every row of the paper's tables, figures and claims, and after [`run`]
/// the `ext.*` rows, plus their text rendering.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All rows, in table-then-figure order, the `ext.*` rows last.
    pub rows: Vec<Row>,
    /// The text tables of Tables 1–3, Figures 4–8, the abstract and `ext.*`.
    pub text: String,
    /// The abstract's claims alone: one line of savings per kernel.
    pub claims: String,
}

impl Report {
    /// Builds the paper's rows from `results`, a run of [`suite`].
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
        let kernels: Vec<String> = results.iter().map(|r| r.workload.name()).collect();
        let quantities = [
            ("top", "tag accesses", "tags_per_access", AccessStats::tags_per_access as fn(&_) -> _),
            ("bottom", "ways accessed", "ways_per_access", AccessStats::ways_per_access),
        ];
        for (part, what, quantity, value) in quantities {
            let title = format!("{figure} ({part}): # {what} / {side}-cache access");
            let cell = |k: usize, j: usize| value(&find(&results[k], lookup, &schemes[j]).stats);
            self.table(&title, &kernels, schemes, cell, |k, n| {
                format!("{id}.{k}.{}.{quantity}", key(n))
            });
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

    /// Prints `value(l, s)` for every label `l` and series `s` as one
    /// table under `title`, and adds each as the row `id(label, series)`.
    fn table(
        &mut self,
        title: &str,
        labels: &[String],
        series: &[String],
        value: impl Fn(usize, usize) -> f64,
        id: impl Fn(&str, &str) -> String,
    ) {
        let row = |(l, label): (usize, &String)| FigureRow {
            label: label.clone(),
            values: series.iter().enumerate().map(|(s, n)| (n.clone(), value(l, s))).collect(),
        };
        let rows: Vec<FigureRow> = labels.iter().enumerate().map(row).collect();
        for (r, (name, v)) in rows.iter().flat_map(|r| r.values.iter().map(move |c| (r, c))) {
            self.row(id(&r.label, name), *v, None);
        }
        self.text.push_str(&format_ratio_table(title, &rows));
    }

    /// The `ext.*` rows: the related-work schemes, the MAB sizing, the
    /// associativity and line-size sweep and the §3.3 audit. Every run
    /// shares `store` with `results`, the run of [`suite`], which also
    /// supplies the original D-cache, the paper's MABs and \[4\].
    fn extensions(&mut self, results: &[SimResult], store: &TraceStore) -> Result<(), RunError> {
        self.text.push_str("\nExtensions: the choices the paper argues for, tested (ext.* rows)\n");
        let sweep = SWEEP_TAG_ENTRIES.into_iter().flat_map(|t| SET_ENTRIES.map(|s| dmab(t, s)));
        let dschemes: Vec<DScheme> =
            sweep.filter(|&s| s != D_OURS).chain(D_ALTERNATIVES).chain([D_PAPER_LRU]).collect();
        let mut runs =
            run_kernels(store, |exp| exp.dschemes(dschemes.clone()).ischemes(I_EXTENSIONS))?;
        for (run, paper) in runs.iter_mut().zip(results) {
            run.dcache.extend_from_slice(&paper.dcache);
            run.icache.extend_from_slice(&paper.icache);
        }
        let kernels: Vec<String> = runs.iter().map(|r| r.workload.name()).collect();
        let (d, i): (Lookup, Lookup) = (SimResult::dcache_by_name, SimResult::icache_by_name);
        let id = |side, q| move |k: &str, n: &str| format!("ext.{side}.{k}.{}.{q}", key(n));

        let names = D_ALTERNATIVES.map(|s| s.name());
        let alt = |k: usize, j: usize| find(&runs[k], d, &names[j]);
        let title = "D-cache alternatives, total mW";
        let mw = |k, j| alt(k, j).power.total_mw();
        self.table(title, &kernels, &names, mw, id("dalt", "total_mw"));
        let title = "D-cache alternatives, extra cycles";
        let cycles = |k, j| alt(k, j).extra_cycles as f64;
        self.table(title, &kernels, &names, cycles, id("dalt", "extra_cycles"));
        let (n, ours) = (runs.len(), D_OURS.name());
        let ours_mw = |k: usize| find(&runs[k], d, &ours).power.total_mw();
        for (j, name) in names.iter().enumerate() {
            let slower = (0..n).filter(|&k| alt(k, j).extra_cycles > 0).count();
            let lower = (0..n).filter(|&k| alt(k, j).power.total_mw() < ours_mw(k)).count();
            let _ = writeln!(
                self.text,
                "{name}: extra cycles on {slower}/{n} kernels, fewer mW than {ours} on {lower}/{n}"
            );
        }

        let (nt, ns) =
            (SWEEP_TAG_ENTRIES.map(|t| format!("{t}x")), SET_ENTRIES.map(|s| s.to_string()));
        let ratio = |a: usize, b: usize| {
            let scheme = dmab(SWEEP_TAG_ENTRIES[a], SET_ENTRIES[b]);
            geometric_mean(&runs.iter().map(|r| d_ratio(scheme, r)).collect::<Vec<_>>())
        };
        let title = "D-MAB sweep (N_t x N_s), ours/original power, geometric mean";
        self.table(title, &nt, &ns, ratio, |t, s| format!("ext.dmab.{t}{s}.power_ratio"));
        let sweep = self.select("ext.dmab.", ".power_ratio");
        let by_ratio = |a: &&(String, f64), b: &&(String, f64)| a.1.total_cmp(&b.1);
        let (best, worst) = (sweep.iter().min_by(by_ratio), sweep.iter().max_by(by_ratio));
        let ((best, lowest), (worst, highest)) = best.zip(worst).expect("sweep rows");
        let paper = self.ours("ext.dmab.2x8.power_ratio");
        let _ = writeln!(
            self.text,
            "lowest: {best} at {lowest:.3}; highest: {worst} at {highest:.3}; the paper's 2x8: \
             {paper:.3}"
        );

        let names = I_EXTENSIONS.map(|s| s.name());
        let scheme = |k: usize, j: usize| find(&runs[k], i, &names[j]);
        let title = "I-cache, tags per access";
        let tags = |k, j| scheme(k, j).stats.tags_per_access();
        self.table(title, &kernels, &names, tags, id("icache", "tags_per_access"));
        let title = "I-cache, total mW";
        let mw = |k, j| scheme(k, j).power.total_mw();
        self.table(title, &kernels, &names, mw, id("icache", "total_mw"));
        let link = IScheme::LinkMemo;
        let invalidations: Vec<f64> = runs
            .iter()
            .map(|r| {
                let mut front = link.build(SimConfig::default().geometry);
                front.replay(&store.get(r.workload).expect("a stored kernel").fetch_events);
                front.link_invalidations().expect("a link scheme") as f64
            })
            .collect();
        let reads = |k: usize| find(&runs[k], i, &link.name()).energy.buffer_probes as f64;
        let cost = |k, q| [reads(k), invalidations[k]][q];
        let (title, costs) =
            (format!("{} costs", link.name()), ["link_bit_reads", "link_invalidations"]);
        let link_id = |k: &str, q: &str| format!("ext.icache.{k}.{}.{q}", link.name());
        self.table(&title, &kernels, &costs.map(String::from), cost, link_id);
        let total = |q| self.select("ext.icache.", q).iter().map(|r| r.1).sum::<f64>();
        let (reads, invalidated) = (total(".link_bit_reads"), total(".link_invalidations"));
        let _ = writeln!(
            self.text,
            "{}: {reads} link-bit reads and {invalidated} link invalidations over the kernels",
            link.name()
        );

        let total = |s| runs.iter().map(|r| power_mw((None, Some(s)), r)).sum::<f64>();
        let intra_line = total(I_INTRA_LINE);
        self.row(format!("ext.imab.{}.total_mw", I_INTRA_LINE.name()), intra_line, None);
        let (tech, shapes) =
            (SimConfig::default().technology, I_SIZES.map(|(t, s)| format!("{t}x{s}")));
        let value = |q: usize, j: usize| {
            let (t, s) = I_SIZES[j];
            [total(imab(t, s)), mab_area_mm2(MabShape::frv(t, s), tech)][q]
        };
        let title = "I-MAB sizing, total mW summed over the kernels, and area";
        let quantities = ["total_mw", "area_mm2"].map(String::from);
        self.table(title, &quantities, &shapes, value, |q, shape| format!("ext.imab.{shape}.{q}"));
        let paper = self.ours("ext.imab.2x16.total_mw");
        let mw = |shape: &String| self.ours(&format!("ext.imab.{shape}.total_mw")) - paper;
        let others: Vec<String> = shapes.iter().map(|s| format!("{s} {:+.2}", mw(s))).collect();
        let _ = writeln!(
            self.text,
            "against the paper's 2x16 at {paper:.2} mW: {} mW ({} {intra_line:.2} mW)",
            others.join(", "),
            I_INTRA_LINE.name()
        );

        self.assoc_sweep(&kernels, store)?;
        self.consistency(&runs, store)
    }

    /// Way memoization's D power against the original's at constant
    /// capacity over the associativities and line sizes of
    /// [`ASSOC_TABLES`]: a ratio per kernel and their geometric mean.
    fn assoc_sweep(&mut self, kernels: &[String], store: &TraceStore) -> Result<(), RunError> {
        let labels: Vec<String> = kernels.iter().cloned().chain(["geomean".into()]).collect();
        let (mut falling, schemes) = (true, [D_ORIGINAL, D_OURS]);
        for (kb, line, scale, ways) in ASSOC_TABLES {
            let (mut columns, mut ratios) = (Vec::new(), Vec::new());
            for &w in ways {
                let geometry = Geometry::new(kb * 1024 / (w * line), w, line).expect("a geometry");
                let cfg = SimConfig { geometry, scale, ..SimConfig::default() };
                let runs = run_kernels(store, |exp| exp.config(cfg).dschemes(schemes))?;
                let mut column: Vec<f64> = runs.iter().map(|r| d_ratio(D_OURS, r)).collect();
                column.push(geometric_mean(&column));
                columns.push(format!("{kb}kB_{line}B_{w}way_s{scale}"));
                ratios.push(column);
            }
            falling &= ratios.windows(2).all(|c| c[1].last() < c[0].last());
            let title =
                format!("D-cache ours/original power, {kb} kB, {line}-B lines, scale {scale}");
            let ratio = |k, c: usize| ratios[c][k];
            self.table(&title, &labels, &columns, ratio, |k, c| {
                format!("ext.assoc.{c}.{k}.power_ratio")
            });
        }
        let above = self.select("ext.assoc.", ".power_ratio").into_iter();
        let above: Vec<String> = above
            .filter(|(id, v)| *v > 1.0 && !id.ends_with("geomean"))
            .map(|(id, _)| id)
            .collect();
        let _ = writeln!(
            self.text,
            "ours/original above 1.0, where way memoization costs power: {}; the geometric mean \
             falls as the ways double in every table: {falling}",
            if above.is_empty() { "none".to_owned() } else { above.join(", ") }
        );
        Ok(())
    }

    /// The §3.3 audit: MAB hits and unsound hits of the paper's D-MAB
    /// without fill invalidation, per kernel at 32 kB and at 1 kB, and on
    /// the interleaving [`DScheme::lru_counterexample`] builds.
    fn consistency(&mut self, runs: &[SimResult], store: &TraceStore) -> Result<(), RunError> {
        let kernels: Vec<String> = runs.iter().map(|r| r.workload.name()).collect();
        let small = Geometry::new(16, 2, 32).expect("a valid geometry");
        let small = run_kernels(store, |exp| exp.geometry(small).dschemes([D_PAPER_LRU]))?;
        let (name, quantities) =
            (D_PAPER_LRU.name(), ["mab_hits", "unsound_hits"].map(String::from));
        for (size, runs) in [("32kB", runs), ("1kB", &small[..])] {
            let stats = |k: usize| find(&runs[k], SimResult::dcache_by_name, &name).stats;
            let value = |k, q| [stats(k).mab_hits, stats(k).unsound_hits][q] as f64;
            let title = format!("§3.3 audit at {size}, {name} without invalidation on fills");
            self.table(&title, &kernels, &quantities, value, |k, q| {
                format!("ext.consistency.{size}.{k}.{q}")
            });
        }
        let unsound = self.select("ext.consistency.", ".unsound_hits");
        let unsound: f64 = unsound.iter().map(|r| r.1).sum();
        let g = Geometry::new(4, 2, 16).expect("a valid geometry");
        let mut front = DScheme::WayMemoPaperLru { tag_entries: 2, set_entries: 4 }.build(g);
        for addr in DScheme::lru_counterexample(g) {
            front.access(false, addr, 0, addr);
        }
        let constructed = front.stats().unsound_hits as f64;
        self.row("ext.consistency.counterexample.unsound_hits", constructed, None);
        let _ = writeln!(
            self.text,
            "unsound hits: {unsound} on the kernels at 32 kB and 1 kB, {constructed} on \
             DScheme::lru_counterexample; the fronts drop a filled line's MAB pairs instead"
        );
        Ok(())
    }

    /// Every row `<prefix><name><suffix>`, as `(name, ours)`.
    fn select(&self, prefix: &str, suffix: &str) -> Vec<(String, f64)> {
        let name = |id: &str| Some(id.strip_prefix(prefix)?.strip_suffix(suffix)?.to_owned());
        self.rows.iter().filter_map(|r| Some((name(&r.id)?, r.ours))).collect()
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

/// The D-cache power of `scheme` in `r` over the original D-cache's.
fn d_ratio(scheme: DScheme, r: &SimResult) -> f64 {
    power_mw((Some(scheme), None), r) / power_mw((Some(D_ORIGINAL), None), r)
}

/// The D-cache MAB of `N_t`×`N_s`.
fn dmab(tag_entries: u32, set_entries: u32) -> DScheme {
    DScheme::WayMemo { tag_entries: tag_entries as usize, set_entries: set_entries as usize }
}

/// The I-cache MAB of `N_t`×`N_s`.
fn imab(tag_entries: u32, set_entries: u32) -> IScheme {
    IScheme::WayMemo { tag_entries: tag_entries as usize, set_entries: set_entries as usize }
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
