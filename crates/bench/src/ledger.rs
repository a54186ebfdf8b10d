//! The append-only run ledger behind `BENCH_LEDGER.jsonl`.
//!
//! Every `headline` / `ingest` / `loadgen` invocation
//! [appends](append_from_env) one provenance-stamped record — git
//! revision, dirty flag, host thread count, wall-clock timestamp, the
//! run's key perf numbers, and the metrics
//! [`snapshot`](waymem_obs::snapshot) of the process that did the work
//! (the daemon's, for `loadgen`) — as one JSON line, so the
//! bench trajectory survives the next run overwriting `BENCH_*.json`.
//! The `bench_diff` binary reads the tail back as the regression
//! baseline.
//!
//! Two policies keep the file useful instead of unbounded:
//!
//! * **dedup** — re-running at the same `(bin, git_rev, dirty)` replaces
//!   the tail record (bumping its `runs_at_rev` count) rather than
//!   stacking near-identical lines, so one line ≈ one code state;
//! * **rotation** — the file is trimmed to the newest
//!   [`DEFAULT_MAX_RECORDS`] lines (override with `WAYMEM_LEDGER_MAX`).
//!
//! Writes go through a temp file + rename, so a run killed mid-append
//! leaves the previous ledger intact — the same crash discipline as the
//! trace store.
//!
//! Record schema (`waymem/ledger/v1`), one object per line:
//!
//! ```json
//! {"schema":"waymem/ledger/v1","bin":"headline","git_rev":"20cd372a1b2c",
//!  "git_dirty":false,"unix_ts":1754650000,"host_threads":8,"runs_at_rev":1,
//!  "perf":{"streaming_events_per_sec":4.1e6,"...":0},"metrics":{"counters":{},"...":{}}}
//! ```

use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;

use waymem_obs::json::{self, Json};

/// Schema tag every ledger record carries.
pub const SCHEMA: &str = "waymem/ledger/v1";

/// Where records land when `WAYMEM_LEDGER` names no path.
pub const DEFAULT_PATH: &str = "BENCH_LEDGER.jsonl";

/// Records kept after rotation (override with `WAYMEM_LEDGER_MAX`).
pub const DEFAULT_MAX_RECORDS: usize = 512;

/// Where a run happened: the provenance stamp on every record.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Short git revision, or `"unknown"` outside a git checkout.
    pub git_rev: String,
    /// `true` when tracked files had uncommitted changes.
    pub git_dirty: bool,
    /// `std::thread::available_parallelism` at run time.
    pub host_threads: u64,
    /// Seconds since the Unix epoch.
    pub unix_ts: u64,
}

impl Provenance {
    /// Detects the current provenance: `git rev-parse` / `git status`
    /// (degrading to `"unknown"` / clean outside a checkout), host
    /// parallelism, and the wall clock.
    #[must_use]
    pub fn detect() -> Self {
        let git = |args: &[&str]| {
            Command::new("git")
                .args(args)
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        };
        Provenance {
            git_rev: git(&["rev-parse", "--short=12", "HEAD"])
                .filter(|rev| !rev.is_empty())
                .unwrap_or_else(|| "unknown".to_owned()),
            git_dirty: git(&["status", "--porcelain", "--untracked-files=no"])
                .is_some_and(|s| !s.is_empty()),
            host_threads: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            unix_ts: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_secs()),
        }
    }
}

/// What [`append_to`] did.
#[derive(Debug, Clone)]
pub struct LedgerOutcome {
    /// The ledger file written.
    pub path: PathBuf,
    /// Records in the file after the append.
    pub records: usize,
    /// This record's run count at its `(bin, git_rev, dirty)` state —
    /// 1 for a fresh state, incremented when the append deduped.
    pub runs_at_rev: u64,
    /// `true` when the append replaced the tail record instead of
    /// adding a line.
    pub deduped: bool,
}

/// `true` when `record` (a parsed ledger line) matches the dedup key.
fn same_state(record: &Json, bin: &str, prov: &Provenance) -> bool {
    record.get("bin").and_then(Json::as_str) == Some(bin)
        && record.get("git_rev").and_then(Json::as_str) == Some(prov.git_rev.as_str())
        && record.get("git_dirty") == Some(&Json::Bool(prov.git_dirty))
}

/// Appends one record for `bin` with this run's `perf` numbers and the
/// `metrics` snapshot of the process that did the work, deduping against
/// the tail and rotating to `max_records`. The write is atomic (temp
/// file + rename).
///
/// # Errors
///
/// Propagates filesystem failures; a malformed existing ledger is not an
/// error (unparseable tail lines are kept verbatim and never deduped).
pub fn append_to(
    path: &Path,
    bin: &str,
    perf: Json,
    metrics: Json,
    prov: &Provenance,
    max_records: usize,
) -> io::Result<LedgerOutcome> {
    let mut lines: Vec<String> = match std::fs::read_to_string(path) {
        Ok(text) => text.lines().filter(|l| !l.trim().is_empty()).map(str::to_owned).collect(),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let mut runs_at_rev = 1u64;
    let mut deduped = false;
    if let Some(last) = lines.last() {
        if let Ok(record) = json::parse(last) {
            if same_state(&record, bin, prov) {
                runs_at_rev = record
                    .get("runs_at_rev")
                    .and_then(Json::as_num)
                    .map_or(1, |n| if n.is_finite() && n >= 1.0 { n as u64 } else { 1 })
                    .saturating_add(1);
                lines.pop();
                deduped = true;
            }
        }
    }
    let record = Json::object(vec![
        ("schema", Json::from(SCHEMA)),
        ("bin", Json::from(bin)),
        ("git_rev", Json::from(prov.git_rev.clone())),
        ("git_dirty", Json::from(prov.git_dirty)),
        ("unix_ts", Json::from(prov.unix_ts)),
        ("host_threads", Json::from(prov.host_threads)),
        ("runs_at_rev", Json::from(runs_at_rev)),
        ("perf", perf),
        ("metrics", metrics),
    ]);
    lines.push(record.to_string());
    if lines.len() > max_records.max(1) {
        let drop = lines.len() - max_records.max(1);
        lines.drain(..drop);
    }
    let tmp = path.with_extension(format!("tmp-{}", std::process::id()));
    std::fs::write(&tmp, lines.join("\n") + "\n")?;
    std::fs::rename(&tmp, path)?;
    Ok(LedgerOutcome { path: path.to_owned(), records: lines.len(), runs_at_rev, deduped })
}

/// The env-wired [`append_to`] the bench binaries call after writing
/// their `BENCH_*.json`, with the snapshot of the process that did the
/// work as `metrics`: path from `WAYMEM_LEDGER` (default
/// [`DEFAULT_PATH`]; `off` / `0` / `none` disables), rotation cap from
/// `WAYMEM_LEDGER_MAX`, provenance [detected](Provenance::detect) now.
/// Returns `None` when disabled; a failed write warns and returns
/// `None` rather than failing the run that produced the results.
pub fn append_from_env(bin: &str, perf: Json, metrics: Json) -> Option<LedgerOutcome> {
    let path = match std::env::var("WAYMEM_LEDGER") {
        Ok(v) if matches!(v.trim().to_ascii_lowercase().as_str(), "off" | "0" | "none") => {
            return None;
        }
        Ok(v) if !v.trim().is_empty() => PathBuf::from(v),
        _ => PathBuf::from(DEFAULT_PATH),
    };
    let max_records = std::env::var("WAYMEM_LEDGER_MAX")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(DEFAULT_MAX_RECORDS);
    let prov = Provenance::detect();
    match append_to(&path, bin, perf, metrics, &prov, max_records) {
        Ok(outcome) => Some(outcome),
        Err(e) => {
            waymem_obs::warn!("ledger.append_failed", path = path.display(), error = e);
            None
        }
    }
}
