//! The append-only run ledger behind `BENCH_LEDGER.jsonl`.
//!
//! Every `headline` / `ingest` / `loadgen` invocation
//! [appends](append_from_env) one provenance-stamped record — git
//! revision, dirty flag, host thread count, wall-clock timestamp, the
//! run's key perf numbers, and the metrics
//! [`snapshot`](waymem_obs::snapshot) of the process that did the work
//! (the daemon's, for `loadgen`) — as one JSON line, so the
//! bench trajectory survives the next run overwriting `BENCH_*.json`.
//! `bench_ab` appends one record per workload it compares. Each run
//! [detects](Provenance::detect) its provenance once: the record it
//! appends and the line it prints carry the same stamp.
//!
//! Two policies keep the file useful instead of unbounded:
//!
//! * **dedup** — re-running at the same `(bin, git_rev, dirty)` replaces
//!   the tail record (bumping its `runs_at_rev` count) rather than
//!   stacking near-identical lines, so one line ≈ one code state;
//! * **rotation** — the file is trimmed to the newest
//!   [`DEFAULT_MAX_RECORDS`] lines.
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

/// Records kept after rotation.
pub const DEFAULT_MAX_RECORDS: usize = 512;

/// Where a run happened: the provenance stamp on every record.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Short git revision, or `"unknown"` outside a git checkout.
    pub git_rev: String,
    /// `true` when tracked files other than the ledgers had uncommitted
    /// changes.
    pub git_dirty: bool,
    /// `std::thread::available_parallelism` at run time.
    pub host_threads: u64,
    /// Seconds since the Unix epoch.
    pub unix_ts: u64,
}

impl Provenance {
    /// Detects the current provenance: `git rev-parse` / `git status`
    /// (degrading to `"unknown"` / clean outside a checkout), host
    /// parallelism, and the wall clock. The dirty check leaves out the
    /// ledgers — the checkout's own [`DEFAULT_PATH`] and the file
    /// `WAYMEM_LEDGER` names — since every append modifies them: a run
    /// that counted them would stamp every later run at its rev dirty.
    #[must_use]
    pub fn detect() -> Self {
        Self::detect_in(Path::new("."), ledger_path_from_env().as_deref())
    }

    /// [`detect`](Self::detect) with git run in `dir`, leaving `ledger`
    /// (relative to `dir`) out of the dirty check.
    fn detect_in(dir: &Path, ledger: Option<&Path>) -> Self {
        let git = |args: &[&str]| {
            Command::new("git")
                .current_dir(dir)
                .args(args)
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        };
        let default = format!(":(top,exclude){DEFAULT_PATH}");
        let status = ["status", "--porcelain", "--untracked-files=no", "--", ":/", &default];
        // git refuses a pathspec outside the checkout; such a ledger
        // cannot dirty it anyway.
        let changes = ledger
            .map(|p| format!(":(exclude){}", p.display()))
            .and_then(|x| git(&[&status[..], &[x.as_str()]].concat()))
            .or_else(|| git(&status));
        Provenance {
            git_rev: git(&["rev-parse", "--short=12", "HEAD"])
                .filter(|rev| !rev.is_empty())
                .unwrap_or_else(|| "unknown".to_owned()),
            git_dirty: changes.is_some_and(|s| !s.is_empty()),
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

/// The ledger `WAYMEM_LEDGER` names (default [`DEFAULT_PATH`]), or
/// `None` when it says `off` / `0` / `none`.
fn ledger_path_from_env() -> Option<PathBuf> {
    match std::env::var("WAYMEM_LEDGER") {
        Ok(v) if matches!(v.trim().to_ascii_lowercase().as_str(), "off" | "0" | "none") => None,
        Ok(v) if !v.trim().is_empty() => Some(PathBuf::from(v)),
        _ => Some(PathBuf::from(DEFAULT_PATH)),
    }
}

/// The env-wired [`append_to`] the bench binaries call after writing
/// their `BENCH_*.json`, with the snapshot of the process that did the
/// work as `metrics` and the run's one [detected](Provenance::detect)
/// `prov`: path from `WAYMEM_LEDGER` (default [`DEFAULT_PATH`]; `off` /
/// `0` / `none` disables), rotating at [`DEFAULT_MAX_RECORDS`].
/// Returns `None` when disabled; a failed write warns and returns
/// `None` rather than failing the run that produced the results.
pub fn append_from_env(
    bin: &str,
    perf: Json,
    metrics: Json,
    prov: &Provenance,
) -> Option<LedgerOutcome> {
    let path = ledger_path_from_env()?;
    match append_to(&path, bin, perf, metrics, prov, DEFAULT_MAX_RECORDS) {
        Ok(outcome) => Some(outcome),
        Err(e) => {
            waymem_obs::warn!("ledger.append_failed", path = path.display(), error = e);
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scratch checkout, removed on drop.
    struct Scratch(PathBuf);

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn ledger_appends_leave_a_clean_checkout_clean() {
        let name = format!("waymem-ledger-git-{}", std::process::id());
        let repo = Scratch(std::env::temp_dir().join(name));
        let dir = repo.0.as_path();
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).expect("temp dir");
        let write = |name: &str, text: &str| std::fs::write(dir.join(name), text).expect("write");
        let git = |args: &[&str]| {
            let me = ["-c", "user.name=waymem", "-c", "user.email=waymem@localhost"];
            let out = Command::new("git").current_dir(dir).args(me).args(args).output();
            assert!(out.is_ok_and(|o| o.status.success()), "git {args:?} failed");
        };
        let dirty = |ledger: Option<&Path>| Provenance::detect_in(dir, ledger).git_dirty;
        for name in [DEFAULT_PATH, "runs.jsonl", "src.rs"] {
            write(name, "1\n");
        }
        git(&["init", "-q"]);
        git(&["add", "."]);
        git(&["-c", "commit.gpgsign=false", "commit", "-q", "--no-verify", "-m", "init"]);
        let clean = Provenance::detect_in(dir, None);
        assert_eq!(clean.git_rev.len(), 12, "{}", clean.git_rev);
        assert!(!clean.git_dirty);

        // An append to the checkout's own ledger is a run, not a change,
        // whichever ledger the run names: none, or one outside the
        // checkout, which git refuses as a pathspec.
        let outside = std::env::temp_dir().join("elsewhere.jsonl");
        write(DEFAULT_PATH, "1\n2\n");
        assert!(!dirty(None));
        assert!(!dirty(Some(&outside)));
        // So is an append to the tracked file the run names...
        write("runs.jsonl", "1\n2\n");
        assert!(!dirty(Some(Path::new("runs.jsonl"))));
        // ...which counts when a run names another ledger.
        assert!(dirty(Some(&outside)));
        write("runs.jsonl", "1\n");
        write("src.rs", "2\n");
        assert!(dirty(Some(Path::new("runs.jsonl"))));
    }
}
