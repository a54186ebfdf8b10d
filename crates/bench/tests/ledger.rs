//! The run ledger's durability contract: appends accumulate one JSONL
//! record per code state (dedup bumps `runs_at_rev` instead of stacking
//! lines), every record parses back with the caller's perf and metrics,
//! and rotation bounds the file.

use std::path::PathBuf;

use waymem_bench::ledger::{self, Provenance};
use waymem_obs::json::{parse, Json};

/// One test's scratch dir, removed on drop. The tests run in parallel,
/// so each gets a dir of its own: none could safely remove a shared one.
struct TempDir(PathBuf);

impl TempDir {
    fn new(test: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("waymem-ledger-{}-{test}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        TempDir(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn prov(rev: &str) -> Provenance {
    Provenance {
        git_rev: rev.to_owned(),
        git_dirty: false,
        host_threads: 8,
        unix_ts: 1_754_000_000,
    }
}

fn perf(streaming_events_per_sec: f64) -> Json {
    Json::object(vec![
        ("streaming_events_per_sec", Json::from(streaming_events_per_sec)),
        (
            "phases",
            Json::object(vec![
                ("resolve", Json::from(0.01)),
                ("record", Json::from(1.0)),
                ("io", Json::from(0.3)),
                ("replay", Json::from(2.0)),
            ]),
        ),
    ])
}

/// The snapshot of the process that did the work — here one that is
/// not this test's, as the daemon's is not `loadgen`'s.
fn metrics() -> Json {
    parse(r#"{"counters":{"serve.requests":7},"gauges":{},"histograms":{},"phases":{}}"#)
        .expect("fixed snapshot parses")
}

fn records(path: &PathBuf) -> Vec<Json> {
    std::fs::read_to_string(path)
        .expect("ledger readable")
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| parse(l).expect("ledger line is one JSON record"))
        .collect()
}

#[test]
fn appends_dedup_per_code_state_and_stamp_provenance() {
    let dir = TempDir::new("dedup");
    let path = dir.path("dedup.jsonl");

    let first =
        ledger::append_to(&path, "headline", perf(40.0), metrics(), &prov("aaa"), 512).unwrap();
    assert_eq!((first.records, first.runs_at_rev, first.deduped), (1, 1, false));

    // Same (bin, rev, dirty): the tail record is replaced, not stacked.
    let rerun =
        ledger::append_to(&path, "headline", perf(41.0), metrics(), &prov("aaa"), 512).unwrap();
    assert_eq!((rerun.records, rerun.runs_at_rev, rerun.deduped), (1, 2, true));

    // A different bin at the same rev is a distinct state.
    let other =
        ledger::append_to(&path, "ingest", perf(5.0), metrics(), &prov("aaa"), 512).unwrap();
    assert_eq!((other.records, other.deduped), (2, false));

    // A new revision appends.
    let bumped =
        ledger::append_to(&path, "headline", perf(42.0), metrics(), &prov("bbb"), 512).unwrap();
    assert_eq!((bumped.records, bumped.runs_at_rev, bumped.deduped), (3, 1, false));

    let all = records(&path);
    assert_eq!(all.len(), 3);
    for record in &all {
        assert_eq!(
            record.get("schema").and_then(Json::as_str),
            Some(ledger::SCHEMA),
            "every line carries the schema tag"
        );
        let embedded = record.get("metrics").expect("caller's snapshot embedded");
        waymem_obs::snapshot::validate_metrics(embedded).expect("snapshot validates");
        assert_eq!(embedded, &metrics(), "the record carries the caller's metrics");
    }
    // The deduped record kept the latest perf numbers, phases included,
    // and the bump count.
    let deduped = &all[0];
    assert_eq!(deduped.get("runs_at_rev").and_then(Json::as_num), Some(2.0));
    assert_eq!(deduped.get("perf"), Some(&perf(41.0)));
    assert_eq!(deduped.get("host_threads").and_then(Json::as_num), Some(8.0));
}

#[test]
fn rotation_keeps_only_the_newest_records() {
    let dir = TempDir::new("rotate");
    let path = dir.path("rotate.jsonl");
    for i in 0..7 {
        let rev = prov(&format!("r{i}"));
        ledger::append_to(&path, "headline", perf(f64::from(i)), metrics(), &rev, 4).unwrap();
    }
    let all = records(&path);
    assert_eq!(all.len(), 4, "rotation trims to the cap");
    let revs: Vec<_> =
        all.iter().map(|r| r.get("git_rev").and_then(Json::as_str).unwrap().to_owned()).collect();
    assert_eq!(revs, ["r3", "r4", "r5", "r6"], "oldest records dropped first");
}

#[test]
fn atomic_write_never_leaves_a_temp_behind() {
    let dir = TempDir::new("atomic");
    let path = dir.path("atomic.jsonl");
    ledger::append_to(&path, "headline", perf(40.0), metrics(), &prov("aaa"), 512).unwrap();
    let temps: Vec<_> = std::fs::read_dir(&dir.0)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("atomic") && n.contains("tmp"))
        .collect();
    assert!(temps.is_empty(), "leftover temps: {temps:?}");
}
