//! The crash flight recorder — a bounded black box for post-mortems.
//!
//! Every thread owns a small ring buffer retaining its last
//! [`DEFAULT_CAPACITY`] observability events (structured log lines,
//! armed span entries, and explicit [`note`]s). Recording is always on
//! and touches only the recording thread's own ring (the per-ring mutex
//! is contended only while a dump walks the rings), so the steady-state
//! cost is one uncontended lock plus a bounded push.
//!
//! A **dump** freezes the rings, the full metrics
//! [`snapshot`](crate::snapshot), and the phase accounting into one
//! structured JSON file. Dumps fire:
//!
//! * from the panic hook [`install_panic_hook`] installs (binaries get
//!   it via [`init_from_env`](crate::init_from_env)),
//! * from [`dump_on_incident`] at the reliability seams — a suite
//!   worker dying with `RunError::Worker`, a `.wmtr` quarantine, the
//!   first injected fault of an armed `WAYMEM_FAULT_PLAN`.
//!
//! The destination is `WAYMEM_FLIGHT=<path>` (default
//! [`DEFAULT_DUMP_PATH`]; `off` disables the recorder entirely).
//! Incident dumps overwrite: the file always describes the *latest*
//! incident, with the `obs.flight.dumps` counter recording how many
//! fired. [`validate_dump`] is the reader-side contract check the
//! `obs_check` binary and the tests share.

use std::cell::OnceCell;
use std::collections::{BTreeSet, VecDeque};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Once, OnceLock};

use crate::json::{self, Json};
use crate::log::Level;

/// Events each thread's ring retains; older events are evicted first.
pub const DEFAULT_CAPACITY: usize = 256;

/// Where dumps land when `WAYMEM_FLIGHT` names no path.
pub const DEFAULT_DUMP_PATH: &str = "waymem-flight.json";

/// Schema tag every dump carries.
pub const SCHEMA: &str = "waymem/flight/v1";

/// What kind of event a ring entry records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A structured log line that passed the level gate.
    Log,
    /// A span entered while the span tracer was armed.
    Span,
    /// An explicit breadcrumb from [`note`].
    Note,
}

impl EventKind {
    /// The kind's export name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Log => "log",
            EventKind::Span => "span",
            EventKind::Note => "note",
        }
    }
}

/// One recorded event: when, what kind, which name, which fields.
#[derive(Debug, Clone)]
struct FlightEvent {
    ts_ns: u64,
    kind: EventKind,
    name: String,
    fields: Vec<(String, String)>,
}

/// One thread's ring, registered globally so a dump can walk every
/// thread's recent history (including exited threads').
#[derive(Debug)]
struct Ring {
    tid: u32,
    events: Mutex<VecDeque<FlightEvent>>,
}

static RECORDING: AtomicBool = AtomicBool::new(true);

fn rings() -> &'static Mutex<Vec<Arc<Ring>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

fn dump_path() -> &'static Mutex<Option<PathBuf>> {
    static PATH: OnceLock<Mutex<Option<PathBuf>>> = OnceLock::new();
    PATH.get_or_init(|| Mutex::new(None))
}

/// Locks a mutex, surviving poisoning: the recorder must keep working
/// inside a panic hook, which is exactly when a ring lock may have been
/// poisoned by the unwinding thread.
fn lock_or_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn local_ring<R>(f: impl FnOnce(&Ring) -> R) -> R {
    thread_local! {
        static LOCAL: OnceCell<Arc<Ring>> = const { OnceCell::new() };
    }
    LOCAL.with(|cell| {
        let ring = cell.get_or_init(|| {
            static NEXT_TID: AtomicU32 = AtomicU32::new(1);
            let ring = Arc::new(Ring {
                tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
                events: Mutex::new(VecDeque::with_capacity(DEFAULT_CAPACITY)),
            });
            lock_or_recover(rings()).push(Arc::clone(&ring));
            ring
        });
        f(ring)
    })
}

/// `true` while events are being retained.
#[must_use]
pub fn armed() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Stops retaining events (rings keep what they already hold).
pub fn disarm() {
    RECORDING.store(false, Ordering::Relaxed);
}

/// Resumes retaining events.
pub fn arm() {
    RECORDING.store(true, Ordering::Relaxed);
}

/// Sets (or clears) the dump destination. Incident dumps and panic
/// dumps only write when a destination is configured — via this, or via
/// `WAYMEM_FLIGHT` through [`init_from_env`].
pub fn set_dump_path(path: Option<PathBuf>) {
    *lock_or_recover(dump_path()) = path;
}

/// The currently configured dump destination, if any.
#[must_use]
pub fn configured_dump_path() -> Option<PathBuf> {
    lock_or_recover(dump_path()).clone()
}

/// Arms the recorder from `WAYMEM_FLIGHT` (read once per process) and
/// installs the panic hook: a path names the dump destination, unset
/// means [`DEFAULT_DUMP_PATH`], and `off` / `0` / `none` disables
/// recording and dumping entirely. Binaries get this via
/// [`init_from_env`](crate::init_from_env).
pub fn init_from_env() {
    static READ: OnceLock<Option<PathBuf>> = OnceLock::new();
    let path = READ.get_or_init(|| {
        match std::env::var("WAYMEM_FLIGHT") {
            Ok(v) if matches!(v.trim().to_ascii_lowercase().as_str(), "off" | "0" | "none") => None,
            Ok(v) if !v.trim().is_empty() => Some(PathBuf::from(v)),
            _ => Some(PathBuf::from(DEFAULT_DUMP_PATH)),
        }
    });
    match path {
        Some(path) => {
            set_dump_path(Some(path.clone()));
            install_panic_hook();
        }
        None => {
            disarm();
            set_dump_path(None);
        }
    }
}

/// Records one event into the calling thread's ring (evicting the
/// oldest entry at capacity). `fields` are already-formatted pairs; a
/// no-op while the recorder is disarmed.
pub fn record(kind: EventKind, name: &str, fields: &[(&str, String)]) {
    if !armed() {
        return;
    }
    let event = FlightEvent {
        ts_ns: crate::span::now_ns(),
        kind,
        name: name.to_owned(),
        fields: fields.iter().map(|(k, v)| ((*k).to_owned(), v.clone())).collect(),
    };
    local_ring(|ring| {
        let mut events = lock_or_recover(&ring.events);
        if events.len() >= DEFAULT_CAPACITY {
            events.pop_front();
        }
        events.push_back(event);
    });
}

/// Records an explicit breadcrumb — the hook for incident sites that
/// want context in the black box beyond what they log.
pub fn note(name: &str, fields: &[(&str, String)]) {
    record(EventKind::Note, name, fields);
}

/// [`record`]s a log event — called by the logger for every line that
/// passes the level gate.
pub(crate) fn record_log(level: Level, event: &str, fields: &[(&str, String)]) {
    if !armed() {
        return;
    }
    let mut all = Vec::with_capacity(fields.len() + 1);
    all.push(("level", level_name(level).to_owned()));
    all.extend(fields.iter().map(|(k, v)| (*k, v.clone())));
    record(EventKind::Log, event, &all);
}

fn level_name(level: Level) -> &'static str {
    match level {
        Level::Off => "off",
        Level::Warn => "warn",
        Level::Info => "info",
        Level::Debug => "debug",
    }
}

/// Installs (once) a panic hook that records the panic as a ring event
/// and dumps the black box — to the configured destination, or
/// [`DEFAULT_DUMP_PATH`] if none was set — before delegating to the
/// previous hook.
pub fn install_panic_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let message = info
                .payload()
                .downcast_ref::<&str>()
                .map(ToString::to_string)
                .or_else(|| info.payload().downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_owned());
            let location = info.location().map_or_else(
                || "unknown".to_owned(),
                |l| format!("{}:{}:{}", l.file(), l.line(), l.column()),
            );
            note("panic", &[("message", message), ("location", location)]);
            let path =
                configured_dump_path().unwrap_or_else(|| PathBuf::from(DEFAULT_DUMP_PATH));
            let _ = dump_to(&path, "panic");
            previous(info);
        }));
    });
}

/// Dumps the black box for `reason` to the configured destination.
/// Returns the written path, or `None` when no destination is
/// configured or the write failed — an incident dump is best-effort by
/// design and must never turn an incident into a second failure.
pub fn dump_on_incident(reason: &str) -> Option<PathBuf> {
    let path = configured_dump_path()?;
    match dump_to(&path, reason) {
        Ok(_) => {
            crate::counter!("obs.flight.dumps").inc();
            Some(path)
        }
        Err(e) => {
            eprintln!("waymem[warn] flight.dump_failed path={} error={e}", path.display());
            None
        }
    }
}

/// Writes the black box — schema header, every thread's retained events
/// (timestamp-ordered), the full metrics snapshot, and the phase
/// breakdown — to `path` as one JSON document. Rings are copied, not
/// drained: a later dump still has the history. Returns the number of
/// events written.
///
/// # Errors
///
/// Propagates the file write failure.
pub fn dump_to(path: &Path, reason: &str) -> io::Result<usize> {
    let mut events: Vec<(u32, FlightEvent)> = Vec::new();
    let all: Vec<Arc<Ring>> = lock_or_recover(rings()).clone();
    for ring in all {
        let held = lock_or_recover(&ring.events);
        events.extend(held.iter().map(|e| (ring.tid, e.clone())));
    }
    events.sort_by_key(|(_, e)| e.ts_ns);

    let unix_ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let written = events.len();
    let events = events
        .into_iter()
        .map(|(tid, e)| {
            let fields = e.fields.into_iter().map(|(k, v)| (k, Json::from(v))).collect();
            Json::object(vec![
                ("ts_ns", Json::from(e.ts_ns)),
                ("tid", Json::from(tid)),
                ("kind", Json::from(e.kind.name())),
                ("name", Json::from(e.name)),
                ("fields", Json::Object(fields)),
            ])
        })
        .collect();
    let dump = Json::object(vec![
        ("schema", Json::from(SCHEMA)),
        ("reason", Json::from(reason)),
        ("pid", Json::from(std::process::id())),
        ("unix_ts", Json::from(unix_ts)),
        ("events", Json::Array(events)),
        ("metrics", crate::snapshot::take().to_json()),
    ]);
    std::fs::write(path, dump.to_string())?;
    Ok(written)
}

/// What [`validate_dump`] found in a well-formed dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightSummary {
    /// The incident that triggered the dump.
    pub reason: String,
    /// Retained events in the dump.
    pub events: usize,
    /// Every distinct event name seen.
    pub names: BTreeSet<String>,
}

impl FlightSummary {
    /// `true` when some event carries exactly this name.
    #[must_use]
    pub fn has_event(&self, name: &str) -> bool {
        self.names.contains(name)
    }
}

/// Validates `text` as a flight-recorder dump: correct schema, a
/// non-empty reason, well-formed events (numeric `ts_ns`/`tid`, string
/// `kind`/`name`, object `fields`), and an embedded metrics object that
/// passes [`validate_metrics`](crate::snapshot::validate_metrics).
///
/// # Errors
///
/// A human-readable description of the first violation.
pub fn validate_dump(text: &str) -> Result<FlightSummary, String> {
    let root = json::parse(text).map_err(|e| e.to_string())?;
    let schema = root
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("dump has no schema string")?;
    if schema != SCHEMA {
        return Err(format!("schema is {schema}, expected {SCHEMA}"));
    }
    let reason = root
        .get("reason")
        .and_then(Json::as_str)
        .ok_or("dump has no reason string")?;
    if reason.is_empty() {
        return Err("dump reason is empty".into());
    }
    root.get("pid").and_then(Json::as_num).ok_or("dump has no numeric pid")?;
    let events = root
        .get("events")
        .and_then(Json::as_arr)
        .ok_or("dump has no events array")?;
    let mut names = BTreeSet::new();
    for (i, event) in events.iter().enumerate() {
        let field = |key: &str| event.get(key).ok_or_else(|| format!("event {i} has no {key}"));
        field("ts_ns")?.as_num().ok_or_else(|| format!("event {i} ts_ns not a number"))?;
        field("tid")?.as_num().ok_or_else(|| format!("event {i} tid not a number"))?;
        let kind =
            field("kind")?.as_str().ok_or_else(|| format!("event {i} kind not a string"))?;
        if !matches!(kind, "log" | "span" | "note") {
            return Err(format!("event {i} has unknown kind {kind}"));
        }
        let name =
            field("name")?.as_str().ok_or_else(|| format!("event {i} name not a string"))?;
        if !matches!(field("fields")?, Json::Object(_)) {
            return Err(format!("event {i} fields is not an object"));
        }
        names.insert(name.to_owned());
    }
    let metrics = root.get("metrics").ok_or("dump has no metrics object")?;
    crate::snapshot::validate_metrics(metrics)?;
    Ok(FlightSummary { reason: reason.to_owned(), events: events.len(), names })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The recorder is process-global; tests that reconfigure it must
    /// not overlap.
    fn test_lock() -> &'static Mutex<()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
    }

    #[test]
    fn recorded_events_round_trip_through_a_dump() {
        let _serial = test_lock().lock().unwrap();
        arm();
        note("test.flight.breadcrumb", &[("answer", "42".to_owned())]);
        crate::counter!("test.flight.counter").inc();
        let dir = std::env::temp_dir().join(format!("waymem-flight-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dump.json");
        let written = dump_to(&path, "unit-test").expect("dump writes");
        assert!(written >= 1);
        let text = std::fs::read_to_string(&path).unwrap();
        let summary = validate_dump(&text).expect("dump validates");
        assert_eq!(summary.reason, "unit-test");
        assert!(summary.has_event("test.flight.breadcrumb"), "{:?}", summary.names);
        // Rings are copied, not drained: a second dump still sees it.
        dump_to(&path, "again").expect("second dump writes");
        let again = validate_dump(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert!(again.has_event("test.flight.breadcrumb"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rings_are_bounded_and_evict_oldest_first() {
        let _serial = test_lock().lock().unwrap();
        arm();
        // Overfill from a dedicated thread so this test owns the ring.
        std::thread::spawn(|| {
            for i in 0..(DEFAULT_CAPACITY + 10) {
                note("test.flight.fill", &[("i", i.to_string())]);
            }
            local_ring(|ring| {
                let events = ring.events.lock().unwrap();
                assert_eq!(events.len(), DEFAULT_CAPACITY);
                let first = events.front().unwrap();
                assert_eq!(first.fields[0].1, "10", "oldest entries evicted first");
            });
        })
        .join()
        .unwrap();
    }

    #[test]
    fn disarmed_recorder_retains_nothing_and_incident_needs_a_path() {
        let _serial = test_lock().lock().unwrap();
        let restore = configured_dump_path();
        set_dump_path(None);
        assert_eq!(dump_on_incident("test.flight.nowhere"), None);
        disarm();
        std::thread::spawn(|| {
            note("test.flight.ignored", &[]);
            local_ring(|ring| assert!(ring.events.lock().unwrap().is_empty()));
        })
        .join()
        .unwrap();
        arm();
        set_dump_path(restore);
    }

    #[test]
    fn validate_dump_rejects_malformed_documents() {
        assert!(validate_dump("{}").unwrap_err().contains("schema"));
        assert!(validate_dump(r#"{"schema":"nope"}"#).unwrap_err().contains("expected"));
        let no_reason = format!(r#"{{"schema":"{SCHEMA}","reason":""}}"#);
        assert!(validate_dump(&no_reason).unwrap_err().contains("reason"));
        let bad_event = format!(
            r#"{{"schema":"{SCHEMA}","reason":"r","pid":1,"events":[{{"ts_ns":1}}],"metrics":{{}}}}"#
        );
        assert!(validate_dump(&bad_event).unwrap_err().contains("tid"));
    }
}
