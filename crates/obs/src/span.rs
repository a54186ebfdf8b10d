//! RAII span tracing with Chrome trace-event export.
//!
//! A span is a named begin/end pair around a scope:
//!
//! ```
//! let _guard = waymem_obs::span!("replay", workload = "dct");
//! // ... the traced work ...
//! ```
//!
//! When the tracer is unarmed (the default), entering a span is a single
//! relaxed atomic load and the guard's drop is a no-op — cheap enough
//! for per-front hot paths. When armed — by `WAYMEM_SPANS=<path>` via
//! [`init_from_env`], or programmatically via [`arm`] — each guard
//! records a begin and an end event (name, nanosecond timestamp, thread
//! id, optional `key=value` args) into a bounded per-thread buffer.
//! [`flush`] drains every thread's buffer into one Chrome trace-event
//! JSON file (`{"traceEvents": [...]}`) that loads directly in Perfetto
//! or `chrome://tracing`.
//!
//! Buffers are bounded at [`MAX_EVENTS_PER_THREAD`] begin/end events per
//! thread; once a thread's buffer is full, further spans on it are
//! dropped whole (begin and end together, so the exported stream stays
//! balanced) and counted in the `spans.dropped` counter.

use std::cell::OnceCell;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::json::Json;

/// Begin/end events a single thread may buffer before its spans start
/// dropping (≈ 512K spans — far beyond any workbench run).
pub const MAX_EVENTS_PER_THREAD: usize = 1 << 20;

/// One recorded begin or end event.
#[derive(Debug)]
struct Event {
    name: &'static str,
    ts_ns: u64,
    begin: bool,
    args: Vec<(&'static str, String)>,
}

/// One thread's bounded event buffer, registered globally so
/// [`flush`] can drain it after the thread is gone.
#[derive(Debug)]
struct ThreadBuf {
    tid: u32,
    events: Mutex<Vec<Event>>,
}

static ARMED: AtomicBool = AtomicBool::new(false);

fn out_path() -> &'static Mutex<Option<PathBuf>> {
    static PATH: OnceLock<Mutex<Option<PathBuf>>> = OnceLock::new();
    PATH.get_or_init(|| Mutex::new(None))
}

fn thread_bufs() -> &'static Mutex<Vec<Arc<ThreadBuf>>> {
    static BUFS: OnceLock<Mutex<Vec<Arc<ThreadBuf>>>> = OnceLock::new();
    BUFS.get_or_init(|| Mutex::new(Vec::new()))
}

/// The instant all span timestamps are measured from.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn local_buf<R>(f: impl FnOnce(&ThreadBuf) -> R) -> R {
    thread_local! {
        static LOCAL: OnceCell<Arc<ThreadBuf>> = const { OnceCell::new() };
    }
    LOCAL.with(|cell| {
        let buf = cell.get_or_init(|| {
            static NEXT_TID: AtomicU32 = AtomicU32::new(1);
            let buf = Arc::new(ThreadBuf {
                tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
                events: Mutex::new(Vec::new()),
            });
            thread_bufs().lock().expect("span registry poisoned").push(Arc::clone(&buf));
            buf
        });
        f(buf)
    })
}

/// `true` when spans are being recorded.
#[must_use]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Arms the tracer and remembers `path` as the default [`flush`]
/// destination.
pub fn arm(path: impl Into<PathBuf>) {
    *out_path().lock().expect("span path poisoned") = Some(path.into());
    epoch();
    ARMED.store(true, Ordering::Relaxed);
}

/// Stops recording. Already-buffered events stay until the next
/// [`flush`].
pub fn disarm() {
    ARMED.store(false, Ordering::Relaxed);
}

/// Arms the tracer when `WAYMEM_SPANS=<path>` is set (read once per
/// process).
pub fn init_from_env() {
    static READ: OnceLock<Option<PathBuf>> = OnceLock::new();
    let path = READ.get_or_init(|| {
        std::env::var_os("WAYMEM_SPANS").filter(|v| !v.is_empty()).map(PathBuf::from)
    });
    if let Some(path) = path {
        arm(path.clone());
    }
}

/// Ends its span when dropped. Obtained from [`enter`] / the
/// [`span!`](crate::span!) macro; holds no resources when the tracer is
/// unarmed.
#[derive(Debug)]
#[must_use = "a span covers the guard's lifetime — bind it to a scope"]
pub struct SpanGuard {
    /// Set only when the begin event actually landed in a buffer; the
    /// matching end event is recorded iff the begin was.
    name: Option<&'static str>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(name) = self.name {
            let ts_ns = now_ns();
            local_buf(|buf| {
                let mut events = buf.events.lock().expect("span buffer poisoned");
                events.push(Event { name, ts_ns, begin: false, args: Vec::new() });
            });
        }
    }
}

/// Nanoseconds since the process-wide tracing epoch — shared with the
/// [`flight`](crate::flight) recorder so both timelines line up.
pub(crate) fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Enters a span named `name`. Prefer the [`span!`](crate::span!)
/// macro, which also takes `key = value` args.
pub fn enter(name: &'static str) -> SpanGuard {
    enter_args(name, Vec::new)
}

/// Enters a span with lazily built `key=value` args — `args` runs only
/// when the tracer is armed.
pub fn enter_args(
    name: &'static str,
    args: impl FnOnce() -> Vec<(&'static str, String)>,
) -> SpanGuard {
    if !armed() {
        return SpanGuard { name: None };
    }
    let ts_ns = now_ns();
    let landed = local_buf(|buf| {
        let mut events = buf.events.lock().expect("span buffer poisoned");
        // Leave room for this span's end event so the stream stays
        // balanced even at the cap.
        if events.len() + 2 > MAX_EVENTS_PER_THREAD {
            return false;
        }
        events.push(Event { name, ts_ns, begin: true, args: args() });
        true
    });
    if !landed {
        crate::counter!("spans.dropped").inc();
        return SpanGuard { name: None };
    }
    crate::flight::record(crate::flight::EventKind::Span, name, &[]);
    SpanGuard { name: Some(name) }
}

/// Records an RAII span over the enclosing scope:
/// `span!("replay")` or `span!("replay", workload = id, fronts = n)`.
/// Arg values are formatted with `Display`, and only when the tracer is
/// armed. Evaluates to a [`SpanGuard`] — bind it (`let _guard = ...`).
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::enter($name)
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        $crate::span::enter_args($name, || {
            vec![$((stringify!($key), $value.to_string())),+]
        })
    };
}

/// Drains every thread's buffered events and writes them to `path` as
/// Chrome trace-event JSON (overwriting any previous file).
/// Returns the number of events written.
///
/// Call it from a point where no spans are open (end of `main`, after
/// worker scopes have joined): an open span's begin event would be
/// flushed without its end.
///
/// # Errors
///
/// Propagates the file write failure; the drained events are lost.
pub fn flush_to(path: &Path) -> io::Result<usize> {
    let pid = std::process::id();
    let mut events = Vec::new();
    let bufs: Vec<Arc<ThreadBuf>> =
        thread_bufs().lock().expect("span registry poisoned").clone();
    for buf in bufs {
        let drained: Vec<Event> =
            std::mem::take(&mut *buf.events.lock().expect("span buffer poisoned"));
        for e in drained {
            let mut fields = vec![
                ("name", Json::from(e.name)),
                ("cat", Json::from("waymem")),
                ("ph", Json::from(if e.begin { "B" } else { "E" })),
                ("pid", Json::from(pid)),
                ("tid", Json::from(buf.tid)),
                ("ts", Json::from(e.ts_ns as f64 / 1e3)),
            ];
            if !e.args.is_empty() {
                let args = e.args.into_iter().map(|(k, v)| (k, Json::from(v))).collect();
                fields.push(("args", Json::object(args)));
            }
            events.push(Json::object(fields));
        }
    }
    let written = events.len();
    let trace = Json::object(vec![
        ("displayTimeUnit", Json::from("ms")),
        ("traceEvents", Json::Array(events)),
    ]);
    std::fs::write(path, trace.to_string())?;
    // Surface the balanced-drop tally: a silent cap hit would make the
    // exported profile look complete when it is not.
    let dropped = crate::counter!("spans.dropped").get();
    crate::gauge!("obs.spans.dropped").set(dropped as f64);
    if dropped > 0 {
        crate::warn!("spans.dropped", count = dropped, cap = MAX_EVENTS_PER_THREAD);
    }
    Ok(written)
}

/// [`flush_to`] the armed `WAYMEM_SPANS` path. Returns `None` when the
/// tracer was never armed with a path, `Some((path, events))` on a
/// successful write.
///
/// # Errors
///
/// Propagates the file write failure.
pub fn flush() -> io::Result<Option<(PathBuf, usize)>> {
    let path = out_path().lock().expect("span path poisoned").clone();
    match path {
        Some(path) => {
            let events = flush_to(&path)?;
            Ok(Some((path, events)))
        }
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tracer is process-global; tests that arm it must not overlap.
    fn test_lock() -> &'static Mutex<()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
    }

    #[test]
    fn unarmed_spans_record_nothing() {
        let _serial = test_lock().lock().unwrap();
        disarm();
        let before: usize = thread_bufs()
            .lock()
            .unwrap()
            .iter()
            .map(|b| b.events.lock().unwrap().len())
            .sum();
        {
            let _g = crate::span!("test.unarmed", detail = 42);
        }
        let after: usize = thread_bufs()
            .lock()
            .unwrap()
            .iter()
            .map(|b| b.events.lock().unwrap().len())
            .sum();
        assert_eq!(before, after);
    }

    #[test]
    fn armed_spans_flush_balanced_chrome_json() {
        let _serial = test_lock().lock().unwrap();
        let dir = std::env::temp_dir().join(format!("waymem-obs-span-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        arm(&path);
        {
            let _outer = crate::span!("test.outer", workload = "dct", pass = 1);
            let _inner = crate::span!("test.inner");
        }
        std::thread::scope(|s| {
            s.spawn(|| {
                let _g = crate::span!("test.worker", quoted = "a \"b\"\\c");
            });
        });
        disarm();
        let (flushed, events) = flush().unwrap().expect("armed with a path");
        assert_eq!(flushed, path);
        assert_eq!(events, 6);
        let text = std::fs::read_to_string(&path).unwrap();
        let summary = crate::chrome::validate_trace(&text).expect("valid trace");
        assert_eq!(summary.events, 6);
        assert!(summary.names.contains("test.outer"));
        assert!(summary.names.contains("test.worker"));
        // A second flush starts empty.
        assert_eq!(flush_to(&path).unwrap(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
