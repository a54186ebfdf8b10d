//! The cross-config trace cache.
//!
//! Multi-config sweeps (`assoc_sweep`, `ablation`, line-size sweeps) run
//! the same workloads under many cache geometries. The trace a workload
//! produces depends only on its [`WorkloadId`] — never on the geometry or
//! scheme being evaluated — so re-producing it per configuration is pure
//! waste. [`TraceStore`] memoizes the production: the first lookup for a
//! key runs the caller's recorder (CPU interpreter, log parser or
//! synthetic generator), and every later lookup (from any thread) shares
//! the same `Arc<RecordedTrace>`.
//!
//! With a cache directory configured, recordings also persist to disk in
//! the [`codec`](mod@crate::codec) wire format, so *separate process
//! invocations* skip the production too: a cold `headline` run records
//! and saves, a warm one loads and reports zero records.
//!
//! ## Staleness
//!
//! Every lookup carries the workload's *source hash* (FNV-1a64 of the
//! kernel assembly source, raw log bytes or generator spec). Cache files
//! embed it in the `.wmtr` v2 header; a file whose hash disagrees with
//! the caller's — the kernel generator changed, the input log was edited
//! in place — is treated as a **stale miss** and re-recorded instead of
//! silently replayed. Passing hash `0` means "unverified": any cached
//! copy is accepted (what bulk [`TraceStore::load`] preloading uses).
//! Legacy v1 files carry no hash, so a caller that *does* verify
//! re-records them once and upgrades the file to v2 in passing.
//!
//! ## Disk hygiene
//!
//! The cache dir would otherwise grow without bound — external traces in
//! particular are keyed by content hash, so every edited log leaves the
//! old file behind. An optional byte cap (see
//! [`TraceStore::with_cache_limit`] and the `WAYMEM_TRACE_CACHE_MAX_BYTES`
//! environment variable via [`TraceStore::cache_cap_from_env`]) evicts
//! oldest-mtime `.wmtr` files after each save, logging each eviction to
//! stderr.
//!
//! ## Crash safety and self-healing
//!
//! The cache dir survives hostile histories. Every file write is atomic
//! (a process-unique temp file, fsync, then rename — see
//! [`StoreIo::write_atomic`]), so a crash mid-save never leaves a torn
//! `.wmtr` behind, only an orphaned `*.tmp` that the next store over the
//! dir sweeps away. A file that is nonetheless unreadable or fails
//! decode — torn by an older writer, bit-flipped by the disk — is moved
//! into [`QUARANTINE_DIR`] and transparently re-recorded; the
//! `quarantined`/`recovered` statistics count those events and
//! `io_retries` counts transient errors absorbed by bounded retry. An
//! advisory `<file>.lock` (with dead-writer takeover) serializes two
//! *processes* racing to record the same [`WorkloadId`], mirroring what
//! the per-key slot mutex does for threads.

use std::collections::HashMap;
use std::fs::{self, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, SystemTime};

use waymem_isa::RecordedTrace;
use waymem_obs::metrics::Stopwatch;

use crate::codec;
use crate::fault::{self, StoreIo};
use crate::stream::{self, StreamError, StreamingTrace};
use crate::workload::WorkloadId;

/// Subdirectory of the cache dir that corrupt or unreadable `.wmtr`
/// files are moved into (instead of being replayed or deleted), keeping
/// the evidence around for a post-mortem while the store re-records.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Suffix of the advisory per-workload lock files that serialize
/// cross-process recording (`<workload file>.lock`, beside the file in
/// the cache dir).
pub const LOCK_SUFFIX: &str = ".lock";

/// A lock file this old whose writer pid cannot be confirmed alive is
/// considered abandoned and taken over.
const LOCK_STALE_AFTER: Duration = Duration::from_secs(30);

/// How long an acquirer waits (20 ms per attempt) on a live holder
/// before proceeding unlocked — the lock is advisory, and atomic writes
/// keep even unserialized racers safe.
const LOCK_WAIT_ATTEMPTS: u32 = 50;

/// An in-flight temp file this old whose writer pid cannot be confirmed
/// alive is swept as an orphan.
const ORPHAN_STALE_AFTER: Duration = Duration::from_secs(60);

/// A snapshot of a store's accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Total [`TraceStore::get_or_record`] calls.
    pub lookups: u64,
    /// Lookups served from memory.
    pub hits: u64,
    /// Lookups served by decoding a cache-dir file (no production).
    pub disk_hits: u64,
    /// [`TraceStore::open_stream`] calls served straight from an
    /// existing file or an in-memory spill — i.e. without running the
    /// producer and, crucially, without materializing the event vector.
    pub stream_opens: u64,
    /// Lookups that had to run the recorder (cold misses).
    pub records: u64,
    /// Cached copies rejected because their source hash disagreed with
    /// the caller's (stale kernel source / edited log / old v1 file).
    pub stale: u64,
    /// In-memory footprint of every trace recorded or loaded, in bytes
    /// (`events × size_of::<TraceEvent>()`).
    pub raw_bytes: u64,
    /// Wire-format footprint of the same traces, in bytes.
    pub encoded_bytes: u64,
    /// Cache files written (best-effort persistence).
    pub files_saved: u64,
    /// Cache files successfully decoded (on-miss loads plus
    /// [`TraceStore::load`]).
    pub files_loaded: u64,
    /// Cache files deleted by the size-cap eviction sweep.
    pub files_evicted: u64,
    /// Total bytes reclaimed by the size-cap eviction sweep.
    pub bytes_evicted: u64,
    /// Corrupt or unreadable cache files moved into
    /// [`QUARANTINE_DIR`] instead of being replayed.
    pub quarantined: u64,
    /// Lookups that re-recorded a workload right after quarantining its
    /// bad cache file — quarantines that healed in the same run.
    pub recovered: u64,
    /// Transient I/O errors (`Interrupted`/`WouldBlock`) absorbed by the
    /// store's bounded retry loop instead of failing an operation.
    pub io_retries: u64,
}

impl StoreStats {
    /// Fraction of lookups that skipped production (memory or disk),
    /// in `[0, 1]`; zero when nothing was looked up.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            (self.hits + self.disk_hits) as f64 / self.lookups as f64
        }
    }

    /// How much smaller the wire format is than the in-memory events:
    /// `raw_bytes / encoded_bytes`. Zero when nothing was encoded.
    #[must_use]
    pub fn compression_ratio(&self) -> f64 {
        if self.encoded_bytes == 0 {
            0.0
        } else {
            self.raw_bytes as f64 / self.encoded_bytes as f64
        }
    }

    /// Mirrors the snapshot into the global metrics registry as
    /// `store.*` gauges, so anything holding the registry — an exporter,
    /// a service endpoint — sees store state without threading
    /// `StoreStats` through its plumbing. [`TraceStore::stats`] calls
    /// this on every snapshot.
    #[allow(clippy::cast_precision_loss)]
    pub fn publish(&self) {
        let set = |name: &str, v: u64| waymem_obs::registry().gauge(name).set(v as f64);
        set("store.lookups", self.lookups);
        set("store.hits", self.hits);
        set("store.disk_hits", self.disk_hits);
        set("store.stream_opens", self.stream_opens);
        set("store.records", self.records);
        set("store.stale", self.stale);
        set("store.raw_bytes", self.raw_bytes);
        set("store.encoded_bytes", self.encoded_bytes);
        set("store.files_saved", self.files_saved);
        set("store.files_loaded", self.files_loaded);
        set("store.files_evicted", self.files_evicted);
        set("store.bytes_evicted", self.bytes_evicted);
        set("store.quarantined", self.quarantined);
        set("store.recovered", self.recovered);
        set("store.io_retries", self.io_retries);
        waymem_obs::registry().gauge("store.hit_rate").set(self.hit_rate());
    }
}

/// The store's live counters. Atomics so the hot accessors take no lock.
#[derive(Debug, Default)]
struct Counters {
    lookups: AtomicU64,
    hits: AtomicU64,
    disk_hits: AtomicU64,
    stream_opens: AtomicU64,
    records: AtomicU64,
    stale: AtomicU64,
    raw_bytes: AtomicU64,
    encoded_bytes: AtomicU64,
    files_saved: AtomicU64,
    files_loaded: AtomicU64,
    files_evicted: AtomicU64,
    bytes_evicted: AtomicU64,
    quarantined: AtomicU64,
    recovered: AtomicU64,
}

impl Counters {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn account_trace(&self, trace: &RecordedTrace, encoded_len: usize) {
        self.raw_bytes.fetch_add(trace.raw_size_bytes(), Ordering::Relaxed);
        self.encoded_bytes.fetch_add(encoded_len as u64, Ordering::Relaxed);
    }

    fn snapshot(&self) -> StoreStats {
        StoreStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            stream_opens: self.stream_opens.load(Ordering::Relaxed),
            records: self.records.load(Ordering::Relaxed),
            stale: self.stale.load(Ordering::Relaxed),
            raw_bytes: self.raw_bytes.load(Ordering::Relaxed),
            encoded_bytes: self.encoded_bytes.load(Ordering::Relaxed),
            files_saved: self.files_saved.load(Ordering::Relaxed),
            files_loaded: self.files_loaded.load(Ordering::Relaxed),
            files_evicted: self.files_evicted.load(Ordering::Relaxed),
            bytes_evicted: self.bytes_evicted.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            recovered: self.recovered.load(Ordering::Relaxed),
            // Lives on the I/O seam, not here; `TraceStore::stats` fills it.
            io_retries: 0,
        }
    }
}

/// What one key's slot holds once filled: the trace plus the source hash
/// it was produced from (0 = unverified), so in-memory hits can apply the
/// same staleness rule as disk loads.
type Cached = (u64, Arc<RecordedTrace>);

/// What the cache dir had to say about one key.
enum DiskLoad {
    /// A current file decoded successfully.
    Hit(Cached),
    /// A decodable file exists but its source hash is outdated.
    Stale,
    /// No usable file: none at all (`quarantined == false`), or a
    /// corrupt/unreadable one the store just moved aside
    /// (`quarantined == true` — the caller counts a `recovered` event
    /// once the re-record succeeds).
    Absent {
        /// Whether this miss quarantined a bad file on the way.
        quarantined: bool,
    },
}

/// One key's slot. The per-key mutex serializes *production* of that key
/// only: two threads racing on the same workload produce it once (the
/// loser blocks, then hits), while different keys record concurrently —
/// exactly what `Suite`'s benchmark fan-out needs.
type Slot = Arc<Mutex<Option<Cached>>>;

/// A thread-safe, keyed cache of recorded traces with optional on-disk
/// persistence, staleness detection and a disk-size cap. See the
/// [module docs](self) for the role it plays.
#[derive(Debug, Default)]
pub struct TraceStore {
    slots: Mutex<HashMap<WorkloadId, Slot>>,
    cache_dir: Option<PathBuf>,
    max_cache_bytes: Option<u64>,
    counters: Counters,
    io: StoreIo,
    swept: AtomicBool,
}

impl TraceStore {
    /// An empty, memory-only store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A store that persists under `dir`: cold recordings are saved
    /// there (best-effort) and misses try to decode a saved file before
    /// falling back to the recorder. The directory is created on first
    /// save. No size cap; chain [`with_cache_limit`](Self::with_cache_limit)
    /// to add one.
    #[must_use]
    pub fn with_cache_dir(dir: impl Into<PathBuf>) -> Self {
        TraceStore {
            cache_dir: Some(dir.into()),
            ..Self::default()
        }
    }

    /// Caps the cache dir at `max_bytes` (None = unbounded): after each
    /// save, oldest-mtime `.wmtr` files are evicted until the directory
    /// fits, each eviction logged to stderr. The cap is best-effort
    /// advisory hygiene — it never fails a lookup.
    #[must_use]
    pub fn with_cache_limit(mut self, max_bytes: Option<u64>) -> Self {
        self.max_cache_bytes = max_bytes;
        self
    }

    /// Reads the `WAYMEM_TRACE_CACHE_MAX_BYTES` environment variable for
    /// binaries wiring up a capped store
    /// (`store.with_cache_limit(TraceStore::cache_cap_from_env())`).
    /// Unset, empty or unparsable values mean "no cap". Library code and
    /// tests should pass the cap explicitly instead — this reads global
    /// process state.
    #[must_use]
    pub fn cache_cap_from_env() -> Option<u64> {
        std::env::var("WAYMEM_TRACE_CACHE_MAX_BYTES")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
    }

    /// The store a process wires up from its environment:
    /// `WAYMEM_TRACE_CACHE=<dir>` enables persistence under `dir`,
    /// `WAYMEM_TRACE_CACHE_MAX_BYTES=<n>` caps that directory with
    /// oldest-mtime eviction. Unset variables mean a memory-only store /
    /// no cap. Library code and tests should configure the store
    /// explicitly instead — this reads global process state.
    #[must_use]
    pub fn from_env() -> Self {
        let store = match std::env::var_os("WAYMEM_TRACE_CACHE") {
            Some(dir) => TraceStore::with_cache_dir(PathBuf::from(dir))
                .with_cache_limit(Self::cache_cap_from_env()),
            None => TraceStore::new(),
        };
        store.with_io(StoreIo::from_env())
    }

    /// Replaces the store's I/O seam: chaos tests attach a fault plan
    /// (`store.with_io(StoreIo::with_plan(plan))`), production code
    /// keeps the default passthrough, and [`from_env`](Self::from_env)
    /// arms it from `WAYMEM_FAULT_PLAN` automatically.
    #[must_use]
    pub fn with_io(mut self, io: StoreIo) -> Self {
        self.io = io;
        self
    }

    /// The store's I/O seam — shared (faults, retry counter and all) by
    /// every streaming handle the store opens.
    #[must_use]
    pub fn io(&self) -> &StoreIo {
        &self.io
    }

    /// The persistence directory, if one was configured.
    #[must_use]
    pub fn cache_dir(&self) -> Option<&Path> {
        self.cache_dir.as_deref()
    }

    /// The configured cache-dir byte cap, if any.
    #[must_use]
    pub fn cache_limit(&self) -> Option<u64> {
        self.max_cache_bytes
    }

    /// Number of traces currently held in memory.
    ///
    /// # Panics
    ///
    /// Panics if a previous holder of the internal lock panicked.
    #[must_use]
    pub fn len(&self) -> usize {
        let slots = self.slots.lock().expect("trace store poisoned");
        slots
            .values()
            .filter(|s| s.lock().expect("trace slot poisoned").is_some())
            .count()
    }

    /// `true` when no trace is held in memory.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the store's statistics.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        let mut stats = self.counters.snapshot();
        stats.io_retries = self.io.retries();
        stats.publish();
        stats
    }

    fn slot(&self, key: WorkloadId) -> Slot {
        let mut slots = self.slots.lock().expect("trace store poisoned");
        slots.entry(key).or_default().clone()
    }

    fn file_path(&self, key: WorkloadId) -> Option<PathBuf> {
        self.cache_dir.as_ref().map(|d| d.join(key.file_name()))
    }

    /// Whether a cached copy produced from `found` satisfies a caller
    /// expecting `expected`. Hash 0 on the caller side means "don't
    /// verify"; hash 0 on the cached side means "provenance unknown"
    /// (v1 file / unverified save), which only an unverifying caller
    /// accepts.
    fn hash_current(expected: u64, found: u64) -> bool {
        expected == 0 || found == expected
    }

    /// Tries to serve `key` from the cache dir. A missing file is a
    /// plain miss; an unreadable or undecodable one is quarantined (a
    /// corrupt cache file must never break a run, and must not shadow
    /// the re-record either); a decodable file whose source hash
    /// disagrees with `expected_hash` is a [`DiskLoad::Stale`] miss
    /// (left in place — the re-record overwrites it). Staleness is
    /// *reported*, not counted here: the caller folds it into the
    /// per-lookup accounting (a lookup that rejects both a stale preload
    /// and its stale backing file is one stale event, not two).
    fn load_from_disk(&self, key: WorkloadId, expected_hash: u64) -> DiskLoad {
        self.sweep_orphans();
        let Some(path) = self.file_path(key) else {
            return DiskLoad::Absent { quarantined: false };
        };
        let bytes = match self.io.read_to_vec(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return DiskLoad::Absent { quarantined: false };
            }
            Err(_) => {
                self.quarantine(&path);
                return DiskLoad::Absent { quarantined: true };
            }
        };
        let decoder = match codec::Decoder::new(&bytes) {
            Ok(decoder) => decoder,
            Err(_) => {
                self.quarantine(&path);
                return DiskLoad::Absent { quarantined: true };
            }
        };
        if !Self::hash_current(expected_hash, decoder.source_hash()) {
            return DiskLoad::Stale;
        }
        let Ok(trace) = decoder.decode() else {
            self.quarantine(&path);
            return DiskLoad::Absent { quarantined: true };
        };
        Counters::bump(&self.counters.files_loaded);
        self.counters.account_trace(&trace, bytes.len());
        DiskLoad::Hit((decoder.source_hash(), Arc::new(trace)))
    }

    /// Best-effort persistence: encoding feeds the compression stats
    /// even when the write itself fails or no dir is configured. The
    /// write is atomic (temp + fsync + rename), so racers and crashes
    /// never observe a torn file. A successful write triggers the
    /// size-cap sweep.
    fn save_to_disk(&self, key: WorkloadId, source_hash: u64, trace: &RecordedTrace) {
        let bytes = codec::encode_with_hash(trace, source_hash);
        self.counters.account_trace(trace, bytes.len());
        let Some(path) = self.file_path(key) else { return };
        let Some(dir) = self.cache_dir.as_ref() else { return };
        self.sweep_orphans();
        if fs::create_dir_all(dir).is_ok() && self.io.write_atomic(&path, &bytes).is_ok() {
            Counters::bump(&self.counters.files_saved);
            self.enforce_cache_cap(&path);
        }
    }

    /// Moves a bad cache file into [`QUARANTINE_DIR`] (falling back to
    /// deletion if the move itself fails) so it stops shadowing the
    /// re-record, and counts the event.
    fn quarantine(&self, path: &Path) {
        let moved = path.parent().and_then(|dir| {
            let qdir = dir.join(QUARANTINE_DIR);
            fs::create_dir_all(&qdir).ok()?;
            fs::rename(path, qdir.join(path.file_name()?)).ok()
        });
        if moved.is_none() {
            let _ = fs::remove_file(path);
        }
        Counters::bump(&self.counters.quarantined);
        waymem_obs::warn!("store.quarantine", path = path.display());
        // A quarantine is an incident: leave the black box next to the
        // bare warn line (no-op unless a dump path is configured).
        waymem_obs::flight::dump_on_incident("store.quarantine");
    }

    /// One hygiene pass per store over the cache dir: in-flight `*.tmp`
    /// files whose writer died (crashed mid-save) are removed so they
    /// never accumulate. Temps belonging to live writers — this process
    /// included — are left alone; when liveness cannot be decided (no
    /// `/proc`), only temps older than [`ORPHAN_STALE_AFTER`] go.
    fn sweep_orphans(&self) {
        if self.swept.swap(true, Ordering::Relaxed) {
            return;
        }
        let Some(dir) = self.cache_dir.as_ref() else { return };
        let Ok(entries) = fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
            if !name.ends_with(fault::TEMP_SUFFIX) {
                continue;
            }
            let orphaned = match fault::temp_owner_pid(name) {
                Some(pid) => process_is_dead(pid).unwrap_or_else(|| entry_is_old(&entry)),
                None => entry_is_old(&entry),
            };
            if orphaned && fs::remove_file(&path).is_ok() {
                waymem_obs::info!("store.orphan_swept", path = path.display());
            }
        }
    }

    /// Acquires the advisory cross-process record lock for `path`
    /// (creating the cache dir if needed). Waits out a live holder for a
    /// bounded time, takes over a dead or stale one, and returns `None`
    /// — proceed unlocked — rather than ever deadlocking: the lock only
    /// prevents duplicated recording work, atomic writes already keep
    /// unserialized racers correct.
    fn lock_record(&self, path: &Path) -> Option<RecordLock> {
        let dir = self.cache_dir.as_ref()?;
        fs::create_dir_all(dir).ok()?;
        let lock = lock_path(path);
        let _wait = Stopwatch::new(waymem_obs::histogram!("store.lock.wait_ns"));
        for _ in 0..LOCK_WAIT_ATTEMPTS {
            match OpenOptions::new().write(true).create_new(true).open(&lock) {
                Ok(mut file) => {
                    let _ = write!(file, "{}", std::process::id());
                    return Some(RecordLock { path: lock });
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    if lock_is_stale(&lock) {
                        let _ = fs::remove_file(&lock);
                    } else {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                }
                Err(_) => return None,
            }
        }
        None
    }

    /// Evicts oldest-mtime `.wmtr` files until the cache dir fits the
    /// configured cap, sparing `just_written` (evicting the file we just
    /// paid to encode would make the cap counter-productive). Every
    /// eviction is logged as a `store.evicted` info event
    /// (`WAYMEM_LOG=info` to see them). Best-effort throughout: racing
    /// processes or I/O errors degrade to "evict less", never to a
    /// failed lookup.
    fn enforce_cache_cap(&self, just_written: &Path) {
        let Some(cap) = self.max_cache_bytes else { return };
        let Some(dir) = self.cache_dir.as_ref() else { return };
        let Ok(entries) = fs::read_dir(dir) else { return };
        let mut files: Vec<(SystemTime, u64, PathBuf)> = entries
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "wmtr"))
            .filter_map(|e| {
                let meta = e.metadata().ok()?;
                let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                Some((mtime, meta.len(), e.path()))
            })
            .collect();
        let mut total: u64 = files.iter().map(|(_, len, _)| *len).sum();
        if total <= cap {
            return;
        }
        files.sort();
        for (_, len, path) in files {
            if total <= cap {
                break;
            }
            if path == just_written {
                continue;
            }
            if lock_path(&path).exists() {
                // A live writer holds this key: deleting beneath it
                // risks churning the file it just paid to record.
                continue;
            }
            match fs::remove_file(&path) {
                Ok(()) => {
                    total = total.saturating_sub(len);
                    Counters::bump(&self.counters.files_evicted);
                    self.counters.bytes_evicted.fetch_add(len, Ordering::Relaxed);
                    waymem_obs::info!(
                        "store.evicted",
                        path = path.display(),
                        bytes = len,
                        cap = cap,
                    );
                }
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    // A racing process (eviction or quarantine) already
                    // removed it: the bytes are reclaimed either way.
                    total = total.saturating_sub(len);
                }
                Err(_) => {}
            }
        }
    }

    /// Returns the trace for `key`, running `record` only on a cold or
    /// stale miss (once per key per process, even under concurrent
    /// callers; racing threads on the same key block and then hit).
    /// With a cache dir, a miss first tries the saved file.
    ///
    /// `source_hash` is the FNV-1a64 of whatever produces the trace
    /// (kernel source text, raw log bytes, generator spec). Cached
    /// copies — on disk *or* preloaded in memory — whose hash disagrees
    /// are re-recorded, not replayed; pass `0` to skip verification.
    ///
    /// # Errors
    ///
    /// Propagates the recorder's error; nothing is cached for the key in
    /// that case, so a later call retries.
    ///
    /// # Panics
    ///
    /// Panics if a previous holder of the key's lock panicked.
    pub fn get_or_record<E>(
        &self,
        key: WorkloadId,
        source_hash: u64,
        record: impl FnOnce() -> Result<RecordedTrace, E>,
    ) -> Result<Arc<RecordedTrace>, E> {
        let _span = waymem_obs::span!("store.lookup", workload = key.name());
        let slot = self.slot(key);
        let mut guard = slot.lock().expect("trace slot poisoned");
        Counters::bump(&self.counters.lookups);
        let mut was_stale = false;
        if let Some((cached_hash, trace)) = guard.as_ref() {
            if Self::hash_current(source_hash, *cached_hash) {
                Counters::bump(&self.counters.hits);
                return Ok(Arc::clone(trace));
            }
            // A stale preload (bulk `load()` pulled in an outdated file).
            was_stale = true;
            *guard = None;
        }
        let mut needs_recovery = false;
        match self.load_from_disk(key, source_hash) {
            DiskLoad::Hit((hash, trace)) => {
                Counters::bump(&self.counters.disk_hits);
                *guard = Some((hash, Arc::clone(&trace)));
                return Ok(trace);
            }
            DiskLoad::Stale => was_stale = true,
            DiskLoad::Absent { quarantined } => needs_recovery = quarantined,
        }
        if was_stale {
            // One stale event per lookup, even when both the preloaded
            // copy and its backing file were rejected.
            Counters::bump(&self.counters.stale);
        }
        // Serialize cross-process recording of this key; a racer that
        // waited here usually finds the winner's file on the re-check
        // and skips its own production entirely.
        let lock = self.file_path(key).and_then(|path| self.lock_record(&path));
        if lock.is_some() {
            if let DiskLoad::Hit((hash, trace)) = self.load_from_disk(key, source_hash) {
                Counters::bump(&self.counters.disk_hits);
                *guard = Some((hash, Arc::clone(&trace)));
                return Ok(trace);
            }
        }
        let trace = record()?;
        Counters::bump(&self.counters.records);
        if needs_recovery {
            Counters::bump(&self.counters.recovered);
        }
        let trace = Arc::new(trace);
        *guard = Some((source_hash, Arc::clone(&trace)));
        // Account + persist outside the per-key lock: waiters queued on
        // this key proceed with the Arc immediately; the encode pass
        // only feeds the compression stats and the best-effort cache
        // file, so nothing downstream observes it. The record lock stays
        // held across the save (it drops at the end of this scope).
        drop(guard);
        self.save_to_disk(key, source_hash, &trace);
        Ok(trace)
    }

    /// A unique scratch path for a store-less streaming open; the
    /// returned [`StreamingTrace`] deletes it on drop.
    fn scratch_stream_path(key: WorkloadId) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "waymem-scratch-{}-{n}-{}",
            std::process::id(),
            key.file_name()
        ))
    }

    /// Returns a bounded-memory [`StreamingTrace`] handle for `key`,
    /// running `produce` (which must write a complete `.wmtr` file to
    /// the path it is given — e.g. through a
    /// [`StreamingEncoder`](crate::stream::StreamingEncoder)) only when
    /// no current copy exists.
    ///
    /// This is the streaming counterpart of
    /// [`get_or_record`](Self::get_or_record), with one crucial
    /// difference: a warm open **never re-materializes the event
    /// vector**. With a cache dir, an existing file whose source hash is
    /// current is validated and handed back directly (a `disk_hits` +
    /// `stream_opens` event, `records` and `raw_bytes` untouched); if the
    /// key's trace happens to sit in this process's memory already, it is
    /// spilled to disk once and streamed from there (`hits` +
    /// `stream_opens`). Without a cache dir the file lives under the
    /// system temp dir and deletes itself when the handle drops.
    ///
    /// Staleness follows the same rule as `get_or_record`: a file whose
    /// embedded hash disagrees with a nonzero `source_hash` is
    /// re-produced, not replayed.
    ///
    /// # Errors
    ///
    /// Propagates the producer's error; [`StreamError`]s from writing or
    /// validating the file are converted via `E: From<StreamError>`.
    ///
    /// # Panics
    ///
    /// Panics if a previous holder of the key's lock panicked.
    pub fn open_stream<E: From<StreamError>>(
        &self,
        key: WorkloadId,
        source_hash: u64,
        produce: impl FnOnce(&Path) -> Result<(), E>,
    ) -> Result<StreamingTrace, E> {
        let _span = waymem_obs::span!("store.open_stream", workload = key.name());
        let slot = self.slot(key);
        let guard = slot.lock().expect("trace slot poisoned");
        Counters::bump(&self.counters.lookups);
        let mut was_stale = false;
        let mut needs_recovery = false;

        let cached = guard
            .as_ref()
            .filter(|(h, _)| Self::hash_current(source_hash, *h))
            .map(|(h, t)| (*h, Arc::clone(t)));

        if let Some(path) = self.file_path(key) {
            self.sweep_orphans();
            // Warm file: validate and stream straight from it. A corrupt
            // or unreadable file is quarantined (same policy as
            // `load_from_disk`); a hash mismatch is a stale miss.
            if path.exists() {
                match StreamingTrace::open_with(&path, self.io.clone()) {
                    Ok(st) if Self::hash_current(source_hash, st.source_hash()) => {
                        Counters::bump(&self.counters.disk_hits);
                        Counters::bump(&self.counters.stream_opens);
                        return Ok(st);
                    }
                    Ok(_) => was_stale = true,
                    Err(StreamError::Io(e)) if e.kind() == io::ErrorKind::NotFound => {}
                    Err(_) => {
                        self.quarantine(&path);
                        needs_recovery = true;
                    }
                }
            }
            if let Some((hash, trace)) = cached {
                // The events are in memory anyway: spill them once and
                // stream from the file — still no production.
                stream::write_encoded_with(&trace, hash, &path, &self.io)
                    .map_err(|e| E::from(StreamError::Io(e)))?;
                Counters::bump(&self.counters.hits);
                Counters::bump(&self.counters.stream_opens);
                Counters::bump(&self.counters.files_saved);
                if needs_recovery {
                    Counters::bump(&self.counters.recovered);
                }
                drop(guard);
                self.enforce_cache_cap(&path);
                return StreamingTrace::open_with(&path, self.io.clone()).map_err(E::from);
            }
            if was_stale {
                Counters::bump(&self.counters.stale);
            }
            // Serialize cross-process production; a racer that waited
            // here usually finds the winner's file on the re-check.
            let lock = self.lock_record(&path);
            if lock.is_some() {
                if let Ok(st) = StreamingTrace::open_with(&path, self.io.clone()) {
                    if Self::hash_current(source_hash, st.source_hash()) {
                        Counters::bump(&self.counters.disk_hits);
                        Counters::bump(&self.counters.stream_opens);
                        return Ok(st);
                    }
                }
            }
            produce(&path)?;
            Counters::bump(&self.counters.records);
            Counters::bump(&self.counters.files_saved);
            if needs_recovery {
                Counters::bump(&self.counters.recovered);
            }
            drop(guard);
            self.enforce_cache_cap(&path);
            return match StreamingTrace::open_with(&path, self.io.clone()) {
                Ok(st) => Ok(st),
                Err(e) => {
                    // The freshly produced file failed validation (torn
                    // or fault-corrupted write): move it aside so the
                    // next lookup re-produces instead of replaying it.
                    self.quarantine(&path);
                    Err(E::from(e))
                }
            };
        }

        // Memory-only store: the file is scratch, cleaned up on drop.
        let path = Self::scratch_stream_path(key);
        if let Some((hash, trace)) = cached {
            stream::write_encoded_with(&trace, hash, &path, &self.io)
                .map_err(|e| E::from(StreamError::Io(e)))?;
            Counters::bump(&self.counters.hits);
            Counters::bump(&self.counters.stream_opens);
        } else {
            produce(&path)?;
            Counters::bump(&self.counters.records);
        }
        Ok(StreamingTrace::open_with(&path, self.io.clone()).map_err(E::from)?.delete_on_drop())
    }

    /// The trace for `key` if it is already in memory. Does not consult
    /// the disk cache, does not verify staleness and does not touch the
    /// lookup statistics.
    ///
    /// # Panics
    ///
    /// Panics if a previous holder of the key's lock panicked.
    #[must_use]
    pub fn get(&self, key: WorkloadId) -> Option<Arc<RecordedTrace>> {
        let slot = self.slot(key);
        let guard = slot.lock().expect("trace slot poisoned");
        guard.as_ref().map(|(_, t)| Arc::clone(t))
    }

    /// Writes every in-memory trace to the cache dir, returning how many
    /// files were written. Unlike the automatic on-record persistence
    /// this surfaces I/O errors, so callers invoking it deliberately
    /// (e.g. a `--save-cache` flag) see failures.
    ///
    /// # Errors
    ///
    /// `InvalidInput` if the store has no cache dir; otherwise the first
    /// I/O error encountered.
    ///
    /// # Panics
    ///
    /// Panics if a previous holder of an internal lock panicked.
    pub fn save(&self) -> io::Result<usize> {
        let dir = self.cache_dir.as_ref().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "trace store has no cache dir")
        })?;
        fs::create_dir_all(dir)?;
        self.sweep_orphans();
        let entries: Vec<(WorkloadId, Cached)> = {
            let slots = self.slots.lock().expect("trace store poisoned");
            slots
                .iter()
                .filter_map(|(k, s)| {
                    s.lock()
                        .expect("trace slot poisoned")
                        .as_ref()
                        .map(|(h, t)| (*k, (*h, Arc::clone(t))))
                })
                .collect()
        };
        let mut written = 0;
        let mut last_path = None;
        for (key, (hash, trace)) in entries {
            let path = dir.join(key.file_name());
            self.io.write_atomic(&path, &codec::encode_with_hash(&trace, hash))?;
            written += 1;
            Counters::bump(&self.counters.files_saved);
            last_path = Some(path);
        }
        if let Some(path) = last_path {
            self.enforce_cache_cap(&path);
        }
        Ok(written)
    }

    /// Preloads every decodable `*.wmtr` file from the cache dir into
    /// memory, returning how many loaded. Files that fail to decode are
    /// skipped (corrupt caches must not break anything); keys already in
    /// memory are left untouched. Preloads are *unverified* — a later
    /// [`get_or_record`](Self::get_or_record) with a real source hash
    /// still applies the staleness check before replaying one.
    ///
    /// # Errors
    ///
    /// `InvalidInput` if the store has no cache dir; `NotFound`/other
    /// I/O errors from reading the directory itself.
    ///
    /// # Panics
    ///
    /// Panics if a previous holder of an internal lock panicked.
    pub fn load(&self) -> io::Result<usize> {
        let dir = self.cache_dir.clone().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "trace store has no cache dir")
        })?;
        let mut loaded = 0;
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(key) = name.to_str().and_then(WorkloadId::from_file_name) else {
                continue;
            };
            let slot = self.slot(key);
            let mut guard = slot.lock().expect("trace slot poisoned");
            if guard.is_some() {
                continue;
            }
            if let DiskLoad::Hit(cached) = self.load_from_disk(key, 0) {
                *guard = Some(cached);
                loaded += 1;
            }
        }
        Ok(loaded)
    }
}

/// The advisory lock file guarding cross-process recording of `path`.
fn lock_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(LOCK_SUFFIX);
    PathBuf::from(os)
}

/// `Some(dead?)` when pid liveness is decidable (trivially for our own
/// pid, via `/proc` elsewhere on Linux), `None` when it is not and the
/// caller should fall back to an age heuristic.
fn process_is_dead(pid: u32) -> Option<bool> {
    if pid == std::process::id() {
        return Some(false);
    }
    let proc_dir = Path::new("/proc");
    if proc_dir.is_dir() {
        Some(!proc_dir.join(pid.to_string()).exists())
    } else {
        None
    }
}

/// Whether a directory entry's mtime is older than the orphan threshold
/// (unknowable mtimes count as fresh — never reap what we cannot date).
fn entry_is_old(entry: &fs::DirEntry) -> bool {
    entry
        .metadata()
        .and_then(|m| m.modified())
        .ok()
        .and_then(|m| m.elapsed().ok())
        .is_some_and(|age| age > ORPHAN_STALE_AFTER)
}

/// Whether an existing lock file is abandoned: its recorded writer pid
/// is provably dead, or liveness is undecidable and the file has
/// outlived [`LOCK_STALE_AFTER`].
fn lock_is_stale(lock: &Path) -> bool {
    let pid = fs::read_to_string(lock).ok().and_then(|s| s.trim().parse::<u32>().ok());
    match pid.and_then(process_is_dead) {
        Some(dead) => dead,
        None => fs::metadata(lock)
            .and_then(|m| m.modified())
            .ok()
            .and_then(|m| m.elapsed().ok())
            .is_some_and(|age| age > LOCK_STALE_AFTER),
    }
}

/// RAII guard for the advisory record lock: dropping it releases (i.e.
/// removes) the lock file.
#[derive(Debug)]
struct RecordLock {
    path: PathBuf,
}

impl Drop for RecordLock {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{SynthPattern, SynthSpec};
    use waymem_isa::{FetchKind, TraceEvent};
    use waymem_workloads::Benchmark;

    fn tiny_trace(cycles: u64) -> RecordedTrace {
        RecordedTrace {
            fetch_events: vec![TraceEvent::Fetch { pc: 0x100, kind: FetchKind::Sequential }],
            data_events: vec![TraceEvent::Load { base: 8, disp: 4, addr: 12, size: 4 }],
            cycles,
        }
    }

    fn dct(scale: u32) -> WorkloadId {
        WorkloadId::kernel(Benchmark::Dct, scale)
    }

    /// A scratch directory under the system temp dir, removed on drop.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir().join(format!(
                "waymem-trace-test-{tag}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn records_once_then_hits() {
        let store = TraceStore::new();
        let mut recordings = 0;
        for _ in 0..3 {
            let t = store
                .get_or_record(dct(1), 0, || {
                    recordings += 1;
                    Ok::<_, ()>(tiny_trace(7))
                })
                .expect("records");
            assert_eq!(t.cycles, 7);
        }
        assert_eq!(recordings, 1);
        let s = store.stats();
        assert_eq!((s.lookups, s.records, s.hits, s.disk_hits), (3, 1, 2, 0));
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn distinct_keys_record_separately() {
        let store = TraceStore::new();
        let t1 = store
            .get_or_record(dct(1), 0, || Ok::<_, ()>(tiny_trace(1)))
            .expect("records");
        let t2 = store
            .get_or_record(dct(2), 0, || Ok::<_, ()>(tiny_trace(2)))
            .expect("records");
        let t3 = store
            .get_or_record(WorkloadId::External { hash: 9 }, 9, || Ok::<_, ()>(tiny_trace(3)))
            .expect("records");
        let spec = SynthSpec { pattern: SynthPattern::Stream, accesses: 4, seed: 1 };
        let t4 = store
            .get_or_record(WorkloadId::Synthetic(spec), 0, || Ok::<_, ()>(tiny_trace(4)))
            .expect("records");
        assert_eq!((t1.cycles, t2.cycles, t3.cycles, t4.cycles), (1, 2, 3, 4));
        assert_eq!(store.stats().records, 4);
        assert_eq!(store.len(), 4);
    }

    #[test]
    fn recorder_errors_are_not_cached() {
        let store = TraceStore::new();
        let err = store.get_or_record(dct(1), 0, || Err::<RecordedTrace, _>("boom"));
        assert_eq!(err.unwrap_err(), "boom");
        let ok = store
            .get_or_record(dct(1), 0, || Ok::<_, &str>(tiny_trace(9)))
            .expect("retries");
        assert_eq!(ok.cycles, 9);
        assert_eq!(store.stats().records, 1);
    }

    #[test]
    fn concurrent_same_key_records_once() {
        let store = TraceStore::new();
        let recordings = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let t = store
                        .get_or_record(WorkloadId::kernel(Benchmark::Fft, 1), 0, || {
                            recordings.fetch_add(1, Ordering::SeqCst);
                            Ok::<_, ()>(tiny_trace(42))
                        })
                        .expect("records");
                    assert_eq!(t.cycles, 42);
                });
            }
        });
        assert_eq!(recordings.load(Ordering::SeqCst), 1);
        let s = store.stats();
        assert_eq!((s.lookups, s.records, s.hits), (8, 1, 7));
    }

    #[test]
    fn persistence_round_trips_across_stores() {
        let tmp = TempDir::new("persist");
        let cold = TraceStore::with_cache_dir(&tmp.0);
        cold.get_or_record(dct(1), 0xfeed, || Ok::<_, ()>(tiny_trace(11)))
            .expect("records");
        assert_eq!(cold.stats().files_saved, 1);

        // A fresh store over the same dir: the lookup is a disk hit when
        // the expected hash matches what the file embeds.
        let warm = TraceStore::with_cache_dir(&tmp.0);
        let t = warm
            .get_or_record(dct(1), 0xfeed, || {
                panic!("must not re-record");
                #[allow(unreachable_code)]
                Ok::<_, ()>(tiny_trace(0))
            })
            .expect("loads");
        assert_eq!(t.cycles, 11);
        let s = warm.stats();
        assert_eq!((s.records, s.disk_hits, s.files_loaded, s.stale), (0, 1, 1, 0));
        assert!((s.hit_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stale_disk_files_are_re_recorded() {
        let tmp = TempDir::new("stale");
        let old = TraceStore::with_cache_dir(&tmp.0);
        old.get_or_record(dct(1), 0xaaaa, || Ok::<_, ()>(tiny_trace(1)))
            .expect("records");

        // Same key, changed source (different hash): the cached file is
        // stale — re-record rather than silently replay.
        let fresh = TraceStore::with_cache_dir(&tmp.0);
        let t = fresh
            .get_or_record(dct(1), 0xbbbb, || Ok::<_, ()>(tiny_trace(2)))
            .expect("re-records");
        assert_eq!(t.cycles, 2, "stale trace must not be replayed");
        let s = fresh.stats();
        assert_eq!((s.records, s.disk_hits, s.stale), (1, 0, 1));

        // The re-record overwrote the file: the new hash now disk-hits.
        let third = TraceStore::with_cache_dir(&tmp.0);
        let t = third
            .get_or_record(dct(1), 0xbbbb, || Ok::<_, &str>(tiny_trace(3)))
            .expect("loads");
        assert_eq!(t.cycles, 2);
        assert_eq!(third.stats().disk_hits, 1);
    }

    #[test]
    fn zero_expected_hash_accepts_any_file() {
        let tmp = TempDir::new("zerohash");
        let writer = TraceStore::with_cache_dir(&tmp.0);
        writer
            .get_or_record(dct(1), 0x1234, || Ok::<_, ()>(tiny_trace(5)))
            .expect("records");
        let reader = TraceStore::with_cache_dir(&tmp.0);
        let t = reader
            .get_or_record(dct(1), 0, || Err::<RecordedTrace, _>("must not record"))
            .expect("loads unverified");
        assert_eq!(t.cycles, 5);
    }

    #[test]
    fn stale_preloads_are_re_recorded() {
        let tmp = TempDir::new("stalepre");
        let writer = TraceStore::with_cache_dir(&tmp.0);
        writer
            .get_or_record(dct(1), 0xaaaa, || Ok::<_, ()>(tiny_trace(1)))
            .expect("records");

        let preloaded = TraceStore::with_cache_dir(&tmp.0);
        assert_eq!(preloaded.load().expect("preloads"), 1);
        // The preload is unverified; a verifying lookup with a different
        // hash must reject it even though it sits in memory.
        let t = preloaded
            .get_or_record(dct(1), 0xcccc, || Ok::<_, ()>(tiny_trace(9)))
            .expect("re-records");
        assert_eq!(t.cycles, 9);
        let s = preloaded.stats();
        // Exactly one stale event for the lookup, even though both the
        // preloaded copy and its backing file were rejected.
        assert_eq!(s.stale, 1, "{s:?}");
        assert_eq!(s.records, 1);
    }

    #[test]
    fn explicit_save_and_load() {
        let tmp = TempDir::new("explicit");
        let store = TraceStore::new();
        assert!(store.save().is_err(), "no cache dir configured");

        let saver = TraceStore::with_cache_dir(&tmp.0);
        saver
            .get_or_record(WorkloadId::kernel(Benchmark::Compress, 3), 0, || {
                Ok::<_, ()>(tiny_trace(5))
            })
            .expect("records");
        assert_eq!(saver.save().expect("saves"), 1);

        let loader = TraceStore::with_cache_dir(&tmp.0);
        assert_eq!(loader.load().expect("loads"), 1);
        assert_eq!(
            loader.get(WorkloadId::kernel(Benchmark::Compress, 3)).expect("in memory").cycles,
            5
        );
        // A corrupt extra file is skipped, not fatal.
        std::fs::write(tmp.0.join("dct-s1.wmtr"), b"garbage").expect("writes");
        let skipper = TraceStore::with_cache_dir(&tmp.0);
        assert_eq!(skipper.load().expect("loads"), 1);
        assert!(skipper.get(dct(1)).is_none());
    }

    #[test]
    fn cache_cap_evicts_oldest_first() {
        let tmp = TempDir::new("cap");
        // Files are ~60-80 B each; cap at ~1.5 files so the third save
        // must evict the oldest.
        let one_file = codec::encode_with_hash(&tiny_trace(0), 1).len() as u64;
        let store = TraceStore::with_cache_dir(&tmp.0).with_cache_limit(Some(one_file + one_file / 2));
        let keys = [dct(1), dct(2), dct(3)];
        for (i, key) in keys.iter().enumerate() {
            store
                .get_or_record(*key, 0, || Ok::<_, ()>(tiny_trace(i as u64)))
                .expect("records");
            // Distinct mtimes even on coarse-grained filesystems.
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        let on_disk: Vec<bool> = keys
            .iter()
            .map(|k| tmp.0.join(k.file_name()).exists())
            .collect();
        assert!(!on_disk[0], "oldest file must be evicted");
        assert!(on_disk[2], "just-written file must survive");
        let s = store.stats();
        assert!(s.files_evicted >= 1, "{s:?}");
        assert!(s.bytes_evicted >= one_file, "{s:?}");
        // Eviction only touches the disk cache: all three remain in memory.
        assert_eq!(store.len(), 3);
    }

    #[test]
    fn no_cap_means_no_eviction() {
        let tmp = TempDir::new("nocap");
        let store = TraceStore::with_cache_dir(&tmp.0);
        for scale in 1..=4 {
            store
                .get_or_record(dct(scale), 0, || Ok::<_, ()>(tiny_trace(u64::from(scale))))
                .expect("records");
        }
        assert_eq!(store.stats().files_evicted, 0);
        assert_eq!(std::fs::read_dir(&tmp.0).unwrap().count(), 4);
    }

    #[test]
    fn cache_cap_from_env_parses() {
        // Exercise the parse logic via a unique var name pattern: the
        // helper reads the fixed name, so only assert the unset case and
        // leave set-case coverage to the CI end-to-end smoke (mutating
        // process-global env in parallel tests races other tests).
        if std::env::var_os("WAYMEM_TRACE_CACHE_MAX_BYTES").is_none() {
            assert_eq!(TraceStore::cache_cap_from_env(), None);
        }
    }

    /// Writes `trace` as a `.wmtr` at `path` — the shape every
    /// `open_stream` producer has.
    fn produce_file(trace: &RecordedTrace, hash: u64, path: &Path) -> Result<(), StreamError> {
        stream::write_encoded(trace, hash, path)?;
        Ok(())
    }

    #[test]
    fn open_stream_produces_once_then_streams_without_materializing() {
        let tmp = TempDir::new("openstream");
        let store = TraceStore::with_cache_dir(&tmp.0);
        let cold = store
            .open_stream(dct(1), 0xfeed, |p| produce_file(&tiny_trace(4), 0xfeed, p))
            .expect("produces");
        assert_eq!(cold.cycles(), 4);
        assert_eq!(cold.decode().expect("decodes"), tiny_trace(4));
        let s = store.stats();
        assert_eq!((s.records, s.stream_opens, s.files_saved), (1, 0, 1));

        // Warm opens stream from the file: no production, no decode into
        // memory — records and raw_bytes must not move.
        let warm = store
            .open_stream(dct(1), 0xfeed, |_| -> Result<(), StreamError> {
                panic!("must not re-produce")
            })
            .expect("streams");
        assert_eq!(warm.decode().expect("decodes"), tiny_trace(4));
        let s = store.stats();
        assert_eq!((s.records, s.disk_hits, s.stream_opens), (1, 1, 1));
        assert_eq!(s.raw_bytes, 0, "warm streaming open must not materialize");
    }

    #[test]
    fn open_stream_re_produces_stale_files() {
        let tmp = TempDir::new("openstream-stale");
        let store = TraceStore::with_cache_dir(&tmp.0);
        store
            .open_stream(dct(1), 0xaaaa, |p| produce_file(&tiny_trace(1), 0xaaaa, p))
            .expect("produces");
        let fresh = store
            .open_stream(dct(1), 0xbbbb, |p| produce_file(&tiny_trace(2), 0xbbbb, p))
            .expect("re-produces");
        assert_eq!(fresh.cycles(), 2, "stale stream must not be replayed");
        let s = store.stats();
        assert_eq!((s.records, s.stale, s.stream_opens), (2, 1, 0));
    }

    #[test]
    fn open_stream_spills_an_in_memory_trace_instead_of_reproducing() {
        // Memory-only store: a prior get_or_record holds the trace, so a
        // streaming open spills it to scratch rather than re-producing.
        let store = TraceStore::new();
        store
            .get_or_record(dct(1), 0x77, || Ok::<_, StreamError>(tiny_trace(6)))
            .expect("records");
        let st = store
            .open_stream(dct(1), 0x77, |_| -> Result<(), StreamError> {
                panic!("must not re-produce")
            })
            .expect("spills");
        assert_eq!(st.cycles(), 6);
        let scratch = st.path().to_path_buf();
        assert!(scratch.exists());
        let s = store.stats();
        assert_eq!((s.records, s.hits, s.stream_opens), (1, 1, 1));
        drop(st);
        assert!(!scratch.exists(), "scratch stream must clean up on drop");
    }

    #[test]
    fn open_stream_without_store_dir_produces_self_cleaning_scratch() {
        let store = TraceStore::new();
        let st = store
            .open_stream(dct(2), 0, |p| produce_file(&tiny_trace(3), 0, p))
            .expect("produces");
        let scratch = st.path().to_path_buf();
        assert!(scratch.starts_with(std::env::temp_dir()));
        assert_eq!(st.decode().expect("decodes"), tiny_trace(3));
        assert_eq!(store.stats().records, 1);
        drop(st);
        assert!(!scratch.exists());
    }

    #[test]
    fn corrupt_warm_file_is_quarantined_and_re_recorded() {
        let tmp = TempDir::new("quarantine");
        // Point the flight recorder at a dump file: the quarantine below
        // is an incident and must leave a validating black box.
        let dump = tmp.0.join("flight.json");
        let restore = waymem_obs::flight::configured_dump_path();
        waymem_obs::flight::set_dump_path(Some(dump.clone()));
        let cold = TraceStore::with_cache_dir(&tmp.0);
        cold.get_or_record(dct(1), 0xfeed, || Ok::<_, ()>(tiny_trace(3))).expect("records");
        let path = tmp.0.join(dct(1).file_name());
        std::fs::write(&path, b"WMTRgarbage, not a real trace").expect("corrupts");

        let healed = TraceStore::with_cache_dir(&tmp.0);
        let t = healed
            .get_or_record(dct(1), 0xfeed, || Ok::<_, ()>(tiny_trace(3)))
            .expect("re-records through the corruption");
        assert_eq!(t.cycles, 3);
        let s = healed.stats();
        assert_eq!((s.quarantined, s.records, s.recovered, s.disk_hits), (1, 1, 1, 0), "{s:?}");
        assert!(
            tmp.0.join(QUARANTINE_DIR).join(dct(1).file_name()).exists(),
            "bad bytes preserved in quarantine"
        );

        // The dump validates and retains the quarantine event. Parallel
        // tests share the process-global recorder, so a later incident
        // may have re-dumped (overwriting the reason) — but rings are
        // copied, never drained, so the event itself must be present.
        let text = std::fs::read_to_string(&dump).expect("quarantine dumped a black box");
        let summary = waymem_obs::flight::validate_dump(&text).expect("dump validates");
        assert!(
            summary.has_event("store.quarantine"),
            "no store.quarantine among {:?}",
            summary.names
        );
        waymem_obs::flight::set_dump_path(restore);

        // The re-record replaced the file: a third store disk-hits.
        let warm = TraceStore::with_cache_dir(&tmp.0);
        let t = warm
            .get_or_record(dct(1), 0xfeed, || Err::<RecordedTrace, _>("must not record"))
            .expect("healed file serves");
        assert_eq!(t.cycles, 3);
        assert_eq!(warm.stats().disk_hits, 1);
    }

    #[test]
    fn open_stream_quarantines_corrupt_warm_file_and_recovers() {
        let tmp = TempDir::new("qstream");
        let store = TraceStore::with_cache_dir(&tmp.0);
        store
            .open_stream(dct(1), 0xfeed, |p| produce_file(&tiny_trace(4), 0xfeed, p))
            .expect("produces");
        let path = tmp.0.join(dct(1).file_name());
        let mut bytes = std::fs::read(&path).expect("reads");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff; // break the checksum
        std::fs::write(&path, &bytes).expect("corrupts");

        let healed = TraceStore::with_cache_dir(&tmp.0);
        let st = healed
            .open_stream(dct(1), 0xfeed, |p| produce_file(&tiny_trace(4), 0xfeed, p))
            .expect("re-produces through the corruption");
        assert_eq!(st.decode().expect("decodes"), tiny_trace(4));
        let s = healed.stats();
        assert_eq!((s.quarantined, s.records, s.recovered), (1, 1, 1), "{s:?}");
    }

    #[test]
    fn orphaned_temps_are_swept_for_dead_writers_only() {
        if !Path::new("/proc").is_dir() {
            return; // pid liveness undecidable: the sweep is age-based there
        }
        let tmp = TempDir::new("orphans");
        std::fs::create_dir_all(&tmp.0).expect("mkdir");
        // pid 4294000000 is far beyond any real pid_max, i.e. dead.
        let dead = tmp.0.join("x.wmtr.p4294000000-0.tmp");
        let live = tmp.0.join(format!("y.wmtr.p{}-0.tmp", std::process::id()));
        std::fs::write(&dead, b"junk").expect("writes");
        std::fs::write(&live, b"junk").expect("writes");
        let store = TraceStore::with_cache_dir(&tmp.0);
        store.get_or_record(dct(1), 0, || Ok::<_, ()>(tiny_trace(1))).expect("records");
        assert!(!dead.exists(), "dead writer's temp must be reclaimed");
        assert!(live.exists(), "live writer's temp must be left alone");
    }

    #[test]
    fn eviction_skips_lock_held_files() {
        let tmp = TempDir::new("evictlock");
        let one_file = codec::encode_with_hash(&tiny_trace(0), 1).len() as u64;
        let store =
            TraceStore::with_cache_dir(&tmp.0).with_cache_limit(Some(one_file + one_file / 2));
        store.get_or_record(dct(1), 0, || Ok::<_, ()>(tiny_trace(1))).expect("records");
        // Another process "holds" the oldest file's record lock.
        let held = tmp.0.join(dct(1).file_name());
        std::fs::write(lock_path(&held), std::process::id().to_string()).expect("locks");
        for scale in 2..=3 {
            std::thread::sleep(std::time::Duration::from_millis(20));
            store
                .get_or_record(dct(scale), 0, || Ok::<_, ()>(tiny_trace(u64::from(scale))))
                .expect("records");
        }
        assert!(held.exists(), "lock-held file must survive eviction");
        std::fs::remove_file(lock_path(&held)).expect("unlocks");
    }

    #[test]
    fn stale_record_lock_is_taken_over_and_released() {
        if !Path::new("/proc").is_dir() {
            return; // takeover falls back to a long mtime heuristic there
        }
        let tmp = TempDir::new("stalelock");
        std::fs::create_dir_all(&tmp.0).expect("mkdir");
        let store = TraceStore::with_cache_dir(&tmp.0);
        let path = tmp.0.join(dct(1).file_name());
        // A crashed writer's leftover: dead pid, so acquisition takes it
        // over instead of waiting out the backoff.
        std::fs::write(lock_path(&path), "4294000000").expect("plants stale lock");
        let t = store.get_or_record(dct(1), 0, || Ok::<_, ()>(tiny_trace(8))).expect("records");
        assert_eq!(t.cycles, 8);
        assert!(!lock_path(&path).exists(), "lock released after the record");
        assert!(path.exists(), "record persisted normally");
    }

    #[test]
    fn armed_store_stays_correct_and_never_poisons_the_dir() {
        let tmp = TempDir::new("armedstore");
        let noisy = TraceStore::with_cache_dir(&tmp.0)
            .with_io(crate::fault::StoreIo::with_plan(crate::fault::FaultPlan::new(7)));
        let t = noisy
            .get_or_record(dct(1), 0x11, || Ok::<_, ()>(tiny_trace(5)))
            .expect("records through injected faults");
        assert_eq!(t.cycles, 5);
        assert_eq!(noisy.stats().io_retries, noisy.io().retries());

        // A fault-free store over the same dir must serve the workload —
        // from the file, or by quarantining a fault-corrupted write and
        // re-recording — never fail.
        let clean = TraceStore::with_cache_dir(&tmp.0);
        let t = clean
            .get_or_record(dct(1), 0x11, || Ok::<_, ()>(tiny_trace(5)))
            .expect("dir not poisoned");
        assert_eq!(t.cycles, 5);
    }

    #[test]
    fn compression_stats_accumulate() {
        let store = TraceStore::new();
        store
            .get_or_record(dct(1), 0, || Ok::<_, ()>(tiny_trace(1)))
            .expect("records");
        let s = store.stats();
        assert_eq!(s.raw_bytes, tiny_trace(1).raw_size_bytes());
        assert!(s.encoded_bytes > 0);
        assert!(s.compression_ratio() > 0.0);
    }
}
