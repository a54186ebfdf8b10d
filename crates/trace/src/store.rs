//! The cross-config trace cache.
//!
//! Multi-config sweeps (the paper report's `ext.*` MAB, associativity and
//! line-size sweeps) run the same workloads under many cache geometries
//! and scheme sets. The trace a workload produces depends only on its
//! [`WorkloadId`] — never on the geometry or scheme being evaluated — so
//! re-producing it per configuration is pure waste. [`TraceStore`]
//! memoizes the production: the first lookup for a key runs the caller's
//! recorder (CPU interpreter, log parser or synthetic generator), and
//! every later lookup (from any thread) shares the same
//! `Arc<RecordedTrace>`.
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
//! embed it in the `.wmtr` header. A cached copy, in memory or on disk,
//! serves only a lookup with exactly its hash (0 is an ordinary hash);
//! any other copy — the kernel generator changed, the input log was
//! edited in place — is a **stale miss**, re-recorded instead of
//! silently replayed. So is a file of another format version: it stays
//! in place and the re-record overwrites it. The version is read as
//! written, so a bit flip in a current file's version field is stale,
//! not corrupt: never replayed and overwritten, but not kept in
//! quarantine as evidence.
//!
//! Both lookups ([`TraceStore::get_or_record`] and
//! [`TraceStore::open_stream`]) read a cache file the same way: they
//! open it as a [`StreamingTrace`], which validates header and checksum,
//! and share one miss path (stale count, quarantine, record lock,
//! re-check). They differ only in how a hit is served — decoded into
//! memory, handed back as the open file, or spilled from an in-memory
//! copy — and in where production writes.
//!
//! ## Disk hygiene
//!
//! The cache dir would otherwise grow without bound — external traces in
//! particular are keyed by content hash, so every edited log leaves the
//! old file behind. An optional byte cap (see
//! [`TraceStore::with_cache_limit`] and the `WAYMEM_TRACE_CACHE_MAX_BYTES`
//! environment variable via [`TraceStore::cache_cap_from_env`]) evicts
//! oldest-mtime `.wmtr` files, quarantined ones included, after each
//! save, logging each eviction to stderr.
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
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, SystemTime};

use waymem_isa::RecordedTrace;
use waymem_obs::json::Json;
use waymem_obs::metrics::Stopwatch;

use crate::codec::{self, CodecError};
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
    /// the caller's (stale kernel source / edited log), or because the
    /// file is of another format version.
    pub stale: u64,
    /// In-memory footprint, in bytes (`events × size_of::<TraceEvent>()`),
    /// of every trace the store encoded or decoded: one saved to the
    /// cache dir, one loaded from it, or one spilled from memory by
    /// [`TraceStore::open_stream`]. A memory-only store's recordings are
    /// never encoded, so they count only once spilled.
    pub raw_bytes: u64,
    /// Wire-format footprint of the same traces, in bytes. Counted
    /// together with [`raw_bytes`](Self::raw_bytes), so their ratio is
    /// [`compression_ratio`](Self::compression_ratio).
    pub encoded_bytes: u64,
    /// Cache files written (best-effort persistence).
    pub files_saved: u64,
    /// Cache files decoded into memory by
    /// [`TraceStore::get_or_record`] disk hits.
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

    /// The `trace_store` object the bench exports embed: every counter
    /// plus [`hit_rate`](Self::hit_rate) and
    /// [`compression_ratio`](Self::compression_ratio).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("lookups", Json::from(self.lookups)),
            ("hits", Json::from(self.hits)),
            ("disk_hits", Json::from(self.disk_hits)),
            ("stream_opens", Json::from(self.stream_opens)),
            ("records", Json::from(self.records)),
            ("hit_rate", Json::from(self.hit_rate())),
            ("stale", Json::from(self.stale)),
            ("raw_bytes", Json::from(self.raw_bytes)),
            ("encoded_bytes", Json::from(self.encoded_bytes)),
            ("compression_ratio", Json::from(self.compression_ratio())),
            ("files_saved", Json::from(self.files_saved)),
            ("files_loaded", Json::from(self.files_loaded)),
            ("files_evicted", Json::from(self.files_evicted)),
            ("bytes_evicted", Json::from(self.bytes_evicted)),
            ("quarantined", Json::from(self.quarantined)),
            ("recovered", Json::from(self.recovered)),
            ("io_retries", Json::from(self.io_retries)),
        ])
    }

    /// Mirrors the snapshot into the global metrics registry as one
    /// `store.<key>` gauge per field of [`to_json`](Self::to_json), so
    /// anything holding the registry — an exporter, a service endpoint —
    /// sees store state without threading `StoreStats` through its
    /// plumbing. [`TraceStore::stats`] calls this on every snapshot.
    pub fn publish(&self) {
        if let Json::Object(fields) = self.to_json() {
            for (key, value) in fields {
                if let Some(v) = value.as_num() {
                    waymem_obs::registry().gauge(&format!("store.{key}")).set(v);
                }
            }
        }
    }

    /// Counts one trace the store encoded or decoded.
    fn account(&mut self, trace: &RecordedTrace, encoded_len: u64) {
        self.raw_bytes += trace.raw_size_bytes();
        self.encoded_bytes += encoded_len;
    }
}

/// What one key's slot holds once filled: the trace plus the source hash
/// it was produced from, so in-memory hits apply the same staleness rule
/// as disk loads.
type Cached = (u64, Arc<RecordedTrace>);

/// What one open of a key's cache file found.
enum Found<T> {
    /// A current file, served.
    Hit(T),
    /// A valid file whose source hash is outdated, or a file of another
    /// format version (left in place — the re-record overwrites it).
    Stale,
    /// No file.
    Missing,
    /// An unreadable or invalid file, now quarantined.
    Corrupt,
}

/// A lookup that found no current cache file and goes on to produce.
struct Miss {
    /// Where production persists (`None` for a memory-only store).
    path: Option<PathBuf>,
    /// The cross-process record lock, held until the lookup is done.
    _lock: Option<RecordLock>,
    /// Whether this lookup quarantined a corrupt file (a successful
    /// production then counts as `recovered`).
    recovering: bool,
}

/// One key's slot. The per-key mutex serializes *production* of that key
/// only: two threads racing on the same workload produce it once (the
/// loser blocks, then hits), while different keys record concurrently —
/// exactly what `Experiment::run_all`'s fan-out over the kernels needs.
type Slot = Arc<Mutex<Option<Cached>>>;

/// A thread-safe, keyed cache of recorded traces with optional on-disk
/// persistence, staleness detection and a disk-size cap. See the
/// [module docs](self) for the role it plays.
#[derive(Debug, Default)]
pub struct TraceStore {
    slots: Mutex<HashMap<WorkloadId, Slot>>,
    cache_dir: Option<PathBuf>,
    max_cache_bytes: Option<u64>,
    stats: Mutex<StoreStats>,
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
    /// save, oldest-mtime `.wmtr` files, [`QUARANTINE_DIR`] included, are
    /// evicted until the directory fits, each eviction logged to stderr.
    /// The cap is best-effort advisory hygiene — it never fails a lookup.
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
        let stats = StoreStats {
            io_retries: self.io.retries(),
            ..*self.stats.lock().expect("store stats poisoned")
        };
        stats.publish();
        stats
    }

    /// Applies `change` to the store's counts.
    fn count(&self, change: impl FnOnce(&mut StoreStats)) {
        change(&mut self.stats.lock().expect("store stats poisoned"));
    }

    fn slot(&self, key: WorkloadId) -> Slot {
        let mut slots = self.slots.lock().expect("trace store poisoned");
        slots.entry(key).or_default().clone()
    }

    fn file_path(&self, key: WorkloadId) -> Option<PathBuf> {
        self.cache_dir.as_ref().map(|d| d.join(key.file_name()))
    }

    /// The cache-file side of one lookup, shared by
    /// [`get_or_record`](Self::get_or_record) and
    /// [`open_stream`](Self::open_stream), which differ only in how
    /// `serve` turns a current file into a hit. `stale` says the
    /// in-memory slot held an outdated copy.
    ///
    /// The key's file is opened — the one way the store reads a cache
    /// file — and sorted as current (served), stale (another source hash
    /// or format version), missing, or corrupt: unreadable, invalid, or
    /// failing to serve. A corrupt file is
    /// quarantined, since it must never break a run nor shadow the
    /// re-record. Without a current file the lookup counts one stale
    /// event if it rejected an outdated copy (in memory or on disk), takes
    /// the cross-process record lock and, holding it, opens the file
    /// again: a racer that waited usually finds the winner's file there
    /// and skips its own production.
    fn probe<T>(
        &self,
        key: WorkloadId,
        source_hash: u64,
        mut stale: bool,
        mut serve: impl FnMut(StreamingTrace) -> Result<T, StreamError>,
    ) -> Result<T, Miss> {
        let path = self.file_path(key);
        self.sweep_orphans();
        let mut open = |path: Option<&Path>| {
            let Some(path) = path else { return Found::Missing };
            match StreamingTrace::open_with(path, self.io.clone()) {
                Ok(st) if st.source_hash() != source_hash => Found::Stale,
                Err(StreamError::Codec(CodecError::UnsupportedVersion(_))) => Found::Stale,
                Err(StreamError::Io(e)) if e.kind() == io::ErrorKind::NotFound => Found::Missing,
                opened => match opened.and_then(&mut serve) {
                    Ok(hit) => Found::Hit(hit),
                    Err(_) => {
                        self.quarantine(path);
                        Found::Corrupt
                    }
                },
            }
        };
        let mut recovering = false;
        match open(path.as_deref()) {
            Found::Hit(hit) => return Ok(hit),
            Found::Stale => stale = true,
            Found::Corrupt => recovering = true,
            Found::Missing => {}
        }
        if stale {
            self.count(|s| s.stale += 1);
        }
        let lock = path.as_deref().and_then(|p| self.lock_record(p));
        if lock.is_some() {
            if let Found::Hit(hit) = open(path.as_deref()) {
                return Ok(hit);
            }
        }
        Err(Miss { path, _lock: lock, recovering })
    }

    /// Best-effort persistence into the cache dir; a memory-only store
    /// encodes nothing. The encoding feeds the compression stats even
    /// when the write itself fails. The write is atomic (temp + fsync +
    /// rename), so racers and crashes never observe a torn file. A
    /// successful write triggers the size-cap sweep.
    fn save_to_disk(&self, key: WorkloadId, source_hash: u64, trace: &RecordedTrace) {
        let Some(path) = self.file_path(key) else { return };
        let Some(dir) = self.cache_dir.as_ref() else { return };
        let bytes = codec::encode_with_hash(trace, source_hash);
        self.count(|s| s.account(trace, bytes.len() as u64));
        self.sweep_orphans();
        if fs::create_dir_all(dir).is_ok() && self.io.write_atomic(&path, &bytes).is_ok() {
            self.count(|s| s.files_saved += 1);
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
        self.count(|s| s.quarantined += 1);
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

    /// Evicts oldest-mtime `.wmtr` files, in the cache dir and in its
    /// [`QUARANTINE_DIR`], until both together fit the configured cap,
    /// sparing `just_written` (evicting the file we just paid to encode
    /// would make the cap counter-productive). A quarantine keeps the
    /// file's mtime, so evidence goes before the re-record that replaced
    /// it, and before a current file of the same age. Every eviction is
    /// logged as a `store.evicted` info event (`WAYMEM_LOG=info` to see
    /// them). Best-effort throughout: racing processes or I/O errors
    /// degrade to "evict less", never to a failed lookup.
    fn enforce_cache_cap(&self, just_written: &Path) {
        let Some(cap) = self.max_cache_bytes else { return };
        let Some(dir) = self.cache_dir.as_ref() else { return };
        // (mtime, current?, bytes, path): on a tie, evidence sorts first.
        let mut files: Vec<(SystemTime, bool, u64, PathBuf)> = Vec::new();
        for (listed, current) in [(dir.join(QUARANTINE_DIR), false), (dir.clone(), true)] {
            let Ok(entries) = fs::read_dir(listed) else { continue };
            files.extend(
                entries
                    .flatten()
                    .filter(|e| e.path().extension().is_some_and(|x| x == "wmtr"))
                    .filter_map(|e| {
                        let meta = e.metadata().ok()?;
                        let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                        Some((mtime, current, meta.len(), e.path()))
                    }),
            );
        }
        let mut total: u64 = files.iter().map(|(_, _, len, _)| *len).sum();
        if total <= cap {
            return;
        }
        files.sort();
        for (_, _, len, path) in files {
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
                    self.count(|s| {
                        s.files_evicted += 1;
                        s.bytes_evicted += len;
                    });
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
    /// (kernel source text, raw log bytes, generator spec). A cached
    /// copy — on disk *or* in memory from an earlier lookup — serves
    /// only a lookup with exactly its hash; any other copy, and a file
    /// of another format version, is re-recorded, not replayed.
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
        self.count(|s| s.lookups += 1);
        if let Some((cached_hash, trace)) = guard.as_ref() {
            if *cached_hash == source_hash {
                self.count(|s| s.hits += 1);
                return Ok(Arc::clone(trace));
            }
        }
        // An outdated copy goes: the disk or the recorder replaces it.
        let stale = guard.take().is_some();
        let decode = |st: StreamingTrace| Ok((st.source_hash(), st.encoded_len(), st.decode()?));
        let miss = match self.probe(key, source_hash, stale, decode) {
            Ok((hash, encoded_len, trace)) => {
                self.count(|s| {
                    s.disk_hits += 1;
                    s.files_loaded += 1;
                    s.account(&trace, encoded_len);
                });
                let trace = Arc::new(trace);
                *guard = Some((hash, Arc::clone(&trace)));
                return Ok(trace);
            }
            Err(miss) => miss,
        };
        let trace = Arc::new(record()?);
        self.count(|s| {
            s.records += 1;
            s.recovered += u64::from(miss.recovering);
        });
        *guard = Some((source_hash, Arc::clone(&trace)));
        // Account + persist outside the per-key lock: waiters queued on
        // this key proceed with the Arc immediately; the encode pass
        // only feeds the compression stats and the best-effort cache
        // file, so nothing downstream observes it. The record lock stays
        // held across the save (it drops with `miss`).
        drop(guard);
        self.save_to_disk(key, source_hash, &trace);
        Ok(trace)
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
    /// `stream_opens` once the spill has opened, and the spill counted in
    /// `raw_bytes` and `encoded_bytes`). Without a cache dir the file
    /// lives under the system temp dir ([`stream::scratch`]) and deletes
    /// itself when the handle drops, or at once if production or
    /// validation fails. A written file that fails validation is
    /// quarantined and counts as no hit.
    ///
    /// Staleness follows the same rule as `get_or_record`: a copy whose
    /// embedded hash is not exactly `source_hash`, and a file of another
    /// format version, is re-produced, not replayed.
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
        self.count(|s| s.lookups += 1);
        let cached = guard
            .as_ref()
            .filter(|(h, _)| *h == source_hash)
            .map(|(h, t)| (*h, Arc::clone(t)));
        let stale = guard.is_some() && cached.is_none();
        let miss = match self.probe(key, source_hash, stale, Ok) {
            Ok(st) => {
                self.count(|s| {
                    s.disk_hits += 1;
                    s.stream_opens += 1;
                });
                return Ok(st);
            }
            Err(miss) => miss,
        };
        // Spill an in-memory copy if there is one (still no
        // production), else run the producer.
        let spill = cached.is_some();
        let write = |path: &Path| -> Result<(), E> {
            if let Some((hash, trace)) = &cached {
                let encoded_len = stream::write_encoded_with(trace, *hash, path, &self.io)
                    .map_err(|e| E::from(StreamError::Io(e)))?;
                self.count(|s| s.account(trace, encoded_len));
            } else {
                produce(path)?;
                self.count(|s| s.records += 1);
            }
            Ok(())
        };
        let st = match miss.path.as_deref() {
            // Memory-only store: the file is scratch, cleaned up on drop
            // (and on failure).
            None => stream::scratch(self.io.clone(), write)?.0,
            Some(path) => {
                write(path)?;
                self.count(|s| s.files_saved += 1);
                drop(guard);
                self.enforce_cache_cap(path);
                StreamingTrace::open_with(path, self.io.clone()).map_err(|e| {
                    // The freshly written file failed validation (torn or
                    // fault-corrupted write): move it aside so the next
                    // lookup re-produces instead of replaying it.
                    self.quarantine(path);
                    E::from(e)
                })?
            }
        };
        // Only a file that opened is a hit or a recovery.
        self.count(|s| {
            s.hits += u64::from(spill);
            s.stream_opens += u64::from(spill);
            s.recovered += u64::from(miss.recovering);
        });
        Ok(st)
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
    use std::sync::atomic::AtomicU64;
    use waymem_isa::{FetchKind, TraceEvent};
    use waymem_workloads::Benchmark;

    #[test]
    fn store_stats_serialize_with_stable_keys() {
        let rendered = StoreStats::default().to_json().to_string();
        for key in [
            "lookups",
            "records",
            "stream_opens",
            "hit_rate",
            "stale",
            "compression_ratio",
            "encoded_bytes",
            "files_evicted",
            "bytes_evicted",
            "quarantined",
            "recovered",
            "io_retries",
        ] {
            assert!(rendered.contains(&format!("\"{key}\":")), "missing {key} in {rendered}");
        }
    }

    #[test]
    fn publish_sets_one_gauge_per_json_key() {
        let stats = StoreStats::default();
        stats.publish();
        let gauges = waymem_obs::registry().snapshot().gauges;
        let Json::Object(fields) = stats.to_json() else { panic!("not an object") };
        for (key, _) in fields {
            let name = format!("store.{key}");
            assert!(gauges.iter().any(|(g, _)| *g == name), "no {name} gauge");
        }
    }

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
    fn a_file_saved_under_one_hash_is_stale_to_a_lookup_under_zero() {
        let tmp = TempDir::new("zerohash");
        let writer = TraceStore::with_cache_dir(&tmp.0);
        writer
            .get_or_record(dct(1), 0x1234, || Ok::<_, ()>(tiny_trace(5)))
            .expect("records");
        // 0 is an ordinary hash: it does not match 0x1234...
        let reader = TraceStore::with_cache_dir(&tmp.0);
        let t = reader
            .get_or_record(dct(1), 0, || Ok::<_, ()>(tiny_trace(6)))
            .expect("re-records");
        assert_eq!(t.cycles, 6, "a file of another hash must not be replayed");
        let s = reader.stats();
        assert_eq!((s.stale, s.records, s.disk_hits), (1, 1, 0), "{s:?}");
        // ...and a file saved under 0 serves a lookup under 0.
        let warm = TraceStore::with_cache_dir(&tmp.0);
        let t = warm
            .get_or_record(dct(1), 0, || Err::<RecordedTrace, _>("must not record"))
            .expect("loads");
        assert_eq!(t.cycles, 6);
    }

    #[test]
    fn stale_preloads_are_re_recorded() {
        let tmp = TempDir::new("stalepre");
        let writer = TraceStore::with_cache_dir(&tmp.0);
        writer
            .get_or_record(dct(1), 0xaaaa, || Ok::<_, ()>(tiny_trace(1)))
            .expect("records");

        // A lookup under the file's own hash preloads it into memory.
        let preloaded = TraceStore::with_cache_dir(&tmp.0);
        preloaded
            .get_or_record(dct(1), 0xaaaa, || Err::<RecordedTrace, _>("must not record"))
            .expect("preloads");
        // A lookup under another hash must reject the copy even though
        // it sits in memory.
        let t = preloaded
            .get_or_record(dct(1), 0xcccc, || Ok::<_, ()>(tiny_trace(9)))
            .expect("re-records");
        assert_eq!(t.cycles, 9);
        let s = preloaded.stats();
        // Exactly one stale event for the lookup, even though both the
        // in-memory copy and its backing file were rejected.
        assert_eq!(s.stale, 1, "{s:?}");
        assert_eq!((s.records, s.disk_hits), (1, 1), "{s:?}");
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

    /// Bytes of every file under `dir`, subdirectories included.
    fn dir_bytes(dir: &Path) -> u64 {
        std::fs::read_dir(dir).map_or(0, |entries| {
            entries
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(meta) if meta.is_dir() => dir_bytes(&e.path()),
                    Ok(meta) => meta.len(),
                    Err(_) => 0,
                })
                .sum()
        })
    }

    #[test]
    fn cache_cap_counts_the_quarantine() {
        let tmp = TempDir::new("capquarantine");
        std::fs::create_dir_all(&tmp.0).expect("mkdir");
        let mut corrupt = codec::encode_with_hash(&tiny_trace(3), 0xfeed);
        let one_file = corrupt.len() as u64;
        let cap = 2 * one_file;
        // A corrupt file (its length disagrees with its header) twice the
        // cap: quarantined by the lookup, then evicted by the save that
        // follows its re-record.
        corrupt.resize(4 * corrupt.len(), 0);
        std::fs::write(tmp.0.join(dct(1).file_name()), corrupt).expect("corrupts");
        let store = TraceStore::with_cache_dir(&tmp.0).with_cache_limit(Some(cap));
        let t = store.get_or_record(dct(1), 0xfeed, || Ok::<_, ()>(tiny_trace(3))).expect("records");
        assert_eq!(t.cycles, 3);
        let s = store.stats();
        assert_eq!((s.quarantined, s.files_evicted, s.bytes_evicted), (1, 1, 4 * one_file));
        let on_disk = dir_bytes(&tmp.0);
        assert!(on_disk <= cap, "{on_disk} bytes on disk under a {cap}-byte cap");
        assert!(tmp.0.join(dct(1).file_name()).exists(), "the re-record is spared");
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
    fn open_stream_without_store_dir_removes_an_invalid_scratch_file() {
        let store = TraceStore::new();
        let mut seen = None;
        let opened = store.open_stream(dct(2), 0, |p| -> Result<(), StreamError> {
            seen = Some(p.to_path_buf());
            std::fs::write(p, b"WMTRgarbage, not a real trace")?;
            Ok(())
        });
        assert!(opened.is_err(), "an invalid scratch file must not open");
        let scratch = seen.expect("the producer ran");
        assert!(!scratch.exists(), "invalid scratch file left at {}", scratch.display());
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

    // `open_stream` counts through the miss path it shares with
    // `get_or_record`: a stale in-memory copy, or a stale file it spills
    // over, is a stale event, and a corrupt file is quarantined on the
    // locked re-check and after a spill that fails validation.

    #[test]
    fn open_stream_counts_a_stale_in_memory_copy() {
        let store = TraceStore::new();
        store.get_or_record(dct(1), 0xaaaa, || Ok::<_, ()>(tiny_trace(1))).expect("records");
        let st = store
            .open_stream(dct(1), 0xbbbb, |p| produce_file(&tiny_trace(2), 0xbbbb, p))
            .expect("re-produces");
        assert_eq!(st.cycles(), 2, "the stale copy must not be spilled");
        let s = store.stats();
        assert_eq!((s.stale, s.records, s.hits), (1, 2, 0), "{s:?}");
    }

    #[test]
    fn open_stream_counts_a_stale_file_it_spills_over() {
        let tmp = TempDir::new("spillstale");
        let store = TraceStore::with_cache_dir(&tmp.0);
        store.get_or_record(dct(1), 0xaaaa, || Ok::<_, ()>(tiny_trace(1))).expect("records");
        let path = tmp.0.join(dct(1).file_name());
        std::fs::write(&path, codec::encode_with_hash(&tiny_trace(2), 0xbbbb)).expect("outdates");
        let st = store
            .open_stream(dct(1), 0xaaaa, |_| -> Result<(), StreamError> {
                panic!("must not re-produce")
            })
            .expect("spills");
        assert_eq!((st.cycles(), st.source_hash()), (1, 0xaaaa));
        let s = store.stats();
        assert_eq!((s.stale, s.hits, s.stream_opens, s.files_saved), (1, 1, 1, 2), "{s:?}");
    }

    #[test]
    fn a_file_of_another_version_is_a_stale_miss_re_recorded_in_place() {
        for version in [1u16, 3] {
            for streaming in [false, true] {
                let tmp = TempDir::new(&format!("version{version}-{streaming}"));
                let writer = TraceStore::with_cache_dir(&tmp.0);
                writer.get_or_record(dct(1), 0x11, || Ok::<_, ()>(tiny_trace(1))).expect("records");
                // A sealed file of another version: its version field and
                // checksum differ from what this build writes.
                let path = tmp.0.join(dct(1).file_name());
                let mut bytes = std::fs::read(&path).expect("reads");
                bytes[4..6].copy_from_slice(&version.to_le_bytes());
                let body = bytes.len() - 4;
                let checksum = codec::fnv1a32_update(codec::FNV1A32_SEED, &bytes[4..body]);
                bytes[body..].copy_from_slice(&checksum.to_le_bytes());
                std::fs::write(&path, &bytes).expect("rewrites the version");

                let store = TraceStore::with_cache_dir(&tmp.0);
                let cycles = if streaming {
                    store
                        .open_stream(dct(1), 0x11, |p| produce_file(&tiny_trace(2), 0x11, p))
                        .expect("re-produces")
                        .cycles()
                } else {
                    let record = || Ok::<_, ()>(tiny_trace(2));
                    store.get_or_record(dct(1), 0x11, record).expect("re-records").cycles
                };
                assert_eq!(cycles, 2, "version {version}: the old file must not be replayed");
                let s = store.stats();
                assert_eq!(
                    (s.stale, s.quarantined, s.recovered, s.records),
                    (1, 0, 0, 1),
                    "version {version}, streaming {streaming}: {s:?}"
                );
                assert!(!tmp.0.join(QUARANTINE_DIR).exists(), "version {version} quarantined");
                // The re-record overwrote the file in place.
                let st = StreamingTrace::open(&path).expect("the re-record opens");
                assert_eq!((st.source_hash(), st.cycles()), (0x11, 2));
            }
        }
    }

    #[test]
    fn both_lookups_quarantine_a_corrupt_file_found_on_the_locked_re_check() {
        for streaming in [false, true] {
            let tmp = TempDir::new(if streaming { "recheck-stream" } else { "recheck" });
            std::fs::create_dir_all(&tmp.0).expect("mkdir");
            let path = tmp.0.join(dct(1).file_name());
            let stale_file = codec::encode_with_hash(&tiny_trace(1), 0x22);
            std::fs::write(&path, stale_file).expect("writes a stale file");
            // A live writer (this process) holds the record lock.
            std::fs::write(lock_path(&path), std::process::id().to_string()).expect("locks");
            let store = TraceStore::with_cache_dir(&tmp.0);
            let (cycles, s) = std::thread::scope(|scope| {
                scope.spawn(|| {
                    // Once the lookup has rejected the stale file, and so
                    // waits on the lock, the writer leaves a torn file and
                    // releases the lock.
                    let deadline = std::time::Instant::now() + Duration::from_secs(10);
                    while store.stats().stale == 0 {
                        assert!(std::time::Instant::now() < deadline, "lookup never went stale");
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    std::fs::write(&path, b"WMTRgarbage, a torn write").expect("tears");
                    std::fs::remove_file(lock_path(&path)).expect("unlocks");
                });
                let cycles = if streaming {
                    store
                        .open_stream(dct(1), 0x11, |p| produce_file(&tiny_trace(4), 0x11, p))
                        .expect("produces")
                        .cycles()
                } else {
                    let record = || Ok::<_, ()>(tiny_trace(4));
                    store.get_or_record(dct(1), 0x11, record).expect("records").cycles
                };
                (cycles, store.stats())
            });
            assert_eq!(cycles, 4);
            assert_eq!((s.stale, s.quarantined, s.records, s.recovered), (1, 1, 1, 0), "{s:?}");
            assert!(tmp.0.join(QUARANTINE_DIR).join(dct(1).file_name()).exists());
        }
    }

    #[test]
    fn open_stream_quarantines_a_spill_that_fails_validation() {
        // A period-1 plan faults every operation; under some seeds the
        // spill lands on disk corrupted, and every such spill must be
        // quarantined like a produced file.
        let mut corrupted = 0;
        for seed in 0..64u64 {
            let tmp = TempDir::new(&format!("spillq{seed}"));
            let plan = crate::fault::FaultPlan::new(seed).with_period(1);
            let store = TraceStore::with_cache_dir(&tmp.0).with_io(StoreIo::with_plan(plan));
            store.get_or_record(dct(1), 0x11, || Ok::<_, ()>(tiny_trace(4))).expect("records");
            let path = tmp.0.join(dct(1).file_name());
            let _ = std::fs::remove_file(&path); // forces the spill
            let before = store.stats();
            let opened = store.open_stream(dct(1), 0x11, |_| -> Result<(), StreamError> {
                panic!("must spill, not re-produce")
            });
            if let Err(StreamError::Codec(e)) = opened {
                corrupted += 1;
                let after = store.stats();
                assert_eq!(after.quarantined, before.quarantined + 1, "seed {seed}: {e}");
                // A spill that failed to open is no hit.
                assert_eq!(
                    (after.hits, after.stream_opens),
                    (before.hits, before.stream_opens),
                    "seed {seed}: {e}"
                );
                assert!(tmp.0.join(QUARANTINE_DIR).join(dct(1).file_name()).exists());
                assert!(!path.exists(), "seed {seed}: the corrupt spill stayed in place");
            }
        }
        assert!(corrupted > 0, "no seed corrupted a spill");
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
        // Sequential fetches: the codec's deltas make them far smaller
        // than the events in memory.
        let fetch_events = (0..1000)
            .map(|i| TraceEvent::Fetch { pc: 0x100 + 4 * i, kind: FetchKind::Sequential })
            .collect();
        let trace = RecordedTrace { fetch_events, ..tiny_trace(1000) };
        let record = || Ok::<_, StreamError>(trace.clone());

        // A memory-only store never encodes its recordings...
        let store = TraceStore::new();
        store.get_or_record(dct(1), 0x5, record).expect("records");
        let s = store.stats();
        assert_eq!((s.raw_bytes, s.encoded_bytes), (0, 0));
        // ...until a streaming open spills one.
        let spilled = store
            .open_stream(dct(1), 0x5, |_| -> Result<(), StreamError> {
                panic!("must not re-produce")
            })
            .expect("spills");
        drop(spilled);
        let s = store.stats();
        assert_eq!(s.raw_bytes, trace.raw_size_bytes());
        assert!(s.compression_ratio() > 1.0, "{s:?}");

        // A store with a cache dir encodes the file it saves.
        let tmp = TempDir::new("compression");
        let saving = TraceStore::with_cache_dir(&tmp.0);
        saving.get_or_record(dct(1), 0x5, record).expect("records");
        let s = saving.stats();
        assert_eq!((s.files_saved, s.raw_bytes), (1, trace.raw_size_bytes()));
        assert!(s.compression_ratio() > 1.0, "{s:?}");
    }
}
