//! Deterministic fault injection for the trace store's disk paths.
//!
//! The store and the streaming codec promise to degrade gracefully: a
//! torn write, a flipped byte, a transient `EINTR` or a full disk must
//! surface as a structured error (or heal transparently), never as a
//! panic or a silently wrong result. This module supplies the machinery
//! that *proves* it:
//!
//! * [`FaultPlan`] — a seeded, purely deterministic schedule of faults.
//!   The same seed always injects the same faults at the same operation
//!   indices, so a failing chaos run replays exactly.
//! * [`FaultFile`] — a `Read`/`Write`/`Seek` wrapper around a real
//!   [`File`] that consults the plan on every operation and can deal
//!   short reads/writes, [`io::ErrorKind::Interrupted`], and — on the
//!   write side, where the damage persists and is detectable —
//!   out-of-space errors and single-byte corruption at plan-chosen
//!   offsets.
//! * [`StoreIo`] — the narrow seam the store and the streaming codec
//!   route their file operations through. The default is a zero-cost
//!   passthrough; tests attach a plan with [`StoreIo::with_plan`], and
//!   the `WAYMEM_FAULT_PLAN` environment variable (format
//!   `<seed>[:<period>]`) arms every [`StoreIo::from_env`] store for CI
//!   chaos runs without touching any production code path.
//!
//! The seam also centralizes the two recovery primitives production code
//! wants anyway: [`StoreIo::retry`], a bounded retry-with-backoff for
//! transient errors (`Interrupted`/`WouldBlock`) that feeds the store's
//! `io_retries` statistic, and [`StoreIo::write_atomic`], the unique
//! temp-file + fsync + rename write that makes cache files crash-safe.

use std::fmt;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use waymem_obs::phase::Phase;

/// Suffix every in-flight file of the seam's atomic write path carries;
/// the store's orphan sweep recognizes (and reclaims) crashed leftovers
/// by it.
pub const TEMP_SUFFIX: &str = ".tmp";

/// Maximum attempts [`StoreIo::retry`] makes before surfacing a
/// transient error as-is. Bounded so a pathologically hostile plan (or a
/// genuinely wedged file descriptor) cannot spin forever.
const MAX_RETRIES: u32 = 8;

/// Consecutive `Interrupted` injections are capped at this, so code that
/// correctly retries transients always makes progress under any plan.
const MAX_CONSECUTIVE_INTERRUPTS: u32 = 2;

/// A seeded, deterministic schedule of I/O faults: roughly one fault per
/// [`period`](FaultPlan::period) wrapped operations, with the kind and
/// any corruption offset derived from the seed and the operation index
/// alone. Two runs with the same plan over the same operation sequence
/// inject identical faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed every per-operation decision is hashed from.
    pub seed: u64,
    /// Average operations per injected fault (minimum 1 — every
    /// operation faulted).
    pub period: u32,
}

impl FaultPlan {
    /// Fault-plan period used when none is given (one fault per ~8
    /// wrapped operations — dense enough that every chaos run exercises
    /// all fault kinds).
    pub const DEFAULT_PERIOD: u32 = 8;

    /// A plan with the default period.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, period: Self::DEFAULT_PERIOD }
    }

    /// Overrides the average operations-per-fault spacing (clamped to
    /// at least 1).
    #[must_use]
    pub fn with_period(mut self, period: u32) -> Self {
        self.period = period.max(1);
        self
    }

    /// Parses the `WAYMEM_FAULT_PLAN` wire format: `<seed>` or
    /// `<seed>:<period>`, both decimal. Returns `None` for anything
    /// unparsable (an unset or malformed variable disarms injection).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        let s = s.trim();
        if s.is_empty() {
            return None;
        }
        let (seed, period) = match s.split_once(':') {
            Some((seed, period)) => (seed, Some(period)),
            None => (s, None),
        };
        let seed = seed.trim().parse::<u64>().ok()?;
        let plan = FaultPlan::new(seed);
        match period {
            Some(p) => Some(plan.with_period(p.trim().parse::<u32>().ok()?)),
            None => Some(plan),
        }
    }
}

/// What one operation is dealt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    /// The operation fails with [`io::ErrorKind::Interrupted`].
    Interrupted,
    /// Only part of the buffer is transferred (callers must loop).
    Short,
    /// One byte of the transferred data is XOR-flipped.
    Corrupt {
        /// Plan-chosen offset, reduced modulo the transfer length.
        offset: usize,
        /// Nonzero XOR mask applied to the byte.
        mask: u8,
    },
    /// A write fails with [`io::ErrorKind::StorageFull`].
    NoSpace,
}

/// SplitMix64: a well-mixed 64-bit hash of (seed, op index) — the whole
/// source of the plan's determinism.
fn mix(seed: u64, op: u64) -> u64 {
    let mut z = seed ^ op.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The live state a plan accumulates while injecting: a global operation
/// counter (shared by every file the same [`StoreIo`] opens, so the
/// schedule covers a whole store run) plus bookkeeping that keeps
/// injection bounded.
#[derive(Debug)]
struct FaultState {
    plan: FaultPlan,
    ops: AtomicU64,
    injected: AtomicU64,
    consecutive_interrupts: AtomicU32,
}

impl FaultState {
    fn new(plan: FaultPlan) -> Self {
        FaultState {
            plan,
            ops: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            consecutive_interrupts: AtomicU32::new(0),
        }
    }

    /// Decides the fate of the next operation. `write` selects the
    /// write-side fault menu (out-of-space and corruption are write-only
    /// — see below); `len` is the transfer size (tiny transfers skip
    /// short-op faults — there is nothing to shorten).
    fn decide(&self, write: bool, len: usize) -> Option<Fault> {
        let op = self.ops.fetch_add(1, Ordering::Relaxed);
        let r = mix(self.plan.seed, op);
        if !r.is_multiple_of(u64::from(self.plan.period)) {
            self.consecutive_interrupts.store(0, Ordering::Relaxed);
            return None;
        }
        let fault = match ((r >> 32) % 8, write) {
            // Transients are the most common real-world fault; make them
            // the most common injected one so retry paths stay hot.
            (0..=2, _) => Fault::Interrupted,
            (3 | 4, _) if len > 1 => Fault::Short,
            (5, true) => Fault::NoSpace,
            // Corruption is write-only: corrupt bytes that land on disk
            // are persistent and detectable (the checksum pass catches
            // them at open). Dealing *transient* corruption to reads —
            // different bytes on each pass over the same region — would
            // model in-memory corruption, which no on-disk format can
            // defend against; reads take a short read instead.
            (6 | 7, true) => Fault::Corrupt {
                offset: usize::try_from(r >> 40).unwrap_or(0),
                mask: (((r >> 16) & 0xff) as u8) | 1,
            },
            (_, false) if len > 1 => Fault::Short,
            _ => Fault::Interrupted,
        };
        if fault == Fault::Interrupted {
            // Cap runs of Interrupted so bounded retry loops always win.
            let streak = self.consecutive_interrupts.fetch_add(1, Ordering::Relaxed);
            if streak >= MAX_CONSECUTIVE_INTERRUPTS {
                self.consecutive_interrupts.store(0, Ordering::Relaxed);
                return None;
            }
        } else {
            self.consecutive_interrupts.store(0, Ordering::Relaxed);
        }
        if self.injected.fetch_add(1, Ordering::Relaxed) == 0 {
            // An armed chaos run's first injection is the moment worth a
            // black box: everything after it runs under fault pressure.
            // Once per process — per-plan dumps would overwrite each
            // other with strictly less context.
            static FIRST_INJECTION: std::sync::Once = std::sync::Once::new();
            FIRST_INJECTION.call_once(|| {
                waymem_obs::flight::note(
                    "fault.first_injection",
                    &[
                        ("seed", self.plan.seed.to_string()),
                        ("period", self.plan.period.to_string()),
                    ],
                );
                waymem_obs::flight::dump_on_incident("fault.first_injection");
            });
        }
        Some(fault)
    }
}

/// A [`File`] wrapper that injects the faults its [`StoreIo`]'s plan
/// schedules. With no plan attached every operation is a direct
/// passthrough.
#[derive(Debug)]
pub struct FaultFile {
    inner: File,
    state: Option<Arc<FaultState>>,
    scratch: Vec<u8>,
}

impl FaultFile {
    /// Flushes file contents (and metadata) to the storage device —
    /// [`File::sync_all`] through the wrapper.
    ///
    /// # Errors
    ///
    /// Propagates the underlying fsync failure.
    pub fn sync_all(&self) -> io::Result<()> {
        self.inner.sync_all()
    }
}

fn interrupted() -> io::Error {
    io::Error::new(io::ErrorKind::Interrupted, "injected transient interrupt")
}

impl Read for FaultFile {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let fault = self.state.as_ref().and_then(|s| s.decide(false, buf.len()));
        match fault {
            Some(Fault::Interrupted) => Err(interrupted()),
            Some(Fault::Short) => {
                let cap = (buf.len() / 2).max(1);
                self.inner.read(&mut buf[..cap])
            }
            // NoSpace and Corrupt are write-only; `decide` never deals
            // them to reads.
            Some(Fault::Corrupt { .. } | Fault::NoSpace) | None => self.inner.read(buf),
        }
    }
}

impl Write for FaultFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let fault = self.state.as_ref().and_then(|s| s.decide(true, buf.len()));
        match fault {
            Some(Fault::Interrupted) => Err(interrupted()),
            Some(Fault::NoSpace) => Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "injected out-of-space",
            )),
            Some(Fault::Short) => {
                let cap = (buf.len() / 2).max(1);
                self.inner.write(&buf[..cap])
            }
            Some(Fault::Corrupt { offset, mask }) => {
                if buf.is_empty() {
                    return self.inner.write(buf);
                }
                self.scratch.clear();
                self.scratch.extend_from_slice(buf);
                let at = offset % self.scratch.len();
                self.scratch[at] ^= mask;
                self.inner.write(&self.scratch)
            }
            None => self.inner.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl Seek for FaultFile {
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        self.inner.seek(pos)
    }
}

/// The file-operation seam the trace store and streaming codec run
/// through: a (possibly armed) fault plan plus the shared transient-retry
/// counter the store exports as `io_retries`.
///
/// Cloning is cheap and shares both the plan state and the counter, so
/// one seam threads through a store, its encoders and every streaming
/// handle it opens.
#[derive(Debug, Clone, Default)]
pub struct StoreIo {
    state: Option<Arc<FaultState>>,
    retries: Arc<AtomicU64>,
}

impl StoreIo {
    /// The production seam: no faults, zero per-operation overhead
    /// beyond an `Option` check.
    #[must_use]
    pub fn passthrough() -> Self {
        Self::default()
    }

    /// A seam armed with `plan` — every file opened through it injects
    /// the plan's fault schedule.
    #[must_use]
    pub fn with_plan(plan: FaultPlan) -> Self {
        StoreIo {
            state: Some(Arc::new(FaultState::new(plan))),
            retries: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The seam a process wires from its environment: armed with the
    /// `WAYMEM_FAULT_PLAN` plan (`<seed>[:<period>]`) when the variable
    /// is set and parsable, a passthrough otherwise. The variable is
    /// read once per process.
    #[must_use]
    pub fn from_env() -> Self {
        static PLAN: OnceLock<Option<FaultPlan>> = OnceLock::new();
        let plan = PLAN.get_or_init(|| {
            std::env::var("WAYMEM_FAULT_PLAN").ok().as_deref().and_then(FaultPlan::parse)
        });
        match plan {
            Some(p) => Self::with_plan(*p),
            None => Self::passthrough(),
        }
    }

    /// `true` when a fault plan is armed.
    #[must_use]
    pub fn is_armed(&self) -> bool {
        self.state.is_some()
    }

    /// Faults injected so far (0 for a passthrough seam).
    #[must_use]
    pub fn faults_injected(&self) -> u64 {
        self.state.as_ref().map_or(0, |s| s.injected.load(Ordering::Relaxed))
    }

    /// Transient-error retries performed by [`retry`](Self::retry) so
    /// far — the store's `io_retries` statistic.
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    fn wrap(&self, inner: File) -> FaultFile {
        FaultFile {
            inner,
            state: self.state.clone(),
            scratch: Vec::new(),
        }
    }

    /// Opens `path` read-only through the seam.
    ///
    /// # Errors
    ///
    /// Propagates the open failure (opens themselves are not faulted —
    /// the interesting failures live in the transfers).
    pub fn open(&self, path: &Path) -> io::Result<FaultFile> {
        Ok(self.wrap(File::open(path)?))
    }

    /// Creates (truncating) `path` for writing through the seam.
    ///
    /// # Errors
    ///
    /// Propagates the create failure.
    pub fn create(&self, path: &Path) -> io::Result<FaultFile> {
        Ok(self.wrap(File::create(path)?))
    }

    /// Runs `op`, retrying transient failures
    /// (`Interrupted`/`WouldBlock`) with a short exponential backoff, at
    /// most `MAX_RETRIES` extra attempts. Every retry is counted into
    /// [`retries`](Self::retries). Non-transient errors surface
    /// immediately.
    ///
    /// `op` must be restartable from scratch: it is re-invoked whole, so
    /// partial-progress operations (a half-advanced `read_exact`) do not
    /// belong here — use [`read_full`] for those.
    ///
    /// # Errors
    ///
    /// The first non-transient error, or the last transient one once the
    /// attempt budget is exhausted.
    pub fn retry<T>(&self, mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
        let mut attempt = 0u32;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) if is_transient(&e) && attempt < MAX_RETRIES => {
                    attempt += 1;
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    if attempt > 2 {
                        std::thread::sleep(Duration::from_micros(100 << attempt.min(6)));
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// A process-unique in-flight path for an atomic write targeting
    /// `path`: `<path>.p<pid>-<seq>.tmp`. The embedded pid lets the
    /// store's orphan sweep tell a crashed process's leftovers from a
    /// live writer's.
    #[must_use]
    pub fn temp_path(path: &Path) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let mut os = path.as_os_str().to_owned();
        os.push(format!(".p{}-{n}{TEMP_SUFFIX}", std::process::id()));
        PathBuf::from(os)
    }

    /// Writes `bytes` to `path` crash-safely: a process-unique temp file
    /// in the same directory, fsync, then an atomic rename over the
    /// final name. A reader never observes a torn file — it sees the old
    /// contents or the new, nothing in between. Transient errors are
    /// retried; on any failure the temp file is removed.
    ///
    /// # Errors
    ///
    /// The first non-transient failure creating, writing, syncing or
    /// renaming.
    pub fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let _phase = waymem_obs::phase::enter(Phase::Io);
        let _span = waymem_obs::span!("store.io.write", bytes = bytes.len());
        let started = Instant::now();
        let tmp = Self::temp_path(path);
        let result = (|| {
            let mut file = self.create(&tmp)?;
            let mut written = 0usize;
            while written < bytes.len() {
                let n = self.retry(|| file.write(&bytes[written..]))?;
                if n == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "atomic write made no progress",
                    ));
                }
                written += n;
            }
            self.retry(|| file.flush())?;
            file.sync_all()?;
            drop(file);
            std::fs::rename(&tmp, path)
        })();
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        waymem_obs::histogram!("store.io.write_ns").record(elapsed_ns(started));
        result
    }
}

/// Nanoseconds since `started`, saturating — the latency-histogram unit.
fn elapsed_ns(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The writer pid a [`StoreIo::temp_path`] name embeds
/// (`<name>.p<pid>-<seq>.tmp`: an atomic write's temp, or a streaming
/// encoder's section spool such as `<name>.fetch.p<pid>-<seq>.tmp`), or
/// `None` for temp files that do not follow the convention.
pub(crate) fn temp_owner_pid(name: &str) -> Option<u32> {
    let stem = name.strip_suffix(TEMP_SUFFIX)?;
    let at = stem.rfind(".p")?;
    let (pid, seq) = stem[at + 2..].split_once('-')?;
    if seq.is_empty() || !seq.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    pid.parse().ok()
}

/// Whether an I/O error is worth retrying in place.
#[must_use]
pub fn is_transient(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock)
}

/// Fills `buf` completely from `reader`, retrying transient errors
/// (counted into `io`'s retry statistic) and looping over short reads —
/// the partial-progress-safe sibling of [`StoreIo::retry`] +
/// `read_exact`.
///
/// # Errors
///
/// `UnexpectedEof` if the reader ends early; otherwise the first
/// non-transient read error.
pub fn read_full(reader: &mut impl Read, buf: &mut [u8], io: &StoreIo) -> io::Result<()> {
    let mut filled = 0usize;
    while filled < buf.len() {
        let n = io.retry(|| reader.read(&mut buf[filled..]))?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "file ended before the expected byte count",
            ));
        }
        filled += n;
    }
    Ok(())
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.seed, self.period)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_parse_round_trips() {
        assert_eq!(FaultPlan::parse("42"), Some(FaultPlan::new(42)));
        assert_eq!(FaultPlan::parse("42:5"), Some(FaultPlan::new(42).with_period(5)));
        assert_eq!(FaultPlan::parse(" 7 : 3 "), Some(FaultPlan::new(7).with_period(3)));
        assert_eq!(FaultPlan::parse(""), None);
        assert_eq!(FaultPlan::parse("nope"), None);
        assert_eq!(FaultPlan::parse("1:x"), None);
        let p = FaultPlan::new(9).with_period(0);
        assert_eq!(p.period, 1, "period clamps to at least 1");
        assert_eq!(FaultPlan::parse(&FaultPlan::new(3).with_period(4).to_string()),
            Some(FaultPlan::new(3).with_period(4)));
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = FaultState::new(FaultPlan::new(0xdead).with_period(3));
        let b = FaultState::new(FaultPlan::new(0xdead).with_period(3));
        let seq_a: Vec<_> = (0..256).map(|_| a.decide(false, 64)).collect();
        let seq_b: Vec<_> = (0..256).map(|_| b.decide(false, 64)).collect();
        assert_eq!(seq_a, seq_b);
        assert!(seq_a.iter().any(Option::is_some), "a period-3 plan must fault");
        assert!(seq_a.iter().any(Option::is_none), "a period-3 plan must also pass ops");
    }

    #[test]
    fn interrupt_streaks_are_bounded() {
        // Whatever the seed, no schedule may deal more consecutive
        // Interrupted faults than a bounded retry loop tolerates.
        for seed in 0..32u64 {
            let s = FaultState::new(FaultPlan::new(seed).with_period(1));
            let mut streak = 0u32;
            for _ in 0..4096 {
                if s.decide(true, 64) == Some(Fault::Interrupted) {
                    streak += 1;
                    assert!(streak <= MAX_CONSECUTIVE_INTERRUPTS, "seed {seed}");
                } else {
                    streak = 0;
                }
            }
        }
    }

    #[test]
    fn temp_paths_embed_a_parsable_owner_pid() {
        let tmp = StoreIo::temp_path(Path::new("/cache/dct-s1.wmtr"));
        let name = tmp.file_name().and_then(|n| n.to_str()).expect("utf8 name");
        assert_eq!(temp_owner_pid(name), Some(std::process::id()));
        assert_eq!(temp_owner_pid("dct-s1.wmtr.fetch.tmp"), None);
        assert_eq!(temp_owner_pid("dct-s1.wmtr.p12-x.tmp"), None);
        assert_eq!(temp_owner_pid("plain.tmp"), None);
    }

    #[test]
    fn retry_counts_and_recovers() {
        let io = StoreIo::passthrough();
        let mut remaining = 3;
        let v = io
            .retry(|| {
                if remaining > 0 {
                    remaining -= 1;
                    Err(interrupted())
                } else {
                    Ok(42)
                }
            })
            .expect("recovers");
        assert_eq!(v, 42);
        assert_eq!(io.retries(), 3);
        // Non-transient errors surface immediately, uncounted.
        let err = io.retry(|| Err::<(), _>(io::Error::new(io::ErrorKind::NotFound, "gone")));
        assert_eq!(err.unwrap_err().kind(), io::ErrorKind::NotFound);
        assert_eq!(io.retries(), 3);
    }

    #[test]
    fn retry_budget_is_bounded() {
        let io = StoreIo::passthrough();
        let err = io.retry(|| Err::<(), _>(interrupted()));
        assert_eq!(err.unwrap_err().kind(), io::ErrorKind::Interrupted);
        assert_eq!(io.retries(), u64::from(MAX_RETRIES));
    }

    #[test]
    fn write_atomic_leaves_no_temp_and_round_trips() {
        let dir = std::env::temp_dir().join(format!("waymem-fault-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("x.bin");
        let io = StoreIo::passthrough();
        io.write_atomic(&path, b"hello").expect("writes");
        assert_eq!(std::fs::read(&path).expect("reads"), b"hello");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .expect("readdir")
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn armed_seam_faults_and_passthrough_does_not() {
        let dir = std::env::temp_dir()
            .join(format!("waymem-fault-armed-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("y.bin");
        std::fs::write(&path, vec![0u8; 1 << 16]).expect("seed file");

        // The whole file reads through the quiet seam, to its end.
        let quiet = StoreIo::passthrough();
        let mut file = quiet.open(&path).expect("opens");
        let mut bytes = vec![1u8; 1 << 16];
        read_full(&mut file, &mut bytes, &quiet).expect("reads");
        assert_eq!(bytes, vec![0u8; 1 << 16]);
        assert_eq!(file.read(&mut [0u8; 1]).expect("reads EOF"), 0);
        assert_eq!(quiet.faults_injected(), 0);

        // Every-op plan: reading the same file must inject something.
        let noisy = StoreIo::with_plan(FaultPlan::new(1).with_period(1));
        let _ = read_full(&mut noisy.open(&path).expect("opens"), &mut bytes, &noisy);
        assert!(noisy.faults_injected() > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
