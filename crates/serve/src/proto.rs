//! The wire protocol: versioned, length-prefixed binary frames.
//!
//! Every message — request or response — travels as one frame:
//!
//! ```text
//! [ len: u32 BE ][ payload: len bytes ]
//! payload = [ magic: u32 BE ][ version: u16 BE ][ kind: u8 ][ body ... ]
//! ```
//!
//! `len` counts the payload only. The magic word pins the stream as a
//! waymem-serve conversation (a stray HTTP client gets a structured
//! `BadRequest`, not a hang), the version gates compatibility, and the
//! kind byte selects the body grammar. All integers are big-endian;
//! strings are length-prefixed UTF-8; floats travel as IEEE-754 bit
//! patterns so results stay bit-identical across the wire.
//!
//! The codec is hand-rolled over `std::io` for the same reason the
//! bench JSON writer is: the build environment is offline and the
//! vendored `serde` is a no-op derive stub. Decoding never panics —
//! every malformed byte sequence becomes a [`ProtoError`] the server
//! answers with a structured error reply.

use std::fmt;
use std::io::{self, Read, Write};

use waymem_cache::Geometry;
use waymem_hwmodel::Technology;
use waymem_trace::WorkloadId;

/// Frame magic: `"WMS1"` as a big-endian word.
pub const MAGIC: u32 = 0x574D_5331;
/// Protocol version this build speaks.
pub const VERSION: u16 = 1;
/// Hard ceiling on a single frame's payload. Requests are tiny and
/// responses carry one experiment's JSON (a few KiB), so anything
/// larger is a framing error, not a big message.
pub const MAX_FRAME: u32 = 1 << 20;
/// The most ways a request's cache may have: the cache model keeps one
/// byte of recency per way.
const MAX_WAYS: u32 = 255;
/// The most cache lines (sets × ways) a request's cache may have, 1,024
/// times the paper's 1,024. Every front allocates state per line, and a
/// failed allocation cannot be turned into an error reply.
const MAX_LINES: u64 = 1 << 20;

/// Which scheme front-ends a [`RunRequest`] replays.
///
/// The wire carries a selector rather than free-form scheme lists: the
/// presets are the configurations the paper's tables use, and a closed
/// enum keeps version-1 requests unambiguous.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchemeSet {
    /// `Original` + the paper's way-memoization point, both sides —
    /// the headline comparison. The default.
    #[default]
    Paper,
    /// All seven ablation points per side ([`waymem_sim::full_dschemes`]
    /// / [`waymem_sim::full_ischemes`]).
    Full,
    /// The conventional caches only — a baseline-measurement probe.
    Baseline,
}

impl SchemeSet {
    fn code(self) -> u8 {
        match self {
            SchemeSet::Paper => 0,
            SchemeSet::Full => 1,
            SchemeSet::Baseline => 2,
        }
    }

    fn from_code(code: u8) -> Result<Self, ProtoError> {
        match code {
            0 => Ok(SchemeSet::Paper),
            1 => Ok(SchemeSet::Full),
            2 => Ok(SchemeSet::Baseline),
            _ => Err(ProtoError::Malformed("unknown scheme-set code")),
        }
    }
}

/// One experiment: workload × geometry × technology × scheme set.
///
/// The workload travels in its [`WorkloadId::file_name`] form — the
/// same codec the trace store uses on disk, so every workload the
/// store can hold is expressible on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRequest {
    /// What to simulate.
    pub workload: WorkloadId,
    /// Cache geometry, both sides.
    pub geometry: Geometry,
    /// Process/voltage/frequency point for the power model.
    pub technology: Technology,
    /// Which scheme front-ends to replay.
    pub schemes: SchemeSet,
}

impl RunRequest {
    /// A request for `workload` at the paper's platform defaults
    /// (FR-V geometry, 0.13 µm technology, paper scheme pair).
    #[must_use]
    pub fn new(workload: WorkloadId) -> Self {
        RunRequest {
            workload,
            geometry: Geometry::frv(),
            technology: Technology::frv_0130(),
            schemes: SchemeSet::Paper,
        }
    }

    /// The single-flight identity: two requests with equal fingerprints
    /// are the same experiment and may share one execution. FNV-1a over
    /// the canonical body encoding, so the fingerprint is exactly as
    /// discriminating as the wire format itself.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut body = Vec::with_capacity(64);
        self.encode_body(&mut body);
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for b in body {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    fn encode_body(&self, out: &mut Vec<u8>) {
        put_str16(out, &self.workload.file_name());
        out.extend_from_slice(&self.geometry.sets().to_be_bytes());
        out.extend_from_slice(&self.geometry.ways().to_be_bytes());
        out.extend_from_slice(&self.geometry.line_bytes().to_be_bytes());
        out.extend_from_slice(&self.technology.feature_nm.to_be_bytes());
        out.extend_from_slice(&self.technology.vdd.to_bits().to_be_bytes());
        out.extend_from_slice(&self.technology.freq_hz.to_bits().to_be_bytes());
        out.extend_from_slice(&self.technology.max_freq_hz.to_bits().to_be_bytes());
        out.push(self.schemes.code());
    }

    fn decode_body(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
        let name = r.str16()?;
        let workload = WorkloadId::from_file_name(&name)
            .ok_or(ProtoError::Malformed("unparseable workload id"))?;
        let sets = r.u32()?;
        let ways = r.u32()?;
        let line_bytes = r.u32()?;
        let geometry = Geometry::new(sets, ways, line_bytes)
            .map_err(|_| ProtoError::Malformed("invalid geometry"))?;
        if ways > MAX_WAYS {
            return Err(ProtoError::Malformed("more than 255 ways"));
        }
        if u64::from(sets) * u64::from(ways) > MAX_LINES {
            return Err(ProtoError::Malformed("more than 2^20 cache lines"));
        }
        let technology = Technology {
            feature_nm: r.u32()?,
            vdd: f64::from_bits(r.u64()?),
            freq_hz: f64::from_bits(r.u64()?),
            max_freq_hz: f64::from_bits(r.u64()?),
        };
        if !technology.vdd.is_finite()
            || !technology.freq_hz.is_finite()
            || !technology.max_freq_hz.is_finite()
            || technology.max_freq_hz <= 0.0
        {
            return Err(ProtoError::Malformed("invalid technology"));
        }
        let schemes = SchemeSet::from_code(r.u8()?)?;
        Ok(RunRequest { workload, geometry, technology, schemes })
    }
}

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered with an empty `Ok`.
    Ping,
    /// Execute (or join) one experiment.
    Run(RunRequest),
    /// Fetch the daemon's observability snapshot as JSON.
    Stats,
    /// Begin graceful drain: in-flight work finishes, new runs are
    /// refused, the daemon exits once idle.
    Shutdown,
}

impl Request {
    fn kind(&self) -> u8 {
        match self {
            Request::Ping => 1,
            Request::Run(_) => 2,
            Request::Stats => 3,
            Request::Shutdown => 4,
        }
    }
}

/// A server → client reply status. The wire kind byte of a response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The request succeeded; the body depends on the request kind.
    Ok,
    /// The frame was malformed (bad magic/version/body). The connection
    /// is closed after this reply — framing may be out of sync.
    BadRequest,
    /// The admission queue is full; retry later.
    Overloaded,
    /// The experiment did not finish within the server's per-request
    /// budget. The work keeps running and warms the store for a retry.
    Timeout,
    /// The experiment itself failed (a structured `RunError`).
    Error,
    /// The server is draining and accepts no new runs.
    Draining,
}

impl Status {
    fn code(self) -> u8 {
        match self {
            Status::Ok => 0,
            Status::BadRequest => 1,
            Status::Overloaded => 2,
            Status::Timeout => 3,
            Status::Error => 4,
            Status::Draining => 5,
        }
    }

    fn from_code(code: u8) -> Result<Self, ProtoError> {
        match code {
            0 => Ok(Status::Ok),
            1 => Ok(Status::BadRequest),
            2 => Ok(Status::Overloaded),
            3 => Ok(Status::Timeout),
            4 => Ok(Status::Error),
            5 => Ok(Status::Draining),
            _ => Err(ProtoError::Malformed("unknown status code")),
        }
    }
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `Ping` succeeded.
    Pong,
    /// `Run` succeeded: the experiment's result JSON, plus whether this
    /// reply was deduplicated onto another request's execution.
    RunOk {
        /// `true` when single-flight dedup shared an in-flight
        /// execution instead of enqueueing a new one.
        shared: bool,
        /// The `waymem/serve-result/v2` JSON object: the schema tag and
        /// the run's [`result_json`](crate::server::result_json) under
        /// `"result"`. Rendering is deterministic, so byte-equal JSON
        /// means bit-equal results.
        result_json: String,
    },
    /// `Stats` succeeded: the daemon's obs snapshot JSON.
    StatsOk {
        /// [`waymem_obs::snapshot::Snapshot::to_json`], rendered.
        snapshot_json: String,
    },
    /// `Shutdown` acknowledged; drain has begun.
    ShutdownOk,
    /// Any non-`Ok` status, with a human-readable reason.
    Refused {
        /// Why the request was not served.
        status: Status,
        /// Diagnostic detail.
        message: String,
    },
}

/// Everything that can go wrong encoding, decoding, or transporting a
/// frame.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying socket failed.
    Io(io::Error),
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// The frame did not start with [`MAGIC`].
    BadMagic(u32),
    /// The peer speaks a different protocol version.
    BadVersion(u16),
    /// The declared payload length exceeds [`MAX_FRAME`].
    Oversize(u32),
    /// The payload did not match its kind's grammar.
    Malformed(&'static str),
    /// A string field held invalid UTF-8.
    BadUtf8,
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "socket error: {e}"),
            ProtoError::Closed => write!(f, "connection closed"),
            ProtoError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            ProtoError::BadVersion(v) => {
                write!(f, "protocol version {v} (this build speaks {VERSION})")
            }
            ProtoError::Oversize(n) => write!(f, "frame of {n} bytes exceeds {MAX_FRAME}"),
            ProtoError::Malformed(what) => write!(f, "malformed frame: {what}"),
            ProtoError::BadUtf8 => write!(f, "malformed frame: invalid UTF-8"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

impl ProtoError {
    /// Whether the failure is the peer's fault (malformed bytes) rather
    /// than the transport's — the cases a server answers with
    /// [`Status::BadRequest`] before closing.
    #[must_use]
    pub fn is_peer_fault(&self) -> bool {
        matches!(
            self,
            ProtoError::BadMagic(_)
                | ProtoError::BadVersion(_)
                | ProtoError::Oversize(_)
                | ProtoError::Malformed(_)
                | ProtoError::BadUtf8
        )
    }
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_str16(out: &mut Vec<u8>, s: &str) {
    let len = u16::try_from(s.len()).unwrap_or(u16::MAX);
    let s = &s.as_bytes()[..usize::from(len)];
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(s);
}

fn put_str32(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let len = u32::try_from(bytes.len()).unwrap_or(u32::MAX);
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(&bytes[..len as usize]);
}

fn frame(kind: u8, body: &[u8]) -> Vec<u8> {
    let payload_len = 4 + 2 + 1 + body.len();
    let mut out = Vec::with_capacity(4 + payload_len);
    out.extend_from_slice(&u32::try_from(payload_len).unwrap_or(u32::MAX).to_be_bytes());
    out.extend_from_slice(&MAGIC.to_be_bytes());
    out.extend_from_slice(&VERSION.to_be_bytes());
    out.push(kind);
    out.extend_from_slice(body);
    out
}

/// Writes `req` as one frame.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_request(w: &mut impl Write, req: &Request) -> Result<(), ProtoError> {
    let mut body = Vec::new();
    if let Request::Run(run) = req {
        run.encode_body(&mut body);
    }
    w.write_all(&frame(req.kind(), &body))?;
    w.flush()?;
    Ok(())
}

/// Writes `resp` as one frame.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_response(w: &mut impl Write, resp: &Response) -> Result<(), ProtoError> {
    let (status, mut body) = (response_status(resp), Vec::new());
    match resp {
        Response::Pong | Response::ShutdownOk => {}
        Response::RunOk { shared, result_json } => {
            body.push(u8::from(*shared));
            put_str32(&mut body, result_json);
        }
        Response::StatsOk { snapshot_json } => put_str32(&mut body, snapshot_json),
        Response::Refused { message, .. } => put_str16(&mut body, message),
    }
    w.write_all(&frame(status.code(), &body))?;
    w.flush()?;
    Ok(())
}

fn response_status(resp: &Response) -> Status {
    match resp {
        Response::Pong | Response::RunOk { .. } | Response::StatsOk { .. }
        | Response::ShutdownOk => Status::Ok,
        Response::Refused { status, .. } => *status,
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.buf.len() < n {
            return Err(ProtoError::Malformed("truncated payload"));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().expect("took 2")))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().expect("took 4")))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().expect("took 8")))
    }

    fn str16(&mut self) -> Result<String, ProtoError> {
        let len = usize::from(self.u16()?);
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtoError::BadUtf8)
    }

    fn str32(&mut self) -> Result<String, ProtoError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtoError::BadUtf8)
    }

    fn done(&self) -> Result<(), ProtoError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(ProtoError::Malformed("trailing bytes"))
        }
    }
}

/// Reads one raw frame: returns the `(kind, body)` of a validated
/// payload. Fails fast on bad magic/version/length before reading the
/// body, so a garbage peer costs at most one header.
fn read_frame(r: &mut impl Read) -> Result<(u8, Vec<u8>), ProtoError> {
    let mut len_buf = [0u8; 4];
    if let Err(e) = r.read_exact(&mut len_buf) {
        return Err(if e.kind() == io::ErrorKind::UnexpectedEof {
            ProtoError::Closed
        } else {
            ProtoError::Io(e)
        });
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(ProtoError::Oversize(len));
    }
    if len < 7 {
        return Err(ProtoError::Malformed("payload shorter than header"));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let mut rd = Reader { buf: &payload };
    let magic = rd.u32()?;
    if magic != MAGIC {
        return Err(ProtoError::BadMagic(magic));
    }
    let version = rd.u16()?;
    if version != VERSION {
        return Err(ProtoError::BadVersion(version));
    }
    let kind = rd.u8()?;
    Ok((kind, rd.buf.to_vec()))
}

/// Reads one request frame.
///
/// # Errors
///
/// [`ProtoError::Closed`] on clean EOF between frames; peer-fault
/// variants on malformed bytes; [`ProtoError::Io`] on transport
/// failures.
pub fn read_request(r: &mut impl Read) -> Result<Request, ProtoError> {
    let (kind, body) = read_frame(r)?;
    let mut rd = Reader { buf: &body };
    let req = match kind {
        1 => Request::Ping,
        2 => Request::Run(RunRequest::decode_body(&mut rd)?),
        3 => Request::Stats,
        4 => Request::Shutdown,
        _ => return Err(ProtoError::Malformed("unknown request kind")),
    };
    rd.done()?;
    Ok(req)
}

/// Reads one response frame. The caller supplies the request kind it is
/// an answer to, so `Ok` bodies decode under the right grammar.
///
/// # Errors
///
/// Same surface as [`read_request`].
pub fn read_response(r: &mut impl Read, answered: &Request) -> Result<Response, ProtoError> {
    let (code, body) = read_frame(r)?;
    let status = Status::from_code(code)?;
    let mut rd = Reader { buf: &body };
    let resp = if status == Status::Ok {
        match answered {
            Request::Ping => Response::Pong,
            Request::Run(_) => Response::RunOk {
                shared: rd.u8()? != 0,
                result_json: rd.str32()?,
            },
            Request::Stats => Response::StatsOk { snapshot_json: rd.str32()? },
            Request::Shutdown => Response::ShutdownOk,
        }
    } else {
        Response::Refused { status, message: rd.str16()? }
    };
    rd.done()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use waymem_trace::{SynthPattern, SynthSpec};

    fn sample_run() -> RunRequest {
        RunRequest::new(WorkloadId::Synthetic(SynthSpec {
            pattern: SynthPattern::Stream,
            accesses: 1000,
            seed: 7,
        }))
    }

    fn round_trip_request(req: &Request) -> Request {
        let mut wire = Vec::new();
        write_request(&mut wire, req).expect("encode");
        read_request(&mut wire.as_slice()).expect("decode")
    }

    #[test]
    fn requests_round_trip_bit_exactly() {
        for req in [
            Request::Ping,
            Request::Stats,
            Request::Shutdown,
            Request::Run(sample_run()),
            Request::Run(RunRequest { schemes: SchemeSet::Full, ..sample_run() }),
        ] {
            assert_eq!(round_trip_request(&req), req);
        }
    }

    #[test]
    fn responses_round_trip_under_their_request_grammar() {
        let cases: Vec<(Request, Response)> = vec![
            (Request::Ping, Response::Pong),
            (Request::Shutdown, Response::ShutdownOk),
            (
                Request::Run(sample_run()),
                Response::RunOk { shared: true, result_json: "{\"x\":1}".into() },
            ),
            (Request::Stats, Response::StatsOk { snapshot_json: "{}".into() }),
            (
                Request::Run(sample_run()),
                Response::Refused { status: Status::Overloaded, message: "queue full".into() },
            ),
        ];
        for (req, resp) in cases {
            let mut wire = Vec::new();
            write_response(&mut wire, &resp).expect("encode");
            let got = read_response(&mut wire.as_slice(), &req).expect("decode");
            assert_eq!(got, resp);
        }
    }

    #[test]
    fn garbage_and_truncation_become_structured_errors_not_panics() {
        // An HTTP peer: wrong magic.
        let mut http = Vec::new();
        http.extend_from_slice(&20u32.to_be_bytes());
        http.extend_from_slice(b"GET / HTTP/1.1\r\nHost");
        assert!(matches!(read_request(&mut http.as_slice()), Err(ProtoError::BadMagic(_))));

        // A frame claiming more than MAX_FRAME.
        let huge = (MAX_FRAME + 1).to_be_bytes();
        assert!(matches!(read_request(&mut huge.as_slice()), Err(ProtoError::Oversize(_))));

        // A version from the future.
        let mut future = Vec::new();
        future.extend_from_slice(&7u32.to_be_bytes());
        future.extend_from_slice(&MAGIC.to_be_bytes());
        future.extend_from_slice(&9u16.to_be_bytes());
        future.push(1);
        assert!(matches!(read_request(&mut future.as_slice()), Err(ProtoError::BadVersion(9))));

        // Every truncation of a valid Run frame fails structurally.
        let mut wire = Vec::new();
        write_request(&mut wire, &Request::Run(sample_run())).expect("encode");
        for cut in 0..wire.len() {
            let got = read_request(&mut &wire[..cut]);
            assert!(got.is_err(), "truncation at {cut} must not decode");
        }

        // Trailing bytes after a complete body are rejected too.
        let mut padded = wire.clone();
        let len = u32::from_be_bytes(padded[..4].try_into().expect("len"));
        padded[..4].copy_from_slice(&(len + 1).to_be_bytes());
        padded.push(0xFF);
        assert!(matches!(
            read_request(&mut padded.as_slice()),
            Err(ProtoError::Malformed("trailing bytes"))
        ));
    }

    fn decode_geometry(sets: u32, ways: u32, line_bytes: u32) -> Result<Request, ProtoError> {
        let geometry = Geometry::new(sets, ways, line_bytes).expect("a valid geometry");
        let mut wire = Vec::new();
        write_request(&mut wire, &Request::Run(RunRequest { geometry, ..sample_run() }))
            .expect("encode");
        read_request(&mut wire.as_slice())
    }

    #[test]
    fn more_than_255_ways_is_malformed() {
        assert!(decode_geometry(1, 128, 16).is_ok());
        assert!(matches!(
            decode_geometry(1, 256, 16),
            Err(ProtoError::Malformed("more than 255 ways"))
        ));
    }

    #[test]
    fn more_than_2_20_cache_lines_is_malformed() {
        assert!(decode_geometry(1 << 16, 16, 16).is_ok());
        assert!(matches!(
            decode_geometry(1 << 17, 16, 16),
            Err(ProtoError::Malformed("more than 2^20 cache lines"))
        ));
        assert!(matches!(
            decode_geometry(1 << 24, 16, 16),
            Err(ProtoError::Malformed("more than 2^20 cache lines"))
        ));
    }

    #[test]
    fn fingerprints_separate_every_request_dimension() {
        let base = sample_run();
        let mut variants = vec![base.clone()];
        variants.push(RunRequest { schemes: SchemeSet::Full, ..base.clone() });
        variants.push(RunRequest {
            geometry: Geometry::new(256, 4, 32).expect("geometry"),
            ..base.clone()
        });
        variants.push(RunRequest {
            technology: Technology { vdd: 1.1, ..Technology::frv_0130() },
            ..base.clone()
        });
        variants.push(RunRequest {
            workload: WorkloadId::Synthetic(SynthSpec {
                pattern: SynthPattern::Stream,
                accesses: 1001,
                seed: 7,
            }),
            ..base
        });
        let prints: Vec<u64> = variants.iter().map(RunRequest::fingerprint).collect();
        for (i, a) in prints.iter().enumerate() {
            for (j, b) in prints.iter().enumerate() {
                assert_eq!(a == b, i == j, "fingerprint collision between {i} and {j}");
            }
        }
        // And equality is stable: same request, same fingerprint.
        assert_eq!(variants[0].fingerprint(), sample_run().fingerprint());
    }
}
