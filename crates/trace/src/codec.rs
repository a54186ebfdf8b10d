//! The compact binary trace format (`.wmtr`).
//!
//! A recorded benchmark trace is two program-order streams of
//! [`TraceEvent`]s (fetches apart from loads/stores — the layout the
//! replay engine consumes) plus a cycle count. In memory each event is
//! `size_of::<TraceEvent>()` (24 B) regardless of content; on the wire
//! almost every field is tiny — fetch PCs advance by the 8-byte packet
//! stride, load/store bases revisit the same few regions, displacements
//! are small by construction (the paper's whole premise). The codec
//! exploits that:
//!
//! * **delta-encoded addresses** — each section keeps a running
//!   predictor (the previous event's primary address); events encode the
//!   zigzagged difference as a LEB128 varint, so the common `+8`
//!   sequential fetch costs two bytes total;
//! * **varint lengths everywhere** — displacements and intra-event
//!   address offsets (branch base relative to the PC, effective address
//!   relative to `base + disp`) are zigzag varints too;
//! * **split sections** — the fetch and data streams are encoded
//!   back-to-back but independently, so a streaming consumer can replay
//!   one family without touching the other;
//! * **versioned header + checksum** — a fixed 56-byte header (magic,
//!   version, event counts, cycles, source hash, section lengths) and a
//!   trailing FNV-1a 32-bit checksum over everything after the magic, so
//!   a corrupt or truncated file is always an `Err`, never garbage data.
//!
//! ## Wire layout (version 2)
//!
//! ```text
//! offset  size  field
//! 0       4     magic "WMTR"
//! 4       2     format version (little-endian u16, currently 2)
//! 6       2     flags (reserved, 0)
//! 8       8     fetch-event count (u64)
//! 16      8     data-event count (u64)
//! 24      8     cycles (u64)
//! 32      8     fetch-section byte length (u64)
//! 40      8     data-section byte length (u64)
//! 48      8     source hash (FNV-1a64 of the workload source; 0 = none)
//! 56      …     fetch section, then data section
//! end−4   4     FNV-1a32 checksum of bytes [4, end−4)
//! ```
//!
//! The reader accepts the one version the writer writes: any other
//! version, the hashless version 1 included, is
//! [`CodecError::UnsupportedVersion`]. The source hash is what lets the
//! [`TraceStore`](crate::TraceStore) tell a *stale* cache file (same
//! key, changed kernel source / changed input log) from a current one,
//! closing the staleness hole corruption checksums cannot see; the store
//! treats a file of another version as stale too.
//!
//! Every event starts with a one-byte tag (`0..=3` the four
//! [`FetchKind`]s, `4` load, `5` store) followed by its varint fields.
//! Decoding is strict: unknown tags, dangling varints, section byte
//! counts that disagree with the event counts, and trailing bytes are
//! all distinct [`CodecError`]s.

use waymem_isa::{FetchKind, RecordedTrace, RecordingSink, TraceEvent, TraceSink};

/// The four magic bytes every `.wmtr` buffer starts with.
pub const MAGIC: [u8; 4] = *b"WMTR";

/// The one format version this build encodes and decodes.
pub const FORMAT_VERSION: u16 = 2;

/// Fixed header length, in bytes (the payload starts here).
pub const HEADER_LEN: usize = 56;

/// Trailing checksum length in bytes.
pub(crate) const TRAILER_LEN: usize = 4;

/// Events per [`TraceSink::events`] batch during streaming replay: large
/// enough to amortize the virtual call, small enough that the scratch
/// buffer stays in cache (4096 × 24 B ≈ 96 kB).
pub(crate) const REPLAY_CHUNK: usize = 4096;

/// Upper bound on one event's wire size: a tag byte, up to three 5-byte
/// varints, and a size byte. The section decoder uses it to know when
/// its buffered window is guaranteed to hold at least one whole event.
pub(crate) const MAX_EVENT_WIRE: usize = 17;

/// Scratch-buffer size for the section decoder's refill window, the
/// streaming encoder's section spools and the file checksum pass. Big
/// enough that syscall overhead vanishes, small enough that a dozen
/// concurrent cursors stay cache-friendly.
pub(crate) const WINDOW_BYTES: usize = 64 * 1024;

const TAG_SEQUENTIAL: u8 = 0;
const TAG_TAKEN_BRANCH: u8 = 1;
const TAG_LINK_RETURN: u8 = 2;
const TAG_INDIRECT: u8 = 3;
const TAG_LOAD: u8 = 4;
const TAG_STORE: u8 = 5;

/// Why a buffer failed to decode. Every malformed input maps to one of
/// these — decoding never panics and never fabricates events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the field being read.
    Truncated,
    /// The first four bytes are not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The header's version is not [`FORMAT_VERSION`].
    UnsupportedVersion(u16),
    /// The buffer length disagrees with the header's section lengths.
    LengthMismatch {
        /// Byte length the header implies.
        expected: u64,
        /// Actual buffer length.
        found: u64,
    },
    /// The trailing checksum does not match the buffer contents.
    BadChecksum {
        /// Checksum stored in the trailer.
        stored: u32,
        /// Checksum recomputed from the bytes.
        computed: u32,
    },
    /// An event started with an unknown tag byte.
    BadTag(u8),
    /// A varint ran past its maximum width (corrupt continuation bits).
    BadVarint,
    /// A section's byte length was consumed before its declared event
    /// count was reached, or held bytes beyond the final event.
    SectionMismatch {
        /// Events the header declared for the section.
        declared: u64,
        /// Events actually decoded before the section ended.
        decoded: u64,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "trace buffer truncated"),
            CodecError::BadMagic(m) => write!(f, "bad magic {m:02x?} (expected \"WMTR\")"),
            CodecError::UnsupportedVersion(v) => {
                write!(f, "unsupported trace format version {v} (expected {FORMAT_VERSION})")
            }
            CodecError::LengthMismatch { expected, found } => {
                write!(f, "buffer length {found} disagrees with header (expected {expected})")
            }
            CodecError::BadChecksum { stored, computed } => {
                write!(f, "checksum mismatch: stored {stored:#010x}, computed {computed:#010x}")
            }
            CodecError::BadTag(t) => write!(f, "unknown event tag {t}"),
            CodecError::BadVarint => write!(f, "malformed varint"),
            CodecError::SectionMismatch { declared, decoded } => {
                write!(f, "section declared {declared} events but decoded {decoded}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// FNV-1a 32-bit offset basis — the accumulator's starting value for
/// [`fnv1a32_update`].
pub(crate) const FNV1A32_SEED: u32 = 0x811c_9dc5;

/// Folds `bytes` into a running FNV-1a32 accumulator — the trailer
/// checksum, computed the same way whether the data arrives in one slice
/// or in pieces (the file-backed encoder and reader). FNV-1a is tiny,
/// dependency-free, and plenty to catch the corruption/truncation class
/// of faults (this is an integrity check, not an authenticity one).
pub(crate) fn fnv1a32_update(mut hash: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

/// Checks a trailer against the checksum computed over bytes
/// `[4, end − 4)` — the one trailer check of both front doors.
pub(crate) fn check_trailer(trailer: [u8; TRAILER_LEN], computed: u32) -> Result<(), CodecError> {
    let stored = u32::from_le_bytes(trailer);
    if stored == computed {
        Ok(())
    } else {
        Err(CodecError::BadChecksum { stored, computed })
    }
}

/// Zigzag: maps small-magnitude signed values to small unsigned ones.
fn zigzag(v: i32) -> u32 {
    ((v << 1) ^ (v >> 31)) as u32
}

fn unzigzag(v: u32) -> i32 {
    ((v >> 1) as i32) ^ -((v & 1) as i32)
}

/// The zigzagged wrapping difference `to − from`: the codec's address
/// predictor residual. Exact for every `u32` pair.
fn addr_delta(to: u32, from: u32) -> u32 {
    zigzag(to.wrapping_sub(from) as i32)
}

fn apply_delta(from: u32, delta: u32) -> u32 {
    from.wrapping_add(unzigzag(delta) as u32)
}

fn push_varint(out: &mut Vec<u8>, mut v: u32) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// A bounds-checked reader over one window of section bytes.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn done(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    /// Bytes still unread.
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        let b = *self.bytes.get(self.pos).ok_or(CodecError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn varint(&mut self) -> Result<u32, CodecError> {
        let mut v: u32 = 0;
        for shift in (0..).step_by(7) {
            // A u32 varint is at most 5 bytes; the 5th may only carry
            // the top 4 bits.
            if shift > 28 {
                return Err(CodecError::BadVarint);
            }
            let b = self.u8()?;
            let payload = u32::from(b & 0x7f);
            if shift == 28 && payload > 0x0f {
                return Err(CodecError::BadVarint);
            }
            v |= payload << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        unreachable!("loop returns or errors within 5 iterations")
    }
}

/// Appends one event to `out`, chaining the section predictor `prev`
/// through [`TraceEvent::primary_addr`].
pub(crate) fn encode_event(out: &mut Vec<u8>, e: TraceEvent, prev: &mut u32) {
    match e {
        TraceEvent::Fetch { pc, kind } => match kind {
            FetchKind::Sequential => {
                out.push(TAG_SEQUENTIAL);
                push_varint(out, addr_delta(pc, *prev));
            }
            FetchKind::TakenBranch { base, disp } => {
                out.push(TAG_TAKEN_BRANCH);
                push_varint(out, addr_delta(pc, *prev));
                push_varint(out, addr_delta(base, pc));
                push_varint(out, zigzag(disp));
            }
            FetchKind::LinkReturn { target } => {
                out.push(TAG_LINK_RETURN);
                push_varint(out, addr_delta(pc, *prev));
                push_varint(out, addr_delta(target, pc));
            }
            FetchKind::Indirect { base, disp } => {
                out.push(TAG_INDIRECT);
                push_varint(out, addr_delta(pc, *prev));
                push_varint(out, addr_delta(base, pc));
                push_varint(out, zigzag(disp));
            }
        },
        TraceEvent::Load { base, disp, addr, size } => {
            encode_mem(out, TAG_LOAD, base, disp, addr, size, *prev);
        }
        TraceEvent::Store { base, disp, addr, size } => {
            encode_mem(out, TAG_STORE, base, disp, addr, size, *prev);
        }
    }
    *prev = e.primary_addr();
}

/// The shared load/store wire form: base delta, displacement, size, and
/// the effective-address residual (almost always zero — `addr` is
/// normally exactly `base + disp` — so it costs a single byte).
fn encode_mem(out: &mut Vec<u8>, tag: u8, base: u32, disp: i32, addr: u32, size: u8, prev: u32) {
    out.push(tag);
    push_varint(out, addr_delta(base, prev));
    push_varint(out, zigzag(disp));
    out.push(size);
    push_varint(out, addr_delta(addr, base.wrapping_add(disp as u32)));
}

fn decode_event(cur: &mut Cursor<'_>, prev: &mut u32) -> Result<TraceEvent, CodecError> {
    let tag = cur.u8()?;
    let e = match tag {
        TAG_SEQUENTIAL | TAG_TAKEN_BRANCH | TAG_LINK_RETURN | TAG_INDIRECT => {
            let pc = apply_delta(*prev, cur.varint()?);
            let kind = match tag {
                TAG_SEQUENTIAL => FetchKind::Sequential,
                TAG_TAKEN_BRANCH => FetchKind::TakenBranch {
                    base: apply_delta(pc, cur.varint()?),
                    disp: unzigzag(cur.varint()?),
                },
                TAG_LINK_RETURN => FetchKind::LinkReturn {
                    target: apply_delta(pc, cur.varint()?),
                },
                _ => FetchKind::Indirect {
                    base: apply_delta(pc, cur.varint()?),
                    disp: unzigzag(cur.varint()?),
                },
            };
            TraceEvent::Fetch { pc, kind }
        }
        TAG_LOAD | TAG_STORE => {
            let base = apply_delta(*prev, cur.varint()?);
            let disp = unzigzag(cur.varint()?);
            let size = cur.u8()?;
            let addr = apply_delta(base.wrapping_add(disp as u32), cur.varint()?);
            if tag == TAG_LOAD {
                TraceEvent::Load { base, disp, addr, size }
            } else {
                TraceEvent::Store { base, disp, addr, size }
            }
        }
        t => return Err(CodecError::BadTag(t)),
    };
    *prev = e.primary_addr();
    Ok(e)
}

fn encode_section(out: &mut Vec<u8>, events: &[TraceEvent]) {
    let mut prev = 0u32;
    for &e in events {
        encode_event(out, e, &mut prev);
    }
}

/// The one section decoder, shared by [`decode`] (over a slice) and
/// [`StreamingTrace::replay_section`](crate::stream::StreamingTrace::replay_section)
/// (over a file). It pulls the section's `len` bytes through `read` —
/// which fills the front of its buffer like [`std::io::Read::read`] and
/// returns 0 at the section's end — into a bounded window, and hands the
/// `declared` events to `emit` in batches of at most `batch`. Returns
/// the number of events decoded.
///
/// Decoding is strict: bytes that run out before the declared count, or
/// are left over after it, are a `SectionMismatch`; an event cut off at
/// the end is `Truncated`. Batches emitted before an error stand.
pub(crate) fn decode_section<E: From<CodecError>>(
    len: u64,
    declared: u64,
    batch: usize,
    mut read: impl FnMut(&mut [u8]) -> Result<usize, E>,
    mut emit: impl FnMut(&[TraceEvent]),
) -> Result<u64, E> {
    let mut window = vec![0u8; WINDOW_BYTES.max(MAX_EVENT_WIRE)];
    let mut valid = 0usize; // bytes of section data in window[..valid]
    let mut start = 0usize; // consumed prefix of window[..valid]
    let mut exhausted = false; // reader hit EOF
    let mut consumed = 0u64; // section bytes decoded so far
    let mut decoded = 0u64;
    let mut prev = 0u32;
    let chunk_cap = batch.min(usize::try_from(declared).unwrap_or(batch)).max(1);
    let mut chunk: Vec<TraceEvent> = Vec::with_capacity(chunk_cap);

    loop {
        if decoded == declared && consumed == len {
            break; // clean finish: every declared event, every byte
        }
        // Compact the unconsumed tail to the front, then refill.
        window.copy_within(start..valid, 0);
        valid -= start;
        while valid < window.len() && !exhausted {
            let n = read(&mut window[valid..])?;
            if n == 0 {
                exhausted = true;
            } else {
                valid += n;
            }
        }
        if valid == 0 || decoded == declared {
            // Out of bytes before the declared count, or bytes left
            // over past the final event: corrupt counts.
            return Err(CodecError::SectionMismatch { declared, decoded }.into());
        }
        let mut cur = Cursor::new(&window[..valid]);
        // Decode while a whole event is guaranteed to fit in the
        // window (or the input is exhausted, in which case a
        // mid-event shortage is a genuine Truncated error).
        while decoded < declared
            && !cur.done()
            && (exhausted || cur.remaining() >= MAX_EVENT_WIRE)
        {
            chunk.push(decode_event(&mut cur, &mut prev)?);
            decoded += 1;
            if chunk.len() == batch {
                emit(&chunk);
                chunk.clear();
            }
        }
        start = cur.pos;
        consumed += start as u64;
    }
    if !chunk.is_empty() {
        emit(&chunk);
    }
    Ok(decoded)
}

/// Encodes `trace` into a fresh buffer with no source hash (0 = none).
/// Use [`encode_with_hash`] when the workload's source hash is known.
#[must_use]
pub fn encode(trace: &RecordedTrace) -> Vec<u8> {
    encode_with_hash(trace, 0)
}

/// Encodes `trace` into a fresh buffer, embedding `source_hash` (the
/// FNV-1a64 of whatever produced the trace) in the v2 header.
#[must_use]
pub fn encode_with_hash(trace: &RecordedTrace, source_hash: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + trace.len() * 3 + TRAILER_LEN);
    encode_into_with_hash(trace, source_hash, &mut out);
    out
}

/// Appends the encoding of `trace` to `out` with no source hash and
/// returns the number of bytes written.
pub fn encode_into(trace: &RecordedTrace, out: &mut Vec<u8>) -> usize {
    encode_into_with_hash(trace, 0, out)
}

/// Appends the encoding of `trace` to `out`, embedding `source_hash`,
/// and returns the number of bytes written. Encoding is total — every
/// `(RecordedTrace, source_hash)` pair has exactly one wire form.
pub fn encode_into_with_hash(trace: &RecordedTrace, source_hash: u64, out: &mut Vec<u8>) -> usize {
    let start = out.len();
    // The header is written once the section lengths are known.
    out.resize(start + HEADER_LEN, 0);
    encode_section(out, &trace.fetch_events);
    let fetch_len = (out.len() - start - HEADER_LEN) as u64;
    encode_section(out, &trace.data_events);
    let header = Header {
        fetch_count: trace.fetch_events.len() as u64,
        data_count: trace.data_events.len() as u64,
        cycles: trace.cycles,
        fetch_len,
        data_len: (out.len() - start - HEADER_LEN) as u64 - fetch_len,
        source_hash,
    };
    out[start..start + HEADER_LEN].copy_from_slice(&header.to_bytes());
    let checksum = fnv1a32_update(FNV1A32_SEED, &out[start + MAGIC.len()..]);
    out.extend_from_slice(&checksum.to_le_bytes());
    out.len() - start
}

/// The fields of a `.wmtr` header. Its one writer ([`to_bytes`](Self::to_bytes))
/// and one reader ([`read`](Self::read)) serve both the slice codec and
/// the file-backed [`crate::stream`], so the two front doors write and
/// validate identically.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Header {
    pub(crate) fetch_count: u64,
    pub(crate) data_count: u64,
    pub(crate) cycles: u64,
    pub(crate) fetch_len: u64,
    pub(crate) data_len: u64,
    pub(crate) source_hash: u64,
}

impl Header {
    /// Byte offsets of the six `u64` fields, in wire order: fetch and
    /// data counts, cycles, fetch and data section lengths, source hash.
    const FIELDS: [usize; 6] = [8, 16, 24, 32, 40, 48];

    /// The v2 wire form of this header.
    pub(crate) fn to_bytes(self) -> [u8; HEADER_LEN] {
        let mut out = [0u8; HEADER_LEN];
        out[..4].copy_from_slice(&MAGIC);
        out[4..6].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        // Bytes 6..8 are the reserved flags, always 0.
        let values = [
            self.fetch_count,
            self.data_count,
            self.cycles,
            self.fetch_len,
            self.data_len,
            self.source_hash,
        ];
        for (at, v) in Self::FIELDS.into_iter().zip(values) {
            out[at..at + 8].copy_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Reads and checks the header at the front of an encoded trace of
    /// `total` bytes, given at least its first `min(total, HEADER_LEN)`
    /// bytes in `bytes`: magic, version, the length arithmetic, and each
    /// event count no larger than its section's byte length (every event
    /// costs at least one byte, so a larger count is corrupt — and would
    /// otherwise size an allocation). The trailer checksum is the
    /// caller's to check, since it needs the rest of the data.
    pub(crate) fn read(bytes: &[u8], total: u64) -> Result<Header, CodecError> {
        if total < (HEADER_LEN + TRAILER_LEN) as u64 || bytes.len() < HEADER_LEN {
            return Err(CodecError::Truncated);
        }
        let magic: [u8; 4] = bytes[..4].try_into().expect("4-byte slice");
        if magic != MAGIC {
            return Err(CodecError::BadMagic(magic));
        }
        let version = u16::from_le_bytes(bytes[4..6].try_into().expect("2-byte slice"));
        if version != FORMAT_VERSION {
            return Err(CodecError::UnsupportedVersion(version));
        }
        let [fetch_count, data_count, cycles, fetch_len, data_len, source_hash] = Self::FIELDS
            .map(|at| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8-byte slice")));
        let expected = fetch_len
            .checked_add(data_len)
            .and_then(|n| n.checked_add((HEADER_LEN + TRAILER_LEN) as u64))
            .ok_or(CodecError::Truncated)?;
        if expected != total {
            return Err(CodecError::LengthMismatch { expected, found: total });
        }
        for (declared, len) in [(fetch_count, fetch_len), (data_count, data_len)] {
            if declared > len {
                return Err(CodecError::SectionMismatch { declared, decoded: 0 });
            }
        }
        Ok(Header { fetch_count, data_count, cycles, fetch_len, data_len, source_hash })
    }

    /// Bytes of the whole encoded trace: header, both sections, trailer.
    pub(crate) fn encoded_len(&self) -> u64 {
        (HEADER_LEN + TRAILER_LEN) as u64 + self.fetch_len + self.data_len
    }

    /// Where `section` sits: its byte offset and length, and the number
    /// of events it declares.
    pub(crate) fn section(&self, section: Section) -> (u64, u64, u64) {
        let start = HEADER_LEN as u64;
        match section {
            Section::Fetch => (start, self.fetch_len, self.fetch_count),
            Section::Data => (start + self.fetch_len, self.data_len, self.data_count),
        }
    }

    /// Materializes the trace, decoding each section through `replay`
    /// into a sink pre-sized from its declared count.
    pub(crate) fn materialize<E>(
        &self,
        mut replay: impl FnMut(Section, &mut RecordingSink) -> Result<u64, E>,
    ) -> Result<RecordedTrace, E> {
        let mut section = |section: Section| {
            let mut sink = RecordingSink {
                events: Vec::with_capacity(RecordingSink::prealloc_cap(self.section(section).2)),
            };
            replay(section, &mut sink).map(|_| sink.events)
        };
        Ok(RecordedTrace {
            fetch_events: section(Section::Fetch)?,
            data_events: section(Section::Data)?,
            cycles: self.cycles,
        })
    }
}

/// Which of the two encoded streams to replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// The instruction-fetch stream (what I-front-ends consume).
    Fetch,
    /// The load/store stream (what D-front-ends consume).
    Data,
}

/// Decodes an encoded buffer back into a [`RecordedTrace`].
///
/// # Errors
///
/// Any malformed buffer yields the matching [`CodecError`] — the same
/// one [`StreamingTrace::open`](crate::StreamingTrace::open) reports for
/// the same bytes in a file; decoding never panics.
pub fn decode(bytes: &[u8]) -> Result<RecordedTrace, CodecError> {
    let header = Header::read(bytes, bytes.len() as u64)?;
    let (body, trailer) = bytes.split_at(bytes.len() - TRAILER_LEN);
    check_trailer(
        trailer.try_into().expect("4-byte trailer"),
        fnv1a32_update(FNV1A32_SEED, &body[MAGIC.len()..]),
    )?;
    header.materialize(|section, sink| {
        let (offset, len, declared) = header.section(section);
        // In bounds: `Header::read` matched the lengths to the buffer.
        let mut rest = &bytes[offset as usize..(offset + len) as usize];
        decode_section(
            len,
            declared,
            REPLAY_CHUNK,
            |buf| std::io::Read::read(&mut rest, buf).map_err(|_| CodecError::Truncated),
            |batch| sink.events(batch),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> RecordedTrace {
        RecordedTrace {
            fetch_events: vec![
                TraceEvent::Fetch { pc: 0x1000, kind: FetchKind::Sequential },
                TraceEvent::Fetch { pc: 0x1008, kind: FetchKind::Sequential },
                TraceEvent::Fetch {
                    pc: 0x0f00,
                    kind: FetchKind::TakenBranch { base: 0x1008, disp: -264 },
                },
                TraceEvent::Fetch { pc: 0x2000, kind: FetchKind::LinkReturn { target: 0x2000 } },
                TraceEvent::Fetch {
                    pc: 0x3000,
                    kind: FetchKind::Indirect { base: 0x2ff0, disp: 16 },
                },
            ],
            data_events: vec![
                TraceEvent::Load { base: 0x8000, disp: 4, addr: 0x8004, size: 4 },
                TraceEvent::Store { base: 0x8000, disp: -8, addr: 0x7ff8, size: 2 },
                TraceEvent::Load { base: 0, disp: 0, addr: u32::MAX, size: 1 },
            ],
            cycles: 12345,
        }
    }

    #[test]
    fn round_trips() {
        let trace = sample_trace();
        let bytes = encode(&trace);
        assert_eq!(decode(&bytes).expect("decodes"), trace);
    }

    #[test]
    fn empty_trace_round_trips() {
        let trace = RecordedTrace::default();
        let bytes = encode(&trace);
        assert_eq!(bytes.len(), HEADER_LEN + TRAILER_LEN);
        assert_eq!(decode(&bytes).expect("decodes"), trace);
    }

    #[test]
    fn sequential_fetches_cost_two_bytes() {
        let trace = RecordedTrace {
            fetch_events: (0..1000)
                .map(|i| TraceEvent::Fetch { pc: 0x1000 + 8 * i, kind: FetchKind::Sequential })
                .collect(),
            data_events: Vec::new(),
            cycles: 1000,
        };
        let bytes = encode(&trace);
        let payload = bytes.len() - HEADER_LEN - TRAILER_LEN;
        // Tag byte + one-byte varint delta (first event's delta is larger).
        assert!(payload <= 2 * 1000 + 2, "payload {payload}");
        assert!(bytes.len() * 8 < trace.raw_size_bytes() as usize, "no compression win");
    }

    #[test]
    fn encode_into_appends() {
        let trace = sample_trace();
        let mut buf = vec![0xAA, 0xBB];
        let written = encode_into(&trace, &mut buf);
        assert_eq!(buf.len(), 2 + written);
        assert_eq!(&buf[..2], &[0xAA, 0xBB]);
        assert_eq!(decode(&buf[2..]).expect("decodes"), trace);
    }

    fn header(bytes: &[u8]) -> Header {
        Header::read(bytes, bytes.len() as u64).expect("valid header")
    }

    #[test]
    fn source_hash_round_trips() {
        let trace = sample_trace();
        let bytes = encode_with_hash(&trace, 0xdead_beef_cafe_f00d);
        assert_eq!(header(&bytes).source_hash, 0xdead_beef_cafe_f00d);
        assert_eq!(decode(&bytes).expect("decodes"), trace);
        // The plain encoder writes hash 0 ("unknown").
        assert_eq!(header(&encode(&trace)).source_hash, 0);
    }

    #[test]
    fn different_source_hashes_change_the_bytes_only_in_the_header() {
        let trace = sample_trace();
        let a = encode_with_hash(&trace, 1);
        let b = encode_with_hash(&trace, 2);
        assert_eq!(a.len(), b.len());
        // Payload identical; header hash field and trailing checksum differ.
        assert_eq!(a[HEADER_LEN..a.len() - 4], b[HEADER_LEN..b.len() - 4]);
        assert_ne!(a, b);
    }

    #[test]
    fn v2_wire_bytes_are_pinned() {
        // Pinned from an earlier build: the writer's bytes must not move,
        // so every v2 file already on disk stays a hit.
        let bytes = encode_with_hash(&sample_trace(), 0xfeed);
        assert_eq!(bytes.len(), 100);
        assert_eq!(crate::workload::fnv1a64(&bytes), 0xaa27_f57b_c129_4476);
    }

    #[test]
    fn sealed_v1_buffers_are_an_unsupported_version() {
        // The v1 layout: the v2 header without its source-hash field,
        // the same sections, and a valid checksum.
        let v2 = encode(&sample_trace());
        let mut v1 = v2[..48].to_vec();
        v1[4..6].copy_from_slice(&1u16.to_le_bytes());
        v1.extend_from_slice(&v2[HEADER_LEN..v2.len() - TRAILER_LEN]);
        let checksum = fnv1a32_update(FNV1A32_SEED, &v1[MAGIC.len()..]);
        v1.extend_from_slice(&checksum.to_le_bytes());
        let err = decode(&v1).expect_err("v1 is not read");
        assert_eq!(err, CodecError::UnsupportedVersion(1));
        assert!(err.to_string().ends_with("(expected 2)"), "{err}");
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = encode(&sample_trace());
        bytes[0] = b'X';
        assert!(matches!(decode(&bytes), Err(CodecError::BadMagic(_))));
    }

    #[test]
    fn bad_version_is_rejected() {
        let mut bytes = encode(&sample_trace());
        bytes[4] = 0xFF;
        assert!(matches!(decode(&bytes), Err(CodecError::UnsupportedVersion(_))));
    }

    #[test]
    fn every_truncation_is_an_error() {
        let bytes = encode(&sample_trace());
        for len in 0..bytes.len() {
            assert!(decode(&bytes[..len]).is_err(), "prefix of {len} bytes decoded");
        }
    }

    #[test]
    fn every_single_byte_flip_is_an_error() {
        // The checksum covers everything after the magic, so any one-bit
        // corruption anywhere must surface as an Err.
        let bytes = encode(&sample_trace());
        for at in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[at] ^= 0x01;
            assert!(decode(&corrupt).is_err(), "flip at {at} decoded");
        }
    }

    #[test]
    fn zigzag_round_trips_extremes() {
        for v in [0, 1, -1, i32::MAX, i32::MIN, 12345, -54321] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
