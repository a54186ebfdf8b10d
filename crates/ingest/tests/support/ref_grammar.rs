//! The reference grammars: the `&str` Lackey and CSV line parsers and
//! the `read_line` pump that `waymem_ingest` ran before its byte-level
//! pump, with their own trace builder restated from the library's rules.
//! `properties.rs` checks the library against them on ASCII logs, where
//! the two must agree on every trace, hash, count and error.
//!
//! The pump copies each line into a `String` (so its input must be
//! UTF-8), and the grammars split on `char::is_whitespace` and read
//! numbers with `from_str_radix`.

use std::io::BufRead;

use waymem_ingest::{Ingested, LogFormat, ParseError, ParseErrorKind};
use waymem_isa::{FetchKind, RecordedTrace, TraceSink};
use waymem_trace::{fnv1a64_update, FNV1A64_SEED};

#[derive(Clone, Copy)]
enum Op {
    Instr,
    Load,
    Store,
    Modify,
}

/// An access line's op, address and size, or `None` for a skipped line.
type Parsed = Option<(Op, u64, u64)>;

fn lackey_line(line: &str) -> Result<Parsed, ParseErrorKind> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with("==") || trimmed.starts_with("--") {
        return Ok(None);
    }
    let trimmed = line.trim_start();
    let mut chars = trimmed.chars();
    let op = match chars.next().expect("blank lines are skipped") {
        'I' => Op::Instr,
        'L' => Op::Load,
        'S' => Op::Store,
        'M' => Op::Modify,
        _ => {
            let token = trimmed.split_whitespace().next().unwrap_or_default();
            return Err(ParseErrorKind::UnknownRecord(token.chars().take(16).collect()));
        }
    };
    let rest = chars.as_str().trim_start();
    if rest.is_empty() {
        return Err(ParseErrorKind::MissingAddress);
    }
    let (addr_part, size_part) = rest.split_once(',').ok_or(ParseErrorKind::MissingSize)?;
    let addr_part = addr_part.trim();
    let addr = u64::from_str_radix(addr_part, 16)
        .map_err(|_| ParseErrorKind::BadAddress(addr_part.chars().take(16).collect()))?;
    let size_part = size_part.trim();
    let size: u64 = size_part
        .parse()
        .map_err(|_| ParseErrorKind::BadSize(size_part.chars().take(16).collect()))?;
    Ok(Some((op, addr, size)))
}

fn parse_op(token: &str) -> Result<Op, ParseErrorKind> {
    let t = token.trim();
    if t.eq_ignore_ascii_case("i") || t.eq_ignore_ascii_case("f") || t.eq_ignore_ascii_case("fetch")
    {
        Ok(Op::Instr)
    } else if t.eq_ignore_ascii_case("l")
        || t.eq_ignore_ascii_case("r")
        || t.eq_ignore_ascii_case("load")
        || t.eq_ignore_ascii_case("read")
    {
        Ok(Op::Load)
    } else if t.eq_ignore_ascii_case("s")
        || t.eq_ignore_ascii_case("w")
        || t.eq_ignore_ascii_case("store")
        || t.eq_ignore_ascii_case("write")
    {
        Ok(Op::Store)
    } else if t.eq_ignore_ascii_case("m") || t.eq_ignore_ascii_case("modify") {
        Ok(Op::Modify)
    } else {
        Err(ParseErrorKind::UnknownRecord(t.chars().take(16).collect()))
    }
}

fn parse_addr(token: &str) -> Result<u64, ParseErrorKind> {
    let t = token.trim();
    let bad = || ParseErrorKind::BadAddress(t.chars().take(16).collect());
    if t.is_empty() {
        return Err(bad());
    }
    if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).map_err(|_| bad())
    } else {
        t.parse().map_err(|_| bad())
    }
}

fn csv_line(line: &str) -> Result<Parsed, ParseErrorKind> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(None);
    }
    let mut fields = trimmed.splitn(3, ',');
    let op = parse_op(fields.next().expect("splitn yields at least one field"))?;
    let addr = parse_addr(fields.next().ok_or(ParseErrorKind::MissingAddress)?)?;
    let size = match fields.next() {
        None => 4,
        Some(tok) => {
            let t = tok.trim();
            t.parse().map_err(|_| ParseErrorKind::BadSize(t.chars().take(16).collect()))?
        }
    };
    Ok(Some((op, addr, size)))
}

/// The library's trace rules: addresses truncate to 32 bits and sizes
/// saturate at 255; a fetch that continues the previous one is
/// sequential, any other a taken branch from it; `M` is a load then a
/// store; cycles are the fetch count, or the data count without fetches.
#[derive(Default)]
struct Builder {
    trace: RecordedTrace,
    last_fetch: Option<(u32, u32)>,
    fetches: u64,
    data: u64,
}

impl Builder {
    fn push(&mut self, op: Op, addr: u64, size: u64) {
        let addr = addr as u32;
        let size = u8::try_from(size).unwrap_or(u8::MAX);
        match op {
            Op::Instr => {
                let kind = match self.last_fetch {
                    Some((prev, prev_size)) if addr == prev.wrapping_add(prev_size) => {
                        FetchKind::Sequential
                    }
                    Some((prev, _)) => FetchKind::TakenBranch {
                        base: prev,
                        disp: addr.wrapping_sub(prev) as i32,
                    },
                    None => FetchKind::Sequential,
                };
                self.trace.fetch(addr, kind);
                self.fetches += 1;
                self.last_fetch = Some((addr, size.max(1).into()));
            }
            Op::Load | Op::Modify => {
                self.trace.load(addr, 0, addr, size);
                self.data += 1;
                if let Op::Modify = op {
                    self.trace.store(addr, 0, addr, size);
                    self.data += 1;
                }
            }
            Op::Store => {
                self.trace.store(addr, 0, addr, size);
                self.data += 1;
            }
        }
    }
}

/// Parses `text` in `format` line by line through `read_line`.
pub fn parse(format: LogFormat, text: &str) -> Result<Ingested, ParseError> {
    let mut reader = text.as_bytes();
    let mut builder = Builder::default();
    let (mut hash, mut lines, mut skipped) = (FNV1A64_SEED, 0, 0);
    let mut raw = String::new();
    loop {
        raw.clear();
        if reader.read_line(&mut raw).expect("reads from memory") == 0 {
            break;
        }
        hash = fnv1a64_update(hash, raw.as_bytes());
        lines += 1;
        let line = raw.trim_end_matches(['\n', '\r']);
        let parsed = match format {
            LogFormat::Lackey => lackey_line(line),
            LogFormat::Csv => csv_line(line),
        };
        match parsed.map_err(|kind| ParseError { line: lines, kind })? {
            Some((op, addr, size)) => builder.push(op, addr, size),
            None => skipped += 1,
        }
    }
    let mut trace = builder.trace;
    trace.cycles = if builder.fetches == 0 { builder.data } else { builder.fetches };
    Ok(Ingested { trace, source_hash: hash, lines, skipped })
}
