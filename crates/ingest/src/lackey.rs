//! The Valgrind Lackey `--trace-mem=yes` format.
//!
//! Capturing a real program's memory trace is one command:
//!
//! ```text
//! valgrind --tool=lackey --trace-mem=yes --log-file=prog.log ./prog
//! ```
//!
//! The log is line-oriented; each access line is a record letter, an
//! address in bare hex, a comma and a decimal size:
//!
//! ```text
//! I  0023C790,2        instruction fetch
//!  L 0025747C,4        data load
//!  S BE80199C,4        data store
//!  M 0025747C,1        modify (load + store at the address)
//! ```
//!
//! (Instruction lines start in column 0, memory lines are indented — the
//! parser accepts either indentation.) Valgrind interleaves its own
//! chatter into the same stream: `==pid==` / `--pid--` banner lines and
//! blanks are *skipped*, not errors, so a raw `--log-file` capture parses
//! without preprocessing. Anything else is a structured
//! [`ParseError`](crate::ParseError) with its line number — a garbled
//! access line never silently drops an access.

use std::io::BufRead;

use waymem_isa::TraceSink;

use crate::{drive, IngestError, IngestStats, Ingested, LogFormat, Op, ParseErrorKind};

/// Parses one access line already known not to be a banner/blank.
/// Returns the op, address and size.
fn parse_access(line: &str) -> Result<(Op, u64, u64), ParseErrorKind> {
    let trimmed = line.trim_start();
    let mut chars = trimmed.chars();
    let letter = chars.next().expect("caller skips blank lines");
    let op = match letter {
        'I' => Op::Instr,
        'L' => Op::Load,
        'S' => Op::Store,
        'M' => Op::Modify,
        other => {
            // Report the whole first token, not just its first char —
            // "Instruction" vs "I" garbling reads very differently.
            let token: String = trimmed.split_whitespace().next().unwrap_or_default().chars().take(16).collect();
            let _ = other;
            return Err(ParseErrorKind::UnknownRecord(token));
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
    Ok((op, addr, size))
}

/// Parses a Lackey log from `reader`, streaming line-by-line.
///
/// # Errors
///
/// [`IngestError::Io`] from the reader, or [`IngestError::Parse`] with
/// the 1-based line number on the first malformed access line.
pub fn parse<R: BufRead>(reader: R) -> Result<Ingested, IngestError> {
    crate::parse(LogFormat::Lackey, reader)
}

/// Parses a Lackey log from `reader`, streaming each access straight into
/// `sink` — the bounded-memory path: with a
/// [`StreamingEncoder`](waymem_trace::StreamingEncoder) sink nothing is
/// ever materialized.
///
/// # Errors
///
/// Same as [`parse`].
pub fn parse_into<R: BufRead, S: TraceSink>(
    reader: R,
    sink: S,
) -> Result<(IngestStats, S), IngestError> {
    drive(reader, sink, |line, builder| {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with("==") || trimmed.starts_with("--") {
            return Ok(false); // valgrind banner / blank: skipped
        }
        let (op, addr, size) = parse_access(line)?;
        builder.push(op, addr, size);
        Ok(true)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ParseError, ParseErrorKind};
    use std::io::Cursor;
    use waymem_isa::TraceEvent;

    fn parse_str(s: &str) -> Result<Ingested, IngestError> {
        parse(Cursor::new(s.to_owned()))
    }

    /// A reader whose `read_line` fails with `Interrupted` before every
    /// line — the transient `EINTR` shape the shared line pump must
    /// retry in place rather than surface as a malformed-input error.
    struct InterruptingReader {
        inner: Cursor<String>,
        interrupt_next: bool,
    }

    impl std::io::Read for InterruptingReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.inner.read(buf)
        }
    }

    impl BufRead for InterruptingReader {
        fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
            self.inner.fill_buf()
        }

        fn consume(&mut self, amt: usize) {
            self.inner.consume(amt);
        }

        fn read_line(&mut self, buf: &mut String) -> std::io::Result<usize> {
            self.interrupt_next = !self.interrupt_next;
            if self.interrupt_next {
                return Err(std::io::Error::new(std::io::ErrorKind::Interrupted, "EINTR"));
            }
            self.inner.read_line(buf)
        }
    }

    #[test]
    fn transient_interrupts_are_retried_not_errors() {
        let sample = "I  0023C790,2\n L 0025747C,4\n S BE80199C,4\n";
        let interrupted = parse(InterruptingReader {
            inner: Cursor::new(sample.to_owned()),
            interrupt_next: false,
        })
        .expect("EINTR must be absorbed, not surfaced");
        let plain = parse_str(sample).expect("parses");
        assert_eq!(interrupted.trace, plain.trace);
        assert_eq!(interrupted.lines, plain.lines);
    }

    #[test]
    fn the_documented_sample_parses() {
        let ing = parse_str("I  0023C790,2\n L 0025747C,4\n S BE80199C,4\n M 0025747C,1\n")
            .expect("parses");
        assert_eq!(ing.trace.fetch_events.len(), 1);
        assert_eq!(ing.trace.data_events.len(), 4);
        assert_eq!(ing.lines, 4);
        assert_eq!(ing.skipped, 0);
        assert!(matches!(ing.trace.data_events[0], TraceEvent::Load { addr: 0x0025_747C, .. }));
        assert!(matches!(ing.trace.data_events[1], TraceEvent::Store { addr: 0xBE80_199C, .. }));
        // M expands to load-then-store.
        assert!(matches!(ing.trace.data_events[2], TraceEvent::Load { addr: 0x0025_747C, .. }));
        assert!(matches!(ing.trace.data_events[3], TraceEvent::Store { addr: 0x0025_747C, .. }));
    }

    #[test]
    fn banners_and_blanks_are_skipped_not_errors() {
        let ing = parse_str(
            "==12345== Memcheck is not in use\n\
             --12345-- some verbose chatter\n\
             \n\
             I  1000,4\n",
        )
        .expect("parses");
        assert_eq!(ing.trace.fetch_events.len(), 1);
        assert_eq!((ing.lines, ing.skipped), (4, 3));
    }

    #[test]
    fn missing_newline_on_last_line_is_fine() {
        let ing = parse_str("I  1000,4").expect("parses");
        assert_eq!(ing.trace.fetch_events.len(), 1);
    }

    #[test]
    fn crlf_lines_parse() {
        let ing = parse_str("I  1000,4\r\n L 2000,8\r\n").expect("parses");
        assert_eq!(ing.trace.len(), 2);
    }

    #[test]
    fn every_malformation_is_a_structured_error() {
        let cases = [
            ("X  1000,4\n", 1, ParseErrorKind::UnknownRecord("X".into())),
            ("I  1000,4\nQ 2000,4\n", 2, ParseErrorKind::UnknownRecord("Q".into())),
            ("I\n", 1, ParseErrorKind::MissingAddress),
            ("I  1000\n", 1, ParseErrorKind::MissingSize),
            ("I  zzzz,4\n", 1, ParseErrorKind::BadAddress("zzzz".into())),
            ("I  ,4\n", 1, ParseErrorKind::BadAddress("".into())),
            ("I  1000,\n", 1, ParseErrorKind::BadSize("".into())),
            ("I  1000,four\n", 1, ParseErrorKind::BadSize("four".into())),
            ("I  1000,-3\n", 1, ParseErrorKind::BadSize("-3".into())),
        ];
        for (input, line, kind) in cases {
            match parse_str(input) {
                Err(IngestError::Parse(ParseError { line: l, kind: k })) => {
                    assert_eq!((l, &k), (line, &kind), "input {input:?}");
                }
                other => panic!("input {input:?}: expected parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn error_messages_name_the_line() {
        let err = parse_str("I  1000,4\nbogus\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn identical_logs_hash_identically_and_edits_change_it() {
        let a = parse_str("I  1000,4\n L 2000,4\n").unwrap();
        let b = parse_str("I  1000,4\n L 2000,4\n").unwrap();
        let c = parse_str("I  1000,4\n L 2004,4\n").unwrap();
        assert_eq!(a.source_hash, b.source_hash);
        assert_ne!(a.source_hash, c.source_hash);
    }

    #[test]
    fn empty_input_yields_empty_trace() {
        let ing = parse_str("").expect("parses");
        assert!(ing.trace.is_empty());
        assert_eq!(ing.trace.cycles, 0);
    }
}
