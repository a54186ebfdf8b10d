//! The line pump absorbs transient `Interrupted` reads: a log read
//! through `InterruptingReader`, which fails every other refill and hands
//! out 1–7 bytes at a time, parses exactly as the whole text does, in
//! both grammars.

use std::io::Cursor;

#[path = "support/interrupting_reader.rs"]
mod interrupting_reader;

use interrupting_reader::InterruptingReader;

mod lackey {
    use super::*;
    use waymem_ingest::lackey::parse;

    #[test]
    fn transient_interrupts_are_retried_not_errors() {
        // A CRLF pair and an unterminated last line straddle reads too.
        let sample = "I  0023C790,2\r\n L 0025747C,4\n S BE80199C,4";
        let mut reader = InterruptingReader::new(sample, 1);
        let interrupted = parse(&mut reader).expect("EINTR must be absorbed, not surfaced");
        assert!(reader.interrupts > 1, "the reader interrupted {} times", reader.interrupts);
        assert_eq!(interrupted, parse(Cursor::new(sample)).expect("parses"));
        assert_eq!((interrupted.lines, interrupted.trace.len()), (3, 3));
    }
}

mod csv {
    use super::*;
    use waymem_ingest::csv::parse;

    #[test]
    fn transient_interrupts_are_retried_not_errors() {
        let sample = "fetch,0x1000,4\r\nload,0x20008\nstore,131084,8";
        let mut reader = InterruptingReader::new(sample, 1);
        let interrupted = parse(&mut reader).expect("EINTR must be absorbed, not surfaced");
        assert!(reader.interrupts > 1, "the reader interrupted {} times", reader.interrupts);
        assert_eq!(interrupted, parse(Cursor::new(sample)).expect("parses"));
        assert_eq!((interrupted.lines, interrupted.trace.len()), (3, 3));
    }
}
