//! # waymem-isa — the frv-lite ISA, assembler and interpreter
//!
//! The DATE 2005 paper evaluates way memoization on the Fujitsu FR-V VLIW
//! processor using its proprietary instruction-set simulator (Softune v6).
//! Neither is available, so this crate provides **frv-lite**: a compact
//! 32-bit RISC ISA with the three properties the MAB actually observes:
//!
//! 1. **loads/stores compute `base + displacement`** with a signed 16-bit
//!    displacement (so the D-MAB's small-displacement assumption can be
//!    exercised *and* violated),
//! 2. **PC-relative branches/calls** with small offsets and a **link
//!    register** for returns (the three I-MAB input sources of Fig. 2), and
//! 3. a **VLIW-style 8-byte fetch packet** (two 4-byte syllables), giving
//!    the `+8` sequential stride of the paper's Figure 2.
//!
//! The interpreter executes against a flat [`waymem_cache::MainMemory`]
//! (4 kB pages, those below 1 MiB in a direct-indexed table) and reports
//! every instruction fetch and data access to a [`TraceSink`], carrying
//! the *architectural ingredients* (base register value and displacement)
//! rather than just the final address — exactly what a MAB sitting beside
//! the address generator would see. [`Cpu`] decodes the text segment once
//! and keeps it in step with every store, so a fetch from the text
//! decodes nothing.
//!
//! ```
//! use waymem_isa::{assemble, Cpu, CountingSink};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let prog = assemble(r#"
//!         .text
//! main:   li   t0, 5
//!         li   t1, 0
//! loop:   add  t1, t1, t0
//!         addi t0, t0, -1
//!         bnez t0, loop
//!         halt
//! "#)?;
//! let mut cpu = Cpu::new(&prog);
//! let mut sink = CountingSink::default();
//! cpu.run(10_000, &mut sink)?;
//! assert_eq!(cpu.reg(6), 15); // t1 = 5+4+3+2+1
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod asm;
mod cpu;
mod inst;
mod program;
mod reg;
mod trace;

pub use asm::{assemble, AsmError};
pub use cpu::{Cpu, CpuError, RunOutcome};
pub use inst::{AluImmOp, AluOp, BranchCond, Inst, MemWidth};
pub use program::{Program, DATA_BASE, STACK_TOP, TEXT_BASE};
pub use reg::Reg;
pub use trace::{
    CountingSink, FetchKind, NullSink, RecordedTrace, RecordingSink, TraceEvent, TraceSink,
};
