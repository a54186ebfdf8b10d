use std::error::Error;
use std::fmt;

use waymem_cache::MainMemory;

use crate::inst::{AluImmOp, AluOp, MemWidth};
use crate::{FetchKind, Inst, Program, Reg, TraceSink, STACK_TOP};

/// Execution error raised by [`Cpu::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuError {
    /// The word at `pc` does not decode to an instruction.
    IllegalInstruction {
        /// Faulting PC.
        pc: u32,
        /// The undecodable word.
        word: u32,
    },
    /// A load/store address was not aligned to its access size.
    MisalignedAccess {
        /// PC of the memory instruction.
        pc: u32,
        /// The effective address.
        addr: u32,
        /// Access size in bytes.
        size: u8,
    },
}

impl fmt::Display for CpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CpuError::IllegalInstruction { pc, word } => {
                write!(f, "illegal instruction {word:#010x} at pc {pc:#010x}")
            }
            CpuError::MisalignedAccess { pc, addr, size } => write!(
                f,
                "misaligned {size}-byte access to {addr:#010x} at pc {pc:#010x}"
            ),
        }
    }
}

impl Error for CpuError {}

/// Why [`Cpu::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The program executed `halt`.
    Halted {
        /// Instructions retired in this `run` call.
        steps: u64,
    },
    /// The step budget was exhausted before `halt`.
    StepLimit {
        /// Instructions retired in this `run` call (= the budget).
        steps: u64,
    },
}

impl RunOutcome {
    /// `true` when the program halted normally.
    #[must_use]
    pub fn halted(&self) -> bool {
        matches!(self, RunOutcome::Halted { .. })
    }
}

/// The frv-lite interpreter.
///
/// Executes one instruction per [`step`](Self::step), reporting fetches and
/// data accesses to a [`TraceSink`]. Register 0 reads as zero and ignores
/// writes; `div`/`rem` by zero follow the RISC-V convention (all-ones /
/// dividend) instead of trapping, so workloads never fault on data.
///
/// The text segment is decoded once, when the CPU is built, and a fetch
/// from it takes the decoded instruction. A store that overlaps the text
/// re-decodes the words it touched, so self-modifying code runs what
/// memory holds; a fetch from anywhere else reads and decodes memory.
///
/// ```
/// use waymem_isa::{assemble, Cpu, NullSink};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let prog = assemble(".text\nmain: li a0, 7\n addi a0, a0, 1\n halt\n")?;
/// let mut cpu = Cpu::new(&prog);
/// let out = cpu.run(100, &mut NullSink)?;
/// assert!(out.halted());
/// assert_eq!(cpu.reg(10), 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cpu {
    regs: [u32; 32],
    pc: u32,
    mem: MainMemory,
    /// Base address of the decoded text.
    text_base: u32,
    /// `text[i]` is [`Inst::decode`] of the word at `text_base + 4 * i`,
    /// kept in step with memory by every store.
    text: Vec<Option<Inst>>,
    instret: u64,
    halted: bool,
    next_fetch_kind: FetchKind,
}

impl Cpu {
    /// Creates a CPU with `prog` loaded, PC at the entry point and the
    /// stack pointer at [`STACK_TOP`].
    #[must_use]
    pub fn new(prog: &Program) -> Self {
        let mut mem = MainMemory::new();
        prog.load_into(&mut mem);
        let text_base = prog.text_base();
        // Decoded from memory, not `prog.text()`: a data image that
        // overlaps the text was loaded over it.
        let text = (0..prog.text().len())
            .map(|i| Inst::decode(mem.read_u32(text_base.wrapping_add((i * 4) as u32))))
            .collect();
        let mut regs = [0u32; 32];
        regs[Reg::SP.index()] = STACK_TOP;
        Self {
            regs,
            pc: prog.entry(),
            mem,
            text_base,
            text,
            instret: 0,
            halted: false,
            next_fetch_kind: FetchKind::Sequential,
        }
    }

    /// Current program counter.
    #[must_use]
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Reads register `index` (0 always returns 0).
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`.
    #[must_use]
    pub fn reg(&self, index: usize) -> u32 {
        self.regs[index]
    }

    /// Writes register `index`; writes to register 0 are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`.
    pub fn set_reg(&mut self, index: usize, value: u32) {
        if index != 0 {
            self.regs[index] = value;
        }
    }

    /// Instructions retired so far.
    #[must_use]
    pub fn instret(&self) -> u64 {
        self.instret
    }

    /// Whether the CPU has executed `halt`.
    #[must_use]
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// The CPU's memory.
    #[must_use]
    pub fn mem(&self) -> &MainMemory {
        &self.mem
    }

    /// The pre-decoded instruction at `pc`, when `pc` is a decodable
    /// word of the text segment.
    fn decoded(&self, pc: u32) -> Option<Inst> {
        let off = pc.wrapping_sub(self.text_base);
        if !off.is_multiple_of(4) {
            return None;
        }
        self.text.get((off / 4) as usize).copied().flatten()
    }

    /// Re-decodes the text words that the `size` bytes stored at `addr`
    /// overlap (at most two, and none for a store outside the text).
    fn redecode(&mut self, addr: u32, size: u8) {
        let first = addr.wrapping_sub(self.text_base);
        let last = first.wrapping_add(u32::from(size) - 1);
        for off in [first, last] {
            if let Some(slot) = self.text.get_mut((off / 4) as usize) {
                *slot = Inst::decode(self.mem.read_u32(self.text_base.wrapping_add(off & !3)));
            }
        }
    }

    fn rd(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    fn wr(&mut self, r: Reg, v: u32) {
        if r != Reg::ZERO {
            self.regs[r.index()] = v;
        }
    }

    /// Executes one instruction, reporting events to `sink`.
    ///
    /// Returns `Ok(true)` while running and `Ok(false)` once halted (a
    /// halted CPU stays halted and emits nothing).
    ///
    /// # Errors
    ///
    /// [`CpuError::IllegalInstruction`] on an undecodable word,
    /// [`CpuError::MisalignedAccess`] on unaligned data access.
    pub fn step(&mut self, sink: &mut impl TraceSink) -> Result<bool, CpuError> {
        if self.halted {
            return Ok(false);
        }
        let pc = self.pc;
        let kind = self.next_fetch_kind;
        sink.fetch(pc, kind);
        let inst = match self.decoded(pc) {
            Some(inst) => inst,
            None => {
                let word = self.mem.read_u32(pc);
                Inst::decode(word).ok_or(CpuError::IllegalInstruction { pc, word })?
            }
        };

        let mut next_pc = pc.wrapping_add(4);
        let mut next_kind = FetchKind::Sequential;

        match inst {
            Inst::Alu { op, rd, rs1, rs2 } => {
                let a = self.rd(rs1);
                let b = self.rd(rs2);
                let v = alu(op, a, b);
                self.wr(rd, v);
            }
            Inst::AluImm { op, rd, rs1, imm } => {
                let a = self.rd(rs1);
                let v = alu_imm(op, a, imm);
                self.wr(rd, v);
            }
            Inst::Lui { rd, imm } => self.wr(rd, u32::from(imm) << 16),
            Inst::Load {
                width,
                signed,
                rd,
                rs1,
                imm,
            } => {
                let base = self.rd(rs1);
                let disp = i32::from(imm);
                let addr = base.wrapping_add(disp as u32);
                let size = width.bytes();
                check_align(pc, addr, size)?;
                sink.load(base, disp, addr, size);
                let v = match (width, signed) {
                    (MemWidth::Byte, false) => u32::from(self.mem.read_u8(addr)),
                    (MemWidth::Byte, true) => self.mem.read_u8(addr) as i8 as i32 as u32,
                    (MemWidth::Half, false) => u32::from(self.mem.read_u16(addr)),
                    (MemWidth::Half, true) => self.mem.read_u16(addr) as i16 as i32 as u32,
                    (MemWidth::Word, _) => self.mem.read_u32(addr),
                };
                self.wr(rd, v);
            }
            Inst::Store {
                width,
                rs2,
                rs1,
                imm,
            } => {
                let base = self.rd(rs1);
                let disp = i32::from(imm);
                let addr = base.wrapping_add(disp as u32);
                let size = width.bytes();
                check_align(pc, addr, size)?;
                sink.store(base, disp, addr, size);
                let v = self.rd(rs2);
                match width {
                    MemWidth::Byte => self.mem.write_u8(addr, v as u8),
                    MemWidth::Half => self.mem.write_u16(addr, v as u16),
                    MemWidth::Word => self.mem.write_u32(addr, v),
                }
                self.redecode(addr, size);
            }
            Inst::Branch {
                cond,
                rs1,
                rs2,
                offset,
            } => {
                if cond.eval(self.rd(rs1), self.rd(rs2)) {
                    next_pc = pc.wrapping_add(offset as i32 as u32);
                    next_kind = FetchKind::TakenBranch {
                        base: pc,
                        disp: i32::from(offset),
                    };
                }
            }
            Inst::Jal { rd, offset } => {
                self.wr(rd, pc.wrapping_add(4));
                next_pc = pc.wrapping_add(offset as i32 as u32);
                next_kind = FetchKind::TakenBranch {
                    base: pc,
                    disp: i32::from(offset),
                };
            }
            Inst::Jalr { rd, rs1, imm } => {
                let base = self.rd(rs1);
                let target = base.wrapping_add(i32::from(imm) as u32) & !3;
                self.wr(rd, pc.wrapping_add(4));
                next_pc = target;
                next_kind = if rs1 == Reg::RA && imm == 0 {
                    FetchKind::LinkReturn { target }
                } else {
                    FetchKind::Indirect {
                        base,
                        disp: i32::from(imm),
                    }
                };
            }
            Inst::Halt => {
                self.halted = true;
                return Ok(false);
            }
        }

        self.instret += 1;
        self.pc = next_pc;
        self.next_fetch_kind = next_kind;
        Ok(true)
    }

    /// Runs until `halt` or until `max_steps` instructions retire.
    ///
    /// # Errors
    ///
    /// Propagates the first [`CpuError`] raised by [`step`](Self::step).
    pub fn run(
        &mut self,
        max_steps: u64,
        sink: &mut impl TraceSink,
    ) -> Result<RunOutcome, CpuError> {
        let mut steps = 0;
        while steps < max_steps {
            if !self.step(sink)? {
                return Ok(RunOutcome::Halted { steps });
            }
            steps += 1;
        }
        Ok(RunOutcome::StepLimit { steps })
    }
}

fn alu(op: AluOp, a: u32, b: u32) -> u32 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Sll => a.wrapping_shl(b & 31),
        AluOp::Srl => a.wrapping_shr(b & 31),
        AluOp::Sra => ((a as i32).wrapping_shr(b & 31)) as u32,
        AluOp::Slt => u32::from((a as i32) < (b as i32)),
        AluOp::Sltu => u32::from(a < b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Mulhu => ((u64::from(a) * u64::from(b)) >> 32) as u32,
        AluOp::Div => {
            if b == 0 {
                u32::MAX
            } else if a == 0x8000_0000 && b == u32::MAX {
                a // overflow: i32::MIN / -1 = i32::MIN per RISC-V
            } else {
                ((a as i32).wrapping_div(b as i32)) as u32
            }
        }
        AluOp::Rem => {
            if b == 0 {
                a
            } else if a == 0x8000_0000 && b == u32::MAX {
                0
            } else {
                ((a as i32).wrapping_rem(b as i32)) as u32
            }
        }
    }
}

fn alu_imm(op: AluImmOp, a: u32, imm: i16) -> u32 {
    let simm = i32::from(imm) as u32;
    // Logical immediates zero-extend (MIPS convention) so `li rd, imm32`
    // can expand to `lui` + `ori` without the low half smearing the top.
    let zimm = u32::from(imm as u16);
    match op {
        AluImmOp::Addi => a.wrapping_add(simm),
        AluImmOp::Andi => a & zimm,
        AluImmOp::Ori => a | zimm,
        AluImmOp::Xori => a ^ zimm,
        AluImmOp::Slti => u32::from((a as i32) < i32::from(imm)),
        AluImmOp::Slli => a.wrapping_shl(simm & 31),
        AluImmOp::Srli => a.wrapping_shr(simm & 31),
        AluImmOp::Srai => ((a as i32).wrapping_shr(simm & 31)) as u32,
    }
}

fn check_align(pc: u32, addr: u32, size: u8) -> Result<(), CpuError> {
    if !addr.is_multiple_of(u32::from(size)) {
        Err(CpuError::MisalignedAccess { pc, addr, size })
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NullSink, RecordingSink, TraceEvent, DATA_BASE, TEXT_BASE};

    fn run_asm(src: &str) -> Cpu {
        let prog = crate::assemble(src).expect("assembles");
        let mut cpu = Cpu::new(&prog);
        cpu.run(1_000_000, &mut NullSink).expect("runs");
        assert!(cpu.is_halted(), "program must halt");
        cpu
    }

    #[test]
    fn arithmetic_and_logic() {
        let cpu = run_asm(
            r#"
            .text
main:   li   t0, 6
        li   t1, 7
        mul  t2, t0, t1
        add  t3, t0, t1
        sub  t4, t0, t1
        and  t5, t0, t1
        or   t6, t0, t1
        halt
        "#,
        );
        assert_eq!(cpu.reg(7), 42); // t2
        assert_eq!(cpu.reg(28), 13); // t3
        assert_eq!(cpu.reg(29), -1i32 as u32); // t4
        assert_eq!(cpu.reg(30), 6); // t5
        assert_eq!(cpu.reg(31), 7); // t6
    }

    #[test]
    fn division_semantics() {
        let cpu = run_asm(
            r#"
            .text
main:   li   t0, -20
        li   t1, 6
        div  t2, t0, t1
        rem  t3, t0, t1
        li   t4, 0
        div  t5, t0, t4      # div by zero -> all ones
        rem  t6, t0, t4      # rem by zero -> dividend
        halt
        "#,
        );
        assert_eq!(cpu.reg(7) as i32, -3);
        assert_eq!(cpu.reg(28) as i32, -2);
        assert_eq!(cpu.reg(30), u32::MAX);
        assert_eq!(cpu.reg(31) as i32, -20);
    }

    #[test]
    fn loads_and_stores_round_trip() {
        let cpu = run_asm(
            r#"
            .data
buf:    .space 64
            .text
main:   la   t0, buf
        li   t1, 0x1234
        sw   t1, 0(t0)
        lw   t2, 0(t0)
        sh   t1, 8(t0)
        lhu  t3, 8(t0)
        sb   t1, 12(t0)
        lbu  t4, 12(t0)
        li   t5, -1
        sb   t5, 16(t0)
        lb   t6, 16(t0)
        halt
        "#,
        );
        assert_eq!(cpu.reg(7), 0x1234);
        assert_eq!(cpu.reg(28), 0x1234);
        assert_eq!(cpu.reg(29), 0x34);
        assert_eq!(cpu.reg(31), u32::MAX); // sign-extended -1
    }

    #[test]
    fn call_and_return_emit_link_events() {
        let prog = crate::assemble(
            r#"
            .text
main:   call  leaf
        halt
leaf:   li    a0, 99
        ret
        "#,
        )
        .unwrap();
        let mut cpu = Cpu::new(&prog);
        let mut sink = RecordingSink::default();
        cpu.run(100, &mut sink).unwrap();
        assert_eq!(cpu.reg(10), 99);
        let fetches: Vec<_> = sink
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Fetch { pc, kind } => Some((*pc, *kind)),
                _ => None,
            })
            .collect();
        // main(call) -> leaf(li) via TakenBranch, leaf+4(ret), back via LinkReturn.
        assert!(matches!(fetches[1].1, FetchKind::TakenBranch { .. }));
        let ret_target = fetches.last().unwrap();
        assert!(matches!(ret_target.1, FetchKind::LinkReturn { .. }));
        assert_eq!(ret_target.0, TEXT_BASE + 4, "returns to after the call");
    }

    #[test]
    fn loop_branches_report_base_and_disp() {
        let prog = crate::assemble(
            r#"
            .text
main:   li   t0, 3
loop:   addi t0, t0, -1
        bnez t0, loop
        halt
        "#,
        )
        .unwrap();
        let mut cpu = Cpu::new(&prog);
        let mut sink = RecordingSink::default();
        cpu.run(100, &mut sink).unwrap();
        let taken: Vec<_> = sink
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Fetch {
                    kind: FetchKind::TakenBranch { base, disp },
                    ..
                } => Some((*base, *disp)),
                _ => None,
            })
            .collect();
        assert_eq!(taken.len(), 2, "branch taken twice (t0: 2, 1)");
        for (base, disp) in taken {
            // `loop` sits one instruction (the one-word li) past TEXT_BASE.
            assert_eq!(base.wrapping_add(disp as u32), TEXT_BASE + 4);
            assert!(disp < 0);
        }
    }

    #[test]
    fn load_event_carries_base_and_disp() {
        let prog = crate::assemble(
            r#"
            .data
v:      .word 5
            .text
main:   la  t0, v
        lw  t1, 0(t0)
        halt
        "#,
        )
        .unwrap();
        let mut cpu = Cpu::new(&prog);
        let mut sink = RecordingSink::default();
        cpu.run(100, &mut sink).unwrap();
        let loads: Vec<_> = sink
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Load {
                    base,
                    disp,
                    addr,
                    size,
                } => Some((*base, *disp, *addr, *size)),
                _ => None,
            })
            .collect();
        assert_eq!(loads, vec![(DATA_BASE, 0, DATA_BASE, 4)]);
        assert_eq!(cpu.reg(6), 5);
    }

    #[test]
    fn misaligned_word_access_faults() {
        let prog = Program::from_insts(&[
            Inst::AluImm {
                op: AluImmOp::Addi,
                rd: Reg::new(5).unwrap(),
                rs1: Reg::ZERO,
                imm: 2,
            },
            Inst::Load {
                width: MemWidth::Word,
                signed: true,
                rd: Reg::new(6).unwrap(),
                rs1: Reg::new(5).unwrap(),
                imm: 0,
            },
        ]);
        let mut cpu = Cpu::new(&prog);
        let err = cpu.run(10, &mut NullSink).unwrap_err();
        assert!(matches!(
            err,
            CpuError::MisalignedAccess { addr: 2, size: 4, .. }
        ));
    }

    #[test]
    fn illegal_instruction_faults_with_pc() {
        let prog = Program::from_parts(
            TEXT_BASE,
            vec![0xdead_beef],
            DATA_BASE,
            vec![],
            TEXT_BASE,
            Default::default(),
        );
        let mut cpu = Cpu::new(&prog);
        let err = cpu.step(&mut NullSink).unwrap_err();
        assert_eq!(
            err,
            CpuError::IllegalInstruction {
                pc: TEXT_BASE,
                word: 0xdead_beef
            }
        );
    }

    #[test]
    fn register_zero_is_immutable() {
        let cpu = run_asm(".text\nmain: li t0, 5\n add zero, t0, t0\n halt\n");
        assert_eq!(cpu.reg(0), 0);
    }

    #[test]
    fn halted_cpu_stays_halted() {
        let prog = Program::from_insts(&[Inst::Halt]);
        let mut cpu = Cpu::new(&prog);
        assert!(!cpu.step(&mut NullSink).unwrap());
        assert!(!cpu.step(&mut NullSink).unwrap());
        assert_eq!(cpu.instret(), 0, "halt itself does not retire");
    }

    #[test]
    fn step_limit_reported() {
        let prog = crate::assemble(".text\nmain: j main\n").unwrap();
        let mut cpu = Cpu::new(&prog);
        let out = cpu.run(50, &mut NullSink).unwrap();
        assert_eq!(out, RunOutcome::StepLimit { steps: 50 });
        assert!(!out.halted());
    }

    fn reg(index: u8) -> Reg {
        Reg::new(index).expect("in range")
    }

    /// `lui` + `ori`: loads any 32-bit `value` into `rd`.
    fn li(rd: Reg, value: u32) -> [Inst; 2] {
        [
            Inst::Lui { rd, imm: (value >> 16) as u16 },
            Inst::AluImm { op: AluImmOp::Ori, rd, rs1: rd, imm: value as u16 as i16 },
        ]
    }

    fn addi_a0(imm: i16) -> Inst {
        Inst::AluImm { op: AluImmOp::Addi, rd: reg(10), rs1: Reg::ZERO, imm }
    }

    /// A program that stores `value` (`width` wide) `offset` bytes into its
    /// own text, then runs `addi a0, zero, 1` (word 5, offset 20) and
    /// halts (word 6). Word 7, a second `halt`, is never reached.
    fn self_patching(width: MemWidth, value: u32, offset: i16) -> Program {
        let (t0, t1) = (reg(5), reg(6));
        let mut insts = li(t0, value).to_vec();
        insts.extend(li(t1, TEXT_BASE));
        insts.push(Inst::Store { width, rs2: t0, rs1: t1, imm: offset });
        insts.extend([addi_a0(1), Inst::Halt, Inst::Halt]);
        Program::from_insts(&insts)
    }

    /// Every pre-decoded text entry equals a fresh decode of its word in
    /// memory.
    fn assert_text_matches_memory(cpu: &Cpu) {
        for (i, inst) in cpu.text.iter().enumerate() {
            let addr = cpu.text_base.wrapping_add((i * 4) as u32);
            assert_eq!(*inst, Inst::decode(cpu.mem.read_u32(addr)), "text word at {addr:#010x}");
        }
    }

    fn run_to_halt(prog: &Program) -> Cpu {
        let mut cpu = Cpu::new(prog);
        assert!(cpu.run(100, &mut NullSink).expect("runs").halted());
        assert_text_matches_memory(&cpu);
        cpu
    }

    #[test]
    fn a_word_stored_over_a_later_instruction_is_what_runs() {
        let cpu = run_to_halt(&self_patching(MemWidth::Word, addi_a0(42).encode(), 20));
        assert_eq!(cpu.reg(10), 42);
    }

    #[test]
    fn a_partial_store_into_a_text_word_re_decodes_it() {
        // The immediate is the low half of the word, stored first
        // (little-endian): `sh` or `sb` of 42 there turns `addi a0, zero,
        // 1` into `addi a0, zero, 42`.
        for width in [MemWidth::Half, MemWidth::Byte] {
            let cpu = run_to_halt(&self_patching(width, 42, 20));
            assert_eq!(cpu.reg(10), 42, "{width:?}");
        }
    }

    #[test]
    fn an_illegal_word_stored_into_the_text_faults_only_when_run() {
        assert_eq!(Inst::decode(0xdead_beef), None);
        // Over the unreached second `halt`: the program still halts.
        let cpu = run_to_halt(&self_patching(MemWidth::Word, 0xdead_beef, 28));
        assert_eq!(cpu.reg(10), 1);
        assert_eq!(cpu.text[7], None);
        // Over the `addi`: the fault names its pc and the stored word.
        let mut cpu = Cpu::new(&self_patching(MemWidth::Word, 0xdead_beef, 20));
        let err = cpu.run(100, &mut NullSink).expect_err("runs the illegal word");
        assert_eq!(err, CpuError::IllegalInstruction { pc: TEXT_BASE + 20, word: 0xdead_beef });
        assert_eq!(cpu.instret(), 5, "the five instructions before it retired");
    }

    #[test]
    fn a_jump_into_data_runs_the_words_memory_holds() {
        // The data segment holds `addi a0, zero, 7; halt`. The text
        // overwrites the `addi` with `addi a0, zero, 9`, then jumps there.
        let data = [addi_a0(7), Inst::Halt].iter().flat_map(|i| i.encode().to_le_bytes()).collect();
        let (t0, t1) = (reg(5), reg(6));
        let mut insts = li(t0, addi_a0(9).encode()).to_vec();
        insts.extend(li(t1, DATA_BASE));
        insts.push(Inst::Store { width: MemWidth::Word, rs2: t0, rs1: t1, imm: 0 });
        insts.push(Inst::Jalr { rd: Reg::ZERO, rs1: t1, imm: 0 });
        let text = insts.iter().map(|i| i.encode()).collect();
        let prog =
            Program::from_parts(TEXT_BASE, text, DATA_BASE, data, TEXT_BASE, Default::default());
        let mut cpu = Cpu::new(&prog);
        let mut sink = RecordingSink::default();
        assert!(cpu.run(100, &mut sink).expect("runs").halted());
        assert_eq!(cpu.reg(10), 9);
        let pcs: Vec<u32> = sink
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Fetch { pc, .. } => Some(*pc),
                _ => None,
            })
            .collect();
        assert_eq!(pcs[6..], [DATA_BASE, DATA_BASE + 4]);
    }

    /// A text word for the random programs: any word, or a store or an
    /// `addi` over registers 1–15, which point at words of the text.
    fn random_text_word() -> impl proptest::strategy::Strategy<Value = u32> {
        use proptest::prelude::*;
        let widths = [MemWidth::Byte, MemWidth::Half, MemWidth::Word];
        let width = (0usize..3).prop_map(move |w| widths[w]);
        prop_oneof![
            any::<u32>(),
            (width, 1u8..16, 1u8..16, 0i16..64).prop_map(|(width, rs2, rs1, word)| {
                Inst::Store { width, rs2: reg(rs2), rs1: reg(rs1), imm: word * 4 }.encode()
            }),
            (1u8..16, 1u8..16, -8i16..8).prop_map(|(rd, rs1, imm)| {
                Inst::AluImm { op: AluImmOp::Addi, rd: reg(rd), rs1: reg(rs1), imm }.encode()
            }),
        ]
    }

    proptest::proptest! {
        /// Random programs that store into their own text: after every
        /// step, the decoded text equals a decode of memory. A skewed
        /// text base makes aligned stores straddle two text words.
        #[test]
        fn decoded_text_matches_memory_on_random_programs(
            words in proptest::collection::vec(random_text_word(), 1..64),
            offsets in proptest::collection::vec(0u32..256, 15),
            skew in 0u32..4,
        ) {
            let base = TEXT_BASE + skew;
            let prog =
                Program::from_parts(base, words, DATA_BASE, vec![], base, Default::default());
            let mut cpu = Cpu::new(&prog);
            for (r, off) in (1..).zip(&offsets) {
                cpu.set_reg(r, TEXT_BASE + (off & !3));
            }
            assert_text_matches_memory(&cpu);
            for _ in 0..500 {
                let running = cpu.step(&mut NullSink);
                assert_text_matches_memory(&cpu);
                if !matches!(running, Ok(true)) {
                    break;
                }
            }
        }
    }

    #[test]
    fn recursion_uses_stack() {
        // fib(10) via naive recursion exercises call/ret + stack traffic.
        let cpu = run_asm(
            r#"
            .text
main:   li   a0, 10
        call fib
        halt
fib:    li   t0, 2
        blt  a0, t0, base
        addi sp, sp, -12
        sw   ra, 0(sp)
        sw   a0, 4(sp)
        addi a0, a0, -1
        call fib
        sw   a0, 8(sp)       # fib(n-1)
        lw   a0, 4(sp)
        addi a0, a0, -2
        call fib
        lw   t1, 8(sp)
        add  a0, a0, t1
        lw   ra, 0(sp)
        addi sp, sp, 12
        ret
base:   ret
        "#,
        );
        assert_eq!(cpu.reg(10), 55);
    }
}
