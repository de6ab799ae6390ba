//! Executable kernel programs.

use std::fmt;

use crate::instr::Instr;

/// A finished kernel: a sequence of instructions with resolved branch
/// targets.
///
/// Produced by [`crate::Asm::finish`]; executed by the `sparseweaver-sim`
/// core pipeline.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Program {
    instrs: Vec<Instr>,
    name: String,
}

impl Program {
    /// Wraps a raw instruction sequence. Targets must already be valid
    /// absolute indices.
    ///
    /// # Panics
    ///
    /// Panics if any branch/jump/split target is out of range (targets may
    /// point one past the end, which halts the warp).
    pub fn new(name: impl Into<String>, instrs: Vec<Instr>) -> Self {
        let len = instrs.len() as u32;
        for (pc, i) in instrs.iter().enumerate() {
            let check = |t: u32| {
                assert!(
                    t <= len,
                    "instruction {pc} ({i}) targets {t}, beyond program length {len}"
                );
            };
            match *i {
                Instr::Br { target, .. } | Instr::Jmp { target } => check(target),
                Instr::Split {
                    else_target,
                    end_target,
                    ..
                } => {
                    check(else_target);
                    check(end_target);
                }
                _ => {}
            }
        }
        Program {
            instrs,
            name: name.into(),
        }
    }

    /// The kernel's name (for reports and traces).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The instruction at `pc`, or `None` past the end.
    pub fn get(&self, pc: u32) -> Option<&Instr> {
        self.instrs.get(pc as usize)
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// All instructions.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Number of Weaver ISA-extension instructions in the program.
    pub fn weaver_instr_count(&self) -> usize {
        self.instrs.iter().filter(|i| i.is_weaver()).count()
    }

    /// The highest architectural register index the program mentions
    /// (sources or destinations), i.e. the number of register-file slots
    /// above `x0` the kernel needs. `x0` is hardwired and does not count;
    /// a program touching only `x0` reports 0.
    ///
    /// This is the *static* footprint the register-file occupancy model
    /// divides into `regs_per_core` — unlike [`crate::Asm`]'s dynamic
    /// high-water, it is defined for any program, including streams
    /// rewritten after assembly (e.g. by the register allocator).
    pub fn register_high_water(&self) -> usize {
        self.instrs
            .iter()
            .flat_map(|i| i.sources().into_iter().chain(i.dest()))
            .map(|r| r.0 as usize)
            .max()
            .unwrap_or(0)
    }
}

impl fmt::Display for Program {
    /// Disassembly listing: one instruction per line with its pc.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "; kernel `{}` ({} instrs)", self.name, self.instrs.len())?;
        for (pc, i) in self.instrs.iter().enumerate() {
            writeln!(f, "{pc:5}: {i}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Reg;

    #[test]
    fn valid_targets_accepted() {
        let p = Program::new("t", vec![Instr::Jmp { target: 2 }, Instr::Nop, Instr::Halt]);
        assert_eq!(p.len(), 3);
        assert_eq!(p.get(0), Some(&Instr::Jmp { target: 2 }));
        assert_eq!(p.get(9), None);
    }

    #[test]
    fn target_one_past_end_allowed() {
        // Falling off the end halts; a jump there is legal.
        let _ = Program::new("t", vec![Instr::Jmp { target: 1 }]);
    }

    #[test]
    #[should_panic(expected = "beyond program length")]
    fn out_of_range_target_panics() {
        let _ = Program::new("t", vec![Instr::Jmp { target: 5 }]);
    }

    #[test]
    fn register_high_water_spans_sources_and_dests() {
        let p = Program::new(
            "hw",
            vec![
                Instr::LdImm { rd: Reg(3), imm: 1 },
                Instr::St {
                    src: Reg(3),
                    addr: Reg(7),
                    offset: 0,
                    width: crate::instr::Width::B8,
                    space: crate::instr::Space::Global,
                },
                Instr::Halt,
            ],
        );
        assert_eq!(p.register_high_water(), 7);
        let zero_only = Program::new("z", vec![Instr::Tmc { rs1: Reg(0) }, Instr::Halt]);
        assert_eq!(zero_only.register_high_water(), 0);
    }

    #[test]
    fn weaver_count_and_display() {
        let p = Program::new(
            "k",
            vec![
                Instr::WeaverDecId { rd: Reg(1) },
                Instr::WeaverDecLoc { rd: Reg(2) },
                Instr::Halt,
            ],
        );
        assert_eq!(p.weaver_instr_count(), 2);
        let text = p.to_string();
        assert!(text.contains("weaver.dec.id"));
        assert!(text.contains("kernel `k`"));
    }
}
