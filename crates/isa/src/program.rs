//! Programs, basic blocks, and program counters.
//!
//! A [`Program`] is a list of basic blocks of scheduled EPIC instructions.
//! Control falls through from the end of a block to the next block unless a
//! taken branch redirects it; `Halt` terminates execution. Program counters
//! ([`Pc`]) address an instruction as `(block, index)`.

use std::fmt;

use crate::inst::Inst;
use crate::op::Op;

/// Identifier of a basic block within a [`Program`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}

/// A program counter: basic block plus instruction index within the block.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pc {
    /// Basic block.
    pub block: BlockId,
    /// Instruction index within the block.
    pub index: u32,
}

impl Pc {
    /// The entry point of a program: block 0, instruction 0.
    pub const ENTRY: Pc = Pc { block: BlockId(0), index: 0 };

    /// Creates a program counter.
    #[inline]
    pub fn new(block: BlockId, index: u32) -> Self {
        Pc { block, index }
    }

    /// A synthetic byte address for this pc, used to index the instruction
    /// cache and branch predictor. Blocks are laid out at 4 KiB strides with
    /// 16 bytes per instruction (an EPIC bundle-third is ~5.3 bytes; we round
    /// up so three instructions occupy one 48-byte bundle-pair region).
    #[inline]
    pub fn fetch_address(&self) -> u64 {
        ((self.block.0 as u64) << 12) | ((self.index as u64) * 16)
    }
}

impl fmt::Display for Pc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.block, self.index)
    }
}

/// A validation problem found by [`Program::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidateProgramError {
    /// The program has no blocks.
    Empty,
    /// A branch targets a block that does not exist.
    DanglingBranch {
        /// Location of the offending branch.
        at: Pc,
        /// The missing target block.
        target: BlockId,
    },
    /// The final block can fall through past the end of the program without
    /// a terminating `Halt` or unconditional branch.
    FallsOffEnd,
}

impl fmt::Display for ValidateProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateProgramError::Empty => write!(f, "program has no blocks"),
            ValidateProgramError::DanglingBranch { at, target } => {
                write!(f, "branch at {at} targets missing block {target}")
            }
            ValidateProgramError::FallsOffEnd => {
                write!(f, "control can fall off the end of the program")
            }
        }
    }
}

impl std::error::Error for ValidateProgramError {}

/// A program: an ordered list of basic blocks.
///
/// # Examples
///
/// ```
/// use ff_isa::{Inst, Op, Program, Reg};
/// let mut p = Program::new();
/// let b = p.add_block();
/// p.push(b, Inst::new(Op::Halt));
/// assert!(p.validate().is_ok());
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Program {
    blocks: Vec<Vec<Inst>>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an empty basic block, returning its id.
    pub fn add_block(&mut self) -> BlockId {
        self.blocks.push(Vec::new());
        BlockId((self.blocks.len() - 1) as u32)
    }

    /// Appends an instruction to a block.
    ///
    /// # Panics
    ///
    /// Panics if `block` does not exist.
    pub fn push(&mut self, block: BlockId, inst: Inst) {
        self.blocks[block.0 as usize].push(inst);
    }

    /// Number of basic blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// The instructions of a block, or `None` if the block does not exist.
    #[inline]
    pub fn block(&self, id: BlockId) -> Option<&[Inst]> {
        self.blocks.get(id.0 as usize).map(Vec::as_slice)
    }

    /// Mutable access to a block's instructions (used by the scheduler to
    /// set stop bits), or `None` if the block does not exist.
    pub fn block_mut(&mut self, id: BlockId) -> Option<&mut Vec<Inst>> {
        self.blocks.get_mut(id.0 as usize)
    }

    /// The instruction at `pc`, or `None` when `pc` is out of range.
    #[inline]
    pub fn inst(&self, pc: Pc) -> Option<&Inst> {
        self.block(pc.block)?.get(pc.index as usize)
    }

    /// The pc following `pc` in straight-line order: the next instruction in
    /// the block, or the first instruction of the next non-empty block.
    /// Returns `None` past the end of the program.
    #[inline]
    pub fn next_pc(&self, pc: Pc) -> Option<Pc> {
        let block = self.block(pc.block)?;
        if (pc.index as usize + 1) < block.len() {
            return Some(Pc::new(pc.block, pc.index + 1));
        }
        self.first_pc_from(BlockId(pc.block.0 + 1))
    }

    /// The first instruction at or after the start of `block`, skipping
    /// empty blocks. `None` past the end of the program.
    #[inline]
    pub fn first_pc_from(&self, block: BlockId) -> Option<Pc> {
        let mut b = block.0 as usize;
        while b < self.blocks.len() {
            if !self.blocks[b].is_empty() {
                return Some(Pc::new(BlockId(b as u32), 0));
            }
            b += 1;
        }
        None
    }

    /// Total number of static instructions.
    pub fn num_insts(&self) -> usize {
        self.blocks.iter().map(Vec::len).sum()
    }

    /// Iterates over all `(Pc, &Inst)` pairs in layout order.
    pub fn iter(&self) -> impl Iterator<Item = (Pc, &Inst)> + '_ {
        self.blocks.iter().enumerate().flat_map(|(b, insts)| {
            insts
                .iter()
                .enumerate()
                .map(move |(i, inst)| (Pc::new(BlockId(b as u32), i as u32), inst))
        })
    }

    /// Checks structural well-formedness: at least one instruction, all
    /// branch targets exist, and control cannot run past the last block.
    ///
    /// # Errors
    ///
    /// Returns the first [`ValidateProgramError`] found.
    pub fn validate(&self) -> Result<(), ValidateProgramError> {
        if self.first_pc_from(BlockId(0)).is_none() {
            return Err(ValidateProgramError::Empty);
        }
        for (pc, inst) in self.iter() {
            if let Op::Br { target } = inst.op() {
                if (target.0 as usize) >= self.blocks.len() {
                    return Err(ValidateProgramError::DanglingBranch { at: pc, target: *target });
                }
            }
        }
        // The last instruction in layout order must not allow fall-through
        // off the end: it must be a Halt or an unconditional branch.
        let last =
            self.iter().last().map(|(_, i)| i).expect("non-empty program has a last instruction");
        let terminates = match last.op() {
            Op::Halt => true,
            Op::Br { .. } => !last.is_predicated(),
            _ => false,
        };
        if !terminates {
            return Err(ValidateProgramError::FallsOffEnd);
        }
        Ok(())
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (b, insts) in self.blocks.iter().enumerate() {
            writeln!(f, "B{b}:")?;
            for inst in insts {
                writeln!(f, "    {inst}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::Reg;

    fn tiny() -> Program {
        let mut p = Program::new();
        let b0 = p.add_block();
        let b1 = p.add_block();
        p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(1)).imm(1));
        p.push(b0, Inst::new(Op::Br { target: b1 }).qp(Reg::pred(1)));
        p.push(b1, Inst::new(Op::Halt));
        p
    }

    #[test]
    fn next_pc_walks_blocks() {
        let p = tiny();
        let a = Pc::ENTRY;
        let b = p.next_pc(a).unwrap();
        assert_eq!(b, Pc::new(BlockId(0), 1));
        let c = p.next_pc(b).unwrap();
        assert_eq!(c, Pc::new(BlockId(1), 0));
        assert_eq!(p.next_pc(c), None);
    }

    #[test]
    fn next_pc_skips_empty_blocks() {
        let mut p = Program::new();
        let b0 = p.add_block();
        let _empty = p.add_block();
        let b2 = p.add_block();
        p.push(b0, Inst::new(Op::Nop));
        p.push(b2, Inst::new(Op::Halt));
        let next = p.next_pc(Pc::ENTRY).unwrap();
        assert_eq!(next, Pc::new(BlockId(2), 0));
    }

    #[test]
    fn validate_accepts_wellformed() {
        assert!(tiny().validate().is_ok());
    }

    #[test]
    fn validate_rejects_empty() {
        assert_eq!(Program::new().validate(), Err(ValidateProgramError::Empty));
    }

    #[test]
    fn validate_rejects_dangling_branch() {
        let mut p = Program::new();
        let b0 = p.add_block();
        p.push(b0, Inst::new(Op::Br { target: BlockId(9) }));
        p.push(b0, Inst::new(Op::Halt));
        assert!(matches!(
            p.validate(),
            Err(ValidateProgramError::DanglingBranch { target: BlockId(9), .. })
        ));
    }

    #[test]
    fn validate_rejects_fallthrough_off_end() {
        let mut p = Program::new();
        let b0 = p.add_block();
        p.push(b0, Inst::new(Op::Nop));
        assert_eq!(p.validate(), Err(ValidateProgramError::FallsOffEnd));
        // A predicated branch can fall through, so it does not terminate.
        let mut q = Program::new();
        let b0 = q.add_block();
        q.push(b0, Inst::new(Op::Br { target: b0 }).qp(Reg::pred(3)));
        assert_eq!(q.validate(), Err(ValidateProgramError::FallsOffEnd));
    }

    #[test]
    fn fetch_addresses_are_distinct_per_block() {
        let a = Pc::new(BlockId(0), 3).fetch_address();
        let b = Pc::new(BlockId(1), 0).fetch_address();
        assert_ne!(a, b);
        assert_eq!(b, 1 << 12);
    }

    #[test]
    fn iter_is_layout_order() {
        let p = tiny();
        let pcs: Vec<_> = p.iter().map(|(pc, _)| pc).collect();
        assert_eq!(
            pcs,
            vec![Pc::new(BlockId(0), 0), Pc::new(BlockId(0), 1), Pc::new(BlockId(1), 0)]
        );
        assert_eq!(p.num_insts(), 3);
    }
}
