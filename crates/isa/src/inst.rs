//! Instruction encoding: opcode, operands, qualifying predicate, stop bit.

use std::fmt;

use crate::op::Op;
use crate::reg::{Reg, P0};

/// Maximum number of register sources an instruction can name.
pub const MAX_SRCS: usize = 2;

/// A single EPIC instruction.
///
/// Instructions are built with a lightweight builder style:
///
/// ```
/// use ff_isa::{Inst, Op, Reg};
/// let i = Inst::new(Op::Add)
///     .dst(Reg::int(3))
///     .src(Reg::int(1))
///     .src(Reg::int(2))
///     .stop(); // ends the compiler issue group
/// assert_eq!(i.srcs().count(), 2);
/// assert!(i.ends_group());
/// ```
///
/// Every instruction carries a *qualifying predicate* (default `p0`, always
/// true); when the predicate evaluates false at run time the instruction is
/// architecturally a no-op but still occupies an issue slot, as on Itanium.
/// The `stop` flag marks the end of a compiler-formed issue group (the EPIC
/// stop bit): the baseline in-order pipeline never issues instructions from
/// different groups in the same cycle, while multipass regrouping (paper
/// §3.2) may dynamically merge groups without reordering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Inst {
    op: Op,
    qp: Reg,
    dst: Option<Reg>,
    srcs: [Option<Reg>; MAX_SRCS],
    imm: i64,
    stop: bool,
    alias_region: Option<u16>,
}

impl Inst {
    /// Creates an instruction with the given opcode, qualified by `p0`
    /// (always executed), with no operands and no stop bit.
    pub fn new(op: Op) -> Self {
        Inst {
            op,
            qp: P0,
            dst: None,
            srcs: [None; MAX_SRCS],
            imm: 0,
            stop: false,
            alias_region: None,
        }
    }

    /// Tags a memory instruction with an alias region — the result of the
    /// compile-time points-to analysis the paper relies on ("interprocedural
    /// points-to analysis was used to determine independence of load and
    /// store instructions", §5.1). Two memory operations with *different*
    /// regions are guaranteed disjoint; same or unknown regions may alias.
    /// Builder-style.
    #[must_use]
    pub fn region(mut self, region: u16) -> Self {
        self.alias_region = Some(region);
        self
    }

    /// The alias region, if the compiler proved one.
    pub fn alias_region(&self) -> Option<u16> {
        self.alias_region
    }

    /// Whether this instruction's memory access may alias `other`'s.
    /// Non-memory instructions never alias anything.
    pub fn may_alias(&self, other: &Inst) -> bool {
        let mem = |i: &Inst| i.op().is_load() || i.op().is_store();
        if !mem(self) || !mem(other) {
            return false;
        }
        match (self.alias_region, other.alias_region) {
            (Some(a), Some(b)) => a == b,
            _ => true,
        }
    }

    /// Sets the destination register. Builder-style.
    #[must_use]
    pub fn dst(mut self, r: Reg) -> Self {
        self.dst = Some(r);
        self
    }

    /// Appends a source register. Builder-style.
    ///
    /// # Panics
    ///
    /// Panics if the instruction already has [`MAX_SRCS`] sources.
    #[must_use]
    pub fn src(mut self, r: Reg) -> Self {
        let slot = self
            .srcs
            .iter_mut()
            .find(|s| s.is_none())
            .expect("instruction already has the maximum number of sources");
        *slot = Some(r);
        self
    }

    /// Sets the immediate operand. Builder-style.
    #[must_use]
    pub fn imm(mut self, imm: i64) -> Self {
        self.imm = imm;
        self
    }

    /// Sets the qualifying predicate register. Builder-style.
    ///
    /// # Panics
    ///
    /// Panics if `qp` is not a predicate register.
    #[must_use]
    pub fn qp(mut self, qp: Reg) -> Self {
        assert_eq!(
            qp.class(),
            crate::reg::RegClass::Pred,
            "qualifying predicate must be a predicate register"
        );
        self.qp = qp;
        self
    }

    /// Sets the stop bit, ending the compiler issue group after this
    /// instruction. Builder-style.
    #[must_use]
    pub fn stop(mut self) -> Self {
        self.stop = true;
        self
    }

    /// Sets or clears the stop bit in place (used by the scheduler).
    pub fn set_stop(&mut self, stop: bool) {
        self.stop = stop;
    }

    /// The operation.
    #[inline]
    pub fn op(&self) -> &Op {
        &self.op
    }

    /// The qualifying predicate register (`p0` when unconditional).
    #[inline]
    pub fn qp_reg(&self) -> Reg {
        self.qp
    }

    /// Whether the instruction is guarded by a non-trivial predicate.
    #[inline]
    pub fn is_predicated(&self) -> bool {
        self.qp != P0
    }

    /// The destination register, if any.
    #[inline]
    pub fn dst_reg(&self) -> Option<Reg> {
        self.dst
    }

    /// Iterates over the register sources in operand order.
    #[inline]
    pub fn srcs(&self) -> impl Iterator<Item = Reg> + '_ {
        self.srcs.iter().flatten().copied()
    }

    /// The `n`-th source register, if present.
    #[inline]
    pub fn src_n(&self, n: usize) -> Option<Reg> {
        self.srcs.get(n).copied().flatten()
    }

    /// The immediate operand.
    #[inline]
    pub fn imm_val(&self) -> i64 {
        self.imm
    }

    /// Whether this instruction ends its compiler issue group.
    #[inline]
    pub fn ends_group(&self) -> bool {
        self.stop
    }

    /// All registers read at run time: the qualifying predicate (when
    /// non-trivial) plus the named sources.
    #[inline]
    pub fn reads(&self) -> impl Iterator<Item = Reg> + '_ {
        let qp = if self.is_predicated() { Some(self.qp) } else { None };
        qp.into_iter().chain(self.srcs())
    }

    /// Registers written, excluding hardwired destinations (which writes
    /// silently drop).
    #[inline]
    pub fn writes(&self) -> Option<Reg> {
        self.dst.filter(|d| !d.is_hardwired())
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_predicated() {
            write!(f, "({}) ", self.qp)?;
        }
        write!(f, "{}", self.op)?;
        if let Some(d) = self.dst {
            write!(f, " {d} =")?;
        }
        for s in self.srcs() {
            write!(f, " {s}")?;
        }
        if self.imm != 0 || matches!(self.op, Op::MovImm | Op::AddImm) {
            write!(f, " #{}", self.imm)?;
        }
        if let Some(r) = self.alias_region {
            write!(f, " @{r}")?;
        }
        if self.stop {
            write!(f, " ;;")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::BlockId;

    #[test]
    fn builder_assembles_operands() {
        let i = Inst::new(Op::Add).dst(Reg::int(3)).src(Reg::int(1)).src(Reg::int(2));
        assert_eq!(i.dst_reg(), Some(Reg::int(3)));
        let srcs: Vec<_> = i.srcs().collect();
        assert_eq!(srcs, vec![Reg::int(1), Reg::int(2)]);
        assert_eq!(i.src_n(0), Some(Reg::int(1)));
        assert_eq!(i.src_n(1), Some(Reg::int(2)));
        assert_eq!(i.src_n(2), None);
    }

    #[test]
    #[should_panic(expected = "maximum number of sources")]
    fn too_many_sources_panics() {
        let _ = Inst::new(Op::Add).src(Reg::int(1)).src(Reg::int(2)).src(Reg::int(3));
    }

    #[test]
    fn reads_include_nontrivial_predicate() {
        let unpred = Inst::new(Op::Add).src(Reg::int(1));
        assert_eq!(unpred.reads().count(), 1);
        let pred = Inst::new(Op::Add).src(Reg::int(1)).qp(Reg::pred(5));
        let reads: Vec<_> = pred.reads().collect();
        assert_eq!(reads, vec![Reg::pred(5), Reg::int(1)]);
    }

    #[test]
    fn hardwired_writes_are_dropped() {
        let i = Inst::new(Op::MovImm).dst(Reg::int(0)).imm(9);
        assert_eq!(i.writes(), None);
        let j = Inst::new(Op::MovImm).dst(Reg::int(1)).imm(9);
        assert_eq!(j.writes(), Some(Reg::int(1)));
    }

    #[test]
    fn stop_bit_round_trips() {
        let mut i = Inst::new(Op::Nop).stop();
        assert!(i.ends_group());
        i.set_stop(false);
        assert!(!i.ends_group());
    }

    #[test]
    fn display_shows_predication_and_stop() {
        let i = Inst::new(Op::Br { target: BlockId(2) }).qp(Reg::pred(4)).stop();
        assert_eq!(i.to_string(), "(p4) br B2 ;;");
    }

    #[test]
    #[should_panic(expected = "predicate register")]
    fn qp_must_be_predicate() {
        let _ = Inst::new(Op::Add).qp(Reg::int(3));
    }

    #[test]
    fn alias_regions_decide_independence() {
        let ld_a = Inst::new(Op::Load).dst(Reg::int(1)).src(Reg::int(2)).region(0);
        let st_a = Inst::new(Op::Store).src(Reg::int(2)).src(Reg::int(3)).region(0);
        let st_b = Inst::new(Op::Store).src(Reg::int(4)).src(Reg::int(3)).region(1);
        let st_unknown = Inst::new(Op::Store).src(Reg::int(4)).src(Reg::int(3));
        let add = Inst::new(Op::Add).dst(Reg::int(5));
        assert!(ld_a.may_alias(&st_a), "same region aliases");
        assert!(!ld_a.may_alias(&st_b), "proven-disjoint regions do not alias");
        assert!(ld_a.may_alias(&st_unknown), "unknown region is conservative");
        assert!(!ld_a.may_alias(&add), "non-memory ops never alias");
    }
}
