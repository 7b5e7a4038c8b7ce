//! Register scoreboard with stall-cause tracking.

use ff_isa::{Inst, Op, Reg};

use crate::stats::StallKind;

/// Why a register write is outstanding — used to attribute stall cycles to
/// the paper's Figure 6 categories (`load` vs `other`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PendingKind {
    /// No outstanding write.
    #[default]
    None,
    /// The in-flight writer is a load (cache-miss stall category).
    Load,
    /// The in-flight writer is a multi-cycle execution op (other category).
    Exec,
}

/// Per-register ready cycles for all three register files, indexed by
/// [`Reg::flat_index`].
///
/// A register is *ready at cycle `t`* when its most recent writer's result
/// is available for bypass at `t`. Hardwired registers are always ready:
/// [`Scoreboard::set_pending`] drops them, so their slots stay at cycle 0
/// and no lookup has to test for them.
///
/// # Examples
///
/// ```
/// use ff_engine::{PendingKind, Scoreboard};
/// use ff_isa::Reg;
///
/// let mut sb = Scoreboard::new();
/// sb.set_pending(Reg::int(3), 10, PendingKind::Load);
/// assert!(!sb.ready(Reg::int(3), 9));
/// assert!(sb.ready(Reg::int(3), 10));
/// assert_eq!(sb.pending_kind(Reg::int(3), 9), PendingKind::Load);
/// ```
#[derive(Clone, Debug)]
pub struct Scoreboard {
    ready_at: Vec<u64>,
    kind: Vec<PendingKind>,
}

impl Default for Scoreboard {
    fn default() -> Self {
        Self::new()
    }
}

impl Scoreboard {
    /// Creates a scoreboard with every register ready at cycle 0.
    pub fn new() -> Self {
        Scoreboard {
            ready_at: vec![0; Reg::FLAT_COUNT],
            kind: vec![PendingKind::None; Reg::FLAT_COUNT],
        }
    }

    /// Whether `reg` is ready at cycle `now`.
    #[inline]
    pub fn ready(&self, reg: Reg, now: u64) -> bool {
        self.ready_at[reg.flat_index()] <= now
    }

    /// The cycle at which `reg` becomes ready.
    #[inline]
    pub fn ready_cycle(&self, reg: Reg) -> u64 {
        self.ready_at[reg.flat_index()]
    }

    /// Marks `reg` as written by an operation whose result is available at
    /// `ready_at`.
    #[inline]
    pub fn set_pending(&mut self, reg: Reg, ready_at: u64, kind: PendingKind) {
        if reg.is_hardwired() {
            return;
        }
        let i = reg.flat_index();
        self.ready_at[i] = ready_at;
        self.kind[i] = kind;
    }

    /// The cause of `reg`'s outstanding write at `now`, or
    /// [`PendingKind::None`] when ready.
    #[inline]
    pub fn pending_kind(&self, reg: Reg, now: u64) -> PendingKind {
        if self.ready(reg, now) {
            PendingKind::None
        } else {
            self.kind[reg.flat_index()]
        }
    }

    /// The latest ready cycle across all registers (drain time).
    pub fn drain_cycle(&self) -> u64 {
        self.ready_at.iter().copied().max().unwrap_or(0)
    }

    /// Resets every register to ready-now (used on pipeline flushes where
    /// in-flight results are discarded).
    pub fn clear(&mut self) {
        self.ready_at.fill(0);
        self.kind.fill(PendingKind::None);
    }
}

/// Why an instruction cannot enter the REG stage this cycle, or `None`
/// when all of its operands (and its destination, for §3.5 WAW
/// scoreboarding) are ready.
///
/// The registers are checked in a fixed order: the qualifying predicate,
/// the sources in operand order, then the destination; the first pending
/// one names the stall. An unpredicated instruction's `p0` and a hardwired
/// destination are never pending, so they need no test of their own.
///
/// `RESTART` is an architectural no-op and never interlocks here; only the
/// multipass advance pipeline gives it meaning.
#[inline]
pub fn operand_stall(inst: &Inst, sb: &Scoreboard, now: u64) -> Option<StallKind> {
    if matches!(inst.op(), Op::Restart) {
        return None;
    }
    let stall = |r: Reg| match sb.pending_kind(r, now) {
        PendingKind::None => None,
        PendingKind::Load => Some(StallKind::Load),
        PendingKind::Exec => Some(StallKind::Other),
    };
    stall(inst.qp_reg())
        .or_else(|| inst.src_n(0).and_then(stall))
        .or_else(|| inst.src_n(1).and_then(stall))
        .or_else(|| inst.dst_reg().and_then(stall))
}

/// The earliest future cycle at which one of `inst`'s interlocked
/// registers (sources, predicate, and the §3.5 WAW destination) becomes
/// ready — i.e. the first cycle at which [`operand_stall`]'s answer can
/// change through the passage of time alone. `None` when nothing pends
/// past `now`. The event-driven tick uses this as a conservative wake
/// point: the *kind* of stall may differ once the earliest operand
/// readies, so the window must be re-evaluated there, not at the max.
#[inline]
pub fn operand_wake(inst: &Inst, sb: &Scoreboard, now: u64) -> Option<u64> {
    if matches!(inst.op(), Op::Restart) {
        return None;
    }
    // An absent operand is ready at cycle 0, like a hardwired one.
    let ready = |r: Option<Reg>| r.map_or(0, |r| sb.ready_cycle(r));
    let cycles = [
        sb.ready_cycle(inst.qp_reg()),
        ready(inst.src_n(0)),
        ready(inst.src_n(1)),
        ready(inst.dst_reg()),
    ];
    let mut wake: Option<u64> = None;
    for c in cycles {
        if c > now && wake.is_none_or(|w| c < w) {
            wake = Some(c);
        }
    }
    wake
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operand_stall_classifies_blocking_writer() {
        let mut sb = Scoreboard::new();
        sb.set_pending(Reg::int(1), 50, PendingKind::Load);
        let consumer = Inst::new(Op::Add).dst(Reg::int(2)).src(Reg::int(1)).src(Reg::int(3));
        assert_eq!(operand_stall(&consumer, &sb, 10), Some(StallKind::Load));
        assert_eq!(operand_stall(&consumer, &sb, 50), None);
        // WAW on the destination also stalls.
        let waw = Inst::new(Op::MovImm).dst(Reg::int(1)).imm(1);
        assert_eq!(operand_stall(&waw, &sb, 10), Some(StallKind::Load));
        // RESTART never interlocks architecturally.
        let restart = Inst::new(Op::Restart).src(Reg::int(1));
        assert_eq!(operand_stall(&restart, &sb, 10), None);
    }

    #[test]
    fn registers_start_ready() {
        let sb = Scoreboard::new();
        assert!(sb.ready(Reg::int(5), 0));
        assert!(sb.ready(Reg::fp(5), 0));
        assert!(sb.ready(Reg::pred(5), 0));
    }

    #[test]
    fn pending_blocks_until_ready_cycle() {
        let mut sb = Scoreboard::new();
        sb.set_pending(Reg::fp(2), 7, PendingKind::Exec);
        assert!(!sb.ready(Reg::fp(2), 6));
        assert!(sb.ready(Reg::fp(2), 7));
        assert_eq!(sb.pending_kind(Reg::fp(2), 6), PendingKind::Exec);
        assert_eq!(sb.pending_kind(Reg::fp(2), 7), PendingKind::None);
    }

    #[test]
    fn hardwired_never_pend() {
        let mut sb = Scoreboard::new();
        sb.set_pending(Reg::int(0), 100, PendingKind::Load);
        assert!(sb.ready(Reg::int(0), 0));
        sb.set_pending(Reg::pred(0), 100, PendingKind::Load);
        assert!(sb.ready(Reg::pred(0), 0));
    }

    #[test]
    fn drain_cycle_is_max() {
        let mut sb = Scoreboard::new();
        sb.set_pending(Reg::int(1), 5, PendingKind::Exec);
        sb.set_pending(Reg::int(2), 12, PendingKind::Load);
        assert_eq!(sb.drain_cycle(), 12);
        sb.clear();
        assert_eq!(sb.drain_cycle(), 0);
    }
}
