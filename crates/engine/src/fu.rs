//! Runtime functional-unit arbitration.

use ff_isa::{FuClass, Inst};

use crate::config::MachineConfig;

/// Per-cycle functional-unit slot allocator with persistent busy tracking
/// for unpipelined units (dividers occupy their F port for their full
/// latency).
///
/// Call [`FuPool::new_cycle`] at the start of every simulated cycle, then
/// [`FuPool::try_issue`] for each candidate instruction in issue order.
#[derive(Clone, Debug)]
pub struct FuPool {
    mem_ports: u32,
    int_ports: u32,
    branch_ports: u32,
    width: u32,
    // Remaining slots this cycle.
    mem_free: u32,
    int_free: u32,
    fp_free: u32,
    branch_free: u32,
    width_free: u32,
    /// Busy-until cycle per FP unit (for unpipelined divides).
    fp_busy_until: Vec<u64>,
}

impl FuPool {
    /// Creates a pool from the machine configuration.
    pub fn new(config: &MachineConfig) -> Self {
        FuPool {
            mem_ports: config.mem_ports,
            int_ports: config.int_ports,
            branch_ports: config.branch_ports,
            width: config.issue_width,
            mem_free: 0,
            int_free: 0,
            fp_free: 0,
            branch_free: 0,
            width_free: 0,
            fp_busy_until: vec![0; config.fp_ports as usize],
        }
    }

    /// Resets the per-cycle slot budgets for cycle `now`. FP ports occupied
    /// by an unpipelined op remain unavailable.
    #[inline]
    pub fn new_cycle(&mut self, now: u64) {
        self.mem_free = self.mem_ports;
        self.int_free = self.int_ports;
        self.branch_free = self.branch_ports;
        self.width_free = self.width;
        self.fp_free = self.fp_busy_until.iter().filter(|&&b| b <= now).count() as u32;
    }

    /// Attempts to reserve a slot for `inst` issuing at cycle `now`.
    /// Returns whether the reservation succeeded. Unpipelined ops mark one
    /// FP unit busy until `now + latency`.
    #[inline]
    pub fn try_issue(&mut self, inst: &Inst, now: u64) -> bool {
        if self.width_free == 0 {
            return false;
        }
        let ok = match inst.op().fu_class() {
            FuClass::Mem => take(&mut self.mem_free),
            FuClass::Branch => take(&mut self.branch_free),
            FuClass::Int => {
                if inst.op().is_a_type() {
                    take(&mut self.int_free) || take(&mut self.mem_free)
                } else {
                    take(&mut self.int_free)
                }
            }
            FuClass::Fp => {
                if take(&mut self.fp_free) {
                    if inst.op().is_unpipelined() {
                        // Occupy the first free FP unit for the op's latency.
                        if let Some(b) = self.fp_busy_until.iter_mut().find(|b| **b <= now) {
                            *b = now + inst.op().latency() as u64;
                        }
                    }
                    true
                } else {
                    false
                }
            }
        };
        if ok {
            self.width_free -= 1;
        }
        ok
    }

    /// Whether `inst` could reserve a slot at the *start* of cycle `now`,
    /// before any issue has consumed a budget. Non-mutating; used by the
    /// event-driven tick to prove a head-of-queue instruction is blocked
    /// purely on an occupied unpipelined FP unit.
    #[inline]
    pub fn can_issue_fresh(&self, inst: &Inst, now: u64) -> bool {
        if self.width == 0 {
            return false;
        }
        match inst.op().fu_class() {
            FuClass::Mem => self.mem_ports > 0,
            FuClass::Branch => self.branch_ports > 0,
            FuClass::Int => self.int_ports > 0 || (inst.op().is_a_type() && self.mem_ports > 0),
            FuClass::Fp => self.fp_busy_until.iter().any(|&b| b <= now),
        }
    }

    /// The earliest cycle after `now` at which an occupied unpipelined FP
    /// unit frees, or `u64::MAX` when none is in flight — a wake point for
    /// the event-driven tick.
    #[inline]
    pub fn next_fp_release(&self, now: u64) -> u64 {
        self.fp_busy_until.iter().copied().filter(|&b| b > now).min().unwrap_or(u64::MAX)
    }
}

#[inline]
fn take(slot: &mut u32) -> bool {
    if *slot > 0 {
        *slot -= 1;
        true
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_isa::{Op, Reg};

    fn pool() -> FuPool {
        FuPool::new(&MachineConfig::default())
    }

    #[test]
    fn width_limits_total_issue() {
        let mut p = pool();
        p.new_cycle(0);
        let add = Inst::new(Op::AddImm).dst(Reg::int(1)).src(Reg::int(0)).imm(1);
        let mut issued = 0;
        while p.try_issue(&add, 0) {
            issued += 1;
        }
        assert_eq!(issued, 6);
    }

    #[test]
    fn mem_ports_limit_loads() {
        let mut p = pool();
        p.new_cycle(0);
        let ld = Inst::new(Op::Load).dst(Reg::int(1)).src(Reg::int(2));
        let mut issued = 0;
        while p.try_issue(&ld, 0) {
            issued += 1;
        }
        assert_eq!(issued, 4);
    }

    #[test]
    fn unpipelined_div_blocks_fp_unit_across_cycles() {
        let mut p = pool();
        let div = Inst::new(Op::Div).dst(Reg::int(1)).src(Reg::int(2)).src(Reg::int(3));
        let fadd = Inst::new(Op::FAdd).dst(Reg::fp(1)).src(Reg::fp(2)).src(Reg::fp(3));
        p.new_cycle(0);
        assert!(p.try_issue(&div, 0));
        assert!(p.try_issue(&div, 0)); // second FP unit
        assert!(!p.try_issue(&fadd, 0)); // both busy this cycle
        p.new_cycle(5);
        assert!(!p.try_issue(&fadd, 5), "divs hold units for 20 cycles");
        p.new_cycle(20);
        assert!(p.try_issue(&fadd, 20));
    }

    #[test]
    fn pipelined_fp_frees_next_cycle() {
        let mut p = pool();
        let fmul = Inst::new(Op::FMul).dst(Reg::fp(1)).src(Reg::fp(2)).src(Reg::fp(3));
        p.new_cycle(0);
        assert!(p.try_issue(&fmul, 0));
        assert!(p.try_issue(&fmul, 0));
        p.new_cycle(1);
        assert!(p.try_issue(&fmul, 1), "pipelined units accept per cycle");
    }

    #[test]
    fn new_cycle_resets_budgets() {
        let mut p = pool();
        p.new_cycle(0);
        let br = Inst::new(Op::Halt);
        assert!(p.try_issue(&br, 0));
        assert!(p.try_issue(&br, 0));
        assert!(p.try_issue(&br, 0));
        assert!(!p.try_issue(&br, 0));
        p.new_cycle(1);
        assert!(p.try_issue(&br, 1));
    }
}
