//! Retirement-event instrumentation shared by every execution model.
//!
//! Every pipeline model retires the same architectural instruction stream
//! (that is the whole point of the equivalence oracle), so retirement
//! granularity is the natural place to observe a model's architectural
//! effects without perturbing its timing. A model invoked through
//! [`crate::ExecutionModel::run_observed`] reports one [`RetireEvent`] per
//! retired dynamic instruction to the run's
//! [`PipelineProbe::on_retire`] — its location, the register it wrote, the
//! store it performed, and (for multipass) the mode and advance-episode
//! window active at retirement. Events are plain `Copy` values holding a
//! copy of the retired instruction, so a probe keeps one by copying it.
//! A probe that wants nothing else answers [`Observes::Retirements`];
//! [`RetireRing`] is one. The `ff-debug` crate consumes these events to
//! run a golden interpreter in lockstep and report the *first divergence*
//! of a buggy model.

use std::collections::VecDeque;
use std::fmt;

use ff_isa::interp::Effect;
use ff_isa::{Inst, Pc, Reg};

use crate::probe::{Observes, PipelineProbe};

/// Pipeline mode at the moment of retirement.
///
/// The baselines always retire in [`RetireMode::Architectural`]; the
/// multipass pipeline also retires during rally (merging preserved
/// results). No instruction retires during advance preexecution, but the
/// variant exists so probes can render mode traces uniformly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetireMode {
    /// Conventional in-order execution.
    Architectural,
    /// Advance preexecution (never produces retirements itself).
    Advance,
    /// Multipass rally: architectural resumption over preserved results.
    Rally,
}

impl fmt::Display for RetireMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RetireMode::Architectural => write!(f, "architectural"),
            RetireMode::Advance => write!(f, "advance"),
            RetireMode::Rally => write!(f, "rally"),
        }
    }
}

/// The advance-episode window active when an instruction retired (multipass
/// only): the stalled trigger, the PEEK high-water mark, and the DEQ point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EpisodeWindow {
    /// Sequence number of the load-interlocked trigger instruction.
    pub trigger: u64,
    /// Farthest sequence number reached by advance preexecution (PEEK).
    pub peek: u64,
    /// Sequence number being dequeued architecturally (DEQ).
    pub deq: u64,
}

impl fmt::Display for EpisodeWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trigger={} peek={} deq={}", self.trigger, self.peek, self.deq)
    }
}

/// One architecturally retired dynamic instruction.
///
/// The event fires once per retired instruction whenever the run's probe
/// observes retirements.
#[derive(Clone, Copy, Debug)]
pub struct RetireEvent {
    /// Position in the dynamic instruction stream (0-based).
    pub seq: u64,
    /// Cycle at which the instruction retired.
    pub cycle: u64,
    /// Static location.
    pub pc: Pc,
    /// The retired instruction.
    pub inst: Inst,
    /// Qualifying-predicate outcome, when the model evaluated it at
    /// retirement. `None` when the retirement merged a preserved result
    /// whose predicate was resolved during an earlier pass.
    pub qp_true: Option<bool>,
    /// Destination register and the value written, if the instruction
    /// performed a register write.
    pub wrote: Option<(Reg, u64)>,
    /// Address and data of the store performed, if any.
    pub stored: Option<(u64, u64)>,
    /// Pipeline mode at retirement.
    pub mode: RetireMode,
    /// Whether the result was merged from the multipass result store
    /// (E-bit reuse) rather than freshly executed.
    pub merged: bool,
    /// The advance-episode window, when one is active (multipass rally).
    pub episode: Option<EpisodeWindow>,
}

impl RetireEvent {
    /// The event of an instruction that executed to retirement rather than
    /// merging a preserved result: its location and what its [`Effect`]
    /// did to architectural state, retired in `cycle` under `mode`.
    #[inline]
    pub fn executed(
        seq: u64,
        pc: Pc,
        inst: Inst,
        effect: &Effect,
        cycle: u64,
        mode: RetireMode,
        episode: Option<EpisodeWindow>,
    ) -> RetireEvent {
        RetireEvent {
            seq,
            cycle,
            pc,
            inst,
            qp_true: Some(effect.qp_true),
            wrote: effect.wrote,
            stored: effect.stored,
            mode,
            merged: false,
            episode,
        }
    }
}

impl fmt::Display for RetireEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{:<6} cy{:<8} {} `{}`", self.seq, self.cycle, self.pc, self.inst)?;
        match self.qp_true {
            Some(true) => {}
            Some(false) => write!(f, " [qp=false]")?,
            None => write!(f, " [qp=?]")?,
        }
        if let Some((r, v)) = self.wrote {
            write!(f, " {r}={v:#x}")?;
        }
        if let Some((a, d)) = self.stored {
            write!(f, " [{a:#x}]={d:#x}")?;
        }
        write!(f, " ({}{})", self.mode, if self.merged { ", merged" } else { "" })?;
        if let Some(ep) = self.episode {
            write!(f, " <{ep}>")?;
        }
        Ok(())
    }
}

/// A bounded ring buffer over the most recent retirements.
///
/// Used by triage tooling to show the instructions leading up to a
/// divergence without retaining the entire (possibly huge) dynamic stream.
#[derive(Clone, Debug)]
pub struct RetireRing {
    events: VecDeque<RetireEvent>,
    capacity: usize,
    total: u64,
}

impl RetireRing {
    /// Creates a ring retaining the last `capacity` events.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "retirement ring needs a positive capacity");
        RetireRing { events: VecDeque::with_capacity(capacity), capacity, total: 0 }
    }

    /// Records one event, evicting the oldest when full.
    pub fn push(&mut self, event: RetireEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(event);
        self.total += 1;
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &RetireEvent> {
        self.events.iter()
    }

    /// The most recent event, if any.
    pub fn last(&self) -> Option<&RetireEvent> {
        self.events.back()
    }

    /// Total events observed (including evicted ones).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no event has been retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl PipelineProbe for RetireRing {
    fn observes(&self) -> Observes {
        Observes::Retirements
    }

    fn on_retire(&mut self, event: &RetireEvent) {
        self.push(*event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_isa::{Op, Program};

    fn event(seq: u64) -> RetireEvent {
        let mut p = Program::new();
        let b = p.add_block();
        p.push(b, Inst::new(Op::Nop));
        let pc = p.first_pc_from(ff_isa::program::BlockId(0)).unwrap();
        RetireEvent {
            seq,
            cycle: seq * 2,
            pc,
            inst: Inst::new(Op::Nop),
            qp_true: Some(true),
            wrote: None,
            stored: None,
            mode: RetireMode::Architectural,
            merged: false,
            episode: None,
        }
    }

    #[test]
    fn ring_keeps_only_the_newest() {
        let mut ring = RetireRing::new(3);
        for s in 0..5 {
            ring.push(event(s));
        }
        assert_eq!(ring.total(), 5);
        assert_eq!(ring.len(), 3);
        let seqs: Vec<u64> = ring.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        assert_eq!(ring.last().unwrap().seq, 4);
    }

    #[test]
    fn ring_acts_as_a_probe() {
        let mut ring = RetireRing::new(8);
        let ev = event(0);
        ring.on_retire(&ev);
        assert_eq!(ring.len(), 1);
    }

    #[test]
    fn event_display_is_compact() {
        let mut ev = event(7);
        ev.wrote = Some((Reg::int(3), 42));
        ev.mode = RetireMode::Rally;
        ev.merged = true;
        ev.episode = Some(EpisodeWindow { trigger: 5, peek: 12, deq: 7 });
        let s = ev.to_string();
        assert!(s.contains("#7"), "{s}");
        assert!(s.contains("r3=0x2a"), "{s}");
        assert!(s.contains("rally, merged"), "{s}");
        assert!(s.contains("trigger=5 peek=12 deq=7"), "{s}");
    }
}
