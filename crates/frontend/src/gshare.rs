//! Gshare branch predictor (Table 2: "1024-entry gshare").

use ff_isa::Pc;

/// Width of the global history register in bits.
const HISTORY_BITS: u32 = 10;

/// A gshare predictor: a table of 2-bit saturating counters indexed by the
/// XOR of branch-address bits with a global history register. The history
/// register is updated *speculatively* at prediction time; each in-flight
/// branch carries a snapshot so a mispredict can repair it.
///
/// # Examples
///
/// ```
/// use ff_frontend::Gshare;
/// use ff_isa::{Pc, program::BlockId};
///
/// let mut g = Gshare::new(1024);
/// let pc = Pc::new(BlockId(3), 0);
/// let (pred, snap) = g.predict(pc);
/// // Resolve: the branch was actually taken. Train, and repair history if
/// // the prediction was wrong.
/// g.update(pc, snap, true);
/// if pred != true {
///     g.repair(snap, true);
/// }
/// ```
#[derive(Clone, Debug)]
pub struct Gshare {
    /// 2-bit saturating counters; >=2 predicts taken.
    table: Vec<u8>,
    history: u16,
    predictions: u64,
    mispredict_trainings: u64,
}

impl Gshare {
    /// Creates a predictor with `entries` 2-bit counters, initialized to
    /// weakly not-taken.
    ///
    /// # Panics
    ///
    /// Panics unless `entries` is a power of two.
    pub fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two(), "gshare table size must be a power of two");
        Gshare { table: vec![1; entries], history: 0, predictions: 0, mispredict_trainings: 0 }
    }

    #[inline]
    fn index(&self, pc: Pc, history: u16) -> usize {
        let pc_bits = (pc.fetch_address() >> 4) as usize;
        (pc_bits ^ (history as usize & ((1 << HISTORY_BITS) - 1))) & (self.table.len() - 1)
    }

    /// Predicts the conditional branch at `pc`. Returns the prediction and a
    /// history snapshot to be carried with the branch for later
    /// [`Gshare::update`]/[`Gshare::repair`]. The global history is updated
    /// speculatively with the prediction.
    #[inline]
    pub fn predict(&mut self, pc: Pc) -> (bool, u16) {
        let snapshot = self.history;
        let taken = self.table[self.index(pc, snapshot)] >= 2;
        self.history = shift_in(self.history, taken);
        self.predictions += 1;
        (taken, snapshot)
    }

    /// Trains the counter for the branch at `pc` (predicted under
    /// `snapshot`) with the actual outcome. Call on every resolved branch,
    /// correctly predicted or not. Multipass also calls this from advance
    /// mode when a branch preexecutes with valid operands — the mechanism
    /// behind the paper's twolf front-end improvement.
    #[inline]
    pub fn update(&mut self, pc: Pc, snapshot: u16, taken: bool) {
        let idx = self.index(pc, snapshot);
        let c = &mut self.table[idx];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
    }

    /// Repairs the global history after a mispredict: restores the
    /// pre-branch `snapshot` and shifts in the actual outcome.
    #[inline]
    pub fn repair(&mut self, snapshot: u16, taken: bool) {
        self.history = shift_in(snapshot, taken);
        self.mispredict_trainings += 1;
    }

    /// Number of predictions made.
    pub fn predictions(&self) -> u64 {
        self.predictions
    }

    /// Number of history repairs (== mispredicts observed by the front end).
    pub fn repairs(&self) -> u64 {
        self.mispredict_trainings
    }

    /// The current (speculative) global history register.
    #[inline]
    pub fn history(&self) -> u16 {
        self.history
    }
}

#[inline]
fn shift_in(history: u16, taken: bool) -> u16 {
    ((history << 1) | taken as u16) & ((1 << HISTORY_BITS) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_isa::program::BlockId;

    fn pc(b: u32) -> Pc {
        Pc::new(BlockId(b), 0)
    }

    #[test]
    fn learns_always_taken() {
        let mut g = Gshare::new(1024);
        let p = pc(1);
        // With speculative history update, the history register converges to
        // all-ones for an always-taken branch (via mispredict repairs) and
        // the counter at that index then saturates.
        for _ in 0..20 {
            let (pred, snap) = g.predict(p);
            g.update(p, snap, true);
            if !pred {
                g.repair(snap, true);
            }
        }
        let (pred, _) = g.predict(p);
        assert!(pred, "should have learned taken");
    }

    #[test]
    fn learns_alternating_pattern_via_history() {
        let mut g = Gshare::new(1024);
        let p = pc(2);
        let mut actual = false;
        // Train an alternating branch; with history the pattern becomes
        // linearly separable and accuracy should approach 100%.
        let mut correct = 0;
        for i in 0..400 {
            let (pred, snap) = g.predict(p);
            if pred == actual && i >= 100 {
                correct += 1;
            }
            g.update(p, snap, actual);
            if pred != actual {
                g.repair(snap, actual);
            }
            actual = !actual;
        }
        assert!(correct > 290, "late-phase accuracy too low: {correct}/300");
    }

    #[test]
    fn repair_restores_history() {
        let mut g = Gshare::new(64);
        let (_, snap) = g.predict(pc(3));
        g.repair(snap, true);
        assert_eq!(g.history(), shift_in(snap, true));
        assert_eq!(g.repairs(), 1);
    }

    #[test]
    fn counters_saturate() {
        let mut g = Gshare::new(64);
        let p = pc(4);
        let (_, snap) = g.predict(p);
        for _ in 0..10 {
            g.update(p, snap, true);
        }
        for _ in 0..2 {
            g.update(p, snap, false);
        }
        // Two not-taken updates from saturation (3) leave counter at 1:
        // predicts not-taken but is one update from flipping.
        let (pred, _) = g.predict(p);
        assert!(!pred);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn table_size_must_be_pow2() {
        let _ = Gshare::new(1000);
    }
}
