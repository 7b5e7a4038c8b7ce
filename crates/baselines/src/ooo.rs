//! Idealized (and realistic decentralized) out-of-order execution.
//!
//! The paper's `OOO` comparison point (§5.1) is deliberately idealized:
//! perfect (ideal) register renaming including predicates, scheduling and
//! register read folded into the REG stage (no speculative wakeup), perfect
//! memory disambiguation, a 128-entry scheduling window and a 256-entry
//! reorder buffer, at the cost of 3 additional pipeline stages.
//!
//! This model is *trace driven*: the correct-path dynamic stream (with
//! dataflow and same-address store→load links) comes from an
//! [`ff_engine::TraceStream`], and this module schedules it cycle by cycle
//! under fetch, window, ROB, functional-unit, and MSHR constraints.
//! Wrong-path work affects timing through branch-resolution bubbles but
//! does not pollute the caches, consistent with the idealization.
//!
//! Each cycle runs five stage methods over one `Window` — fetch, dispatch,
//! select/issue, queue release, retire — then one skip built from the
//! stages' own predicates (DESIGN.md §7c). The window holds only the
//! in-flight span: the reorder buffer, the decode pipe behind it, and the
//! few just-retired entries whose results a consumer may still be waiting
//! to see. It is sized to that bound up front, so a run's memory does not
//! grow with the program's length.
//!
//! [`OutOfOrder::realistic`] models §5.2's more practical design:
//! decentralized 16-entry scheduling queues for memory, integer, and
//! floating-point instructions, which fill quickly under long cache misses
//! and throttle the achievable parallelism.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::ops::{Index, IndexMut};

use ff_engine::{
    Activity, ExecutionModel, FuPool, MachineConfig, Observes, PipelineProbe, RetireEvent,
    RetireMode, RunError, RunResult, RunStats, SimCase, StallKind, TickMode, TraceInst,
    TraceStream,
};
use ff_frontend::{fetch_group, redirect_resume, Gshare};
use ff_isa::FuClass;
use ff_mem::{AccessKind, MemAccess, MemorySystem};

/// The scheduling queues of one model variant, as one table.
#[derive(Clone, Copy, Debug)]
struct Queues {
    /// One unified window, or three queues (memory / floating point /
    /// integer and branch).
    count: usize,
    /// Entries per queue.
    entries: usize,
    /// Instructions each queue may select per cycle.
    selects: u32,
    /// An entry is freed when its instruction issues; otherwise it is held
    /// until the result returns.
    release_at_issue: bool,
    /// Cycles between a producer's completion and its consumers' issue.
    wakeup_delay: u64,
}

impl Queues {
    /// The queue `ti` dispatches into.
    fn of(&self, ti: &TraceInst<'_>) -> usize {
        if self.count == 1 {
            return 0;
        }
        match ti.inst.op().fu_class() {
            FuClass::Mem => 0,
            FuClass::Fp => 1,
            FuClass::Int | FuClass::Branch => 2,
        }
    }
}

/// The out-of-order execution model.
#[derive(Clone, Debug)]
pub struct OutOfOrder {
    config: MachineConfig,
    name: &'static str,
    queues: Queues,
    tick: TickMode,
}

impl OutOfOrder {
    /// The idealized model of §5.1 (Figure 6's `OOO` bars): one unified
    /// window (Table 2: 128 entries) whose entries are freed at issue, and
    /// scheduling and register read folded into the REG stage
    /// ("eliminating the need for speculative wakeup").
    pub fn new(config: MachineConfig) -> Self {
        let queues = Queues {
            count: 1,
            entries: config.ooo_window,
            selects: config.issue_width,
            release_at_issue: true,
            wakeup_delay: 0,
        };
        OutOfOrder { config, name: "ooo", queues, tick: TickMode::default() }
    }

    /// The realistic decentralized variant of §5.2: three 16-entry
    /// scheduling queues (memory / integer / floating point), each
    /// selecting at most two instructions per cycle. Unlike the idealized
    /// window, a queue entry is held until its instruction's result
    /// returns, so long cache misses fill the small queues quickly — "the
    /// more quickly filled scheduling resources" of §5.2 — and a
    /// non-speculative wakeup/select loop separates a producer's
    /// completion from its consumers' issue.
    pub fn realistic(config: MachineConfig) -> Self {
        let queues = Queues {
            count: 3,
            entries: config.ooo_decentralized_queue,
            selects: 2,
            release_at_issue: false,
            wakeup_delay: 2,
        };
        OutOfOrder { config, name: "ooo-realistic", queues, tick: TickMode::default() }
    }
}

const NOT_DONE: u64 = u64::MAX;

/// Sentinel for an empty intrusive waiter list.
const NO_WAITER: usize = usize::MAX;

const TRACE_FAILED: &str = "trace recording failed — invalid workload program";

/// One fetched trace entry and its scheduling state.
struct Slot<'p> {
    ti: TraceInst<'p>,
    /// First cycle at which the entry may leave the decode pipe.
    dispatch_at: u64,
    /// Completion cycle (`NOT_DONE` until issued).
    complete: u64,
    /// Head of the intrusive list of window entries waiting on this one.
    first_waiter: usize,
    /// Next entry in the waiter list this entry is linked into.
    next_waiter: usize,
}

/// The in-flight span of the trace by sequence number — up to `retain`
/// retired entries, the reorder buffer `rob_head..rob_tail`, then the
/// decode pipe — and the scheduling state over it.
///
/// Retired entries stay only as long as their completion cycle can still
/// delay a consumer: with at most `issue_width` retirements per cycle,
/// an entry followed by `wakeup_delay * issue_width` younger retirements
/// retired more than `wakeup_delay` cycles before any cycle that can
/// classify a consumer, so its result is already visible and the exact
/// cycle cannot change a wakeup decision.
///
/// A dispatched, un-issued entry waits on one unissued producer, in the
/// `timer` until its dependences are visible, or in the oldest-first
/// `ready` list, the only one select walks. Each stage acts on one
/// `*_wake` predicate; [`Window::quiescent_until`] skips on exactly those.
struct Window<'p> {
    /// Sequence number of `slots[0]`.
    base: usize,
    rob_head: usize,
    /// The next sequence number to dispatch.
    rob_tail: usize,
    rob_size: usize,
    decode_size: usize,
    queues: Queues,
    retain: usize,
    slots: VecDeque<Slot<'p>>,
    ready: Vec<usize>,
    /// Entries woken this cycle, merged into `ready` before select.
    woken: Vec<usize>,
    merged: Vec<usize>,
    /// `(cycle, seq)`: an entry whose last dependence becomes visible then.
    timer: BinaryHeap<Reverse<(u64, usize)>>,
    queue_len: [usize; 3],
    /// Held queue entries pending release: `(complete_at, queue)`.
    queue_release: Vec<(u64, usize)>,
}

impl<'p> Window<'p> {
    /// An empty window, every container pre-sized to its bound.
    fn new(machine: &MachineConfig, queues: Queues, activity: &mut Activity) -> Self {
        let retain = queues.wakeup_delay as usize * machine.issue_width as usize;
        let in_flight = machine.ooo_rob + machine.inorder_buffer;
        let window_cap = (queues.count * queues.entries).min(machine.ooo_rob) + 1;
        activity.alloc_count += 6; // the trace window and five scheduling containers
        Window {
            base: 0,
            rob_head: 0,
            rob_tail: 0,
            rob_size: machine.ooo_rob,
            decode_size: machine.inorder_buffer,
            queues,
            retain,
            slots: VecDeque::with_capacity(in_flight + retain),
            ready: Vec::with_capacity(window_cap),
            woken: Vec::with_capacity(window_cap),
            merged: Vec::with_capacity(window_cap),
            timer: BinaryHeap::with_capacity(window_cap),
            queue_len: [0; 3],
            queue_release: Vec::with_capacity(window_cap),
        }
    }

    /// Whether the decode pipe is full: fetch takes nothing.
    fn decode_full(&self) -> bool {
        self.base + self.slots.len() - self.rob_tail >= self.decode_size
    }

    /// Appends a freshly fetched entry, counting growth past the pre-sized
    /// bound as an allocation event.
    fn push(&mut self, ti: TraceInst<'p>, dispatch_at: u64, activity: &mut Activity) {
        debug_assert_eq!(ti.seq as usize, self.base + self.slots.len());
        activity.alloc_count += u64::from(self.slots.len() == self.slots.capacity());
        self.slots.push_back(Slot {
            ti,
            dispatch_at,
            complete: NOT_DONE,
            first_waiter: NO_WAITER,
            next_waiter: NO_WAITER,
        });
    }

    /// The cycle the decode-pipe head can dispatch: its arrival, or `now`
    /// once it has arrived and the ROB and its queue have room. `u64::MAX`
    /// when the pipe is empty or full capacity holds it, which only a
    /// retirement or a queue release (wake events of their own) clears.
    fn dispatch_wake(&self, now: u64) -> u64 {
        let Some(head) = self.slots.get(self.rob_tail - self.base) else { return u64::MAX };
        if head.dispatch_at > now {
            head.dispatch_at
        } else if self.rob_tail - self.rob_head >= self.rob_size
            || self.queue_len[self.queues.of(&head.ti)] >= self.queues.entries
        {
            u64::MAX
        } else {
            now
        }
    }

    /// Moves the decode-pipe head into the ROB and its queue in cycle `now`.
    fn dispatch(&mut self, now: u64, activity: &mut Activity) {
        let idx = self.rob_tail;
        self.rob_tail += 1;
        self.queue_len[self.queues.of(&self[idx].ti)] += 1;
        self.schedule(idx, now, activity);
        // Rename: one RAT lookup per source, one update per destination.
        let inst = self[idx].ti.inst;
        activity.rat_reads += inst.reads().count() as u64;
        if inst.writes().is_some() {
            activity.rat_writes += 1;
        }
    }

    /// Links un-issued entry `idx` behind its first unissued producer, or
    /// wakes it now, or times it to its last dependence's visibility.
    fn schedule(&mut self, idx: usize, now: u64, activity: &mut Activity) {
        match self.classify(idx) {
            Err(p) => {
                self[idx].next_waiter = self[p].first_waiter;
                self[p].first_waiter = idx;
            }
            Ok(t) if t <= now => {
                activity.alloc_count += u64::from(self.woken.len() == self.woken.capacity());
                self.woken.push(idx);
            }
            Ok(t) => {
                activity.alloc_count += u64::from(self.timer.len() == self.timer.capacity());
                self.timer.push(Reverse((t, idx)));
            }
        }
    }

    /// Completion cycle of `seq`; an evicted entry's result is visible to
    /// every consumer still in flight (see [`Window`]), reported as 0.
    fn complete(&self, seq: usize) -> u64 {
        seq.checked_sub(self.base).map_or(0, |i| self.slots[i].complete)
    }

    /// `Err(producer)`, the first dependence of entry `idx` that has not
    /// issued, else `Ok(wake_at)`, the first cycle at which every
    /// dependence is visible through the bypass network.
    fn classify(&self, idx: usize) -> Result<u64, usize> {
        let ti = &self[idx].ti;
        let mut wake_at = 0u64;
        for &d in ti.reg_deps.iter().chain(ti.mem_dep.as_ref()) {
            let c = self.complete(d as usize);
            if c == NOT_DONE {
                return Err(d as usize);
            }
            wake_at = wake_at.max(c + self.queues.wakeup_delay);
        }
        Ok(wake_at)
    }

    /// The earliest wakeup-timer expiry (`u64::MAX` when none is set).
    fn timer_wake(&self) -> u64 {
        self.timer.peek().map_or(u64::MAX, |&Reverse((t, _))| t)
    }

    /// Merges the entries woken by `now` into the sorted ready list.
    fn wake_due(&mut self, now: u64, activity: &mut Activity) {
        while self.timer_wake() <= now {
            let Some(Reverse((_, idx))) = self.timer.pop() else { break };
            activity.alloc_count += u64::from(self.woken.len() == self.woken.capacity());
            self.woken.push(idx);
        }
        if self.woken.is_empty() {
            return;
        }
        let (ready, woken, merged) = (&mut self.ready, &mut self.woken, &mut self.merged);
        woken.sort_unstable();
        activity.alloc_count += u64::from(merged.capacity() < ready.len() + woken.len());
        merged.clear();
        let (mut a, mut b) = (0usize, 0usize);
        while a < ready.len() && b < woken.len() {
            if ready[a] < woken[b] {
                merged.push(ready[a]);
                a += 1;
            } else {
                merged.push(woken[b]);
                b += 1;
            }
        }
        merged.extend_from_slice(&ready[a..]);
        merged.extend_from_slice(&woken[b..]);
        std::mem::swap(ready, merged);
        woken.clear();
    }

    /// Books entry `idx` of queue `q` as issued in cycle `now`, completing
    /// at `done_at`, and re-schedules its waiters. None lands in this
    /// cycle's select: the result is visible at `now + 1` at the earliest.
    fn issue(&mut self, idx: usize, q: usize, done_at: u64, now: u64, activity: &mut Activity) {
        debug_assert!(done_at > now, "results are never visible in their issue cycle");
        if self.queues.release_at_issue {
            self.queue_len[q] -= 1;
        } else {
            let full = self.queue_release.len() == self.queue_release.capacity();
            activity.alloc_count += u64::from(full);
            self.queue_release.push((done_at, q));
        }
        self[idx].complete = done_at;
        let mut waiter = std::mem::replace(&mut self[idx].first_waiter, NO_WAITER);
        while waiter != NO_WAITER {
            let next = self[waiter].next_waiter;
            self.schedule(waiter, now, activity);
            waiter = next;
        }
    }

    /// The earliest pending queue release (`u64::MAX` when none).
    fn release_wake(&self) -> u64 {
        self.queue_release.iter().map(|&(done, _)| done).min().unwrap_or(u64::MAX)
    }

    /// Frees the held queue entries whose results have returned by `now`.
    fn release(&mut self, now: u64) {
        let queue_len = &mut self.queue_len;
        self.queue_release.retain(|&(done, q)| {
            if done <= now {
                queue_len[q] -= 1;
            }
            done > now
        });
    }

    /// The cycle the ROB head can retire (`u64::MAX` if it has not issued).
    fn retire_wake(&self) -> u64 {
        if self.rob_head < self.rob_tail {
            self[self.rob_head].complete
        } else {
            u64::MAX
        }
    }

    /// Retires the ROB head in cycle `now` and evicts retired entries
    /// beyond `retain`.
    fn retire_head(&mut self, now: u64) {
        self.rob_head += 1;
        while self.rob_head - self.base > self.retain {
            let evicted = self.slots.pop_front().expect("retired entries are in the window");
            // The next classification happens at `now + 1` at the earliest.
            debug_assert!(
                evicted.complete + self.queues.wakeup_delay <= now,
                "evicted a result a consumer could still be waiting to see"
            );
            self.base += 1;
        }
    }

    /// The back end's skip analysis (DESIGN.md §7c): the first cycle after
    /// `now` at which a dispatch, a timer, a queue release or a retirement
    /// comes due; `None` when one is due now or select has a ready entry.
    /// Waiter-linked entries wait on a producer that has not issued.
    fn quiescent_until(&self, now: u64) -> Option<u64> {
        if !self.ready.is_empty() {
            return None;
        }
        let wake = self.dispatch_wake(now).min(self.timer_wake());
        let wake = wake.min(self.release_wake()).min(self.retire_wake());
        (wake > now).then_some(wake)
    }

    /// Stall class of a cycle that issued nothing (paper §5.2: charge the
    /// oldest instruction). The oldest's producers have all retired, so
    /// only an executing load at the head is a load stall.
    fn idle_stall(&self) -> StallKind {
        if self.rob_head >= self.rob_tail {
            return StallKind::FrontEnd;
        }
        let head = &self[self.rob_head];
        if head.complete != NOT_DONE && head.ti.inst.op().is_load() {
            StallKind::Load
        } else {
            StallKind::Other
        }
    }
}

impl<'p> Index<usize> for Window<'p> {
    type Output = Slot<'p>;

    fn index(&self, seq: usize) -> &Slot<'p> {
        &self.slots[seq - self.base]
    }
}

impl<'p> IndexMut<usize> for Window<'p> {
    fn index_mut(&mut self, seq: usize) -> &mut Slot<'p> {
        &mut self.slots[seq - self.base]
    }
}

/// One out-of-order run: the stage methods over the window and the
/// structures they share.
struct Core<'p> {
    trace: TraceStream<'p>,
    mem: MemorySystem,
    predictor: Gshare,
    fu: FuPool,
    stats: RunStats,
    activity: Activity,
    win: Window<'p>,
    /// Fetch waits until this cycle (an I-miss, a redirect, a refill).
    fetch_blocked_until: u64,
    /// A mispredicted branch stops fetch until it resolves.
    waiting_branch: Option<usize>,
    machine: MachineConfig,
    now: u64,
    /// A `HALT` has retired.
    halted: bool,
    loop_passes: u64,
}

impl<'p> Core<'p> {
    fn new(machine: &MachineConfig, queues: Queues, case: &SimCase<'p>) -> Self {
        let mut activity = Activity::new();
        let win = Window::new(machine, queues, &mut activity);
        Core {
            trace: TraceStream::new(case.program, case.initial_state(), case.max_insts),
            mem: MemorySystem::new(machine.hierarchy),
            predictor: Gshare::new(machine.gshare_entries),
            fu: FuPool::new(machine),
            stats: RunStats::default(),
            activity,
            win,
            fetch_blocked_until: 0,
            waiting_branch: None,
            machine: *machine,
            now: 0,
            halted: false,
            loop_passes: 0,
        }
    }

    /// Top of a cycle-loop pass: the cycle watchdog, then the FU pool.
    fn begin_cycle(&mut self, cycle_cap: u64) -> Result<(), RunError> {
        if self.now >= cycle_cap {
            let retired = self.stats.retired;
            return Err(RunError::CycleBudgetExceeded { limit: cycle_cap, retired });
        }
        self.loop_passes += 1;
        self.fu.new_cycle(self.now);
        Ok(())
    }

    /// The cycle fetch next reads the I-cache: `u64::MAX` once the trace
    /// has ended or while a mispredicted branch is unresolved.
    fn fetch_wake(&self) -> u64 {
        if self.trace.is_done() || self.waiting_branch.is_some() {
            return u64::MAX;
        }
        self.fetch_blocked_until
    }

    /// Fetch: one group of up to `fetch_width` entries into the decode
    /// pipe, ended by a taken or mispredicted branch.
    fn fetch(&mut self) {
        let now = self.now;
        if self.fetch_wake() > now {
            return;
        }
        let Some((pc, _)) = self.trace.peek().expect(TRACE_FAILED) else { return };
        if let Some(retry_at) = fetch_group(&mut self.mem, pc, now) {
            self.fetch_blocked_until = retry_at;
            return;
        }
        let mut fetched = 0;
        while fetched < self.machine.fetch_width && !self.win.decode_full() {
            let Some(ti) = self.trace.next() else { break };
            let ti = ti.expect(TRACE_FAILED);
            let (seq, pc, taken) = (ti.seq as usize, ti.pc, ti.effect.taken);
            let conditional = ti.is_conditional_branch();
            // Decode, then the extra rename and schedule stages.
            let dispatch_at = now + 1 + self.machine.ooo_extra_stages;
            self.win.push(ti, dispatch_at, &mut self.activity);
            fetched += 1;
            if conditional {
                self.stats.branches += 1;
                let (pred, snap) = self.predictor.predict(pc);
                self.predictor.update(pc, snap, taken);
                if pred != taken {
                    self.stats.mispredicts += 1;
                    self.predictor.repair(snap, taken);
                    self.waiting_branch = Some(seq);
                    break;
                }
            }
            if taken {
                self.fetch_blocked_until = redirect_resume(now);
                break;
            }
        }
    }

    /// Dispatch: up to `issue_width` entries, in order, into the ROB.
    fn dispatch(&mut self) {
        let mut dispatched = 0;
        while dispatched < self.machine.issue_width && self.win.dispatch_wake(self.now) <= self.now
        {
            self.win.dispatch(self.now, &mut self.activity);
            dispatched += 1;
        }
    }

    /// Select: up to `issue_width` ready entries, oldest first, within each
    /// queue's select ports. Returns the number issued.
    fn issue(&mut self) -> u32 {
        let now = self.now;
        self.win.wake_due(now, &mut self.activity);
        let (mut issued, mut queue_issued) = (0u32, [0u32; 3]);
        let (mut kept, mut r) = (0usize, 0usize);
        while r < self.win.ready.len() && issued < self.machine.issue_width {
            let idx = self.win.ready[r];
            r += 1;
            let q = self.win.queues.of(&self.win[idx].ti);
            self.activity.select_visits += 1;
            let done_at =
                if queue_issued[q] < self.win.queues.selects { self.execute(idx) } else { None };
            let Some(done_at) = done_at else {
                self.win.ready[kept] = idx;
                kept += 1;
                continue;
            };
            queue_issued[q] += 1;
            issued += 1;
            self.win.issue(idx, q, done_at, now, &mut self.activity);
            // A resolved mispredicted branch releases fetch.
            if self.waiting_branch == Some(idx) {
                self.waiting_branch = None;
                let penalty = self.machine.mispredict_penalty + self.machine.ooo_extra_stages;
                self.fetch_blocked_until = done_at + penalty;
            }
        }
        // Entries past the width cutoff stay ready, still oldest-first.
        self.win.ready.drain(kept..r);
        issued
    }

    /// The cycle entry `idx`'s result becomes visible if it issues now:
    /// `None` when no FU is free or the MSHRs refuse a load.
    fn execute(&mut self, idx: usize) -> Option<u64> {
        let now = self.now;
        let ti = &self.win[idx].ti;
        // Ready-list membership implies every dependence is visible.
        debug_assert!(ti.reg_deps.iter().chain(ti.mem_dep.as_ref()).all(|&d| {
            let c = self.win.complete(d as usize);
            c != NOT_DONE && c + self.win.queues.wakeup_delay <= now
        }));
        if !self.fu.try_issue(ti.inst, now) {
            return None;
        }
        let done_at = if let Some(addr) = ti.effect.loaded {
            self.activity.store_buffer_searches += 1;
            match self.mem.access(addr, AccessKind::DataRead, now) {
                MemAccess::Done { complete_at, .. } => complete_at,
                MemAccess::Retry => return None,
            }
        } else if let Some((addr, _)) = ti.effect.stored {
            self.activity.load_buffer_searches += 1;
            let _ = self.mem.access(addr, AccessKind::DataWrite, now);
            now + 1
        } else if ti.effect.qp_true {
            now + ti.inst.op().latency() as u64
        } else {
            now + 1 // predicated off: flows through in one cycle
        };
        self.stats.executions += u64::from(ti.effect.qp_true);
        self.activity.issue_selections += 1;
        self.activity.wakeup_broadcasts += 1;
        self.activity.regfile_reads += ti.inst.reads().count() as u64;
        if ti.inst.writes().is_some() {
            self.activity.regfile_writes += 1;
        }
        Some(done_at)
    }

    /// Retire: up to `issue_width` completed entries, in order.
    fn retire(&mut self, probe: &mut dyn PipelineProbe, observe: bool) {
        let mut retired = 0;
        while retired < self.machine.issue_width && self.win.retire_wake() <= self.now {
            let ti = &self.win[self.win.rob_head].ti;
            self.halted |= ti.effect.halted;
            if observe {
                let mode = RetireMode::Architectural;
                probe.on_retire(&RetireEvent::executed(
                    ti.seq, ti.pc, *ti.inst, &ti.effect, self.now, mode, None,
                ));
            }
            self.stats.retired += 1;
            self.win.retire_head(self.now);
            retired += 1;
        }
    }

    /// Charges the cycle — to execution if anything issued, else to the
    /// oldest instruction (paper §5.2) — and moves to the next.
    fn end_cycle(&mut self, issued: u32) {
        let kind = if issued > 0 { StallKind::Execution } else { self.win.idle_stall() };
        self.stats.breakdown.charge(kind);
        self.now += 1;
    }

    /// Event-driven fast-forward (DESIGN.md §7c) to the first cycle at which
    /// fetch, the back end or an MSHR fill can act. Fetch facing a full
    /// decode pipe re-reads its line each cycle and has no wake of its own:
    /// the re-reads are charged in bulk unless the first would miss.
    fn fast_forward(&mut self, cycle_cap: u64) {
        let now = self.now;
        let mut fetch_wake = self.fetch_wake();
        let mut refetch = None;
        if fetch_wake <= now {
            if !self.win.decode_full() {
                return; // fetch would take entries: poll
            }
            let Ok(Some((pc, _))) = self.trace.peek() else { return };
            refetch = Some(pc.fetch_address());
            fetch_wake = u64::MAX;
        }
        let Some(back_wake) = self.win.quiescent_until(now) else { return };
        let wake = fetch_wake.min(back_wake).min(self.mem.next_mshr_fill(now)).min(cycle_cap);
        if wake <= now {
            return;
        }
        if let Some(addr) = refetch {
            if !self.mem.repeat_ifetch_hits(addr, now, wake - now) {
                return;
            }
        }
        self.stats.breakdown.charge_n(self.win.idle_stall(), wake - now);
        self.now = wake;
    }

    /// The run's result once the program has halted.
    fn finish(mut self) -> RunResult {
        self.stats.cycles = self.now;
        self.activity.cycles = self.now;
        RunResult {
            stats: self.stats,
            activity: self.activity,
            mem_stats: self.mem.final_stats(),
            // The run is over: move the stream's final state out instead of
            // cloning the whole memory image.
            final_state: self.trace.into_state(),
            loop_passes: self.loop_passes,
        }
    }
}

impl ExecutionModel for OutOfOrder {
    fn name(&self) -> &'static str {
        self.name
    }

    fn set_tick_mode(&mut self, mode: TickMode) {
        self.tick = mode;
    }

    fn run_observed(
        &mut self,
        case: &SimCase<'_>,
        probe: &mut dyn PipelineProbe,
    ) -> Result<RunResult, RunError> {
        let cycle_cap = case.cycle_cap(self.config.max_cycles);
        let observe_retire = probe.observes() >= Observes::Retirements;
        let mut core = Core::new(&self.config, self.queues, case);
        while !core.halted {
            core.begin_cycle(cycle_cap)?;
            core.fetch();
            core.dispatch();
            let issued = core.issue();
            core.win.release(core.now);
            core.retire(probe, observe_retire);
            core.end_cycle(issued);
            if self.tick == TickMode::EventDriven && !core.halted {
                core.fast_forward(cycle_cap);
            }
        }
        let result = core.finish();
        probe.on_run_end(&result);
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inorder::InOrder;
    use ff_isa::interp::Interpreter;
    use ff_isa::{ArchState, Inst, MemoryImage, Op, Program, Reg};

    /// A dependent chain of loads (chase) plus independent work the OOO
    /// window can reorder around.
    fn chase(nodes: u64) -> (Program, MemoryImage) {
        let mut p = Program::new();
        let b0 = p.add_block();
        let b1 = p.add_block();
        let b2 = p.add_block();
        p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(1)).imm(0x1_0000).stop());
        p.push(b1, Inst::new(Op::Load).dst(Reg::int(1)).src(Reg::int(1)).stop());
        p.push(b1, Inst::new(Op::Add).dst(Reg::int(4)).src(Reg::int(1)).src(Reg::int(0)).stop());
        p.push(b1, Inst::new(Op::Add).dst(Reg::int(3)).src(Reg::int(3)).src(Reg::int(4)));
        p.push(b1, Inst::new(Op::CmpNe).dst(Reg::pred(1)).src(Reg::int(4)).src(Reg::int(0)).stop());
        p.push(b1, Inst::new(Op::Br { target: b1 }).qp(Reg::pred(1)).stop());
        p.push(b2, Inst::new(Op::Halt).stop());
        let mut mem = MemoryImage::new();
        let stride = 64 * 1024;
        for i in 0..nodes {
            let a = 0x1_0000 + i * stride;
            let next = if i + 1 == nodes { 0 } else { 0x1_0000 + (i + 1) * stride };
            mem.store(a, next);
        }
        (p, mem)
    }

    #[test]
    fn final_state_matches_interpreter() {
        let (p, mem) = chase(16);
        let case = SimCase::new(&p, mem.clone());
        let r = OutOfOrder::new(MachineConfig::default()).try_run(&case).unwrap();
        let mut s = ArchState::new();
        s.mem = mem;
        let mut i = Interpreter::with_state(&p, s);
        i.run(10_000_000).unwrap();
        assert!(r.final_state.semantically_eq(i.state()));
        assert_eq!(r.stats.retired, i.retired());
    }

    #[test]
    fn ooo_beats_inorder_on_independent_work() {
        // Independent streaming loads: the OOO window overlaps many misses.
        let mut p = Program::new();
        let b0 = p.add_block();
        let b1 = p.add_block();
        let b2 = p.add_block();
        p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(1)).imm(0x10_0000).stop());
        p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(2)).imm(64).stop());
        p.push(b1, Inst::new(Op::Load).dst(Reg::int(4)).src(Reg::int(1)).stop());
        p.push(b1, Inst::new(Op::Add).dst(Reg::int(3)).src(Reg::int(3)).src(Reg::int(4)));
        p.push(b1, Inst::new(Op::AddImm).dst(Reg::int(1)).src(Reg::int(1)).imm(8192));
        p.push(b1, Inst::new(Op::AddImm).dst(Reg::int(2)).src(Reg::int(2)).imm(-1).stop());
        p.push(b1, Inst::new(Op::CmpNe).dst(Reg::pred(1)).src(Reg::int(2)).src(Reg::int(0)).stop());
        p.push(b1, Inst::new(Op::Br { target: b1 }).qp(Reg::pred(1)).stop());
        p.push(b2, Inst::new(Op::Halt).stop());
        let mut mem = MemoryImage::new();
        for i in 0..64u64 {
            mem.store(0x10_0000 + i * 8192, i);
        }
        let case = SimCase::new(&p, mem);
        let base = InOrder::new(MachineConfig::default()).try_run(&case).unwrap();
        let ooo = OutOfOrder::new(MachineConfig::default()).try_run(&case).unwrap();
        assert!(
            (ooo.stats.cycles as f64) < 0.6 * base.stats.cycles as f64,
            "ooo {} not ≪ inorder {}",
            ooo.stats.cycles,
            base.stats.cycles
        );
    }

    #[test]
    fn dependent_chase_gets_no_ooo_benefit() {
        let (p, mem) = chase(32);
        let case = SimCase::new(&p, mem);
        let base = InOrder::new(MachineConfig::default()).try_run(&case).unwrap();
        let ooo = OutOfOrder::new(MachineConfig::default()).try_run(&case).unwrap();
        // Serial dependence: OOO cannot be much faster than in-order.
        assert!(
            ooo.stats.cycles as f64 > 0.8 * base.stats.cycles as f64,
            "ooo {} suspiciously fast vs {}",
            ooo.stats.cycles,
            base.stats.cycles
        );
    }

    #[test]
    fn realistic_queues_throttle_ilp() {
        // Same streaming workload as above: tiny queues fill behind misses.
        let mut p = Program::new();
        let b0 = p.add_block();
        let b1 = p.add_block();
        let b2 = p.add_block();
        p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(1)).imm(0x10_0000).stop());
        p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(2)).imm(64).stop());
        p.push(b1, Inst::new(Op::Load).dst(Reg::int(4)).src(Reg::int(1)).stop());
        p.push(b1, Inst::new(Op::Add).dst(Reg::int(3)).src(Reg::int(3)).src(Reg::int(4)));
        p.push(b1, Inst::new(Op::AddImm).dst(Reg::int(1)).src(Reg::int(1)).imm(8192));
        p.push(b1, Inst::new(Op::AddImm).dst(Reg::int(2)).src(Reg::int(2)).imm(-1).stop());
        p.push(b1, Inst::new(Op::CmpNe).dst(Reg::pred(1)).src(Reg::int(2)).src(Reg::int(0)).stop());
        p.push(b1, Inst::new(Op::Br { target: b1 }).qp(Reg::pred(1)).stop());
        p.push(b2, Inst::new(Op::Halt).stop());
        let mut mem = MemoryImage::new();
        for i in 0..64u64 {
            mem.store(0x10_0000 + i * 8192, i);
        }
        let case = SimCase::new(&p, mem);
        let ideal = OutOfOrder::new(MachineConfig::default()).try_run(&case).unwrap();
        let real = OutOfOrder::realistic(MachineConfig::default()).try_run(&case).unwrap();
        assert!(
            real.stats.cycles > ideal.stats.cycles,
            "realistic {} should trail ideal {}",
            real.stats.cycles,
            ideal.stats.cycles
        );
    }

    #[test]
    fn attribution_covers_every_cycle() {
        let (p, mem) = chase(16);
        let case = SimCase::new(&p, mem);
        let r = OutOfOrder::new(MachineConfig::default()).try_run(&case).unwrap();
        assert_eq!(r.stats.breakdown.total(), r.stats.cycles);
        assert!(r.stats.breakdown.load > 0);
    }

    #[test]
    fn mispredicted_branch_on_a_miss_stalls_fetch_until_resolution() {
        // A 50/50 data-dependent branch whose predicate hangs off a cold
        // load: when mispredicted, OOO fetch must wait for the load to
        // return, making such loops slow even for ideal OOO.
        let build = |threshold: i64| {
            let mut p = Program::new();
            let b0 = p.add_block();
            let b_loop = p.add_block();
            let b_then = p.add_block();
            let b_tail = p.add_block();
            let b_done = p.add_block();
            p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(1)).imm(0x10_0000).stop());
            p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(2)).imm(64).stop());
            p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(9)).imm(threshold).stop());
            p.push(b_loop, Inst::new(Op::Load).dst(Reg::int(4)).src(Reg::int(1)).stop());
            p.push(
                b_loop,
                Inst::new(Op::CmpLt).dst(Reg::pred(2)).src(Reg::int(4)).src(Reg::int(9)).stop(),
            );
            p.push(b_loop, Inst::new(Op::Br { target: b_tail }).qp(Reg::pred(2)).stop());
            p.push(b_then, Inst::new(Op::AddImm).dst(Reg::int(3)).src(Reg::int(3)).imm(1).stop());
            p.push(b_tail, Inst::new(Op::AddImm).dst(Reg::int(1)).src(Reg::int(1)).imm(8192));
            p.push(b_tail, Inst::new(Op::AddImm).dst(Reg::int(2)).src(Reg::int(2)).imm(-1).stop());
            p.push(
                b_tail,
                Inst::new(Op::CmpNe).dst(Reg::pred(1)).src(Reg::int(2)).src(Reg::int(0)).stop(),
            );
            p.push(b_tail, Inst::new(Op::Br { target: b_loop }).qp(Reg::pred(1)).stop());
            p.push(b_done, Inst::new(Op::Halt).stop());
            p
        };
        // Values are i % 97 -> threshold 48 mispredicts ~half the time,
        // threshold 1000 is always taken (predictable).
        let mut mem = MemoryImage::new();
        for i in 0..64u64 {
            mem.store(0x10_0000 + i * 8192, i % 97);
        }
        let random_p = build(48);
        let biased_p = build(1000);
        let r_random = OutOfOrder::new(MachineConfig::default())
            .try_run(&SimCase::new(&random_p, mem.clone()))
            .unwrap();
        let r_biased = OutOfOrder::new(MachineConfig::default())
            .try_run(&SimCase::new(&biased_p, mem))
            .unwrap();
        assert!(r_random.stats.mispredicts > 10);
        assert!(
            r_random.stats.cycles > r_biased.stats.cycles,
            "unpredictable branches on misses should cost OOO dearly: {} !> {}",
            r_random.stats.cycles,
            r_biased.stats.cycles
        );
    }

    #[test]
    fn small_rob_serializes_long_misses() {
        // A loop with one cold (unique-address) load plus independent adds
        // per iteration: a large ROB lets misses from many iterations
        // overlap; a tiny ROB blocks retirement behind each miss and
        // serializes them.
        let mut p = Program::new();
        let b0 = p.add_block();
        let b1 = p.add_block();
        let b2 = p.add_block();
        p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(1)).imm(0x20_0000).stop());
        p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(2)).imm(32).stop());
        p.push(b1, Inst::new(Op::Load).dst(Reg::int(4)).src(Reg::int(1)).stop());
        p.push(b1, Inst::new(Op::Add).dst(Reg::int(3)).src(Reg::int(3)).src(Reg::int(4)));
        p.push(b1, Inst::new(Op::AddImm).dst(Reg::int(1)).src(Reg::int(1)).imm(8192));
        for k in 0..12u8 {
            p.push(b1, Inst::new(Op::AddImm).dst(Reg::int(10 + k)).src(Reg::int(10 + k)).imm(1));
        }
        p.push(b1, Inst::new(Op::AddImm).dst(Reg::int(2)).src(Reg::int(2)).imm(-1).stop());
        p.push(b1, Inst::new(Op::CmpNe).dst(Reg::pred(1)).src(Reg::int(2)).src(Reg::int(0)).stop());
        p.push(b1, Inst::new(Op::Br { target: b1 }).qp(Reg::pred(1)).stop());
        p.push(b2, Inst::new(Op::Halt).stop());
        let mut mem = MemoryImage::new();
        for i in 0..32u64 {
            mem.store(0x20_0000 + i * 8192, i);
        }
        let case = SimCase::new(&p, mem);
        let big = OutOfOrder::new(MachineConfig::default()).try_run(&case).unwrap();
        // A tiny ROB: barely more than one iteration in flight.
        let small_machine = MachineConfig { ooo_rob: 20, ..MachineConfig::default() };
        let small = OutOfOrder::new(small_machine).try_run(&case).unwrap();
        assert!(small.final_state.semantically_eq(&big.final_state));
        assert!(
            small.stats.cycles as f64 > 1.5 * big.stats.cycles as f64,
            "small ROB {} should be much slower than large ROB {}",
            small.stats.cycles,
            big.stats.cycles
        );
    }

    /// A streaming loop of `trips` iterations: a load, an add and a store
    /// per trip over a 4 KiB ring, so the footprint stays fixed while the
    /// dynamic trace grows with the trip count.
    fn ring_loop(trips: i64) -> Program {
        let mut p = Program::new();
        let b0 = p.add_block();
        let b1 = p.add_block();
        let b2 = p.add_block();
        p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(2)).imm(trips));
        p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(6)).imm(0xff8).stop());
        p.push(b1, Inst::new(Op::And).dst(Reg::int(5)).src(Reg::int(1)).src(Reg::int(6)).stop());
        p.push(b1, Inst::new(Op::Load).dst(Reg::int(4)).src(Reg::int(5)).imm(0x4000).stop());
        p.push(b1, Inst::new(Op::Add).dst(Reg::int(3)).src(Reg::int(3)).src(Reg::int(4)));
        p.push(b1, Inst::new(Op::AddImm).dst(Reg::int(1)).src(Reg::int(1)).imm(8));
        p.push(b1, Inst::new(Op::AddImm).dst(Reg::int(2)).src(Reg::int(2)).imm(-1).stop());
        p.push(b1, Inst::new(Op::Store).src(Reg::int(5)).src(Reg::int(3)).imm(0x4000));
        p.push(b1, Inst::new(Op::CmpNe).dst(Reg::pred(1)).src(Reg::int(2)).src(Reg::int(0)).stop());
        p.push(b1, Inst::new(Op::Br { target: b1 }).qp(Reg::pred(1)).stop());
        p.push(b2, Inst::new(Op::Halt).stop());
        p
    }

    #[test]
    fn window_memory_is_independent_of_trace_length() {
        let (short, long) = (ring_loop(1_000), ring_loop(100_000));
        for build in [OutOfOrder::new, OutOfOrder::realistic] {
            let run = |p: &Program| {
                build(MachineConfig::default())
                    .try_run(&SimCase::new(p, MemoryImage::new()))
                    .unwrap()
            };
            let (a, b) = (run(&short), run(&long));
            assert!(b.stats.retired > 90 * a.stats.retired);
            // Only the pre-sized containers allocate: the trace window and
            // the scheduling state never grow, however long the trace.
            assert_eq!(a.activity.alloc_count, b.activity.alloc_count);
            assert_eq!(b.activity.alloc_count, 6);
        }
    }

    #[test]
    #[should_panic(expected = "trace recording failed — invalid workload program: OutOfFuel")]
    fn a_failing_trace_stream_panics() {
        let mut p = Program::new();
        let b = p.add_block();
        p.push(b, Inst::new(Op::Br { target: b }).stop()); // never halts
        let mut case = SimCase::new(&p, MemoryImage::new());
        case.max_insts = 1_000;
        let _ = OutOfOrder::new(MachineConfig::default()).try_run(&case);
    }

    /// Runs both OOO variants of `machine` on `p` in both tick modes and
    /// asserts the fast-forwarded runs match the polled ones; returns the
    /// polled idealized run.
    fn assert_tick_modes_agree(
        machine: MachineConfig,
        p: &Program,
        mem: &MemoryImage,
    ) -> RunResult {
        let case = SimCase::new(p, mem.clone());
        let mut ideal = None;
        for build in [OutOfOrder::new, OutOfOrder::realistic] {
            let run = |tick| {
                let mut model = build(machine);
                model.set_tick_mode(tick);
                model.try_run(&case).unwrap()
            };
            let (polled, event) = (run(TickMode::Polling), run(TickMode::EventDriven));
            let name = build(machine).name();
            assert_eq!(polled.stats, event.stats, "{name}");
            assert_eq!(polled.activity, event.activity, "{name}");
            assert_eq!(polled.mem_stats, event.mem_stats, "{name}");
            ideal.get_or_insert(polled);
        }
        ideal.unwrap()
    }

    #[test]
    fn decode_full_fetch_skip_matches_polling() {
        // The dependent chase fills the ROB and then the decode pipe behind
        // each miss; fetch then re-reads its resident line every cycle.
        let (p, mem) = chase(64);
        let r = assert_tick_modes_agree(MachineConfig::default(), &p, &mem);
        // One fetch group per 5-instruction iteration would be ~64 fetches;
        // the rest are decode-full re-reads the skip charges in bulk.
        assert!(r.mem_stats.ifetches > 10 * r.stats.retired, "{:?}", r.mem_stats);
    }

    #[test]
    fn decode_full_fetch_skip_declines_on_an_icache_miss() {
        // A chase whose loop body (5 blocks x 240 instructions) overflows
        // the 16 KiB L1I. A 32-entry ROB fills behind each load miss, then
        // the decode pipe; the fetch line it then faces is often evicted,
        // and the skip must poll that miss instead of charging a hit.
        let mut p = Program::new();
        let b0 = p.add_block();
        let body: Vec<_> = (0..5).map(|_| p.add_block()).collect();
        let tail = p.add_block();
        let done = p.add_block();
        p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(1)).imm(0x1_0000).stop());
        p.push(body[0], Inst::new(Op::Load).dst(Reg::int(1)).src(Reg::int(1)).stop());
        for &b in &body {
            for k in p.block(b).unwrap().len()..240 {
                let r = Reg::int(10 + (k % 12) as u8);
                p.push(b, Inst::new(Op::AddImm).dst(r).src(r).imm(1).stop());
            }
        }
        p.push(tail, Inst::new(Op::CmpNe).dst(Reg::pred(1)).src(Reg::int(1)).src(Reg::int(0)));
        p.push(tail, Inst::new(Op::Br { target: body[0] }).qp(Reg::pred(1)).stop());
        p.push(done, Inst::new(Op::Halt).stop());
        let mut mem = MemoryImage::new();
        for i in 0..8u64 {
            let next = if i == 7 { 0 } else { 0x1_0000 + (i + 1) * 64 * 1024 };
            mem.store(0x1_0000 + i * 64 * 1024, next);
        }
        let machine = MachineConfig { ooo_rob: 32, ..MachineConfig::default() };
        let r = assert_tick_modes_agree(machine, &p, &mem);
        // Each of the 8 trips re-misses the L1I on most of the body's 200
        // six-instruction fetch groups.
        assert!(r.mem_stats.l1i_misses > 8 * 100, "{:?}", r.mem_stats);
    }

    #[test]
    fn rename_activity_is_counted() {
        let (p, mem) = chase(8);
        let case = SimCase::new(&p, mem);
        let r = OutOfOrder::new(MachineConfig::default()).try_run(&case).unwrap();
        assert!(r.activity.rat_reads > 0);
        assert!(r.activity.rat_writes > 0);
        assert!(r.activity.wakeup_broadcasts > 0);
    }
}
