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
//! Fetch pulls one trace entry at a time into a window that holds only the
//! in-flight span — the reorder buffer, the decode pipe behind it, and the
//! few just-retired entries whose results a consumer may still be waiting
//! to see — together with each entry's completion cycle and wakeup links.
//! The window is sized to that bound up front, so a run's memory does not
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
use ff_frontend::Gshare;
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

/// The in-flight span of the trace, indexed by sequence number: up to
/// `retain` retired entries, then the reorder buffer, then the decode
/// pipe. Its end is the next sequence number fetch will pull.
///
/// Retired entries stay only as long as their completion cycle can still
/// delay a consumer: with at most `issue_width` retirements per cycle,
/// an entry followed by `wakeup_delay * issue_width` younger retirements
/// retired more than `wakeup_delay` cycles before any cycle that can
/// classify a consumer, so its result is already visible and the exact
/// cycle cannot change a wakeup decision.
struct Window<'p> {
    /// Sequence number of `slots[0]`.
    base: usize,
    /// The reorder-buffer head: the next sequence number to retire.
    rob_head: usize,
    /// Cycles between a producer's completion and its consumers' issue.
    wakeup_delay: u64,
    /// Retired entries kept: `wakeup_delay * issue_width`.
    retain: usize,
    slots: VecDeque<Slot<'p>>,
}

impl<'p> Window<'p> {
    /// A window pre-sized for `in_flight` ROB and decode entries plus the
    /// retained retired ones.
    fn new(in_flight: usize, issue_width: u32, wakeup_delay: u64) -> Self {
        let retain = wakeup_delay as usize * issue_width as usize;
        let slots = VecDeque::with_capacity(in_flight + retain);
        Window { base: 0, rob_head: 0, wakeup_delay, retain, slots }
    }

    /// One past the youngest fetched sequence number.
    fn end(&self) -> usize {
        self.base + self.slots.len()
    }

    /// Appends a freshly fetched entry, counting growth past the pre-sized
    /// bound as an allocation event.
    fn push(&mut self, ti: TraceInst<'p>, dispatch_at: u64, activity: &mut Activity) {
        debug_assert_eq!(ti.seq as usize, self.end());
        if self.slots.len() == self.slots.capacity() {
            activity.alloc_count += 1;
        }
        self.slots.push_back(Slot {
            ti,
            dispatch_at,
            complete: NOT_DONE,
            first_waiter: NO_WAITER,
            next_waiter: NO_WAITER,
        });
    }

    /// Retires the ROB head in cycle `now` and evicts retired entries
    /// beyond `retain`.
    fn retire_head(&mut self, now: u64) {
        self.rob_head += 1;
        while self.rob_head - self.base > self.retain {
            let evicted = self.slots.pop_front().expect("retired entries are in the window");
            // The next classification happens at `now + 1` at the earliest.
            debug_assert!(
                evicted.complete + self.wakeup_delay <= now,
                "evicted a result a consumer could still be waiting to see"
            );
            self.base += 1;
        }
    }

    /// Completion cycle of `seq`; an evicted entry's result is visible to
    /// every consumer still in flight (see [`Window`]), reported as 0.
    fn complete(&self, seq: usize) -> u64 {
        if seq < self.base {
            0
        } else {
            self[seq].complete
        }
    }

    /// Classifies entry `idx` for the wakeup-driven ready state: if any
    /// dependence has not issued yet, returns `Err(producer)` for the first
    /// such producer (the entry links into that producer's waiter list and
    /// is re-classified when it issues); otherwise returns `Ok(wake_at)`,
    /// the first cycle at which every dependence is visible through the
    /// bypass network.
    fn classify(&self, idx: usize) -> Result<u64, usize> {
        let ti = &self[idx].ti;
        let mut wake_at = 0u64;
        for &d in ti.reg_deps.iter().chain(ti.mem_dep.as_ref()) {
            let c = self.complete(d as usize);
            if c == NOT_DONE {
                return Err(d as usize);
            }
            wake_at = wake_at.max(c + self.wakeup_delay);
        }
        Ok(wake_at)
    }

    /// Stall class of a cycle that issued nothing (paper §5.2: charge the
    /// oldest instruction). The oldest's producers have all retired, so an
    /// oldest that has not issued is never waiting on a load: only an
    /// executing load at the head is a load stall.
    fn idle_stall(&self, rob_tail: usize) -> StallKind {
        if self.rob_head >= rob_tail {
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

/// Pushes onto the wakeup timer, counting heap growth as an allocation
/// event (the heap is pre-sized to the window bound, so steady state never
/// grows).
fn timer_push(
    timer: &mut BinaryHeap<Reverse<(u64, usize)>>,
    activity: &mut Activity,
    t: u64,
    idx: usize,
) {
    if timer.len() == timer.capacity() {
        activity.alloc_count += 1;
    }
    timer.push(Reverse((t, idx)));
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
        let (cfg, queues) = (&self.config, self.queues);
        let cycle_cap = case.cycle_cap(cfg.max_cycles);
        let mut trace = TraceStream::new(case.program, case.initial_state(), case.max_insts);
        let retire = probe.observes() >= Observes::Retirements;

        let mut mem = MemorySystem::new(cfg.hierarchy);
        let mut predictor = Gshare::new(cfg.gshare_entries);
        let mut fu = FuPool::new(cfg);
        let mut stats = RunStats::default();
        let mut activity = Activity::new();

        let wakeup_delay = queues.wakeup_delay;
        let mut win = Window::new(cfg.ooo_rob + cfg.inorder_buffer, cfg.issue_width, wakeup_delay);

        // Front end: the fetch stop, plus the decode pipe — the window's
        // entries from `rob_tail` to its end, each dispatchable from its
        // `dispatch_at` cycle.
        let mut fetch_blocked_until: u64 = 0;
        // A mispredicted branch stops fetch until it resolves; `Some(idx)`.
        let mut waiting_branch: Option<usize> = None;

        // Scheduling window, held as wakeup-driven ready state instead of a
        // per-cycle-scanned vector: an un-issued entry is (a) linked into
        // the intrusive waiter list of one still-unissued producer, (b)
        // parked in the wakeup timer until its last dependence becomes
        // visible, or (c) in the oldest-first `ready` list. Select walks
        // only `ready`, so its cost scales with instructions that *become*
        // ready rather than window size × cycles, and the containers are
        // pre-sized to the window bound so steady state never allocates.
        let window_cap = (queues.count * queues.entries).min(cfg.ooo_rob) + 1;
        let mut ready: Vec<usize> = Vec::with_capacity(window_cap);
        let mut woken: Vec<usize> = Vec::with_capacity(window_cap);
        let mut merged: Vec<usize> = Vec::with_capacity(window_cap);
        let mut timer: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::with_capacity(window_cap);
        activity.alloc_count += 5; // the trace window and four scheduling containers
        let mut queue_len = [0usize; 3];
        // Queues that hold entries until completion: in-flight
        // (complete_at, queue) pairs pending release.
        let mut queue_release: Vec<(u64, usize)> = Vec::new();
        // Reorder buffer: dispatched, not yet retired (contiguous range
        // from `win.rob_head`).
        let mut rob_tail: usize = 0; // next to dispatch
        let mut retired_halt = false;

        let mispredict_penalty = cfg.mispredict_penalty + cfg.ooo_extra_stages;
        let mut now: u64 = 0;
        let mut loop_passes: u64 = 0;

        while !retired_halt {
            if now >= cycle_cap {
                return Err(RunError::CycleBudgetExceeded {
                    limit: cycle_cap,
                    retired: stats.retired,
                });
            }
            loop_passes += 1;

            // ---- fetch ----
            let fetch_pc = if now >= fetch_blocked_until && waiting_branch.is_none() {
                trace.peek().expect(TRACE_FAILED).map(|(pc, _)| pc)
            } else {
                None
            };
            if let Some(pc) = fetch_pc {
                // One I-cache access for the fetch group.
                match mem.access(pc.fetch_address(), AccessKind::InstFetch, now) {
                    MemAccess::Done { complete_at, .. } if complete_at > now + 1 => {
                        fetch_blocked_until = complete_at;
                    }
                    MemAccess::Retry => fetch_blocked_until = now + 1,
                    MemAccess::Done { .. } => {
                        let mut fetched = 0;
                        while fetched < cfg.fetch_width && win.end() - rob_tail < cfg.inorder_buffer
                        {
                            let Some(ti) = trace.next() else { break };
                            let ti = ti.expect(TRACE_FAILED);
                            let (seq, pc, taken) = (ti.seq as usize, ti.pc, ti.effect.taken);
                            let conditional = ti.is_conditional_branch();
                            win.push(ti, now + 1 + cfg.ooo_extra_stages, &mut activity);
                            fetched += 1;
                            if conditional {
                                stats.branches += 1;
                                let (pred, snap) = predictor.predict(pc);
                                predictor.update(pc, snap, taken);
                                if pred != taken {
                                    stats.mispredicts += 1;
                                    predictor.repair(snap, taken);
                                    // Fetch stops until this branch resolves.
                                    waiting_branch = Some(seq);
                                    break;
                                }
                                if taken {
                                    // Redirect bubble on a taken branch.
                                    fetch_blocked_until = now + 2;
                                    break;
                                }
                            } else if taken {
                                // Unconditional taken branch: redirect bubble.
                                fetch_blocked_until = now + 2;
                                break;
                            }
                        }
                    }
                }
            }

            // ---- dispatch (in order, bounded by window/queues and ROB) ----
            let mut dispatched = 0;
            while dispatched < cfg.issue_width {
                let idx = rob_tail;
                if idx == win.end() || win[idx].dispatch_at > now {
                    break;
                }
                if rob_tail - win.rob_head >= cfg.ooo_rob {
                    break; // ROB full
                }
                let q = queues.of(&win[idx].ti);
                if queue_len[q] >= queues.entries {
                    break;
                }
                queue_len[q] += 1;
                match win.classify(idx) {
                    Err(p) => {
                        win[idx].next_waiter = win[p].first_waiter;
                        win[p].first_waiter = idx;
                    }
                    Ok(t) if t <= now => {
                        if woken.len() == woken.capacity() {
                            activity.alloc_count += 1;
                        }
                        woken.push(idx);
                    }
                    Ok(t) => timer_push(&mut timer, &mut activity, t, idx),
                }
                rob_tail += 1;
                dispatched += 1;
                // Rename activity: one RAT lookup per source, one update per
                // destination.
                let inst = win[idx].ti.inst;
                activity.rat_reads += inst.reads().count() as u64;
                if inst.writes().is_some() {
                    activity.rat_writes += 1;
                }
            }

            // ---- issue (oldest-first select from the ready list) ----
            fu.new_cycle(now);
            // Drain due wakeup timers and merge the newly-woken entries
            // (plus any dispatched-ready ones) into the sorted ready list.
            while let Some(&Reverse((t, idx))) = timer.peek() {
                if t > now {
                    break;
                }
                timer.pop();
                if woken.len() == woken.capacity() {
                    activity.alloc_count += 1;
                }
                woken.push(idx);
            }
            if !woken.is_empty() {
                woken.sort_unstable();
                if merged.capacity() < ready.len() + woken.len() {
                    activity.alloc_count += 1;
                }
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
                std::mem::swap(&mut ready, &mut merged);
                woken.clear();
            }
            let mut issued = 0u32;
            // Each queue has its own select ports.
            let mut queue_issued = [0u32; 3];
            let mut kept = 0usize;
            let mut r = 0usize;
            while r < ready.len() {
                if issued >= cfg.issue_width {
                    break;
                }
                let idx = ready[r];
                let ti = &win[idx].ti;
                let q = queues.of(ti);
                activity.select_visits += 1;
                if queue_issued[q] >= queues.selects {
                    ready[kept] = idx;
                    kept += 1;
                    r += 1;
                    continue;
                }
                // Ready-list membership implies every dependence is visible;
                // the old per-cycle re-check is now an invariant.
                debug_assert!(ti.reg_deps.iter().chain(ti.mem_dep.as_ref()).all(|&d| {
                    let c = win.complete(d as usize);
                    c != NOT_DONE && c + wakeup_delay <= now
                }));
                if !fu.try_issue(ti.inst, now) {
                    ready[kept] = idx;
                    kept += 1;
                    r += 1;
                    continue;
                }
                // Loads access the hierarchy; MSHR exhaustion retries later.
                let done_at = if let Some(addr) = ti.effect.loaded {
                    activity.store_buffer_searches += 1;
                    match mem.access(addr, AccessKind::DataRead, now) {
                        MemAccess::Done { complete_at, .. } => complete_at,
                        MemAccess::Retry => {
                            ready[kept] = idx;
                            kept += 1;
                            r += 1;
                            continue;
                        }
                    }
                } else if let Some((addr, _)) = ti.effect.stored {
                    activity.load_buffer_searches += 1;
                    let _ = mem.access(addr, AccessKind::DataWrite, now);
                    now + 1
                } else if ti.effect.qp_true {
                    now + ti.inst.op().latency() as u64
                } else {
                    now + 1 // predicated off: flows through in one cycle
                };
                debug_assert!(done_at > now, "results are never visible in their issue cycle");
                stats.executions += u64::from(ti.effect.qp_true);
                activity.issue_selections += 1;
                activity.wakeup_broadcasts += 1;
                activity.regfile_reads += ti.inst.reads().count() as u64;
                if ti.inst.writes().is_some() {
                    activity.regfile_writes += 1;
                }
                queue_issued[q] += 1;
                if queues.release_at_issue {
                    queue_len[q] -= 1;
                } else {
                    queue_release.push((done_at, q));
                }
                win[idx].complete = done_at;
                // A resolved mispredicted branch releases fetch.
                if waiting_branch == Some(idx) {
                    waiting_branch = None;
                    fetch_blocked_until = done_at + mispredict_penalty;
                }
                // Wake this producer's waiters: each re-classifies onto its
                // next unissued producer or into the wakeup timer (never
                // into this cycle's ready set — results land at now+1 or
                // later, so in-flight select order is undisturbed).
                let mut wtr = std::mem::replace(&mut win[idx].first_waiter, NO_WAITER);
                while wtr != NO_WAITER {
                    let widx = wtr;
                    wtr = win[widx].next_waiter;
                    match win.classify(widx) {
                        Err(p) => {
                            win[widx].next_waiter = win[p].first_waiter;
                            win[p].first_waiter = widx;
                        }
                        Ok(t) => timer_push(&mut timer, &mut activity, t, widx),
                    }
                }
                issued += 1;
                r += 1;
            }
            // Entries past the width cutoff stay ready, still oldest-first.
            while r < ready.len() {
                ready[kept] = ready[r];
                kept += 1;
                r += 1;
            }
            ready.truncate(kept);

            // ---- release completed queue entries ----
            queue_release.retain(|&(done, q)| {
                if done <= now {
                    queue_len[q] -= 1;
                    false
                } else {
                    true
                }
            });

            // ---- retire (in order) ----
            let mut retired_now = 0;
            while retired_now < cfg.issue_width as usize
                && win.rob_head < rob_tail
                && win[win.rob_head].complete <= now
            {
                let ti = &win[win.rob_head].ti;
                retired_halt |= ti.effect.halted;
                if retire {
                    probe.on_retire(&RetireEvent {
                        seq: ti.seq,
                        cycle: now,
                        pc: ti.pc,
                        inst: *ti.inst,
                        qp_true: Some(ti.effect.qp_true),
                        wrote: ti.effect.wrote,
                        stored: ti.effect.stored,
                        mode: RetireMode::Architectural,
                        merged: false,
                        episode: None,
                    });
                }
                stats.retired += 1;
                win.retire_head(now);
                retired_now += 1;
            }

            // ---- attribution (paper §5.2: charge the oldest instruction) ----
            if issued > 0 {
                stats.breakdown.charge(StallKind::Execution);
            } else {
                stats.breakdown.charge(win.idle_stall(rob_tail));
            }

            now += 1;

            // Event-driven fast-forward: skip ahead while every pipeline
            // section is provably idle — fetch blocked, drained or facing a
            // full decode pipe, dispatch capacity-blocked, no window entry's
            // dependences visible, no retirement or queue release due. The
            // wake set collects every cycle at which any of those facts can
            // change; attribution is constant inside the window and
            // bulk-charged.
            if self.tick == TickMode::EventDriven && !retired_halt {
                'ff: {
                    // Fetch facing a full decode pipe re-reads its line every
                    // cycle and fetches nothing until dispatch drains the
                    // pipe. An L1I hit (one cycle at most) leaves fetch
                    // unblocked, so those re-reads are charged in bulk below.
                    let mut refetch = None;
                    let mut wake = if trace.is_done() || waiting_branch.is_some() {
                        u64::MAX
                    } else if now < fetch_blocked_until {
                        fetch_blocked_until
                    } else if win.end() - rob_tail >= cfg.inorder_buffer {
                        let Ok(Some((pc, _))) = trace.peek() else { break 'ff };
                        refetch = Some(pc.fetch_address());
                        u64::MAX
                    } else {
                        break 'ff; // fetch would access the I-cache: poll
                    };
                    if rob_tail < win.end() {
                        let ready_at = win[rob_tail].dispatch_at;
                        if ready_at > now {
                            wake = wake.min(ready_at);
                        } else {
                            let rob_full = rob_tail - win.rob_head >= cfg.ooo_rob;
                            let slot_full =
                                queue_len[queues.of(&win[rob_tail].ti)] >= queues.entries;
                            if !rob_full && !slot_full {
                                break 'ff; // would dispatch: poll
                            }
                            // Capacity clears only via retirement or queue
                            // release, both already in the wake set below.
                        }
                    }
                    // A window entry wakes when its last finite dependence
                    // becomes visible; a dependence that has not issued
                    // cannot complete inside a quiescent window. The
                    // wakeup-driven state answers this in O(1): waiter-
                    // linked entries are unknowable, the timer heap's
                    // minimum is the next dependence-visible cycle, and a
                    // non-empty ready list means the select loop must act.
                    if !ready.is_empty() {
                        break 'ff; // issueable now: the select loop acts
                    }
                    if let Some(&Reverse((t, _))) = timer.peek() {
                        if t <= now {
                            break 'ff;
                        }
                        wake = wake.min(t);
                    }
                    if win.rob_head < rob_tail {
                        let c = win[win.rob_head].complete;
                        if c != NOT_DONE {
                            if c <= now {
                                break 'ff; // would retire: poll
                            }
                            wake = wake.min(c);
                        }
                    }
                    for &(done, _) in &queue_release {
                        if done > now {
                            wake = wake.min(done);
                        } else {
                            break 'ff; // release due this cycle: poll
                        }
                    }
                    wake = wake.min(mem.next_mshr_fill(now)).min(cycle_cap);
                    if wake <= now {
                        break 'ff;
                    }
                    // Charge the skipped fetches, or poll if the first one
                    // would miss the L1I or merge with a miss in flight: a
                    // polled cycle would then block fetch.
                    if let Some(addr) = refetch {
                        if !mem.repeat_ifetch_hits(addr, now, wake - now) {
                            break 'ff;
                        }
                    }
                    // Attribution for an idle cycle, identical to the
                    // polled path with issued == 0.
                    stats.breakdown.charge_n(win.idle_stall(rob_tail), wake - now);
                    now = wake;
                }
            }
        }

        stats.cycles = now;
        activity.cycles = now;
        let result = RunResult {
            stats,
            activity,
            mem_stats: mem.final_stats(),
            // The run is over: move the stream's final state out instead of
            // cloning the whole memory image.
            final_state: trace.into_state(),
            loop_passes,
        };
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
            assert_eq!(b.activity.alloc_count, 5);
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
