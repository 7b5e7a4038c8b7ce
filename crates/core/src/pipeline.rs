//! The multipass pipeline model (paper §3).
//!
//! One physical in-order pipeline operating in three modes:
//!
//! * **Architectural** — indistinguishable from the baseline in-order
//!   pipeline; multipass structures are clock-gated. Architectural and
//!   rally issue of instructions without a preserved result run the
//!   baseline's own execute step ([`ff_engine::InOrderStage::execute`]),
//!   and their event-driven skip its stalled-head analysis. Architectural
//!   issue also ends its group where the baseline does: at a stop bit, a
//!   flush or a halt.
//! * **Advance** — triggered when the oldest instruction stalls on an
//!   unready load result. The PEEK pointer walks forward from the trigger,
//!   executing whatever has valid operands into the SRF and the result
//!   store, suppressing the rest with I-bits, prefetching through missing
//!   loads, forwarding stores through the ASC, resolving branches early,
//!   and restarting the pass at the trigger whenever a compiler-inserted
//!   `RESTART` finds its operand unready.
//! * **Rally** — the trigger's operand arrived; the architectural stream
//!   resumes from the DEQ pointer, *merging* preserved results (E-bits)
//!   instead of re-executing, regrouping across compiler stop bits
//!   (preexecuted instructions carry no dependences), verifying
//!   data-speculative loads value-wise, and dropping back to architectural
//!   mode once DEQ catches the high-water PEEK mark.
//!
//! The modes are [`ff_engine::RetireMode`]; the SRF is the
//! [`ff_engine::Srf`] runahead also writes. The advance→rally test is the
//! stage's [`ff_engine::InOrderStage::head_ready`] plus an E-bit arm.

use ff_engine::{
    AscForwardObs, CycleObs, EpisodeWindow, ExecutionModel, InOrderStage, MachineConfig,
    MemAccessObs, Observes, PendingKind, PipelineProbe, RetireEvent, RetireMode, RunError,
    RunResult, SimCase, Srf, SrfVal, StallKind, TickMode,
};
use ff_isa::eval::{alu, effective_address};
use ff_isa::{Inst, Op, Pc, Reg};
use ff_mem::{AccessKind, MemAccess};

use crate::asc::{AdvanceStoreCache, AscData, AscLookup};
use crate::config::{FaultClass, MultipassConfig, RestartStrategy};
use crate::entry::{EntryRing, MpEntry, RsResult};

/// One operand read during advance execution: its value and taint, or
/// `None` when the producer was deferred (I-bit) or is an outstanding
/// load — the consumer is suppressed this pass.
type AdvOperand = Option<(u64, bool)>;

/// Advance issue stops for this cycle without stepping PEEK: an operand's
/// producer is in flight with a short, bounded latency or the FU is busy
/// (the in-order advance pipe stalls rather than suppresses), or the slot
/// restarted the pass or redirected fetch.
struct Stop;

/// How an advance slot that did not [`Stop`] ends: PEEK steps past it.
#[derive(PartialEq, Eq)]
enum Slot {
    /// Advance issue continues with the next instruction.
    Next,
    /// A branch: advance issue does not cross it this cycle.
    Last,
}

/// The multipass execution model.
#[derive(Clone, Debug)]
pub struct Multipass {
    config: MultipassConfig,
    tick: TickMode,
}

impl Multipass {
    /// Creates the model from a base machine configuration with the
    /// paper's multipass parameters.
    pub fn new(machine: MachineConfig) -> Self {
        Multipass { config: MultipassConfig::new(machine), tick: TickMode::default() }
    }

    /// Creates the model from an explicit multipass configuration
    /// (ablation switches for Figure 8).
    pub fn with_config(config: MultipassConfig) -> Self {
        Multipass { config, tick: TickMode::default() }
    }

    /// The active configuration.
    pub fn config(&self) -> &MultipassConfig {
        &self.config
    }
}

/// Whole-run mutable state, split out so the mode handlers can be methods:
/// the baseline in-order pipeline plus the multipass structures.
struct Core<'a> {
    cfg: MultipassConfig,
    /// The baseline pipeline, which architectural and rally issue drive.
    base: InOrderStage<'a>,
    srf: Srf,
    asc: AdvanceStoreCache,
    /// Multipass per-instruction state, keyed by sequence number, in a
    /// fixed ring that shadows the fetch buffer (DESIGN.md §7e).
    entries: EntryRing,
    /// The pipeline mode (paper Figure 3); retirements and the probe's
    /// mode timeline report it as is.
    mode: RetireMode,
    /// PEEK pointer (sequence number) during advance mode.
    peek: u64,
    /// Trigger sequence number of the current advance episode.
    trigger: u64,
    /// Farthest PEEK point of the current episode (rally exit condition).
    peek_high: u64,
    /// Youngest store deferred with an unknown address this pass, if any:
    /// subsequent loads are data speculative (§3.6) unless an ASC hit
    /// proves a *younger* store to the same word forwarded its data.
    deferred_store: Option<u64>,
    /// SMAQ occupancy (entries holding a resolved advance address).
    smaq_count: usize,
    /// Issue blocked until this cycle (value-misspeculation flush).
    stall_until: u64,
    /// New executions happened in the current advance pass (a pass that
    /// produced nothing new makes a further restart futile).
    pass_progress: bool,
    /// The current advance slot performed useful work (execution or merge).
    slot_executed: bool,
    /// Consecutive deferred advance slots (hardware restart detector).
    consec_deferrals: u32,
    /// The advance pipeline is waiting for a known in-flight arrival after
    /// a restart (footnote 2 of the paper: the restart is timed so the
    /// restarted instruction meets its input at the REG stage).
    advance_wait_until: u64,
    /// The run's observer. What it observes is hoisted into two flags:
    /// `retire_enabled` (retirement events) and `probe_enabled` (every
    /// other observation), so an unobserved run never constructs events
    /// and a retirement-only one never builds per-cycle snapshots.
    probe: &'a mut dyn PipelineProbe,
    retire_enabled: bool,
    probe_enabled: bool,
    /// Architectural load wakeups scheduled so far (fault-injection index).
    load_pends: u64,
    exec_pends: u64,
    /// ASC forwards with the S bit set so far (fault-injection index).
    speculative_forwards: u64,
    /// Per-cycle tick strategy. Event-driven runs must be bit-for-bit
    /// identical to polling; the fast-forward only ever skips cycles it
    /// can prove the polled loop would spend idle.
    tick: TickMode,
}

impl<'a> Core<'a> {
    fn new(config: MultipassConfig, case: &SimCase<'a>, probe: &'a mut dyn PipelineProbe) -> Self {
        let observes = probe.observes();
        let machine = config.machine;
        let mut base = InOrderStage::new(case, &machine, machine.multipass_iq);
        if let Some(n) = config.fault_index(FaultClass::WarpedCacheLatency) {
            base.mem.inject_warp_latency(n);
        }
        if let Some(n) = config.fault_index(FaultClass::LostMshrDealloc) {
            base.mem.inject_lost_mshr_dealloc(n);
        }
        Core {
            cfg: config,
            base,
            srf: Srf::new(),
            asc: AdvanceStoreCache::new(config.asc_entries, config.asc_assoc),
            // Live seqs span at most the fetch buffer (entries are
            // claimed at issue and freed at DEQ/squash).
            entries: EntryRing::new(machine.multipass_iq + 2),
            mode: RetireMode::Architectural,
            peek: 0,
            trigger: 0,
            peek_high: 0,
            deferred_store: None,
            smaq_count: 0,
            stall_until: 0,
            pass_progress: false,
            slot_executed: false,
            consec_deferrals: 0,
            advance_wait_until: 0,
            probe,
            retire_enabled: observes >= Observes::Retirements,
            probe_enabled: observes == Observes::Pipeline,
            load_pends: 0,
            exec_pends: 0,
            speculative_forwards: 0,
            tick: TickMode::default(),
        }
    }

    fn set_mode(&mut self, mode: RetireMode) {
        self.mode = mode;
        if self.probe_enabled {
            self.probe.on_mode(self.base.now, mode);
        }
    }

    // ---------------------------------------------------------------- util

    /// Schedules an architectural load wakeup, routing through the
    /// dropped-wakeup fault: the faulted wakeup lands in the unreachable
    /// future, wedging every consumer of `d`.
    fn pend_load(&mut self, d: Reg, complete_at: u64) {
        let mut at = complete_at;
        if let Some(n) = self.cfg.fault_index(FaultClass::DroppedWakeup) {
            if self.load_pends == n {
                at = u64::MAX / 2;
            }
            self.load_pends += 1;
        }
        self.base.sb.set_pending(d, at, PendingKind::Load);
    }

    /// Schedules an execution-op writeback wakeup, routing through the
    /// dropped-ready-insert fault: the faulted insertion lands in the
    /// unreachable future, so consumers of `d` never transition back to
    /// ready.
    fn pend_exec(&mut self, d: Reg, ready_at: u64) {
        let mut at = ready_at;
        if let Some(n) = self.cfg.fault_index(FaultClass::DroppedReadyInsert) {
            if self.exec_pends == n {
                at = u64::MAX / 2;
            }
            self.exec_pends += 1;
        }
        self.base.sb.set_pending(d, at, PendingKind::Exec);
    }

    /// Publishes one issued-and-retired instruction: its issue and
    /// register writeback when the probe observes the pipeline, then the
    /// retirement. `event` is built only when the probe observes it.
    fn publish_retire(&mut self, event: impl FnOnce(&Self) -> RetireEvent) {
        if !self.retire_enabled {
            return;
        }
        let event = event(self);
        if self.probe_enabled {
            self.probe.on_issue(event.seq, event.cycle);
            if let Some((r, _)) = event.wrote {
                self.probe.on_writeback(event.seq, r, event.cycle);
            }
        }
        self.probe.on_retire(&event);
    }

    /// Publishes a completed data access to the probe.
    fn probe_mem_access(&mut self, complete_at: u64, level: ff_mem::HitLevel) {
        if self.probe_enabled {
            self.probe.on_mem_access(&MemAccessObs { cycle: self.base.now, complete_at, level });
        }
    }

    /// Publishes the top-of-cycle pipeline snapshot to the probe.
    fn probe_cycle(&mut self) {
        if !self.probe_enabled {
            return;
        }
        let obs = CycleObs {
            cycle: self.base.now,
            mode: self.mode,
            trigger: self.trigger,
            peek: self.peek,
            peek_high: self.peek_high,
            deq: self.base.fetch.head_seq(),
            srf_abits: self.srf.abit_count(),
            asc_live: self.asc.live_entries(),
            asc_capacity: self.asc.capacity(),
            asc_assoc_ok: self.asc.assoc_ok(),
            smaq_live: self.smaq_count,
            smaq_capacity: self.cfg.smaq_entries,
            sb_drain: self.base.sb.drain_cycle(),
        };
        self.probe.on_cycle(&obs);
    }

    fn set_smaq(&mut self, seq: u64, addr: u64) {
        let e = self.entries.get_mut(seq);
        if e.smaq_addr.is_none() {
            self.smaq_count += 1;
            self.base.activity.smaq_accesses += 1;
        }
        e.smaq_addr = Some(addr);
    }

    fn drop_entry(&mut self, seq: u64) {
        if let Some(e) = self.entries.remove(seq) {
            if e.smaq_addr.is_some() {
                self.smaq_count = self.smaq_count.saturating_sub(1);
            }
        }
    }

    /// Removes multipass state for every entry with `seq >= from`.
    fn squash_entries_from(&mut self, from: u64) {
        let smaq_count = &mut self.smaq_count;
        self.entries.squash_from(from, |e| {
            if e.smaq_addr.is_some() {
                *smaq_count = smaq_count.saturating_sub(1);
            }
        });
    }

    /// The advance-episode window reported with retirements outside
    /// architectural mode.
    fn episode_window(&self, deq: u64) -> Option<EpisodeWindow> {
        if self.mode == RetireMode::Architectural {
            None
        } else {
            Some(EpisodeWindow { trigger: self.trigger, peek: self.peek_high, deq })
        }
    }

    /// Reads a register for an advance instruction (paper §3.4): SRF when
    /// the A-bit is set, architectural file otherwise, deferring on I-bits
    /// and on outstanding load results, stalling on short in-flight
    /// execution latencies.
    fn adv_read(&mut self, r: Reg) -> Result<AdvOperand, Stop> {
        let now = self.base.now;
        if r.is_hardwired() {
            return Ok(Some((self.base.state.read(r), false)));
        }
        match self.srf.read(r) {
            Some(SrfVal::Valid { value, ready_at, tainted }) if ready_at <= now => {
                Ok(Some((value, tainted)))
            }
            Some(SrfVal::Valid { .. }) => Err(Stop),
            Some(SrfVal::Pending { .. } | SrfVal::Invalid) => Ok(None),
            None => match self.base.sb.pending_kind(r, now) {
                PendingKind::None => {
                    self.base.activity.regfile_reads += 1;
                    Ok(Some((self.base.state.read(r), false)))
                }
                PendingKind::Load => Ok(None),
                PendingKind::Exec => Err(Stop),
            },
        }
    }

    /// Whether the head (trigger) instruction could issue in rally mode at
    /// the current cycle — the advance→rally transition condition. An
    /// E-bit head waits for its preserved result; any other head is the
    /// baseline's [`InOrderStage::head_ready`].
    fn head_issueable(&self) -> bool {
        let ent = self.entries.get(self.base.fetch.head_seq());
        if ent.e_bit {
            ent.rs_available(self.base.now)
        } else {
            self.base.head_ready()
        }
    }

    /// The earliest future cycle at which [`Core::head_issueable`] can
    /// change through the passage of time alone — the advance→rally wake
    /// point: an E-bit head's result arrival, else the baseline's
    /// [`InOrderStage::head_wake`].
    fn head_wake(&self) -> u64 {
        let ent = self.entries.get(self.base.fetch.head_seq());
        if ent.e_bit {
            ent.rs_ready_at
        } else {
            self.base.head_wake()
        }
    }

    /// Flash-clears the per-pass speculative state: every SRF A-bit, the
    /// ASC, and the deferred-store mark.
    fn clear_pass_state(&mut self) {
        self.srf.clear();
        self.asc.clear();
        self.deferred_store = None;
    }

    fn enter_advance(&mut self, trigger: u64) {
        self.set_mode(RetireMode::Advance);
        self.trigger = trigger;
        self.peek = trigger;
        self.peek_high = self.peek_high.max(trigger);
        self.clear_pass_state();
        self.pass_progress = false;
        self.consec_deferrals = 0;
        self.advance_wait_until = 0;
        self.base.stats.spec_mode_entries += 1;
    }

    fn restart_pass(&mut self) {
        self.clear_pass_state();
        self.peek = self.trigger;
        self.pass_progress = false;
        self.consec_deferrals = 0;
        self.base.stats.advance_restarts += 1;
    }

    fn enter_rally(&mut self) {
        self.set_mode(RetireMode::Rally);
        self.clear_pass_state();
    }

    // --------------------------------------------------------- rally/arch

    /// One cycle of architectural/rally issue. Returns `(issued, stall)`.
    fn issue_architectural(&mut self) -> (u32, Option<StallKind>) {
        let now = self.base.now;
        let regroup = self.cfg.enable_regrouping && self.mode != RetireMode::Architectural;
        let width = self.cfg.machine.issue_width;
        let mut issued = 0u32;
        let mut stall: Option<StallKind> = None;
        let mut prev_ended_group = false;

        while issued < width {
            let Some(head) = self.base.select_head() else { break };
            let (seq, pc, inst) = (head.seq, head.pc, head.inst);
            let ends_group = inst.ends_group();
            let ent = self.entries.get(seq);

            // Crossing a compiler stop bit requires regrouping.
            if issued > 0 && prev_ended_group {
                if !regroup {
                    break;
                }
                self.base.stats.regroup_merges += 1;
            }

            let mut flushed = false;
            if ent.rs_available(now) {
                // ---- merge a preserved result (E-bit) ----
                self.base.activity.rs_reads += 1;
                self.base.activity.iq_reads += 1;
                let mut wrote = None;
                let mut stored = None;
                match ent.result.expect("E-bit entry has a result") {
                    RsResult::Value(v) => {
                        if ent.s_bit {
                            // Data-speculative load: reperform the access
                            // using the SMAQ address and verify the value.
                            if !self.base.fu.try_issue(inst, now) {
                                stall = Some(StallKind::Other);
                                break;
                            }
                            let addr = ent.smaq_addr.expect("S-bit load has a SMAQ address");
                            self.base.activity.smaq_accesses += 1;
                            let cur = self.base.state.mem.load(addr);
                            let complete_at =
                                match self.base.mem.access(addr, AccessKind::DataRead, now) {
                                    MemAccess::Done { complete_at, level } => {
                                        self.probe_mem_access(complete_at, level);
                                        complete_at
                                    }
                                    MemAccess::Retry => {
                                        stall = Some(StallKind::Other);
                                        break;
                                    }
                                };
                            if cur != v {
                                // Value misspeculation: pipeline flush.
                                self.base.stats.value_flushes += 1;
                                self.squash_entries_from(seq);
                                self.clear_pass_state();
                                self.peek_high = self.peek_high.min(seq);
                                self.stall_until = now + self.cfg.machine.mispredict_penalty;
                                stall = Some(StallKind::Other);
                                break;
                            }
                            if let Some(d) = inst.writes() {
                                self.base.state.write(d, cur);
                                self.pend_load(d, complete_at);
                                self.base.activity.regfile_writes += 1;
                                wrote = Some((d, cur));
                            }
                        } else if let Some(d) = inst.writes() {
                            let mut v = v;
                            if self.cfg.fault_index(FaultClass::RegisterBitFlip)
                                == Some(self.base.stats.rs_reuses)
                            {
                                // Deliberate single-bit corruption used to
                                // exercise the ff-debug triage path.
                                v ^= 1;
                            }
                            self.base.state.write(d, v);
                            // Result is immediately bypassable (already
                            // computed): no scoreboard pendency.
                            self.base.sb.set_pending(d, now, PendingKind::None);
                            self.base.activity.regfile_writes += 1;
                            wrote = Some((d, v));
                        }
                    }
                    RsResult::Nop => {}
                    RsResult::Store { addr, data } => {
                        if !self.base.fu.try_issue(inst, now) {
                            stall = Some(StallKind::Other);
                            break;
                        }
                        self.base.activity.smaq_accesses += 1;
                        self.base.state.mem.store(addr, data);
                        let _ = self.base.mem.access(addr, AccessKind::DataWrite, now);
                        stored = Some((addr, data));
                    }
                }
                self.publish_retire(|core| RetireEvent {
                    seq,
                    cycle: now,
                    pc,
                    inst: *inst,
                    qp_true: None,
                    wrote,
                    stored,
                    mode: core.mode,
                    merged: true,
                    episode: core.episode_window(seq),
                });
                self.base.stats.rs_reuses += 1;
                self.base.fetch.pop_front();
                self.drop_entry(seq);
                self.base.stats.retired += 1;
                issued += 1;
            } else if ent.e_bit {
                // Preserved result still in flight (outstanding miss).
                stall = Some(StallKind::Load);
                break;
            } else {
                // ---- ordinary architectural issue (baseline semantics) ----
                // A branch advance already resolved trained the predictor
                // then, and fetch follows the stream advance redirected.
                let stream_next = ent.resolved_next.unwrap_or(head.predicted_next);
                let done = match self.base.execute(&head, !ent.branch_trained, stream_next) {
                    Ok(done) => done,
                    Err(kind) => {
                        stall = Some(kind);
                        break;
                    }
                };
                match done.pend {
                    Some((d, at, PendingKind::Load)) => self.pend_load(d, at),
                    Some((d, at, _)) => self.pend_exec(d, at),
                    None => {}
                }
                if let Some((complete_at, level)) = done.access {
                    self.probe_mem_access(complete_at, level);
                }
                if done.flushed {
                    self.after_fetch_flush();
                    flushed = true;
                }
                self.publish_retire(|core| done.event(now, core.mode, core.episode_window(seq)));
                self.drop_entry(seq);
                self.base.activity.iq_reads += 1;
                issued += 1;
            }

            // A regrouped rally group ends at a branch; otherwise issue,
            // like the baseline's, ends only at a stop bit, a flush or a
            // halt.
            if self.base.halted || flushed || (regroup && inst.op().is_branch()) {
                break;
            }
            if !regroup && ends_group {
                break;
            }
            prev_ended_group = ends_group;
        }

        (issued, stall)
    }

    // -------------------------------------------------------------- advance

    /// Clamp multipass pointers after a fetch flush squashed entries.
    fn after_fetch_flush(&mut self) {
        let next = self.base.fetch.next_seq();
        self.squash_entries_from(next);
        self.peek = self.peek.min(next);
        self.peek_high = self.peek_high.min(next);
    }

    /// One cycle of advance preexecution. Returns whether it performed any
    /// *new* execution (the paper's attribution criterion).
    fn issue_advance(&mut self) -> bool {
        let now = self.base.now;
        let program = self.base.program;
        let executed_before = self.base.stats.executions;
        let mut slots = 0u32;
        let mut prev_ended_group = false;

        while slots < self.cfg.machine.issue_width {
            let seq = self.peek;
            let Some(fe) = self.base.fetch.get(seq).filter(|fe| fe.fetched_at <= now) else {
                break;
            };
            let (pc, predicted_next, snap) = (fe.pc, fe.predicted_next, fe.history_snapshot);
            // Same borrow-not-clone treatment as `issue_architectural`.
            let inst = program.inst(pc).expect("fetched pc is valid");
            self.base.activity.iq_reads += 1;
            self.base.activity.select_visits += 1;

            // Group-boundary rule mirrors rally: regrouping (with E-bits)
            // merges across stop bits, otherwise one group per cycle.
            if slots > 0 && prev_ended_group && !self.cfg.enable_regrouping {
                break;
            }
            // Never pre-execute past the end of the program.
            if matches!(inst.op(), Op::Halt) {
                break;
            }
            let Ok(slot) = self.advance_slot(seq, inst, pc, predicted_next, snap) else { break };
            self.advance_step(&mut slots, &mut prev_ended_group, inst.ends_group());
            if slot == Slot::Last {
                break;
            }
        }

        self.base.stats.executions > executed_before
    }

    /// Pre-executes the instruction at PEEK: merges its preserved result,
    /// executes it into the SRF and the result store, or defers it.
    fn advance_slot(
        &mut self,
        seq: u64,
        inst: &Inst,
        pc: Pc,
        predicted_next: Option<Pc>,
        snap: u16,
    ) -> Result<Slot, Stop> {
        let now = self.base.now;
        let ent = self.entries.get(seq);

        // ---- merge previously preserved results ----
        if ent.e_bit {
            if ent.rs_available(now) {
                self.base.activity.rs_reads += 1;
                self.slot_executed = true; // merge: useful, not deferred
                match ent.result.expect("E-bit entry has a result") {
                    RsResult::Value(value) => self.srf_dest(
                        inst,
                        SrfVal::Valid { value, ready_at: now, tainted: ent.tainted },
                    ),
                    RsResult::Nop => {}
                    RsResult::Store { addr, data } => {
                        self.base.activity.asc_accesses += 1;
                        self.asc.insert(
                            addr,
                            AscData::Valid { value: data, tainted: ent.tainted, seq },
                        );
                    }
                }
            } else {
                // Result still in flight: consumers defer this pass,
                // but the arrival cycle is known to the RESTART logic.
                self.srf_dest(inst, SrfVal::Pending { arrives_at: ent.rs_ready_at });
            }
            return Ok(Slot::Next);
        }

        // ---- evaluate the qualifying predicate ----
        let qp = if inst.is_predicated() {
            self.adv_read(inst.qp_reg())?.map(|(v, t)| (v != 0, t))
        } else {
            Some((true, false))
        };

        // Branches resolve control; handle them for every predicate
        // outcome (including qp == false, i.e. not taken).
        if let Op::Br { target } = inst.op() {
            if let Some((taken, false)) = qp {
                let actual_next = if taken {
                    self.base.program.first_pc_from(*target)
                } else {
                    self.base.program.next_pc(pc)
                };
                if inst.is_predicated() && !ent.branch_trained {
                    self.base.fetch.predictor_mut().update(pc, snap, taken);
                    self.entries.get_mut(seq).branch_trained = true;
                }
                if ent.resolved_next.unwrap_or(predicted_next) != actual_next {
                    // Early mispredict resolution: redirect fetch.
                    self.base.stats.early_resolved_mispredicts += 1;
                    let resume_at = now + self.cfg.machine.mispredict_penalty;
                    self.base.fetch.flush_after(seq, actual_next, resume_at, snap, taken);
                    self.after_fetch_flush();
                    self.entries.get_mut(seq).resolved_next = Some(actual_next);
                    // The pass continues at the corrected stream once it
                    // is refetched.
                    self.peek = seq + 1;
                    self.peek_high = self.peek_high.max(self.peek);
                    return Err(Stop);
                }
                // Correctly-followed branch: preserve as resolved.
                self.preserve(seq, RsResult::Nop, now, false, false);
            }
            // A control slot, not a deferral. Do not pre-execute across
            // an unresolved branch group boundary in the same cycle.
            self.slot_executed = true;
            return Ok(Slot::Last);
        }

        let qp_taint = match qp {
            Some((true, taint)) => taint,
            // Predicated off: preserve the no-op unless tainted.
            Some((false, false)) => {
                self.preserve(seq, RsResult::Nop, now, false, false);
                return Ok(Slot::Next);
            }
            Some((false, true)) => {
                self.defer_dest(inst);
                return Ok(Slot::Next);
            }
            // Unknown predicate: defer the instruction entirely.
            None => {
                self.defer_dest(inst);
                if inst.op().is_store() {
                    self.defer_store(seq);
                }
                return Ok(Slot::Next);
            }
        };
        match inst.op() {
            Op::Restart => return self.advance_restart(inst),
            Op::Nop => self.preserve(seq, RsResult::Nop, now, false, false),
            Op::Load | Op::LoadFp => {
                let Some((base, base_taint)) = self.adv_read(inst.src_n(0).expect("load base"))?
                else {
                    self.defer_dest(inst);
                    return Ok(Slot::Next);
                };
                if self.smaq_full(&ent) {
                    // SMAQ full: defer to a later pass.
                    self.defer_dest(inst);
                    return Ok(Slot::Next);
                }
                self.claim_fu(inst)?;
                let addr = effective_address(base, inst.imm_val());
                self.set_smaq(seq, addr);
                self.base.activity.asc_accesses += 1;
                match self.asc.lookup(addr) {
                    AscLookup::Hit(AscData::Valid { value, tainted, seq: store_seq }) => {
                        // The hit proves consistency only back to the
                        // forwarding store: a deferred store (unknown
                        // address) *younger* than it may alias this word,
                        // making the forwarded value data speculative (§3.6).
                        let mut s_bit = self.deferred_store.is_some_and(|d| d > store_seq);
                        if s_bit {
                            if self.cfg.fault_index(FaultClass::StaleAscForward)
                                == Some(self.speculative_forwards)
                            {
                                // Injected stale forward: the value skips
                                // rally's value-wise verify.
                                s_bit = false;
                            }
                            self.speculative_forwards += 1;
                        }
                        if self.probe_enabled {
                            self.probe.on_asc_forward(&AscForwardObs {
                                cycle: now,
                                load_seq: seq,
                                store_seq,
                                deferred_store: self.deferred_store,
                                s_bit,
                            });
                        }
                        let taint = base_taint | qp_taint | tainted | s_bit;
                        let ready_at = now + 1;
                        self.srf_dest(inst, SrfVal::Valid { value, ready_at, tainted: taint });
                        self.record_execution(seq, RsResult::Value(value), ready_at, s_bit, taint);
                    }
                    AscLookup::Hit(AscData::Invalid) => self.defer_dest(inst),
                    lookup => {
                        let s_bit = self.deferred_store.is_some()
                            || lookup == AscLookup::MissAfterReplacement;
                        let taint = base_taint | qp_taint | s_bit;
                        let value = self.base.state.mem.load(addr);
                        match self.base.mem.access(addr, AccessKind::SpeculativeRead, now) {
                            MemAccess::Done { complete_at, level } => {
                                self.probe_mem_access(complete_at, level);
                                // §3.5 WAW policy: missing loads skip the
                                // SRF; note when the RS deposit lands.
                                let srf = if level.is_miss() && self.cfg.waw_skip_srf {
                                    SrfVal::Pending { arrives_at: complete_at }
                                } else {
                                    SrfVal::Valid { value, ready_at: complete_at, tainted: taint }
                                };
                                self.srf_dest(inst, srf);
                                let result = RsResult::Value(value);
                                self.record_execution(seq, result, complete_at, s_bit, taint);
                            }
                            MemAccess::Retry => self.defer_dest(inst),
                        }
                    }
                }
            }
            Op::Store => {
                let Some((base, base_taint)) = self.adv_read(inst.src_n(0).expect("store base"))?
                else {
                    self.defer_store(seq);
                    return Ok(Slot::Next);
                };
                let data = self.adv_read(inst.src_n(1).expect("store data"))?;
                if self.smaq_full(&ent) {
                    self.defer_store(seq);
                    return Ok(Slot::Next);
                }
                self.claim_fu(inst)?;
                let addr = effective_address(base, inst.imm_val());
                self.set_smaq(seq, addr);
                self.base.activity.asc_accesses += 1;
                match data {
                    Some((data, data_taint)) => {
                        let taint = base_taint | data_taint | qp_taint;
                        self.asc.insert(addr, AscData::Valid { value: data, tainted: taint, seq });
                        self.record_execution(
                            seq,
                            RsResult::Store { addr, data },
                            now,
                            false,
                            taint,
                        );
                    }
                    // Known address, unknown data: poison the location for
                    // this pass.
                    None => self.asc.insert(addr, AscData::Invalid),
                }
            }
            op => {
                // ALU / compare / FP; an absent source reads as zero.
                let mut src = |i| inst.src_n(i).map_or(Ok(Some((0, false))), |r| self.adv_read(r));
                let (a, b) = (src(0)?, src(1)?);
                let (Some((a, a_taint)), Some((b, b_taint))) = (a, b) else {
                    self.defer_dest(inst);
                    return Ok(Slot::Next);
                };
                self.claim_fu(inst)?;
                let value = alu(op, a, b, inst.imm_val());
                let taint = a_taint | b_taint | qp_taint;
                let ready_at = now + op.latency() as u64;
                self.srf_dest(inst, SrfVal::Valid { value, ready_at, tainted: taint });
                self.record_execution(seq, RsResult::Value(value), ready_at, false, taint);
            }
        }
        Ok(Slot::Next)
    }

    /// A `RESTART` with a true predicate (§3.3). Under the compiler
    /// strategy, an unready operand restarts the pass at the trigger.
    fn advance_restart(&mut self, inst: &Inst) -> Result<Slot, Stop> {
        if self.cfg.restart != RestartStrategy::Compiler {
            return Ok(Slot::Next);
        }
        // Classify the operand's unavailability: a known in-flight arrival
        // lets the restarted pass be timed to meet its input (footnote 2);
        // a fully deferred operand only justifies a restart if this pass
        // produced new results.
        let src = inst.src_n(0).expect("RESTART consumes a register");
        let now = self.base.now;
        let arrival = match self.srf.probe(src) {
            Some(SrfVal::Pending { arrives_at }) => Some(arrives_at),
            Some(SrfVal::Invalid) => None,
            // Operand present (maybe not ready yet): no restart needed.
            Some(SrfVal::Valid { .. }) => return Ok(Slot::Next),
            None => match self.base.sb.pending_kind(src, now) {
                PendingKind::Load => Some(self.base.sb.ready_cycle(src)),
                PendingKind::Exec => None,
                // Architecturally ready: no effect.
                PendingKind::None => return Ok(Slot::Next),
            },
        };
        match arrival {
            Some(t) => {
                // §3.3: restart at the trigger, timed so the pass meets the
                // arriving value.
                self.restart_pass();
                self.advance_wait_until = t.max(now);
                Err(Stop)
            }
            None if self.pass_progress => {
                self.restart_pass();
                Err(Stop)
            }
            None => Ok(Slot::Next), // futile: continue the pass
        }
    }

    /// Writes `v` to the SRF slot of `inst`'s destination, if it has one.
    #[inline]
    fn srf_dest(&mut self, inst: &Inst, v: SrfVal) {
        if let Some(d) = inst.writes() {
            self.srf.write(d, v);
        }
    }

    /// Sets the I-bit of `inst`'s destination: the instruction is deferred
    /// this pass, and so are its consumers.
    #[inline]
    fn defer_dest(&mut self, inst: &Inst) {
        self.srf_dest(inst, SrfVal::Invalid);
    }

    /// Notes a store deferred this pass: later loads are data speculative
    /// (§3.6).
    #[inline]
    fn defer_store(&mut self, seq: u64) {
        self.deferred_store = Some(self.deferred_store.map_or(seq, |d| d.max(seq)));
    }

    /// Whether a memory instruction without a SMAQ entry must defer
    /// because the SMAQ is full.
    #[inline]
    fn smaq_full(&self, ent: &MpEntry) -> bool {
        self.smaq_count >= self.cfg.smaq_entries && ent.smaq_addr.is_none()
    }

    /// Claims `inst`'s functional unit; a busy unit stalls advance issue.
    #[inline]
    fn claim_fu(&mut self, inst: &Inst) -> Result<(), Stop> {
        if self.base.fu.try_issue(inst, self.base.now) {
            Ok(())
        } else {
            Err(Stop)
        }
    }

    /// Preserves `result` in `seq`'s result store entry, setting its E-bit.
    #[inline]
    fn preserve(&mut self, seq: u64, result: RsResult, ready_at: u64, s_bit: bool, tainted: bool) {
        let e = self.entries.get_mut(seq);
        e.e_bit = true;
        e.result = Some(result);
        e.rs_ready_at = ready_at;
        e.s_bit = s_bit;
        e.tainted = tainted;
        self.base.activity.rs_writes += 1;
    }

    /// Preserves a new advance execution's result and counts the slot as
    /// useful work.
    #[inline]
    fn record_execution(
        &mut self,
        seq: u64,
        result: RsResult,
        ready_at: u64,
        s_bit: bool,
        tainted: bool,
    ) {
        self.preserve(seq, result, ready_at, s_bit, tainted);
        self.base.stats.executions += 1;
        self.pass_progress = true;
        self.slot_executed = true;
    }

    fn advance_step(&mut self, slots: &mut u32, prev_ended_group: &mut bool, ends_group: bool) {
        self.peek += 1;
        self.peek_high = self.peek_high.max(self.peek);
        *slots += 1;
        *prev_ended_group = ends_group;
        if self.slot_executed {
            self.consec_deferrals = 0;
        } else {
            self.consec_deferrals += 1;
            // Footnote 1: a hardware detector restarts the pass once "the
            // vast majority of subsequent preexecution" is being deferred.
            if let RestartStrategy::Hardware { consecutive_deferrals } = self.cfg.restart {
                if self.consec_deferrals >= consecutive_deferrals && self.pass_progress {
                    self.restart_pass();
                    *prev_ended_group = false;
                }
            }
        }
        self.slot_executed = false;
    }

    // ------------------------------------------------------ event-driven

    /// Event-driven quiescence fast-forward, called at the bottom of the
    /// per-cycle loop. Skips ahead over a stretch of cycles the polled
    /// loop would provably spend idle: the fetch unit must be quiescent,
    /// no mode transition may be pending, and the issue stage must be
    /// blocked on a known-latency event. Every skipped cycle is charged
    /// to the same stall category the polled loop would have charged, and
    /// — when a probe is attached — still publishes its per-cycle
    /// snapshot, so stats, artifacts, and observation streams are
    /// bit-for-bit identical in both tick modes.
    fn fast_forward(&mut self, cycle_cap: u64) {
        if self.base.halted || self.base.now >= cycle_cap {
            return;
        }
        // Pending mode transitions must be taken by the polled path so
        // the mode trace and per-mode cycle counts stay exact.
        if self.mode == RetireMode::Advance && self.head_issueable() {
            return;
        }
        if self.mode == RetireMode::Rally && self.base.fetch.head_seq() >= self.peek_high {
            return;
        }
        // Fetch must be idle for the whole window; `skip_until` bounds it
        // by fetch's next wake.
        if self.base.fetch.quiescent_until(self.base.now).is_none() {
            return;
        }
        // The third tuple element is issue-select visits per skipped
        // cycle: only a live architectural/rally head stalled on an operand
        // or an FP unit re-examines the head every polled cycle; every
        // other skippable window never enters an issue loop (stall penalty,
        // timed advance wait, dead PEEK) or fails the issue gate (drained
        // or not-yet-fetched head).
        let (target, kind, visits) = if self.base.now < self.stall_until {
            // Value-misspeculation flush penalty: pure wait.
            (self.stall_until, StallKind::Other, 0)
        } else {
            match self.mode {
                RetireMode::Advance => {
                    // Advance issue idles until the head wakes (rally
                    // entry) or the pass has work: a restarted pass timed
                    // to meet an arrival waits for it; a PEEK that ran past
                    // fetch waits for fetch, which bounds the window via
                    // `skip_until`; a live PEEK entry would work now.
                    let pass_wake = if self.base.now < self.advance_wait_until {
                        self.advance_wait_until
                    } else {
                        match self.base.fetch.get(self.peek) {
                            None => u64::MAX,
                            Some(fe) if fe.fetched_at > self.base.now => fe.fetched_at,
                            Some(_) => return,
                        }
                    };
                    (self.head_wake().min(pass_wake), StallKind::Load, 0)
                }
                RetireMode::Architectural | RetireMode::Rally => {
                    // An E-bit head merges, or stalls on a preserved result
                    // in flight, which enters advance mode this very cycle.
                    if self.entries.get(self.base.fetch.head_seq()).e_bit {
                        return;
                    }
                    // Otherwise the baseline's analysis, where a load stall
                    // enters advance mode the same cycle: not skippable.
                    match self.base.stalled_head(false) {
                        Some(window) => window,
                        None => return,
                    }
                }
            }
        };
        let Some(wake) = self.base.skip_until(target, cycle_cap) else {
            return;
        };
        if self.probe_enabled {
            // Probes observe every cycle, skipped or not: emit the same
            // per-cycle snapshots the polled loop would have.
            while self.base.now < wake {
                self.probe_cycle();
                self.base.stats.breakdown.charge(kind);
                self.base.activity.select_visits += visits;
                self.charge_mode_cycles(1);
                self.base.now += 1;
            }
        } else {
            let skipped = self.base.skip_to(wake, kind, visits);
            self.charge_mode_cycles(skipped);
        }
    }

    /// Charges `n` cycles to the current mode's cycle count.
    #[inline]
    fn charge_mode_cycles(&mut self, n: u64) {
        match self.mode {
            RetireMode::Advance => self.base.stats.spec_mode_cycles += n,
            RetireMode::Rally => self.base.stats.rally_cycles += n,
            RetireMode::Architectural => {}
        }
    }

    // ----------------------------------------------------------------- run

    fn run(mut self, case: &SimCase<'_>) -> Result<RunResult, RunError> {
        let cycle_cap = case.cycle_cap(self.cfg.machine.max_cycles);
        while !self.base.halted {
            let fetched = self.base.begin_cycle(case, cycle_cap)?;
            if self.probe_enabled {
                for seq in fetched {
                    self.probe.on_fetch(seq, self.base.now);
                }
            }

            // Advance → rally as soon as the trigger's operand arrives.
            if self.mode == RetireMode::Advance && self.head_issueable() {
                self.enter_rally();
            }
            // Rally → architectural when DEQ catches the PEEK high-water
            // mark: nothing deferred remains in flight.
            if self.mode == RetireMode::Rally && self.base.fetch.head_seq() >= self.peek_high {
                self.set_mode(RetireMode::Architectural);
            }

            self.probe_cycle();

            if self.base.now < self.stall_until {
                // Value-misspeculation flush penalty.
                self.base.stats.breakdown.charge(StallKind::Other);
            } else if self.mode == RetireMode::Advance {
                // A pass restarted and timed to meet an arrival waits.
                let executed = self.base.now >= self.advance_wait_until && self.issue_advance();
                // §5.1: advance cycles with no new executions are charged
                // to the latency that initiated advance mode.
                let kind = if executed { StallKind::Execution } else { StallKind::Load };
                self.base.stats.breakdown.charge(kind);
            } else {
                let (issued, stall) = self.issue_architectural();
                self.base.charge_issue(issued, stall);
                // Enter advance mode on a load-use stall.
                if issued == 0 && stall == Some(StallKind::Load) && !self.base.halted {
                    self.enter_advance(self.base.fetch.head_seq());
                }
            }

            self.charge_mode_cycles(1);
            self.base.now += 1;
            if self.tick == TickMode::EventDriven {
                self.fast_forward(cycle_cap);
            }
        }

        self.base.activity.iq_writes = self.base.fetch.fetched();
        self.base.activity.srf_reads = self.srf.read_count();
        self.base.activity.srf_writes = self.srf.write_count();
        self.base.activity.alloc_count += 1; // the entry ring's single allocation
        Ok(self.base.finish())
    }
}

impl ExecutionModel for Multipass {
    fn name(&self) -> &'static str {
        if !self.config.enable_regrouping {
            "MP-noregroup"
        } else {
            match self.config.restart {
                RestartStrategy::Compiler => "MP",
                RestartStrategy::Hardware { .. } => "MP-hwrestart",
                RestartStrategy::Disabled => "MP-norestart",
            }
        }
    }

    fn set_tick_mode(&mut self, mode: TickMode) {
        self.tick = mode;
    }

    fn run_observed(
        &mut self,
        case: &SimCase<'_>,
        probe: &mut dyn PipelineProbe,
    ) -> Result<RunResult, RunError> {
        let mut core = Core::new(self.config, case, probe);
        core.tick = self.tick;
        let result = core.run(case)?;
        probe.on_run_end(&result);
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_isa::interp::Interpreter;
    use ff_isa::{ArchState, Inst, MemoryImage, Program};

    fn check_vs_interpreter(p: &Program, mem: &MemoryImage) -> RunResult {
        let case = SimCase::new(p, mem.clone());
        let r = Multipass::new(MachineConfig::default()).try_run(&case).unwrap();
        let mut s = ArchState::new();
        s.mem = mem.clone();
        let mut i = Interpreter::with_state(p, s);
        i.run(50_000_000).unwrap();
        assert!(
            r.final_state.semantically_eq(i.state()),
            "multipass final state diverges from interpreter"
        );
        assert_eq!(r.stats.retired, i.retired());
        r
    }

    /// The Figure 1 workload: a pointer chase with dependent loads behind
    /// the stall point and an independent miss stream.
    fn figure1_workload(nodes: u64) -> (Program, MemoryImage) {
        let mut p = Program::new();
        let b0 = p.add_block();
        let b1 = p.add_block();
        let b2 = p.add_block();
        p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(1)).imm(0x10_0000).stop());
        p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(5)).imm(0x400_0000).stop());
        // loop:
        //   r1 = load [r1]         (chase, long miss)
        //   restart r1             (compiler-inserted critical marker)
        //   r4 = r1 + 0            (stall-on-use)
        //   r2 = load [r5]         (independent stream miss)
        //   r6 = load [r1 + 8]     (dependent payload load)
        //   r3 = r3 + r2 ; r5 += 4096
        //   p1 = (r4 != 0) ; br loop
        p.push(b1, Inst::new(Op::Load).dst(Reg::int(1)).src(Reg::int(1)).region(0).stop());
        p.push(b1, Inst::new(Op::Restart).src(Reg::int(1)).stop());
        p.push(b1, Inst::new(Op::Add).dst(Reg::int(4)).src(Reg::int(1)).src(Reg::int(0)).stop());
        p.push(b1, Inst::new(Op::Load).dst(Reg::int(2)).src(Reg::int(5)).region(1));
        p.push(b1, Inst::new(Op::Load).dst(Reg::int(6)).src(Reg::int(1)).imm(8).region(0).stop());
        p.push(b1, Inst::new(Op::Add).dst(Reg::int(3)).src(Reg::int(3)).src(Reg::int(2)));
        p.push(b1, Inst::new(Op::AddImm).dst(Reg::int(5)).src(Reg::int(5)).imm(4096).stop());
        p.push(b1, Inst::new(Op::CmpNe).dst(Reg::pred(1)).src(Reg::int(4)).src(Reg::int(0)).stop());
        p.push(b1, Inst::new(Op::Br { target: b1 }).qp(Reg::pred(1)).stop());
        p.push(b2, Inst::new(Op::Halt).stop());
        let mut mem = MemoryImage::new();
        let stride = 128 * 1024;
        for i in 0..nodes {
            let a = 0x10_0000 + i * stride;
            let next = if i + 1 == nodes { 0 } else { 0x10_0000 + (i + 1) * stride };
            mem.store(a, next);
            mem.store(a + 8, i * 10);
        }
        for i in 0..nodes {
            mem.store(0x400_0000 + i * 4096, i);
        }
        (p, mem)
    }

    #[test]
    fn cycle_budget_watchdog_aborts_multipass_runs() {
        let (p, mem) = figure1_workload(64);
        let case = SimCase::new(&p, mem).with_cycle_budget(20);
        let err = Multipass::new(MachineConfig::default()).try_run(&case).unwrap_err();
        assert!(matches!(err, RunError::CycleBudgetExceeded { limit: 20, .. }), "{err}");
    }

    #[test]
    fn simple_programs_match_interpreter() {
        let mut p = Program::new();
        let b = p.add_block();
        p.push(b, Inst::new(Op::MovImm).dst(Reg::int(1)).imm(21).stop());
        p.push(b, Inst::new(Op::Add).dst(Reg::int(2)).src(Reg::int(1)).src(Reg::int(1)).stop());
        p.push(b, Inst::new(Op::Halt).stop());
        let r = check_vs_interpreter(&p, &MemoryImage::new());
        assert_eq!(r.final_state.int(2), 42);
    }

    #[test]
    fn figure1_workload_matches_interpreter() {
        let (p, mem) = figure1_workload(24);
        let r = check_vs_interpreter(&p, &mem);
        assert!(r.stats.spec_mode_entries > 0, "advance mode never entered");
        assert!(r.stats.rs_reuses > 0, "no result-store reuse happened");
    }

    #[test]
    fn multipass_beats_inorder_and_runahead_on_figure1() {
        use ff_baselines::{InOrder, Runahead};
        let (p, mem) = figure1_workload(64);
        let case = SimCase::new(&p, mem);
        let base = InOrder::new(MachineConfig::default()).try_run(&case).unwrap();
        let ra = Runahead::new(MachineConfig::default()).try_run(&case).unwrap();
        let mp = Multipass::new(MachineConfig::default()).try_run(&case).unwrap();
        assert!(
            mp.stats.cycles < base.stats.cycles,
            "MP {} !< inorder {}",
            mp.stats.cycles,
            base.stats.cycles
        );
        assert!(
            mp.stats.cycles <= ra.stats.cycles,
            "MP {} should not trail runahead {} (persistence + restart)",
            mp.stats.cycles,
            ra.stats.cycles
        );
    }

    #[test]
    fn advance_restart_fires_on_critical_loads() {
        let (p, mem) = figure1_workload(48);
        let case = SimCase::new(&p, mem);
        let mp = Multipass::new(MachineConfig::default()).try_run(&case).unwrap();
        assert!(mp.stats.advance_restarts > 0, "RESTART never triggered a pass restart");
    }

    #[test]
    fn hardware_restart_fires_without_compiler_markers() {
        // A chase whose consumers form a long dependent chain: during an
        // advance pass almost every slot defers, so the footnote 1 hardware
        // detector should restart the pass — no RESTART markers present.
        let mut p = Program::new();
        let b0 = p.add_block();
        let b1 = p.add_block();
        let b2 = p.add_block();
        p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(1)).imm(0x10_0000).stop());
        // Independent induction work first (gives the pass "progress").
        p.push(b1, Inst::new(Op::AddImm).dst(Reg::int(20)).src(Reg::int(20)).imm(1).stop());
        p.push(b1, Inst::new(Op::Load).dst(Reg::int(1)).src(Reg::int(1)).region(0).stop());
        // Long dependent chain off the chase.
        for i in 0..6u8 {
            let src = if i == 0 { 1 } else { 9 + i };
            p.push(
                b1,
                Inst::new(Op::Add)
                    .dst(Reg::int(10 + i))
                    .src(Reg::int(src))
                    .src(Reg::int(20))
                    .stop(),
            );
        }
        p.push(b1, Inst::new(Op::CmpNe).dst(Reg::pred(1)).src(Reg::int(1)).src(Reg::int(0)).stop());
        p.push(b1, Inst::new(Op::Br { target: b1 }).qp(Reg::pred(1)).stop());
        p.push(b2, Inst::new(Op::Halt).stop());
        let mut mem = MemoryImage::new();
        let stride = 128 * 1024;
        for i in 0..32u64 {
            let a = 0x10_0000 + i * stride;
            let next = if i + 1 == 32 { 0 } else { 0x10_0000 + (i + 1) * stride };
            mem.store(a, next);
        }
        let case = SimCase::new(&p, mem);
        let cfg = MultipassConfig::with_hardware_restart(MachineConfig::default(), 6);
        let mut model = Multipass::with_config(cfg);
        assert_eq!(model.name(), "MP-hwrestart");
        let r = model.try_run(&case).unwrap();
        assert!(r.stats.advance_restarts > 0, "hardware detector never fired");
        // Still architecturally correct.
        let full = Multipass::new(MachineConfig::default()).try_run(&case).unwrap();
        assert!(r.final_state.semantically_eq(&full.final_state));
    }

    #[test]
    fn restart_ablation_disables_restarts() {
        let (p, mem) = figure1_workload(48);
        let case = SimCase::new(&p, mem);
        let cfg = MultipassConfig::without_restart(MachineConfig::default());
        let mp = Multipass::with_config(cfg).try_run(&case).unwrap();
        assert_eq!(mp.stats.advance_restarts, 0);
        assert!(mp.final_state.int(1) == 0, "program still runs correctly");
    }

    #[test]
    fn regrouping_ablation_still_correct_and_not_faster() {
        let (p, mem) = figure1_workload(48);
        let case = SimCase::new(&p, mem.clone());
        let full = Multipass::new(MachineConfig::default()).try_run(&case).unwrap();
        let cfg = MultipassConfig::without_regrouping(MachineConfig::default());
        let ablated = Multipass::with_config(cfg).try_run(&case).unwrap();
        assert!(ablated.final_state.semantically_eq(&full.final_state));
        assert!(
            ablated.stats.cycles >= full.stats.cycles,
            "removing regrouping should not speed things up"
        );
    }

    #[test]
    fn store_load_forwarding_through_asc() {
        // An advance store followed by an advance load of the same word:
        // the load must see the store's value via the ASC, and the final
        // state must be correct.
        let mut p = Program::new();
        let b0 = p.add_block();
        let b1 = p.add_block();
        p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(1)).imm(0x20_0000).stop());
        p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(7)).imm(0x5000).stop());
        // Long-miss load to open an advance window.
        p.push(b0, Inst::new(Op::Load).dst(Reg::int(2)).src(Reg::int(1)).region(0).stop());
        p.push(b0, Inst::new(Op::Add).dst(Reg::int(3)).src(Reg::int(2)).src(Reg::int(0)).stop());
        // Behind the stall: store then load the same location.
        p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(4)).imm(99).stop());
        p.push(b0, Inst::new(Op::Store).src(Reg::int(7)).src(Reg::int(4)).region(1).stop());
        p.push(b0, Inst::new(Op::Load).dst(Reg::int(5)).src(Reg::int(7)).region(1).stop());
        p.push(b0, Inst::new(Op::Add).dst(Reg::int(6)).src(Reg::int(5)).src(Reg::int(5)).stop());
        p.push(b0, Inst::new(Op::Br { target: b1 }).stop());
        p.push(b1, Inst::new(Op::Halt).stop());
        let mut mem = MemoryImage::new();
        mem.store(0x20_0000, 5);
        let r = check_vs_interpreter(&p, &mem);
        assert_eq!(r.final_state.int(5), 99);
        assert_eq!(r.final_state.int(6), 198);
        assert_eq!(r.final_state.mem.load(0x5000), 99);
    }

    #[test]
    fn mode_probe_records_transitions() {
        struct Modes(Vec<(u64, RetireMode)>);
        impl PipelineProbe for Modes {
            fn on_mode(&mut self, cycle: u64, mode: RetireMode) {
                self.0.push((cycle, mode));
            }
        }
        let (p, mem) = figure1_workload(24);
        let case = SimCase::new(&p, mem);
        let mut modes = Modes(Vec::new());
        let r = Multipass::new(MachineConfig::default()).run_observed(&case, &mut modes).unwrap();
        let trace = modes.0;
        assert!(!trace.is_empty(), "no transitions recorded");
        // Cycles are non-decreasing, and advance/rally both appear.
        assert!(trace.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(trace.iter().any(|(_, m)| *m == RetireMode::Advance));
        assert!(trace.iter().any(|(_, m)| *m == RetireMode::Rally));
        // Observing must not perturb timing.
        let plain = Multipass::new(MachineConfig::default()).try_run(&case).unwrap();
        assert_eq!(plain.stats.cycles, r.stats.cycles);
    }

    /// A retirement-only probe gets the retirement stream and the run's
    /// end, and none of the per-cycle observations a pipeline probe gets.
    #[test]
    fn retirement_probe_sees_only_retirements() {
        struct Counts {
            level: Observes,
            retires: u64,
            ends: u64,
            others: u64,
            cycles: u64,
            fetches: u64,
        }
        impl PipelineProbe for Counts {
            fn observes(&self) -> Observes {
                self.level
            }
            fn on_fetch(&mut self, _: u64, _: u64) {
                self.fetches += 1;
            }
            fn on_issue(&mut self, _: u64, _: u64) {
                self.others += 1;
            }
            fn on_writeback(&mut self, _: u64, _: Reg, _: u64) {
                self.others += 1;
            }
            fn on_retire(&mut self, _: &RetireEvent) {
                self.retires += 1;
            }
            fn on_mode(&mut self, _: u64, _: RetireMode) {
                self.others += 1;
            }
            fn on_cycle(&mut self, _: &CycleObs) {
                self.cycles += 1;
            }
            fn on_mem_access(&mut self, _: &MemAccessObs) {
                self.others += 1;
            }
            fn on_asc_forward(&mut self, _: &AscForwardObs) {
                self.others += 1;
            }
            fn on_run_end(&mut self, _: &RunResult) {
                self.ends += 1;
            }
        }
        let (p, mem) = figure1_workload(24);
        let case = SimCase::new(&p, mem);
        let observe = |level| {
            let mut counts =
                Counts { level, retires: 0, ends: 0, others: 0, cycles: 0, fetches: 0 };
            let r = Multipass::new(MachineConfig::default()).run_observed(&case, &mut counts);
            (r.unwrap(), counts)
        };
        let (r, retire) = observe(Observes::Retirements);
        assert!(r.stats.spec_mode_entries > 0, "the kernel must enter advance mode");
        assert_eq!((retire.retires, retire.ends), (r.stats.retired, 1));
        assert_eq!((retire.cycles, retire.fetches, retire.others), (0, 0, 0));
        let (_, full) = observe(Observes::Pipeline);
        assert_eq!((full.retires, full.ends, full.cycles), (r.stats.retired, 1, r.stats.cycles));
        assert!(full.fetches > 0 && full.others > 0);
    }

    /// §3.6 value-based consistency: a store deferred during advance mode
    /// makes a later advance load data speculative; when rally performs the
    /// store and re-runs the load, the mismatch must flush and re-execute.
    #[test]
    fn s_bit_value_misspeculation_flushes_and_recovers() {
        let mut p = Program::new();
        let b0 = p.add_block();
        let b1 = p.add_block();
        // r1 -> long-miss load (opens the advance window) whose VALUE is
        // the store data, so the store's data operand is deferred in
        // advance mode -> ASC poisons nothing (address known, data unknown
        // would poison; here make the ADDRESS depend on the load so the
        // store itself defers -> deferred_store -> later loads S-bit).
        p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(1)).imm(0x10_0000).stop());
        p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(7)).imm(0x5000).stop());
        p.push(b0, Inst::new(Op::Load).dst(Reg::int(2)).src(Reg::int(1)).region(0).stop());
        // Store whose address depends on the missing load: deferred.
        p.push(b0, Inst::new(Op::And).dst(Reg::int(8)).src(Reg::int(2)).src(Reg::int(0)).stop());
        p.push(b0, Inst::new(Op::Add).dst(Reg::int(9)).src(Reg::int(8)).src(Reg::int(7)).stop());
        p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(10)).imm(99).stop());
        p.push(b0, Inst::new(Op::Store).src(Reg::int(9)).src(Reg::int(10)).stop());
        // Advance load of the same location: data speculative, reads the
        // stale value (0), then rally's store writes 99 -> mismatch.
        p.push(b0, Inst::new(Op::Load).dst(Reg::int(11)).src(Reg::int(7)).stop());
        p.push(b0, Inst::new(Op::Add).dst(Reg::int(12)).src(Reg::int(11)).src(Reg::int(11)).stop());
        p.push(b0, Inst::new(Op::Br { target: b1 }).stop());
        p.push(b1, Inst::new(Op::Halt).stop());
        let mut mem = MemoryImage::new();
        mem.store(0x10_0000, 5);
        let case = SimCase::new(&p, mem);
        let r = Multipass::new(MachineConfig::default()).try_run(&case).unwrap();
        assert!(r.stats.value_flushes > 0, "expected a value-misspeculation flush");
        // Architectural correctness after the flush.
        assert_eq!(r.final_state.int(11), 99, "S-bit load must re-execute");
        assert_eq!(r.final_state.int(12), 198);
        assert_eq!(r.final_state.mem.load(0x5000), 99);
    }

    #[test]
    fn alternative_waw_policy_is_correct() {
        // Correctness must hold under both §3.5 policies. Interestingly the
        // "more complexity" write-through alternative is often *slower*:
        // consumers of an in-flight miss then wait in the in-order advance
        // pipe (NotYet) instead of being deferred past, which blocks the
        // pass — the paper's simple skip-SRF choice is also the fast one.
        // (See the `ablation_structures` bench for numbers.)
        let (p, mem) = figure1_workload(48);
        let case = SimCase::new(&p, mem);
        let paper = Multipass::new(MachineConfig::default()).try_run(&case).unwrap();
        let alt = Multipass::with_config(MultipassConfig::with_ideal_waw(MachineConfig::default()))
            .try_run(&case)
            .unwrap();
        assert!(alt.final_state.semantically_eq(&paper.final_state));
        assert_eq!(alt.stats.retired, paper.stats.retired);
    }

    #[test]
    fn smaq_exhaustion_defers_but_stays_correct() {
        // With a 4-entry SMAQ, most advance memory instructions must defer,
        // yet architectural results are unchanged and the model still
        // beats nothing incorrectly.
        let (p, mem) = figure1_workload(32);
        let case = SimCase::new(&p, mem);
        let mut tiny = MultipassConfig::new(MachineConfig::default());
        tiny.smaq_entries = 4;
        let small = Multipass::with_config(tiny).try_run(&case).unwrap();
        let full = Multipass::new(MachineConfig::default()).try_run(&case).unwrap();
        assert!(small.final_state.semantically_eq(&full.final_state));
        assert!(
            small.stats.cycles >= full.stats.cycles,
            "a tiny SMAQ cannot be faster: {} < {}",
            small.stats.cycles,
            full.stats.cycles
        );
        assert!(small.activity.smaq_accesses <= full.activity.smaq_accesses);
    }

    #[test]
    fn tainted_branches_never_redirect_fetch() {
        // A branch whose predicate derives from a data-speculative load
        // must not retrain the predictor or redirect fetch from advance
        // mode; correctness is guaranteed by the rally-time S-bit check.
        // Construct: deferred store poisons later loads (S-bit), and the
        // branch predicate comes from such a load.
        let mut p = Program::new();
        let b0 = p.add_block();
        let b1 = p.add_block();
        let b2 = p.add_block();
        p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(1)).imm(0x10_0000).stop());
        p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(7)).imm(0x6000).stop());
        // Long miss opens the window; store address depends on it.
        p.push(b0, Inst::new(Op::Load).dst(Reg::int(2)).src(Reg::int(1)).stop());
        p.push(b0, Inst::new(Op::And).dst(Reg::int(8)).src(Reg::int(2)).src(Reg::int(0)).stop());
        p.push(b0, Inst::new(Op::Add).dst(Reg::int(9)).src(Reg::int(8)).src(Reg::int(7)).stop());
        p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(10)).imm(1).stop());
        p.push(b0, Inst::new(Op::Store).src(Reg::int(9)).src(Reg::int(10)).stop());
        // S-bit load feeds the branch predicate.
        p.push(b0, Inst::new(Op::Load).dst(Reg::int(11)).src(Reg::int(7)).stop());
        p.push(
            b0,
            Inst::new(Op::CmpNe).dst(Reg::pred(2)).src(Reg::int(11)).src(Reg::int(0)).stop(),
        );
        p.push(b0, Inst::new(Op::Br { target: b2 }).qp(Reg::pred(2)).stop());
        p.push(b1, Inst::new(Op::AddImm).dst(Reg::int(3)).src(Reg::int(3)).imm(7).stop());
        p.push(b2, Inst::new(Op::Halt).stop());
        let mut mem = MemoryImage::new();
        mem.store(0x10_0000, 42);
        let case = SimCase::new(&p, mem);
        let r = Multipass::new(MachineConfig::default()).try_run(&case).unwrap();
        // The stale value at 0x6000 is 0 (branch not taken speculatively);
        // the real value is 1 (taken). Correctness: the then-block was
        // skipped architecturally.
        assert_eq!(r.final_state.int(3), 0, "branch must be taken after verification");
        assert_eq!(r.final_state.mem.load(0x6000), 1);
    }

    #[test]
    fn modes_are_tracked() {
        let (p, mem) = figure1_workload(32);
        let case = SimCase::new(&p, mem);
        let mp = Multipass::new(MachineConfig::default()).try_run(&case).unwrap();
        assert!(mp.stats.spec_mode_cycles > 0);
        assert!(mp.stats.rally_cycles > 0);
        assert_eq!(mp.stats.breakdown.total(), mp.stats.cycles);
    }

    #[test]
    fn multipass_reduces_load_stalls_vs_inorder() {
        use ff_baselines::InOrder;
        let (p, mem) = figure1_workload(64);
        let case = SimCase::new(&p, mem);
        let base = InOrder::new(MachineConfig::default()).try_run(&case).unwrap();
        let mp = Multipass::new(MachineConfig::default()).try_run(&case).unwrap();
        assert!(
            mp.stats.breakdown.load < base.stats.breakdown.load,
            "MP load stalls {} !< base {}",
            mp.stats.breakdown.load,
            base.stats.breakdown.load
        );
    }

    #[test]
    fn activity_counters_populated() {
        let (p, mem) = figure1_workload(24);
        let case = SimCase::new(&p, mem);
        let mp = Multipass::new(MachineConfig::default()).try_run(&case).unwrap();
        assert!(mp.activity.iq_writes > 0);
        assert!(mp.activity.rs_writes > 0);
        assert!(mp.activity.rs_reads > 0);
        assert!(mp.activity.srf_writes > 0);
        assert!(mp.activity.smaq_accesses > 0);
    }
}
