//! Multipass-specific configuration and ablation switches.

use ff_engine::MachineConfig;

/// How advance-execution restart (paper §3.3) is triggered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RestartStrategy {
    /// Compiler-inserted `RESTART` markers after critical-SCC loads — the
    /// mechanism used for the paper's results.
    Compiler,
    /// Hardware detection (the paper's footnote 1: "a hardware mechanism
    /// could also have been used"): restart once this many *consecutive*
    /// advance slots were deferred, i.e. "the vast majority of subsequent
    /// preexecution" is being wasted.
    Hardware {
        /// Consecutive deferred slots that trigger a restart.
        consecutive_deferrals: u32,
    },
    /// No advance restart (the Figure 8 ablation).
    Disabled,
}

/// The injectable fault classes. Each corrupts the `N`-th occurrence of
/// one event when armed through [`MultipassConfig::fault`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultClass {
    /// The `N`-th result-store merge of a preserved value (counted by
    /// `rs_reuses`) XORs the merged value with 1 — silent architectural
    /// register corruption.
    RegisterBitFlip,
    /// The `N`-th architectural load wakeup is dropped: its destination
    /// register stays pending essentially forever, wedging every
    /// consumer. Models a lost fill notification.
    DroppedWakeup,
    /// The `N`-th data read's completion is warped far past any legal
    /// hierarchy latency (see `ff_mem::MemorySystem::inject_warp_latency`).
    WarpedCacheLatency,
    /// The `N`-th MSHR allocation is never deallocated (see
    /// `ff_mem::MshrFile::inject_lost_dealloc`).
    LostMshrDealloc,
    /// The `N`-th advance-store-cache forward whose data-speculation (S)
    /// bit should be set forwards the value *without* it — the
    /// stale-forwarding bug class where rally merges an unverified value.
    StaleAscForward,
    /// The `N`-th execution-op wakeup insertion (counted over
    /// architectural multi-cycle result writebacks) is dropped: the
    /// destination register never transitions back to ready, modeling a
    /// lost insertion into a wakeup-driven ready set.
    DroppedReadyInsert,
}

impl FaultClass {
    /// All six classes.
    pub const ALL: [FaultClass; 6] = [
        FaultClass::RegisterBitFlip,
        FaultClass::DroppedWakeup,
        FaultClass::WarpedCacheLatency,
        FaultClass::LostMshrDealloc,
        FaultClass::StaleAscForward,
        FaultClass::DroppedReadyInsert,
    ];

    /// Stable short name (used by the CLI and CI).
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::RegisterBitFlip => "reg-flip",
            FaultClass::DroppedWakeup => "dropped-wakeup",
            FaultClass::WarpedCacheLatency => "warp-latency",
            FaultClass::LostMshrDealloc => "lost-mshr",
            FaultClass::StaleAscForward => "stale-asc",
            FaultClass::DroppedReadyInsert => "dropped-ready-insert",
        }
    }

    /// Parses a fault-class name.
    pub fn parse(s: &str) -> Option<FaultClass> {
        FaultClass::ALL.into_iter().find(|c| c.name() == s)
    }
}

/// Configuration of the multipass pipeline, wrapping the base
/// [`MachineConfig`] with the structures of the paper's §3/§4 and the two
/// ablation switches evaluated in Figure 8.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MultipassConfig {
    /// Base machine parameters (Table 2).
    pub machine: MachineConfig,
    /// Advance-store-cache capacity in entries (Table 1: 64).
    pub asc_entries: usize,
    /// Advance-store-cache associativity (Table 1: 2-way).
    pub asc_assoc: usize,
    /// Speculative-memory-address-queue capacity (Table 1: 128 entries).
    /// Memory instructions beyond this many in-flight advance entries are
    /// deferred to a later pass.
    pub smaq_entries: usize,
    /// Enable issue regrouping (§3.2). Disabled for the Figure 8 ablation.
    pub enable_regrouping: bool,
    /// How advance restart (§3.3) is triggered.
    pub restart: RestartStrategy,
    /// §3.5 WAW policy: when true (the paper's design), advance loads that
    /// miss the L1 skip the SRF write-back and defer their consumers to a
    /// later pass. When false, they write the SRF with their (future)
    /// completion time — the idealized "more complexity" alternative the
    /// paper mentions, which lets same-pass consumers wait instead of
    /// deferring.
    pub waw_skip_srf: bool,
    /// Deterministic fault injection (`ff-debug`, `ff-sentinel`): when set
    /// to `(class, N)`, the `N`-th (0-based) occurrence of the class's event
    /// is silently corrupted. `None` (the default) injects nothing.
    pub fault: Option<(FaultClass, u64)>,
}

impl MultipassConfig {
    /// The paper's configuration on the Table 2 machine.
    pub fn new(machine: MachineConfig) -> Self {
        MultipassConfig {
            machine,
            asc_entries: 64,
            asc_assoc: 2,
            smaq_entries: 128,
            enable_regrouping: true,
            restart: RestartStrategy::Compiler,
            waw_skip_srf: true,
            fault: None,
        }
    }

    /// The occurrence index to corrupt, when `class` is the armed fault.
    pub(crate) fn fault_index(&self, class: FaultClass) -> Option<u64> {
        match self.fault {
            Some((c, n)) if c == class => Some(n),
            _ => None,
        }
    }

    /// Figure 8 ablation: multipass without issue regrouping.
    pub fn without_regrouping(machine: MachineConfig) -> Self {
        MultipassConfig { enable_regrouping: false, ..Self::new(machine) }
    }

    /// Figure 8 ablation: multipass without advance restart.
    pub fn without_restart(machine: MachineConfig) -> Self {
        MultipassConfig { restart: RestartStrategy::Disabled, ..Self::new(machine) }
    }

    /// §3.5 alternative: advance loads that miss the L1 still write the
    /// SRF ("requiring more complexity"). Measurably *slower* than the
    /// paper's skip-SRF policy on chase-heavy workloads: same-pass
    /// consumers then wait on the in-flight value, blocking the in-order
    /// advance pipe instead of being deferred past.
    pub fn with_ideal_waw(machine: MachineConfig) -> Self {
        MultipassConfig { waw_skip_srf: false, ..Self::new(machine) }
    }

    /// Footnote 1 variant: hardware-detected advance restart instead of
    /// compiler markers.
    pub fn with_hardware_restart(machine: MachineConfig, consecutive_deferrals: u32) -> Self {
        MultipassConfig {
            restart: RestartStrategy::Hardware { consecutive_deferrals },
            ..Self::new(machine)
        }
    }
}

impl Default for MultipassConfig {
    fn default() -> Self {
        Self::new(MachineConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = MultipassConfig::default();
        assert_eq!(c.asc_entries, 64);
        assert_eq!(c.asc_assoc, 2);
        assert_eq!(c.smaq_entries, 128);
        assert!(c.enable_regrouping);
        assert_eq!(c.restart, RestartStrategy::Compiler);
        assert_eq!(c.machine.multipass_iq, 256);
    }

    #[test]
    fn ablations_flip_one_switch() {
        let m = MachineConfig::default();
        let a = MultipassConfig::without_regrouping(m);
        assert!(!a.enable_regrouping);
        assert_eq!(a.restart, RestartStrategy::Compiler);
        let b = MultipassConfig::without_restart(m);
        assert!(b.enable_regrouping);
        assert_eq!(b.restart, RestartStrategy::Disabled);
        let h = MultipassConfig::with_hardware_restart(m, 12);
        assert_eq!(h.restart, RestartStrategy::Hardware { consecutive_deferrals: 12 });
    }
}
