//! Tick-mode equivalence: the event-driven scheduler must be a pure
//! simulator-throughput optimization. For every execution model and every
//! workload, a run with [`TickMode::EventDriven`] must be bit-for-bit
//! identical to the reference [`TickMode::Polling`] run — same statistics,
//! same activity counters, same memory counters, same final state, same
//! retirement stream, same probe observation stream, and byte-identical
//! campaign artifacts.

use std::fmt::Write as _;

use flea_flicker::engine::probe::{AscForwardObs, CycleObs, MemAccessObs, PipelineProbe};
use flea_flicker::engine::{
    ExecutionModel, MachineConfig, Observes, RetireEvent, RetireMode, RunResult, SimCase, TickMode,
};
use flea_flicker::experiments::{HierKind, ModelKind};
use flea_flicker::harness::artifact::render_sim_artifact;
use flea_flicker::harness::JobSpec;
use flea_flicker::isa::Reg;
use flea_flicker::multipass::Multipass;
use flea_flicker::workloads::{Scale, Workload};

fn models(machine: MachineConfig) -> impl Iterator<Item = (&'static str, Box<dyn ExecutionModel>)> {
    ModelKind::ALL.into_iter().map(move |kind| (kind.name(), kind.build(machine)))
}

/// Records the entire retirement stream as rendered lines, so two runs can
/// be compared event-for-event with a readable diff on mismatch.
#[derive(Default)]
struct RetireStream {
    lines: Vec<String>,
}

impl PipelineProbe for RetireStream {
    fn observes(&self) -> Observes {
        Observes::Retirements
    }

    fn on_retire(&mut self, event: &RetireEvent) {
        self.lines.push(event.to_string());
    }
}

fn run_with(
    model: &mut dyn ExecutionModel,
    case: &SimCase<'_>,
    tick: TickMode,
) -> (RunResult, Vec<String>) {
    model.set_tick_mode(tick);
    let mut stream = RetireStream::default();
    let result = model.run_observed(case, &mut stream).unwrap();
    (result, stream.lines)
}

fn first_diff(a: &[String], b: &[String]) -> String {
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        if x != y {
            return format!("first divergence at event {i}:\n  polling: {x}\n  event:   {y}");
        }
    }
    format!("stream lengths differ: polling={} event={}", a.len(), b.len())
}

/// Simulator work per model over the 12 test-scale kernels (base
/// hierarchy, seed 0, event-driven): Σ `select_visits` and Σ
/// `alloc_count`, in [`ModelKind::ALL`] order. Both counts are
/// host-independent, so a change that makes the simulator do more work
/// per simulated cycle moves this table on every host. Update it only in
/// a change that moves the work on purpose, and say so in that change's
/// description; host time is measured by perfbench, not here.
const GRID_WORK: [(&str, u64, u64); 7] = [
    ("inorder", 502_389, 0),
    ("runahead", 199_943, 12),
    ("ooo", 231_689, 60),
    ("ooo-realistic", 144_732, 60),
    ("MP", 274_738, 12),
    ("MP-noregroup", 270_200, 12),
    ("MP-norestart", 419_076, 12),
];

/// The acceptance grid: every model x every benchmark, event-driven runs
/// must reproduce the polling runs' results, retirement streams, and
/// rendered campaign artifacts byte for byte. The grid's summed work
/// counts are pinned by [`GRID_WORK`].
#[test]
fn event_driven_matches_polling_on_every_grid_point() {
    let machine = MachineConfig::itanium2_base();
    let mut work = ModelKind::ALL.map(|kind| (kind.name(), 0, 0));
    for w in Workload::all(Scale::Test) {
        let case = SimCase::new(&w.program, w.mem.clone());
        for ((name, mut model), sums) in models(machine).zip(&mut work) {
            let (polled, polled_stream) = run_with(&mut *model, &case, TickMode::Polling);
            let (event, event_stream) = run_with(&mut *model, &case, TickMode::EventDriven);
            let at = format!("{name} on {}", w.name);
            assert_eq!(polled.stats, event.stats, "stats diverge: {at}");
            assert_eq!(polled.activity, event.activity, "activity diverges: {at}");
            assert_eq!(polled.mem_stats, event.mem_stats, "mem stats diverge: {at}");
            assert!(
                polled.final_state.semantically_eq(&event.final_state),
                "final state diverges: {at}"
            );
            assert!(
                polled_stream == event_stream,
                "retirement streams diverge: {at}\n{}",
                first_diff(&polled_stream, &event_stream)
            );
            sums.1 += event.activity.select_visits;
            sums.2 += event.activity.alloc_count;
        }
    }
    let moved: Vec<&str> = work
        .iter()
        .zip(GRID_WORK)
        .filter(|(got, want)| **got != *want)
        .map(|(got, _)| got.0)
        .collect();
    let mut table = String::new();
    for (name, visits, allocs) in &work {
        writeln!(table, "    ({name:?}, {visits}, {allocs}),").unwrap();
    }
    assert!(moved.is_empty(), "grid work moved for {moved:?}; fresh GRID_WORK rows:\n{table}");
}

/// FNV-1a digest of the 84 polled grid artifacts (every `ModelKind` x
/// every test-scale kernel, base hierarchy, seed 0), concatenated in grid
/// order. Update it only in a change that alters an artifact byte on
/// purpose, and say so in that change's description: a refactor that
/// moves this value has changed what the simulator computes.
const GRID_ARTIFACT_DIGEST: u64 = 0xdd01_225f_2ce5_87bd;

/// The campaign artifact for a grid point must not depend on the tick
/// mode: artifacts are content-addressed and compared byte-for-byte by
/// resume and by cross-run diffing. Every kernel × every model — the
/// artifact layer deliberately excludes the simulator's
/// self-instrumentation counters, so this also pins the store format
/// against instrumentation changes. The polled artifacts are also pinned
/// across commits by [`GRID_ARTIFACT_DIGEST`].
#[test]
fn artifacts_are_byte_identical_across_tick_modes() {
    use flea_flicker::harness::job::fnv1a64;
    let machine = MachineConfig::itanium2_base();
    let mut grid = String::new();
    for w in Workload::all(Scale::Test) {
        let case = SimCase::new(&w.program, w.mem.clone());
        for model_kind in ModelKind::ALL {
            let spec = JobSpec::sim(model_kind, HierKind::Base, w.name, 0, Scale::Test);
            let render = |tick| {
                let mut model = model_kind.build(machine);
                model.set_tick_mode(tick);
                render_sim_artifact(&spec, &model.try_run(&case).unwrap())
            };
            let polled = render(TickMode::Polling);
            let event = render(TickMode::EventDriven);
            assert_eq!(
                polled,
                event,
                "artifact bytes diverge for {} on {}",
                model_kind.name(),
                w.name
            );
            grid.push_str(&polled);
        }
    }
    let digest = fnv1a64(grid.as_bytes());
    assert_eq!(
        digest, GRID_ARTIFACT_DIGEST,
        "grid artifact digest moved: {digest:#018x} (see GRID_ARTIFACT_DIGEST)"
    );
}

/// The "zero heap allocation per instruction in steady state" invariant
/// (DESIGN.md §7e): across full runs retiring thousands of instructions,
/// `alloc_count` stays a small warm-up constant — the in-flight
/// containers (the OOO trace window and ready sets/timers, the runahead
/// register overlay, the multipass seq ring) are sized to their windows
/// up front and never grow on the hot path.
#[test]
fn in_flight_containers_do_not_allocate_in_steady_state() {
    let machine = MachineConfig::itanium2_base();
    let w = Workload::by_name("mcf", Scale::Test).unwrap();
    let case = SimCase::new(&w.program, w.mem.clone());
    for (name, mut model) in models(machine) {
        let result = model.try_run(&case).unwrap();
        assert!(
            result.stats.retired > 2_000,
            "{name}: kernel too small to exercise steady state ({} retired)",
            result.stats.retired
        );
        assert!(
            result.activity.alloc_count <= 16,
            "{name}: alloc_count {} over {} retirements — an in-flight container \
             is growing on the hot path",
            result.activity.alloc_count,
            result.stats.retired
        );
    }
}

/// Records every observation a sentinel could see, rendered to strings.
#[derive(Default)]
struct StreamProbe {
    lines: Vec<String>,
}

impl PipelineProbe for StreamProbe {
    fn on_fetch(&mut self, seq: u64, cycle: u64) {
        self.lines.push(format!("fetch seq={seq} cy={cycle}"));
    }

    fn on_issue(&mut self, seq: u64, cycle: u64) {
        self.lines.push(format!("issue seq={seq} cy={cycle}"));
    }

    fn on_writeback(&mut self, seq: u64, reg: Reg, cycle: u64) {
        self.lines.push(format!("wb seq={seq} reg={reg} cy={cycle}"));
    }

    fn on_retire(&mut self, event: &RetireEvent) {
        self.lines.push(format!("retire {event}"));
    }

    fn on_mode(&mut self, cycle: u64, mode: RetireMode) {
        self.lines.push(format!("mode {mode:?} cy={cycle}"));
    }

    fn on_cycle(&mut self, obs: &CycleObs) {
        self.lines.push(format!("cycle {obs:?}"));
    }

    fn on_mem_access(&mut self, obs: &MemAccessObs) {
        self.lines.push(format!("mem {obs:?}"));
    }

    fn on_asc_forward(&mut self, obs: &AscForwardObs) {
        self.lines.push(format!("asc {obs:?}"));
    }

    fn on_run_end(&mut self, result: &RunResult) {
        let mut line = String::from("end");
        let _ = write!(line, " cycles={} retired={}", result.stats.cycles, result.stats.retired);
        self.lines.push(line);
    }
}

/// Regression guard for the quiescence fast-forward: a probed run forces
/// per-cycle observation, so if the fast-forward ever skipped a cycle with
/// a pending sentinel-visible event (a CycleObs snapshot, a mode
/// transition, a memory completion, an ASC forward), the observation
/// streams would diverge.
#[test]
fn fast_forward_never_skips_a_probe_visible_event() {
    let machine = MachineConfig::itanium2_base();
    for bench in ["mcf", "gap", "art", "equake"] {
        let w = Workload::by_name(bench, Scale::Test).unwrap();
        let case = SimCase::new(&w.program, w.mem.clone());
        let observe = |tick| {
            let mut model = Multipass::new(machine);
            model.set_tick_mode(tick);
            let mut probe = StreamProbe::default();
            model.run_observed(&case, &mut probe).expect("test workloads halt within budget");
            probe.lines
        };
        let polled = observe(TickMode::Polling);
        let event = observe(TickMode::EventDriven);
        assert!(
            polled == event,
            "probe streams diverge on {bench}\n{}",
            first_diff(&polled, &event)
        );
    }
}

/// The watchdog path must also be tick-mode independent: when a run is
/// abandoned at a cycle budget, both modes must report the identical cap
/// and retirement count (the fast-forward clamps at the budget instead of
/// warping past it).
#[test]
fn cycle_budget_abandonment_is_tick_mode_independent() {
    let machine = MachineConfig::itanium2_base();
    let w = Workload::by_name("mcf", Scale::Test).unwrap();
    for budget in [100, 1_000, 10_000] {
        let case = SimCase::new(&w.program, w.mem.clone()).with_cycle_budget(budget);
        for (name, mut model) in models(machine) {
            model.set_tick_mode(TickMode::Polling);
            let polled = model.try_run(&case);
            model.set_tick_mode(TickMode::EventDriven);
            let event = model.try_run(&case);
            match (polled, event) {
                (Ok(p), Ok(e)) => assert_eq!(p.stats, e.stats, "{name} @{budget}"),
                (Err(p), Err(e)) => assert_eq!(p, e, "{name} @{budget}"),
                (p, e) => panic!("{name} @{budget}: outcomes diverge: {p:?} vs {e:?}"),
            }
        }
    }
}
