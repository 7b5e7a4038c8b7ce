//! Text reports beyond the paper's numbered figures: structure ablations,
//! the loop-unrolling study, the §4.2 memory-consistency claim, and the
//! seed-sensitivity sweep.
//!
//! Each report renders to a `String`, which `ff-campaign run` writes into
//! `results/`. The self-contained sweeps ([`ablation_structures`],
//! [`unroll_effect`]) run as campaign report jobs; [`memory_consistency`]
//! and [`seed_sensitivity`] are rendered from the campaign's simulations.

use std::fmt::Write as _;

use ff_baselines::{InOrder, OutOfOrder};
use ff_engine::{ExecutionModel, MachineConfig, SimCase};
use ff_isa::{Inst, MemoryImage, Op, Program, Reg};
use ff_multipass::{Multipass, MultipassConfig};
use ff_workloads::{Scale, Workload};

use crate::suite::{HierKind, ModelKind, ResultSource};

/// The diverse four-benchmark subset the structure ablations sweep.
pub const ABLATION_BENCHES: [&str; 4] = ["mcf", "gap", "art", "twolf"];

/// Per-workload cycle counts of each configuration already simulated, so
/// a configuration that recurs across the ablation sweeps (the Table 2
/// machine underlies most rows) is simulated once per benchmark.
#[derive(Default)]
struct CycleMemo {
    inorder: Vec<(MachineConfig, Vec<f64>)>,
    multipass: Vec<(MultipassConfig, Vec<f64>)>,
}

/// The cycles of `key`'s model on every workload, simulated on first use.
fn memo_cycles<'m, K: PartialEq + Copy>(
    memo: &'m mut Vec<(K, Vec<f64>)>,
    key: K,
    ws: &[Workload],
    run: impl Fn(K, &SimCase<'_>) -> u64,
) -> &'m [f64] {
    let at = match memo.iter().position(|(k, _)| *k == key) {
        Some(at) => at,
        None => {
            let cycles = ws
                .iter()
                .map(|w| run(key, &SimCase::new(&w.program, w.mem.clone())) as f64)
                .collect();
            memo.push((key, cycles));
            memo.len() - 1
        }
    };
    &memo[at].1
}

fn mean_speedup(
    machine: MachineConfig,
    mp_cfg: MultipassConfig,
    ws: &[Workload],
    memo: &mut CycleMemo,
) -> f64 {
    let halts = "kernel halts within the cycle cap";
    let base = memo_cycles(&mut memo.inorder, machine, ws, |m, case| {
        InOrder::new(m).try_run(case).expect(halts).stats.cycles
    });
    let mp = memo_cycles(&mut memo.multipass, mp_cfg, ws, |c, case| {
        Multipass::with_config(c).try_run(case).expect(halts).stats.cycles
    });
    let mut total = 0.0;
    for (base, mp) in base.iter().zip(mp) {
        total += base / mp;
    }
    total / ws.len() as f64
}

/// Design-choice ablations for the multipass structures, beyond the
/// paper's Figure 8: instruction-queue capacity, advance-store-cache
/// geometry, MSHR count (memory-level-parallelism ceiling), the restart
/// mechanism of footnote 1, and the §3.5 WAW policy.
pub fn ablation_structures(scale: Scale) -> String {
    let ws: Vec<Workload> = ABLATION_BENCHES
        .iter()
        .map(|n| Workload::by_name(n, scale).expect("known benchmark"))
        .collect();
    let mut memo = CycleMemo::default();
    let mut speedup =
        |machine: MachineConfig, cfg: MultipassConfig| mean_speedup(machine, cfg, &ws, &mut memo);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== Multipass structure ablations ({scale:?} scale; mcf/gap/art/twolf) ===\n"
    );

    let _ = writeln!(out, "instruction-queue capacity sweep:");
    // The in-order baseline never reads `multipass_iq`, so every row shares
    // the Table 2 machine's baseline run.
    let base = MachineConfig::itanium2_base();
    for iq in [24usize, 64, 128, 256, 512] {
        let cfg = MultipassConfig::new(MachineConfig { multipass_iq: iq, ..base });
        let _ = writeln!(out, "  IQ {iq:>4} entries: mean MP speedup {:.3}x", speedup(base, cfg));
    }

    let _ = writeln!(out, "\nadvance-store-cache sweep:");
    let machine = MachineConfig::itanium2_base();
    for (entries, assoc) in [(16usize, 2usize), (64, 1), (64, 2), (64, 4), (256, 2)] {
        let mut cfg = MultipassConfig::new(machine);
        cfg.asc_entries = entries;
        cfg.asc_assoc = assoc;
        let _ = writeln!(
            out,
            "  ASC {entries:>3} entries / {assoc}-way: mean MP speedup {:.3}x",
            speedup(machine, cfg)
        );
    }

    let _ = writeln!(out, "\noutstanding-miss (MSHR) sweep:");
    for mshrs in [4u32, 8, 16, 32] {
        let mut machine = MachineConfig::itanium2_base();
        machine.hierarchy.max_outstanding = mshrs;
        let cfg = MultipassConfig::new(machine);
        let _ = writeln!(out, "  {mshrs:>2} MSHRs: mean MP speedup {:.3}x", speedup(machine, cfg));
    }

    let _ = writeln!(out, "\nrestart mechanism:");
    let machine = MachineConfig::itanium2_base();
    let compiler = MultipassConfig::new(machine);
    let _ = writeln!(out, "  compiler RESTART markers : {:.3}x", speedup(machine, compiler));
    for threshold in [4u32, 8, 16] {
        let hw = MultipassConfig::with_hardware_restart(machine, threshold);
        let _ =
            writeln!(out, "  hardware detector (run {threshold:>2}): {:.3}x", speedup(machine, hw));
    }
    let none = MultipassConfig::without_restart(machine);
    let _ = writeln!(out, "  no restart               : {:.3}x", speedup(machine, none));

    let _ = writeln!(out, "\nWAW policy for advance loads that miss the L1:");
    let paper = MultipassConfig::new(machine);
    let _ = writeln!(out, "  skip SRF (paper, simple) : {:.3}x", speedup(machine, paper));
    let ideal = MultipassConfig::with_ideal_waw(machine);
    let _ = writeln!(out, "  write SRF (idealized)    : {:.3}x", speedup(machine, ideal));
    out
}

/// An L1-resident compute loop (wrapped 4 KB window): one load feeding a
/// short dependent chain, pointer bump with wrap — the canonical body whose
/// intra-iteration serial chain leaves an un-unrolled in-order pipe
/// issue-starved while ideal OOO overlaps iterations freely.
fn gather_loop(trips: i64) -> (Program, MemoryImage) {
    const WINDOW_WORDS: u64 = 512; // 4 KB: L1-resident after the first lap
    let mut p = Program::new();
    let b0 = p.add_block();
    let b1 = p.add_block();
    let b2 = p.add_block();
    p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(1)).imm(0x10_0000));
    p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(8)).imm(0x10_0000)); // base
    p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(9)).imm(((WINDOW_WORDS - 1) * 8) as i64));
    p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(2)).imm(trips));
    p.push(b1, Inst::new(Op::Load).dst(Reg::int(4)).src(Reg::int(1)).region(0));
    p.push(b1, Inst::new(Op::Add).dst(Reg::int(3)).src(Reg::int(3)).src(Reg::int(4)));
    p.push(b1, Inst::new(Op::Shl).dst(Reg::int(5)).src(Reg::int(4)).imm(1));
    p.push(b1, Inst::new(Op::Xor).dst(Reg::int(6)).src(Reg::int(5)).src(Reg::int(4)));
    p.push(b1, Inst::new(Op::Add).dst(Reg::int(7)).src(Reg::int(7)).src(Reg::int(6)));
    // Wrapped pointer bump: r1 = base + ((r1 + 8) & mask).
    p.push(b1, Inst::new(Op::AddImm).dst(Reg::int(10)).src(Reg::int(1)).imm(8));
    p.push(b1, Inst::new(Op::And).dst(Reg::int(10)).src(Reg::int(10)).src(Reg::int(9)));
    p.push(b1, Inst::new(Op::Add).dst(Reg::int(1)).src(Reg::int(8)).src(Reg::int(10)));
    p.push(b1, Inst::new(Op::AddImm).dst(Reg::int(2)).src(Reg::int(2)).imm(-1));
    p.push(b1, Inst::new(Op::CmpNe).dst(Reg::pred(1)).src(Reg::int(2)).src(Reg::int(0)));
    p.push(b1, Inst::new(Op::Br { target: b1 }).qp(Reg::pred(1)));
    p.push(b2, Inst::new(Op::Halt));
    let mut mem = MemoryImage::new();
    for i in 0..WINDOW_WORDS {
        mem.store(0x10_0000 + i * 8, i * 37 + 1);
    }
    (p, mem)
}

/// Quantifies the static cross-iteration ILP that compiler loop unrolling
/// buys the in-order pipelines — the effect (together with modulo
/// scheduling) that lets the paper's OpenIMPACT baseline sit much closer
/// to ideal out-of-order execution than naive code does. See
/// EXPERIMENTS.md, deviation 1.
pub fn unroll_effect() -> String {
    let (raw, mem) = gather_loop(20_000);
    let machine = MachineConfig::itanium2_base();
    let mut out = String::new();
    let _ = writeln!(out, "=== Compiler loop unrolling vs the ideal-OOO gap ===\n");
    let _ = writeln!(
        out,
        "{:<10} {:>10} {:>10} {:>10} {:>12}",
        "unroll", "inorder", "MP", "OOO", "inorder/OOO"
    );
    let mut golden_mem: Option<ff_isa::MemoryImage> = None;
    for factor in [None, Some(2u32), Some(4), Some(6)] {
        let options = ff_compiler::CompilerOptions {
            unroll: factor,
            ..ff_compiler::CompilerOptions::default()
        };
        let program = ff_compiler::compile(&raw, &options);
        assert!(ff_compiler::verify_schedule(&program).is_ok());
        let case = SimCase::new(&program, mem.clone());
        let base = InOrder::new(machine).try_run(&case).expect("kernel halts within the cycle cap");
        let mp = Multipass::new(machine).try_run(&case).expect("kernel halts within the cycle cap");
        let ooo =
            OutOfOrder::new(machine).try_run(&case).expect("kernel halts within the cycle cap");
        // Memory semantics must be identical across factors.
        match &golden_mem {
            None => golden_mem = Some(base.final_state.mem.clone()),
            Some(g) => assert!(base.final_state.mem.semantically_eq(g)),
        }
        assert!(mp.final_state.semantically_eq(&base.final_state));
        assert!(ooo.final_state.semantically_eq(&base.final_state));
        let _ = writeln!(
            out,
            "{:<10} {:>10} {:>10} {:>10} {:>11.2}x",
            factor.map_or("none".to_string(), |f| format!("x{f}")),
            base.stats.cycles,
            mp.stats.cycles,
            ooo.stats.cycles,
            base.stats.cycles as f64 / ooo.stats.cycles as f64,
        );
    }
    let _ = writeln!(out, "\nUnrolling shrinks the in-order pipes' execution cycles toward the");
    let _ = writeln!(out, "dataflow limit, narrowing the gap ideal OOO holds over them — the");
    let _ = writeln!(out, "effect the paper's modulo-scheduled binaries enjoyed by default.");
    out
}

/// §4.2's memory-consistency claim: "performance stalls are not
/// significantly impacted by the pipeline flushes caused by the maintenance
/// of semantic memory ordering since conflicts between the loads and stores
/// were rarely observed". Reports value-misspeculation flushes per
/// benchmark under multipass and the share of cycles they cost.
pub fn memory_consistency<S: ResultSource + ?Sized>(src: &mut S, scale: Scale) -> String {
    let machine = MachineConfig::itanium2_base();
    let flush_penalty = machine.mispredict_penalty;
    let mut out = String::new();
    let _ =
        writeln!(out, "=== §4.2: value-based memory-consistency flushes ({scale:?} scale) ===\n");
    let _ = writeln!(
        out,
        "{:<8} {:>10} {:>8} {:>14} {:>12}",
        "bench", "cycles", "flushes", "flush cycles", "% of cycles"
    );
    let mut total_flushes = 0u64;
    for bench in src.benchmarks() {
        let r = src.result(ModelKind::Multipass, HierKind::Base, bench).clone();
        let flush_cycles = r.stats.value_flushes * flush_penalty;
        total_flushes += r.stats.value_flushes;
        let _ = writeln!(
            out,
            "{:<8} {:>10} {:>8} {:>14} {:>11.3}%",
            bench,
            r.stats.cycles,
            r.stats.value_flushes,
            flush_cycles,
            100.0 * flush_cycles as f64 / r.stats.cycles as f64,
        );
    }
    let _ = writeln!(
        out,
        "\ntotal flushes across the suite: {total_flushes} (paper: conflicts \"rarely observed\")"
    );
    out
}

/// Seed-sensitivity study: the headline result (multipass mean speedup
/// over in-order) must not be an artifact of one workload-generator seed.
///
/// `cycles(model, bench, seed)` supplies base-hierarchy cycle counts —
/// from live simulation in the bench target, or from campaign artifacts in
/// `ff-campaign`. Only `ModelKind::InOrder` and `ModelKind::Multipass`
/// are queried.
pub fn seed_sensitivity<F>(scale: Scale, seeds: &[u64], mut cycles: F) -> String
where
    F: FnMut(ModelKind, &'static str, u64) -> u64,
{
    let mut out = String::new();
    let _ = writeln!(out, "=== Seed sensitivity of the Figure 6 headline ({scale:?} scale) ===\n");
    let mut means = Vec::new();
    for &seed in seeds {
        let mut total = 0.0;
        let mut n = 0.0;
        for name in Workload::NAMES {
            let base = cycles(ModelKind::InOrder, name, seed) as f64;
            let mp = cycles(ModelKind::Multipass, name, seed) as f64;
            total += base / mp;
            n += 1.0;
        }
        let mean = total / n;
        let _ = writeln!(out, "seed {seed}: mean MP speedup {mean:.3}x");
        means.push(mean);
    }
    let lo = means.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = means.iter().cloned().fold(0.0f64, f64::max);
    let _ = writeln!(
        out,
        "\nspread across seeds: {lo:.3}x .. {hi:.3}x ({:.1}% relative)",
        100.0 * (hi - lo) / lo
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::Suite;

    #[test]
    fn memory_consistency_reports_all_benchmarks() {
        let mut s = Suite::new(Scale::Test);
        let r = memory_consistency(&mut s, Scale::Test);
        for b in Workload::NAMES {
            assert!(r.contains(b), "missing {b} in report");
        }
        assert!(r.contains("total flushes"));
    }

    #[test]
    fn seed_sensitivity_renders_from_a_closure() {
        // Synthetic cycle counts: MP is 2x faster everywhere.
        let r = seed_sensitivity(Scale::Test, &[0, 1], |m, _, _| match m {
            ModelKind::InOrder => 200,
            _ => 100,
        });
        assert!(r.contains("seed 0: mean MP speedup 2.000x"), "{r}");
        assert!(r.contains("seed 1"));
        assert!(r.contains("spread across seeds: 2.000x .. 2.000x"));
    }

    /// `ablation_structures` reuses one in-order baseline across its IQ
    /// sweep, which holds only while the in-order model ignores the
    /// multipass queue size.
    #[test]
    fn inorder_ignores_the_multipass_iq() {
        let run = |iq, w: &Workload| {
            let machine = MachineConfig { multipass_iq: iq, ..MachineConfig::itanium2_base() };
            InOrder::new(machine).try_run(&SimCase::new(&w.program, w.mem.clone())).unwrap()
        };
        for name in ABLATION_BENCHES {
            let w = Workload::by_name(name, Scale::Test).unwrap();
            let (small, large) = (run(24, &w), run(512, &w));
            assert_eq!(small.stats, large.stats, "{name}");
            assert_eq!(small.mem_stats, large.mem_stats, "{name}");
        }
    }

    #[test]
    fn unroll_gather_loop_is_valid() {
        let (p, _) = gather_loop(10);
        assert!(p.validate().is_ok());
    }
}
