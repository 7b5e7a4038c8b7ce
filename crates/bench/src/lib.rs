//! Simulator-throughput benchmark for the flea-flicker reproduction.
//!
//! One bench target, `sim_throughput` (`cargo bench -p ff-bench --bench
//! sim_throughput`): steady-state simulator throughput (cycles/sec and
//! insts/sec per model x kernel, event-driven tick mode), written to
//! `BENCH_<git-describe>.json` and gated against `BENCH_main.json` by the
//! CI `perf-gate` job (see [`throughput`]).
//!
//! The paper's tables and figures are not bench targets: `ff-campaign run
//! --all` renders every one of them into `results/`.

pub mod throughput;
