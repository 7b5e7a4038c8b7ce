//! The flea-flicker benchmark: end-to-end metrics of two workloads and
//! a traced replay that breaks a workload down by layer. See README.md.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <campaign-paper|serve-warm> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable table, then one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Exits 1 when the correctness gate fails, 2 on bad arguments.

mod client;
mod digest;
mod e2e;
mod ledger;
mod stats;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;

use workload::{Kind, Report};

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, 0, 10, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("bad {flag} `{value}`"));
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    Ok(Args { kind, seed, seconds, trace })
}

fn result_line(report: &Report) -> String {
    let mut metrics = String::new();
    for (i, m) in report.metrics.iter().enumerate() {
        let _ = write!(
            metrics,
            "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.value,
            m.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.correct(),
        report.attempted.max(1),
        report.failed
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ticks = workload::cpu_ticks();
    let outcome = if args.trace {
        ledger::run(args.kind, args.seed)
    } else {
        e2e::run(args.kind, args.seed, args.seconds)
    };
    let mut report = match outcome {
        Ok(r) => r,
        Err(e) => {
            // A run that could not finish is a failed correctness check.
            println!("  FAILED CHECK: {}: {e}", args.kind.name());
            let failed = Report { attempted: 1, failed: 1, ..Report::default() };
            println!("{}", result_line(&failed));
            return ExitCode::FAILURE;
        }
    };
    let (steal, total) = workload::cpu_ticks();
    let steal_frac = (steal - ticks.0) as f64 / (total - ticks.1).max(1) as f64;
    report.note("host_cpu_steal_frac", steal_frac, "ratio");
    println!("{} seed={} trace={}", args.kind.name(), args.seed, u8::from(args.trace));
    for m in report.metrics.iter().chain(&report.notes) {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("  attempted {} failed {}", report.attempted, report.failed);
    for p in &report.problems {
        println!("  FAILED CHECK: {p}");
    }
    println!("{}", result_line(&report));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_harness::json::Json;

    fn read_json(rel: &str) -> Json {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
        let text = std::fs::read_to_string(&path).expect("readable");
        Json::parse(&text).expect("valid JSON")
    }

    fn names(doc: &Json, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("a list")
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).expect("a name").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_runs_emit() {
        let bench = read_json("../BENCHMARK.json");
        assert_eq!(names(&bench, "end_to_end"), e2e::METRICS.map(String::from).to_vec());
        assert_eq!(names(&bench, "per_layer"), ledger::metric_names());
        let workloads = names(&bench, "workloads");
        assert_eq!(workloads, Kind::ALL.map(|k| k.name().to_string()).to_vec());
    }

    #[test]
    fn every_per_layer_metric_has_exactly_one_prediction() {
        let bench = read_json("../BENCHMARK.json");
        let layers = read_json("layers.json");
        let workloads = names(&bench, "workloads");
        let e2e_names = names(&bench, "end_to_end");
        let mut mapped = Vec::new();
        for group in layers.get("groups").and_then(Json::as_arr).expect("groups") {
            let list = |k: &str| -> Vec<String> {
                group
                    .get(k)
                    .and_then(Json::as_arr)
                    .expect(k)
                    .iter()
                    .map(|v| v.as_str().expect("string").to_string())
                    .collect()
            };
            assert!(
                list("moves").iter().all(|m| e2e_names.contains(m)),
                "unknown end-to-end metric"
            );
            assert!(
                list("on").iter().chain(&list("stays_on")).all(|w| workloads.contains(w)),
                "unknown workload"
            );
            mapped.extend(list("metrics"));
        }
        let mut want = names(&bench, "per_layer");
        want.sort();
        mapped.sort();
        assert_eq!(mapped, want);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut r = Report::default();
        r.metric("setup_s", 0.5, "s");
        r.metric("latency_ms", 1.25, "ms");
        r.attempted = 3;
        let line = result_line(&r);
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).expect("valid JSON");
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(3));
        let m = doc.get("metrics").and_then(|m| m.get("latency_ms")).expect("metric");
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("ms"));
    }

    #[test]
    fn arguments_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload serve-warm --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!((a.kind, a.seed, a.seconds, a.trace), (Kind::ServeWarm, 7, 3, true));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload serve-warm --seed")).is_err());
    }
}
