//! Content-addressed result artifacts.
//!
//! One completed job writes exactly one JSON artifact. Artifacts are
//! byte-deterministic: field order is fixed, numbers are integers, and no
//! wall-clock timing is stored (timing lives in the manifest, which is not
//! content-addressed). This is what makes `--jobs 4` and `--jobs 1` runs
//! bit-for-bit comparable, and what lets resume trust an existing file.

use ff_engine::stats::CycleBreakdown;
use ff_engine::{Activity, RunResult, RunStats};
use ff_isa::ArchState;
use ff_mem::MemStats;

use crate::job::{JobKind, JobSpec, FORMAT_VERSION};
use crate::json::Json;

fn stats_json(s: &RunStats) -> Json {
    Json::obj(vec![
        ("cycles", Json::U64(s.cycles)),
        ("retired", Json::U64(s.retired)),
        ("executions", Json::U64(s.executions)),
        (
            "breakdown",
            Json::obj(vec![
                ("execution", Json::U64(s.breakdown.execution)),
                ("front_end", Json::U64(s.breakdown.front_end)),
                ("other", Json::U64(s.breakdown.other)),
                ("load", Json::U64(s.breakdown.load)),
            ]),
        ),
        ("branches", Json::U64(s.branches)),
        ("mispredicts", Json::U64(s.mispredicts)),
        ("early_resolved_mispredicts", Json::U64(s.early_resolved_mispredicts)),
        ("spec_mode_entries", Json::U64(s.spec_mode_entries)),
        ("advance_restarts", Json::U64(s.advance_restarts)),
        ("spec_mode_cycles", Json::U64(s.spec_mode_cycles)),
        ("rally_cycles", Json::U64(s.rally_cycles)),
        ("rs_reuses", Json::U64(s.rs_reuses)),
        ("value_flushes", Json::U64(s.value_flushes)),
        ("regroup_merges", Json::U64(s.regroup_merges)),
    ])
}

fn activity_json(a: &Activity) -> Json {
    Json::obj(vec![
        ("cycles", Json::U64(a.cycles)),
        ("regfile_reads", Json::U64(a.regfile_reads)),
        ("regfile_writes", Json::U64(a.regfile_writes)),
        ("srf_reads", Json::U64(a.srf_reads)),
        ("srf_writes", Json::U64(a.srf_writes)),
        ("rs_reads", Json::U64(a.rs_reads)),
        ("rs_writes", Json::U64(a.rs_writes)),
        ("rat_reads", Json::U64(a.rat_reads)),
        ("rat_writes", Json::U64(a.rat_writes)),
        ("wakeup_broadcasts", Json::U64(a.wakeup_broadcasts)),
        ("issue_selections", Json::U64(a.issue_selections)),
        ("iq_reads", Json::U64(a.iq_reads)),
        ("iq_writes", Json::U64(a.iq_writes)),
        ("load_buffer_searches", Json::U64(a.load_buffer_searches)),
        ("store_buffer_searches", Json::U64(a.store_buffer_searches)),
        ("smaq_accesses", Json::U64(a.smaq_accesses)),
        ("asc_accesses", Json::U64(a.asc_accesses)),
    ])
}

fn mem_json(m: &MemStats) -> Json {
    Json::obj(vec![
        ("data_accesses", Json::U64(m.data_accesses)),
        ("l1d_misses", Json::U64(m.l1d_misses)),
        ("l2_hits", Json::U64(m.l2_hits)),
        ("l3_hits", Json::U64(m.l3_hits)),
        ("mm_accesses", Json::U64(m.mm_accesses)),
        ("ifetches", Json::U64(m.ifetches)),
        ("l1i_misses", Json::U64(m.l1i_misses)),
        ("mshr_retries", Json::U64(m.mshr_retries)),
        ("speculative_reads", Json::U64(m.speculative_reads)),
        ("mshr_allocations", Json::U64(m.mshr_allocations)),
        ("mshr_releases", Json::U64(m.mshr_releases)),
        ("mshr_leaked", Json::U64(m.mshr_leaked)),
    ])
}

fn descriptor_json(spec: &JobSpec) -> Json {
    match &spec.kind {
        JobKind::Sim { model, hier, bench, seed } => Json::obj(vec![
            ("kind", Json::Str("sim".into())),
            ("model", Json::Str(model.name().into())),
            ("hier", Json::Str(hier.name().into())),
            ("bench", Json::Str((*bench).into())),
            ("seed", Json::U64(*seed)),
            ("scale", Json::Str(crate::job::scale_name(spec.scale).into())),
        ]),
        JobKind::Report { name } => Json::obj(vec![
            ("kind", Json::Str("report".into())),
            ("name", Json::Str((*name).into())),
            ("scale", Json::Str(crate::job::scale_name(spec.scale).into())),
        ]),
    }
}

fn header(spec: &JobSpec) -> Vec<(&'static str, Json)> {
    vec![
        ("format", Json::U64(FORMAT_VERSION as u64)),
        ("config_hash", Json::Str(format!("{:016x}", spec.config_hash()))),
        ("job", descriptor_json(spec)),
    ]
}

/// Renders the artifact for a completed simulation job.
pub fn render_sim_artifact(spec: &JobSpec, result: &RunResult) -> String {
    let mut fields = header(spec);
    fields.push(("stats", stats_json(&result.stats)));
    fields.push(("activity", activity_json(&result.activity)));
    fields.push(("mem_stats", mem_json(&result.mem_stats)));
    Json::obj(fields).render()
}

/// Renders the artifact for a completed report job (rendered report text).
pub fn render_report_artifact(spec: &JobSpec, text: &str) -> String {
    let mut fields = header(spec);
    fields.push(("text", Json::Str(text.to_string())));
    Json::obj(fields).render()
}

fn u64_field(obj: &Json, key: &str) -> Result<u64, String> {
    obj.get(key).and_then(Json::as_u64).ok_or_else(|| format!("missing integer field `{key}`"))
}

/// Checks that `doc` is an artifact for exactly `spec` (format version and
/// config hash both match). A mismatch means the artifact was produced by
/// a different configuration and must be recomputed.
pub fn verify_header(spec: &JobSpec, doc: &Json) -> Result<(), String> {
    let format = u64_field(doc, "format")?;
    if format != FORMAT_VERSION as u64 {
        return Err(format!("format version {format} != {FORMAT_VERSION}"));
    }
    let hash = doc
        .get("config_hash")
        .and_then(Json::as_str)
        .ok_or_else(|| "missing config_hash".to_string())?;
    let want = format!("{:016x}", spec.config_hash());
    if hash != want {
        return Err(format!("config hash {hash} != {want} for {}", spec.id()));
    }
    Ok(())
}

/// Parses a simulation artifact back into a [`RunResult`].
///
/// The artifact stores timing/activity/memory counters only, so the
/// returned result carries a zeroed [`ArchState`] — correctness of final
/// state is asserted at simulation time, not re-checked from artifacts.
pub fn parse_sim_artifact(spec: &JobSpec, text: &str) -> Result<RunResult, String> {
    let doc = Json::parse(text)?;
    verify_header(spec, &doc)?;
    let s = doc.get("stats").ok_or("missing stats")?;
    let b = s.get("breakdown").ok_or("missing stats.breakdown")?;
    let a = doc.get("activity").ok_or("missing activity")?;
    let m = doc.get("mem_stats").ok_or("missing mem_stats")?;
    Ok(RunResult {
        stats: RunStats {
            cycles: u64_field(s, "cycles")?,
            retired: u64_field(s, "retired")?,
            executions: u64_field(s, "executions")?,
            breakdown: CycleBreakdown {
                execution: u64_field(b, "execution")?,
                front_end: u64_field(b, "front_end")?,
                other: u64_field(b, "other")?,
                load: u64_field(b, "load")?,
            },
            branches: u64_field(s, "branches")?,
            mispredicts: u64_field(s, "mispredicts")?,
            early_resolved_mispredicts: u64_field(s, "early_resolved_mispredicts")?,
            spec_mode_entries: u64_field(s, "spec_mode_entries")?,
            advance_restarts: u64_field(s, "advance_restarts")?,
            spec_mode_cycles: u64_field(s, "spec_mode_cycles")?,
            rally_cycles: u64_field(s, "rally_cycles")?,
            rs_reuses: u64_field(s, "rs_reuses")?,
            value_flushes: u64_field(s, "value_flushes")?,
            regroup_merges: u64_field(s, "regroup_merges")?,
        },
        activity: Activity {
            cycles: u64_field(a, "cycles")?,
            regfile_reads: u64_field(a, "regfile_reads")?,
            regfile_writes: u64_field(a, "regfile_writes")?,
            srf_reads: u64_field(a, "srf_reads")?,
            srf_writes: u64_field(a, "srf_writes")?,
            rs_reads: u64_field(a, "rs_reads")?,
            rs_writes: u64_field(a, "rs_writes")?,
            rat_reads: u64_field(a, "rat_reads")?,
            rat_writes: u64_field(a, "rat_writes")?,
            wakeup_broadcasts: u64_field(a, "wakeup_broadcasts")?,
            issue_selections: u64_field(a, "issue_selections")?,
            iq_reads: u64_field(a, "iq_reads")?,
            iq_writes: u64_field(a, "iq_writes")?,
            load_buffer_searches: u64_field(a, "load_buffer_searches")?,
            store_buffer_searches: u64_field(a, "store_buffer_searches")?,
            smaq_accesses: u64_field(a, "smaq_accesses")?,
            asc_accesses: u64_field(a, "asc_accesses")?,
            // Simulator self-instrumentation (select_visits / alloc_count)
            // describes the host-side implementation, not the modeled
            // machine, and is deliberately excluded from artifacts so the
            // content-addressed store stays stable across simulator
            // optimizations. `tests/tick_equivalence.rs` pins it instead.
            select_visits: 0,
            alloc_count: 0,
        },
        mem_stats: MemStats {
            data_accesses: u64_field(m, "data_accesses")?,
            l1d_misses: u64_field(m, "l1d_misses")?,
            l2_hits: u64_field(m, "l2_hits")?,
            l3_hits: u64_field(m, "l3_hits")?,
            mm_accesses: u64_field(m, "mm_accesses")?,
            ifetches: u64_field(m, "ifetches")?,
            l1i_misses: u64_field(m, "l1i_misses")?,
            mshr_retries: u64_field(m, "mshr_retries")?,
            speculative_reads: u64_field(m, "speculative_reads")?,
            mshr_allocations: u64_field(m, "mshr_allocations")?,
            mshr_releases: u64_field(m, "mshr_releases")?,
            mshr_leaked: u64_field(m, "mshr_leaked")?,
        },
        final_state: ArchState::new(),
        loop_passes: 0,
    })
}

/// Reconstructs the [`JobSpec`] from an artifact's embedded `job`
/// descriptor — what lets a client that fetched an artifact by config
/// hash alone file it under its proper content-addressed name.
///
/// # Errors
///
/// On a missing/malformed descriptor or a descriptor naming a model,
/// hierarchy, benchmark, or report this build does not know.
pub fn spec_from_artifact(text: &str) -> Result<JobSpec, String> {
    let doc = Json::parse(text)?;
    let job = doc.get("job").ok_or("artifact missing `job` descriptor")?;
    let field = |key: &str| {
        job.get(key).and_then(Json::as_str).ok_or_else(|| format!("job missing `{key}`"))
    };
    let scale_str = field("scale")?;
    let scale =
        crate::job::parse_scale(scale_str).ok_or_else(|| format!("unknown scale `{scale_str}`"))?;
    match field("kind")? {
        "sim" => {
            let model = ff_experiments::ModelKind::parse(field("model")?)
                .ok_or_else(|| format!("unknown model `{}`", field("model").unwrap()))?;
            let hier = ff_experiments::HierKind::parse(field("hier")?)
                .ok_or_else(|| format!("unknown hier `{}`", field("hier").unwrap()))?;
            let bench_name = field("bench")?;
            let bench = ff_workloads::Workload::NAMES
                .iter()
                .copied()
                .find(|b| *b == bench_name)
                .ok_or_else(|| format!("unknown benchmark `{bench_name}`"))?;
            let seed = job.get("seed").and_then(Json::as_u64).ok_or("job missing `seed`")?;
            Ok(JobSpec::sim(model, hier, bench, seed, scale))
        }
        "report" => {
            let report_name = field("name")?;
            let name = crate::job::REPORT_NAMES
                .iter()
                .copied()
                .find(|n| *n == report_name)
                .ok_or_else(|| format!("unknown report `{report_name}`"))?;
            Ok(JobSpec::report(name, scale))
        }
        other => Err(format!("unknown job kind `{other}`")),
    }
}

/// Parses a report artifact back into its rendered text.
pub fn parse_report_artifact(spec: &JobSpec, text: &str) -> Result<String, String> {
    let doc = Json::parse(text)?;
    verify_header(spec, &doc)?;
    doc.get("text")
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| "missing text field".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_experiments::{HierKind, ModelKind};
    use ff_workloads::Scale;

    fn sample_spec() -> JobSpec {
        JobSpec::sim(ModelKind::InOrder, HierKind::Base, "gzip", 0, Scale::Test)
    }

    fn sample_result() -> RunResult {
        RunResult {
            stats: RunStats {
                cycles: 1234,
                retired: 567,
                executions: 600,
                breakdown: CycleBreakdown { execution: 400, front_end: 300, other: 234, load: 300 },
                branches: 80,
                mispredicts: 7,
                ..RunStats::default()
            },
            activity: Activity {
                cycles: 1234,
                regfile_reads: 999,
                iq_reads: 55,
                select_visits: 7,
                alloc_count: 3,
                ..Activity::default()
            },
            mem_stats: MemStats { data_accesses: 321, l1d_misses: 12, ..MemStats::default() },
            final_state: ArchState::new(),
            loop_passes: 0,
        }
    }

    #[test]
    fn sim_artifact_round_trips_all_counters() {
        let spec = sample_spec();
        let result = sample_result();
        let text = render_sim_artifact(&spec, &result);
        let back = parse_sim_artifact(&spec, &text).unwrap();
        assert_eq!(back.stats, result.stats);
        // Simulator self-instrumentation is not serialized: it round-trips
        // to zero by design.
        assert_eq!(back.activity, Activity { select_visits: 0, alloc_count: 0, ..result.activity });
        assert_eq!(back.mem_stats, result.mem_stats);
        // Re-rendering the parsed artifact is byte-identical.
        assert_eq!(render_sim_artifact(&spec, &back), text);
    }

    #[test]
    fn wrong_spec_is_rejected() {
        let spec = sample_spec();
        let text = render_sim_artifact(&spec, &sample_result());
        let other = JobSpec::sim(ModelKind::InOrder, HierKind::Base, "gzip", 1, Scale::Test);
        let err = parse_sim_artifact(&other, &text).unwrap_err();
        assert!(err.contains("config hash"), "{err}");
    }

    #[test]
    fn report_artifact_round_trips() {
        let spec = JobSpec::report("unroll_effect", Scale::Test);
        let body = "=== report ===\nline with \"quotes\" and\ttabs\n";
        let text = render_report_artifact(&spec, body);
        assert_eq!(parse_report_artifact(&spec, &text).unwrap(), body);
    }

    #[test]
    fn spec_round_trips_through_the_embedded_descriptor() {
        let sim = sample_spec();
        assert_eq!(spec_from_artifact(&render_sim_artifact(&sim, &sample_result())).unwrap(), sim);
        let report = JobSpec::report("unroll_effect", Scale::Paper);
        assert_eq!(spec_from_artifact(&render_report_artifact(&report, "body\n")).unwrap(), report);
        let err = spec_from_artifact("{\"format\": 1}\n").unwrap_err();
        assert!(err.contains("job"), "{err}");
    }

    #[test]
    fn rendering_is_deterministic() {
        let spec = sample_spec();
        let result = sample_result();
        assert_eq!(render_sim_artifact(&spec, &result), render_sim_artifact(&spec, &result));
        // No wall-clock contamination: the artifact must not mention time.
        assert!(!render_sim_artifact(&spec, &result).contains("wall"));
    }
}
