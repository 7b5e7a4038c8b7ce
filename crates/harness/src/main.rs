//! `ff-campaign` — the campaign runner CLI.
//!
//! ```text
//! ff-campaign run --all --scale test --jobs 4
//! ff-campaign run --filter model=MP --filter bench=mcf
//! ff-campaign resume --all
//! ff-campaign list --all --scale paper
//! ff-campaign status
//! ff-campaign submit --server http://127.0.0.1:7878 --scale test --wait
//! ff-campaign status --server http://127.0.0.1:7878 --id c1
//! ff-campaign fetch  --server http://127.0.0.1:7878 --id c1 --out fetched/
//! ff-campaign render --server http://127.0.0.1:7878 --scale test
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use ff_experiments::{HierKind, ModelKind, UnknownBenchmark};
use ff_harness::{
    artifact::spec_from_artifact,
    full_grid,
    job::parse_scale,
    job::scale_name,
    read_manifest,
    remote::{campaign_status, fetch_artifact, submit_campaign},
    render_all, run_campaign, write_manifest, ArtifactStore, CampaignOptions, CampaignRequest,
    ExecOptions, JobFilter, JobSpec, ServerUrl, ShardedStore,
};
use ff_workloads::{Scale, Workload};

const USAGE: &str = "\
ff-campaign — parallel experiment campaign runner

USAGE:
    ff-campaign run    [OPTIONS]   execute the campaign (resumes from checkpoint)
    ff-campaign resume [OPTIONS]   alias for `run`
    ff-campaign list   [OPTIONS]   print the job plan without running it
    ff-campaign status [--out DIR] summarize the last run's manifest
    ff-campaign fsck   [--out DIR] verify every artifact's checksum footer:
                                   corrupt files move to <out>/corrupt/ (with a
                                   ledger line), orphaned .tmp files are swept;
                                   a following `run` re-simulates the quarantined
                                   configs from scratch
    ff-campaign submit --server URL [OPTIONS] [--wait]
                                   submit the plan to a running ff-server
    ff-campaign status --server URL --id ID
                                   poll a submitted campaign's status
    ff-campaign fetch  --server URL (--id ID | --hash H) [--out DIR]
                                   download artifacts into a local sharded store
    ff-campaign render --server URL [--scale S] [--results DIR]
                                   render the results files from a server's store

OPTIONS:
    --all                 the full grid + seed-sensitivity + report jobs (default)
    --filter KEY=VALUE    keep only matching sim jobs; repeatable; keys:
                          model, hier, bench, seed (e.g. --filter model=MP)
    --scale test|paper    workload scale (default: test)
    --jobs N              worker threads (default: available parallelism)
    --retries N           extra attempts per failed job (default: 0)
    --cycle-budget N      per-job watchdog: abort a simulation after N cycles
    --sentinels           run every simulation under the ff-sentinel invariant
                          checkers; a violation fails the job
    --quarantine-after N  skip jobs that failed N consecutive prior runs
                          (ledger: <out>/quarantine.json; --force bypasses)
    --out DIR             artifact directory (default: results/campaign/<scale>)
    --results DIR         where `run` renders the results files (default: results)
    --force               re-run jobs even when a valid artifact exists, and
                          retry quarantined jobs
    --no-render           skip rendering the results files after the run
    --quiet               suppress per-job progress lines
    --server URL          campaign service address (http://host:port) for the
                          submit/status/fetch/render client commands
    --id ID               campaign id (from `submit`) for status/fetch
    --hash HEX            16-hex config hash for `fetch`
    --wait                after `submit`, poll until the campaign finishes
    --help                this text

Failed simulations leave a replayable crash bundle under <out>/bundles/;
replay one with `cargo run --release --example compare_divergence -- --bundle <path>`.

`run` exits 0 when every job succeeded (or was cached), 1 when any job
failed or was quarantined, and 2 on usage errors.";

struct Cli {
    cmd: String,
    scale: Scale,
    jobs: usize,
    retries: u32,
    exec: ExecOptions,
    quarantine_after: Option<u32>,
    out: Option<PathBuf>,
    results: PathBuf,
    force: bool,
    render: bool,
    quiet: bool,
    filter: JobFilter,
    server: Option<String>,
    id: Option<String>,
    hash: Option<String>,
    wait: bool,
}

fn usage_err(msg: &str) -> String {
    format!("{msg}\n\n{USAGE}")
}

fn parse_filter(filter: &mut JobFilter, kv: &str) -> Result<(), String> {
    let (key, value) = kv
        .split_once('=')
        .ok_or_else(|| usage_err(&format!("bad --filter `{kv}` (want KEY=VALUE)")))?;
    match key {
        "model" => filter.models.push(ModelKind::parse(value).ok_or_else(|| {
            let names: Vec<&str> = ModelKind::ALL.iter().map(|m| m.name()).collect();
            usage_err(&format!("unknown model {value:?}; valid names: {}", names.join(", ")))
        })?),
        "hier" => filter.hiers.push(HierKind::parse(value).ok_or_else(|| {
            let names: Vec<&str> = HierKind::ALL.iter().map(|h| h.name()).collect();
            usage_err(&format!("unknown hierarchy {value:?}; valid names: {}", names.join(", ")))
        })?),
        "bench" => {
            // Validate up front so a typo fails before hours of simulation.
            if !Workload::NAMES.contains(&value) {
                return Err(usage_err(&UnknownBenchmark { name: value.to_string() }.to_string()));
            }
            filter.benches.push(value.to_string());
        }
        "seed" => {
            filter.seeds.push(value.parse().map_err(|_| usage_err(&format!("bad seed `{value}`")))?)
        }
        other => return Err(usage_err(&format!("unknown filter key `{other}`"))),
    }
    Ok(())
}

fn parse_cli(argv: &[String]) -> Result<Cli, String> {
    let cmd = argv.first().cloned().unwrap_or_default();
    if cmd.is_empty() || cmd == "--help" || cmd == "-h" || cmd == "help" {
        return Err(USAGE.to_string());
    }
    if !matches!(
        cmd.as_str(),
        "run" | "resume" | "list" | "status" | "fsck" | "submit" | "fetch" | "render"
    ) {
        return Err(usage_err(&format!("unknown command `{cmd}`")));
    }
    let mut cli = Cli {
        cmd,
        scale: Scale::Test,
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
        retries: 0,
        exec: ExecOptions::default(),
        quarantine_after: None,
        out: None,
        results: PathBuf::from("results"),
        force: false,
        render: true,
        quiet: false,
        filter: JobFilter::default(),
        server: None,
        id: None,
        hash: None,
        wait: false,
    };
    let mut it = argv[1..].iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next().cloned().ok_or_else(|| usage_err(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--all" => {} // the default plan; accepted for explicitness
            "--filter" => parse_filter(&mut cli.filter, &value("--filter")?)?,
            "--scale" => {
                let v = value("--scale")?;
                cli.scale = parse_scale(&v)
                    .ok_or_else(|| usage_err(&format!("bad --scale `{v}` (want test|paper)")))?;
            }
            "--jobs" => {
                let v = value("--jobs")?;
                cli.jobs = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| usage_err(&format!("bad --jobs `{v}`")))?;
            }
            "--retries" => {
                let v = value("--retries")?;
                cli.retries = v.parse().map_err(|_| usage_err(&format!("bad --retries `{v}`")))?;
            }
            "--cycle-budget" => {
                let v = value("--cycle-budget")?;
                cli.exec.cycle_budget =
                    Some(v.parse().map_err(|_| usage_err(&format!("bad --cycle-budget `{v}`")))?);
            }
            "--sentinels" => cli.exec.sentinels = true,
            "--quarantine-after" => {
                let v = value("--quarantine-after")?;
                cli.quarantine_after = Some(
                    v.parse::<u32>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| usage_err(&format!("bad --quarantine-after `{v}`")))?,
                );
            }
            "--out" => cli.out = Some(PathBuf::from(value("--out")?)),
            "--results" => cli.results = PathBuf::from(value("--results")?),
            "--force" => cli.force = true,
            "--no-render" => cli.render = false,
            "--quiet" => cli.quiet = true,
            "--server" => cli.server = Some(value("--server")?),
            "--id" => cli.id = Some(value("--id")?),
            "--hash" => cli.hash = Some(value("--hash")?),
            "--wait" => cli.wait = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(usage_err(&format!("unknown option `{other}`"))),
        }
    }
    Ok(cli)
}

fn plan(cli: &Cli) -> Vec<JobSpec> {
    full_grid(cli.scale).into_iter().filter(|j| cli.filter.matches(j)).collect()
}

fn out_dir(cli: &Cli) -> PathBuf {
    cli.out.clone().unwrap_or_else(|| PathBuf::from("results/campaign").join(scale_name(cli.scale)))
}

fn cmd_list(cli: &Cli) -> ExitCode {
    let jobs = plan(cli);
    for j in &jobs {
        println!("{}  {:016x}", j.id(), j.config_hash());
    }
    eprintln!("{} jobs at {} scale", jobs.len(), scale_name(cli.scale));
    ExitCode::SUCCESS
}

fn parse_server(cli: &Cli) -> Result<ServerUrl, String> {
    let raw = cli
        .server
        .as_deref()
        .ok_or_else(|| usage_err("this command needs --server http://host:port"))?;
    ServerUrl::parse(raw).map_err(|e| usage_err(&e))
}

fn cmd_fsck(cli: &Cli) -> ExitCode {
    let dir = out_dir(cli);
    match ff_harness::integrity::fsck(&dir) {
        Ok(report) => {
            eprintln!("ff-campaign: fsck {}: {}", dir.display(), report.summary());
            for (file, reason) in &report.corrupt {
                eprintln!("  corrupt: {file} ({reason})");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ff-campaign: fsck {}: {e}", dir.display());
            ExitCode::FAILURE
        }
    }
}

fn print_remote_status(status: &ff_harness::CampaignStatus) {
    let counts: Vec<String> = status.counts.iter().map(|(k, v)| format!("{v} {k}")).collect();
    eprintln!(
        "campaign {} ({} scale): {}{}",
        status.id,
        status.scale,
        if counts.is_empty() { "no jobs".to_string() } else { counts.join(", ") },
        if status.done { " [done]" } else { "" },
    );
    for j in status.failed() {
        eprintln!("  failed: {} ({})", j.id, j.error.as_deref().unwrap_or("unknown"));
    }
}

fn cmd_submit(cli: &Cli) -> ExitCode {
    let url = match parse_server(cli) {
        Ok(u) => u,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    // Mirror `run`: report jobs ride along only with an unconstrained
    // filter, so a submitted plan matches a local `run` plan exactly.
    let req = CampaignRequest {
        scale: cli.scale,
        filter: cli.filter.clone(),
        reports: cli.filter.is_empty(),
    };
    let (id, total) = match submit_campaign(&url, &req) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ff-campaign: submit: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{id}");
    eprintln!("ff-campaign: submitted campaign {id} ({total} jobs) to {url}");
    if !cli.wait {
        return ExitCode::SUCCESS;
    }
    loop {
        match campaign_status(&url, &id) {
            Ok(status) if status.done => {
                print_remote_status(&status);
                let failed = status.counts.get("failed").copied().unwrap_or(0)
                    + status.counts.get("quarantined").copied().unwrap_or(0);
                return if failed > 0 { ExitCode::FAILURE } else { ExitCode::SUCCESS };
            }
            Ok(_) => std::thread::sleep(std::time::Duration::from_millis(200)),
            Err(e) => {
                eprintln!("ff-campaign: status {id}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
}

fn cmd_remote_status(cli: &Cli) -> ExitCode {
    let url = match parse_server(cli) {
        Ok(u) => u,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let Some(id) = cli.id.as_deref() else {
        eprintln!("{}", usage_err("status --server needs --id"));
        return ExitCode::from(2);
    };
    match campaign_status(&url, id) {
        Ok(status) => {
            print_remote_status(&status);
            if status.done && status.failed().is_empty() {
                ExitCode::SUCCESS
            } else if status.done {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("ff-campaign: status {id}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Downloads one artifact and publishes it into the local sharded store
/// under its proper content-addressed name (reconstructed from the
/// embedded job descriptor).
fn fetch_one(url: &ServerUrl, store: &ShardedStore, hash: &str) -> Result<PathBuf, String> {
    let text = fetch_artifact(url, hash)?;
    let spec = spec_from_artifact(&text).map_err(|e| format!("artifact {hash}: {e}"))?;
    store.publish(&spec, &text).map_err(|e| format!("write artifact {hash}: {e}"))
}

fn cmd_fetch(cli: &Cli) -> ExitCode {
    let url = match parse_server(cli) {
        Ok(u) => u,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let dir = out_dir(cli);
    let store = match ShardedStore::open(&dir) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("ff-campaign: open {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    let hashes: Vec<String> = if let Some(hash) = cli.hash.as_deref() {
        // Validate the shape locally so a typo is a usage error here, not
        // a server-side 400 (the hash becomes a URL path component).
        if ff_harness::parse_hash16(hash).is_none() {
            eprintln!(
                "{}",
                usage_err(&format!(
                    "bad --hash `{hash}` (want exactly 16 lowercase hex characters)"
                ))
            );
            return ExitCode::from(2);
        }
        vec![hash.to_string()]
    } else if let Some(id) = cli.id.as_deref() {
        match campaign_status(&url, id) {
            Ok(status) => status
                .jobs
                .iter()
                .filter(|j| matches!(j.status.as_str(), "ok" | "hit" | "dedup" | "cached"))
                .map(|j| j.hash.clone())
                .collect(),
            Err(e) => {
                eprintln!("ff-campaign: status {id}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        eprintln!("{}", usage_err("fetch needs --hash HEX or --id ID"));
        return ExitCode::from(2);
    };
    let mut fetched = 0usize;
    for hash in &hashes {
        match fetch_one(&url, &store, hash) {
            Ok(path) => {
                fetched += 1;
                if !cli.quiet {
                    eprintln!("fetched {hash} -> {}", path.display());
                }
            }
            Err(e) => {
                eprintln!("ff-campaign: fetch: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    eprintln!("ff-campaign: fetched {fetched} artifacts into {}", dir.display());
    ExitCode::SUCCESS
}

fn cmd_remote_render(cli: &Cli) -> ExitCode {
    let url = match parse_server(cli) {
        Ok(u) => u,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut source = ArtifactStore::remote(url, cli.scale);
    match render_all(&mut source, cli.scale, &cli.results, 0.0) {
        Ok(written) => {
            eprintln!("ff-campaign: rendered {} results files from the server", written.len());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ff-campaign: rendering from server: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_status(cli: &Cli) -> ExitCode {
    let dir = out_dir(cli);
    match read_manifest(&dir) {
        Ok(m) => {
            println!(
                "campaign at {}: scale {}, {} workers, git {}, wall {:.1}s",
                dir.display(),
                m.scale,
                m.workers,
                m.git,
                m.wall_s
            );
            println!(
                "jobs: {} ok, {} cached, {} failed, {} quarantined",
                m.ok, m.cached, m.failed, m.quarantined
            );
            for id in &m.failed_ids {
                println!("  failed: {id}");
            }
            if m.failed + m.quarantined > 0 {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("ff-campaign: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The peak resident set size in MiB, from the `VmHWM` line of a
/// `/proc/<pid>/status` text.
fn peak_rss_mib(status: &str) -> Option<f64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: f64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kib / 1024.0)
}

fn cmd_run(cli: &Cli) -> ExitCode {
    let jobs = plan(cli);
    if jobs.is_empty() {
        eprintln!("ff-campaign: the filter matches no jobs");
        return ExitCode::from(2);
    }
    let dir = out_dir(cli);
    let mut opts = CampaignOptions::new(cli.scale, &dir);
    opts.workers = cli.jobs;
    opts.attempts = cli.retries + 1;
    opts.exec = cli.exec;
    opts.force = cli.force;
    opts.progress = !cli.quiet;
    opts.quarantine_after = cli.quarantine_after;
    if !cli.quiet {
        eprintln!(
            "ff-campaign: {} jobs at {} scale on {} workers -> {}",
            jobs.len(),
            scale_name(cli.scale),
            opts.workers,
            dir.display()
        );
    }
    let report = match run_campaign(&jobs, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ff-campaign: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = write_manifest(&dir, &report) {
        eprintln!("ff-campaign: writing manifest: {e}");
        return ExitCode::FAILURE;
    }
    // Where the kernel reports it, the process's peak memory ends the line.
    let peak = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| peak_rss_mib(&status))
        .map_or_else(String::new, |mib| format!(", peak RSS {mib:.1} MiB"));
    eprintln!(
        "ff-campaign: {} ok, {} cached, {} failed, {} quarantined in {:.1}s{peak}",
        report.ok(),
        report.cached(),
        report.failed(),
        report.quarantined(),
        report.wall_s
    );
    for f in report.failures() {
        let err = f.error.as_ref().map_or_else(|| "unknown".to_string(), |e| e.to_string());
        eprintln!("  failed: {} ({err})", f.spec.id());
    }
    for q in report.quarantined_jobs() {
        eprintln!("  quarantined: {}", q.spec.id());
    }
    if report.failed() + report.quarantined() > 0 {
        return ExitCode::FAILURE;
    }
    // Rendering needs the complete artifact set; a filtered run keeps its
    // artifacts but cannot regenerate the aggregate results files.
    if cli.render && cli.filter.is_empty() {
        let mut store = ArtifactStore::new(&dir, cli.scale);
        match render_all(&mut store, cli.scale, &cli.results, report.wall_s) {
            Ok(written) => {
                if !cli.quiet {
                    eprintln!("ff-campaign: rendered {} results files", written.len());
                }
            }
            Err(e) => {
                eprintln!("ff-campaign: rendering results: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else if cli.render && !cli.quiet {
        eprintln!("ff-campaign: filtered run; skipping results rendering");
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    // Deterministic fault injection for the chaos suite: honored only
    // when FF_CHAOS is set (see `ff_harness::chaos`); the guard keeps the
    // policy installed for the process lifetime.
    let _chaos = ff_harness::chaos::install_from_env();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&argv) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match cli.cmd.as_str() {
        "run" | "resume" => cmd_run(&cli),
        "list" => cmd_list(&cli),
        "status" if cli.server.is_some() => cmd_remote_status(&cli),
        "status" => cmd_status(&cli),
        "fsck" => cmd_fsck(&cli),
        "submit" => cmd_submit(&cli),
        "fetch" => cmd_fetch(&cli),
        "render" => cmd_remote_render(&cli),
        _ => unreachable!("parse_cli validated the command"),
    }
}

#[cfg(test)]
mod tests {
    use super::peak_rss_mib;

    #[test]
    fn peak_rss_is_read_from_vm_hwm() {
        let status =
            "Name:\tff-campaign\nVmPeak:\t  204800 kB\nVmHWM:\t   24780 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(peak_rss_mib(status), Some(24780.0 / 1024.0));
        assert_eq!(peak_rss_mib("Name:\tff-campaign\n"), None);
    }
}
