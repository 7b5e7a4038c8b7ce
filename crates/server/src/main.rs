//! The `ff-server` binary: a long-running campaign service.
//!
//! Listens for campaign submissions over HTTP/JSON, drains them on a
//! panic-isolated simulation worker pool, and memoizes every artifact in
//! a sharded store. `SIGTERM`/`SIGINT` (or `POST /shutdown`) triggers a
//! graceful exit: in-flight simulations finish and every campaign's
//! progress is checkpointed as a manifest; restarting against the same
//! store resumes them with zero re-simulation.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use ff_harness::campaign::ExecOptions;
use ff_server::{SchedulerOptions, Server};

const USAGE: &str = "\
ff-server: the campaign service daemon

USAGE:
    ff-server [OPTIONS]

OPTIONS:
    --addr HOST:PORT      listen address (default 127.0.0.1:7878; port 0
                          picks an ephemeral port)
    --store DIR           artifact store root (default results/store)
    --jobs N              simulation worker threads (default: cores)
    --retries N           extra attempts per failed job (default 0)
    --cycle-budget N      per-job watchdog: fail a simulation after N cycles
    --sentinels           run simulations under the invariant checker set
    --quarantine-after N  skip configs with N consecutive recorded failures
    --port-file PATH      write the bound port to PATH once listening
                          (for scripts using --addr with port 0)
    --help                print this help
";

struct Cli {
    addr: String,
    store: String,
    jobs: Option<usize>,
    retries: u32,
    exec: ExecOptions,
    quarantine_after: Option<u32>,
    port_file: Option<String>,
}

/// Parses `flag`'s value as a count of at least 1.
fn count<T: std::str::FromStr + From<u8> + PartialOrd>(flag: &str, v: &str) -> Result<T, String> {
    v.parse().ok().filter(|n| *n >= T::from(1)).ok_or_else(|| format!("{flag} needs a number >= 1"))
}

/// Parses the command line, `args` excluding the program name.
fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        addr: "127.0.0.1:7878".to_string(),
        store: "results/store".to_string(),
        jobs: None,
        retries: 0,
        exec: ExecOptions::default(),
        quarantine_after: None,
        port_file: None,
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--addr" => cli.addr = value("--addr")?.clone(),
            "--store" => cli.store = value("--store")?.clone(),
            "--jobs" => cli.jobs = Some(count("--jobs", value("--jobs")?)?),
            "--retries" => {
                cli.retries =
                    value("--retries")?.parse().map_err(|_| "--retries needs a number")?;
            }
            "--cycle-budget" => {
                cli.exec.cycle_budget = Some(
                    value("--cycle-budget")?
                        .parse()
                        .map_err(|_| "--cycle-budget needs a number")?,
                );
            }
            "--sentinels" => cli.exec.sentinels = true,
            "--quarantine-after" => {
                cli.quarantine_after =
                    Some(count("--quarantine-after", value("--quarantine-after")?)?);
            }
            "--port-file" => cli.port_file = Some(value("--port-file")?.clone()),
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown option `{other}` (try --help)")),
        }
    }
    Ok(cli)
}

/// Set by the SIGTERM/SIGINT handler; polled by the main loop.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    // The build environment is offline, so no signal crate: bind libc's
    // signal(2) directly. The handler only stores to an atomic, which is
    // async-signal-safe. Confined to the binary — the library crates all
    // forbid unsafe code.
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    extern "C" fn on_signal(_signum: i32) {
        SIGNALLED.store(true, Ordering::SeqCst);
    }
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

fn main() -> ExitCode {
    let cli = match parse_args(&std::env::args().skip(1).collect::<Vec<_>>()) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("ff-server: {msg}");
            return ExitCode::FAILURE;
        }
    };
    install_signal_handlers();
    let opts = SchedulerOptions {
        workers: cli
            .jobs
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get())),
        attempts: cli.retries + 1,
        exec: cli.exec,
        quarantine_after: cli.quarantine_after,
    };
    let workers = opts.workers;
    let server = match Server::start(&cli.addr, &cli.store, opts) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("ff-server: could not start on {}: {e}", cli.addr);
            return ExitCode::FAILURE;
        }
    };
    let addr = server.addr();
    if let Some(path) = &cli.port_file {
        if let Err(e) = std::fs::write(path, format!("{}\n", addr.port())) {
            eprintln!("ff-server: could not write port file {path}: {e}");
            server.shutdown();
            return ExitCode::FAILURE;
        }
    }
    println!("ff-server: listening on http://{addr} (store {}, {workers} workers)", cli.store);
    while !SIGNALLED.load(Ordering::SeqCst) && !server.wants_shutdown() {
        std::thread::sleep(Duration::from_millis(100));
    }
    println!("ff-server: shutting down (checkpointing campaigns)");
    server.shutdown();
    println!("ff-server: checkpoint complete");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn zero_workers_are_rejected() {
        assert_eq!(parse(&["--jobs", "2"]).unwrap().jobs, Some(2));
        assert_eq!(parse(&["--jobs", "0"]).err().unwrap(), "--jobs needs a number >= 1");
        assert!(parse(&["--jobs", "many"]).is_err());
    }

    #[test]
    fn a_zero_quarantine_threshold_is_rejected() {
        assert_eq!(parse(&["--quarantine-after", "3"]).unwrap().quarantine_after, Some(3));
        assert_eq!(
            parse(&["--quarantine-after", "0"]).err().unwrap(),
            "--quarantine-after needs a number >= 1"
        );
    }
}
