//! Command-line argument handling for the `bgpsim` binary.
//!
//! Kept dependency-free: the grammar is small and a hand-rolled parser
//! keeps the CLI testable without pulling an argument-parsing crate
//! into the library's dependency tree.

use std::error::Error;
use std::fmt;

use bgpsim_core::{Enhancements, Jitter};
use bgpsim_experiments::scenario::{EventKind, TopologySpec};

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct CliOptions {
    /// Topology specification.
    pub topology: TopologySpec,
    /// Failure event class.
    pub event: EventKind,
    /// MRAI in seconds.
    pub mrai_secs: u64,
    /// MRAI jitter.
    pub jitter: Jitter,
    /// Enhancement set.
    pub enhancements: Enhancements,
    /// Seed.
    pub seed: u64,
    /// Emit machine-readable JSON instead of the human report.
    pub json: bool,
    /// Print the post-failure route-change timeline.
    pub trace: bool,
    /// Stream structured JSONL trace events to this file
    /// (`None` = `BGPSIM_TRACE`, else tracing disabled).
    pub trace_out: Option<String>,
    /// Runner worker count override (`None` = `BGPSIM_JOBS` / auto).
    pub jobs: Option<usize>,
    /// Run-cache directory override (`None` = `BGPSIM_CACHE_DIR`).
    pub cache_dir: Option<String>,
    /// Run jobs in supervised child processes (`None` =
    /// `BGPSIM_ISOLATE`, else in-process). Pure execution policy:
    /// results are byte-identical either way.
    pub isolate: Option<bool>,
}

impl Default for CliOptions {
    fn default() -> Self {
        CliOptions {
            topology: TopologySpec::Clique(10),
            event: EventKind::TDown,
            mrai_secs: 30,
            jitter: Jitter::SSFNET,
            enhancements: Enhancements::standard(),
            seed: 0,
            json: false,
            trace: false,
            trace_out: None,
            jobs: None,
            cache_dir: None,
            isolate: None,
        }
    }
}

/// Error produced by [`parse_args`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Error for CliError {}

/// The usage text.
pub const USAGE: &str = "\
bgpsim — simulate BGP transient route looping (ICDCS 2004 reproduction)

USAGE:
  bgpsim [OPTIONS]

OPTIONS:
  --topology <SPEC>     clique:<n> | bclique:<n> | internet:<n>[:<topo-seed>]
                        (default clique:10)
  --event <KIND>        tdown | tlong            (default tdown)
  --mrai <SECS>         MRAI timer value          (default 30)
  --no-jitter           disable MRAI jitter
  --enhancement <E>     none | ssld | wrate | assertion | ghost-flushing
                        (default none)
  --seed <N>            RNG seed                  (default 0)
  --json                emit metrics as JSON
  --trace               print the post-failure route-change timeline
  --trace-out <FILE>    stream structured JSONL trace events to FILE
                        (default: $BGPSIM_TRACE, else off)
  --jobs <N>            runner worker count       (default: $BGPSIM_JOBS,
                        else available parallelism; 1 = serial)
  --cache-dir <DIR>     reuse run results cached in DIR
                        (default: $BGPSIM_CACHE_DIR, else uncached)
  --isolate             run each job in a supervised child process
                        (crash tolerance; results byte-identical;
                        default: $BGPSIM_ISOLATE, else off)
  --help                show this text

SUBCOMMANDS:
  bgpsim serve …        long-running experiment service (see serve --help)
  bgpsim recover …      replay the write-ahead journal after a crash
                        (see recover --help)
";

/// A parsed `bgpsim serve` invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOptions {
    /// Listen address (`host:port`; port `0` = ephemeral).
    pub addr: String,
    /// Executor worker threads draining the run queue.
    pub exec_workers: usize,
    /// Runner worker count override (`None` = `BGPSIM_JOBS` / auto).
    pub jobs: Option<usize>,
    /// Run-cache directory override (`None` = `BGPSIM_CACHE_DIR`).
    pub cache_dir: Option<String>,
    /// Journal file override (`None` = `BGPSIM_JOURNAL`).
    pub journal: Option<String>,
    /// Trace output override (`None` = `BGPSIM_TRACE`).
    pub trace_out: Option<String>,
    /// Cap on queued (admitted, not yet started) runs.
    pub max_queued_runs: usize,
    /// Per-client concurrent-job quota (`None` = unlimited).
    pub max_jobs_per_client: Option<usize>,
    /// Per-client cumulative event budget (`None` = unlimited).
    pub event_budget: Option<u64>,
    /// Process isolation for jobs. Defaults to **on** for the daemon
    /// (a client's crashing job must never kill the service);
    /// `--no-isolate` opts out.
    pub isolate: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:8355".to_string(),
            exec_workers: 2,
            jobs: None,
            cache_dir: None,
            journal: None,
            trace_out: None,
            max_queued_runs: 1024,
            max_jobs_per_client: Some(64),
            event_budget: None,
            isolate: true,
        }
    }
}

/// The usage text for `bgpsim serve`.
pub const SERVE_USAGE: &str = "\
bgpsim serve — long-running experiment service over the batch runner

USAGE:
  bgpsim serve [OPTIONS]

OPTIONS:
  --addr <HOST:PORT>      listen address            (default 127.0.0.1:8355)
  --exec-workers <N>      executor threads          (default 2)
  --jobs <N>              runner worker count       (default: $BGPSIM_JOBS,
                          else available parallelism)
  --cache-dir <DIR>       shared run cache in DIR   (default: $BGPSIM_CACHE_DIR)
  --journal <FILE>        per-job JSONL journal     (default: $BGPSIM_JOURNAL)
  --trace-out <FILE>      JSONL trace events        (default: $BGPSIM_TRACE)
  --max-queued-runs <N>   pending-run queue cap     (default 1024)
  --max-jobs-per-client <N>
                          concurrent jobs per API key (default 64; 0 = off)
  --event-budget <N>      cumulative simulation-event budget per API key
                          (default unlimited)
  --no-isolate            run jobs in-process instead of supervised child
                          workers (isolation is ON by default for the
                          daemon; --isolate restores the default)
  --help                  show this text

On startup the daemon replays its write-ahead journal (`--journal`)
against the run cache and reports what a previous crash interrupted,
then drains (finishes in-flight jobs, flushes the journal, exits) on
POST /v1/drain; there is no signal-based shutdown.
";

/// Parses the arguments of the `serve` subcommand (without the program
/// name or the `serve` token itself).
///
/// # Errors
///
/// Returns a [`CliError`] describing the offending argument.
pub fn parse_serve_args<I, S>(args: I) -> Result<ServeOptions, CliError>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut opts = ServeOptions::default();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        let arg = arg.as_ref();
        match arg {
            "--addr" => {
                let v = expect_value(&mut iter, arg)?;
                opts.addr = v.as_ref().to_string();
            }
            "--exec-workers" => {
                let v = expect_value(&mut iter, arg)?;
                let n = parse_num(v.as_ref(), arg)? as usize;
                if n == 0 {
                    return Err(CliError("--exec-workers must be at least 1".to_string()));
                }
                opts.exec_workers = n;
            }
            "--jobs" => {
                let v = expect_value(&mut iter, arg)?;
                let n = parse_num(v.as_ref(), arg)? as usize;
                if n == 0 {
                    return Err(CliError("--jobs must be at least 1".to_string()));
                }
                opts.jobs = Some(n);
            }
            "--cache-dir" => {
                let v = expect_value(&mut iter, arg)?;
                opts.cache_dir = Some(v.as_ref().to_string());
            }
            "--journal" => {
                let v = expect_value(&mut iter, arg)?;
                opts.journal = Some(v.as_ref().to_string());
            }
            "--trace-out" => {
                let v = expect_value(&mut iter, arg)?;
                opts.trace_out = Some(v.as_ref().to_string());
            }
            "--max-queued-runs" => {
                let v = expect_value(&mut iter, arg)?;
                let n = parse_num(v.as_ref(), arg)? as usize;
                if n == 0 {
                    return Err(CliError("--max-queued-runs must be at least 1".to_string()));
                }
                opts.max_queued_runs = n;
            }
            "--max-jobs-per-client" => {
                let v = expect_value(&mut iter, arg)?;
                let n = parse_num(v.as_ref(), arg)? as usize;
                opts.max_jobs_per_client = if n == 0 { None } else { Some(n) };
            }
            "--event-budget" => {
                let v = expect_value(&mut iter, arg)?;
                opts.event_budget = Some(parse_num(v.as_ref(), arg)?);
            }
            "--isolate" => opts.isolate = true,
            "--no-isolate" => opts.isolate = false,
            "--help" | "-h" => return Err(CliError(SERVE_USAGE.to_string())),
            other => return Err(CliError(format!("unknown option {other:?}"))),
        }
    }
    Ok(opts)
}

/// A parsed `bgpsim recover` invocation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoverOptions {
    /// Journal to replay (`None` = `BGPSIM_JOURNAL`).
    pub journal: Option<String>,
    /// Run cache to reconcile against (`None` = `BGPSIM_CACHE_DIR`).
    pub cache_dir: Option<String>,
}

/// The usage text for `bgpsim recover`.
pub const RECOVER_USAGE: &str = "\
bgpsim recover — replay the write-ahead journal after a crash

USAGE:
  bgpsim recover [--journal <FILE>] [--cache-dir <DIR>]

Replays the JSONL journal (default: $BGPSIM_JOURNAL), reconciles every
job_started intent against job_done / job_crashed records and the run
cache (default: $BGPSIM_CACHE_DIR), sweeps stale cache temp files, and
prints what the previous process lifetime left behind. Idempotent and
read-only except for the temp-file sweep; `bgpsim serve` runs the same
pass automatically at startup.

Exit status: 0 on a clean journal, 1 when interrupted work was found
(re-running the sweep will finish it — completed jobs are served from
the cache).
";

/// Parses the arguments of the `recover` subcommand (without the
/// program name or the `recover` token itself).
///
/// # Errors
///
/// Returns a [`CliError`] describing the offending argument.
pub fn parse_recover_args<I, S>(args: I) -> Result<RecoverOptions, CliError>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut opts = RecoverOptions::default();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        let arg = arg.as_ref();
        match arg {
            "--journal" => {
                let v = expect_value(&mut iter, arg)?;
                opts.journal = Some(v.as_ref().to_string());
            }
            "--cache-dir" => {
                let v = expect_value(&mut iter, arg)?;
                opts.cache_dir = Some(v.as_ref().to_string());
            }
            "--help" | "-h" => return Err(CliError(RECOVER_USAGE.to_string())),
            other => return Err(CliError(format!("unknown option {other:?}"))),
        }
    }
    Ok(opts)
}

/// Parses an argument list (without the program name).
///
/// # Errors
///
/// Returns a [`CliError`] describing the offending argument.
pub fn parse_args<I, S>(args: I) -> Result<CliOptions, CliError>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut opts = CliOptions::default();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        let arg = arg.as_ref();
        match arg {
            "--topology" => {
                let v = expect_value(&mut iter, arg)?;
                opts.topology = parse_topology(v.as_ref())?;
            }
            "--event" => {
                let v = expect_value(&mut iter, arg)?;
                opts.event = parse_event(v.as_ref())?;
            }
            "--mrai" => {
                let v = expect_value(&mut iter, arg)?;
                opts.mrai_secs = parse_num(v.as_ref(), "--mrai")?;
            }
            "--no-jitter" => opts.jitter = Jitter::NONE,
            "--enhancement" => {
                let v = expect_value(&mut iter, arg)?;
                opts.enhancements = match v.as_ref() {
                    "none" => Enhancements::standard(),
                    "ssld" => Enhancements::ssld(),
                    "wrate" => Enhancements::wrate(),
                    "assertion" => Enhancements::assertion(),
                    "ghost-flushing" | "ghost" => Enhancements::ghost_flushing(),
                    other => return Err(CliError(format!("unknown enhancement {other:?}"))),
                };
            }
            "--seed" => {
                let v = expect_value(&mut iter, arg)?;
                opts.seed = parse_num(v.as_ref(), "--seed")?;
            }
            "--json" => opts.json = true,
            "--trace" => opts.trace = true,
            "--trace-out" => {
                let v = expect_value(&mut iter, arg)?;
                opts.trace_out = Some(v.as_ref().to_string());
            }
            "--jobs" => {
                let v = expect_value(&mut iter, arg)?;
                let n = parse_num(v.as_ref(), "--jobs")? as usize;
                if n == 0 {
                    return Err(CliError("--jobs must be at least 1".to_string()));
                }
                opts.jobs = Some(n);
            }
            "--cache-dir" => {
                let v = expect_value(&mut iter, arg)?;
                opts.cache_dir = Some(v.as_ref().to_string());
            }
            "--isolate" => opts.isolate = Some(true),
            "--no-isolate" => opts.isolate = Some(false),
            "--help" | "-h" => return Err(CliError(USAGE.to_string())),
            other => return Err(CliError(format!("unknown option {other:?}"))),
        }
    }
    Ok(opts)
}

fn expect_value<I, S>(iter: &mut I, flag: &str) -> Result<S, CliError>
where
    I: Iterator<Item = S>,
    S: AsRef<str>,
{
    iter.next()
        .ok_or_else(|| CliError(format!("{flag} requires a value")))
}

fn parse_event(v: &str) -> Result<EventKind, CliError> {
    match v {
        "tdown" => Ok(EventKind::TDown),
        "tlong" => Ok(EventKind::TLong),
        other => Err(CliError(format!("unknown event {other:?}"))),
    }
}

fn parse_num(v: &str, flag: &str) -> Result<u64, CliError> {
    v.parse()
        .map_err(|e| CliError(format!("{flag}: bad number {v:?}: {e}")))
}

fn parse_topology(spec: &str) -> Result<TopologySpec, CliError> {
    let parts: Vec<&str> = spec.split(':').collect();
    let bad = || CliError(format!("bad topology spec {spec:?}"));
    match parts.as_slice() {
        ["clique", n] => Ok(TopologySpec::Clique(n.parse().map_err(|_| bad())?)),
        ["bclique", n] => Ok(TopologySpec::BClique(n.parse().map_err(|_| bad())?)),
        ["internet", n] => Ok(TopologySpec::InternetLike {
            n: n.parse().map_err(|_| bad())?,
            topo_seed: 0,
        }),
        ["internet", n, ts] => Ok(TopologySpec::InternetLike {
            n: n.parse().map_err(|_| bad())?,
            topo_seed: ts.parse().map_err(|_| bad())?,
        }),
        _ => Err(bad()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_when_empty() {
        let opts = parse_args(Vec::<&str>::new()).unwrap();
        assert_eq!(opts, CliOptions::default());
    }

    #[test]
    fn full_invocation() {
        let opts = parse_args([
            "--topology",
            "bclique:10",
            "--event",
            "tlong",
            "--mrai",
            "15",
            "--no-jitter",
            "--enhancement",
            "ghost-flushing",
            "--seed",
            "9",
            "--json",
            "--trace",
            "--trace-out",
            "/tmp/run.jsonl",
            "--jobs",
            "4",
            "--cache-dir",
            "/tmp/bgpsim-cache",
            "--isolate",
        ])
        .unwrap();
        assert_eq!(opts.topology, TopologySpec::BClique(10));
        assert_eq!(opts.event, EventKind::TLong);
        assert_eq!(opts.mrai_secs, 15);
        assert_eq!(opts.jitter, Jitter::NONE);
        assert!(opts.enhancements.ghost_flushing);
        assert_eq!(opts.seed, 9);
        assert!(opts.json);
        assert!(opts.trace);
        assert_eq!(opts.trace_out.as_deref(), Some("/tmp/run.jsonl"));
        assert_eq!(opts.jobs, Some(4));
        assert_eq!(opts.cache_dir.as_deref(), Some("/tmp/bgpsim-cache"));
        assert_eq!(opts.isolate, Some(true));
        let opts = parse_args(["--no-isolate"]).unwrap();
        assert_eq!(opts.isolate, Some(false));
    }

    #[test]
    fn jobs_rejects_zero() {
        let err = parse_args(["--jobs", "0"]).unwrap_err();
        assert!(err.to_string().contains("at least 1"));
    }

    #[test]
    fn topology_specs() {
        assert_eq!(
            parse_topology("clique:30").unwrap(),
            TopologySpec::Clique(30)
        );
        assert_eq!(
            parse_topology("internet:110").unwrap(),
            TopologySpec::InternetLike {
                n: 110,
                topo_seed: 0
            }
        );
        assert_eq!(
            parse_topology("internet:48:7").unwrap(),
            TopologySpec::InternetLike {
                n: 48,
                topo_seed: 7
            }
        );
        assert!(parse_topology("mesh:3").is_err());
        assert!(parse_topology("clique").is_err());
        assert!(parse_topology("clique:x").is_err());
    }

    #[test]
    fn errors_are_descriptive() {
        let err = parse_args(["--bogus"]).unwrap_err();
        assert!(err.to_string().contains("--bogus"));
        let err = parse_args(["--mrai"]).unwrap_err();
        assert!(err.to_string().contains("requires a value"));
        let err = parse_args(["--mrai", "abc"]).unwrap_err();
        assert!(err.to_string().contains("bad number"));
        let err = parse_args(["--event", "boom"]).unwrap_err();
        assert!(err.to_string().contains("unknown event"));
    }

    #[test]
    fn help_surfaces_usage() {
        let err = parse_args(["--help"]).unwrap_err();
        assert!(err.to_string().contains("USAGE"));
    }

    #[test]
    fn serve_defaults_when_empty() {
        let opts = parse_serve_args(Vec::<&str>::new()).unwrap();
        assert_eq!(opts, ServeOptions::default());
        assert_eq!(opts.addr, "127.0.0.1:8355");
        assert_eq!(opts.exec_workers, 2);
    }

    #[test]
    fn serve_full_invocation() {
        let opts = parse_serve_args([
            "--addr",
            "0.0.0.0:9000",
            "--exec-workers",
            "4",
            "--jobs",
            "2",
            "--cache-dir",
            "/tmp/cache",
            "--journal",
            "/tmp/journal.jsonl",
            "--trace-out",
            "/tmp/trace.jsonl",
            "--max-queued-runs",
            "16",
            "--max-jobs-per-client",
            "3",
            "--event-budget",
            "100000",
            "--no-isolate",
        ])
        .unwrap();
        assert_eq!(opts.addr, "0.0.0.0:9000");
        assert_eq!(opts.exec_workers, 4);
        assert_eq!(opts.jobs, Some(2));
        assert_eq!(opts.cache_dir.as_deref(), Some("/tmp/cache"));
        assert_eq!(opts.journal.as_deref(), Some("/tmp/journal.jsonl"));
        assert_eq!(opts.trace_out.as_deref(), Some("/tmp/trace.jsonl"));
        assert_eq!(opts.max_queued_runs, 16);
        assert_eq!(opts.max_jobs_per_client, Some(3));
        assert_eq!(opts.event_budget, Some(100_000));
        assert!(!opts.isolate, "--no-isolate opts out");
    }

    #[test]
    fn serve_isolates_by_default() {
        let opts = parse_serve_args(Vec::<&str>::new()).unwrap();
        assert!(opts.isolate, "the daemon must survive crashing jobs");
        let opts = parse_serve_args(["--no-isolate", "--isolate"]).unwrap();
        assert!(opts.isolate, "last flag wins");
    }

    #[test]
    fn recover_parses_overrides_and_help() {
        assert_eq!(
            parse_recover_args(Vec::<&str>::new()).unwrap(),
            RecoverOptions::default()
        );
        let opts =
            parse_recover_args(["--journal", "/tmp/j.jsonl", "--cache-dir", "/tmp/cache"]).unwrap();
        assert_eq!(opts.journal.as_deref(), Some("/tmp/j.jsonl"));
        assert_eq!(opts.cache_dir.as_deref(), Some("/tmp/cache"));
        let err = parse_recover_args(["--help"]).unwrap_err();
        assert!(err.to_string().contains("bgpsim recover"));
        assert!(parse_recover_args(["--bogus"]).is_err());
    }

    #[test]
    fn serve_zero_quota_means_unlimited_but_zero_workers_is_an_error() {
        let opts = parse_serve_args(["--max-jobs-per-client", "0"]).unwrap();
        assert_eq!(opts.max_jobs_per_client, None);
        assert!(parse_serve_args(["--exec-workers", "0"]).is_err());
        assert!(parse_serve_args(["--max-queued-runs", "0"]).is_err());
        assert!(parse_serve_args(["--bogus"]).is_err());
    }

    #[test]
    fn serve_help_surfaces_usage() {
        let err = parse_serve_args(["--help"]).unwrap_err();
        assert!(err.to_string().contains("bgpsim serve"));
    }
}
