//! Command-line argument handling for the `bgpsim` binary.
//!
//! Kept dependency-free: the grammar is small and a hand-rolled parser
//! keeps the CLI testable without pulling an argument-parsing crate
//! into the library's dependency tree.

use std::error::Error;
use std::fmt;

use bgpsim_core::{Enhancements, Jitter};
use bgpsim_experiments::scenario::{enhancement_named, EventKind, TopologySpec};
use bgpsim_runner::RunnerConfig;

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
    /// The runner flags alone: `--trace-out` (on either output path),
    /// and on the JSON path `--cache-dir` and `--[no-]isolate`.
    pub runner: RunnerConfig,
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
            runner: RunnerConfig::new(),
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
  --json                emit metrics as JSON, run through the job runner
  --trace               print the post-failure route-change timeline
                        (human report only: conflicts with --json)
  --trace-out <FILE>    stream structured JSONL trace events to FILE
                        (default: $BGPSIM_TRACE, else off)
  --help                show this text

RUNNER OPTIONS (need --json; the human report runs in-process):
  --cache-dir <DIR>     reuse run results cached in DIR
                        (default: $BGPSIM_CACHE_DIR, else uncached)
  --isolate             run each job in a supervised child process
                        (crash tolerance; results byte-identical;
                        default: $BGPSIM_ISOLATE, else off)
  --no-isolate          run in-process even if $BGPSIM_ISOLATE is set

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
    /// The runner flags alone: `--cache-dir`, `--journal`, `--trace-out`
    /// and isolation, which starts **on** for the daemon (a client's
    /// crashing job must never kill the service); `--no-isolate` opts
    /// out.
    pub runner: RunnerConfig,
    /// Cap on queued (admitted, not yet started) runs.
    pub max_queued_runs: usize,
    /// Per-client concurrent-job quota (`None` = unlimited).
    pub max_jobs_per_client: Option<usize>,
    /// Per-client cumulative event budget (`None` = unlimited).
    pub event_budget: Option<u64>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:8355".to_string(),
            exec_workers: 2,
            runner: RunnerConfig::new().isolate(true),
            max_queued_runs: 1024,
            max_jobs_per_client: Some(64),
            event_budget: None,
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
            "--cache-dir" => {
                let v = expect_value(&mut iter, arg)?;
                opts.runner = opts.runner.cache_dir(v.as_ref());
            }
            "--journal" => {
                let v = expect_value(&mut iter, arg)?;
                opts.runner = opts.runner.journal(v.as_ref());
            }
            "--trace-out" => {
                let v = expect_value(&mut iter, arg)?;
                opts.runner = opts.runner.trace(v.as_ref());
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
            "--isolate" => opts.runner = opts.runner.isolate(true),
            "--no-isolate" => opts.runner = opts.runner.isolate(false),
            "--help" | "-h" => return Err(CliError(SERVE_USAGE.to_string())),
            other => return Err(CliError(format!("unknown option {other:?}"))),
        }
    }
    Ok(opts)
}

/// A parsed `bgpsim recover` invocation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoverOptions {
    /// The runner flags alone: `--journal` (the journal to replay) and
    /// `--cache-dir` (the run cache to reconcile against).
    pub runner: RunnerConfig,
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
                opts.runner = opts.runner.journal(v.as_ref());
            }
            "--cache-dir" => {
                let v = expect_value(&mut iter, arg)?;
                opts.runner = opts.runner.cache_dir(v.as_ref());
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
/// Returns a [`CliError`] describing the offending argument, or naming
/// both flags of a combination one output path would silently ignore:
/// a runner flag without `--json`, or `--trace` with it.
pub fn parse_args<I, S>(args: I) -> Result<CliOptions, CliError>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut opts = CliOptions::default();
    // The first runner-only flag given, for the error that names it.
    let mut runner_flag = None;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        let arg = arg.as_ref();
        match arg {
            "--topology" => {
                let v = expect_value(&mut iter, arg)?;
                opts.topology = TopologySpec::parse(v.as_ref()).map_err(CliError)?;
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
                let v = v.as_ref();
                opts.enhancements = enhancement_named(v)
                    .ok_or_else(|| CliError(format!("unknown enhancement {v:?}")))?;
            }
            "--seed" => {
                let v = expect_value(&mut iter, arg)?;
                opts.seed = parse_num(v.as_ref(), "--seed")?;
            }
            "--json" => opts.json = true,
            "--trace" => opts.trace = true,
            "--trace-out" => {
                let v = expect_value(&mut iter, arg)?;
                opts.runner = opts.runner.trace(v.as_ref());
            }
            "--cache-dir" => {
                let v = expect_value(&mut iter, arg)?;
                opts.runner = opts.runner.cache_dir(v.as_ref());
                runner_flag.get_or_insert("--cache-dir");
            }
            "--isolate" => {
                opts.runner = opts.runner.isolate(true);
                runner_flag.get_or_insert("--isolate");
            }
            "--no-isolate" => {
                opts.runner = opts.runner.isolate(false);
                runner_flag.get_or_insert("--no-isolate");
            }
            "--help" | "-h" => return Err(CliError(USAGE.to_string())),
            other => return Err(CliError(format!("unknown option {other:?}"))),
        }
    }
    // Only the JSON path goes through the runner; the human report runs
    // the scenario in-process, because it needs the loop census and the
    // timeline, which the run cache does not keep.
    match runner_flag {
        Some(flag) if !opts.json => Err(CliError(format!(
            "{flag} needs --json: the human report runs the scenario in-process, without the runner"
        ))),
        _ if opts.json && opts.trace => Err(CliError(
            "--trace conflicts with --json: the timeline is part of the human report".to_string(),
        )),
        _ => Ok(opts),
    }
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
            "--trace-out",
            "/tmp/run.jsonl",
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
        assert!(!opts.trace);
        assert_eq!(
            opts.runner,
            RunnerConfig::new()
                .trace("/tmp/run.jsonl")
                .cache_dir("/tmp/bgpsim-cache")
                .isolate(true)
        );
        let opts = parse_args(["--json", "--no-isolate"]).unwrap();
        assert_eq!(opts.runner, RunnerConfig::new().isolate(false));
        let opts = parse_args(["--trace", "--trace-out", "/tmp/run.jsonl"]).unwrap();
        assert!(opts.trace && !opts.json);
        assert_eq!(opts.runner, RunnerConfig::new().trace("/tmp/run.jsonl"));
    }

    #[test]
    fn runner_flags_need_json() {
        let cases: [&[&str]; 3] = [
            &["--cache-dir", "/tmp/c"],
            &["--isolate"],
            &["--no-isolate"],
        ];
        for args in cases {
            let err = parse_args(args.iter().copied()).unwrap_err().to_string();
            assert!(err.starts_with(args[0]), "{err}");
            assert!(err.contains("needs --json"), "{err}");
            assert!(parse_args(args.iter().copied().chain(["--json"])).is_ok());
        }
        // The first runner flag given is the one named.
        let err = parse_args(["--seed", "3", "--cache-dir", "c", "--isolate"]).unwrap_err();
        assert!(err.to_string().starts_with("--cache-dir needs --json"));
    }

    #[test]
    fn trace_conflicts_with_json() {
        for args in [["--json", "--trace"], ["--trace", "--json"]] {
            let err = parse_args(args).unwrap_err().to_string();
            assert!(err.contains("--trace conflicts with --json"), "{err}");
        }
        // The JSONL trace file is not the timeline: it works on both paths.
        assert!(parse_args(["--json", "--trace-out", "t.jsonl"]).is_ok());
    }

    #[test]
    fn topology_specs() {
        let topology = |spec: &str| parse_args(["--topology", spec]).map(|o| o.topology);
        assert_eq!(topology("clique:30").unwrap(), TopologySpec::Clique(30));
        assert_eq!(
            topology("internet:110").unwrap(),
            TopologySpec::InternetLike {
                n: 110,
                topo_seed: 0
            }
        );
        assert_eq!(
            topology("internet:48:7").unwrap(),
            TopologySpec::InternetLike {
                n: 48,
                topo_seed: 7
            }
        );
        assert!(topology("mesh:3").is_err());
        assert!(topology("clique").is_err());
        assert!(topology("clique:x").is_err());
        // Sizes the generators panic on are parse errors.
        for spec in ["clique:0", "bclique:1", "internet:3"] {
            let err = topology(spec).unwrap_err().to_string();
            assert!(err.contains("too small"), "{err}");
        }
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
        assert_eq!(
            opts.runner,
            RunnerConfig::new()
                .cache_dir("/tmp/cache")
                .journal("/tmp/journal.jsonl")
                .trace("/tmp/trace.jsonl")
                .isolate(false),
            "--no-isolate opts out"
        );
        assert_eq!(opts.max_queued_runs, 16);
        assert_eq!(opts.max_jobs_per_client, Some(3));
        assert_eq!(opts.event_budget, Some(100_000));
    }

    #[test]
    fn serve_isolates_by_default() {
        let isolating = RunnerConfig::new().isolate(true);
        let opts = parse_serve_args(Vec::<&str>::new()).unwrap();
        assert_eq!(
            opts.runner, isolating,
            "the daemon must survive crashing jobs"
        );
        let opts = parse_serve_args(["--no-isolate", "--isolate"]).unwrap();
        assert_eq!(opts.runner, isolating, "last flag wins");
    }

    #[test]
    fn recover_parses_overrides_and_help() {
        assert_eq!(
            parse_recover_args(Vec::<&str>::new()).unwrap(),
            RecoverOptions::default()
        );
        let opts =
            parse_recover_args(["--journal", "/tmp/j.jsonl", "--cache-dir", "/tmp/cache"]).unwrap();
        assert_eq!(
            opts.runner,
            RunnerConfig::new()
                .journal("/tmp/j.jsonl")
                .cache_dir("/tmp/cache")
        );
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
