//! The runner's policy, read in one place.
//!
//! [`RunnerConfig::from_env`] is the only reader of the runner's
//! `BGPSIM_*` variables, [`RunnerConfig::merge`] the only place flags
//! are layered over them (flags win field by field), and
//! [`RunnerConfig::build`] the path every binary takes to a [`Runner`]:
//!
//! ```no_run
//! use bgpsim_runner::RunnerConfig;
//!
//! // What `--jobs 4 --cache-dir /tmp/bgpsim-cache` parses to.
//! let flags = RunnerConfig::new().jobs(4).cache_dir("/tmp/bgpsim-cache");
//! let runner = RunnerConfig::from_env().merge(flags).build().expect("runner setup");
//! ```
//!
//! Policy never changes a byte of output: it decides how runs execute,
//! not what they compute.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Duration;

use crate::cache::RunCache;
use crate::error::Error;
use crate::executor::{ProgressMode, Runner};

/// Every variable [`RunnerConfig::from_env`] reads, in the order it
/// reads them; the supervisor removes them all from an isolated
/// worker's environment.
pub(crate) const ENV_VARS: [&str; 10] = [
    "BGPSIM_JOBS",
    "BGPSIM_CACHE_DIR",
    "BGPSIM_JOURNAL",
    "BGPSIM_TRACE",
    "BGPSIM_PROGRESS",
    "BGPSIM_MAX_EVENTS",
    "BGPSIM_MAX_WALL_MS",
    "BGPSIM_ISOLATE",
    "BGPSIM_WORKER_RETRIES",
    "BGPSIM_WORKER_MAX_RSS_KB",
];

/// Declarative configuration for a [`Runner`].
///
/// Every field is optional; [`RunnerConfig::build`] applies defaults
/// (available parallelism, no cache, no journal, no trace, `Auto`
/// progress, in-process execution, [`IsolationConfig`]'s supervision
/// policy).
///
/// [`IsolationConfig`]: crate::IsolationConfig
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunnerConfig {
    jobs: Option<usize>,
    cache_dir: Option<PathBuf>,
    journal: Option<PathBuf>,
    trace: Option<PathBuf>,
    progress: Option<ProgressMode>,
    max_events: Option<u64>,
    max_wall: Option<Duration>,
    isolate: Option<bool>,
    worker_retries: Option<u32>,
    worker_max_rss_kb: Option<u64>,
}

impl RunnerConfig {
    /// An empty configuration: every setting at its default.
    pub fn new() -> Self {
        RunnerConfig::default()
    }

    /// Reads the `BGPSIM_*` environment variables into a config:
    ///
    /// * `BGPSIM_JOBS` — worker count (ignored unless a positive
    ///   integer; `1` = fully serial execution on the calling thread);
    /// * `BGPSIM_CACHE_DIR` — enable the run cache in this directory;
    /// * `BGPSIM_JOURNAL` — append a JSONL line per job to this file;
    /// * `BGPSIM_TRACE` — write a JSONL trace-event stream to this file;
    /// * `BGPSIM_PROGRESS` — `auto`, `always`, or `never`;
    /// * `BGPSIM_MAX_EVENTS` — per-job watchdog event budget (ignored
    ///   unless a positive integer);
    /// * `BGPSIM_MAX_WALL_MS` — per-job watchdog wall-clock budget in
    ///   milliseconds (ignored unless a positive integer);
    /// * `BGPSIM_ISOLATE` — `1` runs each payload-carrying job in a
    ///   supervised child process (`0` disables; anything else is
    ///   ignored);
    /// * `BGPSIM_WORKER_RETRIES` — crash retries of an isolated job
    ///   before it is poisoned (ignored unless a non-negative integer);
    /// * `BGPSIM_WORKER_MAX_RSS_KB` — kill an isolated worker whose
    ///   resident set exceeds this many KiB (`0` = no cap).
    ///
    /// Flags layered on with [`merge`](Self::merge) take precedence
    /// over the environment.
    pub fn from_env() -> Self {
        RunnerConfig::from_env_with(|name| std::env::var(name).ok())
    }

    /// [`from_env`](Self::from_env) with an injectable variable lookup,
    /// for deterministic testing without mutating the process
    /// environment.
    pub fn from_env_with(lookup: impl Fn(&str) -> Option<String>) -> Self {
        let [jobs, cache, journal, trace, progress, events, wall_ms, isolate, retries, rss_kb] =
            ENV_VARS.map(lookup);
        let positive = |v: Option<String>| v?.parse::<u64>().ok().filter(|&n| n > 0);
        RunnerConfig {
            jobs: jobs
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n > 0),
            cache_dir: cache.map(PathBuf::from),
            journal: journal.map(PathBuf::from),
            trace: trace.map(PathBuf::from),
            progress: progress.and_then(|v| match v.as_str() {
                "auto" => Some(ProgressMode::Auto),
                "always" => Some(ProgressMode::Always),
                "never" => Some(ProgressMode::Never),
                _ => None,
            }),
            max_events: positive(events),
            max_wall: positive(wall_ms).map(Duration::from_millis),
            isolate: isolate.and_then(|v| match v.trim() {
                "1" => Some(true),
                "0" => Some(false),
                _ => None,
            }),
            worker_retries: retries
                .and_then(|v| v.trim().parse::<u64>().ok())
                .map(|n| u32::try_from(n).unwrap_or(u32::MAX)),
            worker_max_rss_kb: rss_kb
                .and_then(|v| v.trim().parse::<u64>().ok())
                .filter(|&n| n > 0),
        }
    }

    /// Layers `flags` over this config: every setting `flags` carries
    /// wins, every other keeps this config's value. A binary calls
    /// `RunnerConfig::from_env().merge(flags)`, so a flag beats its
    /// variable and a variable beats the default.
    #[must_use]
    pub fn merge(self, flags: RunnerConfig) -> Self {
        RunnerConfig {
            jobs: flags.jobs.or(self.jobs),
            cache_dir: flags.cache_dir.or(self.cache_dir),
            journal: flags.journal.or(self.journal),
            trace: flags.trace.or(self.trace),
            progress: flags.progress.or(self.progress),
            max_events: flags.max_events.or(self.max_events),
            max_wall: flags.max_wall.or(self.max_wall),
            isolate: flags.isolate.or(self.isolate),
            worker_retries: flags.worker_retries.or(self.worker_retries),
            worker_max_rss_kb: flags.worker_max_rss_kb.or(self.worker_max_rss_kb),
        }
    }

    /// Sets the worker count (values below 1 are clamped to 1 at
    /// build time).
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = Some(jobs);
        self
    }

    /// Enables the content-addressed run cache in `dir`.
    #[must_use]
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Appends a JSONL journal line per completed job to `path`.
    #[must_use]
    pub fn journal(mut self, path: impl Into<PathBuf>) -> Self {
        self.journal = Some(path.into());
        self
    }

    /// Streams JSONL trace events to `path`.
    ///
    /// Building the config installs the process-wide trace sink (see
    /// [`bgpsim_trace::install_jsonl`]) so that every simulation
    /// constructed afterwards — including inside runner jobs — emits
    /// into it.
    #[must_use]
    pub fn trace(mut self, path: impl Into<PathBuf>) -> Self {
        self.trace = Some(path.into());
        self
    }

    /// Sets the progress reporting mode (default `Auto`).
    #[must_use]
    pub fn progress(mut self, mode: ProgressMode) -> Self {
        self.progress = Some(mode);
        self
    }

    /// Caps every job at `max_events` simulation events. A job that
    /// exceeds the cap is stopped cleanly and reported as
    /// [`Error::Timeout`] carrying its partial counters.
    #[must_use]
    pub fn max_events(mut self, max_events: u64) -> Self {
        self.max_events = Some(max_events);
        self
    }

    /// Caps every job at `max_wall` of wall-clock time, checked at
    /// event-chunk granularity (see [`Error::Timeout`]).
    #[must_use]
    pub fn max_wall(mut self, max_wall: Duration) -> Self {
        self.max_wall = Some(max_wall);
        self
    }

    /// Runs payload-carrying jobs in supervised child processes
    /// (crash isolation: a panicking or runaway job fails alone
    /// instead of taking the process down). Off by default for CLI
    /// one-shots; `bgpsim serve` turns it on unless told otherwise.
    #[must_use]
    pub fn isolate(mut self, isolate: bool) -> Self {
        self.isolate = Some(isolate);
        self
    }

    /// The configured cache directory, if set.
    pub fn cache_dir_set(&self) -> Option<&Path> {
        self.cache_dir.as_deref()
    }

    /// The configured journal path, if set.
    pub fn journal_set(&self) -> Option<&Path> {
        self.journal.as_deref()
    }

    /// The configured trace path, if set.
    pub fn trace_set(&self) -> Option<&Path> {
        self.trace.as_deref()
    }

    /// Builds the runner, failing fast on any unusable setting.
    ///
    /// Side effect: when a trace path is configured, the process-wide
    /// JSONL trace sink is installed before the runner is returned.
    ///
    /// # Errors
    ///
    /// * [`Error::Cache`] — the cache directory cannot be created;
    /// * [`Error::Journal`] — the journal file cannot be opened;
    /// * [`Error::Trace`] — the trace file cannot be created, or a
    ///   process-wide sink is already installed.
    pub fn build(self) -> Result<Runner, Error> {
        let mut runner = Runner::new(self.jobs.unwrap_or_else(default_workers));
        runner.progress = self.progress.unwrap_or(ProgressMode::Auto);
        runner.max_events = self.max_events;
        runner.max_wall = self.max_wall;
        runner.isolate = self.isolate.unwrap_or(false);
        if let Some(retries) = self.worker_retries {
            runner.isolation.retries = retries;
        }
        runner.isolation.max_rss_kb = self.worker_max_rss_kb;
        if let Some(dir) = self.cache_dir {
            runner.cache = Some(RunCache::new(dir)?);
        }
        if let Some(path) = self.journal {
            runner = runner.try_with_journal_path(&path)?;
        }
        if let Some(path) = self.trace {
            bgpsim_trace::install_jsonl(&path).map_err(|source| Error::Trace { path, source })?;
        }
        Ok(runner)
    }
}

fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

static GLOBAL: OnceLock<Runner> = OnceLock::new();

/// The process-wide runner. If [`init_global`] was not called first,
/// it is built from the environment on first use
/// (`RunnerConfig::from_env().build()`). All experiment sweeps submit
/// their jobs here unless given an explicit runner.
///
/// # Panics
///
/// On first use without [`init_global`], if the environment names an
/// unusable cache directory, journal or trace file: the panic carries
/// the typed [`Error`].
pub fn global() -> &'static Runner {
    GLOBAL.get_or_init(|| {
        RunnerConfig::from_env()
            .build()
            .unwrap_or_else(|err| panic!("runner setup from the environment failed: {err}"))
    })
}

/// Builds the runner from `config` and installs it as the process-wide
/// runner returned by [`global`].
///
/// Call this *before* anything touches `global()` — typically first
/// thing in `main` after parsing flags.
///
/// # Errors
///
/// Any [`RunnerConfig::build`] error, or
/// [`Error::GlobalAlreadyInitialized`] if the global runner already
/// exists (built here earlier, or lazily by a `global()` call).
pub fn init_global(config: RunnerConfig) -> Result<&'static Runner, Error> {
    let runner = config.build()?;
    let mut slot = Some(runner);
    let installed = GLOBAL.get_or_init(|| slot.take().expect("slot filled above"));
    if slot.is_none() {
        Ok(installed)
    } else {
        Err(Error::GlobalAlreadyInitialized)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_pairs(pairs: &[(&str, &str)]) -> RunnerConfig {
        RunnerConfig::from_env_with(|name| {
            let value = pairs.iter().find(|(k, _)| *k == name)?.1;
            Some(value.to_string())
        })
    }

    #[test]
    fn empty_env_reads_as_blank_config() {
        assert_eq!(from_pairs(&[]), RunnerConfig::new());
    }

    #[test]
    fn env_vars_populate_every_field() {
        let cfg = from_pairs(&[
            ("BGPSIM_JOBS", "6"),
            ("BGPSIM_CACHE_DIR", "/tmp/c"),
            ("BGPSIM_JOURNAL", "/tmp/j.jsonl"),
            ("BGPSIM_TRACE", "/tmp/t.jsonl"),
            ("BGPSIM_PROGRESS", "never"),
            ("BGPSIM_MAX_EVENTS", "5000"),
            ("BGPSIM_MAX_WALL_MS", "250"),
            ("BGPSIM_ISOLATE", "1"),
            ("BGPSIM_WORKER_RETRIES", " 1 "),
            ("BGPSIM_WORKER_MAX_RSS_KB", "65536"),
        ]);
        let expected = RunnerConfig::new()
            .jobs(6)
            .cache_dir("/tmp/c")
            .journal("/tmp/j.jsonl")
            .trace("/tmp/t.jsonl")
            .progress(ProgressMode::Never)
            .max_events(5000)
            .max_wall(Duration::from_millis(250))
            .isolate(true);
        let expected = RunnerConfig {
            worker_retries: Some(1),
            worker_max_rss_kb: Some(65536),
            ..expected
        };
        assert_eq!(cfg, expected);
        // The supervisor policy reaches the runner.
        let runner = from_pairs(&[
            ("BGPSIM_WORKER_RETRIES", "1"),
            ("BGPSIM_WORKER_MAX_RSS_KB", "64"),
        ])
        .build()
        .unwrap();
        assert_eq!(runner.isolation.retries, 1);
        assert_eq!(runner.isolation.max_rss_kb, Some(64));
    }

    #[test]
    fn invalid_env_values_are_ignored() {
        // Zero and non-numeric values mean "no setting", not "0": zero
        // workers would deadlock the pool and a 0-event budget would
        // fail every job before it starts.
        for value in ["0", "zero", "-1", "1e3", ""] {
            let cfg = from_pairs(&[
                ("BGPSIM_JOBS", value),
                ("BGPSIM_PROGRESS", value),
                ("BGPSIM_MAX_EVENTS", value),
                ("BGPSIM_MAX_WALL_MS", value),
                ("BGPSIM_ISOLATE", if value == "0" { "yes" } else { value }),
                (
                    "BGPSIM_WORKER_RETRIES",
                    if value == "0" { "two" } else { value },
                ),
                ("BGPSIM_WORKER_MAX_RSS_KB", value),
            ]);
            assert_eq!(cfg, RunnerConfig::new(), "{value:?}");
        }
        assert_eq!(from_pairs(&[("BGPSIM_ISOLATE", "0")]).isolate, Some(false));
        assert_eq!(
            from_pairs(&[("BGPSIM_WORKER_RETRIES", "0")]).worker_retries,
            Some(0)
        );
    }

    #[test]
    fn builder_overrides_environment() {
        let env = from_pairs(&[("BGPSIM_JOBS", "2"), ("BGPSIM_CACHE_DIR", "/tmp/env-cache")]);
        let cfg = env.clone().merge(RunnerConfig::new().jobs(8));
        // The flag wins; the field it leaves unset keeps the env layer.
        assert_eq!(cfg, RunnerConfig::new().jobs(8).cache_dir("/tmp/env-cache"));
        // Merging nothing changes nothing, in either direction.
        assert_eq!(env.clone().merge(RunnerConfig::new()), env);
        assert_eq!(RunnerConfig::new().merge(env.clone()), env);
        // build() wires a flag over the env into the runner.
        let runner = from_pairs(&[("BGPSIM_ISOLATE", "0")])
            .merge(RunnerConfig::new().isolate(true).jobs(1))
            .build()
            .unwrap();
        assert!(runner.isolate);
    }

    #[test]
    fn build_applies_worker_count_and_defaults() {
        let runner = RunnerConfig::new().jobs(3).build().unwrap();
        assert!(runner.render_stats().ends_with(", 3 workers"));
        assert_eq!(runner.cache_dir(), None);
        assert!(!runner.isolate);
        assert_eq!(runner.progress, ProgressMode::Auto);
        assert_eq!(runner.isolation.retries, 2, "the supervisor's default");
        let runner = RunnerConfig::new().jobs(0).build().unwrap();
        // An explicit 0 clamps to 1.
        assert!(runner.render_stats().ends_with(", 1 workers"));
    }

    #[test]
    fn build_fails_fast_on_bad_cache_dir() {
        // A file in the way of the cache directory.
        let path = std::env::temp_dir().join(format!(
            "bgpsim-config-blocker-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::write(&path, b"not a directory").unwrap();
        let err = RunnerConfig::new()
            .cache_dir(path.join("sub"))
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::Cache { .. }), "got: {err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn build_fails_fast_on_bad_journal() {
        let err = RunnerConfig::new()
            .journal("/definitely/not/a/dir/journal.jsonl")
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::Journal { .. }), "got: {err}");
    }
}
