//! # bgpsim-runner
//!
//! Experiment-execution subsystem: runs batches of independent
//! simulation jobs in parallel, caches their results on disk, and
//! reports progress — without perturbing the simulator's determinism.
//!
//! The paper's evaluation is thousands of *independent, individually
//! deterministic* runs (one per `(scenario, seed)` pair). The runner
//! exploits exactly that structure:
//!
//! * **Configuration** ([`RunnerConfig`]) — the typed builder for
//!   worker count, cache directory, journal, and trace output;
//!   [`RunnerConfig::from_env`] layers in the legacy `BGPSIM_*`
//!   environment variables, with builder calls (e.g. from CLI flags)
//!   taking precedence.
//! * **Executor** ([`Runner`]) — a bounded worker pool pulls jobs from
//!   a shared queue; results are merged back in canonical job order,
//!   so aggregated output is bit-identical no matter how many workers
//!   ran (`1` = serial). A panicking job surfaces as
//!   [`Error::WorkerPanic`] instead of tearing the process down.
//! * **Run cache** ([`RunCache`]) — results are stored under a content
//!   hash of the full scenario spec (topology, event, config, seed,
//!   schema version), making repeated and interrupted sweeps
//!   resumable: completed runs are served from disk. Corrupt entries
//!   read as misses (see [`RunCache::lookup`]); [`RunCache::try_lookup`]
//!   surfaces the damage as [`Error::CorruptEntry`].
//! * **Progress & journal** — per-job timing with completed/total and
//!   an ETA on stderr, plus an optional machine-readable JSONL journal
//!   whose lines carry each executed run's
//!   [`RunCounters`](bgpsim_trace::RunCounters). The journal doubles
//!   as a write-ahead log: `job_started` intents are fsynced before
//!   execution and replayed by [`recover_journal`] after a crash.
//! * **Crash tolerance** — with [`Runner::with_isolation`] enabled,
//!   payload-carrying jobs execute in supervised child processes
//!   ([`supervisor`]): a panicking, aborting, or runaway job is reaped
//!   as [`Error::WorkerCrash`], retried with backoff, and finally
//!   poisoned — the supervising process and the rest of the batch
//!   survive.
//!
//! The simulation itself stays single-threaded and deterministic *per
//! run*; parallelism exists only *across* runs.
//!
//! ## Example
//!
//! ```no_run
//! use bgpsim_runner::{Job, RunnerConfig};
//! # fn some_simulation(i: u64) -> bgpsim_metrics::PaperMetrics { unimplemented!() }
//!
//! let runner = RunnerConfig::new().jobs(4).build().expect("runner setup");
//! let jobs = (0..16u64)
//!     .map(|i| Job::new(format!("run {i}"), None, move || some_simulation(i)))
//!     .collect();
//! let metrics = runner.run_jobs(jobs).expect("no job panicked"); // ordered like `jobs`
//! assert_eq!(metrics.len(), 16);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod error;
pub mod executor;
pub mod recovery;
mod retry;
pub mod supervisor;

pub use cache::{RunCache, SCHEMA_VERSION};
pub use config::{init_global, RunnerConfig};
pub use error::Error;
pub use executor::{
    global, CancelToken, CompletedJob, Job, JobBudget, JobFn, JobHandle, JobOutput, JobTimeout,
    ProgressMode, Runner, RunnerStats,
};
pub use recovery::{recover_journal, RecoveryReport};
pub use supervisor::{IsolationConfig, WorkerPayload, WorkerRequest};
