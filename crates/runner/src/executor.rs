//! The parallel executor: worker pool, ordered merge, progress,
//! journal, and cumulative statistics.

use std::collections::{HashSet, VecDeque};
use std::io::{IsTerminal, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bgpsim_metrics::PaperMetrics;
use bgpsim_sim::RunBudget;
use bgpsim_trace::{failpoint, RunCounters, TraceEvent, TraceHandle};
use serde::Serialize;

use crate::cache::RunCache;
use crate::error::Error;
use crate::supervisor::{AttemptFailure, IsolationConfig, WorkerPayload};

/// What a job produces: the paper metrics plus optional per-run
/// counters for the journal and benchmark baseline.
///
/// `PaperMetrics` converts into a `JobOutput` with no counters, so
/// plain metric-returning closures keep working unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutput {
    /// The run's aggregated result (what sweeps consume).
    pub metrics: PaperMetrics,
    /// Hot-path counters, if the run collected them. The executor
    /// fills in `wall_ms` from its own per-job clock.
    pub counters: Option<RunCounters>,
}

impl From<PaperMetrics> for JobOutput {
    fn from(metrics: PaperMetrics) -> Self {
        JobOutput {
            metrics,
            counters: None,
        }
    }
}

impl JobOutput {
    /// Bundles metrics with collected counters.
    pub fn with_counters(metrics: PaperMetrics, counters: RunCounters) -> Self {
        JobOutput {
            metrics,
            counters: Some(counters),
        }
    }
}

/// A handle to one submitted job: the cooperative cancellation flag
/// the executor puts into the job's [`RunBudget`].
///
/// Cloneable, so a job registry can keep one copy while the submitting
/// client keeps another; cancelling through any clone stops the job at
/// its next watchdog poll point (the same places it checks its event
/// and deadline budgets). The batch API ([`Runner::run_jobs`]) is
/// unaffected — handles exist only for the single-job
/// [`Runner::run_job`] path.
#[derive(Debug, Clone, Default)]
pub struct JobHandle {
    cancel: Arc<AtomicBool>,
}

impl JobHandle {
    /// A fresh handle for one job submission.
    pub fn new() -> Self {
        JobHandle::default()
    }

    /// Requests cooperative cancellation of the job. Idempotent.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// `true` once cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }
}

/// A job stopped by its watchdog budget before completing.
#[derive(Debug, Clone)]
pub struct JobTimeout {
    /// The simulation phase that was interrupted.
    pub phase: &'static str,
    /// Counters accumulated up to the stop, if collected. Boxed to
    /// keep `Err` small next to the `Ok` payload (clippy
    /// `result_large_err`).
    pub counters: Option<Box<RunCounters>>,
}

/// A job body: the run itself, given the executor's watchdog budget.
pub type JobFn = Box<dyn FnOnce(&RunBudget) -> Result<JobOutput, JobTimeout> + Send>;

/// One unit of work: an independent simulation run.
pub struct Job {
    /// Human-readable description, shown in progress and journal.
    pub label: String,
    /// Canonical content fingerprint of the run, or `None` for
    /// uncacheable jobs (always executed).
    pub fingerprint: Option<String>,
    /// The run itself, given the executor's watchdog budget. Must be a
    /// pure function of the fingerprint: two jobs with equal
    /// fingerprints must produce equal metrics.
    pub run: JobFn,
    /// Portable form of the run, if it has one: lets an isolating
    /// runner execute the job in a supervised child process instead of
    /// calling `run`. Both forms must produce identical output —
    /// isolation is execution policy, never semantics.
    pub payload: Option<WorkerPayload>,
}

impl Job {
    /// Creates a job. The closure receives the runner's watchdog
    /// limits and reports [`JobTimeout`] when it stops early; a run
    /// that cannot time out ignores them (`|_| Ok(metrics.into())`).
    pub fn new(
        label: impl Into<String>,
        fingerprint: Option<String>,
        run: impl FnOnce(&RunBudget) -> Result<JobOutput, JobTimeout> + Send + 'static,
    ) -> Self {
        Job {
            label: label.into(),
            fingerprint,
            run: Box::new(run),
            payload: None,
        }
    }

    /// Attaches the job's portable form for process isolation. Without
    /// it the job always runs in-process, even under `--isolate`.
    #[must_use]
    pub fn with_worker_payload(mut self, payload: Option<WorkerPayload>) -> Self {
        self.payload = payload;
        self
    }
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("label", &self.label)
            .field("fingerprint", &self.fingerprint)
            .finish_non_exhaustive()
    }
}

/// When to emit per-job progress on stderr.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgressMode {
    /// Progress only when stderr is a terminal (updating status line).
    Auto,
    /// Always print one line per completed job.
    Always,
    /// No progress output.
    Never,
}

/// Cumulative execution statistics of a [`Runner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunnerStats {
    /// Jobs submitted (hits + executed).
    pub jobs: u64,
    /// Jobs served from the run cache.
    pub cache_hits: u64,
    /// Jobs actually executed.
    pub executed: u64,
    /// Summed per-job time (cache lookups + runs), across workers.
    pub job_time: Duration,
    /// Wall-clock time spent inside `run_jobs` batches.
    pub wall_time: Duration,
    /// Aggregated hot-path counters over all *executed* jobs that
    /// reported them (cache hits contribute nothing — the run did not
    /// happen). Its `peak_rss_kb` is this process's peak, sampled once
    /// after each batch that executed a job in-process, or the largest
    /// a worker process reported for isolated jobs.
    pub counters: RunCounters,
    /// Isolated worker processes that died without a result (each
    /// crash counts, including ones later recovered by a retry).
    pub worker_crashes: u64,
    /// Crashed jobs re-attempted in a fresh worker.
    pub worker_retries: u64,
    /// Jobs whose retry budget was exhausted; their fingerprints are
    /// quarantined and resubmissions fail fast.
    pub jobs_poisoned: u64,
}

impl RunnerStats {
    /// Cache hit rate in percent (0 when no jobs ran).
    pub fn hit_rate_percent(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            100.0 * self.cache_hits as f64 / self.jobs as f64
        }
    }
}

/// JSONL journal commit record: one job reached a terminal state.
///
/// Since the journal became a write-ahead intent log, every line
/// carries an `event` discriminator: `job_started` is flushed+fsynced
/// *before* execution, `job_done` after the result committed through
/// the cache, `job_crashed` when a job's worker (or closure) died.
/// Pre-WAL journals (no `event` field) parse as `job_done` records.
#[derive(Debug, Clone, Serialize)]
struct JournalLine {
    event: &'static str,
    label: String,
    fingerprint: Option<String>,
    cached: bool,
    timed_out: bool,
    cancelled: bool,
    elapsed_ms: f64,
    counters: Option<RunCounters>,
}

/// JSONL journal intent record, written before a job executes.
#[derive(Debug, Clone, Serialize)]
struct JournalIntent {
    event: &'static str,
    label: String,
    fingerprint: Option<String>,
}

/// JSONL journal crash record: the job's execution vehicle died.
#[derive(Debug, Clone, Serialize)]
struct JournalCrash {
    event: &'static str,
    label: String,
    fingerprint: Option<String>,
    detail: String,
    attempts: u32,
    poisoned: bool,
}

/// Why an executed job stopped without a result.
enum ExecStop {
    /// A clean watchdog stop: the job's own, a child's verdict, or a
    /// supervisor kill at the deadline or on cancellation.
    Timeout(JobTimeout),
    /// The in-process closure panicked.
    Panic,
    /// Every worker attempt died; the fingerprint may be poisoned.
    Crashed {
        detail: String,
        attempts: u32,
        poisoned: bool,
    },
}

/// The outcome of one job run through [`Runner::run_job`].
#[derive(Debug, Clone)]
pub struct CompletedJob {
    /// The job's label, as submitted.
    pub label: String,
    /// The run's aggregated result.
    pub metrics: PaperMetrics,
    /// Hot-path counters, if the run collected them (`None` for cache
    /// hits — the run did not happen, so it cost nothing).
    pub counters: Option<RunCounters>,
    /// `true` when the result was served from the run cache.
    pub cached: bool,
    /// Wall-clock time for this job (lookup + run + store).
    pub elapsed: Duration,
}

struct BatchProgress {
    completed: usize,
    total: usize,
    started: Instant,
}

/// The experiment executor: a bounded worker pool over a shared job
/// queue, an optional content-addressed result cache, and progress /
/// journal reporting.
///
/// Results are always returned in the order the jobs were submitted,
/// regardless of worker count or completion order, so any aggregation
/// over them is bit-identical between serial and parallel execution.
pub struct Runner {
    workers: usize,
    pub(crate) cache: Option<RunCache>,
    journal: Option<Mutex<std::fs::File>>,
    pub(crate) progress: ProgressMode,
    pub(crate) max_events: Option<u64>,
    pub(crate) max_wall: Option<Duration>,
    pub(crate) isolate: bool,
    pub(crate) isolation: IsolationConfig,
    /// Fingerprints whose isolated workers exhausted their retry
    /// budget; resubmissions fail fast instead of crashing fresh
    /// workers forever. In-memory only: a process restart (which goes
    /// through journal recovery) grants crashed jobs a fresh chance.
    poisoned: Mutex<HashSet<String>>,
    stats: Mutex<RunnerStats>,
    /// A job finished executing in this process since this process's
    /// peak RSS was last booked; the next batch end books it.
    ran_here: AtomicBool,
}

impl std::fmt::Debug for Runner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runner")
            .field("workers", &self.workers)
            .field("cache_dir", &self.cache.as_ref().map(RunCache::dir))
            .field("progress", &self.progress)
            .finish_non_exhaustive()
    }
}

impl Runner {
    /// A runner with an explicit worker count, no cache, no progress,
    /// in-process execution and the default supervision policy. It
    /// reads no environment: [`RunnerConfig`](crate::RunnerConfig) is
    /// the runner's one reader of `BGPSIM_*` variables.
    pub fn new(workers: usize) -> Self {
        Runner {
            workers: workers.max(1),
            cache: None,
            journal: None,
            progress: ProgressMode::Never,
            max_events: None,
            max_wall: None,
            isolate: false,
            ran_here: AtomicBool::new(false),
            isolation: IsolationConfig::default(),
            poisoned: Mutex::new(HashSet::new()),
            stats: Mutex::new(RunnerStats::default()),
        }
    }

    /// Returns the runner caching into `dir` (created if needed).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Cache`] if the directory cannot be created.
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> Result<Self, Error> {
        self.cache = Some(RunCache::new(dir)?);
        Ok(self)
    }

    /// Returns the runner journaling each job to `path` (appended).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Journal`] if the file cannot be opened.
    pub fn try_with_journal_path(mut self, path: &Path) -> Result<Self, Error> {
        self.journal = Some(Mutex::new(open_journal(path)?));
        Ok(self)
    }

    /// Returns the runner with process isolation on or off. Isolated
    /// execution applies only to jobs carrying a
    /// [`WorkerPayload`]; everything else silently runs in-process.
    #[must_use]
    pub fn with_isolation(mut self, isolate: bool) -> Self {
        self.isolate = isolate;
        self
    }

    /// Returns the runner with an explicit supervision policy
    /// (retries, backoff, RSS limit, worker command override).
    #[must_use]
    pub fn with_isolation_config(mut self, config: IsolationConfig) -> Self {
        self.isolation = config;
        self
    }

    /// The cache directory, if caching is enabled.
    pub fn cache_dir(&self) -> Option<&Path> {
        self.cache.as_ref().map(RunCache::dir)
    }

    /// The run cache handle, if caching is enabled (shared `Arc`
    /// reference; used by journal recovery at daemon startup).
    pub fn cache(&self) -> Option<&RunCache> {
        self.cache.as_ref()
    }

    /// Runs a batch of jobs and returns their metrics **in submission
    /// order**.
    ///
    /// With `workers == 1` (or a single job) everything runs serially
    /// on the calling thread; otherwise a scoped worker pool drains the
    /// shared queue. Each worker, per job: consult the cache (if the
    /// job has a fingerprint), execute on miss, store the result, then
    /// record stats / journal / progress. Cache lookups follow the
    /// corrupt-entry-reads-as-miss contract of [`RunCache::lookup`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::WorkerPanic`] (for the first panicking job in
    /// submission order) if any job's closure panics; the batch is
    /// aborted — queued jobs that have not started are skipped.
    pub fn run_jobs(&self, jobs: Vec<Job>) -> Result<Vec<PaperMetrics>, Error> {
        let total = jobs.len();
        if total == 0 {
            return Ok(Vec::new());
        }
        let batch_started = Instant::now();
        let queue: Mutex<VecDeque<(usize, Job)>> =
            Mutex::new(jobs.into_iter().enumerate().collect());
        let slots: Vec<Mutex<Option<Result<PaperMetrics, Error>>>> =
            (0..total).map(|_| Mutex::new(None)).collect();
        let abort = AtomicBool::new(false);
        let progress = Mutex::new(BatchProgress {
            completed: 0,
            total,
            started: batch_started,
        });

        let worker = || loop {
            if abort.load(Ordering::Relaxed) {
                break;
            }
            let next = queue.lock().expect("queue lock").pop_front();
            let Some((index, job)) = next else { break };
            let result = self.run_one(job, &progress);
            if result.is_err() {
                abort.store(true, Ordering::Relaxed);
            }
            *slots[index].lock().expect("slot lock") = Some(result);
        };

        let workers = self.workers.min(total);
        if workers <= 1 {
            worker();
        } else {
            std::thread::scope(|scope| {
                let worker = &worker;
                for _ in 0..workers {
                    scope.spawn(worker);
                }
            });
        }
        self.finish_progress_line();
        self.finish_batch(batch_started);

        let mut out = Vec::with_capacity(total);
        for slot in slots {
            match slot.into_inner().expect("slot lock") {
                Some(Ok(metrics)) => out.push(metrics),
                Some(Err(e)) => return Err(e),
                // Skipped after an abort: some earlier-indexed slot
                // holds the error, or a later-started one does.
                None => {}
            }
        }
        debug_assert_eq!(out.len(), total, "no abort means every slot is filled");
        Ok(out)
    }

    /// Runs one job with a cancellation handle, outside any batch.
    ///
    /// The job goes through the same cache / stats / journal path as
    /// [`run_jobs`](Self::run_jobs), but the handle's cancellation flag
    /// is put into the job's [`RunBudget`] so the job stops
    /// cooperatively at its watchdog poll points. This is what a
    /// long-running service uses per submission; the batch API keeps
    /// its run-to-completion semantics.
    ///
    /// # Errors
    ///
    /// * [`Error::Cancelled`] — the handle was cancelled (before the
    ///   job started, or the job observed the flag and stopped);
    /// * [`Error::Timeout`] — the job hit its event/deadline budget;
    /// * [`Error::WorkerPanic`] — the job's closure panicked.
    pub fn run_job(&self, job: Job, handle: &JobHandle) -> Result<CompletedJob, Error> {
        if handle.is_cancelled() {
            return Err(Error::Cancelled { label: job.label });
        }
        let started = Instant::now();
        let result = self.run_inner(job, Some(&handle.cancel));
        self.finish_batch(started);
        result
    }

    /// Books a batch's wall time and, when a job executed in this
    /// process since the last booking, this process's peak RSS: one
    /// `VmHWM` read per batch, not one per job. The peak only grows,
    /// so a read after a job finished covers that job, whichever
    /// batch's end makes it.
    fn finish_batch(&self, started: Instant) {
        let peak_rss_kb = if self.ran_here.swap(false, Ordering::Relaxed) {
            bgpsim_trace::peak_rss_kb()
        } else {
            0
        };
        let mut stats = self.stats.lock().expect("stats lock");
        stats.wall_time += started.elapsed();
        stats.counters.peak_rss_kb = stats.counters.peak_rss_kb.max(peak_rss_kb);
    }

    fn run_one(&self, job: Job, progress: &Mutex<BatchProgress>) -> Result<PaperMetrics, Error> {
        let done = self.run_inner(job, None)?;
        self.progress_tick(progress, &done.label, done.cached);
        Ok(done.metrics)
    }

    fn run_inner(&self, job: Job, cancel: Option<&Arc<AtomicBool>>) -> Result<CompletedJob, Error> {
        let Job {
            label,
            fingerprint,
            run,
            payload,
        } = job;
        let started = Instant::now();
        let budget = RunBudget {
            max_events: self.max_events,
            deadline: self.max_wall.map(|d| started + d),
            cancel: cancel.cloned(),
        };
        // Cache first: a hit needs no execution, no WAL intent record
        // (a `job_done` line with `cached:true` suffices for replay),
        // and — crucially for recovery — serves interrupted jobs whose
        // result committed before the crash.
        let cached_hit = match (&self.cache, &fingerprint) {
            (Some(cache), Some(key)) => cache.lookup(key),
            _ => None,
        };
        if let Some(metrics) = cached_hit {
            let elapsed = started.elapsed();
            {
                let mut stats = self.stats.lock().expect("stats lock");
                stats.jobs += 1;
                stats.cache_hits += 1;
                stats.job_time += elapsed;
            }
            self.journal_record(&label, &fingerprint, true, false, false, elapsed, None);
            return Ok(CompletedJob {
                label,
                metrics,
                counters: None,
                cached: true,
                elapsed,
            });
        }
        // Poisoned jobs fail fast: the same fingerprint already burned
        // its whole worker-retry budget this process lifetime.
        if self.isolate {
            if let Some(key) = &fingerprint {
                if self.poisoned.lock().expect("poison lock").contains(key) {
                    return Err(Error::WorkerCrash {
                        label,
                        detail: "job is poisoned: an earlier submission exhausted its worker \
                                 retries"
                            .into(),
                        attempts: 0,
                        poisoned: true,
                    });
                }
            }
        }
        // WAL intent: `job_started` is durable before any execution,
        // so a crash between here and the `job_done` record is
        // recoverable by journal replay.
        self.journal_started(&label, &fingerprint);

        let here = !(self.isolate && payload.is_some());
        let outcome: Result<JobOutput, ExecStop> = match payload {
            Some(payload) if self.isolate => {
                self.run_isolated(&label, &fingerprint, &payload, &budget)
            }
            _ => match catch_unwind(AssertUnwindSafe(|| run(&budget))) {
                Ok(Ok(output)) => Ok(output),
                Ok(Err(timeout)) => Err(ExecStop::Timeout(timeout)),
                Err(_) => Err(ExecStop::Panic),
            },
        };
        let elapsed = started.elapsed();
        if here {
            self.ran_here.store(true, Ordering::Relaxed);
        }
        // The job measures simulation work; the executor owns the wall
        // clock (cache store and bookkeeping included) and, for a
        // `job_done` line, this process's peak RSS. A worker's
        // counters already carry its own peak.
        let finish = |mut c: RunCounters| {
            c.wall_ms = elapsed.as_millis() as u64;
            if here && self.journal.is_some() {
                c.peak_rss_kb = bgpsim_trace::peak_rss_kb();
            }
            c
        };
        let output = match outcome {
            Ok(output) => {
                if let (Some(cache), Some(key)) = (&self.cache, &fingerprint) {
                    // A failed store costs only the cache entry, not
                    // the result: the next request for it re-executes.
                    if let Err(e) = cache.store(key, &output.metrics) {
                        eprintln!("bgpsim-runner: failed to cache {label:?}: {e} (continuing)");
                    }
                }
                output
            }
            Err(ExecStop::Panic) => {
                // In-process panic: the job died with the stack of a
                // worker thread. Journal it as a crash so replay can
                // account for the dangling `job_started` intent.
                self.journal_crashed(&label, &fingerprint, "panic", 1, false);
                return Err(Error::WorkerPanic { label });
            }
            Err(ExecStop::Crashed {
                detail,
                attempts,
                poisoned,
            }) => {
                self.count_executed(elapsed, None);
                self.journal_crashed(&label, &fingerprint, &detail, attempts, poisoned);
                return Err(Error::WorkerCrash {
                    label,
                    detail,
                    attempts,
                    poisoned,
                });
            }
            Err(ExecStop::Timeout(timeout)) => {
                // A watchdog (or cancellation) stop is a real partial
                // execution: count it, journal it, and surface the
                // partial counters. The stop reports *where* it
                // stopped; the flag decides *why* — a cancelled run is
                // classified as such even though it surfaces through
                // the same early-stop path as a budget trip.
                let cancelled = budget.is_cancelled();
                let counters = timeout.counters.map(|c| Box::new(finish(*c)));
                self.count_executed(elapsed, counters.as_deref());
                self.journal_record(
                    &label,
                    &fingerprint,
                    false,
                    !cancelled,
                    cancelled,
                    elapsed,
                    counters.as_deref().copied(),
                );
                return Err(if cancelled {
                    Error::Cancelled { label }
                } else {
                    Error::Timeout {
                        label,
                        phase: timeout.phase,
                        counters,
                    }
                });
            }
        };
        let counters = output.counters.map(finish);
        self.count_executed(elapsed, counters.as_ref());
        self.journal_record(&label, &fingerprint, false, false, false, elapsed, counters);
        Ok(CompletedJob {
            label,
            metrics: output.metrics,
            counters,
            cached: false,
            elapsed,
        })
    }

    /// Counts one executed job (finished or stopped) in the stats.
    fn count_executed(&self, elapsed: Duration, counters: Option<&RunCounters>) {
        let mut stats = self.stats.lock().expect("stats lock");
        stats.jobs += 1;
        stats.executed += 1;
        stats.job_time += elapsed;
        if let Some(c) = counters {
            stats.counters.merge(c);
        }
    }

    /// Runs one job in supervised child processes: retry crashed
    /// attempts with exponential backoff, then poison the fingerprint.
    fn run_isolated(
        &self,
        label: &str,
        fingerprint: &Option<String>,
        payload: &WorkerPayload,
        budget: &RunBudget,
    ) -> Result<JobOutput, ExecStop> {
        let attempts_max = self.isolation.retries.saturating_add(1);
        let fp_str = fingerprint.clone().unwrap_or_default();
        let mut attempt: u32 = 1;
        loop {
            match crate::supervisor::run_attempt(&self.isolation, payload, budget) {
                Ok(output) => return Ok(output),
                Err(AttemptFailure::Cancelled) => {
                    // Classified by the caller via the cancel flag,
                    // exactly like an in-process budget stop.
                    return Err(ExecStop::Timeout(JobTimeout {
                        phase: "worker",
                        counters: None,
                    }));
                }
                Err(AttemptFailure::Timeout(phase)) => {
                    return Err(ExecStop::Timeout(JobTimeout {
                        phase,
                        counters: None,
                    }));
                }
                Err(AttemptFailure::Crash(detail)) => {
                    let exhausted = attempt >= attempts_max;
                    {
                        let mut stats = self.stats.lock().expect("stats lock");
                        stats.worker_crashes += 1;
                        if exhausted {
                            stats.jobs_poisoned += 1;
                        } else {
                            stats.worker_retries += 1;
                        }
                    }
                    TraceHandle::global().emit(|| TraceEvent::WorkerCrash {
                        label: label.to_string(),
                        fingerprint: fp_str.clone(),
                        detail: detail.clone(),
                        attempt: u64::from(attempt),
                        poisoned: exhausted,
                    });
                    eprintln!(
                        "bgpsim-runner: worker for {label:?} crashed \
                         (attempt {attempt}/{attempts_max}): {detail}"
                    );
                    if exhausted {
                        if let Some(key) = fingerprint {
                            self.poisoned
                                .lock()
                                .expect("poison lock")
                                .insert(key.clone());
                        }
                        return Err(ExecStop::Crashed {
                            detail,
                            attempts: attempt,
                            poisoned: true,
                        });
                    }
                    let backoff = self
                        .isolation
                        .backoff
                        .saturating_mul(1 << (attempt - 1).min(16));
                    TraceHandle::global().emit(|| TraceEvent::JobRetry {
                        label: label.to_string(),
                        fingerprint: fp_str.clone(),
                        attempt: u64::from(attempt) + 1,
                        backoff_ms: backoff.as_millis() as u64,
                    });
                    std::thread::sleep(backoff);
                    attempt += 1;
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn journal_record(
        &self,
        label: &str,
        fingerprint: &Option<String>,
        cached: bool,
        timed_out: bool,
        cancelled: bool,
        elapsed: Duration,
        counters: Option<RunCounters>,
    ) {
        let line = JournalLine {
            event: "job_done",
            label: label.to_string(),
            fingerprint: fingerprint.clone(),
            cached,
            timed_out,
            cancelled,
            elapsed_ms: elapsed.as_secs_f64() * 1e3,
            counters,
        };
        if let Ok(json) = serde_json::to_string(&line) {
            self.journal_write(&json);
        }
    }

    /// Writes the WAL intent record for a job about to execute,
    /// durable (flushed + fsynced) before the run starts.
    fn journal_started(&self, label: &str, fingerprint: &Option<String>) {
        let line = JournalIntent {
            event: "job_started",
            label: label.to_string(),
            fingerprint: fingerprint.clone(),
        };
        if let Ok(json) = serde_json::to_string(&line) {
            self.journal_write(&json);
        }
    }

    /// Writes the WAL crash record: the job's execution vehicle died,
    /// accounting for its dangling `job_started` intent.
    fn journal_crashed(
        &self,
        label: &str,
        fingerprint: &Option<String>,
        detail: &str,
        attempts: u32,
        poisoned: bool,
    ) {
        let line = JournalCrash {
            event: "job_crashed",
            label: label.to_string(),
            fingerprint: fingerprint.clone(),
            detail: detail.to_string(),
            attempts,
            poisoned,
        };
        if let Ok(json) = serde_json::to_string(&line) {
            self.journal_write(&json);
        }
    }

    /// Appends one journal line and makes it durable (`sync_data`).
    /// Journal I/O failures are warnings, never errors: correctness
    /// rests on the cache's atomic commits, the journal only optimizes
    /// recovery.
    fn journal_write(&self, json: &str) {
        let Some(journal) = &self.journal else { return };
        let mut file = journal.lock().expect("journal lock");
        match failpoint::check("journal_append", json) {
            Some(failpoint::FailpointAction::Err) => {
                eprintln!("bgpsim-runner: journal append failed (injected); line dropped");
                return;
            }
            Some(failpoint::FailpointAction::Torn) => {
                // A torn append: half the line, no newline — exactly
                // what a mid-write kill leaves behind. Replay must
                // tolerate it.
                let _ = file.write_all(&json.as_bytes()[..json.len() / 2]);
                return;
            }
            _ => {
                let _ = writeln!(file, "{json}");
            }
        }
        if failpoint::check("journal_fsync", json).is_some() {
            eprintln!("bgpsim-runner: journal fsync failed (injected); continuing unsynced");
            return;
        }
        if let Err(e) = file.sync_data() {
            eprintln!("bgpsim-runner: journal fsync failed: {e}; continuing unsynced");
        }
    }

    fn progress_style(&self) -> Option<bool> {
        // Some(true) = updating status line, Some(false) = line per job.
        match self.progress {
            ProgressMode::Never => None,
            ProgressMode::Always => Some(false),
            ProgressMode::Auto => std::io::stderr().is_terminal().then_some(true),
        }
    }

    fn progress_tick(&self, progress: &Mutex<BatchProgress>, label: &str, cached: bool) {
        let Some(updating) = self.progress_style() else {
            return;
        };
        let mut p = progress.lock().expect("progress lock");
        p.completed += 1;
        let elapsed = p.started.elapsed().as_secs_f64();
        let remaining = p.total - p.completed;
        let eta = elapsed / p.completed as f64 * remaining as f64;
        let tag = if cached { "cached" } else { "ran" };
        if updating {
            eprint!(
                "\r[{}/{}] eta {:>6.1}s  {} {:<44.44}",
                p.completed, p.total, eta, tag, label
            );
            let _ = std::io::stderr().flush();
        } else {
            eprintln!(
                "[{}/{}] eta {:.1}s  {} {}",
                p.completed, p.total, eta, tag, label
            );
        }
    }

    fn finish_progress_line(&self) {
        if self.progress_style() == Some(true) {
            eprint!("\r{:78}\r", "");
            let _ = std::io::stderr().flush();
        }
    }

    /// Flushes the journal file to the OS (no-op without a journal).
    /// A draining service calls this after its last in-flight job so no
    /// partially-written line is left behind.
    pub fn flush_journal(&self) {
        if let Some(journal) = &self.journal {
            let _ = journal.lock().expect("journal lock").flush();
        }
    }

    /// A snapshot of the cumulative statistics.
    pub fn stats(&self) -> RunnerStats {
        *self.stats.lock().expect("stats lock")
    }

    /// Writes the cumulative statistics and aggregated run counters as
    /// JSON: what the figure binaries' `--bench <file>` writes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Bench`] if the file cannot be written.
    pub fn write_bench(&self, path: &Path) -> Result<(), Error> {
        let s = self.stats();
        let baseline = BenchBaseline {
            jobs: s.jobs,
            cache_hits: s.cache_hits,
            executed: s.executed,
            workers: self.workers as u64,
            wall_ms: s.wall_time.as_millis() as u64,
            job_ms: s.job_time.as_millis() as u64,
            counters: s.counters,
        };
        let json = serde_json::to_string_pretty(&baseline).map_err(|e| Error::Bench {
            path: path.to_path_buf(),
            source: std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()),
        })?;
        std::fs::write(path, json + "\n").map_err(|source| Error::Bench {
            path: path.to_path_buf(),
            source,
        })
    }

    /// Renders the cumulative statistics as a one-line summary.
    pub fn render_stats(&self) -> String {
        let s = self.stats();
        let mut line = format!(
            "runner: {} jobs ({} cache hits / {} executed, {:.1}% hit rate), \
             wall {:.1}s, cpu {:.1}s, {} workers",
            s.jobs,
            s.cache_hits,
            s.executed,
            s.hit_rate_percent(),
            s.wall_time.as_secs_f64(),
            s.job_time.as_secs_f64(),
            self.workers,
        );
        // Executed scenario jobs report their sim-vs-measure wall split
        // and the batched replay's memo effectiveness; jobs without the
        // instrumentation (or all-cached batches) leave these at zero.
        let c = s.counters;
        if c.sim_ns + c.measure_ns > 0 || c.replay_packets > 0 {
            let memo_pct = if c.replay_packets == 0 {
                0.0
            } else {
                100.0 * c.replay_memo_hits as f64 / c.replay_packets as f64
            };
            line.push_str(&format!(
                ", sim {:.1}s / measure {:.1}s, {} packets replayed ({:.1}% memo)",
                c.sim_ns as f64 / 1e9,
                c.measure_ns as f64 / 1e9,
                c.replay_packets,
                memo_pct,
            ));
        }
        if s.worker_crashes > 0 {
            line.push_str(&format!(
                ", {} worker crashes ({} retried, {} poisoned)",
                s.worker_crashes, s.worker_retries, s.jobs_poisoned,
            ));
        }
        line
    }
}

fn open_journal(path: &Path) -> Result<std::fs::File, Error> {
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|source| Error::Journal {
            path: path.to_path_buf(),
            source,
        })
}

/// Per-run counter totals merged into the benchmark baseline.
#[derive(Debug, Clone, Copy, Serialize)]
struct BenchBaseline {
    jobs: u64,
    cache_hits: u64,
    executed: u64,
    workers: u64,
    wall_ms: u64,
    job_ms: u64,
    counters: RunCounters,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunnerConfig;
    use bgpsim_netsim::time::SimDuration;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn metrics_for(i: u64) -> PaperMetrics {
        PaperMetrics {
            convergence_time: Some(SimDuration::from_millis(i * 10)),
            overall_looping_duration: (i.is_multiple_of(2)).then(|| SimDuration::from_millis(i)),
            ttl_exhaustions: i,
            packets_during_convergence: 100 + i,
            looping_ratio: i as f64 / 100.0,
            delivered: i,
            no_route: 0,
            packets_total: 100 + i,
            messages_after_failure: i * 3,
        }
    }

    fn jobs_0_to(n: u64) -> Vec<Job> {
        (0..n)
            .map(|i| Job::new(format!("job {i}"), None, move |_| Ok(metrics_for(i).into())))
            .collect()
    }

    #[test]
    fn budgeted_job_timeout_surfaces_as_error_timeout() {
        let runner = RunnerConfig::new().jobs(2).max_events(10).build().unwrap();
        let jobs = vec![
            Job::new("fine", None, |_| Ok(metrics_for(1).into())),
            Job::new("stuck", None, |budget: &RunBudget| {
                // A cooperative job checks its budget and stops early
                // instead of spinning forever.
                assert_eq!(budget.max_events, Some(10));
                Err(JobTimeout {
                    phase: "convergence",
                    counters: Some(Box::new(RunCounters {
                        events: 10,
                        ..Default::default()
                    })),
                })
            }),
        ];
        let err = runner.run_jobs(jobs).unwrap_err();
        match err {
            Error::Timeout {
                label,
                phase,
                counters,
            } => {
                assert_eq!(label, "stuck");
                assert_eq!(phase, "convergence");
                assert_eq!(counters.expect("partial counters").events, 10);
            }
            other => panic!("expected Error::Timeout, got {other}"),
        }
    }

    #[test]
    fn unbudgeted_runner_passes_unlimited_budget() {
        let runner = Runner::new(1);
        let jobs = vec![Job::new("free", None, |budget: &RunBudget| {
            assert!(budget.max_events.is_none() && budget.deadline.is_none());
            assert!(budget.cancel.is_none(), "a batch job has no handle");
            Ok(JobOutput::from(metrics_for(3)))
        })];
        let out = runner.run_jobs(jobs).unwrap();
        assert_eq!(out[0].ttl_exhaustions, 3);
    }

    #[test]
    fn timeout_is_journaled_with_timed_out_flag() {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "bgpsim-runner-timeout-journal-{}-{}.jsonl",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let runner = RunnerConfig::new()
            .jobs(1)
            .max_wall(Duration::from_millis(1))
            .journal(&path)
            .build()
            .unwrap();
        let jobs = vec![Job::new("late", None, |_| {
            Err(JobTimeout {
                phase: "warmup",
                counters: None,
            })
        })];
        assert!(matches!(
            runner.run_jobs(jobs),
            Err(Error::Timeout {
                phase: "warmup",
                ..
            })
        ));
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines = text.lines();
        let intent = lines.next().unwrap();
        assert!(
            intent.contains("\"event\":\"job_started\""),
            "WAL intent precedes execution: {intent}"
        );
        let line = lines.next().unwrap();
        assert!(
            line.contains("\"event\":\"job_done\""),
            "journal line: {line}"
        );
        assert!(line.contains("\"label\":\"late\""), "journal line: {line}");
        assert!(line.contains("\"timed_out\":true"), "journal line: {line}");
        assert!(line.contains("\"cached\":false"), "journal line: {line}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn results_keep_submission_order() {
        for workers in [1, 2, 7] {
            let runner = Runner::new(workers);
            let out = runner.run_jobs(jobs_0_to(23)).unwrap();
            assert_eq!(out.len(), 23);
            for (i, m) in out.iter().enumerate() {
                assert_eq!(m.ttl_exhaustions, i as u64, "{workers} workers");
            }
        }
    }

    #[test]
    fn serial_and_parallel_agree() {
        let serial = Runner::new(1).run_jobs(jobs_0_to(17)).unwrap();
        let parallel = Runner::new(8).run_jobs(jobs_0_to(17)).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_batch_is_empty() {
        assert!(Runner::new(4).run_jobs(Vec::new()).unwrap().is_empty());
    }

    #[test]
    fn stats_count_jobs() {
        let runner = Runner::new(3);
        let _ = runner.run_jobs(jobs_0_to(5)).unwrap();
        let _ = runner.run_jobs(jobs_0_to(2)).unwrap();
        let s = runner.stats();
        assert_eq!(s.jobs, 7);
        assert_eq!(s.executed, 7);
        assert_eq!(s.cache_hits, 0);
        assert!(runner.render_stats().contains("7 jobs"));
    }

    #[test]
    fn panicking_job_becomes_worker_panic_error() {
        for workers in [1, 4] {
            let runner = Runner::new(workers);
            let mut jobs = jobs_0_to(3);
            jobs.push(Job::new("the bad one", None, |_| panic!("boom")));
            jobs.extend(jobs_0_to(2));
            let err = runner.run_jobs(jobs).unwrap_err();
            match err {
                Error::WorkerPanic { label } => assert_eq!(label, "the bad one"),
                other => panic!("unexpected error: {other}"),
            }
        }
    }

    #[test]
    fn counters_flow_into_stats_and_journal() {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "bgpsim-runner-counters-test-{}-{}.jsonl",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let runner = Runner::new(2).try_with_journal_path(&path).unwrap();
        let jobs: Vec<Job> = (0..3u64)
            .map(|i| {
                Job::new(format!("counted {i}"), None, move |_| {
                    Ok(JobOutput::with_counters(
                        metrics_for(i),
                        RunCounters {
                            events: 10 + i,
                            loops: i,
                            max_queue_depth: 5 * (i + 1),
                            ..Default::default()
                        },
                    ))
                })
            })
            .collect();
        let _ = runner.run_jobs(jobs).unwrap();
        let s = runner.stats();
        assert_eq!(s.counters.events, 33, "10 + 11 + 12");
        assert_eq!(s.counters.loops, 3);
        assert_eq!(s.counters.max_queue_depth, 15, "merge takes the max");
        let text = std::fs::read_to_string(&path).unwrap();
        // One job_started intent and one job_done commit per job.
        let done = text
            .lines()
            .filter(|l| l.contains("\"event\":\"job_done\""))
            .count();
        assert_eq!(done, 3, "journal: {text}");
        assert!(
            text.contains("\"events\":1") || text.contains("\"events\": 1"),
            "journal lines carry counters: {text}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn peak_rss_is_sampled_per_batch_and_per_journaled_job() {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        // Jobs report no peak of their own: the executor samples it
        // once per batch, and per job only for a `job_done` line.
        let jobs = || -> Vec<Job> {
            (0..3u64)
                .map(|i| {
                    Job::new(format!("peak {i}"), None, move |_| {
                        Ok(JobOutput::with_counters(
                            metrics_for(i),
                            RunCounters::default(),
                        ))
                    })
                })
                .collect()
        };
        let plain = Runner::new(1);
        plain.run_jobs(jobs()).unwrap();
        let batch_peak = plain.stats().counters.peak_rss_kb;
        let now = bgpsim_trace::peak_rss_kb();
        assert!(batch_peak <= now && (now == 0 || batch_peak > 0));

        let path = std::env::temp_dir().join(format!(
            "bgpsim-runner-peak-test-{}-{}.jsonl",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let journaled = Runner::new(1).try_with_journal_path(&path).unwrap();
        journaled.run_jobs(jobs()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let done: Vec<&str> = text.lines().filter(|l| l.contains("job_done")).collect();
        assert_eq!(done.len(), 3, "journal: {text}");
        for line in done {
            assert_eq!(
                line.contains("\"peak_rss_kb\":0,") || line.contains("\"peak_rss_kb\":0}"),
                now == 0,
                "line: {line}"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn write_bench_produces_parseable_baseline() {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "bgpsim-runner-bench-test-{}-{}.json",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let runner = Runner::new(2);
        let _ = runner.run_jobs(jobs_0_to(4)).unwrap();
        runner.write_bench(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"jobs\""));
        assert!(text.contains("\"counters\""));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn cache_serves_second_batch() {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "bgpsim-runner-exec-test-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let runner = Runner::new(4).with_cache_dir(&dir).unwrap();
        let make_jobs = || {
            (0..6u64)
                .map(|i| {
                    Job::new(format!("job {i}"), Some(format!("fp-{i}")), move |_| {
                        Ok(metrics_for(i).into())
                    })
                })
                .collect::<Vec<_>>()
        };
        let first = runner.run_jobs(make_jobs()).unwrap();
        // Second batch: closures would panic if executed; the cache
        // must serve every job.
        let second_jobs: Vec<Job> = (0..6u64)
            .map(|i| {
                Job::new(format!("job {i}"), Some(format!("fp-{i}")), move |_| {
                    panic!("job {i} must be served from cache")
                })
            })
            .collect();
        let second = runner.run_jobs(second_jobs).unwrap();
        assert_eq!(first, second);
        let s = runner.stats();
        assert_eq!(s.jobs, 12);
        assert_eq!(s.cache_hits, 6);
        assert_eq!(s.executed, 6);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_records_every_job() {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "bgpsim-runner-journal-test-{}-{}.jsonl",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let runner = Runner::new(2).try_with_journal_path(&path).unwrap();
        let _ = runner.run_jobs(jobs_0_to(4)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // WAL protocol: one job_started intent + one job_done per job.
        assert_eq!(lines.len(), 8);
        assert_eq!(
            lines
                .iter()
                .filter(|l| l.contains("\"event\":\"job_started\""))
                .count(),
            4
        );
        for line in lines
            .iter()
            .filter(|l| l.contains("\"event\":\"job_done\""))
        {
            assert!(line.contains("\"label\""), "journal line: {line}");
            assert!(line.contains("\"cached\": false") || line.contains("\"cached\":false"));
        }
        std::fs::remove_file(&path).unwrap();
    }

    fn sh_worker(script: &str) -> IsolationConfig {
        IsolationConfig {
            worker_cmd: Some(vec!["/bin/sh".into(), "-c".into(), script.into()]),
            backoff: Duration::from_millis(1),
            ..Default::default()
        }
    }

    fn payload_job(label: &str, fingerprint: &str) -> Job {
        Job::new(label.to_string(), Some(fingerprint.to_string()), |_| {
            panic!("must run in the worker, not in-process")
        })
        .with_worker_payload(Some(WorkerPayload {
            scenario: "{}".into(),
            seed: 7,
        }))
    }

    #[test]
    fn isolated_job_runs_in_worker_and_caches() {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "bgpsim-runner-isolated-test-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let verdict = crate::supervisor::encode_success(&metrics_for(5), None);
        let runner = Runner::new(1)
            .with_cache_dir(&dir)
            .unwrap()
            .with_isolation(true)
            .with_isolation_config(sh_worker(&format!(
                "cat >/dev/null; printf '%s\\n' '{verdict}'"
            )));
        let out = runner.run_jobs(vec![payload_job("iso", "fp-iso")]).unwrap();
        assert_eq!(out[0], metrics_for(5));
        // Second submission: served from cache, no worker spawned.
        let runner2 = Runner::new(1)
            .with_cache_dir(&dir)
            .unwrap()
            .with_isolation(true)
            .with_isolation_config(sh_worker("exit 99"));
        let again = runner2
            .run_jobs(vec![payload_job("iso", "fp-iso")])
            .unwrap();
        assert_eq!(again[0], metrics_for(5));
        assert_eq!(runner2.stats().cache_hits, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crashing_worker_is_retried_then_poisoned() {
        let runner = Runner::new(1)
            .with_isolation(true)
            .with_isolation_config(IsolationConfig {
                retries: 1,
                ..sh_worker("echo dead >&2; exit 3")
            });
        let err = runner
            .run_jobs(vec![payload_job("doomed", "fp-doomed")])
            .unwrap_err();
        match err {
            Error::WorkerCrash {
                label,
                attempts,
                poisoned,
                ..
            } => {
                assert_eq!(label, "doomed");
                assert_eq!(attempts, 2, "1 initial + 1 retry");
                assert!(poisoned);
            }
            other => panic!("expected WorkerCrash, got {other}"),
        }
        let s = runner.stats();
        assert_eq!(s.worker_crashes, 2);
        assert_eq!(s.worker_retries, 1);
        assert_eq!(s.jobs_poisoned, 1);
        assert!(runner.render_stats().contains("worker crashes"));
        // Resubmission fails fast without spawning another worker.
        let err = runner
            .run_jobs(vec![payload_job("doomed", "fp-doomed")])
            .unwrap_err();
        match err {
            Error::WorkerCrash {
                attempts, poisoned, ..
            } => {
                assert_eq!(attempts, 0, "poisoned fail-fast spawns nothing");
                assert!(poisoned);
            }
            other => panic!("expected poisoned WorkerCrash, got {other}"),
        }
        assert_eq!(runner.stats().worker_crashes, 2, "no new worker crash");
    }

    #[test]
    fn worker_crash_recovers_on_retry() {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let marker = std::env::temp_dir().join(format!(
            "bgpsim-runner-retry-marker-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let verdict = crate::supervisor::encode_success(&metrics_for(9), None);
        // First attempt crashes and drops a marker; the retry sees the
        // marker and answers properly.
        let script = format!(
            "if [ -e {m} ]; then cat >/dev/null; printf '%s\\n' '{verdict}'; \
             else touch {m}; exit 9; fi",
            m = marker.display()
        );
        let runner = Runner::new(1)
            .with_isolation(true)
            .with_isolation_config(IsolationConfig {
                retries: 2,
                ..sh_worker(&script)
            });
        let out = runner
            .run_jobs(vec![payload_job("flaky", "fp-flaky")])
            .unwrap();
        assert_eq!(out[0], metrics_for(9));
        let s = runner.stats();
        assert_eq!(s.worker_crashes, 1);
        assert_eq!(s.worker_retries, 1);
        assert_eq!(s.jobs_poisoned, 0);
        let _ = std::fs::remove_file(&marker);
    }

    #[test]
    fn cancelled_handle_kills_the_isolated_worker() {
        let runner = Runner::new(1)
            .with_isolation(true)
            .with_isolation_config(sh_worker("exec sleep 30"));
        let handle = JobHandle::new();
        let started = Instant::now();
        let result = std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(50));
                handle.cancel();
            });
            runner.run_job(payload_job("sleeper", "fp-sleeper"), &handle)
        });
        match result {
            Err(Error::Cancelled { label }) => assert_eq!(label, "sleeper"),
            other => panic!("expected Error::Cancelled, got {other:?}"),
        }
        let took = started.elapsed();
        assert!(took < Duration::from_secs(1), "cancelled after {took:?}");
        let s = runner.stats();
        assert_eq!(s.worker_crashes, 0, "a cancellation kill is not a crash");
        assert_eq!((s.jobs, s.executed), (1, 1));
    }

    #[test]
    fn job_without_payload_runs_in_process_under_isolation() {
        let runner = Runner::new(1).with_isolation(true);
        assert!(runner.isolate);
        let out = runner.run_jobs(jobs_0_to(2)).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn crashed_job_is_journaled_as_job_crashed() {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "bgpsim-runner-crash-journal-{}-{}.jsonl",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let runner = Runner::new(1)
            .try_with_journal_path(&path)
            .unwrap()
            .with_isolation(true)
            .with_isolation_config(IsolationConfig {
                retries: 0,
                ..sh_worker("exit 7")
            });
        let _ = runner
            .run_jobs(vec![payload_job("gone", "fp-gone")])
            .unwrap_err();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.contains("\"event\":\"job_started\""),
            "journal: {text}"
        );
        let crashed = text
            .lines()
            .find(|l| l.contains("\"event\":\"job_crashed\""))
            .unwrap_or_else(|| panic!("no job_crashed record in: {text}"));
        assert!(crashed.contains("\"poisoned\":true"), "line: {crashed}");
        assert!(crashed.contains("\"attempts\":1"), "line: {crashed}");
        std::fs::remove_file(&path).unwrap();
    }
}
