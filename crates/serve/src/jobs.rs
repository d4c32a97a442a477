//! The job registry: submission state, ordered result streams, and
//! cooperative cancellation.
//!
//! Every submission fans out to one executor run per seed. Result
//! lines are *revealed in submission order* regardless of completion
//! order — a reader streaming `GET /v1/jobs/{id}/results` observes the
//! longest completed prefix, which makes the stream a pure function of
//! the submitted spec. Two clients submitting the identical spec
//! therefore receive byte-identical streams, whether their runs
//! executed or came out of the shared run cache.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::Duration;

use bgpsim_runner::JobHandle;

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Admitted; runs are waiting for an executor worker.
    Queued,
    /// At least one run has started.
    Running,
    /// Every run completed; the full result stream is available.
    Done,
    /// Cancelled via `DELETE` (or drain); the stream ends early.
    Cancelled,
    /// A run failed (budget timeout, panic); carries the reason.
    Failed(String),
}

impl JobStatus {
    /// The wire name of the state.
    pub fn name(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Cancelled => "cancelled",
            JobStatus::Failed(_) => "failed",
        }
    }

    /// `true` once no further result lines can appear.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, JobStatus::Queued | JobStatus::Running)
    }
}

#[derive(Debug)]
struct JobInner {
    /// One slot per run, filled as runs complete (out of order).
    slots: Vec<Option<String>>,
    /// Longest complete prefix of `slots` — what readers may see.
    revealed: usize,
    /// Runs finished (successfully), regardless of order.
    done_runs: usize,
    /// Runs served from the shared cache.
    cached_runs: u64,
    /// Simulation events charged to this job (executed runs only).
    events_charged: u64,
    status: JobStatus,
}

/// One submitted job.
#[derive(Debug)]
pub struct JobEntry {
    /// Registry-assigned id.
    pub id: u64,
    /// Submitting client (API key or `"anonymous"`).
    pub client: String,
    /// Human-readable label of the submission.
    pub label: String,
    /// Total runs (seeds) in the submission.
    pub total_runs: usize,
    /// Wire version of the submitted spec (1 = legacy, 2 = fork-aware).
    pub spec_version: u32,
    /// Cancellation handle threaded into every run's budget.
    pub handle: JobHandle,
    inner: Mutex<JobInner>,
    progress: Condvar,
    /// Guards the one-time release of the client's active-job slot.
    released: std::sync::atomic::AtomicBool,
    /// The registry to tell when this job turns terminal.
    registry: Weak<RegistryState>,
}

/// A point-in-time view of a job for the status endpoint.
#[derive(Debug, Clone)]
pub struct JobSnapshot {
    /// Registry-assigned id.
    pub id: u64,
    /// Submitting client.
    pub client: String,
    /// Submission label.
    pub label: String,
    /// Lifecycle state.
    pub status: JobStatus,
    /// Total runs in the submission.
    pub total_runs: usize,
    /// Wire version of the submitted spec.
    pub spec_version: u32,
    /// Runs completed.
    pub done_runs: usize,
    /// Runs served from the shared cache.
    pub cached_runs: u64,
    /// Simulation events charged to this job.
    pub events_charged: u64,
}

impl JobEntry {
    fn new(
        id: u64,
        client: String,
        label: String,
        total_runs: usize,
        spec_version: u32,
        registry: Weak<RegistryState>,
    ) -> Self {
        JobEntry {
            id,
            client,
            label,
            total_runs,
            spec_version,
            handle: JobHandle::new(),
            inner: Mutex::new(JobInner {
                slots: vec![None; total_runs],
                revealed: 0,
                done_runs: 0,
                cached_runs: 0,
                events_charged: 0,
                status: JobStatus::Queued,
            }),
            progress: Condvar::new(),
            released: std::sync::atomic::AtomicBool::new(false),
            registry,
        }
    }

    /// Hands the job to the registry's retention queue. Called by the
    /// one transition that made the job terminal, while it still holds
    /// the job lock: no reader sees the terminal status before the job
    /// is queued for eviction, so a client that reads a finished job
    /// and submits again can never have its next job retired first.
    /// The lock order is job → registry; nothing holds the registry
    /// lock while taking a job lock.
    fn retire(&self) {
        if let Some(registry) = self.registry.upgrade() {
            registry.retire(self.id);
        }
    }

    /// Claims the one-time right to release this job's admission slot.
    /// Returns `true` exactly once per job, no matter how many paths
    /// (final run, failure, cancellation) race to the terminal state.
    pub fn take_release(&self) -> bool {
        !self
            .released
            .swap(true, std::sync::atomic::Ordering::SeqCst)
    }

    /// Marks the first run as started.
    pub fn mark_running(&self) {
        let mut inner = self.inner.lock().expect("job lock");
        if inner.status == JobStatus::Queued {
            inner.status = JobStatus::Running;
        }
    }

    /// Records run `index` as complete with its result line, revealing
    /// any newly contiguous prefix to stream readers.
    pub fn complete_run(&self, index: usize, line: String, cached: bool, events: u64) {
        let mut inner = self.inner.lock().expect("job lock");
        if inner.slots[index].is_none() {
            inner.slots[index] = Some(line);
            inner.done_runs += 1;
            if cached {
                inner.cached_runs += 1;
            }
            inner.events_charged += events;
        }
        while inner.revealed < inner.slots.len() && inner.slots[inner.revealed].is_some() {
            inner.revealed += 1;
        }
        if inner.done_runs == self.total_runs && !inner.status.is_terminal() {
            inner.status = JobStatus::Done;
            self.retire();
        }
        drop(inner);
        self.progress.notify_all();
    }

    /// Moves the job to a terminal failure/cancellation state.
    pub fn finish_with(&self, status: JobStatus) {
        debug_assert!(status.is_terminal());
        let mut inner = self.inner.lock().expect("job lock");
        if !inner.status.is_terminal() {
            inner.status = status;
            self.retire();
        }
        drop(inner);
        self.progress.notify_all();
    }

    /// Requests cancellation. Returns `false` when the job was already
    /// terminal (nothing to cancel).
    pub fn cancel(&self) -> bool {
        let mut inner = self.inner.lock().expect("job lock");
        if inner.status.is_terminal() {
            return false;
        }
        inner.status = JobStatus::Cancelled;
        self.retire();
        drop(inner);
        // The flag stops queued runs at pickup and a mid-run scenario
        // at its next watchdog poll point.
        self.handle.cancel();
        self.progress.notify_all();
        true
    }

    /// A snapshot for the status endpoint.
    pub fn snapshot(&self) -> JobSnapshot {
        let inner = self.inner.lock().expect("job lock");
        JobSnapshot {
            id: self.id,
            client: self.client.clone(),
            label: self.label.clone(),
            status: inner.status.clone(),
            total_runs: self.total_runs,
            spec_version: self.spec_version,
            done_runs: inner.done_runs,
            cached_runs: inner.cached_runs,
            events_charged: inner.events_charged,
        }
    }

    /// Blocks until a result line past `from` is revealed or the job
    /// reaches a terminal state; returns the newly visible lines and
    /// the current status.
    ///
    /// A terminal status with no new lines means the stream is over.
    pub fn wait_results(&self, from: usize, timeout: Duration) -> (Vec<String>, JobStatus) {
        let mut inner = self.inner.lock().expect("job lock");
        while inner.revealed <= from && !inner.status.is_terminal() {
            let (guard, wait) = self
                .progress
                .wait_timeout(inner, timeout)
                .expect("job lock");
            inner = guard;
            if wait.timed_out() {
                break;
            }
        }
        let lines = inner.slots[from..inner.revealed]
            .iter()
            .map(|slot| slot.clone().expect("revealed prefix is complete"))
            .collect();
        (lines, inner.status.clone())
    }
}

/// How many terminal jobs stay readable after they finish. A client
/// reads its results right after (or while) the job runs; older ids
/// answer like ids that never existed.
pub const RETAINED_TERMINAL_JOBS: usize = 256;

#[derive(Debug, Default)]
struct Retained {
    jobs: HashMap<u64, Arc<JobEntry>>,
    /// Ids of the terminal jobs in `jobs`, oldest completion first.
    finished: VecDeque<u64>,
}

impl Retained {
    /// Every job in `jobs` is either queued in `finished` or active.
    fn active(&self) -> usize {
        self.jobs.len() - self.finished.len()
    }
}

#[derive(Debug, Default)]
struct RegistryState {
    retained: Mutex<Retained>,
    /// Notified each time a job turns terminal.
    retired: Condvar,
}

impl RegistryState {
    fn retire(&self, id: u64) {
        let mut retained = self.retained.lock().expect("registry lock");
        retained.finished.push_back(id);
        if retained.finished.len() > RETAINED_TERMINAL_JOBS {
            if let Some(oldest) = retained.finished.pop_front() {
                retained.jobs.remove(&oldest);
            }
        }
        drop(retained);
        self.retired.notify_all();
    }
}

/// The id-indexed registry of submissions.
///
/// Queued and running jobs are always present. Finished jobs stay
/// readable until [`RETAINED_TERMINAL_JOBS`] later completions have
/// pushed them out, so the daemon's memory is bounded by its admission
/// limits plus that constant, not by the number of jobs it has served.
/// An evicted id is indistinguishable from one never issued; ids are
/// never reused.
#[derive(Debug, Default)]
pub struct JobRegistry {
    next_id: AtomicU64,
    state: Arc<RegistryState>,
}

impl JobRegistry {
    /// An empty registry; ids start at 1.
    pub fn new() -> Self {
        JobRegistry {
            next_id: AtomicU64::new(1),
            state: Arc::default(),
        }
    }

    /// Creates and registers a job submitted under `spec_version` of
    /// the wire format.
    pub fn create(
        &self,
        client: &str,
        label: String,
        total_runs: usize,
        spec_version: u32,
    ) -> Arc<JobEntry> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let entry = Arc::new(JobEntry::new(
            id,
            client.to_string(),
            label,
            total_runs,
            spec_version,
            Arc::downgrade(&self.state),
        ));
        self.state
            .retained
            .lock()
            .expect("registry lock")
            .jobs
            .insert(id, Arc::clone(&entry));
        entry
    }

    /// Looks up a job by id; `None` for ids never issued or evicted.
    pub fn get(&self, id: u64) -> Option<Arc<JobEntry>> {
        let retained = self.state.retained.lock().expect("registry lock");
        retained.jobs.get(&id).cloned()
    }

    /// How many jobs are queued or running.
    pub fn active_count(&self) -> usize {
        self.state.retained.lock().expect("registry lock").active()
    }

    /// Blocks until no job is queued or running.
    pub fn wait_idle(&self) {
        let mut retained = self.state.retained.lock().expect("registry lock");
        while retained.active() > 0 {
            retained = self.state.retired.wait(retained).expect("registry lock");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_reveal_in_submission_order() {
        let registry = JobRegistry::new();
        let job = registry.create("alice", "test x3".into(), 3, 1);
        // Completing out of order reveals nothing until the prefix is
        // contiguous.
        job.complete_run(2, "line-2".into(), false, 10);
        let (lines, status) = job.wait_results(0, Duration::from_millis(1));
        assert!(lines.is_empty());
        assert_eq!(status, JobStatus::Queued);
        job.complete_run(0, "line-0".into(), true, 0);
        let (lines, _) = job.wait_results(0, Duration::from_millis(1));
        assert_eq!(lines, vec!["line-0".to_string()]);
        job.complete_run(1, "line-1".into(), false, 5);
        let (lines, status) = job.wait_results(1, Duration::from_millis(1));
        assert_eq!(lines, vec!["line-1".to_string(), "line-2".to_string()]);
        assert_eq!(status, JobStatus::Done);
        let snap = job.snapshot();
        assert_eq!(snap.done_runs, 3);
        assert_eq!(snap.cached_runs, 1);
        assert_eq!(snap.events_charged, 15);
    }

    #[test]
    fn cancel_is_terminal_and_idempotent() {
        let registry = JobRegistry::new();
        let job = registry.create("bob", "test".into(), 2, 1);
        assert!(job.cancel());
        assert!(job.handle.is_cancelled());
        assert!(!job.cancel(), "second cancel is a no-op");
        assert_eq!(job.snapshot().status, JobStatus::Cancelled);
        // A completed job cannot be cancelled.
        let done = registry.create("bob", "test".into(), 1, 1);
        done.complete_run(0, "line".into(), false, 1);
        assert_eq!(done.snapshot().status, JobStatus::Done);
        assert!(!done.cancel());
    }

    #[test]
    fn registry_assigns_unique_ids_and_tracks_active() {
        let registry = JobRegistry::new();
        let a = registry.create("x", "a".into(), 1, 1);
        let b = registry.create("x", "b".into(), 1, 1);
        assert_ne!(a.id, b.id);
        assert_eq!(registry.active_count(), 2);
        a.complete_run(0, "done".into(), false, 0);
        assert_eq!(registry.active_count(), 1);
        assert!(registry.get(b.id).is_some());
        assert!(registry.get(9999).is_none());
    }

    #[test]
    fn only_the_most_recent_terminal_jobs_stay_readable() {
        let registry = JobRegistry::new();
        // Terminal by each of the three routes.
        let ids: Vec<u64> = (0..RETAINED_TERMINAL_JOBS + 3)
            .map(|i| {
                let job = registry.create("x", format!("job {i}"), 1, 1);
                match i % 3 {
                    0 => job.complete_run(0, "line".into(), false, 0),
                    1 => job.finish_with(JobStatus::Failed("boom".into())),
                    _ => assert!(job.cancel()),
                }
                job.id
            })
            .collect();
        let (evicted, retained) = ids.split_at(3);
        for id in evicted {
            assert!(registry.get(*id).is_none(), "job {id} should be evicted");
        }
        for id in retained {
            let job = registry.get(*id).expect("recent terminal job is retained");
            assert!(job.snapshot().status.is_terminal());
        }
        assert_eq!(registry.active_count(), 0);
        // A second terminal call on an already-terminal job (a cancel
        // racing the last run) must not enqueue it twice.
        let last = registry.get(*ids.last().unwrap()).unwrap();
        last.finish_with(JobStatus::Cancelled);
        assert!(!last.cancel());
        assert!(registry.get(retained[0]).is_some());
        // Ids keep counting up past the evicted ones.
        let next = registry.create("x", "next".into(), 1, 1);
        assert_eq!(next.id, ids.last().unwrap() + 1);
    }

    #[test]
    fn queued_and_running_jobs_outlive_any_number_of_completions() {
        let registry = JobRegistry::new();
        let queued = registry.create("x", "queued".into(), 1, 1);
        let running = registry.create("x", "running".into(), 2, 1);
        running.mark_running();
        running.complete_run(0, "first".into(), false, 0);
        for i in 0..3 * RETAINED_TERMINAL_JOBS {
            let job = registry.create("x", format!("filler {i}"), 1, 1);
            job.complete_run(0, "line".into(), true, 0);
        }
        assert_eq!(registry.active_count(), 2);
        assert_eq!(
            registry.get(queued.id).unwrap().snapshot().status,
            JobStatus::Queued
        );
        assert_eq!(
            registry.get(running.id).unwrap().snapshot().status,
            JobStatus::Running
        );
        // Once they finish they queue behind the fillers, newest of all.
        running.complete_run(1, "second".into(), false, 0);
        assert!(queued.cancel());
        assert_eq!(registry.active_count(), 0);
        assert!(registry.get(queued.id).is_some());
        assert!(registry.get(running.id).is_some());
    }

    #[test]
    fn wait_idle_returns_when_the_last_active_job_finishes() {
        let registry = JobRegistry::new();
        registry.wait_idle(); // nothing active: returns at once
        let job = registry.create("x", "a".into(), 1, 1);
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                started_tx.send(()).unwrap();
                registry.wait_idle();
                registry.active_count()
            });
            started_rx.recv().unwrap();
            job.complete_run(0, "line".into(), false, 0);
            assert_eq!(waiter.join().unwrap(), 0);
        });
    }

    #[test]
    fn no_reader_sees_a_terminal_job_before_it_is_retired() {
        let registry = JobRegistry::new();
        let job = &registry.create("x", "a".into(), 1, 1);
        let retained = registry.state.retained.lock().expect("registry lock");
        let (terminal_tx, terminal_rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(|| job.complete_run(0, "line".into(), false, 0));
            scope.spawn(move || {
                while !job.snapshot().status.is_terminal() {
                    std::thread::yield_now();
                }
                terminal_tx.send(()).expect("the test thread is listening");
            });
            // The completion cannot retire the job while the registry
            // lock is held here, so no reader may see it terminal yet.
            let early = terminal_rx.recv_timeout(Duration::from_millis(50));
            drop(retained);
            assert!(
                early.is_err(),
                "a reader saw the job terminal while its retirement waited"
            );
            terminal_rx
                .recv()
                .expect("terminal once the registry is free");
        });
        assert_eq!(registry.active_count(), 0);
    }

    #[test]
    fn failed_status_carries_reason() {
        let registry = JobRegistry::new();
        let job = registry.create("x", "a".into(), 2, 1);
        job.complete_run(0, "ok".into(), false, 1);
        job.finish_with(JobStatus::Failed("watchdog timeout".into()));
        let snap = job.snapshot();
        assert_eq!(snap.status.name(), "failed");
        assert!(snap.status.is_terminal());
        // The stream still serves the completed prefix, then ends.
        let (lines, status) = job.wait_results(0, Duration::from_millis(1));
        assert_eq!(lines.len(), 1);
        assert!(status.is_terminal());
    }
}
