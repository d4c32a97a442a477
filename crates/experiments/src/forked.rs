//! Checkpoint-aware job planning: share warm-ups across a sweep.
//!
//! A sweep point is warm-up followed by a tail, and most sweeps vary
//! only the tail (the event kind, the fault plan, the flap profile)
//! while the converged pre-failure state is identical across many
//! points. [`plan_forked`] exploits that: scenarios whose
//! [`ScenarioSpec::warmup_fingerprint`]s are equal form a *batch* that
//! runs its warm-up **once** and forks every member's tail from the
//! captured [`RunSnapshot`](bgpsim_sim::RunSnapshot), turning an
//! `O(points × full-run)` sweep into `O(warm-ups + points × tail)`.
//!
//! Forking never changes results: a forked run is bit-identical to its
//! from-scratch run (the `bgpsim-sim` snapshot contract, enforced by
//! proptests in `bgpsim-checkpoint`), so jobs keep their ordinary
//! cache fingerprints and mix freely with unforked history. Warm-ups
//! are built lazily through [`SharedWarmup`]: a batch fully served
//! from the run cache charges zero simulation work.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};

use bgpsim_runner::{Job, SharedWarmup};

use crate::scenario::ScenarioSpec;

/// Process-wide fork toggle: 0 = follow `BGPSIM_FORK`, 1 = forced off,
/// 2 = forced on (the figure binaries' `--forked` flag).
static FORK_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Whether sweeps should share warm-ups ([`forked_jobs`] instead of
/// per-scenario `into_job`). Controlled by [`set_fork_enabled`] (flags)
/// or, when no override is set, the `BGPSIM_FORK` environment variable
/// (`1`, `true`, `on`, `yes` enable it). Defaults to off: forking is
/// bit-identical but opt-in, so default runs exercise the same
/// from-scratch path as the paper pipeline always has.
pub fn fork_enabled() -> bool {
    match FORK_OVERRIDE.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => std::env::var("BGPSIM_FORK")
            .map(|v| matches!(v.to_lowercase().as_str(), "1" | "true" | "on" | "yes"))
            .unwrap_or(false),
    }
}

/// Forces warm-up sharing on or off for this process, overriding
/// `BGPSIM_FORK` (the `--forked` flag of the figure binaries).
pub fn set_fork_enabled(on: bool) {
    FORK_OVERRIDE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Scenarios as sweep jobs, honoring the process fork toggle (shared
/// warm-ups when [`fork_enabled`], classic per-scenario jobs
/// otherwise). The single call sites in `figures::common` and the
/// churn sweep route through here.
pub fn sweep_jobs(scenarios: Vec<ScenarioSpec>) -> Vec<Job> {
    if fork_enabled() {
        forked_jobs(scenarios)
    } else {
        scenarios.into_iter().map(ScenarioSpec::into_job).collect()
    }
}

/// The planned jobs of a forked sweep, plus the sharing structure for
/// reporting and tests.
#[derive(Debug)]
pub struct ForkPlan {
    /// One job per input scenario, in input order (the runner merges
    /// results in job order, so sweep output is unchanged).
    pub jobs: Vec<Job>,
    /// One `(warm-up fingerprint, cell)` per shared batch — batches of
    /// at least two jobs. Inspect [`SharedWarmup::build_count`] after
    /// the sweep to see how many warm-ups actually ran.
    pub cells: Vec<(String, SharedWarmup)>,
    /// How many jobs fork from a shared warm-up.
    pub forked: usize,
    /// How many jobs run standalone (their warm-up is shared with no
    /// one, so forking would only add snapshot overhead).
    pub solo: usize,
}

/// Plans a sweep with warm-up sharing: scenarios with equal
/// [`warmup_fingerprint`](ScenarioSpec::warmup_fingerprint)s become a
/// batch that computes its warm-up at most once and forks every tail
/// from it; singleton scenarios become ordinary
/// [`into_job`](ScenarioSpec::into_job) jobs.
pub fn plan_forked(scenarios: Vec<ScenarioSpec>) -> ForkPlan {
    let fingerprints: Vec<String> = scenarios.iter().map(|s| s.warmup_fingerprint()).collect();
    let mut batch_sizes: HashMap<&str, usize> = HashMap::new();
    for fp in &fingerprints {
        *batch_sizes.entry(fp).or_insert(0) += 1;
    }
    let mut cells_by_fp: HashMap<String, SharedWarmup> = HashMap::new();
    let mut cells = Vec::new();
    let mut forked = 0;
    let mut solo = 0;
    let jobs = scenarios
        .into_iter()
        .zip(fingerprints.iter())
        .map(|(scenario, fp)| {
            if batch_sizes[fp.as_str()] >= 2 {
                forked += 1;
                let cell = cells_by_fp
                    .entry(fp.clone())
                    .or_insert_with(|| {
                        let cell = SharedWarmup::new();
                        cells.push((fp.clone(), cell.clone()));
                        cell
                    })
                    .clone();
                scenario.into_forked_job(cell)
            } else {
                solo += 1;
                scenario.into_job()
            }
        })
        .collect();
    ForkPlan {
        jobs,
        cells,
        forked,
        solo,
    }
}

/// [`plan_forked`], keeping just the jobs. The drop-in replacement for
/// `scenarios.into_iter().map(ScenarioSpec::into_job).collect()` in a
/// sweep that wants warm-up sharing.
pub fn forked_jobs(scenarios: Vec<ScenarioSpec>) -> Vec<Job> {
    plan_forked(scenarios).jobs
}

/// The sharing structure alone: one cell per scenario, `Some` exactly
/// when that scenario's warm-up batch has at least two members (cells
/// are shared within a batch). For callers that queue scenarios
/// individually — the serve executor — rather than through
/// [`plan_forked`]'s job list.
pub fn warmup_cells(scenarios: &[ScenarioSpec]) -> Vec<Option<SharedWarmup>> {
    let fingerprints: Vec<String> = scenarios.iter().map(|s| s.warmup_fingerprint()).collect();
    let mut batch_sizes: HashMap<&str, usize> = HashMap::new();
    for fp in &fingerprints {
        *batch_sizes.entry(fp).or_insert(0) += 1;
    }
    let mut cells_by_fp: HashMap<&str, SharedWarmup> = HashMap::new();
    fingerprints
        .iter()
        .map(|fp| {
            (batch_sizes[fp.as_str()] >= 2)
                .then(|| cells_by_fp.entry(fp.as_str()).or_default().clone())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{EventKind, TopologySpec};
    use bgpsim_runner::JobBudget;

    fn tail_variants() -> Vec<ScenarioSpec> {
        // Same warm-up (clique-6, seed 3, default config), three
        // different tails.
        vec![
            ScenarioSpec::new(TopologySpec::Clique(6), EventKind::TDown).with_seed(3),
            ScenarioSpec::new(TopologySpec::Clique(6), EventKind::TLong).with_seed(3),
            ScenarioSpec::new(TopologySpec::Clique(6), EventKind::Flap).with_seed(3),
        ]
    }

    #[test]
    fn plan_groups_by_warmup_fingerprint() {
        let mut scenarios = tail_variants();
        // A different seed is its own warm-up: a singleton, so solo.
        scenarios.push(ScenarioSpec::new(TopologySpec::Clique(6), EventKind::TDown).with_seed(4));
        let plan = plan_forked(scenarios);
        assert_eq!(plan.jobs.len(), 4);
        assert_eq!(plan.cells.len(), 1);
        assert_eq!(plan.forked, 3);
        assert_eq!(plan.solo, 1);
        assert!(plan.jobs[0].label.contains("(forked)"));
        assert!(!plan.jobs[3].label.contains("(forked)"));
    }

    #[test]
    fn forked_jobs_match_plain_jobs_and_share_one_warmup() {
        let scenarios = tail_variants();
        let plain: Vec<_> = scenarios
            .iter()
            .cloned()
            .map(ScenarioSpec::into_job)
            .collect();
        let plan = plan_forked(scenarios);
        let budget = JobBudget::default();
        for (forked, plain) in plan.jobs.into_iter().zip(plain) {
            assert_eq!(forked.fingerprint, plain.fingerprint);
            let f = (forked.run)(&budget).expect("forked run");
            let p = (plain.run)(&budget).expect("plain run");
            assert_eq!(f.metrics, p.metrics, "fork must be bit-identical");
            assert_eq!(f.counters.map(|c| c.events), p.counters.map(|c| c.events));
        }
        let (_, cell) = &plan.cells[0];
        assert_eq!(cell.build_count(), 1, "three forks, one warm-up");
    }

    #[test]
    fn warmup_cells_mark_batches_and_share_within_them() {
        let mut scenarios = tail_variants();
        scenarios.push(ScenarioSpec::new(TopologySpec::Clique(6), EventKind::TDown).with_seed(4));
        let cells = warmup_cells(&scenarios);
        assert_eq!(cells.len(), 4);
        assert!(cells[0].is_some() && cells[1].is_some() && cells[2].is_some());
        assert!(cells[3].is_none(), "a singleton warm-up runs standalone");
        let a = cells[0].as_ref().unwrap();
        let b = cells[2].as_ref().unwrap();
        a.get_or_build(|| 7u32);
        assert_eq!(
            *b.get_or_build(|| 8u32),
            7,
            "batch members must share one cell"
        );
    }

    #[test]
    fn budget_tripped_warmup_is_shared_and_reported() {
        let plan = plan_forked(tail_variants());
        let tight = JobBudget {
            max_events: Some(5),
            deadline: None,
            cancel: None,
        };
        for job in plan.jobs {
            let stop = (job.run)(&tight).expect_err("5 events cannot finish warm-up");
            assert_eq!(stop.phase, "warmup");
        }
        let (_, cell) = &plan.cells[0];
        assert_eq!(cell.build_count(), 1, "the failed warm-up is shared too");
    }
}
