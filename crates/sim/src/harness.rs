//! The standard two-phase convergence experiment.
//!
//! Every run in the study has the same shape:
//!
//! 1. **Warm-up** — the destination AS originates the prefix; the
//!    network converges to its steady state and the event queue drains
//!    (all MRAI timers have fired idle).
//! 2. **Failure** — a `T_down` or `T_long` event is injected; the
//!    resulting path exploration is recorded until the network is
//!    quiescent again.
//!
//! [`ConvergenceExperiment`] packages those steps and returns the raw
//! [`RunRecord`] for analysis: with both logs from
//! [`run`](ConvergenceExperiment::run), with what the chosen
//! [`Recorder`] keeps from [`run_budgeted`](ConvergenceExperiment::run_budgeted).

use std::fmt;
use std::time::Instant;

use bgpsim_core::decision::ShortestPath;
use bgpsim_core::{BgpConfig, Prefix};
use bgpsim_faults::FaultPlan;
use bgpsim_netsim::time::SimDuration;
use bgpsim_topology::{Graph, NodeId};

use crate::failure::FailureEvent;
use crate::network::{RunOutcome, SimNetwork};
use crate::params::SimParams;
use crate::record::{FullLog, Recorder, RunRecord};

/// Per-phase event budget of every run — far above any legitimate
/// convergence at the paper's scales, so hitting it means divergence.
pub const DEFAULT_EVENT_BUDGET: u64 = 200_000_000;

/// Watchdog limits for a budgeted run (see
/// [`ConvergenceExperiment::run_budgeted`]): the one budget value a
/// run carries from whoever submitted it — a runner job, an isolated
/// worker, a daemon client — to the event loop. The default has no
/// limits beyond [`DEFAULT_EVENT_BUDGET`] per phase.
#[derive(Debug, Clone, Default)]
pub struct RunBudget {
    /// Maximum total simulation events across both phases.
    pub max_events: Option<u64>,
    /// Wall-clock deadline, checked between event chunks.
    pub deadline: Option<Instant>,
    /// Cooperative stop flag, checked between event chunks like the
    /// deadline: when it reads `true` there, the run stops as a budget
    /// trip of the current phase. The simulator only observes it — who
    /// sets it (a cancelling client, a draining service) is the
    /// caller's business.
    pub cancel: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
}

impl RunBudget {
    /// A budget with no watchdog limits.
    pub fn unlimited() -> Self {
        RunBudget::default()
    }

    /// Caps total engine events.
    pub fn with_max_events(mut self, max_events: u64) -> Self {
        self.max_events = Some(max_events);
        self
    }

    /// Sets a wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// `true` once the cancel flag, if any, has been set.
    pub fn is_cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|c| c.load(std::sync::atomic::Ordering::Relaxed))
    }
}

/// A budgeted run stopped before reaching quiescence.
///
/// Carries the partial [`RunRecord`] accumulated up to the stop, so a
/// watchdog can report counters for the aborted run instead of
/// discarding everything.
#[derive(Debug)]
pub struct BudgetExceeded {
    /// Which phase was interrupted: `"warmup"` or `"convergence"`.
    pub phase: &'static str,
    /// Observations recorded up to the stop.
    pub record: RunRecord,
}

impl BudgetExceeded {
    /// How a stop in `phase` after `events` dispatches reads: this
    /// error's `Display`, and the verdict of a job that kept only the
    /// stop's counters.
    pub fn describe(phase: &str, events: u64) -> String {
        format!("{phase} exhausted its budget after {events} events")
    }
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&Self::describe(self.phase, self.record.events_dispatched))
    }
}

impl std::error::Error for BudgetExceeded {}

/// Events per chunk when driving a budgeted run. Small enough that
/// wall-clock deadlines are honored promptly, large enough that the
/// chunking overhead is invisible.
const BUDGET_CHUNK: u64 = 8192;

/// A declarative two-phase convergence run.
#[derive(Debug, Clone)]
pub struct ConvergenceExperiment {
    /// The topology.
    pub graph: Graph,
    /// The destination AS originating the prefix.
    pub origin: NodeId,
    /// The prefix under study.
    pub prefix: Prefix,
    /// The failure to inject after warm-up.
    pub failure: FailureEvent,
    /// Router configuration (MRAI, jitter, enhancements).
    pub config: BgpConfig,
    /// Physical parameters (link & processing delays).
    pub params: SimParams,
    /// Seed for all randomness in the run.
    pub seed: u64,
    /// Trace handle for the run (`None` = use the process-wide sink).
    pub tracer: Option<bgpsim_trace::TraceHandle>,
    /// Optional churn plan. When set, it replaces the single `failure`
    /// event: the plan is installed after warm-up, anchored one second
    /// past quiescence (the same beat a plain failure gets).
    pub faults: Option<FaultPlan>,
}

impl ConvergenceExperiment {
    /// Creates an experiment with paper-default config and parameters.
    pub fn new(graph: Graph, origin: NodeId, failure: FailureEvent) -> Self {
        ConvergenceExperiment {
            graph,
            origin,
            prefix: Prefix::new(0),
            failure,
            config: BgpConfig::default(),
            params: SimParams::default(),
            seed: 0,
            tracer: None,
            faults: None,
        }
    }

    /// Sets the router configuration.
    pub fn with_config(mut self, config: BgpConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the physical parameters.
    pub fn with_params(mut self, params: SimParams) -> Self {
        self.params = params;
        self
    }

    /// Attaches an explicit trace handle instead of the process-wide
    /// sink. Purely observational — the run itself is unchanged.
    pub fn with_tracer(mut self, tracer: bgpsim_trace::TraceHandle) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Replaces the single failure event with a churn plan.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Runs warm-up then failure, returning the recorded run with its
    /// full send and route-change logs.
    ///
    /// # Panics
    ///
    /// Panics if either phase exhausts the event budget (which would
    /// indicate protocol divergence — BGP with shortest-path policy
    /// always converges), if `origin` is not in the graph, or if the
    /// attached fault plan is invalid.
    pub fn run(&self) -> RunRecord {
        self.run_budgeted::<FullLog>(&RunBudget::unlimited())
            .unwrap_or_else(|e| budget_panic(&e))
    }

    /// Runs warm-up then failure under watchdog `limit`s, keeping the
    /// logs recorder `R` keeps, and returning the partial record
    /// instead of hanging or panicking when a run does not converge
    /// within budget.
    ///
    /// Limits are checked every [`BUDGET_CHUNK`] events; chunked
    /// execution is observationally identical to one uninterrupted
    /// drain, so a run that finishes within budget yields exactly the
    /// record [`ConvergenceExperiment::run`] would, minus the logs `R`
    /// does not keep.
    ///
    /// # Panics
    ///
    /// Panics if `origin` is not in the graph or the fault plan is
    /// rejected (configuration errors, not runtime conditions).
    pub fn run_budgeted<R: Recorder>(
        &self,
        limit: &RunBudget,
    ) -> Result<RunRecord, Box<BudgetExceeded>> {
        assert!(
            self.graph.contains(self.origin),
            "origin {} not in graph",
            self.origin
        );
        let mut net =
            SimNetwork::<_, R>::with_recorder(&self.graph, self.config, self.params, self.seed);
        if let Some(tracer) = &self.tracer {
            net = net.with_tracer(tracer.clone());
        }
        net.originate(self.origin, self.prefix);
        let mut net = Self::drive(net, limit, "warmup")?;
        // The tail — the fault plan when one is attached, else the
        // single failure — lands one second past quiescence: a short
        // beat keeps the failure time strictly after the last warm-up
        // activity.
        match &self.faults {
            Some(plan) => {
                let anchor = net.now() + SimDuration::from_secs(1);
                if let Err(e) = net.apply_fault_plan(plan, anchor) {
                    panic!("invalid fault plan: {e}");
                }
            }
            None => net.schedule_failure(SimDuration::from_secs(1), self.failure),
        }
        Self::drive(net, limit, "convergence").map(SimNetwork::into_record)
    }

    /// Drives `net` to quiescence in chunks, honoring
    /// [`DEFAULT_EVENT_BUDGET`] per phase and the watchdog `limit`. Chunked execution is
    /// observationally identical to an uninterrupted drain. When a
    /// budget trips first, the partial record comes back as the error.
    fn drive<R: Recorder>(
        mut net: SimNetwork<ShortestPath, R>,
        limit: &RunBudget,
        phase: &'static str,
    ) -> Result<SimNetwork<ShortestPath, R>, Box<BudgetExceeded>> {
        let phase_start = net.events_dispatched();
        loop {
            let total = net.events_dispatched();
            let spent = total - phase_start;
            let tripped = spent >= DEFAULT_EVENT_BUDGET
                || limit.max_events.is_some_and(|max| total >= max)
                || limit.deadline.is_some_and(|d| Instant::now() >= d)
                || limit.is_cancelled();
            if tripped {
                return Err(Box::new(BudgetExceeded {
                    phase,
                    record: net.into_record(),
                }));
            }
            let mut step = BUDGET_CHUNK.min(DEFAULT_EVENT_BUDGET - spent);
            if let Some(max) = limit.max_events {
                step = step.min(max - total);
            }
            if net.run_to_quiescence(step) == RunOutcome::Quiescent {
                return Ok(net);
            }
        }
    }
}

/// The panic of the unbudgeted entries: only the per-phase event budget
/// can trip under [`RunBudget::unlimited`], and that means divergence.
fn budget_panic(e: &BudgetExceeded) -> ! {
    match e.phase {
        "warmup" => panic!("warm-up exhausted the event budget"),
        _ => panic!("post-failure convergence exhausted the event budget"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpsim_core::Jitter;
    use bgpsim_faults::FlapTrain;
    use bgpsim_topology::generators;
    use std::time::Duration;

    /// `T_down` of the prefix node 0 originates, on an `n`-clique.
    fn tdown_on_clique(n: usize) -> ConvergenceExperiment {
        let origin = NodeId::new(0);
        let failure = FailureEvent::WithdrawPrefix {
            origin,
            prefix: Prefix::new(0),
        };
        ConvergenceExperiment::new(generators::clique(n), origin, failure)
    }

    #[test]
    fn tdown_experiment_produces_convergence_metrics() {
        let exp = tdown_on_clique(5)
            .with_config(BgpConfig::default().with_jitter(Jitter::NONE))
            .with_seed(3);
        let rec = exp.run();
        assert!(rec.failure_at.is_some());
        let conv = rec.convergence_time().expect("convergence happened");
        assert!(
            conv > SimDuration::ZERO && conv < SimDuration::from_secs(3600),
            "unreasonable convergence time {conv}"
        );
    }

    #[test]
    fn runs_are_reproducible() {
        let make = || {
            let (g, layout) = generators::bclique(3);
            ConvergenceExperiment::new(
                g,
                layout.destination,
                FailureEvent::LinkDown {
                    a: layout.destination,
                    b: layout.core_gateway,
                },
            )
            .with_seed(8)
        };
        let a = make().run();
        let b = make().run();
        assert_eq!(a.sends, b.sends);
        assert_eq!(a.failure_at, b.failure_at);
        assert_eq!(a.quiescent_at, b.quiescent_at);
    }

    #[test]
    fn budgeted_run_matches_unbudgeted() {
        let make = || tdown_on_clique(5).with_seed(4);
        let plain = make().run();
        let budgeted = make()
            .run_budgeted::<FullLog>(&RunBudget::unlimited().with_max_events(10_000_000))
            .expect("well within budget");
        assert_eq!(plain.sends, budgeted.sends);
        assert_eq!(plain.quiescent_at, budgeted.quiescent_at);
        assert_eq!(plain.events_dispatched, budgeted.events_dispatched);
    }

    #[test]
    fn tiny_event_budget_returns_partial_record() {
        let exp = tdown_on_clique(6).with_seed(2);
        let err = exp
            .run_budgeted::<FullLog>(&RunBudget::unlimited().with_max_events(10))
            .expect_err("10 events cannot complete warm-up of a 6-clique");
        assert_eq!(err.phase, "warmup");
        assert!(err.record.events_dispatched >= 10);
        assert!(
            err.record.events_dispatched < 10 + super::BUDGET_CHUNK,
            "watchdog stopped promptly"
        );
    }

    #[test]
    fn run_that_converges_on_its_last_allowed_event_is_not_over_budget() {
        let exp = tdown_on_clique(5).with_seed(2);
        let full = exp.run();
        let exact = RunBudget::unlimited().with_max_events(full.events_dispatched);
        assert_eq!(
            exp.run_budgeted::<FullLog>(&exact).expect("converged"),
            full
        );
        let short = RunBudget::unlimited().with_max_events(full.events_dispatched - 1);
        let err = exp
            .run_budgeted::<FullLog>(&short)
            .expect_err("one event short");
        assert_eq!(err.record.events_dispatched, full.events_dispatched - 1);
    }

    #[test]
    fn expired_deadline_stops_at_first_check() {
        let exp = tdown_on_clique(5).with_seed(2);
        // Warm-up fits inside the event allowance; the already-expired
        // deadline then trips at the first convergence-phase check.
        let warmup_events = {
            let full = exp.run();
            let fail_at = full.failure_at.unwrap();
            assert!(fail_at > bgpsim_netsim::time::SimTime::ZERO);
            full.events_dispatched
        };
        let err = exp
            .run_budgeted::<FullLog>(
                &RunBudget::unlimited().with_deadline(Instant::now() - Duration::from_millis(1)),
            )
            .expect_err("expired deadline must stop the run");
        assert_eq!(err.phase, "warmup");
        assert!(err.record.events_dispatched < warmup_events);
    }

    #[test]
    fn fault_plan_single_withdraw_matches_plain_tdown() {
        let plain = tdown_on_clique(5).with_seed(6).run();
        let plan = FaultPlan::new().withdraw(SimDuration::ZERO, NodeId::new(0), Prefix::new(0));
        let faulted = tdown_on_clique(5).with_seed(6).with_faults(plan).run();
        assert_eq!(plain.sends, faulted.sends);
        assert_eq!(plain.failure_at, faulted.failure_at);
        assert_eq!(plain.quiescent_at, faulted.quiescent_at);
        assert_eq!(plain.path_changes, faulted.path_changes);
        assert_eq!(plain.events_dispatched, faulted.events_dispatched);
        assert_eq!(faulted.faults_injected, 1);
        assert_eq!(plain.faults_injected, 0);
    }

    #[test]
    fn flap_train_converges_and_counts_faults() {
        let (g, layout) = generators::bclique(3);
        let exp = ConvergenceExperiment::new(
            g,
            layout.destination,
            FailureEvent::LinkDown {
                a: layout.destination,
                b: layout.core_gateway,
            },
        )
        .with_seed(5)
        .with_faults(
            FaultPlan::new().flap(
                FlapTrain::new(layout.destination, layout.core_gateway)
                    .with_period(SimDuration::from_secs(60))
                    .with_count(2),
            ),
        );
        let rec = exp.run();
        // 2 cycles × (down + up) events.
        assert_eq!(rec.faults_injected, 4);
        assert!(rec.failure_at.is_some());
        // The last fault is an up event, so everyone converges back to
        // the direct paths.
        let reps = exp.run();
        assert_eq!(rec.sends, reps.sends, "churn runs replay exactly");
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn invalid_fault_plan_panics_in_run() {
        let exp = tdown_on_clique(3).with_faults(FaultPlan::new());
        let _ = exp.run();
    }

    #[test]
    #[should_panic(expected = "not in graph")]
    fn origin_must_exist() {
        let g = generators::clique(3);
        let exp = ConvergenceExperiment::new(
            g,
            NodeId::new(99),
            FailureEvent::NodeDown {
                node: NodeId::new(99),
            },
        );
        let _ = exp.run();
    }
}
