//! Declarative experiment scenarios.
//!
//! A [`ScenarioSpec`] is the canonical description of one run of the
//! study — the **single source of truth** for topology, event class,
//! protocol configuration, physical parameters, fault plan, and seed.
//! Every path into the sim harness goes through it: the figure
//! binaries, the root CLI, the `bgpsim-serve` wire format
//! ([`JobSpec`](crate::jobspec::JobSpec)) and the isolated worker all
//! construct `ScenarioSpec` values and run them.
//!
//! Its canonical serializations key everything downstream:
//! [`ScenarioSpec::fingerprint`] is the run-cache key and
//! [`ScenarioSpec::to_canonical_json`] is the portable on-wire form a
//! supervised worker child receives.

use bgpsim_core::{BgpConfig, Enhancements, Prefix};
use bgpsim_dataplane::loopscan::{emit_census, loop_census};
use bgpsim_metrics::{measure_run, RunMeasurement};
use bgpsim_netsim::rng::SimRng;
use bgpsim_sim::{
    ConvergenceExperiment, FailureEvent, FaultPlan, FlapProfile, RunBudget, RunRecord, SimParams,
};
use bgpsim_topology::{algo, generators, Graph, NodeId};
use bgpsim_trace::{RunCounters, TraceEvent, TraceHandle};
use std::time::Instant;

/// The topology families used in the paper's evaluation (§4.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologySpec {
    /// Full mesh of `n` nodes; destination is node 0.
    Clique(usize),
    /// B-Clique of size `n` (2n nodes); destination is node 0.
    BClique(usize),
    /// Internet-like hierarchical graph of `n` nodes (substitute for
    /// the paper's Premore AS graphs); the destination is drawn among
    /// the lowest-degree nodes using the topology seed.
    InternetLike {
        /// Number of ASes.
        n: usize,
        /// Seed for both the generator and the destination draw.
        topo_seed: u64,
    },
    /// An explicit graph with an explicit destination.
    Custom {
        /// The topology.
        graph: Graph,
        /// The destination AS.
        destination: NodeId,
    },
}

impl TopologySpec {
    /// Parses the topology grammar of the `bgpsim` CLI and the daemon's
    /// [`JobSpec`](crate::jobspec::JobSpec):
    /// `clique:<n> | bclique:<n> | internet:<n>[:<topo-seed>]`. Sizes
    /// the generators panic on are errors: a clique needs 1 node, a
    /// B-Clique `n >= 2`, an Internet-like graph 5 nodes.
    ///
    /// # Errors
    ///
    /// A message naming the spec.
    pub fn parse(spec: &str) -> Result<TopologySpec, String> {
        let bad = || format!("bad topology spec {spec:?}");
        let (family, n, topo_seed) = match spec.split(':').collect::<Vec<_>>().as_slice() {
            [family, n] => (*family, *n, "0"),
            ["internet", n, topo_seed] => ("internet", *n, *topo_seed),
            _ => return Err(bad()),
        };
        let n: usize = n.parse().map_err(|_| bad())?;
        let (topology, min) = match family {
            "clique" => (TopologySpec::Clique(n), 1),
            "bclique" => (TopologySpec::BClique(n), 2),
            "internet" => {
                let topo_seed = topo_seed.parse().map_err(|_| bad())?;
                (TopologySpec::InternetLike { n, topo_seed }, 5)
            }
            _ => return Err(bad()),
        };
        if n < min {
            return Err(format!(
                "topology spec {spec:?} is too small: {family} needs at least {min}"
            ));
        }
        Ok(topology)
    }

    /// A short label for reports.
    pub fn label(&self) -> String {
        match self {
            TopologySpec::Clique(n) => format!("clique-{n}"),
            TopologySpec::BClique(n) => format!("bclique-{n}"),
            TopologySpec::InternetLike { n, .. } => format!("internet-{n}"),
            TopologySpec::Custom { graph, .. } => format!("custom-{}", graph.node_count()),
        }
    }

    /// Materializes the graph and destination.
    pub fn build(&self) -> (Graph, NodeId) {
        match self {
            TopologySpec::Clique(n) => (generators::clique(*n), NodeId::new(0)),
            TopologySpec::BClique(n) => {
                let (g, layout) = generators::bclique(*n);
                (g, layout.destination)
            }
            TopologySpec::InternetLike { n, topo_seed } => {
                let g = generators::internet_like(*n, *topo_seed);
                let mut rng = SimRng::new(*topo_seed).fork(0xDE57);
                let lows = algo::lowest_degree_nodes(&g);
                let dest = *rng.choose(&lows).expect("graph is nonempty");
                (g, dest)
            }
            TopologySpec::Custom { graph, destination } => (graph.clone(), *destination),
        }
    }
}

/// The enhancement set a name selects, as the `bgpsim` CLI
/// (`--enhancement`) and the daemon's JobSpec (`"enhancement"`) spell
/// it: `none | ssld | wrate | assertion | ghost-flushing` (or `ghost`).
pub fn enhancement_named(name: &str) -> Option<Enhancements> {
    match name {
        "none" => Some(Enhancements::standard()),
        "ssld" => Some(Enhancements::ssld()),
        "wrate" => Some(Enhancements::wrate()),
        "assertion" => Some(Enhancements::assertion()),
        "ghost-flushing" | "ghost" => Some(Enhancements::ghost_flushing()),
        _ => None,
    }
}

/// The two convergence event classes of the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The destination becomes unreachable (origin withdraws).
    TDown,
    /// A link fails but the destination stays reachable over longer
    /// paths.
    TLong,
    /// The `T_long` link flaps repeatedly (down/up train) instead of
    /// failing once; parameterized by the scenario's
    /// [`FlapProfile`] unless an explicit fault plan overrides it.
    Flap,
}

impl EventKind {
    /// A short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::TDown => "Tdown",
            EventKind::TLong => "Tlong",
            EventKind::Flap => "Flap",
        }
    }
}

/// A fully specified experiment run.
///
/// The canonical spec type — see the [module docs](self) for its role
/// as the single construction path to the sim harness.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// The topology family and size.
    pub topology: TopologySpec,
    /// `T_down` or `T_long`.
    pub event: EventKind,
    /// Protocol configuration.
    pub config: BgpConfig,
    /// Physical parameters.
    pub params: SimParams,
    /// Seed for all run randomness.
    pub seed: u64,
    /// Explicit fault plan, replacing the scenario's single failure
    /// event (and the flap profile) when set.
    pub faults: Option<FaultPlan>,
    /// Flap parameters used when `event` is [`EventKind::Flap`] and no
    /// explicit plan is set.
    pub flap: FlapProfile,
}

impl ScenarioSpec {
    /// Creates a scenario with paper-default configuration.
    pub fn new(topology: TopologySpec, event: EventKind) -> Self {
        ScenarioSpec {
            topology,
            event,
            config: BgpConfig::default(),
            params: SimParams::default(),
            seed: 0,
            faults: None,
            flap: FlapProfile::default(),
        }
    }

    /// Sets the protocol configuration.
    pub fn with_config(mut self, config: BgpConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Installs an explicit fault plan. The plan replaces the single
    /// scenario failure: its events fire from the same post-warm-up
    /// anchor the plain failure would have used.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Sets the flap parameters used by [`EventKind::Flap`] scenarios.
    pub fn with_flap(mut self, flap: FlapProfile) -> Self {
        self.flap = flap;
        self
    }

    /// Picks the failure event for this scenario on the built graph.
    ///
    /// For `T_long` the failed link is chosen so the destination stays
    /// reachable: B-Cliques fail the paper's `[0, n]` link; other
    /// topologies fail a destination-adjacent link whose removal keeps
    /// the graph connected (falling back to any such link in the
    /// graph).
    fn failure(&self, graph: &Graph, destination: NodeId) -> FailureEvent {
        match self.event {
            EventKind::TDown => FailureEvent::WithdrawPrefix {
                origin: destination,
                prefix: Prefix::new(0),
            },
            EventKind::TLong | EventKind::Flap => {
                if let TopologySpec::BClique(n) = &self.topology {
                    return FailureEvent::LinkDown {
                        a: NodeId::new(0),
                        b: NodeId::new(*n as u32),
                    };
                }
                let mut rng = SimRng::new(self.seed).fork(0xFA11);
                // Prefer a destination-adjacent link that keeps the
                // graph connected (i.e. a non-bridge), like the paper's
                // T_long on Internet-derived graphs.
                let bridge_set: std::collections::BTreeSet<_> =
                    algo::bridges(graph).into_iter().collect();
                let is_safe =
                    |a: NodeId, b: NodeId| !bridge_set.contains(&bgpsim_topology::Edge::new(a, b));
                let adjacent: Vec<NodeId> = graph.neighbors(destination).collect();
                let mut candidates: Vec<(NodeId, NodeId)> = adjacent
                    .iter()
                    .map(|&m| (destination, m))
                    .filter(|&(a, b)| is_safe(a, b))
                    .collect();
                if candidates.is_empty() {
                    candidates = graph
                        .edges()
                        .map(|e| (e.lo(), e.hi()))
                        .filter(|&(a, b)| is_safe(a, b))
                        .collect();
                }
                let &(a, b) = rng
                    .choose(&candidates)
                    .expect("no link can fail without disconnecting the graph");
                FailureEvent::LinkDown { a, b }
            }
        }
    }

    /// A canonical content fingerprint of this scenario: a stable
    /// string encoding *every* input that determines the run's result
    /// (topology, event, protocol config, physical parameters, seed).
    /// Used as the key of the `bgpsim-runner` result cache; floats are
    /// encoded via their IEEE-754 bit pattern so the encoding is exact.
    pub fn fingerprint(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("scenario/v1");
        match &self.topology {
            TopologySpec::Clique(n) => write!(s, "|topo=clique:{n}"),
            TopologySpec::BClique(n) => write!(s, "|topo=bclique:{n}"),
            TopologySpec::InternetLike { n, topo_seed } => {
                write!(s, "|topo=internet:{n}:{topo_seed}")
            }
            TopologySpec::Custom { graph, destination } => {
                let mut edges: Vec<(u32, u32)> = graph
                    .edges()
                    .map(|e| (e.lo().as_u32(), e.hi().as_u32()))
                    .collect();
                edges.sort_unstable();
                write!(
                    s,
                    "|topo=custom:{}:d{}:",
                    graph.node_count(),
                    destination.as_u32()
                )
                .expect("write to String");
                for (a, b) in edges {
                    write!(s, "{a}-{b},").expect("write to String");
                }
                Ok(())
            }
        }
        .expect("write to String");
        let _ = write!(s, "|event={}", self.event.label());
        self.write_config_fragment(&mut s);
        // Fault fragments are appended only when present so every
        // pre-existing (fault-free) fingerprint stays byte-identical.
        if let Some(plan) = &self.faults {
            let _ = write!(s, "|faults={}", plan.fingerprint());
        } else if self.event == EventKind::Flap {
            let _ = write!(s, "|flap={}", self.flap.fingerprint());
        }
        s
    }

    /// The `|mrai=…` … `|seed=…` fragment of the fingerprint: protocol
    /// configuration, physical parameters, and seed.
    fn write_config_fragment(&self, s: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            s,
            "|mrai={}|jitter={:x},{:x}",
            self.config.mrai.as_nanos(),
            self.config.mrai_jitter.lo.to_bits(),
            self.config.mrai_jitter.hi.to_bits(),
        );
        let e = self.config.enhancements;
        let _ = write!(
            s,
            "|enh={}{}{}{}",
            u8::from(e.ssld),
            u8::from(e.wrate),
            u8::from(e.assertion),
            u8::from(e.ghost_flushing),
        );
        // Every run-cache v4 key carries this segment.
        s.push_str("|damping=none");
        let _ = write!(
            s,
            "|link={}|proc={},{}|seed={}",
            self.params.link_delay.as_nanos(),
            self.params.proc_delay_lo.as_nanos(),
            self.params.proc_delay_hi.as_nanos(),
            self.seed,
        );
    }

    /// Converts the scenario into a cacheable [`runner
    /// job`](bgpsim_runner::Job) producing the paper metrics of the
    /// run. The job's fingerprint is [`ScenarioSpec::fingerprint`], so
    /// identical scenarios are served from the run cache when one is
    /// configured.
    ///
    /// The job keeps only the record's summary, not its send and
    /// route-change logs: the metrics and counters it reports read
    /// nothing else. When the [global trace sink](bgpsim_trace::install)
    /// is enabled, the job also emits the run's loop onset/offset
    /// events and a final `run_summary` carrying its [`RunCounters`].
    /// The counters always flow into the runner's journal and aggregate
    /// stats, sink or not.
    pub fn into_job(self) -> bgpsim_runner::Job {
        let label = format!(
            "{} {} seed {}",
            self.topology.label(),
            self.event.label(),
            self.seed
        );
        let fingerprint = Some(self.fingerprint());
        let seed = self.seed;
        // Portable form for process isolation: scenarios with a
        // canonical JSON spec can run in a supervised `bgpsim worker`
        // child (custom topologies cannot, and stay in-process).
        let payload = self
            .to_canonical_json()
            .ok()
            .map(|scenario| bgpsim_runner::WorkerPayload { scenario, seed });
        bgpsim_runner::Job::new(label, fingerprint, move |budget| self.run_job(budget))
            .with_worker_payload(payload)
    }

    /// The destination AS this scenario actually uses, resolved on
    /// `graph`.
    ///
    /// Usually the topology's own destination, but a meaningful
    /// `T_long` (or flap train on its link) needs a destination that
    /// stays reachable after one of its links fails; on Internet-like
    /// graphs the lowest-degree node is often a single-homed stub, so
    /// those events pick the lowest-degree *multi-homed* node instead
    /// (as the paper's setup implies).
    fn resolve_destination(&self, graph: &Graph, built: NodeId) -> NodeId {
        if matches!(self.event, EventKind::TLong | EventKind::Flap) {
            if let TopologySpec::InternetLike { topo_seed, .. } = &self.topology {
                return pick_tlong_destination(graph, *topo_seed)
                    .expect("no multi-homed destination candidate");
            }
        }
        built
    }

    /// Builds the concrete experiment: graph, destination, failure,
    /// and — for fault scenarios — the installed plan.
    fn build_experiment(&self) -> (ConvergenceExperiment, NodeId, FailureEvent) {
        let (graph, built) = self.topology.build();
        let destination = self.resolve_destination(&graph, built);
        let failure = self.failure(&graph, destination);
        let plan = match (&self.faults, self.event, failure) {
            (Some(plan), _, _) => Some(plan.clone()),
            (None, EventKind::Flap, FailureEvent::LinkDown { a, b }) => {
                Some(self.flap.plan_for(a, b))
            }
            _ => None,
        };
        let mut experiment = ConvergenceExperiment::new(graph, destination, failure)
            .with_config(self.config)
            .with_params(self.params)
            .with_seed(self.seed);
        if let Some(plan) = plan {
            experiment = experiment.with_faults(plan);
        }
        (experiment, destination, failure)
    }

    /// Runs the scenario: warm-up, failure (or fault plan), measurement.
    /// The record keeps every send and route change.
    pub fn run(&self) -> ScenarioResult {
        let (experiment, destination, failure) = self.build_experiment();
        let sim_started = Instant::now();
        let record = experiment.run();
        self.measured(destination, failure, record, sim_started)
    }

    /// The one job path, in-process and in an isolated worker alike:
    /// the run under `budget`, keeping only the record's summary, as
    /// the runner's job result. A finished run emits its trace
    /// summaries and reports metrics plus counters; a watchdog-stopped
    /// one reports the phase and its partial counters.
    pub(crate) fn run_job(
        &self,
        budget: &RunBudget,
    ) -> Result<bgpsim_runner::JobOutput, bgpsim_runner::JobTimeout> {
        let (experiment, destination, failure) = self.build_experiment();
        let sim_started = Instant::now();
        match experiment.run_budgeted::<()>(budget) {
            Ok(record) => {
                let result = self.measured(destination, failure, record, sim_started);
                result.emit_trace(self.seed);
                Ok(bgpsim_runner::JobOutput::with_counters(
                    result.measurement.metrics,
                    result.counters(),
                ))
            }
            Err(stopped) => Err(bgpsim_runner::JobTimeout {
                phase: stopped.phase,
                counters: Some(Box::new(partial_counters(&stopped.record))),
            }),
        }
    }

    /// The measurement half of both run entries: times the simulation
    /// that started at `sim_started` and the measurement it feeds.
    fn measured(
        &self,
        destination: NodeId,
        failure: FailureEvent,
        record: RunRecord,
        sim_started: Instant,
    ) -> ScenarioResult {
        let sim_wall_ns = sim_started.elapsed().as_nanos() as u64;
        let measure_started = Instant::now();
        let measurement = measure_run(&record, destination, Prefix::new(0), self.seed);
        let measure_wall_ns = measure_started.elapsed().as_nanos() as u64;
        ScenarioResult {
            destination,
            failure,
            record,
            measurement,
            sim_wall_ns,
            measure_wall_ns,
        }
    }
}

/// The half of a run's counters its record alone determines, given the
/// `loops` count; timings, replay counts and `peak_rss_kb` are zero
/// (the peak is sampled where it is published, not per run).
fn record_counters(record: &RunRecord, loops: u64) -> RunCounters {
    let stats = record.total_stats();
    RunCounters {
        events: record.events_dispatched,
        updates_sent: stats.announcements_sent,
        withdrawals_sent: stats.withdrawals_sent,
        decisions: stats.decisions_run,
        loops,
        max_queue_depth: record.max_queue_depth,
        ..RunCounters::default()
    }
}

/// Counters for a watchdog-stopped run: everything the record already
/// holds, plus a loop census of the frozen (partial) FIB.
fn partial_counters(record: &RunRecord) -> RunCounters {
    record_counters(
        record,
        loop_census(&record.fib, Prefix::new(0)).len() as u64,
    )
}

/// Picks a `T_long`-suitable destination: among the nodes with the
/// smallest degree ≥ 2 that have at least one adjacent non-bridge
/// link, draw one with the given seed.
fn pick_tlong_destination(graph: &Graph, seed: u64) -> Option<NodeId> {
    let mut rng = SimRng::new(seed).fork(0xDE58);
    let bridge_set: std::collections::BTreeSet<_> = algo::bridges(graph).into_iter().collect();
    let usable: Vec<NodeId> = graph
        .nodes()
        .filter(|&v| graph.degree(v) >= 2)
        .filter(|&v| {
            graph
                .neighbors(v)
                .any(|m| !bridge_set.contains(&bgpsim_topology::Edge::new(v, m)))
        })
        .collect();
    let min_deg = usable.iter().map(|&v| graph.degree(v)).min()?;
    let lows: Vec<NodeId> = usable
        .into_iter()
        .filter(|&v| graph.degree(v) == min_deg)
        .collect();
    rng.choose(&lows).copied()
}

/// Everything produced by one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// The destination AS used.
    pub destination: NodeId,
    /// The failure injected.
    pub failure: FailureEvent,
    /// Raw simulation record.
    pub record: RunRecord,
    /// Full measurement (paper metrics + loop census).
    pub measurement: RunMeasurement,
    /// Wall-clock spent in the control-plane simulation, nanoseconds.
    pub sim_wall_ns: u64,
    /// Wall-clock spent in the measurement pipeline, nanoseconds.
    pub measure_wall_ns: u64,
}

impl ScenarioResult {
    /// Aggregated hot-path counters of this run. `wall_ms` is zero
    /// here; the runner's executor fills it in for jobs.
    pub fn counters(&self) -> RunCounters {
        RunCounters {
            sim_ns: self.sim_wall_ns,
            measure_ns: self.measure_wall_ns,
            replay_packets: self.measurement.replay.packets,
            replay_memo_hits: self.measurement.replay.memo_hits,
            ..record_counters(&self.record, self.measurement.census.len() as u64)
        }
    }

    /// Emits the run's loop onset/offset events, its `run_summary`, and
    /// a `measure_summary` (sim-vs-measure wall split plus replay memo
    /// effectiveness) to the [global trace
    /// sink](bgpsim_trace::install). A no-op when no sink is installed.
    pub fn emit_trace(&self, seed: u64) {
        let tracer = TraceHandle::global();
        if !tracer.is_enabled() {
            return;
        }
        emit_census(&self.measurement.census, &tracer, seed);
        tracer.emit(|| TraceEvent::RunSummary {
            seed,
            t: self.record.convergence_end().map_or(0, |t| t.as_nanos()),
            counters: RunCounters {
                peak_rss_kb: bgpsim_trace::peak_rss_kb(),
                ..self.counters()
            },
        });
        tracer.emit(|| TraceEvent::MeasureSummary {
            seed,
            t: self.record.convergence_end().map_or(0, |t| t.as_nanos()),
            sim_ns: self.sim_wall_ns,
            measure_ns: self.measure_wall_ns,
            packets: self.measurement.replay.packets,
            memo_hits: self.measurement.replay.memo_hits,
            walks: self.measurement.replay.walks,
            epochs: self.measurement.replay.epochs,
            trail_hits: self.measurement.replay.trail_hits,
            hops: self.measurement.replay.hops,
            hops_skipped: self.measurement.replay.hops_skipped,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(TopologySpec::Clique(15).label(), "clique-15");
        assert_eq!(TopologySpec::BClique(10).label(), "bclique-10");
        assert_eq!(
            TopologySpec::InternetLike {
                n: 29,
                topo_seed: 1
            }
            .label(),
            "internet-29"
        );
        assert_eq!(EventKind::TDown.label(), "Tdown");
        assert_eq!(EventKind::TLong.label(), "Tlong");
    }

    #[test]
    fn clique_build() {
        let (g, dest) = TopologySpec::Clique(6).build();
        assert_eq!(g.node_count(), 6);
        assert_eq!(dest, NodeId::new(0));
    }

    #[test]
    fn internet_destination_is_low_degree() {
        let spec = TopologySpec::InternetLike {
            n: 48,
            topo_seed: 4,
        };
        let (g, dest) = spec.build();
        let lows = algo::lowest_degree_nodes(&g);
        assert!(lows.contains(&dest));
        // Deterministic rebuild.
        let (_, dest2) = spec.build();
        assert_eq!(dest, dest2);
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let base = ScenarioSpec::new(TopologySpec::Clique(5), EventKind::TDown).with_seed(1);
        assert_eq!(base.fingerprint(), base.clone().fingerprint());
        // Every varying input must change the fingerprint.
        let other_seed = base.clone().with_seed(2);
        assert_ne!(base.fingerprint(), other_seed.fingerprint());
        let other_event = ScenarioSpec::new(TopologySpec::Clique(5), EventKind::TLong).with_seed(1);
        assert_ne!(base.fingerprint(), other_event.fingerprint());
        let other_cfg = base.clone().with_config(
            bgpsim_core::BgpConfig::default().with_enhancements(bgpsim_core::Enhancements::ssld()),
        );
        assert_ne!(base.fingerprint(), other_cfg.fingerprint());
        let other_topo = ScenarioSpec::new(TopologySpec::Clique(6), EventKind::TDown).with_seed(1);
        assert_ne!(base.fingerprint(), other_topo.fingerprint());
    }

    #[test]
    fn fingerprint_bytes_are_pinned() {
        // The run-cache v4 key, as the recovery journal fixture spells
        // it: a change here orphans every cached result.
        let spec = ScenarioSpec::new(TopologySpec::Clique(5), EventKind::TDown).with_seed(3);
        assert_eq!(
            spec.fingerprint(),
            "scenario/v1|topo=clique:5|event=Tdown|mrai=30000000000|jitter=3fe8000000000000,3ff0000000000000|enh=0000|damping=none|link=2000000|proc=100000000,500000000|seed=3"
        );
    }

    #[test]
    fn custom_fingerprint_encodes_edges() {
        let g = generators::clique(3);
        let fp = ScenarioSpec::new(
            TopologySpec::Custom {
                graph: g,
                destination: NodeId::new(2),
            },
            EventKind::TDown,
        )
        .fingerprint();
        assert!(fp.contains("custom:3:d2:"), "{fp}");
        assert!(fp.contains("0-1,"), "{fp}");
    }

    #[test]
    fn job_runs_the_scenario() {
        // The job keeps only the record's summary; its metrics and
        // counters must still be those of the full-record run, on
        // every event class the sweeps submit.
        let flap = FlapProfile {
            period: bgpsim_netsim::time::SimDuration::from_secs(60),
            count: 2,
            jitter: 0.0,
            loss: 0.0,
        };
        let scenarios = [
            ScenarioSpec::new(TopologySpec::Clique(5), EventKind::TDown).with_seed(1),
            ScenarioSpec::new(TopologySpec::BClique(4), EventKind::TLong).with_seed(2),
            ScenarioSpec::new(
                TopologySpec::InternetLike {
                    n: 29,
                    topo_seed: 1,
                },
                EventKind::TDown,
            )
            .with_seed(3),
            ScenarioSpec::new(TopologySpec::BClique(4), EventKind::Flap)
                .with_flap(flap)
                .with_seed(4),
        ];
        for scenario in scenarios {
            let direct = scenario.run();
            assert!(!direct.record.sends.is_empty(), "run() keeps the full log");
            let label = scenario.topology.label();
            let job = scenario.into_job();
            assert!(job.fingerprint.is_some());
            assert!(job.label.contains(&label));
            let out = (job.run)(&RunBudget::unlimited()).expect("unlimited budget");
            assert_eq!(direct.measurement.metrics, out.metrics, "{label}");
            let counters = out.counters.expect("scenario jobs carry counters");
            assert!(counters.events > 0 && counters.decisions > 0);
            assert!(counters.loops > 0, "{label} loops transiently");
            // Equal but for the wall timings; the peak RSS is sampled
            // where it is published, so both leave it at zero.
            let untimed = |c: RunCounters| RunCounters {
                sim_ns: 0,
                measure_ns: 0,
                ..c
            };
            assert_eq!(untimed(counters), untimed(direct.counters()), "{label}");
        }
    }

    #[test]
    fn job_honors_watchdog_budget() {
        let scenario = ScenarioSpec::new(TopologySpec::Clique(5), EventKind::TDown).with_seed(1);
        let job = scenario.into_job();
        let budget = RunBudget::unlimited().with_max_events(5);
        let timeout = (job.run)(&budget).expect_err("5 events cannot finish warm-up");
        assert_eq!(timeout.phase, "warmup");
        let counters = timeout.counters.expect("partial counters survive the stop");
        assert!(counters.events <= 5 + 8192, "stopped promptly");
        assert!(counters.events > 0, "some work was observed");
    }

    #[test]
    fn cancelled_handle_stops_an_in_process_run_at_its_first_check() {
        let path = std::env::temp_dir().join(format!(
            "bgpsim-scenario-cancel-journal-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let runner = bgpsim_runner::RunnerConfig::new()
            .jobs(1)
            .journal(&path)
            .build()
            .unwrap();
        let handle = bgpsim_runner::JobHandle::new();
        let own = handle.clone();
        let scenario = ScenarioSpec::new(TopologySpec::Clique(5), EventKind::TDown).with_seed(1);
        let job = bgpsim_runner::Job::new("self-cancelling", None, move |budget| {
            own.cancel();
            let stopped = scenario
                .run_job(budget)
                .expect_err("the cancel flag stops the run");
            assert_eq!(stopped.phase, "warmup");
            assert_eq!(
                stopped.counters.as_ref().expect("partial counters").events,
                0,
                "drive sees the flag at its first check"
            );
            Err(stopped)
        });
        match runner.run_job(job, &handle) {
            Err(bgpsim_runner::Error::Cancelled { label }) => assert_eq!(label, "self-cancelling"),
            other => panic!("expected Error::Cancelled, got {other:?}"),
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let done: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("\"event\":\"job_done\""))
            .collect();
        assert_eq!(done.len(), 1, "journal: {text}");
        assert!(done[0].contains("\"cancelled\":true"), "line: {}", done[0]);
        assert!(done[0].contains("\"timed_out\":false"), "line: {}", done[0]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn flap_scenario_runs_and_counts_faults() {
        let result = ScenarioSpec::new(TopologySpec::BClique(3), EventKind::Flap)
            .with_flap(FlapProfile {
                period: bgpsim_netsim::time::SimDuration::from_secs(60),
                count: 2,
                jitter: 0.0,
                loss: 0.0,
            })
            .with_seed(2)
            .run();
        // Two cycles = two downs + two ups on the paper's [0, n] link.
        assert_eq!(result.record.faults_injected, 4);
        assert_eq!(
            result.failure,
            FailureEvent::LinkDown {
                a: NodeId::new(0),
                b: NodeId::new(3),
            }
        );
        // The link ends up, so every node keeps a route.
        let fib = &result.record.fib;
        for i in 0..result.record.node_count {
            assert!(
                fib.current(NodeId::new(i as u32), Prefix::new(0)).is_some(),
                "node {i} lost the destination after the flap train"
            );
        }
    }

    #[test]
    fn explicit_fault_plan_overrides_event_and_fingerprint() {
        let base = ScenarioSpec::new(TopologySpec::Clique(5), EventKind::TDown).with_seed(1);
        let planned = base.clone().with_faults(FaultPlan::new().session_reset(
            bgpsim_netsim::time::SimDuration::ZERO,
            NodeId::new(1),
            NodeId::new(2),
        ));
        assert_ne!(base.fingerprint(), planned.fingerprint());
        assert!(
            planned.fingerprint().contains("|faults="),
            "fault plans key the cache"
        );
        let result = planned.run();
        assert_eq!(result.record.faults_injected, 1);
        assert_eq!(result.record.session_resets, 1);
    }

    #[test]
    fn flap_fingerprint_tracks_profile() {
        let a = ScenarioSpec::new(TopologySpec::BClique(3), EventKind::Flap).with_seed(1);
        let profile = FlapProfile {
            count: 7,
            ..Default::default()
        };
        let b = a.clone().with_flap(profile);
        assert!(a.fingerprint().contains("|flap="));
        assert_ne!(a.fingerprint(), b.fingerprint());
        // Fault-free fingerprints carry no fault fragment at all.
        let plain = ScenarioSpec::new(TopologySpec::BClique(3), EventKind::TLong).with_seed(1);
        assert!(!plain.fingerprint().contains("|flap="));
        assert!(!plain.fingerprint().contains("|faults="));
    }

    #[test]
    fn tdown_scenario_runs_end_to_end() {
        let result = ScenarioSpec::new(TopologySpec::Clique(5), EventKind::TDown)
            .with_seed(1)
            .run();
        assert!(result.record.convergence_time().is_some());
        assert!(result.measurement.metrics.ttl_exhaustions > 0);
    }

    #[test]
    fn tlong_on_bclique_fails_paper_link() {
        let result = ScenarioSpec::new(TopologySpec::BClique(3), EventKind::TLong)
            .with_seed(2)
            .run();
        assert_eq!(
            result.failure,
            FailureEvent::LinkDown {
                a: NodeId::new(0),
                b: NodeId::new(3),
            }
        );
        // Destination stays reachable: someone still has a route.
        let fib = &result.record.fib;
        let via_count = (0..result.record.node_count)
            .filter(|&i| fib.current(NodeId::new(i as u32), Prefix::new(0)).is_some())
            .count();
        assert_eq!(via_count, result.record.node_count);
    }

    #[test]
    fn tlong_on_internet_keeps_destination_reachable() {
        let result = ScenarioSpec::new(
            TopologySpec::InternetLike {
                n: 29,
                topo_seed: 3,
            },
            EventKind::TLong,
        )
        .with_seed(3)
        .run();
        let fib = &result.record.fib;
        for i in 0..result.record.node_count {
            assert!(
                fib.current(NodeId::new(i as u32), Prefix::new(0)).is_some(),
                "node {i} lost the destination after T_long"
            );
        }
    }
}
