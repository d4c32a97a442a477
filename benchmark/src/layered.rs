//! One scenario executed layer by layer: every public call the one-call
//! paths (`ScenarioSpec::run`, `measure_run`) make, issued from here
//! with a span around each, so the ledger can say where the time went
//! without touching the program.

use bgpsim_core::Prefix;
use bgpsim_dataplane::{
    generate_packets, paper_sources, walk_all, walk_indexed_batch, LoopRecord, Packet, ReplayStats,
    DEFAULT_TTL,
};
use bgpsim_experiments::{EventKind, ScenarioSpec};
use bgpsim_metrics::{
    compute_metrics, summarize, ChurnSummary, LoopCensusSummary, PaperMetrics, RunMeasurement,
};
use bgpsim_netsim::rng::SimRng;
use bgpsim_netsim::time::SimDuration;
use bgpsim_sim::{ConvergenceExperiment, FailureEvent, RunRecord};
use bgpsim_topology::NodeId;

use crate::span::Spans;

/// The prefix every scenario of the study routes.
pub fn prefix() -> Prefix {
    Prefix::new(0)
}

/// The per-AS link delay `measure_run` replays packets with.
pub fn link_delay() -> SimDuration {
    SimDuration::from_millis(2)
}

/// The experiment `spec` describes, on a freshly built topology.
/// `destination` and `failure` come from a `ScenarioResult` of the same
/// spec, because the spec resolves them privately.
///
/// Covers the fault-free `T_down`/`T_long` scenarios the sweeps use; a
/// flap train or explicit fault plan would need the plan installed too.
pub fn experiment(
    spans: &mut Spans,
    spec: &ScenarioSpec,
    destination: NodeId,
    failure: FailureEvent,
) -> ConvergenceExperiment {
    assert!(
        spec.faults.is_none() && spec.event != EventKind::Flap,
        "layered execution covers fault-free scenarios only"
    );
    let (graph, _) = spans.time("topology.build", || spec.topology.build());
    ConvergenceExperiment::new(graph, destination, failure)
        .with_config(spec.config)
        .with_params(spec.params)
        .with_seed(spec.seed)
}

/// The control-plane half of a run.
pub fn simulate(
    spans: &mut Spans,
    spec: &ScenarioSpec,
    destination: NodeId,
    failure: FailureEvent,
) -> RunRecord {
    let experiment = experiment(spans, spec, destination, failure);
    spans.time("sim.run", || experiment.run())
}

/// The packet fleet `measure_run` replays for `record`.
pub fn packet_fleet(record: &RunRecord, destination: NodeId, traffic_seed: u64) -> Vec<Packet> {
    let mut rng = SimRng::new(traffic_seed).fork(0xDA7A);
    let sources = paper_sources(record.node_count, destination, &mut rng);
    let (start, end) = record.replay_window();
    generate_packets(&sources, prefix(), DEFAULT_TTL, start, end)
}

/// What the measurement half produced, in `RunMeasurement`'s terms.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub metrics: PaperMetrics,
    pub census: Vec<LoopRecord>,
    pub census_summary: LoopCensusSummary,
    pub churn: ChurnSummary,
    pub replay: ReplayStats,
}

impl Measured {
    /// Whether the one-call path measured exactly the same.
    pub fn equals(&self, m: &RunMeasurement) -> bool {
        self.metrics == m.metrics
            && self.census == m.census
            && self.census_summary == m.census_summary
            && self.churn == m.churn
            && self.replay == m.replay
    }
}

/// The body of `measure_run`, one public call per span.
pub fn measure(
    spans: &mut Spans,
    record: &RunRecord,
    destination: NodeId,
    traffic_seed: u64,
) -> Measured {
    let packets = spans.time("dataplane.packet_gen", || {
        packet_fleet(record, destination, traffic_seed)
    });
    let index = spans.time("dataplane.epoch_build", || record.fib.epoch_index(prefix()));
    let (fates, replay) = spans.time("dataplane.replay", || {
        walk_indexed_batch(&index, &packets, link_delay())
    });
    let metrics = spans.time("metrics.compute", || {
        compute_metrics(record, &packets, &fates)
    });
    let census = spans.time("dataplane.census", || index.loop_census());
    let (census_summary, churn) = spans.time("metrics.compute", || {
        (summarize(&census), ChurnSummary::from_record(record))
    });
    Measured {
        metrics,
        census,
        census_summary,
        churn,
        replay,
    }
}

/// Checks the batched replay against the naive per-packet oracle on one
/// record: every fate must agree.
pub fn replay_matches_oracle(record: &RunRecord, destination: NodeId, traffic_seed: u64) -> bool {
    let packets = packet_fleet(record, destination, traffic_seed);
    let index = record.fib.epoch_index(prefix());
    let (fates, _) = walk_indexed_batch(&index, &packets, link_delay());
    fates == walk_all(&record.fib, &packets, link_delay())
}
