//! One-call measurement pipeline.
//!
//! Runs the study's full measurement procedure on a completed
//! control-plane run: build the traffic fleet, replay the packets it
//! sends during convergence against the recorded FIB history, and
//! compute the paper metrics (plus the loop census extension).
//!
//! The replay and the loop census share one
//! [`EpochIndex`](bgpsim_dataplane::EpochIndex) built from
//! the run's FIB history: the fleet replay walks the index's
//! `(node, epoch)` table once per FIB change that touches a source's
//! trajectory and counts the rest of each source's send schedule
//! arithmetically (see `bgpsim-dataplane::replay`), and the census
//! consumes the index's delta stream, so the whole measurement makes a
//! single pass over the recorded history and never materializes a
//! packet. The naive
//! per-packet [`walk_all`](bgpsim_dataplane::walk_all) is kept as the
//! oracle and cross-checked in tests and CI.

use bgpsim_core::Prefix;
use bgpsim_dataplane::{paper_sources, replay_fleet, LoopRecord, ReplayStats, DEFAULT_TTL};
use bgpsim_netsim::rng::SimRng;
use bgpsim_netsim::time::SimDuration;
use bgpsim_sim::RunRecord;
use bgpsim_topology::NodeId;

use crate::churn::ChurnSummary;
use crate::loop_stats::{summarize, LoopCensusSummary};
use crate::report::{convergence_window, metrics_from_tally, PaperMetrics};

/// Everything measured about one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMeasurement {
    /// The paper's four metrics (plus supporting counts).
    pub metrics: PaperMetrics,
    /// Every loop episode observed in the forwarding history.
    pub census: Vec<LoopRecord>,
    /// Aggregate loop statistics.
    pub census_summary: LoopCensusSummary,
    /// What the fault layer did to the run (all zeros when fault-free).
    pub churn: ChurnSummary,
    /// Replay-engine counters (packets, memo hits, epoch count).
    pub replay: ReplayStats,
}

/// Measures a completed run.
///
/// Traffic follows the paper's setup: every node except `destination`
/// sends 10 packets/s with a random phase (seeded by `traffic_seed`),
/// over the record's [`replay_window`](RunRecord::replay_window) — from
/// the failure instant until convergence ends, extended by one packet
/// lifetime so late loops are still sampled.
pub fn measure_run(
    record: &RunRecord,
    destination: NodeId,
    prefix: Prefix,
    traffic_seed: u64,
) -> RunMeasurement {
    let mut traffic_rng = SimRng::new(traffic_seed).fork(0xDA7A);
    let sources = paper_sources(record.node_count, destination, &mut traffic_rng);
    let (start, end) = record.replay_window();
    let link_delay = SimDuration::from_millis(2);
    // One index serves both the packet replay and the loop census.
    let index = record.fib.epoch_index(prefix);
    let (tally, replay) = replay_fleet(&index, &sources, DEFAULT_TTL, start, end, link_delay);
    // Sends inside the closed convergence window, per source: those
    // before its end (inclusive, capped by the replay window) minus
    // those before its start.
    let packets_during_convergence = convergence_window(record).map_or(0, |(fail, conv_end)| {
        let close = end.min(conv_end + SimDuration::from_nanos(1));
        sources
            .iter()
            .map(|s| {
                s.sends_before(start, close)
                    .saturating_sub(s.sends_before(start, fail))
            })
            .sum()
    });
    let metrics = metrics_from_tally(record, &tally, packets_during_convergence);
    let census = index.loop_census();
    let census_summary = summarize(&census);
    RunMeasurement {
        metrics,
        census,
        census_summary,
        churn: ChurnSummary::from_record(record),
        replay,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpsim_core::{BgpConfig, Jitter};
    use bgpsim_sim::{ConvergenceExperiment, FailureEvent};
    use bgpsim_topology::generators;

    fn run_tdown_clique(n: usize, seed: u64) -> (RunRecord, RunMeasurement) {
        let g = generators::clique(n);
        let dest = NodeId::new(0);
        let prefix = Prefix::new(0);
        let record = ConvergenceExperiment::new(
            g,
            dest,
            FailureEvent::WithdrawPrefix {
                origin: dest,
                prefix,
            },
        )
        .with_config(BgpConfig::default().with_jitter(Jitter::SSFNET))
        .with_seed(seed)
        .run();
        let m = measure_run(&record, dest, prefix, seed);
        (record, m)
    }

    #[test]
    fn tdown_clique_shows_transient_loops() {
        // The paper's headline phenomenon: path-vector routing loops
        // during T_down convergence in a clique.
        let (record, m) = run_tdown_clique(8, 1);
        assert!(
            m.metrics.ttl_exhaustions > 0,
            "no loops observed in clique T_down"
        );
        assert!(m.metrics.packets_during_convergence > 0);
        assert!(m.metrics.looping_ratio > 0.0 && m.metrics.looping_ratio <= 1.0);
        let conv = record.convergence_time().unwrap();
        let looping = m.metrics.overall_looping_duration.unwrap();
        assert!(
            looping <= conv + SimDuration::from_secs(1),
            "looping duration {looping} cannot much exceed convergence {conv}"
        );
        // Loop census must agree that loops existed.
        assert!(m.census_summary.count > 0);
        assert!(m.census_summary.min_size >= 2);
        // After convergence, no loops remain (T_down: all routes gone).
        assert_eq!(m.census_summary.unresolved, 0);
    }

    #[test]
    fn no_loops_before_any_failure() {
        // A run with no failure: nothing to measure, nothing looping.
        let g = generators::clique(5);
        let mut net = bgpsim_sim::SimNetwork::new(
            &g,
            BgpConfig::default(),
            bgpsim_sim::SimParams::default(),
            2,
        );
        net.originate(NodeId::new(0), Prefix::new(0));
        net.run_to_quiescence(10_000_000);
        let record = net.into_record();
        let m = measure_run(&record, NodeId::new(0), Prefix::new(0), 2);
        assert_eq!(m.metrics.ttl_exhaustions, 0);
        assert_eq!(m.metrics.packets_during_convergence, 0);
        // Initial convergence of a clique creates no forwarding loops:
        // routes only ever improve from nothing.
        assert_eq!(m.census_summary.count, 0);
    }

    #[test]
    fn measurement_is_deterministic() {
        let (_, a) = run_tdown_clique(6, 5);
        let (_, b) = run_tdown_clique(6, 5);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.census, b.census);
    }
}
