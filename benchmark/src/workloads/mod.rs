//! The six workloads, and the reporting they share.

pub mod control_plane;
pub mod paper_sweep;
pub mod replay;
pub mod serve;

use bgpsim_dataplane::ReplayStats;

use crate::harness::{ratio, Outcome};
use crate::span::Ledger;

/// Simulated control-plane statistics summed over a set of runs.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SimCounts {
    pub events: u64,
    pub decisions: u64,
    pub updates_sent: u64,
    pub withdrawals_sent: u64,
    pub max_queue_depth: u64,
}

impl SimCounts {
    pub fn add(&mut self, record: &bgpsim_sim::RunRecord) {
        let stats = record.total_stats();
        self.events += record.events_dispatched;
        self.decisions += stats.decisions_run;
        self.updates_sent += stats.announcements_sent;
        self.withdrawals_sent += stats.withdrawals_sent;
        self.max_queue_depth = self.max_queue_depth.max(record.max_queue_depth);
    }

    /// The statistics that must repeat exactly.
    pub fn report_counts(&self, outcome: &mut Outcome) {
        outcome.count("sim.events", self.events);
        outcome.count("core.decisions", self.decisions);
        outcome.count("core.updates_sent", self.updates_sent);
        outcome.count("core.withdrawals_sent", self.withdrawals_sent);
        outcome.count("netsim.max_queue_depth", self.max_queue_depth);
    }

    /// The same as layer metrics, given the time `sim.run` took.
    pub fn report(&self, outcome: &mut Outcome, sim_ns: f64) {
        self.report_counts(outcome);
        outcome.metric("sim.events", self.events as f64);
        outcome.metric("core.decisions", self.decisions as f64);
        outcome.metric("core.updates_sent", self.updates_sent as f64);
        outcome.metric("core.withdrawals_sent", self.withdrawals_sent as f64);
        outcome.metric("netsim.max_queue_depth", self.max_queue_depth as f64);
        outcome.metric("sim.ns_per_event", ratio(sim_ns, self.events as f64));
    }
}

/// The replay statistics that must repeat exactly.
pub fn replay_counts(outcome: &mut Outcome, replay: &ReplayStats, loops: u64) {
    outcome.count("dataplane.packets", replay.packets);
    outcome.count("dataplane.walks", replay.walks);
    outcome.count("dataplane.epochs", replay.epochs);
    outcome.count("dataplane.loops", loops);
}

/// The same as layer metrics, given the time `walk_indexed_batch` took.
pub fn report_replay(outcome: &mut Outcome, replay: &ReplayStats, loops: u64, replay_ns: f64) {
    replay_counts(outcome, replay, loops);
    outcome.metric("dataplane.packets", replay.packets as f64);
    outcome.metric("dataplane.walks", replay.walks as f64);
    outcome.metric("dataplane.epochs", replay.epochs as f64);
    outcome.metric("dataplane.loops", loops as f64);
    outcome.metric("dataplane.memo_hit_ratio", replay.hit_rate());
    outcome.metric(
        "dataplane.packets_per_epoch",
        ratio(replay.packets as f64, replay.epochs as f64),
    );
    outcome.metric(
        "dataplane.replay_ns_per_packet",
        ratio(replay_ns, replay.packets as f64),
    );
}

/// The layer rows of a ledger taken over `passes` identical passes,
/// per pass, under their catalogue names.
pub fn report_layers(outcome: &mut Outcome, ledger: &Ledger, root: &'static str, passes: f64) {
    for (span, metric) in [
        ("topology.build", "topology.build_ns"),
        ("sim.run", "sim.run_ns"),
        ("dataplane.packet_gen", "dataplane.packet_gen_ns"),
        ("dataplane.epoch_build", "dataplane.epoch_build_ns"),
        ("dataplane.replay", "dataplane.replay_ns"),
        ("dataplane.census", "dataplane.census_ns"),
        ("metrics.compute", "metrics.compute_ns"),
        ("experiments.fingerprint", "experiments.fingerprint_ns"),
    ] {
        outcome.metric(metric, ledger.ns(span) as f64 / passes);
    }
    outcome.metric("ledger.wall_ns", ledger.wall_ns as f64 / passes);
    outcome.metric("ledger.unattributed_share", ledger.unattributed_share(root));
    let largest = ledger.self_ns.iter().max_by_key(|(_, &ns)| ns);
    if let Some((name, &ns)) = largest {
        eprintln!(
            "ledger: {:.3} s per pass, largest row {name} ({:.1} %), unattributed {:.2} %",
            ledger.wall_ns as f64 / passes / 1e9,
            100.0 * ratio(ns as f64, ledger.wall_ns as f64),
            100.0 * ledger.unattributed_share(root),
        );
    }
}
