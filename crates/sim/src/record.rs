//! Raw observations from one simulation run.

use bgpsim_core::{AsPath, BgpMessage, Prefix, RouterStats};
use bgpsim_dataplane::{NetworkFib, PacketFate};
use bgpsim_netsim::time::{SimDuration, SimTime};
use bgpsim_topology::NodeId;

/// One BGP message leaving a router.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateSend {
    /// When the message left the router.
    pub at: SimTime,
    /// The sending router.
    pub from: NodeId,
    /// The receiving peer.
    pub to: NodeId,
    /// `true` for withdrawals.
    pub withdraw: bool,
    /// The message content (announced path or withdrawal).
    pub message: BgpMessage,
}

/// One change of a router's selected route.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathChange {
    /// When the decision process switched routes.
    pub at: SimTime,
    /// The router whose selection changed.
    pub node: NodeId,
    /// The prefix concerned.
    pub prefix: Prefix,
    /// The newly selected path (`None` = route lost).
    pub path: Option<AsPath>,
}

/// Everything observed during a simulation run, for offline analysis.
///
/// `PartialEq` compares every recorded observation — two equal records
/// describe byte-identical runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunRecord {
    /// Number of nodes in the simulated network.
    pub node_count: usize,
    /// When the failure was injected (if one was).
    pub failure_at: Option<SimTime>,
    /// When the event queue drained.
    pub quiescent_at: SimTime,
    /// Every BGP message send, in chronological order.
    pub sends: Vec<UpdateSend>,
    /// Every route-selection change, in chronological order — the
    /// "route change traces" the paper proposes to analyze next.
    pub path_changes: Vec<PathChange>,
    /// The recorded forwarding-table history.
    pub fib: NetworkFib,
    /// Fates of live (event-driven) packets, if any were injected.
    pub live_fates: Vec<(u64, PacketFate)>,
    /// Final per-router protocol counters (indexed by node id).
    pub router_stats: Vec<RouterStats>,
    /// Total engine events dispatched over the run.
    pub events_dispatched: u64,
    /// High-water mark of the engine's pending-event queue.
    pub max_queue_depth: u64,
    /// Fault-plan events that fired (zero when no plan was installed).
    pub faults_injected: u64,
    /// BGP session resets applied (a subset of `faults_injected` plus
    /// any directly injected resets).
    pub session_resets: u64,
    /// Messages dropped by the random-loss model across all links.
    pub messages_lost: u64,
}

impl RunRecord {
    /// The time of the last message sent at or after `since`.
    pub fn last_send_at(&self, since: SimTime) -> Option<SimTime> {
        self.sends.iter().rev().map(|s| s.at).find(|&t| t >= since)
    }

    /// Number of messages sent at or after `since`.
    pub fn sends_since(&self, since: SimTime) -> usize {
        self.sends.iter().filter(|s| s.at >= since).count()
    }

    /// The paper's **convergence time**: from the failure to the last
    /// BGP update sent. `None` if no failure was injected or nothing
    /// was sent afterwards.
    pub fn convergence_time(&self) -> Option<SimDuration> {
        let fail = self.failure_at?;
        let last = self.last_send_at(fail)?;
        Some(last - fail)
    }

    /// The instant convergence completed (last send after the failure).
    pub fn convergence_end(&self) -> Option<SimTime> {
        let fail = self.failure_at?;
        self.last_send_at(fail)
    }

    /// The paper's traffic-replay window (§4.2): from the failure
    /// instant to the end of convergence, extended by one packet
    /// lifetime ([`DEFAULT_TTL`](bgpsim_dataplane::DEFAULT_TTL) hops at
    /// the 2 ms per-AS link delay) so late loops are still sampled.
    /// When the failure triggered no visible convergence the window is
    /// just `[failure, failure + lifetime)`.
    ///
    /// The measurement pipeline (`bgpsim-metrics::measure_run`) and the
    /// replay benches both generate their packet fleets over this
    /// window.
    pub fn replay_window(&self) -> (SimTime, SimTime) {
        let start = self.failure_at.unwrap_or(SimTime::ZERO);
        let lifetime = SimDuration::from_millis(2) * u64::from(bgpsim_dataplane::DEFAULT_TTL);
        let end = self.convergence_end().unwrap_or(start) + lifetime;
        (start, end)
    }

    /// Aggregated router counters.
    pub fn total_stats(&self) -> RouterStats {
        let mut total = RouterStats::default();
        for s in &self.router_stats {
            total.announcements_sent += s.announcements_sent;
            total.withdrawals_sent += s.withdrawals_sent;
            total.messages_received += s.messages_received;
            total.ssld_conversions += s.ssld_conversions;
            total.ghost_flushes += s.ghost_flushes;
            total.assertion_removals += s.assertion_removals;
            total.route_changes += s.route_changes;
            total.decisions_run += s.decisions_run;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn send(at_ms: u64, withdraw: bool) -> UpdateSend {
        let message = if withdraw {
            BgpMessage::withdraw(Prefix::new(0))
        } else {
            BgpMessage::announce(Prefix::new(0), AsPath::from_ids([0, 9]))
        };
        UpdateSend {
            at: SimTime::from_millis(at_ms),
            from: NodeId::new(0),
            to: NodeId::new(1),
            withdraw,
            message,
        }
    }

    #[test]
    fn convergence_time_from_failure_to_last_send() {
        let rec = RunRecord {
            failure_at: Some(SimTime::from_secs(10)),
            sends: vec![send(5_000, false), send(11_000, false), send(42_000, true)],
            ..Default::default()
        };
        assert_eq!(rec.convergence_time(), Some(SimDuration::from_secs(32)));
        assert_eq!(rec.convergence_end(), Some(SimTime::from_secs(42)));
        assert_eq!(rec.sends_since(SimTime::from_secs(10)), 2);
    }

    #[test]
    fn no_failure_means_no_convergence_metric() {
        let rec = RunRecord {
            sends: vec![send(1, false)],
            ..Default::default()
        };
        assert_eq!(rec.convergence_time(), None);
    }

    #[test]
    fn failure_with_no_reaction() {
        let rec = RunRecord {
            failure_at: Some(SimTime::from_secs(10)),
            sends: vec![send(5_000, false)],
            ..Default::default()
        };
        assert_eq!(rec.convergence_time(), None);
    }

    #[test]
    fn total_stats_sums() {
        let a = RouterStats {
            announcements_sent: 2,
            ..Default::default()
        };
        let b = RouterStats {
            announcements_sent: 3,
            withdrawals_sent: 1,
            ..Default::default()
        };
        let rec = RunRecord {
            router_stats: vec![a, b],
            ..Default::default()
        };
        let t = rec.total_stats();
        assert_eq!(t.announcements_sent, 5);
        assert_eq!(t.withdrawals_sent, 1);
        assert_eq!(t.messages_sent(), 6);
    }
}
