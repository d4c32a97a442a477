//! Raw observations from one simulation run, and the [`Recorder`]
//! that decides how much of it is kept.

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

/// What a [`SimNetwork`](crate::SimNetwork) keeps of each BGP send and
/// route change beyond the summary every [`RunRecord`] carries.
///
/// [`FullLog`] keeps both logs, for library users, tests and the human
/// timeline; `()` keeps nothing, for jobs whose metrics read only the
/// summary. The choice is a type parameter, never a runtime switch, so
/// the simulation itself is identical under either.
pub trait Recorder: Default {
    /// Notes one message leaving `from` for `to` at `at`.
    fn send(&mut self, at: SimTime, from: NodeId, to: NodeId, msg: &BgpMessage);

    /// Notes that `node`'s selected route for `prefix` became `path`
    /// (`None` = route lost) at `at`.
    fn path_change(&mut self, at: SimTime, node: NodeId, prefix: Prefix, path: Option<&AsPath>);

    /// Hands the kept logs over into `record`.
    fn finish(self, record: &mut RunRecord);
}

/// The recorder that keeps every send and every route change.
#[derive(Debug, Clone, Default)]
pub struct FullLog {
    /// Every BGP message send, in chronological order.
    pub sends: Vec<UpdateSend>,
    /// Every route-selection change, in chronological order.
    pub path_changes: Vec<PathChange>,
}

impl Recorder for FullLog {
    fn send(&mut self, at: SimTime, from: NodeId, to: NodeId, msg: &BgpMessage) {
        self.sends.push(UpdateSend {
            at,
            from,
            to,
            withdraw: msg.is_withdraw(),
            message: msg.clone(),
        });
    }

    fn path_change(&mut self, at: SimTime, node: NodeId, prefix: Prefix, path: Option<&AsPath>) {
        self.path_changes.push(PathChange {
            at,
            node,
            prefix,
            path: path.cloned(),
        });
    }

    fn finish(self, record: &mut RunRecord) {
        record.sends = self.sends;
        record.path_changes = self.path_changes;
    }
}

/// The summary-only recorder: the record's logs stay empty.
impl Recorder for () {
    fn send(&mut self, _: SimTime, _: NodeId, _: NodeId, _: &BgpMessage) {}

    fn path_change(&mut self, _: SimTime, _: NodeId, _: Prefix, _: Option<&AsPath>) {}

    fn finish(self, _: &mut RunRecord) {}
}

/// Everything observed during a simulation run, for offline analysis.
///
/// `PartialEq` compares every recorded observation — two equal records
/// describe byte-identical runs. `sends` and `path_changes` are filled
/// only under the [`FullLog`] recorder; every other field, the summary
/// the paper metrics read included, is filled under any recorder.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunRecord {
    /// Number of nodes in the simulated network.
    pub node_count: usize,
    /// When the failure was injected (if one was).
    pub failure_at: Option<SimTime>,
    /// When the event queue drained.
    pub quiescent_at: SimTime,
    /// When the last BGP message of the run was sent.
    pub last_send: Option<SimTime>,
    /// BGP messages sent at or after `failure_at` (0 without a
    /// failure), including those sent at the failure instant by events
    /// dispatched before the failure itself.
    pub sends_after_failure: u64,
    /// Every BGP message send, in chronological order ([`FullLog`]
    /// only).
    pub sends: Vec<UpdateSend>,
    /// Every route-selection change, in chronological order — the
    /// "route change traces" the paper proposes to analyze next
    /// ([`FullLog`] only).
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
    /// The paper's **convergence time**: from the failure to the last
    /// BGP update sent. `None` if no failure was injected or nothing
    /// was sent afterwards.
    pub fn convergence_time(&self) -> Option<SimDuration> {
        let fail = self.failure_at?;
        Some(self.convergence_end()? - fail)
    }

    /// The instant convergence completed (last send at or after the
    /// failure). Sends are made in time order, so that is the run's
    /// last send if it did not precede the failure.
    pub fn convergence_end(&self) -> Option<SimTime> {
        let fail = self.failure_at?;
        self.last_send.filter(|&t| t >= fail)
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

    #[test]
    fn convergence_time_from_failure_to_last_send() {
        let rec = RunRecord {
            failure_at: Some(SimTime::from_secs(10)),
            last_send: Some(SimTime::from_secs(42)),
            ..Default::default()
        };
        assert_eq!(rec.convergence_time(), Some(SimDuration::from_secs(32)));
        assert_eq!(rec.convergence_end(), Some(SimTime::from_secs(42)));
    }

    #[test]
    fn no_failure_means_no_convergence_metric() {
        let rec = RunRecord {
            last_send: Some(SimTime::from_millis(1)),
            ..Default::default()
        };
        assert_eq!(rec.convergence_time(), None);
    }

    #[test]
    fn failure_with_no_reaction() {
        let rec = RunRecord {
            failure_at: Some(SimTime::from_secs(10)),
            last_send: Some(SimTime::from_secs(5)),
            ..Default::default()
        };
        assert_eq!(rec.convergence_time(), None);
    }

    #[test]
    fn a_send_at_the_failure_instant_ends_convergence() {
        let rec = RunRecord {
            failure_at: Some(SimTime::from_secs(10)),
            last_send: Some(SimTime::from_secs(10)),
            ..Default::default()
        };
        assert_eq!(rec.convergence_time(), Some(SimDuration::ZERO));
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
