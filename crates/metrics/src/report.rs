//! The paper's measurement suite (§4.2).
//!
//! Four metrics characterize transient looping in a run:
//!
//! * **Convergence time** — failure to last BGP update sent;
//! * **Overall looping duration** — first to last TTL exhaustion;
//! * **Number of TTL exhaustions** — aggregate frequency × duration of
//!   individual loops;
//! * **Looping ratio** — TTL exhaustions ÷ packets sent during
//!   convergence ≈ the probability that a packet sent during
//!   convergence encounters a loop.

use bgpsim_dataplane::{FateTally, Packet, PacketFate};
use bgpsim_netsim::time::{SimDuration, SimTime};
use bgpsim_sim::RunRecord;

/// The four paper metrics plus supporting counts for one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperMetrics {
    /// Failure → last BGP update sent. `None` if the failure triggered
    /// no updates.
    pub convergence_time: Option<SimDuration>,
    /// First → last TTL exhaustion. `None` if no packet died of TTL.
    pub overall_looping_duration: Option<SimDuration>,
    /// Packets dropped by TTL exhaustion.
    pub ttl_exhaustions: u64,
    /// Packets sent within `[failure, convergence end]`.
    pub packets_during_convergence: u64,
    /// `ttl_exhaustions / packets_during_convergence` (0 if no packets).
    pub looping_ratio: f64,
    /// Packets delivered.
    pub delivered: u64,
    /// Packets dropped for lack of a route.
    pub no_route: u64,
    /// Total packets evaluated.
    pub packets_total: u64,
    /// BGP messages sent at or after the failure.
    pub messages_after_failure: u64,
}

impl PaperMetrics {
    /// Convergence time in seconds (0 if none).
    pub fn convergence_secs(&self) -> f64 {
        self.convergence_time.map_or(0.0, |d| d.as_secs_f64())
    }

    /// Overall looping duration in seconds (0 if none).
    pub fn looping_secs(&self) -> f64 {
        self.overall_looping_duration
            .map_or(0.0, |d| d.as_secs_f64())
    }
}

/// Computes the paper metrics from a run record and the fates of the
/// packets replayed against it.
///
/// `packets` and `fates` must be parallel arrays (as produced by
/// [`bgpsim_dataplane::walk_all`]). This is [`metrics_from_tally`] over
/// the tally of `fates`; the measurement pipeline calls the same
/// builder with a tally it never materialized fates for.
///
/// # Panics
///
/// Panics if the two slices differ in length.
pub fn compute_metrics(
    record: &RunRecord,
    packets: &[Packet],
    fates: &[PacketFate],
) -> PaperMetrics {
    assert_eq!(
        packets.len(),
        fates.len(),
        "packets and fates must be parallel"
    );
    let packets_during_convergence = match convergence_window(record) {
        Some((fail, end)) => packets
            .iter()
            .filter(|p| p.sent_at >= fail && p.sent_at <= end)
            .count() as u64,
        None => 0,
    };
    metrics_from_tally(
        record,
        &FateTally::from_fates(fates),
        packets_during_convergence,
    )
}

/// The closed interval `[failure, convergence end]` whose packets the
/// looping ratio is taken over; `None` if no failure fired or it
/// triggered no updates.
pub(crate) fn convergence_window(record: &RunRecord) -> Option<(SimTime, SimTime)> {
    record.failure_at.zip(record.convergence_end())
}

/// Builds the paper metrics from a run record, the aggregate fates of
/// the fleet replayed against it, and the number of those packets sent
/// inside `[failure, convergence end]`.
pub fn metrics_from_tally(
    record: &RunRecord,
    tally: &FateTally,
    packets_during_convergence: u64,
) -> PaperMetrics {
    let overall_looping_duration = tally
        .first_exhaustion
        .zip(tally.last_exhaustion)
        .map(|(first, last)| last - first);
    let looping_ratio = if packets_during_convergence > 0 {
        tally.ttl_exhausted as f64 / packets_during_convergence as f64
    } else {
        0.0
    };
    PaperMetrics {
        convergence_time: record.convergence_time(),
        overall_looping_duration,
        ttl_exhaustions: tally.ttl_exhausted,
        packets_during_convergence,
        looping_ratio,
        delivered: tally.delivered,
        no_route: tally.no_route,
        packets_total: tally.packets(),
        messages_after_failure: record.sends_after_failure,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpsim_core::Prefix;
    use bgpsim_topology::NodeId;

    fn pkt(id: u64, sent_ms: u64) -> Packet {
        Packet {
            id,
            src: NodeId::new(1),
            prefix: Prefix::new(0),
            ttl: 128,
            sent_at: SimTime::from_millis(sent_ms),
        }
    }

    fn record_with_window(fail_s: u64, last_send_s: u64) -> RunRecord {
        RunRecord {
            failure_at: Some(SimTime::from_secs(fail_s)),
            last_send: Some(SimTime::from_secs(last_send_s)),
            sends_after_failure: 1,
            ..Default::default()
        }
    }

    #[test]
    fn counts_and_windows() {
        let record = record_with_window(10, 40);
        let packets = vec![
            pkt(0, 5_000),
            pkt(1, 15_000),
            pkt(2, 20_000),
            pkt(3, 50_000),
        ];
        let fates = vec![
            PacketFate::Delivered {
                at: SimTime::from_millis(5_100),
                hops: 2,
            },
            PacketFate::TtlExhausted {
                at: SimTime::from_millis(15_256),
                node: NodeId::new(2),
            },
            PacketFate::TtlExhausted {
                at: SimTime::from_millis(20_256),
                node: NodeId::new(2),
            },
            PacketFate::NoRoute {
                at: SimTime::from_millis(50_000),
                node: NodeId::new(1),
            },
        ];
        let m = compute_metrics(&record, &packets, &fates);
        assert_eq!(m.ttl_exhaustions, 2);
        assert_eq!(m.delivered, 1);
        assert_eq!(m.no_route, 1);
        assert_eq!(m.packets_total, 4);
        // Window [10s, 40s] contains packets 1 and 2.
        assert_eq!(m.packets_during_convergence, 2);
        assert!((m.looping_ratio - 1.0).abs() < 1e-12);
        assert_eq!(m.overall_looping_duration, Some(SimDuration::from_secs(5)));
        assert_eq!(m.convergence_time, Some(SimDuration::from_secs(30)));
        assert_eq!(m.messages_after_failure, 1);
    }

    #[test]
    fn no_exhaustions_means_no_looping_duration() {
        let record = record_with_window(10, 40);
        let packets = vec![pkt(0, 15_000)];
        let fates = vec![PacketFate::Delivered {
            at: SimTime::from_millis(15_100),
            hops: 1,
        }];
        let m = compute_metrics(&record, &packets, &fates);
        assert_eq!(m.overall_looping_duration, None);
        assert_eq!(m.looping_secs(), 0.0);
        assert_eq!(m.ttl_exhaustions, 0);
        assert_eq!(m.looping_ratio, 0.0);
    }

    #[test]
    fn empty_packets_are_fine() {
        let record = record_with_window(10, 40);
        let m = compute_metrics(&record, &[], &[]);
        assert_eq!(m.packets_total, 0);
        assert_eq!(m.looping_ratio, 0.0);
    }

    #[test]
    #[should_panic(expected = "parallel")]
    fn mismatched_slices_rejected() {
        let record = record_with_window(10, 40);
        let _ = compute_metrics(&record, &[pkt(0, 0)], &[]);
    }

    #[test]
    fn single_exhaustion_has_zero_duration() {
        let record = record_with_window(10, 40);
        let packets = vec![pkt(0, 15_000)];
        let fates = vec![PacketFate::TtlExhausted {
            at: SimTime::from_millis(15_256),
            node: NodeId::new(3),
        }];
        let m = compute_metrics(&record, &packets, &fates);
        assert_eq!(m.overall_looping_duration, Some(SimDuration::ZERO));
    }
}
