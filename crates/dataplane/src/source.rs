//! Constant-bit-rate traffic sources.
//!
//! The study gives every non-destination AS a host sending a constant
//! 10 packets/s stream toward the destination (§4.1), deliberately slow
//! enough that congestion and queueing are negligible. Each source gets
//! a random phase offset so the fleet does not fire in lockstep.

use bgpsim_netsim::rng::SimRng;
use bgpsim_netsim::time::{SimDuration, SimTime};
use bgpsim_topology::NodeId;

/// A periodic packet source at one AS.
///
/// # Examples
///
/// ```
/// use bgpsim_dataplane::source::CbrSource;
/// use bgpsim_netsim::time::{SimDuration, SimTime};
/// use bgpsim_topology::NodeId;
///
/// let src = CbrSource::new(
///     NodeId::new(3),
///     SimDuration::from_millis(100),
///     SimDuration::from_millis(40),
/// );
/// let times: Vec<_> = src
///     .send_times(SimTime::ZERO, SimTime::from_millis(250))
///     .collect();
/// assert_eq!(times.len(), 3); // 40 ms, 140 ms, 240 ms
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CbrSource {
    node: NodeId,
    interval: SimDuration,
    phase: SimDuration,
}

impl CbrSource {
    /// Creates a source at `node` emitting every `interval`, offset by
    /// `phase` from the window start.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero or `phase >= interval`.
    pub fn new(node: NodeId, interval: SimDuration, phase: SimDuration) -> Self {
        assert!(!interval.is_zero(), "interval must be positive");
        assert!(
            phase < interval,
            "phase {phase} must be smaller than interval {interval}"
        );
        CbrSource {
            node,
            interval,
            phase,
        }
    }

    /// Creates a source with a random phase drawn from `rng`.
    pub fn with_random_phase(node: NodeId, interval: SimDuration, rng: &mut SimRng) -> Self {
        let phase = SimDuration::from_nanos(rng.index(interval.as_nanos() as usize) as u64);
        CbrSource::new(node, interval, phase)
    }

    /// The source's AS.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The inter-packet interval.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// The `k`-th send instant (from zero) of a window opening at
    /// `start`: the same instant the `k`-th step of
    /// [`send_times`](Self::send_times) yields, without iterating.
    pub fn send_time(&self, start: SimTime, k: u64) -> SimTime {
        start + self.phase + self.interval * k
    }

    /// How many send instants of a window opening at `start` fall
    /// strictly before `t`. `sends_before(start, end)` is the length of
    /// `send_times(start, end)`.
    pub fn sends_before(&self, start: SimTime, t: SimTime) -> u64 {
        t.checked_duration_since(start + self.phase)
            .map_or(0, |d| d.as_nanos().div_ceil(self.interval.as_nanos()))
    }

    /// The send instants within `[start, end)`.
    pub fn send_times(&self, start: SimTime, end: SimTime) -> SendTimes {
        SendTimes {
            next: start + self.phase,
            interval: self.interval,
            end,
        }
    }
}

/// Iterator over a source's send instants. Created by
/// [`CbrSource::send_times`].
#[derive(Debug, Clone)]
pub struct SendTimes {
    next: SimTime,
    interval: SimDuration,
    end: SimTime,
}

impl Iterator for SendTimes {
    type Item = SimTime;

    fn next(&mut self) -> Option<SimTime> {
        if self.next >= self.end {
            return None;
        }
        let t = self.next;
        self.next = t + self.interval;
        Some(t)
    }
}

/// Builds the study's standard source fleet: one 10 pkt/s source per
/// node except the destination, each with a random phase.
pub fn paper_sources(node_count: usize, destination: NodeId, rng: &mut SimRng) -> Vec<CbrSource> {
    let interval = SimDuration::from_millis(100);
    (0..node_count as u32)
        .map(NodeId::new)
        .filter(|&n| n != destination)
        .map(|n| CbrSource::with_random_phase(n, interval, rng))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_times_are_periodic() {
        let s = CbrSource::new(
            NodeId::new(1),
            SimDuration::from_millis(100),
            SimDuration::ZERO,
        );
        let times: Vec<u64> = s
            .send_times(SimTime::from_secs(1), SimTime::from_millis(1350))
            .map(|t| t.as_nanos() / 1_000_000)
            .collect();
        assert_eq!(times, vec![1000, 1100, 1200, 1300]);
    }

    #[test]
    fn empty_window_yields_nothing() {
        let s = CbrSource::new(
            NodeId::new(1),
            SimDuration::from_millis(100),
            SimDuration::from_millis(50),
        );
        assert_eq!(s.send_times(SimTime::ZERO, SimTime::ZERO).count(), 0);
        assert_eq!(
            s.send_times(SimTime::ZERO, SimTime::from_millis(50))
                .count(),
            0,
            "phase pushes first packet past the window"
        );
    }

    #[test]
    fn rate_matches_window_length() {
        let s = CbrSource::new(
            NodeId::new(1),
            SimDuration::from_millis(100),
            SimDuration::from_millis(7),
        );
        let count = s.send_times(SimTime::ZERO, SimTime::from_secs(10)).count();
        assert_eq!(count, 100, "10 pkt/s for 10 s");
    }

    #[test]
    fn arithmetic_agrees_with_the_iterator() {
        let s = CbrSource::new(
            NodeId::new(1),
            SimDuration::from_nanos(7),
            SimDuration::from_nanos(3),
        );
        let start = SimTime::from_nanos(10);
        for end in 0..60 {
            let end = SimTime::from_nanos(end);
            let times: Vec<SimTime> = s.send_times(start, end).collect();
            assert_eq!(s.sends_before(start, end), times.len() as u64, "{end}");
            for (k, &t) in times.iter().enumerate() {
                assert_eq!(s.send_time(start, k as u64), t);
            }
        }
    }

    #[test]
    #[should_panic(expected = "phase")]
    fn phase_must_be_less_than_interval() {
        let _ = CbrSource::new(
            NodeId::new(1),
            SimDuration::from_millis(100),
            SimDuration::from_millis(100),
        );
    }

    #[test]
    fn random_phase_in_range() {
        let mut rng = SimRng::new(3);
        for _ in 0..100 {
            let s = CbrSource::with_random_phase(
                NodeId::new(1),
                SimDuration::from_millis(100),
                &mut rng,
            );
            assert!(s.phase < s.interval);
        }
    }

    #[test]
    fn paper_fleet_excludes_destination() {
        let mut rng = SimRng::new(4);
        let fleet = paper_sources(10, NodeId::new(3), &mut rng);
        assert_eq!(fleet.len(), 9);
        assert!(fleet.iter().all(|s| s.node() != NodeId::new(3)));
        assert!(fleet
            .iter()
            .all(|s| s.interval() == SimDuration::from_millis(100)));
    }

    #[test]
    fn deterministic_fleet_for_same_seed() {
        let a = paper_sources(8, NodeId::new(0), &mut SimRng::new(9));
        let b = paper_sources(8, NodeId::new(0), &mut SimRng::new(9));
        assert_eq!(a, b);
    }
}
