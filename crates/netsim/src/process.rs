//! Serial message-processing model.
//!
//! The ICDCS'04 study (following SSFNet) models a router's CPU as a
//! single server: messages are processed one at a time, each taking a
//! randomly drawn service time (uniform in `[0.1 s, 0.5 s]` in the
//! paper). This serialization matters for the results — e.g. Ghost
//! Flushing loses its edge on large cliques precisely because the flood
//! of flushing withdrawals queues up behind the useful updates
//! (paper §5, footnote 5).
//!
//! [`Processor`] tracks the busy-until time of such a server and computes
//! completion times for arriving work items.

use crate::time::{SimDuration, SimTime};

/// Statistics about a processor's workload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcessorStats {
    /// Work items admitted.
    pub admitted: u64,
    /// Total service time accumulated.
    pub total_service: SimDuration,
    /// Total time items spent waiting for the server (queueing delay).
    pub total_wait: SimDuration,
    /// Maximum queueing delay seen by any single item.
    pub max_wait: SimDuration,
}

/// A single-server FIFO work queue with busy-until semantics.
///
/// Rather than materializing a queue of items, the processor only tracks
/// the time at which the server frees up; an item arriving at `a` with
/// service time `s` starts at `max(a, busy_until)` and completes at
/// `start + s`. This is exact for FIFO single-server queues and costs
/// `O(1)` per item.
///
/// # Examples
///
/// ```
/// use bgpsim_netsim::process::Processor;
/// use bgpsim_netsim::time::{SimDuration, SimTime};
///
/// let mut cpu = Processor::new();
/// // Two messages arrive at t=0; each takes 100 ms to process.
/// let d = SimDuration::from_millis(100);
/// assert_eq!(cpu.admit(SimTime::ZERO, d), SimTime::from_millis(100));
/// assert_eq!(cpu.admit(SimTime::ZERO, d), SimTime::from_millis(200));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Processor {
    busy_until: SimTime,
    stats: ProcessorStats,
}

impl Processor {
    /// Creates an idle processor.
    pub fn new() -> Self {
        Processor::default()
    }

    /// The time at which all admitted work completes.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Returns `true` if the server would be idle at `t`.
    pub fn is_idle_at(&self, t: SimTime) -> bool {
        t >= self.busy_until
    }

    /// Workload statistics.
    pub fn stats(&self) -> ProcessorStats {
        self.stats
    }

    /// Admits a work item arriving at `arrival` with the given `service`
    /// time and returns its completion time.
    ///
    /// Items must be admitted in nondecreasing arrival order (FIFO); this
    /// is asserted in debug builds.
    pub fn admit(&mut self, arrival: SimTime, service: SimDuration) -> SimTime {
        let start = arrival.max(self.busy_until);
        let wait = start - arrival;
        let done = start + service;
        self.busy_until = done;
        self.stats.admitted += 1;
        self.stats.total_service += service;
        self.stats.total_wait += wait;
        self.stats.max_wait = self.stats.max_wait.max(wait);
        done
    }

    /// Resets the processor to idle and clears statistics.
    pub fn reset(&mut self) {
        *self = Processor::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_server_starts_immediately() {
        let mut p = Processor::new();
        let done = p.admit(SimTime::from_secs(5), SimDuration::from_millis(300));
        assert_eq!(done, SimTime::from_millis(5300));
    }

    #[test]
    fn back_to_back_items_serialize() {
        let mut p = Processor::new();
        let d = SimDuration::from_millis(100);
        let t0 = SimTime::ZERO;
        assert_eq!(p.admit(t0, d), SimTime::from_millis(100));
        assert_eq!(p.admit(t0, d), SimTime::from_millis(200));
        assert_eq!(p.admit(t0, d), SimTime::from_millis(300));
    }

    #[test]
    fn gap_lets_server_drain() {
        let mut p = Processor::new();
        let d = SimDuration::from_millis(100);
        p.admit(SimTime::ZERO, d);
        // Arrives after the first item finished: no queueing.
        let done = p.admit(SimTime::from_secs(1), d);
        assert_eq!(done, SimTime::from_millis(1100));
        assert_eq!(p.stats().total_wait, SimDuration::ZERO);
    }

    #[test]
    fn wait_statistics() {
        let mut p = Processor::new();
        let d = SimDuration::from_millis(200);
        p.admit(SimTime::ZERO, d); // no wait
        p.admit(SimTime::ZERO, d); // waits 200ms
        p.admit(SimTime::ZERO, d); // waits 400ms
        let s = p.stats();
        assert_eq!(s.admitted, 3);
        assert_eq!(s.total_service, SimDuration::from_millis(600));
        assert_eq!(s.total_wait, SimDuration::from_millis(600));
        assert_eq!(s.max_wait, SimDuration::from_millis(400));
    }

    #[test]
    fn is_idle_at_tracks_busy_until() {
        let mut p = Processor::new();
        assert!(p.is_idle_at(SimTime::ZERO));
        p.admit(SimTime::ZERO, SimDuration::from_secs(1));
        assert!(!p.is_idle_at(SimTime::from_millis(500)));
        assert!(p.is_idle_at(SimTime::from_secs(1)));
    }

    #[test]
    fn reset_clears_state() {
        let mut p = Processor::new();
        p.admit(SimTime::ZERO, SimDuration::from_secs(10));
        p.reset();
        assert!(p.is_idle_at(SimTime::ZERO));
        assert_eq!(p.stats(), ProcessorStats::default());
    }

    #[test]
    fn completion_times_are_monotone_for_fifo_arrivals() {
        // Completion order must match arrival order: the invariant the
        // network layer relies on to keep per-peer message order.
        let mut p = Processor::new();
        let mut last = SimTime::ZERO;
        let arrivals = [0u64, 50, 50, 120, 400, 401, 2000];
        for &ms in &arrivals {
            let done = p.admit(SimTime::from_millis(ms), SimDuration::from_millis(100));
            assert!(done > last);
            last = done;
        }
    }
}
