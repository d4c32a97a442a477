//! Point-to-point link model.
//!
//! A [`Link`] is a unidirectional channel with a fixed propagation delay
//! and an up/down state. Delivery is reliable and in order while the link
//! is up (the TCP abstraction used between BGP peers); anything "sent"
//! while the link is down is dropped and counted.
//!
//! The ICDCS'04 study sets the link delay to 2 ms — two orders of
//! magnitude below the message processing delay — so transport details
//! are deliberately negligible.

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Statistics for a link direction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Messages accepted for delivery.
    pub delivered: u64,
    /// Messages dropped because the link was down.
    pub dropped: u64,
    /// Messages dropped by the random-loss model while the link was up.
    pub lost: u64,
}

/// Independent per-message random loss on an up link.
///
/// The generator is a child stream owned by this link direction, so
/// loss draws here never perturb any other random sequence in the run.
#[derive(Debug, Clone)]
struct LossModel {
    probability: f64,
    rng: SimRng,
}

/// A unidirectional reliable FIFO channel with propagation delay.
///
/// # Examples
///
/// ```
/// use bgpsim_netsim::link::Link;
/// use bgpsim_netsim::time::{SimDuration, SimTime};
///
/// let mut link = Link::new(SimDuration::from_millis(2));
/// let arrival = link.transmit(SimTime::from_secs(1)).unwrap();
/// assert_eq!(arrival, SimTime::from_millis(1002));
/// ```
#[derive(Debug, Clone)]
pub struct Link {
    delay: SimDuration,
    up: bool,
    /// Latest arrival handed out so far; used to preserve FIFO order even
    /// if the delay is later reconfigured.
    last_arrival: SimTime,
    loss: Option<LossModel>,
    stats: LinkStats,
}

impl Link {
    /// Creates an up link with the given propagation delay.
    pub fn new(delay: SimDuration) -> Self {
        Link {
            delay,
            up: true,
            last_arrival: SimTime::ZERO,
            loss: None,
            stats: LinkStats::default(),
        }
    }

    /// Installs a random-loss model: each message transmitted while the
    /// link is up is dropped with `probability`, drawn from `rng`.
    ///
    /// The generator should be a dedicated child stream for this link
    /// direction (see `SimRng::fork`) so delivery decisions stay
    /// bit-identical no matter what else draws randomness in the run.
    /// A link without a loss model never draws, which keeps lossless
    /// runs byte-identical to pre-fault behavior.
    pub fn set_loss(&mut self, probability: f64, rng: SimRng) {
        debug_assert!((0.0..=1.0).contains(&probability));
        self.loss = Some(LossModel { probability, rng });
    }

    /// The propagation delay.
    pub fn delay(&self) -> SimDuration {
        self.delay
    }

    /// Changes the propagation delay for subsequent transmissions.
    /// In-flight FIFO ordering is still preserved.
    pub fn set_delay(&mut self, delay: SimDuration) {
        self.delay = delay;
    }

    /// Returns `true` if the link is up.
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Takes the link down. Subsequent transmissions are dropped.
    pub fn fail(&mut self) {
        self.up = false;
    }

    /// Brings the link back up.
    pub fn restore(&mut self) {
        self.up = true;
    }

    /// Delivery statistics.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Computes the arrival time for a message sent at `send_time`, or
    /// `None` if the link is down (the message is dropped and counted).
    ///
    /// Arrival times are monotone across calls, preserving FIFO order.
    pub fn transmit(&mut self, send_time: SimTime) -> Option<SimTime> {
        if !self.up {
            self.stats.dropped += 1;
            return None;
        }
        if let Some(loss) = &mut self.loss {
            if loss.rng.unit_f64() < loss.probability {
                self.stats.lost += 1;
                return None;
            }
        }
        let arrival = (send_time + self.delay).max(self.last_arrival);
        self.last_arrival = arrival;
        self.stats.delivered += 1;
        Some(arrival)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transmit_adds_delay() {
        let mut l = Link::new(SimDuration::from_millis(2));
        assert_eq!(
            l.transmit(SimTime::from_secs(1)),
            Some(SimTime::from_millis(1002))
        );
    }

    #[test]
    fn down_link_drops() {
        let mut l = Link::new(SimDuration::from_millis(2));
        l.fail();
        assert!(!l.is_up());
        assert_eq!(l.transmit(SimTime::ZERO), None);
        assert_eq!(l.stats().dropped, 1);
        assert_eq!(l.stats().delivered, 0);
    }

    #[test]
    fn restore_resumes_delivery() {
        let mut l = Link::new(SimDuration::from_millis(2));
        l.fail();
        assert_eq!(l.transmit(SimTime::ZERO), None);
        l.restore();
        assert!(l.transmit(SimTime::from_secs(1)).is_some());
        assert_eq!(l.stats().delivered, 1);
    }

    #[test]
    fn fifo_preserved_when_delay_shrinks() {
        let mut l = Link::new(SimDuration::from_secs(1));
        let a1 = l.transmit(SimTime::ZERO).unwrap();
        l.set_delay(SimDuration::from_millis(1));
        // Sent later but with a much smaller delay: must not overtake.
        let a2 = l.transmit(SimTime::from_millis(10)).unwrap();
        assert!(a2 >= a1, "{a2} overtook {a1}");
    }

    #[test]
    fn loss_model_drops_and_counts() {
        let mut l = Link::new(SimDuration::from_millis(2));
        l.set_loss(1.0, SimRng::new(1));
        assert_eq!(l.transmit(SimTime::ZERO), None);
        assert_eq!(l.stats().lost, 1);
        assert_eq!(l.stats().delivered, 0);
        // Down-drops are counted separately from loss-drops.
        l.fail();
        assert_eq!(l.transmit(SimTime::ZERO), None);
        assert_eq!(l.stats().dropped, 1);
        assert_eq!(l.stats().lost, 1);
    }

    #[test]
    fn zero_loss_delivers_everything() {
        let mut l = Link::new(SimDuration::from_millis(2));
        l.set_loss(0.0, SimRng::new(1));
        for ms in 0..50u64 {
            assert!(l.transmit(SimTime::from_millis(ms)).is_some());
        }
        assert_eq!(l.stats().lost, 0);
        assert_eq!(l.stats().delivered, 50);
    }

    #[test]
    fn loss_pattern_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut l = Link::new(SimDuration::from_millis(2));
            l.set_loss(0.3, SimRng::new(seed));
            (0..100u64)
                .map(|ms| l.transmit(SimTime::from_millis(ms)).is_some())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn arrival_monotone_for_ordered_sends() {
        let mut l = Link::new(SimDuration::from_millis(2));
        let mut last = SimTime::ZERO;
        for ms in [0u64, 1, 1, 5, 100] {
            let a = l.transmit(SimTime::from_millis(ms)).unwrap();
            assert!(a >= last);
            last = a;
        }
        assert_eq!(l.stats().delivered, 5);
    }
}
