//! The discrete-event simulation engine.
//!
//! [`Engine`] owns the simulation clock and the pending-event queue and
//! advances time by delivering events in `(time, schedule-order)` order.
//! It is generic over the event payload type `E`; the network layer on
//! top defines its own event enum and drives the engine with
//! [`Engine::pop`] or [`Engine::run`].

use crate::queue::{EventId, EventQueue};
use crate::time::{SimDuration, SimTime};

/// Statistics about engine execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Events delivered so far.
    pub delivered: u64,
    /// Events scheduled so far (including later-cancelled ones).
    pub scheduled: u64,
    /// Events cancelled before delivery.
    pub cancelled: u64,
    /// High-water mark of the pending-event queue depth.
    pub max_pending: u64,
}

/// Rejected schedule request: the target time is before the engine's
/// current clock.
///
/// Returned by [`Engine::try_schedule_at`]; [`Engine::schedule_at`]
/// panics with this error's message instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PastEventError {
    /// The requested delivery time.
    pub at: SimTime,
    /// The engine clock when the request was made.
    pub now: SimTime,
}

impl std::fmt::Display for PastEventError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cannot schedule into the past: {} < now {}",
            self.at, self.now
        )
    }
}

impl std::error::Error for PastEventError {}

/// Why an [`Engine::run`] loop stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// No pending events remain: the simulation is quiescent.
    Quiescent,
    /// The time horizon passed to [`Engine::run_until`] was reached.
    Horizon,
    /// The event budget passed to [`Engine::run_capped`] was exhausted.
    Budget,
    /// The handler requested a stop via [`Engine::request_stop`].
    Requested,
}

/// A deterministic discrete-event simulator core.
///
/// # Examples
///
/// ```
/// use bgpsim_netsim::engine::Engine;
/// use bgpsim_netsim::time::{SimDuration, SimTime};
///
/// let mut engine: Engine<&str> = Engine::new();
/// engine.schedule_at(SimTime::from_secs(1), "hello");
/// engine.schedule_after(SimDuration::from_secs(2), "world");
/// let mut seen = Vec::new();
/// engine.run(|eng, ev| seen.push((eng.now(), ev)));
/// assert_eq!(seen.len(), 2);
/// assert_eq!(engine.now(), SimTime::from_secs(2));
/// ```
#[derive(Debug)]
pub struct Engine<E> {
    queue: EventQueue<E>,
    now: SimTime,
    stats: EngineStats,
    stop_requested: bool,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an engine with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Engine {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            stats: EngineStats::default(),
            stop_requested: false,
        }
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Execution statistics so far.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Number of live pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_quiescent(&self) -> bool {
        self.queue.is_empty()
    }

    /// Delivery time of the next pending event, if any.
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Schedules `payload` for delivery at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time: scheduling into
    /// the past would violate causality. Callers that want to reject a
    /// bad timestamp gracefully (e.g. fault-plan installation) should
    /// use [`Engine::try_schedule_at`] instead.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) -> EventId {
        match self.try_schedule_at(at, payload) {
            Ok(id) => id,
            Err(e) => panic!("{e}"),
        }
    }

    /// Schedules `payload` at absolute time `at`, returning a typed
    /// error instead of panicking when `at` is already in the past.
    ///
    /// On `Err` the engine is untouched: nothing is enqueued and no
    /// statistics change.
    pub fn try_schedule_at(&mut self, at: SimTime, payload: E) -> Result<EventId, PastEventError> {
        self.admit(at, |queue| queue.schedule(at, payload))
    }

    /// What every way of scheduling shares: refuse the past, count the
    /// event, track the queue's high-water mark.
    fn admit(
        &mut self,
        at: SimTime,
        enqueue: impl FnOnce(&mut EventQueue<E>) -> EventId,
    ) -> Result<EventId, PastEventError> {
        if at < self.now {
            return Err(PastEventError { at, now: self.now });
        }
        self.stats.scheduled += 1;
        let id = enqueue(&mut self.queue);
        self.stats.max_pending = self.stats.max_pending.max(self.queue.len() as u64);
        Ok(id)
    }

    /// Schedules `payload` at absolute time `at` under an explicit
    /// total-order tag (see [`EventQueue::schedule_ordered`]): ties on
    /// `at` deliver in ascending `order` instead of local scheduling
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time.
    pub fn schedule_at_ordered(&mut self, at: SimTime, order: u64, payload: E) -> EventId {
        self.admit(at, |queue| queue.schedule_ordered(at, order, payload))
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`schedule_at_ordered`](Self::schedule_at_ordered) for an event
    /// source whose `(at, order)` keys are non-decreasing, such as a
    /// constant-delay wire or a serial processor: the event waits in
    /// FIFO lane `lane` (see [`EventQueue::schedule_lane`]). Delivery
    /// order is unchanged — a key out of its lane's order is queued
    /// like any other — only cheaper.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time.
    pub fn schedule_at_lane(
        &mut self,
        lane: usize,
        at: SimTime,
        order: u64,
        payload: E,
    ) -> EventId {
        self.admit(at, |queue| queue.schedule_lane(lane, at, order, payload))
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Schedules `payload` for delivery `delay` after the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, payload: E) -> EventId {
        self.schedule_at(self.now + delay, payload)
    }

    /// Schedules `payload` for immediate delivery (at the current time,
    /// after all events already scheduled for this instant).
    pub fn schedule_now(&mut self, payload: E) -> EventId {
        self.schedule_after(SimDuration::ZERO, payload)
    }

    /// Cancels a pending event. Returns `true` if it had not yet fired.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let hit = self.queue.cancel(id);
        if hit {
            self.stats.cancelled += 1;
        }
        hit
    }

    /// Asks the currently running [`run`](Self::run) loop to stop after
    /// the current event.
    pub fn request_stop(&mut self) {
        self.stop_requested = true;
    }

    /// Removes and returns the next event, advancing the clock to its
    /// delivery time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (time, _, payload) = self.queue.pop()?;
        debug_assert!(time >= self.now, "event queue returned a past event");
        self.now = time;
        self.stats.delivered += 1;
        Some((time, payload))
    }

    /// Moves the clock forward to `at` without delivering anything.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past or would skip over a pending
    /// event.
    pub fn advance_to(&mut self, at: SimTime) {
        assert!(at >= self.now, "cannot move the clock backwards");
        if let Some(t) = self.next_event_time() {
            assert!(
                at <= t,
                "advancing to {at} would skip the pending event at {t}"
            );
        }
        self.now = at;
    }

    /// Runs until quiescent, calling `handler` for each event. The handler
    /// may schedule further events and may call
    /// [`request_stop`](Self::request_stop).
    pub fn run<F>(&mut self, mut handler: F) -> StopReason
    where
        F: FnMut(&mut Engine<E>, E),
    {
        self.stop_requested = false;
        loop {
            if self.stop_requested {
                return StopReason::Requested;
            }
            match self.pop() {
                Some((_, payload)) => handler(self, payload),
                None => return StopReason::Quiescent,
            }
        }
    }

    /// Runs until quiescent or until the clock would pass `horizon`.
    /// Events scheduled exactly at `horizon` are delivered. On return the
    /// clock is at most `horizon`.
    pub fn run_until<F>(&mut self, horizon: SimTime, mut handler: F) -> StopReason
    where
        F: FnMut(&mut Engine<E>, E),
    {
        self.stop_requested = false;
        loop {
            if self.stop_requested {
                return StopReason::Requested;
            }
            match self.next_event_time() {
                None => return StopReason::Quiescent,
                Some(t) if t > horizon => {
                    self.now = horizon;
                    return StopReason::Horizon;
                }
                Some(_) => {
                    let (_, payload) = self.pop().expect("peeked event vanished");
                    handler(self, payload);
                }
            }
        }
    }

    /// Runs until quiescent or until `budget` events have been delivered.
    /// A budget guards against runaway event loops (e.g. a protocol bug
    /// that keeps generating messages forever).
    pub fn run_capped<F>(&mut self, budget: u64, mut handler: F) -> StopReason
    where
        F: FnMut(&mut Engine<E>, E),
    {
        self.stop_requested = false;
        let mut remaining = budget;
        loop {
            if self.stop_requested {
                return StopReason::Requested;
            }
            if remaining == 0 {
                return StopReason::Budget;
            }
            match self.pop() {
                Some((_, payload)) => {
                    remaining -= 1;
                    handler(self, payload);
                }
                None => return StopReason::Quiescent,
            }
        }
    }

    /// Drops all pending events (the clock is left unchanged).
    pub fn clear(&mut self) {
        self.queue.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_with_events() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule_at(SimTime::from_secs(5), 1);
        e.schedule_at(SimTime::from_secs(2), 2);
        let (t, ev) = e.pop().unwrap();
        assert_eq!((t, ev), (SimTime::from_secs(2), 2));
        assert_eq!(e.now(), SimTime::from_secs(2));
        let (t, ev) = e.pop().unwrap();
        assert_eq!((t, ev), (SimTime::from_secs(5), 1));
        assert!(e.pop().is_none());
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut e: Engine<()> = Engine::new();
        e.schedule_at(SimTime::from_secs(5), ());
        e.pop();
        e.schedule_at(SimTime::from_secs(1), ());
    }

    #[test]
    fn try_schedule_at_rejects_past_without_mutating() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule_at(SimTime::from_secs(5), 1);
        e.pop();
        let before = e.stats();
        let err = e.try_schedule_at(SimTime::from_secs(1), 2).unwrap_err();
        assert_eq!(err.at, SimTime::from_secs(1));
        assert_eq!(err.now, SimTime::from_secs(5));
        assert!(err.to_string().contains("cannot schedule into the past"));
        // A rejected request leaves the engine untouched.
        assert_eq!(e.stats(), before);
        assert!(e.is_quiescent());
        // Scheduling at exactly `now` is still fine.
        assert!(e.try_schedule_at(SimTime::from_secs(5), 3).is_ok());
    }

    #[test]
    fn handler_can_schedule_followups() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule_at(SimTime::from_secs(1), 0);
        let mut seen = Vec::new();
        let reason = e.run(|eng, n| {
            seen.push((eng.now(), n));
            if n < 3 {
                eng.schedule_after(SimDuration::from_secs(1), n + 1);
            }
        });
        assert_eq!(reason, StopReason::Quiescent);
        assert_eq!(
            seen,
            vec![
                (SimTime::from_secs(1), 0),
                (SimTime::from_secs(2), 1),
                (SimTime::from_secs(3), 2),
                (SimTime::from_secs(4), 3),
            ]
        );
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut e: Engine<u32> = Engine::new();
        for s in 1..=10 {
            e.schedule_at(SimTime::from_secs(s), s as u32);
        }
        let mut seen = Vec::new();
        let reason = e.run_until(SimTime::from_secs(4), |_, n| seen.push(n));
        assert_eq!(reason, StopReason::Horizon);
        assert_eq!(seen, vec![1, 2, 3, 4]);
        assert_eq!(e.now(), SimTime::from_secs(4));
        assert_eq!(e.pending(), 6);
    }

    #[test]
    fn run_until_quiescent_before_horizon() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule_at(SimTime::from_secs(1), 1);
        let reason = e.run_until(SimTime::from_secs(100), |_, _| {});
        assert_eq!(reason, StopReason::Quiescent);
        assert_eq!(e.now(), SimTime::from_secs(1));
    }

    #[test]
    fn run_capped_stops_at_budget() {
        let mut e: Engine<u64> = Engine::new();
        e.schedule_at(SimTime::from_secs(1), 0);
        // Self-perpetuating event chain.
        let reason = e.run_capped(100, |eng, n| {
            eng.schedule_after(SimDuration::from_secs(1), n + 1);
        });
        assert_eq!(reason, StopReason::Budget);
        assert_eq!(e.stats().delivered, 100);
    }

    #[test]
    fn request_stop_halts_loop() {
        let mut e: Engine<u32> = Engine::new();
        for s in 1..=5 {
            e.schedule_at(SimTime::from_secs(s), s as u32);
        }
        let mut count = 0;
        let reason = e.run(|eng, _| {
            count += 1;
            if count == 2 {
                eng.request_stop();
            }
        });
        assert_eq!(reason, StopReason::Requested);
        assert_eq!(count, 2);
        assert_eq!(e.pending(), 3);
    }

    #[test]
    fn cancelled_events_are_not_delivered() {
        let mut e: Engine<&str> = Engine::new();
        let id = e.schedule_at(SimTime::from_secs(1), "dead");
        e.schedule_at(SimTime::from_secs(2), "alive");
        assert!(e.cancel(id));
        let mut seen = Vec::new();
        e.run(|_, ev| seen.push(ev));
        assert_eq!(seen, vec!["alive"]);
        assert_eq!(e.stats().cancelled, 1);
    }

    #[test]
    fn same_time_events_deliver_in_schedule_order() {
        let mut e: Engine<u32> = Engine::new();
        let t = SimTime::from_secs(1);
        for i in 0..5 {
            e.schedule_at(t, i);
        }
        let mut seen = Vec::new();
        e.run(|_, ev| seen.push(ev));
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn schedule_now_runs_after_current_instant_events() {
        let mut e: Engine<&str> = Engine::new();
        e.schedule_at(SimTime::from_secs(1), "first");
        let mut seen = Vec::new();
        e.run(|eng, ev| {
            seen.push(ev);
            if ev == "first" {
                eng.schedule_now("second");
            }
        });
        assert_eq!(seen, vec!["first", "second"]);
        assert_eq!(e.now(), SimTime::from_secs(1));
    }

    #[test]
    fn advance_to_moves_the_clock_between_events() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule_at(SimTime::from_secs(1), 1);
        e.schedule_at(SimTime::from_secs(5), 5);
        assert_eq!(e.pop(), Some((SimTime::from_secs(1), 1)));
        assert_eq!(e.next_event_time(), Some(SimTime::from_secs(5)));
        assert_eq!(e.now(), SimTime::from_secs(1), "peeking leaves the clock");
        e.advance_to(SimTime::from_secs(3));
        assert_eq!(e.now(), SimTime::from_secs(3));
        assert_eq!(e.pop(), Some((SimTime::from_secs(5), 5)));
    }

    #[test]
    #[should_panic(expected = "skip the pending event")]
    fn advance_to_cannot_skip_events() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule_at(SimTime::from_secs(2), 1);
        e.advance_to(SimTime::from_secs(3));
    }

    #[test]
    fn stats_track_counts() {
        let mut e: Engine<u8> = Engine::new();
        e.schedule_at(SimTime::from_secs(1), 1);
        let id = e.schedule_at(SimTime::from_secs(2), 2);
        e.cancel(id);
        e.run(|_, _| {});
        let s = e.stats();
        assert_eq!(s.scheduled, 2);
        assert_eq!(s.delivered, 1);
        assert_eq!(s.cancelled, 1);
        assert_eq!(s.max_pending, 2, "both events were pending at once");
    }
}
